//! Tokenizer for the JS-like subset.
//!
//! Free-form (no indentation sensitivity): newlines are skipped like other
//! whitespace and statements are terminated by `;` or `}`. Comments are
//! `//` to end of line and `/* ... */`.

use seldon_ir::{LexError, LexErrorKind, Span};
use std::fmt;

/// Defines [`TokenKind`] from one table, with its keyword and punctuation
/// lookups and its `Display`.
macro_rules! token_kinds {
    (
        lexemes { $($lex:ident: $lex_doc:literal => $lex_shown:literal,)* }
        keywords { $($kw:ident = $kw_text:literal,)* }
        punctuation { $($punct:ident = $punct_char:literal,)* }
    ) => {
        /// A token kind of the JS-like subset. The lexeme itself is the
        /// token's [`Token::text`], a slice of the source.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum TokenKind {
            $(#[doc = $lex_doc] $lex,)*
            $(#[doc = concat!("`", $kw_text, "`")] $kw,)*
            $(#[doc = concat!("`", $punct_char, "`")] $punct,)*
            /// Any other single operator character (`-*/%<>!&|?`), kept for
            /// expression-level recovery; `==`, `===` and `=>` are `Op(b'=')`.
            Op(u8),
        }

        impl TokenKind {
            /// The keyword `word` spells (`undefined` is `null`), if any.
            fn keyword(word: &str) -> Option<TokenKind> {
                match word {
                    $($kw_text => Some(TokenKind::$kw),)*
                    "undefined" => Some(TokenKind::Null),
                    _ => None,
                }
            }

            /// The punctuation token `c` spells, if any.
            fn punctuation(c: char) -> Option<TokenKind> {
                match c {
                    $($punct_char => Some(TokenKind::$punct),)*
                    _ => None,
                }
            }

            /// A distinct byte per kind, the operator of an `Op` left out
            /// (its text spells it).
            pub fn tag(self) -> u8 {
                /// The kinds without their payload, numbered in order.
                enum Tag { $($lex,)* $($kw,)* $($punct,)* Op }
                match self {
                    $(TokenKind::$lex => Tag::$lex as u8,)*
                    $(TokenKind::$kw => Tag::$kw as u8,)*
                    $(TokenKind::$punct => Tag::$punct as u8,)*
                    TokenKind::Op(_) => Tag::Op as u8,
                }
            }
        }

        impl fmt::Display for TokenKind {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(match self {
                    $(TokenKind::$lex => $lex_shown,)*
                    $(TokenKind::$kw => concat!("`", $kw_text, "`"),)*
                    $(TokenKind::$punct => concat!("`", $punct_char, "`"),)*
                    TokenKind::Op(c) => return write!(f, "`{}`", char::from(*c)),
                })
            }
        }
    };
}

token_kinds! {
    lexemes {
        Ident: "Identifier (also covers non-keyword words)." => "identifier",
        Str: "String literal (single or double quoted); the parser decodes its escapes." =>
            "string literal",
        Num: "Numeric literal, kept as written." => "number",
        EndOfFile: "End of input." => "end of file",
    }
    keywords {
        Function = "function", Var = "var", Let = "let", Const = "const", Return = "return",
        If = "if", Else = "else", Import = "import", From = "from", As = "as", New = "new",
        True = "true", False = "false", Null = "null",
    }
    punctuation {
        LParen = '(', RParen = ')', LBrace = '{', RBrace = '}', LBracket = '[', RBracket = ']',
        Comma = ',', Semi = ';', Dot = '.', Colon = ':', Eq = '=', Plus = '+',
    }
}

/// A token: its kind, the source text it covers (quotes included for a
/// string) and where that text starts. The span ends where the text does,
/// so a token is four words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token<'s> {
    /// The exact source text of the token.
    pub text: &'s str,
    /// Byte offset of `text` in the source.
    pub start: u32,
    /// 1-based line of `start`.
    pub line: u32,
    /// 1-based column of `start`.
    pub col: u32,
    /// The token kind.
    pub kind: TokenKind,
}

impl Token<'_> {
    /// Where the token sits in the source.
    pub fn span(&self) -> Span {
        Span::new(self.start, self.start + self.text.len() as u32, self.line, self.col)
    }
}

impl fmt::Display for Token<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            TokenKind::Ident | TokenKind::Num => write!(f, "{} `{}`", self.kind, self.text),
            kind => kind.fmt(f),
        }
    }
}

/// Tokenizes `source` into a token stream ending with `EndOfFile`.
///
/// # Errors
///
/// Returns a [`LexError`] on an unterminated string/comment or a character
/// no token can start with.
pub fn lex(source: &str) -> Result<Vec<Token<'_>>, LexError> {
    let bytes = source.as_bytes();
    // About one token per four bytes of source, so the stream rarely grows.
    let mut tokens = Vec::with_capacity(source.len() / 4);
    let mut i = 0usize;
    let mut line = 1u32;
    let mut col = 1u32;
    macro_rules! span_at {
        ($start:expr, $len:expr, $line:expr, $col:expr) => {
            Span::new($start as u32, ($start + $len) as u32, $line, $col)
        };
    }
    let token = |kind, start: usize, end: usize, line, col| Token {
        text: &source[start..end],
        start: start as u32,
        line,
        col,
        kind,
    };
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\r' => {
                i += 1;
                col += 1;
            }
            '\n' => {
                i += 1;
                line += 1;
                col = 1;
            }
            '/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '/' if bytes.get(i + 1) == Some(&b'*') => {
                let (sl, sc, start) = (line, col, i);
                i += 2;
                col += 2;
                loop {
                    if i + 1 >= bytes.len() {
                        return Err(LexError::new(
                            LexErrorKind::UnterminatedComment,
                            span_at!(start, 2, sl, sc),
                        ));
                    }
                    if bytes[i] == b'*' && bytes[i + 1] == b'/' {
                        i += 2;
                        col += 2;
                        break;
                    }
                    if bytes[i] == b'\n' {
                        line += 1;
                        col = 1;
                    } else {
                        col += 1;
                    }
                    i += 1;
                }
            }
            '\'' | '"' => {
                let quote = bytes[i];
                let (sl, sc, start) = (line, col, i);
                i += 1;
                col += 1;
                loop {
                    if i >= bytes.len() || bytes[i] == b'\n' {
                        return Err(LexError::new(
                            LexErrorKind::UnterminatedString,
                            span_at!(start, 1, sl, sc),
                        ));
                    }
                    if bytes[i] == quote {
                        i += 1;
                        col += 1;
                        break;
                    }
                    if bytes[i] == b'\\' && i + 1 < bytes.len() {
                        i += 2;
                        col += 2;
                        continue;
                    }
                    i += 1;
                    col += 1;
                }
                tokens.push(token(TokenKind::Str, start, i, sl, sc));
            }
            _ if c.is_ascii_digit() => {
                let (sl, sc, start) = (line, col, i);
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'.')
                {
                    // Stop a trailing method chain like `1.toFixed` cleanly:
                    // only consume a dot followed by a digit.
                    if bytes[i] == b'.'
                        && !bytes.get(i + 1).is_some_and(|b| (*b as char).is_ascii_digit())
                    {
                        break;
                    }
                    i += 1;
                    col += 1;
                }
                tokens.push(token(TokenKind::Num, start, i, sl, sc));
            }
            _ if c.is_ascii_alphabetic() || c == '_' || c == '$' => {
                let (sl, sc, start) = (line, col, i);
                while i < bytes.len() {
                    let w = bytes[i] as char;
                    if w.is_ascii_alphanumeric() || w == '_' || w == '$' {
                        i += 1;
                        col += 1;
                    } else {
                        break;
                    }
                }
                let kind = TokenKind::keyword(&source[start..i]).unwrap_or(TokenKind::Ident);
                tokens.push(token(kind, start, i, sl, sc));
            }
            _ => {
                // `==`, `===` and `=>` are one comparison or arrow operator.
                let len = match (c, bytes.get(i + 1)) {
                    ('=', Some(b'=' | b'>')) => 2 + usize::from(bytes.get(i + 2) == Some(&b'=')),
                    _ => 1,
                };
                let kind = match c {
                    '=' if len > 1 => TokenKind::Op(b'='),
                    '-' | '*' | '/' | '%' | '<' | '>' | '!' | '&' | '|' | '?' => TokenKind::Op(bytes[i]),
                    _ => TokenKind::punctuation(c).ok_or_else(|| {
                        let span = span_at!(i, c.len_utf8(), line, col);
                        LexError::new(LexErrorKind::UnexpectedChar(c), span)
                    })?,
                };
                tokens.push(token(kind, i, i + len, line, col));
                i += len;
                col += len as u32;
            }
        }
    }
    tokens.push(token(TokenKind::EndOfFile, i, i, line, col));
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).expect("lexes").into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn keywords_and_idents() {
        let toks = lex("const x = require('express');").expect("lexes");
        let lexemes: Vec<(TokenKind, &str)> = toks.iter().map(|t| (t.kind, t.text)).collect();
        assert_eq!(
            lexemes,
            vec![
                (TokenKind::Const, "const"),
                (TokenKind::Ident, "x"),
                (TokenKind::Eq, "="),
                (TokenKind::Ident, "require"),
                (TokenKind::LParen, "("),
                (TokenKind::Str, "'express'"),
                (TokenKind::RParen, ")"),
                (TokenKind::Semi, ";"),
                (TokenKind::EndOfFile, ""),
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        let ks = kinds("// line\nx /* block\nspans */ = 1;");
        assert_eq!(
            ks,
            vec![
                TokenKind::Ident,
                TokenKind::Eq,
                TokenKind::Num,
                TokenKind::Semi,
                TokenKind::EndOfFile,
            ]
        );
    }

    #[test]
    fn string_escapes() {
        let toks = lex(r#"s = "a\"b";"#).unwrap();
        assert_eq!((toks[2].kind, toks[2].text), (TokenKind::Str, r#""a\"b""#));
    }

    #[test]
    fn spans_track_lines() {
        let toks = lex("x\ny").unwrap();
        assert_eq!(toks[0].span(), Span::new(0, 1, 1, 1));
        assert_eq!(toks[1].span(), Span::new(2, 3, 2, 1));
    }

    #[test]
    fn unterminated_string_errors() {
        let e = lex("x = 'oops").unwrap_err();
        assert!(matches!(e.kind, LexErrorKind::UnterminatedString));
        let e = lex("/* never ends").unwrap_err();
        assert!(matches!(e.kind, LexErrorKind::UnterminatedComment));
    }

    #[test]
    fn numbers_with_decimals() {
        let toks = lex("a = 3.25;").unwrap();
        assert_eq!((toks[2].kind, toks[2].text), (TokenKind::Num, "3.25"));
    }

    #[test]
    fn eq_variants() {
        let ks = kinds("a == b === c => d = e");
        let ops: Vec<_> = ks
            .iter()
            .filter(|k| matches!(k, TokenKind::Op(b'=') | TokenKind::Eq))
            .collect();
        assert_eq!(ops.len(), 4); // ==, ===, =>, =
        assert!(matches!(ops[3], TokenKind::Eq));
    }

    #[test]
    fn tags_tell_kinds_apart() {
        let ks = kinds("x = 'a' + 1 - 2 * 3; function f() { return null; } if (x == y) {} else {}");
        for a in &ks {
            for b in &ks {
                let same = a == b || matches!((a, b), (TokenKind::Op(_), TokenKind::Op(_)));
                assert_eq!(a.tag() == b.tag(), same, "{a:?} and {b:?}");
            }
        }
    }

    #[test]
    fn token_is_four_words() {
        assert!(std::mem::size_of::<Token<'_>>() <= 32);
    }
}
