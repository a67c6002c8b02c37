//! Tokenizer for the JS-like subset.
//!
//! Free-form (no indentation sensitivity): newlines are skipped like other
//! whitespace and statements are terminated by `;` or `}`. Comments are
//! `//` to end of line and `/* ... */`.

use seldon_ir::{LexError, LexErrorKind, Span};
use std::fmt;

/// A token kind of the JS-like subset.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// Identifier (also covers non-keyword words).
    Ident(String),
    /// String literal (single or double quoted), unescaped contents.
    Str(String),
    /// Numeric literal, kept as written.
    Num(String),
    /// `function`
    Function,
    /// `var`
    Var,
    /// `let`
    Let,
    /// `const`
    Const,
    /// `return`
    Return,
    /// `if`
    If,
    /// `else`
    Else,
    /// `import`
    Import,
    /// `from`
    From,
    /// `as`
    As,
    /// `new`
    New,
    /// `true`
    True,
    /// `false`
    False,
    /// `null`
    Null,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `,`
    Comma,
    /// `;`
    Semi,
    /// `.`
    Dot,
    /// `:`
    Colon,
    /// `=`
    Eq,
    /// `+`
    Plus,
    /// Any other single operator character (`-*/%<>!&|?`), kept for
    /// expression-level recovery.
    Op(char),
    /// End of input.
    EndOfFile,
    /// What the parser leaves in a token's slot after moving the token out.
    /// The lexer never produces it and the parser never reads it back.
    Taken,
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Ident(s) => write!(f, "identifier `{s}`"),
            TokenKind::Str(_) => write!(f, "string literal"),
            TokenKind::Num(n) => write!(f, "number `{n}`"),
            TokenKind::Function => write!(f, "`function`"),
            TokenKind::Var => write!(f, "`var`"),
            TokenKind::Let => write!(f, "`let`"),
            TokenKind::Const => write!(f, "`const`"),
            TokenKind::Return => write!(f, "`return`"),
            TokenKind::If => write!(f, "`if`"),
            TokenKind::Else => write!(f, "`else`"),
            TokenKind::Import => write!(f, "`import`"),
            TokenKind::From => write!(f, "`from`"),
            TokenKind::As => write!(f, "`as`"),
            TokenKind::New => write!(f, "`new`"),
            TokenKind::True => write!(f, "`true`"),
            TokenKind::False => write!(f, "`false`"),
            TokenKind::Null => write!(f, "`null`"),
            TokenKind::LParen => write!(f, "`(`"),
            TokenKind::RParen => write!(f, "`)`"),
            TokenKind::LBrace => write!(f, "`{{`"),
            TokenKind::RBrace => write!(f, "`}}`"),
            TokenKind::LBracket => write!(f, "`[`"),
            TokenKind::RBracket => write!(f, "`]`"),
            TokenKind::Comma => write!(f, "`,`"),
            TokenKind::Semi => write!(f, "`;`"),
            TokenKind::Dot => write!(f, "`.`"),
            TokenKind::Colon => write!(f, "`:`"),
            TokenKind::Eq => write!(f, "`=`"),
            TokenKind::Plus => write!(f, "`+`"),
            TokenKind::Op(c) => write!(f, "`{c}`"),
            TokenKind::EndOfFile => write!(f, "end of file"),
            TokenKind::Taken => write!(f, "consumed token"),
        }
    }
}

/// A token with its source span.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// The token kind (and payload).
    pub kind: TokenKind,
    /// Where the token sits in the source.
    pub span: Span,
}

/// Tokenizes `source` into a token stream ending with `EndOfFile`.
///
/// # Errors
///
/// Returns a [`LexError`] on an unterminated string/comment or a character
/// no token can start with.
pub fn lex(source: &str) -> Result<Vec<Token>, LexError> {
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
                let mut text = String::new();
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
                        let esc = bytes[i + 1] as char;
                        text.push(match esc {
                            'n' => '\n',
                            't' => '\t',
                            other => other,
                        });
                        i += 2;
                        col += 2;
                        continue;
                    }
                    text.push(bytes[i] as char);
                    i += 1;
                    col += 1;
                }
                tokens.push(Token {
                    kind: TokenKind::Str(text),
                    span: span_at!(start, i - start, sl, sc),
                });
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
                let text = &source[start..i];
                tokens.push(Token {
                    kind: TokenKind::Num(text.to_string()),
                    span: span_at!(start, i - start, sl, sc),
                });
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
                let word = &source[start..i];
                let kind = match word {
                    "function" => TokenKind::Function,
                    "var" => TokenKind::Var,
                    "let" => TokenKind::Let,
                    "const" => TokenKind::Const,
                    "return" => TokenKind::Return,
                    "if" => TokenKind::If,
                    "else" => TokenKind::Else,
                    "import" => TokenKind::Import,
                    "from" => TokenKind::From,
                    "as" => TokenKind::As,
                    "new" => TokenKind::New,
                    "true" => TokenKind::True,
                    "false" => TokenKind::False,
                    "null" | "undefined" => TokenKind::Null,
                    _ => TokenKind::Ident(word.to_string()),
                };
                tokens.push(Token { kind, span: span_at!(start, i - start, sl, sc) });
            }
            _ => {
                let kind = match c {
                    '(' => TokenKind::LParen,
                    ')' => TokenKind::RParen,
                    '{' => TokenKind::LBrace,
                    '}' => TokenKind::RBrace,
                    '[' => TokenKind::LBracket,
                    ']' => TokenKind::RBracket,
                    ',' => TokenKind::Comma,
                    ';' => TokenKind::Semi,
                    '.' => TokenKind::Dot,
                    ':' => TokenKind::Colon,
                    '=' => {
                        // `==`, `===`, `=>` are comparison/arrow ops.
                        if bytes.get(i + 1) == Some(&b'=') || bytes.get(i + 1) == Some(&b'>') {
                            let (sl, sc, start) = (line, col, i);
                            let mut len = 2;
                            if bytes.get(i + 2) == Some(&b'=') {
                                len = 3;
                            }
                            tokens.push(Token {
                                kind: TokenKind::Op('='),
                                span: span_at!(start, len, sl, sc),
                            });
                            i += len;
                            col += len as u32;
                            continue;
                        }
                        TokenKind::Eq
                    }
                    '+' => TokenKind::Plus,
                    '-' | '*' | '/' | '%' | '<' | '>' | '!' | '&' | '|' | '?' => {
                        TokenKind::Op(c)
                    }
                    other => {
                        return Err(LexError::new(
                            LexErrorKind::UnexpectedChar(other),
                            span_at!(i, other.len_utf8(), line, col),
                        ));
                    }
                };
                tokens.push(Token { kind, span: span_at!(i, 1, line, col) });
                i += 1;
                col += 1;
            }
        }
    }
    tokens.push(Token {
        kind: TokenKind::EndOfFile,
        span: Span::new(i as u32, i as u32, line, col),
    });
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
        let ks = kinds("const x = require('express');");
        assert_eq!(
            ks,
            vec![
                TokenKind::Const,
                TokenKind::Ident("x".into()),
                TokenKind::Eq,
                TokenKind::Ident("require".into()),
                TokenKind::LParen,
                TokenKind::Str("express".into()),
                TokenKind::RParen,
                TokenKind::Semi,
                TokenKind::EndOfFile,
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        let ks = kinds("// line\nx /* block\nspans */ = 1;");
        assert_eq!(
            ks,
            vec![
                TokenKind::Ident("x".into()),
                TokenKind::Eq,
                TokenKind::Num("1".into()),
                TokenKind::Semi,
                TokenKind::EndOfFile,
            ]
        );
    }

    #[test]
    fn string_escapes() {
        let ks = kinds(r#"s = "a\"b";"#);
        assert!(matches!(&ks[2], TokenKind::Str(s) if s == "a\"b"));
    }

    #[test]
    fn spans_track_lines() {
        let toks = lex("x\ny").unwrap();
        assert_eq!(toks[0].span.line, 1);
        assert_eq!(toks[1].span.line, 2);
        assert_eq!(toks[1].span.col, 1);
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
        let ks = kinds("a = 3.25;");
        assert!(matches!(&ks[2], TokenKind::Num(n) if n == "3.25"));
    }

    #[test]
    fn eq_variants() {
        let ks = kinds("a == b === c => d = e");
        let ops: Vec<_> = ks
            .iter()
            .filter(|k| matches!(k, TokenKind::Op('=') | TokenKind::Eq))
            .collect();
        assert_eq!(ops.len(), 4); // ==, ===, =>, =
        assert!(matches!(ops[3], TokenKind::Eq));
    }
}
