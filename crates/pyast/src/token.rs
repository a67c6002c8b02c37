//! Token definitions for the Python lexer.

use crate::span::Span;
use std::fmt;

/// Defines [`TokenKind`] from one table, with its keyword lookup, its
/// punctuation spellings and its `Display`.
macro_rules! token_kinds {
    (
        lexemes { $($lex:ident: $lex_doc:literal => $lex_shown:literal,)* }
        keywords { $($kw:ident = $kw_text:literal,)* }
        punctuation { $($punct:ident = $punct_text:literal,)* }
    ) => {
        /// The kind of a lexical token. The lexeme itself is the token's
        /// [`Token::text`], a slice of the source.
        ///
        /// The lexer produces logical-line structure tokens (`Newline`,
        /// `Indent`, `Dedent`, `EndOfFile`) in addition to ordinary lexemes,
        /// following the CPython tokenizer model.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum TokenKind {
            $(#[doc = $lex_doc] $lex,)*
            $(#[doc = concat!("The `", $kw_text, "` keyword.")] $kw,)*
            $(#[doc = concat!("`", $punct_text, "`")] $punct,)*
        }

        impl TokenKind {
            /// Returns the keyword token for `name`, if `name` is a Python
            /// keyword.
            pub fn keyword(name: &str) -> Option<TokenKind> {
                match name {
                    $($kw_text => Some(TokenKind::$kw),)*
                    _ => None,
                }
            }
        }

        /// Every punctuation and operator token, with its spelling.
        pub(crate) const PUNCTUATION: &[(&str, TokenKind)] =
            &[$(($punct_text, TokenKind::$punct)),*];

        impl fmt::Display for TokenKind {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(match self {
                    $(TokenKind::$lex => $lex_shown,)*
                    $(TokenKind::$kw => concat!("`", $kw_text, "`"),)*
                    $(TokenKind::$punct => concat!("`", $punct_text, "`"),)*
                })
            }
        }
    };
}

token_kinds! {
    lexemes {
        Name: "Identifier or non-keyword name." => "name",
        Int: "Integer literal (value kept as text; the analysis never needs it)." => "integer",
        Float: "Floating point literal (kept as text)." => "float",
        Str: "String literal; [`Token::body`] strips its quotes and prefix." => "string literal",
        FStr: "F-string literal; its `{...}` interpolations are parsed by the parser." =>
            "f-string literal",
        Bytes: "Bytes literal." => "bytes literal",
        AugAssign: "Augmented assignment, e.g. `+=`; the token text spells the operator." =>
            "augmented assignment",
        Newline: "End of a logical line." => "newline",
        Indent: "Increase of indentation." => "indent",
        Dedent: "Decrease of indentation." => "dedent",
        EndOfFile: "End of input." => "end of file",
    }
    keywords {
        KwFalse = "False", KwNone = "None", KwTrue = "True", KwAnd = "and", KwAs = "as",
        KwAssert = "assert", KwAsync = "async", KwAwait = "await", KwBreak = "break",
        KwClass = "class", KwContinue = "continue", KwDef = "def", KwDel = "del",
        KwElif = "elif", KwElse = "else", KwExcept = "except", KwFinally = "finally",
        KwFor = "for", KwFrom = "from", KwGlobal = "global", KwIf = "if", KwImport = "import",
        KwIn = "in", KwIs = "is", KwLambda = "lambda", KwNonlocal = "nonlocal", KwNot = "not",
        KwOr = "or", KwPass = "pass", KwRaise = "raise", KwReturn = "return", KwTry = "try",
        KwWhile = "while", KwWith = "with", KwYield = "yield",
    }
    punctuation {
        LParen = "(", RParen = ")", LBracket = "[", RBracket = "]", LBrace = "{", RBrace = "}",
        Comma = ",", Colon = ":", Semicolon = ";", Dot = ".", Arrow = "->", At = "@",
        Assign = "=", ColonAssign = ":=", Plus = "+", Minus = "-", Star = "*",
        DoubleStar = "**", Slash = "/", DoubleSlash = "//", Percent = "%", Amp = "&",
        Pipe = "|", Caret = "^", Tilde = "~", LShift = "<<", RShift = ">>", Lt = "<", Gt = ">",
        Le = "<=", Ge = ">=", EqEq = "==", NotEq = "!=", Ellipsis = "...",
    }
}

impl TokenKind {
    /// True for tokens that terminate a logical line.
    pub fn ends_line(&self) -> bool {
        matches!(self, TokenKind::Newline | TokenKind::EndOfFile)
    }
}

/// A lexical token: a [`TokenKind`], the source text it covers and where
/// that text starts. Every token, the synthesized `Newline`, `Indent`,
/// `Dedent` and `EndOfFile` included, is a slice of the source, so its span
/// ends where its text does and a token is four words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token<'s> {
    /// The exact source text of the token (quotes and prefix included for
    /// string literals).
    pub text: &'s str,
    /// Byte offset of `text` in the source.
    pub start: u32,
    /// 1-based line of `start`.
    pub line: u32,
    /// 1-based column of `start` (in bytes).
    pub col: u32,
    /// What kind of token this is.
    pub kind: TokenKind,
}

impl<'s> Token<'s> {
    /// Creates a token for `text`, which starts at byte `start`.
    pub fn new(kind: TokenKind, text: &'s str, start: u32, line: u32, col: u32) -> Self {
        Token { text, start, line, col, kind }
    }

    /// Where in the source the token came from.
    pub fn span(&self) -> Span {
        Span::new(self.start, self.start + self.text.len() as u32, self.line, self.col)
    }

    /// The token's value: a string literal's body without its prefix and
    /// quotes (escapes kept verbatim), any other token's text.
    pub fn body(&self) -> &'s str {
        if !matches!(self.kind, TokenKind::Str | TokenKind::FStr | TokenKind::Bytes) {
            return self.text;
        }
        let open = self.text.find(['\'', '"']).unwrap_or(0);
        let quote = &self.text[open..];
        let triple = quote.len() >= 6 && quote.as_bytes()[1] == quote.as_bytes()[0]
            && quote.as_bytes()[2] == quote.as_bytes()[0];
        let q = if triple { 3 } else { 1 };
        &quote[q..quote.len() - q]
    }
}

impl fmt::Display for Token<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            TokenKind::Name | TokenKind::Int | TokenKind::Float => {
                write!(f, "{} `{}`", self.kind, self.text)
            }
            TokenKind::AugAssign => write!(f, "`{}`", self.text),
            kind => kind.fmt(f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_lookup() {
        assert_eq!(TokenKind::keyword("def"), Some(TokenKind::KwDef));
        assert_eq!(TokenKind::keyword("lambda"), Some(TokenKind::KwLambda));
        assert_eq!(TokenKind::keyword("deff"), None);
        assert_eq!(TokenKind::keyword(""), None);
    }

    #[test]
    fn line_enders() {
        assert!(TokenKind::Newline.ends_line());
        assert!(TokenKind::EndOfFile.ends_line());
        assert!(!TokenKind::Colon.ends_line());
    }

    #[test]
    fn display_mentions_lexeme() {
        let token = |kind, text| Token::new(kind, text, 0, 1, 1);
        assert_eq!(token(TokenKind::Name, "foo").to_string(), "name `foo`");
        assert_eq!(token(TokenKind::AugAssign, "+=").to_string(), "`+=`");
        assert_eq!(token(TokenKind::Colon, ":").to_string(), "`:`");
    }

    #[test]
    fn body_strips_prefix_and_quotes() {
        let body = |kind, text| Token::new(kind, text, 0, 1, 1).body();
        assert_eq!(body(TokenKind::Str, "'a'"), "a");
        assert_eq!(body(TokenKind::Str, "''"), "");
        assert_eq!(body(TokenKind::Str, "\'\'\'\'\'\'"), "");
        assert_eq!(body(TokenKind::FStr, "rf\"\"\"x\"y\"\"\""), "x\"y");
        assert_eq!(body(TokenKind::Bytes, "b'\\''"), "\\'");
        assert_eq!(body(TokenKind::Name, "n"), "n");
    }

    #[test]
    fn token_is_four_words() {
        assert!(std::mem::size_of::<Token<'_>>() <= 32);
    }
}
