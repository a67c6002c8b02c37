//! Token definitions for the Python lexer.

use crate::span::Span;
use std::fmt;

/// The kind of a lexical token.
///
/// The lexer produces logical-line structure tokens (`Newline`, `Indent`,
/// `Dedent`, `EndOfFile`) in addition to ordinary lexemes, following the
/// CPython tokenizer model.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// Identifier or non-keyword name.
    Name(String),
    /// Integer literal (value kept as text; the analysis never needs it).
    Int(String),
    /// Floating point literal (kept as text).
    Float(String),
    /// String literal with quotes and prefixes stripped.
    Str(String),
    /// F-string literal; interpolated expressions are kept as raw text
    /// inside `{...}` and re-lexed by the parser.
    FStr(String),
    /// Bytes literal with quotes stripped.
    Bytes(String),

    // Keywords.
    /// The `false` keyword.
    KwFalse,
    /// The `none` keyword.
    KwNone,
    /// The `true` keyword.
    KwTrue,
    /// The `and` keyword.
    KwAnd,
    /// The `as` keyword.
    KwAs,
    /// The `assert` keyword.
    KwAssert,
    /// The `async` keyword.
    KwAsync,
    /// The `await` keyword.
    KwAwait,
    /// The `break` keyword.
    KwBreak,
    /// The `class` keyword.
    KwClass,
    /// The `continue` keyword.
    KwContinue,
    /// The `def` keyword.
    KwDef,
    /// The `del` keyword.
    KwDel,
    /// The `elif` keyword.
    KwElif,
    /// The `else` keyword.
    KwElse,
    /// The `except` keyword.
    KwExcept,
    /// The `finally` keyword.
    KwFinally,
    /// The `for` keyword.
    KwFor,
    /// The `from` keyword.
    KwFrom,
    /// The `global` keyword.
    KwGlobal,
    /// The `if` keyword.
    KwIf,
    /// The `import` keyword.
    KwImport,
    /// The `in` keyword.
    KwIn,
    /// The `is` keyword.
    KwIs,
    /// The `lambda` keyword.
    KwLambda,
    /// The `nonlocal` keyword.
    KwNonlocal,
    /// The `not` keyword.
    KwNot,
    /// The `or` keyword.
    KwOr,
    /// The `pass` keyword.
    KwPass,
    /// The `raise` keyword.
    KwRaise,
    /// The `return` keyword.
    KwReturn,
    /// The `try` keyword.
    KwTry,
    /// The `while` keyword.
    KwWhile,
    /// The `with` keyword.
    KwWith,
    /// The `yield` keyword.
    KwYield,

    // Punctuation and operators.
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `,`
    Comma,
    /// `:`
    Colon,
    /// `;`
    Semicolon,
    /// `.`
    Dot,
    /// `->`
    Arrow,
    /// `@`
    At,
    /// `=`
    Assign,
    /// The walrus operator `:=`.
    ColonAssign,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `**`
    DoubleStar,
    /// `/`
    Slash,
    /// `//`
    DoubleSlash,
    /// `%`
    Percent,
    /// `&`
    Amp,
    /// `|`
    Pipe,
    /// `^`
    Caret,
    /// `~`
    Tilde,
    /// `<<`
    LShift,
    /// `>>`
    RShift,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `<=`
    Le,
    /// `>=`
    Ge,
    /// `==`
    EqEq,
    /// `!=`
    NotEq,
    /// Augmented assignment, e.g. `+=`; the inner operator text is kept.
    AugAssign(&'static str),
    /// `...`
    Ellipsis,

    // Structure.
    /// end of a logical line
    Newline,
    /// increase of indentation
    Indent,
    /// decrease of indentation
    Dedent,
    /// end of input
    EndOfFile,
    /// What the parser leaves in a token's slot after moving the token out.
    /// The lexer never produces it and the parser never reads it back.
    Taken,
}

impl TokenKind {
    /// Returns the keyword token for `name`, if `name` is a Python keyword.
    pub fn keyword(name: &str) -> Option<TokenKind> {
        use TokenKind::*;
        Some(match name {
            "False" => KwFalse,
            "None" => KwNone,
            "True" => KwTrue,
            "and" => KwAnd,
            "as" => KwAs,
            "assert" => KwAssert,
            "async" => KwAsync,
            "await" => KwAwait,
            "break" => KwBreak,
            "class" => KwClass,
            "continue" => KwContinue,
            "def" => KwDef,
            "del" => KwDel,
            "elif" => KwElif,
            "else" => KwElse,
            "except" => KwExcept,
            "finally" => KwFinally,
            "for" => KwFor,
            "from" => KwFrom,
            "global" => KwGlobal,
            "if" => KwIf,
            "import" => KwImport,
            "in" => KwIn,
            "is" => KwIs,
            "lambda" => KwLambda,
            "nonlocal" => KwNonlocal,
            "not" => KwNot,
            "or" => KwOr,
            "pass" => KwPass,
            "raise" => KwRaise,
            "return" => KwReturn,
            "try" => KwTry,
            "while" => KwWhile,
            "with" => KwWith,
            "yield" => KwYield,
            _ => return None,
        })
    }

    /// True for tokens that terminate a logical line.
    pub fn ends_line(&self) -> bool {
        matches!(self, TokenKind::Newline | TokenKind::EndOfFile)
    }
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use TokenKind::*;
        match self {
            Name(s) => write!(f, "name `{s}`"),
            Int(s) => write!(f, "integer `{s}`"),
            Float(s) => write!(f, "float `{s}`"),
            Str(_) => write!(f, "string literal"),
            FStr(_) => write!(f, "f-string literal"),
            Bytes(_) => write!(f, "bytes literal"),
            KwFalse => write!(f, "`False`"),
            KwNone => write!(f, "`None`"),
            KwTrue => write!(f, "`True`"),
            KwAnd => write!(f, "`and`"),
            KwAs => write!(f, "`as`"),
            KwAssert => write!(f, "`assert`"),
            KwAsync => write!(f, "`async`"),
            KwAwait => write!(f, "`await`"),
            KwBreak => write!(f, "`break`"),
            KwClass => write!(f, "`class`"),
            KwContinue => write!(f, "`continue`"),
            KwDef => write!(f, "`def`"),
            KwDel => write!(f, "`del`"),
            KwElif => write!(f, "`elif`"),
            KwElse => write!(f, "`else`"),
            KwExcept => write!(f, "`except`"),
            KwFinally => write!(f, "`finally`"),
            KwFor => write!(f, "`for`"),
            KwFrom => write!(f, "`from`"),
            KwGlobal => write!(f, "`global`"),
            KwIf => write!(f, "`if`"),
            KwImport => write!(f, "`import`"),
            KwIn => write!(f, "`in`"),
            KwIs => write!(f, "`is`"),
            KwLambda => write!(f, "`lambda`"),
            KwNonlocal => write!(f, "`nonlocal`"),
            KwNot => write!(f, "`not`"),
            KwOr => write!(f, "`or`"),
            KwPass => write!(f, "`pass`"),
            KwRaise => write!(f, "`raise`"),
            KwReturn => write!(f, "`return`"),
            KwTry => write!(f, "`try`"),
            KwWhile => write!(f, "`while`"),
            KwWith => write!(f, "`with`"),
            KwYield => write!(f, "`yield`"),
            LParen => write!(f, "`(`"),
            RParen => write!(f, "`)`"),
            LBracket => write!(f, "`[`"),
            RBracket => write!(f, "`]`"),
            LBrace => write!(f, "`{{`"),
            RBrace => write!(f, "`}}`"),
            Comma => write!(f, "`,`"),
            Colon => write!(f, "`:`"),
            Semicolon => write!(f, "`;`"),
            Dot => write!(f, "`.`"),
            Arrow => write!(f, "`->`"),
            At => write!(f, "`@`"),
            Assign => write!(f, "`=`"),
            ColonAssign => write!(f, "`:=`"),
            Plus => write!(f, "`+`"),
            Minus => write!(f, "`-`"),
            Star => write!(f, "`*`"),
            DoubleStar => write!(f, "`**`"),
            Slash => write!(f, "`/`"),
            DoubleSlash => write!(f, "`//`"),
            Percent => write!(f, "`%`"),
            Amp => write!(f, "`&`"),
            Pipe => write!(f, "`|`"),
            Caret => write!(f, "`^`"),
            Tilde => write!(f, "`~`"),
            LShift => write!(f, "`<<`"),
            RShift => write!(f, "`>>`"),
            Lt => write!(f, "`<`"),
            Gt => write!(f, "`>`"),
            Le => write!(f, "`<=`"),
            Ge => write!(f, "`>=`"),
            EqEq => write!(f, "`==`"),
            NotEq => write!(f, "`!=`"),
            AugAssign(op) => write!(f, "`{op}=`"),
            Ellipsis => write!(f, "`...`"),
            Newline => write!(f, "newline"),
            Indent => write!(f, "indent"),
            Dedent => write!(f, "dedent"),
            EndOfFile => write!(f, "end of file"),
            Taken => write!(f, "consumed token"),
        }
    }
}

/// A lexical token: a [`TokenKind`] plus its [`Span`].
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// What kind of token this is.
    pub kind: TokenKind,
    /// Where in the source it came from.
    pub span: Span,
}

impl Token {
    /// Creates a token.
    pub fn new(kind: TokenKind, span: Span) -> Self {
        Token { kind, span }
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
        assert_eq!(TokenKind::Name("foo".into()).to_string(), "name `foo`");
        assert_eq!(TokenKind::AugAssign("+").to_string(), "`+=`");
    }
}
