//! An indentation-aware lexer for the Python subset used by Seldon.
//!
//! Follows the CPython tokenizer model: physical lines are grouped into
//! logical lines; `Indent`/`Dedent` tokens are synthesized from leading
//! whitespace; newlines inside bracket pairs and after `\` continuations are
//! implicit-joined.

use crate::error::{LexError, LexErrorKind};
use crate::span::Span;
use crate::token::{Token, TokenKind};

/// Converts `source` to a token stream.
///
/// The returned stream always ends with [`TokenKind::EndOfFile`] and has
/// balanced `Indent`/`Dedent` tokens.
///
/// # Errors
///
/// Returns a [`LexError`] for unterminated strings, stray characters,
/// inconsistent dedents, or unbalanced brackets.
pub fn lex(source: &str) -> Result<Vec<Token>, LexError> {
    Lexer::new(source).run()
}

struct Lexer<'s> {
    src: &'s str,
    bytes: &'s [u8],
    pos: usize,
    line: u32,
    col: u32,
    /// Stack of active indentation widths; always starts with 0.
    indents: Vec<u32>,
    /// Nesting depth of `(`, `[`, `{`.
    paren_depth: u32,
    /// True when we are at the start of a logical line (indentation matters).
    at_line_start: bool,
    tokens: Vec<Token>,
}

impl<'s> Lexer<'s> {
    fn new(src: &'s str) -> Self {
        Lexer {
            src,
            bytes: src.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
            indents: vec![0],
            paren_depth: 0,
            at_line_start: true,
            // About one token per four bytes of source, so the stream
            // rarely grows while lexing.
            tokens: Vec::with_capacity(src.len() / 4),
        }
    }

    fn run(mut self) -> Result<Vec<Token>, LexError> {
        while self.pos < self.bytes.len() {
            if self.at_line_start && self.paren_depth == 0 {
                self.handle_indentation()?;
                if self.pos >= self.bytes.len() {
                    break;
                }
            }
            self.lex_token()?;
        }
        // Close the final logical line if any tokens were produced on it.
        if let Some(last) = self.tokens.last() {
            if !last.kind.ends_line()
                && !matches!(last.kind, TokenKind::Indent | TokenKind::Dedent)
            {
                let span = self.here(0);
                self.tokens.push(Token::new(TokenKind::Newline, span));
            }
        }
        // Unwind remaining indentation.
        while self.indents.len() > 1 {
            self.indents.pop();
            let span = self.here(0);
            self.tokens.push(Token::new(TokenKind::Dedent, span));
        }
        let span = self.here(0);
        self.tokens.push(Token::new(TokenKind::EndOfFile, span));
        Ok(self.tokens)
    }

    fn here(&self, len: usize) -> Span {
        Span::new(self.pos as u32, (self.pos + len) as u32, self.line, self.col)
    }

    fn peek(&self) -> u8 {
        self.bytes.get(self.pos).copied().unwrap_or(0)
    }

    fn peek_at(&self, off: usize) -> u8 {
        self.bytes.get(self.pos + off).copied().unwrap_or(0)
    }

    fn bump(&mut self) -> u8 {
        let b = self.peek();
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        b
    }

    /// Measures indentation at a line start and emits Indent/Dedent tokens.
    /// Blank lines and comment-only lines produce no tokens.
    fn handle_indentation(&mut self) -> Result<(), LexError> {
        loop {
            let line_start = self.pos;
            let mut width = 0u32;
            while self.pos < self.bytes.len() {
                match self.peek() {
                    b' ' => {
                        width += 1;
                        self.bump();
                    }
                    b'\t' => {
                        // Tab advances to the next multiple of 8, like CPython.
                        width = (width / 8 + 1) * 8;
                        self.bump();
                    }
                    _ => break,
                }
            }
            match self.peek() {
                // Blank line or comment-only line: skip entirely.
                b'\n' | b'\r' => {
                    self.consume_newline_char();
                    continue;
                }
                b'#' => {
                    self.skip_comment();
                    if self.peek() == b'\n' || self.peek() == b'\r' {
                        self.consume_newline_char();
                    }
                    continue;
                }
                0 if self.pos >= self.bytes.len() => {
                    self.at_line_start = false;
                    return Ok(());
                }
                _ => {
                    let span =
                        Span::new(line_start as u32, self.pos as u32, self.line, 1);
                    let current = *self.indents.last().expect("indent stack nonempty");
                    if width > current {
                        self.indents.push(width);
                        self.tokens.push(Token::new(TokenKind::Indent, span));
                    } else if width < current {
                        while *self.indents.last().expect("indent stack nonempty") > width
                        {
                            self.indents.pop();
                            self.tokens.push(Token::new(TokenKind::Dedent, span));
                        }
                        if *self.indents.last().expect("indent stack nonempty") != width {
                            return Err(LexError::new(
                                LexErrorKind::InconsistentDedent,
                                span,
                            ));
                        }
                    }
                    self.at_line_start = false;
                    return Ok(());
                }
            }
        }
    }

    fn consume_newline_char(&mut self) {
        if self.peek() == b'\r' {
            self.bump();
        }
        if self.peek() == b'\n' {
            self.bump();
        }
    }

    fn skip_comment(&mut self) {
        while self.pos < self.bytes.len() && self.peek() != b'\n' {
            self.bump();
        }
    }

    fn lex_token(&mut self) -> Result<(), LexError> {
        let b = self.peek();
        match b {
            b' ' | b'\t' => {
                self.bump();
                Ok(())
            }
            b'#' => {
                self.skip_comment();
                Ok(())
            }
            b'\\' if matches!(self.peek_at(1), b'\n' | b'\r') => {
                // Explicit line continuation: skip backslash + newline.
                self.bump();
                self.consume_newline_char();
                Ok(())
            }
            b'\r' | b'\n' => {
                let span = self.here(1);
                self.consume_newline_char();
                if self.paren_depth == 0 {
                    // Suppress empty logical lines.
                    if self
                        .tokens
                        .last()
                        .is_some_and(|t| !t.kind.ends_line() && !matches!(t.kind, TokenKind::Indent | TokenKind::Dedent))
                    {
                        self.tokens.push(Token::new(TokenKind::Newline, span));
                    }
                    self.at_line_start = true;
                }
                Ok(())
            }
            b'\'' | b'"' => self.lex_string(StringPrefix::default()),
            b'0'..=b'9' => self.lex_number(),
            b'.' if self.peek_at(1).is_ascii_digit() => self.lex_number(),
            b if b.is_ascii_alphabetic() || b == b'_' || b >= 0x80 => self.lex_name(),
            _ => self.lex_operator(),
        }
    }

    fn lex_name(&mut self) -> Result<(), LexError> {
        let start = self.pos;
        let (line, col) = (self.line, self.col);
        while self.pos < self.bytes.len() {
            let b = self.peek();
            if b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80 {
                self.bump();
            } else {
                break;
            }
        }
        let text = &self.src[start..self.pos];
        // String prefix directly followed by a quote?
        if matches!(self.peek(), b'\'' | b'"') {
            if let Some(prefix) = StringPrefix::parse(text) {
                return self.lex_string_at(prefix, start, line, col);
            }
        }
        let span = Span::new(start as u32, self.pos as u32, line, col);
        let kind = TokenKind::keyword(text).unwrap_or_else(|| TokenKind::Name(text.to_string()));
        self.tokens.push(Token::new(kind, span));
        Ok(())
    }

    fn lex_number(&mut self) -> Result<(), LexError> {
        let start = self.pos;
        let (line, col) = (self.line, self.col);
        let mut is_float = false;
        // Hex/octal/binary forms.
        if self.peek() == b'0' && matches!(self.peek_at(1) | 0x20, b'x' | b'o' | b'b') {
            self.bump();
            self.bump();
            while self.peek().is_ascii_alphanumeric() || self.peek() == b'_' {
                self.bump();
            }
        } else {
            while self.peek().is_ascii_digit() || self.peek() == b'_' {
                self.bump();
            }
            if self.peek() == b'.' && self.peek_at(1) != b'.' {
                is_float = true;
                self.bump();
                while self.peek().is_ascii_digit() || self.peek() == b'_' {
                    self.bump();
                }
            }
            if matches!(self.peek() | 0x20, b'e') && self.pos > start {
                let save = (self.pos, self.line, self.col);
                self.bump();
                if matches!(self.peek(), b'+' | b'-') {
                    self.bump();
                }
                if self.peek().is_ascii_digit() {
                    is_float = true;
                    while self.peek().is_ascii_digit() {
                        self.bump();
                    }
                } else {
                    (self.pos, self.line, self.col) = save;
                }
            }
            // Imaginary suffix: treat as float-ish.
            if matches!(self.peek() | 0x20, b'j') {
                self.bump();
                is_float = true;
            }
        }
        let text = self.src[start..self.pos].to_string();
        let span = Span::new(start as u32, self.pos as u32, line, col);
        let kind = if is_float { TokenKind::Float(text) } else { TokenKind::Int(text) };
        self.tokens.push(Token::new(kind, span));
        Ok(())
    }

    fn lex_string(&mut self, prefix: StringPrefix) -> Result<(), LexError> {
        let start = self.pos;
        let (line, col) = (self.line, self.col);
        self.lex_string_at(prefix, start, line, col)
    }

    /// Lexes a string whose token began at `start` (which may include a
    /// prefix like `r` or `f`); the cursor sits on the opening quote.
    fn lex_string_at(
        &mut self,
        prefix: StringPrefix,
        start: usize,
        line: u32,
        col: u32,
    ) -> Result<(), LexError> {
        let quote = self.peek();
        debug_assert!(matches!(quote, b'\'' | b'"'));
        let triple = self.peek_at(1) == quote && self.peek_at(2) == quote;
        self.bump();
        if triple {
            self.bump();
            self.bump();
        }
        let body_start = self.pos;
        loop {
            if self.pos >= self.bytes.len() {
                return Err(LexError::new(
                    LexErrorKind::UnterminatedString,
                    Span::new(start as u32, self.pos as u32, line, col),
                ));
            }
            let b = self.peek();
            if b == b'\\' && !prefix.raw {
                self.bump();
                if self.pos < self.bytes.len() {
                    self.bump();
                }
                continue;
            }
            if b == b'\\' && prefix.raw {
                // Raw strings still cannot end on a lone backslash before quote.
                self.bump();
                if self.pos < self.bytes.len() {
                    self.bump();
                }
                continue;
            }
            if b == quote {
                if triple {
                    if self.peek_at(1) == quote && self.peek_at(2) == quote {
                        break;
                    }
                    self.bump();
                    continue;
                }
                break;
            }
            if b == b'\n' && !triple {
                return Err(LexError::new(
                    LexErrorKind::UnterminatedString,
                    Span::new(start as u32, self.pos as u32, line, col),
                ));
            }
            self.bump();
        }
        let body_end = self.pos;
        self.bump();
        if triple {
            self.bump();
            self.bump();
        }
        let body = self.src[body_start..body_end].to_string();
        let span = Span::new(start as u32, self.pos as u32, line, col);
        let kind = if prefix.bytes {
            TokenKind::Bytes(body)
        } else if prefix.fstring {
            TokenKind::FStr(body)
        } else {
            TokenKind::Str(body)
        };
        self.tokens.push(Token::new(kind, span));
        Ok(())
    }

    fn lex_operator(&mut self) -> Result<(), LexError> {
        use TokenKind::*;
        let start = self.pos;
        let (line, col) = (self.line, self.col);
        let b = self.bump();
        let mut kind = match b {
            b'(' => {
                self.paren_depth += 1;
                LParen
            }
            b')' => {
                self.paren_depth = self.paren_depth.saturating_sub(1);
                RParen
            }
            b'[' => {
                self.paren_depth += 1;
                LBracket
            }
            b']' => {
                self.paren_depth = self.paren_depth.saturating_sub(1);
                RBracket
            }
            b'{' => {
                self.paren_depth += 1;
                LBrace
            }
            b'}' => {
                self.paren_depth = self.paren_depth.saturating_sub(1);
                RBrace
            }
            b',' => Comma,
            b';' => Semicolon,
            b'~' => Tilde,
            b'.' => {
                if self.peek() == b'.' && self.peek_at(1) == b'.' {
                    self.bump();
                    self.bump();
                    Ellipsis
                } else {
                    Dot
                }
            }
            b':' => {
                if self.peek() == b'=' {
                    self.bump();
                    ColonAssign
                } else {
                    Colon
                }
            }
            b'@' => {
                if self.peek() == b'=' {
                    self.bump();
                    AugAssign("@")
                } else {
                    At
                }
            }
            b'=' => {
                if self.peek() == b'=' {
                    self.bump();
                    EqEq
                } else {
                    Assign
                }
            }
            b'!' => {
                if self.peek() == b'=' {
                    self.bump();
                    NotEq
                } else {
                    return Err(LexError::new(
                        LexErrorKind::UnexpectedChar('!'),
                        Span::new(start as u32, self.pos as u32, line, col),
                    ));
                }
            }
            b'+' => self.maybe_aug(Plus, "+"),
            b'-' => {
                if self.peek() == b'>' {
                    self.bump();
                    Arrow
                } else {
                    self.maybe_aug(Minus, "-")
                }
            }
            b'*' => {
                if self.peek() == b'*' {
                    self.bump();
                    self.maybe_aug(DoubleStar, "**")
                } else {
                    self.maybe_aug(Star, "*")
                }
            }
            b'/' => {
                if self.peek() == b'/' {
                    self.bump();
                    self.maybe_aug(DoubleSlash, "//")
                } else {
                    self.maybe_aug(Slash, "/")
                }
            }
            b'%' => self.maybe_aug(Percent, "%"),
            b'&' => self.maybe_aug(Amp, "&"),
            b'|' => self.maybe_aug(Pipe, "|"),
            b'^' => self.maybe_aug(Caret, "^"),
            b'<' => {
                if self.peek() == b'<' {
                    self.bump();
                    self.maybe_aug(LShift, "<<")
                } else if self.peek() == b'=' {
                    self.bump();
                    Le
                } else {
                    Lt
                }
            }
            b'>' => {
                if self.peek() == b'>' {
                    self.bump();
                    self.maybe_aug(RShift, ">>")
                } else if self.peek() == b'=' {
                    self.bump();
                    Ge
                } else {
                    Gt
                }
            }
            other => {
                return Err(LexError::new(
                    LexErrorKind::UnexpectedChar(other as char),
                    Span::new(start as u32, self.pos as u32, line, col),
                ));
            }
        };
        // `maybe_aug` helpers already consumed trailing `=`, but plain
        // single-char operators need the check here when helper not used.
        if let AugAssign(op) = kind {
            kind = AugAssign(op);
        }
        let span = Span::new(start as u32, self.pos as u32, line, col);
        self.tokens.push(Token::new(kind, span));
        Ok(())
    }

    /// If the next char is `=`, produces an augmented-assignment token for
    /// `op`; otherwise returns `plain`.
    fn maybe_aug(&mut self, plain: TokenKind, op: &'static str) -> TokenKind {
        if self.peek() == b'=' {
            self.bump();
            TokenKind::AugAssign(op)
        } else {
            plain
        }
    }
}

/// Parsed string-literal prefix flags (`r`, `b`, `f`, `u` in any order/case).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct StringPrefix {
    raw: bool,
    bytes: bool,
    fstring: bool,
}

impl StringPrefix {
    fn parse(text: &str) -> Option<StringPrefix> {
        if text.is_empty() || text.len() > 3 {
            return None;
        }
        let mut p = StringPrefix::default();
        for c in text.chars() {
            match c.to_ascii_lowercase() {
                'r' => p.raw = true,
                'b' => p.bytes = true,
                'f' => p.fstring = true,
                'u' => {}
                _ => return None,
            }
        }
        Some(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use TokenKind::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).expect("lex ok").into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn simple_assignment() {
        assert_eq!(
            kinds("x = 1\n"),
            vec![Name("x".into()), Assign, Int("1".into()), Newline, EndOfFile]
        );
    }

    #[test]
    fn indentation_block() {
        let src = "if x:\n    y = 1\nz = 2\n";
        let k = kinds(src);
        assert!(k.contains(&Indent));
        assert!(k.contains(&Dedent));
        let indent_pos = k.iter().position(|t| *t == Indent).unwrap();
        let dedent_pos = k.iter().position(|t| *t == Dedent).unwrap();
        assert!(indent_pos < dedent_pos);
    }

    #[test]
    fn nested_dedents_unwind_at_eof() {
        let src = "if a:\n  if b:\n    c\n";
        let k = kinds(src);
        assert_eq!(k.iter().filter(|t| **t == Indent).count(), 2);
        assert_eq!(k.iter().filter(|t| **t == Dedent).count(), 2);
    }

    #[test]
    fn blank_lines_and_comments_ignored() {
        let src = "x = 1\n\n# comment\n   # indented comment\ny = 2\n";
        let k = kinds(src);
        assert!(!k.contains(&Indent));
        assert_eq!(k.iter().filter(|t| matches!(t, Name(_))).count(), 2);
    }

    #[test]
    fn implicit_line_join_in_parens() {
        let src = "f(a,\n  b)\n";
        let k = kinds(src);
        assert!(!k.contains(&Indent));
        // only one Newline (the final one)
        assert_eq!(k.iter().filter(|t| **t == Newline).count(), 1);
    }

    #[test]
    fn explicit_continuation() {
        let src = "x = 1 + \\\n    2\n";
        let k = kinds(src);
        assert_eq!(k.iter().filter(|t| **t == Newline).count(), 1);
        assert!(!k.contains(&Indent));
    }

    #[test]
    fn string_kinds() {
        assert_eq!(kinds("'a'\n")[0], Str("a".into()));
        assert_eq!(kinds("\"a\"\n")[0], Str("a".into()));
        assert_eq!(kinds("b'a'\n")[0], Bytes("a".into()));
        assert_eq!(kinds("f'a{x}'\n")[0], FStr("a{x}".into()));
        assert_eq!(kinds("r'a\\n'\n")[0], Str("a\\n".into()));
        assert_eq!(kinds("'''multi\nline'''\n")[0], Str("multi\nline".into()));
    }

    #[test]
    fn escaped_quote_inside_string() {
        assert_eq!(kinds("'a\\'b'\n")[0], Str("a\\'b".into()));
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(lex("'abc\n").is_err());
        assert!(lex("'''abc").is_err());
    }

    #[test]
    fn numbers() {
        assert_eq!(kinds("42\n")[0], Int("42".into()));
        assert_eq!(kinds("3.14\n")[0], Float("3.14".into()));
        assert_eq!(kinds("1e5\n")[0], Float("1e5".into()));
        assert_eq!(kinds("0xff\n")[0], Int("0xff".into()));
        assert_eq!(kinds("1_000\n")[0], Int("1_000".into()));
        assert_eq!(kinds(".5\n")[0], Float(".5".into()));
    }

    #[test]
    fn dot_after_int_is_float_but_method_on_name_is_dot() {
        assert_eq!(kinds("x.y\n")[..3], [Name("x".into()), Dot, Name("y".into())]);
    }

    #[test]
    fn operators() {
        assert_eq!(
            kinds("a ** b // c != d\n")[..7],
            [
                Name("a".into()),
                DoubleStar,
                Name("b".into()),
                DoubleSlash,
                Name("c".into()),
                NotEq,
                Name("d".into())
            ]
        );
        assert_eq!(kinds("x += 1\n")[1], AugAssign("+"));
        assert_eq!(kinds("x //= 1\n")[1], AugAssign("//"));
        assert_eq!(kinds("x := 1\n")[1], ColonAssign);
        assert_eq!(kinds("def f() -> int: pass\n")[3..5], [RParen, Arrow]);
    }

    #[test]
    fn ellipsis_token() {
        assert_eq!(kinds("...\n")[0], Ellipsis);
    }

    #[test]
    fn keywords_vs_names() {
        let k = kinds("for x in y: pass\n");
        assert_eq!(k[0], KwFor);
        assert_eq!(k[1], Name("x".into()));
        assert_eq!(k[2], KwIn);
    }

    #[test]
    fn inconsistent_dedent_is_error() {
        let src = "if a:\n        x\n   y\n  z\n";
        assert!(lex(src).is_err());
    }

    #[test]
    fn unexpected_char_is_error() {
        assert!(lex("a $ b\n").is_err());
        assert!(lex("a ! b\n").is_err());
    }

    #[test]
    fn spans_have_lines() {
        let toks = lex("x = 1\ny = 2\n").unwrap();
        let y = toks
            .iter()
            .find(|t| t.kind == Name("y".into()))
            .expect("y token");
        assert_eq!(y.span.line, 2);
        assert_eq!(y.span.col, 1);
    }

    #[test]
    fn eof_without_trailing_newline_still_closes_line() {
        let k = kinds("x = 1");
        assert_eq!(k.last(), Some(&EndOfFile));
        assert!(k.contains(&Newline));
    }

    #[test]
    fn tabs_expand_to_eight() {
        let src = "if a:\n\tx = 1\n\ty = 2\n";
        let k = kinds(src);
        assert_eq!(k.iter().filter(|t| **t == Indent).count(), 1);
        assert_eq!(k.iter().filter(|t| **t == Dedent).count(), 1);
    }
}
