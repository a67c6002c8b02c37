//! An indentation-aware lexer for the Python subset used by Seldon.
//!
//! Follows the CPython tokenizer model: physical lines are grouped into
//! logical lines; `Indent`/`Dedent` tokens are synthesized from leading
//! whitespace; newlines inside bracket pairs and after `\` continuations are
//! implicit-joined.

use crate::error::{LexError, LexErrorKind};
use crate::span::Span;
use crate::token::{Token, TokenKind, PUNCTUATION};

/// Converts `source` to a token stream.
///
/// The returned stream always ends with [`TokenKind::EndOfFile`] and has
/// balanced `Indent`/`Dedent` tokens.
///
/// # Errors
///
/// Returns a [`LexError`] for unterminated strings, stray characters,
/// inconsistent dedents, or unbalanced brackets.
pub fn lex(source: &str) -> Result<Vec<Token<'_>>, LexError> {
    Lexer::new(source).run()
}

type LexResult = Result<(), LexError>;

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
    tokens: Vec<Token<'s>>,
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

    fn run(mut self) -> Result<Vec<Token<'s>>, LexError> {
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
                self.push_here(TokenKind::Newline, 0);
            }
        }
        // Unwind remaining indentation.
        while self.indents.len() > 1 {
            self.indents.pop();
            self.push_here(TokenKind::Dedent, 0);
        }
        self.push_here(TokenKind::EndOfFile, 0);
        Ok(self.tokens)
    }

    /// Pushes a token for the `len` bytes at the cursor.
    fn push_here(&mut self, kind: TokenKind, len: usize) {
        let text = &self.src[self.pos..self.pos + len];
        self.tokens.push(Token::new(kind, text, self.pos as u32, self.line, self.col));
    }

    /// Pushes a token for the source from `start` to the cursor.
    fn push_from(&mut self, kind: TokenKind, start: usize, line: u32, col: u32) {
        let text = &self.src[start..self.pos];
        self.tokens.push(Token::new(kind, text, start as u32, line, col));
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
    fn handle_indentation(&mut self) -> LexResult {
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
                    let line = self.line;
                    let current = *self.indents.last().expect("indent stack nonempty");
                    if width > current {
                        self.indents.push(width);
                        self.push_from(TokenKind::Indent, line_start, line, 1);
                    } else if width < current {
                        while *self.indents.last().expect("indent stack nonempty") > width
                        {
                            self.indents.pop();
                            self.push_from(TokenKind::Dedent, line_start, line, 1);
                        }
                        if *self.indents.last().expect("indent stack nonempty") != width {
                            let span = Span::new(line_start as u32, self.pos as u32, line, 1);
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

    fn lex_token(&mut self) -> LexResult {
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
                if self.paren_depth == 0 {
                    // Suppress empty logical lines.
                    if self
                        .tokens
                        .last()
                        .is_some_and(|t| !t.kind.ends_line() && !matches!(t.kind, TokenKind::Indent | TokenKind::Dedent))
                    {
                        self.push_here(TokenKind::Newline, 1);
                    }
                    self.at_line_start = true;
                }
                self.consume_newline_char();
                Ok(())
            }
            b'\'' | b'"' => self.lex_string(TokenKind::Str, self.pos, self.line, self.col),
            b'0'..=b'9' => self.lex_number(),
            b'.' if self.peek_at(1).is_ascii_digit() => self.lex_number(),
            b if b.is_ascii_alphabetic() || b == b'_' || b >= 0x80 => self.lex_name(),
            _ => self.lex_operator(),
        }
    }

    fn lex_name(&mut self) -> LexResult {
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
            if let Some(kind) = string_prefix(text) {
                return self.lex_string(kind, start, line, col);
            }
        }
        let kind = TokenKind::keyword(text).unwrap_or(TokenKind::Name);
        self.push_from(kind, start, line, col);
        Ok(())
    }

    fn lex_number(&mut self) -> LexResult {
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
        let kind = if is_float { TokenKind::Float } else { TokenKind::Int };
        self.push_from(kind, start, line, col);
        Ok(())
    }

    /// Lexes a string literal of `kind` whose token began at `start`
    /// (which may include a prefix like `r` or `f`); the cursor sits on the
    /// opening quote. Escapes are kept verbatim, raw or not; a backslash
    /// only keeps the next byte from ending the literal.
    fn lex_string(&mut self, kind: TokenKind, start: usize, line: u32, col: u32) -> LexResult {
        let quote = self.peek();
        debug_assert!(matches!(quote, b'\'' | b'"'));
        let triple = self.peek_at(1) == quote && self.peek_at(2) == quote;
        let delimiter = if triple { 3 } else { 1 };
        self.skip(delimiter);
        loop {
            let ends = |l: &Self| !triple || l.peek_at(1) == quote && l.peek_at(2) == quote;
            match self.peek() {
                b'\n' if !triple => break,
                _ if self.pos >= self.bytes.len() => break,
                b'\\' => self.skip(2.min(self.bytes.len() - self.pos)),
                b if b == quote && ends(self) => {
                    self.skip(delimiter);
                    self.push_from(kind, start, line, col);
                    return Ok(());
                }
                _ => self.skip(1),
            }
        }
        let span = Span::new(start as u32, self.pos as u32, line, col);
        Err(LexError::new(LexErrorKind::UnterminatedString, span))
    }

    /// Moves the cursor `n` bytes on.
    fn skip(&mut self, n: usize) {
        for _ in 0..n {
            self.bump();
        }
    }

    /// Lexes an operator or punctuation token: the longest spelling wins,
    /// as `**=` over `**` over `*`.
    fn lex_operator(&mut self) -> LexResult {
        use TokenKind::*;
        let (start, line, col) = (self.pos, self.line, self.col);
        let (len, kind) = match (self.peek(), self.peek_at(1), self.peek_at(2)) {
            (b'*', b'*', b'=') | (b'/', b'/', b'=') | (b'<', b'<', b'=') | (b'>', b'>', b'=') => {
                (3, AugAssign)
            }
            (b'.', b'.', b'.') => (3, Ellipsis),
            (b'+' | b'-' | b'*' | b'/' | b'%' | b'&' | b'|' | b'^' | b'@', b'=', _) => {
                (2, AugAssign)
            }
            (b'-', b'>', _) => (2, Arrow),
            (b':', b'=', _) => (2, ColonAssign),
            (b'=', b'=', _) => (2, EqEq),
            (b'!', b'=', _) => (2, NotEq),
            (b'<', b'=', _) => (2, Le),
            (b'>', b'=', _) => (2, Ge),
            (b'*', b'*', _) => (2, DoubleStar),
            (b'/', b'/', _) => (2, DoubleSlash),
            (b'<', b'<', _) => (2, LShift),
            (b'>', b'>', _) => (2, RShift),
            (b, _, _) => match SINGLE.get(usize::from(b)).copied().flatten() {
                Some(kind) => (1, kind),
                None => {
                    let span = Span::new(start as u32, start as u32 + 1, line, col);
                    return Err(LexError::new(LexErrorKind::UnexpectedChar(b as char), span));
                }
            },
        };
        self.skip(len);
        match kind {
            LParen | LBracket | LBrace => self.paren_depth += 1,
            RParen | RBracket | RBrace => self.paren_depth = self.paren_depth.saturating_sub(1),
            _ => {}
        }
        self.push_from(kind, start, line, col);
        Ok(())
    }
}

/// The one-byte punctuation tokens, by byte.
const SINGLE: [Option<TokenKind>; 128] = {
    let mut table = [None; 128];
    let mut i = 0;
    while i < PUNCTUATION.len() {
        let (text, kind) = PUNCTUATION[i];
        if text.len() == 1 {
            table[text.as_bytes()[0] as usize] = Some(kind);
        }
        i += 1;
    }
    table
};

/// The kind of literal a string prefix makes (`r`, `b`, `f`, `u` in any
/// order and case, at most three of them), if `text` is one.
fn string_prefix(text: &str) -> Option<TokenKind> {
    if text.is_empty() || text.len() > 3 {
        return None;
    }
    let mut kind = TokenKind::Str;
    for c in text.chars() {
        match c.to_ascii_lowercase() {
            'b' => kind = TokenKind::Bytes,
            'f' if kind != TokenKind::Bytes => kind = TokenKind::FStr,
            'f' | 'r' | 'u' => {}
            _ => return None,
        }
    }
    Some(kind)
}

#[cfg(test)]
mod tests {
    use super::*;
    use TokenKind::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).expect("lex ok").into_iter().map(|t| t.kind).collect()
    }

    /// The first token's kind and value.
    fn first(src: &str) -> (TokenKind, &str) {
        let t = lex(src).expect("lex ok")[0];
        (t.kind, t.body())
    }

    #[test]
    fn simple_assignment() {
        assert_eq!(
            kinds("x = 1\n"),
            vec![Name, Assign, Int, Newline, EndOfFile]
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
        assert_eq!(k.iter().filter(|t| **t == Name).count(), 2);
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
        assert_eq!(first("'a'\n"), (Str, "a"));
        assert_eq!(first("\"a\"\n"), (Str, "a"));
        assert_eq!(first("b'a'\n"), (Bytes, "a"));
        assert_eq!(first("f'a{x}'\n"), (FStr, "a{x}"));
        assert_eq!(first("r'a\\n'\n"), (Str, "a\\n"));
        assert_eq!(first("'''multi\nline'''\n"), (Str, "multi\nline"));
    }

    #[test]
    fn escaped_quote_inside_string() {
        assert_eq!(first("'a\\'b'\n"), (Str, "a\\'b"));
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(lex("'abc\n").is_err());
        assert!(lex("'''abc").is_err());
    }

    #[test]
    fn numbers() {
        assert_eq!(first("42\n"), (Int, "42"));
        assert_eq!(first("3.14\n"), (Float, "3.14"));
        assert_eq!(first("1e5\n"), (Float, "1e5"));
        assert_eq!(first("0xff\n"), (Int, "0xff"));
        assert_eq!(first("1_000\n"), (Int, "1_000"));
        assert_eq!(first(".5\n"), (Float, ".5"));
    }

    #[test]
    fn dot_after_int_is_float_but_method_on_name_is_dot() {
        assert_eq!(kinds("x.y\n")[..3], [Name, Dot, Name]);
    }

    #[test]
    fn operators() {
        assert_eq!(
            kinds("a ** b // c != d\n")[..7],
            [Name, DoubleStar, Name, DoubleSlash, Name, NotEq, Name]
        );
        let aug = |src| lex(src).unwrap()[1];
        assert_eq!((aug("x += 1\n").kind, aug("x += 1\n").text), (AugAssign, "+="));
        assert_eq!((aug("x //= 1\n").kind, aug("x //= 1\n").text), (AugAssign, "//="));
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
        assert_eq!(k[1], Name);
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
        let y = toks.iter().find(|t| t.text == "y").expect("y token");
        assert_eq!(y.span(), Span::new(6, 7, 2, 1));
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
