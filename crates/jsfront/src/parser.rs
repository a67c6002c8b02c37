//! Recursive-descent parser for the JS-like subset.
//!
//! One statement loop, mirroring the Python frontend: [`parse_lenient`]
//! skips a malformed statement (scanning to the next `;` or block
//! boundary), reports it and analyzes the rest; [`parse`] is the same
//! parse, failing on its first error.

use crate::ast::*;
use crate::lexer::{lex, Token, TokenKind};
use seldon_ir::{FrontendError, ParseError, Span};
use std::borrow::Cow;

/// Parses a whole file: [`parse_lenient`], failing on its first error.
///
/// # Errors
///
/// Returns the first [`FrontendError`] encountered.
pub fn parse(source: &str) -> Result<Program<'_>, FrontendError> {
    let (program, errors) = parse_lenient(source);
    errors.into_iter().next().map_or(Ok(program), Err)
}

/// Parses a whole file, skipping malformed statements at the top level
/// and inside blocks. Errors come in source order, so the first is where
/// a parse without recovery stops.
///
/// A lex error is unrecoverable (token boundaries are unknown) and yields
/// an empty program with one error.
pub fn parse_lenient(source: &str) -> (Program<'_>, Vec<FrontendError>) {
    let tokens = match lex(source) {
        Ok(t) => t,
        Err(e) => return (Program::default(), vec![e.into()]),
    };
    let mut p = Parser { tokens, pos: 0, errors: Vec::new() };
    let mut body = Vec::new();
    while !p.at_eof() {
        let start = p.pos;
        match p.statement() {
            Ok(s) => body.push(s),
            Err(e) => p.recover(e, start),
        }
    }
    (Program { body }, p.errors)
}

struct Parser<'s> {
    tokens: Vec<Token<'s>>,
    pos: usize,
    /// Errors of the statements skipped so far, in source order.
    errors: Vec<FrontendError>,
}

/// The value of a string literal token: its body between the quotes, with
/// `\n`, `\t` and `\<char>` escapes decoded. Built only when the body has
/// an escape; otherwise it borrows the source.
fn string_value(text: &str) -> Cow<'_, str> {
    let body = &text[1..text.len() - 1];
    if !body.contains('\\') {
        return Cow::Borrowed(body);
    }
    let mut out = String::with_capacity(body.len());
    let mut chars = body.chars();
    while let Some(c) = chars.next() {
        out.push(match c {
            '\\' => match chars.next() {
                Some('n') => '\n',
                Some('t') => '\t',
                Some(other) => other,
                None => break,
            },
            c => c,
        });
    }
    Cow::Owned(out)
}

impl<'s> Parser<'s> {
    /// The token at the cursor; past the end, the final `EndOfFile`.
    fn peek(&self) -> Token<'s> {
        self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek().kind, TokenKind::EndOfFile)
    }

    /// Returns the current token and advances past it. The cursor stays
    /// on the final `EndOfFile`, however often it is bumped.
    fn bump(&mut self) -> Token<'s> {
        let t = self.peek();
        if !self.at_eof() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, kind: TokenKind) -> bool {
        if self.peek().kind == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind, what: &str) -> Result<Token<'s>, FrontendError> {
        if self.peek().kind == kind {
            Ok(self.bump())
        } else {
            let t = self.peek();
            Err(ParseError::new(what, t, t.span()).into())
        }
    }

    fn ident(&mut self, what: &str) -> Result<(&'s str, Span), FrontendError> {
        let t = self.peek();
        match t.kind {
            TokenKind::Ident => {
                self.bump();
                Ok((t.text, t.span()))
            }
            _ => Err(ParseError::new(what, t, t.span()).into()),
        }
    }

    /// Records the error of the statement that began at token `start`,
    /// then skips past it (at least one token) to the recovery point.
    fn recover(&mut self, error: FrontendError, start: usize) {
        self.errors.push(error);
        if self.pos == start {
            self.pos += 1;
        }
        self.skip_to_recovery_point();
    }

    /// After an error: skip ahead past the next `;`, or stop before a `}` /
    /// top-level statement keyword, so the next statement parses cleanly.
    fn skip_to_recovery_point(&mut self) {
        let mut depth = 0usize;
        while !self.at_eof() {
            match self.peek().kind {
                TokenKind::Semi if depth == 0 => {
                    self.bump();
                    return;
                }
                TokenKind::LBrace | TokenKind::LParen | TokenKind::LBracket => {
                    depth += 1;
                    self.bump();
                }
                TokenKind::RBrace | TokenKind::RParen | TokenKind::RBracket => {
                    if depth == 0 {
                        // Don't consume a closing brace that ends an
                        // enclosing block.
                        return;
                    }
                    depth -= 1;
                    self.bump();
                }
                TokenKind::Function | TokenKind::Import if depth == 0 => return,
                _ => {
                    self.bump();
                }
            }
        }
    }

    // ----- statements -------------------------------------------------------

    fn statement(&mut self) -> Result<Stmt<'s>, FrontendError> {
        let start = self.peek().span();
        match self.peek().kind {
            TokenKind::Import => self.import_stmt(),
            TokenKind::Function => {
                self.bump();
                let (name, _) = self.ident("function name")?;
                let mut params = Vec::new();
                self.expect(TokenKind::LParen, "`(`")?;
                while !matches!(self.peek().kind, TokenKind::RParen) {
                    let (p, sp) = self.ident("parameter name")?;
                    params.push((p, sp));
                    if !self.eat(TokenKind::Comma) {
                        break;
                    }
                }
                self.expect(TokenKind::RParen, "`)`")?;
                let body = self.block()?;
                Ok(Stmt {
                    kind: StmtKind::Func(FuncDecl { name, params, body }),
                    span: start,
                })
            }
            TokenKind::Var | TokenKind::Let | TokenKind::Const => {
                self.bump();
                if self.eat(TokenKind::LBrace) {
                    // Destructuring: `const {a, b: c} = expr;`
                    let mut pattern = Vec::new();
                    while !matches!(self.peek().kind, TokenKind::RBrace) {
                        let (prop, _) = self.ident("destructured name")?;
                        let local = if self.eat(TokenKind::Colon) {
                            self.ident("local name")?.0
                        } else {
                            prop
                        };
                        pattern.push((prop, local));
                        if !self.eat(TokenKind::Comma) {
                            break;
                        }
                    }
                    self.expect(TokenKind::RBrace, "`}`")?;
                    self.expect(TokenKind::Eq, "`=`")?;
                    let init = self.expression()?;
                    self.eat(TokenKind::Semi);
                    return Ok(Stmt {
                        kind: StmtKind::VarDecl { name: None, pattern, init: Some(init) },
                        span: start,
                    });
                }
                let (name, _) = self.ident("variable name")?;
                let init = if self.eat(TokenKind::Eq) {
                    Some(self.expression()?)
                } else {
                    None
                };
                self.eat(TokenKind::Semi);
                Ok(Stmt {
                    kind: StmtKind::VarDecl { name: Some(name), pattern: Vec::new(), init },
                    span: start,
                })
            }
            TokenKind::Return => {
                self.bump();
                let value = if matches!(
                    self.peek().kind,
                    TokenKind::Semi | TokenKind::RBrace | TokenKind::EndOfFile
                ) {
                    None
                } else {
                    Some(self.expression()?)
                };
                self.eat(TokenKind::Semi);
                Ok(Stmt { kind: StmtKind::Return(value), span: start })
            }
            TokenKind::If => {
                self.bump();
                self.expect(TokenKind::LParen, "`(`")?;
                let test = self.expression()?;
                self.expect(TokenKind::RParen, "`)`")?;
                let cons = self.block_or_single()?;
                let alt = if self.eat(TokenKind::Else) {
                    if matches!(self.peek().kind, TokenKind::If) {
                        vec![self.statement()?]
                    } else {
                        self.block_or_single()?
                    }
                } else {
                    Vec::new()
                };
                Ok(Stmt { kind: StmtKind::If { test, cons, alt }, span: start })
            }
            _ => {
                let expr = self.expression()?;
                if self.eat(TokenKind::Eq) {
                    let value = self.expression()?;
                    self.eat(TokenKind::Semi);
                    return Ok(Stmt {
                        kind: StmtKind::Assign { target: expr, value },
                        span: start,
                    });
                }
                self.eat(TokenKind::Semi);
                Ok(Stmt { kind: StmtKind::Expr(expr), span: start })
            }
        }
    }

    fn import_stmt(&mut self) -> Result<Stmt<'s>, FrontendError> {
        let start = self.peek().span();
        self.bump(); // import
        let mut bindings = Vec::new();
        match self.peek().kind {
            // `import * as ns from 'mod'`
            TokenKind::Op(b'*') => {
                self.bump();
                self.expect(TokenKind::As, "`as`")?;
                let (name, _) = self.ident("namespace name")?;
                bindings.push(ImportBinding::Namespace(name));
            }
            // `import { a, b as c } from 'mod'`
            TokenKind::LBrace => {
                self.bump();
                while !matches!(self.peek().kind, TokenKind::RBrace) {
                    let (exported, _) = self.ident("imported name")?;
                    let local = if self.eat(TokenKind::As) {
                        self.ident("local name")?.0
                    } else {
                        exported
                    };
                    bindings.push(ImportBinding::Named { exported, local });
                    if !self.eat(TokenKind::Comma) {
                        break;
                    }
                }
                self.expect(TokenKind::RBrace, "`}`")?;
            }
            // `import name from 'mod'` (optionally `, { a, b }`)
            _ => {
                let (name, _) = self.ident("default import name")?;
                bindings.push(ImportBinding::Default(name));
                if self.eat(TokenKind::Comma) {
                    self.expect(TokenKind::LBrace, "`{`")?;
                    while !matches!(self.peek().kind, TokenKind::RBrace) {
                        let (exported, _) = self.ident("imported name")?;
                        let local = if self.eat(TokenKind::As) {
                            self.ident("local name")?.0
                        } else {
                            exported
                        };
                        bindings.push(ImportBinding::Named { exported, local });
                        if !self.eat(TokenKind::Comma) {
                            break;
                        }
                    }
                    self.expect(TokenKind::RBrace, "`}`")?;
                }
            }
        }
        self.expect(TokenKind::From, "`from`")?;
        let t = self.peek();
        let module = match t.kind {
            TokenKind::Str => string_value(self.bump().text),
            _ => return Err(ParseError::new("module string", t, t.span()).into()),
        };
        self.eat(TokenKind::Semi);
        Ok(Stmt { kind: StmtKind::Import { bindings, module }, span: start })
    }

    fn block(&mut self) -> Result<Vec<Stmt<'s>>, FrontendError> {
        self.expect(TokenKind::LBrace, "`{`")?;
        let mut body = Vec::new();
        while !matches!(self.peek().kind, TokenKind::RBrace | TokenKind::EndOfFile) {
            let start = self.pos;
            match self.statement() {
                Ok(s) => body.push(s),
                // Degrade per statement inside blocks too, so one bad
                // line doesn't drop the whole enclosing function.
                Err(e) => self.recover(e, start),
            }
        }
        self.expect(TokenKind::RBrace, "`}`")?;
        Ok(body)
    }

    fn block_or_single(&mut self) -> Result<Vec<Stmt<'s>>, FrontendError> {
        if matches!(self.peek().kind, TokenKind::LBrace) {
            self.block()
        } else {
            Ok(vec![self.statement()?])
        }
    }

    // ----- expressions --------------------------------------------------------

    fn expression(&mut self) -> Result<Expr<'s>, FrontendError> {
        let mut left = self.unary()?;
        // All binary operators flatten to flow-union nodes.
        while matches!(self.peek().kind, TokenKind::Plus | TokenKind::Op(_)) {
            self.bump();
            let right = self.unary()?;
            let span = left.span.merge(right.span);
            left = Expr {
                kind: ExprKind::Binary { left: Box::new(left), right: Box::new(right) },
                span,
            };
        }
        Ok(left)
    }

    fn unary(&mut self) -> Result<Expr<'s>, FrontendError> {
        if matches!(self.peek().kind, TokenKind::Op(b'!') | TokenKind::Op(b'-')) {
            let start = self.peek().span();
            self.bump();
            let inner = self.unary()?;
            let span = start.merge(inner.span);
            return Ok(Expr { kind: ExprKind::Unary(Box::new(inner)), span });
        }
        self.postfix()
    }

    fn postfix(&mut self) -> Result<Expr<'s>, FrontendError> {
        let mut expr = self.primary()?;
        loop {
            match self.peek().kind {
                TokenKind::Dot => {
                    self.bump();
                    let (prop, pspan) = self.ident("property name")?;
                    let span = expr.span.merge(pspan);
                    expr = Expr {
                        kind: ExprKind::Member { obj: Box::new(expr), prop },
                        span,
                    };
                }
                TokenKind::LBracket => {
                    self.bump();
                    let index = self.expression()?;
                    let close = self.expect(TokenKind::RBracket, "`]`")?;
                    let span = expr.span.merge(close.span());
                    expr = Expr {
                        kind: ExprKind::Index { obj: Box::new(expr), index: Box::new(index) },
                        span,
                    };
                }
                TokenKind::LParen => {
                    self.bump();
                    let mut args = Vec::new();
                    while !matches!(self.peek().kind, TokenKind::RParen) {
                        args.push(self.expression()?);
                        if !self.eat(TokenKind::Comma) {
                            break;
                        }
                    }
                    let close = self.expect(TokenKind::RParen, "`)`")?;
                    let span = expr.span.merge(close.span());
                    expr = Expr {
                        kind: ExprKind::Call { callee: Box::new(expr), args },
                        span,
                    };
                }
                _ => break,
            }
        }
        Ok(expr)
    }

    fn primary(&mut self) -> Result<Expr<'s>, FrontendError> {
        let start = self.peek().span();
        match self.peek().kind {
            TokenKind::Ident => Ok(Expr { kind: ExprKind::Ident(self.bump().text), span: start }),
            TokenKind::Str => {
                Ok(Expr { kind: ExprKind::Str(string_value(self.bump().text)), span: start })
            }
            TokenKind::Num => Ok(Expr { kind: ExprKind::Num(self.bump().text), span: start }),
            TokenKind::True => {
                self.bump();
                Ok(Expr { kind: ExprKind::Bool(true), span: start })
            }
            TokenKind::False => {
                self.bump();
                Ok(Expr { kind: ExprKind::Bool(false), span: start })
            }
            TokenKind::Null => {
                self.bump();
                Ok(Expr { kind: ExprKind::Null, span: start })
            }
            TokenKind::New => {
                // `new X(...)` is flow-equivalent to the call itself.
                self.bump();
                self.postfix()
            }
            TokenKind::LParen => {
                self.bump();
                let inner = self.expression()?;
                self.expect(TokenKind::RParen, "`)`")?;
                Ok(inner)
            }
            TokenKind::LBrace => {
                self.bump();
                let mut props = Vec::new();
                while !matches!(self.peek().kind, TokenKind::RBrace) {
                    let t = self.peek();
                    let (key, name) = match t.kind {
                        TokenKind::Ident => (Cow::Borrowed(t.text), t.text),
                        TokenKind::Str => (string_value(t.text), &t.text[1..t.text.len() - 1]),
                        _ => return Err(ParseError::new("property key", t, t.span()).into()),
                    };
                    self.bump();
                    let value = if self.eat(TokenKind::Colon) {
                        self.expression()?
                    } else {
                        // Shorthand `{ name }`.
                        Expr { kind: ExprKind::Ident(name), span: t.span() }
                    };
                    props.push((key, value));
                    if !self.eat(TokenKind::Comma) {
                        break;
                    }
                }
                let close = self.expect(TokenKind::RBrace, "`}`")?;
                Ok(Expr { kind: ExprKind::Object(props), span: start.merge(close.span()) })
            }
            TokenKind::LBracket => {
                self.bump();
                let mut elems = Vec::new();
                while !matches!(self.peek().kind, TokenKind::RBracket) {
                    elems.push(self.expression()?);
                    if !self.eat(TokenKind::Comma) {
                        break;
                    }
                }
                let close = self.expect(TokenKind::RBracket, "`]`")?;
                Ok(Expr { kind: ExprKind::Array(elems), span: start.merge(close.span()) })
            }
            _ => Err(ParseError::new("expression", self.peek(), start).into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_imports_and_require() {
        let p = parse(
            "import express from 'express';\nimport { get, post as p } from 'http';\nimport * as fs from 'fs';\nconst db = require('pg');\n",
        )
        .expect("parses");
        assert_eq!(p.body.len(), 4);
        assert!(matches!(&p.body[0].kind, StmtKind::Import { bindings, module }
            if module == "express" && bindings.len() == 1));
        assert!(matches!(&p.body[1].kind, StmtKind::Import { bindings, .. }
            if bindings.len() == 2));
    }

    #[test]
    fn parses_function_and_calls() {
        let p = parse(
            "function handler(req, res) {\n  const name = req.query.name;\n  res.send(name);\n  return name;\n}\n",
        )
        .expect("parses");
        let StmtKind::Func(f) = &p.body[0].kind else { panic!("not a func") };
        assert_eq!(f.name, "handler");
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.body.len(), 3);
    }

    #[test]
    fn parses_member_index_chains() {
        let p = parse("x = a.b['k'].c(1, d);\n").expect("parses");
        assert!(matches!(&p.body[0].kind, StmtKind::Assign { .. }));
    }

    #[test]
    fn parses_object_and_array_literals() {
        let p = parse("f({ name: v, 'k': 2, shorthand }, [1, x]);\n").expect("parses");
        let StmtKind::Expr(e) = &p.body[0].kind else { panic!() };
        let ExprKind::Call { args, .. } = &e.kind else { panic!() };
        assert_eq!(args.len(), 2);
        assert!(matches!(&args[0].kind, ExprKind::Object(props) if props.len() == 3));
    }

    #[test]
    fn parses_if_else_and_new() {
        let p = parse(
            "if (x) { y = new Client(cfg); } else if (z) { w = 1; } else { w = 2; }\n",
        )
        .expect("parses");
        assert!(matches!(&p.body[0].kind, StmtKind::If { .. }));
    }

    #[test]
    fn strict_rejects_garbage() {
        let err = parse("const = 1;\n").unwrap_err();
        assert!(err.to_string().contains("expected variable name"));
    }

    #[test]
    fn lenient_skips_broken_statements() {
        let (p, errors) =
            parse_lenient("x = f();\nconst = broken;\ny = g(x);\n");
        assert_eq!(errors.len(), 1);
        assert_eq!(p.body.len(), 2);
    }

    #[test]
    fn bump_returns_tokens_and_stays_on_end_of_file() {
        let mut p = Parser { tokens: lex("name;").unwrap(), pos: 0, errors: vec![] };
        let name = p.bump();
        assert_eq!((name.kind, name.text, name.span()), (TokenKind::Ident, "name", Span::new(0, 4, 1, 1)));
        // The cursor stays on the end of file, however often it is bumped.
        while !p.at_eof() {
            p.bump();
        }
        assert_eq!(p.bump().kind, TokenKind::EndOfFile);
        assert!(p.at_eof());
    }

    #[test]
    fn strings_borrow_unless_escaped() {
        assert!(matches!(string_value("'plain'"), Cow::Borrowed("plain")));
        assert_eq!(string_value(r"'a\'b\nc'"), "a'b\nc");
        assert_eq!(string_value("'\u{e9}t\u{e9}'"), "\u{e9}t\u{e9}");
        assert_eq!(string_value("'\\\u{e9}'"), "\u{e9}");
    }

    #[test]
    fn lenient_recovers_inside_blocks() {
        let (p, errors) = parse_lenient(
            "function h(a) {\n  const = nope;\n  return a;\n}\nz = h(1);\n",
        );
        assert_eq!(errors.len(), 1);
        assert_eq!(p.body.len(), 2, "function and trailing statement survive");
    }
}
