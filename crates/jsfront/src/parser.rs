//! Recursive-descent parser for the JS-like subset.
//!
//! Two entry points mirror the Python frontend: [`parse`] fails on the
//! first error; [`parse_lenient`] skips the malformed statement (scanning
//! to the next `;` or block boundary) and reports it, analyzing the rest.

use crate::ast::*;
use crate::lexer::{lex, Token, TokenKind};
use seldon_ir::{FrontendError, ParseError, Span};

/// Parses a whole file strictly.
///
/// # Errors
///
/// Returns the first [`FrontendError`] encountered.
pub fn parse(source: &str) -> Result<Program, FrontendError> {
    let tokens = lex(source)?;
    let mut p = Parser { tokens, pos: 0, lenient: false, errors: Vec::new() };
    let mut body = Vec::new();
    while !p.at_eof() {
        body.push(p.statement()?);
    }
    Ok(Program { body })
}

/// Parses a whole file, skipping malformed statements.
///
/// A lex error is unrecoverable (token boundaries are unknown) and yields
/// an empty program with one error.
pub fn parse_lenient(source: &str) -> (Program, Vec<FrontendError>) {
    let tokens = match lex(source) {
        Ok(t) => t,
        Err(e) => return (Program::default(), vec![e.into()]),
    };
    let mut p = Parser { tokens, pos: 0, lenient: true, errors: Vec::new() };
    let mut body = Vec::new();
    while !p.at_eof() {
        let start = p.pos;
        match p.statement() {
            Ok(s) => body.push(s),
            Err(e) => {
                p.errors.push(e);
                if p.pos == start {
                    p.pos += 1;
                }
                p.skip_to_recovery_point();
            }
        }
    }
    (Program { body }, p.errors)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    lenient: bool,
    errors: Vec<FrontendError>,
}

impl Parser {
    fn peek(&self) -> &Token {
        let t = &self.tokens[self.pos.min(self.tokens.len() - 1)];
        debug_assert!(t.kind != TokenKind::Taken, "parser peeked a consumed token");
        t
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek().kind, TokenKind::EndOfFile)
    }

    /// Moves the current token out and advances past it.
    ///
    /// The vacated slot keeps its span and holds [`TokenKind::Taken`]. The
    /// cursor never moves backwards, so nothing peeks at a taken slot. The
    /// final `EndOfFile` is cloned instead: the cursor stays on it.
    fn bump(&mut self) -> Token {
        if self.at_eof() {
            return self.peek().clone();
        }
        let slot = &mut self.tokens[self.pos];
        self.pos += 1;
        Token { kind: std::mem::replace(&mut slot.kind, TokenKind::Taken), span: slot.span }
    }

    /// Moves out the text of the current identifier or literal token;
    /// callers peek at the kind first.
    fn bump_text(&mut self) -> (String, Span) {
        let t = self.bump();
        match t.kind {
            TokenKind::Ident(s) | TokenKind::Str(s) | TokenKind::Num(s) => (s, t.span),
            other => unreachable!("bump_text on {other}"),
        }
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if &self.peek().kind == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind, what: &str) -> Result<Token, FrontendError> {
        if self.peek().kind == kind {
            Ok(self.bump())
        } else {
            let t = self.peek();
            Err(ParseError::new(what, &t.kind, t.span).into())
        }
    }

    fn ident(&mut self, what: &str) -> Result<(String, Span), FrontendError> {
        match &self.peek().kind {
            TokenKind::Ident(_) => Ok(self.bump_text()),
            other => Err(ParseError::new(what, other, self.peek().span).into()),
        }
    }

    /// After an error: skip ahead past the next `;`, or stop before a `}` /
    /// top-level statement keyword, so the next statement parses cleanly.
    fn skip_to_recovery_point(&mut self) {
        let mut depth = 0usize;
        while !self.at_eof() {
            match &self.peek().kind {
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

    fn statement(&mut self) -> Result<Stmt, FrontendError> {
        let start = self.peek().span;
        match &self.peek().kind {
            TokenKind::Import => self.import_stmt(),
            TokenKind::Function => {
                self.bump();
                let (name, _) = self.ident("function name")?;
                let mut params = Vec::new();
                self.expect(TokenKind::LParen, "`(`")?;
                while !matches!(self.peek().kind, TokenKind::RParen) {
                    let (p, sp) = self.ident("parameter name")?;
                    params.push((p, sp));
                    if !self.eat(&TokenKind::Comma) {
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
                if self.eat(&TokenKind::LBrace) {
                    // Destructuring: `const {a, b: c} = expr;`
                    let mut pattern = Vec::new();
                    while !matches!(self.peek().kind, TokenKind::RBrace) {
                        let (prop, _) = self.ident("destructured name")?;
                        let local = if self.eat(&TokenKind::Colon) {
                            self.ident("local name")?.0
                        } else {
                            prop.clone()
                        };
                        pattern.push((prop, local));
                        if !self.eat(&TokenKind::Comma) {
                            break;
                        }
                    }
                    self.expect(TokenKind::RBrace, "`}`")?;
                    self.expect(TokenKind::Eq, "`=`")?;
                    let init = self.expression()?;
                    self.eat(&TokenKind::Semi);
                    return Ok(Stmt {
                        kind: StmtKind::VarDecl { name: None, pattern, init: Some(init) },
                        span: start,
                    });
                }
                let (name, _) = self.ident("variable name")?;
                let init = if self.eat(&TokenKind::Eq) {
                    Some(self.expression()?)
                } else {
                    None
                };
                self.eat(&TokenKind::Semi);
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
                self.eat(&TokenKind::Semi);
                Ok(Stmt { kind: StmtKind::Return(value), span: start })
            }
            TokenKind::If => {
                self.bump();
                self.expect(TokenKind::LParen, "`(`")?;
                let test = self.expression()?;
                self.expect(TokenKind::RParen, "`)`")?;
                let cons = self.block_or_single()?;
                let alt = if self.eat(&TokenKind::Else) {
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
                if self.eat(&TokenKind::Eq) {
                    let value = self.expression()?;
                    self.eat(&TokenKind::Semi);
                    return Ok(Stmt {
                        kind: StmtKind::Assign { target: expr, value },
                        span: start,
                    });
                }
                self.eat(&TokenKind::Semi);
                Ok(Stmt { kind: StmtKind::Expr(expr), span: start })
            }
        }
    }

    fn import_stmt(&mut self) -> Result<Stmt, FrontendError> {
        let start = self.peek().span;
        self.bump(); // import
        let mut bindings = Vec::new();
        match &self.peek().kind {
            // `import * as ns from 'mod'`
            TokenKind::Op('*') => {
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
                    let local = if self.eat(&TokenKind::As) {
                        self.ident("local name")?.0
                    } else {
                        exported.clone()
                    };
                    bindings.push(ImportBinding::Named { exported, local });
                    if !self.eat(&TokenKind::Comma) {
                        break;
                    }
                }
                self.expect(TokenKind::RBrace, "`}`")?;
            }
            // `import name from 'mod'` (optionally `, { a, b }`)
            _ => {
                let (name, _) = self.ident("default import name")?;
                bindings.push(ImportBinding::Default(name));
                if self.eat(&TokenKind::Comma) {
                    self.expect(TokenKind::LBrace, "`{`")?;
                    while !matches!(self.peek().kind, TokenKind::RBrace) {
                        let (exported, _) = self.ident("imported name")?;
                        let local = if self.eat(&TokenKind::As) {
                            self.ident("local name")?.0
                        } else {
                            exported.clone()
                        };
                        bindings.push(ImportBinding::Named { exported, local });
                        if !self.eat(&TokenKind::Comma) {
                            break;
                        }
                    }
                    self.expect(TokenKind::RBrace, "`}`")?;
                }
            }
        }
        self.expect(TokenKind::From, "`from`")?;
        let module = match &self.peek().kind {
            TokenKind::Str(_) => self.bump_text().0,
            other => {
                return Err(ParseError::new("module string", other, self.peek().span).into())
            }
        };
        self.eat(&TokenKind::Semi);
        Ok(Stmt { kind: StmtKind::Import { bindings, module }, span: start })
    }

    fn block(&mut self) -> Result<Vec<Stmt>, FrontendError> {
        self.expect(TokenKind::LBrace, "`{`")?;
        let mut body = Vec::new();
        while !matches!(self.peek().kind, TokenKind::RBrace | TokenKind::EndOfFile) {
            let start = self.pos;
            match self.statement() {
                Ok(s) => body.push(s),
                Err(e) if self.lenient => {
                    // Degrade per statement inside blocks too, so one bad
                    // line doesn't drop the whole enclosing function.
                    self.errors.push(e);
                    if self.pos == start {
                        self.pos += 1;
                    }
                    self.skip_to_recovery_point();
                }
                Err(e) => return Err(e),
            }
        }
        self.expect(TokenKind::RBrace, "`}`")?;
        Ok(body)
    }

    fn block_or_single(&mut self) -> Result<Vec<Stmt>, FrontendError> {
        if matches!(self.peek().kind, TokenKind::LBrace) {
            self.block()
        } else {
            Ok(vec![self.statement()?])
        }
    }

    // ----- expressions --------------------------------------------------------

    fn expression(&mut self) -> Result<Expr, FrontendError> {
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

    fn unary(&mut self) -> Result<Expr, FrontendError> {
        if matches!(self.peek().kind, TokenKind::Op('!') | TokenKind::Op('-')) {
            let start = self.peek().span;
            self.bump();
            let inner = self.unary()?;
            let span = start.merge(inner.span);
            return Ok(Expr { kind: ExprKind::Unary(Box::new(inner)), span });
        }
        self.postfix()
    }

    fn postfix(&mut self) -> Result<Expr, FrontendError> {
        let mut expr = self.primary()?;
        loop {
            match &self.peek().kind {
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
                    let span = expr.span.merge(close.span);
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
                        if !self.eat(&TokenKind::Comma) {
                            break;
                        }
                    }
                    let close = self.expect(TokenKind::RParen, "`)`")?;
                    let span = expr.span.merge(close.span);
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

    fn primary(&mut self) -> Result<Expr, FrontendError> {
        let start = self.peek().span;
        match &self.peek().kind {
            TokenKind::Ident(_) => {
                Ok(Expr { kind: ExprKind::Ident(self.bump_text().0), span: start })
            }
            TokenKind::Str(_) => Ok(Expr { kind: ExprKind::Str(self.bump_text().0), span: start }),
            TokenKind::Num(_) => Ok(Expr { kind: ExprKind::Num(self.bump_text().0), span: start }),
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
                    if !matches!(self.peek().kind, TokenKind::Ident(_) | TokenKind::Str(_)) {
                        let t = self.peek();
                        return Err(ParseError::new("property key", &t.kind, t.span).into());
                    }
                    let (key, key_span) = self.bump_text();
                    let value = if self.eat(&TokenKind::Colon) {
                        self.expression()?
                    } else {
                        // Shorthand `{ name }`.
                        Expr { kind: ExprKind::Ident(key.clone()), span: key_span }
                    };
                    props.push((key, value));
                    if !self.eat(&TokenKind::Comma) {
                        break;
                    }
                }
                let close = self.expect(TokenKind::RBrace, "`}`")?;
                Ok(Expr { kind: ExprKind::Object(props), span: start.merge(close.span) })
            }
            TokenKind::LBracket => {
                self.bump();
                let mut elems = Vec::new();
                while !matches!(self.peek().kind, TokenKind::RBracket) {
                    elems.push(self.expression()?);
                    if !self.eat(&TokenKind::Comma) {
                        break;
                    }
                }
                let close = self.expect(TokenKind::RBracket, "`]`")?;
                Ok(Expr { kind: ExprKind::Array(elems), span: start.merge(close.span) })
            }
            other => Err(ParseError::new("expression", other, start).into()),
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
    fn bump_moves_tokens_out_and_keeps_spans() {
        let mut p = Parser { tokens: lex("name;").unwrap(), pos: 0, lenient: false, errors: vec![] };
        let span = p.peek().span;
        assert_eq!(p.bump().kind, TokenKind::Ident("name".into()));
        assert_eq!(p.tokens[0], Token { kind: TokenKind::Taken, span });
        // The end of file is never taken, however often it is bumped.
        while !p.at_eof() {
            p.bump();
        }
        assert_eq!(p.bump().kind, TokenKind::EndOfFile);
        assert!(p.at_eof());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "parser peeked a consumed token")]
    fn peeking_a_taken_slot_trips_the_debug_guard() {
        let mut p = Parser { tokens: lex("x;").unwrap(), pos: 0, lenient: false, errors: vec![] };
        p.bump();
        p.pos = 0;
        p.peek();
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
