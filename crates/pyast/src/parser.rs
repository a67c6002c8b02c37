//! Parser for the Python subset.
//!
//! Statements are recursive descent in CPython's `Grammar/python.gram`
//! shape for the supported subset. Operator expressions use one
//! binding-power loop over the operator table in [`crate::ops`].

use crate::ast::*;
use crate::error::ParseError;
use crate::lexer;
use crate::ops::{self, Fixity, Operator, Prec};
use crate::span::Span;
use crate::token::{Token, TokenKind};
use std::borrow::Cow;

/// Parses a full module from source text: [`parse_lenient`], failing on
/// its first error.
///
/// # Errors
///
/// Returns a [`crate::error::FrontendError`] if the source fails to lex or
/// parse.
pub fn parse(source: &str) -> Result<Module<'_>, crate::error::FrontendError> {
    let (module, errors) = parse_lenient(source);
    errors.into_iter().next().map_or(Ok(module), Err)
}

/// Parses a module, recovering from statement-level errors.
///
/// Statements that fail to parse are skipped (the parser synchronizes to
/// the next logical line, balancing indentation) and reported in the error
/// list; everything else lands in the returned module. A file that fails to
/// *lex* returns an empty module plus the lexical error. Errors come in
/// source order, so the first is where a parse without recovery stops,
/// and an error-free parse is the whole module.
///
/// This is what an analysis over arbitrary repository code wants: one
/// malformed construct should cost one statement, not the whole file.
pub fn parse_lenient(source: &str) -> (Module<'_>, Vec<crate::error::FrontendError>) {
    let tokens = match lexer::lex(source) {
        Ok(t) => t,
        Err(e) => return (Module { body: Vec::new() }, vec![e.into()]),
    };
    let mut p = Parser::new(source, tokens);
    let mut body = Vec::new();
    let mut errors = Vec::new();
    loop {
        match p.peek() {
            TokenKind::EndOfFile => break,
            TokenKind::Indent if errors.is_empty() => {
                // A stray top-level indent: report it as the statement
                // grammar would, then skip it. After an error, an indent
                // here is the body of a broken header that `synchronize`
                // stepped over, and it is skipped silently.
                errors.push(ParseError::new("expression", p.tok(), p.span()).into());
                p.bump();
            }
            TokenKind::Newline | TokenKind::Indent | TokenKind::Dedent => {
                p.bump();
            }
            _ => {
                // A line that fails keeps none of its statements.
                let line_start = body.len();
                if let Err(e) = p.parse_statement(&mut body) {
                    body.truncate(line_start);
                    errors.push(e.into());
                    p.synchronize();
                }
            }
        }
    }
    (Module { body }, errors)
}

/// Parses a single expression (used for f-string interpolations and tests).
///
/// # Errors
///
/// Returns a [`crate::error::FrontendError`] if `source` is not a single
/// well-formed expression.
pub fn parse_expr(source: &str) -> Result<Expr<'_>, crate::error::FrontendError> {
    let tokens = lexer::lex(source)?;
    let mut p = Parser::new(source, tokens);
    let e = p.parse_testlist()?;
    Ok(e)
}

/// Maximum expression nesting depth before the parser bails out instead of
/// risking a stack overflow on pathological input.
const MAX_EXPR_DEPTH: u32 = 100;

struct Parser<'s> {
    src: &'s str,
    tokens: Vec<Token<'s>>,
    pos: usize,
    expr_depth: u32,
}

type PResult<T> = Result<T, ParseError>;

impl<'s> Parser<'s> {
    fn new(src: &'s str, tokens: Vec<Token<'s>>) -> Self {
        Parser { src, tokens, pos: 0, expr_depth: 0 }
    }

    /// The token at the cursor; past the end, the final `EndOfFile`.
    fn tok(&self) -> Token<'s> {
        self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn peek(&self) -> TokenKind {
        self.tok().kind
    }

    fn peek_at(&self, off: usize) -> TokenKind {
        self.tokens[(self.pos + off).min(self.tokens.len() - 1)].kind
    }

    fn span(&self) -> Span {
        self.tok().span()
    }

    /// Returns the current token and advances past it. The cursor stays
    /// on the final `EndOfFile`, however often it is bumped.
    fn bump(&mut self) -> Token<'s> {
        let t = self.tok();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, kind: TokenKind) -> bool {
        if self.peek() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind, what: &str) -> PResult<Token<'s>> {
        if self.peek() == kind {
            Ok(self.bump())
        } else {
            self.err(what)
        }
    }

    fn expect_name(&mut self, what: &str) -> PResult<(&'s str, Span)> {
        match self.peek() {
            TokenKind::Name => {
                let t = self.bump();
                Ok((t.text, t.span()))
            }
            _ => self.err(what),
        }
    }

    fn err<T>(&self, what: &str) -> PResult<T> {
        Err(ParseError::new(what, self.tok(), self.span()))
    }

    /// Error recovery: skips tokens to the start of the next logical line
    /// at the current indentation level (consuming any nested block the
    /// broken statement opened).
    fn synchronize(&mut self) {
        let mut depth = 0i32;
        loop {
            match self.peek() {
                TokenKind::EndOfFile => return,
                TokenKind::Indent => {
                    depth += 1;
                    self.bump();
                }
                TokenKind::Dedent => {
                    if depth == 0 {
                        // Leaving the enclosing suite: let the caller see it.
                        return;
                    }
                    depth -= 1;
                    self.bump();
                }
                TokenKind::Newline => {
                    self.bump();
                    if depth == 0 {
                        return;
                    }
                }
                _ => {
                    self.bump();
                }
            }
        }
    }

    // ----- module and statements -------------------------------------------

    /// Parses one logical statement line, which may contain several simple
    /// statements separated by `;`, onto the end of `body`.
    fn parse_statement(&mut self, body: &mut Vec<Stmt<'s>>) -> PResult<()> {
        match self.peek() {
            TokenKind::KwIf
            | TokenKind::KwWhile
            | TokenKind::KwFor
            | TokenKind::KwTry
            | TokenKind::KwWith
            | TokenKind::KwDef
            | TokenKind::KwClass
            | TokenKind::At
            | TokenKind::KwAsync => {
                body.push(self.parse_compound_statement()?);
                Ok(())
            }
            _ => self.parse_simple_statement_line(body),
        }
    }

    fn parse_simple_statement_line(&mut self, body: &mut Vec<Stmt<'s>>) -> PResult<()> {
        body.push(self.parse_simple_statement()?);
        while self.eat(TokenKind::Semicolon) {
            if self.peek().ends_line() {
                break;
            }
            body.push(self.parse_simple_statement()?);
        }
        if !self.eat(TokenKind::Newline) && self.peek() != TokenKind::EndOfFile {
            return self.err("newline after statement");
        }
        Ok(())
    }

    fn parse_simple_statement(&mut self) -> PResult<Stmt<'s>> {
        let span = self.span();
        match self.peek() {
            TokenKind::KwPass => {
                self.bump();
                Ok(Stmt::new(StmtKind::Pass, span))
            }
            TokenKind::KwBreak => {
                self.bump();
                Ok(Stmt::new(StmtKind::Break, span))
            }
            TokenKind::KwContinue => {
                self.bump();
                Ok(Stmt::new(StmtKind::Continue, span))
            }
            TokenKind::KwImport => self.parse_import(),
            TokenKind::KwFrom => self.parse_import_from(),
            TokenKind::KwReturn => {
                self.bump();
                let value = if self.peek().ends_line() || self.peek() == TokenKind::Semicolon {
                    None
                } else {
                    Some(self.parse_testlist()?)
                };
                Ok(Stmt::new(StmtKind::Return(value), span))
            }
            TokenKind::KwRaise => {
                self.bump();
                let (exc, cause) =
                    if self.peek().ends_line() || self.peek() == TokenKind::Semicolon {
                        (None, None)
                    } else {
                        let e = self.parse_test()?;
                        let c = if self.eat(TokenKind::KwFrom) {
                            Some(self.parse_test()?)
                        } else {
                            None
                        };
                        (Some(e), c)
                    };
                Ok(Stmt::new(StmtKind::Raise { exc, cause }, span))
            }
            TokenKind::KwDel => {
                self.bump();
                let mut targets = vec![self.parse_test()?];
                while self.eat(TokenKind::Comma) {
                    if self.peek().ends_line() {
                        break;
                    }
                    targets.push(self.parse_test()?);
                }
                Ok(Stmt::new(StmtKind::Delete(targets), span))
            }
            TokenKind::KwGlobal => {
                self.bump();
                let names = self.parse_name_list()?;
                Ok(Stmt::new(StmtKind::Global(names), span))
            }
            TokenKind::KwNonlocal => {
                self.bump();
                let names = self.parse_name_list()?;
                Ok(Stmt::new(StmtKind::Nonlocal(names), span))
            }
            TokenKind::KwAssert => {
                self.bump();
                let test = self.parse_test()?;
                let msg = if self.eat(TokenKind::Comma) {
                    Some(self.parse_test()?)
                } else {
                    None
                };
                Ok(Stmt::new(StmtKind::Assert { test, msg }, span))
            }
            // Python 2 `print x` / `print >> f, x` statements, common in
            // 2019-era GitHub corpora: parse as a call to `print`.
            TokenKind::Name
                if self.tok().text == "print"
                    && !matches!(
                        self.peek_at(1),
                        TokenKind::LParen
                            | TokenKind::Assign
                            | TokenKind::Newline
                            | TokenKind::EndOfFile
                            | TokenKind::Dot
                            | TokenKind::Comma
                            | TokenKind::AugAssign
                    ) =>
            {
                let t = self.bump();
                let func = Expr::new(ExprKind::Name(t.text), t.span());
                if self.eat(TokenKind::RShift) {
                    // `print >> stream, args`: the stream is an ordinary arg.
                    let _stream = self.parse_test()?;
                    let _ = self.eat(TokenKind::Comma);
                }
                let mut args = Vec::new();
                if !self.peek().ends_line() && self.peek() != TokenKind::Semicolon {
                    args.push(self.parse_test()?);
                    while self.eat(TokenKind::Comma) {
                        if self.peek().ends_line() || self.peek() == TokenKind::Semicolon {
                            break;
                        }
                        args.push(self.parse_test()?);
                    }
                }
                let call_span = span.merge(self.prev_span());
                let call = Expr::new(
                    ExprKind::Call { func: Box::new(func), args, keywords: vec![] },
                    call_span,
                );
                Ok(Stmt::new(StmtKind::Expr(call), span))
            }
            _ => self.parse_expr_or_assign(),
        }
    }

    fn parse_name_list(&mut self) -> PResult<Vec<&'s str>> {
        let mut names = vec![self.expect_name("name")?.0];
        while self.eat(TokenKind::Comma) {
            names.push(self.expect_name("name")?.0);
        }
        Ok(names)
    }

    fn parse_import(&mut self) -> PResult<Stmt<'s>> {
        let span = self.span();
        self.expect(TokenKind::KwImport, "`import`")?;
        let mut aliases = vec![self.parse_dotted_alias()?];
        while self.eat(TokenKind::Comma) {
            aliases.push(self.parse_dotted_alias()?);
        }
        Ok(Stmt::new(StmtKind::Import(aliases), span))
    }

    /// A dotted module path `a.b.c`, as the source slice that spells it.
    fn parse_dotted_name(&mut self) -> PResult<&'s str> {
        let start = self.span().start as usize;
        self.expect_name("module name")?;
        while self.peek() == TokenKind::Dot {
            self.bump();
            self.expect_name("module name segment")?;
        }
        Ok(&self.src[start..self.prev_span().end as usize])
    }

    fn parse_dotted_alias(&mut self) -> PResult<ImportAlias<'s>> {
        let start = self.span();
        let name = self.parse_dotted_name()?;
        let asname = if self.eat(TokenKind::KwAs) {
            Some(self.expect_name("alias name")?.0)
        } else {
            None
        };
        Ok(ImportAlias { name, asname, span: start.merge(self.prev_span()) })
    }

    fn prev_span(&self) -> Span {
        self.tokens[self.pos.saturating_sub(1)].span()
    }

    fn parse_import_from(&mut self) -> PResult<Stmt<'s>> {
        let span = self.span();
        self.expect(TokenKind::KwFrom, "`from`")?;
        let mut level = 0u32;
        loop {
            if self.eat(TokenKind::Dot) {
                level += 1;
            } else if self.eat(TokenKind::Ellipsis) {
                level += 3;
            } else {
                break;
            }
        }
        let module =
            if self.peek() == TokenKind::Name { self.parse_dotted_name()? } else { "" };
        self.expect(TokenKind::KwImport, "`import`")?;
        let mut names = Vec::new();
        if self.eat(TokenKind::Star) {
            names.push(ImportAlias {
                name: "*",
                asname: None,
                span: self.prev_span(),
            });
        } else {
            let parenthesized = self.eat(TokenKind::LParen);
            loop {
                let (n, nspan) = self.expect_name("imported name")?;
                let asname = if self.eat(TokenKind::KwAs) {
                    Some(self.expect_name("alias name")?.0)
                } else {
                    None
                };
                names.push(ImportAlias { name: n, asname, span: nspan });
                if !self.eat(TokenKind::Comma) {
                    break;
                }
                if parenthesized && self.peek() == TokenKind::RParen {
                    break;
                }
            }
            if parenthesized {
                self.expect(TokenKind::RParen, "`)`")?;
            }
        }
        Ok(Stmt::new(StmtKind::ImportFrom { module, names, level }, span))
    }

    fn parse_expr_or_assign(&mut self) -> PResult<Stmt<'s>> {
        let span = self.span();
        let first = self.parse_testlist_star()?;
        match self.peek() {
            TokenKind::Assign => {
                // `a = b = c`: every value but the last is another target.
                let mut chained = Vec::new();
                self.bump();
                let mut value = self.parse_testlist_star()?;
                while self.peek() == TokenKind::Assign {
                    self.bump();
                    let next = self.parse_testlist_star()?;
                    chained.push(std::mem::replace(&mut value, next));
                }
                Ok(Stmt::new(StmtKind::Assign { target: first, chained, value }, span))
            }
            TokenKind::AugAssign => {
                let spelled = self.tok().text;
                let Some(op) = ops::infix(&spelled[..spelled.len() - 1]) else {
                    return self.err("augmented assignment operator");
                };
                self.bump();
                let value = self.parse_testlist()?;
                Ok(Stmt::new(StmtKind::AugAssign { target: first, op: op.text, value }, span))
            }
            TokenKind::Colon => {
                self.bump();
                let annotation = self.parse_test()?;
                let value = if self.eat(TokenKind::Assign) {
                    Some(self.parse_testlist_star()?)
                } else {
                    None
                };
                Ok(Stmt::new(StmtKind::AnnAssign { target: first, annotation, value }, span))
            }
            _ => Ok(Stmt::new(StmtKind::Expr(first), span)),
        }
    }

    // ----- compound statements ---------------------------------------------

    fn parse_compound_statement(&mut self) -> PResult<Stmt<'s>> {
        match self.peek() {
            TokenKind::KwIf => self.parse_if(),
            TokenKind::KwWhile => self.parse_while(),
            TokenKind::KwFor => self.parse_for(false),
            TokenKind::KwTry => self.parse_try(),
            TokenKind::KwWith => self.parse_with(false),
            TokenKind::KwDef => self.parse_def(Vec::new(), false),
            TokenKind::KwClass => self.parse_class(Vec::new()),
            TokenKind::At => self.parse_decorated(),
            TokenKind::KwAsync => {
                let span = self.span();
                self.bump();
                match self.peek() {
                    TokenKind::KwDef => self.parse_def(Vec::new(), true),
                    TokenKind::KwFor => self.parse_for(true),
                    TokenKind::KwWith => self.parse_with(true),
                    _ => Err(ParseError::new(
                        "`def`, `for` or `with` after `async`",
                        self.tok(),
                        span,
                    )),
                }
            }
            _ => self.err("compound statement"),
        }
    }

    fn parse_decorated(&mut self) -> PResult<Stmt<'s>> {
        let mut decorators = Vec::new();
        while self.eat(TokenKind::At) {
            decorators.push(self.parse_test()?);
            self.expect(TokenKind::Newline, "newline after decorator")?;
            // Blank logical lines between decorators are swallowed by the lexer.
        }
        match self.peek() {
            TokenKind::KwDef => self.parse_def(decorators, false),
            TokenKind::KwClass => self.parse_class(decorators),
            TokenKind::KwAsync => {
                self.bump();
                self.parse_def(decorators, true)
            }
            _ => self.err("`def` or `class` after decorators"),
        }
    }

    fn parse_suite(&mut self) -> PResult<Vec<Stmt<'s>>> {
        self.expect(TokenKind::Colon, "`:`")?;
        if self.eat(TokenKind::Newline) {
            self.expect(TokenKind::Indent, "indented block")?;
            let mut body = Vec::new();
            loop {
                match self.peek() {
                    TokenKind::Dedent => {
                        self.bump();
                        break;
                    }
                    TokenKind::EndOfFile => break,
                    TokenKind::Newline => {
                        self.bump();
                    }
                    _ => self.parse_statement(&mut body)?,
                }
            }
            Ok(body)
        } else {
            // Inline suite: simple statements on the same line.
            let mut body = Vec::new();
            self.parse_simple_statement_line(&mut body)?;
            Ok(body)
        }
    }

    fn parse_if(&mut self) -> PResult<Stmt<'s>> {
        let span = self.span();
        self.expect(TokenKind::KwIf, "`if`")?;
        let test = self.parse_namedexpr_test()?;
        let body = self.parse_suite()?;
        let orelse = self.parse_else_tail()?;
        Ok(Stmt::new(StmtKind::If { test, body, orelse }, span))
    }

    fn parse_else_tail(&mut self) -> PResult<Vec<Stmt<'s>>> {
        if self.peek() == TokenKind::KwElif {
            let span = self.span();
            self.bump();
            let test = self.parse_namedexpr_test()?;
            let body = self.parse_suite()?;
            let orelse = self.parse_else_tail()?;
            Ok(vec![Stmt::new(StmtKind::If { test, body, orelse }, span)])
        } else if self.eat(TokenKind::KwElse) {
            self.parse_suite()
        } else {
            Ok(Vec::new())
        }
    }

    fn parse_while(&mut self) -> PResult<Stmt<'s>> {
        let span = self.span();
        self.expect(TokenKind::KwWhile, "`while`")?;
        let test = self.parse_namedexpr_test()?;
        let body = self.parse_suite()?;
        let orelse = if self.eat(TokenKind::KwElse) { self.parse_suite()? } else { Vec::new() };
        Ok(Stmt::new(StmtKind::While { test, body, orelse }, span))
    }

    fn parse_for(&mut self, _is_async: bool) -> PResult<Stmt<'s>> {
        let span = self.span();
        self.expect(TokenKind::KwFor, "`for`")?;
        let target = self.parse_target_list()?;
        self.expect(TokenKind::KwIn, "`in`")?;
        let iter = self.parse_testlist()?;
        let body = self.parse_suite()?;
        let orelse = if self.eat(TokenKind::KwElse) { self.parse_suite()? } else { Vec::new() };
        Ok(Stmt::new(StmtKind::For { target, iter, body, orelse }, span))
    }

    fn parse_try(&mut self) -> PResult<Stmt<'s>> {
        let span = self.span();
        self.expect(TokenKind::KwTry, "`try`")?;
        let body = self.parse_suite()?;
        let mut handlers = Vec::new();
        while self.peek() == TokenKind::KwExcept {
            let hspan = self.span();
            self.bump();
            let (typ, name) = if self.peek() == TokenKind::Colon {
                (None, None)
            } else {
                let t = self.parse_test()?;
                let n = if self.eat(TokenKind::KwAs) {
                    Some(self.expect_name("exception binding")?.0)
                } else if self.eat(TokenKind::Comma) {
                    // Python 2 form: `except ValueError, e:`.
                    Some(self.expect_name("exception binding")?.0)
                } else {
                    None
                };
                (Some(t), n)
            };
            let hbody = self.parse_suite()?;
            handlers.push(ExceptHandler { typ, name, body: hbody, span: hspan });
        }
        let orelse = if self.eat(TokenKind::KwElse) { self.parse_suite()? } else { Vec::new() };
        let finalbody =
            if self.eat(TokenKind::KwFinally) { self.parse_suite()? } else { Vec::new() };
        if handlers.is_empty() && finalbody.is_empty() {
            return self.err("`except` or `finally` clause");
        }
        Ok(Stmt::new(StmtKind::Try { body, handlers, orelse, finalbody }, span))
    }

    fn parse_with(&mut self, _is_async: bool) -> PResult<Stmt<'s>> {
        let span = self.span();
        self.expect(TokenKind::KwWith, "`with`")?;
        let mut items = Vec::new();
        loop {
            let context = self.parse_test()?;
            let target = if self.eat(TokenKind::KwAs) {
                Some(self.parse_primary_target()?)
            } else {
                None
            };
            items.push(WithItem { context, target });
            if !self.eat(TokenKind::Comma) {
                break;
            }
        }
        let body = self.parse_suite()?;
        Ok(Stmt::new(StmtKind::With { items, body }, span))
    }

    fn parse_def(&mut self, decorators: Vec<Expr<'s>>, is_async: bool) -> PResult<Stmt<'s>> {
        let span = self.span();
        self.expect(TokenKind::KwDef, "`def`")?;
        let (name, _) = self.expect_name("function name")?;
        self.expect(TokenKind::LParen, "`(`")?;
        let params = self.parse_param_list(TokenKind::RParen)?;
        self.expect(TokenKind::RParen, "`)`")?;
        let returns = if self.eat(TokenKind::Arrow) { Some(self.parse_test()?) } else { None };
        let body = self.parse_suite()?;
        Ok(Stmt::new(
            StmtKind::FunctionDef(FunctionDef { name, params, decorators, returns, body, is_async }),
            span,
        ))
    }

    fn parse_param_list(&mut self, terminator: TokenKind) -> PResult<Vec<Param<'s>>> {
        let mut params = Vec::new();
        while self.peek() != terminator {
            let pspan = self.span();
            let kind = if self.eat(TokenKind::DoubleStar) {
                ParamKind::KwArgs
            } else if self.eat(TokenKind::Star) {
                if matches!(self.peek(), TokenKind::Name) {
                    ParamKind::VarArgs
                } else {
                    params.push(Param {
                        name: "*",
                        annotation: None,
                        default: None,
                        kind: ParamKind::KwOnlyMarker,
                        span: pspan,
                    });
                    if !self.eat(TokenKind::Comma) {
                        break;
                    }
                    continue;
                }
            } else if self.eat(TokenKind::Slash) {
                // positional-only marker: ignore.
                if !self.eat(TokenKind::Comma) {
                    break;
                }
                continue;
            } else {
                ParamKind::Plain
            };
            let (name, nspan) = self.expect_name("parameter name")?;
            let annotation = if terminator == TokenKind::RParen && self.eat(TokenKind::Colon) {
                Some(self.parse_test()?)
            } else {
                None
            };
            let default =
                if self.eat(TokenKind::Assign) { Some(self.parse_test()?) } else { None };
            params.push(Param { name, annotation, default, kind, span: nspan });
            if !self.eat(TokenKind::Comma) {
                break;
            }
        }
        Ok(params)
    }

    fn parse_class(&mut self, decorators: Vec<Expr<'s>>) -> PResult<Stmt<'s>> {
        let span = self.span();
        self.expect(TokenKind::KwClass, "`class`")?;
        let (name, _) = self.expect_name("class name")?;
        let mut bases = Vec::new();
        let mut keywords = Vec::new();
        if self.eat(TokenKind::LParen) {
            while self.peek() != TokenKind::RParen {
                if matches!(self.peek(), TokenKind::Name)
                    && self.peek_at(1) == TokenKind::Assign
                {
                    let (kwname, _) = self.expect_name("keyword name")?;
                    self.bump(); // `=`
                    let value = self.parse_test()?;
                    keywords.push(Keyword { name: Some(kwname), value });
                } else if self.eat(TokenKind::DoubleStar) {
                    let value = self.parse_test()?;
                    keywords.push(Keyword { name: None, value });
                } else {
                    bases.push(self.parse_test()?);
                }
                if !self.eat(TokenKind::Comma) {
                    break;
                }
            }
            self.expect(TokenKind::RParen, "`)`")?;
        }
        let body = self.parse_suite()?;
        Ok(Stmt::new(StmtKind::ClassDef(ClassDef { name, bases, keywords, decorators, body }), span))
    }

    // ----- expressions -------------------------------------------------------

    /// `testlist`: one or more tests; a trailing/internal comma builds a tuple.
    fn parse_testlist(&mut self) -> PResult<Expr<'s>> {
        let start = self.span();
        let first = self.parse_test()?;
        if self.peek() != TokenKind::Comma {
            return Ok(first);
        }
        let mut elems = vec![first];
        while self.eat(TokenKind::Comma) {
            if self.testlist_end() {
                break;
            }
            elems.push(self.parse_test()?);
        }
        Ok(Expr::new(ExprKind::Tuple(elems), start.merge(self.prev_span())))
    }

    /// Like `parse_testlist` but allows starred elements (assignment RHS/LHS).
    fn parse_testlist_star(&mut self) -> PResult<Expr<'s>> {
        let start = self.span();
        let first = self.parse_test_or_starred()?;
        if self.peek() != TokenKind::Comma {
            return Ok(first);
        }
        let mut elems = vec![first];
        while self.eat(TokenKind::Comma) {
            if self.testlist_end() {
                break;
            }
            elems.push(self.parse_test_or_starred()?);
        }
        Ok(Expr::new(ExprKind::Tuple(elems), start.merge(self.prev_span())))
    }

    fn testlist_end(&self) -> bool {
        matches!(
            self.peek(),
            TokenKind::Newline
                | TokenKind::EndOfFile
                | TokenKind::Assign
                | TokenKind::Colon
                | TokenKind::Semicolon
                | TokenKind::RParen
                | TokenKind::RBracket
                | TokenKind::RBrace
        )
    }

    fn parse_test_or_starred(&mut self) -> PResult<Expr<'s>> {
        if self.peek() == TokenKind::Star {
            let span = self.span();
            self.bump();
            let inner = self.parse_test()?;
            Ok(Expr::new(ExprKind::Starred(Box::new(inner)), span))
        } else {
            self.parse_test()
        }
    }

    /// `for` targets: comma-separated primary targets.
    fn parse_target_list(&mut self) -> PResult<Expr<'s>> {
        let start = self.span();
        let first = self.parse_primary_target()?;
        if self.peek() != TokenKind::KwIn && self.peek() == TokenKind::Comma {
            let mut elems = vec![first];
            while self.eat(TokenKind::Comma) {
                if self.peek() == TokenKind::KwIn {
                    break;
                }
                elems.push(self.parse_primary_target()?);
            }
            return Ok(Expr::new(ExprKind::Tuple(elems), start.merge(self.prev_span())));
        }
        Ok(first)
    }

    /// A single assignment/with/for target: name, attribute, subscript,
    /// starred, or a parenthesized/tuple/list pattern.
    fn parse_primary_target(&mut self) -> PResult<Expr<'s>> {
        if self.peek() == TokenKind::Star {
            let span = self.span();
            self.bump();
            let inner = self.parse_primary_target()?;
            return Ok(Expr::new(ExprKind::Starred(Box::new(inner)), span));
        }
        // Targets share syntax with postfix expressions.
        self.parse_postfix()
    }

    /// `namedexpr_test`: test with optional walrus.
    fn parse_namedexpr_test(&mut self) -> PResult<Expr<'s>> {
        let e = self.parse_test()?;
        if self.peek() == TokenKind::ColonAssign {
            let span = self.span();
            self.bump();
            let value = self.parse_test()?;
            return Ok(Expr::new(
                ExprKind::NamedExpr { target: Box::new(e), value: Box::new(value) },
                span,
            ));
        }
        Ok(e)
    }

    /// Runs `f` one expression level deeper, or fails when `limit` levels
    /// are already open: the guard that keeps hostile nesting off the stack.
    fn nested(
        &mut self,
        limit: u32,
        f: impl FnOnce(&mut Self) -> PResult<Expr<'s>>,
    ) -> PResult<Expr<'s>> {
        if self.expr_depth >= limit {
            return self.err("expression nesting below the depth limit");
        }
        self.expr_depth += 1;
        let r = f(self);
        self.expr_depth -= 1;
        r
    }

    /// `test`: ternary conditional or lambda.
    fn parse_test(&mut self) -> PResult<Expr<'s>> {
        self.nested(MAX_EXPR_DEPTH, Self::parse_test_inner)
    }

    fn parse_test_inner(&mut self) -> PResult<Expr<'s>> {
        if self.peek() == TokenKind::KwLambda {
            return self.parse_lambda();
        }
        let body = self.parse_operators(Prec::Or)?;
        if self.peek() == TokenKind::KwIf {
            let span = self.span();
            self.bump();
            let test = self.parse_operators(Prec::Or)?;
            self.expect(TokenKind::KwElse, "`else` in conditional expression")?;
            let orelse = self.parse_test()?;
            return Ok(Expr::new(
                ExprKind::IfExp {
                    test: Box::new(test),
                    body: Box::new(body),
                    orelse: Box::new(orelse),
                },
                span,
            ));
        }
        Ok(body)
    }

    fn parse_lambda(&mut self) -> PResult<Expr<'s>> {
        let span = self.span();
        self.expect(TokenKind::KwLambda, "`lambda`")?;
        let params = self.parse_param_list(TokenKind::Colon)?;
        self.expect(TokenKind::Colon, "`:`")?;
        let body = self.parse_test()?;
        Ok(Expr::new(ExprKind::Lambda { params, body: Box::new(body) }, span))
    }

    /// Operator expressions at binding power `min` and tighter: one
    /// precedence-climbing loop over the table in [`crate::ops`].
    ///
    /// Each entry is one level of the depth guard, as each `parse_test` is;
    /// its limit sits one level above `parse_test`'s. Prefix operands and
    /// the right operand of `**` re-enter here, so chains of `not`, `-`,
    /// `await` or `**` are bounded. Every other right operand climbs to a
    /// strictly tighter level, so that recursion is bounded by the table.
    fn parse_operators(&mut self, min: Prec) -> PResult<Expr<'s>> {
        self.nested(MAX_EXPR_DEPTH + 1, |p| p.climb(min))
    }

    fn climb(&mut self, min: Prec) -> PResult<Expr<'s>> {
        let mut left = self.parse_prefix(min)?;
        while let Some(op) = self.operator(false).filter(|op| op.prec >= min) {
            let right_min = op.operands().1;
            let span = left.span;
            left = match op.fixity {
                Fixity::Chain | Fixity::Flat => {
                    let (mut ops, mut operands) = (Vec::new(), vec![left]);
                    while let Some(next) = self.operator(false).filter(|o| o.prec == op.prec) {
                        for _ in next.text.split(' ') {
                            self.bump(); // one token per word, as in `not in`
                        }
                        ops.push(next.text);
                        operands.push(self.climb(right_min)?);
                    }
                    if op.fixity == Fixity::Flat {
                        Expr::new(ExprKind::BoolOp { op: op.text, values: operands }, span)
                    } else {
                        let left = Box::new(operands.remove(0));
                        Expr::new(ExprKind::Compare { left, ops, comparators: operands }, span)
                    }
                }
                _ => {
                    self.bump();
                    let right = if op.fixity == Fixity::Right {
                        self.parse_operators(right_min)?
                    } else {
                        self.climb(right_min)?
                    };
                    let span = span.merge(right.span);
                    let (left, right) = (Box::new(left), Box::new(right));
                    Expr::new(ExprKind::BinOp { left, op: op.text, right }, span)
                }
            };
        }
        Ok(left)
    }

    /// A prefix operator and its operand, or a postfix expression. A prefix
    /// operator looser than `min` is left to the atom parser to reject, as
    /// in `a * not b`.
    fn parse_prefix(&mut self, min: Prec) -> PResult<Expr<'s>> {
        let Some(op) = self.operator(true).filter(|op| op.prec >= min) else {
            return self.parse_postfix();
        };
        let span = self.span();
        self.bump();
        let operand = Box::new(self.parse_operators(op.operands().1)?);
        let kind = if op.prec == Prec::Await {
            ExprKind::Await(operand)
        } else {
            ExprKind::UnaryOp { op: op.text, operand }
        };
        Ok(Expr::new(kind, span))
    }

    /// The prefix or infix operator the tokens at the cursor spell.
    fn operator(&self, prefix: bool) -> Option<&'static Operator> {
        ops::at(&self.tokens[self.pos..], prefix)
    }

    /// Postfix chains: atoms followed by `.attr`, `[...]`, `(...)`.
    fn parse_postfix(&mut self) -> PResult<Expr<'s>> {
        let mut e = self.parse_atom()?;
        loop {
            match self.peek() {
                TokenKind::Dot => {
                    let span = self.span();
                    self.bump();
                    let (attr, aspan) = self.expect_name("attribute name")?;
                    e = Expr::new(
                        ExprKind::Attribute { value: Box::new(e), attr },
                        span.merge(aspan),
                    );
                }
                TokenKind::LParen => {
                    let span = self.span();
                    self.bump();
                    let (args, keywords) = self.parse_call_args()?;
                    let rspan = self.expect(TokenKind::RParen, "`)`")?.span();
                    e = Expr::new(
                        ExprKind::Call { func: Box::new(e), args, keywords },
                        span.merge(rspan),
                    );
                }
                TokenKind::LBracket => {
                    let span = self.span();
                    self.bump();
                    let index = self.parse_subscript_index()?;
                    let rspan = self.expect(TokenKind::RBracket, "`]`")?.span();
                    e = Expr::new(
                        ExprKind::Subscript { value: Box::new(e), index: Box::new(index) },
                        span.merge(rspan),
                    );
                }
                _ => break,
            }
        }
        Ok(e)
    }

    fn parse_call_args(&mut self) -> PResult<(Vec<Expr<'s>>, Vec<Keyword<'s>>)> {
        let mut args = Vec::new();
        let mut keywords = Vec::new();
        while self.peek() != TokenKind::RParen {
            if self.eat(TokenKind::DoubleStar) {
                let value = self.parse_test()?;
                keywords.push(Keyword { name: None, value });
            } else if self.peek() == TokenKind::Star {
                let span = self.span();
                self.bump();
                let inner = self.parse_test()?;
                args.push(Expr::new(ExprKind::Starred(Box::new(inner)), span));
            } else if matches!(self.peek(), TokenKind::Name)
                && self.peek_at(1) == TokenKind::Assign
            {
                let (kwname, _) = self.expect_name("keyword name")?;
                self.bump(); // `=`
                let value = self.parse_test()?;
                keywords.push(Keyword { name: Some(kwname), value });
            } else {
                let mut arg = self.parse_test()?;
                // Generator-expression argument: f(x for x in xs)
                if self.peek() == TokenKind::KwFor {
                    let generators = self.parse_comp_clauses()?;
                    let span = arg.span;
                    arg = Expr::new(
                        ExprKind::Comp {
                            kind: CompKind::Generator,
                            element: Box::new(arg),
                            value: None,
                            generators,
                        },
                        span,
                    );
                }
                args.push(arg);
            }
            if !self.eat(TokenKind::Comma) {
                break;
            }
        }
        Ok((args, keywords))
    }

    fn parse_subscript_index(&mut self) -> PResult<Expr<'s>> {
        let start = self.span();
        let first = self.parse_slice_item()?;
        if self.peek() != TokenKind::Comma {
            return Ok(first);
        }
        let mut elems = vec![first];
        while self.eat(TokenKind::Comma) {
            if self.peek() == TokenKind::RBracket {
                break;
            }
            elems.push(self.parse_slice_item()?);
        }
        Ok(Expr::new(ExprKind::Tuple(elems), start.merge(self.prev_span())))
    }

    fn parse_slice_item(&mut self) -> PResult<Expr<'s>> {
        let start = self.span();
        let lower = if matches!(self.peek(), TokenKind::Colon) {
            None
        } else {
            Some(Box::new(self.parse_test()?))
        };
        if !self.eat(TokenKind::Colon) {
            // `lower` is Some here whenever the token stream is coherent
            // (a leading `:` was eaten above); report instead of panicking
            // so a lexer/parser desync can never abort a corpus run.
            return match lower {
                Some(expr) => Ok(*expr),
                None => self.err("expression or `:` in subscript"),
            };
        }
        let upper = if matches!(self.peek(), TokenKind::Colon | TokenKind::RBracket | TokenKind::Comma)
        {
            None
        } else {
            Some(Box::new(self.parse_test()?))
        };
        let step = if self.eat(TokenKind::Colon) {
            if matches!(self.peek(), TokenKind::RBracket | TokenKind::Comma) {
                None
            } else {
                Some(Box::new(self.parse_test()?))
            }
        } else {
            None
        };
        Ok(Expr::new(ExprKind::Slice { lower, upper, step }, start.merge(self.prev_span())))
    }

    fn parse_comp_clauses(&mut self) -> PResult<Vec<Comprehension<'s>>> {
        let mut generators = Vec::new();
        while self.peek() == TokenKind::KwFor || self.peek() == TokenKind::KwAsync {
            if self.peek() == TokenKind::KwAsync {
                self.bump();
            }
            self.expect(TokenKind::KwFor, "`for`")?;
            let target = self.parse_target_list()?;
            self.expect(TokenKind::KwIn, "`in`")?;
            let iter = self.parse_operators(Prec::Or)?;
            let mut ifs = Vec::new();
            while self.peek() == TokenKind::KwIf {
                self.bump();
                ifs.push(self.parse_operators(Prec::Or)?);
            }
            generators.push(Comprehension { target, iter, ifs });
        }
        Ok(generators)
    }

    fn parse_atom(&mut self) -> PResult<Expr<'s>> {
        let span = self.span();
        match self.peek() {
            TokenKind::Name | TokenKind::Int | TokenKind::Float | TokenKind::Bytes => {
                let t = self.bump();
                let kind = match t.kind {
                    TokenKind::Name => ExprKind::Name(t.text),
                    TokenKind::Bytes => ExprKind::Bytes(t.body()),
                    _ => ExprKind::Number(t.text),
                };
                Ok(Expr::new(kind, span))
            }
            TokenKind::Str | TokenKind::FStr => Ok(self.parse_strings(span)),
            TokenKind::KwTrue => {
                self.bump();
                Ok(Expr::new(ExprKind::Bool(true), span))
            }
            TokenKind::KwFalse => {
                self.bump();
                Ok(Expr::new(ExprKind::Bool(false), span))
            }
            TokenKind::KwNone => {
                self.bump();
                Ok(Expr::new(ExprKind::NoneLit, span))
            }
            TokenKind::Ellipsis => {
                self.bump();
                Ok(Expr::new(ExprKind::EllipsisLit, span))
            }
            TokenKind::KwYield => {
                self.bump();
                let is_from = self.eat(TokenKind::KwFrom);
                let value = if self.peek().ends_line()
                    || matches!(
                        self.peek(),
                        TokenKind::RParen | TokenKind::RBracket | TokenKind::Comma
                    ) {
                    None
                } else {
                    Some(Box::new(self.parse_testlist()?))
                };
                Ok(Expr::new(ExprKind::Yield { value, is_from }, span))
            }
            TokenKind::KwLambda => self.parse_lambda(),
            TokenKind::LParen => self.parse_paren_atom(),
            TokenKind::LBracket => self.parse_list_atom(),
            TokenKind::LBrace => self.parse_brace_atom(),
            _ => self.err("expression"),
        }
    }

    fn parse_paren_atom(&mut self) -> PResult<Expr<'s>> {
        let span = self.span();
        self.expect(TokenKind::LParen, "`(`")?;
        if self.eat(TokenKind::RParen) {
            return Ok(Expr::new(ExprKind::Tuple(Vec::new()), span.merge(self.prev_span())));
        }
        let first = if self.peek() == TokenKind::Star {
            self.parse_test_or_starred()?
        } else {
            self.parse_namedexpr_test()?
        };
        if self.peek() == TokenKind::KwFor || self.peek() == TokenKind::KwAsync {
            let generators = self.parse_comp_clauses()?;
            self.expect(TokenKind::RParen, "`)`")?;
            return Ok(Expr::new(
                ExprKind::Comp {
                    kind: CompKind::Generator,
                    element: Box::new(first),
                    value: None,
                    generators,
                },
                span.merge(self.prev_span()),
            ));
        }
        if self.peek() == TokenKind::Comma {
            let mut elems = vec![first];
            while self.eat(TokenKind::Comma) {
                if self.peek() == TokenKind::RParen {
                    break;
                }
                elems.push(self.parse_test_or_starred()?);
            }
            self.expect(TokenKind::RParen, "`)`")?;
            return Ok(Expr::new(ExprKind::Tuple(elems), span.merge(self.prev_span())));
        }
        self.expect(TokenKind::RParen, "`)`")?;
        Ok(first)
    }

    fn parse_list_atom(&mut self) -> PResult<Expr<'s>> {
        let span = self.span();
        self.expect(TokenKind::LBracket, "`[`")?;
        if self.eat(TokenKind::RBracket) {
            return Ok(Expr::new(ExprKind::List(Vec::new()), span.merge(self.prev_span())));
        }
        let first = self.parse_test_or_starred()?;
        if self.peek() == TokenKind::KwFor || self.peek() == TokenKind::KwAsync {
            let generators = self.parse_comp_clauses()?;
            self.expect(TokenKind::RBracket, "`]`")?;
            return Ok(Expr::new(
                ExprKind::Comp {
                    kind: CompKind::List,
                    element: Box::new(first),
                    value: None,
                    generators,
                },
                span.merge(self.prev_span()),
            ));
        }
        let mut elems = vec![first];
        while self.eat(TokenKind::Comma) {
            if self.peek() == TokenKind::RBracket {
                break;
            }
            elems.push(self.parse_test_or_starred()?);
        }
        self.expect(TokenKind::RBracket, "`]`")?;
        Ok(Expr::new(ExprKind::List(elems), span.merge(self.prev_span())))
    }

    fn parse_brace_atom(&mut self) -> PResult<Expr<'s>> {
        let span = self.span();
        self.expect(TokenKind::LBrace, "`{`")?;
        if self.eat(TokenKind::RBrace) {
            return Ok(Expr::new(
                ExprKind::Dict { keys: Vec::new(), values: Vec::new() },
                span.merge(self.prev_span()),
            ));
        }
        // `**expr` can only start a dict display.
        if self.eat(TokenKind::DoubleStar) {
            let v = self.parse_operators(Prec::Or)?;
            let mut keys = vec![None];
            let mut values = vec![v];
            while self.eat(TokenKind::Comma) {
                if self.peek() == TokenKind::RBrace {
                    break;
                }
                self.parse_dict_entry(&mut keys, &mut values)?;
            }
            self.expect(TokenKind::RBrace, "`}`")?;
            return Ok(Expr::new(
                ExprKind::Dict { keys, values },
                span.merge(self.prev_span()),
            ));
        }
        let first = self.parse_test_or_starred()?;
        if self.eat(TokenKind::Colon) {
            // Dict display or dict comprehension.
            let value = self.parse_test()?;
            if self.peek() == TokenKind::KwFor || self.peek() == TokenKind::KwAsync {
                let generators = self.parse_comp_clauses()?;
                self.expect(TokenKind::RBrace, "`}`")?;
                return Ok(Expr::new(
                    ExprKind::Comp {
                        kind: CompKind::Dict,
                        element: Box::new(first),
                        value: Some(Box::new(value)),
                        generators,
                    },
                    span.merge(self.prev_span()),
                ));
            }
            let mut keys = vec![Some(first)];
            let mut values = vec![value];
            while self.eat(TokenKind::Comma) {
                if self.peek() == TokenKind::RBrace {
                    break;
                }
                self.parse_dict_entry(&mut keys, &mut values)?;
            }
            self.expect(TokenKind::RBrace, "`}`")?;
            return Ok(Expr::new(
                ExprKind::Dict { keys, values },
                span.merge(self.prev_span()),
            ));
        }
        if self.peek() == TokenKind::KwFor || self.peek() == TokenKind::KwAsync {
            let generators = self.parse_comp_clauses()?;
            self.expect(TokenKind::RBrace, "`}`")?;
            return Ok(Expr::new(
                ExprKind::Comp {
                    kind: CompKind::Set,
                    element: Box::new(first),
                    value: None,
                    generators,
                },
                span.merge(self.prev_span()),
            ));
        }
        // Set display.
        let mut elems = vec![first];
        while self.eat(TokenKind::Comma) {
            if self.peek() == TokenKind::RBrace {
                break;
            }
            elems.push(self.parse_test_or_starred()?);
        }
        self.expect(TokenKind::RBrace, "`}`")?;
        Ok(Expr::new(ExprKind::Set(elems), span.merge(self.prev_span())))
    }

    fn parse_dict_entry(
        &mut self,
        keys: &mut Vec<Option<Expr<'s>>>,
        values: &mut Vec<Expr<'s>>,
    ) -> PResult<()> {
        if self.eat(TokenKind::DoubleStar) {
            keys.push(None);
            values.push(self.parse_operators(Prec::Or)?);
            return Ok(());
        }
        let k = self.parse_test()?;
        self.expect(TokenKind::Colon, "`:` in dict entry")?;
        let v = self.parse_test()?;
        keys.push(Some(k));
        values.push(v);
        Ok(())
    }

    /// A run of adjacent string literals, merged into one [`ExprKind::Str`]
    /// or [`ExprKind::FString`]. A run that starts with a plain literal ends
    /// at its first f-string; one that starts with an f-string takes every
    /// literal that follows. Only a run of two or more literals builds its
    /// text; the `{...}` interpolations are parsed per literal, so they
    /// borrow the source.
    fn parse_strings(&mut self, span: Span) -> Expr<'s> {
        let first = self.pos;
        let starts_plain = self.peek() == TokenKind::Str;
        let mut fstring = !starts_plain;
        self.bump();
        while !(starts_plain && fstring) && matches!(self.peek(), TokenKind::Str | TokenKind::FStr) {
            fstring |= self.peek() == TokenKind::FStr;
            self.bump();
        }
        let run = &self.tokens[first..self.pos];
        let text = match run {
            [one] => Cow::Borrowed(one.body()),
            _ => Cow::Owned(run.iter().map(Token::body).collect()),
        };
        if !fstring {
            return Expr::new(ExprKind::Str(text), span);
        }
        let parts = run.iter().flat_map(|t| parse_fstring_parts(t.body())).collect();
        Expr::new(ExprKind::FString { text, parts }, span)
    }
}

/// Extracts and parses the `{...}` interpolation expressions of an f-string
/// body. Malformed interpolations are skipped (the analysis treats the
/// remaining text as opaque).
pub fn parse_fstring_parts(text: &str) -> Vec<Expr<'_>> {
    let bytes = text.as_bytes();
    let mut parts = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'{' if bytes.get(i + 1) == Some(&b'{') => i += 2,
            b'{' => {
                let start = i + 1;
                let mut depth = 1u32;
                let mut j = start;
                let mut quote: Option<u8> = None;
                while j < bytes.len() && depth > 0 {
                    let b = bytes[j];
                    match quote {
                        Some(q) => {
                            if b == q {
                                quote = None;
                            }
                        }
                        None => match b {
                            b'{' | b'[' | b'(' => depth += 1,
                            b'}' | b']' | b')' => depth -= 1,
                            b'\'' | b'"' => quote = Some(b),
                            _ => {}
                        },
                    }
                    if depth > 0 {
                        j += 1;
                    }
                }
                let inner = &text[start..j.min(text.len())];
                // Strip `!r`-style conversions and `:fmt` specs.
                let expr_src = strip_fstring_suffix(inner);
                if !expr_src.trim().is_empty() {
                    if let Ok(e) = parse_expr(expr_src.trim()) {
                        parts.push(e);
                    }
                }
                i = j + 1;
            }
            b'}' if bytes.get(i + 1) == Some(&b'}') => i += 2,
            _ => i += 1,
        }
    }
    parts
}

/// Removes a trailing `!conversion` and/or `:format-spec` from an f-string
/// interpolation body, respecting nesting and string quotes.
fn strip_fstring_suffix(inner: &str) -> &str {
    let bytes = inner.as_bytes();
    let mut depth = 0u32;
    let mut quote: Option<u8> = None;
    for (i, &b) in bytes.iter().enumerate() {
        match quote {
            Some(q) => {
                if b == q {
                    quote = None;
                }
            }
            None => match b {
                b'(' | b'[' | b'{' => depth += 1,
                b')' | b']' | b'}' => depth = depth.saturating_sub(1),
                b'\'' | b'"' => quote = Some(b),
                b':' if depth == 0 => return &inner[..i],
                b'!' if depth == 0
                    && bytes.get(i + 1) != Some(&b'=')
                    && i + 1 < bytes.len() =>
                {
                    return &inner[..i];
                }
                _ => {}
            },
        }
    }
    inner
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(src: &str) -> Module<'_> {
        match parse(src) {
            Ok(m) => m,
            Err(e) => panic!("parse failed for {src:?}: {e}"),
        }
    }

    fn first_stmt(src: &str) -> StmtKind<'_> {
        parse_ok(src).body.into_iter().next().expect("statement").kind
    }

    #[test]
    fn parse_assignment() {
        match first_stmt("x = f(1)\n") {
            StmtKind::Assign { target, chained, value } => {
                assert!(matches!(target.kind, ExprKind::Name("x")));
                assert!(chained.is_empty() && chained.capacity() == 0, "no chain, no allocation");
                assert!(matches!(value.kind, ExprKind::Call { .. }));
            }
            other => panic!("expected assign, got {other:?}"),
        }
    }

    #[test]
    fn parse_chained_assignment() {
        match first_stmt("a = b = c\n") {
            StmtKind::Assign { target, chained, value } => {
                assert!(matches!(target.kind, ExprKind::Name("a")));
                assert!(matches!(chained[..], [Expr { kind: ExprKind::Name("b"), .. }]));
                assert!(matches!(value.kind, ExprKind::Name(n) if n == "c"));
            }
            other => panic!("expected assign, got {other:?}"),
        }
    }

    #[test]
    fn parse_aug_assignment() {
        match first_stmt("x += 1\n") {
            StmtKind::AugAssign { op, .. } => assert_eq!(op, "+"),
            other => panic!("expected augassign, got {other:?}"),
        }
    }

    #[test]
    fn parse_annotated_assignment() {
        match first_stmt("x: int = 3\n") {
            StmtKind::AnnAssign { value, .. } => assert!(value.is_some()),
            other => panic!("expected annassign, got {other:?}"),
        }
    }

    #[test]
    fn parse_function_def() {
        let src = "def f(a, b=1, *args, **kwargs):\n    return a\n";
        match first_stmt(src) {
            StmtKind::FunctionDef(f) => {
                assert_eq!(f.name, "f");
                assert_eq!(f.params.len(), 4);
                assert_eq!(f.params[2].kind, ParamKind::VarArgs);
                assert_eq!(f.params[3].kind, ParamKind::KwArgs);
                assert_eq!(f.body.len(), 1);
            }
            other => panic!("expected def, got {other:?}"),
        }
    }

    #[test]
    fn parse_decorated_function() {
        let src = "@app.route('/x', methods=['POST'])\ndef media():\n    pass\n";
        match first_stmt(src) {
            StmtKind::FunctionDef(f) => {
                assert_eq!(f.decorators.len(), 1);
                assert!(matches!(f.decorators[0].kind, ExprKind::Call { .. }));
            }
            other => panic!("expected def, got {other:?}"),
        }
    }

    #[test]
    fn parse_class_with_base() {
        let src = "class ESCPOSDriver(ThreadDriver):\n    def status(self, eprint):\n        pass\n";
        match first_stmt(src) {
            StmtKind::ClassDef(c) => {
                assert_eq!(c.name, "ESCPOSDriver");
                assert_eq!(c.bases.len(), 1);
                assert_eq!(c.body.len(), 1);
            }
            other => panic!("expected class, got {other:?}"),
        }
    }

    #[test]
    fn parse_imports() {
        match first_stmt("import os.path as p, sys\n") {
            StmtKind::Import(aliases) => {
                assert_eq!(aliases[0].name, "os.path");
                assert_eq!(aliases[0].asname, Some("p"));
                assert_eq!(aliases[1].name, "sys");
            }
            other => panic!("expected import, got {other:?}"),
        }
        match first_stmt("from flask import request, session as s\n") {
            StmtKind::ImportFrom { module, names, level } => {
                assert_eq!(module, "flask");
                assert_eq!(names.len(), 2);
                assert_eq!(level, 0);
            }
            other => panic!("expected from-import, got {other:?}"),
        }
        match first_stmt("from ..pkg import thing\n") {
            StmtKind::ImportFrom { level, .. } => assert_eq!(level, 2),
            other => panic!("expected from-import, got {other:?}"),
        }
        assert!(matches!(
            first_stmt("from mod import *\n"),
            StmtKind::ImportFrom { .. }
        ));
    }

    #[test]
    fn parse_if_elif_else() {
        let src = "if a:\n    x\nelif b:\n    y\nelse:\n    z\n";
        match first_stmt(src) {
            StmtKind::If { orelse, .. } => {
                assert_eq!(orelse.len(), 1);
                match &orelse[0].kind {
                    StmtKind::If { orelse: inner_else, .. } => {
                        assert_eq!(inner_else.len(), 1);
                    }
                    other => panic!("expected nested if, got {other:?}"),
                }
            }
            other => panic!("expected if, got {other:?}"),
        }
    }

    #[test]
    fn parse_for_while_with_try() {
        let src = "for i, v in enumerate(xs):\n    pass\n";
        assert!(matches!(first_stmt(src), StmtKind::For { .. }));
        assert!(matches!(first_stmt("while x:\n    pass\n"), StmtKind::While { .. }));
        let src = "with open(p) as f, lock:\n    pass\n";
        match first_stmt(src) {
            StmtKind::With { items, .. } => {
                assert_eq!(items.len(), 2);
                assert!(items[0].target.is_some());
                assert!(items[1].target.is_none());
            }
            other => panic!("expected with, got {other:?}"),
        }
        let src = "try:\n    x\nexcept ValueError as e:\n    y\nfinally:\n    z\n";
        match first_stmt(src) {
            StmtKind::Try { handlers, finalbody, .. } => {
                assert_eq!(handlers.len(), 1);
                assert_eq!(handlers[0].name, Some("e"));
                assert_eq!(finalbody.len(), 1);
            }
            other => panic!("expected try, got {other:?}"),
        }
    }

    #[test]
    fn try_requires_handler_or_finally() {
        assert!(parse("try:\n    x\n").is_err());
    }

    /// The grouping of an operator expression, spans ignored: every
    /// operator node is one parenthesized group.
    fn grouping(e: &Expr<'_>) -> String {
        match &e.kind {
            ExprKind::Name(n) | ExprKind::Number(n) => n.to_string(),
            ExprKind::BinOp { left, op, right } => {
                format!("({} {op} {})", grouping(left), grouping(right))
            }
            ExprKind::BoolOp { op, values } => {
                let parts: Vec<String> = values.iter().map(grouping).collect();
                format!("({})", parts.join(&format!(" {op} ")))
            }
            ExprKind::Compare { left, ops, comparators } => {
                let mut s = format!("({}", grouping(left));
                for (op, c) in ops.iter().zip(comparators) {
                    s.push_str(&format!(" {op} {}", grouping(c)));
                }
                s + ")"
            }
            ExprKind::UnaryOp { op, operand } => format!("({op} {})", grouping(operand)),
            ExprKind::Await(inner) => format!("(await {})", grouping(inner)),
            other => panic!("not an operator expression: {other:?}"),
        }
    }

    /// Python's infix operators, loosest level first, as the language
    /// reference's precedence table lists them, with how each level
    /// groups a run of its own operators.
    const PYTHON_PRECEDENCE: &[(&str, &[&str])] = &[
        ("flat", &["or"]),
        ("flat", &["and"]),
        ("chain", &["in", "not in", "is", "is not", "<", "<=", ">", ">=", "!=", "=="]),
        ("left", &["|"]),
        ("left", &["^"]),
        ("left", &["&"]),
        ("left", &["<<", ">>"]),
        ("left", &["+", "-"]),
        ("left", &["*", "@", "/", "//", "%"]),
        ("right", &["**"]),
    ];

    #[test]
    fn parse_expression_precedence() {
        let level = |op: &str| PYTHON_PRECEDENCE.iter().position(|l| l.1.contains(&op)).unwrap();
        let ops: Vec<&str> = PYTHON_PRECEDENCE.iter().flat_map(|l| l.1.iter().copied()).collect();
        assert_eq!(ops.len(), 25, "13 binary, `and`, `or` and 10 comparison operators");
        for &x in &ops {
            for &y in &ops {
                let (lx, ly) = (level(x), level(y));
                let grouping_kind = match lx.cmp(&ly) {
                    std::cmp::Ordering::Greater => "left",
                    std::cmp::Ordering::Less => "right",
                    std::cmp::Ordering::Equal => PYTHON_PRECEDENCE[lx].0,
                };
                let expected = match grouping_kind {
                    "left" => format!("((a {x} b) {y} c)"),
                    "right" => format!("(a {x} (b {y} c))"),
                    _ => format!("(a {x} b {y} c)"),
                };
                let src = format!("a {x} b {y} c");
                let got = grouping(&parse_expr(&src).unwrap());
                assert_eq!(got, expected, "grouping of `{src}`");
            }
        }
        for (src, expected) in [
            ("1 + 2 * 3", "(1 + (2 * 3))"),
            ("2 ** 3 ** 4", "(2 ** (3 ** 4))"),
            ("-a ** b", "(- (a ** b))"),
            ("a ** -b", "(a ** (- b))"),
            ("~a ** b", "(~ (a ** b))"),
            ("not a == b", "(not (a == b))"),
            ("not a and b", "((not a) and b)"),
            ("await a ** b", "((await a) ** b)"),
            ("-await a", "(- (await a))"),
        ] {
            assert_eq!(grouping(&parse_expr(src).unwrap()), expected, "grouping of `{src}`");
        }
    }

    #[test]
    fn parse_comparison_chain() {
        match parse_expr("a < b <= c").unwrap().kind {
            ExprKind::Compare { ops, comparators, .. } => {
                assert_eq!(ops, vec!["<", "<="]);
                assert_eq!(comparators.len(), 2);
            }
            other => panic!("expected compare, got {other:?}"),
        }
        match parse_expr("x not in ys").unwrap().kind {
            ExprKind::Compare { ops, .. } => assert_eq!(ops, vec!["not in"]),
            other => panic!("expected compare, got {other:?}"),
        }
        match parse_expr("x is not None").unwrap().kind {
            ExprKind::Compare { ops, .. } => assert_eq!(ops, vec!["is not"]),
            other => panic!("expected compare, got {other:?}"),
        }
    }

    #[test]
    fn parse_bool_chain_flattens() {
        match parse_expr("a and b and c").unwrap().kind {
            ExprKind::BoolOp { op, values } => {
                assert_eq!(op, "and");
                assert_eq!(values.len(), 3);
            }
            other => panic!("expected boolop, got {other:?}"),
        }
    }

    #[test]
    fn parse_call_forms() {
        match parse_expr("f(a, b=1, *rest, **kw)").unwrap().kind {
            ExprKind::Call { args, keywords, .. } => {
                assert_eq!(args.len(), 2); // a and *rest
                assert!(matches!(args[1].kind, ExprKind::Starred(_)));
                assert_eq!(keywords.len(), 2);
                assert_eq!(keywords[0].name, Some("b"));
                assert_eq!(keywords[1].name, None);
            }
            other => panic!("expected call, got {other:?}"),
        }
    }

    #[test]
    fn parse_method_chain() {
        let e = parse_expr("request.files['f'].save(path)").unwrap();
        match e.kind {
            ExprKind::Call { func, args, .. } => {
                assert_eq!(args.len(), 1);
                match func.kind {
                    ExprKind::Attribute { value, attr } => {
                        assert_eq!(attr, "save");
                        assert!(matches!(value.kind, ExprKind::Subscript { .. }));
                    }
                    other => panic!("expected attribute, got {other:?}"),
                }
            }
            other => panic!("expected call, got {other:?}"),
        }
    }

    #[test]
    fn parse_subscript_slices() {
        assert!(matches!(
            parse_expr("xs[1:2]").unwrap().kind,
            ExprKind::Subscript { ref index, .. } if matches!(index.kind, ExprKind::Slice { .. })
        ));
        assert!(matches!(
            parse_expr("xs[:]").unwrap().kind,
            ExprKind::Subscript { ref index, .. } if matches!(index.kind, ExprKind::Slice { .. })
        ));
        assert!(matches!(
            parse_expr("xs[::2]").unwrap().kind,
            ExprKind::Subscript { ref index, .. } if matches!(index.kind, ExprKind::Slice { .. })
        ));
        assert!(matches!(
            parse_expr("m[a, b]").unwrap().kind,
            ExprKind::Subscript { ref index, .. } if matches!(index.kind, ExprKind::Tuple(_))
        ));
    }

    #[test]
    fn parse_displays() {
        assert!(matches!(parse_expr("[1, 2]").unwrap().kind, ExprKind::List(v) if v.len() == 2));
        assert!(matches!(parse_expr("{1, 2}").unwrap().kind, ExprKind::Set(v) if v.len() == 2));
        assert!(matches!(parse_expr("()").unwrap().kind, ExprKind::Tuple(v) if v.is_empty()));
        assert!(matches!(parse_expr("(1,)").unwrap().kind, ExprKind::Tuple(v) if v.len() == 1));
        match parse_expr("{'a': 1, **rest}").unwrap().kind {
            ExprKind::Dict { keys, values } => {
                assert_eq!(keys.len(), 2);
                assert!(keys[0].is_some());
                assert!(keys[1].is_none());
                assert_eq!(values.len(), 2);
            }
            other => panic!("expected dict, got {other:?}"),
        }
    }

    #[test]
    fn parse_comprehensions() {
        match parse_expr("[x for x in xs if x]").unwrap().kind {
            ExprKind::Comp { kind, generators, .. } => {
                assert_eq!(kind, CompKind::List);
                assert_eq!(generators.len(), 1);
                assert_eq!(generators[0].ifs.len(), 1);
            }
            other => panic!("expected comp, got {other:?}"),
        }
        assert!(matches!(
            parse_expr("{k: v for k, v in items}").unwrap().kind,
            ExprKind::Comp { kind: CompKind::Dict, .. }
        ));
        assert!(matches!(
            parse_expr("{x for x in xs}").unwrap().kind,
            ExprKind::Comp { kind: CompKind::Set, .. }
        ));
        assert!(matches!(
            parse_expr("(x for x in xs)").unwrap().kind,
            ExprKind::Comp { kind: CompKind::Generator, .. }
        ));
        assert!(matches!(
            parse_expr("sum(x*x for x in xs)").unwrap().kind,
            ExprKind::Call { .. }
        ));
    }

    #[test]
    fn parse_lambda_and_ternary() {
        assert!(matches!(
            parse_expr("lambda a, b=2: a + b").unwrap().kind,
            ExprKind::Lambda { ref params, .. } if params.len() == 2
        ));
        assert!(matches!(parse_expr("a if c else b").unwrap().kind, ExprKind::IfExp { .. }));
    }

    #[test]
    fn parse_fstring_interpolations() {
        match parse_expr("f'<div>{msg}</div>'").unwrap().kind {
            ExprKind::FString { parts, .. } => {
                assert_eq!(parts.len(), 1);
                assert!(matches!(parts[0].kind, ExprKind::Name(n) if n == "msg"));
            }
            other => panic!("expected fstring, got {other:?}"),
        }
        match parse_expr("f'{a}{b.c(1)}'").unwrap().kind {
            ExprKind::FString { parts, .. } => assert_eq!(parts.len(), 2),
            other => panic!("expected fstring, got {other:?}"),
        }
        // Format spec and conversion are stripped.
        match parse_expr("f'{x:>10} {y!r}'").unwrap().kind {
            ExprKind::FString { parts, .. } => {
                assert_eq!(parts.len(), 2);
                assert!(matches!(parts[0].kind, ExprKind::Name(n) if n == "x"));
                assert!(matches!(parts[1].kind, ExprKind::Name(n) if n == "y"));
            }
            other => panic!("expected fstring, got {other:?}"),
        }
        // Escaped braces produce no parts.
        match parse_expr("f'{{literal}}'").unwrap().kind {
            ExprKind::FString { parts, .. } => assert!(parts.is_empty()),
            other => panic!("expected fstring, got {other:?}"),
        }
    }

    #[test]
    fn implicit_string_concat() {
        assert!(matches!(
            parse_expr("'a' 'b'").unwrap().kind,
            ExprKind::Str(ref s) if s == "ab"
        ));
    }

    #[test]
    fn parse_paper_example() {
        // The Fig. 2 snippet from the paper.
        let src = r#"
from yak.web import app
from flask import request
from werkzeug import secure_filename
import os

blog_dir = app.config['PATH']

@app.route('/media/', methods=['POST'])
def media():
    filename = request.files['f'].filename
    filename = secure_filename(filename)
    path = os.path.join(blog_dir, filename)
    if not os.path.exists(path):
        request.files['f'].save(path)
"#;
        let m = parse_ok(src);
        assert_eq!(m.body.len(), 6);
        assert!(matches!(m.body[5].kind, StmtKind::FunctionDef(_)));
    }

    #[test]
    fn parse_walrus() {
        assert!(matches!(
            first_stmt("if (n := f()) > 0:\n    pass\n"),
            StmtKind::If { .. }
        ));
    }

    #[test]
    fn parse_yield_and_await() {
        let src = "def g():\n    yield 1\n    yield from xs\n";
        assert!(parse(src).is_ok());
        let src = "async def h():\n    await f()\n";
        match first_stmt(src) {
            StmtKind::FunctionDef(f) => assert!(f.is_async),
            other => panic!("expected def, got {other:?}"),
        }
    }

    #[test]
    fn parse_semicolon_statements() {
        let m = parse_ok("a = 1; b = 2; c = 3\n");
        assert_eq!(m.body.len(), 3);
    }

    #[test]
    fn parse_inline_suite() {
        match first_stmt("if x: a = 1; b = 2\n") {
            StmtKind::If { body, .. } => assert_eq!(body.len(), 2),
            other => panic!("expected if, got {other:?}"),
        }
    }

    #[test]
    fn parse_global_nonlocal_assert_del() {
        assert!(matches!(first_stmt("global a, b\n"), StmtKind::Global(v) if v.len() == 2));
        assert!(matches!(first_stmt("nonlocal x\n"), StmtKind::Nonlocal(_)));
        assert!(matches!(first_stmt("assert x, 'msg'\n"), StmtKind::Assert { msg: Some(_), .. }));
        assert!(matches!(first_stmt("del xs[0], y\n"), StmtKind::Delete(v) if v.len() == 2));
    }

    #[test]
    fn parse_raise_from() {
        assert!(matches!(
            first_stmt("raise ValueError('x') from err\n"),
            StmtKind::Raise { exc: Some(_), cause: Some(_) }
        ));
        assert!(matches!(first_stmt("raise\n"), StmtKind::Raise { exc: None, cause: None }));
    }

    #[test]
    fn parse_star_assignment() {
        match first_stmt("a, *rest = xs\n") {
            StmtKind::Assign { target, .. } => {
                assert!(matches!(target.kind, ExprKind::Tuple(_)));
            }
            other => panic!("expected assign, got {other:?}"),
        }
    }

    #[test]
    fn error_reports_position() {
        let err = parse("def f(:\n    pass\n").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("expected"), "got: {msg}");
    }

    #[test]
    fn pathological_nesting_errors_instead_of_overflowing() {
        // Run on an explicit 2 MiB stack, the default for spawned threads:
        // the depth guard must keep every chain inside it.
        let run = || {
            let nested = |open: &str, close: &str, n: usize| {
                format!("x = {}1{}\n", open.repeat(n), close.repeat(n))
            };
            assert!(parse(&nested("(", ")", 10_000)).is_err(), "depth guard must trip");
            assert!(parse(&nested("-", "", 10_000)).is_err());
            for prefix in ["not ", "await "] {
                let chain = nested(prefix, "", 100_000);
                assert!(parse(&chain).is_err(), "{prefix:?} chain");
                assert!(!parse_lenient(&chain).1.is_empty(), "{prefix:?} chain, lenient");
            }
            // Pinned bounds: a bracket costs two levels of the guard, every
            // other construct one.
            for (open, close, max) in [
                ("(", ")", 49),
                ("[", "]", 49),
                ("f(", ")", 49),
                ("-", "", 99),
                ("", " ** 1", 99),
                ("", " if 1 else 1", 99),
                ("lambda: ", "", 99),
                ("not ", "", 99),
                ("await ", "", 99),
            ] {
                assert!(parse(&nested(open, close, max)).is_ok(), "{max} x {open:?}{close:?}");
                let over = max + 1;
                assert!(parse(&nested(open, close, over)).is_err(), "{over} x {open:?}{close:?}");
            }
        };
        std::thread::Builder::new().stack_size(2 << 20).spawn(run).unwrap().join().unwrap();
    }

    #[test]
    fn crlf_line_endings() {
        let src = "x = 1\r\nif x:\r\n    y = 2\r\n";
        let m = parse(src).expect("CRLF parses");
        assert_eq!(m.body.len(), 2);
    }

    #[test]
    fn python2_print_statement() {
        match first_stmt("print 'hello', x\n") {
            StmtKind::Expr(e) => match e.kind {
                ExprKind::Call { func, args, .. } => {
                    assert!(matches!(func.kind, ExprKind::Name(n) if n == "print"));
                    assert_eq!(args.len(), 2);
                }
                other => panic!("expected call, got {other:?}"),
            },
            other => panic!("expected expr stmt, got {other:?}"),
        }
        // `print >> sys.stderr, msg`
        assert!(parse("import sys\nprint >> sys.stderr, msg\n").is_ok());
        // Bare `print` and py3 call form still work.
        assert!(parse("print\n").is_ok());
        assert!(parse("print(x)\n").is_ok());
        // `print` as a name (assignment) still works.
        assert!(parse("print = 1\n").is_ok());
    }

    #[test]
    fn python2_except_comma() {
        let src = "try:\n    x\nexcept ValueError, e:\n    y\n";
        match first_stmt(src) {
            StmtKind::Try { handlers, .. } => {
                assert_eq!(handlers[0].name, Some("e"));
            }
            other => panic!("expected try, got {other:?}"),
        }
    }

    #[test]
    fn lenient_recovers_per_statement() {
        let src = "x = 1\ny = ((broken\nz = 3\n";
        let (m, errors) = parse_lenient(src);
        // The malformed middle line is dropped; only one error reported.
        // (The unterminated paren swallows the rest of the logical line.)
        assert!(!errors.is_empty());
        assert!(!m.body.is_empty(), "recovered statements: {}", m.body.len());
        assert!(matches!(m.body[0].kind, StmtKind::Assign { .. }));
    }

    #[test]
    fn lenient_recovers_inside_suites() {
        let src = "def f():\n    x = )bad\n    y = 2\ndef g():\n    return 1\n";
        let (m, errors) = parse_lenient(src);
        assert_eq!(errors.len(), 1, "{errors:?}");
        // g survives even though a statement inside f was malformed.
        assert!(m
            .body
            .iter()
            .any(|s| matches!(&s.kind, StmtKind::FunctionDef(d) if d.name == "g")));
    }

    #[test]
    fn lenient_on_clean_source_matches_strict() {
        let src = "a = 1\nif a:\n    b = 2\n";
        let (m, errors) = parse_lenient(src);
        assert!(errors.is_empty());
        assert_eq!(m.body.len(), 2);
        assert_eq!(m, parse(src).unwrap());
    }

    #[test]
    fn stray_top_level_indent_is_reported_only_as_the_first_error() {
        let (m, errors) = parse_lenient("x = 1\n  y = 2\nz = 3\n");
        let message = "expected expression but found indent at 2:1";
        assert_eq!(errors.iter().map(ToString::to_string).collect::<Vec<_>>(), [message]);
        assert_eq!(m.body.len(), 3, "the indented statement is kept");
        // Behind an earlier error the indent is skipped silently.
        let (m, errors) = parse_lenient("x = = 1\n  y = 2\n");
        assert_eq!(errors.len(), 1);
        assert_eq!(m.body.len(), 1);
    }

    #[test]
    fn lenient_lex_error_reports_and_returns_empty() {
        let (m, errors) = parse_lenient("'unterminated\n");
        assert!(m.body.is_empty());
        assert_eq!(errors.len(), 1);
    }

    #[test]
    fn keyword_only_params() {
        let src = "def f(a, *, b=1):\n    pass\n";
        match first_stmt(src) {
            StmtKind::FunctionDef(f) => {
                assert_eq!(f.params.len(), 3);
                assert_eq!(f.params[1].kind, ParamKind::KwOnlyMarker);
            }
            other => panic!("expected def, got {other:?}"),
        }
    }

    #[test]
    fn positional_only_marker_skipped() {
        let src = "def f(a, /, b):\n    pass\n";
        match first_stmt(src) {
            StmtKind::FunctionDef(f) => assert_eq!(f.params.len(), 2),
            other => panic!("expected def, got {other:?}"),
        }
    }

    #[test]
    fn bump_returns_tokens_and_stays_on_end_of_file() {
        let mut p = Parser::new("name\n", lexer::lex("name\n").unwrap());
        let span = p.span();
        let name = p.bump();
        assert_eq!((name.kind, name.text, name.span()), (TokenKind::Name, "name", span));
        assert_eq!(p.prev_span(), span);
        // The cursor stays on the end of file, however often it is bumped.
        while p.peek() != TokenKind::EndOfFile {
            p.bump();
        }
        assert_eq!(p.bump().kind, TokenKind::EndOfFile);
        assert_eq!(p.peek(), TokenKind::EndOfFile);
    }

    #[test]
    fn return_annotation() {
        let src = "def f(x) -> int:\n    return x\n";
        match first_stmt(src) {
            StmtKind::FunctionDef(f) => assert!(f.returns.is_some()),
            other => panic!("expected def, got {other:?}"),
        }
    }
}
