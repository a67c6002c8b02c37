//! The zero-copy contract of the Python front end: every token is a slice
//! of the source, and every name, attribute, import path, parameter and
//! literal of the AST borrows the source too, except the text the parser
//! builds (a `Cow::Owned` merge of adjacent string literals). Checked by
//! address over every snippet and fixture of `tests/golden_frontend.rs`
//! and over a generated corpus.

use seldon_corpus::{generate_corpus, CorpusOptions, Lang, Universe};
use seldon_pyast::ast::*;
use seldon_pyast::lexer::lex;
use seldon_pyast::token::Token;
use std::borrow::Cow;

/// Every Python source the IR goldens pin, plus the generated files.
fn sources() -> Vec<String> {
    let golden = include_str!("../../../tests/golden_frontend.rs");
    let mut out: Vec<String> = golden
        .split("r#\"")
        .skip(1)
        .map(|s| s[..s.find("\"#").expect("raw string ends")].to_string())
        .collect();
    out.push(include_str!("../../../tests/fixtures/py_inlining_guards.py").to_string());
    out.push(include_str!("../../../tests/fixtures/py_locals_template_context.py").to_string());
    let corpus = generate_corpus(
        &Universe::new(),
        &CorpusOptions { projects: 30, rng_seed: 1234, lang: Lang::Py, ..Default::default() },
    );
    out.extend(corpus.files().map(|(_, f)| f.content.clone()));
    out
}

/// Asserts that `text` lies inside `src`.
fn assert_borrowed(src: &str, text: &str, what: &str) {
    let (lo, hi) = (src.as_ptr() as usize, src.as_ptr() as usize + src.len());
    let (at, end) = (text.as_ptr() as usize, text.as_ptr() as usize + text.len());
    assert!(lo <= at && end <= hi, "{what} `{text}` does not point into the source");
}

/// Visits every text of the AST, with whether the parser built it.
struct Texts<'v, 's> {
    f: &'v mut dyn FnMut(&'s str, bool),
}

impl<'s> Texts<'_, 's> {
    fn text(&mut self, t: &'s str) {
        (self.f)(t, false);
    }

    fn body(&mut self, body: &'s [Stmt<'s>]) {
        body.iter().for_each(|s| self.stmt(s));
    }

    fn exprs(&mut self, exprs: impl IntoIterator<Item = &'s Expr<'s>>) {
        exprs.into_iter().for_each(|e| self.expr(e));
    }

    fn params(&mut self, params: &'s [Param<'s>]) {
        for p in params {
            self.text(p.name);
            self.exprs(p.annotation.iter().chain(&p.default));
        }
    }

    fn keywords(&mut self, keywords: &'s [Keyword<'s>]) {
        for k in keywords {
            k.name.into_iter().for_each(|n| self.text(n));
            self.expr(&k.value);
        }
    }

    fn aliases(&mut self, aliases: &'s [ImportAlias<'s>]) {
        for a in aliases {
            self.text(a.name);
            a.asname.into_iter().for_each(|n| self.text(n));
        }
    }

    fn stmt(&mut self, s: &'s Stmt<'s>) {
        match &s.kind {
            StmtKind::Import(aliases) => self.aliases(aliases),
            StmtKind::ImportFrom { module, names, .. } => {
                self.text(module);
                self.aliases(names);
            }
            StmtKind::FunctionDef(def) => {
                self.text(def.name);
                self.params(&def.params);
                self.exprs(def.decorators.iter().chain(&def.returns));
                self.body(&def.body);
            }
            StmtKind::ClassDef(def) => {
                self.text(def.name);
                self.exprs(def.bases.iter().chain(&def.decorators));
                self.keywords(&def.keywords);
                self.body(&def.body);
            }
            StmtKind::Return(e) => self.exprs(e),
            StmtKind::Delete(es) => self.exprs(es),
            StmtKind::Assign { target, chained, value } => {
                self.exprs([target].into_iter().chain(chained).chain([value]))
            }
            StmtKind::AugAssign { target, value, .. } => self.exprs([target, value]),
            StmtKind::AnnAssign { target, annotation, value } => {
                self.exprs([target, annotation].into_iter().chain(value))
            }
            StmtKind::For { target, iter, body, orelse } => {
                self.exprs([target, iter]);
                self.body(body);
                self.body(orelse);
            }
            StmtKind::While { test, body, orelse } | StmtKind::If { test, body, orelse } => {
                self.expr(test);
                self.body(body);
                self.body(orelse);
            }
            StmtKind::With { items, body } => {
                for i in items {
                    self.exprs([&i.context].into_iter().chain(&i.target));
                }
                self.body(body);
            }
            StmtKind::Raise { exc, cause } => self.exprs(exc.iter().chain(cause)),
            StmtKind::Try { body, handlers, orelse, finalbody } => {
                self.body(body);
                for h in handlers {
                    self.exprs(&h.typ);
                    h.name.into_iter().for_each(|n| self.text(n));
                    self.body(&h.body);
                }
                self.body(orelse);
                self.body(finalbody);
            }
            StmtKind::Assert { test, msg } => self.exprs([test].into_iter().chain(msg)),
            StmtKind::Global(names) | StmtKind::Nonlocal(names) => {
                names.iter().for_each(|n| self.text(n))
            }
            StmtKind::Expr(e) => self.expr(e),
            StmtKind::Pass | StmtKind::Break | StmtKind::Continue => {}
        }
    }

    fn expr(&mut self, e: &'s Expr<'s>) {
        match &e.kind {
            ExprKind::Name(t) | ExprKind::Number(t) | ExprKind::Bytes(t) => self.text(t),
            ExprKind::Str(t) => (self.f)(t, matches!(t, Cow::Owned(_))),
            ExprKind::FString { text, parts } => {
                (self.f)(text, matches!(text, Cow::Owned(_)));
                self.exprs(parts);
            }
            ExprKind::Bool(_) | ExprKind::NoneLit | ExprKind::EllipsisLit => {}
            ExprKind::Attribute { value, attr } => {
                self.expr(value);
                self.text(attr);
            }
            ExprKind::Subscript { value, index } => self.exprs([&**value, index]),
            ExprKind::Slice { lower, upper, step } => {
                self.exprs([lower, upper, step].into_iter().flatten().map(|b| &**b))
            }
            ExprKind::Call { func, args, keywords } => {
                self.expr(func);
                self.exprs(args);
                self.keywords(keywords);
            }
            ExprKind::BinOp { left, right, .. } => self.exprs([&**left, right]),
            ExprKind::UnaryOp { operand, .. } => self.expr(operand),
            ExprKind::BoolOp { values, .. } => self.exprs(values),
            ExprKind::Compare { left, comparators, .. } => {
                self.exprs(std::iter::once(&**left).chain(comparators))
            }
            ExprKind::IfExp { test, body, orelse } => self.exprs([&**test, body, orelse]),
            ExprKind::Lambda { params, body } => {
                self.params(params);
                self.expr(body);
            }
            ExprKind::Tuple(es) | ExprKind::List(es) | ExprKind::Set(es) => self.exprs(es),
            ExprKind::Dict { keys, values } => self.exprs(keys.iter().flatten().chain(values)),
            ExprKind::Comp { element, value, generators, .. } => {
                self.exprs(std::iter::once(&**element).chain(value.as_deref()));
                for g in generators {
                    self.exprs([&g.target, &g.iter].into_iter().chain(&g.ifs));
                }
            }
            ExprKind::Yield { value, .. } => self.exprs(value.as_deref()),
            ExprKind::Await(inner) | ExprKind::Starred(inner) => self.expr(inner),
            ExprKind::NamedExpr { target, value } => self.exprs([&**target, value]),
        }
    }
}

#[test]
fn tokens_and_ast_borrow_the_source() {
    assert!(std::mem::size_of::<Token<'_>>() <= 32, "a token is four words");
    let (mut texts, mut built) = (0usize, 0usize);
    for src in sources() {
        for t in lex(&src).expect("every source lexes") {
            assert_borrowed(&src, t.text, "token");
        }
        let module = match seldon_pyast::parse(&src) {
            Ok(m) => m,
            Err(_) => seldon_pyast::parse_lenient(&src).0,
        };
        let mut check = |text: &str, owned: bool| {
            if owned {
                built += 1;
            } else {
                assert_borrowed(&src, text, "AST text");
                texts += 1;
            }
        };
        Texts { f: &mut check }.body(&module.body);
    }
    assert!(texts > 5_000, "only {texts} texts checked");
    assert!(built < texts / 100, "{built} built texts of {texts}");
}
