//! The zero-copy contract of the JS-like front end: every token is a slice
//! of the source, and every name, property, import path, parameter and
//! literal of the AST borrows the source too, except the strings whose
//! escapes the parser decoded (a `Cow::Owned`). Checked by address over
//! the JS fixtures of `tests/golden_frontend.rs` and a generated corpus.

use seldon_corpus::{generate_corpus, CorpusOptions, Lang, Universe};
use seldon_jsfront::ast::*;
use seldon_jsfront::lexer::{lex, Token};
use std::borrow::Cow;

/// Every JS source the IR goldens pin, plus the generated files.
fn sources() -> Vec<String> {
    let mut out = vec![
        include_str!("../../../tests/fixtures/js_express_fixture.js").to_string(),
        include_str!("../../../tests/fixtures/js_inlining_guards.js").to_string(),
        // One string that needs decoding, so the built case is exercised.
        "const s = 'a\\'b';\nf({ 'k\\n': s });\n".to_string(),
    ];
    let corpus = generate_corpus(
        &Universe::new(),
        &CorpusOptions { projects: 30, rng_seed: 1234, lang: Lang::Js, ..Default::default() },
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

/// Calls `f` with every text of `body`, and whether the parser built it.
fn stmts<'s>(body: &'s [Stmt<'s>], f: &mut dyn FnMut(&'s str, bool)) {
    for s in body {
        match &s.kind {
            StmtKind::Import { bindings, module } => {
                f(module, matches!(module, Cow::Owned(_)));
                for b in bindings {
                    match *b {
                        ImportBinding::Default(n) | ImportBinding::Namespace(n) => f(n, false),
                        ImportBinding::Named { exported, local } => {
                            f(exported, false);
                            f(local, false);
                        }
                    }
                }
            }
            StmtKind::Func(def) => {
                f(def.name, false);
                def.params.iter().for_each(|&(p, _)| f(p, false));
                stmts(&def.body, f);
            }
            StmtKind::VarDecl { name, pattern, init } => {
                name.iter().for_each(|n| f(n, false));
                for &(prop, local) in pattern {
                    f(prop, false);
                    f(local, false);
                }
                init.iter().for_each(|e| expr(e, f));
            }
            StmtKind::Assign { target, value } => {
                expr(target, f);
                expr(value, f);
            }
            StmtKind::Return(e) => e.iter().for_each(|e| expr(e, f)),
            StmtKind::If { test, cons, alt } => {
                expr(test, f);
                stmts(cons, f);
                stmts(alt, f);
            }
            StmtKind::Expr(e) => expr(e, f),
        }
    }
}

fn expr<'s>(e: &'s Expr<'s>, f: &mut dyn FnMut(&'s str, bool)) {
    match &e.kind {
        ExprKind::Ident(t) | ExprKind::Num(t) => f(t, false),
        ExprKind::Str(t) => f(t, matches!(t, Cow::Owned(_))),
        ExprKind::Bool(_) | ExprKind::Null => {}
        ExprKind::Member { obj, prop } => {
            expr(obj, f);
            f(prop, false);
        }
        ExprKind::Index { obj: a, index: b } | ExprKind::Binary { left: a, right: b } => {
            expr(a, f);
            expr(b, f);
        }
        ExprKind::Call { callee, args } => {
            expr(callee, f);
            args.iter().for_each(|a| expr(a, f));
        }
        ExprKind::Object(props) => {
            for (key, value) in props {
                f(key, matches!(key, Cow::Owned(_)));
                expr(value, f);
            }
        }
        ExprKind::Array(elems) => elems.iter().for_each(|x| expr(x, f)),
        ExprKind::Unary(inner) => expr(inner, f),
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
        let program = match seldon_jsfront::parse(&src) {
            Ok(p) => p,
            Err(_) => seldon_jsfront::parse_lenient(&src).0,
        };
        stmts(&program.body, &mut |text, owned| {
            if owned {
                built += 1;
            } else {
                assert_borrowed(&src, text, "AST text");
                texts += 1;
            }
        });
    }
    assert!(texts > 5_000, "only {texts} texts checked");
    assert_eq!(built, 2, "only the two escaped strings are built");
}
