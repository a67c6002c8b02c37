//! Golden tests: realistic Python snippets (the kinds of code the paper's
//! GitHub corpus contains) must parse, round-trip through the unparser,
//! build propagation graphs, and yield the expected representations.
//!
//! The IR goldens under `tests/golden/ir/` pin the lowering contract of
//! DESIGN.md §3g byte for byte: the `IrProgram::dump()` of every snippet
//! here, of a JS fixture, of one inlining-guard fixture per language, and
//! of generated corpus files whose handler inlines a local helper. The sources under `tests/fixtures/` are shared
//! with the CLI's `ir-dump` tests. Re-bless them deliberately, only when the
//! analysis is meant to change, with
//! `cargo test -p seldon-core --test golden_frontend -- --ignored bless`.

use seldon_core::Frontend;
use seldon_corpus::{generate_corpus, CorpusOptions, Lang, Universe};
use seldon_ir::IrProgram;
use seldon_propgraph::{build_source, Budget, FileId, Recorder};
use seldon_pyast::{parse, unparse};
use std::path::PathBuf;

/// Each case: a realistic snippet and the representations its graph must
/// contain.
const GOLDEN: &[(&str, &str, &[&str])] = &[
    (
        "flask_login_view",
        r#"
from flask import request, session, redirect, url_for
import flask

@app.route('/login', methods=['GET', 'POST'])
def login():
    if request.method == 'POST':
        session['username'] = request.form['username']
        return redirect(url_for('index'))
    return flask.render_template_string('<form>...</form>')
"#,
        &["flask.request.form['username']", "flask.redirect()", "flask.render_template_string()"],
    ),
    (
        "django_orm_view",
        r#"
from django.shortcuts import render, get_object_or_404
from myapp.models import Post

def detail(request, post_id):
    post = get_object_or_404(Post, pk=post_id)
    comments = post.comments.filter(active=True)
    return render(request, 'detail.html', {'post': post, 'comments': comments})
"#,
        &["django.shortcuts.get_object_or_404()", "django.shortcuts.render()"],
    ),
    (
        "db_cursor_usage",
        r#"
import sqlite3

def lookup(user_id):
    conn = sqlite3.connect('app.db')
    cur = conn.cursor()
    cur.execute("SELECT * FROM users WHERE id = ?", (user_id,))
    rows = cur.fetchall()
    conn.close()
    return rows
"#,
        &["sqlite3.connect()", "sqlite3.connect().cursor()", "sqlite3.connect().cursor().execute()"],
    ),
    (
        "class_based_handler",
        r#"
from rest_framework.views import APIView
from rest_framework.response import Response

class UserList(APIView):
    def get(self, request, format=None):
        names = [u.username for u in self.queryset()]
        return Response(names)
"#,
        &["UserList::get(param request)", "rest_framework.response.Response()"],
    ),
    (
        "context_managers_and_exceptions",
        r#"
import json

def load_config(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (IOError, ValueError) as e:
        return {}
    finally:
        audit('config-read')
"#,
        &["open()", "json.load()", "audit()"],
    ),
    (
        "decorators_and_defaults",
        r#"
from functools import wraps

def cached(ttl=300):
    def wrapper(fn):
        @wraps(fn)
        def inner(*args, **kwargs):
            return fn(*args, **kwargs)
        return inner
    return wrapper
"#,
        &["cached(param ttl)", "wrapper(param fn)"],
    ),
    (
        "py2_idioms",
        r#"
import sys

def main():
    try:
        count = int(sys.argv[1])
    except IndexError, e:
        print 'usage: prog count'
        return 1
    print >> sys.stderr, 'running', count
    return 0
"#,
        &["int()"],
    ),
    (
        "comprehensions_and_fstrings",
        r#"
from flask import request

def summary():
    fields = {k: v for k, v in request.args.items() if k != 'token'}
    parts = [f"{k}={v}" for k, v in fields.items()]
    return f"query: {', '.join(parts)}"
"#,
        &["flask.request.args.items()"],
    ),
    (
        "locals_template_context",
        LOCALS_FIXTURE,
        &["flask.render_template()", "locals()"],
    ),
];

/// A handler whose `locals()` call receives six bindings.
const LOCALS_FIXTURE: &str = include_str!("fixtures/py_locals_template_context.py");

#[test]
fn golden_snippets_parse_and_build() {
    for (name, src, expected_reps) in GOLDEN {
        let module =
            parse(src).unwrap_or_else(|e| panic!("{name}: parse failed: {e}\n{src}"));
        assert!(!module.body.is_empty(), "{name}: empty module");
        let graph = build_source(src, FileId(0))
            .unwrap_or_else(|e| panic!("{name}: graph build failed: {e}"));
        for rep in *expected_reps {
            assert!(
                graph.events().any(|(id, _)| graph.has_rep(id, rep)),
                "{name}: missing representation {rep}; have: {:?}",
                graph.events().map(|(id, _)| graph.rep(id).to_string()).collect::<Vec<_>>()
            );
        }
    }
}

#[test]
fn golden_snippets_round_trip_through_unparser() {
    // Python 2 print statements unparse to the py3 call form, so the
    // fixpoint is checked from the first printed text onward.
    for (name, src, _) in GOLDEN {
        let m1 = parse(src).unwrap_or_else(|e| panic!("{name}: parse: {e}"));
        let printed = unparse(&m1);
        let m2 = parse(&printed)
            .unwrap_or_else(|e| panic!("{name}: reparse: {e}\n--- printed ---\n{printed}"));
        let printed2 = unparse(&m2);
        assert_eq!(printed, printed2, "{name}: unparser not a fixpoint");
    }
}

/// `(snippet, events, edges)` of each [`GOLDEN`] snippet's propagation
/// graph. Update deliberately when the analysis changes.
const GRAPH_SHAPES: &[(&str, usize, usize)] = &[
    ("flask_login_view", 7, 2),
    ("django_orm_view", 6, 6),
    ("db_cursor_usage", 6, 5),
    ("class_based_handler", 6, 3),
    ("context_managers_and_exceptions", 4, 2),
    ("decorators_and_defaults", 6, 4),
    ("py2_idioms", 5, 3),
    ("comprehensions_and_fstrings", 3, 2),
    ("locals_template_context", 12, 11),
];

#[test]
fn golden_snippets_graph_shapes_are_stable() {
    assert_eq!(GRAPH_SHAPES.len(), GOLDEN.len(), "one pinned shape per snippet");
    for ((name, src, _), &(shape_name, events, edges)) in GOLDEN.iter().zip(GRAPH_SHAPES) {
        assert_eq!(*name, shape_name, "GRAPH_SHAPES must follow GOLDEN order");
        let g = build_source(src, FileId(0)).unwrap();
        assert_eq!(
            (g.event_count(), g.edge_count()),
            (events, edges),
            "{name}: graph shape (events, edges) moved"
        );
    }
}

/// A hand-written Express-style handler covering every JS lowering rule:
/// ES, named-alias and destructured-`require` imports, a local helper
/// inlined at its call site, branch merging, object and array literals,
/// a member store, and string concatenation.
const JS_FIXTURE: &str = include_str!("fixtures/js_express_fixture.js");

/// One snippet per frontend pinning the inlining and flow-set guards: a
/// chain of four nested local calls (the depth-3 inline bound), a
/// self-recursive function (left pending), a call before its callee's
/// definition, a string-keyed index store, and a binding fed by more than
/// `MAX_FLOW_SET` events. The Python one adds keyword arguments into an
/// inlined function and a `self.m()` call; the JS one a bare `let x;`.
const PY_GUARDS_FIXTURE: &str = include_str!("fixtures/py_inlining_guards.py");
const JS_GUARDS_FIXTURE: &str = include_str!("fixtures/js_inlining_guards.js");

/// The first generated file (in corpus order) that defines a module-level
/// helper besides its handlers, with the helper's name; the handler
/// calling it inlines its body.
fn corpus_file_with_helper(lang: Lang) -> (String, String) {
    let corpus = generate_corpus(
        &Universe::new(),
        &CorpusOptions { projects: 20, rng_seed: 1234, lang, ..Default::default() },
    );
    let helper_name = |line: &str| {
        let rest = match lang {
            Lang::Py => line.strip_prefix("def ")?,
            Lang::Js => line.strip_prefix("function ")?,
        };
        let name = &rest[..rest.find('(')?];
        (!name.starts_with("handler_") && !name.starts_with("View")).then(|| name.to_string())
    };
    let found = corpus.files().find_map(|(_, f)| {
        f.content.lines().find_map(helper_name).map(|h| (f.content.clone(), h))
    });
    found.expect("some generated file defines a helper")
}

/// Lowers `src` without limits, as the goldens were blessed; a golden
/// fixture parses without an error.
fn lower(frontend: Frontend, src: &str) -> IrProgram {
    let lowered = frontend.lower(src, &Budget::unlimited(), Recorder::default()).expect("lowers");
    assert_eq!(lowered.errors, [], "golden fixtures parse cleanly");
    lowered.output
}

fn ir_golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/ir")
}

/// Every IR golden as `(file stem, current dump)`.
fn ir_cases() -> Vec<(String, String)> {
    let mut cases: Vec<(String, String)> = GOLDEN
        .iter()
        .map(|(name, src, _)| (format!("py_{name}"), lower(Frontend::Python, src).dump()))
        .collect();
    cases.push(("js_express_fixture".to_string(), lower(Frontend::Js, JS_FIXTURE).dump()));
    let py = lower(Frontend::Python, PY_GUARDS_FIXTURE);
    cases.push(("py_inlining_guards".to_string(), py.dump()));
    cases.push(("js_inlining_guards".to_string(), lower(Frontend::Js, JS_GUARDS_FIXTURE).dump()));
    let py = lower(Frontend::Python, &corpus_file_with_helper(Lang::Py).0);
    cases.push(("corpus_py_helper".to_string(), py.dump()));
    let js = lower(Frontend::Js, &corpus_file_with_helper(Lang::Js).0);
    cases.push(("corpus_js_helper".to_string(), js.dump()));
    cases
}

#[test]
fn lowered_ir_matches_goldens() {
    let dir = ir_golden_dir();
    for (stem, dump) in ir_cases() {
        let path = dir.join(format!("{stem}.txt"));
        let golden = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(
            dump == golden,
            "{stem}: lowered IR diverged from {}\n--- now ---\n{dump}",
            path.display()
        );
    }
}

#[test]
fn corpus_helper_goldens_inline_their_helper() {
    // The corpus goldens are only meaningful if the handler really inlines
    // the helper: an inlined call leaves no pending call behind.
    for lang in [Lang::Py, Lang::Js] {
        let (src, helper) = corpus_file_with_helper(lang);
        let ir = match lang {
            Lang::Py => lower(Frontend::Python, &src),
            Lang::Js => lower(Frontend::Js, &src),
        };
        assert!(ir.funcs.iter().any(|f| f.qualified == helper), "{lang:?}: no {helper}");
        assert!(
            ir.pending.iter().all(|p| p.qualified != helper),
            "{lang:?}: the call to {helper} was not inlined"
        );
    }
}

#[test]
fn locals_lowering_is_deterministic() {
    // `locals()` receives every binding of its scope; the edges must come
    // out in one fixed order, not in the scope map's hash order.
    let first = lower(Frontend::Python, LOCALS_FIXTURE).dump();
    assert!(first.contains("locals()"), "the snippet lowers a locals() call:\n{first}");
    for run in 1..30 {
        let dump = lower(Frontend::Python, LOCALS_FIXTURE).dump();
        assert!(dump == first, "run {run}: locals() lowering diverged\n--- now ---\n{dump}");
    }
}

/// Rewrites every IR golden from the current lowering.
#[test]
#[ignore = "rewrites tests/golden/ir; run only to re-bless deliberately"]
fn bless_ir_goldens() {
    let dir = ir_golden_dir();
    std::fs::create_dir_all(&dir).expect("golden dir");
    for (stem, dump) in ir_cases() {
        std::fs::write(dir.join(format!("{stem}.txt")), dump).expect("write golden");
    }
    for (name, src, _) in GOLDEN {
        let g = build_source(src, FileId(0)).unwrap();
        println!("(\"{name}\", {}, {}),", g.event_count(), g.edge_count());
    }
}
