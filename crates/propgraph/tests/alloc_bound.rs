//! Allocation bounds of the product's Python front end: parse plus
//! lowering straight into the graph sink, per event, for every Python
//! fixture the IR goldens pin; and of the union, per file. A counting
//! global allocator with per-thread counts, so tests running in parallel
//! do not disturb each other; each fixture is measured on its second pass,
//! after the first has interned its representations and grown the
//! thread's reused buffers.

use seldon_corpus::{generate_corpus, CorpusOptions, Lang, Universe};
use seldon_propgraph::{
    build_source, lower_module_into, Budget, FileId, GraphSink, PropagationGraph,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; counting touches only
// a const-initialized thread-local cell.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Each Python IR-golden fixture (named as its golden file) and the most
/// allocations per event its parse plus graph-sink lowering may make: the
/// measured value with about 25% headroom, or less where an earlier,
/// tighter bound still holds.
const BOUNDS: &[(&str, f64)] = &[
    ("py_flask_login_view", 17.2),
    ("py_django_orm_view", 18.8),
    ("py_db_cursor_usage", 16.0),
    ("py_class_based_handler", 18.2),
    ("py_context_managers_and_exceptions", 16.6),
    ("py_decorators_and_defaults", 14.0),
    ("py_py2_idioms", 17.5),
    ("py_comprehensions_and_fstrings", 33.4),
    ("py_locals_template_context", 13.1),
    ("py_inlining_guards", 8.1),
    ("corpus_py_helper", 11.1),
];

/// The Python fixtures of the IR goldens, by golden file stem.
fn fixtures() -> Vec<(String, String)> {
    let golden = include_str!("../../../tests/golden_frontend.rs");
    let mut out = Vec::new();
    let mut rest = golden;
    while let Some(at) = rest.find("r#\"") {
        let before = rest[..at].trim_end().trim_end_matches(',').trim_end_matches('"');
        let name = &before[before.rfind('"').expect("snippet name") + 1..];
        let body = &rest[at + 3..];
        let end = body.find("\"#").expect("raw string ends");
        out.push((format!("py_{name}"), body[..end].to_string()));
        rest = &body[end..];
    }
    let fixture = |name: &str, src: &str| (name.to_string(), src.to_string());
    out.push(fixture(
        "py_locals_template_context",
        include_str!("../../../tests/fixtures/py_locals_template_context.py"),
    ));
    out.push(fixture(
        "py_inlining_guards",
        include_str!("../../../tests/fixtures/py_inlining_guards.py"),
    ));
    // The first generated file defining a module-level helper besides its
    // handlers, as `corpus_file_with_helper` picks it for the goldens.
    let corpus = generate_corpus(
        &Universe::new(),
        &CorpusOptions { projects: 20, rng_seed: 1234, lang: Lang::Py, ..Default::default() },
    );
    let helper = corpus.files().map(|(_, f)| &f.content).find(|src| {
        src.lines().filter_map(|l| l.strip_prefix("def ")).any(|rest| {
            let name = &rest[..rest.find('(').unwrap_or(0)];
            !name.starts_with("handler_") && !name.starts_with("View")
        })
    });
    out.push(fixture("corpus_py_helper", helper.expect("some generated file defines a helper")));
    out
}

/// Allocations and events of one parse plus graph-sink lowering of `src`.
fn measure(src: &str) -> (u64, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let module = seldon_pyast::parse(src).expect("fixtures parse");
    let graph = lower_module_into(&module, &Budget::unlimited(), GraphSink::new(FileId(0)))
        .expect("unlimited");
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    (allocations, graph.event_count())
}

#[test]
fn python_front_end_allocations_per_event_stay_bounded() {
    let fixtures = fixtures();
    assert_eq!(fixtures.len(), BOUNDS.len(), "one bound per fixture");
    let mut over = Vec::new();
    for ((name, src), &(bound_name, bound)) in fixtures.iter().zip(BOUNDS) {
        assert_eq!(name, bound_name, "BOUNDS follow the fixture order");
        measure(src);
        let (allocations, events) = measure(src);
        let per_event = allocations as f64 / events as f64;
        println!("{name}: {allocations} allocations, {events} events, {per_event:.1} per event");
        if per_event > bound {
            over.push(format!("{name}: {per_event:.1} allocations per event > {bound}"));
        }
    }
    assert!(over.is_empty(), "over the bound:\n{}", over.join("\n"));
}

/// The most allocations one file's graph may cost a union reserved for
/// every file: the measured value with about 25% headroom. Each append
/// allocates its symbol link map; the union's own table grows now and
/// then. No array of the union grows, and nothing is allocated per event
/// or edge.
const UNION_ALLOCATIONS_PER_FILE: f64 = 1.5;

#[test]
fn appending_frozen_graphs_into_a_reserved_union_allocates_per_file() {
    let corpus = generate_corpus(
        &Universe::new(),
        &CorpusOptions { projects: 40, rng_seed: 1234, lang: Lang::Py, ..Default::default() },
    );
    let graphs: Vec<PropagationGraph> = (corpus.files())
        .map(|(_, f)| build_source(&f.content, FileId(0)).expect("generated files build"))
        .collect();
    let before = ALLOCATIONS.with(Cell::get);
    let mut union = PropagationGraph::new();
    union.reserve_for(graphs.iter());
    for g in &graphs {
        union.union(g);
    }
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    let per_file = allocations as f64 / graphs.len() as f64;
    println!("{allocations} allocations for {} files, {per_file:.2} per file", graphs.len());
    assert!(union.event_count() > 10 * graphs.len(), "files have events to append");
    assert!(per_file <= UNION_ALLOCATIONS_PER_FILE, "{per_file:.2} allocations per file");
}
