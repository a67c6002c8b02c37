//! Allocation bounds of the product's JS-like front end: parse plus
//! lowering straight into the graph sink, per event, for every JS fixture
//! the IR goldens pin. A counting global allocator with per-thread
//! counts, so tests running in parallel do not disturb each other; each
//! fixture is measured on its second pass, after the first has interned
//! its representations and grown the thread's reused buffers.

use seldon_corpus::{generate_corpus, CorpusOptions, Lang, Universe};
use seldon_jsfront::lower_js_program_into;
use seldon_propgraph::{Budget, FileId, GraphSink};
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

/// Each JS IR-golden fixture (named as its golden file) and the most
/// allocations per event its parse plus graph-sink lowering may make: the
/// measured value with about 25% headroom.
const BOUNDS: &[(&str, f64)] =
    &[("js_express_fixture", 12.0), ("js_inlining_guards", 8.4), ("corpus_js_helper", 10.1)];

/// The JS fixtures of the IR goldens, by golden file stem.
fn fixtures() -> Vec<(String, String)> {
    let fixture = |name: &str, src: &str| (name.to_string(), src.to_string());
    let mut out = vec![
        fixture(
            "js_express_fixture",
            include_str!("../../../tests/fixtures/js_express_fixture.js"),
        ),
        fixture(
            "js_inlining_guards",
            include_str!("../../../tests/fixtures/js_inlining_guards.js"),
        ),
    ];
    // The first generated file defining a module-level helper besides its
    // handlers, as `corpus_file_with_helper` picks it for the goldens.
    let corpus = generate_corpus(
        &Universe::new(),
        &CorpusOptions { projects: 20, rng_seed: 1234, lang: Lang::Js, ..Default::default() },
    );
    let helper = corpus.files().map(|(_, f)| &f.content).find(|src| {
        src.lines().filter_map(|l| l.strip_prefix("function ")).any(|rest| {
            let name = &rest[..rest.find('(').unwrap_or(0)];
            !name.starts_with("handler_") && !name.starts_with("View")
        })
    });
    out.push(fixture("corpus_js_helper", helper.expect("some generated file defines a helper")));
    out
}

/// Allocations and events of one parse plus graph-sink lowering of `src`.
fn measure(src: &str) -> (u64, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let program = seldon_jsfront::parse(src).expect("fixtures parse");
    let graph = lower_js_program_into(&program, &Budget::unlimited(), GraphSink::new(FileId(0)))
        .expect("unlimited");
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    (allocations, graph.event_count())
}

#[test]
fn js_front_end_allocations_per_event_stay_bounded() {
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
