//! Front-end and taint-analysis benchmarks: every frontend stage timed on
//! its own over a 3:1 Python:JS generated corpus (lexer, parser, Python
//! lowering, `build_ir` replay of both languages' IR, and the whole JS
//! frontend), so a frontend change can be sized stage by stage in seconds;
//! plus the Tab. 7 bug-finding sweep with seed vs inferred specifications.
//!
//! ```bash
//! cargo bench -p seldon-bench --bench frontend
//! ```

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use seldon_core::{analyze_corpus, run_seldon, Frontend, SeldonOptions};
use seldon_corpus::{generate_corpus, CorpusOptions, Lang, Universe};
use seldon_jsfront::build_js_source;
use seldon_propgraph::{build_ir, lower_module_budgeted, Budget, FileId};
use seldon_pyast::{lexer, parser};
use seldon_taint::TaintAnalyzer;

/// Source texts of a generated corpus of `projects` projects in `lang`.
fn corpus_text(projects: usize, lang: Lang) -> Vec<String> {
    let universe = Universe::new();
    generate_corpus(&universe, &CorpusOptions { projects, lang, ..Default::default() })
        .files()
        .map(|(_, f)| f.content.clone())
        .collect()
}

fn bench_frontend(c: &mut Criterion) {
    let py = corpus_text(30, Lang::Py);
    let js = corpus_text(10, Lang::Js);
    let py_bytes: usize = py.iter().map(String::len).sum();
    let js_bytes: usize = js.iter().map(String::len).sum();
    let modules: Vec<_> = py.iter().map(|f| parser::parse(f).expect("parses")).collect();
    // The production budget: lowering is always metered.
    let budget = Budget::default();
    let lower = |m| lower_module_budgeted(m, &budget).expect("lowers");
    let irs: Vec<_> = modules
        .iter()
        .map(lower)
        .chain(js.iter().map(|f| Frontend::Js.lower(f, &budget, false).expect("lowers").ir))
        .collect();
    let events: usize = irs.iter().map(|ir| ir.events.len()).sum();

    let mut g = c.benchmark_group("frontend");
    g.throughput(Throughput::Bytes(py_bytes as u64));
    g.bench_function("lexer", |b| {
        b.iter(|| py.iter().map(|f| lexer::lex(f).expect("lexes").len()).sum::<usize>())
    });
    g.bench_function("parser", |b| {
        b.iter(|| py.iter().map(|f| parser::parse(f).expect("parses").body.len()).sum::<usize>())
    });
    g.throughput(Throughput::Elements(modules.len() as u64));
    g.bench_function("lower", |b| {
        b.iter(|| modules.iter().map(|m| lower(m).events.len()).sum::<usize>())
    });
    g.throughput(Throughput::Elements(events as u64));
    g.bench_function("build_ir", |b| {
        b.iter(|| {
            irs.iter()
                .enumerate()
                .map(|(i, ir)| build_ir(ir, FileId(i as u32)).event_count())
                .sum::<usize>()
        })
    });
    g.throughput(Throughput::Bytes(js_bytes as u64));
    g.bench_function("js_build", |b| {
        b.iter(|| {
            js.iter()
                .enumerate()
                .map(|(i, f)| build_js_source(f, FileId(i as u32)).expect("builds").event_count())
                .sum::<usize>()
        })
    });
    g.finish();
}

fn bench_taint_sweep(c: &mut Criterion) {
    let universe = Universe::new();
    let corpus = generate_corpus(&universe, &CorpusOptions { projects: 80, ..Default::default() });
    let analyzed = analyze_corpus(&corpus).expect("parses");
    let seed = universe.seed_spec();
    let run = run_seldon(&analyzed.graph, &seed, &SeldonOptions::default());
    let mut combined = seed.clone();
    combined.merge(&run.extraction.spec);

    let mut g = c.benchmark_group("taint_sweep");
    g.sample_size(20);
    g.bench_function("seed_spec", |b| {
        b.iter(|| {
            TaintAnalyzer::new(&analyzed.graph, &seed)
                .find_violations()
                .len()
        })
    });
    g.bench_function("inferred_spec", |b| {
        b.iter(|| {
            TaintAnalyzer::new(&analyzed.graph, &combined)
                .find_violations()
                .len()
        })
    });
    g.finish();
}

criterion_group!(benches, bench_frontend, bench_taint_sweep);
criterion_main!(benches);
