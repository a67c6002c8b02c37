//! Pipeline benchmarks backing Fig. 10 (linear scaling of inference with
//! corpus size) and Tab. 1 (constraint-system construction cost).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use seldon_constraints::{generate, GenOptions};
use seldon_core::{analyze_corpus, run_seldon, SeldonOptions};
use seldon_corpus::{generate_corpus, CorpusOptions, Universe};
use seldon_propgraph::{build_source, FileId};

fn bench_graph_build(c: &mut Criterion) {
    let universe = Universe::new();
    let corpus = generate_corpus(&universe, &CorpusOptions { projects: 40, ..Default::default() });
    let files: Vec<String> = corpus.files().map(|(_, f)| f.content.clone()).collect();
    let bytes: usize = files.iter().map(String::len).sum();
    let mut g = c.benchmark_group("graph_build");
    g.throughput(Throughput::Bytes(bytes as u64));
    g.bench_function("per_file_graphs", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for (i, src) in files.iter().enumerate() {
                let graph = build_source(src, FileId(i as u32)).expect("parses");
                total += graph.event_count();
            }
            total
        })
    });
    g.finish();
}

fn bench_constraint_generation(c: &mut Criterion) {
    let universe = Universe::new();
    let corpus = generate_corpus(&universe, &CorpusOptions { projects: 60, ..Default::default() });
    let analyzed = analyze_corpus(&corpus).expect("parses");
    let seed = universe.seed_spec();
    c.bench_function("constraint_generation", |b| {
        b.iter(|| generate(&analyzed.graph, &seed, &GenOptions::default()).constraint_count())
    });
}

/// Fig. 10: end-to-end inference time at doubling corpus sizes. Linear
/// scaling means time/size is constant across the group.
fn bench_fig10_scaling(c: &mut Criterion) {
    let universe = Universe::new();
    let seed = universe.seed_spec();
    let mut g = c.benchmark_group("fig10_inference_scaling");
    g.sample_size(10);
    for projects in [25usize, 50, 100, 200] {
        let corpus =
            generate_corpus(&universe, &CorpusOptions { projects, ..Default::default() });
        let analyzed = analyze_corpus(&corpus).expect("parses");
        g.throughput(Throughput::Elements(corpus.file_count() as u64));
        g.bench_with_input(BenchmarkId::from_parameter(projects), &analyzed, |b, a| {
            b.iter(|| {
                let run = run_seldon(&a.graph, &seed, &SeldonOptions::default());
                run.extraction.spec.role_count()
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_graph_build,
    bench_constraint_generation,
    bench_fig10_scaling
);
criterion_main!(benches);
