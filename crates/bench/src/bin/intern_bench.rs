//! Measures the hot phases the interning refactor targets: per-file graph
//! union into the global propagation graph, and constraint generation over
//! it. Emits one JSON object on stdout and (optionally) writes the learned
//! spec text to the path given as the first argument, so before/after runs
//! can be diffed byte-for-byte.
//!
//! The corpus is fixed (≥500 files, seeded RNG) so numbers are comparable
//! across builds of the same machine.

use seldon_constraints::{generate, GenOptions};
use seldon_core::{analyze_corpus, run_seldon, SeldonOptions};
use seldon_corpus::{generate_corpus, CorpusOptions, Universe};
use seldon_propgraph::{build_source, FileId, PropagationGraph};
use seldon_telemetry::BenchRecord;
use std::time::Instant;

const ROUNDS: usize = 5;

fn median_ms(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Regenerates the golden learned spec for the `tests/end_to_end.rs`
/// fixture (`--golden <path>`), mirroring that file's corpus options.
fn write_golden(path: &str) {
    let universe = Universe::new();
    let corpus = generate_corpus(
        &universe,
        &CorpusOptions { projects: 60, rng_seed: 1234, ..Default::default() },
    );
    let analyzed = analyze_corpus(&corpus).expect("fixture corpus analyzes");
    let run = run_seldon(&analyzed.graph, &universe.seed_spec(), &SeldonOptions::default());
    std::fs::write(path, run.extraction.spec.to_text()).expect("write golden spec");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--golden") {
        write_golden(args.get(1).expect("--golden needs a path"));
        return;
    }
    let spec_out = args.first().cloned();

    let universe = Universe::new();
    let opts = CorpusOptions {
        projects: 150,
        files_per_project: (3, 5),
        rng_seed: 0xC0FFEE,
        ..Default::default()
    };
    let corpus = generate_corpus(&universe, &opts);
    let files = corpus.file_count();
    assert!(files >= 500, "bench corpus too small: {files} files");

    // Per-file graphs, built once (build cost is out of scope here).
    let graphs: Vec<PropagationGraph> = corpus
        .files()
        .enumerate()
        .map(|(i, (_, f))| build_source(&f.content, FileId(i as u32)).expect("generated file parses"))
        .collect();

    // --- union ------------------------------------------------------------
    let mut union_samples = Vec::with_capacity(ROUNDS);
    let mut global = PropagationGraph::new();
    for round in 0..ROUNDS {
        let t = Instant::now();
        let mut g = PropagationGraph::new();
        for pg in &graphs {
            g.union(pg);
        }
        union_samples.push(t.elapsed().as_secs_f64() * 1e3);
        if round == 0 {
            global = g;
        }
    }

    // --- constraint generation --------------------------------------------
    let seed = universe.seed_spec();
    let mut gen_samples = Vec::with_capacity(ROUNDS);
    let mut constraints = 0usize;
    let mut vars = 0usize;
    for _ in 0..ROUNDS {
        let t = Instant::now();
        let sys = generate(&global, &seed, &GenOptions::default());
        gen_samples.push(t.elapsed().as_secs_f64() * 1e3);
        constraints = sys.constraint_count();
        vars = sys.var_count();
    }

    // --- full run, for the output-identity check ---------------------------
    let run = run_seldon(&global, &seed, &SeldonOptions::default());
    let spec_text = run.extraction.spec.to_text();
    if let Some(path) = spec_out {
        std::fs::write(&path, &spec_text).expect("write spec text");
    }

    let union_ms = median_ms(union_samples);
    let gen_ms = median_ms(gen_samples);
    let mut r = BenchRecord::new(
        "intern",
        "intern_bench",
        format!("medians of {ROUNDS} rounds, release build; union and gen stages in ms"),
    );
    r.num("corpus", "files", files as f64)
        .num("corpus", "events", global.event_count() as f64)
        .num("corpus", "edges", global.edge_count() as f64)
        .num("timing", "union_ms", union_ms)
        .num("timing", "gen_ms", gen_ms)
        .num("timing", "gen_union_ms", union_ms + gen_ms)
        .num("output", "constraints", constraints as f64)
        .num("output", "vars", vars as f64)
        .num("output", "learned_entries", run.extraction.spec.role_count() as f64)
        .num("output", "spec_bytes", spec_text.len() as f64);
    println!("{}", r.to_json());
}
