//! # seldon-bench
//!
//! The experiment harness of the Seldon reproduction: one function per
//! table and figure of the paper's evaluation (§7), shared by the `tables`
//! binary (which regenerates EXPERIMENTS.md content), plus the corpus and
//! median helpers of the `cache_bench`, `serve_bench` and `solver_bench`
//! gates.

#![warn(missing_docs)]

pub mod experiments;
pub mod table;

pub use experiments::{
    ablations, backoff_ablation, combined_spec, convergence, extension_param, solver_gap, template_ablation, fig10, fig11, q5, q6, run_all, table1, table2, table3, table4,
    table5, table6, table7, ExperimentConfig, Workbench,
};
pub use table::{dur, pct, Table};

use seldon_corpus::{generate_corpus, Corpus, CorpusOptions, Universe};
use seldon_specs::TaintSpec;

/// The gates' generated corpus (3–5 files per project, seed `0xC0FFEE`)
/// and its seed specification. 150 projects give the 607-file corpus of
/// `cache_bench` and `serve_bench`; `solver_bench` scales it up so the
/// solve dominates.
pub fn bench_corpus(projects: usize) -> (Corpus, TaintSpec) {
    let universe = Universe::new();
    let corpus = generate_corpus(
        &universe,
        &CorpusOptions {
            projects,
            files_per_project: (3, 5),
            rng_seed: 0xC0FFEE,
            ..Default::default()
        },
    );
    (corpus, universe.seed_spec())
}

/// The median of `samples` (the upper one for an even count).
///
/// # Panics
///
/// On an empty `samples`.
pub fn median_ms(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}
