//! # seldon-core
//!
//! End-to-end pipeline of the Seldon reproduction ("Scalable Taint
//! Specification Inference with Big Code", PLDI 2019): corpus analysis
//! (parse → per-file propagation graphs → global graph), constraint
//! generation, projected-Adam solving, specification extraction, taint
//! analysis, and exact evaluation against corpus ground truth.
//!
//! ## Quickstart
//!
//! ```
//! use seldon_core::{analyze_corpus, run_seldon, SeldonOptions};
//! use seldon_corpus::{generate_corpus, CorpusOptions, Universe};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let universe = Universe::new();
//! let corpus = generate_corpus(
//!     &universe,
//!     &CorpusOptions { projects: 4, ..Default::default() },
//! );
//! let analyzed = analyze_corpus(&corpus)?;
//! let run = run_seldon(&analyzed.graph, &universe.seed_spec(), &SeldonOptions::default());
//! assert!(run.system.constraint_count() > 0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod error;
pub mod eval;
pub mod manifest;
pub mod pipeline;
pub mod report;

pub use error::{panic_message, PipelineError};
pub use eval::{
    classify_all, classify_violation, evaluate_spec, reps_match, GroundTruth, ReportClass,
    ReportSummary, RoleEval, SpecEval,
};
pub use manifest::{learned_per_role, record_corpus, record_learning, run_full, FullRun};
pub use pipeline::{
    analysis_cache_key, analyze_corpus, analyze_corpus_with, analyze_file, analyze_inputs,
    analyze_project, climb_ladder, default_rep_cutoff, run_seldon, run_seldon_cached, union_graphs,
    AnalyzeOptions, AnalyzedCorpus, AnalyzedFiles, CheckpointOutcome, CheckpointUse, Climb,
    FaultPolicy, FileAnalysis, FileInput, FileMeta, Frontend, Lowered, SeldonOptions, SeldonRun,
    WarmStartOptions, DEFAULT_TRACE_STRIDE, DEFAULT_WARM_MARGIN,
};
pub use report::{AnalysisReport, CacheFaultReport, FileOutcome, FileReport};
