//! Fault-tolerance integration tests: the fault-injection harness corrupts
//! a fraction of a generated corpus, and the pipeline under
//! [`FaultPolicy::Skip`] must complete, quarantine exactly the corrupted
//! files, and still learn a specification meeting the clean-corpus quality
//! floor on the remainder.

use proptest::prelude::*;
use seldon_core::{
    analyze_corpus, analyze_corpus_with, evaluate_spec, run_seldon, AnalyzeOptions,
    FaultPolicy, GroundTruth, SeldonOptions,
};
use seldon_corpus::{generate_corpus, Corpus, CorpusOptions, Project, SourceFile, Universe};
use seldon_propgraph::Budget;
use std::collections::BTreeSet;

/// Same corpus as `end_to_end::learning_meets_quality_floor`, with 20% of
/// files corrupted.
fn faulted_corpus_opts() -> CorpusOptions {
    CorpusOptions { projects: 60, rng_seed: 1234, fault_rate: 0.2, ..Default::default() }
}

fn harness_opts() -> AnalyzeOptions {
    AnalyzeOptions {
        policy: FaultPolicy::Skip,
        budget: Some(Budget::default()),
        fault_markers: true,
        ..Default::default()
    }
}

#[test]
fn skip_quarantines_exactly_the_injected_faults() {
    let universe = Universe::new();
    let corpus = generate_corpus(&universe, &faulted_corpus_opts());
    assert!(!corpus.faults.is_empty(), "20% fault rate must corrupt some files");

    let (analyzed, report) = analyze_corpus_with(&corpus, &harness_opts()).unwrap();
    assert_eq!(analyzed.files.len(), corpus.file_count());
    assert_eq!(report.files.len(), corpus.file_count());

    let injected: BTreeSet<(usize, &str)> =
        corpus.faults.iter().map(|f| (f.project, f.path.as_str())).collect();
    let quarantined: BTreeSet<(usize, &str)> =
        report.quarantined().map(|f| (f.project, f.path.as_str())).collect();
    assert_eq!(quarantined, injected, "quarantine exactly the corrupted files");

    // The acceptance scenario includes panic-inducing and over-budget
    // files; the round-robin injector guarantees both kinds are present.
    assert!(report.panicked() >= 1, "no panic-inducing file was exercised");
    assert!(report.over_budget() >= 1, "no over-budget file was exercised");
    assert!(report.skipped() >= 1, "no parse-breaking file was exercised");
    assert!(report.is_degraded());
}

#[test]
fn learning_on_faulted_corpus_meets_quality_floor() {
    let universe = Universe::new();
    let corpus = generate_corpus(&universe, &faulted_corpus_opts());
    let (analyzed, report) = analyze_corpus_with(&corpus, &harness_opts()).unwrap();
    assert!(report.is_degraded());

    let run = run_seldon(&analyzed.graph, &universe.seed_spec(), &SeldonOptions::default());
    let truth = GroundTruth::new(&universe, &corpus);
    let eval = evaluate_spec(&run.extraction.spec, &truth);
    // Same floor as the clean-corpus end-to-end test: losing 20% of the
    // files must not poison what is learned from the rest.
    assert!(
        eval.precision() > 0.55,
        "precision {:.2} over {} predictions on faulted corpus",
        eval.precision(),
        eval.predicted()
    );
    assert!(eval.predicted() >= 20, "too few learned entries: {}", eval.predicted());
}

#[test]
fn recover_matches_failfast_on_clean_corpus() {
    let universe = Universe::new();
    let corpus = generate_corpus(
        &universe,
        &CorpusOptions { projects: 20, rng_seed: 1234, ..Default::default() },
    );
    let strict = analyze_corpus(&corpus).unwrap();
    let opts = AnalyzeOptions {
        policy: FaultPolicy::Recover,
        budget: Some(Budget::default()),
        ..Default::default()
    };
    let (lenient, report) = analyze_corpus_with(&corpus, &opts).unwrap();
    assert!(!report.is_degraded(), "clean corpus must not degrade: {report}");

    let seed = universe.seed_spec();
    let spec_a = run_seldon(&strict.graph, &seed, &SeldonOptions::default());
    let spec_b = run_seldon(&lenient.graph, &seed, &SeldonOptions::default());
    assert_eq!(
        spec_a.extraction.spec.to_text(),
        spec_b.extraction.spec.to_text(),
        "Recover must be a no-op on a fault-free corpus"
    );
}

// A corpus of arbitrary printable garbage: under `Skip` the pipeline must
// always complete — never panic, never return an error — and account for
// every file.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn skip_never_fails_on_arbitrary_files(
        contents in prop::collection::vec("\\PC{0,400}", 1..6)
    ) {
        let corpus = Corpus {
            projects: vec![Project {
                name: "fuzz".into(),
                files: contents
                    .iter()
                    .enumerate()
                    .map(|(i, c)| SourceFile {
                        path: format!("f{i}.py"),
                        content: c.clone(),
                    })
                    .collect(),
            }],
            ..Default::default()
        };
        let opts = AnalyzeOptions {
            policy: FaultPolicy::Skip,
            budget: Some(Budget::default()),
            ..Default::default()
        };
        let (analyzed, report) = analyze_corpus_with(&corpus, &opts).unwrap();
        prop_assert_eq!(analyzed.files.len(), contents.len());
        prop_assert_eq!(report.files.len(), contents.len());
    }
}
