//! Fault-tolerance integration tests: the fault-injection harness corrupts
//! a fraction of a generated corpus, and the pipeline under
//! [`FaultPolicy::Recover`] must complete, degrade exactly the corrupted
//! files (each kind to its own outcome), and still learn a specification
//! meeting the clean-corpus quality floor on the rest.

use proptest::prelude::*;
use seldon_cache::{graph_fingerprint, Fnv64};
use seldon_core::{
    analyze_corpus, analyze_corpus_with, analyze_file, analyze_inputs, evaluate_spec, run_seldon,
    AnalyzeOptions, FaultPolicy, FileInput, FileOutcome, GroundTruth, SeldonOptions,
};
use seldon_corpus::{
    generate_corpus, Corpus, CorpusOptions, FaultKind, Lang, Project, SourceFile, Universe,
};
use seldon_propgraph::{Budget, FileId};
use std::collections::{BTreeMap, BTreeSet};

/// Same corpus as `end_to_end::learning_meets_quality_floor`, with 20% of
/// files corrupted.
fn faulted_corpus_opts() -> CorpusOptions {
    CorpusOptions { projects: 60, rng_seed: 1234, fault_rate: 0.2, ..Default::default() }
}

fn harness_opts() -> AnalyzeOptions {
    AnalyzeOptions {
        policy: FaultPolicy::Recover,
        budget: Some(Budget::default()),
        fault_markers: true,
        ..Default::default()
    }
}

/// The name of an outcome's variant.
fn variant(outcome: &FileOutcome) -> &'static str {
    match outcome {
        FileOutcome::Ok => "ok",
        FileOutcome::Recovered { .. } => "recovered",
        FileOutcome::OverBudget { .. } => "over budget",
        FileOutcome::Panicked { .. } => "panicked",
    }
}

#[test]
fn recover_degrades_exactly_the_injected_faults() {
    let universe = Universe::new();
    let corpus = generate_corpus(&universe, &faulted_corpus_opts());
    assert!(!corpus.faults.is_empty(), "20% fault rate must corrupt some files");

    let (analyzed, report) = analyze_corpus_with(&corpus, &harness_opts()).unwrap();
    assert_eq!(analyzed.files.len(), corpus.file_count());
    assert_eq!(report.files.len(), corpus.file_count());

    let injected: BTreeMap<(usize, &str), FaultKind> =
        corpus.faults.iter().map(|f| ((f.project, f.path.as_str()), f.kind)).collect();
    let degraded: BTreeSet<(usize, &str)> = report
        .files
        .iter()
        .filter(|f| f.outcome != FileOutcome::Ok)
        .map(|f| (f.project, f.path.as_str()))
        .collect();
    assert!(degraded.iter().eq(injected.keys()), "degrade exactly the corrupted files");

    // Parse-breaking kinds are analyzed with the broken statements
    // skipped; the rest defeat recovery and are quarantined.
    for file in &report.files {
        let Some(kind) = injected.get(&(file.project, file.path.as_str())) else { continue };
        let expected = match kind {
            FaultKind::Truncated | FaultKind::BadIndent | FaultKind::CorruptBytes => "recovered",
            FaultKind::DeepNesting | FaultKind::Oversized => "over budget",
            FaultKind::PanicMarker => "panicked",
        };
        assert_eq!(variant(&file.outcome), expected, "{} ({kind:?})", file.path);
    }
    // The round-robin injector guarantees every kind is present.
    for kind in FaultKind::ALL {
        assert!(injected.values().any(|&k| k == kind), "no {kind:?} file was exercised");
    }
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

// A corpus of arbitrary printable garbage: under `Recover` the pipeline
// must always complete — never panic, never return an error — and account
// for every file.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn recover_never_fails_on_arbitrary_files(
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
            policy: FaultPolicy::Recover,
            budget: Some(Budget::default()),
            ..Default::default()
        };
        let (analyzed, report) = analyze_corpus_with(&corpus, &opts).unwrap();
        prop_assert_eq!(analyzed.files.len(), contents.len());
        prop_assert_eq!(report.files.len(), contents.len());
    }
}

/// Hashes, in corpus order, what each file of the 20%-faulted 60-project
/// corpus in `lang` comes to: its outcome variant under `Recover`, the
/// error text a `FailFast` run over that one file stops with (empty when
/// the run completes), and the fingerprint of the graph `Recover` builds.
fn faulted_corpus_digest(lang: Lang) -> u64 {
    let corpus = generate_corpus(&Universe::new(), &CorpusOptions { lang, ..faulted_corpus_opts() });
    let failfast = AnalyzeOptions { policy: FaultPolicy::FailFast, ..harness_opts() };
    let mut h = Fnv64::new();
    for (i, (project, file)) in corpus.files().enumerate() {
        let id = FileId(i as u32);
        let recovered = analyze_file(&file.path, &file.content, id, &harness_opts());
        let input = FileInput { project, id, path: &file.path, content: &file.content };
        let strict = analyze_inputs([input], &failfast).err();
        let strict = strict.map_or(String::new(), |e| e.to_string());
        h.write_str(&file.path).write_str(variant(&recovered.outcome)).write_str(&strict);
        h.write_u64(recovered.graph.as_ref().map_or(0, graph_fingerprint));
    }
    h.finish()
}

/// Every file gets one recovering analysis, and `FailFast` derives its
/// error from it; the pins were taken when `Recover` parsed a broken file
/// twice, strictly and then with recovery, and when `FailFast` stopped a
/// file at its first parse error before lowering it. One analysis must
/// come to the same outcomes, errors and graphs.
#[test]
fn faulted_corpus_outcomes_are_pinned() {
    assert_eq!(faulted_corpus_digest(Lang::Py), 0x83d2_e571_5fa2_bd76);
    assert_eq!(faulted_corpus_digest(Lang::Js), 0x8fb1_721b_6a40_a779);
}
