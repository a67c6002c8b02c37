//! Golden telemetry tests: a fixed seeded corpus through [`run_full`]
//! must yield a [`RunManifest`] with the eight pipeline stages in order,
//! a monotone solver convergence curve, per-template constraint counts
//! that add up, a lossless JSON round-trip, and — once wall-clock fields
//! are redacted — byte-identical output across repeated runs.

use seldon_core::{run_full, AnalyzeOptions, FaultPolicy, SeldonOptions};
use seldon_corpus::{generate_corpus, Corpus, CorpusOptions, Universe};
use seldon_specs::TaintSpec;
use seldon_telemetry::{metric, stage, MetricDef, MetricValue, RunManifest, Telemetry};

fn fixture() -> (Corpus, TaintSpec) {
    let universe = Universe::new();
    let corpus = generate_corpus(
        &universe,
        &CorpusOptions { projects: 8, rng_seed: 7, ..Default::default() },
    );
    (corpus, universe.seed_spec())
}

fn recording_opts() -> AnalyzeOptions {
    AnalyzeOptions {
        policy: FaultPolicy::Recover,
        telemetry: Telemetry::recording(),
        ..Default::default()
    }
}

fn run_manifest(corpus: &Corpus, seed: &TaintSpec) -> RunManifest {
    run_full(corpus, seed, "learn", &recording_opts(), &SeldonOptions::default())
        .expect("fixture corpus analyzes")
        .manifest
        .expect("recording handle yields a manifest")
}

#[test]
fn stages_appear_exactly_once_in_pipeline_order() {
    let (corpus, seed) = fixture();
    let m = run_manifest(&corpus, &seed);
    let top_level: Vec<&str> = m
        .stages
        .iter()
        .filter(|s| s.depth == 0)
        .map(|s| s.name.as_str())
        .collect();
    assert_eq!(top_level, stage::ALL, "one span per stage, in pipeline order");
    for s in m.stages.iter().filter(|s| s.depth == 0) {
        assert_eq!(s.parent, None, "driver stages are top-level: {}", s.name);
    }
    // Child spans: per-project parse shares under `parse` and the CSR
    // lowering under `solve`, nothing else.
    let nested: Vec<&seldon_telemetry::StageSpan> =
        m.stages.iter().filter(|s| s.depth > 0).collect();
    assert!(
        nested.iter().all(|s| s.depth == 1 && s.parent.is_some()),
        "every nested span is a direct child of a stage"
    );
    let parent_name = |s: &seldon_telemetry::StageSpan| {
        m.stages[s.parent.unwrap() as usize].name.as_str()
    };
    let projects: Vec<&&seldon_telemetry::StageSpan> =
        nested.iter().filter(|s| s.name == stage::PARSE_PROJECT).collect();
    assert_eq!(projects.len(), 8, "one parse child per fixture project");
    for p in &projects {
        assert_eq!(parent_name(p), stage::PARSE, "parse.project nests under parse");
        assert!(
            p.counters.iter().any(|(k, v)| k == "files" && *v >= 1.0),
            "parse.project carries its file count: {:?}",
            p.counters
        );
    }
    let compiles: Vec<&&seldon_telemetry::StageSpan> =
        nested.iter().filter(|s| s.name == stage::COMPILE).collect();
    assert_eq!(compiles.len(), 1, "exactly one compile child");
    let compile = *compiles[0];
    assert_eq!(parent_name(compile), stage::SOLVE, "compile nests under solve");
    let counters: Vec<&str> = compile.counters.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(counters, ["constraints", "rows", "terms", "lanes"]);
    assert_eq!(
        nested.len(),
        projects.len() + compiles.len(),
        "no unexpected child spans: {:?}",
        nested.iter().map(|s| s.name.as_str()).collect::<Vec<_>>()
    );
    // The solve span records the worker-thread count alongside outcome.
    let solve = m.stage(stage::SOLVE).unwrap();
    assert!(
        solve.counters.iter().any(|(k, v)| k == "threads" && *v >= 1.0),
        "solve span carries the thread count: {:?}",
        solve.counters
    );
}

#[test]
fn solver_curve_is_monotone_and_reaches_the_final_epoch() {
    let (corpus, seed) = fixture();
    let m = run_manifest(&corpus, &seed);
    let curve = &m.curve;
    assert!(!curve.is_empty(), "default stride samples the solver");
    assert!(
        curve.windows(2).all(|w| w[0].epoch < w[1].epoch),
        "epoch indices strictly increase: {:?}",
        curve.iter().map(|e| e.epoch).collect::<Vec<_>>()
    );
    assert_eq!(
        curve.last().unwrap().epoch,
        m.metrics.value("solver_iterations").unwrap() as u64 - 1,
        "the final epoch is always sampled"
    );
    for e in curve {
        assert!(e.lr > 0.0 && e.objective.is_finite() && e.grad_norm.is_finite());
        assert!(e.hinge_loss >= 0.0);
    }
}

#[test]
fn template_counts_add_up_and_manifest_round_trips() {
    let (corpus, seed) = fixture();
    let m = run_manifest(&corpus, &seed);
    let value = |name: &str| m.metrics.value(name).unwrap_or_else(|| panic!("metric {name}"));
    let sum = |defs: &[MetricDef]| defs.iter().map(|d| value(d.name)).sum::<f64>();
    assert_eq!(sum(&metric::TEMPLATES), value("constraints_total"));
    assert!(value("constraint_vars") >= value("constraint_vars_pinned"));
    assert_eq!(
        sum(&metric::OUTCOMES),
        value("corpus_files"),
        "every corpus file has exactly one outcome"
    );
    let back = RunManifest::from_json(&m.to_json()).expect("manifest JSON parses back");
    assert_eq!(back, m, "JSON round-trip is lossless");
}

#[test]
fn manifest_v5_carries_memory_accounting_and_metrics() {
    let (corpus, seed) = fixture();
    let m = run_manifest(&corpus, &seed);
    let memory = metric::MEMORY.map(|d| m.metrics.value(d.name));
    let [Some(current_bytes), Some(peak_bytes), Some(_)] = memory else {
        panic!("in-process runs track the counting allocator: {memory:?}")
    };
    assert!(peak_bytes > 0.0);
    assert!(peak_bytes >= current_bytes);
    let top: Vec<&seldon_telemetry::StageSpan> =
        m.stages.iter().filter(|s| s.depth == 0).collect();
    for s in &top {
        assert!(s.mem_peak_bytes > 0, "stage {} records its heap peak", s.name);
        assert!(s.mem_peak_bytes >= s.mem_now_bytes, "peak bounds live bytes: {}", s.name);
    }
    // The allocator peak is monotone, so stage peaks never decrease in
    // pipeline order.
    assert!(
        top.windows(2).all(|w| w[0].mem_peak_bytes <= w[1].mem_peak_bytes),
        "stage peaks are a running high-water mark"
    );
    let rep_freq = m.metrics.get("rep_frequency").expect("rep_frequency metric");
    assert!(!rep_freq.volatile(), "rep frequency is a pipeline output");
    let MetricValue::Histogram(h) = &rep_freq.value else {
        panic!("rep_frequency is a histogram")
    };
    assert!(h.total() > 0, "the fixture graph has representations");
    let gap = m.metrics.get("constraint_gap").expect("constraint_gap metric");
    let MetricValue::Histogram(h) = &gap.value else {
        panic!("constraint_gap is a histogram")
    };
    assert_eq!(
        h.total() as f64,
        m.metrics.value("constraints_total").unwrap(),
        "one gap observation per constraint"
    );
    assert!(m.metrics.get("build_time_us").is_some(), "per-file build distribution");
    assert!(m.metrics.get("solver_epoch_us").is_some(), "solver epoch timing");
    assert!(m.metrics.get("solver_rows").is_some(), "CSR row occupancy");
    assert!(m.metrics.get("solver_lanes").is_some(), "CSR lane occupancy");
    assert!(m.score_dump.is_empty(), "the score dump is opt-in");
}

#[test]
fn score_dump_is_opt_in_sorted_and_round_trips() {
    let (corpus, seed) = fixture();
    let seldon = SeldonOptions { score_dump: true, ..Default::default() };
    let full = run_full(&corpus, &seed, "learn", &recording_opts(), &seldon)
        .expect("fixture corpus analyzes");
    let m = full.manifest.expect("recording handle yields a manifest");
    assert!(!m.score_dump.is_empty(), "the fixture learns entries");
    assert_eq!(
        m.score_dump.len(),
        full.run.extraction.scores.len(),
        "one dump entry per learned (rep, role)"
    );
    assert!(
        m.score_dump.windows(2).all(|w| {
            (w[0].rep.as_str(), w[0].role.as_str()) < (w[1].rep.as_str(), w[1].role.as_str())
        }),
        "entries are sorted by (rep, role)"
    );
    // Bucket i counts selections at level i; the sweep ends at the last
    // level with a selection.
    let hits = &m.metrics.histogram("backoff_hits").expect("backoff sweep").counts;
    let sweep = hits.iter().rposition(|&c| c > 0).map_or(0, |last| last + 1);
    for e in &m.score_dump {
        assert!(
            ["src", "san", "snk"].contains(&e.role.as_str()),
            "role label: {}",
            e.role
        );
        assert!(e.score > 0.0 && e.score <= 1.0, "effective score in (0, 1]: {}", e.score);
        assert!(
            (e.backoff_level as usize) < sweep.max(1),
            "level within the recorded sweep"
        );
    }
    let back = RunManifest::from_json(&m.to_json()).expect("manifest JSON parses back");
    assert_eq!(back, m, "score dump survives the round trip");
}

#[test]
fn repeated_runs_are_identical_after_timing_redaction() {
    let (corpus, seed) = fixture();
    let mut a = run_manifest(&corpus, &seed);
    let mut b = run_manifest(&corpus, &seed);
    a.redact_timings();
    b.redact_timings();
    assert_eq!(a, b, "redacted manifests are deterministic");
    assert_eq!(a.to_json(), b.to_json(), "and so is their JSON");
}
