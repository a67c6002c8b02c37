//! Full-pipeline driver with telemetry: runs all eight stages — parse,
//! propgraph, union, representation, constraints, solve, extract, taint —
//! and assembles the machine-readable [`RunManifest`] the `--telemetry`
//! flag writes.
//!
//! [`run_full`] is [`analyze_corpus_with`] + [`run_seldon_cached`] (keyed
//! by the graph key the analysis folded) plus a final taint pass with the
//! learned specification. With a recording
//! [`Telemetry`] handle in [`AnalyzeOptions`], the manifest captures every
//! stage span with its counters and the solver's sampled convergence
//! curve, and its metrics registry holds the corpus shape, per-file fault
//! outcomes, the per-template constraint counts (Fig. 4a/b/c), the solver
//! outcome, the §7.1 extraction backoff sweep, and the taint verdict. With
//! a disabled handle the pipeline runs telemetry-free and no manifest is
//! produced.

use crate::error::PipelineError;
use crate::pipeline::{
    analyze_corpus_with, run_checkpointed, AnalyzeOptions, AnalyzedCorpus, CheckpointUse,
    SeldonOptions, SeldonRun,
};
use crate::report::{AnalysisReport, CacheFaultReport, FileOutcome};
use seldon_cache::{ArtifactCache, SystemSummary};
use seldon_corpus::Corpus;
use seldon_solver::Solution;
use seldon_specs::TaintSpec;
use seldon_taint::{TaintAnalyzer, Violation};
use seldon_telemetry::{
    metric, stage, Class, Histogram, MemoryGauge, MetricDef, MetricsRegistry, RunManifest,
    ScoreDumpEntry, Telemetry,
};

/// Everything one full pipeline run produces.
#[derive(Debug)]
pub struct FullRun {
    /// The analyzed corpus (global graph + file metadata).
    pub analyzed: AnalyzedCorpus,
    /// Per-file fault/budget outcomes.
    pub report: AnalysisReport,
    /// Constraint system, solution, and extraction.
    pub run: SeldonRun,
    /// Unsanitized source→sink flows found with the seed + learned spec.
    pub violations: Vec<Violation>,
    /// How the solver warm-start checkpoint was used (outcome
    /// `Disabled` when no cache was attached).
    pub checkpoint: CheckpointUse,
    /// The assembled manifest; `None` unless the telemetry handle in
    /// [`AnalyzeOptions`] was recording.
    pub manifest: Option<RunManifest>,
}

/// Runs the complete eight-stage pipeline over `corpus` and assembles the
/// run manifest from whatever the telemetry handle recorded.
///
/// The taint stage merges the learned specification over the seed and
/// reuses the extraction's per-event role assignments, so backoff-learned
/// roles reach the analyzer even for representations below the cutoff.
///
/// # Errors
///
/// Propagates [`analyze_corpus_with`] errors (first bad file under
/// [`FaultPolicy::FailFast`](crate::FaultPolicy::FailFast)).
pub fn run_full(
    corpus: &Corpus,
    seed: &TaintSpec,
    command: &str,
    analyze: &AnalyzeOptions,
    seldon: &SeldonOptions,
) -> Result<FullRun, PipelineError> {
    let tele = analyze.telemetry.clone();
    let (analyzed, mut report) = analyze_corpus_with(corpus, analyze)?;
    // With a cache, the analysis folded the graph key from its per-file
    // fingerprints, so the union is never hashed.
    let graph_key = || analyzed.graph_key.expect("a cached analysis folds its graph key");
    let (run, checkpoint) = run_checkpointed(
        &analyzed.graph,
        graph_key,
        seed,
        seldon,
        &tele,
        analyze.cache.as_deref(),
    );
    report.cache_faults.extend(checkpoint.faults.iter().cloned().map(CacheFaultReport::checkpoint));

    let mut full_spec = seed.clone();
    full_spec.merge(&run.extraction.spec);
    let taint_span = tele.span(stage::TAINT);
    let analyzer =
        TaintAnalyzer::with_event_roles(&analyzed.graph, &full_spec, &run.extraction.event_roles);
    let violations = analyzer.find_violations();
    taint_span.counter("violations", violations.len() as f64);
    drop(taint_span);

    let manifest = tele.is_recording().then(|| {
        assemble_manifest(
            command,
            corpus,
            &analyzed,
            &report,
            &run,
            seldon,
            &violations,
            &tele,
            analyze,
            &checkpoint,
        )
    });
    Ok(FullRun { analyzed, report, run, violations, checkpoint, manifest })
}

/// Folds the recorded spans and pipeline artifacts into a [`RunManifest`].
/// Drains the telemetry recorder.
#[allow(clippy::too_many_arguments)]
fn assemble_manifest(
    command: &str,
    corpus: &Corpus,
    analyzed: &AnalyzedCorpus,
    report: &AnalysisReport,
    run: &SeldonRun,
    seldon: &SeldonOptions,
    violations: &[Violation],
    tele: &Telemetry,
    analyze: &AnalyzeOptions,
    checkpoint: &CheckpointUse,
) -> RunManifest {
    let mut m = RunManifest::new(command);
    m.stages = tele.take_spans().into_iter().map(Into::into).collect();
    let (files, projects) = (corpus.file_count(), corpus.projects.len());
    let shape = [files, projects, analyzed.graph.event_count(), analyzed.graph.edge_count()];
    record_corpus(&mut m.metrics, shape, report.files.iter().map(|f| &f.outcome));
    // A full checkpoint hit leaves the in-memory system empty, so the
    // shape comes from the checkpoint's replay summary.
    let system =
        checkpoint.summary.unwrap_or_else(|| SystemSummary::of(&run.system, &run.gen_stats));
    record_learning(
        &mut m,
        &system,
        &run.solution,
        &run.extraction.backoff_hits,
        learned_per_role(&run.extraction.spec),
        seldon,
        analyze.cache.as_deref().map(|cache| (cache, checkpoint.outcome.label())),
    );
    m.metrics.gauge(&metric::TAINT_VIOLATIONS, violations.len() as f64);
    fill_metrics(&mut m, analyzed, run, report);
    if seldon.score_dump {
        m.score_dump = score_dump(run);
    }
    m
}

/// Learned entries per role `[sources, sanitizers, sinks]` of a spec.
pub fn learned_per_role(spec: &TaintSpec) -> [u64; 3] {
    let mut learned = [0u64; 3];
    for (_, roles) in spec.iter() {
        for role in roles.iter() {
            learned[role.index()] += 1;
        }
    }
    learned
}

fn gauges<const N: usize>(reg: &mut MetricsRegistry, defs: &[MetricDef; N], values: [f64; N]) {
    for (def, v) in defs.iter().zip(values) {
        reg.gauge(def, v);
    }
}

/// Writes the corpus shape `[files, projects, graph events, graph edges]`
/// and the per-file outcome counts, for `learn` and `serve` alike.
pub fn record_corpus<'a>(
    reg: &mut MetricsRegistry,
    shape: [usize; 4],
    outcomes: impl IntoIterator<Item = &'a FileOutcome>,
) {
    let mut counts = [0.0; 4];
    for outcome in outcomes {
        counts[match outcome {
            FileOutcome::Ok => 0,
            FileOutcome::Recovered { .. } => 1,
            FileOutcome::OverBudget { .. } => 2,
            FileOutcome::Panicked { .. } => 3,
        }] += 1.0;
    }
    gauges(reg, &metric::CORPUS, shape.map(|n| n as f64));
    gauges(reg, &metric::OUTCOMES, counts);
}

/// Writes what `learn` and `serve` share about the last build: the
/// constraint system's shape, the solver outcome and convergence curve,
/// the extraction sweep, the cache counters with the checkpoint rung's
/// label, and memory.
pub fn record_learning(
    m: &mut RunManifest,
    system: &SystemSummary,
    solution: &Solution,
    backoff_hits: &[usize],
    learned: [u64; 3],
    seldon: &SeldonOptions,
    cache: Option<(&ArtifactCache, &str)>,
) {
    m.curve = solution.trace.clone();
    if let Some((_, label)) = cache {
        m.checkpoint = label.to_string();
    }
    let reg = &mut m.metrics;
    let constraints = [system.constraints, system.vars, system.pinned];
    gauges(reg, &metric::CONSTRAINTS, constraints.map(|n| n as f64));
    gauges(reg, &metric::TEMPLATES, system.by_template.map(|n| n as f64));
    for (def, v) in [
        (metric::SOLVER_ITERATIONS, solution.iterations as f64),
        (metric::SOLVER_RESTARTS, solution.restarts as f64),
        (metric::SOLVER_DIVERGED, f64::from(u8::from(solution.diverged))),
        (metric::SOLVER_FINAL_LR, solution.final_lr),
        (metric::SOLVER_OBJECTIVE, solution.objective),
        (metric::SOLVER_VIOLATION, solution.violation),
        (metric::SOLVER_THREADS, seldon.solve.threads.max(1) as f64),
        (metric::SOLVER_STOP_REASON, f64::from(solution.stop.code())),
        (metric::SOLVER_EPOCHS_SAVED, solution.epochs_saved as f64),
        (metric::DECAY, seldon.extract.decay),
    ] {
        reg.gauge(&def, v);
    }
    gauges(reg, &metric::THRESHOLDS, seldon.extract.thresholds);
    // Bucket i counts the selections at backoff level i; the bounds cover
    // every level a representation chain can reach.
    let levels = seldon_propgraph::repr::MAX_REPS.max(backoff_hits.len());
    let mut hits = Histogram::new(&(0..levels).map(|i| i as f64).collect::<Vec<_>>());
    for (level, &n) in backoff_hits.iter().enumerate() {
        hits.counts[level] = n as u64;
        hits.sum += (level * n) as f64;
    }
    let def = metric::BACKOFF_HITS;
    reg.put_histogram(def.name, def.help, def.class, hits);
    gauges(reg, &metric::LEARNED, learned.map(|n| n as f64));
    if let Some((cache, _)) = cache {
        let s = cache.stats();
        let faults = s.corrupt + s.stale + s.evicted;
        let counts = [
            s.hits,
            s.misses,
            s.stores,
            s.corrupt,
            s.stale,
            s.evicted,
            faults,
            s.bytes_read,
            s.bytes_written,
        ];
        for (def, n) in metric::CACHE.iter().zip(counts) {
            reg.counter(def, n as f64);
        }
        let lookups = s.hits + s.misses;
        if lookups > 0 {
            reg.gauge(&metric::CACHE_HIT_RATE, s.hits as f64 / lookups as f64);
        }
    }
    let memory = [
        MemoryGauge::current_bytes(),
        MemoryGauge::peak_bytes(),
        MemoryGauge::peak_rss_bytes().unwrap_or(0),
    ];
    gauges(reg, &metric::MEMORY, memory.map(|n| n as f64));
}

/// Representation-frequency buckets: how many backoff options a
/// representation backs across the whole graph (§4.3 cutoff input).
const REP_FREQ_BOUNDS: [f64; 10] =
    [1.0, 2.0, 3.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 1000.0];

/// Constraint-gap buckets: `lhs − rhs` per constraint under the solved
/// assignment (violation is `max(0, gap − C)`, so mass above `C` ≈ 0.75
/// means unsatisfied constraints).
const GAP_BOUNDS: [f64; 10] =
    [-1.0, -0.5, -0.25, -0.1, 0.0, 0.1, 0.25, 0.5, 0.75, 1.0];

/// Populates the batch-only metrics from the finished pipeline artifacts.
/// Runs once per manifest — never on the per-file hot path — so the
/// no-telemetry overhead budget is untouched.
fn fill_metrics(
    m: &mut RunManifest,
    analyzed: &AnalyzedCorpus,
    run: &SeldonRun,
    report: &AnalysisReport,
) {
    let reg = &mut m.metrics;
    reg.inc_counter(
        "files_analyzed",
        "Files that produced a propagation graph (ok + recovered).",
        Class::Identity,
        (report.ok() + report.recovered()) as f64,
    );
    // Identity: the union's table holds each text once, in first-link
    // order, so two runs over the same inputs must agree.
    reg.gauge(&metric::INTERN_SYMBOLS, analyzed.graph.symbols().len() as f64);
    // Representation frequency distribution over the union graph: every
    // rep counted once per backoff option it appears in. Present even
    // when empty so `validate_manifest --require-full` can demand it.
    let mut rep_freq = Histogram::new(&REP_FREQ_BOUNDS);
    for &count in analyzed.graph.rep_frequency_counts().iter().filter(|&&c| c > 0) {
        rep_freq.observe(count as f64);
    }
    reg.put_histogram(
        "rep_frequency",
        "Occurrences per representation across all backoff options (§4.3).",
        Class::Identity,
        rep_freq,
    );
    // Constraint gaps under the solved assignment, each row's gap counted
    // once per constraint it stands for. A full checkpoint hit replays
    // outputs without rebuilding the system, so the distribution is
    // unavailable (and the metric absent) on that path.
    if run.system.row_count() > 0 && run.solution.scores.len() >= run.system.var_count() {
        let mut gaps = Histogram::new(&GAP_BOUNDS);
        for row in run.system.rows() {
            let gap = row.gap(&run.solution.scores);
            for _ in 0..row.weight {
                gaps.observe(gap);
            }
        }
        reg.put_histogram(
            "constraint_gap",
            "Per-constraint lhs−rhs under the solved scores (violated above C).",
            Class::Identity,
            gaps,
        );
    }
    for (frontend, hist) in &analyzed.parse_histograms {
        let def = metric::PARSE_TIME;
        reg.put_histogram(&metric::parse_time(frontend), def.help, def.class, hist.clone());
    }
    if let Some(hist) = analyzed.build_histogram.as_ref().filter(|h| !h.is_empty()) {
        reg.put_histogram(
            "build_time_us",
            "Per-file graph-construction time (µs), analyzed files only.",
            Class::Cost,
            hist.clone(),
        );
    }
    // Solver epoch timing and CSR occupancy. Rows/lanes come from the
    // compile child span; checkpoint-served solves never compiled and
    // simply omit them.
    if run.solution.iterations > 0 {
        reg.set_gauge(
            "solver_epoch_us",
            "Mean wall-clock per solver epoch (µs).",
            Class::Cost,
            run.solve_time.as_micros() as f64 / run.solution.iterations as f64,
        );
    }
    if let Some(compile) = m.stages.iter().find(|s| s.name == stage::COMPILE) {
        for (key, gauge, help) in [
            ("rows", "solver_rows", "CSR rows after compilation."),
            ("lanes", "solver_lanes", "SIMD lanes occupied by the CSR kernel."),
        ] {
            if let Some(&(_, v)) = compile.counters.iter().find(|(k, _)| k == key) {
                reg.set_gauge(gauge, help, Class::Identity, v);
            }
        }
    }
}

/// The Fig. 11 dataset: every learned `(rep, role)` with its effective
/// score and winning backoff level, in deterministic (rep, role) order.
fn score_dump(run: &SeldonRun) -> Vec<ScoreDumpEntry> {
    let mut entries: Vec<ScoreDumpEntry> = run
        .extraction
        .scores
        .iter()
        .map(|(&(rep, role), &score)| ScoreDumpEntry {
            rep: run.system.rep_text(rep).to_string(),
            role: role.short().to_string(),
            score,
            backoff_level: u64::from(
                run.extraction.levels.get(&(rep, role)).copied().unwrap_or(0),
            ),
        })
        .collect();
    entries.sort_by(|a, b| a.rep.cmp(&b.rep).then_with(|| a.role.cmp(&b.role)));
    entries
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::FaultPolicy;
    use seldon_corpus::{generate_corpus, CorpusOptions, Universe};

    fn small_corpus() -> (Corpus, TaintSpec) {
        let universe = Universe::new();
        let corpus = generate_corpus(
            &universe,
            &CorpusOptions { projects: 6, ..Default::default() },
        );
        let seed = universe.seed_spec();
        (corpus, seed)
    }

    #[test]
    fn disabled_telemetry_produces_no_manifest() {
        let (corpus, seed) = small_corpus();
        let full = run_full(
            &corpus,
            &seed,
            "learn",
            &AnalyzeOptions::default(),
            &SeldonOptions::default(),
        )
        .unwrap();
        assert!(full.manifest.is_none());
        assert!(full.run.system.constraint_count() > 0);
    }

    #[test]
    fn recording_run_emits_complete_manifest() {
        let (corpus, seed) = small_corpus();
        let opts = AnalyzeOptions {
            policy: FaultPolicy::Recover,
            telemetry: Telemetry::recording(),
            ..Default::default()
        };
        let full =
            run_full(&corpus, &seed, "learn", &opts, &SeldonOptions::default()).unwrap();
        let m = full.manifest.expect("recording handle yields a manifest");
        assert!(m.has_all_stages(), "stages: {:?}",
            m.stages.iter().map(|s| s.name.clone()).collect::<Vec<_>>());
        assert!(!m.curve.is_empty(), "default stride traces the solver");
        let value = |name: &str| m.metrics.value(name).unwrap_or(-1.0);
        assert_eq!(
            seldon_telemetry::metric::TEMPLATES.iter().map(|d| value(d.name)).sum::<f64>(),
            value("constraints_total")
        );
        assert_eq!(value("corpus_files"), corpus.file_count() as f64);
        assert_eq!(value("files_ok"), corpus.file_count() as f64);
        // Every parsed file lands in exactly one parse-time bucket, tagged
        // by the frontend that parsed it (all Python here).
        let parse_times: Vec<&str> = m
            .metrics
            .metrics()
            .iter()
            .filter(|metric| metric.name.starts_with("parse_time_us_"))
            .map(|metric| metric.name.as_str())
            .collect();
        assert_eq!(parse_times, ["parse_time_us_python"]);
        let python = m.metrics.histogram("parse_time_us_python").unwrap();
        assert_eq!(python.total(), corpus.file_count() as u64);
        // The manifest round-trips through its JSON form losslessly.
        let back = RunManifest::from_json(&m.to_json()).unwrap();
        assert_eq!(back, m);
    }
}
