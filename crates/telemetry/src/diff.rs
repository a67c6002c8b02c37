//! Run-to-run comparison: the engine behind `seldon diff-runs`.
//!
//! Every manifest metric carries the [`Class`] it was registered with,
//! and the class alone picks its treatment:
//!
//! * **Identity** metrics (counts, solver outcomes, learned-spec shape)
//!   are compared exactly — the pipeline is deterministic, so any
//!   mismatch between two runs of the same input is a real behavioral
//!   change and counts as a regression.
//! * **Cost** metrics and stage durations are compared with a relative
//!   tolerance plus an absolute slack floor picked by unit suffix, so
//!   scheduler noise on small numbers does not trip the gate. A candidate
//!   beyond tolerance above the baseline is a regression; beyond
//!   tolerance below, an improvement.
//! * **State** metrics (memory readings, cache counters that depend on
//!   what was on disk) are reported as informational notes and never
//!   gate.

use crate::manifest::RunManifest;
use crate::metrics::{Class, MetricValue};

/// Comparison thresholds.
#[derive(Debug, Clone, Copy)]
pub struct DiffOptions {
    /// Relative tolerance (percent) for cost fields; `seldon diff-runs`
    /// uses the default ±15% unless given `--tolerance`.
    pub tolerance_pct: f64,
    /// Absolute slack (microseconds) under which stage-duration drift
    /// never gates, regardless of the relative change.
    pub timing_slack_us: f64,
}

impl Default for DiffOptions {
    fn default() -> Self {
        DiffOptions { tolerance_pct: 15.0, timing_slack_us: 25_000.0 }
    }
}

/// Parses a `--tolerance` value: a finite, non-negative percentage. NaN
/// would make every comparison false and so silently pass every cost, and
/// a negative tolerance would flag noise as regressions.
///
/// # Errors
///
/// A usage message naming the rejected text.
pub fn parse_tolerance_pct(text: &str) -> Result<f64, String> {
    match text.parse::<f64>() {
        Ok(pct) if pct.is_finite() && pct >= 0.0 => Ok(pct),
        _ => Err(format!("--tolerance expects a finite percentage >= 0, got `{text}`")),
    }
}

/// Outcome of one comparison: classified lines plus tallies.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// Human-readable lines, one per observed difference.
    pub lines: Vec<String>,
    /// Gating differences (identity mismatches, cost beyond tolerance).
    pub regressions: usize,
    /// Cost fields beyond tolerance in the good direction.
    pub improvements: usize,
    /// Non-gating differences (machine state, metadata).
    pub notes: usize,
}

impl DiffReport {
    fn regress(&mut self, msg: String) {
        self.regressions += 1;
        self.lines.push(format!("REGRESSION  {msg}"));
    }

    fn improve(&mut self, msg: String) {
        self.improvements += 1;
        self.lines.push(format!("improvement {msg}"));
    }

    fn note(&mut self, msg: String) {
        self.notes += 1;
        self.lines.push(format!("note        {msg}"));
    }

    /// Whether the candidate regressed against the baseline.
    pub fn regressed(&self) -> bool {
        self.regressions > 0
    }

    /// Renders the full report with a one-line verdict at the end.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for line in &self.lines {
            out.push_str(line);
            out.push('\n');
        }
        if self.lines.is_empty() {
            out.push_str("no differences\n");
        }
        out.push_str(&format!(
            "verdict: {} regression(s), {} improvement(s), {} note(s)\n",
            self.regressions, self.improvements, self.notes
        ));
        out
    }

    /// Exact comparison of an identity field; mismatch is a regression.
    fn identity<T: PartialEq + std::fmt::Display>(&mut self, path: &str, a: T, b: T) {
        if a != b {
            self.regress(format!("{path}: {a} -> {b} (identity field changed)"));
        }
    }

    /// Tolerance comparison of a cost field (larger is worse).
    fn cost(&mut self, path: &str, a: f64, b: f64, slack: f64, opts: &DiffOptions) {
        let tol = opts.tolerance_pct / 100.0;
        if (b - a).abs() <= slack {
            return;
        }
        if b > a * (1.0 + tol) {
            self.regress(format!("{path}: {a} -> {b} (+{:.1}% > {:.0}%)", pct(a, b), opts.tolerance_pct));
        } else if b < a * (1.0 - tol) {
            self.improve(format!("{path}: {a} -> {b} ({:.1}%)", pct(a, b)));
        }
    }
}

fn pct(a: f64, b: f64) -> f64 {
    if a == 0.0 {
        100.0
    } else {
        (b - a) / a * 100.0
    }
}

/// Compares two run manifests: stage durations with tolerance, then every
/// registry metric by the [`Class`] it was registered with — identity
/// metrics exactly, costs with tolerance, machine state as notes.
pub fn diff_manifests(a: &RunManifest, b: &RunManifest, opts: &DiffOptions) -> DiffReport {
    let mut r = DiffReport::default();
    for (field, x, y) in [
        ("schema_version", a.schema_version.to_string(), b.schema_version.to_string()),
        ("command", a.command.clone(), b.command.clone()),
        ("checkpoint", a.checkpoint.clone(), b.checkpoint.clone()),
    ] {
        if x != y {
            r.note(format!("{field}: {x} -> {y}"));
        }
    }

    // Stage durations: compare top-level stages that exist on both sides;
    // presence differences (e.g. the optional cache span) are notes.
    for sa in a.stages.iter().filter(|s| s.depth == 0) {
        match b.stages.iter().find(|s| s.depth == 0 && s.name == sa.name) {
            Some(sb) => {
                let path = format!("stages.{}.dur_us", sa.name);
                r.cost(&path, sa.dur_us as f64, sb.dur_us as f64, opts.timing_slack_us, opts);
                if sa.mem_peak_bytes != sb.mem_peak_bytes {
                    r.note(format!(
                        "stages.{}.mem_peak_bytes: {} -> {} (machine state)",
                        sa.name, sa.mem_peak_bytes, sb.mem_peak_bytes
                    ));
                }
            }
            None => r.note(format!("stage `{}` only in baseline", sa.name)),
        }
    }
    for sb in b.stages.iter().filter(|s| s.depth == 0) {
        if !a.stages.iter().any(|s| s.depth == 0 && s.name == sb.name) {
            r.note(format!("stage `{}` only in candidate", sb.name));
        }
    }
    if a.curve.len() != b.curve.len() {
        r.note(format!("curve: {} -> {} samples", a.curve.len(), b.curve.len()));
    }

    for ma in a.metrics.metrics() {
        let Some(mb) = b.metrics.get(&ma.name) else {
            r.note(format!("metric `{}` only in baseline", ma.name));
            continue;
        };
        let path = format!("metrics.{}", ma.name);
        match (&ma.value, &mb.value) {
            (MetricValue::Counter(x), MetricValue::Counter(y))
            | (MetricValue::Gauge(x), MetricValue::Gauge(y)) => match ma.class {
                Class::Identity => r.identity(&path, *x, *y),
                Class::Cost => r.cost(&path, *x, *y, unit_slack(&ma.name), opts),
                Class::State if x != y => r.note(format!("{path}: {x} -> {y} (machine state)")),
                Class::State => {}
            },
            (MetricValue::Histogram(x), MetricValue::Histogram(y)) => {
                // Totals are deterministic for every class (how many files
                // a frontend parsed); only identity histograms also pin
                // the bucket spread.
                r.identity(&format!("{path}.total"), x.total(), y.total());
                if ma.class == Class::Identity && x.counts != y.counts {
                    r.regress(format!("{path}: bucket counts changed (identity histogram)"));
                }
            }
            _ => r.regress(format!("{path}: metric kind changed")),
        }
    }
    for mb in b.metrics.metrics() {
        if a.metrics.get(&mb.name).is_none() {
            r.note(format!("metric `{}` only in candidate", mb.name));
        }
    }

    if a.score_dump != b.score_dump {
        r.regress(format!(
            "score_dump: {} -> {} entries or changed content (identity field)",
            a.score_dump.len(),
            b.score_dump.len()
        ));
    }

    r
}

/// Absolute gating slack for a cost metric, by unit suffix: drift
/// smaller than this never gates, however large in relative terms.
/// Metrics without a unit suffix get none.
fn unit_slack(key: &str) -> f64 {
    if key.ends_with("_ns") {
        10_000_000.0 // 10ms in ns
    } else if key.ends_with("_us") {
        10_000.0 // 10ms in µs
    } else if key.ends_with("_ms") {
        10.0
    } else if key.ends_with("_s") {
        0.01
    } else if key.ends_with("_bytes") {
        (1 << 20) as f64 // 1 MiB
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::{metric, ScoreDumpEntry, StageSpan};
    use crate::metrics::{Histogram, MetricDef};

    #[test]
    fn tolerance_must_be_a_finite_non_negative_percentage() {
        assert_eq!(parse_tolerance_pct("15"), Ok(15.0));
        assert_eq!(parse_tolerance_pct("0"), Ok(0.0));
        assert_eq!(parse_tolerance_pct("2.5"), Ok(2.5));
        for bad in ["nan", "NaN", "inf", "-inf", "-1", "-0.5", "", "abc", "1e999"] {
            let err = parse_tolerance_pct(bad).unwrap_err();
            assert!(err.contains(&format!("`{bad}`")), "{bad}: {err}");
        }
    }

    fn base_manifest() -> RunManifest {
        let mut m = RunManifest::new("learn");
        m.metrics.gauge(&metric::CORPUS[0], 6.0);
        m.metrics.gauge(&metric::TAINT_VIOLATIONS, 2.0);
        m.metrics.gauge(&metric::MEMORY[1], 0.0);
        m.metrics.counter(&metric::CACHE[0], 0.0);
        m.stages.push(StageSpan {
            name: "solve".into(),
            parent: None,
            depth: 0,
            start_us: 0,
            dur_us: 1_000_000,
            mem_now_bytes: 10,
            mem_peak_bytes: 20,
            counters: vec![],
        });
        m.metrics.inc_counter("files_analyzed", "files", Class::Identity, 6.0);
        m
    }

    #[test]
    fn identical_manifests_produce_no_regressions() {
        let m = base_manifest();
        let r = diff_manifests(&m, &m.clone(), &DiffOptions::default());
        assert!(!r.regressed(), "{}", r.render());
        assert_eq!(r.improvements, 0);
    }

    #[test]
    fn identity_change_regresses() {
        let a = base_manifest();
        let mut b = base_manifest();
        b.metrics.gauge(&metric::TAINT_VIOLATIONS, 5.0);
        let r = diff_manifests(&a, &b, &DiffOptions::default());
        assert!(r.regressed());
        assert!(r.render().contains("taint_violations"));
    }

    #[test]
    fn timing_gates_with_tolerance_and_slack() {
        let a = base_manifest();
        // +30% on a 1s stage: regression.
        let mut slow = base_manifest();
        slow.stages[0].dur_us = 1_300_000;
        assert!(diff_manifests(&a, &slow, &DiffOptions::default()).regressed());
        // -30%: improvement, not a regression.
        let mut fast = base_manifest();
        fast.stages[0].dur_us = 700_000;
        let r = diff_manifests(&a, &fast, &DiffOptions::default());
        assert!(!r.regressed());
        assert_eq!(r.improvements, 1);
        // +30% on a 10ms stage: inside the 25ms slack, no gate.
        let mut a_small = base_manifest();
        a_small.stages[0].dur_us = 10_000;
        let mut b_small = base_manifest();
        b_small.stages[0].dur_us = 13_000;
        assert!(!diff_manifests(&a_small, &b_small, &DiffOptions::default()).regressed());
    }

    #[test]
    fn memory_and_cache_changes_are_notes() {
        let a = base_manifest();
        let mut b = base_manifest();
        b.metrics.gauge(&metric::MEMORY[1], 123_456_789.0);
        b.metrics.counter(&metric::CACHE[0], 42.0);
        b.stages[0].mem_peak_bytes = 999;
        let r = diff_manifests(&a, &b, &DiffOptions::default());
        assert!(!r.regressed(), "{}", r.render());
        assert!(r.notes >= 2);
    }

    #[test]
    fn volatile_metrics_gate_only_with_unit_suffix() {
        let mut a = base_manifest();
        a.metrics.set_gauge("solver_epoch_us", "epoch", Class::Cost, 100_000.0);
        a.metrics.set_gauge("cache_hit_rate", "rate", Class::State, 0.0);
        // Unsuffixed volatile scalar drifts: note only.
        let mut warm = a.clone();
        warm.metrics.set_gauge("cache_hit_rate", "rate", Class::State, 1.0);
        let r = diff_manifests(&a, &warm, &DiffOptions::default());
        assert!(!r.regressed(), "{}", r.render());
        assert!(r.render().contains("cache_hit_rate"), "{}", r.render());
        // Unit-suffixed volatile scalar beyond tolerance + slack: gates.
        let mut slow = a.clone();
        slow.metrics.set_gauge("solver_epoch_us", "epoch", Class::Cost, 150_000.0);
        assert!(diff_manifests(&a, &slow, &DiffOptions::default()).regressed());
        // Same relative drift inside the 10ms unit slack: no gate.
        let mut b_small = a.clone();
        b_small.metrics.set_gauge("solver_epoch_us", "epoch", Class::Cost, 109_000.0);
        assert!(!diff_manifests(&a, &b_small, &DiffOptions::default()).regressed());
    }

    #[test]
    fn score_dump_change_regresses() {
        let a = base_manifest();
        let mut b = base_manifest();
        b.score_dump.push(ScoreDumpEntry {
            rep: "x".into(),
            role: "sink".into(),
            score: 0.5,
            backoff_level: 1,
        });
        assert!(diff_manifests(&a, &b, &DiffOptions::default()).regressed());
    }

    /// One row per value the pre-v8 typed sections carried, registered
    /// with its catalogue class: changing it must regress for corpus,
    /// outcomes, constraints, solver, extraction and taint values, and
    /// must only note for cache counters and memory readings. The solver
    /// thread count records cost, not result shape, and notes too.
    #[test]
    fn former_section_values_have_pinned_diff_outcomes() {
        use metric::*;
        let solver = [
            SOLVER_ITERATIONS,
            SOLVER_RESTARTS,
            SOLVER_DIVERGED,
            SOLVER_FINAL_LR,
            SOLVER_OBJECTIVE,
            SOLVER_VIOLATION,
            SOLVER_STOP_REASON,
            SOLVER_EPOCHS_SAVED,
        ];
        let regress: Vec<MetricDef> = [
            &CORPUS[..],
            &[INTERN_SYMBOLS],
            &OUTCOMES,
            &CONSTRAINTS,
            &TEMPLATES,
            &solver,
            &THRESHOLDS,
            &[DECAY, BACKOFF_HITS],
            &LEARNED,
            &[TAINT_VIOLATIONS],
        ]
        .concat();
        let note: Vec<MetricDef> =
            [&CACHE[..], &[CACHE_HIT_RATE, SOLVER_THREADS], &MEMORY].concat();
        let levels = [0.0, 1.0, 2.0];
        let mut base = RunManifest::new("learn");
        for def in regress.iter().chain(&note) {
            if *def == BACKOFF_HITS {
                base.metrics.observe(def.name, def.help, def.class, &levels, 0.0);
            } else {
                base.metrics.gauge(def, 1.0);
            }
        }
        let parse_time = parse_time("python");
        let parse = |m: &mut RunManifest, us: f64| {
            let bounds = crate::PARSE_HIST_BOUNDS.map(|b| b as f64);
            m.metrics.observe(&parse_time, PARSE_TIME.help, PARSE_TIME.class, &bounds, us);
        };
        parse(&mut base, 40.0);
        let opts = DiffOptions::default();
        assert!(!diff_manifests(&base, &base.clone(), &opts).regressed());
        for (defs, regresses) in [(&regress, true), (&note, false)] {
            for def in defs {
                let mut changed = base.clone();
                if *def == BACKOFF_HITS {
                    changed.metrics.observe(def.name, def.help, def.class, &levels, 2.0);
                } else {
                    changed.metrics.gauge(def, 2.0);
                }
                let r = diff_manifests(&base, &changed, &opts);
                assert_eq!(r.regressed(), regresses, "{}: {}", def.name, r.render());
                assert!(regresses || r.notes == 1, "{}: {}", def.name, r.render());
                assert!(r.render().contains(def.name), "{}", r.render());
            }
        }
        // A parse-time histogram gates on how many files the frontend
        // parsed, never on which bucket their wall-clock time fell in.
        let mut slower = base.clone();
        slower.metrics.put_histogram(&parse_time, PARSE_TIME.help, PARSE_TIME.class, {
            let mut h = Histogram::with_u64_bounds(&crate::PARSE_HIST_BOUNDS);
            h.observe(9_000.0);
            h
        });
        assert!(!diff_manifests(&base, &slower, &opts).regressed());
        let mut more = base.clone();
        parse(&mut more, 40.0);
        assert!(diff_manifests(&base, &more, &opts).regressed());
        // The score dump is extraction output.
        let mut dumped = base.clone();
        dumped.score_dump.push(ScoreDumpEntry {
            rep: "x".into(),
            role: "snk".into(),
            score: 0.5,
            backoff_level: 0,
        });
        assert!(diff_manifests(&base, &dumped, &opts).regressed());
    }
}
