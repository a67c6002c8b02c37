//! Per-layer metrics: the names and units `BENCHMARK.json` lists, and how
//! they are derived from the spans a traced run records.
//!
//! Each traced op is one root span (`learn` or `delta`); every layer span
//! is its direct child. A child's duration feeds the `<layer>.<x>_ms`
//! metric its name maps to, and its counters are already named after the
//! metrics they feed. Per-op values are summarized by their median over
//! the traced ops; `serve.deltas.*` and `serve.reparsed` are totals over
//! the traced deltas instead.

use crate::stats::{median, Metric};
use seldon_telemetry::SpanRecord;
use std::collections::BTreeMap;

/// Every per-layer metric, in report order, with its unit. A layer that
/// does not run on a workload reports 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.read_ms", "ms"),
    ("core.checkpointed_ms", "ms"),
    ("core.unattributed_ms", "ms"),
    ("core.checkpoint_cold", "count"),
    ("core.checkpoint_reused", "count"),
    ("pyast.parse_ms", "ms"),
    ("pyast.files", "count"),
    ("pyast.mb_per_s", "MB/s"),
    ("pyast.lenient_retries", "count"),
    ("jsfront.build_ms", "ms"),
    ("jsfront.files", "count"),
    ("propgraph.lower_ms", "ms"),
    ("propgraph.build_ir_ms", "ms"),
    ("propgraph.union_ms", "ms"),
    ("propgraph.events", "count"),
    ("propgraph.edges", "count"),
    ("cache.open_ms", "ms"),
    ("cache.load_ms", "ms"),
    ("cache.store_ms", "ms"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.bytes_read", "bytes"),
    ("cache.bytes_written", "bytes"),
    ("cache.faults", "count"),
    ("constraints.gen_ms", "ms"),
    ("constraints.count", "count"),
    ("constraints.vars", "count"),
    ("constraints.candidate_events", "count"),
    ("constraints.surviving_reps", "count"),
    ("solver.compile_ms", "ms"),
    ("solver.solve_ms", "ms"),
    ("solver.iterations", "count"),
    ("solver.ms_per_iter", "ms"),
    ("solver.rows", "count"),
    ("solver.extract_ms", "ms"),
    ("solver.learned_entries", "count"),
    ("taint.ms", "ms"),
    ("taint.violations", "count"),
    ("serve.apply_ms.unchanged", "ms"),
    ("serve.apply_ms.replayed", "ms"),
    ("serve.apply_ms.scores", "ms"),
    ("serve.apply_ms.cold", "ms"),
    ("serve.deltas.unchanged", "count"),
    ("serve.deltas.replayed", "count"),
    ("serve.deltas.scores", "count"),
    ("serve.deltas.cold", "count"),
    ("serve.reparsed", "count"),
    ("serve.fragment_reuse_ratio", "ratio"),
    ("serve.daemon_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("scale.pyast.us_per_file.p75", "us"),
    ("scale.pyast.us_per_file.p150", "us"),
    ("scale.pyast.us_per_file.p300", "us"),
    ("scale.pyast.us_per_file.p600", "us"),
    ("scale.propgraph.us_per_file.p75", "us"),
    ("scale.propgraph.us_per_file.p150", "us"),
    ("scale.propgraph.us_per_file.p300", "us"),
    ("scale.propgraph.us_per_file.p600", "us"),
    ("scale.constraints.us_per_file.p75", "us"),
    ("scale.constraints.us_per_file.p150", "us"),
    ("scale.constraints.us_per_file.p300", "us"),
    ("scale.constraints.us_per_file.p600", "us"),
    ("scale.solver.us_per_file.p75", "us"),
    ("scale.solver.us_per_file.p150", "us"),
    ("scale.solver.us_per_file.p300", "us"),
    ("scale.solver.us_per_file.p600", "us"),
    ("scale.taint.us_per_file.p75", "us"),
    ("scale.taint.us_per_file.p150", "us"),
    ("scale.taint.us_per_file.p300", "us"),
    ("scale.taint.us_per_file.p600", "us"),
    ("scale.max_doubling_ratio", "ratio"),
];

/// Layer span name → the time metric its duration feeds.
const SPAN_METRICS: &[(&str, &str)] = &[
    ("core.read", "core.read_ms"),
    ("core.checkpointed", "core.checkpointed_ms"),
    ("cache.open", "cache.open_ms"),
    ("cache.load", "cache.load_ms"),
    ("cache.store", "cache.store_ms"),
    ("pyast.parse", "pyast.parse_ms"),
    ("jsfront.build", "jsfront.build_ms"),
    ("propgraph.lower", "propgraph.lower_ms"),
    ("propgraph.build_ir", "propgraph.build_ir_ms"),
    ("propgraph.union", "propgraph.union_ms"),
    ("constraints.gen", "constraints.gen_ms"),
    ("solver.compile", "solver.compile_ms"),
    ("solver.solve", "solver.solve_ms"),
    ("solver.extract", "solver.extract_ms"),
    ("taint", "taint.ms"),
    ("serve.read", "serve.read_ms"),
    ("serve.apply", "serve.apply_ms"),
    ("serve.respond", "serve.respond_ms"),
];

/// One traced op's layer values: child span times under their metric
/// names, child counters, `op_ms` (the root span) and
/// `core.unattributed_ms` (root time no child span covers).
pub type OpLayers = BTreeMap<String, f64>;

/// The per-op layer values of every root span named `root`, in order.
pub fn per_op(spans: &[SpanRecord], root: &str) -> Vec<OpLayers> {
    let mut ops: Vec<(u32, OpLayers)> = Vec::new();
    for (index, span) in spans.iter().enumerate() {
        let ms = span.dur_us as f64 / 1e3;
        if span.depth == 0 && span.name == root {
            let mut op = OpLayers::new();
            op.insert("op_ms".into(), ms);
            op.insert("core.unattributed_ms".into(), ms);
            ops.push((index as u32, op));
            continue;
        }
        let Some((_, op)) = ops.iter_mut().rev().find(|(i, _)| Some(*i) == span.parent) else {
            continue;
        };
        if let Some((_, metric)) = SPAN_METRICS.iter().find(|(name, _)| *name == span.name) {
            *op.entry((*metric).into()).or_default() += ms;
            *op.get_mut("core.unattributed_ms").expect("inserted with the root") -= ms;
        }
        for (name, value) in &span.counters {
            *op.entry((*name).into()).or_default() += value;
        }
    }
    ops.into_iter().map(|(_, op)| op).collect()
}

/// The per-layer values of one traced run, by metric name.
#[derive(Debug, Default)]
pub struct LayerSamples(BTreeMap<String, f64>);

impl LayerSamples {
    /// Sets one metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }

    /// Records the median over `ops` of every per-op value whose name is
    /// a per-layer metric, plus the ratios derived per op.
    pub fn set_medians(&mut self, ops: &[OpLayers]) {
        let of = |op: &OpLayers, k: &str| op.get(k).copied().unwrap_or(0.0);
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let mut series: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for op in ops {
            for (k, v) in op {
                series.entry(k.clone()).or_default().push(*v);
            }
            let derived = [
                (
                    "cache.hit_ratio",
                    ratio(of(op, "cache.hits"), of(op, "cache.hits") + of(op, "cache.misses")),
                ),
                // bytes per millisecond / 1000 = MB per second
                ("pyast.mb_per_s", ratio(of(op, "pyast.bytes"), of(op, "pyast.parse_ms")) / 1e3),
                (
                    "solver.ms_per_iter",
                    ratio(of(op, "solver.solve_ms"), of(op, "solver.iterations")),
                ),
            ];
            for (k, v) in derived {
                series.entry(k.into()).or_default().push(v);
            }
        }
        for (name, values) in series {
            if PER_LAYER.iter().any(|(n, _)| *n == name) {
                self.set(name, median(&values));
            }
        }
    }

    /// Records `trace.overhead_pct`: how much slower the traced op's p50
    /// is than the untraced op's, in percent of the untraced p50.
    pub fn set_overhead(&mut self, untraced_ms: &[f64], traced_ms: &[f64]) {
        let base = median(untraced_ms);
        self.set("trace.overhead_pct", 100.0 * (median(traced_ms) - base) / base);
    }

    /// Every per-layer metric in report order; 0 for layers that did not
    /// run.
    pub fn into_metrics(self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|(name, unit)| Metric {
                name: (*name).to_string(),
                value: self.0.get(*name).copied().unwrap_or(0.0),
                unit,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seldon_telemetry::Telemetry;
    use std::time::Duration;

    #[test]
    fn child_spans_and_counters_fold_into_their_root_op() {
        let tele = Telemetry::recording();
        for _ in 0..2 {
            let op = tele.span("learn");
            tele.aggregate_child(
                op.index(),
                "pyast.parse",
                Duration::from_millis(4),
                &[("pyast.files", 3.0), ("pyast.bytes", 8e3)],
            );
            let union = tele.span("propgraph.union");
            union.counter("propgraph.events", 10.0);
            drop(union);
            drop(op);
        }
        let ops = per_op(&tele.take_spans(), "learn");
        assert_eq!(ops.len(), 2);
        assert_eq!(ops[0]["pyast.parse_ms"], 4.0);
        assert_eq!(ops[0]["pyast.files"], 3.0);
        assert_eq!(ops[0]["propgraph.events"], 10.0);
        let unattributed =
            ops[0]["op_ms"] - ops[0]["pyast.parse_ms"] - ops[0]["propgraph.union_ms"];
        assert!((ops[0]["core.unattributed_ms"] - unattributed).abs() < 1e-9);

        let mut samples = LayerSamples::default();
        samples.set_medians(&ops);
        assert_eq!(samples.0.get("pyast.files"), Some(&3.0));
        assert_eq!(samples.0.get("pyast.mb_per_s"), Some(&(8e3 / 4.0 / 1e3)));
        assert_eq!(samples.0.get("op_ms"), None, "only per-layer metrics are kept");
        let metrics = samples.into_metrics();
        assert_eq!(metrics.len(), PER_LAYER.len());
        assert_eq!(metrics.iter().find(|m| m.name == "cache.hits").map(|m| m.value), Some(0.0));
    }
}
