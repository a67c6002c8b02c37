//! Shared metrics primitives: fixed-bound histograms plus a named
//! registry of counters, gauges, and histograms with a Prometheus-style
//! text exposition.
//!
//! One [`Histogram`] implementation serves the whole workspace — the
//! per-frontend parse-time histograms in the manifest, the
//! representation-frequency and constraint-gap distributions, and any
//! future metric with fixed bucket bounds. The registry keeps metrics in
//! insertion order so that serialization (and the exposition text) is
//! deterministic, and each metric carries a [`Class`] fixed when it is
//! registered: whether the value is a pure function of the input corpus
//! (counts, rates), a wall-clock or byte cost, or machine state (memory,
//! cache temperature). The class alone decides what
//! [`MetricsRegistry::redact`] zeroes and how `diff-runs` compares it.

use crate::json::Json;
use crate::manifest::ManifestError;
use std::collections::HashMap;

/// A fixed-bound histogram: `bounds.len() + 1` buckets, where bucket `i`
/// counts observations `<= bounds[i]` (exclusive of earlier buckets) and
/// the final bucket counts everything above the last bound.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Upper bucket bounds, strictly increasing. Observations equal to a
    /// bound land in that bound's bucket (Prometheus `le` semantics).
    pub bounds: Vec<f64>,
    /// Per-bucket counts; `counts.len() == bounds.len() + 1` (the last
    /// slot is the overflow bucket).
    pub counts: Vec<u64>,
    /// Sum of all observed values (for mean reconstruction).
    pub sum: f64,
}

impl Histogram {
    /// An empty histogram over the given bounds.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly increasing.
    pub fn new(bounds: &[f64]) -> Histogram {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram { bounds: bounds.to_vec(), counts: vec![0; bounds.len() + 1], sum: 0.0 }
    }

    /// An empty histogram over integer bounds (convenience for
    /// microsecond/byte scales).
    pub fn with_u64_bounds(bounds: &[u64]) -> Histogram {
        let bounds: Vec<f64> = bounds.iter().map(|&b| b as f64).collect();
        Histogram::new(&bounds)
    }

    /// Records one observation.
    pub fn observe(&mut self, value: f64) {
        let slot = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[slot] += 1;
        self.sum += value;
    }

    /// Total number of observations across all buckets.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Whether any observation has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total() == 0
    }

    /// Collapses to a deterministic shape: the total lands in the first
    /// bucket, every other bucket and the sum go to zero. Used by
    /// redaction for value-dependent (volatile) histograms, mirroring the
    /// parse-histogram redaction rule from schema v4.
    pub fn collapse(&mut self) {
        let total = self.total();
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.counts[0] = total;
        self.sum = 0.0;
    }

    /// Serializes as `{"bounds": [...], "counts": [...], "sum": n}`.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("bounds".into(), Json::Arr(self.bounds.iter().map(|&b| Json::Num(b)).collect())),
            ("counts".into(), Json::Arr(self.counts.iter().map(|&c| Json::Num(c as f64)).collect())),
            ("sum".into(), Json::num(self.sum)),
        ])
    }

    /// Parses the [`Histogram::to_json`] shape, validating the bucket
    /// arity invariant.
    pub fn from_json(v: &Json) -> Result<Histogram, ManifestError> {
        let bounds: Vec<f64> = req_num_arr(v, "bounds")?;
        let counts_f = req_num_arr(v, "counts")?;
        if bounds.is_empty() || bounds.windows(2).any(|w| w[0] >= w[1]) {
            return Err(ManifestError::Schema(
                "histogram bounds must be non-empty and strictly increasing".into(),
            ));
        }
        if counts_f.len() != bounds.len() + 1 {
            return Err(ManifestError::Schema(format!(
                "histogram has {} counts for {} bounds (want bounds + 1)",
                counts_f.len(),
                bounds.len()
            )));
        }
        let mut counts = Vec::with_capacity(counts_f.len());
        for c in &counts_f {
            if *c < 0.0 || c.fract() != 0.0 {
                return Err(ManifestError::Schema("histogram counts must be non-negative integers".into()));
            }
            counts.push(*c as u64);
        }
        let sum = v
            .get("sum")
            .and_then(Json::as_f64)
            .ok_or_else(|| ManifestError::Schema("histogram missing numeric `sum`".into()))?;
        Ok(Histogram { bounds, counts, sum })
    }
}

fn req_num_arr(v: &Json, key: &str) -> Result<Vec<f64>, ManifestError> {
    let arr = v
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| ManifestError::Schema(format!("histogram missing array `{key}`")))?;
    arr.iter()
        .map(|x| {
            x.as_f64()
                .ok_or_else(|| ManifestError::Schema(format!("non-numeric entry in histogram `{key}`")))
        })
        .collect()
}

/// The value payload of one registered metric.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A monotone count of events.
    Counter(f64),
    /// A point-in-time measurement.
    Gauge(f64),
    /// A fixed-bound distribution.
    Histogram(Histogram),
}

impl MetricValue {
    fn kind(&self) -> &'static str {
        match self {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram(_) => "histogram",
        }
    }
}

/// How a metric's value behaves across repeated runs of the same input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// A pure function of the input: kept by redaction, compared exactly
    /// by `diff-runs` (a change is a regression).
    Identity,
    /// A wall-clock or volume cost: zeroed by redaction, gated by
    /// `diff-runs` with a tolerance plus a slack picked by unit suffix.
    Cost,
    /// Machine state (memory readings, cache temperature, thread count):
    /// zeroed by redaction, reported by `diff-runs` as a note only.
    State,
}

impl Class {
    fn label(self) -> &'static str {
        match self {
            Class::Identity => "identity",
            Class::Cost => "cost",
            Class::State => "state",
        }
    }
}

/// The fixed identity of a registered metric: name, help text and class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name (`[a-z0-9_]+`, without the exposition prefix).
    pub name: &'static str,
    /// One-line human description (the `# HELP` text).
    pub help: &'static str,
    /// Redaction and diff class.
    pub class: Class,
}

/// One named metric with help text and a class.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (`[a-z0-9_]+`, without the exposition prefix).
    pub name: String,
    /// One-line human description (the `# HELP` text).
    pub help: String,
    /// Redaction and diff class.
    pub class: Class,
    /// The value payload.
    pub value: MetricValue,
}

impl Metric {
    /// Whether the value depends on wall-clock time or machine state and
    /// is zeroed/collapsed by [`MetricsRegistry::redact`].
    pub fn volatile(&self) -> bool {
        self.class != Class::Identity
    }
}

/// An insertion-ordered registry of named metrics.
///
/// Names are unique; re-registering a name accumulates into the existing
/// metric (counters add, gauges overwrite, histograms observe).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    metrics: Vec<Metric>,
    index: HashMap<String, usize>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    fn slot(&mut self, name: &str, help: &str, class: Class, init: MetricValue) -> &mut Metric {
        let idx = *self.index.entry(name.to_string()).or_insert_with(|| {
            self.metrics.push(Metric {
                name: name.to_string(),
                help: help.to_string(),
                class,
                value: init,
            });
            self.metrics.len() - 1
        });
        &mut self.metrics[idx]
    }

    /// Adds `delta` to the named counter, creating it at zero first.
    pub fn inc_counter(&mut self, name: &str, help: &str, class: Class, delta: f64) {
        let m = self.slot(name, help, class, MetricValue::Counter(0.0));
        match &mut m.value {
            MetricValue::Counter(v) => *v += delta,
            other => panic!("metric `{name}` is a {}, not a counter", other.kind()),
        }
    }

    /// Sets the named gauge, creating it if absent.
    pub fn set_gauge(&mut self, name: &str, help: &str, class: Class, value: f64) {
        let m = self.slot(name, help, class, MetricValue::Gauge(0.0));
        match &mut m.value {
            MetricValue::Gauge(v) => *v = value,
            other => panic!("metric `{name}` is a {}, not a gauge", other.kind()),
        }
    }

    /// Records one observation into the named histogram, creating it over
    /// `bounds` if absent.
    pub fn observe(&mut self, name: &str, help: &str, class: Class, bounds: &[f64], value: f64) {
        let m = self.slot(name, help, class, MetricValue::Histogram(Histogram::new(bounds)));
        match &mut m.value {
            MetricValue::Histogram(h) => h.observe(value),
            other => panic!("metric `{name}` is a {}, not a histogram", other.kind()),
        }
    }

    /// Inserts a pre-built histogram under the given name (replacing any
    /// existing metric of that name).
    pub fn put_histogram(&mut self, name: &str, help: &str, class: Class, hist: Histogram) {
        let m = self.slot(name, help, class, MetricValue::Histogram(Histogram::new(&hist.bounds)));
        m.value = MetricValue::Histogram(hist);
    }

    /// Sets the gauge `def`, creating it if absent.
    pub fn gauge(&mut self, def: &MetricDef, value: f64) {
        self.set_gauge(def.name, def.help, def.class, value);
    }

    /// Adds `delta` to the counter `def`, creating it at zero first.
    pub fn counter(&mut self, def: &MetricDef, delta: f64) {
        self.inc_counter(def.name, def.help, def.class, delta);
    }

    /// Looks up a metric by name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.index.get(name).map(|&i| &self.metrics[i])
    }

    /// The value of a counter or gauge; `None` when absent or a histogram.
    pub fn value(&self, name: &str) -> Option<f64> {
        match self.get(name)?.value {
            MetricValue::Counter(v) | MetricValue::Gauge(v) => Some(v),
            MetricValue::Histogram(_) => None,
        }
    }

    /// The histogram named `name`; `None` when absent or a scalar.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        match &self.get(name)?.value {
            MetricValue::Histogram(h) => Some(h),
            _ => None,
        }
    }

    /// All metrics in insertion order.
    pub fn metrics(&self) -> &[Metric] {
        &self.metrics
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Zeroes volatile counters/gauges and collapses volatile histograms
    /// (total into the first bucket), leaving [`Class::Identity`] metrics
    /// untouched. Mirrors [`crate::RunManifest::redact_timings`].
    pub fn redact(&mut self) {
        for m in &mut self.metrics {
            if !m.volatile() {
                continue;
            }
            match &mut m.value {
                MetricValue::Counter(v) | MetricValue::Gauge(v) => *v = 0.0,
                MetricValue::Histogram(h) => h.collapse(),
            }
        }
    }

    /// Renders the registry as Prometheus text exposition format, with
    /// every metric name prefixed by `prefix` (e.g. `seldon_`).
    pub fn to_prometheus(&self, prefix: &str) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let name = format!("{prefix}{}", m.name);
            out.push_str(&format!("# HELP {name} {}\n", m.help));
            out.push_str(&format!("# TYPE {name} {}\n", m.value.kind()));
            match &m.value {
                MetricValue::Counter(v) | MetricValue::Gauge(v) => {
                    out.push_str(&format!("{name} {}\n", fmt_num(*v)));
                }
                MetricValue::Histogram(h) => {
                    let mut cum = 0u64;
                    for (i, &bound) in h.bounds.iter().enumerate() {
                        cum += h.counts[i];
                        out.push_str(&format!("{name}_bucket{{le=\"{}\"}} {cum}\n", fmt_num(bound)));
                    }
                    cum += h.counts[h.bounds.len()];
                    out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {cum}\n"));
                    out.push_str(&format!("{name}_sum {}\n", fmt_num(h.sum)));
                    out.push_str(&format!("{name}_count {cum}\n"));
                }
            }
        }
        out
    }

    /// Serializes as a JSON array of metric objects, insertion-ordered.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.metrics
                .iter()
                .map(|m| {
                    let mut fields = vec![
                        ("name".into(), Json::Str(m.name.clone())),
                        ("help".into(), Json::Str(m.help.clone())),
                        ("kind".into(), Json::Str(m.value.kind().into())),
                        ("class".into(), Json::Str(m.class.label().into())),
                    ];
                    match &m.value {
                        MetricValue::Counter(v) | MetricValue::Gauge(v) => {
                            fields.push(("value".into(), Json::num(*v)));
                        }
                        MetricValue::Histogram(h) => {
                            if let Json::Obj(hf) = h.to_json() {
                                fields.extend(hf);
                            }
                        }
                    }
                    Json::Obj(fields)
                })
                .collect(),
        )
    }

    /// Parses the [`MetricsRegistry::to_json`] shape, rejecting duplicate
    /// names and unknown kinds or classes.
    pub fn from_json(v: &Json) -> Result<MetricsRegistry, ManifestError> {
        let arr = v
            .as_arr()
            .ok_or_else(|| ManifestError::Schema("`metrics` must be an array".into()))?;
        let mut reg = MetricsRegistry::new();
        for item in arr {
            let name = req_str(item, "name")?;
            let help = req_str(item, "help")?;
            let kind = req_str(item, "kind")?;
            let label = item.get("class").and_then(Json::as_str);
            let class = [Class::Identity, Class::Cost, Class::State]
                .into_iter()
                .find(|c| label == Some(c.label()))
                .ok_or_else(|| ManifestError::Schema(format!("metric `{name}` has no known class")))?;
            if reg.index.contains_key(&name) {
                return Err(ManifestError::Schema(format!("duplicate metric `{name}`")));
            }
            let value = match kind.as_str() {
                "counter" | "gauge" => {
                    let v = item.get("value").and_then(Json::as_f64).ok_or_else(|| {
                        ManifestError::Schema(format!("metric `{name}` missing numeric `value`"))
                    })?;
                    if kind == "counter" { MetricValue::Counter(v) } else { MetricValue::Gauge(v) }
                }
                "histogram" => MetricValue::Histogram(Histogram::from_json(item)?),
                other => {
                    return Err(ManifestError::Schema(format!(
                        "metric `{name}` has unknown kind `{other}`"
                    )))
                }
            };
            reg.index.insert(name.clone(), reg.metrics.len());
            reg.metrics.push(Metric { name, help, class, value });
        }
        Ok(reg)
    }
}

fn req_str(v: &Json, key: &str) -> Result<String, ManifestError> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| ManifestError::Schema(format!("metric missing string `{key}`")))
}

/// Formats a float without a trailing `.0` for integral values, matching
/// the JSON number emitter.
fn fmt_num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 9.007_199_254_740_992e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_inclusive_bound() {
        let mut h = Histogram::new(&[10.0, 100.0]);
        h.observe(5.0);
        h.observe(10.0); // on the bound: lands in the first bucket (le semantics)
        h.observe(50.0);
        h.observe(1000.0); // overflow
        assert_eq!(h.counts, vec![2, 1, 1]);
        assert_eq!(h.total(), 4);
        assert_eq!(h.sum, 1065.0);
    }

    #[test]
    fn histogram_collapse_is_deterministic() {
        let mut h = Histogram::new(&[1.0, 2.0]);
        h.observe(0.5);
        h.observe(1.5);
        h.observe(9.0);
        h.collapse();
        assert_eq!(h.counts, vec![3, 0, 0]);
        assert_eq!(h.sum, 0.0);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn histogram_rejects_unsorted_bounds() {
        Histogram::new(&[2.0, 1.0]);
    }

    #[test]
    fn histogram_json_round_trip_and_arity_check() {
        let mut h = Histogram::with_u64_bounds(&[50, 100]);
        h.observe(60.0);
        let back = Histogram::from_json(&h.to_json()).unwrap();
        assert_eq!(back, h);

        let bad = crate::json::parse(r#"{"bounds": [1, 2], "counts": [0, 0], "sum": 0}"#).unwrap();
        assert!(Histogram::from_json(&bad).is_err(), "counts must be bounds + 1");
    }

    #[test]
    fn registry_accumulates_and_keeps_insertion_order() {
        let mut reg = MetricsRegistry::new();
        reg.inc_counter("cache_hits", "cache hits", Class::Identity, 3.0);
        reg.set_gauge("hit_rate", "hit rate", Class::Identity, 0.5);
        reg.inc_counter("cache_hits", "cache hits", Class::Identity, 2.0);
        reg.observe("gap", "constraint gap", Class::Identity, &[0.0, 1.0], 0.5);
        assert_eq!(reg.len(), 3);
        let names: Vec<&str> = reg.metrics().iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["cache_hits", "hit_rate", "gap"]);
        assert_eq!(reg.get("cache_hits").unwrap().value, MetricValue::Counter(5.0));
    }

    #[test]
    fn registry_json_round_trip() {
        let mut reg = MetricsRegistry::new();
        reg.inc_counter("files", "files analyzed", Class::Identity, 7.0);
        reg.set_gauge("epoch_us", "mean epoch time", Class::Cost, 123.5);
        reg.observe("rep_freq", "rep frequency", Class::Identity, &[1.0, 10.0], 4.0);
        let back = MetricsRegistry::from_json(&reg.to_json()).unwrap();
        assert_eq!(back, reg);
    }

    #[test]
    fn registry_rejects_duplicates_and_unknown_kinds() {
        let dup = crate::json::parse(
            r#"[{"name": "x", "help": "h", "kind": "counter", "class": "identity", "value": 1},
                {"name": "x", "help": "h", "kind": "counter", "class": "identity", "value": 2}]"#,
        )
        .unwrap();
        assert!(MetricsRegistry::from_json(&dup).is_err());
        let bad = crate::json::parse(
            r#"[{"name": "x", "help": "h", "kind": "summary", "class": "identity", "value": 1}]"#,
        )
        .unwrap();
        assert!(MetricsRegistry::from_json(&bad).is_err());
    }

    #[test]
    fn redact_zeroes_only_volatile_metrics() {
        let mut reg = MetricsRegistry::new();
        reg.inc_counter("files", "files", Class::Identity, 7.0);
        reg.set_gauge("epoch_us", "epoch", Class::Cost, 42.0);
        reg.observe("parse_us", "parse", Class::Cost, &[10.0, 20.0], 15.0);
        reg.observe("rep_freq", "freq", Class::Identity, &[1.0, 10.0], 3.0);
        reg.redact();
        assert_eq!(reg.get("files").unwrap().value, MetricValue::Counter(7.0));
        assert_eq!(reg.get("epoch_us").unwrap().value, MetricValue::Gauge(0.0));
        match &reg.get("parse_us").unwrap().value {
            MetricValue::Histogram(h) => assert_eq!((h.counts.clone(), h.sum), (vec![1, 0, 0], 0.0)),
            _ => unreachable!(),
        }
        match &reg.get("rep_freq").unwrap().value {
            MetricValue::Histogram(h) => {
                assert_eq!((h.counts.clone(), h.sum), (vec![0, 1, 0], 3.0), "untouched")
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn prometheus_exposition_has_cumulative_buckets() {
        let mut reg = MetricsRegistry::new();
        reg.inc_counter("cache_hits", "Total cache hits.", Class::Identity, 5.0);
        reg.observe("gap", "Constraint gap.", Class::Identity, &[0.5, 1.0], 0.25);
        reg.observe("gap", "Constraint gap.", Class::Identity, &[0.5, 1.0], 0.75);
        reg.observe("gap", "Constraint gap.", Class::Identity, &[0.5, 1.0], 2.0);
        let text = reg.to_prometheus("seldon_");
        assert!(text.contains("# HELP seldon_cache_hits Total cache hits.\n"));
        assert!(text.contains("# TYPE seldon_cache_hits counter\nseldon_cache_hits 5\n"));
        assert!(text.contains("seldon_gap_bucket{le=\"0.5\"} 1\n"));
        assert!(text.contains("seldon_gap_bucket{le=\"1\"} 2\n"));
        assert!(text.contains("seldon_gap_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("seldon_gap_sum 3\n"));
        assert!(text.contains("seldon_gap_count 3\n"));
    }
}
