//! Order statistics over timing samples and the one-line result record.

use seldon_telemetry::json::Json;

/// The `p`-th percentile (0–100) of `samples`, interpolating linearly
/// between the two closest ranks. `NaN` when there are no samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// First and third quartile of `samples`, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// does, so the spreads printed here are the ones that method reports.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let len = sorted.len() as i64;
    if len < 2 {
        let only = sorted.first().copied().unwrap_or(f64::NAN);
        return (only, only);
    }
    let m = len + 1;
    let cut = |i: i64| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m - j * 4) as f64;
        let (lo, hi) = (sorted[(j - 1) as usize], sorted[j as usize]);
        (lo * (4.0 - delta) + hi * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit label.
    pub unit: &'static str,
}

/// The result of one benchmark run: the last line of its standard output.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Whether every output check passed.
    pub correct: bool,
    /// Timed operations attempted.
    pub attempted: u64,
    /// Timed operations that errored, quarantined a file, or served a
    /// spec that did not match its reference.
    pub failed: u64,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// Appends a metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.into(), value, unit });
    }

    /// The record as one compact JSON object.
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let body = vec![
                    ("value".to_string(), Json::num(m.value)),
                    ("unit".to_string(), Json::str(m.unit)),
                ];
                (m.name.clone(), Json::Obj(body))
            })
            .collect();
        Json::Obj(vec![
            ("correct".to_string(), Json::Bool(self.correct)),
            ("attempted".to_string(), Json::num(self.attempted as f64)),
            ("failed".to_string(), Json::num(self.failed as f64)),
            ("metrics".to_string(), Json::Obj(metrics)),
        ])
    }

    /// Parses a record written by [`RunResult::to_json`]. Units are not
    /// read back; only names and values matter to the readers of saved
    /// results.
    pub fn from_json(value: &Json) -> Option<RunResult> {
        let Json::Obj(metrics) = value.get("metrics")? else {
            return None;
        };
        Some(RunResult {
            correct: value.get("correct")?.as_bool()?,
            attempted: value.get("attempted")?.as_u64()?,
            failed: value.get("failed")?.as_u64()?,
            metrics: metrics
                .iter()
                .map(|(name, m)| {
                    Some(Metric { name: name.clone(), value: m.get("value")?.as_f64()?, unit: "" })
                })
                .collect::<Option<Vec<_>>>()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 100.0), 4.0);
        assert_eq!(median(&s), 2.5);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&s), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn result_round_trips_through_json() {
        let mut r = RunResult { correct: true, attempted: 12, failed: 0, ..Default::default() };
        r.push("op_p50_ms", 1.25, "ms");
        r.push("setup_s", 0.5, "s");
        let back = RunResult::from_json(&r.to_json()).expect("parses");
        assert!(back.correct);
        assert_eq!((back.attempted, back.failed), (12, 0));
        let values: Vec<(&str, f64)> =
            back.metrics.iter().map(|m| (m.name.as_str(), m.value)).collect();
        assert_eq!(values, [("op_p50_ms", 1.25), ("setup_s", 0.5)]);
    }
}
