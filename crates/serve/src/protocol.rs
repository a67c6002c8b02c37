//! The wire protocol of `seldon serve`: line-delimited JSON over a Unix
//! domain socket.
//!
//! Every request is one JSON object on one line with a string `op`
//! field; every response is one JSON object on one line with a boolean
//! `ok` field. Failures — malformed JSON, unknown ops, rejected deltas,
//! contained engine panics — are reported as `{"ok": false, "error":
//! "..."}` responses; they never terminate the daemon.
//!
//! Requests:
//!
//! | op         | extra fields                                | response payload |
//! |------------|---------------------------------------------|------------------|
//! | `ping`     | —                                           | `pong: true` |
//! | `spec`     | —                                           | `spec`, `solve` |
//! | `stats`    | —                                           | counters + corpus shape |
//! | `metrics`  | —                                           | `metrics` (registry JSON) |
//! | `delta`    | `add`, `change`, `remove`: path arrays      | `spec`, `solve`, delta counters |
//! | `shutdown` | —                                           | `shutdown: true` |
//!
//! `delta` paths are read by the **daemon** process (add/change contents
//! come from its filesystem view), mirroring how `seldon learn` reads a
//! corpus from disk. A delta response carries `faults` when the delta's
//! analysis report has anything to say: one line per added or changed
//! file that was recovered or quarantined, then one per contained cache
//! fault (`cache fault (<checkpoint>): ...` for the solver checkpoint) —
//! the lines `seldon learn` prints as warnings. Under `--strict` a delta
//! with an unparseable file is rejected as an `ok: false` error naming it.

use seldon_telemetry::json::{self, Json};

use crate::engine::DeltaOutcome;

/// A parsed request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Return the current specification without touching the corpus.
    Spec,
    /// Return lifetime counters and the corpus shape.
    Stats,
    /// Return the serve metrics registry as JSON.
    Metrics,
    /// Apply a corpus delta (paths resolved by the daemon).
    Delta {
        /// Paths of files to start tracking.
        add: Vec<String>,
        /// Paths of tracked files whose contents changed.
        change: Vec<String>,
        /// Paths of tracked files to drop.
        remove: Vec<String>,
    },
    /// Respond, then exit the accept loop and remove the socket.
    Shutdown,
}

impl Request {
    /// Parses one request line. Errors are protocol-level and become
    /// `ok: false` responses.
    pub fn parse(line: &str) -> Result<Request, String> {
        let value = json::parse(line).map_err(|e| format!("malformed request JSON: {e}"))?;
        let op = value
            .get("op")
            .and_then(Json::as_str)
            .ok_or_else(|| "request must carry a string `op` field".to_string())?;
        match op {
            "ping" => Ok(Request::Ping),
            "spec" => Ok(Request::Spec),
            "stats" => Ok(Request::Stats),
            "metrics" => Ok(Request::Metrics),
            "shutdown" => Ok(Request::Shutdown),
            "delta" => Ok(Request::Delta {
                add: path_list(&value, "add")?,
                change: path_list(&value, "change")?,
                remove: path_list(&value, "remove")?,
            }),
            other => Err(format!("unknown op `{other}`")),
        }
    }
}

/// Reads an optional string-array field; absent means empty.
fn path_list(value: &Json, key: &str) -> Result<Vec<String>, String> {
    match value.get(key) {
        None | Some(Json::Null) => Ok(Vec::new()),
        Some(field) => {
            let arr = field.as_arr().ok_or_else(|| format!("`{key}` must be an array"))?;
            arr.iter()
                .map(|entry| {
                    entry
                        .as_str()
                        .map(str::to_string)
                        .ok_or_else(|| format!("`{key}` entries must be path strings"))
                })
                .collect()
        }
    }
}

/// One-line `{"ok": false, "error": ...}` response.
pub fn error_response(message: &str) -> String {
    Json::Obj(vec![
        ("ok".to_string(), Json::Bool(false)),
        ("error".to_string(), Json::str(message)),
    ])
    .compact()
}

/// One-line `{"ok": true, ...fields}` response.
pub fn ok_response(fields: Vec<(String, Json)>) -> String {
    let mut obj = vec![("ok".to_string(), Json::Bool(true))];
    obj.extend(fields);
    Json::Obj(obj).compact()
}

/// The response payload for a served delta.
pub fn delta_response(outcome: &DeltaOutcome) -> String {
    let mut fields = vec![
        ("solve".to_string(), Json::str(outcome.solve)),
        ("files".to_string(), Json::num(outcome.files as f64)),
        ("events".to_string(), Json::num(outcome.events as f64)),
        ("edges".to_string(), Json::num(outcome.edges as f64)),
        ("reparsed".to_string(), Json::num(outcome.reparsed as f64)),
        ("tokens_matched".to_string(), Json::num(outcome.tokens_matched as f64)),
        ("removed".to_string(), Json::num(outcome.removed as f64)),
        ("evicted".to_string(), Json::num(outcome.evicted as f64)),
        ("fragments_reused".to_string(), Json::num(outcome.fragments_reused as f64)),
        ("fragments_collected".to_string(), Json::num(outcome.fragments_collected as f64)),
        ("learned_entries".to_string(), Json::num(outcome.learned_entries as f64)),
        ("elapsed_us".to_string(), Json::num(outcome.elapsed.as_micros() as f64)),
        ("spec".to_string(), Json::str(&outcome.spec)),
    ];
    if let Some(margin) = outcome.warm_margin {
        fields.push(("warm_margin".to_string(), Json::num(margin)));
    }
    let faults: Vec<Json> = outcome.report.warnings().map(Json::str).collect();
    if !faults.is_empty() {
        fields.push(("faults".to_string(), Json::Arr(faults)));
    }
    ok_response(fields)
}
