//! The machine-readable run manifest (the `--telemetry` output).
//!
//! One [`RunManifest`] captures everything §7 of the paper reports per
//! run. Every number lives in one store, the [`MetricsRegistry`]: corpus
//! shape, per-file outcomes, per-template constraint counts, the solver
//! outcome, the extraction threshold/backoff sweep, taint violations,
//! cache counters, memory readings and the per-frontend parse-time
//! histograms are registry metrics named in [`metric`]. Beside the
//! registry the manifest keeps only what is not a scalar or a histogram:
//! a small header, the stage spans, the solver's convergence curve and the
//! opt-in score dump. The JSON form, the Prometheus exposition, `diff-runs`
//! and `seldon report` all read the registry.
//!
//! Serialization is hand-rolled over [`crate::json`] (the workspace is
//! offline; there is no serde). [`RunManifest::from_json`] performs full
//! schema validation — every required field must be present with the
//! right type — and `from_json(to_json(m)) == m` holds for any manifest
//! with finite numbers.

use crate::json::{self, Json, JsonError};
use crate::metrics::MetricsRegistry;
use crate::span::SpanRecord;
use std::fmt;

/// Version tag of the manifest schema emitted by this build.
///
/// Version 2 added the solver thread count and the `compile` child span
/// under `solve`. Version 3 added the cache counters, the optional `cache`
/// stage span, and the `parse.project` child spans (and per-shard union
/// children, gone since corpus analysis became sequential).
/// Version 4 added the per-frontend parse-time histograms. Version 5 added
/// memory accounting, the per-span `mem_now_bytes` / `mem_peak_bytes`
/// fields, the `metrics` registry ([`MetricsRegistry`]), and the opt-in
/// `score_dump` section ([`ScoreDumpEntry`], Fig. 11 data). Version 6
/// added the solver stop reason and epochs saved. Version 7 added the
/// `mode` field ([`RunManifest::mode`]). Version 8 folded the eight typed
/// sections (corpus, outcomes, constraints, solver, extraction, taint,
/// cache, memory) and the parse histograms into the registry, moved the
/// checkpoint label into the header and the convergence curve to the top
/// level. Only the current version parses.
pub const SCHEMA_VERSION: u64 = 8;

/// Upper bounds (inclusive, microseconds) of the per-file parse-time and
/// build-time histogram buckets. A file lands in the first bucket whose
/// bound its time does not exceed; slower files land in the overflow slot.
pub const PARSE_HIST_BOUNDS: [u64; 8] = [50, 100, 250, 500, 1000, 2500, 5000, 10_000];

/// Canonical stage names of the end-to-end pipeline, in pipeline order.
pub mod stage {
    /// Per-file parsing (front end), summed over the corpus's files.
    pub const PARSE: &str = "parse";
    /// Per-file propagation-graph construction, summed over the corpus's
    /// files.
    pub const PROPGRAPH: &str = "propgraph";
    /// Union of the per-file graphs, in corpus order, into the global
    /// graph; `learn` and `serve` write it with the same counters.
    pub const UNION: &str = "union";
    /// Representation/backoff selection (§4.3 cutoff + blacklist).
    pub const REPRESENTATION: &str = "representation";
    /// Flow-constraint collection (Fig. 4 templates).
    pub const CONSTRAINTS: &str = "constraints";
    /// Projected-Adam solving of the relaxed system.
    pub const SOLVE: &str = "solve";
    /// Specification extraction (§7.1 threshold/backoff rule).
    pub const EXTRACT: &str = "extract";
    /// Taint analysis with the learned specification.
    pub const TAINT: &str = "taint";
    /// CSR lowering of the constraint system — a child span of
    /// [`SOLVE`], not one of the eight top-level stages in [`ALL`].
    pub const COMPILE: &str = "compile";
    /// Artifact-cache lookups/stores. Only present when a run has a cache
    /// attached, so not part of [`ALL`].
    pub const CACHE: &str = "cache";
    /// Per-project parse time — child spans of [`PARSE`], one per project.
    pub const PARSE_PROJECT: &str = "parse.project";
    /// All eight stages in pipeline order.
    pub const ALL: [&str; 8] = [
        PARSE,
        PROPGRAPH,
        UNION,
        REPRESENTATION,
        CONSTRAINTS,
        SOLVE,
        EXTRACT,
        TAINT,
    ];
}

/// The registry metrics every learning run writes, with the [`Class`]
/// that decides how redaction and `diff-runs` treat each one. Batch runs
/// write them in `seldon-core`, served runs in the serve engine; `seldon
/// report` and `validate_manifest` read them back by these names.
///
/// [`Class`]: crate::metrics::Class
pub mod metric {
    // Each definition's help string is its documentation.
    #![allow(missing_docs)]
    use crate::metrics::Class::{self, Cost, Identity, State};
    use crate::metrics::MetricDef;

    const fn def(name: &'static str, class: Class, help: &'static str) -> MetricDef {
        MetricDef { name, help, class }
    }

    /// Files, projects, graph events, graph edges.
    pub const CORPUS: [MetricDef; 4] = [
        def("corpus_files", Identity, "Corpus files offered to the pipeline."),
        def("corpus_projects", Identity, "Projects the corpus files belong to."),
        def("graph_events", Identity, "Events in the global propagation graph."),
        def("graph_edges", Identity, "Flow edges in the global propagation graph."),
    ];
    pub const INTERN_SYMBOLS: MetricDef = def(
        "intern_symbols",
        Identity,
        "Symbols in the run's table: the union's in batch, the engine's in serve.",
    );
    /// Per-file outcomes: ok, recovered, over budget, panicked.
    pub const OUTCOMES: [MetricDef; 4] = [
        def("files_ok", Identity, "Files analyzed strictly."),
        def("files_recovered", Identity, "Files recovered leniently."),
        def("files_over_budget", Identity, "Files quarantined on a budget trip."),
        def("files_panicked", Identity, "Files whose analysis panicked (contained)."),
    ];
    /// Constraint total, role variables, seed-pinned variables.
    pub const CONSTRAINTS: [MetricDef; 3] = [
        def("constraints_total", Identity, "Flow constraints in the system."),
        def("constraint_vars", Identity, "Role variables."),
        def("constraint_vars_pinned", Identity, "Role variables pinned by the seed."),
    ];
    /// Constraints per Fig. 4 template `[4a, 4b, 4c]`.
    pub const TEMPLATES: [MetricDef; 3] = [
        def("constraints_4a", Identity, "Constraints from the Fig. 4a template."),
        def("constraints_4b", Identity, "Constraints from the Fig. 4b template."),
        def("constraints_4c", Identity, "Constraints from the Fig. 4c template."),
    ];
    pub const SOLVER_ITERATIONS: MetricDef =
        def("solver_iterations", Identity, "Projected-Adam epochs run (or replayed) this run.");
    pub const SOLVER_RESTARTS: MetricDef =
        def("solver_restarts", Identity, "Divergence-guard restarts taken.");
    pub const SOLVER_DIVERGED: MetricDef = def(
        "solver_diverged",
        Identity,
        "1 when the solve diverged and its scores were sanitized.",
    );
    pub const SOLVER_FINAL_LR: MetricDef =
        def("solver_final_lr", Identity, "Learning rate of the final (possibly restarted) run.");
    pub const SOLVER_OBJECTIVE: MetricDef =
        def("solver_objective", Identity, "Final objective (hinge loss + lambda * L1 norm).");
    pub const SOLVER_VIOLATION: MetricDef =
        def("solver_violation", Identity, "Final total hinge violation.");
    /// Scores are byte-identical across thread counts, so the count is
    /// machine state, not result shape.
    pub const SOLVER_THREADS: MetricDef =
        def("solver_threads", State, "Worker threads the solver epoch passes ran on.");
    pub const SOLVER_STOP_REASON: MetricDef = def(
        "solver_stop_reason",
        Identity,
        "Stop-reason code (0 max_iters, 1 stall, 2 plateau, 3 diverged, 4 invalid_options).",
    );
    pub const SOLVER_EPOCHS_SAVED: MetricDef = def(
        "solver_epochs_saved",
        Identity,
        "Epochs the convergence exit saved against the max_iters budget.",
    );
    /// Extraction score thresholds `[source, sanitizer, sink]` (§7.1).
    pub const THRESHOLDS: [MetricDef; 3] = [
        def("extract_threshold_source", Identity, "Extraction score threshold for sources."),
        def("extract_threshold_sanitizer", Identity, "Extraction score threshold for sanitizers."),
        def("extract_threshold_sink", Identity, "Extraction score threshold for sinks."),
    ];
    pub const DECAY: MetricDef =
        def("extract_decay", Identity, "Backoff decay per specificity level (0.8 in the paper).");
    /// A histogram whose bucket `i` counts role selections at backoff
    /// level `i` (0 = most specific).
    pub const BACKOFF_HITS: MetricDef =
        def("backoff_hits", Identity, "Role selections per backoff level (bucket i = level i).");
    /// Learned entries per role `[sources, sanitizers, sinks]`.
    pub const LEARNED: [MetricDef; 3] = [
        def("learned_sources", Identity, "Learned source entries."),
        def("learned_sanitizers", Identity, "Learned sanitizer entries."),
        def("learned_sinks", Identity, "Learned sink entries."),
    ];
    /// Written only by runs that ran the taint stage.
    pub const TAINT_VIOLATIONS: MetricDef =
        def("taint_violations", Identity, "Unsanitized source-to-sink flows reported.");
    /// Cache counters, present only when a cache was attached. They depend
    /// on what was already on disk, so they are machine state.
    pub const CACHE: [MetricDef; 9] = [
        def("cache_hits", State, "Artifact lookups served from the cache."),
        def("cache_misses", State, "Artifact lookups that recomputed from source."),
        def("cache_stores", State, "Entries written (artifacts + checkpoints)."),
        def("cache_corrupt", State, "Entries rejected as corrupt."),
        def("cache_stale", State, "Entries rejected as version-stale."),
        def("cache_evicted", State, "Entries evicted (quarantined or cleared)."),
        def("cache_faults", State, "Contained cache faults (corrupt + stale + evicted)."),
        def("cache_bytes_read", State, "Decoded payload bytes served by hits."),
        def("cache_bytes_written", State, "Encoded frame bytes written by stores."),
    ];
    pub const CACHE_HIT_RATE: MetricDef =
        def("cache_hit_rate", State, "hits / (hits + misses) for artifact lookups.");
    /// Live heap bytes, allocator peak, kernel peak RSS.
    pub const MEMORY: [MetricDef; 3] = [
        def("mem_current_bytes", State, "Live heap bytes at manifest assembly."),
        def("mem_peak_bytes", State, "Allocator high-water mark since process start."),
        def("mem_peak_rss_bytes", State, "Kernel peak RSS (VmHWM); 0 when unavailable."),
    ];
    /// One histogram per frontend that parsed a file, named
    /// `parse_time_us_<frontend>` over [`super::PARSE_HIST_BOUNDS`].
    pub const PARSE_TIME: MetricDef =
        def("parse_time_us", Cost, "Per-file parse time by frontend.");

    /// The parse-time histogram name of one frontend (`"python"`, `"js"`).
    pub fn parse_time(frontend: &str) -> String {
        format!("{}_{frontend}", PARSE_TIME.name)
    }
}

/// One sampled epoch of the solver's convergence trace.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EpochSample {
    /// 0-based Adam iteration index.
    pub epoch: u64,
    /// Full objective (hinge loss + λ·‖x‖₁) at this epoch.
    pub objective: f64,
    /// Total hinge loss (sum of positive constraint gaps).
    pub hinge_loss: f64,
    /// Number of violated constraints (positive gap).
    pub violated: u64,
    /// L2 norm of the full gradient.
    pub grad_norm: f64,
    /// Learning rate in effect (scaled after a divergence restart).
    pub lr: f64,
}

/// One pipeline stage span as exported in the manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct StageSpan {
    /// Stage name (see [`stage`]).
    pub name: String,
    /// Index of the enclosing span, if nested.
    pub parent: Option<u32>,
    /// Nesting depth.
    pub depth: u32,
    /// Microseconds from run start to span start.
    pub start_us: u64,
    /// Span duration in microseconds.
    pub dur_us: u64,
    /// Live heap bytes when the span closed (0 if unrecorded).
    pub mem_now_bytes: u64,
    /// Allocator high-water mark when the span closed — monotone across
    /// the run, so consecutive stages report a non-decreasing peak.
    pub mem_peak_bytes: u64,
    /// Counters recorded on the span, in record order.
    pub counters: Vec<(String, f64)>,
}

impl From<SpanRecord> for StageSpan {
    fn from(s: SpanRecord) -> StageSpan {
        StageSpan {
            name: s.name.to_string(),
            parent: s.parent,
            depth: s.depth,
            start_us: s.start_us,
            dur_us: s.dur_us,
            mem_now_bytes: s.mem_now_bytes,
            mem_peak_bytes: s.mem_peak_bytes,
            counters: s.counters.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
        }
    }
}

/// One learned-score row of the opt-in `--score-dump` section — the raw
/// data behind Fig. 11 (score versus backoff level).
#[derive(Debug, Clone, PartialEq)]
pub struct ScoreDumpEntry {
    /// Representation string the score attaches to.
    pub rep: String,
    /// Role label (`"source"`, `"sanitizer"`, `"sink"`).
    pub role: String,
    /// Effective (decay-discounted) score that won the backoff sweep.
    pub score: f64,
    /// Backoff level of the winning representation (0 = most specific).
    pub backoff_level: u64,
}

/// The complete machine-readable record of one pipeline run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunManifest {
    /// Schema version ([`SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Emitting tool (`"seldon"`).
    pub tool: String,
    /// The command that produced the run (e.g. `"learn"`).
    pub command: String,
    /// How the run was produced: `"batch"` for a one-shot pipeline run,
    /// `"served-incremental"` for a spec computed by the `seldon serve`
    /// daemon applying a corpus delta.
    pub mode: String,
    /// The checkpoint rung the run took: `"off"` without a cache, else the
    /// rung's label (`"cold"` or `"full"` for batch runs; the served
    /// solve path for the daemon).
    pub checkpoint: String,
    /// Stage spans in open order.
    pub stages: Vec<StageSpan>,
    /// Every scalar and histogram the run measured (see [`metric`]).
    pub metrics: MetricsRegistry,
    /// The solver's sampled convergence curve (stride-spaced epochs).
    pub curve: Vec<EpochSample>,
    /// Per-representation learned scores with backoff level (Fig. 11);
    /// empty unless the run asked for `--score-dump`.
    pub score_dump: Vec<ScoreDumpEntry>,
}

impl RunManifest {
    /// An empty manifest with the current schema version and tool name.
    pub fn new(command: impl Into<String>) -> RunManifest {
        RunManifest {
            schema_version: SCHEMA_VERSION,
            tool: "seldon".to_string(),
            command: command.into(),
            mode: "batch".to_string(),
            checkpoint: "off".to_string(),
            ..RunManifest::default()
        }
    }

    /// The stage span named `name`, if present.
    pub fn stage(&self, name: &str) -> Option<&StageSpan> {
        self.stages.iter().find(|s| s.name == name)
    }

    /// Whether all eight pipeline stages are present.
    pub fn has_all_stages(&self) -> bool {
        stage::ALL.iter().all(|name| self.stage(name).is_some())
    }

    /// Zeroes all wall-clock and machine-state fields (span
    /// start/duration/memory and every volatile metric) so manifests of
    /// repeated runs compare equal; counts and curves are untouched.
    /// Volatile histograms — the parse times among them — collapse to
    /// their totals in the first bucket: which bucket a file lands in is
    /// wall-clock-dependent, but how many observations there were is not.
    pub fn redact_timings(&mut self) {
        for s in &mut self.stages {
            s.start_us = 0;
            s.dur_us = 0;
            s.mem_now_bytes = 0;
            s.mem_peak_bytes = 0;
        }
        self.metrics.redact();
    }

    /// Serializes to pretty JSON (the `--telemetry` file format).
    pub fn to_json(&self) -> String {
        let stages = self.stages.iter().map(|s| {
            Json::Obj(vec![
                ("name".into(), Json::str(&s.name)),
                ("parent".into(), s.parent.map_or(Json::Null, |p| Json::num(f64::from(p)))),
                ("depth".into(), Json::num(f64::from(s.depth))),
                ("start_us".into(), Json::num(s.start_us as f64)),
                ("dur_us".into(), Json::num(s.dur_us as f64)),
                ("mem_now_bytes".into(), Json::num(s.mem_now_bytes as f64)),
                ("mem_peak_bytes".into(), Json::num(s.mem_peak_bytes as f64)),
                (
                    "counters".into(),
                    Json::Obj(s.counters.iter().map(|(k, v)| (k.clone(), Json::num(*v))).collect()),
                ),
            ])
        });
        let curve = self.curve.iter().map(|e| {
            Json::Obj(vec![
                ("epoch".into(), Json::num(e.epoch as f64)),
                ("objective".into(), Json::num(e.objective)),
                ("hinge_loss".into(), Json::num(e.hinge_loss)),
                ("violated".into(), Json::num(e.violated as f64)),
                ("grad_norm".into(), Json::num(e.grad_norm)),
                ("lr".into(), Json::num(e.lr)),
            ])
        });
        let score_dump = self.score_dump.iter().map(|e| {
            Json::Obj(vec![
                ("rep".into(), Json::str(&e.rep)),
                ("role".into(), Json::str(&e.role)),
                ("score".into(), Json::num(e.score)),
                ("backoff_level".into(), Json::num(e.backoff_level as f64)),
            ])
        });
        Json::Obj(vec![
            ("schema_version".into(), Json::num(self.schema_version as f64)),
            ("tool".into(), Json::str(&self.tool)),
            ("command".into(), Json::str(&self.command)),
            ("mode".into(), Json::str(&self.mode)),
            ("checkpoint".into(), Json::str(&self.checkpoint)),
            ("stages".into(), Json::Arr(stages.collect())),
            ("metrics".into(), self.metrics.to_json()),
            ("curve".into(), Json::Arr(curve.collect())),
            ("score_dump".into(), Json::Arr(score_dump.collect())),
        ])
        .pretty()
    }

    /// Parses and schema-validates a manifest from its JSON form.
    ///
    /// # Errors
    ///
    /// Returns [`ManifestError::Json`] on malformed JSON and
    /// [`ManifestError::Schema`] when the schema version is not
    /// [`SCHEMA_VERSION`] or a required field is missing or has the wrong
    /// type.
    pub fn from_json(text: &str) -> Result<RunManifest, ManifestError> {
        let v = json::parse(text)?;
        let schema_version = req_u64(&v, "schema_version")?;
        if schema_version != SCHEMA_VERSION {
            return Err(ManifestError::Schema(format!(
                "schema version {schema_version} is not readable (this build reads v{SCHEMA_VERSION})"
            )));
        }
        Ok(RunManifest {
            schema_version,
            tool: req_str(&v, "tool")?,
            command: req_str(&v, "command")?,
            mode: req_str(&v, "mode")?,
            checkpoint: req_str(&v, "checkpoint")?,
            stages: req_arr(&v, "stages")?.iter().map(parse_stage).collect::<Result<_, _>>()?,
            metrics: MetricsRegistry::from_json(req(&v, "metrics")?)?,
            curve: req_arr(&v, "curve")?.iter().map(parse_epoch).collect::<Result<_, _>>()?,
            score_dump: req_arr(&v, "score_dump")?
                .iter()
                .map(parse_score_entry)
                .collect::<Result<_, _>>()?,
        })
    }

    /// Serializes the stage spans in Chrome trace-event format (an array
    /// of complete `"ph": "X"` events), loadable in `chrome://tracing` or
    /// <https://ui.perfetto.dev>.
    pub fn chrome_trace(&self) -> String {
        Json::Arr(
            self.stages
                .iter()
                .map(|s| {
                    Json::Obj(vec![
                        ("name".into(), Json::str(&s.name)),
                        ("cat".into(), Json::str("stage")),
                        ("ph".into(), Json::str("X")),
                        ("ts".into(), Json::num(s.start_us as f64)),
                        ("dur".into(), Json::num(s.dur_us as f64)),
                        ("pid".into(), Json::num(1.0)),
                        ("tid".into(), Json::num(1.0)),
                        (
                            "args".into(),
                            Json::Obj(
                                s.counters
                                    .iter()
                                    .map(|(k, v)| (k.clone(), Json::num(*v)))
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect(),
        )
        .pretty()
    }

    /// Renders the manifest's quantitative content in Prometheus text
    /// exposition format (the `seldon metrics-dump` output): labelled
    /// per-stage duration/memory gauges plus every metric in the registry,
    /// all under the `seldon_` prefix.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, help, memory) in [
            ("stage_duration_us", "Wall-clock duration per pipeline stage.", false),
            ("stage_mem_peak_bytes", "Allocator high-water mark at stage close.", true),
        ] {
            out.push_str(&format!("# HELP seldon_{name} {help}\n# TYPE seldon_{name} gauge\n"));
            for s in self.stages.iter().filter(|s| s.depth == 0) {
                let value = if memory { s.mem_peak_bytes } else { s.dur_us };
                out.push_str(&format!("seldon_{name}{{stage=\"{}\"}} {value}\n", s.name));
            }
        }
        out.push_str(&self.metrics.to_prometheus("seldon_"));
        out
    }
}

fn parse_stage(v: &Json) -> Result<StageSpan, ManifestError> {
    let counters = match req(v, "counters")? {
        Json::Obj(pairs) => pairs
            .iter()
            .map(|(k, n)| {
                n.as_f64()
                    .map(|f| (k.clone(), f))
                    .ok_or_else(|| schema_err("stage counter", "number"))
            })
            .collect::<Result<Vec<_>, _>>()?,
        _ => return Err(schema_err("stages[].counters", "object")),
    };
    let parent = match req(v, "parent")? {
        Json::Null => None,
        n => Some(
            n.as_u64().ok_or_else(|| schema_err("stages[].parent", "u32 or null"))? as u32,
        ),
    };
    Ok(StageSpan {
        name: req_str(v, "name")?,
        parent,
        depth: req_u64(v, "depth")? as u32,
        start_us: req_u64(v, "start_us")?,
        dur_us: req_u64(v, "dur_us")?,
        mem_now_bytes: req_u64(v, "mem_now_bytes")?,
        mem_peak_bytes: req_u64(v, "mem_peak_bytes")?,
        counters,
    })
}

fn parse_score_entry(v: &Json) -> Result<ScoreDumpEntry, ManifestError> {
    Ok(ScoreDumpEntry {
        rep: req_str(v, "rep")?,
        role: req_str(v, "role")?,
        score: req_f64(v, "score")?,
        backoff_level: req_u64(v, "backoff_level")?,
    })
}

fn parse_epoch(v: &Json) -> Result<EpochSample, ManifestError> {
    Ok(EpochSample {
        epoch: req_u64(v, "epoch")?,
        objective: req_f64(v, "objective")?,
        hinge_loss: req_f64(v, "hinge_loss")?,
        violated: req_u64(v, "violated")?,
        grad_norm: req_f64(v, "grad_norm")?,
        lr: req_f64(v, "lr")?,
    })
}

fn schema_err(field: &str, expected: &str) -> ManifestError {
    ManifestError::Schema(format!("field `{field}` missing or not a {expected}"))
}

fn req<'a>(v: &'a Json, key: &str) -> Result<&'a Json, ManifestError> {
    v.get(key).ok_or_else(|| ManifestError::Schema(format!("missing field `{key}`")))
}

fn req_u64(v: &Json, key: &str) -> Result<u64, ManifestError> {
    req(v, key)?.as_u64().ok_or_else(|| schema_err(key, "u64"))
}

fn req_f64(v: &Json, key: &str) -> Result<f64, ManifestError> {
    req(v, key)?.as_f64().ok_or_else(|| schema_err(key, "number"))
}

fn req_str(v: &Json, key: &str) -> Result<String, ManifestError> {
    Ok(req(v, key)?.as_str().ok_or_else(|| schema_err(key, "string"))?.to_string())
}

fn req_arr<'a>(v: &'a Json, key: &str) -> Result<&'a [Json], ManifestError> {
    req(v, key)?.as_arr().ok_or_else(|| schema_err(key, "array"))
}


/// Failure to parse or validate a manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ManifestError {
    /// The input was not well-formed JSON.
    Json(JsonError),
    /// The JSON did not match the manifest schema.
    Schema(String),
}

impl fmt::Display for ManifestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ManifestError::Json(e) => e.fmt(f),
            ManifestError::Schema(msg) => write!(f, "manifest schema error: {msg}"),
        }
    }
}

impl std::error::Error for ManifestError {}

impl From<JsonError> for ManifestError {
    fn from(e: JsonError) -> Self {
        ManifestError::Json(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{Class, Histogram, MetricValue};

    fn sample_manifest() -> RunManifest {
        let mut m = RunManifest::new("learn");
        m.checkpoint = "full".into();
        m.stages = vec![
            StageSpan {
                name: stage::PARSE.into(),
                parent: None,
                depth: 0,
                start_us: 0,
                dur_us: 120,
                mem_now_bytes: 4096,
                mem_peak_bytes: 8192,
                counters: vec![("files".into(), 3.0)],
            },
            StageSpan {
                name: stage::SOLVE.into(),
                parent: None,
                depth: 0,
                start_us: 130,
                dur_us: 999,
                mem_now_bytes: 2048,
                mem_peak_bytes: 16384,
                counters: vec![("iterations".into(), 80.0)],
            },
        ];
        m.curve = vec![
            EpochSample {
                epoch: 0,
                objective: 3.0,
                hinge_loss: 2.9,
                violated: 20,
                grad_norm: 4.2,
                lr: 0.05,
            },
            EpochSample {
                epoch: 10,
                objective: 1.25,
                hinge_loss: 0.5,
                violated: 3,
                grad_norm: 0.7,
                lr: 0.05,
            },
        ];
        let reg = &mut m.metrics;
        for (def, v) in metric::CORPUS.iter().zip([3.0, 1.0, 40.0, 25.0]) {
            reg.gauge(def, v);
        }
        for (def, v) in metric::TEMPLATES.iter().zip([9.0, 8.0, 9.0]) {
            reg.gauge(def, v);
        }
        reg.gauge(&metric::SOLVER_OBJECTIVE, 1.25);
        reg.gauge(&metric::TAINT_VIOLATIONS, 7.0);
        reg.counter(&metric::CACHE[0], 5.0);
        for (def, v) in metric::MEMORY.iter().zip([1_000_000.0, 5_000_000.0, 9_000_000.0]) {
            reg.gauge(def, v);
        }
        let mut py = Histogram::with_u64_bounds(&PARSE_HIST_BOUNDS);
        py.counts = vec![1, 0, 2, 0, 0, 0, 0, 0, 1];
        py.sum = 11_250.0;
        let mut js = Histogram::with_u64_bounds(&PARSE_HIST_BOUNDS);
        js.counts[1] = 3;
        for (frontend, h) in [("python", py), ("js", js)] {
            let name = metric::parse_time(frontend);
            reg.put_histogram(&name, metric::PARSE_TIME.help, metric::PARSE_TIME.class, h);
        }
        reg.inc_counter("files_analyzed", "Files analyzed.", Class::Identity, 3.0);
        reg.set_gauge("solver_epoch_us", "Mean epoch time.", Class::Cost, 12.5);
        let help = "Occurrences per representation.";
        reg.observe("rep_frequency", help, Class::Identity, &[1.0, 10.0], 4.0);
        m.score_dump = vec![
            ScoreDumpEntry {
                rep: "os.system(0)".into(),
                role: "sink".into(),
                score: 0.93,
                backoff_level: 0,
            },
            ScoreDumpEntry {
                rep: "flask.request.*".into(),
                role: "source".into(),
                score: 0.61,
                backoff_level: 2,
            },
        ];
        m
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let m = sample_manifest();
        let back = RunManifest::from_json(&m.to_json()).expect("round trip");
        assert_eq!(back, m);
    }

    #[test]
    fn pre_v8_manifest_is_rejected_with_a_schema_version_error() {
        let text = sample_manifest().to_json();
        for old in [5, 6, 7] {
            let legacy =
                text.replace("\"schema_version\": 8", &format!("\"schema_version\": {old}"));
            assert_ne!(legacy, text, "schema version was present to rewrite");
            match RunManifest::from_json(&legacy) {
                Err(ManifestError::Schema(msg)) => {
                    assert!(msg.contains(&format!("schema version {old}")), "{msg}")
                }
                other => panic!("v{old} manifest: {other:?}"),
            }
        }
    }

    #[test]
    fn schema_validation_rejects_missing_and_mistyped_fields() {
        let m = sample_manifest();
        let text = m.to_json();
        let no_metrics = text.replace("\"metrics\"", "\"metrics_x\"");
        assert!(matches!(
            RunManifest::from_json(&no_metrics),
            Err(ManifestError::Schema(_))
        ));
        let bad_mode = text.replace("\"mode\": \"batch\"", "\"mode\": 0");
        assert!(matches!(RunManifest::from_json(&bad_mode), Err(ManifestError::Schema(_))));
        let no_checkpoint = text.replace("\"checkpoint\"", "\"checkpoint_x\"");
        assert!(matches!(
            RunManifest::from_json(&no_checkpoint),
            Err(ManifestError::Schema(_))
        ));
        let bad_class = text.replace("\"class\": \"identity\"", "\"class\": true");
        assert!(matches!(RunManifest::from_json(&bad_class), Err(ManifestError::Schema(_))));
        assert!(matches!(RunManifest::from_json("{oops"), Err(ManifestError::Json(_))));
    }

    #[test]
    fn redaction_zeroes_only_timings() {
        let mut m = sample_manifest();
        m.redact_timings();
        assert!(m.stages.iter().all(|s| s.start_us == 0 && s.dur_us == 0));
        assert!(m.stages.iter().all(|s| s.mem_now_bytes == 0 && s.mem_peak_bytes == 0));
        assert_eq!(m.curve.len(), 2, "curve untouched");
        assert_eq!(m.stages[0].counters, vec![("files".to_string(), 3.0)]);
        // Histogram spreads are wall-clock-dependent; the totals are not.
        let py = m.metrics.histogram("parse_time_us_python").unwrap();
        assert_eq!(py.counts, [4, 0, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(py.sum, 0.0);
        assert_eq!(m.metrics.histogram("parse_time_us_js").unwrap().total(), 3);
        // Memory readings are machine state; the metrics stay present.
        assert_eq!(m.metrics.value("mem_peak_bytes"), Some(0.0), "tracked survives redaction");
        // Volatile metrics are zeroed, deterministic ones are not.
        assert_eq!(
            m.metrics.get("solver_epoch_us").unwrap().value,
            MetricValue::Gauge(0.0)
        );
        assert_eq!(
            m.metrics.get("files_analyzed").unwrap().value,
            MetricValue::Counter(3.0)
        );
        assert_eq!(m.metrics.value("taint_violations"), Some(7.0));
        // The score dump is solver output, deterministic by design.
        assert_eq!(m.score_dump.len(), 2);
        assert_eq!(m.score_dump[0].score, 0.93);
    }

    #[test]
    fn stage_lookup_and_completeness() {
        let m = sample_manifest();
        assert!(m.stage(stage::PARSE).is_some());
        assert!(m.stage(stage::TAINT).is_none());
        assert!(!m.has_all_stages());
    }

    #[test]
    fn parse_histogram_buckets_by_bound() {
        let mut h = Histogram::with_u64_bounds(&PARSE_HIST_BOUNDS);
        h.observe(0.0); // first bucket (≤ 50µs)
        h.observe(50.0); // bounds are inclusive
        h.observe(51.0); // next bucket
        h.observe(10_000.0); // last bounded bucket
        h.observe(10_001.0); // overflow
        assert_eq!(h.counts[0], 2);
        assert_eq!(h.counts[1], 1);
        assert_eq!(h.counts[PARSE_HIST_BOUNDS.len() - 1], 1);
        assert_eq!(h.counts[PARSE_HIST_BOUNDS.len()], 1);
        assert_eq!(h.total(), 5);
        assert_eq!(h.sum, 20_102.0, "sum accumulates for mean reconstruction");
    }

    #[test]
    fn histogram_schema_rejects_wrong_arity() {
        let mut m = RunManifest::new("learn");
        let mut bad = Histogram::with_u64_bounds(&PARSE_HIST_BOUNDS);
        bad.counts = vec![1, 2];
        m.metrics.put_histogram("parse_time_us_python", "p", Class::Cost, bad);
        assert!(matches!(RunManifest::from_json(&m.to_json()), Err(ManifestError::Schema(_))));
        let mut ok = Histogram::with_u64_bounds(&PARSE_HIST_BOUNDS);
        ok.counts = (0..9).collect();
        ok.sum = 99.5;
        let mut m = RunManifest::new("learn");
        m.metrics.put_histogram("parse_time_us_js", "p", Class::Cost, ok);
        let back = RunManifest::from_json(&m.to_json()).unwrap();
        assert_eq!(back.metrics.histogram("parse_time_us_js").unwrap().total(), 36);
    }

    #[test]
    fn prometheus_exposition_covers_stages_memory_and_registry() {
        let text = sample_manifest().to_prometheus();
        assert!(text.contains("seldon_stage_duration_us{stage=\"parse\"} 120\n"));
        assert!(text.contains("seldon_stage_mem_peak_bytes{stage=\"solve\"} 16384\n"));
        assert!(text.contains("seldon_mem_peak_rss_bytes 9000000\n"));
        assert!(text.contains("seldon_cache_hits 5\n"));
        assert!(text.contains("seldon_parse_time_us_python_bucket{le=\"50\"} 1\n"));
        assert!(text.contains("seldon_parse_time_us_python_count 4\n"));
        assert!(text.contains("seldon_rep_frequency_bucket{le=\"+Inf\"} 1\n"));
        assert!(text.contains("seldon_files_analyzed 3\n"));
        let mut families: Vec<&str> = text.lines().filter(|l| l.starts_with("# TYPE ")).collect();
        let n = families.len();
        families.sort_unstable();
        families.dedup();
        assert_eq!(families.len(), n, "every family is declared once");
    }

    #[test]
    fn chrome_trace_is_valid_json_with_complete_events() {
        let m = sample_manifest();
        let trace = crate::json::parse(&m.chrome_trace()).expect("valid JSON");
        let events = trace.as_arr().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(events[1].get("dur").and_then(Json::as_u64), Some(999));
        assert_eq!(
            events[1].get("args").and_then(|a| a.get("iterations")).and_then(Json::as_u64),
            Some(80)
        );
    }
}
