//! # seldon-telemetry
//!
//! Offline, dependency-free pipeline telemetry for the Seldon
//! reproduction: hierarchical stage spans with counters, stderr logging,
//! solver convergence samples, and the machine-readable [`RunManifest`]
//! (with a Chrome trace-event export) that every instrumented run emits.
//!
//! The subsystem follows the same rules as `compat/`: no network, no
//! external crates, and a disabled handle costs nothing — not even a
//! clock read — so the zero-telemetry pipeline path stays as fast as the
//! uninstrumented code.
//!
//! ## Example
//!
//! ```
//! use seldon_telemetry::{stage, Telemetry};
//!
//! let tele = Telemetry::recording();
//! {
//!     let span = tele.span(stage::UNION);
//!     // ... work ...
//!     span.counter("events", 42.0);
//! }
//! let spans = tele.take_spans();
//! assert_eq!(spans[0].name, stage::UNION);
//! ```

#![warn(missing_docs)]

pub mod diff;
pub mod json;
pub mod manifest;
pub mod memory;
pub mod metrics;
pub mod span;

pub use diff::{diff_manifests, parse_tolerance_pct, DiffOptions, DiffReport};
pub use manifest::{
    metric, stage, EpochSample, ManifestError, RunManifest, ScoreDumpEntry, StageSpan,
    PARSE_HIST_BOUNDS, SCHEMA_VERSION,
};
pub use memory::{CountingAlloc, MemSnapshot, MemoryGauge};
pub use metrics::{Class, Histogram, Metric, MetricDef, MetricValue, MetricsRegistry};
pub use span::{Level, SpanGuard, SpanRecord, Telemetry};
