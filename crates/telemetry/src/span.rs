//! The span/counter recorder behind a [`Telemetry`] handle.
//!
//! Design constraints (mirroring the rest of the workspace): no external
//! services, no background threads, and a **zero-cost disabled path** — a
//! disabled handle holds no recorder, [`Telemetry::span`] returns an inert
//! guard without so much as reading the clock, and counters are dropped
//! before any allocation happens.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Stderr log verbosity of a [`Telemetry`] handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Level {
    /// No logging (the default).
    #[default]
    Off,
    /// One line per closed stage span.
    Info,
    /// Stage lines plus every recorded counter.
    Debug,
}

impl std::str::FromStr for Level {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" => Ok(Level::Off),
            "info" => Ok(Level::Info),
            "debug" => Ok(Level::Debug),
            other => Err(format!("unknown log level `{other}` (expected off|info|debug)")),
        }
    }
}

/// One recorded span: a named phase with wall-clock duration, tree
/// position, and attached counters.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Stage name (see [`crate::stage`]).
    pub name: &'static str,
    /// Index of the enclosing span in the record list, if nested.
    pub parent: Option<u32>,
    /// Nesting depth (root spans are 0).
    pub depth: u32,
    /// Microseconds since the recorder was created.
    pub start_us: u64,
    /// Span duration in microseconds.
    pub dur_us: u64,
    /// Live heap bytes when the span closed (from the counting
    /// allocator; 0 until close).
    pub mem_now_bytes: u64,
    /// Allocator high-water mark when the span closed. The mark is
    /// monotone across the process, so this reads as "peak by end of
    /// stage", not a span-local maximum.
    pub mem_peak_bytes: u64,
    /// Counters recorded on this span, in record order.
    pub counters: Vec<(&'static str, f64)>,
}

#[derive(Debug, Default)]
struct Recorder {
    spans: Vec<SpanRecord>,
    /// Indices of currently open spans, innermost last.
    stack: Vec<u32>,
}

/// A cloneable telemetry handle threaded through the pipeline.
///
/// A handle is **disabled** (the default) or **active**. Disabled handles
/// are no-ops everywhere: spans don't read the clock, counters don't
/// allocate. Active handles record spans into a shared in-memory recorder
/// and/or log them to stderr depending on [`Level`].
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    rec: Option<Arc<(Instant, Mutex<Recorder>)>>,
    log: Level,
}

impl Telemetry {
    /// The disabled (no-op) handle.
    pub fn disabled() -> Telemetry {
        Telemetry::default()
    }

    /// A recording handle with logging off.
    pub fn recording() -> Telemetry {
        Telemetry {
            rec: Some(Arc::new((Instant::now(), Mutex::new(Recorder::default())))),
            log: Level::Off,
        }
    }

    /// Sets the stderr log level, returning the modified handle.
    #[must_use]
    pub fn with_log_level(mut self, level: Level) -> Telemetry {
        self.log = level;
        self
    }

    /// Whether spans are being recorded in memory.
    pub fn is_recording(&self) -> bool {
        self.rec.is_some()
    }

    /// Whether the handle does anything at all (recording or logging).
    pub fn is_active(&self) -> bool {
        self.rec.is_some() || self.log != Level::Off
    }

    fn lock(&self) -> Option<(Instant, MutexGuard<'_, Recorder>)> {
        self.rec.as_ref().map(|rec| {
            (rec.0, rec.1.lock().unwrap_or_else(std::sync::PoisonError::into_inner))
        })
    }

    /// Opens a timed span; it closes (and records its duration) when the
    /// returned guard drops. On a disabled handle this is free.
    pub fn span(&self, name: &'static str) -> SpanGuard {
        if !self.is_active() {
            return SpanGuard { tele: None, name, index: None, start: None };
        }
        let start = Instant::now();
        let index = self.lock().map(|(epoch, mut rec)| {
            let index = rec.spans.len() as u32;
            let parent = rec.stack.last().copied();
            let depth = rec.stack.len() as u32;
            rec.spans.push(SpanRecord {
                name,
                parent,
                depth,
                start_us: start.duration_since(epoch).as_micros() as u64,
                dur_us: 0,
                mem_now_bytes: 0,
                mem_peak_bytes: 0,
                counters: Vec::new(),
            });
            rec.stack.push(index);
            index
        });
        SpanGuard { tele: Some(self.clone()), name, index, start: Some(start) }
    }

    /// Records an already-measured phase as a closed span with the given
    /// duration and counters. Used for phases whose time is accumulated
    /// file by file (per-file parse/build), where a live guard would
    /// measure the whole interleaved loop instead of one phase's work.
    ///
    /// Returns the record index of the new span (for attaching children
    /// via [`Telemetry::aggregate_child`]); `None` on a non-recording
    /// handle.
    pub fn aggregate_span(
        &self,
        name: &'static str,
        dur: Duration,
        counters: &[(&'static str, f64)],
    ) -> Option<u32> {
        if !self.is_active() {
            return None;
        }
        let index = self.lock().map(|(epoch, mut rec)| {
            let index = rec.spans.len() as u32;
            let parent = rec.stack.last().copied();
            let depth = rec.stack.len() as u32;
            let now_us = epoch.elapsed().as_micros() as u64;
            let dur_us = dur.as_micros() as u64;
            let mem = crate::memory::MemoryGauge::snapshot();
            rec.spans.push(SpanRecord {
                name,
                parent,
                depth,
                start_us: now_us.saturating_sub(dur_us),
                dur_us,
                mem_now_bytes: mem.current_bytes,
                mem_peak_bytes: mem.peak_bytes,
                counters: counters.to_vec(),
            });
            index
        });
        if self.log >= Level::Info {
            eprintln!("[seldon] {name}: {dur:?} (aggregate)");
        }
        if self.log >= Level::Debug {
            for (k, v) in counters {
                eprintln!("[seldon]   {name}.{k} = {v}");
            }
        }
        index
    }

    /// Records an already-measured closed span as a **child** of the span
    /// at `parent` (an index returned by [`Telemetry::aggregate_span`] or
    /// [`SpanGuard::index`]), regardless of what is currently on the open
    /// stack. This lets the driver attach per-project parse shares or the
    /// solver's compile step to stage spans that were themselves recorded as
    /// aggregates. With `parent == None` the call is a no-op beyond debug
    /// logging — there is nothing to attach to on a non-recording handle.
    pub fn aggregate_child(
        &self,
        parent: Option<u32>,
        name: &'static str,
        dur: Duration,
        counters: &[(&'static str, f64)],
    ) {
        if !self.is_active() {
            return;
        }
        if let (Some(parent), Some((epoch, mut rec))) = (parent, self.lock()) {
            let depth = rec
                .spans
                .get(parent as usize)
                .map_or(0, |span| span.depth + 1);
            let now_us = epoch.elapsed().as_micros() as u64;
            let dur_us = dur.as_micros() as u64;
            let mem = crate::memory::MemoryGauge::snapshot();
            rec.spans.push(SpanRecord {
                name,
                parent: Some(parent),
                depth,
                start_us: now_us.saturating_sub(dur_us),
                dur_us,
                mem_now_bytes: mem.current_bytes,
                mem_peak_bytes: mem.peak_bytes,
                counters: counters.to_vec(),
            });
        }
        if self.log >= Level::Debug {
            eprintln!("[seldon]   {name}: {dur:?} (aggregate child)");
            for (k, v) in counters {
                eprintln!("[seldon]     {name}.{k} = {v}");
            }
        }
    }

    /// Logs a line at [`Level::Info`]; the closure only runs when enabled.
    pub fn info(&self, message: impl FnOnce() -> String) {
        if self.log >= Level::Info {
            eprintln!("[seldon] {}", message());
        }
    }

    /// Logs a line at [`Level::Debug`]; the closure only runs when enabled.
    pub fn debug(&self, message: impl FnOnce() -> String) {
        if self.log >= Level::Debug {
            eprintln!("[seldon] {}", message());
        }
    }

    /// Takes the recorded spans, leaving the recorder empty. Returns an
    /// empty list on non-recording handles.
    ///
    /// # Panics
    ///
    /// Panics if called while spans are still open.
    pub fn take_spans(&self) -> Vec<SpanRecord> {
        match self.lock() {
            Some((_, mut rec)) => {
                assert!(
                    rec.stack.is_empty(),
                    "take_spans() with {} span(s) still open",
                    rec.stack.len()
                );
                std::mem::take(&mut rec.spans)
            }
            None => Vec::new(),
        }
    }
}

/// Guard of one open span; records the duration when dropped.
#[derive(Debug)]
pub struct SpanGuard {
    tele: Option<Telemetry>,
    name: &'static str,
    index: Option<u32>,
    start: Option<Instant>,
}

impl SpanGuard {
    /// The record index of this span, for attaching aggregate children;
    /// `None` on a non-recording handle.
    pub fn index(&self) -> Option<u32> {
        self.index
    }

    /// Attaches a counter to this span (no-op on a disabled handle).
    pub fn counter(&self, name: &'static str, value: f64) {
        let Some(tele) = &self.tele else { return };
        if let (Some(index), Some((_, mut rec))) = (self.index, tele.lock()) {
            rec.spans[index as usize].counters.push((name, value));
        }
        if let Some(tele) = &self.tele {
            tele.debug(|| format!("  {}.{name} = {value}", self.name));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(tele) = &self.tele else { return };
        let elapsed = self.start.map(|s| s.elapsed()).unwrap_or_default();
        if let (Some(index), Some((_, mut rec))) = (self.index, tele.lock()) {
            let mem = crate::memory::MemoryGauge::snapshot();
            rec.spans[index as usize].dur_us = elapsed.as_micros() as u64;
            rec.spans[index as usize].mem_now_bytes = mem.current_bytes;
            rec.spans[index as usize].mem_peak_bytes = mem.peak_bytes;
            // Close strictly innermost-first; a leaked guard dropped out of
            // order would corrupt nesting, so tolerate only the top.
            if rec.stack.last() == Some(&index) {
                rec.stack.pop();
            } else {
                rec.stack.retain(|&i| i != index);
            }
        }
        tele.info(|| format!("{}: {elapsed:?}", self.name));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing() {
        let tele = Telemetry::disabled();
        assert!(!tele.is_active());
        let span = tele.span("parse");
        span.counter("files", 3.0);
        drop(span);
        tele.aggregate_span("propgraph", Duration::from_millis(1), &[("events", 9.0)]);
        assert!(tele.take_spans().is_empty());
    }

    #[test]
    fn spans_record_in_open_order_with_nesting() {
        let tele = Telemetry::recording();
        {
            let outer = tele.span("solve");
            outer.counter("iterations", 10.0);
            let inner = tele.span("extract");
            inner.counter("learned", 2.0);
            drop(inner);
            drop(outer);
        }
        tele.aggregate_span("taint", Duration::from_micros(123), &[]);
        let spans = tele.take_spans();
        assert_eq!(
            spans.iter().map(|s| s.name).collect::<Vec<_>>(),
            ["solve", "extract", "taint"]
        );
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[0].depth, 0);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].depth, 1);
        assert_eq!(spans[2].parent, None, "taint opened after solve closed");
        assert_eq!(spans[0].counters, vec![("iterations", 10.0)]);
        assert_eq!(spans[2].dur_us, 123);
        // The recorder drains on take.
        assert!(tele.take_spans().is_empty());
    }

    #[test]
    fn aggregate_children_attach_to_closed_aggregates() {
        let tele = Telemetry::recording();
        let parse = tele.aggregate_span("parse", Duration::from_micros(100), &[]);
        assert!(parse.is_some());
        tele.aggregate_child(parse, "parse.project", Duration::from_micros(40), &[("project", 0.0)]);
        tele.aggregate_child(parse, "parse.project", Duration::from_micros(60), &[("project", 1.0)]);
        let solve = tele.span("solve");
        tele.aggregate_child(solve.index(), "compile", Duration::from_micros(7), &[]);
        drop(solve);
        let spans = tele.take_spans();
        assert_eq!(
            spans.iter().map(|s| s.name).collect::<Vec<_>>(),
            ["parse", "parse.project", "parse.project", "solve", "compile"]
        );
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].depth, 1);
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[4].parent, Some(3), "child of a live guard's index");
        assert_eq!(spans[4].depth, 1);
        // Disabled handles stay free.
        let off = Telemetry::disabled();
        assert_eq!(off.aggregate_span("parse", Duration::ZERO, &[]), None);
        off.aggregate_child(None, "parse.project", Duration::ZERO, &[]);
        assert!(off.take_spans().is_empty());
    }

    #[test]
    fn clones_share_one_recorder() {
        let tele = Telemetry::recording();
        let clone = tele.clone();
        drop(clone.span("parse"));
        drop(tele.span("union"));
        let names: Vec<&str> = tele.take_spans().iter().map(|s| s.name).collect();
        assert_eq!(names, ["parse", "union"]);
    }

    #[test]
    fn level_parsing_and_order() {
        assert_eq!("info".parse::<Level>(), Ok(Level::Info));
        assert_eq!("debug".parse::<Level>(), Ok(Level::Debug));
        assert_eq!("off".parse::<Level>(), Ok(Level::Off));
        assert!("verbose".parse::<Level>().is_err());
        assert!(Level::Debug > Level::Info && Level::Info > Level::Off);
    }

    #[test]
    fn log_only_handle_is_active_but_not_recording() {
        let tele = Telemetry::disabled().with_log_level(Level::Info);
        assert!(tele.is_active());
        assert!(!tele.is_recording());
        drop(tele.span("parse"));
        assert!(tele.take_spans().is_empty());
    }
}
