//! # seldon-serve
//!
//! The incremental analysis service: a long-running daemon that keeps the
//! analyzed corpus, the unioned propagation graph, and the solved
//! constraint system resident, and re-learns the taint specification on
//! *corpus deltas* instead of from scratch.
//!
//! The paper's pipeline (parse → union → generate → solve → extract) is a
//! batch computation, but most of its cost is insensitive to a one-file
//! edit: the unioned graph is a disjoint concatenation of per-file graphs,
//! so per-file work — parsing, graph construction, and (because flow
//! constraints never cross file boundaries) constraint rows — can be
//! reused for every untouched file. Only the global pieces re-run each
//! delta: §4.3 backoff selection (corpus-wide frequency counts couple
//! files) and the solve, which climbs the same checkpoint ladder as batch
//! `learn` (stored scores reused only on an exact fingerprint match), so
//! the served spec stays byte-identical to a cold batch run over the
//! same corpus state.
//!
//! Three layers:
//!
//! * [`ServeEngine`] — the resident state and the delta → spec pipeline
//!   ([`ServeEngine::apply_delta`]); pure library, no I/O besides the
//!   artifact cache.
//! * [`protocol`] — the line-delimited JSON request/response schema.
//! * [`daemon`] — the Unix-socket accept loop ([`daemon::run_daemon`])
//!   and the client helper ([`daemon::client_request`]).

#![warn(missing_docs)]

pub mod daemon;
pub mod engine;
pub mod protocol;

pub use daemon::{client_request, run_daemon, ServeDaemon};
pub use engine::{Delta, DeltaOutcome, EngineConfig, EngineError, ServeCounters, ServeEngine};
pub use protocol::Request;
