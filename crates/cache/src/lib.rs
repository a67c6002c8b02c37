//! Crash-safe incremental artifact cache for the Seldon pipeline.
//!
//! The paper's inference loop (and every system built on it — continuous
//! re-inference over evolving corpora, active-learning re-solves) re-runs
//! far more often than its inputs change. This crate makes warm re-runs
//! cheap without ever letting persistence compromise correctness:
//!
//! * **Per-file artifacts** ([`artifact::encode`], [`artifact::decode`],
//!   [`ArtifactCache`]): the parse → propagation-graph →
//!   constraint-fragment work for one source file, keyed by [`file_key`]
//!   (a hash of the file bytes, the entry format version, and an
//!   analysis-option salt). Artifacts serialize representations by
//!   *string*; a cache hit interns them into the decoded graph's own
//!   table while it decodes the payload straight into the graph, in one
//!   pass over the read buffer — a `Symbol(u32)` means something only to
//!   its graph's table and never reaches disk.
//! * **Solver checkpoint** ([`Checkpoint`]): the previous score vector and
//!   extracted spec, keyed by one exact fingerprint ([`input_fingerprint`])
//!   over the corpus's graph key, the seed and the options. The graph key
//!   folds the per-file graphs' [`graph_fingerprint`]s in corpus order
//!   ([`fold_file_fingerprints`]); each fingerprint hashes only what
//!   learning reads (no spans, file stamps or argument positions) and is
//!   stored with its file's artifact, so a warm run never hashes the
//!   union. Reuse is all-or-nothing so warm results stay byte-identical
//!   to cold ones.
//! * **Payload codec** (crate-private `codec`): both payloads are binary
//!   records of little-endian integers, f64 bit patterns and
//!   length-prefixed strings, read back by a bounds-checked reader that
//!   checks every count against the bytes left before allocating.
//! * **Crash safety** ([`entry`]): every file is a checksummed frame
//!   written via temp-file + atomic rename. Corrupt, truncated,
//!   bit-flipped, version-skewed, or torn entries are detected before
//!   use, quarantined, and recomputed — a cache fault can cost time,
//!   never correctness.
//! * **Fault injection** ([`inject_cache_faults`]): deterministic damage
//!   (torn write, truncation, bit flip, stale schema stamp, missing
//!   index) for the robustness suite and the CI determinism gate.

pub mod artifact;
pub mod checkpoint;
mod codec;
pub mod entry;
pub mod hash;
pub mod inject;
pub mod store;

pub use artifact::ArtifactMeta;
pub use checkpoint::{
    fold_file_fingerprints, graph_fingerprint, input_fingerprint, union_graph_key, Checkpoint,
    SystemSummary,
};
pub use entry::{decode_entry, encode_entry, write_atomic, EntryError, ENTRY_VERSION};
pub use hash::{checksum, Fnv64};
pub use inject::{inject_cache_faults, CacheFaultKind, InjectedCacheFault};
pub use store::{
    file_key, ArtifactCache, ArtifactLookup, CacheFault, CacheStats, CheckpointLookup,
    FaultClass, StoreQueue, CHECKPOINT_NAME, INDEX_NAME,
};
