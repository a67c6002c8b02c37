//! The on-disk artifact store: keyed entries, an index stamp, quarantine,
//! and hit/miss/fault accounting.
//!
//! A cache directory holds one `*.entry` file per cached per-file
//! artifact (named by its 16-hex-digit key), one `solver.ckpt` checkpoint,
//! an `index.json` stamp, and a `quarantine/` subdirectory. Every read
//! path classifies damage instead of failing: a bad entry is moved into
//! `quarantine/` (preserving the evidence), counted, reported as a
//! [`CacheFault`], and the caller recomputes. No cache failure mode is
//! allowed to escape as an error — the worst outcome of any fault is a
//! cold computation.

use crate::artifact::{decode, encode, ArtifactMeta};
use crate::checkpoint::Checkpoint;
use crate::entry::{decode_entry, encode_entry, write_atomic, EntryError, ENTRY_VERSION};
use seldon_intern::IdHasher;
use seldon_propgraph::{FileId, PropagationGraph};
use seldon_telemetry::json::{self, Json};
use std::fs;
use std::hash::Hasher;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::thread;

/// Name of the index stamp inside a cache directory.
pub const INDEX_NAME: &str = "index.json";

/// Name of the solver checkpoint inside a cache directory.
pub const CHECKPOINT_NAME: &str = "solver.ckpt";

/// How a detected cache fault is classified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// Byte-level damage: torn write, truncation, bit flip, or a payload
    /// that decodes inconsistently.
    Corrupt,
    /// A well-formed entry written by a different format version.
    Stale,
    /// The directory holds entries but no readable index stamp.
    MissingIndex,
    /// An I/O error reading or writing the cache (permissions, disk).
    Io,
}

impl FaultClass {
    /// Stable lowercase label (used in reports and logs).
    pub fn label(self) -> &'static str {
        match self {
            FaultClass::Corrupt => "corrupt",
            FaultClass::Stale => "stale",
            FaultClass::MissingIndex => "missing-index",
            FaultClass::Io => "io",
        }
    }
}

impl std::fmt::Display for FaultClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One detected-and-contained cache fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheFault {
    /// The cache file involved (file name within the cache directory).
    pub entry: String,
    /// Damage classification.
    pub class: FaultClass,
    /// Human-readable detail.
    pub detail: String,
}

impl std::fmt::Display for CacheFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} entry `{}`: {}", self.class, self.entry, self.detail)
    }
}

/// A snapshot of cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Artifact lookups served from disk.
    pub hits: u64,
    /// Artifact lookups that found no entry.
    pub misses: u64,
    /// Entries written (artifacts and checkpoints).
    pub stores: u64,
    /// Entries rejected as corrupt.
    pub corrupt: u64,
    /// Entries rejected as version-stale.
    pub stale: u64,
    /// Entries evicted (quarantined or cleared on a stale index).
    pub evicted: u64,
    /// Decoded payload bytes served by hits (artifact and checkpoint) —
    /// the "bytes reused" figure: work the warm run did not redo.
    pub bytes_read: u64,
    /// Encoded frame bytes written by stores.
    pub bytes_written: u64,
}

#[derive(Debug, Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
    corrupt: AtomicU64,
    stale: AtomicU64,
    evicted: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
}

/// Outcome of an artifact lookup.
#[derive(Debug)]
pub enum ArtifactLookup {
    /// A validated graph (re-stamped with the requested [`FileId`]) and
    /// its stored record: the recovered-error count and the fingerprint
    /// the store computed.
    Hit(PropagationGraph, ArtifactMeta),
    /// No entry under this key.
    Miss,
    /// The entry existed but was damaged; it has been quarantined and the
    /// caller must recompute.
    Fault(CacheFault),
}

/// Outcome of a checkpoint lookup.
#[derive(Debug)]
pub enum CheckpointLookup {
    /// A validated checkpoint.
    Hit(Box<Checkpoint>),
    /// No checkpoint stored.
    Miss,
    /// The checkpoint was damaged; it has been quarantined.
    Fault(CacheFault),
}

/// Artifact stores for [`ArtifactCache::write_behind`]'s writer: each is
/// encoded on the caller's thread and written like
/// [`ArtifactCache::store`] (temp file, `sync_data`, rename).
#[derive(Debug)]
pub struct StoreQueue {
    tx: mpsc::Sender<(usize, u64, Vec<u8>)>,
}

impl StoreQueue {
    /// Queues `graph`'s artifact, with its record `meta`, under `key`. A
    /// write fault comes back from [`ArtifactCache::write_behind`] with
    /// `tag`, so the caller can say which file it belongs to.
    pub fn store_artifact(
        &self,
        tag: usize,
        key: u64,
        graph: &PropagationGraph,
        meta: ArtifactMeta,
    ) {
        // The writer outlives every queue, so the send cannot fail.
        let _ = self.tx.send((tag, key, encode_entry(&encode(graph, meta))));
    }
}

/// Derives the cache key for a source file: entry-format version, the
/// caller's option salt (analysis options that change per-file outcomes
/// must change the key), the language frontend tag, the content length
/// and the file bytes, hashed a word at a time (see [`crate::hash`]; the
/// length keeps contents that differ only in trailing zero bytes apart).
///
/// The frontend tag keeps byte-identical sources apart when different
/// front ends lower them — the same text parsed as Python and as JS
/// yields different graphs, so the entries must never alias.
pub fn file_key(content: &str, salt: u64, frontend_tag: u64) -> u64 {
    let mut h = IdHasher::default();
    for word in [u64::from(ENTRY_VERSION), salt, frontend_tag, content.len() as u64] {
        h.write_u64(word);
    }
    h.write(content.as_bytes());
    h.finish()
}

/// A crash-safe artifact cache rooted at one directory.
#[derive(Debug)]
pub struct ArtifactCache {
    dir: PathBuf,
    counters: Counters,
}

impl ArtifactCache {
    /// Opens (creating if needed) a cache directory and validates its
    /// index stamp. Index problems are *returned*, not raised: a missing
    /// or corrupt stamp next to existing entries is reported and the stamp
    /// rewritten; a stamp from another format version evicts every entry
    /// (their payloads may not decode under this build) and restamps.
    ///
    /// # Errors
    ///
    /// Only directory-creation failure is a hard error — without a usable
    /// directory there is nothing to degrade to.
    pub fn open(dir: &Path) -> io::Result<(ArtifactCache, Vec<CacheFault>)> {
        fs::create_dir_all(dir)?;
        let cache = ArtifactCache { dir: dir.to_path_buf(), counters: Counters::default() };
        let mut faults = Vec::new();
        let index = cache.dir.join(INDEX_NAME);
        match fs::read(&index) {
            Ok(bytes) => match decode_entry(&bytes)
                .and_then(Self::validate_index_payload)
            {
                Ok(()) => {}
                Err(EntryError::Stale { found }) => {
                    faults.push(CacheFault {
                        entry: INDEX_NAME.to_string(),
                        class: FaultClass::Stale,
                        detail: format!(
                            "index stamped v{found}, this build writes v{ENTRY_VERSION}; \
                             clearing {} entr(ies)",
                            cache.clear_entries()
                        ),
                    });
                    cache.bump(|c| &c.stale);
                    cache.write_index();
                }
                Err(EntryError::Corrupt(detail)) => {
                    faults.push(CacheFault {
                        entry: INDEX_NAME.to_string(),
                        class: FaultClass::Corrupt,
                        detail,
                    });
                    cache.bump(|c| &c.corrupt);
                    cache.write_index();
                }
            },
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                if cache.entry_names().next().is_some() {
                    faults.push(CacheFault {
                        entry: INDEX_NAME.to_string(),
                        class: FaultClass::MissingIndex,
                        detail: "cache directory has entries but no index; restamping"
                            .to_string(),
                    });
                }
                cache.write_index();
            }
            Err(e) => {
                faults.push(CacheFault {
                    entry: INDEX_NAME.to_string(),
                    class: FaultClass::Io,
                    detail: e.to_string(),
                });
            }
        }
        Ok((cache, faults))
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn validate_index_payload(payload: &[u8]) -> Result<(), EntryError> {
        let text = std::str::from_utf8(payload)
            .map_err(|_| EntryError::Corrupt("index payload not UTF-8".into()))?;
        let v = json::parse(text)
            .map_err(|e| EntryError::Corrupt(format!("index payload JSON: {e}")))?;
        match v.get("entry_version").and_then(Json::as_u64) {
            Some(version) if version == u64::from(ENTRY_VERSION) => Ok(()),
            Some(version) => Err(EntryError::Stale { found: version as u32 }),
            None => Err(EntryError::Corrupt("index payload missing entry_version".into())),
        }
    }

    fn write_index(&self) {
        let payload =
            Json::Obj(vec![("entry_version".into(), Json::num(f64::from(ENTRY_VERSION)))])
                .compact();
        // Best-effort: an unwritable index resurfaces on the next open.
        let _ = write_atomic(&self.dir.join(INDEX_NAME), &encode_entry(payload.as_bytes()));
    }

    /// File names of all `*.entry` files, sorted for determinism.
    fn entry_names(&self) -> impl Iterator<Item = String> {
        let mut names: Vec<String> = fs::read_dir(&self.dir)
            .into_iter()
            .flatten()
            .flatten()
            .filter_map(|e| e.file_name().into_string().ok())
            .filter(|name| name.ends_with(".entry"))
            .collect();
        names.sort_unstable();
        names.into_iter()
    }

    /// Removes every entry file, returning how many went away.
    fn clear_entries(&self) -> usize {
        let mut cleared = 0;
        for name in self.entry_names() {
            if fs::remove_file(self.dir.join(&name)).is_ok() {
                cleared += 1;
                self.bump(|c| &c.evicted);
            }
        }
        cleared
    }

    fn bump(&self, pick: impl Fn(&Counters) -> &AtomicU64) {
        pick(&self.counters).fetch_add(1, Ordering::Relaxed);
    }

    fn add_bytes(&self, pick: impl Fn(&Counters) -> &AtomicU64, n: u64) {
        pick(&self.counters).fetch_add(n, Ordering::Relaxed);
    }

    /// A snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        let c = &self.counters;
        CacheStats {
            hits: c.hits.load(Ordering::Relaxed),
            misses: c.misses.load(Ordering::Relaxed),
            stores: c.stores.load(Ordering::Relaxed),
            corrupt: c.corrupt.load(Ordering::Relaxed),
            stale: c.stale.load(Ordering::Relaxed),
            evicted: c.evicted.load(Ordering::Relaxed),
            bytes_read: c.bytes_read.load(Ordering::Relaxed),
            bytes_written: c.bytes_written.load(Ordering::Relaxed),
        }
    }

    fn entry_path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.entry"))
    }

    /// Moves a damaged cache file into `quarantine/` and records the
    /// fault. The original bytes are preserved for postmortems; losing
    /// the race to another thread (file already moved) is benign.
    fn quarantine(&self, name: &str, class: FaultClass, detail: String) -> CacheFault {
        self.bump(|c| match class {
            FaultClass::Stale => &c.stale,
            _ => &c.corrupt,
        });
        let qdir = self.dir.join("quarantine");
        let moved = fs::create_dir_all(&qdir)
            .and_then(|()| fs::rename(self.dir.join(name), qdir.join(name)))
            .is_ok();
        if moved {
            self.bump(|c| &c.evicted);
        }
        CacheFault { entry: name.to_string(), class, detail }
    }

    /// Reads the cache file `name` and decodes its checked payload in
    /// place, as a slice of the read buffer; `Ok(None)` when there is no
    /// such file. Damage at any layer — frame, payload schema, or a
    /// payload that decodes inconsistently — quarantines the file and
    /// comes back as the fault. A decoded payload counts as bytes read.
    fn load_entry<T>(
        &self,
        name: &str,
        decode: impl FnOnce(&[u8]) -> Result<T, EntryError>,
    ) -> Result<Option<T>, CacheFault> {
        let bytes = match fs::read(self.dir.join(name)) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => {
                return Err(CacheFault {
                    entry: name.to_string(),
                    class: FaultClass::Io,
                    detail: e.to_string(),
                })
            }
        };
        match decode_entry(&bytes).and_then(|payload| Ok((decode(payload)?, payload.len()))) {
            Ok((value, len)) => {
                self.add_bytes(|c| &c.bytes_read, len as u64);
                Ok(Some(value))
            }
            Err(EntryError::Stale { found }) => Err(self.quarantine(
                name,
                FaultClass::Stale,
                format!("format v{found}, this build reads v{ENTRY_VERSION}"),
            )),
            Err(EntryError::Corrupt(detail)) => {
                Err(self.quarantine(name, FaultClass::Corrupt, detail))
            }
        }
    }

    /// Looks up the artifact under `key`, rebuilding its graph stamped
    /// with `file`. Damage at any layer — frame, payload schema, or the
    /// decoded graph disagreeing with its own constraint fragment —
    /// quarantines the entry and reports a fault.
    pub fn load_artifact(&self, key: u64, file: FileId) -> ArtifactLookup {
        match self.load_entry(&format!("{key:016x}.entry"), |payload| decode(payload, file)) {
            Ok(Some((graph, meta))) => {
                self.bump(|c| &c.hits);
                ArtifactLookup::Hit(graph, meta)
            }
            Ok(None) => {
                self.bump(|c| &c.misses);
                ArtifactLookup::Miss
            }
            Err(fault) => ArtifactLookup::Fault(fault),
        }
    }

    /// Stores a per-file graph under `key`, fingerprinting it once
    /// ([`ArtifactMeta::of`]). Write failures are reported as faults,
    /// never raised — the run simply stays cold for this file.
    pub fn store_artifact(
        &self,
        key: u64,
        graph: &PropagationGraph,
        recovered_errors: usize,
    ) -> Option<CacheFault> {
        self.store(key, graph, ArtifactMeta::of(graph, recovered_errors))
    }

    /// [`ArtifactCache::store_artifact`] for a caller that already holds
    /// the graph's record `meta`.
    pub fn store(
        &self,
        key: u64,
        graph: &PropagationGraph,
        meta: ArtifactMeta,
    ) -> Option<CacheFault> {
        self.write_artifact(key, &encode_entry(&encode(graph, meta)))
    }

    /// Runs `work` with a [`StoreQueue`] that one background writer
    /// drains, so the caller's work overlaps each store's `sync_data`
    /// wait. Returns `work`'s result once every queued artifact is on
    /// disk, with the write faults (tagged as queued) in queue order.
    pub fn write_behind<R>(
        &self,
        work: impl FnOnce(&StoreQueue) -> R,
    ) -> (R, Vec<(usize, CacheFault)>) {
        let (tx, rx) = mpsc::channel::<(usize, u64, Vec<u8>)>();
        thread::scope(|s| {
            let writer = s.spawn(move || {
                rx.into_iter()
                    .filter_map(|(tag, key, frame)| Some((tag, self.write_artifact(key, &frame)?)))
                    .collect()
            });
            // The queue (the only sender) drops with this statement, which
            // ends the writer's loop.
            let out = work(&StoreQueue { tx });
            (out, writer.join().expect("the artifact writer does not panic"))
        })
    }

    fn write_artifact(&self, key: u64, frame: &[u8]) -> Option<CacheFault> {
        match write_atomic(&self.entry_path(key), frame) {
            Ok(()) => {
                self.bump(|c| &c.stores);
                self.add_bytes(|c| &c.bytes_written, frame.len() as u64);
                None
            }
            Err(e) => Some(CacheFault {
                entry: format!("{key:016x}.entry"),
                class: FaultClass::Io,
                detail: e.to_string(),
            }),
        }
    }

    /// Drops the artifact stored under `key`, if any. Returns whether an
    /// entry was actually removed. Used when a file leaves the corpus —
    /// its artifact would otherwise sit on disk forever, since content
    /// keys of deleted files are never looked up again.
    pub fn evict(&self, key: u64) -> bool {
        match fs::remove_file(self.entry_path(key)) {
            Ok(()) => {
                self.bump(|c| &c.evicted);
                true
            }
            Err(_) => false,
        }
    }

    /// Loads the solver checkpoint, if present and intact.
    pub fn load_checkpoint(&self) -> CheckpointLookup {
        match self.load_entry(CHECKPOINT_NAME, Checkpoint::from_payload) {
            Ok(Some(ckpt)) => CheckpointLookup::Hit(Box::new(ckpt)),
            Ok(None) => CheckpointLookup::Miss,
            Err(fault) => CheckpointLookup::Fault(fault),
        }
    }

    /// Stores the solver checkpoint. Like artifact stores, failures are
    /// faults, not errors.
    pub fn store_checkpoint(&self, ckpt: &Checkpoint) -> Option<CacheFault> {
        let frame = encode_entry(&ckpt.to_payload());
        match write_atomic(&self.dir.join(CHECKPOINT_NAME), &frame) {
            Ok(()) => {
                self.bump(|c| &c.stores);
                self.add_bytes(|c| &c.bytes_written, frame.len() as u64);
                None
            }
            Err(e) => Some(CacheFault {
                entry: CHECKPOINT_NAME.to_string(),
                class: FaultClass::Io,
                detail: e.to_string(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::checksum;
    use seldon_propgraph::build_source;

    fn temp_cache(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("seldon-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_graph() -> PropagationGraph {
        build_source("import os\nos.system('x')\n", FileId(0)).unwrap()
    }

    #[test]
    fn store_then_load_round_trips() {
        let dir = temp_cache("roundtrip");
        let (cache, faults) = ArtifactCache::open(&dir).unwrap();
        assert!(faults.is_empty(), "{faults:?}");
        let graph = sample_graph();
        let key = file_key("import os\nos.system('x')\n", 0, 0);
        assert!(cache.store_artifact(key, &graph, 3).is_none());
        match cache.load_artifact(key, FileId(5)) {
            ArtifactLookup::Hit(g, meta) => {
                // The record holds the fingerprint the store computed.
                let graph_fp = crate::checkpoint::graph_fingerprint(&graph);
                assert_eq!(meta, ArtifactMeta { recovered_errors: 3, graph_fp });
                assert_eq!(crate::checkpoint::graph_fingerprint(&g), graph_fp);
                assert_eq!(g.event_count(), graph.event_count());
            }
            other => panic!("expected hit, got {other:?}"),
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.stores), (1, 0, 1));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn write_behind_stores_everything_before_returning() {
        let dir = temp_cache("writebehind");
        let (cache, _) = ArtifactCache::open(&dir).unwrap();
        let graph = sample_graph();
        let (out, faults) = cache.write_behind(|queue| {
            for key in 1..=3u64 {
                queue.store_artifact(key as usize, key, &graph, ArtifactMeta::of(&graph, 0));
            }
            "done"
        });
        assert_eq!(out, "done");
        assert!(faults.is_empty(), "{faults:?}");
        assert_eq!(cache.stats().stores, 3);
        for key in 1..=3u64 {
            assert!(matches!(cache.load_artifact(key, FileId(0)), ArtifactLookup::Hit(..)));
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn write_behind_faults_come_back_with_their_tag() {
        let dir = temp_cache("writebehindfault");
        let (cache, _) = ArtifactCache::open(&dir).unwrap();
        let ((), faults) = cache.write_behind(|queue| {
            fs::remove_dir_all(&dir).unwrap();
            let graph = sample_graph();
            queue.store_artifact(7, 1, &graph, ArtifactMeta::of(&graph, 0));
        });
        assert_eq!(faults.len(), 1, "{faults:?}");
        assert_eq!((faults[0].0, faults[0].1.class), (7, FaultClass::Io));
        assert_eq!(cache.stats().stores, 0);
    }

    #[test]
    fn evict_removes_the_entry_and_counts_it() {
        let dir = temp_cache("evict");
        let (cache, _) = ArtifactCache::open(&dir).unwrap();
        let key = file_key("import os\nos.system('x')\n", 0, 0);
        assert!(!cache.evict(key), "nothing stored yet");
        assert!(cache.store_artifact(key, &sample_graph(), 0).is_none());
        assert!(cache.evict(key));
        assert!(matches!(cache.load_artifact(key, FileId(0)), ArtifactLookup::Miss));
        assert_eq!(cache.stats().evicted, 1);
        assert!(!cache.evict(key), "second evict is a no-op");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_entry_is_a_miss() {
        let dir = temp_cache("miss");
        let (cache, _) = ArtifactCache::open(&dir).unwrap();
        assert!(matches!(cache.load_artifact(99, FileId(0)), ArtifactLookup::Miss));
        assert_eq!(cache.stats().misses, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_entry_is_quarantined_and_reported() {
        let dir = temp_cache("corrupt");
        let (cache, _) = ArtifactCache::open(&dir).unwrap();
        let key = 7u64;
        cache.store_artifact(key, &sample_graph(), 0);
        let path = dir.join(format!("{key:016x}.entry"));
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        match cache.load_artifact(key, FileId(0)) {
            ArtifactLookup::Fault(fault) => assert_eq!(fault.class, FaultClass::Corrupt),
            other => panic!("expected fault, got {other:?}"),
        }
        assert!(!path.exists(), "damaged entry moved aside");
        assert!(dir.join("quarantine").join(format!("{key:016x}.entry")).exists());
        let stats = cache.stats();
        assert_eq!((stats.corrupt, stats.evicted), (1, 1));
        // The next lookup is a clean miss: recompute-and-restore works.
        assert!(matches!(cache.load_artifact(key, FileId(0)), ArtifactLookup::Miss));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_index_next_to_entries_is_flagged_and_restamped() {
        let dir = temp_cache("noindex");
        let (cache, _) = ArtifactCache::open(&dir).unwrap();
        cache.store_artifact(1, &sample_graph(), 0);
        fs::remove_file(dir.join(INDEX_NAME)).unwrap();
        let (cache, faults) = ArtifactCache::open(&dir).unwrap();
        assert_eq!(faults.len(), 1);
        assert_eq!(faults[0].class, FaultClass::MissingIndex);
        assert!(dir.join(INDEX_NAME).exists(), "index restamped");
        // Entries survive a missing index: they are individually checksummed.
        assert!(matches!(cache.load_artifact(1, FileId(0)), ArtifactLookup::Hit(..)));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_index_clears_all_entries() {
        let dir = temp_cache("staleindex");
        let (cache, _) = ArtifactCache::open(&dir).unwrap();
        cache.store_artifact(1, &sample_graph(), 0);
        cache.store_artifact(2, &sample_graph(), 0);
        let stamp = encode_entry(br#"{"entry_version":999}"#);
        fs::write(dir.join(INDEX_NAME), stamp).unwrap();
        let (cache, faults) = ArtifactCache::open(&dir).unwrap();
        assert_eq!(faults.len(), 1);
        assert_eq!(faults[0].class, FaultClass::Stale);
        assert!(matches!(cache.load_artifact(1, FileId(0)), ArtifactLookup::Miss));
        assert!(matches!(cache.load_artifact(2, FileId(0)), ArtifactLookup::Miss));
        assert_eq!(cache.stats().evicted, 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn version_1_directory_is_stale_and_cleared() {
        assert_old_directory_is_stale_and_cleared(1);
    }

    #[test]
    fn version_2_directory_is_stale_and_cleared() {
        assert_old_directory_is_stale_and_cleared(2);
    }

    #[test]
    fn version_3_directory_is_stale_and_cleared() {
        assert_old_directory_is_stale_and_cleared(3);
    }

    #[test]
    fn version_4_directory_is_stale_and_cleared() {
        assert_old_directory_is_stale_and_cleared(4);
    }

    #[test]
    fn version_5_directory_is_stale_and_cleared() {
        assert_old_directory_is_stale_and_cleared(5);
    }

    /// A directory written by format `version`: opening it reports one
    /// `Stale` index fault and clears its entries.
    fn assert_old_directory_is_stale_and_cleared(version: u32) {
        let dir = temp_cache(&format!("v{version}"));
        let old_frame = |payload: &[u8]| {
            let sum = checksum(payload);
            let header = format!("seldon-cache {version} {sum:016x} {}\n", payload.len());
            [header.as_bytes(), payload].concat()
        };
        fs::create_dir_all(&dir).unwrap();
        let index = format!(r#"{{"entry_version":{version}}}"#);
        fs::write(dir.join(INDEX_NAME), old_frame(index.as_bytes())).unwrap();
        fs::write(dir.join("0000000000000001.entry"), old_frame(br#"{"strings":[]}"#)).unwrap();
        let (cache, faults) = ArtifactCache::open(&dir).unwrap();
        assert_eq!(faults.len(), 1, "{faults:?}");
        assert_eq!((faults[0].entry.as_str(), faults[0].class), (INDEX_NAME, FaultClass::Stale));
        assert_eq!(cache.stats().evicted, 1);
        assert!(matches!(cache.load_artifact(1, FileId(0)), ArtifactLookup::Miss));
        let (_, faults) = ArtifactCache::open(&dir).unwrap();
        assert!(faults.is_empty(), "restamped at v{ENTRY_VERSION}: {faults:?}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fresh_directory_opens_silently() {
        let dir = temp_cache("fresh");
        let (_, faults) = ArtifactCache::open(&dir).unwrap();
        assert!(faults.is_empty(), "empty dir needs no fault report: {faults:?}");
        let (_, faults) = ArtifactCache::open(&dir).unwrap();
        assert!(faults.is_empty(), "reopen with valid index is clean");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn key_depends_on_salt_content_and_frontend() {
        assert_ne!(file_key("a", 0, 0), file_key("a", 1, 0));
        assert_ne!(file_key("a", 0, 0), file_key("b", 0, 0));
        // Identical bytes under different frontends must never alias: the
        // same text lowered as Python and as JS yields different graphs.
        assert_ne!(file_key("a", 0, 0), file_key("a", 0, 1));
        assert_eq!(file_key("a", 7, 1), file_key("a", 7, 1));
        // The length is hashed: a trailing NUL changes the key.
        assert_ne!(file_key("a", 0, 0), file_key("a\0", 0, 0));
    }
}
