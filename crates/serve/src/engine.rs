//! The resident incremental analysis engine behind `seldon serve`.
//!
//! [`ServeEngine`] keeps the whole learned state of a corpus in memory —
//! one per-file slot (graph, token fingerprint, constraint rows) per
//! tracked file plus the last solver checkpoint — and exposes one
//! operation, [`ServeEngine::apply_delta`], that moves that state to a
//! new corpus version and returns the updated specification.
//!
//! # Determinism contract
//!
//! Every delta must serve the specification a **cold batch run** (`seldon
//! learn`) over the same corpus state would print. The files a delta
//! analyzes go through [`analyze_inputs`], the per-file loop `learn`
//! runs over its whole corpus: the same cache keys, policy, write-behind
//! store, outcomes and `parse`/`propgraph`/`cache` spans. The engine earns
//! its speed only from work that provably cannot change the output:
//!
//! * Every added or changed file is lexed once. A changed file whose new
//!   content has the token fingerprint ([`Frontend::token_fingerprint`])
//!   recorded for its slot's content is token-matched: it skips
//!   [`analyze_inputs`] and keeps its graph, outcome and rows. The front
//!   ends read a file only through its tokens, so equal fingerprints lower
//!   to equal graphs with equal outcomes. The proof is off past the
//!   budget's source size and under `fault_markers`. Every other touched
//!   file is analyzed and replaces its slot; an edit that changes tokens
//!   but not the graph then replays at the checkpoint, whose key folds
//!   the slots' graph fingerprints. The resident graph of a matched file
//!   keeps the old content's spans; nothing in serve reads spans or file
//!   stamps.
//! * The cache holds artifacts only for tracked files' current contents.
//!   A removed or replaced slot drops its artifact key, and so does a
//!   token-matched one (its graph is the old content's, so it stands for
//!   no artifact of the new) unless its new content is byte-identical to
//!   the old (an unedited save keeps its artifact); a dropped key no
//!   other slot holds is evicted.
//! * A file's constraint rows are reused only when its slice of the
//!   §4.3 selection (`ConstraintSystem::event_reps`) is unchanged; Fig. 4
//!   rows reference only events of their own file, so an identical slice
//!   over an identical graph reproduces identical rows.
//! * The solve climbs the checkpoint ladder batch `learn` climbs
//!   ([`climb_ladder`]), keyed by the same exact fingerprint: the graph
//!   key folds each slot's graph fingerprint in corpus order, as `learn`
//!   folds its files', so a checkpoint either mode stores is reused by the
//!   other. A slot's fingerprint comes with its artifact or is hashed once
//!   when the file is analyzed; a rebuild never hashes the union. Its warm rung
//!   runs only when [`SeldonOptions::warm_start`] is set; `seldon serve`
//!   leaves it off, because a margin-accepted warm solution can land on a
//!   different optimum than a cold solve.
//!
//! # Failure semantics
//!
//! A delta's files are analyzed before any engine state changes, each with
//! the one recovering analysis `learn` gives it. Under
//! [`FaultPolicy::FailFast`](seldon_core::FaultPolicy) (`seldon serve
//! --strict`) the first file whose outcome is not `Ok` (unparseable,
//! over budget or panicking) rejects the delta with
//! [`EngineError::Analysis`], and the previous build stays served; under
//! `Recover` the file is recovered or quarantined and reported in
//! [`DeltaOutcome::report`], as `learn` reports it. A token-matched file
//! keeps its slot's outcome, which under `FailFast` is always `Ok`.
//!
//! Cache faults are contained: a damaged artifact re-parses, a damaged
//! checkpoint cold-solves, and each is reported in the delta's report (a
//! checkpoint under `<checkpoint>`; one damaged at startup by the first
//! delta). A panic inside `apply_delta` (contained by the daemon) may
//! leave the per-file table updated while the checkpoint still describes
//! the previous corpus; the `built` flag is cleared first, so
//! [`ServeEngine::spec`] answers `None` and the next delta rebuilds from
//! the per-file slots instead of serving the stale spec.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use seldon_cache::{
    fold_file_fingerprints, graph_fingerprint, CacheFault, Checkpoint, CheckpointLookup,
};
use seldon_constraints::{collect_rows, select, EventReps, FileRows, GenStats, Selection};
use seldon_core::{
    analysis_cache_key, analyze_inputs, climb_ladder, default_rep_cutoff, learned_per_role,
    record_corpus, record_learning, union_graphs, AnalysisReport, AnalyzeOptions, AnalyzedFiles,
    CacheFaultReport, CheckpointOutcome, FileInput, FileOutcome, FileReport, Frontend,
    PipelineError, SeldonOptions,
};
use seldon_propgraph::{FileId, PropagationGraph, Symbols};
use seldon_specs::TaintSpec;
use seldon_telemetry::{metric, Class, MetricsRegistry, RunManifest};

/// Configuration fixed for the lifetime of a [`ServeEngine`].
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// The seed specification pinning known roles (§3).
    pub seed: TaintSpec,
    /// Per-file analysis options; `cache` (when set) persists per-file
    /// artifacts and the solver checkpoint across daemon restarts.
    pub analyze: AnalyzeOptions,
    /// Learning options. `warm_start` turns on the ladder's warm rung;
    /// `seldon serve` leaves it `None`, so every served spec is the one
    /// batch `learn` prints.
    pub seldon: SeldonOptions,
    /// When true, the §4.3 cutoff follows [`default_rep_cutoff`] as the
    /// corpus grows and shrinks; when false, `seldon.gen.rep_cutoff` is used as-is.
    pub dynamic_cutoff: bool,
}

/// One tracked corpus file.
#[derive(Debug)]
struct FileState {
    /// Artifact-cache key of the current content (for eviction); `None`
    /// without a cache, or once a token match left the graph describing
    /// an older content (a match on the same bytes keeps it).
    cache_key: Option<u64>,
    /// The per-file propagation graph; `None` when quarantined. Its
    /// events keep the `FileId(0)` stamp they were analyzed at; file
    /// attribution in the union is positional.
    graph: Option<PropagationGraph>,
    /// [`graph_fingerprint`] of `graph`; `None` when quarantined.
    graph_fp: Option<u64>,
    /// [`Frontend::token_fingerprint`] of the content `graph` and
    /// `outcome` describe; `None` when no token proof applies to it.
    tokens_fp: Option<u64>,
    /// Per-file verdict, kept for the served manifest.
    outcome: FileOutcome,
    /// The file's Fig. 4 rows from the last rebuild, with the selection
    /// slice (`event_reps` over the file's events) they were collected
    /// under. They are reused while the current slice compares equal.
    frag: Option<(EventReps, FileRows)>,
}

/// A corpus delta: files to start tracking, re-analyze, or drop.
#[derive(Debug, Clone, Default)]
pub struct Delta {
    /// New files with their contents.
    pub add: Vec<(PathBuf, String)>,
    /// Tracked files with replacement contents.
    pub change: Vec<(PathBuf, String)>,
    /// Tracked files to drop.
    pub remove: Vec<PathBuf>,
}

impl Delta {
    /// Whether the delta names no files at all.
    pub fn is_empty(&self) -> bool {
        self.add.is_empty() && self.change.is_empty() && self.remove.is_empty()
    }
}

/// What one [`ServeEngine::apply_delta`] call did and served.
#[derive(Debug, Clone)]
pub struct DeltaOutcome {
    /// The served specification text (canonical [`TaintSpec::to_text`]).
    pub spec: String,
    /// How the spec was obtained: `"noop"` (empty delta), `"unchanged"`
    /// (change-only delta, every changed file token-matched),
    /// `"replayed"` (input fingerprint matched the checkpoint), `"warm"`
    /// (margin-accepted warm solve), or `"cold"`.
    pub solve: &'static str,
    /// Files tracked after the delta.
    pub files: usize,
    /// Events in the unioned graph after the delta.
    pub events: usize,
    /// Edges in the unioned graph after the delta.
    pub edges: usize,
    /// Added or changed files this delta ran through the per-file loop
    /// (the front end, or an artifact-cache hit).
    pub reparsed: usize,
    /// Changed files proven unchanged by their token fingerprint: they
    /// kept their resident graph and ran no front end.
    pub tokens_matched: usize,
    /// Files dropped by this delta.
    pub removed: usize,
    /// Cache artifacts evicted because no tracked file's current content
    /// has their key any more (the file was removed, replaced or
    /// token-matched to new bytes).
    pub evicted: usize,
    /// Per-file fragments reused structurally (no re-collection).
    pub fragments_reused: usize,
    /// Per-file fragments re-collected from the graph.
    pub fragments_collected: usize,
    /// Constraints in the system the served spec was solved from.
    pub constraints: usize,
    /// Role variables in the system the served spec was solved from.
    pub vars: usize,
    /// Entries in the served specification.
    pub learned_entries: usize,
    /// Extraction margin of the warm solution, when one was attempted.
    pub warm_margin: Option<f64>,
    /// The outcome of each added or changed file, in delta order (adds,
    /// then changes), and the cache faults contained during the delta —
    /// checkpoint faults under `<checkpoint>`, as `seldon learn` files
    /// them.
    pub report: AnalysisReport,
    /// Wall-clock of the whole delta.
    pub elapsed: Duration,
}

/// A rejected delta; the engine state is unchanged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The delta was internally inconsistent (duplicate path) or named
    /// files inconsistent with the tracked corpus (adding a tracked
    /// file, changing or removing an untracked one).
    Validation(String),
    /// Under [`FaultPolicy::FailFast`](seldon_core::FaultPolicy), the
    /// first added or changed file whose outcome was not `Ok`.
    Analysis(PipelineError),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Validation(msg) => write!(f, "invalid delta: {msg}"),
            EngineError::Analysis(e) => write!(f, "delta rejected: {e}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// Monotonic counters over a [`ServeEngine`]'s lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeCounters {
    /// Deltas accepted (including fast-path ones).
    pub deltas: usize,
    /// Empty deltas served from the cached spec.
    pub noops: usize,
    /// Change-only deltas whose files were all token-matched.
    pub unchanged: usize,
    /// Full rebuilds (union + selection re-ran).
    pub rebuilds: usize,
    /// Rebuilds short-circuited by an input-fingerprint match.
    pub replays: usize,
    /// Warm solves accepted by the margin guard.
    pub solves_warm: usize,
    /// Cold solves (including margin-rejected warm attempts).
    pub solves_cold: usize,
    /// Files run through the per-file loop across all deltas.
    pub reparsed: usize,
    /// Changed files proven unchanged by their token fingerprint across
    /// all deltas.
    pub tokens_matched: usize,
    /// Files dropped across all deltas.
    pub removed: usize,
    /// Cache artifacts evicted across all deltas (see
    /// [`DeltaOutcome::evicted`]).
    pub evicted: usize,
    /// Fragments reused structurally across all rebuilds.
    pub fragments_reused: usize,
    /// Fragments re-collected across all rebuilds.
    pub fragments_collected: usize,
}

impl ServeCounters {
    /// Every counter as `(stats key, metric name, metric help, value)`, in
    /// the order the `stats` response and the metrics registry list them.
    #[rustfmt::skip]
    pub(crate) fn table(&self) -> [(&'static str, &'static str, &'static str, usize); 13] {
        [
            ("deltas", "serve_deltas", "Corpus deltas accepted by the daemon.", self.deltas),
            ("noops", "serve_noops", "Empty deltas served from the cached spec.", self.noops),
            ("unchanged", "serve_unchanged", "Change-only deltas whose every file kept its tokens.", self.unchanged),
            ("rebuilds", "serve_rebuilds", "Deltas that re-ran union and selection.", self.rebuilds),
            ("replays", "serve_replays", "Rebuilds replayed from an input-fingerprint hit.", self.replays),
            ("solves_warm", "serve_solves_warm", "Warm solves accepted by the margin guard.", self.solves_warm),
            ("solves_cold", "serve_solves_cold", "Cold solves (including rejected warm attempts).", self.solves_cold),
            ("reparsed", "serve_files_reparsed", "Files run through the per-file loop across all deltas.", self.reparsed),
            ("tokens_matched", "serve_tokens_matched", "Changed files proven unchanged by their token fingerprint.", self.tokens_matched),
            ("removed", "serve_files_removed", "Files dropped across all deltas.", self.removed),
            ("evicted", "serve_artifacts_evicted", "Cache artifacts evicted once no tracked file's current content held them.", self.evicted),
            ("fragments_reused", "serve_fragments_reused", "Constraint fragments reused structurally.", self.fragments_reused),
            ("fragments_collected", "serve_fragments_collected", "Constraint fragments re-collected.", self.fragments_collected),
        ]
    }
}

/// The resident incremental engine. See the module docs for the
/// determinism contract.
pub struct ServeEngine {
    cfg: EngineConfig,
    /// Tracked files in corpus order ([`PathBuf`] ordering matches the
    /// sorted file list `seldon learn` analyzes, so the union's event
    /// order — and with it its graph key — agrees with a batch run).
    files: BTreeMap<PathBuf, FileState>,
    /// The last finished build (also persisted via the artifact cache).
    ckpt: Option<Checkpoint>,
    /// Learned entries per role of `ckpt`'s spec, counted once when the
    /// checkpoint is built or loaded.
    learned: [u64; 3],
    /// Whether `ckpt` describes exactly the current `files` table.
    built: bool,
    /// The table every rebuild's union links into, so a [`RepId`] in a
    /// kept fragment means the same text in the next rebuild.
    symbols: Symbols,
    /// Symbols the last union used: the size of its own table.
    symbols_used: usize,
    /// A checkpoint fault met on startup, reported by the first delta.
    startup_fault: Option<CacheFault>,
    last_events: usize,
    last_edges: usize,
    last_solve: &'static str,
    counters: ServeCounters,
}

impl ServeEngine {
    /// Creates an engine with no tracked files. When the config carries a
    /// cache, a persisted checkpoint is loaded eagerly so the first delta
    /// can replay or warm-start across a daemon restart; a damaged one is
    /// quarantined and reported in that delta's faults.
    pub fn new(cfg: EngineConfig) -> ServeEngine {
        let lookup = cfg.analyze.cache.as_deref().map(|c| c.load_checkpoint());
        let (ckpt, startup_fault) = match lookup {
            Some(CheckpointLookup::Hit(ckpt)) => (Some(*ckpt), None),
            Some(CheckpointLookup::Fault(fault)) => (None, Some(fault)),
            Some(CheckpointLookup::Miss) | None => (None, None),
        };
        let learned = ckpt
            .as_ref()
            .and_then(|c| TaintSpec::parse(&c.spec_text).ok())
            .map_or([0; 3], |spec| learned_per_role(&spec));
        ServeEngine {
            cfg,
            files: BTreeMap::new(),
            ckpt,
            learned,
            built: false,
            symbols: Symbols::new(),
            symbols_used: 0,
            startup_fault,
            last_events: 0,
            last_edges: 0,
            last_solve: "cold",
            counters: ServeCounters::default(),
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Files currently tracked.
    pub fn file_count(&self) -> usize {
        self.files.len()
    }

    /// The current specification text, if a build over the current
    /// file table has completed.
    pub fn spec(&self) -> Option<&str> {
        self.ckpt.as_ref().filter(|_| self.built).map(|c| c.spec_text.as_str())
    }

    /// Lifetime counters.
    pub fn counters(&self) -> ServeCounters {
        self.counters
    }

    /// How the last delta obtained its spec.
    pub fn last_solve(&self) -> &'static str {
        self.last_solve
    }

    /// The checkpoint's graph key of the tracked files: their graph
    /// fingerprints folded in corpus order, as `seldon learn` folds its
    /// files' ([`fold_file_fingerprints`]).
    pub fn graph_key(&self) -> u64 {
        fold_file_fingerprints(self.files.values().filter_map(|s| {
            let events = s.graph.as_ref()?.event_count();
            Some((events, s.graph_fp.expect("a graph has its fingerprint")))
        }))
    }

    /// The engine's symbol table, which every rebuild's union links into.
    pub fn symbols(&self) -> &Symbols {
        &self.symbols
    }

    /// Applies a corpus delta and returns the updated specification.
    /// On `Err` the engine state is untouched.
    pub fn apply_delta(&mut self, delta: &Delta) -> Result<DeltaOutcome, EngineError> {
        let t0 = Instant::now();
        self.validate(delta)?;

        // Empty delta against a finished build: true no-op.
        if delta.is_empty() && self.built {
            self.counters.deltas += 1;
            self.counters.noops += 1;
            return Ok(self.reuse_outcome("noop", t0, [0; 4], AnalysisReport::default()));
        }

        // Every touched file is lexed once. A changed file whose tokens
        // match its slot's is token-matched and keeps the slot; the others
        // go through the batch per-file loop, at stamp FileId(0), before
        // any state changes: a FailFast failure rejects the delta and the
        // previous build stays servable.
        let touched = || delta.add.iter().chain(&delta.change);
        let tokens: Vec<Option<u64>> =
            touched().map(|(path, content)| self.token_fingerprint(path, content)).collect();
        let matched: Vec<bool> = touched()
            .zip(&tokens)
            .map(|((path, _), fp)| {
                fp.is_some() && self.files.get(path).is_some_and(|s| s.tokens_fp == *fp)
            })
            .collect();
        let names: Vec<_> = touched().map(|(path, _)| path.to_string_lossy()).collect();
        let inputs: Vec<FileInput<'_>> = touched()
            .zip(&names)
            .zip(&matched)
            .filter(|(_, &matched)| !matched)
            .map(|(((_, content), name), _)| FileInput {
                project: 0,
                id: FileId(0),
                path: name,
                content,
            })
            .collect();
        let (graphs, keys, fingerprints, mut report) = if inputs.is_empty() {
            (Vec::new(), Vec::new(), Vec::new(), AnalysisReport::default())
        } else {
            let AnalyzedFiles { graphs, keys, fingerprints, report, .. } =
                analyze_inputs(inputs, &self.cfg.analyze).map_err(EngineError::Analysis)?;
            (graphs, keys, fingerprints, report)
        };
        self.counters.deltas += 1;

        // From here the corpus may change shape; a panic below must not
        // leave `built` claiming the checkpoint matches the file table.
        // (A checkpoint loaded from disk on startup starts with `built ==
        // false` — it only becomes servable through a rebuild, where the
        // input fingerprint proves it matches the tracked corpus.)
        let was_built = self.built;
        self.built = false;

        // The artifact keys slots stop holding: a removed or replaced
        // slot's, and a token-matched one's (it keeps the old content's
        // graph, so no artifact stands for the new content) unless the new
        // content is the old, byte for byte: an unedited save keeps its
        // artifact.
        let mut dropped: Vec<u64> = Vec::new();
        for path in &delta.remove {
            dropped.extend(self.files.remove(path).expect("validated remove").cache_key);
        }
        let reparsed = report.files.len();
        let structural = reparsed > 0 || !delta.remove.is_empty();
        let mut analyzed = (graphs.into_iter().zip(fingerprints))
            .zip(keys)
            .zip(std::mem::take(&mut report.files));
        for (i, (path, content)) in touched().enumerate() {
            if matched[i] {
                // Same tokens, so the same graph, outcome and rows: keep
                // the slot, and report its outcome again.
                let analyze = &self.cfg.analyze;
                let key =
                    analyze.cache.as_ref().map(|_| analysis_cache_key(&names[i], content, analyze));
                let slot = self.files.get_mut(path).expect("a matched file is tracked");
                if slot.cache_key != key {
                    dropped.extend(slot.cache_key.take());
                }
                let outcome = slot.outcome.clone();
                report.files.push(FileReport { project: 0, path: names[i].to_string(), outcome });
                continue;
            }
            let (((graph, graph_fp), cache_key), file) =
                analyzed.next().expect("one result per input");
            // Without a cache the loop leaves the fingerprint to us; the
            // in-memory checkpoint is keyed either way.
            let graph_fp = graph_fp.or_else(|| graph.as_ref().map(graph_fingerprint));
            let outcome = file.outcome.clone();
            report.files.push(file);
            let tokens_fp = tokens[i];
            let state = FileState { cache_key, graph, graph_fp, tokens_fp, outcome, frag: None };
            dropped.extend(self.files.insert(path.clone(), state).and_then(|old| old.cache_key));
        }

        // The cache holds artifacts only for tracked files' current
        // contents. Byte-identical files share one artifact, so a dropped
        // key is evicted only when no slot still holds it.
        let mut evicted = 0;
        if let Some(cache) = self.cfg.analyze.cache.as_deref() {
            for key in dropped {
                if !self.files.values().any(|s| s.cache_key == Some(key)) && cache.evict(key) {
                    evicted += 1;
                }
            }
        }
        let tokens_matched = matched.iter().filter(|&&m| m).count();
        let counts = [reparsed, tokens_matched, delta.remove.len(), evicted];
        self.counters.reparsed += counts[0];
        self.counters.tokens_matched += counts[1];
        self.counters.removed += counts[2];
        self.counters.evicted += counts[3];

        // Change-only delta with every file token-matched: the union — and
        // everything downstream — is unchanged by construction. Only valid
        // when the checkpoint was built (or replay-verified) against this
        // very file table.
        if !structural && was_built && self.ckpt.is_some() {
            self.built = true;
            self.counters.unchanged += 1;
            return Ok(self.reuse_outcome("unchanged", t0, counts, report));
        }

        self.rebuild(t0, counts, report)
    }

    /// The token fingerprint of a touched file's content, or `None`
    /// when no token proof applies: under `fault_markers` (a marker in a
    /// comment panics the analysis) or past the budget's source size (the
    /// file is quarantined before it is lexed).
    fn token_fingerprint(&self, path: &Path, content: &str) -> Option<u64> {
        let analyze = &self.cfg.analyze;
        let fits = analyze.budget.as_ref().is_none_or(|b| b.check_source(content).is_ok());
        if analyze.fault_markers || !fits {
            return None;
        }
        Frontend::of_path(&path.to_string_lossy()).token_fingerprint(content)
    }

    /// Rejects inconsistent deltas before any state changes.
    fn validate(&self, delta: &Delta) -> Result<(), EngineError> {
        let mut seen: BTreeSet<&Path> = BTreeSet::new();
        let add = delta.add.iter().map(|(path, _)| (path, "add"));
        let change = delta.change.iter().map(|(path, _)| (path, "change"));
        let remove = delta.remove.iter().map(|path| (path, "remove"));
        for (path, op) in add.chain(change).chain(remove) {
            let shown = path.display();
            if !seen.insert(path) {
                let msg = format!("path `{shown}` appears more than once in the delta");
                return Err(EngineError::Validation(msg));
            }
            let why = match (op, self.files.contains_key(path)) {
                ("add", true) => "already tracked (use change)",
                ("change", false) => "not tracked (use add)",
                ("remove", false) => "not tracked",
                _ => continue,
            };
            return Err(EngineError::Validation(format!("cannot {op} `{shown}`: {why}")));
        }
        Ok(())
    }

    /// Serves the checkpointed spec without rebuilding anything.
    /// `counts` is `[reparsed, tokens_matched, removed, evicted]`.
    fn reuse_outcome(
        &mut self,
        label: &'static str,
        t0: Instant,
        [reparsed, tokens_matched, removed, evicted]: [usize; 4],
        report: AnalysisReport,
    ) -> DeltaOutcome {
        let ckpt = self.ckpt.as_ref().expect("reuse requires a checkpoint");
        self.last_solve = label;
        DeltaOutcome {
            spec: ckpt.spec_text.clone(),
            solve: label,
            files: self.files.len(),
            events: self.last_events,
            edges: self.last_edges,
            reparsed,
            tokens_matched,
            removed,
            evicted,
            fragments_reused: 0,
            fragments_collected: 0,
            constraints: ckpt.summary.constraints as usize,
            vars: ckpt.summary.vars as usize,
            learned_entries: self.learned.iter().sum::<u64>() as usize,
            warm_margin: None,
            report,
            elapsed: t0.elapsed(),
        }
    }

    /// The effective learning options for the current corpus size.
    fn effective_seldon(&self) -> SeldonOptions {
        let mut seldon = self.cfg.seldon.clone();
        if self.cfg.dynamic_cutoff {
            seldon.gen.rep_cutoff = default_rep_cutoff(self.files.len());
        }
        seldon
    }

    /// Union → select → collect/remap → solve → extract → checkpoint.
    fn rebuild(
        &mut self,
        t0: Instant,
        counts: [usize; 4],
        mut report: AnalysisReport,
    ) -> Result<DeltaOutcome, EngineError> {
        let tele = self.cfg.analyze.telemetry.clone();
        let seldon = self.effective_seldon();
        self.counters.rebuilds += 1;

        // Past twice what the last union used, the table starts over and
        // every fragment (a cache) is re-collected.
        if self.symbols.len() > 2 * self.symbols_used {
            self.symbols = Symbols::new();
            self.files.values_mut().for_each(|state| state.frag = None);
        }
        // Union by reference, in corpus order: the ranges attribute
        // events to files, whatever their stamps.
        let graphs = self.files.values().map(|s| s.graph.as_ref().map(Cow::Borrowed)).collect();
        let (mut union, ranges) = union_graphs(graphs, &tele);
        self.symbols_used = union.symbols().len();
        union.rebase(self.symbols.clone());
        self.symbols.clone_from(union.symbols());
        self.last_events = union.event_count();
        self.last_edges = union.edge_count();

        // The checkpoint ladder. Its full rung replays when the corpus
        // state hashes to exactly what the checkpoint was built from (an
        // edit was reverted, or the daemon restarted over an unchanged
        // corpus); otherwise `build` selects and collects the system.
        let graph_key = self.graph_key();
        let (mut reused, mut collected) = (0usize, 0usize);
        let files = &mut self.files;
        let seed = &self.cfg.seed;
        let build = || {
            // §4.3 selection is global (corpus-wide frequency counts) and
            // always re-runs; what it yields decides per-file row reuse.
            let Selection { sys: mut system, stats } = select(&union, seed, &seldon.gen);
            // Fig. 4 rows per file: reuse the stored rows when the file's
            // selection slice is unchanged, re-collect otherwise; then fold
            // them in file order, as batch folds its one whole-union range.
            let t_collect = Instant::now();
            for (state, range) in files.values_mut().zip(&ranges) {
                let slice = system.event_reps.slice(range.clone());
                if range.is_empty() {
                    state.frag = None;
                } else if state.frag.as_ref().is_some_and(|(sel, _)| sel.as_slice() == slice) {
                    reused += 1;
                } else {
                    let rows = collect_rows(&union, &system, &seldon.gen, range.clone());
                    state.frag = Some((slice.to_event_reps(), rows));
                    collected += 1;
                }
            }
            // A kept file's graph and slice are unchanged, so selection
            // created every `(rep, role)` its rows use.
            let parts: Vec<&FileRows> =
                files.values().filter_map(|state| state.frag.as_ref()).map(|(_, r)| r).collect();
            system.fold(&parts);
            (system, GenStats { collect_time: t_collect.elapsed(), ..stats })
        };
        let stored = self.ckpt.as_ref();
        let climb =
            climb_ladder(Some(graph_key), seed, stored, Duration::ZERO, &seldon, &tele, build);
        let mut faults: Vec<CacheFault> = self.startup_fault.take().into_iter().collect();
        faults.extend(climb.faults);
        self.counters.fragments_reused += reused;
        self.counters.fragments_collected += collected;
        let label = match climb.outcome {
            CheckpointOutcome::HitFull => {
                self.counters.replays += 1;
                "replayed"
            }
            CheckpointOutcome::HitWarm => {
                self.counters.solves_warm += 1;
                "warm"
            }
            CheckpointOutcome::MissCold | CheckpointOutcome::Disabled => {
                self.counters.solves_cold += 1;
                "cold"
            }
        };
        if let Some(ckpt) = climb.checkpoint {
            let cache = self.cfg.analyze.cache.as_deref();
            faults.extend(cache.and_then(|c| c.store_checkpoint(&ckpt)));
            self.ckpt = Some(ckpt);
        }
        report.cache_faults.extend(faults.into_iter().map(CacheFaultReport::checkpoint));
        self.learned = learned_per_role(&climb.run.extraction.spec);
        self.built = true;
        let mut outcome = self.reuse_outcome(label, t0, counts, report);
        outcome.fragments_reused = reused;
        outcome.fragments_collected = collected;
        outcome.warm_margin = climb.warm_margin;
        Ok(outcome)
    }

    /// Assembles a `mode: "served-incremental"` run manifest describing
    /// the engine's current state. Drains the telemetry recorder. Serve
    /// never runs the taint stage, so the manifest carries no taint metric.
    pub fn manifest(&self, command: &str) -> RunManifest {
        let mut m = RunManifest::new(command);
        m.mode = "served-incremental".to_string();
        m.stages = self.cfg.analyze.telemetry.take_spans().into_iter().map(Into::into).collect();
        let shape = [self.files.len(), 1, self.last_events, self.last_edges];
        record_corpus(&mut m.metrics, shape, self.files.values().map(|state| &state.outcome));
        // The learning metrics describe the last build; they are absent
        // until one has finished.
        if let Some(ckpt) = self.ckpt.as_ref() {
            record_learning(
                &mut m,
                &ckpt.summary,
                &ckpt.solution(),
                &ckpt.backoff_hits,
                self.learned,
                &self.cfg.seldon,
                self.cfg.analyze.cache.as_deref().map(|cache| (cache, self.last_solve)),
            );
        }
        self.fill_metrics(&mut m.metrics);
        m
    }

    /// Serve-specific metrics, and the engine table's size.
    pub fn fill_metrics(&self, reg: &mut MetricsRegistry) {
        for (_, name, help, value) in self.counters.table() {
            reg.inc_counter(name, help, Class::Identity, value as f64);
        }
        reg.set_gauge(
            "serve_files_tracked",
            "Files tracked by the daemon after the last delta.",
            Class::Identity,
            self.files.len() as f64,
        );
        // Identity on purpose: repeated identical deltas must not grow
        // the engine's table.
        reg.gauge(&metric::INTERN_SYMBOLS, self.symbols.len() as f64);
    }
}
