//! The end-to-end Seldon pipeline (§7.1): parse a corpus of source files
//! (Python by default, JS-like for `.js` paths — see [`Frontend`]),
//! extract per-file propagation graphs one file at a time, union them into
//! the global graph, generate the linear constraint system, solve it with
//! projected Adam, and extract the learned specification. Everything past
//! per-file lowering is language-blind.
//!
//! ## Fault tolerance
//!
//! Real big-code corpora contain files that are malformed, pathological, or
//! that expose analysis bugs. [`analyze_inputs`], the per-file loop of
//! both `seldon learn` and `seldon serve`, isolates every file: each file
//! gets one analysis, which parses it once and skips its broken
//! statements; an optional per-file [`Budget`] bounds each file's cost;
//! and a panic during one file's analysis is contained and quarantines
//! only that file. The per-file verdicts come back in an
//! [`AnalysisReport`]. The [`FaultPolicy`] is read only by the loop: it
//! decides whether a file whose outcome is not `Ok` ends the run.

use crate::error::{panic_message, PipelineError};
use crate::report::{AnalysisReport, CacheFaultReport, FileOutcome, FileReport};
use seldon_cache::{
    file_key, fold_file_fingerprints, graph_fingerprint, input_fingerprint, union_graph_key,
    ArtifactCache, ArtifactLookup, ArtifactMeta, CacheFault, Checkpoint, CheckpointLookup,
    FaultClass, Fnv64, StoreQueue, SystemSummary, CHECKPOINT_NAME,
};
use seldon_constraints::{generate_with_stats, ConstraintSystem, GenOptions, GenStats};
use seldon_corpus::{Corpus, SourceFile};
use seldon_ir::FrontendError;
use seldon_jsfront::lower_js_program_into;
use seldon_propgraph::{
    lower_module_into, Budget, BudgetExceeded, FileId, GraphSink, IdHasher, PropagationGraph,
    Sink,
};
use seldon_solver::{
    extract, extraction_margin, solve_compiled, solve_compiled_warm, CompiledSystem,
    ExtractOptions, Extraction, SolveOptions, Solution,
};
use seldon_specs::TaintSpec;
use seldon_telemetry::{stage, Histogram, Telemetry, PARSE_HIST_BOUNDS};
use std::borrow::Cow;
use std::hash::Hasher;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which language frontend analyzes a file, decided by its extension.
///
/// Everything past the shared emitter — graph construction,
/// representations, constraints, solver, extraction, taint — is
/// language-blind; the frontend choice only selects which walk feeds a
/// file's events and ops to the emitter's sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Frontend {
    /// The Python frontend (`seldon-pyast` lexer/parser + Python
    /// lowering). The default for every extension other than `.js`.
    #[default]
    Python,
    /// The JS-like frontend (`seldon-jsfront`).
    Js,
}

impl Frontend {
    /// Picks the frontend for a file path: `.js` files go to the JS
    /// frontend, everything else to Python.
    pub fn of_path(path: &str) -> Frontend {
        if Path::new(path).extension().is_some_and(|e| e == "js") {
            Frontend::Js
        } else {
            Frontend::Python
        }
    }

    /// Stable tag mixed into [`file_key`] so byte-identical sources
    /// analyzed by different frontends never alias a cached artifact.
    pub fn salt_tag(self) -> u64 {
        match self {
            Frontend::Python => 0,
            Frontend::Js => 1,
        }
    }

    /// Manifest/telemetry label.
    pub fn label(self) -> &'static str {
        match self {
            Frontend::Python => "python",
            Frontend::Js => "js",
        }
    }

    /// Dense index for per-frontend arrays.
    fn index(self) -> usize {
        self.salt_tag() as usize
    }

    /// All frontends, indexed by [`Frontend::index`].
    const ALL: [Frontend; 2] = [Frontend::Python, Frontend::Js];

    /// The per-file front end, the one place a parser and a lowering are
    /// picked: checks the source size against `budget`, parses once with
    /// statement-level recovery, and lowers the AST under `budget` into
    /// `sink`: a [`GraphSink`] for the file's graph, a `Recorder` for its
    /// IR. The parse errors the parser recovered from come back in
    /// [`Lowered::errors`]. Pass [`Budget::unlimited`] to lower without
    /// limits.
    ///
    /// # Errors
    ///
    /// Returns the limit that tripped when the source or its lowering
    /// exceeds `budget`.
    pub fn lower<S: Sink>(
        self,
        source: &str,
        budget: &Budget,
        sink: S,
    ) -> Result<Lowered<S::Output>, BudgetExceeded> {
        budget.check_source(source)?;
        match self {
            Frontend::Python => lower_with(source, seldon_pyast::parse_lenient, |m| {
                lower_module_into(m, budget, sink)
            }),
            Frontend::Js => lower_with(source, seldon_jsfront::parse_lenient, |p| {
                lower_js_program_into(p, budget, sink)
            }),
        }
    }

    /// The first error of `source`'s parse, in source order: the first
    /// entry of [`Lowered::errors`] when the file lowers. `None` when the
    /// source parses cleanly.
    pub fn first_parse_error(self, source: &str) -> Option<FrontendError> {
        match self {
            Frontend::Python => seldon_pyast::parse(source).err(),
            Frontend::Js => seldon_jsfront::parse(source).err(),
        }
    }

    /// A fingerprint of `source`'s token stream under this front end's
    /// lexer: each token's kind and length-prefixed text, in order, spans
    /// left out. `None` when the source fails to lex.
    ///
    /// The front ends read a file only through its tokens: spans only
    /// stamp events, which [`graph_fingerprint`] ignores, and the one
    /// source slice a parser takes (a Python dotted module path) is split
    /// into segments with the whitespace around its dots dropped before
    /// lowering reads it. So two sources of equal fingerprint that both fit
    /// the budget's source size lower to graphs of equal
    /// [`graph_fingerprint`], with the same outcome and the same number of
    /// recovered errors: a comment, a blank line or the spacing between
    /// tokens never changes a file's analysis. The fingerprint is only
    /// ever compared in memory, never stored.
    pub fn token_fingerprint(self, source: &str) -> Option<u64> {
        match self {
            Frontend::Python => {
                let tokens = seldon_pyast::lexer::lex(source).ok()?;
                Some(fingerprint_tokens(tokens.iter().map(|t| (t.kind as u8, t.text))))
            }
            Frontend::Js => {
                let tokens = seldon_jsfront::lexer::lex(source).ok()?;
                Some(fingerprint_tokens(tokens.iter().map(|t| (t.kind.tag(), t.text))))
            }
        }
    }
}

/// [`Frontend::token_fingerprint`] over one lexer's `(kind tag, text)`
/// stream, hashed a word at a time ([`IdHasher`]): each token is one word
/// packing its kind tag and its length, then its text. The length keeps
/// the zero-padded tail of one text from running into the next token.
fn fingerprint_tokens<'s>(tokens: impl Iterator<Item = (u8, &'s str)>) -> u64 {
    let mut h = IdHasher::default();
    for (tag, text) in tokens {
        // Both lexers keep token offsets as `u32`, so a length fits too.
        h.write_u64(u64::from(tag) << 32 | text.len() as u64);
        h.write(text.as_bytes());
    }
    h.finish()
}

/// One file lowered by [`Frontend::lower`].
#[derive(Debug)]
pub struct Lowered<T> {
    /// What the sink built: the file's `PropagationGraph` through a
    /// [`GraphSink`], its recorded `IrProgram` through a `Recorder`.
    pub output: T,
    /// Statement-level parse errors the parser recovered from, in source
    /// order.
    pub errors: Vec<FrontendError>,
    /// Wall-clock time spent lexing and parsing.
    pub parse: Duration,
}

/// [`Frontend::lower`] over one language's recovering parser, whose AST
/// borrows the source `'s`, and its lowering.
fn lower_with<'s, Ast, T>(
    source: &'s str,
    parse: fn(&'s str) -> (Ast, Vec<FrontendError>),
    lower: impl FnOnce(&Ast) -> Result<T, BudgetExceeded>,
) -> Result<Lowered<T>, BudgetExceeded> {
    let started = Instant::now();
    let (ast, errors) = parse(source);
    let parse = started.elapsed();
    Ok(Lowered { output: lower(&ast)?, errors, parse })
}

/// Wall-clock split of one file's front-end work. The telemetry layer sums
/// these per-file durations into the `parse` and `propgraph` aggregate
/// stage spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct BuildTimings {
    /// Time spent lexing and parsing the source into an AST.
    parse: Duration,
    /// Time spent lowering the AST and building its propagation graph
    /// (including the points-to solve and call linking).
    build: Duration,
}

impl BuildTimings {
    /// Component-wise sum, for folding per-file timings into totals.
    fn add(&mut self, other: BuildTimings) {
        self.parse += other.parse;
        self.build += other.build;
    }
}

/// Metadata for one analyzed file.
#[derive(Debug, Clone)]
pub struct FileMeta {
    /// Index of the project the file belongs to.
    pub project: usize,
    /// Path within the project.
    pub path: String,
}

/// A corpus parsed and converted into a global propagation graph.
#[derive(Debug)]
pub struct AnalyzedCorpus {
    /// The global propagation graph (union of per-file graphs; event sets
    /// of different files stay disjoint, §4). Quarantined files contribute
    /// no events but keep their [`FileId`] slot in `files`.
    pub graph: PropagationGraph,
    /// Per-[`FileId`] metadata, indexed by `FileId.0`.
    pub files: Vec<FileMeta>,
    /// Wall-clock time spent parsing and building graphs.
    pub build_time: Duration,
    /// Per-frontend parse-time buckets over [`PARSE_HIST_BOUNDS`], keyed by
    /// frontend label. Only populated when the analysis ran with active
    /// telemetry (per-file timings are always taken, but only recorded
    /// into histograms then) and only for frontends that parsed at least
    /// one file; cache-served files skip the front end and are never
    /// tallied.
    pub parse_histograms: Vec<(&'static str, Histogram)>,
    /// Per-file graph-construction time distribution (microseconds, same
    /// buckets as the parse histograms). `None` unless telemetry was active
    /// during analysis; cache-served files skip construction and are never
    /// tallied.
    pub build_histogram: Option<Histogram>,
    /// The solver checkpoint's graph key, folded from the per-file
    /// fingerprints ([`AnalyzedFiles::graph_key`]); `None` when analyzed
    /// without a cache.
    pub graph_key: Option<u64>,
}

/// How [`analyze_inputs`] reacts to a file that cannot be analyzed
/// cleanly; every file gets the same recovering analysis under either.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultPolicy {
    /// Stop the run at the first file whose outcome is not
    /// [`FileOutcome::Ok`], with the error a strict front end gives it.
    #[default]
    FailFast,
    /// Keep going: a recovered or quarantined file is reported in the
    /// [`AnalysisReport`].
    Recover,
}

/// Options controlling a fault-tolerant corpus analysis.
#[derive(Debug, Clone, Default)]
pub struct AnalyzeOptions {
    /// Whether a file that fails analysis ends the run.
    pub policy: FaultPolicy,
    /// Per-file resource budget; `None` analyzes without limits.
    pub budget: Option<Budget>,
    /// Honor [`seldon_corpus::PANIC_MARKER`] by panicking inside the
    /// per-file guard. Only the fault-injection harness sets this; it
    /// exercises panic containment without a real analysis bug.
    pub fault_markers: bool,
    /// Telemetry handle for stage spans and stderr logging. Per-file
    /// parse/build timings are always taken; the default (disabled) handle
    /// records no spans and no parse histograms.
    pub telemetry: Telemetry,
    /// On-disk artifact cache. When attached, per-file analysis is served
    /// from validated cache entries where possible and recomputed (then
    /// stored) otherwise; every detected cache fault is contained,
    /// quarantined, and reported in
    /// [`AnalysisReport::cache_faults`](crate::AnalysisReport). `None`
    /// analyzes everything from source.
    pub cache: Option<Arc<ArtifactCache>>,
}

/// Folds every analysis option that changes what a file's cached artifact
/// *is* — the budget decides quarantine outcomes, and fault markers decide
/// injected panics — into the [`file_key`] salt, so entries from different
/// configurations can never satisfy each other. The fault policy is not
/// among them: it only decides whether the loop stops, so `--strict` and
/// default runs share their artifacts.
fn option_salt(opts: &AnalyzeOptions) -> u64 {
    let mut h = Fnv64::new();
    match &opts.budget {
        None => {
            h.write_u64(0);
        }
        Some(b) => {
            h.write_u64(1)
                .write_u64(b.max_source_bytes as u64)
                .write_u64(b.max_statements as u64)
                .write_u64(b.max_depth as u64);
            // The wall deadline makes outcomes timing-dependent; fold it in
            // so runs with different deadlines never share entries.
            match b.max_wall {
                None => h.write_u64(0),
                Some(d) => h.write_u64(1).write_u64(d.as_nanos() as u64),
            };
        }
    }
    h.write_u64(u64::from(opts.fault_markers));
    h.finish()
}

/// Whether the fault-injection harness panics on `content` (see
/// [`AnalyzeOptions::fault_markers`]) before its parser runs.
fn injects_panic(content: &str, opts: &AnalyzeOptions) -> bool {
    opts.fault_markers && content.contains(seldon_corpus::PANIC_MARKER)
}

/// Analyzes one file under the options' budget. Never panics: a panic
/// inside extraction is contained and reported as
/// [`FileOutcome::Panicked`].
///
/// The file is parsed once, and its parse errors are skipped and counted.
/// The timings are zero when the file is quarantined.
fn analyze_one(
    path: &str,
    content: &str,
    id: FileId,
    frontend: Frontend,
    opts: &AnalyzeOptions,
) -> (Option<PropagationGraph>, FileOutcome, BuildTimings) {
    let guarded = catch_unwind(AssertUnwindSafe(|| {
        if injects_panic(content, opts) {
            panic!("injected panic ({})", seldon_corpus::PANIC_MARKER);
        }
        let unlimited = Budget::unlimited();
        let budget = opts.budget.as_ref().unwrap_or(&unlimited);
        let started = Instant::now();
        match frontend.lower(content, budget, GraphSink::new(id)) {
            Ok(lowered) => {
                let build = started.elapsed().saturating_sub(lowered.parse);
                let outcome = match lowered.errors.len() {
                    0 => FileOutcome::Ok,
                    errors => FileOutcome::Recovered { errors },
                };
                (Some(lowered.output), outcome, BuildTimings { parse: lowered.parse, build })
            }
            Err(limit) => {
                let error = PipelineError::OverBudget { path: path.to_string(), limit };
                (None, FileOutcome::OverBudget { error }, BuildTimings::default())
            }
        }
    }));
    match guarded {
        Ok(result) => result,
        Err(payload) => {
            let message = panic_message(payload);
            let error = PipelineError::Panicked { path: path.to_string(), message };
            (None, FileOutcome::Panicked { error }, BuildTimings::default())
        }
    }
}

/// One file's (possibly cached) analysis: what [`analyze_file`] returns
/// and what [`analyze_inputs`] folds into its per-file results.
#[derive(Debug)]
pub struct FileAnalysis {
    /// The file's propagation graph, stamped with the requested
    /// [`FileId`]; `None` when the file was quarantined.
    pub graph: Option<PropagationGraph>,
    /// The per-file verdict (ok, recovered, over budget, panicked).
    pub outcome: FileOutcome,
    /// Whether the graph came from a validated cache entry (no parse
    /// ran).
    pub from_cache: bool,
    /// Contained cache faults hit serving this file.
    pub faults: Vec<CacheFault>,
    /// Which frontend was (or would have been) used for this file.
    frontend: Frontend,
    /// Front-end timings of the attempt that produced the graph (zero
    /// when cache-served or quarantined).
    timings: BuildTimings,
    /// Wall-clock spent on cache lookup + store for this file.
    cache_time: Duration,
    /// The artifact-cache key of the content, hashed once at lookup;
    /// `None` without a cache.
    key: Option<u64>,
    /// The graph's [`graph_fingerprint`]: read from the artifact on a hit,
    /// computed once after a fresh analysis. `None` without a cache or a
    /// graph.
    graph_fp: Option<u64>,
}

impl FileAnalysis {
    /// The record a fresh artifact of this analysis stores.
    fn meta(&self) -> Option<ArtifactMeta> {
        let recovered_errors = self.outcome.recovered_errors();
        self.graph_fp.map(|graph_fp| ArtifactMeta { recovered_errors, graph_fp })
    }
}

/// Analyzes a single file with the guard rails and artifact-cache keying
/// of [`analyze_inputs`], storing a fresh artifact synchronously. It gives
/// every file the loop's one analysis and never fails: the policy is not
/// read, and a bad file comes back as its outcome.
///
/// Behind a cache, a validated entry skips the front end entirely; a miss
/// (or any contained fault) recomputes and stores the fresh artifact. Only
/// analyzed outcomes are cached — quarantine verdicts are cheap to
/// re-derive and keeping them out of the store means a fixed budget never
/// serves a stale verdict.
pub fn analyze_file(path: &str, content: &str, id: FileId, opts: &AnalyzeOptions) -> FileAnalysis {
    let mut analysis = lookup_or_analyze(path, content, id, opts);
    let cache = opts.cache.as_deref().filter(|_| !analysis.from_cache);
    if let (Some(cache), Some(key), Some(g), Some(meta)) =
        (cache, analysis.key, &analysis.graph, analysis.meta())
    {
        let t = Instant::now();
        analysis.faults.extend(cache.store(key, g, meta));
        analysis.cache_time += t.elapsed();
    }
    analysis
}

/// [`analyze_file`] up to the store: a cache hit, or a fresh analysis.
fn lookup_or_analyze(path: &str, content: &str, id: FileId, opts: &AnalyzeOptions) -> FileAnalysis {
    let frontend = Frontend::of_path(path);
    // Hashing the content for the key is cache time too.
    let t0 = Instant::now();
    let key = opts.cache.as_ref().map(|_| analysis_cache_key(path, content, opts));
    let mut analysis = FileAnalysis {
        graph: None,
        outcome: FileOutcome::Ok,
        from_cache: false,
        faults: Vec::new(),
        frontend,
        timings: BuildTimings::default(),
        cache_time: Duration::ZERO,
        key,
        graph_fp: None,
    };
    let Some((cache, key)) = opts.cache.as_deref().zip(key) else {
        (analysis.graph, analysis.outcome, analysis.timings) =
            analyze_one(path, content, id, frontend, opts);
        return analysis;
    };
    match cache.load_artifact(key, id) {
        ArtifactLookup::Hit(graph, meta) => {
            analysis.graph = Some(graph);
            analysis.graph_fp = Some(meta.graph_fp);
            if meta.recovered_errors > 0 {
                analysis.outcome = FileOutcome::Recovered { errors: meta.recovered_errors };
            }
        }
        ArtifactLookup::Miss => {}
        ArtifactLookup::Fault(f) => analysis.faults.push(f),
    }
    analysis.cache_time = t0.elapsed();
    analysis.from_cache = analysis.graph.is_some();
    if !analysis.from_cache {
        (analysis.graph, analysis.outcome, analysis.timings) =
            analyze_one(path, content, id, frontend, opts);
        // The fingerprint the artifact stores and the checkpoint key
        // folds, hashed once; cache work, like the key.
        let t = Instant::now();
        analysis.graph_fp = analysis.graph.as_ref().map(graph_fingerprint);
        analysis.cache_time += t.elapsed();
    }
    analysis
}

/// The artifact-cache key [`analyze_inputs`] files this path/content under
/// for `opts` — exposed so a caller that knows a file left the corpus can
/// [`ArtifactCache::evict`] its entry (content keys of deleted files are
/// never looked up again, so nothing else would ever reclaim them).
pub fn analysis_cache_key(path: &str, content: &str, opts: &AnalyzeOptions) -> u64 {
    let salt = if opts.cache.is_some() { option_salt(opts) } else { 0 };
    file_key(content, salt, Frontend::of_path(path).salt_tag())
}

/// Parses every file of `corpus` under `opts`, unions the graphs of
/// successfully analyzed files, and reports a per-file verdict for each:
/// [`analyze_inputs`] over the corpus in order, then [`union_graphs`].
///
/// File identity is stable: the [`FileId`] of every file equals its index
/// in corpus order even when earlier files are quarantined, so the union
/// order — and therefore event identity — is deterministic.
///
/// # Errors
///
/// Under [`FaultPolicy::FailFast`], the error of the first file whose
/// outcome is not `Ok` (see [`analyze_inputs`]).
pub fn analyze_corpus_with(
    corpus: &Corpus,
    opts: &AnalyzeOptions,
) -> Result<(AnalyzedCorpus, AnalysisReport), PipelineError> {
    analyze_and_union(corpus.files(), opts)
}

/// [`analyze_corpus_with`] over `(project, file)` pairs, with [`FileId`]s
/// numbered from 0.
fn analyze_and_union<'a>(
    files: impl Iterator<Item = (usize, &'a SourceFile)>,
    opts: &AnalyzeOptions,
) -> Result<(AnalyzedCorpus, AnalysisReport), PipelineError> {
    let started = Instant::now();
    let inputs = files.enumerate().map(|(i, (project, file))| FileInput {
        project,
        id: FileId(i as u32),
        path: &file.path,
        content: &file.content,
    });
    let analyzed = analyze_inputs(inputs, opts)?;
    let graph_key = analyzed.graph_key();
    let AnalyzedFiles { graphs, report, parse_histograms, build_histogram, .. } = analyzed;
    let graphs = graphs.into_iter().map(|g| g.map(Cow::Owned)).collect();
    let (graph, _) = union_graphs(graphs, &opts.telemetry);
    let meta = |f: &FileReport| FileMeta { project: f.project, path: f.path.clone() };
    let files = report.files.iter().map(meta).collect();
    let build_time = started.elapsed();
    let corpus =
        AnalyzedCorpus { graph, files, build_time, parse_histograms, build_histogram, graph_key };
    Ok((corpus, report))
}

/// One file handed to [`analyze_inputs`].
#[derive(Debug, Clone, Copy)]
pub struct FileInput<'a> {
    /// Index of the project the file belongs to (its `parse.project`
    /// span and [`FileReport::project`]).
    pub project: usize,
    /// The [`FileId`] the file's events are stamped with.
    pub id: FileId,
    /// The file's path: it picks the frontend and names the file in the
    /// report.
    pub path: &'a str,
    /// The source text.
    pub content: &'a str,
}

/// What [`analyze_inputs`] returns, one entry per input in input order.
#[derive(Debug)]
pub struct AnalyzedFiles {
    /// Each file's propagation graph; `None` when quarantined.
    pub graphs: Vec<Option<PropagationGraph>>,
    /// Each file's artifact-cache key, hashed once from its content;
    /// `None` without a cache.
    pub keys: Vec<Option<u64>>,
    /// Each file's [`graph_fingerprint`], read from its artifact or hashed
    /// once after its analysis; `None` without a cache or a graph.
    pub fingerprints: Vec<Option<u64>>,
    /// Each file's outcome, and the contained cache faults.
    pub report: AnalysisReport,
    /// See [`AnalyzedCorpus::parse_histograms`].
    pub parse_histograms: Vec<(&'static str, Histogram)>,
    /// See [`AnalyzedCorpus::build_histogram`].
    pub build_histogram: Option<Histogram>,
}

impl AnalyzedFiles {
    /// The solver checkpoint's graph key of these files in input order
    /// ([`fold_file_fingerprints`]), the key [`union_graph_key`] derives
    /// from their union; `None` when a graph has no fingerprint (the
    /// files were analyzed without a cache).
    pub fn graph_key(&self) -> Option<u64> {
        let files = self.graphs.iter().zip(&self.fingerprints);
        let fingerprinted: Option<Vec<(usize, u64)>> = files
            .filter_map(|(g, fp)| g.as_ref().map(|g| Some((g.event_count(), (*fp)?))))
            .collect();
        fingerprinted.map(fold_file_fingerprints)
    }
}

/// The per-file stage of `seldon learn` and `seldon serve`, the one place
/// source files become per-file graphs and the one place the
/// [`FaultPolicy`] is read. Files are analyzed one at a time, in input
/// order: each is looked up in the artifact cache under a key hashed once
/// from its content, analyzed on a miss, and its fresh artifact queued to
/// the cache's background writer ([`ArtifactCache::write_behind`]), so
/// parsing the next file overlaps this one's `sync_data`. Every queued
/// artifact is on disk when the call returns. Writes the `parse` (with
/// `parse.project` children), `propgraph` and, with a cache, `cache`
/// stage spans.
///
/// # Errors
///
/// Under [`FaultPolicy::FailFast`], the first file whose outcome is not
/// [`FileOutcome::Ok`] ends the run with the error a front end that
/// parses before it lowers would give it, after its analysis but before
/// its artifact or any later file is stored; no span is written.
pub fn analyze_inputs<'a>(
    inputs: impl IntoIterator<Item = FileInput<'a>>,
    opts: &AnalyzeOptions,
) -> Result<AnalyzedFiles, PipelineError> {
    let mut out = AnalyzedFiles {
        graphs: Vec::new(),
        keys: Vec::new(),
        fingerprints: Vec::new(),
        report: AnalysisReport::default(),
        parse_histograms: Vec::new(),
        build_histogram: None,
    };
    let mut timings = BuildTimings::default();
    let mut cache_time = Duration::ZERO;
    // Per-project (parse time, files parsed) for the parse.project child
    // spans, and the per-frontend parse and per-file build histograms.
    // Tallied only under active telemetry, so an inactive handle neither
    // allocates them nor grows a manifest-visible histogram. Cache-served
    // files skip the front end and contribute nothing.
    let timed = opts.telemetry.is_active();
    let mut project_parse: Vec<(Duration, usize)> = Vec::new();
    let mut hists = timed.then(|| {
        let hist = || Histogram::with_u64_bounds(&PARSE_HIST_BOUNDS);
        (Frontend::ALL.map(|_| hist()), hist())
    });
    let mut faults: Vec<(usize, CacheFault)> = Vec::new();
    let run = |queue: Option<&StoreQueue>| {
        for (i, input) in inputs.into_iter().enumerate() {
            let analysis = lookup_or_analyze(input.path, input.content, input.id, opts);
            if opts.policy == FaultPolicy::FailFast && analysis.outcome != FileOutcome::Ok {
                return Err(failfast_error(&input, analysis.outcome, opts));
            }
            cache_time += analysis.cache_time;
            let queue = queue.filter(|_| !analysis.from_cache);
            if let (Some(queue), Some(key), Some(g), Some(meta)) =
                (queue, analysis.key, &analysis.graph, analysis.meta())
            {
                let t = Instant::now();
                queue.store_artifact(i, key, g, meta);
                cache_time += t.elapsed();
            }
            timings.add(analysis.timings);
            if let Some((parse_hist, build_hist)) = hists.as_mut().filter(|_| !analysis.from_cache)
            {
                if project_parse.len() <= input.project {
                    project_parse.resize(input.project + 1, (Duration::ZERO, 0));
                }
                let share = &mut project_parse[input.project];
                share.0 += analysis.timings.parse;
                share.1 += 1;
                if analysis.outcome.is_analyzed() {
                    parse_hist[analysis.frontend.index()]
                        .observe(analysis.timings.parse.as_micros() as f64);
                    build_hist.observe(analysis.timings.build.as_micros() as f64);
                }
            }
            faults.extend(analysis.faults.into_iter().map(|f| (i, f)));
            out.graphs.push(analysis.graph);
            out.keys.push(analysis.key);
            out.fingerprints.push(analysis.graph_fp);
            let (project, path) = (input.project, input.path.to_string());
            out.report.files.push(FileReport { project, path, outcome: analysis.outcome });
        }
        Ok(Instant::now())
    };
    let (looped, store_faults) = match opts.cache.as_deref() {
        Some(cache) => cache.write_behind(|queue| run(Some(queue))),
        None => (run(None), Vec::new()),
    };
    // The wait for the writer to drain is cache time too.
    cache_time += looped?.elapsed();
    faults.extend(store_faults);
    // Stable: each file's lookup fault stays ahead of its store fault.
    faults.sort_by_key(|&(i, _)| i);
    let files = &out.report.files;
    out.report.cache_faults = faults
        .into_iter()
        .map(|(i, fault)| CacheFaultReport { path: files[i].path.clone(), fault })
        .collect();
    let tele = &opts.telemetry;
    // Parse and graph construction interleave file by file, so their cost
    // is the summed per-file time (aggregate spans), not a driver
    // wall-clock interval. Per-project parse shares nest as children of
    // the parse stage span.
    let parse_idx = tele.aggregate_span(stage::PARSE, timings.parse, &[("files", files.len() as f64)]);
    for (project, (dur, parsed)) in project_parse.iter().enumerate().filter(|(_, p)| p.1 > 0) {
        let counters = [("project", project as f64), ("files", *parsed as f64)];
        tele.aggregate_child(parse_idx, stage::PARSE_PROJECT, *dur, &counters);
    }
    let analyzed_files = files.iter().filter(|r| r.outcome.is_analyzed()).count();
    tele.aggregate_span(
        stage::PROPGRAPH,
        timings.build,
        &[("files_analyzed", analyzed_files as f64)],
    );
    if let Some(cache) = opts.cache.as_deref() {
        let s = cache.stats();
        tele.aggregate_span(
            stage::CACHE,
            cache_time,
            &[
                ("hits", s.hits as f64),
                ("misses", s.misses as f64),
                ("stores", s.stores as f64),
                ("corrupt", s.corrupt as f64),
                ("stale", s.stale as f64),
                ("evicted", s.evicted as f64),
            ],
        );
    }
    if let Some((parse, build)) = hists {
        out.parse_histograms = Frontend::ALL
            .iter()
            .zip(parse)
            .map(|(f, h)| (f.label(), h))
            .filter(|(_, h)| h.total() > 0)
            .collect();
        out.build_histogram = Some(build);
    }
    Ok(out)
}

/// The error a [`FaultPolicy::FailFast`] run stops at a file with, given
/// its `outcome` (not `Ok`): what a front end that parses before it lowers
/// would give. A fault marker or the source-size budget stops the file
/// before its parser, so its outcome's error stands; otherwise its first
/// parse error wins over a lowering trip or panic. Only this path parses
/// the file again, contained: a parse that panicked panics again.
fn failfast_error(
    input: &FileInput<'_>,
    outcome: FileOutcome,
    opts: &AnalyzeOptions,
) -> PipelineError {
    let quarantined = match outcome {
        FileOutcome::OverBudget {
            error: error @ PipelineError::OverBudget { limit: BudgetExceeded::SourceBytes { .. }, .. },
        } => return error,
        FileOutcome::Panicked { error } if injects_panic(input.content, opts) => return error,
        FileOutcome::Ok | FileOutcome::Recovered { .. } => None,
        FileOutcome::OverBudget { error } | FileOutcome::Panicked { error } => Some(error),
    };
    let frontend = Frontend::of_path(input.path);
    let parse = catch_unwind(|| frontend.first_parse_error(input.content)).ok().flatten();
    match (parse, quarantined) {
        (Some(e), _) => {
            PipelineError::Parse { path: input.path.to_string(), message: e.to_string() }
        }
        (None, Some(error)) => error,
        (None, None) => unreachable!("a recovered file has a parse error"),
    }
}

/// Folds per-file graphs, in order, into one global graph: the union step
/// of both `seldon learn` and `seldon serve`. Writes the [`stage::UNION`]
/// span with `files`, `events`, `edges` and `symbols` counters.
///
/// The union is an order-preserving concatenation (each graph's event ids
/// shift by the events folded before it), so event identity is a pure
/// function of the input order. Returns the graph and, per input, the
/// range of event ids its graph occupies (empty for `None`). Every array
/// of the union is reserved once for all inputs, and each input's arrays
/// are copied onto their ends ([`PropagationGraph::union`]): an owned
/// graph costs the same as a borrowed one, and is dropped after the copy.
pub fn union_graphs(
    graphs: Vec<Option<Cow<'_, PropagationGraph>>>,
    tele: &Telemetry,
) -> (PropagationGraph, Vec<Range<usize>>) {
    let span = tele.span(stage::UNION);
    let files = graphs.len();
    let mut graph = PropagationGraph::new();
    graph.reserve_for(graphs.iter().flatten().map(|g| &**g));
    let mut ranges = Vec::with_capacity(files);
    for g in graphs {
        let start = graph.event_count();
        if let Some(g) = g {
            graph.union(&g);
        }
        ranges.push(start..graph.event_count());
    }
    span.counter("files", files as f64);
    span.counter("events", graph.event_count() as f64);
    span.counter("edges", graph.edge_count() as f64);
    span.counter("symbols", graph.symbols().len() as f64);
    (graph, ranges)
}

/// Parses every file of `corpus` and unions the per-file graphs.
///
/// Equivalent to [`analyze_corpus_with`] under [`FaultPolicy::FailFast`]
/// with no budget.
///
/// # Errors
///
/// Returns [`PipelineError::Parse`] if any generated file fails to parse —
/// the corpus generator guarantees parseable output, so this indicates a
/// front-end bug.
pub fn analyze_corpus(corpus: &Corpus) -> Result<AnalyzedCorpus, PipelineError> {
    Ok(analyze_corpus_with(corpus, &AnalyzeOptions::default())?.0)
}

/// Analyzes a single project of the corpus (used for the Q5 experiment)
/// under the default options (strict, no budget), with [`FileId`]s
/// numbered from 0 within the project.
///
/// # Errors
///
/// Returns the first bad file's error ([`PipelineError::Parse`] on
/// front-end failure), or [`PipelineError::NoSuchProject`] for an
/// out-of-range index.
pub fn analyze_project(corpus: &Corpus, project: usize) -> Result<AnalyzedCorpus, PipelineError> {
    let Some(p) = corpus.projects.get(project) else {
        return Err(PipelineError::NoSuchProject(project));
    };
    let files = p.files.iter().map(|f| (project, f));
    Ok(analyze_and_union(files, &AnalyzeOptions::default())?.0)
}

/// Hyperparameters of a full Seldon run; defaults follow the paper.
#[derive(Debug, Clone, Default)]
pub struct SeldonOptions {
    /// Constraint-generation options (cutoff 5, C = 0.75).
    pub gen: GenOptions,
    /// Solver options (λ = 0.1, projected Adam).
    pub solve: SolveOptions,
    /// Extraction options (t = 0.1, decay 0.8).
    pub extract: ExtractOptions,
    /// When true (and telemetry records), the manifest carries the full
    /// per-representation score dump with backoff levels — the Fig. 11
    /// dataset. Off by default: the dump scales with the learned spec.
    /// The dump needs the solved scores a checkpoint does not keep, so it
    /// skips the full rung of [`climb_ladder`].
    pub score_dump: bool,
    /// Opt-in warm rung of [`climb_ladder`]: when set and the input
    /// fingerprint misses, the solver is seeded from the stored
    /// checkpoint's scores (remapped by representation and role). `None`
    /// (the default, and what `seldon learn` and `seldon serve` pass)
    /// keeps reuse exact-match only.
    pub warm_start: Option<WarmStartOptions>,
}

/// The §4.3 representation cutoff `seldon learn` and `seldon serve` use
/// when none is given: 2 for a corpus below 50 files, 5 at or above. A
/// small corpus sees each API too rarely for the paper's cutoff of 5.
pub fn default_rep_cutoff(files: usize) -> usize {
    if files < 50 {
        2
    } else {
        5
    }
}

/// Margin used by [`WarmStartOptions::default`]: a warm solution is only
/// accepted when every extraction decision clears the threshold by at
/// least this much, comfortably above the score wobble between a warm and
/// a cold convergence (both stop at relative tolerance `1e-6`).
pub const DEFAULT_WARM_MARGIN: f64 = 0.02;

/// Policy for near-miss checkpoint warm-starting (see
/// [`SeldonOptions::warm_start`]).
///
/// Warm and cold solves converge to the same optimum region but not to
/// bit-identical scores, so a warm solution is only *accepted* when its
/// extraction margin — the smallest distance between any decayed score
/// and its role threshold, over every (event, role, backoff level)
/// decision — is at least `min_margin`. A tighter margin means the tiny
/// warm-vs-cold score difference could flip a spec entry, so the run
/// falls back to a cold solve on the same compiled system and the output
/// stays byte-identical to an uncached run by construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WarmStartOptions {
    /// Minimum extraction margin below which the warm solution is
    /// discarded in favor of a cold solve.
    pub min_margin: f64,
}

impl Default for WarmStartOptions {
    fn default() -> Self {
        WarmStartOptions { min_margin: DEFAULT_WARM_MARGIN }
    }
}

/// The artifacts of a full Seldon run.
#[derive(Debug)]
pub struct SeldonRun {
    /// The generated constraint system.
    pub system: ConstraintSystem,
    /// The solved scores.
    pub solution: Solution,
    /// The extracted specification and per-event roles.
    pub extraction: Extraction,
    /// Time spent generating constraints.
    pub gen_time: Duration,
    /// Time spent solving.
    pub solve_time: Duration,
    /// Phase timings and drop counters of constraint generation.
    pub gen_stats: GenStats,
}

impl SeldonRun {
    /// Number of candidate events that entered the constraint system.
    pub fn candidate_count(&self) -> usize {
        self.system.candidates().count()
    }
}

/// Convergence-trace stride used when telemetry records but the caller
/// left [`SolveOptions::trace_stride`] at 0: every 10th epoch plus the
/// final one — dense enough to plot, sparse enough to keep the Adam hot
/// loop cheap.
pub const DEFAULT_TRACE_STRIDE: usize = 10;

/// Runs constraint generation, solving, and extraction over a graph.
pub fn run_seldon(graph: &PropagationGraph, seed: &TaintSpec, opts: &SeldonOptions) -> SeldonRun {
    run_seldon_cached(graph, seed, opts, &Telemetry::disabled(), None).0
}

/// The rung of [`climb_ladder`] that served a run. `seldon serve` labels
/// `HitFull` as `replayed` and both `MissCold` and `Disabled` as `cold`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CheckpointOutcome {
    /// No cache attached (an unkeyed climb); the run was fully cold.
    #[default]
    Disabled,
    /// Checkpoint absent, damaged, or fingerprint-mismatched; solved from
    /// zero and stored a fresh checkpoint.
    MissCold,
    /// The input fingerprint matched: generation, solving, and extraction
    /// were all skipped and the stored outputs replayed.
    HitFull,
    /// The input changed, but ([`SeldonOptions::warm_start`] being set)
    /// the solver was seeded from the previous checkpoint's remapped
    /// scores and the warm solution cleared the extraction-margin guard.
    HitWarm,
}

impl CheckpointOutcome {
    /// The manifest's `cache.checkpoint` string.
    pub fn label(self) -> &'static str {
        match self {
            CheckpointOutcome::Disabled => "off",
            CheckpointOutcome::MissCold => "cold",
            CheckpointOutcome::HitFull => "full",
            CheckpointOutcome::HitWarm => "warm",
        }
    }
}

/// What the checkpoint path of one run did, for reports and the manifest.
#[derive(Debug, Default)]
pub struct CheckpointUse {
    /// How the checkpoint was used.
    pub outcome: CheckpointOutcome,
    /// Contained faults hit loading or storing the checkpoint.
    pub faults: Vec<CacheFault>,
    /// System shape replayed from the checkpoint on a full hit (the
    /// in-memory [`SeldonRun::system`] is empty then).
    pub summary: Option<SystemSummary>,
}

/// What one climb of [`climb_ladder`] produced.
#[derive(Debug)]
pub struct Climb {
    /// The learned run. On a full hit it is replayed from the checkpoint
    /// and its constraint system is empty.
    pub run: SeldonRun,
    /// The rung that served the run; [`CheckpointOutcome::Disabled`] when
    /// an unkeyed climb solved cold.
    pub outcome: CheckpointOutcome,
    /// This run's checkpoint, for the caller to keep and store; `None` on
    /// a full hit (the stored checkpoint stands) and on an unkeyed climb.
    pub checkpoint: Option<Checkpoint>,
    /// Extraction margin of the warm solution, when one was attempted.
    pub warm_margin: Option<f64>,
    /// Contained faults: a fingerprint-matched checkpoint whose spec text
    /// failed to parse (the climb then goes on as on a miss).
    pub faults: Vec<CacheFault>,
}

/// The checkpoint ladder `learn` and `serve` both climb, and the one
/// place the learning stage spans are written. Keyed by the corpus's
/// graph key `graph_key` (see [`seldon_cache::checkpoint`]), it tries in
/// order:
///
/// 1. *full* — the input fingerprint matches `stored`: its scores, spec
///    and roles are replayed; nothing is built or solved. Skipped under
///    [`SeldonOptions::score_dump`], whose dump needs the solved system;
/// 2. `build` the constraint system;
/// 3. *warm* — only with [`SeldonOptions::warm_start`] and a stored key
///    table: Adam starts from the remapped scores, and the solution is
///    kept when its extraction margin clears the policy's threshold;
/// 4. *cold* — a solve from zero on the same compiled system.
///
/// Every rung emits the `representation`, `constraints`, `solve` (with a
/// `compile` child unless replayed) and `extract` spans with the same
/// counter keys; replayed stages add `replayed`, a warm attempt adds
/// `warm_accepted` and `warm_margin`. `load_time` is what loading
/// `stored` cost, reported as the solve time of the full rung. With
/// `graph_key == None` the climb is unkeyed: no fingerprint is computed,
/// no checkpoint is built, and only the warm and cold rungs remain. When
/// `tele` records and the caller left the solver trace stride at 0, the
/// stride defaults to [`DEFAULT_TRACE_STRIDE`] so the manifest always
/// carries a convergence curve.
pub fn climb_ladder(
    graph_key: Option<u64>,
    seed: &TaintSpec,
    stored: Option<&Checkpoint>,
    load_time: Duration,
    opts: &SeldonOptions,
    tele: &Telemetry,
    build: impl FnOnce() -> (ConstraintSystem, GenStats),
) -> Climb {
    let input_fp =
        graph_key.map(|key| input_fingerprint(key, seed, &opts.gen, &opts.solve, &opts.extract));
    let mut faults = Vec::new();
    if let Some(ckpt) = stored.filter(|c| input_fp == Some(c.input_fp) && !opts.score_dump) {
        match TaintSpec::parse(&ckpt.spec_text) {
            Ok(spec) => {
                return Climb {
                    run: replay(ckpt, spec, load_time, opts, tele),
                    outcome: CheckpointOutcome::HitFull,
                    checkpoint: None,
                    warm_margin: None,
                    faults,
                };
            }
            // The entry checksummed clean but its content is unusable.
            Err(_) => faults.push(CacheFault {
                entry: CHECKPOINT_NAME.to_string(),
                class: FaultClass::Corrupt,
                detail: "stored spec text failed to parse".to_string(),
            }),
        }
    }

    let started = Instant::now();
    let (system, gen_stats) = build();
    let gen_time = started.elapsed();
    system_spans(tele, &SystemSummary::of(&system, &gen_stats), &gen_stats, false);

    let mut solve_opts = opts.solve.clone();
    if tele.is_recording() && solve_opts.trace_stride == 0 {
        solve_opts.trace_stride = DEFAULT_TRACE_STRIDE;
    }
    let mut warm = None;
    let started = Instant::now();
    // The compiled system lives only as long as the solve needs it.
    let (solution, outcome, compile) = {
        let compiled = CompiledSystem::compile(&system);
        let compile = (
            started.elapsed(),
            [
                ("constraints", compiled.constraint_count() as f64),
                ("rows", compiled.row_count() as f64),
                ("terms", compiled.term_count() as f64),
                ("lanes", compiled.lane_count() as f64),
            ],
        );
        let warm_seed = opts.warm_start.as_ref().zip(stored).and_then(|(policy, ckpt)| {
            Some((policy.min_margin, ckpt.warm_init_for(&system)?))
        });
        let accepted = warm_seed.and_then(|(min_margin, init)| {
            let solution = solve_compiled_warm(&compiled, &solve_opts, &init);
            let margin = extraction_margin(&system, &solution, &opts.extract);
            warm = Some((margin >= min_margin, margin));
            (margin >= min_margin).then_some(solution)
        });
        let cold = if input_fp.is_some() {
            CheckpointOutcome::MissCold
        } else {
            CheckpointOutcome::Disabled
        };
        let (solution, outcome) = match accepted {
            Some(solution) => (solution, CheckpointOutcome::HitWarm),
            None => (solve_compiled(&compiled, &solve_opts), cold),
        };
        (solution, outcome, compile)
    };
    let solve_time = started.elapsed();
    solve_span(tele, solve_time, &solution, opts.solve.threads, Some(compile), warm);

    let started = Instant::now();
    let extraction = extract(&system, &solution, &opts.extract);
    extract_span(tele, started.elapsed(), &extraction, system.candidates().count(), false);
    let checkpoint = input_fp.map(|input_fp| {
        Checkpoint::from_run(input_fp, &system, &gen_stats, &solution, &extraction)
    });
    Climb {
        run: SeldonRun { system, solution, extraction, gen_time, solve_time, gen_stats },
        outcome,
        checkpoint,
        warm_margin: warm.map(|(_, margin)| margin),
        faults,
    }
}

/// The full rung: rebuilds the run from the checkpoint, replaying the
/// skipped stages as spans so the manifest keeps its full stage set.
fn replay(
    ckpt: &Checkpoint,
    spec: TaintSpec,
    load_time: Duration,
    opts: &SeldonOptions,
    tele: &Telemetry,
) -> SeldonRun {
    let s = &ckpt.summary;
    let gen_stats = GenStats {
        candidate_events: s.candidates as usize,
        surviving_reps: s.surviving_reps as usize,
        dropped_by_cutoff: s.dropped_by_cutoff as usize,
        dropped_by_blacklist: s.dropped_by_blacklist as usize,
        ..GenStats::default()
    };
    system_spans(tele, s, &gen_stats, true);
    let solution = ckpt.solution();
    solve_span(tele, load_time, &solution, opts.solve.threads, None, None);
    let extraction = Extraction {
        spec,
        event_roles: ckpt.event_role_map(),
        backoff_hits: ckpt.backoff_hits.clone(),
        ..Extraction::default()
    };
    extract_span(tele, Duration::ZERO, &extraction, s.candidates as usize, true);
    SeldonRun {
        system: ConstraintSystem::new(opts.gen.c),
        solution,
        extraction,
        gen_time: Duration::ZERO,
        solve_time: load_time,
        gen_stats,
    }
}

/// Records one learning stage as an aggregate span, tagged `replayed`
/// when the ladder replayed it from a checkpoint.
fn stage_span(
    tele: &Telemetry,
    name: &'static str,
    dur: Duration,
    counters: &[(&'static str, f64)],
    replayed: bool,
) -> Option<u32> {
    if !replayed {
        return tele.aggregate_span(name, dur, counters);
    }
    let mut tagged = counters.to_vec();
    tagged.push(("replayed", 1.0));
    tele.aggregate_span(name, dur, &tagged)
}

/// The `representation` (§4.3 selection) and `constraints` (Fig. 4
/// collection) spans.
fn system_spans(tele: &Telemetry, s: &SystemSummary, gen_stats: &GenStats, replayed: bool) {
    let representation = [
        ("candidate_events", s.candidates as f64),
        ("surviving_reps", s.surviving_reps as f64),
        ("dropped_by_cutoff", s.dropped_by_cutoff as f64),
        ("dropped_by_blacklist", s.dropped_by_blacklist as f64),
    ];
    stage_span(tele, stage::REPRESENTATION, gen_stats.select_time, &representation, replayed);
    let constraints = [
        ("constraints", s.constraints as f64),
        ("vars", s.vars as f64),
        ("pinned", s.pinned as f64),
        ("template_a", s.by_template[0] as f64),
        ("template_b", s.by_template[1] as f64),
        ("template_c", s.by_template[2] as f64),
    ];
    stage_span(tele, stage::CONSTRAINTS, gen_stats.collect_time, &constraints, replayed);
}

/// The `solve` span, with the CSR lowering's shape as its `compile`
/// child and `(accepted, margin)` of a warm attempt. A solve without a
/// `compile` child was replayed from the checkpoint.
fn solve_span(
    tele: &Telemetry,
    dur: Duration,
    solution: &Solution,
    threads: usize,
    compile: Option<(Duration, [(&'static str, f64); 4])>,
    warm: Option<(bool, f64)>,
) {
    let (accepted, margin) = warm.unwrap_or_default();
    let counters = [
        ("threads", threads.max(1) as f64),
        ("iterations", solution.iterations as f64),
        ("restarts", solution.restarts as f64),
        ("objective", solution.objective),
        ("violation", solution.violation),
        ("stop_reason", solution.stop.code() as f64),
        ("epochs_saved", solution.epochs_saved as f64),
        ("warm_accepted", f64::from(accepted)),
        ("warm_margin", margin),
    ];
    let counters = if warm.is_some() { &counters[..] } else { &counters[..7] };
    let index = stage_span(tele, stage::SOLVE, dur, counters, compile.is_none());
    if let Some((dur, shape)) = compile {
        tele.aggregate_child(index, stage::COMPILE, dur, &shape);
    }
}

/// The `extract` span, with the candidate events extraction scans.
fn extract_span(
    tele: &Telemetry,
    dur: Duration,
    extraction: &Extraction,
    candidate_events: usize,
    replayed: bool,
) {
    let counters = [
        ("candidate_events", candidate_events as f64),
        ("learned_entries", extraction.spec.role_count() as f64),
        ("events_with_roles", extraction.event_roles.len() as f64),
    ];
    stage_span(tele, stage::EXTRACT, dur, &counters, replayed);
}

/// [`run_seldon`] emitting the learning stage spans on `tele`, behind the
/// checkpoint stored in `cache`: loads it, climbs [`climb_ladder`] keyed
/// by the graph key [`union_graph_key`] derives from `graph` (a union
/// [`analyze_corpus_with`] built), and stores the fresh checkpoint. Reuse
/// is exact-match by default, so the returned spec and scores are
/// byte-identical to what the cold run would produce — a damaged or
/// mismatched checkpoint costs time, never output fidelity. Without a
/// cache the climb is unkeyed: it computes no fingerprint and builds no
/// checkpoint.
pub fn run_seldon_cached(
    graph: &PropagationGraph,
    seed: &TaintSpec,
    opts: &SeldonOptions,
    tele: &Telemetry,
    cache: Option<&ArtifactCache>,
) -> (SeldonRun, CheckpointUse) {
    run_checkpointed(graph, || union_graph_key(graph), seed, opts, tele, cache)
}

/// [`run_seldon_cached`] with the graph key supplied by `graph_key`,
/// which is called only when a cache is attached: `seldon learn` passes
/// the key its analysis folded from the per-file fingerprints
/// ([`AnalyzedCorpus::graph_key`]), so it never hashes the union.
pub(crate) fn run_checkpointed(
    graph: &PropagationGraph,
    graph_key: impl FnOnce() -> u64,
    seed: &TaintSpec,
    opts: &SeldonOptions,
    tele: &Telemetry,
    cache: Option<&ArtifactCache>,
) -> (SeldonRun, CheckpointUse) {
    let Some(cache) = cache else {
        let build = || generate_with_stats(graph, seed, &opts.gen);
        let run = climb_ladder(None, seed, None, Duration::ZERO, opts, tele, build).run;
        return (run, CheckpointUse::default());
    };
    let mut faults = Vec::new();
    let started = Instant::now();
    let stored = match cache.load_checkpoint() {
        CheckpointLookup::Hit(ckpt) => Some(ckpt),
        CheckpointLookup::Miss => None,
        CheckpointLookup::Fault(f) => {
            faults.push(f);
            None
        }
    };
    let load_time = started.elapsed();
    let key = Some(graph_key());
    let build = || generate_with_stats(graph, seed, &opts.gen);
    let climb = climb_ladder(key, seed, stored.as_deref(), load_time, opts, tele, build);
    faults.extend(climb.faults);
    // Store (or re-key) the checkpoint so the next identical run takes the
    // full rung.
    if let Some(f) = climb.checkpoint.as_ref().and_then(|ckpt| cache.store_checkpoint(ckpt)) {
        faults.push(f);
    }
    let summary = stored.filter(|_| climb.outcome == CheckpointOutcome::HitFull).map(|c| c.summary);
    (climb.run, CheckpointUse { outcome: climb.outcome, faults, summary })
}

#[cfg(test)]
mod tests {
    use super::*;
    use seldon_corpus::{generate_corpus, CorpusOptions, Project, SourceFile, Universe};
    use seldon_propgraph::Recorder;

    fn corpus() -> Corpus {
        generate_corpus(
            &Universe::new(),
            &CorpusOptions { projects: 8, ..Default::default() },
        )
    }

    /// A corpus with one clean and one malformed file.
    fn mixed_corpus() -> Corpus {
        Corpus {
            projects: vec![Project {
                name: "p0".into(),
                files: vec![
                    SourceFile {
                        path: "good.py".into(),
                        content: "import flask\nx = flask.request.args.get('q')\n".into(),
                    },
                    SourceFile {
                        path: "bad.py".into(),
                        content: "def broken(:\n".into(),
                    },
                ],
            }],
            ..Default::default()
        }
    }

    #[test]
    fn repeated_analyses_agree() {
        let c = corpus();
        let a = analyze_corpus(&c).unwrap();
        let b = analyze_corpus(&c).unwrap();
        assert_eq!(a.graph.event_count(), b.graph.event_count());
        assert_eq!(a.graph.edge_count(), b.graph.edge_count());
        assert_eq!(a.files.len(), b.files.len());
        // Event identity must match exactly (deterministic union order).
        for (id, ev) in a.graph.events() {
            assert_eq!(ev.reps, b.graph.event(id).reps);
        }
    }

    #[test]
    fn file_metadata_attributes_projects() {
        let c = corpus();
        let a = analyze_corpus(&c).unwrap();
        assert_eq!(a.files.len(), c.file_count());
        let projects: std::collections::HashSet<usize> =
            a.files.iter().map(|f| f.project).collect();
        assert_eq!(projects.len(), c.projects.len());
    }

    #[test]
    fn single_project_analysis() {
        let c = corpus();
        let a = analyze_project(&c, 0).unwrap();
        assert_eq!(a.files.len(), c.projects[0].files.len());
        assert!(a.graph.event_count() > 0);
        assert!(matches!(
            analyze_project(&c, 999),
            Err(PipelineError::NoSuchProject(999))
        ));
    }

    #[test]
    fn union_graphs_over_owned_and_borrowed_graphs_agree() {
        let c = corpus();
        let opts = AnalyzeOptions::default();
        let inputs = c.files().enumerate().map(|(i, (project, file))| FileInput {
            project,
            id: FileId(i as u32),
            path: &file.path,
            content: &file.content,
        });
        let mut graphs = analyze_inputs(inputs, &opts).unwrap().graphs;
        // Quarantined slots and empty graphs fold too.
        graphs.insert(1, None);
        graphs.push(Some(PropagationGraph::new()));
        graphs.insert(0, None);
        let tele = Telemetry::disabled();
        let borrowed = graphs.iter().map(|g| g.as_ref().map(Cow::Borrowed)).collect();
        let (lent, lent_ranges) = union_graphs(borrowed, &tele);
        let (moved, moved_ranges) =
            union_graphs(graphs.into_iter().map(|g| g.map(Cow::Owned)).collect(), &tele);
        assert_eq!(moved_ranges, lent_ranges);
        assert!(moved == lent, "moved and lent unions differ");
        assert_eq!(graph_fingerprint(&moved), graph_fingerprint(&lent));
        assert!(moved.event_count() > 0 && moved_ranges[0].is_empty());
    }

    #[test]
    fn failfast_aborts_on_malformed_file() {
        let c = mixed_corpus();
        let err = analyze_corpus(&c).unwrap_err();
        assert!(matches!(err, PipelineError::Parse { ref path, .. } if path == "bad.py"));
    }

    #[test]
    fn failfast_stops_at_first_bad_file() {
        // The bad file comes first: its error returns before the good file
        // behind it is analyzed, so nothing reaches the cache.
        let mut c = mixed_corpus();
        c.projects[0].files.reverse();
        let dir = std::env::temp_dir().join(format!("seldon-failfast-stop-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (cache, _) = seldon_cache::ArtifactCache::open(&dir).unwrap();
        let opts = AnalyzeOptions { cache: Some(Arc::new(cache)), ..Default::default() };
        let err = analyze_corpus_with(&c, &opts).unwrap_err();
        assert!(matches!(err, PipelineError::Parse { ref path, .. } if path == "bad.py"));
        assert_eq!(opts.cache.as_deref().unwrap().stats().stores, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failfast_over_a_recovered_cache_stops_at_the_broken_hit() {
        // A `Recover` run stores an artifact for every file, the broken
        // one included; a `FailFast` run over that cache serves the files
        // from it and stops at the broken one with a cacheless run's text.
        let mut c = mixed_corpus();
        let late = SourceFile { path: "late.py".into(), content: "y = 1\n".into() };
        c.projects[0].files.push(late);
        let dir = std::env::temp_dir().join(format!("seldon-failfast-hit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let open = || Some(Arc::new(seldon_cache::ArtifactCache::open(&dir).unwrap().0));
        let recover =
            AnalyzeOptions { policy: FaultPolicy::Recover, cache: open(), ..Default::default() };
        analyze_corpus_with(&c, &recover).unwrap();
        assert_eq!(recover.cache.as_deref().unwrap().stats().stores, 3);
        // The file behind the broken one is new: reaching it would miss.
        c.projects[0].files[2].content = "y = 2\n".into();
        let failfast = AnalyzeOptions { cache: open(), ..Default::default() };
        let err = analyze_corpus_with(&c, &failfast).unwrap_err();
        let s = failfast.cache.as_deref().unwrap().stats();
        assert_eq!((s.hits, s.misses, s.stores), (2, 0, 0));
        let expected = analyze_corpus(&c).unwrap_err();
        assert!(matches!(expected, PipelineError::Parse { ref path, .. } if path == "bad.py"));
        assert_eq!(err.to_string(), expected.to_string());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn store_faults_come_back_per_file_in_corpus_order() {
        // Every store fails (the directory is gone): each file's fault is
        // reported under its own path, in corpus order, once the
        // background writer has drained.
        let c = corpus();
        let dir = std::env::temp_dir().join(format!("seldon-store-faults-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (cache, _) = seldon_cache::ArtifactCache::open(&dir).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let opts = AnalyzeOptions { cache: Some(Arc::new(cache)), ..Default::default() };
        let (_, report) = analyze_corpus_with(&c, &opts).unwrap();
        let faulted: Vec<&str> = report.cache_faults.iter().map(|f| f.path.as_str()).collect();
        let stored: Vec<&str> = report
            .files
            .iter()
            .filter(|f| f.outcome.is_analyzed())
            .map(|f| f.path.as_str())
            .collect();
        assert!(stored.len() > 1);
        assert_eq!(faulted, stored);
        assert!(report.cache_faults.iter().all(|f| f.fault.class == FaultClass::Io));
        assert_eq!(opts.cache.as_deref().unwrap().stats().stores, 0);
    }

    #[test]
    fn recover_retries_malformed_file() {
        let c = mixed_corpus();
        let opts = AnalyzeOptions { policy: FaultPolicy::Recover, ..Default::default() };
        let (analyzed, report) = analyze_corpus_with(&c, &opts).unwrap();
        assert_eq!(report.ok(), 1);
        assert_eq!(report.recovered(), 1);
        assert_eq!(report.quarantined().count(), 0);
        assert_eq!(analyzed.files.len(), 2);
    }

    #[test]
    fn recover_equals_failfast_on_clean_corpus() {
        let c = corpus();
        let strict = analyze_corpus(&c).unwrap();
        let opts = AnalyzeOptions { policy: FaultPolicy::Recover, ..Default::default() };
        let (lenient, report) = analyze_corpus_with(&c, &opts).unwrap();
        assert!(!report.is_degraded());
        assert_eq!(strict.graph.event_count(), lenient.graph.event_count());
        assert_eq!(strict.graph.edge_count(), lenient.graph.edge_count());
        for (id, ev) in strict.graph.events() {
            assert_eq!(ev.reps, lenient.graph.event(id).reps);
        }
    }

    #[test]
    fn budget_quarantines_oversized_file() {
        let mut c = mixed_corpus();
        c.projects[0].files[1] = SourceFile {
            path: "huge.py".into(),
            content: format!("# {}\n", "x".repeat(4096)),
        };
        let opts = AnalyzeOptions {
            policy: FaultPolicy::Recover,
            budget: Some(Budget { max_source_bytes: 1024, ..Budget::default() }),
            ..Default::default()
        };
        let (analyzed, report) = analyze_corpus_with(&c, &opts).unwrap();
        assert_eq!(analyzed.files.len(), 2, "quarantined files keep their FileId slot");
        assert!(analyzed.graph.event_count() > 0);
        assert_eq!(report.ok(), 1);
        assert_eq!(report.over_budget(), 1);
        assert!(report.is_degraded());
        let quarantined: Vec<&str> = report.quarantined().map(|f| f.path.as_str()).collect();
        assert_eq!(quarantined, ["huge.py"]);
        assert!(matches!(
            report.files[1].outcome,
            FileOutcome::OverBudget {
                error: PipelineError::OverBudget { .. }
            }
        ));
    }

    #[test]
    fn panic_marker_is_contained_under_recover() {
        let mut c = mixed_corpus();
        c.projects[0].files[1] = SourceFile {
            path: "panics.py".into(),
            content: format!("x = 1\n{}\n", seldon_corpus::PANIC_MARKER),
        };
        let opts = AnalyzeOptions {
            policy: FaultPolicy::Recover,
            fault_markers: true,
            ..Default::default()
        };
        let (analyzed, report) = analyze_corpus_with(&c, &opts).unwrap();
        assert_eq!(report.panicked(), 1);
        assert_eq!(report.ok(), 1);
        assert!(analyzed.graph.event_count() > 0);
    }

    /// A corpus with one Python and one JS file, exercising both frontends.
    fn mixed_lang_corpus() -> Corpus {
        Corpus {
            projects: vec![Project {
                name: "p0".into(),
                files: vec![
                    SourceFile {
                        path: "a.py".into(),
                        content: "import flask\nx = flask.request.args.get('q')\n".into(),
                    },
                    SourceFile {
                        path: "b.js".into(),
                        content: "const db = require('db');\n\
                                  function handler(req) { return db.query(req); }\n"
                            .into(),
                    },
                ],
            }],
            ..Default::default()
        }
    }

    /// What one [`Frontend::lower`] call came back with, coarsened for the
    /// table below.
    #[derive(Debug, PartialEq)]
    enum Lowering {
        Lowered { errors: usize },
        SourceBytes,
        Depth,
    }

    #[test]
    fn frontend_lower_table() {
        // Per frontend: its strict shorthand, a clean file with a source →
        // sink flow, a file with one broken statement between the source
        // and the sink, and a nesting three statements deep.
        type Build = fn(&str, FileId) -> Result<PropagationGraph, FrontendError>;
        let sources = [
            (
                Frontend::Python,
                seldon_propgraph::build_source as Build,
                "from m import src, sink\nx = src()\nsink(x)\n",
                // The broken line must not open a bracket (implicit joining
                // would swallow the rest of the file into one logical line).
                "from m import src, sink\nx = src()\nbroken = = 3\nsink(x)\n",
                "if a:\n    if b:\n        x = 1\n",
                ("m.src()", "m.sink()"),
            ),
            (
                Frontend::Js,
                seldon_jsfront::build_js_source as Build,
                "const fs = require('fs');\nconst p = fs.src();\nfs.readFile(p);\n",
                "const a = f(;\nconst fs = require('fs');\nconst p = fs.src();\nfs.readFile(p);\n",
                "if (a) { if (b) { x = 1; } }\n",
                ("fs.src()", "fs.readFile()"),
            ),
        ];
        let unlimited = Budget::unlimited();
        let size_trip = Budget { max_source_bytes: 4, ..Budget::unlimited() };
        let depth_trip = Budget { max_depth: 1, ..Budget::unlimited() };
        for (frontend, build, clean, broken, deep, (from, to)) in sources {
            // The strict, unlimited shorthand of the same frontend.
            let reference = build(clean, FileId(0)).expect("clean source builds");
            #[rustfmt::skip]
            let table: [(&Budget, &str, Lowering); 8] = [
                (&unlimited, clean, Lowering::Lowered { errors: 0 }),
                (&unlimited, broken, Lowering::Lowered { errors: 1 }),
                (&unlimited, deep, Lowering::Lowered { errors: 0 }),
                (&size_trip, clean, Lowering::SourceBytes),
                (&size_trip, broken, Lowering::SourceBytes),
                (&depth_trip, deep, Lowering::Depth),
                (&depth_trip, clean, Lowering::Lowered { errors: 0 }),
                (&depth_trip, broken, Lowering::Lowered { errors: 1 }),
            ];
            for (budget, src, expected) in table {
                let row = format!("{frontend:?} {budget:?}\n{src}");
                let result = frontend.lower(src, budget, GraphSink::new(FileId(0)));
                let got = match &result {
                    Ok(l) => Lowering::Lowered { errors: l.errors.len() },
                    Err(BudgetExceeded::SourceBytes { .. }) => Lowering::SourceBytes,
                    Err(BudgetExceeded::Depth { .. }) => Lowering::Depth,
                    Err(e) => panic!("{row}: unexpected {e}"),
                };
                assert_eq!(got, expected, "{row}");
                let Ok(lowered) = result else { continue };
                // The abort path's parse error is the first recovered one.
                let first = frontend.first_parse_error(src);
                assert_eq!(first.as_ref(), lowered.errors.first(), "{row}");
                let g = lowered.output;
                if src == clean {
                    // Any budget that does not trip: the strict shorthand's
                    // graph exactly.
                    assert_eq!(graph_fingerprint(&g), graph_fingerprint(&reference), "{row}");
                }
                if src != deep {
                    let find =
                        |rep| g.events().find(|&(id, _)| g.has_rep(id, rep)).map(|(id, _)| id);
                    let (a, b) = (find(from).expect(from), find(to).expect(to));
                    assert!(g.is_reachable(a, b), "{row}: {from} must reach {to}");
                }
            }
        }
    }

    #[test]
    fn analyze_file_pins_recovery_outcomes() {
        let recover = AnalyzeOptions { policy: FaultPolicy::Recover, ..Default::default() };
        // A stray top-level indent is the parser's one error; the statement
        // behind it is kept.
        let stray = "  x = f()\n";
        let lowered = Frontend::Python.lower(stray, &Budget::unlimited(), Recorder::default());
        assert_eq!(lowered.unwrap().errors.len(), 1);
        let analysis = analyze_file("stray.py", stray, FileId(0), &recover);
        assert_eq!(analysis.outcome, FileOutcome::Recovered { errors: 1 });
        assert!(analysis.graph.unwrap().event_count() > 0);
        // A broken statement behind the stray indent is a second error.
        let broken = "  x = = 1\n";
        let analysis = analyze_file("broken.py", broken, FileId(0), &recover);
        assert_eq!(analysis.outcome, FileOutcome::Recovered { errors: 2 });
        // The policy is the loop's: `analyze_file` recovers under either.
        let strict = analyze_file("stray.py", stray, FileId(0), &AnalyzeOptions::default());
        assert_eq!(strict.outcome, FileOutcome::Recovered { errors: 1 });
        // A `FailFast` loop stops at the file with its first error.
        let input = FileInput { project: 0, id: FileId(0), path: "stray.py", content: stray };
        let error = analyze_inputs([input], &AnalyzeOptions::default()).unwrap_err();
        let expected = "failed to parse stray.py: expected expression but found indent at 1:1";
        assert_eq!(error.to_string(), expected);
        // Its parse error wins over a lowering trip, as a parse before
        // lowering would stop it; the source-size gate comes first.
        let deep = "x = = 1\nif a:\n    if b:\n        y = 1\n";
        let input = FileInput { project: 0, id: FileId(0), path: "deep.py", content: deep };
        let stop = |budget| {
            let opts = AnalyzeOptions { budget: Some(budget), ..Default::default() };
            assert!(analyze_file("deep.py", deep, FileId(0), &opts).outcome.is_quarantined());
            analyze_inputs([input], &opts).unwrap_err().to_string()
        };
        let parse = "failed to parse deep.py: expected expression but found `=` at 1:5";
        assert_eq!(stop(Budget { max_depth: 1, ..Budget::unlimited() }), parse);
        let size = stop(Budget { max_source_bytes: 4, ..Budget::unlimited() });
        assert!(size.contains("source size"), "{size}");
    }

    #[test]
    fn no_budget_analyzes_like_an_unlimited_one() {
        let mut c = corpus();
        c.projects.extend(mixed_corpus().projects);
        c.projects.extend(mixed_lang_corpus().projects);
        for policy in [FaultPolicy::Recover, FaultPolicy::FailFast] {
            let none = AnalyzeOptions { policy, budget: None, ..Default::default() };
            let unlimited = AnalyzeOptions { budget: Some(Budget::unlimited()), ..none.clone() };
            let run = |opts| {
                analyze_corpus_with(&c, opts).map(|(a, r)| (graph_fingerprint(&a.graph), r))
            };
            let (a, b) = (run(&none), run(&unlimited));
            assert_eq!(a, b, "{policy:?}");
            // The malformed file is reported, or stops the run.
            match a {
                Ok((_, report)) => assert!(report.is_degraded(), "{policy:?}"),
                Err(e) => assert!(matches!(e, PipelineError::Parse { .. }), "{policy:?}"),
            }
        }
    }

    #[test]
    fn frontend_dispatches_by_extension() {
        assert_eq!(Frontend::of_path("app/views.py"), Frontend::Python);
        assert_eq!(Frontend::of_path("app/views.js"), Frontend::Js);
        assert_eq!(Frontend::of_path("README"), Frontend::Python);
        assert_ne!(Frontend::Python.salt_tag(), Frontend::Js.salt_tag());
    }

    #[test]
    fn token_fingerprint_hashes_kinds_and_texts() {
        use seldon_pyast::token::TokenKind as Tok;
        // Both lexers derive the kind from the text today; the kind is
        // hashed anyway, so equal texts of different kinds stay apart.
        let fp = |tokens: &[(Tok, &str)]| {
            fingerprint_tokens(tokens.iter().map(|&(kind, text)| (kind as u8, text)))
        };
        assert_ne!(fp(&[(Tok::Indent, "  ")]), fp(&[(Tok::Dedent, "  ")]));
        let end = |kind| fp(&[(kind, ""), (Tok::EndOfFile, "")]);
        assert_ne!(end(Tok::Newline), end(Tok::Dedent));
        // Texts are length-prefixed.
        let names = |a, b| fp(&[(Tok::Name, a), (Tok::Name, b)]);
        assert_ne!(names("ab", "c"), names("a", "bc"));

        let py = Frontend::Python;
        let fp = py.token_fingerprint("import os\nos.system(x)\n");
        assert!(fp.is_some());
        assert_eq!(py.token_fingerprint("# c\nimport  os\n\nos.system( x )  # c\n"), fp);
        assert_ne!(py.token_fingerprint("import os\nos.system(y)\n"), fp);
        assert_eq!(py.token_fingerprint("x = 'unterminated\n"), None);
        let js = Frontend::Js;
        assert_eq!(js.token_fingerprint("f(a);\n// c\n"), js.token_fingerprint("f( a ) ;"));
        assert_eq!(js.token_fingerprint("/* open"), None);
    }

    #[test]
    fn mixed_language_corpus_analyzes_both_frontends() {
        let analyzed = analyze_corpus(&mixed_lang_corpus()).unwrap();
        assert_eq!(analyzed.files.len(), 2);
        // Both files contributed events to the one global graph.
        let with_events: std::collections::HashSet<u32> =
            analyzed.graph.events().map(|(_, ev)| ev.file.0).collect();
        assert_eq!(with_events, [0u32, 1].into_iter().collect());
    }

    #[test]
    fn identical_bytes_never_alias_across_frontends() {
        // Parses under both frontends (JS semicolons are optional), but
        // must still occupy two distinct cache entries.
        let content = "x = db.query(req)\n";
        let c = Corpus {
            projects: vec![Project {
                name: "p0".into(),
                files: vec![
                    SourceFile { path: "same.py".into(), content: content.into() },
                    SourceFile { path: "same.js".into(), content: content.into() },
                ],
            }],
            ..Default::default()
        };
        let dir = std::env::temp_dir()
            .join(format!("seldon-frontend-alias-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (cache, _) = seldon_cache::ArtifactCache::open(&dir).unwrap();
        let opts = AnalyzeOptions { cache: Some(Arc::new(cache)), ..Default::default() };
        let (_, report) = analyze_corpus_with(&c, &opts).unwrap();
        assert_eq!(report.ok(), 2);
        let s = opts.cache.as_deref().unwrap().stats();
        assert_eq!((s.hits, s.misses, s.stores), (0, 2, 2), "no cross-frontend aliasing");
        // Warm run: each file is served from its own frontend's entry.
        let (cache, _) = seldon_cache::ArtifactCache::open(&dir).unwrap();
        let opts = AnalyzeOptions { cache: Some(Arc::new(cache)), ..Default::default() };
        analyze_corpus_with(&c, &opts).unwrap();
        let s = opts.cache.as_deref().unwrap().stats();
        assert_eq!((s.hits, s.misses), (2, 0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parse_histograms_tally_per_frontend_when_timed() {
        let opts = AnalyzeOptions { telemetry: Telemetry::recording(), ..Default::default() };
        let (analyzed, _) = analyze_corpus_with(&mixed_lang_corpus(), &opts).unwrap();
        let mut labels: Vec<&str> =
            analyzed.parse_histograms.iter().map(|(frontend, _)| *frontend).collect();
        labels.sort_unstable();
        assert_eq!(labels, ["js", "python"]);
        for (_, h) in &analyzed.parse_histograms {
            assert_eq!(h.total(), 1, "one file per frontend");
        }
        // Without active telemetry the per-file timings are still taken but
        // never recorded, so no histogram appears.
        let (analyzed, _) =
            analyze_corpus_with(&mixed_lang_corpus(), &AnalyzeOptions::default()).unwrap();
        assert!(analyzed.parse_histograms.is_empty());
    }

    #[test]
    fn full_run_learns_something() {
        let c = corpus();
        let analyzed = analyze_corpus(&c).unwrap();
        let universe = Universe::new();
        let seed = universe.seed_spec();
        let run = run_seldon(&analyzed.graph, &seed, &SeldonOptions::default());
        assert!(run.system.constraint_count() > 0, "no constraints generated");
        assert!(run.candidate_count() > 0);
        assert!(
            run.extraction.spec.role_count() > 0,
            "nothing learned from {} constraints over {} vars",
            run.system.constraint_count(),
            run.system.var_count()
        );
    }

    /// Extraction builds the spec from the scored keys: its entries are
    /// exactly the `(rep, role)` pairs of `Extraction::scores`.
    #[test]
    fn extracted_spec_entries_are_the_scored_keys() {
        let analyzed = analyze_corpus(&corpus()).unwrap();
        let seed = Universe::new().seed_spec();
        let run = run_seldon(&analyzed.graph, &seed, &SeldonOptions::default());
        let mut from_spec: Vec<(String, seldon_specs::Role)> = run
            .extraction
            .spec
            .iter()
            .flat_map(|(api, roles)| roles.iter().map(move |role| (api.to_string(), role)))
            .collect();
        let mut from_scores: Vec<(String, seldon_specs::Role)> = run
            .extraction
            .scores
            .keys()
            .map(|&(rep, role)| (run.system.rep_text(rep).to_string(), role))
            .collect();
        from_spec.sort_unstable();
        from_scores.sort_unstable();
        assert!(!from_spec.is_empty());
        assert_eq!(from_spec, from_scores);
    }

    #[test]
    fn empty_seed_learns_nothing() {
        let c = corpus();
        let analyzed = analyze_corpus(&c).unwrap();
        let run = run_seldon(&analyzed.graph, &TaintSpec::new(), &SeldonOptions::default());
        assert_eq!(
            run.extraction.spec.role_count(),
            0,
            "empty seed must yield the all-zeros solution (paper Q6)"
        );
    }
}
