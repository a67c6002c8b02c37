//! The `seldon` command-line tool: taint-check real source files and learn
//! taint specifications from a directory of code, end to end. Both the
//! Python frontend (`.py`) and the JS-like frontend (`.js`) feed the same
//! language-neutral pipeline; a mixed tree analyzes both side by side.
//!
//! ```text
//! seldon graph        <file.py|file.js> [--dot]
//! seldon ir-dump      <file.py|file.js>
//! seldon check        <path...> [--spec <spec.txt>] [--param-sensitive]
//! seldon learn        <path...> [--seed <spec.txt>] [--out <learned.txt>] [--cutoff <n>]
//!                               [--cache-dir <dir>] [--no-cache]
//!                               [--telemetry <out.json>] [--trace <out.trace.json>]
//! seldon serve        <path...> --socket <sock> [--seed <spec.txt>] [--cache-dir <dir>]
//! seldon client       <ping|spec|stats|metrics|delta|shutdown> --socket <sock>
//! seldon report       <manifest.json> [--top <k>]
//! seldon metrics-dump <manifest.json>
//! seldon diff-runs    <baseline.json> <candidate.json> [--tolerance <pct>]
//! ```
//!
//! Run `seldon` with no arguments for every flag of every command.
//!
//! `serve` keeps the learned spec resident behind a Unix socket and
//! answers `client` requests (corpus deltas, the current spec, stats).
//! `report`, `metrics-dump` and `diff-runs` read the run manifests
//! `learn --telemetry` writes.
//!
//! `ir-dump` prints the lowered language-neutral IR event/op stream of one
//! file — the exact trace the graph builder replays — for diffing
//! frontends and debugging lowering changes.
//!
//! `--spec`/`--seed` files use the paper's App. B format (`o:`/`a:`/`i:`/
//! `b:`/`p:` lines); without one, the paper's embedded seed specification
//! is used.
//!
//! All commands accept `--lenient` (default: recover from per-statement
//! parse errors) or `--strict` (analyze each file the same way, but abort
//! at the first one that is not clean), and
//! `--log-level off|info|debug` for stage logging on stderr. `serve`
//! analyzes every delta through `learn`'s per-file loop, so under
//! `--strict` its initial build exits 1 naming the unparseable file, and a
//! later delta with one is rejected while the previous spec stays served;
//! under `--lenient` it prints `learn`'s degradation warnings. `learn`
//! additionally accepts `--telemetry <file>` to write the machine-readable
//! run manifest and `--trace <file>` for a Chrome trace-event file
//! (loadable in `chrome://tracing` or Perfetto).
//!
//! `learn --cache-dir <dir>` attaches the crash-safe artifact cache: warm
//! re-runs serve unchanged files (and, when nothing relevant changed, the
//! whole solve) from validated on-disk entries, with byte-identical
//! output. Damaged entries are quarantined and recomputed — cache faults
//! warn but never change the exit code. `--no-cache` force-disables
//! caching and conflicts with `--cache-dir`.
//!
//! Exit codes: `0` — clean run, nothing found (including an empty input
//! set, which learns the empty specification); `1` — violations found or
//! the analysis degraded (recovered/quarantined files, runtime failures);
//! `2` — usage errors (bad arguments, unreadable spec, no input files for
//! `graph`/`check`).

use seldon_cache::ArtifactCache;
use seldon_constraints::GenOptions;
use seldon_core::{
    analyze_corpus_with, default_rep_cutoff, run_full, AnalysisReport, AnalyzeOptions,
    AnalyzedCorpus, CacheFaultReport, CheckpointOutcome, FaultPolicy, Frontend,
    SeldonOptions,
};
use seldon_corpus::{Corpus, Project, SourceFile};
use seldon_propgraph::{to_dot, Budget, FileId, Recorder};
use seldon_solver::{SolveOptions, StopReason};
use seldon_specs::{paper_seed, TaintSpec};
use seldon_taint::{render_reports, reports_to_json, TaintAnalyzer, TaintOptions};
use seldon_serve::{client_request, run_daemon, Delta, EngineConfig, ServeDaemon, ServeEngine};
use seldon_telemetry::json::{self, Json};
use seldon_telemetry::{
    diff_manifests, metric, parse_tolerance_pct, stage, DiffOptions, Level, MetricDef,
    RunManifest, Telemetry,
};
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

/// How a successfully completed command ends.
enum Outcome {
    /// Nothing found, nothing degraded: exit 0.
    Clean,
    /// Violations reported or the analysis degraded: exit 1.
    Findings,
}

/// How a failed command ends.
enum CliError {
    /// Bad invocation (arguments, missing inputs): exit 2.
    Usage(String),
    /// The run itself failed (strict-mode parse failure, I/O): exit 1.
    Runtime(String),
}

impl CliError {
    fn usage(msg: impl Into<String>) -> Self {
        CliError::Usage(msg.into())
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = match cmd.as_str() {
        "graph" => cmd_graph(rest),
        "ir-dump" => cmd_ir_dump(rest),
        "check" => cmd_check(rest),
        "learn" => cmd_learn(rest),
        "serve" => cmd_serve(rest),
        "client" => cmd_client(rest),
        "report" => cmd_report(rest),
        "metrics-dump" => cmd_metrics_dump(rest),
        "diff-runs" => cmd_diff_runs(rest),
        "-h" | "--help" | "help" => {
            println!("{USAGE}");
            Ok(Outcome::Clean)
        }
        other => Err(CliError::usage(format!("unknown command `{other}`\n{USAGE}"))),
    };
    match result {
        Ok(Outcome::Clean) => ExitCode::SUCCESS,
        Ok(Outcome::Findings) => ExitCode::from(1),
        Err(CliError::Runtime(e)) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
        Err(CliError::Usage(e)) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "usage:
  seldon graph   <file.py|file.js> [--dot] [--strict|--lenient] [--log-level off|info|debug]
  seldon ir-dump <file.py|file.js>
  seldon check   <path...> [--spec <spec.txt>] [--param-sensitive] [--format json] [--strict|--lenient] [--log-level off|info|debug]
  seldon learn   <path...> [--seed <spec.txt>] [--out <learned.txt>] [--strict|--lenient]
                 [--cache-dir <dir>] [--no-cache] [--cutoff <n>] [--solver-threads <n>]
                 [--no-early-stop]
                 [--telemetry <manifest.json>] [--trace <out.trace.json>]
                 [--score-dump] [--log-level off|info|debug]
  seldon serve   <path...> --socket <sock> [--seed <spec.txt>] [--cache-dir <dir>|--no-cache]
                 [--cutoff <n>] [--solver-threads <n>]
                 [--telemetry <manifest.json>] [--strict|--lenient] [--log-level off|info|debug]
  seldon client  <ping|spec|stats|metrics|delta|shutdown> --socket <sock>
                 [--add <p,..>] [--change <p,..>] [--remove <p,..>] [--out <spec.txt>] [--wait <secs>]
  seldon report  <manifest.json> [--top <k>]
  seldon metrics-dump <manifest.json>
  seldon diff-runs <baseline.json> <candidate.json> [--tolerance <pct>]

paths may mix .py (Python frontend) and .js (JS-like frontend) files
exit codes: 0 clean; 1 violations found, degraded analysis, or run regression; 2 usage error";

/// Directory recursion bound; also caps how far a symlink chain can lead.
const MAX_WALK_DEPTH: usize = 64;

/// Recursively collects `.py` and `.js` files under each path. Unreadable
/// entries are skipped with a warning; symlink cycles are broken by a
/// visited set of canonical directory paths. An empty result is not an
/// error here — `graph`/`check` reject it ([`require_files`]) while
/// `learn` treats it as the empty corpus.
fn collect_source_files(paths: &[PathBuf]) -> Result<Vec<PathBuf>, CliError> {
    let mut out = Vec::new();
    let mut visited = HashSet::new();
    for p in paths {
        if !p.exists() {
            return Err(CliError::usage(format!("no such path: {}", p.display())));
        }
        walk(p, &mut out, &mut visited, 0);
    }
    out.sort();
    out.dedup();
    Ok(out)
}

/// Usage error when a command needs at least one input file.
fn require_files(files: Vec<PathBuf>) -> Result<Vec<PathBuf>, CliError> {
    if files.is_empty() {
        return Err(CliError::usage("no .py or .js files found"));
    }
    Ok(files)
}

fn walk(p: &Path, out: &mut Vec<PathBuf>, visited: &mut HashSet<PathBuf>, depth: usize) {
    if depth > MAX_WALK_DEPTH {
        eprintln!(
            "warning: skipping {}: nesting deeper than {MAX_WALK_DEPTH} levels",
            p.display()
        );
        return;
    }
    if p.is_file() {
        if p.extension().is_some_and(|e| e == "py" || e == "js") {
            out.push(p.to_path_buf());
        }
        return;
    }
    if p.is_dir() {
        match p.canonicalize() {
            Ok(canonical) => {
                if !visited.insert(canonical) {
                    // Second arrival at the same real directory: a symlink
                    // cycle or a diamond; either way, walking it again can
                    // only duplicate or loop.
                    return;
                }
            }
            Err(e) => {
                eprintln!("warning: skipping {}: {e}", p.display());
                return;
            }
        }
        let entries = match std::fs::read_dir(p) {
            Ok(entries) => entries,
            Err(e) => {
                eprintln!("warning: skipping {}: {e}", p.display());
                return;
            }
        };
        for entry in entries {
            match entry {
                Ok(entry) => walk(&entry.path(), out, visited, depth + 1),
                Err(e) => eprintln!("warning: skipping entry in {}: {e}", p.display()),
            }
        }
    }
}

fn load_spec(path: Option<&str>) -> Result<TaintSpec, CliError> {
    match path {
        Some(p) => {
            let text = std::fs::read_to_string(p)
                .map_err(|e| CliError::usage(format!("cannot read {p}: {e}")))?;
            TaintSpec::parse(&text).map_err(|e| CliError::usage(e.to_string()))
        }
        None => Ok(paper_seed()),
    }
}

/// Positional paths, `--opt value` pairs, and bare flags from one command line.
type ParsedArgs<'a> = (Vec<PathBuf>, HashMap<&'a str, &'a str>, Vec<&'a str>);

/// Parses paths + named options from `rest`.
fn split_args<'a>(
    rest: &'a [String],
    flags: &[&str],
    options: &[&str],
) -> Result<ParsedArgs<'a>, CliError> {
    let mut paths = Vec::new();
    let mut opts = HashMap::new();
    let mut set_flags = Vec::new();
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        if flags.contains(&a.as_str()) {
            set_flags.push(a.as_str());
        } else if options.contains(&a.as_str()) {
            let v = it.next().ok_or_else(|| CliError::usage(format!("{a} needs a value")))?;
            opts.insert(a.as_str(), v.as_str());
        } else if a.starts_with('-') {
            return Err(CliError::usage(format!("unknown option `{a}`")));
        } else {
            paths.push(PathBuf::from(a));
        }
    }
    Ok((paths, opts, set_flags))
}

fn policy_from_flags(flags: &[&str]) -> Result<FaultPolicy, CliError> {
    match (flags.contains(&"--strict"), flags.contains(&"--lenient")) {
        (true, true) => Err(CliError::usage("--strict and --lenient are mutually exclusive")),
        (true, false) => Ok(FaultPolicy::FailFast),
        _ => Ok(FaultPolicy::Recover),
    }
}

/// The stderr log level from `--log-level` (default off).
fn level_from_opts(opts: &HashMap<&str, &str>) -> Result<Level, CliError> {
    match opts.get("--log-level") {
        Some(v) => v.parse::<Level>().map_err(CliError::usage),
        None => Ok(Level::Off),
    }
}

/// The value of the numeric option `name`, if given; anything but a
/// non-negative integer is a usage error.
fn count_from_opts(opts: &HashMap<&str, &str>, name: &str) -> Result<Option<usize>, CliError> {
    let parse = |v: &&str| {
        v.parse().map_err(|_| CliError::usage(format!("{name} expects a number, got `{v}`")))
    };
    opts.get(name).map(parse).transpose()
}

/// `--solver-threads`: 1 when absent, and 0 means "all cores". The learned
/// spec is byte-identical for any thread count, so this is purely a cost
/// knob.
fn solver_threads_from_opts(opts: &HashMap<&str, &str>) -> Result<usize, CliError> {
    Ok(match count_from_opts(opts, "--solver-threads")? {
        Some(0) => std::thread::available_parallelism().map_or(1, |n| n.get()),
        Some(t) => t,
        None => 1,
    })
}

/// Reads `files` from disk. Unreadable files are skipped with a warning;
/// returns the contents read and the skip count.
fn read_sources(files: &[PathBuf]) -> (Vec<(PathBuf, String)>, usize) {
    let mut io_skipped = 0usize;
    let sources = files
        .iter()
        .filter_map(|f| match std::fs::read_to_string(f) {
            Ok(content) => Some((f.clone(), content)),
            Err(e) => {
                eprintln!("warning: skipping {}: {e}", f.display());
                io_skipped += 1;
                None
            }
        })
        .collect();
    (sources, io_skipped)
}

/// [`read_sources`] into a single-project corpus, in `files` order.
fn read_corpus(files: &[PathBuf]) -> Result<(Corpus, usize), CliError> {
    let (sources, io_skipped) = read_sources(files);
    if sources.is_empty() {
        return Err(CliError::usage("no readable source files"));
    }
    let files = sources
        .into_iter()
        .map(|(path, content)| SourceFile { path: path.display().to_string(), content })
        .collect();
    let corpus =
        Corpus { projects: vec![Project { name: "cli".into(), files }], ..Default::default() };
    Ok((corpus, io_skipped))
}

/// Opens the `--cache-dir` cache. A failed open degrades loudly to an
/// uncached (but correct) run; faults found while validating the
/// directory come back filed under `<index>`, for the report.
fn open_cache(dir: Option<&str>) -> (Option<Arc<ArtifactCache>>, Vec<CacheFaultReport>) {
    let Some(dir) = dir else {
        return (None, Vec::new());
    };
    match ArtifactCache::open(Path::new(dir)) {
        Ok((cache, faults)) => {
            let path = || "<index>".to_string();
            let faults = faults.into_iter().map(|fault| CacheFaultReport { path: path(), fault });
            (Some(Arc::new(cache)), faults.collect())
        }
        Err(e) => {
            eprintln!("warning: cannot open cache at {dir}: {e}; running uncached");
            (None, Vec::new())
        }
    }
}

/// The [`AnalyzeOptions`] every command uses: `policy` plus default
/// budgets, with stage telemetry wired through.
fn cli_analyze_opts(policy: FaultPolicy, tele: &Telemetry) -> AnalyzeOptions {
    AnalyzeOptions {
        policy,
        budget: Some(Budget::default()),
        telemetry: tele.clone(),
        ..Default::default()
    }
}

/// Reads `files`, wraps them as a single-project corpus, runs the
/// fault-tolerant pipeline over it under `policy` with default budgets,
/// and prints its degradation. Returns the analysis and whether it
/// degraded.
fn analyze_files(
    files: &[PathBuf],
    policy: FaultPolicy,
    tele: &Telemetry,
) -> Result<(AnalyzedCorpus, bool), CliError> {
    let (corpus, io_skipped) = read_corpus(files)?;
    let opts = cli_analyze_opts(policy, tele);
    let (analyzed, report) = analyze_corpus_with(&corpus, &opts)
        .map_err(|e| CliError::Runtime(e.to_string()))?;
    Ok((analyzed, print_degradation(&report, io_skipped)))
}

/// Prints a report's per-file and cache-fault warnings and, when the run
/// degraded, the summary line to stderr; returns whether it degraded.
/// Cache faults were contained (the artifact was recomputed), so they warn
/// without degrading the run.
fn print_degradation(report: &AnalysisReport, io_skipped: usize) -> bool {
    for warning in report.warnings() {
        eprintln!("warning: {warning}");
    }
    let degraded = io_skipped > 0 || report.is_degraded();
    if degraded {
        eprintln!("degraded analysis: {}", report.summary());
    }
    degraded
}

fn cmd_graph(rest: &[String]) -> Result<Outcome, CliError> {
    let (paths, opts, flags) =
        split_args(rest, &["--dot", "--strict", "--lenient"], &["--log-level"])?;
    let policy = policy_from_flags(&flags)?;
    let tele = Telemetry::disabled().with_log_level(level_from_opts(&opts)?);
    let files = require_files(collect_source_files(&paths)?)?;
    let (analyzed, degraded) = analyze_files(&files, policy, &tele)?;
    let graph = &analyzed.graph;
    if flags.contains(&"--dot") {
        print!("{}", to_dot(graph, &HashMap::new()));
    } else {
        println!("{} events, {} edges", graph.event_count(), graph.edge_count());
        for (id, event) in graph.events() {
            println!("  {id} [{}] {} (line {})", event.kind, graph.rep(id), event.span.line);
        }
        for (from, to) in graph.edges() {
            println!("  {} -> {}", graph.rep(from), graph.rep(to));
        }
    }
    Ok(if degraded { Outcome::Findings } else { Outcome::Clean })
}

/// Prints the language-neutral IR trace one file lowers to — the exact
/// event/op stream the graph sink receives. Lowers through
/// [`Frontend::lower`] like `learn` does, into a recording sink, under the
/// default budget, and refuses a file with a parse error: a lowering dump
/// of a file that does not parse would be misleading.
fn cmd_ir_dump(rest: &[String]) -> Result<Outcome, CliError> {
    let (paths, _, _) = split_args(rest, &[], &[])?;
    let [path] = paths.as_slice() else {
        return Err(CliError::usage("ir-dump expects exactly one file"));
    };
    let content = std::fs::read_to_string(path)
        .map_err(|e| CliError::usage(format!("cannot read {}: {e}", path.display())))?;
    let refuse =
        |e: &dyn std::fmt::Display| CliError::Runtime(format!("{}: {e}", path.display()));
    let lowered = Frontend::of_path(&path.display().to_string())
        .lower(&content, &Budget::default(), Recorder::default())
        .map_err(|limit| refuse(&limit))?;
    if let Some(e) = lowered.errors.first() {
        return Err(refuse(e));
    }
    print!("{}", lowered.output.dump());
    Ok(Outcome::Clean)
}

fn cmd_check(rest: &[String]) -> Result<Outcome, CliError> {
    let (paths, opts, flags) = split_args(
        rest,
        &["--param-sensitive", "--strict", "--lenient"],
        &["--spec", "--format", "--log-level"],
    )?;
    let policy = policy_from_flags(&flags)?;
    let tele = Telemetry::disabled().with_log_level(level_from_opts(&opts)?);
    let spec = load_spec(opts.get("--spec").copied())?;
    let files = require_files(collect_source_files(&paths)?)?;
    let (analyzed, degraded) = analyze_files(&files, policy, &tele)?;
    let graph = &analyzed.graph;
    let analyzer = TaintAnalyzer::with_options(
        graph,
        &spec,
        TaintOptions { param_sensitive: flags.contains(&"--param-sensitive") },
    );
    let violations = analyzer.find_violations();
    let outcome = if violations.is_empty() && !degraded {
        Outcome::Clean
    } else {
        Outcome::Findings
    };
    if opts.get("--format") == Some(&"json") {
        println!("{}", reports_to_json(&violations, graph));
        return Ok(outcome);
    }
    if violations.is_empty() {
        println!("no violations found in {} file(s)", analyzed.files.len());
        return Ok(outcome);
    }
    // Group reports per file for readability.
    for (i, file) in analyzed.files.iter().enumerate() {
        let of_file: Vec<_> = violations
            .iter()
            .filter(|v| v.file == FileId(i as u32))
            .cloned()
            .collect();
        if of_file.is_empty() {
            continue;
        }
        println!("== {} ==", file.path);
        print!("{}", render_reports(&of_file, graph));
    }
    println!("{} violation(s) total", violations.len());
    Ok(outcome)
}

fn cmd_learn(rest: &[String]) -> Result<Outcome, CliError> {
    let (paths, opts, flags) = split_args(
        rest,
        &[
            "--strict",
            "--lenient",
            "--no-cache",
            "--score-dump",
            "--no-early-stop",
        ],
        &[
            "--seed",
            "--out",
            "--cutoff",
            "--cache-dir",
            "--solver-threads",
            "--telemetry",
            "--trace",
            "--log-level",
        ],
    )?;
    let policy = policy_from_flags(&flags)?;
    let explicit_cutoff = count_from_opts(&opts, "--cutoff")?;
    let solver_threads = solver_threads_from_opts(&opts)?;
    let cache_dir = opts.get("--cache-dir").copied();
    if cache_dir.is_some() && flags.contains(&"--no-cache") {
        return Err(CliError::usage("--cache-dir and --no-cache are mutually exclusive"));
    }
    let manifest_path = opts.get("--telemetry").copied();
    let trace_path = opts.get("--trace").copied();
    let score_dump = flags.contains(&"--score-dump");
    if score_dump && manifest_path.is_none() {
        return Err(CliError::usage("--score-dump needs --telemetry <manifest.json>"));
    }
    // Either output file needs the recorder; `--log-level` alone only logs.
    let tele = if manifest_path.is_some() || trace_path.is_some() {
        Telemetry::recording()
    } else {
        Telemetry::disabled()
    }
    .with_log_level(level_from_opts(&opts)?);
    let seed = load_spec(opts.get("--seed").copied())?;
    let files = collect_source_files(&paths)?;
    if files.is_empty() {
        // An empty corpus is a legitimate (if vacuous) input: learn the
        // empty specification and exit clean.
        eprintln!("warning: no .py or .js files found; learned the empty specification");
        if let Some(path) = opts.get("--out") {
            std::fs::write(path, "")
                .map_err(|e| CliError::Runtime(format!("cannot write {path}: {e}")))?;
            eprintln!("wrote 0 learned entries to {path}");
        }
        return Ok(Outcome::Clean);
    }
    let (corpus, io_skipped) = read_corpus(&files)?;
    let (cache, open_faults) = open_cache(cache_dir);
    let cutoff = explicit_cutoff.unwrap_or_else(|| default_rep_cutoff(corpus.file_count()));
    let mut options = SeldonOptions {
        gen: GenOptions { rep_cutoff: cutoff, ..Default::default() },
        solve: SolveOptions { threads: solver_threads, ..Default::default() },
        score_dump,
        ..Default::default()
    };
    // Early stop is on by default; `--no-early-stop` burns the full
    // `max_iters` budget for an exactly reproducible epoch count.
    if flags.contains(&"--no-early-stop") {
        options.solve.early_stop = None;
    }
    let mut analyze_opts = cli_analyze_opts(policy, &tele);
    analyze_opts.cache = cache.clone();
    let full = run_full(&corpus, &seed, "learn", &analyze_opts, &options)
        .map_err(|e| CliError::Runtime(e.to_string()))?;
    let mut report = full.report;
    report.cache_faults.splice(0..0, open_faults);
    let degraded = print_degradation(&report, io_skipped);
    let graph = &full.analyzed.graph;
    eprintln!(
        "analyzed {} files: {} events, {} edges",
        full.analyzed.files.len(),
        graph.event_count(),
        graph.edge_count()
    );
    let run = &full.run;
    // Checkpoint-reuse and cache summaries go through the stage logger so
    // `--log-level off` (the default) silences them; the solved line stays
    // unconditional — it is the command's primary progress output.
    match full.checkpoint.outcome {
        CheckpointOutcome::HitFull => {
            let s = full.checkpoint.summary.unwrap_or_default();
            tele.info(|| {
                format!(
                    "checkpoint full hit: replayed {} constraints over {} variables ({} iterations, solve skipped)",
                    s.constraints, s.vars, run.solution.iterations
                )
            });
        }
        CheckpointOutcome::HitWarm => tele.info(|| {
            format!(
                "{} constraints over {} variables; warm-started from checkpoint ({} iterations, stop: {})",
                run.system.constraint_count(),
                run.system.var_count(),
                run.solution.iterations,
                run.solution.stop
            )
        }),
        CheckpointOutcome::Disabled | CheckpointOutcome::MissCold => eprintln!(
            "{} constraints over {} variables solved in {:?} ({} iterations, stop: {})",
            run.system.constraint_count(),
            run.system.var_count(),
            run.solve_time,
            run.solution.iterations,
            run.solution.stop
        ),
    }
    if let Some(cache) = &cache {
        let s = cache.stats();
        tele.info(|| {
            format!(
                "cache: {} hit(s), {} miss(es), {} store(s), {} fault(s) contained (checkpoint: {})",
                s.hits,
                s.misses,
                s.stores,
                report.cache_faults.len(),
                full.checkpoint.outcome.label()
            )
        });
    }
    if run.solution.diverged {
        eprintln!("warning: solver diverged and restarted with a reduced learning rate");
    }
    tele.info(|| {
        format!(
            "solver: {} restart(s), final learning rate {:.6}",
            run.solution.restarts, run.solution.final_lr
        )
    });
    if let Some(m) = &full.manifest {
        if let Some(path) = manifest_path {
            std::fs::write(path, m.to_json())
                .map_err(|e| CliError::Runtime(format!("cannot write {path}: {e}")))?;
            eprintln!("wrote run manifest to {path}");
        }
        if let Some(path) = trace_path {
            std::fs::write(path, m.chrome_trace())
                .map_err(|e| CliError::Runtime(format!("cannot write {path}: {e}")))?;
            eprintln!("wrote Chrome trace to {path}");
        }
    }
    let text = run.extraction.spec.to_text();
    match opts.get("--out") {
        Some(path) => {
            std::fs::write(path, &text)
                .map_err(|e| CliError::Runtime(format!("cannot write {path}: {e}")))?;
            eprintln!(
                "wrote {} learned entries to {path}",
                run.extraction.spec.role_count()
            );
        }
        None => print!("{text}"),
    }
    Ok(if degraded || run.solution.diverged {
        Outcome::Findings
    } else {
        Outcome::Clean
    })
}

/// `seldon serve <path...> --socket <sock>` — analyzes the corpus once,
/// then serves corpus deltas over a Unix socket (see `seldon client`).
/// The served spec is always byte-identical to what `seldon learn` would
/// print over the same corpus state; only redundant work is skipped.
fn cmd_serve(rest: &[String]) -> Result<Outcome, CliError> {
    let (paths, opts, flags) = split_args(
        rest,
        &["--strict", "--lenient", "--no-cache"],
        &[
            "--socket",
            "--seed",
            "--cutoff",
            "--cache-dir",
            "--solver-threads",
            "--telemetry",
            "--log-level",
        ],
    )?;
    let Some(socket) = opts.get("--socket").copied() else {
        return Err(CliError::usage("serve needs --socket <path>"));
    };
    let policy = policy_from_flags(&flags)?;
    let cache_dir = opts.get("--cache-dir").copied();
    if cache_dir.is_some() && flags.contains(&"--no-cache") {
        return Err(CliError::usage("--cache-dir and --no-cache are mutually exclusive"));
    }
    let manifest_path = opts.get("--telemetry").copied();
    let tele = if manifest_path.is_some() {
        Telemetry::recording()
    } else {
        Telemetry::disabled()
    }
    .with_log_level(level_from_opts(&opts)?);
    let seed = load_spec(opts.get("--seed").copied())?;
    let files = collect_source_files(&paths)?;
    let (cache, open_faults) = open_cache(cache_dir);
    let explicit_cutoff = count_from_opts(&opts, "--cutoff")?;
    let solver_threads = solver_threads_from_opts(&opts)?;
    let options = SeldonOptions {
        gen: GenOptions { rep_cutoff: explicit_cutoff.unwrap_or(5), ..Default::default() },
        solve: SolveOptions { threads: solver_threads, ..Default::default() },
        // No warm rung: every served spec is the one `seldon learn` prints.
        warm_start: None,
        ..Default::default()
    };
    let mut analyze_opts = cli_analyze_opts(policy, &tele);
    analyze_opts.cache = cache;
    let cfg = EngineConfig {
        seed,
        analyze: analyze_opts,
        seldon: options,
        dynamic_cutoff: explicit_cutoff.is_none(),
    };
    let mut engine = ServeEngine::new(cfg);
    // Initial corpus load: one big `add` delta, reported like `learn`.
    let (add, io_skipped) = read_sources(&files);
    let initial = engine
        .apply_delta(&Delta { add, ..Default::default() })
        .map_err(|e| CliError::Runtime(e.to_string()))?;
    let mut report = initial.report;
    report.cache_faults.splice(0..0, open_faults);
    print_degradation(&report, io_skipped);
    eprintln!(
        "seldon serve: initial build over {} file(s): {} events, {} edges, {} learned entries ({})",
        initial.files, initial.events, initial.edges, initial.learned_entries, initial.solve
    );
    let mut daemon = ServeDaemon::new(engine);
    daemon.telemetry_path = manifest_path.map(PathBuf::from);
    run_daemon(&mut daemon, Path::new(socket))
        .map_err(|e| CliError::Runtime(format!("serve: {e}")))?;
    Ok(Outcome::Clean)
}

/// `seldon client <op> --socket <sock>` — sends one request to a running
/// daemon and prints its one-line JSON response. Exit 0 when the daemon
/// answered `ok: true`, 1 otherwise.
fn cmd_client(rest: &[String]) -> Result<Outcome, CliError> {
    let (paths, opts, _) = split_args(
        rest,
        &[],
        &["--socket", "--add", "--change", "--remove", "--out", "--wait"],
    )?;
    let [op] = paths.as_slice() else {
        return Err(CliError::usage(
            "client expects exactly one op: ping|spec|stats|metrics|delta|shutdown",
        ));
    };
    let op = op.display().to_string();
    let Some(socket) = opts.get("--socket").copied() else {
        return Err(CliError::usage("client needs --socket <path>"));
    };
    // `Duration::from_secs_f64` panics on a negative or non-finite value.
    let wait = match opts.get("--wait") {
        Some(v) => match v.parse::<f64>() {
            Ok(secs) if secs.is_finite() && secs >= 0.0 => secs,
            _ => {
                return Err(CliError::usage(format!(
                    "--wait expects a finite number of seconds >= 0, got `{v}`"
                )))
            }
        },
        None => 5.0,
    };
    let mut obj = vec![("op".to_string(), Json::str(&op))];
    if op == "delta" {
        for (flag, key) in [("--add", "add"), ("--change", "change"), ("--remove", "remove")] {
            let items: Vec<Json> = opts
                .get(flag)
                .map(|v| v.split(',').filter(|s| !s.is_empty()).map(Json::str).collect())
                .unwrap_or_default();
            obj.push((key.to_string(), Json::Arr(items)));
        }
    } else if ["--add", "--change", "--remove"].iter().any(|f| opts.contains_key(f)) {
        return Err(CliError::usage("--add/--change/--remove only apply to the delta op"));
    }
    let line = Json::Obj(obj).compact();
    let response = client_request(Path::new(socket), &line, Duration::from_secs_f64(wait))
        .map_err(|e| CliError::Runtime(format!("client: {e}")))?;
    println!("{response}");
    let parsed = json::parse(&response)
        .map_err(|e| CliError::Runtime(format!("unparseable daemon response: {e}")))?;
    if let Some(path) = opts.get("--out") {
        if let Some(spec) = parsed.get("spec").and_then(Json::as_str) {
            std::fs::write(path, spec)
                .map_err(|e| CliError::Runtime(format!("cannot write {path}: {e}")))?;
            eprintln!("wrote served spec to {path}");
        }
    }
    let ok = parsed.get("ok").and_then(Json::as_bool) == Some(true);
    Ok(if ok { Outcome::Clean } else { Outcome::Findings })
}

/// Reads and validates a run manifest written by `learn --telemetry`.
fn load_manifest(path: &Path) -> Result<RunManifest, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::usage(format!("cannot read {}: {e}", path.display())))?;
    RunManifest::from_json(&text)
        .map_err(|e| CliError::usage(format!("{}: {e}", path.display())))
}

/// `1234567` → `"1.2 MiB"`; keeps small numbers exact.
fn fmt_bytes(b: u64) -> String {
    const UNITS: [(&str, u64); 3] =
        [("GiB", 1 << 30), ("MiB", 1 << 20), ("KiB", 1 << 10)];
    for (unit, scale) in UNITS {
        if b >= scale {
            return format!("{:.1} {unit}", b as f64 / scale as f64);
        }
    }
    format!("{b} B")
}

/// Microseconds → a human duration (`µs`, `ms`, or `s`).
fn fmt_us(us: u64) -> String {
    match us {
        0..=999 => format!("{us} µs"),
        1_000..=999_999 => format!("{:.1} ms", us as f64 / 1_000.0),
        _ => format!("{:.2} s", us as f64 / 1_000_000.0),
    }
}

/// `seldon report <manifest.json> [--top <k>]` — renders one run's
/// manifest as the paper's §7-style summary: corpus shape, per-stage
/// time/memory breakdown, solver and extraction outcomes, the Fig. 11
/// score-vs-backoff table, and the top-K learned representations.
fn cmd_report(rest: &[String]) -> Result<Outcome, CliError> {
    let (paths, opts, _) = split_args(rest, &[], &["--top"])?;
    let [path] = paths.as_slice() else {
        return Err(CliError::usage("report expects exactly one manifest file"));
    };
    let top = count_from_opts(&opts, "--top")?.unwrap_or(10);
    let m = load_manifest(path)?;
    // Every figure below is a registry metric; an absent one reads as 0.
    let v = |def: &MetricDef| m.metrics.value(def.name).unwrap_or(0.0);
    let n = |def: &MetricDef| v(def) as u64;

    println!(
        "seldon run report — command `{}` mode `{}` (schema v{})",
        m.command, m.mode, m.schema_version
    );
    println!();
    let [files, projects, events, edges] = metric::CORPUS.map(|d| n(&d));
    println!(
        "corpus       {files} file(s) / {projects} project(s) — {events} events, {edges} edges, {} symbols",
        n(&metric::INTERN_SYMBOLS)
    );
    let [ok, recovered, over_budget, panicked] = metric::OUTCOMES.map(|d| n(&d));
    println!(
        "outcomes     ok {ok}, recovered {recovered}, over-budget {over_budget}, panicked {panicked}"
    );
    println!();
    println!("stage breakdown (top-level spans)");
    println!("  {:<16} {:>12} {:>12}", "stage", "time", "mem peak");
    for s in m.stages.iter().filter(|s| s.depth == 0) {
        println!(
            "  {:<16} {:>12} {:>12}",
            s.name,
            fmt_us(s.dur_us),
            fmt_bytes(s.mem_peak_bytes)
        );
    }
    println!();
    let [total, vars, pinned] = metric::CONSTRAINTS.map(|d| n(&d));
    let [a, b, c] = metric::TEMPLATES.map(|d| n(&d));
    println!("constraints  {total} total (A {a} / B {b} / C {c}), {vars} vars, {pinned} pinned");
    let stop = m
        .metrics
        .value(metric::SOLVER_STOP_REASON.name)
        .and_then(|code| StopReason::from_code(code as u8))
        .map_or(String::new(), |reason| {
            format!(", stop {reason} (saved {} epochs)", n(&metric::SOLVER_EPOCHS_SAVED))
        });
    println!(
        "solver       {} iteration(s), {} restart(s), objective {:.6}, violation {:.6} ({} thread(s)){stop}{}",
        n(&metric::SOLVER_ITERATIONS),
        n(&metric::SOLVER_RESTARTS),
        v(&metric::SOLVER_OBJECTIVE),
        v(&metric::SOLVER_VIOLATION),
        n(&metric::SOLVER_THREADS),
        if v(&metric::SOLVER_DIVERGED) != 0.0 { " [diverged]" } else { "" }
    );
    let [sources, sanitizers, sinks] = metric::LEARNED.map(|d| n(&d));
    let [t_src, t_san, t_snk] = metric::THRESHOLDS.map(|d| v(&d));
    // What extraction scanned: a counter of the `extract` span.
    let scanned = m
        .stages
        .iter()
        .find(|s| s.name == stage::EXTRACT)
        .and_then(|s| s.counters.iter().find(|(k, _)| k == "candidate_events"))
        .map_or(0, |&(_, count)| count as u64);
    println!(
        "extraction   learned {sources} src / {sanitizers} san / {sinks} snk from {scanned} candidate event(s) (thresholds {t_src}/{t_san}/{t_snk}, decay {})",
        v(&metric::DECAY)
    );
    println!();
    println!("score vs backoff (Fig. 11)");
    println!("  {:<6} {:>10} {:>15} {:>11}", "level", "selections", "learned entries", "mean score");
    // Bucket i of the histogram counts the selections at level i.
    let hits: &[u64] = m.metrics.histogram(metric::BACKOFF_HITS.name).map_or(&[], |h| &h.counts);
    let levels = hits
        .iter()
        .rposition(|&c| c > 0)
        .map_or(0, |last| last + 1)
        .max(m.score_dump.iter().map(|e| e.backoff_level as usize + 1).max().unwrap_or(0));
    for level in 0..levels {
        let selections = hits.get(level).copied().unwrap_or(0);
        let at_level: Vec<f64> = m
            .score_dump
            .iter()
            .filter(|e| e.backoff_level as usize == level)
            .map(|e| e.score)
            .collect();
        let mean = if at_level.is_empty() {
            "-".to_string()
        } else {
            format!("{:.4}", at_level.iter().sum::<f64>() / at_level.len() as f64)
        };
        println!("  {:<6} {:>10} {:>15} {:>11}", level, selections, at_level.len(), mean);
    }
    if m.score_dump.is_empty() {
        println!("  (per-representation scores absent; re-run `learn --telemetry --score-dump`)");
    } else {
        println!();
        println!("top {} learned representations by score", top.min(m.score_dump.len()));
        println!("  {:>8} {:>5}  {:<4} representation", "score", "level", "role");
        let mut ranked: Vec<_> = m.score_dump.iter().collect();
        ranked.sort_by(|a, b| {
            b.score.partial_cmp(&a.score).unwrap_or(std::cmp::Ordering::Equal)
        });
        for e in ranked.iter().take(top) {
            println!("  {:>8.4} {:>5}  {:<4} {}", e.score, e.backoff_level, e.role, e.rep);
        }
    }
    println!();
    if m.metrics.get(metric::CACHE[0].name).is_some() {
        let [hits, misses, stores, _, _, _, faults, ..] = metric::CACHE.map(|d| n(&d));
        println!(
            "cache        {hits} hit(s), {misses} miss(es), {stores} store(s), {faults} fault(s); checkpoint {}",
            m.checkpoint
        );
    }
    if m.metrics.get(metric::MEMORY[0].name).is_some() {
        let [current, peak, rss] = metric::MEMORY.map(|d| fmt_bytes(n(&d)));
        println!("memory       current {current}, peak {peak}, peak RSS {rss}");
    }
    // Served manifests carry no taint result: serve never runs that stage.
    if m.metrics.get(metric::TAINT_VIOLATIONS.name).is_some() {
        println!("taint        {} violation(s)", n(&metric::TAINT_VIOLATIONS));
    }
    Ok(Outcome::Clean)
}

/// `seldon metrics-dump <manifest.json>` — Prometheus-style text
/// exposition of everything the manifest measured.
fn cmd_metrics_dump(rest: &[String]) -> Result<Outcome, CliError> {
    let (paths, _, _) = split_args(rest, &[], &[])?;
    let [path] = paths.as_slice() else {
        return Err(CliError::usage("metrics-dump expects exactly one manifest file"));
    };
    print!("{}", load_manifest(path)?.to_prometheus());
    Ok(Outcome::Clean)
}

/// `seldon diff-runs <baseline.json> <candidate.json>` — compares two run
/// manifests. Identity fields (counts, outcomes, learned entries) must
/// match exactly; cost fields (stage timings) gate at the tolerance;
/// machine-state fields (memory, cache temperature) only annotate.
/// Exits 0 when nothing regressed, 1 otherwise.
fn cmd_diff_runs(rest: &[String]) -> Result<Outcome, CliError> {
    let (paths, opts, _) = split_args(rest, &[], &["--tolerance"])?;
    let [a, b] = paths.as_slice() else {
        return Err(CliError::usage("diff-runs expects exactly two manifest files"));
    };
    let mut dopts = DiffOptions::default();
    if let Some(v) = opts.get("--tolerance") {
        dopts.tolerance_pct = parse_tolerance_pct(v).map_err(CliError::usage)?;
    }
    let report = diff_manifests(&load_manifest(a)?, &load_manifest(b)?, &dopts);
    print!("{}", report.render());
    Ok(if report.regressed() { Outcome::Findings } else { Outcome::Clean })
}
