//! Gates the incremental daemon's determinism guarantee: the spec
//! `seldon serve` serves after each delta is byte-identical to the spec
//! `seldon learn` prints for the same corpus state.
//!
//! Over the standard 607-file bench corpus, at 1 and 4 solver threads,
//! one [`ServeEngine`] configured as `seldon serve` configures it (no
//! warm rung, representation cutoff picked from the corpus size) serves:
//!
//! - the initial build (fresh engine, fresh cache);
//! - an empty delta, which must answer `noop` with the same spec;
//! - a one-file comment edit, which must take the `unchanged` rung
//!   without re-parsing: the file's tokens match the ones the initial
//!   build recorded;
//! - a second comment edit of the same file, token-matched the same way;
//! - a one-file structural edit, which must solve cold while reusing the
//!   other 606 files' constraint fragments, and after which the cache
//!   holds one artifact per distinct key of the current contents, none
//!   for the token-matched file.
//!
//! Each served spec is compared with a batch `run_full` configured as
//! `seldon learn` configures it. Takes no argument but an optional
//! `--determinism`; panics (exit 101) on any divergence. Delta latency is
//! measured by `pipeline_bench`'s `serve-comment` workload, not here.

use seldon_bench::bench_corpus;
use seldon_cache::ArtifactCache;
use seldon_constraints::GenOptions;
use seldon_core::{
    analysis_cache_key, default_rep_cutoff, run_full, AnalyzeOptions, FaultPolicy, SeldonOptions,
};
use seldon_corpus::{Corpus, Project, SourceFile};
use seldon_propgraph::Budget;
use seldon_serve::{Delta, EngineConfig, ServeEngine};
use seldon_solver::SolveOptions;
use seldon_specs::TaintSpec;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

/// The 607-file bench corpus, flattened to sorted `(path, content)`
/// pairs (project-qualified paths, the order `seldon learn` analyzes).
fn bench_files() -> (Vec<(PathBuf, String)>, TaintSpec) {
    let (corpus, seed) = bench_corpus(150);
    let mut files: Vec<(PathBuf, String)> = corpus
        .projects
        .iter()
        .flat_map(|p| {
            p.files
                .iter()
                .map(|f| (PathBuf::from(format!("{}/{}", p.name, f.path)), f.content.clone()))
        })
        .collect();
    files.sort_by(|a, b| a.0.cmp(&b.0));
    (files, seed)
}

fn batch_corpus(files: &[(PathBuf, String)]) -> Corpus {
    Corpus {
        projects: vec![Project {
            name: "cli".into(),
            files: files
                .iter()
                .map(|(p, c)| SourceFile { path: p.display().to_string(), content: c.clone() })
                .collect(),
        }],
        ..Default::default()
    }
}

/// The analysis options `seldon learn` and `seldon serve` share without
/// `--strict`, `--lenient` or `--telemetry`.
fn cli_analyze_opts() -> AnalyzeOptions {
    AnalyzeOptions {
        policy: FaultPolicy::Recover,
        budget: Some(Budget::default()),
        ..Default::default()
    }
}

/// The engine `seldon serve --solver-threads <threads> --cache-dir <dir>`
/// builds: no warm rung, and without `--cutoff` the representation
/// cutoff follows the corpus size (`dynamic_cutoff`).
fn serve_config(seed: &TaintSpec, threads: usize, dir: &Path) -> EngineConfig {
    let mut analyze = cli_analyze_opts();
    analyze.cache = Some(Arc::new(ArtifactCache::open(dir).expect("cache opens").0));
    EngineConfig {
        seed: seed.clone(),
        analyze,
        seldon: SeldonOptions {
            solve: SolveOptions { threads, ..Default::default() },
            warm_start: None,
            ..Default::default()
        },
        dynamic_cutoff: true,
    }
}

/// The spec `seldon learn --solver-threads <threads>` prints for `state`.
fn learn_spec(state: &[(PathBuf, String)], seed: &TaintSpec, threads: usize) -> String {
    let opts = SeldonOptions {
        gen: GenOptions { rep_cutoff: default_rep_cutoff(state.len()), ..Default::default() },
        solve: SolveOptions { threads, ..Default::default() },
        ..Default::default()
    };
    run_full(&batch_corpus(state), seed, "learn", &cli_analyze_opts(), &opts)
        .expect("batch run")
        .run
        .extraction
        .spec
        .to_text()
}

/// A comment-only edit: cache key changes, tokens do not.
const COMMENT_EDIT: &str = "# serve-bench incremental edit\n";

/// A structural edit: adds events, forcing an incremental rebuild.
const STRUCTURAL_EDIT: &str = "
@app.route('/handler_bench_added', methods=['GET', 'POST'])
def handler_bench_added():
    z0 = bottle_request.query.get('bench')
    z1 = flask.make_response(z0)
    return z1
";

/// One engine serves the initial build and four deltas; each served
/// spec must equal `seldon learn`'s over the same corpus state.
fn determinism_gate(files: &[(PathBuf, String)], seed: &TaintSpec, threads: usize) {
    let dir =
        std::env::temp_dir().join(format!("seldon-serve-bench-{threads}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut engine = ServeEngine::new(serve_config(seed, threads, &dir));
    let initial = engine
        .apply_delta(&Delta { add: files.to_vec(), ..Default::default() })
        .expect("initial build");
    assert_eq!(
        initial.spec,
        learn_spec(files, seed, threads),
        "initial build diverged ({threads} threads)"
    );

    let out = engine.apply_delta(&Delta::default()).expect("empty delta");
    assert_eq!(out.solve, "noop", "an empty delta is served from the resident build");
    assert_eq!(out.spec, initial.spec, "an empty delta changed the spec ({threads} threads)");

    // The initial build recorded every file's tokens, so each comment
    // edit, the first included, is proven by one lex and parses nothing.
    let mut edited = files.to_vec();
    for (n, at) in [("first", edited[0].1.len()), ("second", 0)] {
        edited[0].1.insert_str(at, COMMENT_EDIT);
        let out = engine
            .apply_delta(&Delta { change: vec![edited[0].clone()], ..Default::default() })
            .expect("comment delta");
        assert_eq!(out.solve, "unchanged", "{n} comment edit must take the unchanged path");
        assert_eq!(
            (out.reparsed, out.tokens_matched),
            (0, 1),
            "{n} comment edit must be token-matched"
        );
        assert_eq!(
            out.spec,
            learn_spec(&edited, seed, threads),
            "{n} comment edit diverged ({threads} threads)"
        );
    }

    edited[1].1.push_str(STRUCTURAL_EDIT);
    let out = engine
        .apply_delta(&Delta { change: vec![edited[1].clone()], ..Default::default() })
        .expect("structural delta");
    assert_eq!(out.solve, "cold", "structural edit must rebuild, and serve never warm-starts");
    assert_eq!(out.fragments_reused, files.len() - 1, "every untouched file's fragment is reused");
    assert_eq!(
        out.spec,
        learn_spec(&edited, seed, threads),
        "structural edit diverged ({threads} threads)"
    );
    // Artifacts only for current contents: every file's but the
    // token-matched one's, which keeps the graph of its old content.
    let opts = &engine.config().analyze;
    let key = |(path, content): &(PathBuf, String)| {
        format!("{:016x}.entry", analysis_cache_key(&path.display().to_string(), content, opts))
    };
    let expected: BTreeSet<String> = edited[1..].iter().map(key).collect();
    let held: BTreeSet<String> = std::fs::read_dir(&dir)
        .expect("cache dir lists")
        .map(|e| e.expect("dir entry").file_name().to_string_lossy().into_owned())
        .filter(|name| name.ends_with(".entry"))
        .collect();
    assert_eq!(held, expected, "cache holds stale or missing artifacts ({threads} threads)");
    let _ = std::fs::remove_dir_all(&dir);
}

fn main() -> ExitCode {
    if std::env::args().skip(1).any(|a| a != "--determinism") {
        eprintln!("usage: serve_bench [--determinism]");
        return ExitCode::from(2);
    }
    let (files, seed) = bench_files();
    assert!(files.len() >= 500, "bench corpus too small: {} files", files.len());
    for threads in [1, 4] {
        determinism_gate(&files, &seed, threads);
    }
    println!(
        "determinism gate passed: served specs over {} files are byte-identical \
         to cold batch runs at 1 and 4 solver threads",
        files.len()
    );
    ExitCode::SUCCESS
}
