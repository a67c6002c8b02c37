//! Fixtures of the serve test binary (`tests/serve.rs`): a generated
//! corpus in the engine's sorted file order, the options both modes run
//! with, and an engine built from one add-all delta.

#![allow(dead_code)]

use seldon_cache::ArtifactCache;
use seldon_constraints::GenOptions;
use seldon_core::{AnalyzeOptions, FaultPolicy, SeldonOptions};
use seldon_corpus::{generate_corpus, Corpus, CorpusOptions, Project, SourceFile, Universe};
use seldon_serve::{Delta, EngineConfig, ServeEngine};
use seldon_solver::SolveOptions;
use seldon_specs::TaintSpec;
use std::path::{Path, PathBuf};
use std::sync::Arc;

pub fn temp_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("seldon-serve-test-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// A generated corpus flattened to `(path, content)` pairs in the sorted
/// order both the `learn` CLI and the engine's file table use.
pub fn fixture(projects: usize, rng_seed: u64) -> (Vec<(PathBuf, String)>, TaintSpec) {
    let universe = Universe::new();
    let corpus = generate_corpus(
        &universe,
        &CorpusOptions { projects, rng_seed, ..Default::default() },
    );
    let mut files: Vec<(PathBuf, String)> = corpus
        .projects
        .iter()
        .flat_map(|p| {
            // Paths repeat across generated projects; qualify them the way
            // a checkout would, with the project directory.
            p.files
                .iter()
                .map(|f| (PathBuf::from(format!("{}/{}", p.name, f.path)), f.content.clone()))
        })
        .collect();
    files.sort_by(|a, b| a.0.cmp(&b.0));
    (files, universe.seed_spec())
}

/// The same file set as a single-project batch corpus, preserving the
/// sorted order so [`seldon_propgraph::FileId`]s agree with the engine.
pub fn batch_corpus(files: &[(PathBuf, String)]) -> Corpus {
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

/// The learning options of both modes, with no warm rung, as `seldon
/// serve` runs: a warm solve can land on another optimum than batch
/// `learn`'s cold one.
pub fn seldon_opts(threads: usize) -> SeldonOptions {
    SeldonOptions {
        gen: GenOptions { rep_cutoff: 2, ..Default::default() },
        solve: SolveOptions { threads, ..Default::default() },
        warm_start: None,
        ..Default::default()
    }
}

pub fn analyze_opts(cache: Option<Arc<ArtifactCache>>) -> AnalyzeOptions {
    AnalyzeOptions { policy: FaultPolicy::Recover, cache, ..Default::default() }
}

pub fn engine_with(
    files: &[(PathBuf, String)],
    seed: &TaintSpec,
    threads: usize,
    cache_dir: Option<&Path>,
) -> ServeEngine {
    let cache =
        cache_dir.map(|d| Arc::new(ArtifactCache::open(d).expect("cache opens").0));
    let cfg = EngineConfig {
        seed: seed.clone(),
        analyze: analyze_opts(cache),
        seldon: seldon_opts(threads),
        dynamic_cutoff: false,
    };
    let mut engine = ServeEngine::new(cfg);
    let delta = Delta { add: files.to_vec(), ..Default::default() };
    engine.apply_delta(&delta).expect("initial load");
    engine
}

/// A syntactically valid handler appended as a *structural* edit: it
/// adds events, so the union's graph fingerprint must change.
pub const STRUCTURAL_EDIT: &str = "
@app.route('/handler_added', methods=['GET', 'POST'])
def handler_added():
    z0 = bottle_request.query.get('added')
    z1 = flask.make_response(z0)
    return z1
";
