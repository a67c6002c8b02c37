//! Integration suite for the incremental analysis daemon (`seldon
//! serve`): the determinism gate (every served spec is byte-identical to
//! a cold batch run over the same corpus state, at 1 and 4 solver
//! threads), the delta fast paths (no-op, token-matched edits, replay of
//! a token-changing but graph-identical edit), artifacts kept only for
//! current contents,
//! checkpoints and stage spans that carry between `learn` and `serve`
//! (one per-file analysis loop: policy, write-behind store and report),
//! warm-start byte-identity from perturbed checkpoints, daemon survival
//! of malformed requests and mid-delta cache faults, and the engine's
//! symbol table: bounded over long delta runs, and stable for the
//! fragments it keeps.

#[path = "support/serve.rs"]
mod support;

use proptest::prelude::*;
use seldon_cache::{
    inject_cache_faults, union_graph_key, ArtifactCache, CheckpointLookup, CHECKPOINT_NAME,
};
use seldon_core::{
    analysis_cache_key, analyze_corpus_with, analyze_file, default_rep_cutoff, run_full,
    run_seldon_cached, AnalyzeOptions, CheckpointOutcome, FaultPolicy, FileOutcome, PipelineError,
    SeldonOptions, WarmStartOptions,
};
use seldon_corpus::{generate_corpus, CorpusOptions, Lang, SourceFile, Universe};
use seldon_propgraph::{Budget, FileId};
use seldon_serve::{
    client_request, run_daemon, Delta, EngineConfig, EngineError, ServeDaemon, ServeEngine,
};
use seldon_solver::EarlyStop;
use seldon_specs::TaintSpec;
use seldon_telemetry::{
    json, metric, stage, MetricValue, MetricsRegistry, RunManifest, StageSpan, Telemetry,
};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;
use support::{
    analyze_opts, batch_corpus, engine_with, fixture, seldon_opts, temp_dir, STRUCTURAL_EDIT,
};

/// The spec a cold batch run (`seldon learn`, no cache) prints over
/// `files`.
fn cold_batch_spec(files: &[(PathBuf, String)], seed: &TaintSpec, threads: usize) -> String {
    cold_batch_spec_with(files, seed, &seldon_opts(threads))
}

/// A comment-only edit: the lexer drops it, so the file's tokens are
/// unchanged.
const COMMENT_EDIT: &str = "# serve-test incremental edit\n";

/// The core determinism gate: after every delta — initial load, a
/// structural edit, an added file, a removed file — the served spec is
/// byte-identical to a cold batch run over the same corpus state.
fn delta_sequence_matches_cold_batch(threads: usize) {
    let dir = temp_dir(&format!("gate-{threads}"));
    let (mut files, seed) = fixture(8, 42);
    let mut engine = engine_with(&files, &seed, threads, Some(&dir));
    assert_eq!(engine.spec().unwrap(), cold_batch_spec(&files, &seed, threads), "initial build");

    // Structural edit of one file.
    files[3].1.push_str(STRUCTURAL_EDIT);
    let delta = Delta { change: vec![files[3].clone()], ..Default::default() };
    let out = engine.apply_delta(&delta).expect("edit delta");
    assert_eq!(out.solve, "cold", "structural edit must re-solve");
    assert!(out.fragments_reused > 0, "untouched files reuse their fragments");
    assert_eq!(out.spec, cold_batch_spec(&files, &seed, threads), "after edit");

    // Added file.
    let added = (
        PathBuf::from("zz_added/extra.py"),
        format!("from bottle import request as bottle_request\nimport flask\n{STRUCTURAL_EDIT}"),
    );
    files.push(added.clone());
    files.sort_by(|a, b| a.0.cmp(&b.0));
    let out = engine
        .apply_delta(&Delta { add: vec![added], ..Default::default() })
        .expect("add delta");
    assert_eq!(out.spec, cold_batch_spec(&files, &seed, threads), "after add");

    // Removed file.
    let victim = files.remove(1);
    let out = engine
        .apply_delta(&Delta { remove: vec![victim.0], ..Default::default() })
        .expect("remove delta");
    assert_eq!(out.spec, cold_batch_spec(&files, &seed, threads), "after remove");
}

#[test]
fn delta_sequence_matches_cold_batch_one_thread() {
    delta_sequence_matches_cold_batch(1);
}

#[test]
fn delta_sequence_matches_cold_batch_four_threads() {
    delta_sequence_matches_cold_batch(4);
}

/// The CLI daemon's default: the §4.3 cutoff follows the corpus size.
/// Growing 49 → 50 files moves it 2 → 5 and shrinking moves it back, so
/// the selection changes under every file; each served spec must still
/// be a cold batch run's at `default_rep_cutoff(files.len())`.
#[test]
fn dynamic_cutoff_crossing_matches_cold_batch() {
    let (mut files, seed) = fixture(15, 5);
    assert!(files.len() >= 50, "fixture has {} files", files.len());
    let added = files.remove(20);
    files.truncate(49);
    let opts = seldon_opts(1);
    let cold = |files: &[(PathBuf, String)]| {
        let mut opts = opts.clone();
        opts.gen.rep_cutoff = default_rep_cutoff(files.len());
        cold_batch_spec_with(files, &seed, &opts)
    };
    let cfg = EngineConfig {
        seed: seed.clone(),
        analyze: analyze_opts(None),
        seldon: opts.clone(),
        dynamic_cutoff: true,
    };
    let mut engine = ServeEngine::new(cfg);
    let out = engine
        .apply_delta(&Delta { add: files.clone(), ..Default::default() })
        .expect("initial load");
    assert_eq!(default_rep_cutoff(files.len()), 2);
    assert_eq!(out.spec, cold(&files), "49 files, cutoff 2");

    files.push(added.clone());
    files.sort_by(|a, b| a.0.cmp(&b.0));
    let out = engine
        .apply_delta(&Delta { add: vec![added.clone()], ..Default::default() })
        .expect("add delta");
    assert_eq!(default_rep_cutoff(files.len()), 5);
    assert!(out.fragments_collected > 1, "a new cutoff re-selects every file's events");
    assert_eq!(out.spec, cold(&files), "50 files, cutoff 5");

    files.retain(|f| f.0 != added.0);
    let out = engine
        .apply_delta(&Delta { remove: vec![added.0], ..Default::default() })
        .expect("remove delta");
    assert_eq!(default_rep_cutoff(files.len()), 2);
    assert!(out.fragments_collected > 1, "the old cutoff re-selects every file's events");
    assert_eq!(out.spec, cold(&files), "49 files, cutoff 2 again");
}

#[test]
fn empty_delta_is_a_true_noop() {
    let dir = temp_dir("noop");
    let (files, seed) = fixture(4, 7);
    let mut engine = engine_with(&files, &seed, 1, Some(&dir));
    let spec_before = engine.spec().unwrap().to_string();
    let stats_before = engine.config().analyze.cache.as_deref().unwrap().stats();
    let counters_before = engine.counters();

    let out = engine.apply_delta(&Delta::default()).expect("empty delta");
    assert_eq!(out.solve, "noop");
    assert_eq!(out.spec, spec_before);
    assert_eq!(out.reparsed, 0);
    let stats_after = engine.config().analyze.cache.as_deref().unwrap().stats();
    assert_eq!(stats_after.stores, stats_before.stores, "no-op writes nothing");
    assert_eq!(stats_after.misses, stats_before.misses, "no-op reads nothing");
    assert_eq!(engine.counters().noops, counters_before.noops + 1);
    assert_eq!(engine.counters().rebuilds, counters_before.rebuilds);
}

#[test]
fn comment_edit_skips_rebuild_entirely() {
    let dir = temp_dir("unchanged");
    let (mut files, seed) = fixture(4, 9);
    let mut engine = engine_with(&files, &seed, 1, Some(&dir));
    let rebuilds_before = engine.counters().rebuilds;

    files[0].1.push_str(COMMENT_EDIT);
    let out = engine
        .apply_delta(&Delta { change: vec![files[0].clone()], ..Default::default() })
        .expect("comment delta");
    assert_eq!(out.solve, "unchanged", "a token-matched edit skips the rebuild");
    assert_eq!((out.reparsed, out.tokens_matched), (0, 1), "even a file's first edit");
    assert_eq!(engine.counters().rebuilds, rebuilds_before);
    // ... and it still matches a cold batch run of the commented corpus.
    assert_eq!(out.spec, cold_batch_spec(&files, &seed, 1));
}

#[test]
fn span_only_edit_is_unchanged_and_serves_the_cold_spec() {
    let dir = temp_dir("span-edit");
    let (mut files, seed) = fixture(4, 9);
    let mut engine = engine_with(&files, &seed, 1, Some(&dir));

    // A comment line at the top moves every span in the file, but not
    // what learning reads.
    files[0].1.insert_str(0, COMMENT_EDIT);
    let out = engine
        .apply_delta(&Delta { change: vec![files[0].clone()], ..Default::default() })
        .expect("span-only delta");
    assert_eq!(out.solve, "unchanged", "a span-only edit skips the rebuild");
    assert_eq!(out.spec, cold_batch_spec(&files, &seed, 1));
}

#[test]
fn token_changing_graph_identical_edit_replays_the_cold_spec() {
    let (mut files, seed) = fixture(4, 9);
    let mut engine = engine_with(&files, &seed, 1, None);

    // `f(v0)` → `f((v0))`: new tokens, so the file is analyzed again and
    // its slot replaced, but the same graph, so the union's fingerprint
    // finds the checkpoint.
    let content = &mut files[0].1;
    let open = content.find("(v").expect("a call on a variable") + 1;
    let close = open + content[open..].find(')').expect("the call closes");
    assert!(content[open + 2..close].bytes().all(|b| b.is_ascii_digit()), "{content}");
    content.insert(close, ')');
    content.insert(open, '(');
    let out = engine.apply_delta(&change_first(&files)).expect("parenthesizing delta");
    assert_eq!((out.reparsed, out.tokens_matched), (1, 0));
    assert_eq!(out.solve, "replayed", "the same graph replays");
    assert_eq!(out.spec, cold_batch_spec(&files, &seed, 1));
}

/// A delta changing `files[0]` to its current content.
fn change_first(files: &[(PathBuf, String)]) -> Delta {
    Delta { change: vec![files[0].clone()], ..Default::default() }
}

/// An engine over `files` under `analyze`.
fn engine_under(
    files: &[(PathBuf, String)],
    seed: &TaintSpec,
    analyze: AnalyzeOptions,
) -> ServeEngine {
    let seldon = seldon_opts(1);
    let cfg = EngineConfig { seed: seed.clone(), analyze, seldon, dynamic_cutoff: false };
    let mut engine = ServeEngine::new(cfg);
    engine.apply_delta(&Delta { add: files.to_vec(), ..Default::default() }).expect("initial load");
    engine
}

#[test]
fn token_match_serves_a_second_comment_edit_without_a_parse() {
    for cached in [false, true] {
        let dir = temp_dir(&format!("token-match-{cached}"));
        let (mut files, seed) = fixture(4, 9);
        let mut engine = engine_with(&files, &seed, 1, cached.then_some(dir.as_path()));

        // The initial build recorded every file's tokens, so even a
        // file's first change is token-matched.
        files[0].1.push_str(COMMENT_EDIT);
        let first = engine.apply_delta(&change_first(&files)).expect("first comment delta");
        assert_eq!((first.solve, first.reparsed, first.tokens_matched), ("unchanged", 0, 1));
        let cache = engine.config().analyze.cache.clone();
        let before = cache.as_deref().map(|c| c.stats());

        files[0].1.insert_str(0, "# another comment\n\n");
        let second = engine.apply_delta(&change_first(&files)).expect("second comment delta");
        assert_eq!(second.solve, "unchanged", "cached: {cached}");
        assert_eq!((second.reparsed, second.tokens_matched), (0, 1), "cached: {cached}");
        assert_eq!(second.report.files.len(), 1, "the matched file is still reported");
        assert_eq!(second.report.files[0].outcome, FileOutcome::Ok);
        assert_eq!(engine.counters().tokens_matched, 2);
        assert_eq!(second.spec, cold_batch_spec(&files, &seed, 1), "cached: {cached}");
        if let (Some(cache), Some(before)) = (cache, before) {
            let after = cache.stats();
            assert_eq!((after.hits, after.misses), (before.hits, before.misses), "no lookup");
            assert_eq!(after.stores, before.stores, "a token match stores no artifact");
        }

        // The delta response, `stats` and the metrics say which proof ran.
        let response = json::parse(&seldon_serve::protocol::delta_response(&second)).unwrap();
        assert_eq!(response.get("tokens_matched").and_then(|v| v.as_f64()), Some(1.0));
        assert_eq!(response.get("reparsed").and_then(|v| v.as_f64()), Some(0.0));
        let mut reg = MetricsRegistry::default();
        engine.fill_metrics(&mut reg);
        assert_eq!(reg.value("serve_tokens_matched"), Some(2.0));
        let mut daemon = ServeDaemon::new(engine);
        let stats = json::parse(&daemon.handle_line("{\"op\": \"stats\"}").0).unwrap();
        assert_eq!(stats.get("tokens_matched").and_then(|v| v.as_f64()), Some(2.0));
    }
}

#[test]
fn token_match_is_off_past_max_source_bytes() {
    let (mut files, seed) = fixture(4, 9);
    let limit = files.iter().map(|(_, c)| c.len()).max().expect("files") + COMMENT_EDIT.len();
    let budget = Budget { max_source_bytes: limit, ..Budget::default() };
    let analyze = AnalyzeOptions { budget: Some(budget), ..analyze_opts(None) };
    let mut engine = engine_under(&files, &seed, analyze.clone());
    files[0].1.push_str(COMMENT_EDIT);
    engine.apply_delta(&change_first(&files)).expect("first comment delta");

    // Same tokens, but past the budget: batch `learn` quarantines the
    // file, so the engine must not keep its graph.
    let pad = format!("# {}\n", "x".repeat(limit));
    files[0].1.push_str(&pad);
    let out = engine.apply_delta(&change_first(&files)).expect("oversized comment delta");
    assert_eq!((out.reparsed, out.tokens_matched), (1, 0));
    assert!(
        matches!(out.report.files[0].outcome, FileOutcome::OverBudget { .. }),
        "{:?}",
        out.report.files[0].outcome
    );
    assert_ne!(out.solve, "unchanged", "a quarantined file changes the union");
    assert_eq!(out.spec, batch_spec(&files, &seed, &analyze, &seldon_opts(1)));
}

#[test]
fn token_match_is_off_under_fault_markers() {
    let (mut files, seed) = fixture(4, 9);
    let analyze = AnalyzeOptions { fault_markers: true, ..analyze_opts(None) };
    let mut engine = engine_under(&files, &seed, analyze.clone());
    files[0].1.push_str(COMMENT_EDIT);
    engine.apply_delta(&change_first(&files)).expect("first comment delta");

    // A panic marker is a comment, so the tokens do not change; under
    // `fault_markers` the analysis panics on it all the same.
    files[0].1.push_str(&format!("{}\n", seldon_corpus::PANIC_MARKER));
    let out = engine.apply_delta(&change_first(&files)).expect("marker delta");
    assert_eq!((out.reparsed, out.tokens_matched), (1, 0));
    assert!(
        matches!(out.report.files[0].outcome, FileOutcome::Panicked { .. }),
        "{:?}",
        out.report.files[0].outcome
    );
    assert_eq!(out.spec, batch_spec(&files, &seed, &analyze, &seldon_opts(1)));
}

#[test]
fn token_match_then_structural_edit_rebuilds_like_batch() {
    let (mut files, seed) = fixture(4, 9);
    let mut engine = engine_under(&files, &seed, analyze_opts(None));
    for comment in ["# one\n", "# two\n"] {
        files[0].1.push_str(comment);
        engine.apply_delta(&change_first(&files)).expect("comment delta");
    }
    assert_eq!(engine.counters().tokens_matched, 2);

    files[0].1.push_str(STRUCTURAL_EDIT);
    let out = engine.apply_delta(&change_first(&files)).expect("structural delta");
    assert_eq!((out.reparsed, out.tokens_matched), (1, 0));
    assert_eq!(out.solve, "cold", "a structural edit re-solves");
    assert_eq!(out.spec, cold_batch_spec(&files, &seed, 1));

    // The structural edit recorded the new tokens: a comment after it is
    // token-matched again.
    files[0].1.push_str(COMMENT_EDIT);
    let out = engine.apply_delta(&change_first(&files)).expect("comment delta");
    assert_eq!((out.solve, out.reparsed, out.tokens_matched), ("unchanged", 0, 1));
    assert_eq!(out.spec, cold_batch_spec(&files, &seed, 1));
}

#[test]
fn token_match_stores_no_artifact_so_a_restart_reparses_once() {
    let dir = temp_dir("token-match-restart");
    let (mut files, seed) = fixture(4, 9);
    let mut engine = engine_with(&files, &seed, 1, Some(&dir));
    for comment in ["# one\n", "# two\n"] {
        files[0].1.push_str(comment);
        engine.apply_delta(&change_first(&files)).expect("comment delta");
    }
    assert_eq!(engine.counters().tokens_matched, 2);
    drop(engine);

    // The matched content has no artifact: the restarted daemon parses
    // that one file and takes every other file from the cache.
    let cache = Arc::new(ArtifactCache::open(&dir).expect("cache reopens").0);
    let cfg = EngineConfig {
        seed: seed.clone(),
        analyze: analyze_opts(Some(cache.clone())),
        seldon: seldon_opts(1),
        dynamic_cutoff: false,
    };
    let mut engine = ServeEngine::new(cfg);
    let out = engine
        .apply_delta(&Delta { add: files.clone(), ..Default::default() })
        .expect("restart load");
    assert_eq!(cache.stats().misses, 1, "only the token-matched file re-parses");
    assert_eq!(out.solve, "replayed");
    assert_eq!(out.spec, cold_batch_spec(&files, &seed, 1));
}

#[test]
fn unedited_change_keeps_its_artifact() {
    let dir = temp_dir("unedited-change");
    let (files, seed) = fixture(4, 9);
    let mut engine = engine_with(&files, &seed, 1, Some(&dir));
    let before = entries(&dir);
    // An editor saving a file it did not edit sends the same bytes: the
    // tokens match, and the artifact is exactly the current content's.
    let out = engine.apply_delta(&change_first(&files)).expect("unedited change");
    assert_eq!((out.solve, out.tokens_matched, out.evicted), ("unchanged", 1, 0));
    assert_eq!(entries(&dir), before, "the current content keeps its artifact");
    drop(engine);

    let engine = engine_with(&files, &seed, 1, Some(&dir));
    let stats = engine.config().analyze.cache.as_deref().expect("cache attached").stats();
    assert_eq!((stats.misses, engine.last_solve()), (0, "replayed"), "a restart parses nothing");
}

#[test]
fn damaged_startup_checkpoint_is_reported_by_the_first_delta() {
    let dir = temp_dir("startup-fault");
    let (mut files, seed) = fixture(3, 19);
    drop(engine_with(&files, &seed, 1, Some(&dir)));
    std::fs::write(dir.join(CHECKPOINT_NAME), "garbage").expect("damage the checkpoint");

    let cache = Arc::new(ArtifactCache::open(&dir).expect("cache reopens").0);
    let mut engine = ServeEngine::new(EngineConfig {
        seed: seed.clone(),
        analyze: analyze_opts(Some(cache)),
        seldon: seldon_opts(1),
        dynamic_cutoff: false,
    });
    let out = engine
        .apply_delta(&Delta { add: files.clone(), ..Default::default() })
        .expect("initial load");
    let faults = &out.report.cache_faults;
    assert_eq!(faults.len(), 1, "{faults:?}");
    assert_eq!(faults[0].path, "<checkpoint>", "{faults:?}");
    assert!(faults[0].fault.to_string().starts_with("corrupt entry"), "{faults:?}");
    assert!(dir.join("quarantine").is_dir(), "the damaged checkpoint is quarantined");
    assert_eq!(out.solve, "cold");
    assert_eq!(out.spec, cold_batch_spec(&files, &seed, 1));

    // The fault is reported once, not on every delta.
    files[0].1.push_str(STRUCTURAL_EDIT);
    let out = engine
        .apply_delta(&Delta { change: vec![files[0].clone()], ..Default::default() })
        .expect("second delta");
    assert!(out.report.cache_faults.is_empty(), "{:?}", out.report.cache_faults);
}

#[test]
fn no_spec_is_served_before_the_first_build() {
    // The cache holds a checkpoint of another corpus: it must not be
    // served before a build proves it matches the tracked files.
    let dir = temp_dir("spec-before-build");
    let (other, seed) = fixture(3, 23);
    drop(engine_with(&other, &seed, 1, Some(&dir)));
    let cache = Arc::new(ArtifactCache::open(&dir).expect("cache reopens").0);
    // No warm rung, so the build takes nothing from that checkpoint.
    let engine = ServeEngine::new(EngineConfig {
        seed: seed.clone(),
        analyze: analyze_opts(Some(cache)),
        seldon: seldon_opts(1),
        dynamic_cutoff: false,
    });
    assert_eq!(engine.spec(), None);
    let mut daemon = ServeDaemon::new(engine);
    let (response, _) = daemon.handle_line("{\"op\": \"spec\"}");
    let response = json::parse(&response).expect("response is JSON");
    assert_eq!(response.get("ok").and_then(|v| v.as_bool()), Some(false));
    assert_eq!(
        response.get("error").and_then(|v| v.as_str()),
        Some("no specification built yet")
    );

    let (files, _) = fixture(4, 29);
    let out = daemon
        .engine
        .apply_delta(&Delta { add: files.clone(), ..Default::default() })
        .expect("initial load");
    assert_eq!(out.solve, "cold");
    assert_eq!(daemon.engine.spec().unwrap(), cold_batch_spec(&files, &seed, 1));
}

#[test]
fn remove_only_delta_evicts_artifacts_and_matches_cold() {
    let dir = temp_dir("remove");
    let (mut files, seed) = fixture(5, 13);
    let mut engine = engine_with(&files, &seed, 1, Some(&dir));

    let removed: Vec<PathBuf> = vec![files.remove(0).0, files.remove(0).0];
    let out = engine
        .apply_delta(&Delta { remove: removed, ..Default::default() })
        .expect("remove delta");
    assert_eq!(out.removed, 2);
    assert_eq!(out.evicted, 2, "each dropped file's artifact is evicted");
    assert_eq!(out.files, files.len());
    assert_eq!(out.spec, cold_batch_spec(&files, &seed, 1));
}

#[test]
fn invalid_deltas_are_rejected_without_state_changes() {
    let (files, seed) = fixture(3, 21);
    let mut engine = engine_with(&files, &seed, 1, None);
    let spec_before = engine.spec().unwrap().to_string();
    let counters_before = engine.counters();

    // Adding a tracked file, changing/removing an untracked one, and a
    // duplicated path must all be rejected atomically.
    let bad: Vec<Delta> = vec![
        Delta { add: vec![files[0].clone()], ..Default::default() },
        Delta { change: vec![(PathBuf::from("nope.py"), String::new())], ..Default::default() },
        Delta { remove: vec![PathBuf::from("nope.py")], ..Default::default() },
        Delta {
            remove: vec![files[0].0.clone(), files[0].0.clone()],
            ..Default::default()
        },
    ];
    for delta in bad {
        engine.apply_delta(&delta).expect_err("delta must be rejected");
    }
    assert_eq!(engine.spec().unwrap(), spec_before);
    assert_eq!(engine.counters(), counters_before, "rejected deltas leave no trace");
    assert_eq!(engine.file_count(), files.len());
}

#[test]
fn daemon_restart_replays_from_the_persisted_checkpoint() {
    let dir = temp_dir("restart");
    let (files, seed) = fixture(4, 55);
    let engine = engine_with(&files, &seed, 1, Some(&dir));
    let spec = engine.spec().unwrap().to_string();
    drop(engine);

    // A new engine over the same cache dir: the initial load re-unions
    // but the input fingerprint matches the stored checkpoint, so no
    // selection/solve runs and the identical spec is served.
    let cache = Arc::new(ArtifactCache::open(&dir).expect("cache reopens").0);
    let cfg = EngineConfig {
        seed: seed.clone(),
        analyze: analyze_opts(Some(cache)),
        seldon: seldon_opts(1),
        dynamic_cutoff: false,
    };
    let mut engine = ServeEngine::new(cfg);
    let out = engine
        .apply_delta(&Delta { add: files.clone(), ..Default::default() })
        .expect("restart load");
    assert_eq!(out.solve, "replayed", "restart over an unchanged corpus replays");
    assert_eq!(out.spec, spec);
}

#[test]
fn cross_mode_batch_checkpoint_replays_in_serve() {
    // `seldon learn --cache-dir` stores a checkpoint; a fresh engine over
    // the same cache takes it on its initial add-all delta.
    let dir = temp_dir("cross-batch");
    let (files, seed) = fixture(4, 61);
    let cache = Arc::new(ArtifactCache::open(&dir).expect("cache opens").0);
    let full = run_full(
        &batch_corpus(&files),
        &seed,
        "learn",
        &analyze_opts(Some(cache)),
        &seldon_opts(1),
    )
    .expect("batch run");
    assert_eq!(full.checkpoint.outcome, CheckpointOutcome::MissCold);
    let engine = engine_with(&files, &seed, 1, Some(&dir));
    assert_eq!(engine.last_solve(), "replayed", "the batch checkpoint replays");
    assert_eq!(engine.spec().unwrap(), full.run.extraction.spec.to_text());
}

#[test]
fn cross_mode_engine_checkpoint_is_a_full_hit_for_learn() {
    // The engine stores a checkpoint on its cold build; `seldon learn`
    // over the same cache replays it without generating or solving.
    let dir = temp_dir("cross-engine");
    let (files, seed) = fixture(4, 62);
    let engine = engine_with(&files, &seed, 1, Some(&dir));
    assert_eq!(engine.last_solve(), "cold");
    let spec = engine.spec().unwrap().to_string();
    drop(engine);
    let cache = Arc::new(ArtifactCache::open(&dir).expect("cache reopens").0);
    let full = run_full(
        &batch_corpus(&files),
        &seed,
        "learn",
        &analyze_opts(Some(cache)),
        &seldon_opts(1),
    )
    .expect("batch run");
    assert_eq!(full.checkpoint.outcome, CheckpointOutcome::HitFull);
    assert_eq!(full.run.extraction.spec.to_text(), spec);
}

/// The corpus `opts` generates, flattened like [`fixture`], plus one
/// comment-only file, whose graph has no events; and the language's seed.
fn key_corpus(opts: CorpusOptions) -> (Vec<(PathBuf, String)>, TaintSpec) {
    let universe = Universe::new();
    let corpus = generate_corpus(&universe, &opts);
    let (blank, seed) = match opts.lang {
        Lang::Py => (("zz_blank/blank.py", "# blank\n"), universe.seed_spec()),
        Lang::Js => (("zz_blank/blank.js", "// blank\n"), universe.seed_spec_js()),
    };
    let mut files: Vec<(PathBuf, String)> = (corpus.projects.iter())
        .flat_map(|p| {
            let qualified = |f: &SourceFile| format!("{}/{}", p.name, f.path);
            p.files.iter().map(move |f| (PathBuf::from(qualified(f)), f.content.clone()))
        })
        .collect();
    files.push((PathBuf::from(blank.0), blank.1.to_string()));
    files.sort_by(|a, b| a.0.cmp(&b.0));
    (files, seed)
}

/// The four derivations of the checkpoint's graph key agree over
/// `files` analyzed under `analyze` with a cache: the fold of a fresh
/// `learn` analysis (which stores the checkpoint), the fold of a second
/// analysis served from artifacts, the key `run_seldon_cached` derives
/// from the union (it replays the checkpoint), and the fold of a serve
/// engine over the same cache (its initial build replays it too). Returns
/// how many files were quarantined.
fn graph_keys_agree(
    tag: &str,
    files: &[(PathBuf, String)],
    seed: &TaintSpec,
    analyze: AnalyzeOptions,
) -> usize {
    let dir = temp_dir(&format!("graph-key-{tag}"));
    let cache = Arc::new(ArtifactCache::open(&dir).expect("cache opens").0);
    let analyze = AnalyzeOptions { cache: Some(cache.clone()), ..analyze };
    let (corpus, seldon) = (batch_corpus(files), seldon_opts(1));
    let (blank, content) = files.iter().find(|(p, _)| p.starts_with("zz_blank")).unwrap();
    let blank = analyze_file(&blank.to_string_lossy(), content, FileId(0), &analyze_opts(None));
    assert_eq!(blank.graph.map(|g| g.event_count()), Some(0), "{tag}: a graph without events");

    let fresh = run_full(&corpus, seed, "learn", &analyze, &seldon).expect("learn runs");
    assert_eq!(fresh.checkpoint.outcome, CheckpointOutcome::MissCold, "{tag}");
    let quarantined = fresh.report.files.iter().filter(|f| !f.outcome.is_analyzed()).count();
    let analyzed = (fresh.report.files.len() - quarantined) as u64;

    let hits = cache.stats().hits;
    let (warm, _) = analyze_corpus_with(&corpus, &analyze).expect("analysis runs");
    assert_eq!(cache.stats().hits - hits, analyzed, "{tag}: every analyzed file hits");
    let (_, used) =
        run_seldon_cached(&warm.graph, seed, &seldon, &Telemetry::disabled(), Some(&cache));
    assert_eq!(used.outcome, CheckpointOutcome::HitFull, "{tag}: the union-derived key replays");

    let cfg = EngineConfig { seed: seed.clone(), analyze, seldon, dynamic_cutoff: false };
    let mut engine = ServeEngine::new(cfg);
    engine.apply_delta(&Delta { add: files.to_vec(), ..Default::default() }).expect("serve loads");
    assert_eq!(engine.last_solve(), "replayed", "{tag}: serve's key replays");

    let keys = [
        fresh.analyzed.graph_key.expect("a cached analysis folds its key"),
        warm.graph_key.expect("a cached analysis folds its key"),
        union_graph_key(&warm.graph),
        engine.graph_key(),
    ];
    assert!(keys.iter().all(|&k| k == keys[0]), "{tag}: fresh, hit, union, serve: {keys:x?}");
    let _ = std::fs::remove_dir_all(&dir);
    quarantined
}

#[test]
fn graph_key_parity_on_the_golden_corpora() {
    for lang in [Lang::Py, Lang::Js] {
        let (files, seed) =
            key_corpus(CorpusOptions { projects: 60, rng_seed: 1234, lang, ..Default::default() });
        graph_keys_agree(&format!("{lang:?}"), &files, &seed, analyze_opts(None));
    }
}

#[test]
fn graph_key_parity_on_the_faulted_corpus() {
    let opts =
        CorpusOptions { projects: 60, rng_seed: 1234, fault_rate: 0.2, ..Default::default() };
    let (files, seed) = key_corpus(opts);
    let analyze = AnalyzeOptions {
        budget: Some(Budget::default()),
        fault_markers: true,
        ..analyze_opts(None)
    };
    let quarantined = graph_keys_agree("faulted", &files, &seed, analyze);
    assert!(quarantined > 0, "the faulted corpus quarantines files");
}

/// Names and counter keys of every stage span but `taint`, in order.
type StageShape = Vec<(String, Vec<String>)>;

/// The stage shapes of a cold `learn` and a cold serve build over one
/// fixture, each with a fresh cache of its own when `cached`.
fn cold_stage_shapes(name: &str, cached: bool) -> [StageShape; 2] {
    fn shape(stages: &[StageSpan]) -> StageShape {
        let kept = stages.iter().filter(|s| s.name != stage::TAINT);
        kept.map(|s| (s.name.clone(), s.counters.iter().map(|(k, _)| k.clone()).collect()))
            .collect()
    }
    let (files, seed) = fixture(4, 63);
    let opts = |mode: &str| {
        let dir = cached.then(|| temp_dir(&format!("{name}-{mode}")));
        let cache = dir.map(|d| Arc::new(ArtifactCache::open(&d).expect("cache opens").0));
        AnalyzeOptions { telemetry: Telemetry::recording(), ..analyze_opts(cache) }
    };
    let batch = run_full(&batch_corpus(&files), &seed, "learn", &opts("learn"), &seldon_opts(1))
        .expect("batch run")
        .manifest
        .expect("recording run has a manifest");
    let mut engine = ServeEngine::new(EngineConfig {
        seed: seed.clone(),
        analyze: opts("serve"),
        seldon: seldon_opts(1),
        dynamic_cutoff: false,
    });
    engine
        .apply_delta(&Delta { add: files.clone(), ..Default::default() })
        .expect("initial load");
    assert_eq!(engine.last_solve(), "cold");
    [shape(&batch.stages), shape(&engine.manifest("serve").stages)]
}

#[test]
fn cross_mode_cold_runs_emit_the_same_stage_spans() {
    // Everything a cold `learn` runs but taint, a cold serve build runs
    // too: the same spans in the same order with the same counter keys.
    let [batch, served] = cold_stage_shapes("spans", false);
    let names: Vec<&str> = batch.iter().map(|(name, _)| name.as_str()).collect();
    assert_eq!(
        names,
        [
            stage::PARSE,
            stage::PARSE_PROJECT,
            stage::PROPGRAPH,
            stage::UNION,
            stage::REPRESENTATION,
            stage::CONSTRAINTS,
            stage::SOLVE,
            stage::COMPILE,
            stage::EXTRACT,
        ]
    );
    assert_eq!(served, batch, "same spans, same order, same counter keys");
}

#[test]
fn cross_mode_cold_cached_runs_emit_the_same_stage_spans() {
    let [batch, served] = cold_stage_shapes("cached-spans", true);
    assert!(batch.iter().any(|(name, _)| name == stage::CACHE), "{batch:?}");
    assert_eq!(served, batch, "same spans, same order, same counter keys");
}

#[test]
fn strict_engine_rejects_an_unparseable_delta_and_keeps_serving() {
    // `seldon serve --strict`: a delta that adds or changes a file the
    // strict parser rejects fails before any state changes, naming the
    // file; under Recover the same delta is served as cold batch learns it.
    let (files, seed) = fixture(3, 31);
    let broken = (PathBuf::from("zz_broken/broken.py"), "def broken(:\n".to_string());
    let mut changed = files[0].clone();
    changed.1.push_str("\nx = = broken\n");
    let deltas = [
        (Delta { add: vec![broken.clone()], ..Default::default() }, broken.0.clone()),
        (Delta { change: vec![changed.clone()], ..Default::default() }, changed.0.clone()),
    ];
    let mut strict = ServeEngine::new(EngineConfig {
        seed: seed.clone(),
        analyze: AnalyzeOptions { policy: FaultPolicy::FailFast, ..analyze_opts(None) },
        seldon: seldon_opts(1),
        dynamic_cutoff: false,
    });
    strict.apply_delta(&Delta { add: files.clone(), ..Default::default() }).expect("clean build");
    let state = |e: &ServeEngine| {
        (e.spec().map(str::to_string), e.file_count(), e.counters(), e.last_solve())
    };
    let before = state(&strict);
    for (delta, bad) in &deltas {
        let err = strict.apply_delta(delta).expect_err("strict rejects the delta");
        let EngineError::Analysis(PipelineError::Parse { path, .. }) = &err else {
            panic!("expected a parse failure, got {err}");
        };
        assert_eq!(*path, bad.display().to_string());
        assert_eq!(state(&strict), before, "a rejected delta leaves no trace");
    }
    for (delta, bad) in deltas {
        let mut lenient = engine_with(&files, &seed, 1, None);
        let out = lenient.apply_delta(&delta).expect("recover serves the delta");
        assert_eq!(out.report.recovered(), 1, "{:?}", out.report);
        assert_eq!(out.report.files[0].path, bad.display().to_string());
        let mut expected: Vec<_> = files.iter().filter(|f| f.0 != bad).cloned().collect();
        expected.extend(delta.add.into_iter().chain(delta.change));
        expected.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(out.spec, cold_batch_spec(&expected, &seed, 1));
    }
}

#[test]
fn serve_stores_every_artifact_before_the_delta_returns() {
    // Fresh artifacts go through the background writer, and all are on
    // disk when `apply_delta` returns: a fresh engine loads every file.
    let dir = temp_dir("write-behind");
    let (files, seed) = fixture(3, 41);
    let engine = engine_with(&files, &seed, 1, Some(&dir));
    let opts = &engine.config().analyze;
    for (path, content) in &files {
        let key = analysis_cache_key(&path.display().to_string(), content, opts);
        assert!(dir.join(format!("{key:016x}.entry")).is_file(), "{}", path.display());
    }
    drop(engine);
    let fresh = engine_with(&files, &seed, 1, Some(&dir));
    let stats = fresh.config().analyze.cache.as_deref().expect("cache attached").stats();
    assert_eq!((stats.hits, stats.misses), (files.len() as u64, 0));
}

#[test]
fn removing_one_of_two_identical_files_keeps_their_artifact() {
    // Artifact keys hash content, not paths: two byte-identical files
    // share one entry, which stays while either is tracked.
    let dir = temp_dir("twins");
    let (mut files, seed) = fixture(3, 43);
    let twin = (PathBuf::from("zz_twin/copy.py"), files[0].1.clone());
    files.push(twin.clone());
    let mut engine = engine_with(&files, &seed, 1, Some(&dir));
    let key = analysis_cache_key(&twin.0.display().to_string(), &twin.1, &engine.config().analyze);
    let entry = dir.join(format!("{key:016x}.entry"));
    let out = engine
        .apply_delta(&Delta { remove: vec![twin.0.clone()], ..Default::default() })
        .expect("remove the twin");
    assert_eq!(out.evicted, 0, "the survivor still holds the artifact");
    assert!(entry.is_file(), "the survivor's entry stays on disk");
    let out = engine
        .apply_delta(&Delta { remove: vec![files[0].0.clone()], ..Default::default() })
        .expect("remove the survivor");
    assert_eq!(out.evicted, 1, "the last holder's removal evicts it");
    assert!(!entry.exists());
}

/// The artifact entries in a cache directory.
fn entries(dir: &Path) -> BTreeSet<String> {
    let names = std::fs::read_dir(dir).expect("cache dir lists");
    let names = names.map(|e| e.expect("dir entry").file_name().to_string_lossy().into_owned());
    names.filter(|name| name.ends_with(".entry")).collect()
}

/// The entries of `files`' contents: one per distinct key.
fn entries_of(files: &[(PathBuf, String)], opts: &AnalyzeOptions) -> BTreeSet<String> {
    let key = |(path, content): &(PathBuf, String)| {
        analysis_cache_key(&path.display().to_string(), content, opts)
    };
    files.iter().map(|file| format!("{:016x}.entry", key(file))).collect()
}

#[test]
fn cache_holds_artifacts_only_for_current_contents() {
    let dir = temp_dir("current-contents");
    let (mut files, seed) = fixture(10, 42);
    assert_eq!(files.len(), 35);
    let mut engine = engine_with(&files, &seed, 1, Some(&dir));
    let opts = engine.config().analyze.clone();
    let mut apply = |delta: Delta| engine.apply_delta(&delta).expect("delta applies");

    // Two comment edits of one file: the first token match drops the old
    // content's artifact, and the matched graph stands for none.
    for (comment, evicted) in [("# one\n", 1), ("# two\n", 0)] {
        files[0].1.push_str(comment);
        let out = apply(change_first(&files));
        assert_eq!((out.tokens_matched, out.evicted), (1, evicted), "{comment}");
    }
    // A structural edit of another replaces its artifact.
    files[1].1.push_str(STRUCTURAL_EDIT);
    let out = apply(Delta { change: vec![files[1].clone()], ..Default::default() });
    assert_eq!((out.reparsed, out.evicted), (1, 1));
    // A third is removed, then added back.
    let out = apply(Delta { remove: vec![files[2].0.clone()], ..Default::default() });
    assert_eq!(out.evicted, 1);
    let out = apply(Delta { add: vec![files[2].clone()], ..Default::default() });
    assert_eq!(out.evicted, 0);
    assert_eq!(entries(&dir), entries_of(&files[1..], &opts), "all but the matched file");
    drop(engine);

    // A restart parses the matched file once and stores its artifact.
    let engine = engine_with(&files, &seed, 1, Some(&dir));
    let stats = engine.config().analyze.cache.as_deref().expect("cache attached").stats();
    assert_eq!((stats.misses, engine.last_solve()), (1, "replayed"));
    assert_eq!(entries(&dir), entries_of(&files, &opts), "one entry per current key");
}

#[test]
fn served_manifest_claims_no_taint_result() {
    // Serve never runs the taint stage, so its manifest carries neither a
    // taint span nor a taint metric — only the learning it did run.
    let (files, seed) = fixture(3, 71);
    let mut opts = analyze_opts(None);
    opts.telemetry = Telemetry::recording();
    let mut engine = ServeEngine::new(EngineConfig {
        seed,
        analyze: opts,
        seldon: seldon_opts(1),
        dynamic_cutoff: false,
    });
    engine.apply_delta(&Delta { add: files, ..Default::default() }).expect("initial load");
    let m = engine.manifest("serve");
    assert_eq!(m.mode, "served-incremental");
    assert!(m.stage(stage::TAINT).is_none(), "no taint span");
    assert!(m.metrics.get(metric::TAINT_VIOLATIONS.name).is_none(), "no taint metric");
    assert!(m.metrics.get(metric::SOLVER_ITERATIONS.name).is_some(), "the build is recorded");
    let back = RunManifest::from_json(&m.to_json()).expect("served manifest parses back");
    assert_eq!(back, m);
}

#[test]
fn mid_delta_cache_faults_are_contained_and_spec_stays_correct() {
    let dir = temp_dir("faults");
    let (mut files, seed) = fixture(5, 77);
    let mut engine = engine_with(&files, &seed, 1, Some(&dir));

    // Damage every cache entry (artifacts and the checkpoint), then
    // apply a structural delta: the engine must neither crash nor serve
    // a stale or corrupt spec.
    let injected = inject_cache_faults(&dir, 1.0, 99);
    assert!(!injected.is_empty(), "fixture stored cache entries to damage");
    files[2].1.push_str(STRUCTURAL_EDIT);
    let out = engine
        .apply_delta(&Delta { change: vec![files[2].clone()], ..Default::default() })
        .expect("faulted delta");
    assert_eq!(out.spec, cold_batch_spec(&files, &seed, 1), "spec correct despite faults");

    // And the next delta still works (the damaged checkpoint slot was
    // quarantined and rewritten).
    files[0].1.push_str(STRUCTURAL_EDIT);
    let out = engine
        .apply_delta(&Delta { change: vec![files[0].clone()], ..Default::default() })
        .expect("post-fault delta");
    assert_eq!(out.spec, cold_batch_spec(&files, &seed, 1));
}

#[test]
fn daemon_survives_malformed_requests_and_mid_delta_failures() {
    let dir = temp_dir("daemon");
    let sock = dir.join("seldon.sock");
    let (files, seed) = fixture(3, 101);
    // The daemon reads delta contents from disk; materialize the corpus.
    let mut disk_files = Vec::new();
    for (path, content) in &files {
        let flat = path.display().to_string().replace('/', "_");
        let on_disk = dir.join(flat);
        std::fs::write(&on_disk, content).unwrap();
        disk_files.push((on_disk, content.clone()));
    }
    disk_files.sort_by(|a, b| a.0.cmp(&b.0));
    let engine = engine_with(&disk_files, &seed, 1, None);
    let spec = engine.spec().unwrap().to_string();
    let mut daemon = ServeDaemon::new(engine);
    let sock_for_daemon = sock.clone();
    let handle = std::thread::spawn(move || {
        run_daemon(&mut daemon, &sock_for_daemon).expect("daemon runs");
        daemon
    });

    let wait = Duration::from_secs(10);
    let ask = |line: &str| client_request(&sock, line, wait).expect("request answered");

    // Garbage, unknown ops, and unreadable delta paths all get error
    // responses — and the daemon keeps serving.
    for bad in [
        "this is not json",
        "{\"op\": 12}",
        "{\"op\": \"explode\"}",
        "{\"op\": \"delta\", \"add\": 7}",
        "{\"op\": \"delta\", \"add\": [\"/definitely/not/a/file.py\"]}",
        "{\"op\": \"delta\", \"remove\": [\"untracked.py\"]}",
    ] {
        let response = json::parse(&ask(bad)).expect("response is JSON");
        assert_eq!(response.get("ok").and_then(|v| v.as_bool()), Some(false), "{bad}");
    }

    // Still alive, still serving the same spec.
    let pong = json::parse(&ask("{\"op\": \"ping\"}")).unwrap();
    assert_eq!(pong.get("ok").and_then(|v| v.as_bool()), Some(true));
    let spec_resp = json::parse(&ask("{\"op\": \"spec\"}")).unwrap();
    assert_eq!(spec_resp.get("spec").and_then(|v| v.as_str()), Some(spec.as_str()));

    // A real delta over the socket: edit one on-disk file.
    let edited = &disk_files[0].0;
    let mut content = std::fs::read_to_string(edited).unwrap();
    content.push_str(STRUCTURAL_EDIT);
    std::fs::write(edited, &content).unwrap();
    let delta_line = format!(
        "{{\"op\": \"delta\", \"change\": [\"{}\"]}}",
        edited.display().to_string().replace('\\', "\\\\")
    );
    let delta_resp = json::parse(&ask(&delta_line)).unwrap();
    assert_eq!(delta_resp.get("ok").and_then(|v| v.as_bool()), Some(true));
    let mut expected = disk_files.clone();
    expected[0].1 = content;
    assert_eq!(
        delta_resp.get("spec").and_then(|v| v.as_str()),
        Some(cold_batch_spec(&expected, &seed, 1).as_str()),
        "socket-served spec matches a cold batch run"
    );

    let bye = json::parse(&ask("{\"op\": \"shutdown\"}")).unwrap();
    assert_eq!(bye.get("ok").and_then(|v| v.as_bool()), Some(true));
    let daemon = handle.join().expect("daemon thread exits cleanly");
    assert!(daemon.errors >= 6, "protocol errors were counted");
    assert!(!sock.exists(), "socket file removed on shutdown");
}

#[test]
fn daemon_survives_hostile_request_lines() {
    use std::io::{BufRead, BufReader, Write};

    let sock = temp_dir("hostile").join("seldon.sock");
    let (files, seed) = fixture(3, 101);
    let mut daemon = ServeDaemon::new(engine_with(&files, &seed, 1, None));
    let sock_for_daemon = sock.clone();
    let handle = std::thread::spawn(move || {
        run_daemon(&mut daemon, &sock_for_daemon).expect("daemon runs");
        daemon
    });
    client_request(&sock, "{\"op\": \"ping\"}", Duration::from_secs(10)).expect("daemon up");

    // On one connection: a line nested far past the JSON parser's bound
    // (a stack overflow before the bound), one past the line-length
    // bound, and one that is not UTF-8 are each answered with an error,
    // and the connection keeps serving.
    let mut input = "[".repeat(200_000).into_bytes();
    input.push(b'\n');
    input.resize(input.len() + seldon_serve::daemon::MAX_REQUEST_LINE + 1, b' ');
    input.extend_from_slice(b"\n{\"op\": \"\xff\"}\n{\"op\": \"ping\"}\n{\"op\": \"shutdown\"}\n");
    let mut stream = std::os::unix::net::UnixStream::connect(&sock).expect("connect");
    stream.write_all(&input).unwrap();
    let ok: Vec<Option<bool>> = BufReader::new(stream)
        .lines()
        .map(|line| json::parse(&line.unwrap()).unwrap().get("ok").and_then(|v| v.as_bool()))
        .collect();
    assert_eq!(ok, [Some(false), Some(false), Some(false), Some(true), Some(true)]);
    let daemon = handle.join().expect("daemon thread exits cleanly");
    assert_eq!(daemon.errors, 3, "each hostile line is one protocol error");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Warm-started solves from *perturbed* checkpoints still produce a
    /// spec byte-identical to an uncached cold run: the extraction-margin
    /// guard either accepts a warm solution far enough from every
    /// threshold to agree with cold, or falls back to the cold solve
    /// itself. Covers 1 and 4 solver threads and the early-stop path.
    #[test]
    fn warm_start_from_perturbed_checkpoint_is_byte_identical(
        scale_milli in 0u32..600,
        threads_pick in 0usize..2,
        early_stop_pick in 0usize..2,
    ) {
        let scale = f64::from(scale_milli) / 1000.0;
        let threads = if threads_pick == 0 { 1 } else { 4 };
        let early_stop =
            if early_stop_pick == 0 { None } else { Some(EarlyStop::default()) };
        let dir = temp_dir(&format!("warmprop-{threads}-{early_stop_pick}"));
        let (mut files, seed) = fixture(4, 171);
        let mut opts = seldon_opts(threads);
        opts.solve.early_stop = early_stop;
        opts.warm_start = Some(WarmStartOptions::default());

        // Seed the cache with a checkpoint for the base corpus.
        let cache = Arc::new(ArtifactCache::open(&dir).expect("cache opens").0);
        run_full(&batch_corpus(&files), &seed, "learn", &analyze_opts(Some(cache.clone())), &opts)
            .expect("base run");

        // Perturb every stored score, then edit the corpus so the next
        // run is a system-fingerprint miss that warm-starts from the
        // damaged-but-plausible vector.
        let CheckpointLookup::Hit(mut ckpt) = cache.load_checkpoint() else {
            panic!("base run stored a checkpoint");
        };
        for (i, s) in ckpt.scores.iter_mut().enumerate() {
            let wiggle = ((i as f64 * 0.7371).sin()) * scale;
            *s = (*s + wiggle).clamp(0.0, 1.0);
        }
        prop_assert!(cache.store_checkpoint(&ckpt).is_none());

        files[1].1.push_str(STRUCTURAL_EDIT);
        let corpus = batch_corpus(&files);
        let (analyzed, _) = seldon_core::analyze_corpus_with(
            &corpus,
            &analyze_opts(Some(cache.clone())),
        )
        .expect("analyze");
        let (run, _use) = run_seldon_cached(
            &analyzed.graph,
            &seed,
            &opts,
            &Telemetry::disabled(),
            Some(&cache),
        );
        let mut cold_opts = opts.clone();
        cold_opts.warm_start = None;
        let expected = cold_batch_spec_with(&files, &seed, &cold_opts);
        prop_assert_eq!(run.extraction.spec.to_text(), expected);
    }
}

/// Cold uncached batch spec under explicit options.
fn cold_batch_spec_with(
    files: &[(PathBuf, String)],
    seed: &TaintSpec,
    opts: &SeldonOptions,
) -> String {
    batch_spec(files, seed, &analyze_opts(None), opts)
}

/// The spec an uncached batch run under `analyze` and `opts` prints over
/// `files`.
fn batch_spec(
    files: &[(PathBuf, String)],
    seed: &TaintSpec,
    analyze: &AnalyzeOptions,
    opts: &SeldonOptions,
) -> String {
    let full = run_full(&batch_corpus(files), seed, "learn", analyze, opts);
    full.expect("batch run succeeds").run.extraction.spec.to_text()
}

/// The symbol table of a batch union over `files`: what a fresh run
/// links, in first-link order.
fn batch_symbols(files: &[(PathBuf, String)]) -> seldon_propgraph::Symbols {
    let (analyzed, _) = analyze_corpus_with(&batch_corpus(files), &analyze_opts(None))
        .expect("batch analysis succeeds");
    analyzed.graph.symbols().clone()
}

/// An uncached engine over `files` that solves cold, as batch `learn`.
fn cold_engine(files: &[(PathBuf, String)], seed: &TaintSpec, opts: &SeldonOptions) -> ServeEngine {
    let analyze = analyze_opts(None);
    let cfg =
        EngineConfig { seed: seed.clone(), analyze, seldon: opts.clone(), dynamic_cutoff: false };
    let mut engine = ServeEngine::new(cfg);
    engine.apply_delta(&Delta { add: files.to_vec(), ..Default::default() }).expect("initial load");
    engine
}

/// A file whose `calls` call representations no other file has.
fn fresh_file(tag: &str, calls: usize) -> (PathBuf, String) {
    let body: String = (0..calls).map(|j| format!("fresh_{tag}.api_{j}(x)\n")).collect();
    (PathBuf::from(format!("zz_fresh/{tag}.py")), format!("import fresh_{tag}\n{body}"))
}

/// The engine's table outlives every union, so it must stay bounded: over
/// 1,000 deltas that alternately add a file with fresh representations
/// and remove it, it never holds more than twice the symbols the last
/// union used plus the delta's new strings; a rebuild that resets it
/// leaves exactly the live corpus's table; a repeated identical delta
/// pair adds nothing; the `intern_symbols` gauge reports the table; and
/// every 100th served spec is batch `learn`'s over the same state.
#[test]
fn engine_symbol_table_stays_bounded_over_a_thousand_deltas() {
    let (files, seed) = fixture(1, 17);
    let opts = seldon_opts(1);
    let mut engine = cold_engine(&files, &seed, &opts);
    assert_eq!(engine.symbols(), &batch_symbols(&files), "the first build links the batch table");

    let cycle = |engine: &mut ServeEngine, file: &(PathBuf, String)| {
        engine.apply_delta(&Delta { add: vec![file.clone()], ..Default::default() }).expect("add");
        engine
            .apply_delta(&Delta { remove: vec![file.0.clone()], ..Default::default() })
            .expect("remove");
    };
    let repeated = fresh_file("repeated", 3);
    cycle(&mut engine, &repeated);
    let after_one = engine.symbols().len();
    cycle(&mut engine, &repeated);
    assert_eq!(engine.symbols().len(), after_one, "a repeated identical delta pair adds nothing");

    let base = batch_symbols(&files).len();
    let (mut used, mut resets) = (base, 0);
    for n in 1..=1000 {
        let fresh = fresh_file(&format!("f{}", (n + 1) / 2), 24);
        let (before, mut state) = (engine.symbols().len(), files.clone());
        let (delta, new_strings) = if n % 2 == 1 {
            state.push(fresh.clone());
            state.sort_by(|a, b| a.0.cmp(&b.0));
            let new_strings = batch_symbols(std::slice::from_ref(&fresh)).len();
            (Delta { add: vec![fresh], ..Default::default() }, new_strings)
        } else {
            (Delta { remove: vec![fresh.0], ..Default::default() }, 0)
        };
        let out = engine.apply_delta(&delta).expect("delta applies");
        let table = engine.symbols().len();
        assert!(table <= 2 * used + new_strings, "delta {n}: {table} symbols after {used} used");
        if before > 2 * used {
            resets += 1;
            assert_eq!(out.fragments_reused, 0, "delta {n}: a reset drops every fragment");
            assert_eq!(engine.symbols(), &batch_symbols(&state), "delta {n}: the live table");
        }
        used = if n % 2 == 1 { batch_symbols(&state).len() } else { base };
        if n % 100 == 0 {
            assert_eq!(out.spec, cold_batch_spec_with(&state, &seed, &opts), "delta {n}");
        }
    }
    assert!(resets >= 5, "only {resets} resets in 1,000 deltas");

    let mut reg = MetricsRegistry::default();
    engine.fill_metrics(&mut reg);
    let gauge = reg.get("intern_symbols").expect("gauge present");
    assert!(!gauge.volatile(), "intern_symbols must be non-volatile");
    match gauge.value {
        MetricValue::Gauge(v) => assert_eq!(v as usize, engine.symbols().len()),
        ref other => panic!("intern_symbols is {other:?}, not a gauge"),
    }
}

/// Kept fragments name representations by the engine's ids, so those ids
/// must keep their texts across rebuilds: new strings in the first file
/// take new ids in the engine's table (a fresh batch table would number
/// them first and shift every later file's), a structural edit of the
/// last file then reuses every other file's fragment, and a forced table
/// reset re-collects them all. Each served spec is batch `learn`'s.
#[test]
fn kept_fragments_keep_their_rep_ids_across_rebuilds_and_resets() {
    let (mut files, seed) = fixture(2, 23);
    let opts = seldon_opts(1);
    let mut engine = cold_engine(&files, &seed, &opts);
    let batch = |files: &[(PathBuf, String)]| cold_batch_spec_with(files, &seed, &opts);

    files[0].1.push_str("\nimport fresh_first\nfresh_first.reader.read(fresh_first.source())\n");
    let out = engine.apply_delta(&Delta { change: vec![files[0].clone()], ..Default::default() });
    let out = out.expect("first-file edit");
    let (reused, collected) = (out.fragments_reused, out.fragments_collected);
    assert!(reused > collected, "later files keep their ids: {reused} reused, {collected} collected");
    assert_ne!(engine.symbols(), &batch_symbols(&files), "new strings sit at the table's end");
    assert_eq!(out.spec, batch(&files), "after the first-file edit");

    let last = files.len() - 1;
    files[last].1.push_str(STRUCTURAL_EDIT);
    let out =
        engine.apply_delta(&Delta { change: vec![files[last].clone()], ..Default::default() });
    let out = out.expect("last-file edit");
    assert!(out.fragments_reused > 0, "untouched files reuse their fragments");
    assert_eq!(out.spec, batch(&files), "after the last-file edit");

    // A file with more fresh strings than the corpus uses, added and
    // removed: the next rebuild finds the table over twice the last union.
    let used = batch_symbols(&files).len();
    let big = fresh_file("big", used + 1);
    engine.apply_delta(&Delta { add: vec![big.clone()], ..Default::default() }).expect("add big");
    let out = engine.apply_delta(&Delta { remove: vec![big.0], ..Default::default() });
    assert_eq!(out.expect("remove big").spec, batch(&files), "after the removal");
    assert!(engine.symbols().len() > 2 * used);
    files[last].1.push_str("\nimport fresh_last\nfresh_last.sink(x)\n");
    let out =
        engine.apply_delta(&Delta { change: vec![files[last].clone()], ..Default::default() });
    let out = out.expect("edit after the reset");
    assert_eq!((out.fragments_reused, engine.symbols()), (0, &batch_symbols(&files)), "reset");
    assert_eq!(out.spec, batch(&files), "after the reset");
}
