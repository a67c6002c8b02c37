//! Robustness suite for the crash-safe artifact cache: cold, warm, and
//! fault-injected runs over the same corpus must produce byte-identical
//! specifications, every injected damage kind must be detected and
//! contained (never propagated, never degrading the run), and artifact
//! serialization must survive the process boundary — representation
//! strings intern on load into a fresh table with the same graph content.

use seldon_cache::artifact::{decode, encode, ArtifactMeta};
use seldon_cache::{
    encode_entry, graph_fingerprint, inject_cache_faults, ArtifactCache, CacheStats, INDEX_NAME,
};
use seldon_core::{
    run_full, run_seldon, AnalyzeOptions, CheckpointOutcome, FaultPolicy, FullRun,
    SeldonOptions,
};
use seldon_corpus::{generate_corpus, Corpus, CorpusOptions, Universe};
use seldon_propgraph::{build_source, FileId};
use seldon_specs::TaintSpec;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn temp_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("seldon-cache-test-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn fixture() -> (Corpus, TaintSpec) {
    let universe = Universe::new();
    let corpus = generate_corpus(
        &universe,
        &CorpusOptions { projects: 10, rng_seed: 11, ..Default::default() },
    );
    (corpus, universe.seed_spec())
}

fn opts_with(cache: Option<Arc<ArtifactCache>>) -> AnalyzeOptions {
    AnalyzeOptions { policy: FaultPolicy::Recover, cache, ..Default::default() }
}

/// One full pipeline run, optionally over a cache rooted at `dir`. Each
/// call opens a fresh [`ArtifactCache`] handle, so counters reflect only
/// that run — exactly what a new process would see.
fn run_with(corpus: &Corpus, seed: &TaintSpec, dir: Option<&Path>) -> (FullRun, CacheStats) {
    let cache = dir.map(|d| Arc::new(ArtifactCache::open(d).expect("cache opens").0));
    let full = run_full(corpus, seed, "learn", &opts_with(cache.clone()), &SeldonOptions::default())
        .expect("fixture corpus analyzes");
    let stats = cache.map(|c| c.stats()).unwrap_or_default();
    (full, stats)
}

#[test]
fn warm_run_is_byte_identical_and_takes_the_full_checkpoint_path() {
    let dir = temp_dir("warm");
    let (corpus, seed) = fixture();

    let (cold, cold_stats) = run_with(&corpus, &seed, Some(&dir));
    assert_eq!(cold.checkpoint.outcome, CheckpointOutcome::MissCold);
    assert!(cold.report.cache_faults.is_empty(), "{:?}", cold.report.cache_faults);
    assert_eq!(cold_stats.hits, 0);
    assert_eq!(cold_stats.misses, corpus.file_count() as u64);
    assert!(cold_stats.stores > 0, "artifacts and checkpoint stored");

    let (warm, warm_stats) = run_with(&corpus, &seed, Some(&dir));
    assert_eq!(warm.checkpoint.outcome, CheckpointOutcome::HitFull);
    assert!(warm.report.cache_faults.is_empty(), "{:?}", warm.report.cache_faults);
    assert_eq!(warm_stats.hits, corpus.file_count() as u64, "every artifact served");
    assert_eq!(warm_stats.misses, 0);

    // Byte-identical outputs: the learned spec, the score vector (to the
    // bit), and the taint verdict.
    assert_eq!(warm.run.extraction.spec.to_text(), cold.run.extraction.spec.to_text());
    assert_eq!(warm.run.solution.scores.len(), cold.run.solution.scores.len());
    for (a, b) in cold.run.solution.scores.iter().zip(&warm.run.solution.scores) {
        assert_eq!(a.to_bits(), b.to_bits(), "scores replay bit-for-bit");
    }
    assert_eq!(warm.violations.len(), cold.violations.len());

    // And both match the entirely uncached pipeline.
    let (uncached, _) = run_with(&corpus, &seed, None);
    assert_eq!(uncached.checkpoint.outcome, CheckpointOutcome::Disabled);
    assert_eq!(uncached.run.extraction.spec.to_text(), cold.run.extraction.spec.to_text());
}

#[test]
fn injected_faults_are_contained_and_never_change_the_spec() {
    let dir = temp_dir("inject");
    let (corpus, seed) = fixture();
    let (cold, _) = run_with(&corpus, &seed, Some(&dir));
    let spec = cold.run.extraction.spec.to_text();

    // Damage every cache file; the kind rotation covers torn writes,
    // truncations, bit flips, stale schema stamps, and the missing index.
    let injected = inject_cache_faults(&dir, 1.0, 0xFA01);
    assert!(injected.len() > 1, "all entries + checkpoint damaged: {injected:?}");

    let (hurt, hurt_stats) = run_with(&corpus, &seed, Some(&dir));
    assert_eq!(hurt.run.extraction.spec.to_text(), spec, "damage never reaches the spec");
    assert!(
        !hurt.report.cache_faults.is_empty(),
        "damage is detected and reported, not hidden"
    );
    assert!(
        !hurt.report.is_degraded(),
        "cache faults recompute; they do not degrade the run"
    );
    assert!(hurt_stats.corrupt + hurt_stats.stale > 0, "{hurt_stats:?}");

    // Damaged entries were quarantined and rebuilt: the next run is warm
    // and clean again.
    let (healed, healed_stats) = run_with(&corpus, &seed, Some(&dir));
    assert_eq!(healed.checkpoint.outcome, CheckpointOutcome::HitFull);
    assert_eq!(healed.run.extraction.spec.to_text(), spec);
    assert!(healed.report.cache_faults.is_empty(), "{:?}", healed.report.cache_faults);
    assert_eq!(healed_stats.hits, corpus.file_count() as u64);
    assert!(dir.join("quarantine").is_dir(), "damaged entries kept as evidence");
}

#[test]
fn partial_damage_plans_never_change_the_spec() {
    let (corpus, seed) = fixture();
    // Different seeds pick different subsets and different damage bytes;
    // every plan must leave the learned specification untouched.
    for round in 0..3u64 {
        let dir = temp_dir(&format!("plan{round}"));
        let (cold, _) = run_with(&corpus, &seed, Some(&dir));
        let spec = cold.run.extraction.spec.to_text();
        let injected = inject_cache_faults(&dir, 0.4, round);
        assert!(!injected.is_empty(), "rate 0.4 damages something (round {round})");
        let (hurt, _) = run_with(&corpus, &seed, Some(&dir));
        assert_eq!(hurt.run.extraction.spec.to_text(), spec, "round {round}");
        assert!(!hurt.report.is_degraded(), "round {round}");
    }
}

#[test]
fn stale_index_version_clears_entries_and_recovers() {
    let dir = temp_dir("stale-index");
    let (corpus, seed) = fixture();
    run_with(&corpus, &seed, Some(&dir));

    // A future (or past) format version in the index stamp invalidates the
    // whole directory: every entry is cleared on open.
    std::fs::write(dir.join(INDEX_NAME), encode_entry(br#"{"entry_version":999}"#))
        .expect("overwrite index");
    let (cache, faults) = ArtifactCache::open(&dir).expect("open survives stale index");
    assert!(
        faults.iter().any(|f| f.entry == INDEX_NAME),
        "stale index reported: {faults:?}"
    );
    drop(cache);
    let leftover = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(Result::ok)
        .filter(|e| e.file_name().to_string_lossy().ends_with(".entry"))
        .count();
    assert_eq!(leftover, 0, "stale-format entries are cleared, not trusted");

    // The next run recomputes everything and the cache heals.
    let (rebuilt, stats) = run_with(&corpus, &seed, Some(&dir));
    assert!(!rebuilt.report.is_degraded());
    assert_eq!(stats.hits, 0);
    assert!(stats.stores > 0);
}

#[test]
fn extract_option_change_solves_cold_then_replays() {
    let dir = temp_dir("extract-option");
    let (corpus, seed) = fixture();
    run_with(&corpus, &seed, Some(&dir));

    // Changing an extraction threshold misses the input fingerprint: the
    // run solves cold and matches an uncached run under the new options.
    let seldon = {
        let mut s = SeldonOptions::default();
        s.extract.decay *= 0.5;
        s
    };
    let open = |d: &Path| Some(Arc::new(ArtifactCache::open(d).expect("cache opens").0));
    let warm = run_full(&corpus, &seed, "learn", &opts_with(open(&dir)), &seldon).expect("runs");
    assert_eq!(warm.checkpoint.outcome, CheckpointOutcome::MissCold);
    let cold_again =
        run_full(&corpus, &seed, "learn", &opts_with(None), &seldon).expect("runs");
    assert_eq!(
        warm.run.extraction.spec.to_text(),
        cold_again.run.extraction.spec.to_text()
    );

    // The checkpoint was re-keyed: the same options now take the full path.
    let warm2 = run_full(&corpus, &seed, "learn", &opts_with(open(&dir)), &seldon).expect("runs");
    assert_eq!(warm2.checkpoint.outcome, CheckpointOutcome::HitFull);
    assert_eq!(
        warm2.run.extraction.spec.to_text(),
        warm.run.extraction.spec.to_text()
    );
}

#[test]
fn span_only_edit_replays_the_checkpoint() {
    let dir = temp_dir("span-edit");
    let (mut corpus, seed) = fixture();
    run_with(&corpus, &seed, Some(&dir));

    // A comment line at the top of one file moves every span after it but
    // leaves what learning reads intact: the next run replays.
    let file = &mut corpus.projects[0].files[0];
    file.content.insert_str(0, "# moved down one line\n");
    let (edited, _) = run_with(&corpus, &seed, Some(&dir));
    assert_eq!(edited.checkpoint.outcome, CheckpointOutcome::HitFull);
    let (uncached, _) = run_with(&corpus, &seed, None);
    assert_eq!(edited.run.extraction.spec.to_text(), uncached.run.extraction.spec.to_text());
    assert_eq!(edited.violations, uncached.violations, "same taint violations");
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Builds a small Python module wiring `pairs` into a call chain, so
    /// the graph carries calls, edges, and argument positions.
    fn source_for(pairs: &[(String, String)]) -> String {
        let mut src = String::new();
        for (module, _) in pairs {
            src.push_str(&format!("import {module}\n"));
        }
        src.push_str("v0 = stdinutil.read_line()\n");
        for (i, (module, func)) in pairs.iter().enumerate() {
            src.push_str(&format!("v{} = {module}.{func}(v{})\n", i + 1, i));
        }
        src
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Satellite of the crash-safety guarantee: serializing an
        /// artifact, dropping every `Symbol` with its table, and
        /// interning the stored representation *strings* anew reconstructs
        /// the same graph content — same fingerprint, same learned spec,
        /// byte for byte. The `m_`/`f_` prefixes keep generated names
        /// clear of Python keywords.
        #[test]
        fn artifact_round_trip_reinterns_to_the_same_spec(
            pairs in prop::collection::vec(
                ("m_[a-z0-9]{0,6}", "f_[a-z0-9]{0,6}"),
                1..6,
            ),
            recovered in 0usize..3,
        ) {
            let src = source_for(&pairs);
            let graph = build_source(&src, FileId(3)).expect("generated source parses");
            let payload = encode(&graph, ArtifactMeta::of(&graph, recovered));

            // Cross-process boundary: only bytes survive.
            let (rebuilt, back) = decode(&payload, FileId(3)).expect("payload decodes");
            prop_assert_eq!(back, ArtifactMeta::of(&graph, recovered));
            prop_assert_eq!(encode(&rebuilt, back), payload, "re-encoding gives the same bytes");

            prop_assert_eq!(rebuilt.event_count(), graph.event_count());
            prop_assert_eq!(rebuilt.edge_count(), graph.edge_count());
            prop_assert_eq!(
                graph_fingerprint(&rebuilt),
                graph_fingerprint(&graph),
                "content-level fingerprint survives a fresh table"
            );

            // The spec learned from the rebuilt graph is byte-identical.
            let universe = Universe::new();
            let seed = universe.seed_spec();
            let opts = SeldonOptions::default();
            let a = run_seldon(&graph, &seed, &opts);
            let b = run_seldon(&rebuilt, &seed, &opts);
            prop_assert_eq!(
                a.extraction.spec.to_text().into_bytes(),
                b.extraction.spec.to_text().into_bytes()
            );
        }
    }
}
