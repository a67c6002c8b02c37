//! The traced learn op: `seldon learn` rebuilt from the public functions
//! each layer exports, with a span recorded by this benchmark around every
//! layer call. The program itself records nothing.
//!
//! Per-file work (cache lookups and stores, Python parse/lower/build, JS
//! builds) is timed per call and recorded as one aggregate child span per
//! layer, as the pipeline's own telemetry does for per-file stages; the
//! corpus-wide stages are live child spans. Tests check the rebuilt op
//! learns the same spec bytes as `run_full`.

use crate::inputs;
use crate::learn::{analyze_opts, learn_opts, open_cache, Learned};
use crate::Run;
use seldon_cache::ArtifactLookup;
use seldon_constraints::generate_with_stats;
use seldon_core::{
    analysis_cache_key, analyze_file, run_seldon_cached, CheckpointOutcome, FileOutcome, Frontend,
};
use seldon_propgraph::{build_ir, lower_module_budgeted, Budget, FileId, PropagationGraph};
use seldon_solver::{extract, solve_compiled, CompiledSystem, Extraction};
use seldon_specs::TaintSpec;
use seldon_taint::TaintAnalyzer;
use seldon_telemetry::{RunManifest, SpanRecord, Telemetry};
use std::path::Path;
use std::time::{Duration, Instant};

/// Accumulated per-file work of one op.
#[derive(Debug, Default)]
struct PerFile {
    load: Duration,
    store: Duration,
    parse: Duration,
    lower: Duration,
    build: Duration,
    js: Duration,
    py_files: usize,
    py_bytes: usize,
    lenient_retries: usize,
    js_files: usize,
    faults: usize,
    quarantined: usize,
}

/// The Python frontend path of one file under the CLI's `Recover` policy:
/// strict parse, lenient re-parse on failure, budgeted lowering, graph
/// build. `None` when the budget quarantines the file.
fn build_python(
    src: &str,
    id: FileId,
    budget: &Budget,
    t: &mut PerFile,
) -> Option<(PropagationGraph, usize)> {
    if src.len() > budget.max_source_bytes {
        return None;
    }
    let started = Instant::now();
    let (module, recovered) = match seldon_pyast::parse(src) {
        Ok(module) => (module, 0),
        Err(_) => {
            t.lenient_retries += 1;
            let (module, errors) = seldon_pyast::parse_lenient(src);
            (module, errors.len().max(1))
        }
    };
    t.parse += started.elapsed();
    t.py_files += 1;
    t.py_bytes += src.len();
    let started = Instant::now();
    let ir = lower_module_budgeted(&module, budget);
    t.lower += started.elapsed();
    let ir = ir.ok()?;
    let started = Instant::now();
    let graph = build_ir(&ir, id);
    t.build += started.elapsed();
    Some((graph, recovered))
}

/// One traced `seldon learn <root> [--cache-dir <dir>]`: a `learn` root
/// span whose children are the layer spans.
pub fn learn_traced(
    root: &Path,
    seed: &TaintSpec,
    cache_dir: Option<&Path>,
    tele: &Telemetry,
) -> Result<Learned, String> {
    let op = tele.span("learn");
    let corpus = {
        let _s = tele.span("core.read");
        inputs::read_corpus(root).map_err(|e| format!("read {}: {e}", root.display()))?
    };
    let cache = match cache_dir {
        None => None,
        Some(dir) => {
            let _s = tele.span("cache.open");
            Some(open_cache(dir)?)
        }
    };
    let opts = analyze_opts(cache.clone());
    let uncached = analyze_opts(None);
    let budget = opts.budget.clone().expect("the CLI always sets a budget");
    let files = &corpus.projects[0].files;

    let mut t = PerFile::default();
    let mut graphs: Vec<PropagationGraph> = Vec::with_capacity(files.len());
    for (i, f) in files.iter().enumerate() {
        let id = FileId(i as u32);
        let mut key = 0;
        if let Some(cache) = cache.as_deref() {
            let started = Instant::now();
            key = analysis_cache_key(&f.path, &f.content, &opts);
            let looked = cache.load_artifact(key, id);
            t.load += started.elapsed();
            match looked {
                ArtifactLookup::Hit(graph, _) => {
                    graphs.push(graph);
                    continue;
                }
                ArtifactLookup::Miss => {}
                ArtifactLookup::Fault(_) => t.faults += 1,
            }
        }
        let built = match Frontend::of_path(&f.path) {
            Frontend::Python => build_python(&f.content, id, &budget, &mut t),
            Frontend::Js => {
                let started = Instant::now();
                let analysis = analyze_file(&f.path, &f.content, id, &uncached);
                t.js += started.elapsed();
                t.js_files += 1;
                let recovered = match analysis.outcome {
                    FileOutcome::Recovered { errors } => errors,
                    _ => 0,
                };
                analysis.graph.map(|g| (g, recovered))
            }
        };
        let Some((graph, recovered)) = built else {
            t.quarantined += 1;
            continue;
        };
        if let Some(cache) = cache.as_deref() {
            let started = Instant::now();
            if cache.store_artifact(key, &graph, recovered).is_some() {
                t.faults += 1;
            }
            t.store += started.elapsed();
        }
        graphs.push(graph);
    }
    let parent = op.index();
    let count = |n: usize| n as f64;
    tele.aggregate_child(
        parent,
        "pyast.parse",
        t.parse,
        &[
            ("pyast.files", count(t.py_files)),
            ("pyast.bytes", count(t.py_bytes)),
            ("pyast.lenient_retries", count(t.lenient_retries)),
        ],
    );
    tele.aggregate_child(parent, "propgraph.lower", t.lower, &[]);
    tele.aggregate_child(parent, "propgraph.build_ir", t.build, &[]);
    tele.aggregate_child(parent, "jsfront.build", t.js, &[("jsfront.files", count(t.js_files))]);
    if let Some(cache) = cache.as_deref() {
        let s = cache.stats();
        tele.aggregate_child(
            parent,
            "cache.load",
            t.load,
            &[
                ("cache.hits", s.hits as f64),
                ("cache.misses", s.misses as f64),
                ("cache.bytes_read", s.bytes_read as f64),
                ("cache.faults", count(t.faults)),
            ],
        );
        tele.aggregate_child(
            parent,
            "cache.store",
            t.store,
            &[("cache.bytes_written", s.bytes_written as f64)],
        );
    }

    let graph = {
        let s = tele.span("propgraph.union");
        let mut union = PropagationGraph::new();
        union.reserve_events(graphs.iter().map(PropagationGraph::event_count).sum());
        for g in &graphs {
            union.union(g);
        }
        s.counter("propgraph.events", count(union.event_count()));
        s.counter("propgraph.edges", count(union.edge_count()));
        union
    };

    let learn = learn_opts(files.len());
    let extraction: Extraction = match cache.as_deref() {
        Some(cache) => {
            let s = tele.span("core.checkpointed");
            let (run, used) =
                run_seldon_cached(&graph, seed, &learn, &Telemetry::disabled(), Some(cache));
            let cold = used.outcome == CheckpointOutcome::MissCold;
            s.counter("core.checkpoint_cold", f64::from(u8::from(cold)));
            s.counter("core.checkpoint_reused", f64::from(u8::from(!cold)));
            s.counter("constraints.count", count(run.system.constraint_count()));
            s.counter("constraints.vars", count(run.system.var_count()));
            s.counter("solver.iterations", count(run.solution.iterations));
            s.counter("solver.learned_entries", count(run.extraction.spec.role_count()));
            run.extraction
        }
        None => {
            let s = tele.span("constraints.gen");
            let (system, stats) = generate_with_stats(&graph, seed, &learn.gen);
            s.counter("constraints.count", count(system.constraint_count()));
            s.counter("constraints.vars", count(system.var_count()));
            s.counter("constraints.candidate_events", count(stats.candidate_events));
            s.counter("constraints.surviving_reps", count(stats.surviving_reps));
            drop(s);
            let s = tele.span("solver.compile");
            let compiled = CompiledSystem::compile(&system);
            s.counter("solver.rows", count(compiled.row_count()));
            drop(s);
            let s = tele.span("solver.solve");
            let solution = solve_compiled(&compiled, &learn.solve);
            s.counter("solver.iterations", count(solution.iterations));
            drop(s);
            let s = tele.span("solver.extract");
            let extraction = extract(&system, &solution, &learn.extract);
            s.counter("solver.learned_entries", count(extraction.spec.role_count()));
            drop(s);
            extraction
        }
    };

    {
        let s = tele.span("taint");
        let mut full_spec = seed.clone();
        full_spec.merge(&extraction.spec);
        let analyzer = TaintAnalyzer::with_event_roles(&graph, &full_spec, &extraction.event_roles);
        s.counter("taint.violations", count(analyzer.find_violations().len()));
    }
    let spec = extraction.spec;
    Ok(Learned { text: spec.to_text(), spec, quarantined: t.quarantined })
}

/// How many traced ops the Chrome trace keeps; the per-layer metrics use
/// every traced op.
const TRACE_OPS: usize = 8;

/// Writes the spans of the first traced ops as a Chrome trace-event file
/// (`chrome://tracing` or ui.perfetto.dev) under the run's trace
/// directory, and returns its path.
pub fn write_chrome_trace(run: &Run, spans: &[SpanRecord]) -> Result<String, String> {
    let roots: Vec<usize> =
        spans.iter().enumerate().filter(|(_, s)| s.depth == 0).map(|(i, _)| i).collect();
    let cut = roots.get(TRACE_OPS).copied().unwrap_or(spans.len());
    let mut manifest = RunManifest::new("pipeline_bench");
    manifest.stages = spans[..cut].iter().cloned().map(Into::into).collect();
    std::fs::create_dir_all(&run.traces).map_err(|e| format!("trace dir: {e}"))?;
    let path = run.traces.join(format!("{}-seed{}.trace.json", run.workload.name(), run.seed));
    std::fs::write(&path, manifest.chrome_trace()).map_err(|e| format!("write trace: {e}"))?;
    Ok(path.display().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{generate, test_dir, CorpusShape, Tree};
    use crate::learn::learn;

    #[test]
    fn the_traced_op_learns_the_spec_bytes_of_run_full() {
        let work = test_dir("traced");
        let generated = generate(6, CorpusShape { py: 9, js: 3 });
        let tree = Tree::write(&work.join("corpus"), &generated.files).expect("write corpus");
        let (root, seed) = (tree.root(), &generated.seed);
        let reference = learn(root, seed, None).expect("run_full").text;
        assert!(!reference.is_empty(), "the tiny corpus still learns entries");

        let tele = Telemetry::recording();
        let uncached = learn_traced(root, seed, None, &tele).expect("traced op");
        assert_eq!(uncached.text, reference, "without a cache");
        let cache = work.join("cache");
        for pass in ["empty", "filled"] {
            let cached = learn_traced(root, seed, Some(&cache), &tele).expect("traced op");
            assert_eq!(cached.text, reference, "over an {pass} cache");
        }
        assert_eq!(
            learn(root, seed, Some(&cache)).expect("run_full").text,
            reference,
            "run_full over the cache the traced op filled"
        );

        let spans = tele.take_spans();
        assert_eq!(spans.iter().filter(|s| s.depth == 0 && s.name == "learn").count(), 3);
        for layer in [
            "core.read",
            "pyast.parse",
            "jsfront.build",
            "propgraph.lower",
            "propgraph.build_ir",
            "propgraph.union",
            "cache.open",
            "cache.load",
            "cache.store",
            "core.checkpointed",
            "constraints.gen",
            "solver.compile",
            "solver.solve",
            "solver.extract",
            "taint",
        ] {
            assert!(
                spans.iter().any(|s| s.name == layer && s.depth == 1),
                "a `{layer}` span is a child of its op's root span"
            );
        }
        std::fs::remove_dir_all(&work).expect("clean up");
    }
}
