//! Measures the solve stage: a naive per-row hot loop over the
//! system's weighted rows against the compiled CSR kernel (lanes, slot
//! buffers, locality order), on a corpus scaled so solving
//! dominates. Emits one [`BenchRecord`] JSON object on stdout
//! (`BENCH_solver.json` records a release-build run) covering the
//! full-budget vs early-stop comparison and a per-thread-count scaling
//! table (`--threads-sweep 1,2,4,8` to override the sweep), and asserts
//! output identity: the extracted spec must be byte-identical across
//! {naive, compiled full-budget, compiled early-stop} and the scores
//! bitwise equal across every swept thread count.
//!
//! `--determinism [golden_path] [--early-stop]` instead runs the golden
//! e2e fixture at 1 and 4 solver threads and diffs the extracted specs
//! (and, when a path is given, the checked-in golden file) — the CI
//! thread-determinism gate. The gate solves with the legacy full-budget
//! options by default; `--early-stop` runs the same leg with the default
//! plateau detector enabled, which must reproduce the same golden spec.
//! Exits non-zero on any mismatch.

use seldon_core::{analyze_corpus, run_seldon, SeldonOptions};
use seldon_corpus::{generate_corpus, CorpusOptions, Universe};
use seldon_solver::{
    extract, solve_compiled, Adam, AdamConfig, CompiledSystem, EarlyStop, ExtractOptions,
    SolveOptions, Solution,
};
use seldon_telemetry::BenchRecord;
use std::process::ExitCode;
use std::time::Instant;

const ROUNDS: usize = 3;

fn median_ms(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// The pre-kernel solver, kept as the bench baseline: a per-epoch walk
/// over the system's weighted rows in stored order (each row's gap and
/// gradient scaled by its weight), a dense gradient buffer, and
/// `Adam::step_projected` — including the
/// stall/divergence/restart control flow, so epoch counts are comparable.
mod naive {
    use super::*;
    use seldon_constraints::ConstraintSystem;

    const RESTART_LR_SCALE: f64 = 0.25;

    struct AdamRun {
        x: Vec<f64>,
        iterations: usize,
        diverged: bool,
    }

    fn run_adam(sys: &ConstraintSystem, opts: &SolveOptions, lr_scale: f64) -> AdamRun {
        let n = sys.var_count();
        let mut x = vec![0.0f64; n];
        let pinned: Vec<(usize, f64)> =
            sys.pinned_vars().map(|(v, val)| (v.index(), val)).collect();
        let apply_pins = |x: &mut [f64]| {
            for &(i, val) in &pinned {
                x[i] = val;
            }
        };
        apply_pins(&mut x);

        let lr = opts.adam.lr * lr_scale;
        let mut adam = Adam::new(n, AdamConfig { lr, ..opts.adam.clone() });
        let mut grad = vec![0.0f64; n];
        let mut best = f64::INFINITY;
        let mut stall = 0usize;
        let mut iterations = 0usize;
        let mut diverged = false;

        for iter in 0..opts.max_iters {
            iterations = iter + 1;
            grad.iter_mut().for_each(|g| *g = opts.lambda);
            let mut violation = 0.0;
            for row in sys.rows() {
                let gap = row.gap(&x) - sys.c;
                if gap > 0.0 {
                    let weight = f64::from(row.weight);
                    violation += weight * gap;
                    for &(v, coeff) in row.terms {
                        grad[v as usize] += weight * coeff;
                    }
                }
            }
            let objective = violation + opts.lambda * x.iter().sum::<f64>();
            if !objective.is_finite() {
                diverged = true;
                break;
            }
            adam.step_projected(&mut x, &grad, 0.0, 1.0);
            apply_pins(&mut x);
            if x.iter().any(|s| !s.is_finite()) {
                diverged = true;
                break;
            }
            if objective + opts.tol < best {
                best = objective;
                stall = 0;
            } else {
                stall += 1;
                if stall >= 50 {
                    break;
                }
            }
        }
        AdamRun { x, iterations, diverged }
    }

    pub fn solve(sys: &ConstraintSystem, opts: &SolveOptions) -> Solution {
        let mut run = run_adam(sys, opts, 1.0);
        if run.diverged {
            run = run_adam(sys, opts, RESTART_LR_SCALE);
        }
        let AdamRun { mut x, iterations, diverged } = run;
        for s in &mut x {
            if !s.is_finite() {
                *s = 0.0;
            } else {
                *s = s.clamp(0.0, 1.0);
            }
        }
        for (v, val) in sys.pinned_vars() {
            x[v.index()] = val;
        }
        let mut violation = 0.0;
        for row in sys.rows() {
            let gap = row.gap(&x) - sys.c;
            if gap > 0.0 {
                violation += f64::from(row.weight) * gap;
            }
        }
        let objective = violation + opts.lambda * x.iter().sum::<f64>();
        Solution { scores: x, objective, violation, iterations, diverged, ..Default::default() }
    }
}

/// The CI thread-determinism gate: golden fixture, solver threads 1 vs 4,
/// extracted specs diffed byte-for-byte (plus the checked-in golden file
/// when a path is given). `early_stop` selects the gate leg: the legacy
/// full-budget solve, or the same solve with the default plateau detector
/// enabled — both must land on the same golden spec.
fn determinism_gate(golden_path: Option<&str>, early_stop: Option<EarlyStop>) -> ExitCode {
    let universe = Universe::new();
    let corpus = generate_corpus(
        &universe,
        &CorpusOptions { projects: 60, rng_seed: 1234, ..Default::default() },
    );
    let analyzed = analyze_corpus(&corpus).expect("fixture corpus analyzes");
    let seed = universe.seed_spec();
    let solve_with = |threads: usize| {
        let opts = SeldonOptions {
            solve: SolveOptions {
                threads,
                early_stop: early_stop.clone(),
                ..Default::default()
            },
            ..Default::default()
        };
        run_seldon(&analyzed.graph, &seed, &opts)
    };
    let run1 = solve_with(1);
    let run4 = solve_with(4);
    let spec1 = run1.extraction.spec.to_text();
    let spec4 = run4.extraction.spec.to_text();
    let scores_equal = run1.solution.scores.len() == run4.solution.scores.len()
        && run1
            .solution
            .scores
            .iter()
            .zip(&run4.solution.scores)
            .all(|(a, b)| a.to_bits() == b.to_bits());
    if !scores_equal {
        eprintln!("determinism FAIL: scores differ between 1 and 4 solver threads");
        return ExitCode::from(1);
    }
    if spec1 != spec4 {
        eprintln!("determinism FAIL: extracted spec differs between 1 and 4 solver threads");
        return ExitCode::from(1);
    }
    if let Some(path) = golden_path {
        let golden = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read golden spec {path}: {e}"));
        if spec1 != golden {
            eprintln!("determinism FAIL: extracted spec differs from {path}");
            return ExitCode::from(1);
        }
    }
    println!(
        "determinism PASS ({}): {} scores and {}-byte spec identical at 1 and 4 threads \
         (stop: {})",
        if early_stop.is_some() { "early-stop" } else { "full-budget" },
        run1.solution.scores.len(),
        spec1.len(),
        run1.solution.stop,
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--determinism") {
        let early_stop = if args.iter().any(|a| a == "--early-stop") {
            Some(EarlyStop::default())
        } else {
            None
        };
        let golden = args[1..].iter().find(|a| !a.starts_with("--")).map(String::as_str);
        return determinism_gate(golden, early_stop);
    }
    let mut projects = 1800usize;
    if let Some(i) = args.iter().position(|a| a == "--projects") {
        projects = args[i + 1].parse().expect("--projects expects a number");
    }
    let mut threads_sweep: Vec<usize> = vec![1, 2, 4, 8];
    if let Some(i) = args.iter().position(|a| a == "--threads-sweep") {
        threads_sweep = args[i + 1]
            .split(',')
            .map(|t| t.trim().parse().expect("--threads-sweep expects comma-separated counts"))
            .collect();
        assert!(!threads_sweep.is_empty(), "--threads-sweep expects at least one count");
    }

    let universe = Universe::new();
    let corpus = generate_corpus(
        &universe,
        &CorpusOptions {
            projects,
            files_per_project: (3, 5),
            rng_seed: 0xC0FFEE,
            ..Default::default()
        },
    );
    let analyzed = analyze_corpus(&corpus).expect("bench corpus analyzes");
    let seed = universe.seed_spec();
    let run = run_seldon(&analyzed.graph, &seed, &SeldonOptions::default());
    let system = run.system;
    let full_opts = SolveOptions { early_stop: None, ..Default::default() };

    // --- before: the pre-PR naive loop (always full-budget) ----------------
    let mut before_samples = Vec::with_capacity(ROUNDS);
    let mut before = Solution::default();
    for _ in 0..ROUNDS {
        let t = Instant::now();
        before = naive::solve(&system, &full_opts);
        before_samples.push(t.elapsed().as_secs_f64() * 1e3);
    }

    // --- after: compile once, then full-budget vs early-stop ---------------
    let mut compile_samples = Vec::with_capacity(ROUNDS);
    let mut compiled = CompiledSystem::compile(&system);
    for _ in 0..ROUNDS {
        let t = Instant::now();
        compiled = CompiledSystem::compile(&system);
        compile_samples.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let timed_solve = |threads: usize, early_stop: Option<EarlyStop>| {
        let opts = SolveOptions { threads, early_stop, ..Default::default() };
        let mut samples = Vec::with_capacity(ROUNDS);
        let mut solution = Solution::default();
        for _ in 0..ROUNDS {
            let t = Instant::now();
            solution = solve_compiled(&compiled, &opts);
            samples.push(t.elapsed().as_secs_f64() * 1e3);
        }
        (median_ms(samples), solution)
    };
    let (full_ms, full) = timed_solve(1, None);
    let (early_ms, early) = timed_solve(1, Some(EarlyStop::default()));

    // --- threads sweep: early-stop on, scores bitwise across the sweep -----
    let sweep: Vec<(usize, f64, Solution)> = threads_sweep
        .iter()
        .map(|&t| {
            let (ms, sol) = timed_solve(t, Some(EarlyStop::default()));
            (t, ms, sol)
        })
        .collect();
    let base_1t_ms = sweep
        .iter()
        .find(|(t, _, _)| *t == 1)
        .map(|(_, ms, _)| *ms)
        .unwrap_or(early_ms);

    // --- output identity ----------------------------------------------------
    let extract_opts = ExtractOptions::default();
    let spec_before = extract(&system, &before, &extract_opts).spec.to_text();
    let spec_full = extract(&system, &full, &extract_opts).spec.to_text();
    let spec_early = extract(&system, &early, &extract_opts).spec.to_text();
    assert_eq!(spec_before, spec_full, "compiled kernel must reproduce the naive spec");
    assert_eq!(spec_full, spec_early, "early-stop must learn the same spec as full budget");
    let mut scores_bitwise = true;
    for (t, _, sol) in &sweep {
        let same = early.scores.len() == sol.scores.len()
            && early.scores.iter().zip(&sol.scores).all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(same, "scores at {t} threads must be bitwise identical to 1 thread");
        assert_eq!(early.iterations, sol.iterations, "stop epoch must be thread-invariant");
        scores_bitwise &= same;
    }

    let before_ms = median_ms(before_samples);
    let compile_ms = median_ms(compile_samples);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let max_iters = full_opts.max_iters;

    let mut r = BenchRecord::new(
        "solver",
        "solver_bench",
        format!(
            "medians of {ROUNDS} rounds, release build; solve stage wall-clock in ms; \
             scaling table sweeps solver threads with early-stop enabled"
        ),
    );
    r.num("corpus", "projects", projects as f64)
        .num("corpus", "files", corpus.file_count() as f64)
        .num("corpus", "constraints", system.constraint_count() as f64)
        .num("corpus", "rows", compiled.row_count() as f64)
        .num("corpus", "vars", system.var_count() as f64)
        .num("corpus", "terms", compiled.term_count() as f64)
        .num("corpus", "lanes", compiled.lane_count() as f64)
        .num("environment", "cores", cores as f64)
        .text(
            "environment",
            "note",
            &if cores == 1 {
                "single-core host at bench time: multi-thread rows in the scaling table \
                 measure determinism overhead, not parallelism"
                    .to_string()
            } else {
                format!(
                    "{cores}-core host at bench time: multi-thread rows in the scaling \
                     table measure real parallel scaling"
                )
            },
        )
        .num("before", "solve_ms", before_ms)
        .num("before", "iterations", before.iterations as f64)
        .num("before", "ms_per_iter", before_ms / before.iterations.max(1) as f64)
        .num("after_full_budget", "compile_ms", compile_ms)
        .num("after_full_budget", "solve_ms", full_ms)
        .num("after_full_budget", "iterations", full.iterations as f64)
        .num("after_full_budget", "speedup_vs_before", before_ms / full_ms)
        .num("after_early_stop", "solve_ms", early_ms)
        .num("after_early_stop", "iterations", early.iterations as f64)
        .num("after_early_stop", "speedup_vs_before", before_ms / early_ms)
        .num("early_stop", "budget_max_iters", max_iters as f64)
        .num("early_stop", "iterations_full", full.iterations as f64)
        .num("early_stop", "iterations_early", early.iterations as f64)
        .num("early_stop", "epochs_saved_vs_budget", early.epochs_saved as f64)
        .text("early_stop", "stop_reason_full", full.stop.as_str())
        .text("early_stop", "stop_reason_early", early.stop.as_str())
        .flag("early_stop", "spec_identical_full_vs_early", spec_full == spec_early);
    for (t, ms, sol) in &sweep {
        let section = format!("scaling_threads_{t}");
        r.num(&section, "solve_ms", *ms)
            .num(&section, "speedup_vs_1_thread", base_1t_ms / ms)
            .num(&section, "iterations", sol.iterations as f64);
    }
    r.flag("identity", "spec_identical_before_vs_after", spec_before == spec_full)
        .flag("identity", "spec_identical_full_vs_early_stop", spec_full == spec_early)
        .flag("identity", "scores_bitwise_across_threads_sweep", scores_bitwise);
    println!("{}", r.to_json());
    ExitCode::SUCCESS
}
