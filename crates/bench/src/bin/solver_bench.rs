//! Measures the solve stage: a naive per-row hot loop over the
//! system's weighted rows against the compiled CSR kernel (lanes, slot
//! buffers, locality order), on a corpus scaled so solving dominates
//! (`--projects <n>`, default 1,800). Prints one plain table of median
//! solve times: the naive loop, the compiled kernel with the full budget
//! and with early stop, and a per-thread-count sweep with early stop
//! (`--threads-sweep 1,2,4,8` to override the sweep). Asserts output
//! identity: the extracted spec must be byte-identical across {naive,
//! compiled full-budget, compiled early-stop}, and the scores and stop
//! epoch equal across every swept thread count.
//!
//! `--determinism [golden_path] [--early-stop]` instead runs the golden
//! e2e fixture at 1 and 4 solver threads and diffs the extracted specs
//! (and, when a path is given, the checked-in golden file) — the CI
//! thread-determinism gate. The gate solves with the legacy full-budget
//! options by default; `--early-stop` runs the same leg with the default
//! plateau detector enabled, which must reproduce the same golden spec.
//! Exits non-zero on any mismatch.

use seldon_bench::{bench_corpus, median_ms, Table};
use seldon_core::{analyze_corpus, run_seldon, SeldonOptions};
use seldon_corpus::{generate_corpus, CorpusOptions, Universe};
use seldon_solver::{
    extract, solve_compiled, Adam, AdamConfig, CompiledSystem, EarlyStop, ExtractOptions,
    SolveOptions, Solution,
};
use std::process::ExitCode;
use std::time::Instant;

const ROUNDS: usize = 3;

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

    let (corpus, seed) = bench_corpus(projects);
    let analyzed = analyze_corpus(&corpus).expect("bench corpus analyzes");
    let run = run_seldon(&analyzed.graph, &seed, &SeldonOptions::default());
    let system = run.system;
    let full_opts = SolveOptions { early_stop: None, ..Default::default() };

    // --- before: the naive loop (always full-budget) -----------------------
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

    // --- output identity ----------------------------------------------------
    let extract_opts = ExtractOptions::default();
    let spec_before = extract(&system, &before, &extract_opts).spec.to_text();
    let spec_full = extract(&system, &full, &extract_opts).spec.to_text();
    let spec_early = extract(&system, &early, &extract_opts).spec.to_text();
    assert_eq!(spec_before, spec_full, "compiled kernel must reproduce the naive spec");
    assert_eq!(spec_full, spec_early, "early-stop must learn the same spec as full budget");
    for (t, _, sol) in &sweep {
        let same = early.scores.len() == sol.scores.len()
            && early.scores.iter().zip(&sol.scores).all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(same, "scores at {t} threads must be bitwise identical to 1 thread");
        assert_eq!(early.iterations, sol.iterations, "stop epoch must be thread-invariant");
    }

    let before_ms = median_ms(before_samples);
    let compile_ms = median_ms(compile_samples);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut table = Table::new(
        format!("solve stage, median ms of {ROUNDS} rounds"),
        &["kernel", "threads", "stop", "solve ms", "iterations", "ms/iter", "vs naive"],
    );
    let mut row = |kernel: &str, threads: usize, stop: &str, ms: f64, iterations: usize| {
        table.row(&[
            kernel.to_string(),
            threads.to_string(),
            stop.to_string(),
            format!("{ms:.1}"),
            iterations.to_string(),
            format!("{:.3}", ms / iterations.max(1) as f64),
            format!("{:.2}x", before_ms / ms),
        ]);
    };
    // The naive loop reports no stop reason.
    row("naive", 1, "-", before_ms, before.iterations);
    row("compiled, full budget", 1, full.stop.as_str(), full_ms, full.iterations);
    row("compiled, early stop", 1, early.stop.as_str(), early_ms, early.iterations);
    for (t, ms, sol) in &sweep {
        row("thread sweep, early stop", *t, sol.stop.as_str(), *ms, sol.iterations);
    }
    table.note(format!(
        "{projects} projects, {} files: {} constraints, {} rows over {} variables \
         ({} terms, {} lanes); compile {compile_ms:.1} ms; {cores} core(s); budget {} epochs",
        corpus.file_count(),
        system.constraint_count(),
        compiled.row_count(),
        system.var_count(),
        compiled.term_count(),
        compiled.lane_count(),
        full_opts.max_iters,
    ));
    table.note(
        "specs byte-identical across naive, full budget and early stop; scores bitwise \
         identical across the thread sweep",
    );
    print!("{}", table.render());
    ExitCode::SUCCESS
}
