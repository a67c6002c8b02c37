//! Property tests for the compiled solver kernel: on random constraint
//! systems — fractional coefficients, duplicate variables within a
//! constraint, duplicate constraints across the system, pinned variables
//! — the CSR lowering must agree with a naive per-constraint walk on the
//! objective and the gradient, and a full solve must be bitwise
//! identical at 1 and 4 worker threads. Pins of the golden corpora's
//! compiled systems, solver outputs and taint reports guard bit-identity
//! end to end.
//!
//! The offline proptest stand-in only generates scalars, so each case
//! draws a `u64` seed and expands it into a full system with the rand
//! compat RNG — same depth of coverage, deterministic per seed.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use seldon_cache::{graph_fingerprint, union_graph_key, Fnv64};
use seldon_constraints::{generate_with_stats, ConstraintSystem, FlowConstraint, Term, VarId};
use seldon_core::{analyze_corpus, SeldonOptions};
use seldon_corpus::{generate_corpus, CorpusOptions, Lang, Universe};
use seldon_solver::{solve, solve_compiled, CompiledSystem, EarlyStop, SolveOptions, StopReason};
use seldon_specs::{Role, TaintSpec};
use seldon_taint::{TaintAnalyzer, TaintOptions};

const COEFFS: [f64; 5] = [0.1, 0.25, 0.5, 0.75, 1.0];

/// Expands a seed into a random system: 2–11 vars, 1–20 constraints of
/// 1–5 terms each (either side, palette coefficients, repeated vars),
/// up to two pins, and every third constraint duplicated verbatim so the
/// row store's cross-row combining is always exercised. Returns the
/// system and the constraints it was built from.
fn random_system(seed: u64) -> (ConstraintSystem, Vec<FlowConstraint>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n_vars = rng.gen_range(2usize..12);
    let c = COEFFS[rng.gen_range(0usize..COEFFS.len())] * 0.9 + 0.05;
    let mut sys = ConstraintSystem::new(c);
    let mut added = Vec::new();
    let vars: Vec<VarId> = (0..n_vars)
        .map(|i| {
            let rep = sys.rep(&format!("api{i}()"));
            sys.var(rep, Role::Source)
        })
        .collect();
    for _ in 0..rng.gen_range(0usize..3) {
        let v = vars[rng.gen_range(0..n_vars)];
        sys.pin(v, 1.0);
    }
    for ci in 0..rng.gen_range(1usize..21) {
        let mut con = FlowConstraint::default();
        for _ in 0..rng.gen_range(1usize..6) {
            let t = Term {
                var: vars[rng.gen_range(0..n_vars)],
                coeff: COEFFS[rng.gen_range(0usize..COEFFS.len())],
            };
            if rng.gen_bool(0.6) {
                con.lhs.push(t);
            } else {
                con.rhs.push(t);
            }
        }
        let copies = if ci % 3 == 2 { 2 } else { 1 };
        for _ in 0..copies {
            sys.add_constraint(con.clone());
            added.push(con.clone());
        }
    }
    (sys, added)
}

fn random_point(seed: u64, n: usize) -> Vec<f64> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
    (0..n).map(|_| rng.gen::<f64>()).collect()
}

/// The reference the kernel is checked against: the objective and
/// gradient computed from the constraints as generated, one at a time
/// with separate lhs/rhs sums and no row merging.
fn naive_objective_gradient(
    sys: &ConstraintSystem,
    constraints: &[FlowConstraint],
    x: &[f64],
    lambda: f64,
) -> (f64, Vec<f64>) {
    let mut violation = 0.0;
    let mut grad = vec![lambda; sys.var_count()];
    for c in constraints {
        let lhs: f64 = c.lhs.iter().map(|t| t.coeff * x[t.var.index()]).sum();
        let rhs: f64 = c.rhs.iter().map(|t| t.coeff * x[t.var.index()]).sum();
        let gap = lhs - rhs - sys.c;
        if gap > 0.0 {
            violation += gap;
            for t in &c.lhs {
                grad[t.var.index()] += t.coeff;
            }
            for t in &c.rhs {
                grad[t.var.index()] -= t.coeff;
            }
        }
    }
    let objective = violation + lambda * x.iter().sum::<f64>();
    (objective, grad)
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-12 * (1.0 + a.abs().max(b.abs()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Compiled objective and gradient agree with the naive walk to
    /// 1e-12 on arbitrary systems and points.
    #[test]
    fn compiled_matches_naive_walk(seed in any::<u64>(), li in 0usize..5) {
        let (sys, constraints) = random_system(seed);
        let lambda = [0.0, 0.05, 0.1, 0.25, 0.5][li];
        let cs = CompiledSystem::compile(&sys);
        prop_assert_eq!(cs.constraint_count(), sys.constraint_count());
        prop_assert!(cs.row_count() <= cs.constraint_count());
        let x = random_point(seed, sys.var_count());
        let (naive_obj, naive_grad) = naive_objective_gradient(&sys, &constraints, &x, lambda);
        let (violation, obj) = cs.objective(&x, lambda);
        prop_assert!(violation >= 0.0);
        prop_assert!(close(obj, naive_obj), "objective {} vs naive {}", obj, naive_obj);
        let (grad, gviol, _) = cs.gradient(&x, lambda);
        prop_assert!(close(gviol, violation));
        for (i, (g, ng)) in grad.iter().zip(&naive_grad).enumerate() {
            prop_assert!(close(*g, *ng), "grad[{}] {} vs naive {}", i, g, ng);
        }
    }

    /// A full solve is bitwise identical at 1 and 4 worker threads —
    /// scores, objective, and convergence history.
    #[test]
    fn solve_is_bitwise_thread_invariant(seed in any::<u64>()) {
        let (sys, _) = random_system(seed);
        let opts1 = SolveOptions { max_iters: 120, ..Default::default() };
        let opts4 = SolveOptions { threads: 4, ..opts1.clone() };
        let s1 = solve(&sys, &opts1);
        let s4 = solve(&sys, &opts4);
        prop_assert_eq!(s1.iterations, s4.iterations);
        prop_assert_eq!(s1.objective.to_bits(), s4.objective.to_bits());
        for (a, b) in s1.scores.iter().zip(&s4.scores) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in s1.history.iter().zip(&s4.history) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// With the plateau detector enabled, the stop epoch, stop reason,
    /// and scores are bitwise identical at 1 and 4 worker threads: the
    /// detector reads only the thread-invariant objective series at
    /// fixed stride boundaries, so early exit adds no thread sensitivity.
    #[test]
    fn early_stop_is_bitwise_thread_invariant(
        seed in any::<u64>(),
        patience in 1usize..7,
        min_iters in 0usize..90,
    ) {
        let (sys, _) = random_system(seed);
        let es = EarlyStop { patience, rel_tol: 1e-4, min_iters };
        let opts1 = SolveOptions {
            max_iters: 120,
            early_stop: Some(es),
            ..Default::default()
        };
        let opts4 = SolveOptions { threads: 4, ..opts1.clone() };
        let s1 = solve(&sys, &opts1);
        let s4 = solve(&sys, &opts4);
        prop_assert_eq!(s1.stop, s4.stop, "stop reason must be thread-invariant");
        prop_assert_eq!(s1.iterations, s4.iterations, "stop epoch must be thread-invariant");
        prop_assert_eq!(s1.epochs_saved, s4.epochs_saved);
        prop_assert_eq!(s1.objective.to_bits(), s4.objective.to_bits());
        for (a, b) in s1.scores.iter().zip(&s4.scores) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// No convergence exit — stall window or plateau — ever fires before
    /// `min_iters`, whatever the system looks like.
    #[test]
    fn min_iters_is_always_respected(
        seed in any::<u64>(),
        patience in 1usize..4,
        min_iters in 0usize..100,
    ) {
        let (sys, _) = random_system(seed);
        let opts = SolveOptions {
            max_iters: 120,
            early_stop: Some(EarlyStop { patience, rel_tol: 1e-3, min_iters }),
            ..Default::default()
        };
        let sol = solve(&sys, &opts);
        if matches!(sol.stop, StopReason::Stall | StopReason::Plateau) {
            prop_assert!(
                sol.iterations >= min_iters,
                "{:?} fired at {} < min_iters {}",
                sol.stop, sol.iterations, min_iters
            );
        }
    }

    /// `solve` and `solve_compiled` are the same computation: compiling
    /// once and solving the compiled form matches the convenience entry
    /// point bit-for-bit.
    #[test]
    fn solve_compiled_matches_solve(seed in any::<u64>()) {
        let (sys, _) = random_system(seed);
        let opts = SolveOptions { max_iters: 60, ..Default::default() };
        let direct = solve(&sys, &opts);
        let cs = CompiledSystem::compile(&sys);
        let via_compiled = solve_compiled(&cs, &opts);
        prop_assert_eq!(direct.objective.to_bits(), via_compiled.objective.to_bits());
        for (a, b) in direct.scores.iter().zip(&via_compiled.scores) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}

/// The constraint system of the generated `lang` corpus of `projects`
/// projects (corpus seed 1234) under the language's seed spec. At 60
/// projects these are the end-to-end spec goldens' inputs.
fn corpus_system(lang: Lang, projects: usize) -> ConstraintSystem {
    let universe = Universe::new();
    let corpus = generate_corpus(
        &universe,
        &CorpusOptions { projects, rng_seed: 1234, lang, ..Default::default() },
    );
    let analyzed = analyze_corpus(&corpus).unwrap();
    let seed = match lang {
        Lang::Py => universe.seed_spec(),
        Lang::Js => universe.seed_spec_js(),
    };
    generate_with_stats(&analyzed.graph, &seed, &SeldonOptions::default().gen).0
}

/// A hash of everything the solver reads from a compiled system: the
/// total and per-template constraint counts, `C`, the pins, the locality
/// permutation, and every row's weight, variables and coefficient bits,
/// in solve order.
fn compiled_system_hash(lang: Lang) -> u64 {
    let sys = corpus_system(lang, 60);
    let cs = CompiledSystem::compile(&sys);
    let mut h = Fnv64::new();
    h.write_u64(cs.constraint_count() as u64);
    for n in sys.template_counts() {
        h.write_u64(n as u64);
    }
    h.write_f64(cs.c());
    for &(v, val) in cs.pins() {
        h.write_u32(v).write_f64(val);
    }
    for &old in cs.row_permutation() {
        h.write_u32(old);
    }
    for (weight, vars, coeffs) in cs.rows() {
        h.write_f64(weight).write_u64(vars.len() as u64);
        for (&v, &c) in vars.iter().zip(coeffs) {
            h.write_u32(v).write_f64(c);
        }
    }
    h.finish()
}

/// The compiled systems of both golden corpora (the end-to-end spec
/// goldens' inputs) hash to the values the row-store generator was
/// checked against when it replaced per-constraint term lists and
/// compile-time dedup: row order, terms, coefficient bits, weights, pins
/// and counts are bit-identical to that earlier pipeline.
#[test]
fn compiled_system_hash_is_pinned_for_both_golden_corpora() {
    assert_eq!(compiled_system_hash(Lang::Py), 0x8498_9257_05cf_bf7c);
    assert_eq!(compiled_system_hash(Lang::Js), 0x10c4_08e8_33d2_2220);
}

/// The union graphs of both golden corpora fingerprint to the values the
/// side-table graph layout gave them: the solver checkpoint's key and
/// `seldon serve`'s `unchanged` rung both rest on this value, so a
/// change to how the graph stores its edges must leave it alone.
#[test]
fn graph_fingerprint_is_pinned_for_both_golden_corpora() {
    let fingerprint = |lang| {
        let universe = Universe::new();
        let opts = CorpusOptions { projects: 60, rng_seed: 1234, lang, ..Default::default() };
        graph_fingerprint(&analyze_corpus(&generate_corpus(&universe, &opts)).unwrap().graph)
    };
    assert_eq!(fingerprint(Lang::Py), 0x14f5_88a5_c7c7_5c4c);
    assert_eq!(fingerprint(Lang::Js), 0x828d_295a_8b46_43e2);
}

/// The checkpoint's graph keys of both golden corpora: the per-file
/// graph fingerprints folded in corpus order, as `seldon learn` folds
/// them from its artifacts and `seldon serve` from its slots. The
/// checkpoint's reuse rests on this value, so a change to how per-file
/// graphs are fingerprinted or folded must leave it alone.
#[test]
fn graph_key_is_pinned_for_both_golden_corpora() {
    let key = |lang| {
        let universe = Universe::new();
        let opts = CorpusOptions { projects: 60, rng_seed: 1234, lang, ..Default::default() };
        union_graph_key(&analyze_corpus(&generate_corpus(&universe, &opts)).unwrap().graph)
    };
    assert_eq!(key(Lang::Py), 0xda5b_399c_c773_bdb8);
    assert_eq!(key(Lang::Js), 0xf678_c5c0_c5ed_7e9e);
}

/// A hash of what `solve_compiled` returns for `cs` at `threads` worker
/// threads and otherwise default options: every score's bits, the
/// iteration count, the stop reason, and the bits of the final objective
/// and violation.
fn solver_output_hash(cs: &CompiledSystem, threads: usize) -> u64 {
    let sol = solve_compiled(cs, &SolveOptions { threads, ..Default::default() });
    let mut h = Fnv64::new();
    h.write_u64(sol.scores.len() as u64);
    for &s in &sol.scores {
        h.write_f64(s);
    }
    h.write_u64(sol.iterations as u64).write_u32(u32::from(sol.stop.code()));
    h.write_f64(sol.objective).write_f64(sol.violation);
    h.finish()
}

/// The solver's outputs over both golden corpora (4 gradient lanes each),
/// and over a 240-project Python corpus whose 10 lanes split unevenly
/// across 4 workers, hash to the values the single-pass gap kernel
/// produced, at 1 and at 4 threads.
#[test]
fn solver_outputs_are_pinned_for_both_golden_corpora() {
    let large = CompiledSystem::compile(&corpus_system(Lang::Py, 240));
    assert!(large.lane_count() >= 4, "{} lanes", large.lane_count());
    let systems = [
        (CompiledSystem::compile(&corpus_system(Lang::Py, 60)), 0x5960_441d_3ab7_f5cd),
        (CompiledSystem::compile(&corpus_system(Lang::Js, 60)), 0x20a8_4433_c2a0_0ffb),
        (large, 0x5346_dd80_f392_03ec),
    ];
    for (cs, expected) in &systems {
        for threads in [1, 4] {
            let got = solver_output_hash(cs, threads);
            assert_eq!(got, *expected, "{} rows at {threads} threads", cs.row_count());
        }
    }
}

/// A hash of every taint report over the golden corpus in `lang`: the
/// analyzer runs with the language's seed spec plus the universe's sink
/// signatures, merged with the learned golden spec, and every
/// `Violation` field — source, sink, path, both matched representations
/// and file — is hashed in report order.
fn taint_report_hash(lang: Lang, param_sensitive: bool) -> u64 {
    let universe = Universe::new();
    let corpus = generate_corpus(
        &universe,
        &CorpusOptions { projects: 60, rng_seed: 1234, lang, ..Default::default() },
    );
    let analyzed = analyze_corpus(&corpus).unwrap();
    let (mut spec, learned) = match lang {
        Lang::Py => (universe.seed_spec(), include_str!("golden/end_to_end_spec.txt")),
        Lang::Js => (universe.seed_spec_js(), include_str!("golden/end_to_end_spec_js.txt")),
    };
    spec.merge(&TaintSpec::parse(learned).unwrap());
    for (api, sig) in universe.sink_signatures() {
        spec.set_signature(api, sig);
    }
    let analyzer =
        TaintAnalyzer::with_options(&analyzed.graph, &spec, TaintOptions { param_sensitive });
    let violations = analyzer.find_violations();
    assert!(violations.len() > 10, "{} reports", violations.len());
    let mut h = Fnv64::new();
    h.write_u64(violations.len() as u64);
    for v in &violations {
        h.write_u32(v.source.0).write_u32(v.sink.0).write_u64(v.path.len() as u64);
        for id in &v.path {
            h.write_u32(id.0);
        }
        h.write_str(&v.source_rep).write_str(&v.sink_rep).write_u32(v.file.0);
    }
    h.finish()
}

/// The taint reports over both golden corpora, parameter-insensitive
/// and parameter-sensitive, hash to the values the per-search hash-set
/// BFS produced: report order, unsanitized paths and matched
/// representations are bit-identical to it.
#[test]
fn taint_reports_are_pinned_for_both_golden_corpora() {
    let hashes = [
        taint_report_hash(Lang::Py, false),
        taint_report_hash(Lang::Py, true),
        taint_report_hash(Lang::Js, false),
        taint_report_hash(Lang::Js, true),
    ];
    assert_eq!(
        hashes,
        [
            0xa422_b22a_2487_77cb,
            0x6abb_823c_7286_1a02,
            0xa60f_85e4_ce13_04b7,
            0x19f5_b41e_587d_90ba,
        ]
    );
}
