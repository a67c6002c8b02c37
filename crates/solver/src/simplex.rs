//! An exact LP solver for the relaxed constraint system.
//!
//! The relaxation of §4.4 is a linear program:
//!
//! ```text
//! min  Σ εᵢ + λ Σ xⱼ
//! s.t. Lᵢ(x) − Rᵢ(x) − C ≤ εᵢ     (flow constraints)
//!      0 ≤ xⱼ ≤ 1, εᵢ ≥ 0          (box)
//!      pinned variables fixed       (C_known)
//! ```
//!
//! The paper solves it approximately with projected Adam; this module
//! solves it *exactly* with a dense two-phase primal simplex (Bland's rule,
//! hence guaranteed termination) so the approximate solver can be
//! cross-validated on small systems and its optimality gap measured.

use crate::solve::evaluate;
use seldon_constraints::ConstraintSystem;

/// A dense LP in the canonical form `min c·x  s.t.  A x ≤ b, x ≥ 0`.
#[derive(Debug, Clone)]
pub struct LpProblem {
    /// Number of decision variables.
    pub n: usize,
    /// Objective coefficients (length `n`).
    pub c: Vec<f64>,
    /// Constraint rows as `(sparse coefficients, rhs)`.
    pub rows: Vec<(Vec<(usize, f64)>, f64)>,
}

/// Outcome of a simplex run.
#[derive(Debug, Clone, PartialEq)]
pub enum LpOutcome {
    /// Optimal solution found: `(x, objective)`.
    Optimal(Vec<f64>, f64),
    /// The constraints admit no feasible point.
    Infeasible,
    /// The objective is unbounded below.
    Unbounded,
}

/// Solves an [`LpProblem`] with the two-phase primal simplex method.
///
/// Uses Bland's anti-cycling rule, so it terminates on every input; cost is
/// exponential in the worst case but fine for the validation sizes this is
/// meant for.
pub fn simplex(lp: &LpProblem) -> LpOutcome {
    let n = lp.n;
    let m = lp.rows.len();
    // Tableau layout: columns [x (n) | slack (m) | artificial (≤m) | rhs].
    // Rows with negative rhs are negated (flipping the inequality into an
    // equality with negative slack coefficient) and given an artificial.
    let mut needs_artificial = vec![false; m];
    for (i, (_, b)) in lp.rows.iter().enumerate() {
        if *b < 0.0 {
            needs_artificial[i] = true;
        }
    }
    let n_art = needs_artificial.iter().filter(|&&x| x).count();
    let cols = n + m + n_art + 1;
    let rhs_col = cols - 1;
    let mut t = vec![vec![0.0f64; cols]; m];
    let mut basis = vec![0usize; m];
    let mut art_idx = 0usize;
    for (i, (coeffs, b)) in lp.rows.iter().enumerate() {
        let flip = if *b < 0.0 { -1.0 } else { 1.0 };
        for &(j, v) in coeffs {
            t[i][j] += flip * v;
        }
        t[i][n + i] = flip; // slack
        t[i][rhs_col] = flip * b;
        if needs_artificial[i] {
            let a_col = n + m + art_idx;
            t[i][a_col] = 1.0;
            basis[i] = a_col;
            art_idx += 1;
        } else {
            basis[i] = n + i;
        }
    }

    // Phase 1: minimize the sum of artificial variables.
    if n_art > 0 {
        let mut obj = vec![0.0f64; cols];
        for slot in obj.iter_mut().take(cols - 1).skip(n + m) {
            *slot = 1.0;
        }
        for row in 0..m {
            if basis[row] >= n + m {
                for j in 0..cols {
                    obj[j] -= t[row][j];
                }
            }
        }
        if !run_simplex(&mut t, &mut obj, &mut basis, rhs_col) {
            return LpOutcome::Unbounded; // cannot happen in phase 1
        }
        let phase1 = -obj[rhs_col];
        if phase1 > 1e-7 {
            return LpOutcome::Infeasible;
        }
        // Drive any remaining artificial variables out of the basis.
        for row in 0..m {
            if basis[row] >= n + m {
                if let Some(j) = (0..n + m).find(|&j| t[row][j].abs() > 1e-9) {
                    pivot(&mut t, &mut vec![0.0; cols], row, j, rhs_col);
                    basis[row] = j;
                }
            }
        }
    }

    // Phase 2: the real objective (in terms of non-basic variables).
    let mut obj = vec![0.0f64; cols];
    for (j, &cj) in lp.c.iter().enumerate() {
        obj[j] = cj;
    }
    // Express the objective in the current basis.
    for row in 0..m {
        let b = basis[row];
        let coef = obj[b];
        if coef.abs() > 1e-12 {
            for j in 0..cols {
                obj[j] -= coef * t[row][j];
            }
        }
    }
    // Forbid re-entering artificial columns.
    for v in &mut obj[n + m..cols - 1] {
        *v = f64::INFINITY;
    }
    if !run_simplex(&mut t, &mut obj, &mut basis, rhs_col) {
        return LpOutcome::Unbounded;
    }

    let mut x = vec![0.0f64; n];
    for row in 0..m {
        if basis[row] < n {
            x[basis[row]] = t[row][rhs_col];
        }
    }
    let objective: f64 = lp.c.iter().zip(&x).map(|(c, v)| c * v).sum();
    LpOutcome::Optimal(x, objective)
}

/// Runs simplex iterations until optimal (returns true) or unbounded
/// (returns false). Uses Bland's rule: the entering variable is the lowest
/// index with negative reduced cost, the leaving row breaks ties by lowest
/// basis index.
fn run_simplex(
    t: &mut [Vec<f64>],
    obj: &mut [f64],
    basis: &mut [usize],
    rhs_col: usize,
) -> bool {
    let m = t.len();
    loop {
        // Entering column: Bland's rule.
        let enter = match (0..rhs_col).find(|&j| obj[j] < -1e-9) {
            Some(j) => j,
            None => return true,
        };
        // Ratio test.
        let mut leave: Option<usize> = None;
        let mut best = f64::INFINITY;
        for row in 0..m {
            let a = t[row][enter];
            if a > 1e-9 {
                let ratio = t[row][rhs_col] / a;
                if ratio < best - 1e-12
                    || (ratio < best + 1e-12
                        && leave.is_some_and(|l| basis[row] < basis[l]))
                {
                    best = ratio;
                    leave = Some(row);
                }
            }
        }
        let Some(leave) = leave else { return false };
        pivot_full(t, obj, leave, enter, rhs_col);
        basis[leave] = enter;
    }
}

fn pivot_full(t: &mut [Vec<f64>], obj: &mut [f64], row: usize, col: usize, rhs_col: usize) {
    let p = t[row][col];
    for v in t[row].iter_mut().take(rhs_col + 1) {
        *v /= p;
    }
    let pivot_row: Vec<f64> = t[row][..=rhs_col].to_vec();
    for (r, tr) in t.iter_mut().enumerate() {
        if r != row {
            let f = tr[col];
            if f.abs() > 1e-12 {
                for (v, pv) in tr.iter_mut().zip(&pivot_row) {
                    *v -= f * pv;
                }
            }
        }
    }
    let f = obj[col];
    if f.abs() > 1e-12 && f.is_finite() {
        for (v, pv) in obj.iter_mut().zip(&pivot_row) {
            if v.is_finite() {
                *v -= f * pv;
            }
        }
    }
}

fn pivot(t: &mut [Vec<f64>], obj: &mut [f64], row: usize, col: usize, rhs_col: usize) {
    pivot_full(t, obj, row, col, rhs_col);
}

/// Exact solution of a [`ConstraintSystem`]'s relaxation.
#[derive(Debug, Clone)]
pub struct ExactSolution {
    /// Score per system variable (pinned values substituted back).
    pub scores: Vec<f64>,
    /// The exact optimal objective.
    pub objective: f64,
}

/// Builds the LP for `sys` and solves it exactly.
///
/// Returns `None` if the system exceeds `max_size` (free variables +
/// constraints) — the dense simplex is a validation tool, not the
/// production solver.
pub fn solve_exact(sys: &ConstraintSystem, lambda: f64, max_size: usize) -> Option<ExactSolution> {
    let n_sys = sys.var_count();
    let m = sys.constraint_count();
    // Free-variable compaction: pinned variables become constants.
    let mut free_index = vec![usize::MAX; n_sys];
    let mut pinned_value = vec![None; n_sys];
    for (v, val) in sys.pinned_vars() {
        pinned_value[v.index()] = Some(val);
    }
    let mut n_free = 0usize;
    for i in 0..n_sys {
        if pinned_value[i].is_none() {
            free_index[i] = n_free;
            n_free += 1;
        }
    }
    if n_free + m > max_size {
        return None;
    }
    // Decision vector: [x_free (n_free) | ε (one slack per stored row)].
    // A row standing for `weight` identical constraints gets one slack
    // costing `weight`: identical constraints share their optimal slack.
    let n = n_free + sys.row_count();
    let mut c = vec![0.0f64; n];
    for &fi in &free_index {
        if fi != usize::MAX {
            c[fi] = lambda;
        }
    }
    let mut rows: Vec<(Vec<(usize, f64)>, f64)> = Vec::new();
    // Flow rows: Σ coeff·x − ε ≤ C − pinned_contribution.
    for (ri, row) in sys.rows().enumerate() {
        c[n_free + ri] = f64::from(row.weight);
        let mut coeffs: Vec<(usize, f64)> = Vec::new();
        let mut rhs = sys.c;
        for &(var, coeff) in row.terms {
            match pinned_value[var as usize] {
                Some(v) => rhs -= coeff * v,
                None => coeffs.push((free_index[var as usize], coeff)),
            }
        }
        coeffs.push((n_free + ri, -1.0));
        rows.push((coeffs, rhs));
    }
    // Upper bounds x ≤ 1.
    for fi in 0..n_free {
        rows.push((vec![(fi, 1.0)], 1.0));
    }
    let lp = LpProblem { n, c, rows };
    match simplex(&lp) {
        LpOutcome::Optimal(x, _) => {
            let mut scores = vec![0.0f64; n_sys];
            for i in 0..n_sys {
                scores[i] = match pinned_value[i] {
                    Some(v) => v,
                    None => x[free_index[i]].clamp(0.0, 1.0),
                };
            }
            let (_, objective) = evaluate(sys, &scores, lambda);
            Some(ExactSolution { scores, objective })
        }
        // The relaxation is always feasible (ε absorbs violations) and
        // bounded (objective ≥ 0), so these cannot occur on well-formed
        // systems; surface as None defensively.
        LpOutcome::Infeasible | LpOutcome::Unbounded => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve::{solve, SolveOptions};
    use seldon_constraints::{ConstraintSystem, FlowConstraint, Term};
    use seldon_specs::Role;

    #[test]
    fn toy_lp_optimal() {
        // min -2x0 - x1  s.t.  x0 + x1 ≤ 4, x0 ≤ 2, x1 ≤ 3  ⇒ -6 at (2,2).
        let lp = LpProblem {
            n: 2,
            c: vec![-2.0, -1.0],
            rows: vec![
                (vec![(0, 1.0), (1, 1.0)], 4.0),
                (vec![(0, 1.0)], 2.0),
                (vec![(1, 1.0)], 3.0),
            ],
        };
        match simplex(&lp) {
            LpOutcome::Optimal(x, obj) => {
                assert!((obj + 6.0).abs() < 1e-9, "obj = {obj}");
                assert!((x[0] - 2.0).abs() < 1e-9);
                assert!((x[1] - 2.0).abs() < 1e-9);
            }
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn infeasible_detected() {
        // x0 ≤ -1 with x0 ≥ 0 is infeasible.
        let lp = LpProblem { n: 1, c: vec![1.0], rows: vec![(vec![(0, 1.0)], -1.0)] };
        assert_eq!(simplex(&lp), LpOutcome::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        // min -x0 with no upper bound.
        let lp = LpProblem { n: 1, c: vec![-1.0], rows: vec![] };
        assert_eq!(simplex(&lp), LpOutcome::Unbounded);
    }

    #[test]
    fn negative_rhs_two_phase() {
        // min x0  s.t.  -x0 ≤ -2  (i.e. x0 ≥ 2)  ⇒ x0 = 2.
        let lp = LpProblem { n: 1, c: vec![1.0], rows: vec![(vec![(0, -1.0)], -2.0)] };
        match simplex(&lp) {
            LpOutcome::Optimal(x, obj) => {
                assert!((x[0] - 2.0).abs() < 1e-9);
                assert!((obj - 2.0).abs() < 1e-9);
            }
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    fn san_system() -> ConstraintSystem {
        let mut sys = ConstraintSystem::new(0.75);
        let s = sys.rep("src()");
        let m = sys.rep("san()");
        let t = sys.rep("snk()");
        let vs = sys.var(s, Role::Source);
        let vm = sys.var(m, Role::Sanitizer);
        let vt = sys.var(t, Role::Sink);
        sys.pin(vs, 1.0);
        sys.pin(vt, 1.0);
        sys.add_constraint(FlowConstraint {
            lhs: vec![Term { var: vs, coeff: 1.0 }, Term { var: vt, coeff: 1.0 }],
            rhs: vec![Term { var: vm, coeff: 1.0 }],
            ..Default::default()
        });
        sys
    }

    #[test]
    fn exact_matches_analytic_optimum() {
        // src + snk ≤ san + C with both pinned 1: san must reach 1 (hinge
        // cost of leaving it lower exceeds λ). Exact optimum: san = 1,
        // objective = residual violation 0.25 plus λ over all three
        // variables (the pinned ones contribute their constant L1 mass).
        let sys = san_system();
        let exact = solve_exact(&sys, 0.1, 10_000).expect("small system solves");
        let vm = sys.lookup_var(sys.rep_id("san()").unwrap(), Role::Sanitizer).unwrap();
        assert!((exact.scores[vm.index()] - 1.0).abs() < 1e-6, "{:?}", exact.scores);
        assert!((exact.objective - (0.25 + 0.3)).abs() < 1e-6, "obj {}", exact.objective);
    }

    #[test]
    fn adam_close_to_exact() {
        let sys = san_system();
        let exact = solve_exact(&sys, 0.1, 10_000).unwrap();
        let approx = solve(&sys, &SolveOptions { max_iters: 2000, ..Default::default() });
        assert!(
            (approx.objective - exact.objective).abs() < 0.05,
            "adam {} vs exact {}",
            approx.objective,
            exact.objective
        );
    }

    #[test]
    fn exact_on_empty_system_is_zero() {
        let sys = ConstraintSystem::new(0.75);
        let e = solve_exact(&sys, 0.1, 100).unwrap();
        assert_eq!(e.objective, 0.0);
        assert!(e.scores.is_empty());
    }

    #[test]
    fn size_guard() {
        let mut sys = ConstraintSystem::new(0.75);
        for i in 0..50 {
            let r = sys.rep(&format!("v{i}()"));
            sys.var(r, Role::Source);
        }
        assert!(solve_exact(&sys, 0.1, 10).is_none());
    }

    #[test]
    fn lambda_tradeoff_in_exact_solution() {
        // With a very large λ, raising the sanitizer is more expensive than
        // accepting the violation: san stays 0.
        let sys = san_system();
        let e = solve_exact(&sys, 2.0, 10_000).unwrap();
        let vm = sys.lookup_var(sys.rep_id("san()").unwrap(), Role::Sanitizer).unwrap();
        assert!(e.scores[vm.index()] < 1e-6, "san = {}", e.scores[vm.index()]);
    }
}
