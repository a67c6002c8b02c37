//! Extracting a taint specification from solved scores (§7.1).
//!
//! For each candidate event we loop over its backoff options from most to
//! least specific; the `i`-th option (0-based) selects a role if
//! `0.8^i · score ≥ t`. If no option and no role qualifies, the event has no
//! role. The selected representation text becomes the learned spec entry.

use crate::solve::Solution;
use seldon_constraints::{ConstraintSystem, RepId, VarId};
use seldon_propgraph::EventId;
use seldon_specs::{Role, RoleSet, TaintSpec};
use std::collections::HashMap;

/// Extraction parameters.
#[derive(Debug, Clone)]
pub struct ExtractOptions {
    /// Score thresholds `t` per role, indexed by [`Role::index`].
    ///
    /// The paper picks each threshold by sorting events by score and
    /// "striking a balance between the number of predicted specifications
    /// (recall) and precision" (§7.5 Q2); it lands on 0.1 for its score
    /// distribution. Our distribution is sharper around the pinned seeds,
    /// so the balanced default raises the sanitizer threshold, where
    /// path-intermediate events otherwise crowd the low-score region.
    pub thresholds: [f64; 3],
    /// Backoff decay per specificity level (0.8 in the paper).
    pub decay: f64,
    /// When true, events whose matched representation is pinned by the seed
    /// are skipped, so the output contains only *newly learned* roles.
    pub exclude_seeded: bool,
}

impl ExtractOptions {
    /// The threshold for `role`.
    pub fn threshold(&self, role: Role) -> f64 {
        self.thresholds[role.index()]
    }
}

impl Default for ExtractOptions {
    fn default() -> Self {
        ExtractOptions { thresholds: [0.1, 0.4, 0.1], decay: 0.8, exclude_seeded: true }
    }
}

/// The extracted result: a learned spec plus per-event role assignments.
#[derive(Debug, Clone, Default)]
pub struct Extraction {
    /// Learned specification entries (representation text → roles).
    pub spec: TaintSpec,
    /// Role set chosen for each candidate event.
    pub event_roles: HashMap<EventId, RoleSet>,
    /// The effective (decayed) score backing each learned `(rep, role)`.
    /// Keys are symbols of the system's table; resolve with
    /// [`ConstraintSystem::rep_text`].
    pub scores: HashMap<(RepId, Role), f64>,
    /// Backoff level (0 = most specific) of the winning selection behind
    /// each entry in [`Extraction::scores`] — the Fig. 11 x-axis.
    pub levels: HashMap<(RepId, Role), u32>,
    /// Role selections per backoff level: `backoff_hits[i]` counts
    /// `(event, role)` selections whose winning representation was the
    /// `i`-th backoff option (effective score `decay^i · score`). The
    /// vector is as long as the deepest level that scored a hit — the
    /// threshold-sweep record telemetry exports (§7.1).
    pub backoff_hits: Vec<usize>,
}

/// Dense lookup tables over one system's variables, built once per
/// extraction: every candidate `(event, role, rep)` reads two array slots
/// instead of hashing `(rep, role)` and then the variable.
struct VarTables {
    /// The variable of each `(rep, role)`, indexed by the rep's symbol
    /// and the role; reps past the end have no variable.
    by_rep: Vec<[Option<VarId>; 3]>,
    /// The pinned value of each variable, if any.
    pins: Vec<Option<f64>>,
}

impl VarTables {
    fn of(sys: &ConstraintSystem) -> VarTables {
        let vars = (0..sys.var_count() as u32).map(|i| (VarId(i), sys.var_info(VarId(i))));
        let len = vars.clone().map(|(_, (rep, _))| rep.index() + 1).max().unwrap_or(0);
        let mut by_rep = vec![[None; 3]; len];
        for (var, (rep, role)) in vars {
            by_rep[rep.index()][role.index()] = Some(var);
        }
        let mut pins = vec![None; sys.var_count()];
        for (var, value) in sys.pinned_vars() {
            pins[var.index()] = Some(value);
        }
        VarTables { by_rep, pins }
    }

    /// The variable of `(rep, role)`, as [`ConstraintSystem::lookup_var`].
    fn var(&self, rep: RepId, role: Role) -> Option<VarId> {
        self.by_rep.get(rep.index()).and_then(|roles| roles[role.index()])
    }

    /// The pinned value of `(rep, role)`'s variable, if it has both.
    fn pinned(&self, rep: RepId, role: Role) -> Option<f64> {
        self.var(rep, role).and_then(|var| self.pins[var.index()])
    }
}

/// Runs the §7.1 extraction rule over all candidate events.
pub fn extract(
    sys: &ConstraintSystem,
    sol: &Solution,
    opts: &ExtractOptions,
) -> Extraction {
    let tables = VarTables::of(sys);
    let mut out = Extraction::default();
    for (event, reps) in sys.candidates() {
        let mut roles = RoleSet::EMPTY;
        for role in Role::ALL {
            // Seed knowledge wins at any backoff level: if some
            // representation of this event is pinned for this role, the
            // event *is* that API and its role is already known — do not
            // relearn (or contradict) it from scores.
            if opts.exclude_seeded {
                if let Some(pinned) = reps.iter().find_map(|&r| tables.pinned(r, role)) {
                    if pinned == 1.0 {
                        roles = roles.with(role);
                    }
                    continue;
                }
            }
            for (i, &rep) in reps.iter().enumerate() {
                let Some(var) = tables.var(rep, role) else { continue };
                let effective = opts.decay.powi(i as i32) * sol.score(var);
                if effective >= opts.threshold(role) {
                    roles = roles.with(role);
                    let entry = out.scores.entry((rep, role)).or_insert(0.0);
                    if effective >= *entry {
                        *entry = effective;
                        out.levels.insert((rep, role), i as u32);
                    }
                    if out.backoff_hits.len() <= i {
                        out.backoff_hits.resize(i + 1, 0);
                    }
                    out.backoff_hits[i] += 1;
                    break;
                }
            }
        }
        if !roles.is_empty() {
            out.event_roles.insert(event, roles);
        }
    }
    // Every selection above scored its `(rep, role)`, so the scored keys
    // are exactly the learned entries.
    for &(rep, role) in out.scores.keys() {
        out.spec.add(sys.rep_text(rep), role);
    }
    out
}

/// The smallest distance between any threshold comparison [`extract`]
/// could make and its threshold — the *decision margin* of a solution.
///
/// This walks every `(event, role, backoff level)` combination the
/// extraction rule may evaluate (not stopping at the first selection, as
/// the extractor itself does: an earlier selection flipping would expose
/// later comparisons) and returns the minimum `|decay^i · score − t|`.
/// Comparisons decided by seed pins are skipped — pinned scores are
/// restored after every solver step, so they cannot differ between two
/// solves of the same system.
///
/// Warm-started solves land near, but not bit-for-bit on, the cold
/// optimum. A caller that must serve the cold solve's exact spec checks
/// this margin against the worst plausible warm-vs-cold score gap: a
/// comfortable margin proves every selection decision is insensitive to
/// that gap, so the warm extraction equals the cold one; a tight margin
/// means the decision is too close to call and the caller re-solves
/// cold. Returns `+∞` when no score-based comparison exists.
pub fn extraction_margin(
    sys: &ConstraintSystem,
    sol: &Solution,
    opts: &ExtractOptions,
) -> f64 {
    let tables = VarTables::of(sys);
    let mut margin = f64::INFINITY;
    for (_, reps) in sys.candidates() {
        for role in Role::ALL {
            if opts.exclude_seeded && reps.iter().any(|&r| tables.pinned(r, role).is_some()) {
                continue;
            }
            for (i, &rep) in reps.iter().enumerate() {
                let Some(var) = tables.var(rep, role) else { continue };
                if tables.pins[var.index()].is_some() {
                    continue;
                }
                let effective = opts.decay.powi(i as i32) * sol.score(var);
                margin = margin.min((effective - opts.threshold(role)).abs());
            }
        }
    }
    margin
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve::Solution;
    use seldon_constraints::RepId;

    fn mk_system() -> (ConstraintSystem, Vec<RepId>) {
        let mut sys = ConstraintSystem::new(0.75);
        let specific = sys.rep("pkg.mod.api()");
        let general = sys.rep("mod.api()");
        sys.var(specific, Role::Source);
        sys.var(general, Role::Source);
        sys.event_reps.push_rep(specific);
        sys.event_reps.push_rep(general);
        sys.event_reps.end_event();
        (sys, vec![specific, general])
    }

    fn solution_with(sys: &ConstraintSystem, scores: &[(usize, f64)]) -> Solution {
        let mut v = vec![0.0; sys.var_count()];
        for &(i, s) in scores {
            v[i] = s;
        }
        Solution { scores: v, ..Default::default() }
    }

    #[test]
    fn most_specific_rep_wins() {
        let (sys, _) = mk_system();
        let sol = solution_with(&sys, &[(0, 0.5), (1, 0.9)]);
        let ex = extract(&sys, &sol, &ExtractOptions::default());
        // Both qualify, but the loop stops at the first (most specific).
        assert!(ex.spec.has_role("pkg.mod.api()", Role::Source));
        assert!(!ex.spec.has_role("mod.api()", Role::Source));
        assert!(ex.event_roles[&EventId(0)].contains(Role::Source));
        assert_eq!(ex.backoff_hits, vec![1], "hit recorded at level 0");
    }

    #[test]
    fn backoff_hits_count_per_level() {
        let (sys, _) = mk_system();
        // Specific rep scores 0: selection falls through to level 1.
        let sol = solution_with(&sys, &[(0, 0.0), (1, 0.9)]);
        let ex = extract(&sys, &sol, &ExtractOptions::default());
        assert_eq!(ex.backoff_hits, vec![0, 1]);
        let rep = sys.rep_id("mod.api()").unwrap();
        assert_eq!(ex.levels[&(rep, Role::Source)], 1, "winning level recorded");
        // No qualifying rep at all: no hits recorded.
        let sol = solution_with(&sys, &[(0, 0.0), (1, 0.0)]);
        let ex = extract(&sys, &sol, &ExtractOptions::default());
        assert!(ex.backoff_hits.is_empty());
    }

    #[test]
    fn decay_penalizes_less_specific_options() {
        let (sys, _) = mk_system();
        // Specific rep scores 0, general scores 0.12: decayed 0.8·0.12 =
        // 0.096 < 0.1, so nothing is selected.
        let sol = solution_with(&sys, &[(0, 0.0), (1, 0.12)]);
        let ex = extract(&sys, &sol, &ExtractOptions::default());
        assert_eq!(ex.spec.role_count(), 0);
        assert!(ex.event_roles.is_empty());
        // At 0.13, decayed 0.104 ≥ 0.1: selected via the general rep.
        let sol = solution_with(&sys, &[(0, 0.0), (1, 0.13)]);
        let ex = extract(&sys, &sol, &ExtractOptions::default());
        assert!(ex.spec.has_role("mod.api()", Role::Source));
    }

    #[test]
    fn seeded_reps_not_relearned() {
        let (mut sys, reps) = mk_system();
        let v = sys.lookup_var(reps[0], Role::Source).unwrap();
        sys.pin(v, 1.0);
        let sol = solution_with(&sys, &[(v.index(), 1.0)]);
        let ex = extract(&sys, &sol, &ExtractOptions::default());
        assert_eq!(ex.spec.role_count(), 0, "seed entries are not learned");
        // ... but the event still carries the role for taint analysis.
        assert!(ex.event_roles[&EventId(0)].contains(Role::Source));
        // With exclude_seeded = false the entry appears.
        let ex2 = extract(
            &sys,
            &sol,
            &ExtractOptions { exclude_seeded: false, ..Default::default() },
        );
        assert!(ex2.spec.has_role("pkg.mod.api()", Role::Source));
    }

    /// The dense tables answer every `(rep, role)` exactly as the
    /// system's hash lookups do, reps without a variable included.
    #[test]
    fn var_tables_match_the_system_lookups() {
        let (mut sys, reps) = mk_system();
        let sink = sys.var(reps[1], Role::Sink);
        sys.pin(sink, 0.0);
        let v = sys.lookup_var(reps[0], Role::Source).unwrap();
        sys.pin(v, 1.0);
        let outside = sys.rep("not.a.var()");
        let tables = VarTables::of(&sys);
        let never = seldon_propgraph::Symbol(u32::MAX);
        for rep in [reps[0], reps[1], outside, never] {
            for role in Role::ALL {
                let var = sys.lookup_var(rep, role);
                assert_eq!(tables.var(rep, role), var, "{rep:?} {role:?}");
                assert_eq!(tables.pinned(rep, role), var.and_then(|v| sys.pinned(v)));
            }
        }
    }

    #[test]
    fn scores_map_records_effective_score() {
        let (sys, _) = mk_system();
        let sol = solution_with(&sys, &[(0, 0.6)]);
        let ex = extract(&sys, &sol, &ExtractOptions::default());
        let rep = sys.rep_id("pkg.mod.api()").unwrap();
        let s = ex.scores[&(rep, Role::Source)];
        assert!((s - 0.6).abs() < 1e-12);
    }

    /// The margin is the distance from the closest threshold comparison,
    /// measured across *all* backoff levels, with pin-decided variables
    /// excluded.
    #[test]
    fn extraction_margin_finds_tightest_decision() {
        let (sys, _) = mk_system();
        // Level 0 at 0.35 (|0.35-0.1| = 0.25), level 1 at 0.15
        // (|0.8·0.15-0.1| = 0.02): the deeper comparison is the margin,
        // even though extraction would stop at level 0.
        let sol = solution_with(&sys, &[(0, 0.35), (1, 0.15)]);
        let m = extraction_margin(&sys, &sol, &ExtractOptions::default());
        assert!((m - 0.02).abs() < 1e-12, "margin {m}");

        // Pinning the specific rep decides Source via the seed shortcut:
        // with exclude_seeded the whole role is skipped and no score
        // comparison remains.
        let (mut sys, reps) = mk_system();
        let v = sys.lookup_var(reps[0], Role::Source).unwrap();
        sys.pin(v, 1.0);
        let sol = solution_with(&sys, &[(0, 1.0), (1, 0.100001)]);
        let m = extraction_margin(&sys, &sol, &ExtractOptions::default());
        assert_eq!(m, f64::INFINITY, "pin-decided roles carry no margin");

        // An empty system has nothing to compare.
        let empty = ConstraintSystem::new(0.75);
        let sol = Solution::default();
        assert_eq!(
            extraction_margin(&empty, &sol, &ExtractOptions::default()),
            f64::INFINITY
        );
    }

    /// An early-stopped solve extracts the same specification as the
    /// full-budget solve of the same system: on a converged trajectory
    /// the exits land in the same settled region, so the learned entries
    /// do not depend on whether the detector was enabled.
    #[test]
    fn early_stopped_solve_extracts_same_spec() {
        use crate::solve::{solve, EarlyStop, SolveOptions};
        use seldon_constraints::{FlowConstraint, Term};

        let mut sys = ConstraintSystem::new(0.75);
        let src = sys.rep("flask.request.args.get()");
        let snk = sys.rep("os.system()");
        let vsrc = sys.var(src, Role::Source);
        let vsnk = sys.var(snk, Role::Sink);
        for rep in [src, snk] {
            sys.event_reps.push_rep(rep);
            sys.event_reps.end_event();
        }
        sys.pin(vsrc, 1.0);
        sys.add_constraint(FlowConstraint {
            lhs: vec![Term { var: vsrc, coeff: 1.0 }],
            rhs: vec![Term { var: vsnk, coeff: 1.0 }],
            ..Default::default()
        });

        let full = solve(&sys, &SolveOptions { early_stop: None, ..Default::default() });
        let early = solve(
            &sys,
            &SolveOptions { early_stop: Some(EarlyStop::default()), ..Default::default() },
        );
        let opts = ExtractOptions { exclude_seeded: false, ..Default::default() };
        let spec_full = extract(&sys, &full, &opts).spec.to_text();
        let spec_early = extract(&sys, &early, &opts).spec.to_text();
        assert_eq!(spec_full, spec_early);
        assert!(!spec_early.is_empty());
    }
}
