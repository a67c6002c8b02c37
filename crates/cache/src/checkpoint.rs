//! The solver checkpoint.
//!
//! A checkpoint captures the downstream half of a run — the solved score
//! vector plus the extracted specification — keyed by one exact
//! fingerprint, the **input fingerprint** ([`input_fingerprint`]): the
//! corpus's **graph key**, the seed specification, and every
//! generation/solve/extraction option that can influence scores or the
//! spec. A match means generation, solving, and extraction would
//! reproduce the stored outputs bit for bit, so all three stages are
//! skipped; a miss reuses nothing.
//!
//! The graph key folds, in corpus order, the [`graph_fingerprint`] of
//! every per-file graph with events ([`fold_file_fingerprints`]). The
//! union the solver learns from is the concatenation of exactly those
//! graphs, each shifted past the ones before it and with no edge between
//! files, so equal keys mean equal unions as far as learning reads them.
//! A per-file fingerprint hashes representation *strings*, so it is
//! stable across processes and stored with the file's artifact: a warm
//! run folds the stored values and never hashes the union. A caller that
//! holds only the union derives the same key from it
//! ([`union_graph_key`]).
//!
//! The key is **exact-match**. A near-miss warm start (seeding Adam
//! with stale scores) converges to *almost* the same solution, and
//! "almost" breaks the byte-identical-spec guarantee the *replay* path
//! is held to; a fingerprint miss therefore never silently reuses
//! anything. Callers that can tolerate (and police) near-miss reuse —
//! the ladder's opt-in warm rung guards warm solves with an
//! extraction-margin check and falls back to a cold solve when a decision
//! is close — go through [`Checkpoint::warm_init_for`], which remaps the
//! stored scores onto a *different* constraint system by matching
//! variables on their process-stable `(representation, role)` keys
//! recorded in [`Checkpoint::var_keys`].
//!
//! Scores and every other float are serialized as IEEE-754 bit patterns,
//! never as decimal text, so a load returns the exact f64s the solver
//! produced.

use crate::codec::{Reader, Writer};
use crate::entry::EntryError;
use crate::hash::Fnv64;
use seldon_constraints::{ConstraintSystem, GenOptions, GenStats};
use seldon_propgraph::{EventId, PropagationGraph};
use seldon_solver::{ExtractOptions, Extraction, SolveOptions, Solution, StopReason};
use seldon_specs::{Role, RoleSet, TaintSpec};
use seldon_telemetry::EpochSample;
use std::ops::Range;

/// Shape counters of the constraint system a checkpoint was solved from,
/// replayed into stage spans and the manifest when generation is skipped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SystemSummary {
    /// Total flow constraints.
    pub constraints: u64,
    /// Role variables.
    pub vars: u64,
    /// Seed-pinned variables.
    pub pinned: u64,
    /// Constraints per Fig. 4 template.
    pub by_template: [u64; 3],
    /// Candidate events that entered the system.
    pub candidates: u64,
    /// Representations surviving the §4.3 cutoff.
    pub surviving_reps: u64,
    /// Representations dropped by the frequency cutoff.
    pub dropped_by_cutoff: u64,
    /// Representations dropped by the blacklist.
    pub dropped_by_blacklist: u64,
}

impl SystemSummary {
    /// The shape of a generated system and its selection counters.
    pub fn of(system: &ConstraintSystem, gen_stats: &GenStats) -> SystemSummary {
        let [a, b, c] = system.template_counts();
        SystemSummary {
            constraints: system.constraint_count() as u64,
            vars: system.var_count() as u64,
            pinned: system.pinned_count() as u64,
            by_template: [a as u64, b as u64, c as u64],
            candidates: gen_stats.candidate_events as u64,
            surviving_reps: gen_stats.surviving_reps as u64,
            dropped_by_cutoff: gen_stats.dropped_by_cutoff as u64,
            dropped_by_blacklist: gen_stats.dropped_by_blacklist as u64,
        }
    }
}

/// A persisted solver/extraction outcome with its fingerprint.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Fingerprint of graph + seed + options (the reuse key).
    pub input_fp: u64,
    /// The solved score vector, indexed by `VarId`.
    pub scores: Vec<f64>,
    /// Per-variable identity keys, parallel to `scores`: the
    /// representation string and [`Role`] index of each `VarId`. These
    /// survive re-numbering, so a later run whose system assigns
    /// different `VarId`s can still seed Adam from these scores via
    /// [`Checkpoint::warm_init_for`].
    pub var_keys: Vec<(String, u8)>,
    /// Final objective value.
    pub objective: f64,
    /// Final total hinge violation.
    pub violation: f64,
    /// Adam iterations run.
    pub iterations: usize,
    /// Divergence restarts taken.
    pub restarts: usize,
    /// Learning rate of the final run.
    pub final_lr: f64,
    /// Whether the solve diverged.
    pub diverged: bool,
    /// Why the solve stopped ([`seldon_solver::StopReason`] string form).
    pub stop_reason: String,
    /// Epochs the stop saved against the `max_iters` budget.
    pub epochs_saved: usize,
    /// Sampled convergence curve.
    pub curve: Vec<EpochSample>,
    /// The extracted (learned) specification, in its canonical text form.
    pub spec_text: String,
    /// Per-event role assignments from extraction.
    pub event_roles: Vec<(u32, u8)>,
    /// Selections per backoff level.
    pub backoff_hits: Vec<usize>,
    /// System shape for spans/manifest on full reuse.
    pub summary: SystemSummary,
}

/// Fingerprints a propagation graph by exactly what learning reads, in
/// graph order: each event's kind and representation strings, its
/// successors with their edge kinds, and its predecessors (backward
/// searches walk them in list order). Spans, file stamps and argument positions
/// stay out, so an edit that only moves code keeps the key.
/// Symbol-independent: two graphs built from the same corpus agree on
/// this value whatever ids their tables gave each text.
pub fn graph_fingerprint(graph: &PropagationGraph) -> u64 {
    range_fingerprint(graph, 0..graph.event_count())
}

/// [`graph_fingerprint`] of the events `range` of `graph` taken as a
/// graph of their own, event ids counted from `range.start`. Where a
/// union laid a per-file graph out, this is that graph's fingerprint: the
/// union shifts the file's ids by `range.start` and adds no edge between
/// files.
fn range_fingerprint(graph: &PropagationGraph, range: Range<usize>) -> u64 {
    let base = range.start as u32;
    let mut h = Fnv64::new();
    h.write_u64(range.len() as u64);
    for v in range {
        let id = EventId(v as u32);
        let event = graph.event(id);
        h.write_u64(event.kind as u64).write_u64(event.reps.len() as u64);
        for &rep in event.reps {
            h.write_str(graph.symbols().resolve(rep));
        }
        let edges = graph.out_edges(id);
        h.write_u64(edges.len() as u64);
        for edge in edges {
            h.write_u32(edge.to.0.wrapping_sub(base)).write_u64(edge.kind as u64);
        }
        let preds = graph.predecessors(id);
        h.write_u64(preds.len() as u64);
        for &from in preds {
            h.write_u32(from.0.wrapping_sub(base));
        }
    }
    h.finish()
}

/// The graph key of a corpus: folds, in corpus order, the
/// [`graph_fingerprint`] of each file's graph, given as `(event count,
/// fingerprint)`. A file without events adds nothing to the union, so it
/// is skipped here too; a quarantined file (no graph) is not passed.
pub fn fold_file_fingerprints(files: impl IntoIterator<Item = (usize, u64)>) -> u64 {
    let mut h = Fnv64::new();
    let mut folded = 0u64;
    for (_, fp) in files.into_iter().filter(|&(events, _)| events > 0) {
        h.write_u64(fp);
        folded += 1;
    }
    h.write_u64(folded);
    h.finish()
}

/// The graph key ([`fold_file_fingerprints`]) of the per-file graphs a
/// union laid out, derived from the union alone. Each maximal run of
/// events stamped with one [`seldon_propgraph::FileId`] is one file's
/// graph, which holds whenever consecutive files carry distinct stamps,
/// as `seldon learn`'s corpus analysis gives file `i` the stamp `i`.
/// Hashes every event once.
pub fn union_graph_key(union: &PropagationGraph) -> u64 {
    let file = |v: usize| union.event(EventId(v as u32)).file;
    let mut runs = Vec::new();
    let mut start = 0;
    for v in 1..=union.event_count() {
        if v == union.event_count() || file(v) != file(start) {
            runs.push(start..v);
            start = v;
        }
    }
    fold_file_fingerprints(runs.into_iter().map(|r| (r.len(), range_fingerprint(union, r))))
}

/// The reuse key: the graph key ([`fold_file_fingerprints`]) + seed
/// spec + every option that shapes the constraint system, the solve, or
/// the extraction.
pub fn input_fingerprint(
    graph_key: u64,
    seed: &TaintSpec,
    gen: &GenOptions,
    solve: &SolveOptions,
    extract: &ExtractOptions,
) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(graph_key).write_str(&seed.to_text());
    h.write_u64(gen.rep_cutoff as u64)
        .write_f64(gen.c)
        .write_u64(gen.max_rhs_terms as u64)
        .write_u64(gen.max_reach as u64)
        .write_u64(gen.templates.iter().fold(0, |acc, &t| acc << 1 | u64::from(t)))
        .write_u64(gen.max_backoff as u64);
    // `threads` and `trace_stride` are cost/observability knobs; scores
    // are byte-identical across both, so they stay out of the key. The
    // early-stop configuration changes *where* the solve stops, so it is
    // part of the key (presence tag + every field).
    h.write_f64(solve.lambda)
        .write_u64(solve.max_iters as u64)
        .write_f64(solve.tol)
        .write_f64(solve.adam.lr)
        .write_f64(solve.adam.beta1)
        .write_f64(solve.adam.beta2)
        .write_f64(solve.adam.eps);
    match &solve.early_stop {
        None => {
            h.write_u64(0);
        }
        Some(es) => {
            h.write_u64(1)
                .write_u64(es.patience as u64)
                .write_f64(es.rel_tol)
                .write_u64(es.min_iters as u64);
        }
    }
    for t in extract.thresholds {
        h.write_f64(t);
    }
    h.write_f64(extract.decay).write_u64(u64::from(extract.exclude_seeded));
    h.finish()
}

impl Checkpoint {
    /// Packs one finished run — the system it solved, the solution and
    /// its extraction — under its input fingerprint.
    pub fn from_run(
        input_fp: u64,
        system: &ConstraintSystem,
        gen_stats: &GenStats,
        solution: &Solution,
        extraction: &Extraction,
    ) -> Checkpoint {
        let mut event_roles: Vec<(u32, u8)> = extraction
            .event_roles
            .iter()
            .map(|(&id, &roles)| (id.0, Checkpoint::role_bits(roles)))
            .collect();
        event_roles.sort_unstable();
        Checkpoint {
            input_fp,
            scores: solution.scores.clone(),
            var_keys: Checkpoint::var_keys_of(system),
            objective: solution.objective,
            violation: solution.violation,
            iterations: solution.iterations,
            restarts: solution.restarts,
            final_lr: solution.final_lr,
            diverged: solution.diverged,
            stop_reason: solution.stop.as_str().to_string(),
            epochs_saved: solution.epochs_saved,
            curve: solution.trace.clone(),
            spec_text: extraction.spec.to_text(),
            event_roles,
            backoff_hits: extraction.backoff_hits.clone(),
            summary: SystemSummary::of(system, gen_stats),
        }
    }

    /// The stored solve as a [`Solution`]. Its scores are indexed by the
    /// `VarId`s of the system it was solved from.
    pub fn solution(&self) -> Solution {
        Solution {
            scores: self.scores.clone(),
            objective: self.objective,
            violation: self.violation,
            iterations: self.iterations,
            history: Vec::new(),
            diverged: self.diverged,
            restarts: self.restarts,
            final_lr: self.final_lr,
            stop: StopReason::parse(&self.stop_reason).unwrap_or_default(),
            epochs_saved: self.epochs_saved,
            trace: self.curve.clone(),
        }
    }

    /// Packs a [`RoleSet`] into the stored bitmask.
    pub fn role_bits(roles: RoleSet) -> u8 {
        roles.iter().fold(0, |acc, role| acc | 1 << role.index())
    }

    /// Unpacks a stored bitmask into a [`RoleSet`].
    pub fn roles_from_bits(bits: u8) -> RoleSet {
        Role::ALL
            .iter()
            .filter(|role| bits & (1 << role.index()) != 0)
            .fold(RoleSet::EMPTY, |set, &role| set.with(role))
    }

    /// Records the `(representation, role)` identity of every variable
    /// in `system`, in `VarId` order, for a checkpoint solved from it.
    pub fn var_keys_of(system: &ConstraintSystem) -> Vec<(String, u8)> {
        system
            .variables()
            .map(|(_, rep, role)| (rep.to_string(), role.index() as u8))
            .collect()
    }

    /// Remaps the stored scores onto a (possibly different) constraint
    /// system, producing an initial point for
    /// [`seldon_solver::solve_compiled_warm`]: each variable of `system`
    /// takes the old score of the variable with the same
    /// `(representation, role)` key, and variables with no predecessor
    /// start at the cold default `0.0`. Scores of variables that no
    /// longer exist are dropped.
    ///
    /// Returns `None` when this checkpoint carries no usable key table
    /// (none at all, or one whose keys do not line up with its scores) —
    /// callers should then solve cold.
    pub fn warm_init_for(&self, system: &ConstraintSystem) -> Option<Vec<f64>> {
        if self.var_keys.len() != self.scores.len() {
            return None;
        }
        let old: std::collections::HashMap<(&str, u8), f64> = self
            .var_keys
            .iter()
            .zip(&self.scores)
            .map(|((rep, role), &score)| ((rep.as_str(), *role), score))
            .collect();
        Some(
            system
                .variables()
                .map(|(_, rep, role)| {
                    old.get(&(rep, role.index() as u8)).copied().unwrap_or(0.0)
                })
                .collect(),
        )
    }

    /// Per-event roles as the `HashMap` the extraction API uses.
    pub fn event_role_map(&self) -> std::collections::HashMap<EventId, RoleSet> {
        self.event_roles
            .iter()
            .map(|&(id, bits)| (EventId(id), Checkpoint::roles_from_bits(bits)))
            .collect()
    }

    /// Serializes to the binary payload framed by
    /// [`crate::entry::encode_entry`], every field a [`crate::codec`]
    /// record in declaration order.
    pub fn to_payload(&self) -> Vec<u8> {
        let mut w = Writer::default();
        w.u64(self.input_fp);
        w.table(&self.scores, |w, &v| w.f64(v));
        w.table(&self.var_keys, |w, (rep, role)| {
            w.str(rep);
            w.u8(*role);
        });
        w.f64(self.objective);
        w.f64(self.violation);
        w.u64(self.iterations as u64);
        w.u64(self.restarts as u64);
        w.f64(self.final_lr);
        w.u8(u8::from(self.diverged));
        w.str(&self.stop_reason);
        w.u64(self.epochs_saved as u64);
        w.table(&self.curve, |w, e| {
            w.u64(e.epoch);
            w.f64(e.objective);
            w.f64(e.hinge_loss);
            w.u64(e.violated);
            w.f64(e.grad_norm);
            w.f64(e.lr);
        });
        w.str(&self.spec_text);
        w.table(&self.event_roles, |w, &(id, bits)| {
            w.u32(id);
            w.u8(bits);
        });
        w.table(&self.backoff_hits, |w, &n| w.u64(n as u64));
        let s = &self.summary;
        for v in [s.constraints, s.vars, s.pinned]
            .into_iter()
            .chain(s.by_template)
            .chain([s.candidates, s.surviving_reps, s.dropped_by_cutoff, s.dropped_by_blacklist])
        {
            w.u64(v);
        }
        w.finish()
    }

    /// Parses a payload produced by [`Checkpoint::to_payload`].
    ///
    /// # Errors
    ///
    /// [`EntryError::Corrupt`] on a truncated, overlong or malformed
    /// payload, an unknown stop reason, or a variable role outside
    /// [`Role::ALL`].
    pub fn from_payload(payload: &[u8]) -> Result<Checkpoint, EntryError> {
        let corrupt = |what: &str| EntryError::Corrupt(what.to_string());
        let mut r = Reader::new(payload);
        // Struct fields are evaluated in the order written: payload order.
        let ckpt = Checkpoint {
            input_fp: r.u64()?,
            scores: r.table(8, Reader::f64)?,
            var_keys: r.table(5, |r| {
                let rep = r.str()?.to_string();
                match r.u8()? {
                    role if usize::from(role) < Role::ALL.len() => Ok((rep, role)),
                    _ => Err(corrupt("variable role out of range")),
                }
            })?,
            objective: r.f64()?,
            violation: r.f64()?,
            iterations: r.usize()?,
            restarts: r.usize()?,
            final_lr: r.f64()?,
            diverged: r.bool()?,
            stop_reason: StopReason::parse(r.str()?)
                .ok_or_else(|| corrupt("unknown stop reason"))?
                .as_str()
                .to_string(),
            epochs_saved: r.usize()?,
            curve: r.table(48, |r| {
                Ok(EpochSample {
                    epoch: r.u64()?,
                    objective: r.f64()?,
                    hinge_loss: r.f64()?,
                    violated: r.u64()?,
                    grad_norm: r.f64()?,
                    lr: r.f64()?,
                })
            })?,
            spec_text: r.str()?.to_string(),
            event_roles: r.table(5, |r| Ok((r.u32()?, r.u8()?)))?,
            backoff_hits: r.table(8, Reader::usize)?,
            summary: SystemSummary {
                constraints: r.u64()?,
                vars: r.u64()?,
                pinned: r.u64()?,
                by_template: [r.u64()?, r.u64()?, r.u64()?],
                candidates: r.u64()?,
                surviving_reps: r.u64()?,
                dropped_by_cutoff: r.u64()?,
                dropped_by_blacklist: r.u64()?,
            },
        };
        r.finish()?;
        Ok(ckpt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::fuzz;
    use proptest::prelude::*;
    use seldon_propgraph::{
        build_source, ArgPos, EdgeKind, Event, EventKind, FileId, GraphBuilder, Symbols,
    };
    use seldon_pyast::Span;

    fn sample() -> Checkpoint {
        Checkpoint {
            input_fp: 0xdead_beef_0123_4567,
            scores: vec![0.0, 0.5, 1.0, 1e-300, f64::MIN_POSITIVE, -0.0],
            var_keys: vec![
                ("flask.request.args.get()".into(), 0),
                ("escape()".into(), 1),
                ("cursor.execute()".into(), 2),
                ("weird;rep,with\"chars\\".into(), 0),
                ("os.system()".into(), 2),
                ("json.loads()".into(), 0),
            ],
            objective: 1.25,
            violation: 0.0625,
            iterations: 131,
            restarts: 1,
            final_lr: 0.0125,
            diverged: false,
            stop_reason: "plateau".into(),
            epochs_saved: 44,
            curve: vec![EpochSample {
                epoch: 10,
                objective: 2.5,
                hinge_loss: 2.0,
                violated: 7,
                grad_norm: 0.75,
                lr: 0.05,
            }],
            spec_text: "o:flask.request.args.get() 100\n".into(),
            event_roles: vec![(0, 0b001), (9, 0b110)],
            backoff_hits: vec![5, 2, 0],
            summary: SystemSummary {
                constraints: 26145,
                vars: 388,
                pinned: 24,
                by_template: [9000, 8000, 9145],
                candidates: 6000,
                surviving_reps: 388,
                dropped_by_cutoff: 100,
                dropped_by_blacklist: 3,
            },
        }
    }

    #[test]
    fn payload_round_trip_is_bit_exact() {
        let ckpt = sample();
        let back = Checkpoint::from_payload(&ckpt.to_payload()).unwrap();
        assert_eq!(back, ckpt);
        for (a, b) in ckpt.scores.iter().zip(&back.scores) {
            assert_eq!(a.to_bits(), b.to_bits(), "scores survive bit-for-bit");
        }
    }

    #[test]
    fn checkpoint_without_var_keys_declines_warm_start() {
        let ckpt = Checkpoint { var_keys: Vec::new(), ..sample() };
        let sys = ConstraintSystem::new(0.75);
        assert_eq!(ckpt.warm_init_for(&sys), None, "no key table, no warm seed");
    }

    #[test]
    fn warm_init_remaps_scores_across_var_id_spaces() {
        use seldon_specs::Role;
        let mut ckpt = sample();
        ckpt.scores = vec![0.1, 0.2, 0.3];
        ckpt.var_keys = vec![
            ("a()".into(), Role::Source.index() as u8),
            ("b()".into(), Role::Sink.index() as u8),
            ("gone()".into(), Role::Source.index() as u8),
        ];
        // New system: same reps in a different order (different VarIds),
        // one variable removed, one brand new.
        let mut sys = ConstraintSystem::new(0.75);
        let b = sys.rep("b()");
        let a = sys.rep("a()");
        let fresh = sys.rep("fresh()");
        sys.var(b, Role::Sink);
        sys.var(fresh, Role::Sanitizer);
        sys.var(a, Role::Source);
        let init = ckpt.warm_init_for(&sys).unwrap();
        assert_eq!(init, vec![0.2, 0.0, 0.1], "matched keys remap, new vars cold");
        // Same rep under a different role is a different variable.
        let mut other = ConstraintSystem::new(0.75);
        let a2 = other.rep("a()");
        other.var(a2, Role::Sanitizer);
        assert_eq!(ckpt.warm_init_for(&other).unwrap(), vec![0.0]);
        // A corrupt checkpoint whose keys disagree with its scores is
        // rejected rather than half-applied.
        ckpt.var_keys.pop();
        assert_eq!(ckpt.warm_init_for(&sys), None);
    }

    #[test]
    fn from_run_and_solution_convert_both_ways() {
        let mut system = ConstraintSystem::new(0.75);
        let a = system.rep("a()");
        system.var(a, Role::Source);
        system.var(a, Role::Sink);
        let solution = Solution {
            scores: vec![0.25, 1.0],
            objective: 1.5,
            violation: 0.125,
            iterations: 7,
            history: vec![3.0, 2.0],
            diverged: false,
            restarts: 1,
            final_lr: 0.0125,
            stop: StopReason::Plateau,
            epochs_saved: 793,
            trace: sample().curve,
        };
        let extraction = Extraction {
            spec: TaintSpec::parse("o: a()\ni: a()\n").unwrap(),
            event_roles: [(EventId(9), RoleSet::ALL), (EventId(2), RoleSet::EMPTY)].into(),
            backoff_hits: vec![2, 1],
            ..Extraction::default()
        };
        let gen_stats = GenStats { candidate_events: 11, surviving_reps: 1, ..GenStats::default() };
        let ckpt = Checkpoint::from_run(1, &system, &gen_stats, &solution, &extraction);
        assert_eq!(ckpt.input_fp, 1);
        assert_eq!(ckpt.summary, SystemSummary::of(&system, &gen_stats));
        assert_eq!((ckpt.summary.vars, ckpt.summary.candidates), (2, 11));
        assert_eq!(ckpt.var_keys, [("a()".to_string(), 0), ("a()".to_string(), 2)]);
        assert_eq!(ckpt.event_roles, [(2, 0), (9, 0b111)], "sorted by event id");
        assert_eq!(TaintSpec::parse(&ckpt.spec_text).unwrap().role_count(), 2);
        let back = Checkpoint::from_payload(&ckpt.to_payload()).unwrap().solution();
        assert_eq!(back.scores, solution.scores);
        assert_eq!(back.stop, StopReason::Plateau);
        assert_eq!(
            (back.iterations, back.restarts, back.epochs_saved, back.diverged),
            (7, 1, 793, false)
        );
        assert_eq!(
            (back.objective, back.violation, back.final_lr),
            (solution.objective, solution.violation, solution.final_lr)
        );
        assert_eq!(back.trace, solution.trace);
        assert!(back.history.is_empty(), "the per-epoch history is not stored");
    }

    #[test]
    fn role_bits_round_trip() {
        for bits in 0u8..8 {
            assert_eq!(Checkpoint::role_bits(Checkpoint::roles_from_bits(bits)), bits);
        }
        assert_eq!(Checkpoint::roles_from_bits(Checkpoint::role_bits(RoleSet::ALL)), RoleSet::ALL);
    }

    #[test]
    fn graph_fingerprint_tracks_content_not_symbols() {
        let a = build_source("import os\nos.system('x')\n", FileId(0)).unwrap();
        let b = build_source("import os\nos.system('x')\n", FileId(0)).unwrap();
        assert_eq!(graph_fingerprint(&a), graph_fingerprint(&b));
        let c = build_source("import os\nos.remove('x')\n", FileId(0)).unwrap();
        assert_ne!(graph_fingerprint(&a), graph_fingerprint(&c));
    }

    /// `a → b`, `a → c` (receiver), `b → d`, `c → d`, with `arg` the
    /// argument position of `b → d`. `edit` may change each event before
    /// it is added, interning into the graph's table; `flip` reverses the insertion order of `a`'s
    /// successors (`[true, _]`) or of `d`'s predecessors (`[_, true]`).
    fn diamond(
        edit: impl Fn(usize, &mut Event, &mut Symbols),
        arg: ArgPos,
        flip: [bool; 2],
    ) -> PropagationGraph {
        let mut g = GraphBuilder::new();
        let reps = ["a()", "b()", "c.d", "e()"];
        let kinds = [EventKind::Call, EventKind::Call, EventKind::ObjectRead, EventKind::Call];
        let span = Span::new(9, 20, 2, 4);
        let [a, b, c, d] = [0, 1, 2, 3].map(|i| {
            let rep = g.symbols_mut().intern(reps[i]);
            let mut event = Event::new(kinds[i], vec![rep], FileId(0), span);
            edit(i, &mut event, g.symbols_mut());
            g.add_event(event)
        });
        let mut succs = [(b, EdgeKind::Argument), (c, EdgeKind::Receiver)];
        let mut preds = [b, c];
        if flip[0] {
            succs.reverse();
        }
        if flip[1] {
            preds.reverse();
        }
        for (to, kind) in succs {
            g.add_edge_kind(a, to, kind);
        }
        for from in preds {
            g.add_edge(from, d);
        }
        g.set_arg_position(b, d, arg);
        g.freeze()
    }

    #[test]
    fn graph_fingerprint_keys_on_what_learning_reads() {
        let keep = |_: usize, _: &mut Event, _: &mut Symbols| {};
        let base = graph_fingerprint(&diamond(keep, ArgPos::Receiver, [false; 2]));
        let same = [
            diamond(|_, e, _| e.span = Span::new(90, 95, 7, 1), ArgPos::Receiver, [false; 2]),
            diamond(|_, e, _| e.file = FileId(5), ArgPos::Receiver, [false; 2]),
            diamond(keep, ArgPos::Positional(3), [false; 2]),
        ];
        for g in &same {
            assert_eq!(graph_fingerprint(g), base, "spans, file stamps and arg positions");
        }
        let rep = |i: usize, e: &mut Event, symbols: &mut Symbols| {
            if i == 2 {
                e.reps = vec![symbols.intern("c.x")];
            }
        };
        let kind = |i: usize, e: &mut Event, _: &mut Symbols| {
            if i == 1 {
                e.kind = EventKind::ParamRead;
            }
        };
        let differ = [
            ("rep", diamond(rep, ArgPos::Receiver, [false; 2])),
            ("kind", diamond(kind, ArgPos::Receiver, [false; 2])),
            ("successor order", diamond(keep, ArgPos::Receiver, [true, false])),
            ("predecessor order", diamond(keep, ArgPos::Receiver, [false, true])),
        ];
        for (case, g) in &differ {
            assert_ne!(graph_fingerprint(g), base, "{case}");
        }
    }

    /// Two per-file graphs, stamped like `seldon learn` stamps them, and
    /// their union.
    fn two_files_and_union() -> [PropagationGraph; 3] {
        let a = build_source("import os\nos.system(input())\n", FileId(0)).unwrap();
        let b = build_source("import flask\nx = flask.request.args.get('q')\n", FileId(1)).unwrap();
        let mut union = PropagationGraph::new();
        union.union(&a);
        union.union(&b);
        [a, b, union]
    }

    #[test]
    fn union_graph_key_folds_the_per_file_fingerprints() {
        let [a, b, union] = two_files_and_union();
        let (fa, fb) = (graph_fingerprint(&a), graph_fingerprint(&b));
        let key = fold_file_fingerprints([(a.event_count(), fa), (b.event_count(), fb)]);
        assert_eq!(union_graph_key(&union), key);
        // Files without events fold to nothing, wherever they sit.
        let empty = graph_fingerprint(&PropagationGraph::new());
        let padded = [(0, empty), (a.event_count(), fa), (0, empty), (b.event_count(), fb)];
        assert_eq!(fold_file_fingerprints(padded), key);
        // Order and content both count.
        assert_ne!(fold_file_fingerprints([(b.event_count(), fb), (a.event_count(), fa)]), key);
        assert_ne!(fold_file_fingerprints([(a.event_count(), fa)]), key);
        assert_eq!(union_graph_key(&PropagationGraph::new()), fold_file_fingerprints([]));
        // The union's own fingerprint is another value: it numbers the
        // second file's events past the first's.
        assert_ne!(graph_fingerprint(&union), key);
    }

    #[test]
    fn fingerprints_react_to_every_option_group() {
        let graph = build_source("import os\nos.system('x')\n", FileId(0)).unwrap();
        let gfp = graph_fingerprint(&graph);
        let seed = TaintSpec::new();
        let (gen, solve, extract) =
            (GenOptions::default(), SolveOptions::default(), ExtractOptions::default());
        let base = input_fingerprint(gfp, &seed, &gen, &solve, &extract);
        let mut g2 = gen.clone();
        g2.rep_cutoff += 1;
        assert_ne!(base, input_fingerprint(gfp, &seed, &g2, &solve, &extract));
        let mut s2 = solve.clone();
        s2.lambda += 0.01;
        assert_ne!(base, input_fingerprint(gfp, &seed, &gen, &s2, &extract));
        // Early-stop shapes where the solve ends, so it keys the cache:
        // disabling it and tweaking each field must all miss.
        let mut s_off = solve.clone();
        s_off.early_stop = None;
        let off = input_fingerprint(gfp, &seed, &gen, &s_off, &extract);
        assert_ne!(base, off, "early-stop presence keyed");
        let mut s_pat = solve.clone();
        if let Some(es) = s_pat.early_stop.as_mut() {
            es.patience += 1;
        }
        assert_ne!(base, input_fingerprint(gfp, &seed, &gen, &s_pat, &extract));
        let mut s_tol = solve.clone();
        if let Some(es) = s_tol.early_stop.as_mut() {
            es.rel_tol *= 0.1;
        }
        assert_ne!(base, input_fingerprint(gfp, &seed, &gen, &s_tol, &extract));
        let mut s_min = solve.clone();
        if let Some(es) = s_min.early_stop.as_mut() {
            es.min_iters += 10;
        }
        assert_ne!(base, input_fingerprint(gfp, &seed, &gen, &s_min, &extract));
        let mut e2 = extract.clone();
        e2.decay *= 0.5;
        assert_ne!(base, input_fingerprint(gfp, &seed, &gen, &solve, &e2));
        // Cost knobs must NOT change the key: a warm run with more
        // threads still reuses the checkpoint.
        let mut s3 = solve.clone();
        s3.threads = 8;
        s3.trace_stride = 1;
        assert_eq!(
            base,
            input_fingerprint(gfp, &seed, &gen, &s3, &extract),
            "threads/stride excluded"
        );
        assert_ne!(base, input_fingerprint(gfp ^ 1, &seed, &gen, &solve, &extract));
    }

    #[test]
    fn truncated_or_saturated_payloads_decode_or_report_corrupt() {
        fuzz::assert_systematic_damage_is_contained(&sample().to_payload(), Checkpoint::from_payload);
    }

    #[test]
    fn unknown_stop_reasons_and_roles_are_corrupt() {
        let bad_stop = Checkpoint { stop_reason: "gave_up".into(), ..sample() };
        let bad_role = Checkpoint { var_keys: vec![("a()".into(), 3); 6], ..sample() };
        for ckpt in [bad_stop, bad_role] {
            assert!(matches!(
                Checkpoint::from_payload(&ckpt.to_payload()),
                Err(EntryError::Corrupt(_))
            ));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn overwritten_payloads_decode_or_report_corrupt(
            writes in prop::collection::vec((any::<usize>(), any::<u8>()), 1..8),
        ) {
            let bad = fuzz::overwrite(&sample().to_payload(), &writes);
            fuzz::assert_contained(Checkpoint::from_payload(&bad), "overwrite");
        }
    }
}
