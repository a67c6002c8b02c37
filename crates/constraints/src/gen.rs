//! Constraint generation from a propagation graph (§4.2, Fig. 4) with
//! backoff selection (§4.3) and seed-specification pinning (§4.1).
//!
//! The three information-flow templates are collected by BFS exactly as the
//! paper describes:
//!
//! * **Fig. 4a** — for every sanitizer candidate `s` flowing into a sink
//!   candidate `t`: `san(s) + snk(t) ≤ Σ src(uᵢ) + C` over the source
//!   candidates `uᵢ` flowing into `s`;
//! * **Fig. 4b** — for every source `u` flowing into sanitizer `s`:
//!   `src(u) + san(s) ≤ Σ snk(tₖ) + C` over sinks reachable from `s`;
//! * **Fig. 4c** — for every source `u` flowing into sink `t`:
//!   `src(u) + snk(t) ≤ Σ san(m) + C` over sanitizer candidates `m` lying
//!   on a path between them.

use crate::system::{ConstraintSystem, FlowConstraint, RepId, Template, Term};
use seldon_propgraph::{EventId, PropagationGraph};
use seldon_specs::{CompiledSpec, Role, TaintSpec};
use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

/// Tunable knobs of constraint generation; defaults follow the paper.
#[derive(Debug, Clone)]
pub struct GenOptions {
    /// Representations occurring fewer than this many times are dropped
    /// (§4.3; the paper uses 5).
    pub rep_cutoff: usize,
    /// The implication-strength constant `C` (§4.2; the paper uses 0.75
    /// after comparing against 1.0).
    pub c: f64,
    /// Cap on the number of summed terms on a constraint's right-hand side.
    pub max_rhs_terms: usize,
    /// Cap on the BFS frontier per event, bounding worst-case hub blowup.
    pub max_reach: usize,
    /// Which Fig. 4 templates to instantiate (all three by default); used
    /// by the template-ablation experiment.
    pub templates: [bool; 3],
    /// Maximum number of backoff options kept per event (`usize::MAX` =
    /// all, 1 = most-specific only). Used by the backoff ablation — §4.3
    /// argues backoff is what makes learning possible without static
    /// types.
    pub max_backoff: usize,
}

impl Default for GenOptions {
    fn default() -> Self {
        GenOptions {
            rep_cutoff: 5,
            c: 0.75,
            max_rhs_terms: 64,
            max_reach: 512,
            templates: [true; 3],
            max_backoff: usize::MAX,
        }
    }
}

/// Observability counters and phase timings of one [`generate`] call.
///
/// The two phases match the paper's structure: *representation/backoff
/// selection* (§4.3 — frequency cutoff, blacklist, variable and pin
/// setup) and *constraint collection* (§4.2 — the Fig. 4 template BFS).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GenStats {
    /// Wall-clock of backoff selection, variable creation, and pinning.
    pub select_time: Duration,
    /// Wall-clock of the Fig. 4 constraint collection.
    pub collect_time: Duration,
    /// Events with at least one surviving representation (candidates).
    pub candidate_events: usize,
    /// Distinct representations that survived selection (system members).
    pub surviving_reps: usize,
    /// Backoff options dropped by the frequency cutoff, across events.
    pub dropped_by_cutoff: usize,
    /// Backoff options dropped by the seed blacklist, across events.
    pub dropped_by_blacklist: usize,
}

/// Builds the constraint system for `graph`, pinning `seed` entries.
pub fn generate(
    graph: &PropagationGraph,
    seed: &TaintSpec,
    opts: &GenOptions,
) -> ConstraintSystem {
    generate_with_stats(graph, seed, opts).0
}

/// Output of the selection phases (§4.3 backoff selection, variable
/// creation, §4.1 seed pinning): a [`ConstraintSystem`] populated with
/// members, variables, and pins — everything except the Fig. 4 flow
/// constraints — plus the per-event surviving representation lists the
/// collector consumes.
///
/// Splitting selection from collection is what makes *incremental*
/// generation possible: selection is global (the §4.3 frequency cutoff
/// couples files through corpus-wide counts) and cheap, while collection
/// is expensive but — because the unioned graph is a disjoint
/// concatenation of per-file graphs — decomposes into independent
/// per-file row ranges (see [`collect_rows`]).
#[derive(Debug)]
pub struct Selection {
    /// The system with members, variables, and pins; no constraints yet.
    pub sys: ConstraintSystem,
    /// Surviving representations per event (`None` = not a candidate),
    /// indexed by event id.
    pub event_reps: Vec<Option<Vec<RepId>>>,
    /// Selection-phase counters; `collect_time` is still zero.
    pub stats: GenStats,
}

/// Runs the selection phases only. [`generate_with_stats`] is exactly
/// [`select`] followed by a full-range [`collect_rows`] splice, so a
/// caller reassembling per-file row ranges in event order reproduces the
/// batch system byte for byte.
pub fn select(graph: &PropagationGraph, seed: &TaintSpec, opts: &GenOptions) -> Selection {
    let mut stats = GenStats::default();
    let select_started = Instant::now();
    let mut sys = ConstraintSystem::new(opts.c);
    let freq = graph.rep_frequency_counts();
    let compiled = CompiledSpec::new(seed);

    // --- backoff selection: surviving representation list per event --------
    let mut event_reps: Vec<Option<Vec<RepId>>> = Vec::with_capacity(graph.event_count());
    for (_, event) in graph.events() {
        let mut reps: Vec<RepId> = Vec::new();
        for &r in event.reps.iter().take(opts.max_backoff) {
            if freq.get(r.index()).copied().unwrap_or(0) < opts.rep_cutoff {
                stats.dropped_by_cutoff += 1;
                continue;
            }
            if compiled.is_blacklisted(r) {
                stats.dropped_by_blacklist += 1;
                continue;
            }
            let id = sys.add_rep(r);
            if !reps.contains(&id) {
                reps.push(id);
            }
        }
        event_reps.push(if reps.is_empty() { None } else { Some(reps) });
    }

    // --- variables ----------------------------------------------------------
    for (id, event) in graph.events() {
        let Some(reps) = &event_reps[id.index()] else { continue };
        for role in event.candidates.iter() {
            for &rep in reps {
                sys.var(rep, role);
            }
        }
        sys.event_reps.push((id, reps.clone()));
    }

    // --- pin seed entries (fully qualified representations only, §4.4) ----
    // Iterates members in first-seen order — the same order the old
    // string-keyed interner assigned dense ids — so pinning stays
    // deterministic and byte-identical.
    let member_reps: Vec<RepId> = sys.rep_syms().to_vec();
    for rep in member_reps {
        let roles = compiled.roles(rep);
        if roles.is_empty() {
            continue;
        }
        for role in Role::ALL {
            let value = if roles.contains(role) { 1.0 } else { 0.0 };
            // Only pin variables that exist as candidates; create the
            // positive one if missing so the seed always takes effect.
            match sys.lookup_var(rep, role) {
                Some(v) => sys.pin(v, value),
                None if value == 1.0 => {
                    let v = sys.var(rep, role);
                    sys.pin(v, value);
                }
                None => {}
            }
        }
    }

    stats.candidate_events = event_reps.iter().filter(|r| r.is_some()).count();
    stats.surviving_reps = sys.rep_syms().len();
    stats.select_time = select_started.elapsed();
    Selection { sys, event_reps, stats }
}

/// Collects the Fig. 4 flow rows for anchor events in `range` (a
/// half-open event-id interval), without mutating the system. Returns the
/// Fig. 4a/4b rows and the Fig. 4c rows as separate pools: the batch
/// order is *all* a/b rows (anchors in event order) followed by *all* c
/// rows, so per-file pools concatenated file-by-file — a/b pools first,
/// then c pools — splice back into exactly the batch row sequence.
///
/// Per-file graphs share no edges, so every row anchored in a file's
/// event range mentions only that range: a range-restricted call yields
/// the same rows for those anchors as the full pass, which is what lets
/// an incremental caller regenerate only the files whose graph or
/// selection changed.
pub fn collect_rows(
    graph: &PropagationGraph,
    sys: &ConstraintSystem,
    event_reps: &[Option<Vec<RepId>>],
    opts: &GenOptions,
    range: std::ops::Range<usize>,
) -> (Vec<FlowConstraint>, Vec<FlowConstraint>) {
    let collector = Collector { graph, sys, event_reps, opts };
    collector.collect(range)
}

/// Like [`generate`], also returning the [`GenStats`] the telemetry layer
/// folds into stage spans. The stats cost a handful of clock reads and
/// counter increments; the generated system is identical to [`generate`].
pub fn generate_with_stats(
    graph: &PropagationGraph,
    seed: &TaintSpec,
    opts: &GenOptions,
) -> (ConstraintSystem, GenStats) {
    let Selection { mut sys, event_reps, mut stats } = select(graph, seed, opts);

    // --- flow constraints ---------------------------------------------------
    let collect_started = Instant::now();
    let (ab, c) = collect_rows(graph, &sys, &event_reps, opts, 0..graph.event_count());
    for row in ab.into_iter().chain(c) {
        sys.add_constraint(row);
    }
    stats.collect_time = collect_started.elapsed();
    (sys, stats)
}

struct Collector<'a> {
    graph: &'a PropagationGraph,
    sys: &'a ConstraintSystem,
    event_reps: &'a [Option<Vec<RepId>>],
    opts: &'a GenOptions,
}

impl Collector<'_> {
    fn is_candidate(&self, id: EventId, role: Role) -> bool {
        self.event_reps[id.index()].is_some()
            && self.graph.event(id).candidates.contains(role)
    }

    /// Average-of-backoffs terms for `(event, role)` (§4.3). Selection
    /// already created the variable of every `(candidate role, surviving
    /// rep)` pair, so collection only looks variables up — which is what
    /// lets it run against an immutable system, range by range.
    fn terms(&self, id: EventId, role: Role) -> Vec<Term> {
        let Some(reps) = &self.event_reps[id.index()] else { return Vec::new() };
        let coeff = 1.0 / reps.len() as f64;
        reps.iter()
            .map(|&rep| Term {
                var: self
                    .sys
                    .lookup_var(rep, role)
                    .expect("selection created all candidate-role variables"),
                coeff,
            })
            .collect()
    }

    fn forward(&self, id: EventId) -> Vec<EventId> {
        let mut v = self.graph.reachable_from(id);
        v.truncate(self.opts.max_reach);
        v
    }

    fn backward(&self, id: EventId) -> Vec<EventId> {
        let mut v = self.graph.reaching(id);
        v.truncate(self.opts.max_reach);
        v
    }

    fn collect(
        self,
        range: std::ops::Range<usize>,
    ) -> (Vec<FlowConstraint>, Vec<FlowConstraint>) {
        let mut ab: Vec<FlowConstraint> = Vec::new();
        let mut cs: Vec<FlowConstraint> = Vec::new();
        let ids: Vec<EventId> = self
            .graph
            .events()
            .map(|(id, _)| id)
            .filter(|id| range.contains(&id.index()))
            .collect();

        // Fig. 4a and Fig. 4b, anchored at sanitizer candidates.
        for &s in &ids {
            if !self.is_candidate(s, Role::Sanitizer) {
                continue;
            }
            let sinks: Vec<EventId> = self
                .forward(s)
                .into_iter()
                .filter(|&t| self.is_candidate(t, Role::Sink))
                .collect();
            let sources: Vec<EventId> = self
                .backward(s)
                .into_iter()
                .filter(|&u| self.is_candidate(u, Role::Source))
                .collect();
            if sinks.is_empty() && sources.is_empty() {
                continue;
            }
            let san_terms = self.terms(s, Role::Sanitizer);
            // Fig. 4a: san(s) + snk(t) ≤ Σ src(u) + C.
            let src_sum: Vec<Term> = sources
                .iter()
                .take(self.opts.max_rhs_terms)
                .flat_map(|&u| self.terms(u, Role::Source))
                .collect();
            if self.opts.templates[0] {
                for &t in &sinks {
                    let mut lhs = san_terms.clone();
                    lhs.extend(self.terms(t, Role::Sink));
                    ab.push(FlowConstraint {
                        lhs,
                        rhs: src_sum.clone(),
                        template: Template::A,
                    });
                }
            }
            // Fig. 4b: src(u) + san(s) ≤ Σ snk(t) + C.
            let snk_sum: Vec<Term> = sinks
                .iter()
                .take(self.opts.max_rhs_terms)
                .flat_map(|&t| self.terms(t, Role::Sink))
                .collect();
            if self.opts.templates[1] {
                for &u in &sources {
                    let mut lhs = self.terms(u, Role::Source);
                    lhs.extend(san_terms.clone());
                    ab.push(FlowConstraint {
                        lhs,
                        rhs: snk_sum.clone(),
                        template: Template::B,
                    });
                }
            }
        }

        // Fig. 4c, anchored at source candidates; sanitizers on some path.
        if !self.opts.templates[2] {
            return (ab, cs);
        }
        let mut forward_sets: HashMap<EventId, HashSet<EventId>> = HashMap::new();
        for &u in &ids {
            if !self.is_candidate(u, Role::Source) {
                continue;
            }
            let reach = self.forward(u);
            let reach_set: HashSet<EventId> = reach.iter().copied().collect();
            let sinks: Vec<EventId> = reach
                .iter()
                .copied()
                .filter(|&t| self.is_candidate(t, Role::Sink))
                .collect();
            if sinks.is_empty() {
                continue;
            }
            let sans: Vec<EventId> = reach
                .iter()
                .copied()
                .filter(|&m| self.is_candidate(m, Role::Sanitizer))
                .collect();
            let src_terms = self.terms(u, Role::Source);
            // Same-chain events (receiver ancestors rooted at u) cannot be
            // "the sanitizer between": a sanitizer transforms its argument,
            // not the object it is read off.
            let chain_of_u: std::collections::HashSet<EventId> = {
                let mut c = std::collections::HashSet::new();
                let mut stack = vec![u];
                while let Some(v) = stack.pop() {
                    for &n in self.graph.successors(v) {
                        if self.graph.edge_kind(v, n)
                            == Some(seldon_propgraph::EdgeKind::Receiver)
                            && c.insert(n)
                        {
                            stack.push(n);
                        }
                    }
                }
                c
            };
            for &t in &sinks {
                let mut between: Vec<EventId> = Vec::new();
                for &m in &sans {
                    if m == t || !reach_set.contains(&m) || chain_of_u.contains(&m) {
                        continue;
                    }
                    let fwd_m = forward_sets.entry(m).or_insert_with(|| {
                        self.graph.reachable_from(m).into_iter().collect()
                    });
                    if fwd_m.contains(&t) {
                        between.push(m);
                        if between.len() >= self.opts.max_rhs_terms {
                            break;
                        }
                    }
                }
                let mut lhs = src_terms.clone();
                lhs.extend(self.terms(t, Role::Sink));
                let rhs: Vec<Term> = between
                    .iter()
                    .flat_map(|&m| self.terms(m, Role::Sanitizer))
                    .collect();
                cs.push(FlowConstraint { lhs, rhs, template: Template::C });
            }
        }
        (ab, cs)
    }
}

/// Evaluates the two sides of a constraint under an assignment, returning
/// `lhs − rhs` (violation is `max(0, lhs − rhs − C)`).
pub fn constraint_gap(c: &FlowConstraint, assignment: &[f64]) -> f64 {
    let lhs: f64 = c.lhs.iter().map(|t| t.coeff * assignment[t.var.index()]).sum();
    let rhs: f64 = c.rhs.iter().map(|t| t.coeff * assignment[t.var.index()]).sum();
    lhs - rhs
}

#[cfg(test)]
mod tests {
    use super::*;
    use seldon_propgraph::{build_source, FileId};

    fn opts() -> GenOptions {
        GenOptions { rep_cutoff: 1, ..Default::default() }
    }

    /// The Fig. 2 snippet: source → sanitizer → sink chain.
    fn fig2_graph() -> PropagationGraph {
        build_source(
            r#"
from flask import request
from werkzeug import secure_filename
import os

def media():
    filename = request.files['f'].filename
    filename = secure_filename(filename)
    path = os.path.join(blog_dir, filename)
    request.files['f'].save(path)
"#,
            FileId(0),
        )
        .unwrap()
    }

    #[test]
    fn generates_all_three_templates() {
        let g = fig2_graph();
        let sys = generate(&g, &TaintSpec::new(), &opts());
        assert!(sys.constraint_count() >= 3, "got {}", sys.constraint_count());
        assert!(sys.var_count() > 0);
        // Every constraint has a non-empty lhs of exactly two event terms
        // (source+sink, san+sink, or src+san averages).
        for c in &sys.constraints {
            assert!(!c.lhs.is_empty());
        }
    }

    #[test]
    fn seed_pinning() {
        let g = fig2_graph();
        let mut seed = TaintSpec::new();
        seed.add("werkzeug.secure_filename()", Role::Sanitizer);
        let sys = generate(&g, &seed, &opts());
        let rep = sys.rep_id("werkzeug.secure_filename()").expect("rep interned");
        let san = sys.lookup_var(rep, Role::Sanitizer).expect("san var");
        assert_eq!(sys.pinned(san), Some(1.0));
        // Other roles of the pinned rep are pinned to 0.
        if let Some(src) = sys.lookup_var(rep, Role::Source) {
            assert_eq!(sys.pinned(src), Some(0.0));
        }
    }

    #[test]
    fn blacklisted_reps_excluded() {
        let g = build_source(
            "from m import src, sink\nx = src()\ny = x.append(1)\nsink(y)\n",
            FileId(0),
        )
        .unwrap();
        let mut seed = TaintSpec::new();
        seed.blacklist("*.append()");
        let sys = generate(&g, &seed, &opts());
        assert!(sys.rep_id("x.append()").is_none());
    }

    #[test]
    fn cutoff_drops_rare_reps() {
        let g = fig2_graph();
        let sys = generate(&g, &TaintSpec::new(), &GenOptions::default());
        // Every rep in this single small file occurs fewer than 5 times.
        assert_eq!(sys.var_count(), 0);
        assert_eq!(sys.constraint_count(), 0);
    }

    #[test]
    fn backoff_average_coefficients() {
        let g = fig2_graph();
        let sys = generate(&g, &TaintSpec::new(), &opts());
        for c in &sys.constraints {
            // Coefficients are 1/k for k backoff options: in (0, 1].
            for t in c.lhs.iter().chain(&c.rhs) {
                assert!(t.coeff > 0.0 && t.coeff <= 1.0);
            }
        }
    }

    #[test]
    fn object_reads_have_no_sink_vars() {
        let g = fig2_graph();
        let sys = generate(&g, &TaintSpec::new(), &opts());
        let rep = sys.rep_id("flask.request.files['f'].filename").expect("read rep");
        assert!(sys.lookup_var(rep, Role::Source).is_some());
        assert!(sys.lookup_var(rep, Role::Sink).is_none());
        assert!(sys.lookup_var(rep, Role::Sanitizer).is_none());
    }

    #[test]
    fn constraint_gap_math() {
        let mut sys = ConstraintSystem::new(0.75);
        let a = sys.rep("a()");
        let b = sys.rep("b()");
        let va = sys.var(a, Role::Source);
        let vb = sys.var(b, Role::Sink);
        let c = FlowConstraint {
            lhs: vec![Term { var: va, coeff: 1.0 }],
            rhs: vec![Term { var: vb, coeff: 0.5 }],
            ..Default::default()
        };
        let assignment = vec![0.8, 0.4];
        let gap = constraint_gap(&c, &assignment);
        assert!((gap - (0.8 - 0.2)).abs() < 1e-12);
    }

    #[test]
    fn stats_match_generated_system() {
        let g = fig2_graph();
        let (sys, stats) = generate_with_stats(&g, &TaintSpec::new(), &opts());
        // Same system as the plain entry point.
        let plain = generate(&g, &TaintSpec::new(), &opts());
        assert_eq!(sys.var_count(), plain.var_count());
        assert_eq!(sys.constraint_count(), plain.constraint_count());
        // Counters agree with the system's own bookkeeping.
        assert_eq!(stats.candidate_events, sys.event_reps.len());
        assert_eq!(stats.surviving_reps, sys.rep_syms().len());
        assert_eq!(stats.dropped_by_cutoff, 0, "cutoff 1 drops nothing");
        assert_eq!(stats.dropped_by_blacklist, 0);
    }

    #[test]
    fn stats_count_dropped_options() {
        let g = fig2_graph();
        // Default cutoff (5) drops every option in this single small file.
        let (sys, stats) =
            generate_with_stats(&g, &TaintSpec::new(), &GenOptions::default());
        assert_eq!(sys.var_count(), 0);
        assert!(stats.dropped_by_cutoff > 0);
        assert_eq!(stats.candidate_events, 0);
        assert_eq!(stats.surviving_reps, 0);
        // A blacklist entry registers its drops separately.
        let mut seed = TaintSpec::new();
        seed.blacklist("os.path.join()");
        let (_, stats) = generate_with_stats(&g, &seed, &opts());
        assert!(stats.dropped_by_blacklist > 0);
    }

    /// Per-range collection spliced in event order — a/b pools for every
    /// range first, then c pools — reproduces the batch system exactly:
    /// the contract incremental per-file regeneration rests on.
    #[test]
    fn ranged_collection_splices_to_the_batch_system() {
        let mut g = fig2_graph();
        let g1 = build_source(
            "from m import src, sink\nx = src()\nsink(x)\n",
            FileId(1),
        )
        .unwrap();
        let boundary = g.event_count();
        g.union(&g1);
        let o = opts();
        let (batch, _) = generate_with_stats(&g, &TaintSpec::new(), &o);

        let Selection { mut sys, event_reps, .. } = select(&g, &TaintSpec::new(), &o);
        let (ab0, c0) = collect_rows(&g, &sys, &event_reps, &o, 0..boundary);
        let (ab1, c1) = collect_rows(&g, &sys, &event_reps, &o, boundary..g.event_count());
        for row in ab0.into_iter().chain(ab1).chain(c0).chain(c1) {
            sys.add_constraint(row);
        }

        assert_eq!(batch.var_count(), sys.var_count());
        assert_eq!(batch.constraint_count(), sys.constraint_count());
        assert!(batch.constraint_count() > 0);
        for (a, b) in batch.constraints.iter().zip(&sys.constraints) {
            assert_eq!(a, b);
        }
        assert_eq!(batch.pinned_sorted(), sys.pinned_sorted());
        assert_eq!(batch.event_reps, sys.event_reps);
    }

    #[test]
    fn event_reps_recorded_for_candidates() {
        let g = fig2_graph();
        let sys = generate(&g, &TaintSpec::new(), &opts());
        assert!(!sys.event_reps.is_empty());
        for (id, reps) in &sys.event_reps {
            assert!(!reps.is_empty());
            assert!(id.index() < g.event_count());
        }
    }
}
