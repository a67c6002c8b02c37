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
//!
//! Each `(event, role)`'s average-of-backoffs terms are computed once per
//! collection, and every template instance is emitted straight into the
//! row store as borrowed term slices: its own event terms on the lhs, the
//! shared source, sink or sanitizer sums on the rhs. The store merges,
//! sorts and deduplicates each row on emission (see
//! [`crate::system::Row`]), so no per-constraint term vectors exist.

use crate::system::{ConstraintSystem, EventReps, FileRows, RepId, Rows, Template, Term, VarId};
use seldon_propgraph::{Direction, EdgeKind, EventId, PropagationGraph, SearchWorkspace};
use seldon_specs::{CompiledSpec, Role, TaintSpec};
use std::ops::Range;
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
    /// Cap on the events one reachability search per anchor discovers:
    /// the BFS stops after `max_reach` events, bounding worst-case hub
    /// blowup. (The sanitizer-between test of Fig. 4c searches uncapped.)
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
/// members, variables, pins and the per-event surviving representation
/// lists the collector consumes — everything except the Fig. 4 flow
/// rows.
///
/// Selection is global (the §4.3 frequency cutoff couples files through
/// corpus-wide counts) and cheap. Collection is expensive but, because
/// the unioned graph is a disjoint concatenation of per-file graphs,
/// decomposes into independent per-file [`FileRows`] (see
/// [`collect_rows`]) that [`ConstraintSystem::fold`] combines. A file's
/// rows depend only on its graph and its slice of
/// [`ConstraintSystem::event_reps`], which is what lets `seldon serve`
/// reuse them while that slice is unchanged.
#[derive(Debug)]
pub struct Selection {
    /// The system with members, variables, pins and surviving
    /// representations; no rows yet.
    pub sys: ConstraintSystem,
    /// Selection-phase counters; `collect_time` is still zero.
    pub stats: GenStats,
}

/// Runs the selection phases only. [`generate_with_stats`] is exactly
/// [`select`] followed by one [`collect_rows`] over the whole graph and a
/// [`ConstraintSystem::fold`] of it.
pub fn select(graph: &PropagationGraph, seed: &TaintSpec, opts: &GenOptions) -> Selection {
    let mut stats = GenStats::default();
    let select_started = Instant::now();
    let mut sys = ConstraintSystem::new(opts.c);
    sys.symbols = graph.symbols().clone();
    let freq = graph.rep_frequency_counts();
    let compiled = CompiledSpec::new(seed, graph.symbols());

    // --- backoff selection: surviving representation list per event --------
    let mut event_reps = EventReps::with_capacity(graph.event_count(), graph.rep_entry_count());
    for (_, event) in graph.events() {
        for &r in event.reps.iter().take(opts.max_backoff) {
            if freq.get(r.index()).copied().unwrap_or(0) < opts.rep_cutoff {
                stats.dropped_by_cutoff += 1;
                continue;
            }
            if compiled.is_blacklisted(r) {
                stats.dropped_by_blacklist += 1;
                continue;
            }
            event_reps.push_rep(sys.add_rep(r));
        }
        event_reps.end_event();
    }

    // --- variables ----------------------------------------------------------
    for (id, event) in graph.events() {
        let Some(reps) = event_reps.get(id.index()) else { continue };
        for role in event.candidates.iter() {
            for &rep in reps {
                sys.var(rep, role);
            }
        }
    }

    // --- pin seed entries (fully qualified representations only, §4.4) ----
    // Iterates members in first-seen order, whatever ids the table gave
    // them, so pinning stays deterministic and byte-identical.
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

    stats.candidate_events = (0..event_reps.len()).filter(|&i| event_reps.get(i).is_some()).count();
    stats.surviving_reps = sys.rep_syms().len();
    sys.event_reps = event_reps;
    stats.select_time = select_started.elapsed();
    Selection { sys, stats }
}

/// Collects the Fig. 4 rows anchored at events in `range` (a half-open
/// event-id interval) under the selection `sys`.
///
/// `range` must be closed under reachability: no edge may join an event
/// inside it to one outside. Per-file graphs share no edges
/// ([`PropagationGraph::union`] adds none), so a range of whole files —
/// one file's, or the whole graph's — qualifies; every search then runs
/// on one [`SearchWorkspace`] sized to `range`, which keeps a served
/// delta's collection O(file). The same closure means every row anchored
/// in a file's range mentions only that range: a file-range call yields
/// the same rows for those anchors as a whole-graph call, and folding the
/// files' rows in file order reproduces the whole-graph system.
pub fn collect_rows(
    graph: &PropagationGraph,
    sys: &ConstraintSystem,
    opts: &GenOptions,
    range: Range<usize>,
) -> FileRows {
    debug_assert!(
        range.clone().all(|i| {
            let id = EventId(i as u32);
            let inside = |n: EventId| range.contains(&n.index());
            graph.successors(id).all(inside) && graph.predecessors(id).iter().all(|&n| inside(n))
        }),
        "collect_rows range {range:?} is not closed under reachability: \
         it must cover whole files"
    );
    let mut ws = SearchWorkspace::new(range.clone());
    let (collector, keys) = Collector::new(graph, sys, opts, range);
    let mut rows = FileRows { keys, ..Default::default() };
    collector.collect_ab(&mut ws, &mut rows.ab);
    if opts.templates[2] {
        collector.collect_c(&mut ws, &mut rows.c);
    }
    rows
}

/// Like [`generate`], also returning the [`GenStats`] the telemetry layer
/// folds into stage spans. The stats cost a handful of clock reads and
/// counter increments; the generated system is identical to [`generate`].
pub fn generate_with_stats(
    graph: &PropagationGraph,
    seed: &TaintSpec,
    opts: &GenOptions,
) -> (ConstraintSystem, GenStats) {
    let Selection { mut sys, mut stats } = select(graph, seed, opts);
    let collect_started = Instant::now();
    let rows = collect_rows(graph, &sys, opts, 0..graph.event_count());
    sys.fold(&[&rows]);
    stats.collect_time = collect_started.elapsed();
    (sys, stats)
}

/// The Fig. 4 template walk over one event range.
struct Collector<'a> {
    graph: &'a PropagationGraph,
    opts: &'a GenOptions,
    range: Range<usize>,
    /// `spans[id - range.start][role]` locates the average-of-backoffs
    /// terms of `(id, role)` (§4.3) in `terms`, computed once per event
    /// and role; term variables are local indices into the row keys. A
    /// non-candidate `(id, role)` has no terms.
    spans: Vec<[(u32, u32); 3]>,
    terms: Vec<Term>,
}

impl<'a> Collector<'a> {
    /// Computes the backoff terms of every candidate `(event, role)` in
    /// `range`, numbering variables locally in first-use order; returns
    /// the collector and the `(rep, role)` key of each local variable.
    /// Selection already created the variable of every `(candidate role,
    /// surviving rep)` pair, so this only looks variables up.
    fn new(
        graph: &'a PropagationGraph,
        sys: &ConstraintSystem,
        opts: &'a GenOptions,
        range: Range<usize>,
    ) -> (Self, Vec<(RepId, Role)>) {
        let mut local = vec![u32::MAX; sys.var_count()];
        let mut keys = Vec::new();
        let mut spans = Vec::with_capacity(range.len());
        let mut terms = Vec::new();
        for i in range.clone() {
            let mut span = [(0u32, 0u32); 3];
            if let Some(reps) = sys.event_reps.get(i) {
                let coeff = 1.0 / reps.len() as f64;
                for role in graph.event(EventId(i as u32)).candidates.iter() {
                    let start = terms.len() as u32;
                    for &rep in reps {
                        let var = sys
                            .lookup_var(rep, role)
                            .expect("selection created all candidate-role variables");
                        if local[var.index()] == u32::MAX {
                            local[var.index()] = keys.len() as u32;
                            keys.push((rep, role));
                        }
                        terms.push(Term { var: VarId(local[var.index()]), coeff });
                    }
                    span[role.index()] = (start, terms.len() as u32);
                }
            }
            spans.push(span);
        }
        (Collector { graph, opts, range, spans, terms }, keys)
    }

    /// The backoff terms of `(id, role)`; empty for a non-candidate.
    fn terms(&self, id: EventId, role: Role) -> &[Term] {
        let (start, end) = self.spans[id.index() - self.range.start][role.index()];
        &self.terms[start as usize..end as usize]
    }

    fn is_candidate(&self, id: EventId, role: Role) -> bool {
        !self.terms(id, role).is_empty()
    }

    fn anchors(&self) -> impl Iterator<Item = EventId> {
        self.range.clone().map(|i| EventId(i as u32))
    }

    /// Fig. 4a and Fig. 4b, anchored at sanitizer candidates.
    fn collect_ab(&self, ws: &mut SearchWorkspace, out: &mut Rows) {
        let max_reach = self.opts.max_reach;
        let mut sinks: Vec<EventId> = Vec::new();
        let mut sources: Vec<EventId> = Vec::new();
        let mut rhs: Vec<&[Term]> = Vec::new();
        for s in self.anchors() {
            if !self.is_candidate(s, Role::Sanitizer) {
                continue;
            }
            sinks.clear();
            sinks.extend(
                ws.search(self.graph, s, Direction::Forward, max_reach)
                    .iter()
                    .filter(|&&t| self.is_candidate(t, Role::Sink)),
            );
            sources.clear();
            sources.extend(
                ws.search(self.graph, s, Direction::Backward, max_reach)
                    .iter()
                    .filter(|&&u| self.is_candidate(u, Role::Source)),
            );
            let san = self.terms(s, Role::Sanitizer);
            // Fig. 4a: san(s) + snk(t) ≤ Σ src(u) + C.
            if self.opts.templates[0] {
                rhs.clear();
                rhs.extend(
                    sources
                        .iter()
                        .take(self.opts.max_rhs_terms)
                        .map(|&u| self.terms(u, Role::Source)),
                );
                for &t in &sinks {
                    out.emit(Template::A, &[san, self.terms(t, Role::Sink)], &rhs);
                }
            }
            // Fig. 4b: src(u) + san(s) ≤ Σ snk(t) + C.
            if self.opts.templates[1] {
                rhs.clear();
                rhs.extend(
                    sinks.iter().take(self.opts.max_rhs_terms).map(|&t| self.terms(t, Role::Sink)),
                );
                for &u in &sources {
                    out.emit(Template::B, &[self.terms(u, Role::Source), san], &rhs);
                }
            }
        }
    }

    /// Fig. 4c, anchored at source candidates; sanitizers on some path.
    fn collect_c(&self, ws: &mut SearchWorkspace, out: &mut Rows) {
        // Memoized forward closures of sanitizer candidates: the closure
        // of event `m` is `closures[closure_spans[m - range.start]]`,
        // sorted for membership tests; `UNSEEN` marks one not yet computed.
        const UNSEEN: (u32, u32) = (u32::MAX, u32::MAX);
        let mut closure_spans = vec![UNSEEN; self.range.len()];
        let mut closures: Vec<EventId> = Vec::new();
        let mut sinks: Vec<EventId> = Vec::new();
        let mut sans: Vec<EventId> = Vec::new();
        let mut between: Vec<&[Term]> = Vec::new();
        for u in self.anchors() {
            if !self.is_candidate(u, Role::Source) {
                continue;
            }
            let reach = ws.search(self.graph, u, Direction::Forward, self.opts.max_reach);
            sinks.clear();
            sinks.extend(reach.iter().filter(|&&t| self.is_candidate(t, Role::Sink)));
            if sinks.is_empty() {
                continue;
            }
            sans.clear();
            sans.extend(reach.iter().filter(|&&m| self.is_candidate(m, Role::Sanitizer)));
            // Same-chain events (receiver ancestors rooted at u) cannot be
            // "the sanitizer between": a sanitizer transforms its argument,
            // not the object it is read off.
            ws.search_by(self.graph, u, usize::MAX, |_, e| e.kind == EdgeKind::Receiver);
            sans.retain(|&m| !ws.is_seen(m));
            let src = self.terms(u, Role::Source);
            for &t in &sinks {
                between.clear();
                for &m in &sans {
                    if m == t {
                        continue;
                    }
                    let slot = m.index() - self.range.start;
                    if closure_spans[slot] == UNSEEN {
                        let start = closures.len();
                        closures.extend_from_slice(ws.search(
                            self.graph,
                            m,
                            Direction::Forward,
                            usize::MAX,
                        ));
                        closures[start..].sort_unstable();
                        closure_spans[slot] = (start as u32, closures.len() as u32);
                    }
                    let (start, end) = closure_spans[slot];
                    if closures[start as usize..end as usize].binary_search(&t).is_ok() {
                        between.push(self.terms(m, Role::Sanitizer));
                        if between.len() >= self.opts.max_rhs_terms {
                            break;
                        }
                    }
                }
                out.emit(Template::C, &[src, self.terms(t, Role::Sink)], &between);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlowConstraint;
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
        // Every row has a positive (lhs) term: each template's lhs is
        // two event averages of different roles, so nothing cancels it.
        assert_eq!(sys.template_counts().iter().sum::<usize>(), sys.constraint_count());
        for row in sys.rows() {
            assert!(row.terms.iter().any(|&(_, c)| c > 0.0));
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
        for row in sys.rows() {
            // Lhs coefficients are 1/k for k backoff options: in (0, 1].
            // Rhs sums merge repeated representations, so their (negated)
            // magnitudes may exceed 1.
            for &(_, c) in row.terms {
                assert!(c != 0.0 && c <= 1.0, "coefficient {c}");
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
        sys.add_constraint(FlowConstraint {
            lhs: vec![Term { var: va, coeff: 1.0 }],
            rhs: vec![Term { var: vb, coeff: 0.5 }],
            ..Default::default()
        });
        let assignment = vec![0.8, 0.4];
        let gap = sys.rows().next().unwrap().gap(&assignment);
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
        assert_eq!(stats.candidate_events, sys.candidates().count());
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

    /// Per-file rows folded in file order reproduce the batch system
    /// row for row: the contract incremental per-file regeneration rests
    /// on.
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

        let Selection { mut sys, .. } = select(&g, &TaintSpec::new(), &o);
        let parts: Vec<FileRows> = [0..boundary, boundary..g.event_count()]
            .into_iter()
            .map(|range| collect_rows(&g, &sys, &o, range))
            .collect();
        sys.fold(&parts.iter().collect::<Vec<_>>());

        assert_eq!(batch.var_count(), sys.var_count());
        assert_eq!(batch.constraint_count(), sys.constraint_count());
        assert_eq!(batch.template_counts(), sys.template_counts());
        assert!(batch.constraint_count() > 0);
        assert!(batch.rows().eq(sys.rows()));
        assert_eq!(batch.pinned_sorted(), sys.pinned_sorted());
        assert_eq!(batch.event_reps, sys.event_reps);
    }

    /// `max_reach` stops the search itself: on a hub with more reachable
    /// events than the cap, the bounded BFS returns exactly the first
    /// `max_reach` events of the full BFS, and generation emits one 4c
    /// row per sink inside that prefix.
    #[test]
    fn max_reach_bounds_the_search_to_a_bfs_prefix() {
        let mut src = String::from("from m import src, sink\nx = src()\n");
        for i in 0..40 {
            src.push_str(&format!("sink{i}(x)\n"));
        }
        let g = build_source(&src, FileId(0)).unwrap();
        let hub = g
            .events()
            .find(|&(id, _)| g.rep(id) == "m.src()")
            .map(|(id, _)| id)
            .expect("source event");
        let full = g.reachable_from(hub);
        assert!(full.len() > 16, "hub reaches {} events", full.len());
        let mut ws = SearchWorkspace::for_graph(&g);
        assert_eq!(ws.search(&g, hub, Direction::Forward, 16), &full[..16]);
        assert_eq!(ws.search(&g, hub, Direction::Forward, full.len() + 5), &full[..]);

        let capped = GenOptions { max_reach: 16, templates: [false, false, true], ..opts() };
        let sys = generate(&g, &TaintSpec::new(), &capped);
        let sinks_in_prefix = full[..16]
            .iter()
            .filter(|&&t| g.event(t).candidates.contains(Role::Sink))
            .count();
        assert!(sinks_in_prefix > 0);
        assert_eq!(sys.template_counts(), [0, 0, sinks_in_prefix]);
    }

    /// A range that splits a file leaves edges crossing its boundary;
    /// debug builds reject it before any search indexes outside it.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not closed under reachability")]
    fn collect_rows_rejects_a_range_that_splits_a_file() {
        let g = fig2_graph();
        let o = opts();
        let Selection { sys, .. } = select(&g, &TaintSpec::new(), &o);
        let split = (0..g.event_count())
            .find(|&i| g.successors(EventId(i as u32)).any(|n| n.index() > i))
            .expect("an edge to a later event");
        collect_rows(&g, &sys, &o, 0..split + 1);
    }

    #[test]
    fn event_reps_recorded_for_candidates() {
        let g = fig2_graph();
        let sys = generate(&g, &TaintSpec::new(), &opts());
        assert_eq!(sys.event_reps.len(), g.event_count());
        assert!(sys.candidates().count() > 0);
        for (_, reps) in sys.candidates() {
            assert!(!reps.is_empty());
        }
    }
}
