//! The propagation graph (§3) and operations on it.
//!
//! Nodes are [`Event`]s, edges are information flow. Per-program graphs are
//! built independently and unioned into a *global* graph for learning (§4);
//! Merlin additionally uses a *collapsed* graph obtained by vertex
//! contraction of same-representation events (§6.4).

use crate::event::{Event, EventId};
use crate::search::{Direction, SearchWorkspace};
pub use seldon_intern::{IdHash, IdHasher};
use seldon_intern::{Symbol, Symbols};
use std::collections::HashMap;

pub use seldon_ir::IrEdgeKind as EdgeKind;

/// The position through which flow enters a call event, kept for every
/// edge into a call (parameter-sensitive sinks, §3.3). A keyword name is a
/// symbol of the graph's own table.
pub type ArgPos = seldon_ir::IrArgPos<Symbol>;

/// One edge as its source's successor list holds it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// The event receiving the flow.
    pub to: EventId,
    /// Receiver (same-chain) or argument flow.
    pub kind: EdgeKind,
    /// Where the flow enters a call; the first position recorded wins.
    pub pos: Option<ArgPos>,
}

/// A directed graph of information-flow events. Two graphs are equal when
/// they hold equal events with the same ids and the same adjacency lists
/// in the same order, edge kinds, argument positions and symbol tables.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PropagationGraph {
    /// The table the graph's representation and keyword symbols belong to.
    symbols: Symbols,
    events: Vec<Event>,
    /// Forward adjacency: `succs[v]` holds one [`Edge`] per edge out of
    /// `v`, in insertion order. The only store of edge kinds and argument
    /// positions.
    succs: Vec<Vec<Edge>>,
    /// Backward adjacency: `preds[v]` = events flowing into `v`, in
    /// insertion order.
    preds: Vec<Vec<EventId>>,
}

impl PropagationGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        PropagationGraph::default()
    }

    /// The graph of `events` over `symbols` with the adjacency lists
    /// `succs` and `preds`, each kept in the given order. The caller
    /// upholds the invariants the edge methods keep: a list of each per
    /// event, endpoints in range, no self or duplicate edges, and
    /// `preds[v]` holding exactly the sources of the edges into `v` (the
    /// artifact cache's decoder checks them on every payload).
    pub fn from_adjacency(
        symbols: Symbols,
        events: Vec<Event>,
        succs: Vec<Vec<Edge>>,
        preds: Vec<Vec<EventId>>,
    ) -> Self {
        PropagationGraph { symbols, events, succs, preds }
    }

    /// The graph's symbol table.
    pub fn symbols(&self) -> &Symbols {
        &self.symbols
    }

    /// The graph's symbol table, for interning new representations.
    pub fn symbols_mut(&mut self) -> &mut Symbols {
        &mut self.symbols
    }

    /// The most specific representation of event `id`, as text.
    pub fn rep(&self, id: EventId) -> &str {
        self.symbols.resolve(self.events[id.index()].rep_sym())
    }

    /// Whether any backoff representation of event `id` is `text`.
    pub fn has_rep(&self, id: EventId, text: &str) -> bool {
        self.symbols.get(text).is_some_and(|s| self.events[id.index()].reps.contains(&s))
    }

    /// Adds an event, returning its id.
    pub fn add_event(&mut self, event: Event) -> EventId {
        let id = EventId(self.events.len() as u32);
        self.events.push(event);
        self.succs.push(Vec::new());
        self.preds.push(Vec::new());
        id
    }

    /// Adds an argument-flow edge `from → to`. Duplicate and self edges are
    /// ignored.
    pub fn add_edge(&mut self, from: EventId, to: EventId) {
        self.add_edge_kind(from, to, EdgeKind::Argument);
    }

    /// Adds a flow edge with an explicit [`EdgeKind`]. If the edge already
    /// exists, an argument kind upgrades a receiver kind (argument flow is
    /// the stronger claim).
    pub fn add_edge_kind(&mut self, from: EventId, to: EventId, kind: EdgeKind) {
        if from == to {
            return;
        }
        let out = &mut self.succs[from.index()];
        if let Some(edge) = out.iter_mut().find(|e| e.to == to) {
            if kind == EdgeKind::Argument {
                edge.kind = kind;
            }
            return;
        }
        out.push(Edge { to, kind, pos: None });
        self.preds[to.index()].push(from);
    }

    /// Records the argument position of the existing edge `from → to`
    /// into a call event, unless it already has one.
    pub fn set_arg_position(&mut self, from: EventId, to: EventId, pos: ArgPos) {
        if let Some(edge) = self.succs[from.index()].iter_mut().find(|e| e.to == to) {
            edge.pos.get_or_insert(pos);
        }
    }

    /// The edge `from → to`, if it exists.
    fn edge(&self, from: EventId, to: EventId) -> Option<&Edge> {
        self.succs[from.index()].iter().find(|e| e.to == to)
    }

    /// The argument position of an edge, if recorded.
    pub fn arg_position(&self, from: EventId, to: EventId) -> Option<&ArgPos> {
        self.edge(from, to)?.pos.as_ref()
    }

    /// The kind of an existing edge (`None` if the edge does not exist).
    pub fn edge_kind(&self, from: EventId, to: EventId) -> Option<EdgeKind> {
        self.edge(from, to).map(|e| e.kind)
    }

    /// Number of events.
    pub fn event_count(&self) -> usize {
        self.events.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.succs.iter().map(Vec::len).sum()
    }

    /// The event with id `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn event(&self, id: EventId) -> &Event {
        &self.events[id.index()]
    }

    /// Iterates all `(id, event)` pairs.
    pub fn events(&self) -> impl ExactSizeIterator<Item = (EventId, &Event)> {
        self.events
            .iter()
            .enumerate()
            .map(|(i, e)| (EventId(i as u32), e))
    }

    /// Successors of `id` (events that receive flow from it).
    pub fn successors(&self, id: EventId) -> impl ExactSizeIterator<Item = EventId> + '_ {
        self.succs[id.index()].iter().map(|e| e.to)
    }

    /// The edges out of `id`, in insertion order.
    pub fn out_edges(&self, id: EventId) -> &[Edge] {
        &self.succs[id.index()]
    }

    /// Predecessors of `id` (events that flow into it).
    pub fn predecessors(&self, id: EventId) -> &[EventId] {
        &self.preds[id.index()]
    }

    /// All edges as `(from, to)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (EventId, EventId)> + '_ {
        self.succs.iter().enumerate().flat_map(|(i, outs)| {
            outs.iter().map(move |e| (EventId(i as u32), e.to))
        })
    }

    /// Unions `other` into `self`, remapping its event ids. Returns the id
    /// offset applied to `other`'s events. The same as
    /// [`Self::append`] of a clone of `other`.
    pub fn union(&mut self, other: &PropagationGraph) -> u32 {
        self.append(other.clone())
    }

    /// Moves `other` into `self`, shifting its event ids past `self`'s and
    /// linking its symbol table into `self`'s in first-link order.
    /// Returns the id offset applied to `other`'s events.
    ///
    /// Event sets of different programs stay disjoint, exactly as in the
    /// paper's global propagation graph (§4): no cross-program edges are
    /// introduced, but events may share representations. So each
    /// program's event range is closed under reachability, which lets a
    /// [`SearchWorkspace`] cover just that range.
    pub fn append(&mut self, mut other: PropagationGraph) -> u32 {
        let offset = self.events.len() as u32;
        other.remap(&self.symbols.link(&other.symbols));
        // `other` already upholds the graph invariants (no duplicate or
        // self edges, symmetric succs/preds), so its events and adjacency
        // lists move over wholesale, ids shifted in place, instead of
        // being re-validated edge by edge.
        if offset > 0 {
            let targets = other.succs.iter_mut().flatten().map(|e| &mut e.to);
            for id in targets.chain(other.preds.iter_mut().flatten()) {
                id.0 += offset;
            }
        }
        self.events.append(&mut other.events);
        self.succs.append(&mut other.succs);
        self.preds.append(&mut other.preds);
        offset
    }

    /// Links the graph's texts into `table`, renumbers its symbols to
    /// `table`'s and makes `table` the graph's table.
    pub fn rebase(&mut self, mut table: Symbols) {
        self.remap(&table.link(&self.symbols));
        self.symbols = table;
    }

    /// Renumbers every symbol `s` of the graph to `map[s]`.
    fn remap(&mut self, map: &[Symbol]) {
        for rep in self.events.iter_mut().flat_map(|e| &mut e.reps) {
            *rep = map[rep.index()];
        }
        for edge in self.succs.iter_mut().flatten() {
            if let Some(ArgPos::Keyword(k)) = &mut edge.pos {
                *k = map[k.index()];
            }
        }
    }

    /// Pre-allocates room for `events` additional events, for bulk unions.
    pub fn reserve_events(&mut self, events: usize) {
        self.events.reserve(events);
        self.succs.reserve(events);
        self.preds.reserve(events);
    }

    /// Events reachable from `start` by forward BFS (excluding `start`),
    /// in discovery order.
    pub fn reachable_from(&self, start: EventId) -> Vec<EventId> {
        let mut ws = SearchWorkspace::for_graph(self);
        ws.search(self, start, Direction::Forward, usize::MAX).to_vec()
    }

    /// Whether `to` is reachable from `from` (forward).
    pub fn is_reachable(&self, from: EventId, to: EventId) -> bool {
        from == to || self.reachable_from(from).contains(&to)
    }

    /// Vertex contraction (§6.4, Fig. 7): merges all events sharing the same
    /// most-specific representation into one node. Returns the collapsed
    /// graph and the mapping original id → collapsed id.
    ///
    /// The collapsed graph is what Merlin's original formulation assumes; it
    /// is *not* suitable for taint analysis (Fig. 8) but can be used for
    /// specification learning.
    pub fn contract(&self) -> (PropagationGraph, Vec<EventId>) {
        let mut rep_to_new: HashMap<Symbol, EventId> = HashMap::new();
        let mut mapping = vec![EventId(0); self.events.len()];
        let mut out = PropagationGraph { symbols: self.symbols.clone(), ..Default::default() };
        for (id, e) in self.events() {
            let next = EventId(out.events.len() as u32);
            let n = *rep_to_new.entry(e.rep_sym()).or_insert(next);
            if n == next {
                out.add_event(e.clone());
            }
            // Merge candidate roles; keep the first event's metadata.
            let merged = out.events[n.index()].candidates.union(e.candidates);
            out.events[n.index()].candidates = merged;
            mapping[id.index()] = n;
        }
        for (from, edges) in self.succs.iter().enumerate() {
            for edge in edges {
                let (f, t) = (mapping[from], mapping[edge.to.index()]);
                out.add_edge_kind(f, t, edge.kind);
                if let Some(pos) = edge.pos {
                    out.set_arg_position(f, t, pos);
                }
            }
        }
        (out, mapping)
    }

    /// Counts how often each representation occurs across all backoff
    /// options of all events, indexed by [`Symbol::index`] over the
    /// graph's table (zero for symbols no event uses). Used for the
    /// backoff cutoff (§4.3); lookups are array indexing instead of
    /// string hashing.
    pub fn rep_frequency_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.symbols.len()];
        for e in &self.events {
            for r in &e.reps {
                counts[r.index()] += 1;
            }
        }
        counts
    }
}

#[cfg(test)]
impl PropagationGraph {
    /// Adds an event whose representations are `reps`, interned into the
    /// graph's table.
    pub(crate) fn add_event_reps(
        &mut self,
        kind: crate::EventKind,
        reps: &[&str],
        file: crate::FileId,
        span: seldon_ir::Span,
    ) -> EventId {
        let reps = reps.iter().map(|r| self.symbols.intern(r)).collect();
        self.add_event(Event::new(kind, reps, file, span))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, FileId};
    use proptest::prelude::*;
    use seldon_ir::Span;

    fn ev(graph: &mut PropagationGraph, rep: &str) -> EventId {
        graph.add_event_reps(EventKind::Call, &[rep], FileId(0), Span::dummy())
    }

    fn chain(graph: &mut PropagationGraph, reps: &[&str]) -> Vec<EventId> {
        let ids: Vec<EventId> = reps.iter().map(|r| ev(graph, r)).collect();
        for w in ids.windows(2) {
            graph.add_edge(w[0], w[1]);
        }
        ids
    }

    #[test]
    fn add_and_query() {
        let mut g = PropagationGraph::new();
        let ids = chain(&mut g, &["a()", "b()", "c()"]);
        assert_eq!(g.event_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert!(g.successors(ids[0]).eq([ids[1]]));
        assert_eq!(g.predecessors(ids[2]), &[ids[1]]);
        assert!(g.is_reachable(ids[0], ids[2]));
        assert!(!g.is_reachable(ids[2], ids[0]));
    }

    #[test]
    fn duplicate_and_self_edges_ignored() {
        let mut g = PropagationGraph::new();
        let a = ev(&mut g, "a()");
        let b = ev(&mut g, "b()");
        g.add_edge(a, b);
        g.add_edge(a, b);
        g.add_edge(a, a);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn bfs_reachability() {
        let mut g = PropagationGraph::new();
        let ids = chain(&mut g, &["a()", "b()", "c()", "d()"]);
        let x = ev(&mut g, "x()");
        g.add_edge(x, ids[2]);
        let fwd = g.reachable_from(ids[0]);
        assert_eq!(fwd.len(), 3);
        let mut ws = SearchWorkspace::for_graph(&g);
        let back = ws.search(&g, ids[3], Direction::Backward, usize::MAX);
        assert_eq!(back.len(), 4); // a, b, c, x
    }

    #[test]
    fn union_keeps_programs_disjoint() {
        let mut g1 = PropagationGraph::new();
        chain(&mut g1, &["a()", "b()"]);
        let mut g2 = PropagationGraph::new();
        chain(&mut g2, &["a()", "c()"]);
        let offset = g1.union(&g2);
        assert_eq!(offset, 2);
        assert_eq!(g1.event_count(), 4);
        assert_eq!(g1.edge_count(), 2);
        // No cross-program edges: the two `a()` events are distinct nodes.
        assert!(!g1.is_reachable(EventId(0), EventId(3)));
    }

    #[test]
    fn union_preserves_edge_kinds_and_argument_positions() {
        let mut g2 = PropagationGraph::new();
        let a = ev(&mut g2, "a()");
        let b = ev(&mut g2, "b()");
        let c = ev(&mut g2, "c()");
        g2.add_edge_kind(a, b, EdgeKind::Receiver);
        g2.add_edge_kind(a, c, EdgeKind::Argument);
        g2.set_arg_position(a, c, ArgPos::Positional(1));
        let mut g1 = PropagationGraph::new();
        chain(&mut g1, &["x()"]);
        let offset = g1.union(&g2);
        let (a, b, c) = (EventId(a.0 + offset), EventId(b.0 + offset), EventId(c.0 + offset));
        assert_eq!(g1.edge_kind(a, b), Some(EdgeKind::Receiver));
        assert_eq!(g1.edge_kind(a, c), Some(EdgeKind::Argument));
        assert_eq!(g1.arg_position(a, c), Some(&ArgPos::Positional(1)));
        assert_eq!(g1.edge_count(), 2);
        assert_eq!(g1.predecessors(b), &[a]);
    }

    #[test]
    fn edge_slots_upgrade_receivers_and_keep_the_first_position() {
        let mut g = PropagationGraph::new();
        let a = ev(&mut g, "a()");
        let b = ev(&mut g, "b()");
        g.add_edge_kind(a, b, EdgeKind::Receiver);
        g.set_arg_position(a, b, ArgPos::Receiver);
        g.add_edge_kind(a, b, EdgeKind::Receiver);
        assert_eq!(g.edge_kind(a, b), Some(EdgeKind::Receiver));
        g.add_edge_kind(a, b, EdgeKind::Argument);
        g.set_arg_position(a, b, ArgPos::Positional(0));
        g.add_edge_kind(a, b, EdgeKind::Receiver);
        let slot = Edge { to: b, kind: EdgeKind::Argument, pos: Some(ArgPos::Receiver) };
        assert_eq!(g.out_edges(a), &[slot]);
        // A position for a missing edge is dropped.
        g.set_arg_position(b, a, ArgPos::Receiver);
        assert_eq!((g.edge_kind(b, a), g.arg_position(b, a)), (None, None));
        assert_eq!(g.edge_count(), 1);
    }

    /// The vocabularies [`random_graph`] draws reps from: the first two
    /// share texts in different orders, the third shares none.
    const VOCABS: [[&str; 3]; 3] =
        [["a()", "b()", "c.d()"], ["c.d()", "e()", "a()"], ["p()", "q()", "r()"]];

    /// A graph of `n` events over the reps of `VOCABS[vocab]`, each
    /// followed by the shared `x`, with `edges` as `(from, to, tag)` taken
    /// modulo `n`. Bit 0 of `tag` picks the edge kind (repeats upgrade
    /// receiver edges, self edges are dropped); bits 1–2 pick no argument
    /// position or one of each kind. An empty graph has an empty table.
    fn random_graph(n: u32, vocab: usize, edges: &[(u32, u32, u8)]) -> PropagationGraph {
        let mut g = PropagationGraph::new();
        let kinds = [EventKind::Call, EventKind::ObjectRead, EventKind::ParamRead];
        for i in 0..n {
            let reps = [VOCABS[vocab][i as usize % 3], "x"];
            let span = Span::new(i, i + 1, i, 0);
            g.add_event_reps(kinds[i as usize % 3], &reps, FileId(i % 2), span);
        }
        for &(from, to, tag) in edges.iter().filter(|_| n > 0) {
            let (from, to) = (EventId(from % n), EventId(to % n));
            let kind = if tag & 1 == 0 { EdgeKind::Argument } else { EdgeKind::Receiver };
            g.add_edge_kind(from, to, kind);
            match (tag >> 1) & 3 {
                0 => {}
                1 => g.set_arg_position(from, to, ArgPos::Receiver),
                2 => g.set_arg_position(from, to, ArgPos::Positional(tag)),
                _ => {
                    let name = g.symbols.intern(&format!("k{tag}"));
                    g.set_arg_position(from, to, ArgPos::Keyword(name));
                }
            }
        }
        g
    }

    /// The union that copies every list with shifted ids and every
    /// symbol re-interned by text, field by field: the reference
    /// [`PropagationGraph::append`] is checked against.
    fn union_by_copy(g: &mut PropagationGraph, other: &PropagationGraph) -> u32 {
        let offset = g.events.len() as u32;
        let shift = |id: EventId| EventId(id.0 + offset);
        let map: Vec<Symbol> = other.symbols.iter().map(|(_, t)| g.symbols.intern(t)).collect();
        let sym = |s: Symbol| map[s.index()];
        let events: Vec<Event> = other
            .events
            .iter()
            .map(|e| Event { reps: e.reps.iter().map(|&r| sym(r)).collect(), ..e.clone() })
            .collect();
        let succs: Vec<Vec<Edge>> = other
            .succs
            .iter()
            .map(|l| {
                let pos = |p: &Option<ArgPos>| p.map(|p| p.map(|&k| sym(k)));
                l.iter().map(|e| Edge { to: shift(e.to), pos: pos(&e.pos), ..*e }).collect()
            })
            .collect();
        g.events.extend(events);
        g.succs.extend(succs);
        g.preds.extend(other.preds.iter().map(|l| l.iter().map(|&f| shift(f)).collect()));
        offset
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Folding graphs built against their own tables by move equals
        /// folding them by reference and by copy: the same events, reps by
        /// text, adjacency lists in the same order, edge kinds, argument
        /// positions, edge count and returned offsets, and a destination
        /// table numbered in first-link order.
        #[test]
        fn append_equals_union_by_reference(
            specs in prop::collection::vec(
                (
                    0u32..12,
                    0usize..3,
                    prop::collection::vec((any::<u32>(), any::<u32>(), any::<u8>()), 0..40),
                ),
                1..6,
            ),
        ) {
            let mut moved = PropagationGraph::new();
            let (mut borrowed, mut copied) = (PropagationGraph::new(), PropagationGraph::new());
            let (mut texts, mut linked) = (Vec::new(), Vec::new());
            for (n, vocab, edges) in &specs {
                let g = random_graph(*n, *vocab, edges);
                let text = |&r| g.symbols.resolve(r).to_string();
                texts.extend(g.events().map(|(_, e)| e.reps.iter().map(text).collect::<Vec<_>>()));
                for (_, text) in g.symbols.iter() {
                    if !linked.iter().any(|t| t == text) {
                        linked.push(text.to_string());
                    }
                }
                let offset = union_by_copy(&mut copied, &g);
                prop_assert_eq!(borrowed.union(&g), offset);
                prop_assert_eq!(moved.append(g), offset);
                prop_assert_eq!(moved.edge_count(), copied.edge_count());
                prop_assert!(moved == copied, "append differs after {} more events", n);
                prop_assert!(borrowed == copied, "union differs after {} more events", n);
            }
            for (id, e) in moved.events() {
                let reps: Vec<&str> = e.reps.iter().map(|&r| moved.symbols.resolve(r)).collect();
                prop_assert_eq!(&reps, &texts[id.index()]);
            }
            let order: Vec<&str> = moved.symbols.iter().map(|(_, t)| t).collect();
            prop_assert_eq!(order, linked, "ids follow first-link order");
        }
    }

    #[test]
    fn contraction_merges_same_rep() {
        // Fig. 8: two `san()` calls in different functions.
        let mut g = PropagationGraph::new();
        let src = ev(&mut g, "src()");
        let san1 = ev(&mut g, "san()");
        let san2 = ev(&mut g, "san()");
        let sink = ev(&mut g, "sink()");
        g.add_edge(src, san1);
        g.add_edge(san2, sink);
        let (c, mapping) = g.contract();
        assert_eq!(c.event_count(), 3);
        assert_eq!(mapping[san1.index()], mapping[san2.index()]);
        // After contraction, src reaches sink (the Fig. 8 spurious flow).
        let csrc = mapping[src.index()];
        let csink = mapping[sink.index()];
        assert!(c.is_reachable(csrc, csink));
        // ... while in the original graph it does not.
        assert!(!g.is_reachable(src, sink));
    }

    #[test]
    fn representation_frequencies_count_backoffs() {
        let mut g = PropagationGraph::new();
        g.add_event_reps(EventKind::Call, &["a.b()", "b()"], FileId(0), Span::dummy());
        g.add_event_reps(EventKind::Call, &["c.b()", "b()"], FileId(0), Span::dummy());
        let counts = g.rep_frequency_counts();
        let sym = |text| g.symbols().get(text).unwrap().index();
        assert_eq!((counts[sym("b()")], counts[sym("a.b()")], counts[sym("c.b()")]), (2, 1, 1));
    }

    #[test]
    fn empty_graph_stats() {
        let g = PropagationGraph::new();
        assert_eq!((g.event_count(), g.edge_count()), (0, 0));
        assert!(g.rep_frequency_counts().is_empty());
    }
}
