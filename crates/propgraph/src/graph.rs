//! The propagation graph (§3) and operations on it.
//!
//! Nodes are events, edges are information flow. Per-program graphs are
//! built independently and unioned into a *global* graph for learning (§4);
//! Merlin additionally uses a *collapsed* graph obtained by vertex
//! contraction of same-representation events (§6.4).
//!
//! A graph is built once and then only read, so it has two forms. A
//! [`GraphBuilder`] is the growable form a front end's sink (and Merlin's
//! contraction) adds events and edges to; [`GraphBuilder::freeze`] turns
//! it into a [`PropagationGraph`], the flat form everything downstream
//! reads. A frozen graph is seven arrays and a symbol table, whatever its
//! size:
//!
//! ```text
//! event columns    kinds[v] = (kind, candidates)  files[v]  spans[v]
//! reps CSR         reps[starts[v].reps..starts[v + 1].reps]     Symbol arena
//! successor CSR    succs[starts[v].succs..starts[v + 1].succs]  Edge slots
//! predecessor CSR  preds[starts[v].preds..starts[v + 1].preds]  EventIds
//! ```
//!
//! The three CSRs share one offset table, `starts`, with a row per event
//! and a leading row of zeros. Each adjacency list keeps insertion order:
//! constraint generation walks the lists in order, and the solver's
//! floating-point results depend on constraint order. A union
//! ([`PropagationGraph::union`]) concatenates the arrays; the artifact
//! cache fills them straight from a payload ([`GraphParts`]).

use crate::event::{Event, EventId, EventKind, EventView, FileId};
use crate::search::{Direction, SearchWorkspace};
pub use seldon_intern::{IdHash, IdHasher};
use seldon_intern::{Symbol, Symbols};
use seldon_ir::Span;
use seldon_specs::RoleSet;
use std::collections::HashMap;
use std::ops::Range;

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

/// One row of a frozen graph's offset table: where an event's slices
/// start in the three arenas, which is where the previous event's end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Starts {
    /// Offset into the representation arena.
    pub reps: u32,
    /// Offset into the successor slots.
    pub succs: u32,
    /// Offset into the predecessors.
    pub preds: u32,
}

/// The offset of a graph arena's next entry.
fn offset(len: usize) -> u32 {
    u32::try_from(len).expect("graph arenas under 2^32 entries")
}

/// A frozen directed graph of information-flow events, laid out as the
/// module docs draw it. Two graphs are equal when they hold equal events
/// with the same ids and the same adjacency lists in the same order, edge
/// kinds, argument positions and symbol tables.
#[derive(Debug, Clone, PartialEq)]
pub struct PropagationGraph {
    /// The table the graph's representation and keyword symbols belong to.
    symbols: Symbols,
    /// Each event's kind and candidate roles.
    kinds: Vec<(EventKind, RoleSet)>,
    files: Vec<FileId>,
    spans: Vec<Span>,
    /// The offset table: event `v`'s slices run from `starts[v]` to
    /// `starts[v + 1]`; one row per event plus a leading row of zeros.
    starts: Vec<Starts>,
    reps: Vec<Symbol>,
    /// Out-edge slots in insertion order per source: the only store of
    /// edge kinds and argument positions.
    succs: Vec<Edge>,
    /// Predecessors in insertion order per target.
    preds: Vec<EventId>,
}

impl Default for PropagationGraph {
    fn default() -> Self {
        PropagationGraph::new()
    }
}

/// The arrays of a frozen graph, filled by a decoder straight from its
/// input and handed to [`PropagationGraph::from_parts`].
#[derive(Debug, Default)]
pub struct GraphParts {
    /// The table every symbol below belongs to.
    pub symbols: Symbols,
    /// Each event's kind and candidate roles
    /// ([`crate::event::candidate_roles`] of its kind, for a built graph).
    pub kinds: Vec<(EventKind, RoleSet)>,
    /// The file each event came from.
    pub files: Vec<FileId>,
    /// The source span of each event.
    pub spans: Vec<Span>,
    /// The offset table: a leading row of zeros, then one row per event
    /// holding where its slices end, ascending; the last row spans the
    /// arenas.
    pub starts: Vec<Starts>,
    /// Representations, most to least specific per event; none empty.
    pub reps: Vec<Symbol>,
    /// Out-edge slots: endpoints in range, no self or duplicate edges.
    pub succs: Vec<Edge>,
    /// Predecessors: exactly the sources of the edges into each event.
    pub preds: Vec<EventId>,
}

impl PropagationGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        PropagationGraph {
            symbols: Symbols::new(),
            kinds: Vec::new(),
            files: Vec::new(),
            spans: Vec::new(),
            starts: vec![Starts::default()],
            reps: Vec::new(),
            succs: Vec::new(),
            preds: Vec::new(),
        }
    }

    /// The graph of `parts`. The caller upholds the invariants
    /// [`GraphParts`] lists (the artifact cache's decoder checks them on
    /// every payload); this checks only that the arrays agree in length.
    ///
    /// # Panics
    ///
    /// Panics if a column or the offset table disagrees with the event
    /// count, or the offset table does not span the arenas.
    pub fn from_parts(parts: GraphParts) -> Self {
        let n = parts.kinds.len();
        assert!(parts.files.len() == n && parts.spans.len() == n, "one entry per event");
        assert!(parts.starts.len() == n + 1, "one offset row per event and a leading row");
        let ends = Starts {
            reps: offset(parts.reps.len()),
            succs: offset(parts.succs.len()),
            preds: offset(parts.preds.len()),
        };
        let spans_arenas = parts.starts[0] == Starts::default() && parts.starts[n] == ends;
        assert!(spans_arenas, "offsets span the arenas");
        let GraphParts { symbols, kinds, files, spans, starts, reps, succs, preds } = parts;
        PropagationGraph { symbols, kinds, files, spans, starts, reps, succs, preds }
    }

    /// The graph's symbol table.
    pub fn symbols(&self) -> &Symbols {
        &self.symbols
    }

    /// The most specific representation of event `id`, as text.
    pub fn rep(&self, id: EventId) -> &str {
        self.symbols.resolve(self.event(id).rep_sym())
    }

    /// Whether any backoff representation of event `id` is `text`.
    pub fn has_rep(&self, id: EventId, text: &str) -> bool {
        self.symbols.get(text).is_some_and(|s| self.event(id).reps.contains(&s))
    }

    /// Number of events.
    pub fn event_count(&self) -> usize {
        self.kinds.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.succs.len()
    }

    /// Number of representation entries across all events (the reps
    /// arena's length).
    pub fn rep_entry_count(&self) -> usize {
        self.reps.len()
    }

    /// Event `v`'s range in the arena `field` picks from the offset table.
    fn range(&self, v: usize, field: impl Fn(&Starts) -> u32) -> Range<usize> {
        field(&self.starts[v]) as usize..field(&self.starts[v + 1]) as usize
    }

    /// The event with id `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn event(&self, id: EventId) -> EventView<'_> {
        let v = id.index();
        let (kind, candidates) = self.kinds[v];
        EventView {
            kind,
            reps: &self.reps[self.range(v, |s| s.reps)],
            file: self.files[v],
            span: self.spans[v],
            candidates,
        }
    }

    /// Iterates all `(id, event)` pairs.
    pub fn events(&self) -> impl ExactSizeIterator<Item = (EventId, EventView<'_>)> {
        (0..self.event_count() as u32).map(|i| (EventId(i), self.event(EventId(i))))
    }

    /// Successors of `id` (events that receive flow from it).
    pub fn successors(&self, id: EventId) -> impl ExactSizeIterator<Item = EventId> + '_ {
        self.out_edges(id).iter().map(|e| e.to)
    }

    /// The edges out of `id`, in insertion order.
    pub fn out_edges(&self, id: EventId) -> &[Edge] {
        &self.succs[self.range(id.index(), |s| s.succs)]
    }

    /// Predecessors of `id` (events that flow into it), in insertion order.
    pub fn predecessors(&self, id: EventId) -> &[EventId] {
        &self.preds[self.range(id.index(), |s| s.preds)]
    }

    /// All edges as `(from, to)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (EventId, EventId)> + '_ {
        (0..self.event_count() as u32)
            .flat_map(move |v| self.successors(EventId(v)).map(move |to| (EventId(v), to)))
    }

    /// The edge `from → to`, if it exists.
    fn edge(&self, from: EventId, to: EventId) -> Option<&Edge> {
        self.out_edges(from).iter().find(|e| e.to == to)
    }

    /// The argument position of an edge, if recorded.
    pub fn arg_position(&self, from: EventId, to: EventId) -> Option<&ArgPos> {
        self.edge(from, to)?.pos.as_ref()
    }

    /// The kind of an existing edge (`None` if the edge does not exist).
    pub fn edge_kind(&self, from: EventId, to: EventId) -> Option<EdgeKind> {
        self.edge(from, to).map(|e| e.kind)
    }

    /// Appends `other` to `self`, shifting its event ids past `self`'s and
    /// linking its symbol table into `self`'s in first-link order: each
    /// array of `other` is copied onto the end of `self`'s, its ids and
    /// offsets shifted and its symbols mapped on the way. Returns the id
    /// offset applied to `other`'s events.
    ///
    /// Event sets of different programs stay disjoint, exactly as in the
    /// paper's global propagation graph (§4): no cross-program edges are
    /// introduced, but events may share representations. So each
    /// program's event range is closed under reachability, which lets a
    /// [`SearchWorkspace`] cover just that range.
    pub fn union(&mut self, other: &PropagationGraph) -> u32 {
        let offset = self.event_count() as u32;
        let map = self.symbols.link(&other.symbols);
        let base = self.starts[self.event_count()];
        self.kinds.extend_from_slice(&other.kinds);
        self.files.extend_from_slice(&other.files);
        self.spans.extend_from_slice(&other.spans);
        self.starts.extend(other.starts[1..].iter().map(|s| Starts {
            reps: s.reps + base.reps,
            succs: s.succs + base.succs,
            preds: s.preds + base.preds,
        }));
        self.reps.extend(other.reps.iter().map(|s| map[s.index()]));
        self.succs.extend(other.succs.iter().map(|e| Edge {
            to: EventId(e.to.0 + offset),
            pos: e.pos.map(|p| p.map(|k| map[k.index()])),
            ..*e
        }));
        self.preds.extend(other.preds.iter().map(|p| EventId(p.0 + offset)));
        offset
    }

    /// Links the graph's texts into `table`, renumbers its symbols to
    /// `table`'s and makes `table` the graph's table.
    pub fn rebase(&mut self, mut table: Symbols) {
        let map = table.link(&self.symbols);
        for rep in &mut self.reps {
            *rep = map[rep.index()];
        }
        for edge in &mut self.succs {
            if let Some(ArgPos::Keyword(k)) = &mut edge.pos {
                *k = map[k.index()];
            }
        }
        self.symbols = table;
    }

    /// Pre-allocates the per-event columns for `events` additional events.
    pub fn reserve_events(&mut self, events: usize) {
        self.kinds.reserve(events);
        self.files.reserve(events);
        self.spans.reserve(events);
        self.starts.reserve(events);
    }

    /// Pre-allocates every array for unioning all of `graphs` in, so each
    /// grows once for the whole union.
    pub fn reserve_for<'a>(&mut self, graphs: impl Iterator<Item = &'a PropagationGraph>) {
        let (mut events, mut reps, mut edges) = (0, 0, 0);
        for g in graphs {
            events += g.event_count();
            reps += g.reps.len();
            edges += g.edge_count();
        }
        self.reserve_events(events);
        self.reps.reserve(reps);
        self.succs.reserve(edges);
        self.preds.reserve(edges);
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
        let mut mapping = vec![EventId(0); self.event_count()];
        let mut out = GraphBuilder::new();
        out.graph.symbols = self.symbols.clone();
        for (id, e) in self.events() {
            let next = EventId(out.event_count() as u32);
            let n = *rep_to_new.entry(e.rep_sym()).or_insert(next);
            if n == next {
                out.push(e);
            }
            // Merge candidate roles; keep the first event's metadata.
            let merged = &mut out.graph.kinds[n.index()].1;
            *merged = merged.union(e.candidates);
            mapping[id.index()] = n;
        }
        for (from, _) in self.events() {
            for edge in self.out_edges(from) {
                let (f, t) = (mapping[from.index()], mapping[edge.to.index()]);
                out.add_edge_kind(f, t, edge.kind);
                if let Some(pos) = edge.pos {
                    out.set_arg_position(f, t, pos);
                }
            }
        }
        (out.freeze(), mapping)
    }

    /// Counts how often each representation occurs across all backoff
    /// options of all events, indexed by [`Symbol::index`] over the
    /// graph's table (zero for symbols no event uses). Used for the
    /// backoff cutoff (§4.3); lookups are array indexing instead of
    /// string hashing.
    pub fn rep_frequency_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.symbols.len()];
        for r in &self.reps {
            counts[r.index()] += 1;
        }
        counts
    }
}

/// One logged edge of a [`GraphBuilder`].
#[derive(Debug)]
struct LoggedEdge {
    from: EventId,
    /// The previous slot logged out of `from` (`NO_SLOT` ends the chain).
    prev: u32,
    edge: Edge,
}

/// Ends a slot chain in a [`GraphBuilder`]'s edge log.
const NO_SLOT: u32 = u32::MAX;

/// The growable form of a [`PropagationGraph`]: events go straight into
/// the frozen columns and reps arena, edges into a log in insertion
/// order, each slot chained to the previous slot out of the same source
/// so a repeated edge finds the slot it upgrades. [`GraphBuilder::freeze`]
/// sorts the log into the two adjacency CSRs.
#[derive(Debug)]
pub struct GraphBuilder {
    /// The events and symbols built so far; its adjacency arrays and the
    /// offset table's adjacency columns stay empty until
    /// [`GraphBuilder::freeze`].
    graph: PropagationGraph,
    log: Vec<LoggedEdge>,
    /// The last slot logged out of each event (`NO_SLOT` for none).
    last_out: Vec<u32>,
}

impl Default for GraphBuilder {
    fn default() -> Self {
        GraphBuilder::new()
    }
}

impl GraphBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        GraphBuilder::with_capacity(0)
    }

    /// An empty builder with room for `events` events, and twice as many
    /// representations and edges, before an array grows.
    pub fn with_capacity(events: usize) -> Self {
        let mut starts = Vec::with_capacity(events + 1);
        starts.push(Starts::default());
        let graph = PropagationGraph {
            symbols: Symbols::new(),
            kinds: Vec::with_capacity(events),
            files: Vec::with_capacity(events),
            spans: Vec::with_capacity(events),
            starts,
            reps: Vec::with_capacity(2 * events),
            succs: Vec::new(),
            preds: Vec::new(),
        };
        GraphBuilder {
            graph,
            log: Vec::with_capacity(2 * events),
            last_out: Vec::with_capacity(events),
        }
    }

    /// The graph's symbol table.
    pub fn symbols(&self) -> &Symbols {
        &self.graph.symbols
    }

    /// The graph's symbol table, for interning new representations.
    pub fn symbols_mut(&mut self) -> &mut Symbols {
        &mut self.graph.symbols
    }

    /// Number of events added so far.
    pub fn event_count(&self) -> usize {
        self.graph.event_count()
    }

    /// Adds an event, returning its id.
    pub fn add_event(&mut self, event: Event) -> EventId {
        self.push(EventView {
            kind: event.kind,
            reps: &event.reps,
            file: event.file,
            span: event.span,
            candidates: event.candidates,
        })
    }

    /// Adds a copy of `event`, returning its id.
    fn push(&mut self, event: EventView<'_>) -> EventId {
        let g = &mut self.graph;
        let id = EventId(g.kinds.len() as u32);
        g.kinds.push((event.kind, event.candidates));
        g.files.push(event.file);
        g.spans.push(event.span);
        g.reps.extend_from_slice(event.reps);
        g.starts.push(Starts { reps: offset(g.reps.len()), succs: 0, preds: 0 });
        self.last_out.push(NO_SLOT);
        id
    }

    /// The slot of the edge `from → to`, if logged.
    fn slot(&mut self, from: EventId, to: EventId) -> Option<&mut Edge> {
        let mut s = self.last_out[from.index()];
        while s != NO_SLOT {
            if self.log[s as usize].edge.to == to {
                return Some(&mut self.log[s as usize].edge);
            }
            s = self.log[s as usize].prev;
        }
        None
    }

    /// Adds an argument-flow edge `from → to`. Duplicate and self edges are
    /// ignored.
    pub fn add_edge(&mut self, from: EventId, to: EventId) {
        self.add_edge_kind(from, to, EdgeKind::Argument);
    }

    /// Adds a flow edge with an explicit [`EdgeKind`]. If the edge already
    /// exists, an argument kind upgrades a receiver kind (argument flow is
    /// the stronger claim).
    ///
    /// # Panics
    ///
    /// Panics if `from` or `to` is not an event of the builder.
    pub fn add_edge_kind(&mut self, from: EventId, to: EventId, kind: EdgeKind) {
        if from == to {
            return;
        }
        assert!(to.index() < self.event_count(), "edge target {to} out of range");
        if let Some(edge) = self.slot(from, to) {
            if kind == EdgeKind::Argument {
                edge.kind = kind;
            }
            return;
        }
        let prev = std::mem::replace(&mut self.last_out[from.index()], offset(self.log.len()));
        self.log.push(LoggedEdge { from, prev, edge: Edge { to, kind, pos: None } });
    }

    /// Records the argument position of the existing edge `from → to`
    /// into a call event, unless it already has one. A position for a
    /// missing edge is dropped.
    pub fn set_arg_position(&mut self, from: EventId, to: EventId, pos: ArgPos) {
        if let Some(edge) = self.slot(from, to) {
            edge.pos.get_or_insert(pos);
        }
    }

    /// The frozen graph: the edge log sorted into the successor CSR by
    /// source and into the predecessor CSR by target, each by a stable
    /// counting sort, so every list keeps insertion order.
    pub fn freeze(self) -> PropagationGraph {
        let GraphBuilder { mut graph, log, last_out: mut cursor } = self;
        let (n, starts) = (graph.event_count(), &mut graph.starts);
        // Group sizes at `v + 1`, then running sums: each group's start.
        for l in &log {
            starts[l.from.index() + 1].succs += 1;
            starts[l.edge.to.index() + 1].preds += 1;
        }
        for v in 1..=n {
            starts[v].succs += starts[v - 1].succs;
            starts[v].preds += starts[v - 1].preds;
        }
        // Each slot goes to its group's cursor, in log order.
        cursor.clear();
        cursor.extend(starts[..n].iter().map(|s| s.succs));
        let fill = Edge { to: EventId(0), kind: EdgeKind::Argument, pos: None };
        let mut succs = vec![fill; log.len()];
        for l in &log {
            let c = &mut cursor[l.from.index()];
            succs[*c as usize] = l.edge;
            *c += 1;
        }
        cursor.clear();
        cursor.extend(starts[..n].iter().map(|s| s.preds));
        let mut preds = vec![EventId(0); log.len()];
        for l in &log {
            let c = &mut cursor[l.edge.to.index()];
            preds[*c as usize] = l.from;
            *c += 1;
        }
        (graph.succs, graph.preds) = (succs, preds);
        graph
    }
}

#[cfg(test)]
impl GraphBuilder {
    /// Adds an event whose representations are `reps`, interned into the
    /// graph's table.
    pub(crate) fn add_event_reps(
        &mut self,
        kind: EventKind,
        reps: &[&str],
        file: FileId,
        span: Span,
    ) -> EventId {
        let reps = reps.iter().map(|r| self.graph.symbols.intern(r)).collect();
        self.add_event(Event::new(kind, reps, file, span))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ev(graph: &mut GraphBuilder, rep: &str) -> EventId {
        graph.add_event_reps(EventKind::Call, &[rep], FileId(0), Span::dummy())
    }

    fn chain(graph: &mut GraphBuilder, reps: &[&str]) -> Vec<EventId> {
        let ids: Vec<EventId> = reps.iter().map(|r| ev(graph, r)).collect();
        for w in ids.windows(2) {
            graph.add_edge(w[0], w[1]);
        }
        ids
    }

    fn chain_graph(reps: &[&str]) -> PropagationGraph {
        let mut b = GraphBuilder::new();
        chain(&mut b, reps);
        b.freeze()
    }

    #[test]
    fn add_and_query() {
        let mut b = GraphBuilder::new();
        let ids = chain(&mut b, &["a()", "b()", "c()"]);
        let g = b.freeze();
        assert_eq!(g.event_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert!(g.successors(ids[0]).eq([ids[1]]));
        assert_eq!(g.predecessors(ids[2]), &[ids[1]]);
        assert!(g.is_reachable(ids[0], ids[2]));
        assert!(!g.is_reachable(ids[2], ids[0]));
    }

    #[test]
    fn duplicate_and_self_edges_ignored() {
        let mut b = GraphBuilder::new();
        let a = ev(&mut b, "a()");
        let c = ev(&mut b, "b()");
        b.add_edge(a, c);
        b.add_edge(a, c);
        b.add_edge(a, a);
        assert_eq!(b.freeze().edge_count(), 1);
    }

    #[test]
    fn bfs_reachability() {
        let mut b = GraphBuilder::new();
        let ids = chain(&mut b, &["a()", "b()", "c()", "d()"]);
        let x = ev(&mut b, "x()");
        b.add_edge(x, ids[2]);
        let g = b.freeze();
        let fwd = g.reachable_from(ids[0]);
        assert_eq!(fwd.len(), 3);
        let mut ws = SearchWorkspace::for_graph(&g);
        let back = ws.search(&g, ids[3], Direction::Backward, usize::MAX);
        assert_eq!(back.len(), 4); // a, b, c, x
    }

    #[test]
    fn union_keeps_programs_disjoint() {
        let mut g1 = chain_graph(&["a()", "b()"]);
        let g2 = chain_graph(&["a()", "c()"]);
        let offset = g1.union(&g2);
        assert_eq!(offset, 2);
        assert_eq!(g1.event_count(), 4);
        assert_eq!(g1.edge_count(), 2);
        // No cross-program edges: the two `a()` events are distinct nodes.
        assert!(!g1.is_reachable(EventId(0), EventId(3)));
    }

    #[test]
    fn union_preserves_edge_kinds_and_argument_positions() {
        let mut b2 = GraphBuilder::new();
        let a = ev(&mut b2, "a()");
        let b = ev(&mut b2, "b()");
        let c = ev(&mut b2, "c()");
        b2.add_edge_kind(a, b, EdgeKind::Receiver);
        b2.add_edge_kind(a, c, EdgeKind::Argument);
        b2.set_arg_position(a, c, ArgPos::Positional(1));
        let g2 = b2.freeze();
        let mut g1 = chain_graph(&["x()"]);
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
        let mut g = GraphBuilder::new();
        let a = ev(&mut g, "a()");
        let b = ev(&mut g, "b()");
        g.add_edge_kind(a, b, EdgeKind::Receiver);
        g.set_arg_position(a, b, ArgPos::Receiver);
        g.add_edge_kind(a, b, EdgeKind::Receiver);
        g.add_edge_kind(a, b, EdgeKind::Argument);
        g.set_arg_position(a, b, ArgPos::Positional(0));
        g.add_edge_kind(a, b, EdgeKind::Receiver);
        // A position for a missing edge is dropped.
        g.set_arg_position(b, a, ArgPos::Receiver);
        let g = g.freeze();
        let slot = Edge { to: b, kind: EdgeKind::Argument, pos: Some(ArgPos::Receiver) };
        assert_eq!(g.out_edges(a), &[slot]);
        assert_eq!((g.edge_kind(b, a), g.arg_position(b, a)), (None, None));
        assert_eq!(g.edge_count(), 1);
    }

    /// The vocabularies [`random_graph`] draws reps from: the first two
    /// share texts in different orders, the third shares none.
    const VOCABS: [[&str; 3]; 3] =
        [["a()", "b()", "c.d()"], ["c.d()", "e()", "a()"], ["p()", "q()", "r()"]];

    /// One builder call of a random op stream.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        /// Add an edge `from → to` (ids modulo the event count) of the
        /// given kind: repeats are multi-edges that may upgrade a receiver
        /// edge, self edges are dropped.
        Edge(u32, u32, EdgeKind),
        /// Record a position on `from → to`: no-op on a missing edge, and
        /// the first position recorded wins. `tag` picks its kind.
        Pos(u32, u32, u8),
    }

    /// The op a random `(from, to, tag)` triple stands for.
    fn op((from, to, tag): (u32, u32, u8)) -> Op {
        match tag % 3 {
            0 => Op::Edge(from, to, EdgeKind::Argument),
            1 => Op::Edge(from, to, EdgeKind::Receiver),
            _ => Op::Pos(from, to, tag / 3),
        }
    }

    /// The growable graph every builder used to be: one successor and
    /// one predecessor `Vec` per event, each edge found by a linear scan
    /// of its source's list. The reference [`GraphBuilder::freeze`] is
    /// checked against.
    #[derive(Default)]
    struct Lists {
        events: Vec<Event>,
        succs: Vec<Vec<Edge>>,
        preds: Vec<Vec<EventId>>,
    }

    impl Lists {
        fn add_event(&mut self, event: Event) {
            self.events.push(event);
            self.succs.push(Vec::new());
            self.preds.push(Vec::new());
        }

        fn add_edge_kind(&mut self, from: EventId, to: EventId, kind: EdgeKind) {
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

        fn set_arg_position(&mut self, from: EventId, to: EventId, pos: ArgPos) {
            if let Some(edge) = self.succs[from.index()].iter_mut().find(|e| e.to == to) {
                edge.pos.get_or_insert(pos);
            }
        }
    }

    /// Replays `n` events over the reps of `VOCABS[vocab]` (each followed
    /// by the shared `x`) and then `ops` into a builder and into the
    /// [`Lists`] reference, interning keyword names into the builder's
    /// table. An empty stream has an empty table.
    fn replay(n: u32, vocab: usize, ops: &[(u32, u32, u8)]) -> (GraphBuilder, Lists) {
        let (mut b, mut lists) = (GraphBuilder::new(), Lists::default());
        let kinds = [EventKind::Call, EventKind::ObjectRead, EventKind::ParamRead];
        for i in 0..n {
            let texts = [VOCABS[vocab][i as usize % 3], "x"];
            let reps = texts.iter().map(|t| b.symbols_mut().intern(t)).collect();
            let span = Span::new(i, i + 1, i, 0);
            let event = Event::new(kinds[i as usize % 3], reps, FileId(i % 2), span);
            lists.add_event(event.clone());
            b.add_event(event);
        }
        for &triple in ops.iter().filter(|_| n > 0) {
            match op(triple) {
                Op::Edge(from, to, kind) => {
                    let (from, to) = (EventId(from % n), EventId(to % n));
                    b.add_edge_kind(from, to, kind);
                    lists.add_edge_kind(from, to, kind);
                }
                Op::Pos(from, to, tag) => {
                    let (from, to) = (EventId(from % n), EventId(to % n));
                    let pos = match tag % 3 {
                        0 => ArgPos::Receiver,
                        1 => ArgPos::Positional(tag),
                        _ => ArgPos::Keyword(b.symbols_mut().intern(&format!("k{}", tag % 4))),
                    };
                    b.set_arg_position(from, to, pos);
                    lists.set_arg_position(from, to, pos);
                }
            }
        }
        (b, lists)
    }

    fn random_graph(n: u32, vocab: usize, ops: &[(u32, u32, u8)]) -> PropagationGraph {
        replay(n, vocab, ops).0.freeze()
    }

    /// The graph as text-resolved rows: kind, file, span, candidates,
    /// reps, successor slots and predecessors of each event, in id order.
    type Slot = (u32, EdgeKind, Option<seldon_ir::IrArgPos>);
    type Row = (EventKind, FileId, Span, RoleSet, Vec<String>, Vec<Slot>, Vec<u32>);

    fn rows(g: &PropagationGraph) -> Vec<Row> {
        let text = |s: &Symbol| g.symbols.resolve(*s).to_string();
        (g.events())
            .map(|(id, e)| {
                let slots = (g.out_edges(id).iter())
                    .map(|s| (s.to.0, s.kind, s.pos.map(|p| p.map(text))))
                    .collect();
                let preds = g.predecessors(id).iter().map(|p| p.0).collect();
                let reps = e.reps.iter().map(text).collect();
                (e.kind, e.file, e.span, e.candidates, reps, slots, preds)
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// For random builder op streams (multi-edges, receiver upgrades,
        /// first-position-wins, positions on missing edges) the frozen
        /// graph's event columns and both CSRs equal the growable lists,
        /// order included.
        #[test]
        fn freeze_equals_the_growable_lists(
            n in 0u32..12,
            ops in prop::collection::vec((any::<u32>(), any::<u32>(), any::<u8>()), 0..60),
        ) {
            let (b, lists) = replay(n, 0, &ops);
            let g = b.freeze();
            prop_assert_eq!(g.event_count(), lists.events.len());
            for (id, e) in g.events() {
                let want = &lists.events[id.index()];
                let columns = (want.kind, want.file, want.span, want.candidates);
                prop_assert_eq!((e.kind, e.file, e.span, e.candidates), columns);
                prop_assert_eq!(e.reps, &want.reps[..]);
                prop_assert_eq!(g.out_edges(id), &lists.succs[id.index()][..]);
                prop_assert_eq!(g.predecessors(id), &lists.preds[id.index()][..]);
            }
            prop_assert_eq!(g.edge_count(), lists.succs.iter().map(Vec::len).sum::<usize>());
        }

        /// Appending graphs built against their own tables with
        /// [`PropagationGraph::union`] equals the union by reference: the
        /// concatenation of their text-resolved rows, ids shifted by the
        /// events before them, with matching offsets and edge counts and a
        /// destination table numbered in first-link order.
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
            let mut union = PropagationGraph::new();
            let (mut want, mut linked): (Vec<Row>, Vec<String>) = (Vec::new(), Vec::new());
            for (n, vocab, ops) in &specs {
                let g = random_graph(*n, *vocab, ops);
                let offset = want.len() as u32;
                want.extend(rows(&g).into_iter().map(|mut row| {
                    row.5.iter_mut().for_each(|s| s.0 += offset);
                    row.6.iter_mut().for_each(|p| *p += offset);
                    row
                }));
                for (_, text) in g.symbols.iter() {
                    if !linked.iter().any(|t| t == text) {
                        linked.push(text.to_string());
                    }
                }
                prop_assert_eq!(union.union(&g), offset);
                prop_assert_eq!(union.edge_count(), want.iter().map(|r| r.5.len()).sum::<usize>());
                prop_assert!(rows(&union) == want, "union differs after {} more events", n);
            }
            let order: Vec<&str> = union.symbols.iter().map(|(_, t)| t).collect();
            prop_assert_eq!(order, linked, "ids follow first-link order");
        }
    }

    /// Appending into a union reserved for every part grows no array.
    #[test]
    fn reserved_union_grows_no_array() {
        let parts: Vec<PropagationGraph> = (0..4)
            .map(|i| random_graph(5 + i, i as usize % 3, &[(0, 1, 0), (2, 1, 1), (2, 1, 5)]))
            .collect();
        let mut union = PropagationGraph::new();
        union.reserve_for(parts.iter());
        let capacity = |g: &PropagationGraph| {
            let columns = (g.kinds.capacity(), g.files.capacity(), g.spans.capacity());
            let arenas = (g.reps.capacity(), g.succs.capacity(), g.preds.capacity());
            (columns, g.starts.capacity(), arenas)
        };
        let before = capacity(&union);
        for g in &parts {
            union.union(g);
        }
        assert_eq!(capacity(&union), before);
    }

    #[test]
    fn contraction_merges_same_rep() {
        // Fig. 8: two `san()` calls in different functions.
        let mut b = GraphBuilder::new();
        let src = ev(&mut b, "src()");
        let san1 = ev(&mut b, "san()");
        let san2 = ev(&mut b, "san()");
        let sink = ev(&mut b, "sink()");
        b.add_edge(src, san1);
        b.add_edge(san2, sink);
        let g = b.freeze();
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
        let mut b = GraphBuilder::new();
        b.add_event_reps(EventKind::Call, &["a.b()", "b()"], FileId(0), Span::dummy());
        b.add_event_reps(EventKind::Call, &["c.b()", "b()"], FileId(0), Span::dummy());
        let g = b.freeze();
        let counts = g.rep_frequency_counts();
        let sym = |text| g.symbols().get(text).unwrap().index();
        assert_eq!((counts[sym("b()")], counts[sym("a.b()")], counts[sym("c.b()")]), (2, 1, 1));
    }

    #[test]
    fn empty_graph_stats() {
        let g = PropagationGraph::new();
        assert_eq!((g.event_count(), g.edge_count()), (0, 0));
        assert!(g.rep_frequency_counts().is_empty());
        assert_eq!(GraphBuilder::new().freeze(), g);
    }
}
