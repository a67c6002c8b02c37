//! The one breadth-first search over a [`PropagationGraph`], run on a
//! reusable [`SearchWorkspace`].
//!
//! Every reachability question the system asks — Fig. 4 collection
//! (§4.2), the taint sweep (§7), Merlin's factors (§6) and the graph's
//! own `reachable_from` family — is one search per anchor event. The
//! workspace keeps the per-search state across anchors so that a search
//! allocates nothing once its buffers have grown:
//!
//! * seen marks stamped with an epoch counter, so a new search needs no
//!   clearing (the marks are cleared only when the counter wraps);
//! * one parent slot per event, valid for the events the last search
//!   reached;
//! * one discovery-order buffer that is also the BFS queue.
//!
//! A workspace covers one half-open event-id range. Searches must stay
//! inside it: per-file graphs share no edges ([`PropagationGraph::union`]
//! adds none), so a range covering whole files, or the whole graph, is
//! closed under reachability.

use crate::event::EventId;
use crate::graph::{Edge, PropagationGraph};
use std::ops::Range;

/// Which adjacency a search follows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Successors: events receiving flow.
    Forward,
    /// Predecessors: events flowing in.
    Backward,
}

/// Reusable state for breadth-first searches over one event range.
#[derive(Debug)]
pub struct SearchWorkspace {
    /// First event id of the covered range.
    base: usize,
    /// Stamp of the current search; `seen[i] == epoch` marks event
    /// `base + i` as reached by it.
    epoch: u32,
    seen: Vec<u32>,
    /// `parent[i]`: the event `base + i` was discovered from.
    parent: Vec<EventId>,
    /// The last search's start followed by its discoveries in order; the
    /// unvisited tail is the BFS queue while the search runs.
    order: Vec<EventId>,
}

impl SearchWorkspace {
    /// A workspace for searches among the events in `range`.
    pub fn new(range: Range<usize>) -> Self {
        SearchWorkspace {
            base: range.start,
            epoch: 0,
            seen: vec![0; range.len()],
            parent: vec![EventId(0); range.len()],
            order: Vec::new(),
        }
    }

    /// A workspace covering every event of `graph`.
    pub fn for_graph(graph: &PropagationGraph) -> Self {
        SearchWorkspace::new(0..graph.event_count())
    }

    /// The events reached from `start` in `dir`, excluding `start`, in
    /// discovery order; the search stops once it has discovered `limit`
    /// events, so the result is a prefix of the unbounded search's.
    pub fn search(
        &mut self,
        graph: &PropagationGraph,
        start: EventId,
        dir: Direction,
        limit: usize,
    ) -> &[EventId] {
        match dir {
            Direction::Forward => self.search_by(graph, start, limit, |_, _| true),
            Direction::Backward => {
                self.bfs(start, limit, |v| graph.predecessors(v).iter().copied())
            }
        }
    }

    /// Like a forward [`Self::search`], crossing the edge slot `e` out of
    /// `v` only where `follow(v, e)` holds.
    ///
    /// # Panics
    ///
    /// Panics if the search reaches an event outside the workspace's
    /// range.
    pub fn search_by(
        &mut self,
        graph: &PropagationGraph,
        start: EventId,
        limit: usize,
        follow: impl Fn(EventId, &Edge) -> bool,
    ) -> &[EventId] {
        let follow = &follow;
        self.bfs(start, limit, |v| {
            graph.out_edges(v).iter().filter(move |e| follow(v, e)).map(|e| e.to)
        })
    }

    /// The breadth-first search from `start` over the neighbors `next(v)`
    /// lists for each reached `v`.
    fn bfs<I: Iterator<Item = EventId>>(
        &mut self,
        start: EventId,
        limit: usize,
        mut next: impl FnMut(EventId) -> I,
    ) -> &[EventId] {
        if self.epoch == u32::MAX {
            self.seen.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        let epoch = self.epoch;
        self.order.clear();
        self.order.push(start);
        self.seen[start.index() - self.base] = epoch;
        let mut head = 0;
        while let Some(&v) = self.order.get(head) {
            head += 1;
            for n in next(v) {
                if self.order.len() > limit {
                    return &self.order[1..];
                }
                let slot = n.index() - self.base;
                if self.seen[slot] != epoch {
                    self.seen[slot] = epoch;
                    self.parent[slot] = v;
                    self.order.push(n);
                }
            }
        }
        &self.order[1..]
    }

    /// The events the last search discovered, excluding its start, in
    /// discovery order.
    pub fn reached(&self) -> &[EventId] {
        self.order.get(1..).unwrap_or(&[])
    }

    /// Whether the last search reached `id` (its start included). False
    /// for an id outside the workspace's range.
    pub fn is_seen(&self, id: EventId) -> bool {
        id.index()
            .checked_sub(self.base)
            .and_then(|slot| self.seen.get(slot))
            .is_some_and(|&stamp| stamp == self.epoch && self.epoch != 0)
    }

    /// The event the last search discovered `id` from; `None` for its
    /// start and for events it did not reach.
    pub fn parent(&self, id: EventId) -> Option<EventId> {
        if !self.is_seen(id) || self.order.first() == Some(&id) {
            return None;
        }
        Some(self.parent[id.index() - self.base])
    }

    /// Sets the epoch counter, so tests can run a search across its
    /// wrap-around without four billion searches first.
    #[cfg(test)]
    fn set_epoch(&mut self, epoch: u32) {
        self.epoch = epoch;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, FileId};
    use proptest::prelude::*;
    use seldon_pyast::Span;
    use std::collections::{HashSet, VecDeque};

    /// The reference search: a fresh `VecDeque` queue and `HashSet` of
    /// seen events per call, as every search was written before the
    /// workspace existed.
    fn oracle(
        graph: &PropagationGraph,
        start: EventId,
        dir: Direction,
        limit: usize,
    ) -> Vec<EventId> {
        let mut seen = HashSet::new();
        let mut queue = VecDeque::new();
        let mut out = Vec::new();
        seen.insert(start);
        queue.push_back(start);
        while let Some(v) = queue.pop_front() {
            let next: Vec<EventId> = match dir {
                Direction::Forward => graph.successors(v).collect(),
                Direction::Backward => graph.predecessors(v).to_vec(),
            };
            for n in next {
                if out.len() == limit {
                    return out;
                }
                if seen.insert(n) {
                    out.push(n);
                    queue.push_back(n);
                }
            }
        }
        out
    }

    /// A random graph on 1–40 events with up to three edges per event,
    /// expanded from `seed` by a splitmix step; cycles and self-loop
    /// attempts (which the graph ignores) are common.
    fn random_graph(seed: u64) -> PropagationGraph {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut g = crate::GraphBuilder::new();
        let n = 1 + (next() % 40) as u32;
        for _ in 0..n {
            g.add_event_reps(EventKind::Call, &["f()"], FileId(0), Span::dummy());
        }
        for _ in 0..(next() % (3 * u64::from(n) + 1)) {
            let from = EventId((next() % u64::from(n)) as u32);
            let to = EventId((next() % u64::from(n)) as u32);
            g.add_edge(from, to);
        }
        g.freeze()
    }

    /// Checks every start, both directions and every limit from 0 to
    /// past the reachable set against the oracle on one reused
    /// workspace, including the parent of each discovery.
    fn check_against_oracle(g: &PropagationGraph, ws: &mut SearchWorkspace) {
        for i in 0..g.event_count() {
            let start = EventId(i as u32);
            for dir in [Direction::Forward, Direction::Backward] {
                let full = oracle(g, start, dir, usize::MAX);
                for limit in (0..=full.len() + 2).chain([usize::MAX]) {
                    let got = ws.search(g, start, dir, limit).to_vec();
                    assert_eq!(got, oracle(g, start, dir, limit), "{start:?} {dir:?} {limit}");
                    assert_eq!(ws.reached(), &got[..]);
                    assert!(ws.is_seen(start));
                    assert_eq!(ws.parent(start), None);
                    for &n in &got {
                        let p = ws.parent(n).expect("discovered events have a parent");
                        let adjacent: Vec<EventId> = match dir {
                            Direction::Forward => g.successors(p).collect(),
                            Direction::Backward => g.predecessors(p).to_vec(),
                        };
                        assert!(adjacent.contains(&n));
                        assert!(p == start || got.contains(&p));
                    }
                    let unseen = (0..g.event_count() as u32)
                        .map(EventId)
                        .filter(|&id| id != start && !got.contains(&id));
                    for id in unseen {
                        assert!(!ws.is_seen(id) && ws.parent(id).is_none());
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The workspace search discovers exactly the oracle's events in
        /// the oracle's order, on random cyclic graphs, for every start,
        /// direction and limit, with one workspace reused throughout.
        #[test]
        fn workspace_search_matches_the_hash_set_oracle(seed in any::<u64>()) {
            let g = random_graph(seed);
            let mut ws = SearchWorkspace::for_graph(&g);
            check_against_oracle(&g, &mut ws);
        }

        /// Searches across the epoch counter's wrap-around still match
        /// the oracle: stale marks from before the wrap never read as
        /// seen. The searches before the wrap run in another order than
        /// the checked ones, so a stale mark would flag other events.
        #[test]
        fn workspace_search_survives_epoch_wrap(seed in any::<u64>()) {
            let g = random_graph(seed);
            let mut ws = SearchWorkspace::for_graph(&g);
            for i in (0..g.event_count()).rev() {
                for dir in [Direction::Backward, Direction::Forward] {
                    ws.search(&g, EventId(i as u32), dir, usize::MAX);
                }
            }
            ws.set_epoch(u32::MAX - 2);
            check_against_oracle(&g, &mut ws);
        }
    }

    /// A workspace over a sub-range (one file of a union) answers
    /// searches inside it and treats ids outside it as unseen.
    #[test]
    fn range_workspace_serves_one_file_of_a_union() {
        let mut g = random_graph(7);
        let offset = g.union(&random_graph(11));
        let mut ws = SearchWorkspace::new(offset as usize..g.event_count());
        for i in offset as usize..g.event_count() {
            let start = EventId(i as u32);
            let got = ws.search(&g, start, Direction::Forward, usize::MAX).to_vec();
            assert_eq!(got, oracle(&g, start, Direction::Forward, usize::MAX));
            assert!(!ws.is_seen(EventId(0)));
        }
        let fresh = SearchWorkspace::for_graph(&g);
        assert!(!fresh.is_seen(EventId(0)), "no search yet: nothing is seen");
        assert!(fresh.reached().is_empty());
    }
}
