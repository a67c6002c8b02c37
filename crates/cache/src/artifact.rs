//! The per-file artifact payload: a propagation graph serialized by
//! representation **string**.
//!
//! A `Symbol(u32)` means something only to the table that issued it — the
//! graph's own, whose numbering depends on the order the file was walked —
//! so raw symbols never reach disk. An artifact instead carries a
//! per-entry string table of representation texts; events reference table
//! indices, and [`decode`] interns the strings straight into the decoded
//! graph's own table. [`FileId`]s are equally run-local (the file's index
//! in corpus order), so the stored graph is always stamped file 0 and
//! re-stamped with the caller's id on load.
//!
//! The adjacency lists are stored as the graph holds them: each event row
//! carries its successor list, every edge with its kind and argument
//! position, and the predecessor lists follow the events. List order is
//! behaviorally significant — constraint generation walks the lists in
//! order, the solver's floating-point results depend on constraint order,
//! and the graph fingerprint keying the solver checkpoint hashes both
//! list families — so [`decode`] fills the lists as stored instead of
//! re-adding edges.
//!
//! The payload also records the graph's [`graph_fingerprint`], computed
//! once when the artifact is written ([`ArtifactMeta`]): the solver
//! checkpoint's key folds these per-file values, so a warm run reads each
//! file's fingerprint instead of hashing the union. The entry frame's
//! checksum covers it like every other field; [`decode`] does not rehash
//! the graph to check it.
//!
//! Alongside the graph the payload stores the file's constraint fragment:
//! its contribution to the §4.3 representation-frequency census, again
//! keyed by string-table index. [`decode`] rebuilds the graph in one pass
//! over the payload, borrowing each string from it and writing the frozen
//! graph's flat arrays ([`GraphParts`]) directly — the event rows become
//! the event columns, the reps CSR and the successor CSR, and the
//! predecessor lists the predecessor CSR — with a fixed number of
//! allocations per payload and none per event. It recounts the fragment
//! as it goes: a payload that passes the outer checksum but decodes to a
//! graph disagreeing with its own fragment, or to lists breaking the
//! graph's invariants, is treated as corrupt and recomputed, never
//! trusted.

use crate::checkpoint::graph_fingerprint;
use crate::codec::{Reader, Writer};
use crate::entry::EntryError;
use seldon_intern::{IdHash, Symbol, Symbols};
use seldon_propgraph::event::candidate_roles;
use seldon_propgraph::{
    ArgPos, Edge, EdgeKind, EventId, EventKind, FileId, GraphParts, PropagationGraph, Starts,
};
use seldon_pyast::Span;
use std::collections::HashMap;

/// What an artifact records about its graph besides the graph itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArtifactMeta {
    /// Parse errors the file's recovering parse skipped.
    pub recovered_errors: usize,
    /// The graph's [`graph_fingerprint`].
    pub graph_fp: u64,
}

impl ArtifactMeta {
    /// The record of `graph`, hashing it once.
    pub fn of(graph: &PropagationGraph, recovered_errors: usize) -> ArtifactMeta {
        ArtifactMeta { recovered_errors, graph_fp: graph_fingerprint(graph) }
    }
}

fn kind_tag(kind: EventKind) -> u8 {
    match kind {
        EventKind::Call => 0,
        EventKind::ObjectRead => 1,
        EventKind::ParamRead => 2,
    }
}

fn kind_from_tag(tag: u8) -> Option<EventKind> {
    match tag {
        0 => Some(EventKind::Call),
        1 => Some(EventKind::ObjectRead),
        2 => Some(EventKind::ParamRead),
        _ => None,
    }
}

/// Serializes a per-file graph (as built by the front end, stamped with
/// any [`FileId`]) and its record `meta` (which must describe `graph`) to
/// the binary payload framed by [`crate::entry::encode_entry`]: the
/// recovered-error count and graph fingerprint, the string table, the
/// event table (each row ending in the event's successor list), the
/// predecessor lists and the frequency table, as
/// binary records of the crate's payload codec. The string table lists
/// each representation once, in first-use order; the frequency table
/// counts the uses of each entry. A predecessor list has no count of its
/// own: its length is the event's in-degree, which the successor lists
/// already fix.
pub fn encode(graph: &PropagationGraph, meta: ArtifactMeta) -> Vec<u8> {
    let mut strings: Vec<Symbol> = Vec::new();
    let mut index_of: HashMap<Symbol, u32, IdHash> = HashMap::default();
    let mut uses: Vec<u32> = Vec::new();
    let mut rep_indices = Vec::new();
    for (_, event) in graph.events() {
        for &rep in event.reps {
            let i = *index_of.entry(rep).or_insert_with(|| {
                strings.push(rep);
                uses.push(0);
                (strings.len() - 1) as u32
            });
            uses[i as usize] += 1;
            rep_indices.push(i);
        }
    }
    let mut w = Writer::default();
    w.u64(meta.recovered_errors as u64);
    w.u64(meta.graph_fp);
    w.table(&strings, |w, &s| w.str(graph.symbols().resolve(s)));
    let mut rep_indices = rep_indices.into_iter();
    w.table(graph.events(), |w, (id, event)| {
        w.u8(kind_tag(event.kind));
        let span = event.span;
        for v in [span.start, span.end, span.line, span.col] {
            w.u32(v);
        }
        w.table(rep_indices.by_ref().take(event.reps.len()), |w, i| w.u32(i));
        w.table(graph.out_edges(id), |w, edge| {
            w.u32(edge.to.0);
            w.u8(match edge.kind {
                EdgeKind::Argument => 0,
                EdgeKind::Receiver => 1,
            });
            match edge.pos {
                None => w.u8(0),
                Some(ArgPos::Receiver) => w.u8(1),
                Some(ArgPos::Positional(p)) => {
                    w.u8(2);
                    w.u8(p);
                }
                Some(ArgPos::Keyword(name)) => {
                    w.u8(3);
                    w.str(graph.symbols().resolve(name));
                }
            }
        });
    });
    for (id, _) in graph.events() {
        for from in graph.predecessors(id) {
            w.u32(from.0);
        }
    }
    w.table(uses.iter().enumerate(), |w, (i, &n)| {
        w.u32(i as u32);
        w.u32(n);
    });
    w.finish()
}

/// Rebuilds the graph of a payload written by [`encode`], in one pass that
/// fills the frozen graph's arrays ([`GraphParts`]) straight from the
/// payload: representation strings are interned into the graph's own
/// table, sized from the string table, in string-table order, and keyword
/// names after them in edge order; events are stamped with `file`; the
/// successor lists land in the successor CSR and the predecessor lists in
/// the predecessor CSR as stored; and the stored frequency fragment is
/// checked against the uses counted on the way. No allocation is made per
/// event. Returns the graph and its stored record.
///
/// # Errors
///
/// [`EntryError::Corrupt`] on a truncated, overlong or malformed payload
/// (unknown tags, counts past the end, trailing bytes) and on one that is
/// internally inconsistent (duplicate strings, empty rep lists,
/// out-of-range indices or endpoints, self or duplicate edges,
/// predecessor lists that do not mirror the successor lists, fragment
/// mismatch).
pub fn decode(
    payload: &[u8],
    file: FileId,
) -> Result<(PropagationGraph, ArtifactMeta), EntryError> {
    let corrupt = |what: &str| EntryError::Corrupt(what.to_string());
    let unmirrored = || corrupt("self, duplicate or unmirrored edge");
    let mut r = Reader::new(payload);
    let meta = ArtifactMeta { recovered_errors: r.usize()?, graph_fp: r.u64()? };
    // Minimum row widths: a length or count prefix is 4 bytes, an event
    // is a tag, four span fields and its rep and edge counts, an edge is
    // its target and two tags. The table starts empty, sized for the
    // string table's texts, and equal strings intern to equal symbols, so
    // string `i` is symbol `i` unless it repeats an earlier string.
    let strings = r.count(4)?;
    let mut symbols = Symbols::with_capacity(strings, r.str_bytes(strings)?);
    for i in 0..strings {
        if symbols.intern(r.str()?).index() != i {
            return Err(corrupt("duplicate string-table entries"));
        }
    }
    let mut uses = vec![0u32; strings];
    let n = r.count(25)?;
    let mut g = GraphParts {
        kinds: Vec::with_capacity(n),
        files: vec![file; n],
        spans: Vec::with_capacity(n),
        // Row `v + 1` takes event `v`'s ends as it is read; the
        // predecessor column first counts in-degrees there.
        starts: vec![Starts::default(); n + 1],
        reps: Vec::with_capacity(2 * n),
        succs: Vec::with_capacity(n),
        ..GraphParts::default()
    };
    for v in 0..n {
        let kind = kind_from_tag(r.u8()?).ok_or_else(|| corrupt("unknown event kind"))?;
        g.kinds.push((kind, candidate_roles(kind)));
        g.spans.push(Span::new(r.u32()?, r.u32()?, r.u32()?, r.u32()?));
        let count = r.count(4)?;
        if count == 0 {
            return Err(corrupt("event with no representations"));
        }
        for _ in 0..count {
            let i = r.u32()?;
            let used = uses.get_mut(i as usize);
            *used.ok_or_else(|| corrupt("representation index out of range"))? += 1;
            g.reps.push(Symbol(i));
        }
        for _ in 0..r.count(6)? {
            let to = r.u32()?;
            if to as usize >= n {
                return Err(corrupt("edge endpoint out of range"));
            }
            g.starts[to as usize + 1].preds += 1;
            if to as usize == v {
                return Err(unmirrored());
            }
            let kind = match r.u8()? {
                0 => EdgeKind::Argument,
                1 => EdgeKind::Receiver,
                _ => return Err(corrupt("unknown edge kind")),
            };
            let pos = match r.u8()? {
                0 => None,
                1 => Some(ArgPos::Receiver),
                2 => Some(ArgPos::Positional(r.u8()?)),
                3 => Some(ArgPos::Keyword(symbols.intern(r.str()?))),
                _ => return Err(corrupt("unknown arg position tag")),
            };
            g.succs.push(Edge { to: EventId(to), kind, pos });
        }
        let row = &mut g.starts[v + 1];
        (row.reps, row.succs) = (g.reps.len() as u32, g.succs.len() as u32);
    }
    for v in 1..=n {
        g.starts[v].preds += g.starts[v - 1].preds;
    }
    let edges = g.succs.len();
    g.preds = (0..edges).map(|_| r.u32().map(EventId)).collect::<Result<_, _>>()?;
    // Both families hold one entry per edge. Group the edges' sources by
    // target, then each stored predecessor list must name its group's
    // events, each once: `mark[u] == v` while `u → v` is unclaimed.
    let group = |v: usize| g.starts[v].preds as usize..g.starts[v + 1].preds as usize;
    let mut cursor: Vec<u32> = g.starts[..n].iter().map(|s| s.preds).collect();
    let mut sources = vec![0u32; edges];
    for u in 0..n {
        for e in &g.succs[g.starts[u].succs as usize..g.starts[u + 1].succs as usize] {
            sources[cursor[e.to.index()] as usize] = u as u32;
            cursor[e.to.index()] += 1;
        }
    }
    let mut mark = cursor;
    mark.fill(u32::MAX);
    for v in 0..n {
        for &u in &sources[group(v)] {
            if std::mem::replace(&mut mark[u as usize], v as u32) == v as u32 {
                return Err(unmirrored());
            }
        }
        for from in &g.preds[group(v)] {
            match mark.get_mut(from.index()) {
                Some(m) if *m == v as u32 => *m = u32::MAX,
                _ => return Err(unmirrored()),
            }
        }
    }
    // The fragment lists every used table index once, in index order.
    let mut counted = uses.iter().enumerate().filter(|&(_, &n)| n > 0);
    let mismatch = || corrupt("frequency fragment disagrees with decoded graph");
    for _ in 0..r.count(8)? {
        let stored = (r.u32()?, r.u32()?);
        if counted.next().map(|(i, &n)| (i as u32, n)) != Some(stored) {
            return Err(mismatch());
        }
    }
    if counted.next().is_some() {
        return Err(mismatch());
    }
    r.finish()?;
    symbols.seal();
    g.symbols = symbols;
    Ok((PropagationGraph::from_parts(g), meta))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::fuzz;
    use proptest::prelude::*;
    use seldon_corpus::{generate_corpus, CorpusOptions, Lang, Universe};
    use seldon_ir::IrArgPos;
    use seldon_jsfront::build_js_source;
    use seldon_propgraph::{build_source, Event, GraphBuilder};

    /// The two-step codec `encode`/`decode` replaced, kept as the
    /// reference they are checked against: a payload parses into an owned
    /// struct, which is checked edge by edge and then rebuilds the graph.
    mod oracle {
        use super::*;

        /// A successor-list entry: target, kind and argument position.
        pub(super) type Slot = (u32, EdgeKind, Option<IrArgPos>);

        #[derive(Debug, Clone, PartialEq)]
        pub(super) struct FileArtifact {
            pub(super) meta: ArtifactMeta,
            pub(super) strings: Vec<String>,
            pub(super) events: Vec<(EventKind, Span, Vec<u32>, Vec<Slot>)>,
            pub(super) preds: Vec<Vec<u32>>,
            pub(super) freq: Vec<(u32, u32)>,
        }

        fn freq_fragment(
            graph: &PropagationGraph,
            index_of: &HashMap<&str, u32>,
        ) -> Vec<(u32, u32)> {
            let mut counts: HashMap<u32, u32> = HashMap::new();
            for (_, event) in graph.events() {
                for &rep in event.reps {
                    *counts.entry(index_of[graph.symbols().resolve(rep)]).or_insert(0) += 1;
                }
            }
            let mut freq: Vec<(u32, u32)> = counts.into_iter().collect();
            freq.sort_unstable();
            freq
        }

        impl FileArtifact {
            pub(super) fn from_graph(graph: &PropagationGraph, recovered_errors: usize) -> Self {
                let meta = ArtifactMeta::of(graph, recovered_errors);
                let text = |k: &Symbol| graph.symbols().resolve(*k).to_string();
                let mut strings: Vec<String> = Vec::new();
                let mut index_of: HashMap<&str, u32> = HashMap::new();
                let mut events = Vec::with_capacity(graph.event_count());
                for (id, event) in graph.events() {
                    let reps = event
                        .reps
                        .iter()
                        .map(|&rep| {
                            let text = graph.symbols().resolve(rep);
                            *index_of.entry(text).or_insert_with(|| {
                                strings.push(text.to_string());
                                (strings.len() - 1) as u32
                            })
                        })
                        .collect();
                    let slots = (graph.out_edges(id).iter())
                        .map(|e| (e.to.0, e.kind, e.pos.map(|p| p.map(text))))
                        .collect();
                    events.push((event.kind, event.span, reps, slots));
                }
                let preds = (graph.events())
                    .map(|(id, _)| graph.predecessors(id).iter().map(|f| f.0).collect())
                    .collect();
                let freq = freq_fragment(graph, &index_of);
                FileArtifact { meta, strings, events, preds, freq }
            }

            pub(super) fn to_graph(&self, file: FileId) -> Result<PropagationGraph, EntryError> {
                let corrupt = |what: &str| EntryError::Corrupt(what.to_string());
                let mut symbols = Symbols::new();
                let table: Vec<_> = self.strings.iter().map(|s| symbols.intern(s)).collect();
                let mut events: Vec<(EventKind, Span, Vec<Symbol>)> = Vec::new();
                for (kind, span, reps, _) in &self.events {
                    if reps.is_empty() {
                        return Err(corrupt("event with no representations"));
                    }
                    let reps = reps
                        .iter()
                        .map(|&i| table.get(i as usize).copied())
                        .collect::<Option<Vec<_>>>()
                        .ok_or_else(|| corrupt("representation index out of range"))?;
                    events.push((*kind, *span, reps));
                }
                let n = self.events.len() as u32;
                let mut succs = Vec::with_capacity(self.events.len());
                let mut edges: Vec<(u32, u32)> = Vec::new();
                for (from, (.., slots)) in self.events.iter().enumerate() {
                    let mut out = Vec::new();
                    for (to, kind, pos) in slots {
                        let edge = (from as u32, *to);
                        if *to >= n {
                            return Err(corrupt("edge endpoint out of range"));
                        }
                        if edge.0 == edge.1 || edges.contains(&edge) {
                            return Err(corrupt("self or duplicate edge"));
                        }
                        edges.push(edge);
                        let pos = pos.as_ref().map(|p| p.map(|k| symbols.intern(k)));
                        out.push(Edge { to: EventId(*to), kind: *kind, pos });
                    }
                    succs.push(out);
                }
                if self.preds.len() != self.events.len() {
                    return Err(corrupt("one predecessor list per event"));
                }
                for (v, stored) in self.preds.iter().enumerate() {
                    let mut sources: Vec<u32> =
                        edges.iter().filter(|e| e.1 == v as u32).map(|e| e.0).collect();
                    let mut stored = stored.clone();
                    sources.sort_unstable();
                    stored.sort_unstable();
                    if sources != stored {
                        return Err(corrupt("predecessor list does not mirror the edges"));
                    }
                }
                let index_of: HashMap<&str, u32> = self
                    .strings
                    .iter()
                    .enumerate()
                    .map(|(i, s)| (s.as_str(), i as u32))
                    .collect();
                if index_of.len() != self.strings.len() {
                    return Err(corrupt("duplicate string-table entries"));
                }
                symbols.seal();
                let preds: Vec<Vec<EventId>> =
                    self.preds.iter().map(|l| l.iter().map(|&f| EventId(f)).collect()).collect();
                let graph = from_lists(symbols, events, file, &succs, &preds);
                if freq_fragment(&graph, &index_of) != self.freq {
                    return Err(corrupt("frequency fragment disagrees with decoded graph"));
                }
                Ok(graph)
            }

            pub(super) fn to_payload(&self) -> Vec<u8> {
                let mut w = Writer::default();
                w.u64(self.meta.recovered_errors as u64);
                w.u64(self.meta.graph_fp);
                w.table(&self.strings, |w, s| w.str(s));
                w.table(&self.events, |w, (kind, span, reps, slots)| {
                    w.u8(kind_tag(*kind));
                    for v in [span.start, span.end, span.line, span.col] {
                        w.u32(v);
                    }
                    w.table(reps, |w, &r| w.u32(r));
                    w.table(slots, |w, (to, kind, pos)| {
                        w.u32(*to);
                        w.u8(match kind {
                            EdgeKind::Argument => 0,
                            EdgeKind::Receiver => 1,
                        });
                        match pos {
                            None => w.u8(0),
                            Some(IrArgPos::Receiver) => w.u8(1),
                            Some(IrArgPos::Positional(p)) => {
                                w.u8(2);
                                w.u8(*p);
                            }
                            Some(IrArgPos::Keyword(name)) => {
                                w.u8(3);
                                w.str(name);
                            }
                        }
                    });
                });
                for &from in self.preds.iter().flatten() {
                    w.u32(from);
                }
                w.table(&self.freq, |w, &(rep, n)| {
                    w.u32(rep);
                    w.u32(n);
                });
                w.finish()
            }

            pub(super) fn from_payload(payload: &[u8]) -> Result<FileArtifact, EntryError> {
                let corrupt = |what: &str| EntryError::Corrupt(what.to_string());
                let mut r = Reader::new(payload);
                let meta = ArtifactMeta { recovered_errors: r.usize()?, graph_fp: r.u64()? };
                let strings = r.table(4, |r| Ok(r.str()?.to_string()))?;
                let events: Vec<(EventKind, Span, Vec<u32>, Vec<Slot>)> = r.table(25, |r| {
                    let kind =
                        kind_from_tag(r.u8()?).ok_or_else(|| corrupt("unknown event kind"))?;
                    let span = Span::new(r.u32()?, r.u32()?, r.u32()?, r.u32()?);
                    let reps = r.table(4, Reader::u32)?;
                    let slots = r.table(6, |r| {
                        let to = r.u32()?;
                        let kind = match r.u8()? {
                            0 => EdgeKind::Argument,
                            1 => EdgeKind::Receiver,
                            _ => return Err(corrupt("unknown edge kind")),
                        };
                        let pos = match r.u8()? {
                            0 => None,
                            1 => Some(IrArgPos::Receiver),
                            2 => Some(IrArgPos::Positional(r.u8()?)),
                            3 => Some(IrArgPos::Keyword(r.str()?.to_string())),
                            _ => return Err(corrupt("unknown arg position tag")),
                        };
                        Ok((to, kind, pos))
                    })?;
                    Ok((kind, span, reps, slots))
                })?;
                // Each predecessor list is as long as its event's in-degree.
                let mut in_degree = vec![0usize; events.len()];
                for &(to, ..) in events.iter().flat_map(|e| &e.3) {
                    *in_degree
                        .get_mut(to as usize)
                        .ok_or_else(|| corrupt("edge endpoint out of range"))? += 1;
                }
                let mut preds = Vec::with_capacity(events.len());
                for k in in_degree {
                    preds.push((0..k).map(|_| r.u32()).collect::<Result<Vec<_>, _>>()?);
                }
                let freq = r.table(8, |r| Ok((r.u32()?, r.u32()?)))?;
                r.finish()?;
                Ok(FileArtifact { meta, strings, events, preds, freq })
            }
        }

        /// The graph of per-event lists: each event's kind, span and reps,
        /// its successor slots and its predecessors.
        fn from_lists(
            symbols: Symbols,
            events: Vec<(EventKind, Span, Vec<Symbol>)>,
            file: FileId,
            succs: &[Vec<Edge>],
            preds: &[Vec<EventId>],
        ) -> PropagationGraph {
            let (mut starts, mut parts) = (vec![Starts::default()], GraphParts::default());
            for (v, (kind, span, reps)) in events.into_iter().enumerate() {
                parts.kinds.push((kind, candidate_roles(kind)));
                parts.spans.push(span);
                parts.reps.extend(reps);
                parts.succs.extend(&succs[v]);
                parts.preds.extend(&preds[v]);
                let row = Starts {
                    reps: parts.reps.len() as u32,
                    succs: parts.succs.len() as u32,
                    preds: parts.preds.len() as u32,
                };
                starts.push(row);
            }
            parts.files = vec![file; parts.kinds.len()];
            PropagationGraph::from_parts(GraphParts { symbols, starts, ..parts })
        }

        /// The oracle's load path: payload, then graph.
        pub(super) fn load(
            payload: &[u8],
            file: FileId,
        ) -> Result<(PropagationGraph, ArtifactMeta), EntryError> {
            let artifact = FileArtifact::from_payload(payload)?;
            Ok((artifact.to_graph(file)?, artifact.meta))
        }
    }

    const SOURCE: &str = "import flask\nimport os\n\ndef handler():\n    q = flask.request.args.get('q')\n    os.system(q)\n";

    fn graphs_agree(a: &PropagationGraph, b: &PropagationGraph) {
        assert_eq!(a.event_count(), b.event_count());
        assert_eq!(a.edge_count(), b.edge_count());
        for (id, ev) in a.events() {
            let other = b.event(id);
            assert_eq!(ev.kind, other.kind);
            assert_eq!(ev.span, other.span);
            assert_eq!(ev.candidates, other.candidates);
            let reps: Vec<&str> = ev.reps.iter().map(|&r| a.symbols().resolve(r)).collect();
            let other_reps: Vec<&str> =
                other.reps.iter().map(|&r| b.symbols().resolve(r)).collect();
            assert_eq!(reps, other_reps);
        }
        for (from, to) in a.edges() {
            assert_eq!(a.edge_kind(from, to), b.edge_kind(from, to));
            let pos = |g: &PropagationGraph| {
                g.arg_position(from, to).map(|p| p.map(|&k| g.symbols().resolve(k).to_string()))
            };
            assert_eq!(pos(a), pos(b));
        }
        // Adjacency-list *order* must survive too: constraint generation
        // walks these lists, and constraint order feeds the solver.
        for (id, _) in a.events() {
            assert!(a.successors(id).eq(b.successors(id)), "succ order of {id:?}");
            assert_eq!(a.predecessors(id), b.predecessors(id), "pred order of {id:?}");
        }
    }

    /// Decodes `payload` through [`decode`] and the oracle, asserts the
    /// same verdict class and, on `Ok`, identical graphs (events, reps,
    /// spans, file stamps, adjacency order, edge kinds, argument
    /// positions, edge count) and records. Returns the verdict.
    fn load(payload: &[u8]) -> Result<PropagationGraph, EntryError> {
        let file = FileId(9);
        match (decode(payload, file), oracle::load(payload, file)) {
            (Ok(one_pass), Ok(two_step)) => {
                assert!(one_pass == two_step, "decoders rebuilt different graphs");
                Ok(one_pass.0)
            }
            (Err(EntryError::Corrupt(why)), Err(EntryError::Corrupt(_))) => {
                Err(EntryError::Corrupt(why))
            }
            (one_pass, two_step) => panic!(
                "verdicts differ: decode {:?}, oracle {:?}",
                one_pass.map(|_| ()),
                two_step.map(|_| ())
            ),
        }
    }

    fn is_corrupt(artifact: &oracle::FileArtifact) -> bool {
        matches!(load(&artifact.to_payload()), Err(EntryError::Corrupt(_)))
    }

    #[test]
    fn graph_round_trips_with_restamped_file_id() {
        let graph = build_source(SOURCE, FileId(0)).unwrap();
        let payload = encode(&graph, ArtifactMeta::of(&graph, 2));
        let (rebuilt, meta) = decode(&payload, FileId(42)).unwrap();
        assert_eq!(meta, ArtifactMeta { recovered_errors: 2, graph_fp: graph_fingerprint(&graph) });
        assert_eq!(graph_fingerprint(&rebuilt), meta.graph_fp);
        graphs_agree(&graph, &rebuilt);
        for (_, ev) in rebuilt.events() {
            assert_eq!(ev.file, FileId(42), "events are re-stamped on load");
        }
    }

    #[test]
    fn payload_contains_no_raw_symbols() {
        let graph = build_source(SOURCE, FileId(7)).unwrap();
        let payload = encode(&graph, ArtifactMeta::of(&graph, 0));
        // Every representation appears by string; the payload parses in
        // any process, into a table of its own.
        let needle = b"os.system()";
        assert!(
            payload.windows(needle.len()).any(|w| w == needle),
            "reps stored as strings: {payload:?}"
        );
    }

    #[test]
    fn tampered_fragment_is_rejected() {
        let graph = build_source(SOURCE, FileId(0)).unwrap();
        let mut artifact = oracle::FileArtifact::from_graph(&graph, 0);
        artifact.freq[0].1 += 1;
        assert!(is_corrupt(&artifact));
        // The last four payload bytes are the last fragment count.
        let mut payload = encode(&graph, ArtifactMeta::of(&graph, 0));
        let last = payload.len() - 4;
        payload[last] ^= 1;
        assert!(matches!(load(&payload), Err(EntryError::Corrupt(_))));
    }

    #[test]
    fn out_of_range_indices_are_rejected() {
        let graph = build_source(SOURCE, FileId(0)).unwrap();
        let artifact = oracle::FileArtifact::from_graph(&graph, 0);
        let mut bad = artifact.clone();
        bad.events[0].2 = vec![9999];
        assert!(load(&bad.to_payload()).is_err());
        let mut bad = artifact.clone();
        bad.events[0].3.push((9999, EdgeKind::Argument, None));
        assert!(load(&bad.to_payload()).is_err());
        let mut bad = artifact;
        let list = bad.preds.iter_mut().find(|l| !l.is_empty()).expect("an edge");
        list[0] = 9999;
        assert!(load(&bad.to_payload()).is_err());
    }

    #[test]
    fn hand_made_inconsistent_payloads_are_corrupt_in_both_decoders() {
        let graph = build_source(SOURCE, FileId(0)).unwrap();
        let artifact = oracle::FileArtifact::from_graph(&graph, 0);
        // A duplicate string, with the fragment still matching its uses.
        let mut bad = artifact.clone();
        bad.strings.push(bad.strings[0].clone());
        bad.events[0].2.push(bad.strings.len() as u32 - 1);
        bad.freq.push((bad.strings.len() as u32 - 1, 1));
        assert!(is_corrupt(&bad));
        // An empty rep list; the fragment no longer counts its reps.
        let mut bad = artifact.clone();
        for &i in &std::mem::take(&mut bad.events[0].2) {
            let row = bad.freq.iter_mut().find(|(rep, _)| *rep == i).unwrap();
            row.1 -= 1;
        }
        bad.freq.retain(|&(_, n)| n > 0);
        assert!(is_corrupt(&bad));
        // A fragment missing its last row.
        let mut bad = artifact.clone();
        bad.freq.pop();
        assert!(is_corrupt(&bad));
        // A fragment row for a string no event uses.
        let mut bad = artifact;
        bad.strings.push("unused()".to_string());
        bad.freq.push((bad.strings.len() as u32 - 1, 0));
        assert!(is_corrupt(&bad));
    }

    /// Adjacency lists that break the graph's invariants, each written
    /// with predecessor lists as long as the successor lists imply, so the
    /// payload parses and only the lists themselves are wrong.
    #[test]
    fn inconsistent_adjacency_lists_are_corrupt_in_both_decoders() {
        let graph = build_source(SOURCE, FileId(0)).unwrap();
        let artifact = oracle::FileArtifact::from_graph(&graph, 0);
        let (from, slot) = (artifact.events.iter().enumerate())
            .find_map(|(v, e)| Some((v as u32, e.3.first()?.clone())))
            .expect("an edge");
        let to = slot.0;
        // Asymmetric: the target's list names an event with no edge to it.
        let mut bad = artifact.clone();
        let stranger = (0..bad.events.len() as u32)
            .find(|&u| u != to && !bad.preds[to as usize].contains(&u))
            .expect("an event not flowing into the target");
        let entry = bad.preds[to as usize].iter_mut().find(|f| **f == from).unwrap();
        *entry = stranger;
        assert!(is_corrupt(&bad));
        // A self edge, mirrored.
        let mut bad = artifact.clone();
        bad.events[from as usize].3.push((from, EdgeKind::Argument, None));
        bad.preds[from as usize].push(from);
        assert!(is_corrupt(&bad));
        // A duplicate edge, mirrored.
        let mut bad = artifact.clone();
        bad.events[from as usize].3.push(slot);
        bad.preds[to as usize].push(from);
        assert!(is_corrupt(&bad));
        // The untouched artifact still loads.
        assert!(load(&artifact.to_payload()).is_ok());
    }

    /// Both golden corpora (`tests/end_to_end.rs`), one file at a time:
    /// [`encode`] writes the oracle's bytes, and [`decode`] gives back
    /// the oracle's graph.
    #[test]
    fn encode_writes_the_oracle_bytes_for_both_golden_corpora() {
        let universe = Universe::new();
        for lang in [Lang::Py, Lang::Js] {
            let opts = CorpusOptions { projects: 60, rng_seed: 1234, lang, ..Default::default() };
            let corpus = generate_corpus(&universe, &opts);
            let mut files = 0;
            for (i, (_, file)) in corpus.files().enumerate() {
                let id = FileId(i as u32);
                let graph = match lang {
                    Lang::Py => build_source(&file.content, id),
                    Lang::Js => build_js_source(&file.content, id),
                }
                .expect("generated files lower");
                let payload = encode(&graph, ArtifactMeta::of(&graph, i % 3));
                let oracle = oracle::FileArtifact::from_graph(&graph, i % 3).to_payload();
                assert!(payload == oracle, "{}: payload bytes differ", file.path);
                assert_eq!(load(&payload).map(|g| g.event_count()), Ok(graph.event_count()));
                files += 1;
            }
            assert!(files > 100, "{lang:?} corpus has {files} files");
        }
    }

    /// A graph of `n` events stamped with the file [`load`] decodes to,
    /// with `edges` as `(from, to, tag)` taken modulo `n`, like the graph
    /// crate's own random graphs: bit 0 of `tag` picks the edge kind
    /// (repeats upgrade receiver edges, self edges are dropped); bits 1–2
    /// pick no argument position or one of each kind.
    fn random_graph(n: u32, edges: &[(u32, u32, u8)]) -> PropagationGraph {
        let mut g = GraphBuilder::new();
        let kinds = [EventKind::Call, EventKind::ObjectRead, EventKind::ParamRead];
        for i in 0..n {
            let texts = [["a()", "b()", "c.d()"][i as usize % 3], "x"];
            let reps = texts.iter().map(|t| g.symbols_mut().intern(t)).collect();
            let span = Span::new(i, i + 1, i, 0);
            g.add_event(Event::new(kinds[i as usize % 3], reps, FileId(9), span));
        }
        for &(from, to, tag) in edges.iter().filter(|_| n > 0) {
            let (from, to) = (EventId(from % n), EventId(to % n));
            let kind = if tag & 1 == 0 { EdgeKind::Argument } else { EdgeKind::Receiver };
            g.add_edge_kind(from, to, kind);
            let pos = match (tag >> 1) & 3 {
                0 => continue,
                1 => ArgPos::Receiver,
                2 => ArgPos::Positional(tag),
                _ => ArgPos::Keyword(g.symbols_mut().intern(&format!("k{tag}"))),
            };
            g.set_arg_position(from, to, pos);
        }
        g.freeze()
    }

    /// A payload with every table non-empty and every argument-position
    /// kind.
    fn fuzz_seed() -> Vec<u8> {
        let src = format!("{SOURCE}    subprocess.run(q, shell=flask.request.form['s'])\n");
        let graph = build_source(&src, FileId(0)).unwrap();
        let artifact = oracle::FileArtifact::from_graph(&graph, 1);
        for tag in 0..3 {
            assert!(
                artifact.events.iter().flat_map(|e| &e.3).any(|(_, _, pos)| match pos {
                    Some(IrArgPos::Receiver) => tag == 0,
                    Some(IrArgPos::Positional(_)) => tag == 1,
                    Some(IrArgPos::Keyword(_)) => tag == 2,
                    None => false,
                }),
                "argument-position kind {tag} missing from the fuzz seed"
            );
        }
        encode(&graph, ArtifactMeta::of(&graph, 1))
    }

    #[test]
    fn truncated_or_saturated_payloads_load_or_report_corrupt() {
        let payload = fuzz_seed();
        assert!(load(&payload).is_ok());
        fuzz::assert_systematic_damage_is_contained(&payload, load);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn overwritten_payloads_load_or_report_corrupt(
            writes in prop::collection::vec((any::<usize>(), any::<u8>()), 1..8),
        ) {
            fuzz::assert_contained(load(&fuzz::overwrite(&fuzz_seed(), &writes)), "overwrite");
        }

        /// Graphs with several edges per event, upgraded receiver edges
        /// and every argument-position kind — shapes the golden corpora
        /// never produce — decode to themselves through both decoders,
        /// once the decoded table is renumbered to the original's.
        #[test]
        fn decode_inverts_encode_on_random_graphs(
            n in 0u32..12,
            edges in prop::collection::vec((any::<u32>(), any::<u32>(), any::<u8>()), 0..40),
        ) {
            let graph = random_graph(n, &edges);
            let mut decoded = load(&encode(&graph, ArtifactMeta::of(&graph, 3)))
                .expect("an encoded graph decodes");
            decoded.rebase(graph.symbols().clone());
            prop_assert_eq!(decoded, graph);
        }
    }
}
