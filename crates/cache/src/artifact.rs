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
//! Alongside the graph the payload stores the file's constraint fragment:
//! its contribution to the §4.3 representation-frequency census, again
//! keyed by string-table index. [`decode`] rebuilds the graph in one pass
//! over the payload, borrowing each string from it, and recounts the
//! fragment as it goes — a payload that passes the outer checksum but
//! decodes to a graph disagreeing with its own fragment is treated as
//! corrupt and recomputed, never trusted.

use crate::codec::{Reader, Writer};
use crate::entry::EntryError;
use seldon_intern::{IdHash, Symbol};
use seldon_propgraph::{ArgPos, EdgeKind, Event, EventId, EventKind, FileId, PropagationGraph};
use seldon_pyast::Span;
use std::collections::HashMap;

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

/// Edges in an order that heads both its source's out-chain and its
/// target's in-chain.
///
/// Adjacency-list order is behaviorally significant: constraint
/// generation walks successor/predecessor lists in insertion order, and
/// the solver's floating-point results depend on constraint order.
/// `graph.edges()` preserves each successor list but loses predecessor
/// order, so a rebuilt graph would generate a permuted (same multiset,
/// different order) constraint system, and its graph fingerprint would
/// miss the solver checkpoint. Replaying `add_edge_kind` over this
/// schedule reproduces both list families exactly. Such a schedule always
/// exists (the original insertion sequence is one) and Kahn-style greedy
/// emission finds one.
fn edge_schedule(graph: &PropagationGraph) -> Vec<(EventId, EventId)> {
    let n = graph.event_count();
    let mut edges = Vec::with_capacity(graph.edge_count());
    let mut out_ptr = vec![0usize; n];
    let mut in_ptr = vec![0usize; n];
    let head = |out_ptr: &[usize], in_ptr: &[usize], from: EventId| -> Option<EventId> {
        let t = *graph.successors(from).get(out_ptr[from.index()])?;
        (graph.predecessors(t)[in_ptr[t.index()]] == from).then_some(t)
    };
    let mut stack: Vec<u32> = (0..n as u32).collect();
    while let Some(f) = stack.pop() {
        let from = EventId(f);
        while let Some(to) = head(&out_ptr, &in_ptr, from) {
            edges.push((from, to));
            out_ptr[from.index()] += 1;
            in_ptr[to.index()] += 1;
            // The target's next in-edge may have just become emittable.
            if let Some(&g) = graph.predecessors(to).get(in_ptr[to.index()]) {
                stack.push(g.0);
            }
        }
    }
    debug_assert_eq!(edges.len(), graph.edge_count(), "edge schedule is complete");
    edges
}

/// Serializes a per-file graph (as built by the front end, stamped with
/// any [`FileId`]) and its lenient-parse error count to the binary payload
/// framed by [`crate::entry::encode_entry`]: the recovered-error count,
/// then the string, event, edge, argument and frequency tables as binary
/// records of the crate's payload codec. The string table lists each
/// representation once, in first-use order; the frequency table counts
/// the uses of each entry.
pub fn encode(graph: &PropagationGraph, recovered_errors: usize) -> Vec<u8> {
    let mut strings: Vec<Symbol> = Vec::new();
    let mut index_of: HashMap<Symbol, u32, IdHash> = HashMap::default();
    let mut uses: Vec<u32> = Vec::new();
    let mut rep_indices = Vec::new();
    for (_, event) in graph.events() {
        for &rep in &event.reps {
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
    w.u64(recovered_errors as u64);
    w.table(&strings, |w, &s| w.str(graph.symbols().resolve(s)));
    let mut rep_indices = rep_indices.into_iter();
    w.table(graph.events(), |w, (_, event)| {
        w.u8(kind_tag(event.kind));
        let span = event.span;
        for v in [span.start, span.end, span.line, span.col] {
            w.u32(v);
        }
        w.table(rep_indices.by_ref().take(event.reps.len()), |w, i| w.u32(i));
    });
    let schedule = edge_schedule(graph);
    w.table(&schedule, |w, &(from, to)| {
        w.u32(from.0);
        w.u32(to.0);
        w.u8(match graph.edge_kind(from, to).expect("scheduled edges exist") {
            EdgeKind::Argument => 0,
            EdgeKind::Receiver => 1,
        });
    });
    let args: Vec<_> = schedule
        .iter()
        .filter_map(|&(from, to)| Some((from, to, graph.arg_position(from, to)?)))
        .collect();
    w.table(&args, |w, &(from, to, pos)| {
        w.u32(from.0);
        w.u32(to.0);
        match pos {
            ArgPos::Receiver => w.u8(0),
            ArgPos::Positional(p) => {
                w.u8(1);
                w.u8(*p);
            }
            ArgPos::Keyword(name) => {
                w.u8(2);
                w.str(graph.symbols().resolve(*name));
            }
        }
    });
    w.table(uses.iter().enumerate(), |w, (i, &n)| {
        w.u32(i as u32);
        w.u32(n);
    });
    w.finish()
}

/// Rebuilds the graph of a payload written by [`encode`], in one pass:
/// representation strings are interned straight from the payload into the
/// graph's own table, in string-table order, events are stamped with
/// `file`, edges are replayed in their stored schedule, and the stored
/// frequency fragment is checked against the uses counted on the way.
/// Returns the graph and its recovered-error count.
///
/// # Errors
///
/// [`EntryError::Corrupt`] on a truncated, overlong or malformed payload
/// (unknown tags, counts past the end, trailing bytes) and on one that is
/// internally inconsistent (duplicate strings, empty rep lists,
/// out-of-range indices or endpoints, fragment mismatch).
pub fn decode(payload: &[u8], file: FileId) -> Result<(PropagationGraph, usize), EntryError> {
    let corrupt = |what: &str| EntryError::Corrupt(what.to_string());
    let mut r = Reader::new(payload);
    let recovered_errors = r.usize()?;
    // Minimum row widths: a length or count prefix is 4 bytes, an event
    // is a tag, four span fields and its rep count. The table starts empty
    // and equal strings intern to equal symbols, so string `i` is symbol
    // `i` unless it repeats an earlier string.
    let strings = r.count(4)?;
    let mut graph = PropagationGraph::new();
    for i in 0..strings {
        if graph.symbols_mut().intern(r.str()?).index() != i {
            return Err(corrupt("duplicate string-table entries"));
        }
    }
    let mut uses = vec![0u32; strings];
    let events = r.count(21)?;
    graph.reserve_events(events);
    for _ in 0..events {
        let kind = kind_from_tag(r.u8()?).ok_or_else(|| corrupt("unknown event kind"))?;
        let span = Span::new(r.u32()?, r.u32()?, r.u32()?, r.u32()?);
        let count = r.count(4)?;
        if count == 0 {
            return Err(corrupt("event with no representations"));
        }
        let mut reps = Vec::with_capacity(count);
        for _ in 0..count {
            let i = r.u32()? as usize;
            let n = uses.get_mut(i).ok_or_else(|| corrupt("representation index out of range"))?;
            *n += 1;
            reps.push(Symbol(i as u32));
        }
        graph.add_event(Event::new(kind, reps, file, span));
    }
    // `events` came from a `u32` count.
    let n = events as u32;
    let endpoints = |r: &mut Reader, what: &str| {
        let (from, to) = (r.u32()?, r.u32()?);
        if from >= n || to >= n {
            return Err(corrupt(what));
        }
        Ok((EventId(from), EventId(to)))
    };
    for _ in 0..r.count(9)? {
        let (from, to) = endpoints(&mut r, "edge endpoint out of range")?;
        let kind = match r.u8()? {
            0 => EdgeKind::Argument,
            1 => EdgeKind::Receiver,
            _ => return Err(corrupt("unknown edge kind")),
        };
        graph.add_edge_kind(from, to, kind);
    }
    for _ in 0..r.count(9)? {
        let (from, to) = endpoints(&mut r, "argument edge out of range")?;
        let pos = match r.u8()? {
            0 => ArgPos::Receiver,
            1 => ArgPos::Positional(r.u8()?),
            2 => ArgPos::Keyword(graph.symbols_mut().intern(r.str()?)),
            _ => return Err(corrupt("unknown arg position tag")),
        };
        graph.set_arg_position(from, to, pos);
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
    graph.symbols_mut().seal();
    Ok((graph, recovered_errors))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::fuzz;
    use proptest::prelude::*;
    use seldon_corpus::{generate_corpus, CorpusOptions, Lang, Universe};
    use seldon_ir::IrArgPos;
    use seldon_jsfront::build_js_source;
    use seldon_propgraph::build_source;

    /// The two-step codec `encode`/`decode` replaced, kept as the
    /// reference they are checked against: a payload parses into an owned
    /// struct, which then rebuilds the graph.
    mod oracle {
        use super::*;

        #[derive(Debug, Clone, PartialEq)]
        pub(super) struct FileArtifact {
            pub(super) recovered_errors: usize,
            pub(super) strings: Vec<String>,
            pub(super) events: Vec<(EventKind, Span, Vec<u32>)>,
            pub(super) edges: Vec<(u32, u32, EdgeKind)>,
            pub(super) args: Vec<(u32, u32, IrArgPos)>,
            pub(super) freq: Vec<(u32, u32)>,
        }

        fn freq_fragment(
            graph: &PropagationGraph,
            index_of: &HashMap<&str, u32>,
        ) -> Vec<(u32, u32)> {
            let mut counts: HashMap<u32, u32> = HashMap::new();
            for (_, event) in graph.events() {
                for &rep in &event.reps {
                    *counts.entry(index_of[graph.symbols().resolve(rep)]).or_insert(0) += 1;
                }
            }
            let mut freq: Vec<(u32, u32)> = counts.into_iter().collect();
            freq.sort_unstable();
            freq
        }

        impl FileArtifact {
            pub(super) fn from_graph(graph: &PropagationGraph, recovered_errors: usize) -> Self {
                let mut strings: Vec<String> = Vec::new();
                let mut index_of: HashMap<&str, u32> = HashMap::new();
                let mut events = Vec::with_capacity(graph.event_count());
                for (_, event) in graph.events() {
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
                    events.push((event.kind, event.span, reps));
                }
                let n = graph.event_count();
                let mut edges = Vec::with_capacity(graph.edge_count());
                let mut args = Vec::new();
                let mut out_ptr = vec![0usize; n];
                let mut in_ptr = vec![0usize; n];
                let head = |out_ptr: &[usize], in_ptr: &[usize], f: u32| -> Option<EventId> {
                    let from = EventId(f);
                    let t = *graph.successors(from).get(out_ptr[from.index()])?;
                    (graph.predecessors(t)[in_ptr[t.index()]] == from).then_some(t)
                };
                let mut stack: Vec<u32> = (0..n as u32).collect();
                while let Some(f) = stack.pop() {
                    while let Some(to) = head(&out_ptr, &in_ptr, f) {
                        let from = EventId(f);
                        let kind = graph.edge_kind(from, to).expect("chain heads are edges");
                        edges.push((from.0, to.0, kind));
                        if let Some(pos) = graph.arg_position(from, to) {
                            let pos = pos.map(|&k| graph.symbols().resolve(k).to_string());
                            args.push((from.0, to.0, pos));
                        }
                        out_ptr[from.index()] += 1;
                        in_ptr[to.index()] += 1;
                        if let Some(&g) = graph.predecessors(to).get(in_ptr[to.index()]) {
                            stack.push(g.0);
                        }
                    }
                }
                let freq = freq_fragment(graph, &index_of);
                FileArtifact { recovered_errors, strings, events, edges, args, freq }
            }

            pub(super) fn to_graph(&self, file: FileId) -> Result<PropagationGraph, EntryError> {
                let corrupt = |what: &str| EntryError::Corrupt(what.to_string());
                let mut graph = PropagationGraph::new();
                let symbols: Vec<_> =
                    self.strings.iter().map(|s| graph.symbols_mut().intern(s)).collect();
                graph.reserve_events(self.events.len());
                for (kind, span, reps) in &self.events {
                    if reps.is_empty() {
                        return Err(corrupt("event with no representations"));
                    }
                    let reps = reps
                        .iter()
                        .map(|&i| symbols.get(i as usize).copied())
                        .collect::<Option<Vec<_>>>()
                        .ok_or_else(|| corrupt("representation index out of range"))?;
                    graph.add_event(Event::new(*kind, reps, file, *span));
                }
                let n = self.events.len() as u32;
                for &(from, to, kind) in &self.edges {
                    if from >= n || to >= n {
                        return Err(corrupt("edge endpoint out of range"));
                    }
                    graph.add_edge_kind(EventId(from), EventId(to), kind);
                }
                for (from, to, pos) in &self.args {
                    if *from >= n || *to >= n {
                        return Err(corrupt("argument edge out of range"));
                    }
                    let pos = pos.map(|k| graph.symbols_mut().intern(k));
                    graph.set_arg_position(EventId(*from), EventId(*to), pos);
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
                if freq_fragment(&graph, &index_of) != self.freq {
                    return Err(corrupt("frequency fragment disagrees with decoded graph"));
                }
                Ok(graph)
            }

            pub(super) fn to_payload(&self) -> Vec<u8> {
                let mut w = Writer::default();
                w.u64(self.recovered_errors as u64);
                w.table(&self.strings, |w, s| w.str(s));
                w.table(&self.events, |w, (kind, span, reps)| {
                    w.u8(kind_tag(*kind));
                    for v in [span.start, span.end, span.line, span.col] {
                        w.u32(v);
                    }
                    w.table(reps, |w, &r| w.u32(r));
                });
                w.table(&self.edges, |w, &(from, to, kind)| {
                    w.u32(from);
                    w.u32(to);
                    w.u8(match kind {
                        EdgeKind::Argument => 0,
                        EdgeKind::Receiver => 1,
                    });
                });
                w.table(&self.args, |w, (from, to, pos)| {
                    w.u32(*from);
                    w.u32(*to);
                    match pos {
                        IrArgPos::Receiver => w.u8(0),
                        IrArgPos::Positional(p) => {
                            w.u8(1);
                            w.u8(*p);
                        }
                        IrArgPos::Keyword(name) => {
                            w.u8(2);
                            w.str(name);
                        }
                    }
                });
                w.table(&self.freq, |w, &(rep, n)| {
                    w.u32(rep);
                    w.u32(n);
                });
                w.finish()
            }

            pub(super) fn from_payload(payload: &[u8]) -> Result<FileArtifact, EntryError> {
                let corrupt = |what: &str| EntryError::Corrupt(what.to_string());
                let mut r = Reader::new(payload);
                let artifact = FileArtifact {
                    recovered_errors: r.usize()?,
                    strings: r.table(4, |r| Ok(r.str()?.to_string()))?,
                    events: r.table(21, |r| {
                        let kind =
                            kind_from_tag(r.u8()?).ok_or_else(|| corrupt("unknown event kind"))?;
                        let span = Span::new(r.u32()?, r.u32()?, r.u32()?, r.u32()?);
                        Ok((kind, span, r.table(4, Reader::u32)?))
                    })?,
                    edges: r.table(9, |r| {
                        let (from, to) = (r.u32()?, r.u32()?);
                        let kind = match r.u8()? {
                            0 => EdgeKind::Argument,
                            1 => EdgeKind::Receiver,
                            _ => return Err(corrupt("unknown edge kind")),
                        };
                        Ok((from, to, kind))
                    })?,
                    args: r.table(9, |r| {
                        let (from, to) = (r.u32()?, r.u32()?);
                        let pos = match r.u8()? {
                            0 => IrArgPos::Receiver,
                            1 => IrArgPos::Positional(r.u8()?),
                            2 => IrArgPos::Keyword(r.str()?.to_string()),
                            _ => return Err(corrupt("unknown arg position tag")),
                        };
                        Ok((from, to, pos))
                    })?,
                    freq: r.table(8, |r| Ok((r.u32()?, r.u32()?)))?,
                };
                r.finish()?;
                Ok(artifact)
            }
        }

        /// The oracle's load path: payload, then graph.
        pub(super) fn load(
            payload: &[u8],
            file: FileId,
        ) -> Result<(PropagationGraph, usize), EntryError> {
            let artifact = FileArtifact::from_payload(payload)?;
            Ok((artifact.to_graph(file)?, artifact.recovered_errors))
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
            assert_eq!(a.successors(id), b.successors(id), "succ order of {id:?}");
            assert_eq!(a.predecessors(id), b.predecessors(id), "pred order of {id:?}");
        }
    }

    /// Decodes `payload` through [`decode`] and the oracle, asserts the
    /// same verdict class and, on `Ok`, identical graphs (events, reps,
    /// spans, file stamps, adjacency order, edge kinds, argument
    /// positions, edge count) and recovered counts. Returns the verdict.
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

    #[test]
    fn graph_round_trips_with_restamped_file_id() {
        let graph = build_source(SOURCE, FileId(0)).unwrap();
        let payload = encode(&graph, 2);
        let (rebuilt, recovered) = decode(&payload, FileId(42)).unwrap();
        assert_eq!(recovered, 2);
        graphs_agree(&graph, &rebuilt);
        for (_, ev) in rebuilt.events() {
            assert_eq!(ev.file, FileId(42), "events are re-stamped on load");
        }
    }

    #[test]
    fn payload_contains_no_raw_symbols() {
        let graph = build_source(SOURCE, FileId(7)).unwrap();
        let payload = encode(&graph, 0);
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
        assert!(matches!(load(&artifact.to_payload()), Err(EntryError::Corrupt(_))));
        // The last four payload bytes are the last fragment count.
        let mut payload = encode(&graph, 0);
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
        bad.edges.push((9999, 0, EdgeKind::Argument));
        assert!(load(&bad.to_payload()).is_err());
        let mut bad = artifact;
        bad.args.push((0, 9999, IrArgPos::Receiver));
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
        assert!(matches!(load(&bad.to_payload()), Err(EntryError::Corrupt(_))));
        // An empty rep list; the fragment no longer counts its reps.
        let mut bad = artifact.clone();
        for &i in &std::mem::take(&mut bad.events[0].2) {
            let row = bad.freq.iter_mut().find(|(rep, _)| *rep == i).unwrap();
            row.1 -= 1;
        }
        bad.freq.retain(|&(_, n)| n > 0);
        assert!(matches!(load(&bad.to_payload()), Err(EntryError::Corrupt(_))));
        // A fragment missing its last row.
        let mut bad = artifact.clone();
        bad.freq.pop();
        assert!(matches!(load(&bad.to_payload()), Err(EntryError::Corrupt(_))));
        // A fragment row for a string no event uses.
        let mut bad = artifact;
        bad.strings.push("unused()".to_string());
        bad.freq.push((bad.strings.len() as u32 - 1, 0));
        assert!(matches!(load(&bad.to_payload()), Err(EntryError::Corrupt(_))));
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
                let payload = encode(&graph, i % 3);
                let oracle = oracle::FileArtifact::from_graph(&graph, i % 3).to_payload();
                assert!(payload == oracle, "{}: payload bytes differ", file.path);
                assert_eq!(load(&payload).map(|g| g.event_count()), Ok(graph.event_count()));
                files += 1;
            }
            assert!(files > 100, "{lang:?} corpus has {files} files");
        }
    }

    /// A payload with every table non-empty and every argument-position
    /// kind.
    fn fuzz_seed() -> Vec<u8> {
        let src = format!("{SOURCE}    subprocess.run(q, shell=flask.request.form['s'])\n");
        let graph = build_source(&src, FileId(0)).unwrap();
        let artifact = oracle::FileArtifact::from_graph(&graph, 1);
        for tag in 0..3 {
            assert!(
                artifact.args.iter().any(|(_, _, pos)| match pos {
                    IrArgPos::Receiver => tag == 0,
                    IrArgPos::Positional(_) => tag == 1,
                    IrArgPos::Keyword(_) => tag == 2,
                }),
                "argument-position kind {tag} missing from the fuzz seed"
            );
        }
        encode(&graph, 1)
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
    }
}
