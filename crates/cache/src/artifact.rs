//! The per-file artifact payload: a propagation graph serialized by
//! representation **string**.
//!
//! `Symbol(u32)` values are slots in the process-global interner — a second
//! process (or the same binary after a restart) assigns different numbers
//! to the same strings, so raw symbols must never reach disk. An artifact
//! instead carries a per-entry string table of representation texts; events
//! reference table indices, and [`FileArtifact::to_graph`] re-interns the
//! strings in the loading process. [`FileId`]s are equally run-local (the
//! file's index in corpus order), so the stored graph is always stamped
//! file 0 and re-stamped with the caller's id on load.
//!
//! Alongside the graph the payload stores the file's constraint fragment:
//! its contribution to the §4.3 representation-frequency census, again
//! keyed by string-table index. On load the fragment is recomputed from
//! the decoded graph and compared — a payload that passes the outer
//! checksum but decodes to a graph disagreeing with its own fragment is
//! treated as corrupt and recomputed, never trusted.

use crate::codec::{Reader, Writer};
use crate::entry::EntryError;
use seldon_intern::intern;
use seldon_propgraph::{ArgPos, EdgeKind, Event, EventId, EventKind, FileId, PropagationGraph};
use seldon_pyast::Span;
use std::collections::HashMap;

/// A propagation graph plus constraint fragment in disk-stable form.
#[derive(Debug, Clone, PartialEq)]
pub struct FileArtifact {
    /// Lenient-parse error count: 0 for a strict parse, `n ≥ 1` when the
    /// file was recovered with `n` front-end errors.
    pub recovered_errors: usize,
    /// Representation string table; events refer to entries by index.
    strings: Vec<String>,
    /// Events as `(kind, span, rep-table-indices)`.
    events: Vec<(EventKind, Span, Vec<u32>)>,
    /// Flow edges `(from, to, kind)`, ordered so that replaying
    /// [`PropagationGraph::add_edge_kind`] reproduces the original
    /// graph's successor *and* predecessor list orders (see
    /// [`FileArtifact::from_graph`]).
    edges: Vec<(u32, u32, EdgeKind)>,
    /// Argument positions for the edges that have one.
    args: Vec<(u32, u32, ArgPos)>,
    /// The §4.3 frequency fragment: `(rep-table-index, count)` pairs.
    freq: Vec<(u32, u32)>,
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

/// Computes the frequency fragment of a graph against a string table.
fn freq_fragment(
    graph: &PropagationGraph,
    index_of: &HashMap<&str, u32>,
) -> Vec<(u32, u32)> {
    let mut counts: HashMap<u32, u32> = HashMap::new();
    for (_, event) in graph.events() {
        for &rep in &event.reps {
            *counts.entry(index_of[rep.as_str()]).or_insert(0) += 1;
        }
    }
    let mut freq: Vec<(u32, u32)> = counts.into_iter().collect();
    freq.sort_unstable();
    freq
}

impl FileArtifact {
    /// Captures a per-file graph (as built by the front end, stamped with
    /// any [`FileId`]) into disk-stable form.
    pub fn from_graph(graph: &PropagationGraph, recovered_errors: usize) -> FileArtifact {
        let mut strings: Vec<String> = Vec::new();
        let mut index_of: HashMap<&str, u32> = HashMap::new();
        let mut events = Vec::with_capacity(graph.event_count());
        for (_, event) in graph.events() {
            let reps = event
                .reps
                .iter()
                .map(|&rep| {
                    let text = rep.as_str();
                    *index_of.entry(text).or_insert_with(|| {
                        strings.push(text.to_string());
                        (strings.len() - 1) as u32
                    })
                })
                .collect();
            events.push((event.kind, event.span, reps));
        }
        // Adjacency-list order is behaviorally significant: constraint
        // generation walks successor/predecessor lists in insertion order,
        // and the solver's floating-point results depend on constraint
        // order. `graph.edges()` preserves each successor list but loses
        // predecessor order, so a rebuilt graph would generate a permuted
        // (same multiset, different order) constraint system and miss the
        // warm-start fingerprint. Instead, emit edges in an order that
        // heads both its source's out-chain and its target's in-chain —
        // replaying `add_edge_kind` then reproduces both list families
        // exactly. Such a schedule always exists (the original insertion
        // sequence is one) and Kahn-style greedy emission finds one.
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
                    args.push((from.0, to.0, pos.clone()));
                }
                out_ptr[from.index()] += 1;
                in_ptr[to.index()] += 1;
                // The target's next in-edge may have just become emittable.
                if let Some(&g) = graph.predecessors(to).get(in_ptr[to.index()]) {
                    stack.push(g.0);
                }
            }
        }
        debug_assert_eq!(edges.len(), graph.edge_count(), "edge schedule is complete");
        let freq = freq_fragment(graph, &index_of);
        FileArtifact { recovered_errors, strings, events, edges, args, freq }
    }

    /// Rebuilds the graph in this process: representation strings are
    /// re-interned, events re-stamped with `file`, and the stored
    /// frequency fragment cross-checked against the rebuilt graph.
    ///
    /// # Errors
    ///
    /// [`EntryError::Corrupt`] when the payload is internally inconsistent
    /// (out-of-range indices, empty rep lists, fragment mismatch).
    pub fn to_graph(&self, file: FileId) -> Result<PropagationGraph, EntryError> {
        let corrupt = |what: &str| EntryError::Corrupt(what.to_string());
        let symbols: Vec<_> = self.strings.iter().map(|s| intern(s)).collect();
        let mut graph = PropagationGraph::new();
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
            graph.set_arg_position(EventId(*from), EventId(*to), pos.clone());
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

    /// Serializes to the binary payload framed by
    /// [`crate::entry::encode_entry`]: the recovered-error count, then the
    /// string, event, edge, argument and frequency tables as
    /// [`crate::codec`] records.
    pub fn to_payload(&self) -> Vec<u8> {
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
                ArgPos::Receiver => w.u8(0),
                ArgPos::Positional(p) => {
                    w.u8(1);
                    w.u8(*p);
                }
                ArgPos::Keyword(name) => {
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

    /// Parses a payload produced by [`FileArtifact::to_payload`].
    ///
    /// # Errors
    ///
    /// [`EntryError::Corrupt`] on a truncated, overlong or malformed
    /// payload.
    pub fn from_payload(payload: &[u8]) -> Result<FileArtifact, EntryError> {
        let corrupt = |what: &str| EntryError::Corrupt(what.to_string());
        let mut r = Reader::new(payload);
        // Struct fields are evaluated in the order written: payload order.
        // Minimum row widths: a length or count prefix is 4 bytes, an
        // event is a tag, four span fields and its rep count.
        let artifact = FileArtifact {
            recovered_errors: r.usize()?,
            strings: r.table(4, |r| Ok(r.str()?.to_string()))?,
            events: r.table(21, |r| {
                let kind = kind_from_tag(r.u8()?).ok_or_else(|| corrupt("unknown event kind"))?;
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
                    0 => ArgPos::Receiver,
                    1 => ArgPos::Positional(r.u8()?),
                    2 => ArgPos::Keyword(r.str()?.to_string()),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::fuzz;
    use proptest::prelude::*;
    use seldon_propgraph::build_source;

    const SOURCE: &str = "import flask\nimport os\n\ndef handler():\n    q = flask.request.args.get('q')\n    os.system(q)\n";

    fn graphs_agree(a: &PropagationGraph, b: &PropagationGraph) {
        assert_eq!(a.event_count(), b.event_count());
        assert_eq!(a.edge_count(), b.edge_count());
        for (id, ev) in a.events() {
            let other = b.event(id);
            assert_eq!(ev.kind, other.kind);
            assert_eq!(ev.span, other.span);
            assert_eq!(ev.candidates, other.candidates);
            let reps: Vec<&str> = ev.reps.iter().map(|r| r.as_str()).collect();
            let other_reps: Vec<&str> = other.reps.iter().map(|r| r.as_str()).collect();
            assert_eq!(reps, other_reps);
        }
        for (from, to) in a.edges() {
            assert_eq!(a.edge_kind(from, to), b.edge_kind(from, to));
            assert_eq!(a.arg_position(from, to), b.arg_position(from, to));
        }
        // Adjacency-list *order* must survive too: constraint generation
        // walks these lists, and constraint order feeds the solver.
        for (id, _) in a.events() {
            assert_eq!(a.successors(id), b.successors(id), "succ order of {id:?}");
            assert_eq!(a.predecessors(id), b.predecessors(id), "pred order of {id:?}");
        }
    }

    #[test]
    fn graph_round_trips_with_restamped_file_id() {
        let graph = build_source(SOURCE, FileId(0)).unwrap();
        let artifact = FileArtifact::from_graph(&graph, 0);
        let payload = artifact.to_payload();
        let back = FileArtifact::from_payload(&payload).unwrap();
        assert_eq!(back, artifact);
        let rebuilt = back.to_graph(FileId(42)).unwrap();
        graphs_agree(&graph, &rebuilt);
        for (_, ev) in rebuilt.events() {
            assert_eq!(ev.file, FileId(42), "events are re-stamped on load");
        }
    }

    #[test]
    fn payload_contains_no_raw_symbols() {
        let graph = build_source(SOURCE, FileId(7)).unwrap();
        let payload = FileArtifact::from_graph(&graph, 0).to_payload();
        // Every representation appears by string; the payload parses in
        // any process regardless of interner state.
        let needle = b"os.system()";
        assert!(
            payload.windows(needle.len()).any(|w| w == needle),
            "reps stored as strings: {payload:?}"
        );
    }

    #[test]
    fn tampered_fragment_is_rejected() {
        let graph = build_source(SOURCE, FileId(0)).unwrap();
        let mut artifact = FileArtifact::from_graph(&graph, 0);
        artifact.freq[0].1 += 1;
        assert!(matches!(
            artifact.to_graph(FileId(0)).unwrap_err(),
            EntryError::Corrupt(_)
        ));
    }

    #[test]
    fn out_of_range_indices_are_rejected() {
        let graph = build_source(SOURCE, FileId(0)).unwrap();
        let artifact = FileArtifact::from_graph(&graph, 0);
        let mut bad = artifact.clone();
        bad.events[0].2 = vec![9999];
        assert!(bad.to_graph(FileId(0)).is_err());
        let mut bad = artifact.clone();
        bad.edges.push((9999, 0, EdgeKind::Argument));
        assert!(bad.to_graph(FileId(0)).is_err());
    }

    /// A payload with every table non-empty and every argument-position
    /// kind, as the load path decodes it: payload, then graph.
    fn fuzz_seed() -> Vec<u8> {
        let src = format!("{SOURCE}    subprocess.run(q, shell=flask.request.form['s'])\n");
        let artifact = FileArtifact::from_graph(&build_source(&src, FileId(0)).unwrap(), 1);
        for tag in 0..3 {
            assert!(
                artifact.args.iter().any(|(_, _, pos)| match pos {
                    ArgPos::Receiver => tag == 0,
                    ArgPos::Positional(_) => tag == 1,
                    ArgPos::Keyword(_) => tag == 2,
                }),
                "argument-position kind {tag} missing from the fuzz seed"
            );
        }
        artifact.to_payload()
    }

    fn load(payload: &[u8]) -> Result<PropagationGraph, EntryError> {
        FileArtifact::from_payload(payload)?.to_graph(FileId(0))
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
