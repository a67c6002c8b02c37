//! Language-blind graph construction: the product path's [`Sink`], and
//! the replay of a recorded `IrProgram` into it ([`build_ir`]), so graph
//! construction has one implementation however a file was lowered.
//!
//! Determinism contract: one event and op stream always produces the same
//! graph bytes — event identity and succ/pred adjacency order are fixed by
//! the stream, and post-solve points-to edges are added in sorted site
//! order.

use crate::andersen::{Andersen, VarId};
use crate::emit::{FlowSet, FuncSummary, Funcs, PendingCall, Sink};
use crate::event::{Event, EventId, EventKind, FileId};
use crate::graph::{GraphBuilder, PropagationGraph};
use seldon_intern::{Symbol, Symbols};
use seldon_ir::{IrOp, IrParam, IrProgram, Span};
use std::borrow::Cow;

/// The product's sink: adds each event and edge to the file's graph
/// builder as it is emitted and feeds points-to constraints to an Andersen
/// system; at finish it links pending calls, solves, adds field-aliasing
/// edges and freezes the graph.
#[derive(Debug)]
pub struct GraphSink {
    graph: GraphBuilder,
    /// Stamped on every event.
    file: FileId,
    pt: Andersen,
    /// `(load event, points-to result var)` pairs resolved after solving.
    pt_loads: Vec<(EventId, VarId)>,
}

/// The events a file's graph builder makes room for up front, so that its
/// arrays skip the smallest growth steps: per-file allocations counted by
/// the allocation-bound tests fell with it, against a builder that starts
/// empty.
const FILE_EVENTS: usize = 32;

impl GraphSink {
    /// An empty graph whose events will belong to `file`.
    pub fn new(file: FileId) -> Self {
        GraphSink {
            graph: GraphBuilder::with_capacity(FILE_EVENTS),
            file,
            pt: Andersen::default(),
            pt_loads: Vec::new(),
        }
    }
}

impl Sink for GraphSink {
    type Output = PropagationGraph;

    fn symbols(&mut self) -> &mut Symbols {
        self.graph.symbols_mut()
    }

    fn event(&mut self, kind: EventKind, reps: Vec<Symbol>, span: Span) -> u32 {
        self.graph.add_event(Event::new(kind, reps, self.file, span)).0
    }

    fn op(&mut self, op: IrOp<&str>) {
        match op {
            IrOp::Edge { from, to, kind } => {
                self.graph.add_edge_kind(EventId(from), EventId(to), kind);
            }
            IrOp::ArgPos { from, to, pos } => {
                let pos = pos.map(|k| self.graph.symbols_mut().intern(k));
                self.graph.set_arg_position(EventId(from), EventId(to), pos);
            }
            IrOp::Alloc { var, site } => self.pt.alloc(VarId(var), site),
            IrOp::Copy { from, to } => self.pt.copy(VarId(from), VarId(to)),
            IrOp::Load { base, field, target } => self.pt.load(VarId(base), field, VarId(target)),
            IrOp::Store { base, field, value } => self.pt.store(VarId(base), field, VarId(value)),
            IrOp::PtLoad { event, var } => self.pt_loads.push((EventId(event), VarId(var))),
        }
    }

    fn fresh_var(&mut self) -> u32 {
        self.pt.fresh().0
    }

    fn finish<C>(
        mut self,
        funcs: &Funcs<'_, C>,
        _order: &[Cow<'_, str>],
        pending: Vec<PendingCall<'_>>,
    ) -> PropagationGraph {
        let graph = &mut self.graph;
        let mut link = |flows: &[u32], to: u32| {
            for &from in flows {
                graph.add_edge(EventId(from), EventId(to));
            }
        };
        // Link calls to locally-defined functions (method inlining).
        for p in &pending {
            let Some(f) = funcs.get(&p.qualified) else { continue };
            // Positional arguments skip implicit receiver slots (the
            // frontend marks them; e.g. Python's `self`/`cls`).
            for (prm, flows) in f.params.iter().filter(|prm| !prm.implicit).zip(&p.args) {
                link(flows, prm.event);
            }
            for (name, flows) in &p.kwargs {
                if let Some(prm) = f.params.iter().find(|prm| prm.name == *name) {
                    link(flows, prm.event);
                }
            }
            if let Some(call) = p.event {
                for &r in &f.returns {
                    link(&[r], call);
                }
            }
        }
        // Field-aliasing flow from the points-to analysis. Sites are added
        // in sorted order: the set is unordered, and a fixed order keeps
        // the graph bytes independent of hashing.
        self.pt.solve();
        let mut sites: Vec<u32> = Vec::new();
        for &(event, var) in &self.pt_loads {
            sites.clear();
            sites.extend(self.pt.points_to(var).iter().copied());
            sites.sort_unstable();
            for &site in &sites {
                self.graph.add_edge(EventId(site), event);
            }
        }
        self.graph.symbols_mut().seal();
        self.graph.freeze()
    }
}

/// Builds the propagation graph of one recorded file by replaying it into
/// a [`GraphSink`] that stamps `file` on every event and starts from a copy
/// of the program's symbol table, so every symbol keeps its id.
pub fn build_ir(ir: &IrProgram, file: FileId) -> PropagationGraph {
    let mut sink = GraphSink::new(file);
    *sink.symbols() = ir.symbols.clone();
    for ev in &ir.events {
        sink.event(ev.kind, ev.reps.clone(), ev.span);
    }
    for _ in 0..ir.var_count {
        sink.fresh_var();
    }
    for op in &ir.ops {
        sink.op(op.map(String::as_str));
    }
    let funcs: Funcs<'_, ()> = ir
        .funcs
        .iter()
        .map(|f| {
            let params = f
                .params
                .iter()
                .map(|p| IrParam { name: p.name.as_str(), event: p.event, implicit: p.implicit })
                .collect();
            let summary = FuncSummary { params, returns: f.returns.clone(), callee: () };
            (Cow::Borrowed(f.qualified.as_str()), summary)
        })
        .collect();
    let pending = ir
        .pending
        .iter()
        .map(|p| PendingCall {
            qualified: Cow::Borrowed(&p.qualified),
            args: p.arg_flows.iter().map(|f| FlowSet::from(&f[..])).collect(),
            kwargs: p
                .kwarg_flows
                .iter()
                .map(|(n, f)| (n.as_str(), FlowSet::from(&f[..])))
                .collect(),
            event: p.call_event,
        })
        .collect();
    sink.finish(&funcs, &[], pending)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Budget;
    use crate::lower::lower_module_budgeted;

    fn lower(src: &str) -> IrProgram {
        let module = seldon_pyast::parse(src).expect("parses");
        lower_module_budgeted(&module, &Budget::unlimited()).expect("lowers")
    }

    #[test]
    fn file_id_is_stamped_at_replay() {
        let ir = lower("from m import f\nx = f()\n");
        let g7 = build_ir(&ir, FileId(7));
        let g9 = build_ir(&ir, FileId(9));
        for (id, e) in g7.events() {
            assert_eq!(e.file, FileId(7));
            assert_eq!(g9.event(id).file, FileId(9));
        }
    }
}
