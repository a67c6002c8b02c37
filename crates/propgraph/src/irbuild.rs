//! Language-blind graph construction: `IrProgram → PropagationGraph`.
//!
//! The replay half of the split builder. It knows nothing about any source
//! language: it creates graph events in stream order (so the IR event index
//! becomes the `EventId`), applies construction ops in stream order, links
//! deferred calls through the recorded function summaries, and finally runs
//! the Andersen points-to solve and materializes field-aliasing edges.
//!
//! Determinism contract: replaying a given `IrProgram` always produces the
//! same graph bytes — event identity and succ/pred adjacency order are
//! fixed by the stream, and post-solve points-to edges are added in sorted
//! site order.

use crate::andersen::{Andersen, VarId};
use crate::event::{Event, EventId, EventKind, FileId};
use crate::graph::{ArgPos, EdgeKind, PropagationGraph};
use seldon_ir::{IrArgPos, IrEdgeKind, IrEventKind, IrFunc, IrOp, IrProgram};
use std::collections::HashMap;

fn event_kind(k: IrEventKind) -> EventKind {
    match k {
        IrEventKind::Call => EventKind::Call,
        IrEventKind::ObjectRead => EventKind::ObjectRead,
        IrEventKind::ParamRead => EventKind::ParamRead,
    }
}

fn edge_kind(k: IrEdgeKind) -> EdgeKind {
    match k {
        IrEdgeKind::Argument => EdgeKind::Argument,
        IrEdgeKind::Receiver => EdgeKind::Receiver,
    }
}

fn arg_pos(p: &IrArgPos) -> ArgPos {
    match p {
        IrArgPos::Receiver => ArgPos::Receiver,
        IrArgPos::Positional(i) => ArgPos::Positional(*i),
        IrArgPos::Keyword(k) => ArgPos::Keyword(k.clone()),
    }
}

/// Builds the propagation graph of one lowered file.
///
/// The `file` id is stamped on every event here — the IR itself is
/// file-agnostic, so one lowering can be cached and replayed under any id.
pub fn build_ir(ir: &IrProgram, file: FileId) -> PropagationGraph {
    let mut graph = PropagationGraph::new();
    for ev in &ir.events {
        graph.add_event(Event::new(event_kind(ev.kind), ev.reps.clone(), file, ev.span));
    }

    let mut pt = Andersen::new();
    let vars: Vec<VarId> = (0..ir.var_count).map(|_| pt.fresh()).collect();
    // `(load event, points-to result var)` pairs resolved after solving.
    let mut pt_loads: Vec<(EventId, VarId)> = Vec::new();

    for op in &ir.ops {
        match op {
            IrOp::Edge { from, to, kind } => {
                graph.add_edge_kind(EventId(*from), EventId(*to), edge_kind(*kind));
            }
            IrOp::ArgPos { from, to, pos } => {
                graph.set_arg_position(EventId(*from), EventId(*to), arg_pos(pos));
            }
            IrOp::Alloc { var, site } => {
                pt.alloc(vars[*var as usize], *site);
            }
            IrOp::Copy { from, to } => {
                pt.copy(vars[*from as usize], vars[*to as usize]);
            }
            IrOp::Load { base, field, target } => {
                pt.load(vars[*base as usize], field.as_str(), vars[*target as usize]);
            }
            IrOp::Store { base, field, value } => {
                pt.store(vars[*base as usize], field.as_str(), vars[*value as usize]);
            }
            IrOp::PtLoad { event, var } => {
                pt_loads.push((EventId(*event), vars[*var as usize]));
            }
        }
    }

    // Link calls to locally-defined functions (method inlining).
    let funcs: HashMap<&str, &IrFunc> =
        ir.funcs.iter().map(|f| (f.qualified.as_str(), f)).collect();
    for p in &ir.pending {
        let Some(summary) = funcs.get(p.qualified.as_str()) else { continue };
        // Positional arguments skip implicit receiver slots (the frontend
        // marks them; e.g. Python's `self`/`cls`).
        let positional: Vec<u32> = summary
            .params
            .iter()
            .filter(|prm| !prm.implicit)
            .map(|prm| prm.event)
            .collect();
        for (i, flows) in p.arg_flows.iter().enumerate() {
            if let Some(&pev) = positional.get(i) {
                for &f in flows {
                    graph.add_edge(EventId(f), EventId(pev));
                }
            }
        }
        for (name, flows) in &p.kwarg_flows {
            if let Some(prm) = summary.params.iter().find(|prm| &prm.name == name) {
                for &f in flows {
                    graph.add_edge(EventId(f), EventId(prm.event));
                }
            }
        }
        if let Some(call) = p.call_event {
            for &r in &summary.returns {
                graph.add_edge(EventId(r), EventId(call));
            }
        }
    }

    // Field-aliasing flow from the points-to analysis. Sites are added in
    // sorted order: the set is unordered, and a fixed order keeps replay
    // bytes independent of the process hash seed.
    pt.solve();
    for (event, var) in pt_loads {
        let mut sites: Vec<u32> = pt.points_to(var).iter().copied().collect();
        sites.sort_unstable();
        for site in sites {
            graph.add_edge(EventId(site), event);
        }
    }
    graph
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
    fn replay_matches_direct_build() {
        let src = "
from m import mk, src, sink

def helper(v):
    return v

o = mk()
p = o
p.data = src()
sink(o.data)
y = helper(src())
sink(y)
";
        let direct = crate::builder::build_source(src, FileId(3)).expect("builds");
        let ir = lower(src);
        let replayed = build_ir(&ir, FileId(3));
        assert_eq!(direct.event_count(), replayed.event_count());
        assert_eq!(direct.edge_count(), replayed.edge_count());
        for (id, e) in direct.events() {
            let r = replayed.event(id);
            assert_eq!(e.kind, r.kind);
            assert_eq!(e.reps, r.reps);
            assert_eq!(e.span, r.span);
            assert_eq!(direct.successors(id), replayed.successors(id));
            assert_eq!(direct.predecessors(id), replayed.predecessors(id));
        }
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
