//! Graphviz DOT export of propagation graphs, for debugging and
//! documentation (the paper's Fig. 2b rendered mechanically).

use crate::event::EventKind;
use crate::graph::{EdgeKind, PropagationGraph};
use seldon_specs::{Role, RoleSet};
use std::collections::HashMap;
use std::fmt::Write;

/// Renders `graph` as DOT. `roles` optionally colors events by role (blue
/// source, green sanitizer, red sink, as in the paper's figures).
pub fn to_dot(graph: &PropagationGraph, roles: &HashMap<crate::EventId, RoleSet>) -> String {
    let mut out = String::from("digraph propagation {\n  rankdir=LR;\n  node [shape=box, fontname=\"monospace\"];\n");
    for (id, event) in graph.events() {
        let shape = match event.kind {
            EventKind::Call => "box",
            EventKind::ObjectRead => "ellipse",
            EventKind::ParamRead => "diamond",
        };
        let color = roles
            .get(&id)
            .map(|r| {
                if r.contains(Role::Source) {
                    "lightblue"
                } else if r.contains(Role::Sanitizer) {
                    "lightgreen"
                } else if r.contains(Role::Sink) {
                    "lightcoral"
                } else {
                    "white"
                }
            })
            .unwrap_or("white");
        let _ = writeln!(
            out,
            "  e{} [label=\"{}\", shape={shape}, style=filled, fillcolor={color}];",
            id.0,
            graph.rep(id).replace('"', "\\\"")
        );
    }
    for (from, _) in graph.events() {
        for edge in graph.out_edges(from) {
            let style = if edge.kind == EdgeKind::Receiver { " [style=dashed]" } else { "" };
            let _ = writeln!(out, "  e{} -> e{}{style};", from.0, edge.to.0);
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::build_source;
    use crate::event::FileId;

    #[test]
    fn dot_contains_nodes_and_edges() {
        let g = build_source(
            "from m import f, g\nx = f()\ng(x)\n",
            FileId(0),
        )
        .unwrap();
        let dot = to_dot(&g, &HashMap::new());
        assert!(dot.starts_with("digraph propagation {"));
        assert!(dot.contains("m.f()"));
        assert!(dot.contains("m.g()"));
        assert!(dot.contains("->"));
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    fn roles_color_nodes() {
        let g = build_source("from m import f\nx = f()\n", FileId(0)).unwrap();
        let id = g.events().next().unwrap().0;
        let mut roles = HashMap::new();
        roles.insert(id, RoleSet::only(Role::Source));
        let dot = to_dot(&g, &roles);
        assert!(dot.contains("lightblue"));
    }

    #[test]
    fn receiver_flow_is_dashed() {
        let g = build_source(
            "from flask import request\nx = request.args.get('q')\n",
            FileId(0),
        )
        .unwrap();
        let dot = to_dot(&g, &HashMap::new());
        assert!(dot.contains("style=dashed"), "{dot}");
    }
}
