//! Builds propagation graphs from Python source (§5).
//!
//! Events are function calls, object reads, and formal parameters; flow
//! edges follow the paper's rules: calls propagate arguments (and receiver
//! chains) to their results, collections propagate entries to the whole
//! collection, `locals()` receives every local variable, loops run a single
//! iteration, locally-defined functions are linked through their parameters
//! and returns (the paper's method inlining), and an Andersen points-to
//! analysis adds field-aliasing flow the environment threading misses.
//!
//! This module is a thin façade: the Python-specific walk lives in
//! [`crate::lower`], the language-blind construction in the graph sink of
//! [`crate::irbuild`]. The per-file front end that picks a parser and a
//! budget for either language, and always parses with recovery, is
//! `seldon_core::Frontend::lower`; this module keeps [`build_source`], a
//! strict, unlimited shorthand.

use crate::budget::Budget;
use crate::event::FileId;
use crate::graph::PropagationGraph;
use crate::irbuild::GraphSink;
use crate::lower::lower_module_into;
use seldon_pyast::{parse, FrontendError};

/// Parses `source` strictly and builds its propagation graph, without
/// resource limits.
///
/// # Errors
///
/// Returns a [`FrontendError`] if the source fails to lex or parse.
pub fn build_source(source: &str, file: FileId) -> Result<PropagationGraph, FrontendError> {
    let module = parse(source)?;
    Ok(lower_module_into(&module, &Budget::unlimited(), GraphSink::new(file))
        .expect("an unlimited budget never trips"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::BudgetExceeded;
    use crate::event::{EventId, EventKind};
    use seldon_specs::Role;

    fn build(src: &str) -> PropagationGraph {
        build_source(src, FileId(0)).expect("source builds")
    }

    fn find(g: &PropagationGraph, rep: &str) -> EventId {
        g.events().find(|&(id, _)| g.has_rep(id, rep)).map(|(id, _)| id).unwrap_or_else(|| {
            let all: Vec<&str> = g.events().map(|(id, _)| g.rep(id)).collect();
            panic!("no event with rep {rep}; have {all:?}")
        })
    }

    #[test]
    fn paper_fig2_graph() {
        let src = r#"
from yak.web import app
from flask import request
from werkzeug import secure_filename
import os

blog_dir = app.config['PATH']

@app.route('/media/', methods=['POST'])
def media():
    filename = request.files['f'].filename
    filename = secure_filename(filename)
    path = os.path.join(blog_dir, filename)
    if not os.path.exists(path):
        request.files['f'].save(path)
"#;
        let g = build(src);
        let a = find(&g, "flask.request.files['f'].filename");
        let b = find(&g, "werkzeug.secure_filename()");
        let c = find(&g, "os.path.join()");
        let d = find(&g, "flask.request.files['f'].save()");
        let e = find(&g, "yak.web.app.config['PATH']");
        let f = find(&g, "os.path.exists()");
        // Fig. 2b edges.
        assert!(g.is_reachable(a, b), "filename -> secure_filename");
        assert!(g.is_reachable(b, c), "secure_filename -> join");
        assert!(g.is_reachable(e, c), "config -> join");
        assert!(g.is_reachable(c, d), "join -> save");
        assert!(g.is_reachable(c, f), "join -> exists");
        assert!(!g.is_reachable(d, a), "no backwards flow");
        // The receiver read `request.files['f']` flows into save.
        let recv = find(&g, "flask.request.files['f']");
        assert!(g.is_reachable(recv, d));
    }

    #[test]
    fn call_args_flow_to_result() {
        let g = build("from m import f, g\nx = f(1)\ny = g(x)\n");
        let f = find(&g, "m.f()");
        let gg = find(&g, "m.g()");
        assert!(g.is_reachable(f, gg));
    }

    #[test]
    fn param_events_are_sources_only() {
        let g = build("def handler(req):\n    return req\n");
        let p = find(&g, "handler(param req)");
        let ev = g.event(p);
        assert_eq!(ev.kind, EventKind::ParamRead);
        assert!(ev.candidates.contains(Role::Source));
        assert!(!ev.candidates.contains(Role::Sink));
    }

    /// True if any event carrying `from_rep` reaches any event carrying
    /// `to_rep` (inlining duplicates body events per call site).
    fn any_reaches(g: &PropagationGraph, from_rep: &str, to_rep: &str) -> bool {
        let froms: Vec<EventId> =
            g.events().filter(|&(id, _)| g.has_rep(id, from_rep)).map(|(id, _)| id).collect();
        let tos: Vec<EventId> =
            g.events().filter(|&(id, _)| g.has_rep(id, to_rep)).map(|(id, _)| id).collect();
        froms.iter().any(|&f| tos.iter().any(|&t| g.is_reachable(f, t)))
    }

    #[test]
    fn local_function_linking() {
        let src = "
from m import src, sink

def helper(v):
    return v

x = src()
y = helper(x)
sink(y)
";
        let g = build(src);
        assert!(any_reaches(&g, "m.src()", "m.sink()"), "flow through local function");
        // The formal parameter is still a source-candidate event.
        let p = find(&g, "helper(param v)");
        assert_eq!(g.event(p).kind, EventKind::ParamRead);
    }

    #[test]
    fn method_call_on_self_links() {
        let src = "
from m import src, sink

class C:
    def get(self):
        return src()
    def run(self):
        sink(self.get())
";
        let g = build(src);
        assert!(any_reaches(&g, "m.src()", "m.sink()"));
    }

    #[test]
    fn inlining_is_context_sensitive() {
        // Two call sites of the same helper: taint entering at one site
        // must not leak into the other (the summary-linking approach would
        // smear it through the shared parameter event).
        let src = "
from m import src, sink_a, sink_b

def ident(v):
    return v

tainted = ident(src())
clean = ident('constant')
sink_a(tainted)
sink_b(clean)
";
        let g = build(src);
        assert!(any_reaches(&g, "m.src()", "m.sink_a()"), "taint reaches its own sink");
        assert!(
            !any_reaches(&g, "m.src()", "m.sink_b()"),
            "taint must not leak across call sites"
        );
    }

    #[test]
    fn inlining_bounds_recursion() {
        let src = "
from m import src, sink

def loop(v):
    return loop(v)

sink(loop(src()))
";
        // Must terminate (recursion guard) and keep the flow.
        let g = build(src);
        assert!(any_reaches(&g, "m.src()", "m.sink()"));
    }

    #[test]
    fn branches_merge() {
        let src = "
from m import a, b, sink
if c:
    x = a()
else:
    x = b()
sink(x)
";
        let g = build(src);
        let sa = find(&g, "m.a()");
        let sb = find(&g, "m.b()");
        let k = find(&g, "m.sink()");
        assert!(g.is_reachable(sa, k));
        assert!(g.is_reachable(sb, k));
    }

    #[test]
    fn collections_propagate_entries() {
        let src = "from m import src, sink\nxs = [1, src(), 3]\nsink(xs)\n";
        let g = build(src);
        assert!(g.is_reachable(find(&g, "m.src()"), find(&g, "m.sink()")));
        let src2 = "from m import src, sink\nd = {'k': src()}\nsink(d)\n";
        let g2 = build(src2);
        assert!(g2.is_reachable(find(&g2, "m.src()"), find(&g2, "m.sink()")));
    }

    #[test]
    fn locals_receives_all_variables() {
        let src = "from m import src, sink\nx = src()\nsink(locals())\n";
        let g = build(src);
        assert!(g.is_reachable(find(&g, "m.src()"), find(&g, "m.sink()")));
    }

    #[test]
    fn field_aliasing_flow() {
        // Store through one alias, load through another.
        let src = "
from m import mk, src, sink
o = mk()
p = o
p.data = src()
sink(o.data)
";
        let g = build(src);
        assert!(g.is_reachable(find(&g, "m.src()"), find(&g, "m.sink()")));
    }

    #[test]
    fn subscript_store_flow() {
        let src = "
from m import mk, src, sink
d = mk()
d['k'] = src()
sink(d['k'])
";
        let g = build(src);
        assert!(g.is_reachable(find(&g, "m.src()"), find(&g, "m.sink()")));
    }

    #[test]
    fn fstring_propagates_parts() {
        let src = "from m import src, sink\nv = src()\nsink(f'<div>{v}</div>')\n";
        let g = build(src);
        assert!(g.is_reachable(find(&g, "m.src()"), find(&g, "m.sink()")));
    }

    #[test]
    fn comprehension_flow() {
        let src = "from m import src, sink\nxs = src()\nsink([x for x in xs])\n";
        let g = build(src);
        assert!(g.is_reachable(find(&g, "m.src()"), find(&g, "m.sink()")));
    }

    #[test]
    fn with_statement_binds_target() {
        let src = "from m import ctx, sink\nwith ctx() as f:\n    sink(f)\n";
        let g = build(src);
        assert!(g.is_reachable(find(&g, "m.ctx()"), find(&g, "m.sink()")));
    }

    #[test]
    fn tuple_unpacking() {
        let src = "from m import src, sink\na, b = src(), 1\nsink(a)\n";
        let g = build(src);
        assert!(g.is_reachable(find(&g, "m.src()"), find(&g, "m.sink()")));
    }

    #[test]
    fn keyword_arguments_flow() {
        let src = "from m import src, sink\nsink(data=src())\n";
        let g = build(src);
        assert!(g.is_reachable(find(&g, "m.src()"), find(&g, "m.sink()")));
    }

    #[test]
    fn no_flow_between_unrelated() {
        let src = "from m import a, b\nx = a()\ny = b()\n";
        let g = build(src);
        assert!(!g.is_reachable(find(&g, "m.a()"), find(&g, "m.b()")));
    }

    #[test]
    fn strong_update_cuts_stale_flow() {
        let src = "from m import a, b, sink\nx = a()\nx = b()\nsink(x)\n";
        let g = build(src);
        assert!(!g.is_reachable(find(&g, "m.a()"), find(&g, "m.sink()")));
        assert!(g.is_reachable(find(&g, "m.b()"), find(&g, "m.sink()")));
    }

    #[test]
    fn chained_local_representation() {
        let src = "from forms import LoginForm\nform = LoginForm()\nu = form.username.data\n";
        let g = build(src);
        let _ = find(&g, "forms.LoginForm().username.data");
    }

    #[test]
    fn graph_is_acyclic_on_typical_code() {
        let src = "
from m import f, g
x = f()
for i in range(3):
    x = g(x)
";
        let g = build(src);
        // Single-iteration loops keep the graph a DAG (§5.2).
        for (id, _) in g.events() {
            assert!(!g.reachable_from(id).contains(&id), "cycle through {:?}", g.rep(id));
        }
    }

    /// The per-file steps under `budget`: the source-size gate, the
    /// recovering parse, the budgeted lowering, then graph construction.
    /// Returns the graph and the number of recovered parse errors.
    fn build_under(src: &str, budget: &Budget) -> Result<(PropagationGraph, usize), BudgetExceeded> {
        budget.check_source(src)?;
        let (module, errors) = seldon_pyast::parse_lenient(src);
        let graph = lower_module_into(&module, budget, GraphSink::new(FileId(0)))?;
        Ok((graph, errors.len()))
    }

    #[test]
    fn lenient_build_skips_broken_statements() {
        // The malformed line must not open a bracket (implicit joining
        // would swallow the rest of the file into one logical line).
        let src = "from m import src, sink\nx = src()\nbroken = = 3\nsink(x)\n";
        let (g, errors) = build_under(src, &Budget::unlimited()).expect("builds");
        assert_eq!(errors, 1);
        assert!(g.is_reachable(find(&g, "m.src()"), find(&g, "m.sink()")));
    }

    #[test]
    fn timed_builds_match_untimed() {
        // Every analyzed file is lowered, and timed, under a budget; one
        // that does not trip must leave the graph as the shorthand builds
        // it.
        let src = "from m import src, sink\nx = src()\nsink(x)\n";
        let plain = build_source(src, FileId(0)).unwrap();
        let (g, errors) = build_under(src, &Budget::default()).expect("builds");
        assert_eq!(errors, 0);
        assert_eq!(g.event_count(), plain.event_count());
        assert_eq!(g.edge_count(), plain.edge_count());
    }

    #[test]
    fn timed_build_honors_budget() {
        let tight = Budget { max_source_bytes: 4, ..Budget::unlimited() };
        let err = build_under("x = 1\n", &tight).unwrap_err();
        assert!(matches!(err, BudgetExceeded::SourceBytes { .. }));
    }

    #[test]
    fn events_count_paper_example_kinds() {
        let src = "from flask import request\nname = request.args.get('n')\n";
        let g = build(src);
        let kinds: Vec<EventKind> = g.events().map(|(_, e)| e.kind).collect();
        assert!(kinds.contains(&EventKind::Call));
        assert!(kinds.contains(&EventKind::ObjectRead));
    }
}
