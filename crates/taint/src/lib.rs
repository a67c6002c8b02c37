//! # seldon-taint
//!
//! The taint-analysis client of the Seldon reproduction (§3.4): given a
//! propagation graph and a taint specification, it reports every
//! information flow from a source event to a sink event that does not pass
//! through a sanitizer.
//!
//! Role assignment follows the backoff discipline: an event takes the roles
//! of its most specific representation that the specification knows about.
//!
//! ## Example
//!
//! ```
//! use seldon_propgraph::{build_source, FileId};
//! use seldon_specs::TaintSpec;
//! use seldon_taint::TaintAnalyzer;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let graph = build_source(
//!     "from flask import request, redirect\nredirect(request.args.get('next'))\n",
//!     FileId(0),
//! )?;
//! let spec = TaintSpec::parse("o: flask.request.args.get()\ni: flask.redirect()\n")?;
//! let analyzer = TaintAnalyzer::new(&graph, &spec);
//! assert_eq!(analyzer.find_violations().len(), 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod report;

use seldon_intern::Symbol;
use seldon_propgraph::{ArgPos, EventId, FileId, PropagationGraph, SearchWorkspace};
use seldon_specs::{ArgRef, CompiledSpec, Role, RoleSet, SinkSignature, TaintSpec};
use std::collections::HashMap;

pub use report::{render_reports, reports_to_json, Report, VulnClass};

/// A reported unsanitized source→sink flow.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// The source event.
    pub source: EventId,
    /// The sink event.
    pub sink: EventId,
    /// One unsanitized path from source to sink (inclusive).
    pub path: Vec<EventId>,
    /// The source's matched representation.
    pub source_rep: String,
    /// The sink's matched representation.
    pub sink_rep: String,
    /// File containing the sink.
    pub file: FileId,
}

/// Analyzer options.
#[derive(Debug, Clone, Default)]
pub struct TaintOptions {
    /// When true, sinks with a declared [`SinkSignature`] only report taint
    /// that reaches a *dangerous* parameter — the paper's §3.3 future-work
    /// extension, which eliminates the Tab. 6 "flows into wrong parameter"
    /// false positives.
    pub param_sensitive: bool,
}

/// A taint analyzer bound to one propagation graph and specification.
#[derive(Debug)]
pub struct TaintAnalyzer<'g> {
    graph: &'g PropagationGraph,
    /// Role set per event, resolved through representation backoff,
    /// indexed by event id.
    roles: Vec<RoleSet>,
    /// The representation that matched, indexed by event id.
    matched: Vec<Option<Symbol>>,
    /// Signatures of sink events whose matched representation declares one.
    sink_sigs: HashMap<EventId, SinkSignature>,
    options: TaintOptions,
}

impl<'g> TaintAnalyzer<'g> {
    /// Resolves roles for every event of `graph` against `spec`.
    pub fn new(graph: &'g PropagationGraph, spec: &TaintSpec) -> Self {
        TaintAnalyzer::with_options(graph, spec, TaintOptions::default())
    }

    /// Like [`TaintAnalyzer::new`] with explicit [`TaintOptions`].
    pub fn with_options(
        graph: &'g PropagationGraph,
        spec: &TaintSpec,
        options: TaintOptions,
    ) -> Self {
        let mut roles = vec![RoleSet::EMPTY; graph.event_count()];
        let mut matched = vec![None; graph.event_count()];
        let mut sink_sigs = HashMap::new();
        // Role lookup (including blacklist globs) resolves once per distinct
        // representation symbol, not once per event.
        let compiled = CompiledSpec::new(spec, graph.symbols());
        for (id, event) in graph.events() {
            for &rep in event.reps {
                let r = compiled.roles(rep).intersection(event.candidates);
                if !r.is_empty() {
                    roles[id.index()] = r;
                    matched[id.index()] = Some(rep);
                    if r.contains(Role::Sink) {
                        if let Some(sig) = spec.signature(graph.symbols().resolve(rep)) {
                            sink_sigs.insert(id, sig.clone());
                        }
                    }
                    break;
                }
            }
        }
        TaintAnalyzer { graph, roles, matched, sink_sigs, options }
    }

    /// Creates an analyzer from explicit per-event roles (e.g. the solver's
    /// extraction output) merged over `spec`-resolved roles.
    pub fn with_event_roles(
        graph: &'g PropagationGraph,
        spec: &TaintSpec,
        event_roles: &HashMap<EventId, RoleSet>,
    ) -> Self {
        let mut a = TaintAnalyzer::new(graph, spec);
        for (&id, &r) in event_roles {
            let cand = graph.event(id).candidates;
            let merged = &mut a.roles[id.index()];
            *merged = merged.union(r.intersection(cand));
            a.matched[id.index()].get_or_insert_with(|| graph.event(id).rep_sym());
        }
        a
    }

    /// The resolved roles of an event; empty for an id outside the graph.
    pub fn roles(&self, id: EventId) -> RoleSet {
        self.roles.get(id.index()).copied().unwrap_or(RoleSet::EMPTY)
    }

    /// The representation that matched the specification for `id`, if any.
    pub fn matched_rep(&self, id: EventId) -> Option<&'g str> {
        let graph = self.graph;
        self.matched.get(id.index()).copied().flatten().map(|s| graph.symbols().resolve(s))
    }

    /// All events holding `role`, in id order.
    pub fn events_with_role(&self, role: Role) -> Vec<EventId> {
        (0..self.roles.len() as u32)
            .map(EventId)
            .filter(|&id| self.roles(id).contains(role))
            .collect()
    }

    /// Finds all unsanitized source→sink flows.
    ///
    /// For each source, a forward BFS that refuses to continue *through*
    /// sanitizer events reports one unsanitized path to each reachable
    /// sink. One violation is reported per (source, sink) pair. All
    /// sources share one [`SearchWorkspace`].
    pub fn find_violations(&self) -> Vec<Violation> {
        let mut ws = SearchWorkspace::for_graph(self.graph);
        let mut out = Vec::new();
        for source in self.events_with_role(Role::Source) {
            self.sweep(&mut ws, source, &mut out);
        }
        out
    }

    /// Unsanitized flows starting at a specific source event.
    pub fn violations_from(&self, source: EventId) -> Vec<Violation> {
        let mut out = Vec::new();
        self.sweep(&mut SearchWorkspace::for_graph(self.graph), source, &mut out);
        out
    }

    /// Appends the unsanitized flows from `source` to `out`, in the order
    /// the BFS discovers their sinks.
    fn sweep(&self, ws: &mut SearchWorkspace, source: EventId, out: &mut Vec<Violation>) {
        // Sanitizers stop propagation (but a source that is also a
        // sanitizer still emits its own taint).
        ws.search_by(self.graph, source, usize::MAX, |v, _| {
            v == source || !self.roles(v).contains(Role::Sanitizer)
        });
        // Reports are emitted after the sweep so the parameter-sensitivity
        // check sees the complete tainted set.
        let sinks = ws.reached().iter().filter(|&&v| {
            let r = self.roles(v);
            r.contains(Role::Sink) && !r.contains(Role::Sanitizer)
        });
        for &v in sinks {
            if !self.sink_entry_is_dangerous(v, ws) {
                continue;
            }
            out.push(Violation {
                source,
                sink: v,
                path: Self::path(ws, v),
                source_rep: self.matched_rep(source).unwrap_or_default().to_string(),
                sink_rep: self.matched_rep(v).unwrap_or_default().to_string(),
                file: self.graph.event(v).file,
            });
        }
    }

    /// Parameter sensitivity: if the sink has a declared signature and the
    /// analyzer runs param-sensitive, taint must reach a dangerous
    /// parameter through at least one tainted predecessor (one the sweep
    /// in `tainted` reached).
    fn sink_entry_is_dangerous(&self, sink: EventId, tainted: &SearchWorkspace) -> bool {
        if !self.options.param_sensitive {
            return true;
        }
        let Some(sig) = self.sink_sigs.get(&sink) else { return true };
        self.graph.predecessors(sink).iter().any(|&p| {
            // A sanitizer's output into the sink is clean even though the
            // sanitizer node itself was visited.
            if !tainted.is_seen(p) || self.roles(p).contains(Role::Sanitizer) {
                return false;
            }
            let pos = match self.graph.arg_position(p, sink) {
                Some(ArgPos::Positional(i)) => ArgRef::Positional(*i),
                Some(&ArgPos::Keyword(k)) => {
                    ArgRef::Keyword(self.graph.symbols().resolve(k).to_string())
                }
                Some(ArgPos::Receiver) => ArgRef::Receiver,
                None => ArgRef::Unknown,
            };
            sig.is_dangerous(&pos)
        })
    }

    /// The sweep's path from its source to `sink`, inclusive.
    fn path(ws: &SearchWorkspace, sink: EventId) -> Vec<EventId> {
        let mut path = vec![sink];
        let mut cur = sink;
        while let Some(p) = ws.parent(cur) {
            path.push(p);
            cur = p;
        }
        path.reverse();
        path
    }

    /// Whether flow exists from `source` to `sink` but every path is
    /// protected by a sanitizer.
    pub fn is_sanitized(&self, source: EventId, sink: EventId) -> bool {
        self.graph.is_reachable(source, sink)
            && !self.violations_from(source).iter().any(|v| v.sink == sink)
    }

    /// Counts of resolved (sources, sanitizers, sinks).
    pub fn role_counts(&self) -> (usize, usize, usize) {
        (
            self.events_with_role(Role::Source).len(),
            self.events_with_role(Role::Sanitizer).len(),
            self.events_with_role(Role::Sink).len(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seldon_propgraph::build_source;

    fn spec(text: &str) -> TaintSpec {
        TaintSpec::parse(text).unwrap()
    }

    fn analyze(src: &str, spec_text: &str) -> Vec<Violation> {
        let graph = build_source(src, FileId(0)).unwrap();
        let spec = spec(spec_text);
        let analyzer = TaintAnalyzer::new(&graph, &spec);
        analyzer.find_violations()
    }

    #[test]
    fn direct_flow_is_reported() {
        let v = analyze(
            "from flask import request\nimport os\nos.system(request.args.get('cmd'))\n",
            "o: flask.request.args.get()\ni: os.system()\n",
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].source_rep, "flask.request.args.get()");
        assert_eq!(v[0].sink_rep, "os.system()");
        assert!(v[0].path.len() >= 2);
    }

    #[test]
    fn sanitized_flow_is_not_reported() {
        let src = "
from flask import request
from werkzeug import secure_filename
import flask
name = secure_filename(request.args.get('f'))
flask.send_file(name)
";
        let v = analyze(
            src,
            "o: flask.request.args.get()\na: werkzeug.secure_filename()\ni: flask.send_file()\n",
        );
        assert!(v.is_empty(), "sanitizer must interrupt the flow: {v:?}");
    }

    #[test]
    fn missing_sanitizer_is_reported() {
        let src = "
from flask import request
import flask
name = request.args.get('f')
flask.send_file(name)
";
        let v = analyze(
            src,
            "o: flask.request.args.get()\na: werkzeug.secure_filename()\ni: flask.send_file()\n",
        );
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn one_unsanitized_path_suffices() {
        // Two paths: one sanitized, one not — still a violation.
        let src = "
from flask import request
from m import clean
import os
x = request.args.get('p')
y = clean(x)
os.system(x)
os.system(y)
";
        let v = analyze(
            src,
            "o: flask.request.args.get()\na: m.clean()\ni: os.system()\n",
        );
        assert_eq!(v.len(), 1, "only the direct call is vulnerable: {v:?}");
    }

    #[test]
    fn backoff_matching_uses_less_specific_spec_entries() {
        // Spec says `request.args.get()` (no flask prefix); the event's
        // backoff chain still matches it.
        let v = analyze(
            "from flask import request\nimport os\nos.system(request.args.get('x'))\n",
            "o: request.args.get()\ni: os.system()\n",
        );
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn candidate_filtering_blocks_read_sinks() {
        // A spec claiming an attribute read is a sink must be ignored
        // because reads are source-only candidates.
        let graph = build_source(
            "from flask import request\nx = request.args\n",
            FileId(0),
        )
        .unwrap();
        let s = spec("i: flask.request.args\n");
        let analyzer = TaintAnalyzer::new(&graph, &s);
        assert_eq!(analyzer.events_with_role(Role::Sink).len(), 0);
    }

    #[test]
    fn role_counts_and_sanitized_query() {
        let src = "
from flask import request
from m import clean
import os
x = clean(request.args.get('p'))
os.system(x)
";
        let graph = build_source(src, FileId(0)).unwrap();
        let s = spec("o: flask.request.args.get()\na: m.clean()\ni: os.system()\n");
        let a = TaintAnalyzer::new(&graph, &s);
        let (srcs, sans, snks) = a.role_counts();
        assert_eq!((srcs, sans, snks), (1, 1, 1));
        let source = a.events_with_role(Role::Source)[0];
        let sink = a.events_with_role(Role::Sink)[0];
        assert!(a.is_sanitized(source, sink));
        assert_eq!(a.matched_rep(source), Some("flask.request.args.get()"));
    }

    #[test]
    fn roles_and_matched_reps_are_empty_outside_the_graph() {
        let graph = build_source(
            "from flask import request\nimport os\nos.system(request.args.get('c'))\n",
            FileId(0),
        )
        .unwrap();
        let a = TaintAnalyzer::new(&graph, &spec("o: flask.request.args.get()\ni: os.system()\n"));
        assert_eq!(a.role_counts(), (1, 0, 1));
        let n = graph.event_count() as u32;
        for id in [EventId(n), EventId(n + 1), EventId(u32::MAX)] {
            assert_eq!(a.roles(id), RoleSet::EMPTY);
            assert_eq!(a.matched_rep(id), None);
        }
    }

    #[test]
    fn multiple_sinks_reported_separately() {
        let src = "
from flask import request
import os, subprocess
x = request.args.get('p')
os.system(x)
subprocess.call(x)
";
        let v = analyze(
            src,
            "o: flask.request.args.get()\ni: os.system()\ni: subprocess.call()\n",
        );
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn explicit_event_roles_merge() {
        let graph = build_source("from m import f, g\ng(f())\n", FileId(0)).unwrap();
        let f_id = graph
            .events()
            .find(|&(id, _)| graph.rep(id) == "m.f()")
            .map(|(id, _)| id)
            .unwrap();
        let g_id = graph
            .events()
            .find(|&(id, _)| graph.rep(id) == "m.g()")
            .map(|(id, _)| id)
            .unwrap();
        let mut roles = HashMap::new();
        roles.insert(f_id, RoleSet::only(Role::Source));
        roles.insert(g_id, RoleSet::only(Role::Sink));
        let a = TaintAnalyzer::with_event_roles(&graph, &TaintSpec::new(), &roles);
        assert_eq!(a.find_violations().len(), 1);
    }

    #[test]
    fn no_roles_no_violations() {
        let v = analyze("from m import f\nx = f()\n", "");
        assert!(v.is_empty());
    }

    #[test]
    fn param_sensitive_suppresses_wrong_parameter_flow() {
        use seldon_specs::SinkSignature;
        let src = "
from flask import request
import subprocess
x = request.args.get('p')
subprocess.call(['ls'], env=x)
";
        let graph = build_source(src, FileId(0)).unwrap();
        let mut s = spec("o: flask.request.args.get()\ni: subprocess.call()\n");
        // Without a signature the flow is reported.
        let a = TaintAnalyzer::with_options(
            &graph,
            &s,
            TaintOptions { param_sensitive: true },
        );
        assert_eq!(a.find_violations().len(), 1);
        // With `0` as the only dangerous position, the env= flow is benign.
        s.set_signature("subprocess.call()", SinkSignature::positional([0]));
        let a = TaintAnalyzer::with_options(
            &graph,
            &s,
            TaintOptions { param_sensitive: true },
        );
        assert!(a.find_violations().is_empty(), "env= flow must be suppressed");
        // Param-insensitive mode still reports it (paper baseline).
        let a = TaintAnalyzer::new(&graph, &s);
        assert_eq!(a.find_violations().len(), 1);
    }

    #[test]
    fn param_sensitive_keeps_dangerous_position() {
        use seldon_specs::SinkSignature;
        let src = "
from flask import request
import subprocess
x = request.args.get('p')
subprocess.call(x)
";
        let graph = build_source(src, FileId(0)).unwrap();
        let mut s = spec("o: flask.request.args.get()\ni: subprocess.call()\n");
        s.set_signature("subprocess.call()", SinkSignature::positional([0]));
        let a = TaintAnalyzer::with_options(
            &graph,
            &s,
            TaintOptions { param_sensitive: true },
        );
        assert_eq!(a.find_violations().len(), 1, "position 0 is dangerous");
    }

    #[test]
    fn param_sensitive_spec_text_round_trip() {
        let s = spec("i: subprocess.call()\np: subprocess.call() 0\n");
        assert!(s.signature("subprocess.call()").is_some());
        assert_eq!(s.signature_count(), 1);
    }

    #[test]
    fn paper_fig2_snippet_is_safe_with_seed_roles() {
        let src = r#"
from flask import request
from werkzeug import secure_filename
import os

def media():
    filename = request.files['f'].filename
    filename = secure_filename(filename)
    path = os.path.join(blog_dir, filename)
    if not os.path.exists(path):
        request.files['f'].save(path)
"#;
        let spec_text = "\
o: flask.request.files['f'].filename
a: werkzeug.secure_filename()
i: flask.request.files['f'].save()
";
        let v = analyze(src, spec_text);
        assert!(v.is_empty(), "Fig. 2 code is properly sanitized: {v:?}");
    }

    #[test]
    fn paper_fig2_without_sanitizer_is_vulnerable() {
        let src = r#"
from flask import request
import os

def media():
    filename = request.files['f'].filename
    path = os.path.join(blog_dir, filename)
    request.files['f'].save(path)
"#;
        let spec_text = "\
o: flask.request.files['f'].filename
a: werkzeug.secure_filename()
i: flask.request.files['f'].save()
";
        let v = analyze(src, spec_text);
        assert_eq!(v.len(), 1, "unsanitized upload must be flagged");
    }
}
