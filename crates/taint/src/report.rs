//! Human-readable vulnerability reports, in the spirit of the paper's
//! production tool (the DeepCode bug detector of Fig. 1): each violation is
//! categorized by the vulnerability class its sink belongs to and rendered
//! with source locations.

use crate::Violation;
use seldon_propgraph::PropagationGraph;
use seldon_telemetry::json::Json;
use std::fmt;

/// A vulnerability class, determined from the sink API (App. B groups its
/// sink listing exactly this way).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum VulnClass {
    /// SQL injection.
    SqlInjection,
    /// Cross-site scripting.
    Xss,
    /// OS command injection.
    CommandInjection,
    /// Path traversal.
    PathTraversal,
    /// Open redirect.
    OpenRedirect,
    /// Code injection (eval/exec-like sinks).
    CodeInjection,
    /// Unrecognized sink family.
    Other,
}

impl VulnClass {
    /// Classifies a sink representation by API family, mirroring the
    /// grouping of the paper's App. B seed listing.
    pub fn of_sink(sink_rep: &str) -> VulnClass {
        let s = sink_rep.to_ascii_lowercase();
        if s.contains("execute") || s.contains("raw") || s.contains("sql") || s.contains("query")
        {
            VulnClass::SqlInjection
        } else if s.contains("system")
            || s.contains("popen")
            || s.contains("subprocess")
            || s.contains("spawn")
            || s.contains("command")
            || s.contains("shell")
        {
            VulnClass::CommandInjection
        } else if s.contains("redirect") {
            VulnClass::OpenRedirect
        } else if s.contains("send_file")
            || s.contains("send_from_directory")
            || s.contains("save")
            || s.contains("extract")
            || s.contains("file")
        {
            VulnClass::PathTraversal
        } else if s.contains("eval") || s.contains("exec() ") || s.ends_with("exec()") {
            VulnClass::CodeInjection
        } else if s.contains("response")
            || s.contains("render")
            || s.contains("markup")
            || s.contains("html")
            || s.contains("template")
            || s.contains("page")
            || s.contains("mail")
        {
            VulnClass::Xss
        } else {
            VulnClass::Other
        }
    }

    /// CWE-style severity rank for sorting reports (lower = more severe).
    pub fn severity_rank(self) -> u8 {
        match self {
            VulnClass::CommandInjection | VulnClass::CodeInjection => 0,
            VulnClass::SqlInjection => 1,
            VulnClass::PathTraversal => 2,
            VulnClass::Xss => 3,
            VulnClass::OpenRedirect => 4,
            VulnClass::Other => 5,
        }
    }
}

impl fmt::Display for VulnClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            VulnClass::SqlInjection => "SQL Injection",
            VulnClass::Xss => "Cross-Site Scripting",
            VulnClass::CommandInjection => "Command Injection",
            VulnClass::PathTraversal => "Path Traversal",
            VulnClass::OpenRedirect => "Open Redirect",
            VulnClass::CodeInjection => "Code Injection",
            VulnClass::Other => "Tainted Flow",
        };
        f.write_str(s)
    }
}

/// A rendered report: classification plus the path with line numbers.
#[derive(Debug, Clone)]
pub struct Report {
    /// The vulnerability class.
    pub class: VulnClass,
    /// Source representation and line.
    pub source: (String, u32),
    /// Sink representation and line.
    pub sink: (String, u32),
    /// Intermediate representations along the reported path.
    pub trace: Vec<(String, u32)>,
}

impl Report {
    /// Builds a report from a violation.
    pub fn from_violation(v: &Violation, graph: &PropagationGraph) -> Report {
        let line = |id: seldon_propgraph::EventId| graph.event(id).span.line;
        Report {
            class: VulnClass::of_sink(&v.sink_rep),
            source: (v.source_rep.clone(), line(v.source)),
            sink: (v.sink_rep.clone(), line(v.sink)),
            trace: v.path.iter().map(|&id| (graph.rep(id).to_string(), line(id))).collect(),
        }
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "[{}] line {}: {}", self.class, self.sink.1, self.sink.0)?;
        writeln!(f, "    tainted by {} (line {})", self.source.0, self.source.1)?;
        for (rep, line) in &self.trace {
            writeln!(f, "      via {rep} (line {line})")?;
        }
        Ok(())
    }
}

/// Renders reports as a compact JSON array, machine-readable for CI
/// integration.
pub fn reports_to_json(violations: &[Violation], graph: &PropagationGraph) -> String {
    let mut reports: Vec<Report> =
        violations.iter().map(|v| Report::from_violation(v, graph)).collect();
    reports.sort_by_key(|r| (r.class.severity_rank(), r.sink.1));
    let site = |api: &str, line: u32| {
        Json::Obj(vec![("api".into(), Json::str(api)), ("line".into(), Json::num(line.into()))])
    };
    let reports = reports
        .iter()
        .map(|r| {
            let trace = r.trace.iter().map(|(rep, line)| site(rep, *line)).collect();
            Json::Obj(vec![
                ("class".into(), Json::str(r.class.to_string())),
                ("source".into(), site(&r.source.0, r.source.1)),
                ("sink".into(), site(&r.sink.0, r.sink.1)),
                ("trace".into(), Json::Arr(trace)),
            ])
        })
        .collect();
    Json::Arr(reports).compact()
}

/// Renders a list of violations sorted by severity, then line.
pub fn render_reports(violations: &[Violation], graph: &PropagationGraph) -> String {
    let mut reports: Vec<Report> =
        violations.iter().map(|v| Report::from_violation(v, graph)).collect();
    reports.sort_by_key(|r| (r.class.severity_rank(), r.sink.1));
    let mut out = String::new();
    for r in &reports {
        out.push_str(&r.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TaintAnalyzer;
    use seldon_propgraph::{build_source, FileId};
    use seldon_specs::TaintSpec;

    #[test]
    fn sink_classification() {
        assert_eq!(VulnClass::of_sink("os.system()"), VulnClass::CommandInjection);
        assert_eq!(
            VulnClass::of_sink("dbapi.connect().cursor().execute()"),
            VulnClass::SqlInjection
        );
        assert_eq!(VulnClass::of_sink("flask.redirect()"), VulnClass::OpenRedirect);
        assert_eq!(VulnClass::of_sink("flask.send_file()"), VulnClass::PathTraversal);
        assert_eq!(VulnClass::of_sink("flask.make_response()"), VulnClass::Xss);
        assert_eq!(VulnClass::of_sink("mystery.api()"), VulnClass::Other);
    }

    #[test]
    fn severity_ordering() {
        assert!(VulnClass::CommandInjection.severity_rank() < VulnClass::Xss.severity_rank());
        assert!(VulnClass::SqlInjection.severity_rank() < VulnClass::OpenRedirect.severity_rank());
    }

    #[test]
    fn rendered_report_cites_lines() {
        let src = "from flask import request\nimport os\nx = request.args.get('c')\nos.system(x)\n";
        let graph = build_source(src, FileId(0)).unwrap();
        let spec =
            TaintSpec::parse("o: flask.request.args.get()\ni: os.system()\n").unwrap();
        let violations = TaintAnalyzer::new(&graph, &spec).find_violations();
        let text = render_reports(&violations, &graph);
        assert!(text.contains("[Command Injection]"), "{text}");
        assert!(text.contains("line 4"), "{text}");
        assert!(text.contains("tainted by flask.request.args.get() (line 3)"), "{text}");
    }

    #[test]
    fn json_output_is_well_formed() {
        let src = "from flask import request\nimport os\nx = request.args.get('c \\\"quoted\\\"')\nos.system(x)\n";
        let graph = build_source(src, FileId(0)).unwrap();
        let spec =
            TaintSpec::parse("o: flask.request.args.get()\ni: os.system()\n").unwrap();
        let violations = TaintAnalyzer::new(&graph, &spec).find_violations();
        let json = reports_to_json(&violations, &graph);
        assert!(json.starts_with('[') && json.ends_with(']'), "{json}");
        assert!(json.contains("\"class\":\"Command Injection\""), "{json}");
        assert!(json.contains("\"line\":4"), "{json}");
        // Quotes in representations are escaped.
        assert!(!json.contains("c \"quoted"), "{json}");
        // Balanced braces/brackets (cheap well-formedness check).
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn json_empty_reports() {
        let graph = build_source("x = 1\n", FileId(0)).unwrap();
        assert_eq!(reports_to_json(&[], &graph), "[]");
    }

    #[test]
    fn reports_sorted_by_severity() {
        let src = "
from flask import request
import flask, os
x = request.args.get('c')
flask.redirect(x)
os.system(x)
";
        let graph = build_source(src, FileId(0)).unwrap();
        let spec = TaintSpec::parse(
            "o: flask.request.args.get()\ni: os.system()\ni: flask.redirect()\n",
        )
        .unwrap();
        let violations = TaintAnalyzer::new(&graph, &spec).find_violations();
        let text = render_reports(&violations, &graph);
        let cmd = text.find("[Command Injection]").expect("cmd report");
        let redir = text.find("[Open Redirect]").expect("redirect report");
        assert!(cmd < redir, "command injection must sort first:\n{text}");
    }
}
