//! Quickstart: the paper's Fig. 2 walkthrough.
//!
//! Parses the Flask upload snippet from the paper, builds its propagation
//! graph, prints the events and flow edges, and runs the taint analyzer
//! twice — once on the sanitized original and once with the sanitizer
//! removed.
//!
//! Run with: `cargo run -p seldon-core --example quickstart`

use seldon_propgraph::{build_source, FileId};
use seldon_specs::TaintSpec;
use seldon_taint::TaintAnalyzer;

const SANITIZED: &str = r#"
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

const VULNERABLE: &str = r#"
from yak.web import app
from flask import request
import os

blog_dir = app.config['PATH']

@app.route('/media/', methods=['POST'])
def media():
    filename = request.files['f'].filename
    path = os.path.join(blog_dir, filename)
    request.files['f'].save(path)
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The taint specification for the snippet (Fig. 2's colors).
    let spec = TaintSpec::parse(
        "o: flask.request.files['f'].filename\n\
         a: werkzeug.secure_filename()\n\
         i: flask.request.files['f'].save()\n",
    )?;

    println!("=== Propagation graph of the paper's Fig. 2 snippet ===\n");
    let graph = build_source(SANITIZED, FileId(0))?;
    for (id, event) in graph.events() {
        println!("  {id}  [{}] {} (line {})", event.kind, graph.rep(id), event.span.line);
    }
    println!("\n  flow edges:");
    for (from, to) in graph.edges() {
        println!("    {} -> {}", graph.rep(from), graph.rep(to));
    }

    println!("\n=== Taint analysis, original (sanitized) snippet ===");
    let analyzer = TaintAnalyzer::new(&graph, &spec);
    let violations = analyzer.find_violations();
    println!("  violations: {}", violations.len());
    assert!(violations.is_empty(), "the original snippet is safe");

    println!("\n=== Taint analysis, sanitizer removed ===");
    let bad_graph = build_source(VULNERABLE, FileId(0))?;
    let analyzer = TaintAnalyzer::new(&bad_graph, &spec);
    let violations = analyzer.find_violations();
    for v in &violations {
        println!(
            "  VULNERABILITY: {} -> {} (path length {})",
            v.source_rep,
            v.sink_rep,
            v.path.len()
        );
    }
    assert_eq!(violations.len(), 1, "removing the sanitizer exposes the flaw");
    println!("\nDone: the paper's worked example reproduces.");
    Ok(())
}
