//! Auditing a hand-written web application with seed and inferred specs.
//!
//! Mimics the paper's bug-finding client (§7.5 Q4/Q7): a small Flask blog
//! app with several intentional vulnerabilities is audited first with the
//! hand-written seed specification, then with a specification learned from
//! a corpus — showing the learned entries surface bugs the seed misses.
//!
//! Run with: `cargo run --release -p seldon-core --example webapp_audit`

use seldon_core::{analyze_corpus, run_seldon, SeldonOptions};
use seldon_corpus::{generate_corpus, CorpusOptions, Universe};
use seldon_propgraph::{build_source, FileId};
use seldon_taint::TaintAnalyzer;

/// The application under audit. `webresp.render_page`, `dblib.query.run`
/// and `htmlutils.sanitize` are third-party APIs absent from the seed spec.
const APP: &str = r#"
from flask import request
import flask
import webresp
import htmlutils
from dblib import query

@app.route('/search')
def search():
    term = request.args.get('q')
    return query.run("SELECT * FROM posts WHERE title LIKE '%" + term + "%'")

@app.route('/profile')
def profile():
    name = request.args.get('name')
    safe = htmlutils.sanitize(name)
    return webresp.render_page(safe)

@app.route('/greet')
def greet():
    who = request.args.get('who')
    return webresp.render_page(who)

@app.route('/legacy')
def legacy():
    target = request.args.get('next')
    return flask.redirect(target)
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let universe = Universe::new();
    let seed = universe.seed_spec();
    let graph = build_source(APP, FileId(0))?;

    println!("=== Audit with the seed specification only ===");
    let analyzer = TaintAnalyzer::new(&graph, &seed);
    let seed_reports = analyzer.find_violations();
    print_reports(&seed_reports, &graph);

    // Learn a specification from a corpus that uses the same libraries.
    println!("\n=== Learning specifications from a 120-project corpus ... ===");
    let corpus = generate_corpus(
        &universe,
        &CorpusOptions { projects: 120, ..Default::default() },
    );
    let analyzed = analyze_corpus(&corpus)?;
    let run = run_seldon(&analyzed.graph, &seed, &SeldonOptions::default());
    println!("learned {} new specification entries", run.extraction.spec.role_count());

    let mut combined = seed.clone();
    combined.merge(&run.extraction.spec);

    println!("\n=== Audit with seed + inferred specification ===");
    let analyzer = TaintAnalyzer::new(&graph, &combined);
    let full_reports = analyzer.find_violations();
    print_reports(&full_reports, &graph);

    let newly_found = full_reports.len() - seed_reports.len();
    println!(
        "\nThe inferred specification surfaced {newly_found} additional report(s) \
         (paper: 97% of reports were undetectable without inferred specs)."
    );
    assert!(full_reports.len() > seed_reports.len());
    Ok(())
}

fn print_reports(reports: &[seldon_taint::Violation], graph: &seldon_propgraph::PropagationGraph) {
    if reports.is_empty() {
        println!("  no violations found");
        return;
    }
    for v in reports {
        let sink_line = graph.event(v.sink).span.line;
        println!(
            "  line {:>3}: unsanitized flow {} -> {}",
            sink_line, v.source_rep, v.sink_rep
        );
    }
}
