//! End-to-end specification inference on a synthetic big-code corpus.
//!
//! Generates a corpus of web applications, runs the full Seldon pipeline
//! (parse → propagation graphs → linear constraints → projected Adam →
//! extraction), and prints the learned specification with its exact
//! precision against the corpus ground truth.
//!
//! Run with: `cargo run --release -p seldon-core --example spec_inference`

use seldon_core::{analyze_corpus, evaluate_spec, run_seldon, GroundTruth, SeldonOptions};
use seldon_corpus::{generate_corpus, CorpusOptions, Universe};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let universe = Universe::new();
    let corpus = generate_corpus(
        &universe,
        &CorpusOptions { projects: 120, ..Default::default() },
    );
    println!(
        "corpus: {} projects, {} files, {} known flows",
        corpus.projects.len(),
        corpus.file_count(),
        corpus.flows.len()
    );

    let analyzed = analyze_corpus(&corpus)?;
    println!(
        "global graph: {} events, {} edges (built in {:?})",
        analyzed.graph.event_count(),
        analyzed.graph.edge_count(),
        analyzed.build_time
    );

    let seed = universe.seed_spec();
    println!(
        "seed spec: {} roles, {} blacklist patterns",
        seed.role_count(),
        seed.blacklist_len()
    );

    let run = run_seldon(&analyzed.graph, &seed, &SeldonOptions::default());
    println!(
        "constraint system: {} variables, {} constraints, {} pinned (gen {:?}, solve {:?}, {} iterations)",
        run.system.var_count(),
        run.system.constraint_count(),
        run.system.pinned_count(),
        run.gen_time,
        run.solve_time,
        run.solution.iterations
    );

    let truth = GroundTruth::new(&universe, &corpus);
    let eval = evaluate_spec(&run.extraction.spec, &truth);
    println!("\nlearned specification ({} entries):", eval.predicted());
    for (rep, roles) in run.extraction.spec.iter() {
        let verdict = roles
            .iter()
            .map(|r| if truth.is_correct(rep, r) { "✓" } else { "✗" })
            .collect::<Vec<_>>()
            .join("");
        println!("  {verdict} {rep}: {roles}");
    }
    println!("\nprecision per role:");
    for (role, e) in &eval.by_role {
        println!(
            "  {role:<10} predicted {:>3}  correct {:>3}  precision {:>5.1}%",
            e.predicted,
            e.correct,
            e.precision() * 100.0
        );
    }
    println!(
        "  overall    predicted {:>3}  correct {:>3}  precision {:>5.1}%",
        eval.predicted(),
        eval.correct(),
        eval.precision() * 100.0
    );
    Ok(())
}
