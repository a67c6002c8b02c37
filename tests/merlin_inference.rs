//! Integration tests comparing the Merlin baseline's three inference
//! algorithms (belief propagation, max-product, Gibbs sampling) on shared
//! propagation graphs, plus the §7.4 head-to-head against Seldon.

use seldon_core::{analyze_project, evaluate_spec, run_seldon, GroundTruth, SeldonOptions};
use seldon_corpus::{generate_corpus, CorpusOptions, Universe};
use seldon_merlin::{run_merlin, Inference, MerlinOptions};
use seldon_specs::Role;

fn setup() -> (Universe, seldon_corpus::Corpus) {
    let u = Universe::new();
    let c = generate_corpus(&u, &CorpusOptions { projects: 8, rng_seed: 99, ..Default::default() });
    (u, c)
}

#[test]
fn all_three_inference_algorithms_agree_on_strong_signals() {
    let (u, c) = setup();
    let analyzed = analyze_project(&c, 0).unwrap();
    let seed = u.seed_spec();
    let bp = run_merlin(&analyzed.graph, &seed, &MerlinOptions::default());
    let mp = run_merlin(
        &analyzed.graph,
        &seed,
        &MerlinOptions { inference: Inference::MaxProduct, ..Default::default() },
    );
    let gibbs = run_merlin(
        &analyzed.graph,
        &seed,
        &MerlinOptions {
            inference: Inference::Gibbs { burn_in: 200, seed: 3 },
            max_iters: 2000,
            ..Default::default()
        },
    );
    // All three must produce marginals for the same candidate set.
    assert_eq!(bp.candidates, mp.candidates);
    assert_eq!(bp.candidates, gibbs.candidates);
    assert_eq!(bp.factors, gibbs.factors);
    // Strong signals (pinned-adjacent) should agree in direction: compare
    // the top BP sanitizer's score across algorithms.
    if let Some(((rep, _), &p_bp)) = bp
        .marginals
        .iter()
        .filter(|((_, r), _)| *r == Role::Sanitizer)
        .max_by(|a, b| a.1.total_cmp(b.1))
    {
        if p_bp > 0.8 {
            let key = (rep.clone(), Role::Sanitizer);
            let p_mp = mp.marginals.get(&key).copied().unwrap_or(0.0);
            let p_g = gibbs.marginals.get(&key).copied().unwrap_or(0.0);
            assert!(p_mp > 0.5, "max-product disagrees on {rep}: {p_mp}");
            assert!(p_g > 0.4, "gibbs disagrees on {rep}: {p_g}");
        }
    }
}

#[test]
fn gibbs_is_deterministic_per_seed() {
    let (u, c) = setup();
    let analyzed = analyze_project(&c, 1).unwrap();
    let seed = u.seed_spec();
    let opts = |s: u64| MerlinOptions {
        inference: Inference::Gibbs { burn_in: 100, seed: s },
        max_iters: 500,
        ..Default::default()
    };
    let a = run_merlin(&analyzed.graph, &seed, &opts(7));
    let b = run_merlin(&analyzed.graph, &seed, &opts(7));
    assert_eq!(a.marginals, b.marginals, "same RNG seed ⇒ same marginals");
}

#[test]
fn seldon_beats_merlin_on_the_same_project() {
    // §7.4's qualitative claim, measured: Seldon's learned entries are at
    // least as precise as Merlin's equally-sized prediction set.
    let (u, c) = setup();
    let analyzed = analyze_project(&c, 2).unwrap();
    let seed = u.seed_spec();
    let truth = GroundTruth::new(&u, &c);

    let opts = SeldonOptions {
        gen: seldon_constraints::GenOptions { rep_cutoff: 2, ..Default::default() },
        ..Default::default()
    };
    let run = run_seldon(&analyzed.graph, &seed, &opts);
    let seldon_eval = evaluate_spec(&run.extraction.spec, &truth);

    let merlin = run_merlin(&analyzed.graph, &seed, &MerlinOptions::default());
    let n = seldon_eval.predicted().max(1);
    let mut merlin_preds = merlin.predictions(0.0, &seed);
    merlin_preds.truncate(n);
    let merlin_correct = merlin_preds
        .iter()
        .filter(|(rep, role, _)| truth.role_of(rep) == Some(*role))
        .count();
    let merlin_precision = merlin_correct as f64 / merlin_preds.len().max(1) as f64;
    assert!(
        seldon_eval.precision() >= merlin_precision - 1e-9,
        "Seldon {:.2} must not lose to Merlin {:.2} at equal prediction count",
        seldon_eval.precision(),
        merlin_precision
    );
}

#[test]
fn collapsed_inference_runs_on_multi_project_graph() {
    // Tab. 2's scalability shape on a mid-size union: completes and the
    // collapsed graph has more factors than the uncollapsed one.
    let (u, c) = setup();
    let mut graph = seldon_propgraph::PropagationGraph::new();
    for p in 0..4 {
        graph.union(&analyze_project(&c, p).unwrap().graph);
    }
    let seed = u.seed_spec();
    let fast = MerlinOptions { max_iters: 20, ..Default::default() };
    let collapsed = run_merlin(&graph, &seed, &MerlinOptions { collapsed: true, ..fast.clone() });
    let uncollapsed =
        run_merlin(&graph, &seed, &MerlinOptions { collapsed: false, ..fast });
    assert!(
        collapsed.factors >= uncollapsed.factors,
        "cross-project contraction inflates reachability: {} vs {}",
        collapsed.factors,
        uncollapsed.factors
    );
}
