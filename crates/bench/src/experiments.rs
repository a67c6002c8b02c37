//! The experiment suite: one function per table/figure of the paper's
//! evaluation (§7). Each returns a rendered [`Table`] so the `tables`
//! binary and EXPERIMENTS.md stay in sync.

use crate::table::{dur, pct, Table};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use seldon_core::{
    analyze_corpus, analyze_project, classify_all, evaluate_spec, run_seldon, AnalyzedCorpus,
    GroundTruth, ReportClass, SeldonOptions,
};
use seldon_corpus::{generate_corpus, Corpus, CorpusOptions, Universe};
use seldon_merlin::{run_merlin, MerlinOptions};
use seldon_solver::ExtractOptions;
use seldon_specs::{Role, TaintSpec};
use seldon_taint::TaintAnalyzer;
use std::time::Instant;

/// Experiment-wide configuration.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Number of corpus projects for the main experiments.
    pub projects: usize,
    /// Corpus RNG seed.
    pub rng_seed: u64,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig { projects: 400, rng_seed: 0xC0FFEE }
    }
}

/// Shared state between experiments: corpus, graph, ground truth, and one
/// full Seldon run.
pub struct Workbench {
    /// The API universe.
    pub universe: Universe,
    /// The generated corpus.
    pub corpus: Corpus,
    /// Parsed corpus with the global propagation graph.
    pub analyzed: AnalyzedCorpus,
    /// Exact ground truth.
    pub truth: GroundTruth,
    /// The seed specification.
    pub seed: TaintSpec,
    /// One full Seldon run over the corpus.
    pub run: seldon_core::SeldonRun,
}

impl Workbench {
    /// Builds the shared state (generates, parses, learns).
    pub fn new(cfg: &ExperimentConfig) -> Self {
        let universe = Universe::new();
        let corpus = generate_corpus(
            &universe,
            &CorpusOptions { projects: cfg.projects, rng_seed: cfg.rng_seed, ..Default::default() },
        );
        let analyzed = analyze_corpus(&corpus).expect("corpus parses");
        let truth = GroundTruth::new(&universe, &corpus);
        let seed = universe.seed_spec();
        let run = run_seldon(&analyzed.graph, &seed, &SeldonOptions::default());
        Workbench { universe, corpus, analyzed, truth, seed, run }
    }
}

/// Tab. 1: statistics of the analyzed corpus.
pub fn table1(wb: &Workbench) -> Table {
    let avg_backoff = {
        let total: usize = wb.run.system.candidates().map(|(_, r)| r.len()).sum();
        total as f64 / wb.run.candidate_count().max(1) as f64
    };
    let mut t = Table::new(
        "Table 1: Statistics on the applications in our evaluation",
        &["Statistic", "Value", "Paper"],
    );
    t.row(&[
        "# Candidates".into(),
        wb.run.candidate_count().to_string(),
        "210 864".into(),
    ]);
    t.row(&[
        "Average # backoff options per event".into(),
        format!("{avg_backoff:.2}"),
        "1.73".into(),
    ]);
    t.row(&[
        "# Constraints".into(),
        wb.run.system.constraint_count().to_string(),
        "504 982".into(),
    ]);
    t.row(&["# Source files".into(), wb.corpus.file_count().to_string(), "44 250".into()]);
    t.note("Paper column: absolute values from the GitHub corpus; ours is the synthetic corpus (shape, not magnitude, is comparable).");
    t
}

fn merlin_row(
    t: &mut Table,
    label: &str,
    graph: &seldon_propgraph::PropagationGraph,
    lines: usize,
    seed: &TaintSpec,
    collapsed: bool,
) {
    let res = run_merlin(
        graph,
        seed,
        &MerlinOptions { collapsed, max_iters: 60, ..Default::default() },
    );
    let (s, a, k) = res.candidates;
    t.row(&[
        label.into(),
        lines.to_string(),
        if collapsed { "Collapsed" } else { "Uncollapsed" }.into(),
        format!("{s}/{a}/{k}"),
        res.factors.to_string(),
        dur(res.inference_time),
    ]);
}

/// Tab. 2: Merlin scalability on a small and a large application.
pub fn table2(wb: &Workbench) -> Table {
    let mut t = Table::new(
        "Table 2: Statistics on specification learning with Merlin",
        &["Repository", "Lines", "Graph type", "Candidates (src/san/sink)", "Factors", "Inference time"],
    );
    let small = analyze_project(&wb.corpus, 0).expect("project 0");
    let small_lines: usize = wb.corpus.projects[0]
        .files
        .iter()
        .map(|f| f.content.lines().count())
        .sum();
    // A "large" application: union of the first 12 projects.
    let mut large = seldon_propgraph::PropagationGraph::new();
    let mut large_lines = 0usize;
    for p in 0..12.min(wb.corpus.projects.len()) {
        let a = analyze_project(&wb.corpus, p).expect("project");
        large.union(&a.graph);
        large_lines += wb.corpus.projects[p]
            .files
            .iter()
            .map(|f| f.content.lines().count())
            .sum::<usize>();
    }
    merlin_row(&mut t, "small app", &small.graph, small_lines, &wb.seed, true);
    merlin_row(&mut t, "small app", &small.graph, small_lines, &wb.seed, false);
    merlin_row(&mut t, "large app", &large, large_lines, &wb.seed, true);
    merlin_row(&mut t, "large app", &large, large_lines, &wb.seed, false);
    t.note("Paper: Flask API (2 128 lines, minutes) vs Flask-Admin (23 103 lines, > 10 h timeout).");
    t.note("Shape check: Merlin's factor count and inference time grow super-linearly with application size.");
    t
}

fn merlin_precision_rows(
    t: &mut Table,
    wb: &Workbench,
    preds: &[(String, Role, f64)],
    graph_kind: &str,
) {
    for role in Role::ALL {
        let of_role: Vec<&(String, Role, f64)> =
            preds.iter().filter(|(_, r, _)| *r == role).collect();
        let correct = of_role
            .iter()
            .filter(|(rep, r, _)| wb.truth.role_of(rep) == Some(*r))
            .count();
        let n = of_role.len();
        let prec = if n == 0 { 0.0 } else { correct as f64 / n as f64 };
        t.row(&[
            graph_kind.into(),
            format!("{role}s"),
            n.to_string(),
            pct(prec),
        ]);
    }
}

/// Tab. 3: Merlin precision at 95% confidence.
pub fn table3(wb: &Workbench) -> Table {
    let mut t = Table::new(
        "Table 3: Merlin on a small app, roles selected at 95% confidence",
        &["Graph", "Role", "Number", "Precision"],
    );
    let small = analyze_project(&wb.corpus, 0).expect("project 0");
    for collapsed in [true, false] {
        let res = run_merlin(
            &small.graph,
            &wb.seed,
            &MerlinOptions { collapsed, max_iters: 60, ..Default::default() },
        );
        let preds = res.predictions(0.95, &wb.seed);
        merlin_precision_rows(&mut t, wb, &preds, if collapsed { "Collapsed" } else { "Uncollapsed" });
    }
    t.note("Paper: 27% (collapsed) / 23% (uncollapsed) overall precision — Merlin is overconfident but imprecise.");
    t
}

/// Tab. 4: Merlin precision of the top-5 predictions per role.
pub fn table4(wb: &Workbench) -> Table {
    let mut t = Table::new(
        "Table 4: Merlin on a small app, top-5 predictions per role",
        &["Graph", "Role", "Number", "Precision"],
    );
    let small = analyze_project(&wb.corpus, 0).expect("project 0");
    for collapsed in [true, false] {
        let res = run_merlin(
            &small.graph,
            &wb.seed,
            &MerlinOptions { collapsed, max_iters: 60, ..Default::default() },
        );
        let kind = if collapsed { "Collapsed" } else { "Uncollapsed" };
        for role in Role::ALL {
            let top = res.top_n(5, role, &wb.seed);
            let correct = top
                .iter()
                .filter(|(rep, _)| wb.truth.role_of(rep) == Some(role))
                .count();
            let prec = if top.is_empty() { 0.0 } else { correct as f64 / top.len() as f64 };
            t.row(&[kind.into(), format!("{role}s"), top.len().to_string(), pct(prec)]);
        }
    }
    t.note("Paper: 20% overall for both graph types.");
    t
}

/// Tab. 5: count and estimated precision of Seldon's predictions.
pub fn table5(wb: &Workbench) -> Table {
    let mut t = Table::new(
        "Table 5: Count and precision of candidates predicted by Seldon",
        &["Role", "# Predicted / # Candidates", "Fraction", "Precision", "Paper precision"],
    );
    let eval = evaluate_spec(&wb.run.extraction.spec, &wb.truth);
    let candidates = wb.run.candidate_count();
    let paper = [("Sources", "72.0%"), ("Sanitizers", "58.0%"), ("Sinks", "56.0%")];
    for (i, role) in Role::ALL.into_iter().enumerate() {
        let e = eval.by_role.get(&role).copied().unwrap_or_default();
        t.row(&[
            format!("{role}s"),
            format!("{} / {}", e.predicted, candidates),
            pct(e.predicted as f64 / candidates.max(1) as f64),
            pct(e.precision()),
            paper[i].1.into(),
        ]);
    }
    t.row(&[
        "Any".into(),
        format!("{} / {}", eval.predicted(), candidates),
        pct(eval.predicted() as f64 / candidates.max(1) as f64),
        pct(eval.precision()),
        "66.6%".into(),
    ]);
    t
}

/// Fig. 10: Seldon inference time as a function of the number of files.
pub fn fig10(cfg: &ExperimentConfig) -> Table {
    let mut t = Table::new(
        "Figure 10: Seldon inference time vs number of analyzed files",
        &["Projects", "Files", "Constraints", "Graph time", "Gen+solve time", "ns/file"],
    );
    let universe = Universe::new();
    let mut last: Option<(usize, f64)> = None;
    let mut ratios = Vec::new();
    for scale in [1usize, 2, 4, 8] {
        let projects = (cfg.projects / 8).max(10) * scale;
        let corpus = generate_corpus(
            &universe,
            &CorpusOptions { projects, rng_seed: cfg.rng_seed, ..Default::default() },
        );
        let analyzed = analyze_corpus(&corpus).expect("parses");
        let started = Instant::now();
        let run = run_seldon(&analyzed.graph, &universe.seed_spec(), &SeldonOptions::default());
        let infer = started.elapsed();
        let files = corpus.file_count();
        let per_file = infer.as_nanos() as f64 / files as f64;
        if let Some((_, prev)) = last {
            ratios.push(per_file / prev);
        }
        last = Some((files, per_file));
        t.row(&[
            projects.to_string(),
            files.to_string(),
            run.system.constraint_count().to_string(),
            dur(analyzed.build_time),
            dur(infer),
            format!("{per_file:.0}"),
        ]);
    }
    let max_ratio = ratios.iter().cloned().fold(0.0f64, f64::max);
    t.note(format!(
        "Per-file cost ratio between consecutive doublings: max {max_ratio:.2} (≈ constant ⇒ linear scaling, as in the paper's Fig. 10)."
    ));
    t
}

/// Fig. 11: sampled candidate scores and cumulative precision per role.
pub fn fig11(wb: &Workbench) -> Table {
    let mut t = Table::new(
        "Figure 11: predicted-score vs cumulative precision (top candidates per role)",
        &["Role", "Rank", "Score", "Candidate", "Correct", "Cumulative precision"],
    );
    // Sample below the selection threshold too (the paper examines all
    // candidates with score above 0.1, sorted), so the precision decay at
    // low scores is visible.
    let sampling = seldon_solver::extract(
        &wb.run.system,
        &wb.run.solution,
        &ExtractOptions { thresholds: [0.08; 3], ..Default::default() },
    );
    for role in Role::ALL {
        let mut scored: Vec<(&(seldon_constraints::RepId, Role), &f64)> = sampling
            .scores
            .iter()
            .filter(|((_, r), _)| *r == role)
            .collect();
        // Tie-break on the resolved text, not the symbol handle, so ranking
        // stays lexicographic regardless of interning order.
        let text = |rep| wb.run.system.rep_text(rep);
        scored.sort_by(|a, b| b.1.total_cmp(a.1).then_with(|| text(a.0 .0).cmp(text(b.0 .0))));
        let mut correct = 0usize;
        for (rank, ((rep, _), score)) in scored.iter().take(50).enumerate() {
            let ok = wb.truth.role_of(text(*rep)) == Some(role);
            if ok {
                correct += 1;
            }
            t.row(&[
                format!("{role}"),
                (rank + 1).to_string(),
                format!("{score:.3}"),
                text(*rep).to_string(),
                if ok { "yes" } else { "no" }.into(),
                pct(correct as f64 / (rank + 1) as f64),
            ]);
        }
    }
    t.note("Paper Fig. 11: most scores sit around 0.5; precision falls as score falls.");
    t
}

/// Report classification for one spec (shared by Tab. 6 / Tab. 7).
fn classify_with_spec(
    wb: &Workbench,
    spec: &TaintSpec,
) -> (Vec<seldon_taint::Violation>, Vec<ReportClass>, seldon_core::ReportSummary) {
    let analyzer = TaintAnalyzer::new(&wb.analyzed.graph, spec);
    let violations = analyzer.find_violations();
    let (classes, summary) = classify_all(&violations, &wb.analyzed, &wb.corpus, &wb.truth);
    (violations, classes, summary)
}

/// A spec combining the seed with Seldon's learned entries.
pub fn combined_spec(wb: &Workbench) -> TaintSpec {
    let mut spec = wb.seed.clone();
    spec.merge(&wb.run.extraction.spec);
    spec
}

/// Tab. 6: classification of 25 sampled reports, seed vs inferred spec.
pub fn table6(wb: &Workbench) -> Table {
    let mut t = Table::new(
        "Table 6: classification of 25 sampled reports (seed vs inferred spec)",
        &["Reason", "Seed spec", "Inferred spec", "Paper (seed)", "Paper (inferred)"],
    );
    let sample_classes = |spec: &TaintSpec| -> Vec<ReportClass> {
        let (violations, classes, _) = classify_with_spec(wb, spec);
        let mut idx: Vec<usize> = (0..violations.len()).collect();
        let mut rng = SmallRng::seed_from_u64(25);
        idx.shuffle(&mut rng);
        idx.into_iter().take(25).map(|i| classes[i]).collect()
    };
    let seed_sample = sample_classes(&wb.seed);
    let inferred_sample = sample_classes(&combined_spec(wb));
    let paper = [
        ("True vulnerabilities", "24%", "28%"),
        ("Vulnerable flow, but no bug", "28%", "12%"),
        ("Incorrect sink", "0%", "24%"),
        ("Incorrect source", "0%", "8%"),
        ("Incorrect source and sink", "0%", "8%"),
        ("Missing sanitizer", "40%", "8%"),
        ("Flows into wrong parameter", "8%", "12%"),
    ];
    for (i, class) in ReportClass::ALL.into_iter().enumerate() {
        let f = |sample: &[ReportClass]| {
            let n = sample.iter().filter(|c| **c == class).count();
            pct(n as f64 / sample.len().max(1) as f64)
        };
        t.row(&[
            class.to_string(),
            f(&seed_sample),
            f(&inferred_sample),
            paper[i].1.into(),
            paper[i].2.into(),
        ]);
    }
    t.note(format!(
        "Sample sizes: seed {} of its reports, inferred {} (25 each when available).",
        seed_sample.len(),
        inferred_sample.len()
    ));
    t
}

/// Tab. 7: total reports, projects affected, and estimated vulnerabilities.
pub fn table7(wb: &Workbench) -> Table {
    let mut t = Table::new(
        "Table 7: total reports and estimated vulnerabilities",
        &["Metric", "Seed spec", "Inferred spec", "Paper (seed)", "Paper (inferred)"],
    );
    let (seed_v, _, seed_sum) = classify_with_spec(wb, &wb.seed);
    let (inf_v, _, inf_sum) = classify_with_spec(wb, &combined_spec(wb));
    t.row(&[
        "Number of reports".into(),
        seed_v.len().to_string(),
        inf_v.len().to_string(),
        "662".into(),
        "21 318".into(),
    ]);
    t.row(&[
        "Number of projects affected".into(),
        seed_sum.projects_affected.to_string(),
        inf_sum.projects_affected.to_string(),
        "192".into(),
        "2 409".into(),
    ]);
    t.row(&[
        "Estimated true vulnerabilities".into(),
        seed_sum.estimate_true_vulnerabilities(seed_v.len()).to_string(),
        inf_sum.estimate_true_vulnerabilities(inf_v.len()).to_string(),
        "159".into(),
        "5 969".into(),
    ]);
    let seed_only = seed_v.len().max(1);
    t.note(format!(
        "Report multiplier from inferred specs: {:.1}x (paper: 32x reports, ~37x estimated vulnerabilities).",
        inf_v.len() as f64 / seed_only as f64
    ));
    t
}

/// Q5: learning per project vs learning on the whole corpus.
pub fn q5(wb: &Workbench) -> Table {
    let mut t = Table::new(
        "Q5: single-project vs big-code learning (3 random projects)",
        &["Project", "Individual precision", "Projected-global precision", "New true roles from global"],
    );
    let mut rng = SmallRng::seed_from_u64(5);
    let mut picks: Vec<usize> = (0..wb.corpus.projects.len()).collect();
    picks.shuffle(&mut rng);
    let mut ind_sum = 0.0;
    let mut glob_sum = 0.0;
    let mut new_roles_total = 0usize;
    let n = 3.min(picks.len());
    for &p in picks.iter().take(n) {
        let analyzed = analyze_project(&wb.corpus, p).expect("project");
        // Individual learning needs a lower frequency cutoff: a single
        // project cannot reach the global cutoff of 5 occurrences.
        let opts = SeldonOptions {
            gen: seldon_constraints::GenOptions { rep_cutoff: 2, ..Default::default() },
            ..Default::default()
        };
        let run = run_seldon(&analyzed.graph, &wb.seed, &opts);
        let ind_eval = evaluate_spec(&run.extraction.spec, &wb.truth);

        // The global spec projected to representations occurring in the
        // project's graph.
        let mut projected = TaintSpec::new();
        let project_reps: std::collections::HashSet<&str> = analyzed
            .graph
            .events()
            .flat_map(|(_, e)| e.reps.iter().map(|&r| analyzed.graph.symbols().resolve(r)))
            .collect();
        for (rep, roles) in wb.run.extraction.spec.iter() {
            if project_reps.contains(rep) {
                projected.add_set(rep, roles);
            }
        }
        let glob_eval = evaluate_spec(&projected, &wb.truth);
        let new_true: usize = projected
            .iter()
            .flat_map(|(rep, roles)| {
                roles
                    .iter()
                    .filter(|r| {
                        wb.truth.is_correct(rep, *r)
                            && !run.extraction.spec.has_role(rep, *r)
                    })
                    .collect::<Vec<_>>()
            })
            .count();
        ind_sum += ind_eval.precision();
        glob_sum += glob_eval.precision();
        new_roles_total += new_true;
        t.row(&[
            wb.corpus.projects[p].name.clone(),
            pct(ind_eval.precision()),
            pct(glob_eval.precision()),
            new_true.to_string(),
        ]);
    }
    t.row(&[
        "average".into(),
        pct(ind_sum / n as f64),
        pct(glob_sum / n as f64),
        new_roles_total.to_string(),
    ]);
    t.note("Paper: 45% individual → 65% with the projection of the global spec, plus 18 new true roles.");
    t
}

/// Q6: impact of the seed specification size.
pub fn q6(wb: &Workbench) -> Table {
    let mut t = Table::new(
        "Q6: impact of the seed specification",
        &["Seed", "Entries", "# Learned", "# Learned beyond seed APIs", "Precision"],
    );
    let universe = &wb.universe;
    let mut run_with = |label: &str, seed: &TaintSpec| {
        let run = run_seldon(&wb.analyzed.graph, seed, &SeldonOptions::default());
        let eval = evaluate_spec(&run.extraction.spec, &wb.truth);
        // Entries that are not (re-learned) seed APIs: genuinely new
        // knowledge, comparable across seed sizes.
        let beyond: usize = run
            .extraction
            .spec
            .iter()
            .filter(|(rep, _)| !universe.is_seed_rep(rep))
            .map(|(_, roles)| roles.len())
            .sum();
        t.row(&[
            label.into(),
            seed.role_count().to_string(),
            eval.predicted().to_string(),
            beyond.to_string(),
            pct(eval.precision()),
        ]);
        eval
    };
    let full = run_with("full seed", &wb.seed);
    let half = run_with("half seed (every other entry)", &wb.universe.half_seed_spec());
    let empty = run_with("empty seed", &TaintSpec::new());
    let drop = (full.precision() - half.precision()) * 100.0;
    t.note(format!(
        "Half seed precision drop: {drop:.1} points (paper: 14 points). Empty seed learns {} specs (paper: 0).",
        empty.predicted()
    ));
    t
}

/// Ablations over the constants C and λ (§4.2, §4.4 claims).
pub fn ablations(wb: &Workbench) -> Table {
    let mut t = Table::new(
        "Ablations: implication constant C and L1 weight λ",
        &["Setting", "# Learned", "Precision"],
    );
    for (label, c, lambda) in [
        ("C=0.75, λ=0.1 (paper)", 0.75, 0.1),
        ("C=1.00, λ=0.1", 1.0, 0.1),
        ("C=0.75, λ=0.01", 0.75, 0.01),
        ("C=0.75, λ=1.0", 0.75, 1.0),
    ] {
        let opts = SeldonOptions {
            gen: seldon_constraints::GenOptions { c, ..Default::default() },
            solve: seldon_solver::SolveOptions { lambda, ..Default::default() },
            extract: ExtractOptions::default(),
            ..Default::default()
        };
        let run = run_seldon(&wb.analyzed.graph, &wb.seed, &opts);
        let eval = evaluate_spec(&run.extraction.spec, &wb.truth);
        t.row(&[label.into(), eval.predicted().to_string(), pct(eval.precision())]);
    }
    t.note("Paper: C=0.75 performs significantly better than C=1; dividing λ by 10 roughly doubles the number of inferred specifications.");
    t
}

/// Extension (paper §3.3 future work): parameter-sensitive sinks remove
/// the "flows into wrong parameter" false positives without losing true
/// vulnerabilities.
pub fn extension_param(wb: &Workbench) -> Table {
    use seldon_taint::TaintOptions;
    let mut t = Table::new(
        "Extension: parameter-sensitive sinks (§3.3 future work, implemented)",
        &["Analyzer", "Reports", "True vulns", "Wrong parameter", "Missing sanitizer"],
    );
    let mut spec = wb.universe.seed_spec_with_signatures();
    spec.merge(&wb.run.extraction.spec);
    for (label, sensitive) in [("baseline (paper)", false), ("param-sensitive", true)] {
        let analyzer = TaintAnalyzer::with_options(
            &wb.analyzed.graph,
            &spec,
            TaintOptions { param_sensitive: sensitive },
        );
        let violations = analyzer.find_violations();
        let (_, summary) = classify_all(&violations, &wb.analyzed, &wb.corpus, &wb.truth);
        t.row(&[
            label.into(),
            violations.len().to_string(),
            summary
                .counts
                .get(&ReportClass::TrueVulnerability)
                .copied()
                .unwrap_or(0)
                .to_string(),
            summary
                .counts
                .get(&ReportClass::WrongParameter)
                .copied()
                .unwrap_or(0)
                .to_string(),
            summary
                .counts
                .get(&ReportClass::MissingSanitizer)
                .copied()
                .unwrap_or(0)
                .to_string(),
        ]);
    }
    t.note("Signatures declare the dangerous argument positions of three sinks; taint reaching only harmless parameters (subprocess.call(env=…), send_file(download_name=…)) is no longer reported.");
    t
}

/// Solver convergence: objective milestones of the projected-Adam run
/// (the paper reports < 5 h for 800 k files; here the interest is the
/// shape — a fast drop and a long plateau).
pub fn convergence(wb: &Workbench) -> Table {
    let mut t = Table::new(
        "Solver convergence: objective over projected-Adam iterations",
        &["Iteration", "Objective", "Fraction of initial"],
    );
    let h = &wb.run.solution.history;
    if h.is_empty() {
        return t;
    }
    let first = h[0].max(1e-12);
    let mut marks: Vec<usize> = vec![0, 1, 2, 5, 10, 20, 50, 100, 200, 400];
    marks.push(h.len() - 1);
    marks.dedup();
    for &i in marks.iter().filter(|&&i| i < h.len()) {
        t.row(&[
            i.to_string(),
            format!("{:.2}", h[i]),
            pct(h[i] / first),
        ]);
    }
    t.note(format!(
        "Converged after {} iterations (early-stop window 50; final violation {:.2}).",
        wb.run.solution.iterations, wb.run.solution.violation
    ));
    t
}

/// Constraint-template ablation: learn with each Fig. 4 rule disabled in
/// turn, measuring which template contributes which role.
pub fn template_ablation(wb: &Workbench) -> Table {
    let mut t = Table::new(
        "Ablation: Fig. 4 constraint templates",
        &["Templates", "# Constraints", "Sources", "Sanitizers", "Sinks", "Precision"],
    );
    let configs: [(&str, [bool; 3]); 5] = [
        ("4a + 4b + 4c (paper)", [true, true, true]),
        ("without 4a", [false, true, true]),
        ("without 4b", [true, false, true]),
        ("without 4c", [true, true, false]),
        ("only 4c", [false, false, true]),
    ];
    for (label, templates) in configs {
        let opts = SeldonOptions {
            gen: seldon_constraints::GenOptions { templates, ..Default::default() },
            ..Default::default()
        };
        let run = run_seldon(&wb.analyzed.graph, &wb.seed, &opts);
        let eval = evaluate_spec(&run.extraction.spec, &wb.truth);
        let per = |role: Role| {
            eval.by_role
                .get(&role)
                .map(|e| format!("{}", e.predicted))
                .unwrap_or_else(|| "0".into())
        };
        t.row(&[
            label.into(),
            run.system.constraint_count().to_string(),
            per(Role::Source),
            per(Role::Sanitizer),
            per(Role::Sink),
            pct(eval.precision()),
        ]);
    }
    t.note("4a drives source learning, 4b drives sinks, 4c drives sanitizers — disabling a template collapses its role's predictions.");
    t
}

/// Backoff ablation (§4.3): learning with the full backoff chain vs only
/// the most specific representation per event.
pub fn backoff_ablation(wb: &Workbench) -> Table {
    let mut t = Table::new(
        "Ablation: representation backoff (§4.3)",
        &["Backoff", "Candidates", "# Learned", "Param-anchored entries", "Precision"],
    );
    for (label, max_backoff) in
        [("full chain (paper)", usize::MAX), ("two options", 2), ("most specific only", 1)]
    {
        let opts = SeldonOptions {
            gen: seldon_constraints::GenOptions { max_backoff, ..Default::default() },
            ..Default::default()
        };
        let run = run_seldon(&wb.analyzed.graph, &wb.seed, &opts);
        let eval = evaluate_spec(&run.extraction.spec, &wb.truth);
        // Entries of the Django-style family, which only exists through
        // backoff: a view parameter anchors every representation, so the
        // shareable forms are suffixes.
        let param_family = run
            .extraction
            .spec
            .iter()
            .filter(|(rep, _)| rep.contains("(param ") || rep.starts_with("request."))
            .count();
        t.row(&[
            label.into(),
            run.candidate_count().to_string(),
            eval.predicted().to_string(),
            param_family.to_string(),
            pct(eval.precision()),
        ]);
    }
    t.note("Import-resolved APIs are learnable even without backoff (their most specific representation is already shared corpus-wide). The Django-style family is not: view-parameter-anchored events are unique per handler, so without suffix backoff they fall under the frequency cutoff and the whole `request.*` family vanishes from the learned spec — §4.3's motivation, isolated.");
    t
}

/// Solver validation: projected Adam vs the exact LP optimum (simplex) on
/// small single-project systems, measuring the optimality gap.
pub fn solver_gap(wb: &Workbench) -> Table {
    let mut t = Table::new(
        "Solver validation: projected Adam vs exact LP (two-phase simplex)",
        &["Project", "Vars", "Constraints", "Exact objective", "Adam objective", "Gap"],
    );
    let mut shown = 0usize;
    for p in 0..wb.corpus.projects.len() {
        if shown >= 4 {
            break;
        }
        let analyzed = analyze_project(&wb.corpus, p).expect("project");
        let gen = seldon_constraints::GenOptions { rep_cutoff: 2, ..Default::default() };
        let sys = seldon_constraints::generate(&analyzed.graph, &wb.seed, &gen);
        if sys.var_count() == 0 || sys.constraint_count() == 0 {
            continue;
        }
        let Some(exact) = seldon_solver::solve_exact(&sys, 0.1, 3000) else { continue };
        let approx = seldon_solver::solve(
            &sys,
            &seldon_solver::SolveOptions { max_iters: 3000, ..Default::default() },
        );
        let gap = approx.objective - exact.objective;
        t.row(&[
            wb.corpus.projects[p].name.clone(),
            sys.var_count().to_string(),
            sys.constraint_count().to_string(),
            format!("{:.4}", exact.objective),
            format!("{:.4}", approx.objective),
            format!("{:+.4}", gap),
        ]);
        shown += 1;
    }
    t.note("The paper solves the relaxation approximately (TensorFlow Adam); the simplex gives the exact optimum. Small gaps validate the approximate solver.");
    t
}

/// Runs every experiment and concatenates the rendered tables.
pub fn run_all(cfg: &ExperimentConfig) -> String {
    let wb = Workbench::new(cfg);
    let mut out = String::new();
    for table in [
        table1(&wb),
        table2(&wb),
        table3(&wb),
        table4(&wb),
        table5(&wb),
        fig10(cfg),
        fig11(&wb),
        table6(&wb),
        table7(&wb),
        q5(&wb),
        q6(&wb),
        ablations(&wb),
        extension_param(&wb),
        template_ablation(&wb),
        backoff_ablation(&wb),
        convergence(&wb),
        solver_gap(&wb),
    ] {
        out.push_str(&table.render());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> ExperimentConfig {
        ExperimentConfig { projects: 30, rng_seed: 7 }
    }

    #[test]
    fn table1_reports_candidates() {
        let wb = Workbench::new(&small_cfg());
        let t = table1(&wb);
        assert_eq!(t.rows.len(), 4);
        let candidates: usize = t.rows[0][1].parse().unwrap();
        assert!(candidates > 100);
    }

    #[test]
    fn table5_has_all_roles() {
        let wb = Workbench::new(&small_cfg());
        let t = table5(&wb);
        assert_eq!(t.rows.len(), 4);
        assert!(t.render().contains("sources"));
    }

    #[test]
    fn q6_empty_seed_learns_nothing() {
        let wb = Workbench::new(&small_cfg());
        let t = q6(&wb);
        // last row is the empty seed
        let learned: usize = t.rows[2][2].parse().unwrap();
        assert_eq!(learned, 0);
    }

    #[test]
    fn table7_multiplier_exceeds_one() {
        let wb = Workbench::new(&small_cfg());
        let t = table7(&wb);
        let seed_reports: usize = t.rows[0][1].parse().unwrap();
        let inferred_reports: usize = t.rows[0][2].parse().unwrap();
        assert!(
            inferred_reports > seed_reports,
            "inferred spec must flag more: {inferred_reports} vs {seed_reports}"
        );
    }

    #[test]
    fn tables_render_nonempty() {
        let wb = Workbench::new(&small_cfg());
        for t in [table3(&wb), table4(&wb), table6(&wb), fig11(&wb)] {
            assert!(!t.render().is_empty());
            assert!(!t.rows.is_empty(), "{} has no rows", t.title);
        }
    }
}
