//! Evaluation against corpus ground truth: specification precision (§7.3,
//! Tab. 5) and report classification (§7.5 Q4, Tab. 6/7).
//!
//! The paper estimated precision by manually inspecting random samples;
//! the synthetic corpus records exact ground truth, so the same metrics are
//! computed automatically here.

use crate::pipeline::AnalyzedCorpus;
use seldon_corpus::{Corpus, FlowKind, Universe};
use seldon_specs::{Role, TaintSpec};
use seldon_taint::Violation;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;

/// Whether two representations refer to the same API: exact match or a
/// dot-boundary suffix relationship in either direction.
pub fn reps_match(a: &str, b: &str) -> bool {
    if a == b {
        return true;
    }
    (a.len() > b.len() && a.ends_with(b) && a.as_bytes()[a.len() - b.len() - 1] == b'.')
        || (b.len() > a.len() && b.ends_with(a) && b.as_bytes()[b.len() - a.len() - 1] == b'.')
}

/// Exact role ground truth for the corpus: the API universe plus derived
/// app-level wrappers.
#[derive(Debug, Clone)]
pub struct GroundTruth {
    universe: Universe,
    derived: HashMap<String, Role>,
}

impl GroundTruth {
    /// Builds ground truth for `corpus`.
    pub fn new(universe: &Universe, corpus: &Corpus) -> Self {
        GroundTruth {
            universe: universe.clone(),
            derived: corpus.derived_roles.iter().cloned().collect(),
        }
    }

    /// The true role of a representation, if it refers to a known API.
    ///
    /// Representations anchored at a Django-style `request` view parameter
    /// (`handler(param request).GET.get()`) are normalized to the plain
    /// `request.…` chain before lookup — the view parameter *is* the
    /// request object, so anything read off it is attacker-controlled.
    pub fn role_of(&self, rep: &str) -> Option<Role> {
        if let Some(&r) = self.derived.get(rep) {
            return Some(r);
        }
        if let Some(r) = self.universe.role_of_rep(rep) {
            return Some(r);
        }
        const MARKER: &str = "(param request)";
        if let Some(pos) = rep.find(MARKER) {
            let suffix = &rep[pos + MARKER.len()..];
            let normalized = format!("request{suffix}");
            if normalized == "request" {
                // The request object itself: a source.
                return Some(Role::Source);
            }
            return self.universe.role_of_rep(&normalized);
        }
        None
    }

    /// Whether `(rep, role)` is a true positive.
    pub fn is_correct(&self, rep: &str, role: Role) -> bool {
        self.role_of(rep) == Some(role)
    }
}

/// Predicted/correct counts for one role.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoleEval {
    /// Number of predicted entries.
    pub predicted: usize,
    /// Number of true positives.
    pub correct: usize,
}

impl RoleEval {
    /// Precision (1.0 when nothing was predicted).
    pub fn precision(&self) -> f64 {
        if self.predicted == 0 {
            1.0
        } else {
            self.correct as f64 / self.predicted as f64
        }
    }
}

/// Per-role and overall precision of a learned specification.
#[derive(Debug, Clone, Default)]
pub struct SpecEval {
    /// Per-role counts.
    pub by_role: BTreeMap<Role, RoleEval>,
}

impl SpecEval {
    /// Total predicted entries.
    pub fn predicted(&self) -> usize {
        self.by_role.values().map(|r| r.predicted).sum()
    }

    /// Total true positives.
    pub fn correct(&self) -> usize {
        self.by_role.values().map(|r| r.correct).sum()
    }

    /// Overall precision.
    pub fn precision(&self) -> f64 {
        if self.predicted() == 0 {
            1.0
        } else {
            self.correct() as f64 / self.predicted() as f64
        }
    }
}

/// Evaluates every entry of a learned spec against ground truth.
pub fn evaluate_spec(spec: &TaintSpec, truth: &GroundTruth) -> SpecEval {
    let mut eval = SpecEval::default();
    for (rep, roles) in spec.iter() {
        for role in roles.iter() {
            let e = eval.by_role.entry(role).or_default();
            e.predicted += 1;
            if truth.is_correct(rep, role) {
                e.correct += 1;
            }
        }
    }
    eval
}

/// The paper's Tab. 6 report categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ReportClass {
    /// A genuine, exploitable vulnerability.
    TrueVulnerability,
    /// A real tainted flow that is not exploitable in context.
    VulnerableNoBug,
    /// The reported sink is not actually a sink.
    IncorrectSink,
    /// The reported source is not actually a source.
    IncorrectSource,
    /// Both endpoints are wrong.
    IncorrectSourceAndSink,
    /// The flow is protected by a sanitizer the spec does not know.
    MissingSanitizer,
    /// Taint flows into a harmless parameter of a real sink.
    WrongParameter,
}

impl ReportClass {
    /// All categories in the paper's Tab. 6 row order.
    pub const ALL: [ReportClass; 7] = [
        ReportClass::TrueVulnerability,
        ReportClass::VulnerableNoBug,
        ReportClass::IncorrectSink,
        ReportClass::IncorrectSource,
        ReportClass::IncorrectSourceAndSink,
        ReportClass::MissingSanitizer,
        ReportClass::WrongParameter,
    ];
}

impl fmt::Display for ReportClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ReportClass::TrueVulnerability => "True vulnerabilities",
            ReportClass::VulnerableNoBug => "Vulnerable flow, but no bug",
            ReportClass::IncorrectSink => "Incorrect sink",
            ReportClass::IncorrectSource => "Incorrect source",
            ReportClass::IncorrectSourceAndSink => "Incorrect source and sink",
            ReportClass::MissingSanitizer => "Missing sanitizer",
            ReportClass::WrongParameter => "Flows into wrong parameter",
        };
        f.write_str(s)
    }
}

/// Classifies one violation against ground truth.
pub fn classify_violation(
    v: &Violation,
    analyzed: &AnalyzedCorpus,
    corpus: &Corpus,
    truth: &GroundTruth,
) -> ReportClass {
    let src_ok = truth.role_of(&v.source_rep) == Some(Role::Source);
    let snk_ok = truth.role_of(&v.sink_rep) == Some(Role::Sink);
    match (src_ok, snk_ok) {
        (false, false) => return ReportClass::IncorrectSourceAndSink,
        (true, false) => return ReportClass::IncorrectSink,
        (false, true) => return ReportClass::IncorrectSource,
        (true, true) => {}
    }
    // Both endpoints genuine: consult the generated flow truths of the file.
    let meta = &analyzed.files[v.file.0 as usize];
    let file_flows: Vec<&seldon_corpus::FlowTruth> = corpus
        .flows
        .iter()
        .filter(|f| f.project == meta.project && f.file == meta.path)
        .collect();
    // Primary: match source and sink; fallback: sink only (the learned
    // source may be a prefix read or wrapper of the recorded source API).
    let matched: Vec<&&seldon_corpus::FlowTruth> = {
        let both: Vec<_> = file_flows
            .iter()
            .filter(|f| {
                f.source.is_some_and(|s| flow_endpoint_matches(s, &v.source_rep))
                    && f.sink.is_some_and(|s| reps_match(s, &v.sink_rep))
            })
            .collect();
        if both.is_empty() {
            file_flows
                .iter()
                .filter(|f| f.sink.is_some_and(|s| reps_match(s, &v.sink_rep)))
                .collect()
        } else {
            both
        }
    };
    let mut best: Option<ReportClass> = None;
    for flow in matched {
        let class = match flow.kind {
            FlowKind::Vulnerable { exploitable: true } => ReportClass::TrueVulnerability,
            FlowKind::Vulnerable { exploitable: false } => ReportClass::VulnerableNoBug,
            FlowKind::WrongParam => ReportClass::WrongParameter,
            FlowKind::Sanitized => ReportClass::MissingSanitizer,
            FlowKind::SafeLiteral | FlowKind::Noise => ReportClass::VulnerableNoBug,
        };
        // Prefer the most severe explanation available.
        best = Some(match (best, class) {
            (None, c) => c,
            (Some(ReportClass::TrueVulnerability), _) => ReportClass::TrueVulnerability,
            (_, ReportClass::TrueVulnerability) => ReportClass::TrueVulnerability,
            (Some(prev), _) => prev,
        });
    }
    best.unwrap_or(ReportClass::VulnerableNoBug)
}

/// Whether a violation endpoint representation refers to the recorded flow
/// endpoint: suffix tolerance, chain-prefix tolerance (a `request.args`
/// read is part of the `request.args.get()` source), and Django-style
/// `(param request)` normalization.
fn flow_endpoint_matches(truth_rep: &str, violation_rep: &str) -> bool {
    if reps_match(truth_rep, violation_rep) {
        return true;
    }
    let normalized: String;
    let vrep = match violation_rep.find("(param request)") {
        Some(pos) => {
            normalized = format!("request{}", &violation_rep[pos + "(param request)".len()..]);
            normalized.as_str()
        }
        None => violation_rep,
    };
    if reps_match(truth_rep, vrep) {
        return true;
    }
    // Chain-prefix: vrep is a prefix of truth_rep (or of one of its dot
    // suffixes) at a `.`/`[` boundary.
    let mut candidates = vec![truth_rep];
    let mut rest = truth_rep;
    while let Some(pos) = rest.find('.') {
        rest = &rest[pos + 1..];
        candidates.push(rest);
    }
    candidates.iter().any(|full| {
        full.len() > vrep.len()
            && full.starts_with(vrep)
            && matches!(full.as_bytes()[vrep.len()], b'.' | b'[')
    })
}

/// Classified report summary (Tab. 6 / Tab. 7 inputs).
#[derive(Debug, Clone, Default)]
pub struct ReportSummary {
    /// Count per category.
    pub counts: BTreeMap<ReportClass, usize>,
    /// Total classified reports.
    pub total: usize,
    /// Distinct projects with at least one report.
    pub projects_affected: usize,
}

impl ReportSummary {
    /// Fraction of reports in `class`.
    pub fn fraction(&self, class: ReportClass) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            *self.counts.get(&class).unwrap_or(&0) as f64 / self.total as f64
        }
    }

    /// Estimated number of true vulnerabilities among `population` reports,
    /// scaled by this (sample) summary's true-positive rate — the paper's
    /// Tab. 7 estimate.
    pub fn estimate_true_vulnerabilities(&self, population: usize) -> usize {
        (population as f64 * self.fraction(ReportClass::TrueVulnerability)).round() as usize
    }
}

/// Classifies all `violations` and summarizes them.
pub fn classify_all(
    violations: &[Violation],
    analyzed: &AnalyzedCorpus,
    corpus: &Corpus,
    truth: &GroundTruth,
) -> (Vec<ReportClass>, ReportSummary) {
    let mut classes = Vec::with_capacity(violations.len());
    let mut summary = ReportSummary::default();
    let mut projects = HashSet::new();
    for v in violations {
        let c = classify_violation(v, analyzed, corpus, truth);
        *summary.counts.entry(c).or_insert(0) += 1;
        summary.total += 1;
        projects.insert(analyzed.files[v.file.0 as usize].project);
        classes.push(c);
    }
    summary.projects_affected = projects.len();
    (classes, summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::analyze_corpus;
    use seldon_corpus::{generate_corpus, CorpusOptions};
    use seldon_taint::TaintAnalyzer;

    fn setup() -> (Universe, Corpus, AnalyzedCorpus, GroundTruth) {
        let u = Universe::new();
        let c = generate_corpus(&u, &CorpusOptions { projects: 10, ..Default::default() });
        let a = analyze_corpus(&c).unwrap();
        let t = GroundTruth::new(&u, &c);
        (u, c, a, t)
    }

    #[test]
    fn reps_match_rules() {
        assert!(reps_match("a.b.c()", "b.c()"));
        assert!(reps_match("b.c()", "a.b.c()"));
        assert!(reps_match("x()", "x()"));
        assert!(!reps_match("ab.c()", "b.c()"));
        assert!(!reps_match("a.b()", "a.c()"));
    }

    #[test]
    fn ground_truth_includes_derived_helpers() {
        let (_, c, _, t) = setup();
        if let Some((rep, role)) = c.derived_roles.first() {
            assert_eq!(t.role_of(rep), Some(*role));
        }
        assert_eq!(t.role_of("flask.request.args.get()"), Some(Role::Source));
        assert_eq!(t.role_of("made.up.api()"), None);
    }

    #[test]
    fn spec_eval_counts() {
        let (_, c, _, t) = setup();
        let _ = c;
        let mut spec = TaintSpec::new();
        spec.add("htmlutils.sanitize()", Role::Sanitizer); // correct
        spec.add("textutils.wrap()", Role::Source); // wrong (no role)
        spec.add("webresp.render_page()", Role::Sink); // correct
        let eval = evaluate_spec(&spec, &t);
        assert_eq!(eval.predicted(), 3);
        assert_eq!(eval.correct(), 2);
        assert!((eval.precision() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(eval.by_role[&Role::Sanitizer].predicted, 1);
        assert_eq!(eval.by_role[&Role::Sanitizer].correct, 1);
    }

    #[test]
    fn oracle_spec_reports_classify_sensibly() {
        let (u, c, a, t) = setup();
        // Oracle spec: all true roles (including derived helpers).
        let mut oracle = TaintSpec::new();
        for api in u.apis() {
            if let Some(role) = api.role {
                oracle.add(api.rep, role);
            }
        }
        for (rep, role) in &c.derived_roles {
            oracle.add(rep.clone(), *role);
        }
        let analyzer = TaintAnalyzer::new(&a.graph, &oracle);
        let violations = analyzer.find_violations();
        assert!(!violations.is_empty(), "corpus must contain vulnerabilities");
        let (classes, summary) = classify_all(&violations, &a, &c, &t);
        assert_eq!(classes.len(), violations.len());
        assert_eq!(summary.total, violations.len());
        assert!(summary.projects_affected > 0);
        // With the oracle spec there are no incorrect endpoints...
        assert_eq!(summary.fraction(ReportClass::IncorrectSink), 0.0);
        assert_eq!(summary.fraction(ReportClass::IncorrectSource), 0.0);
        // ...no missing sanitizers...
        assert_eq!(summary.fraction(ReportClass::MissingSanitizer), 0.0);
        // ...and reports are genuine tainted flows or wrong-parameter
        // flows into real sinks (the analysis does not distinguish
        // parameters, §3.3).
        let genuine = summary.fraction(ReportClass::TrueVulnerability)
            + summary.fraction(ReportClass::VulnerableNoBug)
            + summary.fraction(ReportClass::WrongParameter);
        assert!(genuine > 0.95, "genuine fraction = {genuine}: {:?}", summary.counts);
    }

    #[test]
    fn seed_spec_misses_learnable_sanitizers() {
        let (u, c, a, t) = setup();
        let seed = u.seed_spec();
        let analyzer = TaintAnalyzer::new(&a.graph, &seed);
        let violations = analyzer.find_violations();
        let (_, summary) = classify_all(&violations, &a, &c, &t);
        // Sanitized flows protected by *learnable* sanitizers show up as
        // missing-sanitizer false positives under the seed spec (Tab. 6's
        // 40% row).
        assert!(
            summary.counts.get(&ReportClass::MissingSanitizer).copied().unwrap_or(0) > 0,
            "expected missing-sanitizer reports, got {:?}",
            summary.counts
        );
    }

    #[test]
    fn estimate_scales_by_fraction() {
        let mut s = ReportSummary::default();
        s.counts.insert(ReportClass::TrueVulnerability, 5);
        s.counts.insert(ReportClass::IncorrectSink, 5);
        s.total = 10;
        assert_eq!(s.estimate_true_vulnerabilities(1000), 500);
        assert!((s.fraction(ReportClass::TrueVulnerability) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn report_class_display() {
        assert_eq!(ReportClass::MissingSanitizer.to_string(), "Missing sanitizer");
        assert_eq!(ReportClass::ALL.len(), 7);
    }
}
