//! The Merlin model adapted to dynamically-typed code (§6).
//!
//! Differences from Seldon, as the paper lays out: (i) the Fig. 6
//! constraints restrict *specific* nodes instead of asserting existence,
//! (ii) without static types every call is a candidate for every role,
//! (iii) inference is probabilistic (factor graphs) instead of linear
//! optimization, and (iv) the propagation graph may be *collapsed* (vertex
//! contraction of same-representation events, §6.4) or uncollapsed.

use crate::factor::{Factor, FactorGraph, VarIdx};
use seldon_intern::Symbol;
use seldon_propgraph::{Direction, EventId, EventKind, PropagationGraph, SearchWorkspace};
use seldon_specs::{CompiledSpec, Role, TaintSpec};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Configuration of a Merlin run.
#[derive(Debug, Clone)]
pub struct MerlinOptions {
    /// Use the collapsed (vertex-contracted) graph (§6.4).
    pub collapsed: bool,
    /// Soft-constraint confidence θ for the Fig. 6 factors.
    pub theta: f64,
    /// Prior for source and sink candidates (the paper uses 50%).
    pub endpoint_prior: f64,
    /// Inference algorithm.
    pub inference: Inference,
    /// BP iterations / Gibbs sweeps.
    pub max_iters: usize,
    /// BFS cap per anchor node, bounding factor blowup.
    pub max_reach: usize,
    /// Maximum triple factors per sanitizer anchor.
    pub max_triples: usize,
}

impl Default for MerlinOptions {
    fn default() -> Self {
        MerlinOptions {
            collapsed: true,
            theta: 0.9,
            endpoint_prior: 0.5,
            inference: Inference::BeliefPropagation,
            max_iters: 100,
            max_reach: 256,
            max_triples: 2048,
        }
    }
}

/// Which marginal-inference algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inference {
    /// Loopy sum-product (the Infer.NET default family the paper used).
    BeliefPropagation,
    /// Loopy max-product (MAP-oriented) message passing.
    MaxProduct,
    /// Gibbs sampling (the paper's fallback when EP timed out).
    Gibbs {
        /// Burn-in sweeps discarded before collecting samples.
        burn_in: usize,
        /// RNG seed for reproducibility.
        seed: u64,
    },
}

/// The result of a Merlin run.
#[derive(Debug, Clone)]
pub struct MerlinResult {
    /// Marginal `p(role)` per representation (max over graph nodes
    /// sharing the representation).
    pub marginals: HashMap<(String, Role), f64>,
    /// Candidate counts (sources, sanitizers, sinks), as in Tab. 2.
    pub candidates: (usize, usize, usize),
    /// Number of factors in the graphical model, as in Tab. 2.
    pub factors: usize,
    /// Wall-clock inference time.
    pub inference_time: Duration,
}

impl MerlinResult {
    /// Predictions above `threshold`, excluding seeded entries, sorted by
    /// descending probability.
    pub fn predictions(&self, threshold: f64, seed: &TaintSpec) -> Vec<(String, Role, f64)> {
        let mut v: Vec<(String, Role, f64)> = self
            .marginals
            .iter()
            .filter(|((rep, role), &p)| p >= threshold && !seed.has_role(rep, *role))
            .map(|((rep, role), &p)| (rep.clone(), *role, p))
            .collect();
        v.sort_by(|a, b| b.2.total_cmp(&a.2).then_with(|| a.0.cmp(&b.0)));
        v
    }

    /// The top `n` predictions per role, excluding seeded entries.
    pub fn top_n(&self, n: usize, role: Role, seed: &TaintSpec) -> Vec<(String, f64)> {
        let mut v: Vec<(String, f64)> = self
            .marginals
            .iter()
            .filter(|((rep, r), _)| *r == role && !seed.has_role(rep, role))
            .map(|((rep, _), &p)| (rep.clone(), p))
            .collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        v.truncate(n);
        v
    }

    /// The marginal for `(rep text, role)`, if the representation occurred.
    pub fn marginal(&self, rep: &str, role: Role) -> Option<f64> {
        self.marginals.get(&(rep.to_string(), role)).copied()
    }
}

/// Runs the adapted Merlin method on a propagation graph.
pub fn run_merlin(graph: &PropagationGraph, seed: &TaintSpec, opts: &MerlinOptions) -> MerlinResult {
    let working;
    let g = if opts.collapsed {
        let (c, _) = graph.contract();
        working = c;
        &working
    } else {
        graph
    };

    let mut fg = FactorGraph::new();
    let mut vars: HashMap<(EventId, Role), VarIdx> = HashMap::new();
    let ids: Vec<EventId> = g.events().map(|(id, _)| id).collect();

    // Sanitizer prior: fraction of source→sink paths among paths through the
    // node (the paper's "which fraction of paths that go through it start
    // from a source and end in a sink"); approximated with candidate counts
    // over the node's predecessors/successors.
    let mut ws = SearchWorkspace::for_graph(g);
    let mut san_prior: HashMap<EventId, f64> = HashMap::new();
    for &id in &ids {
        if g.event(id).kind != EventKind::Call {
            continue;
        }
        let back = ws.search(g, id, Direction::Backward, opts.max_reach);
        let back_len = back.len();
        let src_like = back
            .iter()
            .filter(|&&u| g.event(u).candidates.contains(Role::Source))
            .count();
        let fwd = ws.search(g, id, Direction::Forward, opts.max_reach);
        let total = (back_len * fwd.len()).max(1);
        let snk_like = fwd
            .iter()
            .filter(|&&t| {
                g.event(t).kind == EventKind::Call
            })
            .count();
        let p = (src_like * snk_like) as f64 / total as f64;
        san_prior.insert(id, p.clamp(0.05, 0.95));
    }

    // Variables per candidate (event, role). Without static types every call
    // is a candidate for every role (§6.2); reads/params are source-only.
    for &id in &ids {
        let ev = g.event(id);
        for role in ev.candidates.iter() {
            let prior = match role {
                Role::Sanitizer => san_prior.get(&id).copied().unwrap_or(0.1),
                _ => opts.endpoint_prior,
            };
            let v = fg.add_var(prior);
            vars.insert((id, role), v);
        }
    }

    // Hard priors from the seed spec: match any backoff representation.
    // Glob/entry resolution is memoized per symbol across the whole graph.
    let compiled = CompiledSpec::new(seed, g.symbols());
    for &id in &ids {
        let ev = g.event(id);
        for &rep in ev.reps {
            let roles = compiled.roles(rep);
            if roles.is_empty() {
                continue;
            }
            for role in Role::ALL {
                if let Some(&v) = vars.get(&(id, role)) {
                    fg.pin(v, roles.contains(role));
                }
            }
            break;
        }
    }

    // Fig. 6 factors.
    let theta = opts.theta;
    let (mut src_vars, mut snk_vars) = (Vec::new(), Vec::new());
    for &b in &ids {
        if g.event(b).kind != EventKind::Call {
            continue;
        }
        let Some(&b_san) = vars.get(&(b, Role::Sanitizer)) else { continue };
        src_vars.clear();
        src_vars.extend(
            ws.search(g, b, Direction::Backward, opts.max_reach)
                .iter()
                .filter_map(|&a| vars.get(&(a, Role::Source)).copied()),
        );
        snk_vars.clear();
        snk_vars.extend(
            ws.search(g, b, Direction::Forward, opts.max_reach)
                .iter()
                .filter_map(|&c| vars.get(&(c, Role::Sink)).copied()),
        );

        // Fig. 6a: source a → b → sink c ⇒ b is a sanitizer.
        let mut triples = 0usize;
        'outer: for &a_src in &src_vars {
            for &c_snk in &snk_vars {
                fg.add_factor(Factor::soft(vec![a_src, b_san, c_snk], theta, |x| {
                    !(x[0] && x[2]) || x[1]
                }));
                triples += 1;
                if triples >= opts.max_triples {
                    break 'outer;
                }
            }
        }

        // Fig. 6b: flow from sanitizer b to c ⇒ c is not a sanitizer.
        for c in g.successors(b) {
            if let Some(&c_san) = vars.get(&(c, Role::Sanitizer)) {
                fg.add_factor(Factor::soft(vec![b_san, c_san], theta, |x| !(x[0] && x[1])));
            }
        }
    }
    for &a in &ids {
        // Fig. 6c: flow from source a to b ⇒ b is not a source.
        if let Some(&a_src) = vars.get(&(a, Role::Source)) {
            for b in g.successors(a) {
                if let Some(&b_src) = vars.get(&(b, Role::Source)) {
                    fg.add_factor(Factor::soft(vec![a_src, b_src], theta, |x| {
                        !(x[0] && x[1])
                    }));
                }
            }
        }
        // Fig. 6d: flow from a into sink b ⇒ a is not a sink.
        if let Some(&a_snk) = vars.get(&(a, Role::Sink)) {
            for b in g.successors(a) {
                if let Some(&b_snk) = vars.get(&(b, Role::Sink)) {
                    fg.add_factor(Factor::soft(vec![a_snk, b_snk], theta, |x| {
                        !(x[1] && x[0])
                    }));
                }
            }
        }
    }

    let started = Instant::now();
    let beliefs = match opts.inference {
        Inference::BeliefPropagation => fg.belief_propagation(opts.max_iters, 0.3, 1e-6),
        Inference::MaxProduct => fg.max_product(opts.max_iters, 0.3, 1e-6),
        Inference::Gibbs { burn_in, seed } => fg.gibbs(burn_in, opts.max_iters, seed),
    };
    let inference_time = started.elapsed();

    // Aggregate marginals per representation (max over nodes).
    let mut marginals: HashMap<(Symbol, Role), f64> = HashMap::new();
    let mut n_src = 0;
    let mut n_san = 0;
    let mut n_snk = 0;
    for (&(id, role), &v) in &vars {
        match role {
            Role::Source => n_src += 1,
            Role::Sanitizer => n_san += 1,
            Role::Sink => n_snk += 1,
        }
        let rep = g.event(id).rep_sym();
        let p = beliefs[v.0 as usize];
        let entry = marginals.entry((rep, role)).or_insert(0.0);
        *entry = entry.max(p);
    }

    let text = |rep| g.symbols().resolve(rep).to_string();
    MerlinResult {
        marginals: marginals.into_iter().map(|((rep, role), p)| ((text(rep), role), p)).collect(),
        candidates: (n_src, n_san, n_snk),
        factors: fg.factor_count(),
        inference_time,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seldon_propgraph::{build_source, FileId};

    fn sample_graph() -> PropagationGraph {
        build_source(
            "
from flask import request
from m import clean
import os
x = request.args.get('p')
y = clean(x)
os.system(y)
",
            FileId(0),
        )
        .unwrap()
    }

    fn seed() -> TaintSpec {
        TaintSpec::parse("o: flask.request.args.get()\ni: os.system()\n").unwrap()
    }

    #[test]
    fn sanitizer_between_seeded_endpoints_scores_high() {
        let g = sample_graph();
        let res = run_merlin(&g, &seed(), &MerlinOptions::default());
        let p = res.marginal("m.clean()", Role::Sanitizer);
        assert!(p.is_some());
        assert!(p.unwrap() > 0.5, "clean() san marginal = {:?}", p);
        assert!(res.factors > 0);
    }

    #[test]
    fn collapsed_has_no_more_nodes_than_uncollapsed() {
        let g = sample_graph();
        let col = run_merlin(&g, &seed(), &MerlinOptions { collapsed: true, ..Default::default() });
        let unc = run_merlin(&g, &seed(), &MerlinOptions { collapsed: false, ..Default::default() });
        assert!(col.candidates.0 <= unc.candidates.0);
    }

    #[test]
    fn gibbs_runs_and_agrees_roughly() {
        let g = sample_graph();
        let bp = run_merlin(&g, &seed(), &MerlinOptions::default());
        let gibbs = run_merlin(
            &g,
            &seed(),
            &MerlinOptions {
                inference: Inference::Gibbs { burn_in: 100, seed: 7 },
                max_iters: 1000,
                ..Default::default()
            },
        );
        let key = ("m.clean()".to_string(), Role::Sanitizer);
        let d = (bp.marginals[&key] - gibbs.marginals[&key]).abs();
        assert!(d < 0.35, "bp vs gibbs differ too much: {d}");
    }

    #[test]
    fn predictions_exclude_seed() {
        let g = sample_graph();
        let s = seed();
        let res = run_merlin(&g, &s, &MerlinOptions::default());
        for (rep, role, _) in res.predictions(0.5, &s) {
            assert!(!s.has_role(&rep, role), "{rep} is seeded");
        }
    }

    #[test]
    fn top_n_sorted_descending() {
        let g = sample_graph();
        let s = seed();
        let res = run_merlin(&g, &s, &MerlinOptions::default());
        let top = res.top_n(5, Role::Sanitizer, &s);
        for w in top.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn max_product_runs_and_ranks_sanitizer() {
        let g = sample_graph();
        let res = run_merlin(
            &g,
            &seed(),
            &MerlinOptions { inference: Inference::MaxProduct, ..Default::default() },
        );
        let p = res.marginal("m.clean()", Role::Sanitizer);
        assert!(p.is_some_and(|p| p > 0.5), "max-product clean() = {p:?}");
    }

    #[test]
    fn empty_graph_runs() {
        let g = PropagationGraph::new();
        let res = run_merlin(&g, &TaintSpec::new(), &MerlinOptions::default());
        assert_eq!(res.factors, 0);
        assert!(res.marginals.is_empty());
    }
}
