//! Property-based integration tests: robustness of the front end on
//! arbitrary input, invariants of the propagation graph, monotonicity of
//! the constraint system, and determinism of corpus generation.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use seldon_cache::graph_fingerprint;
use seldon_constraints::{
    collect_rows, generate, generate_with_stats, select, ConstraintSystem, EventReps, FileRows,
    GenOptions, Row, Selection,
};
use seldon_core::{union_graphs, Frontend};
use seldon_corpus::{generate_corpus, CorpusOptions, Lang, Universe};
use seldon_propgraph::{
    build_source, Budget, EventView, FileId, GraphSink, PropagationGraph, Recorder,
};
use seldon_pyast::{lexer, parser};
use seldon_solver::{solve, SolveOptions};
use seldon_specs::{Pattern, Role, RoleSet, TaintSpec};
use seldon_telemetry::Telemetry;
use std::borrow::Cow;

proptest! {
    /// The lexer never panics, whatever bytes it is fed.
    #[test]
    fn lexer_total_on_arbitrary_input(src in "\\PC{0,200}") {
        let _ = lexer::lex(&src);
    }

    /// The parser never panics either (it may return an error).
    #[test]
    fn parser_total_on_arbitrary_input(src in "\\PC{0,200}") {
        let _ = parser::parse(&src);
    }

    /// Lexing structurally valid assignments always succeeds and the
    /// token stream is well-bracketed by Indent/Dedent.
    #[test]
    fn indent_dedent_balance(depth in 1usize..6) {
        let mut src = String::new();
        for d in 0..depth {
            src.push_str(&"    ".repeat(d));
            src.push_str(&format!("if x{d}:\n"));
        }
        src.push_str(&"    ".repeat(depth));
        src.push_str("pass\n");
        let toks = lexer::lex(&src).expect("valid nesting lexes");
        let indents = toks.iter().filter(|t| t.kind == seldon_pyast::token::TokenKind::Indent).count();
        let dedents = toks.iter().filter(|t| t.kind == seldon_pyast::token::TokenKind::Dedent).count();
        prop_assert_eq!(indents, dedents);
        prop_assert_eq!(indents, depth);
    }

    /// Graphs built from straight-line generated code are acyclic and all
    /// edges reference valid events.
    #[test]
    fn graph_edges_are_valid(nvars in 1usize..8) {
        let mut src = String::from("from m import f\nx0 = f()\n");
        for i in 1..nvars {
            src.push_str(&format!("x{i} = f(x{})\n", i - 1));
        }
        let g = build_source(&src, FileId(0)).expect("builds");
        for (from, to) in g.edges() {
            prop_assert!(from.index() < g.event_count());
            prop_assert!(to.index() < g.event_count());
            prop_assert_ne!(from, to);
        }
        // DAG check: no event reaches itself.
        for (id, _) in g.events() {
            prop_assert!(!g.reachable_from(id).contains(&id));
        }
    }

    /// Role sets behave like sets.
    #[test]
    fn roleset_algebra(bits_a in 0u8..8, bits_b in 0u8..8) {
        let from_bits = |bits: u8| -> RoleSet {
            Role::ALL
                .into_iter()
                .filter(|r| bits & (1 << r.index()) != 0)
                .collect()
        };
        let a = from_bits(bits_a);
        let b = from_bits(bits_b);
        prop_assert_eq!(a.union(b), b.union(a));
        prop_assert_eq!(a.intersection(b), b.intersection(a));
        prop_assert_eq!(a.union(a), a);
        prop_assert_eq!(a.intersection(a), a);
        for r in a.iter() {
            prop_assert!(a.union(b).contains(r));
        }
        prop_assert!(a.union(b).len() <= a.len() + b.len());
    }

    /// Glob patterns: a literal pattern matches exactly itself.
    #[test]
    fn literal_patterns_match_self(s in "[a-z_.()]{1,30}") {
        prop_assume!(!s.contains('*'));
        let p = Pattern::new(s.clone());
        prop_assert!(p.matches(&s));
        let extended = format!("{s}x");
        prop_assert!(!p.matches(&extended));
    }

    /// Wildcard-wrapped patterns match any superstring.
    #[test]
    fn infix_patterns_match_superstrings(
        core in "[a-z]{1,10}",
        prefix in "[a-z]{0,5}",
        suffix in "[a-z]{0,5}",
    ) {
        let p = Pattern::new(format!("*{core}*"));
        let text = format!("{prefix}{core}{suffix}");
        prop_assert!(p.matches(&text));
    }

    /// Corpus generation is a pure function of its options.
    #[test]
    fn corpus_generation_deterministic(seed in 0u64..1000, projects in 1usize..5) {
        let u = Universe::new();
        let opts = CorpusOptions { projects, rng_seed: seed, ..Default::default() };
        let a = generate_corpus(&u, &opts);
        let b = generate_corpus(&u, &opts);
        prop_assert_eq!(a.file_count(), b.file_count());
        let ta: Vec<String> = a.files().map(|(_, f)| f.content.clone()).collect();
        let tb: Vec<String> = b.files().map(|(_, f)| f.content.clone()).collect();
        prop_assert_eq!(ta, tb);
    }

    /// Every corpus file parses, whatever the generation seed.
    #[test]
    fn all_generated_files_parse(seed in 0u64..200) {
        let u = Universe::new();
        let corpus = generate_corpus(
            &u,
            &CorpusOptions { projects: 2, rng_seed: seed, ..Default::default() },
        );
        for (_, f) in corpus.files() {
            let parsed = parser::parse(&f.content);
            prop_assert!(parsed.is_ok(), "file {} fails: {:?}\n{}", f.path, parsed.err(), f.content);
        }
    }

    /// Unparse round-trip: printing a parsed corpus file and reparsing it
    /// reaches a fixpoint (the printer and parser agree on the language).
    #[test]
    fn unparse_round_trip_on_corpus(seed in 0u64..100) {
        let u = Universe::new();
        let corpus = generate_corpus(
            &u,
            &CorpusOptions { projects: 1, rng_seed: seed, ..Default::default() },
        );
        for (_, f) in corpus.files() {
            let m1 = parser::parse(&f.content).expect("corpus parses");
            let printed = seldon_pyast::unparse(&m1);
            let m2 = parser::parse(&printed)
                .unwrap_or_else(|e| panic!("reparse failed: {e}\n{printed}"));
            let printed2 = seldon_pyast::unparse(&m2);
            prop_assert_eq!(&printed, &printed2, "printer not a fixpoint");
        }
    }

    /// Lenient parsing never loses statements on well-formed input and
    /// never reports errors for it.
    #[test]
    fn lenient_equals_strict_on_valid(seed in 0u64..100) {
        let u = Universe::new();
        let corpus = generate_corpus(
            &u,
            &CorpusOptions { projects: 1, rng_seed: seed, ..Default::default() },
        );
        for (_, f) in corpus.files() {
            let strict = parser::parse(&f.content).expect("corpus parses");
            let (lenient, errors) = parser::parse_lenient(&f.content);
            prop_assert!(errors.is_empty());
            prop_assert_eq!(&strict, &lenient);
        }
    }

    /// Parameter-sensitive analysis only ever removes reports, never adds.
    #[test]
    fn param_sensitivity_is_monotone(seed in 0u64..30) {
        use seldon_taint::{TaintAnalyzer, TaintOptions};
        let u = Universe::new();
        let corpus = generate_corpus(
            &u,
            &CorpusOptions { projects: 3, rng_seed: seed, ..Default::default() },
        );
        let mut graph = seldon_propgraph::PropagationGraph::new();
        for (i, (_, f)) in corpus.files().enumerate() {
            let g = build_source(&f.content, FileId(i as u32)).unwrap();
            graph.union(&g);
        }
        let spec = u.seed_spec_with_signatures();
        let base = TaintAnalyzer::new(&graph, &spec).find_violations();
        let strict = TaintAnalyzer::with_options(
            &graph,
            &spec,
            TaintOptions { param_sensitive: true },
        )
        .find_violations();
        prop_assert!(strict.len() <= base.len());
        for v in &strict {
            prop_assert!(
                base.iter().any(|b| b.source == v.source && b.sink == v.sink),
                "param-sensitive invented a report"
            );
        }
    }

    /// Solver scores always stay inside the [0, 1] box and pinned values
    /// are bit-exact in the solution.
    #[test]
    fn solver_respects_box_and_pins(seed in 0u64..50) {
        let u = Universe::new();
        let corpus = generate_corpus(
            &u,
            &CorpusOptions { projects: 3, rng_seed: seed, ..Default::default() },
        );
        let mut graph = seldon_propgraph::PropagationGraph::new();
        for (i, (_, f)) in corpus.files().enumerate() {
            let g = build_source(&f.content, FileId(i as u32)).unwrap();
            graph.union(&g);
        }
        let sys = generate(
            &graph,
            &u.seed_spec(),
            &GenOptions { rep_cutoff: 2, ..Default::default() },
        );
        let sol = solve(&sys, &SolveOptions { max_iters: 50, ..Default::default() });
        for &s in &sol.scores {
            prop_assert!((0.0..=1.0).contains(&s), "score out of box: {s}");
        }
        for (v, val) in sys.pinned_vars() {
            prop_assert_eq!(sol.score(v), val);
        }
    }

    /// More constraints never make the hinge violation of the all-zeros
    /// assignment negative, and the objective is non-negative everywhere.
    #[test]
    fn objective_nonnegative(seed in 0u64..50) {
        let u = Universe::new();
        let corpus = generate_corpus(
            &u,
            &CorpusOptions { projects: 2, rng_seed: seed, ..Default::default() },
        );
        let mut graph = seldon_propgraph::PropagationGraph::new();
        for (i, (_, f)) in corpus.files().enumerate() {
            let g = build_source(&f.content, FileId(i as u32)).unwrap();
            graph.union(&g);
        }
        let sys = generate(
            &graph,
            &u.seed_spec(),
            &GenOptions { rep_cutoff: 2, ..Default::default() },
        );
        let sol = solve(&sys, &SolveOptions { max_iters: 30, ..Default::default() });
        prop_assert!(sol.objective >= 0.0);
        prop_assert!(sol.violation >= 0.0);
        prop_assert!(sol.violation <= sol.objective + 1e-9);
    }

    /// The per-file entry point (`Frontend::lower` into a graph sink)
    /// agrees with each frontend's `build_source` / `build_js_source`
    /// shorthand, for BOTH frontends, on generated corpora: same events
    /// (kind, reps, span), same adjacency. Both lower into the same sink,
    /// so this pins the entry point's parse, budget and lowering choices
    /// against the shorthand; `graph_sink_equals_recorded_replay` pins the
    /// sink against the recorded IR.
    #[test]
    fn staged_ir_build_equals_composed(seed in 0u64..60) {
        let u = Universe::new();
        for lang in [Lang::Py, Lang::Js] {
            let corpus = generate_corpus(
                &u,
                &CorpusOptions { projects: 2, rng_seed: seed, lang, ..Default::default() },
            );
            for (i, (_, f)) in corpus.files().enumerate() {
                let file = FileId(i as u32);
                let composed = match lang {
                    Lang::Py => build_source(&f.content, file).expect("composed build"),
                    Lang::Js => {
                        seldon_jsfront::build_js_source(&f.content, file).expect("composed build")
                    }
                };
                let frontend = match lang {
                    Lang::Py => Frontend::Python,
                    Lang::Js => Frontend::Js,
                };
                let sink = GraphSink::new(file);
                let lowered = frontend.lower(&f.content, &Budget::unlimited(), sink);
                let staged = lowered.expect("lowering").output;
                prop_assert_eq!(staged.event_count(), composed.event_count());
                prop_assert_eq!(staged.edge_count(), composed.edge_count());
                for ((id, s), (_, c)) in staged.events().zip(composed.events()) {
                    prop_assert_eq!(s.kind, c.kind);
                    prop_assert_eq!(&s.reps, &c.reps);
                    prop_assert_eq!(s.span, c.span);
                    prop_assert_eq!(s.file, c.file);
                    prop_assert!(staged.successors(id).eq(composed.successors(id)));
                    prop_assert_eq!(staged.predecessors(id), composed.predecessors(id));
                }
            }
        }
    }

    /// Graph construction has one implementation: on generated Python and
    /// JS corpora, lowering straight into the graph sink gives exactly the
    /// graph that the recording sink followed by `build_ir` gives — event
    /// ids, kinds, reps by text, spans and file stamps, successor and
    /// predecessor order, every edge's kind and argument position (a
    /// keyword by text), and the graph fingerprint. The two tables may
    /// number texts differently: the recording keeps keywords out of its
    /// table, so the replay interns them after every representation. Under
    /// a tight statement, depth or wall budget both sinks report the same
    /// limit, and the graph sink hands back no partial graph. The whole
    /// corpus eight times over as one file is a case too, so every tight
    /// budget really trips.
    #[test]
    fn graph_sink_equals_recorded_replay(seed in 0u64..40) {
        let u = Universe::new();
        let budgets = [
            Budget::unlimited(),
            Budget { max_statements: 40, ..Budget::unlimited() },
            Budget { max_depth: 1, ..Budget::unlimited() },
            Budget { max_wall: Some(std::time::Duration::ZERO), ..Budget::unlimited() },
        ];
        for (lang, frontend) in [(Lang::Py, Frontend::Python), (Lang::Js, Frontend::Js)] {
            let corpus = generate_corpus(
                &u,
                &CorpusOptions { projects: 2, rng_seed: seed, lang, ..Default::default() },
            );
            let mut sources: Vec<String> = corpus.files().map(|(_, f)| f.content.clone()).collect();
            sources.push(sources.concat().repeat(8));
            let mut tripped = [0; 4];
            for (i, src) in sources.iter().enumerate() {
                let file = FileId(i as u32);
                for (b, budget) in budgets.iter().enumerate() {
                    let direct = frontend.lower(src, budget, GraphSink::new(file));
                    let recorded = frontend.lower(src, budget, Recorder::default());
                    let (direct, recorded) = match (direct, recorded) {
                        (Ok(d), Ok(r)) => (d.output, seldon_propgraph::build_ir(&r.output, file)),
                        (Err(d), Err(r)) => {
                            prop_assert_eq!(d, r);
                            tripped[b] += 1;
                            continue;
                        }
                        (d, r) => {
                            let (d, r) = (d.map(|_| ()), r.map(|_| ()));
                            return Err(TestCaseError::fail(format!("{budget:?}: {d:?} vs {r:?}")));
                        }
                    };
                    prop_assert_eq!(direct.event_count(), recorded.event_count());
                    prop_assert_eq!(direct.edge_count(), recorded.edge_count());
                    let texts = |g: &PropagationGraph, e: EventView<'_>| -> Vec<String> {
                        e.reps.iter().map(|&r| g.symbols().resolve(r).to_string()).collect()
                    };
                    for ((id, d), (rid, r)) in direct.events().zip(recorded.events()) {
                        prop_assert_eq!(id, rid);
                        prop_assert_eq!((d.kind, d.span, d.file), (r.kind, r.span, r.file));
                        prop_assert_eq!(d.candidates, r.candidates);
                        prop_assert_eq!(texts(&direct, d), texts(&recorded, r));
                        prop_assert!(direct.successors(id).eq(recorded.successors(id)));
                        prop_assert_eq!(direct.predecessors(id), recorded.predecessors(id));
                    }
                    let pos = |g: &PropagationGraph, from, to| {
                        let text = |&k| g.symbols().resolve(k).to_string();
                        g.arg_position(from, to).map(|p| p.map(text))
                    };
                    for (from, to) in direct.edges() {
                        prop_assert_eq!(direct.edge_kind(from, to), recorded.edge_kind(from, to));
                        prop_assert_eq!(pos(&direct, from, to), pos(&recorded, from, to));
                    }
                    prop_assert_eq!(graph_fingerprint(&direct), graph_fingerprint(&recorded));
                }
            }
            prop_assert_eq!(tripped[0], 0, "{:?}: the unlimited budget never trips", lang);
            prop_assert!(tripped[1..].iter().all(|&n| n > 0), "{:?}: {:?}", lang, tripped);
        }
    }

    /// One constraint path: on a random subset of a generated corpus's
    /// files, in random order, folding each file's rows in file order
    /// gives exactly `generate_with_stats` over the union — row for row,
    /// weight for weight. Then one file changes; every other file whose
    /// selection slice survived resolves its old rows into the
    /// re-selected system, the rest re-collect, and the fold again equals
    /// batch generation over the new union.
    #[test]
    fn per_file_row_fold_equals_batch_generation(seed in 0u64..1000) {
        let u = Universe::new();
        let gen = GenOptions { rep_cutoff: 2, ..Default::default() };
        for (lang, frontend, spec) in [
            (Lang::Py, Frontend::Python, u.seed_spec()),
            (Lang::Js, Frontend::Js, u.seed_spec_js()),
        ] {
            let corpus = generate_corpus(
                &u,
                &CorpusOptions { projects: 4, rng_seed: seed, lang, ..Default::default() },
            );
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut graphs: Vec<PropagationGraph> = corpus
                .files()
                .map(|(_, f)| {
                    let sink = GraphSink::new(FileId(0));
                    let lowered = frontend.lower(&f.content, &Budget::unlimited(), sink);
                    lowered.expect("generated files lower").output
                })
                .collect();
            let tele = Telemetry::disabled();
            graphs.shuffle(&mut rng);
            let spare = graphs.pop().expect("a spare file");
            graphs.truncate(rng.gen_range(2..graphs.len().max(3)));

            let lent = graphs.iter().map(|g| Some(Cow::Borrowed(g))).collect();
            let (union, ranges) = union_graphs(lent, &tele);
            let Selection { mut sys, .. } = select(&union, &spec, &gen);
            let files: Vec<(EventReps, FileRows)> = ranges
                .iter()
                .map(|r| {
                    let rows = collect_rows(&union, &sys, &gen, r.clone());
                    (sys.event_reps.slice(r.clone()).to_event_reps(), rows)
                })
                .collect();
            sys.fold(&files.iter().map(|(_, rows)| rows).collect::<Vec<_>>());
            assert_same_rows(&sys, &generate_with_stats(&union, &spec, &gen).0)?;

            // One file changes; the others keep the rows captured above
            // wherever their selection slice is unchanged.
            let changed = rng.gen_range(0..graphs.len());
            graphs[changed] = spare;
            let lent = graphs.iter().map(|g| Some(Cow::Borrowed(g))).collect();
            let (union, ranges) = union_graphs(lent, &tele);
            let Selection { mut sys, .. } = select(&union, &spec, &gen);
            let rows: Vec<FileRows> = ranges
                .iter()
                .enumerate()
                .map(|(i, r)| {
                    let (sel, rows) = &files[i];
                    if i != changed && sel.as_slice() == sys.event_reps.slice(r.clone()) {
                        rows.clone()
                    } else {
                        collect_rows(&union, &sys, &gen, r.clone())
                    }
                })
                .collect();
            sys.fold(&rows.iter().collect::<Vec<_>>());
            assert_same_rows(&sys, &generate_with_stats(&union, &spec, &gen).0)?;
        }
    }

    /// Spec round-trip: any spec assembled from valid entries survives
    /// serialize → parse.
    #[test]
    fn spec_text_round_trip(entries in prop::collection::vec(("[a-z][a-z.]{0,15}\\(\\)", 0usize..3), 0..10)) {
        let mut spec = TaintSpec::new();
        for (api, role_idx) in &entries {
            spec.add(api.clone(), Role::from_index(*role_idx));
        }
        let text = spec.to_text();
        let reparsed = TaintSpec::parse(&text).expect("round-trip parses");
        prop_assert_eq!(spec, reparsed);
    }
}

/// The two systems hold the same variables, pins, counts and rows —
/// same order, variables, coefficient bits and weights.
fn assert_same_rows(a: &ConstraintSystem, b: &ConstraintSystem) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.var_count(), b.var_count());
    prop_assert_eq!(a.pinned_sorted(), b.pinned_sorted());
    prop_assert_eq!(a.constraint_count(), b.constraint_count());
    prop_assert_eq!(a.template_counts(), b.template_counts());
    prop_assert_eq!(a.row_count(), b.row_count());
    for (ra, rb) in a.rows().zip(b.rows()) {
        prop_assert_eq!(ra.weight, rb.weight);
        let bits = |r: &Row| r.terms.iter().map(|&(v, c)| (v, c.to_bits())).collect::<Vec<_>>();
        prop_assert_eq!(bits(&ra), bits(&rb));
    }
    Ok(())
}

#[test]
fn union_of_contracted_equals_contracted_union_size() {
    // Contracting after union merges same representations across files;
    // the collapsed node count equals the number of distinct reps.
    let u = Universe::new();
    let corpus = generate_corpus(&u, &CorpusOptions { projects: 3, ..Default::default() });
    let mut graph = seldon_propgraph::PropagationGraph::new();
    for (i, (_, f)) in corpus.files().enumerate() {
        let g = build_source(&f.content, FileId(i as u32)).unwrap();
        graph.union(&g);
    }
    let (collapsed, mapping) = graph.contract();
    let distinct: std::collections::HashSet<&str> =
        graph.events().map(|(id, _)| graph.rep(id)).collect();
    assert_eq!(collapsed.event_count(), distinct.len());
    assert_eq!(mapping.len(), graph.event_count());
}
