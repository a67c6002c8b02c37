//! `--agree A B`: do two sets of saved runs agree within the benchmark's
//! own bounds?
//!
//! Each file holds the output of one or more all-workload runs; every
//! line of the form `{"workload": ..., "seed": ..., "result": {...}}` is
//! one run of one workload, and other lines are ignored. For every
//! workload and every end-to-end metric in `BENCHMARK.json` (read from
//! the working directory), both sides' median and quartiles are printed,
//! and B's median may be worse than A's by at most the metric's bound,
//! as a share of A's median. Workloads `BENCHMARK.json` does not list are
//! printed too, but no bound applies to them.

use crate::stats::{median, quartiles, RunResult};
use seldon_telemetry::json::{self, Json};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

/// An end-to-end metric's regression rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Whether lower values are better.
    pub lower_is_better: bool,
    /// Largest allowed worsening, as a share of the baseline median.
    pub bound: f64,
}

/// What `--agree` reads from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Rules {
    /// The workloads the bounds apply to.
    pub workloads: Vec<String>,
    /// One bound per end-to-end metric.
    pub bounds: Vec<Bound>,
}

/// Reads the workload names and `end_to_end` bounds of a
/// `BENCHMARK.json` text.
pub fn rules(benchmark: &str) -> Result<Rules, String> {
    let doc = json::parse(benchmark).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = |key: &str| {
        doc.get(key).and_then(Json::as_arr).ok_or(format!("BENCHMARK.json has no {key} list"))
    };
    let name = |entry: &Json, list: &str| {
        let name = entry.get("name").and_then(Json::as_str);
        name.map(str::to_string).ok_or(format!("{list} entry without a `name` string"))
    };
    let workloads =
        list("workloads")?.iter().map(|w| name(w, "workloads")).collect::<Result<_, _>>();
    let bounds = list("end_to_end")?
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).ok_or(format!("end_to_end entry without `{k}`"));
            Ok(Bound {
                name: name(m, "end_to_end")?,
                lower_is_better: field("better")?.as_str() == Some("lower"),
                bound: field("bound")?.as_f64().ok_or("bound is not a number")?,
            })
        })
        .collect::<Result<_, String>>();
    Ok(Rules { workloads: workloads?, bounds: bounds? })
}

/// workload → metric → one value per saved run, plus how many runs were
/// incorrect.
#[derive(Debug, Default)]
pub struct Runs {
    values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    incorrect: usize,
}

/// Collects the tagged result lines of `text`.
pub fn parse_runs(text: &str) -> Runs {
    let mut runs = Runs::default();
    for line in text.lines().filter(|l| l.trim_start().starts_with('{')) {
        let Ok(tagged) = json::parse(line) else {
            continue;
        };
        let (Some(workload), Some(result)) = (
            tagged.get("workload").and_then(Json::as_str),
            tagged.get("result").and_then(RunResult::from_json),
        ) else {
            continue;
        };
        runs.incorrect += usize::from(!result.correct || result.failed > 0);
        let per_metric = runs.values.entry(workload.to_string()).or_default();
        for m in result.metrics {
            per_metric.entry(m.name).or_default().push(m.value);
        }
    }
    runs
}

/// Compares B against A; true when every metric of every workload the
/// rules list holds its bound.
pub fn agree(a: &Runs, b: &Runs, rules: &Rules) -> bool {
    let mut ok = a.incorrect == 0 && b.incorrect == 0;
    if a.incorrect + b.incorrect > 0 {
        println!("incorrect runs: {} in A, {} in B", a.incorrect, b.incorrect);
    }
    println!(
        "{:<18} {:<16} {:>30} {:>30} {:>8} {:>6}",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "worse", "bound"
    );
    for workload in &rules.workloads {
        if !a.values.contains_key(workload) {
            println!("{workload:<18} missing from A");
            ok = false;
        }
    }
    for (workload, metrics_a) in &a.values {
        let gated = rules.workloads.contains(workload);
        for bound in &rules.bounds {
            let va = metrics_a.get(&bound.name);
            let vb = b.values.get(workload).and_then(|m| m.get(&bound.name));
            let (Some(va), Some(vb)) = (va, vb) else {
                println!("{workload:<18} {:<16} missing from one side", bound.name);
                ok &= !gated;
                continue;
            };
            let (ma, mb) = (median(va), median(vb));
            let worse = if bound.lower_is_better { (mb - ma) / ma } else { (ma - mb) / ma };
            let holds = worse <= bound.bound;
            ok &= holds || !gated;
            let side = |m: f64, v: &[f64]| {
                let (q1, q3) = quartiles(v);
                format!("{m:.4} [{q1:.4}, {q3:.4}] n={}", v.len())
            };
            println!(
                "{workload:<18} {:<16} {:>30} {:>30} {:>7.1}% {:>5.1}%{}",
                bound.name,
                side(ma, va),
                side(mb, vb),
                100.0 * worse,
                100.0 * bound.bound,
                match (gated, holds) {
                    (false, _) => "  not in BENCHMARK.json",
                    (true, true) => "",
                    (true, false) => "  EXCEEDED",
                }
            );
        }
    }
    ok
}

/// The `--agree` command: exit 0 when B agrees with A, 1 when a bound is
/// exceeded or a run was incorrect, 2 when the inputs cannot be read.
pub fn run(a: &Path, b: &Path) -> ExitCode {
    let read = |p: &Path| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
    let loaded =
        (|| Ok::<_, String>((rules(&read(Path::new("BENCHMARK.json"))?)?, read(a)?, read(b)?)))();
    match loaded {
        Ok((rules, a, b)) => {
            if agree(&parse_runs(&a), &parse_runs(&b), &rules) {
                println!("agree: every end-to-end metric holds its bound");
                ExitCode::SUCCESS
            } else {
                println!("agree: FAILED");
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(workload: &str, p50: f64, precision: f64) -> String {
        format!(
            r#"{{"workload":"{workload}","seed":1,"result":{{"correct":true,"attempted":5,"failed":0,"metrics":{{"op_p50_ms":{{"value":{p50},"unit":"ms"}},"spec_precision":{{"value":{precision},"unit":"fraction"}}}}}}}}"#
        )
    }

    fn runs(lines: &[String]) -> Runs {
        parse_runs(&lines.join("\n"))
    }

    fn sample_rules() -> Rules {
        Rules {
            workloads: vec!["learn-cold".into()],
            bounds: vec![
                Bound { name: "op_p50_ms".into(), lower_is_better: true, bound: 0.1 },
                Bound { name: "spec_precision".into(), lower_is_better: false, bound: 0.001 },
            ],
        }
    }

    #[test]
    fn medians_within_bounds_agree_and_regressions_do_not() {
        let a =
            runs(&[line("learn-cold", 100.0, 0.9), line("learn-cold", 104.0, 0.9), "noise".into()]);
        let same = runs(&[line("learn-cold", 105.0, 0.9), line("learn-cold", 107.0, 0.9)]);
        assert!(agree(&a, &same, &sample_rules()));
        let slower = runs(&[line("learn-cold", 120.0, 0.9)]);
        assert!(!agree(&a, &slower, &sample_rules()), "p50 18% worse");
        let less_precise = runs(&[line("learn-cold", 100.0, 0.89)]);
        assert!(!agree(&a, &less_precise, &sample_rules()), "precision 1.1% worse");
        assert!(!agree(&a, &parse_runs(""), &sample_rules()), "a missing side never agrees");
        assert!(!agree(&parse_runs(""), &a, &sample_rules()), "nor a missing baseline");
    }

    #[test]
    fn workloads_benchmark_json_does_not_list_are_not_gated() {
        let a = runs(&[line("learn-cold", 100.0, 0.9), line("serve-edit", 40.0, 0.9)]);
        let b = runs(&[line("learn-cold", 100.0, 0.9), line("serve-edit", 60.0, 0.9)]);
        assert!(agree(&a, &b, &sample_rules()));
    }

    #[test]
    fn benchmark_rules_parse() {
        let text = r#"{"workloads":[{"name":"learn-cold","why":"w"}],
            "end_to_end":[{"name":"setup_s","unit":"s","better":"lower","bound":0.1}]}"#;
        assert_eq!(
            rules(text).expect("parses"),
            Rules {
                workloads: vec!["learn-cold".into()],
                bounds: vec![Bound { name: "setup_s".into(), lower_is_better: true, bound: 0.1 }],
            }
        );
    }
}
