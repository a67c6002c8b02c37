//! Regenerates the paper's tables and figures from the synthetic corpus.
//!
//! Usage: `cargo run --release -p seldon-bench --bin tables -- [experiment...]`
//! where each experiment is one of: table1 table2 table3 table4 table5
//! fig10 fig11 table6 table7 q5 q6 ablations all. With no arguments, all
//! experiments run. `--projects N` (N ≥ 1) scales the corpus; a bad or
//! missing value, or any other flag, is a usage error (exit 2).

use seldon_bench::*;

/// Parses the command line into the experiment config and the requested
/// experiments.
fn parse_args(
    args: impl IntoIterator<Item = String>,
) -> Result<(ExperimentConfig, Vec<String>), String> {
    let mut cfg = ExperimentConfig::default();
    let mut wanted: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--projects" => {
                let value = it.next().ok_or("--projects needs a value")?;
                cfg.projects =
                    value.parse().ok().filter(|&n| n > 0).ok_or_else(|| {
                        format!("--projects needs a positive integer, got {value:?}")
                    })?;
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag: {flag}")),
            other => wanted.push(other.to_string()),
        }
    }
    Ok((cfg, wanted))
}

fn main() {
    let (cfg, wanted) = match parse_args(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("error: {message}");
            std::process::exit(2);
        }
    };
    if wanted.is_empty() || wanted.iter().any(|w| w == "all") {
        print!("{}", run_all(&cfg));
        return;
    }
    // fig10 does not need the shared workbench.
    let needs_wb = wanted.iter().any(|w| w != "fig10");
    let wb = if needs_wb { Some(Workbench::new(&cfg)) } else { None };
    for w in &wanted {
        let table = match (w.as_str(), &wb) {
            ("fig10", _) => fig10(&cfg),
            ("table1", Some(wb)) => table1(wb),
            ("table2", Some(wb)) => table2(wb),
            ("table3", Some(wb)) => table3(wb),
            ("table4", Some(wb)) => table4(wb),
            ("table5", Some(wb)) => table5(wb),
            ("fig11", Some(wb)) => fig11(wb),
            ("table6", Some(wb)) => table6(wb),
            ("table7", Some(wb)) => table7(wb),
            ("q5", Some(wb)) => q5(wb),
            ("q6", Some(wb)) => q6(wb),
            ("ablations", Some(wb)) => ablations(wb),
            ("extension", Some(wb)) => extension_param(wb),
            ("solver_gap", Some(wb)) => solver_gap(wb),
            ("templates", Some(wb)) => template_ablation(wb),
            ("backoff", Some(wb)) => backoff_ablation(wb),
            ("convergence", Some(wb)) => convergence(wb),
            (other, _) => {
                eprintln!("unknown experiment: {other}");
                std::process::exit(2);
            }
        };
        print!("{}", table.render());
    }
}

#[cfg(test)]
mod tests {
    use super::parse_args;

    fn parse(args: &[&str]) -> Result<(usize, Vec<String>), String> {
        parse_args(args.iter().map(|a| a.to_string())).map(|(cfg, wanted)| (cfg.projects, wanted))
    }

    #[test]
    fn projects_value_must_be_a_positive_integer() {
        assert_eq!(parse(&[]), Ok((400, vec![])));
        assert_eq!(parse(&["--projects", "30", "table1"]), Ok((30, vec!["table1".into()])));
        for bad in [
            &["--projects", "abc"][..],
            &["--projects"],
            &["--projects", "0"],
            &["--projects", "-3"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be a usage error");
        }
        assert!(parse(&["--threads", "4", "all"]).is_err(), "--threads is gone");
    }
}
