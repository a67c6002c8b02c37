//! Compares two benchmark records (`BENCH_*.json`) with tolerance
//! thresholds — the CI regression gate.
//!
//! ```text
//! bench_diff <baseline.json> <candidate.json> [--tolerance <pct>]
//! ```
//!
//! Cost keys (suffix `_ns`/`_us`/`_ms`/`_s`/`_bytes`) gate at the relative
//! tolerance (default ±15%) with a per-unit absolute slack so noise on
//! tiny scalars never trips the gate; every other changed key is reported
//! as a non-gating note. Exit codes: `0` — no regression (improvements
//! allowed); `1` — at least one regression; `2` — usage error.

use seldon_telemetry::{diff_bench, parse_tolerance_pct, BenchRecord, DiffOptions};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: bench_diff <baseline.json> <candidate.json> [--tolerance <pct>]");
    ExitCode::from(2)
}

fn load(path: &str) -> Result<BenchRecord, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    BenchRecord::from_json(&text).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths = Vec::new();
    let mut opts = DiffOptions::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--tolerance" => {
                let Some(v) = it.next() else {
                    return usage();
                };
                match parse_tolerance_pct(v) {
                    Ok(pct) => opts.tolerance_pct = pct,
                    Err(e) => {
                        eprintln!("error: {e}");
                        return usage();
                    }
                }
            }
            "-h" | "--help" => return usage(),
            other if other.starts_with('-') => return usage(),
            other => paths.push(other.to_string()),
        }
    }
    let [baseline, candidate] = paths.as_slice() else {
        return usage();
    };
    let (a, b) = match (load(baseline), load(candidate)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let report = diff_bench(&a, &b, &opts);
    println!("bench_diff: {baseline} -> {candidate} (tolerance ±{}%)", opts.tolerance_pct);
    print!("{}", report.render());
    if report.regressed() {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
