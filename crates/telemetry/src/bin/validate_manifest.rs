//! Schema validator for `seldon --telemetry` run manifests, used by CI.
//!
//! ```text
//! validate_manifest <manifest.json> [--require-full]
//! ```
//!
//! Exit 0 when the file parses, schema-validates, and survives a lossless
//! serialize→parse round trip. `--require-full` additionally demands all
//! eight pipeline stage spans, a non-empty solver convergence curve with
//! strictly increasing epoch indices, per-template constraint counts that
//! sum to the constraint total, tracked memory accounting, and the
//! `rep_frequency` metric (plus `constraint_gap` whenever the system was
//! actually built, i.e. the run was not a full checkpoint replay).

use seldon_telemetry::{metric, stage, RunManifest};
use std::process::ExitCode;

fn fail(msg: &str) -> ExitCode {
    eprintln!("validate_manifest: {msg}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let require_full = args.iter().any(|a| a == "--require-full");
    let paths: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    let [path] = paths.as_slice() else {
        return fail("usage: validate_manifest <manifest.json> [--require-full]");
    };

    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => return fail(&format!("cannot read {path}: {e}")),
    };
    // Parsing checks the schema version too: only the current one reads.
    let manifest = match RunManifest::from_json(&text) {
        Ok(m) => m,
        Err(e) => return fail(&format!("{path}: {e}")),
    };
    // Round trip: serializing and re-parsing must be lossless.
    match RunManifest::from_json(&manifest.to_json()) {
        Ok(back) if back == manifest => {}
        Ok(_) => return fail(&format!("{path}: serialize→parse round trip is lossy")),
        Err(e) => return fail(&format!("{path}: round trip failed: {e}")),
    }

    if require_full {
        for name in stage::ALL {
            if manifest.stage(name).is_none() {
                return fail(&format!("{path}: missing stage span `{name}`"));
            }
        }
        if manifest.curve.is_empty() {
            return fail(&format!("{path}: empty solver convergence curve"));
        }
        if !manifest.curve.windows(2).all(|w| w[0].epoch < w[1].epoch) {
            return fail(&format!("{path}: solver epochs not strictly increasing"));
        }
        let value = |name: &str| manifest.metrics.value(name);
        let by_template: Option<f64> = metric::TEMPLATES.iter().map(|d| value(d.name)).sum();
        let total = value(metric::CONSTRAINTS[0].name);
        if by_template.is_none() || by_template != total {
            return fail(&format!(
                "{path}: per-template counts sum to {by_template:?}, total is {total:?}"
            ));
        }
        if metric::MEMORY.iter().any(|d| value(d.name).is_none()) {
            return fail(&format!("{path}: memory accounting not tracked"));
        }
        if manifest.metrics.get("rep_frequency").is_none() {
            return fail(&format!("{path}: missing `rep_frequency` metric"));
        }
        // A full checkpoint replay never rebuilds the constraint system,
        // so the gap distribution is legitimately absent only there.
        if manifest.checkpoint != "full" && manifest.metrics.get("constraint_gap").is_none() {
            return fail(&format!("{path}: missing `constraint_gap` metric"));
        }
    }

    println!(
        "{path}: valid RunManifest (schema v{}, {} stage span(s), {} curve point(s))",
        manifest.schema_version,
        manifest.stages.len(),
        manifest.curve.len()
    );
    ExitCode::SUCCESS
}
