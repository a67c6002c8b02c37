//! Fault injection for the fault-tolerance harness.
//!
//! A corpus generated with [`CorpusOptions::fault_rate`](crate::CorpusOptions)
//! `> 0` gets a deterministic fraction of its files corrupted after
//! generation, each labeled with the [`FaultKind`] applied so tests can
//! assert that the pipeline quarantines *exactly* the faulty files. The
//! fault RNG is separate from the generation RNG, so a `fault_rate` of `0`
//! produces byte-identical corpora to builds that predate fault injection.
//!
//! This module damages *source files* before they enter the pipeline; its
//! sibling `seldon_cache::inject_cache_faults` damages *on-disk cache
//! entries* (torn writes, truncations, bit flips, stale stamps) after a
//! run has stored them. Together they cover both persistence boundaries
//! the robustness suite asserts over.

use crate::generator::Corpus;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Marker comment that asks the pipeline's fault harness to panic while
/// analyzing the file (see `AnalyzeOptions::fault_markers` in
/// `seldon-core`). It is a plain Python comment, so the file stays
/// parseable when the harness is off.
pub const PANIC_MARKER: &str = "# seldon:inject-panic";

/// The kinds of file corruption the injector can apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// File cut off mid-source with an unterminated definition appended —
    /// a parse error; recovery keeps the statements before it.
    Truncated,
    /// A malformed, stray-indented statement appended — after top-level
    /// code a parse error that recovery skips; after an indented block an
    /// inconsistent dedent, which fails lexing so recovery keeps nothing.
    BadIndent,
    /// Control bytes and token garbage spliced in — fails lexing/parsing.
    CorruptBytes,
    /// A pathologically nested function appended — valid Python, but
    /// exceeds any sane nesting-depth budget.
    DeepNesting,
    /// Megabytes of padding appended — valid Python, but exceeds the
    /// source-size budget.
    Oversized,
    /// [`PANIC_MARKER`] appended — valid Python; panics the analysis only
    /// when the pipeline's fault harness is armed.
    PanicMarker,
}

impl FaultKind {
    /// Every fault kind, in injection rotation order.
    pub const ALL: [FaultKind; 6] = [
        FaultKind::Truncated,
        FaultKind::BadIndent,
        FaultKind::CorruptBytes,
        FaultKind::DeepNesting,
        FaultKind::Oversized,
        FaultKind::PanicMarker,
    ];
}

/// Record of one injected fault — the label tests assert against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedFault {
    /// Project index within the corpus.
    pub project: usize,
    /// Path of the corrupted file within the project.
    pub path: String,
    /// What was done to it.
    pub kind: FaultKind,
}

/// Nesting depth of [`FaultKind::DeepNesting`]; comfortably above the
/// default depth budget (64) while keeping parser recursion shallow.
const NESTING_DEPTH: usize = 96;

/// Padding target of [`FaultKind::Oversized`]; just above the default
/// source-size budget of 4 MiB.
const OVERSIZED_BYTES: usize = (4 << 20) + 1024;

/// Applies `kind` to `content` in place.
pub fn apply_fault(content: &mut String, kind: FaultKind) {
    match kind {
        FaultKind::Truncated => {
            // Cut at a char boundary near 60%, then guarantee a strict
            // parse failure whatever the cut left behind.
            let mut cut = (content.len() * 3) / 5;
            while cut < content.len() && !content.is_char_boundary(cut) {
                cut += 1;
            }
            content.truncate(cut);
            content.push_str("\ndef truncated_tail(arg\n");
        }
        FaultKind::BadIndent => {
            content.push_str("\n  stray_indent = = 1\n");
        }
        FaultKind::CorruptBytes => {
            content.push_str("\nbad \u{0}\u{1}\u{7} token = = (\n");
        }
        FaultKind::DeepNesting => {
            content.push_str("\ndef pathologically_nested(flag):\n");
            for level in 0..NESTING_DEPTH {
                for _ in 0..level + 1 {
                    content.push_str("    ");
                }
                content.push_str("if flag:\n");
            }
            for _ in 0..NESTING_DEPTH + 1 {
                content.push_str("    ");
            }
            content.push_str("flag = flag\n");
        }
        FaultKind::Oversized => {
            content.push_str("\n# padding\n");
            let line = format!("# {}\n", "x".repeat(62));
            let lines = OVERSIZED_BYTES / line.len() + 1;
            content.reserve(lines * line.len());
            for _ in 0..lines {
                content.push_str(&line);
            }
        }
        FaultKind::PanicMarker => {
            content.push('\n');
            content.push_str(PANIC_MARKER);
            content.push('\n');
        }
    }
}

/// Corrupts roughly `rate` of the corpus's files, cycling through
/// [`FaultKind::ALL`] so every kind appears in a large enough corpus.
/// Deterministic in `seed`; records every fault in `corpus.faults`.
pub(crate) fn inject_faults(corpus: &mut Corpus, rate: f64, seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x00FA_171D);
    let rate = rate.clamp(0.0, 1.0);
    let mut faults = Vec::new();
    let mut next_kind = 0usize;
    for (pi, project) in corpus.projects.iter_mut().enumerate() {
        for file in &mut project.files {
            if !rng.gen_bool(rate) {
                continue;
            }
            let kind = FaultKind::ALL[next_kind % FaultKind::ALL.len()];
            next_kind += 1;
            apply_fault(&mut file.content, kind);
            faults.push(InjectedFault { project: pi, path: file.path.clone(), kind });
        }
    }
    corpus.faults.extend(faults);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate_corpus, CorpusOptions};
    use crate::universe::Universe;
    use seldon_propgraph::{build_source, lower_module_budgeted, Budget, BudgetExceeded, FileId};

    const CLEAN: &str = "import flask\n\ndef handler():\n    x = flask.request.args.get('q')\n    return x\n";

    fn faulted(kind: FaultKind) -> String {
        let mut s = CLEAN.to_string();
        apply_fault(&mut s, kind);
        s
    }

    #[test]
    fn parse_breaking_faults_fail_strict_parse() {
        for kind in [FaultKind::Truncated, FaultKind::BadIndent, FaultKind::CorruptBytes] {
            let s = faulted(kind);
            assert!(
                build_source(&s, FileId(0)).is_err(),
                "{kind:?} should break strict parsing:\n{s}"
            );
        }
    }

    #[test]
    fn budget_faults_parse_but_trip_default_budget() {
        let deep = faulted(FaultKind::DeepNesting);
        let module = seldon_pyast::parse(&deep).expect("deep nesting still parses");
        assert!(matches!(
            lower_module_budgeted(&module, &Budget::default()),
            Err(BudgetExceeded::Depth { .. })
        ));
        let big = faulted(FaultKind::Oversized);
        assert!(matches!(
            Budget::default().check_source(&big),
            Err(BudgetExceeded::SourceBytes { .. })
        ));
        // Without a budget, deep nesting is merely slow, not fatal.
        assert!(build_source(&deep, FileId(0)).is_ok());
    }

    #[test]
    fn panic_marker_file_stays_parseable() {
        let s = faulted(FaultKind::PanicMarker);
        assert!(s.contains(PANIC_MARKER));
        assert!(build_source(&s, FileId(0)).is_ok());
    }

    #[test]
    fn zero_rate_is_byte_identical_to_clean_generation() {
        let opts = CorpusOptions { projects: 4, ..Default::default() };
        let clean = generate_corpus(&Universe::new(), &opts);
        let zero = generate_corpus(
            &Universe::new(),
            &CorpusOptions { fault_rate: 0.0, ..opts },
        );
        assert!(zero.faults.is_empty());
        let a: Vec<&str> = clean.files().map(|(_, f)| f.content.as_str()).collect();
        let b: Vec<&str> = zero.files().map(|(_, f)| f.content.as_str()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn injection_is_deterministic_and_labeled() {
        let opts = CorpusOptions { projects: 6, fault_rate: 0.5, ..Default::default() };
        let a = generate_corpus(&Universe::new(), &opts);
        let b = generate_corpus(&Universe::new(), &opts);
        assert!(!a.faults.is_empty(), "rate 0.5 over many files must fault some");
        assert_eq!(a.faults, b.faults);
        for fault in &a.faults {
            let file = a.projects[fault.project]
                .files
                .iter()
                .find(|f| f.path == fault.path)
                .expect("fault references an existing file");
            if fault.kind == FaultKind::PanicMarker {
                assert!(file.content.contains(PANIC_MARKER));
            }
        }
    }

    #[test]
    fn full_rate_faults_every_file_and_covers_all_kinds() {
        let opts = CorpusOptions { projects: 4, fault_rate: 1.0, ..Default::default() };
        let c = generate_corpus(&Universe::new(), &opts);
        assert_eq!(c.faults.len(), c.file_count());
        let kinds: std::collections::HashSet<FaultKind> =
            c.faults.iter().map(|f| f.kind).collect();
        assert_eq!(kinds.len(), FaultKind::ALL.len(), "rotation covers every kind");
    }
}
