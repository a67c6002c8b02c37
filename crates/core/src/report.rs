//! Structured per-file outcomes of a corpus analysis.
//!
//! A fault-tolerant run (see [`FaultPolicy`](crate::FaultPolicy)) never
//! hides degradation: every file the pipeline touched gets a
//! [`FileReport`] recording whether it was analyzed cleanly, recovered
//! leniently, or quarantined — and why. The aggregate [`AnalysisReport`]
//! is what callers (and the `seldon` CLI) use to decide exit status and
//! print degradation summaries.

use crate::error::PipelineError;
use seldon_cache::CacheFault;
use std::fmt;

/// What happened to one corpus file during analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FileOutcome {
    /// The file parsed without an error and extraction succeeded.
    Ok,
    /// The parse reported errors; the file was analyzed with the broken
    /// statements skipped.
    Recovered {
        /// Number of front-end errors skipped during recovery.
        errors: usize,
    },
    /// The file was quarantined because it exceeded a resource budget.
    OverBudget {
        /// The error that caused quarantine.
        error: PipelineError,
    },
    /// Analysis of the file panicked; the panic was contained and the
    /// file quarantined.
    Panicked {
        /// The error that caused quarantine.
        error: PipelineError,
    },
}

impl FileOutcome {
    /// Whether the file contributed a graph to the union (possibly with
    /// lenient recovery).
    pub fn is_analyzed(&self) -> bool {
        matches!(self, FileOutcome::Ok | FileOutcome::Recovered { .. })
    }

    /// Whether the file was excluded from the union.
    pub fn is_quarantined(&self) -> bool {
        !self.is_analyzed()
    }

    /// The parse errors lenient recovery survived (0 unless recovered):
    /// what an artifact records to replay this outcome from the cache.
    pub(crate) fn recovered_errors(&self) -> usize {
        match self {
            FileOutcome::Recovered { errors } => *errors,
            _ => 0,
        }
    }
}

/// Outcome of one corpus file, with its identity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileReport {
    /// Index of the project the file belongs to.
    pub project: usize,
    /// The file's path within the corpus.
    pub path: String,
    /// What happened to it.
    pub outcome: FileOutcome,
}

/// One detected-and-contained artifact-cache fault, attributed to the
/// pipeline item whose lookup hit it.
///
/// Cache faults ride in the same report as per-file analysis faults, but
/// they do **not** degrade a run: a quarantined entry costs a recompute
/// that produces the exact result a cold run would have, so
/// [`AnalysisReport::is_degraded`] ignores them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheFaultReport {
    /// What the lookup was serving: a corpus file path, or a pseudo-item
    /// like `<checkpoint>` / `<index>` for run-level cache files.
    pub path: String,
    /// The contained fault, as classified by the cache.
    pub fault: CacheFault,
}

impl CacheFaultReport {
    /// A fault of the solver checkpoint, filed under `<checkpoint>`.
    pub fn checkpoint(fault: CacheFault) -> CacheFaultReport {
        CacheFaultReport { path: "<checkpoint>".to_string(), fault }
    }
}

/// Aggregate per-file outcomes of one corpus analysis.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AnalysisReport {
    /// One entry per corpus file, in corpus order.
    pub files: Vec<FileReport>,
    /// Artifact-cache faults detected (and recovered from) during the
    /// run; empty when no cache is attached or the cache is healthy.
    pub cache_faults: Vec<CacheFaultReport>,
}

impl AnalysisReport {
    /// Number of files analyzed strictly with no degradation.
    pub fn ok(&self) -> usize {
        self.files.iter().filter(|f| f.outcome == FileOutcome::Ok).count()
    }

    /// Number of files recovered leniently.
    pub fn recovered(&self) -> usize {
        self.files
            .iter()
            .filter(|f| matches!(f.outcome, FileOutcome::Recovered { .. }))
            .count()
    }

    /// Number of files quarantined for budget violations.
    pub fn over_budget(&self) -> usize {
        self.files
            .iter()
            .filter(|f| matches!(f.outcome, FileOutcome::OverBudget { .. }))
            .count()
    }

    /// Number of files whose analysis panicked.
    pub fn panicked(&self) -> usize {
        self.files
            .iter()
            .filter(|f| matches!(f.outcome, FileOutcome::Panicked { .. }))
            .count()
    }

    /// Whether any file was degraded (recovered or quarantined).
    pub fn is_degraded(&self) -> bool {
        self.files.iter().any(|f| f.outcome != FileOutcome::Ok)
    }

    /// Files excluded from the graph union.
    pub fn quarantined(&self) -> impl Iterator<Item = &FileReport> {
        self.files.iter().filter(|f| f.outcome.is_quarantined())
    }

    /// One line per degraded file and per contained cache fault, in
    /// report order: the `warning:` lines `seldon` prints and the `faults`
    /// a `seldon serve` delta response carries.
    pub fn warnings(&self) -> impl Iterator<Item = String> + '_ {
        let files = self.files.iter().filter_map(|file| match &file.outcome {
            FileOutcome::Ok => None,
            FileOutcome::Recovered { errors } => {
                Some(format!("recovered {} ({errors} parse error(s) skipped)", file.path))
            }
            FileOutcome::OverBudget { error } | FileOutcome::Panicked { error } => {
                Some(format!("quarantined {}: {error}", file.path))
            }
        });
        let cache = self.cache_faults.iter().map(|cf| format!("cache fault ({}): {}", cf.path, cf.fault));
        files.chain(cache)
    }

    /// One-line degradation summary, e.g. for CLI stderr.
    pub fn summary(&self) -> String {
        let mut line = format!(
            "{} file(s): {} ok, {} recovered, {} over budget, {} panicked",
            self.files.len(),
            self.ok(),
            self.recovered(),
            self.over_budget(),
            self.panicked(),
        );
        if !self.cache_faults.is_empty() {
            line.push_str(&format!(
                "; {} cache fault(s) contained",
                self.cache_faults.len()
            ));
        }
        line
    }
}

impl fmt::Display for AnalysisReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.summary())?;
        for warning in self.warnings() {
            writeln!(f, "  {warning}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> AnalysisReport {
        AnalysisReport {
            files: vec![
                FileReport { project: 0, path: "a.py".into(), outcome: FileOutcome::Ok },
                FileReport {
                    project: 0,
                    path: "b.py".into(),
                    outcome: FileOutcome::Recovered { errors: 2 },
                },
                FileReport {
                    project: 1,
                    path: "c.py".into(),
                    outcome: FileOutcome::OverBudget {
                        error: PipelineError::OverBudget {
                            path: "c.py".into(),
                            limit: seldon_propgraph::BudgetExceeded::Depth { limit: 64 },
                        },
                    },
                },
                FileReport {
                    project: 1,
                    path: "d.py".into(),
                    outcome: FileOutcome::Panicked {
                        error: PipelineError::Panicked {
                            path: "d.py".into(),
                            message: "boom".into(),
                        },
                    },
                },
            ],
            cache_faults: Vec::new(),
        }
    }

    #[test]
    fn counts() {
        let r = report();
        assert_eq!(r.ok(), 1);
        assert_eq!(r.recovered(), 1);
        assert_eq!(r.over_budget(), 1);
        assert_eq!(r.panicked(), 1);
        assert!(r.is_degraded());
        assert_eq!(r.quarantined().count(), 2);
    }

    #[test]
    fn clean_report_not_degraded() {
        let r = AnalysisReport {
            files: vec![FileReport {
                project: 0,
                path: "a.py".into(),
                outcome: FileOutcome::Ok,
            }],
            cache_faults: Vec::new(),
        };
        assert!(!r.is_degraded());
        assert_eq!(r.quarantined().count(), 0);
    }

    #[test]
    fn cache_faults_do_not_degrade() {
        use seldon_cache::FaultClass;
        let mut r = AnalysisReport {
            files: vec![FileReport {
                project: 0,
                path: "a.py".into(),
                outcome: FileOutcome::Ok,
            }],
            cache_faults: Vec::new(),
        };
        r.cache_faults.push(CacheFaultReport {
            path: "a.py".into(),
            fault: CacheFault {
                entry: "0123456789abcdef.entry".into(),
                class: FaultClass::Corrupt,
                detail: "checksum mismatch".into(),
            },
        });
        assert!(!r.is_degraded(), "cache faults recompute, never degrade");
        assert!(r.summary().contains("1 cache fault(s) contained"));
        let text = r.to_string();
        assert!(text.contains("cache fault (a.py)"));
        assert!(text.contains("checksum mismatch"));
    }

    #[test]
    fn summary_and_display() {
        let r = report();
        assert_eq!(
            r.summary(),
            "4 file(s): 1 ok, 1 recovered, 1 over budget, 1 panicked"
        );
        let text = r.to_string();
        assert!(text.contains("recovered b.py (2 parse error(s) skipped)"));
        assert!(text.contains("quarantined c.py"));
        assert!(text.contains("quarantined d.py"));
        assert!(!text.contains("a.py"));
    }
}
