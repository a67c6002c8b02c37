//! Per-file resource budgets for graph extraction.
//!
//! Arbitrary repository files can be pathological — megabytes of minified
//! source, thousands of nested blocks, or simply enormous statement counts
//! — and the paper's big-code setting (§5, §7) requires each file to cost
//! *bounded* work. A [`Budget`] caps the input size up front and is
//! checked cooperatively inside the builder as statements are walked, so a
//! pathological file fails fast with a typed [`BudgetExceeded`] instead of
//! hanging the corpus run.

use std::fmt;
use std::time::{Duration, Instant};

/// Resource limits applied to one file's extraction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Budget {
    /// Maximum source size in bytes, checked before parsing.
    pub max_source_bytes: usize,
    /// Maximum number of statements walked (inlining re-walks count too).
    pub max_statements: usize,
    /// Maximum statement nesting depth.
    pub max_depth: usize,
    /// Per-file wall-clock deadline, checked cooperatively while walking.
    pub max_wall: Option<Duration>,
}

impl Default for Budget {
    fn default() -> Self {
        // Generous enough that no legitimate source file trips them; tight
        // enough that adversarial input costs bounded work.
        Budget {
            max_source_bytes: 4 << 20,
            max_statements: 200_000,
            max_depth: 64,
            max_wall: Some(Duration::from_secs(10)),
        }
    }
}

impl Budget {
    /// A budget with no limits (never trips).
    pub fn unlimited() -> Self {
        Budget {
            max_source_bytes: usize::MAX,
            max_statements: usize::MAX,
            max_depth: usize::MAX,
            max_wall: None,
        }
    }

    /// Checks the source-size limit, the one gate applied before parsing.
    ///
    /// # Errors
    ///
    /// Returns [`BudgetExceeded::SourceBytes`] when `source` is larger
    /// than `max_source_bytes`.
    pub fn check_source(&self, source: &str) -> Result<(), BudgetExceeded> {
        if source.len() > self.max_source_bytes {
            return Err(BudgetExceeded::SourceBytes {
                limit: self.max_source_bytes,
                actual: source.len(),
            });
        }
        Ok(())
    }
}

/// Which budget dimension a file exceeded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BudgetExceeded {
    /// Source text larger than `max_source_bytes`.
    SourceBytes {
        /// The configured limit.
        limit: usize,
        /// The file's actual size.
        actual: usize,
    },
    /// More statements walked than `max_statements`.
    Statements {
        /// The configured limit.
        limit: usize,
    },
    /// Nesting deeper than `max_depth`.
    Depth {
        /// The configured limit.
        limit: usize,
    },
    /// The wall-clock deadline elapsed.
    Deadline {
        /// The configured limit.
        limit: Duration,
    },
}

impl fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BudgetExceeded::SourceBytes { limit, actual } => {
                write!(f, "source size {actual} bytes exceeds budget of {limit} bytes")
            }
            BudgetExceeded::Statements { limit } => {
                write!(f, "statement count exceeds budget of {limit}")
            }
            BudgetExceeded::Depth { limit } => {
                write!(f, "nesting depth exceeds budget of {limit}")
            }
            BudgetExceeded::Deadline { limit } => {
                write!(f, "extraction exceeded deadline of {limit:?}")
            }
        }
    }
}

impl std::error::Error for BudgetExceeded {}

/// How often the cooperative walk re-reads the clock.
const DEADLINE_CHECK_INTERVAL: usize = 256;

/// Live accounting against a [`Budget`] during one file's walk.
///
/// Public so every frontend's lowering pass (Python here, `seldon-jsfront`
/// elsewhere) meters statements against the same budget semantics.
#[derive(Debug)]
pub struct BudgetMeter {
    budget: Budget,
    started: Instant,
    statements: usize,
    tripped: Option<BudgetExceeded>,
}

impl BudgetMeter {
    /// Starts metering against `budget` (the wall clock starts now).
    pub fn new(budget: Budget) -> Self {
        BudgetMeter { budget, started: Instant::now(), statements: 0, tripped: None }
    }

    /// Records one statement at `depth`; returns `false` once any limit is
    /// exceeded (callers then unwind cooperatively).
    pub fn tick_statement(&mut self, depth: usize) -> bool {
        if self.tripped.is_some() {
            return false;
        }
        self.statements += 1;
        if self.statements > self.budget.max_statements {
            self.tripped =
                Some(BudgetExceeded::Statements { limit: self.budget.max_statements });
            return false;
        }
        if depth > self.budget.max_depth {
            self.tripped = Some(BudgetExceeded::Depth { limit: self.budget.max_depth });
            return false;
        }
        if let Some(max_wall) = self.budget.max_wall {
            if self.statements.is_multiple_of(DEADLINE_CHECK_INTERVAL)
                && self.started.elapsed() > max_wall
            {
                self.tripped = Some(BudgetExceeded::Deadline { limit: max_wall });
                return false;
            }
        }
        true
    }

    #[cfg(test)]
    pub(crate) fn tripped(&self) -> Option<&BudgetExceeded> {
        self.tripped.as_ref()
    }

    /// Consumes the meter, returning the limit that tripped, if any.
    pub fn into_tripped(self) -> Option<BudgetExceeded> {
        self.tripped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_trips() {
        let mut m = BudgetMeter::new(Budget::unlimited());
        for _ in 0..10_000 {
            assert!(m.tick_statement(5_000));
        }
        assert!(m.tripped().is_none());
    }

    #[test]
    fn statement_limit_trips() {
        let mut m = BudgetMeter::new(Budget { max_statements: 10, ..Budget::unlimited() });
        for _ in 0..10 {
            assert!(m.tick_statement(0));
        }
        assert!(!m.tick_statement(0));
        assert!(matches!(m.tripped(), Some(BudgetExceeded::Statements { limit: 10 })));
        // Stays tripped.
        assert!(!m.tick_statement(0));
    }

    #[test]
    fn depth_limit_trips() {
        let mut m = BudgetMeter::new(Budget { max_depth: 3, ..Budget::unlimited() });
        assert!(m.tick_statement(3));
        assert!(!m.tick_statement(4));
        assert!(matches!(m.tripped(), Some(BudgetExceeded::Depth { limit: 3 })));
    }

    #[test]
    fn deadline_trips() {
        let mut m = BudgetMeter::new(Budget {
            max_wall: Some(Duration::ZERO),
            ..Budget::unlimited()
        });
        let mut tripped = false;
        // The clock is only consulted every DEADLINE_CHECK_INTERVAL ticks.
        for _ in 0..=DEADLINE_CHECK_INTERVAL {
            if !m.tick_statement(0) {
                tripped = true;
                break;
            }
        }
        assert!(tripped);
        assert!(matches!(m.tripped(), Some(BudgetExceeded::Deadline { .. })));
    }

    #[test]
    fn source_check_trips_only_past_the_limit() {
        let b = Budget { max_source_bytes: 4, ..Budget::unlimited() };
        assert!(b.check_source("abcd").is_ok());
        assert_eq!(
            b.check_source("abcde"),
            Err(BudgetExceeded::SourceBytes { limit: 4, actual: 5 })
        );
        assert!(Budget::unlimited().check_source("abcde").is_ok());
    }

    #[test]
    fn display_messages() {
        let e = BudgetExceeded::SourceBytes { limit: 10, actual: 20 };
        assert_eq!(e.to_string(), "source size 20 bytes exceeds budget of 10 bytes");
        assert!(BudgetExceeded::Statements { limit: 5 }.to_string().contains('5'));
        assert!(BudgetExceeded::Depth { limit: 7 }.to_string().contains('7'));
        assert!(BudgetExceeded::Deadline { limit: Duration::from_secs(1) }
            .to_string()
            .contains("deadline"));
    }
}
