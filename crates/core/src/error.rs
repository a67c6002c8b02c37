//! Pipeline errors.
//!
//! [`PipelineError`] is the full failure taxonomy of the end-to-end
//! pipeline. Under [`FaultPolicy::FailFast`](crate::FaultPolicy) the first
//! bad file's error surfaces as `Err` from
//! [`analyze_corpus_with`](crate::analyze_corpus_with); under
//! [`FaultPolicy::Recover`](crate::FaultPolicy) a budget trip or a panic
//! quarantines its file into the [`AnalysisReport`](crate::AnalysisReport)
//! instead, and parse errors are recovered from.

use seldon_propgraph::BudgetExceeded;
use std::any::Any;
use std::error::Error;
use std::fmt;

/// Renders a payload caught by `catch_unwind` as the text that was passed
/// to `panic!`. Taking the box by value keeps a caller from handing over
/// the box itself as the `Any` (a `&Box<dyn Any>` coerces to a `&dyn Any`
/// whose type is the box, which never downcasts to a string).
pub fn panic_message(payload: Box<dyn Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(message) => *message,
        Err(payload) => match payload.downcast_ref::<&str>() {
            Some(message) => (*message).to_string(),
            None => "non-string panic payload".to_string(),
        },
    }
}

/// Failure of the end-to-end pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PipelineError {
    /// A corpus file failed to lex/parse.
    Parse {
        /// Path of the offending file.
        path: String,
        /// Front-end error message.
        message: String,
    },
    /// A corpus file exceeded a per-file resource budget.
    OverBudget {
        /// Path of the offending file.
        path: String,
        /// Which budget dimension tripped.
        limit: BudgetExceeded,
    },
    /// Analysis of a corpus file panicked; the panic was contained.
    Panicked {
        /// Path of the offending file.
        path: String,
        /// The panic payload, rendered as text.
        message: String,
    },
    /// An I/O failure while reading corpus input.
    Io {
        /// Path of the offending file or directory.
        path: String,
        /// The underlying I/O error message.
        message: String,
    },
    /// A project index was out of range.
    NoSuchProject(usize),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Parse { path, message } => {
                write!(f, "failed to parse {path}: {message}")
            }
            PipelineError::OverBudget { path, limit } => {
                write!(f, "{path} over budget: {limit}")
            }
            PipelineError::Panicked { path, message } => {
                write!(f, "analysis of {path} panicked: {message}")
            }
            PipelineError::Io { path, message } => {
                write!(f, "io error on {path}: {message}")
            }
            PipelineError::NoSuchProject(i) => write!(f, "no project with index {i}"),
        }
    }
}

impl Error for PipelineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        let e = PipelineError::Parse { path: "a.py".into(), message: "boom".into() };
        assert_eq!(e.to_string(), "failed to parse a.py: boom");
        assert_eq!(PipelineError::NoSuchProject(3).to_string(), "no project with index 3");
    }

    #[test]
    fn display_over_budget() {
        let e = PipelineError::OverBudget {
            path: "big.py".into(),
            limit: BudgetExceeded::SourceBytes { limit: 10, actual: 20 },
        };
        assert_eq!(
            e.to_string(),
            "big.py over budget: source size 20 bytes exceeds budget of 10 bytes"
        );
    }

    #[test]
    fn panic_payloads_render_as_their_text() {
        let caught = |f: fn()| std::panic::catch_unwind(f).unwrap_err();
        assert_eq!(panic_message(caught(|| panic!("literal"))), "literal");
        assert_eq!(panic_message(caught(|| panic!("formatted {}", 7))), "formatted 7");
        let other = caught(|| std::panic::panic_any(7u8));
        assert_eq!(panic_message(other), "non-string panic payload");
    }

    #[test]
    fn display_panicked_and_io() {
        let e = PipelineError::Panicked { path: "p.py".into(), message: "overflow".into() };
        assert_eq!(e.to_string(), "analysis of p.py panicked: overflow");
        let e = PipelineError::Io { path: "dir".into(), message: "denied".into() };
        assert_eq!(e.to_string(), "io error on dir: denied");
    }
}
