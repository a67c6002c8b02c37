//! # seldon-solver
//!
//! Optimization back end for the Seldon reproduction (§4.4 of the paper):
//! a from-scratch Adam optimizer with box projection, the relaxed
//! hinge-loss objective over information-flow constraints with L1
//! regularization, and §7.1 specification extraction with backoff decay.
//!
//! ## Example
//!
//! ```
//! use seldon_constraints::ConstraintSystem;
//! use seldon_solver::{solve, SolveOptions};
//!
//! let sys = ConstraintSystem::new(0.75);
//! let solution = solve(&sys, &SolveOptions::default());
//! assert_eq!(solution.scores.len(), 0);
//! ```

#![warn(missing_docs)]

pub mod adam;
pub mod compiled;
pub mod extract;
pub mod simplex;
pub mod solve;

pub use adam::{step_element, Adam, AdamConfig};
pub use compiled::CompiledSystem;
pub use extract::{extract, extraction_margin, ExtractOptions, Extraction};
pub use simplex::{simplex, solve_exact, ExactSolution, LpOutcome, LpProblem};
pub use solve::{
    evaluate, solve, solve_compiled, solve_compiled_warm, EarlyStop, Solution, SolveOptions,
    StopReason, EARLY_STOP_STRIDE,
};
