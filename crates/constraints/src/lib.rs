//! # seldon-constraints
//!
//! Linear information-flow constraint generation for the Seldon
//! reproduction (§4 of the paper): variable creation per representation and
//! role, backoff selection with frequency cutoff, seed-specification
//! pinning, and BFS collection of the three Fig. 4 constraint templates.
//!
//! ## Example
//!
//! ```
//! use seldon_constraints::{generate, GenOptions};
//! use seldon_propgraph::{build_source, FileId};
//! use seldon_specs::TaintSpec;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let graph = build_source("from m import f\nx = f()\n", FileId(0))?;
//! let opts = GenOptions { rep_cutoff: 1, ..Default::default() };
//! let system = generate(&graph, &TaintSpec::new(), &opts);
//! assert!(system.var_count() > 0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod gen;
pub mod system;

pub use gen::{
    collect_rows, generate, generate_with_stats, select, GenOptions, GenStats, Selection,
};
pub use system::{
    ConstraintSystem, EventReps, FileRows, FlowConstraint, RepId, RepsSlice, Row, Template, Term,
    VarId,
};
