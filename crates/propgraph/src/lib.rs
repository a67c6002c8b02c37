//! # seldon-propgraph
//!
//! Propagation graphs for the Seldon reproduction (§3 and §5 of the paper):
//! events (calls, object reads, formal parameters), representation backoff
//! chains, an Andersen-style points-to analysis, the per-file graph builder,
//! graph union for big-code learning, and vertex contraction for the Merlin
//! baseline.
//!
//! ## Example
//!
//! ```
//! use seldon_propgraph::{build_source, FileId};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let graph = build_source(
//!     "from flask import request\nname = request.args.get('n')\n",
//!     FileId(0),
//! )?;
//! assert!(graph.event_count() >= 2);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod andersen;
pub mod budget;
pub mod builder;
pub mod dot;
pub mod emit;
pub mod event;
pub mod graph;
pub mod irbuild;
pub mod lower;
pub mod repr;
pub mod search;

pub use budget::{Budget, BudgetExceeded, BudgetMeter};
pub use builder::build_source;
pub use dot::to_dot;
pub use emit::{Recorder, Sink};
pub use event::{Event, EventId, EventKind, EventView, FileId};
pub use graph::{
    ArgPos, Edge, EdgeKind, GraphBuilder, GraphParts, IdHash, IdHasher, PropagationGraph, Starts,
};
pub use irbuild::{build_ir, GraphSink};
pub use lower::{lower_module_budgeted, lower_module_into};
pub use repr::{
    describe_syms, describe_variants, ImportMap, ReprCtx,
    VariantArena, Variants, MAX_CHAIN_DEPTH,
};
pub use search::{Direction, SearchWorkspace};
pub use seldon_intern::{Symbol, Symbols};
