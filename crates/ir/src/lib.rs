//! Language-neutral frontend IR for the Seldon pipeline.
//!
//! Every language frontend (Python in `seldon-pyast`/`seldon-propgraph`,
//! the JS-like subset in `seldon-jsfront`) lowers source text into one
//! shared stream of propagation-graph events ([`IrEvent`]) and the
//! construction ops ([`IrOp`]) that connect them. The product path hands
//! that stream straight to a graph sink; a recording sink keeps it as an
//! [`IrProgram`], which `seldon_propgraph::build_ir` replays into the same
//! graph sink. Representations, constraints, the solver, and taint
//! extraction never see a language-specific node.
//!
//! This crate also hosts the frontend-neutral [`Span`] and
//! [`FrontendError`] types; `seldon-pyast` re-exports them.

#![warn(missing_docs)]

pub mod error;
pub mod program;
pub mod span;

pub use error::{FrontendError, LexError, LexErrorKind, ParseError};
pub use program::{
    IrArgPos, IrEdgeKind, IrEvent, IrEventKind, IrFunc, IrOp, IrParam, IrPendingCall, IrProgram,
};
pub use span::Span;
