//! # seldon-jsfront
//!
//! A JS-like subset frontend for the Seldon reproduction, proving the
//! language-neutral IR split: this crate lexes, parses, and lowers
//! JavaScript-flavored source (functions, calls, member chains,
//! assignments, `var`/`let`/`const`, ES and CommonJS imports) through the
//! same emitter the Python frontend walks, into either of its sinks: the
//! propagation graph itself, or a recorded [`seldon_ir::IrProgram`]. Graph
//! construction, representations backoff, constraints, the solver, and
//! the taint pipeline are all reused unchanged from `seldon-propgraph`
//! onward — no per-language branches exist past the emitter.
//!
//! Like the Python front end it is zero-copy: [`parse`] returns a
//! [`Program<'src>`](ast::Program) whose names, properties, import paths,
//! parameters and literals borrow the source text, and every token is a
//! slice of it. Only a string literal with escapes is decoded into owned
//! text.
//!
//! ## Example
//!
//! ```
//! use seldon_jsfront::build_js_source;
//! use seldon_propgraph::FileId;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let graph = build_js_source(
//!     "const express = require('express');\nconst app = express();\n",
//!     FileId(0),
//! )?;
//! assert!(graph.event_count() >= 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod lexer;
pub mod lower;
pub mod parser;

pub use lower::{lower_js_program_budgeted, lower_js_program_into};
pub use parser::{parse, parse_lenient};

use seldon_ir::FrontendError;
use seldon_propgraph::{Budget, FileId, GraphSink, PropagationGraph};

/// Parses JS-like `source` strictly and builds its propagation graph,
/// without resource limits. The per-file front end with budgets and
/// lenient parsing is `seldon_core::Frontend::lower`.
///
/// # Errors
///
/// Returns a [`FrontendError`] if the source fails to lex or parse.
pub fn build_js_source(source: &str, file: FileId) -> Result<PropagationGraph, FrontendError> {
    let program = parse(source)?;
    Ok(
        lower_js_program_into(&program, &Budget::unlimited(), GraphSink::new(file))
            .expect("an unlimited budget never trips"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use seldon_propgraph::BudgetExceeded;

    #[test]
    fn end_to_end_flow_reaches_sink() {
        let src = "import { query } from './db';\n\
                   function route(req) {\n\
                     const name = req.body.name;\n\
                     query(name);\n\
                     return name;\n\
                   }\n";
        let g = build_js_source(src, FileId(3)).expect("builds");
        let param = g
            .events()
            .find(|&(id, _)| g.has_rep(id, "route(param req)"))
            .map(|(id, _)| id)
            .expect("param event");
        let sink = g
            .events()
            .find(|&(id, _)| g.has_rep(id, "db.query()"))
            .map(|(id, _)| id)
            .expect("sink event");
        // param → req.body → req.body.name → query(name)
        let mut frontier = vec![param];
        let mut reached = false;
        let mut seen = std::collections::HashSet::new();
        while let Some(ev) = frontier.pop() {
            if ev == sink {
                reached = true;
                break;
            }
            for s in g.successors(ev) {
                if seen.insert(s) {
                    frontier.push(s);
                }
            }
        }
        assert!(
            reached,
            "taint must flow from the parameter to the sink call"
        );
        // Events carry the stamped file id.
        assert!(g.events().all(|(_, e)| e.file == FileId(3)));
    }

    #[test]
    fn lenient_build_reports_errors_and_keeps_going() {
        let src = "const a = f(;\nconst fs = require('fs');\nfs.readFile(p);\n";
        let (program, errors) = parse_lenient(src);
        assert_eq!(errors.len(), 1);
        let sink = GraphSink::new(FileId(0));
        let g = lower_js_program_into(&program, &Budget::unlimited(), sink).expect("lowers");
        assert!(g.events().any(|(id, _)| g.has_rep(id, "fs.readFile()")));
    }

    #[test]
    fn budgeted_build_trips_on_source_size() {
        let tight = Budget {
            max_source_bytes: 4,
            ..Budget::unlimited()
        };
        let err = tight.check_source("const a = b;").unwrap_err();
        assert!(matches!(err, BudgetExceeded::SourceBytes { .. }));
    }
}
