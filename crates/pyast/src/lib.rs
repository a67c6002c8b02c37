//! # seldon-pyast
//!
//! A from-scratch lexer and parser for the Python subset consumed by the
//! Seldon taint-specification-inference reproduction.
//!
//! The front end follows the CPython tokenizer/grammar shape closely enough
//! that real-world web-application code (Flask/Django style) parses
//! faithfully: indentation-sensitive lexing, implicit line joining inside
//! brackets, string prefixes (`r`, `b`, `f`), comprehensions, decorators,
//! lambdas, and the full statement repertoire the analysis needs.
//!
//! The front end is zero-copy: [`parse`] returns a [`Module<'src>`] whose
//! names, attributes, import paths, parameters and literals borrow the
//! source text, and every [`token::Token`] is a slice of it. Only the merge
//! of adjacent string literals builds text. The source must outlive the
//! module.
//!
//! ## Example
//!
//! ```
//! use seldon_pyast::{parse, ast::StmtKind};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let source = "from flask import request\nname = request.args.get('n')\n";
//! let module = parse(source)?;
//! assert_eq!(module.body.len(), 2);
//! assert!(matches!(module.body[1].kind, StmtKind::Assign { .. }));
//! let StmtKind::ImportFrom { module: path, .. } = module.body[0].kind else { unreachable!() };
//! assert!(source.contains(path), "`flask` borrows the source");
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod error;
pub mod lexer;
mod ops;
pub mod parser;
pub mod span;
pub mod token;
pub mod unparse;

pub use ast::{Expr, ExprKind, Module, Stmt, StmtKind};
pub use error::FrontendError;
pub use parser::{parse, parse_expr, parse_lenient};
pub use span::Span;
pub use unparse::{unparse, unparse_expr};
