//! AST of the JS-like subset.
//!
//! Deliberately small: the subset covers what the corpus generator emits
//! and what the lowering needs — functions, calls, member chains,
//! assignments, `var`/`let`/`const`, `if`/`else`, object and array
//! literals, and both ES (`import ... from`) and CommonJS (`require`)
//! imports. Names, properties, parameters and literals borrow the source
//! text `'s`; a string literal is built only when it has escapes.

use seldon_ir::Span;
use std::borrow::Cow;

/// A parsed file.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Program<'s> {
    /// Top-level statements in source order.
    pub body: Vec<Stmt<'s>>,
}

/// One binding introduced by an ES import statement.
#[derive(Debug, Clone, PartialEq)]
pub enum ImportBinding<'s> {
    /// `import name from 'mod'` — the default export.
    Default(&'s str),
    /// `import * as name from 'mod'` — the whole namespace.
    Namespace(&'s str),
    /// `import { exported as local } from 'mod'` (`local == exported`
    /// without `as`).
    Named {
        /// Exported name in the module.
        exported: &'s str,
        /// Name bound locally.
        local: &'s str,
    },
}

/// A statement with its span.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt<'s> {
    /// The statement variant.
    pub kind: StmtKind<'s>,
    /// Source location.
    pub span: Span,
}

/// Statement variants.
#[derive(Debug, Clone, PartialEq)]
pub enum StmtKind<'s> {
    /// `import ... from 'module'`.
    Import {
        /// The bindings introduced.
        bindings: Vec<ImportBinding<'s>>,
        /// The module specifier string (built only when it has escapes).
        module: Cow<'s, str>,
    },
    /// `function name(params) { body }`.
    Func(FuncDecl<'s>),
    /// `var`/`let`/`const` declaration (single declarator).
    VarDecl {
        /// Bound name (simple declarator), or `None` for a destructuring
        /// pattern carried in `pattern`.
        name: Option<&'s str>,
        /// `{a, b: c}` destructuring entries as `(property, local)` pairs.
        pattern: Vec<(&'s str, &'s str)>,
        /// Initializer, if present.
        init: Option<Expr<'s>>,
    },
    /// `target = value` (target may be a name, member, or index).
    Assign {
        /// Assignment target.
        target: Expr<'s>,
        /// Assigned value.
        value: Expr<'s>,
    },
    /// `return expr?`.
    Return(Option<Expr<'s>>),
    /// `if (test) { cons } else { alt }`.
    If {
        /// Condition.
        test: Expr<'s>,
        /// Then-branch statements.
        cons: Vec<Stmt<'s>>,
        /// Else-branch statements (empty without `else`).
        alt: Vec<Stmt<'s>>,
    },
    /// A bare expression statement.
    Expr(Expr<'s>),
}

/// A function declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct FuncDecl<'s> {
    /// Function name.
    pub name: &'s str,
    /// Parameters as `(name, span)` in order.
    pub params: Vec<(&'s str, Span)>,
    /// Body statements.
    pub body: Vec<Stmt<'s>>,
}

/// An expression with its span.
#[derive(Debug, Clone, PartialEq)]
pub struct Expr<'s> {
    /// The expression variant.
    pub kind: ExprKind<'s>,
    /// Source location.
    pub span: Span,
}

/// Expression variants.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind<'s> {
    /// A bare identifier.
    Ident(&'s str),
    /// A string literal, escapes decoded (built only when it has escapes).
    Str(Cow<'s, str>),
    /// A numeric literal.
    Num(&'s str),
    /// `true` / `false`.
    Bool(bool),
    /// `null` / `undefined`.
    Null,
    /// `obj.prop`.
    Member {
        /// The object expression.
        obj: Box<Expr<'s>>,
        /// The property name.
        prop: &'s str,
    },
    /// `obj[index]`.
    Index {
        /// The object expression.
        obj: Box<Expr<'s>>,
        /// The index expression.
        index: Box<Expr<'s>>,
    },
    /// `callee(args)` — `new X(...)` parses to this too.
    Call {
        /// The callee expression.
        callee: Box<Expr<'s>>,
        /// Arguments in order.
        args: Vec<Expr<'s>>,
    },
    /// `{ key: value, ... }`.
    Object(Vec<(Cow<'s, str>, Expr<'s>)>),
    /// `[ a, b, ... ]`.
    Array(Vec<Expr<'s>>),
    /// Any binary operation (`a + b`, comparisons, logic): flow is the
    /// union of both sides, so the operator itself is not kept.
    Binary {
        /// Left operand.
        left: Box<Expr<'s>>,
        /// Right operand.
        right: Box<Expr<'s>>,
    },
    /// A unary operation (`!x`, `-x`): flow passes through.
    Unary(Box<Expr<'s>>),
}
