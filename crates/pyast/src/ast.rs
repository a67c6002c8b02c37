//! Abstract syntax tree for the Python subset.
//!
//! The tree is deliberately close to CPython's `ast` module naming so the
//! analysis code reads like the paper's description. Every node carries a
//! [`Span`], and every name, attribute, import path, parameter and literal
//! borrows the source text `'s`; the only text the parser builds is the
//! merge of implicitly concatenated string literals (a `Cow::Owned`).

use crate::span::Span;
use std::borrow::Cow;

/// A parsed module: the top-level statement list of one source file.
#[derive(Debug, Clone, PartialEq)]
pub struct Module<'s> {
    /// Statements in source order.
    pub body: Vec<Stmt<'s>>,
}

/// A statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt<'s> {
    /// The statement payload.
    pub kind: StmtKind<'s>,
    /// Source location.
    pub span: Span,
}

/// Statement payloads.
#[derive(Debug, Clone, PartialEq)]
pub enum StmtKind<'s> {
    /// `import a.b as c, d`
    Import(Vec<ImportAlias<'s>>),
    /// `from a.b import c as d, e` (level counts leading dots).
    ImportFrom {
        /// Dotted module path as written (empty for `from . import x`);
        /// [`segments`] splits it.
        module: &'s str,
        /// Imported names.
        names: Vec<ImportAlias<'s>>,
        /// Number of leading dots (relative import level).
        level: u32,
    },
    /// Function definition.
    FunctionDef(FunctionDef<'s>),
    /// Class definition.
    ClassDef(ClassDef<'s>),
    /// `return value?`
    Return(Option<Expr<'s>>),
    /// `del targets`
    Delete(Vec<Expr<'s>>),
    /// `target = value`; a chained assignment `a = b = c` keeps every
    /// target.
    Assign {
        /// The first (leftmost) target.
        target: Expr<'s>,
        /// The chained targets after the first, left to right; empty (and
        /// unallocated) for a plain `a = b`.
        chained: Vec<Expr<'s>>,
        /// Right-hand side.
        value: Expr<'s>,
    },
    /// `target op= value`
    AugAssign {
        /// The single target.
        target: Expr<'s>,
        /// Operator text, e.g. `+`.
        op: &'static str,
        /// Right-hand side.
        value: Expr<'s>,
    },
    /// `target: annotation = value?`
    AnnAssign {
        /// The annotated target.
        target: Expr<'s>,
        /// The annotation expression.
        annotation: Expr<'s>,
        /// Optional initial value.
        value: Option<Expr<'s>>,
    },
    /// `for target in iter: body else: orelse`
    For {
        /// Loop variable pattern.
        target: Expr<'s>,
        /// Iterated expression.
        iter: Expr<'s>,
        /// Loop body.
        body: Vec<Stmt<'s>>,
        /// `else` clause.
        orelse: Vec<Stmt<'s>>,
    },
    /// `while test: body else: orelse`
    While {
        /// Loop condition.
        test: Expr<'s>,
        /// Loop body.
        body: Vec<Stmt<'s>>,
        /// `else` clause.
        orelse: Vec<Stmt<'s>>,
    },
    /// `if test: body elif.../else: orelse`
    If {
        /// Condition.
        test: Expr<'s>,
        /// Then branch.
        body: Vec<Stmt<'s>>,
        /// Else branch (an `elif` parses as a nested `If` here).
        orelse: Vec<Stmt<'s>>,
    },
    /// `with items: body`
    With {
        /// Context managers with optional `as` targets.
        items: Vec<WithItem<'s>>,
        /// Body.
        body: Vec<Stmt<'s>>,
    },
    /// `raise exc from cause`
    Raise {
        /// Exception value.
        exc: Option<Expr<'s>>,
        /// `from` cause.
        cause: Option<Expr<'s>>,
    },
    /// `try: body except...: handlers else: orelse finally: finalbody`
    Try {
        /// Protected body.
        body: Vec<Stmt<'s>>,
        /// Exception handlers.
        handlers: Vec<ExceptHandler<'s>>,
        /// `else` clause.
        orelse: Vec<Stmt<'s>>,
        /// `finally` clause.
        finalbody: Vec<Stmt<'s>>,
    },
    /// `assert test, msg?`
    Assert {
        /// Asserted condition.
        test: Expr<'s>,
        /// Optional message.
        msg: Option<Expr<'s>>,
    },
    /// `global names`
    Global(Vec<&'s str>),
    /// `nonlocal names`
    Nonlocal(Vec<&'s str>),
    /// A bare expression statement.
    Expr(Expr<'s>),
    /// `pass`
    Pass,
    /// `break`
    Break,
    /// `continue`
    Continue,
}

/// One alias in an import list: `name as asname`.
#[derive(Debug, Clone, PartialEq)]
pub struct ImportAlias<'s> {
    /// Dotted path being imported, as written (a single segment for
    /// `from x import seg`); [`segments`] splits it.
    pub name: &'s str,
    /// Optional binding name.
    pub asname: Option<&'s str>,
    /// Location of the alias.
    pub span: Span,
}

/// A function (or method) definition.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionDef<'s> {
    /// Function name.
    pub name: &'s str,
    /// Positional/keyword parameters in order.
    pub params: Vec<Param<'s>>,
    /// Decorator expressions, outermost first.
    pub decorators: Vec<Expr<'s>>,
    /// Optional return annotation.
    pub returns: Option<Expr<'s>>,
    /// Body statements.
    pub body: Vec<Stmt<'s>>,
    /// True for `async def`.
    pub is_async: bool,
}

/// A single formal parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Param<'s> {
    /// Parameter name.
    pub name: &'s str,
    /// Optional annotation.
    pub annotation: Option<Expr<'s>>,
    /// Optional default value.
    pub default: Option<Expr<'s>>,
    /// Kind of parameter (positional, `*args`, `**kwargs`).
    pub kind: ParamKind,
    /// Location of the parameter name.
    pub span: Span,
}

/// Parameter flavor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamKind {
    /// Ordinary positional-or-keyword parameter.
    Plain,
    /// `*args`
    VarArgs,
    /// `**kwargs`
    KwArgs,
    /// Bare `*` separator (keyword-only marker) — kept for fidelity.
    KwOnlyMarker,
}

/// A class definition.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassDef<'s> {
    /// Class name.
    pub name: &'s str,
    /// Base class expressions.
    pub bases: Vec<Expr<'s>>,
    /// Keyword arguments in the class header (e.g. `metaclass=`).
    pub keywords: Vec<Keyword<'s>>,
    /// Decorators, outermost first.
    pub decorators: Vec<Expr<'s>>,
    /// Body statements.
    pub body: Vec<Stmt<'s>>,
}

/// One `with` item: `context as target?`.
#[derive(Debug, Clone, PartialEq)]
pub struct WithItem<'s> {
    /// The context-manager expression.
    pub context: Expr<'s>,
    /// Optional `as` target.
    pub target: Option<Expr<'s>>,
}

/// An `except` clause.
#[derive(Debug, Clone, PartialEq)]
pub struct ExceptHandler<'s> {
    /// The matched exception type, if any.
    pub typ: Option<Expr<'s>>,
    /// The binding name after `as`, if any.
    pub name: Option<&'s str>,
    /// Handler body.
    pub body: Vec<Stmt<'s>>,
    /// Location of the `except` keyword.
    pub span: Span,
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub struct Expr<'s> {
    /// The expression payload.
    pub kind: ExprKind<'s>,
    /// Source location.
    pub span: Span,
}

/// Expression payloads.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind<'s> {
    /// A name reference.
    Name(&'s str),
    /// Integer/float literal (textual).
    Number(&'s str),
    /// String literal, escapes kept verbatim. Implicitly concatenated
    /// literals are merged, the only text the parser builds.
    Str(Cow<'s, str>),
    /// F-string literal: literal text plus the raw interpolation sources.
    FString {
        /// The raw body text (built only for concatenated literals).
        text: Cow<'s, str>,
        /// Parsed interpolated expressions, in order of appearance.
        parts: Vec<Expr<'s>>,
    },
    /// Bytes literal.
    Bytes(&'s str),
    /// `True`/`False`.
    Bool(bool),
    /// `None`.
    NoneLit,
    /// `...`
    EllipsisLit,
    /// `obj.attr`
    Attribute {
        /// The object expression.
        value: Box<Expr<'s>>,
        /// The attribute name.
        attr: &'s str,
    },
    /// `obj[index]`
    Subscript {
        /// The container expression.
        value: Box<Expr<'s>>,
        /// The index expression (a `Slice` for slice syntax).
        index: Box<Expr<'s>>,
    },
    /// `lo:hi:step` inside subscripts.
    Slice {
        /// Lower bound.
        lower: Option<Box<Expr<'s>>>,
        /// Upper bound.
        upper: Option<Box<Expr<'s>>>,
        /// Step.
        step: Option<Box<Expr<'s>>>,
    },
    /// `f(args, kw=v, *rest, **kwargs)`
    Call {
        /// The callee expression.
        func: Box<Expr<'s>>,
        /// Positional arguments (including starred ones).
        args: Vec<Expr<'s>>,
        /// Keyword arguments.
        keywords: Vec<Keyword<'s>>,
    },
    /// Binary arithmetic/bit operation; operator kept as text.
    BinOp {
        /// Left operand.
        left: Box<Expr<'s>>,
        /// Operator text, e.g. `+`.
        op: &'static str,
        /// Right operand.
        right: Box<Expr<'s>>,
    },
    /// Unary operation (`-x`, `+x`, `~x`, `not x`).
    UnaryOp {
        /// Operator text.
        op: &'static str,
        /// Operand.
        operand: Box<Expr<'s>>,
    },
    /// `and`/`or` chains, flattened.
    BoolOp {
        /// `and` or `or`.
        op: &'static str,
        /// Operands, two or more.
        values: Vec<Expr<'s>>,
    },
    /// Comparison chains `a < b <= c`.
    Compare {
        /// First operand.
        left: Box<Expr<'s>>,
        /// Operator texts (`<`, `in`, `is not`, ...), one per comparator.
        ops: Vec<&'static str>,
        /// Remaining operands.
        comparators: Vec<Expr<'s>>,
    },
    /// `body if test else orelse`
    IfExp {
        /// Condition.
        test: Box<Expr<'s>>,
        /// Value when true.
        body: Box<Expr<'s>>,
        /// Value when false.
        orelse: Box<Expr<'s>>,
    },
    /// `lambda params: body`
    Lambda {
        /// Formal parameters.
        params: Vec<Param<'s>>,
        /// Body expression.
        body: Box<Expr<'s>>,
    },
    /// Tuple display `(a, b)` or bare `a, b`.
    Tuple(Vec<Expr<'s>>),
    /// List display `[a, b]`.
    List(Vec<Expr<'s>>),
    /// Set display `{a, b}`.
    Set(Vec<Expr<'s>>),
    /// Dict display `{k: v, **m}` (a `None` key means `**m` expansion).
    Dict {
        /// Keys, parallel to `values`; `None` marks a `**` expansion.
        keys: Vec<Option<Expr<'s>>>,
        /// Values.
        values: Vec<Expr<'s>>,
    },
    /// List/set/generator comprehension.
    Comp {
        /// Which display kind the comprehension builds.
        kind: CompKind,
        /// The element expression.
        element: Box<Expr<'s>>,
        /// For dict comprehensions, the value expression.
        value: Option<Box<Expr<'s>>>,
        /// Generator clauses.
        generators: Vec<Comprehension<'s>>,
    },
    /// `yield value?` / `yield from value`
    Yield {
        /// Yielded expression.
        value: Option<Box<Expr<'s>>>,
        /// True for `yield from`.
        is_from: bool,
    },
    /// `await value`
    Await(Box<Expr<'s>>),
    /// `*value` in calls/displays/assignment targets.
    Starred(Box<Expr<'s>>),
    /// `name := value`
    NamedExpr {
        /// Target name.
        target: Box<Expr<'s>>,
        /// Assigned value.
        value: Box<Expr<'s>>,
    },
}

/// Which collection a comprehension builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompKind {
    /// `[x for ...]`
    List,
    /// `{x for ...}`
    Set,
    /// `{k: v for ...}`
    Dict,
    /// `(x for ...)`
    Generator,
}

/// One `for ... in ... if ...` clause of a comprehension.
#[derive(Debug, Clone, PartialEq)]
pub struct Comprehension<'s> {
    /// The loop target.
    pub target: Expr<'s>,
    /// The iterated expression.
    pub iter: Expr<'s>,
    /// Zero or more `if` filters.
    pub ifs: Vec<Expr<'s>>,
}

/// A keyword argument `name=value`; `name` is `None` for `**value`.
#[derive(Debug, Clone, PartialEq)]
pub struct Keyword<'s> {
    /// Argument name (`None` for `**expr`).
    pub name: Option<&'s str>,
    /// Argument value.
    pub value: Expr<'s>,
}

/// The segments of a dotted module path as the source spells it: `a.b`
/// gives `a`, `b` (whitespace or a line continuation around a dot is
/// dropped); the empty path gives none.
pub fn segments(path: &str) -> impl Iterator<Item = &str> + Clone {
    let not_name = |c: char| c.is_whitespace() || c == '\\';
    path.split('.').map(move |s| s.trim_matches(not_name)).filter(|s| !s.is_empty())
}

impl<'s> Expr<'s> {
    /// Creates an expression node.
    pub fn new(kind: ExprKind<'s>, span: Span) -> Self {
        Expr { kind, span }
    }

    /// Returns the dotted-name path if this expression is a chain of
    /// `Name`/`Attribute` accesses, e.g. `a.b.c` → `["a","b","c"]`.
    pub fn dotted_path(&self) -> Option<Vec<&'s str>> {
        match self.kind {
            ExprKind::Name(n) => Some(vec![n]),
            ExprKind::Attribute { ref value, attr } => {
                let mut path = value.dotted_path()?;
                path.push(attr);
                Some(path)
            }
            _ => None,
        }
    }

    /// True if the expression is a literal constant (string, number, bool,
    /// `None`, bytes, ellipsis).
    pub fn is_literal(&self) -> bool {
        matches!(
            self.kind,
            ExprKind::Number(_)
                | ExprKind::Str(_)
                | ExprKind::Bytes(_)
                | ExprKind::Bool(_)
                | ExprKind::NoneLit
                | ExprKind::EllipsisLit
        )
    }
}

impl<'s> Stmt<'s> {
    /// Creates a statement node.
    pub fn new(kind: StmtKind<'s>, span: Span) -> Self {
        Stmt { kind, span }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(n: &str) -> Expr<'_> {
        Expr::new(ExprKind::Name(n), Span::dummy())
    }

    #[test]
    fn dotted_path_of_attribute_chain() {
        let e = Expr::new(
            ExprKind::Attribute {
                value: Box::new(Expr::new(
                    ExprKind::Attribute { value: Box::new(name("a")), attr: "b" },
                    Span::dummy(),
                )),
                attr: "c",
            },
            Span::dummy(),
        );
        assert_eq!(e.dotted_path(), Some(vec!["a", "b", "c"]));
    }

    #[test]
    fn dotted_path_rejects_calls() {
        let call = Expr::new(
            ExprKind::Call { func: Box::new(name("f")), args: vec![], keywords: vec![] },
            Span::dummy(),
        );
        assert_eq!(call.dotted_path(), None);
    }

    #[test]
    fn segments_split_dotted_paths() {
        assert_eq!(segments("os.path").collect::<Vec<_>>(), ["os", "path"]);
        assert_eq!(segments("a . b.\\\n c").collect::<Vec<_>>(), ["a", "b", "c"]);
        assert_eq!(segments("").count(), 0);
    }

    #[test]
    fn literal_check() {
        assert!(Expr::new(ExprKind::Str("x".into()), Span::dummy()).is_literal());
        assert!(Expr::new(ExprKind::NoneLit, Span::dummy()).is_literal());
        assert!(!name("x").is_literal());
    }
}
