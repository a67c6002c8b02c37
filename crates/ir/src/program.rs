//! The language-neutral lowered program: an ordered event/op stream.
//!
//! A frontend walk emits two ordered streams, and a recording sink keeps
//! them as an [`IrProgram`]:
//!
//! * **events** — the propagation-graph nodes (calls, object reads, param
//!   bindings), each with representations from the program's own table
//!   and a source span. The index of an event in [`IrProgram::events`]
//!   *is* its graph `EventId`, so event identity is fixed at lowering time.
//! * **ops** — everything else the walk did, in the exact order it did it:
//!   direct flow edges, argument-position tags, and points-to constraints
//!   (alloc/copy/load/store) over a flat variable space `0..var_count`.
//!
//! Function summaries and unresolved calls are carried as data, so a
//! replay links calls exactly as the graph sink does after a direct walk.
//! The event, edge and argument-position types are the graph's own.

use crate::span::Span;
use seldon_intern::{Symbol, Symbols};
use std::fmt;

/// What kind of action an event is (§3.1, §5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IrEventKind {
    /// A function or method call.
    Call,
    /// An object read: attribute load or subscript.
    ObjectRead,
    /// A read of a formal parameter.
    ParamRead,
}

impl fmt::Display for IrEventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            IrEventKind::Call => "call",
            IrEventKind::ObjectRead => "object-read",
            IrEventKind::ParamRead => "param-read",
        })
    }
}

impl IrEventKind {
    /// Short lowercase label used by [`IrProgram::dump`].
    pub fn label(self) -> &'static str {
        match self {
            IrEventKind::Call => "call",
            IrEventKind::ObjectRead => "read",
            IrEventKind::ParamRead => "param",
        }
    }
}

/// One propagation-graph node, in creation order.
#[derive(Debug, Clone, PartialEq)]
pub struct IrEvent {
    /// What kind of event this is.
    pub kind: IrEventKind,
    /// Representations as symbols of [`IrProgram::symbols`], most
    /// specific first.
    pub reps: Vec<Symbol>,
    /// Source location of the originating expression.
    pub span: Span,
}

/// How information flows along an edge.
///
/// The distinction matters for constraint generation: a *receiver* edge
/// connects events of the same object-access chain (`request.args` →
/// `request.args.get()`), while an *argument* edge carries independent data
/// into a call (`secure_filename(filename)`). Sanitizers transform their
/// arguments, so same-chain events are not sanitizer candidates "between" a
/// source and a sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IrEdgeKind {
    /// Ordinary data flow (arguments, assignments, field aliasing).
    Argument,
    /// Same-object-chain flow (receiver of a method call, base of a read).
    Receiver,
}

/// The position through which flow enters a call event, recorded for
/// parameter-sensitive clients (the paper's §3.3 future work). `S` is the
/// keyword: owned text in an [`IrProgram`], a symbol of its graph's table
/// in a graph, borrowed text as an emitter hands it to a sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IrArgPos<S = String> {
    /// The call receiver (`recv.m(...)`).
    Receiver,
    /// A positional argument (0-based, saturated at 255).
    Positional(u8),
    /// A keyword / named argument.
    Keyword(S),
}

/// One replayable step of graph construction, in the exact order the
/// frontend's walk performed it. `S` is the text of field and keyword
/// names: owned in an [`IrProgram`], borrowed as an emitter hands the op
/// to a sink.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IrOp<S = String> {
    /// Add a flow edge between two events (indices into the event stream).
    Edge {
        /// Source event index.
        from: u32,
        /// Target event index.
        to: u32,
        /// Edge kind.
        kind: IrEdgeKind,
    },
    /// Record the argument position of `from` at call event `to`.
    ArgPos {
        /// Source event index.
        from: u32,
        /// Call event index.
        to: u32,
        /// The position tag.
        pos: IrArgPos<S>,
    },
    /// Points-to: variable `var` may point to allocation site `site`
    /// (an event index used as the abstract object identity).
    Alloc {
        /// Points-to variable (index into `0..var_count`).
        var: u32,
        /// Allocation-site event index.
        site: u32,
    },
    /// Points-to: everything `from` points to, `to` may point to.
    Copy {
        /// Source variable.
        from: u32,
        /// Target variable.
        to: u32,
    },
    /// Points-to: `target` receives `base.field` for every object `base`
    /// may point to.
    Load {
        /// Base variable.
        base: u32,
        /// Field name (frontend-rendered, e.g. `name` or `['key']`).
        field: S,
        /// Target variable.
        target: u32,
    },
    /// Points-to: `base.field` receives everything `value` points to.
    Store {
        /// Base variable.
        base: u32,
        /// Field name.
        field: S,
        /// Value variable.
        value: u32,
    },
    /// After solving, add an edge from every allocation site `var` points
    /// to into `event` (field-sensitive alias flow).
    PtLoad {
        /// Target event index.
        event: u32,
        /// Solved points-to variable.
        var: u32,
    },
}

impl<S> IrArgPos<S> {
    /// The same position with the keyword passed through `f`.
    pub fn map<'s, T>(&'s self, f: impl FnOnce(&'s S) -> T) -> IrArgPos<T> {
        match *self {
            IrArgPos::Receiver => IrArgPos::Receiver,
            IrArgPos::Positional(i) => IrArgPos::Positional(i),
            IrArgPos::Keyword(ref k) => IrArgPos::Keyword(f(k)),
        }
    }
}

impl<S> IrOp<S> {
    /// The same op with each name passed through `f`: `map(String::as_str)`
    /// borrows an [`IrProgram`]'s op, `map(|s| s.to_string())` owns a
    /// borrowed one.
    pub fn map<'s, T>(&'s self, f: impl FnOnce(&'s S) -> T) -> IrOp<T> {
        match *self {
            IrOp::Edge { from, to, kind } => IrOp::Edge { from, to, kind },
            IrOp::ArgPos { from, to, ref pos } => IrOp::ArgPos { from, to, pos: pos.map(f) },
            IrOp::Alloc { var, site } => IrOp::Alloc { var, site },
            IrOp::Copy { from, to } => IrOp::Copy { from, to },
            IrOp::Load { base, ref field, target } => IrOp::Load { base, field: f(field), target },
            IrOp::Store { base, ref field, value } => IrOp::Store { base, field: f(field), value },
            IrOp::PtLoad { event, var } => IrOp::PtLoad { event, var },
        }
    }
}

/// A parameter of a lowered function summary. `S` is its name: owned in
/// an [`IrProgram`], borrowed from the AST while a walk runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IrParam<S = String> {
    /// Parameter name as written in source.
    pub name: S,
    /// The `ParamRead` event bound to this parameter.
    pub event: u32,
    /// Whether the parameter is an implicit receiver (`self` / `cls`) that
    /// positional arguments must not bind to. Language-specific: the
    /// frontend decides, the builder only filters.
    pub implicit: bool,
}

/// A function summary used for deferred call linking.
#[derive(Debug, Clone, PartialEq)]
pub struct IrFunc {
    /// Qualified name (`func` or `Class::method`).
    pub qualified: String,
    /// Declared parameters in order.
    pub params: Vec<IrParam>,
    /// Events flowing out of `return` statements.
    pub returns: Vec<u32>,
}

/// A call to a (possibly) locally-defined function, resolved after the
/// whole file has been lowered.
#[derive(Debug, Clone, PartialEq)]
pub struct IrPendingCall {
    /// Qualified callee name to look up in the function summaries.
    pub qualified: String,
    /// Flow sets of each positional argument, in order.
    pub arg_flows: Vec<Vec<u32>>,
    /// Flow sets of keyword arguments, as (name, flows).
    pub kwarg_flows: Vec<(String, Vec<u32>)>,
    /// The call event itself, if one was created.
    pub call_event: Option<u32>,
}

/// A fully lowered file, ready for language-blind graph construction.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IrProgram {
    /// The table the events' representations are symbols of.
    pub symbols: Symbols,
    /// Graph nodes in creation order (index = future `EventId`).
    pub events: Vec<IrEvent>,
    /// Construction steps in execution order.
    pub ops: Vec<IrOp>,
    /// Number of points-to variables referenced by ops (`0..var_count`).
    pub var_count: u32,
    /// Function summaries in first-definition order.
    pub funcs: Vec<IrFunc>,
    /// Calls deferred until all summaries are known, in call order.
    pub pending: Vec<IrPendingCall>,
}

impl IrProgram {
    /// Renders the program as a stable, human-readable listing — the
    /// backend of `seldon ir-dump`, for diffing frontends and bug reports.
    pub fn dump(&self) -> String {
        use std::fmt::Write as _;
        let list = |es: &[u32]| es.iter().map(|e| format!("e{e}")).collect::<Vec<_>>().join(", ");
        let mut out = String::new();
        let _ = writeln!(
            out,
            "ir: {} events, {} ops, {} vars, {} funcs, {} pending calls",
            self.events.len(),
            self.ops.len(),
            self.var_count,
            self.funcs.len(),
            self.pending.len()
        );
        for (i, ev) in self.events.iter().enumerate() {
            let reps: Vec<&str> = ev.reps.iter().map(|&s| self.symbols.resolve(s)).collect();
            let _ = writeln!(out, "e{i} {} @{} [{}]", ev.kind.label(), ev.span, reps.join(", "));
        }
        for op in &self.ops {
            let _ = match op {
                IrOp::Edge { from, to, kind } => {
                    let k = if *kind == IrEdgeKind::Argument { "arg" } else { "recv" };
                    writeln!(out, "edge e{from} -> e{to} ({k})")
                }
                IrOp::ArgPos { from, to, pos } => match pos {
                    IrArgPos::Receiver => writeln!(out, "argpos e{from} @ e{to}: receiver"),
                    IrArgPos::Positional(i) => writeln!(out, "argpos e{from} @ e{to}: pos {i}"),
                    IrArgPos::Keyword(k) => writeln!(out, "argpos e{from} @ e{to}: kw {k}"),
                },
                IrOp::Alloc { var, site } => writeln!(out, "pt alloc v{var} <- site e{site}"),
                IrOp::Copy { from, to } => writeln!(out, "pt copy v{from} -> v{to}"),
                IrOp::Load { base, field, target } => {
                    writeln!(out, "pt load v{target} = v{base}.{field}")
                }
                IrOp::Store { base, field, value } => {
                    writeln!(out, "pt store v{base}.{field} = v{value}")
                }
                IrOp::PtLoad { event, var } => writeln!(out, "pt-load e{event} <- pts(v{var})"),
            };
        }
        for f in &self.funcs {
            let params: Vec<String> = f
                .params
                .iter()
                .map(|p| format!("{}{}=e{}", p.name, if p.implicit { "*" } else { "" }, p.event))
                .collect();
            let (name, params, rets) = (&f.qualified, params.join(", "), list(&f.returns));
            let _ = writeln!(out, "func {name}({params}) returns [{rets}]");
        }
        for p in &self.pending {
            let args = p.arg_flows.iter().map(|fs| format!("[{}]", list(fs)));
            let kwargs = p.kwarg_flows.iter().map(|(k, fs)| format!("{k}=[{}]", list(fs)));
            let args: Vec<String> = args.chain(kwargs).collect();
            let ev = p.call_event.map_or_else(|| "-".to_string(), |e| format!("e{e}"));
            let _ = writeln!(out, "pending {}({}) event {ev}", p.qualified, args.join(", "));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dump_is_stable_and_complete() {
        let mut symbols = Symbols::new();
        let mut intern = |text| symbols.intern(text);
        let events = vec![
            IrEvent {
                kind: IrEventKind::ParamRead,
                reps: vec![intern("f(param x)")],
                span: Span::new(0, 1, 1, 7),
            },
            IrEvent {
                kind: IrEventKind::Call,
                reps: vec![intern("g()")],
                span: Span::new(10, 14, 2, 5),
            },
        ];
        let prog = IrProgram {
            symbols,
            events,
            ops: vec![
                IrOp::Edge { from: 0, to: 1, kind: IrEdgeKind::Argument },
                IrOp::ArgPos { from: 0, to: 1, pos: IrArgPos::Positional(0) },
                IrOp::Alloc { var: 0, site: 1 },
                IrOp::Copy { from: 0, to: 1 },
                IrOp::Load { base: 1, field: "name".into(), target: 2 },
                IrOp::Store { base: 1, field: "name".into(), value: 0 },
                IrOp::PtLoad { event: 1, var: 2 },
            ],
            var_count: 3,
            funcs: vec![IrFunc {
                qualified: "C::m".into(),
                params: vec![
                    IrParam { name: "self".into(), event: 0, implicit: true },
                    IrParam { name: "x".into(), event: 0, implicit: false },
                ],
                returns: vec![1],
            }],
            pending: vec![IrPendingCall {
                qualified: "g".into(),
                arg_flows: vec![vec![0]],
                kwarg_flows: vec![("k".into(), vec![1])],
                call_event: Some(1),
            }],
        };
        let d = prog.dump();
        assert!(d.starts_with("ir: 2 events, 7 ops, 3 vars, 1 funcs, 1 pending calls\n"));
        assert!(d.contains("e0 param @1:7 [f(param x)]"));
        assert!(d.contains("e1 call @2:5 [g()]"));
        assert!(d.contains("edge e0 -> e1 (arg)"));
        assert!(d.contains("argpos e0 @ e1: pos 0"));
        assert!(d.contains("pt alloc v0 <- site e1"));
        assert!(d.contains("pt load v2 = v1.name"));
        assert!(d.contains("pt-load e1 <- pts(v2)"));
        assert!(d.contains("func C::m(self*=e0, x=e0) returns [e1]"));
        assert!(d.contains("pending g([e0], k=[e1]) event e1"));
        // stable: identical program, identical bytes
        assert_eq!(d, prog.clone().dump());
    }

    #[test]
    fn default_program_is_empty() {
        let p = IrProgram::default();
        assert!(p.events.is_empty());
        assert!(p.dump().starts_with("ir: 0 events"));
    }
}
