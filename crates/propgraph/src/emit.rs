//! The language-neutral half of lowering: one IR emitter for every frontend.
//!
//! §5's graph-construction rules are stated without reference to syntax,
//! and they live here once: environment flow sets and branch merging,
//! argument and receiver flow into calls, field aliasing through
//! points-to ops, and per-call-site inlining with its depth and recursion
//! guard. A frontend implements [`Walk`] — its statement and expression
//! matches, import collection and representations — and drives an
//! [`Emitter`], which records the events and ops as a
//! [`seldon_ir::IrProgram`] in walk order. The Python lowering in
//! [`crate::lower`] and the JS-like one in `seldon-jsfront` are the two
//! walks.

use crate::budget::{Budget, BudgetExceeded, BudgetMeter};
use crate::repr::ReprCtx;
use seldon_intern::Symbol;
use seldon_ir::{
    IrArgPos, IrEdgeKind, IrEvent, IrEventKind, IrFunc, IrOp, IrParam, IrPendingCall, IrProgram,
    Span,
};
use std::borrow::Cow;
use std::collections::HashMap;
use std::rc::Rc;

/// Maximum events tracked per variable binding; larger sets are truncated.
pub const MAX_FLOW_SET: usize = 8;

/// Inlined calls nest at most this deep; deeper calls stay pending.
const MAX_INLINE_DEPTH: usize = 3;

/// A set of event indices whose values may flow into a binding.
pub type FlowSet = Vec<u32>;

/// Adds the events of `src` missing from `dst`, keeping at most
/// [`MAX_FLOW_SET`].
#[inline]
pub fn union_into(dst: &mut FlowSet, src: &[u32]) {
    for &e in src {
        if !dst.contains(&e) {
            dst.push(e);
        }
    }
    dst.truncate(MAX_FLOW_SET);
}

/// Per-function analysis scope.
pub struct Scope<'a> {
    /// How expressions in this scope are described.
    pub ctx: ReprCtx,
    /// The events that may flow into each binding.
    pub env: HashMap<&'a str, FlowSet>,
    /// Events flowing into `return` statements.
    pub returns: Vec<u32>,
    /// This scope's named points-to variables, memoized by name.
    pt_vars: HashMap<&'a str, u32>,
}

impl<'a> Scope<'a> {
    /// An empty scope described by `ctx`.
    pub fn new(ctx: ReprCtx) -> Self {
        Scope { ctx, env: HashMap::new(), returns: Vec::new(), pt_vars: HashMap::new() }
    }

    /// Joins the bindings of another branch into this one.
    pub fn merge_env(&mut self, other: HashMap<&'a str, FlowSet>) {
        for (k, v) in other {
            union_into(self.env.entry(k).or_default(), &v);
        }
    }
}

/// Summary of a locally-defined function for call linking.
struct FuncSummary<'a, C> {
    /// `(name, param event)` in declaration order.
    params: Vec<(&'a str, u32)>,
    /// Events flowing into `return` statements.
    returns: Vec<u32>,
    /// What a call site needs to inline the function (§5.2: "we inline
    /// methods whose body can be statically determined").
    callee: C,
}

/// One call site, its operands already evaluated.
pub struct Call<'a> {
    /// The call's representations; empty when it has none.
    pub reps: Vec<Symbol>,
    /// Source location of the call.
    pub span: Span,
    /// Flows of the receiver chain, e.g. `x` in `x.m()`.
    pub recv: FlowSet,
    /// Flows of each positional argument.
    pub args: Vec<FlowSet>,
    /// Flows of each keyword argument, by name.
    pub kwargs: Vec<(&'a str, FlowSet)>,
    /// Events that flow in without an argument position.
    pub unpositioned: Vec<u32>,
    /// The qualified name of the local function the call may link to.
    pub target: Option<Cow<'a, str>>,
}

/// Records one file's events and ops. `C` is what the frontend needs to
/// inline a local function at a call site.
pub struct Emitter<'a, C> {
    ir: IrProgram,
    funcs: HashMap<Cow<'a, str>, FuncSummary<'a, C>>,
    /// Qualified names in first-definition order, for stable IR emission.
    func_order: Vec<Cow<'a, str>>,
    /// Names currently being inlined (recursion guard) — doubles as the
    /// inline-depth bound.
    inline_stack: Vec<Cow<'a, str>>,
    /// Resource accounting against the file's budget.
    meter: BudgetMeter,
    /// Current statement-nesting depth, fed to the meter.
    stmt_depth: usize,
    /// Parameter names that are implicit receiver slots (`self`, `cls`).
    receivers: &'static [&'static str],
}

impl<'a, C: Clone> Emitter<'a, C> {
    /// Starts emitting under `budget`. Parameters named in `receivers` are
    /// implicit receiver slots.
    pub fn new(budget: &Budget, receivers: &'static [&'static str]) -> Self {
        Emitter {
            ir: IrProgram::default(),
            funcs: HashMap::new(),
            func_order: Vec::new(),
            inline_stack: Vec::new(),
            meter: BudgetMeter::new(budget.clone()),
            stmt_depth: 0,
            receivers,
        }
    }

    /// Whether `name` is an implicit receiver parameter.
    #[inline]
    pub fn is_receiver(&self, name: &str) -> bool {
        self.receivers.contains(&name)
    }

    /// The lowered IR, or the budget limit the walk tripped.
    ///
    /// # Errors
    ///
    /// Returns [`BudgetExceeded`] if the walk tripped a limit; the partial
    /// IR is discarded.
    pub fn into_ir(mut self) -> Result<IrProgram, BudgetExceeded> {
        if let Some(e) = self.meter.into_tripped() {
            return Err(e);
        }
        for name in &self.func_order {
            let s = &self.funcs[name];
            self.ir.funcs.push(IrFunc {
                qualified: name.to_string(),
                params: s
                    .params
                    .iter()
                    .map(|&(n, ev)| IrParam {
                        name: n.to_string(),
                        event: ev,
                        implicit: self.receivers.contains(&n),
                    })
                    .collect(),
                returns: s.returns.clone(),
            });
        }
        Ok(self.ir)
    }

    #[inline]
    fn add_event(&mut self, kind: IrEventKind, reps: Vec<Symbol>, span: Span) -> u32 {
        let id = self.ir.events.len() as u32;
        self.ir.events.push(IrEvent { kind, reps, span });
        id
    }

    #[inline]
    fn add_edge(&mut self, from: u32, to: u32) {
        self.ir.ops.push(IrOp::Edge { from, to, kind: IrEdgeKind::Argument });
    }

    #[inline]
    fn add_edge_recv(&mut self, from: u32, to: u32) {
        self.ir.ops.push(IrOp::Edge { from, to, kind: IrEdgeKind::Receiver });
    }

    #[inline]
    fn set_arg_position(&mut self, from: u32, to: u32, pos: IrArgPos) {
        self.ir.ops.push(IrOp::ArgPos { from, to, pos });
    }

    /// The named points-to variable `name` of `scope`, mirroring
    /// `Andersen::var`.
    #[inline]
    fn pt_var(&mut self, scope: &mut Scope<'a>, name: &'a str) -> u32 {
        if let Some(&v) = scope.pt_vars.get(name) {
            return v;
        }
        let v = self.fresh_var();
        scope.pt_vars.insert(name, v);
        v
    }

    /// Allocates an anonymous points-to variable, mirroring `Andersen::fresh`.
    #[inline]
    fn fresh_var(&mut self) -> u32 {
        let v = self.ir.var_count;
        self.ir.var_count += 1;
        v
    }

    /// Emits formal parameter `name` as a source-candidate event (§5.1)
    /// and binds it in `sc`.
    #[inline]
    pub fn param(
        &mut self,
        sc: &mut Scope<'a>,
        name: &'a str,
        reps: Vec<Symbol>,
        span: Span,
    ) -> u32 {
        let ev = self.add_event(IrEventKind::ParamRead, reps, span);
        sc.env.insert(name, vec![ev]);
        ev
    }

    /// Records a local function for call linking. A later definition of
    /// the same name replaces the summary but keeps the first position.
    pub fn define(
        &mut self,
        qualified: Cow<'a, str>,
        params: Vec<(&'a str, u32)>,
        returns: Vec<u32>,
        callee: C,
    ) {
        let summary = FuncSummary { params, returns, callee };
        if self.funcs.insert(qualified.clone(), summary).is_none() {
            self.func_order.push(qualified);
        }
    }

    /// Binds `name` to `flows` with a strong update. `variants` become its
    /// local representations (`None` or none at all forgets them). The
    /// events are points-to allocation sites, and a value that is itself
    /// the variable `copy_from` is a points-to copy.
    #[inline]
    pub fn bind_name(
        &mut self,
        sc: &mut Scope<'a>,
        name: &'a str,
        flows: &[u32],
        variants: Option<&Rc<[String]>>,
        copy_from: Option<&'a str>,
    ) {
        sc.env.insert(name, flows.to_vec());
        match variants {
            Some(v) if !v.is_empty() => {
                sc.ctx.locals.insert(name.to_string(), Rc::clone(v));
            }
            _ => {
                sc.ctx.locals.remove(name);
            }
        }
        let var = self.pt_var(sc, name);
        for &e in flows {
            self.ir.ops.push(IrOp::Alloc { var, site: e });
        }
        if let Some(m) = copy_from {
            let from = self.pt_var(sc, m);
            self.ir.ops.push(IrOp::Copy { from, to: var });
        }
    }

    /// Handles `base.field = flows` once the base is evaluated: when the
    /// base is the variable `base`, a points-to store plus a weak update of
    /// its binding so environment flow still observes the taint.
    #[inline]
    pub fn store_through(
        &mut self,
        sc: &mut Scope<'a>,
        base: Option<&'a str>,
        field: &str,
        flows: &[u32],
    ) {
        let Some(n) = base else { return };
        let base_var = self.pt_var(sc, n);
        let value_var = self.fresh_var();
        for &e in flows {
            self.ir.ops.push(IrOp::Alloc { var: value_var, site: e });
        }
        self.ir.ops.push(IrOp::Store {
            base: base_var,
            field: field.to_string(),
            value: value_var,
        });
        union_into(sc.env.entry(n).or_default(), flows);
    }

    /// Creates an object-read event with `reps` for a load of `field`, fed
    /// by `base_flows`; `base` names the base when it is a variable. Falls
    /// back to pass-through flow when the read has no representation.
    #[inline]
    pub fn read_event(
        &mut self,
        sc: &mut Scope<'a>,
        reps: Vec<Symbol>,
        span: Span,
        base: Option<&'a str>,
        field: &str,
        base_flows: FlowSet,
    ) -> FlowSet {
        if reps.is_empty() {
            return base_flows;
        }
        let ev = self.add_event(IrEventKind::ObjectRead, reps, span);
        // The base of a read is the same object chain: receiver flow.
        for &f in &base_flows {
            self.add_edge_recv(f, ev);
        }
        // Field-aliasing flow: register a points-to load.
        if let Some(n) = base {
            let base_var = self.pt_var(sc, n);
            let out = self.fresh_var();
            self.ir.ops.push(IrOp::Load { base: base_var, field: field.to_string(), target: out });
            self.ir.ops.push(IrOp::PtLoad { event: ev, var: out });
        }
        vec![ev]
    }

    /// Emits the call event and its receiver, positional, keyword and
    /// unpositioned edges; `None` when the call has no representation.
    fn call_event(&mut self, call: &Call<'a>, reps: Vec<Symbol>) -> Option<u32> {
        if reps.is_empty() {
            return None;
        }
        let ev = self.add_event(IrEventKind::Call, reps, call.span);
        // The receiver chain is same-object flow; arguments are not.
        for &f in &call.recv {
            self.add_edge_recv(f, ev);
            self.set_arg_position(f, ev, IrArgPos::Receiver);
        }
        for (i, flows) in call.args.iter().enumerate() {
            for &f in flows {
                self.add_edge(f, ev);
                self.set_arg_position(f, ev, IrArgPos::Positional(i.min(255) as u8));
            }
        }
        for (name, flows) in &call.kwargs {
            for &f in flows {
                self.add_edge(f, ev);
                self.set_arg_position(f, ev, IrArgPos::Keyword(name.to_string()));
            }
        }
        for &f in &call.unpositioned {
            self.add_edge(f, ev);
        }
        Some(ev)
    }

    /// The callee to inline for a call to `q`, unless the inline guard
    /// (depth bound or recursion) or an unknown name leaves it pending.
    fn inlinable(&self, q: &str) -> Option<C> {
        if self.inline_stack.len() >= MAX_INLINE_DEPTH || self.inline_stack.iter().any(|s| s == q) {
            return None;
        }
        self.funcs.get(q).map(|f| f.callee.clone())
    }
}

/// One frontend's AST walk over the shared [`Emitter`]. Provided methods
/// carry the language-neutral control: budget metering, call wiring and
/// per-call-site inlining.
pub trait Walk<'a> {
    /// A statement of the frontend's AST.
    type Stmt: 'a;
    /// What a call site needs to inline a local function.
    type Callee: Clone;

    /// The emitter this walk records into.
    fn emitter(&mut self) -> &mut Emitter<'a, Self::Callee>;

    /// Lowers one statement (the frontend's statement `match`).
    fn lower_stmt(&mut self, stmt: &'a Self::Stmt, sc: &mut Scope<'a>);

    /// Opens the scope an inlined call to `callee` runs in, its parameters
    /// bound to the call's argument flows, and returns it with the body.
    fn inline_scope(
        &mut self,
        callee: Self::Callee,
        args: &[FlowSet],
        kwargs: &[(&'a str, FlowSet)],
    ) -> (Scope<'a>, &'a [Self::Stmt]);

    /// Walks one statement under budget accounting. Once a budget trips,
    /// the walk unwinds cooperatively: every further statement is a no-op,
    /// so the only cost left is popping the recursion already on the stack.
    fn walk_stmt(&mut self, stmt: &'a Self::Stmt, sc: &mut Scope<'a>) {
        let em = self.emitter();
        if !em.meter.tick_statement(em.stmt_depth) {
            return;
        }
        em.stmt_depth += 1;
        self.lower_stmt(stmt, sc);
        self.emitter().stmt_depth -= 1;
    }

    /// Walks a block of statements in order.
    fn walk_body(&mut self, body: &'a [Self::Stmt], sc: &mut Scope<'a>) {
        for stmt in body {
            self.walk_stmt(stmt, sc);
        }
    }

    /// Wires one call site and returns its flow: its event, or
    /// pass-through of every operand for a call with no representation.
    /// A call to a known local function is inlined (§5.2): its body is
    /// re-analyzed with the parameters bound to this call's argument
    /// flows, which is context-sensitive — taint from one call site cannot
    /// leak into another. Past the inline guard the call stays pending.
    fn call(&mut self, mut call: Call<'a>) -> FlowSet {
        let reps = std::mem::take(&mut call.reps);
        let event = self.emitter().call_event(&call, reps);
        let Call { recv, args, kwargs, target, .. } = call;
        let flow = match event {
            Some(ev) => vec![ev],
            None => {
                let mut out = recv;
                for flows in args.iter().chain(kwargs.iter().map(|(_, f)| f)) {
                    union_into(&mut out, flows);
                }
                out
            }
        };
        let Some(q) = target else {
            return flow;
        };
        match self.emitter().inlinable(&q) {
            Some(callee) => {
                let (mut scope, body) = self.inline_scope(callee, &args, &kwargs);
                self.emitter().inline_stack.push(q);
                self.walk_body(body, &mut scope);
                let em = self.emitter();
                em.inline_stack.pop();
                // Without a call event (unrepresentable callee) the
                // returns are lost; that case is rare.
                if let Some(ev) = event {
                    for r in scope.returns {
                        em.add_edge(r, ev);
                    }
                }
            }
            None => self.emitter().ir.pending.push(IrPendingCall {
                qualified: q.into_owned(),
                arg_flows: args,
                kwarg_flows: kwargs.into_iter().map(|(n, f)| (n.to_string(), f)).collect(),
                call_event: event,
            }),
        }
        flow
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy frontend: a function is a name, its parameters and a body of
    /// calls, each naming a callee and the parameters it passes on.
    struct Toy<'a> {
        em: Emitter<'a, &'a ToyFunc>,
    }

    struct ToyFunc {
        name: String,
        params: Vec<String>,
        body: Vec<ToyCall>,
    }

    struct ToyCall {
        callee: String,
        args: Vec<String>,
    }

    impl<'a> Toy<'a> {
        fn define(&mut self, f: &'a ToyFunc) {
            let mut sc = Scope::new(ReprCtx::new());
            let params = f
                .params
                .iter()
                .map(|p| (p.as_str(), self.em.param(&mut sc, p, Vec::new(), Span::default())))
                .collect();
            self.walk_body(&f.body, &mut sc);
            self.em.define(Cow::Borrowed(&f.name), params, sc.returns, f);
        }
    }

    impl<'a> Walk<'a> for Toy<'a> {
        type Stmt = ToyCall;
        type Callee = &'a ToyFunc;

        fn emitter(&mut self) -> &mut Emitter<'a, &'a ToyFunc> {
            &mut self.em
        }

        fn lower_stmt(&mut self, stmt: &'a ToyCall, sc: &mut Scope<'a>) {
            let args =
                stmt.args.iter().map(|a| sc.env.get(a.as_str()).cloned().unwrap_or_default());
            let call = Call {
                reps: vec![seldon_intern::intern(&format!("{}()", stmt.callee))],
                span: Span::default(),
                recv: Vec::new(),
                args: args.collect(),
                kwargs: Vec::new(),
                unpositioned: Vec::new(),
                target: Some(Cow::Borrowed(&stmt.callee)),
            };
            let flow = self.call(call);
            sc.returns.extend(flow);
        }

        fn inline_scope(
            &mut self,
            f: &'a ToyFunc,
            args: &[FlowSet],
            _kwargs: &[(&'a str, FlowSet)],
        ) -> (Scope<'a>, &'a [ToyCall]) {
            let mut sc = Scope::new(ReprCtx::new());
            for (p, flows) in f.params.iter().zip(args) {
                sc.env.insert(p, flows.clone());
            }
            (sc, &f.body)
        }
    }

    fn func(name: &str, callee: &str) -> ToyFunc {
        let call = ToyCall { callee: callee.to_string(), args: vec!["v".to_string()] };
        ToyFunc { name: name.to_string(), params: vec!["v".to_string()], body: vec![call] }
    }

    #[test]
    fn emit_union_caps_flow_sets() {
        let mut dst = vec![1, 2];
        union_into(&mut dst, &[2, 3]);
        assert_eq!(dst, vec![1, 2, 3], "no duplicates, first-seen order");
        union_into(&mut dst, &(10..20).collect::<Vec<_>>());
        assert_eq!(dst.len(), MAX_FLOW_SET);
        assert_eq!(dst[..4], [1, 2, 3, 10]);
    }

    #[test]
    fn emit_inlines_three_deep_then_pends() {
        // f1 → f2 → f3 → f4 → sink: defined callee-first, so every call in
        // a body sees its callee; inlining stops three calls deep.
        let funcs = [func("f4", "sink"), func("f3", "f4"), func("f2", "f3"), func("f1", "f2")];
        let mut toy = Toy { em: Emitter::new(&Budget::unlimited(), &[]) };
        for f in &funcs {
            toy.define(f);
        }
        let before = toy.em.ir.pending.len();
        let top = ToyCall { callee: "f1".to_string(), args: Vec::new() };
        toy.lower_stmt(&top, &mut Scope::new(ReprCtx::new()));
        let ir = toy.em.into_ir().expect("unlimited");
        let pending: Vec<&str> =
            ir.pending[before..].iter().map(|p| p.qualified.as_str()).collect();
        assert_eq!(pending, ["f4"], "f1, f2, f3 inline; the fourth nested call pends");
    }

    #[test]
    fn emit_recursion_pends_and_summaries_keep_first_order() {
        let rec = func("loop", "loop");
        let mut toy = Toy { em: Emitter::new(&Budget::unlimited(), &["self"]) };
        toy.define(&rec);
        let top = ToyCall { callee: "loop".to_string(), args: Vec::new() };
        toy.lower_stmt(&top, &mut Scope::new(ReprCtx::new()));
        // Redefining keeps the first position.
        toy.define(&rec);
        let ir = toy.em.into_ir().expect("unlimited");
        assert_eq!(ir.funcs.len(), 1);
        assert!(!ir.funcs[0].params[0].implicit, "`v` is not a receiver");
        // Defining `loop` (not yet known), the inlined call's recursive
        // call, and the redefinition each leave one pending call.
        assert_eq!(ir.pending.iter().filter(|p| p.qualified == "loop").count(), 3);
    }

    #[test]
    fn emit_store_and_read_alias_through_points_to() {
        let mut em: Emitter<'_, ()> = Emitter::new(&Budget::unlimited(), &[]);
        let mut sc = Scope::new(ReprCtx::new());
        let src = em.param(&mut sc, "p", Vec::new(), Span::default());
        em.store_through(&mut sc, Some("obj"), "f", &[src]);
        assert_eq!(sc.env["obj"], vec![src], "weak update of the base binding");
        let reps = vec![seldon_intern::intern("obj.f")];
        let read = em.read_event(&mut sc, reps, Span::default(), Some("obj"), "f", vec![src]);
        assert_eq!(read, vec![1]);
        let ir = em.into_ir().expect("unlimited");
        let ops: Vec<String> = ir.ops.iter().map(|op| format!("{op:?}")).collect();
        assert!(ops[0].starts_with("Alloc"), "{ops:?}");
        assert!(ops[1].starts_with("Store"), "{ops:?}");
        assert!(ops.iter().any(|op| op.starts_with("Load")), "{ops:?}");
        assert!(ops.iter().any(|op| op.starts_with("PtLoad")), "{ops:?}");
    }

    #[test]
    fn emit_budget_trip_discards_ir() {
        let tight = Budget { max_statements: 1, ..Budget::unlimited() };
        let f = func("f", "g");
        let mut toy = Toy { em: Emitter::new(&tight, &[]) };
        toy.define(&f);
        let mut sc = Scope::new(ReprCtx::new());
        toy.walk_body(&f.body, &mut sc);
        assert!(matches!(toy.em.into_ir(), Err(BudgetExceeded::Statements { .. })));
    }
}
