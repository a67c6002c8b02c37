//! The language-neutral half of lowering: one emitter for every frontend.
//!
//! §5's graph-construction rules are stated without reference to syntax,
//! and they live here once: environment flow sets and branch merging,
//! argument and receiver flow into calls, field aliasing through
//! points-to ops, and per-call-site inlining with its depth and recursion
//! guard. A frontend implements [`Walk`] — its statement and expression
//! matches, import collection and representations — and drives an
//! [`Emitter`], which hands each event and op to a [`Sink`] as the walk
//! makes it: the graph sink ([`crate::irbuild::GraphSink`]) builds the
//! `PropagationGraph` during the walk, the [`Recorder`] keeps the stream as
//! a [`seldon_ir::IrProgram`]. The Python lowering in [`crate::lower`] and
//! the JS-like one in `seldon-jsfront` are the two walks.

use crate::budget::{Budget, BudgetExceeded, BudgetMeter};
use crate::repr::{ReprCtx, Variants};
use seldon_intern::{IdHash, Symbol, Symbols};
use seldon_ir::{
    IrArgPos, IrEdgeKind, IrEvent, IrEventKind, IrFunc, IrOp, IrParam, IrPendingCall, IrProgram,
    Span,
};
use std::borrow::Cow;
use std::collections::HashMap;

/// Maximum events tracked per variable binding; larger sets are truncated.
pub const MAX_FLOW_SET: usize = 8;

/// Inlined calls nest at most this deep; deeper calls stay pending.
const MAX_INLINE_DEPTH: usize = 3;

/// A set of event indices whose values may flow into a binding: at most
/// [`MAX_FLOW_SET`] of them, in first-seen order, stored inline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowSet {
    len: u8,
    ids: [u32; MAX_FLOW_SET],
}

impl FlowSet {
    /// The set holding only `ev`.
    pub fn one(ev: u32) -> Self {
        FlowSet::from(&[ev][..])
    }
}

impl std::ops::Deref for FlowSet {
    type Target = [u32];
    fn deref(&self) -> &[u32] {
        &self.ids[..usize::from(self.len)]
    }
}

impl From<&[u32]> for FlowSet {
    fn from(ids: &[u32]) -> Self {
        let mut set = FlowSet::default();
        union_into(&mut set, ids);
        set
    }
}

/// Adds the events of `src` missing from `dst` in order, until `dst`
/// holds [`MAX_FLOW_SET`].
#[inline]
pub fn union_into(dst: &mut FlowSet, src: &[u32]) {
    for &e in src {
        let len = usize::from(dst.len);
        if len == MAX_FLOW_SET {
            return;
        }
        if !dst.contains(&e) {
            dst.ids[len] = e;
            dst.len += 1;
        }
    }
}

/// The flow sets of a scope's bindings, by names borrowed from the AST.
pub type Env<'a> = HashMap<&'a str, FlowSet, IdHash>;

/// The maps a closed scope leaves for the next: its environment, its
/// points-to variables and its locals' variants.
type SpareMaps<'a> =
    (Env<'a>, HashMap<&'a str, u32, IdHash>, HashMap<&'a str, Variants, IdHash>);

/// Per-function analysis scope. A walk opens and closes its scopes through
/// the [`Emitter`] ([`Emitter::open_scope`], [`Emitter::close_scope`]), so
/// the maps of a closed scope serve the next one.
pub struct Scope<'a> {
    /// How expressions in this scope are described.
    pub ctx: ReprCtx<'a>,
    /// The events that may flow into each binding.
    pub env: Env<'a>,
    /// Events flowing into `return` statements.
    pub returns: Vec<u32>,
    /// This scope's named points-to variables, memoized by name.
    pt_vars: HashMap<&'a str, u32, IdHash>,
}

impl<'a> Scope<'a> {
    /// Joins the bindings of another branch into this one.
    pub fn merge_env(&mut self, other: Env<'a>) {
        for (k, v) in other {
            union_into(self.env.entry(k).or_default(), &v);
        }
    }
}

/// Summary of a locally-defined function for call linking.
pub struct FuncSummary<'a, C> {
    /// Declared parameters in order, named from the AST.
    pub params: Vec<IrParam<&'a str>>,
    /// Events flowing into `return` statements.
    pub returns: Vec<u32>,
    /// What a call site needs to inline the function (§5.2: "we inline
    /// methods whose body can be statically determined").
    pub callee: C,
}

/// A file's function summaries by qualified name.
pub type Funcs<'a, C> = HashMap<Cow<'a, str>, FuncSummary<'a, C>, IdHash>;

/// A call to a (possibly) local function, linked after the walk.
pub struct PendingCall<'a> {
    /// Qualified callee name to look up in the function summaries.
    pub qualified: Cow<'a, str>,
    /// Flows of each positional argument, in order.
    pub args: Vec<FlowSet>,
    /// Flows of each keyword argument, by name.
    pub kwargs: Vec<(&'a str, FlowSet)>,
    /// The call event itself, if one was created.
    pub event: Option<u32>,
}

/// Where an [`Emitter`] writes a walk: events, ops and points-to variables
/// in walk order, then the function summaries and the pending calls.
pub trait Sink {
    /// What a finished walk yields.
    type Output;
    /// The file's symbol table, which event representations belong to.
    fn symbols(&mut self) -> &mut Symbols;
    /// Adds an event and returns its index; events are numbered in order.
    fn event(&mut self, kind: IrEventKind, reps: Vec<Symbol>, span: Span) -> u32;
    /// Applies one construction step.
    fn op(&mut self, op: IrOp<&str>);
    /// Allocates a points-to variable; variables are numbered in order.
    fn fresh_var(&mut self) -> u32;
    /// Ends a walk that stayed within its budget; `order` lists the
    /// function names in first-definition order.
    fn finish<C>(
        self,
        funcs: &Funcs<'_, C>,
        order: &[Cow<'_, str>],
        pending: Vec<PendingCall<'_>>,
    ) -> Self::Output;
}

/// The recording sink: keeps the walk as an [`IrProgram`], for `seldon
/// ir-dump`, the IR goldens and replay through [`crate::build_ir`].
#[derive(Debug, Default)]
pub struct Recorder(IrProgram);

impl Sink for Recorder {
    type Output = IrProgram;

    fn symbols(&mut self) -> &mut Symbols {
        &mut self.0.symbols
    }

    fn event(&mut self, kind: IrEventKind, reps: Vec<Symbol>, span: Span) -> u32 {
        self.0.events.push(IrEvent { kind, reps, span });
        self.0.events.len() as u32 - 1
    }

    fn op(&mut self, op: IrOp<&str>) {
        self.0.ops.push(op.map(|s| s.to_string()));
    }

    fn fresh_var(&mut self) -> u32 {
        self.0.var_count += 1;
        self.0.var_count - 1
    }

    fn finish<C>(
        mut self,
        funcs: &Funcs<'_, C>,
        order: &[Cow<'_, str>],
        pending: Vec<PendingCall<'_>>,
    ) -> IrProgram {
        self.0.funcs = order
            .iter()
            .map(|qualified| (qualified, &funcs[qualified]))
            .map(|(qualified, f)| IrFunc {
                qualified: qualified.to_string(),
                params: f
                    .params
                    .iter()
                    .map(|p| IrParam {
                        name: p.name.to_string(),
                        event: p.event,
                        implicit: p.implicit,
                    })
                    .collect(),
                returns: f.returns.clone(),
            })
            .collect();
        self.0.pending = pending
            .into_iter()
            .map(|p| IrPendingCall {
                qualified: p.qualified.into_owned(),
                arg_flows: p.args.iter().map(|f| f.to_vec()).collect(),
                kwarg_flows: p.kwargs.iter().map(|(n, f)| (n.to_string(), f.to_vec())).collect(),
                call_event: p.event,
            })
            .collect();
        self.0.symbols.seal();
        self.0
    }
}

/// One call site, its operands already evaluated and pushed onto the
/// emitter's operand stacks above `operands`.
pub struct Call<'a> {
    /// The call's representations; empty when it has none.
    pub reps: Vec<Symbol>,
    /// Source location of the call.
    pub span: Span,
    /// Flows of the receiver chain, e.g. `x` in `x.m()`.
    pub recv: FlowSet,
    /// Where the call's operands start on the operand stacks
    /// ([`Emitter::operands`], taken before evaluating the first one).
    pub operands: Operands,
    /// The qualified name of the local function the call may link to.
    pub target: Option<Cow<'a, str>>,
}

/// The heights of the emitter's operand stacks: where one call's operands
/// start. Calls nest (an argument may be a call, an inlined body makes
/// more), so each call pops exactly what it pushed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Operands {
    args: usize,
    kwargs: usize,
    unpositioned: usize,
}

/// Writes one file's walk to a [`Sink`] `S`. `C` is what the frontend
/// needs to inline a local function at a call site.
pub struct Emitter<'a, C, S> {
    sink: S,
    funcs: Funcs<'a, C>,
    /// Qualified names in first-definition order, for stable IR emission.
    func_order: Vec<Cow<'a, str>>,
    /// Calls left for linking after the walk, in call order.
    pending: Vec<PendingCall<'a>>,
    /// Names currently being inlined (recursion guard) — doubles as the
    /// inline-depth bound.
    inline_stack: Vec<Cow<'a, str>>,
    /// The maps of closed scopes, emptied, for the next scopes to reuse.
    spare: Vec<SpareMaps<'a>>,
    /// Operand stacks of the calls being wired: flows of each positional
    /// argument, of each keyword argument by name, and events that flow in
    /// without an argument position. Reused by every call of the walk.
    args: Vec<FlowSet>,
    kwargs: Vec<(&'a str, FlowSet)>,
    unpositioned: Vec<u32>,
    /// Resource accounting against the file's budget.
    meter: BudgetMeter,
    /// Current statement-nesting depth, fed to the meter.
    stmt_depth: usize,
    /// Parameter names that are implicit receiver slots (`self`, `cls`).
    receivers: &'static [&'static str],
}

impl<'a, C: Clone, S: Sink> Emitter<'a, C, S> {
    /// Starts emitting into `sink` under `budget`. Parameters named in
    /// `receivers` are implicit receiver slots.
    pub fn new(budget: &Budget, receivers: &'static [&'static str], sink: S) -> Self {
        Emitter {
            sink,
            funcs: Funcs::default(),
            func_order: Vec::new(),
            pending: Vec::new(),
            inline_stack: Vec::new(),
            spare: Vec::new(),
            args: Vec::new(),
            kwargs: Vec::new(),
            unpositioned: Vec::new(),
            meter: BudgetMeter::new(budget.clone()),
            stmt_depth: 0,
            receivers,
        }
    }

    /// A scope described by `ctx`, its maps reused from a closed scope. With
    /// an `outer` scope its free variables see the outer bindings and
    /// locals' variants (a function nested in a module or class body).
    pub fn open_scope(&mut self, mut ctx: ReprCtx<'a>, outer: Option<&Scope<'a>>) -> Scope<'a> {
        let (mut env, pt_vars, mut locals) = self.spare.pop().unwrap_or_default();
        if let Some(outer) = outer {
            env.extend(outer.env.iter().map(|(&name, &flows)| (name, flows)));
            locals.extend(outer.ctx.locals.iter().map(|(&name, &v)| (name, v)));
        }
        ctx.locals = locals;
        Scope { ctx, env, returns: Vec::new(), pt_vars }
    }

    /// Closes `scope`, keeping its emptied maps for the next scope, and
    /// returns the events that flowed into its `return` statements.
    pub fn close_scope(&mut self, scope: Scope<'a>) -> Vec<u32> {
        let Scope { ctx, mut env, returns, mut pt_vars } = scope;
        let mut locals = ctx.locals;
        env.clear();
        pt_vars.clear();
        locals.clear();
        self.spare.push((env, pt_vars, locals));
        returns
    }

    /// The current heights of the operand stacks, for a [`Call`] whose
    /// operands are pushed next.
    #[inline]
    pub fn operands(&self) -> Operands {
        Operands {
            args: self.args.len(),
            kwargs: self.kwargs.len(),
            unpositioned: self.unpositioned.len(),
        }
    }

    /// Pushes the flows of the next positional argument.
    #[inline]
    pub fn push_arg(&mut self, flows: FlowSet) {
        self.args.push(flows);
    }

    /// Pushes the flows of a keyword argument.
    #[inline]
    pub fn push_kwarg(&mut self, name: &'a str, flows: FlowSet) {
        self.kwargs.push((name, flows));
    }

    /// Pushes events that flow into the call without an argument position.
    #[inline]
    pub fn push_unpositioned(&mut self, events: &[u32]) {
        self.unpositioned.extend_from_slice(events);
    }

    /// Pops the operands of the call that started at `from`.
    #[inline]
    fn pop_operands(&mut self, from: Operands) {
        self.args.truncate(from.args);
        self.kwargs.truncate(from.kwargs);
        self.unpositioned.truncate(from.unpositioned);
    }

    /// The symbol table the sink's events use, for describing expressions.
    pub fn symbols(&mut self) -> &mut Symbols {
        self.sink.symbols()
    }

    /// Whether `name` is an implicit receiver parameter.
    #[inline]
    pub fn is_receiver(&self, name: &str) -> bool {
        self.receivers.contains(&name)
    }

    /// What the sink built, or the budget limit the walk tripped.
    ///
    /// # Errors
    ///
    /// Returns [`BudgetExceeded`] if the walk tripped a limit; the sink is
    /// dropped unfinished, so no partial output escapes.
    pub fn finish(self) -> Result<S::Output, BudgetExceeded> {
        match self.meter.into_tripped() {
            Some(e) => Err(e),
            None => Ok(self.sink.finish(&self.funcs, &self.func_order, self.pending)),
        }
    }

    #[inline]
    fn add_edge(&mut self, from: u32, to: u32, kind: IrEdgeKind) {
        self.sink.op(IrOp::Edge { from, to, kind });
    }

    #[inline]
    fn set_arg_position(&mut self, from: u32, to: u32, pos: IrArgPos<&str>) {
        self.sink.op(IrOp::ArgPos { from, to, pos });
    }

    /// The named points-to variable `name` of `scope`, mirroring
    /// `Andersen::var`.
    #[inline]
    fn pt_var(&mut self, scope: &mut Scope<'a>, name: &'a str) -> u32 {
        if let Some(&v) = scope.pt_vars.get(name) {
            return v;
        }
        let v = self.sink.fresh_var();
        scope.pt_vars.insert(name, v);
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
        let ev = self.sink.event(IrEventKind::ParamRead, reps, span);
        sc.env.insert(name, FlowSet::one(ev));
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
        let params = params
            .into_iter()
            .map(|(name, event)| IrParam { name, event, implicit: self.is_receiver(name) })
            .collect();
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
        flows: &FlowSet,
        variants: Option<Variants>,
        copy_from: Option<&'a str>,
    ) {
        sc.env.insert(name, *flows);
        match variants {
            Some(v) if !v.is_empty() => {
                sc.ctx.locals.insert(name, v);
            }
            _ => {
                sc.ctx.locals.remove(name);
            }
        }
        let var = self.pt_var(sc, name);
        for &site in flows.iter() {
            self.sink.op(IrOp::Alloc { var, site });
        }
        if let Some(m) = copy_from {
            let from = self.pt_var(sc, m);
            self.sink.op(IrOp::Copy { from, to: var });
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
        let value = self.sink.fresh_var();
        for &site in flows {
            self.sink.op(IrOp::Alloc { var: value, site });
        }
        self.sink.op(IrOp::Store { base: base_var, field, value });
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
        let ev = self.sink.event(IrEventKind::ObjectRead, reps, span);
        // The base of a read is the same object chain: receiver flow.
        for &f in base_flows.iter() {
            self.add_edge(f, ev, IrEdgeKind::Receiver);
        }
        // Field-aliasing flow: register a points-to load.
        if let Some(n) = base {
            let base_var = self.pt_var(sc, n);
            let target = self.sink.fresh_var();
            self.sink.op(IrOp::Load { base: base_var, field, target });
            self.sink.op(IrOp::PtLoad { event: ev, var: target });
        }
        FlowSet::one(ev)
    }

    /// Emits the call event and its receiver, positional, keyword and
    /// unpositioned edges, the operands read from the stacks above `from`;
    /// `None` when the call has no representation.
    fn call_event(
        &mut self,
        reps: Vec<Symbol>,
        span: Span,
        recv: &FlowSet,
        from: Operands,
    ) -> Option<u32> {
        if reps.is_empty() {
            return None;
        }
        let ev = self.sink.event(IrEventKind::Call, reps, span);
        // The receiver chain is same-object flow; arguments are not.
        for &f in recv.iter() {
            self.add_edge(f, ev, IrEdgeKind::Receiver);
            self.set_arg_position(f, ev, IrArgPos::Receiver);
        }
        for i in 0..self.args.len() - from.args {
            let flows = self.args[from.args + i];
            for &f in flows.iter() {
                self.add_edge(f, ev, IrEdgeKind::Argument);
                self.set_arg_position(f, ev, IrArgPos::Positional(i.min(255) as u8));
            }
        }
        for k in from.kwargs..self.kwargs.len() {
            let (name, flows) = self.kwargs[k];
            for &f in flows.iter() {
                self.add_edge(f, ev, IrEdgeKind::Argument);
                self.set_arg_position(f, ev, IrArgPos::Keyword(name));
            }
        }
        for u in from.unpositioned..self.unpositioned.len() {
            self.add_edge(self.unpositioned[u], ev, IrEdgeKind::Argument);
        }
        Some(ev)
    }

    /// The flow of a call with no event: its receiver and every operand
    /// above `from`, passed through.
    fn pass_through(&self, recv: FlowSet, from: Operands) -> FlowSet {
        let mut out = recv;
        let kwargs = self.kwargs[from.kwargs..].iter().map(|(_, f)| f);
        for flows in self.args[from.args..].iter().chain(kwargs) {
            union_into(&mut out, flows);
        }
        out
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
    /// Where the emitter writes.
    type Sink: Sink;

    /// The emitter this walk writes through.
    fn emitter(&mut self) -> &mut Emitter<'a, Self::Callee, Self::Sink>;

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
    fn call(&mut self, call: Call<'a>) -> FlowSet {
        let Call { reps, span, recv, operands: from, target } = call;
        let em = self.emitter();
        let event = em.call_event(reps, span, &recv, from);
        let flow = match event {
            Some(ev) => FlowSet::one(ev),
            None => em.pass_through(recv, from),
        };
        let Some(q) = target else {
            em.pop_operands(from);
            return flow;
        };
        match em.inlinable(&q) {
            Some(callee) => {
                // The stacks are lent out while the scope binds the
                // operands, and the operands popped before the body runs.
                let (args, kwargs) = (std::mem::take(&mut em.args), std::mem::take(&mut em.kwargs));
                let (mut scope, body) =
                    self.inline_scope(callee, &args[from.args..], &kwargs[from.kwargs..]);
                let em = self.emitter();
                (em.args, em.kwargs) = (args, kwargs);
                em.pop_operands(from);
                em.inline_stack.push(q);
                self.walk_body(body, &mut scope);
                let em = self.emitter();
                em.inline_stack.pop();
                let returns = em.close_scope(scope);
                // Without a call event (unrepresentable callee) the
                // returns are lost; that case is rare.
                if let Some(ev) = event {
                    for r in returns {
                        em.add_edge(r, ev, IrEdgeKind::Argument);
                    }
                }
            }
            None => {
                let args = em.args[from.args..].to_vec();
                let kwargs = em.kwargs[from.kwargs..].to_vec();
                em.pop_operands(from);
                em.pending.push(PendingCall { qualified: q, args, kwargs, event });
            }
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
        em: Emitter<'a, &'a ToyFunc, Recorder>,
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
            let mut sc = self.em.open_scope(ReprCtx::new(), None);
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
        type Sink = Recorder;

        fn emitter(&mut self) -> &mut Emitter<'a, &'a ToyFunc, Recorder> {
            &mut self.em
        }

        fn lower_stmt(&mut self, stmt: &'a ToyCall, sc: &mut Scope<'a>) {
            let operands = self.em.operands();
            for a in &stmt.args {
                self.em.push_arg(sc.env.get(a.as_str()).copied().unwrap_or_default());
            }
            let call = Call {
                reps: vec![self.em.symbols().intern(&format!("{}()", stmt.callee))],
                span: Span::default(),
                recv: FlowSet::default(),
                operands,
                target: Some(Cow::Borrowed(&stmt.callee)),
            };
            let flow = self.call(call);
            sc.returns.extend(flow.iter());
        }

        fn inline_scope(
            &mut self,
            f: &'a ToyFunc,
            args: &[FlowSet],
            _kwargs: &[(&'a str, FlowSet)],
        ) -> (Scope<'a>, &'a [ToyCall]) {
            let mut sc = self.em.open_scope(ReprCtx::new(), None);
            for (p, flows) in f.params.iter().zip(args) {
                sc.env.insert(p, *flows);
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
        let mut dst = FlowSet::from(&[1, 2][..]);
        union_into(&mut dst, &[2, 3]);
        assert_eq!(*dst, [1, 2, 3], "no duplicates, first-seen order");
        union_into(&mut dst, &(10..20).collect::<Vec<_>>());
        assert_eq!(dst.len(), MAX_FLOW_SET);
        assert_eq!(*dst, [1, 2, 3, 10, 11, 12, 13, 14], "the first arrivals stay");
    }

    #[test]
    fn emit_inlines_three_deep_then_pends() {
        // f1 → f2 → f3 → f4 → sink: defined callee-first, so every call in
        // a body sees its callee; inlining stops three calls deep.
        let funcs = [func("f4", "sink"), func("f3", "f4"), func("f2", "f3"), func("f1", "f2")];
        let mut toy = Toy { em: Emitter::new(&Budget::unlimited(), &[], Recorder::default()) };
        for f in &funcs {
            toy.define(f);
        }
        let before = toy.em.pending.len();
        let top = ToyCall { callee: "f1".to_string(), args: Vec::new() };
        let mut sc = toy.em.open_scope(ReprCtx::new(), None);
        toy.lower_stmt(&top, &mut sc);
        let ir = toy.em.finish().expect("unlimited");
        let pending: Vec<&str> =
            ir.pending[before..].iter().map(|p| p.qualified.as_str()).collect();
        assert_eq!(pending, ["f4"], "f1, f2, f3 inline; the fourth nested call pends");
    }

    #[test]
    fn emit_recursion_pends_and_summaries_keep_first_order() {
        let rec = func("loop", "loop");
        let mut toy =
            Toy { em: Emitter::new(&Budget::unlimited(), &["self"], Recorder::default()) };
        toy.define(&rec);
        let top = ToyCall { callee: "loop".to_string(), args: Vec::new() };
        let mut sc = toy.em.open_scope(ReprCtx::new(), None);
        toy.lower_stmt(&top, &mut sc);
        // Redefining keeps the first position.
        toy.define(&rec);
        let ir = toy.em.finish().expect("unlimited");
        assert_eq!(ir.funcs.len(), 1);
        assert!(!ir.funcs[0].params[0].implicit, "`v` is not a receiver");
        // Defining `loop` (not yet known), the inlined call's recursive
        // call, and the redefinition each leave one pending call.
        assert_eq!(ir.pending.iter().filter(|p| p.qualified == "loop").count(), 3);
    }

    #[test]
    fn emit_store_and_read_alias_through_points_to() {
        let mut em: Emitter<'_, (), Recorder> =
            Emitter::new(&Budget::unlimited(), &[], Recorder::default());
        let mut sc = em.open_scope(ReprCtx::new(), None);
        let src = em.param(&mut sc, "p", Vec::new(), Span::default());
        em.store_through(&mut sc, Some("obj"), "f", &[src]);
        assert_eq!(*sc.env["obj"], [src], "weak update of the base binding");
        let reps = vec![em.symbols().intern("obj.f")];
        let read =
            em.read_event(&mut sc, reps, Span::default(), Some("obj"), "f", FlowSet::one(src));
        assert_eq!(*read, [1]);
        let ir = em.finish().expect("unlimited");
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
        let mut toy = Toy { em: Emitter::new(&tight, &[], Recorder::default()) };
        toy.define(&f);
        let mut sc = toy.em.open_scope(ReprCtx::new(), None);
        toy.walk_body(&f.body, &mut sc);
        assert!(matches!(toy.em.finish(), Err(BudgetExceeded::Statements { .. })));
    }
}
