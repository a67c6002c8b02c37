//! Lowers Python ASTs into the language-neutral IR (§5).
//!
//! This is the Python half of the split builder: it owns every
//! Python-specific decision — environment threading, strong/weak updates,
//! single-iteration loops, per-call-site inlining, `locals()`, `self`/`cls`
//! receiver slots, import resolution — and records the resulting event and
//! op stream as a [`seldon_ir::IrProgram`]. The language-blind replay in
//! [`crate::irbuild`] then turns that stream into a `PropagationGraph`.
//!
//! The lowering contract (see DESIGN.md §3g): events are emitted in the
//! exact order the original builder created them, ops in the exact order
//! the original builder applied them, so replay reproduces event identity
//! and adjacency order byte-for-byte.

use crate::budget::{Budget, BudgetExceeded, BudgetMeter};
use crate::repr::{describe_expr, describe_syms, ImportMap, ReprCtx};
use seldon_intern::intern;
use seldon_ir::{
    IrArgPos, IrEdgeKind, IrEvent, IrEventKind, IrFunc, IrOp, IrParam, IrPendingCall, IrProgram,
};
use seldon_pyast::ast::*;
use seldon_pyast::visit::{self, Visitor};
use std::borrow::Cow;
use std::collections::HashMap;
use std::rc::Rc;

/// Maximum events tracked per variable binding; larger sets are truncated.
const MAX_FLOW_SET: usize = 8;

/// A set of event indices whose values may flow into a binding.
type FlowSet = Vec<u32>;

/// Lowers one parsed module into the language-neutral IR under a resource
/// [`Budget`] (pass [`Budget::unlimited`] to lower without limits).
///
/// # Errors
///
/// Returns [`BudgetExceeded`] if the walk trips a statement-count, depth,
/// or deadline limit; the partial IR is discarded.
pub fn lower_module_budgeted(
    module: &Module,
    budget: &Budget,
) -> Result<IrProgram, BudgetExceeded> {
    let mut l = Lowerer::new(module, budget);
    l.run(module);
    l.into_ir()
}

/// Summary of a locally-defined function for call linking.
#[derive(Debug)]
struct FuncSummary<'m> {
    /// `(name, param event)` in declaration order.
    params: Vec<(&'m str, u32)>,
    /// Events flowing into `return` statements.
    returns: Vec<u32>,
    /// The function, borrowed from the module for per-call-site inlining
    /// (§5.2: "we inline methods whose body can be statically
    /// determined"), with its lexical context.
    def: &'m FunctionDef,
    class_name: Option<&'m str>,
    base_class: Option<String>,
}

/// Per-function analysis scope.
struct Scope<'m> {
    ctx: ReprCtx,
    env: HashMap<&'m str, FlowSet>,
    returns: Vec<u32>,
    /// This scope's named points-to variables, memoized by name just as the
    /// pre-split builder interned `s{scope}::{name}` in its Andersen
    /// instance.
    pt_vars: HashMap<&'m str, u32>,
}

impl<'m> Scope<'m> {
    fn merge_env(&mut self, other: HashMap<&'m str, FlowSet>) {
        for (k, v) in other {
            union_into(self.env.entry(k).or_default(), &v);
        }
    }
}

/// Walks one module. The AST is borrowed for the whole lowering: function
/// bodies kept for inlining, environment keys and points-to names all
/// point into it.
struct Lowerer<'m> {
    ir: IrProgram,
    /// The module's import bindings, built once and shared by every scope.
    imports: Rc<ImportMap>,
    funcs: HashMap<String, FuncSummary<'m>>,
    /// Qualified names in first-definition order, for stable IR emission.
    func_order: Vec<String>,
    /// Names currently being inlined (recursion guard) — doubles as the
    /// inline-depth bound.
    inline_stack: Vec<Cow<'m, str>>,
    /// Resource accounting against the file's budget.
    meter: BudgetMeter,
    /// Current statement-nesting depth, fed to the meter.
    stmt_depth: usize,
}

impl<'m> Lowerer<'m> {
    fn new(module: &Module, budget: &Budget) -> Self {
        Lowerer {
            ir: IrProgram::default(),
            imports: Rc::new(collect_imports(module)),
            funcs: HashMap::new(),
            func_order: Vec::new(),
            inline_stack: Vec::new(),
            meter: BudgetMeter::new(budget.clone()),
            stmt_depth: 0,
        }
    }

    fn run(&mut self, module: &'m Module) {
        let mut scope = self.new_scope(None, None, None);
        for stmt in &module.body {
            self.walk_stmt(stmt, &mut scope);
        }
    }

    /// The lowered IR, or the budget limit the walk tripped.
    fn into_ir(mut self) -> Result<IrProgram, BudgetExceeded> {
        if let Some(e) = self.meter.into_tripped() {
            return Err(e);
        }
        for name in &self.func_order {
            let s = &self.funcs[name];
            self.ir.funcs.push(IrFunc {
                qualified: name.clone(),
                params: s
                    .params
                    .iter()
                    .map(|&(n, ev)| IrParam {
                        name: n.to_string(),
                        event: ev,
                        implicit: n == "self" || n == "cls",
                    })
                    .collect(),
                returns: s.returns.clone(),
            });
        }
        Ok(self.ir)
    }

    // ----- IR emission helpers ----------------------------------------------

    fn add_event(&mut self, kind: IrEventKind, reps: Vec<seldon_intern::Symbol>, span: seldon_ir::Span) -> u32 {
        let id = self.ir.events.len() as u32;
        self.ir.events.push(IrEvent { kind, reps, span });
        id
    }

    fn add_edge(&mut self, from: u32, to: u32) {
        self.ir.ops.push(IrOp::Edge { from, to, kind: IrEdgeKind::Argument });
    }

    fn add_edge_recv(&mut self, from: u32, to: u32) {
        self.ir.ops.push(IrOp::Edge { from, to, kind: IrEdgeKind::Receiver });
    }

    fn set_arg_position(&mut self, from: u32, to: u32, pos: IrArgPos) {
        self.ir.ops.push(IrOp::ArgPos { from, to, pos });
    }

    /// The named points-to variable `name` of `scope`, mirroring
    /// `Andersen::var`.
    fn pt_var(&mut self, scope: &mut Scope<'m>, name: &'m str) -> u32 {
        if let Some(&v) = scope.pt_vars.get(name) {
            return v;
        }
        let v = self.fresh_var();
        scope.pt_vars.insert(name, v);
        v
    }

    /// Allocates an anonymous points-to variable, mirroring `Andersen::fresh`.
    fn fresh_var(&mut self) -> u32 {
        let v = self.ir.var_count;
        self.ir.var_count += 1;
        v
    }

    /// A fresh scope; `def` is the function it analyzes, if any.
    fn new_scope(
        &mut self,
        class_name: Option<&str>,
        base_class: Option<String>,
        def: Option<&FunctionDef>,
    ) -> Scope<'m> {
        let ctx = ReprCtx {
            imports: Rc::clone(&self.imports),
            class_name: class_name.map(str::to_string),
            base_class,
            func_name: def.map(|d| d.name.clone()),
            params: def.map_or_else(Vec::new, |d| declared_params(d).map(str::to_string).collect()),
            locals: HashMap::new(),
        };
        Scope { ctx, env: HashMap::new(), returns: Vec::new(), pt_vars: HashMap::new() }
    }

    // ----- statements -------------------------------------------------------

    /// Walks one statement under budget accounting. Once a budget trips,
    /// the walk unwinds cooperatively: every further statement is a no-op,
    /// so the only cost left is popping the recursion already on the stack.
    fn walk_stmt(&mut self, stmt: &'m Stmt, sc: &mut Scope<'m>) {
        if !self.meter.tick_statement(self.stmt_depth) {
            return;
        }
        self.stmt_depth += 1;
        self.walk_stmt_inner(stmt, sc);
        self.stmt_depth -= 1;
    }

    fn walk_stmt_inner(&mut self, stmt: &'m Stmt, sc: &mut Scope<'m>) {
        match &stmt.kind {
            StmtKind::Import(_) | StmtKind::ImportFrom { .. } => {}
            StmtKind::FunctionDef(def) => self.walk_function(def, sc, None, None),
            StmtKind::ClassDef(def) => self.walk_class(def, sc),
            StmtKind::Return(value) => {
                if let Some(v) = value {
                    let flows = self.eval(v, sc);
                    sc.returns.extend(flows);
                }
            }
            StmtKind::Assign { targets, value } => {
                let flows = self.eval(value, sc);
                let variants: Rc<[String]> = describe_expr(value, &sc.ctx).into();
                for t in targets {
                    self.assign_to(t, &flows, Some(&variants), value, sc);
                }
            }
            StmtKind::AugAssign { target, value, .. } => {
                let flows = self.eval(value, sc);
                if let ExprKind::Name(n) = &target.kind {
                    union_into(sc.env.entry(n).or_default(), &flows);
                } else {
                    self.assign_to(target, &flows, None, value, sc);
                }
            }
            StmtKind::AnnAssign { target, value, .. } => {
                if let Some(v) = value {
                    let flows = self.eval(v, sc);
                    let variants: Rc<[String]> = describe_expr(v, &sc.ctx).into();
                    self.assign_to(target, &flows, Some(&variants), v, sc);
                }
            }
            StmtKind::For { target, iter, body, orelse } => {
                let flows = self.eval(iter, sc);
                self.bind_pattern(target, &flows, sc);
                let saved = sc.env.clone();
                for s in body {
                    self.walk_stmt(s, sc);
                }
                for s in orelse {
                    self.walk_stmt(s, sc);
                }
                sc.merge_env(saved);
            }
            StmtKind::While { test, body, orelse } => {
                self.eval(test, sc);
                let saved = sc.env.clone();
                for s in body {
                    self.walk_stmt(s, sc);
                }
                for s in orelse {
                    self.walk_stmt(s, sc);
                }
                sc.merge_env(saved);
            }
            StmtKind::If { test, body, orelse } => {
                self.eval(test, sc);
                let before = sc.env.clone();
                for s in body {
                    self.walk_stmt(s, sc);
                }
                let after_then = std::mem::replace(&mut sc.env, before);
                for s in orelse {
                    self.walk_stmt(s, sc);
                }
                sc.merge_env(after_then);
            }
            StmtKind::With { items, body } => {
                for item in items {
                    let flows = self.eval(&item.context, sc);
                    if let Some(t) = &item.target {
                        self.bind_pattern(t, &flows, sc);
                    }
                }
                for s in body {
                    self.walk_stmt(s, sc);
                }
            }
            StmtKind::Raise { exc, cause } => {
                if let Some(e) = exc {
                    self.eval(e, sc);
                }
                if let Some(e) = cause {
                    self.eval(e, sc);
                }
            }
            StmtKind::Try { body, handlers, orelse, finalbody } => {
                for s in body {
                    self.walk_stmt(s, sc);
                }
                for h in handlers {
                    if let Some(n) = &h.name {
                        sc.env.insert(n, Vec::new());
                    }
                    for s in &h.body {
                        self.walk_stmt(s, sc);
                    }
                }
                for s in orelse.iter().chain(finalbody) {
                    self.walk_stmt(s, sc);
                }
            }
            StmtKind::Assert { test, msg } => {
                self.eval(test, sc);
                if let Some(m) = msg {
                    self.eval(m, sc);
                }
            }
            StmtKind::Expr(e) => {
                self.eval(e, sc);
            }
            StmtKind::Delete(targets) => {
                for t in targets {
                    self.eval(t, sc);
                }
            }
            StmtKind::Global(_)
            | StmtKind::Nonlocal(_)
            | StmtKind::Pass
            | StmtKind::Break
            | StmtKind::Continue => {}
        }
    }

    fn walk_function(
        &mut self,
        def: &'m FunctionDef,
        outer: &mut Scope<'m>,
        class_name: Option<&'m str>,
        base_class: Option<&str>,
    ) {
        // Decorators and defaults evaluate in the enclosing scope.
        for d in &def.decorators {
            self.eval(d, outer);
        }
        for p in &def.params {
            if let Some(d) = &p.default {
                self.eval(d, outer);
            }
        }
        let mut scope = self.new_scope(class_name, base_class.map(str::to_string), Some(def));
        // Free variables see enclosing (module/class) bindings.
        scope.env = outer.env.clone();
        scope.ctx.locals = outer.ctx.locals.clone();
        // Formal parameters are source-candidate events (§5.1). The bare
        // variable name is deliberately not used as a representation for the
        // parameter event itself — `self` would conflate the whole corpus —
        // but parameter *uses* in expressions still back off to it.
        let mut params = Vec::new();
        for p in &def.params {
            if p.kind == ParamKind::KwOnlyMarker {
                continue;
            }
            let mut reps = Vec::new();
            if let Some(class) = class_name {
                reps.push(intern(&format!("{class}::{}(param {})", def.name, p.name)));
                if let Some(base) = base_class {
                    reps.push(intern(&format!("{base}::{}(param {})", def.name, p.name)));
                }
            }
            reps.push(intern(&format!("{}(param {})", def.name, p.name)));
            let ev = self.add_event(IrEventKind::ParamRead, reps, p.span);
            scope.env.insert(&p.name, vec![ev]);
            params.push((p.name.as_str(), ev));
        }
        for s in &def.body {
            self.walk_stmt(s, &mut scope);
        }
        let summary = FuncSummary {
            params,
            returns: scope.returns,
            def,
            class_name,
            base_class: base_class.map(str::to_string),
        };
        let qualified = match class_name {
            Some(c) => format!("{c}::{}", def.name),
            None => def.name.clone(),
        };
        if self.funcs.insert(qualified.clone(), summary).is_none() {
            self.func_order.push(qualified);
        }
    }

    fn walk_class(&mut self, def: &'m ClassDef, outer: &mut Scope<'m>) {
        for d in &def.decorators {
            self.eval(d, outer);
        }
        let base_class = def.bases.first().and_then(|b| {
            let v = describe_expr(b, &outer.ctx);
            v.into_iter().next()
        });
        for b in &def.bases {
            self.eval(b, outer);
        }
        for k in &def.keywords {
            self.eval(&k.value, outer);
        }
        let mut class_scope = self.new_scope(None, None, None);
        for s in &def.body {
            match &s.kind {
                StmtKind::FunctionDef(f) => {
                    self.walk_function(f, &mut class_scope, Some(&def.name), base_class.as_deref())
                }
                other => {
                    let _ = other;
                    self.walk_stmt(s, &mut class_scope);
                }
            }
        }
    }

    // ----- assignment targets ------------------------------------------------

    /// Binds `target` to `flows`. A name target records `variants` as its
    /// local representations; `None` (or no variants) forgets them.
    fn assign_to(
        &mut self,
        target: &'m Expr,
        flows: &FlowSet,
        variants: Option<&Rc<[String]>>,
        value: &'m Expr,
        sc: &mut Scope<'m>,
    ) {
        match &target.kind {
            ExprKind::Name(n) => {
                sc.env.insert(n, flows.clone());
                match variants {
                    Some(v) if !v.is_empty() => {
                        sc.ctx.locals.insert(n.clone(), Rc::clone(v));
                    }
                    _ => {
                        sc.ctx.locals.remove(n);
                    }
                }
                // Points-to: the assigned events are allocation sites.
                let var = self.pt_var(sc, n);
                for &e in flows {
                    self.ir.ops.push(IrOp::Alloc { var, site: e });
                }
                if let ExprKind::Name(m) = &value.kind {
                    let from = self.pt_var(sc, m);
                    self.ir.ops.push(IrOp::Copy { from, to: var });
                }
            }
            ExprKind::Tuple(elems) | ExprKind::List(elems) => {
                for e in elems {
                    self.assign_to(e, flows, None, value, sc);
                }
            }
            ExprKind::Starred(inner) => self.assign_to(inner, flows, None, value, sc),
            ExprKind::Attribute { value: base, attr } => {
                self.store_through(base, attr, flows, sc);
            }
            ExprKind::Subscript { value: base, index } => {
                let field = index_field_name(index);
                self.store_through(base, &field, flows, sc);
            }
            _ => {}
        }
    }

    /// Handles `base.field = flows`: a points-to store plus a weak update of
    /// the base binding so environment flow still observes the taint.
    fn store_through(&mut self, base: &'m Expr, field: &str, flows: &FlowSet, sc: &mut Scope<'m>) {
        self.eval(base, sc);
        if let ExprKind::Name(n) = &base.kind {
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
    }

    fn bind_pattern(&mut self, target: &'m Expr, flows: &FlowSet, sc: &mut Scope<'m>) {
        match &target.kind {
            ExprKind::Name(n) => {
                sc.env.insert(n, flows.clone());
                sc.ctx.locals.remove(n);
            }
            ExprKind::Tuple(elems) | ExprKind::List(elems) => {
                for e in elems {
                    self.bind_pattern(e, flows, sc);
                }
            }
            ExprKind::Starred(inner) => self.bind_pattern(inner, flows, sc),
            _ => {}
        }
    }

    // ----- expressions --------------------------------------------------------

    fn eval(&mut self, expr: &'m Expr, sc: &mut Scope<'m>) -> FlowSet {
        match &expr.kind {
            ExprKind::Name(n) => sc.env.get(n.as_str()).cloned().unwrap_or_default(),
            ExprKind::Number(_)
            | ExprKind::Str(_)
            | ExprKind::Bytes(_)
            | ExprKind::Bool(_)
            | ExprKind::NoneLit
            | ExprKind::EllipsisLit => Vec::new(),
            ExprKind::FString { parts, .. } => {
                let mut out = Vec::new();
                for p in parts {
                    union_into(&mut out, &self.eval(p, sc));
                }
                out
            }
            ExprKind::Attribute { value, attr } => {
                let base_flows = self.eval(value, sc);
                self.read_event(expr, value, attr, base_flows, sc)
            }
            ExprKind::Subscript { value, index } => {
                let mut base_flows = self.eval(value, sc);
                union_into(&mut base_flows, &self.eval(index, sc));
                let field = index_field_name(index);
                self.read_event(expr, value, &field, base_flows, sc)
            }
            ExprKind::Slice { lower, upper, step } => {
                let mut out = Vec::new();
                for part in [lower, upper, step].into_iter().flatten() {
                    union_into(&mut out, &self.eval(part, sc));
                }
                out
            }
            ExprKind::Call { func, args, keywords } => self.eval_call(expr, func, args, keywords, sc),
            ExprKind::BinOp { left, right, .. } => {
                let mut out = self.eval(left, sc);
                union_into(&mut out, &self.eval(right, sc));
                out
            }
            ExprKind::UnaryOp { operand, .. } => self.eval(operand, sc),
            ExprKind::BoolOp { values, .. } => {
                let mut out = Vec::new();
                for v in values {
                    union_into(&mut out, &self.eval(v, sc));
                }
                out
            }
            ExprKind::Compare { left, comparators, .. } => {
                let mut out = self.eval(left, sc);
                for c in comparators {
                    union_into(&mut out, &self.eval(c, sc));
                }
                out
            }
            ExprKind::IfExp { test, body, orelse } => {
                self.eval(test, sc);
                let mut out = self.eval(body, sc);
                union_into(&mut out, &self.eval(orelse, sc));
                out
            }
            ExprKind::Lambda { params, body } => {
                for p in params {
                    if let Some(d) = &p.default {
                        self.eval(d, sc);
                    }
                }
                self.eval(body, sc);
                Vec::new()
            }
            ExprKind::Tuple(elems) | ExprKind::List(elems) | ExprKind::Set(elems) => {
                // Collections flow their entries to the whole value (§5.2).
                let mut out = Vec::new();
                for e in elems {
                    union_into(&mut out, &self.eval(e, sc));
                }
                out
            }
            ExprKind::Dict { keys, values } => {
                let mut out = Vec::new();
                for k in keys.iter().flatten() {
                    union_into(&mut out, &self.eval(k, sc));
                }
                for v in values {
                    union_into(&mut out, &self.eval(v, sc));
                }
                out
            }
            ExprKind::Comp { element, value, generators, .. } => {
                let saved = sc.env.clone();
                for g in generators {
                    let flows = self.eval(&g.iter, sc);
                    self.bind_pattern(&g.target, &flows, sc);
                    for cond in &g.ifs {
                        self.eval(cond, sc);
                    }
                }
                let mut out = self.eval(element, sc);
                if let Some(v) = value {
                    union_into(&mut out, &self.eval(v, sc));
                }
                sc.env = saved;
                out
            }
            ExprKind::Yield { value, .. } => match value {
                Some(v) => self.eval(v, sc),
                None => Vec::new(),
            },
            ExprKind::Await(inner) | ExprKind::Starred(inner) => self.eval(inner, sc),
            ExprKind::NamedExpr { target, value } => {
                let flows = self.eval(value, sc);
                if let ExprKind::Name(n) = &target.kind {
                    sc.env.insert(n, flows.clone());
                }
                flows
            }
        }
    }

    /// Creates an object-read event for `expr` (an attribute or subscript
    /// load of `field` on `base`). Falls back to pass-through flow when the
    /// expression has no stable representation.
    fn read_event(
        &mut self,
        expr: &'m Expr,
        base: &'m Expr,
        field: &str,
        base_flows: FlowSet,
        sc: &mut Scope<'m>,
    ) -> FlowSet {
        let reps = describe_syms(expr, &sc.ctx);
        if reps.is_empty() {
            return base_flows;
        }
        let ev = self.add_event(IrEventKind::ObjectRead, reps, expr.span);
        // The base of a read is the same object chain: receiver flow.
        for &f in &base_flows {
            self.add_edge_recv(f, ev);
        }
        // Field-aliasing flow: register a points-to load.
        if let ExprKind::Name(n) = &base.kind {
            let base_var = self.pt_var(sc, n);
            let out = self.fresh_var();
            self.ir.ops.push(IrOp::Load {
                base: base_var,
                field: field.to_string(),
                target: out,
            });
            self.ir.ops.push(IrOp::PtLoad { event: ev, var: out });
        }
        vec![ev]
    }

    fn eval_call(
        &mut self,
        expr: &'m Expr,
        func: &'m Expr,
        args: &'m [Expr],
        keywords: &'m [Keyword],
        sc: &mut Scope<'m>,
    ) -> FlowSet {
        // Receiver/base flows: for `x.m(...)` the object chain flows into
        // the call event (Fig. 2b: `request.files['f']` → `.save()`).
        let recv_flows = match &func.kind {
            ExprKind::Attribute { value, .. } => self.eval(value, sc),
            ExprKind::Name(n) => sc.env.get(n.as_str()).cloned().unwrap_or_default(),
            other => {
                let _ = other;
                self.eval(func, sc)
            }
        };
        let arg_flows: Vec<FlowSet> = args.iter().map(|a| self.eval(a, sc)).collect();
        let kwarg_flows: Vec<(&'m str, FlowSet)> = keywords
            .iter()
            .map(|k| (k.name.as_deref().unwrap_or_default(), self.eval(&k.value, sc)))
            .collect();

        let reps = describe_syms(expr, &sc.ctx);
        let call_event = if reps.is_empty() {
            None
        } else {
            Some(self.add_event(IrEventKind::Call, reps, expr.span))
        };

        if let Some(ev) = call_event {
            // The receiver chain is same-object flow; arguments are not.
            for &f in &recv_flows {
                self.add_edge_recv(f, ev);
                self.set_arg_position(f, ev, IrArgPos::Receiver);
            }
            for (i, flows) in arg_flows.iter().enumerate() {
                for &f in flows {
                    self.add_edge(f, ev);
                    self.set_arg_position(f, ev, IrArgPos::Positional(i.min(255) as u8));
                }
            }
            for (name, flows) in &kwarg_flows {
                for &f in flows {
                    self.add_edge(f, ev);
                    self.set_arg_position(f, ev, IrArgPos::Keyword(name.to_string()));
                }
            }
            // `locals()` receives every local variable (§5.2), visited in
            // name order so the edge order never follows hash order.
            if matches!(&func.kind, ExprKind::Name(n) if n == "locals") {
                let mut bindings: Vec<(&str, &FlowSet)> =
                    sc.env.iter().map(|(&name, flows)| (name, flows)).collect();
                bindings.sort_unstable_by_key(|&(name, _)| name);
                let all: Vec<u32> =
                    bindings.into_iter().flat_map(|(_, flows)| flows.iter().copied()).collect();
                for f in all {
                    self.add_edge(f, ev);
                }
            }
        }

        // The call's own flow: its event, or pass-through for opaque calls.
        let flow = match call_event {
            Some(ev) => vec![ev],
            None => {
                let mut out = recv_flows;
                for flows in arg_flows.iter().chain(kwarg_flows.iter().map(|(_, f)| f)) {
                    union_into(&mut out, flows);
                }
                out
            }
        };

        // Link calls to locally-defined functions / same-class methods.
        let qualified: Option<Cow<'m, str>> = match &func.kind {
            ExprKind::Name(n) => Some(Cow::Borrowed(n)),
            ExprKind::Attribute { value, attr } => match (&value.kind, &sc.ctx.class_name) {
                (ExprKind::Name(recv), Some(class)) if recv == "self" => {
                    Some(Cow::Owned(format!("{class}::{attr}")))
                }
                _ => None,
            },
            _ => None,
        };
        if let Some(q) = qualified {
            let callee = if self.inline_stack.len() < 3 && !self.inline_stack.contains(&q) {
                self.funcs
                    .get(q.as_ref())
                    .map(|info| (info.def, info.class_name, info.base_class.clone()))
            } else {
                None
            };
            if let Some((def, class_name, base_class)) = callee {
                // Per-call-site inlining (§5.2): re-analyze the callee body
                // with the parameters bound to this call's argument flows.
                // This is context-sensitive — taint from one call site
                // cannot leak into another.
                let returns =
                    self.inline_call(q, def, class_name, base_class, &arg_flows, &kwarg_flows);
                match call_event {
                    Some(ev) => {
                        for r in returns {
                            self.add_edge(r, ev);
                        }
                    }
                    None => {
                        // No call event (unrepresentable callee): the
                        // returns are lost only in this rare case.
                    }
                }
            } else {
                self.ir.pending.push(IrPendingCall {
                    qualified: q.into_owned(),
                    arg_flows,
                    kwarg_flows: kwarg_flows
                        .into_iter()
                        .map(|(name, flows)| (name.to_string(), flows))
                        .collect(),
                    call_event,
                });
            }
        }
        flow
    }

    /// Re-analyzes `def`'s body with parameters bound to the call's
    /// argument flows, returning the events that flow into its `return`s.
    fn inline_call(
        &mut self,
        qualified: Cow<'m, str>,
        def: &'m FunctionDef,
        class_name: Option<&'m str>,
        base_class: Option<String>,
        arg_flows: &[FlowSet],
        kwarg_flows: &[(&'m str, FlowSet)],
    ) -> FlowSet {
        let mut scope = self.new_scope(class_name, base_class, Some(def));
        // Bind positional arguments (skipping a `self`/`cls` receiver slot
        // for methods) and keyword arguments by name.
        let positional = declared_params(def).filter(|&n| n != "self" && n != "cls");
        for (name, flows) in positional.zip(arg_flows) {
            scope.env.insert(name, flows.clone());
        }
        for &(name, ref flows) in kwarg_flows {
            if declared_params(def).any(|p| p == name) {
                scope.env.insert(name, flows.clone());
            }
        }
        self.inline_stack.push(qualified);
        for stmt in &def.body {
            self.walk_stmt(stmt, &mut scope);
        }
        self.inline_stack.pop();
        scope.returns
    }
}

/// The names a function declares, in order, without the bare `*` marker.
fn declared_params(def: &FunctionDef) -> impl Iterator<Item = &str> + Clone {
    def.params.iter().filter(|p| p.kind != ParamKind::KwOnlyMarker).map(|p| p.name.as_str())
}

/// Collects the module's import bindings: every `import` and
/// `from ... import` anywhere in the file, later bindings winning.
fn collect_imports(module: &Module) -> ImportMap {
    struct ImportCollector {
        imports: ImportMap,
    }
    impl Visitor for ImportCollector {
        fn visit_stmt(&mut self, stmt: &Stmt) {
            match &stmt.kind {
                StmtKind::Import(aliases) => {
                    for a in aliases {
                        match &a.asname {
                            Some(alias) => self.imports.insert(alias, &a.name),
                            None => {
                                // `import a.b` binds top-level `a`.
                                if let Some(first) = a.name.first() {
                                    self.imports.insert(first, std::slice::from_ref(first));
                                }
                            }
                        }
                    }
                }
                StmtKind::ImportFrom { module, names, .. } => {
                    for a in names {
                        let seg = match a.name.first() {
                            Some(s) if s != "*" => s,
                            _ => continue,
                        };
                        let mut path = module.clone();
                        path.push(seg.clone());
                        self.imports.insert(a.asname.as_ref().unwrap_or(seg), &path);
                    }
                }
                _ => visit::walk_stmt(self, stmt),
            }
        }
    }
    let mut c = ImportCollector { imports: ImportMap::new() };
    visit::walk_module(&mut c, module);
    c.imports
}

/// Field name used for subscript loads/stores, matching the representation
/// rendering (`['key']`, `[0]`, `[]`).
fn index_field_name(index: &Expr) -> String {
    match &index.kind {
        ExprKind::Str(s) => format!("['{s}']"),
        ExprKind::Number(n) => format!("[{n}]"),
        _ => "[]".to_string(),
    }
}

fn union_into(dst: &mut FlowSet, src: &[u32]) {
    for &e in src {
        if !dst.contains(&e) {
            dst.push(e);
        }
    }
    dst.truncate(MAX_FLOW_SET);
}

#[cfg(test)]
mod tests {
    use super::*;
    use seldon_pyast::parse;

    fn lower(src: &str) -> IrProgram {
        lower_module_budgeted(&parse(src).expect("parses"), &Budget::unlimited()).expect("lowers")
    }

    #[test]
    fn lower_emits_events_in_walk_order() {
        let ir = lower("from m import f\nx = f(1)\ny = x.data\n");
        assert_eq!(ir.events.len(), 2);
        assert_eq!(ir.events[0].kind, IrEventKind::Call);
        assert_eq!(ir.events[1].kind, IrEventKind::ObjectRead);
        // The read is receiver-fed by the call.
        assert!(ir.ops.iter().any(|op| matches!(
            op,
            IrOp::Edge { from: 0, to: 1, kind: IrEdgeKind::Receiver }
        )));
    }

    #[test]
    fn lower_records_function_summaries() {
        let ir = lower("def h(self, v):\n    return v\n");
        assert_eq!(ir.funcs.len(), 1);
        let f = &ir.funcs[0];
        assert_eq!(f.qualified, "h");
        assert_eq!(f.params.len(), 2);
        assert!(f.params[0].implicit, "self is an implicit receiver slot");
        assert!(!f.params[1].implicit);
        assert_eq!(f.returns, vec![f.params[1].event]);
    }

    #[test]
    fn lower_budgeted_trips() {
        let module = parse("x = 1\ny = 2\nz = 3\n").unwrap();
        let tight = Budget { max_statements: 1, ..Budget::unlimited() };
        let err = lower_module_budgeted(&module, &tight).unwrap_err();
        assert!(matches!(err, BudgetExceeded::Statements { .. }));
    }

    #[test]
    fn dump_round_trips_through_display() {
        let ir = lower("from m import f\nsink = f(a=1)\n");
        let d = ir.dump();
        assert!(d.contains("call"), "dump lists the call event: {d}");
    }
}
