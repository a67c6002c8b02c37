//! Lowers the JS-like AST into the language-neutral IR.
//!
//! This mirrors the Python lowering in `seldon-propgraph::lower` decision
//! for decision — environment threading with strong updates, branch
//! save/merge, per-call-site inlining with a depth-3 recursion guard,
//! points-to ops for field aliasing — but resolves names with JS rules:
//! ES `import`/CommonJS `require` bindings, no implicit receiver
//! parameters, object/array literals as value unions.
//!
//! Everything downstream of the produced [`IrProgram`] (graph replay,
//! representations' backoff, constraints, solver) is shared with the
//! Python frontend and contains no per-language branches.

use crate::ast::*;
use seldon_intern::{intern, Symbol};
use seldon_ir::{
    IrArgPos, IrEdgeKind, IrEvent, IrEventKind, IrFunc, IrOp, IrParam, IrPendingCall, IrProgram,
};
use seldon_propgraph::{
    finish_rep_strings, finish_reps, Budget, BudgetExceeded, BudgetMeter, ImportMap, ReprCtx,
    MAX_CHAIN_DEPTH,
};
use std::collections::HashMap;
use std::rc::Rc;

/// Maximum events tracked per variable binding; larger sets are truncated.
const MAX_FLOW_SET: usize = 8;

/// A set of event indices whose values may flow into a binding.
type FlowSet = Vec<u32>;

/// Lowers one parsed program into the language-neutral IR under a
/// resource [`Budget`] (pass [`Budget::unlimited`] to lower without
/// limits).
///
/// # Errors
///
/// Returns [`BudgetExceeded`] if the walk trips a statement-count, depth,
/// or deadline limit; the partial IR is discarded.
pub fn lower_js_program_budgeted(
    program: &Program,
    budget: &Budget,
) -> Result<IrProgram, BudgetExceeded> {
    let mut l = Lowerer::new(program, budget);
    l.run(program);
    l.into_ir()
}

// ----- representations -------------------------------------------------------

/// Splits a module specifier like `./app/models.js` into dotted-path
/// segments (`["app", "models", "js"]` → the `.js` suffix is dropped).
fn module_segments(module: &str) -> Vec<&str> {
    let trimmed = module.trim_start_matches("./");
    let mut segs: Vec<&str> = trimmed.split(['/', '.']).filter(|s| !s.is_empty()).collect();
    if segs.len() > 1 && segs.last() == Some(&"js") {
        segs.pop();
    }
    segs
}

/// Computes representation variants of a JS expression, most → least
/// specific, reusing the shared name-resolution rules in [`ReprCtx`] and
/// the shared interning/backoff in [`finish_reps`].
fn describe_syms_js(expr: &Expr, ctx: &ReprCtx) -> Vec<Symbol> {
    finish_reps(describe_inner(expr, ctx))
}

/// Like [`describe_syms_js`], keeping the variant strings it built.
fn describe_js(expr: &Expr, ctx: &ReprCtx) -> Vec<String> {
    finish_rep_strings(describe_inner(expr, ctx))
}

fn describe_inner(expr: &Expr, ctx: &ReprCtx) -> Vec<String> {
    let mut suffix = String::new();
    match chain_base(expr, 0, &mut suffix) {
        Some(name) => ctx.variants_with_suffix(name, &suffix),
        None => Vec::new(),
    }
}

/// Walks an access chain down to the identifier it starts from, appending
/// the rendering of each step to `suffix`, innermost first. `None` when the
/// chain does not start from an identifier or is deeper than
/// [`MAX_CHAIN_DEPTH`].
fn chain_base<'e>(expr: &'e Expr, depth: usize, suffix: &mut String) -> Option<&'e str> {
    if depth > MAX_CHAIN_DEPTH {
        return None;
    }
    match &expr.kind {
        ExprKind::Ident(n) => Some(n),
        ExprKind::Member { obj, prop } => {
            let base = chain_base(obj, depth + 1, suffix)?;
            suffix.push('.');
            suffix.push_str(prop);
            Some(base)
        }
        ExprKind::Call { callee, .. } => {
            let base = chain_base(callee, depth + 1, suffix)?;
            suffix.push_str("()");
            Some(base)
        }
        ExprKind::Index { obj, index } => {
            let base = chain_base(obj, depth + 1, suffix)?;
            suffix.push('[');
            match &index.kind {
                ExprKind::Str(s) => {
                    suffix.push('\'');
                    suffix.push_str(s);
                    suffix.push('\'');
                }
                ExprKind::Num(n) => suffix.push_str(n),
                _ => {}
            }
            suffix.push(']');
            Some(base)
        }
        _ => None,
    }
}

/// Field name used for index loads/stores, matching the representation
/// rendering (`['key']`, `[0]`, `[]`).
fn index_field_name(index: &Expr) -> String {
    match &index.kind {
        ExprKind::Str(s) => format!("['{s}']"),
        ExprKind::Num(n) => format!("[{n}]"),
        _ => "[]".to_string(),
    }
}

/// Matches `require('module')` and returns the specifier.
fn require_module(expr: &Expr) -> Option<&str> {
    if let ExprKind::Call { callee, args } = &expr.kind {
        if let ExprKind::Ident(n) = &callee.kind {
            if n == "require" && args.len() == 1 {
                if let ExprKind::Str(m) = &args[0].kind {
                    return Some(m);
                }
            }
        }
    }
    None
}

/// Resolves every import binding (ES and CommonJS) in `body` into dotted
/// paths, recursing into function/branch bodies.
fn collect_imports(body: &[Stmt], imports: &mut ImportMap) {
    for stmt in body {
        match &stmt.kind {
            StmtKind::Import { bindings, module } => {
                let segs = module_segments(module);
                if segs.is_empty() {
                    continue;
                }
                for b in bindings {
                    match b {
                        ImportBinding::Default(name) | ImportBinding::Namespace(name) => {
                            imports.insert(name, &segs);
                        }
                        ImportBinding::Named { exported, local } => {
                            imports.insert(local, &[&segs[..], &[exported.as_str()]].concat());
                        }
                    }
                }
            }
            StmtKind::VarDecl { name, pattern, init: Some(init) } => {
                if let Some(module) = require_module(init) {
                    let segs = module_segments(module);
                    if segs.is_empty() {
                        continue;
                    }
                    if let Some(n) = name {
                        imports.insert(n, &segs);
                    }
                    for (prop, local) in pattern {
                        imports.insert(local, &[&segs[..], &[prop.as_str()]].concat());
                    }
                }
            }
            StmtKind::Func(def) => collect_imports(&def.body, imports),
            StmtKind::If { cons, alt, .. } => {
                collect_imports(cons, imports);
                collect_imports(alt, imports);
            }
            _ => {}
        }
    }
}

// ----- lowering ---------------------------------------------------------------

/// Summary of a locally-defined function for call linking.
#[derive(Debug)]
struct FuncSummary<'p> {
    /// `(name, param event)` in declaration order.
    params: Vec<(&'p str, u32)>,
    /// Events flowing into `return` statements.
    returns: Vec<u32>,
    /// The function, borrowed from the program for per-call-site inlining.
    def: &'p FuncDecl,
}

/// Per-function analysis scope.
struct Scope<'p> {
    ctx: ReprCtx,
    env: HashMap<&'p str, FlowSet>,
    returns: Vec<u32>,
    /// This scope's named points-to variables, memoized by name exactly
    /// like the Python lowering.
    pt_vars: HashMap<&'p str, u32>,
}

impl<'p> Scope<'p> {
    fn merge_env(&mut self, other: HashMap<&'p str, FlowSet>) {
        for (k, v) in other {
            union_into(self.env.entry(k).or_default(), &v);
        }
    }
}

/// Walks one program, borrowing its AST for the whole lowering.
struct Lowerer<'p> {
    ir: IrProgram,
    /// The program's import bindings, built once and shared by every scope.
    imports: Rc<ImportMap>,
    funcs: HashMap<&'p str, FuncSummary<'p>>,
    /// Names in first-definition order, for stable IR emission.
    func_order: Vec<&'p str>,
    /// Names currently being inlined (recursion guard / depth bound).
    inline_stack: Vec<&'p str>,
    /// Resource accounting against the file's budget.
    meter: BudgetMeter,
    /// Current statement-nesting depth, fed to the meter.
    stmt_depth: usize,
}

impl<'p> Lowerer<'p> {
    fn new(program: &Program, budget: &Budget) -> Self {
        let mut imports = ImportMap::new();
        collect_imports(&program.body, &mut imports);
        Lowerer {
            ir: IrProgram::default(),
            imports: Rc::new(imports),
            funcs: HashMap::new(),
            func_order: Vec::new(),
            inline_stack: Vec::new(),
            meter: BudgetMeter::new(budget.clone()),
            stmt_depth: 0,
        }
    }

    fn run(&mut self, program: &'p Program) {
        let mut scope = self.new_scope(None);
        for stmt in &program.body {
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
                qualified: name.to_string(),
                params: s
                    .params
                    .iter()
                    .map(|&(n, ev)| IrParam {
                        name: n.to_string(),
                        event: ev,
                        // JS has no `self`/`cls` receiver slot: every
                        // parameter binds positionally.
                        implicit: false,
                    })
                    .collect(),
                returns: s.returns.clone(),
            });
        }
        Ok(self.ir)
    }

    // ----- IR emission helpers ----------------------------------------------

    fn add_event(
        &mut self,
        kind: IrEventKind,
        reps: Vec<Symbol>,
        span: seldon_ir::Span,
    ) -> u32 {
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

    fn pt_var(&mut self, scope: &mut Scope<'p>, name: &'p str) -> u32 {
        if let Some(&v) = scope.pt_vars.get(name) {
            return v;
        }
        let v = self.fresh_var();
        scope.pt_vars.insert(name, v);
        v
    }

    fn fresh_var(&mut self) -> u32 {
        let v = self.ir.var_count;
        self.ir.var_count += 1;
        v
    }

    /// A fresh scope; `def` is the function it analyzes, if any.
    fn new_scope(&mut self, def: Option<&FuncDecl>) -> Scope<'p> {
        let ctx = ReprCtx {
            imports: Rc::clone(&self.imports),
            class_name: None,
            base_class: None,
            func_name: def.map(|d| d.name.clone()),
            params: def.map_or_else(Vec::new, |d| d.params.iter().map(|(n, _)| n.clone()).collect()),
            locals: HashMap::new(),
        };
        Scope { ctx, env: HashMap::new(), returns: Vec::new(), pt_vars: HashMap::new() }
    }

    // ----- statements -------------------------------------------------------

    fn walk_stmt(&mut self, stmt: &'p Stmt, sc: &mut Scope<'p>) {
        if !self.meter.tick_statement(self.stmt_depth) {
            return;
        }
        self.stmt_depth += 1;
        self.walk_stmt_inner(stmt, sc);
        self.stmt_depth -= 1;
    }

    fn walk_stmt_inner(&mut self, stmt: &'p Stmt, sc: &mut Scope<'p>) {
        match &stmt.kind {
            StmtKind::Import { .. } => {}
            StmtKind::Func(def) => self.walk_function(def, sc),
            StmtKind::Return(value) => {
                if let Some(v) = value {
                    let flows = self.eval(v, sc);
                    sc.returns.extend(flows);
                }
            }
            StmtKind::VarDecl { name, pattern, init } => {
                let Some(init) = init else {
                    if let Some(n) = name {
                        sc.env.insert(n, Vec::new());
                        sc.ctx.locals.remove(n);
                    }
                    return;
                };
                // A pure `require` initializer is an import, not a call:
                // the binding was collected up front and creates no event
                // (mirroring Python, where import statements are silent).
                if require_module(init).is_some() {
                    return;
                }
                let flows = self.eval(init, sc);
                let variants: Rc<[String]> = describe_js(init, &sc.ctx).into();
                if let Some(n) = name {
                    self.bind_name(n, &flows, &variants, init, sc);
                }
                for (_, local) in pattern {
                    sc.env.insert(local, flows.clone());
                    sc.ctx.locals.remove(local);
                    let var = self.pt_var(sc, local);
                    for &e in &flows {
                        self.ir.ops.push(IrOp::Alloc { var, site: e });
                    }
                }
            }
            StmtKind::Assign { target, value } => {
                let flows = self.eval(value, sc);
                let variants: Rc<[String]> = describe_js(value, &sc.ctx).into();
                self.assign_to(target, &flows, &variants, value, sc);
            }
            StmtKind::If { test, cons, alt } => {
                self.eval(test, sc);
                let before = sc.env.clone();
                for s in cons {
                    self.walk_stmt(s, sc);
                }
                let after_then = std::mem::replace(&mut sc.env, before);
                for s in alt {
                    self.walk_stmt(s, sc);
                }
                sc.merge_env(after_then);
            }
            StmtKind::Expr(e) => {
                self.eval(e, sc);
            }
        }
    }

    fn walk_function(&mut self, def: &'p FuncDecl, outer: &mut Scope<'p>) {
        let mut scope = self.new_scope(Some(def));
        // Free variables see enclosing (module) bindings.
        scope.env = outer.env.clone();
        scope.ctx.locals = outer.ctx.locals.clone();
        // Formal parameters are source-candidate events, represented as
        // `{func}(param {name})` exactly like Python module functions.
        let mut params = Vec::new();
        for (name, span) in &def.params {
            let reps = vec![intern(&format!("{}(param {})", def.name, name))];
            let ev = self.add_event(IrEventKind::ParamRead, reps, *span);
            scope.env.insert(name, vec![ev]);
            params.push((name.as_str(), ev));
        }
        for s in &def.body {
            self.walk_stmt(s, &mut scope);
        }
        let summary = FuncSummary { params, returns: scope.returns, def };
        if self.funcs.insert(&def.name, summary).is_none() {
            self.func_order.push(&def.name);
        }
    }

    // ----- assignment targets -------------------------------------------------

    fn bind_name(
        &mut self,
        name: &'p str,
        flows: &FlowSet,
        variants: &Rc<[String]>,
        value: &'p Expr,
        sc: &mut Scope<'p>,
    ) {
        sc.env.insert(name, flows.clone());
        if variants.is_empty() {
            sc.ctx.locals.remove(name);
        } else {
            sc.ctx.locals.insert(name.to_string(), Rc::clone(variants));
        }
        let var = self.pt_var(sc, name);
        for &e in flows {
            self.ir.ops.push(IrOp::Alloc { var, site: e });
        }
        if let ExprKind::Ident(m) = &value.kind {
            let from = self.pt_var(sc, m);
            self.ir.ops.push(IrOp::Copy { from, to: var });
        }
    }

    fn assign_to(
        &mut self,
        target: &'p Expr,
        flows: &FlowSet,
        variants: &Rc<[String]>,
        value: &'p Expr,
        sc: &mut Scope<'p>,
    ) {
        match &target.kind {
            ExprKind::Ident(n) => self.bind_name(n, flows, variants, value, sc),
            ExprKind::Member { obj, prop } => {
                self.store_through(obj, prop, flows, sc);
            }
            ExprKind::Index { obj, index } => {
                let field = index_field_name(index);
                self.store_through(obj, &field, flows, sc);
            }
            _ => {}
        }
    }

    /// Handles `base.field = flows`: a points-to store plus a weak update
    /// of the base binding so environment flow still observes the taint.
    fn store_through(&mut self, base: &'p Expr, field: &str, flows: &FlowSet, sc: &mut Scope<'p>) {
        self.eval(base, sc);
        if let ExprKind::Ident(n) = &base.kind {
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

    // ----- expressions ----------------------------------------------------------

    fn eval(&mut self, expr: &'p Expr, sc: &mut Scope<'p>) -> FlowSet {
        match &expr.kind {
            ExprKind::Ident(n) => sc.env.get(n.as_str()).cloned().unwrap_or_default(),
            ExprKind::Str(_) | ExprKind::Num(_) | ExprKind::Bool(_) | ExprKind::Null => {
                Vec::new()
            }
            ExprKind::Member { obj, prop } => {
                let base_flows = self.eval(obj, sc);
                self.read_event(expr, obj, prop, base_flows, sc)
            }
            ExprKind::Index { obj, index } => {
                let mut base_flows = self.eval(obj, sc);
                union_into(&mut base_flows, &self.eval(index, sc));
                let field = index_field_name(index);
                self.read_event(expr, obj, &field, base_flows, sc)
            }
            ExprKind::Call { callee, args } => self.eval_call(expr, callee, args, sc),
            ExprKind::Object(entries) => {
                // Literals flow their property values to the whole value.
                let mut out = Vec::new();
                for (_, v) in entries {
                    union_into(&mut out, &self.eval(v, sc));
                }
                out
            }
            ExprKind::Array(elems) => {
                let mut out = Vec::new();
                for e in elems {
                    union_into(&mut out, &self.eval(e, sc));
                }
                out
            }
            ExprKind::Binary { left, right } => {
                let mut out = self.eval(left, sc);
                union_into(&mut out, &self.eval(right, sc));
                out
            }
            ExprKind::Unary(inner) => self.eval(inner, sc),
        }
    }

    /// Creates an object-read event for `expr` (a member or index load of
    /// `field` on `base`). Falls back to pass-through flow when the
    /// expression has no stable representation.
    fn read_event(
        &mut self,
        expr: &'p Expr,
        base: &'p Expr,
        field: &str,
        base_flows: FlowSet,
        sc: &mut Scope<'p>,
    ) -> FlowSet {
        let reps = describe_syms_js(expr, &sc.ctx);
        if reps.is_empty() {
            return base_flows;
        }
        let ev = self.add_event(IrEventKind::ObjectRead, reps, expr.span);
        for &f in &base_flows {
            self.add_edge_recv(f, ev);
        }
        if let ExprKind::Ident(n) = &base.kind {
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
        expr: &'p Expr,
        callee: &'p Expr,
        args: &'p [Expr],
        sc: &mut Scope<'p>,
    ) -> FlowSet {
        // Receiver/base flows: for `x.m(...)` the object chain flows into
        // the call event.
        let recv_flows = match &callee.kind {
            ExprKind::Member { obj, .. } => self.eval(obj, sc),
            ExprKind::Ident(n) => sc.env.get(n.as_str()).cloned().unwrap_or_default(),
            _ => self.eval(callee, sc),
        };
        let arg_flows: Vec<FlowSet> = args.iter().map(|a| self.eval(a, sc)).collect();

        let reps = describe_syms_js(expr, &sc.ctx);
        let call_event = if reps.is_empty() {
            None
        } else {
            Some(self.add_event(IrEventKind::Call, reps, expr.span))
        };

        if let Some(ev) = call_event {
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
        }

        // The call's own flow: its event, or pass-through for opaque calls.
        let flow = match call_event {
            Some(ev) => vec![ev],
            None => {
                let mut out = recv_flows;
                for flows in &arg_flows {
                    union_into(&mut out, flows);
                }
                out
            }
        };

        // Link calls to locally-defined functions.
        if let ExprKind::Ident(q) = &callee.kind {
            let inlinable =
                self.inline_stack.len() < 3 && !self.inline_stack.contains(&q.as_str());
            let callee_def =
                if inlinable { self.funcs.get(q.as_str()).map(|info| info.def) } else { None };
            if let Some(def) = callee_def {
                let returns = self.inline_call(q, def, &arg_flows);
                if let Some(ev) = call_event {
                    for r in returns {
                        self.add_edge(r, ev);
                    }
                }
            } else {
                self.ir.pending.push(IrPendingCall {
                    qualified: q.clone(),
                    arg_flows,
                    kwarg_flows: Vec::new(),
                    call_event,
                });
            }
        }
        flow
    }

    /// Re-analyzes `def`'s body with parameters bound to the call's
    /// argument flows, returning the events that flow into its `return`s.
    fn inline_call(&mut self, qualified: &'p str, def: &'p FuncDecl, arg_flows: &[FlowSet]) -> FlowSet {
        let mut scope = self.new_scope(Some(def));
        for ((name, _), flows) in def.params.iter().zip(arg_flows) {
            scope.env.insert(name, flows.clone());
        }
        self.inline_stack.push(qualified);
        for stmt in &def.body {
            self.walk_stmt(stmt, &mut scope);
        }
        self.inline_stack.pop();
        scope.returns
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
    use crate::parser::parse;

    fn lower(src: &str) -> IrProgram {
        lower_js_program_budgeted(&parse(src).expect("parses"), &Budget::unlimited())
            .expect("lowers")
    }

    #[test]
    fn lower_emits_events_in_walk_order() {
        let ir = lower("import { f } from 'm';\nconst x = f(1);\nconst y = x.data;\n");
        assert_eq!(ir.events.len(), 2);
        assert_eq!(ir.events[0].kind, IrEventKind::Call);
        assert_eq!(ir.events[1].kind, IrEventKind::ObjectRead);
        assert!(ir.ops.iter().any(|op| matches!(
            op,
            IrOp::Edge { from: 0, to: 1, kind: IrEdgeKind::Receiver }
        )));
    }

    #[test]
    fn es_and_require_imports_resolve() {
        let ir = lower("import express from 'express';\nconst app = express();\n");
        assert_eq!(ir.events.len(), 1);
        assert_eq!(ir.events[0].reps[0].as_str(), "express()");

        let ir = lower("const fs = require('fs');\nfs.readFile(p);\n");
        // The require itself is silent; the member call resolves through it.
        assert_eq!(ir.events.len(), 1);
        assert_eq!(ir.events[0].reps[0].as_str(), "fs.readFile()");
    }

    #[test]
    fn named_import_gets_module_prefix() {
        let ir = lower("import { query } from './db/pool.js';\nquery(sql);\n");
        let reps: Vec<&str> = ir.events[0].reps.iter().map(|s| s.as_str()).collect();
        assert_eq!(reps[0], "db.pool.query()");
        assert!(reps.contains(&"query()"), "bare named-import variant: {reps:?}");
    }

    #[test]
    fn destructured_require_binds_each_name() {
        let ir = lower(
            "const { getById, save: persist } = require('./models');\ngetById(id);\npersist(row);\n",
        );
        let reps0: Vec<&str> = ir.events[0].reps.iter().map(|s| s.as_str()).collect();
        let reps1: Vec<&str> = ir.events[1].reps.iter().map(|s| s.as_str()).collect();
        assert_eq!(reps0[0], "models.getById()");
        assert_eq!(reps1[0], "models.save()");
    }

    #[test]
    fn function_params_are_events_and_summaries() {
        let ir = lower("function handler(req, res) {\n  return req;\n}\n");
        assert_eq!(ir.funcs.len(), 1);
        let f = &ir.funcs[0];
        assert_eq!(f.qualified, "handler");
        assert_eq!(f.params.len(), 2);
        assert!(!f.params[0].implicit, "JS params are never implicit");
        assert_eq!(f.returns, vec![f.params[0].event]);
        assert_eq!(ir.events[0].reps[0].as_str(), "handler(param req)");
    }

    #[test]
    fn if_branches_merge_flows() {
        let ir = lower(
            "import { source } from 'm';\nlet x = null;\nif (c) { x = source(); } else { x = null; }\nsink(x);\n",
        );
        // sink(x) receives the call event from the then-branch.
        let sink = ir
            .events
            .iter()
            .position(|e| e.reps.iter().any(|s| s.as_str() == "sink()"))
            .expect("sink event") as u32;
        assert!(ir.ops.iter().any(|op| matches!(
            op,
            IrOp::Edge { to, kind: IrEdgeKind::Argument, .. } if *to == sink
        )));
    }

    #[test]
    fn local_function_calls_link_or_pend() {
        let ir = lower("function pick(v) { return v; }\nconst out = pick(data);\n");
        // Defined before use: inlined, not pending.
        assert!(ir.pending.is_empty(), "inlinable call should not pend");

        let ir = lower("const out = helper(data);\nfunction helper(v) { return v; }\n");
        assert_eq!(ir.pending.len(), 1);
        assert_eq!(ir.pending[0].qualified, "helper");
    }

    #[test]
    fn lower_budgeted_trips() {
        let program = parse("var a = 1;\nvar b = 2;\nvar c = 3;\n").unwrap();
        let tight = Budget { max_statements: 1, ..Budget::unlimited() };
        let err = lower_js_program_budgeted(&program, &tight).unwrap_err();
        assert!(matches!(err, BudgetExceeded::Statements { .. }));
    }
}
