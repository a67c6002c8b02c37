//! Lowers the JS-like AST through the shared emitter.
//!
//! This is the JS walk over the shared `seldon_propgraph::emit` emitter,
//! which owns §5's rules: environment flow, call wiring, field aliasing
//! and per-call-site inlining. The walk resolves names with JS rules — ES
//! `import`/CommonJS `require` bindings, no implicit receiver parameters,
//! object/array literals as value unions.
//!
//! Everything downstream of the emitter's sink (graph construction,
//! representations' backoff, constraints, solver) is shared with the
//! Python frontend and contains no per-language branches.

use crate::ast::*;
use seldon_intern::{Symbol, Symbols};
use seldon_ir::IrProgram;
use seldon_propgraph::emit::{union_into, Call, Emitter, FlowSet, Scope, Walk};
use seldon_propgraph::{
    Budget, BudgetExceeded, ImportMap, Recorder, ReprCtx, Sink, VariantArena, Variants,
    MAX_CHAIN_DEPTH,
};
use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// Lowers one parsed program into `sink` under a resource [`Budget`]
/// (pass [`Budget::unlimited`] to lower without limits).
///
/// # Errors
///
/// Returns [`BudgetExceeded`] if the walk trips a statement-count, depth,
/// or deadline limit; the unfinished sink is discarded.
pub fn lower_js_program_into<S: Sink>(
    program: &Program<'_>,
    budget: &Budget,
    sink: S,
) -> Result<S::Output, BudgetExceeded> {
    let mut imports = ImportMap::new();
    collect_imports(&program.body, &mut imports);
    let mut l = Lowerer {
        em: Emitter::new(budget, &[], sink),
        imports: Rc::new(imports),
        variants: Rc::default(),
        text: String::new(),
    };
    let mut scope = l.new_scope(None, None);
    l.walk_body(&program.body, &mut scope);
    l.em.finish()
}

/// [`lower_js_program_into`] a [`Recorder`]: the program's recorded IR.
///
/// # Errors
///
/// As [`lower_js_program_into`].
pub fn lower_js_program_budgeted(
    program: &Program<'_>,
    budget: &Budget,
) -> Result<IrProgram, BudgetExceeded> {
    lower_js_program_into(program, budget, Recorder::default())
}

// ----- representations -------------------------------------------------------

/// Splits a module specifier like `./app/models.js` into dotted-path
/// segments (`app`, `models`, `js` → the `.js` suffix is dropped).
fn module_segments(module: &str) -> impl Iterator<Item = &str> + Clone {
    let segs = module.trim_start_matches("./").split(['/', '.']).filter(|s| !s.is_empty());
    let count = segs.clone().count();
    let js_suffix = count > 1 && segs.clone().next_back() == Some("js");
    segs.take(count - usize::from(js_suffix))
}

/// Computes representation variants of a JS expression, most → least
/// specific, with the shared name resolution, interning and backoff of
/// [`ReprCtx::rep_syms`].
fn describe_syms_js(expr: &Expr<'_>, ctx: &ReprCtx<'_>, symbols: &mut Symbols) -> Vec<Symbol> {
    ctx.rep_syms(|suffix| chain_base(expr, 0, suffix), symbols)
}

/// Like [`describe_syms_js`], appending the variant texts to the file's
/// variant arena: what a binding records as a local's variants.
fn describe_js(expr: &Expr<'_>, ctx: &ReprCtx<'_>) -> Variants {
    ctx.push_variants(|suffix| chain_base(expr, 0, suffix))
}

/// Walks an access chain down to the identifier it starts from, appending
/// the rendering of each step to `suffix`, innermost first. `None` when the
/// chain does not start from an identifier or is deeper than
/// [`MAX_CHAIN_DEPTH`].
fn chain_base<'e>(expr: &Expr<'e>, depth: usize, suffix: &mut String) -> Option<&'e str> {
    if depth > MAX_CHAIN_DEPTH {
        return None;
    }
    match &expr.kind {
        ExprKind::Ident(n) => Some(*n),
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
/// rendering (`['key']`, `[0]`, `[]`), rendered into `buf` when it is not
/// the constant `[]`.
fn index_field<'b>(index: &Expr<'_>, buf: &'b mut String) -> &'b str {
    let (open, text, close) = match &index.kind {
        ExprKind::Str(s) => ("['", &**s, "']"),
        ExprKind::Num(n) => ("[", *n, "]"),
        _ => return "[]",
    };
    buf.clear();
    buf.extend([open, text, close]);
    buf
}

/// Matches `require('module')` and returns the specifier.
fn require_module<'e>(expr: &'e Expr<'_>) -> Option<&'e str> {
    if let ExprKind::Call { callee, args } = &expr.kind {
        if let (ExprKind::Ident("require"), [arg]) = (&callee.kind, &args[..]) {
            if let ExprKind::Str(m) = &arg.kind {
                return Some(m);
            }
        }
    }
    None
}

/// Resolves every import binding (ES and CommonJS) in `body` into dotted
/// paths, recursing into function/branch bodies.
fn collect_imports<'p>(body: &[Stmt<'p>], imports: &mut ImportMap<'p>) {
    for stmt in body {
        match &stmt.kind {
            StmtKind::Import { bindings, module } => {
                let segs = module_segments(module);
                if segs.clone().next().is_none() {
                    continue;
                }
                for b in bindings {
                    match *b {
                        ImportBinding::Default(name) | ImportBinding::Namespace(name) => {
                            imports.insert(name, segs.clone());
                        }
                        ImportBinding::Named { exported, local } => {
                            imports.insert(local, segs.clone().chain([exported]));
                        }
                    }
                }
            }
            StmtKind::VarDecl { name, pattern, init: Some(init) } => {
                if let Some(module) = require_module(init) {
                    let segs = module_segments(module);
                    if segs.clone().next().is_none() {
                        continue;
                    }
                    if let Some(n) = *name {
                        imports.insert(n, segs.clone());
                    }
                    for &(prop, local) in pattern {
                        imports.insert(local, segs.clone().chain([prop]));
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

/// Walks one program, borrowing its AST for the whole lowering. A local
/// function is inlined from its declaration alone.
struct Lowerer<'p, S> {
    em: Emitter<'p, &'p FuncDecl<'p>, S>,
    /// The program's import bindings, built once and shared by every scope.
    imports: Rc<ImportMap<'p>>,
    /// The texts of every local's variants, shared by every scope.
    variants: Rc<RefCell<VariantArena>>,
    /// A reused buffer for parameter representations and index fields.
    text: String,
}

impl<'p, S: Sink> Walk<'p> for Lowerer<'p, S> {
    type Stmt = Stmt<'p>;
    type Callee = &'p FuncDecl<'p>;
    type Sink = S;

    fn emitter(&mut self) -> &mut Emitter<'p, &'p FuncDecl<'p>, S> {
        &mut self.em
    }

    fn lower_stmt(&mut self, stmt: &'p Stmt<'p>, sc: &mut Scope<'p>) {
        match &stmt.kind {
            StmtKind::Import { .. } => {}
            StmtKind::Func(def) => self.walk_function(def, sc),
            StmtKind::Return(value) => {
                if let Some(v) = value {
                    let flows = self.eval(v, sc);
                    sc.returns.extend_from_slice(&flows);
                }
            }
            StmtKind::VarDecl { name, pattern, init } => {
                let Some(init) = init else {
                    if let Some(n) = *name {
                        sc.env.insert(n, FlowSet::default());
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
                let variants = describe_js(init, &sc.ctx);
                if let Some(n) = *name {
                    self.em.bind_name(sc, n, &flows, Some(variants), ident(init));
                }
                for &(_, local) in pattern {
                    self.em.bind_name(sc, local, &flows, None, None);
                }
            }
            StmtKind::Assign { target, value } => {
                let flows = self.eval(value, sc);
                let variants = describe_js(value, &sc.ctx);
                self.assign_to(target, &flows, variants, value, sc);
            }
            StmtKind::If { test, cons, alt } => {
                self.eval(test, sc);
                let before = sc.env.clone();
                self.walk_body(cons, sc);
                let after_then = std::mem::replace(&mut sc.env, before);
                self.walk_body(alt, sc);
                sc.merge_env(after_then);
            }
            StmtKind::Expr(e) => {
                self.eval(e, sc);
            }
        }
    }

    fn inline_scope(
        &mut self,
        def: &'p FuncDecl<'p>,
        args: &[FlowSet],
        _kwargs: &[(&'p str, FlowSet)],
    ) -> (Scope<'p>, &'p [Stmt<'p>]) {
        let mut scope = self.new_scope(Some(def), None);
        for (&(name, _), flows) in def.params.iter().zip(args) {
            scope.env.insert(name, *flows);
        }
        (scope, &def.body)
    }
}

impl<'p, S: Sink> Lowerer<'p, S> {
    /// A fresh scope; `def` is the function it analyzes, if any, and
    /// `outer` the scope whose bindings its free variables see.
    fn new_scope(
        &mut self,
        def: Option<&'p FuncDecl<'p>>,
        outer: Option<&Scope<'p>>,
    ) -> Scope<'p> {
        let ctx = ReprCtx {
            imports: Rc::clone(&self.imports),
            class_name: None,
            base_class: None,
            func_name: def.map(|d| d.name),
            params: def.map_or_else(Vec::new, |d| d.params.iter().map(|&(n, _)| n).collect()),
            locals: HashMap::default(),
            variants: Rc::clone(&self.variants),
        };
        self.em.open_scope(ctx, outer)
    }

    fn walk_function(&mut self, def: &'p FuncDecl<'p>, outer: &mut Scope<'p>) {
        // Free variables see enclosing (module) bindings.
        let mut scope = self.new_scope(Some(def), Some(outer));
        // Formal parameters are source-candidate events, represented as
        // `{func}(param {name})` exactly like Python module functions.
        let mut params = Vec::new();
        for &(name, span) in &def.params {
            self.text.clear();
            self.text.extend([def.name, "(param ", name, ")"]);
            let reps = vec![self.em.symbols().intern(&self.text)];
            params.push((name, self.em.param(&mut scope, name, reps, span)));
        }
        self.walk_body(&def.body, &mut scope);
        let returns = self.em.close_scope(scope);
        self.em.define(Cow::Borrowed(def.name), params, returns, def);
    }

    fn assign_to(
        &mut self,
        target: &'p Expr<'p>,
        flows: &FlowSet,
        variants: Variants,
        value: &'p Expr<'p>,
        sc: &mut Scope<'p>,
    ) {
        match &target.kind {
            ExprKind::Ident(n) => self.em.bind_name(sc, n, flows, Some(variants), ident(value)),
            ExprKind::Member { obj, prop } => {
                self.eval(obj, sc);
                self.em.store_through(sc, ident(obj), prop, flows);
            }
            ExprKind::Index { obj, index } => {
                self.eval(obj, sc);
                let field = index_field(index, &mut self.text);
                self.em.store_through(sc, ident(obj), field, flows);
            }
            _ => {}
        }
    }

    /// Evaluates `exprs` in order; returns the union of their flows.
    fn eval_all(
        &mut self,
        exprs: impl IntoIterator<Item = &'p Expr<'p>>,
        sc: &mut Scope<'p>,
    ) -> FlowSet {
        let mut out = FlowSet::default();
        for e in exprs {
            union_into(&mut out, &self.eval(e, sc));
        }
        out
    }

    fn eval(&mut self, expr: &'p Expr<'p>, sc: &mut Scope<'p>) -> FlowSet {
        match &expr.kind {
            ExprKind::Ident(n) => sc.env.get(n).copied().unwrap_or_default(),
            ExprKind::Str(_) | ExprKind::Num(_) | ExprKind::Bool(_) | ExprKind::Null => {
                FlowSet::default()
            }
            ExprKind::Member { obj, prop } => {
                let base_flows = self.eval(obj, sc);
                let reps = describe_syms_js(expr, &sc.ctx, self.em.symbols());
                self.em.read_event(sc, reps, expr.span, ident(obj), prop, base_flows)
            }
            ExprKind::Index { obj, index } => {
                let base_flows = self.eval_all([&**obj, index], sc);
                let reps = describe_syms_js(expr, &sc.ctx, self.em.symbols());
                let field = index_field(index, &mut self.text);
                self.em.read_event(sc, reps, expr.span, ident(obj), field, base_flows)
            }
            ExprKind::Call { callee, args } => {
                // Receiver/base flows: for `x.m(...)` the object chain
                // flows into the call event.
                let recv = match &callee.kind {
                    ExprKind::Member { obj, .. } => self.eval(obj, sc),
                    ExprKind::Ident(n) => sc.env.get(n).copied().unwrap_or_default(),
                    _ => self.eval(callee, sc),
                };
                let operands = self.em.operands();
                for a in args {
                    let flows = self.eval(a, sc);
                    self.em.push_arg(flows);
                }
                let reps = describe_syms_js(expr, &sc.ctx, self.em.symbols());
                self.call(Call {
                    reps,
                    span: expr.span,
                    recv,
                    operands,
                    // Calls link to locally-defined functions.
                    target: ident(callee).map(Cow::Borrowed),
                })
            }
            // Literals flow their property values to the whole value.
            ExprKind::Object(entries) => self.eval_all(entries.iter().map(|(_, v)| v), sc),
            ExprKind::Array(elems) => self.eval_all(elems, sc),
            ExprKind::Binary { left, right } => self.eval_all([&**left, right], sc),
            ExprKind::Unary(inner) => self.eval(inner, sc),
        }
    }
}

/// The variable `expr` names, if it is a bare identifier.
fn ident<'p>(expr: &Expr<'p>) -> Option<&'p str> {
    match expr.kind {
        ExprKind::Ident(n) => Some(n),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use seldon_ir::{IrEdgeKind, IrEventKind, IrOp};

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
        assert_eq!(ir.symbols.resolve(ir.events[0].reps[0]), "express()");

        let ir = lower("const fs = require('fs');\nfs.readFile(p);\n");
        // The require itself is silent; the member call resolves through it.
        assert_eq!(ir.events.len(), 1);
        assert_eq!(ir.symbols.resolve(ir.events[0].reps[0]), "fs.readFile()");
    }

    #[test]
    fn named_import_gets_module_prefix() {
        let ir = lower("import { query } from './db/pool.js';\nquery(sql);\n");
        let reps: Vec<&str> = ir.events[0].reps.iter().map(|&s| ir.symbols.resolve(s)).collect();
        assert_eq!(reps[0], "db.pool.query()");
        assert!(reps.contains(&"query()"), "bare named-import variant: {reps:?}");
    }

    #[test]
    fn destructured_require_binds_each_name() {
        let ir = lower(
            "const { getById, save: persist } = require('./models');\ngetById(id);\npersist(row);\n",
        );
        let reps0: Vec<&str> = ir.events[0].reps.iter().map(|&s| ir.symbols.resolve(s)).collect();
        let reps1: Vec<&str> = ir.events[1].reps.iter().map(|&s| ir.symbols.resolve(s)).collect();
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
        assert_eq!(ir.symbols.resolve(ir.events[0].reps[0]), "handler(param req)");
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
            .position(|e| e.reps.iter().any(|&s| ir.symbols.resolve(s) == "sink()"))
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

    /// Every expression of `e`, `e` first.
    fn sub_exprs<'e>(e: &'e Expr<'e>, out: &mut Vec<&'e Expr<'e>>) {
        out.push(e);
        match &e.kind {
            ExprKind::Member { obj: x, .. } | ExprKind::Unary(x) => sub_exprs(x, out),
            ExprKind::Index { obj: a, index: b } | ExprKind::Binary { left: a, right: b } => {
                sub_exprs(a, out);
                sub_exprs(b, out);
            }
            ExprKind::Call { callee, args } => {
                sub_exprs(callee, out);
                args.iter().for_each(|a| sub_exprs(a, out));
            }
            ExprKind::Object(entries) => entries.iter().for_each(|(_, v)| sub_exprs(v, out)),
            ExprKind::Array(elems) => elems.iter().for_each(|x| sub_exprs(x, out)),
            _ => {}
        }
    }

    /// Every expression of `body`, and one context per function with the
    /// locals its declarations and assignments bind.
    fn walk_body<'p>(
        body: &'p [Stmt<'p>],
        ctx: &ReprCtx<'p>,
        exprs: &mut Vec<&'p Expr<'p>>,
        ctxs: &mut Vec<ReprCtx<'p>>,
    ) {
        let mut ctx = ctx.clone();
        for stmt in body {
            let (name, value) = match &stmt.kind {
                StmtKind::Func(def) => {
                    let mut inner = ctx.clone();
                    inner.func_name = Some(def.name);
                    inner.params = def.params.iter().map(|&(n, _)| n).collect();
                    walk_body(&def.body, &inner, exprs, ctxs);
                    continue;
                }
                StmtKind::VarDecl { name, init: Some(init), .. } => (*name, init),
                StmtKind::Assign { target, value } => {
                    sub_exprs(target, exprs);
                    (ident(target), value)
                }
                StmtKind::Return(Some(e)) | StmtKind::Expr(e) => (None, e),
                StmtKind::If { test, cons, alt } => {
                    walk_body(cons, &ctx, exprs, ctxs);
                    walk_body(alt, &ctx, exprs, ctxs);
                    (None, test)
                }
                _ => continue,
            };
            sub_exprs(value, exprs);
            if let Some(n) = name {
                ctx.locals.insert(n, describe_js(value, &ctx));
            }
        }
        ctxs.push(ctx);
    }

    #[test]
    fn describe_syms_and_strings_agree_on_js_fixtures() {
        let fixtures = [
            include_str!("../../../tests/fixtures/js_express_fixture.js"),
            include_str!("../../../tests/fixtures/js_inlining_guards.js"),
        ];
        let (mut compared, mut table) = (0, Symbols::new());
        for src in fixtures {
            let program = parse(src).expect("fixtures parse");
            let mut imports = ImportMap::new();
            collect_imports(&program.body, &mut imports);
            let top = ReprCtx { imports: Rc::new(imports), ..ReprCtx::new() };
            let (mut exprs, mut ctxs) = (Vec::new(), Vec::new());
            walk_body(&program.body, &top, &mut exprs, &mut ctxs);
            for ctx in &ctxs {
                for e in &exprs {
                    let syms = describe_syms_js(e, ctx, &mut table);
                    let syms: Vec<&str> = syms.iter().map(|&s| table.resolve(s)).collect();
                    let variants = ctx.push_variants(|suffix| chain_base(e, 0, suffix));
                    let strings: Vec<String> =
                        ctx.variants.borrow().get(variants).map(str::to_string).collect();
                    assert_eq!(strings, syms, "{e:?}");
                    compared += usize::from(!syms.is_empty());
                }
            }
        }
        assert!(compared > 100, "only {compared} describable expressions");
    }

    #[test]
    fn lower_budgeted_trips() {
        let program = parse("var a = 1;\nvar b = 2;\nvar c = 3;\n").unwrap();
        let tight = Budget { max_statements: 1, ..Budget::unlimited() };
        let err = lower_js_program_budgeted(&program, &tight).unwrap_err();
        assert!(matches!(err, BudgetExceeded::Statements { .. }));
    }
}
