//! Lowers Python ASTs through the shared emitter (§5).
//!
//! This is the Python walk over the shared [`crate::emit`] emitter: it owns
//! only the Python-specific decisions — the statement and expression
//! matches, single-iteration loops, class scopes and `self.m()` method
//! linking, keyword binding into inlined bodies, `locals()`, `self`/`cls`
//! receiver slots, import resolution — while the emitter writes the
//! resulting event and op stream to a sink: straight into a
//! `PropagationGraph` ([`crate::irbuild::GraphSink`]), or into a recorded
//! [`seldon_ir::IrProgram`] ([`crate::emit::Recorder`]).
//!
//! The lowering contract (see DESIGN.md §3g): events and ops are emitted
//! in one fixed walk order, so both sinks see the same stream and build
//! the same event identity and adjacency order byte-for-byte.

use crate::budget::{Budget, BudgetExceeded};
use crate::emit::{union_into, Call, Emitter, FlowSet, Recorder, Scope, Sink, Walk};
use crate::repr::{describe_syms, describe_variants, ImportMap, ReprCtx, VariantArena, Variants};
use seldon_intern::Symbol;
use seldon_ir::IrProgram;
use seldon_pyast::ast::*;
use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// Lowers one parsed module into `sink` under a resource [`Budget`] (pass
/// [`Budget::unlimited`] to lower without limits).
///
/// # Errors
///
/// Returns [`BudgetExceeded`] if the walk trips a statement-count, depth,
/// or deadline limit; the unfinished sink is discarded.
pub fn lower_module_into<S: Sink>(
    module: &Module<'_>,
    budget: &Budget,
    sink: S,
) -> Result<S::Output, BudgetExceeded> {
    let mut imports = ImportMap::new();
    collect_imports(&module.body, &mut imports);
    let em = Emitter::new(budget, &["self", "cls"], sink);
    let mut l = Lowerer {
        em,
        imports: Rc::new(imports),
        variants: Rc::default(),
        text: String::new(),
    };
    let mut scope = l.new_scope(None, None, None, None);
    l.walk_body(&module.body, &mut scope);
    l.em.finish()
}

/// [`lower_module_into`] a [`Recorder`]: the module's recorded IR.
///
/// # Errors
///
/// As [`lower_module_into`].
pub fn lower_module_budgeted(
    module: &Module<'_>,
    budget: &Budget,
) -> Result<IrProgram, BudgetExceeded> {
    lower_module_into(module, budget, Recorder::default())
}

/// What a call site needs to inline a local function: the function,
/// borrowed from the module, with its lexical context.
#[derive(Clone)]
struct Callee<'m> {
    def: &'m FunctionDef<'m>,
    class_name: Option<&'m str>,
    base_class: Option<String>,
}

/// Walks one module. The AST is borrowed for the whole lowering: function
/// bodies kept for inlining, environment keys and points-to names all
/// point into it.
struct Lowerer<'m, S> {
    em: Emitter<'m, Callee<'m>, S>,
    /// The module's import bindings, built once and shared by every scope.
    imports: Rc<ImportMap<'m>>,
    /// The texts of every local's variants, shared by every scope.
    variants: Rc<RefCell<VariantArena>>,
    /// A reused buffer for parameter representations and subscript fields.
    text: String,
}

impl<'m, S: Sink> Walk<'m> for Lowerer<'m, S> {
    type Stmt = Stmt<'m>;
    type Callee = Callee<'m>;
    type Sink = S;

    fn emitter(&mut self) -> &mut Emitter<'m, Callee<'m>, S> {
        &mut self.em
    }

    fn lower_stmt(&mut self, stmt: &'m Stmt<'m>, sc: &mut Scope<'m>) {
        match &stmt.kind {
            StmtKind::Import(_) | StmtKind::ImportFrom { .. } => {}
            StmtKind::FunctionDef(def) => self.walk_function(def, sc, None, None),
            StmtKind::ClassDef(def) => self.walk_class(def, sc),
            StmtKind::Return(value) => {
                if let Some(v) = value {
                    let flows = self.eval(v, sc);
                    sc.returns.extend_from_slice(&flows);
                }
            }
            StmtKind::Assign { target, chained, value } => {
                let flows = self.eval(value, sc);
                let variants = describe_variants(value, &sc.ctx);
                for t in std::iter::once(target).chain(chained) {
                    self.assign_to(t, &flows, Some(variants), value, sc);
                }
            }
            StmtKind::AugAssign { target, value, .. } => {
                let flows = self.eval(value, sc);
                if let ExprKind::Name(n) = target.kind {
                    union_into(sc.env.entry(n).or_default(), &flows);
                } else {
                    self.assign_to(target, &flows, None, value, sc);
                }
            }
            StmtKind::AnnAssign { target, value, .. } => {
                if let Some(v) = value {
                    let flows = self.eval(v, sc);
                    let variants = describe_variants(v, &sc.ctx);
                    self.assign_to(target, &flows, Some(variants), v, sc);
                }
            }
            StmtKind::For { target, iter, body, orelse } => {
                let flows = self.eval(iter, sc);
                self.bind_pattern(target, &flows, sc);
                let saved = sc.env.clone();
                self.walk_body(body, sc);
                self.walk_body(orelse, sc);
                sc.merge_env(saved);
            }
            StmtKind::While { test, body, orelse } => {
                self.eval(test, sc);
                let saved = sc.env.clone();
                self.walk_body(body, sc);
                self.walk_body(orelse, sc);
                sc.merge_env(saved);
            }
            StmtKind::If { test, body, orelse } => {
                self.eval(test, sc);
                let before = sc.env.clone();
                self.walk_body(body, sc);
                let after_then = std::mem::replace(&mut sc.env, before);
                self.walk_body(orelse, sc);
                sc.merge_env(after_then);
            }
            StmtKind::With { items, body } => {
                for item in items {
                    let flows = self.eval(&item.context, sc);
                    if let Some(t) = &item.target {
                        self.bind_pattern(t, &flows, sc);
                    }
                }
                self.walk_body(body, sc);
            }
            StmtKind::Raise { exc, cause } => {
                self.eval_all(exc.iter().chain(cause), sc);
            }
            StmtKind::Try { body, handlers, orelse, finalbody } => {
                self.walk_body(body, sc);
                for h in handlers {
                    if let Some(n) = h.name {
                        sc.env.insert(n, FlowSet::default());
                    }
                    self.walk_body(&h.body, sc);
                }
                self.walk_body(orelse, sc);
                self.walk_body(finalbody, sc);
            }
            StmtKind::Assert { test, msg } => {
                self.eval_all(std::iter::once(test).chain(msg), sc);
            }
            StmtKind::Expr(e) => {
                self.eval(e, sc);
            }
            StmtKind::Delete(targets) => {
                self.eval_all(targets, sc);
            }
            StmtKind::Global(_)
            | StmtKind::Nonlocal(_)
            | StmtKind::Pass
            | StmtKind::Break
            | StmtKind::Continue => {}
        }
    }

    /// Binds positional arguments (skipping a `self`/`cls` receiver slot
    /// for methods) and keyword arguments by name.
    fn inline_scope(
        &mut self,
        callee: Callee<'m>,
        args: &[FlowSet],
        kwargs: &[(&'m str, FlowSet)],
    ) -> (Scope<'m>, &'m [Stmt<'m>]) {
        let def = callee.def;
        let mut scope = self.new_scope(callee.class_name, callee.base_class, Some(def), None);
        let positional = declared_params(def).filter(|&n| !self.em.is_receiver(n));
        for (name, flows) in positional.zip(args) {
            scope.env.insert(name, *flows);
        }
        for &(name, flows) in kwargs {
            if declared_params(def).any(|p| p == name) {
                scope.env.insert(name, flows);
            }
        }
        (scope, &def.body)
    }
}

impl<'m, S: Sink> Lowerer<'m, S> {
    /// A fresh scope; `def` is the function it analyzes, if any, and
    /// `outer` the scope whose bindings its free variables see.
    fn new_scope(
        &mut self,
        class_name: Option<&'m str>,
        base_class: Option<String>,
        def: Option<&'m FunctionDef<'m>>,
        outer: Option<&Scope<'m>>,
    ) -> Scope<'m> {
        let ctx = ReprCtx {
            imports: Rc::clone(&self.imports),
            class_name,
            base_class,
            func_name: def.map(|d| d.name),
            params: def.map_or_else(Vec::new, |d| declared_params(d).collect()),
            locals: HashMap::default(),
            variants: Rc::clone(&self.variants),
        };
        self.em.open_scope(ctx, outer)
    }

    fn walk_function(
        &mut self,
        def: &'m FunctionDef<'m>,
        outer: &mut Scope<'m>,
        class_name: Option<&'m str>,
        base_class: Option<&str>,
    ) {
        // Decorators and defaults evaluate in the enclosing scope.
        let defaults = def.params.iter().filter_map(|p| p.default.as_ref());
        self.eval_all(def.decorators.iter().chain(defaults), outer);
        // Free variables see enclosing (module/class) bindings.
        let base = base_class.map(str::to_string);
        let mut scope = self.new_scope(class_name, base, Some(def), Some(outer));
        // Formal parameters are source-candidate events (§5.1). The bare
        // variable name is deliberately not used as a representation for the
        // parameter event itself — `self` would conflate the whole corpus —
        // but parameter *uses* in expressions still back off to it.
        let mut params = Vec::new();
        for p in &def.params {
            if p.kind == ParamKind::KwOnlyMarker {
                continue;
            }
            let (func, name) = (def.name, p.name);
            let mut reps = Vec::new();
            if let Some(class) = class_name {
                reps.push(self.intern(&[class, "::", func, "(param ", name, ")"]));
                if let Some(base) = base_class {
                    reps.push(self.intern(&[base, "::", func, "(param ", name, ")"]));
                }
            }
            reps.push(self.intern(&[func, "(param ", name, ")"]));
            params.push((name, self.em.param(&mut scope, name, reps, p.span)));
        }
        self.walk_body(&def.body, &mut scope);
        let qualified = match class_name {
            Some(c) => Cow::Owned(format!("{c}::{}", def.name)),
            None => Cow::Borrowed(def.name),
        };
        let callee = Callee { def, class_name, base_class: base_class.map(str::to_string) };
        let returns = self.em.close_scope(scope);
        self.em.define(qualified, params, returns, callee);
    }

    /// The interned concatenation of `parts`.
    fn intern(&mut self, parts: &[&str]) -> Symbol {
        self.text.clear();
        parts.iter().for_each(|p| self.text.push_str(p));
        self.em.symbols().intern(&self.text)
    }

    fn walk_class(&mut self, def: &'m ClassDef<'m>, outer: &mut Scope<'m>) {
        self.eval_all(&def.decorators, outer);
        let base_class = def.bases.first().and_then(|b| {
            let variants = describe_variants(b, &outer.ctx);
            self.variants.borrow().get(variants).next().map(str::to_string)
        });
        self.eval_all(def.bases.iter().chain(def.keywords.iter().map(|k| &k.value)), outer);
        let mut class_scope = self.new_scope(None, None, None, None);
        for s in &def.body {
            match &s.kind {
                StmtKind::FunctionDef(f) => {
                    self.walk_function(f, &mut class_scope, Some(def.name), base_class.as_deref())
                }
                _ => self.walk_stmt(s, &mut class_scope),
            }
        }
        self.em.close_scope(class_scope);
    }

    // ----- assignment targets ------------------------------------------------

    /// Binds `target` to `flows`. A name target records `variants` as its
    /// local representations; `None` (or no variants) forgets them.
    fn assign_to(
        &mut self,
        target: &'m Expr<'m>,
        flows: &FlowSet,
        variants: Option<Variants>,
        value: &'m Expr<'m>,
        sc: &mut Scope<'m>,
    ) {
        match &target.kind {
            ExprKind::Name(n) => self.em.bind_name(sc, n, flows, variants, name_of(value)),
            ExprKind::Tuple(elems) | ExprKind::List(elems) => {
                for e in elems {
                    self.assign_to(e, flows, None, value, sc);
                }
            }
            ExprKind::Starred(inner) => self.assign_to(inner, flows, None, value, sc),
            ExprKind::Attribute { value: base, attr } => {
                self.eval(base, sc);
                self.em.store_through(sc, name_of(base), attr, flows);
            }
            ExprKind::Subscript { value: base, index } => {
                self.eval(base, sc);
                let field = index_field(index, &mut self.text);
                self.em.store_through(sc, name_of(base), field, flows);
            }
            _ => {}
        }
    }

    fn bind_pattern(&mut self, target: &'m Expr<'m>, flows: &FlowSet, sc: &mut Scope<'m>) {
        match target.kind {
            ExprKind::Name(n) => {
                sc.env.insert(n, *flows);
                sc.ctx.locals.remove(n);
            }
            ExprKind::Tuple(ref elems) | ExprKind::List(ref elems) => {
                for e in elems {
                    self.bind_pattern(e, flows, sc);
                }
            }
            ExprKind::Starred(ref inner) => self.bind_pattern(inner, flows, sc),
            _ => {}
        }
    }

    // ----- expressions --------------------------------------------------------

    /// Evaluates `exprs` in order; returns the union of their flows.
    fn eval_all(
        &mut self,
        exprs: impl IntoIterator<Item = &'m Expr<'m>>,
        sc: &mut Scope<'m>,
    ) -> FlowSet {
        let mut out = FlowSet::default();
        for e in exprs {
            union_into(&mut out, &self.eval(e, sc));
        }
        out
    }

    fn eval(&mut self, expr: &'m Expr<'m>, sc: &mut Scope<'m>) -> FlowSet {
        match &expr.kind {
            ExprKind::Name(n) => sc.env.get(n).copied().unwrap_or_default(),
            ExprKind::Number(_)
            | ExprKind::Str(_)
            | ExprKind::Bytes(_)
            | ExprKind::Bool(_)
            | ExprKind::NoneLit
            | ExprKind::EllipsisLit => FlowSet::default(),
            ExprKind::FString { parts, .. } => self.eval_all(parts, sc),
            ExprKind::Attribute { value, attr } => {
                let base_flows = self.eval(value, sc);
                let reps = describe_syms(expr, &sc.ctx, self.em.symbols());
                self.em.read_event(sc, reps, expr.span, name_of(value), attr, base_flows)
            }
            ExprKind::Subscript { value, index } => {
                let base_flows = self.eval_all([&**value, index], sc);
                let reps = describe_syms(expr, &sc.ctx, self.em.symbols());
                let field = index_field(index, &mut self.text);
                self.em.read_event(sc, reps, expr.span, name_of(value), field, base_flows)
            }
            ExprKind::Slice { lower, upper, step } => {
                self.eval_all([lower, upper, step].into_iter().flatten().map(|b| &**b), sc)
            }
            ExprKind::Call { func, args, keywords } => self.eval_call(expr, func, args, keywords, sc),
            ExprKind::BinOp { left, right, .. } => self.eval_all([&**left, right], sc),
            ExprKind::UnaryOp { operand, .. } => self.eval(operand, sc),
            ExprKind::BoolOp { values, .. } => self.eval_all(values, sc),
            ExprKind::Compare { left, comparators, .. } => {
                self.eval_all(std::iter::once(&**left).chain(comparators), sc)
            }
            ExprKind::IfExp { test, body, orelse } => {
                self.eval(test, sc);
                self.eval_all([&**body, orelse], sc)
            }
            ExprKind::Lambda { params, body } => {
                let defaults = params.iter().filter_map(|p| p.default.as_ref());
                self.eval_all(defaults.chain([&**body]), sc);
                FlowSet::default()
            }
            // Collections flow their entries to the whole value (§5.2).
            ExprKind::Tuple(elems) | ExprKind::List(elems) | ExprKind::Set(elems) => {
                self.eval_all(elems, sc)
            }
            ExprKind::Dict { keys, values } => {
                self.eval_all(keys.iter().flatten().chain(values), sc)
            }
            ExprKind::Comp { element, value, generators, .. } => {
                let saved = sc.env.clone();
                for g in generators {
                    let flows = self.eval(&g.iter, sc);
                    self.bind_pattern(&g.target, &flows, sc);
                    self.eval_all(&g.ifs, sc);
                }
                let out = self.eval_all(std::iter::once(&**element).chain(value.as_deref()), sc);
                sc.env = saved;
                out
            }
            ExprKind::Yield { value, .. } => match value {
                Some(v) => self.eval(v, sc),
                None => FlowSet::default(),
            },
            ExprKind::Await(inner) | ExprKind::Starred(inner) => self.eval(inner, sc),
            ExprKind::NamedExpr { target, value } => {
                let flows = self.eval(value, sc);
                if let ExprKind::Name(n) = target.kind {
                    sc.env.insert(n, flows);
                }
                flows
            }
        }
    }

    fn eval_call(
        &mut self,
        expr: &'m Expr<'m>,
        func: &'m Expr<'m>,
        args: &'m [Expr<'m>],
        keywords: &'m [Keyword<'m>],
        sc: &mut Scope<'m>,
    ) -> FlowSet {
        // Receiver/base flows: for `x.m(...)` the object chain flows into
        // the call event (Fig. 2b: `request.files['f']` → `.save()`).
        let recv = match &func.kind {
            ExprKind::Attribute { value, .. } => self.eval(value, sc),
            ExprKind::Name(n) => sc.env.get(n).copied().unwrap_or_default(),
            _ => self.eval(func, sc),
        };
        let operands = self.em.operands();
        for a in args {
            let flows = self.eval(a, sc);
            self.em.push_arg(flows);
        }
        for k in keywords {
            let flows = self.eval(&k.value, sc);
            self.em.push_kwarg(k.name.unwrap_or_default(), flows);
        }
        // `locals()` receives every local variable (§5.2), visited in name
        // order so the edge order never follows hash order.
        if matches!(func.kind, ExprKind::Name("locals")) {
            let mut bindings: Vec<(&str, &FlowSet)> =
                sc.env.iter().map(|(&name, flows)| (name, flows)).collect();
            bindings.sort_unstable_by_key(|&(name, _)| name);
            for (_, flows) in bindings {
                self.em.push_unpositioned(flows);
            }
        }
        // Calls link to locally-defined functions and same-class methods.
        let target = match func.kind {
            ExprKind::Name(n) => Some(Cow::Borrowed(n)),
            ExprKind::Attribute { ref value, attr } => match (&value.kind, sc.ctx.class_name) {
                (ExprKind::Name("self"), Some(class)) => {
                    Some(Cow::Owned(format!("{class}::{attr}")))
                }
                _ => None,
            },
            _ => None,
        };
        let reps = describe_syms(expr, &sc.ctx, self.em.symbols());
        self.call(Call { reps, span: expr.span, recv, operands, target })
    }
}

/// The names a function declares, in order, without the bare `*` marker.
fn declared_params<'m>(def: &'m FunctionDef<'m>) -> impl Iterator<Item = &'m str> + Clone {
    def.params.iter().filter(|p| p.kind != ParamKind::KwOnlyMarker).map(|p| p.name)
}

/// Collects the import bindings of `body`: every `import` and
/// `from ... import` anywhere in it, recursing into nested statement
/// bodies in source order, later bindings winning.
pub(crate) fn collect_imports<'m>(body: &[Stmt<'m>], imports: &mut ImportMap<'m>) {
    for stmt in body {
        match &stmt.kind {
            StmtKind::Import(aliases) => {
                for a in aliases {
                    match a.asname {
                        Some(alias) => imports.insert(alias, segments(a.name)),
                        None => {
                            // `import a.b` binds top-level `a`.
                            if let Some(first) = segments(a.name).next() {
                                imports.insert(first, [first]);
                            }
                        }
                    }
                }
            }
            StmtKind::ImportFrom { module, names, .. } => {
                for a in names.iter().filter(|a| a.name != "*") {
                    imports.insert(a.asname.unwrap_or(a.name), segments(module).chain([a.name]));
                }
            }
            StmtKind::FunctionDef(def) => collect_imports(&def.body, imports),
            StmtKind::ClassDef(def) => collect_imports(&def.body, imports),
            StmtKind::For { body, orelse, .. }
            | StmtKind::While { body, orelse, .. }
            | StmtKind::If { body, orelse, .. } => {
                collect_imports(body, imports);
                collect_imports(orelse, imports);
            }
            StmtKind::With { body, .. } => collect_imports(body, imports),
            StmtKind::Try { body, handlers, orelse, finalbody } => {
                collect_imports(body, imports);
                for h in handlers {
                    collect_imports(&h.body, imports);
                }
                collect_imports(orelse, imports);
                collect_imports(finalbody, imports);
            }
            _ => {}
        }
    }
}

/// Field name used for subscript loads/stores, matching the representation
/// rendering (`['key']`, `[0]`, `[]`), rendered into `buf` when it is not
/// the constant `[]`.
fn index_field<'b>(index: &Expr<'_>, buf: &'b mut String) -> &'b str {
    let (open, text, close) = match &index.kind {
        ExprKind::Str(s) => ("['", &**s, "']"),
        ExprKind::Number(n) => ("[", *n, "]"),
        _ => return "[]",
    };
    buf.clear();
    buf.extend([open, text, close]);
    buf
}

/// The variable `expr` names, if it is a bare name.
fn name_of<'m>(expr: &Expr<'m>) -> Option<&'m str> {
    match expr.kind {
        ExprKind::Name(n) => Some(n),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seldon_ir::{IrEdgeKind, IrEventKind, IrOp};
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
    fn imports_are_collected_from_every_nested_body() {
        let src = "\
def f():
    import m_def as a0
class C:
    import m_class as a1
for i in x:
    import m_for as a2
else:
    import m_for_else as a3
while x:
    import m_while as a4
else:
    import m_while_else as a5
if x:
    import m_if as a6
else:
    import m_if_else as a7
with x:
    import m_with as a8
try:
    import m_try as a9
except E:
    import m_except as a10
else:
    import m_try_else as a11
finally:
    from m_finally import a12
if x:
    import m_first as a13
import m_last as a13
";
        let calls: String = (0..14).map(|i| format!("a{i}.run()\n")).collect();
        let ir = lower(&format!("{src}{calls}"));
        let reps: Vec<&str> = ir.events.iter().map(|e| ir.symbols.resolve(e.reps[0])).collect();
        for module in [
            "m_def", "m_class", "m_for", "m_for_else", "m_while", "m_while_else", "m_if",
            "m_if_else", "m_with", "m_try", "m_except", "m_try_else", "m_finally.a12",
        ] {
            let rep = format!("{module}.run()");
            assert!(reps.contains(&rep.as_str()), "{rep} missing from {reps:?}");
        }
        assert!(reps.contains(&"m_last.run()"), "the later binding wins: {reps:?}");
        assert!(!reps.contains(&"m_first.run()"), "{reps:?}");
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
