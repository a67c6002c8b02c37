//! Event representations `Rep(v)` and backoff chains (§3.2, §4.3).
//!
//! In Python the target of an event cannot be resolved statically, so each
//! event carries a list of representations ordered from most to least
//! specific. Two mechanisms generate the list:
//!
//! * **semantic levels** — e.g. for a call on a method parameter inside
//!   `class ESCPOSDriver(ThreadDriver): def status(self, ...)`:
//!   `ESCPOSDriver::status(param self).receipt()`, then the base-class
//!   fallback `base_driver.ThreadDriver::status(param self).receipt()`, then
//!   `status(param self).receipt()`, then `self.receipt()`;
//! * **dot-suffix backoff** — for resolved dotted chains,
//!   `flask.request.args.get()` also yields `request.args.get()` and
//!   `args.get()` (suffixes keep at least two components so that maximally
//!   generic names like `get()` do not conflate unrelated events).

use seldon_intern::{IdHash, Symbol, Symbols};
use seldon_pyast::ast::{Expr, ExprKind};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// Maximum number of representations kept per event.
pub const MAX_REPS: usize = 6;

/// Deepest access chain (attribute, call, subscript steps) that still gets
/// a representation; deeper chains get none.
pub const MAX_CHAIN_DEPTH: usize = 12;

/// A file's import bindings: each bound name, borrowed from the AST, and
/// the dotted path it resolves to. A frontend builds one map per file, and
/// every scope's [`ReprCtx`] shares it.
#[derive(Debug, Clone, Default)]
pub struct ImportMap<'a> {
    bindings: HashMap<&'a str, ImportBinding, IdHash>,
    /// Every binding's dotted path, back to back.
    text: String,
}

#[derive(Debug, Clone)]
struct ImportBinding {
    /// Where the path joined with dots, e.g. `flask.request`, sits in the
    /// map's text.
    start: u32,
    end: u32,
    /// Whether the path ends in the bound name itself (`from a.b import c`
    /// binds `c → a.b.c`). Such a name also backs off to its bare form,
    /// because the same API is referenced both ways across a corpus.
    bare_too: bool,
}

impl<'a> ImportMap<'a> {
    /// Creates an empty map.
    pub fn new() -> Self {
        ImportMap::default()
    }

    /// Binds `name` to the dotted `path`, replacing any earlier binding.
    /// A plain `import os.path` binds `os → ["os"]`;
    /// `from flask import request` binds `request → ["flask", "request"]`;
    /// `import numpy as np` binds `np → ["numpy"]`.
    pub fn insert<'p>(&mut self, name: &'a str, path: impl IntoIterator<Item = &'p str>) {
        let (start, mut segments, mut last) = (self.text.len() as u32, 0, "");
        for segment in path {
            if segments > 0 {
                self.text.push('.');
            }
            self.text.push_str(segment);
            (segments, last) = (segments + 1, segment);
        }
        let end = self.text.len() as u32;
        let bare_too = segments >= 2 && last == name;
        self.bindings.insert(name, ImportBinding { start, end, bare_too });
    }

    /// The dotted path `name` is bound to, and whether the name also backs
    /// off to its bare form.
    fn get(&self, name: &str) -> Option<(&str, bool)> {
        let b = self.bindings.get(name)?;
        Some((&self.text[b.start as usize..b.end as usize], b.bare_too))
    }
}

/// The variant texts of a walk's local variables (the paper's
/// `LoginForm().username.data` chains), appended once per binding and kept
/// for the whole walk: one text buffer and the end offset of each variant,
/// so binding a local allocates nothing once the buffers have grown.
#[derive(Debug, Default)]
pub struct VariantArena {
    text: String,
    ends: Vec<u32>,
}

/// The variants one binding recorded: a range of its arena's variants.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Variants {
    start: u32,
    end: u32,
}

impl Variants {
    /// Whether the binding recorded no variant.
    pub fn is_empty(self) -> bool {
        self.start == self.end
    }
}

impl VariantArena {
    /// Appends `variants` as one binding's list.
    pub fn push<'v>(&mut self, variants: impl IntoIterator<Item = &'v str>) -> Variants {
        let start = self.ends.len() as u32;
        for v in variants {
            self.text.push_str(v);
            self.ends.push(self.text.len() as u32);
        }
        Variants { start, end: self.ends.len() as u32 }
    }

    /// The texts of `variants`, in order.
    pub fn get(&self, variants: Variants) -> impl Iterator<Item = &str> {
        (variants.start..variants.end).map(|i| {
            let from = if i == 0 { 0 } else { self.ends[i as usize - 1] };
            &self.text[from as usize..self.ends[i as usize] as usize]
        })
    }
}

/// Lexical context needed to compute representations, naming from the AST.
#[derive(Debug, Clone, Default)]
pub struct ReprCtx<'a> {
    /// Names bound by the file's imports, shared by every scope of the file.
    pub imports: Rc<ImportMap<'a>>,
    /// Enclosing class name, if inside a method.
    pub class_name: Option<&'a str>,
    /// Resolved dotted path of the enclosing class's first base, if any.
    pub base_class: Option<String>,
    /// Enclosing function name, if inside a function.
    pub func_name: Option<&'a str>,
    /// Parameter names of the enclosing function.
    pub params: Vec<&'a str>,
    /// Representations of local variables assigned from describable
    /// expressions (the paper's `LoginForm().username.data` chains), as
    /// ranges of `variants`.
    pub locals: HashMap<&'a str, Variants, IdHash>,
    /// The texts `locals` point into, shared by every scope of the file.
    pub variants: Rc<RefCell<VariantArena>>,
}

impl<'a> ReprCtx<'a> {
    /// Creates an empty context (module top level, no imports).
    pub fn new() -> Self {
        ReprCtx::default()
    }

    /// Calls `f` with each variant of an access chain, most → least
    /// specific. `chain` renders the chain's suffix (e.g. `.args.get()`)
    /// into the buffer it is given and returns the name the chain starts
    /// from, `None` when the chain has no description. The suffix and every
    /// variant are rendered into two buffers the thread reuses.
    fn for_each_variant<'e>(
        &self,
        chain: impl FnOnce(&mut String) -> Option<&'e str>,
        mut f: impl FnMut(&str),
    ) {
        thread_local! {
            static BUFS: RefCell<(String, String)> = RefCell::default();
        }
        BUFS.with_borrow_mut(|(suffix, buf)| {
            suffix.clear();
            let Some(name) = chain(suffix) else { return };
            let mut emit = |parts: &[&str]| {
                buf.clear();
                parts.iter().for_each(|p| buf.push_str(p));
                buf.push_str(suffix);
                f(buf);
            };
            // A parameter shadows any same-named module import inside its
            // function (Python scoping), so check params first.
            if self.params.contains(&name) {
                if let Some(func) = self.func_name {
                    if let Some(class) = self.class_name {
                        emit(&[class, "::", func, "(param ", name, ")"]);
                        if let Some(base) = &self.base_class {
                            emit(&[base, "::", func, "(param ", name, ")"]);
                        }
                    }
                    emit(&[func, "(param ", name, ")"]);
                }
                emit(&[name]);
            } else if let Some((dotted, bare_too)) = self.imports.get(name) {
                emit(&[dotted]);
                if bare_too {
                    emit(&[name]);
                }
            } else if let Some(&variants) = self.locals.get(name) {
                self.variants.borrow().get(variants).for_each(|v| emit(&[v]));
            } else {
                emit(&[name]);
            }
        });
    }

    /// Calls `f` with the representations of the access chain `chain`
    /// renders (see [`Self::for_each_variant`]), interned into `symbols`:
    /// deduplicated, with dot-suffix backoff on the first variant when it
    /// is plain dotted, capped at [`MAX_REPS`]. The list is built in
    /// buffers the thread reuses.
    fn with_reps<'e, R>(
        &self,
        chain: impl FnOnce(&mut String) -> Option<&'e str>,
        symbols: &mut Symbols,
        f: impl FnOnce(&Symbols, &[Symbol]) -> R,
    ) -> R {
        thread_local! {
            static LIST: RefCell<(Vec<Symbol>, String)> = RefCell::default();
        }
        LIST.with_borrow_mut(|(out, first)| {
            out.clear();
            first.clear();
            self.for_each_variant(chain, |v| {
                if out.is_empty() && backs_off(v) {
                    first.push_str(v);
                }
                push_rep(out, symbols, v);
            });
            dot_suffix_starts(first).for_each(|start| push_rep(out, symbols, &first[start..]));
            f(symbols, out)
        })
    }

    /// The representations of the access chain `chain` renders, interned
    /// into `symbols` ([`Self::with_reps`]). Shared by every frontend's
    /// describe pass; the only allocation is the returned vector, at its
    /// exact length.
    pub fn rep_syms<'e>(
        &self,
        chain: impl FnOnce(&mut String) -> Option<&'e str>,
        symbols: &mut Symbols,
    ) -> Vec<Symbol> {
        self.with_reps(chain, symbols, |_, reps| reps.to_vec())
    }

    /// [`Self::rep_syms`] as texts appended to the file's variant arena,
    /// built in a table the thread reuses: what a binding records as a
    /// local's variants.
    pub fn push_variants<'e>(
        &self,
        chain: impl FnOnce(&mut String) -> Option<&'e str>,
    ) -> Variants {
        thread_local! {
            static SCRATCH: RefCell<Symbols> = RefCell::default();
        }
        SCRATCH.with_borrow_mut(|scratch| {
            scratch.clear();
            self.with_reps(chain, scratch, |scratch, reps| {
                self.variants.borrow_mut().push(reps.iter().map(|&r| scratch.resolve(r)))
            })
        })
    }
}

/// Computes the representation variants of an expression, most → least
/// specific, as symbols of `symbols` ([`ReprCtx::rep_syms`]). Returns an
/// empty vector when the expression has no stable description (e.g.
/// arithmetic on strings).
pub fn describe_syms(expr: &Expr<'_>, ctx: &ReprCtx<'_>, symbols: &mut Symbols) -> Vec<Symbol> {
    ctx.rep_syms(|suffix| chain_base(expr, 0, suffix), symbols)
}

/// Like [`describe_syms`], but appends the variant texts to the file's
/// variant arena instead of interning them: what an assignment records as
/// its target's variants.
pub fn describe_variants(expr: &Expr<'_>, ctx: &ReprCtx<'_>) -> Variants {
    ctx.push_variants(|suffix| chain_base(expr, 0, suffix))
}

/// Appends the symbol of `v` to `reps` unless `reps` holds it or is full.
fn push_rep(reps: &mut Vec<Symbol>, symbols: &mut Symbols, v: &str) {
    if reps.len() < MAX_REPS {
        let sym = symbols.intern(v);
        if !reps.contains(&sym) {
            reps.push(sym);
        }
    }
}

/// Whether the most specific variant gets dot-suffix backoff: only plain
/// dotted chains do, never parameter- or class-anchored ones.
fn backs_off(first: &str) -> bool {
    !first.contains("(param ") && !first.contains("::")
}

/// Walks an access chain down to the name it starts from, appending the
/// rendering of each step to `suffix`, innermost first. `None` when the
/// chain does not start from a name or is deeper than [`MAX_CHAIN_DEPTH`].
fn chain_base<'e>(expr: &Expr<'e>, depth: usize, suffix: &mut String) -> Option<&'e str> {
    if depth > MAX_CHAIN_DEPTH {
        return None;
    }
    match &expr.kind {
        ExprKind::Name(n) => Some(*n),
        ExprKind::Attribute { value, attr } => {
            let base = chain_base(value, depth + 1, suffix)?;
            suffix.push('.');
            suffix.push_str(attr);
            Some(base)
        }
        ExprKind::Call { func, .. } => {
            let base = chain_base(func, depth + 1, suffix)?;
            suffix.push_str("()");
            Some(base)
        }
        ExprKind::Subscript { value, index } => {
            let base = chain_base(value, depth + 1, suffix)?;
            suffix.push('[');
            match &index.kind {
                ExprKind::Str(s) => {
                    suffix.push('\'');
                    suffix.push_str(s);
                    suffix.push('\'');
                }
                ExprKind::Number(n) => suffix.push_str(n),
                _ => {}
            }
            suffix.push(']');
            Some(base)
        }
        ExprKind::Await(inner) | ExprKind::Starred(inner) => chain_base(inner, depth + 1, suffix),
        ExprKind::NamedExpr { value, .. } => chain_base(value, depth + 1, suffix),
        _ => None,
    }
}

/// Splits a representation on top-level dots (ignoring dots inside brackets
/// or quotes) and returns the suffixes with at least two components.
pub fn dot_suffixes(rep: &str) -> Vec<String> {
    dot_suffix_starts(rep).map(|start| rep[start..].to_string()).collect()
}

/// Where each suffix of [`dot_suffixes`] starts, most specific first: one
/// past every top-level dot but the last.
fn dot_suffix_starts(rep: &str) -> impl Iterator<Item = usize> + '_ {
    // A suffix needs two dots; most representations have fewer.
    let two = rep.bytes().filter(|&b| b == b'.').nth(1).is_some();
    let mut last = None;
    top_level_dots(if two { rep } else { "" })
        .filter_map(move |dot| last.replace(dot).map(|prev: usize| prev + 1))
}

/// The positions of the dots of `rep` at bracket/quote depth zero.
fn top_level_dots(rep: &str) -> impl Iterator<Item = usize> + '_ {
    let (mut depth, mut quote) = (0u32, None);
    rep.bytes()
        .enumerate()
        .filter(move |&(_, b)| {
            match quote {
                Some(q) if b == q => quote = None,
                Some(_) => {}
                None => match b {
                    b'(' | b'[' => depth += 1,
                    b')' | b']' => depth = depth.saturating_sub(1),
                    b'\'' | b'"' => quote = Some(b),
                    b'.' => return depth == 0,
                    _ => {}
                },
            }
            false
        })
        .map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use seldon_pyast::ast::{Stmt, StmtKind};
    use seldon_pyast::parse_expr;

    fn ctx_with_imports(pairs: &[(&'static str, &[&str])]) -> ReprCtx<'static> {
        let mut imports = ImportMap::new();
        for (name, path) in pairs {
            imports.insert(name, path.iter().copied());
        }
        ReprCtx { imports: Rc::new(imports), ..ReprCtx::new() }
    }

    fn describe(src: &str, ctx: &ReprCtx) -> Vec<String> {
        arena_texts(ctx, describe_variants(&parse_expr(src).unwrap(), ctx))
    }

    /// The texts `variants` recorded in `ctx`'s arena.
    fn arena_texts(ctx: &ReprCtx, variants: Variants) -> Vec<String> {
        ctx.variants.borrow().get(variants).map(str::to_string).collect()
    }

    #[test]
    fn import_resolution() {
        let ctx = ctx_with_imports(&[("request", &["flask", "request"])]);
        let reps = describe("request.args.get('n')", &ctx);
        assert_eq!(reps[0], "flask.request.args.get()");
        assert!(reps.contains(&"request.args.get()".to_string()));
        assert!(reps.contains(&"args.get()".to_string()));
        assert!(!reps.contains(&"get()".to_string()));
    }

    #[test]
    fn plain_import_binds_top_name() {
        let ctx = ctx_with_imports(&[("os", &["os"])]);
        let reps = describe("os.path.join(a, b)", &ctx);
        assert_eq!(reps[0], "os.path.join()");
        assert!(reps.contains(&"path.join()".to_string()));
    }

    #[test]
    fn from_import_gives_bare_variant() {
        let ctx = ctx_with_imports(&[("secure_filename", &["werkzeug", "secure_filename"])]);
        let reps = describe("secure_filename(fn)", &ctx);
        assert_eq!(reps, vec!["werkzeug.secure_filename()", "secure_filename()"]);
    }

    #[test]
    fn aliased_import() {
        let ctx = ctx_with_imports(&[("np", &["numpy"])]);
        let reps = describe("np.zeros(3)", &ctx);
        assert_eq!(reps[0], "numpy.zeros()");
    }

    #[test]
    fn param_levels_with_class_and_base() {
        let mut ctx = ReprCtx::new();
        ctx.class_name = Some("ESCPOSDriver");
        ctx.base_class = Some("base_driver.ThreadDriver".into());
        ctx.func_name = Some("status");
        ctx.params = vec!["self", "eprint"];
        let reps = describe("self.receipt(x)", &ctx);
        assert_eq!(
            reps,
            vec![
                "ESCPOSDriver::status(param self).receipt()",
                "base_driver.ThreadDriver::status(param self).receipt()",
                "status(param self).receipt()",
                "self.receipt()",
            ]
        );
    }

    #[test]
    fn param_levels_without_class() {
        let mut ctx = ReprCtx::new();
        ctx.func_name = Some("media");
        ctx.params = vec!["f"];
        let reps = describe("f.save(path)", &ctx);
        assert_eq!(reps, vec!["media(param f).save()", "f.save()"]);
    }

    #[test]
    fn subscript_rendering() {
        let ctx = ctx_with_imports(&[("request", &["flask", "request"])]);
        let reps = describe("request.files['f'].save(p)", &ctx);
        assert_eq!(reps[0], "flask.request.files['f'].save()");
        let reps = describe("xs[0].go()", &ReprCtx::new());
        assert_eq!(reps[0], "xs[0].go()");
        let reps = describe("xs[k].go()", &ReprCtx::new());
        assert_eq!(reps[0], "xs[].go()");
    }

    #[test]
    fn local_variable_chains() {
        let mut ctx = ReprCtx::new();
        let variants = ctx.variants.borrow_mut().push(["LoginForm()"]);
        ctx.locals.insert("form", variants);
        let reps = describe("form.username.data", &ctx);
        assert_eq!(reps[0], "LoginForm().username.data");
    }

    #[test]
    fn unresolvable_expressions_are_empty() {
        assert!(describe("(a + b).foo()", &ReprCtx::new()).is_empty());
        assert!(describe("[1, 2]", &ReprCtx::new()).is_empty());
        assert!(describe("'literal'", &ReprCtx::new()).is_empty());
    }

    #[test]
    fn unknown_local_is_bare_name() {
        let reps = describe("u.username", &ReprCtx::new());
        assert_eq!(reps, vec!["u.username"]);
    }

    #[test]
    fn top_level_components_respects_brackets() {
        let dots = |rep| top_level_dots(rep).collect::<Vec<_>>();
        assert_eq!(dots("a.b['x.y'].c()"), [1, 10], "a | b['x.y'] | c()");
        assert_eq!(dots("f(param x).g()"), [10], "f(param x) | g()");
        assert_eq!(dots("solo"), []);
    }

    #[test]
    fn dot_suffixes_keep_two_components() {
        assert_eq!(
            dot_suffixes("a.b.c.d()"),
            vec!["b.c.d()".to_string(), "c.d()".to_string()]
        );
        assert!(dot_suffixes("a.b()").is_empty());
        assert!(dot_suffixes("solo()").is_empty());
    }

    #[test]
    fn interned_suffixes_pin_order_and_dedup() {
        // Order: longest (most specific) suffix first, each keeping ≥ 2
        // components; identical to the string-level dot_suffixes, and
        // interned into the table in that order.
        let mut table = Symbols::new();
        let syms = describe_syms(&parse_expr("a.b.c.d()").unwrap(), &ReprCtx::new(), &mut table);
        let texts: Vec<&str> = syms.iter().map(|&s| table.resolve(s)).collect();
        assert_eq!(texts, ["a.b.c.d()", "b.c.d()", "c.d()"], "most → least specific");
        assert_eq!(syms, [Symbol(0), Symbol(1), Symbol(2)]);
        // Short reps have no suffixes.
        let short = describe_syms(&parse_expr("a.b()").unwrap(), &ReprCtx::new(), &mut table);
        assert_eq!(short, [Symbol(3)]);
        // Suffixes dedup against the variant list: the variants of
        // `request.args.get()` under `from flask import request` already
        // end with the suffix chain, and no symbol repeats.
        let ctx = ctx_with_imports(&[("request", &["flask", "request"])]);
        let syms = describe_syms(&parse_expr("request.args.get('n')").unwrap(), &ctx, &mut table);
        let mut seen = std::collections::HashSet::new();
        for &s in &syms {
            assert!(seen.insert(s), "duplicate symbol {s:?} in {syms:?}");
        }
        assert_eq!(table.resolve(syms[0]), "flask.request.args.get()");
        assert_eq!(table.resolve(*syms.last().unwrap()), "args.get()");
    }

    #[test]
    fn reps_are_deduped_and_capped() {
        let ctx = ctx_with_imports(&[("deep", &["a", "b", "c", "d", "e", "f", "g"])]);
        let reps = describe("deep.h.i.j()", &ctx);
        assert!(reps.len() <= MAX_REPS);
        let mut sorted = reps.clone();
        sorted.dedup();
        assert_eq!(sorted.len(), reps.len());
    }

    /// Every expression of `e`, `e` first.
    fn sub_exprs<'e>(e: &'e Expr<'e>, out: &mut Vec<&'e Expr<'e>>) {
        out.push(e);
        let mut go = |x: &'e Expr<'e>| sub_exprs(x, out);
        match &e.kind {
            ExprKind::Attribute { value: x, .. }
            | ExprKind::Await(x)
            | ExprKind::Starred(x)
            | ExprKind::UnaryOp { operand: x, .. }
            | ExprKind::Lambda { body: x, .. } => go(x),
            ExprKind::Subscript { value: a, index: b }
            | ExprKind::BinOp { left: a, right: b, .. }
            | ExprKind::NamedExpr { target: a, value: b } => {
                go(a);
                go(b);
            }
            ExprKind::Call { func, args, keywords } => {
                go(func);
                args.iter().chain(keywords.iter().map(|k| &k.value)).for_each(go);
            }
            ExprKind::FString { parts: xs, .. }
            | ExprKind::BoolOp { values: xs, .. }
            | ExprKind::Tuple(xs)
            | ExprKind::List(xs)
            | ExprKind::Set(xs) => xs.iter().for_each(go),
            ExprKind::Compare { left, comparators, .. } => {
                go(left);
                comparators.iter().for_each(go);
            }
            ExprKind::IfExp { test, body, orelse } => {
                [test, body, orelse].into_iter().for_each(|x| go(x))
            }
            ExprKind::Slice { lower, upper, step } => {
                [lower, upper, step].into_iter().flatten().for_each(|x| go(x))
            }
            ExprKind::Dict { keys, values } => keys.iter().flatten().chain(values).for_each(go),
            ExprKind::Comp { element, value, generators, .. } => {
                go(element);
                value.iter().for_each(|x| go(x));
                for g in generators {
                    go(&g.target);
                    go(&g.iter);
                    g.ifs.iter().for_each(&mut go);
                }
            }
            ExprKind::Yield { value, .. } => value.iter().for_each(|x| go(x)),
            _ => {}
        }
    }

    /// Every expression of `body`, and one context per function (its
    /// name, parameters and class) with the locals its assignments bind.
    fn walk_body<'m>(
        body: &'m [Stmt<'m>],
        ctx: &ReprCtx<'m>,
        exprs: &mut Vec<&'m Expr<'m>>,
        ctxs: &mut Vec<ReprCtx<'m>>,
    ) {
        let mut ctx = ctx.clone();
        for stmt in body {
            let mut own: Vec<&'m Expr<'m>> = Vec::new();
            match &stmt.kind {
                StmtKind::FunctionDef(def) => {
                    own.extend(&def.decorators);
                    own.extend(def.params.iter().filter_map(|p| p.default.as_ref()));
                    let mut inner = ctx.clone();
                    inner.func_name = Some(def.name);
                    inner.params = def.params.iter().map(|p| p.name).collect();
                    walk_body(&def.body, &inner, exprs, ctxs);
                    ctxs.push(inner);
                }
                StmtKind::ClassDef(def) => {
                    own.extend(def.decorators.iter().chain(&def.bases));
                    let mut inner = ctx.clone();
                    inner.class_name = Some(def.name);
                    inner.base_class = def.bases.first().map(|b| format!("base.{}", b.span.line));
                    walk_body(&def.body, &inner, exprs, ctxs);
                }
                StmtKind::Assign { target, chained, value } => {
                    own.extend([target].into_iter().chain(chained).chain([value]));
                    for t in std::iter::once(target).chain(chained) {
                        if let ExprKind::Name(n) = &t.kind {
                            ctx.locals.insert(n, describe_variants(value, &ctx));
                        }
                    }
                }
                StmtKind::Return(e) => own.extend(e),
                StmtKind::Delete(es) => own.extend(es),
                StmtKind::Expr(e) => own.push(e),
                StmtKind::AugAssign { target, value, .. } => own.extend([target, value]),
                StmtKind::AnnAssign { target, annotation, value } => {
                    own.extend([target, annotation].into_iter().chain(value))
                }
                StmtKind::Raise { exc, cause } => own.extend(exc.iter().chain(cause)),
                StmtKind::Assert { test, msg } => own.extend([test].into_iter().chain(msg)),
                StmtKind::For { target, iter, body, orelse } => {
                    own.extend([target, iter]);
                    walk_body(body, &ctx, exprs, ctxs);
                    walk_body(orelse, &ctx, exprs, ctxs);
                }
                StmtKind::While { test, body, orelse } | StmtKind::If { test, body, orelse } => {
                    own.push(test);
                    walk_body(body, &ctx, exprs, ctxs);
                    walk_body(orelse, &ctx, exprs, ctxs);
                }
                StmtKind::With { items, body } => {
                    own.extend(
                        items.iter().flat_map(|i| [&i.context].into_iter().chain(&i.target)),
                    );
                    walk_body(body, &ctx, exprs, ctxs);
                }
                StmtKind::Try { body, handlers, orelse, finalbody } => {
                    for b in [body, orelse, finalbody]
                        .into_iter()
                        .chain(handlers.iter().map(|h| &h.body))
                    {
                        walk_body(b, &ctx, exprs, ctxs);
                    }
                }
                _ => {}
            }
            own.into_iter().for_each(|e| sub_exprs(e, exprs));
        }
        ctxs.push(ctx);
    }

    #[test]
    fn string_and_symbol_finishing_agree() {
        // Hand-picked variant lists, bound as a local's variants: dedup,
        // dot-suffix backoff, anchored variants that never back off.
        let cases: [&[&str]; 4] = [
            &["flask.request.args.get()", "request.args.get()"],
            &["a.b.c.d()", "a.b.c.d()", "c.d()"],
            &["f(param x).g()", "x.g()"],
            &["C::m(param self).h()", "self.h()"],
        ];
        for variants in cases {
            let mut ctx = ReprCtx::new();
            let variants = ctx.variants.borrow_mut().push(variants.iter().copied());
            ctx.locals.insert("v", variants);
            let chain = |suffix: &mut String| {
                suffix.push_str(".k()");
                Some("v")
            };
            let mut table = Symbols::new();
            let syms = ctx.rep_syms(chain, &mut table);
            let syms: Vec<&str> = syms.iter().map(|&s| table.resolve(s)).collect();
            assert_eq!(arena_texts(&ctx, ctx.push_variants(chain)), syms);
        }
        // Every expression of every Python snippet the IR goldens pin,
        // under the file's imports and under every function's context.
        let golden = include_str!("../../../tests/golden_frontend.rs");
        let mut snippets: Vec<&str> =
            golden.split("r#\"").skip(1).map(|s| &s[..s.find("\"#").unwrap()]).collect();
        snippets.push(include_str!("../../../tests/fixtures/py_inlining_guards.py"));
        snippets.push(include_str!("../../../tests/fixtures/py_locals_template_context.py"));
        assert!(snippets.len() >= 10, "found {} snippets", snippets.len());
        let (mut compared, mut table) = (0, Symbols::new());
        for src in snippets {
            let module = seldon_pyast::parse(src).expect("golden snippets parse");
            let mut imports = ImportMap::new();
            crate::lower::collect_imports(&module.body, &mut imports);
            let top = ReprCtx { imports: Rc::new(imports), ..ReprCtx::new() };
            let (mut exprs, mut ctxs) = (Vec::new(), Vec::new());
            walk_body(&module.body, &top, &mut exprs, &mut ctxs);
            for ctx in &ctxs {
                for e in &exprs {
                    let syms = describe_syms(e, ctx, &mut table);
                    let syms: Vec<&str> = syms.iter().map(|&s| table.resolve(s)).collect();
                    assert_eq!(arena_texts(ctx, describe_variants(e, ctx)), syms, "{e:?}");
                    compared += usize::from(!syms.is_empty());
                }
            }
        }
        assert!(compared > 500, "only {compared} describable expressions");
    }

    #[test]
    fn chains_deeper_than_the_limit_have_no_reps() {
        let at_limit = format!("a{}", ".b".repeat(MAX_CHAIN_DEPTH));
        assert!(!describe(&at_limit, &ReprCtx::new()).is_empty());
        let too_deep = format!("a{}", ".b".repeat(MAX_CHAIN_DEPTH + 1));
        assert!(describe(&too_deep, &ReprCtx::new()).is_empty());
    }

    #[test]
    fn starred_and_walrus_unwrap() {
        let ctx = ctx_with_imports(&[("request", &["flask", "request"])]);
        let reps = describe("(n := request.args)", &ctx);
        assert_eq!(reps[0], "flask.request.args");
    }
}
