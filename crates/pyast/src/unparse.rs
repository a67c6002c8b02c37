//! AST → Python source text (an "unparser").
//!
//! Produces canonical source for any AST this crate can represent. The
//! round-trip property `parse(unparse(parse(src))) == parse(src)` (modulo
//! spans) is enforced by property tests and makes the printer a strong
//! cross-check of the parser. Parentheses follow the parser's operator
//! table in `crate::ops`.

use crate::ast::*;
use crate::ops::{self, Fixity, Operator, Prec};

/// Renders a module as Python source.
pub fn unparse(module: &Module) -> String {
    let mut p = Printer::new();
    for stmt in &module.body {
        p.stmt(stmt);
    }
    p.out
}

/// Renders a single expression.
pub fn unparse_expr(expr: &Expr) -> String {
    Printer::new().render(expr, Prec::Test)
}

struct Printer {
    out: String,
    indent: usize,
}

impl Printer {
    fn new() -> Self {
        Printer { out: String::new(), indent: 0 }
    }

    fn line(&mut self, text: &str) {
        for _ in 0..self.indent {
            self.out.push_str("    ");
        }
        self.out.push_str(text);
        self.out.push('\n');
    }

    fn suite(&mut self, body: &[Stmt]) {
        self.indent += 1;
        if body.is_empty() {
            self.line("pass");
        } else {
            for s in body {
                self.stmt(s);
            }
        }
        self.indent -= 1;
    }

    /// An `else:` or `finally:` clause, printed only when it has a body.
    fn clause(&mut self, keyword: &str, body: &[Stmt]) {
        if !body.is_empty() {
            self.line(&format!("{keyword}:"));
            self.suite(body);
        }
    }

    fn stmt(&mut self, stmt: &Stmt) {
        match &stmt.kind {
            StmtKind::Import(aliases) => self.line(&format!("import {}", alias_list(aliases))),
            StmtKind::ImportFrom { module, names, level } => {
                let dots = ".".repeat(*level as usize);
                let list = alias_list(names);
                self.line(&format!("from {dots}{} import {list}", module.join(".")));
            }
            StmtKind::FunctionDef(def) => self.function_def(def),
            StmtKind::ClassDef(def) => self.class_def(def),
            StmtKind::Return(value) => match value {
                Some(e) => {
                    let e = self.render(e, Prec::Test);
                    self.line(&format!("return {e}"));
                }
                None => self.line("return"),
            },
            StmtKind::Delete(targets) => {
                let list = self.join(targets, Prec::Test, ", ");
                self.line(&format!("del {list}"));
            }
            StmtKind::Assign { targets, value } => {
                let lhs = self.join(targets, Prec::Test, " = ");
                let rhs = self.render(value, Prec::Test);
                self.line(&format!("{lhs} = {rhs}"));
            }
            StmtKind::AugAssign { target, op, value } => {
                let t = self.render(target, Prec::Postfix);
                let v = self.render(value, Prec::Test);
                self.line(&format!("{t} {op}= {v}"));
            }
            StmtKind::AnnAssign { target, annotation, value } => {
                let t = self.render(target, Prec::Postfix);
                let a = self.render(annotation, Prec::Test);
                match value {
                    Some(v) => {
                        let v = self.render(v, Prec::Test);
                        self.line(&format!("{t}: {a} = {v}"));
                    }
                    None => self.line(&format!("{t}: {a}")),
                }
            }
            StmtKind::For { target, iter, body, orelse } => {
                let t = self.render(target, Prec::Test);
                let i = self.render(iter, Prec::Test);
                self.line(&format!("for {t} in {i}:"));
                self.suite(body);
                self.clause("else", orelse);
            }
            StmtKind::While { test, body, orelse } => {
                let t = self.render(test, Prec::Test);
                self.line(&format!("while {t}:"));
                self.suite(body);
                self.clause("else", orelse);
            }
            StmtKind::If { test, body, orelse } => {
                let t = self.render(test, Prec::Test);
                self.line(&format!("if {t}:"));
                self.suite(body);
                self.clause("else", orelse);
            }
            StmtKind::With { items, body } => {
                let list = items
                    .iter()
                    .map(|i| {
                        let c = self.render(&i.context, Prec::Test);
                        match &i.target {
                            Some(t) => {
                                let t = self.render(t, Prec::Postfix);
                                format!("{c} as {t}")
                            }
                            None => c,
                        }
                    })
                    .collect::<Vec<_>>()
                    .join(", ");
                self.line(&format!("with {list}:"));
                self.suite(body);
            }
            StmtKind::Raise { exc, cause } => match (exc, cause) {
                (None, _) => self.line("raise"),
                (Some(e), None) => {
                    let e = self.render(e, Prec::Test);
                    self.line(&format!("raise {e}"));
                }
                (Some(e), Some(c)) => {
                    let e = self.render(e, Prec::Test);
                    let c = self.render(c, Prec::Test);
                    self.line(&format!("raise {e} from {c}"));
                }
            },
            StmtKind::Try { body, handlers, orelse, finalbody } => {
                self.line("try:");
                self.suite(body);
                for h in handlers {
                    match (&h.typ, &h.name) {
                        (None, _) => self.line("except:"),
                        (Some(t), None) => {
                            let t = self.render(t, Prec::Test);
                            self.line(&format!("except {t}:"));
                        }
                        (Some(t), Some(n)) => {
                            let t = self.render(t, Prec::Test);
                            self.line(&format!("except {t} as {n}:"));
                        }
                    }
                    self.suite(&h.body);
                }
                self.clause("else", orelse);
                self.clause("finally", finalbody);
            }
            StmtKind::Assert { test, msg } => {
                let t = self.render(test, Prec::Test);
                match msg {
                    Some(m) => {
                        let m = self.render(m, Prec::Test);
                        self.line(&format!("assert {t}, {m}"));
                    }
                    None => self.line(&format!("assert {t}")),
                }
            }
            StmtKind::Global(names) => self.line(&format!("global {}", names.join(", "))),
            StmtKind::Nonlocal(names) => self.line(&format!("nonlocal {}", names.join(", "))),
            StmtKind::Expr(e) => {
                let e = self.render(e, Prec::Test);
                self.line(&e);
            }
            StmtKind::Pass => self.line("pass"),
            StmtKind::Break => self.line("break"),
            StmtKind::Continue => self.line("continue"),
        }
    }

    fn function_def(&mut self, def: &FunctionDef) {
        for d in &def.decorators {
            let d = self.render(d, Prec::Test);
            self.line(&format!("@{d}"));
        }
        let params = self.param_list(&def.params);
        let arrow = match &def.returns {
            Some(r) => format!(" -> {}", self.render(r, Prec::Test)),
            None => String::new(),
        };
        let prefix = if def.is_async { "async def" } else { "def" };
        self.line(&format!("{prefix} {}({params}){arrow}:", def.name));
        self.suite(&def.body);
    }

    fn class_def(&mut self, def: &ClassDef) {
        for d in &def.decorators {
            let d = self.render(d, Prec::Test);
            self.line(&format!("@{d}"));
        }
        let headers = self.call_args(&def.bases, &def.keywords);
        if headers.is_empty() {
            self.line(&format!("class {}:", def.name));
        } else {
            self.line(&format!("class {}({headers}):", def.name));
        }
        self.suite(&def.body);
    }

    fn param_list(&mut self, params: &[Param]) -> String {
        params
            .iter()
            .map(|p| {
                let mut s = match p.kind {
                    ParamKind::VarArgs => format!("*{}", p.name),
                    ParamKind::KwArgs => format!("**{}", p.name),
                    ParamKind::KwOnlyMarker => return "*".to_string(),
                    ParamKind::Plain => p.name.clone(),
                };
                if let Some(a) = &p.annotation {
                    s.push_str(": ");
                    s.push_str(&self.render(a, Prec::Test));
                }
                if let Some(d) = &p.default {
                    s.push('=');
                    s.push_str(&self.render(d, Prec::Test));
                }
                s
            })
            .collect::<Vec<_>>()
            .join(", ")
    }

    /// A call's or a class header's arguments: positional, then `name=value`
    /// and `**mapping` keywords.
    fn call_args(&mut self, args: &[Expr], keywords: &[Keyword]) -> String {
        let mut parts: Vec<String> = args.iter().map(|a| self.render(a, Prec::Test)).collect();
        for k in keywords {
            let v = self.render(&k.value, Prec::Test);
            match &k.name {
                Some(n) => parts.push(format!("{n}={v}")),
                None => parts.push(format!("**{v}")),
            }
        }
        parts.join(", ")
    }

    /// Renders each of `exprs` at `min_prec`, joined by `sep`.
    fn join(&mut self, exprs: &[Expr], min_prec: Prec, sep: &str) -> String {
        exprs.iter().map(|e| self.render(e, min_prec)).collect::<Vec<_>>().join(sep)
    }

    /// Renders `e`, parenthesizing when its precedence is below `min_prec`.
    fn render(&mut self, e: &Expr, min_prec: Prec) -> String {
        let (text, prec) = self.render_raw(e);
        if prec < min_prec {
            format!("({text})")
        } else {
            text
        }
    }

    fn render_raw(&mut self, e: &Expr) -> (String, Prec) {
        match &e.kind {
            ExprKind::Name(n) => (n.clone(), Prec::Postfix),
            ExprKind::Number(n) => (n.clone(), Prec::Postfix),
            ExprKind::Str(s) => (format!("'{}'", escape_str(s)), Prec::Postfix),
            ExprKind::FString { text, .. } => (format!("f'{}'", escape_str(text)), Prec::Postfix),
            ExprKind::Bytes(s) => (format!("b'{}'", escape_str(s)), Prec::Postfix),
            ExprKind::Bool(true) => ("True".into(), Prec::Postfix),
            ExprKind::Bool(false) => ("False".into(), Prec::Postfix),
            ExprKind::NoneLit => ("None".into(), Prec::Postfix),
            ExprKind::EllipsisLit => ("...".into(), Prec::Postfix),
            ExprKind::Attribute { value, attr } => {
                let v = self.render(value, Prec::Postfix);
                (format!("{v}.{attr}"), Prec::Postfix)
            }
            ExprKind::Subscript { value, index } => {
                let v = self.render(value, Prec::Postfix);
                let i = self.render(index, Prec::Test);
                (format!("{v}[{i}]"), Prec::Postfix)
            }
            ExprKind::Slice { lower, upper, step } => {
                let part = |p: &Option<Box<Expr>>, this: &mut Self| match p {
                    Some(e) => this.render(e, Prec::Test),
                    None => String::new(),
                };
                let lo = part(lower, self);
                let hi = part(upper, self);
                let text = match step {
                    Some(s) => {
                        let s = self.render(s, Prec::Test);
                        format!("{lo}:{hi}:{s}")
                    }
                    None => format!("{lo}:{hi}"),
                };
                (text, Prec::Test)
            }
            ExprKind::Call { func, args, keywords } => {
                let f = self.render(func, Prec::Postfix);
                (format!("{f}({})", self.call_args(args, keywords)), Prec::Postfix)
            }
            ExprKind::BinOp { left, op, right } => {
                let row = operator(op, false);
                let (lmin, rmin) = row.operands();
                let l = self.render(left, lmin);
                let r = self.render(right, rmin);
                (format!("{l} {op} {r}"), row.prec)
            }
            ExprKind::UnaryOp { op, operand } => {
                let row = operator(op, true);
                let v = self.render(operand, row.operands().1);
                let space = if op == "not" { " " } else { "" };
                (format!("{op}{space}{v}"), row.prec)
            }
            ExprKind::BoolOp { op, values } => {
                let row = operator(op, false);
                (self.join(values, row.operands().1, &format!(" {op} ")), row.prec)
            }
            ExprKind::Compare { left, ops, comparators } => {
                let min = Prec::Cmp.tighter();
                let mut s = self.render(left, min);
                for (op, c) in ops.iter().zip(comparators) {
                    let c = self.render(c, min);
                    s.push_str(&format!(" {op} {c}"));
                }
                (s, Prec::Cmp)
            }
            ExprKind::IfExp { test, body, orelse } => {
                let b = self.render(body, Prec::Or);
                let t = self.render(test, Prec::Or);
                let o = self.render(orelse, Prec::Test);
                (format!("{b} if {t} else {o}"), Prec::Test)
            }
            ExprKind::Lambda { params, body } => {
                let p = self.param_list(params);
                let b = self.render(body, Prec::Test);
                let text = if p.is_empty() {
                    format!("lambda: {b}")
                } else {
                    format!("lambda {p}: {b}")
                };
                (text, Prec::Test)
            }
            ExprKind::Tuple(elems) => {
                let comma = if elems.len() == 1 { "," } else { "" };
                (format!("({}{comma})", self.join(elems, Prec::Test, ", ")), Prec::Postfix)
            }
            ExprKind::List(elems) => {
                (format!("[{}]", self.join(elems, Prec::Test, ", ")), Prec::Postfix)
            }
            ExprKind::Set(elems) => {
                (format!("{{{}}}", self.join(elems, Prec::Test, ", ")), Prec::Postfix)
            }
            ExprKind::Dict { keys, values } => {
                let parts: Vec<String> = keys
                    .iter()
                    .zip(values)
                    .map(|(k, v)| {
                        let v = self.render(v, Prec::Test);
                        match k {
                            Some(k) => {
                                let k = self.render(k, Prec::Test);
                                format!("{k}: {v}")
                            }
                            None => format!("**{v}"),
                        }
                    })
                    .collect();
                (format!("{{{}}}", parts.join(", ")), Prec::Postfix)
            }
            ExprKind::Comp { kind, element, value, generators } => {
                let elem = self.render(element, Prec::Test);
                let mut clauses = String::new();
                for g in generators {
                    let t = self.render(&g.target, Prec::Test);
                    let i = self.render(&g.iter, Prec::Or);
                    clauses.push_str(&format!(" for {t} in {i}"));
                    for cond in &g.ifs {
                        let c = self.render(cond, Prec::Or);
                        clauses.push_str(&format!(" if {c}"));
                    }
                }
                let text = match kind {
                    CompKind::List => format!("[{elem}{clauses}]"),
                    CompKind::Set => format!("{{{elem}{clauses}}}"),
                    CompKind::Dict => {
                        let v = value
                            .as_ref()
                            .map(|v| self.render(v, Prec::Test))
                            .unwrap_or_default();
                        format!("{{{elem}: {v}{clauses}}}")
                    }
                    CompKind::Generator => format!("({elem}{clauses})"),
                };
                (text, Prec::Postfix)
            }
            ExprKind::Yield { value, is_from } => {
                let text = match (value, is_from) {
                    (Some(v), true) => {
                        let v = self.render(v, Prec::Test);
                        format!("yield from {v}")
                    }
                    (Some(v), false) => {
                        let v = self.render(v, Prec::Test);
                        format!("yield {v}")
                    }
                    (None, _) => "yield".to_string(),
                };
                (format!("({text})"), Prec::Postfix)
            }
            ExprKind::Await(inner) => {
                let v = self.render(inner, ops::AWAIT.operands().1);
                (format!("await {v}"), ops::AWAIT.prec)
            }
            ExprKind::Starred(inner) => {
                let v = self.render(inner, Prec::Unary);
                (format!("*{v}"), Prec::Test)
            }
            ExprKind::NamedExpr { target, value } => {
                let t = self.render(target, Prec::Postfix);
                let v = self.render(value, Prec::Test);
                (format!("({t} := {v})"), Prec::Postfix)
            }
        }
    }
}

fn alias_list(aliases: &[ImportAlias]) -> String {
    let alias = |a: &ImportAlias| match &a.asname {
        Some(n) => format!("{} as {n}", a.name.join(".")),
        None => a.name.join("."),
    };
    aliases.iter().map(alias).collect::<Vec<_>>().join(", ")
}

/// The table row of an operator the parser produced: a prefix operator if
/// `prefix`, else an infix one.
fn operator(text: &str, prefix: bool) -> &'static Operator {
    let is = |op: &&Operator| op.text == text && (op.fixity == Fixity::Prefix) == prefix;
    ops::OPERATORS.iter().find(is).unwrap_or_else(|| panic!("`{text}` is not an operator"))
}

/// Escapes a string or f-string body for single-quoted output. The lexer
/// keeps escape sequences verbatim, so only bare single quotes and newlines
/// need care; f-string braces stay as they are.
fn escape_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '\\' => {
                out.push('\\');
                if let Some(&n) = chars.peek() {
                    out.push(n);
                    chars.next();
                }
            }
            '\'' => out.push_str("\\'"),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    /// Strips spans for comparison.
    fn round_trip(src: &str) {
        let m1 = parse(src).unwrap_or_else(|e| panic!("first parse of {src:?}: {e}"));
        let printed = unparse(&m1);
        let m2 = parse(&printed)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\n--- printed ---\n{printed}"));
        let p2 = unparse(&m2);
        assert_eq!(printed, p2, "unparse not a fixpoint for {src:?}");
    }

    #[test]
    fn round_trip_statements() {
        for src in [
            "x = 1\n",
            "a = b = c\n",
            "x += 2\n",
            "x: int = 3\n",
            "import os.path as p, sys\n",
            "from flask import request, session as s\n",
            "from ..pkg import thing\n",
            "del xs[0], y\n",
            "global a, b\n",
            "assert x, 'msg'\n",
            "raise ValueError('x') from err\n",
            "pass\n",
        ] {
            round_trip(src);
        }
    }

    #[test]
    fn round_trip_compound() {
        round_trip("if a:\n    x = 1\nelif b:\n    y = 2\nelse:\n    z = 3\n");
        round_trip("for i, v in enumerate(xs):\n    print(v)\nelse:\n    done()\n");
        round_trip("while cond():\n    step()\n");
        round_trip("with open(p) as f, lock:\n    f.read()\n");
        round_trip(
            "try:\n    go()\nexcept ValueError as e:\n    handle(e)\nexcept:\n    pass\nfinally:\n    cleanup()\n",
        );
    }

    #[test]
    fn round_trip_functions_and_classes() {
        round_trip("def f(a, b=1, *args, **kwargs):\n    return a + b\n");
        round_trip("def g(x: int, *, y=2) -> int:\n    return x\n");
        round_trip("@app.route('/x', methods=['POST'])\ndef h():\n    pass\n");
        round_trip("class C(Base, metaclass=M):\n    x = 1\n    def m(self):\n        return self.x\n");
        round_trip("async def i():\n    await j()\n");
    }

    #[test]
    fn round_trip_expressions() {
        for src in [
            "y = 1 + 2 * 3 - 4 / 5\n",
            "y = 2 ** 3 ** 4\n",
            "y = (1 + 2) * 3\n",
            "y = a < b <= c != d\n",
            "y = a and b or not c\n",
            "y = x if c else z\n",
            "y = lambda a, b=2: a + b\n",
            "y = [1, 2, 3]\n",
            "y = {1, 2}\n",
            "y = {'a': 1, **rest}\n",
            "y = (1,)\n",
            "y = ()\n",
            "y = xs[1:2]\n",
            "y = xs[::2]\n",
            "y = m[a, b]\n",
            "y = f(a, b=1, *rest, **kw)\n",
            "y = [x for x in xs if x]\n",
            "y = {k: v for k, v in items}\n",
            "y = (x * x for x in xs)\n",
            "y = a.b.c().d['k']\n",
            "y = -x + ~z\n",
            "y = x is not None\n",
            "y = x not in ys\n",
            "y = *a, *b\n",
            "x = await (-y)\n",
            "x = await (a ** b)\n",
        ] {
            round_trip(src);
        }
    }

    #[test]
    fn round_trip_strings() {
        round_trip("s = 'hello'\n");
        round_trip("s = 'it\\'s'\n");
        round_trip("s = b'bytes'\n");
        round_trip("s = f'<div>{msg}</div>'\n");
        round_trip("s = 'line\\nbreak'\n");
    }

    #[test]
    fn round_trip_paper_example() {
        round_trip(
            r#"
from yak.web import app
from flask import request
from werkzeug import secure_filename
import os

blog_dir = app.config['PATH']

@app.route('/media/', methods=['POST'])
def media():
    filename = request.files['f'].filename
    filename = secure_filename(filename)
    path = os.path.join(blog_dir, filename)
    if not os.path.exists(path):
        request.files['f'].save(path)
"#,
        );
    }

    #[test]
    fn unparse_expr_precedence_parens() {
        let e = crate::parser::parse_expr("(a + b) * c").unwrap();
        assert_eq!(unparse_expr(&e), "(a + b) * c");
        let e = crate::parser::parse_expr("a + b * c").unwrap();
        assert_eq!(unparse_expr(&e), "a + b * c");
        let e = crate::parser::parse_expr("-(a + b)").unwrap();
        assert_eq!(unparse_expr(&e), "-(a + b)");
        let e = crate::parser::parse_expr("(await a) ** b").unwrap();
        assert_eq!(unparse_expr(&e), "await a ** b");
        let e = crate::parser::parse_expr("2 ** -1").unwrap();
        assert_eq!(unparse_expr(&e), "2 ** -1");
    }

    #[test]
    fn empty_suites_get_pass() {
        let m = parse("if x:\n    pass\n").unwrap();
        let printed = unparse(&m);
        assert!(printed.contains("pass"));
    }

    #[test]
    fn walrus_and_yield() {
        round_trip("if (n := f()) > 0:\n    pass\n");
        round_trip("def g():\n    yield 1\n    yield from xs\n    x = (yield)\n");
    }
}
