//! The linear constraint system over role variables (§4.1–§4.2).
//!
//! For every surviving representation `n` and candidate role there is a
//! variable `n^role ∈ [0,1]`. Information-flow constraints have the form
//! `Σ lhs ≤ Σ rhs + C`, where each side is a sparse linear combination of
//! variables (backoff averaging introduces fractional coefficients, §4.3).

use seldon_intern::Symbol;
use seldon_propgraph::EventId;
use seldon_specs::Role;
use std::collections::{HashMap, HashSet};

/// Identifier of an interned representation string.
///
/// Since the pipeline-wide interning refactor this *is* the global
/// [`Symbol`]: representations arrive from the propagation graph already
/// interned, and the constraint system only tracks which symbols are
/// members (survived backoff selection). Identity checks and variable
/// keys are integer operations end to end.
pub type RepId = Symbol;

/// Identifier of a variable `(representation, role)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub u32);

impl VarId {
    /// The index form of the id.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One `coeff · var` term.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Term {
    /// The variable.
    pub var: VarId,
    /// Its coefficient (1/|Reps(v)| for backoff averages).
    pub coeff: f64,
}

/// Which Fig. 4 template produced a constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Template {
    /// Fig. 4a: sanitizer + sink ⇒ some source flows in.
    A,
    /// Fig. 4b: source + sanitizer ⇒ some sink flows out.
    B,
    /// Fig. 4c: source + sink ⇒ some sanitizer between.
    #[default]
    C,
}

/// A relaxed information-flow constraint `Σ lhs ≤ Σ rhs + C`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FlowConstraint {
    /// Left-hand side terms.
    pub lhs: Vec<Term>,
    /// Right-hand side terms (the constant `C` is stored system-wide).
    pub rhs: Vec<Term>,
    /// The template this constraint instantiates.
    pub template: Template,
}

/// The full constraint system.
#[derive(Debug, Clone, Default)]
pub struct ConstraintSystem {
    /// Member representations in first-seen order (drives deterministic
    /// seed-pinning iteration).
    reps: Vec<Symbol>,
    /// Membership set over `reps`.
    rep_set: HashSet<Symbol>,
    /// `(rep, role)` per variable.
    vars: Vec<(RepId, Role)>,
    var_ids: HashMap<(RepId, Role), VarId>,
    /// Flow constraints.
    pub constraints: Vec<FlowConstraint>,
    /// Variables pinned by the seed specification (§4.1).
    known: HashMap<VarId, f64>,
    /// The implication-strength constant `C` (0.75 in the paper).
    pub c: f64,
    /// Per-event surviving representation lists, most → least specific,
    /// for candidate events (used for spec extraction, §7.1).
    pub event_reps: Vec<(EventId, Vec<RepId>)>,
}

impl ConstraintSystem {
    /// Creates an empty system with implication constant `c`.
    pub fn new(c: f64) -> Self {
        ConstraintSystem { c, ..Default::default() }
    }

    /// Registers an already-interned representation as a member of this
    /// system (idempotent). This is the hot-path entry: representations
    /// coming from the propagation graph are already [`Symbol`]s.
    pub fn add_rep(&mut self, sym: Symbol) -> RepId {
        if self.rep_set.insert(sym) {
            self.reps.push(sym);
        }
        sym
    }

    /// Interns a representation string and registers it as a member.
    pub fn rep(&mut self, text: &str) -> RepId {
        self.add_rep(seldon_intern::intern(text))
    }

    /// Looks up a representation by text without registering it. Returns
    /// `None` for representations that are not members of *this* system,
    /// even if the string is interned globally.
    pub fn rep_id(&self, text: &str) -> Option<RepId> {
        seldon_intern::lookup(text).filter(|s| self.rep_set.contains(s))
    }

    /// The text of a representation.
    pub fn rep_text(&self, id: RepId) -> &str {
        id.as_str()
    }

    /// Member representations in first-seen order.
    pub fn rep_syms(&self) -> &[Symbol] {
        &self.reps
    }

    /// Number of member representations.
    pub fn rep_count(&self) -> usize {
        self.reps.len()
    }

    /// Returns (creating if needed) the variable for `(rep, role)`.
    pub fn var(&mut self, rep: RepId, role: Role) -> VarId {
        if let Some(&v) = self.var_ids.get(&(rep, role)) {
            return v;
        }
        let v = VarId(self.vars.len() as u32);
        self.vars.push((rep, role));
        self.var_ids.insert((rep, role), v);
        v
    }

    /// Looks up the variable for `(rep, role)` without creating it.
    pub fn lookup_var(&self, rep: RepId, role: Role) -> Option<VarId> {
        self.var_ids.get(&(rep, role)).copied()
    }

    /// The `(rep, role)` pair of a variable.
    pub fn var_info(&self, v: VarId) -> (RepId, Role) {
        self.vars[v.index()]
    }

    /// Number of variables.
    pub fn var_count(&self) -> usize {
        self.vars.len()
    }

    /// Number of flow constraints.
    pub fn constraint_count(&self) -> usize {
        self.constraints.len()
    }

    /// Pins a variable to a known value (0 or 1).
    pub fn pin(&mut self, v: VarId, value: f64) {
        self.known.insert(v, value);
    }

    /// The pinned value of `v`, if any.
    pub fn pinned(&self, v: VarId) -> Option<f64> {
        self.known.get(&v).copied()
    }

    /// Iterates pinned `(var, value)` pairs.
    pub fn pinned_vars(&self) -> impl Iterator<Item = (VarId, f64)> + '_ {
        self.known.iter().map(|(k, v)| (*k, *v))
    }

    /// Number of pinned variables.
    pub fn pinned_count(&self) -> usize {
        self.known.len()
    }

    /// Pinned `(var index, value)` pairs sorted by variable index — the
    /// deterministic order kernel compilation needs (the backing map
    /// iterates in arbitrary order).
    pub fn pinned_sorted(&self) -> Vec<(u32, f64)> {
        let mut pins: Vec<(u32, f64)> =
            self.known.iter().map(|(k, v)| (k.0, *v)).collect();
        pins.sort_unstable_by_key(|&(i, _)| i);
        pins
    }

    /// Adds a flow constraint; empty-sided constraints are dropped when both
    /// sides are empty.
    pub fn add_constraint(&mut self, c: FlowConstraint) {
        if c.lhs.is_empty() && c.rhs.is_empty() {
            return;
        }
        self.constraints.push(c);
    }

    /// Counts constraints per Fig. 4 template.
    pub fn template_counts(&self) -> [usize; 3] {
        let mut counts = [0usize; 3];
        for c in &self.constraints {
            let i = match c.template {
                Template::A => 0,
                Template::B => 1,
                Template::C => 2,
            };
            counts[i] += 1;
        }
        counts
    }

    /// Iterates `(VarId, rep text, role)` for all variables.
    pub fn variables(&self) -> impl Iterator<Item = (VarId, &str, Role)> + '_ {
        self.vars
            .iter()
            .enumerate()
            .map(|(i, (rep, role))| (VarId(i as u32), rep.as_str(), *role))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning() {
        let mut s = ConstraintSystem::new(0.75);
        let a = s.rep("a()");
        let a2 = s.rep("a()");
        let b = s.rep("b()");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(s.rep_text(a), "a()");
        assert_eq!(s.rep_count(), 2);
        assert_eq!(s.rep_id("a()"), Some(a));
        assert_eq!(s.rep_id("zzz"), None);
    }

    #[test]
    fn variables_created_per_role() {
        let mut s = ConstraintSystem::new(0.75);
        let a = s.rep("a()");
        let v1 = s.var(a, Role::Source);
        let v2 = s.var(a, Role::Sink);
        let v1b = s.var(a, Role::Source);
        assert_eq!(v1, v1b);
        assert_ne!(v1, v2);
        assert_eq!(s.var_count(), 2);
        assert_eq!(s.var_info(v2), (a, Role::Sink));
        assert_eq!(s.lookup_var(a, Role::Sanitizer), None);
    }

    #[test]
    fn pinning() {
        let mut s = ConstraintSystem::new(0.75);
        let a = s.rep("a()");
        let v = s.var(a, Role::Source);
        s.pin(v, 1.0);
        assert_eq!(s.pinned(v), Some(1.0));
        assert_eq!(s.pinned_count(), 1);
    }

    #[test]
    fn empty_constraints_dropped() {
        let mut s = ConstraintSystem::new(0.75);
        s.add_constraint(FlowConstraint::default());
        assert_eq!(s.constraint_count(), 0);
    }

    #[test]
    fn variables_iteration() {
        let mut s = ConstraintSystem::new(0.75);
        let a = s.rep("a()");
        s.var(a, Role::Source);
        let v: Vec<(VarId, &str, Role)> = s.variables().collect();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].1, "a()");
        assert_eq!(v[0].2, Role::Source);
    }
}
