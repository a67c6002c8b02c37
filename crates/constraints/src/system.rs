//! The linear constraint system over role variables (§4.1–§4.2).
//!
//! For every surviving representation `n` and candidate role there is a
//! variable `n^role ∈ [0,1]`. Information-flow constraints have the form
//! `Σ lhs ≤ Σ rhs + C`, where each side is a sparse linear combination of
//! variables (backoff averaging introduces fractional coefficients, §4.3).
//!
//! The system owns the only stored form of those constraints: signed
//! [`Row`]s (`Σ lhs − Σ rhs`) with duplicate variables merged and terms
//! sorted by variable. Big code repeats the same flow pattern across
//! files, so identical rows are stored once with an integer weight, in
//! first-occurrence order; per-template counts keep the original
//! constraint count. Generation, the solver kernel, the reference
//! solvers, telemetry and `seldon serve` all read these rows.

use seldon_intern::{Symbol, Symbols};
use seldon_propgraph::{EventId, IdHash, IdHasher};
use seldon_specs::Role;
use std::collections::{HashMap, HashSet};
use std::hash::Hasher;
use std::ops::Range;

/// Identifier of a representation: a [`Symbol`] of the system's table, a
/// copy of the graph's it was selected from. The system only tracks which
/// symbols are members (survived backoff selection); identity checks and
/// variable keys are integer operations end to end.
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

/// A relaxed information-flow constraint `Σ lhs ≤ Σ rhs + C`, as two
/// term lists: the input form [`ConstraintSystem::add_constraint`] takes,
/// so tests can build small systems by hand. Generation never builds one.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FlowConstraint {
    /// Left-hand side terms.
    pub lhs: Vec<Term>,
    /// Right-hand side terms (the constant `C` is stored system-wide).
    pub rhs: Vec<Term>,
    /// The template this constraint instantiates.
    pub template: Template,
}

/// One stored flow row: `Σ coeff · x ≤ C` standing for `weight`
/// identical generated constraints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Row<'a> {
    /// How many generated constraints this row stands for (≥ 1).
    pub weight: u32,
    /// `(variable index, coefficient)` terms: lhs terms carry `+coeff`
    /// and rhs terms `−coeff`, duplicate variables are merged, variables
    /// ascend strictly, and a row is never empty.
    pub terms: &'a [(u32, f64)],
}

impl Row<'_> {
    /// `Σ lhs − Σ rhs` under `assignment` (the constraint is violated
    /// by `max(0, gap − C)`).
    pub fn gap(&self, assignment: &[f64]) -> f64 {
        self.terms.iter().map(|&(v, c)| c * assignment[v as usize]).sum()
    }
}

/// The row store: merged signed rows with integer weights, deduplicated on
/// emission and kept in first-occurrence order, plus the per-template
/// constraint counts. Row `r` spans `terms[ends[r - 1]..ends[r]]`.
#[derive(Debug, Clone, Default)]
pub(crate) struct Rows {
    ends: Vec<u32>,
    terms: Vec<(u32, f64)>,
    weights: Vec<u32>,
    by_template: [usize; 3],
    /// Row hash → the latest row with that hash; `chain[r]` links each
    /// row to the previous row with the same hash (`u32::MAX` ends it).
    index: HashMap<u64, u32, IdHash>,
    chain: Vec<u32>,
    /// The row being built.
    scratch: Vec<(u32, f64)>,
}

impl Rows {
    fn len(&self) -> usize {
        self.weights.len()
    }

    fn row(&self, r: usize) -> Row<'_> {
        let start = r.checked_sub(1).map_or(0, |p| self.ends[p] as usize);
        Row { weight: self.weights[r], terms: &self.terms[start..self.ends[r] as usize] }
    }

    /// Emits one constraint `Σ lhs ≤ Σ rhs + C` given as borrowed term
    /// slices. Terms are merged into one scratch row in emission order —
    /// lhs as `+`, then rhs as `−` — so each variable's coefficient is the
    /// left fold of its terms in that order. A constraint with no terms
    /// is dropped uncounted.
    pub(crate) fn emit(&mut self, template: Template, lhs: &[&[Term]], rhs: &[&[Term]]) {
        self.scratch.clear();
        for side in lhs {
            self.scratch.extend(side.iter().map(|t| (t.var.0, t.coeff)));
        }
        for side in rhs {
            self.scratch.extend(side.iter().map(|t| (t.var.0, -t.coeff)));
        }
        if self.scratch.is_empty() {
            return;
        }
        // A stable sort keeps each variable's terms in emission order, so
        // merging adjacent terms folds them left in that order.
        self.scratch.sort_by_key(|&(v, _)| v);
        self.scratch.dedup_by(|next, kept| next.0 == kept.0 && {
            kept.1 += next.1;
            true
        });
        self.by_template[template as usize] += 1;
        self.insert_scratch(1);
    }

    /// Adds every row of `other` with its weight and template counts,
    /// renumbering its variables through `map` (`other`'s variable `i`
    /// becomes `map[i]`; `map` must be injective).
    fn absorb(&mut self, other: &Rows, map: &[VarId]) {
        for r in 0..other.len() {
            let row = other.row(r);
            self.scratch.clear();
            self.scratch.extend(row.terms.iter().map(|&(v, c)| (map[v as usize].0, c)));
            self.scratch.sort_unstable_by_key(|&(v, _)| v);
            self.insert_scratch(row.weight);
        }
        for t in 0..3 {
            self.by_template[t] += other.by_template[t];
        }
    }

    /// Adds `weight` to the stored copy of the scratch row, appending it
    /// as a new row on first occurrence.
    fn insert_scratch(&mut self, weight: u32) {
        let mut hasher = IdHasher::default();
        for &(v, c) in &self.scratch {
            hasher.write_u32(v);
            hasher.write_u64(c.to_bits());
        }
        let hash = hasher.finish();
        let bits = |&(v, c): &(u32, f64)| (v, c.to_bits());
        let mut r = self.index.get(&hash).copied().unwrap_or(u32::MAX);
        while r != u32::MAX {
            if self.row(r as usize).terms.iter().map(bits).eq(self.scratch.iter().map(bits)) {
                self.weights[r as usize] += weight;
                return;
            }
            r = self.chain[r as usize];
        }
        let new = self.len() as u32;
        self.chain.push(self.index.insert(hash, new).unwrap_or(u32::MAX));
        self.weights.push(weight);
        self.terms.extend_from_slice(&self.scratch);
        self.ends.push(self.terms.len() as u32);
    }
}

/// The Fig. 4 rows anchored in one event range — one file of a union, or
/// the whole union — in the row format of [`ConstraintSystem`], kept as
/// two stores: the Fig. 4a/4b rows and the Fig. 4c rows. Variables are
/// numbered locally and keyed by `(representation, role)`, so the rows
/// can be folded into any system whose selection has those keys; serve
/// keeps one per file and reuses it while the file's selection slice is
/// unchanged.
#[derive(Debug, Clone, Default)]
pub struct FileRows {
    /// `(rep, role)` of each local variable.
    pub(crate) keys: Vec<(RepId, Role)>,
    pub(crate) ab: Rows,
    pub(crate) c: Rows,
}

impl FileRows {
    /// The variable of `sys` behind each local variable, or `None` when
    /// `sys` lacks one of the keys.
    fn resolve(&self, sys: &ConstraintSystem) -> Option<Vec<VarId>> {
        self.keys.iter().map(|&(rep, role)| sys.lookup_var(rep, role)).collect()
    }
}

/// The full constraint system.
#[derive(Debug, Clone, Default)]
pub struct ConstraintSystem {
    /// The table every [`RepId`] of the system belongs to.
    pub(crate) symbols: Symbols,
    /// Member representations in first-seen order (drives deterministic
    /// seed-pinning iteration).
    reps: Vec<Symbol>,
    /// Membership set over `reps`.
    rep_set: HashSet<Symbol>,
    /// `(rep, role)` per variable.
    vars: Vec<(RepId, Role)>,
    var_ids: HashMap<(RepId, Role), VarId, IdHash>,
    /// The flow rows.
    rows: Rows,
    /// Variables pinned by the seed specification (§4.1).
    known: HashMap<VarId, f64>,
    /// The implication-strength constant `C` (0.75 in the paper).
    pub c: f64,
    /// Surviving representations per event, indexed by event id. Fig. 4
    /// collection and spec extraction (§7.1) read them.
    pub event_reps: EventReps,
}

/// Surviving representations per event (§4.3), most → least specific, in
/// one arena: event `i`'s are `reps[starts[i]..starts[i + 1]]`, none for
/// an event that is not a candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct EventReps {
    starts: Vec<u32>,
    reps: Vec<RepId>,
}

impl Default for EventReps {
    fn default() -> Self {
        EventReps::with_capacity(0, 0)
    }
}

impl EventReps {
    /// No events yet, with room for `events` events holding `reps`
    /// representations in all.
    pub fn with_capacity(events: usize, reps: usize) -> Self {
        let mut starts = Vec::with_capacity(events + 1);
        starts.push(0);
        EventReps { starts, reps: Vec::with_capacity(reps) }
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.starts.len() - 1
    }

    /// Whether there are no events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The surviving representations of event `i`; `None` when it is not
    /// a candidate.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn get(&self, i: usize) -> Option<&[RepId]> {
        let reps = &self.reps[self.starts[i] as usize..self.starts[i + 1] as usize];
        (!reps.is_empty()).then_some(reps)
    }

    /// Adds `rep` to the event being built, unless it already holds it.
    pub fn push_rep(&mut self, rep: RepId) {
        let open = self.starts[self.len()] as usize;
        if !self.reps[open..].contains(&rep) {
            self.reps.push(rep);
        }
    }

    /// Ends the event being built: it holds the representations pushed
    /// since the previous end, in push order.
    pub fn end_event(&mut self) {
        self.starts.push(self.reps.len() as u32);
    }

    /// The selections of every event.
    pub fn as_slice(&self) -> RepsSlice<'_> {
        self.slice(0..self.len())
    }

    /// The selections of the events in `range`.
    pub fn slice(&self, range: Range<usize>) -> RepsSlice<'_> {
        let starts = &self.starts[range.start..=range.end];
        let reps = &self.reps[starts[0] as usize..starts[starts.len() - 1] as usize];
        RepsSlice { starts, reps }
    }
}

/// The selections of a run of events, cut by [`EventReps::slice`]. Two
/// slices are equal when each event in turn has the same surviving
/// representations, wherever the runs sit in their systems.
#[derive(Debug, Clone, Copy)]
pub struct RepsSlice<'a> {
    /// One offset per event and the run's end, into the parent arena.
    starts: &'a [u32],
    reps: &'a [RepId],
}

impl RepsSlice<'_> {
    /// An owned copy, numbered from event 0.
    pub fn to_event_reps(&self) -> EventReps {
        let base = self.starts[0];
        EventReps {
            starts: self.starts.iter().map(|s| s - base).collect(),
            reps: self.reps.to_vec(),
        }
    }
}

impl PartialEq for RepsSlice<'_> {
    fn eq(&self, other: &RepsSlice<'_>) -> bool {
        let (a, b) = (self.starts[0], other.starts[0]);
        self.reps == other.reps
            && self.starts.iter().map(|&s| s - a).eq(other.starts.iter().map(|&s| s - b))
    }
}

impl ConstraintSystem {
    /// Creates an empty system with implication constant `c`.
    pub fn new(c: f64) -> Self {
        ConstraintSystem { c, ..Default::default() }
    }

    /// Registers a representation of the system's table as a member
    /// (idempotent). This is the hot-path entry: representations coming
    /// from the propagation graph are already [`Symbol`]s.
    pub fn add_rep(&mut self, sym: Symbol) -> RepId {
        if self.rep_set.insert(sym) {
            self.reps.push(sym);
        }
        sym
    }

    /// Interns a representation string and registers it as a member.
    pub fn rep(&mut self, text: &str) -> RepId {
        let sym = self.symbols.intern(text);
        self.add_rep(sym)
    }

    /// Looks up a representation by text without registering it. Returns
    /// `None` for representations that are not members, even if the
    /// system's table holds the text.
    pub fn rep_id(&self, text: &str) -> Option<RepId> {
        self.symbols.get(text).filter(|s| self.rep_set.contains(s))
    }

    /// The text of a representation.
    pub fn rep_text(&self, rep: RepId) -> &str {
        self.symbols.resolve(rep)
    }

    /// Member representations in first-seen order.
    pub fn rep_syms(&self) -> &[Symbol] {
        &self.reps
    }

    /// The candidate events and their surviving representations, in
    /// event order.
    pub fn candidates(&self) -> impl Iterator<Item = (EventId, &[RepId])> + '_ {
        (0..self.event_reps.len())
            .filter_map(|i| Some((EventId(i as u32), self.event_reps.get(i)?)))
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

    /// Number of generated flow constraints, before identical ones were
    /// merged into weighted rows.
    pub fn constraint_count(&self) -> usize {
        self.rows.by_template.iter().sum()
    }

    /// Number of distinct weighted rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// The rows in first-occurrence order.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = Row<'_>> + '_ {
        (0..self.rows.len()).map(|r| self.rows.row(r))
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

    /// Adds one flow constraint as a row; a constraint with no terms is
    /// dropped.
    pub fn add_constraint(&mut self, c: FlowConstraint) {
        self.rows.emit(c.template, &[&c.lhs], &[&c.rhs]);
    }

    /// Folds per-range rows into the system in batch order: every part's
    /// Fig. 4a/4b rows, part by part, then every part's Fig. 4c rows, each
    /// part's variables renumbered to this system's by `(rep, role)`.
    /// Folding one part that covers a whole graph gives exactly the rows
    /// of [`crate::generate`]; so does folding its files' parts in file
    /// order.
    ///
    /// # Panics
    ///
    /// If this system lacks a part's `(rep, role)` key: a part must have
    /// been collected over a graph range whose selection slice this
    /// system shares.
    pub fn fold(&mut self, parts: &[&FileRows]) {
        let maps: Vec<Vec<VarId>> = parts
            .iter()
            .map(|part| part.resolve(self).expect("the selection has every key of the rows"))
            .collect();
        for (part, map) in parts.iter().zip(&maps) {
            self.rows.absorb(&part.ab, map);
        }
        for (part, map) in parts.iter().zip(&maps) {
            self.rows.absorb(&part.c, map);
        }
    }

    /// Generated constraints per Fig. 4 template.
    pub fn template_counts(&self) -> [usize; 3] {
        self.rows.by_template
    }

    /// Iterates `(VarId, rep text, role)` for all variables.
    pub fn variables(&self) -> impl Iterator<Item = (VarId, &str, Role)> + '_ {
        self.vars
            .iter()
            .enumerate()
            .map(|(i, (rep, role))| (VarId(i as u32), self.symbols.resolve(*rep), *role))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_reps_slices_compare_by_content_not_position() {
        let (a, b, c) = (Symbol(0), Symbol(1), Symbol(2));
        let mut reps = EventReps::default();
        for event in [&[a, b, a][..], &[], &[c], &[b], &[], &[c]] {
            event.iter().for_each(|&r| reps.push_rep(r));
            reps.end_event();
        }
        assert_eq!((reps.len(), reps.get(0), reps.get(1)), (6, Some(&[a, b][..]), None));
        // Events 1–2 and 4–5 select the same reps at different offsets.
        assert!(reps.slice(1..3) == reps.slice(4..6));
        assert!(reps.slice(1..3) == reps.slice(4..6).to_event_reps().as_slice());
        assert!(reps.slice(2..4) != reps.slice(3..5));
        // The same reps split differently between events differ.
        let mut joined = EventReps::default();
        [c, b].iter().for_each(|&r| joined.push_rep(r));
        joined.end_event();
        joined.end_event();
        assert!(joined.as_slice() != reps.slice(2..4));
    }

    #[test]
    fn interning() {
        let mut s = ConstraintSystem::new(0.75);
        let a = s.rep("a()");
        let a2 = s.rep("a()");
        let b = s.rep("b()");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(s.rep_text(a), "a()");
        assert_eq!(s.rep_syms().len(), 2);
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
        assert_eq!(s.row_count(), 0);
    }

    fn t(var: VarId, coeff: f64) -> Term {
        Term { var, coeff }
    }

    /// Terms merge per variable in emission order (lhs `+`, rhs `−`) and
    /// sort by variable; identical rows share one weighted row in
    /// first-occurrence order while the template counts keep every
    /// constraint.
    #[test]
    fn rows_merge_sort_and_dedup_with_weights() {
        let mut s = ConstraintSystem::new(0.75);
        let (a, b) = (s.rep("a()"), s.rep("b()"));
        let (va, vb) = (s.var(a, Role::Source), s.var(b, Role::Sink));
        let flipped = FlowConstraint {
            lhs: vec![t(vb, 0.5), t(va, 0.5), t(va, 0.25)],
            rhs: vec![t(va, 0.1)],
            template: Template::A,
        };
        s.add_constraint(FlowConstraint { lhs: vec![t(va, 1.0)], ..Default::default() });
        s.add_constraint(flipped.clone());
        s.add_constraint(FlowConstraint { template: Template::B, ..flipped });
        assert_eq!(s.constraint_count(), 3);
        assert_eq!(s.template_counts(), [1, 1, 1]);
        assert_eq!(s.row_count(), 2);
        let rows: Vec<Row> = s.rows().collect();
        assert_eq!((rows[0].weight, rows[0].terms), (1, &[(0, 1.0)][..]));
        assert_eq!(rows[1].weight, 2);
        assert_eq!(rows[1].terms, &[(0, 0.5 + 0.25 - 0.1), (1, 0.5)]);
        assert!((rows[1].gap(&[1.0, 0.5]) - 0.9).abs() < 1e-12);
    }

    /// Folding renumbers through the map, re-sorts each row, and merges
    /// rows that become identical to stored ones: 4a/4b parts first,
    /// then 4c parts.
    #[test]
    fn fold_renumbers_and_orders_ab_before_c() {
        let mut s = ConstraintSystem::new(0.75);
        let (a, b) = (s.rep("a()"), s.rep("b()"));
        let (va, vb) = (s.var(a, Role::Source), s.var(b, Role::Sink));
        let keys = vec![(b, Role::Sink), (a, Role::Source)];
        let mut part = FileRows { keys, ..Default::default() };
        let (l0, l1) = (VarId(0), VarId(1));
        part.c.emit(Template::C, &[&[t(l0, 1.0)]], &[]);
        part.ab.emit(Template::A, &[&[t(l0, 1.0), t(l1, 0.5)]], &[]);
        part.ab.emit(Template::A, &[&[t(l1, 0.5), t(l0, 1.0)]], &[]);
        assert_eq!(part.resolve(&s), Some(vec![vb, va]));
        s.fold(&[&part, &part]);
        assert_eq!(s.template_counts(), [4, 0, 2]);
        let rows: Vec<(u32, &[(u32, f64)])> = s.rows().map(|r| (r.weight, r.terms)).collect();
        assert_eq!(rows, vec![(4, &[(va.0, 0.5), (vb.0, 1.0)][..]), (2, &[(vb.0, 1.0)][..])]);
        let other = ConstraintSystem::new(0.75);
        assert_eq!(part.resolve(&other), None);
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
