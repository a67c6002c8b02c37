//! Andersen-style inclusion-based points-to analysis (§5.2).
//!
//! The paper runs a flow- and field-sensitive Andersen analysis and adds a
//! propagation edge `b → a` for each pair with `a ∈ PointsTo(b)`. Here the
//! abstract objects ("sites") are event ids — calls to functions with
//! unknown bodies are allocation sites, exactly as the paper prescribes —
//! and the solver is the classic worklist algorithm with dynamically added
//! dereference edges. Field sensitivity is modelled with per-(site, field)
//! variables; flow sensitivity of straight-line code is provided by the
//! graph builder's environment threading, with the points-to component
//! soundly flow-insensitive.

use seldon_intern::IdHash;
use std::collections::{HashMap, HashSet};

/// Identifier of a points-to variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub(crate) u32);

impl VarId {
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// An abstract object: in our encoding, the event id that created the value.
pub type SiteId = u32;

/// Inclusion-based points-to constraint system and solver.
#[derive(Debug, Default)]
pub struct Andersen {
    pts: Vec<HashSet<SiteId, IdHash>>,
    /// Copy edges: `copy_succ[v]` = targets `t` with `pts(t) ⊇ pts(v)`.
    copy_succ: Vec<Vec<VarId>>,
    /// Load constraints by base variable: `t ⊇ fld(pts(base), f)`.
    loads: Vec<Vec<(u32, VarId)>>,
    /// Store constraints by base variable: `fld(pts(base), f) ⊇ v`.
    stores: Vec<Vec<(u32, VarId)>>,
    /// Field names, numbered in first-seen order for constraints to carry.
    fields: HashMap<Box<str>, u32, IdHash>,
    /// Lazily created field variables keyed by (site, field number).
    field_vars: HashMap<(SiteId, u32), VarId, IdHash>,
    solved: bool,
}

impl Andersen {
    /// Creates an empty constraint system.
    pub fn new() -> Self {
        Andersen::default()
    }

    /// Creates a variable.
    pub fn fresh(&mut self) -> VarId {
        let v = VarId(self.pts.len() as u32);
        self.pts.push(HashSet::default());
        self.copy_succ.push(Vec::new());
        self.loads.push(Vec::new());
        self.stores.push(Vec::new());
        v
    }

    /// Number of variables, field variables included.
    pub fn var_count(&self) -> usize {
        self.pts.len()
    }

    /// `v` points to allocation site `site`.
    pub fn alloc(&mut self, v: VarId, site: SiteId) {
        self.pts[v.index()].insert(site);
    }

    /// `pts(to) ⊇ pts(from)`.
    pub fn copy(&mut self, from: VarId, to: VarId) {
        if from != to {
            self.copy_succ[from.index()].push(to);
        }
    }

    /// Load `target = base.field`.
    pub fn load(&mut self, base: VarId, field: &str, target: VarId) {
        let f = self.field(field);
        self.loads[base.index()].push((f, target));
    }

    /// Store `base.field = value`.
    pub fn store(&mut self, base: VarId, field: &str, value: VarId) {
        let f = self.field(field);
        self.stores[base.index()].push((f, value));
    }

    fn field(&mut self, name: &str) -> u32 {
        if let Some(&f) = self.fields.get(name) {
            return f;
        }
        let f = self.fields.len() as u32;
        self.fields.insert(name.into(), f);
        f
    }

    fn field_var(&mut self, site: SiteId, field: u32) -> VarId {
        if let Some(&v) = self.field_vars.get(&(site, field)) {
            return v;
        }
        let v = self.fresh();
        self.field_vars.insert((site, field), v);
        v
    }

    /// Runs the worklist algorithm to a fixpoint.
    ///
    /// Dereference (load/store) edges are instantiated as copy edges as new
    /// sites reach base variables, per the standard Andersen formulation.
    /// A variable's constraint lists are walked in place: solving adds no
    /// load or store, so each list is lent out and put back unchanged.
    pub fn solve(&mut self) {
        let mut worklist: Vec<VarId> = (0..self.pts.len() as u32)
            .map(VarId)
            .filter(|v| !self.pts[v.index()].is_empty())
            .collect();
        let mut sites: Vec<SiteId> = Vec::new();
        while let Some(v) = worklist.pop() {
            sites.clear();
            sites.extend(self.pts[v.index()].iter().copied());
            // Instantiate dereference edges for every site at v.
            let loads = std::mem::take(&mut self.loads[v.index()]);
            for &(field, target) in &loads {
                for &site in &sites {
                    let fv = self.field_var(site, field);
                    if !self.copy_succ[fv.index()].contains(&target) {
                        self.copy_succ[fv.index()].push(target);
                        if !self.pts[fv.index()].is_empty() {
                            worklist.push(fv);
                        }
                    }
                }
            }
            self.loads[v.index()] = loads;
            let stores = std::mem::take(&mut self.stores[v.index()]);
            for &(field, value) in &stores {
                for &site in &sites {
                    let fv = self.field_var(site, field);
                    if !self.copy_succ[value.index()].contains(&fv) {
                        self.copy_succ[value.index()].push(fv);
                        if !self.pts[value.index()].is_empty() {
                            worklist.push(value);
                        }
                    }
                }
            }
            self.stores[v.index()] = stores;
            // Propagate along copy edges.
            for i in 0..self.copy_succ[v.index()].len() {
                let t = self.copy_succ[v.index()][i];
                let mut changed = false;
                for &s in &sites {
                    if self.pts[t.index()].insert(s) {
                        changed = true;
                    }
                }
                if changed {
                    worklist.push(t);
                }
            }
        }
        self.solved = true;
    }

    /// The points-to set of `v`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if called before [`Andersen::solve`].
    pub fn points_to(&self, v: VarId) -> &HashSet<SiteId, IdHash> {
        debug_assert!(self.solved, "query before solve()");
        &self.pts[v.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_copy() {
        let mut a = Andersen::new();
        let x = a.fresh();
        let y = a.fresh();
        a.alloc(x, 1);
        a.copy(x, y);
        a.solve();
        assert!(a.points_to(y).contains(&1));
        assert_eq!(a.points_to(x).len(), 1);
    }

    #[test]
    fn transitive_copies() {
        let mut a = Andersen::new();
        let v: Vec<VarId> = (0..5).map(|_| a.fresh()).collect();
        a.alloc(v[0], 7);
        for w in v.windows(2) {
            a.copy(w[0], w[1]);
        }
        a.solve();
        assert!(a.points_to(v[4]).contains(&7));
    }

    #[test]
    fn field_store_load() {
        // x = alloc(1); x.f = y; y = alloc(2); z = x.f  =>  z -> {2}
        let mut a = Andersen::new();
        let x = a.fresh();
        let y = a.fresh();
        let z = a.fresh();
        a.alloc(x, 1);
        a.alloc(y, 2);
        a.store(x, "f", y);
        a.load(x, "f", z);
        a.solve();
        assert!(a.points_to(z).contains(&2));
        assert!(!a.points_to(z).contains(&1));
    }

    #[test]
    fn aliased_field_flow() {
        // x = alloc(1); w = x; w.f = y(→2); z = x.f  =>  z -> {2} via alias.
        let mut a = Andersen::new();
        let x = a.fresh();
        let w = a.fresh();
        let y = a.fresh();
        let z = a.fresh();
        a.alloc(x, 1);
        a.copy(x, w);
        a.alloc(y, 2);
        a.store(w, "f", y);
        a.load(x, "f", z);
        a.solve();
        assert!(a.points_to(z).contains(&2));
    }

    #[test]
    fn distinct_fields_do_not_mix() {
        let mut a = Andersen::new();
        let x = a.fresh();
        let y = a.fresh();
        let z = a.fresh();
        a.alloc(x, 1);
        a.alloc(y, 2);
        a.store(x, "f", y);
        a.load(x, "g", z);
        a.solve();
        assert!(a.points_to(z).is_empty());
    }

    #[test]
    fn cyclic_copies_terminate() {
        let mut a = Andersen::new();
        let x = a.fresh();
        let y = a.fresh();
        a.alloc(x, 3);
        a.copy(x, y);
        a.copy(y, x);
        a.solve();
        assert!(a.points_to(x).contains(&3));
        assert!(a.points_to(y).contains(&3));
    }

    #[test]
    fn store_then_late_alloc_still_flows() {
        // Order of constraint addition must not matter.
        let mut a = Andersen::new();
        let x = a.fresh();
        let y = a.fresh();
        let z = a.fresh();
        a.store(x, "f", y);
        a.load(x, "f", z);
        a.alloc(y, 9);
        a.alloc(x, 1);
        a.solve();
        assert!(a.points_to(z).contains(&9));
    }
}
