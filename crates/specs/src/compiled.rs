//! A compiled view of a [`TaintSpec`] that memoizes pattern matching and
//! role lookup per [`Symbol`] of one symbol table.
//!
//! Blacklist patterns are globs (App. B), so `TaintSpec::is_blacklisted`
//! walks every pattern for every query — once per *event* representation
//! on the constraint-generation hot path. With interned representations
//! the distinct query strings are a tiny fraction of the queries, so a
//! [`CompiledSpec`] resolves each symbol against the glob list and the
//! entry map exactly once per corpus and answers repeats from dense tables
//! indexed by [`Symbol::index`], grown on demand: a repeat is one bounds
//! check and one load, no hashing.

use crate::role::{Role, RoleSet};
use crate::spec::TaintSpec;
use seldon_intern::{Symbol, Symbols};
use std::cell::RefCell;

/// A memoizing matcher over a borrowed [`TaintSpec`].
///
/// Intended for single-threaded analysis passes (constraint generation,
/// taint-role resolution, Merlin seeding): build one per pass over the
/// table the queried [`Symbol`]s belong to. Not `Sync` — each worker
/// thread builds its own.
#[derive(Debug)]
pub struct CompiledSpec<'a> {
    spec: &'a TaintSpec,
    symbols: &'a Symbols,
    /// Blacklist verdict per symbol index, `None` until first queried.
    blacklisted: RefCell<Vec<Option<bool>>>,
    /// Role set per symbol index (blacklist already applied), `None` until
    /// first queried.
    roles: RefCell<Vec<Option<RoleSet>>>,
}

/// The memoized answer for `rep` in `table`, resolving it on first query.
fn memo<T: Copy>(table: &RefCell<Vec<Option<T>>>, rep: Symbol, resolve: impl FnOnce() -> T) -> T {
    let i = rep.index();
    if let Some(&Some(answer)) = table.borrow().get(i) {
        return answer;
    }
    let answer = resolve();
    let mut table = table.borrow_mut();
    if table.len() <= i {
        table.resize(i + 1, None);
    }
    table[i] = Some(answer);
    answer
}

impl<'a> CompiledSpec<'a> {
    /// Wraps `spec` with empty memo tables, for queries by symbols of
    /// `symbols`.
    pub fn new(spec: &'a TaintSpec, symbols: &'a Symbols) -> Self {
        CompiledSpec {
            spec,
            symbols,
            blacklisted: RefCell::new(Vec::new()),
            roles: RefCell::new(Vec::new()),
        }
    }

    /// Whether the representation matches a blacklist pattern; glob
    /// matching runs once per distinct symbol.
    pub fn is_blacklisted(&self, rep: Symbol) -> bool {
        memo(&self.blacklisted, rep, || self.spec.is_blacklisted(self.symbols.resolve(rep)))
    }

    /// The roles of the representation (empty if blacklisted or unknown),
    /// memoized per symbol.
    pub fn roles(&self, rep: Symbol) -> RoleSet {
        memo(&self.roles, rep, || self.spec.roles(self.symbols.resolve(rep)))
    }

    /// Whether the representation has `role`.
    pub fn has_role(&self, rep: Symbol, role: Role) -> bool {
        self.roles(rep).contains(role)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memoized_answers_match_spec() {
        let mut spec = TaintSpec::new();
        spec.add("flask.request.args.get()", Role::Source);
        spec.add("os.system()", Role::Sink);
        spec.blacklist("np.*");
        let reps = ["flask.request.args.get()", "os.system()", "np.zeros()", "other()"];
        let mut symbols = Symbols::new();
        let syms: Vec<Symbol> = reps.iter().map(|rep| symbols.intern(rep)).collect();
        let compiled = CompiledSpec::new(&spec, &symbols);
        for (rep, &sym) in reps.into_iter().zip(&syms) {
            // Query twice: first resolves, second hits the memo.
            for _ in 0..2 {
                assert_eq!(compiled.is_blacklisted(sym), spec.is_blacklisted(rep), "{rep}");
                assert_eq!(compiled.roles(sym), spec.roles(rep), "{rep}");
            }
        }
        assert!(compiled.has_role(syms[1], Role::Sink));
        assert!(!compiled.has_role(syms[2], Role::Source));
        assert_eq!(compiled.blacklisted.borrow().iter().flatten().count(), 4, "one verdict each");
        assert_eq!(compiled.roles.borrow().iter().flatten().count(), 4, "one role set each");
    }

    #[test]
    fn blacklist_wins_over_roles() {
        let mut spec = TaintSpec::new();
        spec.add("np.loadtxt()", Role::Source);
        spec.blacklist("np.*");
        let mut symbols = Symbols::new();
        let sym = symbols.intern("np.loadtxt()");
        let compiled = CompiledSpec::new(&spec, &symbols);
        assert!(compiled.is_blacklisted(sym));
        assert!(compiled.roles(sym).is_empty());
    }
}
