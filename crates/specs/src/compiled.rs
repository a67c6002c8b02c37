//! A compiled view of a [`TaintSpec`] that memoizes pattern matching and
//! role lookup per interned [`Symbol`].
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
use seldon_intern::Symbol;
use std::cell::RefCell;

/// A memoizing matcher over a borrowed [`TaintSpec`].
///
/// Intended for single-threaded analysis passes (constraint generation,
/// taint-role resolution, Merlin seeding): build one per pass, query by
/// [`Symbol`]. Not `Sync` — each worker thread builds its own.
#[derive(Debug)]
pub struct CompiledSpec<'a> {
    spec: &'a TaintSpec,
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
    /// Wraps `spec` with empty memo tables.
    pub fn new(spec: &'a TaintSpec) -> Self {
        CompiledSpec {
            spec,
            blacklisted: RefCell::new(Vec::new()),
            roles: RefCell::new(Vec::new()),
        }
    }

    /// The underlying specification.
    pub fn spec(&self) -> &'a TaintSpec {
        self.spec
    }

    /// Whether the representation matches a blacklist pattern; glob
    /// matching runs once per distinct symbol.
    pub fn is_blacklisted(&self, rep: Symbol) -> bool {
        memo(&self.blacklisted, rep, || self.spec.is_blacklisted(rep.as_str()))
    }

    /// The roles of the representation (empty if blacklisted or unknown),
    /// memoized per symbol.
    pub fn roles(&self, rep: Symbol) -> RoleSet {
        memo(&self.roles, rep, || self.spec.roles(rep.as_str()))
    }

    /// Whether the representation has `role`.
    pub fn has_role(&self, rep: Symbol, role: Role) -> bool {
        self.roles(rep).contains(role)
    }

    /// Number of distinct symbols resolved so far (for diagnostics).
    pub fn memoized(&self) -> usize {
        let verdicts = self.blacklisted.borrow().iter().filter(|a| a.is_some()).count();
        verdicts.max(self.roles.borrow().iter().filter(|a| a.is_some()).count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seldon_intern::intern;

    #[test]
    fn memoized_answers_match_spec() {
        let mut spec = TaintSpec::new();
        spec.add("flask.request.args.get()", Role::Source);
        spec.add("os.system()", Role::Sink);
        spec.blacklist("np.*");
        let compiled = CompiledSpec::new(&spec);
        for rep in ["flask.request.args.get()", "os.system()", "np.zeros()", "other()"] {
            let sym = intern(rep);
            // Query twice: first resolves, second hits the memo.
            for _ in 0..2 {
                assert_eq!(compiled.is_blacklisted(sym), spec.is_blacklisted(rep), "{rep}");
                assert_eq!(compiled.roles(sym), spec.roles(rep), "{rep}");
            }
        }
        assert!(compiled.has_role(intern("os.system()"), Role::Sink));
        assert!(!compiled.has_role(intern("np.zeros()"), Role::Source));
        assert_eq!(compiled.memoized(), 4);
        assert_eq!(compiled.spec().role_count(), spec.role_count());
    }

    #[test]
    fn blacklist_wins_over_roles() {
        let mut spec = TaintSpec::new();
        spec.add("np.loadtxt()", Role::Source);
        spec.blacklist("np.*");
        let compiled = CompiledSpec::new(&spec);
        let sym = intern("np.loadtxt()");
        assert!(compiled.is_blacklisted(sym));
        assert!(compiled.roles(sym).is_empty());
    }
}
