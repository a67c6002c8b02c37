//! # seldon-intern
//!
//! A global, thread-safe string interner for event representations.
//!
//! Seldon's scalability rests on representations being shared across
//! millions of events (§3.2, §7 of the paper). Carrying them as owned
//! `String`s makes every identity check a string hash and every graph
//! union an allocation storm. Interning maps each distinct representation
//! to a [`Symbol`] — a `u32` — once per process; identity becomes an
//! integer compare, cloning becomes a copy, and `Symbol`-indexed vectors
//! replace string-keyed hash maps on the hot path.
//!
//! Strings enter the interner at the parsing edge ([`intern`]) and leave
//! at the reporting edge ([`Symbol::as_str`]); everything between carries
//! `Symbol`s. Interned strings live for the process lifetime (they are
//! leaked), which is the right trade for a corpus analyzer: the set of
//! distinct representations grows sublinearly with corpus size.
//!
//! ## Example
//!
//! ```
//! use seldon_intern::{intern, Symbol};
//!
//! let a = intern("flask.request.args.get()");
//! let b = intern("flask.request.args.get()");
//! assert_eq!(a, b);
//! assert_eq!(a.as_str(), "flask.request.args.get()");
//! ```

#![warn(missing_docs)]

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{OnceLock, RwLock};

/// A fast FxHash-style hasher — for symbols, event ids and interned text:
/// one rotate, xor and multiply per 8-byte word. It is not DoS-resistant:
/// interned text comes from the analyzed source, so a corpus built to
/// collide could slow interning. Like rustc's own symbol table, the
/// analyzer takes that trade for lookup speed.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.write_u64(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.write_u64(u64::from_le_bytes(tail));
        }
    }
    fn write_u8(&mut self, v: u8) {
        self.write_u64(u64::from(v));
    }
    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

/// The `HashMap` / `HashSet` hasher state of [`IdHasher`].
pub type IdHash = BuildHasherDefault<IdHasher>;

/// An interned string: a dense `u32` handle into the global [`Interner`].
///
/// Equality and hashing are integer operations. The derived `Ord` compares
/// handle order (first-interned first), *not* lexicographic order — resolve
/// with [`Symbol::as_str`] before sorting user-visible output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(pub u32);

impl Symbol {
    /// The index form of the handle, for `Symbol`-indexed vectors.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Resolves the symbol against the global interner.
    ///
    /// # Panics
    ///
    /// Panics if `self` was not produced by the global interner.
    pub fn as_str(self) -> &'static str {
        global().resolve(self)
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A thread-safe string interner.
///
/// Lookups take a read lock; only the first interning of a string takes the
/// write lock. Interned strings are leaked so that [`Interner::resolve`]
/// can hand out `&'static str` without holding any lock.
#[derive(Debug, Default)]
pub struct Interner {
    inner: RwLock<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    /// Symbol ids follow first-intern order, so the hasher decides only
    /// lookup speed, never an id.
    map: HashMap<&'static str, Symbol, IdHash>,
    strings: Vec<&'static str>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Interner::default()
    }

    /// Interns `text`, returning its [`Symbol`]. Idempotent: every call
    /// with an equal string — from any thread — returns the same symbol.
    pub fn intern(&self, text: &str) -> Symbol {
        if let Some(&sym) = self.inner.read().unwrap_or_else(|e| e.into_inner()).map.get(text)
        {
            return sym;
        }
        let mut inner = self.inner.write().unwrap_or_else(|e| e.into_inner());
        // Re-check: another thread may have interned between the locks.
        if let Some(&sym) = inner.map.get(text) {
            return sym;
        }
        let leaked: &'static str = Box::leak(text.to_owned().into_boxed_str());
        let sym = Symbol(inner.strings.len() as u32);
        inner.strings.push(leaked);
        inner.map.insert(leaked, sym);
        sym
    }

    /// Looks up `text` without interning it.
    pub fn get(&self, text: &str) -> Option<Symbol> {
        self.inner.read().unwrap_or_else(|e| e.into_inner()).map.get(text).copied()
    }

    /// The string of a symbol produced by this interner.
    ///
    /// # Panics
    ///
    /// Panics if `sym` is out of range for this interner.
    pub fn resolve(&self, sym: Symbol) -> &'static str {
        self.inner.read().unwrap_or_else(|e| e.into_inner()).strings[sym.index()]
    }

    /// Number of distinct strings interned so far.
    pub fn len(&self) -> usize {
        self.inner.read().unwrap_or_else(|e| e.into_inner()).strings.len()
    }

    /// Whether nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

static GLOBAL: OnceLock<Interner> = OnceLock::new();

/// The process-wide interner behind [`intern`] / [`Symbol::as_str`].
pub fn global() -> &'static Interner {
    GLOBAL.get_or_init(Interner::new)
}

/// Interns `text` in the global interner.
pub fn intern(text: &str) -> Symbol {
    global().intern(text)
}

/// Looks up `text` in the global interner without interning it.
pub fn lookup(text: &str) -> Option<Symbol> {
    global().get(text)
}

/// Resolves a symbol of the global interner.
pub fn resolve(sym: Symbol) -> &'static str {
    global().resolve(sym)
}

/// Number of distinct strings in the global interner.
pub fn len() -> usize {
    global().len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn intern_is_idempotent() {
        let i = Interner::new();
        let a = i.intern("a()");
        let b = i.intern("a()");
        let c = i.intern("b()");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn resolve_round_trips() {
        let i = Interner::new();
        let s = i.intern("flask.request.args.get()");
        assert_eq!(i.resolve(s), "flask.request.args.get()");
        assert_eq!(i.get("flask.request.args.get()"), Some(s));
        assert_eq!(i.get("missing"), None);
    }

    #[test]
    fn symbols_are_dense() {
        let i = Interner::new();
        assert!(i.is_empty());
        for n in 0..100 {
            let s = i.intern(&format!("rep{n}()"));
            assert_eq!(s.index(), n);
        }
        assert_eq!(i.len(), 100);
    }

    #[test]
    fn global_interner_display() {
        let s = intern("seldon_intern::display_test()");
        assert_eq!(s.to_string(), "seldon_intern::display_test()");
        assert_eq!(resolve(s), "seldon_intern::display_test()");
        assert_eq!(lookup("seldon_intern::display_test()"), Some(s));
        assert!(len() > 0);
    }

    #[test]
    fn concurrent_intern_returns_identical_symbol() {
        let i = Interner::new();
        let symbols: Vec<Vec<Symbol>> = std::thread::scope(|scope| {
            (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        (0..256).map(|n| i.intern(&format!("api{}()", n % 64))).collect()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        assert_eq!(i.len(), 64);
        for per_thread in &symbols[1..] {
            assert_eq!(per_thread, &symbols[0]);
        }
        for (n, &sym) in symbols[0][..64].iter().enumerate() {
            assert_eq!(i.resolve(sym), format!("api{n}()"));
        }
    }

    proptest! {
        #[test]
        fn prop_round_trip(text in "[a-z.()\\[\\]']{0,40}") {
            let sym = intern(&text);
            prop_assert_eq!(resolve(sym), text.as_str());
            prop_assert_eq!(intern(&text), sym);
        }

        #[test]
        fn prop_distinct_strings_distinct_symbols(
            a in "[a-z.()]{1,20}",
            b in "[a-z.()]{1,20}",
        ) {
            let sa = intern(&a);
            let sb = intern(&b);
            prop_assert_eq!(sa == sb, a == b);
        }
    }
}
