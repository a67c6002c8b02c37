//! # seldon-intern
//!
//! Run-owned symbol tables for event representations.
//!
//! Seldon's scalability rests on representations being shared across
//! millions of events (§3.2, §7 of the paper). Carrying them as owned
//! `String`s makes every identity check a string hash and every graph
//! union an allocation storm. A [`Symbols`] table maps each distinct text
//! to a [`Symbol`] — a dense `u32` — so identity becomes an integer
//! compare, cloning becomes a copy, and `Symbol`-indexed vectors replace
//! string-keyed hash maps on the hot path.
//!
//! There is no process-wide table: each per-file propagation graph and
//! recorded program owns one, and a union links the per-file tables into
//! its own (§4). A symbol means something only to the table that issued
//! it ([`Symbols::resolve`]); a table takes no lock and frees its texts
//! when dropped.
//!
//! ## Example
//!
//! ```
//! use seldon_intern::Symbols;
//!
//! let mut file = Symbols::new();
//! let a = file.intern("flask.request.args.get()");
//! assert_eq!(file.intern("flask.request.args.get()"), a);
//! assert_eq!(file.resolve(a), "flask.request.args.get()");
//!
//! let mut union = Symbols::new();
//! union.intern("os.system()");
//! let map = union.link(&file);
//! assert_eq!(union.resolve(map[a.index()]), "flask.request.args.get()");
//! ```

#![warn(missing_docs)]

use std::hash::{BuildHasherDefault, Hasher};

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

/// A dense `u32` handle into the [`Symbols`] table that issued it.
///
/// Equality and hashing are integer operations. The derived `Ord` compares
/// handle order (first-interned first), *not* lexicographic order — resolve
/// with [`Symbols::resolve`] before sorting user-visible output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(pub u32);

impl Symbol {
    /// The index form of the handle, for `Symbol`-indexed vectors.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An owned symbol table: every text once, back to back in one buffer,
/// numbered in first-intern order. Its lookup index can be dropped
/// ([`Symbols::seal`]) once no more text will be interned; resolving never
/// needs it, and the next [`Symbols::intern`] rebuilds it.
#[derive(Debug, Clone, Default)]
pub struct Symbols {
    text: String,
    /// Where each symbol's text ends in `text`.
    ends: Vec<u32>,
    /// Open-addressed lookup index: symbol id + 1 per used slot, 0 when
    /// free; a power of two at least twice `ends.len()`, or empty.
    slots: Vec<u32>,
}

impl Symbols {
    /// An empty table.
    pub fn new() -> Self {
        Symbols::default()
    }

    /// An empty table sized for `texts` distinct texts of `bytes` bytes in
    /// all: interning that many grows nothing, and [`Symbols::seal`] then
    /// has no spare capacity to give back.
    pub fn with_capacity(texts: usize, bytes: usize) -> Self {
        Symbols {
            text: String::with_capacity(bytes),
            ends: Vec::with_capacity(texts),
            slots: vec![0; (2 * (texts + 1)).next_power_of_two()],
        }
    }

    /// Number of distinct texts interned.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The text of `sym`.
    ///
    /// # Panics
    ///
    /// Panics if this table did not issue `sym`.
    pub fn resolve(&self, sym: Symbol) -> &str {
        let start = sym.index().checked_sub(1).map_or(0, |p| self.ends[p] as usize);
        &self.text[start..self.ends[sym.index()] as usize]
    }

    /// Every `(symbol, text)` pair in id order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (Symbol, &str)> {
        (0..self.len() as u32).map(|i| (Symbol(i), self.resolve(Symbol(i))))
    }

    /// The symbol of `text`, or the free index slot where it would go.
    fn find(&self, text: &str) -> Result<Symbol, usize> {
        let mut h = IdHasher::default();
        h.write(text.as_bytes());
        let (h, mask) = (h.finish(), self.slots.len() - 1);
        let mut i = (h ^ (h >> 32)) as usize & mask;
        loop {
            match self.slots[i] {
                0 => return Err(i),
                s if self.resolve(Symbol(s - 1)) == text => return Ok(Symbol(s - 1)),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Interns `text`: the same symbol for every equal text, a new one
    /// (the next id) for an unseen text.
    pub fn intern(&mut self, text: &str) -> Symbol {
        if self.slots.len() < 2 * (self.len() + 1) {
            // Room for a typical file's table up front: growing a fresh
            // table step by step per file cost more than its lookups.
            self.slots = vec![0; (4 * (self.len() + 1)).next_power_of_two().max(64)];
            self.text.reserve(512);
            self.ends.reserve(32);
            for i in 0..self.len() as u32 {
                let Err(slot) = self.find(self.resolve(Symbol(i))) else { unreachable!() };
                self.slots[slot] = i + 1;
            }
        }
        match self.find(text) {
            Ok(sym) => sym,
            Err(slot) => {
                let sym = Symbol(self.len() as u32);
                self.text.push_str(text);
                self.ends.push(u32::try_from(self.text.len()).expect("table text under 4 GiB"));
                self.slots[slot] = sym.0 + 1;
                sym
            }
        }
    }

    /// Looks `text` up without interning it.
    pub fn get(&self, text: &str) -> Option<Symbol> {
        if self.slots.is_empty() {
            return self.iter().find(|&(_, t)| t == text).map(|(sym, _)| sym);
        }
        self.find(text).ok()
    }

    /// Interns every text of `other` in its id order and returns the map
    /// from `other`'s ids to this table's: `map[s.index()]` is the symbol
    /// here of `other`'s `s`.
    pub fn link(&mut self, other: &Symbols) -> Vec<Symbol> {
        other.iter().map(|(_, text)| self.intern(text)).collect()
    }

    /// Drops the lookup index and spare capacity, keeping the texts.
    pub fn seal(&mut self) {
        self.slots = Vec::new();
        self.text.shrink_to_fit();
        self.ends.shrink_to_fit();
    }

    /// Empties the table, keeping its buffers for reuse.
    pub fn clear(&mut self) {
        self.text.clear();
        self.ends.clear();
        self.slots.fill(0);
    }
}

/// Two tables are equal when they hold the same texts under the same ids.
impl PartialEq for Symbols {
    fn eq(&self, other: &Symbols) -> bool {
        self.ends == other.ends && self.text == other.text
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn intern_is_idempotent() {
        let mut i = Symbols::new();
        let a = i.intern("a()");
        let b = i.intern("a()");
        let c = i.intern("b()");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn resolve_round_trips() {
        let mut i = Symbols::new();
        let s = i.intern("flask.request.args.get()");
        assert_eq!(i.resolve(s), "flask.request.args.get()");
        assert_eq!(i.get("flask.request.args.get()"), Some(s));
        assert_eq!(i.get("missing"), None);
    }

    #[test]
    fn symbols_are_dense() {
        let mut i = Symbols::new();
        assert!(i.is_empty());
        for n in 0..100 {
            let s = i.intern(&format!("rep{n}()"));
            assert_eq!(s.index(), n);
        }
        assert_eq!(i.len(), 100);
    }

    #[test]
    fn sealed_tables_resolve_look_up_and_intern_again() {
        let mut i = Symbols::new();
        let texts: Vec<String> = (0..40).map(|n| format!("api{n}()")).collect();
        let syms: Vec<Symbol> = texts.iter().map(|t| i.intern(t)).collect();
        let unsealed = i.clone();
        i.seal();
        assert_eq!(i, unsealed, "sealing keeps every text under its id");
        for (t, &s) in texts.iter().zip(&syms) {
            assert_eq!(i.resolve(s), t);
            assert_eq!(i.get(t), Some(s));
        }
        assert_eq!(i.get("api40()"), None);
        assert_eq!(i.intern("api7()"), syms[7], "interning rebuilds the index");
        assert_eq!(i.intern("api40()"), Symbol(40));
    }

    #[test]
    fn a_presized_table_interns_without_growing() {
        let texts: Vec<String> = (0..100).map(|n| format!("api{n}()")).collect();
        let bytes = texts.iter().map(String::len).sum();
        let mut sized = Symbols::with_capacity(texts.len(), bytes);
        let mut grown = Symbols::new();
        let slots = sized.slots.len();
        for t in &texts {
            assert_eq!(sized.intern(t), grown.intern(t));
        }
        assert_eq!(sized.intern("api7()"), Symbol(7), "duplicates still find their symbol");
        let capacities = (sized.slots.len(), sized.text.capacity(), sized.ends.capacity());
        assert_eq!(capacities, (slots, bytes, 100));
        sized.seal();
        assert_eq!((sized.text.capacity(), sized.ends.capacity()), (bytes, 100));
        assert_eq!(sized, grown);
        let mut empty = Symbols::with_capacity(0, 0);
        assert_eq!(empty.intern("x"), Symbol(0), "an empty presized table still interns");
    }

    #[test]
    fn link_maps_ids_in_first_link_order() {
        let mut file = Symbols::new();
        let (b, a) = (file.intern("b()"), file.intern("a()"));
        let mut union = Symbols::new();
        let a0 = union.intern("a()");
        let map = union.link(&file);
        assert_eq!(map[a.index()], a0, "a shared text keeps the union's id");
        assert_eq!(map[b.index()], Symbol(1), "a new text takes the next id");
        assert_eq!(union.link(&Symbols::new()), Vec::<Symbol>::new());
        assert_eq!(union.len(), 2);
    }

    proptest! {
        #[test]
        fn prop_round_trip(text in "[a-z.()\\[\\]']{0,40}") {
            let mut i = Symbols::new();
            i.intern("other()");
            let sym = i.intern(&text);
            prop_assert_eq!(i.resolve(sym), text.as_str());
            prop_assert_eq!(i.intern(&text), sym);
        }

        #[test]
        fn prop_distinct_strings_distinct_symbols(
            a in "[a-z.()]{1,20}",
            b in "[a-z.()]{1,20}",
        ) {
            let mut i = Symbols::new();
            let sa = i.intern(&a);
            let sb = i.intern(&b);
            prop_assert_eq!(sa == sb, a == b);
        }
    }
}
