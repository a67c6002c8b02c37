//! The cache's two hashes.
//!
//! The workspace is offline, so both are hand-rolled, and neither is
//! collision-resistant against adversaries: cache keys only have to
//! distinguish *accidentally* different inputs, and a corrupted or
//! attacked entry is caught by the checksum + semantic cross-checks and
//! degrades to recompute, never to a wrong answer.
//!
//! * [`checksum`] (and [`crate::file_key`]) hash every cached byte and
//!   every source byte, so they take the bytes a word at a time with
//!   [`IdHasher`]: one rotate, xor and multiply per 8-byte word. The
//!   multiply is by an odd constant, so each step is a bijection of its
//!   word: two inputs of the same length that differ in one word, any
//!   single bit flip included, always hash apart. A short last word is
//!   zero-padded, so the caller accounts for the length: an entry frame
//!   checks it against its header, a file key hashes it first.
//! * [`Fnv64`], FNV-1a over bytes with explicit little-endian encodings
//!   for integers, keys everything that is pinned across builds: the
//!   graph and input fingerprints of the solver checkpoint and the
//!   digests tests pin. Its values must never change.

use seldon_intern::IdHasher;
use std::hash::Hasher;

/// The checksum of an entry frame's payload: [`IdHasher`] over `bytes`.
/// Blind to trailing zero bytes, as the module docs explain.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut h = IdHasher::default();
    h.write(bytes);
    h.finish()
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A streaming FNV-1a 64-bit hasher.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64 {
    state: u64,
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

impl Fnv64 {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Fnv64 {
        Fnv64 { state: FNV_OFFSET }
    }

    /// Feeds raw bytes.
    pub fn write(&mut self, bytes: &[u8]) -> &mut Fnv64 {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Feeds a `u64` as 8 little-endian bytes.
    pub fn write_u64(&mut self, v: u64) -> &mut Fnv64 {
        self.write(&v.to_le_bytes())
    }

    /// Feeds a `u32` as 4 little-endian bytes.
    pub fn write_u32(&mut self, v: u32) -> &mut Fnv64 {
        self.write(&v.to_le_bytes())
    }

    /// Feeds an `f64` as its raw IEEE-754 bit pattern. `-0.0` and `0.0`
    /// hash differently — fingerprints must be byte-faithful, not
    /// numerically fuzzy.
    pub fn write_f64(&mut self, v: f64) -> &mut Fnv64 {
        self.write_u64(v.to_bits())
    }

    /// Feeds a length-prefixed string, so `("ab", "c")` and `("a", "bc")`
    /// hash differently.
    pub fn write_str(&mut self, s: &str) -> &mut Fnv64 {
        self.write_u64(s.len() as u64).write(s.as_bytes())
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fnv(bytes: &[u8]) -> u64 {
        Fnv64::new().write(bytes).finish()
    }

    #[test]
    fn matches_known_fnv1a_vectors() {
        // Reference values from the canonical FNV-1a test suite.
        assert_eq!(fnv(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn length_prefix_separates_concatenations() {
        let mut a = Fnv64::new();
        a.write_str("ab").write_str("c");
        let mut b = Fnv64::new();
        b.write_str("a").write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn streaming_equals_one_shot() {
        let mut h = Fnv64::new();
        h.write(b"foo").write(b"bar");
        assert_eq!(h.finish(), fnv(b"foobar"));
    }

    #[test]
    fn checksum_separates_every_single_word_change() {
        let base: Vec<u8> = (0..40).collect();
        let sum = checksum(&base);
        for i in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[i] ^= 1 << bit;
                assert_ne!(checksum(&flipped), sum, "byte {i} bit {bit}");
            }
        }
        // Words are read little-endian; a short tail is zero-padded.
        let words = [
            u64::from_le_bytes(*b"01234567"),
            u64::from_le_bytes(*b"89\0\0\0\0\0\0"),
        ];
        let mut h = IdHasher::default();
        words.iter().for_each(|&w| h.write_u64(w));
        assert_eq!(checksum(b"0123456789"), h.finish());
    }
}
