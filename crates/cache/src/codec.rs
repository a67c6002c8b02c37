//! The binary record codec both cache payloads are written in.
//!
//! A payload is a flat sequence of little-endian fields: `u8`, `u32`,
//! `u64`, `f64` as its IEEE-754 bit pattern (so floats round-trip bit
//! for bit), and strings as a `u32` byte length followed by UTF-8 bytes.
//! A table is a `u32` row count followed by its rows. There are no field
//! names, delimiters or escapes: the writer and the reader of a payload
//! agree on the field order, and the entry version stamps that order.
//!
//! [`Reader`] treats its input as hostile. Every read is bounds-checked,
//! every row count is checked against the bytes left before anything is
//! allocated (a row is never smaller than its declared minimum width),
//! and bytes left over after the last field are [`EntryError::Corrupt`].

use crate::entry::EntryError;

fn corrupt(what: String) -> EntryError {
    EntryError::Corrupt(what)
}

/// Appends fields to a payload buffer.
#[derive(Debug, Default)]
pub(crate) struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub(crate) fn str(&mut self, s: &str) {
        self.len(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// A table: its row count, then `row` for each item.
    pub(crate) fn table<I>(&mut self, items: I, mut row: impl FnMut(&mut Writer, I::Item))
    where
        I: IntoIterator,
        I::IntoIter: ExactSizeIterator,
    {
        let items = items.into_iter();
        self.len(items.len());
        for item in items {
            row(self, item);
        }
    }

    fn len(&mut self, n: usize) {
        self.u32(u32::try_from(n).expect("cache payload tables hold under 2^32 rows"));
    }

    pub(crate) fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Reads fields back from a payload, rejecting any that run past its end.
#[derive(Debug)]
pub(crate) struct Reader<'a> {
    bytes: &'a [u8],
}

impl<'a> Reader<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes }
    }

    fn take<const N: usize>(&mut self) -> Result<[u8; N], EntryError> {
        let (head, rest) = self
            .bytes
            .split_first_chunk::<N>()
            .ok_or_else(|| corrupt(format!("payload ends inside a {N}-byte field")))?;
        self.bytes = rest;
        Ok(*head)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, EntryError> {
        Ok(self.take::<1>()?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, EntryError> {
        Ok(u32::from_le_bytes(self.take()?))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, EntryError> {
        Ok(u64::from_le_bytes(self.take()?))
    }

    pub(crate) fn f64(&mut self) -> Result<f64, EntryError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A `u64` field holding an in-memory count or size.
    pub(crate) fn usize(&mut self) -> Result<usize, EntryError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| corrupt(format!("count {v} overflows usize")))
    }

    /// A `u8` field holding 0 or 1.
    pub(crate) fn bool(&mut self) -> Result<bool, EntryError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(corrupt(format!("bool field holds {b}"))),
        }
    }

    pub(crate) fn str(&mut self) -> Result<&'a str, EntryError> {
        let len = self.count(1)?;
        let (text, rest) = self.bytes.split_at(len);
        self.bytes = rest;
        std::str::from_utf8(text).map_err(|_| corrupt("string field is not UTF-8".into()))
    }

    /// A table written by [`Writer::table`] whose rows each take at least
    /// `row_bytes` bytes.
    pub(crate) fn table<T>(
        &mut self,
        row_bytes: usize,
        mut row: impl FnMut(&mut Reader<'a>) -> Result<T, EntryError>,
    ) -> Result<Vec<T>, EntryError> {
        let n = self.count(row_bytes)?;
        let mut rows = Vec::with_capacity(n);
        for _ in 0..n {
            rows.push(row(self)?);
        }
        Ok(rows)
    }

    /// A `u32` count of items at least `item_bytes` wide each, checked
    /// against the bytes left so no count can size an allocation past
    /// the payload's own length: the row count of a table its caller
    /// reads row by row.
    pub(crate) fn count(&mut self, item_bytes: usize) -> Result<usize, EntryError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(item_bytes) > self.bytes.len() {
            return Err(corrupt(format!(
                "count {n} overruns the {} byte(s) left",
                self.bytes.len()
            )));
        }
        Ok(n)
    }

    /// The summed byte length of the next `n` string fields, read ahead
    /// without consuming them (and without checking their UTF-8, which
    /// reading them does).
    pub(crate) fn str_bytes(&self, n: usize) -> Result<usize, EntryError> {
        let mut ahead = Reader { bytes: self.bytes };
        let mut total = 0;
        for _ in 0..n {
            let len = ahead.count(1)?;
            ahead.bytes = &ahead.bytes[len..];
            total += len;
        }
        Ok(total)
    }

    /// Ends the read: leftover bytes mean the payload is not what the
    /// reader expected.
    pub(crate) fn finish(self) -> Result<(), EntryError> {
        match self.bytes.len() {
            0 => Ok(()),
            n => Err(corrupt(format!("{n} trailing byte(s) after the last field"))),
        }
    }
}

/// Damage generators shared by the payload decoders' fuzz tests.
#[cfg(test)]
pub(crate) mod fuzz {
    use crate::entry::EntryError;
    use seldon_telemetry::MemoryGauge;

    /// Process heap high-water mark a decode of damaged bytes must stay
    /// under. A row count of `u32::MAX` that sized a `Vec` unchecked
    /// would reserve at least 4 GiB.
    const PEAK_HEAP_LIMIT: u64 = 256 << 20;

    /// Asserts that a decode of damaged bytes was contained: it returned
    /// a value or [`EntryError::Corrupt`] (a panic fails the test by
    /// itself) and allocated nothing near what a forged count asks for.
    pub(crate) fn assert_contained<T>(result: Result<T, EntryError>, what: &str) {
        assert!(
            matches!(result, Ok(_) | Err(EntryError::Corrupt(_))),
            "{what}: damaged payload was neither decoded nor reported corrupt"
        );
        let peak = MemoryGauge::peak_bytes();
        assert!(peak < PEAK_HEAP_LIMIT, "{what}: heap peaked at {peak} bytes");
    }

    /// Decodes every strict truncation of `valid` (each must be corrupt)
    /// and `valid` with each 4-byte window set to `u32::MAX`, which hits
    /// every count and length prefix of the payload.
    pub(crate) fn assert_systematic_damage_is_contained<T>(
        valid: &[u8],
        decode: impl Fn(&[u8]) -> Result<T, EntryError>,
    ) {
        for cut in 0..valid.len() {
            let result = decode(&valid[..cut]);
            assert!(matches!(result, Err(EntryError::Corrupt(_))), "truncation to {cut} bytes");
            assert_contained(result, "truncation");
        }
        for at in 0..valid.len().saturating_sub(3) {
            let mut bad = valid.to_vec();
            bad[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            assert_contained(decode(&bad), &format!("u32::MAX at byte {at}"));
        }
    }

    /// `valid` with each `(position, byte)` written in, positions taken
    /// modulo the payload length.
    pub(crate) fn overwrite(valid: &[u8], writes: &[(usize, u8)]) -> Vec<u8> {
        let mut bad = valid.to_vec();
        for &(at, byte) in writes {
            let len = bad.len();
            bad[at % len] = byte;
        }
        bad
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_field_kind_round_trips() {
        let mut w = Writer::default();
        w.u8(7);
        w.u32(0xdead_beef);
        w.u64(u64::MAX);
        for v in [-0.0, f64::NAN, f64::MIN_POSITIVE] {
            w.f64(v);
        }
        w.str("");
        w.str("weird;rep,with\"chars\\ ünï");
        w.table(&[3u64, 5], |w, &n| w.u64(n));
        w.u8(1);
        let bytes = w.finish();
        let mut r = Reader::new(&bytes);
        assert_eq!((r.u8(), r.u32(), r.u64()), (Ok(7), Ok(0xdead_beef), Ok(u64::MAX)));
        for v in [-0.0, f64::NAN, f64::MIN_POSITIVE] {
            assert_eq!(r.f64().unwrap().to_bits(), v.to_bits(), "floats keep their bits");
        }
        assert_eq!(r.str(), Ok(""));
        assert_eq!(r.str(), Ok("weird;rep,with\"chars\\ ünï"));
        assert_eq!(r.table(8, Reader::usize), Ok(vec![3, 5]));
        assert_eq!(r.bool(), Ok(true));
        assert_eq!(r.finish(), Ok(()));
    }

    fn is_corrupt<T: std::fmt::Debug>(result: Result<T, EntryError>) -> bool {
        matches!(result, Err(EntryError::Corrupt(_)))
    }

    #[test]
    fn counts_past_the_end_are_corrupt_before_allocating() {
        let mut w = Writer::default();
        w.u32(u32::MAX);
        w.u64(0);
        let bytes = w.finish();
        assert!(is_corrupt(Reader::new(&bytes).table(1, Reader::u8)), "table count");
        assert!(is_corrupt(Reader::new(&bytes).str()), "string length");
        // Two rows need 16 bytes at 8 wide, but fit the 8 left at 4 wide.
        let mut w = Writer::default();
        w.u32(2);
        w.u64(0);
        let bytes = w.finish();
        assert!(is_corrupt(Reader::new(&bytes).table(8, Reader::u64)));
        assert_eq!(Reader::new(&bytes).table(4, Reader::u32), Ok(vec![0, 0]));
    }

    #[test]
    fn short_fields_bad_text_bad_bools_and_trailing_bytes_are_corrupt() {
        assert!(is_corrupt(Reader::new(&[1, 2, 3]).u32()));
        assert!(is_corrupt(Reader::new(&[1, 0, 0, 0, 0xff]).str()), "invalid UTF-8");
        assert!(is_corrupt(Reader::new(&[2]).bool()));
        let mut r = Reader::new(&[1, 2]);
        assert_eq!(r.u8(), Ok(1));
        assert!(is_corrupt(r.finish()), "one byte left over");
    }
}
