//! On-disk entry codec: checksummed header + payload, written atomically.
//!
//! Every cache file — per-file artifacts and the solver checkpoint alike —
//! uses one frame format:
//!
//! ```text
//! seldon-cache <version> <checksum:016x> <payload-len>\n
//! <payload bytes>
//! ```
//!
//! The header is a single ASCII line: a magic token, the cache format
//! version, the word-at-a-time [`checksum`] of the payload, and the
//! payload length in bytes (which the checksum does not cover alone: it
//! is blind to trailing zero bytes). Reads re-derive the checksum and length before a single
//! payload byte is interpreted, so torn writes, truncations, and bit flips
//! are all caught here and surfaced as [`EntryError::Corrupt`]; a version
//! from another build is [`EntryError::Stale`]. Writers never touch the
//! destination path directly: the frame goes to a unique temp file in the
//! same directory and is moved into place with `rename`, which is atomic
//! on POSIX — a crash mid-write leaves either the old entry or a stray
//! temp file, never a half-written destination.

use crate::hash::checksum;
use std::fmt;
use std::fs;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Magic token opening every entry header.
pub const ENTRY_MAGIC: &str = "seldon-cache";

/// Version stamp of the on-disk entry format. Bump on any change to the
/// frame or payload encodings; readers treat other versions as
/// [`EntryError::Stale`] and recompute.
pub const ENTRY_VERSION: u32 = 6;

/// Why an entry could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EntryError {
    /// The frame is damaged: bad magic, malformed header, payload shorter
    /// or longer than declared, or checksum mismatch.
    Corrupt(String),
    /// The frame is well-formed but written by a different format version.
    Stale {
        /// The version stamped in the entry header.
        found: u32,
    },
}

impl fmt::Display for EntryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EntryError::Corrupt(detail) => write!(f, "corrupt entry: {detail}"),
            EntryError::Stale { found } => {
                write!(f, "stale entry: format v{found}, this build reads v{ENTRY_VERSION}")
            }
        }
    }
}

impl std::error::Error for EntryError {}

/// Frames a payload with the checksummed header.
pub fn encode_entry(payload: &[u8]) -> Vec<u8> {
    let header = format!(
        "{ENTRY_MAGIC} {ENTRY_VERSION} {:016x} {}\n",
        checksum(payload),
        payload.len()
    );
    let mut out = Vec::with_capacity(header.len() + payload.len());
    out.extend_from_slice(header.as_bytes());
    out.extend_from_slice(payload);
    out
}

/// Validates a frame and returns its payload slice.
///
/// # Errors
///
/// [`EntryError::Corrupt`] on any byte-level damage, [`EntryError::Stale`]
/// on a format-version mismatch (checked before the checksum, so a stale
/// entry is reported as stale even though its checksum also differs from
/// what this build would have written).
pub fn decode_entry(bytes: &[u8]) -> Result<&[u8], EntryError> {
    let line_end = bytes
        .iter()
        .position(|&b| b == b'\n')
        .ok_or_else(|| EntryError::Corrupt("no header line".into()))?;
    let header = std::str::from_utf8(&bytes[..line_end])
        .map_err(|_| EntryError::Corrupt("header is not UTF-8".into()))?;
    let mut tokens = header.split(' ');
    let magic = tokens.next().unwrap_or("");
    if magic != ENTRY_MAGIC {
        return Err(EntryError::Corrupt(format!("bad magic `{magic}`")));
    }
    let version: u32 = tokens
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| EntryError::Corrupt("unreadable version".into()))?;
    if version != ENTRY_VERSION {
        return Err(EntryError::Stale { found: version });
    }
    let declared_sum = tokens
        .next()
        .and_then(|t| u64::from_str_radix(t, 16).ok())
        .ok_or_else(|| EntryError::Corrupt("unreadable checksum".into()))?;
    let declared_len: usize = tokens
        .next()
        .filter(|_| tokens.next().is_none())
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| EntryError::Corrupt("unreadable payload length".into()))?;
    let payload = &bytes[line_end + 1..];
    if payload.len() != declared_len {
        return Err(EntryError::Corrupt(format!(
            "payload is {} byte(s), header declares {declared_len}",
            payload.len()
        )));
    }
    let actual = checksum(payload);
    if actual != declared_sum {
        return Err(EntryError::Corrupt(format!(
            "checksum {actual:016x} != header {declared_sum:016x}"
        )));
    }
    Ok(payload)
}

/// Process-wide counter making concurrent temp names unique.
static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Writes `bytes` to `path` via a unique same-directory temp file and an
/// atomic rename. Concurrent writers of the same path race benignly: each
/// rename installs one complete frame, and the loser's frame simply
/// replaces the winner's.
///
/// # Errors
///
/// Any I/O error from the temp write or the rename; the temp file is
/// cleaned up on failure.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let dir = path.parent().unwrap_or_else(|| Path::new("."));
    let seq = TEMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let tmp = dir.join(format!(
        ".tmp-{}-{seq}-{}",
        std::process::id(),
        path.file_name().and_then(|n| n.to_str()).unwrap_or("entry")
    ));
    let result = (|| {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_data()?;
        fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let payload = b"{\"v\":1}";
        let frame = encode_entry(payload);
        assert_eq!(decode_entry(&frame).unwrap(), payload);
    }

    #[test]
    fn truncation_is_corrupt() {
        let frame = encode_entry(b"hello world");
        for cut in 0..frame.len() {
            let err = decode_entry(&frame[..cut]).unwrap_err();
            assert!(matches!(err, EntryError::Corrupt(_)), "cut at {cut}: {err}");
        }
    }

    #[test]
    fn any_single_bit_flip_is_detected() {
        let frame = encode_entry(b"payload bytes under test");
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0x10;
            assert!(decode_entry(&bad).is_err(), "flip at byte {i} went unnoticed");
        }
    }

    #[test]
    fn version_skew_is_stale_not_corrupt() {
        let frame = encode_entry(b"x");
        let text = String::from_utf8(frame).unwrap();
        let skewed = text.replacen(&format!(" {ENTRY_VERSION} "), " 999 ", 1);
        assert_eq!(
            decode_entry(skewed.as_bytes()).unwrap_err(),
            EntryError::Stale { found: 999 }
        );
    }

    #[test]
    fn trailing_garbage_is_corrupt() {
        let mut frame = encode_entry(b"x");
        frame.extend_from_slice(b"zzz");
        assert!(matches!(decode_entry(&frame).unwrap_err(), EntryError::Corrupt(_)));
    }

    #[test]
    fn atomic_write_replaces_whole_file() {
        let dir = std::env::temp_dir().join(format!("seldon-entry-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("e.entry");
        write_atomic(&path, &encode_entry(b"first")).unwrap();
        write_atomic(&path, &encode_entry(b"second")).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(decode_entry(&bytes).unwrap(), b"second");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
