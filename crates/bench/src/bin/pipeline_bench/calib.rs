//! Host-speed calibration of the recorded timings.
//!
//! On a shared host the cores run slower for stretches of seconds to
//! minutes, and their base speed drifts between such stretches. On the
//! 2-core host this benchmark was written on, a learn-cold op took
//! 420–740 ms within four minutes, and CPU time slowed as much as wall
//! time: the cores ran slower, the op was not waiting to be scheduled. No
//! statistic over one run's ops removes a slowdown that lasts the whole
//! run.
//!
//! So the benchmark times a fixed reference computation next to the ops
//! it measures, and scales each op's time by [`REFERENCE_MS`] over what
//! the reference took around that op: the recorded timings are what the
//! ops would take on the host running at reference speed. Over 25-op
//! windows of that four-minute run, the distance between the quartiles of
//! the median op time was 31% of their median before scaling and 3% after.
//!
//! The reference is this file's own code and calls nothing in the
//! program, so a change to the program cannot move it. Its work is shaped
//! like the pipeline's: tokenizing source text, string keys in a hash
//! map, and float loops like the solver's. A memory-latency probe tracked
//! the op worse and is left out. Changing the reference changes every
//! recorded timing, so two commits compare only under the same one.

use std::collections::HashMap;
use std::fmt::Write;
use std::hint::black_box;
use std::time::Instant;

/// About what one [`reference_ms`] took, in milliseconds, between the ops
/// of the measured loops on the 2-core host the benchmark was written on,
/// when that host was not slowed. It only fixes the scale of the recorded
/// timings: on such a host they read about as measured.
pub const REFERENCE_MS: f64 = 11.0;

/// Functions in the reference's source text.
const FUNCTIONS: usize = 3_000;

/// Keys the reference inserts into and looks up in its hash map.
const KEYS: u64 = 20_000;

/// Length of the reference's float vectors, and passes over them.
const LANES: usize = 32_768;
const PASSES: usize = 60;

/// Times one run of the reference computation, in milliseconds.
pub fn reference_ms() -> f64 {
    let started = Instant::now();
    black_box(reference_work(black_box(FUNCTIONS), black_box(KEYS)));
    started.elapsed().as_secs_f64() * 1e3
}

/// The factor that scales a time measured between two reference timings,
/// `before` and `after` (ms), to the reference host speed.
pub fn scale(before: f64, after: f64) -> f64 {
    2.0 * REFERENCE_MS / (before + after)
}

/// Runs `f` between two reference timings; returns its result and the
/// [`scale`] for times measured during it.
pub fn bracket<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let before = reference_ms();
    let out = f();
    (out, scale(before, reference_ms()))
}

/// The reference computation; returns values derived from all of its work,
/// so none of it can be left out.
fn reference_work(functions: usize, keys: u64) -> (usize, usize, f64) {
    let mut src = String::new();
    for i in 0..functions {
        let _ = write!(
            src,
            "def handler_{i}(req, x{i}):\n    z = flask.request.args.get('k{i}') + {i}\n    \
             return os.system(z)\n"
        );
    }
    let tokens = tokenize(&src);
    let mut counts: HashMap<&str, u32> = HashMap::new();
    for token in &tokens {
        *counts.entry(token).or_default() += 1;
    }

    let mut map = HashMap::new();
    for i in 0..keys {
        map.insert(format!("key-{}", i.wrapping_mul(2_654_435_761)), i);
    }
    let hits =
        (0..keys).filter(|i| map.contains_key(&format!("key-{}", i.wrapping_mul(40_503)))).count();

    let a: Vec<f64> = (0..LANES).map(|i| (i as f64).sin()).collect();
    let mut b = vec![0.5f64; LANES];
    let mut acc = 0.0;
    for pass in 0..PASSES {
        for (bi, ai) in b.iter_mut().zip(&a) {
            *bi = *bi * 0.999 + ai * 0.001 * pass as f64;
        }
        acc += b.iter().zip(&a).map(|(x, y)| x * y).sum::<f64>();
    }
    (tokens.len() + counts.len(), hits + map.len(), acc)
}

/// Splits `src` into identifiers, numbers and single punctuation bytes.
fn tokenize(src: &str) -> Vec<&str> {
    let bytes = src.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let start = i;
        let c = bytes[i];
        if c.is_ascii_alphabetic() || c == b'_' {
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
        } else if c.is_ascii_digit() {
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
        } else {
            i += 1;
            if c.is_ascii_whitespace() {
                continue;
            }
        }
        tokens.push(&src[start..i]);
    }
    tokens
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_host_at_reference_speed_keeps_its_times() {
        assert_eq!(scale(REFERENCE_MS, REFERENCE_MS), 1.0);
        assert_eq!(scale(2.0 * REFERENCE_MS, 2.0 * REFERENCE_MS), 0.5, "half speed halves");
        let (out, factor) = bracket(|| 7);
        assert_eq!(out, 7);
        assert!(factor.is_finite() && factor > 0.0);
    }

    #[test]
    fn the_tokenizer_splits_identifiers_numbers_and_punctuation() {
        assert_eq!(tokenize("z = f(x1, 42)\n"), ["z", "=", "f", "(", "x1", ",", "42", ")"]);
    }
}
