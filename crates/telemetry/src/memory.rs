//! Heap accounting: a counting [`GlobalAlloc`] shim plus best-effort
//! peak-RSS sampling.
//!
//! The shim wraps the system allocator and maintains two process-global
//! relaxed atomics: the **current** number of live heap bytes and the
//! monotone **high-water mark**. Installing it here (the telemetry crate
//! is a dependency of every workspace binary) makes the counters
//! available program-wide without per-crate opt-in. The accounting adds
//! one relaxed `fetch_add` per allocation and a load-then-`fetch_max`
//! only when a new peak is reached — small against the cost of the
//! underlying `malloc`, and identical on the telemetry-on and
//! telemetry-off paths, so the no-op overhead `pipeline_bench` reports
//! as `trace.overhead_pct` is unaffected.
//!
//! Caveats (also documented in DESIGN.md §3h): the counters see only
//! Rust heap allocations routed through the global allocator — stacks,
//! memory-mapped files, and allocator slack are invisible, which is why
//! [`MemoryGauge::peak_rss_bytes`] additionally samples the kernel's
//! `VmHWM` on Linux. The peak is monotone and never reset, so a span's
//! recorded peak is "high-water mark by span close", not a span-local
//! maximum.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static CURRENT: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

#[inline]
fn on_alloc(size: usize) {
    let now = CURRENT.fetch_add(size as u64, Relaxed) + size as u64;
    // Racy check-then-max keeps the common (non-peak) path to one load;
    // fetch_max makes the slow path correct under contention.
    if now > PEAK.load(Relaxed) {
        PEAK.fetch_max(now, Relaxed);
    }
}

#[inline]
fn on_dealloc(size: usize) {
    CURRENT.fetch_sub(size as u64, Relaxed);
}

/// The counting allocator shim; installed as the `#[global_allocator]`
/// for every binary that (transitively) links this crate.
pub struct CountingAlloc;

// SAFETY: delegates every operation to `System` unchanged; the byte
// accounting has no effect on the returned pointers or layouts.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        on_dealloc(layout.size());
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            on_dealloc(layout.size());
            on_alloc(new_size);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A point-in-time heap reading from the counting allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemSnapshot {
    /// Live heap bytes right now.
    pub current_bytes: u64,
    /// Monotone high-water mark of live heap bytes since process start.
    pub peak_bytes: u64,
}

/// Process-wide memory readings backed by [`CountingAlloc`] plus
/// best-effort kernel RSS sampling.
#[derive(Debug, Clone, Copy, Default)]
pub struct MemoryGauge;

impl MemoryGauge {
    /// Live heap bytes allocated through the global allocator.
    pub fn current_bytes() -> u64 {
        CURRENT.load(Relaxed)
    }

    /// Monotone high-water mark of live heap bytes since process start.
    pub fn peak_bytes() -> u64 {
        PEAK.load(Relaxed)
    }

    /// Both counters in one call (still two relaxed loads; the pair is
    /// not atomic, which is fine for reporting).
    pub fn snapshot() -> MemSnapshot {
        MemSnapshot { current_bytes: Self::current_bytes(), peak_bytes: Self::peak_bytes() }
    }

    /// The kernel's peak resident-set size (`VmHWM`) in bytes, when the
    /// platform exposes it (`/proc/self/status` on Linux); `None`
    /// elsewhere or on read failure.
    pub fn peak_rss_bytes() -> Option<u64> {
        #[cfg(target_os = "linux")]
        {
            let status = std::fs::read_to_string("/proc/self/status").ok()?;
            for line in status.lines() {
                if let Some(rest) = line.strip_prefix("VmHWM:") {
                    let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
                    return Some(kb * 1024);
                }
            }
            None
        }
        #[cfg(not(target_os = "linux"))]
        {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocations_move_the_counters() {
        // Other test threads allocate concurrently, so only assert on
        // properties that hold under interference: the block is live at
        // the `during` reading, and the peak is a monotone global.
        let before_peak = MemoryGauge::peak_bytes();
        let block = vec![0u8; 16 << 20];
        let during = MemoryGauge::snapshot();
        assert!(
            during.current_bytes >= 16 << 20,
            "a live 16 MiB block must be visible in current ({during:?})"
        );
        assert!(during.peak_bytes >= 16 << 20, "peak must cover the live block");
        assert!(during.peak_bytes >= before_peak, "peak is monotone");
        drop(block);
        assert!(MemoryGauge::peak_bytes() >= during.peak_bytes, "peak survives dealloc");
    }

    #[test]
    fn peak_rss_is_plausible_when_available() {
        if let Some(rss) = MemoryGauge::peak_rss_bytes() {
            // A running test binary surely has more than 1 MiB resident
            // and (sanity bound) less than 1 TiB.
            assert!(rss > 1 << 20, "VmHWM {rss} too small");
            assert!(rss < 1 << 40, "VmHWM {rss} too large");
        }
    }
}
