//! Memory bounds asserted on live heap bytes, not on wall-clock RSS.
//!
//! This binary installs a counting global allocator (a `System` wrapper
//! tracking live bytes and their high water), so it holds a single test:
//! the harness's other threads stay idle while it measures.
//!
//! Planning must stay sub-quadratic in stations. At venue scale (≈5,000
//! stations) any full-roster `f64` matrix is 200 MB, so a 32 MB ceiling on
//! a whole `run_sharded` call catches one on any path, including a path
//! that builds it and then declines.

use congestion_bench::streaming::run_sharded;
use ietf_workloads::{venue_campus, CampusScale};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct CountingAlloc;

fn grew(bytes: usize) {
    let now = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters are plain
// statistics and publish no memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            grew(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f` and returns its result with the peak live heap (everything
/// allocated, not just what `f` added) while it ran, in bytes.
fn peak_live_bytes<R>(f: impl FnOnce() -> R) -> (R, usize) {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
    let r = f();
    (r, PEAK.load(Ordering::Relaxed))
}

/// The 5,000-user campus through `run_sharded` at the default shard cap:
/// partition, per-shard build and run, merge — under 32 MB of live heap.
#[test]
fn venue_run_sharded_peak_heap_is_bounded() {
    const CEILING: usize = 32 << 20;
    let scenario = venue_campus(CampusScale {
        duration_s: 1,
        ..CampusScale::venue_5k(1)
    });
    let (run, peak) = peak_live_bytes(|| run_sharded(scenario, 1_000_000, 2, usize::MAX));
    assert!(run.shards > 1, "the campus shards ({} shards)", run.shards);
    assert!(
        peak < CEILING,
        "run_sharded peaked at {:.1} MB of live heap (ceiling {} MB)",
        peak as f64 / 1e6,
        CEILING >> 20
    );
}
