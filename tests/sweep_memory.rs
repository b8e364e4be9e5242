//! A sweep's peak memory follows its thread count, not its point count
//! (DESIGN.md §9): a finished replica leaves behind its slim record — two
//! sampled series and a handful of scalars — never the run's full result,
//! so while a sweep of any length runs, what is live is one world per
//! worker thread plus a little per finished point.
//!
//! This file is its own test binary with one test in it: the counting
//! allocator below is process-wide, so nothing else may allocate while
//! the sweeps are measured.  Run with `--nocapture` to see the peaks.

use ecgrid_suite::runner::{sweep, AveragedResult, ProtocolKind, Scenario};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// Live and peak-live heap bytes (Relaxed: the counters publish no other
/// data, and they are read only once the sweep's threads have joined).
struct CountingAlloc;

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's own layout
// and pointer and only adds bookkeeping on integers, so the `GlobalAlloc`
// contract is exactly `System`'s.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same layout the caller handed us.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc`/`realloc` above with this layout.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`/`layout` describe a live block of this allocator.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Relaxed);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// A point whose packet accounting is not small beside its world: 10
/// flows x 2 pkt/s from second 5 to 105 is 2 000 packets through 50 hosts
/// (a ~260 KB world; the ledger is 32 KB, and was 210 KB as hash maps).
fn point(seed: u64) -> Scenario {
    Scenario {
        protocol: ProtocolKind::Ecgrid,
        n_hosts: 50,
        max_speed: 1.0,
        pause_secs: 0.0,
        n_flows: 10,
        flow_rate_pps: 2.0,
        duration_secs: 105.0,
        seed,
        model1_endpoints: 2,
    }
}

/// Sweep `rounds` copies of the same `threads` one-replica points — the
/// sweep gets longer, what one worker holds at a time does not — and
/// return the heap's growth at its highest while the sweep ran and what
/// is still live now that it has returned, both over the heap as it stood
/// before the call.
fn measured_sweep(threads: usize, rounds: usize) -> (usize, usize, Vec<AveragedResult>) {
    let points: Vec<Scenario> = (0..threads * rounds)
        .map(|i| point(100 + (i % threads) as u64))
        .collect();
    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    let out = sweep(&points, 1);
    let (peak, live) = (PEAK.load(Relaxed), LIVE.load(Relaxed));
    assert_eq!(out.len(), points.len());
    (peak - before, live.saturating_sub(before), out)
}

/// Heap bytes the averages themselves need: the structs and their two
/// series at 16 B a sample.
fn payload_bytes(out: &[AveragedResult]) -> usize {
    let samples: usize = out
        .iter()
        .map(|a| a.alive.points().len() + a.aen.points().len())
        .sum();
    std::mem::size_of_val(out) + 16 * samples
}

#[test]
fn peak_memory_follows_the_thread_count_and_only_the_averages_outlive_a_sweep() {
    // one worker per core, each claiming the next point: with T points or
    // 8·T, T worlds are live at once
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    // lazy one-time allocations (thread bookkeeping, stdio) happen here
    drop(measured_sweep(threads, 1));

    let (peak_few, left_few, few) = measured_sweep(threads, 1);
    let payload_few = payload_bytes(&few);
    drop(few);
    let (peak_many, left_many, many) = measured_sweep(threads, 8);
    let payload_many = payload_bytes(&many);
    println!(
        "sweep memory, {threads} thread(s): peak heap growth {peak_few} B over {threads} points, \
         {peak_many} B over {} points (x{:.2}); left live after return {left_few} B / {left_many} B \
         for {payload_few} B / {payload_many} B of averages",
        8 * threads,
        peak_many as f64 / peak_few as f64,
    );
    assert!(
        peak_many * 2 <= peak_few * 3,
        "eight times the points grew the peak from {peak_few} B to {peak_many} B: more than x1.5"
    );
    // a vector that grew by doubling holds at most twice its contents
    for (left, payload) in [(left_few, payload_few), (left_many, payload_many)] {
        assert!(
            left <= 2 * payload + 1024,
            "{left} B stayed live behind {payload} B of averaged results"
        );
    }
}
