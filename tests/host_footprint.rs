//! A host holds only what it uses (DESIGN.md §11, "Bytes per host"): in
//! ECGRID most hosts sleep, never search for a route and never queue a
//! second frame, so a fleet's heap per host is its columns plus what the
//! few active hosts grew — not storage every host reserves up front.
//!
//! The fleet is `scale_5k`'s at 2 000 hosts: the paper's density
//! (100 hosts/km²), random waypoint at up to 1 m/s, no CBR flows.  The
//! test measures the heap a freshly built world holds and what it holds
//! after 2 s of beacons and elections, both per host, and fails past its
//! bound.  It also measures what `scale_5k`'s setup holds at its peak: the
//! world after its 2 s warm-up while the fresh world the timed run uses is
//! built beside it.  Each figure comes with its deltas per allocation size
//! class, so a future growth names the allocation that grew; the world's
//! cell index is also built alone over the same cells, so its share is
//! printed apart.  The per-host rows themselves are pinned by `size_of`:
//! each holds only per-host state, and what a fleet shares (GRID and
//! ECGRID's protocol constants, the power profile) sits behind one 8-byte
//! handle; GAF, Span and their AODV core run on `const`s and hold none.
//!
//! This file is its own test binary with one test in it: the counting
//! allocator below is process-wide, so nothing else may allocate while
//! the world is measured.  Run with `--nocapture` to see the tables.

use ecgrid_suite::ecgrid::{Ecgrid, EcgridConfig};
use ecgrid_suite::energy::EnergyMeter;
use ecgrid_suite::gaf::GafProto;
use ecgrid_suite::grid_common::GatewayCache;
use ecgrid_suite::grid_routing::GridProto;
use ecgrid_suite::manet::{NodeId, World};
use ecgrid_suite::radio::CellIndex;
use ecgrid_suite::runner::spec_run::{fleet_world, world_config};
use ecgrid_suite::runner::{ProtocolKind, RunOptions, Scenario};
use ecgrid_suite::scenario::ScenarioSpec;
use ecgrid_suite::sim_engine::SimTime;
use ecgrid_suite::span::SpanProto;
use std::alloc::{GlobalAlloc, Layout, System};
use std::mem::size_of;
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering::Relaxed};

const HOSTS: usize = 2000;
const SEED: u64 = 42;

/// Exact 8-byte classes up to this size; powers of two above it.
const SMALL_MAX: usize = 1024;
const CLASSES: usize = SMALL_MAX / 8 + usize::BITS as usize;

static LIVE: AtomicUsize = AtomicUsize::new(0);
/// Live bytes and blocks per size class (Relaxed: the counters publish no
/// other data, and one thread allocates).
static CLASS_BYTES: [AtomicIsize; CLASSES] = [const { AtomicIsize::new(0) }; CLASSES];
static CLASS_BLOCKS: [AtomicIsize; CLASSES] = [const { AtomicIsize::new(0) }; CLASSES];

/// The class of a block of `size` bytes: `size` rounded up to 8 B up to
/// [`SMALL_MAX`], then the next power of two.
fn class_of(size: usize) -> usize {
    if size <= SMALL_MAX {
        size.div_ceil(8)
    } else {
        SMALL_MAX / 8
            + (size.next_power_of_two().trailing_zeros() as usize - SMALL_MAX.trailing_zeros() as usize)
    }
}

/// The largest block size class `c` holds.
fn class_limit(c: usize) -> usize {
    if c <= SMALL_MAX / 8 {
        8 * c
    } else {
        SMALL_MAX << (c - SMALL_MAX / 8)
    }
}

fn count(size: usize, sign: isize) {
    let c = class_of(size);
    CLASS_BYTES[c].fetch_add(sign * size as isize, Relaxed);
    CLASS_BLOCKS[c].fetch_add(sign, Relaxed);
    if sign > 0 {
        LIVE.fetch_add(size, Relaxed);
    } else {
        LIVE.fetch_sub(size, Relaxed);
    }
}

struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's own layout
// and pointer and only adds bookkeeping on integers, so the `GlobalAlloc`
// contract is exactly `System`'s.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same layout the caller handed us.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            count(layout.size(), 1);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc`/`realloc` above with this layout.
        unsafe { System.dealloc(ptr, layout) };
        count(layout.size(), -1);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`/`layout` describe a live block of this allocator.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            count(layout.size(), -1);
            count(new_size, 1);
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Live bytes and blocks per class, and the total.
struct Heap {
    live: usize,
    bytes: Vec<isize>,
    blocks: Vec<isize>,
}

impl Heap {
    fn now() -> Heap {
        Heap {
            live: LIVE.load(Relaxed),
            bytes: CLASS_BYTES.iter().map(|a| a.load(Relaxed)).collect(),
            blocks: CLASS_BLOCKS.iter().map(|a| a.load(Relaxed)).collect(),
        }
    }

    /// Bytes per host live now beyond `base`.
    fn per_host_over(&self, base: &Heap) -> f64 {
        (self.live - base.live) as f64 / HOSTS as f64
    }

    /// One line per size class whose live bytes moved since `base`.
    fn delta_table(&self, base: &Heap) -> String {
        let mut out = String::from("  class (B)   blocks      bytes   B/host\n");
        for c in 0..CLASSES {
            let (bytes, blocks) = (self.bytes[c] - base.bytes[c], self.blocks[c] - base.blocks[c]);
            if bytes != 0 || blocks != 0 {
                out += &format!(
                    "  <= {:>6} {:>+8} {:>+10} {:>+8.1}\n",
                    class_limit(c),
                    blocks,
                    bytes,
                    bytes as f64 / HOSTS as f64
                );
            }
        }
        out
    }
}

/// `scale_5k`'s fleet at [`HOSTS`] hosts: the paper's fleet on a square
/// field grown to keep its density, no flows, built to run for 2 s.
fn fleet() -> ScenarioSpec {
    let mut spec = Scenario {
        n_hosts: HOSTS,
        n_flows: 0,
        duration_secs: 2.0,
        ..Scenario::paper_base(ProtocolKind::Ecgrid, 1.0, SEED)
    }
    .to_spec();
    let side = 1000.0 * (HOSTS as f64 / 100.0).sqrt();
    (spec.field_w, spec.field_h) = (side, side);
    spec
}

fn build(spec: &ScenarioSpec) -> World<Ecgrid> {
    let cfg = world_config(spec, &RunOptions::default());
    fleet_world(spec, ProtocolKind::Ecgrid, cfg, |id| {
        Ecgrid::new(EcgridConfig::default(), id)
    })
}

/// Bounds: the value measured when each was set, + 10 %.  A fresh world
/// read 812.4 B/host, a world after 2 s 1 396.6 B/host, the two side by
/// side 2 209.0 B/host (860.7, 1 477.7 and 2 338.5 while a pending event
/// took 24 B, its pool slot 32 B and its heap entry 24 B, and the pool
/// kept a separate free list; 1 037.0, 1 654.0 and 2 691.0 while the protocol
/// rows held 64-bit counters, an inline RETIRE snapshot and copies of the
/// two TTLs and a pending event took 32 B; 1 277.0 and 2 014.7 while
/// every row held its own copy of the protocol constants and power
/// profile and a neighbour-gateway entry took 24 B; 1 667.4 and 2 737.6
/// before traces kept exactly their segments, route-search state became
/// lazy and MAC queues and election candidates followed use).
const FRESH_BOUND: f64 = 894.0;
const RUN_BOUND: f64 = 1537.0;
const TWO_WORLDS_BOUND: f64 = 2430.0;

/// Each per-host row with its size in bytes when last measured: a row
/// may shrink, never grow past it.
fn rows() -> [(&'static str, usize, usize); 6] {
    [
        ("Ecgrid", size_of::<Ecgrid>(), 344),
        ("GridProto", size_of::<GridProto>(), 264),
        ("GafProto", size_of::<GafProto>(), 328),
        ("SpanProto", size_of::<SpanProto>(), 392),
        ("EnergyMeter", size_of::<EnergyMeter>(), 120),
        ("neighbour-gateway entry", GatewayCache::ENTRY_BYTES, 16),
    ]
}

#[test]
fn a_fresh_and_a_run_world_hold_only_what_their_hosts_use() {
    let spec = fleet();
    // lazy one-time allocations (stdio, thread-locals) happen here
    drop(build(&spec));

    let base = Heap::now();
    let mut world = build(&spec);
    let fresh = Heap::now();
    drop(world.run_until(SimTime::from_secs(2)));
    let run = Heap::now();
    // scale_5k's setup builds the world it times while its warm-up world
    // still lives: its peak is these two
    let beside = build(&spec);
    let two_worlds = Heap::now();
    let (fresh_per_host, run_per_host) = (fresh.per_host_over(&base), run.per_host_over(&base));
    let two_worlds_per_host = two_worlds.per_host_over(&base);
    println!(
        "host footprint, {HOSTS} ECGRID hosts, seed {SEED}: fresh world {fresh_per_host:.1} B/host\n{}\
         after 2 s {run_per_host:.1} B/host (run delta {:+.1} B/host)\n{}\
         after 2 s with a fresh world built beside it {two_worlds_per_host:.1} B/host",
        fresh.delta_table(&base),
        run_per_host - fresh_per_host,
        run.delta_table(&fresh),
    );
    drop(beside);
    drop(world);

    let grid = world_config(&spec, &RunOptions::default()).grid;
    let cells: Vec<_> = {
        let fresh = build(&spec);
        (0..HOSTS as u32).map(|i| fresh.node_cell(NodeId(i))).collect()
    };
    let before = Heap::now();
    let index = CellIndex::new(grid.cells_x(), grid.cells_y(), &cells);
    let after = Heap::now();
    println!(
        "of which the cell index ({}x{} cells): {:.1} B/host\n{}",
        grid.cells_x(),
        grid.cells_y(),
        after.per_host_over(&before),
        after.delta_table(&before)
    );
    drop(index);
    for (row, bytes, bound) in rows() {
        println!("size_of {row}: {bytes} B (bound {bound} B)");
    }
    for (row, bytes, bound) in rows() {
        assert!(bytes <= bound, "a {row} row takes {bytes} B, past its {bound} B");
    }
    assert!(
        fresh_per_host <= FRESH_BOUND,
        "a fresh world holds {fresh_per_host:.1} B/host, past its {FRESH_BOUND} B bound"
    );
    assert!(
        run_per_host <= RUN_BOUND,
        "a world after 2 s holds {run_per_host:.1} B/host, past its {RUN_BOUND} B bound"
    );
    assert!(
        two_worlds_per_host <= TWO_WORLDS_BOUND,
        "a world after 2 s and a fresh one hold {two_worlds_per_host:.1} B/host, \
         past their {TWO_WORLDS_BOUND} B bound"
    );
}
