//! The core scaling benchmark family: how the simulator's hot paths grow
//! with population.
//!
//! Methodology (documented in DESIGN.md §10):
//!
//! * **Constant density.**  Dense-MANET scaling studies hold *density*
//!   fixed — more hosts on a proportionally larger field — because a
//!   fixed 1000 m field with a 250 m radio saturates: past ~100 hosts a
//!   single broadcast reaches most of the network and no index (nor any
//!   algorithm) can beat Ω(N) receivers per transmission.  The family
//!   keeps the paper's density (100 hosts per km²), so the field side is
//!   `1000 · √(N/100)` meters and N = 100 *is* the paper's environment.
//! * **Broadcast-heavy.**  Every protocol here beacons and floods; each
//!   transmission must discover its audience.  The headline microbench
//!   ([`discovery_sweep`]) runs a full discovery round through the
//!   *simulator's own* query path (`World::neighbors_of`) — brute mode
//!   scans every node record per query, grid mode reads the maintained
//!   bucket index.  That is the unit of work the delivery loop executes
//!   per flood wave, and the cost the index was built to cut.
//! * **Geometry kernels.**  [`broadcast_round_brute`] /
//!   [`broadcast_round_grid`] are the same query over a bare `Point2`
//!   array — a lower bound that isolates index overhead from node-state
//!   memory traffic.  Both return identical receiver sets (the property
//!   tests prove it; the checksums here double-check per run).
//!
//! The end-to-end harness runs the same constant-density scenario through
//! the full simulator under `NeighborIndex::Brute` and
//! `NeighborIndex::Grid` and checks the trace digests match — the wall
//! times are real end-to-end numbers, not model extrapolations.

use ecgrid::{Ecgrid, EcgridConfig};
use geo::{GridMap, Point2};
use manet::trace::TraceMode;
use manet::{auto_gather_threshold, HostSetup, NeighborIndex, NodeId, World, WorldConfig};
use mobility::{MobilityModel, RandomWaypoint};
use radio::{ChannelState, SpatialIndex};
use sim_engine::{RngFactory, SimTime, SplitMix64};
use std::time::Instant;
use traffic::{FlowSet, FlowSpec};

/// The population ladder.
pub const SCALES: [usize; 7] = [50, 100, 200, 500, 1000, 5000, 10000];

/// Largest scale `--quick` (CI) mode climbs to; the full ladder is for
/// the committed baseline run.
pub const QUICK_MAX_N: usize = 1000;

/// The paper's radio range (m).
pub const RANGE_M: f64 = 250.0;

/// Field side holding the paper's density (100 hosts / km²) at `n` hosts.
pub fn field_side(n: usize) -> f64 {
    1000.0 * (n as f64 / 100.0).sqrt()
}

/// Deterministic uniform placements on the constant-density field.
pub fn placements(n: usize, seed: u64) -> Vec<Point2> {
    let side = field_side(n);
    let mut rng = SplitMix64::new(seed);
    let mut unit = move || {
        // 53-bit mantissa draw in [0, 1)
        (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n)
        .map(|_| Point2::new(unit() * side, unit() * side))
        .collect()
}

/// Range-sized bucket index over `points` (ids are the point indices).
pub fn build_index(points: &[Point2], n: usize) -> SpatialIndex {
    let side = field_side(n);
    let mut idx = SpatialIndex::new(side, side, RANGE_M);
    for (i, p) in points.iter().enumerate() {
        idx.insert_at(i as u32, *p);
    }
    idx
}

/// One brute broadcast round: every host discovers its receivers by
/// scanning all N positions.  Returns a checksum over (receiver count,
/// id sum) so the work cannot be optimized away and the grid round can be
/// cross-checked against it.
pub fn broadcast_round_brute(points: &[Point2]) -> u64 {
    let mut acc = 0u64;
    for (i, q) in points.iter().enumerate() {
        for (j, p) in points.iter().enumerate() {
            if i != j && q.within_range(*p, RANGE_M) {
                acc = acc.wrapping_add(j as u64).wrapping_add(1);
            }
        }
    }
    acc
}

/// The simulator's Chebyshev cell reach on the paper grid (250 m range,
/// 100 m cells — same derivation as `World::new`); its occupancy
/// crossover `auto_gather_threshold(4) = 243` sits between the bench's
/// historically regressing scales (N ≤ 200) and its winning ones
/// (N ≥ 500).
pub const PAPER_REACH_CELLS: i32 = 4;

/// The adaptive geometry round — the micro-bench analogue of the
/// simulator's per-query occupancy fallback.  At low N the range-sized 3×3 bucket
/// neighborhood spans most of the constant-density field, so bucket
/// headers and the merge-sort are pure overhead over the
/// branch-predictable linear scan (the 0.34x–0.87x regression band);
/// populations at or below the simulator's own occupancy crossover
/// therefore take the brute round, larger ones query the index.
/// Checksum-compatible with both fixed rounds by construction.
pub fn broadcast_round_auto(points: &[Point2], idx: &SpatialIndex, scratch: &mut Vec<u32>) -> u64 {
    if points.len() <= auto_gather_threshold(PAPER_REACH_CELLS) {
        broadcast_round_brute(points)
    } else {
        broadcast_round_grid(points, idx, scratch)
    }
}

/// One grid broadcast round: every host gathers its 3×3 bucket
/// neighborhood and applies the same exact filter.  Checksum-compatible
/// with [`broadcast_round_brute`].
pub fn broadcast_round_grid(points: &[Point2], idx: &SpatialIndex, scratch: &mut Vec<u32>) -> u64 {
    let mut acc = 0u64;
    for (i, q) in points.iter().enumerate() {
        idx.query_point_sorted_into(*q, scratch);
        for &j in scratch.iter() {
            if j as usize != i && q.within_range(points[j as usize], RANGE_M) {
                acc = acc.wrapping_add(j as u64).wrapping_add(1);
            }
        }
    }
    acc
}

/// Population above which the simulator enables the channel's spatial
/// bucket structure (`World::new`'s `channel_spatial` policy) — the
/// carrier-sense bench follows the same crossover so its bucketed leg
/// measures what the simulator actually runs at each N.
pub fn channel_spatial_threshold() -> usize {
    auto_gather_threshold(PAPER_REACH_CELLS)
}

/// A channel loaded with `k` in-flight transmissions spread over the
/// field, for the carrier-sense microbench.  `spatial` toggles the bucket
/// index.
pub fn loaded_channel(points: &[Point2], k: usize, n: usize, spatial: bool) -> ChannelState {
    let mut ch = ChannelState::new(RANGE_M);
    if spatial {
        let side = field_side(n);
        ch.enable_spatial(side, side);
    }
    for (i, p) in points.iter().take(k).enumerate() {
        ch.begin_tx(
            NodeId(i as u32),
            *p,
            RANGE_M,
            SimTime::from_millis(10),
            SimTime::from_millis(12),
        );
    }
    ch
}

/// One carrier-sense round: every host senses the medium.  Checksum over
/// the busy verdicts.
pub fn carrier_sense_round(ch: &ChannelState, points: &[Point2]) -> u64 {
    let at = SimTime::from_millis(11);
    let mut acc = 0u64;
    for p in points {
        if ch.busy_until(*p, at).is_some() {
            acc = acc.wrapping_add(1);
        }
    }
    acc
}

/// Build the constant-density broadcast-heavy scenario world: `n` ECGRID
/// hosts on the `field_side(n)` field, paper MAC/energy/RAS, 10 CBR
/// flows, digest-only tracing, mobility traces covering
/// `duration_secs + 10`.
pub fn build_world(n: usize, duration_secs: f64, mode: NeighborIndex, seed: u64) -> World<Ecgrid> {
    build_world_sharded(n, duration_secs, mode, seed, None)
}

/// [`build_world`] on the sharded conservative-sync engine when `shards`
/// is `Some(k)` (serial otherwise).  Digest-identical either way.
pub fn build_world_sharded(
    n: usize,
    duration_secs: f64,
    mode: NeighborIndex,
    seed: u64,
    shards: Option<usize>,
) -> World<Ecgrid> {
    build_world_parallel(n, duration_secs, mode, seed, shards, 1)
}

/// [`build_world_sharded`] with `threads` worker lanes for the parallel
/// engine's host-plane kernels (ignored on the serial engine).
/// Digest-identical at every T.
pub fn build_world_parallel(
    n: usize,
    duration_secs: f64,
    mode: NeighborIndex,
    seed: u64,
    shards: Option<usize>,
    threads: usize,
) -> World<Ecgrid> {
    let side = field_side(n);
    let mut cfg = WorldConfig {
        grid: GridMap::new(side, side, 100.0),
        ..WorldConfig::paper_default(seed)
    }
    .with_neighbor_index(mode);
    if let Some(k) = shards {
        cfg = cfg.with_parallel_world(k).with_threads(threads);
    }
    let end = SimTime::from_secs_f64(duration_secs);
    let horizon = end + sim_engine::SimDuration::from_secs(10);
    let rngs = RngFactory::new(seed);
    let model = RandomWaypoint {
        field_w: side,
        field_h: side,
        max_speed: 1.0,
        min_speed: 0.01,
        pause_secs: 0.0,
    };
    let hosts: Vec<HostSetup> = (0..n)
        .map(|i| HostSetup::paper(model.build_trace(&mut rngs.stream("mobility", i as u64), horizon)))
        .collect();
    let ids: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
    let spec = FlowSpec {
        n_flows: 10,
        packet_bytes: 512,
        rate_pps: 1.0,
        start: SimTime::from_secs(1),
        stop: end,
        stagger: true,
    };
    let flows = FlowSet::random(&mut rngs.stream("traffic", 0), &ids, &spec);
    let mut world = World::new(cfg, hosts, flows, |id| Ecgrid::new(EcgridConfig::default(), id));
    world.enable_trace(TraceMode::DigestOnly);
    world
}

/// One receiver-discovery round through the **simulator's own** query
/// path: every host asks the world who can hear it, exactly as the
/// delivery loop does per transmission.  The answer (membership *and*
/// order) is mode-independent; the cost is what the spatial index exists
/// to cut.  Returns an order-sensitive checksum so the caller can assert
/// brute and grid worlds agree.
pub fn discovery_sweep(world: &World<Ecgrid>) -> u64 {
    let mut acc = 0u64;
    for i in 0..world.node_count() {
        let cell = world.node_cell(NodeId(i as u32));
        for (k, id) in world.neighbors_of(cell).into_iter().enumerate() {
            acc = acc
                .wrapping_mul(31)
                .wrapping_add(id.0 as u64)
                .wrapping_add(k as u64);
        }
    }
    acc
}

/// Result of one full-simulator run of the scaling scenario.
pub struct EndToEnd {
    pub wall_s: f64,
    pub digest: u64,
    pub events: u64,
}

/// Run the [`build_world`] scenario end to end.  Identical
/// (n, seed, duration) runs are bit-identical across `mode`s — the
/// caller should assert it.
pub fn run_end_to_end(n: usize, duration_secs: f64, mode: NeighborIndex, seed: u64) -> EndToEnd {
    run_end_to_end_sharded(n, duration_secs, mode, seed, None)
}

/// [`run_end_to_end`] on the sharded engine when `shards` is `Some(k)`.
/// The digest must equal the serial run's — the bench caller asserts it,
/// so the parallel column can never buy speed with a behavior change.
pub fn run_end_to_end_sharded(
    n: usize,
    duration_secs: f64,
    mode: NeighborIndex,
    seed: u64,
    shards: Option<usize>,
) -> EndToEnd {
    run_end_to_end_parallel(n, duration_secs, mode, seed, shards, 1)
}

/// [`run_end_to_end_sharded`] with `threads` worker lanes.  The digest
/// must equal the serial run's at every T — the bench caller asserts it.
pub fn run_end_to_end_parallel(
    n: usize,
    duration_secs: f64,
    mode: NeighborIndex,
    seed: u64,
    shards: Option<usize>,
    threads: usize,
) -> EndToEnd {
    let mut world = build_world_parallel(n, duration_secs, mode, seed, shards, threads);
    let end = SimTime::from_secs_f64(duration_secs);
    let start = Instant::now();
    world.run_until(end);
    let wall_s = start.elapsed().as_secs_f64();
    let rec = world.take_recorder().expect("tracing was enabled");
    EndToEnd {
        wall_s,
        digest: rec.digest().0,
        events: rec.profile().dispatched,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micro_rounds_agree_at_every_scale() {
        // the brute round is O(N²); cap the debug-build test at the quick
        // ladder (the release bench asserts the same equality at 5k/10k)
        for &n in SCALES.iter().filter(|&&n| n <= QUICK_MAX_N) {
            let pts = placements(n, 0xbeef);
            let idx = build_index(&pts, n);
            let mut scratch = Vec::new();
            assert_eq!(
                broadcast_round_brute(&pts),
                broadcast_round_grid(&pts, &idx, &mut scratch),
                "n={n}: rounds disagree"
            );
            assert_eq!(
                broadcast_round_brute(&pts),
                broadcast_round_auto(&pts, &idx, &mut scratch),
                "n={n}: adaptive round disagrees"
            );
        }
    }

    #[test]
    fn auto_round_crossover_matches_the_simulator() {
        // brute side of the crossover at the regression band, grid side
        // above it — the whole point of routing through the threshold
        assert!(auto_gather_threshold(PAPER_REACH_CELLS) >= 200);
        assert!(auto_gather_threshold(PAPER_REACH_CELLS) < 500);
    }

    #[test]
    fn carrier_sense_rounds_agree() {
        let n = 200;
        let pts = placements(n, 7);
        let plain = loaded_channel(&pts, 32, n, false);
        let fast = loaded_channel(&pts, 32, n, true);
        assert_eq!(
            carrier_sense_round(&plain, &pts),
            carrier_sense_round(&fast, &pts)
        );
    }

    #[test]
    fn discovery_sweeps_agree_across_modes() {
        for &n in &[50usize, 200] {
            let brute = build_world(n, 5.0, NeighborIndex::Brute, 9);
            let grid = build_world(n, 5.0, NeighborIndex::Grid, 9);
            assert_eq!(
                discovery_sweep(&brute),
                discovery_sweep(&grid),
                "n={n}: simulator query paths disagree"
            );
        }
    }

    #[test]
    fn end_to_end_modes_are_digest_identical() {
        let brute = run_end_to_end(50, 5.0, NeighborIndex::Brute, 3);
        let grid = run_end_to_end(50, 5.0, NeighborIndex::Grid, 3);
        assert_eq!(brute.digest, grid.digest);
        assert_eq!(brute.events, grid.events);
        assert!(grid.events > 1000, "the scenario must actually do work");
        let sharded = run_end_to_end_sharded(50, 5.0, NeighborIndex::Grid, 3, Some(4));
        assert_eq!(sharded.digest, grid.digest, "sharded engine diverged");
        assert_eq!(sharded.events, grid.events);
        let threaded = run_end_to_end_parallel(50, 5.0, NeighborIndex::Grid, 3, Some(4), 2);
        assert_eq!(threaded.digest, grid.digest, "threaded engine diverged");
        assert_eq!(threaded.events, grid.events);
    }
}
