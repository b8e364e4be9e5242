//! The constant-density scaling scenario the benchmark package measures.
//!
//! Dense-MANET scaling studies hold *density* fixed — more hosts on a
//! proportionally larger field — because a fixed 1000 m field with a
//! 250 m radio saturates: past ~100 hosts a single broadcast reaches most
//! of the network and no index can beat Ω(N) receivers per transmission.
//! The family keeps the paper's density (100 hosts per km²), so the field
//! side is `1000 · √(N/100)` meters and N = 100 *is* the paper's
//! environment (DESIGN.md §10).

use ecgrid::{Ecgrid, EcgridConfig};
use geo::GridMap;
use manet::trace::TraceMode;
use manet::{HostSetup, NeighborIndex, NodeId, World, WorldConfig};
use mobility::{MobilityModel, RandomWaypoint};
use sim_engine::{RngFactory, SimTime};
use traffic::{FlowSet, FlowSpec};

/// The paper's radio range (m).
pub const RANGE_M: f64 = 250.0;

/// Field side holding the paper's density (100 hosts / km²) at `n` hosts.
pub fn field_side(n: usize) -> f64 {
    1000.0 * (n as f64 / 100.0).sqrt()
}

/// Build the constant-density broadcast-heavy scenario world: `n` ECGRID
/// hosts on the `field_side(n)` field, paper MAC/energy/RAS, 10 CBR
/// flows, digest-only tracing, mobility traces covering
/// `duration_secs + 10`.
pub fn build_world(n: usize, duration_secs: f64, mode: NeighborIndex, seed: u64) -> World<Ecgrid> {
    let side = field_side(n);
    let cfg = WorldConfig {
        grid: GridMap::new(side, side, 100.0),
        ..WorldConfig::paper_default(seed)
    }
    .with_neighbor_index(mode);
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
