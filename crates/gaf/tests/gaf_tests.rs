//! End-to-end tests for GAF over the full simulator (Model 1 setup).

use gaf::{GafProto, GafState};
use manet::{FlowSet, HostSetup, NodeId, Point2, SimDuration, SimTime, World, WorldConfig};
use mobility::MobilityTrace;
use traffic::{CbrFlow, FlowId};

const HORIZON: SimTime = SimTime(3_000_000_000_000);

fn still(x: f64, y: f64) -> HostSetup {
    HostSetup::paper(MobilityTrace::stationary(Point2::new(x, y), HORIZON))
}

fn still_infinite(x: f64, y: f64) -> HostSetup {
    HostSetup::infinite(MobilityTrace::stationary(Point2::new(x, y), HORIZON))
}

/// 2 infinite-energy endpoints at the ends, GAF relays in between
/// (Model 1 in miniature).  Endpoints are nodes 0 and 1.
fn model1_world(seed: u64, stop_s: u64) -> World<GafProto> {
    let mut hosts = vec![still_infinite(30.0, 50.0), still_infinite(450.0, 50.0)];
    // two GAF relays per intermediate grid so there is sleep opportunity
    for x in [150.0, 170.0, 250.0, 270.0, 350.0, 370.0] {
        hosts.push(still(x, 50.0));
    }
    let flows = FlowSet::new(vec![CbrFlow {
        id: FlowId(0),
        src: NodeId(0),
        dst: NodeId(1),
        packet_bytes: 512,
        interval: SimDuration::from_secs(1),
        start: SimTime::from_secs(3),
        stop: SimTime::from_secs(stop_s),
        burst: None,
    }]);
    World::new(WorldConfig::paper_default(seed), hosts, flows, |id| {
        if id.index() < 2 {
            GafProto::endpoint(id)
        } else {
            GafProto::new(id)
        }
    })
}

#[test]
fn one_active_per_grid_and_redundant_nodes_sleep() {
    let mut w = model1_world(1, 3);
    w.run_until(SimTime::from_secs(20));
    // in each 2-relay grid, exactly one is active and one sleeps
    for (a, b) in [(2u32, 3u32), (4, 5), (6, 7)] {
        let sa = w.protocol(NodeId(a)).state();
        let sb = w.protocol(NodeId(b)).state();
        let actives = [sa, sb].iter().filter(|s| **s == GafState::Active).count();
        let sleepers = [sa, sb].iter().filter(|s| **s == GafState::Sleeping).count();
        assert_eq!(actives, 1, "grid of {a},{b}: {sa:?} {sb:?}");
        assert_eq!(sleepers, 1, "grid of {a},{b}: {sa:?} {sb:?}");
    }
    // endpoints never duty-cycle
    assert_eq!(w.protocol(NodeId(0)).state(), GafState::Endpoint);
}

#[test]
fn gaf_delivers_end_to_end_with_model1_endpoints() {
    let mut w = model1_world(2, 33);
    w.run_until(SimTime::from_secs(40));
    let pdr = w.ledger().delivery_rate().unwrap();
    assert!(pdr >= 0.9, "pdr {pdr}");
    let lat = w.ledger().mean_latency_ms().unwrap();
    assert!(lat < 60.0, "latency {lat} ms");
}

#[test]
fn gaf_sleepers_save_energy_and_duty_rotates() {
    let mut w = model1_world(3, 3);
    w.run_until(SimTime::from_secs(200));
    // with Ta=60 s, each pair should have rotated duty at least once
    let rotations: u32 = (2..8).map(|i| w.protocol(NodeId(i)).stats.activations).sum();
    assert!(rotations >= 6, "activations {rotations}");
    // and consumption per relay must be well below always-idle
    let idle_baseline = 200.0 * 0.863;
    for i in 2..8u32 {
        let j = w.node_consumed_j(NodeId(i));
        assert!(
            j < idle_baseline * 0.95,
            "node {i} consumed {j} J (idle would be {idle_baseline})"
        );
    }
}

#[test]
fn gaf_runs_deterministically() {
    let run = || {
        let mut w = model1_world(7, 20);
        w.run_until(SimTime::from_secs(30));
        (*w.stats(), w.ledger().delivered_count())
    };
    assert_eq!(run(), run());
}
