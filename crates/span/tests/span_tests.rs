//! End-to-end tests for the Span baseline.

use manet::{FlowSet, HostSetup, NodeId, Point2, PowerProfile, SimDuration, SimTime, World, WorldConfig};
use mobility::MobilityTrace;
use span::{SpanProto, SpanState};
use traffic::{CbrFlow, FlowId};

const HORIZON: SimTime = SimTime(3_000_000_000_000);

fn still(x: f64, y: f64) -> HostSetup {
    // Span is not location-aware: hosts carry no GPS
    HostSetup {
        profile: PowerProfile::paper_no_gps(),
        ..HostSetup::paper(MobilityTrace::stationary(Point2::new(x, y), HORIZON))
    }
}

fn span_world(hosts: Vec<HostSetup>, flows: FlowSet, seed: u64) -> World<SpanProto> {
    World::new(WorldConfig::paper_default(seed), hosts, flows, SpanProto::new)
}

/// A chain where middle nodes are necessary bridges: 0-1-2-3-4 at 240 m
/// spacing (only adjacent nodes hear each other).
fn chain() -> Vec<HostSetup> {
    (0..5).map(|i| still(20.0 + i as f64 * 240.0, 500.0)).collect()
}

#[test]
fn bridge_nodes_become_coordinators() {
    let mut w = span_world(chain(), FlowSet::default(), 1);
    w.run_until(SimTime::from_secs(15));
    // the middle nodes each see two neighbours that cannot hear each
    // other: the eligibility rule forces them up
    for i in [1u32, 2, 3] {
        assert!(
            w.protocol(NodeId(i)).is_coordinator(),
            "node {i} must coordinate, state {:?}",
            w.protocol(NodeId(i)).state()
        );
    }
    // the chain ends bridge nothing and should duty-cycle
    for i in [0u32, 4] {
        assert!(
            !w.protocol(NodeId(i)).is_coordinator(),
            "end node {i} needs no duty, state {:?}",
            w.protocol(NodeId(i)).state()
        );
    }
}

#[test]
fn span_delivers_over_the_backbone() {
    let flows = FlowSet::new(vec![CbrFlow {
        id: FlowId(0),
        src: NodeId(0),
        dst: NodeId(4),
        packet_bytes: 512,
        interval: SimDuration::from_secs(1),
        start: SimTime::from_secs(5),
        stop: SimTime::from_secs(35),
        burst: None,
    }]);
    let mut w = span_world(chain(), flows, 2);
    w.run_until(SimTime::from_secs(40));
    let pdr = w.ledger().delivery_rate().unwrap();
    assert!(pdr >= 0.9, "pdr {pdr}");
}

#[test]
fn psm_nodes_duty_cycle_and_save_energy() {
    // a dense clique: one/two coordinators suffice, the rest PSM-cycle
    let hosts: Vec<HostSetup> = (0..6)
        .map(|i| still(480.0 + (i % 3) as f64 * 20.0, 480.0 + (i / 3) as f64 * 20.0))
        .collect();
    let mut w = span_world(hosts, FlowSet::default(), 3);
    w.run_until(SimTime::from_secs(120));
    let coordinators = (0..6u32)
        .filter(|i| w.protocol(NodeId(*i)).is_coordinator())
        .count();
    assert!(
        coordinators <= 2,
        "a clique needs almost no backbone, got {coordinators}"
    );
    // PSM sleepers burn far less than idle, but far more than a pure
    // sleeper (the periodic wake tax — the paper's §1 critique)
    let psm: Vec<u32> = (0..6u32)
        .filter(|i| !w.protocol(NodeId(*i)).is_coordinator())
        .collect();
    assert!(!psm.is_empty());
    for i in &psm {
        let j = w.node_consumed_j(NodeId(*i));
        let idle_only = 120.0 * 0.83;
        let sleep_only = 120.0 * 0.13;
        assert!(j < 0.75 * idle_only, "PSM node {i} must save energy: {j} J");
        assert!(j > sleep_only, "PSM node {i} cannot beat pure sleep: {j} J");
        let audit = w.node_energy_audit(NodeId(*i));
        assert!(
            audit.sleep_secs > 60.0,
            "node {i} must spend most time asleep: {audit:?}"
        );
    }
    // and they really cycled
    let cycles: u32 = psm.iter().map(|i| w.protocol(NodeId(*i)).stats.psm_cycles).sum();
    assert!(cycles > 100, "PSM wakeups expected, got {cycles}");
}

#[test]
fn coordinator_withdraws_when_redundant() {
    // two candidate bridges side by side: after min_tenure one of them
    // should stand down (the other covers all pairs)
    let hosts = vec![
        still(20.0, 500.0),
        still(250.0, 490.0), // bridge A
        still(250.0, 510.0), // bridge B
        still(480.0, 500.0),
    ];
    let mut w = span_world(hosts, FlowSet::default(), 4);
    w.run_until(SimTime::from_secs(120));
    let bridges: Vec<bool> = [1u32, 2]
        .iter()
        .map(|i| w.protocol(NodeId(*i)).is_coordinator())
        .collect();
    let withdrawals: u32 = [1u32, 2]
        .iter()
        .map(|i| w.protocol(NodeId(*i)).stats.withdrawals)
        .sum();
    // exactly one bridge remains (or both never rose because contention
    // resolved early); never both forever
    assert!(
        !(bridges[0] && bridges[1]) || withdrawals > 0,
        "redundant coordinators must thin out: {bridges:?}, withdrawals {withdrawals}"
    );
    // connectivity preserved: at least one bridge is up
    assert!(
        bridges[0] || bridges[1],
        "the cut vertex pair must keep one coordinator"
    );
}

#[test]
fn span_is_deterministic() {
    let run = || {
        let mut w = span_world(chain(), FlowSet::default(), 9);
        w.run_until(SimTime::from_secs(30));
        (
            *w.stats(),
            (0..5).map(|i| w.node_consumed_j(NodeId(i))).collect::<Vec<_>>(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn endpoints_stay_up_and_never_coordinate() {
    let mut hosts = chain();
    hosts[0] = HostSetup {
        profile: PowerProfile::paper_no_gps(),
        ..HostSetup::infinite(MobilityTrace::stationary(Point2::new(20.0, 500.0), HORIZON))
    };
    let mut w = World::new(WorldConfig::paper_default(5), hosts, FlowSet::default(), |id| {
        if id == NodeId(0) {
            SpanProto::endpoint(id)
        } else {
            SpanProto::new(id)
        }
    });
    w.run_until(SimTime::from_secs(60));
    assert_eq!(w.protocol(NodeId(0)).state(), SpanState::Endpoint);
    assert_eq!(w.node_mode(NodeId(0)), manet::RadioMode::Idle);
}
