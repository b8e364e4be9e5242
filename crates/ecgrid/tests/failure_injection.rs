//! Failure injection: the no-gateway events of §3.2 ("in case a gateway is
//! down because of an accident and the RETIRE message is not issued in
//! time") and related recovery paths.

use ecgrid::{Ecgrid, EcgridConfig};
use manet::{Battery, FlowSet, HostSetup, NodeId, Point2, SimDuration, SimTime, World, WorldConfig};
use mobility::MobilityTrace;
use traffic::{CbrFlow, FlowId};

const HORIZON: SimTime = SimTime(3_000_000_000_000);

fn still(x: f64, y: f64) -> HostSetup {
    HostSetup::paper(MobilityTrace::stationary(Point2::new(x, y), HORIZON))
}

/// A host whose battery dies early (without any chance to say RETIRE at
/// the very end — its battery is sized to die mid-run "by accident").
fn frail(x: f64, y: f64, joules: f64) -> HostSetup {
    HostSetup {
        battery: Battery::with_capacity(joules),
        ..HostSetup::paper(MobilityTrace::stationary(Point2::new(x, y), HORIZON))
    }
}

#[test]
fn silent_gateway_death_triggers_reelection() {
    // node 0 wins the first election (center-closest) and is then crashed
    // at t=40 s with no RETIRE — the paper's "accident".  Condition 1: an
    // active host misses the gateway's HELLOs and starts an election.  To
    // keep a member awake (condition 1 proper), give it traffic.
    let hosts = vec![
        still(50.0, 50.0), // gateway, crashed at t=40
        still(30.0, 70.0),
        still(70.0, 30.0),
        still(250.0, 50.0), // neighbour grid endpoint
    ];
    // nodes 1 -> 3 stream continuously so node 1 stays awake and notices
    let flows = FlowSet::new(vec![CbrFlow {
        id: FlowId(0),
        src: NodeId(1),
        dst: NodeId(3),
        packet_bytes: 512,
        interval: SimDuration::from_secs(1),
        start: SimTime::from_secs(2),
        stop: SimTime::from_secs(120),
        burst: None,
    }]);
    let mut w = World::new(WorldConfig::paper_default(5), hosts, flows, |id| {
        Ecgrid::new(EcgridConfig::default(), id)
    });
    w.run_until(SimTime::from_secs(40));
    assert!(
        w.protocol(NodeId(0)).is_gateway(),
        "node 0 must hold duty before the crash"
    );
    w.kill_node(NodeId(0));
    w.run_until(SimTime::from_secs(120));
    assert!(!w.node_alive(NodeId(0)), "crashed gateway must be dead");
    // someone else must have taken over grid (0,0)
    let successor = [1u32, 2]
        .iter()
        .filter(|i| w.protocol(NodeId(**i)).is_gateway())
        .count();
    assert_eq!(successor, 1, "grid must re-elect after the silent death");
    let events: u32 = [1u32, 2]
        .iter()
        .map(|i| w.protocol(NodeId(*i)).stats.no_gateway_events)
        .sum();
    assert!(events >= 1, "a no-gateway event must have been detected");
    // and the flow keeps going afterwards
    let pdr = w.ledger().delivery_rate().unwrap();
    assert!(pdr > 0.8, "flow must survive the gateway death: pdr {pdr}");
}

#[test]
fn sleeping_host_detects_dead_gateway_via_acq() {
    // node 1 sleeps; its gateway (node 0) is crashed; when node 1's
    // application wants to transmit, its ACQ goes unanswered ->
    // no-gateway event (§3.2 condition 2) -> it elects itself and routes.
    let hosts = vec![
        still(50.0, 50.0),  // gateway of (0,0), crashed at t=30
        still(30.0, 70.0),  // sleeper, becomes the source at t=60
        still(250.0, 50.0), // destination area gateway
    ];
    let flows = FlowSet::new(vec![CbrFlow {
        id: FlowId(0),
        src: NodeId(1),
        dst: NodeId(2),
        packet_bytes: 512,
        interval: SimDuration::from_secs(1),
        start: SimTime::from_secs(60), // well after node 0 died
        stop: SimTime::from_secs(90),
        burst: None,
    }]);
    let mut w = World::new(WorldConfig::paper_default(6), hosts, flows, |id| {
        Ecgrid::new(EcgridConfig::default(), id)
    });
    w.run_until(SimTime::from_secs(30));
    w.kill_node(NodeId(0));
    w.run_until(SimTime::from_secs(100));
    assert!(!w.node_alive(NodeId(0)));
    let p1 = w.protocol(NodeId(1));
    assert!(p1.stats.acqs_sent >= 1, "the waking source must have tried ACQ");
    assert!(
        p1.stats.no_gateway_events >= 1,
        "unanswered ACQ must trigger a no-gateway event"
    );
    assert!(p1.is_gateway(), "alone in the grid, it elects itself");
    let pdr = w.ledger().delivery_rate().unwrap();
    assert!(pdr > 0.8, "traffic must flow after recovery: pdr {pdr}");
}

#[test]
fn gateway_retires_before_battery_empties() {
    // §3.2: "the gateway will issue a broadcast sequence and a RETIRE
    // message before its battery runs out" — driven by the level-drop
    // rule.  With two hosts the duty must bounce between them.
    let hosts = vec![still(50.0, 50.0), still(60.0, 60.0)];
    let mut w = World::new(WorldConfig::paper_default(7), hosts, FlowSet::default(), |id| {
        Ecgrid::new(EcgridConfig::default(), id)
    });
    // a lone permanent gateway dies at 579 s; with rotation, the pair's
    // combined budget (1000 J at ~1.03 W) carries both well past 700 s
    w.run_until(SimTime::from_secs(700));
    let terms: u32 = (0..2).map(|i| w.protocol(NodeId(i)).stats.became_gateway).sum();
    assert!(terms >= 3, "duty must alternate, got {terms} terms");
    for i in 0..2u32 {
        assert!(w.node_alive(NodeId(i)), "host {i} should still be alive at 700 s");
    }
}

#[test]
fn data_for_dead_local_host_is_dropped_not_looped() {
    // destination dies mid-flow; the gateway must not loop or crash, and
    // undelivered packets show up as losses only
    let hosts = vec![
        still(50.0, 50.0),       // gateway (0,0)
        frail(30.0, 60.0, 20.0), // destination, dies at ~40 s (sleeping earlier)
        still(250.0, 50.0),      // source in neighbour grid
    ];
    let flows = FlowSet::new(vec![CbrFlow {
        id: FlowId(0),
        src: NodeId(2),
        dst: NodeId(1),
        packet_bytes: 512,
        interval: SimDuration::from_secs(1),
        start: SimTime::from_secs(5),
        stop: SimTime::from_secs(180),
        burst: None,
    }]);
    let mut w = World::new(WorldConfig::paper_default(8), hosts, flows, |id| {
        Ecgrid::new(EcgridConfig::default(), id)
    });
    w.run_until(SimTime::from_secs(200));
    assert!(!w.node_alive(NodeId(1)));
    // early packets (while alive/sleeping) arrive; later ones are lost
    let ledger = w.ledger();
    assert!(ledger.delivered_count() >= 10, "early packets must arrive");
    assert!(ledger.delivery_rate().unwrap() < 0.9, "late packets must be lost");
    // the simulation kept running to the end without event storms
    assert!(w.now() >= SimTime::from_secs(200));
}

#[test]
fn whole_grid_death_leaves_neighbors_functional() {
    // all hosts of the middle grid die; a flow crossing that grid must
    // re-discover around it... or fail cleanly if no detour exists.
    // Here grids are on a line with 250 m radio range: (0,0) can reach
    // (2,0) directly (200 m apart corners), so a detour exists.
    let hosts = vec![
        still(50.0, 50.0),        // src grid (0,0)
        frail(150.0, 50.0, 25.0), // middle grid (1,0), dies ~30 s
        still(250.0, 50.0),       // dst grid (2,0)
    ];
    let flows = FlowSet::new(vec![CbrFlow {
        id: FlowId(0),
        src: NodeId(0),
        dst: NodeId(2),
        packet_bytes: 512,
        interval: SimDuration::from_secs(1),
        start: SimTime::from_secs(5),
        stop: SimTime::from_secs(120),
        burst: None,
    }]);
    let mut w = World::new(WorldConfig::paper_default(9), hosts, flows, |id| {
        Ecgrid::new(EcgridConfig::default(), id)
    });
    w.run_until(SimTime::from_secs(130));
    assert!(!w.node_alive(NodeId(1)));
    let pdr = w.ledger().delivery_rate().unwrap();
    assert!(pdr > 0.85, "flow must survive the middle grid dying: pdr {pdr}");
}
