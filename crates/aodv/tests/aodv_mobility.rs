//! AODV under link dynamics: local repair, route freshness, and loop
//! freedom observed end-to-end on the simulator.

use aodv::core::ROUTE_TTL;
use aodv::Aodv;
use manet::{FlowSet, HostSetup, NodeId, Point2, SimDuration, SimTime, World, WorldConfig};
use mobility::{MobilityTrace, Segment};
use traffic::{CbrFlow, FlowId};

const HORIZON: SimTime = SimTime(2_000_000_000_000);

fn still(x: f64, y: f64) -> HostSetup {
    HostSetup::paper(MobilityTrace::stationary(Point2::new(x, y), HORIZON))
}

#[test]
fn broken_relay_is_repaired_through_an_alternate() {
    // two parallel relays between src and dst; kill the one the route
    // uses and verify traffic continues through the other
    let hosts = vec![
        still(20.0, 500.0),  // 0: src
        still(250.0, 480.0), // 1: relay A
        still(250.0, 520.0), // 2: relay B
        still(480.0, 500.0), // 3: dst
    ];
    let flows = FlowSet::new(vec![CbrFlow {
        id: FlowId(0),
        src: NodeId(0),
        dst: NodeId(3),
        packet_bytes: 512,
        interval: SimDuration::from_secs(1),
        start: SimTime::from_secs(2),
        stop: SimTime::from_secs(60),
        burst: None,
    }]);
    let mut w = World::new(WorldConfig::paper_default(11), hosts, flows, Aodv::new);
    w.run_until(SimTime::from_secs(20));
    let early = w.ledger().delivery_rate().unwrap();
    assert!(early > 0.9, "pre-failure pdr {early}");
    // kill whichever relay currently carries the route
    let via = w
        .protocol(NodeId(0))
        .core
        .next_hop(NodeId(3), w.now())
        .expect("route must exist");
    assert!(
        via == NodeId(1) || via == NodeId(2),
        "route through a relay, got {via}"
    );
    w.kill_node(via);
    w.run_until(SimTime::from_secs(60));
    let pdr = w.ledger().delivery_rate().unwrap();
    assert!(
        pdr > 0.85,
        "post-failure pdr {pdr} (repair through the sibling relay)"
    );
    // the surviving relay carries the route now
    let other = if via == NodeId(1) { NodeId(2) } else { NodeId(1) };
    assert_eq!(
        w.protocol(NodeId(0)).core.next_hop(NodeId(3), w.now()),
        Some(other)
    );
}

#[test]
fn mobile_relay_breaks_and_heals_routes() {
    // the only relay wanders out of range and back; the flow must stall
    // while it is away and resume when it returns
    let away = Segment::rest(SimTime::ZERO, SimTime::from_secs(25), Point2::new(250.0, 500.0));
    let leave = Segment::travel(away.end, away.from, Point2::new(250.0, 950.0), 15.0); // gone by ~t=55
    let back = Segment::travel(
        leave.end,
        Point2::new(250.0, 950.0),
        Point2::new(250.0, 500.0),
        15.0,
    );
    let stay = Segment::rest(back.end, HORIZON, back.end_position());
    let hosts = vec![
        still(20.0, 500.0),
        HostSetup::paper(MobilityTrace::new(vec![away, leave, back, stay])),
        still(480.0, 500.0),
    ];
    let flows = FlowSet::new(vec![CbrFlow {
        id: FlowId(0),
        src: NodeId(0),
        dst: NodeId(2),
        packet_bytes: 512,
        interval: SimDuration::from_secs(1),
        start: SimTime::from_secs(2),
        stop: SimTime::from_secs(150),
        burst: None,
    }]);
    let mut w = World::new(WorldConfig::paper_default(13), hosts, flows, Aodv::new);
    w.run_until(SimTime::from_secs(150));
    let ledger = w.ledger();
    // delivered during the two connected phases, lost during the gap
    let rate = ledger.delivery_rate().unwrap();
    assert!(
        (0.4..0.95).contains(&rate),
        "expected a partial outage, pdr {rate}"
    );
    assert!(
        ledger.delivered_count() > 60,
        "both connected phases must deliver"
    );
}

#[test]
fn ttl_prevents_infinite_forwarding_loops() {
    // a flow that outlives the route lifetime forces rediscovery mid-flow;
    // there must be no unbounded forwarding (every Data carries a TTL)
    let hosts = vec![still(20.0, 500.0), still(250.0, 500.0), still(480.0, 500.0)];
    let stop = 1.0 + 2.0 * ROUTE_TTL;
    let flows = FlowSet::new(vec![CbrFlow {
        id: FlowId(0),
        src: NodeId(0),
        dst: NodeId(2),
        packet_bytes: 512,
        interval: SimDuration::from_millis(500),
        start: SimTime::from_secs(1),
        stop: SimTime::from_secs_f64(stop),
        burst: None,
    }]);
    let mut w = World::new(WorldConfig::paper_default(17), hosts, flows, Aodv::new);
    w.run_until(SimTime::from_secs_f64(stop + 10.0));
    assert!(
        w.protocol(NodeId(0)).stats().rreqs_sent >= 2,
        "the source's route expired and was rediscovered"
    );
    let forwarded: u64 = (0..3)
        .map(|i| u64::from(w.protocol(NodeId(i)).stats().data_forwarded))
        .sum();
    let sent = w.ledger().sent_count();
    // a healthy 2-hop path forwards each packet at most twice; allow for
    // rediscovery retries but rule out loop amplification
    assert!(
        forwarded < sent * 4,
        "forwarded {forwarded} for {sent} packets — loop?"
    );
    assert!(w.ledger().delivery_rate().unwrap() > 0.9);
}
