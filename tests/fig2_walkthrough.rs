//! The paper's Fig. 2 scenario as an executable test: route discovery from
//! S in grid (1,1) to D in grid (5,3) with the search area confined to the
//! covering rectangle — and the gateway of grid (0,2) provably excluded.

use ecgrid_suite::ecgrid::{Ecgrid, EcgridConfig};
use ecgrid_suite::manet::{
    FlowSet, GridCoord, HostSetup, NodeId, Point2, SimDuration, SimTime, World, WorldConfig,
};
use ecgrid_suite::mobility::MobilityTrace;
use ecgrid_suite::traffic::{CbrFlow, FlowId};

const HORIZON: SimTime = SimTime(300_000_000_000);

fn host(x: f64, y: f64) -> HostSetup {
    HostSetup::paper(MobilityTrace::stationary(Point2::new(x, y), HORIZON))
}

/// Builds the Fig. 2 topology.  Index → paper name:
/// 0=S 1=A 2=B 3=C 4=D 5=E 6=F 7=I 8=J 9=K 10=L 11=H 12=G 13=M
fn fig2_world() -> World<Ecgrid> {
    let hosts = vec![
        host(150.0, 150.0), // S (1,1)
        host(150.0, 250.0), // A (1,2)
        host(250.0, 250.0), // B (2,2)
        host(250.0, 150.0), // C (2,1)
        host(550.0, 350.0), // D (5,3)
        host(350.0, 250.0), // E (3,2)
        host(450.0, 250.0), // F (4,2)
        host(50.0, 250.0),  // I (0,2)
        host(130.0, 120.0), // J (1,1)
        host(270.0, 280.0), // K (2,2)
        host(320.0, 220.0), // L (3,2)
        host(80.0, 230.0),  // H (0,2)
        host(580.0, 320.0), // G (5,3)
        host(480.0, 290.0), // M (4,2)
    ];
    let flows = FlowSet::new(vec![CbrFlow {
        id: FlowId(0),
        src: NodeId(0),
        dst: NodeId(4),
        packet_bytes: 512,
        interval: SimDuration::from_secs(1),
        start: SimTime::from_secs(5),
        stop: SimTime::from_secs(15),
        burst: None,
    }]);
    World::new(WorldConfig::paper_default(1), hosts, flows, |id| {
        let mut p = Ecgrid::new(EcgridConfig::default(), id);
        // Fig. 2 "supposes" S knows the destination's area — model the
        // location service with a seeded hint, so the very first search
        // is already confined to the covering rectangle
        if id == NodeId(0) {
            p.seed_location(NodeId(4), GridCoord::new(5, 3));
        }
        p
    })
}

#[test]
fn gateways_match_fig2_and_route_is_discovered() {
    let mut w = fig2_world();
    w.run_until(SimTime::from_secs(20));

    // §3.3: "hosts S, A, B, C, D, E, F, and I will be selected as the
    // gateway of grid (1,1), (1,2), (2,2), (2,1), (5,3), (3,2), (4,2),
    // and (0,2)" — they are the center-closest (all levels equal at t=0)
    let expected = [
        (0u32, GridCoord::new(1, 1)),
        (1, GridCoord::new(1, 2)),
        (2, GridCoord::new(2, 2)),
        (3, GridCoord::new(2, 1)),
        (4, GridCoord::new(5, 3)),
        (5, GridCoord::new(3, 2)),
        (6, GridCoord::new(4, 2)),
        (7, GridCoord::new(0, 2)),
    ];
    for (id, cell) in expected {
        assert!(
            w.protocol(NodeId(id)).is_gateway(),
            "host {id} must be gateway of {cell}"
        );
        assert_eq!(w.protocol(NodeId(id)).grid(), cell);
    }
    // "non-gateway hosts J, K, L, H, G and M can enter sleep mode"
    for id in [8u32, 9, 10, 11, 12, 13] {
        assert_eq!(
            w.protocol(NodeId(id)).role(),
            ecgrid_suite::ecgrid::Role::Sleeping,
            "host {id} must sleep"
        );
    }

    // all ten data packets reached D
    assert_eq!(w.ledger().sent_count(), 10);
    assert!(w.ledger().delivery_rate().unwrap() >= 0.9);

    // the search area excluded grid (0,2): I never forwarded an RREQ
    assert_eq!(
        w.protocol(NodeId(7)).routing_stats().rreqs_forwarded,
        0,
        "I is outside the rectangle"
    );
    // while the corridor gateways did the forwarding
    let corridor: u32 = [2u32, 3, 5, 6]
        .iter()
        .map(|i| w.protocol(NodeId(*i)).routing_stats().rreqs_forwarded)
        .sum();
    assert!(corridor >= 2, "rectangle gateways must relay the RREQ");
    // and D replied
    assert!(w.protocol(NodeId(4)).routing_stats().rreps_sent >= 1);
}

#[test]
fn non_gateway_destination_is_woken_for_delivery() {
    // same topology, but the destination is G — a sleeping non-gateway in
    // D's grid (5,3): D must page G and forward the buffered data (§3.3)
    let hosts_world = fig2_world();
    drop(hosts_world);
    let hosts = vec![
        host(150.0, 150.0),
        host(150.0, 250.0),
        host(250.0, 250.0),
        host(250.0, 150.0),
        host(550.0, 350.0),
        host(350.0, 250.0),
        host(450.0, 250.0),
        host(50.0, 250.0),
        host(130.0, 120.0),
        host(270.0, 280.0),
        host(320.0, 220.0),
        host(80.0, 230.0),
        host(580.0, 320.0), // G — destination
        host(480.0, 290.0),
    ];
    let flows = FlowSet::new(vec![CbrFlow {
        id: FlowId(0),
        src: NodeId(0),
        dst: NodeId(12),
        packet_bytes: 512,
        interval: SimDuration::from_secs(1),
        start: SimTime::from_secs(5),
        stop: SimTime::from_secs(15),
        burst: None,
    }]);
    let mut w = World::new(WorldConfig::paper_default(2), hosts, flows, |id| {
        let mut p = Ecgrid::new(EcgridConfig::default(), id);
        if id == NodeId(0) {
            p.seed_location(NodeId(12), GridCoord::new(5, 3));
        }
        p
    });
    w.run_until(SimTime::from_secs(20));
    assert!(
        w.ledger().delivery_rate().unwrap() >= 0.9,
        "pdr {:?}",
        w.ledger().delivery_rate()
    );
    // D (gateway of G's grid) paged the sleeper at least once
    assert!(w.protocol(NodeId(4)).stats.pages_sent >= 1, "gateway must wake G");
    assert!(w.stats().pages_woken >= 1);
}
