//! Route discovery walkthrough — the paper's Fig. 2 scenario.
//!
//! Source S in grid (1,1) discovers a route to destination D in grid
//! (5,3): the RREQ floods gateway-to-gateway inside the search rectangle
//! bounded by (1,1)-(5,3), the RREP unicasts back along the reverse grid
//! path, then data flows S → ... → D.  Run with:
//!
//! ```sh
//! cargo run --release --example route_discovery
//! ```

use ecgrid_suite::ecgrid::{Ecgrid, EcgridConfig};
use ecgrid_suite::manet::{EventKind, TraceMode};
use ecgrid_suite::manet::{FlowSet, HostSetup, NodeId, Point2, SimDuration, SimTime, World, WorldConfig};
use ecgrid_suite::mobility::MobilityTrace;
use ecgrid_suite::traffic::{CbrFlow, FlowId};

const HORIZON: SimTime = SimTime(200_000_000_000);

fn host(x: f64, y: f64) -> HostSetup {
    HostSetup::paper(MobilityTrace::stationary(Point2::new(x, y), HORIZON))
}

fn main() {
    // Hosts laid out like Fig. 2 (grid cells are 100 m squares):
    //   S(1,1) A(1,2) B(2,2) C(2,1) E(3,2) F(4,2) D(5,3) I(0,2)
    // plus non-gateway hosts J,K,L,H,G,M that will sleep.
    let names = [
        "S", "A", "B", "C", "D", "E", "F", "I", "J", "K", "L", "H", "G", "M",
    ];
    let hosts = vec![
        host(150.0, 150.0), // S  grid (1,1)
        host(150.0, 250.0), // A  grid (1,2)
        host(250.0, 250.0), // B  grid (2,2)
        host(250.0, 150.0), // C  grid (2,1)
        host(550.0, 350.0), // D  grid (5,3)
        host(350.0, 250.0), // E  grid (3,2)
        host(450.0, 250.0), // F  grid (4,2)
        host(50.0, 250.0),  // I  grid (0,2)
        host(130.0, 120.0), // J  grid (1,1), off-center -> sleeps
        host(270.0, 280.0), // K  grid (2,2), off-center -> sleeps
        host(320.0, 220.0), // L  grid (3,2), off-center -> sleeps
        host(80.0, 230.0),  // H  grid (0,2), off-center -> sleeps
        host(580.0, 320.0), // G  grid (5,3), off-center -> sleeps
        host(480.0, 290.0), // M  grid (4,2), off-center -> sleeps
    ];
    let s = NodeId(0);
    let d = NodeId(4);

    // one data packet from S to D at t = 5 s
    let flows = FlowSet::new(vec![CbrFlow {
        id: FlowId(0),
        src: s,
        dst: d,
        packet_bytes: 512,
        interval: SimDuration::from_secs(1),
        start: SimTime::from_secs(5),
        stop: SimTime::from_secs(6),
        burst: None,
    }]);

    let mut world = World::new(WorldConfig::paper_default(1), hosts, flows, move |id| {
        let mut p = Ecgrid::new(EcgridConfig::default(), id);
        // Fig. 2 supposes S knows D's area (location service): confine the
        // search to the rectangle over grids (1,1) and (5,3)
        if id == s {
            p.seed_location(d, ecgrid_suite::manet::GridCoord::new(5, 3));
        }
        p
    });
    world.enable_trace(TraceMode::Full);
    world.run_until(SimTime::from_secs(10));

    println!("== Fig. 2 walkthrough: RREQ flood + RREP reverse path ==\n");
    println!("roles after election; routing counters (RREQs sent/forwarded, RREPs sent, data forwarded):");
    for (i, name) in names.iter().enumerate() {
        let p = world.protocol(NodeId(i as u32));
        let (grid, role, r) = (p.grid(), p.role(), p.routing_stats());
        let routing = [r.rreqs_sent, r.rreqs_forwarded, r.rreps_sent, r.data_forwarded];
        println!("  {name:>2} (host {i:>2}) grid {grid}: {role:?}, {routing:?}");
    }

    // between the packet's creation and its delivery the broadcasts are
    // the RREQ flood; the data rides the discovered route as forwards
    println!("\nrecorded events from t = 5 s to the delivery:");
    let t5 = SimTime::from_secs(5);
    for e in world.event_trace().iter().filter(|e| e.t >= t5) {
        let (node, what) = match e.kind {
            EventKind::MacTx { node, dst, bytes } if dst.is_none() => (node, format!("broadcast, {bytes} B")),
            EventKind::PacketForwarded { node, .. } => (node, "forwarded the packet".into()),
            EventKind::PacketDelivered { node, .. } => (node, "delivered the packet".into()),
            _ => continue,
        };
        let (t, name) = (e.t.as_secs_f64(), names[node.index()]);
        println!("  t={t:>9.4}s {name:>2}: {what}");
        if matches!(e.kind, EventKind::PacketDelivered { .. }) {
            break;
        }
    }

    let ledger = world.ledger();
    println!(
        "\npacket: sent {} delivered {} (latency {:?} ms)",
        ledger.sent_count(),
        ledger.delivered_count(),
        ledger.mean_latency_ms()
    );
    println!(
        "\nsearch-area check: RREQs forwarded only by gateways inside the\n\
         rectangle (1,1)-(5,3); I in grid (0,2) forwarded {} RREQs.",
        world.protocol(NodeId(7)).routing_stats().rreqs_forwarded
    );
}
