//! Route maintenance walkthrough — the paper's Fig. 3 situations.
//!
//! A source host S (initially the gateway of its grid) streams data to a
//! destination D several grids away, then roams.  The route must survive
//! the gateway's departure: S retires, the abandoned grid re-elects, S
//! re-anchors to the gateway of its new grid, and data keeps flowing.
//!
//! ```sh
//! cargo run --release --example route_maintenance
//! ```

use ecgrid_suite::ecgrid::{Ecgrid, EcgridConfig};
use ecgrid_suite::manet::{EventKind, TraceMode};
use ecgrid_suite::manet::{FlowSet, HostSetup, NodeId, Point2, SimDuration, SimTime, World, WorldConfig};
use ecgrid_suite::mobility::{MobilityTrace, Segment};
use ecgrid_suite::traffic::{CbrFlow, FlowId};

const HORIZON: SimTime = SimTime(500_000_000_000);

fn still(x: f64, y: f64) -> HostSetup {
    HostSetup::paper(MobilityTrace::stationary(Point2::new(x, y), HORIZON))
}

fn main() {
    // S starts at the center of grid (1,2) (it will win the election
    // there), dwells 30 s, then roams east through (2,2) toward (3,2) —
    // Fig. 3(a)'s case: the source moves into the next grid on its route.
    let dwell = Segment::rest(SimTime::ZERO, SimTime::from_secs(30), Point2::new(150.0, 250.0));
    let roam = Segment::travel(dwell.end, dwell.from, Point2::new(380.0, 250.0), 2.0);
    let rest = Segment::rest(roam.end, HORIZON, roam.end_position());
    let s_trace = MobilityTrace::new(vec![dwell, roam, rest]);

    let hosts = vec![
        HostSetup::paper(s_trace), // 0: S, roaming source
        still(130.0, 270.0),       // 1: stays to inherit grid (1,2)
        still(250.0, 250.0),       // 2: B, gateway grid (2,2)
        still(350.0, 250.0),       // 3: E, gateway grid (3,2)
        still(450.0, 250.0),       // 4: F, gateway grid (4,2)
        still(550.0, 250.0),       // 5: D, destination, grid (5,2)
    ];
    let flows = FlowSet::new(vec![CbrFlow {
        id: FlowId(0),
        src: NodeId(0),
        dst: NodeId(5),
        packet_bytes: 512,
        interval: SimDuration::from_secs(1),
        start: SimTime::from_secs(5),
        stop: SimTime::from_secs(180),
        burst: None,
    }]);

    let mut world = World::new(WorldConfig::paper_default(9), hosts, flows, |id| {
        Ecgrid::new(EcgridConfig::default(), id)
    });
    world.enable_trace(TraceMode::Full);

    println!("== Fig. 3 walkthrough: source roams while streaming ==\n");
    for checkpoint in [20u64, 60, 120, 180] {
        world.run_until(SimTime::from_secs(checkpoint));
        let s = world.protocol(NodeId(0));
        let ledger = world.ledger();
        println!(
            "t={checkpoint:>4}s  S in grid {} as {:?}; sent {} delivered {} (pdr {:.1}%)",
            world.node_cell(NodeId(0)),
            s.role(),
            ledger.sent_count(),
            ledger.delivered_count(),
            100.0 * ledger.delivery_rate().unwrap_or(0.0),
        );
    }

    println!("\ngateway elections and retirements:");
    for e in world.event_trace() {
        let (node, what, cell) = match e.kind {
            EventKind::GatewayElect { node, cell } => (node, "became gateway of", cell),
            EventKind::GatewayRetire { node, cell } => (node, "retired from", cell),
            _ => continue,
        };
        println!("  t={:>9.3}s host {node}: {what} {cell}", e.t.as_secs_f64());
    }

    let retires = world.protocol(NodeId(0)).stats.retires;
    println!("\nS retired {retires} time(s) while roaming; the stream kept a");
    println!(
        "{:.1}% delivery rate across the gateway handoffs.",
        100.0 * world.ledger().delivery_rate().unwrap_or(0.0)
    );
}
