//! Follow one packet hop by hop: the World's structured event trace.
//!
//! ```sh
//! cargo run --release --example packet_trace
//! ```

use ecgrid_suite::ecgrid::{Ecgrid, EcgridConfig};
use ecgrid_suite::manet::{
    EventKind, FlowSet, HostSetup, NodeId, Point2, SimDuration, SimTime, TraceMode, World, WorldConfig,
};
use ecgrid_suite::mobility::MobilityTrace;
use ecgrid_suite::traffic::{CbrFlow, FlowId};

const HORIZON: SimTime = SimTime(100_000_000_000);

fn still(x: f64, y: f64) -> HostSetup {
    HostSetup::paper(MobilityTrace::stationary(Point2::new(x, y), HORIZON))
}

fn main() {
    // a 3-grid corridor with a sleeping destination
    let hosts = vec![
        still(50.0, 50.0),  // 0: gateway (0,0), source
        still(250.0, 50.0), // 1: gateway (2,0)
        still(450.0, 50.0), // 2: gateway (4,0)
        still(430.0, 80.0), // 3: sleeping member of (4,0), destination
    ];
    let flows = FlowSet::new(vec![CbrFlow {
        id: FlowId(0),
        src: NodeId(0),
        dst: NodeId(3),
        packet_bytes: 512,
        interval: SimDuration::from_secs(10),
        start: SimTime::from_secs(5),
        stop: SimTime::from_secs(6), // exactly one packet
        burst: None,
    }]);
    let mut w = World::new(WorldConfig::paper_default(3), hosts, flows, |id| {
        Ecgrid::new(EcgridConfig::default(), id)
    });
    w.enable_trace(TraceMode::Full);
    w.run_until(SimTime::from_secs(8));

    println!("== one packet, gateway to gateway to paged sleeper ==\n");
    // skip the election chatter; show everything from just before the send
    let from = SimTime::from_secs_f64(4.9);
    let mut shown = 0;
    for ev in w.event_trace() {
        if ev.t < from {
            continue;
        }
        // HELLO beacons clutter the picture; keep MAC data frames (>100 B),
        // pages, and application events
        let keep = match ev.kind {
            EventKind::MacTx { bytes, .. } | EventKind::MacRx { bytes, .. } => bytes > 100,
            EventKind::PacketSent { .. }
            | EventKind::PacketForwarded { .. }
            | EventKind::PacketDelivered { .. }
            | EventKind::RasPage { .. } => true,
            _ => false,
        };
        if keep {
            println!("  {}", ev.to_jsonl("ECGRID"));
            shown += 1;
        }
    }
    println!(
        "\n({shown} events shown; {} recorded in total)",
        w.event_trace().len()
    );
    println!("trace digest: {}", w.trace_digest().expect("recorder enabled"));
    println!(
        "delivered {}/{} — the \"ras_page\" line with \"target_host\":3 is the \
         gateway paging the sleeping destination before flushing its buffer.",
        w.ledger().delivered_count(),
        w.ledger().sent_count()
    );
}
