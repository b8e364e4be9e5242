//! Load-balance demo: watch gateway duty rotate as batteries drain.
//!
//! Five hosts share one grid.  The gateway burns ~0.86 W while sleepers
//! burn ~0.16 W; every time the gateway's battery level drops a class
//! (upper → boundary → lower) it retires and the election picks the host
//! with the most remaining energy (§3.2's load-balance scheme).
//!
//! ```sh
//! cargo run --release --example gateway_rotation
//! ```

use ecgrid_suite::ecgrid::{Ecgrid, EcgridConfig};
use ecgrid_suite::manet::{FlowSet, HostSetup, NodeId, Point2, SimTime, World, WorldConfig};
use ecgrid_suite::mobility::MobilityTrace;

const HORIZON: SimTime = SimTime(3_000_000_000_000);

fn main() {
    let positions = [
        (50.0, 50.0),
        (30.0, 40.0),
        (70.0, 60.0),
        (40.0, 70.0),
        (60.0, 30.0),
    ];
    let hosts: Vec<HostSetup> = positions
        .iter()
        .map(|(x, y)| HostSetup::paper(MobilityTrace::stationary(Point2::new(*x, *y), HORIZON)))
        .collect();

    let mut world = World::new(WorldConfig::paper_default(3), hosts, FlowSet::default(), |id| {
        Ecgrid::new(EcgridConfig::default(), id)
    });

    println!("== gateway duty rotation in one grid (5 hosts, no traffic) ==\n");
    println!(
        "{:>7} {:>8} {:>40}",
        "t(s)", "gateway", "remaining energy per host (J)"
    );
    let mut last_gw = None;
    for step in 0..30 {
        let t = SimTime::from_secs(step * 60);
        world.run_until(t);
        let gw = (0..5u32).map(NodeId).find(|id| world.protocol(*id).is_gateway());
        let energies: Vec<String> = (0..5u32)
            .map(|i| format!("{:6.1}", 500.0 * world.node_rbrc(NodeId(i))))
            .collect();
        let marker = if gw != last_gw { "  <- rotated" } else { "" };
        println!(
            "{:>7} {:>8} {:>40}{marker}",
            t.as_secs_f64(),
            gw.map(|g| g.to_string()).unwrap_or_else(|| "-".into()),
            energies.join(" ")
        );
        last_gw = gw;
        if (0..5u32).all(|i| !world.node_alive(NodeId(i))) {
            println!("\nall hosts exhausted at ~{} s", t.as_secs_f64());
            break;
        }
    }

    let total_rotations: u64 = (0..5u32)
        .map(|i| u64::from(world.protocol(NodeId(i)).stats.became_gateway))
        .sum();
    let lb_retires: u64 = (0..5u32)
        .map(|i| u64::from(world.protocol(NodeId(i)).stats.load_balance_retires))
        .sum();
    println!("\n{total_rotations} gateway terms served, {lb_retires} load-balance retirements");
    println!("\nCompare: a single permanent gateway would die after 579 s;");
    println!("with rotation the grid stays served far longer and energy");
    println!("drains evenly across all five hosts.");
}
