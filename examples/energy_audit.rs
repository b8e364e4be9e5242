//! Where does the battery actually go?  Per-mode energy breakdown for all
//! four protocols on the same scenario — the decomposition behind the
//! paper's Fig. 5.
//!
//! ```sh
//! cargo run --release --example energy_audit
//! ```

use ecgrid_suite::manet::EnergyAudit;
use ecgrid_suite::runner::{run_spec, ProtocolKind, RunOptions, Scenario};

fn main() {
    println!("== energy audit: 60 hosts, 1 m/s, 5 flows, 400 s ==\n");
    println!(
        "{:>8} {:>9} {:>9} {:>9} {:>9} {:>9} | {:>10} {:>11}",
        "proto", "tx J", "rx J", "idle J", "sleep J", "ack J", "awake s", "consumed J"
    );

    for p in ProtocolKind::ALL_EXT {
        let sc = Scenario {
            protocol: p,
            n_hosts: 60,
            max_speed: 1.0,
            pause_secs: 0.0,
            n_flows: 5,
            flow_rate_pps: 1.0,
            duration_secs: 400.0,
            seed: 77,
            model1_endpoints: 5,
        };
        // the first group holds the finite-battery hosts (GAF and Span add
        // an infinite-battery endpoint group after it); its audit is their
        // per-mode sum
        let r = run_spec(&sc.to_spec(), p, RunOptions::default());
        let fleet = &r.groups[0].stats;
        let audit = per_host(&fleet.audit, f64::from(fleet.finite));
        println!(
            "{:>8} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>9.1} | {:>10.0} {:>11.1}",
            p.name(),
            audit.tx_j,
            audit.rx_j,
            audit.idle_j,
            audit.sleep_j,
            audit.direct_j,
            audit.awake_secs(),
            audit.total_j(),
        );
    }

    println!("\nreading: GRID's budget is almost pure idle listening; the");
    println!("energy-aware protocols convert most of it into sleep time.");
    println!("rx energy is overhearing — every awake host pays for every");
    println!("frame in range, which is why HELLO beacons show up here.");
}

/// The per-host mean of a sum of `hosts` audits.
fn per_host(sum: &EnergyAudit, hosts: f64) -> EnergyAudit {
    EnergyAudit {
        tx_secs: sum.tx_secs / hosts,
        rx_secs: sum.rx_secs / hosts,
        idle_secs: sum.idle_secs / hosts,
        sleep_secs: sum.sleep_secs / hosts,
        tx_j: sum.tx_j / hosts,
        rx_j: sum.rx_j / hosts,
        idle_j: sum.idle_j / hosts,
        sleep_j: sum.sleep_j / hosts,
        direct_j: sum.direct_j / hosts,
    }
}
