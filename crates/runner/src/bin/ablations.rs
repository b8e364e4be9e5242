//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! * **RAS wake latency** — the paper idealizes the Remotely Activated
//!   Switch; how sensitive are delivery latency and rate to its speed?
//! * **PHY capture** — our MAC omits RTS/CTS; with capture disabled every
//!   overlapping frame collides.  How much does the collision model move
//!   the headline metrics?
//! * **HELLO interval** — the paper attributes ECGRID's extra consumption
//!   (vs GAF) to HELLO beaconing; sweep the beacon period.
//!
//! ```sh
//! cargo run --release -p ecgrid-runner --bin ablations
//! ```

use ecgrid::{Ecgrid, EcgridConfig};
use grid_common::GridConfig;
use manet::{SimDuration, SimTime, WorldConfig};
use runner::spec_run::{fleet_world, world_config};
use runner::{ProtocolKind, RunOptions, Scenario};

struct Row {
    label: String,
    pdr: f64,
    latency_ms: f64,
    aen: f64,
    corrupted: u64,
    pages: u64,
}

fn run(label: &str, mut tweak_world: impl FnMut(&mut WorldConfig), cfg: EcgridConfig) -> Row {
    // the paper's base fleet (100 hosts, 1 m/s, 10 flows x 1 pkt/s), 400 s
    let spec = Scenario {
        duration_secs: 400.0,
        ..Scenario::paper_base(ProtocolKind::Ecgrid, 1.0, 42)
    }
    .to_spec();
    let mut wc = world_config(&spec, &RunOptions::default());
    tweak_world(&mut wc);
    let mut w = fleet_world(&spec, ProtocolKind::Ecgrid, wc, move |id| Ecgrid::new(cfg, id));
    let out = w.run_until(SimTime::from_secs_f64(spec.duration_s));
    Row {
        label: label.to_string(),
        pdr: out.ledger.delivery_rate().unwrap_or(0.0),
        latency_ms: out.ledger.mean_latency_ms().unwrap_or(f64::NAN),
        aen: out.aen.last_value().unwrap_or(0.0),
        corrupted: out.stats.corrupted,
        pages: out.stats.pages_sent,
    }
}

fn print_rows(title: &str, rows: &[Row]) {
    println!("\n## {title}");
    println!(
        "{:>28} {:>8} {:>12} {:>8} {:>10} {:>8}",
        "variant", "PDR", "latency(ms)", "aen", "corrupted", "pages"
    );
    for r in rows {
        println!(
            "{:>28} {:>7.1}% {:>12.2} {:>8.4} {:>10} {:>8}",
            r.label,
            100.0 * r.pdr,
            r.latency_ms,
            r.aen,
            r.corrupted,
            r.pages
        );
    }
}

fn main() {
    println!("ECGRID ablations: 100 hosts, 1 m/s, 10 flows x 1 pkt/s, 400 s");

    // 1. RAS wake latency
    let rows: Vec<Row> = [0.001, 0.005, 0.02, 0.1]
        .iter()
        .map(|&lat| {
            let cfg = EcgridConfig {
                forward_wake_wait: lat + 0.003,
                retire_wait: lat + 0.025,
                ..EcgridConfig::default()
            };
            run(
                &format!("wake latency {} ms", lat * 1000.0),
                |wc| {
                    wc.wake_latency = SimDuration::from_secs_f64(lat);
                },
                cfg,
            )
        })
        .collect();
    print_rows("RAS wake latency (paper idealizes ~0)", &rows);

    // 2. PHY capture
    let rows = vec![
        run("capture 10 dB (default)", |_| {}, EcgridConfig::default()),
        run(
            "no capture",
            |wc| wc.capture_ratio = None,
            EcgridConfig::default(),
        ),
    ];
    print_rows("PHY capture effect (MAC realism budget)", &rows);

    // 3. HELLO interval
    let rows: Vec<Row> = [0.5, 1.0, 2.0, 4.0]
        .iter()
        .map(|&h| {
            let cfg = EcgridConfig {
                grid: GridConfig {
                    hello_interval: h,
                    election_window: h.max(1.0),
                    gateway_silence: 3.0 * h,
                    neighbor_ttl: 3.5 * h,
                    ..GridConfig::default()
                },
                ..EcgridConfig::default()
            };
            run(&format!("HELLO every {h} s"), |_| {}, cfg)
        })
        .collect();
    print_rows("HELLO interval (the paper's ECGRID-vs-GAF overhead)", &rows);
}
