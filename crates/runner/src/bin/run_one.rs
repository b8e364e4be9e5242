//! Run a single scenario from the command line and print its summary.
//!
//! ```sh
//! cargo run --release -p ecgrid-runner --bin run_one -- \
//!     --protocol ecgrid --hosts 100 --speed 1 --pause 0 \
//!     --flows 10 --rate 1 --duration 2000 --seed 42 \
//!     --trace out.jsonl
//! ```

use manet::trace::TraceMode;
use manet::FaultPlan;
use runner::cli::Usage;
use runner::report::opt_or;
use runner::supervisor::{run_point, sweep_keyed, SupervisorConfig};
use runner::{FleetJob, ProtocolKind, RunOptions, Scenario};
use service::json::Obj;
use std::fs::File;
use std::io::BufWriter;

const HELP: &str = "\
run_one — run a single ECGRID-reproduction scenario

USAGE:
    run_one [--protocol grid|ecgrid|gaf|span] [--hosts N] [--speed M/S]
            [--pause S] [--flows N] [--rate PPS] [--duration S] [--seed N]
            [--scenario FILE.scn] [--groups-json FILE.json]
            [--trace FILE.jsonl] [--digest] [--faults SPEC]
            [--event-budget N] [--wall-budget SECS] [--max-retries N]
            [--journal FILE.jsonl]

Defaults are the paper's base configuration (ECGRID, 100 hosts, 1 m/s,
pause 0, 10 flows x 1 pkt/s, 2000 s, seed 42).

--scenario FILE  run a declarative scenario file (heterogeneous host
               groups; see examples/*.scn and DESIGN.md §15) instead of
               the homogeneous knobs; --hosts/--speed/--pause/--flows/
               --rate/--duration/--seed are ignored, --protocol still
               picks the protocol.  Adds a per-group metrics table to
               the summary; every other flag applies unchanged.
--groups-json FILE  with --scenario: also write the per-group metrics
               as a JSON array (the CI artifact format)

--trace FILE   record the full event stream and export it as JSONL
--digest       record in digest-only mode (O(1) memory; prints the digest)
--faults SPEC  comma-separated fault plan, e.g.
               loss=0.1,churn=0.01,page_fail=0.2,drain=0.005
               (keys: loss, ge, page_fail, page_delay, churn, rejoin,
               drain, drain_frac, seed; all faults are deterministic
               functions of the seeds).  Battery spread, GPS error and
               radio range belong to the hosts: a scenario file's
               battery_var, gps_sigma_m and range_m group keys set them

Supervision (see DESIGN.md §9):
--event-budget N   watchdog: abort after N dispatched events (exit 2)
--wall-budget S    watchdog: abort after S wall-clock seconds (exit 2);
                   unlike the event budget this is non-deterministic, so
                   trips are quarantined, never retried into the journal
--max-retries N    run under panic isolation; retry failures up to N
                   times on re-derived seeds, then exit 3 with a
                   failure report
--journal FILE     checkpoint the run in a resumable sweep journal; a
                   rerun with the same journal skips completed work.
                   Prints the supervision summary instead of the full
                   result; with --digest also the (journaled) digest.
                   --trace and --groups-json do not combine with it

EXIT STATUS:  0 success · 1 bad usage · 2 budget exceeded · 3 quarantined";

const USAGE: Usage = Usage {
    prog: "run_one",
    help_hint: true,
};

struct Cli {
    sc: Scenario,
    opts: RunOptions,
    trace_path: Option<String>,
    max_retries: Option<u32>,
    journal: Option<String>,
    scenario_path: Option<String>,
    groups_json: Option<String>,
}

fn parse_args() -> Cli {
    let mut cli = Cli {
        sc: Scenario::paper_base(ProtocolKind::Ecgrid, 1.0, 42),
        opts: RunOptions::default(),
        trace_path: None,
        max_retries: None,
        journal: None,
        scenario_path: None,
        groups_json: None,
    };
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{HELP}");
        std::process::exit(0);
    }
    let mut flags = USAGE.args(&args[1..]);
    while let Some(k) = flags.flag() {
        match k {
            "--digest" => {
                if cli.opts.trace.is_none() {
                    cli.opts.trace = Some(TraceMode::DigestOnly);
                }
            }
            "--protocol" => {
                let v = flags.value(k);
                cli.sc.protocol = runner::serve::parse_protocol(v).unwrap_or_else(|| {
                    let other = v.to_lowercase();
                    USAGE.fail(format!(
                        "unknown protocol {other:?} (expected grid|ecgrid|gaf|span)"
                    ))
                })
            }
            "--hosts" => cli.sc.n_hosts = flags.parse(k),
            "--speed" => cli.sc.max_speed = flags.parse(k),
            "--pause" => cli.sc.pause_secs = flags.parse(k),
            "--flows" => cli.sc.n_flows = flags.parse(k),
            "--rate" => cli.sc.flow_rate_pps = flags.parse(k),
            "--duration" => cli.sc.duration_secs = flags.parse(k),
            "--seed" => cli.sc.seed = flags.parse(k),
            "--faults" => match FaultPlan::parse(flags.value(k)) {
                Ok(plan) => cli.opts.faults = plan,
                Err(e) => USAGE.fail(format!("--faults: {e}")),
            },
            "--trace" => {
                cli.opts.trace = Some(TraceMode::Full);
                cli.trace_path = Some(flags.value(k).into());
            }
            "--event-budget" => cli.opts.event_budget = Some(flags.parse(k)),
            "--wall-budget" => cli.opts.wall_budget_ms = Some(USAGE.wall_budget_ms(k, flags.value(k))),
            "--max-retries" => cli.max_retries = Some(flags.parse(k)),
            "--journal" => cli.journal = Some(flags.value(k).into()),
            "--scenario" => cli.scenario_path = Some(flags.value(k).into()),
            "--groups-json" => cli.groups_json = Some(flags.value(k).into()),
            other => flags.unknown(other),
        }
    }
    if cli.journal.is_some() {
        // a journaled run keeps only the slim replica record: a journal
        // hit has no event stream and no per-group table to write
        for (flag, set) in [
            ("--trace", cli.trace_path.is_some()),
            ("--groups-json", cli.groups_json.is_some()),
        ] {
            if set {
                USAGE.fail(format!("{flag} cannot be combined with --journal"));
            }
        }
    }
    cli
}

fn groups_json_doc(groups: &[runner::GroupReport]) -> String {
    let rows: Vec<String> = groups
        .iter()
        .map(|g| {
            Obj::new()
                .str("group", &g.name)
                .str("role", g.role)
                .str("mobility", g.mobility)
                .u64("hosts", g.stats.hosts.into())
                .u64("finite", g.stats.finite.into())
                .u64("alive", g.stats.alive.into())
                .raw("alive_fraction", &format!("{:.6}", g.stats.alive_fraction()))
                .raw("aen", &format!("{:.6}", g.stats.aen()))
                .u64("sent", g.sent)
                .u64("delivered", g.delivered)
                .finish()
        })
        .collect();
    format!("[{}]\n", rows.join(","))
}

fn print_groups(r: &runner::ScenarioResult) {
    if r.groups.is_empty() {
        return;
    }
    println!("per-group metrics:");
    println!(
        "    {:<16} {:<9} {:<10} {:>5} {:>7} {:>8} {:>8} {:>10}",
        "group", "role", "mobility", "hosts", "alive", "aen", "pdr", "sent"
    );
    for g in &r.groups {
        println!(
            "    {:<16} {:<9} {:<10} {:>5} {:>6.0}% {:>8.4} {:>8} {:>10}",
            g.name,
            g.role,
            g.mobility,
            g.stats.hosts,
            100.0 * g.stats.alive_fraction(),
            g.stats.aen(),
            g.delivery_rate()
                .map(|x| format!("{:.1}%", 100.0 * x))
                .unwrap_or_else(|| "-".into()),
            g.sent,
        );
    }
}

/// The one result printer: every run — classic or scenario file, plain
/// or supervised — reports the same block.
fn print_result(cli: &Cli, r: &runner::ScenarioResult, wall: f64) {
    let protocol = cli.sc.protocol.name();
    println!("protocol:        {protocol}");
    println!("packets sent:    {}", r.ledger.sent_count());
    println!(
        "delivered:       {} ({:.2}%)",
        r.ledger.delivered_count(),
        100.0 * r.pdr.unwrap_or(0.0)
    );
    println!(
        "mean latency:    {} ms",
        opt_or(r.latency_ms, "-", |x| format!("{x:.2}"))
    );
    println!(
        "pdr (<590s):     {}",
        opt_or(r.pdr_590, "-", |x| format!("{:.2}%", 100.0 * x))
    );
    println!("alive at end:    {:.2}", r.alive.last_value().unwrap_or(1.0));
    println!("aen at end:      {:.4}", r.aen.last_value().unwrap_or(0.0));
    println!(
        "network death:   {}",
        opt_or(r.network_death_s, "none", |t| format!("{t:.0} s"))
    );
    println!("world stats:     {:?}", r.stats);
    if cli.opts.faults.is_active() {
        println!(
            "faults:          {} frames lost, {} pages lost, {} crashes, {} rejoins, {} drains",
            r.stats.frames_lost_fault,
            r.stats.pages_lost_fault,
            r.stats.crashes,
            r.stats.rejoins,
            r.stats.fault_drains
        );
    }
    print_groups(r);
    if let Some(path) = &cli.groups_json {
        std::fs::write(path, groups_json_doc(&r.groups))
            .unwrap_or_else(|e| USAGE.fail(format!("--groups-json: cannot write {path:?}: {e}")));
        eprintln!("wrote per-group metrics to {path}");
    }

    if let Some(rec) = &r.recorder {
        println!("trace digest:    {}", rec.digest());
        println!("trace events:    {}", rec.count());
        let prof = rec.profile();
        println!(
            "sched profile:   {} events dispatched, {:.0} events/s wall, max queue depth {}",
            prof.dispatched,
            prof.events_per_sec(wall),
            prof.max_queue_depth
        );
        for (domain, n) in prof.by_domain() {
            println!("    {domain:<14} {n}");
        }
        if let Some(path) = &cli.trace_path {
            let f = File::create(path)
                .unwrap_or_else(|e| USAGE.fail(format!("--trace: cannot create {path:?}: {e}")));
            let mut w = BufWriter::new(f);
            let n = rec
                .write_jsonl(protocol, &mut w)
                .unwrap_or_else(|e| USAGE.fail(format!("--trace: writing {path:?} failed: {e}")));
            eprintln!("wrote {n} events to {path}");
        }
    }
}

fn main() {
    let cli = parse_args();
    let opts = cli.opts;

    // either input is one fleet by the time it runs: a scenario file
    // parsed, the homogeneous knobs lowered (DESIGN.md §15)
    let job = match &cli.scenario_path {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| USAGE.fail(format!("--scenario: cannot read {path:?}: {e}")));
            let spec =
                scenario::parse(&text).unwrap_or_else(|e| USAGE.fail(format!("--scenario: {path}: {e}")));
            eprintln!("scenario file: {spec}");
            FleetJob::from_file(spec, cli.sc.protocol)
        }
        None => {
            cli.sc.check_bounds().unwrap_or_else(|e| USAGE.fail(e));
            FleetJob::classic(cli.sc)
        }
    };
    let sc = job.echo;
    let runner = |s: &Scenario, o: RunOptions, p| job.run(s, o, p, None);

    // journaled mode: a one-point supervised sweep, so a rerun with the
    // same journal skips the completed run and replays its metrics
    if let Some(journal) = &cli.journal {
        let mut sup = SupervisorConfig::default().with_journal(journal);
        sup.max_retries = cli.max_retries.unwrap_or(sup.max_retries);
        eprintln!("running supervised: {} (journal {journal})", sc.label());
        let report = sweep_keyed(&[(job.config_hash(&opts), sc)], 1, opts, &sup, &runner);
        if let Some(e) = &report.journal_error {
            eprintln!("run_one: {e}");
            std::process::exit(1);
        }
        print!("{}", report.render());
        if let Some(avg) = report.averaged.first() {
            println!(
                "pdr: {}   latency: {} ms   death: {}",
                opt_or(avg.pdr, "-", |x| format!("{:.2}%", 100.0 * x)),
                opt_or(avg.latency_ms, "-", |x| format!("{x:.2}")),
                opt_or(avg.network_death_s, "none", |t| format!("{t:.0} s")),
            );
        }
        if let Some(d) = report.replicas.first().and_then(|r| r.digest) {
            println!("trace digest:    {d}");
        }
        if !report.quarantined.is_empty() {
            std::process::exit(3);
        }
        return;
    }

    eprintln!("running: {}", sc.label());
    let start = std::time::Instant::now();

    // supervised (unjournaled) mode: panic isolation + bounded retry
    let r = if let Some(retries) = cli.max_retries {
        let sup = SupervisorConfig::default().with_max_retries(retries);
        let out = run_point(&runner, &sc, opts, &sup);
        for f in &out.failures {
            eprintln!("attempt failed: {f}");
        }
        match out.result {
            Some(r) => r,
            None => {
                eprintln!(
                    "quarantined after {} attempt(s); seeds above replay each failure",
                    out.failures.len()
                );
                std::process::exit(3);
            }
        }
    } else {
        runner(&sc, opts, None)
    };
    let wall = start.elapsed().as_secs_f64();
    eprintln!("({} s simulated in {wall:.1} s wall)", sc.duration_secs);

    print_result(&cli, &r, wall);

    // the watchdog tripped: the metrics above describe a truncated run
    if let Some(b) = r.budget_exceeded {
        eprintln!("run_one: {b}");
        std::process::exit(2);
    }
}
