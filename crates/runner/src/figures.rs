//! One function per paper figure: build the scenario matrix, sweep it,
//! and render the series/rows the figure plots.
//!
//! Every sweep runs through the supervised pipeline (DESIGN.md §9).
//! Environment knobs (read by the binaries):
//! * `ECGRID_REPLICAS`     — seeds averaged per configuration (default 3);
//! * `ECGRID_FAST=1`       — shrink durations/densities for a smoke run;
//! * `ECGRID_JOURNAL`      — checkpoint journal path: a rerun skips
//!   already-journaled replicas;
//! * `ECGRID_MAX_RETRIES`  — retry budget per replica (default 2);
//! * `ECGRID_EVENT_BUDGET` — watchdog ceiling on events/run.

use crate::report::{render_ascii_chart, render_series_table, series_csv_rows, write_csv};
use crate::run::RunOptions;
use crate::scenario::{ProtocolKind, Scenario};
use crate::supervisor::{sweep_supervised, SupervisorConfig};
use crate::sweep::AveragedResult;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Shared run options.
#[derive(Clone, Debug)]
pub struct FigOpts {
    pub replicas: usize,
    /// Shrinks the experiment for smoke testing.
    pub fast: bool,
    pub base_seed: u64,
    /// Retry budget per replica.
    pub max_retries: u32,
    /// Watchdog ceiling on dispatched events per replica.
    pub event_budget: Option<u64>,
    /// Checkpoint journal: `Some` makes every figure sweep resumable.
    pub journal: Option<PathBuf>,
}

impl FigOpts {
    /// Read options from the environment.
    pub fn from_env() -> Self {
        let replicas = std::env::var("ECGRID_REPLICAS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(3);
        let fast = std::env::var("ECGRID_FAST").map(|v| v == "1").unwrap_or(false);
        FigOpts {
            replicas,
            fast,
            base_seed: 42,
            max_retries: std::env::var("ECGRID_MAX_RETRIES")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(SupervisorConfig::default().max_retries),
            event_budget: std::env::var("ECGRID_EVENT_BUDGET")
                .ok()
                .and_then(|v| v.parse().ok()),
            journal: std::env::var("ECGRID_JOURNAL").ok().map(PathBuf::from),
        }
    }

    fn duration(&self, full: f64) -> f64 {
        if self.fast {
            (full / 10.0).max(60.0)
        } else {
            full
        }
    }

    fn hosts(&self, full: usize) -> usize {
        if self.fast {
            (full / 2).max(10)
        } else {
            full
        }
    }
}

/// Every figure sweeps through here, supervised: panic isolation, the
/// watchdog, bounded retry and — with a journal — resume.  A journal that
/// cannot be opened ends the process before anything runs: a campaign
/// asked to checkpoint must not run for hours without one.
fn run_sweep(opts: &FigOpts, scenarios: &[Scenario]) -> Vec<AveragedResult> {
    let sup = SupervisorConfig {
        max_retries: opts.max_retries,
        event_budget: opts.event_budget,
        journal: opts.journal.clone(),
        ..SupervisorConfig::default()
    };
    let report = sweep_supervised(scenarios, opts.replicas, RunOptions::default(), &sup);
    if let Some(e) = &report.journal_error {
        eprintln!("{e}");
        std::process::exit(1);
    }
    if !report.quarantined.is_empty()
        || report.from_journal > 0
        || !report.failures.is_empty()
        || !report.append_errors.is_empty()
    {
        eprint!("{}", report.render());
    }
    report.averaged
}

fn results_dir() -> PathBuf {
    PathBuf::from(std::env::var("ECGRID_RESULTS_DIR").unwrap_or_else(|_| "results".into()))
}

fn save_series(name: &str, labelled: &[(&str, &metrics::TimeSeries)]) {
    let rows = series_csv_rows(labelled);
    let path = results_dir().join(name);
    if let Err(e) = write_csv(&path, &rows) {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        println!("(wrote {})", path.display());
    }
}

/// The Fig. 4/5 scenario matrix: 3 protocols at one speed.
fn lifetime_matrix(opts: &FigOpts, speed: f64) -> Vec<Scenario> {
    ProtocolKind::ALL
        .iter()
        .map(|p| {
            let mut sc = Scenario::paper_base(*p, speed, opts.base_seed);
            sc.duration_secs = opts.duration(2000.0);
            sc.n_hosts = opts.hosts(100);
            sc
        })
        .collect()
}

/// Figs. 4 and 5 share their runs; compute both from one sweep.
pub fn lifetime_and_energy(opts: &FigOpts, speed: f64) -> Vec<AveragedResult> {
    run_sweep(opts, &lifetime_matrix(opts, speed))
}

/// Fig. 4: fraction of alive hosts vs simulation time.
pub fn fig4(opts: &FigOpts) -> String {
    let mut out = String::new();
    for speed in [1.0, 10.0] {
        let res = lifetime_and_energy(opts, speed);
        let labelled: Vec<(&str, &metrics::TimeSeries)> = res
            .iter()
            .map(|r| (r.scenario.protocol.name(), &r.alive))
            .collect();
        let _ = write!(
            out,
            "{}",
            render_series_table(
                &format!("Fig. 4 — fraction of alive hosts vs time (speed {speed} m/s)"),
                &labelled,
                10
            )
        );
        for r in &res {
            let spread = r
                .network_death_sd
                .map(|s| format!(" (±{s:.0})"))
                .unwrap_or_default();
            let _ = writeln!(
                out,
                "   {:>7}: network death at {}{spread}",
                r.scenario.protocol.name(),
                r.network_death_s
                    .map(|t| format!("{t:.0} s"))
                    .unwrap_or_else(|| "none (survived)".into())
            );
        }
        let _ = write!(
            out,
            "{}",
            render_ascii_chart(&format!("Fig. 4 curve shapes ({speed} m/s)"), &labelled, 66, 14)
        );
        save_series(&format!("fig4_speed{speed}.csv"), &labelled);
        let _ = writeln!(out);
    }
    out
}

/// Fig. 5: mean energy consumption per host (aen) vs simulation time.
pub fn fig5(opts: &FigOpts) -> String {
    let mut out = String::new();
    for speed in [1.0, 10.0] {
        let res = lifetime_and_energy(opts, speed);
        let labelled: Vec<(&str, &metrics::TimeSeries)> =
            res.iter().map(|r| (r.scenario.protocol.name(), &r.aen)).collect();
        let _ = write!(
            out,
            "{}",
            render_series_table(
                &format!("Fig. 5 — mean energy consumption per host (aen) vs time (speed {speed} m/s)"),
                &labelled,
                10
            )
        );
        save_series(&format!("fig5_speed{speed}.csv"), &labelled);
        // the paper's headline ratio: aen(GRID) vs others before 590 s
        let at = 500.0f64.min(res[0].aen.points().last().map(|p| p.t_secs).unwrap_or(500.0));
        let grid = res.iter().find(|r| r.scenario.protocol == ProtocolKind::Grid);
        for r in &res {
            if let (Some(g), Some(v), Some(gv)) =
                (grid, r.aen.value_at(at), grid.and_then(|g| g.aen.value_at(at)))
            {
                if r.scenario.protocol != ProtocolKind::Grid && v > 0.0 {
                    let _ = writeln!(
                        out,
                        "   aen(GRID)/aen({}) at t={at:.0}s = {:.2} (paper: ~1.3-1.4)",
                        r.scenario.protocol.name(),
                        gv / v
                    );
                }
                let _ = g;
            }
        }
        let _ = writeln!(out);
    }
    out
}

/// The Fig. 6/7 matrix: pause times 0..600 at one speed, horizon 590 s.
fn delivery_matrix(opts: &FigOpts, speed: f64, pause: f64) -> Vec<Scenario> {
    ProtocolKind::ALL
        .iter()
        .map(|p| {
            let mut sc = Scenario::paper_base(*p, speed, opts.base_seed);
            sc.pause_secs = pause;
            sc.duration_secs = opts.duration(590.0);
            sc.n_hosts = opts.hosts(100);
            sc
        })
        .collect()
}

const PAUSES: [f64; 5] = [0.0, 150.0, 300.0, 450.0, 600.0];

fn delivery_rows(
    opts: &FigOpts,
    value: impl Fn(&AveragedResult) -> Option<f64>,
) -> (String, Vec<Vec<String>>) {
    let mut out = String::new();
    let mut csv: Vec<Vec<String>> = vec![vec![
        "speed".into(),
        "pause_s".into(),
        "GRID".into(),
        "ECGRID".into(),
        "GAF".into(),
    ]];
    for speed in [1.0, 10.0] {
        let _ = writeln!(out, "  speed {speed} m/s");
        let _ = writeln!(
            out,
            "{:>10} {:>10} {:>10} {:>10}",
            "pause(s)", "GRID", "ECGRID", "GAF"
        );
        for pause in PAUSES {
            let res = run_sweep(opts, &delivery_matrix(opts, speed, pause));
            let mut row = vec![format!("{speed}"), format!("{pause}")];
            let _ = write!(out, "{pause:>10}");
            for r in &res {
                let v = value(r);
                let _ = write!(
                    out,
                    " {:>10}",
                    v.map(|x| format!("{x:.3}")).unwrap_or_else(|| "-".into())
                );
                row.push(v.map(|x| format!("{x}")).unwrap_or_default());
            }
            let _ = writeln!(out);
            csv.push(row);
        }
        let _ = writeln!(out);
    }
    (out, csv)
}

/// Fig. 6: packet delivery latency (ms) vs pause time, horizon 590 s.
pub fn fig6(opts: &FigOpts) -> String {
    let (body, csv) = delivery_rows(opts, |r| r.latency_ms_590);
    let path = results_dir().join("fig6_latency.csv");
    let _ = write_csv(&path, &csv);
    format!(
        "## Fig. 6 — packet delivery latency (ms) vs pause time (<=590 s)\n{body}(wrote {})\n",
        path.display()
    )
}

/// Fig. 7: packet delivery rate vs pause time, horizon 590 s.
pub fn fig7(opts: &FigOpts) -> String {
    let (body, csv) = delivery_rows(opts, |r| r.pdr_590);
    let path = results_dir().join("fig7_delivery_rate.csv");
    let _ = write_csv(&path, &csv);
    format!(
        "## Fig. 7 — packet delivery rate vs pause time (<=590 s)\n{body}(wrote {})\n",
        path.display()
    )
}

/// Fig. 8: alive fraction vs time for GRID and ECGRID at 50/100/150/200
/// hosts.
pub fn fig8(opts: &FigOpts) -> String {
    let densities: &[usize] = if opts.fast {
        &[25, 50]
    } else {
        &[50, 100, 150, 200]
    };
    let mut out = String::new();
    for speed in [1.0, 10.0] {
        let mut scenarios = Vec::new();
        for p in [ProtocolKind::Grid, ProtocolKind::Ecgrid] {
            for &n in densities {
                let mut sc = Scenario::paper_base(p, speed, opts.base_seed);
                sc.n_hosts = n;
                sc.duration_secs = opts.duration(2000.0);
                scenarios.push(sc);
            }
        }
        let res = run_sweep(opts, &scenarios);
        let labels: Vec<String> = res
            .iter()
            .map(|r| format!("{}-{}", r.scenario.protocol.name(), r.scenario.n_hosts))
            .collect();
        let labelled: Vec<(&str, &metrics::TimeSeries)> = res
            .iter()
            .zip(&labels)
            .map(|(r, l)| (l.as_str(), &r.alive))
            .collect();
        let _ = write!(
            out,
            "{}",
            render_series_table(
                &format!("Fig. 8 — alive fraction vs time across host densities (speed {speed} m/s)"),
                &labelled,
                10
            )
        );
        for r in &res {
            let first_drop = r.alive.first_time_at_or_below(0.999);
            let _ = writeln!(
                out,
                "   {:>10}: first death {}",
                format!("{}-{}", r.scenario.protocol.name(), r.scenario.n_hosts),
                first_drop
                    .map(|t| format!("{t:.0} s"))
                    .unwrap_or_else(|| "none".into())
            );
        }
        save_series(&format!("fig8_speed{speed}.csv"), &labelled);
        let _ = writeln!(out);
    }
    out
}
