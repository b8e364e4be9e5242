//! The paper's §4 evaluation as one campaign: three scenario matrices
//! (lifetime, delivery, density), one supervised sweep (DESIGN.md §9) over
//! the distinct points of the requested figures, and Figs. 4–8 as pure
//! views over its results — each point simulated once, each figure finding
//! its points by journal identity rather than by position.
//!
//! Environment knobs (read by `experiments`, which takes every other
//! option as a flag):
//! * `ECGRID_FAST=1`       — shrink durations/densities for a smoke run;
//! * `ECGRID_RESULTS_DIR`  — where the CSVs go (default `results`).

use crate::report::{opt_or, render_ascii_chart, render_series_table, series_csv_rows, write_csv, Labelled};
use crate::run::RunOptions;
use crate::scenario::{ProtocolKind, Scenario};
use crate::supervisor::{config_hash, sweep_supervised, JournalError, SupervisorConfig};
use crate::sweep::AveragedResult;
use std::collections::{HashMap, HashSet};
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
    /// Checkpoint journal: `Some` makes the campaign resumable.
    pub journal: Option<PathBuf>,
}

impl FigOpts {
    /// The defaults, with `ECGRID_FAST` read from the environment.
    pub fn from_env() -> Self {
        FigOpts {
            replicas: 3,
            fast: std::env::var("ECGRID_FAST").map(|v| v == "1").unwrap_or(false),
            base_seed: 42,
            max_retries: SupervisorConfig::default().max_retries,
            event_budget: None,
            journal: None,
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

// ----- the three matrices -----------------------------------------------
//
// Each matrix is a product of the row builders below, and the renderers
// ask for their points through the same builders: a figure cannot request
// a point its matrix does not hold.

const SPEEDS: [f64; 2] = [1.0, 10.0];
const PAUSES: [f64; 5] = [0.0, 150.0, 300.0, 450.0, 600.0];

/// The §4 base configuration at `hosts` hosts for `secs` (full-scale) seconds.
fn point(opts: &FigOpts, p: ProtocolKind, speed: f64, pause: f64, hosts: usize, secs: f64) -> Scenario {
    Scenario {
        pause_secs: pause,
        n_hosts: hosts,
        duration_secs: opts.duration(secs),
        ..Scenario::paper_base(p, speed, opts.base_seed)
    }
}

/// Figs. 4/5 at one speed: the three protocols over the full 2000 s.
fn lifetime_row(opts: &FigOpts, speed: f64) -> Vec<Scenario> {
    let row = ProtocolKind::ALL.iter();
    row.map(|&p| point(opts, p, speed, 0.0, opts.hosts(100), 2000.0))
        .collect()
}

/// Figs. 6/7 at one speed and pause time: the same fleets to the 590 s horizon.
fn delivery_row(opts: &FigOpts, speed: f64, pause: f64) -> Vec<Scenario> {
    let row = ProtocolKind::ALL.iter();
    row.map(|&p| point(opts, p, speed, pause, opts.hosts(100), 590.0))
        .collect()
}

/// Fig. 8 at one speed: GRID and ECGRID at every host density (the 100-host
/// points are Fig. 4's).
fn density_row(opts: &FigOpts, speed: f64) -> Vec<Scenario> {
    let densities: &[usize] = if opts.fast {
        &[25, 50]
    } else {
        &[50, 100, 150, 200]
    };
    let mut row = Vec::new();
    for p in [ProtocolKind::Grid, ProtocolKind::Ecgrid] {
        row.extend(densities.iter().map(|&n| point(opts, p, speed, 0.0, n, 2000.0)));
    }
    row
}

/// One of the paper's evaluation figures, by its number.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Figure {
    Fig4 = 4,
    Fig5,
    Fig6,
    Fig7,
    Fig8,
}
use Figure::*;

impl Figure {
    pub const ALL: [Figure; 5] = [Fig4, Fig5, Fig6, Fig7, Fig8];

    pub fn from_number(n: u8) -> Option<Figure> {
        Self::ALL.into_iter().find(|f| *f as u8 == n)
    }

    /// Every point the figure plots.
    pub fn matrix(self, opts: &FigOpts) -> Vec<Scenario> {
        let speeds = SPEEDS.iter();
        match self {
            Fig4 | Fig5 => speeds.flat_map(|&s| lifetime_row(opts, s)).collect(),
            Fig6 | Fig7 => speeds
                .flat_map(|&s| PAUSES.iter().flat_map(move |&p| delivery_row(opts, s, p)))
                .collect(),
            Fig8 => speeds.flat_map(|&s| density_row(opts, s)).collect(),
        }
    }

    /// The figure's stdout section and CSV files from a campaign's results.
    pub fn render(self, opts: &FigOpts, res: &Results) -> Rendered {
        match self {
            Fig4 => fig4(opts, res),
            Fig5 => fig5(opts, res),
            Fig6 => {
                let title = "Fig. 6 — packet delivery latency (ms) vs pause time (<=590 s)";
                delivery_figure(opts, res, title, "fig6_latency.csv", |r| r.latency_ms_590)
            }
            Fig7 => {
                let title = "Fig. 7 — packet delivery rate vs pause time (<=590 s)";
                delivery_figure(opts, res, title, "fig7_delivery_rate.csv", |r| r.pdr_590)
            }
            Fig8 => fig8(opts, res),
        }
    }
}

// ----- the campaign -----------------------------------------------------

/// A point's identity: the journal's resume key at the base seed, so "the
/// same point" means here exactly what it means to a resumed sweep.
pub fn point_key(sc: &Scenario) -> (u64, u64) {
    (config_hash(sc, &RunOptions::default()), sc.seed)
}

/// Averaged results by [`point_key`].  A point whose every replica was
/// quarantined is absent.
pub struct Results(HashMap<(u64, u64), AveragedResult>);

impl Results {
    pub fn new(averaged: impl IntoIterator<Item = AveragedResult>) -> Self {
        let keyed = averaged.into_iter().map(|a| (point_key(&a.scenario), a));
        Results(keyed.collect())
    }

    pub fn get(&self, sc: &Scenario) -> Option<&AveragedResult> {
        self.0.get(&point_key(sc))
    }

    /// Each point of `row` beside its result, in row order.
    fn view(&self, row: Vec<Scenario>) -> Vec<(Scenario, Option<&AveragedResult>)> {
        row.into_iter().map(|sc| (sc, self.get(&sc))).collect()
    }
}

/// The requested figures as one sweep.
pub struct Campaign {
    /// What to render: sorted into paper order, repeats dropped.
    pub figures: Vec<Figure>,
    /// What to simulate: the union of the figures' matrices, each distinct
    /// point once.
    pub points: Vec<Scenario>,
}

impl Campaign {
    pub fn new(opts: &FigOpts, figures: &[Figure]) -> Self {
        let mut figures = figures.to_vec();
        figures.sort();
        figures.dedup();
        let mut seen = HashSet::new();
        let matrices = figures.iter().flat_map(|f| f.matrix(opts));
        let points = matrices.filter(|sc| seen.insert(point_key(sc))).collect();
        Campaign { figures, points }
    }

    /// The campaign's one sweep, supervised: panic isolation, the
    /// watchdog, bounded retry and — with a journal — resume.  A journal
    /// that cannot be opened is the error, and nothing ran: a campaign
    /// asked to checkpoint must not run for hours without one.  Prints one
    /// summary line to stderr, then the supervision report if it holds
    /// anything more.
    pub fn run(&self, opts: &FigOpts) -> Result<Results, JournalError> {
        let sup = SupervisorConfig {
            max_retries: opts.max_retries,
            journal: opts.journal.clone(),
        };
        let run = RunOptions::default().with_event_budget(opts.event_budget);
        let report = sweep_supervised(&self.points, opts.replicas, run, &sup);
        if let Some(e) = report.journal_error {
            return Err(e);
        }
        eprintln!(
            "campaign: {} points x {} replicas: {} fresh, {} from journal",
            self.points.len(),
            opts.replicas,
            report.completed,
            report.from_journal
        );
        if !report.failures.is_empty()
            || !report.append_errors.is_empty()
            || report.malformed_journal_lines > 0
        {
            eprint!("{}", report.render());
        }
        Ok(Results::new(report.averaged))
    }
}

// ----- the figures ------------------------------------------------------

/// What a figure renders to: its stdout section and its CSV files, as
/// (file name, rows) with the header row first.
pub struct Rendered {
    pub text: String,
    pub csv: Vec<(String, Vec<Vec<String>>)>,
}

impl Rendered {
    /// Print the section and write its CSVs under `ECGRID_RESULTS_DIR`,
    /// reporting each file as written or not.
    pub fn publish(&self) {
        print!("{}", self.text);
        let dir = PathBuf::from(std::env::var("ECGRID_RESULTS_DIR").unwrap_or_else(|_| "results".into()));
        for (name, rows) in &self.csv {
            let path = dir.join(name);
            match write_csv(&path, rows) {
                Ok(()) => println!("(wrote {})", path.display()),
                Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
            }
        }
    }
}

/// Fig. 4: fraction of alive hosts vs simulation time.
fn fig4(opts: &FigOpts, res: &Results) -> Rendered {
    let mut out = String::new();
    let mut csv = Vec::new();
    for speed in SPEEDS {
        let points = res.view(lifetime_row(opts, speed));
        let labelled: Vec<Labelled> = points
            .iter()
            .map(|(sc, r)| (sc.protocol.name(), r.map(|r| &r.alive)))
            .collect();
        out += &render_series_table(
            &format!("Fig. 4 — fraction of alive hosts vs time (speed {speed} m/s)"),
            &labelled,
            10,
        );
        for (sc, r) in &points {
            let death = opt_or(*r, "-", |r| {
                opt_or(r.network_death_s, "none (survived)", |t| format!("{t:.0} s"))
                    + &opt_or(r.network_death_sd, "", |s| format!(" (±{s:.0})"))
            });
            let _ = writeln!(out, "   {:>7}: network death at {death}", sc.protocol.name());
        }
        out += &render_ascii_chart(&format!("Fig. 4 curve shapes ({speed} m/s)"), &labelled, 66, 14);
        csv.push((format!("fig4_speed{speed}.csv"), series_csv_rows(&labelled)));
        let _ = writeln!(out);
    }
    Rendered { text: out, csv }
}

/// Fig. 5: mean energy consumption per host (aen) vs simulation time.
fn fig5(opts: &FigOpts, res: &Results) -> Rendered {
    let mut out = String::new();
    let mut csv = Vec::new();
    for speed in SPEEDS {
        let points = res.view(lifetime_row(opts, speed));
        let labelled: Vec<Labelled> = points
            .iter()
            .map(|(sc, r)| (sc.protocol.name(), r.map(|r| &r.aen)))
            .collect();
        out += &render_series_table(
            &format!("Fig. 5 — mean energy consumption per host (aen) vs time (speed {speed} m/s)"),
            &labelled,
            10,
        );
        csv.push((format!("fig5_speed{speed}.csv"), series_csv_rows(&labelled)));
        // the paper's headline ratio: aen(GRID) vs others before 590 s
        let grid = points.iter().find(|(sc, _)| sc.protocol == ProtocolKind::Grid);
        if let Some(grid) = grid.and_then(|(_, r)| *r) {
            let at = 500.0f64.min(grid.aen.points().last().map_or(500.0, |p| p.t_secs));
            for (sc, r) in points.iter().filter(|(sc, _)| sc.protocol != ProtocolKind::Grid) {
                match (grid.aen.value_at(at), r.and_then(|r| r.aen.value_at(at))) {
                    (Some(gv), Some(v)) if v > 0.0 => {
                        let (name, ratio) = (sc.protocol.name(), gv / v);
                        let _ = writeln!(
                            out,
                            "   aen(GRID)/aen({name}) at t={at:.0}s = {ratio:.2} (paper: ~1.3-1.4)"
                        );
                    }
                    _ => {}
                }
            }
        }
        let _ = writeln!(out);
    }
    Rendered { text: out, csv }
}

/// The Fig. 6/7 layout: one table per speed, a row per pause time, a
/// column per protocol holding `value` of that point.
fn delivery_figure(
    opts: &FigOpts,
    res: &Results,
    title: &str,
    file: &str,
    value: impl Fn(&AveragedResult) -> Option<f64>,
) -> Rendered {
    let names = ProtocolKind::ALL.map(ProtocolKind::name);
    let mut out = format!("## {title}\n");
    let mut header = vec!["speed".to_string(), "pause_s".to_string()];
    header.extend(names.map(String::from));
    let mut csv = vec![header];
    for speed in SPEEDS {
        let _ = writeln!(out, "  speed {speed} m/s");
        let _ = write!(out, "{:>10}", "pause(s)");
        for name in names {
            let _ = write!(out, " {name:>10}");
        }
        let _ = writeln!(out);
        for pause in PAUSES {
            let mut row = vec![format!("{speed}"), format!("{pause}")];
            let _ = write!(out, "{pause:>10}");
            for (_, r) in res.view(delivery_row(opts, speed, pause)) {
                let v = r.and_then(&value);
                let _ = write!(out, " {:>10}", opt_or(v, "-", |x| format!("{x:.3}")));
                row.push(opt_or(v, "", |x| format!("{x}")));
            }
            let _ = writeln!(out);
            csv.push(row);
        }
        let _ = writeln!(out);
    }
    Rendered {
        text: out,
        csv: vec![(file.into(), csv)],
    }
}

/// Fig. 8: alive fraction vs time for GRID and ECGRID at 50/100/150/200
/// hosts.
fn fig8(opts: &FigOpts, res: &Results) -> Rendered {
    let mut out = String::new();
    let mut csv = Vec::new();
    for speed in SPEEDS {
        let points: Vec<(String, Option<&AveragedResult>)> = res
            .view(density_row(opts, speed))
            .into_iter()
            .map(|(sc, r)| (format!("{}-{}", sc.protocol.name(), sc.n_hosts), r))
            .collect();
        let labelled: Vec<Labelled> = points
            .iter()
            .map(|(label, r)| (label.as_str(), r.map(|r| &r.alive)))
            .collect();
        out += &render_series_table(
            &format!("Fig. 8 — alive fraction vs time across host densities (speed {speed} m/s)"),
            &labelled,
            10,
        );
        for (label, r) in &points {
            let first_drop = opt_or(*r, "-", |r| {
                opt_or(r.alive.first_time_at_or_below(0.999), "none", |t| {
                    format!("{t:.0} s")
                })
            });
            let _ = writeln!(out, "   {label:>10}: first death {first_drop}");
        }
        csv.push((format!("fig8_speed{speed}.csv"), series_csv_rows(&labelled)));
        let _ = writeln!(out);
    }
    Rendered { text: out, csv }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::TimeSeries;

    fn opts(fast: bool) -> FigOpts {
        FigOpts {
            replicas: 1,
            fast,
            base_seed: 42,
            max_retries: 0,
            event_budget: None,
            journal: None,
        }
    }

    /// A made-up average for `sc`: straight lines over 0..=200 s whose
    /// slope tells the points apart (protocol, density, speed, pause).
    fn synthetic(sc: &Scenario) -> AveragedResult {
        let proto = ProtocolKind::ALL.iter().position(|p| *p == sc.protocol).unwrap() as f64;
        let k = 1.0 + proto + sc.n_hosts as f64 / 100.0 + sc.max_speed / 100.0 + sc.pause_secs / 1000.0;
        let line = |per_sec: f64| {
            (0..=20)
                .map(|i| (i as f64 * 10.0, i as f64 * 10.0 * per_sec))
                .collect()
        };
        let alive: TimeSeries = line(-0.001 * k);
        AveragedResult {
            scenario: *sc,
            replicas: 2,
            replicas_requested: 2,
            alive: alive.points().iter().map(|p| (p.t_secs, 1.0 + p.value)).collect(),
            aen: line(0.001 / k),
            pdr: Some(0.9),
            latency_ms: Some(10.0 * k),
            pdr_590: Some(1.0 - k / 100.0),
            latency_ms_590: Some(10.0 * k),
            network_death_s: (sc.protocol == ProtocolKind::Grid).then_some(100.0 * k),
            pdr_sd: None,
            latency_sd: None,
            network_death_sd: (sc.max_speed > 1.0).then_some(7.0),
        }
    }

    fn synthetic_results(points: &[Scenario]) -> Results {
        Results::new(points.iter().map(synthetic))
    }

    fn keys(points: &[Scenario]) -> HashSet<(u64, u64)> {
        points.iter().map(point_key).collect()
    }

    #[test]
    fn the_campaign_holds_each_point_once_and_every_figure_finds_its_own() {
        for (fast, distinct, requested) in [(false, 48, 88), (true, 40, 80)] {
            let o = opts(fast);
            let all = Campaign::new(&o, &Figure::ALL);
            assert_eq!(all.points.len(), distinct);
            assert_eq!(
                keys(&all.points).len(),
                distinct,
                "no two points share a journal identity"
            );
            let asked: usize = Figure::ALL.iter().map(|f| f.matrix(&o).len()).sum();
            assert_eq!(asked, requested, "what one sweep per figure would simulate");
            let res = synthetic_results(&all.points);
            for f in Figure::ALL {
                assert!(res.view(f.matrix(&o)).iter().all(|(_, r)| r.is_some()), "{f:?}");
            }
            // order and repeats in the request do not matter, and one
            // figure's campaign is a part of the whole
            let one = Campaign::new(&o, &[Fig6, Fig6]);
            assert_eq!((one.figures.as_slice(), one.points.len()), (&[Fig6][..], 30));
            assert!(keys(&one.points).is_subset(&keys(&all.points)));
            assert_eq!(Campaign::new(&o, &[Fig8, Fig4]).figures, [Fig4, Fig8]);
            assert_eq!(
                Campaign::new(&o, &[Fig4, Fig5]).points.len(),
                6,
                "Figs. 4/5 share their runs"
            );
        }
        assert_eq!(Figure::from_number(7), Some(Fig7));
        assert_eq!((Figure::from_number(3), Figure::from_number(9)), (None, None));
    }

    const FIG4: &str = "\
## Fig. 4 — fraction of alive hosts vs time (speed 1 m/s)
    t(s)       GRID     ECGRID        GAF
       0     1.0000     1.0000     1.0000
     100     0.8490     0.7490     0.6490
     200     0.6980     0.4980     0.2980
      GRID: network death at 151 s
    ECGRID: network death at none (survived)
       GAF: network death at none (survived)
## Fig. 4 curve shapes (1 m/s)
    1.000 ┐
";
    const FIG5: &str = "\
## Fig. 5 — mean energy consumption per host (aen) vs time (speed 1 m/s)
    t(s)       GRID     ECGRID        GAF
       0     0.0000     0.0000     0.0000
     100     0.0662     0.0398     0.0285
     200     0.1325     0.0797     0.0570
   aen(GRID)/aen(ECGRID) at t=200s = 1.66 (paper: ~1.3-1.4)
   aen(GRID)/aen(GAF) at t=200s = 2.32 (paper: ~1.3-1.4)

## Fig. 5 — mean energy consumption per host (aen) vs time (speed 10 m/s)
";
    const FIG6: &str = "\
## Fig. 6 — packet delivery latency (ms) vs pause time (<=590 s)
  speed 1 m/s
  pause(s)       GRID     ECGRID        GAF
         0     15.100     25.100     35.100
       150     16.600     26.600     36.600
       300     18.100     28.100     38.100
       450     19.600     29.600     39.600
       600     21.100     31.100     41.100

  speed 10 m/s
  pause(s)       GRID     ECGRID        GAF
         0     16.000     26.000     36.000
";
    const FIG7: &str = "\
## Fig. 7 — packet delivery rate vs pause time (<=590 s)
  speed 1 m/s
  pause(s)       GRID     ECGRID        GAF
         0      0.985      0.975      0.965
";
    const FIG8: &str = "\
## Fig. 8 — alive fraction vs time across host densities (speed 1 m/s)
    t(s)    GRID-25    GRID-50  ECGRID-25  ECGRID-50
       0     1.0000     1.0000     1.0000     1.0000
     100     0.8740     0.8490     0.7740     0.7490
     200     0.7480     0.6980     0.5480     0.4980
      GRID-25: first death 10 s
      GRID-50: first death 10 s
    ECGRID-25: first death 10 s
    ECGRID-50: first death 10 s

## Fig. 8 — alive fraction vs time across host densities (speed 10 m/s)
";

    #[test]
    fn each_figure_renders_the_committed_layout() {
        let o = opts(true);
        let res = synthetic_results(&Campaign::new(&o, &Figure::ALL).points);
        let files = [
            vec!["fig4_speed1.csv", "fig4_speed10.csv"],
            vec!["fig5_speed1.csv", "fig5_speed10.csv"],
            vec!["fig6_latency.csv"],
            vec!["fig7_delivery_rate.csv"],
            vec!["fig8_speed1.csv", "fig8_speed10.csv"],
        ];
        for ((f, layout), files) in Figure::ALL
            .into_iter()
            .zip([FIG4, FIG5, FIG6, FIG7, FIG8])
            .zip(files)
        {
            let r = f.render(&o, &res);
            assert!(r.text.starts_with(layout), "{f:?}:\n{}", r.text);
            assert!(r.text.ends_with("\n\n"), "{f:?} sections end on a blank line");
            assert_eq!(
                r.csv.iter().map(|(name, _)| name.as_str()).collect::<Vec<_>>(),
                files
            );
        }
        let fig4 = Fig4.render(&o, &res);
        assert!(fig4.text.contains("      GRID: network death at 160 s (±7)\n"));
        assert!(fig4.text.contains("           * GRID   o ECGRID   + GAF\n"));
        assert_eq!(
            fig4.csv[0].1[..2],
            [["t_secs", "GRID", "ECGRID", "GAF"], ["0", "1", "1", "1"]]
        );
        let fig7 = Fig7.render(&o, &res);
        assert_eq!(fig7.csv[0].1[0], ["speed", "pause_s", "GRID", "ECGRID", "GAF"]);
        assert_eq!(fig7.csv[0].1[2], ["1", "150", "0.9834", "0.9734", "0.9634"]);
        assert_eq!(fig7.csv[0].1.len(), 1 + 10);
    }

    #[test]
    fn a_missing_point_is_a_dash_under_its_own_header_not_a_shifted_column() {
        let o = opts(true);
        let mut points = Campaign::new(&o, &Figure::ALL).points;
        // every replica of these two was quarantined: ECGRID at 1 m/s, on
        // the pause-150 delivery row and on the lifetime row
        let lost = [delivery_row(&o, 1.0, 150.0)[1], lifetime_row(&o, 1.0)[1]];
        points.retain(|sc| !keys(&lost).contains(&point_key(sc)));
        let res = synthetic_results(&points);

        let fig6 = Fig6.render(&o, &res);
        assert!(
            fig6.text
                .contains("       150     16.600          -     36.600\n"),
            "{}",
            fig6.text
        );
        assert_eq!(
            fig6.csv[0].1[2],
            ["1", "150", "16.599999999999998", "", "36.599999999999994"]
        );
        let fig7 = Fig7.render(&o, &res);
        assert!(
            fig7.text
                .contains("       150      0.983          -      0.963\n"),
            "{}",
            fig7.text
        );

        let fig4 = Fig4.render(&o, &res);
        assert!(
            fig4.text.contains("     100     0.8490          -     0.6490\n"),
            "{}",
            fig4.text
        );
        assert!(fig4.text.contains("    ECGRID: network death at -\n"));
        assert_eq!(fig4.csv[0].1[1], ["0", "1", "", "1"]);
        let fig5 = Fig5.render(&o, &res);
        assert!(fig5.text.contains("aen(GRID)/aen(GAF) at t=200s = 2.32"));
        assert!(!fig5.text.contains("aen(GRID)/aen(ECGRID) at t=200s = 1.66"));
        let fig8 = Fig8.render(&o, &res);
        assert!(
            fig8.text.contains("    ECGRID-50: first death -\n"),
            "Fig. 8 shares Fig. 4's point"
        );

        // nothing at all came back: headers and dashes, no panic
        let none = Results::new([]);
        for f in Figure::ALL {
            let r = f.render(&o, &none);
            assert!(
                r.text.starts_with(&format!("## Fig. {} — ", f as u8)),
                "{}",
                r.text
            );
            assert!(!r.csv.is_empty());
        }
        assert!(Fig6
            .render(&o, &none)
            .text
            .contains("         0          -          -          -\n"));
    }
}
