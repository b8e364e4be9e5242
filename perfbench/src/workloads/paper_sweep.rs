//! `paper_sweep`: the Fig. 4/5 lifetime matrix through `runner::sweep` —
//! {GRID, ECGRID, GAF} × {1, 10 m/s} × replica seeds of the paper's
//! 100-host square.  Protocol handlers, MAC, timers and energy integration
//! do the work; 100 hosts sit under the 243-host gather crossover, so the
//! spatial index, channel buckets and sharding are bypassed.

use crate::core::{
    digest_of, fold_series, Fleet, LayerCtx, Metric, Rep, RepRun, Variant, Verified, Workload,
};
use crate::span::Tracer;
use manet::trace::Fnv64;
use runner::{
    average_results, average_results_degraded, replica_seed, run_replicas, run_scenario, run_scenario_with,
    run_spec, sweep, sweep_supervised, AveragedResult, ProtocolKind, RunOptions, Scenario, ScenarioResult,
    SupervisorConfig,
};
use std::path::PathBuf;
use std::time::Instant;

const SPEEDS: [f64; 2] = [1.0, 10.0];

/// ns per calibration-kernel iteration on the host class the committed
/// numbers come from (see `calib.rs`; only ratios matter).
const NOMINAL_CAL_NS: f64 = 170.0;

pub struct PaperSweep {
    seed: u64,
    smoke: bool,
    hosts: usize,
    sim_secs: f64,
    replicas: usize,
    /// Horizon of the extra sweep that reads the paper's reference points
    /// (GRID dies near 590 s, so it must run past that).
    fig_secs: f64,
    state_dir: PathBuf,
    scenarios: Vec<Scenario>,
    /// Events of each verify-pass job, scenario-major then replica.
    job_events: Vec<u64>,
}

impl PaperSweep {
    pub fn new(seed: u64, smoke: bool, state_dir: PathBuf) -> Self {
        PaperSweep {
            seed,
            smoke,
            hosts: if smoke { 30 } else { 100 },
            sim_secs: if smoke { 20.0 } else { 100.0 },
            replicas: if smoke { 1 } else { 3 },
            fig_secs: if smoke { 20.0 } else { 620.0 },
            state_dir,
            scenarios: Vec::new(),
            job_events: Vec::new(),
        }
    }

    fn scenario(&self, protocol: ProtocolKind, speed: f64, sim_secs: f64) -> Scenario {
        Scenario {
            n_hosts: self.hosts,
            duration_secs: sim_secs,
            ..Scenario::paper_base(protocol, speed, self.seed)
        }
    }

    fn matrix(&self, sim_secs: f64) -> Vec<Scenario> {
        ProtocolKind::ALL
            .iter()
            .flat_map(|&p| SPEEDS.map(|v| self.scenario(p, v, sim_secs)))
            .collect()
    }

    /// The representative run: ECGRID at 1 m/s, replica 0.
    fn rep_scenario(&self) -> Scenario {
        self.scenario(ProtocolKind::Ecgrid, 1.0, self.sim_secs)
    }

    /// The paper base as a one-group scenario file, for the `run_spec`
    /// side of `runner.spec_overhead_pct`.
    fn as_scn(&self) -> String {
        format!(
            "[scenario]\nname = \"paper-base\"\nfield_w = 1000\nfield_h = 1000\ncell_side = 100\n\
             duration_s = {}\nseed = {}\n\n[[group]]\nname = \"hosts\"\ncount = {}\nmobility = \"waypoint\"\n\
             max_speed = 1.0\npause_s = 0\nrole = \"peer\"\n\n[traffic]\npattern = \"cbr\"\nflows = 10\n\
             rate_pps = 1.0\npacket_bytes = 512\nstart_s = 5\n",
            self.sim_secs, self.seed, self.hosts
        )
    }
}

fn fingerprint(out: &[AveragedResult]) -> u64 {
    let mut h = Fnv64::new();
    for r in out {
        for x in [r.pdr, r.latency_ms, r.pdr_590, r.network_death_s] {
            h.write_u64(x.map_or(u64::MAX, f64::to_bits));
        }
        fold_series(&mut h, &r.alive);
        fold_series(&mut h, &r.aen);
    }
    h.finish()
}

fn label(sc: &Scenario, replica: usize) -> String {
    format!("{}.v{}.r{replica}", sc.protocol.name(), sc.max_speed)
}

impl Workload for PaperSweep {
    fn name(&self) -> &'static str {
        "paper_sweep"
    }

    fn hosts(&self) -> usize {
        self.hosts
    }

    fn workers(&self) -> usize {
        // `runner::sweep` fans out over every core the rayon stand-in sees
        manet::host_parallelism().min(self.scenarios.len().max(1) * self.replicas)
    }

    fn sizes(&self) -> String {
        format!(
            "{{GRID,ECGRID,GAF}} x {{1,10}} m/s x {} replicas, {} hosts, 1000 m field, {} s simulated, 10 flows x 1 pkt/s x 512 B",
            self.replicas, self.hosts, self.sim_secs
        )
    }

    fn calibration_ns(&self) -> Option<f64> {
        Some(NOMINAL_CAL_NS)
    }

    fn fleet(&self) -> Fleet {
        Fleet {
            n: self.hosts,
            field_w: 1000.0,
            field_h: 1000.0,
            max_speed: 1.0,
            sim_secs: self.sim_secs,
            seed: self.seed,
            flows: 10,
        }
    }

    fn setup(&mut self, tr: &mut Tracer) {
        self.scenarios = self.matrix(self.sim_secs);
        // warm-up: one run through the same entry point
        let warm = self.rep_scenario();
        tr.span("runner.run_scenario", |_| {
            std::hint::black_box(run_scenario(&warm))
        });
    }

    fn body(&mut self, tr: &mut Tracer) -> Rep {
        let out = tr.span("runner.sweep", |_| sweep(&self.scenarios, self.replicas));
        Rep {
            fingerprint: fingerprint(&out),
            ops: (self.scenarios.len() * self.replicas) as u64,
            failed: (self.scenarios.len() - out.len()) as u64,
        }
    }

    fn verify(&mut self, tr: &mut Tracer) -> Verified {
        // `run_replicas` derives the replica seeds exactly as `sweep` does
        let results: Vec<ScenarioResult> = tr.span("runner.run_scenario", |_| {
            self.scenarios
                .iter()
                .flat_map(|sc| run_replicas(sc, self.replicas, RunOptions::digest(), true))
                .collect()
        });
        let mut v = Verified {
            ops: results.len() as u64,
            ..Verified::default()
        };
        self.job_events.clear();
        for (i, r) in results.iter().enumerate() {
            v.counts.add_result(r);
            v.failed += u64::from(r.budget_exceeded.is_some());
            let sc = &self.scenarios[i / self.replicas];
            v.digests.push((label(sc, i % self.replicas), digest_of(r)));
            self.job_events
                .push(r.recorder.as_ref().map_or(0, |rec| rec.profile().dispatched));
            if sc.protocol == ProtocolKind::Ecgrid && sc.max_speed == 1.0 && i % self.replicas == 0 {
                v.rep_digest = digest_of(r);
            }
        }
        let averaged: Vec<AveragedResult> = tr.span("runner.average_results", |_| {
            results
                .chunks(self.replicas)
                .filter_map(|g| average_results_degraded(g, self.replicas))
                .collect()
        });
        v.fingerprint = fingerprint(&averaged);
        v
    }

    fn rep_run(&mut self, variant: Variant, tr: &mut Tracer) -> RepRun {
        let sc = self.rep_scenario();
        let t = Instant::now();
        let r = tr.span("runner.run_scenario", |_| {
            run_scenario_with(&sc, variant.run_options())
        });
        RepRun::of(&r, t.elapsed().as_secs_f64())
    }

    fn extras(&mut self, ctx: &mut LayerCtx<'_>, tr: &mut Tracer) -> Vec<Metric> {
        let mut out = Vec::new();

        // one serial untraced run of replica 0 of every scenario: wall per
        // protocol, and the sum the sweep's parallel efficiency is held to
        let mut serial_sum = 0.0;
        for (si, sc) in self.scenarios.clone().iter().enumerate() {
            let (_, wall) =
                ctx.time(|| tr.span("runner.run_scenario", |_| std::hint::black_box(run_scenario(sc))));
            serial_sum += wall;
            if sc.max_speed != 1.0 {
                continue;
            }
            let events = self
                .job_events
                .get(si * self.replicas)
                .copied()
                .unwrap_or(0)
                .max(1);
            let proto = sc.protocol.name().to_lowercase();
            let ns = wall * 1e9 / events as f64;
            out.push(Metric::one(
                format!("runner.run_scenario_ms.{proto}"),
                "ms",
                wall * 1e3,
            ));
            out.push(Metric::one(format!("manet.run.ns_per_event.{proto}"), "ns", ns));
            // ECGRID's handler share is a common metric; the other two
            // protocols only run here and in hetero_mobile
            let layer = match sc.protocol {
                ProtocolKind::Grid => "grid-routing",
                ProtocolKind::Gaf => "gaf",
                _ => continue,
            };
            out.push(Metric::one(
                format!("{layer}.handler.ns_per_event"),
                "ns",
                ns - ctx.substrate_ns_per_event,
            ));
        }
        out.push(Metric::one(
            "runner.sweep.parallel_efficiency",
            "ratio",
            serial_sum * self.replicas as f64 / (self.workers() as f64 * ctx.wall_cal_s),
        ));

        // the same fleet through the scenario-file pipeline, ns/event each
        // side under digest-only tracing
        let spec = scenario::parse(&self.as_scn()).expect("the generated scenario file parses");
        let (via_spec, spec_s) = ctx.time(|| {
            tr.span("runner.run_spec", |_| {
                run_spec(&spec, ProtocolKind::Ecgrid, RunOptions::digest())
            })
        });
        let spec_ns = spec_s * 1e9
            / via_spec
                .recorder
                .as_ref()
                .map_or(1, |r| r.profile().dispatched.max(1)) as f64;
        let (direct, direct_s) = ctx.time(|| self.rep_run(Variant::Digest, tr));
        let direct_ns = direct_s * 1e9 / direct.events.max(1) as f64;
        out.push(Metric::one(
            "runner.spec_overhead_pct",
            "%",
            (spec_ns / direct_ns - 1.0) * 100.0,
        ));

        // the same matrix under the supervisor (panic isolation, watchdog
        // budgets, retry bookkeeping), no journal
        let sup = SupervisorConfig::default();
        let (_, supervised_s) = ctx.time(|| {
            tr.span("runner.sweep_supervised", |_| {
                std::hint::black_box(sweep_supervised(
                    &self.scenarios,
                    self.replicas,
                    RunOptions::default(),
                    &sup,
                ))
            })
        });
        out.push(Metric::one(
            "runner.supervised_overhead_pct",
            "%",
            (supervised_s / ctx.wall_cal_s - 1.0) * 100.0,
        ));

        // what one journalled replica adds: a supervised sweep of many tiny
        // replicas, alternately without and with a checkpoint journal, so
        // the append is not lost in the runs' own noise
        let tiny = [Scenario {
            n_hosts: 12,
            n_flows: 2,
            ..self.scenario(ProtocolKind::Ecgrid, 1.0, 5.0)
        }];
        let tiny_replicas = if self.smoke { 4 } else { 24 };
        let journal = self.state_dir.join("paper_sweep.journal.jsonl");
        let _ = std::fs::create_dir_all(&self.state_dir);
        let appends: Vec<f64> = (0..if self.smoke { 1 } else { 5 })
            .map(|_| {
                let _ = std::fs::remove_file(&journal);
                let mut timed = |sup: &SupervisorConfig| {
                    ctx.time(|| {
                        tr.span("runner.sweep_supervised", |_| {
                            std::hint::black_box(sweep_supervised(
                                &tiny,
                                tiny_replicas,
                                RunOptions::default(),
                                sup,
                            ))
                        })
                    })
                    .1
                };
                let plain = timed(&sup);
                let journalled = timed(&sup.clone().with_journal(&journal));
                (journalled - plain) * 1e6 / tiny_replicas as f64
            })
            .collect();
        let _ = std::fs::remove_file(&journal);
        out.push(Metric::of("runner.journal.append_us", "us", &appends));

        // averaging one sweep point
        let group: Vec<ScenarioResult> = (0..self.replicas as u64)
            .map(|k| {
                run_scenario(&Scenario {
                    seed: replica_seed(self.seed, k),
                    ..self.scenario(ProtocolKind::Ecgrid, 1.0, self.sim_secs / 5.0)
                })
            })
            .collect();
        let ns = crate::kernels::time_per_op(tr, "runner.average_results", self.smoke, || {
            std::hint::black_box(average_results(std::hint::black_box(&group)));
            1
        });
        out.push(Metric::one("runner.average_results_us", "us", ns / 1e3));

        // the model's error against the paper's reference points, from one
        // replica of the matrix run past GRID's death
        let figs = tr.span("runner.sweep", |_| sweep(&self.matrix(self.fig_secs), 1));
        let find = |p: ProtocolKind, v: f64| {
            figs.iter()
                .find(|r| r.scenario.protocol == p && r.scenario.max_speed == v)
        };
        let (grid, ecgrid) = (find(ProtocolKind::Grid, 1.0), find(ProtocolKind::Ecgrid, 1.0));
        if let (Some(g), Some(e)) = (grid, ecgrid) {
            let at = 500.0f64.min(self.fig_secs);
            if let (Some(ga), Some(ea)) = (g.aen.value_at(at), e.aen.value_at(at)) {
                out.push(Metric::one(
                    "paper.fig5_aen_ratio_err_pct",
                    "%",
                    (ga / ea / 1.33 - 1.0).abs() * 100.0,
                ));
            }
            if let Some(death) = g.network_death_s {
                out.push(Metric::one(
                    "paper.fig4_grid_death_err_pct",
                    "%",
                    (death / 590.0 - 1.0).abs() * 100.0,
                ));
            }
            if let Some(pdr) = e.pdr_590 {
                out.push(Metric::one(
                    "paper.fig7_pdr_shortfall_pct",
                    "%",
                    (99.0 - pdr * 100.0).max(0.0),
                ));
            }
        }
        out
    }
}
