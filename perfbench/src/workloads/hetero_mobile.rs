//! `hetero_mobile`: the benchmark-owned `workloads/hetero_mobile.scn`
//! through `scenario::parse` + `runner::run_spec` for all three protocols
//! in sequence under a `loss=0.05,churn=0.005` fault plan.  The same
//! layers as the paper square, used differently — index moves beside
//! gathers, route breaks, MAC retries around one sink, fault draws, mixed
//! radio ranges — and the only workload on the scenario-file pipeline.
//!
//! Each protocol runs the file on two sub-seeds of the command-line seed:
//! where the one sink lands decides how congested a run is, and two
//! topologies per protocol keep one unlucky draw from deciding a rep.

use crate::core::{
    digest_of, fold_result, Fleet, LayerCtx, Metric, Rep, RepRun, Variant, Verified, Workload,
};
use crate::span::Tracer;
use manet::sim_engine::derive_seed;
use manet::trace::Fnv64;
use manet::FaultPlan;
use runner::{run_spec, ProtocolKind, RunOptions, ScenarioResult};
use scenario::ScenarioSpec;
use std::time::Instant;

pub const SCN: &str = include_str!("../../workloads/hetero_mobile.scn");
const FAULTS: &str = "loss=0.05,churn=0.005";
/// Topologies (sub-seeds) each protocol runs.
const SUB_SEEDS: u64 = 2;

/// ns per calibration-kernel iteration on the host class the committed
/// numbers come from (see `calib.rs`; only ratios matter).
const NOMINAL_CAL_NS: f64 = 175.0;

pub struct HeteroMobile {
    seed: u64,
    smoke: bool,
    /// One parsed file per sub-seed.
    specs: Vec<ScenarioSpec>,
    faults: FaultPlan,
    /// Per leg (protocol-major, then sub-seed): wall of the last timed
    /// body, events of the last verify pass.
    body_walls: Vec<(ProtocolKind, f64)>,
    verify_events: Vec<(ProtocolKind, u64)>,
}

impl HeteroMobile {
    pub fn new(seed: u64, smoke: bool) -> Self {
        let mut w = HeteroMobile {
            seed,
            smoke,
            specs: Vec::new(),
            faults: FaultPlan::parse(FAULTS).expect("the fault plan is a constant"),
            body_walls: Vec::new(),
            verify_events: Vec::new(),
        };
        // the fleet's shape is known before the first (timed) setup
        w.specs = w.parse_all(&mut Tracer::new(false));
        w
    }

    fn parse_all(&self, tr: &mut Tracer) -> Vec<ScenarioSpec> {
        (0..SUB_SEEDS).map(|k| self.parse(k, tr)).collect()
    }

    /// The file as the benchmark runs it: seed derived from the command
    /// line, simulated time (and, for `--smoke`, group sizes) frozen here.
    fn parse(&self, sub_seed: u64, tr: &mut Tracer) -> ScenarioSpec {
        let mut spec = tr
            .span("scenario.parse", |_| scenario::parse(SCN))
            .expect("workloads/hetero_mobile.scn parses");
        spec.seed = derive_seed(self.seed, "hetero_mobile", sub_seed);
        spec.duration_s = if self.smoke { 8.0 } else { 35.0 };
        if self.smoke {
            for g in &mut spec.groups {
                g.count = g.count.div_ceil(8);
            }
        }
        spec
    }

    /// The first sub-seed's file: the representative run's, and the
    /// shape every sub-seed shares.
    fn spec(&self) -> &ScenarioSpec {
        self.specs.first().expect("there is at least one sub-seed")
    }

    fn opts(&self, v: Variant) -> RunOptions {
        v.run_options().with_faults(self.faults)
    }

    fn run_all(&self, v: Variant, tr: &mut Tracer) -> Vec<(ScenarioResult, f64)> {
        ProtocolKind::ALL
            .iter()
            .flat_map(|&p| self.specs.iter().map(move |spec| (p, spec)))
            .map(|(p, spec)| {
                let t = Instant::now();
                let r = tr.span("runner.run_spec", |_| run_spec(spec, p, self.opts(v)));
                (r, t.elapsed().as_secs_f64())
            })
            .collect()
    }
}

fn fingerprint(results: &[(ScenarioResult, f64)]) -> u64 {
    let mut h = Fnv64::new();
    for (r, _) in results {
        fold_result(&mut h, r);
    }
    h.finish()
}

fn failures(results: &[(ScenarioResult, f64)]) -> u64 {
    results
        .iter()
        .filter(|(r, _)| r.budget_exceeded.is_some())
        .count() as u64
}

impl Workload for HeteroMobile {
    fn name(&self) -> &'static str {
        "hetero_mobile"
    }

    fn hosts(&self) -> usize {
        self.spec().total_hosts()
    }

    fn workers(&self) -> usize {
        1
    }

    fn sizes(&self) -> String {
        let spec = self.spec();
        format!(
            "{} hosts in {} groups on a {:.0} m field, many_to_one {} flows x {} pkt/s x {} B, {} s simulated, faults {FAULTS}, {{GRID,ECGRID,GAF}} x {SUB_SEEDS} sub-seeds in sequence",
            spec.total_hosts(),
            spec.groups.len(),
            spec.field_w,
            spec.traffic.flows,
            spec.traffic.rate_pps,
            spec.traffic.packet_bytes,
            spec.duration_s
        )
    }

    fn calibration_ns(&self) -> Option<f64> {
        Some(NOMINAL_CAL_NS)
    }

    fn fleet(&self) -> Fleet {
        let spec = self.spec();
        Fleet {
            n: spec.total_hosts(),
            field_w: spec.field_w,
            field_h: spec.field_h,
            max_speed: 10.0,
            sim_secs: spec.duration_s,
            seed: self.seed,
            flows: spec.traffic.flows,
        }
    }

    fn setup(&mut self, tr: &mut Tracer) {
        self.specs = self.parse_all(tr);
        // warm-up: a quarter of one ECGRID leg
        let mut warm = self.spec().clone();
        warm.duration_s /= 4.0;
        tr.span("runner.run_spec", |_| {
            std::hint::black_box(run_spec(&warm, ProtocolKind::Ecgrid, self.opts(Variant::Off)))
        });
    }

    fn body(&mut self, tr: &mut Tracer) -> Rep {
        let results = self.run_all(Variant::Off, tr);
        self.body_walls = results.iter().map(|(r, w)| (r.scenario.protocol, *w)).collect();
        Rep {
            fingerprint: fingerprint(&results),
            ops: results.len() as u64,
            failed: failures(&results),
        }
    }

    fn verify(&mut self, tr: &mut Tracer) -> Verified {
        let results = self.run_all(Variant::Digest, tr);
        let mut v = Verified {
            fingerprint: fingerprint(&results),
            ops: results.len() as u64,
            failed: failures(&results),
            ..Verified::default()
        };
        self.verify_events.clear();
        for (i, (r, _)) in results.iter().enumerate() {
            v.counts.add_result(r);
            let p = r.scenario.protocol;
            let sub = i % self.specs.len();
            v.digests.push((format!("{}.s{sub}", p.name()), digest_of(r)));
            self.verify_events
                .push((p, r.recorder.as_ref().map_or(0, |rec| rec.profile().dispatched)));
            if p == ProtocolKind::Ecgrid && sub == 0 {
                v.rep_digest = digest_of(r);
            }
        }
        v
    }

    fn rep_run(&mut self, v: Variant, tr: &mut Tracer) -> RepRun {
        let t = Instant::now();
        let r = tr.span("runner.run_spec", |_| {
            run_spec(self.spec(), ProtocolKind::Ecgrid, self.opts(v))
        });
        RepRun::of(&r, t.elapsed().as_secs_f64())
    }

    fn extras(&mut self, ctx: &mut LayerCtx<'_>, _: &mut Tracer) -> Vec<Metric> {
        let mut out = Vec::new();
        for p in ProtocolKind::ALL {
            let wall: f64 = self.body_walls.iter().filter(|l| l.0 == p).map(|l| l.1).sum();
            let events: u64 = self.verify_events.iter().filter(|l| l.0 == p).map(|l| l.1).sum();
            let proto = p.name().to_lowercase();
            let ns = wall * 1e9 / events.max(1) as f64;
            out.push(Metric::one(format!("manet.run.ns_per_event.{proto}"), "ns", ns));
            let layer = match p {
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
        out
    }
}
