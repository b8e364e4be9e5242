//! What every workload shares: the metric record, the engine variants a
//! representative run can be repeated under, the operation counts a
//! verify pass observes, and the [`Workload`] interface the driver loop
//! in `main.rs` runs.

use crate::calib::HostSpeed;
use crate::span::Tracer;
use crate::stats::Summary;
use manet::trace::{Fnv64, Recorder, TraceMode};
use manet::{Backend, NeighborIndex, WorldConfig, WorldStats};
use runner::{RunOptions, ScenarioResult};
use std::collections::BTreeMap;

/// One reported number.  `summary` is `None` for a metric this host
/// cannot measure (more threads than cores): reported as `"unmeasured"`,
/// never as a number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub summary: Option<Summary>,
}

impl Metric {
    pub fn one(name: impl Into<String>, unit: &'static str, x: f64) -> Metric {
        Metric::of(name, unit, &[x])
    }

    pub fn of(name: impl Into<String>, unit: &'static str, samples: &[f64]) -> Metric {
        Metric {
            name: name.into(),
            unit,
            summary: Some(Summary::of(samples)),
        }
    }

    pub fn unmeasured(name: impl Into<String>, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            unit,
            summary: None,
        }
    }

    /// The median, or NaN when unmeasured.
    pub fn value(&self) -> f64 {
        self.summary.map_or(f64::NAN, |s| s.median)
    }
}

/// Engine configurations a workload's representative run is repeated
/// under.  All but `Off` trace (digest-only unless `Full`), so their
/// digests can be asserted equal and their walls compared like for like.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    /// What a user gets: heap, grid index, auto fallback, serial, no trace.
    Off,
    Digest,
    Full,
    Sharded4,
    Threads2,
    Calendar,
    Brute,
}

impl Variant {
    pub fn trace(self) -> Option<TraceMode> {
        match self {
            Variant::Off => None,
            Variant::Full => Some(TraceMode::Full),
            _ => Some(TraceMode::DigestOnly),
        }
    }

    pub fn run_options(self) -> RunOptions {
        let opts = RunOptions {
            trace: self.trace(),
            ..RunOptions::default()
        };
        match self {
            Variant::Sharded4 => opts.with_parallel_world(4).with_threads(1),
            Variant::Threads2 => opts.with_parallel_world(4).with_threads(2),
            Variant::Calendar => opts.with_backend(Backend::Calendar),
            Variant::Brute => opts.with_neighbor_index(NeighborIndex::Brute),
            Variant::Off | Variant::Digest | Variant::Full => opts,
        }
    }

    /// [`Variant::run_options`] applied to a world the harness builds
    /// itself, the way `runner` applies them.
    pub fn world_config(self, cfg: WorldConfig) -> WorldConfig {
        let opts = self.run_options();
        let cfg = cfg
            .with_backend(opts.backend)
            .with_neighbor_index(opts.neighbor_index);
        if opts.parallel_world {
            cfg.with_parallel_world(opts.shards).with_threads(opts.threads)
        } else {
            cfg
        }
    }
}

/// One representative run under a [`Variant`].
#[derive(Clone, Copy, Debug)]
pub struct RepRun {
    pub wall_s: f64,
    /// Dispatched events (0 under `Variant::Off`, which has no recorder).
    pub events: u64,
    pub digest: Option<u64>,
}

impl RepRun {
    /// A runner result that took `wall_s`.
    pub fn of(r: &ScenarioResult, wall_s: f64) -> RepRun {
        RepRun {
            wall_s,
            events: r.recorder.as_ref().map_or(0, |rec| rec.profile().dispatched),
            digest: r.trace_digest.map(|d| d.0),
        }
    }
}

/// Exact operation counts of a verify pass, summed over its runs.
#[derive(Clone, Debug, Default)]
pub struct Counts {
    pub events: u64,
    pub trace_events: u64,
    pub max_queue_depth: usize,
    pub domains: BTreeMap<&'static str, u64>,
    pub sim_secs: f64,
    pub tx_started: u64,
    pub broadcasts: u64,
    pub unicasts: u64,
    pub frames_delivered: u64,
    pub corrupted: u64,
    pub mac_drops: u64,
    pub retransmissions: u64,
    pub pages_sent: u64,
    pub pages_woken: u64,
    pub cell_crossings: u64,
    pub frames_lost_fault: u64,
}

impl Counts {
    pub fn add_run(&mut self, stats: &WorldStats, rec: &Recorder, sim_secs: f64) {
        let prof = rec.profile();
        self.events += prof.dispatched;
        self.trace_events += rec.count();
        self.max_queue_depth = self.max_queue_depth.max(prof.max_queue_depth);
        for (domain, n) in prof.by_domain() {
            *self.domains.entry(domain).or_default() += n;
        }
        self.sim_secs += sim_secs;
        self.tx_started += stats.tx_started;
        self.broadcasts += stats.broadcasts;
        self.unicasts += stats.unicasts;
        self.frames_delivered += stats.frames_delivered;
        self.corrupted += stats.corrupted;
        self.mac_drops += stats.mac_drops;
        self.retransmissions += stats.retransmissions;
        self.pages_sent += stats.pages_sent;
        self.pages_woken += stats.pages_woken;
        self.cell_crossings += stats.cell_crossings;
        self.frames_lost_fault += stats.frames_lost_fault;
    }

    /// [`Counts::add_run`] for a traced runner result.
    pub fn add_result(&mut self, r: &ScenarioResult) {
        let rec = r.recorder.as_ref().expect("verify passes trace");
        self.add_run(&r.stats, rec, r.scenario.duration_secs);
    }
}

/// What a verify pass (the timed body again, digest-only tracing on)
/// hands back.
#[derive(Clone, Debug, Default)]
pub struct Verified {
    pub counts: Counts,
    /// Must equal the fingerprint of every timed body.
    pub fingerprint: u64,
    /// Labelled digests, pinned under `workloads/digests/` at seed 42.
    pub digests: Vec<(String, u64)>,
    /// Digest of the representative run inside this pass; a sharded
    /// (K = 4) repeat must reproduce it.
    pub rep_digest: u64,
    pub ops: u64,
    pub failed: u64,
    /// Event-slab high water, where the harness owns the world.
    pub pool_high_water: Option<usize>,
}

/// Outcome of one timed body.
#[derive(Clone, Copy, Debug)]
pub struct Rep {
    pub fingerprint: u64,
    pub ops: u64,
    pub failed: u64,
}

/// Population and field of a workload, for the substrate run and the
/// layer kernels that need an operating point.
#[derive(Clone, Copy, Debug)]
pub struct Fleet {
    pub n: usize,
    pub field_w: f64,
    pub field_h: f64,
    pub max_speed: f64,
    pub sim_secs: f64,
    pub seed: u64,
    pub flows: usize,
}

/// What a workload's layer-specific measurements may lean on.
pub struct LayerCtx<'a> {
    /// Median untraced body wall, calibrated seconds.
    pub wall_cal_s: f64,
    /// ns/event of the beacon-only substrate run on this fleet.
    pub substrate_ns_per_event: f64,
    pub speed: &'a mut HostSpeed,
}

impl LayerCtx<'_> {
    /// Run `f` and return its value with its wall in calibrated seconds.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let ((out, wall_s), factor) = self.speed.around(|| {
            let t = std::time::Instant::now();
            let out = f();
            (out, t.elapsed().as_secs_f64())
        });
        (out, wall_s * factor)
    }
}

pub trait Workload {
    fn name(&self) -> &'static str;
    /// Divisor of `peak_bytes_per_host`.
    fn hosts(&self) -> usize;
    /// Threads simulating at once inside the timed body.
    fn workers(&self) -> usize;
    /// The frozen sizes, for the report.
    fn sizes(&self) -> String;
    /// Nominal cost (ns per iteration) of the calibration kernel sized
    /// for this fleet, or `None` when the body's wall must not be scaled
    /// by host CPU speed.
    fn calibration_ns(&self) -> Option<f64>;
    fn fleet(&self) -> Fleet;
    /// Everything before the first timed body: inputs from the seed, the
    /// objects the body consumes, one warm-up operation.
    fn setup(&mut self, tr: &mut Tracer);
    /// The timed body, trace off.
    fn body(&mut self, tr: &mut Tracer) -> Rep;
    /// Undo `setup` (stop servers, remove state); untimed.
    fn teardown(&mut self) {}
    /// The body again under digest-only tracing.
    fn verify(&mut self, tr: &mut Tracer) -> Verified;
    /// The representative single ECGRID run of this workload.
    fn rep_run(&mut self, v: Variant, tr: &mut Tracer) -> RepRun;
    /// Layer metrics only this workload can measure.
    fn extras(&mut self, ctx: &mut LayerCtx<'_>, tr: &mut Tracer) -> Vec<Metric>;
}

/// Fold everything a figure reads from one run into `h`: two runs with
/// equal fingerprints produced the same simulated outputs.
pub fn fold_result(h: &mut Fnv64, r: &ScenarioResult) {
    h.write(format!("{:?}", r.stats).as_bytes());
    h.write_u64(r.ledger.sent_count());
    h.write_u64(r.ledger.delivered_count());
    for x in [r.pdr, r.latency_ms, r.pdr_590, r.network_death_s] {
        h.write_u64(x.map_or(u64::MAX, f64::to_bits));
    }
    fold_series(h, &r.alive);
    fold_series(h, &r.aen);
}

pub fn fold_series(h: &mut Fnv64, s: &metrics::TimeSeries) {
    for p in s.points() {
        h.write_u64(p.t_secs.to_bits());
        h.write_u64(p.value.to_bits());
    }
}

/// `run_one`-style label of a replica digest.
pub fn digest_of(r: &ScenarioResult) -> u64 {
    r.trace_digest.expect("verify passes trace").0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_the_untraced_variant_runs_without_a_recorder() {
        assert!(Variant::Off.run_options().trace.is_none());
        for v in [
            Variant::Digest,
            Variant::Sharded4,
            Variant::Calendar,
            Variant::Brute,
        ] {
            assert_eq!(v.run_options().trace, Some(TraceMode::DigestOnly));
        }
        assert_eq!(Variant::Sharded4.run_options().resolved_engine(), Some((4, 1)));
        assert_eq!(Variant::Threads2.run_options().resolved_engine(), Some((4, 2)));
    }
}
