//! Run options, the result type, and the classic entry points.
//!
//! The paper's homogeneous [`Scenario`] has no world builder of its own:
//! every entry point here lowers it with [`Scenario::to_spec`] and runs
//! the fleet through [`crate::spec_run::run_fleet`], the one pipeline
//! scenario files also take (DESIGN.md §15).

use crate::scenario::Scenario;
use crate::spec_run::run_fleet;
use manet::progress::ProgressProbe;
use manet::trace::{Recorder, TraceDigest, TraceMode};
use manet::{Backend, FaultPlan, NeighborIndex};
use metrics::{PacketLedger, TimeSeries};
use rayon::prelude::*;
use sim_engine::{derive_seed, BudgetExceeded};
use std::sync::Arc;

/// Knobs orthogonal to the scenario itself: which scheduler backend the
/// world runs on and whether a trace recorder is attached.  The defaults
/// (heap backend, no tracing) reproduce `run_scenario` exactly.
#[derive(Clone, Copy, Debug)]
pub struct RunOptions {
    pub backend: Backend,
    pub trace: Option<TraceMode>,
    /// Fault-injection plan.  The default (all-zero) plan performs no RNG
    /// draws and leaves every run bit-identical to a fault-free build.
    pub faults: FaultPlan,
    /// Watchdog: maximum dispatched events per run.  `None` (the default)
    /// is unbounded; a bounded run that trips the ceiling terminates with
    /// [`ScenarioResult::budget_exceeded`] set instead of hanging.
    pub event_budget: Option<u64>,
    /// Watchdog: maximum wall-clock milliseconds per run — the axis that
    /// catches runs whose every event is legitimate but pathologically
    /// slow.  Non-deterministic by nature (the trip point depends on the
    /// host), so a tripped run is a failure to quarantine, never a result
    /// to average.
    pub wall_budget_ms: Option<u64>,
    /// Neighbor-query strategy: the spatial grid-bucket index (default) or
    /// the brute-force reference scan.  Results — including trace digests
    /// — are bit-identical either way; the toggle keeps the baseline
    /// runnable for equivalence tests and benchmarks.
    pub neighbor_index: NeighborIndex,
    /// Run on the sharded conservative-sync engine instead of the serial
    /// one.  Digest-neutral by construction (proven by
    /// `tests/parallel_equivalence.rs`); the engines differ only in cost.
    pub parallel_world: bool,
    /// Shard count when `parallel_world` is set (at least 1).
    pub shards: usize,
    /// Worker-lane count of the parallel engine's host-plane kernels (at
    /// least 1; `1` = inline).  Digest-neutral at every value (proven by
    /// `tests/parallel_equivalence.rs`).
    pub threads: usize,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            backend: Backend::Heap,
            trace: None,
            faults: FaultPlan::none(),
            event_budget: None,
            wall_budget_ms: None,
            neighbor_index: NeighborIndex::default(),
            parallel_world: false,
            shards: 1,
            threads: 1,
        }
    }
}

impl RunOptions {
    /// Digest-only tracing on the default backend — what the golden-trace
    /// tests use.
    pub fn digest() -> Self {
        RunOptions {
            trace: Some(TraceMode::DigestOnly),
            ..RunOptions::default()
        }
    }

    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    pub fn with_event_budget(mut self, budget: Option<u64>) -> Self {
        self.event_budget = budget;
        self
    }

    pub fn with_wall_budget_ms(mut self, ms: Option<u64>) -> Self {
        self.wall_budget_ms = ms;
        self
    }

    pub fn with_neighbor_index(mut self, neighbor_index: NeighborIndex) -> Self {
        self.neighbor_index = neighbor_index;
        self
    }

    /// Same options on the sharded engine with `shards` strips.
    pub fn with_parallel_world(mut self, shards: usize) -> Self {
        assert!(shards > 0, "the sharded engine needs at least one shard");
        self.parallel_world = true;
        self.shards = shards;
        self
    }

    /// Same options with `threads` worker lanes for the parallel engine.
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "the sharded engine needs at least one worker lane");
        self.threads = threads;
        self
    }

    /// The engine a run under these options uses: `Some((shards,
    /// threads))` on the parallel engine, `None` on the serial one.
    pub fn resolved_engine(&self) -> Option<(usize, usize)> {
        self.parallel_world.then_some((self.shards, self.threads))
    }
}

/// Everything a figure needs from one finished run.
#[derive(Clone, Debug)]
pub struct ScenarioResult {
    pub scenario: Scenario,
    /// Alive fraction over time (finite-battery hosts only).
    pub alive: TimeSeries,
    /// aen over time.
    pub aen: TimeSeries,
    /// Full packet accounting.
    pub ledger: PacketLedger,
    /// Delivery rate over the whole run.
    pub pdr: Option<f64>,
    /// Mean latency (ms) over the whole run.
    pub latency_ms: Option<f64>,
    /// Delivery rate restricted to packets sent before 590 s (the paper's
    /// comparison horizon in Figs. 6–7).
    pub pdr_590: Option<f64>,
    /// Mean latency (ms) restricted to the same horizon.
    pub latency_ms_590: Option<f64>,
    /// First time the alive fraction reached zero, if it did.
    pub network_death_s: Option<f64>,
    pub stats: manet::WorldStats,
    /// Canonical digest of the run's trace (`None` unless tracing was
    /// requested).  Identical for identical (scenario, seed) regardless of
    /// scheduler backend or sweep parallelism.
    pub trace_digest: Option<TraceDigest>,
    /// The full recorder (events in [`TraceMode::Full`], profiling data in
    /// either mode; `None` unless tracing was requested).
    pub recorder: Option<Recorder>,
    /// `Some` when the run's watchdog budget cut it short — the metrics
    /// above cover the truncated run, and a supervisor should treat this
    /// result as a failure, not average it.
    pub budget_exceeded: Option<BudgetExceeded>,
    /// Per-group rollup when the run came from a scenario file (empty for
    /// the classic homogeneous scenarios).
    pub groups: Vec<crate::spec_run::GroupReport>,
}

impl ScenarioResult {
    /// The result of a lowered classic scenario as its callers know it:
    /// echoing `sc` itself rather than the fleet's representative shape,
    /// and without the per-group rollup the lowering's synthetic groups
    /// would add to journals and service frames.
    pub(crate) fn into_classic(self, sc: &Scenario) -> ScenarioResult {
        ScenarioResult {
            scenario: *sc,
            groups: Vec::new(),
            ..self
        }
    }
}

/// Run one scenario to completion with default options.
pub fn run_scenario(sc: &Scenario) -> ScenarioResult {
    run_scenario_with(sc, RunOptions::default())
}

/// Run one scenario to completion on an explicit backend / trace setting.
pub fn run_scenario_with(sc: &Scenario, opts: RunOptions) -> ScenarioResult {
    run_scenario_probed(sc, opts, None)
}

/// [`run_scenario_with`], sharing a [`ProgressProbe`] with a supervisor.
/// The probe is updated throughout the run, so if the run panics the
/// supervisor can still report how far it got (the probe outlives the
/// poisoned world).
pub fn run_scenario_probed(
    sc: &Scenario,
    opts: RunOptions,
    probe: Option<Arc<ProgressProbe>>,
) -> ScenarioResult {
    run_fleet(&sc.to_spec(), sc.protocol, opts, probe, None).into_classic(sc)
}

/// Seed for replica `k` of a base seed.  Replica 0 keeps the base seed
/// (so a one-replica run IS the plain run of that scenario); later
/// replicas are hash-derived, because the old `seed + k` scheme made
/// replica 1 of seed 42 identical to replica 0 of seed 43 — adjacent
/// sweep points silently shared runs.
pub fn replica_seed(base: u64, k: u64) -> u64 {
    if k == 0 {
        base
    } else {
        derive_seed(base, "replica", k)
    }
}

/// Run `replicas` copies of one scenario (replica `k` uses
/// [`replica_seed`]`(sc.seed, k)`), either serially or fanned out across
/// threads.  A run's result — including its trace digest — is a pure
/// function of (scenario, seed, options), so both paths return identical
/// results; the golden-trace tests hold this to account.
pub fn run_replicas(sc: &Scenario, replicas: usize, opts: RunOptions, parallel: bool) -> Vec<ScenarioResult> {
    let jobs: Vec<Scenario> = (0..replicas as u64)
        .map(|k| Scenario {
            seed: replica_seed(sc.seed, k),
            ..*sc
        })
        .collect();
    if parallel {
        jobs.par_iter().map(|j| run_scenario_with(j, opts)).collect()
    } else {
        jobs.iter().map(|j| run_scenario_with(j, opts)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ProtocolKind;

    fn tiny(protocol: ProtocolKind) -> Scenario {
        Scenario {
            protocol,
            n_hosts: 40,
            max_speed: 1.0,
            pause_secs: 0.0,
            n_flows: 3,
            flow_rate_pps: 1.0,
            duration_secs: 60.0,
            seed: 7,
            model1_endpoints: 4,
        }
    }

    #[test]
    fn all_protocols_run_a_tiny_scenario() {
        for p in ProtocolKind::ALL {
            let r = run_scenario(&tiny(p));
            assert!(
                r.ledger.sent_count() > 100,
                "{p:?} sent {}",
                r.ledger.sent_count()
            );
            // 40 hosts over 100 cells is still sparse (mean degree ~8);
            // partitions cost some delivery, so this is a liveness floor,
            // not the paper's dense-network PDR
            let pdr = r.pdr.unwrap();
            assert!(pdr > 0.4, "{p:?} pdr {pdr}");
            assert!(!r.alive.is_empty());
            assert_eq!(r.alive.points()[0].value, 1.0);
        }
    }

    #[test]
    fn identical_seeds_reproduce_identical_results() {
        let a = run_scenario(&tiny(ProtocolKind::Ecgrid));
        let b = run_scenario(&tiny(ProtocolKind::Ecgrid));
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.pdr, b.pdr);
        assert_eq!(a.latency_ms, b.latency_ms);
    }
}
