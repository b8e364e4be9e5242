//! World construction parameters.

use energy::{Battery, PowerProfile};
use fault::FaultPlan;
use geo::GridMap;
use mobility::MobilityTrace;
use radio::{MacConfig, NeighborIndex, RasConfig};
use sim_engine::{Backend, RunBudget, SimDuration};

/// Global simulation parameters.
#[derive(Clone, Debug)]
pub struct WorldConfig {
    /// Field dimensions and grid partition (1000×1000 m, d = 100 m).
    /// Radio ranges are per host ([`HostSetup::range_m`]); the channel is
    /// sized from the fleet's largest.
    pub grid: GridMap,
    /// MAC timing and contention parameters.
    pub mac: MacConfig,
    /// RAS paging parameters.
    pub ras: RasConfig,
    /// Metrics sampling period (alive fraction, aen).
    pub sample_every: SimDuration,
    /// Master seed for all per-node randomness (MAC backoff, protocol
    /// jitter).  Mobility and traffic randomness are supplied by the
    /// caller via traces/flows so that every protocol under comparison
    /// sees identical scenarios.
    pub seed: u64,
    /// PHY capture threshold as a distance ratio (see
    /// `radio::channel::CAPTURE_RATIO_10DB`); `None` makes every
    /// overlapping interferer fatal (ablation knob).
    pub capture_ratio: Option<f64>,
    /// Pending-event-set backend of the scheduler.  Both backends obey the
    /// same FIFO contract, so results are identical; the knob exists for
    /// benchmarking and for the golden-trace cross-backend tests.
    pub backend: Backend,
    /// Injected adversity (frame/page loss, churn, drains).
    /// The all-zero default performs no draws and leaves every run — and
    /// its trace digest — bit-identical to a fault-free build.
    pub faults: FaultPlan,
    /// Watchdog ceilings on the event loop (dispatched events and wall
    /// time).  The unlimited default changes nothing; a bounded run that
    /// trips the budget terminates with a `BudgetExceeded` diagnostic in
    /// its `RunOutput` instead of hanging.
    pub budget: RunBudget,
    /// How the world answers "who can hear this transmission?": the
    /// maintained grid-bucket index (default) or a brute-force scan of
    /// every node.  Both produce identical candidate lists in identical
    /// order — and therefore bit-identical trace digests (proven by
    /// `tests/neighbor_equivalence.rs`); the brute path exists as the
    /// reference implementation and benchmark baseline.
    pub neighbor_index: NeighborIndex,
    /// Run the sharded conservative-sync engine: the field is split into
    /// `shards` vertical strips of grid-cell columns, each with its own
    /// event queue, event slab, and channel state, merged at every pop in
    /// deterministic `(time, queue_seq, shard_id)` order.  Replays are
    /// bit-identical to the serial engine (proven by
    /// `tests/parallel_equivalence.rs`).  See DESIGN.md §12.
    pub parallel_world: bool,
    /// Shard count for `parallel_world` (at least 1).  Ignored by the
    /// serial engine.
    pub shards: usize,
    /// Worker-thread count for `parallel_world`: the host-plane kernels
    /// (energy integration, mobility evaluation, reception verdicts,
    /// paging scans) fan out over this many lanes, while dispatch and
    /// all state commits stay on the caller in exact serial order — so
    /// replays are bit-identical to the serial engine at every T
    /// (proven by `tests/parallel_equivalence.rs`).  At least 1; `1` runs
    /// every kernel inline (no threads spawned).  Ignored by the serial
    /// engine.  See DESIGN.md §14.
    pub threads: usize,
}

/// The host's available hardware parallelism (1 when detection fails).
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

impl WorldConfig {
    /// The paper's evaluation environment.
    pub fn paper_default(seed: u64) -> Self {
        WorldConfig {
            grid: GridMap::paper_default(),
            mac: MacConfig::paper_default(),
            ras: RasConfig::paper_default(),
            sample_every: SimDuration::from_secs(10),
            seed,
            capture_ratio: Some(radio::channel::CAPTURE_RATIO_10DB),
            backend: Backend::Heap,
            faults: FaultPlan::none(),
            budget: RunBudget::UNLIMITED,
            neighbor_index: NeighborIndex::default(),
            parallel_world: false,
            shards: 1,
            threads: 1,
        }
    }

    /// Same configuration on a different scheduler backend.
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Same configuration under an injected fault plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Same configuration under a run budget (watchdog ceilings).
    pub fn with_budget(mut self, budget: RunBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Same configuration with an explicit neighbor-query strategy.
    pub fn with_neighbor_index(mut self, neighbor_index: NeighborIndex) -> Self {
        self.neighbor_index = neighbor_index;
        self
    }

    /// Same configuration on the sharded conservative-sync engine with
    /// `shards` strips.
    pub fn with_parallel_world(mut self, shards: usize) -> Self {
        assert!(shards > 0, "the sharded engine needs at least one shard");
        self.parallel_world = true;
        self.shards = shards;
        self
    }

    /// Same configuration with `threads` worker lanes for the parallel
    /// engine.
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "the sharded engine needs at least one worker lane");
        self.threads = threads;
        self
    }
}

/// Per-host construction data: the one place a host's battery, GPS
/// error bound and radio range are set (a scenario file's group keys
/// land here, DESIGN.md §15).
#[derive(Clone, Debug)]
pub struct HostSetup {
    pub profile: PowerProfile,
    /// The battery as built, manufacturing spread included.
    pub battery: Battery,
    pub trace: MobilityTrace,
    /// Radio range in meters (250 m in the paper), positive and finite.
    /// The channel's bucket geometry is sized from the fleet's largest.
    pub range_m: f64,
    /// Bound of the GPS position error in meters: the reported position
    /// is offset by a radius uniform in `[0, gps_sigma_m)` at a uniform
    /// angle, redrawn every second (not a Gaussian σ; the name is the
    /// `.scn` key's).  `0.0` (the default) performs no draws, leaving
    /// homogeneous-run digests untouched; a positive bound offsets the
    /// position this host *reports* (grid membership, protocol beacons)
    /// without moving its physical radio.
    pub gps_sigma_m: f64,
    /// Scenario group index for per-group metric attribution (0 when the
    /// fleet was not built from a scenario file).
    pub group: u16,
}

impl HostSetup {
    /// A paper-default host (500 J, GPS profile, 250 m radio) following
    /// `trace`.
    pub fn paper(trace: MobilityTrace) -> Self {
        HostSetup {
            profile: PowerProfile::paper_default(),
            battery: Battery::paper_default(),
            trace,
            range_m: 250.0,
            gps_sigma_m: 0.0,
            group: 0,
        }
    }

    /// A Model-1 endpoint: infinite energy (excluded from alive/aen
    /// metrics).
    pub fn infinite(trace: MobilityTrace) -> Self {
        HostSetup {
            profile: PowerProfile::paper_default(),
            battery: Battery::infinite(),
            trace,
            range_m: 250.0,
            gps_sigma_m: 0.0,
            group: 0,
        }
    }
}
