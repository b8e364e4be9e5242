//! The simulation world: event loop, CSMA/CA MAC, RAS paging, traffic
//! injection, energy bookkeeping, and metric sampling.

use crate::config::{HostSetup, WorldConfig};
use crate::ctx::{AppPacket, Cmd, Ctx, NodeView, TimerSlab};
use crate::progress::ProgressProbe;
use crate::protocol::{Protocol, WireSize};
use crate::stats::WorldStats;
use energy::{Battery, EnergyLevel, EnergyMeter, RadioMode};
use fault::FaultCtl;
use geo::{GridCoord, Point2, Vec2};
use metrics::{PacketLedger, TimeSeries};
use mobility::{LegCursor, MobilityTrace};
use radio::frame::FrameMeta;
use radio::{
    auto_gather_threshold, CellIndex, ChannelState, FrameKind, GatherScratch, NeighborIndex, NodeId,
    PageSignal, ShardMap, ShardedChannel, Transmission,
};
use rand::rngs::StdRng;
use rand::Rng;
use sim_engine::{
    chunk_count, derive_seed, BudgetExceeded, EventHandle, EventPool, Mailbox, RngFactory, Scheduler,
    ShardedScheduler, SimDuration, SimTime, SlicePtr, SplitMix64, WorkerPool,
};
use std::collections::VecDeque;
use std::sync::Arc;
use trace::{Event as TraceEvent, EventKind, FaultKind, Recorder, TraceDigest, TraceMode};

/// Scenario per-group GPS error: offset `(dx, dy)` in meters for `node`
/// at `t_ns`, piecewise constant over 1 s (a consumer-GPS fix rate).
/// Stateless hash draws keyed on the world seed — `sigma == 0` performs
/// no draws, so scenario-free runs stay digest-identical; distinct domain
/// labels keep it independent of the fault plan's own GPS stream.
fn scenario_gps_offset(seed: u64, node: u32, sigma_m: f64, t_ns: u64) -> (f64, f64) {
    if sigma_m <= 0.0 {
        return (0.0, 0.0);
    }
    let slot = t_ns / 1_000_000_000;
    let draw = |domain: &str| {
        SplitMix64::new(derive_seed(
            derive_seed(seed, domain, node as u64),
            "scenario.sub",
            slot,
        ))
        .next_f64()
    };
    let r = sigma_m * draw("scenario.gps_r");
    let theta = std::f64::consts::TAU * draw("scenario.gps_a");
    (r * theta.cos(), r * theta.sin())
}

/// Epoch-barrier maintenance cadence of the sharded engine (sim time):
/// per-shard channel gc runs when the merged clock crosses this stride,
/// instead of twice per transmission like the serial channel — one pass
/// over K shard channels per stride rather than per frame.  Retaining
/// ended transmissions longer is invisible to results — carrier-sense and
/// collision checks filter candidates by time — so the cadence is purely
/// a scan-length trade: 12.5 ms is a few paper data-frame airtimes, so a
/// shard holds at most a few strides' worth of ended frames.
const SHARD_GC_STRIDE: SimDuration = SimDuration(12_500_000);

/// Interface queue depth (frames); the tail is dropped beyond this.
const MAC_QUEUE_CAP: usize = 128;

/// Minimum item count before a host-plane kernel fans out over the
/// worker pool; below this the original serial loop runs unchanged.
/// The threshold trades fork–join latency against per-item work — and
/// because chunk layout only partitions *where* slot/lane outputs are
/// written, never their merge order, it cannot affect results.
const PAR_MIN_ITEMS: usize = 96;

/// Chunk size for a parallel section: large enough to amortize handoff,
/// small enough that `threads * 4` chunks exist for load balance.
fn par_grain(n: usize, threads: usize) -> usize {
    (n / (threads.max(1) * 4)).clamp(64, 4096)
}

/// Phase-1 output of a probe kernel, posted to the barrier mailbox only
/// for *notable* hosts (battery class changed, died, or page-addressed);
/// unremarkable hosts need no serial commit at all, exactly as their
/// serial `touch` would have been observably inert.
#[derive(Clone, Copy)]
struct ProbeMsg {
    node: u32,
    /// `Some` iff a recorder is attached (mirrors `touch`'s level gate).
    level: Option<EnergyLevel>,
    alive: bool,
    /// Page kernel only: alive, inside paging range, and addressed.
    hit: bool,
}

/// Phase-1 output of the tx-end receiver kernel, one dense slot per
/// frozen receiver: the serial commit loop interleaves emissions per
/// receiver, so every receiver needs its verdict addressable by index
/// (a mailbox's notable-only stream would not line up).
#[derive(Clone, Copy, Default)]
struct TxProbe {
    level: Option<EnergyLevel>,
    alive: bool,
    /// Collision verdict from the channel, valid whenever the receiver
    /// could still hear the frame (pure query; computed unconditionally).
    corrupt: bool,
}

#[derive(Debug)]
enum Event {
    /// The node's MAC attempts to put its head-of-queue frame on the air.
    MacTryTx { node: NodeId },
    /// Transmission `tx_id` by `node` leaves the air; deliver receptions.
    /// `flight` is its slot in the world's flight slab.
    TxEnd { node: NodeId, tx_id: u64, flight: u32 },
    /// The implicit ACK exchange for the node's last unicast concluded.
    AckDone { node: NodeId, ok: bool },
    /// Protocol timer `id` fires.
    Timer { node: NodeId, id: u64 },
    /// A RAS page transmitted from `origin` arrives at its addressees.
    Page { signal: PageSignal, origin: Point2 },
    /// `node`'s trajectory crosses a grid boundary.
    CellCrossing { node: NodeId },
    /// Flow `flow_idx` emits packet `seq`.
    AppSend { flow_idx: usize, seq: u64 },
    /// Metrics sampling tick.
    Sample,
    /// The fault plan crashes `node` (its `k`-th crash).
    FaultCrash { node: NodeId, k: u64 },
    /// A crashed `node` reboots; its next crash is the `k`-th.
    FaultRejoin { node: NodeId, k: u64 },
    /// The fault plan drains `node`'s battery (its `k`-th drain).
    FaultDrain { node: NodeId, k: u64 },
    /// Sentinel terminating `run_until`.
    EndOfRun,
}

impl Event {
    /// Scheduler-profiling domain of this event.
    fn domain(&self) -> &'static str {
        match self {
            Event::MacTryTx { .. } => "mac_try_tx",
            Event::TxEnd { .. } => "tx_end",
            Event::AckDone { .. } => "ack_done",
            Event::Timer { .. } => "timer",
            Event::Page { .. } => "page",
            Event::CellCrossing { .. } => "cell_crossing",
            Event::AppSend { .. } => "app_send",
            Event::Sample => "sample",
            Event::FaultCrash { .. } => "fault_crash",
            Event::FaultRejoin { .. } => "fault_rejoin",
            Event::FaultDrain { .. } => "fault_drain",
            Event::EndOfRun => "end_of_run",
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum MacPhase {
    /// Nothing queued.
    Idle,
    /// A MacTryTx is scheduled for the head-of-queue frame.
    WaitTry,
    /// A frame is on the air.
    Transmitting(u64),
    /// Unicast sent; waiting for the ACK verdict.
    AwaitAck(u64),
}

struct OutFrame<M> {
    kind: FrameKind,
    msg: M,
    bytes: u32,
}

struct Mac<M> {
    queue: VecDeque<OutFrame<M>>,
    phase: MacPhase,
    attempt: u32,
}

impl<M> Default for Mac<M> {
    fn default() -> Self {
        Mac {
            queue: VecDeque::new(),
            phase: MacPhase::Idle,
            attempt: 0,
        }
    }
}

/// A transmission in flight, with its receiver set frozen at tx start
/// (hosts that wake mid-frame missed the preamble and cannot receive it).
struct Flight<M> {
    src: NodeId,
    /// The sender's position at tx start (the channel entry's origin).
    origin: Point2,
    kind: FrameKind,
    msg: M,
    start: SimTime,
    end: SimTime,
    receivers: Vec<NodeId>,
}

/// The event engine behind the world: the historical serial scheduler, or
/// the sharded conservative-sync engine (`WorldConfig::parallel_world`).  Every
/// `schedule_*` call names a target shard; the serial arm ignores it, the
/// sharded arm files the event in that shard's queue.  Dispatch order is
/// identical either way — the sharded merge pops in global
/// `(time, queue_seq, shard_id)` order, which `sim_engine::shard` proves
/// equal to the single queue's `(time, seq)` order — so every handler,
/// RNG draw, and trace emission replays bit-for-bit
/// (`tests/parallel_equivalence.rs`).
enum WorldSched {
    Serial(Scheduler<Event>),
    Sharded(ShardedScheduler<Event>),
}

impl WorldSched {
    #[inline]
    fn now(&self) -> SimTime {
        match self {
            WorldSched::Serial(s) => s.now(),
            WorldSched::Sharded(s) => s.now(),
        }
    }

    #[inline]
    fn processed(&self) -> u64 {
        match self {
            WorldSched::Serial(s) => s.processed(),
            WorldSched::Sharded(s) => s.processed(),
        }
    }

    #[inline]
    fn pending(&self) -> usize {
        match self {
            WorldSched::Serial(s) => s.pending(),
            WorldSched::Sharded(s) => s.pending(),
        }
    }

    #[inline]
    fn check_budget(&self) -> Result<(), BudgetExceeded> {
        match self {
            WorldSched::Serial(s) => s.check_budget(),
            WorldSched::Sharded(s) => s.check_budget(),
        }
    }

    fn pool_stats(&self) -> sim_engine::PoolStats {
        match self {
            WorldSched::Serial(s) => s.pool_stats(),
            WorldSched::Sharded(s) => s.pool_stats(),
        }
    }

    fn reserve_events(&mut self, additional: usize) {
        match self {
            WorldSched::Serial(s) => s.reserve_events(additional),
            WorldSched::Sharded(s) => s.reserve_events(additional),
        }
    }

    #[inline]
    fn schedule_at(&mut self, shard: usize, at: SimTime, ev: Event) -> EventHandle {
        match self {
            WorldSched::Serial(s) => s.schedule_at(at, ev),
            WorldSched::Sharded(s) => s.schedule_at(shard, at, ev),
        }
    }

    #[inline]
    fn schedule_in(&mut self, shard: usize, delay: SimDuration, ev: Event) -> EventHandle {
        match self {
            WorldSched::Serial(s) => s.schedule_in(delay, ev),
            WorldSched::Sharded(s) => s.schedule_in(shard, delay, ev),
        }
    }

    #[inline]
    fn cancel(&mut self, h: EventHandle) {
        match self {
            WorldSched::Serial(s) => s.cancel(h),
            WorldSched::Sharded(s) => s.cancel(h),
        }
    }

    #[inline]
    fn next(&mut self) -> Option<(SimTime, Event)> {
        match self {
            WorldSched::Serial(s) => s.next(),
            WorldSched::Sharded(s) => s.next(),
        }
    }
}

/// The channel behind the world: one global in-flight set (serial), or
/// per-shard sets with boundary mirrors (the sharded engine).  Queries
/// name the shard they are issued from; the serial arm ignores it.
enum WorldChannel {
    Serial(ChannelState),
    Sharded(ShardedChannel),
}

impl WorldChannel {
    #[inline]
    fn busy_until(&self, shard: usize, p: Point2, at: SimTime) -> Option<SimTime> {
        match self {
            WorldChannel::Serial(c) => c.busy_until(p, at),
            WorldChannel::Sharded(c) => c.busy_until(shard, p, at),
        }
    }

    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn begin_tx(
        &mut self,
        shard: usize,
        src: NodeId,
        origin: Point2,
        range: f64,
        start: SimTime,
        end: SimTime,
    ) -> u64 {
        match self {
            WorldChannel::Serial(c) => c.begin_tx(src, origin, range, start, end),
            WorldChannel::Sharded(c) => c.begin_tx(shard, src, origin, range, start, end),
        }
    }

    /// The transmissions that can corrupt a reception of `tx_id` within
    /// `reach` meters of its sender (see
    /// [`ChannelState::interferers_into`]).
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn interferers_into(
        &self,
        tx_id: u64,
        src_origin: Point2,
        reach: f64,
        start: SimTime,
        end: SimTime,
        out: &mut Vec<Transmission>,
    ) {
        match self {
            WorldChannel::Serial(c) => c.interferers_into(tx_id, src_origin, reach, start, end, out),
            WorldChannel::Sharded(c) => c.interferers_into(tx_id, src_origin, reach, start, end, out),
        }
    }

    /// Per-receiver collision verdict against a flight's interferer list.
    #[inline]
    fn corrupted_by(&self, interferers: &[Transmission], src_origin: Point2, receiver: Point2) -> bool {
        match self {
            WorldChannel::Serial(c) => c.corrupted_by(interferers, src_origin, receiver),
            WorldChannel::Sharded(c) => c.corrupted_by(interferers, src_origin, receiver),
        }
    }

    /// The serial channel's per-transmission gc at `now` (the channel
    /// decides what it still needs, [`ChannelState::gc_at`]).  The sharded
    /// channel skips it — its K shard channels are pruned together at
    /// epoch barriers instead.  Either timing is invisible to query
    /// results: both `busy_until` and the interferer list filter
    /// candidates by time, so entries retained longer never change an
    /// answer.
    #[inline]
    fn gc_tx_path(&mut self, now: SimTime) {
        match self {
            WorldChannel::Serial(c) => c.gc_at(now),
            WorldChannel::Sharded(_) => {}
        }
    }

    /// Epoch-barrier maintenance of the sharded engine: prune every shard
    /// channel.
    fn gc_barrier(&mut self, now: SimTime) {
        match self {
            WorldChannel::Serial(c) => c.gc_at(now),
            WorldChannel::Sharded(c) => c.gc_at(now),
        }
    }

    /// Lifetime boundary-mirror insertions (0 for the serial channel).
    fn mirrored(&self) -> u64 {
        match self {
            WorldChannel::Serial(_) => 0,
            WorldChannel::Sharded(c) => c.mirrored(),
        }
    }
}

/// Shard bookkeeping of a parallel world: the strip partition, per-shard
/// host membership, and barrier/migration counters.  Ownership of a host
/// is a *function* of its maintained grid cell (`ShardMap::shard_of_col`)
/// plus these membership counts — the SoA columns stay dense and
/// id-indexed, because every hot loop (receiver gather, energy folds)
/// iterates them in ascending-id order, and physically splitting the
/// columns per shard would force a K-way merge on exactly those loops.
/// Migration between shards is therefore O(1): a counter move when a
/// cell-crossing event lands in a different strip.
struct ShardRuntime {
    map: ShardMap,
    /// Live (not dead-handled) hosts per shard.
    members: Vec<u32>,
    /// Conservative lookahead bounding an epoch: the smallest interval
    /// the MAC or RAS can react across (min of SIFS, slot, DIFS, and the
    /// RAS wake latency).  Barrier maintenance runs every
    /// `max(lookahead, SHARD_GC_STRIDE)` of virtual time.
    stride: SimDuration,
    next_gc: SimTime,
    migrations: u64,
    barriers: u64,
}

/// Diagnostic counters of a parallel world (see [`World::shard_stats`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardStats {
    /// Shard count K.
    pub shards: usize,
    /// Live hosts currently owned by each shard.
    pub members: Vec<u32>,
    /// Cell crossings that moved a host between shards.
    pub migrations: u64,
    /// Epoch barriers taken (gc maintenance points).
    pub barriers: u64,
    /// Boundary transmissions mirrored into neighbor shards.
    pub mirrored_tx: u64,
}

/// Host state in struct-of-arrays layout: one dense parallel array per
/// field, indexed by `NodeId`.  The hot loops — receiver gather, the
/// brute candidate scan, energy ticks, the alive/aen folds — each touch
/// exactly the arrays they need (`cells` + `dead_handled`, or `meters`)
/// as branch-light linear scans, instead of striding over full per-node
/// records the way the old `Vec<NodeState>` layout forced.
///
/// Radio mode and battery charge deliberately stay *inside* the meter row
/// rather than getting mirror arrays: `drain_direct` can latch a host
/// `Off` mid-handler, and a cached mode/level copy would desynchronize
/// silently.  The meter row is the single source of truth; the per-host
/// level *class* cache (`last_levels`) exists only to detect boundary
/// crossings and is updated at every touch.
struct Hosts<P: Protocol> {
    protos: Vec<P>,
    meters: Vec<EnergyMeter>,
    traces: Vec<MobilityTrace>,
    /// Each host's current trajectory leg, inline: the gather, reception
    /// and paging loops read positions from here instead of chasing
    /// `traces[j]` → segment vector → segment and bisecting per query.
    legs: Vec<LegCursor>,
    /// Maintained grid cell (bucket coordinate) per host.
    cells: Vec<GridCoord>,
    rngs: Vec<StdRng>,
    /// Battery level class as last observed by the trace layer (detects
    /// class-boundary crossings in `touch`).
    last_levels: Vec<EnergyLevel>,
    macs: Vec<Mac<P::Msg>>,
    /// Number of concurrent receptions in progress (radio in Rx while > 0).
    rx_refs: Vec<u32>,
    /// The protocol asked to sleep while the MAC was mid-exchange; applied
    /// as soon as the exchange concludes.
    sleep_pending: Vec<bool>,
    dead_handled: Vec<bool>,
    /// Crashed by the fault plan: silent (radio down, protocol frozen)
    /// until the scheduled rejoin reboots it with fresh protocol state.
    crashed: Vec<bool>,
    /// Per-host radio range in meters (`WorldConfig::range_m` unless the
    /// scenario overrides it; never exceeds the channel's construction
    /// maximum).
    ranges: Vec<f64>,
    /// Per-host GPS error sigma in meters (0 = exact positions, no draws).
    gps_sigmas: Vec<f64>,
    /// Scenario group index per host (0 outside scenario runs).
    groups: Vec<u16>,
}

impl<P: Protocol> Hosts<P> {
    fn with_capacity(n: usize) -> Self {
        Hosts {
            protos: Vec::with_capacity(n),
            meters: Vec::with_capacity(n),
            traces: Vec::with_capacity(n),
            legs: Vec::with_capacity(n),
            cells: Vec::with_capacity(n),
            rngs: Vec::with_capacity(n),
            last_levels: Vec::with_capacity(n),
            macs: Vec::with_capacity(n),
            rx_refs: Vec::with_capacity(n),
            sleep_pending: Vec::with_capacity(n),
            dead_handled: Vec::with_capacity(n),
            crashed: Vec::with_capacity(n),
            ranges: Vec::with_capacity(n),
            gps_sigmas: Vec::with_capacity(n),
            groups: Vec::with_capacity(n),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn push(
        &mut self,
        proto: P,
        meter: EnergyMeter,
        trace: MobilityTrace,
        cell: GridCoord,
        rng: StdRng,
        range_m: f64,
        gps_sigma_m: f64,
        group: u16,
    ) {
        let level = meter.level();
        self.protos.push(proto);
        self.meters.push(meter);
        self.legs.push(LegCursor::new(&trace));
        self.traces.push(trace);
        self.cells.push(cell);
        self.rngs.push(rng);
        self.last_levels.push(level);
        self.macs.push(Mac::default());
        self.rx_refs.push(0);
        self.sleep_pending.push(false);
        self.dead_handled.push(false);
        self.crashed.push(false);
        self.ranges.push(range_m);
        self.gps_sigmas.push(gps_sigma_m);
        self.groups.push(group);
    }

    #[inline]
    fn len(&self) -> usize {
        self.meters.len()
    }

    /// `traces[i].position_at(t)`, bit for bit, through the cached leg.
    #[inline]
    fn pos_at(&mut self, i: usize, t: SimTime) -> Point2 {
        self.legs[i].position_at(&self.traces[i], t)
    }
}

/// Per-scenario-group liveness/energy rollup (see [`World::group_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct GroupStats {
    /// Hosts tagged with this group (including infinite-battery ones).
    pub hosts: u32,
    /// Finite-battery hosts in the group.
    pub finite: u32,
    /// Finite-battery hosts currently alive.
    pub alive: u32,
    /// Energy consumed by the group's finite-battery hosts (J).
    pub consumed_j: f64,
    /// Total initial energy of the group's finite-battery hosts (J).
    pub capacity_j: f64,
}

impl GroupStats {
    /// Alive fraction over finite hosts (1.0 for an all-infinite group).
    pub fn alive_fraction(&self) -> f64 {
        if self.finite == 0 {
            1.0
        } else {
            f64::from(self.alive) / f64::from(self.finite)
        }
    }

    /// Normalized energy consumption (Eq. 2 restricted to the group).
    pub fn aen(&self) -> f64 {
        if self.capacity_j == 0.0 {
            0.0
        } else {
            self.consumed_j / self.capacity_j
        }
    }
}

/// The results of a finished run.
#[derive(Clone, Debug)]
pub struct RunOutput {
    /// Fraction of finite-battery hosts still alive, sampled over time.
    pub alive: TimeSeries,
    /// Mean normalized energy consumption (aen, Eq. 2) over time.
    pub aen: TimeSeries,
    /// Per-packet delivery accounting.
    pub ledger: PacketLedger,
    /// Frame/event counters.
    pub stats: WorldStats,
    /// `Some` when the run was cut short by the configured
    /// [`RunBudget`](sim_engine::RunBudget) instead of reaching its end
    /// time — the watchdog fired.  Metrics above cover the truncated run.
    pub budget_exceeded: Option<BudgetExceeded>,
}

/// The simulation world.  See module docs.
pub struct World<P: Protocol> {
    cfg: WorldConfig,
    hosts: Hosts<P>,
    sched: WorldSched,
    channel: WorldChannel,
    /// `Some` iff running the sharded conservative-sync engine.
    shards: Option<ShardRuntime>,
    /// Transmissions on the air, in slots their `TxEnd` events name.
    flights: EventPool<Flight<P::Msg>>,
    flows: traffic::FlowSet,
    ledger: PacketLedger,
    alive_series: TimeSeries,
    aen_series: TimeSeries,
    stats: WorldStats,
    timers: TimerSlab<P::Timer>,
    /// Fault-plan runtime (no-op when the plan is all-zero).
    fault: FaultCtl,
    /// Kept for fault-plan rejoins: a rebooted host restarts with a fresh
    /// protocol instance, exactly as at t=0.
    factory: Box<dyn FnMut(NodeId) -> P>,
    recorder: Option<Recorder>,
    /// Cell index over node cells, bucket-aligned with `cfg.grid` and
    /// maintained incrementally: a move on each cell-crossing event, dead
    /// hosts pruned on death (their touch is observably inert, so pruning
    /// cannot shift the trace).  Receiver scans visit only the cells a
    /// transmission can reach instead of every node.  Maintained in both
    /// query modes — only `fill_candidates` consults `cfg.neighbor_index`.
    index: CellIndex,
    /// Chebyshev cell radius a radio signal can span.
    reach_cells: i32,
    /// Live population at or below which grid mode brute-scans
    /// (see [`auto_gather_threshold`]).
    auto_threshold: usize,
    /// Scratch candidate buffer for receiver discovery — reused across
    /// queries so the hot path never allocates.
    gather_buf: Vec<u32>,
    /// Bitset the index orders a gather through, sized to the fleet (so
    /// no fleet size sorts or zeroes a bitmap per transmission).
    gather_scratch: GatherScratch,
    /// Recycled receiver vectors for `Flight`s (returned at tx end).
    recv_pool: Vec<Vec<NodeId>>,
    /// Scratch success list for `tx_end`.
    succ_buf: Vec<NodeId>,
    /// Scratch interferer list of the flight `tx_end` is delivering.
    interferers: Vec<Transmission>,
    /// Recycled command buffer of `dispatch` (one callback at a time).
    cmd_buf: Vec<Cmd<P>>,
    /// Fastest leg of any host's trajectory (m/s): bounds how far a
    /// receiver frozen inside a sender's disc can drift while the frame
    /// is on the air.
    max_speed: f64,
    /// Worker pool of the threaded engine (`parallel_world` with
    /// `threads > 1`); `None` runs every host-plane kernel inline.
    exec: Option<WorkerPool>,
    /// Worker-lane count of the host-plane kernels (1 on the serial
    /// engine).
    threads: usize,
    /// Barrier mailbox of the probe kernels: phase 1 posts notable hosts
    /// into chunk-owned lanes, the commit phase drains them in lane
    /// order — which is ascending-id order, the serial loops' order.
    probe_mail: Mailbox<ProbeMsg>,
    /// Drained-message scratch (reused; the commit loop needs `&mut self`).
    probe_msgs: Vec<ProbeMsg>,
    /// Per-candidate receiver verdicts of the tx-freeze kernel.
    freeze_flags: Vec<bool>,
    /// Per-receiver verdicts of the tx-end kernel.
    txend_slots: Vec<TxProbe>,
    started: bool,
    /// Supervisor-shared progress counters (see [`ProgressProbe`]).
    probe: Option<Arc<ProgressProbe>>,
    /// Set when the run loop stopped on the configured budget.
    budget_exceeded: Option<BudgetExceeded>,
}

impl<P: Protocol> World<P> {
    /// Build a world.  `factory` constructs the protocol instance for each
    /// host (hosts are numbered `NodeId(0..hosts.len())`).
    pub fn new(
        cfg: WorldConfig,
        hosts: Vec<HostSetup>,
        flows: traffic::FlowSet,
        mut factory: impl FnMut(NodeId) -> P + 'static,
    ) -> Self {
        assert!(!hosts.is_empty(), "a world needs hosts");
        let rngs = RngFactory::new(cfg.seed);
        let n_hosts = hosts.len();
        let threads = if cfg.parallel_world { cfg.threads } else { 1 };
        // (a zero shard count is refused by `ShardMap::new`)
        assert!(threads > 0, "the sharded engine needs at least one worker lane");
        let exec = (threads > 1).then(|| WorkerPool::new(threads));
        // Heterogeneous fleets: the channel's geometry (bucket side,
        // mirror slack, reach radius) is sized from the LARGEST radio in
        // the fleet, so every per-transmission disc fits inside the 3x3
        // bucket query and every boundary mirror predicate.  A homogeneous
        // fleet reduces to exactly `cfg.range_m`, leaving digests
        // untouched.
        let max_range = hosts.iter().fold(cfg.range_m, |acc, h| {
            let r = h.range_m.unwrap_or(cfg.range_m);
            assert!(
                r.is_finite() && r > 0.0,
                "host radio range must be positive and finite, got {r}"
            );
            acc.max(r)
        });
        let reach_cells = (max_range / cfg.grid.cell_side()).ceil() as i32 + 1;
        let max_speed = hosts.iter().map(|h| h.trace.max_speed()).fold(0.0, f64::max);
        // Carrier-sense and interference queries scan the channel's
        // occupied entries: retention is bounded by the longest airtime,
        // so a bucket index over them measured neutral (DESIGN.md §10).
        let channel = if cfg.parallel_world {
            let map = ShardMap::new(
                cfg.grid.cells_x().max(1) as usize,
                cfg.grid.cell_side(),
                cfg.grid.width(),
                cfg.shards,
            );
            let mut ch = ShardedChannel::new(max_range, map);
            ch.set_capture_ratio(cfg.capture_ratio);
            WorldChannel::Sharded(ch)
        } else {
            let mut ch = ChannelState::new(max_range);
            ch.set_capture_ratio(cfg.capture_ratio);
            WorldChannel::Serial(ch)
        };
        let fault = FaultCtl::new(cfg.faults, hosts.len());
        let mut soa = Hosts::with_capacity(n_hosts);
        for (i, h) in hosts.into_iter().enumerate() {
            let id = NodeId(i as u32);
            let cell = cfg.grid.cell_of(h.trace.position_at(SimTime::ZERO));
            // fault-plan battery variance: manufacturing spread across
            // the finite batteries (infinite endpoints stay infinite)
            let battery = if cfg.faults.battery_var > 0.0 && !h.battery.is_infinite() {
                Battery::with_capacity(h.battery.capacity_j() * fault.battery_scale(id.0))
            } else {
                h.battery
            };
            let meter = EnergyMeter::new(h.profile, battery);
            soa.push(
                factory(id),
                meter,
                h.trace,
                cell,
                rngs.stream("node", i as u64),
                h.range_m.unwrap_or(cfg.range_m),
                h.gps_sigma_m,
                h.group,
            );
        }
        // Buckets coincide with the paper's logical grid cells: the
        // per-node cell is already maintained by cell-crossing events, so
        // index maintenance rides them — and candidate sets are identical
        // to the historical per-cell occupancy lists.
        let index = CellIndex::new(cfg.grid.cells_x(), cfg.grid.cells_y(), &soa.cells);
        // Pre-size the event slab to the measured shape of paper-scale
        // runs: SchedProfile high-water marks sit near 2 pending events
        // per host (cell crossing + one MAC/timer each) plus flow and
        // bookkeeping heads.  4n + 64 covers every profiled scenario with
        // slack; the slab still grows on demand if a run out-paces it.
        // (The sharded engine reserves that much *per shard* — any one
        // shard can transiently hold most of the pending set.)
        let mut sched = if cfg.parallel_world {
            // The backend knob is inert here: shard queues are binary
            // heaps keyed (time, global_seq).  Dispatch order is the same
            // contract either backend honors, so nothing observable
            // depends on the difference.
            let mut s = ShardedScheduler::new(cfg.shards);
            s.set_budget(cfg.budget);
            WorldSched::Sharded(s)
        } else {
            let mut s = Scheduler::with_backend(cfg.backend);
            s.set_budget(cfg.budget);
            WorldSched::Serial(s)
        };
        sched.reserve_events(4 * n_hosts + 64);
        let shards = if cfg.parallel_world {
            let map = ShardMap::new(
                cfg.grid.cells_x().max(1) as usize,
                cfg.grid.cell_side(),
                cfg.grid.width(),
                cfg.shards,
            );
            let mut members = vec![0u32; map.shard_count()];
            for c in &soa.cells {
                members[map.shard_of_col(c.x)] += 1;
            }
            let lookahead = cfg
                .mac
                .sifs
                .min(cfg.mac.slot)
                .min(cfg.mac.difs)
                .min(cfg.ras.wake_latency);
            let stride = lookahead.max(SHARD_GC_STRIDE);
            Some(ShardRuntime {
                map,
                members,
                stride,
                next_gc: SimTime::ZERO + stride,
                migrations: 0,
                barriers: 0,
            })
        } else {
            None
        };
        World {
            cfg,
            hosts: soa,
            sched,
            channel,
            shards,
            flights: EventPool::new(),
            flows,
            ledger: PacketLedger::new(),
            alive_series: TimeSeries::new(),
            aen_series: TimeSeries::new(),
            stats: WorldStats::default(),
            timers: TimerSlab::new(),
            fault,
            factory: Box::new(factory),
            recorder: None,
            index,
            reach_cells,
            auto_threshold: auto_gather_threshold(reach_cells),
            gather_buf: Vec::new(),
            gather_scratch: GatherScratch::default(),
            recv_pool: Vec::new(),
            succ_buf: Vec::new(),
            interferers: Vec::new(),
            cmd_buf: Vec::new(),
            max_speed,
            exec,
            threads,
            probe_mail: Mailbox::new(),
            probe_msgs: Vec::new(),
            freeze_flags: Vec::new(),
            txend_slots: Vec::new(),
            started: false,
            probe: None,
            budget_exceeded: None,
        }
    }

    /// Fill `out` with the ids of nodes whose current (maintained) cell
    /// lies within radio reach of `cell`, in ascending id order.  `out` is
    /// cleared first; the caller reuses it so the hot path never allocates.
    ///
    /// This is the iteration-order contract every query path must honor:
    /// same membership (every non-dead host, at the cell its last crossing
    /// event recorded), same order (ascending id), so every downstream
    /// touch — and therefore every energy integration step and trace event
    /// — happens identically whichever path answered the query.  Because
    /// the lists are bit-identical, grid mode may flip
    /// between paths per query without perturbing the digest.
    fn fill_candidates(&self, cell: GridCoord, scratch: &mut GatherScratch, out: &mut Vec<u32>) {
        let brute = match self.cfg.neighbor_index {
            NeighborIndex::Brute => true,
            // At low occupancy the fixed per-bucket cost of the gather
            // exceeds a branch-light scan of the cells array; the index
            // mirrors `!dead_handled` exactly, so its population is the
            // number of scan hits the brute path can see.
            NeighborIndex::Grid => self.index.len() <= self.auto_threshold,
        };
        if brute {
            // Reference scan: every index member is a node with
            // `dead_handled == false`, and its bucket is its maintained
            // `cell` field — reproduce exactly that, the O(N) way, over
            // two dense arrays.
            out.clear();
            let r = self.reach_cells;
            for (j, c) in self.hosts.cells.iter().enumerate() {
                if !self.hosts.dead_handled[j] && c.chebyshev(cell) <= r {
                    out.push(j as u32);
                }
            }
        } else {
            self.index
                .gather_sorted_with(scratch, cell.x, cell.y, self.reach_cells, out);
        }
    }

    /// Receiver discovery at `cell`, via whichever neighbor-query mode the
    /// config selects: the ascending-id list of live hosts whose maintained
    /// grid cell is within radio reach.  This is the simulator's hot-path
    /// query, exposed for tools and the scaling benchmarks.
    pub fn neighbors_of(&self, cell: GridCoord) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.fill_candidates(cell, &mut GatherScratch::default(), &mut out);
        out.into_iter().map(NodeId).collect()
    }

    /// Attach a structured event recorder (see the `trace` crate).  In
    /// [`TraceMode::DigestOnly`] only the canonical digest is maintained
    /// (O(1) memory); in [`TraceMode::Full`] every event is also buffered
    /// — long dense runs produce millions of events, so buffer only for
    /// focused scenarios and exports.
    pub fn enable_trace(&mut self, mode: TraceMode) {
        self.recorder = Some(Recorder::new(mode));
    }

    /// [`World::enable_trace`] with a live event tap: `sink` sees every
    /// event in recording order, from this thread, as the run proceeds —
    /// in chunks of [`trace::SINK_CHUNK`], and the rest of a run when
    /// [`World::run_until`] returns, however the run ended.  The sweep
    /// service streams from here; the sink must never block (hand off to
    /// a bounded drop-counting buffer instead).  Digest, buffer and
    /// profile behave exactly as without a sink.
    pub fn enable_trace_with_sink(&mut self, mode: TraceMode, sink: trace::EventSink) {
        let mut rec = Recorder::new(mode);
        rec.set_sink(sink);
        self.recorder = Some(rec);
    }

    /// Share a progress probe with a supervisor.  The run loop updates it
    /// after every dispatch (and snapshots the trace digest at each sample
    /// boundary), so if this world panics mid-run the probe still tells
    /// the supervisor how far it got.
    pub fn attach_probe(&mut self, probe: Arc<ProgressProbe>) {
        self.probe = Some(probe);
    }

    /// `Some` when a finished run was cut short by the configured budget.
    pub fn budget_exceeded(&self) -> Option<BudgetExceeded> {
        self.budget_exceeded
    }

    /// The buffered event trace (empty unless full tracing is enabled).
    pub fn event_trace(&self) -> &[TraceEvent] {
        self.recorder.as_ref().map(|r| r.events()).unwrap_or(&[])
    }

    /// Canonical digest of the event stream so far (`None` when tracing
    /// is disabled).
    pub fn trace_digest(&self) -> Option<TraceDigest> {
        self.recorder.as_ref().map(|r| r.digest())
    }

    /// The live recorder, if tracing is enabled.
    pub fn recorder(&self) -> Option<&Recorder> {
        self.recorder.as_ref()
    }

    /// Detach and return the recorder (for post-run export).
    pub fn take_recorder(&mut self) -> Option<Recorder> {
        self.recorder.take()
    }

    /// Record an event at the current virtual time.  With tracing disabled
    /// this is a single branch and the closure never runs.
    #[inline]
    fn emit(&mut self, make: impl FnOnce() -> EventKind) {
        if let Some(rec) = &mut self.recorder {
            let t = self.sched.now();
            rec.record(TraceEvent { t, kind: make() });
        }
    }

    #[inline]
    pub fn now(&self) -> SimTime {
        self.sched.now()
    }

    #[inline]
    pub fn node_count(&self) -> usize {
        self.hosts.len()
    }

    /// Lifetime counters of the scheduler's event slab (see
    /// [`sim_engine::EventPool`]).  On the sharded engine these are
    /// aggregated across shards — summed books plus the *global* live
    /// high-water mark — so invariants like "allocated = freed + live"
    /// and "high water = profile queue depth + 1" hold in both modes
    /// (pinned by `crates/manet/tests/event_pool.rs`).
    pub fn event_pool_stats(&self) -> sim_engine::PoolStats {
        self.sched.pool_stats()
    }

    /// Shard and migration counters of a parallel world; `None` on the
    /// serial engine.
    pub fn shard_stats(&self) -> Option<ShardStats> {
        self.shards.as_ref().map(|sr| ShardStats {
            shards: sr.map.shard_count(),
            members: sr.members.clone(),
            migrations: sr.migrations,
            barriers: sr.barriers,
            mirrored_tx: self.channel.mirrored(),
        })
    }

    /// The shard whose strip owns `node`'s maintained grid cell (always 0
    /// on the serial engine).  Every event concerning a node is filed in
    /// its owning shard's queue; which shard that is never affects
    /// dispatch order (the merge key is global), only storage locality.
    #[inline]
    fn shard_of_node(&self, node: NodeId) -> usize {
        match &self.shards {
            Some(sr) => sr.map.shard_of_col(self.hosts.cells[node.index()].x),
            None => 0,
        }
    }

    /// Immutable protocol access (tests, examples, result extraction).
    pub fn protocol(&self, id: NodeId) -> &P {
        &self.hosts.protos[id.index()]
    }

    pub fn node_mode(&self, id: NodeId) -> RadioMode {
        self.hosts.meters[id.index()].mode()
    }

    pub fn node_alive(&self, id: NodeId) -> bool {
        self.hosts.meters[id.index()].is_alive()
    }

    pub fn node_consumed_j(&self, id: NodeId) -> f64 {
        self.hosts.meters[id.index()].consumed_j()
    }

    /// Per-mode time/energy breakdown of a host.
    pub fn node_energy_audit(&self, id: NodeId) -> energy::EnergyAudit {
        *self.hosts.meters[id.index()].audit()
    }

    pub fn node_rbrc(&self, id: NodeId) -> f64 {
        self.hosts.meters[id.index()].rbrc()
    }

    pub fn node_cell(&self, id: NodeId) -> GridCoord {
        self.hosts.cells[id.index()]
    }

    pub fn stats(&self) -> &WorldStats {
        &self.stats
    }

    pub fn ledger(&self) -> &PacketLedger {
        &self.ledger
    }

    pub fn alive_series(&self) -> &TimeSeries {
        &self.alive_series
    }

    pub fn aen_series(&self) -> &TimeSeries {
        &self.aen_series
    }

    /// Fraction of finite-battery hosts currently alive.  A linear fold
    /// over the dense meter array.
    pub fn alive_fraction(&self) -> f64 {
        let mut total = 0u32;
        let mut alive = 0u32;
        for m in &self.hosts.meters {
            if m.battery().is_infinite() {
                continue;
            }
            total += 1;
            if m.is_alive() {
                alive += 1;
            }
        }
        if total == 0 {
            1.0
        } else {
            alive as f64 / total as f64
        }
    }

    /// aen (Eq. 2): total consumed energy of finite-battery hosts divided
    /// by their total initial energy — 0 at start, 1 when everyone is flat.
    pub fn aen(&self) -> f64 {
        let mut consumed = 0.0;
        let mut capacity = 0.0;
        for m in &self.hosts.meters {
            if m.battery().is_infinite() {
                continue;
            }
            consumed += m.consumed_j();
            capacity += m.battery().capacity_j();
        }
        if capacity == 0.0 {
            0.0
        } else {
            consumed / capacity
        }
    }

    /// Energy/liveness rollup per scenario group, indexed by group id
    /// (one linear fold, same accounting rules as [`Self::alive_fraction`]
    /// and [`Self::aen`]: infinite-battery hosts count toward `hosts` but
    /// not toward the energy or alive tallies).
    pub fn group_stats(&self) -> Vec<GroupStats> {
        let n_groups = self.hosts.groups.iter().copied().max().unwrap_or(0) as usize + 1;
        let mut out = vec![GroupStats::default(); n_groups];
        for (i, m) in self.hosts.meters.iter().enumerate() {
            let g = &mut out[self.hosts.groups[i] as usize];
            g.hosts += 1;
            if m.battery().is_infinite() {
                continue;
            }
            g.finite += 1;
            if m.is_alive() {
                g.alive += 1;
            }
            g.consumed_j += m.consumed_j();
            g.capacity_j += m.battery().capacity_j();
        }
        out
    }

    /// Kill a host immediately (failure injection: §3.2's "gateway is down
    /// because of an accident").  The host gets no chance to retire or
    /// hand over its tables; neighbours must detect the silence.
    pub fn kill_node(&mut self, id: NodeId) {
        let now = self.sched.now();
        let m = &mut self.hosts.meters[id.index()];
        let remaining = m.remaining_j();
        assert!(remaining.is_finite(), "cannot kill an infinite-energy host");
        m.drain_direct(now, remaining + 1.0);
        self.touch(id); // processes the death bookkeeping
    }

    /// Run the simulation up to `end` (inclusive of events at `end` that
    /// were already pending).  Returns the collected output; the world can
    /// be inspected further through accessors afterwards.
    pub fn run_until(&mut self, end: SimTime) -> RunOutput {
        if !self.started {
            self.started = true;
            self.bootstrap();
        }
        self.sched
            .schedule_at(0, end.max(self.sched.now()), Event::EndOfRun);
        // tripwire against zero-delay event cycles: no sane configuration
        // processes millions of events within one virtual nanosecond
        let mut last_t = SimTime::MAX;
        let mut same_t: u64 = 0;
        while let Some((t, ev)) = self.sched.next() {
            // watchdog: the budget is checked after the pop so the
            // diagnostic carries the time/count that actually crossed it;
            // the crossing event itself is not handled
            if let Err(exceeded) = self.sched.check_budget() {
                self.budget_exceeded = Some(exceeded);
                if let Some(p) = &self.probe {
                    p.record(self.sched.processed(), t);
                }
                break;
            }
            if let Some(p) = &self.probe {
                p.record(self.sched.processed(), t);
                if matches!(ev, Event::Sample) {
                    if let Some(rec) = &self.recorder {
                        p.record_digest(rec.digest());
                    }
                }
            }
            if t == last_t {
                same_t += 1;
                assert!(
                    same_t < 5_000_000,
                    "zero-delay event cycle at {t:?}: stuck on {ev:?} with {} pending",
                    self.sched.pending()
                );
            } else {
                last_t = t;
                same_t = 0;
            }
            if let Some(rec) = &mut self.recorder {
                let depth = self.sched.pending();
                let prof = rec.profile_mut();
                prof.bump(ev.domain());
                prof.observe_depth(depth);
            }
            // Epoch barrier of the sharded engine: when the merged clock
            // crosses the stride, prune every shard channel of entries no
            // query can admit any more.  Timing of the prune is invisible
            // to results (queries filter by time).
            if let Some(sr) = &mut self.shards {
                if t >= sr.next_gc {
                    self.channel.gc_barrier(t);
                    sr.barriers += 1;
                    sr.next_gc = t + sr.stride;
                }
            }
            match ev {
                Event::EndOfRun => break,
                other => self.handle(other),
            }
        }
        // integrate everyone to the end instant for exact final energy —
        // a pure linear pass over the meter array (chunked when threaded)
        let now = self.sched.now();
        self.advance_all_meters(now);
        // on both exits (end of run and a budget trip): a sink has seen the
        // whole run before its caller reports on it
        if let Some(rec) = &mut self.recorder {
            rec.flush_sink();
        }
        RunOutput {
            alive: self.alive_series.clone(),
            aen: self.aen_series.clone(),
            ledger: self.ledger.clone(),
            stats: self.stats,
            budget_exceeded: self.budget_exceeded,
        }
    }

    // ----- initialization -------------------------------------------

    fn bootstrap(&mut self) {
        // initial metric sample at t=0, then periodic
        self.sched.schedule_at(0, SimTime::ZERO, Event::Sample);
        // first grid crossing per node
        for i in 0..self.hosts.len() {
            let id = NodeId(i as u32);
            if let Some((t, _)) = self.hosts.traces[i].next_cell_crossing(&self.cfg.grid, SimTime::ZERO) {
                let sh = self.shard_of_node(id);
                self.sched.schedule_at(sh, t, Event::CellCrossing { node: id });
            }
        }
        // traffic (flow events live with the flow's source host)
        for (idx, f) in self.flows.flows().iter().enumerate() {
            if let Some(t) = f.packet_time(0) {
                let sh = match &self.shards {
                    Some(sr) => sr.map.shard_of_col(self.hosts.cells[f.src.index()].x),
                    None => 0,
                };
                self.sched.schedule_at(
                    sh,
                    t,
                    Event::AppSend {
                        flow_idx: idx,
                        seq: 0,
                    },
                );
            }
        }
        // fault-plan schedules: first crash / drain per node (each firing
        // schedules the next, so only the heads are seeded here)
        if self.fault.is_active() {
            for i in 0..self.hosts.len() {
                let node = NodeId(i as u32);
                let sh = self.shard_of_node(node);
                if let Some(gap) = self.fault.crash_gap_secs(node.0, 0) {
                    self.sched.schedule_in(
                        sh,
                        SimDuration::from_secs_f64(gap),
                        Event::FaultCrash { node, k: 0 },
                    );
                }
                if let Some(gap) = self.fault.drain_gap_secs(node.0, 0) {
                    self.sched.schedule_in(
                        sh,
                        SimDuration::from_secs_f64(gap),
                        Event::FaultDrain { node, k: 0 },
                    );
                }
            }
        }
        // protocol start
        for i in 0..self.hosts.len() {
            self.dispatch(NodeId(i as u32), |p, ctx| p.on_start(ctx));
        }
    }

    // ----- event handling --------------------------------------------

    fn handle(&mut self, ev: Event) {
        match ev {
            Event::MacTryTx { node } => self.mac_try_tx(node),
            Event::TxEnd { node, tx_id, flight } => self.tx_end(node, tx_id, flight),
            Event::AckDone { node, ok } => self.ack_done(node, ok),
            Event::Timer { node, id } => self.timer_fired(node, id),
            Event::Page { signal, origin } => self.page_arrives(signal, origin),
            Event::CellCrossing { node } => self.cell_crossing(node),
            Event::AppSend { flow_idx, seq } => self.app_send(flow_idx, seq),
            Event::Sample => self.sample(),
            Event::FaultCrash { node, k } => self.fault_crash(node, k),
            Event::FaultRejoin { node, k } => self.fault_rejoin(node, k),
            Event::FaultDrain { node, k } => self.fault_drain(node, k),
            Event::EndOfRun => unreachable!("handled by run loop"),
        }
    }

    // ----- fault injection --------------------------------------------

    /// The fault plan crashes `node`: it goes silent instantly — no
    /// retirement frame, no handover, pending timers die with it — until
    /// the scheduled reboot.  (The paper's §3.2 "gateway is down because of
    /// an accident", now as a schedulable event rather than a test hook.)
    fn fault_crash(&mut self, node: NodeId, k: u64) {
        if !self.touch(node) {
            return; // already dead for real: the chain ends here
        }
        let i = node.index();
        self.hosts.crashed[i] = true;
        let mac = &mut self.hosts.macs[i];
        mac.queue.clear();
        mac.phase = MacPhase::Idle;
        mac.attempt = 0;
        self.hosts.rx_refs[i] = 0;
        self.hosts.sleep_pending[i] = false;
        // a crashed host's pending protocol timers must never fire
        let sched = &mut self.sched;
        self.timers.disarm_all_of(node, |handle| sched.cancel(handle));
        self.set_mode(node, RadioMode::Sleep);
        self.stats.crashes += 1;
        self.emit(|| EventKind::FaultInjected {
            node,
            fault: FaultKind::Crash,
        });
        let sh = self.shard_of_node(node);
        self.sched.schedule_in(
            sh,
            SimDuration::from_secs_f64(self.fault.rejoin_secs()),
            Event::FaultRejoin { node, k: k + 1 },
        );
    }

    /// A crashed host reboots: radio back on, protocol state rebuilt from
    /// scratch (a reboot forgets routing tables and roles), `on_start`
    /// dispatched as at t=0.
    fn fault_rejoin(&mut self, node: NodeId, k: u64) {
        if !self.touch(node) {
            return;
        }
        self.hosts.crashed[node.index()] = false;
        self.set_mode(node, RadioMode::Idle);
        self.stats.rejoins += 1;
        self.emit(|| EventKind::FaultInjected {
            node,
            fault: FaultKind::Rejoin,
        });
        self.hosts.protos[node.index()] = (self.factory)(node);
        self.dispatch(node, |p, ctx| p.on_start(ctx));
        if let Some(gap) = self.fault.crash_gap_secs(node.0, k) {
            let sh = self.shard_of_node(node);
            self.sched
                .schedule_in(sh, SimDuration::from_secs_f64(gap), Event::FaultCrash { node, k });
        }
    }

    /// A sudden drain removes a fraction of the node's remaining energy
    /// (shorted rail, runaway app — adversity the level classes of Eq. 1
    /// must absorb).
    fn fault_drain(&mut self, node: NodeId, k: u64) {
        if !self.touch(node) {
            return;
        }
        let now = self.sched.now();
        let m = &mut self.hosts.meters[node.index()];
        let remaining = m.remaining_j();
        if remaining.is_finite() {
            m.drain_direct(now, remaining * self.fault.drain_frac());
            self.stats.fault_drains += 1;
            self.emit(|| EventKind::FaultInjected {
                node,
                fault: FaultKind::Drain,
            });
            self.touch(node); // a deep drain can be fatal on the spot
        }
        if let Some(gap) = self.fault.drain_gap_secs(node.0, k + 1) {
            let sh = self.shard_of_node(node);
            self.sched.schedule_in(
                sh,
                SimDuration::from_secs_f64(gap),
                Event::FaultDrain { node, k: k + 1 },
            );
        }
    }

    /// Advance a node's meter to now, processing death if it occurred.
    /// Returns true if the node is (still) alive.
    fn touch(&mut self, node: NodeId) -> bool {
        let now = self.sched.now();
        let tracing = self.recorder.is_some();
        let i = node.index();
        let meter = &mut self.hosts.meters[i];
        meter.advance(now);
        // battery level-class boundary crossings only need detecting when a
        // recorder is attached (level() divides; touch is the hottest path)
        let level = if tracing { Some(meter.level()) } else { None };
        let alive = meter.is_alive();
        self.commit_probe(node, level, alive)
    }

    /// The post-advance half of [`World::touch`]: level-class change
    /// detection, death bookkeeping, and the associated emissions.  The
    /// threaded kernels run the advance half in parallel, then replay
    /// this commit serially in ascending-id order — the exact order the
    /// serial loops produce — so both paths share one implementation.
    fn commit_probe(&mut self, node: NodeId, level: Option<EnergyLevel>, alive: bool) -> bool {
        let i = node.index();
        let mut level_change = None;
        if let Some(level) = level {
            if level != self.hosts.last_levels[i] {
                level_change = Some((self.hosts.last_levels[i], level));
                self.hosts.last_levels[i] = level;
            }
        }
        let newly_dead = !alive && !self.hosts.dead_handled[i];
        if newly_dead {
            self.hosts.dead_handled[i] = true;
            let mac = &mut self.hosts.macs[i];
            mac.queue.clear();
            mac.phase = MacPhase::Idle;
            self.hosts.rx_refs[i] = 0;
            // prune the spatial index: death is permanent (the meter
            // latches Off), so the entry would only go stale.  Touching a
            // dead host is observably inert, so dropping it from candidate
            // sets cannot shift the trace — the brute path mirrors this by
            // filtering on the same `dead_handled` flag.
            self.index.remove(node.0);
            self.stats.deaths += 1;
            if let Some(sr) = &mut self.shards {
                sr.members[sr.map.shard_of_col(self.hosts.cells[i].x)] -= 1;
            }
        }
        if let Some((from, to)) = level_change {
            self.emit(|| EventKind::BatteryLevel { node, from, to });
        }
        if newly_dead {
            self.emit(|| EventKind::NodeDeath { node });
        }
        alive
    }

    // ----- threaded host-plane kernels --------------------------------
    //
    // The threaded engine keeps the serial dispatch spine — one event at
    // a time, in the proven merge order — and fans out the *data plane*
    // inside the all-host handlers: per-host energy integration, mobility
    // evaluation, and reception verdicts are pure per-host computations,
    // so they run on worker chunks (phase 1) while every state mutation,
    // RNG draw, and trace emission replays serially at the barrier
    // (phase 2) in ascending-id order.  Phase 1 reads nothing phase 2
    // writes for a *different* host (levels, death flags, MAC state are
    // strictly per-host; traces/cells/channel are read-only here), so the
    // interleaving the serial loop performs and the two-phase split are
    // observably identical — digest identity by construction, at any
    // thread count.  See DESIGN.md §14.

    /// Parallel advance + classify over all hosts (phase 1), then serial
    /// commit of every notable host (phase 2).  With `page` set, also
    /// evaluates paging reachability per host and returns the addressed
    /// list.  Returns `None` when the threaded path is not engaged — the
    /// caller falls back to the original serial loop.
    fn parallel_probe_all(&mut self, page: Option<(&PageSignal, Point2, f64)>) -> Option<Vec<NodeId>> {
        let n = self.hosts.len();
        if self.exec.is_none() || n < PAR_MIN_ITEMS {
            return None;
        }
        let now = self.sched.now();
        let tracing = self.recorder.is_some();
        let grain = par_grain(n, self.threads);
        self.probe_mail.ensure_lanes(chunk_count(n, grain));
        {
            let pool = self.exec.as_ref().expect("checked above");
            let split = self.probe_mail.split();
            let meters = SlicePtr::new(&mut self.hosts.meters);
            let traces = &self.hosts.traces;
            let cells = &self.hosts.cells;
            let last_levels = &self.hosts.last_levels;
            let dead_handled = &self.hosts.dead_handled;
            pool.for_each_range(n, grain, &|chunk, range| {
                let ms = unsafe { meters.slice(range.clone()) };
                let mut lane = unsafe { split.writer(chunk) };
                for (off, i) in range.enumerate() {
                    let m = &mut ms[off];
                    m.advance(now);
                    let level = if tracing { Some(m.level()) } else { None };
                    let alive = m.is_alive();
                    let changed = level.is_some_and(|l| l != last_levels[i]);
                    let newly_dead = !alive && !dead_handled[i];
                    let mut hit = false;
                    if alive {
                        if let Some((signal, origin, range_m)) = page {
                            let pj = traces[i].position_at(now);
                            hit = origin.within_range(pj, range_m)
                                && signal.addresses(NodeId(i as u32), cells[i]);
                        }
                    }
                    if changed || newly_dead || hit {
                        lane.post(
                            now,
                            ProbeMsg {
                                node: i as u32,
                                level,
                                alive,
                                hit,
                            },
                        );
                    }
                }
            });
        }
        let mut msgs = std::mem::take(&mut self.probe_msgs);
        debug_assert!(msgs.is_empty());
        self.probe_mail.drain(now, |_, m| msgs.push(m));
        let mut addressed = Vec::new();
        for m in &msgs {
            self.commit_probe(NodeId(m.node), m.level, m.alive);
            if m.hit {
                addressed.push(NodeId(m.node));
            }
        }
        msgs.clear();
        self.probe_msgs = msgs;
        Some(addressed)
    }

    /// Parallel final energy integration (no commits: the serial path is
    /// a bare `advance` loop too).
    fn advance_all_meters(&mut self, now: SimTime) {
        let n = self.hosts.len();
        if let Some(pool) = self.exec.as_ref() {
            if n >= PAR_MIN_ITEMS {
                let grain = par_grain(n, self.threads);
                let meters = SlicePtr::new(&mut self.hosts.meters);
                pool.for_each_range(n, grain, &|_chunk, range| {
                    for m in unsafe { meters.slice(range) } {
                        m.advance(now);
                    }
                });
                return;
            }
        }
        for m in &mut self.hosts.meters {
            m.advance(now);
        }
    }

    // ----- protocol dispatch ------------------------------------------

    fn dispatch(&mut self, node: NodeId, f: impl FnOnce(&mut P, &mut Ctx<'_, P>)) {
        if !self.touch(node) {
            return;
        }
        // a crashed host's protocol is frozen until the reboot
        if self.hosts.crashed[node.index()] {
            return;
        }
        let now = self.sched.now();
        let emitting = self.recorder.is_some();
        // GPS error: what the protocol *believes* its position is.  The
        // world's own bookkeeping (cells, channel geometry) keeps the true
        // position — only the receiver estimate is corrupted.  The fault
        // plan's global error and the scenario's per-group sigma compose
        // additively; each contributes (0, 0) — and performs no draws —
        // when its knob is zero.
        let i = node.index();
        let gps_off = self.fault.gps_offset_m(node.0, now.as_nanos());
        let sigma_off = scenario_gps_offset(self.cfg.seed, node.0, self.hosts.gps_sigmas[i], now.as_nanos());
        let gps_off = (gps_off.0 + sigma_off.0, gps_off.1 + sigma_off.1);
        let trace = &self.hosts.traces[i];
        let leg = &mut self.hosts.legs[i];
        let meter = &self.hosts.meters[i];
        let mut pos = leg.position_at(trace, now);
        if gps_off != (0.0, 0.0) {
            pos = (pos + Vec2::new(gps_off.0, gps_off.1))
                .clamp_to(self.cfg.grid.width(), self.cfg.grid.height());
        }
        let view = NodeView {
            now,
            id: node,
            pos,
            vel: leg.velocity_at(trace, now),
            cell: self.hosts.cells[i],
            mode: meter.mode(),
            rbrc: meter.rbrc(),
            level: meter.level(),
            remaining_j: meter.remaining_j(),
        };
        // field-disjoint borrows: protocol and rng mutably, trace shared
        let mut ctx = Ctx {
            view,
            grid: &self.cfg.grid,
            trace,
            rng: &mut self.hosts.rngs[i],
            timers: &mut self.timers,
            cmds: std::mem::take(&mut self.cmd_buf),
            emitting,
        };
        f(&mut self.hosts.protos[i], &mut ctx);
        let mut cmds = ctx.cmds;
        self.apply(node, &mut cmds);
        self.cmd_buf = cmds;
    }

    /// Apply (and drain) the commands a callback queued, in call order.
    fn apply(&mut self, node: NodeId, cmds: &mut Vec<Cmd<P>>) {
        let now = self.sched.now();
        for cmd in cmds.drain(..) {
            match cmd {
                Cmd::Send { kind, msg } => self.mac_enqueue(node, kind, msg),
                Cmd::Sleep => self.node_sleep(node),
                Cmd::Wake => self.node_wake(node),
                Cmd::PageHost(id) => {
                    self.stats.pages_sent += 1;
                    let origin = self.hosts.pos_at(node.index(), now);
                    self.emit(|| EventKind::RasPage {
                        by: node,
                        signal: PageSignal::Host(id),
                    });
                    let latency = self.cfg.ras.wake_latency
                        + SimDuration::from_nanos(self.fault.page_extra_delay_ns(node.0, now.as_nanos()));
                    let sh = self.shard_of_node(node);
                    self.sched.schedule_in(
                        sh,
                        latency,
                        Event::Page {
                            signal: PageSignal::Host(id),
                            origin,
                        },
                    );
                }
                Cmd::PageGrid(cell) => {
                    self.stats.pages_sent += 1;
                    let origin = self.hosts.pos_at(node.index(), now);
                    self.emit(|| EventKind::RasPage {
                        by: node,
                        signal: PageSignal::Grid(cell),
                    });
                    let latency = self.cfg.ras.wake_latency
                        + SimDuration::from_nanos(self.fault.page_extra_delay_ns(node.0, now.as_nanos()));
                    let sh = self.shard_of_node(node);
                    self.sched.schedule_in(
                        sh,
                        latency,
                        Event::Page {
                            signal: PageSignal::Grid(cell),
                            origin,
                        },
                    );
                }
                Cmd::SetTimer { id, delay, timer } => {
                    let sh = self.shard_of_node(node);
                    let handle = self.sched.schedule_in(sh, delay, Event::Timer { node, id: id.0 });
                    self.timers.arm(id, node, timer, handle);
                }
                Cmd::DeliverApp(packet) => {
                    self.ledger.record_delivered(packet.key(), now);
                    self.emit(|| EventKind::PacketDelivered {
                        node,
                        flow: packet.flow,
                        seq: packet.seq,
                    });
                }
                Cmd::Emit(kind) => {
                    if let Some(rec) = &mut self.recorder {
                        rec.record(TraceEvent { t: now, kind });
                    }
                }
            }
        }
    }

    // ----- radio-mode management --------------------------------------

    fn set_mode(&mut self, node: NodeId, mode: RadioMode) {
        let now = self.sched.now();
        let meter = &mut self.hosts.meters[node.index()];
        let old = meter.mode();
        // the meter refuses transitions out of Off, so read back what stuck
        let new = meter.set_mode(now, mode);
        if old != new {
            self.emit(|| EventKind::RadioMode {
                node,
                from: old,
                to: new,
            });
        }
    }

    fn node_sleep(&mut self, node: NodeId) {
        if !self.touch(node) {
            return;
        }
        let i = node.index();
        // The protocol queued its goodbyes (e.g. ECGRID's sleep notice)
        // before deciding to sleep: the interface drains its queue first
        // and powers down the moment the MAC quiesces.  Frames can no
        // longer be *enqueued* once asleep (mac_enqueue drops them), so
        // nothing stale survives into the next wake.
        let mac = &self.hosts.macs[i];
        if !matches!(mac.phase, MacPhase::Idle) || !mac.queue.is_empty() {
            self.hosts.sleep_pending[i] = true;
            return;
        }
        self.hosts.sleep_pending[i] = false;
        self.hosts.rx_refs[i] = 0;
        self.set_mode(node, RadioMode::Sleep);
    }

    fn node_wake(&mut self, node: NodeId) {
        if !self.touch(node) {
            return;
        }
        self.hosts.sleep_pending[node.index()] = false;
        if self.hosts.meters[node.index()].mode() == RadioMode::Sleep {
            self.set_mode(node, RadioMode::Idle);
        }
        self.mac_kick(node);
    }

    // ----- MAC --------------------------------------------------------

    fn mac_enqueue(&mut self, node: NodeId, kind: FrameKind, msg: P::Msg) {
        if !self.touch(node) {
            return;
        }
        // transmitting requires an active transceiver: a protocol must
        // wake() before sending (the ACQ handshake does exactly that,
        // §3.3).  A frame sent from a sleeping state is a protocol bug —
        // silently powering the radio up here would desynchronize the
        // protocol's sleep bookkeeping, so the frame is dropped instead.
        if self.hosts.meters[node.index()].mode() == RadioMode::Sleep {
            self.stats.mac_drops += 1;
            return;
        }
        let bytes = msg.wire_bytes();
        let mac = &mut self.hosts.macs[node.index()];
        // finite interface queue: tail-drop when a protocol outpaces the
        // channel (protects against pathological send loops, like real NICs)
        if mac.queue.len() >= MAC_QUEUE_CAP {
            self.stats.mac_drops += 1;
            return;
        }
        // a host's first send: room for exactly one frame, since few hosts
        // ever hold two (the queue grows as usual when one does)
        if mac.queue.capacity() == 0 {
            mac.queue.reserve_exact(1);
        }
        mac.queue.push_back(OutFrame { kind, msg, bytes });
        self.mac_kick(node);
    }

    /// Contention window for the node's head-of-queue frame.  Broadcasts
    /// (HELLO beacons, RREQ floods) contend over a much wider window:
    /// floods are triggered by a shared reception, so dozens of hosts
    /// would otherwise pick from the same 32 slots and collide — the wide
    /// window plays the role of ns-2's AODV broadcast jitter.
    fn head_cw(&self, node: NodeId) -> u32 {
        let mac = &self.hosts.macs[node.index()];
        match mac.queue.front().map(|f| f.kind) {
            Some(FrameKind::Broadcast) => (self.cfg.mac.cw_min + 1) * 8 - 1,
            _ => self.cfg.mac.cw_for_attempt(mac.attempt),
        }
    }

    /// Schedule a MacTryTx if the MAC is idle with queued frames.
    ///
    /// Every access draws an initial contention backoff (DCF-style): most
    /// frames are queued in *reaction* to a reception, so dozens of hosts
    /// would otherwise transmit at exactly now+DIFS and collide wholesale.
    fn mac_kick(&mut self, node: NodeId) {
        let cw = self.head_cw(node);
        let i = node.index();
        if self.hosts.macs[i].phase == MacPhase::Idle
            && !self.hosts.macs[i].queue.is_empty()
            && self.hosts.meters[i].mode() != RadioMode::Sleep
        {
            self.hosts.macs[i].phase = MacPhase::WaitTry;
            let slots = self.hosts.rngs[i].gen_range(0..=cw);
            let delay = self.cfg.mac.difs + self.cfg.mac.backoff(slots);
            let sh = self.shard_of_node(node);
            self.sched.schedule_in(sh, delay, Event::MacTryTx { node });
        }
    }

    fn mac_try_tx(&mut self, node: NodeId) {
        if !self.touch(node) {
            return;
        }
        let now = self.sched.now();
        let i = node.index();
        if self.hosts.macs[i].phase != MacPhase::WaitTry {
            return; // stale
        }
        if self.hosts.meters[i].mode() == RadioMode::Sleep {
            self.hosts.macs[i].phase = MacPhase::Idle; // re-kicked on wake
            return;
        }
        if self.hosts.macs[i].queue.is_empty() {
            self.hosts.macs[i].phase = MacPhase::Idle;
            return;
        }
        self.channel.gc_tx_path(now);
        let sh = self.shard_of_node(node);
        let pos = self.hosts.pos_at(i, now);
        if let Some(busy_end) = self.channel.busy_until(sh, pos, now) {
            // deferral: re-sense after the medium frees plus DIFS + backoff
            let cw = self.head_cw(node);
            let slots = self.hosts.rngs[i].gen_range(0..=cw);
            let at = busy_end + self.cfg.mac.difs + self.cfg.mac.backoff(slots);
            self.sched.schedule_at(sh, at.max(now), Event::MacTryTx { node });
            return;
        }
        // medium idle: transmit the head-of-queue frame
        let (kind, bytes, msg) = {
            let f = self.hosts.macs[i].queue.front().expect("non-empty checked");
            (f.kind, f.bytes, f.msg.clone())
        };
        let meta = FrameMeta {
            src: node,
            kind,
            payload_bytes: bytes,
        };
        let dur = self.cfg.mac.airtime(&meta);
        let end = now + dur;
        let tx_range = self.hosts.ranges[i];
        let tx_id = self.channel.begin_tx(sh, node, pos, tx_range, now, end);

        // freeze the receiver set: alive, transceiver on, not transmitting,
        // within range at tx start.  Candidates come from the reusable
        // scratch buffer in ascending id order (identical whichever query
        // path filled it); the receiver vector is recycled from earlier
        // flights, so the steady-state hot path performs zero allocations.
        let mut cand = std::mem::take(&mut self.gather_buf);
        let mut scratch = std::mem::take(&mut self.gather_scratch);
        self.fill_candidates(self.hosts.cells[i], &mut scratch, &mut cand);
        self.gather_scratch = scratch;
        let mut receivers = self.recv_pool.pop().unwrap_or_default();
        debug_assert!(receivers.is_empty());
        if self.exec.is_some() && cand.len() >= PAR_MIN_ITEMS {
            // Threaded freeze: candidates are unique ascending ids, so
            // candidate-chunks touch disjoint hosts.  Phase 1 advances
            // each candidate's meter and computes its receive verdict;
            // phase 2 commits notable hosts in candidate order (the
            // serial loop's touch order) and then collects receivers in
            // candidate order (serial's push order; pushes emit nothing).
            let nc = cand.len();
            let now_t = now;
            let tracing = self.recorder.is_some();
            let grain = par_grain(nc, self.threads);
            self.freeze_flags.clear();
            self.freeze_flags.resize(nc, false);
            self.probe_mail.ensure_lanes(chunk_count(nc, grain));
            {
                let pool = self.exec.as_ref().expect("checked above");
                let split = self.probe_mail.split();
                let meters = SlicePtr::new(&mut self.hosts.meters);
                let flags = SlicePtr::new(&mut self.freeze_flags);
                let traces = &self.hosts.traces;
                let last_levels = &self.hosts.last_levels;
                let dead_handled = &self.hosts.dead_handled;
                let cand_ref = &cand;
                let sender = node.index();
                pool.for_each_range(nc, grain, &|chunk, range| {
                    let out = unsafe { flags.slice(range.clone()) };
                    let mut lane = unsafe { split.writer(chunk) };
                    for (off, c) in range.enumerate() {
                        let j = cand_ref[c] as usize;
                        if j == sender {
                            continue; // the serial loop skips self before touching
                        }
                        let m = unsafe { meters.get_mut(j) };
                        m.advance(now_t);
                        let level = if tracing { Some(m.level()) } else { None };
                        let alive = m.is_alive();
                        if level.is_some_and(|l| l != last_levels[j]) || (!alive && !dead_handled[j]) {
                            lane.post(
                                now_t,
                                ProbeMsg {
                                    node: j as u32,
                                    level,
                                    alive,
                                    hit: false,
                                },
                            );
                        }
                        if alive && matches!(m.mode(), RadioMode::Idle | RadioMode::Rx) {
                            let pj = traces[j].position_at(now_t);
                            out[off] = pos.within_range(pj, tx_range);
                        }
                    }
                });
            }
            let mut msgs = std::mem::take(&mut self.probe_msgs);
            debug_assert!(msgs.is_empty());
            self.probe_mail.drain(now, |_, m| msgs.push(m));
            for m in &msgs {
                self.commit_probe(NodeId(m.node), m.level, m.alive);
            }
            msgs.clear();
            self.probe_msgs = msgs;
            for (c, &j) in cand.iter().enumerate() {
                if self.freeze_flags[c] {
                    receivers.push(NodeId(j));
                }
            }
        } else {
            for &j in &cand {
                let jid = NodeId(j);
                if jid == node {
                    continue;
                }
                if !self.touch(jid) {
                    continue;
                }
                let mode = self.hosts.meters[j as usize].mode();
                if !matches!(mode, RadioMode::Idle | RadioMode::Rx) {
                    continue;
                }
                let pj = self.hosts.pos_at(j as usize, now);
                if !pos.within_range(pj, tx_range) {
                    continue;
                }
                receivers.push(jid);
            }
        }
        self.gather_buf = cand;
        for &r in &receivers {
            self.hosts.rx_refs[r.index()] += 1;
            if self.hosts.meters[r.index()].mode() == RadioMode::Idle {
                self.set_mode(r, RadioMode::Rx);
            }
        }
        self.set_mode(node, RadioMode::Tx);
        self.hosts.macs[i].phase = MacPhase::Transmitting(tx_id);
        self.stats.tx_started += 1;
        match kind {
            FrameKind::Broadcast => self.stats.broadcasts += 1,
            FrameKind::Unicast(_) => self.stats.unicasts += 1,
        }
        self.emit(|| EventKind::MacTx {
            node,
            dst: kind.dst(),
            bytes: meta.wire_bytes(),
        });
        let flight = self.flights.alloc(Flight {
            src: node,
            origin: pos,
            kind,
            msg,
            start: now,
            end,
            receivers,
        });
        self.sched
            .schedule_at(sh, end, Event::TxEnd { node, tx_id, flight });
    }

    fn tx_end(&mut self, node: NodeId, tx_id: u64, flight: u32) {
        let now = self.sched.now();
        let flight = self.flights.free(flight);
        // Answer the collision question once for the whole flight: every
        // receiver was inside the sender's disc at tx start and has
        // drifted at most `max_speed * airtime` since, so the transmissions
        // that can corrupt *any* of them are the ones this short (almost
        // always empty) list holds; each receiver is then tested against
        // the list instead of walking the channel's buckets itself.
        let mut interferers = std::mem::take(&mut self.interferers);
        let drift = self.max_speed * now.since(flight.start).as_secs_f64();
        self.channel.interferers_into(
            tx_id,
            flight.origin,
            self.hosts.ranges[flight.src.index()] + drift,
            flight.start,
            flight.end,
            &mut interferers,
        );
        // a sender that crashed mid-frame kills its own transmission
        let sender_alive = self.touch(node) && !self.hosts.crashed[node.index()];
        if sender_alive && self.hosts.meters[node.index()].mode() == RadioMode::Tx {
            self.set_mode(node, RadioMode::Idle);
        }

        // unwind receiver Rx states and evaluate reception success (the
        // success list is a recycled scratch vector)
        let mut successes = std::mem::take(&mut self.succ_buf);
        debug_assert!(successes.is_empty());
        if self.exec.is_some() && flight.receivers.len() >= PAR_MIN_ITEMS {
            // Threaded receiver evaluation: phase 1 advances each frozen
            // receiver's meter and precomputes its pure collision verdict
            // (receivers are unique ids, so chunks touch disjoint hosts;
            // `corrupted` is a read-only channel query).  Phase 2 replays
            // the serial loop per receiver in order — commit, Rx unwind,
            // gates, the *stateful* fault draw — off the dense slots.
            let nr = flight.receivers.len();
            let now_t = now;
            let tracing = self.recorder.is_some();
            let grain = par_grain(nr, self.threads);
            self.txend_slots.clear();
            self.txend_slots.resize(nr, TxProbe::default());
            {
                let pool = self.exec.as_ref().expect("checked above");
                let slots = SlicePtr::new(&mut self.txend_slots);
                let meters = SlicePtr::new(&mut self.hosts.meters);
                let traces = &self.hosts.traces;
                let channel = &self.channel;
                let recvs = &flight.receivers;
                let (src_pos, interferers) = (flight.origin, &interferers);
                pool.for_each_range(nr, grain, &|_chunk, range| {
                    let out = unsafe { slots.slice(range.clone()) };
                    for (off, c) in range.enumerate() {
                        let j = recvs[c].index();
                        let m = unsafe { meters.get_mut(j) };
                        m.advance(now_t);
                        let pr = traces[j].position_at(now_t);
                        out[off] = TxProbe {
                            level: if tracing { Some(m.level()) } else { None },
                            alive: m.is_alive(),
                            corrupt: channel.corrupted_by(interferers, src_pos, pr),
                        };
                    }
                });
            }
            for c in 0..nr {
                let r = flight.receivers[c];
                let s = self.txend_slots[c];
                let alive = self.commit_probe(r, s.level, s.alive);
                let j = r.index();
                if self.hosts.rx_refs[j] > 0 {
                    self.hosts.rx_refs[j] -= 1;
                }
                let mode = self.hosts.meters[j].mode();
                if self.hosts.rx_refs[j] == 0 && mode == RadioMode::Rx {
                    self.set_mode(r, RadioMode::Idle);
                }
                if !sender_alive || !alive {
                    self.stats.missed_unreachable += 1;
                    continue;
                }
                let mode = self.hosts.meters[j].mode();
                if !mode.can_receive() {
                    self.stats.missed_unreachable += 1;
                    continue;
                }
                if s.corrupt {
                    self.stats.corrupted += 1;
                    let from = flight.src;
                    self.emit(|| EventKind::MacCollision { node: r, from });
                    continue;
                }
                // injected channel adversity (independent and burst loss)
                if self.fault.frame_lost(r.0, tx_id, now.as_nanos()) {
                    self.stats.frames_lost_fault += 1;
                    self.emit(|| EventKind::FaultInjected {
                        node: r,
                        fault: FaultKind::FrameLoss,
                    });
                    continue;
                }
                successes.push(r);
            }
        } else {
            for &r in &flight.receivers {
                let alive = self.touch(r);
                let j = r.index();
                if self.hosts.rx_refs[j] > 0 {
                    self.hosts.rx_refs[j] -= 1;
                }
                let mode = self.hosts.meters[j].mode();
                if self.hosts.rx_refs[j] == 0 && mode == RadioMode::Rx {
                    self.set_mode(r, RadioMode::Idle);
                }
                if !sender_alive || !alive {
                    self.stats.missed_unreachable += 1;
                    continue;
                }
                let mode = self.hosts.meters[j].mode();
                if !mode.can_receive() {
                    self.stats.missed_unreachable += 1;
                    continue;
                }
                if !interferers.is_empty()
                    && self
                        .channel
                        .corrupted_by(&interferers, flight.origin, self.hosts.pos_at(j, now))
                {
                    self.stats.corrupted += 1;
                    let from = flight.src;
                    self.emit(|| EventKind::MacCollision { node: r, from });
                    continue;
                }
                // injected channel adversity (independent and burst loss)
                if self.fault.frame_lost(r.0, tx_id, now.as_nanos()) {
                    self.stats.frames_lost_fault += 1;
                    self.emit(|| EventKind::FaultInjected {
                        node: r,
                        fault: FaultKind::FrameLoss,
                    });
                    continue;
                }
                successes.push(r);
            }
        }

        match flight.kind {
            FrameKind::Broadcast => {
                for r in &successes {
                    self.stats.frames_delivered += 1;
                    let (src, msg) = (flight.src, &flight.msg);
                    let bytes = msg.wire_bytes();
                    let rr = *r;
                    self.emit(|| EventKind::MacRx {
                        node: rr,
                        from: src,
                        bytes,
                    });
                    self.dispatch(*r, |p, ctx| p.on_frame(ctx, src, FrameKind::Broadcast, msg));
                }
                if sender_alive {
                    self.mac_complete_head(node);
                }
            }
            FrameKind::Unicast(dst) => {
                let ok = successes.contains(&dst);
                if ok {
                    self.stats.frames_delivered += 1;
                    // ACK exchange: dst transmits the ACK, sender receives it.
                    // The ACK is not modelled on the channel (it is 38 bytes
                    // after a SIFS and at the paper's load never collides);
                    // its energy is charged directly.
                    let ack_secs = self.cfg.mac.ack_airtime().as_secs_f64();
                    let dmeter = &mut self.hosts.meters[dst.index()];
                    let d_extra = (dmeter.profile().tx_w - dmeter.profile().idle_w) * ack_secs;
                    dmeter.drain_direct(now, d_extra);
                    if sender_alive {
                        let smeter = &mut self.hosts.meters[node.index()];
                        let s_extra = (smeter.profile().rx_w - smeter.profile().idle_w) * ack_secs;
                        smeter.drain_direct(now, s_extra);
                    }
                    let (src, msg) = (flight.src, &flight.msg);
                    let bytes = msg.wire_bytes();
                    self.emit(|| EventKind::MacRx {
                        node: dst,
                        from: src,
                        bytes,
                    });
                    self.dispatch(dst, |p, ctx| p.on_frame(ctx, src, FrameKind::Unicast(dst), msg));
                }
                if sender_alive {
                    self.hosts.macs[node.index()].phase = MacPhase::AwaitAck(tx_id);
                    let delay = if ok {
                        self.cfg.mac.sifs + self.cfg.mac.ack_airtime()
                    } else {
                        self.cfg.mac.ack_timeout()
                    };
                    let sh = self.shard_of_node(node);
                    self.sched.schedule_in(sh, delay, Event::AckDone { node, ok });
                }
            }
        }
        // recycle the scratch vectors for the next flight
        self.interferers = interferers;
        successes.clear();
        self.succ_buf = successes;
        let mut recv = flight.receivers;
        recv.clear();
        self.recv_pool.push(recv);
        self.channel.gc_tx_path(now);
    }

    fn ack_done(&mut self, node: NodeId, ok: bool) {
        if !self.touch(node) {
            return;
        }
        let i = node.index();
        if !matches!(self.hosts.macs[i].phase, MacPhase::AwaitAck(_)) {
            return; // stale
        }
        if ok {
            self.mac_complete_head(node);
            return;
        }
        // ACK missing: retry with exponential backoff, bounded
        self.hosts.macs[i].attempt += 1;
        if self.hosts.macs[i].attempt > self.cfg.mac.max_retries {
            self.stats.mac_drops += 1;
            let frame = self.hosts.macs[i].queue.pop_front().expect("head frame");
            if let FrameKind::Unicast(d) = frame.kind {
                self.emit(|| EventKind::MacDrop { node, dst: Some(d) });
            }
            self.hosts.macs[i].attempt = 0;
            self.hosts.macs[i].phase = MacPhase::Idle;
            if let FrameKind::Unicast(dst) = frame.kind {
                let msg = frame.msg;
                self.dispatch(node, move |p, ctx| p.on_unicast_failed(ctx, dst, &msg));
            }
            if self.hosts.sleep_pending[i] {
                self.node_sleep(node);
            }
            if self.hosts.meters[i].mode() != RadioMode::Sleep {
                self.mac_kick(node);
            }
        } else {
            self.stats.retransmissions += 1;
            let attempt = self.hosts.macs[i].attempt;
            self.emit(|| EventKind::MacRetry { node, attempt });
            let cw = self.cfg.mac.cw_for_attempt(attempt);
            let slots = self.hosts.rngs[i].gen_range(0..=cw);
            let delay = self.cfg.mac.difs + self.cfg.mac.backoff(slots);
            self.hosts.macs[i].phase = MacPhase::WaitTry;
            let sh = self.shard_of_node(node);
            self.sched.schedule_in(sh, delay, Event::MacTryTx { node });
        }
    }

    /// Head-of-queue frame finished (broadcast ended / unicast acked).
    fn mac_complete_head(&mut self, node: NodeId) {
        let i = node.index();
        let mac = &mut self.hosts.macs[i];
        mac.queue.pop_front();
        mac.attempt = 0;
        mac.phase = MacPhase::Idle;
        if self.hosts.sleep_pending[i] {
            // the protocol already decided to sleep; node_sleep applies it
            // if the queue has drained, or re-defers until it has
            self.node_sleep(node);
            if self.hosts.meters[i].mode() == RadioMode::Sleep {
                return;
            }
        }
        self.mac_kick(node);
    }

    // ----- timers, pages, mobility, traffic ---------------------------

    fn timer_fired(&mut self, node: NodeId, id: u64) {
        let Some((_, timer, _)) = self.timers.disarm(id) else {
            return; // cancelled concurrently (or wiped by a crash)
        };
        if !self.touch(node) {
            return;
        }
        self.stats.timers_fired += 1;
        self.dispatch(node, move |p, ctx| p.on_timer(ctx, timer));
    }

    fn page_arrives(&mut self, signal: PageSignal, origin: Point2) {
        let now = self.sched.now();
        let range = self.cfg.ras.range_m;
        // The paging scan is the engine's only remaining O(N)-per-event
        // loop: every host's meter advances (the page is a physical
        // instant — energy death timing must not depend on whether anyone
        // paged) and reachability is evaluated.  Threaded when engaged.
        let addressed = match self.parallel_probe_all(Some((&signal, origin, range))) {
            Some(addressed) => addressed,
            None => {
                let mut addressed = Vec::new();
                for j in 0..self.hosts.len() {
                    let jid = NodeId(j as u32);
                    if !self.touch(jid) {
                        continue;
                    }
                    let pj = self.hosts.pos_at(j, now);
                    if !origin.within_range(pj, range) {
                        continue;
                    }
                    if signal.addresses(jid, self.hosts.cells[j]) {
                        addressed.push(jid);
                    }
                }
                addressed
            }
        };
        for jid in addressed {
            // a crashed host's paging receiver is as dead as its radio
            if self.hosts.crashed[jid.index()] {
                continue;
            }
            // injected paging-channel loss
            if self.fault.page_lost(jid.0, now.as_nanos()) {
                self.stats.pages_lost_fault += 1;
                self.emit(|| EventKind::FaultInjected {
                    node: jid,
                    fault: FaultKind::PageLoss,
                });
                continue;
            }
            if self.hosts.meters[jid.index()].mode() == RadioMode::Sleep {
                self.set_mode(jid, RadioMode::Idle);
                self.stats.pages_woken += 1;
                self.mac_kick(jid);
            }
            self.dispatch(jid, move |p, ctx| p.on_page(ctx, signal));
        }
    }

    fn cell_crossing(&mut self, node: NodeId) {
        let now = self.sched.now();
        let i = node.index();
        // Schedule the next crossing regardless of death/sleep so the
        // bookkeeping chain never breaks while the node might still live.
        // Query from 1 µs ahead: a host sitting *exactly* on a boundary
        // would otherwise report a 0-delay crossing forever (at 10 m/s the
        // skipped distance is 10 µm — far below any physical relevance).
        let from = now + SimDuration::from_micros(1);
        if let Some((t, _)) = self.hosts.traces[i].next_cell_crossing(&self.cfg.grid, from) {
            let sh = self.shard_of_node(node);
            self.sched
                .schedule_at(sh, t.max(from), Event::CellCrossing { node });
        }
        if !self.touch(node) {
            return;
        }
        let old = self.hosts.cells[i];
        let new = self.cfg.grid.cell_of(self.hosts.pos_at(i, now));
        if new == old {
            return;
        }
        self.hosts.cells[i] = new;
        // one swap per bucket boundary crossed (one sideways, a row's
        // worth up or down), not a rescan of the old cell's occupants
        self.index.move_to(node.0, new.x, new.y);
        // shard ownership is a function of the maintained cell, so a
        // crossing into another strip is the whole migration: two counter
        // moves, no column shuffling
        if let Some(sr) = &mut self.shards {
            let os = sr.map.shard_of_col(old.x);
            let ns = sr.map.shard_of_col(new.x);
            if os != ns {
                sr.members[os] -= 1;
                sr.members[ns] += 1;
                sr.migrations += 1;
            }
        }
        self.stats.cell_crossings += 1;
        self.emit(|| EventKind::CellChange {
            node,
            from: old,
            to: new,
        });
        // sleeping hosts don't observe the crossing (their GPS snapshot is
        // read when their dwell timer wakes them, §3.2)
        if self.hosts.meters[i].mode() != RadioMode::Sleep {
            self.dispatch(node, move |p, ctx| p.on_cell_change(ctx, old, new));
        }
    }

    fn app_send(&mut self, flow_idx: usize, seq: u64) {
        let flow = self.flows.flows()[flow_idx];
        // schedule the next packet of this flow
        if let Some(t) = flow.packet_time(seq + 1) {
            let sh = match &self.shards {
                Some(sr) => sr.map.shard_of_col(self.hosts.cells[flow.src.index()].x),
                None => 0,
            };
            self.sched.schedule_at(
                sh,
                t,
                Event::AppSend {
                    flow_idx,
                    seq: seq + 1,
                },
            );
        }
        let src = flow.src;
        if !self.touch(src) {
            return; // a dead source issues nothing
        }
        if self.hosts.crashed[src.index()] {
            return; // nor does a crashed one (not even into the ledger)
        }
        let packet = AppPacket {
            flow: flow.id.0,
            seq,
            bytes: flow.packet_bytes,
        };
        let now = self.sched.now();
        self.ledger.record_sent(packet.key(), now);
        self.emit(|| EventKind::PacketSent {
            src,
            flow: packet.flow,
            seq,
        });
        let dst = flow.dst;
        self.dispatch(src, move |p, ctx| p.on_app_send(ctx, dst, packet));
    }

    fn sample(&mut self) {
        let now = self.sched.now();
        // integrate energy and process deaths — threaded when engaged,
        // with the commit replay matching this loop's ascending-id order
        if self.parallel_probe_all(None).is_none() {
            for i in 0..self.hosts.len() {
                let id = NodeId(i as u32);
                self.touch(id);
            }
        }
        let t = now.as_secs_f64();
        let alive = self.alive_fraction();
        let aen = self.aen();
        self.alive_series.push(t, alive);
        self.aen_series.push(t, aen);
        self.sched.schedule_in(0, self.cfg.sample_every, Event::Sample);
    }
}
