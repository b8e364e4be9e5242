//! The sharded and threaded engines: everything only they need, and the
//! only code in the world that knows a shard exists.  The layers schedule
//! and sense the channel by node ([`World::schedule_at`],
//! [`World::busy_until`]); this module files each call with the shard
//! that owns the node, or ignores the node on the serial engine.  Neither
//! engine changes a digest (`tests/parallel_equivalence.rs`).

use super::flight::Flight;
use super::{Event, World};
use crate::config::WorldConfig;
use crate::protocol::Protocol;
use energy::{EnergyLevel, EnergyMeter, RadioMode};
use geo::{GridCoord, Point2};
use mobility::MobilityTrace;
use radio::{mac, ChannelState, NodeId, PageSignal, ShardMap, ShardedChannel, Transmission};
use sim_engine::{
    chunk_count, BudgetExceeded, EventHandle, Mailbox, Scheduler, ShardedScheduler, SimDuration, SimTime,
    SlicePtr, WorkerPool,
};

/// Epoch-barrier maintenance cadence of the sharded engine (sim time):
/// per-shard channel gc runs when the merged clock crosses this stride,
/// instead of twice per transmission like the serial channel — one pass
/// over K shard channels per stride rather than per frame.  Retaining
/// ended transmissions longer is invisible to results — carrier-sense and
/// collision checks filter candidates by time — so the cadence is purely
/// a scan-length trade: 12.5 ms is a few paper data-frame airtimes, so a
/// shard holds at most a few strides' worth of ended frames.
const SHARD_GC_STRIDE: SimDuration = SimDuration(12_500_000);

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
/// for *notable* hosts (battery class changed, died, or hit: page-addressed
/// or a frozen receiver); unremarkable hosts need no serial commit at all,
/// exactly as their serial `touch` would have been observably inert.
#[derive(Clone, Copy)]
struct ProbeMsg {
    node: u32,
    /// `Some` iff a recorder is attached (mirrors `touch`'s level gate).
    level: Option<EnergyLevel>,
    alive: bool,
    /// Alive and selected by the kernel's hit predicate.
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

/// `match` over both arms of an engine enum with one body.
macro_rules! either {
    ($e:expr, $ty:ident, $x:ident => $body:expr) => {
        match $e {
            $ty::Serial($x) => $body,
            $ty::Sharded($x) => $body,
        }
    };
}

/// The event engine behind the world: the historical serial scheduler, or
/// the sharded conservative-sync engine (`WorldConfig::parallel_world`).
/// Dispatch order is identical either way — the sharded merge pops in
/// global `(time, queue_seq, shard_id)` order, which `sim_engine::shard`
/// proves equal to the single queue's `(time, seq)` order — so every
/// handler, RNG draw, and trace emission replays bit-for-bit.
pub(super) enum WorldSched {
    Serial(Scheduler<Event>),
    Sharded(ShardedScheduler<Event>),
}

impl WorldSched {
    #[inline]
    pub(super) fn now(&self) -> SimTime {
        either!(self, WorldSched, s => s.now())
    }

    #[inline]
    pub(super) fn processed(&self) -> u64 {
        either!(self, WorldSched, s => s.processed())
    }

    #[inline]
    pub(super) fn pending(&self) -> usize {
        either!(self, WorldSched, s => s.pending())
    }

    #[inline]
    pub(super) fn check_budget(&self) -> Result<(), BudgetExceeded> {
        either!(self, WorldSched, s => s.check_budget())
    }

    #[inline]
    pub(super) fn cancel(&mut self, h: EventHandle) {
        either!(self, WorldSched, s => s.cancel(h))
    }

    #[inline]
    pub(super) fn next(&mut self) -> Option<(SimTime, Event)> {
        either!(self, WorldSched, s => s.next())
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
}

/// The channel behind the world: one global in-flight set (serial), or
/// per-shard sets with boundary mirrors (the sharded engine).
pub(super) enum WorldChannel {
    Serial(ChannelState),
    Sharded(ShardedChannel),
}

impl WorldChannel {
    /// The strip partition of the sharded channel.
    #[inline]
    fn map(&self) -> Option<&ShardMap> {
        match self {
            WorldChannel::Serial(_) => None,
            WorldChannel::Sharded(c) => Some(c.map()),
        }
    }

    /// The transmissions that can corrupt a reception of `flight`, the
    /// channel's transmission `tx_id`, within `reach` meters of its sender
    /// (see [`ChannelState::interferers_into`]).
    #[inline]
    pub(super) fn interferers_into<M>(
        &self,
        tx_id: u64,
        flight: &Flight<M>,
        reach: f64,
        out: &mut Vec<Transmission>,
    ) {
        let (origin, start, end) = (flight.origin, flight.start, flight.end);
        either!(self, WorldChannel, c => c.interferers_into(tx_id, origin, reach, start, end, out))
    }

    /// Per-receiver collision verdict against a flight's interferer list.
    #[inline]
    pub(super) fn corrupted_by(
        &self,
        interferers: &[Transmission],
        src_origin: Point2,
        receiver: Point2,
    ) -> bool {
        either!(self, WorldChannel, c => c.corrupted_by(interferers, src_origin, receiver))
    }

    /// The serial channel's per-transmission gc at `now` (the channel
    /// decides what it still needs, [`ChannelState::gc_at`]).  The sharded
    /// channel skips it — its K shard channels are pruned together at
    /// epoch barriers instead.  Either timing is invisible to query
    /// results: both `busy_until` and the interferer list filter
    /// candidates by time, so entries retained longer never change an
    /// answer.
    #[inline]
    pub(super) fn gc_tx_path(&mut self, now: SimTime) {
        if let WorldChannel::Serial(c) = self {
            c.gc_at(now);
        }
    }
}

/// Shard bookkeeping of a parallel world: its counters, the barrier
/// cadence, and the threaded kernels.  Ownership of a host is a
/// *function* of its maintained grid cell (`ShardMap::shard_of_col`, the
/// channel's strip partition) plus the membership counts — the SoA
/// columns stay dense and id-indexed, because every hot loop (receiver
/// gather, energy folds) iterates them in ascending-id order, and
/// physically splitting the columns per shard would force a K-way merge
/// on exactly those loops.  Migration between shards is therefore O(1):
/// a counter move when a cell-crossing event lands in a different strip.
struct ShardRuntime {
    /// Membership, migration and barrier counters (`mirrored_tx` is the
    /// channel's and read from it when reported).
    stats: ShardStats,
    /// Conservative lookahead bounding an epoch: the smallest interval
    /// the MAC or RAS can react across (min of SIFS, slot, DIFS, and the
    /// RAS wake latency).  Barrier maintenance runs every
    /// `max(lookahead, SHARD_GC_STRIDE)` of virtual time.
    stride: SimDuration,
    next_gc: SimTime,
    /// The threaded engine (`threads > 1`); `None` runs every host-plane
    /// kernel inline.
    kernels: Option<Kernels>,
}

/// The worker pool of the threaded engine and the probe kernel's mailbox.
struct Kernels {
    pool: WorkerPool,
    /// Barrier mailbox of the probe kernel: phase 1 posts notable hosts
    /// into chunk-owned lanes, the commit phase drains them in lane
    /// order — which is ascending-id order, the serial loops' order.
    probe_mail: Mailbox<ProbeMsg>,
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

/// The scheduler and channel a world runs on, and the sharded engine's
/// runtime when it runs on that one.
pub(super) struct Engine {
    pub(super) sched: WorldSched,
    pub(super) channel: WorldChannel,
    /// `Some` iff running the sharded conservative-sync engine.
    shards: Option<ShardRuntime>,
}

impl Engine {
    /// The engine `cfg` names, for hosts whose initial cells are `cells`
    /// and whose largest radio reaches `max_range` meters.
    pub(super) fn new(cfg: &WorldConfig, max_range: f64, cells: &[GridCoord]) -> Engine {
        // (a zero shard count is refused by `ShardMap::new`)
        assert!(
            !cfg.parallel_world || cfg.threads > 0,
            "the sharded engine needs at least one worker lane"
        );
        // Pre-size the event slab to the measured shape of paper-scale
        // runs: SchedProfile high-water marks sit near 2 pending events
        // per host (cell crossing + one MAC/timer each) plus flow and
        // bookkeeping heads.  4n + 64 covers every profiled scenario with
        // slack; the slab still grows on demand if a run out-paces it.
        // (The sharded engine reserves that much *per shard* — any one
        // shard can transiently hold most of the pending set.)
        let reserve = 4 * cells.len() + 64;
        // Carrier-sense and interference queries scan the channel's
        // occupied entries: retention is bounded by the longest airtime,
        // so a bucket index over them measured neutral (DESIGN.md §10).
        let mut engine = if cfg.parallel_world {
            Engine::sharded(cfg, max_range, cells)
        } else {
            Engine {
                sched: WorldSched::Serial(Scheduler::with_backend(cfg.backend)),
                channel: WorldChannel::Serial(ChannelState::new(max_range)),
                shards: None,
            }
        };
        either!(&mut engine.sched, WorldSched, s => {
            s.set_budget(cfg.budget);
            s.reserve_events(reserve);
        });
        either!(&mut engine.channel, WorldChannel, c => c.set_capture_ratio(cfg.capture_ratio));
        engine
    }

    /// The sharded half of [`Engine::new`].
    fn sharded(cfg: &WorldConfig, max_range: f64, cells: &[GridCoord]) -> Engine {
        let map = ShardMap::new(
            cfg.grid.cells_x().max(1) as usize,
            cfg.grid.cell_side(),
            cfg.grid.width(),
            cfg.shards,
        );
        let mut members = vec![0u32; map.shard_count()];
        for c in cells {
            members[map.shard_of_col(c.x)] += 1;
        }
        let lookahead = mac::SIFS.min(mac::SLOT).min(mac::DIFS).min(cfg.wake_latency);
        let stride = lookahead.max(SHARD_GC_STRIDE);
        let kernels = (cfg.threads > 1).then(|| Kernels {
            pool: WorkerPool::new(cfg.threads),
            probe_mail: Mailbox::new(),
        });
        let stats = ShardStats {
            shards: map.shard_count(),
            members,
            migrations: 0,
            barriers: 0,
            mirrored_tx: 0,
        };
        Engine {
            // The backend knob is inert here: shard queues are binary
            // heaps keyed (time, global_seq).  Dispatch order is the same
            // contract either backend honors, so nothing observable
            // depends on the difference.
            sched: WorldSched::Sharded(ShardedScheduler::new(cfg.shards)),
            channel: WorldChannel::Sharded(ShardedChannel::new(max_range, map)),
            shards: Some(ShardRuntime {
                stats,
                stride,
                next_gc: SimTime::ZERO + stride,
                kernels,
            }),
        }
    }

    /// File an event of the world's own (a sample tick, the end of the
    /// run), which concerns no node, at `at`.
    pub(super) fn schedule_world_at(&mut self, at: SimTime, ev: Event) {
        self.sched.schedule_at(0, at, ev);
    }

    /// Epoch barrier of the sharded engine: when the merged clock crosses
    /// the stride, prune every shard channel of entries no query can
    /// admit any more.  Timing of the prune is invisible to results
    /// (queries filter by time).
    #[inline]
    pub(super) fn barrier(&mut self, t: SimTime) {
        if let (Some(sr), WorldChannel::Sharded(ch)) = (&mut self.shards, &mut self.channel) {
            if t >= sr.next_gc {
                ch.gc_at(t);
                sr.stats.barriers += 1;
                sr.next_gc = t + sr.stride;
            }
        }
    }

    /// A host at `cell` died: its shard owns one live host fewer.
    pub(super) fn host_died(&mut self, cell: GridCoord) {
        if let (Some(sr), Some(map)) = (&mut self.shards, self.channel.map()) {
            sr.stats.members[map.shard_of_col(cell.x)] -= 1;
        }
    }

    /// A host crossed from cell `old` to `new`.  Shard ownership is a
    /// function of the maintained cell, so a crossing into another strip
    /// is the whole migration: two counter moves, no column shuffling.
    pub(super) fn host_moved(&mut self, old: GridCoord, new: GridCoord) {
        if let (Some(sr), Some(map)) = (&mut self.shards, self.channel.map()) {
            let (os, ns) = (map.shard_of_col(old.x), map.shard_of_col(new.x));
            if os != ns {
                sr.stats.members[os] -= 1;
                sr.stats.members[ns] += 1;
                sr.stats.migrations += 1;
            }
        }
    }

    /// The threaded kernels, if they engage on a loop over `n` items.
    #[inline]
    fn kernels(&mut self, n: usize) -> Option<&mut Kernels> {
        self.shards
            .as_mut()?
            .kernels
            .as_mut()
            .filter(|_| n >= PAR_MIN_ITEMS)
    }
}

impl<P: Protocol> World<P> {
    /// Lifetime counters of the scheduler's event slab (see
    /// [`sim_engine::EventPool`]).  On the sharded engine these are
    /// aggregated across shards — summed books plus the *global* live
    /// high-water mark — so invariants like "allocated = freed + live"
    /// and "high water = profile queue depth + 1" hold in both modes
    /// (pinned by `crates/manet/tests/event_pool.rs`).
    pub fn event_pool_stats(&self) -> sim_engine::PoolStats {
        either!(&self.engine.sched, WorldSched, s => s.pool_stats())
    }

    /// Shard and migration counters of a parallel world; `None` on the
    /// serial engine.
    pub fn shard_stats(&self) -> Option<ShardStats> {
        let (Some(sr), WorldChannel::Sharded(ch)) = (&self.engine.shards, &self.engine.channel) else {
            return None;
        };
        let mirrored_tx = ch.mirrored();
        Some(ShardStats {
            mirrored_tx,
            ..sr.stats.clone()
        })
    }

    /// The shard whose strip owns `node`'s maintained grid cell (always 0
    /// on the serial engine).  Every event concerning a node is filed in
    /// its owning shard's queue; which shard that is never affects
    /// dispatch order (the merge key is global), only storage locality.
    fn shard_of(&self, node: NodeId) -> usize {
        let map = self.engine.channel.map();
        map.map_or(0, |m| m.shard_of_col(self.hosts.cells[node.index()].x))
    }

    /// Schedule `ev`, which concerns `node`, at `at`.
    pub(super) fn schedule_at(&mut self, node: NodeId, at: SimTime, ev: Event) -> EventHandle {
        let shard = self.shard_of(node);
        self.engine.sched.schedule_at(shard, at, ev)
    }

    /// Schedule `ev`, which concerns `node`, after `delay`.
    pub(super) fn schedule_in(&mut self, node: NodeId, delay: SimDuration, ev: Event) -> EventHandle {
        let shard = self.shard_of(node);
        self.engine.sched.schedule_in(shard, delay, ev)
    }

    /// Carrier sense for `node` at `p`: when the medium it hears frees,
    /// or `None` when it is idle.
    pub(super) fn busy_until(&self, node: NodeId, p: Point2, at: SimTime) -> Option<SimTime> {
        match &self.engine.channel {
            WorldChannel::Serial(c) => c.busy_until(p, at),
            WorldChannel::Sharded(c) => c.busy_until(self.shard_of(node), p, at),
        }
    }

    /// Put `node`'s frame on the air from `origin` over `[start, end)`;
    /// returns its transmission id.
    pub(super) fn begin_tx(
        &mut self,
        node: NodeId,
        origin: Point2,
        range: f64,
        start: SimTime,
        end: SimTime,
    ) -> u64 {
        let shard = self.shard_of(node);
        match &mut self.engine.channel {
            WorldChannel::Serial(c) => c.begin_tx(node, origin, range, start, end),
            WorldChannel::Sharded(c) => c.begin_tx(shard, node, origin, range, start, end),
        }
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
    // thread count.  See DESIGN.md §14.  Each kernel returns without
    // touching anything when it does not engage, and its caller runs the
    // serial loop instead.

    /// One probe kernel over `n` hosts, the `c`-th being `host(c)` (`None`
    /// skips it untouched).  Phase 1 advances each host's meter and posts
    /// it to the barrier mailbox if it is notable: its battery class
    /// changed, it died, or it is alive and `hit`.  Phase 2 commits the
    /// posted hosts in lane order (ascending `c`, the serial loop's order)
    /// and pushes the hit ones onto `hits`; a host posted only for its hit
    /// commits nothing, as its serial `touch` would have been inert.
    fn probe_kernel(
        &mut self,
        n: usize,
        host: impl Fn(usize) -> Option<usize> + Sync,
        hit: impl Fn(usize, &EnergyMeter, &[MobilityTrace], &[GridCoord]) -> bool + Sync,
        hits: &mut Vec<NodeId>,
    ) -> bool {
        let now = self.now();
        let tracing = self.recorder.is_some();
        let Some(k) = self.engine.kernels(n) else {
            return false;
        };
        let grain = par_grain(n, k.pool.threads());
        k.probe_mail.ensure_lanes(chunk_count(n, grain));
        let split = k.probe_mail.split();
        let meters = SlicePtr::new(&mut self.hosts.meters);
        let (traces, cells) = (&self.hosts.traces, &self.hosts.cells);
        let (last_levels, dead_handled) = (&self.hosts.last_levels, &self.hosts.dead_handled);
        k.pool.for_each_range(n, grain, &|chunk, range| {
            // SAFETY: the pool hands each chunk index to one caller, and the
            // mailbox outlives the section, which joins before returning.
            let mut lane = unsafe { split.writer(chunk) };
            for c in range {
                let Some(j) = host(c) else { continue };
                // SAFETY: `host` yields each id at most once (`0..n`, or a
                // candidate list of unique ids), every id is a host, and
                // the meters column outlives the section.
                let m = unsafe { meters.get_mut(j) };
                m.advance(now);
                let level = if tracing { Some(m.level()) } else { None };
                let alive = m.is_alive();
                let hit = alive && hit(j, m, traces, cells);
                if hit || level.is_some_and(|l| l != last_levels[j]) || (!alive && !dead_handled[j]) {
                    let node = j as u32;
                    lane.post(
                        now,
                        ProbeMsg {
                            node,
                            level,
                            alive,
                            hit,
                        },
                    );
                }
            }
        });
        // (drained first: a commit needs `&mut self`)
        let mut msgs = Vec::new();
        k.probe_mail.drain(now, |_, m| msgs.push(m));
        for m in msgs {
            self.commit_probe(NodeId(m.node), m.level, m.alive);
            if m.hit {
                hits.push(NodeId(m.node));
            }
        }
        true
    }

    /// Threaded touch of every host (a sample tick) or, with `page` set,
    /// the paging scan: every host's touch, and the alive ones inside
    /// paging range that the signal addresses pushed onto `addressed`.
    pub(super) fn parallel_probe_all(
        &mut self,
        page: Option<(PageSignal, Point2, f64)>,
        addressed: &mut Vec<NodeId>,
    ) -> bool {
        let now = self.now();
        let hit = |i: usize, _: &EnergyMeter, traces: &[MobilityTrace], cells: &[GridCoord]| {
            page.is_some_and(|(signal, origin, range)| {
                origin.within_range(traces[i].position_at(now), range)
                    && signal.addresses(NodeId(i as u32), cells[i])
            })
        };
        self.probe_kernel(self.hosts.len(), Some, hit, addressed)
    }

    /// Final energy integration of every host (no commits: the serial
    /// path is a bare `advance` loop too), chunked when threaded.
    pub(super) fn advance_all_meters(&mut self, now: SimTime) {
        let n = self.hosts.len();
        if let Some(k) = self.engine.kernels(n) {
            let meters = SlicePtr::new(&mut self.hosts.meters);
            k.pool
                .for_each_range(n, par_grain(n, k.pool.threads()), &|_chunk, range| {
                    // SAFETY: chunk ranges are disjoint and inside `0..n`,
                    // and the column outlives the section.
                    for m in unsafe { meters.slice(range) } {
                        m.advance(now);
                    }
                });
            return;
        }
        for m in &mut self.hosts.meters {
            m.advance(now);
        }
    }

    /// Threaded receiver freeze of a transmission `node` starts at `pos`
    /// with `range`: candidates are unique ascending ids, so
    /// candidate-chunks touch disjoint hosts, and the sender is skipped
    /// before it is touched, as in the serial loop.
    pub(super) fn parallel_freeze(
        &mut self,
        node: NodeId,
        pos: Point2,
        range: f64,
        cand: &[u32],
        receivers: &mut Vec<NodeId>,
    ) -> bool {
        let now = self.now();
        let host = |c: usize| Some(cand[c] as usize).filter(|&j| j != node.index());
        let hit = |j: usize, m: &EnergyMeter, traces: &[MobilityTrace], _: &[GridCoord]| {
            matches!(m.mode(), RadioMode::Idle | RadioMode::Rx)
                && pos.within_range(traces[j].position_at(now), range)
        };
        self.probe_kernel(cand.len(), host, hit, receivers)
    }

    /// Threaded receiver evaluation at the end of `flight` (`tx_end`):
    /// phase 1 advances each frozen receiver's meter and precomputes its
    /// pure collision verdict (receivers are unique ids, so chunks touch
    /// disjoint hosts; `corrupted_by` is a read-only channel query).
    /// Phase 2 runs the serial loop's per-receiver commit in order off
    /// the dense slots, pushing each receiver that got the frame onto
    /// `successes`.
    pub(super) fn parallel_receive(
        &mut self,
        flight: &Flight<P::Msg>,
        tx_id: u64,
        interferers: &[Transmission],
        sender_alive: bool,
        successes: &mut Vec<NodeId>,
    ) -> bool {
        let nr = flight.receivers.len();
        let now = self.now();
        let tracing = self.recorder.is_some();
        // (not `Engine::kernels`, which borrows the channel mutably too)
        let channel = &self.engine.channel;
        let kernels = self.engine.shards.as_ref().and_then(|sr| sr.kernels.as_ref());
        let Some(k) = kernels.filter(|_| nr >= PAR_MIN_ITEMS) else {
            return false;
        };
        let mut slots = vec![TxProbe::default(); nr];
        let out = SlicePtr::new(&mut slots);
        let meters = SlicePtr::new(&mut self.hosts.meters);
        let traces = &self.hosts.traces;
        let (recvs, src_pos) = (&flight.receivers, flight.origin);
        k.pool
            .for_each_range(nr, par_grain(nr, k.pool.threads()), &|_chunk, range| {
                // SAFETY: chunk ranges are disjoint and inside `0..nr`, the
                // slots' length, and the slots outlive the section.
                let out = unsafe { out.slice(range.clone()) };
                for (off, c) in range.enumerate() {
                    let j = recvs[c].index();
                    // SAFETY: a flight's receivers are unique host ids, and
                    // the meters column outlives the section.
                    let m = unsafe { meters.get_mut(j) };
                    m.advance(now);
                    out[off] = TxProbe {
                        level: if tracing { Some(m.level()) } else { None },
                        alive: m.is_alive(),
                        corrupt: channel.corrupted_by(interferers, src_pos, traces[j].position_at(now)),
                    };
                }
            });
        for (&r, s) in flight.receivers.iter().zip(&slots) {
            let alive = self.commit_probe(r, s.level, s.alive);
            if self.commit_reception(r, alive, sender_alive, flight.src, tx_id, |_| s.corrupt) {
                successes.push(r);
            }
        }
        true
    }
}
