//! The simulation world: the event loop and its dispatch spine.  The
//! layers it drives each live in a module of their own (DESIGN.md §17):
//!
//! * `hosts` — the host columns, energy touches and deaths, radio modes,
//!   grid-cell crossings;
//! * `mac` — CSMA/CA: the interface queue, backoff, carrier sense, ACKs;
//! * `flight` — a frame on the air: receiver discovery, the frozen
//!   receiver set, reception at its end;
//! * `paging` — RAS pages;
//! * `faults` — injected crashes and drains, and each host's GPS error;
//! * `sample` — metric sampling and the energy rollups;
//! * `par` — the sharded and threaded engines, the only code that knows
//!   a shard exists.

mod faults;
mod flight;
mod hosts;
mod mac;
mod paging;
mod par;
mod sample;

pub use par::ShardStats;
pub use sample::GroupStats;

use crate::config::{HostSetup, WorldConfig};
use crate::ctx::{AppPacket, Cmd, Ctx, NodeView, TimerSlab};
use crate::progress::ProgressProbe;
use crate::protocol::Protocol;
use crate::stats::WorldStats;
use fault::FaultCtl;
use flight::Flight;
use geo::{GridMap, Point2, Vec2};
use hosts::Hosts;
use metrics::{PacketLedger, TimeSeries};
use par::Engine;
use radio::{auto_gather_threshold, CellIndex, GatherScratch, NodeId, PageSignal, Transmission};
use sim_engine::{BudgetExceeded, EventPool, RngFactory, SimTime};
use std::sync::Arc;
use trace::{Event as TraceEvent, EventKind, Recorder, TraceDigest, TraceMode};

#[derive(Debug)]
enum Event {
    /// The node's MAC attempts to put its head-of-queue frame on the air.
    MacTryTx { node: NodeId },
    /// `node`'s transmission leaves the air; deliver receptions.  `flight`
    /// is its slot in the world's flight slab, which also holds its id.
    TxEnd { node: NodeId, flight: u32 },
    /// The implicit ACK exchange for the node's last unicast concluded.
    AckDone { node: NodeId, ok: bool },
    /// Protocol timer `id` fires.
    Timer { node: NodeId, id: u64 },
    /// A RAS page transmitted from `origin` arrives at its addressees.
    /// Boxed: pages are rare, and their 28-byte payload inline would widen
    /// every pending event from 16 to 32 bytes.
    Page(Box<(PageSignal, Point2)>),
    /// `node`'s trajectory crosses a grid boundary.
    CellCrossing { node: NodeId },
    /// Flow `flow_idx` emits packet `seq`.
    AppSend { flow_idx: u32, seq: u64 },
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
            Event::Page(_) => "page",
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
    /// Scheduler and channel, on the serial or the sharded engine.
    engine: Engine,
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
        let (cells_x, cells_y) = (cfg.grid.cells_x(), cfg.grid.cells_y());
        assert!(
            cells_x.max(cells_y) <= GridMap::MAX_CELLS_PER_AXIS,
            "a {cells_x}x{cells_y}-cell grid is wider than {} cells on an axis",
            GridMap::MAX_CELLS_PER_AXIS
        );
        let rngs = RngFactory::new(cfg.seed);
        let n_hosts = hosts.len();
        // Heterogeneous fleets: the channel's geometry (bucket side,
        // mirror slack, reach radius) is sized from the LARGEST radio in
        // the fleet, so every per-transmission disc fits inside the 3x3
        // bucket query and every boundary mirror predicate.
        let max_range = hosts.iter().fold(0.0, |acc: f64, h| {
            let r = h.range_m;
            assert!(
                r.is_finite() && r > 0.0,
                "host radio range must be positive and finite, got {r}"
            );
            acc.max(r)
        });
        let reach_cells = (max_range / cfg.grid.cell_side()).ceil() as i32 + 1;
        let max_speed = hosts.iter().map(|h| h.trace.max_speed()).fold(0.0, f64::max);
        let fault = FaultCtl::new(cfg.faults, hosts.len());
        let mut soa = Hosts::with_capacity(n_hosts);
        for (i, h) in hosts.into_iter().enumerate() {
            let id = NodeId(i as u32);
            let cell = cfg.grid.cell_of(h.trace.position_at(SimTime::ZERO));
            soa.push(h, factory(id), cell, rngs.stream("node", i as u64));
        }
        // Buckets coincide with the paper's logical grid cells: the
        // per-node cell is already maintained by cell-crossing events, so
        // index maintenance rides them — and candidate sets are identical
        // to the historical per-cell occupancy lists.
        let index = CellIndex::new(cfg.grid.cells_x(), cfg.grid.cells_y(), &soa.cells);
        let engine = Engine::new(&cfg, max_range, &soa.cells);
        World {
            cfg,
            hosts: soa,
            engine,
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
            started: false,
            probe: None,
            budget_exceeded: None,
        }
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

    /// The world's CBR flows, in id order.
    pub fn flows(&self) -> &[traffic::CbrFlow] {
        self.flows.flows()
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
            let t = self.engine.sched.now();
            rec.record(TraceEvent { t, kind: make() });
        }
    }

    #[inline]
    pub fn now(&self) -> SimTime {
        self.engine.sched.now()
    }

    /// Immutable protocol access (tests, examples, result extraction).
    pub fn protocol(&self, id: NodeId) -> &P {
        &self.hosts.protos[id.index()]
    }

    pub fn stats(&self) -> &WorldStats {
        &self.stats
    }

    pub fn ledger(&self) -> &PacketLedger {
        &self.ledger
    }

    /// Run the simulation up to `end` (inclusive of events at `end` that
    /// were already pending).  Returns the collected output; the world can
    /// be inspected further through accessors afterwards.
    pub fn run_until(&mut self, end: SimTime) -> RunOutput {
        if !self.started {
            self.started = true;
            self.bootstrap();
        }
        self.engine
            .schedule_world_at(end.max(self.now()), Event::EndOfRun);
        // tripwire against zero-delay event cycles: no sane configuration
        // processes millions of events within one virtual nanosecond
        let mut last_t = SimTime::MAX;
        let mut same_t: u64 = 0;
        while let Some((t, ev)) = self.engine.sched.next() {
            if let Some(p) = &self.probe {
                p.record(self.engine.sched.processed(), t);
            }
            // watchdog: the budget is checked after the pop so the
            // diagnostic carries the time/count that actually crossed it;
            // the crossing event itself is not handled
            if let Err(exceeded) = self.engine.sched.check_budget() {
                self.budget_exceeded = Some(exceeded);
                break;
            }
            if let (Some(p), Event::Sample, Some(rec)) = (&self.probe, &ev, &self.recorder) {
                p.record_digest(rec.digest());
            }
            if t == last_t {
                same_t += 1;
                assert!(
                    same_t < 5_000_000,
                    "zero-delay event cycle at {t:?}: stuck on {ev:?} with {} pending",
                    self.engine.sched.pending()
                );
            } else {
                last_t = t;
                same_t = 0;
            }
            if let Some(rec) = &mut self.recorder {
                let depth = self.engine.sched.pending();
                let prof = rec.profile_mut();
                prof.bump(ev.domain());
                prof.observe_depth(depth);
            }
            self.engine.barrier(t);
            match ev {
                Event::EndOfRun => break,
                other => self.handle(other),
            }
        }
        // integrate everyone to the end instant for exact final energy —
        // a pure linear pass over the meter array (chunked when threaded)
        self.advance_all_meters(self.now());
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
        self.engine.schedule_world_at(SimTime::ZERO, Event::Sample);
        // first grid crossing per node
        for i in 0..self.hosts.len() {
            let node = NodeId(i as u32);
            if let Some((t, _)) = self.hosts.traces[i].next_cell_crossing(&self.cfg.grid, SimTime::ZERO) {
                self.schedule_at(node, t, Event::CellCrossing { node });
            }
        }
        // traffic (flow events live with the flow's source host)
        for idx in 0..self.flows.flows().len() {
            let f = self.flows.flows()[idx];
            if let Some(t) = f.packet_time(0) {
                self.schedule_at(
                    f.src,
                    t,
                    Event::AppSend {
                        flow_idx: u32::try_from(idx).expect("flow index exceeds u32"),
                        seq: 0,
                    },
                );
            }
        }
        self.seed_faults();
        // protocol start
        for i in 0..self.hosts.len() {
            self.dispatch(NodeId(i as u32), |p, ctx| p.on_start(ctx));
        }
    }

    // ----- event handling --------------------------------------------

    fn handle(&mut self, ev: Event) {
        match ev {
            Event::MacTryTx { node } => self.mac_try_tx(node),
            Event::TxEnd { node, flight } => self.tx_end(node, flight),
            Event::AckDone { node, ok } => self.ack_done(node, ok),
            Event::Timer { node, id } => self.timer_fired(node, id),
            Event::Page(page) => {
                let (signal, origin) = *page;
                self.page_arrives(signal, origin)
            }
            Event::CellCrossing { node } => self.cell_crossing(node),
            Event::AppSend { flow_idx, seq } => self.app_send(flow_idx, seq),
            Event::Sample => self.sample(),
            Event::FaultCrash { node, k } => self.fault_crash(node, k),
            Event::FaultRejoin { node, k } => self.fault_rejoin(node, k),
            Event::FaultDrain { node, k } => self.fault_drain(node, k),
            Event::EndOfRun => unreachable!("handled by run loop"),
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
        let now = self.now();
        let emitting = self.recorder.is_some();
        // GPS error: what the protocol *believes* its position is.  The
        // world's own bookkeeping (cells, channel geometry) keeps the true
        // position — only the receiver estimate is corrupted.
        let i = node.index();
        let gps_off = self.gps_error(node, now);
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
        let now = self.now();
        for cmd in cmds.drain(..) {
            match cmd {
                Cmd::Send { kind, msg } => self.mac_enqueue(node, kind, msg),
                Cmd::Sleep => self.node_sleep(node),
                Cmd::Wake => self.node_wake(node),
                Cmd::PageHost(id) => self.send_page(node, PageSignal::Host(id)),
                Cmd::PageGrid(cell) => self.send_page(node, PageSignal::Grid(cell)),
                Cmd::SetTimer { id, delay, timer } => {
                    let handle = self.schedule_in(node, delay, Event::Timer { node, id: id.0 });
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

    fn app_send(&mut self, flow_idx: u32, seq: u64) {
        let flow = self.flows.flows()[flow_idx as usize];
        // schedule the next packet of this flow
        if let Some(t) = flow.packet_time(seq + 1) {
            let next = Event::AppSend {
                flow_idx,
                seq: seq + 1,
            };
            self.schedule_at(flow.src, t, next);
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
        let now = self.now();
        self.ledger.record_sent(packet.key(), now);
        self.emit(|| EventKind::PacketSent {
            src,
            flow: packet.flow,
            seq,
        });
        let dst = flow.dst;
        self.dispatch(src, move |p, ctx| p.on_app_send(ctx, dst, packet));
    }
}

#[cfg(test)]
mod tests {
    use super::Event;
    use sim_engine::EventPool;
    use std::mem::size_of;

    #[test]
    fn a_pending_event_takes_16_bytes_and_its_pool_slot_24() {
        // a world reserves a slot per pending event up front (4 per host
        // plus 64), so these bytes are paid per host whether used or not
        assert_eq!(size_of::<Event>(), 16);
        assert_eq!(EventPool::<Event>::SLOT_BYTES, 24);
    }
}
