//! Host state: the struct-of-arrays columns, energy touches and deaths,
//! radio modes, and grid-cell crossings.

use super::mac::{Mac, MacPhase};
use super::{Event, World};
use crate::config::HostSetup;
use crate::protocol::Protocol;
use energy::{EnergyLevel, EnergyMeter, RadioMode};
use geo::{GridCoord, Point2};
use mobility::{LegCursor, MobilityTrace};
use radio::NodeId;
use rand::rngs::StdRng;
use sim_engine::{SimDuration, SimTime};
use trace::EventKind;

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
pub(super) struct Hosts<P: Protocol> {
    pub(super) protos: Vec<P>,
    pub(super) meters: Vec<EnergyMeter>,
    pub(super) traces: Vec<MobilityTrace>,
    /// Each host's current trajectory leg, inline: the gather, reception
    /// and paging loops read positions from here instead of chasing
    /// `traces[j]` → segment vector → segment and bisecting per query.
    pub(super) legs: Vec<LegCursor>,
    /// Maintained grid cell (bucket coordinate) per host.
    pub(super) cells: Vec<GridCoord>,
    pub(super) rngs: Vec<StdRng>,
    /// Battery level class as last observed by the trace layer (detects
    /// class-boundary crossings in `touch`).
    pub(super) last_levels: Vec<EnergyLevel>,
    pub(super) macs: Vec<Mac<P::Msg>>,
    /// Number of concurrent receptions in progress (radio in Rx while > 0).
    pub(super) rx_refs: Vec<u32>,
    /// The protocol asked to sleep while the MAC was mid-exchange; applied
    /// as soon as the exchange concludes.
    pub(super) sleep_pending: Vec<bool>,
    pub(super) dead_handled: Vec<bool>,
    /// Crashed by the fault plan: silent (radio down, protocol frozen)
    /// until the scheduled rejoin reboots it with fresh protocol state.
    pub(super) crashed: Vec<bool>,
    /// Per-host radio range in meters (`HostSetup::range_m`; the channel
    /// is sized from the largest).
    pub(super) ranges: Vec<f64>,
    /// Per-host bound of the uniform GPS offset radius in meters
    /// (`HostSetup::gps_sigma_m`; 0 = exact positions, no draws).
    pub(super) gps_sigmas: Vec<f64>,
    /// Scenario group index per host (0 outside scenario runs).
    pub(super) groups: Vec<u16>,
}

impl<P: Protocol> Hosts<P> {
    pub(super) fn with_capacity(n: usize) -> Self {
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

    /// Add the host `h` describes, running `proto` from `cell`.
    pub(super) fn push(&mut self, h: HostSetup, proto: P, cell: GridCoord, rng: StdRng) {
        let meter = EnergyMeter::new(h.profile, h.battery);
        self.last_levels.push(meter.level());
        self.protos.push(proto);
        self.meters.push(meter);
        self.legs.push(LegCursor::new(&h.trace));
        self.traces.push(h.trace);
        self.cells.push(cell);
        self.rngs.push(rng);
        self.macs.push(Mac::default());
        self.rx_refs.push(0);
        self.sleep_pending.push(false);
        self.dead_handled.push(false);
        self.crashed.push(false);
        self.ranges.push(h.range_m);
        self.gps_sigmas.push(h.gps_sigma_m);
        self.groups.push(h.group);
    }

    #[inline]
    pub(super) fn len(&self) -> usize {
        self.meters.len()
    }

    /// `traces[i].position_at(t)`, bit for bit, through the cached leg.
    #[inline]
    pub(super) fn pos_at(&mut self, i: usize, t: SimTime) -> Point2 {
        self.legs[i].position_at(&self.traces[i], t)
    }
}

impl<P: Protocol> World<P> {
    #[inline]
    pub fn node_count(&self) -> usize {
        self.hosts.len()
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

    /// Advance a node's meter to now, processing death if it occurred.
    /// Returns true if the node is (still) alive.
    ///
    /// The fast half: receiver discovery touches each candidate in reach,
    /// so this runs once per candidate per transmission.  It returns
    /// straight after the advance when nothing is left to commit — the
    /// host is alive or its death is already handled, and under tracing
    /// its level class is unchanged — and leaves everything else to
    /// [`World::commit_probe`], which stays out of line so that this half
    /// stays small enough to inline.
    #[inline]
    pub(super) fn touch(&mut self, node: NodeId) -> bool {
        let now = self.now();
        let i = node.index();
        let meter = &mut self.hosts.meters[i];
        meter.advance(now);
        let alive = meter.is_alive();
        // battery level-class boundary crossings only need detecting when a
        // recorder is attached (level() divides)
        let level = self.recorder.is_some().then(|| meter.level());
        if level.is_none_or(|l| l == self.hosts.last_levels[i]) && (alive || self.hosts.dead_handled[i]) {
            return alive;
        }
        self.commit_probe(node, level, alive)
    }

    /// The commit half of [`World::touch`], out of line: level-class
    /// change detection, death bookkeeping, and the associated emissions.
    /// `touch` calls it only when one of those may be due; with nothing
    /// due it commits nothing.  The threaded kernels run the advance in
    /// parallel, then replay this commit serially in ascending-id order —
    /// the exact order the serial loops produce — so both paths share one
    /// implementation.
    #[inline(never)]
    pub(super) fn commit_probe(&mut self, node: NodeId, level: Option<EnergyLevel>, alive: bool) -> bool {
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
            self.engine.host_died(self.hosts.cells[i]);
        }
        if let Some((from, to)) = level_change {
            self.emit(|| EventKind::BatteryLevel { node, from, to });
        }
        if newly_dead {
            self.emit(|| EventKind::NodeDeath { node });
        }
        alive
    }

    pub(super) fn set_mode(&mut self, node: NodeId, mode: RadioMode) {
        let now = self.now();
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

    pub(super) fn node_sleep(&mut self, node: NodeId) {
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

    pub(super) fn node_wake(&mut self, node: NodeId) {
        if !self.touch(node) {
            return;
        }
        self.hosts.sleep_pending[node.index()] = false;
        if self.hosts.meters[node.index()].mode() == RadioMode::Sleep {
            self.set_mode(node, RadioMode::Idle);
        }
        self.mac_kick(node);
    }

    pub(super) fn cell_crossing(&mut self, node: NodeId) {
        let now = self.now();
        let i = node.index();
        // Schedule the next crossing regardless of death/sleep so the
        // bookkeeping chain never breaks while the node might still live.
        // Query from 1 µs ahead: a host sitting *exactly* on a boundary
        // would otherwise report a 0-delay crossing forever (at 10 m/s the
        // skipped distance is 10 µm — far below any physical relevance).
        let from = now + SimDuration::from_micros(1);
        if let Some((t, _)) = self.hosts.traces[i].next_cell_crossing(&self.cfg.grid, from) {
            self.schedule_at(node, t.max(from), Event::CellCrossing { node });
        }
        if !self.touch(node) {
            return;
        }
        let old = self.hosts.cells[i];
        let new = self.cfg.grid.cell_of(self.hosts.pos_at(i, now));
        if new == old {
            self.stats.cell_crossings_unchanged += 1;
            return;
        }
        self.hosts.cells[i] = new;
        // one swap per bucket boundary crossed (one sideways, a row's
        // worth up or down), not a rescan of the old cell's occupants
        self.index.move_to(node.0, new.x, new.y);
        self.engine.host_moved(old, new);
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
}
