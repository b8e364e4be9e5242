//! The GAF duty-cycle state machine over an embedded AODV core.

use aodv::{AodvCore, AodvHost, AodvMsg, AodvTimer};
use manet::{AppPacket, Ctx, FrameKind, GatewayTenure, GridCoord, NodeId, Protocol, WireSize};
use rand::Rng;

// GAF constants (times in seconds).

/// Discovery dwell for freshly-woken contenders: uniform in
/// `[0.1, 0.1 + DISCOVERY_MAX)`.
pub const DISCOVERY_MAX: f64 = 0.4;
/// Discovery dwell for a node that just *finished* an active term:
/// uniform in `[HANDOFF_GRACE, HANDOFF_GRACE + DISCOVERY_MAX)`, so a
/// fresher waker claims the duty first and the drained ex-incumbent goes
/// to sleep (GAF's load-balancing rotation).
pub const HANDOFF_GRACE: f64 = 0.8;
/// Active-state duration T_a (the GAF paper's "enat").
pub const ACTIVE_TIME: f64 = 120.0;
/// Discovery-message beacon period while active.
pub const BEACON_INTERVAL: f64 = 1.0;
/// Sleep duration as a fraction range of the active node's *announced
/// remaining term*.  Waking slightly early makes the sleeper converge
/// geometrically onto the term boundary (each early wake re-sleeps for
/// the same fraction of the shrinking remainder), so it is awake and
/// holding a fuller battery exactly when the incumbent stands down.
pub const SLEEP_FRAC_LO: f64 = 0.9;
pub const SLEEP_FRAC_HI: f64 = 1.0;

/// GAF node state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GafState {
    /// Radio on, negotiating who stays awake.
    Discovery,
    /// The grid's designated router.
    Active,
    /// Radio off until the sleep timer expires.
    Sleeping,
    /// Model-1 endpoint: always on, never negotiates, never forwards.
    Endpoint,
}

/// Discovery message contents.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DiscInfo {
    pub id: NodeId,
    pub grid: GridCoord,
    pub active: bool,
    /// Seconds of active duty remaining (0 while in discovery).
    pub remaining_active: f64,
    /// Remaining battery energy, joules (the lifetime rank).
    pub energy_j: f64,
}

/// Energy difference below which two discovery-state nodes count as
/// equally ranked (avoids thrash between near-equal contenders).
const ENERGY_HYSTERESIS_J: f64 = 2.0;

impl DiscInfo {
    /// True if `self` outranks `other` for staying awake.
    ///
    /// An active node holds its duty for the whole announced term (GAF's
    /// state ranking); among discovery-state contenders, longer expected
    /// lifetime — more remaining energy — wins, which is what rotates duty
    /// at each term boundary.
    pub fn outranks(&self, other: &DiscInfo) -> bool {
        if self.active != other.active {
            return self.active;
        }
        if (self.energy_j - other.energy_j).abs() > ENERGY_HYSTERESIS_J {
            return self.energy_j > other.energy_j;
        }
        self.id < other.id
    }
}

/// GAF wire messages.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum GafMsg {
    Disc(DiscInfo),
    Aodv(AodvMsg),
}

impl WireSize for GafMsg {
    fn wire_bytes(&self) -> u32 {
        match self {
            // id 4 + grid 8 + state 1 + remaining 4 + energy 4 + header 3
            GafMsg::Disc(_) => 24,
            GafMsg::Aodv(m) => m.wire_bytes(),
        }
    }
}

impl From<AodvMsg> for GafMsg {
    fn from(m: AodvMsg) -> Self {
        GafMsg::Aodv(m)
    }
}

/// GAF timers.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum GafTimer {
    /// Discovery dwell expired: become active.
    DiscoveryDone { epoch: u32 },
    /// Active duty expired: back to discovery.
    ActiveDone { epoch: u32 },
    /// Sleep expired: back to discovery.
    WakeUp { epoch: u32 },
    /// Active-state discovery beacon.
    Beacon { epoch: u32 },
    /// Embedded AODV timer.
    Aodv(AodvTimer),
}

impl From<AodvTimer> for GafTimer {
    fn from(t: AodvTimer) -> Self {
        GafTimer::Aodv(t)
    }
}

/// Per-host counters (32 bits: no host counts 2³² of anything in a run).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GafStats {
    pub activations: u32,
    pub sleeps: u32,
    pub wakeups: u32,
    pub beacons: u32,
}

/// One GAF host.
pub struct GafProto {
    me: NodeId,
    state: GafState,
    my_grid: GridCoord,
    /// Absolute end of the current active duty (seconds).
    active_until: f64,
    epoch: u32,
    core: AodvCore,
    /// The router tenure the trace has seen (GAF's active router is its
    /// grid's gateway).
    tenure: GatewayTenure,
    pub stats: GafStats,
}

impl GafProto {
    pub fn new(me: NodeId) -> Self {
        GafProto {
            me,
            state: GafState::Discovery,
            my_grid: GridCoord::new(0, 0),
            active_until: 0.0,
            epoch: 0,
            core: AodvCore::new(me),
            tenure: GatewayTenure::default(),
            stats: GafStats::default(),
        }
    }

    /// A Model-1 endpoint: always on, does not run the GAF duty cycle and
    /// does not relay foreign traffic.
    pub fn endpoint(me: NodeId) -> Self {
        let mut p = Self::new(me);
        p.state = GafState::Endpoint;
        p.core.forwards = false;
        p
    }

    pub fn state(&self) -> GafState {
        self.state
    }

    /// Reconcile the trace's view of this host's router tenure with its
    /// state.
    fn sync_tenure(&mut self, ctx: &mut Ctx<'_, Self>) {
        self.tenure
            .sync(ctx, self.my_grid, self.state == GafState::Active);
    }

    fn my_disc(&self, ctx: &mut Ctx<'_, Self>) -> DiscInfo {
        let now = ctx.now().as_secs_f64();
        DiscInfo {
            id: self.me,
            grid: self.my_grid,
            active: self.state == GafState::Active,
            remaining_active: (self.active_until - now).max(0.0),
            energy_j: ctx.remaining_j().min(1e12),
        }
    }

    fn send_disc(&mut self, ctx: &mut Ctx<'_, Self>) {
        let d = self.my_disc(ctx);
        self.stats.beacons += 1;
        ctx.broadcast(GafMsg::Disc(d));
    }

    fn enter_discovery(&mut self, ctx: &mut Ctx<'_, Self>, after_duty: bool) {
        self.state = GafState::Discovery;
        self.sync_tenure(ctx);
        self.my_grid = ctx.cell();
        self.epoch += 1;
        self.send_disc(ctx);
        let td = if after_duty {
            // stand back: let a fresher waker claim the grid first
            HANDOFF_GRACE + ctx.rng().gen_range(0.0..DISCOVERY_MAX)
        } else {
            ctx.rng().gen_range(0.1..(0.1 + DISCOVERY_MAX))
        };
        ctx.set_timer_secs(td, GafTimer::DiscoveryDone { epoch: self.epoch });
    }

    fn enter_active(&mut self, ctx: &mut Ctx<'_, Self>) {
        self.state = GafState::Active;
        self.sync_tenure(ctx);
        self.stats.activations += 1;
        self.epoch += 1;
        self.active_until = ctx.now().as_secs_f64() + ACTIVE_TIME;
        self.send_disc(ctx);
        ctx.set_timer_secs(ACTIVE_TIME, GafTimer::ActiveDone { epoch: self.epoch });
        ctx.set_timer_secs(BEACON_INTERVAL, GafTimer::Beacon { epoch: self.epoch });
    }

    fn enter_sleep(&mut self, ctx: &mut Ctx<'_, Self>, winner_remaining: f64) {
        self.state = GafState::Sleeping;
        self.sync_tenure(ctx);
        self.stats.sleeps += 1;
        self.epoch += 1;
        let base = winner_remaining.max(1.0);
        let frac = ctx.rng().gen_range(SLEEP_FRAC_LO..=SLEEP_FRAC_HI);
        // never sleep past the moment we might leave the grid
        let dwell = ctx.estimated_dwell_secs(base * frac);
        ctx.set_timer_secs(dwell.max(0.1), GafTimer::WakeUp { epoch: self.epoch });
        self.core.clear_pending();
        ctx.sleep();
    }

    fn on_disc(&mut self, ctx: &mut Ctx<'_, Self>, d: DiscInfo) {
        if d.grid != self.my_grid || d.id == self.me {
            return;
        }
        match self.state {
            GafState::Discovery | GafState::Active => {
                let mine = self.my_disc(ctx);
                // Yield only to a node that is *already serving*: sleeping
                // on a mere discovery-state rival would leave the grid with
                // no router until the rival's T_d expires (a delivery gap).
                // The outranking rival stays in discovery, activates at its
                // T_d, beacons, and only then do we stand down — a
                // make-before-break handoff.
                if d.active && d.outranks(&mine) {
                    if d.remaining_active > 2.0 {
                        self.enter_sleep(ctx, d.remaining_active);
                    } else if self.state == GafState::Active {
                        // both of us are (nearly) done; fall back to a fresh
                        // negotiation rather than serving two actives
                        self.enter_discovery(ctx, true);
                    }
                    // in discovery with the incumbent about to retire: stay
                    // awake — the renegotiation we are waiting for is here
                } else if self.state == GafState::Active && !d.outranks(&mine) {
                    // defend my duty so the lower-ranked node yields
                    self.send_disc(ctx);
                }
            }
            GafState::Sleeping => {
                // pre-quiesce window (sleep requested, MAC still draining)
            }
            GafState::Endpoint => {}
        }
    }
}

impl AodvHost for GafProto {}

impl Protocol for GafProto {
    type Msg = GafMsg;
    type Timer = GafTimer;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Self>) {
        self.my_grid = ctx.cell();
        if self.state == GafState::Endpoint {
            return; // always on, no duty cycle
        }
        // stagger entry into discovery
        let stagger = ctx.rng().gen_range(0.0..0.2);
        self.epoch += 1;
        ctx.set_timer_secs(stagger, GafTimer::WakeUp { epoch: self.epoch });
        self.state = GafState::Discovery; // formally in discovery until then
    }

    fn on_frame(&mut self, ctx: &mut Ctx<'_, Self>, src: NodeId, _kind: FrameKind, msg: &GafMsg) {
        match msg {
            GafMsg::Disc(d) => self.on_disc(ctx, *d),
            GafMsg::Aodv(m) => {
                // Only a committed router takes part in route construction:
                // a discovery-state node may sleep within the second, so
                // letting it relay or answer RREQs would mint routes that
                // break immediately.  (It still receives data/RREPs on
                // routes built while it served, and replies to RREQs that
                // target it.)
                if let AodvMsg::Rreq { dst, .. } = m {
                    let committed = matches!(self.state, GafState::Active | GafState::Endpoint);
                    if !committed && *dst != self.me {
                        return;
                    }
                }
                let acts = self.core.on_msg(ctx.now(), src, m);
                aodv::run(self, ctx, acts);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self>, timer: GafTimer) {
        match timer {
            GafTimer::DiscoveryDone { epoch } => {
                if epoch == self.epoch && self.state == GafState::Discovery {
                    self.enter_active(ctx);
                }
            }
            GafTimer::ActiveDone { epoch } => {
                if epoch == self.epoch && self.state == GafState::Active {
                    // duty served; renegotiate, deferring to fresher wakers
                    self.enter_discovery(ctx, true);
                }
            }
            GafTimer::WakeUp { epoch } => {
                if epoch == self.epoch && matches!(self.state, GafState::Sleeping | GafState::Discovery) {
                    self.stats.wakeups += 1;
                    ctx.wake();
                    self.enter_discovery(ctx, false);
                }
            }
            GafTimer::Beacon { epoch } => {
                if epoch == self.epoch && self.state == GafState::Active {
                    self.send_disc(ctx);
                    ctx.set_timer_secs(BEACON_INTERVAL, GafTimer::Beacon { epoch });
                }
            }
            GafTimer::Aodv(t) => {
                let acts = self.core.on_timer(ctx.now(), t);
                aodv::run(self, ctx, acts);
            }
        }
    }

    fn on_cell_change(&mut self, ctx: &mut Ctx<'_, Self>, _old: GridCoord, new: GridCoord) {
        self.my_grid = new;
        if matches!(self.state, GafState::Discovery | GafState::Active) {
            // renegotiate in the new grid
            self.enter_discovery(ctx, false);
        }
    }

    fn on_app_send(&mut self, ctx: &mut Ctx<'_, Self>, dst: NodeId, packet: AppPacket) {
        if self.state == GafState::Sleeping {
            // GAF has no ACQ handshake: the host simply powers up and joins
            // discovery, sending its data immediately
            ctx.wake();
            self.enter_discovery(ctx, false);
        }
        let acts = self.core.send_data(ctx.now(), dst, packet);
        aodv::run(self, ctx, acts);
    }

    fn on_unicast_failed(&mut self, ctx: &mut Ctx<'_, Self>, dst: NodeId, msg: &GafMsg) {
        if let GafMsg::Aodv(m) = msg {
            let acts = self.core.on_link_failure(ctx.now(), dst, m);
            aodv::run(self, ctx, acts);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranking_prefers_incumbent_then_energy_then_id() {
        let base = DiscInfo {
            id: NodeId(5),
            grid: GridCoord::new(0, 0),
            active: false,
            remaining_active: 0.0,
            energy_j: 100.0,
        };
        // an active incumbent holds duty for its whole term, even against
        // a richer discovery-state rival (make-before-break: the rival
        // takes over at the term boundary instead)
        let richer = DiscInfo {
            id: NodeId(9),
            energy_j: 200.0,
            ..base
        };
        let incumbent = DiscInfo {
            active: true,
            remaining_active: 30.0,
            ..base
        };
        assert!(incumbent.outranks(&richer));
        assert!(!richer.outranks(&incumbent));
        // among discovery-state contenders, energy rules
        assert!(richer.outranks(&base));
        assert!(!base.outranks(&richer));
        // both idle, near-equal energy: smaller id wins
        let same_energy_lower_id = DiscInfo {
            id: NodeId(2),
            ..base
        };
        assert!(same_energy_lower_id.outranks(&base));
        assert!(!base.outranks(&same_energy_lower_id));
    }

    #[test]
    fn disc_wire_size() {
        let d = DiscInfo {
            id: NodeId(0),
            grid: GridCoord::new(0, 0),
            active: false,
            remaining_active: 0.0,
            energy_j: 0.0,
        };
        assert_eq!(GafMsg::Disc(d).wire_bytes(), 24);
    }
}
