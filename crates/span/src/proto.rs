//! The Span state machine: neighbourhood discovery, coordinator
//! eligibility/withdrawal, PSM duty cycling, AODV over the backbone.

use aodv::{AodvCore, AodvHost, AodvMsg, AodvTimer};
use manet::{AppPacket, Ctx, FrameKind, NodeId, Protocol, SimTime, WireSize};
use rand::Rng;
use std::collections::HashMap;

// Span constants (times in seconds).

/// HELLO beacon period for awake nodes.
pub const HELLO_INTERVAL: f64 = 1.0;
/// Neighbour-table entry lifetime.
pub const NEIGHBOR_TTL: f64 = 3.5;
/// PSM beacon period: every non-coordinator wakes at
/// `t ≡ 0 (mod PSM_PERIOD)` (synchronized, as under 802.11 TSF).
pub const PSM_PERIOD: f64 = 0.3;
/// Length of the awake window at each beacon.
pub const PSM_WINDOW: f64 = 0.03;
/// Maximum coordinator-announcement contention delay.
pub const CONTEND_MAX: f64 = 0.3;
/// Minimum coordinator tenure before a withdrawal check may succeed.
pub const MIN_TENURE: f64 = 20.0;
/// Period of the coordinator's withdrawal self-check.
pub const WITHDRAW_CHECK: f64 = 5.0;

/// Node duty state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanState {
    /// Awake backbone member.
    Coordinator,
    /// PSM duty cycle, currently inside the awake window.
    PsmAwake,
    /// PSM duty cycle, radio off until the next beacon.
    PsmSleeping,
    /// Infinite-energy endpoint (always on, never a coordinator, does not
    /// forward) — mirrors the GAF Model-1 endpoints for fair comparisons.
    Endpoint,
}

/// What one HELLO advertises.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanHello {
    pub id: NodeId,
    pub coordinator: bool,
    /// Remaining energy (joules, saturated) — contention input.
    pub energy_j: f64,
    /// The sender's current neighbour ids.
    pub neighbors: Vec<NodeId>,
}

/// Span wire messages.
#[derive(Clone, Debug, PartialEq)]
pub enum SpanMsg {
    Hello(SpanHello),
    Aodv(AodvMsg),
}

impl WireSize for SpanMsg {
    fn wire_bytes(&self) -> u32 {
        match self {
            // id 4 + flags 1 + energy 4 + count 1 + 4/neighbor + header 2
            SpanMsg::Hello(h) => 12 + 4 * h.neighbors.len() as u32,
            SpanMsg::Aodv(m) => m.wire_bytes(),
        }
    }
}

impl From<AodvMsg> for SpanMsg {
    fn from(m: AodvMsg) -> Self {
        SpanMsg::Aodv(m)
    }
}

/// Span timers.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SpanTimer {
    /// Endpoint-only periodic HELLO (duty-cycled nodes beacon on window
    /// ticks instead).
    Hello,
    /// Contention backoff before announcing coordinatorship.
    Announce {
        epoch: u32,
    },
    /// Periodic withdrawal self-check while coordinator.
    Withdraw {
        epoch: u32,
    },
    /// The synchronized beacon-window tick every non-endpoint node rides:
    /// sleepers wake, everyone flushes traffic held for sleepers, beacons
    /// go out where they can be heard.
    WindowTick,
    /// End of the PSM awake window (sleep if nothing pending).
    PsmDoze {
        epoch: u32,
    },
    Aodv(AodvTimer),
}

impl From<AodvTimer> for SpanTimer {
    fn from(t: AodvTimer) -> Self {
        SpanTimer::Aodv(t)
    }
}

/// Per-host counters (32 bits: no host counts 2³² of anything in a run).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanStats {
    pub coordinator_terms: u32,
    pub withdrawals: u32,
    pub psm_cycles: u32,
    pub hellos: u32,
}

#[derive(Clone, Debug)]
struct NeighborInfo {
    coordinator: bool,
    neighbors: Vec<NodeId>,
    last_heard: SimTime,
}

/// One Span instance.
pub struct SpanProto {
    me: NodeId,
    state: SpanState,
    neighbors: HashMap<NodeId, NeighborInfo>,
    /// Independent epoch counters so one timer chain cannot invalidate
    /// another (the window tick runs every 300 ms).
    duty_epoch: u32,
    announce_epoch: u32,
    withdraw_epoch: u32,
    contending: bool,
    coordinator_since: f64,
    core: AodvCore,
    /// Frames held for sleeping PSM neighbours until the next window.
    psm_backlog: Vec<(NodeId, AodvMsg)>,
    pub stats: SpanStats,
}

impl SpanProto {
    pub fn new(me: NodeId) -> Self {
        SpanProto {
            me,
            state: SpanState::PsmAwake,
            neighbors: HashMap::new(),
            duty_epoch: 0,
            announce_epoch: 0,
            withdraw_epoch: 0,
            contending: false,
            coordinator_since: 0.0,
            core: AodvCore::new(me),
            psm_backlog: Vec::new(),
            stats: SpanStats::default(),
        }
    }

    /// A Model-1 style endpoint: always on, no duty cycle, no forwarding.
    pub fn endpoint(me: NodeId) -> Self {
        let mut p = Self::new(me);
        p.state = SpanState::Endpoint;
        p.core.forwards = false;
        p
    }

    pub fn state(&self) -> SpanState {
        self.state
    }

    pub fn is_coordinator(&self) -> bool {
        self.state == SpanState::Coordinator
    }

    fn send_hello(&mut self, ctx: &mut Ctx<'_, Self>) {
        let now = ctx.now();
        let mut ids: Vec<NodeId> = self
            .neighbors
            .iter()
            .filter(|(_, n)| now.since(n.last_heard).as_secs_f64() < NEIGHBOR_TTL)
            .map(|(id, _)| *id)
            .collect();
        ids.sort();
        self.stats.hellos += 1;
        ctx.broadcast(SpanMsg::Hello(SpanHello {
            id: self.me,
            coordinator: self.state == SpanState::Coordinator,
            energy_j: ctx.remaining_j().min(1e12),
            neighbors: ids,
        }));
    }

    /// The coordinator eligibility rule over the 2-hop view: some pair of
    /// my live neighbours can reach each other neither directly nor via a
    /// single coordinator.  `exclude_self` runs the check as if I were not
    /// a coordinator (the withdrawal test).
    fn eligibility_gap(&self, now: SimTime, exclude_self: bool) -> bool {
        let live: Vec<(&NodeId, &NeighborInfo)> = self
            .neighbors
            .iter()
            .filter(|(_, n)| now.since(n.last_heard).as_secs_f64() < NEIGHBOR_TTL)
            .collect();
        // advertised neighbour lists are sorted (see send_hello), so
        // membership is a binary search — the rule is O(deg² · log deg +
        // deg² · coordinators), which matters at high density
        let coords: Vec<&NodeId> = live
            .iter()
            .filter(|(uc, nc)| nc.coordinator && (!exclude_self || **uc != self.me))
            .map(|(uc, _)| *uc)
            .collect();
        for (i, (ua, na)) in live.iter().enumerate() {
            for (ub, nb) in live.iter().skip(i + 1) {
                // directly connected?
                if na.neighbors.binary_search(ub).is_ok() || nb.neighbors.binary_search(ua).is_ok() {
                    continue;
                }
                // via one coordinator c (≠ me if excluded)?
                let covered = coords.iter().any(|uc| {
                    *uc != *ua
                        && *uc != *ub
                        && na.neighbors.binary_search(uc).is_ok()
                        && nb.neighbors.binary_search(uc).is_ok()
                });
                if !covered {
                    return true; // an uncovered pair exists
                }
            }
        }
        false
    }

    fn maybe_contend(&mut self, ctx: &mut Ctx<'_, Self>) {
        if self.state == SpanState::Coordinator || self.state == SpanState::Endpoint || self.contending {
            return;
        }
        if !self.eligibility_gap(ctx.now(), false) {
            return;
        }
        // announcement contention: richer nodes back off less (Span's
        // utility-weighted delay, simplified to the energy term)
        self.contending = true;
        self.announce_epoch += 1;
        let frac = (ctx.rbrc()).clamp(0.0, 1.0);
        let delay = CONTEND_MAX * (1.0 - frac * 0.8) * ctx.rng().gen_range(0.2..1.0);
        ctx.set_timer_secs(
            delay.max(0.005),
            SpanTimer::Announce {
                epoch: self.announce_epoch,
            },
        );
    }

    fn become_coordinator(&mut self, ctx: &mut Ctx<'_, Self>) {
        self.state = SpanState::Coordinator;
        self.stats.coordinator_terms += 1;
        self.coordinator_since = ctx.now().as_secs_f64();
        self.duty_epoch += 1; // cancels any pending doze
        self.withdraw_epoch += 1;
        ctx.wake();
        self.send_hello(ctx);
        ctx.set_timer_secs(
            WITHDRAW_CHECK,
            SpanTimer::Withdraw {
                epoch: self.withdraw_epoch,
            },
        );
        // flush anything held for the PSM schedule — we are always on now
        self.flush_backlog(ctx);
    }

    /// Send every frame held for the PSM schedule.
    fn flush_backlog(&mut self, ctx: &mut Ctx<'_, Self>) {
        for (to, m) in std::mem::take(&mut self.psm_backlog) {
            ctx.unicast(to, SpanMsg::Aodv(m));
        }
    }

    /// Seconds until the next synchronized PSM beacon.
    fn until_next_window(now: SimTime) -> f64 {
        let t = now.as_secs_f64();
        let p = PSM_PERIOD;
        let next = (t / p).floor() * p + p;
        (next - t).max(0.001)
    }

    fn in_window(now: SimTime) -> bool {
        let t = now.as_secs_f64();
        let p = PSM_PERIOD;
        t - (t / p).floor() * p < PSM_WINDOW
    }

    fn psm_doze(&mut self, ctx: &mut Ctx<'_, Self>) {
        self.state = SpanState::PsmSleeping;
        self.duty_epoch += 1;
        ctx.sleep();
        // the standing WindowTick chain wakes us at the next beacon
    }

    /// The synchronized window tick, every `psm_period`, for every
    /// non-endpoint node regardless of state.
    fn window_tick(&mut self, ctx: &mut Ctx<'_, Self>) {
        // keep the chain alive first
        let next = Self::until_next_window(ctx.now());
        ctx.set_timer_secs(next, SpanTimer::WindowTick);

        match self.state {
            SpanState::Coordinator => {
                // flush traffic held for sleepers (they are awake now) and
                // beacon inside the window so they hear the backbone
                self.flush_backlog(ctx);
                self.send_hello(ctx);
            }
            SpanState::PsmSleeping | SpanState::PsmAwake => {
                self.state = SpanState::PsmAwake;
                self.stats.psm_cycles += 1;
                self.duty_epoch += 1;
                ctx.wake();
                self.flush_backlog(ctx);
                // beacon roughly once a second so neighbour tables stay
                // fresh without paying a full hello every 300 ms window
                if self.stats.psm_cycles.is_multiple_of(3) {
                    self.send_hello(ctx);
                    self.maybe_contend(ctx);
                }
                ctx.set_timer_secs(
                    PSM_WINDOW,
                    SpanTimer::PsmDoze {
                        epoch: self.duty_epoch,
                    },
                );
            }
            SpanState::Endpoint => {}
        }
    }
}

impl AodvHost for SpanProto {
    /// Queue or send an AODV unicast respecting the target's PSM schedule.
    fn unicast(&mut self, ctx: &mut Ctx<'_, Self>, to: NodeId, m: AodvMsg) {
        let asleep_target =
            self.neighbors.get(&to).map(|n| !n.coordinator).unwrap_or(false) && !Self::in_window(ctx.now());
        if asleep_target {
            self.psm_backlog.push((to, m));
        } else {
            ctx.unicast(to, SpanMsg::Aodv(m));
        }
    }
}

impl Protocol for SpanProto {
    type Msg = SpanMsg;
    type Timer = SpanTimer;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Self>) {
        if self.state == SpanState::Endpoint {
            let stagger = ctx.rng().gen_range(0.0..0.5);
            ctx.set_timer_secs(stagger, SpanTimer::Hello);
            return;
        }
        // everyone starts awake, learns the neighbourhood (two hellos),
        // then the window-tick cycle takes over
        self.state = SpanState::PsmAwake;
        let stagger = ctx.rng().gen_range(0.0..0.5);
        self.send_hello(ctx);
        ctx.set_timer_secs(0.8 + stagger, SpanTimer::Hello); // one settling re-beacon
                                                             // stay continuously awake for a settling period to learn the
                                                             // neighbourhood, then join the synchronized window cycle
        let settle = 2.0 + ctx.rng().gen_range(0.0..0.2);
        ctx.set_timer_secs(settle, SpanTimer::WindowTick);
    }

    fn on_frame(&mut self, ctx: &mut Ctx<'_, Self>, src: NodeId, _kind: FrameKind, msg: &SpanMsg) {
        match msg {
            SpanMsg::Hello(h) => {
                self.neighbors.insert(
                    src,
                    NeighborInfo {
                        coordinator: h.coordinator,
                        neighbors: h.neighbors.clone(),
                        last_heard: ctx.now(),
                    },
                );
                // eligibility is evaluated on window ticks (rate-limited:
                // the rule is quadratic in degree and hellos arrive from
                // every neighbour every cycle)
            }
            SpanMsg::Aodv(m) => {
                // only the backbone relays route requests (plus the
                // destination itself) — Span routes over coordinators
                if let AodvMsg::Rreq { dst, .. } = m {
                    let backbone = matches!(self.state, SpanState::Coordinator | SpanState::Endpoint);
                    if !backbone && *dst != self.me {
                        return;
                    }
                }
                let acts = self.core.on_msg(ctx.now(), src, m);
                aodv::run(self, ctx, acts);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self>, timer: SpanTimer) {
        match timer {
            SpanTimer::Hello => {
                if ctx.mode() != manet::RadioMode::Sleep {
                    self.send_hello(ctx);
                }
                // only endpoints keep the plain hello chain going; duty
                // cycled nodes beacon from their window ticks
                if self.state == SpanState::Endpoint {
                    let jitter = 1.0 + 0.1 * (ctx.rng().gen::<f64>() * 2.0 - 1.0);
                    ctx.set_timer_secs(HELLO_INTERVAL * jitter, SpanTimer::Hello);
                }
            }
            SpanTimer::Announce { epoch } => {
                if epoch != self.announce_epoch {
                    return;
                }
                self.contending = false;
                // re-check: someone else may have announced during backoff
                if self.state != SpanState::Coordinator && self.eligibility_gap(ctx.now(), false) {
                    self.become_coordinator(ctx);
                }
            }
            SpanTimer::Withdraw { epoch } => {
                if epoch != self.withdraw_epoch || self.state != SpanState::Coordinator {
                    return;
                }
                let tenure = ctx.now().as_secs_f64() - self.coordinator_since;
                if tenure >= MIN_TENURE && !self.eligibility_gap(ctx.now(), true) {
                    // the rest of the backbone covers my pairs: withdraw
                    self.stats.withdrawals += 1;
                    self.state = SpanState::PsmAwake;
                    self.send_hello(ctx); // announce with the flag cleared
                    self.duty_epoch += 1;
                    ctx.set_timer_secs(
                        PSM_WINDOW,
                        SpanTimer::PsmDoze {
                            epoch: self.duty_epoch,
                        },
                    );
                } else {
                    ctx.set_timer_secs(WITHDRAW_CHECK, SpanTimer::Withdraw { epoch });
                }
            }
            SpanTimer::WindowTick => {
                self.window_tick(ctx);
            }
            SpanTimer::PsmDoze { epoch } => {
                if epoch == self.duty_epoch && self.state == SpanState::PsmAwake {
                    self.psm_doze(ctx);
                }
            }
            SpanTimer::Aodv(t) => {
                let acts = self.core.on_timer(ctx.now(), t);
                aodv::run(self, ctx, acts);
            }
        }
    }

    fn on_app_send(&mut self, ctx: &mut Ctx<'_, Self>, dst: NodeId, packet: AppPacket) {
        if self.state == SpanState::PsmSleeping {
            // wake out-of-schedule to send own traffic (PSM allows this)
            self.state = SpanState::PsmAwake;
            self.duty_epoch += 1;
            ctx.wake();
            ctx.set_timer_secs(
                PSM_WINDOW,
                SpanTimer::PsmDoze {
                    epoch: self.duty_epoch,
                },
            );
        }
        let acts = self.core.send_data(ctx.now(), dst, packet);
        aodv::run(self, ctx, acts);
    }

    fn on_unicast_failed(&mut self, ctx: &mut Ctx<'_, Self>, dst: NodeId, msg: &SpanMsg) {
        if let SpanMsg::Aodv(m) = msg {
            // a PSM neighbour we thought awake was not: hold for its window
            if let Some(n) = self.neighbors.get(&dst) {
                if !n.coordinator {
                    if let AodvMsg::Data { .. } = m {
                        self.psm_backlog.push((dst, *m));
                        return;
                    }
                }
            }
            let acts = self.core.on_link_failure(ctx.now(), dst, m);
            aodv::run(self, ctx, acts);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet::GridCoord;

    fn info(coordinator: bool, neighbors: &[u32]) -> NeighborInfo {
        NeighborInfo {
            coordinator,
            neighbors: neighbors.iter().map(|i| NodeId(*i)).collect(),
            last_heard: SimTime::from_secs(100),
        }
    }

    fn proto_with(neigh: Vec<(u32, NeighborInfo)>) -> SpanProto {
        let mut p = SpanProto::new(NodeId(0));
        for (id, n) in neigh {
            p.neighbors.insert(NodeId(id), n);
        }
        p
    }

    #[test]
    fn eligibility_fires_on_disconnected_neighbors() {
        // neighbours 1 and 2 cannot hear each other and no coordinator
        // joins them: node 0 must be eligible
        let p = proto_with(vec![(1, info(false, &[0])), (2, info(false, &[0]))]);
        assert!(p.eligibility_gap(SimTime::from_secs(100), false));
    }

    #[test]
    fn no_gap_when_neighbors_hear_each_other() {
        let p = proto_with(vec![(1, info(false, &[0, 2])), (2, info(false, &[0, 1]))]);
        assert!(!p.eligibility_gap(SimTime::from_secs(100), false));
    }

    #[test]
    fn no_gap_when_a_coordinator_bridges() {
        // 1 and 2 don't hear each other but both hear coordinator 3
        let p = proto_with(vec![
            (1, info(false, &[0, 3])),
            (2, info(false, &[0, 3])),
            (3, info(true, &[0, 1, 2])),
        ]);
        assert!(!p.eligibility_gap(SimTime::from_secs(100), false));
    }

    #[test]
    fn withdrawal_check_excludes_self() {
        // I (node 0) am the only bridge between 1 and 2 — with exclude_self
        // the pair is uncovered, so I must NOT withdraw
        let mut p = proto_with(vec![(1, info(false, &[0])), (2, info(false, &[0]))]);
        p.state = SpanState::Coordinator;
        assert!(
            p.eligibility_gap(SimTime::from_secs(100), true),
            "withdrawing would break 1-2"
        );
        // an independent coordinator 3 appears bridging them: now safe
        p.neighbors.insert(NodeId(3), info(true, &[0, 1, 2]));
        p.neighbors.insert(NodeId(1), info(false, &[0, 3]));
        p.neighbors.insert(NodeId(2), info(false, &[0, 3]));
        assert!(!p.eligibility_gap(SimTime::from_secs(100), true));
    }

    #[test]
    fn stale_neighbors_are_ignored() {
        let mut p = proto_with(vec![(1, info(false, &[0])), (2, info(false, &[0]))]);
        // both entries heard at t=100; at t=200 they are stale
        assert!(p.eligibility_gap(SimTime::from_secs(101), false));
        assert!(!p.eligibility_gap(SimTime::from_secs(200), false));
        let _ = GridCoord::new(0, 0);
        p.neighbors.clear();
        assert!(!p.eligibility_gap(SimTime::from_secs(100), false));
    }

    #[test]
    fn psm_window_arithmetic() {
        // period 0.3, window 0.03
        assert!(SpanProto::in_window(SimTime::from_millis(0)));
        assert!(SpanProto::in_window(SimTime::from_millis(29)));
        assert!(!SpanProto::in_window(SimTime::from_millis(31)));
        assert!(SpanProto::in_window(SimTime::from_millis(300)));
        let until = SpanProto::until_next_window(SimTime::from_millis(250));
        assert!((until - 0.05).abs() < 1e-9, "{until}");
    }

    #[test]
    fn hello_wire_size_scales_with_neighbors() {
        let h = SpanMsg::Hello(SpanHello {
            id: NodeId(0),
            coordinator: false,
            energy_j: 500.0,
            neighbors: vec![NodeId(1), NodeId(2), NodeId(3)],
        });
        assert_eq!(h.wire_bytes(), 12 + 12);
    }
}
