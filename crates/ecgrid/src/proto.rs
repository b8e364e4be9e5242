//! The ECGRID state machine (see crate docs for the paper mapping).

use crate::config::EcgridConfig;
use crate::msg::{EcMsg, EcTimer};
use grid_common::{elect_gateway, DataMsg, HelloInfo, RouteSnapshot, RoutingPlane, RoutingStats};
use manet::sim_engine::{share, IdMap};
use manet::{
    AppPacket, Ctx, EnergyLevel, EventKind, FrameKind, GridCoord, NodeId, PageSignal, Protocol, SimTime,
};
use rand::Rng;
use std::collections::VecDeque;
use std::sync::{Arc, LazyLock};

/// The host's role in its grid.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// Collecting HELLOs; will apply the election rules when the window
    /// closes.
    Electing,
    /// Active non-gateway that knows its gateway.
    Member,
    /// Transceiver off; only the RAS can reach this host.
    Sleeping,
    /// The gateway of the host's grid.
    Gateway,
}

/// Per-host election and energy-conservation counters (inspected by tests
/// and experiment reports; the routing counters are
/// [`Ecgrid::routing_stats`]).  32 bits each, like the routing counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EcStats {
    pub elections_started: u32,
    pub became_gateway: u32,
    pub retires: u32,
    pub load_balance_retires: u32,
    pub no_gateway_events: u32,
    pub acqs_sent: u32,
    pub pages_sent: u32,
    pub sleeps: u32,
    pub dwell_extensions: u32,
    /// Re-pages of an unresponsive sleeping destination (attempt ≥ 1).
    pub page_retries: u32,
    /// Buffered packets abandoned after `max_page_attempts` failed pages.
    pub page_gave_up: u32,
    /// Handoff grace periods that expired without a successor gateway.
    pub handoff_timeouts: u32,
    /// Orphan revalidation wake-ups of long-sleeping hosts.
    pub orphan_checks: u32,
}

#[derive(Clone, Copy, Debug)]
struct HostEntry {
    last_seen: SimTime,
    /// Host-table status field: true once the host announced sleep (or a
    /// unicast to it failed); cleared whenever it is heard again.
    asleep: bool,
}

impl HostEntry {
    fn awake(now: SimTime) -> Self {
        HostEntry {
            last_seen: now,
            asleep: false,
        }
    }
}

/// A gateway's paging state: what it buffers for the sleeping hosts it
/// paged, and how often each ignored a page.  Only gateways page, so the
/// state is created by the first write and most hosts never hold it.
#[derive(Default)]
struct Paging {
    /// Packets awaiting a paged local host.
    pending_wake: IdMap<NodeId, VecDeque<DataMsg>>,
    /// How many consecutive pages toward each sleeping host went
    /// unanswered (any frame from the host clears its entry).
    page_attempts: IdMap<NodeId, u32>,
}

impl Paging {
    /// The paging state in `slot`, created on the first write.
    fn of(slot: &mut Option<Box<Paging>>) -> &mut Paging {
        slot.get_or_insert_with(Box::default)
    }

    /// Forget every page streak in `slot`.
    fn clear_attempts(slot: &mut Option<Box<Paging>>) {
        if let Some(p) = slot {
            p.page_attempts.clear();
        }
    }

    /// Forget `dst`'s page streak in `slot`.
    fn forget(slot: &mut Option<Box<Paging>>, dst: NodeId) {
        if let Some(p) = slot {
            p.page_attempts.remove(&dst);
        }
    }
}

/// One ECGRID instance (one per host).
pub struct Ecgrid {
    cfg: Arc<EcgridConfig>,
    me: NodeId,
    role: Role,
    /// The grid this host believes it is in (sleepers learn changes only
    /// when their dwell timer wakes them).
    my_grid: GridCoord,
    /// Gateway of `my_grid` as last known.
    gateway: Option<NodeId>,
    /// Level when (last) elected; a drop below it triggers a load-balance
    /// retire.
    level_at_election: EnergyLevel,
    plane: RoutingPlane,
    /// Gateway only: hosts known to live in my grid.
    host_table: IdMap<NodeId, HostEntry>,
    /// HELLOs collected during the current election window.
    candidates: Vec<HelloInfo>,
    /// Epoch counters making stale timers harmless.
    election_epoch: u32,
    watch_epoch: u32,
    dwell_epoch: u32,
    quiet_epoch: u32,
    acq_epoch: u32,
    handoff_epoch: u32,
    /// Gateway: paged hosts' buffers and page streaks.
    paging: Option<Box<Paging>>,
    /// When the current uninterrupted sleep began (orphan detection).
    sleep_since: SimTime,
    /// Member: own packets awaiting a confirmed gateway (ACQ handshake).
    pending_own: Vec<(NodeId, AppPacket)>,
    awaiting_acq: bool,
    last_gw_hello: SimTime,
    last_own_hello: SimTime,
    hello_epoch: u32,
    /// Snapshot carried from gateway duty into a pending RETIRE: the
    /// grid, its routes and its hosts.  Only a retiring gateway holds
    /// one, so it lives behind a pointer.
    retiring: Option<Box<(GridCoord, RouteSnapshot, Vec<NodeId>)>>,
    pub stats: EcStats,
}

impl Ecgrid {
    pub fn new(cfg: EcgridConfig, me: NodeId) -> Self {
        static DEFAULT: LazyLock<Arc<EcgridConfig>> = LazyLock::new(Arc::default);
        Ecgrid {
            plane: RoutingPlane::new(&cfg.grid),
            cfg: share(cfg, &DEFAULT),
            me,
            role: Role::Electing,
            my_grid: GridCoord::new(0, 0),
            gateway: None,
            level_at_election: EnergyLevel::Upper,
            host_table: IdMap::default(),
            candidates: Vec::new(),
            election_epoch: 0,
            watch_epoch: 0,
            dwell_epoch: 0,
            quiet_epoch: 0,
            acq_epoch: 0,
            handoff_epoch: 0,
            paging: None,
            sleep_since: SimTime::ZERO,
            pending_own: Vec::new(),
            awaiting_acq: false,
            last_gw_hello: SimTime::ZERO,
            last_own_hello: SimTime::ZERO,
            hello_epoch: 0,
            retiring: None,
            stats: EcStats::default(),
        }
    }

    pub fn role(&self) -> Role {
        self.role
    }

    pub fn is_gateway(&self) -> bool {
        self.role == Role::Gateway
    }

    pub fn gateway(&self) -> Option<NodeId> {
        self.gateway
    }

    pub fn grid(&self) -> GridCoord {
        self.my_grid
    }

    pub fn route_count(&self) -> usize {
        self.plane.routes.len()
    }

    /// Discovery and forwarding counters.
    pub fn routing_stats(&self) -> RoutingStats {
        self.plane.stats
    }

    /// Location-service hook (see `RoutingPlane::seed_location`).
    pub fn seed_location(&mut self, dst: NodeId, grid: GridCoord) {
        self.plane.seed_location(dst, grid);
    }

    // ----- small helpers ----------------------------------------------

    fn send_hello(&mut self, ctx: &mut Ctx<'_, Self>, gflag: bool) {
        let h = HelloInfo::announce(ctx, self.my_grid, gflag);
        self.last_own_hello = ctx.now();
        ctx.broadcast(EcMsg::Hello(h));
    }

    /// (Re)start the periodic HELLO chain.  Bumping the epoch kills any
    /// chain that is still pending, so sleep/wake cycles can never stack
    /// multiple concurrent beacon timers.
    fn arm_hello(&mut self, ctx: &mut Ctx<'_, Self>) {
        self.hello_epoch += 1;
        self.rearm_hello(ctx, self.hello_epoch);
    }

    /// Continue the current HELLO chain.
    fn rearm_hello(&mut self, ctx: &mut Ctx<'_, Self>, epoch: u32) {
        let delay = self.cfg.grid.hello_delay(ctx.rng().gen());
        ctx.set_timer_secs(delay, EcTimer::Hello { epoch });
    }

    fn start_election(&mut self, ctx: &mut Ctx<'_, Self>) {
        self.stats.elections_started += 1;
        self.role = Role::Electing;
        self.gateway = None;
        self.candidates.clear();
        self.election_epoch += 1;
        self.handoff_epoch += 1; // an election supersedes any handoff wait
        self.send_hello(ctx, false);
        self.arm_hello(ctx);
        ctx.set_timer_secs(
            self.cfg.grid.election_window,
            EcTimer::ElectionDecide {
                epoch: self.election_epoch,
            },
        );
        self.plane.tenure.sync(ctx, self.my_grid, self.is_gateway());
    }

    fn no_gateway_event(&mut self, ctx: &mut Ctx<'_, Self>) {
        self.stats.no_gateway_events += 1;
        self.start_election(ctx);
    }

    fn arm_gateway_watch(&mut self, ctx: &mut Ctx<'_, Self>) {
        self.watch_epoch += 1;
        ctx.set_timer_secs(
            self.cfg.grid.gateway_silence,
            EcTimer::GatewayWatch {
                epoch: self.watch_epoch,
            },
        );
    }

    fn arm_quiet_sleep(&mut self, ctx: &mut Ctx<'_, Self>) {
        self.quiet_epoch += 1;
        ctx.set_timer_secs(
            self.cfg.sleep_quiet_delay,
            EcTimer::SleepAfterQuiet {
                epoch: self.quiet_epoch,
            },
        );
    }

    fn become_member(&mut self, ctx: &mut Ctx<'_, Self>, gateway: NodeId) {
        self.role = Role::Member;
        // the vote is over: give the candidate list's storage back (the
        // next election allocates afresh)
        self.candidates = Vec::new();
        self.plane.tenure.sync(ctx, self.my_grid, self.is_gateway());
        self.gateway = Some(gateway);
        self.last_gw_hello = ctx.now();
        self.handoff_epoch += 1;
        self.host_table.clear();
        Paging::clear_attempts(&mut self.paging);
        self.arm_gateway_watch(ctx);
        self.arm_quiet_sleep(ctx);
        self.flush_pending_own(ctx);
    }

    fn become_gateway(&mut self, ctx: &mut Ctx<'_, Self>) {
        self.stats.became_gateway += 1;
        self.role = Role::Gateway;
        self.plane.tenure.sync(ctx, self.my_grid, self.is_gateway());
        self.handoff_epoch += 1;
        self.gateway = Some(self.me);
        self.level_at_election = ctx.level();
        self.send_hello(ctx, true);
        self.arm_hello(ctx);
        // the election candidates are my initial host table; the vote is
        // over, so their storage goes with them
        let now = ctx.now();
        for c in std::mem::take(&mut self.candidates) {
            if c.id != self.me && c.grid == self.my_grid {
                self.host_table.insert(c.id, HostEntry::awake(now));
            }
        }
        // route any packets we were holding as a member
        let own: Vec<(NodeId, AppPacket)> = self.pending_own.drain(..).collect();
        for (dst, packet) in own {
            self.route_data(ctx, DataMsg::new(packet, self.me, dst, self.my_grid));
        }
    }

    /// Member with a confirmed gateway: hand over queued own packets.
    fn flush_pending_own(&mut self, ctx: &mut Ctx<'_, Self>) {
        let Some(gw) = self.gateway else { return };
        self.awaiting_acq = false;
        if self.pending_own.is_empty() {
            return;
        }
        let own: Vec<(NodeId, AppPacket)> = self.pending_own.drain(..).collect();
        for (dst, packet) in own {
            ctx.unicast(gw, DataMsg::new(packet, self.me, dst, self.my_grid).into());
        }
        self.arm_quiet_sleep(ctx);
    }

    fn go_to_sleep(&mut self, ctx: &mut Ctx<'_, Self>) {
        debug_assert_eq!(self.role, Role::Member);
        // keep the gateway's host-table status accurate (§3)
        if let Some(gw) = self.gateway {
            if gw != self.me {
                ctx.unicast(gw, EcMsg::SleepNotice);
            }
        }
        self.stats.sleeps += 1;
        self.role = Role::Sleeping;
        self.hello_epoch += 1; // kill the beacon chain while asleep
        self.watch_epoch += 1; // invalidate the watchdog while asleep
        self.handoff_epoch += 1; // a sleeper is not waiting on a handoff
        self.sleep_since = ctx.now();
        self.arm_dwell(ctx);
        ctx.sleep();
    }

    fn arm_dwell(&mut self, ctx: &mut Ctx<'_, Self>) {
        self.dwell_epoch += 1;
        // never sleep past the orphan-revalidation deadline: a crashed
        // gateway can neither beacon nor page, so a sleeper is the only
        // party able to notice its cell went dark
        let slept = ctx.now().since(self.sleep_since).as_secs_f64();
        let until_check = (self.cfg.orphan_check_secs - slept).max(0.05);
        let dwell = ctx
            .estimated_dwell_secs(self.cfg.dwell_cap)
            .max(0.05)
            .min(until_check);
        ctx.set_timer_secs(
            dwell,
            EcTimer::Dwell {
                epoch: self.dwell_epoch,
            },
        );
    }

    /// Wake from sleep into Member state (RAS page, dwell check, own data).
    fn wake_to_member(&mut self, ctx: &mut Ctx<'_, Self>) {
        ctx.wake();
        self.dwell_epoch += 1; // cancel pending dwell checks
        self.role = Role::Member;
        self.last_gw_hello = ctx.now(); // grace: restart the watchdog window
        self.arm_gateway_watch(ctx);
        self.arm_quiet_sleep(ctx);
        self.arm_hello(ctx);
    }

    /// Wake into Member state and revalidate the gateway with the ACQ
    /// handshake (§3.3): broadcast an ACQ naming `dst` and wait for a
    /// gateway HELLO until the ACQ timeout.
    fn wake_with_acq(&mut self, ctx: &mut Ctx<'_, Self>, dst: NodeId) {
        self.wake_to_member(ctx);
        self.awaiting_acq = true;
        self.acq_epoch += 1;
        self.stats.acqs_sent += 1;
        ctx.broadcast(EcMsg::Acq {
            gid: self.my_grid,
            dst,
        });
        ctx.set_timer_secs(
            self.cfg.acq_timeout,
            EcTimer::AcqTimeout {
                epoch: self.acq_epoch,
            },
        );
    }

    // ----- entering / leaving grids ------------------------------------

    /// Left grid `left` as a non-gateway (§3.2): tell its gateway, unless
    /// that is me, then arrive in `new`.
    fn leave_for(&mut self, ctx: &mut Ctx<'_, Self>, left: GridCoord, new: GridCoord) {
        if let Some(gw) = self.gateway.filter(|gw| *gw != self.me) {
            ctx.unicast(gw, EcMsg::Leave { grid: left });
        }
        self.enter_grid(ctx, new);
    }

    /// Arrived in a new grid (awake): HELLO and wait for the gateway.
    fn enter_grid(&mut self, ctx: &mut Ctx<'_, Self>, new: GridCoord) {
        self.my_grid = new;
        self.host_table.clear();
        Paging::clear_attempts(&mut self.paging);
        self.gateway = None;
        self.role = Role::Electing;
        self.plane.tenure.sync(ctx, self.my_grid, self.is_gateway());
        self.candidates.clear();
        self.election_epoch += 1;
        self.handoff_epoch += 1;
        self.send_hello(ctx, false);
        self.arm_hello(ctx);
        // if nobody answers within a HELLO period, the grid is empty and we
        // declare ourselves (§3.2 "Hosts move into a new grid")
        ctx.set_timer_secs(
            self.cfg.grid.election_window,
            EcTimer::ElectionDecide {
                epoch: self.election_epoch,
            },
        );
    }

    /// Leaving the current grid as gateway: page everyone, then RETIRE.
    fn gateway_leave(&mut self, ctx: &mut Ctx<'_, Self>, old: GridCoord, load_balance: bool) {
        self.stats.retires += 1;
        if load_balance {
            self.stats.load_balance_retires += 1;
        }
        self.stats.pages_sent += 1;
        ctx.page_grid(old);
        self.retiring = Some(Box::new((
            old,
            self.plane.routes.snapshot(),
            self.host_table.keys().copied().collect(),
        )));
        ctx.set_timer_secs(self.cfg.retire_wait, EcTimer::RetireSend { grid: old });
    }

    // ----- data plane ---------------------------------------------------

    /// Gateway-side routing of a data message (also used when we originate
    /// data as a gateway).
    fn route_data(&mut self, ctx: &mut Ctx<'_, Self>, d: DataMsg) {
        if d.dst == self.me {
            self.plane.stats.data_delivered += 1;
            ctx.deliver_app(d.packet);
            return;
        }
        if d.ttl == 0 {
            self.plane.stats.data_dropped += 1;
            return;
        }
        // local delivery: the destination lives in my grid
        if let Some(entry) = self.host_table.get(&d.dst) {
            let awake =
                !entry.asleep && ctx.now().since(entry.last_seen).as_secs_f64() < self.cfg.host_fresh_secs;
            let fwd = d.hop(self.my_grid);
            if awake {
                ctx.unicast(d.dst, fwd.into());
            } else {
                // paper §3.3: wake the sleeping destination, buffer, flush
                let q = Paging::of(&mut self.paging)
                    .pending_wake
                    .entry(d.dst)
                    .or_default();
                if q.len() >= self.cfg.grid.buffer_cap {
                    q.pop_front();
                    self.plane.stats.data_dropped += 1;
                }
                q.push_back(fwd);
                if q.len() == 1 {
                    self.start_page(ctx, d.dst);
                }
            }
            return;
        }
        // remote: grid-by-grid forwarding, or buffer and discover
        self.plane.forward(ctx, &self.cfg.grid, self.my_grid, d);
    }

    /// Page a sleeping local destination and arm the flush timer.  The
    /// wake wait backs off exponentially with the number of pages this
    /// host has already ignored (a lossy RAS channel would otherwise spin
    /// the page→flush→fail loop at full rate until the data TTL died);
    /// attempt 0 is the normal paper behaviour and attempts ≥ 1 are
    /// traced as [`EventKind::PageRetry`].
    fn start_page(&mut self, ctx: &mut Ctx<'_, Self>, dst: NodeId) {
        let attempt = *Paging::of(&mut self.paging).page_attempts.entry(dst).or_insert(0);
        self.stats.pages_sent += 1;
        ctx.page_host(dst);
        let wait = self.cfg.forward_wake_wait * f64::from(1u32 << attempt.min(6));
        ctx.set_timer_secs(wait, EcTimer::ForwardBuffered { dst });
        if attempt >= 1 {
            self.stats.page_retries += 1;
            let me = self.me;
            ctx.emit(|| EventKind::PageRetry {
                node: me,
                target: dst,
                attempt,
            });
        }
    }

    // ----- frame handlers -----------------------------------------------

    fn on_hello(&mut self, ctx: &mut Ctx<'_, Self>, src: NodeId, h: HelloInfo) {
        let now = ctx.now();
        self.plane.overhear_hello(&self.cfg.grid, &h, now);
        if h.grid != self.my_grid {
            // a former local host has moved away (the table is often
            // empty: then there is nothing to look up)
            if self.role == Role::Gateway && !self.host_table.is_empty() {
                self.host_table.remove(&src);
            }
            return;
        }
        match self.role {
            Role::Electing => {
                if h.gflag {
                    // a gateway already exists (or just won): join it
                    self.election_epoch += 1; // cancel my decide
                    self.maybe_replace_or_join(ctx, h);
                } else {
                    self.candidates.retain(|c| c.id != h.id);
                    self.candidates.push(h);
                }
            }
            Role::Member => {
                if h.gflag {
                    self.gateway = Some(h.id);
                    self.last_gw_hello = now;
                    self.handoff_epoch += 1; // a live gateway ends any handoff wait
                    self.arm_gateway_watch(ctx);
                    if self.awaiting_acq || !self.pending_own.is_empty() {
                        self.flush_pending_own(ctx);
                    }
                }
            }
            Role::Gateway => {
                if h.gflag && src != self.me {
                    // Two declared gateways in one grid.  Resolve with a
                    // *stable* ordering (level desc, id asc) — distance is
                    // deliberately excluded because it drifts with motion
                    // and would let both sides believe they win.
                    let my_level = ctx.level();
                    let they_win = h.level > my_level || (h.level == my_level && h.id < self.me);
                    if they_win {
                        ctx.unicast(
                            h.id,
                            EcMsg::TableXfer {
                                routes: self.plane.routes.snapshot(),
                                hosts: self.host_table.keys().copied().collect(),
                            },
                        );
                        self.host_table.clear();
                        self.become_member(ctx, h.id);
                    } else if ctx.now().since(self.last_own_hello).as_secs_f64()
                        > self.cfg.grid.gw_response_min_gap
                    {
                        // re-assert my claim (rate-limited: an un-throttled
                        // re-assert duel would melt the channel)
                        self.send_hello(ctx, true);
                    }
                } else if !h.gflag {
                    // a (new or existing) host in my grid
                    self.host_table.insert(src, HostEntry::awake(now));
                    // respond so arrivals learn the gateway (§3.2), rate
                    // limited to avoid storms
                    if now.since(self.last_own_hello).as_secs_f64() > self.cfg.grid.gw_response_min_gap {
                        self.send_hello(ctx, true);
                    }
                }
            }
            Role::Sleeping => {
                // a frame can slip in during the short window between the
                // sleep decision and the MAC quiescing — ignore it
            }
        }
    }

    /// Electing/arriving host heard the gateway: replace it (strictly
    /// higher battery level, §3.2) or join as a member.
    fn maybe_replace_or_join(&mut self, ctx: &mut Ctx<'_, Self>, gw_hello: HelloInfo) {
        if ctx.level() > gw_hello.level {
            // declare myself; the old gateway yields and transfers tables
            self.candidates = Vec::new();
            self.become_gateway(ctx);
        } else {
            self.become_member(ctx, gw_hello.id);
        }
    }

    fn on_retire(&mut self, ctx: &mut Ctx<'_, Self>, grid: GridCoord, routes: &RouteSnapshot) {
        self.plane.neighbors.forget_grid(grid);
        if grid != self.my_grid || self.role == Role::Gateway {
            return;
        }
        // inherit the tables and elect a successor (§3.2)
        self.plane.routes.install(routes, ctx.now());
        self.start_election(ctx);
    }

    fn on_data(&mut self, ctx: &mut Ctx<'_, Self>, d: DataMsg) {
        if d.dst == self.me {
            self.plane.stats.data_delivered += 1;
            ctx.deliver_app(d.packet);
            // receiving own traffic keeps an endpoint awake
            if self.role == Role::Member {
                self.arm_quiet_sleep(ctx);
            }
            return;
        }
        match self.role {
            Role::Gateway => self.route_data(ctx, d),
            Role::Member | Role::Electing => self.plane.bounce_to_gateway(ctx, self.my_grid, self.gateway, d),
            Role::Sleeping => {
                // see on_hello: pre-quiesce window; drop silently
                self.plane.stats.data_dropped += 1;
            }
        }
    }

    fn on_acq(&mut self, ctx: &mut Ctx<'_, Self>, src: NodeId, gid: GridCoord) {
        if self.role != Role::Gateway || gid != self.my_grid {
            return;
        }
        self.host_table.insert(src, HostEntry::awake(ctx.now()));
        // respond with a HELLO so the waker learns the current gateway
        self.send_hello(ctx, true);
    }
}

impl Protocol for Ecgrid {
    type Msg = EcMsg;
    type Timer = EcTimer;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Self>) {
        self.my_grid = ctx.cell();
        // stagger the very first HELLO so 100 simultaneous broadcasts don't
        // collide at t=0
        let stagger = ctx.rng().gen_range(0.0..0.3);
        self.election_epoch += 1;
        self.role = Role::Electing;
        self.hello_epoch += 1;
        ctx.set_timer_secs(
            stagger,
            EcTimer::Hello {
                epoch: self.hello_epoch,
            },
        );
        ctx.set_timer_secs(
            self.cfg.grid.election_window + stagger,
            EcTimer::ElectionDecide {
                epoch: self.election_epoch,
            },
        );
    }

    fn on_frame(&mut self, ctx: &mut Ctx<'_, Self>, src: NodeId, _kind: FrameKind, msg: &EcMsg) {
        // any frame from a host proves it is awake: its page-failure
        // streak (if any) is over — and almost always nobody has one
        if let Some(p) = &mut self.paging {
            if !p.page_attempts.is_empty() {
                p.page_attempts.remove(&src);
            }
        }
        match msg {
            EcMsg::Hello(h) => self.on_hello(ctx, src, *h),
            EcMsg::Retire { grid, routes, .. } => self.on_retire(ctx, *grid, routes),
            EcMsg::TableXfer { routes, hosts } => {
                let now = ctx.now();
                self.plane.routes.install(routes, now);
                if self.role == Role::Gateway {
                    for h in hosts {
                        if *h != self.me {
                            self.host_table.entry(*h).or_insert(HostEntry {
                                last_seen: now,
                                asleep: true,
                            });
                        }
                    }
                }
            }
            EcMsg::Leave { .. } => {
                if self.role == Role::Gateway {
                    self.host_table.remove(&src);
                }
            }
            EcMsg::SleepNotice => {
                if self.role == Role::Gateway {
                    if let Some(e) = self.host_table.get_mut(&src) {
                        e.asleep = true;
                    } else {
                        self.host_table.insert(
                            src,
                            HostEntry {
                                last_seen: ctx.now(),
                                asleep: true,
                            },
                        );
                    }
                }
            }
            EcMsg::Acq { gid, .. } => self.on_acq(ctx, src, *gid),
            EcMsg::Rreq(r) => {
                // only a gateway relays searches or answers for its hosts
                let hosts = self.is_gateway().then_some(&self.host_table);
                self.plane
                    .on_rreq(ctx, &self.cfg.grid, self.my_grid, src, *r, hosts);
            }
            EcMsg::Rrep(r) => {
                // a completed search of my own releases its buffer
                if let Some(buffered) = self.plane.on_rrep(ctx, &self.cfg.grid, self.my_grid, src, *r) {
                    for d in buffered {
                        self.route_data(ctx, d);
                    }
                }
            }
            EcMsg::Data(d) => self.on_data(ctx, *d),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self>, timer: EcTimer) {
        match timer {
            EcTimer::Hello { epoch } => {
                if epoch != self.hello_epoch || self.role == Role::Sleeping {
                    return; // superseded chain or asleep
                }
                // periodic beacon + housekeeping
                self.plane.purge(&self.cfg.grid, ctx.now());
                if self.role == Role::Gateway {
                    self.send_hello(ctx, true);
                    // load-balance retirement when the battery level drops a
                    // class (§3.2) — unless already at the lowest level
                    if ctx.level() < self.level_at_election {
                        self.gateway_leave(ctx, self.my_grid, true);
                    }
                } else {
                    self.send_hello(ctx, false);
                }
                self.rearm_hello(ctx, epoch);
            }
            EcTimer::ElectionDecide { epoch } => {
                if epoch != self.election_epoch || self.role != Role::Electing {
                    return;
                }
                let mine = HelloInfo::announce(ctx, self.my_grid, false);
                self.candidates.retain(|c| c.id != self.me);
                self.candidates.push(mine);
                let winner = elect_gateway(self.candidates.iter(), true).expect("self is a candidate");
                if winner == self.me {
                    self.become_gateway(ctx);
                } else {
                    self.become_member(ctx, winner);
                }
            }
            EcTimer::GatewayWatch { epoch } => {
                if epoch != self.watch_epoch || self.role != Role::Member {
                    return;
                }
                let silent = ctx.now().since(self.last_gw_hello).as_secs_f64();
                if silent >= self.cfg.grid.gateway_silence {
                    self.no_gateway_event(ctx);
                } else {
                    // re-arm for the remainder
                    self.watch_epoch += 1;
                    ctx.set_timer_secs(
                        self.cfg.grid.gateway_silence - silent,
                        EcTimer::GatewayWatch {
                            epoch: self.watch_epoch,
                        },
                    );
                }
            }
            EcTimer::Dwell { epoch } => {
                if epoch != self.dwell_epoch || self.role != Role::Sleeping {
                    return;
                }
                // the host CPU wakes; check the GPS without powering the radio
                let here = ctx.cell();
                if here == self.my_grid {
                    if ctx.now().since(self.sleep_since).as_secs_f64() >= self.cfg.orphan_check_secs {
                        // orphaned-cell check: wake and revalidate the
                        // gateway with the ACQ handshake — a crashed
                        // gateway can never page its sleepers awake, so
                        // this is the only path out of a dead cell
                        self.stats.orphan_checks += 1;
                        self.wake_with_acq(ctx, self.me);
                        return;
                    }
                    self.stats.dwell_extensions += 1;
                    self.arm_dwell(ctx);
                } else {
                    // left the grid while asleep (§3.2): wake, tell the old
                    // gateway, join the new grid
                    self.wake_to_member(ctx);
                    debug_assert_ne!(
                        self.gateway,
                        Some(self.me),
                        "a sleeper dozed off as a member, and every path into Member names another host or none"
                    );
                    self.leave_for(ctx, self.my_grid, here);
                }
            }
            EcTimer::SleepAfterQuiet { epoch } => {
                if epoch != self.quiet_epoch || self.role != Role::Member {
                    return;
                }
                if !self.pending_own.is_empty() || self.awaiting_acq {
                    self.arm_quiet_sleep(ctx);
                    return;
                }
                self.go_to_sleep(ctx);
            }
            EcTimer::RetireSend { grid } => {
                let Some(retiring) = self.retiring.take() else {
                    return;
                };
                let (g, routes, hosts) = *retiring;
                debug_assert_eq!(g, grid);
                ctx.broadcast(EcMsg::Retire {
                    grid: g,
                    routes,
                    hosts,
                });
                self.plane.neighbors.forget_node(self.me);
                if self.role == Role::Gateway && self.my_grid == grid {
                    // load-balance retire: stay in the grid and stand for
                    // re-election with my (now lower) level
                    self.host_table.clear();
                    self.start_election(ctx);
                }
                // if we left the grid, enter_grid already runs the arrival
                // protocol for the new grid
            }
            EcTimer::ForwardBuffered { dst } => {
                let Some(q) = self.paging.as_mut().and_then(|p| p.pending_wake.remove(&dst)) else {
                    return;
                };
                if self.role != Role::Gateway {
                    self.plane.stats.data_dropped += q.len() as u32;
                    return;
                }
                self.host_table.insert(dst, HostEntry::awake(ctx.now()));
                for d in q {
                    self.plane.record_forward(ctx, &d.packet);
                    ctx.unicast(dst, d.into());
                }
            }
            EcTimer::HandoffGrace { epoch } => {
                if epoch != self.handoff_epoch || self.role != Role::Member {
                    return;
                }
                self.stats.handoff_timeouts += 1;
                let me = self.me;
                let cell = self.my_grid;
                ctx.emit(|| EventKind::GatewayHandoffTimeout { node: me, cell });
                self.no_gateway_event(ctx);
            }
            EcTimer::AcqTimeout { epoch } => {
                if epoch != self.acq_epoch || !self.awaiting_acq {
                    return;
                }
                self.awaiting_acq = false;
                if self.role == Role::Member {
                    self.no_gateway_event(ctx);
                }
            }
            EcTimer::DiscoveryTimeout(t) => {
                if self.role != Role::Gateway {
                    // retired (possibly asleep) since starting the search
                    if self.plane.awaits(&t) {
                        self.plane.abandon_discovery(t.dst);
                    }
                    return;
                }
                self.plane
                    .on_discovery_timeout(ctx, &self.cfg.grid, self.my_grid, t);
            }
        }
    }

    fn on_page(&mut self, ctx: &mut Ctx<'_, Self>, signal: PageSignal) {
        // The RAS hardware has already powered the transceiver on — the
        // protocol must follow it out of sleep unconditionally, or radio
        // and protocol state desynchronize.
        if self.role != Role::Sleeping {
            return;
        }
        self.wake_to_member(ctx);
        // A grid broadcast sequence addresses the grid we are *physically*
        // in; if we drifted while asleep, this is the moment the GPS gets
        // read — run the §3.2 departure flow instead of waiting for the
        // (now stale) dwell timer.
        let here = ctx.cell();
        if here != self.my_grid {
            self.leave_for(ctx, self.my_grid, here);
            return;
        }
        // A broadcast sequence for my own grid is almost always a retiring
        // gateway about to hand over (§3.2).  If the RETIRE (or any
        // gateway HELLO) never arrives — the gateway crashed mid-handoff —
        // the grace timer declares a no-gateway event instead of leaving
        // the grid black-holed.
        if matches!(signal, PageSignal::Grid(g) if g == self.my_grid) && self.role == Role::Member {
            self.handoff_epoch += 1;
            ctx.set_timer_secs(
                self.cfg.handoff_grace,
                EcTimer::HandoffGrace {
                    epoch: self.handoff_epoch,
                },
            );
        }
    }

    fn on_cell_change(&mut self, ctx: &mut Ctx<'_, Self>, old: GridCoord, new: GridCoord) {
        match self.role {
            Role::Gateway => {
                // §3.2 "hosts move out of a grid", gateway case
                self.gateway_leave(ctx, old, false);
                self.role = Role::Member; // formally off duty while retiring
                self.gateway = None;
                self.enter_grid(ctx, new);
            }
            // §3.2 non-gateway case: unicast the departure
            Role::Member | Role::Electing => self.leave_for(ctx, old, new),
            Role::Sleeping => {
                // unreachable: the world suppresses GPS callbacks in sleep
            }
        }
    }

    fn on_app_send(&mut self, ctx: &mut Ctx<'_, Self>, dst: NodeId, packet: AppPacket) {
        match self.role {
            Role::Gateway => self.route_data(ctx, DataMsg::new(packet, self.me, dst, self.my_grid)),
            Role::Member => {
                self.arm_quiet_sleep(ctx);
                if let Some(gw) = self.gateway {
                    ctx.unicast(gw, DataMsg::new(packet, self.me, dst, self.my_grid).into());
                } else {
                    self.pending_own.push((dst, packet));
                }
            }
            Role::Electing => {
                self.pending_own.push((dst, packet));
            }
            Role::Sleeping => {
                // §3.3: wake and handshake — the gateway may have changed
                self.pending_own.push((dst, packet));
                self.wake_with_acq(ctx, dst);
            }
        }
    }

    fn on_unicast_failed(&mut self, ctx: &mut Ctx<'_, Self>, dst: NodeId, msg: &EcMsg) {
        match msg {
            EcMsg::Data(d) => {
                // a local delivery failed: the host slipped into sleep
                // between its last HELLO and our forward — mark it and go
                // through the page+buffer path instead of tearing routes
                if self.role == Role::Gateway && dst == d.dst {
                    if let Some(e) = self.host_table.get_mut(&dst) {
                        e.asleep = true;
                        // if a page preceded this failure it went
                        // unanswered — count it against the retry budget
                        let attempts = self.paging.as_mut().and_then(|p| p.page_attempts.get_mut(&dst));
                        if let Some(attempts) = attempts {
                            *attempts += 1;
                            if *attempts >= self.cfg.max_page_attempts {
                                Paging::forget(&mut self.paging, dst);
                                self.host_table.remove(&dst);
                                self.stats.page_gave_up += 1;
                                self.plane.stats.data_dropped += 1;
                                return;
                            }
                        }
                        if d.ttl > 0 {
                            self.route_data(ctx, d.hop(self.my_grid));
                            return;
                        }
                    }
                }
                // next hop is gone: clean up and re-route (§3.4)
                self.plane.neighbors.forget_node(dst);
                self.plane.routes.remove_via(dst);
                self.host_table.remove(&dst);
                Paging::forget(&mut self.paging, dst);
                if Some(dst) == self.gateway && self.role == Role::Member {
                    // my own gateway vanished
                    self.pending_own.push((d.dst, d.packet));
                    self.no_gateway_event(ctx);
                    return;
                }
                if self.role == Role::Gateway && d.ttl > 0 {
                    self.route_data(ctx, d.hop(self.my_grid));
                } else {
                    self.plane.stats.data_dropped += 1;
                }
            }
            EcMsg::Rrep(r) => {
                // reverse path broke; the source's discovery timer retries
                self.plane.routes.remove(r.src);
                self.plane.neighbors.forget_node(dst);
            }
            EcMsg::TableXfer { .. } | EcMsg::Leave { .. } => {
                self.plane.neighbors.forget_node(dst);
            }
            _ => {}
        }
    }
}
