//! The GRID state machine: gateway election by distance, always-on hosts,
//! grid-by-grid discovery and forwarding.

use grid_common::{
    elect_gateway, DataMsg, DiscoveryTimeout, GridConfig, HelloInfo, RouteSnapshot, RoutingPlane,
    RoutingStats, Rrep, Rreq,
};
use manet::sim_engine::{share, IdMap};
use manet::{AppPacket, Ctx, FrameKind, GridCoord, NodeId, Protocol, SimTime, WireSize};
use rand::Rng;
use std::sync::{Arc, LazyLock};

/// Messages on the air (no ACQ — nobody sleeps).
#[derive(Clone, Debug, PartialEq)]
pub enum GridMsg {
    Hello(HelloInfo),
    Retire {
        grid: GridCoord,
        routes: RouteSnapshot,
    },
    TableXfer {
        routes: RouteSnapshot,
        hosts: Vec<NodeId>,
    },
    Leave {
        grid: GridCoord,
    },
    Rreq(Rreq),
    Rrep(Rrep),
    Data(DataMsg),
}

impl From<Rreq> for GridMsg {
    fn from(r: Rreq) -> Self {
        GridMsg::Rreq(r)
    }
}

impl From<Rrep> for GridMsg {
    fn from(r: Rrep) -> Self {
        GridMsg::Rrep(r)
    }
}

impl From<DataMsg> for GridMsg {
    fn from(d: DataMsg) -> Self {
        GridMsg::Data(d)
    }
}

impl WireSize for GridMsg {
    fn wire_bytes(&self) -> u32 {
        match self {
            GridMsg::Hello(h) => h.wire_bytes(),
            GridMsg::Retire { routes, .. } => 12 + 20 * routes.len() as u32,
            GridMsg::TableXfer { routes, hosts } => 8 + 20 * routes.len() as u32 + 4 * hosts.len() as u32,
            GridMsg::Leave { .. } => 12,
            GridMsg::Rreq(r) => r.wire_bytes(),
            GridMsg::Rrep(r) => r.wire_bytes(),
            GridMsg::Data(d) => d.wire_bytes(),
        }
    }
}

/// GRID timers.
#[derive(Clone, Debug, PartialEq)]
pub enum GridTimer {
    Hello,
    ElectionDecide { epoch: u32 },
    GatewayWatch { epoch: u32 },
    DiscoveryTimeout(DiscoveryTimeout),
}

impl From<DiscoveryTimeout> for GridTimer {
    fn from(t: DiscoveryTimeout) -> Self {
        GridTimer::DiscoveryTimeout(t)
    }
}

/// Host role; there is no sleeping state in GRID.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GridRole {
    Electing,
    Member,
    Gateway,
}

/// Per-host election counters (the routing counters are
/// [`GridProto::routing_stats`]).  32 bits each, like the routing
/// counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GridStats {
    pub elections_started: u32,
    pub became_gateway: u32,
    pub retires: u32,
}

/// One GRID instance.
pub struct GridProto {
    cfg: Arc<GridConfig>,
    me: NodeId,
    role: GridRole,
    my_grid: GridCoord,
    gateway: Option<NodeId>,
    plane: RoutingPlane,
    host_table: IdMap<NodeId, SimTime>,
    candidates: Vec<HelloInfo>,
    election_epoch: u32,
    watch_epoch: u32,
    pending_own: Vec<(NodeId, AppPacket)>,
    last_gw_hello: SimTime,
    last_own_hello: SimTime,
    pub stats: GridStats,
}

impl GridProto {
    pub fn new(cfg: GridConfig, me: NodeId) -> Self {
        static DEFAULT: LazyLock<Arc<GridConfig>> = LazyLock::new(Arc::default);
        GridProto {
            plane: RoutingPlane::new(&cfg),
            cfg: share(cfg, &DEFAULT),
            me,
            role: GridRole::Electing,
            my_grid: GridCoord::new(0, 0),
            gateway: None,
            host_table: IdMap::default(),
            candidates: Vec::new(),
            election_epoch: 0,
            watch_epoch: 0,
            pending_own: Vec::new(),
            last_gw_hello: SimTime::ZERO,
            last_own_hello: SimTime::ZERO,
            stats: GridStats::default(),
        }
    }

    pub fn role(&self) -> GridRole {
        self.role
    }

    pub fn is_gateway(&self) -> bool {
        self.role == GridRole::Gateway
    }

    pub fn gateway(&self) -> Option<NodeId> {
        self.gateway
    }

    pub fn grid(&self) -> GridCoord {
        self.my_grid
    }

    /// Discovery and forwarding counters.
    pub fn routing_stats(&self) -> RoutingStats {
        self.plane.stats
    }

    /// Location-service hook (see `RoutingPlane::seed_location`).
    pub fn seed_location(&mut self, dst: NodeId, grid: GridCoord) {
        self.plane.seed_location(dst, grid);
    }

    // ----- helpers -----------------------------------------------------

    fn send_hello(&mut self, ctx: &mut Ctx<'_, Self>, gflag: bool) {
        // level is carried but ignored by GRID's election (energy_aware=false)
        let h = HelloInfo::announce(ctx, self.my_grid, gflag);
        self.last_own_hello = ctx.now();
        ctx.broadcast(GridMsg::Hello(h));
    }

    fn start_election(&mut self, ctx: &mut Ctx<'_, Self>) {
        self.stats.elections_started += 1;
        self.role = GridRole::Electing;
        self.gateway = None;
        self.candidates.clear();
        self.election_epoch += 1;
        self.send_hello(ctx, false);
        ctx.set_timer_secs(
            self.cfg.election_window,
            GridTimer::ElectionDecide {
                epoch: self.election_epoch,
            },
        );
        self.plane.tenure.sync(ctx, self.my_grid, self.is_gateway());
    }

    fn arm_gateway_watch(&mut self, ctx: &mut Ctx<'_, Self>) {
        self.watch_epoch += 1;
        ctx.set_timer_secs(
            self.cfg.gateway_silence,
            GridTimer::GatewayWatch {
                epoch: self.watch_epoch,
            },
        );
    }

    fn become_member(&mut self, ctx: &mut Ctx<'_, Self>, gateway: NodeId) {
        self.role = GridRole::Member;
        // the vote is over: give the candidate list's storage back (the
        // next election allocates afresh)
        self.candidates = Vec::new();
        self.plane.tenure.sync(ctx, self.my_grid, self.is_gateway());
        self.gateway = Some(gateway);
        self.last_gw_hello = ctx.now();
        self.host_table.clear();
        self.arm_gateway_watch(ctx);
        self.flush_pending_own(ctx);
    }

    fn become_gateway(&mut self, ctx: &mut Ctx<'_, Self>) {
        self.stats.became_gateway += 1;
        self.role = GridRole::Gateway;
        self.plane.tenure.sync(ctx, self.my_grid, self.is_gateway());
        self.gateway = Some(self.me);
        self.send_hello(ctx, true);
        // the candidates are my initial host table; the vote is over, so
        // their storage goes with them
        let now = ctx.now();
        for c in std::mem::take(&mut self.candidates) {
            if c.id != self.me && c.grid == self.my_grid {
                self.host_table.insert(c.id, now);
            }
        }
        let own: Vec<(NodeId, AppPacket)> = self.pending_own.drain(..).collect();
        for (dst, packet) in own {
            self.route_data(ctx, DataMsg::new(packet, self.me, dst, self.my_grid));
        }
    }

    fn flush_pending_own(&mut self, ctx: &mut Ctx<'_, Self>) {
        let Some(gw) = self.gateway else { return };
        let own: Vec<(NodeId, AppPacket)> = self.pending_own.drain(..).collect();
        for (dst, packet) in own {
            ctx.unicast(gw, DataMsg::new(packet, self.me, dst, self.my_grid).into());
        }
    }

    fn enter_grid(&mut self, ctx: &mut Ctx<'_, Self>, new: GridCoord) {
        self.my_grid = new;
        self.host_table.clear();
        self.gateway = None;
        self.role = GridRole::Electing;
        self.plane.tenure.sync(ctx, self.my_grid, self.is_gateway());
        self.candidates.clear();
        self.election_epoch += 1;
        self.send_hello(ctx, false);
        ctx.set_timer_secs(
            self.cfg.election_window,
            GridTimer::ElectionDecide {
                epoch: self.election_epoch,
            },
        );
    }

    // ----- data plane ---------------------------------------------------

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
        if self.host_table.contains_key(&d.dst) {
            // everyone is always on in GRID: deliver directly
            self.plane.record_forward(ctx, &d.packet);
            ctx.unicast(d.dst, d.hop(self.my_grid).into());
            return;
        }
        self.plane.forward(ctx, &self.cfg, self.my_grid, d);
    }

    // ----- frame handlers ------------------------------------------------

    fn on_hello(&mut self, ctx: &mut Ctx<'_, Self>, src: NodeId, h: HelloInfo) {
        let now = ctx.now();
        self.plane.overhear_hello(&self.cfg, &h, now);
        if h.grid != self.my_grid {
            // the table is often empty: then there is nothing to look up
            if self.role == GridRole::Gateway && !self.host_table.is_empty() {
                self.host_table.remove(&src);
            }
            return;
        }
        match self.role {
            GridRole::Electing => {
                if h.gflag {
                    self.election_epoch += 1;
                    self.become_member(ctx, h.id);
                } else {
                    self.candidates.retain(|c| c.id != h.id);
                    self.candidates.push(h);
                }
            }
            GridRole::Member => {
                if h.gflag {
                    self.gateway = Some(h.id);
                    self.last_gw_hello = now;
                    self.arm_gateway_watch(ctx);
                    if !self.pending_own.is_empty() {
                        self.flush_pending_own(ctx);
                    }
                }
            }
            GridRole::Gateway => {
                if h.gflag && src != self.me {
                    // stable conflict resolution: smallest id (distance
                    // drifts with motion and can deadlock the duel)
                    if h.id < self.me {
                        ctx.unicast(
                            h.id,
                            GridMsg::TableXfer {
                                routes: self.plane.routes.snapshot(),
                                hosts: self.host_table.keys().copied().collect(),
                            },
                        );
                        self.host_table.clear();
                        self.become_member(ctx, h.id);
                    } else if now.since(self.last_own_hello).as_secs_f64() > self.cfg.gw_response_min_gap {
                        self.send_hello(ctx, true);
                    }
                } else if !h.gflag {
                    self.host_table.insert(src, now);
                    if now.since(self.last_own_hello).as_secs_f64() > self.cfg.gw_response_min_gap {
                        self.send_hello(ctx, true);
                    }
                }
            }
        }
    }

    fn on_data(&mut self, ctx: &mut Ctx<'_, Self>, d: DataMsg) {
        if d.dst == self.me {
            self.plane.stats.data_delivered += 1;
            ctx.deliver_app(d.packet);
            return;
        }
        match self.role {
            GridRole::Gateway => self.route_data(ctx, d),
            GridRole::Member | GridRole::Electing => {
                self.plane.bounce_to_gateway(ctx, self.my_grid, self.gateway, d)
            }
        }
    }
}

impl Protocol for GridProto {
    type Msg = GridMsg;
    type Timer = GridTimer;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Self>) {
        self.my_grid = ctx.cell();
        let stagger = ctx.rng().gen_range(0.0..0.3);
        self.election_epoch += 1;
        self.role = GridRole::Electing;
        ctx.set_timer_secs(stagger, GridTimer::Hello);
        ctx.set_timer_secs(
            self.cfg.election_window + stagger,
            GridTimer::ElectionDecide {
                epoch: self.election_epoch,
            },
        );
    }

    fn on_frame(&mut self, ctx: &mut Ctx<'_, Self>, src: NodeId, _kind: FrameKind, msg: &GridMsg) {
        match msg {
            GridMsg::Hello(h) => self.on_hello(ctx, src, *h),
            GridMsg::Retire { grid, routes } => {
                self.plane.neighbors.forget_grid(*grid);
                if *grid == self.my_grid && self.role != GridRole::Gateway {
                    self.plane.routes.install(routes, ctx.now());
                    self.start_election(ctx);
                }
            }
            GridMsg::TableXfer { routes, hosts } => {
                let now = ctx.now();
                self.plane.routes.install(routes, now);
                if self.role == GridRole::Gateway {
                    for h in hosts {
                        if *h != self.me {
                            self.host_table.entry(*h).or_insert(now);
                        }
                    }
                }
            }
            GridMsg::Leave { .. } => {
                if self.role == GridRole::Gateway {
                    self.host_table.remove(&src);
                }
            }
            GridMsg::Rreq(r) => {
                // only a gateway relays searches or answers for its hosts
                let hosts = self.is_gateway().then_some(&self.host_table);
                self.plane.on_rreq(ctx, &self.cfg, self.my_grid, src, *r, hosts);
            }
            GridMsg::Rrep(r) => {
                // a completed search of my own releases its buffer
                if let Some(buffered) = self.plane.on_rrep(ctx, &self.cfg, self.my_grid, src, *r) {
                    for d in buffered {
                        self.route_data(ctx, d);
                    }
                }
            }
            GridMsg::Data(d) => self.on_data(ctx, *d),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self>, timer: GridTimer) {
        match timer {
            GridTimer::Hello => {
                self.plane.purge(&self.cfg, ctx.now());
                self.send_hello(ctx, self.role == GridRole::Gateway);
                let delay = self.cfg.hello_delay(ctx.rng().gen());
                ctx.set_timer_secs(delay, GridTimer::Hello);
            }
            GridTimer::ElectionDecide { epoch } => {
                if epoch != self.election_epoch || self.role != GridRole::Electing {
                    return;
                }
                let mine = HelloInfo::announce(ctx, self.my_grid, false);
                self.candidates.retain(|c| c.id != self.me);
                self.candidates.push(mine);
                // GRID's election: nearest to the grid center, ignore energy
                let winner = elect_gateway(self.candidates.iter(), false).expect("self is a candidate");
                if winner == self.me {
                    self.become_gateway(ctx);
                } else {
                    self.become_member(ctx, winner);
                }
            }
            GridTimer::GatewayWatch { epoch } => {
                if epoch != self.watch_epoch || self.role != GridRole::Member {
                    return;
                }
                let silent = ctx.now().since(self.last_gw_hello).as_secs_f64();
                if silent >= self.cfg.gateway_silence {
                    self.start_election(ctx);
                } else {
                    self.watch_epoch += 1;
                    ctx.set_timer_secs(
                        self.cfg.gateway_silence - silent,
                        GridTimer::GatewayWatch {
                            epoch: self.watch_epoch,
                        },
                    );
                }
            }
            GridTimer::DiscoveryTimeout(t) => {
                self.plane.on_discovery_timeout(ctx, &self.cfg, self.my_grid, t)
            }
        }
    }

    fn on_cell_change(&mut self, ctx: &mut Ctx<'_, Self>, old: GridCoord, new: GridCoord) {
        match self.role {
            GridRole::Gateway => {
                // hand the old grid its routing table; everyone is awake, so
                // no paging is needed — GRID retires immediately
                self.stats.retires += 1;
                ctx.broadcast(GridMsg::Retire {
                    grid: old,
                    routes: self.plane.routes.snapshot(),
                });
                self.plane.neighbors.forget_node(self.me);
                self.enter_grid(ctx, new);
            }
            GridRole::Member | GridRole::Electing => {
                if let Some(gw) = self.gateway {
                    if gw != self.me {
                        ctx.unicast(gw, GridMsg::Leave { grid: old });
                    }
                }
                self.enter_grid(ctx, new);
            }
        }
    }

    fn on_app_send(&mut self, ctx: &mut Ctx<'_, Self>, dst: NodeId, packet: AppPacket) {
        match self.role {
            GridRole::Gateway => self.route_data(ctx, DataMsg::new(packet, self.me, dst, self.my_grid)),
            GridRole::Member => {
                if let Some(gw) = self.gateway {
                    ctx.unicast(gw, DataMsg::new(packet, self.me, dst, self.my_grid).into());
                } else {
                    self.pending_own.push((dst, packet));
                }
            }
            GridRole::Electing => self.pending_own.push((dst, packet)),
        }
    }

    fn on_unicast_failed(&mut self, ctx: &mut Ctx<'_, Self>, dst: NodeId, msg: &GridMsg) {
        match msg {
            GridMsg::Data(d) => {
                self.plane.neighbors.forget_node(dst);
                self.plane.routes.remove_via(dst);
                self.host_table.remove(&dst);
                if self.gateway == Some(dst) && self.role == GridRole::Member {
                    self.pending_own.push((d.dst, d.packet));
                    self.start_election(ctx);
                    return;
                }
                if self.role == GridRole::Gateway && d.ttl > 0 {
                    self.route_data(ctx, d.hop(self.my_grid));
                } else {
                    self.plane.stats.data_dropped += 1;
                }
            }
            GridMsg::Rrep(r) => {
                self.plane.routes.remove(r.src);
                self.plane.neighbors.forget_node(dst);
            }
            _ => {}
        }
    }
}
