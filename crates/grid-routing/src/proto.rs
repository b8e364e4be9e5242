//! The GRID state machine: gateway election by distance, always-on hosts,
//! grid-by-grid discovery and forwarding.

use grid_common::{
    elect_gateway, HelloInfo, NeighborGateways, RouteSnapshot, RouteTable, Rrep, Rreq, RreqSeen,
    SearchStrategy,
};
use manet::sim_engine::IdMap;
use manet::{
    AppPacket, Ctx, EventKind, FrameKind, GridCoord, GridRect, NodeId, Protocol, SimDuration, SimTime,
    WireSize,
};
use rand::Rng;
use std::collections::VecDeque;

const DATA_TTL: u8 = 32;

/// GRID protocol parameters (a strict subset of ECGRID's; no sleep knobs).
#[derive(Clone, Copy, Debug)]
pub struct GridConfig {
    pub hello_interval: f64,
    pub hello_jitter: f64,
    pub election_window: f64,
    pub gateway_silence: f64,
    pub discovery_timeout: f64,
    pub max_discovery_attempts: u32,
    pub route_ttl: f64,
    pub neighbor_ttl: f64,
    /// Search-area construction for the first discovery round.
    pub search: SearchStrategy,
    pub buffer_cap: usize,
    pub gw_response_min_gap: f64,
}

impl Default for GridConfig {
    fn default() -> Self {
        GridConfig {
            hello_interval: 1.0,
            hello_jitter: 0.1,
            election_window: 1.0,
            gateway_silence: 3.0,
            discovery_timeout: 0.5,
            max_discovery_attempts: 3,
            route_ttl: 60.0,
            neighbor_ttl: 3.5,
            search: SearchStrategy::CoveringRect,
            buffer_cap: 64,
            gw_response_min_gap: 0.2,
        }
    }
}

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
    Data {
        packet: AppPacket,
        src: NodeId,
        dst: NodeId,
        via_grid: GridCoord,
        ttl: u8,
    },
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
            GridMsg::Data { packet, .. } => packet.bytes + 29,
        }
    }
}

/// GRID timers.
#[derive(Clone, Debug, PartialEq)]
pub enum GridTimer {
    Hello,
    ElectionDecide { epoch: u32 },
    GatewayWatch { epoch: u32 },
    DiscoveryTimeout { dst: NodeId, attempt: u32 },
}

/// Host role; there is no sleeping state in GRID.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GridRole {
    Electing,
    Member,
    Gateway,
}

/// Per-host counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GridStats {
    pub elections_started: u64,
    pub became_gateway: u64,
    pub retires: u64,
    pub rreqs_sent: u64,
    pub rreqs_forwarded: u64,
    pub rreps_sent: u64,
    pub data_forwarded: u64,
    pub data_delivered: u64,
    pub data_dropped: u64,
}

/// One GRID instance.
pub struct GridProto {
    cfg: GridConfig,
    me: NodeId,
    role: GridRole,
    my_grid: GridCoord,
    gateway: Option<NodeId>,
    routes: RouteTable,
    seen: RreqSeen,
    neighbors: NeighborGateways,
    host_table: IdMap<NodeId, SimTime>,
    candidates: Vec<HelloInfo>,
    election_epoch: u32,
    watch_epoch: u32,
    my_seq: u32,
    rreq_counter: u32,
    pending_route: IdMap<NodeId, VecDeque<GridMsg>>,
    discovering: IdMap<NodeId, u32>,
    pending_own: Vec<(NodeId, AppPacket)>,
    dst_hints: IdMap<NodeId, GridCoord>,
    last_gw_hello: SimTime,
    last_own_hello: SimTime,
    /// The cell the trace recorder believes this host is gateway of
    /// (keeps GatewayElect/GatewayRetire strictly alternating per host).
    gw_traced: Option<GridCoord>,
    pub stats: GridStats,
}

impl GridProto {
    pub fn new(cfg: GridConfig, me: NodeId) -> Self {
        GridProto {
            cfg,
            me,
            role: GridRole::Electing,
            my_grid: GridCoord::new(0, 0),
            gateway: None,
            routes: RouteTable::new(SimDuration::from_secs_f64(cfg.route_ttl)),
            seen: RreqSeen::default(),
            neighbors: NeighborGateways::new(SimDuration::from_secs_f64(cfg.neighbor_ttl)),
            host_table: IdMap::default(),
            candidates: Vec::new(),
            election_epoch: 0,
            watch_epoch: 0,
            my_seq: 0,
            rreq_counter: 0,
            pending_route: IdMap::default(),
            discovering: IdMap::default(),
            pending_own: Vec::new(),
            dst_hints: IdMap::default(),
            last_gw_hello: SimTime::ZERO,
            last_own_hello: SimTime::ZERO,
            gw_traced: None,
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

    /// Location-service hook (see `Ecgrid::seed_location`).
    pub fn seed_location(&mut self, dst: NodeId, grid: GridCoord) {
        self.dst_hints.insert(dst, grid);
    }

    // ----- helpers -----------------------------------------------------

    /// Reconcile the trace's view of this host's gateway tenure with
    /// `role` (see the equivalent helper in `ecgrid`).
    fn sync_gateway_trace(&mut self, ctx: &mut Ctx<'_, Self>) {
        let me = self.me;
        let now_gw = self.role == GridRole::Gateway;
        match (self.gw_traced, now_gw) {
            (None, true) => {
                let cell = self.my_grid;
                self.gw_traced = Some(cell);
                ctx.emit(|| EventKind::GatewayElect { node: me, cell });
            }
            (Some(old), false) => {
                self.gw_traced = None;
                ctx.emit(|| EventKind::GatewayRetire { node: me, cell: old });
            }
            (Some(old), true) if old != self.my_grid => {
                let cell = self.my_grid;
                self.gw_traced = Some(cell);
                ctx.emit(|| EventKind::GatewayRetire { node: me, cell: old });
                ctx.emit(|| EventKind::GatewayElect { node: me, cell });
            }
            _ => {}
        }
    }

    fn my_hello(&self, ctx: &mut Ctx<'_, Self>, gflag: bool) -> HelloInfo {
        // level is carried but ignored by GRID's election (energy_aware=false)
        HelloInfo {
            id: self.me,
            grid: self.my_grid,
            gflag,
            level: ctx.level(),
            dist: ctx.dist_to_center(),
        }
    }

    fn send_hello(&mut self, ctx: &mut Ctx<'_, Self>, gflag: bool) {
        let h = self.my_hello(ctx, gflag);
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
        self.sync_gateway_trace(ctx);
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
        self.sync_gateway_trace(ctx);
        self.gateway = Some(gateway);
        self.last_gw_hello = ctx.now();
        self.host_table.clear();
        self.arm_gateway_watch(ctx);
        self.flush_pending_own(ctx);
    }

    fn become_gateway(&mut self, ctx: &mut Ctx<'_, Self>) {
        self.stats.became_gateway += 1;
        self.role = GridRole::Gateway;
        self.sync_gateway_trace(ctx);
        self.gateway = Some(self.me);
        self.send_hello(ctx, true);
        let now = ctx.now();
        for c in &self.candidates {
            if c.id != self.me && c.grid == self.my_grid {
                self.host_table.insert(c.id, now);
            }
        }
        self.candidates.clear();
        let own: Vec<(NodeId, AppPacket)> = self.pending_own.drain(..).collect();
        for (dst, packet) in own {
            let msg = GridMsg::Data {
                packet,
                src: self.me,
                dst,
                via_grid: self.my_grid,
                ttl: DATA_TTL,
            };
            self.route_data(ctx, msg);
        }
    }

    fn flush_pending_own(&mut self, ctx: &mut Ctx<'_, Self>) {
        let Some(gw) = self.gateway else { return };
        let own: Vec<(NodeId, AppPacket)> = self.pending_own.drain(..).collect();
        for (dst, packet) in own {
            ctx.unicast(
                gw,
                GridMsg::Data {
                    packet,
                    src: self.me,
                    dst,
                    via_grid: self.my_grid,
                    ttl: DATA_TTL,
                },
            );
        }
    }

    fn enter_grid(&mut self, ctx: &mut Ctx<'_, Self>, new: GridCoord) {
        self.my_grid = new;
        self.host_table.clear();
        self.gateway = None;
        self.role = GridRole::Electing;
        self.sync_gateway_trace(ctx);
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

    fn route_data(&mut self, ctx: &mut Ctx<'_, Self>, msg: GridMsg) {
        let GridMsg::Data {
            packet,
            src,
            dst,
            ttl,
            ..
        } = msg
        else {
            unreachable!("route_data only handles Data");
        };
        if dst == self.me {
            self.stats.data_delivered += 1;
            ctx.deliver_app(packet);
            return;
        }
        if ttl == 0 {
            self.stats.data_dropped += 1;
            return;
        }
        let now = ctx.now();
        if self.host_table.contains_key(&dst) {
            // everyone is always on in GRID: deliver directly
            self.stats.data_forwarded += 1;
            let me = self.me;
            ctx.emit(|| EventKind::PacketForwarded {
                node: me,
                flow: packet.flow,
                seq: packet.seq,
            });
            ctx.unicast(
                dst,
                GridMsg::Data {
                    packet,
                    src,
                    dst,
                    via_grid: self.my_grid,
                    ttl: ttl - 1,
                },
            );
            return;
        }
        if let Some(route) = self.routes.lookup(dst, now) {
            let next = self.neighbors.get(route.next_grid, now).unwrap_or(route.via_node);
            self.stats.data_forwarded += 1;
            let me = self.me;
            ctx.emit(|| EventKind::PacketForwarded {
                node: me,
                flow: packet.flow,
                seq: packet.seq,
            });
            ctx.unicast(
                next,
                GridMsg::Data {
                    packet,
                    src,
                    dst,
                    via_grid: route.next_grid,
                    ttl: ttl - 1,
                },
            );
            return;
        }
        let q = self.pending_route.entry(dst).or_default();
        if q.len() >= self.cfg.buffer_cap {
            q.pop_front();
            self.stats.data_dropped += 1;
        }
        q.push_back(GridMsg::Data {
            packet,
            src,
            dst,
            via_grid: self.my_grid,
            ttl,
        });
        self.start_discovery(ctx, dst, 0);
    }

    fn start_discovery(&mut self, ctx: &mut Ctx<'_, Self>, dst: NodeId, attempt: u32) {
        if attempt == 0 && self.discovering.contains_key(&dst) {
            return;
        }
        self.discovering.insert(dst, attempt);
        self.my_seq += 1;
        self.rreq_counter += 1;
        let range = if attempt == 0 {
            self.cfg
                .search
                .range_for(self.my_grid, self.dst_hints.get(&dst).copied())
        } else {
            GridRect::everywhere()
        };
        let rreq = Rreq {
            src: self.me,
            s_seq: self.my_seq,
            dst,
            d_seq: 0,
            id: self.rreq_counter,
            range,
            last_grid: self.my_grid,
        };
        self.seen.insert(self.me, self.rreq_counter);
        self.stats.rreqs_sent += 1;
        ctx.broadcast(GridMsg::Rreq(rreq));
        ctx.set_timer_secs(
            self.cfg.discovery_timeout,
            GridTimer::DiscoveryTimeout { dst, attempt },
        );
    }

    fn flush_route_buffer(&mut self, ctx: &mut Ctx<'_, Self>, dst: NodeId) {
        let Some(q) = self.pending_route.remove(&dst) else {
            return;
        };
        for msg in q {
            self.route_data(ctx, msg);
        }
    }

    // ----- frame handlers ------------------------------------------------

    fn on_hello(&mut self, ctx: &mut Ctx<'_, Self>, src: NodeId, h: HelloInfo) {
        let now = ctx.now();
        if h.gflag {
            self.neighbors.note(h.grid, h.id, now);
        } else if self.neighbors.get(h.grid, now) == Some(h.id) {
            self.neighbors.forget_grid(h.grid);
        }
        if h.grid != self.my_grid {
            if self.role == GridRole::Gateway {
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
                                routes: self.routes.snapshot(),
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

    fn on_rreq(&mut self, ctx: &mut Ctx<'_, Self>, src: NodeId, r: Rreq) {
        let now = ctx.now();
        if r.dst == self.me {
            self.my_seq += 1;
            self.routes.upsert(r.src, r.last_grid, src, r.s_seq, now);
            let rep = Rrep {
                src: r.src,
                dst: self.me,
                d_seq: self.my_seq,
                from_grid: self.my_grid,
                dst_grid: self.my_grid,
            };
            self.stats.rreps_sent += 1;
            ctx.unicast(src, GridMsg::Rrep(rep));
            return;
        }
        if self.role != GridRole::Gateway {
            return;
        }
        if !r.range.contains(self.my_grid) {
            return;
        }
        if !self.seen.insert(r.src, r.id) {
            return;
        }
        self.routes.upsert(r.src, r.last_grid, src, r.s_seq, now);
        if self.host_table.contains_key(&r.dst) {
            self.my_seq += 1;
            let rep = Rrep {
                src: r.src,
                dst: r.dst,
                d_seq: self.my_seq,
                from_grid: self.my_grid,
                dst_grid: self.my_grid,
            };
            self.stats.rreps_sent += 1;
            ctx.unicast(src, GridMsg::Rrep(rep));
            return;
        }
        let mut fwd = r;
        fwd.last_grid = self.my_grid;
        self.stats.rreqs_forwarded += 1;
        ctx.broadcast(GridMsg::Rreq(fwd));
    }

    fn on_rrep(&mut self, ctx: &mut Ctx<'_, Self>, src: NodeId, r: Rrep) {
        let now = ctx.now();
        self.routes.upsert(r.dst, r.from_grid, src, r.d_seq, now);
        self.dst_hints.insert(r.dst, r.dst_grid);
        if r.src == self.me {
            self.discovering.remove(&r.dst);
            self.flush_route_buffer(ctx, r.dst);
            return;
        }
        if let Some(back) = self.routes.lookup(r.src, now) {
            let next = self.neighbors.get(back.next_grid, now).unwrap_or(back.via_node);
            ctx.unicast(
                next,
                GridMsg::Rrep(Rrep {
                    from_grid: self.my_grid,
                    ..r
                }),
            );
        }
    }

    fn on_data(&mut self, ctx: &mut Ctx<'_, Self>, msg: GridMsg) {
        let GridMsg::Data { packet, dst, .. } = msg else {
            unreachable!()
        };
        if dst == self.me {
            self.stats.data_delivered += 1;
            ctx.deliver_app(packet);
            return;
        }
        match self.role {
            GridRole::Gateway => self.route_data(ctx, msg),
            GridRole::Member | GridRole::Electing => {
                if let (
                    Some(gw),
                    GridMsg::Data {
                        packet,
                        src,
                        dst,
                        ttl,
                        ..
                    },
                ) = (self.gateway, msg)
                {
                    if ttl > 0 && gw != self.me {
                        ctx.unicast(
                            gw,
                            GridMsg::Data {
                                packet,
                                src,
                                dst,
                                via_grid: self.my_grid,
                                ttl: ttl - 1,
                            },
                        );
                        return;
                    }
                }
                self.stats.data_dropped += 1;
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
                self.neighbors.forget_grid(*grid);
                if *grid == self.my_grid && self.role != GridRole::Gateway {
                    self.routes.install(routes, ctx.now());
                    self.start_election(ctx);
                }
            }
            GridMsg::TableXfer { routes, hosts } => {
                let now = ctx.now();
                self.routes.install(routes, now);
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
            GridMsg::Rreq(r) => self.on_rreq(ctx, src, *r),
            GridMsg::Rrep(r) => self.on_rrep(ctx, src, *r),
            GridMsg::Data { .. } => self.on_data(ctx, msg.clone()),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self>, timer: GridTimer) {
        match timer {
            GridTimer::Hello => {
                let now = ctx.now();
                self.routes.purge(now);
                self.neighbors.purge(now);
                self.send_hello(ctx, self.role == GridRole::Gateway);
                let jitter = 1.0 + self.cfg.hello_jitter * (ctx.rng().gen::<f64>() * 2.0 - 1.0);
                ctx.set_timer_secs(self.cfg.hello_interval * jitter, GridTimer::Hello);
            }
            GridTimer::ElectionDecide { epoch } => {
                if epoch != self.election_epoch || self.role != GridRole::Electing {
                    return;
                }
                let mine = self.my_hello(ctx, false);
                self.candidates.retain(|c| c.id != self.me);
                self.candidates.push(mine);
                // GRID's election: nearest to the grid center, ignore energy
                let winner = elect_gateway(self.candidates.iter(), false).expect("self is a candidate");
                if winner == self.me {
                    self.become_gateway(ctx);
                } else {
                    self.candidates.clear();
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
            GridTimer::DiscoveryTimeout { dst, attempt } => {
                if self.discovering.get(&dst) != Some(&attempt) {
                    return;
                }
                if attempt + 1 < self.cfg.max_discovery_attempts {
                    self.start_discovery(ctx, dst, attempt + 1);
                } else {
                    self.discovering.remove(&dst);
                    let dropped = self.pending_route.remove(&dst).map(|q| q.len()).unwrap_or(0);
                    self.stats.data_dropped += dropped as u64;
                }
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
                    routes: self.routes.snapshot(),
                });
                self.neighbors.forget_node(self.me);
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
            GridRole::Gateway => {
                let msg = GridMsg::Data {
                    packet,
                    src: self.me,
                    dst,
                    via_grid: self.my_grid,
                    ttl: DATA_TTL,
                };
                self.route_data(ctx, msg);
            }
            GridRole::Member => {
                if let Some(gw) = self.gateway {
                    ctx.unicast(
                        gw,
                        GridMsg::Data {
                            packet,
                            src: self.me,
                            dst,
                            via_grid: self.my_grid,
                            ttl: DATA_TTL,
                        },
                    );
                } else {
                    self.pending_own.push((dst, packet));
                }
            }
            GridRole::Electing => self.pending_own.push((dst, packet)),
        }
    }

    fn on_unicast_failed(&mut self, ctx: &mut Ctx<'_, Self>, dst: NodeId, msg: &GridMsg) {
        match msg {
            GridMsg::Data {
                packet,
                src,
                dst: final_dst,
                ttl,
                ..
            } => {
                self.neighbors.forget_node(dst);
                self.routes.remove_via(dst);
                self.host_table.remove(&dst);
                if self.gateway == Some(dst) && self.role == GridRole::Member {
                    self.pending_own.push((*final_dst, *packet));
                    self.start_election(ctx);
                    return;
                }
                if self.role == GridRole::Gateway && *ttl > 0 {
                    let retry = GridMsg::Data {
                        packet: *packet,
                        src: *src,
                        dst: *final_dst,
                        via_grid: self.my_grid,
                        ttl: ttl - 1,
                    };
                    self.route_data(ctx, retry);
                } else {
                    self.stats.data_dropped += 1;
                }
            }
            GridMsg::Rrep(r) => {
                self.routes.remove(r.src);
                self.neighbors.forget_node(dst);
            }
            _ => {}
        }
    }
}
