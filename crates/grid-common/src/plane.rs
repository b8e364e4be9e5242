//! The grid-by-grid routing plane (§3.3): route discovery, reverse-path
//! replies, remote forwarding with buffering, and the tables they work on.
//!
//! GRID and ECGRID route identically — ECGRID is GRID plus energy
//! conservation — so each host of either protocol owns one
//! [`RoutingPlane`] and calls into it.  The plane knows nothing about
//! roles, sleeping or elections: a caller hands it what it needs to know
//! (the host's current grid, the local host table when it is a gateway),
//! and everything the two protocols do differently — local delivery,
//! paging, tenure — stays in their own state machines.  The plane keeps
//! no copy of the protocol's constants: the calls that need them take the
//! caller's [`GridConfig`].

use crate::{DataMsg, GatewayCache, GridConfig, HelloInfo, RouteMap, Rrep, Rreq, RreqSeen};
use manet::sim_engine::IdMap;
use manet::{AppPacket, Ctx, EventKind, GatewayTenure, GridCoord, GridRect, NodeId, Protocol, SimTime};
use std::collections::VecDeque;

/// Timer token: discovery round `attempt` for `dst` went unanswered.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DiscoveryTimeout {
    pub dst: NodeId,
    pub attempt: u32,
}

/// Per-host routing counters (32 bits: no host counts 2³² of anything
/// in a run; sums over a fleet widen).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RoutingStats {
    pub rreqs_sent: u32,
    pub rreqs_forwarded: u32,
    pub rreps_sent: u32,
    pub data_forwarded: u32,
    pub data_delivered: u32,
    pub data_dropped: u32,
}

/// What a host learns and holds while it takes part in route searches.
#[derive(Default)]
struct Search {
    seen: RreqSeen,
    /// Packets awaiting a route (keyed by destination).
    pending_route: IdMap<NodeId, VecDeque<DataMsg>>,
    /// Discoveries in flight: dst -> attempt.
    discovering: IdMap<NodeId, u32>,
    /// Last known grid of remote destinations (learned from RREPs; may be
    /// pre-seeded through [`RoutingPlane::seed_location`]).  Confines the
    /// first search round (§3.3).
    dst_hints: IdMap<NodeId, GridCoord>,
}

impl Search {
    /// The search state in `slot`, created on the first write.
    fn of(slot: &mut Option<Box<Search>>) -> &mut Search {
        slot.get_or_insert_with(Box::default)
    }
}

/// One host's routing state.
///
/// The search state — duplicate filter, route buffer, discoveries in
/// flight, destination hints — exists only once the host has taken part
/// in a search: it is created by the first write (a buffered packet, a
/// discovery, a relayed RREQ, an RREP, a seeded location), never by a
/// read, so a host that never routes carries one empty pointer for it.
/// The tables keep no lifetime: the calls that write or judge entries
/// take the caller's [`GridConfig`] and read its TTLs.
pub struct RoutingPlane {
    pub routes: RouteMap,
    pub neighbors: GatewayCache,
    pub stats: RoutingStats,
    /// My destination sequence number.
    my_seq: u32,
    rreq_counter: u32,
    search: Option<Box<Search>>,
    /// The gateway tenure the trace has seen; the protocol syncs it after
    /// every role transition.
    pub tenure: GatewayTenure,
}

impl RoutingPlane {
    /// An empty plane for a host run with `cfg`, the config every later
    /// call is handed.
    pub fn new(cfg: &GridConfig) -> Self {
        // the TTLs are converted per call: an invalid one fails here, at
        // construction, not at the first route or HELLO
        cfg.route_lifetime();
        cfg.neighbor_lifetime();
        RoutingPlane {
            routes: RouteMap::default(),
            neighbors: GatewayCache::default(),
            stats: RoutingStats::default(),
            my_seq: 0,
            rreq_counter: 0,
            search: None,
            tenure: GatewayTenure::default(),
        }
    }

    /// Location-service hook: tell this host which grid `dst` was last
    /// seen in, so its first route search can be confined (the paper's
    /// Fig. 2 "supposes" the source has this information).
    pub fn seed_location(&mut self, dst: NodeId, grid: GridCoord) {
        Search::of(&mut self.search).dst_hints.insert(dst, grid);
    }

    /// Keep the neighbour-gateway cache current with an overheard HELLO.
    pub fn overhear_hello(&mut self, cfg: &GridConfig, h: &HelloInfo, now: SimTime) {
        if h.gflag {
            self.neighbors.note(h.grid, h.id, now);
        } else if self.neighbors.get(h.grid, now, cfg.neighbor_lifetime()) == Some(h.id) {
            // it no longer claims the grid
            self.neighbors.forget_grid(h.grid);
        }
    }

    /// Periodic housekeeping: drop expired routes and stale neighbours.
    pub fn purge(&mut self, cfg: &GridConfig, now: SimTime) {
        self.routes.purge(now);
        self.neighbors.purge(now, cfg.neighbor_lifetime());
    }

    /// Count a data forward by this host and put it on the trace.
    pub fn record_forward<P: Protocol>(&mut self, ctx: &mut Ctx<'_, P>, packet: &AppPacket) {
        self.stats.data_forwarded += 1;
        let (node, flow, seq) = (ctx.id(), packet.flow, packet.seq);
        ctx.emit(|| EventKind::PacketForwarded { node, flow, seq });
    }

    /// Remote step of data routing: forward `d` one grid along a known
    /// route, or buffer it and search for one.
    pub fn forward<P>(&mut self, ctx: &mut Ctx<'_, P>, cfg: &GridConfig, grid: GridCoord, d: DataMsg)
    where
        P: Protocol,
        P::Msg: From<DataMsg> + From<Rreq>,
        P::Timer: From<DiscoveryTimeout>,
    {
        let now = ctx.now();
        if let Some(route) = self.routes.lookup(d.dst, now) {
            let next = self
                .neighbors
                .get(route.next_grid, now, cfg.neighbor_lifetime())
                .unwrap_or(route.via_node);
            self.record_forward(ctx, &d.packet);
            ctx.unicast(next, d.hop(route.next_grid).into());
            return;
        }
        let search = Search::of(&mut self.search);
        let q = search.pending_route.entry(d.dst).or_default();
        if q.len() >= cfg.buffer_cap {
            q.pop_front();
            self.stats.data_dropped += 1;
        }
        q.push_back(DataMsg { via_grid: grid, ..d });
        self.start_discovery(ctx, cfg, grid, d.dst, 0);
    }

    /// A non-gateway was asked to forward (stale neighbour caches after a
    /// retire): bounce the packet to its own gateway, if it knows one.
    pub fn bounce_to_gateway<P>(
        &mut self,
        ctx: &mut Ctx<'_, P>,
        grid: GridCoord,
        gateway: Option<NodeId>,
        d: DataMsg,
    ) where
        P: Protocol,
        P::Msg: From<DataMsg>,
    {
        match gateway {
            Some(gw) if d.ttl > 0 && gw != ctx.id() => ctx.unicast(gw, d.hop(grid).into()),
            _ => self.stats.data_dropped += 1,
        }
    }

    fn start_discovery<P>(
        &mut self,
        ctx: &mut Ctx<'_, P>,
        cfg: &GridConfig,
        grid: GridCoord,
        dst: NodeId,
        attempt: u32,
    ) where
        P: Protocol,
        P::Msg: From<Rreq>,
        P::Timer: From<DiscoveryTimeout>,
    {
        let search = Search::of(&mut self.search);
        if attempt == 0 && search.discovering.contains_key(&dst) {
            return; // one in flight already
        }
        search.discovering.insert(dst, attempt);
        self.my_seq += 1;
        self.rreq_counter += 1;
        // first attempt: the smallest rectangle covering this grid and the
        // destination's last known one, if any; otherwise and on retries:
        // everywhere (§3.3)
        let range = match search.dst_hints.get(&dst) {
            Some(&hint) if attempt == 0 => GridRect::covering(grid, hint),
            _ => GridRect::everywhere(),
        };
        let rreq = Rreq {
            src: ctx.id(),
            s_seq: self.my_seq,
            dst,
            d_seq: 0,
            id: self.rreq_counter,
            range,
            last_grid: grid,
        };
        search.seen.insert(ctx.id(), self.rreq_counter);
        self.stats.rreqs_sent += 1;
        ctx.broadcast(rreq.into());
        ctx.set_timer_secs(cfg.discovery_timeout, DiscoveryTimeout { dst, attempt }.into());
    }

    /// Whether `t` belongs to the discovery round still in flight (not
    /// superseded by a retry, not finished by an RREP).
    pub fn awaits(&self, t: &DiscoveryTimeout) -> bool {
        self.search
            .as_ref()
            .is_some_and(|s| s.discovering.get(&t.dst) == Some(&t.attempt))
    }

    /// Give up searching for `dst`; the packets buffered for it are
    /// dropped.
    pub fn abandon_discovery(&mut self, dst: NodeId) {
        if let Some(search) = self.search.as_mut() {
            search.discovering.remove(&dst);
            let dropped = search.pending_route.remove(&dst).map_or(0, |q| q.len());
            self.stats.data_dropped += dropped as u32;
        }
    }

    /// A discovery round timed out: search again, everywhere, or give up
    /// after the configured number of attempts.
    pub fn on_discovery_timeout<P>(
        &mut self,
        ctx: &mut Ctx<'_, P>,
        cfg: &GridConfig,
        grid: GridCoord,
        t: DiscoveryTimeout,
    ) where
        P: Protocol,
        P::Msg: From<Rreq>,
        P::Timer: From<DiscoveryTimeout>,
    {
        if !self.awaits(&t) {
            return;
        }
        if t.attempt + 1 < cfg.max_discovery_attempts {
            self.start_discovery(ctx, cfg, grid, t.dst, t.attempt + 1);
        } else {
            self.abandon_discovery(t.dst);
        }
    }

    fn send_rrep<P>(&mut self, ctx: &mut Ctx<'_, P>, grid: GridCoord, to: NodeId, r: &Rreq)
    where
        P: Protocol,
        P::Msg: From<Rrep>,
    {
        self.my_seq += 1;
        let rep = Rrep {
            src: r.src,
            dst: r.dst,
            d_seq: self.my_seq,
            from_grid: grid,
            dst_grid: grid,
        };
        self.stats.rreps_sent += 1;
        ctx.unicast(to, rep.into());
    }

    /// An RREQ arrived from `from`.  `local_hosts` is the host table of
    /// this host's grid when it is the gateway, `None` otherwise — only
    /// gateways relay searches or answer for their hosts.
    pub fn on_rreq<P, H>(
        &mut self,
        ctx: &mut Ctx<'_, P>,
        cfg: &GridConfig,
        grid: GridCoord,
        from: NodeId,
        r: Rreq,
        local_hosts: Option<&IdMap<NodeId, H>>,
    ) where
        P: Protocol,
        P::Msg: From<Rreq> + From<Rrep>,
    {
        let now = ctx.now();
        // destination host replies even when it is not a gateway (§3.3:
        // "When D (or its gateway, if D is not a gateway) receives this
        // RREQ, it will unicast a reply")
        if r.dst == ctx.id() {
            self.routes
                .upsert(r.src, r.last_grid, from, r.s_seq, now, cfg.route_lifetime());
            self.send_rrep(ctx, grid, from, &r);
            return;
        }
        let Some(local_hosts) = local_hosts else {
            return;
        };
        if !r.range.contains(grid) {
            return; // outside the search area
        }
        if !Search::of(&mut self.search).seen.insert(r.src, r.id) {
            return; // duplicate
        }
        // reverse pointer to the previous sending gateway's grid
        self.routes
            .upsert(r.src, r.last_grid, from, r.s_seq, now, cfg.route_lifetime());
        if local_hosts.contains_key(&r.dst) {
            // I am the destination's gateway: reply
            self.send_rrep(ctx, grid, from, &r);
            return;
        }
        // rebroadcast with my grid as the previous hop
        self.stats.rreqs_forwarded += 1;
        ctx.broadcast(Rreq { last_grid: grid, ..r }.into());
    }

    /// An RREP arrived from `from`.  When it completes a discovery of
    /// this host's own, the packets buffered for the destination are
    /// returned, oldest first, for the caller to route.
    #[must_use]
    pub fn on_rrep<P>(
        &mut self,
        ctx: &mut Ctx<'_, P>,
        cfg: &GridConfig,
        grid: GridCoord,
        from: NodeId,
        r: Rrep,
    ) -> Option<VecDeque<DataMsg>>
    where
        P: Protocol,
        P::Msg: From<Rrep>,
    {
        let now = ctx.now();
        // forward pointer: dst reachable through the grid the RREP came from
        self.routes
            .upsert(r.dst, r.from_grid, from, r.d_seq, now, cfg.route_lifetime());
        let search = Search::of(&mut self.search);
        search.dst_hints.insert(r.dst, r.dst_grid);
        if r.src == ctx.id() {
            search.discovering.remove(&r.dst);
            return search.pending_route.remove(&r.dst);
        }
        // relay along the reverse path; without one the RREP dies here
        if let Some(back) = self.routes.lookup(r.src, now) {
            let next = self
                .neighbors
                .get(back.next_grid, now, cfg.neighbor_lifetime())
                .unwrap_or(back.via_node);
            ctx.unicast(next, Rrep { from_grid: grid, ..r }.into());
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet::{
        CbrFlow, FlowId, FlowSet, FrameKind, HostSetup, Point2, SimDuration, WireSize, World, WorldConfig,
    };
    use mobility::MobilityTrace;

    #[derive(Clone, Debug)]
    enum Msg {
        Rreq(Rreq),
        Rrep(Rrep),
        Data(DataMsg),
    }

    impl From<Rreq> for Msg {
        fn from(r: Rreq) -> Self {
            Msg::Rreq(r)
        }
    }

    impl From<Rrep> for Msg {
        fn from(r: Rrep) -> Self {
            Msg::Rrep(r)
        }
    }

    impl From<DataMsg> for Msg {
        fn from(d: DataMsg) -> Self {
            Msg::Data(d)
        }
    }

    impl WireSize for Msg {
        fn wire_bytes(&self) -> u32 {
            match self {
                Msg::Rreq(r) => r.wire_bytes(),
                Msg::Rrep(r) => r.wire_bytes(),
                Msg::Data(d) => d.wire_bytes(),
            }
        }
    }

    /// A permanent gateway with no local hosts: the plane and nothing
    /// else.
    struct Relay {
        cfg: GridConfig,
        plane: RoutingPlane,
        grid: GridCoord,
        /// Sequence numbers handed to the application, in arrival order.
        delivered: Vec<u64>,
    }

    impl Relay {
        fn route(&mut self, ctx: &mut Ctx<'_, Self>, d: DataMsg) {
            if d.dst == ctx.id() {
                self.delivered.push(d.packet.seq);
                ctx.deliver_app(d.packet);
            } else {
                self.plane.forward(ctx, &self.cfg, self.grid, d);
            }
        }
    }

    impl Protocol for Relay {
        type Msg = Msg;
        type Timer = DiscoveryTimeout;

        fn on_start(&mut self, ctx: &mut Ctx<'_, Self>) {
            self.grid = ctx.cell();
        }

        fn on_frame(&mut self, ctx: &mut Ctx<'_, Self>, src: NodeId, _kind: FrameKind, msg: &Msg) {
            match msg {
                Msg::Rreq(r) => {
                    let nobody = IdMap::<NodeId, ()>::default();
                    self.plane
                        .on_rreq(ctx, &self.cfg, self.grid, src, *r, Some(&nobody));
                }
                Msg::Rrep(r) => {
                    for d in self
                        .plane
                        .on_rrep(ctx, &self.cfg, self.grid, src, *r)
                        .into_iter()
                        .flatten()
                    {
                        self.route(ctx, d);
                    }
                }
                Msg::Data(d) => self.route(ctx, *d),
            }
        }

        fn on_timer(&mut self, ctx: &mut Ctx<'_, Self>, t: DiscoveryTimeout) {
            self.plane.on_discovery_timeout(ctx, &self.cfg, self.grid, t);
        }

        fn on_app_send(&mut self, ctx: &mut Ctx<'_, Self>, dst: NodeId, packet: AppPacket) {
            let d = DataMsg::new(packet, ctx.id(), dst, self.grid);
            self.route(ctx, d);
        }
    }

    const SRC: NodeId = NodeId(0);
    const MID: NodeId = NodeId(1);
    const DST: NodeId = NodeId(2);
    const OFF_PATH: NodeId = NodeId(3);
    const ISOLATED: NodeId = NodeId(4);

    fn config(buffer_cap: usize) -> GridConfig {
        GridConfig {
            buffer_cap,
            ..GridConfig::default()
        }
    }

    /// A chain of gateways in grids (0,0) – (2,0) – (4,0), each in range
    /// of the next only; one more in (2,2), in range of the middle one
    /// only; and one out of everybody's reach.  The source believes `to`
    /// sits in `hint`, if given, and sends it `packets` packets `gap_us`
    /// apart.
    fn chain(
        hint: Option<GridCoord>,
        to: NodeId,
        packets: u64,
        gap_us: u64,
        buffer_cap: usize,
    ) -> World<Relay> {
        let horizon = SimTime::from_secs(100);
        let hosts = [
            (50.0, 50.0),
            (250.0, 50.0),
            (450.0, 50.0),
            (250.0, 250.0),
            (950.0, 950.0),
        ]
        .map(|(x, y)| HostSetup::paper(MobilityTrace::stationary(Point2::new(x, y), horizon)));
        let start = SimTime::from_secs(1);
        let gap = SimDuration::from_micros(gap_us);
        let flows = FlowSet::new(vec![CbrFlow {
            id: FlowId(0),
            src: SRC,
            dst: to,
            packet_bytes: 512,
            interval: gap,
            start,
            stop: start + SimDuration::from_micros(gap_us * packets),
            burst: None,
        }]);
        let cfg = config(buffer_cap);
        let mut w = World::new(WorldConfig::paper_default(3), hosts.into(), flows, move |id| {
            let mut plane = RoutingPlane::new(&cfg);
            if let (SRC, Some(hint)) = (id, hint) {
                plane.seed_location(to, hint);
            }
            Relay {
                cfg,
                plane,
                grid: GridCoord::new(0, 0),
                delivered: Vec::new(),
            }
        });
        w.run_until(SimTime::from_secs(4));
        w
    }

    fn stats(w: &World<Relay>, id: NodeId) -> RoutingStats {
        w.protocol(id).plane.stats
    }

    #[test]
    fn first_round_builds_both_pointers_and_flushes_in_order() {
        // five packets inside one millisecond: all of them wait for the
        // one discovery they share.  With a hint the round is confined to
        // the rectangle over (0,0)-(4,0), which (2,2) lies outside of; it
        // hears the rebroadcast and ignores it.  Without one the round
        // searches everywhere, (2,2) included.
        for (hint, off_path_relays) in [(Some(GridCoord::new(4, 0)), 0), (None, 1)] {
            first_round(chain(hint, DST, 5, 200, 64), off_path_relays);
        }
    }

    fn first_round(w: World<Relay>, off_path_relays: u32) {
        assert_eq!(
            stats(&w, SRC).rreqs_sent,
            1,
            "one search serves every buffered packet"
        );
        assert_eq!(stats(&w, MID).rreqs_forwarded, 1);
        assert_eq!(stats(&w, OFF_PATH).rreqs_forwarded, off_path_relays);
        assert_eq!(
            w.protocol(OFF_PATH).plane.search.is_some(),
            off_path_relays > 0,
            "a search that passed (2,2) by left nothing there"
        );
        assert_eq!(stats(&w, DST).rreps_sent, 1);
        // the RREQ left reverse pointers, the RREP forward pointers, all
        // naming grids
        let now = w.now();
        let route = |at: NodeId, to: NodeId| w.protocol(at).plane.routes.lookup(to, now).unwrap();
        assert_eq!(route(MID, SRC).next_grid, GridCoord::new(0, 0));
        assert_eq!(route(MID, DST).next_grid, GridCoord::new(4, 0));
        assert_eq!(route(DST, SRC).next_grid, GridCoord::new(2, 0));
        assert_eq!(
            (route(SRC, DST).next_grid, route(SRC, DST).via_node),
            (GridCoord::new(2, 0), MID)
        );
        assert_eq!(
            w.protocol(DST).delivered,
            [0, 1, 2, 3, 4],
            "buffer flushed oldest first"
        );
        for id in [SRC, MID] {
            assert_eq!((stats(&w, id).data_forwarded, stats(&w, id).data_dropped), (5, 0));
        }
    }

    #[test]
    fn failed_confined_round_retries_everywhere_and_evicts_the_oldest() {
        // the source believes DST is next door, so the first round's
        // rectangle (0,0)-(1,0) excludes every other gateway; six packets
        // arrive before the retry, into a buffer of three
        let w = chain(Some(GridCoord::new(1, 0)), DST, 6, 50_000, 3);
        assert_eq!(stats(&w, SRC).rreqs_sent, 2, "confined, then global");
        // the global flood reaches (2,0) and through it (2,2), whose
        // rebroadcast (2,0) hears back and suppresses; the source
        // suppresses the echo of its own request
        assert_eq!(stats(&w, MID).rreqs_forwarded, 1);
        assert_eq!(stats(&w, OFF_PATH).rreqs_forwarded, 1);
        assert_eq!(stats(&w, SRC).rreqs_forwarded, 0);
        assert_eq!(stats(&w, DST).rreps_sent, 1);
        assert_eq!(stats(&w, SRC).data_dropped, 3, "evictions count as drops");
        assert_eq!(
            w.protocol(DST).delivered,
            [3, 4, 5],
            "the newest three survive, in order"
        );
        assert_eq!(w.ledger().delivered_count(), 3);
    }

    #[test]
    fn a_search_nobody_answers_is_abandoned_with_its_buffer() {
        let w = chain(Some(GridCoord::new(9, 9)), ISOLATED, 2, 50_000, 64);
        let s = stats(&w, SRC);
        assert_eq!((s.rreqs_sent, s.data_dropped, s.data_forwarded), (3, 2, 0));
        assert_eq!(stats(&w, ISOLATED), RoutingStats::default());
        // nothing is left waiting: a fourth timer would find no search
        assert!(!w.protocol(SRC).plane.awaits(&DiscoveryTimeout {
            dst: ISOLATED,
            attempt: 2
        }));
        assert!(w.protocol(ISOLATED).plane.search.is_none());
    }

    #[test]
    fn reads_create_no_search_state_and_the_first_write_does() {
        let mut plane = RoutingPlane::new(&config(64));
        // what a retired ECGRID host asks of a stale discovery timer
        let stale = DiscoveryTimeout { dst: DST, attempt: 0 };
        assert!(!plane.awaits(&stale));
        plane.abandon_discovery(DST);
        assert_eq!(plane.stats, RoutingStats::default());
        assert!(plane.search.is_none(), "a read made search state");
        plane.seed_location(DST, GridCoord::new(4, 0));
        assert!(plane.search.is_some());
        assert!(!plane.awaits(&stale), "a hint is not a search in flight");
    }
}
