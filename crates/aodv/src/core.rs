//! The AODV state machine as a pure core emitting actions.

use manet::{AppPacket, NodeId, SimDuration, SimTime, WireSize};
use std::collections::{HashMap, HashSet, VecDeque};

const DATA_TTL: u8 = 32;

/// Route lifetime (seconds).
pub const ROUTE_TTL: f64 = 60.0;
/// Per-attempt discovery timeout (seconds).
pub const DISCOVERY_TIMEOUT: f64 = 0.25;
/// Discovery attempts before pending packets are dropped.
pub const MAX_DISCOVERY_ATTEMPTS: u32 = 4;
/// Max packets buffered per destination awaiting a route.
pub const BUFFER_CAP: usize = 64;

/// AODV wire messages.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AodvMsg {
    Rreq {
        src: NodeId,
        s_seq: u32,
        bcast_id: u32,
        dst: NodeId,
        d_seq: u32,
        hops: u8,
    },
    Rrep {
        src: NodeId,
        dst: NodeId,
        d_seq: u32,
        hops: u8,
    },
    Rerr {
        dst: NodeId,
        d_seq: u32,
    },
    Data {
        packet: AppPacket,
        src: NodeId,
        dst: NodeId,
        ttl: u8,
    },
}

impl WireSize for AodvMsg {
    fn wire_bytes(&self) -> u32 {
        match self {
            AodvMsg::Rreq { .. } => 24,
            AodvMsg::Rrep { .. } => 20,
            AodvMsg::Rerr { .. } => 12,
            AodvMsg::Data { packet, .. } => packet.bytes + 21,
        }
    }
}

/// AODV timers.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AodvTimer {
    DiscoveryTimeout { dst: NodeId, attempt: u32 },
}

/// What the core wants its host environment to do.
#[derive(Clone, Debug, PartialEq)]
pub enum Action {
    Broadcast(AodvMsg),
    Unicast(NodeId, AodvMsg),
    Deliver(AppPacket),
    Timer(f64, AodvTimer),
}

/// Per-core counters (32 bits: no host counts 2³² of anything in a run).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AodvStats {
    pub rreqs_sent: u32,
    pub rreqs_forwarded: u32,
    pub rreps_sent: u32,
    pub data_forwarded: u32,
    pub data_delivered: u32,
    pub data_dropped: u32,
    pub rerrs_sent: u32,
}

#[derive(Clone, Copy, Debug)]
struct HostRoute {
    next_hop: NodeId,
    seq: u32,
    hops: u8,
    expires: SimTime,
}

/// The AODV state machine for one host.
pub struct AodvCore {
    me: NodeId,
    /// Whether this host relays foreign traffic (Model-1 endpoints do not).
    pub forwards: bool,
    routes: HashMap<NodeId, HostRoute>,
    seen: HashSet<(NodeId, u32)>,
    seen_order: VecDeque<(NodeId, u32)>,
    my_seq: u32,
    bcast_id: u32,
    pending: HashMap<NodeId, VecDeque<(AppPacket, NodeId)>>,
    discovering: HashMap<NodeId, u32>,
    pub stats: AodvStats,
}

impl AodvCore {
    pub fn new(me: NodeId) -> Self {
        AodvCore {
            me,
            forwards: true,
            routes: HashMap::new(),
            seen: HashSet::new(),
            seen_order: VecDeque::new(),
            my_seq: 0,
            bcast_id: 0,
            pending: HashMap::new(),
            discovering: HashMap::new(),
            stats: AodvStats::default(),
        }
    }

    pub fn route_count(&self) -> usize {
        self.routes.len()
    }

    pub fn has_route(&self, dst: NodeId, now: SimTime) -> bool {
        self.routes.get(&dst).map(|r| r.expires > now).unwrap_or(false)
    }

    pub fn next_hop(&self, dst: NodeId, now: SimTime) -> Option<NodeId> {
        self.routes
            .get(&dst)
            .filter(|r| r.expires > now)
            .map(|r| r.next_hop)
    }

    fn ttl_from(&self, now: SimTime) -> SimTime {
        now + SimDuration::from_secs_f64(ROUTE_TTL)
    }

    fn mark_seen(&mut self, src: NodeId, id: u32) -> bool {
        if !self.seen.insert((src, id)) {
            return false;
        }
        self.seen_order.push_back((src, id));
        if self.seen_order.len() > 4096 {
            if let Some(old) = self.seen_order.pop_front() {
                self.seen.remove(&old);
            }
        }
        true
    }

    /// Install/refresh a route if fresher or shorter-at-equal-freshness.
    fn upsert_route(&mut self, dst: NodeId, next_hop: NodeId, seq: u32, hops: u8, now: SimTime) {
        let cand = HostRoute {
            next_hop,
            seq,
            hops,
            expires: self.ttl_from(now),
        };
        match self.routes.get(&dst) {
            Some(old) if old.expires > now && (old.seq > seq || (old.seq == seq && old.hops < hops)) => {}
            _ => {
                self.routes.insert(dst, cand);
            }
        }
    }

    /// The application wants `packet` delivered to `dst`.
    pub fn send_data(&mut self, now: SimTime, dst: NodeId, packet: AppPacket) -> Vec<Action> {
        self.dispatch_data(
            now,
            AodvMsg::Data {
                packet,
                src: self.me,
                dst,
                ttl: DATA_TTL,
            },
        )
    }

    fn dispatch_data(&mut self, now: SimTime, msg: AodvMsg) -> Vec<Action> {
        let AodvMsg::Data {
            packet,
            src,
            dst,
            ttl,
        } = msg
        else {
            unreachable!()
        };
        let mut out = Vec::new();
        if dst == self.me {
            self.stats.data_delivered += 1;
            out.push(Action::Deliver(packet));
            return out;
        }
        if ttl == 0 {
            self.stats.data_dropped += 1;
            return out;
        }
        if let Some(r) = self.routes.get(&dst).filter(|r| r.expires > now) {
            self.stats.data_forwarded += 1;
            out.push(Action::Unicast(
                r.next_hop,
                AodvMsg::Data {
                    packet,
                    src,
                    dst,
                    ttl: ttl - 1,
                },
            ));
            return out;
        }
        // buffer + discover
        let q = self.pending.entry(dst).or_default();
        if q.len() >= BUFFER_CAP {
            q.pop_front();
            self.stats.data_dropped += 1;
        }
        q.push_back((packet, src));
        out.extend(self.start_discovery(now, dst, 0));
        out
    }

    fn start_discovery(&mut self, now: SimTime, dst: NodeId, attempt: u32) -> Vec<Action> {
        if attempt == 0 && self.discovering.contains_key(&dst) {
            return Vec::new();
        }
        self.discovering.insert(dst, attempt);
        self.my_seq += 1;
        self.bcast_id += 1;
        self.mark_seen(self.me, self.bcast_id);
        let d_seq = self.routes.get(&dst).map(|r| r.seq).unwrap_or(0);
        self.stats.rreqs_sent += 1;
        let _ = now;
        vec![
            Action::Broadcast(AodvMsg::Rreq {
                src: self.me,
                s_seq: self.my_seq,
                bcast_id: self.bcast_id,
                dst,
                d_seq,
                hops: 0,
            }),
            Action::Timer(DISCOVERY_TIMEOUT, AodvTimer::DiscoveryTimeout { dst, attempt }),
        ]
    }

    fn flush_pending(&mut self, now: SimTime, dst: NodeId) -> Vec<Action> {
        let Some(q) = self.pending.remove(&dst) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for (packet, src) in q {
            out.extend(self.dispatch_data(
                now,
                AodvMsg::Data {
                    packet,
                    src,
                    dst,
                    ttl: DATA_TTL,
                },
            ));
        }
        out
    }

    /// Drop every buffered packet and abandon in-flight discoveries —
    /// called when the host powers its transceiver down (a sleeping node
    /// cannot deliver what it holds, and serving minute-old packets after
    /// waking would only distort latency).
    pub fn clear_pending(&mut self) -> u32 {
        let n: u32 = self.pending.values().map(|q| q.len() as u32).sum();
        self.pending.clear();
        self.discovering.clear();
        self.stats.data_dropped += n;
        n
    }

    /// A frame arrived from neighbour `from`.
    pub fn on_msg(&mut self, now: SimTime, from: NodeId, msg: &AodvMsg) -> Vec<Action> {
        match *msg {
            AodvMsg::Rreq {
                src,
                s_seq,
                bcast_id,
                dst,
                d_seq,
                hops,
            } => {
                if src == self.me || !self.mark_seen(src, bcast_id) {
                    return Vec::new();
                }
                // reverse route toward the source
                self.upsert_route(src, from, s_seq, hops + 1, now);
                if dst == self.me {
                    self.my_seq = self.my_seq.max(d_seq) + 1;
                    self.stats.rreps_sent += 1;
                    return vec![Action::Unicast(
                        from,
                        AodvMsg::Rrep {
                            src,
                            dst,
                            d_seq: self.my_seq,
                            hops: 0,
                        },
                    )];
                }
                // intermediate node with a fresh-enough route replies on the
                // destination's behalf (standard AODV) — but only if it is
                // willing to carry the resulting traffic (a non-forwarding
                // endpoint advertising a route would blackhole the flow)
                if self.forwards {
                    if let Some(r) = self
                        .routes
                        .get(&dst)
                        .filter(|r| r.expires > now && r.seq >= d_seq && r.seq > 0)
                    {
                        self.stats.rreps_sent += 1;
                        return vec![Action::Unicast(
                            from,
                            AodvMsg::Rrep {
                                src,
                                dst,
                                d_seq: r.seq,
                                hops: r.hops,
                            },
                        )];
                    }
                }
                if !self.forwards {
                    return Vec::new(); // Model-1 endpoints do not relay
                }
                self.stats.rreqs_forwarded += 1;
                vec![Action::Broadcast(AodvMsg::Rreq {
                    src,
                    s_seq,
                    bcast_id,
                    dst,
                    d_seq,
                    hops: hops.saturating_add(1),
                })]
            }
            AodvMsg::Rrep {
                src,
                dst,
                d_seq,
                hops,
            } => {
                // forward route toward the destination
                self.upsert_route(dst, from, d_seq, hops + 1, now);
                if src == self.me {
                    self.discovering.remove(&dst);
                    return self.flush_pending(now, dst);
                }
                // relay along the reverse path
                match self.routes.get(&src).filter(|r| r.expires > now) {
                    Some(r) => vec![Action::Unicast(
                        r.next_hop,
                        AodvMsg::Rrep {
                            src,
                            dst,
                            d_seq,
                            hops: hops.saturating_add(1),
                        },
                    )],
                    None => Vec::new(),
                }
            }
            AodvMsg::Rerr { dst, d_seq } => {
                // drop the broken route if not fresher than the error
                if let Some(r) = self.routes.get(&dst) {
                    if r.seq <= d_seq && r.next_hop == from {
                        self.routes.remove(&dst);
                    }
                }
                Vec::new()
            }
            AodvMsg::Data {
                packet,
                src,
                dst,
                ttl,
            } => {
                if dst == self.me {
                    self.stats.data_delivered += 1;
                    return vec![Action::Deliver(packet)];
                }
                if !self.forwards {
                    self.stats.data_dropped += 1;
                    return Vec::new();
                }
                self.dispatch_data(
                    now,
                    AodvMsg::Data {
                        packet,
                        src,
                        dst,
                        ttl,
                    },
                )
            }
        }
    }

    /// A protocol timer fired.
    pub fn on_timer(&mut self, now: SimTime, timer: AodvTimer) -> Vec<Action> {
        match timer {
            AodvTimer::DiscoveryTimeout { dst, attempt } => {
                if self.discovering.get(&dst) != Some(&attempt) {
                    return Vec::new();
                }
                if self.has_route(dst, now) {
                    self.discovering.remove(&dst);
                    return self.flush_pending(now, dst);
                }
                if attempt + 1 < MAX_DISCOVERY_ATTEMPTS {
                    self.discovering.remove(&dst);
                    self.start_discovery(now, dst, attempt + 1)
                } else {
                    self.discovering.remove(&dst);
                    let pending = self.pending.remove(&dst).unwrap_or_default();
                    self.stats.data_dropped += pending.len() as u32;
                    // local repair failed: tell the sources whose packets we
                    // were holding so they stop using us and re-discover
                    let mut out = Vec::new();
                    for (_, src) in pending {
                        if src == self.me {
                            continue;
                        }
                        if let Some(r) = self.routes.get(&src).filter(|r| r.expires > now) {
                            self.stats.rerrs_sent += 1;
                            out.push(Action::Unicast(
                                r.next_hop,
                                AodvMsg::Rerr { dst, d_seq: u32::MAX },
                            ));
                        }
                    }
                    out
                }
            }
        }
    }

    /// The MAC gave up on a unicast to `neighbor` carrying `msg`.
    ///
    /// Data packets are *locally repaired* (AODV's local-repair option):
    /// the node buffers the packet and runs its own discovery for the
    /// destination rather than dropping traffic already in flight.  An
    /// RERR goes back to the source only if the repair fails (see
    /// [`on_timer`](Self::on_timer)).
    pub fn on_link_failure(&mut self, now: SimTime, neighbor: NodeId, msg: &AodvMsg) -> Vec<Action> {
        // every route through that neighbour is suspect
        let broken: Vec<NodeId> = self
            .routes
            .iter()
            .filter(|(_, r)| r.next_hop == neighbor)
            .map(|(d, _)| *d)
            .collect();
        for d in &broken {
            self.routes.remove(d);
        }
        let mut out = Vec::new();
        if let AodvMsg::Data {
            packet,
            src,
            dst,
            ttl,
        } = *msg
        {
            if ttl > 0 {
                // buffers + floods an RREQ since the route was just purged
                out.extend(self.dispatch_data(
                    now,
                    AodvMsg::Data {
                        packet,
                        src,
                        dst,
                        ttl: ttl - 1,
                    },
                ));
            } else {
                self.stats.data_dropped += 1;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn pkt(seq: u64) -> AppPacket {
        AppPacket {
            flow: 0,
            seq,
            bytes: 512,
        }
    }

    #[test]
    fn send_without_route_floods_rreq_and_buffers() {
        let mut a = AodvCore::new(NodeId(0));
        let acts = a.send_data(t(0), NodeId(9), pkt(0));
        assert!(matches!(
            acts[0],
            Action::Broadcast(AodvMsg::Rreq { dst: NodeId(9), .. })
        ));
        assert!(matches!(
            acts[1],
            Action::Timer(_, AodvTimer::DiscoveryTimeout { .. })
        ));
        // second packet while discovering: buffered, no second flood
        let acts = a.send_data(t(0), NodeId(9), pkt(1));
        assert!(acts.is_empty());
    }

    #[test]
    fn rreq_reply_by_destination_and_reverse_route() {
        let mut d = AodvCore::new(NodeId(9));
        let rreq = AodvMsg::Rreq {
            src: NodeId(0),
            s_seq: 1,
            bcast_id: 1,
            dst: NodeId(9),
            d_seq: 0,
            hops: 2,
        };
        let acts = d.on_msg(t(1), NodeId(4), &rreq);
        assert_eq!(acts.len(), 1);
        assert!(matches!(
            acts[0],
            Action::Unicast(
                NodeId(4),
                AodvMsg::Rrep {
                    src: NodeId(0),
                    dst: NodeId(9),
                    ..
                }
            )
        ));
        // reverse route to 0 via 4 was installed
        assert_eq!(d.next_hop(NodeId(0), t(2)), Some(NodeId(4)));
    }

    #[test]
    fn duplicate_rreq_is_suppressed() {
        let mut n = AodvCore::new(NodeId(5));
        let rreq = AodvMsg::Rreq {
            src: NodeId(0),
            s_seq: 1,
            bcast_id: 7,
            dst: NodeId(9),
            d_seq: 0,
            hops: 0,
        };
        let first = n.on_msg(t(0), NodeId(1), &rreq);
        assert!(matches!(
            first[0],
            Action::Broadcast(AodvMsg::Rreq { hops: 1, .. })
        ));
        let second = n.on_msg(t(0), NodeId(2), &rreq);
        assert!(second.is_empty());
    }

    #[test]
    fn rrep_relays_along_reverse_path_and_flushes_at_source() {
        let mut s = AodvCore::new(NodeId(0));
        // source floods for 9
        s.send_data(t(0), NodeId(9), pkt(0));
        // reply comes back from neighbour 1
        let acts = s.on_msg(
            t(1),
            NodeId(1),
            &AodvMsg::Rrep {
                src: NodeId(0),
                dst: NodeId(9),
                d_seq: 3,
                hops: 2,
            },
        );
        // buffered data goes out via 1
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Unicast(NodeId(1), AodvMsg::Data { dst: NodeId(9), .. })
        )));
        assert_eq!(s.next_hop(NodeId(9), t(2)), Some(NodeId(1)));
    }

    #[test]
    fn intermediate_with_fresh_route_replies() {
        let mut m = AodvCore::new(NodeId(5));
        // m learned a route to 9 (seq 4) earlier
        m.on_msg(
            t(0),
            NodeId(6),
            &AodvMsg::Rrep {
                src: NodeId(5),
                dst: NodeId(9),
                d_seq: 4,
                hops: 1,
            },
        );
        let rreq = AodvMsg::Rreq {
            src: NodeId(0),
            s_seq: 1,
            bcast_id: 1,
            dst: NodeId(9),
            d_seq: 2,
            hops: 0,
        };
        let acts = m.on_msg(t(1), NodeId(1), &rreq);
        assert!(
            matches!(
                acts[0],
                Action::Unicast(
                    NodeId(1),
                    AodvMsg::Rrep {
                        dst: NodeId(9),
                        d_seq: 4,
                        ..
                    }
                )
            ),
            "{acts:?}"
        );
    }

    #[test]
    fn non_forwarding_endpoint_neither_relays_rreq_nor_data() {
        let mut e = AodvCore::new(NodeId(3));
        e.forwards = false;
        let rreq = AodvMsg::Rreq {
            src: NodeId(0),
            s_seq: 1,
            bcast_id: 1,
            dst: NodeId(9),
            d_seq: 0,
            hops: 0,
        };
        assert!(e.on_msg(t(0), NodeId(1), &rreq).is_empty());
        let data = AodvMsg::Data {
            packet: pkt(0),
            src: NodeId(0),
            dst: NodeId(9),
            ttl: 5,
        };
        assert!(e.on_msg(t(0), NodeId(1), &data).is_empty());
        assert_eq!(e.stats.data_dropped, 1);
        // ... but still replies when it *is* the destination
        let rreq_to_me = AodvMsg::Rreq {
            src: NodeId(0),
            s_seq: 1,
            bcast_id: 2,
            dst: NodeId(3),
            d_seq: 0,
            hops: 0,
        };
        let acts = e.on_msg(t(0), NodeId(1), &rreq_to_me);
        assert!(matches!(acts[0], Action::Unicast(_, AodvMsg::Rrep { .. })));
    }

    #[test]
    fn discovery_retries_then_drops() {
        let mut a = AodvCore::new(NodeId(0));
        a.send_data(t(0), NodeId(9), pkt(0));
        let last = MAX_DISCOVERY_ATTEMPTS - 1;
        // every timeout but the last: retry
        for attempt in 0..last {
            let acts = a.on_timer(
                t(u64::from(attempt) + 1),
                AodvTimer::DiscoveryTimeout {
                    dst: NodeId(9),
                    attempt,
                },
            );
            assert!(matches!(acts[0], Action::Broadcast(AodvMsg::Rreq { .. })));
            assert_eq!(a.stats.data_dropped, 0);
        }
        // the last timeout: give up, buffered packet dropped
        let acts = a.on_timer(
            t(u64::from(last) + 1),
            AodvTimer::DiscoveryTimeout {
                dst: NodeId(9),
                attempt: last,
            },
        );
        assert!(acts.is_empty());
        assert_eq!(a.stats.data_dropped, 1);
        assert_eq!(a.stats.rreqs_sent, MAX_DISCOVERY_ATTEMPTS);
    }

    #[test]
    fn link_failure_purges_routes_and_rediscovers_own_traffic() {
        let mut s = AodvCore::new(NodeId(0));
        s.send_data(t(0), NodeId(9), pkt(0));
        s.on_msg(
            t(1),
            NodeId(1),
            &AodvMsg::Rrep {
                src: NodeId(0),
                dst: NodeId(9),
                d_seq: 3,
                hops: 2,
            },
        );
        assert!(s.has_route(NodeId(9), t(2)));
        let failed = AodvMsg::Data {
            packet: pkt(5),
            src: NodeId(0),
            dst: NodeId(9),
            ttl: 30,
        };
        let acts = s.on_link_failure(t(2), NodeId(1), &failed);
        assert!(!s.has_route(NodeId(9), t(2)));
        // own packet triggers a fresh discovery
        assert!(acts
            .iter()
            .any(|a| matches!(a, Action::Broadcast(AodvMsg::Rreq { dst: NodeId(9), .. }))));
    }

    #[test]
    fn rerr_removes_route_through_reporting_neighbor() {
        let mut n = AodvCore::new(NodeId(2));
        n.on_msg(
            t(0),
            NodeId(3),
            &AodvMsg::Rrep {
                src: NodeId(2),
                dst: NodeId(9),
                d_seq: 3,
                hops: 1,
            },
        );
        assert!(n.has_route(NodeId(9), t(1)));
        n.on_msg(
            t(1),
            NodeId(3),
            &AodvMsg::Rerr {
                dst: NodeId(9),
                d_seq: u32::MAX,
            },
        );
        assert!(!n.has_route(NodeId(9), t(1)));
    }

    #[test]
    fn stale_seq_does_not_downgrade_route() {
        let mut n = AodvCore::new(NodeId(2));
        n.upsert_route(NodeId(9), NodeId(3), 10, 2, t(0));
        n.upsert_route(NodeId(9), NodeId(4), 5, 1, t(1));
        assert_eq!(n.next_hop(NodeId(9), t(2)), Some(NodeId(3)));
        // equal seq, fewer hops wins
        n.upsert_route(NodeId(9), NodeId(5), 10, 1, t(1));
        assert_eq!(n.next_hop(NodeId(9), t(2)), Some(NodeId(5)));
    }

    #[test]
    fn wire_sizes() {
        assert_eq!(
            AodvMsg::Rreq {
                src: NodeId(0),
                s_seq: 0,
                bcast_id: 0,
                dst: NodeId(1),
                d_seq: 0,
                hops: 0
            }
            .wire_bytes(),
            24
        );
        assert_eq!(
            AodvMsg::Data {
                packet: pkt(0),
                src: NodeId(0),
                dst: NodeId(1),
                ttl: 3
            }
            .wire_bytes(),
            533
        );
    }
}
