//! How a host applies its [`AodvCore`]'s actions, and the `Protocol`
//! adapter running a bare core on a host (every host always on — AODV
//! itself conserves nothing).

use crate::core::{Action, AodvCore, AodvMsg, AodvStats, AodvTimer};
use manet::{AppPacket, Ctx, EventKind, FrameKind, NodeId, Protocol};

/// A protocol routing over an embedded [`AodvCore`]: plain [`Aodv`], GAF
/// and Span.  Its messages and timers wrap the core's.
pub trait AodvHost: Protocol<Msg: From<AodvMsg>, Timer: From<AodvTimer>> {
    /// Send a routed unicast.  Span overrides this to hold a frame for a
    /// neighbour that sleeps through the PSM schedule.
    fn unicast(&mut self, ctx: &mut Ctx<'_, Self>, to: NodeId, m: AodvMsg) {
        ctx.unicast(to, m.into());
    }
}

/// Apply `actions` from `host`'s core.  A `Data` unicast on another
/// host's behalf is traced as a forward before it leaves, so a relay
/// shows in the trace whatever duty cycle sits on top.
pub fn run<P: AodvHost>(host: &mut P, ctx: &mut Ctx<'_, P>, actions: Vec<Action>) {
    let me = ctx.id();
    for a in actions {
        match a {
            Action::Broadcast(m) => ctx.broadcast(m.into()),
            Action::Unicast(to, m) => {
                if let AodvMsg::Data { packet, src, .. } = m {
                    if src != me {
                        let (flow, seq) = (packet.flow, packet.seq);
                        ctx.emit(|| EventKind::PacketForwarded { node: me, flow, seq });
                    }
                }
                host.unicast(ctx, to, m);
            }
            Action::Deliver(p) => ctx.deliver_app(p),
            Action::Timer(secs, t) => {
                ctx.set_timer_secs(secs, t.into());
            }
        }
    }
}

/// Plain AODV host.
pub struct Aodv {
    pub core: AodvCore,
}

impl Aodv {
    pub fn new(me: NodeId) -> Self {
        Aodv {
            core: AodvCore::new(me),
        }
    }

    pub fn stats(&self) -> &AodvStats {
        &self.core.stats
    }
}

impl AodvHost for Aodv {}

impl Protocol for Aodv {
    type Msg = AodvMsg;
    type Timer = AodvTimer;

    fn on_start(&mut self, _ctx: &mut Ctx<'_, Self>) {}

    fn on_frame(&mut self, ctx: &mut Ctx<'_, Self>, src: NodeId, _kind: FrameKind, msg: &AodvMsg) {
        let acts = self.core.on_msg(ctx.now(), src, msg);
        run(self, ctx, acts);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self>, timer: AodvTimer) {
        let acts = self.core.on_timer(ctx.now(), timer);
        run(self, ctx, acts);
    }

    fn on_app_send(&mut self, ctx: &mut Ctx<'_, Self>, dst: NodeId, packet: AppPacket) {
        let acts = self.core.send_data(ctx.now(), dst, packet);
        run(self, ctx, acts);
    }

    fn on_unicast_failed(&mut self, ctx: &mut Ctx<'_, Self>, dst: NodeId, msg: &AodvMsg) {
        let acts = self.core.on_link_failure(ctx.now(), dst, msg);
        run(self, ctx, acts);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet::{FlowSet, HostSetup, Point2, SimDuration, SimTime, World, WorldConfig};
    use mobility::MobilityTrace;
    use traffic::{CbrFlow, FlowId};

    const HORIZON: SimTime = SimTime(2_000_000_000_000);

    fn chain_world(n: u32, spacing: f64) -> World<Aodv> {
        let hosts = (0..n)
            .map(|i| {
                HostSetup::paper(MobilityTrace::stationary(
                    Point2::new(20.0 + i as f64 * spacing, 500.0),
                    HORIZON,
                ))
            })
            .collect();
        let flows = FlowSet::new(vec![CbrFlow {
            id: FlowId(0),
            src: NodeId(0),
            dst: NodeId(n - 1),
            packet_bytes: 512,
            interval: SimDuration::from_secs(1),
            start: SimTime::from_secs(1),
            stop: SimTime::from_secs(21),
            burst: None,
        }]);
        World::new(WorldConfig::paper_default(77), hosts, flows, Aodv::new)
    }

    #[test]
    fn multi_hop_chain_delivery() {
        // 5 hosts, 240 m apart: strictly one hop at a time (4 hops)
        let mut w = chain_world(5, 240.0);
        w.run_until(SimTime::from_secs(30));
        let pdr = w.ledger().delivery_rate().unwrap();
        assert!(pdr >= 0.95, "pdr {pdr}");
        let lat = w.ledger().mean_latency_ms().unwrap();
        // 4 hops x ~2.4 ms plus the first-packet discovery
        assert!((8.0..40.0).contains(&lat), "latency {lat} ms");
        // the endpoints plus intermediates forwarded traffic
        assert!(w.protocol(NodeId(2)).stats().data_forwarded > 0);
    }

    #[test]
    fn partitioned_network_drops_packets() {
        // two hosts 600 m apart: no route can exist
        let hosts = vec![
            HostSetup::paper(MobilityTrace::stationary(Point2::new(100.0, 500.0), HORIZON)),
            HostSetup::paper(MobilityTrace::stationary(Point2::new(700.0, 500.0), HORIZON)),
        ];
        let flows = FlowSet::new(vec![CbrFlow {
            id: FlowId(0),
            src: NodeId(0),
            dst: NodeId(1),
            packet_bytes: 512,
            interval: SimDuration::from_secs(1),
            start: SimTime::from_secs(1),
            stop: SimTime::from_secs(6),
            burst: None,
        }]);
        let mut w = World::new(WorldConfig::paper_default(3), hosts, flows, Aodv::new);
        w.run_until(SimTime::from_secs(15));
        assert_eq!(w.ledger().delivered_count(), 0);
        assert!(
            w.protocol(NodeId(0)).stats().rreqs_sent >= 2,
            "must have retried discovery"
        );
    }
}
