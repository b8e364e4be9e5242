//! RAS paging: a page leaves its sender over the out-of-band paging
//! channel and, after the wake latency, wakes the sleeping hosts it
//! addresses within paging range.

use super::{Event, World};
use crate::protocol::Protocol;
use energy::RadioMode;
use geo::Point2;
use radio::{NodeId, PageSignal};
use sim_engine::SimDuration;
use trace::{EventKind, FaultKind};

impl<P: Protocol> World<P> {
    /// `node` pages `signal` from where it is now.
    pub(super) fn send_page(&mut self, node: NodeId, signal: PageSignal) {
        let now = self.now();
        self.stats.pages_sent += 1;
        let origin = self.hosts.pos_at(node.index(), now);
        self.emit(|| EventKind::RasPage { by: node, signal });
        let latency = self.cfg.wake_latency
            + SimDuration::from_nanos(self.fault.page_extra_delay_ns(node.0, now.as_nanos()));
        self.schedule_in(node, latency, Event::Page(Box::new((signal, origin))));
    }

    pub(super) fn page_arrives(&mut self, signal: PageSignal, origin: Point2) {
        let now = self.now();
        let range = radio::ras::PAGE_RANGE_M;
        // The paging scan is the engine's only remaining O(N)-per-event
        // loop: every host's meter advances (the page is a physical
        // instant — energy death timing must not depend on whether anyone
        // paged) and reachability is evaluated.  Threaded when engaged.
        let mut addressed = Vec::new();
        if !self.parallel_probe_all(Some((signal, origin, range)), &mut addressed) {
            for j in 0..self.hosts.len() {
                let jid = NodeId(j as u32);
                if !self.touch(jid) {
                    continue;
                }
                let pj = self.hosts.pos_at(j, now);
                if origin.within_range(pj, range) && signal.addresses(jid, self.hosts.cells[j]) {
                    addressed.push(jid);
                }
            }
        }
        for jid in addressed {
            // a crashed host's paging receiver is as dead as its radio
            if self.hosts.crashed[jid.index()] {
                continue;
            }
            // injected paging-channel loss
            if self.fault.page_lost(jid.0, now.as_nanos()) {
                self.stats.pages_lost_fault += 1;
                self.emit(|| EventKind::FaultInjected {
                    node: jid,
                    fault: FaultKind::PageLoss,
                });
                continue;
            }
            if self.hosts.meters[jid.index()].mode() == RadioMode::Sleep {
                self.set_mode(jid, RadioMode::Idle);
                self.stats.pages_woken += 1;
                self.mac_kick(jid);
            }
            self.dispatch(jid, move |p, ctx| p.on_page(ctx, signal));
        }
    }
}
