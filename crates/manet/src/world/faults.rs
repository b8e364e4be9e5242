//! Injected adversity: the fault plan's crashes, rejoins and drains,
//! killed hosts, and each host's GPS error.

use super::mac::MacPhase;
use super::{Event, World};
use crate::protocol::Protocol;
use energy::RadioMode;
use radio::NodeId;
use sim_engine::{SimDuration, SimTime};
use trace::{EventKind, FaultKind};

impl<P: Protocol> World<P> {
    /// Kill a host immediately (failure injection: §3.2's "gateway is down
    /// because of an accident").  The host gets no chance to retire or
    /// hand over its tables; neighbours must detect the silence.
    pub fn kill_node(&mut self, id: NodeId) {
        let now = self.now();
        let m = &mut self.hosts.meters[id.index()];
        let remaining = m.remaining_j();
        assert!(remaining.is_finite(), "cannot kill an infinite-energy host");
        m.drain_direct(now, remaining + 1.0);
        self.touch(id); // processes the death bookkeeping
    }

    /// The GPS error in `node`'s position fix at `now`, in meters, within
    /// the host's own bound (`HostSetup::gps_sigma_m`).  A zero bound
    /// gives (0, 0) and performs no draws, so exact-position fleets stay
    /// digest-identical.  The draws are keyed on the world seed.
    pub(super) fn gps_error(&self, node: NodeId, now: SimTime) -> (f64, f64) {
        let bound = self.hosts.gps_sigmas[node.index()];
        fault::gps_offset(self.cfg.seed, node.0, bound, now.as_nanos())
    }

    /// Seed the fault plan's schedules: the first crash and drain per
    /// node (each firing schedules the next).
    pub(super) fn seed_faults(&mut self) {
        if !self.fault.is_active() {
            return;
        }
        for i in 0..self.hosts.len() {
            self.schedule_crash(NodeId(i as u32), 0);
            self.schedule_drain(NodeId(i as u32), 0);
        }
    }

    /// Schedule `node`'s `k`-th crash, if the plan has one.
    fn schedule_crash(&mut self, node: NodeId, k: u64) {
        if let Some(gap) = self.fault.crash_gap_secs(node.0, k) {
            let delay = SimDuration::from_secs_f64(gap);
            self.schedule_in(node, delay, Event::FaultCrash { node, k });
        }
    }

    /// Schedule `node`'s `k`-th drain, if the plan has one.
    fn schedule_drain(&mut self, node: NodeId, k: u64) {
        if let Some(gap) = self.fault.drain_gap_secs(node.0, k) {
            let delay = SimDuration::from_secs_f64(gap);
            self.schedule_in(node, delay, Event::FaultDrain { node, k });
        }
    }

    /// The fault plan crashes `node`: it goes silent instantly — no
    /// retirement frame, no handover, pending timers die with it — until
    /// the scheduled reboot.  (The paper's §3.2 "gateway is down because of
    /// an accident", now as a schedulable event rather than a test hook.)
    pub(super) fn fault_crash(&mut self, node: NodeId, k: u64) {
        if !self.touch(node) {
            return; // already dead for real: the chain ends here
        }
        let i = node.index();
        self.hosts.crashed[i] = true;
        let mac = &mut self.hosts.macs[i];
        mac.queue.clear();
        mac.phase = MacPhase::Idle;
        mac.attempt = 0;
        self.hosts.rx_refs[i] = 0;
        self.hosts.sleep_pending[i] = false;
        // a crashed host's pending protocol timers must never fire
        let sched = &mut self.engine.sched;
        self.timers.disarm_all_of(node, |handle| sched.cancel(handle));
        self.set_mode(node, RadioMode::Sleep);
        self.stats.crashes += 1;
        self.emit(|| EventKind::FaultInjected {
            node,
            fault: FaultKind::Crash,
        });
        let rejoin = SimDuration::from_secs_f64(self.fault.rejoin_secs());
        self.schedule_in(node, rejoin, Event::FaultRejoin { node, k: k + 1 });
    }

    /// A crashed host reboots: radio back on, protocol state rebuilt from
    /// scratch (a reboot forgets routing tables and roles), `on_start`
    /// dispatched as at t=0.
    pub(super) fn fault_rejoin(&mut self, node: NodeId, k: u64) {
        if !self.touch(node) {
            return;
        }
        self.hosts.crashed[node.index()] = false;
        self.set_mode(node, RadioMode::Idle);
        self.stats.rejoins += 1;
        self.emit(|| EventKind::FaultInjected {
            node,
            fault: FaultKind::Rejoin,
        });
        self.hosts.protos[node.index()] = (self.factory)(node);
        self.dispatch(node, |p, ctx| p.on_start(ctx));
        self.schedule_crash(node, k);
    }

    /// A sudden drain removes a fraction of the node's remaining energy
    /// (shorted rail, runaway app — adversity the level classes of Eq. 1
    /// must absorb).
    pub(super) fn fault_drain(&mut self, node: NodeId, k: u64) {
        if !self.touch(node) {
            return;
        }
        let now = self.now();
        let m = &mut self.hosts.meters[node.index()];
        let remaining = m.remaining_j();
        if remaining.is_finite() {
            m.drain_direct(now, remaining * self.fault.drain_frac());
            self.stats.fault_drains += 1;
            self.emit(|| EventKind::FaultInjected {
                node,
                fault: FaultKind::Drain,
            });
            self.touch(node); // a deep drain can be fatal on the spot
        }
        self.schedule_drain(node, k + 1);
    }
}
