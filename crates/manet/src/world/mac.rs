//! CSMA/CA: the interface queue, contention backoff, carrier sense, and
//! the ACK exchange with its bounded retransmissions.

use super::flight::Flight;
use super::{Event, World};
use crate::protocol::{Protocol, WireSize};
use energy::RadioMode;
use radio::frame::FrameMeta;
use radio::{mac, FrameKind, NodeId};
use rand::Rng;
use std::collections::VecDeque;
use trace::EventKind;

/// Interface queue depth (frames); the tail is dropped beyond this.
const MAC_QUEUE_CAP: usize = 128;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum MacPhase {
    /// Nothing queued.
    Idle,
    /// A MacTryTx is scheduled for the head-of-queue frame.
    WaitTry,
    /// A frame is on the air.
    Transmitting(u64),
    /// Unicast sent; waiting for the ACK verdict.
    AwaitAck(u64),
}

pub(super) struct OutFrame<M> {
    kind: FrameKind,
    msg: M,
    bytes: u32,
}

pub(super) struct Mac<M> {
    pub(super) queue: VecDeque<OutFrame<M>>,
    pub(super) phase: MacPhase,
    pub(super) attempt: u32,
}

impl<M> Default for Mac<M> {
    fn default() -> Self {
        Mac {
            queue: VecDeque::new(),
            phase: MacPhase::Idle,
            attempt: 0,
        }
    }
}

impl<P: Protocol> World<P> {
    pub(super) fn mac_enqueue(&mut self, node: NodeId, kind: FrameKind, msg: P::Msg) {
        if !self.touch(node) {
            return;
        }
        // transmitting requires an active transceiver: a protocol must
        // wake() before sending (the ACQ handshake does exactly that,
        // §3.3).  A frame sent from a sleeping state is a protocol bug —
        // silently powering the radio up here would desynchronize the
        // protocol's sleep bookkeeping, so the frame is dropped instead.
        if self.hosts.meters[node.index()].mode() == RadioMode::Sleep {
            self.stats.mac_drops += 1;
            return;
        }
        let bytes = msg.wire_bytes();
        let mac = &mut self.hosts.macs[node.index()];
        // finite interface queue: tail-drop when a protocol outpaces the
        // channel (protects against pathological send loops, like real NICs)
        if mac.queue.len() >= MAC_QUEUE_CAP {
            self.stats.mac_drops += 1;
            return;
        }
        // a host's first send: room for exactly one frame, since few hosts
        // ever hold two (the queue grows as usual when one does)
        if mac.queue.capacity() == 0 {
            mac.queue.reserve_exact(1);
        }
        mac.queue.push_back(OutFrame { kind, msg, bytes });
        self.mac_kick(node);
    }

    /// Contention window for the node's head-of-queue frame: broadcasts
    /// contend over the wide [`mac::BROADCAST_CW`].
    fn head_cw(&self, node: NodeId) -> u32 {
        let m = &self.hosts.macs[node.index()];
        match m.queue.front().map(|f| f.kind) {
            Some(FrameKind::Broadcast) => mac::BROADCAST_CW,
            _ => mac::cw_for_attempt(m.attempt),
        }
    }

    /// Schedule a MacTryTx if the MAC is idle with queued frames.
    ///
    /// Every access draws an initial contention backoff (DCF-style): most
    /// frames are queued in *reaction* to a reception, so dozens of hosts
    /// would otherwise transmit at exactly now+DIFS and collide wholesale.
    pub(super) fn mac_kick(&mut self, node: NodeId) {
        let cw = self.head_cw(node);
        let i = node.index();
        if self.hosts.macs[i].phase == MacPhase::Idle
            && !self.hosts.macs[i].queue.is_empty()
            && self.hosts.meters[i].mode() != RadioMode::Sleep
        {
            self.hosts.macs[i].phase = MacPhase::WaitTry;
            let slots = self.hosts.rngs[i].gen_range(0..=cw);
            let delay = mac::DIFS + mac::backoff(slots);
            self.schedule_in(node, delay, Event::MacTryTx { node });
        }
    }

    pub(super) fn mac_try_tx(&mut self, node: NodeId) {
        if !self.touch(node) {
            return;
        }
        let now = self.now();
        let i = node.index();
        if self.hosts.macs[i].phase != MacPhase::WaitTry {
            return; // stale
        }
        if self.hosts.meters[i].mode() == RadioMode::Sleep {
            self.hosts.macs[i].phase = MacPhase::Idle; // re-kicked on wake
            return;
        }
        if self.hosts.macs[i].queue.is_empty() {
            self.hosts.macs[i].phase = MacPhase::Idle;
            return;
        }
        self.engine.channel.gc_tx_path(now);
        let pos = self.hosts.pos_at(i, now);
        if let Some(busy_end) = self.busy_until(node, pos, now) {
            // deferral: re-sense after the medium frees plus DIFS + backoff
            let cw = self.head_cw(node);
            let slots = self.hosts.rngs[i].gen_range(0..=cw);
            let at = busy_end + mac::DIFS + mac::backoff(slots);
            self.schedule_at(node, at.max(now), Event::MacTryTx { node });
            return;
        }
        // medium idle: transmit the head-of-queue frame
        let (kind, bytes, msg) = {
            let f = self.hosts.macs[i].queue.front().expect("non-empty checked");
            (f.kind, f.bytes, f.msg.clone())
        };
        let meta = FrameMeta {
            src: node,
            kind,
            payload_bytes: bytes,
        };
        let dur = mac::airtime(&meta);
        let end = now + dur;
        let tx_range = self.hosts.ranges[i];
        let tx_id = self.begin_tx(node, pos, tx_range, now, end);
        let receivers = self.freeze_receivers(node, pos, tx_range);
        for &r in &receivers {
            self.hosts.rx_refs[r.index()] += 1;
            if self.hosts.meters[r.index()].mode() == RadioMode::Idle {
                self.set_mode(r, RadioMode::Rx);
            }
        }
        self.set_mode(node, RadioMode::Tx);
        self.hosts.macs[i].phase = MacPhase::Transmitting(tx_id);
        self.stats.tx_started += 1;
        match kind {
            FrameKind::Broadcast => self.stats.broadcasts += 1,
            FrameKind::Unicast(_) => self.stats.unicasts += 1,
        }
        self.emit(|| EventKind::MacTx {
            node,
            dst: kind.dst(),
            bytes: meta.wire_bytes(),
        });
        let flight = self.flights.alloc(Flight {
            src: node,
            origin: pos,
            kind,
            msg,
            start: now,
            end,
            receivers,
            tx_id,
        });
        self.schedule_at(node, end, Event::TxEnd { node, flight });
    }

    pub(super) fn ack_done(&mut self, node: NodeId, ok: bool) {
        if !self.touch(node) {
            return;
        }
        let i = node.index();
        if !matches!(self.hosts.macs[i].phase, MacPhase::AwaitAck(_)) {
            return; // stale
        }
        if ok {
            self.mac_complete_head(node);
            return;
        }
        // ACK missing: retry with exponential backoff, bounded
        self.hosts.macs[i].attempt += 1;
        if self.hosts.macs[i].attempt > mac::MAX_RETRIES {
            self.stats.mac_drops += 1;
            let frame = self.hosts.macs[i].queue.pop_front().expect("head frame");
            if let FrameKind::Unicast(d) = frame.kind {
                self.emit(|| EventKind::MacDrop { node, dst: Some(d) });
            }
            self.hosts.macs[i].attempt = 0;
            self.hosts.macs[i].phase = MacPhase::Idle;
            if let FrameKind::Unicast(dst) = frame.kind {
                let msg = frame.msg;
                self.dispatch(node, move |p, ctx| p.on_unicast_failed(ctx, dst, &msg));
            }
            if self.hosts.sleep_pending[i] {
                self.node_sleep(node);
            }
            if self.hosts.meters[i].mode() != RadioMode::Sleep {
                self.mac_kick(node);
            }
        } else {
            self.stats.retransmissions += 1;
            let attempt = self.hosts.macs[i].attempt;
            self.emit(|| EventKind::MacRetry { node, attempt });
            let cw = mac::cw_for_attempt(attempt);
            let slots = self.hosts.rngs[i].gen_range(0..=cw);
            let delay = mac::DIFS + mac::backoff(slots);
            self.hosts.macs[i].phase = MacPhase::WaitTry;
            self.schedule_in(node, delay, Event::MacTryTx { node });
        }
    }

    /// Head-of-queue frame finished (broadcast ended / unicast acked).
    pub(super) fn mac_complete_head(&mut self, node: NodeId) {
        let i = node.index();
        let mac = &mut self.hosts.macs[i];
        mac.queue.pop_front();
        mac.attempt = 0;
        mac.phase = MacPhase::Idle;
        if self.hosts.sleep_pending[i] {
            // the protocol already decided to sleep; node_sleep applies it
            // if the queue has drained, or re-defers until it has
            self.node_sleep(node);
            if self.hosts.meters[i].mode() == RadioMode::Sleep {
                return;
            }
        }
        self.mac_kick(node);
    }
}
