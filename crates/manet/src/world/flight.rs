//! A frame on the air: receiver discovery, the receiver set frozen at tx
//! start, and reception — collisions, injected loss, delivery and the
//! ACK — when it ends.

use super::mac::MacPhase;
use super::{Event, World};
use crate::protocol::{Protocol, WireSize};
use energy::RadioMode;
use geo::{GridCoord, Point2};
use radio::{FrameKind, GatherScratch, NeighborIndex, NodeId};
use sim_engine::SimTime;
use trace::{EventKind, FaultKind};

/// A transmission in flight, with its receiver set frozen at tx start
/// (hosts that wake mid-frame missed the preamble and cannot receive it).
pub(super) struct Flight<M> {
    pub(super) src: NodeId,
    /// The sender's position at tx start (the channel entry's origin).
    pub(super) origin: Point2,
    pub(super) kind: FrameKind,
    pub(super) msg: M,
    pub(super) start: SimTime,
    pub(super) end: SimTime,
    pub(super) receivers: Vec<NodeId>,
    /// The channel's id for this transmission.
    pub(super) tx_id: u64,
}

impl<P: Protocol> World<P> {
    /// Fill `out` with the ids of nodes whose current (maintained) cell
    /// lies within radio reach of `cell`, in ascending id order.  `out` is
    /// cleared first; the caller reuses it so the hot path never allocates.
    ///
    /// This is the iteration-order contract every query path must honor:
    /// same membership (every non-dead host, at the cell its last crossing
    /// event recorded), same order (ascending id), so every downstream
    /// touch — and therefore every energy integration step and trace event
    /// — happens identically whichever path answered the query.  Because
    /// the lists are bit-identical, grid mode may flip
    /// between paths per query without perturbing the digest.
    fn fill_candidates(&self, cell: GridCoord, scratch: &mut GatherScratch, out: &mut Vec<u32>) {
        let brute = match self.cfg.neighbor_index {
            NeighborIndex::Brute => true,
            // At low occupancy the fixed per-bucket cost of the gather
            // exceeds a branch-light scan of the cells array; the index
            // mirrors `!dead_handled` exactly, so its population is the
            // number of scan hits the brute path can see.
            NeighborIndex::Grid => self.index.len() <= self.auto_threshold,
        };
        if brute {
            // Reference scan: every index member is a node with
            // `dead_handled == false`, and its bucket is its maintained
            // `cell` field — reproduce exactly that, the O(N) way, over
            // two dense arrays.
            out.clear();
            let r = self.reach_cells;
            for (j, c) in self.hosts.cells.iter().enumerate() {
                if !self.hosts.dead_handled[j] && c.chebyshev(cell) <= r {
                    out.push(j as u32);
                }
            }
        } else {
            self.index
                .gather_sorted_with(scratch, cell.x, cell.y, self.reach_cells, out);
        }
    }

    /// Receiver discovery at `cell`, via whichever neighbor-query mode the
    /// config selects: the ascending-id list of live hosts whose maintained
    /// grid cell is within radio reach.  This is the simulator's hot-path
    /// query, exposed for tools and the scaling benchmarks.
    pub fn neighbors_of(&self, cell: GridCoord) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.fill_candidates(cell, &mut GatherScratch::default(), &mut out);
        out.into_iter().map(NodeId).collect()
    }

    /// Freeze the receiver set of the frame `node` puts on the air now
    /// from `pos`: alive, transceiver on, not transmitting, within `range`
    /// at tx start.  Candidates come from the reusable scratch buffer in
    /// ascending id order (identical whichever query path filled it); the
    /// receiver vector is recycled from earlier flights, so the
    /// steady-state hot path performs zero allocations.
    pub(super) fn freeze_receivers(&mut self, node: NodeId, pos: Point2, range: f64) -> Vec<NodeId> {
        let now = self.now();
        let mut cand = std::mem::take(&mut self.gather_buf);
        let mut scratch = std::mem::take(&mut self.gather_scratch);
        self.fill_candidates(self.hosts.cells[node.index()], &mut scratch, &mut cand);
        self.gather_scratch = scratch;
        let mut receivers = self.recv_pool.pop().unwrap_or_default();
        debug_assert!(receivers.is_empty());
        if !self.parallel_freeze(node, pos, range, &cand, &mut receivers) {
            for &j in &cand {
                let jid = NodeId(j);
                if jid == node || !self.touch(jid) {
                    continue;
                }
                let listening = matches!(
                    self.hosts.meters[j as usize].mode(),
                    RadioMode::Idle | RadioMode::Rx
                );
                if listening && pos.within_range(self.hosts.pos_at(j as usize, now), range) {
                    receivers.push(jid);
                }
            }
        }
        self.gather_buf = cand;
        receivers
    }

    pub(super) fn tx_end(&mut self, node: NodeId, flight: u32) {
        let now = self.now();
        let flight = self.flights.free(flight);
        let tx_id = flight.tx_id;
        // Answer the collision question once for the whole flight: every
        // receiver was inside the sender's disc at tx start and has
        // drifted at most `max_speed * airtime` since, so the transmissions
        // that can corrupt *any* of them are the ones this short (almost
        // always empty) list holds; each receiver is then tested against
        // the list instead of walking the channel's buckets itself.
        let mut interferers = std::mem::take(&mut self.interferers);
        let drift = self.max_speed * now.since(flight.start).as_secs_f64();
        let reach = self.hosts.ranges[flight.src.index()] + drift;
        self.engine
            .channel
            .interferers_into(tx_id, &flight, reach, &mut interferers);
        // a sender that crashed mid-frame kills its own transmission
        let sender_alive = self.touch(node) && !self.hosts.crashed[node.index()];
        if sender_alive && self.hosts.meters[node.index()].mode() == RadioMode::Tx {
            self.set_mode(node, RadioMode::Idle);
        }

        // unwind receiver Rx states and evaluate reception success (the
        // success list is a recycled scratch vector)
        let mut successes = std::mem::take(&mut self.succ_buf);
        debug_assert!(successes.is_empty());
        if !self.parallel_receive(&flight, tx_id, &interferers, sender_alive, &mut successes) {
            for &r in &flight.receivers {
                let alive = self.touch(r);
                // the collision check runs only for a receiver that could
                // still hear the frame, and only when something interfered
                let corrupt = |w: &mut Self| {
                    !interferers.is_empty()
                        && w.engine.channel.corrupted_by(
                            &interferers,
                            flight.origin,
                            w.hosts.pos_at(r.index(), now),
                        )
                };
                if self.commit_reception(r, alive, sender_alive, flight.src, tx_id, corrupt) {
                    successes.push(r);
                }
            }
        }

        match flight.kind {
            FrameKind::Broadcast => {
                for &r in &successes {
                    self.deliver(r, &flight);
                }
                if sender_alive {
                    self.mac_complete_head(node);
                }
            }
            FrameKind::Unicast(dst) => {
                let ok = successes.contains(&dst);
                if ok {
                    // ACK exchange: dst transmits the ACK, sender receives it.
                    // The ACK is not modelled on the channel (it is 38 bytes
                    // after a SIFS and at the paper's load never collides);
                    // its energy is charged directly.
                    let ack_secs = radio::mac::ack_airtime().as_secs_f64();
                    let dmeter = &mut self.hosts.meters[dst.index()];
                    let d_extra = (dmeter.profile().tx_w - dmeter.profile().idle_w) * ack_secs;
                    dmeter.drain_direct(now, d_extra);
                    if sender_alive {
                        let smeter = &mut self.hosts.meters[node.index()];
                        let s_extra = (smeter.profile().rx_w - smeter.profile().idle_w) * ack_secs;
                        smeter.drain_direct(now, s_extra);
                    }
                    self.deliver(dst, &flight);
                }
                if sender_alive {
                    self.hosts.macs[node.index()].phase = MacPhase::AwaitAck(tx_id);
                    let delay = if ok {
                        radio::mac::SIFS + radio::mac::ack_airtime()
                    } else {
                        radio::mac::ack_timeout()
                    };
                    self.schedule_in(node, delay, Event::AckDone { node, ok });
                }
            }
        }
        // recycle the scratch vectors for the next flight
        self.interferers = interferers;
        successes.clear();
        self.succ_buf = successes;
        let mut recv = flight.receivers;
        recv.clear();
        self.recv_pool.push(recv);
        self.engine.channel.gc_tx_path(now);
    }

    /// Hand `flight`'s frame to receiver `r`'s protocol.
    fn deliver(&mut self, r: NodeId, flight: &Flight<P::Msg>) {
        self.stats.frames_delivered += 1;
        let (src, kind, msg) = (flight.src, flight.kind, &flight.msg);
        let bytes = msg.wire_bytes();
        self.emit(|| EventKind::MacRx {
            node: r,
            from: src,
            bytes,
        });
        self.dispatch(r, |p, ctx| p.on_frame(ctx, src, kind, msg));
    }

    /// One frozen receiver's end of a flight from `from`, once its meter
    /// is committed (`alive`): unwind its Rx state, then pass it through
    /// the reception gates — reachability, collision (`corrupt`, asked
    /// only past the reachability gate), injected frame loss — counting
    /// and emitting each miss.  True when the receiver got the frame.
    /// Both the serial loop and the threaded kernel commit through here,
    /// in receiver order.
    pub(super) fn commit_reception(
        &mut self,
        r: NodeId,
        alive: bool,
        sender_alive: bool,
        from: NodeId,
        tx_id: u64,
        corrupt: impl FnOnce(&mut Self) -> bool,
    ) -> bool {
        let j = r.index();
        if self.hosts.rx_refs[j] > 0 {
            self.hosts.rx_refs[j] -= 1;
        }
        if self.hosts.rx_refs[j] == 0 && self.hosts.meters[j].mode() == RadioMode::Rx {
            self.set_mode(r, RadioMode::Idle);
        }
        if !sender_alive || !alive || !self.hosts.meters[j].mode().can_receive() {
            self.stats.missed_unreachable += 1;
            return false;
        }
        if corrupt(self) {
            self.stats.corrupted += 1;
            self.emit(|| EventKind::MacCollision { node: r, from });
            return false;
        }
        // injected channel adversity (independent and burst loss)
        if self.fault.frame_lost(r.0, tx_id, self.now().as_nanos()) {
            self.stats.frames_lost_fault += 1;
            self.emit(|| EventKind::FaultInjected {
                node: r,
                fault: FaultKind::FrameLoss,
            });
            return false;
        }
        true
    }
}
