//! Route discovery packets (§3.3) and duplicate suppression.

use manet::sim_engine::IdSet;
use manet::{AppPacket, GridCoord, GridRect, NodeId, WireSize};
use std::collections::VecDeque;

/// Route request — `RREQ(S, s_seq, D, d_seq, id, range)` plus the grid the
/// packet was last rebroadcast from (carried so receivers can set up the
/// reverse pointer "to the grid coordinate of the previous sending
/// gateway").
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Rreq {
    pub src: NodeId,
    pub s_seq: u32,
    pub dst: NodeId,
    pub d_seq: u32,
    /// Per-source request id; `(src, id)` detects duplicates.
    pub id: u32,
    /// The confined search area; gateways outside ignore the packet.
    pub range: GridRect,
    /// Grid of the gateway that (re)broadcast this copy.
    pub last_grid: GridCoord,
}

impl WireSize for Rreq {
    fn wire_bytes(&self) -> u32 {
        // src 4 + s_seq 4 + dst 4 + d_seq 4 + id 4 + range 16 + last_grid 8
        44
    }
}

/// Route reply — `RREP(S, D, d_seq)` unicast hop-by-hop along the reverse
/// path, plus the replying/forwarding gateway's grid for the forward
/// pointer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Rrep {
    pub src: NodeId,
    pub dst: NodeId,
    pub d_seq: u32,
    /// Grid of the gateway that sent this copy (the receiver's next hop
    /// toward `dst`).
    pub from_grid: GridCoord,
    /// The destination's own grid, carried unchanged along the reverse
    /// path — every relaying gateway (and finally the source) learns D's
    /// location, so the *next* discovery can confine its search area to
    /// the covering rectangle (§3.3).
    pub dst_grid: GridCoord,
}

impl WireSize for Rrep {
    fn wire_bytes(&self) -> u32 {
        // src 4 + dst 4 + d_seq 4 + from_grid 8 + dst_grid 8
        28
    }
}

/// Initial TTL of data packets in grid-by-grid transit.
pub const DATA_TTL: u8 = 32;

/// A data packet in transit through the grid overlay.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DataMsg {
    pub packet: AppPacket,
    pub src: NodeId,
    pub dst: NodeId,
    /// The grid this copy is addressed to (its gateway forwards it); lets
    /// a broadcast fallback reach the right gateway when the concrete
    /// gateway node is unknown.
    pub via_grid: GridCoord,
    /// Hops left; bounds forwarding.
    pub ttl: u8,
}

impl DataMsg {
    /// A packet entering the overlay at `src`, addressed to `via_grid`.
    pub fn new(packet: AppPacket, src: NodeId, dst: NodeId, via_grid: GridCoord) -> Self {
        DataMsg {
            packet,
            src,
            dst,
            via_grid,
            ttl: DATA_TTL,
        }
    }

    /// The copy sent one hop on, addressed to `via_grid`.  The caller has
    /// checked `ttl > 0`.
    pub fn hop(self, via_grid: GridCoord) -> Self {
        DataMsg {
            via_grid,
            ttl: self.ttl - 1,
            ..self
        }
    }
}

impl WireSize for DataMsg {
    fn wire_bytes(&self) -> u32 {
        // payload + src 4 + dst 4 + via 8 + flow/seq 12 + ttl 1
        self.packet.bytes + 29
    }
}

/// Bounded duplicate-RREQ filter keyed on `(src, id)`.
#[derive(Clone, Debug)]
pub struct RreqSeen {
    set: IdSet<(NodeId, u32)>,
    order: VecDeque<(NodeId, u32)>,
    cap: usize,
}

impl Default for RreqSeen {
    fn default() -> Self {
        Self::new(4096)
    }
}

impl RreqSeen {
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0);
        RreqSeen {
            set: IdSet::default(),
            order: VecDeque::new(),
            cap,
        }
    }

    /// Record `(src, id)`; returns true if it was new (process it), false
    /// if it is a duplicate (ignore it).
    pub fn insert(&mut self, src: NodeId, id: u32) -> bool {
        if !self.set.insert((src, id)) {
            return false;
        }
        self.order.push_back((src, id));
        if self.order.len() > self.cap {
            if let Some(old) = self.order.pop_front() {
                self.set.remove(&old);
            }
        }
        true
    }

    pub fn contains(&self, src: NodeId, id: u32) -> bool {
        self.set.contains(&(src, id))
    }

    pub fn len(&self) -> usize {
        self.set.len()
    }

    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicate_suppression() {
        let mut seen = RreqSeen::default();
        assert!(seen.insert(NodeId(1), 0));
        assert!(!seen.insert(NodeId(1), 0));
        assert!(seen.insert(NodeId(1), 1));
        assert!(seen.insert(NodeId(2), 0));
        assert!(seen.contains(NodeId(1), 0));
        assert_eq!(seen.len(), 3);
    }

    #[test]
    fn bounded_capacity_evicts_oldest() {
        let mut seen = RreqSeen::new(2);
        seen.insert(NodeId(1), 1);
        seen.insert(NodeId(1), 2);
        seen.insert(NodeId(1), 3); // evicts (1,1)
        assert!(!seen.contains(NodeId(1), 1));
        assert!(seen.contains(NodeId(1), 2));
        assert!(seen.contains(NodeId(1), 3));
        // an evicted id would be processed again — acceptable, it is stale
        assert!(seen.insert(NodeId(1), 1));
    }

    #[test]
    fn wire_sizes() {
        let rreq = Rreq {
            src: NodeId(0),
            s_seq: 0,
            dst: NodeId(1),
            d_seq: 0,
            id: 0,
            range: GridRect::covering(GridCoord::new(0, 0), GridCoord::new(1, 1)),
            last_grid: GridCoord::new(0, 0),
        };
        assert_eq!(rreq.wire_bytes(), 44);
        let rrep = Rrep {
            src: NodeId(0),
            dst: NodeId(1),
            d_seq: 0,
            from_grid: GridCoord::new(0, 0),
            dst_grid: GridCoord::new(0, 0),
        };
        assert_eq!(rrep.wire_bytes(), 28);
    }

    #[test]
    fn data_carries_payload_plus_header() {
        let packet = AppPacket {
            flow: 0,
            seq: 0,
            bytes: 512,
        };
        let d = DataMsg::new(packet, NodeId(0), NodeId(1), GridCoord::new(0, 0));
        assert_eq!(d.ttl, DATA_TTL);
        assert_eq!(d.wire_bytes(), 541);
        let next = d.hop(GridCoord::new(1, 0));
        assert_eq!((next.ttl, next.via_grid), (DATA_TTL - 1, GridCoord::new(1, 0)));
        assert_eq!(next.wire_bytes(), 541);
    }

    #[test]
    fn search_range_confinement_example() {
        // the Fig. 2 scenario: search confined to the rectangle over
        // S=(1,1), D=(5,3) — the paper's 15 cells; gateway in (0,2) must
        // ignore the RREQ
        let range = GridRect::covering(GridCoord::new(1, 1), GridCoord::new(5, 3));
        assert_eq!(range.cell_count(), 15);
        assert!(range.contains(GridCoord::new(2, 2)));
        assert!(range.contains(GridCoord::new(3, 2)));
        assert!(!range.contains(GridCoord::new(0, 2)));
    }
}
