//! Grid-by-grid routing tables (§3.3).
//!
//! Entries map a destination *host* to the neighbouring *grid* through
//! which it is reachable (plus the concrete gateway node the entry was
//! learned from, so data can be unicast without an extra lookup).  Entries
//! carry the destination sequence number for freshness comparison and an
//! expiry time.

use manet::sim_engine::IdMap;
use manet::{GridCoord, NodeId, SimDuration, SimTime};
use std::ops::{Deref, DerefMut};

/// One routing-table entry.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RouteEntry {
    /// Next-hop grid toward the destination.
    pub next_grid: GridCoord,
    /// The gateway node this entry was learned from (next-hop node).
    pub via_node: NodeId,
    /// Destination sequence number (freshness, §3.3).
    pub seq: u32,
    /// Entry expiry.
    pub expires: SimTime,
}

/// Serializable snapshot: the `rtab` transferred by RETIRE / gateway
/// handoff messages.
pub type RouteSnapshot = Vec<(NodeId, RouteEntry)>;

/// A host's routes.  The table keeps no lifetime of its own: each write
/// is handed the lifetime of the entry it installs, so the routing plane
/// of every host reads the one its protocol's config holds.
#[derive(Clone, Debug, Default)]
pub struct RouteMap {
    map: IdMap<NodeId, RouteEntry>,
}

impl RouteMap {
    #[inline]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Install/refresh a route to `dst` that lives for `ttl`.  An
    /// existing entry is replaced only by a fresher one (higher seq) or an
    /// equally-fresh one (which refreshes the expiry / moves to a newer
    /// neighbour).
    pub fn upsert(
        &mut self,
        dst: NodeId,
        next_grid: GridCoord,
        via_node: NodeId,
        seq: u32,
        now: SimTime,
        ttl: SimDuration,
    ) -> bool {
        let entry = RouteEntry {
            next_grid,
            via_node,
            seq,
            expires: now + ttl,
        };
        match self.map.get(&dst) {
            Some(old) if old.seq > seq && old.expires > now => false,
            _ => {
                self.map.insert(dst, entry);
                true
            }
        }
    }

    /// Valid (unexpired) route to `dst`.
    pub fn lookup(&self, dst: NodeId, now: SimTime) -> Option<RouteEntry> {
        self.map.get(&dst).copied().filter(|e| e.expires > now)
    }

    /// Drop the route to `dst` (route error handling).
    pub fn remove(&mut self, dst: NodeId) -> Option<RouteEntry> {
        self.map.remove(&dst)
    }

    /// Drop every route through the given next-hop node (it retired/died).
    pub fn remove_via(&mut self, via: NodeId) {
        self.map.retain(|_, e| e.via_node != via);
    }

    /// Remove expired entries.
    pub fn purge(&mut self, now: SimTime) {
        self.map.retain(|_, e| e.expires > now);
    }

    /// Snapshot for a RETIRE / handoff transfer.
    pub fn snapshot(&self) -> RouteSnapshot {
        let mut v: RouteSnapshot = self.map.iter().map(|(k, v)| (*k, *v)).collect();
        v.sort_by_key(|(k, _)| *k);
        v
    }

    /// Install a received snapshot, keeping fresher local entries.
    pub fn install(&mut self, snap: &RouteSnapshot, now: SimTime) {
        for (dst, e) in snap {
            if e.expires <= now {
                continue;
            }
            match self.map.get(dst) {
                Some(old) if old.seq > e.seq && old.expires > now => {}
                _ => {
                    self.map.insert(*dst, *e);
                }
            }
        }
    }
}

/// A [`RouteMap`] that carries the lifetime of its entries, for a table
/// used outside a routing plane; every read is the map's.
#[derive(Clone, Debug)]
pub struct RouteTable {
    routes: RouteMap,
    ttl: SimDuration,
}

impl RouteTable {
    /// `ttl` is the lifetime of newly-installed entries.
    pub fn new(ttl: SimDuration) -> Self {
        RouteTable {
            routes: RouteMap::default(),
            ttl,
        }
    }

    /// [`RouteMap::upsert`] with this table's lifetime.
    pub fn upsert(
        &mut self,
        dst: NodeId,
        next_grid: GridCoord,
        via_node: NodeId,
        seq: u32,
        now: SimTime,
    ) -> bool {
        self.routes.upsert(dst, next_grid, via_node, seq, now, self.ttl)
    }
}

impl Deref for RouteTable {
    type Target = RouteMap;

    fn deref(&self) -> &RouteMap {
        &self.routes
    }
}

impl DerefMut for RouteTable {
    fn deref_mut(&mut self) -> &mut RouteMap {
        &mut self.routes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> RouteTable {
        RouteTable::new(SimDuration::from_secs(30))
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    const G1: GridCoord = GridCoord { x: 1, y: 0 };
    const G2: GridCoord = GridCoord { x: 2, y: 0 };

    #[test]
    fn upsert_and_lookup() {
        let mut rt = table();
        assert!(rt.upsert(NodeId(9), G1, NodeId(5), 1, t(0)));
        let e = rt.lookup(NodeId(9), t(10)).unwrap();
        assert_eq!(e.next_grid, G1);
        assert_eq!(e.via_node, NodeId(5));
        assert_eq!(rt.len(), 1);
    }

    #[test]
    fn entries_expire() {
        let mut rt = table();
        rt.upsert(NodeId(9), G1, NodeId(5), 1, t(0));
        assert!(rt.lookup(NodeId(9), t(29)).is_some());
        assert!(rt.lookup(NodeId(9), t(30)).is_none());
        rt.purge(t(31));
        assert!(rt.is_empty());
    }

    #[test]
    fn stale_seq_does_not_replace_fresh_route() {
        let mut rt = table();
        rt.upsert(NodeId(9), G1, NodeId(5), 5, t(0));
        assert!(!rt.upsert(NodeId(9), G2, NodeId(6), 3, t(1)));
        assert_eq!(rt.lookup(NodeId(9), t(2)).unwrap().next_grid, G1);
        // but a stale entry that has *expired* can be replaced
        assert!(rt.upsert(NodeId(9), G2, NodeId(6), 3, t(40)));
    }

    #[test]
    fn equal_seq_refreshes() {
        let mut rt = table();
        rt.upsert(NodeId(9), G1, NodeId(5), 5, t(0));
        assert!(rt.upsert(NodeId(9), G2, NodeId(6), 5, t(10)));
        let e = rt.lookup(NodeId(9), t(11)).unwrap();
        assert_eq!(e.next_grid, G2);
        assert_eq!(e.expires, t(40));
    }

    #[test]
    fn remove_via_clears_broken_neighbor() {
        let mut rt = table();
        rt.upsert(NodeId(1), G1, NodeId(5), 1, t(0));
        rt.upsert(NodeId(2), G2, NodeId(5), 1, t(0));
        rt.upsert(NodeId(3), G2, NodeId(6), 1, t(0));
        rt.remove_via(NodeId(5));
        assert!(rt.lookup(NodeId(1), t(1)).is_none());
        assert!(rt.lookup(NodeId(2), t(1)).is_none());
        assert!(rt.lookup(NodeId(3), t(1)).is_some());
    }

    #[test]
    fn snapshot_roundtrip() {
        let mut rt = table();
        rt.upsert(NodeId(1), G1, NodeId(5), 7, t(0));
        rt.upsert(NodeId(2), G2, NodeId(6), 2, t(0));
        let snap = rt.snapshot();
        assert_eq!(snap.len(), 2);

        let mut other = table();
        // other has a fresher route to 1 — must survive the install
        other.upsert(NodeId(1), G2, NodeId(9), 9, t(1));
        other.install(&snap, t(1));
        assert_eq!(other.lookup(NodeId(1), t(2)).unwrap().seq, 9);
        assert_eq!(other.lookup(NodeId(2), t(2)).unwrap().via_node, NodeId(6));
    }

    #[test]
    fn install_skips_expired_entries() {
        let mut rt = table();
        rt.upsert(NodeId(1), G1, NodeId(5), 7, t(0));
        let snap = rt.snapshot();
        let mut other = table();
        other.install(&snap, t(100)); // entries expired at t=30
        assert!(other.is_empty());
    }

    #[test]
    fn remove_returns_entry() {
        let mut rt = table();
        rt.upsert(NodeId(1), G1, NodeId(5), 7, t(0));
        assert!(rt.remove(NodeId(1)).is_some());
        assert!(rt.remove(NodeId(1)).is_none());
    }
}
