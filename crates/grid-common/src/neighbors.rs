//! The neighbour-gateway cache.
//!
//! A gateway at a grid center is in radio range of every gateway of its
//! eight neighbouring grids (the `d = sqrt(2) r / 3` rule), so it overhears
//! their periodic HELLOs.  This cache maps grid coordinates to the last
//! known gateway node of that grid, with staleness expiry.

use manet::{GridCoord, NodeId, SimDuration, SimTime};

/// Grid → (gateway node, last heard).
///
/// A host only ever hears gateways within radio range — a couple of dozen
/// grids — and [`note`](Self::note) runs once per receiver per HELLO, so
/// the cache is a small contiguous table scanned linearly: no hashing, one
/// cache line or two per lookup.  Entry order is an accident of history
/// and nothing reads it.  The cache keeps no lifetime of its own: the
/// reads that judge staleness are handed it, so the routing plane of
/// every host reads the one its protocol's config holds.
#[derive(Clone, Debug, Default)]
pub struct GatewayCache {
    entries: Vec<Entry>,
}

/// One cached gateway in 16 bytes: its grid packed into one word (a
/// world has at most `GridMap::MAX_CELLS_PER_AXIS` cells along either
/// axis, so each coordinate fits in 16 bits).
#[derive(Clone, Copy, Debug)]
struct Entry {
    grid: u32,
    gw: NodeId,
    heard: SimTime,
}

/// `grid` as an [`Entry`] key: x in the high half, y in the low half.
fn pack(grid: GridCoord) -> u32 {
    let half = |c: i32| u16::try_from(c).expect("grid coordinates fit in 16 bits (World::new checks)");
    u32::from(half(grid.x)) << 16 | u32::from(half(grid.y))
}

impl GatewayCache {
    /// Bytes one cached gateway takes.
    pub const ENTRY_BYTES: usize = std::mem::size_of::<Entry>();

    /// Record a gateway HELLO from `grid`.
    pub fn note(&mut self, grid: GridCoord, gw: NodeId, now: SimTime) {
        let entry = Entry {
            grid: pack(grid),
            gw,
            heard: now,
        };
        match self.entries.iter_mut().find(|e| e.grid == entry.grid) {
            Some(e) => *e = entry,
            None => self.entries.push(entry),
        }
    }

    /// Current gateway of `grid`, if heard less than `ttl` ago.
    pub fn get(&self, grid: GridCoord, now: SimTime, ttl: SimDuration) -> Option<NodeId> {
        let grid = pack(grid);
        self.entries
            .iter()
            .find(|e| e.grid == grid)
            .filter(|e| now.since(e.heard) < ttl)
            .map(|e| e.gw)
    }

    /// Forget a node everywhere (it retired or was seen without gflag).
    pub fn forget_node(&mut self, node: NodeId) {
        self.entries.retain(|e| e.gw != node);
    }

    /// Forget a grid's entry.
    pub fn forget_grid(&mut self, grid: GridCoord) {
        let grid = pack(grid);
        if let Some(i) = self.entries.iter().position(|e| e.grid == grid) {
            self.entries.swap_remove(i);
        }
    }

    /// Drop the entries not heard within `ttl`.
    pub fn purge(&mut self, now: SimTime, ttl: SimDuration) {
        self.entries.retain(|e| now.since(e.heard) < ttl);
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A cache with its lifetime fixed, as the routing plane reads it
    /// with its config's.
    struct NeighborGateways {
        cache: GatewayCache,
        ttl: SimDuration,
    }

    impl NeighborGateways {
        const ENTRY_BYTES: usize = GatewayCache::ENTRY_BYTES;

        fn new(ttl: SimDuration) -> Self {
            NeighborGateways {
                cache: GatewayCache::default(),
                ttl,
            }
        }

        fn note(&mut self, grid: GridCoord, gw: NodeId, now: SimTime) {
            self.cache.note(grid, gw, now);
        }

        fn get(&self, grid: GridCoord, now: SimTime) -> Option<NodeId> {
            self.cache.get(grid, now, self.ttl)
        }

        fn forget_node(&mut self, node: NodeId) {
            self.cache.forget_node(node);
        }

        fn forget_grid(&mut self, grid: GridCoord) {
            self.cache.forget_grid(grid);
        }

        fn purge(&mut self, now: SimTime) {
            self.cache.purge(now, self.ttl);
        }

        fn len(&self) -> usize {
            self.cache.len()
        }

        fn is_empty(&self) -> bool {
            self.cache.is_empty()
        }
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    const G: GridCoord = GridCoord { x: 2, y: 3 };

    #[test]
    fn note_and_get_with_ttl() {
        let mut n = NeighborGateways::new(SimDuration::from_secs(3));
        n.note(G, NodeId(7), t(10));
        assert_eq!(n.get(G, t(12)), Some(NodeId(7)));
        assert_eq!(n.get(G, t(13)), None, "stale after ttl");
    }

    #[test]
    fn newer_note_replaces() {
        let mut n = NeighborGateways::new(SimDuration::from_secs(3));
        n.note(G, NodeId(7), t(10));
        n.note(G, NodeId(9), t(11));
        assert_eq!(n.get(G, t(12)), Some(NodeId(9)));
    }

    #[test]
    fn forget_node_clears_all_its_grids() {
        let mut n = NeighborGateways::new(SimDuration::from_secs(30));
        n.note(G, NodeId(7), t(0));
        n.note(GridCoord::new(0, 0), NodeId(7), t(0));
        n.note(GridCoord::new(1, 1), NodeId(8), t(0));
        n.forget_node(NodeId(7));
        assert_eq!(n.get(G, t(1)), None);
        assert_eq!(n.get(GridCoord::new(1, 1), t(1)), Some(NodeId(8)));
        assert_eq!(n.len(), 1);
    }

    #[test]
    fn an_entry_is_16_bytes_and_grids_differing_in_one_axis_stay_apart() {
        assert_eq!(NeighborGateways::ENTRY_BYTES, 16);
        let mut n = NeighborGateways::new(SimDuration::from_secs(30));
        let far = GridCoord::new(65_534, 0);
        for (i, g) in [GridCoord::new(0, 1), GridCoord::new(1, 0), far]
            .into_iter()
            .enumerate()
        {
            n.note(g, NodeId(i as u32), t(0));
        }
        assert_eq!(n.get(GridCoord::new(0, 1), t(1)), Some(NodeId(0)));
        assert_eq!(n.get(GridCoord::new(1, 0), t(1)), Some(NodeId(1)));
        assert_eq!(n.get(far, t(1)), Some(NodeId(2)));
        assert_eq!(n.get(GridCoord::new(0, 0), t(1)), None);
    }

    #[test]
    fn purge_drops_stale() {
        let mut n = NeighborGateways::new(SimDuration::from_secs(3));
        n.note(G, NodeId(7), t(0));
        n.note(GridCoord::new(1, 1), NodeId(8), t(5));
        n.purge(t(6));
        assert!(n.get(G, t(6)).is_none());
        assert_eq!(n.len(), 1);
        n.forget_grid(GridCoord::new(1, 1));
        assert!(n.is_empty());
    }
}
