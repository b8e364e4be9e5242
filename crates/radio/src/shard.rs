//! Sharded channel: per-shard in-flight sets with boundary mirrors.
//!
//! The sharded engine partitions the field into K contiguous vertical
//! strips of whole logical grid-cell columns ([`ShardMap`]).  Each shard
//! owns a [`ChannelState`] holding exactly the transmissions *audible
//! inside its strip*: a transmission is inserted into its home shard and
//! mirrored into every other shard whose strip lies within
//! `range + cell_side` of the origin.  Shard-local carrier-sense and
//! interference queries then see every transmission the global channel
//! would have shown them — and nothing they could ever report differently,
//! because `busy_until` (max) and `corrupted` (any) filter candidates by
//! exact distance anyway.  Extra mirrored entries that are *inaudible* at
//! the query point are filtered out identically on both paths.
//!
//! The slack of one grid-cell side covers every way a query can be issued
//! "from" a shard at a point marginally outside its strip: queries are
//! routed by the querying host's *logical cell* (updated at cell-crossing
//! events), and between the crossing instant and its +1 µs reschedule
//! guard a host's position can drift only microns past the cell edge —
//! six orders of magnitude inside the 100 m slack.
//!
//! Transmission ids come from one global counter so id allocation order —
//! which feeds the fault layer's per-frame loss draws — is identical to
//! the serial channel's.

use crate::channel::{ChannelState, Transmission};
use crate::frame::NodeId;
use geo::Point2;
use sim_engine::SimTime;

/// Partition of grid-cell columns into K contiguous vertical strips.
///
/// Balanced split: with `cols` columns, every shard gets `cols / K`
/// columns and the first `cols % K` shards one extra.  Shards beyond the
/// column count (K > cols) own zero columns and simply stay empty.
#[derive(Clone, Debug)]
pub struct ShardMap {
    /// Column -> shard lookup, one entry per grid-cell column.
    col_shard: Vec<u16>,
    /// Per-shard strip extent in meters: closed interval `[x0, x1]`.
    strips: Vec<(f64, f64)>,
    cell_side: f64,
}

impl ShardMap {
    /// Build a map for a field `width_m` wide with `cols` grid-cell
    /// columns of side `cell_side` meters, split into `k` strips.
    pub fn new(cols: usize, cell_side: f64, width_m: f64, k: usize) -> Self {
        assert!(k >= 1, "a shard map needs at least one shard");
        assert!(cols >= 1 && cell_side > 0.0);
        let base = cols / k;
        let extra = cols % k;
        let mut col_shard = Vec::with_capacity(cols);
        let mut strips = Vec::with_capacity(k);
        let mut col = 0usize;
        for s in 0..k {
            let take = base + usize::from(s < extra);
            let x0 = col as f64 * cell_side;
            for _ in 0..take {
                col_shard.push(s as u16);
                col += 1;
            }
            // an empty strip gets a degenerate interval no point is near
            let x1 = if take == 0 {
                f64::NEG_INFINITY
            } else {
                (col as f64 * cell_side).min(width_m.max(x0))
            };
            let x0 = if take == 0 { f64::INFINITY } else { x0 };
            strips.push((x0, x1));
        }
        debug_assert_eq!(col, cols);
        ShardMap {
            col_shard,
            strips,
            cell_side,
        }
    }

    /// Number of shards.
    #[inline]
    pub fn shard_count(&self) -> usize {
        self.strips.len()
    }

    /// Shard owning grid-cell column `cx` (clamped to the field, matching
    /// `GridMap::cell_of`'s edge clamp).
    #[inline]
    pub fn shard_of_col(&self, cx: i32) -> usize {
        let cx = (cx.max(0) as usize).min(self.col_shard.len() - 1);
        self.col_shard[cx] as usize
    }

    /// Horizontal distance from `x` to shard `s`'s strip (0 inside it).
    #[inline]
    fn dist_to_strip(&self, s: usize, x: f64) -> f64 {
        let (x0, x1) = self.strips[s];
        (x0 - x).max(x - x1).max(0.0)
    }

    /// Visit every shard whose strip lies within `limit` meters of `p.x`
    /// (strips are vertical, so only x matters).
    #[inline]
    pub fn for_each_in_reach(&self, p: Point2, limit: f64, mut f: impl FnMut(usize)) {
        for s in 0..self.strips.len() {
            if self.dist_to_strip(s, p.x) <= limit {
                f(s);
            }
        }
    }

    /// The grid-cell side the strips are built from.
    #[inline]
    pub fn cell_side(&self) -> f64 {
        self.cell_side
    }
}

/// K shard-local [`ChannelState`]s behind one global transmission-id
/// counter, with boundary transmissions mirrored per the module docs.
#[derive(Clone, Debug)]
pub struct ShardedChannel {
    shards: Vec<ChannelState>,
    map: ShardMap,
    next_id: u64,
    /// Mirror predicate radius: `range + cell_side` (see module docs).
    mirror_limit: f64,
    /// Lifetime count of mirror insertions (diagnostic).
    mirrored: u64,
}

impl ShardedChannel {
    pub fn new(range_m: f64, map: ShardMap) -> Self {
        let mirror_limit = range_m + map.cell_side();
        ShardedChannel {
            shards: (0..map.shard_count())
                .map(|_| ChannelState::new(range_m))
                .collect(),
            map,
            next_id: 0,
            mirror_limit,
            mirrored: 0,
        }
    }

    /// Set the capture ratio on every shard channel.
    pub fn set_capture_ratio(&mut self, ratio: Option<f64>) {
        for ch in &mut self.shards {
            ch.set_capture_ratio(ratio);
        }
    }

    #[inline]
    pub fn range(&self) -> f64 {
        self.shards[0].range()
    }

    /// The shard partition.
    #[inline]
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// Register a transmission homed on `home`, mirroring it into every
    /// shard whose strip its signal (plus slack) can touch.  Ids come
    /// from the global counter, so allocation order matches the serial
    /// channel's.
    /// `range` is the *transmitter's* radio range (heterogeneous fleets
    /// carry per-host radios); the mirror predicate still uses the channel
    /// maximum plus slack, which over-approximates shorter radios — extra
    /// mirrors are inaudible at any query point and filter out identically
    /// on both paths.
    pub fn begin_tx(
        &mut self,
        home: usize,
        src: NodeId,
        origin: Point2,
        range: f64,
        start: SimTime,
        end: SimTime,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.shards[home].insert_tx(id, src, origin, range, start, end);
        let mut mirrored = 0u64;
        let limit = self.mirror_limit;
        // split borrows: the map is read-only while shards mutate
        let ShardedChannel { shards, map, .. } = self;
        map.for_each_in_reach(origin, limit, |s| {
            if s != home {
                shards[s].insert_tx(id, src, origin, range, start, end);
                mirrored += 1;
            }
        });
        self.mirrored += mirrored;
        id
    }

    /// Carrier sense inside shard `s` (see [`ChannelState::busy_until`]).
    #[inline]
    pub fn busy_until(&self, s: usize, p: Point2, at: SimTime) -> Option<SimTime> {
        self.shards[s].busy_until(p, at)
    }

    /// Collision check inside shard `s` (see [`ChannelState::corrupted`]).
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn corrupted(
        &self,
        s: usize,
        tx_id: u64,
        src_origin: Point2,
        receiver: Point2,
        start: SimTime,
        end: SimTime,
    ) -> bool {
        self.shards[s].corrupted(tx_id, src_origin, receiver, start, end)
    }

    /// Per-flight interferer list (see
    /// [`ChannelState::interferers_into`]): the union, over every shard a
    /// receiver within `reach` of `src_origin` can be filed under, of that
    /// shard's list.  A receiver's shard holds every transmission audible
    /// at the receiver (the mirror rule), so the union is a superset of
    /// what the receiver's own shard would report and
    /// [`corrupted_by`](Self::corrupted_by) over it equals
    /// [`corrupted`](Self::corrupted) issued from that shard.
    pub fn interferers_into(
        &self,
        tx_id: u64,
        src_origin: Point2,
        reach: f64,
        start: SimTime,
        end: SimTime,
        out: &mut Vec<Transmission>,
    ) {
        out.clear();
        // a receiver's maintained cell lags its position by less than a
        // cell, the same slack the mirror limit grants
        self.map
            .for_each_in_reach(src_origin, reach + self.map.cell_side(), |s| {
                let seen = out.len();
                self.shards[s].append_interferers(tx_id, src_origin, reach, start, end, out);
                // boundary transmissions are mirrored: keep one copy
                let mut i = seen;
                while i < out.len() {
                    if out[..seen].iter().any(|t| t.id == out[i].id) {
                        out.swap_remove(i);
                    } else {
                        i += 1;
                    }
                }
            });
    }

    /// Per-receiver verdict against a flight's interferer list (capture
    /// settings are identical in every shard).
    #[inline]
    pub fn corrupted_by(&self, interferers: &[Transmission], src_origin: Point2, receiver: Point2) -> bool {
        self.shards[0].corrupted_by(interferers, src_origin, receiver)
    }

    /// Unit-disc reachability (geometric, shard-free).
    #[inline]
    pub fn reaches(&self, origin: Point2, p: Point2) -> bool {
        self.shards[0].reaches(origin, p)
    }

    /// [`ChannelState::gc_at`] in every shard, each against its own
    /// longest airtime.  That is enough: a shard answers only for
    /// receivers in its strip, and a flight heard there is registered
    /// there too (the mirror rule), so the shard's longest airtime covers
    /// every flight whose verdict it decides.  Retaining more is harmless
    /// (`busy_until`/`corrupted` filter by time), so the epoch barrier
    /// can prune far less often than the serial channel's per-event gc.
    pub fn gc_at(&mut self, now: SimTime) {
        for ch in &mut self.shards {
            ch.gc_at(now);
        }
    }

    /// In-flight entries summed over shards (mirrors counted once per
    /// shard they sit in; diagnostic).
    pub fn in_flight_total(&self) -> usize {
        self.shards.iter().map(|c| c.in_flight()).sum()
    }

    /// Lifetime mirror insertions (diagnostic).
    pub fn mirrored(&self) -> u64 {
        self.mirrored
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::tests::{receiver_of, world_steps, RetainChannel, WorldStep};
    use crate::channel::CAPTURE_RATIO_10DB;
    use sim_engine::SimDuration;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    /// Deterministic LCG, same shape as the channel tests'.
    fn lcg(state: &mut u64) -> f64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((*state >> 11) as f64) / ((1u64 << 53) as f64)
    }

    #[test]
    fn strips_are_balanced_and_cover_every_column() {
        let m = ShardMap::new(10, 100.0, 1000.0, 7);
        let mut counts = vec![0usize; 7];
        for cx in 0..10 {
            counts[m.shard_of_col(cx)] += 1;
        }
        assert_eq!(counts, vec![2, 2, 2, 1, 1, 1, 1]);
        // shard ids are non-decreasing left to right (contiguous strips)
        let shards: Vec<usize> = (0..10).map(|c| m.shard_of_col(c)).collect();
        let mut sorted = shards.clone();
        sorted.sort_unstable();
        assert_eq!(shards, sorted);
        // out-of-field columns clamp like GridMap::cell_of does
        assert_eq!(m.shard_of_col(-3), 0);
        assert_eq!(m.shard_of_col(99), 6);
    }

    #[test]
    fn more_shards_than_columns_leaves_the_tail_empty() {
        let m = ShardMap::new(3, 100.0, 300.0, 5);
        assert_eq!(m.shard_count(), 5);
        let owners: Vec<usize> = (0..3).map(|c| m.shard_of_col(c)).collect();
        assert_eq!(owners, vec![0, 1, 2]);
        // empty strips are never "in reach"
        let mut hit = Vec::new();
        m.for_each_in_reach(Point2::new(150.0, 0.0), 1e9, |s| hit.push(s));
        assert_eq!(hit, vec![0, 1, 2]);
    }

    #[test]
    fn boundary_transmission_is_audible_on_both_sides() {
        // Transmitter exactly on the strip edge between shards 1 and 2
        // (x = 500 with a 250 m range): carrier sense and collision
        // checks from either side must see it.
        let map = ShardMap::new(10, 100.0, 1000.0, 2);
        let mut ch = ShardedChannel::new(250.0, map);
        let edge = Point2::new(500.0, 300.0);
        let home = ch.map().shard_of_col(5); // cell column of x=500
        let id = ch.begin_tx(home, NodeId(7), edge, 250.0, t(10), t(12));
        assert!(ch.mirrored() >= 1, "edge transmission must mirror");
        for s in 0..2 {
            let near = Point2::new(if s == 0 { 450.0 } else { 550.0 }, 300.0);
            assert_eq!(ch.busy_until(s, near, t(11)), Some(t(12)), "shard {s}");
            assert!(
                ch.corrupted(s, 999, Point2::new(800.0, 800.0), near, t(10), t(12)),
                "shard {s} must see the boundary interferer"
            );
            let _ = id;
        }
    }

    #[test]
    fn far_interior_transmission_is_not_mirrored() {
        let map = ShardMap::new(20, 100.0, 2000.0, 4);
        let mut ch = ShardedChannel::new(250.0, map);
        // deep inside shard 0's strip [0, 500): nothing within 350 m of
        // any other strip
        let home = ch.map().shard_of_col(0);
        ch.begin_tx(home, NodeId(1), Point2::new(50.0, 50.0), 250.0, t(10), t(12));
        assert_eq!(ch.mirrored(), 0);
        assert_eq!(ch.in_flight_total(), 1);
    }

    #[test]
    fn global_ids_match_a_serial_channel() {
        let map = ShardMap::new(10, 100.0, 1000.0, 4);
        let mut sharded = ShardedChannel::new(250.0, map);
        let mut serial = ChannelState::new(250.0);
        let mut seed = 0x1dea_u64;
        for i in 0..50u32 {
            let o = Point2::new(lcg(&mut seed) * 1000.0, lcg(&mut seed) * 1000.0);
            let home = sharded.map().shard_of_col((o.x / 100.0) as i32);
            let a = sharded.begin_tx(home, NodeId(i), o, 250.0, t(10), t(20));
            let b = serial.begin_tx(NodeId(i), o, 250.0, t(10), t(20));
            assert_eq!(a, b, "id allocation order must match the serial channel");
        }
    }

    #[test]
    fn sharded_queries_match_the_global_channel_exactly() {
        // The strong equivalence fuzz: random transmissions and random
        // queries, each query issued from the shard of the query point's
        // own cell column — answers must equal a single global channel's,
        // including with interleaved gc.
        let mut seed = 0xb0a_d1ce_u64;
        for &k in &[1usize, 2, 4, 7] {
            let map = ShardMap::new(10, 100.0, 1000.0, k);
            let mut sharded = ShardedChannel::new(250.0, map);
            let mut global = ChannelState::new(250.0);
            let mut txs = Vec::new();
            for i in 0..40u32 {
                let o = Point2::new(lcg(&mut seed) * 1000.0, lcg(&mut seed) * 1000.0);
                let s_ms = 10 + (lcg(&mut seed) * 20.0) as u64;
                let (s, e) = (t(s_ms), t(s_ms + 1 + (lcg(&mut seed) * 5.0) as u64));
                let home = sharded.map().shard_of_col((o.x / 100.0) as i32);
                let a = sharded.begin_tx(home, NodeId(i), o, 250.0, s, e);
                let b = global.begin_tx(NodeId(i), o, 250.0, s, e);
                assert_eq!(a, b);
                txs.push((a, o, s, e));
                if i % 13 == 12 {
                    for ch in &mut sharded.shards {
                        ch.gc_before(t(15));
                    }
                    global.gc_before(t(15));
                }
            }
            let mut list = Vec::new();
            for _ in 0..200 {
                let p = Point2::new(lcg(&mut seed) * 1000.0, lcg(&mut seed) * 1000.0);
                let qs = sharded.map().shard_of_col((p.x / 100.0) as i32);
                let at = t(10 + (lcg(&mut seed) * 25.0) as u64);
                assert_eq!(
                    sharded.busy_until(qs, p, at),
                    global.busy_until(p, at),
                    "k={k}: carrier sense diverged at {p:?}"
                );
                let &(id, o, s, e) = &txs[(lcg(&mut seed) * txs.len() as f64) as usize];
                let want = global.corrupted(id, o, p, s, e);
                assert_eq!(
                    sharded.corrupted(qs, id, o, p, s, e),
                    want,
                    "k={k}: collision check diverged at {p:?}"
                );
                // the per-flight list, sized to reach this receiver
                sharded.interferers_into(id, o, o.distance(p), s, e, &mut list);
                assert_eq!(
                    sharded.corrupted_by(&list, o, p),
                    want,
                    "k={k}: interferer list diverged at {p:?}"
                );
            }
        }
    }

    proptest::proptest! {
        /// The serial channel's retention proptest
        /// (`gc_at_keeps_every_answer_of_the_world_query_pattern`) over K
        /// strips: `gc_at` at every send and frame end, each query issued
        /// from the shard of its point's column, every answer equal to the
        /// never-collected oracle's, and no shard holding more than what
        /// ended within the longest airtime registered in any shard.
        #[test]
        fn sharded_gc_at_keeps_every_answer_of_the_world_query_pattern(
            seed in proptest::prelude::any::<u64>(),
            sends in 40..300usize,
            k in 1..6usize,
        ) {
            let mut seed = seed;
            let mut sharded = ShardedChannel::new(250.0, ShardMap::new(20, 100.0, 2000.0, k));
            let mut oracle = RetainChannel {
                active: Vec::new(),
                capture_ratio: Some(CAPTURE_RATIO_10DB),
            };
            let shard_at = |ch: &ShardedChannel, p: Point2| ch.map().shard_of_col((p.x / 100.0) as i32);
            let mut longest = SimDuration::ZERO;
            let mut list = Vec::new();
            for step in world_steps(&mut seed, sends) {
                match step {
                    WorldStep::Send(tx) => {
                        sharded.gc_at(tx.start);
                        let bound = oracle.retained_at(tx.start, longest);
                        proptest::prop_assert!(sharded.shards.iter().all(|ch| ch.in_flight() <= bound));
                        let s = shard_at(&sharded, tx.origin);
                        proptest::prop_assert_eq!(
                            sharded.busy_until(s, tx.origin, tx.start),
                            oracle.busy_until(tx.origin, tx.start)
                        );
                        let id = sharded.begin_tx(s, tx.src, tx.origin, tx.range, tx.start, tx.end);
                        proptest::prop_assert_eq!(id, tx.id);
                        oracle.active.push(tx);
                        longest = longest.max(tx.end - tx.start);
                    }
                    WorldStep::End(f) => {
                        sharded.interferers_into(f.id, f.origin, f.range + 5.0, f.start, f.end, &mut list);
                        for _ in 0..4 {
                            let r = receiver_of(&mut seed, &f);
                            let want = oracle.corrupted(f.id, f.origin, r, f.start, f.end);
                            proptest::prop_assert_eq!(sharded.corrupted_by(&list, f.origin, r), want);
                            let s = shard_at(&sharded, r);
                            proptest::prop_assert_eq!(sharded.corrupted(s, f.id, f.origin, r, f.start, f.end), want);
                        }
                        sharded.gc_at(f.end);
                        let bound = oracle.retained_at(f.end, longest);
                        proptest::prop_assert!(sharded.shards.iter().all(|ch| ch.in_flight() <= bound));
                    }
                }
            }
        }
    }
}
