//! The unit-disc channel: who hears whom, carrier sensing, collisions.
//!
//! Propagation is the classic ns-2 style disc: a frame from `src` reaches
//! exactly the hosts within `range` meters of the transmitter's position at
//! transmission start (250 m in the evaluation).  The channel keeps the
//! set of in-flight transmissions so the MAC can carrier-sense and so
//! receivers can detect overlapping-interferer collisions.

use crate::frame::NodeId;
use crate::spatial::SpatialIndex;
use geo::Point2;
use sim_engine::{SimDuration, SimTime};

/// One transmission on the air.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Transmission {
    pub id: u64,
    pub src: NodeId,
    /// Transmitter position at tx start (the disc's center).
    pub origin: Point2,
    /// This transmitter's radio range in meters.  Heterogeneous scenarios
    /// give groups different radios; `ChannelState::range` stays the
    /// *maximum* so the bucket geometry (side == max range) still covers
    /// every audible transmission in a 3x3 neighborhood.
    pub range: f64,
    pub start: SimTime,
    pub end: SimTime,
}

/// Slack in meters added to the per-flight interferer prefilter so that
/// floating-point rounding in the triangle inequality it rests on can
/// never drop a transmission the exact per-receiver test would admit.
const INTERFERER_SLACK_M: f64 = 1.0;

/// Tracks in-flight (and recently-ended) transmissions.
///
/// Transmissions live in stable slab slots (free list, so the slot
/// universe is bounded by the high-water *live* count, not by lifetime
/// traffic) and `live` lists the occupied slots, which the linear query
/// paths walk.  `begin_tx` is one slot write plus one bucket insert.
///
/// Retention is the channel's own business: [`gc_at`](Self::gc_at) drops
/// every transmission that ended at least the longest airtime ever
/// registered before `now`, and keeps every one a query issued at or after
/// `now` can still admit (see there).  At the paper's load that leaves a
/// handful of frames.
#[derive(Clone, Debug, Default)]
pub struct ChannelState {
    slots: Vec<Transmission>,
    free: Vec<u32>,
    /// Occupied slots, in no particular order: every query aggregate
    /// (max, any, the interferer set) ignores order.
    live: Vec<u32>,
    /// The longest airtime ever registered: the retention bound of
    /// [`gc_at`](Self::gc_at).
    longest: SimDuration,
    range: f64,
    next_id: u64,
    /// Capture: an interferer within range only corrupts a reception when
    /// its distance to the receiver is less than `capture_ratio` times the
    /// signal's distance (ns-2's 10 dB capture threshold under two-ray
    /// d⁻⁴ path loss gives 10^(10/40) ≈ 1.778).  `None` = every
    /// overlapping interferer is fatal.
    capture_ratio: Option<f64>,
    /// Optional bucket index over the *slab slots*, keyed by transmission
    /// origin with bucket side == range, so carrier-sense and
    /// interference queries visit only a bucket neighborhood of the query
    /// point instead of every live transmission.  `busy_until` (max),
    /// `corrupted` (any) and the interferer list (a set) are
    /// order-insensitive over an exactly-filtered candidate set, so
    /// results are identical with or without the index.
    spatial: Option<SpatialIndex>,
}

/// ns-2's default capture threshold (10 dB) under d⁻⁴ path loss.
pub const CAPTURE_RATIO_10DB: f64 = 1.7782794100389228;

/// Live-transmission count at or below which channel queries take the
/// linear scan even when the bucket index is enabled.  Nine bucket headers
/// cost more than a dozen predictable `Transmission` comparisons — at the
/// paper's offered load (a handful of concurrent frames) the index only
/// pays off in the loaded large-N regimes.  Both paths compute identical
/// order-insensitive aggregates, so the switch is invisible to results.
const SPATIAL_LINEAR_CUTOFF: usize = 12;

impl ChannelState {
    pub fn new(range_m: f64) -> Self {
        assert!(range_m > 0.0);
        ChannelState {
            range: range_m,
            capture_ratio: Some(CAPTURE_RATIO_10DB),
            ..ChannelState::default()
        }
    }

    /// The paper's channel: 250 m nominal range, 10 dB capture.
    pub fn paper_default() -> Self {
        ChannelState::new(250.0)
    }

    /// Turn on bucketed interference queries for a `width × height` field.
    /// Buckets are sized to the radio range so every query is answered
    /// from a 3×3 neighborhood.  Call before the first `begin_tx`.
    pub fn enable_spatial(&mut self, width_m: f64, height_m: f64) {
        assert!(
            self.live.is_empty(),
            "enable_spatial must precede the first transmission"
        );
        self.spatial = Some(SpatialIndex::new(width_m, height_m, self.range));
    }

    /// The bucket index, if enabled *and* worth querying at the current
    /// occupancy (see [`SPATIAL_LINEAR_CUTOFF`]).
    #[inline]
    fn spatial_for_query(&self) -> Option<&SpatialIndex> {
        if self.live.len() <= SPATIAL_LINEAR_CUTOFF {
            return None;
        }
        self.spatial.as_ref()
    }

    /// Disable/enable the capture effect (ablation).
    pub fn set_capture_ratio(&mut self, ratio: Option<f64>) {
        self.capture_ratio = ratio;
    }

    #[inline]
    pub fn range(&self) -> f64 {
        self.range
    }

    /// Register a transmission at this transmitter's `range`; returns its
    /// channel id.  `range` must not exceed the channel's nominal (bucket
    /// sizing) range.
    pub fn begin_tx(&mut self, src: NodeId, origin: Point2, range: f64, start: SimTime, end: SimTime) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.insert_tx(id, src, origin, range, start, end);
        id
    }

    /// Register a transmission under an externally-allocated id.  The
    /// sharded channel (`crate::shard`) mirrors one transmission into
    /// several shard-local channels under a single global id; everyone
    /// else should use [`ChannelState::begin_tx`], which allocates from
    /// this channel's own counter.
    pub fn insert_tx(
        &mut self,
        id: u64,
        src: NodeId,
        origin: Point2,
        range: f64,
        start: SimTime,
        end: SimTime,
    ) {
        debug_assert!(
            range <= self.range + 1e-9,
            "per-tx range {range} exceeds the channel's bucket range {}",
            self.range
        );
        let tx = Transmission {
            id,
            src,
            origin,
            range,
            start,
            end,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = tx;
                slot
            }
            None => {
                self.slots.push(tx);
                (self.slots.len() - 1) as u32
            }
        };
        self.live.push(slot);
        self.longest = self.longest.max(end.since(start));
        if let Some(sp) = &mut self.spatial {
            sp.insert_at(slot, origin);
        }
    }

    /// Drop every transmission that ended at or before `now` (they can no
    /// longer interfere with anything starting now).
    pub fn gc_before(&mut self, now: SimTime) {
        let ChannelState {
            slots,
            free,
            live,
            spatial,
            ..
        } = self;
        live.retain(|&slot| {
            if slots[slot as usize].end > now {
                return true;
            }
            free.push(slot);
            if let Some(sp) = spatial {
                sp.remove(slot);
            }
            false
        });
    }

    /// Drop every transmission no query issued at or after `now` can still
    /// admit: those that ended at least the longest registered airtime
    /// before `now`.  Carrier sense at `now` admits only transmissions
    /// that end after `now`.  The interferers of a flight that ends at or
    /// after `now` overlap its airtime, so they end after its start, which
    /// is no earlier than `now` minus the longest airtime.  Either way the
    /// answer keeps every transmission it can use.
    pub fn gc_at(&mut self, now: SimTime) {
        if now > SimTime::ZERO + self.longest {
            self.gc_before(now - self.longest);
        }
    }

    /// The transmissions held, in no particular order.
    #[inline]
    fn held(&self) -> impl Iterator<Item = &Transmission> {
        self.live.iter().map(|&slot| &self.slots[slot as usize])
    }

    /// Carrier sense at position `p` and instant `at`: latest end time of
    /// any transmission in progress whose signal reaches `p`.  `None` means
    /// the medium is sensed idle.
    pub fn busy_until(&self, p: Point2, at: SimTime) -> Option<SimTime> {
        let sensed = |t: &Transmission| t.start <= at && t.end > at && t.origin.within_range(p, t.range);
        if let Some(sp) = self.spatial_for_query() {
            // Buckets have side == range, so every transmission audible at
            // `p` lives in the 3×3 neighborhood of p's bucket; the exact
            // time/range filter does the rest.  `max` is
            // order-insensitive, so the result matches the linear scan.
            let (bx, by) = sp.bucket_of(p);
            let mut latest: Option<SimTime> = None;
            sp.for_each_near(bx, by, 1, |i| {
                let t = &self.slots[i as usize];
                if sensed(t) {
                    latest = Some(latest.map_or(t.end, |l| l.max(t.end)));
                }
            });
            return latest;
        }
        self.held().filter(|t| sensed(t)).map(|t| t.end).max()
    }

    /// Does `t` share air time with `[start, end)` of transmission `tx_id`?
    #[inline]
    fn overlaps(t: &Transmission, tx_id: u64, start: SimTime, end: SimTime) -> bool {
        t.id != tx_id && t.start < end && t.end > start
    }

    /// Is `t` audible at `receiver` and strong enough to defeat capture of
    /// a signal arriving from `d_sig` meters away?
    #[inline]
    fn defeats(&self, t: &Transmission, receiver: Point2, d_sig: f64) -> bool {
        if !t.origin.within_range(receiver, t.range) {
            return false;
        }
        match self.capture_ratio {
            // interferer farther than ratio·d_sig is ≥10 dB weaker:
            // the receiver captures the intended frame
            Some(ratio) => t.origin.distance(receiver).max(1.0) < ratio * d_sig,
            None => true,
        }
    }

    /// Signal distance of a reception.  Both this and the interferer
    /// distance in [`defeats`](Self::defeats) are clamped to 1 m — the
    /// near-field floor below which d⁻⁴ path loss is meaningless.  The
    /// clamp is symmetric so the co-located tie-break is deterministic:
    /// signal and interferer both on top of the receiver give
    /// d_int == d_sig == 1, and since any physical capture ratio is > 1,
    /// `1 < ratio · 1` holds — the reception is corrupted.  Capture never
    /// resolves a dead heat.
    #[inline]
    fn signal_distance(src_origin: Point2, receiver: Point2) -> f64 {
        src_origin.distance(receiver).max(1.0)
    }

    /// Collision check for a reception at `receiver` spanning
    /// `[start, end)` of transmission `tx_id` sent from `src_origin`:
    /// true if any *other* transmission audible at the receiver overlaps
    /// the interval and is strong enough to defeat capture.
    pub fn corrupted(
        &self,
        tx_id: u64,
        src_origin: Point2,
        receiver: Point2,
        start: SimTime,
        end: SimTime,
    ) -> bool {
        let d_sig = Self::signal_distance(src_origin, receiver);
        let hit = |t: &Transmission| Self::overlaps(t, tx_id, start, end) && self.defeats(t, receiver, d_sig);
        if let Some(sp) = self.spatial_for_query() {
            // Only transmissions audible at the receiver can corrupt it,
            // and those all sit in the receiver's 3×3 bucket neighborhood
            // (bucket side == range).  `any` is order-insensitive.
            let (bx, by) = sp.bucket_of(receiver);
            let mut found = false;
            sp.for_each_near(bx, by, 1, |i| {
                found = found || hit(&self.slots[i as usize]);
            });
            return found;
        }
        self.held().any(hit)
    }

    /// The collision question of [`corrupted`](Self::corrupted), answered
    /// once per flight instead of once per receiver: fill `out` with every
    /// other transmission sharing air time with `[start, end)` of `tx_id`
    /// whose disc comes within `reach` meters of `src_origin`.  For any
    /// receiver no farther than `reach` from `src_origin`,
    /// [`corrupted_by`](Self::corrupted_by) over this list equals
    /// `corrupted` — an interferer audible at the receiver is, by the
    /// triangle inequality, within `reach` plus its own range of the
    /// sender.  The list is almost always empty.
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
        self.append_interferers(tx_id, src_origin, reach, start, end, out);
    }

    /// [`interferers_into`](Self::interferers_into) without the clear (the
    /// sharded channel unions several shards' lists).
    pub(crate) fn append_interferers(
        &self,
        tx_id: u64,
        src_origin: Point2,
        reach: f64,
        start: SimTime,
        end: SimTime,
        out: &mut Vec<Transmission>,
    ) {
        let reach = reach + INTERFERER_SLACK_M;
        let near = |t: &Transmission| {
            Self::overlaps(t, tx_id, start, end) && t.origin.within_range(src_origin, reach + t.range)
        };
        if let Some(sp) = self.spatial_for_query() {
            let (bx, by) = sp.bucket_of(src_origin);
            let buckets = ((reach + self.range) / sp.side()).ceil() as i32;
            sp.for_each_near(bx, by, buckets, |i| {
                let t = &self.slots[i as usize];
                if near(t) {
                    out.push(*t);
                }
            });
            return;
        }
        out.extend(self.held().filter(|t| near(t)));
    }

    /// Per-receiver verdict against a flight's interferer list (see
    /// [`interferers_into`](Self::interferers_into)).
    #[inline]
    pub fn corrupted_by(&self, interferers: &[Transmission], src_origin: Point2, receiver: Point2) -> bool {
        if interferers.is_empty() {
            return false;
        }
        let d_sig = Self::signal_distance(src_origin, receiver);
        interferers.iter().any(|t| self.defeats(t, receiver, d_sig))
    }

    /// All node positions within range of `origin` — the delivery set of a
    /// transmission (the caller filters by radio mode).
    pub fn reaches(&self, origin: Point2, p: Point2) -> bool {
        origin.within_range(p, self.range)
    }

    /// Number of transmissions held (diagnostic): on the air, or ended and
    /// not yet collected.
    pub fn in_flight(&self) -> usize {
        self.live.len()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn carrier_sense_within_range_only() {
        let mut ch = ChannelState::paper_default();
        ch.begin_tx(NodeId(1), Point2::new(0.0, 0.0), 250.0, t(10), t(12));
        // 100 m away: busy
        assert_eq!(ch.busy_until(Point2::new(100.0, 0.0), t(11)), Some(t(12)));
        // 300 m away: idle
        assert_eq!(ch.busy_until(Point2::new(300.0, 0.0), t(11)), None);
        // before it starts / after it ends: idle
        assert_eq!(ch.busy_until(Point2::new(100.0, 0.0), t(9)), None);
        assert_eq!(ch.busy_until(Point2::new(100.0, 0.0), t(12)), None);
    }

    #[test]
    fn busy_until_takes_latest_end() {
        let mut ch = ChannelState::paper_default();
        ch.begin_tx(NodeId(1), Point2::new(0.0, 0.0), 250.0, t(10), t(12));
        ch.begin_tx(NodeId(2), Point2::new(50.0, 0.0), 250.0, t(10), t(15));
        assert_eq!(ch.busy_until(Point2::new(10.0, 0.0), t(11)), Some(t(15)));
    }

    #[test]
    fn overlapping_comparable_interferer_corrupts() {
        let mut ch = ChannelState::paper_default();
        let src = Point2::new(0.0, 0.0);
        let tx = ch.begin_tx(NodeId(1), src, 250.0, t(10), t(12));
        // interferer equidistant from the receiver: no capture possible
        ch.begin_tx(NodeId(2), Point2::new(100.0, 0.0), 250.0, t(11), t(13));
        let receiver = Point2::new(50.0, 0.0);
        assert!(ch.corrupted(tx, src, receiver, t(10), t(12)));
    }

    #[test]
    fn strong_signal_captures_over_weak_interferer() {
        let mut ch = ChannelState::paper_default();
        let src = Point2::new(0.0, 0.0);
        let tx = ch.begin_tx(NodeId(1), src, 250.0, t(10), t(12));
        // receiver 50 m from the source, interferer 200 m away: 4x the
        // distance => far beyond the 10 dB capture threshold
        ch.begin_tx(NodeId(2), Point2::new(250.0, 0.0), 250.0, t(11), t(13));
        let receiver = Point2::new(50.0, 0.0);
        assert!(!ch.corrupted(tx, src, receiver, t(10), t(12)));
        // without capture the same interferer is fatal
        ch.set_capture_ratio(None);
        assert!(ch.corrupted(tx, src, receiver, t(10), t(12)));
    }

    #[test]
    fn far_interferer_does_not_corrupt() {
        let mut ch = ChannelState::paper_default();
        ch.set_capture_ratio(None);
        let src = Point2::new(0.0, 0.0);
        let tx = ch.begin_tx(NodeId(1), src, 250.0, t(10), t(12));
        // interferer 400 m from the receiver: inaudible there
        ch.begin_tx(NodeId(2), Point2::new(450.0, 0.0), 250.0, t(11), t(13));
        let receiver = Point2::new(50.0, 0.0);
        assert!(!ch.corrupted(tx, src, receiver, t(10), t(12)));
    }

    #[test]
    fn non_overlapping_interferer_does_not_corrupt() {
        let mut ch = ChannelState::paper_default();
        ch.set_capture_ratio(None);
        let src = Point2::new(0.0, 0.0);
        let tx = ch.begin_tx(NodeId(1), src, 250.0, t(10), t(12));
        ch.begin_tx(NodeId(2), Point2::new(10.0, 0.0), 250.0, t(12), t(14)); // starts when tx ends
        let receiver = Point2::new(50.0, 0.0);
        assert!(!ch.corrupted(tx, src, receiver, t(10), t(12)));
    }

    #[test]
    fn own_transmission_is_not_interference() {
        let mut ch = ChannelState::paper_default();
        let src = Point2::new(0.0, 0.0);
        let tx = ch.begin_tx(NodeId(1), src, 250.0, t(10), t(12));
        assert!(!ch.corrupted(tx, src, Point2::new(50.0, 0.0), t(10), t(12)));
    }

    #[test]
    fn gc_drops_finished_transmissions() {
        let mut ch = ChannelState::paper_default();
        ch.begin_tx(NodeId(1), Point2::new(0.0, 0.0), 250.0, t(10), t(12));
        ch.begin_tx(NodeId(2), Point2::new(0.0, 0.0), 250.0, t(10), t(20));
        assert_eq!(ch.in_flight(), 2);
        ch.gc_before(t(15));
        assert_eq!(ch.in_flight(), 1);
        ch.gc_before(t(20));
        assert_eq!(ch.in_flight(), 0);
    }

    #[test]
    fn reaches_is_inclusive_disc() {
        let ch = ChannelState::paper_default();
        let o = Point2::new(0.0, 0.0);
        assert!(ch.reaches(o, Point2::new(250.0, 0.0)));
        assert!(!ch.reaches(o, Point2::new(250.1, 0.0)));
    }

    #[test]
    fn tx_ids_are_unique() {
        let mut ch = ChannelState::paper_default();
        let a = ch.begin_tx(NodeId(1), Point2::ORIGIN, 250.0, t(1), t(2));
        let b = ch.begin_tx(NodeId(1), Point2::ORIGIN, 250.0, t(3), t(4));
        assert_ne!(a, b);
    }

    // --- heterogeneous per-transmission ranges ----------------------------

    #[test]
    fn short_range_tx_is_inaudible_beyond_its_own_disc() {
        // channel sized for 250 m radios, but this transmitter only has a
        // 100 m one: carrier sense and interference both use ITS disc
        let mut ch = ChannelState::paper_default();
        let tx = ch.begin_tx(NodeId(1), Point2::new(0.0, 0.0), 100.0, t(10), t(12));
        assert_eq!(ch.busy_until(Point2::new(90.0, 0.0), t(11)), Some(t(12)));
        assert_eq!(ch.busy_until(Point2::new(150.0, 0.0), t(11)), None);
        // a second short-range tx 150 m from the receiver cannot corrupt
        ch.set_capture_ratio(None);
        ch.begin_tx(NodeId(2), Point2::new(240.0, 0.0), 100.0, t(11), t(13));
        assert!(!ch.corrupted(tx, Point2::new(0.0, 0.0), Point2::new(90.0, 0.0), t(10), t(12)));
        // while a full-range interferer at the same spot is fatal
        ch.begin_tx(NodeId(3), Point2::new(240.0, 0.0), 250.0, t(11), t(13));
        assert!(ch.corrupted(tx, Point2::new(0.0, 0.0), Point2::new(90.0, 0.0), t(10), t(12)));
    }

    #[test]
    fn mixed_ranges_agree_between_linear_and_bucketed_queries() {
        let mut seed = 0xbeef_u64;
        let mut plain = ChannelState::paper_default();
        let mut fast = ChannelState::paper_default();
        fast.enable_spatial(1000.0, 1000.0);
        let ranges = [60.0, 120.0, 250.0];
        for i in 0..30u64 {
            let o = Point2::new(lcg(&mut seed) * 1000.0, lcg(&mut seed) * 1000.0);
            let r = ranges[(lcg(&mut seed) * 3.0) as usize % 3];
            plain.begin_tx(NodeId(i as u32), o, r, t(10), t(40));
            fast.begin_tx(NodeId(i as u32), o, r, t(10), t(40));
        }
        for _ in 0..200 {
            let p = Point2::new(lcg(&mut seed) * 1000.0, lcg(&mut seed) * 1000.0);
            assert_eq!(plain.busy_until(p, t(20)), fast.busy_until(p, t(20)));
        }
    }

    // --- capture near-field clamp regression -----------------------------

    #[test]
    fn colocated_signal_and_interferer_tie_breaks_to_corrupted() {
        // Signal source, interferer, and receiver all at the same point:
        // both distances clamp to the 1 m near-field floor, so neither
        // side can capture and the reception is deterministically lost.
        let mut ch = ChannelState::paper_default();
        let p = Point2::new(400.0, 400.0);
        let tx = ch.begin_tx(NodeId(1), p, 250.0, t(10), t(12));
        ch.begin_tx(NodeId(2), p, 250.0, t(11), t(13));
        assert!(ch.corrupted(tx, p, p, t(10), t(12)));
    }

    #[test]
    fn near_field_interferer_clamp_is_symmetric() {
        // Interferer 0.2 m from the receiver, signal 0.5 m away: inside
        // the near field the clamp makes them equals (1 m vs 1 m), so the
        // outcome must not depend on sub-meter jitter — corrupted, same
        // as the co-located tie-break.
        let mut ch = ChannelState::paper_default();
        let src = Point2::new(100.0, 100.5);
        let recv = Point2::new(100.0, 100.0);
        let tx = ch.begin_tx(NodeId(1), src, 250.0, t(10), t(12));
        ch.begin_tx(NodeId(2), Point2::new(100.2, 100.0), 250.0, t(11), t(13));
        assert!(ch.corrupted(tx, src, recv, t(10), t(12)));
        // ...while a genuinely distant interferer still loses to capture.
        let mut ch2 = ChannelState::paper_default();
        let tx2 = ch2.begin_tx(NodeId(1), src, 250.0, t(10), t(12));
        ch2.begin_tx(NodeId(2), Point2::new(150.0, 100.0), 250.0, t(11), t(13));
        assert!(!ch2.corrupted(tx2, src, recv, t(10), t(12)));
    }

    // --- bucketed-query equivalence --------------------------------------

    /// Deterministic little congruential generator for the fuzz below (no
    /// external RNG needed, and the sequence is pinned).
    pub(crate) fn lcg(state: &mut u64) -> f64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((*state >> 11) as f64) / ((1u64 << 53) as f64)
    }

    #[test]
    fn low_occupancy_cutoff_is_invisible_across_the_boundary() {
        // Add transmissions one at a time straddling the linear-scan
        // cutoff; plain and bucketed channels must agree at every step,
        // including the exact population where the query path flips.
        let mut seed = 0xface0ff_u64;
        let mut plain = ChannelState::paper_default();
        let mut fast = ChannelState::paper_default();
        fast.enable_spatial(1000.0, 1000.0);
        for i in 0..(SPATIAL_LINEAR_CUTOFF as u64 + 5) {
            let o = Point2::new(lcg(&mut seed) * 1000.0, lcg(&mut seed) * 1000.0);
            let (s, e) = (t(10), t(40));
            plain.begin_tx(NodeId(i as u32), o, 250.0, s, e);
            fast.begin_tx(NodeId(i as u32), o, 250.0, s, e);
            for _ in 0..10 {
                let p = Point2::new(lcg(&mut seed) * 1000.0, lcg(&mut seed) * 1000.0);
                assert_eq!(
                    plain.busy_until(p, t(20)),
                    fast.busy_until(p, t(20)),
                    "diverged at occupancy {}",
                    plain.in_flight()
                );
            }
        }
    }

    #[test]
    fn spatial_channel_matches_linear_scan() {
        let mut seed = 0x5eed_cafe_u64;
        for round in 0..20 {
            let mut plain = ChannelState::paper_default();
            let mut fast = ChannelState::paper_default();
            fast.enable_spatial(1000.0, 1000.0);
            let mut txs = Vec::new();
            for i in 0..30u64 {
                let o = Point2::new(lcg(&mut seed) * 1000.0, lcg(&mut seed) * 1000.0);
                let s_ms = 10 + (lcg(&mut seed) * 20.0) as u64;
                let s = t(s_ms);
                let e = t(s_ms + 1 + (lcg(&mut seed) * 5.0) as u64);
                let a = plain.begin_tx(NodeId(i as u32), o, 250.0, s, e);
                let b = fast.begin_tx(NodeId(i as u32), o, 250.0, s, e);
                assert_eq!(a, b);
                txs.push((a, o, s, e));
            }
            if round % 2 == 1 {
                plain.gc_before(t(20));
                fast.gc_before(t(20));
                assert_eq!(plain.in_flight(), fast.in_flight());
            }
            for _ in 0..50 {
                let p = Point2::new(lcg(&mut seed) * 1000.0, lcg(&mut seed) * 1000.0);
                let at = t(10 + (lcg(&mut seed) * 25.0) as u64);
                assert_eq!(plain.busy_until(p, at), fast.busy_until(p, at));
                let &(id, o, s, e) = &txs[(lcg(&mut seed) * txs.len() as f64) as usize];
                assert_eq!(
                    plain.corrupted(id, o, p, s, e),
                    fast.corrupted(id, o, p, s, e),
                    "corrupted diverged at receiver {p:?}"
                );
            }
        }
    }

    // --- differential test against the historical linear channel ----------

    /// The channel as it was before the slab: one `Vec` scanned linearly
    /// and compacted by `retain`.  Kept as the oracle the slab channel (and
    /// the sharded one, `crate::shard`) is held to.
    pub(crate) struct RetainChannel {
        pub(crate) active: Vec<Transmission>,
        pub(crate) capture_ratio: Option<f64>,
    }

    impl RetainChannel {
        fn gc_before(&mut self, now: SimTime) {
            self.active.retain(|t| t.end > now);
        }

        /// The most a channel collected by `gc_at(now)` may hold: every
        /// transmission that ended less than `longest` before `now`.  (It
        /// can hold fewer: a frame longer than all before it does not
        /// bring back what an earlier gc dropped under a shorter bound.)
        pub(crate) fn retained_at(&self, now: SimTime, longest: SimDuration) -> usize {
            self.active.iter().filter(|t| t.end + longest > now).count()
        }

        pub(crate) fn busy_until(&self, p: Point2, at: SimTime) -> Option<SimTime> {
            self.active
                .iter()
                .filter(|t| t.start <= at && t.end > at && t.origin.within_range(p, t.range))
                .map(|t| t.end)
                .max()
        }

        pub(crate) fn corrupted(
            &self,
            tx_id: u64,
            src_origin: Point2,
            receiver: Point2,
            start: SimTime,
            end: SimTime,
        ) -> bool {
            let d_sig = src_origin.distance(receiver).max(1.0);
            self.active.iter().any(|t| {
                if t.id == tx_id || t.start >= end || t.end <= start {
                    return false;
                }
                if !t.origin.within_range(receiver, t.range) {
                    return false;
                }
                match self.capture_ratio {
                    Some(ratio) => t.origin.distance(receiver).max(1.0) < ratio * d_sig,
                    None => true,
                }
            })
        }
    }

    proptest::proptest! {
        /// Random interleavings of begin / gc / carrier sense / collision
        /// checks: the slab channel answers every query like the retain
        /// channel — with end times that are not monotone in begin order
        /// (a long frame begun before short ones outlives them),
        /// slots reused many times over, populations on both sides of
        /// `SPATIAL_LINEAR_CUTOFF`, with and without buckets and capture —
        /// and the per-flight interferer list gives the per-receiver
        /// verdict.  The slot universe stays bounded by the live high
        /// water.
        #[test]
        fn slab_channel_matches_the_retain_channel(
            seed in proptest::prelude::any::<u64>(),
            ops in 60..400usize,
            spatial in proptest::prelude::any::<bool>(),
            capture in proptest::prelude::any::<bool>(),
            busy in 1..30u64,
        ) {
            let mut seed = seed;
            let mut fast = ChannelState::paper_default();
            if spatial {
                fast.enable_spatial(2000.0, 1500.0);
            }
            let ratio = capture.then_some(CAPTURE_RATIO_10DB);
            fast.set_capture_ratio(ratio);
            let mut slow = RetainChannel { active: Vec::new(), capture_ratio: ratio };
            let point = |seed: &mut u64| Point2::new(lcg(seed) * 2000.0, lcg(seed) * 1500.0);
            let ranges = [80.0, 150.0, 250.0];
            let mut now = 0u64; // µs
            let mut flights: Vec<Transmission> = Vec::new();
            let mut high_water = 0usize;
            let mut interferers = Vec::new();
            for _ in 0..ops {
                now += (lcg(&mut seed) * 400.0) as u64;
                let at = SimTime::from_micros(now);
                match (lcg(&mut seed) * 10.0) as u32 {
                    // `busy` sets how many frames pile up between gcs
                    0..=3 => {
                        // one frame in eight is long: it outlives dozens
                        // of later, shorter ones
                        let long = lcg(&mut seed) < 0.125;
                        let dur = if long { 20_000 } else { 200 + (lcg(&mut seed) * 2_000.0) as u64 };
                        let origin = point(&mut seed);
                        let range = ranges[(lcg(&mut seed) * 3.0) as usize % 3];
                        let end = SimTime::from_micros(now + dur * busy / 8 + 1);
                        let id = fast.begin_tx(NodeId(7), origin, range, at, end);
                        let tx = Transmission { id, src: NodeId(7), origin, range, start: at, end };
                        slow.active.push(tx);
                        flights.push(tx);
                        if flights.len() > 64 {
                            flights.remove(0);
                        }
                    }
                    4 => {
                        // gc lags the clock
                        let before = SimTime::from_micros(now.saturating_sub(3_000));
                        fast.gc_before(before);
                        slow.gc_before(before);
                        // what was collected can only matter to receptions
                        // that began before the cutoff: stop asking about
                        // those (`gc_at` guarantees the same in the world)
                        flights.retain(|f| f.start >= before);
                        // both collect exactly what ended by the cutoff
                        proptest::prop_assert_eq!(slow.active.len(), fast.in_flight());
                    }
                    5..=6 => {
                        let p = point(&mut seed);
                        proptest::prop_assert_eq!(fast.busy_until(p, at), slow.busy_until(p, at));
                    }
                    _ => {
                        if flights.is_empty() {
                            continue;
                        }
                        let f = flights[(lcg(&mut seed) * flights.len() as f64) as usize];
                        // receivers inside the sender's disc (plus drift)
                        let reach = f.range + 5.0;
                        fast.interferers_into(f.id, f.origin, reach, f.start, f.end, &mut interferers);
                        for _ in 0..6 {
                            let ang = lcg(&mut seed) * std::f64::consts::TAU;
                            let d = lcg(&mut seed).sqrt() * reach;
                            let r = Point2::new(f.origin.x + d * ang.cos(), f.origin.y + d * ang.sin());
                            let want = slow.corrupted(f.id, f.origin, r, f.start, f.end);
                            proptest::prop_assert_eq!(fast.corrupted(f.id, f.origin, r, f.start, f.end), want);
                            proptest::prop_assert_eq!(fast.corrupted_by(&interferers, f.origin, r), want);
                        }
                    }
                }
                high_water = high_water.max(fast.in_flight());
                proptest::prop_assert!(fast.slots.len() <= high_water);
                if let Some(sp) = &fast.spatial {
                    proptest::prop_assert_eq!(sp.len(), fast.in_flight());
                    proptest::prop_assert!(sp.id_universe() <= high_water);
                }
            }
        }
    }

    // --- retention: the world's query pattern against the oracle ----------

    /// One step of the world's channel traffic.
    #[derive(Clone, Copy, Debug)]
    pub(crate) enum WorldStep {
        /// `mac_try_tx` at `tx.start`: gc, carrier sense at the sender,
        /// then `tx` goes on the air (sent whatever the medium, which keeps
        /// the channel loaded).
        Send(Transmission),
        /// `tx_end` at `tx.end`: the flight's interferer list, then gc.
        End(Transmission),
    }

    /// A run of `sends` frames and their ends, in time order, over a
    /// 2000 × 1500 m field: an opening burst (the t = 0 election burst,
    /// dense enough to take the bucket path), simultaneous sends, sends at
    /// the instant another frame ends, mostly paper-sized airtimes, and —
    /// in the second half only, so they arrive late — frames longer than
    /// every one before them.  Ids count from 0 in send order, as a fresh
    /// channel allocates them.
    pub(crate) fn world_steps(seed: &mut u64, sends: usize) -> Vec<WorldStep> {
        let ranges = [80.0, 150.0, 250.0];
        let mut txs: Vec<Transmission> = Vec::with_capacity(sends);
        let mut airborne: BinaryHeap<Reverse<(SimTime, u64)>> = BinaryHeap::new();
        let mut steps = Vec::with_capacity(2 * sends);
        let (mut now, mut longest) = (0u64, 0u64); // µs
        for id in 0..sends as u64 {
            let next_end = airborne.peek().map(|Reverse((end, _))| end.as_nanos() / 1_000);
            if (id as usize) < sends / 8 {
                now += (lcg(seed) * 40.0) as u64;
            } else {
                match (lcg(seed) * 8.0) as u32 {
                    0..=1 => {} // same instant as the previous send
                    2 => now = next_end.unwrap_or(now).max(now),
                    _ => now += (lcg(seed) * 3_000.0) as u64,
                }
            }
            let airtime = if id as usize > sends / 2 && lcg(seed) < 0.05 {
                longest + 1 + (lcg(seed) * 4_000.0) as u64
            } else {
                200 + (lcg(seed) * 2_100.0) as u64
            };
            longest = longest.max(airtime);
            let start = SimTime::from_micros(now);
            // frames that end by this send leave the air first; at a tie
            // either order is one the world's queue may produce
            while let Some(&Reverse((end, i))) = airborne.peek() {
                if end > start || (end == start && lcg(seed) < 0.5) {
                    break;
                }
                airborne.pop();
                steps.push(WorldStep::End(txs[i as usize]));
            }
            let tx = Transmission {
                id,
                src: NodeId(id as u32),
                origin: Point2::new(lcg(seed) * 2000.0, lcg(seed) * 1500.0),
                range: ranges[(lcg(seed) * 3.0) as usize % 3],
                start,
                end: SimTime::from_micros(now + airtime),
            };
            txs.push(tx);
            airborne.push(Reverse((tx.end, id)));
            steps.push(WorldStep::Send(tx));
        }
        while let Some(Reverse((_, i))) = airborne.pop() {
            steps.push(WorldStep::End(txs[i as usize]));
        }
        steps
    }

    /// A receiver of flight `f`: inside its sender's disc plus drift.
    pub(crate) fn receiver_of(seed: &mut u64, f: &Transmission) -> Point2 {
        let ang = lcg(seed) * std::f64::consts::TAU;
        let d = lcg(seed).sqrt() * (f.range + 5.0);
        Point2::new(f.origin.x + d * ang.cos(), f.origin.y + d * ang.sin())
    }

    proptest::proptest! {
        /// The world's query pattern — gc at every send and every frame
        /// end, carrier sense at the send instant, the interferer list at
        /// each flight's end — over a channel collected by `gc_at`: every
        /// answer equals the never-collected oracle's, including after a
        /// late frame longer than all before it, and after each gc the
        /// channel holds no more than what ended within the longest
        /// airtime.
        #[test]
        fn gc_at_keeps_every_answer_of_the_world_query_pattern(
            seed in proptest::prelude::any::<u64>(),
            sends in 40..400usize,
            spatial in proptest::prelude::any::<bool>(),
            capture in proptest::prelude::any::<bool>(),
        ) {
            let mut seed = seed;
            let mut fast = ChannelState::paper_default();
            if spatial {
                fast.enable_spatial(2000.0, 1500.0);
            }
            let ratio = capture.then_some(CAPTURE_RATIO_10DB);
            fast.set_capture_ratio(ratio);
            let mut oracle = RetainChannel { active: Vec::new(), capture_ratio: ratio };
            let mut longest = SimDuration::ZERO;
            let mut list = Vec::new();
            for step in world_steps(&mut seed, sends) {
                match step {
                    WorldStep::Send(tx) => {
                        fast.gc_at(tx.start);
                        proptest::prop_assert!(fast.in_flight() <= oracle.retained_at(tx.start, longest));
                        let elsewhere = Point2::new(lcg(&mut seed) * 2000.0, lcg(&mut seed) * 1500.0);
                        for p in [tx.origin, elsewhere] {
                            proptest::prop_assert_eq!(fast.busy_until(p, tx.start), oracle.busy_until(p, tx.start));
                        }
                        let id = fast.begin_tx(tx.src, tx.origin, tx.range, tx.start, tx.end);
                        proptest::prop_assert_eq!(id, tx.id);
                        oracle.active.push(tx);
                        longest = longest.max(tx.end - tx.start);
                    }
                    WorldStep::End(f) => {
                        let reach = f.range + 5.0;
                        fast.interferers_into(f.id, f.origin, reach, f.start, f.end, &mut list);
                        let mut got: Vec<u64> = list.iter().map(|t| t.id).collect();
                        got.sort_unstable();
                        let mut want: Vec<u64> = oracle
                            .active
                            .iter()
                            .filter(|t| {
                                t.id != f.id
                                    && t.start < f.end
                                    && t.end > f.start
                                    && t.origin.within_range(f.origin, reach + INTERFERER_SLACK_M + t.range)
                            })
                            .map(|t| t.id)
                            .collect();
                        want.sort_unstable();
                        proptest::prop_assert_eq!(got, want);
                        for _ in 0..4 {
                            let r = receiver_of(&mut seed, &f);
                            let want = oracle.corrupted(f.id, f.origin, r, f.start, f.end);
                            proptest::prop_assert_eq!(fast.corrupted_by(&list, f.origin, r), want);
                        }
                        fast.gc_at(f.end);
                        proptest::prop_assert!(fast.in_flight() <= oracle.retained_at(f.end, longest));
                    }
                }
            }
        }
    }
}
