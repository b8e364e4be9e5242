//! A whole trajectory: consecutive segments covering `[0, horizon]`.

use crate::segment::Segment;
use geo::{crossing_out_of_cell, GridCoord, GridMap, Point2, Vec2};
use sim_engine::{SimDuration, SimTime};

/// Piecewise-linear trajectory.  Segments are contiguous in time and
/// continuous in space; the last segment's end is the trace horizon (the
/// host rests there afterwards).
#[derive(Clone, Debug)]
pub struct MobilityTrace {
    segments: Box<[Segment]>,
}

impl MobilityTrace {
    /// Build from contiguous segments, keeping exactly those (a mobility
    /// model grew the list by pushing; the trace drops the spare room).
    /// Panics if the list is empty, not time-contiguous, or spatially
    /// discontinuous.
    pub fn new(segments: Vec<Segment>) -> Self {
        assert!(!segments.is_empty(), "trace needs at least one segment");
        assert_eq!(segments[0].start, SimTime::ZERO, "trace must start at t=0");
        for w in segments.windows(2) {
            assert_eq!(w[0].end, w[1].start, "segments must be time-contiguous");
            let gap = w[0].end_position().distance(w[1].from);
            assert!(gap < 1e-6, "segments must be spatially continuous (gap {gap})");
        }
        MobilityTrace {
            segments: segments.into_boxed_slice(),
        }
    }

    /// A host that never moves.
    pub fn stationary(at: Point2, horizon: SimTime) -> Self {
        MobilityTrace::new(vec![Segment::rest(SimTime::ZERO, horizon, at)])
    }

    #[inline]
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    #[inline]
    pub fn horizon(&self) -> SimTime {
        self.segments.last().unwrap().end
    }

    /// Index of the segment active at `t` (the last one for `t` past the
    /// horizon).
    fn segment_index_at(&self, t: SimTime) -> usize {
        // segments are sorted by start; find the last with start <= t
        match self.segments.binary_search_by(|s| s.start.cmp(&t)) {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) => i - 1,
        }
    }

    #[inline]
    pub fn segment_at(&self, t: SimTime) -> &Segment {
        &self.segments[self.segment_index_at(t)]
    }

    /// Position at any instant (rests at the final position past the
    /// horizon).
    #[inline]
    pub fn position_at(&self, t: SimTime) -> Point2 {
        self.segment_at(t).position_at(t)
    }

    /// Instantaneous velocity at `t` (zero past the horizon).
    #[inline]
    pub fn velocity_at(&self, t: SimTime) -> Vec2 {
        if t >= self.horizon() {
            return Vec2::ZERO;
        }
        self.segment_at(t).velocity
    }

    /// The grid cell occupied at `t`.
    #[inline]
    pub fn cell_at(&self, map: &GridMap, t: SimTime) -> GridCoord {
        map.cell_of(self.position_at(t))
    }

    /// First grid-boundary crossing strictly after `t`: returns the
    /// crossing instant and the cell being entered.  `None` if the host
    /// never changes cell again before the horizon.
    pub fn next_cell_crossing(&self, map: &GridMap, t: SimTime) -> Option<(SimTime, GridCoord)> {
        let start_cell = self.cell_at(map, t);
        let mut idx = self.segment_index_at(t);
        let mut now = t;
        let mut guard = 0u32;
        loop {
            guard += 1;
            if guard > 100_000 {
                // degenerate float configuration (host pinned to a cell
                // boundary); report no crossing rather than spinning
                return None;
            }
            let seg = &self.segments[idx];
            let p = seg.position_at(now);
            if let Some(c) = crossing_out_of_cell(map, p, seg.velocity) {
                let at = now + SimDuration::from_secs_f64(c.dt);
                if at < seg.end {
                    // crossing happens inside this segment
                    if c.next_cell != start_cell {
                        return Some((at, c.next_cell));
                    }
                    // re-entered the starting cell boundary glitch; continue
                    // with guaranteed forward progress
                    now = SimTime(at.as_nanos().max(now.as_nanos() + 1));
                    continue;
                }
            }
            // no crossing within this segment; hop to the next one
            idx += 1;
            if idx >= self.segments.len() {
                return None;
            }
            now = self.segments[idx].start;
            // a waypoint may sit exactly on a boundary: detect cell change
            // at the segment junction itself
            let cell_here = map.cell_of(self.segments[idx].from);
            if cell_here != start_cell {
                return Some((now, cell_here));
            }
        }
    }

    /// The dwell duration the paper's sleepers compute (§3.2): time from
    /// `t` until the host expects to leave its current grid, estimated from
    /// *current* position and velocity only (GPS snapshot), capped at
    /// `horizon_secs`.
    pub fn estimated_dwell(&self, map: &GridMap, t: SimTime, horizon_secs: f64) -> f64 {
        let p = self.position_at(t);
        let v = self.velocity_at(t);
        geo::crossing::dwell_duration(map, p, v, horizon_secs)
    }

    /// Fastest leg of the trajectory in m/s: over any interval `dt` the
    /// host moves at most `max_speed() * dt` meters.
    pub fn max_speed(&self) -> f64 {
        self.segments.iter().map(Segment::speed).fold(0.0, f64::max)
    }

    /// Total path length in meters (diagnostic).
    pub fn path_length(&self) -> f64 {
        self.segments.iter().map(|s| s.speed() * s.duration_secs()).sum()
    }
}

/// A host's current leg, held beside its trace so that the hot loops read
/// one inline [`Segment`] instead of chasing `trace → slice → segment` and
/// bisecting on every position query.
///
/// The cached leg answers only instants *strictly inside* it: there the
/// trace's own bisection can land on no other segment, so the cursor is
/// bit-identical to [`MobilityTrace::position_at`] /
/// [`MobilityTrace::velocity_at`] whatever order the queries arrive in.
/// Everything else — a leg's first instant (zero-length legs may share
/// it), its end, the rest past the horizon — is looked up afresh, through
/// the trace, every time.
#[derive(Clone, Copy, Debug)]
pub struct LegCursor {
    leg: Segment,
}

impl LegCursor {
    /// A cursor over `trace`, parked on its first leg.
    pub fn new(trace: &MobilityTrace) -> Self {
        LegCursor {
            leg: trace.segments[0],
        }
    }

    /// The segment `trace.segment_at(t)` returns.  `trace` must be the
    /// trace the cursor was built over.
    #[inline]
    fn leg_at(&mut self, trace: &MobilityTrace, t: SimTime) -> &Segment {
        if !(self.leg.start < t && t < self.leg.end) {
            self.leg = *trace.segment_at(t);
        }
        &self.leg
    }

    /// [`MobilityTrace::position_at`], from the cached leg.
    #[inline]
    pub fn position_at(&mut self, trace: &MobilityTrace, t: SimTime) -> Point2 {
        self.leg_at(trace, t).position_at(t)
    }

    /// [`MobilityTrace::velocity_at`], from the cached leg.
    #[inline]
    pub fn velocity_at(&mut self, trace: &MobilityTrace, t: SimTime) -> Vec2 {
        let leg = self.leg_at(trace, t);
        if t < leg.end {
            leg.velocity
        } else {
            // an empty leg at `t`, or the rest past the horizon
            trace.velocity_at(t)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{Convoy, ManhattanGrid, MobilityModel, RandomWaypoint};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// `trace` with an empty rest leg spliced in after every `every`-th
    /// segment (two in a row after every `2 * every`-th).
    fn with_empty_legs(trace: &MobilityTrace, every: usize) -> MobilityTrace {
        let mut segments = Vec::new();
        for (i, s) in trace.segments().iter().enumerate() {
            segments.push(*s);
            if (i + 1) % every == 0 {
                segments.push(Segment::rest(s.end, s.end, s.end_position()));
                if (i + 1) % (2 * every) == 0 {
                    segments.push(Segment::rest(s.end, s.end, s.end_position()));
                }
            }
        }
        MobilityTrace::new(segments)
    }

    proptest::proptest! {
        /// The cursor is the trace, bit for bit: at every leg's first and
        /// last instant and a nanosecond either side, inside legs, on
        /// empty legs and past the horizon — asked in time order (the
        /// simulator's order) and then backwards through the same cursor.
        #[test]
        fn leg_cursor_is_bit_identical_to_the_trace(
            seed in proptest::prelude::any::<u64>(),
            model in 0..3u8,
            empty_every in 1..6usize,
            max_speed in 0.5..20.0f64,
            pause in 0.0..8.0f64,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let horizon = SimTime::from_secs(120);
            let waypoint = RandomWaypoint::paper(max_speed, pause);
            let built = match model {
                0 => waypoint.build_trace(&mut rng, horizon),
                1 => ManhattanGrid::paper(max_speed, pause, 125.0).build_trace(&mut rng, horizon),
                _ => {
                    let lead = waypoint.build_trace(&mut rng, horizon);
                    Convoy::around(lead, 1000.0, 1000.0, 40.0).build_trace(&mut rng, horizon)
                }
            };
            let trace = with_empty_legs(&built, empty_every);
            let mut probes = Vec::new();
            for s in trace.segments() {
                for edge in [s.start, s.end] {
                    probes.extend([edge.0.saturating_sub(1), edge.0, edge.0 + 1]);
                }
                probes.push(s.start.0 + (s.end.0 - s.start.0) / 3);
            }
            let end = trace.horizon().0;
            probes.extend([end + 1_000, end + 1_000, end + 5_000_000_000]);
            probes.sort_unstable();
            let mut cursor = LegCursor::new(&trace);
            let backwards = probes.clone().into_iter().rev();
            for ns in probes.into_iter().chain(backwards) {
                let t = SimTime(ns);
                let (p, q) = (cursor.position_at(&trace, t), trace.position_at(t));
                proptest::prop_assert_eq!((p.x.to_bits(), p.y.to_bits()), (q.x.to_bits(), q.y.to_bits()), "position at {:?}", t);
                let (v, w) = (cursor.velocity_at(&trace, t), trace.velocity_at(t));
                proptest::prop_assert_eq!((v.x.to_bits(), v.y.to_bits()), (w.x.to_bits(), w.y.to_bits()), "velocity at {:?}", t);
            }
        }
    }

    fn two_leg_trace() -> MobilityTrace {
        // east 100 m at 10 m/s, pause 5 s, north 50 m at 5 m/s
        let s1 = Segment::travel(
            SimTime::ZERO,
            Point2::new(50.0, 50.0),
            Point2::new(150.0, 50.0),
            10.0,
        );
        let s2 = Segment::rest(s1.end, s1.end + SimDuration::from_secs(5), s1.end_position());
        let s3 = Segment::travel(s2.end, s2.from, Point2::new(150.0, 110.0), 5.0);
        MobilityTrace::new(vec![s1, s2, s3])
    }

    #[test]
    fn position_and_velocity_lookup() {
        let tr = two_leg_trace();
        assert_eq!(tr.position_at(SimTime::ZERO), Point2::new(50.0, 50.0));
        let p = tr.position_at(SimTime::from_secs(5));
        assert!((p.x - 100.0).abs() < 1e-6);
        // during the pause
        let p = tr.position_at(SimTime::from_secs(12));
        assert!((p.x - 150.0).abs() < 1e-6);
        assert_eq!(tr.velocity_at(SimTime::from_secs(12)), Vec2::ZERO);
        // past the horizon: rests at final position, zero velocity
        let p = tr.position_at(SimTime::from_secs(1000));
        assert!((p.y - 110.0).abs() < 1e-6);
        assert_eq!(tr.velocity_at(SimTime::from_secs(1000)), Vec2::ZERO);
    }

    #[test]
    fn cell_crossing_during_motion() {
        let tr = two_leg_trace();
        let map = GridMap::paper_default();
        assert_eq!(tr.cell_at(&map, SimTime::ZERO), GridCoord::new(0, 0));
        let (at, cell) = tr.next_cell_crossing(&map, SimTime::ZERO).unwrap();
        assert_eq!(cell, GridCoord::new(1, 0));
        assert!((at.as_secs_f64() - 5.0).abs() < 1e-3, "{at:?}");
    }

    #[test]
    fn cell_crossing_across_pause() {
        let tr = two_leg_trace();
        let map = GridMap::paper_default();
        // after the first crossing (t≈5), host sits at x=150 in cell (1,0)
        // until t=15, then moves north crossing into (1,1) at y=100:
        // 10 s of travel after t=15 → t=25
        let (at1, _) = tr.next_cell_crossing(&map, SimTime::ZERO).unwrap();
        let (at2, cell2) = tr.next_cell_crossing(&map, at1).unwrap();
        assert_eq!(cell2, GridCoord::new(1, 1));
        assert!((at2.as_secs_f64() - 25.0).abs() < 1e-3, "{at2:?}");
        // no further crossings
        assert!(tr.next_cell_crossing(&map, at2).is_none());
    }

    #[test]
    fn stationary_trace_never_crosses() {
        let map = GridMap::paper_default();
        let tr = MobilityTrace::stationary(Point2::new(555.0, 555.0), SimTime::from_secs(100));
        assert!(tr.next_cell_crossing(&map, SimTime::ZERO).is_none());
        assert_eq!(tr.cell_at(&map, SimTime::from_secs(99)), GridCoord::new(5, 5));
        assert_eq!(tr.path_length(), 0.0);
    }

    #[test]
    fn estimated_dwell_uses_instantaneous_velocity() {
        let tr = two_leg_trace();
        let map = GridMap::paper_default();
        // at t=0: 50 m to the boundary at 10 m/s → 5 s
        let d = tr.estimated_dwell(&map, SimTime::ZERO, 300.0);
        assert!((d - 5.0).abs() < 1e-6);
        // during the pause the estimate is the horizon (zero velocity)
        let d = tr.estimated_dwell(&map, SimTime::from_secs(12), 300.0);
        assert_eq!(d, 300.0);
    }

    #[test]
    #[should_panic(expected = "contiguous")]
    fn non_contiguous_segments_panic() {
        let s1 = Segment::rest(SimTime::ZERO, SimTime::from_secs(5), Point2::ORIGIN);
        let s2 = Segment::rest(SimTime::from_secs(6), SimTime::from_secs(7), Point2::ORIGIN);
        MobilityTrace::new(vec![s1, s2]);
    }

    #[test]
    #[should_panic(expected = "continuous")]
    fn teleporting_segments_panic() {
        let s1 = Segment::rest(SimTime::ZERO, SimTime::from_secs(5), Point2::ORIGIN);
        let s2 = Segment::rest(
            SimTime::from_secs(5),
            SimTime::from_secs(7),
            Point2::new(9.0, 9.0),
        );
        MobilityTrace::new(vec![s1, s2]);
    }

    #[test]
    fn path_length_sums_travel() {
        let tr = two_leg_trace();
        assert!((tr.path_length() - 160.0).abs() < 1e-6);
        assert!((tr.max_speed() - 10.0).abs() < 1e-9);
    }
}
