//! Mobility models that generate [`MobilityTrace`]s.

use crate::segment::Segment;
use crate::trace::MobilityTrace;
use geo::Point2;
use rand::Rng;
use sim_engine::{SimDuration, SimTime};

/// The leg-speed floor of the models drawing from `[min_speed, max_speed]`:
/// a zero floor makes the expected leg time infinite (RWP speed decay).
pub fn min_speed(max_speed: f64) -> f64 {
    (0.01 * max_speed).max(1e-3)
}

/// A mobility model builds a full trajectory for one host.
pub trait MobilityModel {
    /// Generate a trace covering at least `[0, horizon]`, deterministic in
    /// the supplied RNG stream.
    fn build_trace<R: Rng>(&self, rng: &mut R, horizon: SimTime) -> MobilityTrace;
}

/// The random waypoint model (§4): pick a uniform destination in the field,
/// travel at a uniform speed in `(0, max_speed]`, pause, repeat.
///
/// ```
/// use mobility::{MobilityModel, RandomWaypoint};
/// use rand::SeedableRng;
/// use sim_engine::SimTime;
///
/// let model = RandomWaypoint::paper(1.0, 0.0); // up to 1 m/s, no pauses
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let trace = model.build_trace(&mut rng, SimTime::from_secs(2000));
/// let p = trace.position_at(SimTime::from_secs(1234));
/// assert!((0.0..=1000.0).contains(&p.x) && (0.0..=1000.0).contains(&p.y));
/// ```
#[derive(Clone, Debug)]
pub struct RandomWaypoint {
    pub field_w: f64,
    pub field_h: f64,
    /// Maximum speed in m/s; actual speeds are U(min_speed, max_speed].
    pub max_speed: f64,
    /// Lower speed bound.  The literal paper text is "uniformly distributed
    /// between 0 and v"; [`min_speed`] applies the customary tiny floor.
    pub min_speed: f64,
    /// Pause at every waypoint, seconds ("pause time" in Figs. 6–7).
    pub pause_secs: f64,
}

impl RandomWaypoint {
    /// Paper defaults: 1000x1000 m field.
    pub fn paper(max_speed: f64, pause_secs: f64) -> Self {
        RandomWaypoint {
            field_w: 1000.0,
            field_h: 1000.0,
            max_speed,
            min_speed: min_speed(max_speed),
            pause_secs,
        }
    }

    fn random_point<R: Rng>(&self, rng: &mut R) -> Point2 {
        Point2::new(
            rng.gen_range(0.0..=self.field_w),
            rng.gen_range(0.0..=self.field_h),
        )
    }
}

impl MobilityModel for RandomWaypoint {
    fn build_trace<R: Rng>(&self, rng: &mut R, horizon: SimTime) -> MobilityTrace {
        assert!(self.max_speed > 0.0 && self.min_speed > 0.0);
        assert!(self.min_speed <= self.max_speed);
        let mut segments = Vec::new();
        let mut now = SimTime::ZERO;
        let mut pos = self.random_point(rng);
        while now < horizon {
            // travel leg
            let dest = self.random_point(rng);
            let speed = rng.gen_range(self.min_speed..=self.max_speed);
            let leg = Segment::travel(now, pos, dest, speed);
            if leg.end > leg.start {
                now = leg.end;
                pos = leg.end_position();
                segments.push(leg);
            }
            // pause leg
            if self.pause_secs > 0.0 && now < horizon {
                let end = now + SimDuration::from_secs_f64(self.pause_secs);
                segments.push(Segment::rest(now, end, pos));
                now = end;
            }
            if segments.len() > 4_000_000 {
                panic!("runaway trace generation");
            }
        }
        if segments.is_empty() {
            return MobilityTrace::stationary(pos, horizon);
        }
        MobilityTrace::new(segments)
    }
}

/// A host that never moves (placed uniformly at random).
#[derive(Clone, Debug)]
pub struct Stationary {
    pub field_w: f64,
    pub field_h: f64,
}

impl MobilityModel for Stationary {
    fn build_trace<R: Rng>(&self, rng: &mut R, horizon: SimTime) -> MobilityTrace {
        let p = Point2::new(
            rng.gen_range(0.0..=self.field_w),
            rng.gen_range(0.0..=self.field_h),
        );
        MobilityTrace::stationary(p, horizon)
    }
}

/// A simple random-walk model (extension beyond the paper): fixed-length
/// epochs with a fresh uniform direction and speed each epoch, reflecting
/// off field edges by re-targeting the walk into the field.
#[derive(Clone, Debug)]
pub struct RandomWalk {
    pub field_w: f64,
    pub field_h: f64,
    pub max_speed: f64,
    pub epoch_secs: f64,
}

impl MobilityModel for RandomWalk {
    fn build_trace<R: Rng>(&self, rng: &mut R, horizon: SimTime) -> MobilityTrace {
        assert!(self.max_speed > 0.0 && self.epoch_secs > 0.0);
        let mut segments = Vec::new();
        let mut now = SimTime::ZERO;
        let mut pos = Point2::new(
            rng.gen_range(0.0..=self.field_w),
            rng.gen_range(0.0..=self.field_h),
        );
        while now < horizon {
            let speed = rng.gen_range(0.1 * self.max_speed..=self.max_speed);
            let theta = rng.gen_range(0.0..std::f64::consts::TAU);
            let step = speed * self.epoch_secs;
            // clamp target into the field: walk toward the clamped point
            let target = Point2::new(pos.x + step * theta.cos(), pos.y + step * theta.sin())
                .clamp_to(self.field_w, self.field_h);
            if target.distance(pos) < 1e-9 {
                let end = now + SimDuration::from_secs_f64(self.epoch_secs);
                segments.push(Segment::rest(now, end, pos));
                now = end;
                continue;
            }
            let leg = Segment::travel(now, pos, target, speed);
            now = leg.end;
            pos = leg.end_position();
            segments.push(leg);
        }
        MobilityTrace::new(segments)
    }
}

/// Gauss–Markov mobility (extension beyond the paper): speed and heading
/// evolve as first-order autoregressive processes, giving smooth,
/// temporally-correlated motion without random waypoint's well-known
/// speed-decay and density-concentration pathologies.  `alpha` tunes the
/// memory: 1 = straight-line cruise, 0 = memoryless jitter.
#[derive(Clone, Debug)]
pub struct GaussMarkov {
    pub field_w: f64,
    pub field_h: f64,
    /// Long-run mean speed, m/s.
    pub mean_speed: f64,
    /// Memory parameter in [0, 1].
    pub alpha: f64,
    /// Update period, seconds (one segment per epoch).
    pub epoch_secs: f64,
}

impl GaussMarkov {
    pub fn paper_field(mean_speed: f64) -> Self {
        GaussMarkov {
            field_w: 1000.0,
            field_h: 1000.0,
            mean_speed,
            alpha: 0.85,
            epoch_secs: 5.0,
        }
    }
}

impl MobilityModel for GaussMarkov {
    fn build_trace<R: Rng>(&self, rng: &mut R, horizon: SimTime) -> MobilityTrace {
        assert!((0.0..=1.0).contains(&self.alpha), "alpha must be in [0,1]");
        assert!(self.mean_speed > 0.0 && self.epoch_secs > 0.0);
        let a = self.alpha;
        let noise = (1.0 - a * a).sqrt();
        let mut segments = Vec::new();
        let mut now = SimTime::ZERO;
        let mut pos = Point2::new(
            rng.gen_range(0.0..=self.field_w),
            rng.gen_range(0.0..=self.field_h),
        );
        let mut speed = self.mean_speed;
        let mut heading = rng.gen_range(0.0..std::f64::consts::TAU);
        // mean heading drifts toward the field center near edges so hosts
        // reflect smoothly instead of sticking to walls
        while now < horizon {
            // AR(1) updates (gaussian noise via Box-Muller from two uniforms)
            let (u1, u2): (f64, f64) = (rng.gen_range(1e-12..1.0), rng.gen_range(0.0..1.0));
            let g1 = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            let g2 = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).sin();
            speed = a * speed + (1.0 - a) * self.mean_speed + noise * (self.mean_speed * 0.3) * g1;
            speed = speed.clamp(0.05 * self.mean_speed, 3.0 * self.mean_speed);
            let edge_margin = 0.1 * self.field_w.min(self.field_h);
            let mean_heading = if pos.x < edge_margin
                || pos.y < edge_margin
                || pos.x > self.field_w - edge_margin
                || pos.y > self.field_h - edge_margin
            {
                // aim at the center
                (self.field_h / 2.0 - pos.y).atan2(self.field_w / 2.0 - pos.x)
            } else {
                heading
            };
            heading = a * heading + (1.0 - a) * mean_heading + noise * 0.4 * g2;

            let step = speed * self.epoch_secs;
            let target = Point2::new(pos.x + step * heading.cos(), pos.y + step * heading.sin())
                .clamp_to(self.field_w, self.field_h);
            if target.distance(pos) < 1e-9 {
                let end = now + SimDuration::from_secs_f64(self.epoch_secs);
                segments.push(Segment::rest(now, end, pos));
                now = end;
                continue;
            }
            let leg = Segment::travel(now, pos, target, speed);
            now = leg.end;
            pos = leg.end_position();
            segments.push(leg);
        }
        MobilityTrace::new(segments)
    }
}

/// Manhattan-grid street mobility (urban extension): motion is constrained
/// to a street lattice with `block_m` spacing.  A host starts at a random
/// intersection and repeatedly travels one block along a street at a
/// uniform speed, preferring not to reverse at intersections (the classic
/// straight-bias variant), optionally pausing at each intersection.
#[derive(Clone, Debug)]
pub struct ManhattanGrid {
    pub field_w: f64,
    pub field_h: f64,
    /// Street spacing in meters.
    pub block_m: f64,
    pub max_speed: f64,
    pub min_speed: f64,
    /// Pause at every intersection, seconds.
    pub pause_secs: f64,
}

impl ManhattanGrid {
    /// Paper-field lattice (1000×1000 m) with `block_m` streets.
    pub fn paper(max_speed: f64, pause_secs: f64, block_m: f64) -> Self {
        ManhattanGrid {
            field_w: 1000.0,
            field_h: 1000.0,
            block_m,
            max_speed,
            min_speed: min_speed(max_speed),
            pause_secs,
        }
    }
}

impl MobilityModel for ManhattanGrid {
    fn build_trace<R: Rng>(&self, rng: &mut R, horizon: SimTime) -> MobilityTrace {
        assert!(self.max_speed > 0.0 && self.block_m > 0.0);
        // intersections at (i·block, j·block), clamped inside the field
        let nx = (self.field_w / self.block_m).floor() as i64 + 1;
        let ny = (self.field_h / self.block_m).floor() as i64 + 1;
        let (mut ix, mut iy) = (rng.gen_range(0..nx), rng.gen_range(0..ny));
        let point = |ix: i64, iy: i64| Point2::new(ix as f64 * self.block_m, iy as f64 * self.block_m);
        let mut segments = Vec::new();
        let mut now = SimTime::ZERO;
        let mut pos = point(ix, iy);
        // (dx, dy) of the previous block, to bias against U-turns
        let mut prev: Option<(i64, i64)> = None;
        while now < horizon {
            let mut dirs: Vec<(i64, i64)> = [(1, 0), (-1, 0), (0, 1), (0, -1)]
                .into_iter()
                .filter(|(dx, dy)| (0..nx).contains(&(ix + dx)) && (0..ny).contains(&(iy + dy)))
                .collect();
            if let Some((px, py)) = prev {
                if dirs.len() > 1 {
                    dirs.retain(|&(dx, dy)| (dx, dy) != (-px, -py));
                }
            }
            let (dx, dy) = dirs[rng.gen_range(0..dirs.len())];
            ix += dx;
            iy += dy;
            prev = Some((dx, dy));
            let dest = point(ix, iy);
            let speed = rng.gen_range(self.min_speed..=self.max_speed);
            let leg = Segment::travel(now, pos, dest, speed);
            now = leg.end;
            pos = leg.end_position();
            segments.push(leg);
            if self.pause_secs > 0.0 && now < horizon {
                let end = now + SimDuration::from_secs_f64(self.pause_secs);
                segments.push(Segment::rest(now, end, pos));
                now = end;
            }
            if segments.len() > 4_000_000 {
                panic!("runaway trace generation");
            }
        }
        MobilityTrace::new(segments)
    }
}

/// Reference-point group (convoy) mobility: the whole group follows one
/// shared reference trajectory, and each member random-walks an offset
/// within `group_radius_m` of the moving reference point.  The reference
/// trace is built once per group (from a group-level RNG stream) and
/// shared by every member's model; the per-member RNG only drives the
/// offset jitter, so members stay clustered for the entire run.
#[derive(Clone, Debug)]
pub struct Convoy {
    /// The group's shared reference trajectory.
    pub reference: MobilityTrace,
    pub field_w: f64,
    pub field_h: f64,
    /// Maximum member distance from the reference point.
    pub group_radius_m: f64,
    /// Offset re-sampling period, seconds.
    pub epoch_secs: f64,
}

impl Convoy {
    pub fn around(reference: MobilityTrace, field_w: f64, field_h: f64, group_radius_m: f64) -> Self {
        Convoy {
            reference,
            field_w,
            field_h,
            group_radius_m,
            epoch_secs: 10.0,
        }
    }
}

impl MobilityModel for Convoy {
    fn build_trace<R: Rng>(&self, rng: &mut R, horizon: SimTime) -> MobilityTrace {
        assert!(self.group_radius_m > 0.0 && self.epoch_secs > 0.0);
        let r = self.group_radius_m;
        // persistent offset random-walking inside the group disc
        let mut off = (rng.gen_range(-r..=r) * 0.5, rng.gen_range(-r..=r) * 0.5);
        let mut segments = Vec::new();
        let mut now = SimTime::ZERO;
        let mut pos = sum_clamped(self.reference.position_at(now), off, self.field_w, self.field_h);
        while now < horizon {
            let end = now + SimDuration::from_secs_f64(self.epoch_secs);
            off.0 = (off.0 + rng.gen_range(-r..=r) * 0.4).clamp(-r, r);
            off.1 = (off.1 + rng.gen_range(-r..=r) * 0.4).clamp(-r, r);
            let target = sum_clamped(self.reference.position_at(end), off, self.field_w, self.field_h);
            let dist = target.distance(pos);
            if dist < 1e-9 {
                segments.push(Segment::rest(now, end, pos));
            } else {
                segments.push(Segment::travel(now, pos, target, dist / self.epoch_secs));
            }
            now = end;
            pos = target;
        }
        MobilityTrace::new(segments)
    }
}

fn sum_clamped(p: Point2, off: (f64, f64), w: f64, h: f64) -> Point2 {
    Point2::new(p.x + off.0, p.y + off.1).clamp_to(w, h)
}

/// Disaster-relief hotspot convergence: hosts repeatedly travel to one of
/// a small set of shared attraction points (incident sites), dwell there,
/// and move on.  The hotspot set is a property of the scenario (built
/// once per group from a group-level RNG stream); the per-member RNG
/// picks which hotspot, the approach point, and the travel speed.
#[derive(Clone, Debug)]
pub struct HotspotConvergence {
    pub field_w: f64,
    pub field_h: f64,
    /// Shared attraction points.
    pub spots: Vec<Point2>,
    pub max_speed: f64,
    pub min_speed: f64,
    /// Dwell time at each hotspot, seconds.
    pub dwell_secs: f64,
    /// Hosts stop within this radius of the hotspot center, so a crowd
    /// spreads out instead of stacking at one coordinate.
    pub crowd_radius_m: f64,
}

impl HotspotConvergence {
    pub fn new(field_w: f64, field_h: f64, spots: Vec<Point2>, max_speed: f64, dwell_secs: f64) -> Self {
        HotspotConvergence {
            field_w,
            field_h,
            spots,
            max_speed,
            min_speed: min_speed(max_speed),
            dwell_secs,
            crowd_radius_m: 25.0,
        }
    }

    /// Draw `n` shared hotspot positions, inset from the field edges.
    pub fn random_spots<R: Rng>(rng: &mut R, field_w: f64, field_h: f64, n: u32) -> Vec<Point2> {
        (0..n)
            .map(|_| {
                Point2::new(
                    rng.gen_range(0.1 * field_w..=0.9 * field_w),
                    rng.gen_range(0.1 * field_h..=0.9 * field_h),
                )
            })
            .collect()
    }
}

impl MobilityModel for HotspotConvergence {
    fn build_trace<R: Rng>(&self, rng: &mut R, horizon: SimTime) -> MobilityTrace {
        assert!(!self.spots.is_empty() && self.max_speed > 0.0 && self.dwell_secs > 0.0);
        let mut segments = Vec::new();
        let mut now = SimTime::ZERO;
        let mut pos = Point2::new(
            rng.gen_range(0.0..=self.field_w),
            rng.gen_range(0.0..=self.field_h),
        );
        while now < horizon {
            let spot = self.spots[rng.gen_range(0..self.spots.len())];
            let theta = rng.gen_range(0.0..std::f64::consts::TAU);
            let rad = rng.gen_range(0.0..=self.crowd_radius_m);
            let dest = Point2::new(spot.x + rad * theta.cos(), spot.y + rad * theta.sin())
                .clamp_to(self.field_w, self.field_h);
            let speed = rng.gen_range(self.min_speed..=self.max_speed);
            let leg = Segment::travel(now, pos, dest, speed);
            if leg.end > leg.start {
                now = leg.end;
                pos = leg.end_position();
                segments.push(leg);
            }
            if now < horizon {
                let end = now + SimDuration::from_secs_f64(self.dwell_secs);
                segments.push(Segment::rest(now, end, pos));
                now = end;
            }
            if segments.len() > 4_000_000 {
                panic!("runaway trace generation");
            }
        }
        if segments.is_empty() {
            return MobilityTrace::stationary(pos, horizon);
        }
        MobilityTrace::new(segments)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn rwp_trace_covers_horizon_and_stays_in_field() {
        let model = RandomWaypoint::paper(10.0, 30.0);
        let horizon = SimTime::from_secs(2000);
        let tr = model.build_trace(&mut rng(7), horizon);
        assert!(tr.horizon() >= horizon);
        for s in [0u64, 100, 500, 999, 1500, 2000] {
            let p = tr.position_at(SimTime::from_secs(s));
            assert!((0.0..=1000.0).contains(&p.x), "{p:?}");
            assert!((0.0..=1000.0).contains(&p.y), "{p:?}");
        }
    }

    #[test]
    fn rwp_is_deterministic_per_seed() {
        let model = RandomWaypoint::paper(1.0, 0.0);
        let a = model.build_trace(&mut rng(42), SimTime::from_secs(500));
        let b = model.build_trace(&mut rng(42), SimTime::from_secs(500));
        assert_eq!(a.segments().len(), b.segments().len());
        for t in [0u64, 100, 250, 499] {
            assert_eq!(
                a.position_at(SimTime::from_secs(t)),
                b.position_at(SimTime::from_secs(t))
            );
        }
        let c = model.build_trace(&mut rng(43), SimTime::from_secs(500));
        assert_ne!(a.position_at(SimTime::ZERO), c.position_at(SimTime::ZERO));
    }

    #[test]
    fn rwp_speed_bounds_hold() {
        let model = RandomWaypoint::paper(10.0, 5.0);
        let tr = model.build_trace(&mut rng(3), SimTime::from_secs(1000));
        for s in tr.segments() {
            let v = s.speed();
            assert!(
                v == 0.0 || (model.min_speed - 1e-9..=10.0 + 1e-9).contains(&v),
                "speed {v}"
            );
        }
    }

    #[test]
    fn rwp_zero_pause_has_no_rest_segments() {
        let model = RandomWaypoint::paper(5.0, 0.0);
        let tr = model.build_trace(&mut rng(11), SimTime::from_secs(300));
        assert!(tr.segments().iter().all(|s| s.speed() > 0.0));
    }

    #[test]
    fn rwp_pause_alternates_rest_and_travel() {
        let model = RandomWaypoint::paper(5.0, 60.0);
        let tr = model.build_trace(&mut rng(11), SimTime::from_secs(600));
        let mut saw_rest = false;
        for w in tr.segments().windows(2) {
            if w[0].speed() > 0.0 && w[1].speed() == 0.0 {
                saw_rest = true;
                assert!((w[1].duration_secs() - 60.0).abs() < 1e-9);
            }
        }
        assert!(saw_rest, "expected pauses in the trace");
    }

    #[test]
    fn stationary_model_rests_forever() {
        let model = Stationary {
            field_w: 100.0,
            field_h: 100.0,
        };
        let tr = model.build_trace(&mut rng(5), SimTime::from_secs(50));
        assert_eq!(tr.path_length(), 0.0);
        assert_eq!(
            tr.position_at(SimTime::ZERO),
            tr.position_at(SimTime::from_secs(50))
        );
    }

    #[test]
    fn random_walk_stays_in_field() {
        let model = RandomWalk {
            field_w: 200.0,
            field_h: 200.0,
            max_speed: 15.0,
            epoch_secs: 10.0,
        };
        let tr = model.build_trace(&mut rng(9), SimTime::from_secs(500));
        for s in 0..=500 {
            let p = tr.position_at(SimTime::from_secs(s));
            let eps = 1e-6; // float round-off at reflecting edges
            assert!(
                (-eps..=200.0 + eps).contains(&p.x) && (-eps..=200.0 + eps).contains(&p.y),
                "{p:?} at {s}"
            );
        }
    }

    #[test]
    fn gauss_markov_stays_in_field_and_moves_smoothly() {
        let model = GaussMarkov::paper_field(5.0);
        let tr = model.build_trace(&mut rng(21), SimTime::from_secs(1000));
        let mut prev = tr.position_at(SimTime::ZERO);
        for s in 1..=1000u64 {
            let p = tr.position_at(SimTime::from_secs(s));
            assert!((-1e-6..=1000.0 + 1e-6).contains(&p.x), "{p:?}");
            assert!((-1e-6..=1000.0 + 1e-6).contains(&p.y), "{p:?}");
            // bounded instantaneous speed (3x mean cap)
            assert!(p.distance(prev) <= 15.0 + 1e-6, "jump {}", p.distance(prev));
            prev = p;
        }
        // it actually roams (not stuck): total path length substantial
        assert!(tr.path_length() > 1000.0, "path {}", tr.path_length());
    }

    #[test]
    fn gauss_markov_heading_is_correlated() {
        // with high alpha, consecutive epochs keep similar direction:
        // net displacement over 60 s should be a large fraction of the
        // path length (unlike a memoryless random walk)
        let model = GaussMarkov {
            alpha: 0.95,
            ..GaussMarkov::paper_field(5.0)
        };
        let tr = model.build_trace(&mut rng(4), SimTime::from_secs(60));
        let a = tr.position_at(SimTime::ZERO);
        let b = tr.position_at(SimTime::from_secs(60));
        let net = a.distance(b);
        let path: f64 = tr
            .segments()
            .iter()
            .filter(|s| s.start < SimTime::from_secs(60))
            .map(|s| s.speed() * s.duration_secs())
            .sum();
        assert!(
            net > 0.35 * path,
            "net {net:.1} of path {path:.1} — too diffusive"
        );
    }

    #[test]
    fn gauss_markov_is_deterministic_per_seed() {
        let model = GaussMarkov::paper_field(3.0);
        let a = model.build_trace(&mut rng(9), SimTime::from_secs(100));
        let b = model.build_trace(&mut rng(9), SimTime::from_secs(100));
        assert_eq!(
            a.position_at(SimTime::from_secs(77)),
            b.position_at(SimTime::from_secs(77))
        );
    }

    #[test]
    fn manhattan_moves_only_along_streets() {
        let model = ManhattanGrid::paper(10.0, 5.0, 100.0);
        let tr = model.build_trace(&mut rng(13), SimTime::from_secs(800));
        for s in tr.segments() {
            let a = s.from;
            let b = s.end_position();
            // every leg is axis-aligned between lattice points
            assert!(
                (a.x - b.x).abs() < 1e-6 || (a.y - b.y).abs() < 1e-6,
                "diagonal leg {a:?} -> {b:?}"
            );
            for p in [a, b] {
                let on_x = (p.x / 100.0 - (p.x / 100.0).round()).abs() < 1e-6;
                let on_y = (p.y / 100.0 - (p.y / 100.0).round()).abs() < 1e-6;
                assert!(on_x && on_y, "off-lattice point {p:?}");
                let eps = 1e-6; // ns-quantized segment ends round off slightly
                assert!((-eps..=1000.0 + eps).contains(&p.x) && (-eps..=1000.0 + eps).contains(&p.y));
            }
        }
    }

    #[test]
    fn manhattan_is_deterministic_per_seed() {
        let model = ManhattanGrid::paper(5.0, 0.0, 125.0);
        let a = model.build_trace(&mut rng(3), SimTime::from_secs(400));
        let b = model.build_trace(&mut rng(3), SimTime::from_secs(400));
        for t in [0u64, 99, 250, 399] {
            assert_eq!(
                a.position_at(SimTime::from_secs(t)),
                b.position_at(SimTime::from_secs(t))
            );
        }
    }

    #[test]
    fn convoy_members_stay_within_the_group_radius() {
        let reference = RandomWaypoint::paper(5.0, 0.0).build_trace(&mut rng(77), SimTime::from_secs(620));
        let model = Convoy::around(reference.clone(), 1000.0, 1000.0, 50.0);
        let member = model.build_trace(&mut rng(8), SimTime::from_secs(600));
        for s in (0..=600).step_by(10) {
            let t = SimTime::from_secs(s);
            let d = member.position_at(t).distance(reference.position_at(t));
            // radius + one epoch of drift while the reference moves
            assert!(
                d <= 50.0 + 5.0 * 10.0 + 1e-6,
                "member {d:.1} m from reference at {s} s"
            );
        }
    }

    #[test]
    fn convoy_members_differ_but_share_the_reference() {
        let reference = RandomWaypoint::paper(2.0, 0.0).build_trace(&mut rng(1), SimTime::from_secs(320));
        let model = Convoy::around(reference, 1000.0, 1000.0, 40.0);
        let a = model.build_trace(&mut rng(10), SimTime::from_secs(300));
        let b = model.build_trace(&mut rng(11), SimTime::from_secs(300));
        let t = SimTime::from_secs(150);
        assert_ne!(a.position_at(t), b.position_at(t));
        // distinct members still cluster: within one diameter of each other
        assert!(a.position_at(t).distance(b.position_at(t)) <= 80.0 + 1e-6);
    }

    #[test]
    fn hotspot_hosts_dwell_near_shared_spots() {
        let spots = HotspotConvergence::random_spots(&mut rng(55), 1000.0, 1000.0, 3);
        let model = HotspotConvergence::new(1000.0, 1000.0, spots.clone(), 10.0, 120.0);
        let tr = model.build_trace(&mut rng(6), SimTime::from_secs(1000));
        // every rest segment sits within the crowd radius of some hotspot
        let mut rests = 0;
        for s in tr.segments() {
            if s.speed() == 0.0 {
                rests += 1;
                let p = s.from;
                let near = spots.iter().any(|q| q.distance(p) <= 25.0 + 1e-6);
                assert!(near, "rest at {p:?} far from every hotspot");
            }
        }
        assert!(rests >= 2, "expected repeated dwells, saw {rests}");
    }

    #[test]
    fn hotspot_is_deterministic_per_seed() {
        let spots = HotspotConvergence::random_spots(&mut rng(2), 500.0, 500.0, 2);
        let model = HotspotConvergence::new(500.0, 500.0, spots, 5.0, 30.0);
        let a = model.build_trace(&mut rng(4), SimTime::from_secs(200));
        let b = model.build_trace(&mut rng(4), SimTime::from_secs(200));
        assert_eq!(
            a.position_at(SimTime::from_secs(123)),
            b.position_at(SimTime::from_secs(123))
        );
    }

    #[test]
    fn mean_speed_roughly_uniform_midpoint() {
        // sanity: time-weighted mean speed of U(0.1, 10] legs is pulled
        // toward the harmonic mean (slow legs last longer) but must stay
        // well above the floor and below the cap
        let model = RandomWaypoint::paper(10.0, 0.0);
        let tr = model.build_trace(&mut rng(1), SimTime::from_secs(2000));
        let travel_time: f64 = tr.segments().iter().map(|s| s.duration_secs()).sum();
        let mean_speed = tr.path_length() / travel_time;
        assert!((0.5..9.0).contains(&mean_speed), "mean speed {mean_speed}");
    }
}
