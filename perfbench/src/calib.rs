//! Host-speed calibration.
//!
//! The hosts this benchmark runs on share their cores: the same code runs
//! at one of a few speed levels (about 1 : 1.3 : 1.6) that switch every
//! few hundred milliseconds to seconds, independently per vCPU, and a
//! 24 s run's median wall swings by ±15 % with them.  No statistic over
//! repetitions removes that, because whole runs sit in one level.  What
//! does is measuring the level: a fixed kernel that uses nothing of the
//! repository, shaped like the simulator's hot loop and sized like the
//! workload's fleet, is timed immediately before and after every body,
//! and the body's wall is scaled by `nominal ÷ measured` kernel speed.
//! On ten-rep runs of one seed this cut the run-to-run spread of the body
//! wall from 17–35 % to 6–10 % (`hetero_mobile` 18.8 → 5.7 %,
//! `paper_sweep` 16.7 → 6.1 %, `scale_5k` 35.5 → 10.5 %); the README has
//! the ten-seed spreads of the committed design.
//!
//! The kernel is a miniature event loop over `std` only: pop the earliest
//! event from a binary heap, read a dozen random hosts' positions (the
//! receiver gather), count the ones in range, touch their energy, bump a
//! hash-map counter, append to a small per-host queue that is freed now
//! and then, and schedule the next event.  Its state is sized from the
//! fleet (hosts × 50 records ≈ the world's bytes, hosts × 4 pending
//! events ≈ its queue depth), so it misses caches about as the workload
//! does.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::time::Instant;

struct Host {
    x: f64,
    y: f64,
    energy: f64,
    queue: Vec<u32>,
    heard: u64,
}

/// xorshift64: the kernel must not depend on the repository's RNG.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

pub struct Calibrator {
    hosts: Vec<Host>,
    pending: BinaryHeap<Reverse<(u64, u32)>>,
    seen: HashMap<u32, u64>,
    rng: XorShift,
    /// ns per kernel iteration at which a body's wall is taken as is.
    nominal_ns: f64,
    /// Kernel iterations per sample.
    iterations: u32,
}

impl Calibrator {
    /// A kernel sized for a fleet of `fleet_hosts`; `nominal_ns` is its
    /// cost per iteration on the host class the committed numbers come
    /// from (only ratios of calibrated times are meaningful).  `quick`
    /// shortens a sample from 150 000 iterations to 5000, for smoke runs.
    pub fn new(fleet_hosts: usize, nominal_ns: f64, quick: bool) -> Calibrator {
        let n = fleet_hosts.max(1) * 50;
        let mut rng = XorShift(88172645463325252);
        let hosts: Vec<Host> = (0..n)
            .map(|_| Host {
                x: (rng.next() % 10_000) as f64,
                y: (rng.next() % 10_000) as f64,
                energy: 500.0,
                queue: Vec::new(),
                heard: 0,
            })
            .collect();
        let pending = (0..fleet_hosts.max(1) * 4)
            .map(|_| Reverse((rng.next() % 1_000_000, (rng.next() % n as u64) as u32)))
            .collect();
        Calibrator {
            hosts,
            pending,
            seen: HashMap::new(),
            rng,
            nominal_ns,
            iterations: if quick { 5_000 } else { 150_000 },
        }
    }

    /// Run the kernel once; ns per iteration.
    pub fn sample(&mut self) -> f64 {
        let n = self.hosts.len() as u64;
        let start = Instant::now();
        for _ in 0..self.iterations {
            let Reverse((t, id)) = self.pending.pop().expect("every pop is followed by a push");
            let (px, py) = (self.hosts[id as usize].x, self.hosts[id as usize].y);
            let mut in_range = 0u32;
            for _ in 0..12 {
                let other = &mut self.hosts[(self.rng.next() % n) as usize];
                let (dx, dy) = (other.x - px, other.y - py);
                if dx * dx + dy * dy < 2_500_000.0 {
                    in_range += 1;
                    other.energy -= 0.001;
                    other.heard += 1;
                }
            }
            *self.seen.entry(id ^ in_range).or_default() += t;
            let host = &mut self.hosts[id as usize];
            host.queue.push(in_range);
            if host.queue.len() > 8 {
                host.queue = Vec::new();
            }
            let next = (self.rng.next() % n) as u32;
            self.pending
                .push(Reverse((t + 1 + self.rng.next() % 1_000_000, next)));
        }
        std::hint::black_box(self.seen.len());
        start.elapsed().as_nanos() as f64 / f64::from(self.iterations)
    }

    /// Factor a wall measured between two samples is multiplied by:
    /// above 1 when the host ran faster than nominal around it.
    pub fn factor(&self, before_ns: f64, after_ns: f64) -> f64 {
        self.nominal_ns / ((before_ns + after_ns) / 2.0)
    }
}

/// A workload's calibrator (or none) with the bookkeeping for timing
/// things between two samples.
pub struct HostSpeed {
    cal: Option<Calibrator>,
    /// The latest sample and when it ended: back-to-back measurements
    /// share the sample between them.
    last: Option<(Instant, f64)>,
    /// Every sample taken, ns per kernel iteration.
    pub samples: Vec<f64>,
}

impl HostSpeed {
    pub fn new(cal: Option<Calibrator>) -> HostSpeed {
        HostSpeed {
            cal,
            last: None,
            samples: Vec::new(),
        }
    }

    fn sample(&mut self) -> Option<f64> {
        let ns = self.cal.as_mut()?.sample();
        self.last = Some((Instant::now(), ns));
        self.samples.push(ns);
        Some(ns)
    }

    /// Run `f` between two kernel samples.  Returns its value and the
    /// factor that turns a wall measured inside `f` into calibrated
    /// seconds (1 without a calibrator).
    pub fn around<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let fresh = self
            .last
            .filter(|(at, _)| at.elapsed().as_millis() < 20)
            .map(|(_, ns)| ns);
        let Some(before) = fresh.or_else(|| self.sample()) else {
            return (f(), 1.0);
        };
        let out = f();
        let after = self
            .sample()
            .expect("a calibrator that sampled before samples again");
        let factor = self.cal.as_ref().map_or(1.0, |c| c.factor(before, after));
        (out, factor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_runs_and_scales_walls_by_measured_speed() {
        let mut c = Calibrator::new(10, 100.0, true);
        assert_eq!(c.hosts.len(), 500);
        assert_eq!(c.pending.len(), 40);
        let ns = c.sample();
        assert!(ns > 0.0 && ns.is_finite());
        assert_eq!(c.pending.len(), 40, "the kernel holds its queue depth");
        // a host measured at half the nominal cost is twice as fast:
        // walls taken on it count double
        assert_eq!(c.factor(50.0, 50.0), 2.0);
        assert_eq!(c.factor(150.0, 250.0), 0.5);
    }

    #[test]
    fn back_to_back_measurements_share_a_sample() {
        let mut speed = HostSpeed::new(Some(Calibrator::new(2, 100.0, true)));
        let (x, k) = speed.around(|| 7);
        assert_eq!(x, 7);
        assert!(k > 0.0 && k.is_finite());
        assert_eq!(speed.samples.len(), 2);
        speed.around(|| ());
        assert_eq!(speed.samples.len(), 3, "the sample between the two is taken once");
        let mut none = HostSpeed::new(None);
        assert_eq!(none.around(|| 1), (1, 1.0));
        assert!(none.samples.is_empty());
    }
}
