//! `scale_5k`: a constant-density fleet (100 hosts/km², the paper's
//! density) at N = 5000 under ECGRID on the serial engine, one thread.
//! Receiver gather, carrier sense, channel gc and an event queue some
//! 18 000 deep dominate and protocol logic is a minor share — the
//! opposite balance to `paper_sweep` — and it is the only workload where
//! bytes per host matter.
//!
//! The fleet carries no CBR flows.  At this size every first packet
//! floods the whole 7 km field: with `core_scaling`'s ten flows the ten
//! floods were four fifths of the wall, and how far each reached was a
//! lottery of the seed (events per second differed by 40 % between two
//! seeds, against 3 % without flows).  Beacons, elections, sleep
//! scheduling and cell crossings of 5000 hosts are the steady substrate
//! load this workload is for; `paper_sweep` and `hetero_mobile` carry the
//! routing and data paths.

use crate::core::{Counts, Fleet, LayerCtx, Metric, Rep, RepRun, Variant, Verified, Workload};
use crate::fleet::{finish_rep, run_world};
use crate::span::Tracer;
use ecgrid::{Ecgrid, EcgridConfig};
use ecgrid_bench::core_scaling::field_side;
use manet::trace::Fnv64;
use manet::{RunOutput, World};

/// ns per calibration-kernel iteration on the host class the committed
/// numbers come from (see `calib.rs`; only ratios matter).
const NOMINAL_CAL_NS: f64 = 600.0;

pub struct Scale5k {
    fleet: Fleet,
    world: Option<World<Ecgrid>>,
}

impl Scale5k {
    pub fn new(seed: u64, smoke: bool) -> Self {
        let n = if smoke { 300 } else { 5000 };
        let side = field_side(n);
        Scale5k {
            fleet: Fleet {
                n,
                field_w: side,
                field_h: side,
                max_speed: 1.0,
                sim_secs: if smoke { 2.0 } else { 20.0 },
                seed,
                flows: 0,
            },
            world: None,
        }
    }

    fn build(&self, fleet: &Fleet, v: Variant, tr: &mut Tracer) -> World<Ecgrid> {
        fleet.build(v, |id| Ecgrid::new(EcgridConfig::default(), id), tr)
    }
}

fn fingerprint(out: &RunOutput) -> u64 {
    let mut h = Fnv64::new();
    h.write(format!("{:?}", out.stats).as_bytes());
    h.write_u64(out.ledger.sent_count());
    h.write_u64(out.ledger.delivered_count());
    h.finish()
}

impl Workload for Scale5k {
    fn name(&self) -> &'static str {
        "scale_5k"
    }

    fn hosts(&self) -> usize {
        self.fleet.n
    }

    fn workers(&self) -> usize {
        1
    }

    fn sizes(&self) -> String {
        format!(
            "{} ECGRID hosts at 100 hosts/km2 ({:.0} m field), {} s simulated, no CBR flows, serial engine",
            self.fleet.n, self.fleet.field_w, self.fleet.sim_secs
        )
    }

    fn calibration_ns(&self) -> Option<f64> {
        Some(NOMINAL_CAL_NS)
    }

    fn fleet(&self) -> Fleet {
        self.fleet
    }

    fn setup(&mut self, tr: &mut Tracer) {
        // warm-up: the same fleet for a tenth of the simulated time
        let warm = Fleet {
            sim_secs: self.fleet.sim_secs / 10.0,
            ..self.fleet
        };
        let mut w = self.build(&warm, Variant::Off, tr);
        std::hint::black_box(run_world(&mut w, &warm, tr));
        self.world = Some(self.build(&self.fleet, Variant::Off, tr));
    }

    fn body(&mut self, tr: &mut Tracer) -> Rep {
        let mut world = self.world.take().expect("setup builds the world the body runs");
        let (_, out) = run_world(&mut world, &self.fleet, tr);
        Rep {
            fingerprint: fingerprint(&out),
            ops: 1,
            failed: u64::from(out.budget_exceeded.is_some()),
        }
    }

    fn verify(&mut self, tr: &mut Tracer) -> Verified {
        let mut world = self.build(&self.fleet, Variant::Digest, tr);
        let (_, out) = run_world(&mut world, &self.fleet, tr);
        let pool = world.event_pool_stats();
        let rec = tr
            .span("trace.take_recorder", |_| world.take_recorder())
            .expect("the digest variant traces");
        let mut counts = Counts::default();
        counts.add_run(&out.stats, &rec, self.fleet.sim_secs);
        let digest = rec.digest().0;
        Verified {
            counts,
            fingerprint: fingerprint(&out),
            digests: vec![("ECGRID".into(), digest)],
            rep_digest: digest,
            ops: 1,
            failed: u64::from(out.budget_exceeded.is_some()),
            pool_high_water: Some(pool.high_water),
        }
    }

    fn rep_run(&mut self, v: Variant, tr: &mut Tracer) -> RepRun {
        let mut world = self.build(&self.fleet, v, tr);
        let (wall_s, _) = run_world(&mut world, &self.fleet, tr);
        finish_rep(&mut world, wall_s, tr)
    }

    fn extras(&mut self, _: &mut LayerCtx<'_>, _: &mut Tracer) -> Vec<Metric> {
        Vec::new()
    }
}
