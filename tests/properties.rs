//! Cross-crate property-based tests (proptest) on simulator invariants.

use ecgrid_suite::energy::{Battery, EnergyMeter, PowerProfile, RadioMode};
use ecgrid_suite::geo::{GridMap, Point2, Vec2};
use ecgrid_suite::mobility::{MobilityModel, RandomWaypoint};
use ecgrid_suite::radio::NodeId;
use ecgrid_suite::sim_engine::{derive_seed, SimDuration, SimTime};
use ecgrid_suite::trace::{Event, EventKind, Recorder, Registry, TraceMode};
use proptest::prelude::*;
use rand::SeedableRng;

proptest! {
    /// Any in-field point maps to an in-field cell, and the cell's center
    /// is within half a cell diagonal of the point.
    #[test]
    fn cell_mapping_is_total_and_local(x in 0.0..1000.0f64, y in 0.0..1000.0f64) {
        let m = GridMap::paper_default();
        let p = Point2::new(x, y);
        let c = m.cell_of(p);
        prop_assert!(m.contains_cell(c));
        let center = m.cell_center(c);
        let half_diag = m.cell_side() * std::f64::consts::SQRT_2 / 2.0;
        prop_assert!(p.distance(center) <= half_diag + 1e-9);
    }

    /// The dwell estimate is exact for linear motion: after `dwell` seconds
    /// the host is still in (or exactly on the boundary of) its cell, and
    /// shortly after it has left (when uncapped).
    #[test]
    fn dwell_estimate_is_exact(
        x in 50.0..950.0f64,
        y in 50.0..950.0f64,
        vx in -10.0..10.0f64,
        vy in -10.0..10.0f64,
    ) {
        prop_assume!(vx.abs() > 0.01 || vy.abs() > 0.01);
        let m = GridMap::paper_default();
        let p = Point2::new(x, y);
        let v = Vec2::new(vx, vy);
        let dwell = ecgrid_suite::geo::crossing::dwell_duration(&m, p, v, 1e6);
        if dwell < 1e6 {
            let before = p + v * (dwell * 0.999);
            prop_assert_eq!(m.cell_of(before), m.cell_of(p));
            let after = p + v * (dwell + 0.01);
            // only check if `after` stays in the field
            if (0.0..=1000.0).contains(&after.x) && (0.0..=1000.0).contains(&after.y) {
                prop_assert_ne!(m.cell_of(after), m.cell_of(p));
            }
        }
    }

    /// Energy consumption is monotone and mode-independent in total order:
    /// any interleaving of mode switches never decreases consumed energy,
    /// and never exceeds capacity.
    #[test]
    fn energy_is_monotone_under_random_switching(
        switches in proptest::collection::vec((0u64..100, 0u8..4), 1..40)
    ) {
        let mut m = EnergyMeter::new(PowerProfile::paper_default(), Battery::with_capacity(500.0));
        let mut t = 0u64;
        let mut last = 0.0f64;
        for (dt, mode) in switches {
            t += dt;
            let mode = match mode {
                0 => RadioMode::Idle,
                1 => RadioMode::Sleep,
                2 => RadioMode::Tx,
                _ => RadioMode::Rx,
            };
            m.set_mode(SimTime::from_secs(t), mode);
            let consumed = m.consumed_j();
            prop_assert!(consumed >= last - 1e-12);
            prop_assert!(consumed <= 500.0 + 1e-9);
            last = consumed;
        }
    }

    /// A random-waypoint trace never leaves the field and is continuous:
    /// position changes by at most max_speed × dt between samples.
    #[test]
    fn rwp_traces_are_continuous_and_bounded(seed in 0u64..1000, speed in 0.5..10.0f64) {
        let model = RandomWaypoint::paper(speed, 0.0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let trace = model.build_trace(&mut rng, SimTime::from_secs(200));
        let mut prev = trace.position_at(SimTime::ZERO);
        for s in 1..=200u64 {
            let p = trace.position_at(SimTime::from_secs(s));
            prop_assert!((-1e-6..=1000.0 + 1e-6).contains(&p.x), "{p:?}");
            prop_assert!((-1e-6..=1000.0 + 1e-6).contains(&p.y), "{p:?}");
            prop_assert!(p.distance(prev) <= speed * 1.0 + 1e-6, "jump {}", p.distance(prev));
            prev = p;
        }
    }

    /// Cell-crossing enumeration agrees with position sampling: at every
    /// reported crossing instant the cell really changes to the reported
    /// cell.
    #[test]
    fn crossings_match_positions(seed in 0u64..300) {
        let model = RandomWaypoint::paper(10.0, 0.0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let trace = model.build_trace(&mut rng, SimTime::from_secs(120));
        let m = GridMap::paper_default();
        let mut t = SimTime::ZERO;
        let mut count = 0;
        while let Some((at, into)) = trace.next_cell_crossing(&m, t) {
            // just after the crossing the trace is in the reported cell
            let after = at + SimDuration::from_micros(10);
            prop_assert_eq!(trace.cell_at(&m, after), into);
            t = after;
            count += 1;
            prop_assert!(count < 10_000, "runaway crossings");
        }
    }

    /// Seed derivation never collides across adjacent (domain, index)
    /// pairs in practice.
    #[test]
    fn derived_seeds_are_distinct(master in any::<u64>(), i in 0u64..500) {
        prop_assert_ne!(derive_seed(master, "a", i), derive_seed(master, "a", i + 1));
        prop_assert_ne!(derive_seed(master, "a", i), derive_seed(master, "b", i));
    }

    /// Battery drain math: seconds_until_empty inverts drain exactly.
    #[test]
    fn battery_prediction_inverts_drain(cap in 1.0..1000.0f64, draw in 0.01..5.0f64) {
        let b = Battery::with_capacity(cap);
        let secs = b.seconds_until_empty(draw).unwrap();
        let mut b2 = Battery::with_capacity(cap);
        b2.drain(draw * secs * 0.999);
        prop_assert!(!b2.is_empty());
        b2.drain(draw * secs * 0.002);
        prop_assert!(b2.is_empty());
    }
}

// ---------------------------------------------------------------------------
// Observability-layer properties (crates/trace).
// ---------------------------------------------------------------------------

/// A synthetic but deterministic event stream: timestamps strictly increase,
/// addressing fields vary with the seed.
fn synth_events(n: usize, seed: u64) -> Vec<Event> {
    (0..n)
        .map(|i| {
            let s = derive_seed(seed, "synth-event", i as u64);
            Event {
                t: SimTime::from_micros(i as u64 * 100 + s % 50),
                kind: EventKind::PacketSent {
                    src: NodeId((s % 7) as u32),
                    flow: (s % 3) as u32,
                    seq: i as u64,
                },
            }
        })
        .collect()
}

fn digest_of(events: &[Event]) -> u64 {
    let mut r = Recorder::new(TraceMode::DigestOnly);
    for &e in events {
        r.record(e);
    }
    r.digest().0
}

proptest! {
    /// Counters never decrease under any interleaving of adds — increment
    /// is the only operation the registry offers.
    #[test]
    fn registry_counters_are_monotone(
        ops in proptest::collection::vec((0usize..4, 0u64..1000), 1..100)
    ) {
        let names = ["mac.tx", "mac.rx", "route.forwarded", "app.sent"];
        let mut r = Registry::new();
        let mut last = [0u64; 4];
        for (which, delta) in ops {
            r.counter_add(names[which], delta);
            for (j, name) in names.iter().enumerate() {
                let v = r.counter(name);
                prop_assert!(v >= last[j], "{name} went from {} to {v}", last[j]);
                last[j] = v;
            }
        }
    }

    /// The replay digest detects any single-event perturbation: nudging a
    /// timestamp, changing a payload field, or dropping the event each
    /// produce a different digest.
    #[test]
    fn digest_detects_any_single_event_perturbation(
        n in 2usize..40,
        pick in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let base = synth_events(n, seed);
        let baseline = digest_of(&base);
        let idx = (pick % n as u64) as usize;

        let mut nudged = base.clone();
        nudged[idx].t += SimDuration::from_nanos(1);
        prop_assert_ne!(digest_of(&nudged), baseline, "timestamp nudge at #{idx} went unnoticed");

        let mut reseq = base.clone();
        if let EventKind::PacketSent { seq, .. } = &mut reseq[idx].kind {
            *seq += 1_000_000;
        }
        prop_assert_ne!(digest_of(&reseq), baseline, "field change at #{idx} went unnoticed");

        let mut dropped = base.clone();
        dropped.remove(idx);
        prop_assert_ne!(digest_of(&dropped), baseline, "dropping #{idx} went unnoticed");

        let mut swapped = base.clone();
        if idx + 1 < n {
            // order matters even between distinct events at equal rank
            swapped.swap(idx, idx + 1);
            if swapped[idx] != base[idx] {
                prop_assert_ne!(digest_of(&swapped), baseline, "reorder at #{idx} went unnoticed");
            }
        }
    }
}
