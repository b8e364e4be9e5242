//! The conservative-sync test wall: the sharded parallel engine must be
//! *bit-for-bit* indistinguishable from the serial one.
//!
//! PR 7 added the sharded engine: the field is cut into K vertical strips
//! of grid-cell columns, each with its own event queue, event slab, and
//! channel bookkeeping, merged at every pop in deterministic
//! `(time, queue_seq)` order (see DESIGN.md §12).  Nothing about that
//! reorganization may show in a trace — same dispatch order, same RNG
//! draws, same energy-integration sequences, same digest.  These tests
//! hold the claim to account the same way the SoA and neighbor-index PRs
//! did, by digest, against fixtures that predate the sharded engine:
//!
//! * every committed golden fixture reproduces under K ∈ {1, 2, 4, 7}
//!   (1 exercises the degenerate single-strip engine, 2 and 4 split the
//!   10-column paper grid evenly-ish, 7 forces ragged 2/1-column strips);
//! * the faulted fixtures reproduce too, so crash freezing, fault RNG
//!   streams, and death pruning agree across the boundary mirrors;
//! * a heavy-drain run whose hosts die *and* migrate between strips
//!   mid-run digests identically, with the migrations proven to happen.
//!
//! PR 9 added the threads axis: the host-plane kernels (energy integration,
//! mobility evaluation, reception verdicts, paging scans) fan out over a
//! worker pool while dispatch and every state commit stay serial (see
//! DESIGN.md §14).  The same wall now runs on a threads axis: every
//! fixture must reproduce at K=4 × T ∈ {1, 2, 4}, and two dense scenarios
//! that between them engage every parallel kernel must agree with their
//! serial twins event-for-event.

use ecgrid_suite::manet::{FaultPlan, NeighborIndex, WorldConfig};
use ecgrid_suite::runner::{run_scenario_with, ProtocolKind, RunOptions, Scenario};

mod common;
use common::{golden, golden_plan, read_fixture};

const PROTOCOLS: [ProtocolKind; 3] = [ProtocolKind::Ecgrid, ProtocolKind::Grid, ProtocolKind::Gaf];

/// Strip counts under test: degenerate, even, the benchmark's K, and a
/// ragged split of the paper's 10 columns (strips of 2 and 1 columns).
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 7];

#[test]
fn sharded_engine_reproduces_the_golden_fixtures_at_every_shard_count() {
    for p in PROTOCOLS {
        let want = read_fixture(&p.name().to_lowercase());
        for k in SHARD_COUNTS {
            let r = run_scenario_with(&golden(p), RunOptions::digest().with_parallel_world(k));
            assert_eq!(
                r.trace_digest,
                Some(want),
                "{p:?}: sharded run (K={k}) drifted from the golden fixture"
            );
        }
    }
}

#[test]
fn sharded_engine_reproduces_the_faulted_fixtures_at_every_shard_count() {
    // Faults are the adversarial case for shard assignment: crash/rejoin
    // chains, per-node fault RNG draws keyed by dispatch order, and frame
    // losses drawn *during* tx_end all must land identically.
    for p in PROTOCOLS {
        let want = read_fixture(&format!("{}_faulted", p.name().to_lowercase()));
        for k in SHARD_COUNTS {
            let r = run_scenario_with(
                &golden(p),
                RunOptions::digest()
                    .with_faults(golden_plan())
                    .with_parallel_world(k),
            );
            assert_eq!(
                r.trace_digest,
                Some(want),
                "{p:?}: faulted sharded run (K={k}) drifted from the fixture"
            );
            assert!(
                r.stats.crashes > 0 && r.stats.frames_lost_fault > 0,
                "{p:?} (K={k}): the chaos plan must actually engage"
            );
        }
    }
}

#[test]
fn serial_and_sharded_agree_while_deaths_and_migrations_cross_strips() {
    // The hard case for shard ownership: hosts at 2 m/s cross strip
    // boundaries mid-run (events migrate queues) while a heavy drain plan
    // kills others (shard membership shrinks).  Serial and sharded runs
    // must agree on everything — digest and stats — and the run must
    // actually exercise both hazards.
    let sc = Scenario {
        protocol: ProtocolKind::Ecgrid,
        n_hosts: 120,
        max_speed: 2.0,
        pause_secs: 0.0,
        n_flows: 5,
        flow_rate_pps: 1.0,
        duration_secs: 30.0,
        seed: 17,
        model1_endpoints: 4,
    };
    let plan = FaultPlan::parse("drain=0.2,drain_frac=0.95,churn=0.02,rejoin=2").unwrap();
    let base = RunOptions::digest()
        .with_faults(plan)
        .with_neighbor_index(NeighborIndex::Grid);
    let serial = run_scenario_with(&sc, base);
    assert!(
        serial.stats.deaths > 0,
        "drain plan produced no deaths; the scenario lost its teeth"
    );
    for k in SHARD_COUNTS {
        let sharded = run_scenario_with(&sc, base.with_parallel_world(k));
        assert_eq!(
            sharded.trace_digest, serial.trace_digest,
            "sharded run (K={k}) diverged from serial under drain + migration"
        );
        assert_eq!(sharded.stats, serial.stats, "stats drift at K={k}");
    }
}

/// Worker-lane counts under test: inline, a split, and the CI smoke's T.
const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

#[test]
fn threaded_engine_reproduces_the_golden_fixtures_at_every_thread_count() {
    for p in PROTOCOLS {
        let want = read_fixture(&p.name().to_lowercase());
        for t in THREAD_COUNTS {
            let r = run_scenario_with(
                &golden(p),
                RunOptions::digest().with_parallel_world(4).with_threads(t),
            );
            assert_eq!(
                r.trace_digest,
                Some(want),
                "{p:?}: threaded run (K=4, T={t}) drifted from the golden fixture"
            );
        }
    }
}

#[test]
fn threaded_engine_reproduces_the_faulted_fixtures_at_every_thread_count() {
    // Faults are the adversarial case for the two-phase kernels: the
    // stateful frame-loss draws must happen in the serial commit phase in
    // exactly the serial order, or the whole RNG stream shears.
    for p in PROTOCOLS {
        let want = read_fixture(&format!("{}_faulted", p.name().to_lowercase()));
        for t in THREAD_COUNTS {
            let r = run_scenario_with(
                &golden(p),
                RunOptions::digest()
                    .with_faults(golden_plan())
                    .with_parallel_world(4)
                    .with_threads(t),
            );
            assert_eq!(
                r.trace_digest,
                Some(want),
                "{p:?}: faulted threaded run (K=4, T={t}) drifted from the fixture"
            );
        }
    }
}

#[test]
fn threaded_engine_agrees_while_deaths_and_migrations_cross_strips() {
    // The drain+migration hazard from the sharded wall, on the threads
    // axis: deaths discovered inside parallel probe kernels must commit
    // in serial order while strip membership shrinks and hosts migrate.
    let sc = Scenario {
        protocol: ProtocolKind::Ecgrid,
        n_hosts: 120,
        max_speed: 2.0,
        pause_secs: 0.0,
        n_flows: 5,
        flow_rate_pps: 1.0,
        duration_secs: 30.0,
        seed: 17,
        model1_endpoints: 4,
    };
    let plan = FaultPlan::parse("drain=0.2,drain_frac=0.95,churn=0.02,rejoin=2").unwrap();
    let base = RunOptions::digest()
        .with_faults(plan)
        .with_neighbor_index(NeighborIndex::Grid);
    let serial = run_scenario_with(&sc, base);
    assert!(serial.stats.deaths > 0, "drain plan produced no deaths");
    for t in THREAD_COUNTS {
        let threaded = run_scenario_with(&sc, base.with_parallel_world(4).with_threads(t));
        assert_eq!(
            threaded.trace_digest, serial.trace_digest,
            "threaded run (K=4, T={t}) diverged from serial under drain + migration"
        );
        assert_eq!(threaded.stats, serial.stats, "stats drift at T={t}");
    }
}

#[test]
fn threaded_engine_agrees_on_a_scenario_dense_enough_to_engage_the_kernels() {
    // The golden scenario's 30 hosts stay under the parallel engagement
    // threshold — its value above is fixture equality, not kernel
    // coverage.  Each kernel engages only on a loop of at least
    // `PAR_MIN_ITEMS` (96) hosts, and the two inputs here cover them:
    // - 300 ECGRID hosts: every sample tick and paging scan crosses the
    //   worker pool (the probe kernel), and so do the broadcasts' candidate
    //   lists (the freeze kernel).  ECGRID sleeps most hosts, so no flight
    //   freezes 96 receivers and the `tx_end` kernel never runs here.
    // - 500 GRID hosts: GRID keeps every host awake, so a flight from the
    //   middle of the field freezes about a hundred receivers and its end
    //   runs the `tx_end` kernel.
    // The faulted variant routes deaths and battery-level changes through
    // the barrier mailbox, and frame-loss draws through the kernels'
    // serial commit.
    let sleepy = Scenario {
        protocol: ProtocolKind::Ecgrid,
        n_hosts: 300,
        max_speed: 1.0,
        pause_secs: 0.0,
        n_flows: 4,
        flow_rate_pps: 1.0,
        duration_secs: 25.0,
        seed: 23,
        model1_endpoints: 4,
    };
    let awake = Scenario {
        protocol: ProtocolKind::Grid,
        n_hosts: 500,
        duration_secs: 3.0,
        ..sleepy
    };
    for sc in [sleepy, awake] {
        for plan in [FaultPlan::none(), golden_plan()] {
            let base = RunOptions::digest().with_faults(plan);
            let serial = run_scenario_with(&sc, base);
            for t in THREAD_COUNTS {
                let threaded = run_scenario_with(&sc, base.with_parallel_world(4).with_threads(t));
                assert_eq!(
                    threaded.trace_digest, serial.trace_digest,
                    "dense threaded {:?} run (K=4, T={t}) diverged from serial",
                    sc.protocol
                );
                assert_eq!(
                    threaded.stats, serial.stats,
                    "{:?} stats drift at T={t}",
                    sc.protocol
                );
            }
        }
    }
}

#[test]
fn zero_shards_and_zero_threads_are_refused() {
    // There is no auto value: an engine runs on the counts it names.
    let refused = |f: fn()| std::panic::catch_unwind(f).is_err();
    assert!(refused(|| {
        let _ = RunOptions::digest().with_parallel_world(0);
    }));
    assert!(refused(|| {
        let _ = RunOptions::digest().with_threads(0);
    }));
    assert!(refused(|| {
        let _ = WorldConfig::paper_default(1).with_parallel_world(0);
    }));
    assert!(refused(|| {
        let _ = WorldConfig::paper_default(1).with_threads(0);
    }));
}

#[test]
fn sharding_is_orthogonal_to_the_other_digest_neutral_knobs() {
    // Every engine knob claims digest-neutrality; the claims must compose.
    // Brute neighbor mode on the sharded engine still has to match the
    // fixture recorded on the serial grid-mode engine.
    let want = read_fixture("ecgrid");
    let r = run_scenario_with(
        &golden(ProtocolKind::Ecgrid),
        RunOptions::digest()
            .with_neighbor_index(NeighborIndex::Brute)
            .with_parallel_world(4),
    );
    assert_eq!(
        r.trace_digest,
        Some(want),
        "sharded + brute-index run drifted from the golden fixture"
    );
    // ...and off the paper field: 50 hosts at the paper's density on the
    // constant-density field the benchmark scales (side 1000·√(N/100) m,
    // here 7.07 cell columns, so the last column and the strips are
    // ragged) — brute = grid = sharded K=4 = threaded K=4 × T=2.
    let mut spec = Scenario {
        n_hosts: 50,
        n_flows: 10,
        duration_secs: 5.0,
        seed: 3,
        ..golden(ProtocolKind::Ecgrid)
    }
    .to_spec();
    spec.field_w = 1000.0 * 0.5f64.sqrt();
    spec.field_h = spec.field_w;
    spec.traffic.start_s = 1.0;
    let run = |opts| ecgrid_suite::runner::run_spec(&spec, ProtocolKind::Ecgrid, opts);
    let grid = run(RunOptions::digest().with_neighbor_index(NeighborIndex::Grid));
    assert!(grid.trace_digest.is_some(), "tracing was enabled");
    assert!(grid.stats.tx_started > 100, "the scenario must actually do work");
    for (what, opts) in [
        (
            "brute",
            RunOptions::digest().with_neighbor_index(NeighborIndex::Brute),
        ),
        ("sharded K=4", RunOptions::digest().with_parallel_world(4)),
        (
            "threaded K=4 T=2",
            RunOptions::digest().with_parallel_world(4).with_threads(2),
        ),
    ] {
        let r = run(opts);
        assert_eq!(
            r.trace_digest, grid.trace_digest,
            "constant-density field: {what} diverged"
        );
        assert_eq!(r.stats, grid.stats, "constant-density field: {what}");
    }
}

/// A fleet whose radio ranges differ per group, with movement that drags
/// short- and long-range hosts across shard-strip boundaries: per-tx
/// ranges must not perturb the mirror-write predicate (sized from the
/// fleet maximum) or the deterministic merge order.  K = 4 over the
/// 1000 m field makes 250 m strips, so a 120 m transmission near a seam
/// is mirrored by the conservative max-range rule yet must stay
/// inaudible beyond its own disc on both engines, at T = 1 and T = 4.
#[test]
fn heterogeneous_ranges_agree_across_shard_strips() {
    const MIXED_RANGES: &str = r#"
[scenario]
name = "mixed-ranges"
duration_s = 30
seed = 23

[[group]]
name = "short"
count = 18
mobility = "waypoint"
max_speed = 6.0
range_m = 120

[[group]]
name = "long"
count = 14
mobility = "waypoint"
max_speed = 6.0
range_m = 250

[traffic]
flows = 4
rate_pps = 1.0
"#;
    let spec = ecgrid_suite::scenario::parse(MIXED_RANGES).unwrap();
    let serial = ecgrid_suite::runner::run_spec(&spec, ProtocolKind::Ecgrid, RunOptions::digest());
    let want = serial.trace_digest.expect("tracing was enabled");
    for t in [1, 4] {
        let par = ecgrid_suite::runner::run_spec(
            &spec,
            ProtocolKind::Ecgrid,
            RunOptions::digest().with_parallel_world(4).with_threads(t),
        );
        assert_eq!(
            par.trace_digest,
            Some(want),
            "K=4 T={t}: heterogeneous ranges diverged from serial"
        );
        assert_eq!(par.stats, serial.stats, "K=4 T={t}");
        assert_eq!(par.pdr, serial.pdr, "K=4 T={t}");
    }
    // the short radios genuinely constrained connectivity (the knob is
    // live): an all-250 m rerun of the same fleet behaves differently
    let all_long =
        ecgrid_suite::scenario::parse(&MIXED_RANGES.replace("range_m = 120", "range_m = 250")).unwrap();
    let wide = ecgrid_suite::runner::run_spec(&all_long, ProtocolKind::Ecgrid, RunOptions::digest());
    assert_ne!(wide.trace_digest, Some(want), "per-group range_m had no effect");
}
