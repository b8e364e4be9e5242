//! Digest-proving equivalence of the SoA host-state layout and the
//! adaptive gather fallback.
//!
//! PR 6 restructured `World`'s per-host state from a Vec-of-structs into
//! parallel arrays and made grid-mode receiver discovery *adaptive*: below
//! an occupancy threshold the query falls back to a brute linear scan (the
//! bucket walk only wins once buckets hold enough members).  Both changes
//! are pure reorganizations of *where* the same values live and *which*
//! equivalent path reads them — so every one of them must be invisible in
//! the trace.  These tests prove it the strong way, by digest, against
//! the brute reference scan (`NeighborIndex::Brute`, which never touches
//! the index):
//!
//! * a fleet that stays above the crossover for the whole run, so every
//!   grid-mode query is answered from the buckets;
//! * a run whose live population *crosses* the threshold mid-run
//!   (battery-drain deaths shrink it from above the crossover to below),
//!   so the per-query path switch itself is exercised;
//! * heterogeneous radio ranges through both paths.
//!
//! The golden and faulted fixtures in both index modes are
//! `tests/neighbor_equivalence.rs`'s.

use ecgrid_suite::manet::{FaultPlan, NeighborIndex};
use ecgrid_suite::radio::auto_gather_threshold;
use ecgrid_suite::runner::{run_scenario_with, ProtocolKind, RunOptions, Scenario, ScenarioResult};

/// Above the crossover: the paper grid (d = 100 m, range 250 m) gives
/// reach 4, so grid mode switches paths at 3·(2·4+1)² = 243 live hosts.
const N_HOSTS: usize = 260;

fn dense() -> Scenario {
    assert_eq!(
        auto_gather_threshold(4),
        243,
        "crossover moved; retune this scenario"
    );
    Scenario {
        protocol: ProtocolKind::Ecgrid,
        n_hosts: N_HOSTS,
        max_speed: 2.0,
        pause_secs: 0.0,
        n_flows: 5,
        flow_rate_pps: 1.0,
        duration_secs: 25.0,
        seed: 17,
        model1_endpoints: 4,
    }
}

/// Run `sc` in grid mode and against the brute reference; both must
/// agree on digest and world counters.  Returns the grid-mode run.
fn grid_run_matching_brute(sc: &Scenario, faults: FaultPlan) -> ScenarioResult {
    let base = RunOptions::digest().with_faults(faults);
    let grid = run_scenario_with(sc, base.with_neighbor_index(NeighborIndex::Grid));
    let brute = run_scenario_with(sc, base.with_neighbor_index(NeighborIndex::Brute));
    assert!(grid.trace_digest.is_some(), "tracing was enabled");
    assert_eq!(
        grid.trace_digest, brute.trace_digest,
        "grid mode diverged from the brute reference"
    );
    assert_eq!(grid.stats, brute.stats);
    grid
}

#[test]
fn index_path_agrees_with_brute_above_the_crossover() {
    // no deaths: the population never reaches the threshold, so grid mode
    // gathers from the buckets from the first query to the last
    let r = grid_run_matching_brute(&dense(), FaultPlan::none());
    assert_eq!(r.stats.deaths, 0, "the fleet must stay above the crossover");
}

#[test]
fn adaptive_fallback_is_invisible_across_a_mid_run_threshold_crossing() {
    // Start above the auto crossover and drain batteries hard enough that
    // deaths pull the live population below it mid-run: grid mode answers
    // early queries from the buckets and late queries from the linear
    // scan, and the digest must not notice the switch.  Churn rides along
    // so crash/rejoin freezing is exercised on both sides of the
    // crossing.
    let plan = FaultPlan::parse("drain=0.2,drain_frac=0.95,churn=0.02,rejoin=2").unwrap();
    let r = grid_run_matching_brute(&dense(), plan);
    // prove the crossing actually happened: enough battery deaths that the
    // live population ended below the crossover it started above
    let threshold = auto_gather_threshold(4);
    let deaths = r.stats.deaths as usize;
    assert!(
        N_HOSTS > threshold && N_HOSTS - deaths < threshold,
        "population never crossed the crossover: {N_HOSTS} hosts - {deaths} deaths vs threshold {threshold}"
    );
}

/// Heterogeneous per-host radio ranges through the SoA receiver-gather
/// paths: the grid-bucket index (sized from the fleet-max range) and the
/// brute scan must produce identical candidate verdicts when
/// transmissions carry their own shorter discs.
#[test]
fn heterogeneous_ranges_agree_across_gather_paths() {
    const MIXED_RANGES: &str = r#"
[scenario]
name = "mixed-ranges-soa"
duration_s = 30
seed = 29

[[group]]
name = "short"
count = 16
mobility = "walk"
max_speed = 4.0
range_m = 110

[[group]]
name = "long"
count = 12
mobility = "waypoint"
max_speed = 2.0
range_m = 250

[traffic]
flows = 4
rate_pps = 1.0
"#;
    let spec = ecgrid_suite::scenario::parse(MIXED_RANGES).unwrap();
    let grid = ecgrid_suite::runner::run_spec(
        &spec,
        ProtocolKind::Ecgrid,
        RunOptions::digest().with_neighbor_index(NeighborIndex::Grid),
    );
    let want = grid.trace_digest.expect("tracing was enabled");
    let brute = ecgrid_suite::runner::run_spec(
        &spec,
        ProtocolKind::Ecgrid,
        RunOptions::digest().with_neighbor_index(NeighborIndex::Brute),
    );
    assert_eq!(
        brute.trace_digest,
        Some(want),
        "brute scan diverged on mixed ranges"
    );
    assert_eq!(brute.stats, grid.stats);
}
