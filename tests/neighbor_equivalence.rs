//! Digest-proving equivalence of the two neighbor-query modes.
//!
//! The spatial index is only admissible if it is *invisible*: a run under
//! `NeighborIndex::Grid` must replay bit-for-bit like the brute-force
//! reference scan — same candidate sets, same touch order, same energy
//! integration steps, same trace events at the same instants.  These tests
//! prove it the strong way, by digest:
//!
//! * grid mode reproduces the committed `tests/golden/*.digest` fixtures
//!   (the fixtures predate the index, so this also proves the index
//!   changed nothing against history);
//! * brute and grid digests agree on clean runs for every protocol;
//! * they still agree under the chaos fault plan (churn, frame loss, page
//!   loss), where death-pruning and crash handling get exercised hard.

use ecgrid_suite::manet::{FaultPlan, NeighborIndex};
use ecgrid_suite::runner::{run_scenario_with, ProtocolKind, RunOptions, Scenario};

mod common;
use common::{golden, golden_plan, read_fixture};

const PROTOCOLS: [ProtocolKind; 3] = [ProtocolKind::Ecgrid, ProtocolKind::Grid, ProtocolKind::Gaf];

#[test]
fn grid_index_reproduces_the_golden_fixtures() {
    // the grid index is also the default: what every binary runs
    assert_eq!(RunOptions::digest().neighbor_index, NeighborIndex::Grid);
    for p in PROTOCOLS {
        let opts = RunOptions::digest().with_neighbor_index(NeighborIndex::Grid);
        let r = run_scenario_with(&golden(p), opts);
        let got = r.trace_digest.expect("tracing was enabled");
        let want = read_fixture(&p.name().to_lowercase());
        assert_eq!(
            got, want,
            "{p:?}: grid-index run drifted from the pre-index golden fixture"
        );
    }
}

#[test]
fn brute_and_grid_digests_agree_on_clean_runs() {
    for p in PROTOCOLS {
        let sc = golden(p);
        let brute = run_scenario_with(
            &sc,
            RunOptions::digest().with_neighbor_index(NeighborIndex::Brute),
        );
        let grid = run_scenario_with(&sc, RunOptions::digest().with_neighbor_index(NeighborIndex::Grid));
        assert_eq!(
            brute.trace_digest, grid.trace_digest,
            "{p:?}: neighbor-query modes diverged"
        );
        assert_eq!(brute.stats, grid.stats, "{p:?}");
        assert_eq!(brute.pdr, grid.pdr, "{p:?}");
        assert_eq!(brute.latency_ms, grid.latency_ms, "{p:?}");
    }
}

#[test]
fn brute_and_grid_digests_agree_under_chaos() {
    // Crashes, rejoins, frame loss and page loss stress exactly the paths
    // where the modes could drift: membership pruning, stale-cell reads,
    // receiver freezing around dead/crashed hosts.  Also pin both against
    // the faulted fixtures so this can never silently become a vacuous
    // "equal but both wrong" pass.
    for p in PROTOCOLS {
        let sc = golden(p);
        let base = RunOptions::digest().with_faults(golden_plan());
        let brute = run_scenario_with(&sc, base.with_neighbor_index(NeighborIndex::Brute));
        let grid = run_scenario_with(&sc, base.with_neighbor_index(NeighborIndex::Grid));
        assert_eq!(
            brute.trace_digest, grid.trace_digest,
            "{p:?}: neighbor-query modes diverged under faults"
        );
        assert_eq!(brute.stats, grid.stats, "{p:?}");
        let want = read_fixture(&format!("{}_faulted", p.name().to_lowercase()));
        assert_eq!(grid.trace_digest, Some(want), "{p:?}: faulted fixture drift");
        assert!(
            grid.stats.crashes > 0 && grid.stats.frames_lost_fault > 0,
            "{p:?}: the chaos plan must actually engage"
        );
    }
}

#[test]
fn modes_agree_on_a_denser_run_with_node_deaths() {
    // The golden scenario is small and nobody dies in 40 s; give the
    // index real churn — more hosts, faster motion, battery-drain faults
    // that kill a third of the population — so bucket moves *and* death
    // pruning fire many times before we call the modes equivalent.
    // (Span rides along: it has no golden fixture but must obey the same
    // contract.)
    let plan = FaultPlan::parse("drain=0.02,drain_frac=0.9").unwrap();
    for p in [ProtocolKind::Ecgrid, ProtocolKind::Span] {
        let sc = Scenario {
            protocol: p,
            n_hosts: 60,
            max_speed: 5.0,
            pause_secs: 0.0,
            n_flows: 5,
            flow_rate_pps: 1.0,
            duration_secs: 80.0,
            seed: 23,
            model1_endpoints: 4,
        };
        let base = RunOptions::digest().with_faults(plan);
        let brute = run_scenario_with(&sc, base.with_neighbor_index(NeighborIndex::Brute));
        let grid = run_scenario_with(&sc, base.with_neighbor_index(NeighborIndex::Grid));
        assert_eq!(
            brute.trace_digest, grid.trace_digest,
            "{p:?}: modes diverged on the dense scenario"
        );
        assert_eq!(brute.stats, grid.stats, "{p:?}");
        assert!(
            grid.stats.cell_crossings > 50,
            "{p:?}: the dense scenario must churn the index (got {} crossings)",
            grid.stats.cell_crossings
        );
        assert!(
            grid.stats.deaths > 10,
            "{p:?}: the drain plan must actually kill hosts (got {} deaths)",
            grid.stats.deaths
        );
    }
}

#[test]
fn modes_agree_on_a_fleet_past_the_gather_bitmap() {
    // Every other fixture stays below the 4 096 ids the index's stack
    // bitmap covers; this fleet crosses it, so receiver gathers go through
    // the fleet-sized bitset the world brings along (and the channel keeps
    // a few dozen frames in its buckets) — at the paper's density, for two
    // simulated seconds, with one flood to mix unicasts into the beacons.
    let text = "[scenario]\nname = \"past-bitmap\"\nfield_w = 6500\nfield_h = 6500\ncell_side = 100\n\
                duration_s = 2\nseed = 5\n\n[[group]]\nname = \"fleet\"\ncount = 4225\n\
                mobility = \"waypoint\"\nmax_speed = 10\npause_s = 0\n\n\
                [traffic]\npattern = \"cbr\"\nflows = 1\nrate_pps = 1.0\nstart_s = 1\n";
    let spec = ecgrid_suite::scenario::parse(text).expect("scenario text parses");
    let run = |mode| {
        ecgrid_suite::runner::run_spec(
            &spec,
            ProtocolKind::Ecgrid,
            RunOptions::digest().with_neighbor_index(mode),
        )
    };
    let (brute, grid) = (run(NeighborIndex::Brute), run(NeighborIndex::Grid));
    assert_eq!(
        brute.trace_digest, grid.trace_digest,
        "modes diverged on the 4225-host fleet"
    );
    assert_eq!(brute.stats, grid.stats);
    assert!(
        grid.stats.broadcasts > 4225 && grid.stats.cell_crossings > 100,
        "every host must beacon and the index must take moves: {:?}",
        grid.stats
    );
}
