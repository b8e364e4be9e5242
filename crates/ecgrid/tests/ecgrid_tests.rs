//! End-to-end behavioural tests for ECGRID on the full simulator.

use ecgrid::{Ecgrid, EcgridConfig, Role};
use manet::{
    FlowSet, GridCoord, HostSetup, NodeId, Point2, RadioMode, SimDuration, SimTime, World, WorldConfig,
};
use mobility::{MobilityTrace, Segment};
use traffic::{CbrFlow, FlowId};

const HORIZON: SimTime = SimTime(3_000_000_000_000);

fn still(x: f64, y: f64) -> HostSetup {
    HostSetup::paper(MobilityTrace::stationary(Point2::new(x, y), HORIZON))
}

fn ec_world(hosts: Vec<HostSetup>, flows: FlowSet, seed: u64) -> World<Ecgrid> {
    World::new(WorldConfig::paper_default(seed), hosts, flows, |id| {
        Ecgrid::new(EcgridConfig::default(), id)
    })
}

fn flow(id: u32, src: u32, dst: u32, start_s: u64, stop_s: u64) -> CbrFlow {
    CbrFlow {
        id: FlowId(id),
        src: NodeId(src),
        dst: NodeId(dst),
        packet_bytes: 512,
        interval: SimDuration::from_secs(1),
        start: SimTime::from_secs(start_s),
        stop: SimTime::from_secs(stop_s),
        burst: None,
    }
}

/// Three hosts per grid in a row of three grids.
fn three_grid_hosts() -> Vec<HostSetup> {
    vec![
        // grid (0,0): node 0 at center, 1 and 2 off-center
        still(50.0, 50.0),
        still(20.0, 30.0),
        still(80.0, 70.0),
        // grid (2,0): node 3 at center, 4 off-center
        still(250.0, 50.0),
        still(220.0, 20.0),
        // grid (4,0): node 5 at center, 6 and 7 off-center
        still(450.0, 50.0),
        still(430.0, 20.0),
        still(470.0, 80.0),
    ]
}

#[test]
fn one_gateway_per_grid_and_others_sleep() {
    let mut w = ec_world(three_grid_hosts(), FlowSet::default(), 1);
    w.run_until(SimTime::from_secs(10));
    // the grid-center hosts win the election (all levels equal)
    for (gw, members) in [(0u32, vec![1u32, 2]), (3, vec![4]), (5, vec![6, 7])] {
        assert!(w.protocol(NodeId(gw)).is_gateway(), "node {gw} should be gateway");
        assert_eq!(w.node_mode(NodeId(gw)), RadioMode::Idle);
        for m in members {
            assert_eq!(
                w.protocol(NodeId(m)).role(),
                Role::Sleeping,
                "node {m} should sleep"
            );
            assert_eq!(w.node_mode(NodeId(m)), RadioMode::Sleep);
            assert_eq!(w.protocol(NodeId(m)).gateway(), Some(NodeId(gw)));
        }
    }
}

#[test]
fn multi_hop_delivery_between_gateways() {
    // flow between the two edge-grid gateways (0 -> 5): 2 grid hops away
    let flows = FlowSet::new(vec![flow(0, 0, 5, 5, 35)]);
    let mut w = ec_world(three_grid_hosts(), flows, 2);
    w.run_until(SimTime::from_secs(40));
    let ledger = w.ledger();
    assert_eq!(ledger.sent_count(), 30);
    assert!(
        ledger.delivery_rate().unwrap() >= 0.95,
        "pdr {:?}",
        ledger.delivery_rate()
    );
    let lat = ledger.mean_latency_ms().unwrap();
    assert!(lat < 60.0, "latency {lat} ms");
}

#[test]
fn sleeping_destination_is_paged_and_served() {
    // node 7 (a sleeping member of grid (4,0)) is the destination
    let flows = FlowSet::new(vec![flow(0, 0, 7, 5, 25)]);
    let mut w = ec_world(three_grid_hosts(), flows, 3);
    w.run_until(SimTime::from_secs(30));
    let ledger = w.ledger();
    assert!(
        ledger.delivery_rate().unwrap() >= 0.95,
        "pdr {:?}",
        ledger.delivery_rate()
    );
    assert!(w.stats().pages_sent >= 1, "the gateway must page the sleeper");
    // while the flow runs, the destination stays awake; after it stops it
    // goes back to sleep
    assert_eq!(w.protocol(NodeId(7)).role(), Role::Sleeping);
}

#[test]
fn sleeping_source_wakes_and_uses_acq_handshake() {
    // node 6 sleeps in grid (4,0); its application starts a flow at t=10
    let flows = FlowSet::new(vec![flow(0, 6, 0, 10, 30)]);
    let mut w = ec_world(three_grid_hosts(), flows, 4);
    w.run_until(SimTime::from_secs(35));
    assert!(
        w.protocol(NodeId(6)).stats.acqs_sent >= 1,
        "source must handshake with ACQ"
    );
    assert!(
        w.ledger().delivery_rate().unwrap() >= 0.9,
        "pdr {:?}",
        w.ledger().delivery_rate()
    );
}

#[test]
fn energy_aware_election_prefers_higher_level() {
    // node 0 is closest to the center but nearly drained; node 1 has full
    // battery and must win under ECGRID rules
    let mut hosts = vec![still(50.0, 50.0), still(70.0, 60.0), still(30.0, 40.0)];
    // drain node 0 to lower level before start by shrinking its battery
    hosts[0].battery = manet::Battery::with_capacity(50.0); // rbrc tracks consumption fast
    let mut w = World::new(WorldConfig::paper_default(5), hosts, FlowSet::default(), |id| {
        Ecgrid::new(EcgridConfig::default(), id)
    });
    // by election time (~1.2 s) node 0 has consumed ~1 J of 50 J => still
    // upper; instead verify over time: the load-balance retire rotates duty
    w.run_until(SimTime::from_secs(120));
    // node 0's small battery forces early level drops; someone else must
    // have taken over the gateway role by now
    let gw_count = (0..3).filter(|i| w.protocol(NodeId(*i)).is_gateway()).count();
    assert_eq!(gw_count, 1, "exactly one gateway");
    assert!(
        !w.protocol(NodeId(0)).is_gateway(),
        "drained node 0 must have rotated out (role {:?})",
        w.protocol(NodeId(0)).role()
    );
}

#[test]
fn load_balance_rotates_gateway_duty() {
    // three hosts in one grid, no traffic: gateway idles at ~0.86 W while
    // sleepers idle at ~0.16 W; when the gateway's level drops a class it
    // must retire and another host takes over
    let hosts = vec![still(50.0, 50.0), still(40.0, 60.0), still(60.0, 40.0)];
    let mut w = ec_world(hosts, FlowSet::default(), 6);
    w.run_until(SimTime::from_secs(500));
    let retires: u32 = (0..3)
        .map(|i| w.protocol(NodeId(i)).stats.load_balance_retires)
        .sum();
    assert!(retires >= 1, "expected load-balance retires, got {retires}");
    let distinct_gateways = (0..3)
        .filter(|i| w.protocol(NodeId(*i)).stats.became_gateway > 0)
        .count();
    assert!(
        distinct_gateways >= 2,
        "duty must rotate, got {distinct_gateways}"
    );
    // consumption should be far more even than all-idle-on-one-host
    let consumed: Vec<f64> = (0..3).map(|i| w.node_consumed_j(NodeId(i))).collect();
    let max = consumed.iter().cloned().fold(0.0_f64, f64::max);
    let min = consumed.iter().cloned().fold(f64::INFINITY, f64::min);
    assert!(max / min < 4.0, "rotation should bound the skew: {consumed:?}");
}

#[test]
fn ecgrid_network_outlives_grid_style_idling() {
    // 3 hosts per grid: with rotation and sleep, the *first* death must
    // come well after the 579 s all-idle death time
    let mut w = ec_world(three_grid_hosts(), FlowSet::default(), 7);
    w.run_until(SimTime::from_secs(1200));
    let first_death = w.alive_series().first_time_at_or_below(0.99);
    match first_death {
        None => {} // nobody died in 1200 s: clearly better than 579 s
        Some(t) => assert!(t > 700.0, "first death at {t} s, expected > 700 s"),
    }
}

#[test]
fn gateway_handoff_on_mobility_keeps_grid_served() {
    // node 0 starts as gateway of (0,0) and drives away at t≈20 s;
    // node 1 and 2 stay: one of them must take over
    let leg0 = Segment::rest(SimTime::ZERO, SimTime::from_secs(20), Point2::new(50.0, 50.0));
    let leg1 = Segment::travel(leg0.end, leg0.from, Point2::new(450.0, 50.0), 10.0);
    let rest = Segment::rest(leg1.end, HORIZON, leg1.end_position());
    let mover = MobilityTrace::new(vec![leg0, leg1, rest]);
    let hosts = vec![HostSetup::paper(mover), still(30.0, 60.0), still(60.0, 30.0)];
    let mut w = ec_world(hosts, FlowSet::default(), 8);
    w.run_until(SimTime::from_secs(60));
    // node 0 is long gone from (0,0); someone there is gateway
    assert_ne!(w.node_cell(NodeId(0)), GridCoord::new(0, 0));
    let local_gw = [1u32, 2]
        .iter()
        .filter(|i| w.protocol(NodeId(**i)).is_gateway() && w.node_cell(NodeId(**i)) == GridCoord::new(0, 0))
        .count();
    assert_eq!(local_gw, 1, "the abandoned grid must re-elect");
    let retired: u32 = w.protocol(NodeId(0)).stats.retires;
    assert!(retired >= 1, "the departing gateway must retire");
}

#[test]
fn deterministic_across_identical_runs() {
    let run = || {
        let flows = FlowSet::new(vec![flow(0, 1, 7, 5, 50)]);
        let mut w = ec_world(three_grid_hosts(), flows, 99);
        w.run_until(SimTime::from_secs(60));
        (
            *w.stats(),
            w.ledger().delivered_count(),
            w.ledger().mean_latency_ms(),
            (0..8).map(|i| w.node_consumed_j(NodeId(i))).collect::<Vec<_>>(),
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1);
    assert_eq!(a.2, b.2);
    assert_eq!(a.3, b.3);
}

#[test]
fn empty_grid_arrival_declares_itself_gateway() {
    // a single host: elects itself, stays gateway
    let mut w = ec_world(vec![still(550.0, 550.0)], FlowSet::default(), 11);
    w.run_until(SimTime::from_secs(5));
    assert!(w.protocol(NodeId(0)).is_gateway());
    assert_eq!(w.protocol(NodeId(0)).grid(), GridCoord::new(5, 5));
}

#[test]
fn sleeper_dwell_checks_extend_sleep_in_place() {
    // shorten the dwell cap so checks fire between gateway rotations
    // (stationary hosts have zero velocity, so the estimate hits the cap)
    let cfg = EcgridConfig {
        dwell_cap: 30.0,
        ..EcgridConfig::default()
    };
    let mut w = World::new(
        WorldConfig::paper_default(12),
        three_grid_hosts(),
        FlowSet::default(),
        move |id| Ecgrid::new(cfg, id),
    );
    w.run_until(SimTime::from_secs(200));
    // stationary sleepers never leave their grid: every dwell check must
    // re-arm in place rather than wake the host
    let ext: u32 = [1u32, 2, 4, 6, 7]
        .iter()
        .map(|i| w.protocol(NodeId(*i)).stats.dwell_extensions)
        .sum();
    assert!(ext >= 10, "expected dwell extensions, got {ext}");
    // and the sleepers are still asleep
    for i in [1u32, 2, 4, 6, 7] {
        assert_eq!(w.protocol(NodeId(i)).role(), Role::Sleeping);
    }
}
