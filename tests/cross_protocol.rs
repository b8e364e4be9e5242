//! Cross-protocol integration tests: the paper's qualitative claims hold
//! on shared scenarios (same seed ⇒ same mobility and traffic).

use ecgrid_suite::runner::{run_scenario, ProtocolKind, Scenario};

fn scenario(protocol: ProtocolKind, seed: u64) -> Scenario {
    Scenario {
        protocol,
        n_hosts: 60,
        max_speed: 1.0,
        pause_secs: 0.0,
        n_flows: 5,
        flow_rate_pps: 1.0,
        duration_secs: 700.0,
        seed,
        model1_endpoints: 5,
    }
}

#[test]
fn ecgrid_conserves_energy_versus_grid() {
    let grid = run_scenario(&scenario(ProtocolKind::Grid, 11));
    let ecgrid = run_scenario(&scenario(ProtocolKind::Ecgrid, 11));

    // §4A: GRID is down by ~590 s; ECGRID keeps a large fraction alive
    let grid_death = grid.network_death_s.expect("GRID network must die");
    assert!((550.0..=620.0).contains(&grid_death), "GRID died at {grid_death}");
    let ecgrid_alive_at_700 = ecgrid.alive.last_value().unwrap();
    assert!(
        ecgrid_alive_at_700 > 0.3,
        "ECGRID alive fraction {ecgrid_alive_at_700} at 700 s"
    );

    // §4B: aen for GRID is well above ECGRID at any pre-death time.  The
    // paper reports ~33% at 100 hosts; this reduced 60-host scene has
    // fewer sleepable hosts per grid, so we assert a conservative >10%
    // (the full-scale gap is reproduced by `experiments --fig 5`).
    let t = 500.0;
    let aen_grid = grid.aen.value_at(t).unwrap();
    let aen_ecgrid = ecgrid.aen.value_at(t).unwrap();
    assert!(
        aen_grid > 1.1 * aen_ecgrid,
        "aen(GRID)={aen_grid:.3} should exceed aen(ECGRID)={aen_ecgrid:.3} by >10%"
    );
}

#[test]
fn delivery_quality_is_comparable_before_grid_dies() {
    // §4C: all protocols deliver >99% at the paper's load before 590 s;
    // we accept ≥90% at this reduced density (60 hosts is sparser than
    // the paper's 100)
    for p in ProtocolKind::ALL {
        let r = run_scenario(&scenario(p, 13));
        let pdr = r.pdr_590.unwrap();
        assert!(pdr >= 0.90, "{} pdr(<590s) = {pdr}", p.name());
        let lat = r.latency_ms_590.unwrap();
        assert!(lat < 60.0, "{} latency {lat} ms", p.name());
    }
}

#[test]
fn energy_aware_protocols_outlive_grid() {
    let grid = run_scenario(&scenario(ProtocolKind::Grid, 17));
    let ecgrid = run_scenario(&scenario(ProtocolKind::Ecgrid, 17));
    let gaf = run_scenario(&scenario(ProtocolKind::Gaf, 17));
    let g = grid.network_death_s.unwrap();
    for (name, r) in [("ECGRID", &ecgrid), ("GAF", &gaf)] {
        match r.network_death_s {
            None => {} // survived the whole run: clearly longer
            Some(t) => assert!(t > g + 200.0, "{name} died at {t}, GRID at {g}"),
        }
    }
}

#[test]
fn aen_curves_are_monotone_and_bounded() {
    for p in ProtocolKind::ALL {
        let r = run_scenario(&scenario(p, 19));
        let pts = r.aen.points();
        assert!(
            pts.windows(2).all(|w| w[1].value >= w[0].value - 1e-12),
            "{} aen not monotone",
            p.name()
        );
        assert!(
            pts.iter().all(|pt| (0.0..=1.0 + 1e-9).contains(&pt.value)),
            "{} aen out of range",
            p.name()
        );
        // alive fraction is monotone non-increasing
        let alive = r.alive.points();
        assert!(
            alive.windows(2).all(|w| w[1].value <= w[0].value + 1e-12),
            "{} alive not monotone",
            p.name()
        );
    }
}

#[test]
fn grid_lifetime_is_density_independent_but_ecgrid_scales() {
    // §4D in miniature: doubling density doesn't help GRID but helps ECGRID
    let mut sparse_g = scenario(ProtocolKind::Grid, 23);
    sparse_g.n_hosts = 40;
    let mut dense_g = scenario(ProtocolKind::Grid, 23);
    dense_g.n_hosts = 80;
    let g1 = run_scenario(&sparse_g).network_death_s.unwrap();
    let g2 = run_scenario(&dense_g).network_death_s.unwrap();
    assert!(
        (g1 - g2).abs() < 60.0,
        "GRID death {g1} vs {g2} should not depend on density"
    );

    let mut sparse_e = scenario(ProtocolKind::Ecgrid, 23);
    sparse_e.n_hosts = 40;
    sparse_e.duration_secs = 900.0;
    let mut dense_e = scenario(ProtocolKind::Ecgrid, 23);
    dense_e.n_hosts = 80;
    dense_e.duration_secs = 900.0;
    let e1 = run_scenario(&sparse_e);
    let e2 = run_scenario(&dense_e);
    // compare alive fraction at 800 s: more hosts per grid = more rotation
    let a1 = e1.alive.value_at(800.0).unwrap();
    let a2 = e2.alive.value_at(800.0).unwrap();
    assert!(
        a2 >= a1 - 0.05,
        "denser ECGRID should stay at least as alive: {a1:.2} (40 hosts) vs {a2:.2} (80 hosts)"
    );
}

#[test]
fn grid_and_ecgrid_put_the_same_data_header_on_the_air() {
    // both protocols carry `grid_common::DataMsg` as their data payload,
    // so serialization delay and transmit energy per data hop cannot
    // drift apart: 512 B payload + 29 B header either way
    use ecgrid_suite::ecgrid::EcMsg;
    use ecgrid_suite::grid_common::DataMsg;
    use ecgrid_suite::grid_routing::proto::GridMsg;
    use ecgrid_suite::manet::{AppPacket, GridCoord, NodeId, WireSize};
    let packet = AppPacket {
        flow: 0,
        seq: 0,
        bytes: 512,
    };
    let d = DataMsg::new(packet, NodeId(0), NodeId(1), GridCoord::new(0, 0));
    assert_eq!(GridMsg::from(d).wire_bytes(), 541);
    assert_eq!(EcMsg::from(d).wire_bytes(), 541);
}
