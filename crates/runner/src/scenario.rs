//! Scenario definitions mirroring §4's simulation environment.

use ::scenario::{GroupSpec, MobilitySpec, Role, ScenarioSpec, TrafficPattern, TrafficSpec};

/// Which protocol a scenario runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ProtocolKind {
    /// The GRID baseline (no energy conservation).
    Grid,
    /// The paper's contribution.
    Ecgrid,
    /// GAF over AODV, with Model-1 endpoints.
    Gaf,
    /// Span (extension baseline, §1): coordinators + PSM duty cycling,
    /// not location-aware; Model-1 endpoints like GAF.
    Span,
}

impl ProtocolKind {
    pub fn name(self) -> &'static str {
        match self {
            ProtocolKind::Grid => "GRID",
            ProtocolKind::Ecgrid => "ECGRID",
            ProtocolKind::Gaf => "GAF",
            ProtocolKind::Span => "Span",
        }
    }

    /// The paper's three evaluated protocols (Figs. 4–8).
    pub const ALL: [ProtocolKind; 3] = [ProtocolKind::Grid, ProtocolKind::Ecgrid, ProtocolKind::Gaf];

    /// All implemented protocols, including the Span extension.
    pub const ALL_EXT: [ProtocolKind; 4] = [
        ProtocolKind::Grid,
        ProtocolKind::Ecgrid,
        ProtocolKind::Gaf,
        ProtocolKind::Span,
    ];
}

/// One experiment configuration (§4 defaults unless noted).
#[derive(Clone, Copy, Debug)]
pub struct Scenario {
    pub protocol: ProtocolKind,
    /// Finite-battery hosts running the protocol (50–200 in Fig. 8).
    pub n_hosts: usize,
    /// Random-waypoint speed: uniform in (0, max_speed] m/s (1 or 10).
    pub max_speed: f64,
    /// Random-waypoint pause time, seconds (0–600 in Figs. 6–7).
    pub pause_secs: f64,
    /// Concurrent CBR flows.
    pub n_flows: usize,
    /// Packets per second per flow ("one or ten 512-byte packets per
    /// second"); 10 flows x 1 pkt/s = the 10 pkt/s network load.
    pub flow_rate_pps: f64,
    /// Simulated time, seconds (2000 in Figs. 4–5, 590 horizon in 6–7).
    pub duration_secs: f64,
    /// Master seed (mobility, traffic, protocol jitter all derive from it,
    /// so two protocols with the same seed see identical scenarios).
    pub seed: u64,
    /// Model-1 endpoints added for GAF: infinite-energy hosts that neither
    /// run GAF nor forward (the paper uses 10).
    pub model1_endpoints: usize,
}

impl Scenario {
    /// §4 base configuration: 100 hosts, 10 flows x 1 pkt/s, pause 0.
    pub fn paper_base(protocol: ProtocolKind, max_speed: f64, seed: u64) -> Self {
        Scenario {
            protocol,
            n_hosts: 100,
            max_speed,
            pause_secs: 0.0,
            n_flows: 10,
            flow_rate_pps: 1.0,
            duration_secs: 2000.0,
            seed,
            model1_endpoints: 10,
        }
    }

    /// Lower onto the declarative fleet description every run is built
    /// from (DESIGN.md §15): the §4 field, radio and traffic constants
    /// spelled out, Model 2 as one `peer` group, Model 1 (GAF/Span) as a
    /// metered `relay` group plus an infinite-energy `endpoint` group
    /// that terminates every flow.
    pub fn to_spec(&self) -> ScenarioSpec {
        let group = |name: &str, count, role, battery_j| GroupSpec {
            name: name.into(),
            count,
            battery_j,
            battery_var: 0.0,
            range_m: 250.0,
            gps_sigma_m: 0.0,
            role,
            mobility: MobilitySpec::Waypoint {
                max_speed: self.max_speed,
                pause_s: self.pause_secs,
            },
        };
        let groups = match self.protocol {
            ProtocolKind::Grid | ProtocolKind::Ecgrid => {
                vec![group("peer", self.n_hosts, Role::Peer, Some(500.0))]
            }
            ProtocolKind::Gaf | ProtocolKind::Span => vec![
                group("relay", self.n_hosts, Role::Relay, Some(500.0)),
                group("endpoint", self.model1_endpoints, Role::Endpoint, None),
            ],
        };
        ScenarioSpec {
            name: "paper".into(),
            field_w: 1000.0,
            field_h: 1000.0,
            cell_side: 100.0,
            duration_s: self.duration_secs,
            seed: self.seed,
            groups,
            traffic: TrafficSpec {
                pattern: TrafficPattern::Cbr,
                flows: self.n_flows,
                rate_pps: self.flow_rate_pps,
                packet_bytes: 512,
                start_s: 5.0,
            },
        }
    }

    /// Hold the scalar knobs to the scenario parser's own bounds (host
    /// ceilings, finite positive duration, flow and rate ranges) by parsing
    /// the lowered text: a classic run — a `run_one` command line or a
    /// sweepd submit — must not reach a world with what a scenario file
    /// could not say.
    pub fn check_bounds(&self) -> Result<(), String> {
        ::scenario::parse(&self.to_spec().to_text())
            .map(drop)
            .map_err(|e| format!("scenario bounds: {}", e.msg))
    }

    /// Short label for tables.
    pub fn label(&self) -> String {
        format!(
            "{} n={} v={}m/s pause={}s load={}pps",
            self.protocol.name(),
            self.n_hosts,
            self.max_speed,
            self.pause_secs,
            self.n_flows as f64 * self.flow_rate_pps
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_parser_and_the_world_agree_on_the_widest_grid() {
        // a scenario the parser (and so `check_bounds`) accepts is one
        // `World::new` builds
        assert_eq!(
            i64::from(::scenario::MAX_CELLS_PER_AXIS),
            i64::from(geo::GridMap::MAX_CELLS_PER_AXIS)
        );
    }

    #[test]
    fn paper_base_matches_section4() {
        let s = Scenario::paper_base(ProtocolKind::Ecgrid, 1.0, 42);
        assert_eq!(s.n_hosts, 100);
        assert_eq!(s.n_flows as f64 * s.flow_rate_pps, 10.0);
        assert_eq!(s.pause_secs, 0.0);
        assert_eq!(s.duration_secs, 2000.0);
        assert_eq!(s.model1_endpoints, 10);
    }

    #[test]
    fn lowered_scenarios_roundtrip_through_the_scn_codec() {
        // the paper setup is expressible as a scenario file: the lowering
        // survives emit + parse, bounds checks included
        for p in ProtocolKind::ALL_EXT {
            let golden = Scenario {
                n_hosts: 30,
                n_flows: 3,
                duration_secs: 40.0,
                model1_endpoints: 4,
                ..Scenario::paper_base(p, 1.0, 11)
            };
            let paused = Scenario {
                pause_secs: 600.0,
                ..Scenario::paper_base(p, 10.0, 42)
            };
            for sc in [Scenario::paper_base(p, 1.0, 42), paused, golden] {
                let spec = sc.to_spec();
                let back = ::scenario::parse(&spec.to_text())
                    .unwrap_or_else(|e| panic!("{}: lowering does not parse: {e}", sc.label()));
                assert_eq!(back, spec, "{}", sc.label());
            }
        }
    }

    #[test]
    fn model1_protocols_lower_to_relays_plus_unmetered_endpoints() {
        let grid = Scenario::paper_base(ProtocolKind::Ecgrid, 1.0, 42).to_spec();
        assert_eq!(grid.groups.len(), 1);
        assert_eq!((grid.groups[0].role, grid.total_hosts()), (Role::Peer, 100));
        let gaf = Scenario::paper_base(ProtocolKind::Gaf, 1.0, 42).to_spec();
        assert_eq!(gaf.groups.len(), 2);
        assert_eq!((gaf.groups[0].role, gaf.groups[0].count), (Role::Relay, 100));
        assert_eq!((gaf.groups[1].role, gaf.groups[1].count), (Role::Endpoint, 10));
        assert_eq!(gaf.groups[1].battery_j, None);
        // every flow terminates at endpoints only
        assert_eq!((gaf.source_hosts(), gaf.sink_hosts()), (10, 10));
    }

    #[test]
    fn labels_name_the_protocol() {
        for p in ProtocolKind::ALL {
            assert!(Scenario::paper_base(p, 1.0, 0).label().contains(p.name()));
        }
    }
}
