//! Declarative scenario files: heterogeneous node groups over a shared
//! field, each with its own battery, radio, GPS quality, mobility model,
//! and traffic role.
//!
//! The format is a hand-rolled TOML-like dialect (DESIGN.md §15) so it
//! parses offline with zero dependencies and reports errors with exact
//! line/column spans:
//!
//! ```text
//! [scenario]
//! name = "dense-square"
//! duration_s = 40
//! seed = 11
//!
//! [[group]]
//! name = "sensors"
//! count = 30
//! role = "peer"
//! mobility = "waypoint"
//! max_speed = 1.0
//!
//! [traffic]
//! pattern = "cbr"
//! flows = 3
//! rate_pps = 1.0
//! ```
//!
//! `parse` validates as it finalizes each table, so malformed input,
//! unknown keys, and out-of-bounds values all carry the offending line
//! and column.  [`ScenarioSpec::to_text`] emits a canonical form that
//! reparses to an equal spec (`parse(spec.to_text()) == spec`), which is
//! the identity the parser property tests hold on to.

mod parse;

pub use parse::{parse, ParseError};

use std::fmt;

/// Hard ceilings the parser enforces (see `GroupSpec::count` and the
/// aggregate host total).  Generous enough for every stress regime in
/// PAPERS.md, tight enough to reject a typo'd `count = 4e9` up front.
pub const MAX_GROUP_COUNT: usize = 100_000;
pub const MAX_TOTAL_HOSTS: usize = 200_000;
/// Cells a field may span along either axis (`field_w / cell_side` and
/// `field_h / cell_side`, rounded up): the simulator keeps a cell's
/// coordinates in 16 bits each, `geo::GridMap::MAX_CELLS_PER_AXIS`.
pub const MAX_CELLS_PER_AXIS: u32 = 65_535;
/// Most trace segments a host may need over a run
/// ([`MobilitySpec::segments_per_host`]), well under the generators'
/// 4 000 000-segment runaway panic.
pub const MAX_SEGMENTS_PER_HOST: f64 = 100_000.0;
/// Bytes of one trace segment (`mobility::Segment`).
pub const SEGMENT_BYTES: f64 = 48.0;
/// Most bytes a whole fleet's mobility traces may need: Σ over groups of
/// `count × segments_per_host × SEGMENT_BYTES`, 1 GiB.  The world builds
/// every trace before the run's watchdogs start, so this bound is what
/// keeps an accepted scenario from exhausting memory in setup.
pub const MAX_FLEET_TRACE_BYTES: f64 = (1u64 << 30) as f64;
/// Seconds a host's trace runs past the scenario's end: the world builds
/// every trace to `duration_s` plus this, so the run never outlives one.
pub const TRACE_SLACK_S: f64 = 10.0;

/// A parsed, validated scenario file.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioSpec {
    /// Human label; also the per-run metric prefix.
    pub name: String,
    /// Field dimensions in meters.
    pub field_w: f64,
    pub field_h: f64,
    /// Grid cell side in meters (the paper's d).
    pub cell_side: f64,
    /// Simulated duration, seconds.
    pub duration_s: f64,
    /// Master seed; every protocol run on this spec sees identical
    /// mobility and traffic.
    pub seed: u64,
    /// Node groups in file order; group indices are stable and label the
    /// per-group metrics.
    pub groups: Vec<GroupSpec>,
    pub traffic: TrafficSpec,
}

/// One homogeneous population of hosts.
#[derive(Clone, Debug, PartialEq)]
pub struct GroupSpec {
    pub name: String,
    pub count: usize,
    /// Initial battery in joules; `None` is the `inf` literal (the host
    /// is excluded from alive/aen metrics, like Model-1 endpoints).
    pub battery_j: Option<f64>,
    /// Per-host capacity spread in [0, 1]: each host keeps a
    /// deterministic draw in `[1 - var, 1]` of `battery_j` — at or below
    /// nominal, never above.
    pub battery_var: f64,
    /// Radio range in meters.
    pub range_m: f64,
    /// Bound of the GPS error in meters: each host's reported position is
    /// offset by a radius uniform in `[0, gps_sigma_m)` at a uniform
    /// angle, redrawn every second — not a Gaussian σ (0 = perfect
    /// positioning).
    pub gps_sigma_m: f64,
    pub role: Role,
    pub mobility: MobilitySpec,
}

/// How a group participates in traffic and the protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// Runs the protocol and forwards, never terminates flows.
    Relay,
    /// Eligible as a flow source (and forwards).
    Source,
    /// Eligible as a flow destination (and forwards).
    Sink,
    /// Both source- and sink-eligible (the default).
    Peer,
    /// Model-1 endpoint: sources and sinks flows but does not duty-cycle
    /// or forward (GAF/Span); forced to infinite battery.
    Endpoint,
}

impl Role {
    pub fn name(self) -> &'static str {
        match self {
            Role::Relay => "relay",
            Role::Source => "source",
            Role::Sink => "sink",
            Role::Peer => "peer",
            Role::Endpoint => "endpoint",
        }
    }

    pub fn is_source(self) -> bool {
        matches!(self, Role::Source | Role::Peer | Role::Endpoint)
    }

    pub fn is_sink(self) -> bool {
        matches!(self, Role::Sink | Role::Peer | Role::Endpoint)
    }
}

/// Which trajectory generator a group uses, with its parameters.  Plain
/// data — the runner maps it onto `mobility::MobilityModel` impls.
#[derive(Clone, Debug, PartialEq)]
pub enum MobilitySpec {
    /// Uniform random placement, no motion.
    Stationary,
    /// Random waypoint (the paper's §4 model).
    Waypoint { max_speed: f64, pause_s: f64 },
    /// Epoch-based random walk with edge reflection.
    Walk { max_speed: f64, epoch_s: f64 },
    /// Gauss–Markov AR(1) speed/heading.
    GaussMarkov {
        mean_speed: f64,
        alpha: f64,
        epoch_s: f64,
    },
    /// Manhattan-grid street mobility: motion constrained to a street
    /// lattice with `block_m` spacing.
    Manhattan {
        max_speed: f64,
        pause_s: f64,
        block_m: f64,
    },
    /// Reference-point group (convoy) mobility: the group follows one
    /// waypoint trajectory, members jitter within `group_radius_m`.
    Convoy {
        max_speed: f64,
        pause_s: f64,
        group_radius_m: f64,
    },
    /// Disaster-relief hotspot convergence: travel to one of `hotspots`
    /// attraction points, dwell `dwell_s`, repeat.
    Hotspot {
        max_speed: f64,
        hotspots: u32,
        dwell_s: f64,
    },
}

impl MobilitySpec {
    /// The trace segments one host needs over `duration_s` (and the
    /// [`TRACE_SLACK_S`] its trace runs past the end) when the field's
    /// shorter side is `field_min` m: a bound on a group's mean, which
    /// one host may pass (DESIGN.md §15 says by how much).
    ///
    /// Leg models count two segments per leg (the leg and its rest) and
    /// the partial leg at each end.  A Manhattan leg is one block; a
    /// waypoint leg (a convoy's lead) joins two uniform points, on average
    /// at least a third of the shorter side apart; a convoy member
    /// re-aims its offset every 10 s.  A walk (random or Gauss–Markov)
    /// leg lasts an epoch unless the field's edge cuts it short: often
    /// near a wall, and on every leg once a step spans the field, when a
    /// leg takes about a crossing of it at top speed.  So a walk's legs
    /// are counted three times over, the factor `runner`'s
    /// `built_traces_stay_within_the_parser_s_segment_estimate` was sized
    /// with.
    pub fn segments_per_host(&self, duration_s: f64, field_min: f64) -> f64 {
        let span = duration_s + TRACE_SLACK_S;
        let legs = |leg_s: f64| 2.0 + 2.0 * span / leg_s;
        let walk = |epoch_s: f64, top_speed: f64| 1.0 + 3.0 * span / epoch_s.min(field_min / top_speed);
        match *self {
            MobilitySpec::Stationary => 1.0,
            MobilitySpec::Walk { max_speed, epoch_s } => walk(epoch_s, max_speed),
            // the AR(1) speed is clamped to three times the mean
            MobilitySpec::GaussMarkov {
                mean_speed, epoch_s, ..
            } => walk(epoch_s, 3.0 * mean_speed),
            MobilitySpec::Manhattan {
                max_speed, block_m, ..
            } => legs(block_m / max_speed),
            MobilitySpec::Waypoint { max_speed, pause_s } => legs(field_min / 3.0 / max_speed + pause_s),
            MobilitySpec::Convoy {
                max_speed, pause_s, ..
            } => legs(field_min / 3.0 / max_speed + pause_s).max(1.0 + span / 10.0),
            MobilitySpec::Hotspot { dwell_s, .. } => legs(dwell_s),
        }
    }

    pub fn model_name(&self) -> &'static str {
        match self {
            MobilitySpec::Stationary => "stationary",
            MobilitySpec::Waypoint { .. } => "waypoint",
            MobilitySpec::Walk { .. } => "walk",
            MobilitySpec::GaussMarkov { .. } => "gauss_markov",
            MobilitySpec::Manhattan { .. } => "manhattan",
            MobilitySpec::Convoy { .. } => "convoy",
            MobilitySpec::Hotspot { .. } => "hotspot",
        }
    }
}

/// The scenario's offered load.
#[derive(Clone, Debug, PartialEq)]
pub struct TrafficSpec {
    pub pattern: TrafficPattern,
    pub flows: usize,
    pub rate_pps: f64,
    pub packet_bytes: u32,
    /// Flow start time, seconds into the run.
    pub start_s: f64,
}

#[derive(Clone, Debug, PartialEq)]
pub enum TrafficPattern {
    /// Constant bit rate between random (source, sink) pairs.
    Cbr,
    /// On/off bursts: `on_s` seconds of CBR at `rate_pps`, then `off_s`
    /// seconds of silence, repeating.
    Bursty { on_s: f64, off_s: f64 },
    /// Every flow converges on a single sink host (chosen among the
    /// sink-eligible pool), the classic data-collection pattern.
    ManyToOne,
}

impl TrafficPattern {
    pub fn name(&self) -> &'static str {
        match self {
            TrafficPattern::Cbr => "cbr",
            TrafficPattern::Bursty { .. } => "bursty",
            TrafficPattern::ManyToOne => "many_to_one",
        }
    }
}

impl ScenarioSpec {
    /// Total hosts across all groups.
    pub fn total_hosts(&self) -> usize {
        self.groups.iter().map(|g| g.count).sum()
    }

    /// Hosts in groups whose role can source flows.
    pub fn source_hosts(&self) -> usize {
        self.groups
            .iter()
            .filter(|g| g.role.is_source())
            .map(|g| g.count)
            .sum()
    }

    /// Hosts in groups whose role can sink flows.
    pub fn sink_hosts(&self) -> usize {
        self.groups
            .iter()
            .filter(|g| g.role.is_sink())
            .map(|g| g.count)
            .sum()
    }

    /// Canonical text form.  `parse(spec.to_text())` returns an equal
    /// spec — the roundtrip identity the property tests verify.
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        s.push_str("[scenario]\n");
        s.push_str(&format!("name = \"{}\"\n", self.name));
        s.push_str(&format!("field_w = {}\n", self.field_w));
        s.push_str(&format!("field_h = {}\n", self.field_h));
        s.push_str(&format!("cell_side = {}\n", self.cell_side));
        s.push_str(&format!("duration_s = {}\n", self.duration_s));
        s.push_str(&format!("seed = {}\n", self.seed));
        for g in &self.groups {
            s.push_str("\n[[group]]\n");
            s.push_str(&format!("name = \"{}\"\n", g.name));
            s.push_str(&format!("count = {}\n", g.count));
            match g.battery_j {
                Some(j) => s.push_str(&format!("battery_j = {j}\n")),
                None => s.push_str("battery_j = inf\n"),
            }
            s.push_str(&format!("battery_var = {}\n", g.battery_var));
            s.push_str(&format!("range_m = {}\n", g.range_m));
            s.push_str(&format!("gps_sigma_m = {}\n", g.gps_sigma_m));
            s.push_str(&format!("role = \"{}\"\n", g.role.name()));
            s.push_str(&format!("mobility = \"{}\"\n", g.mobility.model_name()));
            match &g.mobility {
                MobilitySpec::Stationary => {}
                MobilitySpec::Waypoint { max_speed, pause_s } => {
                    s.push_str(&format!("max_speed = {max_speed}\n"));
                    s.push_str(&format!("pause_s = {pause_s}\n"));
                }
                MobilitySpec::Walk { max_speed, epoch_s } => {
                    s.push_str(&format!("max_speed = {max_speed}\n"));
                    s.push_str(&format!("epoch_s = {epoch_s}\n"));
                }
                MobilitySpec::GaussMarkov {
                    mean_speed,
                    alpha,
                    epoch_s,
                } => {
                    s.push_str(&format!("mean_speed = {mean_speed}\n"));
                    s.push_str(&format!("alpha = {alpha}\n"));
                    s.push_str(&format!("epoch_s = {epoch_s}\n"));
                }
                MobilitySpec::Manhattan {
                    max_speed,
                    pause_s,
                    block_m,
                } => {
                    s.push_str(&format!("max_speed = {max_speed}\n"));
                    s.push_str(&format!("pause_s = {pause_s}\n"));
                    s.push_str(&format!("block_m = {block_m}\n"));
                }
                MobilitySpec::Convoy {
                    max_speed,
                    pause_s,
                    group_radius_m,
                } => {
                    s.push_str(&format!("max_speed = {max_speed}\n"));
                    s.push_str(&format!("pause_s = {pause_s}\n"));
                    s.push_str(&format!("group_radius_m = {group_radius_m}\n"));
                }
                MobilitySpec::Hotspot {
                    max_speed,
                    hotspots,
                    dwell_s,
                } => {
                    s.push_str(&format!("max_speed = {max_speed}\n"));
                    s.push_str(&format!("hotspots = {hotspots}\n"));
                    s.push_str(&format!("dwell_s = {dwell_s}\n"));
                }
            }
        }
        s.push_str("\n[traffic]\n");
        s.push_str(&format!("pattern = \"{}\"\n", self.traffic.pattern.name()));
        s.push_str(&format!("flows = {}\n", self.traffic.flows));
        s.push_str(&format!("rate_pps = {}\n", self.traffic.rate_pps));
        s.push_str(&format!("packet_bytes = {}\n", self.traffic.packet_bytes));
        s.push_str(&format!("start_s = {}\n", self.traffic.start_s));
        if let TrafficPattern::Bursty { on_s, off_s } = self.traffic.pattern {
            s.push_str(&format!("on_s = {on_s}\n"));
            s.push_str(&format!("off_s = {off_s}\n"));
        }
        s
    }

    /// The group index owning host `i` under contiguous group-order
    /// numbering (group 0's hosts first, then group 1's, ...), or `None`
    /// past the end.
    pub fn group_of_host(&self, i: usize) -> Option<usize> {
        let mut base = 0;
        for (gi, g) in self.groups.iter().enumerate() {
            if i < base + g.count {
                return Some(gi);
            }
            base += g.count;
        }
        None
    }
}

impl fmt::Display for ScenarioSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} hosts in {} groups, {} {} flows, {} s, seed {})",
            self.name,
            self.total_hosts(),
            self.groups.len(),
            self.traffic.flows,
            self.traffic.pattern.name(),
            self.duration_s,
            self.seed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXAMPLE: &str = r#"
# a comment
[scenario]
name = "two-pop"            # trailing comment
field_w = 1000
field_h = 800.0
cell_side = 100
duration_s = 40
seed = 11

[[group]]
name = "walkers"
count = 20
battery_j = 500
battery_var = 0.2
range_m = 250
gps_sigma_m = 5.0
role = "peer"
mobility = "waypoint"
max_speed = 1.5
pause_s = 10

[[group]]
name = "base"
count = 2
battery_j = inf
role = "sink"
mobility = "stationary"

[traffic]
pattern = "many_to_one"
flows = 4
rate_pps = 1.0
packet_bytes = 256
start_s = 5
"#;

    #[test]
    fn parses_the_example() {
        let spec = parse(EXAMPLE).unwrap();
        assert_eq!(spec.name, "two-pop");
        assert_eq!(spec.field_h, 800.0);
        assert_eq!(spec.groups.len(), 2);
        assert_eq!(spec.total_hosts(), 22);
        assert_eq!(spec.groups[0].role, Role::Peer);
        assert_eq!(
            spec.groups[0].mobility,
            MobilitySpec::Waypoint {
                max_speed: 1.5,
                pause_s: 10.0
            }
        );
        assert_eq!(spec.groups[1].battery_j, None);
        assert_eq!(spec.groups[1].mobility, MobilitySpec::Stationary);
        assert_eq!(spec.traffic.pattern, TrafficPattern::ManyToOne);
        assert_eq!(spec.traffic.packet_bytes, 256);
    }

    #[test]
    fn roundtrips_through_canonical_text() {
        let spec = parse(EXAMPLE).unwrap();
        let again = parse(&spec.to_text()).unwrap();
        assert_eq!(spec, again);
    }

    #[test]
    fn group_of_host_follows_file_order() {
        let spec = parse(EXAMPLE).unwrap();
        assert_eq!(spec.group_of_host(0), Some(0));
        assert_eq!(spec.group_of_host(19), Some(0));
        assert_eq!(spec.group_of_host(20), Some(1));
        assert_eq!(spec.group_of_host(21), Some(1));
        assert_eq!(spec.group_of_host(22), None);
    }

    #[test]
    fn source_and_sink_pools_respect_roles() {
        let spec = parse(EXAMPLE).unwrap();
        assert_eq!(spec.source_hosts(), 20); // peers only
        assert_eq!(spec.sink_hosts(), 22); // peers + the sink group
    }
}
