//! The one fleet pipeline: [`run_fleet`] turns a [`ScenarioSpec`] —
//! heterogeneous groups of hosts with per-group battery, radio range, GPS
//! error, mobility model, and traffic role — into a world config, a
//! fleet, a flow set, and a [`ScenarioResult`].  Scenario files arrive
//! here parsed ([`run_spec`]); the paper's homogeneous `Scenario` arrives
//! lowered by `Scenario::to_spec` (the `crate::run` entry points), as the
//! one- or two-group degenerate case it is.  Every world built from a
//! scenario comes from [`fleet_world`] over [`world_config`]: `run_fleet`
//! for the product, and the analyses that need the world itself — the
//! ablations with their own protocol constants, the tests that read
//! per-host state — call the same two.
//!
//! Determinism contract: host `i`'s mobility trace draws from
//! `RngFactory::new(seed).stream("mobility", i)` whatever group it falls
//! in, the flow assignment from `stream("traffic", 0)`; group-level
//! streams (`"mobility.ref"`, `"mobility.spots"`) feed artifacts shared
//! by a whole group (a convoy's reference trajectory, a hotspot set).
//! Battery manufacturing spread uses stateless hash draws keyed on the
//! scenario seed, so a zero variance performs no draws at all.  The
//! result — including its trace digest — is therefore a pure function of
//! (spec, protocol, options), invariant across scheduler backends, shard
//! counts, and thread counts (proven by `tests/golden_trace.rs` for the
//! lowered paper fleets and `tests/scenario_golden.rs` for the files).

use crate::run::{RunOptions, ScenarioResult};
use crate::scenario::{ProtocolKind, Scenario};
use ecgrid::{Ecgrid, EcgridConfig};
use gaf::GafProto;
use grid_routing::{GridConfig, GridProto};
use manet::progress::ProgressProbe;
use manet::trace::{EventSink, TraceMode};
use manet::{
    Battery, FlowSet, FlowSpec, GroupStats, HostSetup, NodeId, PowerProfile, Protocol, SimDuration, SimTime,
    World, WorldConfig,
};
use mobility::{
    Convoy, GaussMarkov, HotspotConvergence, ManhattanGrid, MobilityModel, MobilityTrace, RandomWalk,
    RandomWaypoint, Stationary,
};
use scenario::{GroupSpec, MobilitySpec, Role, ScenarioSpec, TrafficPattern};
use sim_engine::{derive_seed, keyed_draw, RngFactory, RunBudget};
use span::SpanProto;
use std::collections::HashMap;
use std::sync::Arc;
use traffic::Burst;

/// Per-group results of a scenario-file run: the group's label and
/// mobility/role tags, its liveness/energy rollup, and the delivery
/// accounting of the flows its hosts originate.
#[derive(Clone, Debug)]
pub struct GroupReport {
    /// The `name = "..."` from the group's `[[group]]` table.
    pub name: String,
    /// Traffic role tag (`relay`, `source`, `sink`, `peer`, `endpoint`).
    pub role: &'static str,
    /// Mobility model tag (`waypoint`, `manhattan`, `convoy`, ...).
    pub mobility: &'static str,
    /// Liveness and energy rollup (same accounting as the global
    /// alive-fraction/aen metrics, restricted to the group).
    pub stats: GroupStats,
    /// Packets issued by flows whose *source* host is in this group.
    pub sent: u64,
    /// Of those, packets delivered.
    pub delivered: u64,
}

impl GroupReport {
    /// Delivery rate of this group's flows; `None` when it sourced none.
    pub fn delivery_rate(&self) -> Option<f64> {
        (self.sent > 0).then(|| self.delivered as f64 / self.sent as f64)
    }
}

/// Battery manufacturing spread: host `i` keeps `1 - var * u` of its
/// group's nominal capacity, `u` a stateless hash draw keyed on the
/// scenario seed.  `var == 0` performs no draws.
fn battery_scale(seed: u64, var: f64, host: u32) -> f64 {
    if var <= 0.0 {
        return 1.0;
    }
    1.0 - var.min(1.0) * keyed_draw(seed, "scenario.batt", u64::from(host), "scenario.sub", 0)
}

/// Build one host's mobility trace.  Per-host randomness comes from the
/// canonical `("mobility", host)` stream; group-shared artifacts (convoy
/// reference, hotspot set) are prebuilt by [`group_shared`] from
/// group-level streams so every member sees the same one.
fn build_trace(
    spec: &ScenarioSpec,
    g: &GroupSpec,
    shared: &SharedMobility,
    rngs: &RngFactory,
    host: u64,
    horizon: SimTime,
) -> MobilityTrace {
    let (w, h) = (spec.field_w, spec.field_h);
    let rng = &mut rngs.stream("mobility", host);
    match &g.mobility {
        MobilitySpec::Stationary => Stationary {
            field_w: w,
            field_h: h,
        }
        .build_trace(rng, horizon),
        MobilitySpec::Waypoint { max_speed, pause_s } => RandomWaypoint {
            field_w: w,
            field_h: h,
            max_speed: *max_speed,
            min_speed: mobility::min_speed(*max_speed),
            pause_secs: *pause_s,
        }
        .build_trace(rng, horizon),
        MobilitySpec::Walk { max_speed, epoch_s } => RandomWalk {
            field_w: w,
            field_h: h,
            max_speed: *max_speed,
            epoch_secs: *epoch_s,
        }
        .build_trace(rng, horizon),
        MobilitySpec::GaussMarkov {
            mean_speed,
            alpha,
            epoch_s,
        } => GaussMarkov {
            field_w: w,
            field_h: h,
            mean_speed: *mean_speed,
            alpha: *alpha,
            epoch_secs: *epoch_s,
        }
        .build_trace(rng, horizon),
        MobilitySpec::Manhattan {
            max_speed,
            pause_s,
            block_m,
        } => ManhattanGrid {
            field_w: w,
            field_h: h,
            block_m: *block_m,
            max_speed: *max_speed,
            min_speed: mobility::min_speed(*max_speed),
            pause_secs: *pause_s,
        }
        .build_trace(rng, horizon),
        MobilitySpec::Convoy { group_radius_m, .. } => Convoy::around(
            shared.reference.clone().expect("prebuilt by group_shared"),
            w,
            h,
            *group_radius_m,
        )
        .build_trace(rng, horizon),
        MobilitySpec::Hotspot {
            max_speed, dwell_s, ..
        } => HotspotConvergence::new(
            w,
            h,
            shared.spots.clone().expect("prebuilt by group_shared"),
            *max_speed,
            *dwell_s,
        )
        .build_trace(rng, horizon),
    }
}

/// Group-shared mobility artifacts (empty for models without any).
#[derive(Default)]
struct SharedMobility {
    reference: Option<MobilityTrace>,
    spots: Option<Vec<geo::Point2>>,
}

fn group_shared(
    spec: &ScenarioSpec,
    g: &GroupSpec,
    rngs: &RngFactory,
    group_idx: u64,
    horizon: SimTime,
) -> SharedMobility {
    match &g.mobility {
        MobilitySpec::Convoy {
            max_speed, pause_s, ..
        } => {
            // the convoy lead: a random-waypoint trajectory from a
            // group-level stream so every member shares it
            let lead = RandomWaypoint {
                field_w: spec.field_w,
                field_h: spec.field_h,
                max_speed: *max_speed,
                min_speed: mobility::min_speed(*max_speed),
                pause_secs: *pause_s,
            }
            .build_trace(&mut rngs.stream("mobility.ref", group_idx), horizon);
            SharedMobility {
                reference: Some(lead),
                spots: None,
            }
        }
        MobilitySpec::Hotspot { hotspots, .. } => SharedMobility {
            reference: None,
            spots: Some(HotspotConvergence::random_spots(
                &mut rngs.stream("mobility.spots", group_idx),
                spec.field_w,
                spec.field_h,
                *hotspots,
            )),
        },
        _ => SharedMobility::default(),
    }
}

/// Build the full heterogeneous fleet: one [`HostSetup`] per host in
/// group order, carrying the group's battery, range, GPS error bound, and
/// group index.  Span hosts carry no GPS (the protocol is not
/// location-aware).
fn build_hosts(spec: &ScenarioSpec, protocol: ProtocolKind, horizon: SimTime) -> Vec<HostSetup> {
    let rngs = RngFactory::new(spec.seed);
    let profile = if protocol == ProtocolKind::Span {
        PowerProfile::paper_no_gps()
    } else {
        PowerProfile::paper_default()
    };
    let mut hosts = Vec::with_capacity(spec.total_hosts());
    let mut host = 0u64;
    for (gi, g) in spec.groups.iter().enumerate() {
        let shared = group_shared(spec, g, &rngs, gi as u64, horizon);
        for _ in 0..g.count {
            let trace = build_trace(spec, g, &shared, &rngs, host, horizon);
            let battery = match g.battery_j {
                None => Battery::infinite(),
                Some(j) => Battery::with_capacity(j * battery_scale(spec.seed, g.battery_var, host as u32)),
            };
            hosts.push(HostSetup {
                profile,
                battery,
                trace,
                range_m: g.range_m,
                gps_sigma_m: g.gps_sigma_m,
                group: gi as u16,
            });
            host += 1;
        }
    }
    hosts
}

/// Build the flow set from the scenario's roles and traffic pattern.
/// Sources are hosts in source-eligible groups, sinks in sink-eligible
/// groups (`peer` and `endpoint` are both); the parser guarantees a
/// non-degenerate pool whenever `flows > 0`.
fn build_flows(spec: &ScenarioSpec, end: SimTime) -> FlowSet {
    let rngs = RngFactory::new(spec.seed);
    let mut srcs = Vec::new();
    let mut dsts = Vec::new();
    let mut host = 0u32;
    for g in &spec.groups {
        for _ in 0..g.count {
            if g.role.is_source() {
                srcs.push(NodeId(host));
            }
            if g.role.is_sink() {
                dsts.push(NodeId(host));
            }
            host += 1;
        }
    }
    let fspec = FlowSpec {
        n_flows: spec.traffic.flows,
        packet_bytes: spec.traffic.packet_bytes,
        rate_pps: spec.traffic.rate_pps,
        start: SimTime::from_secs_f64(spec.traffic.start_s),
        stop: end,
        stagger: true,
    };
    let rng = &mut rngs.stream("traffic", 0);
    match spec.traffic.pattern {
        TrafficPattern::Cbr => FlowSet::random_between(rng, &srcs, &dsts, &fspec),
        TrafficPattern::Bursty { on_s, off_s } => {
            FlowSet::random_between(rng, &srcs, &dsts, &fspec).with_burst(Burst::new(on_s, off_s))
        }
        TrafficPattern::ManyToOne => FlowSet::many_to_one(rng, &srcs, &dsts, &fspec),
    }
}

/// The representative classic [`Scenario`] echoed in the result (label,
/// seed bookkeeping): total host count, the fastest group's speed, and
/// the endpoint count.
pub(crate) fn representative(spec: &ScenarioSpec, protocol: ProtocolKind) -> Scenario {
    let max_speed = spec
        .groups
        .iter()
        .map(|g| match &g.mobility {
            MobilitySpec::Stationary => 0.0,
            MobilitySpec::Waypoint { max_speed, .. }
            | MobilitySpec::Walk { max_speed, .. }
            | MobilitySpec::Manhattan { max_speed, .. }
            | MobilitySpec::Convoy { max_speed, .. }
            | MobilitySpec::Hotspot { max_speed, .. } => *max_speed,
            MobilitySpec::GaussMarkov { mean_speed, .. } => *mean_speed,
        })
        .fold(0.0, f64::max);
    let endpoints: usize = spec
        .groups
        .iter()
        .filter(|g| g.role == Role::Endpoint)
        .map(|g| g.count)
        .sum();
    Scenario {
        protocol,
        n_hosts: spec.total_hosts() - endpoints,
        max_speed,
        pause_secs: 0.0,
        n_flows: spec.traffic.flows,
        flow_rate_pps: spec.traffic.rate_pps,
        duration_secs: spec.duration_s,
        seed: spec.seed,
        model1_endpoints: endpoints,
    }
}

/// Per-group reports of a finished run: liveness/energy from the world's
/// group rollup, delivery from folding the ledger's per-flow counts
/// through the flow → source-group map.
fn group_reports(
    spec: &ScenarioSpec,
    gstats: &[GroupStats],
    ledger: &metrics::PacketLedger,
    flow_group: &HashMap<u32, u16>,
) -> Vec<GroupReport> {
    let mut reports: Vec<GroupReport> = spec
        .groups
        .iter()
        .zip(gstats)
        .map(|(g, stats)| GroupReport {
            name: g.name.clone(),
            role: g.role.name(),
            mobility: g.mobility.model_name(),
            stats: *stats,
            sent: 0,
            delivered: 0,
        })
        .collect();
    for (flow, sent, delivered) in ledger.per_flow() {
        if let Some(&gi) = flow_group.get(&flow) {
            if let Some(r) = reports.get_mut(gi as usize) {
                r.sent += sent;
                r.delivered += delivered;
            }
        }
    }
    reports
}

/// The world configuration `opts` selects for `spec`: its field and
/// cells, the fleet's widest radio, the fault plan keyed on the scenario
/// seed, the watchdog budget and the engine.  A caller that studies the
/// world's own constants (the ablations) adjusts the returned config
/// before handing it to [`fleet_world`].
pub fn world_config(spec: &ScenarioSpec, opts: &RunOptions) -> WorldConfig {
    // the effective fault seed folds the scenario seed in, so replicas of
    // the same plan see different (but each fully deterministic) faults
    let faults = opts
        .faults
        .with_seed(derive_seed(spec.seed, "fault", opts.faults.seed));
    let mut budget = RunBudget::UNLIMITED;
    if let Some(n) = opts.event_budget {
        budget = budget.with_max_events(n);
    }
    if let Some(ms) = opts.wall_budget_ms {
        budget = budget.with_max_wall_ms(ms);
    }
    let mut cfg = WorldConfig::paper_default(spec.seed)
        .with_backend(opts.backend)
        .with_faults(faults)
        .with_budget(budget)
        .with_neighbor_index(opts.neighbor_index);
    cfg.grid = geo::GridMap::new(spec.field_w, spec.field_h, spec.cell_side);
    if opts.parallel_world {
        cfg = cfg.with_parallel_world(opts.shards).with_threads(opts.threads);
    }
    cfg
}

/// Build `spec`'s fleet under `protocol` — its hosts, its flows and the
/// world over them, `make` constructing each host's protocol instance —
/// ready to run to `spec.duration_s`; tracing, probes and the run are
/// the caller's.  Every world built from a scenario comes from here.
pub fn fleet_world<P: Protocol>(
    spec: &ScenarioSpec,
    protocol: ProtocolKind,
    cfg: WorldConfig,
    make: impl FnMut(NodeId) -> P + 'static,
) -> World<P> {
    let end = SimTime::from_secs_f64(spec.duration_s);
    // traces must outlive the run comfortably
    let horizon = end + SimDuration::from_secs_f64(scenario::TRACE_SLACK_S);
    World::new(
        cfg,
        build_hosts(spec, protocol, horizon),
        build_flows(spec, end),
        make,
    )
}

/// Run a parsed scenario file under `protocol`.  See module docs for the
/// determinism contract.
pub fn run_spec(spec: &ScenarioSpec, protocol: ProtocolKind, opts: RunOptions) -> ScenarioResult {
    run_fleet(spec, protocol, opts, None, None)
}

/// Build and run one fleet.  `probe` is shared with a supervisor and
/// updated throughout the run, so a panicking run can still report how
/// far it got; `sink` is handed every recorded trace event, in chunks,
/// as the run goes and the rest before it returns (the sweep service's
/// streaming path), and is digest-neutral by construction — it observes
/// recording, it cannot alter it.
pub fn run_fleet(
    spec: &ScenarioSpec,
    protocol: ProtocolKind,
    opts: RunOptions,
    probe: Option<Arc<ProgressProbe>>,
    sink: Option<EventSink>,
) -> ScenarioResult {
    let cfg = world_config(spec, &opts);
    let run = Run {
        spec,
        protocol,
        trace: opts.trace,
        probe,
        sink,
    };
    // endpoint-role hosts run the endpoint protocol variant under
    // GAF/Span (Model 1); Grid/ECGRID have no such variant — an endpoint
    // group there is simply an infinite-battery peer
    let is_endpoint: Vec<bool> = spec
        .groups
        .iter()
        .flat_map(|g| std::iter::repeat_n(g.role == Role::Endpoint, g.count))
        .collect();
    match protocol {
        ProtocolKind::Grid => run.finish(fleet_world(spec, protocol, cfg, |id| {
            GridProto::new(GridConfig::default(), id)
        })),
        ProtocolKind::Ecgrid => run.finish(fleet_world(spec, protocol, cfg, |id| {
            Ecgrid::new(EcgridConfig::default(), id)
        })),
        ProtocolKind::Gaf => run.finish(fleet_world(spec, protocol, cfg, move |id| {
            if is_endpoint[id.index()] {
                GafProto::endpoint(id)
            } else {
                GafProto::new(id)
            }
        })),
        ProtocolKind::Span => run.finish(fleet_world(spec, protocol, cfg, move |id| {
            if is_endpoint[id.index()] {
                SpanProto::endpoint(id)
            } else {
                SpanProto::new(id)
            }
        })),
    }
}

/// What [`run_fleet`] hands every built world, whatever its protocol.
struct Run<'a> {
    spec: &'a ScenarioSpec,
    protocol: ProtocolKind,
    trace: Option<TraceMode>,
    probe: Option<Arc<ProgressProbe>>,
    sink: Option<EventSink>,
}

impl Run<'_> {
    /// Trace, probe and run `world` to the end of the spec, and read the
    /// result off it.
    fn finish<P: Protocol>(self, mut world: World<P>) -> ScenarioResult {
        let spec = self.spec;
        // flow -> source-host group, for per-group delivery attribution
        let flow_group: HashMap<u32, u16> = world
            .flows()
            .iter()
            .filter_map(|f| spec.group_of_host(f.src.0 as usize).map(|g| (f.id.0, g as u16)))
            .collect();
        match (self.trace, self.sink) {
            (Some(mode), Some(s)) => world.enable_trace_with_sink(mode, s),
            (Some(mode), None) => world.enable_trace(mode),
            (None, _) => {}
        }
        if let Some(p) = self.probe {
            world.attach_probe(p);
        }
        let out = world.run_until(SimTime::from_secs_f64(spec.duration_s));
        let gstats = world.group_stats();
        let recorder = world.take_recorder();
        // free the world before the figures below allocate
        drop(world);
        let cutoff = SimTime::from_secs(590);
        ScenarioResult {
            scenario: representative(spec, self.protocol),
            groups: group_reports(spec, &gstats, &out.ledger, &flow_group),
            pdr: out.ledger.delivery_rate(),
            latency_ms: out.ledger.mean_latency_ms(),
            pdr_590: out.ledger.delivery_rate_before(cutoff),
            latency_ms_590: out.ledger.mean_latency_ms_before(cutoff),
            network_death_s: out.alive.first_time_at_or_below(0.0),
            alive: out.alive,
            aen: out.aen,
            ledger: out.ledger,
            stats: out.stats,
            trace_digest: recorder.as_ref().map(|r| r.digest()),
            recorder,
            budget_exceeded: out.budget_exceeded,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> ScenarioSpec {
        scenario::parse(text).expect("test scenario must parse")
    }

    const MIXED: &str = r#"
[scenario]
name = "mixed"
duration_s = 40
seed = 11

[[group]]
name = "walkers"
count = 16
mobility = "waypoint"
max_speed = 1.0

[[group]]
name = "convoy"
count = 8
mobility = "convoy"
max_speed = 5.0
group_radius_m = 60
range_m = 150

[traffic]
flows = 3
rate_pps = 1.0
"#;

    #[test]
    fn spec_run_is_reproducible() {
        let spec = parse(MIXED);
        let a = run_spec(&spec, ProtocolKind::Ecgrid, RunOptions::default());
        let b = run_spec(&spec, ProtocolKind::Ecgrid, RunOptions::default());
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.pdr, b.pdr);
        assert!(a.ledger.sent_count() > 0, "traffic must flow");
    }

    #[test]
    fn group_reports_cover_every_host_and_flow() {
        let spec = parse(MIXED);
        let r = run_spec(&spec, ProtocolKind::Ecgrid, RunOptions::default());
        assert_eq!(r.groups.len(), 2);
        assert_eq!(r.groups[0].name, "walkers");
        assert_eq!(r.groups[0].stats.hosts, 16);
        assert_eq!(r.groups[1].stats.hosts, 8);
        assert_eq!(r.groups[1].mobility, "convoy");
        let sent: u64 = r.groups.iter().map(|g| g.sent).sum();
        assert_eq!(sent, r.ledger.sent_count(), "every flow attributed");
    }

    #[test]
    fn endpoint_groups_drive_model1_protocols() {
        let text = r#"
[scenario]
duration_s = 30
seed = 5

[[group]]
name = "relays"
count = 20
role = "relay"
mobility = "waypoint"
max_speed = 1.0

[[group]]
name = "ends"
count = 4
role = "endpoint"
mobility = "stationary"

[traffic]
flows = 2
rate_pps = 1.0
"#;
        let spec = parse(text);
        let r = run_spec(&spec, ProtocolKind::Gaf, RunOptions::default());
        assert!(r.ledger.sent_count() > 0);
        // endpoints are infinite-battery: excluded from the finite tally
        assert_eq!(r.groups[1].stats.finite, 0);
        assert_eq!(r.groups[1].stats.hosts, 4);
        assert!(r.groups[0].stats.finite == 20);
    }

    #[test]
    fn protocols_share_the_same_mobility_per_seed() {
        // host i's trace is keyed on (seed, i) alone: neither the protocol
        // nor the group split its lowering picks (Grid: one group, GAF:
        // relays then endpoints) may move anybody
        let sc = Scenario {
            n_hosts: 16,
            model1_endpoints: 4,
            duration_secs: 60.0,
            ..Scenario::paper_base(ProtocolKind::Grid, 1.0, 7)
        };
        let gaf = Scenario {
            protocol: ProtocolKind::Gaf,
            ..sc
        };
        let horizon = SimTime::from_secs(70);
        let at = SimTime::from_secs(33);
        let grid_hosts = build_hosts(&sc.to_spec(), ProtocolKind::Grid, horizon);
        let ecgrid_hosts = build_hosts(&sc.to_spec(), ProtocolKind::Ecgrid, horizon);
        let gaf_hosts = build_hosts(&gaf.to_spec(), ProtocolKind::Gaf, horizon);
        assert_eq!((grid_hosts.len(), gaf_hosts.len()), (16, 20));
        for (i, g) in grid_hosts.iter().enumerate() {
            assert_eq!(g.trace.position_at(at), ecgrid_hosts[i].trace.position_at(at));
            assert_eq!(g.trace.position_at(at), gaf_hosts[i].trace.position_at(at));
        }
        assert_eq!(gaf_hosts[15].group, 0);
        assert_eq!(gaf_hosts[16].group, 1, "endpoints follow the relays");
    }

    #[test]
    fn battery_variance_spreads_capacities_deterministically() {
        assert_eq!(battery_scale(7, 0.0, 3), 1.0);
        let a = battery_scale(7, 0.3, 3);
        let b = battery_scale(7, 0.3, 3);
        assert_eq!(a, b);
        assert!(a > 0.69 && a <= 1.0, "scale {a} outside [0.7, 1]");
        assert_ne!(battery_scale(7, 0.3, 4), a, "per-host spread");
    }

    /// The golden scenario of `tests/golden_trace.rs` and its chaos plan.
    fn golden_spec(protocol: ProtocolKind) -> ScenarioSpec {
        Scenario {
            n_hosts: 30,
            n_flows: 3,
            duration_secs: 40.0,
            model1_endpoints: 4,
            ..Scenario::paper_base(protocol, 1.0, 11)
        }
        .to_spec()
    }

    const GOLDEN_PLAN: &str = "loss=0.15,churn=0.02,rejoin=3,page_fail=0.1";

    /// Run the golden fleet with protocol instances in reach: the trace
    /// digest (to tie the run to its committed fixture) and the per-host
    /// counters `counters` extracts, summed over hosts.
    fn golden_counters<P: Protocol>(
        protocol: ProtocolKind,
        faulted: bool,
        make: impl FnMut(NodeId) -> P + 'static,
        counters: impl Fn(&P) -> [u64; 8],
    ) -> (String, [u64; 8]) {
        let spec = golden_spec(protocol);
        let mut opts = RunOptions::digest();
        if faulted {
            opts = opts.with_faults(manet::FaultPlan::parse(GOLDEN_PLAN).unwrap());
        }
        let mut world = fleet_world(&spec, protocol, world_config(&spec, &opts), make);
        world.enable_trace(TraceMode::DigestOnly);
        world.run_until(SimTime::from_secs_f64(spec.duration_s));
        let mut sum = [0u64; 8];
        for i in 0..spec.total_hosts() {
            let c = counters(world.protocol(NodeId(i as u32)));
            for (s, c) in sum.iter_mut().zip(c) {
                *s += c;
            }
        }
        let digest = world.take_recorder().expect("tracing was enabled").digest();
        (digest.to_string(), sum)
    }

    fn fixture(name: &str) -> String {
        let path = format!("{}/../../tests/golden/{name}.digest", env!("CARGO_MANIFEST_DIR"));
        std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing fixture {path}: {e}"))
            .trim()
            .to_string()
    }

    fn with_routing(r: grid_common::RoutingStats, became_gateway: u32, retires: u32) -> [u64; 8] {
        [
            r.rreqs_sent,
            r.rreqs_forwarded,
            r.rreps_sent,
            r.data_forwarded,
            r.data_delivered,
            r.data_dropped,
            became_gateway,
            retires,
        ]
        .map(u64::from)
    }

    #[test]
    fn grid_family_protocol_counters_are_pinned_on_the_golden_runs() {
        // The trace digest folds what goes on the air and what the
        // application sees; these per-host protocol counters it does not
        // fold.  Pinned as [rreqs_sent, rreqs_forwarded, rreps_sent,
        // data_forwarded, data_delivered, data_dropped, became_gateway,
        // retires] summed over hosts, on the very runs the digest
        // fixtures pin, so a restructuring of either state machine has to
        // hold both.
        let want = [
            ("grid", [106, 1137, 4, 45, 35, 68, 27, 2]),
            ("grid_faulted", [102, 648, 5, 36, 35, 67, 28, 2]),
            ("ecgrid", [107, 1139, 7, 44, 35, 68, 27, 2]),
            ("ecgrid_faulted", [105, 695, 7, 42, 35, 67, 27, 2]),
        ];
        let mut got = Vec::new();
        for faulted in [false, true] {
            got.push(golden_counters(
                ProtocolKind::Grid,
                faulted,
                |id| GridProto::new(GridConfig::default(), id),
                |p| with_routing(p.routing_stats(), p.stats.became_gateway, p.stats.retires),
            ));
        }
        for faulted in [false, true] {
            got.push(golden_counters(
                ProtocolKind::Ecgrid,
                faulted,
                |id| Ecgrid::new(EcgridConfig::default(), id),
                |p| with_routing(p.routing_stats(), p.stats.became_gateway, p.stats.retires),
            ));
        }
        for ((name, counters), (digest, sums)) in want.iter().zip(&got) {
            assert_eq!(*digest, fixture(name), "{name}: not the fixture's run");
            assert_eq!(sums, counters, "{name}: protocol counters moved");
        }
    }

    /// Every constant GRID and ECGRID share, each moved off its default
    /// to a value no other one takes.
    fn shared_off_default() -> GridConfig {
        GridConfig {
            hello_interval: 0.8,
            hello_jitter: 0.05,
            election_window: 1.2,
            gateway_silence: 1.7,
            gw_response_min_gap: 0.3,
            route_ttl: 7.0,
            neighbor_ttl: 1.9,
            discovery_timeout: 0.7,
            max_discovery_attempts: 2,
            buffer_cap: 5,
        }
    }

    #[test]
    fn grid_family_runs_are_pinned_with_every_shared_constant_off_default() {
        // The fixtures run the default constants, several of which
        // coincide (hello_interval = election_window = 1 s), so a
        // constant read from the wrong field shows in none of them.  Here
        // each shared constant has a value of its own; the digest and the
        // counters of the golden runs under them are pinned.
        let want = [
            ("grid", "86ea8a989dd43932", [75, 772, 10, 40, 35, 68, 27, 2]),
            (
                "grid_faulted",
                "75136d422cecf017",
                [72, 440, 9, 47, 35, 67, 28, 2],
            ),
            ("ecgrid", "ff442c609157774d", [75, 772, 10, 44, 35, 68, 27, 2]),
            (
                "ecgrid_faulted",
                "d408e5714fe50962",
                [73, 446, 9, 46, 34, 68, 28, 2],
            ),
        ];
        let mut got = Vec::new();
        for faulted in [false, true] {
            got.push(golden_counters(
                ProtocolKind::Grid,
                faulted,
                |id| GridProto::new(shared_off_default(), id),
                |p| with_routing(p.routing_stats(), p.stats.became_gateway, p.stats.retires),
            ));
        }
        for faulted in [false, true] {
            got.push(golden_counters(
                ProtocolKind::Ecgrid,
                faulted,
                |id| {
                    let cfg = EcgridConfig {
                        grid: shared_off_default(),
                        ..EcgridConfig::default()
                    };
                    Ecgrid::new(cfg, id)
                },
                |p| with_routing(p.routing_stats(), p.stats.became_gateway, p.stats.retires),
            ));
        }
        for ((name, digest, counters), (got_digest, sums)) in want.iter().zip(&got) {
            assert_ne!(
                *got_digest,
                fixture(name),
                "{name}: the constants did not reach the run"
            );
            assert_eq!(got_digest, digest, "{name}: trace digest moved");
            assert_eq!(sums, counters, "{name}: protocol counters moved");
        }
    }

    #[test]
    fn built_traces_stay_within_the_parser_s_segment_estimate() {
        // the parser bounds a fleet by `segments_per_host`: every model,
        // a roomy and a cramped field, a long and a one-second run
        let models = [
            ("stationary", ""),
            ("waypoint", "max_speed = 10.0\n"),
            ("waypoint", "max_speed = 1000.0\npause_s = 1\n"),
            ("walk", "max_speed = 10.0\nepoch_s = 1\n"),
            ("walk", "max_speed = 1000.0\nepoch_s = 10\n"),
            ("gauss_markov", "mean_speed = 10.0\nepoch_s = 1\n"),
            ("gauss_markov", "mean_speed = 300.0\nepoch_s = 5\nalpha = 0\n"),
            ("gauss_markov", "mean_speed = 1.0\nepoch_s = 1\nalpha = 1\n"),
            ("manhattan", "max_speed = 10.0\nblock_m = 50\npause_s = 2\n"),
            ("convoy", "max_speed = 10.0\n"),
            ("hotspot", "max_speed = 1000.0\ndwell_s = 1\n"),
        ];
        for (field, duration_s) in [(1000.0, 600.0), (1000.0, 1.0), (100.0, 600.0)] {
            for (model, keys) in models {
                for seed in 1..=3 {
                    let spec = parse(&format!(
                        "[scenario]\nfield_w = {field}\nfield_h = {field}\nduration_s = {duration_s}\n\
                         seed = {seed}\n\n[[group]]\nname = \"g\"\ncount = 30\nmobility = \"{model}\"\n{keys}"
                    ));
                    let estimate = spec.groups[0].mobility.segments_per_host(duration_s, field);
                    let horizon = SimTime::from_secs_f64(duration_s)
                        + SimDuration::from_secs_f64(::scenario::TRACE_SLACK_S);
                    let built: Vec<f64> = build_hosts(&spec, ProtocolKind::Ecgrid, horizon)
                        .iter()
                        .map(|h| h.trace.segments().len() as f64)
                        .collect();
                    let case = format!("{model} {keys:?} field {field} m, {duration_s} s, seed {seed}");
                    // what the fleet bound needs: a group's mean is covered
                    let mean = built.iter().sum::<f64>() / built.len() as f64;
                    assert!(mean <= estimate, "{case}: mean {mean} > {estimate}");
                    // one host may pass the mean's bound (a short waypoint
                    // leg, a walk that keeps meeting a wall) by a little;
                    // a Gauss–Markov host that never turns (`alpha = 1`)
                    // slides along the wall it meets in ever shorter legs,
                    // which no per-host bound covers
                    if !keys.contains("alpha = 1") {
                        let most = built.iter().copied().fold(0.0, f64::max);
                        assert!(
                            most <= 1.25 * estimate,
                            "{case}: a host built {most} > 1.25 × {estimate}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn the_parser_s_segment_size_is_the_trace_s() {
        assert_eq!(
            std::mem::size_of::<mobility::Segment>() as f64,
            ::scenario::SEGMENT_BYTES
        );
    }
}
