//! An untraced run must equal a traced one, bit for bit.
//!
//! Every golden fixture is a traced run, but sweeps, the paper campaign
//! and the benchmark run with no recorder attached, and the energy touch
//! takes a shorter path there: with nothing to record it does not
//! classify battery levels.  The digest cannot see an untraced run, so
//! these tests compare what it leaves behind instead — world counters,
//! the packet ledger, the alive and aen series, and every host's consumed
//! energy and alive flag — between `trace: None` and
//! [`TraceMode::DigestOnly`], with every float compared by its bits.
//!
//! Each world is built as the product builds it (`spec_run::fleet_world`
//! over `world_config`, so the fault plan is keyed on the scenario seed
//! as in every run).  Two configurations, each under ECGRID and GRID:
//! * small batteries, so hosts cross every level class and die mid-run
//!   (a death is the one thing an untraced touch commits);
//! * the same under a fault plan with loss, churn, sudden drains and GPS
//!   error, plus a per-host GPS error bound from the scenario.

use ecgrid_suite::ecgrid::{Ecgrid, EcgridConfig};
use ecgrid_suite::grid_routing::{GridConfig, GridProto};
use ecgrid_suite::manet::{FaultPlan, NodeId, Protocol, TraceMode, WorldStats};
use ecgrid_suite::metrics::{PacketLedger, TimeSeries};
use ecgrid_suite::runner::spec_run::{fleet_world, world_config};
use ecgrid_suite::runner::{ProtocolKind, RunOptions, Scenario};
use ecgrid_suite::scenario::ScenarioSpec;
use ecgrid_suite::sim_engine::SimTime;

mod common;
use common::golden;

/// A battery small enough that idle hosts die near 35 s of the golden
/// scenario's 40: every level class is crossed, and sleepers outlive
/// the hosts that stay awake.
const SMALL_BATTERY_J: f64 = 30.0;

/// Everything an untraced run leaves behind, floats as their bits.
#[derive(Debug, PartialEq)]
struct Outcome {
    stats: WorldStats,
    ledger: PacketLedger,
    alive: Vec<(u64, u64)>,
    aen: Vec<(u64, u64)>,
    /// Per host: consumed joules (bits) and whether it is alive.
    hosts: Vec<(u64, bool)>,
}

fn bits(series: &TimeSeries) -> Vec<(u64, u64)> {
    series
        .points()
        .iter()
        .map(|p| (p.t_secs.to_bits(), p.value.to_bits()))
        .collect()
}

/// The golden scenario under `protocol`, on small batteries, with each
/// host's reported position off by up to `gps_sigma_m`.
fn spec(protocol: ProtocolKind, gps_sigma_m: f64) -> ScenarioSpec {
    let mut spec = Scenario::to_spec(&golden(protocol));
    for g in &mut spec.groups {
        g.battery_j = Some(SMALL_BATTERY_J);
        g.gps_sigma_m = gps_sigma_m;
    }
    spec
}

fn run<P: Protocol>(
    spec: &ScenarioSpec,
    protocol: ProtocolKind,
    faults: FaultPlan,
    trace: Option<TraceMode>,
    factory: fn(NodeId) -> P,
) -> Outcome {
    let cfg = world_config(spec, &RunOptions::default().with_faults(faults));
    let mut world = fleet_world(spec, protocol, cfg, factory);
    if let Some(mode) = trace {
        world.enable_trace(mode);
    }
    let out = world.run_until(SimTime::from_secs_f64(spec.duration_s));
    assert_eq!(world.trace_digest().is_some(), trace.is_some());
    let hosts = (0..world.node_count() as u32)
        .map(NodeId)
        .map(|id| (world.node_consumed_j(id).to_bits(), world.node_alive(id)))
        .collect();
    Outcome {
        stats: out.stats,
        ledger: out.ledger,
        alive: bits(&out.alive),
        aen: bits(&out.aen),
        hosts,
    }
}

/// Run `spec` untraced and digest-traced under ECGRID and GRID, require
/// the two to agree, and return the untraced outcomes.
fn untraced_equals_traced(gps_sigma_m: f64, faults: FaultPlan) -> Vec<Outcome> {
    let mut outcomes = Vec::new();
    for protocol in [ProtocolKind::Ecgrid, ProtocolKind::Grid] {
        let spec = spec(protocol, gps_sigma_m);
        let [untraced, traced] = [None, Some(TraceMode::DigestOnly)].map(|trace| match protocol {
            ProtocolKind::Ecgrid => run(&spec, protocol, faults, trace, |id| {
                Ecgrid::new(EcgridConfig::default(), id)
            }),
            _ => run(&spec, protocol, faults, trace, |id| {
                GridProto::new(GridConfig::default(), id)
            }),
        });
        assert_eq!(
            untraced, traced,
            "{protocol:?}: the untraced run diverged from the traced one"
        );
        assert!(
            untraced.stats.deaths > 0 && untraced.hosts.iter().any(|&(_, alive)| !alive),
            "{protocol:?}: no host died; the scenario lost its teeth"
        );
        outcomes.push(untraced);
    }
    outcomes
}

#[test]
fn untraced_runs_equal_traced_runs_while_hosts_die() {
    untraced_equals_traced(0.0, FaultPlan::none());
}

#[test]
fn untraced_runs_equal_traced_runs_under_faults() {
    let plan = FaultPlan::parse("loss=0.05,churn=0.005,drain=0.005,gps=5").unwrap();
    for out in untraced_equals_traced(5.0, plan) {
        assert!(
            out.stats.frames_lost_fault > 0 && out.stats.crashes > 0,
            "the fault plan must engage"
        );
    }
}
