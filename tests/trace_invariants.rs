//! Cross-protocol invariants checked over the recorded event stream.
//!
//! Every protocol runs the same scenario under a full trace; the resulting
//! event sequence is then replayed through a set of stateful checkers:
//!
//! * timestamps never go backwards,
//! * every delivered (and forwarded) packet was sent first,
//! * no host transmits while its radio is asleep (or off, or dead),
//! * gateway elect / retire strictly alternate per (node, cell) tenure,
//! * battery level classes only cascade downward (Upper → Boundary →
//!   Lower), a node dies at most once, and
//! * energy consumed never exceeds the battery's initial capacity.

mod common;

use common::{check_invariants as check_invariants_mode, Chaos};
use ecgrid_suite::manet::trace::TraceMode;
use ecgrid_suite::manet::{EventKind, NodeId};
use ecgrid_suite::runner::spec_run::{fleet_world, world_config};
use ecgrid_suite::runner::{run_scenario_with, ProtocolKind, RunOptions, Scenario};
use ecgrid_suite::trace::Event;
use ecgrid_suite::{ecgrid, energy, sim_engine};
use energy::EnergyLevel;
use sim_engine::SimTime;
use std::collections::HashMap;

fn tiny(protocol: ProtocolKind) -> Scenario {
    Scenario {
        protocol,
        n_hosts: 40,
        max_speed: 2.0,
        pause_secs: 0.0,
        n_flows: 4,
        flow_rate_pps: 1.0,
        duration_secs: 60.0,
        seed: 3,
        model1_endpoints: 4,
    }
}

/// Replay `events` through every invariant checker (strict, fault-free
/// mode); panic with context on the first violation.  The checker itself
/// lives in `tests/common/` and is shared with the chaos suite.
fn check_invariants(tag: &str, events: &[Event]) {
    check_invariants_mode(tag, events, Chaos::Forbidden);
}

#[test]
fn every_protocol_satisfies_the_trace_invariants() {
    for p in ProtocolKind::ALL {
        let opts = RunOptions {
            trace: Some(TraceMode::Full),
            ..RunOptions::default()
        };
        let r = run_scenario_with(&tiny(p), opts);
        let rec = r.recorder.expect("full trace kept");
        assert!(rec.count() > 0, "{p:?}: the run recorded nothing");
        check_invariants(p.name(), rec.events());
    }
}

#[test]
fn gateway_tenures_alternate_and_close() {
    // Focused check on the control plane: per (node, cell), elect and
    // retire interleave strictly, and every tenure that ends was opened.
    for p in [ProtocolKind::Ecgrid, ProtocolKind::Grid, ProtocolKind::Gaf] {
        let opts = RunOptions {
            trace: Some(TraceMode::Full),
            ..RunOptions::default()
        };
        let r = run_scenario_with(&tiny(p), opts);
        let rec = r.recorder.expect("full trace kept");
        let mut elects = 0u64;
        let mut retires = 0u64;
        for ev in rec.events() {
            match ev.kind {
                EventKind::GatewayElect { .. } => elects += 1,
                EventKind::GatewayRetire { .. } => retires += 1,
                _ => {}
            }
        }
        assert!(elects > 0, "{p:?}: a grid protocol must elect gateways");
        assert!(
            retires <= elects,
            "{p:?}: {retires} retires but only {elects} elects"
        );
    }
}

#[test]
fn aodv_relays_trace_their_forwards() {
    // GAF and Span route over one AODV core; a host relaying another's
    // data must say so in the trace, after that packet's send, whatever
    // duty cycle the adapter runs on top
    for p in [ProtocolKind::Gaf, ProtocolKind::Span] {
        let opts = RunOptions {
            trace: Some(TraceMode::Full),
            ..RunOptions::default()
        };
        let r = run_scenario_with(&tiny(p), opts);
        let rec = r.recorder.expect("full trace kept");
        let forwards = rec
            .events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::PacketForwarded { .. }))
            .count();
        assert!(forwards > 0, "{p:?}: a multi-hop run recorded no forward");
        check_invariants(p.name(), rec.events());
    }
}

/// Drive a small world on nearly-empty batteries until everyone dies, then
/// check the energy bookkeeping end to end: per-node consumption is capped
/// by the initial capacity, and the trace shows the full downward cascade
/// (Upper → Boundary → Lower → death) for each host.
#[test]
fn drained_batteries_cascade_and_never_overdraw() {
    let capacity = 2.0; // joules — idle draw empties this in ~2 minutes
    let mut spec = Scenario {
        n_hosts: 6,
        n_flows: 0,
        duration_secs: 300.0,
        ..Scenario::paper_base(ProtocolKind::Ecgrid, 1.0, 99)
    }
    .to_spec();
    spec.groups[0].battery_j = Some(capacity);
    let cfg = world_config(&spec, &RunOptions::default());
    let mut w = fleet_world(&spec, ProtocolKind::Ecgrid, cfg, |id| {
        ecgrid::Ecgrid::new(ecgrid::EcgridConfig::default(), id)
    });
    w.enable_trace(TraceMode::Full);
    w.run_until(SimTime::from_secs(300));

    for i in 0..w.node_count() {
        let id = NodeId(i as u32);
        assert!(!w.node_alive(id), "host {i} should have drained");
        let consumed = w.node_consumed_j(id);
        assert!(
            consumed <= capacity + 1e-9,
            "host {i} consumed {consumed} J from a {capacity} J battery"
        );
    }

    let rec = w.take_recorder().expect("trace enabled");
    check_invariants("drain", rec.events());
    let mut deaths = 0;
    let mut cascades: HashMap<NodeId, Vec<EnergyLevel>> = HashMap::new();
    for ev in rec.events() {
        match ev.kind {
            EventKind::NodeDeath { .. } => deaths += 1,
            EventKind::BatteryLevel { node, to, .. } => cascades.entry(node).or_default().push(to),
            _ => {}
        }
    }
    assert_eq!(deaths, 6, "every host dies exactly once");
    for (node, steps) in &cascades {
        assert_eq!(
            steps,
            &[EnergyLevel::Boundary, EnergyLevel::Lower],
            "host {node}: full downward cascade"
        );
    }
    assert_eq!(cascades.len(), 6);
}
