//! Shared helpers for the integration suites: the golden scenario, its
//! chaos plan, its fixture reader (`golden_trace` and the equivalence
//! suites) and the fixture checker both golden suites compare with, and
//! the stateful trace-invariant checker, used in
//! [`Chaos::Forbidden`] mode by `trace_invariants` (a fault-free run must
//! not even contain fault events) and in [`Chaos::Expected`] mode by
//! `chaos_invariants` (faults are part of the scenario, and the checker
//! knows how they may legally bend the rules).
#![allow(dead_code)]

use ecgrid_suite::manet::{EventKind, FaultPlan, NodeId};
use ecgrid_suite::runner::{ProtocolKind, Scenario};
use ecgrid_suite::trace::{Event, FaultKind, TraceDigest};
use ecgrid_suite::{energy, geo, sim_engine};
use energy::{EnergyLevel, RadioMode};
use geo::GridCoord;
use sim_engine::{SimDuration, SimTime};
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};

/// The canonical golden scenario: small enough to run in seconds in debug
/// builds, busy enough to exercise MAC contention, gateway churn, paging and
/// multi-hop forwarding.
pub fn golden(protocol: ProtocolKind) -> Scenario {
    Scenario {
        protocol,
        n_hosts: 30,
        max_speed: 1.0,
        pause_secs: 0.0,
        n_flows: 3,
        flow_rate_pps: 1.0,
        duration_secs: 40.0,
        seed: 11,
        model1_endpoints: 4,
    }
}

/// The fixed adversarial plan pinned by the `*_faulted.digest` fixtures.
/// Touches every major injection path: frame loss, churn and page loss.
pub fn golden_plan() -> FaultPlan {
    FaultPlan::parse("loss=0.15,churn=0.02,rejoin=3,page_fail=0.1").unwrap()
}

/// Where the committed fixture `tests/golden/<name>.digest` lives.
pub fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.digest"))
}

pub fn read_fixture(name: &str) -> TraceDigest {
    let path = fixture_path(name);
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()));
    TraceDigest::parse(&text).unwrap_or_else(|| panic!("unparseable fixture {}", path.display()))
}

/// Compare `got` with the digest fixture at `path` and push a
/// human-readable line into `mismatches` on drift; under `UPDATE_GOLDEN`,
/// rewrite the fixture instead.
pub fn check_fixture(label: &str, path: &Path, got: TraceDigest, mismatches: &mut Vec<String>) {
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, format!("{got}\n")).unwrap();
        return;
    }
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); run with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    let want = TraceDigest::parse(&text).unwrap_or_else(|| panic!("unparseable fixture {}", path.display()));
    if got != want {
        mismatches.push(format!("{label}: fixture {want}, run produced {got}"));
    }
}

/// How the checker treats events only a fault plan can produce.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Chaos {
    /// Fault-free run: any `FaultInjected` event is itself a violation,
    /// and battery levels must cascade one class at a time.
    Forbidden,
    /// Faulted run: crashes forcibly close gateway tenures, sudden drains
    /// may skip a battery class (but never go up), and page retries must
    /// stay within the configured attempt budget.
    Expected,
}

/// How long after a `GatewayHandoffTimeout` the grid must have resolved
/// (re-elected, or the reporter crashed/left) before we call it
/// black-holed.  Generous: election window + a couple of HELLO rounds.
const HANDOFF_RESOLVE_WINDOW_SECS: u64 = 5;

/// Replay `events` through every invariant checker; panic with context on
/// the first violation.
///
/// Invariants (both modes):
/// * timestamps never go backwards,
/// * every delivered (and forwarded) packet was sent first,
/// * no host transmits while its radio is asleep (or off, or dead),
/// * no unicast is addressed to its own sender (`MacTx` / `MacDrop`),
/// * gateway elect / retire strictly alternate per (node, cell) tenure,
/// * battery level classes only move downward and a node dies at most once.
///
/// Extra invariants in [`Chaos::Expected`] mode:
/// * every `PageRetry` chain terminates: attempts stay strictly below the
///   ECGRID page budget and grow one at a time per (gateway, target),
/// * no grid stays gateway-less past the grace window: every
///   `GatewayHandoffTimeout` is followed within
///   [`HANDOFF_RESOLVE_WINDOW_SECS`] by a re-election in that cell, unless the
///   cell demonstrably was not orphaned (another live tenure) or the
///   reporter itself crashed or moved away (or the trace ends first).
pub fn check_invariants(tag: &str, events: &[Event], chaos: Chaos) {
    let max_page_attempts = ecgrid_suite::ecgrid::EcgridConfig::default().max_page_attempts;
    let mut last_t = SimTime::ZERO;
    let mut sent: HashSet<(u32, u64)> = HashSet::new();
    let mut mode: HashMap<NodeId, RadioMode> = HashMap::new();
    let mut gw: HashMap<NodeId, GridCoord> = HashMap::new();
    let mut level: HashMap<NodeId, EnergyLevel> = HashMap::new();
    let mut dead: HashSet<NodeId> = HashSet::new();
    let mut retry_streak: HashMap<(NodeId, NodeId), u32> = HashMap::new();
    // (index, time, reporter, cell, cell had another live tenure at report)
    let mut handoffs: Vec<(usize, SimTime, NodeId, GridCoord, bool)> = Vec::new();

    for (i, ev) in events.iter().enumerate() {
        let at = || format!("{tag}: event #{i} at {:?}: {:?}", ev.t, ev.kind);
        assert!(ev.t >= last_t, "{}: time went backwards (last {last_t:?})", at());
        last_t = ev.t;

        match ev.kind {
            EventKind::PacketSent { flow, seq, .. } => {
                assert!(sent.insert((flow, seq)), "{}: duplicate send", at());
            }
            EventKind::PacketForwarded { flow, seq, .. } => {
                assert!(sent.contains(&(flow, seq)), "{}: forwarded before sent", at());
            }
            EventKind::PacketDelivered { flow, seq, .. } => {
                assert!(sent.contains(&(flow, seq)), "{}: delivered before sent", at());
            }
            EventKind::MacTx { node, dst, .. } => {
                assert_ne!(dst, Some(node), "{}: unicast to self", at());
                let m = mode.get(&node).copied().unwrap_or(RadioMode::Idle);
                assert!(
                    m != RadioMode::Sleep && m != RadioMode::Off,
                    "{}: transmission while the radio is {m:?}",
                    at()
                );
                assert!(!dead.contains(&node), "{}: transmission after death", at());
            }
            EventKind::MacDrop { node, dst } => {
                assert_ne!(dst, Some(node), "{}: drop of a unicast to self", at());
            }
            EventKind::RadioMode { node, from, to } => {
                let prev = mode.insert(node, to).unwrap_or(RadioMode::Idle);
                assert_eq!(prev, from, "{}: mode transition out of nowhere", at());
            }
            EventKind::GatewayElect { node, cell } => {
                assert_eq!(
                    gw.insert(node, cell),
                    None,
                    "{}: elected while already holding a gateway tenure",
                    at()
                );
            }
            EventKind::GatewayRetire { node, cell } => {
                assert_eq!(
                    gw.remove(&node),
                    Some(cell),
                    "{}: retire does not close the matching elect",
                    at()
                );
            }
            EventKind::BatteryLevel { node, from, to } => {
                let prev = level.insert(node, to).unwrap_or(EnergyLevel::Upper);
                assert_eq!(prev, from, "{}: level transition out of nowhere", at());
                match chaos {
                    Chaos::Forbidden => assert_eq!(
                        from.next_down(),
                        Some(to),
                        "{}: battery classes must cascade downward one step at a time",
                        at()
                    ),
                    // a sudden fault drain may skip a class — but the
                    // cascade still only ever points down
                    Chaos::Expected => {
                        assert!(to < from, "{}: battery class went up", at())
                    }
                }
            }
            EventKind::NodeDeath { node } => {
                assert!(dead.insert(node), "{}: node died twice", at());
            }
            EventKind::FaultInjected { node, fault } => {
                assert_eq!(
                    chaos,
                    Chaos::Expected,
                    "{}: fault event in a fault-free run",
                    at()
                );
                if fault == FaultKind::Crash {
                    // a crash truncates the tenure without a RETIRE on the
                    // air; the reboot starts from a clean slate
                    gw.remove(&node);
                }
            }
            EventKind::PageRetry {
                node,
                target,
                attempt,
            } => {
                assert_eq!(chaos, Chaos::Expected, "{}: page retry in a fault-free run", at());
                assert!(
                    (1..max_page_attempts).contains(&attempt),
                    "{}: page-retry attempt outside [1, {max_page_attempts})",
                    at()
                );
                let streak = retry_streak.entry((node, target)).or_insert(0);
                assert!(
                    attempt > *streak || attempt == 1,
                    "{}: retry chain went backwards without restarting at 1 (last {})",
                    at(),
                    *streak
                );
                *streak = attempt;
            }
            EventKind::GatewayHandoffTimeout { node, cell } => {
                assert_eq!(
                    chaos,
                    Chaos::Expected,
                    "{}: handoff timeout in a fault-free run",
                    at()
                );
                let occupied = gw.iter().any(|(n, c)| *n != node && *c == cell);
                handoffs.push((i, ev.t, node, cell, occupied));
            }
            _ => {}
        }
    }

    // Second pass: every handoff timeout must resolve within the window.
    for (i, t, node, cell, occupied) in handoffs {
        if occupied {
            continue; // the cell still had a live gateway — spurious timeout
        }
        let deadline = t + SimDuration::from_secs(HANDOFF_RESOLVE_WINDOW_SECS);
        if last_t < deadline {
            continue; // the trace ends inside the window: nothing provable
        }
        let resolved = events[i + 1..]
            .iter()
            .take_while(|ev| ev.t <= deadline)
            .any(|ev| match ev.kind {
                EventKind::GatewayElect { cell: c, .. } => c == cell,
                EventKind::FaultInjected { node: n, fault } => {
                    n == node && (fault == FaultKind::Crash || fault == FaultKind::Rejoin)
                }
                EventKind::CellChange { node: n, .. } => n == node,
                EventKind::NodeDeath { node: n } => n == node,
                _ => false,
            });
        assert!(
            resolved,
            "{tag}: grid {cell} still gateway-less {HANDOFF_RESOLVE_WINDOW_SECS} s after \
             the handoff timeout {node} reported at {t:?} (event #{i})"
        );
    }
}
