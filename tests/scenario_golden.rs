//! Golden-trace regression harness for the scenario-file families.
//!
//! Every committed example under `examples/*.scn` is run under ECGRID,
//! GRID and GAF and its trace digest pinned by a fixture at
//! `tests/golden/scn_<example>_<protocol>.digest` — so behavioural drift
//! anywhere in the scenario pipeline (parser → group builders → mobility
//! models → heterogeneous world → per-group metrics) fails a diff here,
//! exactly as `tests/golden_trace.rs` does for the classic homogeneous
//! scenario.  The same runs also prove the determinism contract on the
//! new families: repeat, scheduler-backend, shard-count and thread-count
//! invariance of the digest.
//!
//! To regenerate the fixtures after a deliberate behaviour change:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test scenario_golden
//! ```

use ecgrid_suite::ecgrid::{Ecgrid, EcgridConfig};
use ecgrid_suite::gaf::GafProto;
use ecgrid_suite::grid_routing::{GridConfig, GridProto};
use ecgrid_suite::manet::{Backend, NodeId, Protocol, World};
use ecgrid_suite::runner::spec_run::{fleet_world, world_config};
use ecgrid_suite::runner::{run_spec, ProtocolKind, RunOptions};
use ecgrid_suite::scenario::{self, Role, ScenarioSpec};
use ecgrid_suite::sim_engine::SimTime;
use ecgrid_suite::span::SpanProto;
use ecgrid_suite::trace::TraceDigest;
use std::path::PathBuf;

mod common;
use common::{check_fixture, golden, golden_plan};

/// Every committed scenario example, by file stem.  Keep in sync with
/// `examples/*.scn` — `every_committed_example_has_a_fixture` fails if a
/// new example lands without joining this matrix.
const EXAMPLES: [&str; 5] = ["dense_square", "manhattan", "convoy", "hotspot", "many_to_one"];

const PROTOCOLS: [ProtocolKind; 3] = [ProtocolKind::Ecgrid, ProtocolKind::Grid, ProtocolKind::Gaf];

fn example_path(stem: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("examples")
        .join(format!("{stem}.scn"))
}

fn load(stem: &str) -> ScenarioSpec {
    let path = example_path(stem);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    scenario::parse(&text).unwrap_or_else(|e| panic!("parse {}: {e}", path.display()))
}

fn fixture_path(stem: &str, p: ProtocolKind) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("scn_{stem}_{}.digest", p.name().to_lowercase()))
}

fn digest_of(spec: &ScenarioSpec, p: ProtocolKind, opts: RunOptions) -> TraceDigest {
    run_spec(spec, p, opts).trace_digest.expect("tracing was enabled")
}

#[test]
fn every_committed_example_has_a_fixture() {
    // the acceptance bar: no .scn lands without a pinned digest
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples");
    let mut stems: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| {
            let p = e.unwrap().path();
            (p.extension().and_then(|x| x.to_str()) == Some("scn"))
                .then(|| p.file_stem().unwrap().to_str().unwrap().to_string())
        })
        .collect();
    stems.sort();
    let mut listed: Vec<String> = EXAMPLES.iter().map(|s| s.to_string()).collect();
    listed.sort();
    assert_eq!(
        stems, listed,
        "examples/*.scn and the EXAMPLES matrix diverged — add the new \
         example here so it gets golden fixtures"
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        return; // digests_match_the_scenario_fixtures writes them this run
    }
    for stem in EXAMPLES {
        for p in PROTOCOLS {
            assert!(
                fixture_path(stem, p).is_file(),
                "example {stem} has no {} fixture; run with UPDATE_GOLDEN=1",
                p.name()
            );
        }
    }
}

#[test]
fn digests_match_the_scenario_fixtures() {
    let mut mismatches = Vec::new();
    for stem in EXAMPLES {
        let spec = load(stem);
        for p in PROTOCOLS {
            let got = digest_of(&spec, p, RunOptions::digest());
            check_fixture(
                &format!("{stem}/{}", p.name()),
                &fixture_path(stem, p),
                got,
                &mut mismatches,
            );
        }
    }
    assert!(
        mismatches.is_empty(),
        "scenario golden drift (deliberate change? rerun with UPDATE_GOLDEN=1):\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn repeated_runs_of_every_family_agree() {
    for stem in EXAMPLES {
        let spec = load(stem);
        let a = digest_of(&spec, ProtocolKind::Ecgrid, RunOptions::digest());
        let b = digest_of(&spec, ProtocolKind::Ecgrid, RunOptions::digest());
        assert_eq!(a, b, "{stem}: same file must replay bit-identically");
        assert_ne!(a.0, 0, "{stem}: a non-empty run has a non-trivial digest");
    }
}

#[test]
fn scenario_digests_are_backend_invariant() {
    for stem in EXAMPLES {
        let spec = load(stem);
        for p in PROTOCOLS {
            let heap = digest_of(&spec, p, RunOptions::digest().with_backend(Backend::Heap));
            let cal = digest_of(&spec, p, RunOptions::digest().with_backend(Backend::Calendar));
            assert_eq!(
                heap,
                cal,
                "{stem}/{}: backends must schedule identically",
                p.name()
            );
        }
    }
}

#[test]
fn scenario_digests_are_shard_and_thread_invariant() {
    // The heterogeneous families on the sharded engine: mixed per-group
    // radio ranges (convoy), group-shared mobility references, bursty and
    // many-to-one traffic must all replay bit-identically at every
    // (shards, threads) — the digest-equivalence contract of DESIGN.md
    // §12/§14 extended to scenario fleets.
    for stem in EXAMPLES {
        let spec = load(stem);
        let serial = digest_of(&spec, ProtocolKind::Ecgrid, RunOptions::digest());
        for (k, t) in [(2, 1), (4, 1), (4, 4)] {
            let par = digest_of(
                &spec,
                ProtocolKind::Ecgrid,
                RunOptions::digest().with_parallel_world(k).with_threads(t),
            );
            assert_eq!(serial, par, "{stem}: K={k} T={t} diverged from serial");
        }
    }
}

#[test]
fn distinct_families_produce_distinct_digests() {
    // the families genuinely differ — no two examples collapse onto the
    // same event stream (which would mean a mobility/traffic knob is dead)
    let mut seen: Vec<(String, TraceDigest)> = Vec::new();
    for stem in EXAMPLES {
        let spec = load(stem);
        let d = digest_of(&spec, ProtocolKind::Ecgrid, RunOptions::digest());
        for (other, prev) in &seen {
            assert_ne!(d, *prev, "{stem} and {other} digested identically");
        }
        seen.push((stem.to_string(), d));
    }
}

#[test]
fn every_group_audit_accounts_for_its_consumption() {
    // the per-group half of the energy identity: a group's per-mode audit
    // sums to what its finite-battery hosts consumed, and no mode's time
    // is negative — over the golden fleets, fault-free and under the
    // golden plan, and over one scenario file's heterogeneous groups
    let mut runs = Vec::new();
    for p in ProtocolKind::ALL_EXT {
        let spec = golden(p).to_spec();
        runs.push((
            format!("golden {}", p.name()),
            run_spec(&spec, p, RunOptions::default()),
        ));
        let faulted = RunOptions::default().with_faults(golden_plan());
        runs.push((
            format!("golden {} faulted", p.name()),
            run_spec(&spec, p, faulted),
        ));
    }
    let spec = load("many_to_one");
    for p in PROTOCOLS {
        runs.push((
            format!("many_to_one {}", p.name()),
            run_spec(&spec, p, RunOptions::default()),
        ));
    }
    for (label, r) in &runs {
        for g in &r.groups {
            let (audit, consumed) = (g.stats.audit, g.stats.consumed_j);
            assert!(
                (audit.total_j() - consumed).abs() <= 1e-9 * consumed.abs(),
                "{label}/{}: audit {} J against {consumed} J consumed",
                g.name,
                audit.total_j()
            );
            for (mode, secs) in [
                ("tx", audit.tx_secs),
                ("rx", audit.rx_secs),
                ("idle", audit.idle_secs),
                ("sleep", audit.sleep_secs),
            ] {
                assert!(secs >= 0.0, "{label}/{}: {mode} time {secs} s", g.name);
            }
        }
        assert!(r.groups[0].stats.consumed_j > 0.0, "{label}: nothing consumed");
    }
}

/// Run `spec`'s fleet to its end under `opts` and check the per-host
/// half of the energy identity on every host: a finite battery's audit
/// sums to what it consumed and consumption stays within its capacity,
/// no mode's time is negative, and an infinite-battery host never dies
/// and reports a full R_brc.  Returns how many hosts ran on an infinite
/// battery.
fn check_every_host<P: Protocol>(
    label: &str,
    spec: &ScenarioSpec,
    protocol: ProtocolKind,
    opts: &RunOptions,
    make: impl FnMut(NodeId) -> P + 'static,
) -> usize {
    let mut w: World<P> = fleet_world(spec, protocol, world_config(spec, opts), make);
    w.run_until(SimTime::from_secs_f64(spec.duration_s));
    let capacities = spec.groups.iter().flat_map(|g| {
        // without variance every host of a group gets its nominal battery
        assert_eq!(g.battery_var, 0.0, "{label}/{}: capacities are nominal", g.name);
        std::iter::repeat_n(g.battery_j, g.count)
    });
    let mut finite = 0;
    for (i, capacity) in capacities.enumerate() {
        let id = NodeId(i as u32);
        let (audit, consumed) = (w.node_energy_audit(id), w.node_consumed_j(id));
        for (mode, secs) in [
            ("tx", audit.tx_secs),
            ("rx", audit.rx_secs),
            ("idle", audit.idle_secs),
            ("sleep", audit.sleep_secs),
        ] {
            assert!(secs >= 0.0, "{label}/host {i}: {mode} time {secs} s");
        }
        match capacity {
            Some(cap) => {
                finite += 1;
                assert!(
                    (audit.total_j() - consumed).abs() <= 1e-9 * consumed.abs(),
                    "{label}/host {i}: audit {} J against {consumed} J consumed",
                    audit.total_j()
                );
                assert!(
                    consumed <= cap,
                    "{label}/host {i}: consumed {consumed} J of a {cap} J battery"
                );
            }
            None => {
                assert!(w.node_alive(id), "{label}/host {i}: an infinite battery died");
                assert_eq!(w.node_rbrc(id), 1.0, "{label}/host {i}: infinite R_brc");
            }
        }
    }
    assert!(finite > 0, "{label}: no finite battery checked");
    w.node_count() - finite
}

#[test]
fn every_host_audit_accounts_for_its_consumption() {
    // the per-host half of the energy identity, over the golden fleets
    // of all four protocols, fault-free and under the golden plan
    for p in ProtocolKind::ALL_EXT {
        let spec = golden(p).to_spec();
        let endpoint: Vec<bool> = spec
            .groups
            .iter()
            .flat_map(|g| std::iter::repeat_n(g.role == Role::Endpoint, g.count))
            .collect();
        let plain = RunOptions::default();
        let faulted = RunOptions::default().with_faults(golden_plan());
        assert_eq!(faulted.faults.battery_var, 0.0, "capacities are nominal");
        for (tag, opts) in [("", &plain), (" faulted", &faulted)] {
            let label = format!("golden {}{tag}", p.name());
            let endpoint = endpoint.clone();
            let infinite = match p {
                ProtocolKind::Grid => check_every_host(&label, &spec, p, opts, |id| {
                    GridProto::new(GridConfig::default(), id)
                }),
                ProtocolKind::Ecgrid => check_every_host(&label, &spec, p, opts, |id| {
                    Ecgrid::new(EcgridConfig::default(), id)
                }),
                ProtocolKind::Gaf => check_every_host(&label, &spec, p, opts, move |id| {
                    if endpoint[id.index()] {
                        GafProto::endpoint(id)
                    } else {
                        GafProto::new(id)
                    }
                }),
                ProtocolKind::Span => check_every_host(&label, &spec, p, opts, move |id| {
                    if endpoint[id.index()] {
                        SpanProto::endpoint(id)
                    } else {
                        SpanProto::new(id)
                    }
                }),
            };
            // Model 1: GAF and Span run their endpoints on infinite
            // batteries, GRID and ECGRID meter every host
            let model1 = matches!(p, ProtocolKind::Gaf | ProtocolKind::Span);
            assert_eq!(infinite > 0, model1, "{label}: {infinite} infinite batteries");
        }
    }
}
