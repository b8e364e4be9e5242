//! Golden-trace regression harness.
//!
//! The trace digest is a canonical FNV-1a 64 over every semantic event of a
//! run (tag byte + fixed-width little-endian fields, see `crates/trace`).
//! These tests hold the simulator to the determinism contract:
//!
//! * the digest is a pure function of (scenario, seed) — repeated runs agree,
//! * it does not depend on the scheduler backend (binary heap vs calendar
//!   queue),
//! * it does not depend on whether replicas run serially or fanned out
//!   across threads,
//! * an all-zero fault plan is bit-for-bit invisible (zero RNG draws), a
//!   non-trivial plan is itself deterministic, and
//! * it matches the committed fixtures under `tests/golden/` — one per
//!   protocol, plus one per protocol under a fixed fault plan — so *any*
//!   behavioural drift anywhere in the stack shows up as a failing diff
//!   here.
//!
//! To regenerate the fixtures after a deliberate behaviour change:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test golden_trace
//! ```

use ecgrid_suite::manet::trace::TraceMode;
use ecgrid_suite::manet::{Backend, FaultPlan};
use ecgrid_suite::runner::{run_replicas, run_scenario_with, ProtocolKind, RunOptions};
mod common;
use common::{check_fixture, fixture_path, golden, golden_plan};

const GOLDEN_PROTOCOLS: [ProtocolKind; 4] = [
    ProtocolKind::Ecgrid,
    ProtocolKind::Grid,
    ProtocolKind::Gaf,
    ProtocolKind::Span,
];

#[test]
fn repeated_runs_produce_identical_digests() {
    for p in GOLDEN_PROTOCOLS {
        let sc = golden(p);
        let a = run_scenario_with(&sc, RunOptions::digest());
        let b = run_scenario_with(&sc, RunOptions::digest());
        let da = a.trace_digest.expect("tracing was enabled");
        let db = b.trace_digest.expect("tracing was enabled");
        assert_eq!(da, db, "{p:?}: same (scenario, seed) must replay bit-identically");
        assert_ne!(da.0, 0, "{p:?}: a non-empty run has a non-trivial digest");
    }
}

#[test]
fn digest_is_independent_of_scheduler_backend() {
    for p in GOLDEN_PROTOCOLS {
        let sc = golden(p);
        let heap = run_scenario_with(&sc, RunOptions::digest().with_backend(Backend::Heap));
        let cal = run_scenario_with(&sc, RunOptions::digest().with_backend(Backend::Calendar));
        assert_eq!(
            heap.trace_digest, cal.trace_digest,
            "{p:?}: heap and calendar backends must schedule identically"
        );
        // The digest covers semantics only — backends may differ in queue
        // profile, never in outcome.
        assert_eq!(heap.pdr, cal.pdr, "{p:?}");
        assert_eq!(heap.stats, cal.stats, "{p:?}");
    }
}

#[test]
fn digest_is_independent_of_sweep_parallelism() {
    // Replica k runs `replica_seed(sc.seed, k)` (a splitmix-derived stream,
    // so neighbouring base seeds never share replicas); fanning the
    // replicas out across rayon threads must not change any of them.
    let sc = golden(ProtocolKind::Ecgrid);
    let serial = run_replicas(&sc, 3, RunOptions::digest(), false);
    let parallel = run_replicas(&sc, 3, RunOptions::digest(), true);
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.scenario.seed, p.scenario.seed);
        assert_eq!(
            s.trace_digest, p.trace_digest,
            "seed {}: serial and parallel replicas must agree",
            s.scenario.seed
        );
    }
    // ...and distinct seeds must not collide (the digest actually varies).
    assert_ne!(serial[0].trace_digest, serial[1].trace_digest);
}

#[test]
fn full_trace_mode_digests_like_digest_only() {
    // Buffering the events for export must not perturb the digest.
    let sc = golden(ProtocolKind::Grid);
    let lean = run_scenario_with(&sc, RunOptions::digest());
    let full = run_scenario_with(
        &sc,
        RunOptions {
            trace: Some(TraceMode::Full),
            ..RunOptions::default()
        },
    );
    assert_eq!(lean.trace_digest, full.trace_digest);
    let rec = full.recorder.expect("full trace kept");
    assert_eq!(rec.count() as usize, rec.events().len());
    assert!(rec.count() > 0);
}

#[test]
fn digests_match_the_golden_fixtures() {
    let mut mismatches = Vec::new();
    for p in GOLDEN_PROTOCOLS {
        let sc = golden(p);
        let r = run_scenario_with(&sc, RunOptions::digest());
        let got = r.trace_digest.expect("tracing was enabled");
        check_fixture(
            p.name(),
            &fixture_path(&p.name().to_lowercase()),
            got,
            &mut mismatches,
        );
    }
    assert!(
        mismatches.is_empty(),
        "golden trace drift (deliberate change? rerun with UPDATE_GOLDEN=1):\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn an_all_zero_fault_plan_is_bit_for_bit_invisible() {
    // The contract `FaultPlan::none()` documents: a plan with every knob at
    // zero performs no RNG draws at all, so attaching it — even with a
    // nonzero fault seed — cannot perturb a single event.
    for p in GOLDEN_PROTOCOLS {
        let sc = golden(p);
        let base = run_scenario_with(&sc, RunOptions::digest());
        let inert = FaultPlan {
            seed: 99,
            ..FaultPlan::none()
        };
        let faulted = run_scenario_with(&sc, RunOptions::digest().with_faults(inert));
        assert_eq!(
            base.trace_digest, faulted.trace_digest,
            "{p:?}: an inert fault plan changed the digest"
        );
        assert_eq!(base.stats, faulted.stats, "{p:?}");
    }
}

#[test]
fn faulted_runs_replay_deterministically_across_backends() {
    // A *non*-trivial plan is still a pure function of (scenario, fault
    // seed): repeated runs and both scheduler backends agree exactly.
    for p in GOLDEN_PROTOCOLS {
        let sc = golden(p);
        let opts = RunOptions::digest().with_faults(golden_plan());
        let a = run_scenario_with(&sc, opts);
        let heap = run_scenario_with(&sc, opts.with_backend(Backend::Heap));
        let cal = run_scenario_with(&sc, opts.with_backend(Backend::Calendar));
        assert_eq!(a.trace_digest, heap.trace_digest, "{p:?}: faulted replay drifted");
        assert_eq!(
            heap.trace_digest, cal.trace_digest,
            "{p:?}: faulted backends disagree"
        );
        assert_eq!(heap.stats, cal.stats, "{p:?}");
        assert!(
            heap.stats.frames_lost_fault > 0 && heap.stats.crashes > 0,
            "{p:?}: the golden plan must actually engage"
        );
    }
}

#[test]
fn faulted_digests_match_the_golden_fixtures() {
    // Same regression net as the clean fixtures, but with the fixed
    // adversarial plan switched on — drift in the fault layer itself (draw
    // order, injection points, seed derivation) lands here.
    let mut mismatches = Vec::new();
    for p in GOLDEN_PROTOCOLS {
        let sc = golden(p);
        let r = run_scenario_with(&sc, RunOptions::digest().with_faults(golden_plan()));
        let got = r.trace_digest.expect("tracing was enabled");
        let label = format!("{} (faulted)", p.name());
        let path = fixture_path(&format!("{}_faulted", p.name().to_lowercase()));
        check_fixture(&label, &path, got, &mut mismatches);
    }
    assert!(
        mismatches.is_empty(),
        "faulted golden trace drift (deliberate change? rerun with UPDATE_GOLDEN=1):\n{}",
        mismatches.join("\n")
    );
}
