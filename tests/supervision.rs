//! Supervised sweep harness suite (DESIGN.md §9): panic isolation,
//! runaway watchdogs, bounded retry with quarantine, and journaled
//! checkpoint/resume.
//!
//! The failure injector here is a wrapper runner that runs the real
//! simulation and then detonates for designated scenarios/seeds — so the
//! progress probe carries genuine run state into the post-mortem, and a
//! successful retry produces a genuine result.
//!
//! The CI artifact test leaves its journal and quarantine report under
//! `target/supervision/` for upload on failure.

use ecgrid_suite::manet::FaultPlan;
use ecgrid_suite::runner::supervisor::{
    run_point, sweep_supervised, sweep_supervised_with, FailureKind, SupervisorConfig,
};
use ecgrid_suite::runner::{
    average_results, average_results_degraded, replica_seed, run_replicas, run_scenario_probed,
    AveragedResult, ProtocolKind, RunOptions, Scenario,
};
use ecgrid_suite::service::fsutil::write_atomic_durable;
use ecgrid_suite::sim_engine::derive_seed;
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::Once;

/// The probe parameter every [`ScenarioRunner`] closure receives.
type Probe = Option<std::sync::Arc<ecgrid_suite::manet::ProgressProbe>>;

/// Quiet the default "thread panicked" stderr chatter from the injected
/// panics this suite catches by design (only affects this test binary).
fn quiet_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        std::panic::set_hook(Box::new(|_| {}));
    });
}

fn tiny(seed: u64, n_hosts: usize) -> Scenario {
    Scenario {
        protocol: ProtocolKind::Ecgrid,
        n_hosts,
        max_speed: 1.0,
        pause_secs: 0.0,
        n_flows: 2,
        flow_rate_pps: 1.0,
        duration_secs: 30.0,
        seed,
        model1_endpoints: 2,
    }
}

fn artifacts_dir() -> PathBuf {
    let dir = PathBuf::from("target/supervision");
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn assert_bits_eq(a: &AveragedResult, b: &AveragedResult) {
    let opt = |v: Option<f64>| v.map(f64::to_bits);
    assert_eq!(opt(a.pdr), opt(b.pdr), "pdr bits differ");
    assert_eq!(opt(a.latency_ms), opt(b.latency_ms), "latency bits differ");
    assert_eq!(opt(a.pdr_590), opt(b.pdr_590));
    assert_eq!(opt(a.latency_ms_590), opt(b.latency_ms_590));
    assert_eq!(opt(a.network_death_s), opt(b.network_death_s));
    assert_eq!(opt(a.pdr_sd), opt(b.pdr_sd));
    assert_eq!(opt(a.latency_sd), opt(b.latency_sd));
    assert_eq!(a.replicas, b.replicas);
    for (s1, s2) in [(&a.alive, &b.alive), (&a.aen, &b.aen)] {
        assert_eq!(s1.len(), s2.len(), "series lengths differ");
        for (p, q) in s1.points().iter().zip(s2.points()) {
            assert_eq!(p.t_secs.to_bits(), q.t_secs.to_bits());
            assert_eq!(p.value.to_bits(), q.value.to_bits());
        }
    }
}

#[test]
fn panicking_scenario_quarantines_while_healthy_ones_average() {
    quiet_panics();
    let healthy = tiny(7, 12);
    let bomb = tiny(7, 13); // 13 hosts marks the bomb scenario
    let runner = |sc: &Scenario, o: RunOptions, p: Probe| {
        let r = run_scenario_probed(sc, o, p);
        if sc.n_hosts == 13 {
            panic!("bomb: injected failure at seed {}", sc.seed);
        }
        r
    };
    let sup = SupervisorConfig::default().with_max_retries(1);
    let report = sweep_supervised_with(&[healthy, bomb], 2, RunOptions::default(), &sup, &runner);

    // the healthy scenario averaged; the bomb scenario is fully quarantined
    assert_eq!(report.averaged.len(), 1);
    assert_eq!(report.averaged[0].scenario.n_hosts, 12);
    assert!(!report.averaged[0].is_degraded());
    assert_eq!(report.quarantined.len(), 2, "both bomb replicas quarantined");
    for q in &report.quarantined {
        assert_eq!(q.scenario.n_hosts, 13);
        // first try + one retry, each on its own recorded seed
        assert_eq!(q.failures.len(), 2);
        assert_ne!(q.failures[0].seed, q.failures[1].seed);
        for f in &q.failures {
            assert!(matches!(&f.kind, FailureKind::Panic(m) if m.contains("bomb")));
            // the probe survived the panic with real progress in it
            assert!(f.events_processed > 0, "probe lost progress: {f}");
            assert!(f.virtual_time_s > 0.0);
        }
    }
    // isolation did not distort the healthy average: bit-identical to
    // averaging the same replicas run directly — an oracle that never
    // enters the supervisor (`sweep` itself is the supervised pipeline)
    let direct = average_results(&run_replicas(&healthy, 2, RunOptions::default(), false)).unwrap();
    assert_bits_eq(&report.averaged[0], &direct);
    let rendered = report.render();
    assert!(rendered.contains("QUARANTINED"), "{rendered}");
}

#[test]
fn flaky_point_recovers_on_rederived_retry_seed() {
    quiet_panics();
    let sc = tiny(11, 12);
    // detonate only on the replicas' identity seeds: every first attempt
    // fails, every retry (different seed) succeeds
    let identity: HashSet<u64> = (0..2).map(|k| replica_seed(sc.seed, k)).collect();
    let runner = move |job: &Scenario, o: RunOptions, p: Probe| {
        let r = run_scenario_probed(job, o, p);
        if identity.contains(&job.seed) {
            panic!("flaky: first-attempt failure");
        }
        r
    };
    let sup = SupervisorConfig::default().with_max_retries(2);
    let report = sweep_supervised_with(&[sc], 2, RunOptions::default(), &sup, &runner);
    assert!(report.quarantined.is_empty());
    assert_eq!(report.recovered, 2, "both replicas recovered via retry");
    assert_eq!(report.failures.len(), 2, "one recorded failure per replica");
    assert_eq!(report.averaged.len(), 1);
    assert_eq!(report.averaged[0].replicas, 2);
}

#[test]
fn runaway_replica_is_stopped_by_the_event_budget() {
    // a real run with a watchdog ceiling far below what the scenario
    // needs: the supervisor must terminate it (not hang) and quarantine
    // with the budget diagnostic
    let sc = tiny(3, 12);
    let limit = 500u64;
    let sup = SupervisorConfig::default().with_max_retries(1);
    let opts = RunOptions::default().with_event_budget(Some(limit));
    let report = sweep_supervised(&[sc], 1, opts, &sup);
    assert!(report.averaged.is_empty());
    assert_eq!(report.quarantined.len(), 1);
    let q = &report.quarantined[0];
    assert_eq!(q.failures.len(), 2);
    for f in &q.failures {
        assert!(matches!(f.kind, FailureKind::Budget(_)), "unexpected: {f}");
        // the budget check runs after each dispatch, so the run stops on
        // the first event past the ceiling
        assert!(f.events_processed <= limit + 1, "{}", f.events_processed);
        assert!(f.events_processed > 0);
    }
}

#[test]
fn partial_replica_failure_degrades_the_average() {
    quiet_panics();
    let sc = tiny(19, 12);
    // exactly one replica detonates, on every attempt — retries re-derive
    // from the identity seed, so the kill set covers those seeds too.
    // Replica 0 is the one that runs the point's own base seed.
    for dead in [1u64, 0] {
        let bad_seed = replica_seed(sc.seed, dead);
        let mut bad: HashSet<u64> = HashSet::new();
        bad.insert(bad_seed);
        for a in 1..=2u64 {
            bad.insert(derive_seed(bad_seed, "retry", a));
        }
        let runner = move |job: &Scenario, o: RunOptions, p: Probe| {
            let r = run_scenario_probed(job, o, p);
            if bad.contains(&job.seed) {
                panic!("replica {dead} always fails");
            }
            r
        };
        let sup = SupervisorConfig::default().with_max_retries(2);
        let report = sweep_supervised_with(&[sc], 3, RunOptions::default(), &sup, &runner);
        assert_eq!(report.quarantined.len(), 1);
        assert_eq!(report.quarantined[0].replica, dead);
        let avg = &report.averaged[0];
        assert_eq!(avg.replicas, 2, "two of three replicas contributed");
        assert_eq!(avg.replicas_requested, 3);
        assert!(avg.is_degraded());
        // whichever replicas survive, the average echoes the point asked for
        assert_eq!(avg.scenario.seed, sc.seed);
        // the degraded average equals averaging the two survivors directly
        let survivors: Vec<_> = report.replicas.clone();
        assert_eq!(survivors.len(), 2);
        let direct = average_results_degraded(&survivors, 3).unwrap();
        assert_bits_eq(avg, &direct);
    }
}

#[test]
fn journal_resume_reproduces_fresh_results_bit_for_bit() {
    let scenarios = [tiny(23, 12), tiny(29, 14)];
    let replicas = 2;
    let opts = RunOptions::digest(); // digests on, so resume must preserve them
    let sup = SupervisorConfig::default();

    // ground truth: one uninterrupted, unjournaled supervised sweep
    let fresh = sweep_supervised(&scenarios, replicas, opts, &sup);
    assert_eq!(fresh.completed, 4);
    assert!(fresh.replicas.iter().all(|r| r.digest.is_some()));

    // simulate a sweep killed partway: only the first scenario's replicas
    // made it into the journal
    let dir = artifacts_dir().join("resume_test");
    let _ = std::fs::remove_dir_all(&dir);
    let journal = dir.join("journal.jsonl");
    let sup_j = sup.clone().with_journal(journal.clone());
    let partial = sweep_supervised(&scenarios[..1], replicas, opts, &sup_j);
    assert_eq!(partial.completed, 2);
    assert!(journal.exists());

    // sabotage the tail the way a kill mid-append would: a truncated line
    let body = std::fs::read_to_string(&journal).unwrap();
    let truncated = &body[..body.len() - 40];
    std::fs::write(&journal, format!("{truncated}\n")).unwrap();

    // resume the full grid: scenario 0 replica 0 loads from the journal,
    // the truncated record and all of scenario 1 rerun
    let resumed = sweep_supervised(&scenarios, replicas, opts, &sup_j);
    assert_eq!(resumed.from_journal, 1, "one intact journal record reused");
    assert_eq!(resumed.malformed_journal_lines, 1, "truncated line detected");
    assert_eq!(resumed.completed, 3, "the rest ran fresh");
    assert!(resumed.quarantined.is_empty());

    // bit-identical to the uninterrupted run: averages...
    assert_eq!(resumed.averaged.len(), fresh.averaged.len());
    for (a, b) in resumed.averaged.iter().zip(&fresh.averaged) {
        assert_bits_eq(a, b);
    }
    // ...and per-replica trace digests
    let digests = |r: &ecgrid_suite::runner::SweepReport| {
        r.replicas
            .iter()
            .map(|x| (x.scenario.n_hosts, x.replica, x.digest))
            .collect::<Vec<_>>()
    };
    assert_eq!(digests(&resumed), digests(&fresh));

    // a second resume does no work at all and still matches
    let warm = sweep_supervised(&scenarios, replicas, opts, &sup_j);
    assert_eq!(warm.completed, 0);
    assert_eq!(warm.from_journal, 4);
    for (a, b) in warm.averaged.iter().zip(&fresh.averaged) {
        assert_bits_eq(a, b);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn run_point_preserves_every_attempted_seed_for_replay() {
    quiet_panics();
    let sc = tiny(31, 12);
    let runner = |job: &Scenario, o: RunOptions, p: Probe| {
        let _ = run_scenario_probed(job, o, p);
        panic!("always: seed {}", job.seed)
    };
    let sup = SupervisorConfig::default().with_max_retries(2);
    let out = run_point(&runner, &sc, RunOptions::default(), &sup);
    assert!(out.result.is_none());
    assert_eq!(out.failures.len(), 3);
    // the recorded seeds are exactly the attempted ones, in order
    assert_eq!(out.failures[0].seed, sc.seed);
    for (i, f) in out.failures.iter().enumerate() {
        assert_eq!(f.attempt, i as u32);
        assert!(
            matches!(&f.kind, FailureKind::Panic(m) if m.contains(&f.seed.to_string())),
            "failure message should carry the seed that ran: {f}"
        );
    }
}

/// CI runs this test by name: a small supervised sweep with an injected
/// panic AND an active chaos fault plan.  It asserts the quarantine
/// report and leaves `target/supervision/{journal.jsonl,quarantine_report.txt}`
/// for artifact upload.
#[test]
fn ci_supervised_sweep_with_chaos_faults_and_injected_panic() {
    quiet_panics();
    let healthy = tiny(41, 12);
    let bomb = tiny(41, 13);
    let faults = FaultPlan::parse("loss=0.05,churn=0.005").expect("chaos plan");
    let opts = RunOptions::default().with_faults(faults);
    let runner = |sc: &Scenario, o: RunOptions, p: Probe| {
        let r = run_scenario_probed(sc, o, p);
        if sc.n_hosts == 13 {
            panic!("bomb: injected failure under chaos plan");
        }
        r
    };
    let dir = artifacts_dir();
    let journal = dir.join("journal.jsonl");
    let _ = std::fs::remove_file(&journal);
    let sup = SupervisorConfig::default()
        .with_max_retries(1)
        .with_journal(journal.clone());
    let report = sweep_supervised_with(&[healthy, bomb], 2, opts, &sup, &runner);

    let rendered = report.render();
    write_atomic_durable(&dir.join("quarantine_report.txt"), rendered.as_bytes()).unwrap();

    assert_eq!(report.quarantined.len(), 2, "{rendered}");
    assert_eq!(report.averaged.len(), 1, "healthy chaos scenario averaged");
    assert!(rendered.contains("QUARANTINED"));
    assert!(journal.exists(), "journal checkpoint written");
    // only successful replicas are journaled — never the quarantined ones
    let body = std::fs::read_to_string(&journal).unwrap();
    assert_eq!(body.lines().count(), 2, "{body}");
}

#[test]
fn journal_survives_garbage_bytes_and_dedupes_duplicate_entries() {
    let sc = tiny(43, 12);
    let opts = RunOptions::digest();
    let dir = artifacts_dir().join("journal_hardening");
    let _ = std::fs::remove_dir_all(&dir);
    let journal = dir.join("journal.jsonl");
    let sup = SupervisorConfig::default().with_journal(journal.clone());

    let fresh = sweep_supervised(&[sc], 2, opts, &sup);
    assert_eq!(fresh.completed, 2);

    // corrupt the file the way a disk hiccup would: raw invalid-UTF-8
    // garbage splattered between the records, plus a full duplicate of
    // the first record (as if a resumed sweep double-appended)
    let body = std::fs::read(&journal).unwrap();
    let text = String::from_utf8(body.clone()).unwrap();
    let first_line = text.lines().next().unwrap().to_string();
    let mut sabotaged: Vec<u8> = Vec::new();
    sabotaged.extend_from_slice(&[0xff, 0xfe, 0x00, 0x80, b'\n']);
    sabotaged.extend_from_slice(&body);
    sabotaged.extend_from_slice(b"\xc3\x28 not json either\n");
    sabotaged.extend_from_slice(first_line.as_bytes());
    sabotaged.extend_from_slice(b"\n");
    std::fs::write(&journal, &sabotaged).unwrap();

    // the resume still reuses both real records, reruns nothing, counts
    // the two garbage lines and the duplicate as anomalies, and matches
    // the fresh run bit for bit
    let resumed = sweep_supervised(&[sc], 2, opts, &sup);
    assert_eq!(resumed.completed, 0, "no rerun despite the corruption");
    assert_eq!(resumed.from_journal, 2);
    assert_eq!(
        resumed.malformed_journal_lines, 3,
        "two garbage lines + one duplicate entry"
    );
    assert!(resumed.quarantined.is_empty());
    for (a, b) in resumed.averaged.iter().zip(&fresh.averaged) {
        assert_bits_eq(a, b);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_unopenable_journal_fails_the_sweep_up_front_with_a_typed_error() {
    // a journal path whose parent is a regular file: ENOTDIR whoever asks,
    // root included
    let dir = artifacts_dir().join("unopenable_journal");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("plain_file");
    std::fs::write(&file, b"not a directory").unwrap();
    let journal = file.join("x.jsonl");
    let ran = std::sync::atomic::AtomicUsize::new(0);
    let runner = |sc: &Scenario, o: RunOptions, p: Probe| {
        ran.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        run_scenario_probed(sc, o, p)
    };
    let sup = SupervisorConfig::default().with_journal(journal.clone());
    let report = sweep_supervised_with(&[tiny(53, 12)], 2, RunOptions::default(), &sup, &runner);
    let err = report.journal_error.as_ref().expect("typed journal error");
    assert_eq!(err.path, journal);
    assert!(err.to_string().starts_with("journal: "), "{err}");
    assert_eq!(
        ran.into_inner(),
        0,
        "nothing may run without the checkpoint it was asked for"
    );
    assert!(report.averaged.is_empty() && report.replicas.is_empty());
    assert_eq!((report.completed, report.from_journal), (0, 0));
    assert!(report.render().contains("journal: "), "{}", report.render());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wall_budget_terminates_a_pathological_replica_and_quarantines_it() {
    // a scenario far too big to finish in 30ms of wall time: the wall
    // watchdog must stop it promptly (not pin the worker) and quarantine
    // with the wall-specific diagnostic; no retry, because wall trips are
    // non-deterministic and must never burn the retry budget
    let sc = tiny(47, 40);
    let big = Scenario {
        duration_secs: 10_000.0,
        ..sc
    };
    let sup = SupervisorConfig::default().with_max_retries(0);
    let opts = RunOptions::default().with_wall_budget_ms(Some(30));
    let start = std::time::Instant::now();
    let report = sweep_supervised(&[big], 1, opts, &sup);
    assert!(
        start.elapsed() < std::time::Duration::from_secs(30),
        "watchdog failed to stop the run promptly"
    );
    assert!(report.averaged.is_empty());
    assert_eq!(report.quarantined.len(), 1);
    let f = &report.quarantined[0].failures[0];
    match &f.kind {
        FailureKind::Budget(b) => {
            let msg = b.to_string();
            assert!(msg.contains("wall"), "wrong exit reason: {msg}");
        }
        other => panic!("expected a budget failure, got {other:?}"),
    }
    assert!(f.events_processed > 0, "the run made real progress first");
}
