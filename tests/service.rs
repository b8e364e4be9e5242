//! Chaos-client acceptance suite for the resident sweep service
//! (DESIGN.md §13): real `sweepd` semantics — a [`Server`] over the real
//! [`EcgridJobHandler`] — attacked the ways production clients fail.
//!
//! * a client killed mid-stream must leave the server healthy and the
//!   job running to completion;
//! * submissions past the admission bound are shed with a retry hint,
//!   never queued unboundedly, never hung;
//! * a graceful drain mid-sweep followed by a restart must resume the
//!   interrupted job from its journal checkpoint and reproduce the
//!   uninterrupted averaged results bit for bit;
//! * a subscriber too slow to keep up loses frames (counted in its
//!   `bye`) — but never stalls the simulation or perturbs its digest;
//! * a subscriber with room for the whole run receives every event of
//!   every replica, byte for byte and in order, ahead of that replica's
//!   outcome frames;
//! * a classic `submit` past the scenario parser's bounds, or any asking
//!   for more replicas than one job may, is refused at the door, and a
//!   journal that cannot be opened ends the job with an error, and a
//!   manifest that cannot be written refuses the submit — the server
//!   answers `ping` and `status` through all three;
//! * a server reads its journal once: a later job resumes from the lines
//!   earlier jobs appended, and `result` answers from memory.
//!
//! Timing discipline: the tiny scenarios here complete in milliseconds,
//! faster than a TCP subscription can attach.  Tests that must observe a
//! job *while it runs* therefore use a single-worker server and park a
//! larger "filler" job in front of the target, subscribing while the
//! target is still queued — deterministic, no sleeps against the race.

use ecgrid_suite::runner::supervisor::SupervisorConfig;
use ecgrid_suite::runner::{
    run_scenario_with, EcgridJobHandler, ProtocolKind, RunOptions, Scenario, ScenarioResult,
};
use ecgrid_suite::service::proto::{FilterSpec, JobSpec, Request};
use ecgrid_suite::service::{json, Client, ClientConfig, ClientError, DoneInfo, Server, ServiceConfig};
use ecgrid_suite::trace::TraceMode;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Milliseconds of wall in a debug build, yet thousands of trace frames —
/// plenty to stress a bounded subscriber buffer.
fn tiny_spec(seed: u64, replicas: u64) -> JobSpec {
    JobSpec {
        n_hosts: 12,
        duration_secs: 15.0,
        n_flows: 2,
        model1_endpoints: 2,
        seed,
        replicas,
        ..JobSpec::default()
    }
}

/// A job big enough to hold a single worker busy while a test attaches a
/// subscription to the job queued behind it.
fn filler_spec() -> JobSpec {
    JobSpec {
        n_hosts: 50,
        duration_secs: 600.0,
        n_flows: 2,
        model1_endpoints: 2,
        seed: 77,
        replicas: 1,
        ..JobSpec::default()
    }
}

/// The drain test's job: replicas of 15–20 ms each in a release build,
/// against the millisecond or so a streamed frame takes to reach the
/// client, so a drain requested on the first event lands long before the
/// last replica starts.
fn drain_spec() -> JobSpec {
    JobSpec {
        duration_secs: 600.0,
        ..tiny_spec(9, 4)
    }
}

fn state_path(name: &str) -> PathBuf {
    PathBuf::from("target/service_test").join(name)
}

fn state_dir(name: &str) -> PathBuf {
    let dir = state_path(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start_server(dir: &str, cfg: ServiceConfig) -> Server {
    let handler = Arc::new(EcgridJobHandler::new(
        RunOptions::default(),
        SupervisorConfig::default(),
    ));
    Server::start(
        cfg.with_addr("127.0.0.1:0").with_state_dir(state_dir(dir)),
        handler,
    )
    .expect("server start")
}

fn connect(server: &Server) -> Client {
    let cfg = ClientConfig::default()
        .with_addr(server.local_addr().to_string())
        .with_backoff(5, 100, 1);
    Client::connect(cfg).expect("client connect")
}

/// Raw subscription socket: sends the subscribe request and returns the
/// connected stream (reply and frames unread).
fn raw_subscribe(server: &Server, job: u64, filter: FilterSpec) -> TcpStream {
    let mut sock = TcpStream::connect(server.local_addr()).unwrap();
    let sub = Request::Subscribe { job, filter };
    writeln!(sock, "{}", sub.encode()).unwrap();
    sock
}

/// Poll job status until it reaches a terminal state.
fn await_terminal(client: &mut Client, job: u64, deadline: Duration) -> String {
    let start = Instant::now();
    loop {
        let st = client
            .request_idempotent(&Request::Status { job: Some(job) })
            .expect("status");
        let state = json::field(&st, "state").unwrap_or("?").to_string();
        if state != "queued" && state != "running" {
            return state;
        }
        assert!(start.elapsed() < deadline, "job {job} stuck in {state}");
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn killed_client_mid_stream_leaves_the_server_healthy() {
    let server = start_server("killed_client", ServiceConfig::default().with_workers(1));
    let mut client = connect(&server);
    client.submit_until_accepted(&filler_spec(), 0).expect("filler");
    let (job, _) = client.submit_until_accepted(&tiny_spec(3, 1), 0).expect("submit");

    // a raw subscriber that reads a few frames and then dies without so
    // much as a goodbye — the way a Ctrl-C'd terminal client does
    {
        let sock = raw_subscribe(&server, job, FilterSpec::default());
        sock.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
        let mut reader = BufReader::new(sock);
        let mut line = String::new();
        for _ in 0..5 {
            line.clear();
            reader.read_line(&mut line).unwrap();
        }
        // dropped here, mid-stream
    }

    // the sim is unperturbed: the job completes and the server still
    // answers on fresh connections
    assert_eq!(await_terminal(&mut client, job, Duration::from_secs(120)), "done");
    let pong = client
        .request_idempotent(&Request::Ping)
        .expect("ping after kill");
    assert_eq!(json::field(&pong, "pong"), Some("sweepd"));
    let stats = client.request_idempotent(&Request::Stats).expect("stats");
    assert_eq!(json::u64_field(&stats, "completed"), Some(2));

    server.request_shutdown();
    server.wait();
}

#[test]
fn submissions_past_the_admission_bound_are_shed_not_queued() {
    // one worker, a queue of one: the third concurrent submission must
    // be shed with the configured hint, and the reply must be immediate
    let server = start_server(
        "shed",
        ServiceConfig::default()
            .with_workers(1)
            .with_capacity(1)
            .with_retry_after_ms(123),
    );
    let mut client = connect(&server);

    let (running, _) = client.submit_until_accepted(&filler_spec(), 0).expect("first");
    // wait until the worker picked it up, so the queue is empty again
    let start = Instant::now();
    loop {
        let st = client
            .request_idempotent(&Request::Status { job: Some(running) })
            .unwrap();
        if json::field(&st, "state") == Some("running") {
            break;
        }
        assert!(start.elapsed() < Duration::from_secs(30), "job never started");
        std::thread::sleep(Duration::from_millis(10));
    }
    // fills the queue slot
    client.submit_until_accepted(&tiny_spec(6, 1), 0).expect("queued");

    // past the bound: shed, immediately, with the server's hint
    let t = Instant::now();
    match client.submit(&tiny_spec(7, 1)).expect("exchange") {
        ecgrid_suite::service::SubmitOutcome::Shed { retry_after_ms } => {
            assert_eq!(retry_after_ms, 123);
        }
        other => panic!("expected shed, got {other:?}"),
    }
    assert!(t.elapsed() < Duration::from_secs(5), "shed reply must not block");
    let stats = client.request_idempotent(&Request::Stats).unwrap();
    assert_eq!(json::u64_field(&stats, "shed"), Some(1));

    server.request_shutdown();
    server.wait();
}

fn digests_and_bits(info: &DoneInfo) -> (Vec<String>, Option<u64>, Option<u64>) {
    (
        info.digests.clone(),
        info.pdr.map(f64::to_bits),
        info.latency_ms.map(f64::to_bits),
    )
}

#[test]
fn drain_mid_sweep_then_restart_resumes_bit_for_bit() {
    let spec = drain_spec();

    // ground truth: the same job on an uninterrupted server
    let baseline = {
        let server = start_server("resume_baseline", ServiceConfig::default());
        let mut client = connect(&server);
        let (job, _) = client.submit_until_accepted(&spec, 0).expect("submit");
        let info = client
            .stream_job(job, &FilterSpec::default(), |_| {})
            .expect("stream");
        server.request_shutdown();
        server.wait();
        assert_eq!(info.completed, 4);
        info
    };

    // run 1: drain mid-sweep.  The filler keeps the single worker busy
    // while the subscription attaches to the queued target; the drain
    // fires on the target's first live event, i.e. during replica 0 —
    // the flag is only checked between replicas, so replica 0 still
    // finishes into the journal and at least the last replica is left to
    // resume (`drain_spec` makes the replicas long enough for that).
    let cfg = || {
        ServiceConfig::default()
            .with_workers(1)
            .with_state_dir("target/service_test/resume_drained")
    };
    let _ = std::fs::remove_dir_all("target/service_test/resume_drained");
    let interrupted_job;
    {
        let handler = Arc::new(EcgridJobHandler::new(
            RunOptions::default(),
            SupervisorConfig::default(),
        ));
        let server = Server::start(cfg().with_addr("127.0.0.1:0"), handler).unwrap();
        let mut client = connect(&server);
        client.submit_until_accepted(&filler_spec(), 0).expect("filler");
        let (job, _) = client.submit_until_accepted(&spec, 0).expect("submit");
        interrupted_job = job;
        let handle = server.handle();
        let info = client
            .stream_job(job, &FilterSpec::default(), |frame| {
                if json::field(frame, "stream") == Some("event") {
                    handle.request_shutdown();
                }
            })
            .expect("stream through drain");
        let summary = server.wait();
        assert_eq!(summary.submitted, 2);
        assert_eq!(info.state, Some(ecgrid_suite::service::JobState::Interrupted));
        assert!(info.completed >= 1, "replica 0 checkpointed before the drain");
        assert!(info.completed < 4, "the drain interrupted real work");
    }

    // run 2: a fresh process over the same state dir recovers the
    // interrupted job from its manifest and finishes it — journaled
    // replicas load, the rest run fresh, and the averaged result is
    // bit-identical to the uninterrupted baseline
    {
        let handler = Arc::new(EcgridJobHandler::new(
            RunOptions::default(),
            SupervisorConfig::default(),
        ));
        let server = Server::start(cfg().with_addr("127.0.0.1:0"), handler).unwrap();
        let mut client = connect(&server);
        let info = client
            .stream_job(interrupted_job, &FilterSpec::default(), |_| {})
            .expect("stream resumed");
        let summary = {
            server.request_shutdown();
            server.wait()
        };
        assert_eq!(summary.recovered, 1, "manifest rescan requeued the job");
        assert_eq!(info.completed, 4);
        assert!(info.from_journal >= 1, "checkpointed replicas were reused");
        assert!(info.from_journal < 4, "the drain left real work to resume");
        assert_eq!(digests_and_bits(&info), digests_and_bits(&baseline));
    }
}

/// A streamed frame that reports a replica's outcome, as the tests
/// below read it.
struct OutcomeFrame {
    /// `failure`, `metric` or `replica_done`.
    stream: String,
    replica: u64,
    /// A metric's name (empty otherwise) and value: a counter's count, a
    /// gauge's bit pattern.
    name: String,
    value: u64,
}

fn outcome_frame(frame: &str) -> Option<OutcomeFrame> {
    let stream = json::field(frame, "stream")?;
    if !["failure", "metric", "replica_done"].contains(&stream) {
        return None;
    }
    let value = match json::field(frame, "kind") {
        Some("counter") => json::u64_field(frame, "value")?,
        Some("gauge") => json::hex_field(frame, "bits")?,
        _ => 0,
    };
    Some(OutcomeFrame {
        stream: stream.to_string(),
        replica: json::u64_field(frame, "replica")?,
        name: json::field(frame, "name").unwrap_or("").to_string(),
        value,
    })
}

/// What the handler reports about a finished replica, read off a direct
/// run of the same seed.
fn metrics_of(r: &ScenarioResult) -> BTreeMap<String, u64> {
    let mut m = BTreeMap::new();
    m.insert("app.sent".to_string(), r.ledger.sent_count());
    m.insert("app.delivered".to_string(), r.ledger.delivered_count());
    m.insert(
        "trace.events".to_string(),
        r.recorder.as_ref().expect("digest runs record").count(),
    );
    let gauges = [
        ("app.pdr", r.pdr),
        ("app.latency_ms", r.latency_ms),
        ("energy.network_death_s", r.network_death_s),
    ];
    for (name, v) in gauges {
        m.extend(v.map(|v| (name.to_string(), v.to_bits())));
    }
    for g in &r.groups {
        m.insert(format!("group.{}.sent", g.name), g.sent);
        m.insert(format!("group.{}.delivered", g.name), g.delivered);
        m.insert(
            format!("group.{}.alive_fraction", g.name),
            g.stats.alive_fraction().to_bits(),
        );
        m.insert(format!("group.{}.aen", g.name), g.stats.aen().to_bits());
    }
    m
}

/// Replica `k`'s outcome frames arrived as `failure* metric+ replica_done`
/// and its metrics carry exactly the values of `local`, a direct run.
fn assert_replica_frames_match(frames: &[OutcomeFrame], k: u64, local: &ScenarioResult) {
    let mine: Vec<&OutcomeFrame> = frames.iter().filter(|f| f.replica == k).collect();
    let kinds: Vec<&str> = mine.iter().map(|f| f.stream.as_str()).collect();
    let failures = kinds.iter().take_while(|s| **s == "failure").count();
    let metrics = kinds[failures..].iter().take_while(|s| **s == "metric").count();
    assert!(metrics >= 1, "replica {k}: no metric frames in {kinds:?}");
    assert_eq!(
        kinds[failures + metrics..],
        ["replica_done"],
        "replica {k}: not failure* metric+ replica_done: {kinds:?}"
    );
    let streamed: BTreeMap<String, u64> = mine
        .iter()
        .filter(|f| f.stream == "metric")
        .map(|f| (f.name.clone(), f.value))
        .collect();
    assert_eq!(streamed.len(), metrics, "replica {k}: a metric name came twice");
    assert_eq!(
        streamed,
        metrics_of(local),
        "replica {k}: streamed metrics vs a direct run"
    );
}

#[test]
fn scenario_file_jobs_run_with_per_group_metrics_and_local_digest_parity() {
    // a small heterogeneous fleet: metered waypoint walkers sourcing
    // many-to-one traffic into an infinite-battery sink group
    const TEXT: &str = r#"
[scenario]
name = "svc-field"
duration_s = 15
seed = 21

[[group]]
name = "walkers"
count = 10
mobility = "waypoint"
max_speed = 1.0
role = "source"

[[group]]
name = "collectors"
count = 2
mobility = "stationary"
role = "endpoint"

[traffic]
pattern = "many_to_one"
flows = 2
rate_pps = 1.0
"#;
    let server = start_server("scenario_job", ServiceConfig::default().with_workers(1));
    let mut client = connect(&server);
    let spec = JobSpec {
        scenario: TEXT.into(),
        replicas: 2,
        ..JobSpec::default()
    };
    // Stream a job to completion, keeping its replica-outcome frames.
    // A filler holds the single worker while the subscription attaches (a
    // replica of these jobs finishes faster than that — module docs), and
    // the subscription asks for app-layer events only: metric frames
    // bypass event filters, and an unfiltered stream outruns the
    // subscriber's bounded buffer, which sheds frames of either kind.
    let app_only = FilterSpec {
        layers: "app".into(),
        ..FilterSpec::default()
    };
    // Each filler takes a seed of its own: one the journal already holds
    // is read back at once and holds the worker for no time at all.
    let mut fillers = 0;
    let mut outcome_frames = |spec: &JobSpec| {
        fillers += 1;
        let filler = JobSpec {
            seed: filler_spec().seed + fillers,
            ..filler_spec()
        };
        client.submit_until_accepted(&filler, 0).expect("filler");
        let (job, _) = client.submit_until_accepted(spec, 0).expect("submit");
        let mut frames: Vec<OutcomeFrame> = Vec::new();
        let info = client
            .stream_job(job, &app_only, |frame| frames.extend(outcome_frame(frame)))
            .expect("stream");
        (info, frames)
    };
    let metric_names = |frames: &[OutcomeFrame]| -> Vec<String> {
        let metrics = frames.iter().filter(|f| f.stream == "metric");
        metrics.map(|f| f.name.clone()).collect()
    };
    let (info, frames) = outcome_frames(&spec);
    let names = metric_names(&frames);
    let group_metrics: Vec<&String> = names.iter().filter(|n| n.starts_with("group.")).collect();
    assert_eq!(info.state, Some(ecgrid_suite::service::JobState::Done));
    assert_eq!(info.completed, 2);
    assert_eq!(info.digests.len(), 2);

    // per-group labels flowed into the metric stream, for every replica
    for name in [
        "group.walkers.sent",
        "group.walkers.aen",
        "group.collectors.delivered",
        "group.collectors.alive_fraction",
    ] {
        assert_eq!(
            group_metrics.iter().filter(|n| **n == name).count(),
            2,
            "metric {name} once per replica: {group_metrics:?}"
        );
    }

    // a classic job runs as a lowered fleet too (GAF: relays + endpoints),
    // but its frames stay what they always were: no group labels
    let classic = JobSpec {
        protocol: "gaf".into(),
        ..tiny_spec(5, 1)
    };
    let (classic_info, classic_frames) = outcome_frames(&classic);
    let classic_names = metric_names(&classic_frames);
    assert_eq!(classic_info.completed, 1);
    assert!(classic_names.iter().any(|n| n == "app.sent"), "{classic_names:?}");
    assert!(
        !classic_names.iter().any(|n| n.starts_with("group.")),
        "classic job leaked group metrics: {classic_names:?}"
    );

    // replica digests match a local run of the same file: the service
    // path adds supervision and streaming, not new randomness — and each
    // replica's frames come in the documented order with that run's values
    let parsed = ecgrid_suite::scenario::parse(TEXT).expect("scenario parses");
    let opts = RunOptions::digest();
    for (k, digest) in info.digests.iter().enumerate() {
        let mut point = parsed.clone();
        point.seed = ecgrid_suite::runner::run::replica_seed(parsed.seed, k as u64);
        let local = ecgrid_suite::runner::run_spec(&point, ProtocolKind::Ecgrid, opts);
        assert_eq!(
            digest,
            &local.trace_digest.expect("local digest").to_string(),
            "replica {k} digest diverges from the local run"
        );
        assert_replica_frames_match(&frames, k as u64, &local);
    }
    let classic_sc = Scenario {
        protocol: ProtocolKind::Gaf,
        n_hosts: classic.n_hosts as usize,
        max_speed: classic.max_speed,
        pause_secs: classic.pause_secs,
        n_flows: classic.n_flows as usize,
        flow_rate_pps: classic.flow_rate_pps,
        duration_secs: classic.duration_secs,
        seed: classic.seed,
        model1_endpoints: classic.model1_endpoints as usize,
    };
    assert_replica_frames_match(&classic_frames, 0, &run_scenario_with(&classic_sc, opts));

    server.request_shutdown();
    server.wait();
}

#[test]
fn slow_subscriber_drops_frames_without_stalling_or_perturbing_the_sim() {
    // a subscriber buffer this small cannot absorb a replica's thousands
    // of trace frames: the hub must drop for this subscriber (and count
    // it) rather than apply backpressure to the simulation
    let server = start_server(
        "slow_sub",
        ServiceConfig::default().with_workers(1).with_subscriber_buffer(8),
    );
    let mut client = connect(&server);
    client.submit_until_accepted(&filler_spec(), 0).expect("filler");
    let (job, _) = client.submit_until_accepted(&tiny_spec(3, 1), 0).expect("submit");

    // subscribe while the target is queued, then read deliberately slowly
    // — far below the sim's frame rate, but steadily enough that the
    // connection stays alive
    let sock = raw_subscribe(&server, job, FilterSpec::default());
    sock.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    let slow_reader = std::thread::spawn(move || {
        let mut reader = BufReader::new(sock);
        let mut line = String::new();
        let mut n = 0u64;
        loop {
            line.clear();
            if reader.read_line(&mut line).unwrap_or(0) == 0 {
                return None;
            }
            if json::field(&line, "stream") == Some("bye") {
                return Some(line.trim().to_string());
            }
            n += 1;
            if n.is_multiple_of(64) {
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    });

    assert_eq!(await_terminal(&mut client, job, Duration::from_secs(120)), "done");
    let bye = slow_reader
        .join()
        .expect("reader thread")
        .expect("slow subscriber still gets a bye");
    let dropped = json::u64_field(&bye, "dropped").unwrap_or(0);
    assert!(dropped > 0, "an 8-frame buffer cannot hold a full run: {bye}");

    // the sim's result was not perturbed by the struggling subscriber:
    // the digest in the terminal status matches a fresh journal replay
    let st = client
        .request_idempotent(&Request::Status { job: Some(job) })
        .unwrap();
    let digest = json::field(&st, "digests").unwrap_or("").to_string();
    assert!(!digest.is_empty());
    let replay = client
        .stream_job(job, &FilterSpec::default(), |_| {})
        .expect("replay");
    assert_eq!(
        replay.digests.join(";"),
        digest,
        "digest perturbed by slow subscriber"
    );

    server.request_shutdown();
    server.wait();
}

/// The classic scenario a job of `spec` runs as replica `k`.
fn classic_replica(spec: &JobSpec, k: u64) -> Scenario {
    Scenario {
        protocol: ProtocolKind::Ecgrid,
        n_hosts: spec.n_hosts as usize,
        max_speed: spec.max_speed,
        pause_secs: spec.pause_secs,
        n_flows: spec.n_flows as usize,
        flow_rate_pps: spec.flow_rate_pps,
        duration_secs: spec.duration_secs,
        seed: ecgrid_suite::runner::run::replica_seed(spec.seed, k),
        model1_endpoints: spec.model1_endpoints as usize,
    }
}

#[test]
fn an_ample_buffer_streams_the_whole_trace_in_order() {
    let server = start_server(
        "ample_buffer",
        ServiceConfig::default()
            .with_workers(1)
            .with_subscriber_buffer(1 << 20),
    );
    let mut client = connect(&server);
    client.submit_until_accepted(&filler_spec(), 0).expect("filler");
    let spec = tiny_spec(13, 2);
    let (job, _) = client.submit_until_accepted(&spec, 0).expect("submit");

    // an unfiltered and an app-only subscription, each read to its `bye`
    let read_to_bye = |layers: &str| {
        let filter = FilterSpec {
            layers: layers.into(),
            ..FilterSpec::default()
        };
        let sock = raw_subscribe(&server, job, filter);
        sock.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
        std::thread::spawn(move || {
            let mut lines = BufReader::new(sock).lines().map(|l| l.expect("a whole line"));
            let reply = lines.next().expect("subscribe reply");
            assert_eq!(json::bool_field(&reply, "ok"), Some(true), "{reply}");
            let mut frames = Vec::new();
            for frame in lines {
                let bye = json::field(&frame, "stream") == Some("bye");
                frames.push(frame);
                if bye {
                    break;
                }
            }
            frames
        })
    };
    let (full, app) = (read_to_bye(""), read_to_bye("app"));
    // both attached while the job still waited behind the filler
    let start = Instant::now();
    while json::u64_field(
        &client.request_idempotent(&Request::Stats).unwrap(),
        "subscribers",
    ) != Some(2)
    {
        assert!(
            start.elapsed() < Duration::from_secs(60),
            "subscriptions never attached"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let st = client
        .request_idempotent(&Request::Status { job: Some(job) })
        .unwrap();
    assert_eq!(
        json::field(&st, "state"),
        Some("queued"),
        "the job started unobserved"
    );
    let (full, app) = (full.join().unwrap(), app.join().unwrap());

    // what each replica records, as a local full trace renders it
    let local: Vec<Vec<String>> = (0..spec.replicas)
        .map(|k| {
            let opts = RunOptions {
                trace: Some(TraceMode::Full),
                ..RunOptions::default()
            };
            let res = run_scenario_with(&classic_replica(&spec, k), opts);
            let mut jsonl = Vec::new();
            res.recorder
                .expect("full trace")
                .write_jsonl("ECGRID", &mut jsonl)
                .unwrap();
            String::from_utf8(jsonl)
                .unwrap()
                .lines()
                .map(str::to_string)
                .collect()
        })
        .collect();
    let app_layer = |lines: &[String]| -> Vec<String> {
        let app = lines.iter().filter(|l| l.contains("\"layer\":\"app\""));
        app.cloned().collect()
    };

    for (frames, want) in [
        (&full, local.clone()),
        (&app, local.iter().map(|l| app_layer(l)).collect()),
    ] {
        let (bye, carried) = frames.split_last().expect("frames");
        assert_eq!(json::field(bye, "stream"), Some("bye"));
        assert_eq!(json::u64_field(bye, "dropped"), Some(0), "{bye}");
        assert_eq!(
            json::u64_field(bye, "delivered"),
            Some(carried.len() as u64),
            "{bye}"
        );
        // each replica's event frames, less their stream head, are its
        // local trace lines
        for (k, want) in want.iter().enumerate() {
            let head = format!("{{\"stream\":\"event\",\"job\":{job},\"replica\":{k},");
            let got: Vec<String> = carried
                .iter()
                .filter_map(|f| f.strip_prefix(&head))
                .map(|rest| format!("{{{rest}"))
                .collect();
            assert!(!got.is_empty(), "replica {k}: no events");
            assert_eq!(got.len(), want.len(), "replica {k}: event count");
            assert!(
                got == *want,
                "replica {k}: the streamed trace differs from the local one"
            );
        }
        // replica 0's events, its `replica_done`, then replica 1's
        let mut order: Vec<(String, u64)> = carried
            .iter()
            .filter_map(|f| {
                let stream = json::field(f, "stream")?;
                let kept = ["event", "replica_done"].contains(&stream);
                kept.then(|| (stream.to_string(), json::u64_field(f, "replica").unwrap()))
            })
            .collect();
        order.dedup();
        let want_order = [
            ("event", 0),
            ("replica_done", 0),
            ("event", 1),
            ("replica_done", 1),
        ];
        let want_order: Vec<(String, u64)> = want_order.iter().map(|(s, k)| (s.to_string(), *k)).collect();
        assert_eq!(order, want_order);
    }

    server.request_shutdown();
    server.wait();
}

#[test]
fn classic_submits_past_the_scenario_bounds_are_refused_at_the_door() {
    let server = start_server("bounds", ServiceConfig::default().with_workers(1));
    let mut client = connect(&server);
    let base = tiny_spec(9, 1);
    let hostile = [
        // would reach `Vec::with_capacity(total_hosts)` in a worker
        JobSpec {
            n_hosts: 1_000_000_000_000,
            ..base.clone()
        },
        // both parse as f64 off the wire: one pins a worker, one runs nothing
        JobSpec {
            duration_secs: f64::INFINITY,
            ..base.clone()
        },
        JobSpec {
            duration_secs: f64::NAN,
            ..base.clone()
        },
        JobSpec {
            n_flows: u64::MAX,
            ..base.clone()
        },
        JobSpec {
            flow_rate_pps: -1.0,
            ..base.clone()
        },
        // the wire only clamps replicas from below: this one would hold a
        // worker in its replica loop, growing its records, until a drain
        JobSpec {
            replicas: u64::MAX,
            ..base.clone()
        },
    ];
    for spec in &hostile {
        let why = if spec.replicas == base.replicas {
            "scenario bounds"
        } else {
            "replicas: "
        };
        match client.submit(spec) {
            Err(ClientError::Rejected(e)) => {
                assert!(e.contains(why), "{e}");
            }
            other => panic!("{spec:?} must be rejected, got {other:?}"),
        }
    }
    // same connection, same server: nothing was admitted, nothing died
    let pong = client.request_idempotent(&Request::Ping).expect("ping");
    assert_eq!(json::field(&pong, "pong"), Some("sweepd"));
    let stats = client.request_idempotent(&Request::Stats).expect("stats");
    assert_eq!(json::u64_field(&stats, "submitted"), Some(0));
    // and the bounds did not cost a legitimate job its admission
    client.submit_until_accepted(&base, 0).expect("in-bounds job");
    server.request_shutdown();
    server.wait();
}

#[test]
fn an_unopenable_journal_ends_the_job_with_an_error_and_the_server_keeps_answering() {
    let server = start_server("journal_unopenable", ServiceConfig::default().with_workers(1));
    // a directory where the journal file belongs: it can be neither read
    // nor opened for append, whoever asks (root included)
    let journal = EcgridJobHandler::journal_path(&state_path("journal_unopenable"));
    std::fs::create_dir_all(&journal).unwrap();
    let mut client = connect(&server);
    let (job, config) = client.submit_until_accepted(&tiny_spec(5, 2), 0).expect("submit");
    assert_eq!(
        await_terminal(&mut client, job, Duration::from_secs(60)),
        "quarantined"
    );
    let done = client
        .stream_job(job, &FilterSpec::default(), |_| {})
        .expect("done replay");
    let error = done.error.expect("the job ends with its reason");
    assert!(error.starts_with("journal: "), "{error}");
    assert_eq!(
        (done.completed, done.from_journal),
        (0, 0),
        "nothing ran unjournaled"
    );
    // the server is unharmed: status, ping, and a journal read that finds nothing
    let all = client
        .request_idempotent(&Request::Status { job: None })
        .expect("status");
    assert_eq!(json::u64_field(&all, "quarantined"), Some(1));
    let pong = client.request_idempotent(&Request::Ping).expect("ping");
    assert_eq!(json::field(&pong, "pong"), Some("sweepd"));
    let missing = client
        .request_idempotent(&Request::Result { config, seed: 5 })
        .expect("result");
    assert_eq!(json::bool_field(&missing, "ok"), Some(false));
    server.request_shutdown();
    server.wait();
}

#[test]
fn a_server_reads_its_journal_once_and_answers_from_memory() {
    let server = start_server("journal_once", ServiceConfig::default().with_workers(1));
    let journal = EcgridJobHandler::journal_path(&state_path("journal_once"));
    let mut client = connect(&server);
    let spec = tiny_spec(31, 2);
    let malformed = |frame: &str, seen: &mut Option<u64>| {
        if json::field(frame, "stream") == Some("done") {
            *seen = json::u64_field(frame, "malformed_journal_lines");
        }
    };
    let (a, config) = client.submit_until_accepted(&spec, 0).expect("submit A");
    let mut a_malformed = None;
    let done_a = client
        .stream_job(a, &FilterSpec::default(), |f| malformed(f, &mut a_malformed))
        .expect("A's done");
    assert_eq!((done_a.completed, done_a.from_journal), (2, 0), "A ran fresh");
    // another writer leaves a line the server's index never saw
    let mut file = std::fs::OpenOptions::new().append(true).open(&journal).unwrap();
    writeln!(file, "not a journal line").unwrap();
    let (b, _) = client.submit_until_accepted(&spec, 0).expect("submit B");
    let mut b_malformed = None;
    let done_b = client
        .stream_job(b, &FilterSpec::default(), |f| malformed(f, &mut b_malformed))
        .expect("B's done");
    assert_eq!(
        (done_b.completed, done_b.from_journal),
        (2, 2),
        "every replica of B comes from A's appends, none ran"
    );
    assert_eq!(done_b.digests, done_a.digests);
    assert_eq!(
        b_malformed, a_malformed,
        "B counts what the index saw, not the file"
    );
    assert_eq!(a_malformed, Some(0));
    // with the file gone, a `result` for A's key still answers
    std::fs::remove_file(&journal).unwrap();
    let hit = client
        .request_idempotent(&Request::Result { config, seed: 31 })
        .expect("result");
    assert_eq!(json::bool_field(&hit, "ok"), Some(true), "{hit}");
    assert_eq!(json::str_field(&hit, "digest").as_ref(), done_a.digests.first());
    server.request_shutdown();
    server.wait();
}

#[test]
fn an_unwritable_manifest_refuses_the_submit_and_the_server_keeps_answering() {
    let server = start_server("manifest_unwritable", ServiceConfig::default().with_workers(1));
    // a regular file where the manifest directory belongs: no manifest
    // can be written under it, whoever asks (root included)
    let jobs = state_path("manifest_unwritable").join("jobs");
    std::fs::remove_dir(&jobs).unwrap();
    std::fs::write(&jobs, "not a directory").unwrap();
    let mut client = connect(&server);
    match client.submit(&tiny_spec(5, 1)) {
        Err(ClientError::Rejected(e)) => {
            let path = jobs.join("job-1.json");
            assert!(e.starts_with(&format!("manifest: {}: ", path.display())), "{e}");
        }
        other => panic!("an unrecorded job must be refused, got {other:?}"),
    }
    // nothing was taken on, and the server is unharmed
    let pong = client.request_idempotent(&Request::Ping).expect("ping");
    assert_eq!(json::field(&pong, "pong"), Some("sweepd"));
    let all = client
        .request_idempotent(&Request::Status { job: None })
        .expect("status");
    assert_eq!(json::u64_field(&all, "jobs"), Some(0), "{all}");
    let stats = client.request_idempotent(&Request::Stats).expect("stats");
    assert_eq!(json::u64_field(&stats, "submitted"), Some(0), "{stats}");
    assert_eq!(json::u64_field(&stats, "queue_depth"), Some(0), "{stats}");
    server.request_shutdown();
    server.wait();
}
