//! Property-based tests (proptest) on the sweep service's two readers of
//! untrusted bytes: the request parser and the job-manifest rescan.
//!
//! `service::proto::Request::parse` reads whatever a TCP peer sends, so
//! its contract under hostile input is: never panic, answer garbage with
//! an `Err` the server turns into an error reply, and keep no state — a
//! valid line after any amount of garbage parses to exactly what was
//! encoded.  The inputs mirror what the journal loader's tests use
//! (`runner::supervisor`): raw bytes, valid lines cut short, and valid
//! lines with fields duplicated or garbled.  String values carry
//! arbitrary Unicode through `service::json`'s escaping, and a string
//! that spells out a field of its own stays inside its value.
//!
//! A restarting server rescans `<state-dir>/jobs/*.json`, files anything
//! on the disk may have written; its contract: start, answer, requeue
//! each unfinished job at most once, and never issue an id twice.
//! Manifests an older build wrote still recover, or end with a reason.

use ecgrid_suite::runner::supervisor::SupervisorConfig;
use ecgrid_suite::runner::{EcgridJobHandler, RunOptions};
use ecgrid_suite::service::json::{self, Obj};
use ecgrid_suite::service::proto::{FilterSpec, JobSpec, Request, PROTO_VERSION};
use ecgrid_suite::service::{JobCtx, JobHandler, JobOutcome, JobState, ReplicaLookup, Server, ServiceConfig};
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The characters a string escaper most often gets wrong: a quote, a
/// backslash, C0 controls, DEL, a line separator, and one past the BMP.
const FORCED: [char; 8] = [
    '"',
    '\\',
    '\n',
    '\u{0}',
    '\u{1f}',
    '\u{7f}',
    '\u{2028}',
    '\u{1f4e1}',
];

/// Arbitrary Unicode from drawn `u32`s (compat proptest has no string
/// strategy), behind every [`FORCED`] character: a draw picks a scalar
/// value from all of Unicode, an ASCII byte (every C0 control and DEL
/// among them), or a forced character again.
fn unicode(draws: &[u32]) -> String {
    let drawn = draws.iter().map(|&u| {
        let v = u >> 2;
        match u & 3 {
            0 => FORCED[v as usize % FORCED.len()],
            1 => char::from((v % 0x80) as u8),
            // surrogates are no scalar values
            _ => char::from_u32(v % 0x11_0000).unwrap_or('\u{fffd}'),
        }
    });
    FORCED.into_iter().chain(drawn).collect()
}

/// `faults` values that spell out a request of their own.
const SMUGGLED: [&str; 3] = [
    "loss=0.1,churn=2",
    "x\",\"cmd\":\"shutdown",
    "y \\\"cmd\\\":\"stats\"}",
];

/// One request of every kind, shaped by the drawn scalars.
fn request(which: u8, n: u64, x: f64, text: &str) -> Request {
    match which % 7 {
        0 => Request::Ping,
        1 => Request::Submit(JobSpec {
            n_hosts: n % 500,
            max_speed: 0.5 + x,
            duration_secs: 10.0 + 100.0 * x,
            seed: n,
            replicas: 1 + n % 5,
            faults: SMUGGLED[(n % 3) as usize].into(),
            scenario: if n.is_multiple_of(2) {
                String::new()
            } else {
                text.into()
            },
            ..JobSpec::default()
        }),
        2 => Request::Status {
            job: (!n.is_multiple_of(3)).then_some(n),
        },
        3 => Request::Subscribe {
            job: n,
            filter: FilterSpec {
                layers: "mac,route".into(),
                node: Some(n as u32),
                cell: Some((-(n as i32 % 9), 4)),
                protocol: Some(text.into()),
            },
        },
        4 => Request::Result { config: n, seed: !n },
        5 => Request::Stats,
        _ => Request::Shutdown,
    }
}

/// Escapes `str_field` refuses, each as it would sit inside a value.
const MALFORMED: [&str; 7] = [
    r"\x",
    r"\u12",
    r"\u12g4",
    r"\ud800",
    r"\udc00",
    r"\ud800\u0041",
    r"\ud800x",
];

proptest! {
    /// Arbitrary bytes — decoded the way the server's line reader hands
    /// them over, or lossily — parse to something or to an error.
    #[test]
    fn arbitrary_bytes_never_panic_the_request_parser(
        bytes in proptest::collection::vec(any::<u8>(), 0..400),
    ) {
        let lossy = String::from_utf8_lossy(&bytes);
        let _ = Request::parse(&lossy);
        let _ = Request::parse(lossy.trim());
        // bytes that look like the protocol up to a point
        let _ = Request::parse(&format!("{{\"cmd\":\"submit\",\"n_hosts\":{lossy}}}"));
        let _ = Request::parse(&format!("{{\"cmd\":\"{lossy}"));
    }

    /// A valid line cut anywhere parses or errors; a valid line with a
    /// field duplicated or overwritten with junk parses or errors; and
    /// the untouched line after them still round-trips exactly — with
    /// arbitrary Unicode in its strings, and a `faults` value that spells
    /// out another `cmd` still a `submit`.
    #[test]
    fn truncated_duplicated_and_garbled_requests_are_answered_not_fatal(
        which in 0u8..7,
        n in any::<u64>(),
        x in 0.0..1.0f64,
        junk in proptest::collection::vec(any::<u8>(), 0..40),
        text in proptest::collection::vec(any::<u32>(), 0..40),
        cut in 0.0..1.0f64,
    ) {
        let junk = String::from_utf8_lossy(&junk).into_owned();
        let text = unicode(&text);
        // the codec alone: any text comes back exactly, on one line
        let obj = Obj::new().str("s", &text).u64("n", n).finish();
        prop_assert!(!obj.contains('\n'), "{}", obj);
        prop_assert_eq!(json::str_field(&obj, "s"), Some(text.clone()));
        prop_assert_eq!(json::u64_field(&obj, "n"), Some(n));
        let req = request(which, n, x, &text);
        let line = req.encode();
        // strings keep every character but the escaped ones as they are,
        // so a byte offset may fall inside one
        let mut at = (cut * line.len() as f64) as usize;
        while !line.is_char_boundary(at) {
            at -= 1;
        }
        let _ = Request::parse(&line[..at]);
        let _ = Request::parse(&line[at..]);
        for key in ["cmd", "job", "seed", "n_hosts", "config", "scenario", "layers"] {
            let pat = format!("\"{key}\":");
            if let Some(pos) = line.find(&pat) {
                let end = pos + pat.len();
                // the field twice, and the field with junk for a value
                let _ = Request::parse(&format!("{}{pat}7,{}", &line[..pos], &line[pos..]));
                let _ = Request::parse(&format!("{}{junk}{}", &line[..end], &line[end..]));
            }
        }
        prop_assert_eq!(Request::parse(&line), Ok(req));
        // a `subscribe` axis that is present but unusable — out of the
        // field's range, garbled, or half a cell — is an error, never a
        // narrower or an absent filter
        let wide = u64::from(u32::MAX) + 1 + n % (1 << 31);
        for axes in [
            format!("\"node\":{wide}"),
            format!("\"node\":\"n{}\"", n % 97),
            format!("\"cell_x\":{wide},\"cell_y\":0"),
            format!("\"cell_x\":0,\"cell_y\":-{wide}"),
            format!("\"cell_x\":{}", n % 9),
            format!("\"cell_y\":{}", n % 9),
        ] {
            let hostile = format!("{{\"cmd\":\"subscribe\",\"job\":{n},{axes}}}");
            let refused = Request::parse(&hostile);
            prop_assert!(
                matches!(&refused, Err(e) if e.starts_with("bad field ")),
                "{} parsed to {:?}", hostile, refused
            );
        }
        // a free-text value with a malformed escape is refused by name,
        // never cut short or read as text
        let bad = MALFORMED[(n % MALFORMED.len() as u64) as usize];
        for (head, key) in [
            ("\"submit\"", "protocol"),
            ("\"submit\"", "faults"),
            ("\"submit\"", "scenario"),
            ("\"subscribe\",\"job\":1", "layers"),
            ("\"subscribe\",\"job\":1", "protocol"),
        ] {
            for value in [format!("\"{}{bad}\"", json::esc(&text)), r"loss\".to_string()] {
                let hostile = format!("{{\"cmd\":{head},\"{key}\":{value}}}");
                prop_assert_eq!(Request::parse(&hostile), Err(format!("bad field {key}")), "{}", hostile);
            }
        }
    }
}

/// A handler that simulates nothing: it records every job it is handed,
/// id and spec, and reports it done.
#[derive(Default)]
struct Recorder(Mutex<Vec<(u64, JobSpec)>>);

impl JobHandler for Recorder {
    fn config_hash(&self, _spec: &JobSpec) -> Result<u64, String> {
        Ok(0)
    }

    fn run(&self, spec: &JobSpec, ctx: &JobCtx<'_>) -> JobOutcome {
        self.0.lock().unwrap().push((ctx.job, spec.clone()));
        JobOutcome {
            state: JobState::Done,
            replicas_done: spec.replicas,
            ..JobOutcome::interrupted()
        }
    }

    fn lookup(&self, _state_dir: &Path, _config: u64, _seed: u64) -> Option<ReplicaLookup> {
        None
    }
}

/// A manifest as the server writes one.
fn manifest(job: u64, state: JobState) -> String {
    JobSpec::default()
        .encode_onto(
            Obj::new()
                .u64("v", PROTO_VERSION)
                .u64("job", job)
                .hex("config", 0xab)
                .str("state", state.name()),
        )
        .finish()
}

fn connect(srv: &Server) -> (BufReader<TcpStream>, TcpStream) {
    let sock = TcpStream::connect(srv.local_addr()).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    (BufReader::new(sock.try_clone().unwrap()), sock)
}

/// One request line out in a single write (a line split over two
/// segments waits out Nagle and delayed ACKs), one reply line back.
fn roundtrip(r: &mut BufReader<TcpStream>, w: &mut TcpStream, req: &Request) -> String {
    w.write_all(format!("{}\n", req.encode()).as_bytes()).unwrap();
    let mut line = String::new();
    r.read_line(&mut line).unwrap();
    line.trim().to_string()
}

/// The job ids the draws name: a few small ones that collide, and the last.
const IDS: [u64; 7] = [0, 1, 2, 3, 4, 5, u64::MAX];

proptest! {
    /// Any mix of manifests — garbage bytes, manifests cut short, valid
    /// ones at their own path, valid ones copied under another job's
    /// name, ones claiming the last id — and the server starts, answers
    /// `ping` and `status`, knows only jobs whose manifest sits at its own
    /// path, runs each requeued job once, and the next submit neither
    /// reuses an id nor wraps.
    #[test]
    fn any_manifest_directory_starts_a_server_that_requeues_each_job_at_most_once(
        draws in proptest::collection::vec(
            (
                0u8..4,
                0usize..IDS.len(),
                0usize..IDS.len(),
                0u8..5,
                proptest::collection::vec(any::<u8>(), 0..80),
                0.0..1.0f64,
            ),
            0..10,
        ),
    ) {
        let dir = std::env::temp_dir().join(format!("ecgrid_manifest_props_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let jobs = dir.join("jobs");
        std::fs::create_dir_all(&jobs).unwrap();
        let states = [JobState::Queued, JobState::Running, JobState::Done, JobState::Quarantined, JobState::Interrupted];
        for (kind, id, other, state, bytes, cut) in &draws {
            let (id, other) = (IDS[*id], IDS[*other]);
            let good = manifest(id, states[*state as usize]);
            let (name, body) = match kind {
                0 => (format!("job-{id}.json"), bytes.clone()),
                1 => {
                    let keep = (cut * good.len() as f64) as usize;
                    (format!("job-{id}.json"), good.as_bytes()[..keep].to_vec())
                }
                // a copy under another job's name, or a non-canonical one
                2 if other != id => (format!("job-{other}.json"), good.into_bytes()),
                2 => (format!("job-0{id}.json"), good.into_bytes()),
                _ => (format!("job-{id}.json"), good.into_bytes()),
            };
            std::fs::write(jobs.join(name), body).unwrap();
        }

        let recorder = Arc::new(Recorder::default());
        let srv = Server::start(ServiceConfig::default().with_state_dir(&dir), recorder.clone())
            .expect("any manifest directory starts a server");
        let (mut r, mut w) = connect(&srv);
        let pong = roundtrip(&mut r, &mut w, &Request::Ping);
        prop_assert_eq!(json::bool_field(&pong, "ok"), Some(true), "{}", pong);
        let start = Instant::now();
        let all = loop {
            let all = roundtrip(&mut r, &mut w, &Request::Status { job: None });
            prop_assert_eq!(json::bool_field(&all, "ok"), Some(true), "{}", all);
            let busy = ["queued", "running"].map(|k| json::u64_field(&all, k).unwrap());
            if busy == [0, 0] {
                break all;
            }
            prop_assert!(start.elapsed() < Duration::from_secs(10), "requeued jobs never ran: {}", all);
            std::thread::sleep(Duration::from_millis(2));
        };

        // known: exactly the ids whose manifest sits at its own path
        let mut known = Vec::new();
        for id in IDS {
            let st = roundtrip(&mut r, &mut w, &Request::Status { job: Some(id) });
            if json::bool_field(&st, "ok") == Some(true) {
                prop_assert!(jobs.join(format!("job-{id}.json")).exists(), "job {} has no manifest", id);
                known.push(id);
            }
        }
        prop_assert_eq!(json::u64_field(&all, "jobs"), Some(known.len() as u64), "{}", all);
        let stats = roundtrip(&mut r, &mut w, &Request::Stats);
        let mut ran: Vec<u64> = recorder.0.lock().unwrap().iter().map(|(id, _)| *id).collect();
        prop_assert_eq!(json::u64_field(&stats, "recovered"), Some(ran.len() as u64), "{}", stats);
        ran.sort_unstable();
        ran.dedup();
        prop_assert_eq!(json::u64_field(&stats, "recovered"), Some(ran.len() as u64), "a job ran twice");

        let sub = roundtrip(&mut r, &mut w, &Request::Submit(JobSpec::default()));
        if known.contains(&u64::MAX) {
            prop_assert_eq!(json::bool_field(&sub, "ok"), Some(false), "{}", sub);
            prop_assert!(sub.contains("exhausted"), "{}", sub);
        } else {
            let job = json::u64_field(&sub, "job").unwrap();
            prop_assert!(known.iter().all(|&k| k < job), "job {} reissued an id: {:?}", job, known);
        }
        srv.request_shutdown();
        srv.wait();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Poll `job`'s status until it leaves `queued` and `running`.
fn await_terminal(r: &mut BufReader<TcpStream>, w: &mut TcpStream, job: u64) -> String {
    let start = Instant::now();
    loop {
        let st = roundtrip(r, w, &Request::Status { job: Some(job) });
        match json::str_field(&st, "state").as_deref() {
            Some("queued" | "running") => {}
            _ => return st,
        }
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "job {job} never ended: {st}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A state dir whose only job is `manifest`, written by an older build.
fn state_dir_with(tag: &str, manifest: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ecgrid_old_manifest_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("jobs")).unwrap();
    std::fs::write(dir.join("jobs/job-1.json"), manifest).unwrap();
    dir
}

#[test]
fn a_classic_manifest_of_the_first_wire_version_recovers_to_the_same_job() {
    // verbatim what a version-1 server wrote for
    // `sweepc submit --protocol gaf … --faults loss=0.1,churn=2`
    const V1: &str = r#"{"v":1,"job":1,"config":"7932975435dc472c","state":"running","protocol":"gaf","n_hosts":20,"max_speed":2.5,"pause_secs":30,"n_flows":2,"flow_rate_pps":0.5,"duration_secs":20,"seed":1234,"model1_endpoints":3,"replicas":2,"faults":"loss=0.1,churn=2"}"#;
    let dir = state_dir_with("classic", V1);
    let recorder = Arc::new(Recorder::default());
    let srv = Server::start(ServiceConfig::default().with_state_dir(&dir), recorder.clone()).unwrap();
    let (mut r, mut w) = connect(&srv);
    let st = await_terminal(&mut r, &mut w, 1);
    assert_eq!(json::str_field(&st, "state").as_deref(), Some("done"), "{st}");
    assert_eq!(
        json::hex_field(&st, "config"),
        Some(0x7932_9754_35dc_472c),
        "{st}"
    );
    let want = JobSpec {
        protocol: "gaf".into(),
        n_hosts: 20,
        max_speed: 2.5,
        pause_secs: 30.0,
        n_flows: 2,
        flow_rate_pps: 0.5,
        duration_secs: 20.0,
        seed: 1234,
        model1_endpoints: 3,
        replicas: 2,
        faults: "loss=0.1,churn=2".into(),
        scenario: String::new(),
    };
    assert_eq!(*recorder.0.lock().unwrap(), [(1, want)]);
    srv.request_shutdown();
    srv.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_scenario_manifest_of_the_first_wire_version_ends_quarantined_with_its_reason() {
    // version 1 carried the scenario text hex-encoded; version 2 reads the
    // field as the text itself, which the scenario parser refuses
    const V1: &str = r#"{"v":1,"job":1,"config":"6080243944240108","state":"queued","protocol":"ecgrid","n_hosts":30,"max_speed":1,"pause_secs":0,"n_flows":3,"flow_rate_pps":1,"duration_secs":40,"seed":11,"model1_endpoints":4,"replicas":1,"faults":"","scenario":"5b7363656e6172696f5d0a6e616d65203d20226f6c64220a6475726174696f6e5f73203d2031300a73656564203d20330a0a5b5b67726f75705d5d0a6e616d65203d202277616c6b657273220a636f756e74203d20380a"}"#;
    let dir = state_dir_with("scenario", V1);
    let handler = Arc::new(EcgridJobHandler::new(
        RunOptions::default(),
        SupervisorConfig::default(),
    ));
    let srv = Server::start(ServiceConfig::default().with_state_dir(&dir), handler).unwrap();
    let (mut r, mut w) = connect(&srv);
    let st = await_terminal(&mut r, &mut w, 1);
    assert_eq!(
        json::str_field(&st, "state").as_deref(),
        Some("quarantined"),
        "{st}"
    );
    // the reason rides the replayed `done` frame
    let ok = roundtrip(
        &mut r,
        &mut w,
        &Request::Subscribe {
            job: 1,
            filter: FilterSpec::default(),
        },
    );
    assert_eq!(json::bool_field(&ok, "ok"), Some(true), "{ok}");
    let mut done = String::new();
    r.read_line(&mut done).unwrap();
    let error = json::str_field(&done, "error").unwrap_or_default();
    assert!(error.starts_with("scenario: "), "{done}");
    let mut bye = String::new();
    r.read_line(&mut bye).unwrap();
    assert_eq!(json::str_field(&bye, "stream").as_deref(), Some("bye"), "{bye}");
    // and the server keeps answering
    let pong = roundtrip(&mut r, &mut w, &Request::Ping);
    assert_eq!(json::u64_field(&pong, "proto"), Some(PROTO_VERSION), "{pong}");
    let all = roundtrip(&mut r, &mut w, &Request::Status { job: None });
    assert_eq!(json::u64_field(&all, "quarantined"), Some(1), "{all}");
    srv.request_shutdown();
    srv.wait();
    let _ = std::fs::remove_dir_all(&dir);
}
