//! Property-based tests (proptest) on the sweep service's two readers of
//! untrusted bytes: the request parser and the job-manifest rescan.
//!
//! `service::proto::Request::parse` reads whatever a TCP peer sends, so
//! its contract under hostile input is: never panic, answer garbage with
//! an `Err` the server turns into an error reply, and keep no state — a
//! valid line after any amount of garbage parses to exactly what was
//! encoded.  The inputs mirror what the journal loader's tests use
//! (`runner::supervisor`): raw bytes, valid lines cut short, and valid
//! lines with fields duplicated or garbled.
//!
//! A restarting server rescans `<state-dir>/jobs/*.json`, files anything
//! on the disk may have written; its contract: start, answer, requeue
//! each unfinished job at most once, and never issue an id twice.

use ecgrid_suite::service::json::{self, Obj};
use ecgrid_suite::service::proto::{scenario_hex_encode, FilterSpec, JobSpec, Request, PROTO_VERSION};
use ecgrid_suite::service::{JobCtx, JobHandler, JobOutcome, JobState, ReplicaLookup, Server, ServiceConfig};
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

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
            faults: "loss=0.1,churn=2".into(),
            scenario: if n.is_multiple_of(2) {
                String::new()
            } else {
                scenario_hex_encode(text)
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
                protocol: Some("ECGRID".into()),
            },
        },
        4 => Request::Result { config: n, seed: !n },
        5 => Request::Stats,
        _ => Request::Shutdown,
    }
}

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
    /// the untouched line after them still round-trips exactly.
    #[test]
    fn truncated_duplicated_and_garbled_requests_are_answered_not_fatal(
        which in 0u8..7,
        n in any::<u64>(),
        x in 0.0..1.0f64,
        junk in proptest::collection::vec(any::<u8>(), 0..40),
        cut in 0.0..1.0f64,
    ) {
        let junk = String::from_utf8_lossy(&junk).into_owned();
        let req = request(which, n, x, &junk);
        let line = req.encode();
        // the wire is ASCII by construction (`json::esc`, hex, numbers),
        // so any byte offset is a char boundary — except inside junk
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
    }
}

/// A handler that simulates nothing: it records the id of every job it
/// is handed and reports it done.
#[derive(Default)]
struct Recorder(Mutex<Vec<u64>>);

impl JobHandler for Recorder {
    fn config_hash(&self, _spec: &JobSpec) -> Result<u64, String> {
        Ok(0)
    }

    fn run(&self, spec: &JobSpec, ctx: &JobCtx<'_>) -> JobOutcome {
        self.0.lock().unwrap().push(ctx.job);
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
                .raw("config", "\"00000000000000ab\"")
                .str("state", state.name()),
        )
        .finish()
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
        let sock = TcpStream::connect(srv.local_addr()).unwrap();
        sock.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let (mut r, mut w) = (BufReader::new(sock.try_clone().unwrap()), sock);
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
        let mut ran = recorder.0.lock().unwrap().clone();
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
