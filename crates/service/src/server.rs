//! The resident job server: admission control, worker pool, job
//! lifecycle, and the per-connection protocol loop.
//!
//! Threading model (std only, thread-per-connection):
//!
//! * an **accept thread** blocks in `accept` and spawns one detached
//!   thread per connection; a drain request wakes it with a loopback
//!   connection to the server's own port;
//! * **worker threads** pull job ids from a bounded admission queue and
//!   run them through the pluggable [`JobHandler`];
//! * **connection threads** speak the line protocol; a `subscribe`
//!   switches them into stream mode, rendering their [`crate::hub::Hub`]
//!   queue to the socket a batch at a time until the job's stream ends.
//!
//! Every overload or failure path is explicit: a full queue answers with
//! a load-shed reply (never blocks), a slow subscriber loses frames to
//! its own bounded buffer (never stalls a worker), an idle peer is hung
//! up on after the read deadline, and a drain request
//! ([`Server::request_shutdown`]) stops admission, lets in-flight
//! replicas checkpoint to the journal, marks unstarted jobs
//! `interrupted`, and returns.  Job manifests are written atomically and
//! durably ([`crate::fsutil`]) twice per job — `queued` before a worker
//! can see the job, or the submit is refused, and the end state once the
//! handler returns — so a restarted server rescans them and requeues
//! unfinished work ([`JobState::Interrupted`] → [`JobState::Queued`]).

use crate::fsutil;
use crate::hub::Hub;
use crate::json::{self, Obj};
use crate::proto::{self, JobSpec, JobState, Request, PROTO_VERSION};
use crate::{READ_TIMEOUT, WRITE_TIMEOUT};
use std::collections::{BTreeMap, VecDeque};
use std::io::{self, BufRead, BufReader, ErrorKind, Read as _, Write as _};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Server knobs.  Every bound has a deliberate default: the service is
/// never configured unbounded by accident.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Worker threads running jobs.
    pub workers: usize,
    /// Admission-queue bound; submissions past it are shed.
    pub capacity: usize,
    /// Per-subscriber stream buffer, in frames.
    pub subscriber_buffer: usize,
    /// Retry hint carried by shed replies.
    pub retry_after_ms: u64,
    /// Root for job manifests and the result journal.
    pub state_dir: PathBuf,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            capacity: 16,
            subscriber_buffer: 1024,
            retry_after_ms: 500,
            state_dir: PathBuf::from("target/sweepd"),
        }
    }
}

impl ServiceConfig {
    pub fn with_addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    pub fn with_workers(mut self, n: usize) -> Self {
        self.workers = n.max(1);
        self
    }

    pub fn with_capacity(mut self, n: usize) -> Self {
        self.capacity = n.max(1);
        self
    }

    pub fn with_subscriber_buffer(mut self, n: usize) -> Self {
        self.subscriber_buffer = n.max(1);
        self
    }

    pub fn with_state_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.state_dir = dir.into();
        self
    }

    pub fn with_retry_after_ms(mut self, ms: u64) -> Self {
        self.retry_after_ms = ms;
        self
    }
}

/// What a handler reports back for one finished (or interrupted) job.
#[derive(Clone, Debug)]
pub struct JobOutcome {
    /// Terminal state — or [`JobState::Interrupted`] when a drain cut the
    /// job short (the journal checkpoint makes the rerun incremental).
    pub state: JobState,
    /// Replicas completed (fresh + journal-loaded).
    pub replicas_done: u64,
    /// Of those, replicas satisfied from the journal.
    pub from_journal: u64,
    /// Replicas that exhausted retries.
    pub quarantined: u64,
    /// Per-replica trace digests (hex), replica order.
    pub digests: Vec<String>,
    /// Averaged delivery rate over completed replicas (bit-exact wire
    /// encoding).
    pub pdr: Option<f64>,
    /// Averaged mean latency in ms.
    pub latency_ms: Option<f64>,
    /// Journal lines skipped as garbage or duplicates during resume.
    pub malformed_journal_lines: u64,
    pub error: Option<String>,
}

impl JobOutcome {
    /// An outcome for a job that never got to run.
    pub fn interrupted() -> Self {
        JobOutcome {
            state: JobState::Interrupted,
            replicas_done: 0,
            from_journal: 0,
            quarantined: 0,
            digests: Vec::new(),
            pdr: None,
            latency_ms: None,
            malformed_journal_lines: 0,
            error: None,
        }
    }
}

/// What the server hands a [`JobHandler`] for one run.
pub struct JobCtx<'a> {
    pub job: u64,
    /// Set when the server is draining: finish the current replica,
    /// checkpoint, and return [`JobState::Interrupted`].
    pub cancel: &'a AtomicBool,
    /// Publish stream frames here.  Shared (`Arc`) so handlers can hand
    /// owned clones to `'static` event-sink closures.
    pub hub: Arc<Hub>,
    /// Where the journal lives.
    pub state_dir: &'a Path,
}

impl JobCtx<'_> {
    pub fn cancelled(&self) -> bool {
        self.cancel.load(Ordering::Relaxed)
    }
}

/// One replica's journaled result, for the `result` request.
#[derive(Clone, Debug)]
pub struct ReplicaLookup {
    pub digest: Option<String>,
    pub pdr: Option<f64>,
    pub latency_ms: Option<f64>,
}

/// The pluggable harness: the service knows job plumbing, the handler
/// knows how to actually simulate (the ECGRID glue lives in `runner`).
pub trait JobHandler: Send + Sync + 'static {
    /// Hash of everything but the seed that determines a result — the
    /// journal/resume key.  `Err` rejects the spec at submit time.
    fn config_hash(&self, spec: &JobSpec) -> Result<u64, String>;
    /// Run the job, publishing frames via `ctx.hub` and honoring
    /// `ctx.cancel` between replicas.
    fn run(&self, spec: &JobSpec, ctx: &JobCtx<'_>) -> JobOutcome;
    /// Look one journaled replica up by (config-hash, seed).
    fn lookup(&self, state_dir: &Path, config: u64, seed: u64) -> Option<ReplicaLookup>;
}

struct JobRecord {
    spec: JobSpec,
    config: u64,
    state: JobState,
    outcome: Option<JobOutcome>,
}

#[derive(Default)]
struct Stats {
    submitted: AtomicU64,
    completed: AtomicU64,
    shed: AtomicU64,
    refused: AtomicU64,
    recovered: AtomicU64,
    interrupted: AtomicU64,
}

struct Inner {
    cfg: ServiceConfig,
    /// The bound listener address (the drain request's wake-up target).
    addr: SocketAddr,
    handler: Arc<dyn JobHandler>,
    hub: Arc<Hub>,
    jobs: Mutex<BTreeMap<u64, JobRecord>>,
    queue: Mutex<VecDeque<u64>>,
    queue_cv: Condvar,
    /// Admission slots held while a submit writes its manifest: taken and
    /// given back under the `queue` lock, counted against `capacity`.
    admitting: AtomicUsize,
    next_job: AtomicU64,
    draining: AtomicBool,
    stats: Stats,
}

/// Lock the job table or the admission queue, taking the guard back from
/// a thread that panicked while holding it.  Every critical section on
/// these two is a few whole-entry map or queue operations, so what a
/// poisoned lock guards is still consistent, and a panic under it costs
/// the panicking thread's connection or job — not every request after it.
fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| {
        m.clear_poison();
        poisoned.into_inner()
    })
}

/// What `submit` decided; a refusal carries its error reply.
enum Admission {
    Accepted { job: u64, config: u64 },
    Shed { queued: usize },
    Refused(String),
}

impl Inner {
    /// Stop admitting work and wake everything that sleeps until then:
    /// idle workers through the queue's condvar, the accept thread —
    /// blocked in `accept` — through a connection to our own port.
    fn begin_drain(&self) {
        if self.draining.swap(true, Ordering::Relaxed) {
            return; // already draining: everyone has been woken
        }
        self.queue_cv.notify_all();
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        // if this fails the listener is beyond reach anyway (no socket
        // left to dial with); the next connection or accept error ends
        // the accept thread instead
        let _ = TcpStream::connect_timeout(&wake, Duration::from_secs(1));
    }

    fn manifest_path(&self, job: u64) -> PathBuf {
        self.cfg.state_dir.join("jobs").join(format!("job-{job}.json"))
    }

    /// Persist a job's manifest atomically and durably; the error is the
    /// reply-ready `manifest: <path>: <why>`.
    fn write_manifest(&self, job: u64, spec: &JobSpec, config: u64, state: JobState) -> Result<(), String> {
        let line = spec
            .encode_onto(
                Obj::new()
                    .u64("v", PROTO_VERSION)
                    .u64("job", job)
                    .hex("config", config)
                    .str("state", state.name()),
            )
            .finish();
        let path = self.manifest_path(job);
        fsutil::write_atomic_durable(&path, line.as_bytes())
            .map_err(|e| format!("manifest: {}: {e}", path.display()))
    }

    /// Rescan job manifests after a restart: terminal jobs are
    /// remembered, unfinished ones (`queued` or `interrupted` at the
    /// moment of the crash, or `running` as older builds wrote it) are
    /// requeued.  A manifest counts only at the path this server would
    /// have written it to (`job-<id>.json` for its own `job`), so no id is
    /// read twice.
    fn recover(&self) {
        let dir = self.cfg.state_dir.join("jobs");
        let Ok(entries) = std::fs::read_dir(&dir) else {
            return;
        };
        let mut found: Vec<(u64, JobSpec, u64, JobState)> = Vec::new();
        for entry in entries.flatten() {
            let path = entry.path();
            if path.extension().is_none_or(|e| e != "json") {
                continue;
            }
            let Some(body) = fsutil::read_lossy(&path) else {
                continue;
            };
            let line = body.trim();
            let (Some(job), Some(state), Some(config)) = (
                json::u64_field(line, "job"),
                json::field(line, "state").and_then(JobState::parse),
                json::hex_field(line, "config"),
            ) else {
                continue; // a garbled manifest is skipped, not fatal
            };
            if path != self.manifest_path(job) {
                continue; // a copy, or a manifest claiming another job's id
            }
            let Ok(spec) = JobSpec::parse(line) else {
                continue;
            };
            found.push((job, spec, config, state));
        }
        found.sort_by_key(|(job, ..)| *job);
        // lock order: queue before jobs, matching `submit`
        let mut queue = relock(&self.queue);
        let mut jobs = relock(&self.jobs);
        let mut max_id = 0;
        for (job, spec, config, state) in found {
            max_id = max_id.max(job);
            let state = if state.is_terminal() {
                state
            } else {
                // interrupted mid-flight; the journal has its completed
                // replicas, so the rerun picks up where it left off
                self.stats.recovered.fetch_add(1, Ordering::Relaxed);
                queue.push_back(job);
                JobState::Queued
            };
            jobs.insert(
                job,
                JobRecord {
                    spec,
                    config,
                    state,
                    outcome: None,
                },
            );
        }
        // a manifest claiming the last id leaves none to issue: `submit`
        // refuses rather than wrap onto job 0
        self.next_job.store(max_id.saturating_add(1), Ordering::Relaxed);
        drop(jobs);
        drop(queue);
        self.queue_cv.notify_all();
    }

    fn submit(&self, spec: JobSpec) -> Admission {
        if self.draining.load(Ordering::Relaxed) {
            self.stats.refused.fetch_add(1, Ordering::Relaxed);
            return Admission::Refused("draining: not accepting new jobs".into());
        }
        let config = match self.handler.config_hash(&spec) {
            Ok(h) => h,
            Err(e) => return Admission::Refused(format!("bad job spec: {e}")),
        };
        let job = {
            let queue = relock(&self.queue);
            let queued = queue.len() + self.admitting.load(Ordering::Relaxed);
            if queued >= self.cfg.capacity {
                self.stats.shed.fetch_add(1, Ordering::Relaxed);
                return Admission::Shed { queued };
            }
            // `u64::MAX` is never issued, so an id is never issued twice
            let Ok(job) = self
                .next_job
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_add(1))
            else {
                return Admission::Refused("job ids exhausted: not accepting new jobs".into());
            };
            self.admitting.fetch_add(1, Ordering::Relaxed);
            job
        };
        // durable before any worker sees the job, so a late `queued` can
        // never land on a worker's terminal manifest
        let written = self.write_manifest(job, &spec, config, JobState::Queued);
        let mut queue = relock(&self.queue);
        self.admitting.fetch_sub(1, Ordering::Relaxed);
        if let Err(e) = written {
            return Admission::Refused(e);
        }
        relock(&self.jobs).insert(
            job,
            JobRecord {
                spec,
                config,
                state: JobState::Queued,
                outcome: None,
            },
        );
        queue.push_back(job);
        drop(queue);
        self.stats.submitted.fetch_add(1, Ordering::Relaxed);
        self.queue_cv.notify_one();
        Admission::Accepted { job, config }
    }

    fn run_job(&self, job: u64) {
        let (spec, config) = {
            let mut jobs = relock(&self.jobs);
            let Some(rec) = jobs.get_mut(&job) else {
                return;
            };
            rec.state = JobState::Running;
            (rec.spec.clone(), rec.config)
        };
        // no `running` manifest: a restart requeues a `queued` job just as
        // it would a `running` one, so the write would buy nothing
        self.hub
            .publish_frame(job, &proto::frame_job_state(job, JobState::Running));
        let ctx = JobCtx {
            job,
            cancel: &self.draining,
            hub: self.hub.clone(),
            state_dir: &self.cfg.state_dir,
        };
        let outcome = self.handler.run(&spec, &ctx);
        self.finish_job(job, &spec, config, outcome);
        self.stats.completed.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a job's outcome, persist it, and terminate its streams.
    fn finish_job(&self, job: u64, spec: &JobSpec, config: u64, outcome: JobOutcome) {
        // past admission a manifest write is best-effort: a failed disk
        // must not take down the server, it only weakens crash recovery
        let _ = self.write_manifest(job, spec, config, outcome.state);
        if outcome.state == JobState::Interrupted {
            self.stats.interrupted.fetch_add(1, Ordering::Relaxed);
        }
        let done = done_frame(job, spec, &outcome);
        {
            let mut jobs = relock(&self.jobs);
            if let Some(rec) = jobs.get_mut(&job) {
                rec.state = outcome.state;
                rec.outcome = Some(outcome);
            }
        }
        self.hub.finish_job(job, &done);
    }

    fn worker_loop(&self) {
        loop {
            let job = {
                let mut queue = relock(&self.queue);
                loop {
                    // drain check first: a draining server must not start
                    // queued jobs — they stay for interruption marking
                    if self.draining.load(Ordering::Relaxed) {
                        return;
                    }
                    if let Some(j) = queue.pop_front() {
                        break j;
                    }
                    let (q, _) = self
                        .queue_cv
                        .wait_timeout(queue, Duration::from_millis(100))
                        .unwrap_or_else(PoisonError::into_inner);
                    queue = q;
                }
            };
            self.run_job(job);
        }
    }
}

/// The done frame: terminal summary of one job, bit-exact metrics
/// included.
fn done_frame(job: u64, spec: &JobSpec, out: &JobOutcome) -> String {
    let mut o = Obj::new()
        .str("stream", "done")
        .u64("job", job)
        .str("state", out.state.name())
        .u64("replicas", spec.replicas)
        .u64("completed", out.replicas_done)
        .u64("from_journal", out.from_journal)
        .u64("quarantined", out.quarantined)
        .str("digests", &out.digests.join(";"))
        .f64_bits("pdr", out.pdr)
        .f64_bits("latency_ms", out.latency_ms)
        .u64("malformed_journal_lines", out.malformed_journal_lines);
    o = match &out.error {
        Some(e) => o.str("error", e),
        None => o.raw("error", "null"),
    };
    o.finish()
}

/// A running server.  `start` binds and spawns; `wait` blocks until a
/// shutdown request completes the drain.
pub struct Server {
    inner: Arc<Inner>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

/// A cloneable remote control for a [`Server`] (signal handlers, tests).
#[derive(Clone)]
pub struct ServerHandle(Arc<Inner>);

impl ServerHandle {
    pub fn request_shutdown(&self) {
        self.0.begin_drain();
    }

    pub fn is_draining(&self) -> bool {
        self.0.draining.load(Ordering::Relaxed)
    }
}

/// Drain summary returned by [`Server::wait`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerSummary {
    pub submitted: u64,
    pub completed: u64,
    pub shed: u64,
    pub interrupted: u64,
    pub recovered: u64,
    pub events_delivered: u64,
    pub events_dropped: u64,
}

impl Server {
    /// Bind, recover persisted jobs, and spawn the accept + worker
    /// threads.
    pub fn start(cfg: ServiceConfig, handler: Arc<dyn JobHandler>) -> io::Result<Server> {
        std::fs::create_dir_all(cfg.state_dir.join("jobs"))?;
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let inner = Arc::new(Inner {
            cfg,
            addr,
            handler,
            hub: Arc::new(Hub::new()),
            jobs: Mutex::new(BTreeMap::new()),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            admitting: AtomicUsize::new(0),
            next_job: AtomicU64::new(1),
            draining: AtomicBool::new(false),
            stats: Stats::default(),
        });
        inner.recover();
        let accept_inner = inner.clone();
        let accept = thread::Builder::new()
            .name("sweepd-accept".into())
            .spawn(move || accept_loop(accept_inner, listener))?;
        let mut workers = Vec::new();
        for i in 0..inner.cfg.workers.max(1) {
            let w = inner.clone();
            workers.push(
                thread::Builder::new()
                    .name(format!("sweepd-worker-{i}"))
                    .spawn(move || w.worker_loop())?,
            );
        }
        Ok(Server {
            inner,
            addr,
            accept: Some(accept),
            workers,
        })
    }

    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn handle(&self) -> ServerHandle {
        ServerHandle(self.inner.clone())
    }

    pub fn request_shutdown(&self) {
        self.handle().request_shutdown();
    }

    pub fn is_draining(&self) -> bool {
        self.handle().is_draining()
    }

    /// Block until a shutdown request has fully drained: accept loop
    /// stopped, workers done with their in-flight jobs, leftover queued
    /// jobs marked `interrupted` (resumable on restart), streams closed.
    pub fn wait(mut self) -> ServerSummary {
        if let Some(a) = self.accept.take() {
            let _ = a.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // whatever is still queued never started; persist that fact so a
        // restart requeues it
        let leftover: Vec<u64> = relock(&self.inner.queue).drain(..).collect();
        for job in leftover {
            let info = {
                let jobs = relock(&self.inner.jobs);
                jobs.get(&job).map(|r| (r.spec.clone(), r.config))
            };
            if let Some((spec, config)) = info {
                self.inner
                    .finish_job(job, &spec, config, JobOutcome::interrupted());
            }
        }
        let s = &self.inner.stats;
        let drops = self.inner.hub.drop_stats();
        ServerSummary {
            submitted: s.submitted.load(Ordering::Relaxed),
            completed: s.completed.load(Ordering::Relaxed),
            shed: s.shed.load(Ordering::Relaxed),
            interrupted: s.interrupted.load(Ordering::Relaxed),
            recovered: s.recovered.load(Ordering::Relaxed),
            events_delivered: drops.delivered,
            events_dropped: drops.dropped,
        }
    }
}

fn accept_loop(inner: Arc<Inner>, listener: TcpListener) {
    loop {
        let accepted = listener.accept();
        if inner.draining.load(Ordering::Relaxed) {
            // woken by `begin_drain` (or by a client that arrived too late)
            return;
        }
        match accepted {
            Ok((stream, _)) => {
                let conn = inner.clone();
                // detached: connection threads die with their sockets
                let _ = thread::Builder::new()
                    .name("sweepd-conn".into())
                    .spawn(move || handle_conn(conn, stream));
            }
            // out of descriptors or the like: back off, do not spin
            Err(_) => thread::sleep(Duration::from_millis(50)),
        }
    }
}

/// Longest request line a connection may send.  The largest legitimate
/// request is a `submit` carrying a scenario file, which escaping grows
/// only by its quotes, backslashes and control characters: 1 MiB carries
/// some 5,000 fully spelled-out `[[group]]` tables, two orders of
/// magnitude past the largest committed example — and keeps what one
/// connection can make the server buffer bounded.
const MAX_REQUEST_LINE: usize = 1 << 20;

/// Send one protocol line as a single write: a bare `TCP_NODELAY` stream
/// turns every `write` into a segment, so the newline rides along.
fn send_line(out: &mut TcpStream, mut line: String) -> io::Result<()> {
    line.push('\n');
    out.write_all(line.as_bytes())
}

fn handle_conn(inner: Arc<Inner>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let Ok(reader_stream) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(reader_stream);
    let mut out = stream;
    let mut line = Vec::new();
    loop {
        line.clear();
        // one byte past the cap tells "too long" from "exactly at it"
        let mut capped = reader.by_ref().take(MAX_REQUEST_LINE as u64 + 1);
        match capped.read_until(b'\n', &mut line) {
            Ok(0) => return, // peer closed
            Ok(_) => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                // idle deadline: say why, then hang up — a dead peer must
                // not pin this thread
                let _ = send_line(&mut out, proto::reply_err("idle timeout"));
                return;
            }
            Err(_) => return,
        }
        if line.len() > MAX_REQUEST_LINE && !line.ends_with(b"\n") {
            // no newline within the cap: whatever follows is the rest of
            // the same oversized line, so there is nothing to resync on
            let msg = format!("request line exceeds {MAX_REQUEST_LINE} bytes");
            let _ = send_line(&mut out, proto::reply_err(&msg));
            return;
        }
        let Ok(line) = std::str::from_utf8(&line) else {
            return; // not the line protocol at all
        };
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let req = match Request::parse(trimmed) {
            Ok(r) => r,
            Err(e) => {
                if send_line(&mut out, proto::reply_err(&e)).is_err() {
                    return;
                }
                continue;
            }
        };
        let keep_going = match req {
            Request::Subscribe { job, filter } => serve_subscription(&inner, &mut out, job, filter),
            other => send_line(&mut out, answer(&inner, other)).is_ok(),
        };
        if !keep_going {
            return;
        }
    }
}

/// Answer a plain (non-streaming) request.
fn answer(inner: &Inner, req: Request) -> String {
    match req {
        Request::Ping => proto::reply_ok()
            .str("pong", "sweepd")
            .u64("proto", PROTO_VERSION)
            .bool("draining", inner.draining.load(Ordering::Relaxed))
            .finish(),
        Request::Submit(spec) => {
            let replicas = spec.replicas;
            match inner.submit(spec) {
                Admission::Accepted { job, config } => proto::reply_ok()
                    .u64("job", job)
                    .hex("config", config)
                    .u64("replicas", replicas)
                    .finish(),
                Admission::Shed { queued } => {
                    proto::reply_shed(inner.cfg.retry_after_ms, queued, inner.cfg.capacity)
                }
                Admission::Refused(e) => proto::reply_err(&e),
            }
        }
        Request::Status { job: Some(job) } => {
            let jobs = relock(&inner.jobs);
            match jobs.get(&job) {
                None => proto::reply_err(&format!("unknown job {job}")),
                Some(rec) => {
                    let mut o = proto::reply_ok()
                        .u64("job", job)
                        .str("state", rec.state.name())
                        .hex("config", rec.config)
                        .u64("replicas", rec.spec.replicas);
                    if let Some(outcome) = &rec.outcome {
                        o = o
                            .u64("completed", outcome.replicas_done)
                            .u64("from_journal", outcome.from_journal)
                            .u64("quarantined", outcome.quarantined)
                            .str("digests", &outcome.digests.join(";"))
                            .f64_bits("pdr", outcome.pdr)
                            .f64_bits("latency_ms", outcome.latency_ms);
                    }
                    o.finish()
                }
            }
        }
        Request::Status { job: None } => {
            let jobs = relock(&inner.jobs);
            let count = |s: JobState| jobs.values().filter(|r| r.state == s).count() as u64;
            proto::reply_ok()
                .u64("jobs", jobs.len() as u64)
                .u64("queued", count(JobState::Queued))
                .u64("running", count(JobState::Running))
                .u64("done", count(JobState::Done))
                .u64("quarantined", count(JobState::Quarantined))
                .u64("interrupted", count(JobState::Interrupted))
                .u64("capacity", inner.cfg.capacity as u64)
                .finish()
        }
        Request::Result { config, seed } => match inner.handler.lookup(&inner.cfg.state_dir, config, seed) {
            None => proto::reply_err(&format!("no journaled result for ({config:016x}, {seed})")),
            Some(r) => {
                let mut o = proto::reply_ok().hex("config", config).u64("seed", seed);
                o = match &r.digest {
                    Some(d) => o.str("digest", d),
                    None => o.raw("digest", "null"),
                };
                o.f64_bits("pdr", r.pdr)
                    .f64_bits("latency_ms", r.latency_ms)
                    .finish()
            }
        },
        Request::Stats => {
            let s = &inner.stats;
            let drops = inner.hub.drop_stats();
            let queue_depth = relock(&inner.queue).len() as u64;
            proto::reply_ok()
                .u64("submitted", s.submitted.load(Ordering::Relaxed))
                .u64("completed", s.completed.load(Ordering::Relaxed))
                .u64("shed", s.shed.load(Ordering::Relaxed))
                .u64("refused", s.refused.load(Ordering::Relaxed))
                .u64("recovered", s.recovered.load(Ordering::Relaxed))
                .u64("queue_depth", queue_depth)
                .u64("capacity", inner.cfg.capacity as u64)
                .u64("subscribers", inner.hub.subscriber_count() as u64)
                .u64("frames_delivered", drops.delivered)
                .u64("frames_dropped", drops.dropped)
                .bool("draining", inner.draining.load(Ordering::Relaxed))
                .finish()
        }
        Request::Shutdown => {
            inner.begin_drain();
            proto::reply_ok().bool("draining", true).finish()
        }
        Request::Subscribe { .. } => unreachable!("handled by serve_subscription"),
    }
}

/// Stream a job to this connection until its stream ends.  Returns
/// whether the connection is still usable for further requests.
fn serve_subscription(inner: &Inner, out: &mut TcpStream, job: u64, filter: proto::FilterSpec) -> bool {
    let filter = match filter.to_filter() {
        Ok(f) => f,
        Err(e) => return send_line(out, proto::reply_err(&e)).is_ok(),
    };
    // subscribe *before* inspecting the state so a job finishing right
    // now cannot slip between the check and the subscription
    let mut handle = inner.hub.subscribe(job, filter, inner.cfg.subscriber_buffer);
    let snapshot = {
        let jobs = relock(&inner.jobs);
        match jobs.get(&job) {
            None => {
                inner.hub.unsubscribe(handle.id);
                return send_line(out, proto::reply_err(&format!("unknown job {job}"))).is_ok();
            }
            Some(rec) => rec
                .outcome
                .as_ref()
                .map(|outcome| done_frame(job, &rec.spec, outcome)),
        }
    };
    let streaming = proto::reply_ok().u64("job", job).str("streaming", "1").finish();
    if send_line(out, streaming).is_err() {
        inner.hub.unsubscribe(handle.id);
        return false;
    }
    if let Some(done) = snapshot {
        // late subscriber to an already-terminal job: replay the summary
        inner.hub.unsubscribe(handle.id);
        return send_line(out, done + "\n" + &proto::frame_bye(job, 1, 0)).is_ok();
    }
    // the hub queues this subscriber's events; each turn takes all of
    // them and renders them to the socket a piece at a time
    loop {
        match handle.next_batch(out) {
            Ok(true) => {}
            // end of stream: the tail is out, then this subscriber's own totals
            Ok(false) => {
                let s = handle.stats();
                return send_line(out, proto::frame_bye(job, s.delivered, s.dropped)).is_ok();
            }
            Err(_) => {
                // peer died mid-stream: detach, the job keeps running
                inner.hub.unsubscribe(handle.id);
                return false;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;

    /// A handler that "runs" jobs by publishing a frame per replica,
    /// optionally blocking on a gate so tests can control timing.
    struct MockHandler {
        gate: Mutex<Option<std::sync::mpsc::Receiver<()>>>,
    }

    impl MockHandler {
        fn instant() -> Arc<Self> {
            Arc::new(MockHandler {
                gate: Mutex::new(None),
            })
        }

        fn gated() -> (Arc<Self>, std::sync::mpsc::Sender<()>) {
            let (tx, rx) = channel();
            (
                Arc::new(MockHandler {
                    gate: Mutex::new(Some(rx)),
                }),
                tx,
            )
        }
    }

    impl JobHandler for MockHandler {
        fn config_hash(&self, spec: &JobSpec) -> Result<u64, String> {
            if spec.protocol == "bogus" {
                return Err("unknown protocol".into());
            }
            Ok(spec.n_hosts ^ 0xabcd)
        }

        fn run(&self, spec: &JobSpec, ctx: &JobCtx<'_>) -> JobOutcome {
            if let Some(rx) = &*self.gate.lock().unwrap() {
                let _ = rx.recv_timeout(Duration::from_secs(10));
            }
            let mut digests = Vec::new();
            for k in 0..spec.replicas {
                if ctx.cancelled() {
                    return JobOutcome {
                        state: JobState::Interrupted,
                        replicas_done: k,
                        ..JobOutcome::interrupted()
                    };
                }
                ctx.hub.publish_frame(
                    ctx.job,
                    &proto::frame_replica_done(ctx.job, k, spec.seed + k, false, Some("feed"), None, None),
                );
                digests.push("feed".to_string());
            }
            JobOutcome {
                state: JobState::Done,
                replicas_done: spec.replicas,
                from_journal: 0,
                quarantined: 0,
                digests,
                pdr: Some(0.5),
                latency_ms: None,
                malformed_journal_lines: 0,
                error: None,
            }
        }

        fn lookup(&self, _state_dir: &Path, _config: u64, _seed: u64) -> Option<ReplicaLookup> {
            None
        }
    }

    /// A handler whose "simulation" is a closure over the job context:
    /// it publishes what the test scripts and reports the job done.
    struct Scripted<F>(F);

    impl<F: Fn(&JobCtx<'_>) + Send + Sync + 'static> JobHandler for Scripted<F> {
        fn config_hash(&self, _spec: &JobSpec) -> Result<u64, String> {
            Ok(1)
        }

        fn run(&self, spec: &JobSpec, ctx: &JobCtx<'_>) -> JobOutcome {
            (self.0)(ctx);
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

    /// A gate a scripted job blocks on until the test opens it.
    fn gate() -> (std::sync::mpsc::Sender<()>, impl Fn() + Send + Sync) {
        let (tx, rx) = channel::<()>();
        let rx = Mutex::new(rx);
        (tx, move || {
            let _ = rx.lock().unwrap().recv_timeout(Duration::from_secs(30));
        })
    }

    fn event(kind: trace::EventKind) -> trace::Event {
        trace::Event {
            t: sim_engine::SimTime::from_secs(1),
            kind,
        }
    }

    fn mac_event() -> trace::Event {
        event(trace::EventKind::MacRetry {
            node: radio::NodeId(3),
            attempt: 1,
        })
    }

    /// Submit the default job and subscribe to it on the same connection.
    fn submit_and_subscribe(
        r: &mut BufReader<TcpStream>,
        w: &mut TcpStream,
        filter: proto::FilterSpec,
    ) -> u64 {
        let sub = roundtrip(r, w, &Request::Submit(JobSpec::default()).encode());
        let job = json::u64_field(&sub, "job").unwrap();
        let ok = roundtrip(r, w, &Request::Subscribe { job, filter }.encode());
        assert_eq!(json::bool_field(&ok, "ok"), Some(true));
        job
    }

    fn next_frame(r: &mut BufReader<TcpStream>) -> String {
        let mut line = String::new();
        assert!(r.read_line(&mut line).unwrap() > 0, "stream closed early");
        line.trim().to_string()
    }

    /// Every frame up to and including `bye`.
    fn frames_to_bye(r: &mut BufReader<TcpStream>) -> Vec<String> {
        let mut frames = Vec::new();
        loop {
            frames.push(next_frame(r));
            if json::field(frames.last().unwrap(), "stream") == Some("bye") {
                return frames;
            }
        }
    }

    fn test_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("ecgrid_service_unit_{tag}"));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn connect(addr: SocketAddr) -> (BufReader<TcpStream>, TcpStream) {
        let s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        (BufReader::new(s.try_clone().unwrap()), s)
    }

    fn roundtrip(r: &mut BufReader<TcpStream>, w: &mut TcpStream, req: &str) -> String {
        writeln!(w, "{req}").unwrap();
        let mut line = String::new();
        r.read_line(&mut line).unwrap();
        line.trim().to_string()
    }

    #[test]
    fn submit_run_status_lifecycle() {
        let dir = test_dir("lifecycle");
        let srv = Server::start(
            ServiceConfig::default().with_state_dir(&dir),
            MockHandler::instant(),
        )
        .unwrap();
        let (mut r, mut w) = connect(srv.local_addr());
        let pong = roundtrip(&mut r, &mut w, &Request::Ping.encode());
        assert_eq!(json::field(&pong, "pong"), Some("sweepd"));
        let sub = roundtrip(
            &mut r,
            &mut w,
            &Request::Submit(JobSpec {
                replicas: 2,
                ..JobSpec::default()
            })
            .encode(),
        );
        assert_eq!(json::bool_field(&sub, "ok"), Some(true));
        let job = json::u64_field(&sub, "job").unwrap();
        // poll status until terminal
        let mut state = String::new();
        for _ in 0..100 {
            let st = roundtrip(&mut r, &mut w, &Request::Status { job: Some(job) }.encode());
            state = json::field(&st, "state").unwrap().to_string();
            if state == "done" {
                break;
            }
            thread::sleep(Duration::from_millis(20));
        }
        assert_eq!(state, "done");
        srv.request_shutdown();
        let summary = srv.wait();
        assert_eq!(summary.submitted, 1);
        assert_eq!(summary.completed, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_panic_under_the_jobs_lock_does_not_take_the_server_down() {
        let dir = test_dir("poisoned");
        let srv = Server::start(
            ServiceConfig::default().with_state_dir(&dir),
            MockHandler::instant(),
        )
        .unwrap();
        let inner = srv.inner.clone();
        let poisoner = thread::spawn(move || {
            let _jobs = inner.jobs.lock().unwrap();
            panic!("handler bug while holding the job table");
        });
        assert!(poisoner.join().is_err());
        assert!(srv.inner.jobs.is_poisoned());
        let (mut r, mut w) = connect(srv.local_addr());
        let all = roundtrip(&mut r, &mut w, &Request::Status { job: None }.encode());
        assert_eq!(json::bool_field(&all, "ok"), Some(true), "{all}");
        let stats = roundtrip(&mut r, &mut w, &Request::Stats.encode());
        assert_eq!(json::bool_field(&stats, "ok"), Some(true), "{stats}");
        let sub = roundtrip(&mut r, &mut w, &Request::Submit(JobSpec::default()).encode());
        assert_eq!(json::bool_field(&sub, "ok"), Some(true), "{sub}");
        let job = json::u64_field(&sub, "job").unwrap();
        let mut state = String::new();
        for _ in 0..100 {
            let st = roundtrip(&mut r, &mut w, &Request::Status { job: Some(job) }.encode());
            state = json::field(&st, "state").unwrap().to_string();
            if state == "done" {
                break;
            }
            thread::sleep(Duration::from_millis(20));
        }
        assert_eq!(state, "done");
        srv.request_shutdown();
        assert_eq!(srv.wait().completed, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn overflow_submissions_are_shed_with_a_hint() {
        let dir = test_dir("shed");
        // one gated worker + capacity 1: job A occupies the worker, job B
        // fills the queue, job C must shed
        let (handler, gate) = MockHandler::gated();
        let srv = Server::start(
            ServiceConfig::default()
                .with_state_dir(&dir)
                .with_workers(1)
                .with_capacity(1)
                .with_retry_after_ms(321),
            handler,
        )
        .unwrap();
        let (mut r, mut w) = connect(srv.local_addr());
        let submit = Request::Submit(JobSpec::default()).encode();
        let a = roundtrip(&mut r, &mut w, &submit);
        assert_eq!(json::bool_field(&a, "ok"), Some(true));
        // wait for the worker to pick job A up so the queue is empty
        let job_a = json::u64_field(&a, "job").unwrap();
        for _ in 0..100 {
            let st = roundtrip(&mut r, &mut w, &Request::Status { job: Some(job_a) }.encode());
            if json::field(&st, "state") == Some("running") {
                break;
            }
            thread::sleep(Duration::from_millis(10));
        }
        let b = roundtrip(&mut r, &mut w, &submit);
        assert_eq!(json::bool_field(&b, "ok"), Some(true));
        let c = roundtrip(&mut r, &mut w, &submit);
        assert_eq!(json::bool_field(&c, "ok"), Some(false));
        assert_eq!(json::bool_field(&c, "shed"), Some(true));
        assert_eq!(json::u64_field(&c, "retry_after_ms"), Some(321));
        gate.send(()).unwrap();
        gate.send(()).unwrap();
        srv.request_shutdown();
        let summary = srv.wait();
        assert_eq!(summary.shed, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_specs_and_unknown_jobs_get_error_replies() {
        let dir = test_dir("badspec");
        let srv = Server::start(
            ServiceConfig::default().with_state_dir(&dir),
            MockHandler::instant(),
        )
        .unwrap();
        let (mut r, mut w) = connect(srv.local_addr());
        let bad = roundtrip(
            &mut r,
            &mut w,
            &Request::Submit(JobSpec {
                protocol: "bogus".into(),
                ..JobSpec::default()
            })
            .encode(),
        );
        assert_eq!(json::bool_field(&bad, "ok"), Some(false));
        let unknown = roundtrip(&mut r, &mut w, &Request::Status { job: Some(999) }.encode());
        assert_eq!(json::bool_field(&unknown, "ok"), Some(false));
        let garbage = roundtrip(&mut r, &mut w, "completely not json");
        assert_eq!(json::bool_field(&garbage, "ok"), Some(false));
        // the connection survived all three errors
        let pong = roundtrip(&mut r, &mut w, &Request::Ping.encode());
        assert_eq!(json::bool_field(&pong, "ok"), Some(true));
        srv.request_shutdown();
        srv.wait();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_request_line_past_the_cap_gets_one_error_and_a_hang_up() {
        let dir = test_dir("linecap");
        let srv = Server::start(
            ServiceConfig::default().with_state_dir(&dir),
            MockHandler::instant(),
        )
        .unwrap();
        let (mut r, mut w) = connect(srv.local_addr());
        // twice the cap and never a newline; the server hangs up partway,
        // so the tail of the write may fail — that is the point
        let flood = vec![b'a'; 2 * MAX_REQUEST_LINE];
        let _ = w.write_all(&flood);
        let mut reply = String::new();
        r.read_line(&mut reply).unwrap();
        assert_eq!(json::bool_field(&reply, "ok"), Some(false), "{reply}");
        assert!(reply.contains("exceeds"), "{reply}");
        let mut rest = String::new();
        // EOF, or a reset because the server closed on unread bytes
        assert!(matches!(r.read_line(&mut rest), Ok(0) | Err(_)), "{rest}");
        // a line exactly at the cap is still a request (a malformed one)
        let (mut r, mut w) = connect(srv.local_addr());
        let mut at_cap = vec![b'a'; MAX_REQUEST_LINE];
        at_cap.push(b'\n');
        w.write_all(&at_cap).unwrap();
        let mut reply = String::new();
        r.read_line(&mut reply).unwrap();
        assert!(reply.contains("missing cmd"), "{reply}");
        let pong = roundtrip(&mut r, &mut w, &Request::Ping.encode());
        assert_eq!(json::bool_field(&pong, "ok"), Some(true));
        srv.request_shutdown();
        srv.wait();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn drain_interrupts_queued_jobs_and_restart_requeues_them() {
        let dir = test_dir("drainrestart");
        let (handler, gate) = MockHandler::gated();
        let srv = Server::start(
            ServiceConfig::default()
                .with_state_dir(&dir)
                .with_workers(1)
                .with_capacity(8),
            handler,
        )
        .unwrap();
        let (mut r, mut w) = connect(srv.local_addr());
        let submit = Request::Submit(JobSpec::default()).encode();
        let a = roundtrip(&mut r, &mut w, &submit); // will run (gated)
        let b = roundtrip(&mut r, &mut w, &submit); // stays queued
        assert_eq!(json::bool_field(&b, "ok"), Some(true));
        let job_a = json::u64_field(&a, "job").unwrap();
        for _ in 0..100 {
            let st = roundtrip(&mut r, &mut w, &Request::Status { job: Some(job_a) }.encode());
            if json::field(&st, "state") == Some("running") {
                break;
            }
            thread::sleep(Duration::from_millis(10));
        }
        let sd = roundtrip(&mut r, &mut w, &Request::Shutdown.encode());
        assert_eq!(json::bool_field(&sd, "ok"), Some(true));
        gate.send(()).unwrap(); // let job A's handler proceed (it will see cancel)
        let summary = srv.wait();
        assert!(summary.interrupted >= 1, "queued job must be marked interrupted");

        // restart over the same state dir: both unfinished jobs requeue
        let srv2 = Server::start(
            ServiceConfig::default().with_state_dir(&dir),
            MockHandler::instant(),
        )
        .unwrap();
        let (mut r2, mut w2) = connect(srv2.local_addr());
        let mut done = 0;
        for _ in 0..200 {
            let st = roundtrip(&mut r2, &mut w2, &Request::Status { job: None }.encode());
            done = json::u64_field(&st, "done").unwrap();
            if done == 2 {
                break;
            }
            thread::sleep(Duration::from_millis(20));
        }
        assert_eq!(done, 2, "recovered jobs must re-run to completion");
        srv2.request_shutdown();
        let s2 = srv2.wait();
        assert_eq!(s2.recovered, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn subscribe_streams_to_done_and_reports_bye() {
        let dir = test_dir("stream");
        let (handler, gate) = MockHandler::gated();
        let srv = Server::start(
            ServiceConfig::default().with_state_dir(&dir).with_workers(1),
            handler,
        )
        .unwrap();
        let (mut r, mut w) = connect(srv.local_addr());
        let sub = roundtrip(
            &mut r,
            &mut w,
            &Request::Submit(JobSpec {
                replicas: 3,
                ..JobSpec::default()
            })
            .encode(),
        );
        let job = json::u64_field(&sub, "job").unwrap();
        let ok = roundtrip(
            &mut r,
            &mut w,
            &Request::Subscribe {
                job,
                filter: proto::FilterSpec::default(),
            }
            .encode(),
        );
        assert_eq!(json::bool_field(&ok, "ok"), Some(true));
        gate.send(()).unwrap();
        let mut frames = Vec::new();
        loop {
            let mut line = String::new();
            r.read_line(&mut line).unwrap();
            let line = line.trim().to_string();
            let stream = json::field(&line, "stream").unwrap().to_string();
            frames.push(line);
            if stream == "bye" {
                break;
            }
        }
        let streams: Vec<&str> = frames.iter().map(|f| json::field(f, "stream").unwrap()).collect();
        assert!(streams.contains(&"replica_done"));
        assert_eq!(streams[streams.len() - 2], "done");
        assert_eq!(streams[streams.len() - 1], "bye");
        // late subscriber gets the replayed summary
        let ok2 = roundtrip(
            &mut r,
            &mut w,
            &Request::Subscribe {
                job,
                filter: proto::FilterSpec::default(),
            }
            .encode(),
        );
        assert_eq!(json::bool_field(&ok2, "ok"), Some(true));
        let mut done = String::new();
        r.read_line(&mut done).unwrap();
        assert_eq!(json::field(&done, "stream"), Some("done"));
        let mut bye = String::new();
        r.read_line(&mut bye).unwrap();
        assert_eq!(json::field(&bye, "stream"), Some("bye"));
        srv.request_shutdown();
        srv.wait();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bye_totals_equal_what_the_socket_carried_under_tiny_budgets() {
        const EVENTS: u64 = 3000;
        for budget in [1usize, 2, 8] {
            let dir = test_dir(&format!("bye_totals_{budget}"));
            let (open, wait) = gate();
            let handler = Arc::new(Scripted(move |ctx: &JobCtx<'_>| {
                wait();
                for i in 0..EVENTS {
                    ctx.hub.publish_events(ctx.job, 0, "ECGRID", &[mac_event()]);
                    if i % 100 == 0 {
                        ctx.hub
                            .publish_frame(ctx.job, &proto::frame_counter(ctx.job, 0, "n", i));
                    }
                }
            }));
            let srv = Server::start(
                ServiceConfig::default()
                    .with_state_dir(&dir)
                    .with_workers(1)
                    .with_subscriber_buffer(budget),
                handler,
            )
            .unwrap();
            let (mut r, mut w) = connect(srv.local_addr());
            submit_and_subscribe(&mut r, &mut w, proto::FilterSpec::default());
            open.send(()).unwrap();
            let frames = frames_to_bye(&mut r);
            let (bye, carried) = frames.split_last().unwrap();
            let delivered = json::u64_field(bye, "delivered").unwrap();
            let dropped = json::u64_field(bye, "dropped").unwrap();
            assert_eq!(delivered, carried.len() as u64, "budget {budget}: {bye}");
            // the `running` frame is published before the handler runs:
            // offered only if the subscription beat it, and then into an
            // empty buffer, so never dropped
            let saw_running = carried.iter().any(|f| json::field(f, "stream") == Some("job"));
            let offered = EVENTS + EVENTS / 100 + 1 + u64::from(saw_running);
            assert_eq!(delivered + dropped, offered, "budget {budget}: {bye}");
            // the connection is back in request/reply mode
            let pong = roundtrip(&mut r, &mut w, &Request::Ping.encode());
            assert_eq!(json::bool_field(&pong, "ok"), Some(true));
            srv.request_shutdown();
            let summary = srv.wait();
            assert_eq!(summary.events_delivered, delivered);
            assert_eq!(summary.events_dropped, dropped);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn a_trickle_subscription_sees_its_first_event_while_the_job_still_runs() {
        let dir = test_dir("trickle");
        let (open_start, wait_start) = gate();
        let (open_end, wait_end) = gate();
        let handler = Arc::new(Scripted(move |ctx: &JobCtx<'_>| {
            wait_start();
            for _ in 0..50 {
                ctx.hub.publish_events(ctx.job, 0, "ECGRID", &[mac_event()]);
            }
            let sent = event(trace::EventKind::PacketSent {
                src: radio::NodeId(1),
                flow: 0,
                seq: 0,
            });
            ctx.hub.publish_events(ctx.job, 0, "ECGRID", &[sent]);
            // the "simulation" goes on, with nothing more for this filter
            wait_end();
        }));
        let srv = Server::start(
            ServiceConfig::default().with_state_dir(&dir).with_workers(1),
            handler,
        )
        .unwrap();
        let (mut r, mut w) = connect(srv.local_addr());
        let app_only = proto::FilterSpec {
            layers: "app".into(),
            ..proto::FilterSpec::default()
        };
        let job = submit_and_subscribe(&mut r, &mut w, app_only);
        open_start.send(()).unwrap();
        // one frame in a 1024-frame buffer: it must arrive now, not when
        // a batch fills or the job ends (the job is parked on its gate)
        let first_event = loop {
            let f = next_frame(&mut r);
            if json::field(&f, "stream") == Some("event") {
                break f;
            }
        };
        assert_eq!(json::field(&first_event, "kind"), Some("packet_sent"));
        let (mut r2, mut w2) = connect(srv.local_addr());
        let st = roundtrip(&mut r2, &mut w2, &Request::Status { job: Some(job) }.encode());
        assert_eq!(json::field(&st, "state"), Some("running"));
        open_end.send(()).unwrap();
        let rest = frames_to_bye(&mut r);
        assert_eq!(json::field(&rest[rest.len() - 2], "stream"), Some("done"));
        assert_eq!(json::u64_field(rest.last().unwrap(), "dropped"), Some(0));
        srv.request_shutdown();
        srv.wait();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_poisoned_hub_does_not_stop_the_running_job_or_its_stream() {
        let dir = test_dir("poisoned_hub");
        let (open, wait) = gate();
        let handler = Arc::new(Scripted(move |ctx: &JobCtx<'_>| {
            wait();
            ctx.hub.publish_events(ctx.job, 0, "ECGRID", &[mac_event()]);
            // some thread dies holding every hub lock, mid-line
            ctx.hub.poison_for_test();
            ctx.hub.publish_events(ctx.job, 1, "ECGRID", &[mac_event()]);
        }));
        let srv = Server::start(
            ServiceConfig::default().with_state_dir(&dir).with_workers(1),
            handler,
        )
        .unwrap();
        let (mut r, mut w) = connect(srv.local_addr());
        let job = submit_and_subscribe(&mut r, &mut w, proto::FilterSpec::default());
        open.send(()).unwrap();
        let frames = frames_to_bye(&mut r);
        let replicas: Vec<u64> = frames
            .iter()
            .filter(|f| json::field(f, "stream") == Some("event"))
            .map(|f| json::u64_field(f, "replica").unwrap())
            .collect();
        assert_eq!(replicas, [0, 1], "both events, and no torn line: {frames:?}");
        let done = &frames[frames.len() - 2];
        assert_eq!(json::field(done, "stream"), Some("done"));
        assert_eq!(json::field(done, "state"), Some("done"));
        let st = roundtrip(&mut r, &mut w, &Request::Status { job: Some(job) }.encode());
        assert_eq!(json::field(&st, "state"), Some("done"));
        // subscribing still works afterwards (the replay path)
        let ok = roundtrip(
            &mut r,
            &mut w,
            &Request::Subscribe {
                job,
                filter: proto::FilterSpec::default(),
            }
            .encode(),
        );
        assert_eq!(json::bool_field(&ok, "ok"), Some(true));
        assert_eq!(frames_to_bye(&mut r).len(), 2);
        srv.request_shutdown();
        srv.wait();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
