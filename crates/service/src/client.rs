//! The client library behind `sweepc`: connect with jittered backoff,
//! submit with shed-aware retry, and stream a job to completion across
//! server restarts and dropped connections.
//!
//! Delivery semantics are deliberately asymmetric: *event* frames are
//! at-most-once (a reconnect window loses whatever was published while
//! disconnected, on top of whatever the server's bounded buffer dropped
//! — both losses are counted, never silent), while the job's terminal
//! `done` summary is effectively at-least-once: a resubscription to a
//! finished job replays it, so [`Client::stream_job`] always ends on a
//! faithful summary or an explicit error.

use crate::backoff::Backoff;
use crate::json;
use crate::proto::{FilterSpec, JobSpec, JobState, Request};
use crate::{READ_TIMEOUT, WRITE_TIMEOUT};
use std::fmt;
use std::io::{self, BufRead, BufReader, Write as _};
use std::net::TcpStream;
use std::time::Duration;

#[derive(Clone, Debug)]
pub struct ClientConfig {
    pub addr: String,
    /// Connection attempts per [`Client::ensure_connected`] cycle before
    /// giving up (initial connect and every mid-stream reconnect).
    pub connect_attempts: u32,
    /// Backoff envelope between attempts (see [`Backoff`]).
    pub backoff_base_ms: u64,
    pub backoff_cap_ms: u64,
    /// Jitter seed; fixed seeds make reconnect schedules reproducible.
    pub backoff_seed: u64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            addr: "127.0.0.1:7171".into(),
            connect_attempts: 5,
            backoff_base_ms: 100,
            backoff_cap_ms: 5_000,
            backoff_seed: 0,
        }
    }
}

impl ClientConfig {
    pub fn with_addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    pub fn with_backoff(mut self, base_ms: u64, cap_ms: u64, seed: u64) -> Self {
        self.backoff_base_ms = base_ms;
        self.backoff_cap_ms = cap_ms;
        self.backoff_seed = seed;
        self
    }

    pub fn with_connect_attempts(mut self, n: u32) -> Self {
        self.connect_attempts = n.max(1);
        self
    }
}

#[derive(Debug)]
pub enum ClientError {
    /// Transport failed and reconnection attempts were exhausted.
    Io(io::Error),
    /// The server answered, but not with what the protocol promises.
    Protocol(String),
    /// The server refused the request (bad spec, unknown job, draining).
    Rejected(String),
    /// Submission kept being load-shed past the retry limit.
    ShedLimit { attempts: u32 },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection failed: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Rejected(m) => write!(f, "rejected: {m}"),
            ClientError::ShedLimit { attempts } => {
                write!(f, "load-shed {attempts} times; giving up")
            }
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// What `submit` came back with.
#[derive(Clone, Debug)]
pub enum SubmitOutcome {
    Accepted { job: u64, config: u64 },
    Shed { retry_after_ms: u64 },
}

/// Terminal summary of a streamed job (`done` frame + the subscriber's
/// own `bye` accounting).
#[derive(Clone, Debug, Default)]
pub struct DoneInfo {
    pub job: u64,
    pub state: Option<JobState>,
    pub replicas: u64,
    pub completed: u64,
    pub from_journal: u64,
    pub quarantined: u64,
    /// Per-replica trace digests (hex strings), replica order.
    pub digests: Vec<String>,
    /// Averaged metrics, decoded bit-exactly off the wire.
    pub pdr: Option<f64>,
    pub latency_ms: Option<f64>,
    pub error: Option<String>,
    /// This subscriber's loss accounting (from its final `bye` frame).
    pub delivered: u64,
    pub dropped: u64,
    /// Mid-stream reconnects the client performed.
    pub reconnects: u32,
}

fn parse_done(frame: &str) -> DoneInfo {
    DoneInfo {
        job: json::u64_field(frame, "job").unwrap_or(0),
        state: json::field(frame, "state").and_then(JobState::parse),
        replicas: json::u64_field(frame, "replicas").unwrap_or(0),
        completed: json::u64_field(frame, "completed").unwrap_or(0),
        from_journal: json::u64_field(frame, "from_journal").unwrap_or(0),
        quarantined: json::u64_field(frame, "quarantined").unwrap_or(0),
        digests: json::field(frame, "digests")
            .unwrap_or("")
            .split(';')
            .filter(|s| !s.is_empty())
            .map(str::to_string)
            .collect(),
        pdr: json::hex_field(frame, "pdr").map(f64::from_bits),
        latency_ms: json::hex_field(frame, "latency_ms").map(f64::from_bits),
        error: json::str_field(frame, "error").filter(|e| e != "null"),
        ..DoneInfo::default()
    }
}

struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

pub struct Client {
    cfg: ClientConfig,
    backoff: Backoff,
    conn: Option<Conn>,
    reconnects: u32,
}

impl Client {
    /// Build a client and establish the first connection (with backoff).
    pub fn connect(cfg: ClientConfig) -> Result<Client, ClientError> {
        let backoff = Backoff::new(cfg.backoff_base_ms, cfg.backoff_cap_ms, cfg.backoff_seed);
        let mut c = Client {
            cfg,
            backoff,
            conn: None,
            reconnects: 0,
        };
        c.ensure_connected()?;
        Ok(c)
    }

    /// Total mid-stream/mid-request reconnects performed so far.
    pub fn reconnects(&self) -> u32 {
        self.reconnects
    }

    fn dial(&self) -> io::Result<Conn> {
        let stream = TcpStream::connect(&self.cfg.addr)?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Conn {
            reader,
            writer: stream,
        })
    }

    /// Connect if not connected, retrying with jittered exponential
    /// backoff up to `connect_attempts` times.
    pub fn ensure_connected(&mut self) -> Result<(), ClientError> {
        if self.conn.is_some() {
            return Ok(());
        }
        let mut last: Option<io::Error> = None;
        for attempt in 0..self.cfg.connect_attempts.max(1) {
            if attempt > 0 {
                std::thread::sleep(self.backoff.next_delay());
            }
            match self.dial() {
                Ok(conn) => {
                    self.conn = Some(conn);
                    self.backoff.reset();
                    return Ok(());
                }
                Err(e) => last = Some(e),
            }
        }
        Err(ClientError::Io(last.unwrap_or_else(|| {
            io::Error::new(io::ErrorKind::NotConnected, "no connection attempts made")
        })))
    }

    fn drop_conn(&mut self) {
        self.conn = None;
        self.reconnects = self.reconnects.saturating_add(1);
    }

    /// One request/reply exchange on the current connection.
    fn exchange(&mut self, line: &str) -> io::Result<String> {
        let conn = self
            .conn
            .as_mut()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotConnected, "not connected"))?;
        // one write, newline included: a bare `TCP_NODELAY` stream
        // sends every `write` as a segment of its own
        conn.writer.write_all(format!("{line}\n").as_bytes())?;
        let mut reply = String::new();
        if conn.reader.read_line(&mut reply)? == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"));
        }
        Ok(reply.trim().to_string())
    }

    /// Send a request; on transport failure, reconnect (with backoff) and
    /// retry.  Only safe for idempotent requests — `submit` goes through
    /// [`Client::submit`] instead, which never auto-retries an exchange
    /// whose reply was lost (that could double-enqueue the job).
    pub fn request_idempotent(&mut self, req: &Request) -> Result<String, ClientError> {
        let line = req.encode();
        let mut last: Option<io::Error> = None;
        for _ in 0..self.cfg.connect_attempts.max(1) {
            self.ensure_connected()?;
            match self.exchange(&line) {
                Ok(reply) => return Ok(reply),
                Err(e) => {
                    last = Some(e);
                    self.drop_conn();
                }
            }
        }
        Err(ClientError::Io(last.unwrap_or_else(|| {
            io::Error::new(io::ErrorKind::NotConnected, "request failed")
        })))
    }

    /// Submit once: connect if needed, one exchange, no blind retry.
    pub fn submit(&mut self, spec: &JobSpec) -> Result<SubmitOutcome, ClientError> {
        self.ensure_connected()?;
        let reply = match self.exchange(&Request::Submit(spec.clone()).encode()) {
            Ok(r) => r,
            Err(e) => {
                self.drop_conn();
                return Err(ClientError::Io(e));
            }
        };
        if json::bool_field(&reply, "ok") == Some(true) {
            let job = json::u64_field(&reply, "job")
                .ok_or_else(|| ClientError::Protocol(format!("submit reply without job: {reply}")))?;
            let config = json::hex_field(&reply, "config")
                .ok_or_else(|| ClientError::Protocol(format!("submit reply without config: {reply}")))?;
            Ok(SubmitOutcome::Accepted { job, config })
        } else if json::bool_field(&reply, "shed") == Some(true) {
            Ok(SubmitOutcome::Shed {
                retry_after_ms: json::u64_field(&reply, "retry_after_ms").unwrap_or(500),
            })
        } else {
            Err(ClientError::Rejected(
                json::str_field(&reply, "error").unwrap_or(reply),
            ))
        }
    }

    /// Submit, honoring shed replies: sleep the server's retry-after hint
    /// (plus client-side jitter) and try again, up to `max_sheds` sheds.
    pub fn submit_until_accepted(
        &mut self,
        spec: &JobSpec,
        max_sheds: u32,
    ) -> Result<(u64, u64), ClientError> {
        let mut sheds = 0;
        loop {
            match self.submit(spec)? {
                SubmitOutcome::Accepted { job, config } => return Ok((job, config)),
                SubmitOutcome::Shed { retry_after_ms } => {
                    sheds += 1;
                    if sheds > max_sheds {
                        return Err(ClientError::ShedLimit { attempts: sheds });
                    }
                    let jitter = self
                        .backoff
                        .next_delay()
                        .min(Duration::from_millis(retry_after_ms));
                    std::thread::sleep(Duration::from_millis(retry_after_ms) + jitter);
                }
            }
        }
    }

    /// Subscribe to `job` and pump frames into `on_frame` until the
    /// terminal summary arrives.  Transport failures mid-stream reconnect
    /// with backoff and resubscribe; a job that finished in the meantime
    /// is resolved through the server's done-replay path.
    pub fn stream_job(
        &mut self,
        job: u64,
        filter: &FilterSpec,
        mut on_frame: impl FnMut(&str),
    ) -> Result<DoneInfo, ClientError> {
        let mut cycles = 0;
        loop {
            cycles += 1;
            if cycles > self.cfg.connect_attempts.max(1) * 4 {
                return Err(ClientError::Protocol("stream kept failing; giving up".into()));
            }
            self.ensure_connected()?;
            let sub = Request::Subscribe {
                job,
                filter: filter.clone(),
            };
            let reply = match self.exchange(&sub.encode()) {
                Ok(r) => r,
                Err(_) => {
                    self.drop_conn();
                    continue;
                }
            };
            if json::bool_field(&reply, "ok") != Some(true) {
                return Err(ClientError::Rejected(
                    json::str_field(&reply, "error").unwrap_or(reply),
                ));
            }
            match self.pump_stream(&mut on_frame) {
                Ok(Some(mut info)) => {
                    info.reconnects = self.reconnects;
                    return Ok(info);
                }
                Ok(None) | Err(_) => {
                    // stream broke before the summary: reconnect and
                    // resubscribe (replay resolves finished jobs)
                    self.drop_conn();
                    continue;
                }
            }
        }
    }

    /// Read stream frames until `bye` (returning the summary) or a
    /// transport failure (returning `Err`/`Ok(None)`).
    fn pump_stream(&mut self, on_frame: &mut impl FnMut(&str)) -> io::Result<Option<DoneInfo>> {
        let conn = self
            .conn
            .as_mut()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotConnected, "not connected"))?;
        let mut done: Option<DoneInfo> = None;
        // one line buffer for the whole stream: at a million frames a
        // second an allocation per frame is what the reader would spend
        // its time on
        let mut line = String::new();
        loop {
            line.clear();
            match conn.reader.read_line(&mut line) {
                Ok(0) => return Ok(done), // server closed; summary only if seen
                Ok(_) => {}
                Err(e) => {
                    // if the summary already arrived, a lost bye frame is
                    // not worth a resubscribe
                    return if done.is_some() { Ok(done) } else { Err(e) };
                }
            }
            let frame = line.trim();
            if frame.is_empty() {
                continue;
            }
            on_frame(frame);
            match stream_kind(frame) {
                Some("done") => done = Some(parse_done(frame)),
                Some("bye") => {
                    if let Some(info) = &mut done {
                        info.delivered = json::u64_field(frame, "delivered").unwrap_or(0);
                        info.dropped = json::u64_field(frame, "dropped").unwrap_or(0);
                    }
                    return Ok(done);
                }
                _ => {}
            }
        }
    }
}

/// The `stream` member of a frame.  Servers write it first, so this is a
/// prefix check; any other layout falls back to the field scanner.
fn stream_kind(frame: &str) -> Option<&str> {
    match frame.strip_prefix("{\"stream\":\"") {
        Some(rest) => rest.find('"').map(|end| &rest[..end]),
        None => json::field(frame, "stream"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connect_to_dead_port_fails_after_bounded_backoff() {
        // bind-then-drop guarantees a port with no listener
        let port = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().port()
        };
        let cfg = ClientConfig::default()
            .with_addr(format!("127.0.0.1:{port}"))
            .with_backoff(1, 4, 7)
            .with_connect_attempts(3);
        let start = std::time::Instant::now();
        match Client::connect(cfg) {
            Err(ClientError::Io(_)) => {}
            Err(other) => panic!("expected Io error, got {other}"),
            Ok(_) => panic!("expected Io error, got a connection"),
        }
        // 3 attempts with ~1-4ms delays: fail fast, not hang
        assert!(start.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn stream_kind_reads_the_leading_member_or_scans_for_it() {
        assert_eq!(stream_kind("{\"stream\":\"event\",\"job\":1}"), Some("event"));
        assert_eq!(stream_kind("{\"job\":1,\"stream\":\"bye\"}"), Some("bye"));
        assert_eq!(stream_kind("{\"stream\":\"torn"), None);
        assert_eq!(stream_kind("{\"ok\":true}"), None);
    }

    #[test]
    fn done_frame_parses_bit_exact_metrics() {
        let pdr: f64 = 0.1 + 0.2;
        let frame = format!(
            "{{\"stream\":\"done\",\"job\":9,\"state\":\"done\",\"replicas\":3,\"completed\":2,\
             \"from_journal\":1,\"quarantined\":1,\"digests\":\"aa;bb\",\"pdr\":\"{:016x}\",\
             \"latency_ms\":null,\"error\":null}}",
            pdr.to_bits()
        );
        let info = parse_done(&frame);
        assert_eq!(info.job, 9);
        assert_eq!(info.state, Some(JobState::Done));
        assert_eq!(info.digests, vec!["aa", "bb"]);
        assert_eq!(info.pdr.map(f64::to_bits), Some(pdr.to_bits()));
        assert_eq!(info.latency_ms, None);
        assert_eq!(info.error, None);
        assert_eq!(info.quarantined, 1);
    }
}
