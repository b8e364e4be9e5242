//! The wire protocol: requests, replies, and stream frames.
//!
//! Transport is TCP carrying UTF-8 lines; every line is one flat JSON
//! object (see [`crate::json`]).  Grammar:
//!
//! ```text
//! request  := {"cmd":"ping"}
//!           | {"cmd":"submit", <scenario fields>, "replicas":N, "faults":S}
//!           | {"cmd":"status"} | {"cmd":"status","job":N}
//!           | {"cmd":"subscribe","job":N [,"layers":S][,"node":N]
//!              [,"cell_x":N,"cell_y":N][,"protocol":S]}
//!           | {"cmd":"result","config":H,"seed":N}
//!           | {"cmd":"stats"} | {"cmd":"shutdown"}
//! reply    := {"ok":true, ...} | {"ok":false,"error":S [,"shed":true,
//!              "retry_after_ms":N,"queued":N,"capacity":N]}
//! frame    := {"stream":"event"|"metric"|"replica_done"|
//!              "replica_quarantined"|"failure"|"job"|"done"|"bye", ...}
//! ```
//!
//! A `subscribe` switches the connection into stream mode: the server
//! sends frames until the job's terminal `done` frame, then a `bye` frame
//! carrying the subscriber's own delivered/dropped totals, after which
//! the connection reverts to request/reply.  Floats that must survive a
//! round trip bit for bit (averaged metrics) travel as 16-hex-digit bit
//! patterns; human-oriented floats (scenario config) travel as shortest
//! decimal, which Rust's formatter already round-trips exactly.

use crate::json::{self, Obj};
use trace::event::push_u64;
use trace::{Event, EventFilter, JsonRenderer};

/// Protocol version, written into every job manifest and the `ping`
/// reply.  2: `scenario` carries the scenario text itself (version 1
/// sent it hex-encoded).
pub const PROTO_VERSION: u64 = 2;

/// One job: a scenario shape, replica count, and fault plan — everything
/// the server needs to reconstruct the work after a crash, which is why
/// the same encoding serves as both the submit request body and the
/// on-disk job manifest.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    pub protocol: String,
    pub n_hosts: u64,
    pub max_speed: f64,
    pub pause_secs: f64,
    pub n_flows: u64,
    pub flow_rate_pps: f64,
    pub duration_secs: f64,
    pub seed: u64,
    pub model1_endpoints: u64,
    /// Replicas to run (replica `k` re-derives its seed from `seed`).
    pub replicas: u64,
    /// Fault-plan spec string (e.g. `"loss=0.1,churn=2"`); empty = none.
    pub faults: String,
    /// Scenario-file text (`.scn`); empty = a classic homogeneous job
    /// described by the scalar fields above.  When present, the scenario
    /// text is authoritative for the fleet shape and base seed, and the
    /// scalar shape fields are ignored (the `protocol` and `faults`
    /// strings still apply).
    pub scenario: String,
}

impl Default for JobSpec {
    /// A small smoke-scale ECGRID point (the golden-trace scenario).
    fn default() -> Self {
        JobSpec {
            protocol: "ecgrid".into(),
            n_hosts: 30,
            max_speed: 1.0,
            pause_secs: 0.0,
            n_flows: 3,
            flow_rate_pps: 1.0,
            duration_secs: 40.0,
            seed: 11,
            model1_endpoints: 4,
            replicas: 1,
            faults: String::new(),
            scenario: String::new(),
        }
    }
}

/// One optional field of a request line: `dflt` when the key is missing,
/// an error naming the key when it is present but `get` cannot read it.
fn take<T>(line: &str, key: &str, get: impl Fn(&str, &str) -> Option<T>, dflt: T) -> Result<T, String> {
    if json::field(line, key).is_none() {
        return Ok(dflt);
    }
    get(line, key).ok_or_else(|| format!("bad field {key}"))
}

impl JobSpec {
    /// Append the spec's fields onto an [`Obj`] under construction.
    pub fn encode_onto(&self, o: Obj) -> Obj {
        let o = o
            .str("protocol", &self.protocol)
            .u64("n_hosts", self.n_hosts)
            .f64("max_speed", self.max_speed)
            .f64("pause_secs", self.pause_secs)
            .u64("n_flows", self.n_flows)
            .f64("flow_rate_pps", self.flow_rate_pps)
            .f64("duration_secs", self.duration_secs)
            .u64("seed", self.seed)
            .u64("model1_endpoints", self.model1_endpoints)
            .u64("replicas", self.replicas)
            .str("faults", &self.faults);
        if self.scenario.is_empty() {
            o
        } else {
            o.str("scenario", &self.scenario)
        }
    }

    /// Parse the spec fields out of any line carrying them (submit
    /// request or job manifest).  Missing fields fall back to the
    /// defaults; present-but-garbled fields are an error.
    pub fn parse(line: &str) -> Result<JobSpec, String> {
        let d = JobSpec::default();
        Ok(JobSpec {
            protocol: take(line, "protocol", json::str_field, d.protocol)?,
            n_hosts: take(line, "n_hosts", json::u64_field, d.n_hosts)?,
            max_speed: take(line, "max_speed", json::f64_field, d.max_speed)?,
            pause_secs: take(line, "pause_secs", json::f64_field, d.pause_secs)?,
            n_flows: take(line, "n_flows", json::u64_field, d.n_flows)?,
            flow_rate_pps: take(line, "flow_rate_pps", json::f64_field, d.flow_rate_pps)?,
            duration_secs: take(line, "duration_secs", json::f64_field, d.duration_secs)?,
            seed: take(line, "seed", json::u64_field, d.seed)?,
            model1_endpoints: take(line, "model1_endpoints", json::u64_field, d.model1_endpoints)?,
            replicas: take(line, "replicas", json::u64_field, d.replicas)?.max(1),
            faults: take(line, "faults", json::str_field, d.faults)?,
            scenario: take(line, "scenario", json::str_field, d.scenario)?,
        })
    }
}

/// Wire form of an [`EventFilter`]: the optional axes of a `subscribe`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FilterSpec {
    /// Comma-separated layer names; empty = all layers.
    pub layers: String,
    pub node: Option<u32>,
    pub cell: Option<(i32, i32)>,
    pub protocol: Option<String>,
}

impl FilterSpec {
    pub fn to_filter(&self) -> Result<EventFilter, String> {
        let mut f = EventFilter::all()
            .with_layers(&self.layers)
            .ok_or_else(|| format!("unknown layer in \"{}\"", self.layers))?;
        if let Some(n) = self.node {
            f = f.with_node(n);
        }
        if let Some((x, y)) = self.cell {
            f = f.with_cell(x, y);
        }
        if let Some(p) = &self.protocol {
            f = f.with_protocol(p.clone());
        }
        Ok(f)
    }

    fn encode_onto(&self, mut o: Obj) -> Obj {
        if !self.layers.is_empty() {
            o = o.str("layers", &self.layers);
        }
        if let Some(n) = self.node {
            o = o.u64("node", n as u64);
        }
        if let Some((x, y)) = self.cell {
            o = o.i64("cell_x", x as i64).i64("cell_y", y as i64);
        }
        if let Some(p) = &self.protocol {
            o = o.str("protocol", p);
        }
        o
    }

    /// Parse the filter axes out of a `subscribe` line.  A missing axis
    /// does not filter; one that is present but garbled, out of range or
    /// half a cell is an error — dropping it would hand the peer the
    /// unfiltered stream.
    fn parse(line: &str) -> Result<FilterSpec, String> {
        let node = |l: &str, k: &str| u32::try_from(json::u64_field(l, k)?).ok().map(Some);
        let coord = |l: &str, k: &str| i32::try_from(json::i64_field(l, k)?).ok().map(Some);
        Ok(FilterSpec {
            layers: take(line, "layers", json::str_field, String::new())?,
            node: take(line, "node", node, None)?,
            cell: match (
                take(line, "cell_x", coord, None)?,
                take(line, "cell_y", coord, None)?,
            ) {
                (Some(x), Some(y)) => Some((x, y)),
                (None, None) => None,
                (None, Some(_)) => return Err("bad field cell_x".into()),
                (Some(_), None) => return Err("bad field cell_y".into()),
            },
            protocol: take(line, "protocol", |l, k| json::str_field(l, k).map(Some), None)?,
        })
    }
}

/// One client request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    Ping,
    Submit(JobSpec),
    Status { job: Option<u64> },
    Subscribe { job: u64, filter: FilterSpec },
    Result { config: u64, seed: u64 },
    Stats,
    Shutdown,
}

impl Request {
    pub fn encode(&self) -> String {
        match self {
            Request::Ping => Obj::new().str("cmd", "ping").finish(),
            Request::Submit(spec) => spec.encode_onto(Obj::new().str("cmd", "submit")).finish(),
            Request::Status { job } => {
                let mut o = Obj::new().str("cmd", "status");
                if let Some(j) = job {
                    o = o.u64("job", *j);
                }
                o.finish()
            }
            Request::Subscribe { job, filter } => filter
                .encode_onto(Obj::new().str("cmd", "subscribe").u64("job", *job))
                .finish(),
            Request::Result { config, seed } => Obj::new()
                .str("cmd", "result")
                .hex("config", *config)
                .u64("seed", *seed)
                .finish(),
            Request::Stats => Obj::new().str("cmd", "stats").finish(),
            Request::Shutdown => Obj::new().str("cmd", "shutdown").finish(),
        }
    }

    pub fn parse(line: &str) -> Result<Request, String> {
        let cmd = json::field(line, "cmd").ok_or("missing cmd")?;
        match cmd {
            "ping" => Ok(Request::Ping),
            "submit" => Ok(Request::Submit(JobSpec::parse(line)?)),
            "status" => Ok(Request::Status {
                job: json::u64_field(line, "job"),
            }),
            "subscribe" => Ok(Request::Subscribe {
                job: json::u64_field(line, "job").ok_or("subscribe needs job")?,
                filter: FilterSpec::parse(line)?,
            }),
            "result" => Ok(Request::Result {
                config: json::hex_field(line, "config").ok_or("result needs config (hex)")?,
                seed: json::u64_field(line, "seed").ok_or("result needs seed")?,
            }),
            "stats" => Ok(Request::Stats),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown cmd \"{other}\"")),
        }
    }
}

/// Lifecycle of one job.  `Interrupted` is the resumable state: the
/// server was drained or crashed while the job was queued or running; a
/// restart requeues it and the journal makes the rerun incremental.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobState {
    Queued,
    Running,
    Done,
    Quarantined,
    Interrupted,
}

impl JobState {
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Quarantined => "quarantined",
            JobState::Interrupted => "interrupted",
        }
    }

    pub fn parse(s: &str) -> Option<JobState> {
        Some(match s {
            "queued" => JobState::Queued,
            "running" => JobState::Running,
            "done" => JobState::Done,
            "quarantined" => JobState::Quarantined,
            "interrupted" => JobState::Interrupted,
            _ => return None,
        })
    }

    /// A terminal state needs no further work after a restart.
    pub fn is_terminal(self) -> bool {
        matches!(self, JobState::Done | JobState::Quarantined)
    }
}

// ----- reply builders ----------------------------------------------------

pub fn reply_err(msg: &str) -> String {
    Obj::new().bool("ok", false).str("error", msg).finish()
}

/// The load-shed reply: explicit refusal with a retry hint — the bounded
/// admission queue's alternative to letting a submit hang.
pub fn reply_shed(retry_after_ms: u64, queued: usize, capacity: usize) -> String {
    Obj::new()
        .bool("ok", false)
        .bool("shed", true)
        .str("error", "admission queue full")
        .u64("retry_after_ms", retry_after_ms)
        .u64("queued", queued as u64)
        .u64("capacity", capacity as u64)
        .finish()
}

pub fn reply_ok() -> Obj {
    Obj::new().bool("ok", true)
}

// ----- stream frame builders ---------------------------------------------

/// Renders the event frames of one job replica under one protocol label.
/// The stream head `{"stream":"event","job":J,"replica":K,` and each kind's
/// shared members are rendered once, when it is built, so a frame costs
/// only the event's own fields.  Each subscriber's connection thread keeps
/// one and renders every event frame of a streamed job through it.
#[derive(Clone)]
pub struct EventFrames {
    replica: u64,
    protocol: String,
    head: String,
    fields: JsonRenderer,
}

impl EventFrames {
    pub fn new(job: u64, replica: u64, protocol: &str) -> Self {
        let mut head = String::from("{\"stream\":\"event\",\"job\":");
        push_u64(&mut head, job);
        head.push_str(",\"replica\":");
        push_u64(&mut head, replica);
        head.push(',');
        EventFrames {
            replica,
            protocol: protocol.to_string(),
            head,
            fields: JsonRenderer::new(protocol),
        }
    }

    /// Does this render the frames of `replica` under `protocol`?
    pub fn renders(&self, replica: u64, protocol: &str) -> bool {
        self.replica == replica && self.protocol == protocol
    }

    /// Append `ev`'s frame to `out`: its JSONL members behind the stream
    /// head, in one object (no line break).
    pub fn write(&self, out: &mut String, ev: &Event) {
        out.push_str(&self.head);
        self.fields.write_fields(ev, out);
        out.push('}');
    }
}

/// Append one event frame to `out` (see [`EventFrames`], which a caller
/// rendering many frames builds once instead).
pub fn write_event_frame(out: &mut String, job: u64, replica: u64, protocol: &str, ev: &Event) {
    EventFrames::new(job, replica, protocol).write(out, ev);
}

/// An event frame as a line of its own (see [`write_event_frame`]).
pub fn frame_event(job: u64, replica: u64, protocol: &str, ev: &Event) -> String {
    let mut s = String::with_capacity(192);
    write_event_frame(&mut s, job, replica, protocol, ev);
    s
}

pub fn frame_counter(job: u64, replica: u64, name: &str, value: u64) -> String {
    Obj::new()
        .str("stream", "metric")
        .u64("job", job)
        .u64("replica", replica)
        .str("kind", "counter")
        .str("name", name)
        .u64("value", value)
        .finish()
}

pub fn frame_gauge(job: u64, replica: u64, name: &str, value: f64) -> String {
    Obj::new()
        .str("stream", "metric")
        .u64("job", job)
        .u64("replica", replica)
        .str("kind", "gauge")
        .str("name", name)
        .f64("value", value)
        .f64_bits("bits", Some(value))
        .finish()
}

pub fn frame_replica_done(
    job: u64,
    replica: u64,
    seed: u64,
    from_journal: bool,
    digest: Option<&str>,
    pdr: Option<f64>,
    latency_ms: Option<f64>,
) -> String {
    let mut o = Obj::new()
        .str("stream", "replica_done")
        .u64("job", job)
        .u64("replica", replica)
        .u64("seed", seed)
        .bool("from_journal", from_journal);
    o = match digest {
        Some(d) => o.str("digest", d),
        None => o.raw("digest", "null"),
    };
    o.f64_bits("pdr", pdr).f64_bits("latency_ms", latency_ms).finish()
}

pub fn frame_failure(job: u64, replica: u64, attempt: u32, error: &str) -> String {
    Obj::new()
        .str("stream", "failure")
        .u64("job", job)
        .u64("replica", replica)
        .u64("attempt", attempt as u64)
        .str("error", error)
        .finish()
}

pub fn frame_replica_quarantined(job: u64, replica: u64, attempts: u32, error: &str) -> String {
    Obj::new()
        .str("stream", "replica_quarantined")
        .u64("job", job)
        .u64("replica", replica)
        .u64("attempts", attempts as u64)
        .str("error", error)
        .finish()
}

pub fn frame_job_state(job: u64, state: JobState) -> String {
    Obj::new()
        .str("stream", "job")
        .u64("job", job)
        .str("state", state.name())
        .finish()
}

/// The subscriber's end-of-stream marker, written by the connection
/// thread itself so it can carry that subscriber's own loss accounting.
pub fn frame_bye(job: u64, delivered: u64, dropped: u64) -> String {
    Obj::new()
        .str("stream", "bye")
        .u64("job", job)
        .u64("delivered", delivered)
        .u64("dropped", dropped)
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use energy::{EnergyLevel, RadioMode};
    use geo::GridCoord;
    use radio::{NodeId, PageSignal};
    use sim_engine::SimTime;
    use trace::{EventKind, FaultKind};

    /// `frame_event` as it was before frames were rendered in place: the
    /// event line, a header object, and a third string splicing the two.
    /// Kept as the reference for the wire format.
    fn frame_event_oracle(job: u64, replica: u64, protocol: &str, ev: &Event) -> String {
        let body = ev.to_jsonl(protocol);
        let head = Obj::new()
            .str("stream", "event")
            .u64("job", job)
            .u64("replica", replica)
            .finish();
        // "{head…}" + "{body…}" → "{head…,body…}"
        let mut s = String::with_capacity(head.len() + body.len());
        s.push_str(&head[..head.len() - 1]);
        s.push(',');
        s.push_str(&body[1..]);
        s
    }

    /// Every event kind, with the shapes that change the rendering:
    /// broadcast and unicast, with and without a cell, negative cells.
    fn every_kind() -> Vec<EventKind> {
        let (a, b) = (NodeId(0), NodeId(u32::MAX));
        let (near, far) = (GridCoord::new(2, 3), GridCoord::new(-7, i32::MIN));
        vec![
            EventKind::MacTx {
                node: a,
                dst: None,
                bytes: 72,
            },
            EventKind::MacTx {
                node: a,
                dst: Some(b),
                bytes: u32::MAX,
            },
            EventKind::MacRx {
                node: a,
                from: b,
                bytes: 564,
            },
            EventKind::MacCollision { node: a, from: b },
            EventKind::MacRetry { node: a, attempt: 3 },
            EventKind::MacDrop { node: a, dst: None },
            EventKind::MacDrop {
                node: a,
                dst: Some(b),
            },
            EventKind::RadioMode {
                node: a,
                from: RadioMode::Sleep,
                to: RadioMode::Idle,
            },
            EventKind::RadioMode {
                node: a,
                from: RadioMode::Tx,
                to: RadioMode::Off,
            },
            EventKind::RadioMode {
                node: a,
                from: RadioMode::Rx,
                to: RadioMode::Rx,
            },
            EventKind::BatteryLevel {
                node: a,
                from: EnergyLevel::Upper,
                to: EnergyLevel::Boundary,
            },
            EventKind::BatteryLevel {
                node: a,
                from: EnergyLevel::Boundary,
                to: EnergyLevel::Lower,
            },
            EventKind::GatewayElect { node: a, cell: near },
            EventKind::GatewayRetire { node: a, cell: far },
            EventKind::RasPage {
                by: a,
                signal: PageSignal::Host(b),
            },
            EventKind::RasPage {
                by: a,
                signal: PageSignal::Grid(far),
            },
            EventKind::PacketSent {
                src: a,
                flow: 0,
                seq: 0,
            },
            EventKind::PacketForwarded {
                node: a,
                flow: 4,
                seq: u64::MAX,
            },
            EventKind::PacketDelivered {
                node: b,
                flow: u32::MAX,
                seq: 17,
            },
            EventKind::NodeDeath { node: a },
            EventKind::CellChange {
                node: a,
                from: far,
                to: GridCoord::new(-1, -1),
            },
            EventKind::FaultInjected {
                node: a,
                fault: FaultKind::FrameLoss,
            },
            EventKind::FaultInjected {
                node: a,
                fault: FaultKind::Rejoin,
            },
            EventKind::PageRetry {
                node: a,
                target: b,
                attempt: 2,
            },
            EventKind::GatewayHandoffTimeout { node: a, cell: near },
        ]
    }

    #[test]
    fn event_frames_are_byte_identical_to_the_spliced_rendering() {
        let kinds = every_kind();
        let mut tags: Vec<u8> = kinds.iter().map(EventKind::tag).collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags, (1..=18).collect::<Vec<u8>>(), "one sample per kind");
        for (job, replica) in [(0, 0), (7, 2), (u64::MAX, u64::MAX)] {
            for t in [SimTime::ZERO, SimTime::from_millis(1500), SimTime::MAX] {
                for &kind in &kinds {
                    let ev = Event { t, kind };
                    let want = frame_event_oracle(job, replica, "ECGRID", &ev);
                    assert_eq!(frame_event(job, replica, "ECGRID", &ev), want, "{kind:?}");
                    // in place: behind whatever the batch already holds
                    let mut batch = String::from("{\"stream\":\"job\"}\n");
                    write_event_frame(&mut batch, job, replica, "ECGRID", &ev);
                    assert_eq!(batch, format!("{{\"stream\":\"job\"}}\n{want}"));
                }
            }
        }
    }

    #[test]
    fn submit_roundtrips_through_parse() {
        let spec = JobSpec {
            protocol: "gaf".into(),
            n_hosts: 55,
            max_speed: 2.5,
            pause_secs: 30.0,
            n_flows: 8,
            flow_rate_pps: 0.25,
            duration_secs: 900.0,
            seed: 1234,
            model1_endpoints: 6,
            replicas: 4,
            faults: "loss=0.1,churn=2".into(),
            scenario: String::new(),
        };
        let line = Request::Submit(spec.clone()).encode();
        match Request::parse(&line).unwrap() {
            Request::Submit(got) => assert_eq!(got, spec),
            other => panic!("parsed {other:?}"),
        }
    }

    #[test]
    fn submit_defaults_fill_missing_fields() {
        let spec = JobSpec::parse("{\"cmd\":\"submit\",\"seed\":99}").unwrap();
        assert_eq!(spec.seed, 99);
        assert_eq!(spec.protocol, "ecgrid");
        assert_eq!(spec.replicas, 1);
        // replicas clamp to >= 1
        let spec = JobSpec::parse("{\"cmd\":\"submit\",\"replicas\":0}").unwrap();
        assert_eq!(spec.replicas, 1);
    }

    #[test]
    fn scenario_text_travels_as_text() {
        let text = "[scenario]\nname = \"demo\"  # quotes, newlines, backslash \\\n\t\u{1}";
        for text in [text, "# 網格 ñ \u{1f4e1} \u{7f}\u{80}\u{7ff}\u{2028}"] {
            let spec = JobSpec {
                scenario: text.into(),
                ..JobSpec::default()
            };
            let line = Request::Submit(spec.clone()).encode();
            assert!(!line.contains('\n'), "one line: {line}");
            match Request::parse(&line).unwrap() {
                Request::Submit(got) => assert_eq!(got, spec),
                other => panic!("parsed {other:?}"),
            }
        }
        // classic jobs omit the field entirely
        let classic = Request::Submit(JobSpec::default()).encode();
        assert!(!classic.contains("scenario"));
    }

    #[test]
    fn garbled_field_is_an_error_not_a_default() {
        assert!(JobSpec::parse("{\"cmd\":\"submit\",\"n_hosts\":\"lots\"}").is_err());
    }

    #[test]
    fn subscribe_filter_roundtrips() {
        let req = Request::Subscribe {
            job: 3,
            filter: FilterSpec {
                layers: "mac,route".into(),
                node: Some(7),
                cell: Some((-1, 4)),
                protocol: Some("ECGRID".into()),
            },
        };
        let line = req.encode();
        assert_eq!(Request::parse(&line).unwrap(), req);
        match Request::parse(&line).unwrap() {
            Request::Subscribe { filter, .. } => {
                let f = filter.to_filter().unwrap();
                assert_eq!(f.layers.len(), 2);
                assert_eq!(f.node, Some(7));
                assert_eq!(f.cell, Some((-1, 4)));
            }
            _ => unreachable!(),
        }
        // a missing axis does not filter
        let bare = Request::parse("{\"cmd\":\"subscribe\",\"job\":1}").unwrap();
        assert_eq!(
            bare,
            Request::Subscribe {
                job: 1,
                filter: FilterSpec::default()
            }
        );
        // one that is there but unusable is refused, never dropped (the
        // peer would get the unfiltered stream) and never narrowed with
        // `as` (node 2^32 + 5 is not node 5)
        for (axes, bad) in [
            ("\"node\":4294967301", "node"),
            ("\"node\":-1", "node"),
            ("\"node\":\"seven\"", "node"),
            ("\"cell_x\":2147483648,\"cell_y\":0", "cell_x"),
            ("\"cell_x\":0,\"cell_y\":-2147483649", "cell_y"),
            ("\"cell_x\":1.5,\"cell_y\":0", "cell_x"),
            ("\"cell_x\":3", "cell_y"),
            ("\"cell_y\":3", "cell_x"),
        ] {
            let line = format!("{{\"cmd\":\"subscribe\",\"job\":1,{axes}}}");
            assert_eq!(Request::parse(&line), Err(format!("bad field {bad}")), "{line}");
        }
        // the edges of the ranges are still addressable
        let edge = "{\"cmd\":\"subscribe\",\"job\":1,\"node\":4294967295,\
                    \"cell_x\":-2147483648,\"cell_y\":2147483647}";
        match Request::parse(edge).unwrap() {
            Request::Subscribe { filter, .. } => {
                assert_eq!(filter.node, Some(u32::MAX));
                assert_eq!(filter.cell, Some((i32::MIN, i32::MAX)));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn result_request_roundtrips_hex_config() {
        let req = Request::Result {
            config: 0xdead_beef_0123_4567,
            seed: 42,
        };
        assert_eq!(Request::parse(&req.encode()).unwrap(), req);
    }

    #[test]
    fn unknown_cmd_is_a_parse_error() {
        assert!(Request::parse("{\"cmd\":\"fire_missiles\"}").is_err());
        assert!(Request::parse("not json").is_err());
        assert!(Request::parse("").is_err());
    }

    #[test]
    fn shed_reply_carries_the_hint() {
        let line = reply_shed(750, 16, 16);
        assert_eq!(crate::json::bool_field(&line, "ok"), Some(false));
        assert_eq!(crate::json::bool_field(&line, "shed"), Some(true));
        assert_eq!(crate::json::u64_field(&line, "retry_after_ms"), Some(750));
    }

    #[test]
    fn job_state_roundtrips() {
        for s in [
            JobState::Queued,
            JobState::Running,
            JobState::Done,
            JobState::Quarantined,
            JobState::Interrupted,
        ] {
            assert_eq!(JobState::parse(s.name()), Some(s));
        }
        assert!(JobState::Done.is_terminal());
        assert!(!JobState::Interrupted.is_terminal());
    }
}
