//! The event sink: digest always, buffering on request.

use crate::digest::{Fnv64, TraceDigest};
use crate::event::{Event, JsonRenderer};
use crate::profile::SchedProfile;
use std::fmt;
use std::io::{self, Write};
use std::sync::Arc;

/// A live event tap: handed every recorded event, in recording order,
/// from the simulation thread — in chunks of [`SINK_CHUNK`] events, plus
/// one shorter chunk whenever the world's run loop returns (see
/// [`Recorder::flush_sink`]).  A run that panics mid-way therefore loses
/// at most `SINK_CHUNK - 1` events from its stream; the digest, which
/// does not go through the sink, is unaffected.  Implementations must
/// never block (the sweep service hands events to bounded per-subscriber
/// buffers that drop-and-count on overflow precisely so a slow consumer
/// cannot stall the simulation through this hook).
pub type EventSink = Arc<dyn Fn(&[Event]) + Send + Sync>;

/// Events a [`Recorder`] collects before it hands them to its sink: one
/// call, and one lock in the sweep service's hub, per this many events.
pub const SINK_CHUNK: usize = 256;

/// How much a [`Recorder`] keeps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceMode {
    /// Fold every event into the digest, keep nothing else.  O(1) memory;
    /// this is what the golden-trace regression tests use.
    DigestOnly,
    /// Digest plus an in-memory event buffer for JSONL export and
    /// invariant checking.  A dense 2000 s × 100 host run produces
    /// millions of events — use for focused scenarios and exports.
    Full,
}

/// Collects the event stream of one run.
///
/// The world holds an `Option<Recorder>`; with `None` the emission sites
/// compile down to a branch on a discriminant and construct no event
/// (zero-cost-when-disabled).
#[derive(Clone)]
pub struct Recorder {
    digest: Fnv64,
    count: u64,
    buf: Option<Vec<Event>>,
    profile: SchedProfile,
    sink: Option<EventSink>,
    /// Events recorded since the sink was last called (empty and
    /// unallocated without a sink).
    sink_buf: Vec<Event>,
}

impl fmt::Debug for Recorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Recorder")
            .field("digest", &self.digest)
            .field("count", &self.count)
            .field("buf", &self.buf)
            .field("profile", &self.profile)
            .field("sink", &self.sink.as_ref().map(|_| "EventSink"))
            .field("sink_buf", &self.sink_buf.len())
            .finish()
    }
}

impl Recorder {
    pub fn new(mode: TraceMode) -> Self {
        Recorder {
            digest: Fnv64::new(),
            count: 0,
            buf: match mode {
                TraceMode::DigestOnly => None,
                TraceMode::Full => Some(Vec::new()),
            },
            profile: SchedProfile::new(),
            sink: None,
            sink_buf: Vec::new(),
        }
    }

    /// Attach a live event tap (the sweep service's streaming hook).  The
    /// sink sees every subsequent event in recording order, in chunks (see
    /// [`EventSink`]); it does not affect the digest, the buffer, or the
    /// profile.
    pub fn set_sink(&mut self, sink: EventSink) {
        self.sink = Some(sink);
        self.sink_buf = Vec::with_capacity(SINK_CHUNK);
    }

    /// Hand the sink what it has not seen yet.  The world calls this when
    /// its run loop returns, so a sink has seen every event of a run by
    /// the time `run_until` does.
    pub fn flush_sink(&mut self) {
        if let Some(sink) = &self.sink {
            if !self.sink_buf.is_empty() {
                sink(&self.sink_buf);
                self.sink_buf.clear();
            }
        }
    }

    #[inline]
    pub fn record(&mut self, ev: Event) {
        ev.fold(&mut self.digest);
        self.count += 1;
        if let Some(buf) = &mut self.buf {
            buf.push(ev);
        }
        if self.sink.is_some() {
            self.sink_buf.push(ev);
            if self.sink_buf.len() == SINK_CHUNK {
                self.flush_sink();
            }
        }
    }

    /// Digest of everything recorded so far.
    pub fn digest(&self) -> TraceDigest {
        TraceDigest(self.digest.finish())
    }

    /// Number of events recorded (buffered or not).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Buffered events (empty in [`TraceMode::DigestOnly`]).
    pub fn events(&self) -> &[Event] {
        self.buf.as_deref().unwrap_or(&[])
    }

    pub fn profile(&self) -> &SchedProfile {
        &self.profile
    }

    pub fn profile_mut(&mut self) -> &mut SchedProfile {
        &mut self.profile
    }

    /// Write the buffered events as JSONL (one object per line) under the
    /// run-wide `protocol` label.  Returns the number of lines written —
    /// zero in digest-only mode, where nothing was buffered.
    pub fn write_jsonl<W: Write>(&self, protocol: &str, w: &mut W) -> io::Result<u64> {
        let render = JsonRenderer::new(protocol);
        let mut line = String::with_capacity(160);
        for e in self.events() {
            line.clear();
            render.write_object(e, &mut line);
            line.push('\n');
            w.write_all(line.as_bytes())?;
        }
        Ok(self.events().len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use radio::NodeId;
    use sim_engine::SimTime;

    fn ev(ms: u64, seq: u64) -> Event {
        Event {
            t: SimTime::from_millis(ms),
            kind: EventKind::PacketSent {
                src: NodeId(0),
                flow: 0,
                seq,
            },
        }
    }

    #[test]
    fn digest_only_and_full_agree_on_digest() {
        let mut a = Recorder::new(TraceMode::DigestOnly);
        let mut b = Recorder::new(TraceMode::Full);
        for i in 0..100 {
            a.record(ev(i, i));
            b.record(ev(i, i));
        }
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.count(), 100);
        assert!(a.events().is_empty());
        assert_eq!(b.events().len(), 100);
    }

    #[test]
    fn digest_depends_on_order_and_content() {
        let mut a = Recorder::new(TraceMode::DigestOnly);
        a.record(ev(1, 1));
        a.record(ev(2, 2));
        let mut b = Recorder::new(TraceMode::DigestOnly);
        b.record(ev(2, 2));
        b.record(ev(1, 1));
        assert_ne!(a.digest(), b.digest());
        let mut c = Recorder::new(TraceMode::DigestOnly);
        c.record(ev(1, 1));
        c.record(ev(2, 3));
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn a_sink_sees_every_event_once_in_order_in_whole_chunks_until_flushed() {
        use std::sync::Mutex;
        let seen: Arc<Mutex<Vec<Vec<Event>>>> = Arc::default();
        let mut r = Recorder::new(TraceMode::DigestOnly);
        let tap = seen.clone();
        r.set_sink(Arc::new(move |evs: &[Event]| {
            tap.lock().unwrap().push(evs.to_vec())
        }));
        let n = 2 * SINK_CHUNK as u64 + 17;
        for i in 0..n {
            r.record(ev(i, i));
        }
        let sizes =
            |seen: &Mutex<Vec<Vec<Event>>>| seen.lock().unwrap().iter().map(Vec::len).collect::<Vec<_>>();
        assert_eq!(sizes(&seen), [SINK_CHUNK, SINK_CHUNK]);
        r.flush_sink();
        r.flush_sink(); // nothing new: no empty chunk
        assert_eq!(sizes(&seen), [SINK_CHUNK, SINK_CHUNK, 17]);
        let all: Vec<Event> = seen.lock().unwrap().concat();
        assert_eq!(all, (0..n).map(|i| ev(i, i)).collect::<Vec<_>>());
    }

    #[test]
    fn a_recorder_without_a_sink_holds_no_sink_buffer() {
        let mut r = Recorder::new(TraceMode::DigestOnly);
        r.record(ev(1, 1));
        r.flush_sink();
        assert_eq!(r.sink_buf.capacity(), 0);
    }

    #[test]
    fn jsonl_writes_one_line_per_event() {
        let mut r = Recorder::new(TraceMode::Full);
        r.record(ev(1, 1));
        r.record(ev(2, 2));
        let mut out = Vec::new();
        let n = r.write_jsonl("ECGRID", &mut out).unwrap();
        assert_eq!(n, 2);
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }
}
