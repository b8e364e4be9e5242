//! The subscriber hub: fan-out of stream frames to live subscribers with
//! bounded queues and drop-and-count overload behavior.
//!
//! The cardinal rule is that a slow or dead consumer must never slow the
//! producer.  Each subscriber owns one *pending* queue of 32-byte items:
//! a matching trace event, copied as it is; a head marker saying which
//! replica and protocol label the events after it belong to; or a control
//! frame its publisher rendered.  The simulation worker only copies events
//! into the queue — no rendering, no per-event allocation — unless the
//! subscriber's frame budget (`--sub-buffer`) is spent, in which case the
//! frame is *dropped* and counted in that subscriber's [`DropCounter`]
//! (and a hub-wide aggregate).  The one exception is the job's terminal
//! `done` frame, which [`Hub::finish_job`] appends past the budget: the
//! summary reaches every subscriber that is still connected.  The
//! connection thread swaps the whole queue for an empty one under the
//! lock, then renders it and writes it to the socket with the lock
//! released, a piece of at most [`PIECE`] bytes (plus the line that
//! crossed the mark) at a time ([`SubscriberHandle::next_batch`]), so it
//! never holds a whole batch as text.  The budget covers the pending
//! frames plus those of the batch being written, so it bounds the memory
//! of both queues together (plus that one last frame): budget × 32 bytes
//! and one piece of text.  The subscriber learns its own loss total from
//! the `bye` frame its connection writes at end of stream, so "I saw
//! every event" stays a falsifiable claim.
//!
//! Events arrive in chunks: the recorder hands its sink up to
//! [`trace::SINK_CHUNK`] events at a time, and [`Hub::publish_events`]
//! takes the subscriber list once per chunk and each matching subscriber's
//! pending lock once, copies the chunk's matching events into the queue,
//! and updates the counters, the wake and the yield ration once.  The
//! budget is still checked frame by frame: a chunk that straddles it
//! delivers the room that is left and counts the rest as dropped.  The
//! connection thread is woken only when the pending queue goes from empty
//! to non-empty, and a woken thread takes whatever is pending at once:
//! there is no fill threshold, no flush timer and no pause between writes,
//! so a trickle of frames is never held back.  A flood batches itself,
//! because it arrives a chunk at a time: a thread that comes back from a
//! write finds the chunks published meanwhile.
//!
//! Filtering happens here, producer-side, so that the budget counts only
//! the frames a subscriber asked for: an event is only queued for
//! subscribers whose [`EventFilter`] matches its labels (a filter that
//! accepts everything skips the labels), so a narrow subscription costs
//! the wire — and its queue — only its own events.  When a job has no
//! subscribers at all, a chunk costs one relaxed atomic load.
//!
//! Every lock here is shared between the simulating worker and
//! connection threads, and a panic on one of them must not take the
//! others down: a poisoned guard is recovered, after restoring the one
//! condition its holder could have left broken (see `lock_subs`).  A
//! queue needs no repair: an item is pushed whole or not at all.

use crate::proto::EventFrames;
use metrics::{DropCounter, DropStats};
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use trace::{Event, EventFilter};

/// One entry of a subscriber's queue.
#[derive(Clone)]
enum Item {
    /// A matching trace event, rendered by the connection thread.
    Event(Event),
    /// The events after this belong to replica `.0` under protocol label
    /// `.1`.  Queued when either changes; not a frame.
    Head(u64, Arc<str>),
    /// A control frame as its publisher rendered it, without the `\n`.
    Line(Box<str>),
}

/// Items queued for one subscriber and not yet taken by its connection.
#[derive(Default)]
struct Pending {
    items: Vec<Item>,
    /// Frames in `items`: every item but the head markers.
    frames: usize,
    /// Frames of the batch the connection thread took last and is still
    /// writing.  `frames + writing` never exceeds the subscriber's
    /// budget, so the knob bounds the memory of both queues together.
    writing: usize,
    /// Frames offered, kept or dropped, since the producer last yielded
    /// its core (see `SubShared::append`).
    since_yield: usize,
    /// End of stream: nothing will be appended any more.
    closed: bool,
}

/// The connection thread writes its rendered text whenever it passes this
/// many bytes; it is also the largest queue allocation (in bytes) the
/// thread hands back as the next pending queue — a larger one (a backlog
/// built up while it could not run) is freed once written.
const PIECE: usize = 16 * 1024;

/// The producer yields its core at most once per this many frames offered
/// to a subscriber: at worst a context switch spread over a thousand
/// frames, whatever the subscriber's budget.
const YIELD_EVERY: usize = 1024;

/// What the hub (producer side) and one connection thread share.
struct SubShared {
    pending: Mutex<Pending>,
    /// Signalled when `pending` stops being empty, and when it closes.
    wake: Condvar,
    /// Most frames pending and being written, together.
    budget: usize,
    counter: DropCounter,
}

impl SubShared {
    fn lock(&self) -> MutexGuard<'_, Pending> {
        self.pending.lock().unwrap_or_else(|e| self.recover(e))
    }

    /// The guard of a lock whose holder panicked.  Every item is pushed
    /// whole and counted after it is pushed, so the queue is as it was.
    fn recover<'a>(&self, poisoned: PoisonError<MutexGuard<'a, Pending>>) -> MutexGuard<'a, Pending> {
        self.pending.clear_poison();
        poisoned.into_inner()
    }

    /// Offer a run of frames under one lock: each `make` builds one item
    /// while the budget has room, and the frames past it are counted as
    /// dropped.  `head`, if given, is queued first.  Never blocks beyond
    /// the queue swap of the consumer.
    fn append<F: FnOnce() -> Item>(
        &self,
        totals: &DropCounter,
        head: Option<Item>,
        offered: impl IntoIterator<Item = F>,
    ) {
        let mut p = self.lock();
        p.items.extend(head);
        let was_empty = p.frames == 0;
        let (mut delivered, mut dropped) = (0, 0);
        for make in offered {
            if p.frames + p.writing < self.budget {
                p.items.push(make());
                p.frames += 1;
                delivered += 1;
            } else {
                dropped += 1;
            }
        }
        if delivered + dropped == 0 {
            return;
        }
        p.since_yield += (delivered + dropped) as usize;
        self.counter.note(delivered, dropped);
        totals.note(delivered, dropped);
        // This run filled the budget.  If the connection thread is
        // runnable but queued behind this thread on the same core, it
        // would stay there for a whole time slice — thousands of frames —
        // so offer it the core.  `yield_now` returns at once when nobody
        // is queued, and it is rationed: a small budget fills often, and
        // yielding on every fill would pace the simulation by its
        // subscriber, which is exactly what dropping is there to avoid.
        let offer_core = delivered > 0 && p.frames + p.writing == self.budget && p.since_yield >= YIELD_EVERY;
        if offer_core {
            p.since_yield = 0;
        }
        drop(p);
        if was_empty && delivered > 0 {
            self.wake.notify_one();
        }
        if offer_core {
            std::thread::yield_now();
        }
    }

    /// Append the terminal frame whatever the budget, and end the stream.
    fn finish(&self, totals: &DropCounter, last: &str) {
        let mut p = self.lock();
        p.items.push(Item::Line(last.into()));
        p.frames += 1;
        p.closed = true;
        self.counter.note(1, 0);
        totals.note(1, 0);
        drop(p);
        self.wake.notify_one();
    }
}

struct SubEntry {
    id: u64,
    job: u64,
    filter: EventFilter,
    /// The replica and protocol label of the head marker queued last.
    head: Option<(u64, Arc<str>)>,
    shared: Arc<SubShared>,
}

/// Renders queued items as wire lines, a piece at a time.
#[derive(Clone)]
struct Render {
    job: u64,
    /// The renderer of the head marker met last.
    frames: Option<EventFrames>,
    /// Rendered lines not yet written: at most one piece.
    text: String,
}

impl Render {
    /// Render `items`, one line each, and write them to `out` whenever the
    /// text passes [`PIECE`] bytes and once at the end: every write ends
    /// on a line boundary.
    fn write(&mut self, items: impl ExactSizeIterator<Item = Item>, out: &mut impl Write) -> io::Result<()> {
        // about 128 bytes a frame, and never room for more than a piece
        // and the line that crosses it
        self.text.reserve_exact((items.len() * 128).min(PIECE + 1024));
        let result = self.render_into(items, out);
        self.text.clear();
        result
    }

    fn render_into(&mut self, items: impl Iterator<Item = Item>, out: &mut impl Write) -> io::Result<()> {
        for item in items {
            match item {
                Item::Head(replica, protocol) => {
                    if !self
                        .frames
                        .as_ref()
                        .is_some_and(|f| f.renders(replica, &protocol))
                    {
                        self.frames = Some(EventFrames::new(self.job, replica, &protocol));
                    }
                    continue;
                }
                Item::Event(ev) => self
                    .frames
                    .as_ref()
                    .expect("a head marker precedes every queued event")
                    .write(&mut self.text, &ev),
                Item::Line(line) => self.text.push_str(&line),
            }
            self.text.push('\n');
            if self.text.len() >= PIECE {
                out.write_all(self.text.as_bytes())?;
                self.text.clear();
            }
        }
        if !self.text.is_empty() {
            out.write_all(self.text.as_bytes())?;
        }
        Ok(())
    }
}

/// A subscription as its owning connection sees it: the consuming side
/// of the queue, the renderer of its frames, and the loss counter the hub
/// updates.
pub struct SubscriberHandle {
    pub id: u64,
    pub job: u64,
    shared: Arc<SubShared>,
    /// The batch taken last; empty between calls.
    taken: Vec<Item>,
    render: Render,
}

impl SubscriberHandle {
    pub fn stats(&self) -> DropStats {
        self.shared.counter.snapshot()
    }

    /// Block until frames are pending or the stream has ended, take
    /// everything pending, and render it to `out` in pieces (see
    /// [`PIECE`]).  The batch taken by the call before is taken to be
    /// written: its frames stop counting against the budget, and its
    /// queue allocation (up to [`PIECE`] bytes) becomes the next pending
    /// queue.  Returns `false` once the stream has ended — its tail,
    /// possibly empty, is then written, and [`SubscriberHandle::stats`] is
    /// final.  A write error leaves the subscription to be dropped.
    pub fn next_batch(&mut self, out: &mut impl Write) -> io::Result<bool> {
        if self.taken.capacity() * size_of::<Item>() > PIECE {
            self.taken = Vec::new();
        }
        let more = {
            let mut p = self.shared.lock();
            p.writing = 0;
            while p.frames == 0 && !p.closed {
                p = self
                    .shared
                    .wake
                    .wait(p)
                    .unwrap_or_else(|e| self.shared.recover(e));
            }
            std::mem::swap(&mut p.items, &mut self.taken);
            p.writing = std::mem::take(&mut p.frames);
            !p.closed
        };
        self.render.write(self.taken.drain(..), out)?;
        Ok(more)
    }
}

/// Fan-out hub shared by the server's workers and connection threads.
#[derive(Default)]
pub struct Hub {
    subs: Mutex<Vec<SubEntry>>,
    /// Cached count so the no-subscriber hot path is one atomic load.
    n_subs: AtomicUsize,
    next_id: AtomicU64,
    /// Aggregate loss over all subscribers, live and departed.
    drops: DropCounter,
}

impl Hub {
    pub fn new() -> Self {
        Hub::default()
    }

    fn lock_subs(&self) -> MutexGuard<'_, Vec<SubEntry>> {
        self.subs.lock().unwrap_or_else(|poisoned| {
            // the list itself is whole after any panic; only its cached
            // length can be stale
            let subs = poisoned.into_inner();
            self.n_subs.store(subs.len(), Ordering::Relaxed);
            self.subs.clear_poison();
            subs
        })
    }

    /// Register a subscriber for `job` with a budget of `depth` frames.
    pub fn subscribe(&self, job: u64, filter: EventFilter, depth: usize) -> SubscriberHandle {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let shared = Arc::new(SubShared {
            pending: Mutex::default(),
            wake: Condvar::new(),
            budget: depth.max(1),
            counter: DropCounter::new(),
        });
        let mut subs = self.lock_subs();
        subs.push(SubEntry {
            id,
            job,
            filter,
            head: None,
            shared: shared.clone(),
        });
        self.n_subs.store(subs.len(), Ordering::Relaxed);
        SubscriberHandle {
            id,
            job,
            shared,
            taken: Vec::new(),
            render: Render {
                job,
                frames: None,
                text: String::new(),
            },
        }
    }

    /// Drop one subscription (the connection went away or finished).
    pub fn unsubscribe(&self, id: u64) {
        let mut subs = self.lock_subs();
        subs.retain(|s| s.id != id);
        self.n_subs.store(subs.len(), Ordering::Relaxed);
    }

    pub fn subscriber_count(&self) -> usize {
        self.n_subs.load(Ordering::Relaxed)
    }

    /// Aggregate delivered/dropped totals across all subscribers ever.
    pub fn drop_stats(&self) -> DropStats {
        self.drops.snapshot()
    }

    /// Publish a chunk of simulation events of `job`, in order: each
    /// event is queued, as it is, for every subscriber whose filter it
    /// matches and whose budget has room (past it, it is counted as
    /// dropped); the subscriber's connection renders it.
    pub fn publish_events(&self, job: u64, replica: u64, protocol: &str, events: &[Event]) {
        if events.is_empty() || self.n_subs.load(Ordering::Relaxed) == 0 {
            return;
        }
        let mut subs = self.lock_subs();
        for s in subs.iter_mut().filter(|s| s.job == job) {
            let head = match &s.head {
                Some((r, p)) if *r == replica && **p == *protocol => None,
                _ => {
                    let protocol: Arc<str> = protocol.into();
                    s.head = Some((replica, protocol.clone()));
                    Some(Item::Head(replica, protocol))
                }
            };
            let (filter, all) = (&s.filter, s.filter.is_all());
            let offered = events
                .iter()
                .filter(|ev| all || filter.matches(&ev.labels(protocol)))
                .map(|ev| move || Item::Event(*ev));
            s.shared.append(&self.drops, head, offered);
        }
    }

    /// Publish a control frame (metric, replica_done, job, …) to every
    /// subscriber of `job`, bypassing event filters but not the frame
    /// budget.  It queues behind the events published before it, in the
    /// same queue.  The terminal `done` frame goes through
    /// [`Hub::finish_job`] instead.
    pub fn publish_frame(&self, job: u64, frame: &str) {
        if self.n_subs.load(Ordering::Relaxed) == 0 {
            return;
        }
        let subs = self.lock_subs();
        for s in subs.iter().filter(|s| s.job == job) {
            s.shared.append(&self.drops, None, [|| Item::Line(frame.into())]);
        }
    }

    /// End of stream for `job`: append its terminal `done` frame to every
    /// subscriber's queue, past the frame budget if need be (it is the
    /// one frame a subscriber cannot do without: a client that sees `bye`
    /// without it has lost the job's summary), and close the queue, so
    /// each connection writes what is still pending and then its `bye`.
    pub fn finish_job(&self, job: u64, done: &str) {
        let mut subs = self.lock_subs();
        // closed under the list lock, which every append holds too:
        // nothing can land in a queue after its consumer saw `closed`
        subs.retain(|s| {
            if s.job == job {
                s.shared.finish(&self.drops, done);
            }
            s.job != job
        });
        self.n_subs.store(subs.len(), Ordering::Relaxed);
    }
}

#[cfg(test)]
impl Hub {
    /// Panic a thread while it holds the subscriber list and every
    /// pending queue.
    pub(crate) fn poison_for_test(self: &Arc<Self>) {
        let hub = self.clone();
        let died = std::thread::spawn(move || {
            let subs = hub.subs.lock().unwrap();
            let _held: Vec<_> = subs.iter().map(|s| s.shared.pending.lock().unwrap()).collect();
            panic!("a hub lock holder dies (deliberately, for the test)");
        })
        .join();
        assert!(died.is_err() && self.subs.is_poisoned());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto;
    use sim_engine::SimTime;
    use std::sync::mpsc::channel;
    use trace::EventKind;

    const DONE: &str = "{\"stream\":\"done\"}";

    fn ev() -> Event {
        Event {
            t: SimTime::from_secs(1),
            kind: EventKind::MacRetry {
                node: radio::NodeId(3),
                attempt: 1,
            },
        }
    }

    /// Whatever is pending right now, rendered as the connection would,
    /// without taking it or waiting for more.
    fn pending_lines(sub: &SubscriberHandle) -> Vec<String> {
        let p = sub.shared.lock();
        let heads = p.items.iter().filter(|i| matches!(i, Item::Head(..))).count();
        assert_eq!(p.items.len() - heads, p.frames);
        assert!(p.frames + p.writing <= sub.shared.budget);
        let mut text = Vec::new();
        sub.render
            .clone()
            .write(p.items.iter().cloned(), &mut text)
            .unwrap();
        batch_lines(&text)
    }

    /// The connection thread finished writing the batch it took (in the
    /// server that is its next call of `next_batch`, which may block).
    fn written(sub: &SubscriberHandle) {
        sub.shared.lock().writing = 0;
    }

    /// One `next_batch`: whether the stream goes on, and the lines written.
    fn next_batch(sub: &mut SubscriberHandle) -> (bool, Vec<String>) {
        let mut out = Vec::new();
        let more = sub.next_batch(&mut out).unwrap();
        (more, batch_lines(&out))
    }

    fn batch_lines(batch: &[u8]) -> Vec<String> {
        assert!(batch.is_empty() || batch.ends_with(b"\n"), "whole lines only");
        std::str::from_utf8(batch)
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect()
    }

    /// A writer that keeps each `write_all` as a piece of its own.
    #[derive(Default)]
    struct Pieces(Vec<Vec<u8>>);

    impl Write for Pieces {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_queue_item_is_no_larger_than_an_event() {
        assert!(size_of::<Item>() <= 32, "{} bytes", size_of::<Item>());
        assert_eq!(size_of::<Item>(), size_of::<Event>());
    }

    #[test]
    fn a_batch_is_written_in_bounded_pieces_that_end_on_line_boundaries() {
        let hub = Hub::new();
        let mut sub = hub.subscribe(1, EventFilter::all(), 4096);
        let events: Vec<Event> = (0..3000u64)
            .map(|seq| Event {
                t: SimTime::from_millis(seq),
                kind: EventKind::PacketSent {
                    src: radio::NodeId(seq as u32),
                    flow: 0,
                    seq,
                },
            })
            .collect();
        hub.publish_events(1, 0, "ECGRID", &events[..1000]);
        hub.publish_frame(1, "{\"stream\":\"metric\"}");
        hub.publish_events(1, 1, "ECGRID", &events[1000..]);
        let mut one_shot = String::new();
        for (i, e) in events.iter().enumerate() {
            one_shot += &proto::frame_event(1, u64::from(i >= 1000), "ECGRID", e);
            one_shot.push('\n');
            if i == 999 {
                one_shot += "{\"stream\":\"metric\"}\n";
            }
        }
        let mut out = Pieces::default();
        assert!(sub.next_batch(&mut out).unwrap());
        assert!(out.0.len() > 10, "{} pieces", out.0.len());
        let longest = one_shot.lines().map(str::len).max().unwrap() + 1;
        for piece in &out.0 {
            assert!(piece.ends_with(b"\n"), "a piece ends on a line boundary");
            assert!(piece.len() < PIECE + longest, "{} bytes", piece.len());
        }
        assert_eq!(String::from_utf8(out.0.concat()).unwrap(), one_shot);
        // the text buffer never grew past one piece and a line
        assert!(sub.render.text.capacity() <= PIECE + 1024);
    }

    #[test]
    fn frames_reach_matching_subscribers_only() {
        let hub = Hub::new();
        let mac = hub.subscribe(1, EventFilter::all().with_layers("mac").unwrap(), 8);
        let route = hub.subscribe(1, EventFilter::all().with_layers("route").unwrap(), 8);
        let other_job = hub.subscribe(2, EventFilter::all(), 8);
        hub.publish_events(1, 0, "ECGRID", &[ev()]);
        assert_eq!(pending_lines(&mac), [proto::frame_event(1, 0, "ECGRID", &ev())]);
        assert!(pending_lines(&route).is_empty());
        assert!(pending_lines(&other_job).is_empty());
        // a filtered-out frame is neither delivered nor dropped
        assert_eq!(route.stats().offered(), 0);
    }

    #[test]
    fn full_buffer_drops_and_counts_instead_of_blocking() {
        let hub = Hub::new();
        let sub = hub.subscribe(1, EventFilter::all(), 2);
        for _ in 0..5 {
            hub.publish_frame(1, "{\"stream\":\"job\"}");
        }
        let s = sub.stats();
        assert_eq!(s.delivered, 2);
        assert_eq!(s.dropped, 3);
        assert_eq!(hub.drop_stats().dropped, 3);
        // the producer side never blocked: we are still here
    }

    #[test]
    fn a_full_buffer_still_delivers_done_and_then_ends_the_stream() {
        // one subscriber whose pending queue is full, one whose budget is
        // held by the batch its connection is still writing
        let hub = Hub::new();
        let (mut pending, mut writing) = (
            hub.subscribe(1, EventFilter::all(), 2),
            hub.subscribe(1, EventFilter::all(), 2),
        );
        for _ in 0..2 {
            hub.publish_events(1, 0, "ECGRID", &[ev()]);
        }
        let (more, in_write) = next_batch(&mut writing);
        assert!(more);
        assert_eq!(in_write.len(), 2);
        for _ in 0..2 {
            hub.publish_events(1, 0, "ECGRID", &[ev()]);
        }
        // a control frame past the budget is dropped like an event ...
        hub.publish_frame(1, "{\"stream\":\"metric\"}");
        assert_eq!(pending.stats().dropped, 3);
        assert_eq!(writing.stats().dropped, 3);
        // ... but the summary is not, and it is the last frame before `bye`
        hub.finish_job(1, DONE);
        let (more, lines) = next_batch(&mut pending);
        assert!(!more, "end of stream: `bye` is next");
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[2], DONE);
        assert_eq!(pending.stats().delivered, 3);
        let (more, lines) = next_batch(&mut writing);
        assert!(!more, "end of stream: `bye` is next");
        assert_eq!(lines, [DONE]);
        assert_eq!(writing.stats().delivered, 3);
        assert_eq!(hub.drop_stats().offered(), 12);
    }

    #[test]
    fn budget_bounds_what_is_queued_and_every_frame_is_accounted_for() {
        for budget in [1usize, 2, 8] {
            let hub = Hub::new();
            let mut sub = hub.subscribe(1, EventFilter::all(), budget);
            let mut carried = 0u64;
            let rounds = 5;
            for round in 0..rounds {
                // three frames more than fit, of both kinds
                for i in 0..budget + 3 {
                    if i % 2 == 0 {
                        hub.publish_events(1, round, "ECGRID", &[ev()]);
                    } else {
                        hub.publish_frame(1, "{\"stream\":\"metric\"}");
                    }
                }
                assert_eq!(pending_lines(&sub).len(), budget, "budget {budget}");
                let (more, lines) = next_batch(&mut sub);
                assert!(more);
                assert_eq!(lines.len(), budget);
                carried += budget as u64;
                // a batch being written still counts: no room until it is out
                hub.publish_events(1, round, "ECGRID", &[ev()]);
                assert!(pending_lines(&sub).is_empty());
                written(&sub);
            }
            hub.finish_job(1, DONE);
            let (more, lines) = next_batch(&mut sub);
            assert!(!more);
            assert_eq!(lines, [DONE]);
            carried += 1;
            let s = sub.stats();
            assert_eq!(s.delivered, carried, "bye reports what the socket carried");
            assert_eq!(s.offered(), rounds * (budget as u64 + 4) + 1);
            assert_eq!(hub.drop_stats(), s);
        }
    }

    #[test]
    fn a_chunk_straddling_the_budget_delivers_the_room_left_and_drops_the_rest() {
        let budget = 10;
        let hub = Hub::new();
        let mut sub = hub.subscribe(1, EventFilter::all(), budget);
        hub.publish_events(1, 0, "ECGRID", &[ev(), ev()]);
        assert!(next_batch(&mut sub).0);
        hub.publish_events(1, 0, "ECGRID", &[ev(); 3]);
        let (pending, writing) = (3, 2);
        hub.publish_events(1, 0, "ECGRID", &[ev(); 10]);
        let room = budget - pending - writing;
        assert_eq!(pending_lines(&sub).len(), pending + room);
        let s = sub.stats();
        assert_eq!(s.delivered, (writing + pending + room) as u64);
        assert_eq!(s.dropped, (10 - room) as u64);
        // a full buffer takes nothing more from the next chunk
        hub.publish_events(1, 0, "ECGRID", &[ev(); 4]);
        assert_eq!(pending_lines(&sub).len(), pending + room);
        assert_eq!(sub.stats().dropped, (10 - room + 4) as u64);
        assert_eq!(hub.drop_stats(), sub.stats());
    }

    #[test]
    fn a_chunk_is_filtered_and_rendered_frame_by_frame_in_order() {
        let hub = Hub::new();
        let app = hub.subscribe(1, EventFilter::all().with_layers("app").unwrap(), 64);
        let all = hub.subscribe(1, EventFilter::all(), 64);
        let sent = |seq| Event {
            t: SimTime::from_millis(seq),
            kind: EventKind::PacketSent {
                src: radio::NodeId(1),
                flow: 0,
                seq,
            },
        };
        let chunk = [ev(), sent(1), ev(), sent(2)];
        hub.publish_events(1, 3, "GAF", &chunk);
        let want = |evs: &[Event]| -> Vec<String> {
            evs.iter().map(|e| proto::frame_event(1, 3, "GAF", e)).collect()
        };
        assert_eq!(pending_lines(&all), want(&chunk));
        assert_eq!(pending_lines(&app), want(&[sent(1), sent(2)]));
        // filtered-out events are neither delivered nor dropped
        assert_eq!(app.stats().offered(), 2);
        // the next replica's frames carry its own number
        hub.publish_events(1, 4, "GAF", &[sent(3)]);
        assert_eq!(pending_lines(&app)[2], proto::frame_event(1, 4, "GAF", &sent(3)));
    }

    #[test]
    fn accounting_identity_holds_against_a_free_running_consumer() {
        const OFFERED: u64 = 20_000;
        // whole sink chunks, single events and the odd sizes between
        let chunks = [trace::SINK_CHUNK, 1, 7, 2 * trace::SINK_CHUNK + 3];
        for budget in [1usize, 2, 8, 300] {
            let hub = Arc::new(Hub::new());
            let mut sub = hub.subscribe(1, EventFilter::all(), budget);
            let consumer = std::thread::spawn(move || {
                let mut carried = 0u64;
                loop {
                    let (more, lines) = next_batch(&mut sub);
                    let n = lines.len();
                    // the last batch may carry `done` past the budget
                    let most = budget + usize::from(!more);
                    assert!(n <= most, "a batch of {n} from a budget of {budget}");
                    carried += n as u64;
                    if !more {
                        return (carried, sub.stats());
                    }
                }
            });
            let events = vec![ev(); *chunks.iter().max().unwrap()];
            let mut published = 0;
            for &len in chunks.iter().cycle() {
                let len = len.min((OFFERED - published) as usize);
                if len == 0 {
                    break;
                }
                hub.publish_events(1, 0, "ECGRID", &events[..len]);
                published += len as u64;
            }
            hub.finish_job(1, DONE);
            let (carried, stats) = consumer.join().unwrap();
            assert_eq!(stats.offered(), OFFERED + 1, "delivered + dropped == offered");
            assert_eq!(stats.delivered, carried, "bye reports what the socket carried");
        }
    }

    #[test]
    fn control_frames_queue_behind_earlier_events_and_the_tail_survives_finish() {
        let hub = Hub::new();
        let mut sub = hub.subscribe(1, EventFilter::all(), 64);
        for _ in 0..10 {
            hub.publish_events(1, 0, "ECGRID", &[ev()]);
        }
        hub.finish_job(1, DONE);
        assert_eq!(hub.subscriber_count(), 0);
        let (more, lines) = next_batch(&mut sub);
        assert!(!more, "closed = end of stream");
        assert_eq!(lines.len(), 11);
        assert!(lines[..10].iter().all(|l| l.contains("\"stream\":\"event\"")));
        assert_eq!(lines[10], DONE);
        assert_eq!(sub.stats().delivered, 11);
    }

    #[test]
    fn a_single_frame_wakes_a_waiting_consumer_at_once() {
        // no fill threshold: a trickle subscription (`layers = "app"`)
        // sees each frame when it is published, not when a batch fills
        let hub = Arc::new(Hub::new());
        let mut sub = hub.subscribe(1, EventFilter::all().with_layers("mac").unwrap(), 1024);
        let (tx, rx) = channel();
        let consumer = std::thread::spawn(move || loop {
            let (more, lines) = next_batch(&mut sub);
            if !more {
                return;
            }
            tx.send(lines).unwrap();
        });
        for _ in 0..3 {
            hub.publish_events(1, 0, "ECGRID", &[ev()]);
            let got = rx.recv_timeout(std::time::Duration::from_secs(30)).unwrap();
            assert_eq!(got.len(), 1, "delivered while the job is still running");
        }
        hub.finish_job(1, DONE);
        consumer.join().unwrap();
    }

    #[test]
    fn no_subscribers_is_a_cheap_no_op() {
        let hub = Hub::new();
        hub.publish_events(1, 0, "ECGRID", &[ev()]);
        hub.publish_frame(1, "x");
        assert_eq!(hub.drop_stats().offered(), 0);
    }

    #[test]
    fn unsubscribe_stops_delivery() {
        let hub = Hub::new();
        let sub = hub.subscribe(1, EventFilter::all(), 8);
        hub.unsubscribe(sub.id);
        hub.publish_frame(1, "x");
        assert_eq!(hub.subscriber_count(), 0);
        assert!(pending_lines(&sub).is_empty());
    }

    #[test]
    fn hub_locks_survive_a_panicking_holder() {
        let hub = Arc::new(Hub::new());
        let mut sub = hub.subscribe(1, EventFilter::all(), 8);
        hub.publish_frame(1, "{\"stream\":\"job\"}");
        hub.publish_events(1, 0, "ECGRID", &[ev()]);
        hub.poison_for_test();
        // every entry point still works, and every frame is whole
        hub.publish_events(1, 1, "ECGRID", &[ev()]);
        let mut late = hub.subscribe(1, EventFilter::all(), 8);
        assert_eq!(hub.subscriber_count(), 2);
        hub.finish_job(1, DONE);
        let (more, lines) = next_batch(&mut sub);
        assert!(!more);
        assert_eq!(
            lines,
            [
                "{\"stream\":\"job\"}".to_string(),
                proto::frame_event(1, 0, "ECGRID", &ev()),
                proto::frame_event(1, 1, "ECGRID", &ev()),
                DONE.to_string(),
            ]
        );
        assert_eq!(sub.stats().delivered, 4);
        let (more, lines) = next_batch(&mut late);
        assert!(!more);
        assert_eq!(lines, [DONE]);
    }
}
