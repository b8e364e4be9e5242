//! The subscriber hub: fan-out of stream frames to live subscribers with
//! bounded batch buffers and drop-and-count overload behavior.
//!
//! The cardinal rule is that a slow or dead consumer must never slow the
//! producer.  Each subscriber owns one *pending* buffer of wire-ready
//! lines.  The simulation worker renders frames straight into it — no
//! per-frame allocation, no hand-off of owned strings — unless the
//! subscriber's frame budget (`--sub-buffer`) is spent, in which case the
//! frame is *dropped* and counted in that subscriber's [`DropCounter`]
//! (and a hub-wide aggregate).  The one exception is the job's terminal
//! `done` frame, which [`Hub::finish_job`] appends past the budget: the
//! summary reaches every subscriber that is still connected.  The
//! connection thread swaps the whole buffer for an empty one under the
//! lock and writes it to the socket with the lock released
//! ([`SubscriberHandle::next_batch`]).  The budget covers the pending
//! frames plus those of the batch being written, so it bounds the memory
//! of both buffers together (plus that one last frame).  The subscriber
//! learns its own loss total from the `bye` frame its connection writes
//! at end of stream, so "I saw every event" stays a falsifiable claim.
//!
//! Events arrive in chunks: the recorder hands its sink up to
//! [`trace::SINK_CHUNK`] events at a time, and [`Hub::publish_events`]
//! takes the subscriber list once per chunk and each matching subscriber's
//! pending lock once, renders the chunk's frames through that
//! subscriber's [`EventFrames`] (its stream head and per-kind members
//! rendered once), and updates the counters, the wake and the yield
//! ration once.  The budget is still checked frame by frame: a chunk that
//! straddles it delivers the room that is left and counts the rest as
//! dropped.  The connection thread is woken only when the pending buffer
//! goes from empty to non-empty, and a woken thread takes whatever is
//! pending at once: there is no fill threshold, no flush timer and no
//! pause between writes, so a trickle of frames is never held back.  A
//! flood batches itself, because it arrives a chunk at a time: a thread
//! that comes back from a write finds the chunks published meanwhile.
//!
//! Filtering happens here, producer-side: an event frame is only
//! rendered for subscribers whose [`EventFilter`] matches its labels (a
//! filter that accepts everything skips the labels), so a narrow
//! subscription costs the wire — and the render path — only its own
//! events.  When a job has no subscribers at all, a chunk costs one
//! relaxed atomic load.
//!
//! Every lock here is shared between the simulating worker and
//! connection threads, and a panic on one of them must not take the
//! others down: a poisoned guard is recovered, after restoring the one
//! condition its holder could have left broken (see `lock_subs` and
//! `SubShared::lock`).

use crate::proto::EventFrames;
use metrics::{DropCounter, DropStats};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use trace::{Event, EventFilter};

/// Frames rendered for one subscriber and not yet on the wire.
#[derive(Default)]
struct Pending {
    /// Whole lines, each ending in `\n`, not yet taken by the connection
    /// thread.
    lines: String,
    /// Lines in `lines`.
    frames: usize,
    /// Lines of the batch the connection thread took last and is still
    /// writing.  `frames + writing` never exceeds the subscriber's
    /// budget, so the knob bounds the memory of both buffers together.
    writing: usize,
    /// Frames offered, kept or dropped, since the producer last yielded
    /// its core (see `SubShared::append`).
    since_yield: usize,
    /// End of stream: nothing will be appended any more.
    closed: bool,
}

/// Largest allocation a connection thread hands back as the next pending
/// buffer; a larger one (a backlog built up while it could not run) is
/// freed once written.
const KEEP: usize = 16 * 1024;

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

    /// The guard of a lock whose holder panicked.  The holder may have
    /// died part-way through a line: keep whole lines only (`frames` is
    /// bumped after the line ends, so it already excludes the torn one).
    fn recover<'a>(&self, poisoned: PoisonError<MutexGuard<'a, Pending>>) -> MutexGuard<'a, Pending> {
        let mut p = poisoned.into_inner();
        let whole = p.lines.rfind('\n').map_or(0, |at| at + 1);
        p.lines.truncate(whole);
        self.pending.clear_poison();
        p
    }

    /// Offer a run of frames under one lock: each `render` appends one
    /// line to the pending buffer while the budget has room, and the
    /// frames past it are counted as dropped.  Never blocks beyond the
    /// buffer swap of the consumer.
    fn append<R: FnOnce(&mut String)>(&self, totals: &DropCounter, offered: impl IntoIterator<Item = R>) {
        let mut p = self.lock();
        let was_empty = p.frames == 0;
        let (mut delivered, mut dropped) = (0, 0);
        for render in offered {
            if p.frames + p.writing < self.budget {
                render(&mut p.lines);
                p.lines.push('\n');
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
        p.lines.push_str(last);
        p.lines.push('\n');
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
    /// The renderer of the replica this subscriber was last sent events
    /// of, rebuilt when the replica changes.
    render: Option<EventFrames>,
    shared: Arc<SubShared>,
}

/// A subscription as its owning connection sees it: the consuming side
/// of the batch buffer plus the loss counter the hub updates.
pub struct SubscriberHandle {
    pub id: u64,
    pub job: u64,
    shared: Arc<SubShared>,
}

impl SubscriberHandle {
    pub fn stats(&self) -> DropStats {
        self.shared.counter.snapshot()
    }

    /// Block until frames are pending or the stream has ended, then move
    /// everything pending into `batch`.  What `batch` held is taken to be
    /// written: its frames stop counting against the budget, and its
    /// allocation (up to [`KEEP`]) becomes the next pending buffer.
    /// Returns `false` once the stream has ended — `batch` then holds its
    /// tail, possibly empty, and [`SubscriberHandle::stats`] is final.
    pub fn next_batch(&self, batch: &mut String) -> bool {
        if batch.capacity() > KEEP {
            *batch = String::new();
        }
        batch.clear();
        let mut p = self.shared.lock();
        p.writing = 0;
        while p.frames == 0 && !p.closed {
            p = self
                .shared
                .wake
                .wait(p)
                .unwrap_or_else(|e| self.shared.recover(e));
        }
        std::mem::swap(&mut p.lines, batch);
        p.writing = std::mem::take(&mut p.frames);
        !p.closed
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

    /// Register a subscriber for `job` with a buffer of `depth` frames.
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
            render: None,
            shared: shared.clone(),
        });
        self.n_subs.store(subs.len(), Ordering::Relaxed);
        SubscriberHandle { id, job, shared }
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
    /// event is rendered once per subscriber whose filter it matches,
    /// directly into that subscriber's pending buffer, and not at all past
    /// the subscriber's budget (there it is counted as dropped).
    pub fn publish_events(&self, job: u64, replica: u64, protocol: &str, events: &[Event]) {
        if events.is_empty() || self.n_subs.load(Ordering::Relaxed) == 0 {
            return;
        }
        let mut subs = self.lock_subs();
        for s in subs.iter_mut().filter(|s| s.job == job) {
            let render = match &mut s.render {
                Some(r) if r.renders(replica, protocol) => r,
                slot => slot.insert(EventFrames::new(job, replica, protocol)),
            };
            let (filter, all) = (&s.filter, s.filter.is_all());
            let offered = events
                .iter()
                .filter(|ev| all || filter.matches(&ev.labels(protocol)))
                .map(|ev| |out: &mut String| render.write(out, ev));
            s.shared.append(&self.drops, offered);
        }
    }

    /// Publish a control frame (metric, replica_done, job, …) to every
    /// subscriber of `job`, bypassing event filters but not the frame
    /// budget.  It queues behind the events published before it, in the
    /// same buffer.  The terminal `done` frame goes through
    /// [`Hub::finish_job`] instead.
    pub fn publish_frame(&self, job: u64, frame: &str) {
        if self.n_subs.load(Ordering::Relaxed) == 0 {
            return;
        }
        let subs = self.lock_subs();
        for s in subs.iter().filter(|s| s.job == job) {
            s.shared
                .append(&self.drops, [|out: &mut String| out.push_str(frame)]);
        }
    }

    /// End of stream for `job`: append its terminal `done` frame to every
    /// subscriber's buffer, past the frame budget if need be (it is the
    /// one frame a subscriber cannot do without: a client that sees `bye`
    /// without it has lost the job's summary), and close the buffer, so
    /// each connection writes what is still pending and then its `bye`.
    pub fn finish_job(&self, job: u64, done: &str) {
        let mut subs = self.lock_subs();
        // closed under the list lock, which every append holds too:
        // nothing can land in a buffer after its consumer saw `closed`
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
    /// pending buffer, half-way through writing a line into each.
    pub(crate) fn poison_for_test(self: &Arc<Self>) {
        let hub = self.clone();
        let died = std::thread::spawn(move || {
            let subs = hub.subs.lock().unwrap();
            let mut held: Vec<_> = subs.iter().map(|s| s.shared.pending.lock().unwrap()).collect();
            for p in &mut held {
                p.lines.push_str("{\"stream\":\"torn");
            }
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

    /// Whatever is pending right now, without waiting for more.
    fn pending_lines(sub: &SubscriberHandle) -> Vec<String> {
        let p = sub.shared.lock();
        assert_eq!(p.lines.lines().count(), p.frames);
        assert!(p.frames + p.writing <= sub.shared.budget);
        p.lines.lines().map(str::to_string).collect()
    }

    /// The connection thread finished writing the batch it took (in the
    /// server that is its next call of `next_batch`, which may block).
    fn written(sub: &SubscriberHandle) {
        sub.shared.lock().writing = 0;
    }

    fn batch_lines(batch: &str) -> Vec<&str> {
        assert!(batch.is_empty() || batch.ends_with('\n'), "whole lines only");
        batch.lines().collect()
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
        // one subscriber whose pending buffer is full, one whose budget is
        // held by the batch its connection is still writing
        let hub = Hub::new();
        let (pending, writing) = (
            hub.subscribe(1, EventFilter::all(), 2),
            hub.subscribe(1, EventFilter::all(), 2),
        );
        for _ in 0..2 {
            hub.publish_events(1, 0, "ECGRID", &[ev()]);
        }
        let mut in_write = String::new();
        assert!(writing.next_batch(&mut in_write));
        assert_eq!(batch_lines(&in_write).len(), 2);
        for _ in 0..2 {
            hub.publish_events(1, 0, "ECGRID", &[ev()]);
        }
        // a control frame past the budget is dropped like an event ...
        hub.publish_frame(1, "{\"stream\":\"metric\"}");
        assert_eq!(pending.stats().dropped, 3);
        assert_eq!(writing.stats().dropped, 3);
        // ... but the summary is not, and it is the last frame before `bye`
        hub.finish_job(1, DONE);
        let mut batch = String::new();
        assert!(!pending.next_batch(&mut batch), "end of stream: `bye` is next");
        let lines = batch_lines(&batch);
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[2], DONE);
        assert_eq!(pending.stats().delivered, 3);
        assert!(!writing.next_batch(&mut in_write), "end of stream: `bye` is next");
        assert_eq!(batch_lines(&in_write), [DONE]);
        assert_eq!(writing.stats().delivered, 3);
        assert_eq!(hub.drop_stats().offered(), 12);
    }

    #[test]
    fn budget_bounds_what_is_queued_and_every_frame_is_accounted_for() {
        for budget in [1usize, 2, 8] {
            let hub = Hub::new();
            let sub = hub.subscribe(1, EventFilter::all(), budget);
            let (mut batch, mut carried) = (String::new(), 0u64);
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
                assert!(sub.next_batch(&mut batch));
                assert_eq!(batch_lines(&batch).len(), budget);
                carried += budget as u64;
                // a batch being written still counts: no room until it is out
                hub.publish_events(1, round, "ECGRID", &[ev()]);
                assert!(pending_lines(&sub).is_empty());
                written(&sub);
            }
            hub.finish_job(1, DONE);
            assert!(!sub.next_batch(&mut batch));
            assert_eq!(batch_lines(&batch), [DONE]);
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
        let sub = hub.subscribe(1, EventFilter::all(), budget);
        hub.publish_events(1, 0, "ECGRID", &[ev(), ev()]);
        let mut in_write = String::new();
        assert!(sub.next_batch(&mut in_write));
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
            let sub = hub.subscribe(1, EventFilter::all(), budget);
            let consumer = std::thread::spawn(move || {
                let (mut batch, mut carried) = (String::new(), 0u64);
                loop {
                    let more = sub.next_batch(&mut batch);
                    let n = batch_lines(&batch).len();
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
        let sub = hub.subscribe(1, EventFilter::all(), 64);
        for _ in 0..10 {
            hub.publish_events(1, 0, "ECGRID", &[ev()]);
        }
        hub.finish_job(1, DONE);
        assert_eq!(hub.subscriber_count(), 0);
        let mut batch = String::new();
        assert!(!sub.next_batch(&mut batch), "closed = end of stream");
        let lines = batch_lines(&batch);
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
        let sub = hub.subscribe(1, EventFilter::all().with_layers("mac").unwrap(), 1024);
        let (tx, rx) = channel();
        let consumer = std::thread::spawn(move || {
            let mut batch = String::new();
            while sub.next_batch(&mut batch) {
                tx.send(batch.clone()).unwrap();
            }
        });
        for _ in 0..3 {
            hub.publish_events(1, 0, "ECGRID", &[ev()]);
            let got = rx.recv_timeout(std::time::Duration::from_secs(30)).unwrap();
            assert_eq!(
                batch_lines(&got).len(),
                1,
                "delivered while the job is still running"
            );
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
        let sub = hub.subscribe(1, EventFilter::all(), 8);
        hub.publish_frame(1, "{\"stream\":\"job\"}");
        hub.poison_for_test();
        // every entry point still works, and the torn line is gone
        hub.publish_events(1, 0, "ECGRID", &[ev()]);
        let late = hub.subscribe(1, EventFilter::all(), 8);
        assert_eq!(hub.subscriber_count(), 2);
        hub.finish_job(1, DONE);
        let mut batch = String::new();
        assert!(!sub.next_batch(&mut batch));
        assert_eq!(
            batch_lines(&batch),
            [
                "{\"stream\":\"job\"}",
                proto::frame_event(1, 0, "ECGRID", &ev()).as_str(),
                DONE
            ]
        );
        assert_eq!(sub.stats().delivered, 3);
        assert!(!late.next_batch(&mut batch));
        assert_eq!(batch_lines(&batch), [DONE]);
    }
}
