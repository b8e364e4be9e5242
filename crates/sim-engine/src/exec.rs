//! Deterministic fork–join execution for the threaded world engine.
//!
//! The parallel world mode splits per-host work (energy integration,
//! mobility evaluation, reception verdicts) into fixed-size chunks and
//! fans the chunks out over a persistent [`WorkerPool`]. Determinism
//! comes from the *output layout*, not the schedule: each chunk owns a
//! disjoint slot range of the output arrays (via [`SlicePtr`]) and a
//! private [`Mailbox`] lane, so it does not matter which worker runs
//! which chunk or in what order — the serial commit phase reads slots
//! in index order and drains lanes in lane order, reproducing the
//! exact serial sequence of effects.
//!
//! [`Mailbox`] carries the conservative-synchronization contract: every
//! message is stamped with the virtual time of the epoch that produced
//! it, and [`Mailbox::drain`] delivers at a barrier no earlier than any
//! stamp. Both ends assert the invariant, so a lookahead violation is a
//! loud panic rather than a silent digest divergence.

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use crate::time::SimTime;

/// Number of chunks a parallel section of `n` items splits into.
pub fn chunk_count(n: usize, grain: usize) -> usize {
    let grain = grain.max(1);
    n.div_ceil(grain)
}

type TaskRef<'a> = &'a (dyn Fn(usize, Range<usize>) + Sync);

#[derive(Clone, Copy)]
struct JobDesc {
    task: &'static (dyn Fn(usize, Range<usize>) + Sync),
    n: usize,
    grain: usize,
}

struct Slot {
    epoch: u64,
    job: Option<JobDesc>,
    active: usize,
    shutdown: bool,
}

struct Shared {
    slot: Mutex<Slot>,
    work: Condvar,
    done: Condvar,
    cursor: AtomicUsize,
    panicked: AtomicBool,
}

/// A persistent pool of `threads - 1` worker threads plus the caller.
///
/// [`WorkerPool::for_each_range`] is a blocking fork–join: it returns
/// only after every chunk has run, so the task closure may borrow local
/// state. With `threads == 1` no threads are spawned and every chunk
/// runs inline on the caller — the zero-overhead serial path.
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
}

impl WorkerPool {
    /// Build a pool that executes parallel sections on `threads` lanes
    /// (the caller counts as one). `threads` is clamped to at least 1.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            slot: Mutex::new(Slot {
                epoch: 0,
                job: None,
                active: 0,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
            cursor: AtomicUsize::new(0),
            panicked: AtomicBool::new(false),
        });
        let workers = (1..threads)
            .map(|i| {
                let sh = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("world-worker-{i}"))
                    .spawn(move || Self::worker_main(sh))
                    .expect("spawn world worker")
            })
            .collect();
        Self {
            shared,
            workers,
            threads,
        }
    }

    /// Lanes this pool executes on, including the caller.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run `task(chunk_index, item_range)` over `0..n` split into
    /// `grain`-sized chunks. Chunk indices and ranges are a pure
    /// function of `(n, grain)`; only the worker-to-chunk assignment is
    /// nondeterministic. Blocks until all chunks finish; panics in any
    /// chunk are joined and re-raised here.
    pub fn for_each_range(&self, n: usize, grain: usize, task: TaskRef<'_>) {
        let grain = grain.max(1);
        if n == 0 {
            return;
        }
        if self.workers.is_empty() || n <= grain {
            let mut chunk = 0;
            let mut start = 0;
            while start < n {
                let end = (start + grain).min(n);
                task(chunk, start..end);
                chunk += 1;
                start = end;
            }
            return;
        }
        // Erase the lifetime so workers can hold the reference. Sound
        // because this function does not return until `active == 0`,
        // i.e. no worker can still observe the job.
        let task: &'static (dyn Fn(usize, Range<usize>) + Sync) = unsafe { std::mem::transmute(task) };
        let job = JobDesc { task, n, grain };
        {
            let mut g = self.shared.slot.lock().unwrap();
            debug_assert!(g.job.is_none(), "nested parallel section");
            self.shared.cursor.store(0, Ordering::SeqCst);
            g.epoch = g.epoch.wrapping_add(1);
            g.job = Some(job);
            g.active = self.workers.len();
        }
        self.shared.work.notify_all();
        Self::run_chunks(&self.shared, job);
        let mut g = self.shared.slot.lock().unwrap();
        while g.active > 0 {
            g = self.shared.done.wait(g).unwrap();
        }
        g.job = None;
        drop(g);
        if self.shared.panicked.swap(false, Ordering::SeqCst) {
            panic!("worker thread panicked during parallel section");
        }
    }

    fn run_chunks(shared: &Shared, job: JobDesc) {
        loop {
            let chunk = shared.cursor.fetch_add(1, Ordering::Relaxed);
            let Some(start) = chunk.checked_mul(job.grain) else {
                break;
            };
            if start >= job.n {
                break;
            }
            let end = (start + job.grain).min(job.n);
            let outcome = catch_unwind(AssertUnwindSafe(|| (job.task)(chunk, start..end)));
            if outcome.is_err() {
                shared.panicked.store(true, Ordering::SeqCst);
                break;
            }
        }
    }

    fn worker_main(shared: Arc<Shared>) {
        let mut seen = 0u64;
        loop {
            let job = {
                let mut g = shared.slot.lock().unwrap();
                loop {
                    if g.shutdown {
                        return;
                    }
                    match g.job {
                        Some(j) if g.epoch != seen => {
                            seen = g.epoch;
                            break j;
                        }
                        _ => g = shared.work.wait(g).unwrap(),
                    }
                }
            };
            Self::run_chunks(&shared, job);
            let mut g = shared.slot.lock().unwrap();
            g.active -= 1;
            if g.active == 0 {
                shared.done.notify_all();
            }
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut g = self.shared.slot.lock().unwrap();
            g.shutdown = true;
        }
        self.shared.work.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// A raw view of a `&mut [T]` that parallel chunks can slice into
/// disjoint sub-slices without aliasing through a shared `&mut`.
pub struct SlicePtr<T> {
    ptr: *mut T,
    len: usize,
}

impl<T> SlicePtr<T> {
    pub fn new(s: &mut [T]) -> Self {
        Self {
            ptr: s.as_mut_ptr(),
            len: s.len(),
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// # Safety
    ///
    /// Concurrent callers must hand out pairwise-disjoint, in-bounds
    /// ranges, and the backing slice must outlive every returned
    /// reference (guaranteed when used inside a [`WorkerPool`] section,
    /// which joins before returning).
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn slice(&self, r: Range<usize>) -> &mut [T] {
        debug_assert!(r.start <= r.end && r.end <= self.len);
        std::slice::from_raw_parts_mut(self.ptr.add(r.start), r.end - r.start)
    }

    /// Single-element access for scatter patterns where chunks index a
    /// permutation (e.g. a candidate list) rather than a dense range.
    ///
    /// # Safety
    ///
    /// Same contract as [`SlicePtr::slice`]: each index must be claimed
    /// by at most one concurrent caller, and the backing slice must
    /// outlive the reference.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn get_mut(&self, i: usize) -> &mut T {
        debug_assert!(i < self.len);
        &mut *self.ptr.add(i)
    }
}

impl<T> Clone for SlicePtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SlicePtr<T> {}
unsafe impl<T: Send> Send for SlicePtr<T> {}
unsafe impl<T: Send> Sync for SlicePtr<T> {}

/// Timestamped messages produced inside a parallel epoch and applied
/// serially at the next barrier.
///
/// One lane per chunk keeps posting contention-free; draining lanes in
/// lane order (FIFO within a lane) yields a deterministic global order
/// because chunk → lane assignment is fixed by item index.
///
/// The conservative-sync invariant — no message is ever delivered at a
/// barrier earlier than its timestamp, and no message is ever posted
/// with a timestamp earlier than the last delivery barrier — is
/// asserted at both ends.
pub struct Mailbox<M> {
    lanes: Vec<Vec<(SimTime, M)>>,
    delivered_until: SimTime,
}

impl<M> Default for Mailbox<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> Mailbox<M> {
    pub fn new() -> Self {
        Self {
            lanes: Vec::new(),
            delivered_until: SimTime::ZERO,
        }
    }

    /// Grow (never shrink) to at least `k` lanes.
    pub fn ensure_lanes(&mut self, k: usize) {
        if self.lanes.len() < k {
            self.lanes.resize_with(k, Vec::new);
        }
    }

    /// The barrier up to which messages have been delivered.
    pub fn delivered_until(&self) -> SimTime {
        self.delivered_until
    }

    pub fn pending(&self) -> usize {
        self.lanes.iter().map(Vec::len).sum()
    }

    /// Serial-path post into a lane.
    pub fn post(&mut self, lane: usize, at: SimTime, msg: M) {
        assert!(
            at >= self.delivered_until,
            "mailbox message stamped {at:?} precedes delivery barrier {:?}",
            self.delivered_until
        );
        self.lanes[lane].push((at, msg));
    }

    /// Split into per-lane writers for a parallel section. Each chunk
    /// must use only its own lane index.
    pub fn split(&mut self) -> MailSplit<M> {
        MailSplit {
            lanes: SlicePtr::new(&mut self.lanes),
            floor: self.delivered_until,
        }
    }

    /// Deliver every pending message at `barrier`, in lane order and
    /// FIFO within each lane. Asserts the lookahead contract: every
    /// stamp lies in `[delivered_until, barrier]`.
    pub fn drain(&mut self, barrier: SimTime, mut f: impl FnMut(SimTime, M)) {
        assert!(
            barrier >= self.delivered_until,
            "delivery barrier {barrier:?} went backwards past {:?}",
            self.delivered_until
        );
        let floor = self.delivered_until;
        self.delivered_until = barrier;
        for lane in &mut self.lanes {
            for (at, msg) in lane.drain(..) {
                assert!(
                    at >= floor && at <= barrier,
                    "mailbox message stamped {at:?} outside delivery window [{floor:?}, {barrier:?}]"
                );
                f(at, msg);
            }
        }
    }
}

/// Borrow-erased lane handles for a single parallel section.
pub struct MailSplit<M> {
    lanes: SlicePtr<Vec<(SimTime, M)>>,
    floor: SimTime,
}

impl<M> Clone for MailSplit<M> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<M> Copy for MailSplit<M> {}

impl<M> MailSplit<M> {
    /// # Safety
    ///
    /// Each lane index must be claimed by at most one chunk at a time,
    /// and the parent [`Mailbox`] must outlive the section (guaranteed
    /// inside a [`WorkerPool`] fork–join).
    pub unsafe fn writer(&self, lane: usize) -> LaneWriter<'_, M> {
        let lane = &mut self.lanes.slice(lane..lane + 1)[0];
        LaneWriter {
            lane,
            floor: self.floor,
        }
    }
}

/// Exclusive append handle to one mailbox lane.
pub struct LaneWriter<'a, M> {
    lane: &'a mut Vec<(SimTime, M)>,
    floor: SimTime,
}

impl<M> LaneWriter<'_, M> {
    pub fn post(&mut self, at: SimTime, msg: M) {
        assert!(
            at >= self.floor,
            "mailbox message stamped {at:?} precedes delivery barrier {:?}",
            self.floor
        );
        self.lane.push((at, msg));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn chunk_geometry_is_pure() {
        assert_eq!(chunk_count(0, 128), 0);
        assert_eq!(chunk_count(1, 128), 1);
        assert_eq!(chunk_count(128, 128), 1);
        assert_eq!(chunk_count(129, 128), 2);
        assert_eq!(chunk_count(1000, 0), 1000);
    }

    #[test]
    fn pool_covers_every_item_exactly_once() {
        for threads in [1, 2, 4] {
            let pool = WorkerPool::new(threads);
            let n = 10_000usize;
            let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
            pool.for_each_range(n, 64, &|_chunk, range| {
                for i in range {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                }
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn pool_chunk_indices_match_item_ranges() {
        let pool = WorkerPool::new(4);
        let n = 1003usize;
        let grain = 97usize;
        let seen: Vec<AtomicU64> = (0..chunk_count(n, grain)).map(|_| AtomicU64::new(0)).collect();
        pool.for_each_range(n, grain, &|chunk, range| {
            assert_eq!(range.start, chunk * grain);
            assert_eq!(range.end, ((chunk + 1) * grain).min(n));
            seen[chunk].fetch_add(1, Ordering::Relaxed);
        });
        assert!(seen.iter().all(|s| s.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn pool_scatter_then_serial_commit_is_deterministic() {
        // The canonical usage: chunks write disjoint output slots, the
        // caller folds them serially afterwards. Result must be
        // identical for every thread count.
        let n = 5000usize;
        let expect: Vec<u64> = (0..n as u64).map(|i| i * i + 1).collect();
        for threads in [1, 2, 3, 8] {
            let pool = WorkerPool::new(threads);
            let mut out = vec![0u64; n];
            let view = SlicePtr::new(&mut out);
            pool.for_each_range(n, 128, &|_chunk, range| {
                let slots = unsafe { view.slice(range.clone()) };
                for (off, i) in range.enumerate() {
                    slots[off] = (i as u64) * (i as u64) + 1;
                }
            });
            assert_eq!(out, expect, "threads={threads}");
        }
    }

    #[test]
    fn pool_reuse_across_many_sections() {
        let pool = WorkerPool::new(3);
        for round in 0..50u64 {
            let n = 257;
            let sum = AtomicU64::new(0);
            pool.for_each_range(n, 16, &|_c, r| {
                let mut local = 0;
                for i in r {
                    local += i as u64 + round;
                }
                sum.fetch_add(local, Ordering::Relaxed);
            });
            let expect: u64 = (0..n as u64).map(|i| i + round).sum();
            assert_eq!(sum.load(Ordering::Relaxed), expect);
        }
    }

    #[test]
    fn pool_propagates_worker_panic() {
        let pool = WorkerPool::new(2);
        let hit = catch_unwind(AssertUnwindSafe(|| {
            pool.for_each_range(1000, 8, &|_c, r| {
                if r.contains(&500) {
                    panic!("boom");
                }
            });
        }));
        assert!(hit.is_err());
        // Pool must still be usable after a panicked section.
        let sum = AtomicU64::new(0);
        pool.for_each_range(100, 8, &|_c, r| {
            sum.fetch_add(r.len() as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn mailbox_drains_in_lane_major_fifo_order() {
        let mut mb: Mailbox<u32> = Mailbox::new();
        mb.ensure_lanes(3);
        mb.post(2, SimTime(10), 20);
        mb.post(0, SimTime(10), 1);
        mb.post(0, SimTime(12), 2);
        mb.post(1, SimTime(11), 10);
        let mut got = Vec::new();
        mb.drain(SimTime(12), |at, m| got.push((at, m)));
        assert_eq!(
            got,
            vec![
                (SimTime(10), 1),
                (SimTime(12), 2),
                (SimTime(11), 10),
                (SimTime(10), 20)
            ]
        );
        assert_eq!(mb.delivered_until(), SimTime(12));
        assert_eq!(mb.pending(), 0);
    }

    #[test]
    #[should_panic(expected = "precedes delivery barrier")]
    fn mailbox_rejects_stale_post() {
        let mut mb: Mailbox<u32> = Mailbox::new();
        mb.ensure_lanes(1);
        mb.drain(SimTime(100), |_, _| {});
        mb.post(0, SimTime(99), 7);
    }

    #[test]
    #[should_panic(expected = "outside delivery window")]
    fn mailbox_rejects_future_message_at_barrier() {
        let mut mb: Mailbox<u32> = Mailbox::new();
        mb.ensure_lanes(1);
        mb.post(0, SimTime(500), 7);
        mb.drain(SimTime(400), |_, _| {});
    }

    #[test]
    fn mailbox_parallel_post_serial_drain() {
        let pool = WorkerPool::new(4);
        let n = 4096usize;
        let grain = 256usize;
        let mut mb: Mailbox<usize> = Mailbox::new();
        mb.ensure_lanes(chunk_count(n, grain));
        let split = mb.split();
        pool.for_each_range(n, grain, &|chunk, range| {
            let mut w = unsafe { split.writer(chunk) };
            for i in range {
                if i % 7 == 0 {
                    w.post(SimTime(42), i);
                }
            }
        });
        let mut got = Vec::new();
        mb.drain(SimTime(42), |_, i| got.push(i));
        let expect: Vec<usize> = (0..n).filter(|i| i % 7 == 0).collect();
        assert_eq!(got, expect);
    }
}
