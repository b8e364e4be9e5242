//! A Brown calendar queue — the classic O(1)-amortized pending-event set
//! used by high-performance discrete-event simulators (including ns-2).
//!
//! Events are hashed into `nbuckets` day-buckets by timestamp; a "year" is
//! `nbuckets * bucket_width`.  Dequeue scans forward from the current day
//! and only considers events belonging to the current year, so under a
//! stationary event population each operation touches O(1) buckets.  The
//! queue resizes (doubling/halving buckets, re-estimating bucket width from
//! observed event spacing) when the population crosses thresholds.
//!
//! Equal-timestamp events dequeue in insertion order, exactly like
//! [`EventQueue`](crate::EventQueue), so the two backends are
//! interchangeable without affecting simulation results.

use crate::queue::PendingEvents;
use crate::time::SimTime;

struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

/// Brown calendar queue.  See module docs.
pub struct CalendarQueue<E> {
    buckets: Vec<Vec<Entry<E>>>,
    /// Width of one day-bucket in nanoseconds (always >= 1).
    width: u64,
    /// Index of the bucket the dequeue cursor is standing on.
    cur_bucket: usize,
    /// Start time of the current year+day window for the cursor.
    cur_top: u64,
    /// Earliest possible pending timestamp (cursor position in time).
    cur_time: u64,
    len: usize,
    next_seq: u64,
}

const INITIAL_BUCKETS: usize = 16;
const INITIAL_WIDTH_NS: u64 = 1_000_000; // 1 ms; re-estimated on first resize

impl<E> Default for CalendarQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> CalendarQueue<E> {
    pub fn new() -> Self {
        CalendarQueue {
            buckets: (0..INITIAL_BUCKETS).map(|_| Vec::new()).collect(),
            width: INITIAL_WIDTH_NS,
            cur_bucket: 0,
            cur_top: INITIAL_WIDTH_NS,
            cur_time: 0,
            len: 0,
            next_seq: 0,
        }
    }

    #[inline]
    fn nbuckets(&self) -> usize {
        self.buckets.len()
    }

    #[inline]
    fn bucket_for(&self, t: u64) -> usize {
        ((t / self.width) % self.nbuckets() as u64) as usize
    }

    fn insert_entry(&mut self, e: Entry<E>) {
        let b = self.bucket_for(e.at.0);
        let bucket = &mut self.buckets[b];
        // keep each bucket sorted by (time, seq); events of one day-bucket
        // are few, so linear/binary insertion is cheap
        let pos = bucket.partition_point(|x| (x.at, x.seq) <= (e.at, e.seq));
        bucket.insert(pos, e);
    }

    /// Rebuild with a new bucket count, re-estimating the bucket width from
    /// the spacing of events near the head (Brown's heuristic).
    fn resize(&mut self, new_nbuckets: usize) {
        let mut all: Vec<Entry<E>> = self.buckets.iter_mut().flat_map(std::mem::take).collect();
        all.sort_by_key(|e| (e.at, e.seq));

        // estimate width = average gap over up to the first 25 events,
        // scaled by 3 (Brown's recommendation keeps ~75% of a day's events
        // in their own bucket)
        let sample: Vec<u64> = all.iter().take(25).map(|e| e.at.0).collect();
        let width = if sample.len() >= 2 {
            let span = sample[sample.len() - 1] - sample[0];
            let avg_gap = span / (sample.len() as u64 - 1);
            (avg_gap.max(1)).saturating_mul(3).max(1)
        } else {
            self.width
        };

        self.buckets = (0..new_nbuckets).map(|_| Vec::new()).collect();
        self.width = width;
        let head_time = all.first().map(|e| e.at.0).unwrap_or(self.cur_time);
        self.cur_time = head_time;
        self.cur_bucket = self.bucket_for(head_time);
        self.cur_top = (head_time / self.width + 1) * self.width;
        for e in all {
            self.insert_entry(e);
        }
    }

    /// Earliest entry across all buckets (used on year-wrap fallback).
    fn global_min_pos(&self) -> Option<(usize, SimTime, u64)> {
        let mut best: Option<(usize, SimTime, u64)> = None;
        for (i, b) in self.buckets.iter().enumerate() {
            if let Some(head) = b.first() {
                let cand = (i, head.at, head.seq);
                best = match best {
                    None => Some(cand),
                    Some(cur) if (cand.1, cand.2) < (cur.1, cur.2) => Some(cand),
                    other => other,
                };
            }
        }
        best
    }
}

impl<E> PendingEvents<E> for CalendarQueue<E> {
    fn insert(&mut self, at: SimTime, event: E) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        // An event earlier than the dequeue cursor would be skipped by the
        // forward day-scan (a later-bucket event of the same year would
        // pop first): pull the cursor back to it.
        if at.0 < self.cur_time {
            self.cur_time = at.0;
            self.cur_bucket = self.bucket_for(at.0);
            self.cur_top = (at.0 / self.width + 1) * self.width;
        }
        self.insert_entry(Entry { at, seq, event });
        self.len += 1;
        if self.len > 2 * self.nbuckets() {
            let n = self.nbuckets() * 2;
            self.resize(n);
        }
        seq
    }

    fn pop_next(&mut self) -> Option<(SimTime, u64, E)> {
        if self.len == 0 {
            return None;
        }
        // scan at most one full year of buckets from the cursor
        let n = self.nbuckets();
        for _ in 0..n {
            let b = self.cur_bucket;
            let head_in_year = self.buckets[b]
                .first()
                .map(|e| e.at.0 < self.cur_top)
                .unwrap_or(false);
            if head_in_year {
                let e = self.buckets[b].remove(0);
                self.len -= 1;
                self.cur_time = e.at.0;
                if self.len < self.nbuckets() / 2 && self.nbuckets() > INITIAL_BUCKETS {
                    let nb = self.nbuckets() / 2;
                    self.resize(nb);
                }
                return Some((e.at, e.seq, e.event));
            }
            // advance to next day
            self.cur_bucket = (self.cur_bucket + 1) % n;
            self.cur_top += self.width;
        }
        // a whole year was empty: jump the cursor to the global minimum
        let (b, at, _) = self.global_min_pos().expect("len>0 but no entries");
        self.cur_bucket = b;
        self.cur_time = at.0;
        self.cur_top = (at.0 / self.width + 1) * self.width;
        let e = self.buckets[b].remove(0);
        self.len -= 1;
        Some((e.at, e.seq, e.event))
    }

    fn next_time(&self) -> Option<SimTime> {
        // exact but O(buckets); used rarely (idle checks), not in the hot loop
        self.global_min_pos().map(|(_, at, _)| at)
    }

    fn len(&self) -> usize {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::EventQueue;

    #[test]
    fn pops_in_time_order() {
        let mut q = CalendarQueue::new();
        for &s in &[5u64, 1, 9, 3, 7, 2, 8, 4, 6, 0] {
            q.insert(SimTime::from_secs(s), s);
        }
        let out: Vec<_> = std::iter::from_fn(|| q.pop_next()).map(|(_, _, e)| e).collect();
        assert_eq!(out, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = CalendarQueue::new();
        let t = SimTime::from_millis(42);
        for i in 0..50 {
            q.insert(t, i);
        }
        let out: Vec<_> = std::iter::from_fn(|| q.pop_next()).map(|(_, _, e)| e).collect();
        assert_eq!(out, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn survives_resize_cycles() {
        let mut q = CalendarQueue::new();
        // push enough to force several doublings, then drain to force halving
        for i in 0..2000u64 {
            q.insert(SimTime(i * 13 % 9973), i);
        }
        assert_eq!(q.len(), 2000);
        let mut last = SimTime::ZERO;
        let mut count = 0;
        while let Some((t, _, _)) = q.pop_next() {
            assert!(t >= last, "out of order after resize");
            last = t;
            count += 1;
        }
        assert_eq!(count, 2000);
    }

    #[test]
    fn sparse_times_use_year_wrap_fallback() {
        let mut q = CalendarQueue::new();
        // timestamps far beyond one calendar year apart
        q.insert(SimTime::from_secs(1_000_000), 3);
        q.insert(SimTime::from_secs(10), 1);
        q.insert(SimTime::from_secs(500_000), 2);
        let out: Vec<_> = std::iter::from_fn(|| q.pop_next()).map(|(_, _, e)| e).collect();
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn agrees_with_the_heap_on_random_workload() {
        // deterministic pseudo-random workload (LCG), hold-model style
        let mut cal = CalendarQueue::new();
        let mut heap = EventQueue::new();
        let mut x: u64 = 0x2545F4914F6CDD1D;
        let mut now = 0u64;
        let step = |x: &mut u64| {
            *x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *x >> 33
        };
        for i in 0..500u64 {
            let t = SimTime(now + step(&mut x) % 1_000_000);
            cal.insert(t, i);
            heap.insert(t, i);
        }
        for _ in 0..5000 {
            let a = cal.pop_next();
            let b = heap.pop_next();
            match (a, b) {
                (Some((ta, _, ea)), Some((tb, _, eb))) => {
                    assert_eq!((ta, ea), (tb, eb));
                    now = ta.0;
                    // hold model: reinsert at a later time
                    let t = SimTime(now + 1 + step(&mut x) % 500_000);
                    cal.insert(t, ea);
                    heap.insert(t, eb);
                }
                (None, None) => break,
                _ => panic!("queues disagree on emptiness"),
            }
        }
    }

    #[test]
    fn next_time_matches_pop() {
        let mut q = CalendarQueue::new();
        q.insert(SimTime::from_secs(7), ());
        q.insert(SimTime::from_secs(3), ());
        assert_eq!(q.next_time(), Some(SimTime::from_secs(3)));
        let (t, _, _) = q.pop_next().unwrap();
        assert_eq!(t, SimTime::from_secs(3));
        assert_eq!(q.next_time(), Some(SimTime::from_secs(7)));
    }

    #[test]
    fn empty_behaviour() {
        let mut q: CalendarQueue<()> = CalendarQueue::new();
        assert!(q.pop_next().is_none());
        assert_eq!(q.next_time(), None);
        assert!(q.is_empty());
    }
}
