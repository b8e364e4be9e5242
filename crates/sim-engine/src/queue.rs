//! The pending-event set: a four-ary min-heap with strict FIFO
//! tie-breaking.

use crate::time::SimTime;

/// Interface shared by the heap-based [`EventQueue`] and the
/// [`CalendarQueue`](crate::CalendarQueue), so schedulers and benchmarks can
/// swap implementations.
pub trait PendingEvents<E> {
    /// Insert an event; returns a monotonically-increasing sequence number,
    /// the FIFO tie-break key among equal timestamps.
    fn insert(&mut self, at: SimTime, event: E) -> u64;
    /// Remove and return the earliest event (FIFO among equal timestamps)
    /// with its timestamp and sequence number.
    fn pop_next(&mut self) -> Option<(SimTime, u64, E)>;
    /// Timestamp of the earliest pending event.
    fn next_time(&self) -> Option<SimTime>;
    fn len(&self) -> usize;
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One pending event: 16 bytes for a `u32` payload (the scheduler's slot
/// index), against 24 for a `u64` sequence number.
#[derive(Clone, Copy)]
struct Entry<E> {
    at: SimTime,
    seq: u32,
    event: E,
}

impl<E> Entry<E> {
    /// Dispatch order: earliest first, then insertion order.  One integer,
    /// so a comparison is branch-free and a selection a conditional move.
    #[inline]
    fn key(&self) -> u128 {
        ((self.at.0 as u128) << 32) | self.seq as u128
    }
}

/// Children per heap node: a node's four children share one or two cache
/// lines of 16-byte entries, and the tree is half as deep as a binary one.
const ARITY: usize = 4;

/// Four-ary implicit min-heap pending-event set.
///
/// Node `i` has children `4i+1 ..= 4i+4`; both sifts move a hole and write
/// the sifted entry once.  `O(log n)` insert/pop, deterministic order:
/// events with equal timestamps come out in insertion order.  This is the
/// default scheduler backend.
///
/// The FIFO key is a `u32` counter.  When it would wrap, the pending
/// entries are renumbered `0..n` in dispatch order (a sorted array is a
/// valid heap), so order holds for any run length at an `O(n log n)` cost
/// once per 2³² inserts.  The `u64` sequence numbers the trait hands out
/// count those renumberings in their high half, so they stay monotone; an
/// entry pending across one comes back out with a higher number than its
/// insert returned, still in order.
pub struct EventQueue<E> {
    heap: Vec<Entry<E>>,
    next_seq: u32,
    /// Renumberings so far: the high half of every sequence number.
    epoch: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    pub fn new() -> Self {
        EventQueue {
            heap: Vec::new(),
            next_seq: 0,
            epoch: 0,
        }
    }

    /// A queue whose FIFO counter starts at `next_seq`, to reach the
    /// renumbering without 2³² inserts.
    #[cfg(test)]
    fn starting_at(next_seq: u32) -> Self {
        EventQueue {
            next_seq,
            ..Self::new()
        }
    }

    #[inline]
    fn seq_number(&self, seq: u32) -> u64 {
        (self.epoch << 32) | seq as u64
    }
}

impl<E: Copy> EventQueue<E> {
    /// Renumber the pending entries `0..n` in dispatch order.  Sorting
    /// leaves every parent before its children, so the array stays a heap.
    #[cold]
    fn renumber(&mut self) {
        let n = self.heap.len();
        assert!(n < u32::MAX as usize, "event queue exceeds u32 sequence space");
        self.heap.sort_unstable_by_key(Entry::key);
        for (i, e) in self.heap.iter_mut().enumerate() {
            e.seq = i as u32;
        }
        self.next_seq = n as u32;
        self.epoch += 1;
    }

    /// Move the hole at `hole` up until `entry` fits, then fill it.
    #[inline]
    fn sift_up(&mut self, mut hole: usize, entry: Entry<E>) {
        let h = &mut self.heap[..];
        let key = entry.key();
        while hole > 0 {
            let parent = (hole - 1) / ARITY;
            if key >= h[parent].key() {
                break;
            }
            h[hole] = h[parent];
            hole = parent;
        }
        h[hole] = entry;
    }

    /// Move the hole at the root down along the earliest children until
    /// `entry` fits, then fill it.
    #[inline]
    fn sift_down(&mut self, entry: Entry<E>) {
        let h = &mut self.heap[..];
        let n = h.len();
        let key = entry.key();
        let mut hole = 0;
        loop {
            let first = ARITY * hole + 1;
            let (min, min_key) = if let Some(c) = h.get(first..first + ARITY) {
                // a full family: a two-round tournament
                let (k0, k1, k2, k3) = (c[0].key(), c[1].key(), c[2].key(), c[3].key());
                let (i01, k01) = if k1 < k0 { (1, k1) } else { (0, k0) };
                let (i23, k23) = if k3 < k2 { (3, k3) } else { (2, k2) };
                let (i, k) = if k23 < k01 { (i23, k23) } else { (i01, k01) };
                (first + i, k)
            } else if first < n {
                // the last, partial family
                let (i, e) = h[first..]
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| e.key())
                    .expect("first < n");
                (first + i, e.key())
            } else {
                break;
            };
            if key <= min_key {
                break;
            }
            h[hole] = h[min];
            hole = min;
        }
        h[hole] = entry;
    }
}

impl<E: Copy> PendingEvents<E> for EventQueue<E> {
    fn insert(&mut self, at: SimTime, event: E) -> u64 {
        if self.next_seq == u32::MAX {
            self.renumber();
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let entry = Entry { at, seq, event };
        let hole = self.heap.len();
        self.heap.push(entry);
        self.sift_up(hole, entry);
        self.seq_number(seq)
    }

    fn pop_next(&mut self) -> Option<(SimTime, u64, E)> {
        let last = self.heap.pop()?;
        let top = match self.heap.first() {
            Some(&root) => {
                self.sift_down(last);
                root
            }
            None => last,
        };
        Some((top.at, self.seq_number(top.seq), top.event))
    }

    fn next_time(&self) -> Option<SimTime> {
        self.heap.first().map(|e| e.at)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.insert(SimTime::from_secs(3), "c");
        q.insert(SimTime::from_secs(1), "a");
        q.insert(SimTime::from_secs(2), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop_next()).map(|(_, _, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.insert(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop_next()).map(|(_, _, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn seq_numbers_are_unique_and_monotone() {
        let mut q = EventQueue::new();
        let s1 = q.insert(SimTime::from_secs(5), ());
        let s2 = q.insert(SimTime::from_secs(1), ());
        assert!(s2 > s1);
        assert_eq!(q.pop_next().unwrap().1, s2, "pop returns the insert's number");
    }

    #[test]
    fn next_time_peeks_earliest() {
        let mut q = EventQueue::new();
        assert_eq!(q.next_time(), None);
        q.insert(SimTime::from_secs(9), ());
        q.insert(SimTime::from_secs(4), ());
        assert_eq!(q.next_time(), Some(SimTime::from_secs(4)));
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
    }

    #[test]
    fn empty_queue_pops_none() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.pop_next().is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_insert_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.insert(SimTime::from_secs(10), 10);
        q.insert(SimTime::from_secs(5), 5);
        assert_eq!(q.pop_next().unwrap().2, 5);
        q.insert(SimTime::from_secs(7), 7);
        q.insert(SimTime::from_secs(1), 1);
        assert_eq!(q.pop_next().unwrap().2, 1);
        assert_eq!(q.pop_next().unwrap().2, 7);
        assert_eq!(q.pop_next().unwrap().2, 10);
    }

    #[test]
    fn a_slot_index_entry_takes_16_bytes() {
        assert_eq!(std::mem::size_of::<Entry<u32>>(), 16);
    }

    #[test]
    fn equal_times_stay_fifo_across_the_sequence_wrap() {
        // 40 equal-time inserts straddle the renumbering at u32::MAX, with
        // pops and earlier/later events interleaved; dispatch stays
        // (time, insertion) order and the numbers handed out stay monotone
        let t = SimTime::from_secs(5);
        let mut q = EventQueue::starting_at(u32::MAX - 20);
        let mut issued = Vec::new();
        let mut out = Vec::new();
        for i in 0..40u32 {
            issued.push(q.insert(t, i));
            if i % 10 == 9 {
                issued.push(q.insert(SimTime::from_secs(9), 1000 + i));
                issued.push(q.insert(SimTime::from_secs(1), 2000 + i));
                out.push(q.pop_next().unwrap());
            }
        }
        assert!(issued.windows(2).all(|w| w[0] < w[1]), "{issued:?}");
        assert_eq!(q.epoch, 1, "the counter wrapped once");
        out.extend(std::iter::from_fn(|| q.pop_next()));
        let events: Vec<u32> = out.iter().map(|&(_, _, e)| e).collect();
        // each burst's early event is the one its pop takes
        let mut want = vec![2009, 2019, 2029, 2039];
        want.extend(0..40);
        want.extend([1009, 1019, 1029, 1039]);
        assert_eq!(events, want);
        let times: Vec<SimTime> = out.iter().map(|&(at, _, _)| at).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        let equal: Vec<u64> = out.iter().filter(|o| o.0 == t).map(|o| o.1).collect();
        assert!(equal.windows(2).all(|w| w[0] < w[1]), "FIFO keys: {equal:?}");
    }
}
