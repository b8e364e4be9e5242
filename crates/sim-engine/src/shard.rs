//! Sharded conservative-synchronization scheduler.
//!
//! [`ShardedScheduler`] partitions the pending-event set into K per-shard
//! queues (each with its own [`EventPool`] slab) while preserving the
//! single-queue dispatch order *bit for bit*.  The trick is a single
//! global insertion counter: every `schedule_*` call — whatever shard it
//! lands on — draws the next sequence number from one monotone counter,
//! and each shard queue orders its entries by `(time, global_seq)`.  The
//! merge pop takes the minimum head across shards under the total order
//! `(time, global_seq, shard_id)`.
//!
//! **Why this equals single-queue order.**  A serial [`Scheduler`]
//! dispatches pending events in lexicographic `(time, insertion_seq)`
//! order (FIFO among equal timestamps).  Here the shards partition the
//! pending set, each shard head is its own `(time, seq)` minimum, so the
//! minimum over heads is the global `(time, seq)` minimum — the exact
//! event the serial scheduler would pop.  Global sequence numbers are
//! unique, so the `shard_id` tie-break never actually engages; it is kept
//! in the comparator to make the merge order a *total* order by
//! construction rather than by side argument.  Induction over pops gives
//! identical dispatch sequences, independent of how events are assigned
//! to shards (`tests/sharded_merge.rs` checks this against the serial
//! scheduler on randomized workloads).
//!
//! Lazy cancellation works as in the serial scheduler: a cancelled event
//! is flagged in its shard's pool slot and skipped when it is popped.
//!
//! [`Scheduler`]: crate::sched::Scheduler

use crate::budget::{BudgetExceeded, RunBudget, WALL_CHECK_STRIDE};
use crate::pool::{EventPool, PoolStats};
use crate::sched::EventHandle;
use crate::time::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Queue entry: absolute time, globally-unique insertion seq, pool slot.
/// Ordered min-first by `(at, seq)` via `Reverse` in the heap.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Entry {
    at: SimTime,
    seq: u64,
    slot: u32,
}

struct Shard<E> {
    queue: BinaryHeap<Reverse<Entry>>,
    pool: EventPool<E>,
}

/// K per-shard event queues merged into one deterministic dispatch
/// stream.  Mirrors the [`Scheduler`](crate::sched::Scheduler) API with
/// one addition: `schedule_*` takes the target shard index.
pub struct ShardedScheduler<E> {
    shards: Vec<Shard<E>>,
    /// Global insertion counter — the queue_seq of the merge key.
    next_seq: u64,
    now: SimTime,
    processed: u64,
    max_pending: usize,
    /// Live events across all shard pools, tracked here so the aggregated
    /// high-water mark matches what a single pool would have recorded.
    live: usize,
    high_water: usize,
    budget: RunBudget,
    /// Anchor of the wall-clock budget axis (spans the scheduler's
    /// lifetime, like `processed`).
    wall_start: std::time::Instant,
}

impl<E> ShardedScheduler<E> {
    /// Build a scheduler with `k` shards (`k >= 1`).
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "a sharded scheduler needs at least one shard");
        ShardedScheduler {
            shards: (0..k)
                .map(|_| Shard {
                    queue: BinaryHeap::new(),
                    pool: EventPool::new(),
                })
                .collect(),
            next_seq: 0,
            now: SimTime::ZERO,
            processed: 0,
            max_pending: 0,
            live: 0,
            high_water: 0,
            budget: RunBudget::UNLIMITED,
            wall_start: std::time::Instant::now(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Install a run budget; enforced by the driving loop via
    /// [`ShardedScheduler::check_budget`], never by the scheduler itself.
    pub fn set_budget(&mut self, budget: RunBudget) {
        self.budget = budget;
    }

    /// The installed run budget.
    pub fn budget(&self) -> RunBudget {
        self.budget
    }

    /// Check the dispatched-event count and clock against the budget.
    /// The wall axis is sampled every [`WALL_CHECK_STRIDE`] dispatches.
    #[inline]
    pub fn check_budget(&self) -> Result<(), BudgetExceeded> {
        self.budget.check(self.processed, self.now)?;
        if self.budget.max_wall_ms.is_some() && self.processed.is_multiple_of(WALL_CHECK_STRIDE) {
            let elapsed_ms = self.wall_start.elapsed().as_millis() as u64;
            self.budget.check_wall(elapsed_ms, self.processed, self.now)?;
        }
        Ok(())
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events dispatched so far.
    #[inline]
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// High-water mark of the merged pending-event set (cancelled entries
    /// included, like the serial scheduler's).
    #[inline]
    pub fn max_pending(&self) -> usize {
        self.max_pending
    }

    /// Pending (possibly cancelled) events across all shards.
    pub fn pending(&self) -> usize {
        self.shards.iter().map(|s| s.queue.len()).sum()
    }

    /// Aggregated slab counters.  `allocated`/`freed`/`live`/`capacity`
    /// sum over the shard pools; `high_water` is the *global* live peak
    /// (tracked at every alloc), so it equals what one merged pool would
    /// report — per-shard peaks do not generally sum to the global peak.
    pub fn pool_stats(&self) -> PoolStats {
        let mut agg = PoolStats::default();
        for s in &self.shards {
            let st = s.pool.stats();
            agg.allocated += st.allocated;
            agg.freed += st.freed;
            agg.live += st.live;
            agg.capacity += st.capacity;
        }
        agg.high_water = self.high_water;
        agg
    }

    /// Pre-grow every shard slab by `additional` slots.  Any single shard
    /// can in principle hold the whole pending set (migration skew), so
    /// each gets the full reservation; memory cost is K × slab.
    pub fn reserve_events(&mut self, additional: usize) {
        for s in &mut self.shards {
            s.pool.reserve(additional);
        }
    }

    #[inline]
    fn note_depth(&mut self) {
        let d = self.pending();
        if d > self.max_pending {
            self.max_pending = d;
        }
    }

    #[inline]
    fn push(&mut self, shard: usize, at: SimTime, event: E) -> EventHandle {
        let seq = self.next_seq;
        self.next_seq += 1;
        let sh = &mut self.shards[shard];
        let slot = sh.pool.alloc(event);
        sh.queue.push(Reverse(Entry { at, seq, slot }));
        self.live += 1;
        if self.live > self.high_water {
            self.high_water = self.live;
        }
        self.note_depth();
        EventHandle {
            shard: shard as u32,
            slot,
            stamp: self.shards[shard].pool.stamp(slot),
        }
    }

    /// Schedule `event` on `shard` at absolute time `at`.  Panics if `at`
    /// is in the past — causality violations are always simulator bugs.
    pub fn schedule_at(&mut self, shard: usize, at: SimTime, event: E) -> EventHandle {
        assert!(
            at >= self.now,
            "scheduling into the past: {:?} < {:?}",
            at,
            self.now
        );
        self.push(shard, at, event)
    }

    /// Schedule `event` on `shard` after a relative delay.
    pub fn schedule_in(&mut self, shard: usize, delay: SimDuration, event: E) -> EventHandle {
        let at = self.now.checked_add(delay).expect("virtual time overflow");
        self.push(shard, at, event)
    }

    /// Revoke a pending event.  Cancelling an already-fired or
    /// already-cancelled event is a no-op.
    pub fn cancel(&mut self, h: EventHandle) {
        self.shards[h.shard as usize].pool.revoke(h.slot, h.stamp);
    }

    /// Pop the next live event in merged `(time, queue_seq, shard_id)`
    /// order, advancing the clock to its timestamp.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<(SimTime, E)> {
        loop {
            let mut best: Option<(Entry, usize)> = None;
            for (si, sh) in self.shards.iter().enumerate() {
                if let Some(&Reverse(head)) = sh.queue.peek() {
                    // shard order makes (at, seq, si) strictly increasing,
                    // so `<` on (at, seq) alone picks the total-order min
                    match best {
                        Some((b, _)) if (head.at, head.seq) >= (b.at, b.seq) => {}
                        _ => best = Some((head, si)),
                    }
                }
            }
            let (entry, si) = best?;
            let sh = &mut self.shards[si];
            sh.queue.pop();
            let cancelled = sh.pool.is_revoked(entry.slot);
            let ev = sh.pool.free(entry.slot);
            self.live -= 1;
            if cancelled {
                continue;
            }
            debug_assert!(entry.at >= self.now);
            self.now = entry.at;
            self.processed += 1;
            return Some((entry.at, ev));
        }
    }

    /// Timestamp of the earliest queued entry across shards, cancelled or
    /// not.  A cancelled head can make this earlier than the next *live*
    /// event — callers use it only as a conservative epoch bound, where
    /// "too early" is safe and "too late" would not be.
    pub fn next_time_hint(&self) -> Option<SimTime> {
        self.shards
            .iter()
            .filter_map(|s| s.queue.peek().map(|&Reverse(e)| e.at))
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::Scheduler;

    /// Deterministic shard assignment for tests: spread by a multiplier.
    fn shard_of(i: u64, k: usize) -> usize {
        ((i.wrapping_mul(2654435761)) % k as u64) as usize
    }

    #[test]
    fn merged_order_matches_serial_for_every_shard_count() {
        let serial: Vec<(SimTime, u64)> = {
            let mut s = Scheduler::new();
            for i in 0..500u64 {
                s.schedule_at(SimTime::from_millis((i * 7919) % 100), i);
            }
            std::iter::from_fn(|| s.next()).collect()
        };
        for k in [1, 2, 4, 7] {
            let mut s = ShardedScheduler::new(k);
            for i in 0..500u64 {
                s.schedule_at(shard_of(i, k), SimTime::from_millis((i * 7919) % 100), i);
            }
            let got: Vec<(SimTime, u64)> = std::iter::from_fn(|| s.next()).collect();
            assert_eq!(got, serial, "k={k}: merged order diverged");
        }
    }

    #[test]
    fn cancellation_skips_on_every_shard() {
        let mut s = ShardedScheduler::new(3);
        let h = s.schedule_at(2, SimTime::from_secs(1), "dead");
        s.schedule_at(0, SimTime::from_secs(2), "alive");
        s.cancel(h);
        assert_eq!(s.next().unwrap().1, "alive");
        assert!(s.next().is_none());
        let st = s.pool_stats();
        assert_eq!(st.allocated, st.freed, "cancelled slot must recycle");
    }

    #[test]
    fn fifo_among_equal_timestamps_across_shards() {
        let mut s = ShardedScheduler::new(4);
        let t = SimTime::from_secs(1);
        for i in 0..20u64 {
            s.schedule_at(shard_of(i, 4), t, i);
        }
        for i in 0..20 {
            assert_eq!(s.next().unwrap().1, i, "insertion order broken at tie");
        }
    }

    #[test]
    fn aggregated_books_balance_and_high_water_is_global() {
        let mut s = ShardedScheduler::new(4);
        // interleave: fill to 30 live, drain 10, fill 5 more — the global
        // peak (30) is what pool_stats must report even though no single
        // shard ever held 30
        for i in 0..30u64 {
            s.schedule_at(shard_of(i, 4), SimTime::from_millis(i), i);
        }
        for _ in 0..10 {
            s.next();
        }
        for i in 30..35u64 {
            s.schedule_at(shard_of(i, 4), SimTime::from_millis(i), i);
        }
        let st = s.pool_stats();
        assert_eq!(st.high_water, 30);
        assert_eq!(st.live, 25);
        assert_eq!(st.live, s.pending());
        assert_eq!(st.allocated, 35);
        assert_eq!(st.freed, 10);
        while s.next().is_some() {}
        let st = s.pool_stats();
        assert_eq!(st.allocated, st.freed);
        assert_eq!(st.live, 0);
        assert_eq!(st.high_water, 30);
        assert_eq!(s.max_pending(), 30);
    }

    #[test]
    fn reserved_slabs_never_grow() {
        let mut s = ShardedScheduler::new(3);
        s.reserve_events(16);
        assert_eq!(s.pool_stats().capacity, 48);
        for i in 0..16u64 {
            s.schedule_at(shard_of(i, 3), SimTime::from_millis(i), ());
        }
        while s.next().is_some() {}
        assert_eq!(s.pool_stats().capacity, 48, "pre-sized slabs must not grow");
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_into_past_panics() {
        let mut s = ShardedScheduler::new(2);
        s.schedule_at(0, SimTime::from_secs(10), ());
        s.next();
        s.schedule_at(1, SimTime::from_secs(5), ());
    }

    #[test]
    fn next_time_hint_sees_the_earliest_shard() {
        let mut s = ShardedScheduler::new(3);
        assert_eq!(s.next_time_hint(), None);
        s.schedule_at(2, SimTime::from_secs(5), ());
        s.schedule_at(1, SimTime::from_secs(3), ());
        assert_eq!(s.next_time_hint(), Some(SimTime::from_secs(3)));
    }

    #[test]
    fn budget_trips_after_excess_dispatches() {
        let mut s = ShardedScheduler::new(2);
        s.set_budget(RunBudget::default().with_max_events(3));
        for i in 0..10u64 {
            s.schedule_at(shard_of(i, 2), SimTime::from_secs(i), ());
        }
        let mut dispatched = 0;
        while s.next().is_some() {
            dispatched += 1;
            if s.check_budget().is_err() {
                break;
            }
        }
        assert_eq!(dispatched, 4);
        assert!(matches!(
            s.check_budget(),
            Err(BudgetExceeded::Events { limit: 3, .. })
        ));
    }
}
