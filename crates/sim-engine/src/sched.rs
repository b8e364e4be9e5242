//! The scheduler: virtual clock + pending events + lazy cancellation.

use crate::backend::{AnyQueue, Backend};
use crate::budget::{BudgetExceeded, RunBudget, WALL_CHECK_STRIDE};
use crate::pool::{EventPool, PoolStats};
use crate::queue::PendingEvents;
use crate::time::{SimDuration, SimTime};

/// Handle returned by [`Scheduler::schedule_at`]; pass it to
/// [`Scheduler::cancel`] to revoke the event before it fires.  The sharded
/// scheduler (`crate::shard`) issues the same handle type, so an event loop
/// can hold handles without caring which engine produced them.
///
/// A handle names the pool slot holding the event plus the stamp the pool
/// issued for it, so cancelling is one indexed write and a handle that
/// outlives its event (fired, or cancelled before) matches nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct EventHandle {
    pub(crate) shard: u32,
    pub(crate) slot: u32,
    pub(crate) stamp: u64,
}

/// A virtual clock driving a pending-event set, with O(1) lazy
/// cancellation: a cancelled event is flagged in its pool slot and skipped
/// at pop time.
///
/// Events are stored in an [`EventPool`] slab and the queue orders bare
/// slot indices, so steady-state scheduling never touches the allocator:
/// the slab plateaus at the run's pending-event high-water mark and slots
/// recycle through a free list.  Ordering is untouched — FIFO tie-breaks
/// come from the queue's own sequence numbers, never from slot numbers.
///
/// ```
/// use sim_engine::{Scheduler, SimDuration, SimTime};
///
/// let mut sched = Scheduler::new();
/// sched.schedule_at(SimTime::from_secs(2), "beacon");
/// let doomed = sched.schedule_in(SimDuration::from_secs(1), "cancelled");
/// sched.cancel(doomed);
///
/// let (t, ev) = sched.next().unwrap();
/// assert_eq!((t, ev), (SimTime::from_secs(2), "beacon"));
/// assert!(sched.next().is_none());
/// ```
pub struct Scheduler<E> {
    queue: AnyQueue<u32>,
    pool: EventPool<E>,
    now: SimTime,
    processed: u64,
    max_pending: usize,
    budget: RunBudget,
    /// Anchor of the wall-clock budget axis.  Like `processed`, it spans
    /// the scheduler's lifetime, so multiple run calls share one wall
    /// allowance.
    wall_start: std::time::Instant,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Scheduler<E> {
    pub fn new() -> Self {
        Self::with_backend(Backend::Heap)
    }

    /// Build a scheduler on an explicit pending-event-set backend.  Both
    /// backends implement the same FIFO tie-break contract, so a run is
    /// bit-identical on either (enforced by the golden-trace tests).
    pub fn with_backend(backend: Backend) -> Self {
        Scheduler {
            queue: AnyQueue::new(backend),
            pool: EventPool::new(),
            now: SimTime::ZERO,
            processed: 0,
            max_pending: 0,
            budget: RunBudget::UNLIMITED,
            wall_start: std::time::Instant::now(),
        }
    }

    /// Install a run budget (ceilings on dispatched events and wall
    /// time).  The scheduler never enforces it on its own — the event loop
    /// driving it calls [`Scheduler::check_budget`] after each dispatch, so
    /// the loop decides how to wind down.  The budget spans the scheduler's
    /// lifetime: `processed` accumulates across multiple run calls.
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

    /// Which backend this scheduler runs on.
    pub fn backend(&self) -> Backend {
        self.queue.backend()
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

    /// High-water mark of the pending-event set (includes events awaiting
    /// lazy cancellation, like `pending`).
    #[inline]
    pub fn max_pending(&self) -> usize {
        self.max_pending
    }

    /// Lifetime counters of the event slab.  `stats().live` always equals
    /// [`Scheduler::pending`] — every queued slot index owns exactly one
    /// pooled event, cancelled or not.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Pre-grow the event slab so a run with a known pending-event
    /// high-water mark (e.g. from a prior `SchedProfile`) never grows it
    /// mid-run.
    pub fn reserve_events(&mut self, additional: usize) {
        self.pool.reserve(additional);
    }

    #[inline]
    fn push(&mut self, at: SimTime, event: E) -> EventHandle {
        let slot = self.pool.alloc(event);
        self.queue.insert(at, slot);
        let d = self.queue.len();
        if d > self.max_pending {
            self.max_pending = d;
        }
        EventHandle {
            shard: 0,
            slot,
            stamp: self.pool.stamp(slot),
        }
    }

    /// Schedule `event` at absolute time `at`.  Panics if `at` is in the
    /// past — causality violations are always simulator bugs.
    pub fn schedule_at(&mut self, at: SimTime, event: E) -> EventHandle {
        assert!(
            at >= self.now,
            "scheduling into the past: {:?} < {:?}",
            at,
            self.now
        );
        self.push(at, event)
    }

    /// Schedule `event` after a relative delay.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) -> EventHandle {
        let at = self.now.checked_add(delay).expect("virtual time overflow");
        self.push(at, event)
    }

    /// Revoke a pending event.  Cancelling an already-fired or
    /// already-cancelled event is a no-op.
    pub fn cancel(&mut self, h: EventHandle) {
        self.pool.revoke(h.slot, h.stamp);
    }

    /// Pop the next live event, advancing the clock to its timestamp.
    /// Deliberately named like `Iterator::next` — the scheduler is the
    /// event loop's source of truth, but it is not an `Iterator` (each call
    /// mutates the clock).
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<(SimTime, E)> {
        while let Some((at, _, slot)) = self.queue.pop_next() {
            // free the slot either way — cancelled events recycle here
            let cancelled = self.pool.is_revoked(slot);
            let ev = self.pool.free(slot);
            if cancelled {
                continue;
            }
            debug_assert!(at >= self.now);
            self.now = at;
            self.processed += 1;
            return Some((at, ev));
        }
        None
    }

    /// Number of pending (possibly cancelled) events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_with_events() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_secs(5), "five");
        s.schedule_at(SimTime::from_secs(2), "two");
        assert_eq!(s.now(), SimTime::ZERO);
        let (t, e) = s.next().unwrap();
        assert_eq!((t, e), (SimTime::from_secs(2), "two"));
        assert_eq!(s.now(), SimTime::from_secs(2));
        let (t, e) = s.next().unwrap();
        assert_eq!((t, e), (SimTime::from_secs(5), "five"));
        assert!(s.next().is_none());
        assert_eq!(s.processed(), 2);
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_secs(10), "a");
        s.next().unwrap();
        s.schedule_in(SimDuration::from_secs(5), "b");
        let (t, _) = s.next().unwrap();
        assert_eq!(t, SimTime::from_secs(15));
    }

    #[test]
    fn cancellation_skips_events() {
        let mut s = Scheduler::new();
        let h = s.schedule_at(SimTime::from_secs(1), "dead");
        s.schedule_at(SimTime::from_secs(2), "alive");
        s.cancel(h);
        let (_, e) = s.next().unwrap();
        assert_eq!(e, "alive");
        assert!(s.next().is_none());
    }

    #[test]
    fn stale_handle_spares_the_slot_s_next_tenant() {
        // the fired event's slot is reused at once (LIFO free list); a
        // late cancel through the old handle must not revoke the newcomer
        let mut s = Scheduler::new();
        let old = s.schedule_at(SimTime::from_secs(1), "fired");
        assert_eq!(s.next().unwrap().1, "fired");
        let new = s.schedule_at(SimTime::from_secs(2), "newcomer");
        assert_eq!((old.slot, old.shard), (new.slot, new.shard));
        s.cancel(old);
        assert_eq!(s.next().unwrap().1, "newcomer");
        assert!(s.next().is_none());
    }

    #[test]
    fn double_cancel_is_noop() {
        let mut s = Scheduler::new();
        let h = s.schedule_at(SimTime::from_secs(1), ());
        s.cancel(h);
        s.cancel(h);
        assert!(s.next().is_none());
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_into_past_panics() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_secs(10), ());
        s.next();
        s.schedule_at(SimTime::from_secs(5), ());
    }

    #[test]
    fn fifo_among_equal_timestamps() {
        let mut s = Scheduler::new();
        let t = SimTime::from_secs(1);
        for i in 0..10 {
            s.schedule_at(t, i);
        }
        for i in 0..10 {
            assert_eq!(s.next().unwrap().1, i);
        }
    }

    #[test]
    fn backends_dispatch_identically() {
        let run = |backend: Backend| -> Vec<(SimTime, u32)> {
            let mut s = Scheduler::with_backend(backend);
            assert_eq!(s.backend(), backend);
            for i in 0..200u32 {
                s.schedule_at(SimTime::from_millis((i as u64 * 7919) % 100), i);
            }
            let doomed = s.schedule_at(SimTime::from_millis(50), 999);
            s.cancel(doomed);
            std::iter::from_fn(|| s.next()).collect()
        };
        assert_eq!(run(Backend::Heap), run(Backend::Calendar));
    }

    #[test]
    fn max_pending_tracks_high_water() {
        let mut s = Scheduler::new();
        for i in 0..10 {
            s.schedule_at(SimTime::from_secs(i), ());
        }
        while s.next().is_some() {}
        assert_eq!(s.max_pending(), 10);
        assert_eq!(s.pending(), 0);
    }

    #[test]
    fn budget_trips_after_excess_dispatches() {
        let mut s = Scheduler::new();
        s.set_budget(RunBudget::default().with_max_events(3));
        for i in 0..10 {
            s.schedule_at(SimTime::from_secs(i), ());
        }
        let mut dispatched = 0;
        while s.next().is_some() {
            dispatched += 1;
            if s.check_budget().is_err() {
                break;
            }
        }
        // the loop dispatches limit + 1 events before the check trips
        assert_eq!(dispatched, 4);
        assert!(matches!(
            s.check_budget(),
            Err(BudgetExceeded::Events { limit: 3, .. })
        ));
    }

    #[test]
    fn pool_drains_with_no_leak() {
        // Every allocation is eventually freed — including cancelled
        // events (recycled at pop).
        for backend in [Backend::Heap, Backend::Calendar] {
            let mut s = Scheduler::with_backend(backend);
            for i in 0..50u64 {
                let h = s.schedule_at(SimTime::from_millis(i % 7), i);
                if i % 3 == 0 {
                    s.cancel(h);
                }
            }
            while s.next().is_some() {}
            let st = s.pool_stats();
            assert_eq!(st.allocated, st.freed, "{backend:?}: leaked events");
            assert_eq!(st.live, 0);
            assert_eq!(s.pending(), 0);
        }
    }

    #[test]
    fn pool_live_tracks_pending_and_high_water_tracks_max_pending() {
        let mut s = Scheduler::new();
        for i in 0..20 {
            s.schedule_at(SimTime::from_secs(i), i);
            assert_eq!(s.pool_stats().live, s.pending());
        }
        for _ in 0..5 {
            s.next();
            assert_eq!(s.pool_stats().live, s.pending());
        }
        assert_eq!(s.pool_stats().high_water, s.max_pending());
        assert_eq!(s.pool_stats().high_water, 20);
    }

    #[test]
    fn pooling_preserves_fifo_across_backends_with_cancels() {
        // Slot indices get recycled aggressively (LIFO free list), so a
        // mixed schedule/cancel/dispatch workload exercises slot reuse at
        // shared timestamps; order must still be pure (time, seq).
        let run = |backend: Backend| -> Vec<(SimTime, u32)> {
            let mut s = Scheduler::with_backend(backend);
            let mut out = Vec::new();
            for round in 0..10u64 {
                let base = round * 100;
                let mut handles = Vec::new();
                for i in 0..30u32 {
                    let at = SimTime::from_millis(base + (i as u64 * 37) % 50);
                    handles.push(s.schedule_at(at, round as u32 * 100 + i));
                }
                for (i, h) in handles.iter().enumerate() {
                    if i % 5 == 4 {
                        s.cancel(*h);
                    }
                }
                while let Some(x) = s.next() {
                    out.push(x);
                }
            }
            assert_eq!(s.pool_stats().live, 0);
            let st = s.pool_stats();
            assert!(
                st.capacity < st.allocated as usize,
                "{backend:?}: draining between rounds must recycle slots"
            );
            out
        };
        assert_eq!(run(Backend::Heap), run(Backend::Calendar));
    }

    #[test]
    fn reserved_slab_capacity_is_stable() {
        let mut s = Scheduler::new();
        s.reserve_events(16);
        for i in 0..16 {
            s.schedule_at(SimTime::from_secs(i), ());
        }
        while s.next().is_some() {}
        assert_eq!(s.pool_stats().capacity, 16, "pre-sized slab must not grow");
    }

    #[test]
    fn a_cancelled_tail_dispatches_nothing_and_drains() {
        let mut s = Scheduler::new();
        let h1 = s.schedule_at(SimTime::from_secs(1), ());
        let h2 = s.schedule_at(SimTime::from_secs(2), ());
        s.cancel(h1);
        s.cancel(h2);
        assert!(s.next().is_none());
        assert_eq!(s.pending(), 0);
        assert_eq!(s.processed(), 0);
    }
}
