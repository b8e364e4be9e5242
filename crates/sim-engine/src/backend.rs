//! Runtime-selectable pending-event-set backend.
//!
//! The heap and the calendar queue implement the same [`PendingEvents`]
//! contract — including strict FIFO tie-breaking among equal timestamps —
//! so a run must behave identically on either.  [`AnyQueue`] lets the
//! scheduler switch between them at construction time without making every
//! consumer generic, and the golden-trace tests hold both to the same
//! digest.

use crate::calendar::CalendarQueue;
use crate::queue::{EventQueue, PendingEvents};
use crate::time::SimTime;

/// Which pending-event set a [`Scheduler`](crate::Scheduler) uses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Four-ary heap: O(log n), the robust default.
    #[default]
    Heap,
    /// Brown calendar queue: O(1) amortized hold under stationary event
    /// populations.
    Calendar,
}

/// Enum dispatch over the two backends.
pub enum AnyQueue<E> {
    Heap(EventQueue<E>),
    Calendar(CalendarQueue<E>),
}

impl<E> AnyQueue<E> {
    pub fn new(backend: Backend) -> Self {
        match backend {
            Backend::Heap => AnyQueue::Heap(EventQueue::new()),
            Backend::Calendar => AnyQueue::Calendar(CalendarQueue::new()),
        }
    }

    pub fn backend(&self) -> Backend {
        match self {
            AnyQueue::Heap(_) => Backend::Heap,
            AnyQueue::Calendar(_) => Backend::Calendar,
        }
    }
}

impl<E: Copy> PendingEvents<E> for AnyQueue<E> {
    #[inline]
    fn insert(&mut self, at: SimTime, event: E) -> u64 {
        match self {
            AnyQueue::Heap(q) => q.insert(at, event),
            AnyQueue::Calendar(q) => q.insert(at, event),
        }
    }

    #[inline]
    fn pop_next(&mut self) -> Option<(SimTime, u64, E)> {
        match self {
            AnyQueue::Heap(q) => q.pop_next(),
            AnyQueue::Calendar(q) => q.pop_next(),
        }
    }

    #[inline]
    fn next_time(&self) -> Option<SimTime> {
        match self {
            AnyQueue::Heap(q) => q.next_time(),
            AnyQueue::Calendar(q) => q.next_time(),
        }
    }

    #[inline]
    fn len(&self) -> usize {
        match self {
            AnyQueue::Heap(q) => q.len(),
            AnyQueue::Calendar(q) => q.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_backends_honor_fifo_order() {
        for backend in [Backend::Heap, Backend::Calendar] {
            let mut q = AnyQueue::new(backend);
            let t = SimTime::from_secs(1);
            for i in 0..50 {
                q.insert(t, i);
            }
            q.insert(SimTime::from_millis(1), 999);
            assert_eq!(q.pop_next().unwrap().2, 999, "{backend:?}");
            for i in 0..50 {
                assert_eq!(q.pop_next().unwrap().2, i, "{backend:?}");
            }
            assert!(q.pop_next().is_none());
        }
    }

    #[test]
    fn any_queue_reports_its_backend() {
        assert_eq!(Backend::default(), Backend::Heap);
        assert_eq!(AnyQueue::<()>::new(Backend::Heap).backend(), Backend::Heap);
        assert_eq!(
            AnyQueue::<()>::new(Backend::Calendar).backend(),
            Backend::Calendar
        );
    }
}
