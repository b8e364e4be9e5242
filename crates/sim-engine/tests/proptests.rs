//! Property tests for the discrete-event core.

use proptest::prelude::*;
use sim_engine::{CalendarQueue, EventQueue, PendingEvents, Scheduler, SimDuration, SimTime};
use std::collections::BTreeSet;

/// One step of a workload: `(kind, d)` pops when `kind` is 0 and otherwise
/// inserts at the last popped time plus [`delay`]`(d)`, never earlier, as
/// a discrete-event simulation would.  [`steps`] appends enough pops to
/// drain whatever is left.
type Op = (u8, u64);

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec((0u8..3, 0u64..12), 1..400)
}

/// Mostly ties and near-ties, now and then a far-future event.
fn delay(d: u64) -> u64 {
    if d < 8 {
        d / 2
    } else {
        (d - 7) * 1_000_000
    }
}

/// The ops, then one pop per op.
fn steps(ops: &[Op]) -> impl Iterator<Item = (usize, Op)> + '_ {
    ops.iter()
        .copied()
        .chain(std::iter::repeat_n((0, 0), ops.len()))
        .enumerate()
}

proptest! {
    /// The calendar queue and the four-ary heap dequeue identical sequences
    /// for any schedule of interleaved inserts and pops (including ties,
    /// bursts and far-future events), down to the final drain.
    #[test]
    fn calendar_equals_heap(ops in ops()) {
        let mut heap = EventQueue::new();
        let mut cal = CalendarQueue::new();
        let mut now = 0u64;
        for (i, (kind, d)) in steps(&ops) {
            if kind > 0 {
                heap.insert(SimTime(now + delay(d)), i);
                cal.insert(SimTime(now + delay(d)), i);
                continue;
            }
            let (a, b) = (heap.pop_next(), cal.pop_next());
            prop_assert_eq!(a.map(|(t, _, v)| (t, v)), b.map(|(t, _, v)| (t, v)));
            if let Some((t, _, _)) = a {
                now = t.0;
            }
        }
        prop_assert!(heap.is_empty() && cal.is_empty());
    }

    /// Every pop is the `(time, insertion)` minimum of what is pending,
    /// with the sequence number its insert returned, and the pop stream is
    /// non-decreasing in time and FIFO within a timestamp.
    #[test]
    fn heap_order_invariant(ops in ops()) {
        let mut q = EventQueue::new();
        let mut model = BTreeSet::new();
        let mut popped: Vec<(SimTime, usize)> = Vec::new();
        let mut now = 0u64;
        for (i, (kind, d)) in steps(&ops) {
            if kind > 0 {
                let at = SimTime(now + delay(d));
                let seq = q.insert(at, i);
                model.insert((at, seq, i));
                continue;
            }
            let got = q.pop_next();
            prop_assert_eq!(got, model.pop_first());
            if let Some((t, _, v)) = got {
                now = t.0;
                popped.push((t, v));
            }
        }
        prop_assert!(q.is_empty());
        for w in popped.windows(2) {
            prop_assert!(w[0].0 <= w[1].0);
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "FIFO violated at {:?}", w[0].0);
            }
        }
    }

    /// Cancelling an arbitrary subset removes exactly that subset.
    #[test]
    fn cancellation_is_exact(
        times in proptest::collection::vec(1u64..1000u64, 1..100),
        kill_mask in proptest::collection::vec(any::<bool>(), 100)
    ) {
        let mut s = Scheduler::new();
        let mut expected: Vec<usize> = Vec::new();
        for (i, &t) in times.iter().enumerate() {
            let h = s.schedule_at(SimTime(t), i);
            if kill_mask[i % kill_mask.len()] {
                s.cancel(h);
            } else {
                expected.push(i);
            }
        }
        let mut got: Vec<usize> = Vec::new();
        while let Some((_, v)) = s.next() {
            got.push(v);
        }
        got.sort_unstable();
        expected.sort_unstable();
        prop_assert_eq!(got, expected);
    }

    /// Duration arithmetic round-trips through seconds for representable
    /// values.
    #[test]
    fn duration_roundtrip(ms in 0u64..10_000_000u64) {
        let d = SimDuration::from_millis(ms);
        let d2 = SimDuration::from_secs_f64(d.as_secs_f64());
        prop_assert_eq!(d, d2);
    }

    /// for_bits never undercounts airtime: bits / rate <= airtime.
    #[test]
    fn airtime_rounds_up(bits in 1u64..10_000_000u64, rate in 1_000u64..100_000_000u64) {
        let d = SimDuration::for_bits(bits, rate);
        let exact_ns = bits as f64 * 1e9 / rate as f64;
        prop_assert!(d.as_nanos() as f64 >= exact_ns - 1e-6);
        prop_assert!((d.as_nanos() as f64) < exact_ns + 1.0);
    }
}
