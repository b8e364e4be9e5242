//! The determinism kernel, tested in isolation from the MANET stack: for
//! random event schedules spanning shards — including mid-stream
//! scheduling after pops and random cancellation — the sharded
//! scheduler's merged dispatch stream is *identical* to a single-queue
//! [`Scheduler`]'s, for every shard count and every shard assignment.
//!
//! This is the property the whole sharded engine leans on: if
//! dispatch order is bit-identical, every downstream consumer (RNG
//! draws, energy-meter integration steps, tx-id allocation, trace
//! emission) replays identically, so the digest equality proven end to
//! end in `tests/parallel_equivalence.rs` reduces to this kernel.

use proptest::prelude::*;
use sim_engine::{Scheduler, ShardedScheduler, SimDuration, SimTime};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 7];

/// One generated workload step after the initial burst: pop an event,
/// then schedule `spawn` follow-ups at `now + delta` and maybe cancel a
/// previously issued handle.
#[derive(Clone, Debug)]
struct Step {
    spawn: usize,
    delta_ms: u64,
    cancel_idx: Option<usize>,
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(
        // the compat proptest stub has no Option strategy: encode "no
        // cancel" as the top fifth of the index range
        (0usize..3, 0u64..50, 0usize..1250).prop_map(|(spawn, delta_ms, raw)| Step {
            spawn,
            delta_ms,
            cancel_idx: (raw < 1000).then_some(raw),
        }),
        1..120,
    )
}

/// Run the workload on the serial scheduler, returning the dispatch
/// sequence as (time, payload) pairs plus the drained pool stats and the
/// pending-set high-water mark.
fn run_serial(initial: &[u64], steps: &[Step]) -> (Vec<(SimTime, u64)>, sim_engine::PoolStats, usize) {
    let mut s = Scheduler::new();
    let mut handles = Vec::new();
    let mut payload = 0u64;
    for &t in initial {
        handles.push(s.schedule_at(SimTime::from_millis(t), payload));
        payload += 1;
    }
    let mut out = Vec::new();
    for st in steps {
        if let Some((t, v)) = s.next() {
            out.push((t, v));
        }
        for _ in 0..st.spawn {
            handles.push(s.schedule_in(SimDuration::from_millis(st.delta_ms), payload));
            payload += 1;
        }
        if let Some(ci) = st.cancel_idx {
            if !handles.is_empty() {
                s.cancel(handles[ci % handles.len()]);
            }
        }
    }
    while let Some(x) = s.next() {
        out.push(x);
    }
    (out, s.pool_stats(), s.max_pending())
}

/// The same workload on the sharded scheduler, with the i-th scheduled
/// event assigned to an arbitrary (but deterministic) shard.
fn run_sharded(
    k: usize,
    initial: &[u64],
    steps: &[Step],
) -> (Vec<(SimTime, u64)>, sim_engine::PoolStats, usize) {
    let shard_of = |i: u64| ((i.wrapping_mul(2654435761)) % k as u64) as usize;
    let mut s = ShardedScheduler::new(k);
    let mut handles = Vec::new();
    let mut payload = 0u64;
    for &t in initial {
        handles.push(s.schedule_at(shard_of(payload), SimTime::from_millis(t), payload));
        payload += 1;
    }
    let mut out = Vec::new();
    for st in steps {
        if let Some((t, v)) = s.next() {
            out.push((t, v));
        }
        for _ in 0..st.spawn {
            handles.push(s.schedule_in(shard_of(payload), SimDuration::from_millis(st.delta_ms), payload));
            payload += 1;
        }
        if let Some(ci) = st.cancel_idx {
            if !handles.is_empty() {
                s.cancel(handles[ci % handles.len()]);
            }
        }
    }
    while let Some(x) = s.next() {
        out.push(x);
    }
    (out, s.pool_stats(), s.max_pending())
}

proptest! {
    /// The epoch-barrier merge emits the exact same dispatch order as a
    /// single-queue scheduler, for K ∈ {1, 2, 4, 7}, on workloads with
    /// timestamp collisions, mid-stream scheduling, and cancellation.
    /// The aggregated pool books must balance after every workload drains
    /// and the global high-water/depth marks must match the serial
    /// scheduler's — the invariants `tests/event_pool.rs` pins at the
    /// world level.
    #[test]
    fn merge_equals_single_queue(
        initial in proptest::collection::vec(0u64..100u64, 1..80),
        steps in steps(),
    ) {
        let (want, serial_stats, serial_depth) = run_serial(&initial, &steps);
        for k in SHARD_COUNTS {
            let (got, stats, depth) = run_sharded(k, &initial, &steps);
            prop_assert_eq!(&got, &want, "k={} diverged from single queue", k);
            prop_assert_eq!(stats.allocated, stats.freed, "k={}: leaked events", k);
            prop_assert_eq!(stats.live, 0);
            prop_assert_eq!(stats.allocated, serial_stats.allocated);
            prop_assert_eq!(stats.high_water, serial_stats.high_water,
                "k={}: global high-water drifted from the single pool's", k);
            prop_assert_eq!(depth, serial_depth,
                "k={}: pending-set high-water drifted", k);
        }
    }
}
