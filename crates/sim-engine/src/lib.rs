//! Deterministic discrete-event simulation core.
//!
//! This crate plays the role ns-2's scheduler played for the paper: a
//! virtual clock, a pending-event set, and reproducible randomness.
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution virtual time.
//! * [`EventQueue`] — four-ary-heap pending-event set with strict FIFO
//!   tie-breaking, so runs are bit-reproducible.
//! * [`CalendarQueue`] — a Brown calendar queue with the same interface;
//!   O(1) amortized hold operations under stationary event populations
//!   (the classic DES data structure; benchmarked against the heap).
//! * [`Scheduler`] — clock + queue + lazy cancellation handles.
//! * [`ShardedScheduler`] — K per-shard queues sharing one global
//!   insertion counter; merged dispatch order is provably identical to
//!   the single queue's (the conservative-sync determinism kernel).
//! * [`RunBudget`] — event-count / wall-clock ceilings turning runaway
//!   loops into [`BudgetExceeded`] diagnostics instead of hangs.
//! * [`WorkerPool`] / [`Mailbox`] — deterministic fork–join chunks plus
//!   barrier-delivered timestamped messages; the threaded world engine's
//!   conservative-sync substrate.
//! * [`rng`] — a master seed fanned out into independent, stable streams
//!   per (domain, index), so adding a consumer never perturbs others; and
//!   [`IdMap`] / [`IdSet`], hash tables over the simulator's own integer
//!   ids with a cheap state-free hasher.
//! * [`share`](mod@share) — one process-wide instance of a fleet-wide constant
//!   behind the `Arc` every host row holds.

pub mod backend;
pub mod budget;
pub mod calendar;
pub mod exec;
pub mod pool;
pub mod queue;
pub mod rng;
pub mod sched;
pub mod shard;
pub mod share;
pub mod time;

pub use backend::{AnyQueue, Backend};
pub use budget::{BudgetExceeded, RunBudget, WALL_CHECK_STRIDE};
pub use calendar::CalendarQueue;
pub use exec::{chunk_count, LaneWriter, MailSplit, Mailbox, SlicePtr, WorkerPool};
pub use pool::{EventPool, PoolStats};
pub use queue::{EventQueue, PendingEvents};
pub use rng::{derive_seed, keyed_draw, Fnv64, IdHasher, IdMap, IdSet, RngFactory, SplitMix64};
pub use sched::{EventHandle, Scheduler};
pub use shard::ShardedScheduler;
pub use share::share;
pub use time::{SimDuration, SimTime};
