//! Deterministic trace & metrics observability layer.
//!
//! The simulator's evaluation rests on trusting what happened *inside* a
//! run — gateway elections, RAS wake-ups, sleep transitions, MAC retries —
//! yet aggregates alone cannot prove two runs behaved identically.  This
//! crate provides the missing observables:
//!
//! * [`Event`] / [`EventKind`] — typed simulation events with a
//!   hierarchical label model ([`Labels`]: `protocol` / `layer` / `node` /
//!   `cell`), emitted at layer boundaries (scheduler, MAC, radio, energy,
//!   RAS, routing, application).
//! * [`Recorder`] — zero-cost-when-disabled event sink.  Every recorded
//!   event is folded into a canonical FNV-1a 64 [`TraceDigest`]; in
//!   [`TraceMode::Full`] the events are also buffered for JSONL export and
//!   invariant checking.
//! * [`TraceDigest`] — the keystone: identical (scenario, seed) runs must
//!   produce identical digests regardless of thread count and scheduler
//!   backend, turning "the sim is reproducible" into an enforced
//!   regression test and giving perf work a behavior-preservation oracle.
//! * [`Registry`] — counter / gauge registry with
//!   deterministic iteration order.
//! * [`SchedProfile`] — scheduler profiling: events dispatched per domain,
//!   queue-depth high-water mark, events/second.
//!
//! The digest intentionally covers only *semantic* events (what the
//! simulated network did), never profiling data (how fast the host machine
//! did it), so it is stable across machines, backends and thread counts.

pub mod digest;
pub mod event;
pub mod filter;
pub mod profile;
pub mod recorder;
pub mod registry;

pub use digest::{Fnv64, TraceDigest};
pub use event::{Event, EventKind, FaultKind, JsonRenderer, Labels, Layer};
pub use filter::EventFilter;
pub use profile::SchedProfile;
pub use recorder::{EventSink, Recorder, TraceMode, SINK_CHUNK};
pub use registry::Registry;
