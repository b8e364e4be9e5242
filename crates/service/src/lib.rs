//! Resident sweep service: a thread-per-connection TCP job server (plus
//! its client library) that keeps the supervised sweep harness running as
//! a long-lived process instead of a batch binary.
//!
//! The robustness posture mirrors the protocols under test: every shared
//! resource is bounded and every overload path is an *explicit, observable
//! degradation* rather than a hang —
//!
//! * **Admission control** — a bounded job queue; submissions past the
//!   bound get a load-shed reply carrying a retry-after hint, never a
//!   stalled socket ([`server`]).
//! * **Slow subscribers** — per-subscriber bounded buffers that drop and
//!   count frames ([`hub`], [`metrics::DropCounter`]); the simulation
//!   worker never blocks on a consumer.
//! * **Deadlines** — per-connection read/write timeouts, so a dead peer
//!   cannot pin a connection thread forever.
//! * **Graceful shutdown** — drain mode finishes in-flight replicas to
//!   the journal checkpoint, refuses new work, and exits cleanly.
//! * **Crash recovery** — job manifests are written atomically and
//!   fsynced ([`fsutil`]); a restarted server rescans them, requeues
//!   interrupted jobs, and (because results are journal-keyed by
//!   (config-hash, seed)) reproduces them bit for bit.
//!
//! The wire protocol is line-delimited flat JSON ([`proto`], [`json`]) —
//! `std::net` and hand-rolled framing only, no external dependencies.
//! The crate is harness-agnostic: it knows *jobs* ([`JobSpec`]) and a
//! [`JobHandler`] trait, while the ECGRID glue (scenario construction,
//! supervisor invocation) lives in the `runner` crate, which also ships
//! the `sweepd` / `sweepc` binaries.

pub mod backoff;
pub mod client;
pub mod fsutil;
pub mod hub;
pub mod json;
pub mod proto;
pub mod server;

pub use backoff::Backoff;
pub use client::{Client, ClientConfig, ClientError, DoneInfo, SubmitOutcome};
pub use hub::{Hub, SubscriberHandle};
pub use proto::{FilterSpec, JobSpec, JobState, Request};
pub use server::{
    JobCtx, JobHandler, JobOutcome, ReplicaLookup, Server, ServerHandle, ServerSummary, ServiceConfig,
};

use std::time::Duration;

/// Per-connection idle read deadline, on both ends of the wire.
pub const READ_TIMEOUT: Duration = Duration::from_secs(30);
/// Per-connection write deadline, on both ends of the wire.
pub const WRITE_TIMEOUT: Duration = Duration::from_secs(5);
