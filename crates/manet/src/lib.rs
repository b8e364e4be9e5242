//! The MANET simulation framework — the glue between the discrete-event
//! engine, the radio substrate, mobility, energy, traffic, and the routing
//! protocols under study.
//!
//! A [`World`] owns a population of hosts.  Each host runs a
//! [`Protocol`] — GRID, ECGRID, GAF, AODV, or anything else implementing
//! the trait — and the World drives it with callbacks:
//!
//! * `on_start` once at t=0;
//! * `on_frame` for every successfully received frame;
//! * `on_timer` for protocol timers;
//! * `on_page` when the RAS paging receiver wakes the host;
//! * `on_cell_change` when an *awake* host's GPS observes a grid crossing
//!   (sleeping hosts only learn their position when their own dwell timer
//!   wakes them — exactly the paper's semantics);
//! * `on_app_send` when the host's CBR application emits a packet;
//! * `on_unicast_failed` when the MAC exhausts its retransmission budget
//!   (how a host discovers its gateway is gone, §3.2 case 2).
//!
//! Protocols react through the [`Ctx`] command interface: send frames,
//! sleep/wake, page hosts or grids, set timers, deliver application
//! packets.  All effects are applied after the callback returns, which
//! keeps borrow discipline simple and the event order deterministic.
//!
//! The World implements a CSMA/CA MAC over the unit-disc channel (carrier
//! sense, binary exponential backoff, receiver-side collision corruption,
//! ACK + bounded retransmit for unicasts), integrates every host's energy
//! meter through the radio-mode transitions, and samples the alive
//! fraction and *aen* series the paper plots.
//!
//! Observability lives in the `trace` crate (re-exported here): enable a
//! [`trace::Recorder`] on the World to capture a typed, digestable event
//! stream across every layer (MAC, radio, energy, RAS, routing, app).

pub mod config;
pub mod ctx;
pub mod progress;
pub mod protocol;
pub mod stats;
pub mod tenure;
pub mod testkit;
pub mod world;

pub use config::{host_parallelism, HostSetup, WorldConfig};
pub use ctx::{AppPacket, Ctx, NodeView, TimerId};
pub use progress::ProgressProbe;
pub use protocol::{Protocol, WireSize};
pub use stats::WorldStats;
pub use tenure::GatewayTenure;
pub use trace::{Event, EventKind, Recorder, TraceDigest, TraceMode};
pub use world::{GroupStats, RunOutput, ShardStats, World};

/// The observability layer (events, recorder, digest, registry, profile).
pub use trace;

/// The fault-injection layer (deterministic adversity schedules).
pub use fault;
pub use fault::{FaultCtl, FaultPlan, GilbertElliott};

// Re-export the vocabulary types protocols need, so protocol crates can
// depend on `manet` alone.
pub use energy::{Battery, EnergyAudit, EnergyLevel, EnergyMeter, PowerProfile, RadioMode};
pub use geo::{GridCoord, GridMap, GridRect, Point2, Vec2};
pub use radio::{auto_gather_threshold, FrameKind, NeighborIndex, NodeId, PageSignal, SpatialIndex};
pub use sim_engine::{Backend, BudgetExceeded, RunBudget, SimDuration, SimTime};

/// Re-export of the whole engine crate (deterministic RNG streams etc.)
/// so protocol crates and tests don't need a separate dependency.
pub use sim_engine;
pub use traffic::{CbrFlow, FlowId, FlowSet, FlowSpec};
