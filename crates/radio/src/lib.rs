//! The wireless substrate: frames, channel, MAC timing, and the RAS
//! paging hardware.
//!
//! The paper's testbed is ns-2's CMU wireless extension — an 802.11 DS
//! radio at 2 Mbps with a 250 m nominal range.  This crate provides the
//! equivalent building blocks:
//!
//! * [`NodeId`] and the frame model ([`FrameKind`], [`FrameMeta`]) with realistic wire sizes, so
//!   serialization delays (and therefore energy and latency) are faithful;
//! * [`ChannelState`] — a unit-disc channel tracking in-flight
//!   transmissions for carrier sensing and receiver-side collision
//!   detection;
//! * [`MacConfig`] — 802.11-style timing (SIFS/DIFS/slot, contention
//!   window, retry limits) used by the simulator's CSMA/CA loop;
//! * [`ras`] — the Remotely Activated Switch: an out-of-band paging
//!   receiver that wakes sleeping hosts by host-id ("paging sequence") or
//!   by grid coordinate ("broadcast sequence"), per §2 and Fig. 1;
//! * [`CellIndex`] and [`SpatialIndex`] — grid-bucket indexes so receiver
//!   discovery (the former) and interference queries (the latter) touch a
//!   constant-size bucket neighborhood instead of every node/transmission.

pub mod channel;
pub mod frame;
pub mod mac;
pub mod ras;
pub mod shard;
pub mod spatial;

pub use channel::{ChannelState, Transmission};
pub use frame::{FrameKind, FrameMeta, NodeId};
pub use mac::MacConfig;
pub use ras::{PageSignal, RasConfig};
pub use shard::{ShardMap, ShardedChannel};
pub use spatial::{auto_gather_threshold, CellIndex, GatherScratch, NeighborIndex, SpatialIndex};
