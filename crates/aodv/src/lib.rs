//! # AODV — Ad hoc On-demand Distance Vector routing
//!
//! The host-by-host routing substrate of this workspace.  It matters to
//! the reproduction twice over:
//!
//! * GRID "is modified from AODV" (§3.3) — this crate documents the
//!   lineage: compare its host-by-host RREQ flood with the grid-by-grid
//!   flood in `grid-common`;
//! * GAF, the paper's second baseline, is a *power-saving overlay* that
//!   needs an underlying ad hoc routing protocol; the GAF paper evaluated
//!   over AODV, so `gaf` embeds [`AodvCore`].
//!
//! The implementation follows the AODV internet draft in its essentials:
//! sequence-numbered routes, broadcast-id duplicate suppression, reverse
//! path setup on RREQ, unicast RREP along the reverse path, RERR on
//! forwarding failure, and on-demand buffering.  Hello beacons are
//! replaced by link-layer failure feedback (`on_unicast_failed`), which
//! our MAC provides — the common choice in ns-2 studies of the era.
//!
//! [`AodvCore`] is a pure state machine emitting [`Action`]s, so it can be
//! driven either directly by the [`Aodv`] protocol adapter or embedded
//! inside another protocol (GAF, Span).  Every host over a core is an
//! [`AodvHost`], and [`run`] applies the core's actions for all of them.

pub mod core;
pub mod proto;

pub use crate::core::{Action, AodvCore, AodvMsg, AodvStats, AodvTimer};
pub use crate::proto::{run, Aodv, AodvHost};
