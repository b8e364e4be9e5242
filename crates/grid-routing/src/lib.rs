//! # GRID — the location-aware baseline protocol
//!
//! The protocol ECGRID extends (Liao, Tseng & Sheu, *Telecommunication
//! Systems* 2001), as used for the paper's comparison: the field is
//! partitioned into logical grids, one gateway per grid forwards route
//! discovery and data grid-by-grid, and the gateway should be the host
//! nearest the physical center of the grid.
//!
//! Crucially for the evaluation, **GRID is not energy-aware**: every host
//! keeps its transceiver on at all times (burning the 830 mW idle power
//! continuously), the election ignores battery state, and there is no
//! load-balance rotation.  This is why the GRID network in Fig. 4 dies
//! wholesale at ≈590 s.
//!
//! The grid partition, HELLO beaconing, discovery (RREQ/RREP with search
//! rectangles) and grid-by-grid data forwarding are shared with ECGRID via
//! `grid-common`, and so are their constants: GRID's whole config is
//! `grid_common::GridConfig`, which ECGRID's config embeds.  What differs
//! is exactly what the paper varies.

pub mod proto;

pub use grid_common::GridConfig;
pub use proto::{GridProto, GridRole, GridStats};
