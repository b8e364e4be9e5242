//! Meta-crate for the ECGRID reproduction workspace.
//!
//! Re-exports every workspace crate under one roof so examples and
//! integration tests can reach the whole stack with a single dependency.

pub use aodv;
pub use ecgrid;
pub use energy;
pub use fault;
pub use gaf;
pub use geo;
pub use grid_common;
pub use grid_routing;
pub use manet;
pub use metrics;
pub use mobility;
pub use radio;
pub use runner;
pub use scenario;
pub use service;
pub use sim_engine;
pub use span;
pub use trace;
pub use traffic;
