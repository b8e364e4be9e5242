//! # GAF — Geographic Adaptive Fidelity (baseline)
//!
//! The paper's second comparison protocol (Xu, Heidemann & Estrin,
//! MobiCom'01).  Like ECGRID, GAF partitions the field into grids and
//! keeps one host per grid awake; unlike ECGRID:
//!
//! * sleeping is **timer-driven** — a sleeper picks its sleep duration
//!   before turning the radio off and *must* wake periodically to
//!   re-negotiate, because nothing can reach it while asleep;
//! * there is **no paging**: "GAF includes no way to ensure that a
//!   destination host is active when packets are sent to it" (§1) — which
//!   is why the paper's Model 1 gives GAF ten always-on, infinite-energy
//!   endpoint hosts that neither run GAF nor forward traffic;
//! * routing is host-by-host **AODV** underneath (the GAF paper's setup),
//!   not grid-by-grid.
//!
//! The duty cycle follows the GAF state machine: *discovery* (radio on,
//! exchange discovery messages for a randomized T_d) → *active* (serve as
//! the grid's router for T_a, beaconing discovery messages) → back to
//! discovery; any node that hears a higher-ranked active node in its grid
//! sleeps for a fraction of that node's remaining active time.  Ranking
//! prefers active state, then longer expected lifetime (remaining
//! energy), then smaller id.

pub mod proto;

pub use proto::{GafProto, GafState, GafStats};
