//! # Span — coordinator-based topology maintenance (extension baseline)
//!
//! The third protocol the paper discusses (§1): Chen, Jamieson,
//! Balakrishnan & Morris, MobiCom'01.  Span is **not location-aware** —
//! no grids, no GPS.  Instead:
//!
//! * each node learns its neighbourhood (and its neighbours'
//!   neighbourhoods) from periodic HELLOs;
//! * a node elects itself **coordinator** under the *coordinator
//!   eligibility rule*: two of its neighbours cannot reach each other
//!   directly or through existing coordinators; announcement contention is
//!   delayed so that nodes with more remaining energy and more utility
//!   announce first;
//! * coordinators stay awake continuously and form the routing backbone;
//! * non-coordinators run an 802.11 PSM-style duty cycle: they sleep but
//!   **wake at every beacon window** to exchange announcements and pick up
//!   pending traffic — exactly the periodic-wakeup cost the paper holds
//!   against Span ("sleeping hosts need not wake up periodically" is
//!   ECGRID's advantage);
//! * routing is AODV over the awake backbone (as in the Span paper).
//!
//! The paper's qualitative claim — "Span (not location-aware) does not
//! benefit from increasing host density" — falls out of the model: every
//! non-coordinator pays the fixed PSM wake tax regardless of how many
//! neighbours could share the duty, while ECGRID sleepers pay only the
//! 130 mW sleep floor.  The `ext_span_density` binary in `runner`
//! measures exactly this.

pub mod proto;

pub use proto::{SpanProto, SpanState, SpanStats};
