//! Host mobility: the random waypoint model and analytic motion traces.
//!
//! The paper's hosts "move according to the random waypoint model, in which
//! the hosts randomly choose a speed and move to a randomly chosen position.
//! Then the hosts wait at the position for the pause time" (§4).  The two
//! evaluation speed ranges are U(0, 1] m/s and U(0, 10] m/s, with pause
//! times from 0 (constant mobility) to 600 s.
//!
//! Instead of ticking positions, a node's whole trajectory is precomputed
//! as a piecewise-linear [`MobilityTrace`]; positions, velocities and
//! grid-boundary crossing times at any instant are closed-form.  This is
//! both faster than sampling and *exactly* what ECGRID's dwell-timer logic
//! needs (§3.2: sleep until the host expects to leave its grid).

pub mod models;
pub mod segment;
pub mod trace;

pub use models::{
    min_speed, Convoy, GaussMarkov, HotspotConvergence, ManhattanGrid, MobilityModel, RandomWalk,
    RandomWaypoint, Stationary,
};
pub use segment::Segment;
pub use trace::{LegCursor, MobilityTrace};
