//! The constants GRID and ECGRID share (times in seconds).
//!
//! The paper compares the two protocols under the same HELLO, election
//! and routing constants, so they are defined once: GRID runs on a
//! [`GridConfig`] alone, ECGRID's config holds one beside its sleep and
//! paging constants, and the routing plane reads the ones it needs from
//! whichever its caller passes.  The paper specifies the mechanisms but
//! not every constant; the defaults are conventional values for 2003-era
//! MANET protocols (1 s HELLO beacons, a few beacon periods of silence
//! before declaring a neighbour gone).

use manet::SimDuration;

/// HELLO, election and routing constants of the GRID family.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GridConfig {
    /// Period of the HELLO beacon for active hosts ("HELLO period", §3.1).
    pub hello_interval: f64,
    /// Uniform jitter applied to each HELLO send (fraction of interval),
    /// decorrelating beacons that would otherwise collide.
    pub hello_jitter: f64,
    /// Length of the election window: hosts collect HELLOs this long
    /// before applying the gateway-election rules.
    pub election_window: f64,
    /// A member that has not heard its gateway's HELLO for this long
    /// declares a no-gateway event (§3.2 condition 1).
    pub gateway_silence: f64,
    /// Minimum spacing of reactive gateway HELLO responses (to arrival
    /// HELLOs and ACQs), preventing response storms.
    pub gw_response_min_gap: f64,
    /// Routing-table entry lifetime.
    pub route_ttl: f64,
    /// Neighbour-gateway cache entry lifetime.
    pub neighbor_ttl: f64,
    /// Route-discovery retry timeout per attempt.
    pub discovery_timeout: f64,
    /// Discovery attempts before the pending packets are dropped.  The
    /// first round searches the rectangle covering the requester's grid
    /// and the destination's last known one; the second and later search
    /// globally (§3.3: "another round of route searching should be
    /// initialized to search all areas").
    pub max_discovery_attempts: u32,
    /// Max packets buffered per destination.
    pub buffer_cap: usize,
}

impl Default for GridConfig {
    fn default() -> Self {
        GridConfig {
            hello_interval: 1.0,
            hello_jitter: 0.1,
            election_window: 1.0,
            gateway_silence: 3.0,
            gw_response_min_gap: 0.2,
            route_ttl: 60.0,
            neighbor_ttl: 3.5,
            discovery_timeout: 0.5,
            max_discovery_attempts: 3,
            buffer_cap: 64,
        }
    }
}

impl GridConfig {
    /// Delay to the next HELLO: [`hello_interval`](Self::hello_interval)
    /// jittered uniformly by ±[`hello_jitter`](Self::hello_jitter) of
    /// itself, from `u`, one uniform draw in `[0, 1)`.  Every beacon of
    /// both protocols takes it.
    #[inline]
    pub fn hello_delay(&self, u: f64) -> f64 {
        self.hello_interval * (1.0 + self.hello_jitter * (u * 2.0 - 1.0))
    }

    /// [`route_ttl`](Self::route_ttl) as a duration.
    #[inline]
    pub fn route_lifetime(&self) -> SimDuration {
        SimDuration::from_secs_f64(self.route_ttl)
    }

    /// [`neighbor_ttl`](Self::neighbor_ttl) as a duration.
    #[inline]
    pub fn neighbor_lifetime(&self) -> SimDuration {
        SimDuration::from_secs_f64(self.neighbor_ttl)
    }
}
