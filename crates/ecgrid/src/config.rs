//! ECGRID protocol parameters.
//!
//! ECGRID is GRID plus energy conservation, and runs on the same HELLO,
//! election and routing constants ([`GridConfig`]); what it adds are the
//! sleep, paging and handover constants below.  The paper specifies the
//! mechanisms but not every constant; the defaults are conventional
//! values, and the `ablations` binary varies some of them.

use grid_common::GridConfig;

/// Tunable protocol constants (times in seconds).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EcgridConfig {
    /// The constants GRID and ECGRID share.
    pub grid: GridConfig,
    /// Cap on the dwell-timer duration of a sleeping host.
    pub dwell_cap: f64,
    /// An active member with no pending traffic sleeps after this long;
    /// sends of own data and deliveries of own data re-arm it (a CBR
    /// endpoint therefore stays awake while its flow is active).
    pub sleep_quiet_delay: f64,
    /// τ: gap between paging the grid awake and broadcasting RETIRE
    /// (§3.2: "after waiting for time, τ").
    pub retire_wait: f64,
    /// How long the gateway waits after paging a sleeping destination
    /// before flushing its buffered packets to it.
    pub forward_wake_wait: f64,
    /// A host that sent ACQ and got no gateway HELLO back within this time
    /// declares a no-gateway event (§3.2 condition 2).
    pub acq_timeout: f64,
    /// A local host counts as certainly-awake this long after its last
    /// frame; otherwise the gateway pages it before forwarding.
    pub host_fresh_secs: f64,
    /// How many times a gateway re-pages an unresponsive sleeping
    /// destination (with exponentially backed-off wake waits) before the
    /// buffered packet is dropped and the host forgotten.  Bounds the
    /// implicit page→flush→fail retry loop that a lossy paging channel
    /// would otherwise spin until the data TTL ran out.
    pub max_page_attempts: u32,
    /// Grace period a member woken by a retiring gateway's grid page
    /// waits for the RETIRE handover; if neither the RETIRE nor any
    /// gateway HELLO arrives, the member declares a no-gateway event
    /// instead of idling in a gateway-less grid.
    pub handoff_grace: f64,
    /// A host continuously asleep this long wakes once to revalidate that
    /// its grid still has a live gateway (orphaned-cell detection: a
    /// crashed gateway can never page its sleepers).
    pub orphan_check_secs: f64,
}

impl Default for EcgridConfig {
    fn default() -> Self {
        EcgridConfig {
            grid: GridConfig::default(),
            dwell_cap: 300.0,
            sleep_quiet_delay: 1.5,
            retire_wait: 0.03,
            forward_wake_wait: 0.008,
            acq_timeout: 0.25,
            host_fresh_secs: 1.6,
            max_page_attempts: 5,
            handoff_grace: 1.0,
            orphan_check_secs: 60.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = EcgridConfig::default();
        let g = c.grid;
        assert!(g.hello_interval > 0.0);
        assert!(
            g.gateway_silence > 2.0 * g.hello_interval,
            "watchdog must tolerate one lost HELLO"
        );
        assert!(
            g.election_window >= g.hello_interval,
            "must collect a full beacon round"
        );
        assert!(c.retire_wait > 0.005, "must exceed the RAS wake latency");
        assert!(c.forward_wake_wait > 0.005, "must exceed the RAS wake latency");
        assert!(g.max_discovery_attempts >= 2, "need a global retry round");
        assert!(c.max_page_attempts >= 2, "need at least one page retry");
        assert!(
            c.handoff_grace > c.retire_wait,
            "grace must outlast the RETIRE handover"
        );
        assert!(
            c.orphan_check_secs > g.gateway_silence,
            "orphan check is the slow path behind the watchdog"
        );
    }
}
