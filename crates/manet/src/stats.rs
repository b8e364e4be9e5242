//! Aggregate simulation counters (diagnostics; the paper's metrics live in
//! `metrics`).

/// Frame-level and event-level counters for one run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorldStats {
    /// Transmissions started (frames put on the air).
    pub tx_started: u64,
    /// Broadcast frames transmitted.
    pub broadcasts: u64,
    /// Unicast frames transmitted (including retransmissions).
    pub unicasts: u64,
    /// Successful frame receptions dispatched to protocols.
    pub frames_delivered: u64,
    /// Receptions lost to collisions.
    pub corrupted: u64,
    /// Receptions lost because the destination slept or died mid-frame.
    pub missed_unreachable: u64,
    /// Unicast frames dropped after exhausting the retry budget.
    pub mac_drops: u64,
    /// Unicast retransmissions performed.
    pub retransmissions: u64,
    /// RAS pages transmitted.
    pub pages_sent: u64,
    /// Hosts woken by RAS pages.
    pub pages_woken: u64,
    /// Grid-boundary crossings observed.
    pub cell_crossings: u64,
    /// Cell-crossing events that found their host still in its old cell
    /// (the crossing instant is rounded to the ns, so the event can land
    /// just short of the boundary; the entry it heralded then goes
    /// unrecorded until the host's next crossing).
    pub cell_crossings_unchanged: u64,
    /// Hosts that ran out of battery.
    pub deaths: u64,
    /// Protocol timers fired.
    pub timers_fired: u64,
    /// Receptions destroyed by the injected fault channel.
    pub frames_lost_fault: u64,
    /// RAS pages lost to the injected fault channel.
    pub pages_lost_fault: u64,
    /// Injected node crashes.
    pub crashes: u64,
    /// Crashed nodes that rebooted and rejoined.
    pub rejoins: u64,
    /// Injected sudden battery drains.
    pub fault_drains: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_zeroed() {
        let s = WorldStats::default();
        assert_eq!(s.tx_started, 0);
        assert_eq!(s.deaths, 0);
    }
}
