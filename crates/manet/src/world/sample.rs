//! Metric sampling: the periodic tick that integrates every host's energy
//! and records the alive fraction and aen series, and the energy rollups
//! it and the result extractors read.

use super::World;
use crate::protocol::Protocol;
use energy::EnergyAudit;
use metrics::TimeSeries;
use radio::NodeId;
use sim_engine::SimDuration;

/// Metrics sampling period (alive fraction, aen).
pub(super) const SAMPLE_EVERY: SimDuration = SimDuration::from_secs(10);

/// Per-scenario-group liveness/energy rollup (see [`World::group_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct GroupStats {
    /// Hosts tagged with this group (including infinite-battery ones).
    pub hosts: u32,
    /// Finite-battery hosts in the group.
    pub finite: u32,
    /// Finite-battery hosts currently alive.
    pub alive: u32,
    /// Energy consumed by the group's finite-battery hosts (J).
    pub consumed_j: f64,
    /// Total initial energy of the group's finite-battery hosts (J).
    pub capacity_j: f64,
    /// Per-mode breakdown of `consumed_j`: the finite-battery hosts'
    /// energy audits, summed in id order.
    pub audit: EnergyAudit,
}

impl GroupStats {
    /// Alive fraction over finite hosts (1.0 for an all-infinite group).
    pub fn alive_fraction(&self) -> f64 {
        if self.finite == 0 {
            1.0
        } else {
            f64::from(self.alive) / f64::from(self.finite)
        }
    }

    /// Normalized energy consumption (Eq. 2 restricted to the group).
    pub fn aen(&self) -> f64 {
        if self.capacity_j == 0.0 {
            0.0
        } else {
            self.consumed_j / self.capacity_j
        }
    }
}

impl<P: Protocol> World<P> {
    pub fn alive_series(&self) -> &TimeSeries {
        &self.alive_series
    }

    pub fn aen_series(&self) -> &TimeSeries {
        &self.aen_series
    }

    /// Fraction of finite-battery hosts currently alive.  A linear fold
    /// over the dense meter array.
    pub fn alive_fraction(&self) -> f64 {
        let mut total = 0u32;
        let mut alive = 0u32;
        for m in &self.hosts.meters {
            if m.battery().is_infinite() {
                continue;
            }
            total += 1;
            if m.is_alive() {
                alive += 1;
            }
        }
        if total == 0 {
            1.0
        } else {
            alive as f64 / total as f64
        }
    }

    /// aen (Eq. 2): total consumed energy of finite-battery hosts divided
    /// by their total initial energy — 0 at start, 1 when everyone is flat.
    pub fn aen(&self) -> f64 {
        let mut consumed = 0.0;
        let mut capacity = 0.0;
        for m in &self.hosts.meters {
            if m.battery().is_infinite() {
                continue;
            }
            consumed += m.consumed_j();
            capacity += m.battery().capacity_j();
        }
        if capacity == 0.0 {
            0.0
        } else {
            consumed / capacity
        }
    }

    /// Energy/liveness rollup per scenario group, indexed by group id
    /// (one linear fold, same accounting rules as [`Self::alive_fraction`]
    /// and [`Self::aen`]: infinite-battery hosts count toward `hosts` but
    /// not toward the energy or alive tallies).
    pub fn group_stats(&self) -> Vec<GroupStats> {
        let n_groups = self.hosts.groups.iter().copied().max().unwrap_or(0) as usize + 1;
        let mut out = vec![GroupStats::default(); n_groups];
        for (i, m) in self.hosts.meters.iter().enumerate() {
            let g = &mut out[self.hosts.groups[i] as usize];
            g.hosts += 1;
            if m.battery().is_infinite() {
                continue;
            }
            g.finite += 1;
            if m.is_alive() {
                g.alive += 1;
            }
            g.consumed_j += m.consumed_j();
            g.capacity_j += m.battery().capacity_j();
            g.audit += *m.audit();
        }
        out
    }

    pub(super) fn sample(&mut self) {
        let now = self.now();
        // integrate energy and process deaths — threaded when engaged,
        // with the commit replay matching this loop's ascending-id order
        if !self.parallel_probe_all(None, &mut Vec::new()) {
            for i in 0..self.hosts.len() {
                self.touch(NodeId(i as u32));
            }
        }
        let t = now.as_secs_f64();
        let alive = self.alive_fraction();
        let aen = self.aen();
        self.alive_series.push(t, alive);
        self.aen_series.push(t, aen);
        self.engine
            .schedule_world_at(now + SAMPLE_EVERY, super::Event::Sample);
    }
}
