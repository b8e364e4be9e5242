//! The HELLO message and the gateway-election rules (§3, §3.1).

use manet::{Ctx, EnergyLevel, GridCoord, NodeId, Protocol, WireSize};

/// The five HELLO fields of §3.1: id, grid, gflag, level, dist.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HelloInfo {
    /// Host ID (also the paging sequence).
    pub id: NodeId,
    /// Grid coordinate of the sender.
    pub grid: GridCoord,
    /// Gateway flag — set when the sender is (declaring itself) the
    /// gateway of `grid`.
    pub gflag: bool,
    /// Remaining battery-capacity level.
    pub level: EnergyLevel,
    /// Distance to the geographic center of `grid`, meters.
    pub dist: f64,
}

impl WireSize for HelloInfo {
    fn wire_bytes(&self) -> u32 {
        // id 4 + grid 8 + gflag/level packed 1 + dist 4 + header 3
        20
    }
}

impl HelloInfo {
    /// The HELLO the host `ctx` serves would send from `grid` right now.
    pub fn announce<P: Protocol>(ctx: &Ctx<'_, P>, grid: GridCoord, gflag: bool) -> Self {
        HelloInfo {
            id: ctx.id(),
            grid,
            gflag,
            level: ctx.level(),
            dist: ctx.dist_to_center(),
        }
    }

    /// Election key: better gateways sort first.
    ///
    /// Rule 1 — higher battery level wins (when `energy_aware`).
    /// Rule 2 — among equals, smaller distance to grid center wins.
    /// Rule 3 — remaining ties break on smaller host ID.
    fn election_rank(&self, energy_aware: bool) -> (u8, f64, u32) {
        let level_rank = if energy_aware {
            match self.level {
                EnergyLevel::Upper => 0u8,
                EnergyLevel::Boundary => 1,
                EnergyLevel::Lower => 2,
            }
        } else {
            0
        };
        (level_rank, self.dist, self.id.0)
    }

    /// True if `self` beats `other` under the election rules.
    pub fn beats(&self, other: &HelloInfo, energy_aware: bool) -> bool {
        let a = self.election_rank(energy_aware);
        let b = other.election_rank(energy_aware);
        match a.0.cmp(&b.0) {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Greater => false,
            std::cmp::Ordering::Equal => match a.1.total_cmp(&b.1) {
                std::cmp::Ordering::Less => true,
                std::cmp::Ordering::Greater => false,
                std::cmp::Ordering::Equal => a.2 < b.2,
            },
        }
    }
}

/// Apply the gateway-election rules to a candidate set; returns the
/// winner's id (`None` on an empty set).  Every host computes this from the
/// same HELLO set, so all hosts in a grid agree on the winner.
///
/// ```
/// use grid_common::{elect_gateway, HelloInfo};
/// use manet::{EnergyLevel, GridCoord, NodeId};
///
/// let grid = GridCoord::new(2, 2);
/// let cands = [
///     HelloInfo { id: NodeId(5), grid, gflag: false, level: EnergyLevel::Boundary, dist: 3.0 },
///     HelloInfo { id: NodeId(9), grid, gflag: false, level: EnergyLevel::Upper, dist: 40.0 },
/// ];
/// // rule 1: the upper-level host wins despite being farther out
/// assert_eq!(elect_gateway(cands.iter(), true), Some(NodeId(9)));
/// // GRID ignores energy: the center-closest host wins
/// assert_eq!(elect_gateway(cands.iter(), false), Some(NodeId(5)));
/// ```
pub fn elect_gateway<'a, I>(candidates: I, energy_aware: bool) -> Option<NodeId>
where
    I: IntoIterator<Item = &'a HelloInfo>,
{
    let mut best: Option<&HelloInfo> = None;
    for c in candidates {
        best = match best {
            None => Some(c),
            Some(b) if c.beats(b, energy_aware) => Some(c),
            other => other,
        };
    }
    best.map(|b| b.id)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(id: u32, level: EnergyLevel, dist: f64) -> HelloInfo {
        HelloInfo {
            id: NodeId(id),
            grid: GridCoord::new(0, 0),
            gflag: false,
            level,
            dist,
        }
    }

    #[test]
    fn rule1_higher_level_wins() {
        let cands = [h(1, EnergyLevel::Boundary, 1.0), h(2, EnergyLevel::Upper, 60.0)];
        assert_eq!(elect_gateway(cands.iter(), true), Some(NodeId(2)));
    }

    #[test]
    fn rule2_distance_breaks_level_ties() {
        let cands = [h(5, EnergyLevel::Upper, 30.0), h(2, EnergyLevel::Upper, 10.0)];
        assert_eq!(elect_gateway(cands.iter(), true), Some(NodeId(2)));
    }

    #[test]
    fn rule3_smallest_id_breaks_full_ties() {
        let cands = [
            h(9, EnergyLevel::Upper, 10.0),
            h(3, EnergyLevel::Upper, 10.0),
            h(7, EnergyLevel::Upper, 10.0),
        ];
        assert_eq!(elect_gateway(cands.iter(), true), Some(NodeId(3)));
    }

    #[test]
    fn energy_unaware_mode_ignores_levels() {
        // GRID: node 1 is nearly empty but closest to the center — it wins
        let cands = [h(1, EnergyLevel::Lower, 5.0), h(2, EnergyLevel::Upper, 20.0)];
        assert_eq!(elect_gateway(cands.iter(), false), Some(NodeId(1)));
        // the same set under ECGRID rules elects node 2
        assert_eq!(elect_gateway(cands.iter(), true), Some(NodeId(2)));
    }

    #[test]
    fn empty_candidate_set_elects_nobody() {
        assert_eq!(elect_gateway([].iter(), true), None);
    }

    #[test]
    fn election_is_order_independent() {
        let a = [
            h(4, EnergyLevel::Upper, 12.0),
            h(2, EnergyLevel::Boundary, 1.0),
            h(9, EnergyLevel::Upper, 12.0),
        ];
        let mut b = a;
        b.reverse();
        assert_eq!(elect_gateway(a.iter(), true), elect_gateway(b.iter(), true));
        assert_eq!(elect_gateway(a.iter(), true), Some(NodeId(4)));
    }

    #[test]
    fn beats_is_a_strict_order() {
        let x = h(1, EnergyLevel::Upper, 5.0);
        let y = h(2, EnergyLevel::Upper, 5.0);
        assert!(x.beats(&y, true));
        assert!(!y.beats(&x, true));
        assert!(!x.beats(&x, true));
    }

    #[test]
    fn wire_size_is_compact() {
        assert_eq!(h(1, EnergyLevel::Upper, 0.0).wire_bytes(), 20);
    }
}
