//! ECGRID wire messages and timers.

use grid_common::{DataMsg, DiscoveryTimeout, HelloInfo, RouteSnapshot, Rrep, Rreq};
use manet::{GridCoord, NodeId, WireSize};

/// Every message ECGRID puts on the air.
#[derive(Clone, Debug, PartialEq)]
pub enum EcMsg {
    /// Periodic beacon (§3.1) — also the gateway's declaration (gflag) and
    /// its reactive response to arrival HELLOs and ACQs.
    Hello(HelloInfo),
    /// A departing/retiring gateway hands the grid its tables (§3.2):
    /// `RETIRE(grid, rtab)` plus the host table.
    Retire {
        grid: GridCoord,
        routes: RouteSnapshot,
        hosts: Vec<NodeId>,
    },
    /// Unicast table transfer to a replacement gateway (§3.2 case 1).
    TableXfer {
        routes: RouteSnapshot,
        hosts: Vec<NodeId>,
    },
    /// A non-gateway host leaving the grid notifies the gateway (§3.2).
    Leave { grid: GridCoord },
    /// A member tells its gateway it is turning its transceiver off, so
    /// the host table's status field (§3: "host ID and status
    /// (transmit/sleep mode)") stays accurate.
    SleepNotice,
    /// A sleeping host woke to transmit: `ACQ(gid, D)` (§3.3).
    Acq { gid: GridCoord, dst: NodeId },
    /// Route request flood.
    Rreq(Rreq),
    /// Route reply along the reverse path.
    Rrep(Rrep),
    /// A data packet in grid-by-grid transit.
    Data(DataMsg),
}

impl From<Rreq> for EcMsg {
    fn from(r: Rreq) -> Self {
        EcMsg::Rreq(r)
    }
}

impl From<Rrep> for EcMsg {
    fn from(r: Rrep) -> Self {
        EcMsg::Rrep(r)
    }
}

impl From<DataMsg> for EcMsg {
    fn from(d: DataMsg) -> Self {
        EcMsg::Data(d)
    }
}

impl WireSize for EcMsg {
    fn wire_bytes(&self) -> u32 {
        match self {
            EcMsg::Hello(h) => h.wire_bytes(),
            EcMsg::Retire { routes, hosts, .. } => 16 + 20 * routes.len() as u32 + 4 * hosts.len() as u32,
            EcMsg::TableXfer { routes, hosts } => 8 + 20 * routes.len() as u32 + 4 * hosts.len() as u32,
            EcMsg::Leave { .. } => 12,
            EcMsg::SleepNotice => 8,
            EcMsg::Acq { .. } => 16,
            EcMsg::Rreq(r) => r.wire_bytes(),
            EcMsg::Rrep(r) => r.wire_bytes(),
            EcMsg::Data(d) => d.wire_bytes(),
        }
    }
}

/// ECGRID timers.  Several carry an epoch so that stale instances are
/// ignored after role changes (cheap, race-free cancellation).
#[derive(Clone, Debug, PartialEq)]
pub enum EcTimer {
    /// Periodic HELLO beacon (chained; stale epochs are ignored).
    Hello { epoch: u32 },
    /// End of the election window: apply the rules.
    ElectionDecide { epoch: u32 },
    /// Member watchdog: the gateway has been silent too long.
    GatewayWatch { epoch: u32 },
    /// Sleeping host re-checks whether it left its grid (§3.2).
    Dwell { epoch: u32 },
    /// Quiet member goes to sleep.
    SleepAfterQuiet { epoch: u32 },
    /// τ elapsed after paging the grid: broadcast RETIRE.
    RetireSend { grid: GridCoord },
    /// Paged destination should be awake: flush its buffer.
    ForwardBuffered { dst: NodeId },
    /// ACQ went unanswered (no-gateway event, §3.2 condition 2).
    AcqTimeout { epoch: u32 },
    /// A member woken by a retiring gateway's grid page has waited the
    /// whole handoff grace period without a RETIRE or a gateway HELLO.
    HandoffGrace { epoch: u32 },
    /// A route discovery attempt timed out.
    DiscoveryTimeout(DiscoveryTimeout),
}

impl From<DiscoveryTimeout> for EcTimer {
    fn from(t: DiscoveryTimeout) -> Self {
        EcTimer::DiscoveryTimeout(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grid_common::RouteEntry;
    use manet::{EnergyLevel, SimTime};

    #[test]
    fn wire_sizes_scale_with_tables() {
        let empty = EcMsg::Retire {
            grid: GridCoord::new(0, 0),
            routes: vec![],
            hosts: vec![],
        };
        assert_eq!(empty.wire_bytes(), 16);
        let entry = RouteEntry {
            next_grid: GridCoord::new(1, 1),
            via_node: NodeId(3),
            seq: 1,
            expires: SimTime::from_secs(10),
        };
        let full = EcMsg::Retire {
            grid: GridCoord::new(0, 0),
            routes: vec![(NodeId(1), entry), (NodeId(2), entry)],
            hosts: vec![NodeId(5), NodeId(6), NodeId(7)],
        };
        assert_eq!(full.wire_bytes(), 16 + 40 + 12);
    }

    #[test]
    fn hello_is_compact() {
        let h = EcMsg::Hello(HelloInfo {
            id: NodeId(1),
            grid: GridCoord::new(0, 0),
            gflag: true,
            level: EnergyLevel::Upper,
            dist: 3.0,
        });
        assert!(h.wire_bytes() <= 24);
    }
}
