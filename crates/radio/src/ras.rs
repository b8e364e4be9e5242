//! The Remotely Activated Switch (RAS) — Fig. 1 of the paper.
//!
//! Every host carries a low-power RF-tag paging receiver that stays on
//! even while the main transceiver sleeps.  A gateway wakes:
//!
//! * one host by sending its **paging sequence** (the host's unique id);
//! * every host in its grid by sending the grid's **broadcast sequence**
//!   (the grid coordinate) — used before elections and RETIREs.
//!
//! The paper ignores RAS energy ("much lower than the transmitting/
//! receiving power consumption"); we keep that idealization but expose the
//! wake latency as a world parameter (`manet::WorldConfig::wake_latency`)
//! so its impact can be measured (see the `ablations` binary).

use crate::frame::NodeId;
use geo::GridCoord;

/// Paging reach in meters.  The gateway only ever pages hosts in its own
/// grid, which lie well inside 250 m.  The reach is fixed: it does not
/// follow a host's radio range (`manet::HostSetup::range_m`), so a 150 m
/// host still pages 250 m.
pub const PAGE_RANGE_M: f64 = 250.0;

/// A paging transmission on the RAS out-of-band channel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PageSignal {
    /// The paging sequence of one host: wakes exactly that host.
    Host(NodeId),
    /// The broadcast sequence of a grid: wakes every sleeping host located
    /// in that grid.
    Grid(GridCoord),
}

impl PageSignal {
    /// Does this signal address the given host (located in `cell`)?
    #[inline]
    pub fn addresses(&self, host: NodeId, cell: GridCoord) -> bool {
        match self {
            PageSignal::Host(id) => *id == host,
            PageSignal::Grid(g) => *g == cell,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_page_addresses_one_host() {
        let s = PageSignal::Host(NodeId(7));
        let cell = GridCoord::new(1, 1);
        assert!(s.addresses(NodeId(7), cell));
        assert!(!s.addresses(NodeId(8), cell));
        // the host is addressed regardless of where it is
        assert!(s.addresses(NodeId(7), GridCoord::new(9, 9)));
    }

    #[test]
    fn grid_page_addresses_everyone_in_the_grid() {
        let s = PageSignal::Grid(GridCoord::new(2, 3));
        assert!(s.addresses(NodeId(1), GridCoord::new(2, 3)));
        assert!(s.addresses(NodeId(99), GridCoord::new(2, 3)));
        assert!(!s.addresses(NodeId(1), GridCoord::new(2, 4)));
    }
}
