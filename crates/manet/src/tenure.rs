//! The trace's view of one host's gateway tenure.

use crate::ctx::Ctx;
use crate::protocol::Protocol;
use geo::GridCoord;
use trace::EventKind;

/// The cell the trace recorder believes this host is gateway of, if any.
///
/// GRID, ECGRID and GAF (whose active router is its grid's gateway) hold
/// one per host and [`sync`](Self::sync) it after every role transition,
/// so `GatewayElect` / `GatewayRetire` strictly alternate per (host,
/// cell) — the invariant the trace test-suite checks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GatewayTenure(Option<GridCoord>);

impl GatewayTenure {
    /// Reconcile the traced tenure with the host's role: gateway of
    /// `cell` when `is_gateway`, of nothing otherwise.
    pub fn sync<P: Protocol>(&mut self, ctx: &mut Ctx<'_, P>, cell: GridCoord, is_gateway: bool) {
        let me = ctx.id();
        match (self.0, is_gateway) {
            (None, true) => {
                self.0 = Some(cell);
                ctx.emit(|| EventKind::GatewayElect { node: me, cell });
            }
            (Some(old), false) => {
                self.0 = None;
                ctx.emit(|| EventKind::GatewayRetire { node: me, cell: old });
            }
            (Some(old), true) if old != cell => {
                self.0 = Some(cell);
                ctx.emit(|| EventKind::GatewayRetire { node: me, cell: old });
                ctx.emit(|| EventKind::GatewayElect { node: me, cell });
            }
            _ => {}
        }
    }
}
