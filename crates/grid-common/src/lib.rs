//! Machinery shared by the GRID protocol family (GRID and ECGRID):
//!
//! * the HELLO, election and routing constants both read ([`GridConfig`]);
//! * the HELLO message and the paper's three gateway-election rules (§3);
//! * grid-by-grid routing tables with freshness and expiry (§3.3);
//! * route discovery packets (RREQ/RREP) with search-area confinement and
//!   duplicate suppression, and the data header;
//! * the routing plane both protocols run: discovery, reverse-path
//!   replies, remote forwarding and buffering ([`RoutingPlane`]);
//! * the neighbour-gateway cache every gateway builds from overheard
//!   HELLOs.
//!
//! GRID uses the distance-only election (it is not energy-aware); ECGRID
//! uses the full three rules.  Both route identically: the routing table is
//! "established in a grid-by-grid manner, instead of in a host-by-host
//! manner" — entries name a destination *host* but point at a next-hop
//! *grid*.

pub mod config;
pub mod discovery;
pub mod hello;
pub mod neighbors;
pub mod plane;
pub mod routes;

pub use config::GridConfig;
pub use discovery::{DataMsg, Rrep, Rreq, RreqSeen, DATA_TTL};
pub use hello::{elect_gateway, HelloInfo};
pub use neighbors::GatewayCache;
pub use plane::{DiscoveryTimeout, RoutingPlane, RoutingStats};
pub use routes::{RouteEntry, RouteMap, RouteSnapshot, RouteTable};
