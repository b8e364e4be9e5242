//! Subscription filters over the hierarchical event labels.
//!
//! A subscriber of the sweep service names what it wants by the same
//! label hierarchy every event already carries — protocol, layer, node,
//! cell (see [`Labels`]) — and the service applies the filter server-side
//! so a narrow subscription costs the wire only its own events.  An empty
//! filter matches everything.

use crate::event::{Labels, Layer};

/// Parse a layer by its canonical name (the strings [`Layer::name`]
/// renders).
pub fn parse_layer(s: &str) -> Option<Layer> {
    Some(match s {
        "sched" => Layer::Sched,
        "mac" => Layer::Mac,
        "radio" => Layer::Radio,
        "energy" => Layer::Energy,
        "ras" => Layer::Ras,
        "route" => Layer::Route,
        "app" => Layer::App,
        "fault" => Layer::Fault,
        _ => return None,
    })
}

/// A conjunctive label filter: every populated axis must match; an
/// unpopulated axis matches anything.  `layers` is a disjunction within
/// its axis (subscribe to `mac` *and* `route` events at once).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EventFilter {
    /// Accepted layers; empty = all layers.
    pub layers: Vec<Layer>,
    /// Only events about this node.
    pub node: Option<u32>,
    /// Only events about this grid cell.
    pub cell: Option<(i32, i32)>,
    /// Only events of runs under this protocol label (e.g. "ECGRID").
    pub protocol: Option<String>,
}

impl EventFilter {
    /// The match-everything filter.
    pub fn all() -> Self {
        EventFilter::default()
    }

    /// True when no axis is constrained: every event passes, and a caller
    /// can skip computing labels.
    pub fn is_all(&self) -> bool {
        self.layers.is_empty() && self.node.is_none() && self.cell.is_none() && self.protocol.is_none()
    }

    /// Parse a comma-separated layer list ("mac,route"); empty string
    /// means all layers.  `None` on any unknown layer name.
    pub fn with_layers(mut self, spec: &str) -> Option<Self> {
        self.layers.clear();
        for part in spec.split(',').filter(|p| !p.is_empty()) {
            self.layers.push(parse_layer(part)?);
        }
        Some(self)
    }

    pub fn with_node(mut self, node: u32) -> Self {
        self.node = Some(node);
        self
    }

    pub fn with_cell(mut self, x: i32, y: i32) -> Self {
        self.cell = Some((x, y));
        self
    }

    pub fn with_protocol(mut self, protocol: impl Into<String>) -> Self {
        self.protocol = Some(protocol.into());
        self
    }

    /// Does an event with these labels pass the filter?
    pub fn matches(&self, labels: &Labels<'_>) -> bool {
        if !self.layers.is_empty() && !self.layers.contains(&labels.layer) {
            return false;
        }
        if let Some(n) = self.node {
            if labels.node.map(|id| id.0) != Some(n) {
                return false;
            }
        }
        if let Some((x, y)) = self.cell {
            match labels.cell {
                Some(c) if c.x == x && c.y == y => {}
                _ => return false,
            }
        }
        if let Some(p) = &self.protocol {
            if p != labels.protocol {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, EventKind};
    use geo::GridCoord;
    use radio::NodeId;
    use sim_engine::SimTime;

    fn gateway_event() -> Event {
        Event {
            t: SimTime::from_millis(5),
            kind: EventKind::GatewayElect {
                node: NodeId(7),
                cell: GridCoord::new(2, 3),
            },
        }
    }

    #[test]
    fn empty_filter_matches_everything() {
        let f = EventFilter::all();
        assert!(f.is_all());
        assert!(f.matches(&gateway_event().labels("ECGRID")));
    }

    #[test]
    fn layer_axis_is_a_disjunction() {
        let f = EventFilter::all().with_layers("mac,route").unwrap();
        assert!(f.matches(&gateway_event().labels("ECGRID"))); // route
        let mac_only = EventFilter::all().with_layers("mac").unwrap();
        assert!(!mac_only.matches(&gateway_event().labels("ECGRID")));
    }

    #[test]
    fn node_and_cell_axes_constrain() {
        let labels = gateway_event().labels("ECGRID");
        assert!(EventFilter::all().with_node(7).matches(&labels));
        assert!(!EventFilter::all().with_node(7).is_all());
        assert!(!EventFilter::all().with_node(8).matches(&labels));
        assert!(EventFilter::all().with_cell(2, 3).matches(&labels));
        assert!(!EventFilter::all().with_cell(3, 2).matches(&labels));
    }

    #[test]
    fn protocol_axis_constrains() {
        let labels = gateway_event().labels("ECGRID");
        assert!(EventFilter::all().with_protocol("ECGRID").matches(&labels));
        assert!(!EventFilter::all().with_protocol("GAF").matches(&labels));
    }

    #[test]
    fn unknown_layer_name_is_rejected() {
        assert!(EventFilter::all().with_layers("mac,bogus").is_none());
        assert!(EventFilter::all().with_layers("").unwrap().layers.is_empty());
    }

    #[test]
    fn every_layer_name_roundtrips() {
        for l in [
            Layer::Sched,
            Layer::Mac,
            Layer::Radio,
            Layer::Energy,
            Layer::Ras,
            Layer::Route,
            Layer::App,
            Layer::Fault,
        ] {
            assert_eq!(parse_layer(l.name()), Some(l));
        }
    }
}
