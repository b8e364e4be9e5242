//! Typed simulation events and their labels.
//!
//! Every event carries a timestamp plus an [`EventKind`] with the fields
//! that matter for that kind.  Two derived views exist:
//!
//! * a canonical byte encoding folded into the [`TraceDigest`](crate::TraceDigest)
//!   (`fold` — one tag byte, then fixed-width little-endian fields), and
//! * a JSONL rendering with the hierarchical labels spelled out
//!   (`to_jsonl`).
//!
//! Tag bytes and field order are part of the golden-digest contract:
//! changing them invalidates the fixtures under `tests/golden/` and must
//! be done deliberately.

use crate::digest::Fnv64;
use energy::{EnergyLevel, RadioMode};
use geo::GridCoord;
use radio::{FrameKind, NodeId, PageSignal};
use sim_engine::SimTime;

/// Which layer of the stack an event belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Layer {
    /// Discrete-event scheduler.
    Sched,
    /// CSMA/CA MAC.
    Mac,
    /// Transceiver power state.
    Radio,
    /// Battery / energy model.
    Energy,
    /// Remote-activated-switch paging channel.
    Ras,
    /// Routing / gateway control plane.
    Route,
    /// Application (CBR) layer.
    App,
    /// Injected adversity (fault layer).
    Fault,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Sched => "sched",
            Layer::Mac => "mac",
            Layer::Radio => "radio",
            Layer::Energy => "energy",
            Layer::Ras => "ras",
            Layer::Route => "route",
            Layer::App => "app",
            Layer::Fault => "fault",
        }
    }
}

/// What kind of adversity a [`EventKind::FaultInjected`] event records.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A correctly received data frame was destroyed by the fault channel.
    FrameLoss,
    /// A RAS page failed to reach an addressed host.
    PageLoss,
    /// The host crashed (went silent without retiring).
    Crash,
    /// A crashed host rebooted and rejoined with fresh protocol state.
    Rejoin,
    /// A sudden battery drain event hit the host.
    Drain,
}

impl FaultKind {
    /// Stable one-byte tag (part of the digest contract).
    pub fn tag(self) -> u8 {
        match self {
            FaultKind::FrameLoss => 0,
            FaultKind::PageLoss => 1,
            FaultKind::Crash => 2,
            FaultKind::Rejoin => 3,
            FaultKind::Drain => 4,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            FaultKind::FrameLoss => "frame_loss",
            FaultKind::PageLoss => "page_loss",
            FaultKind::Crash => "crash",
            FaultKind::Rejoin => "rejoin",
            FaultKind::Drain => "drain",
        }
    }
}

/// The hierarchical label set of one event: `protocol` (run-wide), then
/// `layer`, then the optional `node` and `cell` the event is about.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Labels<'a> {
    pub protocol: &'a str,
    pub layer: Layer,
    pub node: Option<NodeId>,
    pub cell: Option<GridCoord>,
}

/// One traced event.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Event {
    pub t: SimTime,
    pub kind: EventKind,
}

/// Every event kind the simulator emits.  `dst: None` means broadcast.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EventKind {
    /// A frame was put on the air.
    MacTx {
        node: NodeId,
        dst: Option<NodeId>,
        bytes: u32,
    },
    /// A frame was received successfully.
    MacRx { node: NodeId, from: NodeId, bytes: u32 },
    /// A reception was destroyed by a collision.
    MacCollision { node: NodeId, from: NodeId },
    /// A unicast missed its ACK and is being retried (`attempt` ≥ 1).
    MacRetry { node: NodeId, attempt: u32 },
    /// A unicast was dropped after exhausting its retransmission budget.
    MacDrop { node: NodeId, dst: Option<NodeId> },
    /// The transceiver changed power state.
    RadioMode {
        node: NodeId,
        from: RadioMode,
        to: RadioMode,
    },
    /// The battery crossed a level-class boundary (Eq. 1 classes).
    BatteryLevel {
        node: NodeId,
        from: EnergyLevel,
        to: EnergyLevel,
    },
    /// `node` became the gateway of `cell`.
    GatewayElect { node: NodeId, cell: GridCoord },
    /// `node` stopped being the gateway of `cell`.
    GatewayRetire { node: NodeId, cell: GridCoord },
    /// A RAS page was transmitted by `by`.
    RasPage { by: NodeId, signal: PageSignal },
    /// The application at `src` emitted packet (flow, seq).
    PacketSent { src: NodeId, flow: u32, seq: u64 },
    /// A router relayed packet (flow, seq) toward its destination.
    PacketForwarded { node: NodeId, flow: u32, seq: u64 },
    /// The application at `node` received packet (flow, seq).
    PacketDelivered { node: NodeId, flow: u32, seq: u64 },
    /// The host's battery ran out.
    NodeDeath { node: NodeId },
    /// The host crossed a grid boundary.
    CellChange {
        node: NodeId,
        from: GridCoord,
        to: GridCoord,
    },
    /// The fault layer injected adversity at `node`.
    FaultInjected { node: NodeId, fault: FaultKind },
    /// A buffered-forward page toward `target` is being retried
    /// (`attempt` ≥ 1) after the previous wake window elapsed unanswered.
    PageRetry {
        node: NodeId,
        target: NodeId,
        attempt: u32,
    },
    /// `node` observed its grid gateway-less past the handoff grace timer
    /// and is forcing re-election of `cell`.
    GatewayHandoffTimeout { node: NodeId, cell: GridCoord },
}

#[inline]
fn mode_tag(m: RadioMode) -> u8 {
    match m {
        RadioMode::Tx => 0,
        RadioMode::Rx => 1,
        RadioMode::Idle => 2,
        RadioMode::Sleep => 3,
        RadioMode::Off => 4,
    }
}

#[inline]
fn level_tag(l: EnergyLevel) -> u8 {
    match l {
        EnergyLevel::Lower => 0,
        EnergyLevel::Boundary => 1,
        EnergyLevel::Upper => 2,
    }
}

#[inline]
fn fold_opt_node(h: &mut Fnv64, n: Option<NodeId>) {
    // u32::MAX is an impossible node id (hosts are numbered from 0 and a
    // world never holds 4 billion of them): safe broadcast sentinel.
    h.write_u32(n.map(|n| n.0).unwrap_or(u32::MAX));
}

#[inline]
fn fold_cell(h: &mut Fnv64, c: GridCoord) {
    h.write_i32(c.x);
    h.write_i32(c.y);
}

/// The `Debug` name of a mode, as the JSONL rendering spells it.
fn mode_name(m: RadioMode) -> &'static str {
    match m {
        RadioMode::Tx => "Tx",
        RadioMode::Rx => "Rx",
        RadioMode::Idle => "Idle",
        RadioMode::Sleep => "Sleep",
        RadioMode::Off => "Off",
    }
}

/// The `Debug` name of a level class, as the JSONL rendering spells it.
fn level_name(l: EnergyLevel) -> &'static str {
    match l {
        EnergyLevel::Lower => "Lower",
        EnergyLevel::Boundary => "Boundary",
        EnergyLevel::Upper => "Upper",
    }
}

/// `"00"`, `"01"`, … `"99"` back to back: the two-digit table of
/// [`push_u64`].
const DIGIT_PAIRS: [u8; 200] = {
    let mut t = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        t[2 * i] = b'0' + (i / 10) as u8;
        t[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    t
};

/// Append `v` in decimal, as `{v}` would render it, without the `fmt`
/// machinery: two digits per division, from a table.
pub fn push_u64(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20]; // u64::MAX has 20 digits
    let mut at = digits.len();
    while v >= 100 {
        let pair = (v % 100) as usize * 2;
        v /= 100;
        at -= 2;
        digits[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if v >= 10 {
        let pair = v as usize * 2;
        at -= 2;
        digits[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        at -= 1;
        digits[at] = b'0' + v as u8;
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

/// Signed twin of [`push_u64`].
pub fn push_i64(out: &mut String, v: i64) {
    if v < 0 {
        out.push('-');
    }
    push_u64(out, v.unsigned_abs());
}

/// `key` (a literal such as `,"node":`) followed by `v`.
fn push_num(out: &mut String, key: &str, v: impl Into<u64>) {
    out.push_str(key);
    push_u64(out, v.into());
}

/// `open` (a literal such as `,"cell":[`) followed by `x,y]`.
fn push_cell(out: &mut String, open: &str, c: GridCoord) {
    out.push_str(open);
    push_i64(out, c.x.into());
    out.push(',');
    push_i64(out, c.y.into());
    out.push(']');
}

fn push_dst(out: &mut String, dst: Option<NodeId>) {
    match dst {
        Some(d) => push_num(out, ",\"dst\":", d.0),
        None => out.push_str(",\"dst\":\"*\""),
    }
}

fn push_from_to(out: &mut String, from: &str, to: &str) {
    for (key, val) in [(",\"from\":\"", from), ("\",\"to\":\"", to)] {
        out.push_str(key);
        out.push_str(val);
    }
    out.push('"');
}

/// Name and layer of every kind, in tag order (`KIND_TABLE[tag - 1]`).
const KIND_TABLE: [(&str, Layer); 18] = [
    ("mac_tx", Layer::Mac),
    ("mac_rx", Layer::Mac),
    ("mac_collision", Layer::Mac),
    ("mac_retry", Layer::Mac),
    ("mac_drop", Layer::Mac),
    ("radio_mode", Layer::Radio),
    ("battery_level", Layer::Energy),
    ("gateway_elect", Layer::Route),
    ("gateway_retire", Layer::Route),
    ("ras_page", Layer::Ras),
    ("packet_sent", Layer::App),
    ("packet_forwarded", Layer::Route),
    ("packet_delivered", Layer::App),
    ("node_death", Layer::Energy),
    ("cell_change", Layer::Route),
    ("fault_injected", Layer::Fault),
    ("page_retry", Layer::Ras),
    ("gateway_handoff_timeout", Layer::Route),
];

impl EventKind {
    /// Stable one-byte tag of this kind (part of the digest contract).
    pub fn tag(&self) -> u8 {
        match self {
            EventKind::MacTx { .. } => 1,
            EventKind::MacRx { .. } => 2,
            EventKind::MacCollision { .. } => 3,
            EventKind::MacRetry { .. } => 4,
            EventKind::MacDrop { .. } => 5,
            EventKind::RadioMode { .. } => 6,
            EventKind::BatteryLevel { .. } => 7,
            EventKind::GatewayElect { .. } => 8,
            EventKind::GatewayRetire { .. } => 9,
            EventKind::RasPage { .. } => 10,
            EventKind::PacketSent { .. } => 11,
            EventKind::PacketForwarded { .. } => 12,
            EventKind::PacketDelivered { .. } => 13,
            EventKind::NodeDeath { .. } => 14,
            EventKind::CellChange { .. } => 15,
            EventKind::FaultInjected { .. } => 16,
            EventKind::PageRetry { .. } => 17,
            EventKind::GatewayHandoffTimeout { .. } => 18,
        }
    }

    /// Short kind name (used in JSONL and for per-kind counting).
    pub fn name(&self) -> &'static str {
        KIND_TABLE[usize::from(self.tag()) - 1].0
    }

    /// The stack layer this event belongs to.
    pub fn layer(&self) -> Layer {
        KIND_TABLE[usize::from(self.tag()) - 1].1
    }

    /// The node the event is about (its primary label).
    pub fn node(&self) -> Option<NodeId> {
        match *self {
            EventKind::MacTx { node, .. }
            | EventKind::MacRx { node, .. }
            | EventKind::MacCollision { node, .. }
            | EventKind::MacRetry { node, .. }
            | EventKind::MacDrop { node, .. }
            | EventKind::RadioMode { node, .. }
            | EventKind::BatteryLevel { node, .. }
            | EventKind::GatewayElect { node, .. }
            | EventKind::GatewayRetire { node, .. }
            | EventKind::PacketForwarded { node, .. }
            | EventKind::PacketDelivered { node, .. }
            | EventKind::NodeDeath { node }
            | EventKind::CellChange { node, .. }
            | EventKind::FaultInjected { node, .. }
            | EventKind::PageRetry { node, .. }
            | EventKind::GatewayHandoffTimeout { node, .. } => Some(node),
            EventKind::RasPage { by, .. } => Some(by),
            EventKind::PacketSent { src, .. } => Some(src),
        }
    }

    /// The grid cell the event is about, when one is inherent to it.
    pub fn cell(&self) -> Option<GridCoord> {
        match *self {
            EventKind::GatewayElect { cell, .. }
            | EventKind::GatewayRetire { cell, .. }
            | EventKind::GatewayHandoffTimeout { cell, .. } => Some(cell),
            EventKind::CellChange { to, .. } => Some(to),
            EventKind::RasPage {
                signal: PageSignal::Grid(cell),
                ..
            } => Some(cell),
            _ => None,
        }
    }
}

/// Renders events as JSONL under one protocol label.  The run of members
/// every line of a kind shares — `,"kind":…,"layer":…,"protocol":…"` — is
/// rendered once per kind when the renderer is built, so a line costs only
/// its own fields: plain `push_str` and [`push_u64`], no `fmt`.  Build one
/// per export or per stream and reuse it; the sweep service renders every
/// event frame of a streamed job through one.
#[derive(Clone, Debug)]
pub struct JsonRenderer {
    /// Every kind's shared run, back to back in tag order.
    heads: String,
    /// Kind `tag`'s run is `heads[ends[tag - 1]..ends[tag]]`.
    ends: [usize; KIND_TABLE.len() + 1],
}

impl JsonRenderer {
    pub fn new(protocol: &str) -> Self {
        let mut heads = String::with_capacity(KIND_TABLE.len() * (64 + protocol.len()));
        let mut ends = [0; KIND_TABLE.len() + 1];
        for (i, (name, layer)) in KIND_TABLE.iter().enumerate() {
            for (key, val) in [
                (",\"kind\":\"", *name),
                ("\",\"layer\":\"", layer.name()),
                ("\",\"protocol\":\"", protocol),
            ] {
                heads.push_str(key);
                heads.push_str(val);
            }
            heads.push('"');
            ends[i + 1] = heads.len();
        }
        JsonRenderer { heads, ends }
    }

    /// Append the members of `ev`'s JSONL object without its braces, so a
    /// caller can put members of its own in front (the sweep service's
    /// stream head).
    pub fn write_fields(&self, ev: &Event, out: &mut String) {
        let tag = usize::from(ev.kind.tag());
        out.push_str("\"t_ns\":");
        push_u64(out, ev.t.as_nanos());
        out.push_str(&self.heads[self.ends[tag - 1]..self.ends[tag]]);
        ev.write_own_fields(out);
    }

    /// Append `ev`'s JSONL object (no line break).
    pub fn write_object(&self, ev: &Event, out: &mut String) {
        out.push('{');
        self.write_fields(ev, out);
        out.push('}');
    }
}

impl Event {
    /// Label view of this event under a run-wide `protocol` label.
    pub fn labels<'a>(&self, protocol: &'a str) -> Labels<'a> {
        Labels {
            protocol,
            layer: self.kind.layer(),
            node: self.kind.node(),
            cell: self.kind.cell(),
        }
    }

    /// Fold the canonical encoding of this event into `h`.
    pub fn fold(&self, h: &mut Fnv64) {
        h.write_u64(self.t.as_nanos());
        h.write_u8(self.kind.tag());
        match self.kind {
            EventKind::MacTx { node, dst, bytes } => {
                h.write_u32(node.0);
                fold_opt_node(h, dst);
                h.write_u32(bytes);
            }
            EventKind::MacRx { node, from, bytes } => {
                h.write_u32(node.0);
                h.write_u32(from.0);
                h.write_u32(bytes);
            }
            EventKind::MacCollision { node, from } => {
                h.write_u32(node.0);
                h.write_u32(from.0);
            }
            EventKind::MacRetry { node, attempt } => {
                h.write_u32(node.0);
                h.write_u32(attempt);
            }
            EventKind::MacDrop { node, dst } => {
                h.write_u32(node.0);
                fold_opt_node(h, dst);
            }
            EventKind::RadioMode { node, from, to } => {
                h.write_u32(node.0);
                h.write_u8(mode_tag(from));
                h.write_u8(mode_tag(to));
            }
            EventKind::BatteryLevel { node, from, to } => {
                h.write_u32(node.0);
                h.write_u8(level_tag(from));
                h.write_u8(level_tag(to));
            }
            EventKind::GatewayElect { node, cell } | EventKind::GatewayRetire { node, cell } => {
                h.write_u32(node.0);
                fold_cell(h, cell);
            }
            EventKind::RasPage { by, signal } => {
                h.write_u32(by.0);
                match signal {
                    PageSignal::Host(id) => {
                        h.write_u8(0);
                        h.write_u32(id.0);
                    }
                    PageSignal::Grid(c) => {
                        h.write_u8(1);
                        fold_cell(h, c);
                    }
                }
            }
            EventKind::PacketSent { src, flow, seq } => {
                h.write_u32(src.0);
                h.write_u32(flow);
                h.write_u64(seq);
            }
            EventKind::PacketForwarded { node, flow, seq }
            | EventKind::PacketDelivered { node, flow, seq } => {
                h.write_u32(node.0);
                h.write_u32(flow);
                h.write_u64(seq);
            }
            EventKind::NodeDeath { node } => {
                h.write_u32(node.0);
            }
            EventKind::CellChange { node, from, to } => {
                h.write_u32(node.0);
                fold_cell(h, from);
                fold_cell(h, to);
            }
            EventKind::FaultInjected { node, fault } => {
                h.write_u32(node.0);
                h.write_u8(fault.tag());
            }
            EventKind::PageRetry {
                node,
                target,
                attempt,
            } => {
                h.write_u32(node.0);
                h.write_u32(target.0);
                h.write_u32(attempt);
            }
            EventKind::GatewayHandoffTimeout { node, cell } => {
                h.write_u32(node.0);
                fold_cell(h, cell);
            }
        }
    }

    /// One JSONL object.  Time is integer nanoseconds (`t_ns`) so the
    /// rendering is exact and diffable; labels come first, then the
    /// kind-specific fields.  No external JSON dependency is needed — every
    /// emitted value is a number, a plain identifier-like string, or a
    /// two-element int array.
    pub fn to_jsonl(&self, protocol: &str) -> String {
        let mut s = String::with_capacity(128);
        self.write_jsonl(protocol, &mut s);
        s
    }

    /// Append the [`Event::to_jsonl`] object to `out`.  A caller that
    /// renders many events under one label builds a [`JsonRenderer`] once
    /// instead.
    pub fn write_jsonl(&self, protocol: &str, out: &mut String) {
        JsonRenderer::new(protocol).write_object(self, out);
    }

    /// The members after the shared run of the kind: the node and cell
    /// labels, then the kind-specific fields.
    fn write_own_fields(&self, out: &mut String) {
        if let Some(n) = self.kind.node() {
            push_num(out, ",\"node\":", n.0);
        }
        if let Some(c) = self.kind.cell() {
            push_cell(out, ",\"cell\":[", c);
        }
        match self.kind {
            EventKind::MacTx { dst, bytes, .. } => {
                push_dst(out, dst);
                push_num(out, ",\"bytes\":", bytes);
            }
            EventKind::MacRx { from, bytes, .. } => {
                push_num(out, ",\"from\":", from.0);
                push_num(out, ",\"bytes\":", bytes);
            }
            EventKind::MacCollision { from, .. } => push_num(out, ",\"from\":", from.0),
            EventKind::MacRetry { attempt, .. } => push_num(out, ",\"attempt\":", attempt),
            EventKind::MacDrop { dst, .. } => push_dst(out, dst),
            EventKind::RadioMode { from, to, .. } => push_from_to(out, mode_name(from), mode_name(to)),
            EventKind::BatteryLevel { from, to, .. } => push_from_to(out, level_name(from), level_name(to)),
            EventKind::RasPage { signal, .. } => match signal {
                PageSignal::Host(id) => push_num(out, ",\"target_host\":", id.0),
                PageSignal::Grid(c) => push_cell(out, ",\"target_grid\":[", c),
            },
            EventKind::PacketSent { flow, seq, .. }
            | EventKind::PacketForwarded { flow, seq, .. }
            | EventKind::PacketDelivered { flow, seq, .. } => {
                push_num(out, ",\"flow\":", flow);
                push_num(out, ",\"seq\":", seq);
            }
            EventKind::CellChange { from, .. } => push_cell(out, ",\"from_cell\":[", from),
            EventKind::FaultInjected { fault, .. } => {
                out.push_str(",\"fault\":\"");
                out.push_str(fault.name());
                out.push('"');
            }
            EventKind::PageRetry { target, attempt, .. } => {
                push_num(out, ",\"target\":", target.0);
                push_num(out, ",\"attempt\":", attempt);
            }
            EventKind::GatewayElect { .. }
            | EventKind::GatewayRetire { .. }
            | EventKind::GatewayHandoffTimeout { .. }
            | EventKind::NodeDeath { .. } => {}
        }
    }

    /// Convenience: MAC tx from the link-layer frame addressing.
    pub fn mac_tx(t: SimTime, node: NodeId, kind: FrameKind, bytes: u32) -> Event {
        Event {
            t,
            kind: EventKind::MacTx {
                node,
                dst: kind.dst(),
                bytes,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Write as _;

    fn at(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn labels_follow_the_hierarchy() {
        let e = Event {
            t: at(10),
            kind: EventKind::GatewayElect {
                node: NodeId(7),
                cell: GridCoord::new(2, 3),
            },
        };
        let l = e.labels("ECGRID");
        assert_eq!(l.protocol, "ECGRID");
        assert_eq!(l.layer, Layer::Route);
        assert_eq!(l.node, Some(NodeId(7)));
        assert_eq!(l.cell, Some(GridCoord::new(2, 3)));
    }

    /// One event of every kind.
    fn all_kinds() -> Vec<EventKind> {
        vec![
            EventKind::MacTx {
                node: NodeId(0),
                dst: None,
                bytes: 1,
            },
            EventKind::MacRx {
                node: NodeId(0),
                from: NodeId(1),
                bytes: 1,
            },
            EventKind::MacCollision {
                node: NodeId(0),
                from: NodeId(1),
            },
            EventKind::MacRetry {
                node: NodeId(0),
                attempt: 1,
            },
            EventKind::MacDrop {
                node: NodeId(0),
                dst: Some(NodeId(1)),
            },
            EventKind::RadioMode {
                node: NodeId(0),
                from: RadioMode::Idle,
                to: RadioMode::Tx,
            },
            EventKind::BatteryLevel {
                node: NodeId(0),
                from: EnergyLevel::Upper,
                to: EnergyLevel::Boundary,
            },
            EventKind::GatewayElect {
                node: NodeId(0),
                cell: GridCoord::new(0, 0),
            },
            EventKind::GatewayRetire {
                node: NodeId(0),
                cell: GridCoord::new(0, 0),
            },
            EventKind::RasPage {
                by: NodeId(0),
                signal: PageSignal::Host(NodeId(1)),
            },
            EventKind::PacketSent {
                src: NodeId(0),
                flow: 0,
                seq: 0,
            },
            EventKind::PacketForwarded {
                node: NodeId(0),
                flow: 0,
                seq: 0,
            },
            EventKind::PacketDelivered {
                node: NodeId(0),
                flow: 0,
                seq: 0,
            },
            EventKind::NodeDeath { node: NodeId(0) },
            EventKind::CellChange {
                node: NodeId(0),
                from: GridCoord::new(0, 0),
                to: GridCoord::new(0, 1),
            },
            EventKind::FaultInjected {
                node: NodeId(0),
                fault: FaultKind::Crash,
            },
            EventKind::PageRetry {
                node: NodeId(0),
                target: NodeId(1),
                attempt: 1,
            },
            EventKind::GatewayHandoffTimeout {
                node: NodeId(0),
                cell: GridCoord::new(0, 0),
            },
        ]
    }

    /// `to_jsonl` as it was written before `write_jsonl` existed, kept
    /// as the reference the in-place renderer is compared against.
    fn to_jsonl_oracle(e: &Event, protocol: &str) -> String {
        let l = e.labels(protocol);
        let mut s = String::with_capacity(128);
        let _ = write!(
            s,
            "{{\"t_ns\":{},\"kind\":\"{}\",\"layer\":\"{}\",\"protocol\":\"{}\"",
            e.t.as_nanos(),
            e.kind.name(),
            l.layer.name(),
            protocol
        );
        if let Some(n) = l.node {
            let _ = write!(s, ",\"node\":{}", n.0);
        }
        if let Some(c) = l.cell {
            let _ = write!(s, ",\"cell\":[{},{}]", c.x, c.y);
        }
        match e.kind {
            EventKind::MacTx { dst, bytes, .. } => {
                match dst {
                    Some(d) => {
                        let _ = write!(s, ",\"dst\":{}", d.0);
                    }
                    None => s.push_str(",\"dst\":\"*\""),
                }
                let _ = write!(s, ",\"bytes\":{bytes}");
            }
            EventKind::MacRx { from, bytes, .. } => {
                let _ = write!(s, ",\"from\":{},\"bytes\":{}", from.0, bytes);
            }
            EventKind::MacCollision { from, .. } => {
                let _ = write!(s, ",\"from\":{}", from.0);
            }
            EventKind::MacRetry { attempt, .. } => {
                let _ = write!(s, ",\"attempt\":{attempt}");
            }
            EventKind::MacDrop { dst, .. } => match dst {
                Some(d) => {
                    let _ = write!(s, ",\"dst\":{}", d.0);
                }
                None => s.push_str(",\"dst\":\"*\""),
            },
            EventKind::RadioMode { from, to, .. } => {
                let _ = write!(s, ",\"from\":\"{from:?}\",\"to\":\"{to:?}\"");
            }
            EventKind::BatteryLevel { from, to, .. } => {
                let _ = write!(s, ",\"from\":\"{from:?}\",\"to\":\"{to:?}\"");
            }
            EventKind::RasPage { signal, .. } => match signal {
                PageSignal::Host(id) => {
                    let _ = write!(s, ",\"target_host\":{}", id.0);
                }
                PageSignal::Grid(c) => {
                    let _ = write!(s, ",\"target_grid\":[{},{}]", c.x, c.y);
                }
            },
            EventKind::PacketSent { flow, seq, .. }
            | EventKind::PacketForwarded { flow, seq, .. }
            | EventKind::PacketDelivered { flow, seq, .. } => {
                let _ = write!(s, ",\"flow\":{flow},\"seq\":{seq}");
            }
            EventKind::CellChange { from, .. } => {
                let _ = write!(s, ",\"from_cell\":[{},{}]", from.x, from.y);
            }
            EventKind::FaultInjected { fault, .. } => {
                let _ = write!(s, ",\"fault\":\"{}\"", fault.name());
            }
            EventKind::PageRetry { target, attempt, .. } => {
                let _ = write!(s, ",\"target\":{},\"attempt\":{}", target.0, attempt);
            }
            EventKind::GatewayElect { .. }
            | EventKind::GatewayRetire { .. }
            | EventKind::GatewayHandoffTimeout { .. }
            | EventKind::NodeDeath { .. } => {}
        }
        s.push('}');
        s
    }

    #[test]
    fn in_place_renderer_matches_the_formatted_one_byte_for_byte() {
        let far = GridCoord::new(i32::MIN, i32::MAX);
        let mut kinds = all_kinds();
        kinds.extend([
            EventKind::MacTx {
                node: NodeId(u32::MAX),
                dst: Some(NodeId(u32::MAX)),
                bytes: u32::MAX,
            },
            EventKind::MacDrop {
                node: NodeId(9),
                dst: None,
            },
            EventKind::RasPage {
                by: NodeId(4),
                signal: PageSignal::Grid(GridCoord::new(-3, -1)),
            },
            EventKind::CellChange {
                node: NodeId(1),
                from: far,
                to: GridCoord::new(-1, 0),
            },
            EventKind::PacketDelivered {
                node: NodeId(2),
                flow: u32::MAX,
                seq: u64::MAX,
            },
        ]);
        for from in [
            RadioMode::Tx,
            RadioMode::Rx,
            RadioMode::Idle,
            RadioMode::Sleep,
            RadioMode::Off,
        ] {
            kinds.push(EventKind::RadioMode {
                node: NodeId(5),
                from,
                to: RadioMode::Idle,
            });
        }
        for to in [EnergyLevel::Lower, EnergyLevel::Boundary, EnergyLevel::Upper] {
            kinds.push(EventKind::BatteryLevel {
                node: NodeId(5),
                from: EnergyLevel::Upper,
                to,
            });
        }
        for fault in [
            FaultKind::FrameLoss,
            FaultKind::PageLoss,
            FaultKind::Crash,
            FaultKind::Rejoin,
            FaultKind::Drain,
        ] {
            kinds.push(EventKind::FaultInjected {
                node: NodeId(6),
                fault,
            });
        }
        for t in [SimTime::ZERO, at(1500), SimTime::MAX] {
            for &kind in &kinds {
                let e = Event { t, kind };
                assert_eq!(e.to_jsonl("ECGRID"), to_jsonl_oracle(&e, "ECGRID"), "{kind:?}");
                // appending leaves what the buffer already held alone
                let mut buf = String::from("head,");
                e.write_jsonl("GAF", &mut buf);
                assert_eq!(buf, format!("head,{}", to_jsonl_oracle(&e, "GAF")));
            }
        }
    }

    #[test]
    fn integer_writers_match_display() {
        for v in [0, 1, 9, 10, 99, 100, 1_000_000_007, u64::MAX - 1, u64::MAX] {
            let mut s = String::new();
            push_u64(&mut s, v);
            assert_eq!(s, v.to_string());
        }
        for v in [0, -1, 1, -10, i32::MIN as i64, i64::MIN, i64::MAX] {
            let mut s = String::new();
            push_i64(&mut s, v);
            assert_eq!(s, v.to_string());
        }
    }

    #[test]
    fn push_u64_matches_format_at_every_digit_boundary_and_at_random() {
        let mut values = vec![0, 9, 10, 99, 100, u64::MAX];
        for k in 1..20 {
            let p = 10u64.pow(k);
            values.extend([p - 1, p, p + 1]);
        }
        // xorshift64*, spread over every digit count by a random shift
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..100_000 {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            let r = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
            values.push(r >> (r % 64));
        }
        let mut s = String::new();
        for v in values {
            s.clear();
            push_u64(&mut s, v);
            assert_eq!(s, format!("{v}"));
        }
    }

    #[test]
    fn every_kind_has_distinct_tag_and_name() {
        let kinds = all_kinds();
        let mut tags: Vec<u8> = kinds.iter().map(|k| k.tag()).collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), kinds.len(), "tags must be distinct");
        let mut names: Vec<&str> = kinds.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), kinds.len(), "names must be distinct");
    }

    #[test]
    fn jsonl_is_one_flat_object() {
        let e = Event {
            t: SimTime::from_millis(1500),
            kind: EventKind::MacTx {
                node: NodeId(3),
                dst: Some(NodeId(5)),
                bytes: 564,
            },
        };
        let j = e.to_jsonl("GRID");
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"t_ns\":1500000000"));
        assert!(j.contains("\"kind\":\"mac_tx\""));
        assert!(j.contains("\"layer\":\"mac\""));
        assert!(j.contains("\"protocol\":\"GRID\""));
        assert!(j.contains("\"node\":3"));
        assert!(j.contains("\"dst\":5"));
        assert!(!j.contains('\n'));
    }

    #[test]
    fn broadcast_tx_renders_star() {
        let e = Event::mac_tx(at(5), NodeId(0), FrameKind::Broadcast, 72);
        assert!(e.to_jsonl("ECGRID").contains("\"dst\":\"*\""));
    }

    #[test]
    fn digest_encoding_separates_similar_events() {
        // Same fields, different kind tag -> different digest.
        let a = Event {
            t: at(1),
            kind: EventKind::PacketSent {
                src: NodeId(1),
                flow: 2,
                seq: 3,
            },
        };
        let b = Event {
            t: at(1),
            kind: EventKind::PacketDelivered {
                node: NodeId(1),
                flow: 2,
                seq: 3,
            },
        };
        let mut ha = Fnv64::new();
        a.fold(&mut ha);
        let mut hb = Fnv64::new();
        b.fold(&mut hb);
        assert_ne!(ha.finish(), hb.finish());
    }
}
