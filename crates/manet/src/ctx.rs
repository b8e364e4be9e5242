//! The protocol-facing command interface.
//!
//! A [`Ctx`] is handed to every protocol callback.  Reads (time, own
//! position, battery, …) are served from a snapshot taken when the
//! callback is dispatched; writes are queued as commands and applied by
//! the [`World`](crate::world::World) after the callback returns, in call
//! order.

use crate::protocol::Protocol;
use energy::{EnergyLevel, RadioMode};
use geo::{GridCoord, GridMap, Point2, Vec2};
use mobility::MobilityTrace;
use radio::{FrameKind, NodeId};
use rand::rngs::StdRng;
use sim_engine::{EventHandle, SimDuration, SimTime};

/// An application-layer data packet (one CBR packet).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AppPacket {
    pub flow: u32,
    pub seq: u64,
    /// Payload bytes (512 in the paper's CBR flows).
    pub bytes: u32,
}

impl AppPacket {
    /// The ledger key of this packet.
    pub fn key(&self) -> (u32, u64) {
        (self.flow, self.seq)
    }
}

/// Handle to a pending protocol timer: a `TimerSlab` slot in the low
/// half, the slot's generation when the timer was set in the high half.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TimerId(pub(crate) u64);

struct TimerSlot<T> {
    /// Bumped whenever the slot's timer fires or is cancelled, so ids of
    /// earlier tenants match nothing.
    generation: u32,
    armed: Option<(NodeId, T, EventHandle)>,
}

/// The world's pending protocol timers, addressed by the id their timer
/// event carries: slot lookups instead of a hash map, and a slot universe
/// bounded by the timers pending at once.
pub(crate) struct TimerSlab<T> {
    slots: Vec<TimerSlot<T>>,
    free: Vec<u32>,
}

impl<T> TimerSlab<T> {
    pub(crate) fn new() -> Self {
        TimerSlab {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Claim a slot for a timer about to be armed.
    fn reserve(&mut self) -> TimerId {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push(TimerSlot {
                generation: 0,
                armed: None,
            });
            (self.slots.len() - 1) as u32
        });
        TimerId(u64::from(self.slots[slot as usize].generation) << 32 | u64::from(slot))
    }

    /// Fill the slot `id` reserved.
    pub(crate) fn arm(&mut self, id: TimerId, owner: NodeId, timer: T, handle: EventHandle) {
        let slot = &mut self.slots[id.0 as u32 as usize];
        debug_assert!(slot.generation == (id.0 >> 32) as u32 && slot.armed.is_none());
        slot.armed = Some((owner, timer, handle));
    }

    /// Take the timer `id` names out of the slab, if it is still pending
    /// (`None` once it has fired or been cancelled — the slot may since
    /// have gone to another timer).
    pub(crate) fn disarm(&mut self, id: u64) -> Option<(NodeId, T, EventHandle)> {
        let slot = self.slots.get_mut(id as u32 as usize)?;
        if slot.generation != (id >> 32) as u32 {
            return None;
        }
        let taken = slot.armed.take()?;
        slot.generation = slot.generation.wrapping_add(1);
        self.free.push(id as u32);
        Some(taken)
    }

    /// Take out every pending timer of `owner`, handing each one's
    /// scheduler handle to `cancel`.
    pub(crate) fn disarm_all_of(&mut self, owner: NodeId, mut cancel: impl FnMut(EventHandle)) {
        for i in 0..self.slots.len() {
            let slot = &self.slots[i];
            if slot.armed.as_ref().is_some_and(|(o, _, _)| *o == owner) {
                let id = u64::from(slot.generation) << 32 | i as u64;
                let (_, _, handle) = self.disarm(id).expect("armed under this generation");
                cancel(handle);
            }
        }
    }
}

/// Read-only snapshot of the host's state at dispatch time.
#[derive(Clone, Copy, Debug)]
pub struct NodeView {
    pub now: SimTime,
    pub id: NodeId,
    pub pos: Point2,
    pub vel: Vec2,
    pub cell: GridCoord,
    pub mode: RadioMode,
    pub rbrc: f64,
    pub level: EnergyLevel,
    pub remaining_j: f64,
}

pub(crate) enum Cmd<P: Protocol> {
    Send {
        kind: FrameKind,
        msg: P::Msg,
    },
    Sleep,
    Wake,
    PageHost(NodeId),
    PageGrid(GridCoord),
    SetTimer {
        id: TimerId,
        delay: SimDuration,
        timer: P::Timer,
    },
    DeliverApp(AppPacket),
    /// A structured trace event from the protocol layer (gateway
    /// elections, forwards, …); timestamped and recorded by the world.
    Emit(trace::EventKind),
}

/// The command/query interface a protocol uses during a callback.
pub struct Ctx<'a, P: Protocol> {
    pub(crate) view: NodeView,
    pub(crate) grid: &'a GridMap,
    pub(crate) trace: &'a MobilityTrace,
    pub(crate) rng: &'a mut StdRng,
    pub(crate) timers: &'a mut TimerSlab<P::Timer>,
    pub(crate) cmds: Vec<Cmd<P>>,
    pub(crate) emitting: bool,
}

impl<'a, P: Protocol> Ctx<'a, P> {
    // ----- queries ---------------------------------------------------

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.view.now
    }

    /// This host's id (also its RAS paging sequence).
    #[inline]
    pub fn id(&self) -> NodeId {
        self.view.id
    }

    /// GPS position.
    #[inline]
    pub fn pos(&self) -> Point2 {
        self.view.pos
    }

    /// GPS velocity.
    #[inline]
    pub fn vel(&self) -> Vec2 {
        self.view.vel
    }

    /// The grid cell this host is in.
    #[inline]
    pub fn cell(&self) -> GridCoord {
        self.view.cell
    }

    /// Current radio mode.
    #[inline]
    pub fn mode(&self) -> RadioMode {
        self.view.mode
    }

    /// Ratio of battery remaining capacity (Eq. 1).
    #[inline]
    pub fn rbrc(&self) -> f64 {
        self.view.rbrc
    }

    /// Battery level class (upper/boundary/lower).
    #[inline]
    pub fn level(&self) -> EnergyLevel {
        self.view.level
    }

    /// Remaining battery energy in joules.
    #[inline]
    pub fn remaining_j(&self) -> f64 {
        self.view.remaining_j
    }

    /// The grid partition of the field.
    #[inline]
    pub fn grid(&self) -> &GridMap {
        self.grid
    }

    /// Distance from the host to the center of its current grid — the
    /// `dist` field of the HELLO message.
    pub fn dist_to_center(&self) -> f64 {
        self.view.pos.distance(self.grid.cell_center(self.view.cell))
    }

    /// The dwell-duration estimate of §3.2: how long the host expects to
    /// stay in its current grid, from instantaneous position and velocity,
    /// capped at `horizon_secs`.
    pub fn estimated_dwell_secs(&self, horizon_secs: f64) -> f64 {
        self.trace.estimated_dwell(self.grid, self.view.now, horizon_secs)
    }

    /// Deterministic per-host RNG stream (for jitter and backoff).
    #[inline]
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    // ----- commands ---------------------------------------------------

    /// Queue a frame on the MAC.  If the host is asleep it is woken first
    /// (a host must power its transceiver to transmit, §3.3 ACQ).
    pub fn send(&mut self, kind: FrameKind, msg: P::Msg) {
        self.cmds.push(Cmd::Send { kind, msg });
    }

    /// Convenience: broadcast a message.
    pub fn broadcast(&mut self, msg: P::Msg) {
        self.send(FrameKind::Broadcast, msg);
    }

    /// Convenience: unicast a message.
    pub fn unicast(&mut self, dst: NodeId, msg: P::Msg) {
        self.send(FrameKind::Unicast(dst), msg);
    }

    /// Turn the transceiver off (enter sleep mode).
    pub fn sleep(&mut self) {
        self.cmds.push(Cmd::Sleep);
    }

    /// Turn the transceiver on (enter active/idle mode).
    pub fn wake(&mut self) {
        self.cmds.push(Cmd::Wake);
    }

    /// Send a RAS paging sequence to wake one host.
    pub fn page_host(&mut self, id: NodeId) {
        self.cmds.push(Cmd::PageHost(id));
    }

    /// Send a grid's RAS broadcast sequence to wake everyone in it.
    pub fn page_grid(&mut self, cell: GridCoord) {
        self.cmds.push(Cmd::PageGrid(cell));
    }

    /// Arm a timer `delay` from now.
    pub fn set_timer(&mut self, delay: SimDuration, timer: P::Timer) -> TimerId {
        let id = self.timers.reserve();
        self.cmds.push(Cmd::SetTimer { id, delay, timer });
        id
    }

    /// Arm a timer with fractional-second delay.
    pub fn set_timer_secs(&mut self, delay_secs: f64, timer: P::Timer) -> TimerId {
        self.set_timer(SimDuration::from_secs_f64(delay_secs), timer)
    }

    /// Hand a data packet to this host's application — the packet has
    /// reached its destination (ledger records the delivery).
    pub fn deliver_app(&mut self, packet: AppPacket) {
        self.cmds.push(Cmd::DeliverApp(packet));
    }

    /// Record a structured trace event (no-op unless the world's event
    /// recorder is enabled: the closure never runs, nothing is queued).
    /// Protocols use this for control-plane observables the world cannot
    /// see itself: gateway elections/retirements, packet forwards.
    pub fn emit(&mut self, event: impl FnOnce() -> trace::EventKind) {
        if self.emitting {
            let e = event();
            self.cmds.push(Cmd::Emit(e));
        }
    }
}
