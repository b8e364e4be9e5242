//! 802.11-style MAC timing and contention constants.
//!
//! The simulator's transmit loop implements CSMA/CA with binary
//! exponential backoff using these constants; this module owns the timing
//! arithmetic so the protocol-visible behaviour (latency floor per hop,
//! ACK turnaround, retry budget) is centralized and testable.  The values
//! follow 802.11 DSSS at 2 Mbps — the Cabletron Roamabout card the
//! paper's energy model was measured on.

use crate::frame::{FrameMeta, ACK_BYTES};
use sim_engine::SimDuration;

/// Channel bit rate (2 Mbps in the paper).
pub const BANDWIDTH_BPS: u64 = 2_000_000;
/// Short interframe space (ACK turnaround).
pub const SIFS: SimDuration = SimDuration::from_micros(10);
/// Distributed interframe space (sensed-idle wait before tx).
pub const DIFS: SimDuration = SimDuration::from_micros(50);
/// Backoff slot length.
pub const SLOT: SimDuration = SimDuration::from_micros(20);
/// Minimum contention window (slots), power of two minus one.
pub const CW_MIN: u32 = 31;
/// Maximum contention window (slots).
pub const CW_MAX: u32 = 1023;
/// Unicast retransmission budget before the frame is dropped.
pub const MAX_RETRIES: u32 = 5;
/// Extra wait for an ACK beyond the ACK airtime before declaring loss.
pub const ACK_TIMEOUT_GUARD: SimDuration = SimDuration::from_micros(60);
/// Contention window (slots) of every broadcast, eight times as many
/// slots as [`CW_MIN`]'s: floods (HELLO beacons, RREQ floods) are
/// triggered by a shared reception, so dozens of hosts would otherwise
/// pick from the same 32 slots and collide — the wide window plays the
/// role of ns-2's AODV broadcast jitter.
pub const BROADCAST_CW: u32 = (CW_MIN + 1) * 8 - 1;

/// Airtime of a frame at [`BANDWIDTH_BPS`].
#[inline]
pub fn airtime(frame: &FrameMeta) -> SimDuration {
    SimDuration::for_bits(frame.wire_bits(), BANDWIDTH_BPS)
}

/// Airtime of an ACK control frame.
#[inline]
pub fn ack_airtime() -> SimDuration {
    SimDuration::for_bits(ACK_BYTES as u64 * 8, BANDWIDTH_BPS)
}

/// How long a unicast sender waits after its frame ends before giving
/// up on the ACK: SIFS + ACK airtime + guard.
#[inline]
pub fn ack_timeout() -> SimDuration {
    SIFS + ack_airtime() + ACK_TIMEOUT_GUARD
}

/// Contention window for the given retry attempt (0 = first try):
/// binary exponential growth capped at [`CW_MAX`].
#[inline]
pub fn cw_for_attempt(attempt: u32) -> u32 {
    let grown = ((CW_MIN as u64 + 1) << attempt.min(16)) - 1;
    grown.min(CW_MAX as u64) as u32
}

/// Backoff duration for `slots` slots.
#[inline]
pub fn backoff(slots: u32) -> SimDuration {
    SLOT * slots as u64
}

/// The minimum per-hop latency of a unicast data frame (idle channel,
/// zero backoff draw): DIFS + airtime (+ propagation, which is ns-scale
/// and folded into the guard).
pub fn min_hop_latency(frame: &FrameMeta) -> SimDuration {
    DIFS + airtime(frame)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{FrameKind, NodeId};

    fn data_frame() -> FrameMeta {
        FrameMeta {
            src: NodeId(0),
            kind: FrameKind::Unicast(NodeId(1)),
            payload_bytes: 512,
        }
    }

    #[test]
    fn airtime_of_512b_data() {
        let t = airtime(&data_frame()).as_millis_f64();
        assert!((2.2..2.3).contains(&t), "{t} ms");
    }

    #[test]
    fn per_hop_latency_floor_matches_paper_scale() {
        // paper reports 7.1–12.5 ms end-to-end over a few grid hops;
        // a single hop must be ~2.3 ms
        let hop = min_hop_latency(&data_frame()).as_millis_f64();
        assert!((2.2..2.5).contains(&hop), "{hop} ms");
        // 4 hops ≈ 9.3 ms — inside the paper's reported band
        assert!((7.0..13.0).contains(&(4.0 * hop)));
    }

    #[test]
    fn contention_window_grows_exponentially_and_caps() {
        assert_eq!(cw_for_attempt(0), 31);
        assert_eq!(cw_for_attempt(1), 63);
        assert_eq!(cw_for_attempt(2), 127);
        assert_eq!(cw_for_attempt(5), 1023);
        assert_eq!(cw_for_attempt(30), 1023);
        assert_eq!(BROADCAST_CW, 255);
    }

    #[test]
    fn ack_timing() {
        let ack = ack_airtime();
        assert!(ack.as_nanos() > 0);
        assert_eq!(ack_timeout(), SIFS + ack + ACK_TIMEOUT_GUARD);
    }

    #[test]
    fn backoff_scales_with_slots() {
        assert_eq!(backoff(0), SimDuration::ZERO);
        assert_eq!(backoff(10), SimDuration::from_micros(200));
    }
}
