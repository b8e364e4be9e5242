//! The per-node energy meter: a radio-state integrator over virtual time.

use crate::battery::Battery;
use crate::level::EnergyLevel;
use crate::power::{PowerProfile, RadioMode};
use sim_engine::{share, SimTime};
use std::sync::{Arc, LazyLock};

/// Integrates power draw over time as the radio changes modes.
///
/// ```
/// use energy::{EnergyMeter, RadioMode};
/// use sim_engine::SimTime;
///
/// let mut meter = EnergyMeter::paper_default(); // 500 J, 802.11 + GPS
/// meter.set_mode(SimTime::from_secs(10), RadioMode::Sleep); // 10 s idle...
/// meter.advance(SimTime::from_secs(70));                    // ...60 s asleep
/// // 10 s x 0.863 W + 60 s x 0.163 W
/// assert!((meter.consumed_j() - (8.63 + 9.78)).abs() < 1e-9);
/// assert!(meter.is_alive());
/// ```
///
/// Invariants:
/// * consumed energy is monotonically non-decreasing;
/// * once the battery empties the mode latches to [`RadioMode::Off`];
/// * `advance` is idempotent for the same timestamp.
#[derive(Clone, Debug)]
pub struct EnergyMeter {
    /// Shared by every meter on the same profile (a fleet's hosts mostly
    /// run one of the two paper profiles).
    profile: Arc<PowerProfile>,
    battery: Battery,
    mode: RadioMode,
    /// Draw of the current mode, cached at every mode transition so the
    /// per-event `advance` is a multiply instead of a profile match.  The
    /// cache holds exactly `profile.draw_w(mode)` — the same expression the
    /// integrator used to evaluate inline — so consumption stays
    /// bit-identical (checked by `cached_draw_tracks_mode`).
    draw_w: f64,
    last_update: SimTime,
    audit: EnergyAudit,
}

/// Per-mode breakdown of where a host's time and energy went — the raw
/// material of Fig. 5-style analyses ("how much of the battery did idle
/// listening burn versus transmission?").
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EnergyAudit {
    pub tx_secs: f64,
    pub rx_secs: f64,
    pub idle_secs: f64,
    pub sleep_secs: f64,
    pub tx_j: f64,
    pub rx_j: f64,
    pub idle_j: f64,
    pub sleep_j: f64,
    /// Energy charged outside mode intervals (MAC ACK exchanges).
    pub direct_j: f64,
}

impl EnergyAudit {
    /// Total awake (non-sleep) time.
    pub fn awake_secs(&self) -> f64 {
        self.tx_secs + self.rx_secs + self.idle_secs
    }

    /// Total accounted energy (should match the meter's consumed_j).
    pub fn total_j(&self) -> f64 {
        self.tx_j + self.rx_j + self.idle_j + self.sleep_j + self.direct_j
    }

    fn charge(&mut self, mode: RadioMode, secs: f64, joules: f64) {
        match mode {
            RadioMode::Tx => {
                self.tx_secs += secs;
                self.tx_j += joules;
            }
            RadioMode::Rx => {
                self.rx_secs += secs;
                self.rx_j += joules;
            }
            RadioMode::Idle => {
                self.idle_secs += secs;
                self.idle_j += joules;
            }
            RadioMode::Sleep => {
                self.sleep_secs += secs;
                self.sleep_j += joules;
            }
            RadioMode::Off => {}
        }
    }
}

/// Field-by-field sum: a fleet's or a group's audit from its hosts'.
impl std::ops::AddAssign for EnergyAudit {
    fn add_assign(&mut self, a: EnergyAudit) {
        self.tx_secs += a.tx_secs;
        self.rx_secs += a.rx_secs;
        self.idle_secs += a.idle_secs;
        self.sleep_secs += a.sleep_secs;
        self.tx_j += a.tx_j;
        self.rx_j += a.rx_j;
        self.idle_j += a.idle_j;
        self.sleep_j += a.sleep_j;
        self.direct_j += a.direct_j;
    }
}

impl EnergyMeter {
    pub fn new(profile: PowerProfile, battery: Battery) -> Self {
        static PAPER: LazyLock<Arc<PowerProfile>> = LazyLock::new(|| Arc::new(PowerProfile::paper_default()));
        static PAPER_NO_GPS: LazyLock<Arc<PowerProfile>> =
            LazyLock::new(|| Arc::new(PowerProfile::paper_no_gps()));
        let draw_w = profile.draw_w(RadioMode::Idle);
        let paper = if profile.gps_w == 0.0 {
            &PAPER_NO_GPS
        } else {
            &PAPER
        };
        EnergyMeter {
            profile: share(profile, paper),
            battery,
            mode: RadioMode::Idle,
            draw_w,
            last_update: SimTime::ZERO,
            audit: EnergyAudit::default(),
        }
    }

    /// The paper's evaluation host: 500 J battery, measured 802.11 profile
    /// with GPS, starting idle at t=0.
    pub fn paper_default() -> Self {
        EnergyMeter::new(PowerProfile::paper_default(), Battery::paper_default())
    }

    #[inline]
    pub fn mode(&self) -> RadioMode {
        self.mode
    }

    #[inline]
    pub fn battery(&self) -> &Battery {
        &self.battery
    }

    #[inline]
    pub fn profile(&self) -> &PowerProfile {
        &self.profile
    }

    #[inline]
    pub fn rbrc(&self) -> f64 {
        self.battery.rbrc()
    }

    #[inline]
    pub fn level(&self) -> EnergyLevel {
        EnergyLevel::classify(self.battery.rbrc())
    }

    #[inline]
    pub fn consumed_j(&self) -> f64 {
        self.battery.consumed_j()
    }

    #[inline]
    pub fn remaining_j(&self) -> f64 {
        self.battery.remaining_j()
    }

    #[inline]
    pub fn is_alive(&self) -> bool {
        self.mode.is_alive()
    }

    #[inline]
    pub fn last_update(&self) -> SimTime {
        self.last_update
    }

    /// Per-mode time/energy breakdown accumulated so far.
    #[inline]
    pub fn audit(&self) -> &EnergyAudit {
        &self.audit
    }

    /// Integrate consumption up to `now`.  If the battery empties somewhere
    /// in the interval, the mode latches to `Off` and the overshoot is
    /// clamped (the node was dead for the tail of the interval).
    pub fn advance(&mut self, now: SimTime) {
        debug_assert!(now >= self.last_update, "meter moved backwards");
        let dt = now.since(self.last_update).as_secs_f64();
        self.last_update = now;
        if dt == 0.0 || self.mode == RadioMode::Off {
            return;
        }
        let before = self.battery.consumed_j();
        self.battery.drain(self.draw_w * dt);
        let spent = self.battery.consumed_j() - before;
        self.audit.charge(self.mode, dt, spent);
        if self.battery.is_empty() {
            self.enter_mode(RadioMode::Off);
        }
    }

    /// Switch modes and refresh the cached draw — the only place either
    /// field is written after construction, so they can't desync.
    #[inline]
    fn enter_mode(&mut self, mode: RadioMode) {
        self.mode = mode;
        self.draw_w = self.profile.draw_w(mode);
    }

    /// Integrate up to `now`, then switch to `mode`.  Returns the mode
    /// actually in effect (dead nodes stay `Off` regardless of the request).
    #[inline]
    pub fn set_mode(&mut self, now: SimTime, mode: RadioMode) -> RadioMode {
        self.advance(now);
        if self.mode != RadioMode::Off {
            self.enter_mode(mode);
        }
        self.mode
    }

    /// Integrate up to `now`, then draw `joules` directly (used for
    /// sub-frame exchanges like MAC ACKs that are charged analytically
    /// rather than modelled as mode intervals).
    #[inline]
    pub fn drain_direct(&mut self, now: SimTime, joules: f64) {
        self.advance(now);
        if self.mode == RadioMode::Off {
            return;
        }
        let before = self.battery.consumed_j();
        self.battery.drain(joules.max(0.0));
        self.audit.direct_j += self.battery.consumed_j() - before;
        if self.battery.is_empty() {
            self.enter_mode(RadioMode::Off);
        }
    }

    /// Absolute time at which the battery empties if the current mode
    /// persists; `None` for infinite batteries, dead nodes, or zero draw.
    pub fn predicted_death(&self) -> Option<SimTime> {
        if self.mode == RadioMode::Off {
            return None;
        }
        let secs = self.battery.seconds_until_empty(self.draw_w)?;
        // + last_update because prediction is from the last integration point
        Some(self.last_update + sim_engine::SimDuration::from_secs_f64(secs))
    }

    /// Absolute time at which R_brc crosses down out of its current level
    /// band (the load-balance retirement trigger), if the current mode
    /// persists.
    pub fn predicted_level_drop(&self) -> Option<SimTime> {
        if self.mode == RadioMode::Off || self.battery.is_infinite() {
            return None;
        }
        if self.draw_w <= 0.0 {
            return None;
        }
        let bound = self.level().lower_bound_rbrc();
        let target_consumed = self.battery.capacity_j() * (1.0 - bound);
        let secs = (target_consumed - self.battery.consumed_j()) / self.draw_w;
        if !secs.is_finite() || secs < 0.0 {
            return None;
        }
        Some(self.last_update + sim_engine::SimDuration::from_secs_f64(secs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meter() -> EnergyMeter {
        EnergyMeter::paper_default()
    }

    #[test]
    fn idle_integration() {
        let mut m = meter();
        m.advance(SimTime::from_secs(100));
        // 100 s at 0.863 W
        assert!((m.consumed_j() - 86.3).abs() < 1e-9);
        assert_eq!(m.mode(), RadioMode::Idle);
    }

    #[test]
    fn mode_changes_integrate_piecewise() {
        let mut m = meter();
        m.set_mode(SimTime::from_secs(10), RadioMode::Tx); // 10 s idle
        m.set_mode(SimTime::from_secs(11), RadioMode::Idle); // 1 s tx
        m.advance(SimTime::from_secs(11));
        let expect = 10.0 * (0.83 + 0.033) + 1.0 * (1.4 + 0.033);
        assert!((m.consumed_j() - expect).abs() < 1e-9, "{}", m.consumed_j());
    }

    #[test]
    fn sleep_is_cheap() {
        let mut idle = meter();
        let mut asleep = meter();
        asleep.set_mode(SimTime::ZERO, RadioMode::Sleep);
        idle.advance(SimTime::from_secs(500));
        asleep.advance(SimTime::from_secs(500));
        assert!(idle.consumed_j() > 5.0 * asleep.consumed_j() * 0.9);
    }

    #[test]
    fn death_latches_off() {
        let mut m = meter();
        m.advance(SimTime::from_secs(1000)); // way past 579 s idle lifetime
        assert_eq!(m.mode(), RadioMode::Off);
        assert!(!m.is_alive());
        assert_eq!(m.remaining_j(), 0.0);
        // further requests can't revive it
        assert_eq!(
            m.set_mode(SimTime::from_secs(1001), RadioMode::Idle),
            RadioMode::Off
        );
        let j = m.consumed_j();
        m.advance(SimTime::from_secs(2000));
        assert_eq!(m.consumed_j(), j, "dead node consumed energy");
    }

    #[test]
    fn predicted_death_matches_integration() {
        let mut m = meter();
        let death = m.predicted_death().unwrap();
        assert!((death.as_secs_f64() - 500.0 / 0.863).abs() < 1e-6);
        // advancing exactly to the predicted time kills the node
        m.advance(death + sim_engine::SimDuration::from_nanos(1));
        assert!(!m.is_alive());
    }

    #[test]
    fn predicted_death_shifts_with_consumption() {
        let mut m = meter();
        m.advance(SimTime::from_secs(100));
        let death = m.predicted_death().unwrap();
        let expect = 100.0 + (500.0 - 86.3) / 0.863;
        assert!((death.as_secs_f64() - expect).abs() < 1e-6);
    }

    #[test]
    fn level_transitions() {
        let mut m = meter();
        assert_eq!(m.level(), EnergyLevel::Upper);
        let drop = m.predicted_level_drop().unwrap();
        // Upper->Boundary at rbrc = 0.6 → consumed 200 J at 0.863 W
        assert!((drop.as_secs_f64() - 200.0 / 0.863).abs() < 1e-6);
        m.advance(drop + sim_engine::SimDuration::from_millis(1));
        assert_eq!(m.level(), EnergyLevel::Boundary);
        let drop2 = m.predicted_level_drop().unwrap();
        assert!(drop2 > drop);
        m.advance(drop2 + sim_engine::SimDuration::from_millis(1));
        assert_eq!(m.level(), EnergyLevel::Lower);
    }

    #[test]
    fn infinite_battery_never_predicts_death() {
        let mut m = EnergyMeter::new(PowerProfile::paper_default(), Battery::infinite());
        assert!(m.predicted_death().is_none());
        assert!(m.predicted_level_drop().is_none());
        m.advance(SimTime::from_secs(1_000_000));
        assert!(m.is_alive());
        assert_eq!(m.level(), EnergyLevel::Upper);
    }

    #[test]
    fn audit_accounts_for_every_joule() {
        let mut m = meter();
        m.set_mode(SimTime::from_secs(10), RadioMode::Tx);
        m.set_mode(SimTime::from_secs(12), RadioMode::Rx);
        m.set_mode(SimTime::from_secs(15), RadioMode::Sleep);
        m.advance(SimTime::from_secs(100));
        m.drain_direct(SimTime::from_secs(100), 1.5);
        let a = *m.audit();
        assert!(
            (a.total_j() - m.consumed_j()).abs() < 1e-9,
            "audit {} vs meter {}",
            a.total_j(),
            m.consumed_j()
        );
        assert!((a.idle_secs - 10.0).abs() < 1e-9);
        assert!((a.tx_secs - 2.0).abs() < 1e-9);
        assert!((a.rx_secs - 3.0).abs() < 1e-9);
        assert!((a.sleep_secs - 85.0).abs() < 1e-9);
        assert!((a.direct_j - 1.5).abs() < 1e-9);
        assert!((a.awake_secs() - 15.0).abs() < 1e-9);
    }

    #[test]
    fn audit_stops_at_death() {
        let mut m = meter();
        m.advance(SimTime::from_secs(2000)); // dies at ~579 s
        let a = *m.audit();
        assert!(
            (a.total_j() - 500.0).abs() < 1e-6,
            "all 500 J accounted: {}",
            a.total_j()
        );
        assert!(
            (a.idle_secs - 2000.0).abs() < 1e-9,
            "time integration covers the whole interval"
        );
    }

    #[test]
    fn cached_draw_tracks_mode() {
        let mut m = meter();
        for (t, mode) in [
            (1, RadioMode::Tx),
            (2, RadioMode::Rx),
            (3, RadioMode::Sleep),
            (4, RadioMode::Idle),
        ] {
            m.set_mode(SimTime::from_secs(t), mode);
            assert_eq!(m.draw_w, m.profile.draw_w(m.mode()), "after {mode:?}");
        }
        // the Off latch inside advance() must refresh the cache too
        m.advance(SimTime::from_secs(10_000));
        assert_eq!(m.mode(), RadioMode::Off);
        assert_eq!(m.draw_w, 0.0);
    }

    #[test]
    fn meters_on_a_paper_profile_share_it() {
        let on = |p: PowerProfile| EnergyMeter::new(p, Battery::paper_default()).profile;
        for p in [PowerProfile::paper_default(), PowerProfile::paper_no_gps()] {
            assert!(Arc::ptr_eq(&on(p), &on(p)), "{p:?}");
        }
        let custom = PowerProfile {
            tx_w: 2.0,
            ..PowerProfile::paper_default()
        };
        assert!(!Arc::ptr_eq(&on(custom), &on(custom)));
        assert_eq!(*on(custom), custom);
    }

    #[test]
    fn advance_is_idempotent_at_same_time() {
        let mut m = meter();
        m.advance(SimTime::from_secs(50));
        let j = m.consumed_j();
        m.advance(SimTime::from_secs(50));
        assert_eq!(m.consumed_j(), j);
    }
}
