//! Run budgets: hard ceilings that turn runaway event loops into
//! diagnosable terminations.
//!
//! A bug can run a discrete-event simulation away along two axes the
//! run's end time does not bound: the *event count* (zero-delay cycles,
//! broadcast storms) and *wall-clock time* (each event legitimate but
//! pathologically slow — the axis that matters to a resident service
//! whose worker threads are a shared resource).  Virtual time needs no
//! budget: `run_until(end)` already stops there.  A [`RunBudget`] bounds
//! both; the event loop checks it after every dispatch and stops with a
//! [`BudgetExceeded`] diagnostic instead of hanging the process.  The
//! all-`None` default is free: one `Option` compare per event (the wall
//! axis is only sampled every [`WALL_CHECK_STRIDE`] dispatches, and only
//! when bounded).
//!
//! Unlike the event axis, the wall axis is *not* deterministic: where
//! it trips depends on the host machine.  That is fine for its purpose —
//! a tripped run is a failure to quarantine, never a result to average —
//! and the supervisor treats it exactly like an event-budget trip.

use crate::time::SimTime;
use std::fmt;

/// How many dispatches pass between wall-clock samples.  `Instant::now`
/// is cheap but not free; at a typical ≥ 1M events/s the stride bounds
/// detection latency to well under a millisecond while keeping the hot
/// loop clean.
pub const WALL_CHECK_STRIDE: u64 = 1024;

/// Ceilings for one event loop.  `None` on an axis means unbounded.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunBudget {
    /// Maximum number of dispatched events.
    pub max_events: Option<u64>,
    /// Maximum wall-clock milliseconds a run may consume.  The clock
    /// starts at the run loop's first budget check.
    pub max_wall_ms: Option<u64>,
}

impl RunBudget {
    /// No ceilings on any axis.
    pub const UNLIMITED: RunBudget = RunBudget {
        max_events: None,
        max_wall_ms: None,
    };

    pub fn unlimited() -> Self {
        Self::UNLIMITED
    }

    pub fn with_max_events(mut self, n: u64) -> Self {
        self.max_events = Some(n);
        self
    }

    pub fn with_max_wall_ms(mut self, ms: u64) -> Self {
        self.max_wall_ms = Some(ms);
        self
    }

    /// True when no axis is bounded (the check is then a no-op).
    pub fn is_unlimited(&self) -> bool {
        self.max_events.is_none() && self.max_wall_ms.is_none()
    }

    /// Check `processed` events at virtual time `now` against the
    /// event-count axis.
    #[inline]
    pub fn check(&self, processed: u64, now: SimTime) -> Result<(), BudgetExceeded> {
        if let Some(limit) = self.max_events {
            if processed > limit {
                return Err(BudgetExceeded::Events {
                    limit,
                    processed,
                    at: now,
                });
            }
        }
        Ok(())
    }

    /// Check `elapsed_ms` of wall time against the wall axis.  Called by
    /// the schedulers every [`WALL_CHECK_STRIDE`] dispatches (and only
    /// when the axis is bounded).
    #[inline]
    pub fn check_wall(&self, elapsed_ms: u64, processed: u64, now: SimTime) -> Result<(), BudgetExceeded> {
        match self.max_wall_ms {
            Some(limit_ms) if elapsed_ms > limit_ms => Err(BudgetExceeded::Wall {
                limit_ms,
                elapsed_ms,
                processed,
                at: now,
            }),
            _ => Ok(()),
        }
    }
}

/// Why a budgeted run was cut short.  Carries enough context to tell an
/// event storm (huge `processed` at small `at`) from a run that was
/// merely slow.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BudgetExceeded {
    /// The event-count ceiling was crossed.
    Events { limit: u64, processed: u64, at: SimTime },
    /// The wall-clock ceiling was crossed (non-deterministic by nature:
    /// the trip point depends on the host machine).
    Wall {
        limit_ms: u64,
        elapsed_ms: u64,
        processed: u64,
        at: SimTime,
    },
}

impl fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BudgetExceeded::Events { limit, processed, at } => write!(
                f,
                "event budget exceeded: {processed} events dispatched (limit {limit}) at t={:.3}s",
                at.as_secs_f64()
            ),
            BudgetExceeded::Wall {
                limit_ms,
                elapsed_ms,
                processed,
                at,
            } => write!(
                f,
                "wall-clock budget exceeded: {elapsed_ms} ms elapsed (limit {limit_ms} ms) after \
                 {processed} events at t={:.3}s",
                at.as_secs_f64()
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_trips() {
        let b = RunBudget::unlimited();
        assert!(b.is_unlimited());
        assert!(b.check(u64::MAX, SimTime::MAX).is_ok());
    }

    #[test]
    fn event_ceiling_trips_past_limit() {
        let b = RunBudget::default().with_max_events(10);
        assert!(b.check(10, SimTime::ZERO).is_ok());
        let err = b.check(11, SimTime::from_secs(3)).unwrap_err();
        assert_eq!(
            err,
            BudgetExceeded::Events {
                limit: 10,
                processed: 11,
                at: SimTime::from_secs(3)
            }
        );
    }

    #[test]
    fn wall_ceiling_trips_past_limit() {
        let b = RunBudget::default().with_max_wall_ms(50);
        assert!(!b.is_unlimited());
        assert!(b.check_wall(50, 10, SimTime::ZERO).is_ok());
        let err = b.check_wall(51, 10, SimTime::from_secs(2)).unwrap_err();
        assert_eq!(
            err,
            BudgetExceeded::Wall {
                limit_ms: 50,
                elapsed_ms: 51,
                processed: 10,
                at: SimTime::from_secs(2)
            }
        );
        // the event axis is untouched by the wall axis
        assert!(b.check(u64::MAX, SimTime::MAX).is_ok());
        // an unbounded wall axis never trips
        assert!(RunBudget::default()
            .check_wall(u64::MAX, 0, SimTime::ZERO)
            .is_ok());
    }

    #[test]
    fn display_names_the_axis() {
        let e = RunBudget::default()
            .with_max_events(1)
            .check(2, SimTime::ZERO)
            .unwrap_err();
        assert!(e.to_string().contains("event budget"));
        let w = RunBudget::default()
            .with_max_wall_ms(1)
            .check_wall(2, 0, SimTime::ZERO)
            .unwrap_err();
        assert!(w.to_string().contains("wall-clock budget"));
    }
}
