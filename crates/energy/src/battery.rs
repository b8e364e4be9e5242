//! Batteries: finite (500 J in the paper's evaluation) or infinite
//! (Model 1's source/destination endpoints for GAF).

/// A battery tracking consumed energy against a capacity.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Battery {
    /// `f64::INFINITY` = infinite energy (Model 1 endpoints).
    capacity_j: f64,
    consumed_j: f64,
}

impl Battery {
    /// Finite battery with the given capacity in joules.
    pub fn with_capacity(capacity_j: f64) -> Self {
        assert!(
            capacity_j > 0.0 && capacity_j.is_finite(),
            "capacity must be positive and finite, got {capacity_j}"
        );
        Battery {
            capacity_j,
            consumed_j: 0.0,
        }
    }

    /// The paper's evaluation battery: 500 J.
    pub fn paper_default() -> Self {
        Battery::with_capacity(500.0)
    }

    /// An infinite battery (never dies, R_brc pinned at 1).
    pub fn infinite() -> Self {
        Battery {
            capacity_j: f64::INFINITY,
            consumed_j: 0.0,
        }
    }

    pub fn is_infinite(&self) -> bool {
        self.capacity_j == f64::INFINITY
    }

    /// Draw `joules` from the battery (clamped at empty, which an
    /// infinite battery never reaches).
    pub fn drain(&mut self, joules: f64) {
        debug_assert!(joules >= 0.0);
        self.consumed_j += joules;
        if self.consumed_j > self.capacity_j {
            self.consumed_j = self.capacity_j;
        }
    }

    /// Total energy consumed so far, in joules.
    #[inline]
    pub fn consumed_j(&self) -> f64 {
        self.consumed_j
    }

    /// Remaining energy; `f64::INFINITY` for infinite batteries.
    #[inline]
    pub fn remaining_j(&self) -> f64 {
        (self.capacity_j - self.consumed_j).max(0.0)
    }

    /// Nominal capacity; `f64::INFINITY` for infinite batteries.
    #[inline]
    pub fn capacity_j(&self) -> f64 {
        self.capacity_j
    }

    /// The paper's R_brc (Eq. 1): remaining / full capacity, in `[0, 1]`.
    /// Infinite batteries report 1.
    #[inline]
    pub fn rbrc(&self) -> f64 {
        if self.is_infinite() {
            return 1.0;
        }
        ((self.capacity_j - self.consumed_j) / self.capacity_j).max(0.0)
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.consumed_j >= self.capacity_j
    }

    /// Seconds until empty at a constant `draw_w` watts; `None` if the
    /// battery never empties (infinite, or zero draw).
    pub fn seconds_until_empty(&self, draw_w: f64) -> Option<f64> {
        if self.is_infinite() || draw_w <= 0.0 {
            return None;
        }
        Some(((self.capacity_j - self.consumed_j) / draw_w).max(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drain_and_rbrc() {
        let mut b = Battery::with_capacity(500.0);
        assert_eq!(b.rbrc(), 1.0);
        b.drain(100.0);
        assert_eq!(b.rbrc(), 0.8);
        assert_eq!(b.remaining_j(), 400.0);
        assert_eq!(b.consumed_j(), 100.0);
        assert!(!b.is_empty());
    }

    #[test]
    fn drain_clamps_at_empty() {
        let mut b = Battery::with_capacity(10.0);
        b.drain(25.0);
        assert!(b.is_empty());
        assert_eq!(b.remaining_j(), 0.0);
        assert_eq!(b.rbrc(), 0.0);
        assert_eq!(b.consumed_j(), 10.0);
    }

    #[test]
    fn infinite_battery_never_dies() {
        let mut b = Battery::infinite();
        b.drain(1e12);
        assert!(!b.is_empty());
        assert_eq!(b.rbrc(), 1.0);
        assert_eq!(b.remaining_j(), f64::INFINITY);
        assert!(b.is_infinite());
        assert!(b.seconds_until_empty(1.0).is_none());
    }

    #[test]
    fn death_prediction_matches_paper_idle_lifetime() {
        // 500 J at idle+GPS (0.863 W) dies at ~579 s — the paper observes
        // the GRID network down at ~590 s
        let b = Battery::paper_default();
        let t = b.seconds_until_empty(0.863).unwrap();
        assert!((t - 579.37).abs() < 0.1, "t = {t}");
    }

    #[test]
    fn zero_draw_never_empties() {
        let b = Battery::with_capacity(1.0);
        assert!(b.seconds_until_empty(0.0).is_none());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        Battery::with_capacity(0.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn an_infinite_capacity_is_not_a_finite_battery() {
        Battery::with_capacity(f64::INFINITY);
    }
}
