//! Loss accounting for lossy delivery paths.
//!
//! The sweep service's subscriber buffers are bounded: when a consumer
//! falls behind, frames are dropped rather than letting backpressure
//! reach the simulation worker.  Dropping silently would make "I saw
//! every event" an unfalsifiable claim, so every lossy edge carries a
//! [`DropCounter`] — delivered and dropped totals that the service
//! reports per subscriber and in aggregate.

use std::sync::atomic::{AtomicU64, Ordering};

/// Delivered/dropped totals for one lossy edge.  All operations are
/// `Relaxed` atomics: the counter is an accounting side channel shared
/// between producer and consumer threads, not a synchronization point.
#[derive(Debug, Default)]
pub struct DropCounter {
    delivered: AtomicU64,
    dropped: AtomicU64,
}

/// A snapshot of one [`DropCounter`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DropStats {
    pub delivered: u64,
    pub dropped: u64,
}

impl DropStats {
    /// Frames the producer offered (delivered + dropped).
    pub fn offered(&self) -> u64 {
        self.delivered + self.dropped
    }

    /// Fraction of offered frames that were dropped (0 when nothing was
    /// offered).
    pub fn loss_rate(&self) -> f64 {
        let offered = self.offered();
        if offered == 0 {
            0.0
        } else {
            self.dropped as f64 / offered as f64
        }
    }
}

impl DropCounter {
    pub fn new() -> Self {
        Self::default()
    }

    /// `delivered` frames made it into the consumer's buffer and
    /// `dropped` were turned away because it was full: one batch of
    /// offers, counted at once.
    #[inline]
    pub fn note(&self, delivered: u64, dropped: u64) {
        if delivered > 0 {
            self.delivered.fetch_add(delivered, Ordering::Relaxed);
        }
        if dropped > 0 {
            self.dropped.fetch_add(dropped, Ordering::Relaxed);
        }
    }

    pub fn delivered(&self) -> u64 {
        self.delivered.load(Ordering::Relaxed)
    }

    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    pub fn snapshot(&self) -> DropStats {
        DropStats {
            delivered: self.delivered(),
            dropped: self.dropped(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_accumulate_independently() {
        let c = DropCounter::new();
        c.note(2, 0);
        c.note(0, 1);
        let s = c.snapshot();
        assert_eq!(
            s,
            DropStats {
                delivered: 2,
                dropped: 1
            }
        );
        assert_eq!(s.offered(), 3);
        assert!((s.loss_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_counter_has_zero_loss() {
        let s = DropCounter::new().snapshot();
        assert_eq!(s.offered(), 0);
        assert_eq!(s.loss_rate(), 0.0);
    }

    #[test]
    fn shared_across_threads() {
        let c = std::sync::Arc::new(DropCounter::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let c = c.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    c.note(1, 0);
                }
                c.note(0, 1);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.delivered(), 4000);
        assert_eq!(c.dropped(), 4);
    }
}
