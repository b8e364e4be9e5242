//! Counter / gauge registry.
//!
//! Names are dotted paths ("mac.tx_started", "app.latency_ms"); storage is
//! `BTreeMap`, so iteration — and therefore any report built from it — is
//! deterministic.  Counters are monotone by construction: the API offers
//! increment only, never decrement or reset.

use std::collections::BTreeMap;

/// The registry: named counters and gauges.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
}

impl Registry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add to a counter (creating it at zero).  Counters only go up.
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Set a gauge to its latest observed value.
    pub fn gauge_set(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// All counters in name order (deterministic).
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// All gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, v)| (k.as_str(), *v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut r = Registry::new();
        assert_eq!(r.counter("mac.tx"), 0);
        r.counter_add("mac.tx", 2);
        r.counter_add("mac.tx", 3);
        assert_eq!(r.counter("mac.tx"), 5);
    }

    #[test]
    fn gauges_keep_latest() {
        let mut r = Registry::new();
        r.gauge_set("alive", 1.0);
        r.gauge_set("alive", 0.7);
        assert_eq!(r.gauge("alive"), Some(0.7));
        assert_eq!(r.gauge("missing"), None);
    }

    #[test]
    fn registry_iteration_is_name_ordered() {
        let mut r = Registry::new();
        r.counter_add("b", 1);
        r.counter_add("a", 1);
        r.counter_add("c", 1);
        let names: Vec<&str> = r.counters().map(|(k, _)| k).collect();
        assert_eq!(names, ["a", "b", "c"]);
    }
}
