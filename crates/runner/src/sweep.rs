//! Replica averaging, and the plain entry point to the sweep pipeline.
//!
//! Averaging is written against the [`ReplicaMetrics`] view rather than
//! [`ScenarioResult`] directly, so the sweep pipeline (which mixes
//! freshly-run replicas with records re-read from a checkpoint journal —
//! see [`crate::supervisor`]) and a caller holding in-memory results
//! average through exactly the same code.

use crate::run::{RunOptions, ScenarioResult};
use crate::scenario::Scenario;
use crate::supervisor::{sweep_supervised, ReplicaRecord, SupervisorConfig};
use metrics::TimeSeries;

/// A scenario's metrics averaged over replicas (seeds).
#[derive(Clone, Debug)]
pub struct AveragedResult {
    pub scenario: Scenario,
    /// Replicas that actually contributed (the *effective* count — under
    /// supervision, failed replicas are quarantined and drop out).
    pub replicas: usize,
    /// Replicas the sweep asked for.  `replicas < replicas_requested`
    /// flags a degraded average: fewer samples, so the `_sd` spreads below
    /// are computed over a smaller population and the mean is noisier.
    pub replicas_requested: usize,
    pub alive: TimeSeries,
    pub aen: TimeSeries,
    pub pdr: Option<f64>,
    pub latency_ms: Option<f64>,
    pub pdr_590: Option<f64>,
    pub latency_ms_590: Option<f64>,
    /// Mean network-death time over replicas where the network died.
    pub network_death_s: Option<f64>,
    /// Replica-to-replica standard deviations (sample sd; `None` with
    /// fewer than two replicas or no data).
    pub pdr_sd: Option<f64>,
    pub latency_sd: Option<f64>,
    pub network_death_sd: Option<f64>,
}

impl AveragedResult {
    /// True when at least one requested replica is missing from the
    /// average.
    pub fn is_degraded(&self) -> bool {
        self.replicas < self.replicas_requested
    }
}

/// The per-replica quantities averaging needs — implemented by the full
/// in-memory [`ScenarioResult`] and by the journal's slimmer records.
pub trait ReplicaMetrics {
    fn scenario(&self) -> &Scenario;
    fn alive(&self) -> &TimeSeries;
    fn aen(&self) -> &TimeSeries;
    fn pdr(&self) -> Option<f64>;
    fn latency_ms(&self) -> Option<f64>;
    fn pdr_590(&self) -> Option<f64>;
    fn latency_ms_590(&self) -> Option<f64>;
    fn network_death_s(&self) -> Option<f64>;
}

/// Both shapes hold the averaged quantities as same-named fields.
macro_rules! replica_metrics_from_fields {
    ($($ty:ty),+) => {$(
        impl ReplicaMetrics for $ty {
            fn scenario(&self) -> &Scenario {
                &self.scenario
            }
            fn alive(&self) -> &TimeSeries {
                &self.alive
            }
            fn aen(&self) -> &TimeSeries {
                &self.aen
            }
            fn pdr(&self) -> Option<f64> {
                self.pdr
            }
            fn latency_ms(&self) -> Option<f64> {
                self.latency_ms
            }
            fn pdr_590(&self) -> Option<f64> {
                self.pdr_590
            }
            fn latency_ms_590(&self) -> Option<f64> {
                self.latency_ms_590
            }
            fn network_death_s(&self) -> Option<f64> {
                self.network_death_s
            }
        }
    )+};
}
replica_metrics_from_fields!(ScenarioResult, ReplicaRecord);

fn mean_opt(xs: impl Iterator<Item = Option<f64>>) -> Option<f64> {
    let v: Vec<f64> = xs.flatten().collect();
    metrics::mean(&v)
}

fn sd_opt(xs: impl Iterator<Item = Option<f64>>) -> Option<f64> {
    let v: Vec<f64> = xs.flatten().collect();
    metrics::stddev(&v)
}

/// Average the per-replica results of ONE scenario (same config, varying
/// seed).  Returns `None` for an empty slice — the "all replicas failed"
/// case a supervised sweep can produce — instead of asserting.  Tolerates
/// replicas with unequal series lengths (a truncated run) by averaging
/// the shared prefix.
pub fn average_results<R: ReplicaMetrics>(results: &[R]) -> Option<AveragedResult> {
    let first = results.first()?;
    let alive: Vec<TimeSeries> = results.iter().map(|r| r.alive().clone()).collect();
    let aen: Vec<TimeSeries> = results.iter().map(|r| r.aen().clone()).collect();
    Some(AveragedResult {
        scenario: *first.scenario(),
        replicas: results.len(),
        replicas_requested: results.len(),
        alive: TimeSeries::mean_of_common(&alive),
        aen: TimeSeries::mean_of_common(&aen),
        pdr: mean_opt(results.iter().map(|r| r.pdr())),
        latency_ms: mean_opt(results.iter().map(|r| r.latency_ms())),
        pdr_590: mean_opt(results.iter().map(|r| r.pdr_590())),
        latency_ms_590: mean_opt(results.iter().map(|r| r.latency_ms_590())),
        network_death_s: mean_opt(results.iter().map(|r| r.network_death_s())),
        pdr_sd: sd_opt(results.iter().map(|r| r.pdr())),
        latency_sd: sd_opt(results.iter().map(|r| r.latency_ms())),
        network_death_sd: sd_opt(results.iter().map(|r| r.network_death_s())),
    })
}

/// [`average_results`] for a group that may have lost replicas: the
/// effective count comes from the slice, the requested count from the
/// sweep.
pub fn average_results_degraded<R: ReplicaMetrics>(
    results: &[R],
    requested: usize,
) -> Option<AveragedResult> {
    let mut avg = average_results(results)?;
    avg.replicas_requested = requested;
    Some(avg)
}

/// Run every (scenario × replica) pair in parallel and average per
/// scenario.  Replica `k` of a scenario uses seed
/// [`replica_seed`](crate::run::replica_seed)`(scenario.seed, k)`, so sweep
/// points with adjacent base seeds never share a replica run.
///
/// This is [`sweep_supervised`] with default options, no journal and no
/// retries (a retry would average a different seed than the caller asked
/// for): a replica that fails — panic or tripped watchdog — fails the
/// call, with the supervisor's post-mortem as the panic message.
pub fn sweep(scenarios: &[Scenario], replicas: usize) -> Vec<AveragedResult> {
    let sup = SupervisorConfig::default().with_max_retries(0);
    let report = sweep_supervised(scenarios, replicas, RunOptions::default(), &sup);
    assert!(report.quarantined.is_empty(), "{}", report.render());
    report.averaged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::run_scenario;
    use crate::scenario::ProtocolKind;

    fn tiny(seed: u64) -> Scenario {
        Scenario {
            protocol: ProtocolKind::Ecgrid,
            n_hosts: 12,
            max_speed: 1.0,
            pause_secs: 0.0,
            n_flows: 2,
            flow_rate_pps: 1.0,
            duration_secs: 30.0,
            seed,
            model1_endpoints: 2,
        }
    }

    #[test]
    fn sweep_runs_replicas_and_averages() {
        let out = sweep(&[tiny(1)], 2);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].replicas, 2);
        assert_eq!(out[0].replicas_requested, 2);
        assert!(!out[0].is_degraded());
        assert!(!out[0].alive.is_empty());
        assert!(out[0].pdr.is_some());
        // with two replicas a spread is defined (may be zero, never NaN)
        if let Some(sd) = out[0].pdr_sd {
            assert!(sd.is_finite() && sd >= 0.0);
        }
    }

    #[test]
    fn single_replica_has_no_spread() {
        let out = sweep(&[tiny(5)], 1);
        assert!(out[0].pdr_sd.is_none());
        assert!(out[0].latency_sd.is_none());
    }

    #[test]
    fn averaging_is_pointwise() {
        let a = run_scenario(&tiny(1));
        let b = run_scenario(&tiny(2));
        let avg = average_results(&[a.clone(), b.clone()]).unwrap();
        let t = avg.alive.points()[0].t_secs;
        let expect = (a.alive.points()[0].value + b.alive.points()[0].value) / 2.0;
        assert_eq!(avg.alive.value_at(t), Some(expect));
    }

    #[test]
    fn empty_group_averages_to_none() {
        assert!(average_results::<ScenarioResult>(&[]).is_none());
    }

    #[test]
    fn dropped_replica_marks_degradation() {
        let a = run_scenario(&tiny(1));
        let avg = average_results_degraded(&[a], 3).unwrap();
        assert_eq!(avg.replicas, 1);
        assert_eq!(avg.replicas_requested, 3);
        assert!(avg.is_degraded());
    }
}
