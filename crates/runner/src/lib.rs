//! The experiment harness: builds paper-faithful scenarios, runs them
//! (in parallel across seeds with rayon), and prints/saves the series the
//! paper's figures plot.
//!
//! One binary per figure regenerates it:
//!
//! | binary | paper figure | metric |
//! |--------|--------------|--------|
//! | `fig4` | Fig. 4(a)(b) | fraction of alive hosts vs time |
//! | `fig5` | Fig. 5(a)(b) | mean energy consumption per host (aen) vs time |
//! | `fig6` | Fig. 6(a)(b) | packet delivery latency vs pause time |
//! | `fig7` | Fig. 7(a)(b) | packet delivery rate vs pause time |
//! | `fig8` | Fig. 8(a)(b) | alive fraction vs time across host densities |
//!
//! `experiments` runs everything and writes `results/*.csv`.

pub mod figures;
pub mod report;
pub mod run;
pub mod scenario;
pub mod serve;
pub mod spec_run;
pub mod supervisor;
pub mod sweep;

pub use report::{render_ascii_chart, render_series_table, write_atomic, write_csv};
pub use run::{
    replica_seed, run_replicas, run_scenario, run_scenario_probed, run_scenario_with, RunOptions,
    ScenarioResult,
};
pub use scenario::{ProtocolKind, Scenario};
pub use serve::{EcgridJobHandler, FleetJob};
pub use spec_run::{run_fleet, run_spec, GroupReport};
pub use supervisor::{
    sweep_supervised, sweep_supervised_with, FailureKind, JournalError, QuarantinedPoint, ReplicaRecord,
    RunFailure, SupervisorConfig, SweepReport,
};
pub use sweep::{average_results, average_results_degraded, sweep, AveragedResult, ReplicaMetrics};
