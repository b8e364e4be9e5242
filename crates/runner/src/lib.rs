//! The experiment harness: builds paper-faithful scenarios, runs them
//! (in parallel across points and seeds with rayon), and prints/saves the
//! series the paper's figures plot.
//!
//! | module | what it owns |
//! |--------|--------------|
//! | [`scenario`] | the §4 configuration and its lowering onto a fleet spec |
//! | [`run`], [`spec_run`] | one run: options, results, and `spec_run::fleet_world`, which builds every world a scenario describes |
//! | [`supervisor`], [`sweep`](mod@sweep) | the replica pipeline: isolation, watchdog, retry, journal, averaging |
//! | [`figures`] | the paper campaign: three matrices, one sweep, Figs. 4–8 as views over it |
//! | [`report`] | tables, ASCII charts, atomic CSV writes |
//! | [`serve`] | the `sweepd` job handler over the same pipeline |
//! | [`cli`] | usage errors and flag walking shared by the binaries |
//!
//! `experiments --fig N` (repeatable; default all of Figs. 4–8) regenerates
//! the figures and writes `results/*.csv`.

pub mod cli;
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
