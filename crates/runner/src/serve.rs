//! The ECGRID glue behind the sweep service: a [`JobHandler`] that turns
//! service job specs into supervised scenario runs.
//!
//! The service crate knows connections, queues and manifests; this
//! module knows simulations.  A job is the sequential, drain-aware loop
//! over the replica step the batch sweep runs on rayon
//! (`supervisor::run_replica`: journal hit, else a run under the full
//! supervisor stack, checkpointed), with each replica's trace events
//! streamed to subscribers through the job's hub and each step outcome
//! mapped to frames.  Batch and service runs of the same (config-hash, seed) are
//! therefore interchangeable, and a drained or crashed service resumes
//! bit for bit: `fold_replicas` averages journal-loaded and fresh
//! replicas in replica order alike.

use crate::run::{replica_seed, RunOptions, ScenarioResult};
use crate::scenario::{ProtocolKind, Scenario};
use crate::spec_run::{representative, run_fleet};
use crate::supervisor::{
    config_hash, fold_replicas, fold_run_options, run_replica, Journal, JournalError, Replica, ReplicaRecord,
    RunFailure, SupervisorConfig, SweepReport,
};
use manet::progress::ProgressProbe;
use manet::trace::{Fnv64, Registry};
use manet::FaultPlan;
use scenario::ScenarioSpec;
use service::proto::{
    frame_counter, frame_failure, frame_gauge, frame_replica_done, frame_replica_quarantined,
};
use service::{JobCtx, JobHandler, JobOutcome, JobSpec, JobState, ReplicaLookup};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Parse a protocol by its lowercase CLI name.
pub fn parse_protocol(s: &str) -> Option<ProtocolKind> {
    Some(match s.to_lowercase().as_str() {
        "grid" => ProtocolKind::Grid,
        "ecgrid" => ProtocolKind::Ecgrid,
        "gaf" => ProtocolKind::Gaf,
        "span" => ProtocolKind::Span,
        _ => return None,
    })
}

/// Replicas one job may ask for: a job is one sweep point, its replicas
/// run in turn on one worker with every record held until the fold.  The
/// paper campaign averages 3 seeds per point and the chaos suite 2.
const MAX_JOB_REPLICAS: u64 = 256;

/// The production job handler: base run options (trace mode, budgets)
/// fixed at server start, scenario shape and fault plan taken from each
/// job spec.
pub struct EcgridJobHandler {
    opts: RunOptions,
    sup: SupervisorConfig,
}

impl EcgridJobHandler {
    pub fn new(opts: RunOptions, sup: SupervisorConfig) -> Self {
        EcgridJobHandler { opts, sup }
    }

    /// The shared checkpoint journal under the service state dir.
    pub fn journal_path(state_dir: &Path) -> PathBuf {
        state_dir.join("journal.jsonl")
    }

    fn job_of(spec: &JobSpec) -> Result<FleetJob, String> {
        if spec.replicas > MAX_JOB_REPLICAS {
            return Err(format!(
                "replicas: {} is past the {MAX_JOB_REPLICAS} a job may ask for",
                spec.replicas
            ));
        }
        let protocol = parse_protocol(&spec.protocol)
            .ok_or_else(|| format!("unknown protocol \"{}\" (grid|ecgrid|gaf|span)", spec.protocol))?;
        if !spec.scenario.is_empty() {
            let parsed = scenario::parse(&spec.scenario).map_err(|e| format!("scenario: {e}"))?;
            return Ok(FleetJob::from_file(parsed, protocol));
        }
        let sc = Scenario {
            protocol,
            n_hosts: spec.n_hosts as usize,
            max_speed: spec.max_speed,
            pause_secs: spec.pause_secs,
            n_flows: spec.n_flows as usize,
            flow_rate_pps: spec.flow_rate_pps,
            duration_secs: spec.duration_secs,
            seed: spec.seed,
            model1_endpoints: spec.model1_endpoints as usize,
        };
        sc.check_bounds()?;
        Ok(FleetJob::classic(sc))
    }

    /// Effective run options for a job: the server's base options with
    /// the spec's fault plan, and tracing forced on (streaming and the
    /// digest both need a recorder).  Deterministic, so the config hash
    /// computed from these options is stable across submit / run /
    /// restart.
    fn opts_of(&self, spec: &JobSpec) -> Result<RunOptions, String> {
        let mut opts = self.opts;
        if !spec.faults.is_empty() {
            opts.faults = FaultPlan::parse(&spec.faults).map_err(|e| format!("faults: {e}"))?;
        }
        if opts.trace.is_none() {
            opts.trace = Some(manet::trace::TraceMode::DigestOnly);
        }
        Ok(opts)
    }

    fn key_of(&self, spec: &JobSpec) -> Result<(FleetJob, RunOptions, u64), String> {
        let job = Self::job_of(spec)?;
        let opts = self.opts_of(spec)?;
        let cfg = job.config_hash(&opts);
        Ok((job, opts, cfg))
    }
}

/// One fleet bound to a protocol, in the supervisor's vocabulary.  Every
/// job — the classic scalar shape or a parsed scenario file — is a
/// [`ScenarioSpec`] by the time it runs; what differs is only how its
/// results are labelled and how its journal key is derived.
pub struct FleetJob {
    fleet: ScenarioSpec,
    protocol: ProtocolKind,
    /// The `Scenario` point the supervisor, failure records and results
    /// echo: the classic scenario itself, or a scenario file's
    /// representative shape.
    pub echo: Scenario,
    /// Lowered from a classic `Scenario` (results carry no per-group
    /// rollup, the journal key is [`config_hash`]).
    classic: bool,
}

impl FleetJob {
    pub fn classic(sc: Scenario) -> Self {
        FleetJob {
            fleet: sc.to_spec(),
            protocol: sc.protocol,
            echo: sc,
            classic: true,
        }
    }

    pub fn from_file(fleet: ScenarioSpec, protocol: ProtocolKind) -> Self {
        FleetJob {
            echo: representative(&fleet, protocol),
            fleet,
            protocol,
            classic: false,
        }
    }

    /// The journal config key (with a seed, the resume key).
    pub fn config_hash(&self, opts: &RunOptions) -> u64 {
        if self.classic {
            config_hash(&self.echo, opts)
        } else {
            spec_config_hash(&self.fleet, self.protocol, opts)
        }
    }

    /// Run the fleet at `point`'s seed — the supervisor varies only the
    /// seed between replicas and retries, so that is all that is bound
    /// back onto the fleet.  Shaped to sit inside a
    /// [`crate::supervisor::ScenarioRunner`] closure.
    pub fn run(
        &self,
        point: &Scenario,
        opts: RunOptions,
        probe: Option<Arc<ProgressProbe>>,
        sink: Option<manet::trace::EventSink>,
    ) -> ScenarioResult {
        let fleet = ScenarioSpec {
            seed: point.seed,
            ..self.fleet.clone()
        };
        let res = run_fleet(&fleet, self.protocol, opts, probe, sink);
        if self.classic {
            res.into_classic(point)
        } else {
            res
        }
    }
}

/// [`config_hash`] analogue for scenario-file jobs: the canonical
/// re-emitted scenario text with the seed forced to zero (replicas of
/// the same scenario must share a config, exactly like classic jobs),
/// plus the protocol, fault plan, and trace mode.
fn spec_config_hash(sp: &ScenarioSpec, protocol: ProtocolKind, opts: &RunOptions) -> u64 {
    let mut seedless = sp.clone();
    seedless.seed = 0;
    let mut h = Fnv64::new();
    h.write(b"scenario-file\n");
    h.write(protocol.name().as_bytes());
    h.write(seedless.to_text().as_bytes());
    fold_run_options(&mut h, opts);
    h.finish()
}

fn digest_str(rec: &ReplicaRecord) -> String {
    rec.digest.map(|d| d.to_string()).unwrap_or_default()
}

/// Per-replica metric frames: a small registry snapshot of the result, in
/// the registry's deterministic iteration order (counters, then gauges).
fn metric_frames(job: u64, replica: u64, res: &ScenarioResult) -> Vec<String> {
    let mut reg = Registry::new();
    reg.counter_add("app.sent", res.ledger.sent_count());
    reg.counter_add("app.delivered", res.ledger.delivered_count());
    if let Some(r) = &res.recorder {
        reg.counter_add("trace.events", r.count());
    }
    if let Some(p) = res.pdr {
        reg.gauge_set("app.pdr", p);
    }
    if let Some(l) = res.latency_ms {
        reg.gauge_set("app.latency_ms", l);
    }
    if let Some(d) = res.network_death_s {
        reg.gauge_set("energy.network_death_s", d);
    }
    // scenario-file jobs label metrics by group so subscribers can tell
    // relay exhaustion from endpoint behaviour
    for g in &res.groups {
        reg.counter_add(&format!("group.{}.sent", g.name), g.sent);
        reg.counter_add(&format!("group.{}.delivered", g.name), g.delivered);
        reg.gauge_set(
            &format!("group.{}.alive_fraction", g.name),
            g.stats.alive_fraction(),
        );
        reg.gauge_set(&format!("group.{}.aen", g.name), g.stats.aen());
    }
    let counters = reg
        .counters()
        .map(|(name, v)| frame_counter(job, replica, name, v));
    let gauges = reg.gauges().map(|(name, v)| frame_gauge(job, replica, name, v));
    counters.chain(gauges).collect()
}

impl JobHandler for EcgridJobHandler {
    fn config_hash(&self, spec: &JobSpec) -> Result<u64, String> {
        self.key_of(spec).map(|(_, _, cfg)| cfg)
    }

    fn run(&self, spec: &JobSpec, ctx: &JobCtx<'_>) -> JobOutcome {
        // a job that cannot start ends with its reason, not a crash: the
        // spec no longer validates (submit did check it: the manifest was
        // edited or the handler changed), or the journal cannot be opened
        let refused = |error: String| JobOutcome {
            state: JobState::Quarantined,
            error: Some(error),
            ..JobOutcome::interrupted()
        };
        let (job, opts, cfg) = match self.key_of(spec) {
            Ok(k) => k,
            Err(e) => return refused(e),
        };
        let path = Self::journal_path(ctx.state_dir);
        let journal = match Journal::open(&path) {
            Ok(j) => j,
            Err(e) => return refused(JournalError::new(&path, &e).to_string()),
        };
        // the supervisor and the replica loop speak classic `Scenario`
        // points: the job's echo shape, reseeded per replica
        let (sc, pname) = (job.echo, job.protocol.name());
        let point = (cfg, sc);
        let publish = |frame: String| ctx.hub.publish_frame(ctx.job, &frame);
        let publish_failures = |k: u64, failures: &[RunFailure]| {
            for f in failures {
                publish(frame_failure(ctx.job, k, f.attempt, &f.to_string()));
            }
        };
        let replica_done = |rec: &ReplicaRecord, from_journal: bool| {
            frame_replica_done(
                ctx.job,
                rec.replica,
                replica_seed(sc.seed, rec.replica),
                from_journal,
                Some(&digest_str(rec)),
                rec.pdr,
                rec.latency_ms,
            )
        };

        let mut records: Vec<ReplicaRecord> = Vec::new();
        let mut report = SweepReport::default();
        let mut interrupted = false;
        for k in 0..spec.replicas {
            // drain point: between replicas, never mid-replica — the
            // current replica always reaches its journal append first
            if ctx.cancelled() {
                interrupted = true;
                break;
            }
            // a fresh replica streams its recorded events to this job's
            // subscribers as it runs, a chunk at a time; the world hands
            // over the last chunk before the run returns, so they precede
            // the replica's metric and `replica_done` frames
            let runner = |s: &Scenario, o: RunOptions, p: Option<Arc<ProgressProbe>>| {
                let (hub, job_id) = (ctx.hub.clone(), ctx.job);
                let sink: manet::trace::EventSink =
                    Arc::new(move |evs| hub.publish_events(job_id, k, pname, evs));
                job.run(s, o, p, Some(sink))
            };
            // the full result is the step's to drop: what a fresh replica
            // leaves here is its frames
            let mut metrics = Vec::new();
            let inspect = |res: &ScenarioResult| metrics = metric_frames(ctx.job, k, res);
            let step = run_replica(&runner, Some(&journal), &point, k, opts, &self.sup, inspect);
            match &step {
                Replica::Journaled(rec) => publish(replica_done(rec, true)),
                Replica::Fresh { record, failures, .. } => {
                    publish_failures(k, failures);
                    metrics.into_iter().for_each(publish);
                    publish(replica_done(record, false));
                }
                Replica::Quarantined(failures) => {
                    publish_failures(k, failures);
                    let last = failures.last().map(|f| f.to_string()).unwrap_or_default();
                    publish(frame_replica_quarantined(
                        ctx.job,
                        k,
                        failures.len() as u32,
                        &last,
                    ));
                }
            }
            records.extend(report.tally(&sc, k, step));
        }

        // the journal lines reach the disk before the server records the
        // outcome durably in the job's terminal manifest
        let appended = report.completed > report.append_errors.len();
        let unsynced = appended.then(|| journal.sync().err()).flatten();
        let averaged = fold_replicas(&mut records, spec.replicas as usize);
        let quarantined = report.quarantined.len() as u64;
        let state = if interrupted {
            JobState::Interrupted
        } else if records.is_empty() && quarantined > 0 {
            JobState::Quarantined
        } else {
            JobState::Done
        };
        let problems: Vec<String> = (quarantined > 0)
            .then(|| format!("{quarantined} replica(s) quarantined"))
            .into_iter()
            .chain(report.unjournaled_note())
            .chain(unsynced.map(|e| format!("replicas checkpointed but not synced: {e}")))
            .collect();
        JobOutcome {
            state,
            replicas_done: records.len() as u64,
            from_journal: report.from_journal as u64,
            quarantined,
            digests: records.iter().map(digest_str).collect(),
            pdr: averaged.as_ref().and_then(|a| a.pdr),
            latency_ms: averaged.as_ref().and_then(|a| a.latency_ms),
            malformed_journal_lines: journal.anomalies() as u64,
            error: (!problems.is_empty()).then(|| problems.join("; ")),
        }
    }

    fn lookup(&self, state_dir: &Path, config: u64, seed: u64) -> Option<ReplicaLookup> {
        // a read must not create the journal, nor need write access to it
        let (mut index, _) = Journal::read(&Self::journal_path(state_dir)).ok()?;
        let e = index.remove(&(config, seed))?;
        Some(ReplicaLookup {
            digest: e.digest.map(|d| d.to_string()),
            pdr: e.pdr,
            latency_ms: e.latency_ms,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC_TEXT: &str = r#"
[scenario]
name = "svc"
duration_s = 10
seed = 7

[[group]]
name = "walkers"
count = 12
mobility = "waypoint"
max_speed = 1.0

[traffic]
flows = 2
rate_pps = 1.0
"#;

    fn spec_job(text: &str) -> JobSpec {
        JobSpec {
            scenario: text.into(),
            ..JobSpec::default()
        }
    }

    #[test]
    fn scenario_jobs_get_their_own_stable_config_hash() {
        let h = EcgridJobHandler::new(RunOptions::default(), SupervisorConfig::default());
        let a = h.config_hash(&spec_job(SPEC_TEXT)).unwrap();
        assert_eq!(a, h.config_hash(&spec_job(SPEC_TEXT)).unwrap());
        // distinct from the classic job carrying the same scalar fields
        assert_ne!(a, h.config_hash(&JobSpec::default()).unwrap());
        // the base seed is replica identity, not config identity —
        // reseeded submissions share the journal like classic jobs do
        let reseeded = SPEC_TEXT.replace("seed = 7", "seed = 8");
        assert_eq!(a, h.config_hash(&spec_job(&reseeded)).unwrap());
        // the fleet shape and the protocol both are config identity
        let bigger = SPEC_TEXT.replace("count = 12", "count = 13");
        assert_ne!(a, h.config_hash(&spec_job(&bigger)).unwrap());
        let gaf = JobSpec {
            protocol: "gaf".into(),
            ..spec_job(SPEC_TEXT)
        };
        assert_ne!(a, h.config_hash(&gaf).unwrap());
    }

    #[test]
    fn the_scenario_file_journal_key_is_pinned() {
        // Folds the fault plan's `Debug` form like the classic key (see
        // `supervisor`'s pin): a `FaultPlan` field change re-keys every
        // journal, and a deliberate re-key updates both pins.
        let spec = scenario::parse(SPEC_TEXT).unwrap();
        let key = spec_config_hash(&spec, ProtocolKind::Ecgrid, &RunOptions::default());
        assert_eq!(key, 0x4bd9_2daf_b9af_76b6);
    }

    #[test]
    fn malformed_scenario_jobs_are_rejected_at_hash_time() {
        let h = EcgridJobHandler::new(RunOptions::default(), SupervisorConfig::default());
        // the version-1 wire carried the text hex-encoded: such a job is
        // refused by the scenario parser, never decoded
        let hex = SPEC_TEXT.bytes().map(|b| format!("{b:02x}")).collect::<String>();
        for bad in [spec_job("[scenario]\nbogus = 1\n"), spec_job(&hex)] {
            let err = h.config_hash(&bad).unwrap_err();
            assert!(err.starts_with("scenario:"), "diagnostic names the layer: {err}");
        }
    }

    #[test]
    fn a_result_lookup_on_a_fresh_state_dir_finds_nothing_and_leaves_nothing_behind() {
        let h = EcgridJobHandler::new(RunOptions::default(), SupervisorConfig::default());
        let dir = std::env::temp_dir().join(format!("ecgrid_lookup_fresh_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        assert!(h.lookup(&dir, 1, 2).is_none());
        assert!(!dir.exists(), "a read-only request created {}", dir.display());
    }

    #[test]
    fn more_replicas_than_a_job_may_ask_for_are_rejected_at_hash_time() {
        let h = EcgridJobHandler::new(RunOptions::default(), SupervisorConfig::default());
        let at = |replicas| JobSpec {
            replicas,
            ..JobSpec::default()
        };
        assert!(h.config_hash(&at(MAX_JOB_REPLICAS)).is_ok());
        for spec in [
            at(MAX_JOB_REPLICAS + 1),
            at(u64::MAX),
            JobSpec {
                replicas: u64::MAX,
                ..spec_job(SPEC_TEXT)
            },
        ] {
            let err = h.config_hash(&spec).unwrap_err();
            assert!(err.starts_with("replicas: "), "{err}");
        }
    }

    #[test]
    fn protocol_names_parse_case_insensitively() {
        assert_eq!(parse_protocol("ECGRID"), Some(ProtocolKind::Ecgrid));
        assert_eq!(parse_protocol("grid"), Some(ProtocolKind::Grid));
        assert_eq!(parse_protocol("Span"), Some(ProtocolKind::Span));
        assert_eq!(parse_protocol("aodv"), None);
    }

    #[test]
    fn config_hash_is_stable_across_handler_instances() {
        let spec = JobSpec::default();
        let a = EcgridJobHandler::new(RunOptions::default(), SupervisorConfig::default());
        let b = EcgridJobHandler::new(RunOptions::default(), SupervisorConfig::default());
        assert_eq!(a.config_hash(&spec).unwrap(), b.config_hash(&spec).unwrap());
        // budgets are watchdogs, not result identity: they must not
        // perturb the resume key
        let c = EcgridJobHandler::new(
            RunOptions::default().with_wall_budget_ms(Some(60_000)),
            SupervisorConfig::default(),
        );
        assert_eq!(a.config_hash(&spec).unwrap(), c.config_hash(&spec).unwrap());
    }

    #[test]
    fn bad_specs_are_rejected_at_hash_time() {
        let h = EcgridJobHandler::new(RunOptions::default(), SupervisorConfig::default());
        let bad_proto = JobSpec {
            protocol: "aodv".into(),
            ..JobSpec::default()
        };
        assert!(h.config_hash(&bad_proto).is_err());
        let bad_faults = JobSpec {
            faults: "loss=banana".into(),
            ..JobSpec::default()
        };
        assert!(h.config_hash(&bad_faults).is_err());
        let zero_hosts = JobSpec {
            n_hosts: 0,
            ..JobSpec::default()
        };
        assert!(h.config_hash(&zero_hosts).is_err());
    }
}
