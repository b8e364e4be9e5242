//! The ECGRID glue behind the sweep service: a [`JobHandler`] that turns
//! service job specs into supervised scenario runs.
//!
//! The service crate knows connections, queues and manifests; this
//! module knows simulations.  Each replica runs under the full
//! supervisor stack ([`run_point`]: panic isolation, event/wall
//! watchdogs, bounded retry), streams its trace events to subscribers
//! through the job's hub, and checkpoints its result to the same
//! journal format the batch sweep uses — so batch and service runs of
//! the same (config-hash, seed) are interchangeable, and a drained or
//! crashed service resumes bit for bit: journal-loaded replicas are
//! folded into the average in replica order exactly as fresh ones are.

use crate::run::{replica_seed, RunOptions, ScenarioResult};
use crate::scenario::{ProtocolKind, Scenario};
use crate::spec_run::{representative, run_fleet};
use crate::supervisor::{
    config_hash, encode_line, load_journal_indexed, run_point, ReplicaRecord, SupervisorConfig,
};
use crate::sweep::average_results_degraded;
use manet::progress::ProgressProbe;
use manet::trace::{Fnv64, Registry};
use manet::FaultPlan;
use scenario::ScenarioSpec;
use service::proto::{
    frame_counter, frame_failure, frame_gauge, frame_replica_done, frame_replica_quarantined,
    scenario_hex_decode,
};
use service::{JobCtx, JobHandler, JobOutcome, JobSpec, JobState, ReplicaLookup};
use std::fs;
use std::io::Write as _;
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

/// The production job handler: base run options (backend, engine,
/// budgets) fixed at server start, scenario shape and fault plan taken
/// from each job spec.
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
        let protocol = parse_protocol(&spec.protocol)
            .ok_or_else(|| format!("unknown protocol \"{}\" (grid|ecgrid|gaf|span)", spec.protocol))?;
        if !spec.scenario.is_empty() {
            let text = scenario_hex_decode(&spec.scenario)?;
            let parsed = scenario::parse(&text).map_err(|e| format!("scenario: {e}"))?;
            return Ok(FleetJob::from_file(parsed, protocol));
        }
        if spec.n_hosts == 0 || spec.duration_secs <= 0.0 {
            return Err("n_hosts and duration_secs must be positive".into());
        }
        Ok(FleetJob::classic(Scenario {
            protocol,
            n_hosts: spec.n_hosts as usize,
            max_speed: spec.max_speed,
            pause_secs: spec.pause_secs,
            n_flows: spec.n_flows as usize,
            flow_rate_pps: spec.flow_rate_pps,
            duration_secs: spec.duration_secs,
            seed: spec.seed,
            model1_endpoints: spec.model1_endpoints as usize,
        }))
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
    h.write(format!("{:?}", opts.faults).as_bytes());
    h.write_u8(match opts.trace {
        None => 0,
        Some(manet::trace::TraceMode::DigestOnly) => 1,
        Some(manet::trace::TraceMode::Full) => 2,
    });
    h.finish()
}

fn digest_str(rec: &ReplicaRecord) -> String {
    rec.digest.map(|d| d.to_string()).unwrap_or_default()
}

/// Per-replica metric frames: a small registry snapshot of the result,
/// published in the registry's deterministic iteration order.
fn publish_metrics(ctx: &JobCtx<'_>, replica: u64, res: &ScenarioResult) {
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
    for (name, v) in reg.counters() {
        ctx.hub
            .publish_frame(ctx.job, &frame_counter(ctx.job, replica, name, v));
    }
    for (name, v) in reg.gauges() {
        ctx.hub
            .publish_frame(ctx.job, &frame_gauge(ctx.job, replica, name, v));
    }
}

impl JobHandler for EcgridJobHandler {
    fn config_hash(&self, spec: &JobSpec) -> Result<u64, String> {
        self.key_of(spec).map(|(_, _, cfg)| cfg)
    }

    fn run(&self, spec: &JobSpec, ctx: &JobCtx<'_>) -> JobOutcome {
        let (job, opts, cfg) = match self.key_of(spec) {
            Ok(k) => k,
            Err(e) => {
                // submit validated the spec already; a failure here means
                // the manifest was edited or the handler changed — refuse
                // loudly rather than crash
                return JobOutcome {
                    state: JobState::Quarantined,
                    error: Some(e),
                    ..JobOutcome::interrupted()
                };
            }
        };
        // the supervisor and the replica loop speak classic `Scenario`
        // points: the job's echo shape, reseeded per replica
        let (sc, pname) = (job.echo, job.protocol.name());
        let journal = Self::journal_path(ctx.state_dir);
        let (mut journaled, malformed) = load_journal_indexed(&journal);
        if let Some(dir) = journal.parent() {
            let _ = fs::create_dir_all(dir);
        }
        let mut writer = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&journal)
            .ok();

        let mut records: Vec<ReplicaRecord> = Vec::new();
        let mut digests: Vec<String> = Vec::new();
        let mut from_journal = 0u64;
        let mut quarantined = 0u64;
        let mut interrupted = false;
        for k in 0..spec.replicas {
            // drain point: between replicas, never mid-replica — the
            // current replica always reaches its journal append first
            if ctx.cancelled() {
                interrupted = true;
                break;
            }
            let seed = replica_seed(sc.seed, k);
            let point = Scenario { seed, ..sc };
            if let Some(mut e) = journaled.remove(&(cfg, seed)) {
                e.replica = k; // trust our indexing over the file's
                let rec = e.into_record(point);
                ctx.hub.publish_frame(
                    ctx.job,
                    &frame_replica_done(
                        ctx.job,
                        k,
                        seed,
                        true,
                        Some(&digest_str(&rec)),
                        rec.pdr,
                        rec.latency_ms,
                    ),
                );
                digests.push(digest_str(&rec));
                records.push(rec);
                from_journal += 1;
                continue;
            }
            // fresh replica: run under full supervision, streaming each
            // recorded event to this job's subscribers as it happens
            let runner = |s: &Scenario, o: RunOptions, p: Option<Arc<ProgressProbe>>| {
                let (hub, job_id) = (ctx.hub.clone(), ctx.job);
                let sink: manet::trace::EventSink =
                    Arc::new(move |ev| hub.publish_event(job_id, k, pname, ev));
                job.run(s, o, p, Some(sink))
            };
            let out = run_point(&runner, &point, opts, &self.sup);
            for f in &out.failures {
                ctx.hub
                    .publish_frame(ctx.job, &frame_failure(ctx.job, k, f.attempt, &f.to_string()));
            }
            match out.result {
                Some(res) => {
                    let rec = ReplicaRecord::from_result(k, &res);
                    if let Some(w) = writer.as_mut() {
                        let _ = writeln!(w, "{}", encode_line(cfg, seed, &rec));
                        let _ = w.flush();
                    }
                    publish_metrics(ctx, k, &res);
                    ctx.hub.publish_frame(
                        ctx.job,
                        &frame_replica_done(
                            ctx.job,
                            k,
                            seed,
                            false,
                            Some(&digest_str(&rec)),
                            rec.pdr,
                            rec.latency_ms,
                        ),
                    );
                    digests.push(digest_str(&rec));
                    records.push(rec);
                }
                None => {
                    quarantined += 1;
                    let last = out.failures.last().map(|f| f.to_string()).unwrap_or_default();
                    ctx.hub.publish_frame(
                        ctx.job,
                        &frame_replica_quarantined(ctx.job, k, out.failures.len() as u32, &last),
                    );
                }
            }
        }

        // replicas fold in replica-k order (fresh and journal-loaded
        // alike), so a resumed job averages bit-identically to a fresh one
        records.sort_by_key(|r| r.replica);
        let averaged = average_results_degraded(&records, spec.replicas as usize);
        let state = if interrupted {
            JobState::Interrupted
        } else if records.is_empty() && quarantined > 0 {
            JobState::Quarantined
        } else {
            JobState::Done
        };
        JobOutcome {
            state,
            replicas_done: records.len() as u64,
            from_journal,
            quarantined,
            digests,
            pdr: averaged.as_ref().and_then(|a| a.pdr),
            latency_ms: averaged.as_ref().and_then(|a| a.latency_ms),
            malformed_journal_lines: malformed as u64,
            error: (quarantined > 0).then(|| format!("{quarantined} replica(s) quarantined")),
        }
    }

    fn lookup(&self, state_dir: &Path, config: u64, seed: u64) -> Option<ReplicaLookup> {
        let (index, _) = load_journal_indexed(&Self::journal_path(state_dir));
        index.get(&(config, seed)).map(|e| ReplicaLookup {
            digest: e.digest.map(|d| d.to_string()),
            pdr: e.pdr,
            latency_ms: e.latency_ms,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use service::proto::scenario_hex_encode;

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
            scenario: scenario_hex_encode(text),
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
    fn malformed_scenario_jobs_are_rejected_at_hash_time() {
        let h = EcgridJobHandler::new(RunOptions::default(), SupervisorConfig::default());
        let bad_hex = JobSpec {
            scenario: "abc".into(), // odd length
            ..JobSpec::default()
        };
        assert!(h.config_hash(&bad_hex).is_err());
        let bad_text = spec_job("[scenario]\nbogus = 1\n");
        let err = h.config_hash(&bad_text).unwrap_err();
        assert!(err.contains("scenario:"), "diagnostic names the layer: {err}");
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
            RunOptions::default(),
            SupervisorConfig::default().with_wall_budget_ms(Some(60_000)),
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
