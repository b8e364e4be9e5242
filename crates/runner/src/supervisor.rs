//! Sweep supervision: panic isolation, runaway watchdogs, bounded retry
//! with quarantine, and a journaled checkpoint/resume protocol.
//!
//! A paper-scale sweep is hours of (scenario × replica) jobs; this module
//! makes the harness survive its own failures the way the protocols under
//! test must survive theirs:
//!
//! * **Isolation** — every replica runs under `catch_unwind`, so one
//!   panicking job becomes a structured [`RunFailure`] instead of
//!   poisoning the whole rayon sweep.
//! * **Watchdog** — replicas run with the supervisor's event budget; an
//!   event storm terminates with a `BudgetExceeded` failure rather than
//!   hanging CI (see `sim_engine::RunBudget`).
//! * **Retry + quarantine** — a failed point retries up to
//!   [`SupervisorConfig::max_retries`] times on re-derived seeds (each
//!   attempted seed is preserved in its failure record for replay); points
//!   that never succeed land on the [`SweepReport::quarantined`] list, and
//!   the surviving replicas still average.
//! * **Checkpoint/resume** — an append-only JSONL journal keyed by
//!   (config hash, seed) records every completed replica's metrics and
//!   trace digest with bit-exact float encoding, so a resumed sweep skips
//!   finished work and reproduces the fresh run's [`AveragedResult`]s
//!   bit for bit.

use crate::run::{replica_seed, run_scenario_probed, RunOptions, ScenarioResult};
use crate::scenario::Scenario;
use crate::sweep::{average_results_degraded, AveragedResult, ReplicaMetrics};
use manet::progress::ProgressProbe;
use manet::trace::{Fnv64, TraceDigest};
use metrics::TimeSeries;
use rayon::prelude::*;
use service::json::{self, Obj};
use sim_engine::{derive_seed, BudgetExceeded};
use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Supervision knobs, orthogonal to [`RunOptions`].
#[derive(Clone, Debug)]
pub struct SupervisorConfig {
    /// Retry attempts after the first failure of a point (0 = fail fast).
    /// Retries run on re-derived seeds — replaying the same seed of a
    /// deterministic simulation would fail identically.
    pub max_retries: u32,
    /// Watchdog ceiling on dispatched events per replica; overrides
    /// `RunOptions::event_budget` when set.
    pub event_budget: Option<u64>,
    /// Watchdog ceiling on wall-clock milliseconds per replica; overrides
    /// `RunOptions::wall_budget_ms` when set.  Unlike the event budget
    /// this axis is non-deterministic (host-dependent), so a tripped run
    /// is quarantined, never averaged.
    pub wall_budget_ms: Option<u64>,
    /// Checkpoint journal path.  `None` disables journaling.
    pub journal: Option<PathBuf>,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            max_retries: 2,
            event_budget: None,
            wall_budget_ms: None,
            journal: None,
        }
    }
}

impl SupervisorConfig {
    pub fn with_max_retries(mut self, n: u32) -> Self {
        self.max_retries = n;
        self
    }

    pub fn with_event_budget(mut self, n: Option<u64>) -> Self {
        self.event_budget = n;
        self
    }

    pub fn with_wall_budget_ms(mut self, ms: Option<u64>) -> Self {
        self.wall_budget_ms = ms;
        self
    }

    pub fn with_journal(mut self, path: impl Into<PathBuf>) -> Self {
        self.journal = Some(path.into());
        self
    }

    /// Fold the supervisor's watchdog ceilings into a run's options (the
    /// supervisor's settings win where both are present).
    pub fn apply_budgets(&self, opts: RunOptions) -> RunOptions {
        opts.with_event_budget(self.event_budget.or(opts.event_budget))
            .with_wall_budget_ms(self.wall_budget_ms.or(opts.wall_budget_ms))
    }
}

/// Why one attempt of one replica failed.
#[derive(Clone, Debug)]
pub enum FailureKind {
    /// The job panicked; the payload message is preserved.
    Panic(String),
    /// The watchdog cut the run short.
    Budget(BudgetExceeded),
}

/// Post-mortem of one failed attempt.  `seed` is the seed this attempt
/// actually ran (for retries, the re-derived one), so
/// `run_one --seed <seed>` replays the failure exactly; the progress
/// fields come from the [`ProgressProbe`], which outlives the crashed
/// world.
#[derive(Clone, Debug)]
pub struct RunFailure {
    pub scenario: Scenario,
    pub seed: u64,
    /// 0 = first try, n = n-th retry.
    pub attempt: u32,
    pub kind: FailureKind,
    /// Events the run had dispatched when it died.
    pub events_processed: u64,
    /// Virtual time the run had reached when it died.
    pub virtual_time_s: f64,
    /// Trace digest as of the last completed sample window, for bisecting
    /// the crash against a healthy replay.
    pub partial_digest: Option<TraceDigest>,
}

impl RunFailure {
    /// The panic payload, when the failure was a panic.
    pub fn panic_msg(&self) -> Option<&str> {
        match &self.kind {
            FailureKind::Panic(msg) => Some(msg),
            FailureKind::Budget(_) => None,
        }
    }
}

impl fmt::Display for RunFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let what = match &self.kind {
            FailureKind::Panic(msg) => format!("panic: {msg}"),
            FailureKind::Budget(b) => b.to_string(),
        };
        write!(
            f,
            "{} seed={} attempt={}: {what} ({} events, t={:.1}s{})",
            self.scenario.label(),
            self.seed,
            self.attempt,
            self.events_processed,
            self.virtual_time_s,
            self.partial_digest
                .map(|d| format!(", partial digest {d}"))
                .unwrap_or_default()
        )
    }
}

/// A (scenario, replica) point that exhausted its retries.
#[derive(Clone, Debug)]
pub struct QuarantinedPoint {
    pub scenario: Scenario,
    /// Replica index within its scenario.
    pub replica: u64,
    /// Every failed attempt, in order (attempt 0 first).
    pub failures: Vec<RunFailure>,
}

/// A completed replica in the form the journal stores and averaging
/// consumes — the metric subset of [`ScenarioResult`] plus the digest.
#[derive(Clone, Debug)]
pub struct ReplicaRecord {
    pub scenario: Scenario,
    /// Replica index within its scenario (orders averaging, so a resumed
    /// sweep folds floats in exactly the fresh run's order).
    pub replica: u64,
    pub alive: TimeSeries,
    pub aen: TimeSeries,
    pub pdr: Option<f64>,
    pub latency_ms: Option<f64>,
    pub pdr_590: Option<f64>,
    pub latency_ms_590: Option<f64>,
    pub network_death_s: Option<f64>,
    pub digest: Option<TraceDigest>,
}

impl ReplicaRecord {
    pub fn from_result(replica: u64, r: &ScenarioResult) -> Self {
        ReplicaRecord {
            scenario: r.scenario,
            replica,
            alive: r.alive.clone(),
            aen: r.aen.clone(),
            pdr: r.pdr,
            latency_ms: r.latency_ms,
            pdr_590: r.pdr_590,
            latency_ms_590: r.latency_ms_590,
            network_death_s: r.network_death_s,
            digest: r.trace_digest,
        }
    }
}

impl ReplicaMetrics for ReplicaRecord {
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

/// Everything a supervised sweep produced.
#[derive(Clone, Debug, Default)]
pub struct SweepReport {
    /// Per-scenario averages over the replicas that survived (scenarios
    /// whose every replica was quarantined are absent).
    pub averaged: Vec<AveragedResult>,
    /// Every contributing replica (journal-loaded and freshly run),
    /// sorted by (scenario, replica) — carries the per-replica digests.
    pub replicas: Vec<ReplicaRecord>,
    /// Points that exhausted their retries.
    pub quarantined: Vec<QuarantinedPoint>,
    /// Every failed attempt, including ones a retry later recovered.
    pub failures: Vec<RunFailure>,
    /// Replicas freshly run (and journaled) by this invocation.
    pub completed: usize,
    /// Replicas skipped because the journal already had them.
    pub from_journal: usize,
    /// Points that failed at least once and then succeeded on a retry.
    pub recovered: usize,
    /// Journal lines that failed to parse (e.g. a line truncated by a
    /// kill mid-append) and were ignored.
    pub malformed_journal_lines: usize,
}

impl SweepReport {
    /// Human-readable supervision summary (the "quarantine report").
    pub fn render(&self) -> String {
        let mut out = String::new();
        use std::fmt::Write as _;
        let _ = writeln!(
            out,
            "## Sweep supervision: {} averaged, {} fresh, {} from journal, {} recovered, {} quarantined",
            self.averaged.len(),
            self.completed,
            self.from_journal,
            self.recovered,
            self.quarantined.len()
        );
        if self.malformed_journal_lines > 0 {
            let _ = writeln!(
                out,
                "   ({} malformed journal line(s) ignored)",
                self.malformed_journal_lines
            );
        }
        for q in &self.quarantined {
            let _ = writeln!(out, "QUARANTINED {} replica {}:", q.scenario.label(), q.replica);
            for f in &q.failures {
                let _ = writeln!(out, "   {f}");
            }
        }
        for f in &self.failures {
            if !self.quarantined.iter().any(|q| {
                q.failures
                    .iter()
                    .any(|qf| qf.seed == f.seed && qf.attempt == f.attempt)
            }) {
                let _ = writeln!(out, "recovered after failure: {f}");
            }
        }
        out
    }
}

/// The job a supervisor isolates: anything that runs one scenario to a
/// [`ScenarioResult`].  Production sweeps pass [`run_scenario_probed`];
/// tests substitute deliberately crashing protocols.
pub type ScenarioRunner<'a> =
    dyn Fn(&Scenario, RunOptions, Option<Arc<ProgressProbe>>) -> ScenarioResult + Sync + 'a;

/// Outcome of one (scenario, replica) point after retries.
#[derive(Clone, Debug)]
pub struct PointOutcome {
    /// The successful result, if any attempt succeeded.
    pub result: Option<ScenarioResult>,
    /// Every failed attempt, in order.
    pub failures: Vec<RunFailure>,
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic payload of unknown type".to_string()
    }
}

/// One isolated attempt: run `sc` with `seed` substituted, converting a
/// panic or a tripped watchdog into a [`RunFailure`].
fn attempt_one(
    runner: &ScenarioRunner<'_>,
    sc: &Scenario,
    seed: u64,
    attempt: u32,
    opts: RunOptions,
) -> Result<ScenarioResult, Box<RunFailure>> {
    let job = Scenario { seed, ..*sc };
    let probe = Arc::new(ProgressProbe::new());
    let shared = probe.clone();
    let outcome = catch_unwind(AssertUnwindSafe(|| runner(&job, opts, Some(shared))));
    let failure = |kind| {
        Box::new(RunFailure {
            scenario: job,
            seed,
            attempt,
            kind,
            events_processed: probe.events(),
            virtual_time_s: probe.virtual_time().as_secs_f64(),
            partial_digest: probe.partial_digest(),
        })
    };
    match outcome {
        Ok(res) => match res.budget_exceeded {
            Some(b) => Err(failure(FailureKind::Budget(b))),
            None => Ok(res),
        },
        Err(payload) => Err(failure(FailureKind::Panic(panic_message(payload)))),
    }
}

/// Run one point under full supervision: isolation, watchdog, bounded
/// retry on re-derived seeds.  Attempt 0 runs `sc.seed` itself; attempt
/// `a` runs `derive_seed(sc.seed, "retry", a)` so the retry explores a
/// different deterministic trajectory while every attempted seed stays
/// replayable from its failure record.
pub fn run_point(
    runner: &ScenarioRunner<'_>,
    sc: &Scenario,
    opts: RunOptions,
    sup: &SupervisorConfig,
) -> PointOutcome {
    let opts = sup.apply_budgets(opts);
    let mut failures = Vec::new();
    for attempt in 0..=sup.max_retries {
        let seed = if attempt == 0 {
            sc.seed
        } else {
            derive_seed(sc.seed, "retry", attempt as u64)
        };
        match attempt_one(runner, sc, seed, attempt, opts) {
            Ok(res) => {
                return PointOutcome {
                    result: Some(res),
                    failures,
                }
            }
            Err(f) => failures.push(*f),
        }
    }
    PointOutcome {
        result: None,
        failures,
    }
}

// ----- checkpoint journal -----------------------------------------------

/// Hash of everything that determines a replica's result except its seed:
/// with the seed it keys the journal, so identical points in different
/// sweep campaigns share completed work.  The scheduler backend is
/// deliberately excluded (results are bit-identical across backends); the
/// trace mode is included because it decides whether a digest exists.
pub fn config_hash(sc: &Scenario, opts: &RunOptions) -> u64 {
    let mut h = Fnv64::new();
    h.write(sc.protocol.name().as_bytes());
    h.write_u64(sc.n_hosts as u64);
    h.write_u64(sc.max_speed.to_bits());
    h.write_u64(sc.pause_secs.to_bits());
    h.write_u64(sc.n_flows as u64);
    h.write_u64(sc.flow_rate_pps.to_bits());
    h.write_u64(sc.duration_secs.to_bits());
    h.write_u64(sc.model1_endpoints as u64);
    // the fault plan is all-Copy scalars; its Debug form is a canonical
    // rendering of every knob
    h.write(format!("{:?}", opts.faults).as_bytes());
    h.write_u8(match opts.trace {
        None => 0,
        Some(manet::trace::TraceMode::DigestOnly) => 1,
        Some(manet::trace::TraceMode::Full) => 2,
    });
    h.finish()
}

/// `t_bits:v_bits` pairs joined by `;` — bit-exact and comma-free, so the
/// line stays trivially splittable.
fn enc_series(s: &TimeSeries) -> String {
    let body: Vec<String> = s
        .points()
        .iter()
        .map(|p| format!("{:016x}:{:016x}", p.t_secs.to_bits(), p.value.to_bits()))
        .collect();
    body.join(";")
}

fn dec_series(s: &str) -> Option<TimeSeries> {
    let mut out = TimeSeries::new();
    if s.is_empty() {
        return Some(out);
    }
    for pair in s.split(';') {
        let (t, v) = pair.split_once(':')?;
        out.push(
            f64::from_bits(u64::from_str_radix(t, 16).ok()?),
            f64::from_bits(u64::from_str_radix(v, 16).ok()?),
        );
    }
    Some(out)
}

/// One parsed journal line (scenario-free; the sweep re-binds it to its
/// in-memory scenario via the config hash).  `pub(crate)` so the sweep
/// service's job handler can reuse the journal as its resume store.
#[derive(Clone, Debug)]
pub(crate) struct JournalEntry {
    pub(crate) config: u64,
    pub(crate) seed: u64,
    pub(crate) replica: u64,
    pub(crate) alive: TimeSeries,
    pub(crate) aen: TimeSeries,
    pub(crate) pdr: Option<f64>,
    pub(crate) latency_ms: Option<f64>,
    pub(crate) pdr_590: Option<f64>,
    pub(crate) latency_ms_590: Option<f64>,
    pub(crate) network_death_s: Option<f64>,
    pub(crate) digest: Option<TraceDigest>,
}

impl JournalEntry {
    pub(crate) fn into_record(self, scenario: Scenario) -> ReplicaRecord {
        ReplicaRecord {
            scenario,
            replica: self.replica,
            alive: self.alive,
            aen: self.aen,
            pdr: self.pdr,
            latency_ms: self.latency_ms,
            pdr_590: self.pdr_590,
            latency_ms_590: self.latency_ms_590,
            network_death_s: self.network_death_s,
            digest: self.digest,
        }
    }
}

/// Encode one completed replica as a journal line: one flat
/// [`service::json`] object.  No value may contain a quote — hex, digits,
/// `:` and `;` only — which keeps the decoder a flat scan.
pub(crate) fn encode_line(config: u64, seed: u64, rec: &ReplicaRecord) -> String {
    let line = Obj::new()
        .u64("v", 1)
        .str("config", &format!("{config:016x}"))
        .u64("seed", seed)
        .u64("replica", rec.replica)
        .f64_bits("pdr", rec.pdr)
        .f64_bits("latency_ms", rec.latency_ms)
        .f64_bits("pdr_590", rec.pdr_590)
        .f64_bits("latency_ms_590", rec.latency_ms_590)
        .f64_bits("death_s", rec.network_death_s);
    match rec.digest {
        Some(d) => line.str("digest", &d.to_string()),
        None => line.raw("digest", "null"),
    }
    .str("alive", &enc_series(&rec.alive))
    .str("aen", &enc_series(&rec.aen))
    .finish()
}

fn parse_entry(line: &str) -> Option<JournalEntry> {
    if !line.starts_with('{') || !line.ends_with('}') {
        return None; // e.g. a line truncated by a kill mid-append
    }
    if json::u64_field(line, "v")? != 1 {
        return None;
    }
    Some(JournalEntry {
        config: json::hex_field(line, "config")?,
        seed: json::u64_field(line, "seed")?,
        replica: json::u64_field(line, "replica")?,
        alive: dec_series(json::field(line, "alive")?)?,
        aen: dec_series(json::field(line, "aen")?)?,
        pdr: json::f64_bits_field(line, "pdr")?,
        latency_ms: json::f64_bits_field(line, "latency_ms")?,
        pdr_590: json::f64_bits_field(line, "pdr_590")?,
        latency_ms_590: json::f64_bits_field(line, "latency_ms_590")?,
        network_death_s: json::f64_bits_field(line, "death_s")?,
        digest: match json::field(line, "digest")? {
            "null" => None,
            tok => Some(TraceDigest::parse(tok)?),
        },
    })
}

/// Load a journal, tolerating a missing file and skipping (but counting)
/// malformed lines.  The file is read as raw bytes and decoded lossily:
/// garbage bytes mid-file (a torn write, disk corruption) poison only the
/// lines they touch — which then fail to parse and are counted — instead
/// of making the whole journal unreadable and silently re-running
/// everything.
fn load_journal(path: &Path) -> (Vec<JournalEntry>, usize) {
    let Ok(bytes) = fs::read(path) else {
        return (Vec::new(), 0);
    };
    let body = String::from_utf8_lossy(&bytes);
    let mut entries = Vec::new();
    let mut malformed = 0;
    for line in body.lines() {
        if line.trim().is_empty() {
            continue;
        }
        match parse_entry(line) {
            Some(e) => entries.push(e),
            None => malformed += 1,
        }
    }
    (entries, malformed)
}

/// [`load_journal`] indexed by the resume key (config hash, seed).
/// Duplicate keys — e.g. two interrupted sweeps appending the same
/// replica — deduplicate with last-write-wins (the later line is the
/// more recent run of an identical, deterministic job) and are counted
/// with the malformed lines so the dedup is observable.
pub(crate) fn load_journal_indexed(path: &Path) -> (HashMap<(u64, u64), JournalEntry>, usize) {
    let (entries, mut anomalies) = load_journal(path);
    let mut index: HashMap<(u64, u64), JournalEntry> = HashMap::new();
    for e in entries {
        if index.insert((e.config, e.seed), e).is_some() {
            anomalies += 1;
        }
    }
    (index, anomalies)
}

// ----- the supervised sweep ---------------------------------------------

/// [`sweep_supervised_with`] running the production scenario runner.
pub fn sweep_supervised(
    scenarios: &[Scenario],
    replicas: usize,
    opts: RunOptions,
    sup: &SupervisorConfig,
) -> SweepReport {
    sweep_supervised_with(scenarios, replicas, opts, sup, &|sc, o, p| {
        run_scenario_probed(sc, o, p)
    })
}

/// Run every (scenario × replica) pair under supervision.
///
/// Replica `k` of a scenario keeps its plain-sweep identity
/// ([`replica_seed`]`(sc.seed, k)`), so the averaged results of an
/// all-healthy supervised sweep are bit-identical to [`crate::sweep`].
/// With a journal configured, already-journaled replicas are skipped and
/// re-read instead of re-run; each fresh completion is appended (and
/// flushed) immediately, so a killed sweep loses at most the replicas
/// that were mid-flight.
pub fn sweep_supervised_with(
    scenarios: &[Scenario],
    replicas: usize,
    opts: RunOptions,
    sup: &SupervisorConfig,
    runner: &ScenarioRunner<'_>,
) -> SweepReport {
    let keyed: Vec<(u64, Scenario)> = scenarios.iter().map(|sc| (config_hash(sc, &opts), *sc)).collect();
    sweep_keyed(&keyed, replicas, opts, sup, runner)
}

/// [`sweep_supervised_with`] over points that bring their own journal
/// config key.  A scenario-file fleet's identity is its text, not the
/// representative `Scenario` the supervisor echoes, so it must not share
/// [`config_hash`] with the classic scenario of the same shape
/// (`serve::FleetJob::config_hash` supplies the key for either kind).
pub fn sweep_keyed(
    points: &[(u64, Scenario)],
    replicas: usize,
    opts: RunOptions,
    sup: &SupervisorConfig,
    runner: &ScenarioRunner<'_>,
) -> SweepReport {
    assert!(replicas >= 1);
    let opts = sup.apply_budgets(opts);

    // resume: index the journal by (config hash, seed)
    let mut journaled: HashMap<(u64, u64), JournalEntry> = HashMap::new();
    let mut malformed = 0;
    if let Some(path) = &sup.journal {
        let (index, bad) = load_journal_indexed(path);
        journaled = index;
        malformed = bad;
    }

    // split the grid into journal hits and jobs still to run
    let mut loaded: Vec<(usize, ReplicaRecord)> = Vec::new();
    let mut jobs: Vec<(usize, u64, Scenario, u64)> = Vec::new();
    for (idx, &(cfg, sc)) in points.iter().enumerate() {
        for k in 0..replicas as u64 {
            let seed = replica_seed(sc.seed, k);
            let point = Scenario { seed, ..sc };
            match journaled.remove(&(cfg, seed)) {
                Some(mut e) => {
                    e.replica = k; // trust our own indexing over the file's
                    loaded.push((idx, e.into_record(point)));
                }
                None => jobs.push((idx, k, point, cfg)),
            }
        }
    }
    let from_journal = loaded.len();

    // append-only journal writer, shared across rayon workers; every line
    // is written under the lock and flushed before the next job can commit
    let writer: Option<Mutex<fs::File>> = sup.journal.as_ref().map(|path| {
        if let Some(dir) = path.parent() {
            let _ = fs::create_dir_all(dir);
        }
        Mutex::new(
            fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .expect("open sweep journal"),
        )
    });

    let outcomes: Vec<(usize, u64, PointOutcome)> = jobs
        .par_iter()
        .map(|(idx, k, sc, cfg)| {
            let out = run_point(runner, sc, opts, sup);
            if let (Some(w), Some(res)) = (&writer, &out.result) {
                let rec = ReplicaRecord::from_result(*k, res);
                let line = encode_line(*cfg, sc.seed, &rec);
                let mut f = w.lock().expect("journal lock");
                let _ = writeln!(f, "{line}");
                let _ = f.flush();
            }
            (*idx, *k, out)
        })
        .collect();

    // assemble per-scenario groups in deterministic (replica k) order, so
    // resume-vs-fresh float accumulation is identical
    let mut groups: Vec<Vec<ReplicaRecord>> = (0..points.len()).map(|_| Vec::new()).collect();
    for (idx, rec) in loaded {
        groups[idx].push(rec);
    }
    let mut report = SweepReport {
        from_journal,
        malformed_journal_lines: malformed,
        ..SweepReport::default()
    };
    for (idx, k, out) in outcomes {
        report.failures.extend(out.failures.iter().cloned());
        match out.result {
            Some(res) => {
                report.completed += 1;
                if !out.failures.is_empty() {
                    report.recovered += 1;
                }
                groups[idx].push(ReplicaRecord::from_result(k, &res));
            }
            None => report.quarantined.push(QuarantinedPoint {
                scenario: points[idx].1,
                replica: k,
                failures: out.failures,
            }),
        }
    }
    for group in &mut groups {
        group.sort_by_key(|r| r.replica);
    }
    report.averaged = groups
        .iter()
        .filter_map(|g| average_results_degraded(g, replicas))
        .collect();
    report.replicas = groups.into_iter().flatten().collect();
    report
}

/// A journal-aware resumable sweep: [`sweep_supervised`] with a journal
/// required rather than optional.  After a kill, rerunning with the same
/// journal skips completed replicas and returns averaged results (and
/// per-replica digests) bit-identical to an uninterrupted run.
pub fn sweep_resumable(
    scenarios: &[Scenario],
    replicas: usize,
    opts: RunOptions,
    sup: &SupervisorConfig,
    journal: impl Into<PathBuf>,
) -> SweepReport {
    let sup = sup.clone().with_journal(journal);
    sweep_supervised(scenarios, replicas, opts, &sup)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ProtocolKind;

    fn rec(seed: u64) -> ReplicaRecord {
        ReplicaRecord {
            scenario: Scenario {
                protocol: ProtocolKind::Ecgrid,
                n_hosts: 10,
                max_speed: 1.0,
                pause_secs: 0.0,
                n_flows: 2,
                flow_rate_pps: 1.0,
                duration_secs: 30.0,
                seed,
                model1_endpoints: 2,
            },
            replica: 3,
            alive: [(0.0, 1.0), (10.0, 0.75)].into_iter().collect(),
            aen: [(0.0, 0.0), (10.0, 0.1)].into_iter().collect(),
            pdr: Some(0.1 + 0.2), // deliberately non-representable exactly
            latency_ms: None,
            pdr_590: Some(f64::MIN_POSITIVE),
            latency_ms_590: Some(-0.0),
            network_death_s: None,
            digest: Some(TraceDigest(0xabcd_ef01_2345_6789)),
        }
    }

    #[test]
    fn journal_line_roundtrips_bit_exactly() {
        let r = rec(99);
        let line = encode_line(0xdead_beef, 99, &r);
        let e = parse_entry(&line).expect("parse");
        assert_eq!(e.config, 0xdead_beef);
        assert_eq!(e.seed, 99);
        assert_eq!(e.replica, 3);
        assert_eq!(e.pdr.map(f64::to_bits), r.pdr.map(f64::to_bits));
        assert_eq!(e.latency_ms, None);
        assert_eq!(e.pdr_590.map(f64::to_bits), r.pdr_590.map(f64::to_bits));
        // -0.0 survives (bits differ from +0.0)
        assert_eq!(e.latency_ms_590.map(f64::to_bits), Some((-0.0f64).to_bits()));
        assert_eq!(e.digest, r.digest);
        assert_eq!(e.alive.points().len(), 2);
        assert_eq!(e.alive.value_at(10.0), Some(0.75));
        assert_eq!(e.aen.value_at(10.0), Some(0.1));
    }

    #[test]
    fn a_journal_line_written_before_the_shared_codec_reencodes_to_the_same_bytes() {
        // `rec(99)` as the private codec PR 15 retired wrote it: journals
        // on disk must keep resuming, and new lines must stay readable by
        // an older binary
        const LINE: &str = "{\"v\":1,\"config\":\"00000000deadbeef\",\"seed\":99,\"replica\":3,\
\"pdr\":\"3fd3333333333334\",\"latency_ms\":null,\"pdr_590\":\"0010000000000000\",\
\"latency_ms_590\":\"8000000000000000\",\"death_s\":null,\"digest\":\"abcdef0123456789\",\
\"alive\":\"0000000000000000:3ff0000000000000;4024000000000000:3fe8000000000000\",\
\"aen\":\"0000000000000000:0000000000000000;4024000000000000:3fb999999999999a\"}";
        let e = parse_entry(LINE).expect("parse");
        let (config, seed) = (e.config, e.seed);
        assert_eq!((config, seed), (0xdead_beef, 99));
        assert_eq!(encode_line(config, seed, &e.into_record(rec(99).scenario)), LINE);
        assert_eq!(encode_line(config, seed, &rec(99)), LINE);
        // and without a digest or any sample
        let bare = ReplicaRecord {
            digest: None,
            alive: TimeSeries::new(),
            ..rec(99)
        };
        let line = encode_line(config, seed, &bare);
        assert!(line.contains("\"digest\":null,\"alive\":\"\","), "{line}");
        let back = parse_entry(&line).expect("parse");
        assert_eq!((back.digest, back.alive.points().len()), (None, 0));
    }

    #[test]
    fn truncated_and_garbage_lines_are_skipped() {
        let r = rec(7);
        let good = encode_line(1, 7, &r);
        let truncated = &good[..good.len() / 2];
        let dir = std::env::temp_dir().join("ecgrid_journal_parse_test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.jsonl");
        fs::write(&path, format!("{good}\n{truncated}\nnot json at all\n")).unwrap();
        let (entries, malformed) = load_journal(&path);
        assert_eq!(entries.len(), 1);
        assert_eq!(malformed, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_journal_is_empty_not_an_error() {
        let (entries, malformed) = load_journal(Path::new("/nonexistent/definitely/not/here.jsonl"));
        assert!(entries.is_empty());
        assert_eq!(malformed, 0);
    }

    #[test]
    fn config_hash_ignores_seed_and_backend_but_not_shape() {
        let a = rec(1).scenario;
        let b = Scenario { seed: 999, ..a };
        let opts = RunOptions::default();
        assert_eq!(config_hash(&a, &opts), config_hash(&b, &opts));
        let c = Scenario { n_hosts: 11, ..a };
        assert_ne!(config_hash(&a, &opts), config_hash(&c, &opts));
        let calendar = RunOptions::default().with_backend(manet::Backend::Calendar);
        assert_eq!(config_hash(&a, &opts), config_hash(&a, &calendar));
        let traced = crate::run::RunOptions::digest();
        assert_ne!(config_hash(&a, &opts), config_hash(&a, &traced));
    }

    #[test]
    fn retry_seeds_are_rederived_not_repeated() {
        let s0 = 42;
        let s1 = derive_seed(s0, "retry", 1);
        let s2 = derive_seed(s0, "retry", 2);
        assert_ne!(s0, s1);
        assert_ne!(s1, s2);
    }
}
