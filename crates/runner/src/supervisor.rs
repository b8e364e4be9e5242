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
//! * **Watchdog** — a replica that trips its [`RunOptions`] event or wall
//!   budget is a `BudgetExceeded` failure rather than a hung CI job (see
//!   `sim_engine::RunBudget`).
//! * **Retry + quarantine** — a failed point retries up to
//!   [`SupervisorConfig::max_retries`] times on re-derived seeds (each
//!   attempted seed is preserved in its failure record for replay); points
//!   that never succeed land on the [`SweepReport::quarantined`] list, and
//!   the surviving replicas still average.
//! * **Checkpoint/resume** — an append-only JSONL journal keyed by
//!   (config hash, seed) records every completed replica's metrics and
//!   trace digest with bit-exact float encoding, so a resumed sweep skips
//!   finished work and reproduces the fresh run's [`AveragedResult`]s
//!   bit for bit.  `Journal` is the file's only owner.
//!
//! One step (`run_replica`) and one fold (`fold_replicas`) define the
//! replica protocol; [`sweep_keyed`] loops over them on rayon, the sweep
//! service's job handler (`crate::serve`) sequentially.

use crate::run::{replica_seed, run_scenario_probed, RunOptions, ScenarioResult};
use crate::scenario::Scenario;
use crate::sweep::{average_results_degraded, AveragedResult};
use manet::progress::ProgressProbe;
use manet::trace::{Fnv64, TraceDigest};
use metrics::TimeSeries;
use rayon::prelude::*;
use service::fsutil;
use service::json::{self, Obj};
use sim_engine::{derive_seed, BudgetExceeded};
use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io::{self, Read as _, Write as _};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Supervision knobs, orthogonal to [`RunOptions`] (which holds the
/// watchdog budgets: they bound a run, supervised or not).
#[derive(Clone, Debug)]
pub struct SupervisorConfig {
    /// Retry attempts after the first failure of a point (0 = fail fast).
    /// Retries run on re-derived seeds — replaying the same seed of a
    /// deterministic simulation would fail identically.
    pub max_retries: u32,
    /// Checkpoint journal path.  `None` disables journaling.
    pub journal: Option<PathBuf>,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            max_retries: 2,
            journal: None,
        }
    }
}

impl SupervisorConfig {
    pub fn with_max_retries(mut self, n: u32) -> Self {
        self.max_retries = n;
        self
    }

    pub fn with_journal(mut self, path: impl Into<PathBuf>) -> Self {
        self.journal = Some(path.into());
        self
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
    /// The journal could not be opened: nothing was run and every other
    /// field is empty.
    pub journal_error: Option<JournalError>,
    /// One entry per fresh replica whose checkpoint append failed.  The
    /// computed replica is kept (it is in `averaged` and `replicas`); a
    /// resumed sweep will run it again.
    pub append_errors: Vec<JournalError>,
}

impl SweepReport {
    /// Human-readable supervision summary (the "quarantine report").
    pub fn render(&self) -> String {
        let mut out = String::new();
        use std::fmt::Write as _;
        if let Some(e) = &self.journal_error {
            let _ = writeln!(out, "{e} (nothing was run)");
        }
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
        if let Some(note) = self.unjournaled_note() {
            let _ = writeln!(out, "   ({note})");
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

    /// What the report says about replicas that ran but could not be
    /// checkpointed, if there were any.
    pub(crate) fn unjournaled_note(&self) -> Option<String> {
        let first = self.append_errors.first()?;
        let n = self.append_errors.len();
        Some(format!(
            "{n} replica(s) computed but not checkpointed; first: {first}"
        ))
    }

    /// Count the outcome of replica `k` of `point`, handing back the
    /// record to fold if the replica has one.
    pub(crate) fn tally(&mut self, point: &Scenario, k: u64, step: Replica) -> Option<ReplicaRecord> {
        match step {
            Replica::Journaled(record) => {
                self.from_journal += 1;
                Some(record)
            }
            Replica::Fresh {
                record,
                failures,
                unjournaled,
            } => {
                self.completed += 1;
                self.recovered += usize::from(!failures.is_empty());
                self.failures.extend(failures);
                self.append_errors.extend(unjournaled);
                Some(record)
            }
            Replica::Quarantined(failures) => {
                self.failures.extend(failures.iter().cloned());
                self.quarantined.push(QuarantinedPoint {
                    scenario: *point,
                    replica: k,
                    failures,
                });
                None
            }
        }
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
/// sweep campaigns share completed work.
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
    fold_run_options(&mut h, opts);
    h.finish()
}

/// The run options every journal key folds in beside the fleet: the fault
/// plan (all-Copy scalars, so its Debug form renders every knob) and the
/// trace mode (it decides whether a digest exists).  The scheduler backend
/// is deliberately left out — results are bit-identical across backends.
pub(crate) fn fold_run_options(h: &mut Fnv64, opts: &RunOptions) {
    h.write(format!("{:?}", opts.faults).as_bytes());
    h.write_u8(match opts.trace {
        None => 0,
        Some(manet::trace::TraceMode::DigestOnly) => 1,
        Some(manet::trace::TraceMode::Full) => 2,
    });
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

/// One parsed journal line (scenario-free; a sweep re-binds it to its
/// in-memory scenario via the config hash).
#[derive(Clone, Debug)]
pub(crate) struct JournalEntry {
    config: u64,
    seed: u64,
    alive: TimeSeries,
    aen: TimeSeries,
    pub(crate) pdr: Option<f64>,
    pub(crate) latency_ms: Option<f64>,
    pdr_590: Option<f64>,
    latency_ms_590: Option<f64>,
    network_death_s: Option<f64>,
    pub(crate) digest: Option<TraceDigest>,
}

impl JournalEntry {
    /// The entry as replica `replica` of `scenario` — the caller's own
    /// indexing, not the file's.
    fn into_record(self, replica: u64, scenario: Scenario) -> ReplicaRecord {
        ReplicaRecord {
            scenario,
            replica,
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
fn encode_line(config: u64, seed: u64, rec: &ReplicaRecord) -> String {
    let line = Obj::new()
        .u64("v", 1)
        .hex("config", config)
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
    json::u64_field(line, "replica")?; // required, but a sweep trusts its own indexing over the file's
    Some(JournalEntry {
        config: json::hex_field(line, "config")?,
        seed: json::u64_field(line, "seed")?,
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

/// Why the checkpoint journal could not be used (an `io::Error` a
/// `Clone` report can carry).
#[derive(Clone, Debug)]
pub struct JournalError {
    pub path: PathBuf,
    pub kind: io::ErrorKind,
    detail: String,
}

impl JournalError {
    pub(crate) fn new(path: &Path, e: &io::Error) -> Self {
        JournalError {
            path: path.to_path_buf(),
            kind: e.kind(),
            detail: e.to_string(),
        }
    }
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "journal: {}: {}", self.path.display(), self.detail)
    }
}

impl std::error::Error for JournalError {}

/// A journal's entries by resume key (config hash, seed).
#[derive(Default)]
struct JournalIndex {
    entries: HashMap<(u64, u64), JournalEntry>,
    anomalies: usize,
}

impl JournalIndex {
    /// Index one line.  One that fails to parse is skipped; a duplicate
    /// key — two sweeps appending the same replica — is last-write-wins
    /// (the later run of an identical, deterministic job).  Both count
    /// as anomalies; a blank line counts as nothing.
    fn add(&mut self, line: &str) {
        if line.trim().is_empty() {
            return;
        }
        match parse_entry(line) {
            Some(e) => self.anomalies += usize::from(self.entries.insert((e.config, e.seed), e).is_some()),
            None => self.anomalies += 1,
        }
    }
}

/// The checkpoint journal: the only code that reads, indexes, opens,
/// appends to and syncs the file.  One failure policy for every caller:
/// [`Journal::open`] failing stops the sweep or job before anything runs;
/// [`Journal::append`] or [`Journal::sync`] failing keeps the computed
/// replicas and is reported.  The file is read once, at open; the index
/// then follows this handle's appends, so it is what a reopen would
/// build unless another process appends (its lines wait for a reopen).
pub(crate) struct Journal {
    pub(crate) path: PathBuf,
    /// Opened for read and append: `O_APPEND` puts every write at the
    /// end, whatever the read left the offset at.
    file: fs::File,
    /// Every line the file held at open, and every line appended since.
    /// Its lock also orders the writes.
    index: Mutex<JournalIndex>,
    /// The file was empty at open — `open` may have created it — and no
    /// `sync` has made its directory entry durable yet.
    new_entry: AtomicBool,
}

impl Journal {
    /// The one loader: open `path` for read and append and index every
    /// line in it.  With `create` a missing file and directory are made;
    /// without, nothing is (a missing file is `NotFound`).  The file is
    /// decoded lossily, so garbage bytes mid-file (a torn write, disk
    /// corruption) poison only the lines they touch.
    pub(crate) fn open(path: &Path, create: bool) -> Result<Journal, JournalError> {
        let failed = |e: io::Error| JournalError::new(path, &e);
        if let Some(dir) = path.parent().filter(|_| create) {
            fs::create_dir_all(dir).map_err(failed)?;
        }
        let mut file = fs::OpenOptions::new()
            .read(true)
            .append(true)
            .create(create)
            .open(path)
            .map_err(failed)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes).map_err(failed)?;
        let mut index = JournalIndex::default();
        String::from_utf8_lossy(&bytes)
            .lines()
            .for_each(|line| index.add(line));
        Ok(Journal {
            path: path.to_path_buf(),
            file,
            index: Mutex::new(index),
            new_entry: AtomicBool::new(bytes.is_empty()),
        })
    }

    fn index(&self) -> MutexGuard<'_, JournalIndex> {
        // a thread that panicked under this lock left at worst a torn
        // line, which the loader skips: the file is still appendable
        self.index.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The replica the journal holds for this resume key.
    pub(crate) fn get(&self, config: u64, seed: u64) -> Option<JournalEntry> {
        self.index().entries.get(&(config, seed)).cloned()
    }

    /// Malformed lines plus duplicate keys met so far.
    pub(crate) fn anomalies(&self) -> usize {
        self.index().anomalies
    }

    /// Append one completed replica and index it: line and newline in a
    /// single write under the lock, so concurrent appenders — rayon
    /// workers here, other processes on the same `O_APPEND` file — never
    /// interleave inside a line, and a killed sweep loses at most the
    /// replicas in flight.
    fn append(&self, config: u64, seed: u64, rec: &ReplicaRecord) -> io::Result<()> {
        let mut line = encode_line(config, seed, rec);
        line.push('\n');
        let mut index = self.index();
        (&self.file).write_all(line.as_bytes())?;
        index.add(line.trim_end_matches('\n'));
        Ok(())
    }

    /// Make every line appended so far durable: `sync_data` on the file,
    /// and the first time after `open` created it, an fsync of its
    /// directory, without which the file itself may not survive a power
    /// cut.  A caller that records an outcome elsewhere durably (a job's
    /// terminal manifest) syncs first, so a restart never trusts an
    /// outcome whose replicas are lost.
    pub(crate) fn sync(&self) -> Result<(), JournalError> {
        let failed = |e: io::Error| JournalError::new(&self.path, &e);
        self.file.sync_data().map_err(failed)?;
        if self.new_entry.swap(false, Ordering::Relaxed) {
            let dir = self.path.parent().filter(|d| !d.as_os_str().is_empty());
            if let Err(e) = fsutil::fsync_dir(dir.unwrap_or(Path::new("."))) {
                self.new_entry.store(true, Ordering::Relaxed);
                return Err(failed(e));
            }
        }
        Ok(())
    }
}

// ----- the replica step and the fold ------------------------------------

/// What one replica of a sweep point came to.
pub(crate) enum Replica {
    /// The journal already held it; nothing ran.
    Journaled(ReplicaRecord),
    /// It ran to completion now, after `failures` failed attempts.  Only
    /// the slim record outlives the step: a sweep holds one of these per
    /// replica until its fold, so the run's full [`ScenarioResult`]
    /// (ledger, recorder, stats) is gone before [`run_replica`] returns.
    Fresh {
        record: ReplicaRecord,
        failures: Vec<RunFailure>,
        /// The checkpoint append failed: the result stands, a resume
        /// will run it again.
        unjournaled: Option<JournalError>,
    },
    /// Every attempt failed.
    Quarantined(Vec<RunFailure>),
}

/// The replica step: replica `k` of the keyed point (`config`, `base`) is
/// the journal's record of (`config`, [`replica_seed`]`(base.seed, k)`) if
/// there is one, else a supervised run ([`run_point`]) appended to the
/// journal before it is returned — under that identity seed even when a
/// retry on a re-derived seed produced the result.  A fresh run's full
/// result is lent to `inspect` for that one call and then dropped; a
/// journal hit or a quarantine never calls it.
pub(crate) fn run_replica(
    runner: &ScenarioRunner<'_>,
    journal: Option<&Journal>,
    &(config, base): &(u64, Scenario),
    k: u64,
    opts: RunOptions,
    sup: &SupervisorConfig,
    inspect: impl FnOnce(&ScenarioResult),
) -> Replica {
    let seed = replica_seed(base.seed, k);
    let point = Scenario { seed, ..base };
    if let Some(entry) = journal.and_then(|j| j.get(config, seed)) {
        return Replica::Journaled(entry.into_record(k, point));
    }
    let out = run_point(runner, &point, opts, sup);
    let Some(res) = out.result else {
        return Replica::Quarantined(out.failures);
    };
    let record = ReplicaRecord::from_result(k, &res);
    let unjournaled = journal.and_then(|j| {
        let failed = j.append(config, seed, &record).err()?;
        Some(JournalError::new(&j.path, &failed))
    });
    inspect(&res);
    Replica::Fresh {
        record,
        failures: out.failures,
        unjournaled,
    }
}

/// The fold: one scenario's replicas average in replica order — journal
/// or fresh, finished in any order — so a resumed sweep accumulates floats
/// exactly as a fresh one does.  `None` when every replica was quarantined.
pub(crate) fn fold_replicas(records: &mut [ReplicaRecord], requested: usize) -> Option<AveragedResult> {
    records.sort_by_key(|r| r.replica);
    average_results_degraded(records, requested)
}

// ----- the supervised sweep ---------------------------------------------

/// [`sweep_supervised_with`] running the production scenario runner.
pub fn sweep_supervised(
    scenarios: &[Scenario],
    replicas: usize,
    opts: RunOptions,
    sup: &SupervisorConfig,
) -> SweepReport {
    sweep_supervised_with(scenarios, replicas, opts, sup, &run_scenario_probed)
}

/// Run every (scenario × replica) pair under supervision ([`crate::sweep()`]
/// is this with no retries and no journal); with a journal, journaled
/// replicas are re-read instead of re-run and fresh ones appended at once.
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

/// The batch loop: `run_replica` over every (point × replica) on rayon,
/// then `fold_replicas` per point; a journal that cannot be opened is
/// [`SweepReport::journal_error`] and nothing runs.  Points bring their
/// own journal config key: a scenario-file fleet's identity is its text,
/// not the representative `Scenario` the supervisor echoes, so it must not
/// share [`config_hash`] with the classic scenario of the same shape
/// (`serve::FleetJob::config_hash` supplies the key for either kind).
pub fn sweep_keyed(
    points: &[(u64, Scenario)],
    replicas: usize,
    opts: RunOptions,
    sup: &SupervisorConfig,
    runner: &ScenarioRunner<'_>,
) -> SweepReport {
    assert!(replicas >= 1);
    let journal = match sup.journal.as_deref().map(|p| Journal::open(p, true)).transpose() {
        Ok(journal) => journal,
        Err(e) => {
            return SweepReport {
                journal_error: Some(e),
                ..SweepReport::default()
            }
        }
    };
    let grid: Vec<(usize, u64)> = (0..points.len())
        .flat_map(|idx| (0..replicas as u64).map(move |k| (idx, k)))
        .collect();
    let steps: Vec<Replica> = grid
        .par_iter()
        .map(|&(idx, k)| run_replica(runner, journal.as_ref(), &points[idx], k, opts, sup, |_| {}))
        .collect();

    let mut report = SweepReport {
        malformed_journal_lines: journal.as_ref().map_or(0, Journal::anomalies),
        ..SweepReport::default()
    };
    let mut groups: Vec<Vec<ReplicaRecord>> = (0..points.len()).map(|_| Vec::new()).collect();
    for ((idx, k), step) in grid.into_iter().zip(steps) {
        groups[idx].extend(report.tally(&points[idx].1, k, step));
    }
    // an average echoes its sweep point, base seed included, whichever
    // replicas survived: a caller can find it by the point it asked for
    let folded = groups.iter_mut().zip(points).filter_map(|(g, (_, point))| {
        let mut avg = fold_replicas(g, replicas)?;
        avg.scenario = *point;
        Some(avg)
    });
    report.averaged = folded.collect();
    report.replicas = groups.into_iter().flatten().collect();
    report
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
        assert_eq!(
            encode_line(config, seed, &e.into_record(3, rec(99).scenario)),
            LINE
        );
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

    /// A fresh directory under the system temp dir, unique per test.
    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ecgrid_journal_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn truncated_and_garbage_lines_are_skipped() {
        let r = rec(7);
        let good = encode_line(1, 7, &r);
        let truncated = &good[..good.len() / 2];
        let dir = scratch("parse");
        let path = dir.join("j.jsonl");
        fs::write(&path, format!("{good}\n{truncated}\nnot json at all\n")).unwrap();
        let j = Journal::open(&path, true).unwrap();
        assert!(j.get(1, 7).is_some());
        assert_eq!(j.anomalies(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_missing_journal_opens_empty_and_appends_resume() {
        let dir = scratch("fresh");
        let path = dir.join("nested").join("j.jsonl");
        let j = Journal::open(&path, true).expect("a missing file and directory are created");
        assert!(j.get(5, 7).is_none());
        assert_eq!(j.anomalies(), 0);
        j.append(5, 7, &rec(7)).unwrap();
        // the live index sees its own append, and so does a reopen
        assert!(j.get(5, 7).is_some());
        let back = Journal::open(&path, true).unwrap();
        let e = back.get(5, 7).expect("appended line resumes");
        assert_eq!(e.into_record(0, rec(7).scenario).digest, rec(7).digest);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Every entry of a journal as the line it would write for replica 0:
    /// the codec is bit-exact, so equal lines are equal entries.
    fn lines_of(j: &Journal) -> Vec<String> {
        let index = j.index();
        let mut lines: Vec<String> = index
            .entries
            .values()
            .map(|e| encode_line(e.config, e.seed, &e.clone().into_record(0, rec(0).scenario)))
            .collect();
        lines.sort();
        lines
    }

    #[test]
    fn the_live_index_is_what_a_reload_of_the_file_builds() {
        let dir = scratch("live");
        let path = dir.join("j.jsonl");
        fs::write(&path, "garbage from an earlier crash\n").unwrap();
        let j = Journal::open(&path, true).unwrap();
        for seed in 0..6 {
            let r = ReplicaRecord {
                pdr: Some(0.1 * seed as f64),
                ..rec(seed)
            };
            j.append(u64::from(seed % 2 == 0), seed, &r).unwrap();
        }
        // the same key again, with a different result: last write wins
        j.append(1, 4, &ReplicaRecord { pdr: None, ..rec(4) }).unwrap();
        assert_eq!(j.get(1, 4).unwrap().pdr, None);
        assert_eq!(j.anomalies(), 2, "the garbage line and the duplicate key");
        let reloaded = Journal::open(&path, true).unwrap();
        assert_eq!(reloaded.anomalies(), j.anomalies());
        assert_eq!(reloaded.index().entries.len(), 6);
        assert_eq!(lines_of(&reloaded), lines_of(&j));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_sync_covers_the_directory_entry_of_a_journal_it_created_once() {
        let dir = scratch("sync");
        let path = dir.join("j.jsonl");
        let j = Journal::open(&path, true).unwrap();
        assert!(j.new_entry.load(Ordering::Relaxed), "open created the file");
        j.append(5, 7, &rec(7)).unwrap();
        j.sync().unwrap();
        assert!(!j.new_entry.load(Ordering::Relaxed), "the directory was synced");
        j.sync().unwrap();
        // a journal that was already there has no new entry to sync
        let again = Journal::open(&path, true).unwrap();
        assert!(!again.new_entry.load(Ordering::Relaxed));
        assert!(again.get(5, 7).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn loading_a_journal_that_is_not_there_creates_nothing() {
        let dir = scratch("missing");
        let missing = dir.join("nested").join("j.jsonl");
        let err = Journal::open(&missing, false).err().expect("nothing to load");
        assert_eq!(err.kind, io::ErrorKind::NotFound);
        assert!(!missing.parent().unwrap().exists(), "not even the directory");
        // one that is there loads as it is, and stays as it was
        let path = dir.join("j.jsonl");
        Journal::open(&path, true).unwrap().append(5, 7, &rec(7)).unwrap();
        let body = fs::read(&path).unwrap();
        let j = Journal::open(&path, false).unwrap();
        assert_eq!(j.get(5, 7).unwrap().digest, rec(7).digest);
        assert!(!j.new_entry.load(Ordering::Relaxed));
        assert_eq!(fs::read(&path).unwrap(), body, "a load leaves the file as it was");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_unopenable_journal_is_an_error_not_a_panic() {
        // works as root too: no permission bits involved
        let dir = scratch("unopenable");
        let file = dir.join("plain_file");
        fs::write(&file, b"x").unwrap();
        // parent is a regular file (ENOTDIR), and the path is a directory
        assert!(Journal::open(&file.join("x.jsonl"), true).is_err());
        assert!(Journal::open(&dir, true).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_append_keeps_the_replica_and_returns_the_error() {
        let dir = scratch("append_fails");
        let path = dir.join("j.jsonl");
        fs::write(&path, b"").unwrap();
        // a handle that cannot be written: every append fails (EBADF)
        let journal = Journal {
            path: path.clone(),
            file: fs::File::open(&path).unwrap(),
            index: Mutex::default(),
            new_entry: AtomicBool::new(false),
        };
        let sc = Scenario {
            n_hosts: 12,
            ..rec(3).scenario
        };
        let sup = SupervisorConfig::default();
        let opts = RunOptions::default();
        let mut sent = None;
        let inspect = |res: &ScenarioResult| sent = Some(res.ledger.sent_count());
        let step = run_replica(
            &run_scenario_probed,
            Some(&journal),
            &(1, sc),
            0,
            opts,
            &sup,
            inspect,
        );
        let Replica::Fresh {
            record, unjournaled, ..
        } = step
        else {
            panic!("the replica ran and must be kept");
        };
        assert_eq!(record.replica, 0);
        assert!(
            sent.is_some_and(|n| n > 0),
            "the full result was lent once: {sent:?}"
        );
        let err = unjournaled.expect("the failed append is reported");
        assert_eq!(err.path, path);
        assert!(err.to_string().starts_with("journal: "), "{err}");
        assert_eq!(fs::read(&path).unwrap(), b"", "nothing reached the file");
        assert!(journal.get(1, sc.seed).is_none(), "nor the index");
        let _ = fs::remove_dir_all(&dir);
    }

    proptest::proptest! {
        /// Arbitrary bytes, truncated lines and garbled or duplicated
        /// fields never panic the loader, are counted exactly, and do
        /// not stop a valid line after them from resuming.
        #[test]
        fn a_journal_of_arbitrary_lines_opens_counts_and_still_resumes(
            draws in proptest::collection::vec(
                (0u8..4, proptest::collection::vec(proptest::any::<u8>(), 0..120), 0.0..1.0f64),
                0..12,
            ),
        ) {
            let mut body: Vec<u8> = Vec::new();
            let mut bad = 0;
            for (i, (kind, bytes, cut)) in draws.iter().enumerate() {
                let good = encode_line(i as u64, 7, &rec(7));
                let line: Vec<u8> = match kind {
                    0 => {
                        // raw bytes (invalid UTF-8 included); `#` keeps the
                        // line from being blank, which is skipped uncounted
                        bad += 1;
                        let mut l = vec![b'#'];
                        l.extend(bytes.iter().map(|&b| if b == b'\n' { b' ' } else { b }));
                        l
                    }
                    1 => {
                        bad += 1;
                        let keep = 1 + (cut * (good.len() - 2) as f64) as usize;
                        good.as_bytes()[..keep].to_vec()
                    }
                    2 => {
                        bad += 1;
                        good.replace("\"seed\":7", "\"seed\":banana").into_bytes()
                    }
                    // a duplicated field is read first-wins: still a record
                    _ => good.replace("\"seed\":7", "\"seed\":7,\"seed\":8").into_bytes(),
                };
                body.extend(line);
                body.push(b'\n');
            }
            body.extend(encode_line(u64::MAX, 9, &rec(9)).into_bytes());
            body.push(b'\n');
            let dir = scratch("arbitrary");
            let path = dir.join("j.jsonl");
            fs::write(&path, &body).unwrap();
            let journal = Journal::open(&path, true).expect("damage inside the file is not an open failure");
            proptest::prop_assert_eq!(journal.anomalies(), bad);
            proptest::prop_assert!(journal.get(u64::MAX, 9).is_some(), "the valid tail resumes");
            for (i, (kind, ..)) in draws.iter().enumerate() {
                proptest::prop_assert_eq!(journal.get(i as u64, 7).is_some(), *kind == 3);
            }
            let _ = fs::remove_dir_all(&dir);
        }
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
    fn the_paper_base_journal_key_is_pinned() {
        // The key folds the fault plan's `Debug` form, so adding, removing
        // or renaming a `FaultPlan` field re-keys every journal: a resumed
        // sweep then reruns its journaled replicas once.  A deliberate
        // re-key updates this value (and `serve`'s twin) and says so in
        // CHANGES.md.
        let sc = Scenario::paper_base(crate::ProtocolKind::Ecgrid, 1.0, 42);
        assert_eq!(config_hash(&sc, &RunOptions::default()), 0xcf64_0346_84cb_525d);
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
