//! The method common to every workload: a timed pass with tracing off, a
//! verify pass that yields digests and exact counts, and — on request — a
//! traced pass that produces the per-layer table.

use crate::alloc;
use crate::calib::{Calibrator, HostSpeed};
use crate::core::{LayerCtx, Metric, RepRun, Variant, Verified, Workload};
use crate::fleet::substrate_ns_per_event;
use crate::kernels;
use crate::span::Tracer;
use crate::stats::median;
use crate::workloads::hetero_mobile::SCN;
use std::path::{Path, PathBuf};
use std::time::Instant;

pub const DEFAULT_SEED: u64 = 42;

/// Event domains `manet.dispatch.<domain>.count` reports.
pub const DOMAINS: [&str; 8] = [
    "mac_try_tx",
    "tx_end",
    "timer",
    "ack_done",
    "app_send",
    "cell_crossing",
    "page",
    "sample",
];

pub struct Settings {
    pub seed: u64,
    /// How long the timed pass measures.
    pub seconds: f64,
    /// Exact body count instead of a time limit.
    pub reps: Option<usize>,
    pub smoke: bool,
    pub traced: bool,
    /// Rewrite the pinned digests instead of checking them.
    pub bless: bool,
    /// Scratch space (server state, journals, the span file).
    pub state_dir: PathBuf,
    /// `workloads/digests/` of this package.
    pub digest_dir: PathBuf,
}

/// `<target dir>/benchmark`: inside the checkout, ignored by git.
pub fn default_state_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target"))
        .join("benchmark")
}

/// Where spans are written when a traced run ends.
pub fn trace_path(state_dir: &Path) -> PathBuf {
    state_dir.join("trace.jsonl")
}

pub struct WorkloadReport {
    pub name: &'static str,
    pub sizes: String,
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Vec<Metric>,
    /// The raw timings behind the calibrated rate; the whole layer table
    /// when the run was traced.
    pub per_layer: Vec<Metric>,
    /// Why operations failed, for the log.
    pub complaints: Vec<String>,
    /// Largest relative gap between a traced body's root span (self time
    /// plus child cover) and the same interval timed independently.
    pub span_cover_error: f64,
}

impl WorkloadReport {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// Operations attempted and failed, with the reasons.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    complaints: Vec<String>,
}

impl Tally {
    /// One check that counts as an operation.
    fn check(&mut self, ok: bool, complaint: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.complaints.push(complaint());
        }
    }

    /// Operations a body or pass ran itself.
    fn add(&mut self, ops: u64, failed: u64, what: impl FnOnce() -> String) {
        self.attempted += ops;
        self.failed += failed;
        if failed > 0 {
            self.complaints
                .push(format!("{failed} operations failed in {}", what()));
        }
    }
}

/// Per-rep samples of a timed pass.
#[derive(Default)]
struct Timed {
    /// Setup times, calibrated seconds.
    setups: Vec<f64>,
    /// Body walls as measured.
    walls: Vec<f64>,
    /// `nominal ÷ measured` calibration-kernel speed around each body
    /// (1 for a workload that is not calibrated).
    factors: Vec<f64>,
    /// Peak live heap growth over setup + body, bytes.
    peaks: Vec<f64>,
    prints: Vec<u64>,
}

impl Timed {
    /// Body walls in calibrated seconds.
    fn cal_walls(&self) -> Vec<f64> {
        self.walls.iter().zip(&self.factors).map(|(w, k)| w * k).collect()
    }
}

/// Timed bodies until the limit, each between two calibration samples.
fn timed_pass(
    w: &mut dyn Workload,
    speed: &mut HostSpeed,
    limit_s: f64,
    reps: Option<usize>,
    min_reps: usize,
    tally: &mut Tally,
) -> Timed {
    let mut off = Tracer::new(false);
    let mut t = Timed::default();
    let start = Instant::now();
    loop {
        let live = alloc::reset_peak();
        let ((setup_s, wall_s, rep, peak), factor) = speed.around(|| {
            let t0 = Instant::now();
            w.setup(&mut off);
            let t1 = Instant::now();
            let rep = w.body(&mut off);
            let t2 = Instant::now();
            let peak = alloc::peak_bytes() - live;
            w.teardown();
            ((t1 - t0).as_secs_f64(), (t2 - t1).as_secs_f64(), rep, peak)
        });
        t.setups.push(setup_s * factor);
        t.walls.push(wall_s);
        t.factors.push(factor);
        t.peaks.push(peak as f64);
        t.prints.push(rep.fingerprint);
        tally.add(rep.ops, rep.failed, || format!("timed body {}", t.walls.len()));
        let done = match reps {
            Some(n) => t.walls.len() >= n.max(1),
            None => t.walls.len() >= min_reps && start.elapsed().as_secs_f64() >= limit_s,
        };
        if done {
            return t;
        }
    }
}

/// The representative run under `v` in calibrated seconds: up to three
/// repeats inside one second, median wall (a single short run is mostly
/// scheduler noise).
fn rep_median(w: &mut dyn Workload, v: Variant, speed: &mut HostSpeed, tr: &mut Tracer) -> RepRun {
    let start = Instant::now();
    let mut runs = Vec::new();
    while runs.is_empty() || (runs.len() < 3 && start.elapsed().as_secs_f64() < 1.0) {
        let (mut run, factor) = speed.around(|| w.rep_run(v, tr));
        run.wall_s *= factor;
        runs.push(run);
    }
    let walls: Vec<f64> = runs.iter().map(|r| r.wall_s).collect();
    RepRun {
        wall_s: median(&walls),
        ..runs[0]
    }
}

fn render_digests(digests: &[(String, u64)]) -> String {
    digests.iter().map(|(l, d)| format!("{l} {d:016x}\n")).collect()
}

/// Checks shared by both modes: every body reproduced the verify pass,
/// a sharded (K = 4) repeat of the representative run is digest-identical
/// to the serial one, and the pinned digests hold at the default seed.
fn check_outputs(
    name: &str,
    s: &Settings,
    prints: &[u64],
    v: &Verified,
    sharded: &RepRun,
    tally: &mut Tally,
) {
    tally.add(v.ops, v.failed, || "the verify pass".into());
    for (i, p) in prints.iter().enumerate() {
        tally.check(*p == v.fingerprint, || {
            format!(
                "timed body {i} produced outputs {p:016x}, the verify pass {:016x}",
                v.fingerprint
            )
        });
    }
    tally.check(sharded.digest == Some(v.rep_digest), || {
        format!(
            "sharded K=4 digest {:016x?} differs from the serial {:016x}",
            sharded.digest, v.rep_digest
        )
    });
    if s.seed == DEFAULT_SEED && !s.smoke {
        let path = s.digest_dir.join(format!("{name}.digest"));
        let now = render_digests(&v.digests);
        if s.bless {
            std::fs::create_dir_all(&s.digest_dir).expect("create the digest directory");
            std::fs::write(&path, &now).expect("write the pinned digests");
        } else {
            let pinned = std::fs::read_to_string(&path).unwrap_or_default();
            tally.check(pinned == now, || {
                format!(
                    "digests at seed {DEFAULT_SEED} differ from {} (rerun with --bless after a deliberate change)\n-- pinned\n{pinned}-- now\n{now}",
                    path.display()
                )
            });
        }
    }
}

pub fn run(w: &mut dyn Workload, s: &Settings, tr: &mut Tracer) -> WorkloadReport {
    let name = w.name();
    let mut tally = Tally::default();
    let mut speed = HostSpeed::new(
        w.calibration_ns()
            .map(|nominal| Calibrator::new(w.hosts(), nominal, s.smoke)),
    );

    // ---- timed pass: trace off, what a user gets ---------------------------
    let (limit, min_reps) = match (s.smoke, s.traced) {
        (true, _) => (0.0, 1),
        (false, true) => (s.seconds / 3.0, 2),
        (false, false) => (s.seconds, 3),
    };
    let timed = timed_pass(w, &mut speed, limit, s.reps, min_reps, &mut tally);

    // ---- traced bodies: the same pass under harness spans ------------------
    let mut traced_walls = Vec::new();
    let mut span_cover_error: f64 = 0.0;
    if s.traced {
        let start = Instant::now();
        while traced_walls.is_empty() || (s.reps.is_none() && start.elapsed().as_secs_f64() < s.seconds / 6.0)
        {
            tr.set_run(format!("{name}/rep{}", traced_walls.len()));
            let root = tr.spans().len();
            let ((wall, outside_ns), factor) = speed.around(|| {
                let outside = Instant::now();
                let wall = tr.span(&format!("workload.{name}"), |tr| {
                    tr.span("setup", |tr| w.setup(tr));
                    let t = Instant::now();
                    tr.span("body", |tr| w.body(tr));
                    t.elapsed().as_secs_f64()
                });
                let outside_ns = outside.elapsed().as_nanos() as f64;
                w.teardown();
                (wall, outside_ns)
            });
            let spanned_ns = tr.spans()[root].duration_ns() as f64;
            span_cover_error = span_cover_error.max((outside_ns - spanned_ns).abs() / outside_ns);
            traced_walls.push(wall * factor);
        }
        // spans from here on belong to the layer measurements
        tr.set_run(format!("{name}/layers"));
    }

    // ---- verify pass ---------------------------------------------------------
    let allocs_before = alloc::alloc_count();
    let verified = tr.span("verify", |tr| w.verify(tr));
    let allocs = alloc::alloc_count() - allocs_before;
    let sharded = rep_median(w, Variant::Sharded4, &mut speed, tr);
    check_outputs(name, s, &timed.prints, &verified, &sharded, &mut tally);

    let events = verified.counts.events.max(1) as f64;
    let hosts = w.hosts().max(1) as f64;
    let per = |xs: &[f64], f: &dyn Fn(f64) -> f64| xs.iter().map(|x| f(*x)).collect::<Vec<_>>();
    let end_to_end = vec![
        Metric::of("setup_s", "s", &timed.setups),
        Metric::of(
            "events_per_cal_s",
            "1/s",
            &per(&timed.cal_walls(), &|w| events / w),
        ),
        Metric::of("peak_bytes_per_host", "bytes", &per(&timed.peaks, &|p| p / hosts)),
    ];
    // what the calibrated rate is made of, as measured
    let mut per_layer = vec![
        Metric::of("benchmark.wall_s", "s", &timed.walls),
        Metric::of(
            "benchmark.raw_events_per_s",
            "1/s",
            &per(&timed.walls, &|w| events / w),
        ),
        Metric::of("benchmark.host_speed", "ratio", &timed.factors),
    ];
    if s.traced {
        let traced = Traced {
            sharded: &sharded,
            wall_cal_s: median(&timed.cal_walls()),
            traced_walls: &traced_walls,
            allocs,
        };
        per_layer.extend(layers(w, s, tr, &mut speed, &verified, &traced, &mut tally));
    }
    if !speed.samples.is_empty() {
        per_layer.push(Metric::of("benchmark.cal_kernel_ns", "ns", &speed.samples));
    }

    WorkloadReport {
        name,
        sizes: w.sizes(),
        attempted: tally.attempted,
        failed: tally.failed,
        end_to_end,
        per_layer,
        complaints: tally.complaints,
        span_cover_error,
    }
}

/// What the traced pass hands to [`layers`] beside the verify pass.
struct Traced<'a> {
    sharded: &'a RepRun,
    /// Median untraced body wall, calibrated seconds.
    wall_cal_s: f64,
    /// Traced body walls, calibrated seconds.
    traced_walls: &'a [f64],
    /// Allocations during the verify pass.
    allocs: u64,
}

/// The per-layer table: exact counts of the verify pass, the
/// representative run under each engine variant, the substrate run, the
/// layer kernels at the observed operating point, and the workload's own
/// layer metrics.  Walls of whole runs are in calibrated seconds, kernel
/// unit costs as measured.
fn layers(
    w: &mut dyn Workload,
    s: &Settings,
    tr: &mut Tracer,
    speed: &mut HostSpeed,
    verified: &Verified,
    t: &Traced<'_>,
    tally: &mut Tally,
) -> Vec<Metric> {
    let c = &verified.counts;
    let events = c.events.max(1) as f64;
    let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
    let domain = |d: &str| c.domains.get(d).copied().unwrap_or(0) as f64;
    let mut out = vec![
        Metric::one("sim-engine.queue.max_depth", "count", c.max_queue_depth as f64),
        // only observable where the harness owns the world; 0 elsewhere
        Metric::one(
            "sim-engine.pool.high_water",
            "count",
            verified.pool_high_water.unwrap_or(0) as f64,
        ),
    ];
    out.extend(DOMAINS.map(|d| Metric::one(format!("manet.dispatch.{d}.count"), "count", domain(d))));
    out.extend([
        Metric::one(
            "radio.mac.retx_share",
            "share",
            ratio(c.retransmissions, c.unicasts),
        ),
        Metric::one("radio.mac.drop_share", "share", ratio(c.mac_drops, c.unicasts)),
        Metric::one(
            "radio.channel.corrupted_share",
            "share",
            ratio(c.corrupted, c.frames_delivered + c.corrupted),
        ),
        Metric::one("mobility.cell_crossings", "count", c.cell_crossings as f64),
        Metric::one(
            "trace.events_per_dispatch",
            "ratio",
            c.trace_events as f64 / events,
        ),
        Metric::one(
            "ecgrid.pages.woken_share",
            "share",
            ratio(c.pages_woken, c.pages_sent),
        ),
        Metric::one(
            "fault.frames_lost_share",
            "share",
            ratio(c.frames_lost_fault, c.frames_delivered + c.frames_lost_fault),
        ),
        Metric::one("manet.allocs_per_event", "ratio", t.allocs as f64 / events),
    ]);

    // ---- the representative ECGRID run under each engine variant ----------------
    let off = rep_median(w, Variant::Off, speed, tr);
    let digest = rep_median(w, Variant::Digest, speed, tr);
    let mut variant = |v: Variant, label: &str| {
        let run = rep_median(w, v, speed, tr);
        tally.check(run.digest == Some(verified.rep_digest), || {
            format!(
                "the {label} variant's digest {:016x?} differs from the verify pass's {:016x}",
                run.digest, verified.rep_digest
            )
        });
        run
    };
    let full = variant(Variant::Full, "full-trace");
    let calendar = variant(Variant::Calendar, "calendar");
    let brute = variant(Variant::Brute, "brute");
    let threads2 = (manet::host_parallelism() >= 2).then(|| variant(Variant::Threads2, "threaded"));
    let run_ns = off.wall_s * 1e9 / digest.events.max(1) as f64;
    let fleet = w.fleet();
    let substrate = substrate_ns_per_event(&fleet, speed, tr);
    out.extend([
        Metric::one("manet.run.ns_per_event", "ns", run_ns),
        Metric::one(
            "trace.digest_overhead_pct",
            "%",
            (digest.wall_s / off.wall_s - 1.0) * 100.0,
        ),
        Metric::one(
            "trace.full_overhead_pct",
            "%",
            (full.wall_s / off.wall_s - 1.0) * 100.0,
        ),
        // base of the engine ratios: the serial heap grid-index run under
        // digest-only tracing, like every variant
        Metric::one(
            "manet.engine.sharded4_speedup",
            "ratio",
            digest.wall_s / t.sharded.wall_s,
        ),
        Metric::one(
            "manet.engine.calendar_speedup",
            "ratio",
            digest.wall_s / calendar.wall_s,
        ),
        Metric::one(
            "manet.engine.brute_slowdown",
            "ratio",
            brute.wall_s / digest.wall_s,
        ),
        match threads2 {
            Some(run) => Metric::one(
                "manet.engine.threads2_speedup",
                "ratio",
                digest.wall_s / run.wall_s,
            ),
            None => Metric::unmeasured("manet.engine.threads2_speedup", "ratio"),
        },
        Metric::one("manet.substrate.ns_per_event", "ns", substrate),
        Metric::one("ecgrid.handler.ns_per_event", "ns", run_ns - substrate),
        Metric::one(
            "benchmark.trace_overhead_pct",
            "%",
            (median(t.traced_walls) / t.wall_cal_s - 1.0) * 100.0,
        ),
    ]);

    // ---- kernels at the observed operating point, and the shares they imply --------
    let kernel_metrics = kernels::measure(&fleet, c, SCN, &s.state_dir, s.smoke, tr);
    let ns_of = |name: &str| {
        kernel_metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, Metric::value)
    };
    let busy_ns = t.wall_cal_s * w.workers() as f64 * 1e9;
    out.extend([
        Metric::one(
            "radio.gather_est_share",
            "share",
            c.broadcasts as f64 * ns_of("radio.spatial.gather_ns") / busy_ns,
        ),
        Metric::one(
            "radio.channel_est_share",
            "share",
            (domain("mac_try_tx") * ns_of("radio.channel.busy_until_ns")
                + c.tx_started as f64 * ns_of("radio.channel.begin_tx_ns")
                + (c.frames_delivered + c.corrupted) as f64 * ns_of("radio.channel.corrupted_ns"))
                / busy_ns,
        ),
    ]);
    out.extend(kernel_metrics);

    // ---- what only this workload can measure ------------------------------------------
    let mut ctx = LayerCtx {
        wall_cal_s: t.wall_cal_s,
        substrate_ns_per_event: substrate,
        speed,
    };
    out.extend(tr.span("extras", |tr| w.extras(&mut ctx, tr)));
    out
}
