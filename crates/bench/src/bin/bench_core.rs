//! Emit the repo's perf baseline: `BENCH_core.json`.
//!
//! Runs the core scaling family (see `core_scaling`) at N ∈ {50, 100,
//! 200, 500, 1000, 5000, 10000} and writes a machine-readable report:
//!
//! * `receiver_discovery` — one discovery round through the simulator's
//!   own query path (`World::neighbors_of`): brute node-table scan vs the
//!   maintained bucket index — the headline number;
//! * `geometry_kernel` — the same query over a bare position array, a
//!   lower bound that isolates index overhead from node-state traffic;
//!   the `auto` column routes through the simulator's occupancy
//!   crossover (`auto_gather_threshold`), which is what kills the
//!   historical low-N regression of the raw grid round;
//! * `carrier_sense` — one sensing round over a loaded channel, linear
//!   scan vs bucketed transmissions;
//! * `end_to_end` — the full simulator on the same constant-density
//!   scenario under both `NeighborIndex` modes, with a digest-equality
//!   check so the speedup is never bought with a behavior change;
//! * the `parallel` column inside `end_to_end` — the same grid-mode
//!   scenario on the sharded conservative-sync engine (4 strips), digest-
//!   checked against the serial run (DESIGN.md §12);
//! * the `threaded` column — the sharded engine with 4 worker lanes
//!   fanning the host-plane kernels out over real threads (DESIGN.md
//!   §14), digest-checked too.  Its wall time can only beat the sharded
//!   column when the host has cores to give it, so the report records
//!   `host_parallelism`.  Both engine columns are ratios against the
//!   serial engine and carry no `--check` floor: a floor there trips
//!   whenever the serial path itself gets faster.
//!
//! ```sh
//! cargo run --release -p ecgrid-bench --bin bench_core -- --quick --check --out BENCH_core.json
//! ```
//!
//! `--quick` shrinks repetitions and the simulated horizon and caps the
//! ladder at N = 1000 for CI; the measured ratios are the same, just
//! noisier.  `--check` turns the report into a regression gate: exit 1
//! unless digests match at every scale and, at every N ≤ 200 (the low-N
//! band where a naive bucket index historically regressed), every
//! section holds ≥ 0.9x of brute — end-to-end keeps its stricter 0.95x
//! floor, and the geometry kernel is judged on its `auto` column.

use ecgrid_bench::core_scaling::{
    broadcast_round_auto, broadcast_round_brute, broadcast_round_grid, build_index, build_world,
    carrier_sense_round, discovery_sweep, field_side, loaded_channel, placements, run_end_to_end_parallel,
    EndToEnd, QUICK_MAX_N, SCALES,
};
use manet::{host_parallelism, NeighborIndex};
use runner::write_atomic;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Time `f` over `reps` repetitions and return the *minimum* wall time in
/// nanoseconds (minimum-of-reps is the standard noise floor estimator for
/// short deterministic kernels).
fn time_ns(reps: usize, mut f: impl FnMut() -> u64) -> (f64, u64) {
    let mut best = f64::INFINITY;
    let mut check = 0u64;
    for _ in 0..reps.max(2) {
        let start = Instant::now();
        check = f();
        let ns = start.elapsed().as_nanos() as f64;
        if ns < best {
            best = ns;
        }
    }
    (best, check)
}

struct ScaleReport {
    n: usize,
    field_m: f64,
    rd_brute_ns: f64,
    rd_grid_ns: f64,
    gk_brute_ns: f64,
    gk_grid_ns: f64,
    gk_auto_ns: f64,
    cs_brute_ns: f64,
    cs_grid_ns: f64,
    e2e_brute_s: f64,
    e2e_grid_s: f64,
    e2e_par_s: f64,
    e2e_thr_s: f64,
    e2e_events: u64,
    digest_match: bool,
}

/// Strip count of the parallel end-to-end column.
const PAR_SHARDS: usize = 4;

/// Worker-lane count of the threaded end-to-end column.
const PAR_THREADS: usize = 4;

impl ScaleReport {
    fn rd_speedup(&self) -> f64 {
        self.rd_brute_ns / self.rd_grid_ns
    }
    fn gk_speedup(&self) -> f64 {
        self.gk_brute_ns / self.gk_grid_ns
    }
    /// The adaptive round vs brute — the number the low-N gate holds.
    fn gk_auto_speedup(&self) -> f64 {
        self.gk_brute_ns / self.gk_auto_ns
    }
    fn cs_speedup(&self) -> f64 {
        self.cs_brute_ns / self.cs_grid_ns
    }
    fn e2e_speedup(&self) -> f64 {
        self.e2e_brute_s / self.e2e_grid_s
    }
    /// Sharded engine vs the serial grid-mode run (same scenario).
    fn par_speedup(&self) -> f64 {
        self.e2e_grid_s / self.e2e_par_s
    }
    /// Threaded engine vs the sharded single-lane run (same scenario).
    fn thr_speedup(&self) -> f64 {
        self.e2e_par_s / self.e2e_thr_s
    }
}

fn json_f(x: f64) -> String {
    // JSON has no Infinity/NaN; clamp degenerate timings defensively
    if x.is_finite() {
        format!("{x:.4}")
    } else {
        "null".into()
    }
}

fn render_json(quick: bool, scales: &[ScaleReport]) -> String {
    let mut s = String::new();
    let headline = scales
        .iter()
        .find(|r| r.n == 500)
        .map(|r| r.rd_speedup())
        .unwrap_or(f64::NAN);
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"bench\": \"core_scaling\",");
    let _ = writeln!(s, "  \"quick\": {quick},");
    let _ = writeln!(s, "  \"range_m\": 250.0,");
    let _ = writeln!(s, "  \"density_hosts_per_km2\": 100.0,");
    let _ = writeln!(s, "  \"host_parallelism\": {},", host_parallelism());
    let _ = writeln!(
        s,
        "  \"receiver_discovery_speedup_at_500\": {},",
        json_f(headline)
    );
    let _ = writeln!(s, "  \"scales\": [");
    for (i, r) in scales.iter().enumerate() {
        let _ = writeln!(s, "    {{");
        let _ = writeln!(s, "      \"n\": {},", r.n);
        let _ = writeln!(s, "      \"field_m\": {},", json_f(r.field_m));
        let _ = writeln!(
            s,
            "      \"receiver_discovery\": {{\"brute_round_ns\": {}, \"grid_round_ns\": {}, \"speedup\": {}}},",
            json_f(r.rd_brute_ns),
            json_f(r.rd_grid_ns),
            json_f(r.rd_speedup())
        );
        let _ = writeln!(
            s,
            "      \"geometry_kernel\": {{\"brute_round_ns\": {}, \"grid_round_ns\": {}, \"speedup\": {}, \"auto_round_ns\": {}, \"auto_speedup\": {}}},",
            json_f(r.gk_brute_ns),
            json_f(r.gk_grid_ns),
            json_f(r.gk_speedup()),
            json_f(r.gk_auto_ns),
            json_f(r.gk_auto_speedup())
        );
        let _ = writeln!(
            s,
            "      \"carrier_sense\": {{\"brute_round_ns\": {}, \"grid_round_ns\": {}, \"speedup\": {}}},",
            json_f(r.cs_brute_ns),
            json_f(r.cs_grid_ns),
            json_f(r.cs_speedup())
        );
        let _ = writeln!(
            s,
            "      \"end_to_end\": {{\"brute_wall_s\": {}, \"grid_wall_s\": {}, \"speedup\": {}, \"parallel_wall_s\": {}, \"parallel_shards\": {PAR_SHARDS}, \"parallel_speedup\": {}, \"threads\": {PAR_THREADS}, \"threaded_wall_s\": {}, \"threaded_speedup\": {}, \"events\": {}, \"digest_match\": {}}}",
            json_f(r.e2e_brute_s),
            json_f(r.e2e_grid_s),
            json_f(r.e2e_speedup()),
            json_f(r.e2e_par_s),
            json_f(r.par_speedup()),
            json_f(r.e2e_thr_s),
            json_f(r.thr_speedup()),
            r.e2e_events,
            r.digest_match
        );
        let _ = writeln!(s, "    }}{}", if i + 1 < scales.len() { "," } else { "" });
    }
    let _ = writeln!(s, "  ]");
    let _ = writeln!(s, "}}");
    s
}

/// Run the end-to-end scenario `reps` times and keep the fastest wall
/// time (small-N runs are sub-second, where scheduler noise dominates).
/// Digests must agree across repetitions — the runs are deterministic.
fn e2e_best_of(
    reps: usize,
    n: usize,
    secs: f64,
    mode: NeighborIndex,
    seed: u64,
    shards: Option<usize>,
    threads: usize,
) -> EndToEnd {
    let mut best = run_end_to_end_parallel(n, secs, mode, seed, shards, threads);
    for _ in 1..reps {
        let r = run_end_to_end_parallel(n, secs, mode, seed, shards, threads);
        assert_eq!(r.digest, best.digest, "n={n}: nondeterministic end-to-end run");
        if r.wall_s < best.wall_s {
            best = r;
        }
    }
    best
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let check = args.iter().any(|a| a == "--check");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_core.json".into());

    let base_reps = if quick { 5 } else { 20 };
    let seed = 42;
    let scales: Vec<usize> = SCALES
        .iter()
        .copied()
        .filter(|&n| !quick || n <= QUICK_MAX_N)
        .collect();

    let mut reports = Vec::new();
    for &n in &scales {
        // the brute rounds are O(N²) — past 1k hosts a handful of reps
        // already dwarfs the noise floor; tiny populations are the
        // opposite problem (microsecond rounds under a 0.9x gate), so
        // they get a deeper min-of to push timer noise below the floor
        let micro_reps = match n {
            n if n > 1000 => 3,
            n if n <= 200 => base_reps * 10,
            _ => base_reps,
        };
        // small populations simulate in milliseconds, where timer noise
        // swamps any real mode difference — stretch their horizon so the
        // wall times are tens of milliseconds; shrink it at the top of
        // the ladder where the brute leg alone costs minutes
        let e2e_secs = match n {
            n if n <= 200 => 120.0,
            n if n > 1000 => 10.0,
            _ if quick => 10.0,
            _ => 30.0,
        };
        // short runs at small N additionally need best-of to beat noise;
        // the mid-ladder gets best-of-2 (single-digit-second runs still
        // wobble a few percent under scheduler noise)
        let e2e_reps = match n {
            n if n <= 200 => 5,
            n if n <= 1000 => 2,
            _ => 1,
        };
        eprintln!("bench_core: n={n} (field {:.0} m)", field_side(n));
        let pts = placements(n, seed);
        let idx = build_index(&pts, n);
        let mut scratch = Vec::new();

        let (gk_brute_ns, sum_b) = time_ns(micro_reps, || broadcast_round_brute(&pts));
        let (gk_grid_ns, sum_g) = time_ns(micro_reps, || broadcast_round_grid(&pts, &idx, &mut scratch));
        assert_eq!(sum_b, sum_g, "n={n}: receiver sets diverged");
        let (gk_auto_ns, sum_a) = time_ns(micro_reps, || broadcast_round_auto(&pts, &idx, &mut scratch));
        assert_eq!(sum_b, sum_a, "n={n}: adaptive receiver set diverged");

        let w_brute = build_world(n, 1.0, NeighborIndex::Brute, seed);
        let w_grid = build_world(n, 1.0, NeighborIndex::Grid, seed);
        let (rd_brute_ns, sw_b) = time_ns(micro_reps, || discovery_sweep(&w_brute));
        let (rd_grid_ns, sw_g) = time_ns(micro_reps, || discovery_sweep(&w_grid));
        assert_eq!(sw_b, sw_g, "n={n}: simulator discovery sweeps diverged");

        // channel load scales with population: ~6% of hosts on the air.
        // The bucketed leg follows the simulator's own policy: the world
        // only enables the channel's spatial structure above the
        // occupancy crossover (few in-flight transmissions make bucket
        // maintenance pure overhead — the same low-N regression the
        // geometry kernel's auto column kills), so below it both legs
        // run the linear scan the simulator would actually run
        let k = (n / 16).max(4);
        let spatial = n > ecgrid_bench::core_scaling::channel_spatial_threshold();
        let plain = loaded_channel(&pts, k, n, false);
        let fast = loaded_channel(&pts, k, n, spatial);
        let (cs_brute_ns, cs_b) = time_ns(micro_reps, || carrier_sense_round(&plain, &pts));
        let (cs_grid_ns, cs_g) = time_ns(micro_reps, || carrier_sense_round(&fast, &pts));
        assert_eq!(cs_b, cs_g, "n={n}: carrier-sense verdicts diverged");

        let brute = e2e_best_of(e2e_reps, n, e2e_secs, NeighborIndex::Brute, seed, None, 1);
        let grid = e2e_best_of(e2e_reps, n, e2e_secs, NeighborIndex::Grid, seed, None, 1);
        let par = e2e_best_of(
            e2e_reps,
            n,
            e2e_secs,
            NeighborIndex::Grid,
            seed,
            Some(PAR_SHARDS),
            1,
        );
        let thr = e2e_best_of(
            e2e_reps,
            n,
            e2e_secs,
            NeighborIndex::Grid,
            seed,
            Some(PAR_SHARDS),
            PAR_THREADS,
        );
        let digest_match = brute.digest == grid.digest
            && brute.events == grid.events
            && par.digest == grid.digest
            && par.events == grid.events
            && thr.digest == grid.digest
            && thr.events == grid.events;
        assert!(digest_match, "n={n}: end-to-end digests diverged across modes");

        let r = ScaleReport {
            n,
            field_m: field_side(n),
            rd_brute_ns,
            rd_grid_ns,
            gk_brute_ns,
            gk_grid_ns,
            gk_auto_ns,
            cs_brute_ns,
            cs_grid_ns,
            e2e_brute_s: brute.wall_s,
            e2e_grid_s: grid.wall_s,
            e2e_par_s: par.wall_s,
            e2e_thr_s: thr.wall_s,
            e2e_events: grid.events,
            digest_match,
        };
        eprintln!(
            "  receiver discovery {:>6.2}x   geometry kernel {:>5.2}x (auto {:>5.2}x)   carrier sense {:>5.2}x   end-to-end {:>5.2}x   parallel {:>5.2}x   threaded {:>5.2}x ({} events)",
            r.rd_speedup(),
            r.gk_speedup(),
            r.gk_auto_speedup(),
            r.cs_speedup(),
            r.e2e_speedup(),
            r.par_speedup(),
            r.thr_speedup(),
            r.e2e_events
        );
        reports.push(r);
    }

    let body = render_json(quick, &reports);
    write_atomic(Path::new(&out), body.as_bytes()).unwrap_or_else(|e| {
        eprintln!("bench_core: cannot write {out}: {e}");
        std::process::exit(1);
    });
    eprintln!("bench_core: wrote {out}");
    let headline = reports
        .iter()
        .find(|r| r.n == 500)
        .map(|r| r.rd_speedup())
        .unwrap_or(0.0);
    println!("receiver_discovery_speedup_at_500: {headline:.2}");

    if check {
        let mut failures = Vec::new();
        for r in &reports {
            if !r.digest_match {
                failures.push(format!("n={}: end-to-end digests diverged across modes", r.n));
            }
            // the low-N band where bucket overhead historically made the
            // grid path a pessimization: every section must hold ≥ 0.9x
            // of brute there (the geometry kernel is judged on its
            // adaptive column — that crossover is the fix; the raw grid
            // round legitimately loses below it and stays informational)
            if r.n <= 200 {
                for (section, speedup) in [
                    ("receiver discovery", r.rd_speedup()),
                    ("geometry kernel (auto)", r.gk_auto_speedup()),
                    ("carrier sense", r.cs_speedup()),
                ] {
                    if speedup < 0.9 {
                        failures.push(format!(
                            "n={}: {section} regressed to {speedup:.2}x of brute (floor 0.9x)",
                            r.n
                        ));
                    }
                }
                // end-to-end keeps its historical, stricter floor
                if r.e2e_speedup() < 0.95 {
                    failures.push(format!(
                        "n={}: grid end-to-end regressed to {:.2}x of brute (floor 0.95x)",
                        r.n,
                        r.e2e_speedup()
                    ));
                }
            }
        }
        // The sharded and threaded columns are informational: both are
        // ratios against the serial engine, so a floor on them would fail
        // the job whenever the *serial* path gets faster.  The digest
        // check above still holds both engines to bit-exactness.
        for r in reports.iter().filter(|r| r.n >= 1000) {
            eprintln!(
                "bench_core: n={}: sharded {:.2}x of serial, threaded {:.2}x of sharded (host_parallelism {}; informational)",
                r.n,
                r.par_speedup(),
                r.thr_speedup(),
                host_parallelism()
            );
        }
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("bench_core: CHECK FAILED: {f}");
            }
            std::process::exit(1);
        }
        eprintln!(
            "bench_core: check passed (digest_match at all {} scales, no low-N regression)",
            reports.len()
        );
    }
}
