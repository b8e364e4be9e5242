//! The repository benchmark.  See `perfbench/README.md`.
//!
//! ```text
//! benchmark --workload NAME|all [--seed S] [--seconds T] [--reps R]
//!           [--trace [0|1]] [--smoke] [--out FILE] [--bless]
//! benchmark --compare A.json B.json
//! ```

mod alloc;
mod bench;
mod calib;
mod core;
mod fleet;
mod json;
mod kernels;
mod report;
mod span;
mod stats;
#[cfg(test)]
mod tests;
mod workloads;

use bench::{Settings, WorkloadReport, DEFAULT_SEED};
use report::{Declaration, RunInfo};
use span::Tracer;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

const USAGE: &str = "usage: benchmark --workload NAME|all [--seed S] [--seconds T] [--reps R] \
[--trace [0|1]] [--smoke] [--out FILE] [--bless]\n       benchmark --compare A.json B.json";

struct Cli {
    workload: String,
    seed: u64,
    seconds: Option<f64>,
    reps: Option<usize>,
    traced: bool,
    smoke: bool,
    bless: bool,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: "all".into(),
        seed: DEFAULT_SEED,
        seconds: None,
        reps: None,
        traced: false,
        smoke: false,
        bless: false,
        out: None,
        compare: None,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => cli.workload = value("a workload name or `all`")?,
            "--seed" => {
                let v = value("an integer")?;
                cli.seed = v.parse().map_err(|_| format!("--seed `{v}` is not an integer"))?;
            }
            "--seconds" => {
                let v = value("a number of seconds")?;
                let secs: f64 = v
                    .parse()
                    .map_err(|_| format!("--seconds `{v}` is not a number"))?;
                if !(secs > 0.0 && secs <= 600.0) {
                    return Err(format!("--seconds {v} is outside (0, 600]"));
                }
                cli.seconds = Some(secs);
            }
            "--reps" => {
                let v = value("a count")?;
                cli.reps = Some(v.parse().map_err(|_| format!("--reps `{v}` is not a count"))?);
            }
            "--trace" => {
                // a bare flag, or the driver's `--trace 0|1`
                cli.traced = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => cli.smoke = true,
            "--bless" => cli.bless = true,
            "--out" => cli.out = Some(PathBuf::from(value("a file")?)),
            "--compare" => cli.compare = Some((value("two files")?.into(), value("two files")?.into())),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(cli)
}

/// `git rev-parse HEAD` of the checkout this binary was built from, with
/// `+dirty` when tracked files differ from it; `unknown` outside git.
fn commit() -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    match git(&["rev-parse", "HEAD"]) {
        Some(head) => {
            let dirty = git(&["status", "--porcelain"]).is_some_and(|s| !s.is_empty());
            format!("{head}{}", if dirty { "+dirty" } else { "" })
        }
        None => "unknown".into(),
    }
}

fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let load = |p: &Path| {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let (text, regressed) = report::compare(&load(a)?, &load(b)?, &Declaration::load());
    print!("{text}");
    Ok(regressed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &cli.compare {
        return match compare(a, b) {
            Ok(false) => ExitCode::SUCCESS,
            Ok(true) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("benchmark: {e}");
                ExitCode::from(2)
            }
        };
    }

    let decl = Declaration::load();
    let names: Vec<&str> = if cli.workload == "all" {
        decl.workloads.iter().map(String::as_str).collect()
    } else {
        vec![cli.workload.as_str()]
    };
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let settings = Settings {
        seed: cli.seed,
        seconds: cli
            .seconds
            .unwrap_or(if cli.smoke { 0.0 } else { decl.run_seconds }),
        reps: cli.reps.or(cli.smoke.then_some(1)),
        smoke: cli.smoke,
        traced: cli.traced,
        bless: cli.bless,
        state_dir: bench::default_state_dir(),
        digest_dir: manifest.join("workloads/digests"),
    };
    let info = RunInfo {
        commit: if cli.out.is_some() {
            commit()
        } else {
            "unrecorded".into()
        },
        seed: cli.seed,
        smoke: cli.smoke,
        nproc: manet::host_parallelism(),
        loadavg: std::fs::read_to_string("/proc/loadavg")
            .map(|s| s.trim().to_string())
            .unwrap_or_default(),
    };
    eprintln!(
        "benchmark: seed {} nproc {} loadavg [{}]{}",
        info.seed,
        info.nproc,
        info.loadavg,
        if cli.smoke { " (smoke sizes)" } else { "" }
    );

    let mut tracer = Tracer::new(cli.traced);
    let mut reports: Vec<WorkloadReport> = Vec::new();
    for name in names {
        let Some(mut w) = workloads::make(name, cli.seed, cli.smoke, &settings.state_dir) else {
            eprintln!(
                "benchmark: unknown workload `{name}` (one of {}, or all)\n{USAGE}",
                workloads::NAMES.join(", ")
            );
            return ExitCode::from(2);
        };
        let r = bench::run(w.as_mut(), &settings, &mut tracer);
        report::print_table(&r);
        println!("{}", report::result_line(&r, &decl, cli.traced));
        reports.push(r);
    }

    if cli.traced {
        let path = bench::trace_path(&settings.state_dir);
        match tracer.write_jsonl(&path) {
            Ok(()) => eprintln!(
                "benchmark: {} spans written to {}; root spans cover their runs' wall to within {:.4}%",
                tracer.spans().len(),
                path.display(),
                reports.iter().map(|r| r.span_cover_error).fold(0.0, f64::max) * 100.0
            ),
            Err(e) => eprintln!("benchmark: could not write {}: {e}", path.display()),
        }
        report::print_span_breakdown(tracer.spans());
    }
    if let Some(out) = &cli.out {
        let line = report::record(&info, &reports);
        let history = manifest.join("history/BENCH_history.jsonl");
        if let Err(e) = report::write_record(&line, out, &history) {
            eprintln!("benchmark: could not record the run: {e}");
            return ExitCode::from(2);
        }
    }
    if reports.iter().all(WorkloadReport::correct) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
