//! Regenerates every figure of the paper in one go and prints the
//! paper-vs-measured summary (EXPERIMENTS.md is derived from this output).
//!
//! Supervision flags (each also settable via its environment variable):
//!
//! ```sh
//! experiments [--journal FILE.jsonl] [--max-retries N] [--event-budget N]
//! #            ECGRID_JOURNAL         ECGRID_MAX_RETRIES ECGRID_EVENT_BUDGET
//! ```
//!
//! Every sweep runs supervised (DESIGN.md §9).  With `--journal`, each
//! completed replica is checkpointed; rerunning after a crash or kill
//! skips the journaled work and reproduces the same figures.

use std::fmt::Display;
use std::str::FromStr;

fn fail(msg: impl Display) -> ! {
    eprintln!("experiments: {msg}");
    std::process::exit(1);
}

fn parse_val<T: FromStr>(flag: &str, v: &str) -> T
where
    T::Err: Display,
{
    v.parse()
        .unwrap_or_else(|e| fail(format!("{flag}: invalid value {v:?}: {e}")))
}

fn main() {
    let mut opts = runner::figures::FigOpts::from_env();
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < args.len() {
        let k = &args[i];
        let Some(v) = args.get(i + 1) else {
            fail(format!("flag {k} needs a value"));
        };
        match k.as_str() {
            "--journal" => opts.journal = Some(v.into()),
            "--max-retries" => opts.max_retries = parse_val(k, v),
            "--event-budget" => opts.event_budget = Some(parse_val(k, v)),
            "--replicas" => opts.replicas = parse_val(k, v),
            other => fail(format!(
                "unknown flag {other} (expected --journal/--max-retries/--event-budget/--replicas)"
            )),
        }
        i += 2;
    }
    eprintln!(
        "running all experiments (replicas={}, fast={}, supervised: retries={} budget={:?} journal={:?})",
        opts.replicas, opts.fast, opts.max_retries, opts.event_budget, opts.journal
    );
    print!("{}", runner::figures::fig4(&opts));
    print!("{}", runner::figures::fig5(&opts));
    print!("{}", runner::figures::fig6(&opts));
    print!("{}", runner::figures::fig7(&opts));
    print!("{}", runner::figures::fig8(&opts));
}
