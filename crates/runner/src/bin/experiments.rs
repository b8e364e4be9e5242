//! Regenerates the paper's figures — all five, or the ones named with
//! `--fig` — from one supervised sweep, and prints the paper-vs-measured
//! summary (EXPERIMENTS.md is derived from this output).
//!
//! ```sh
//! experiments [--fig N]... [--replicas N]
//!             [--journal FILE.jsonl] [--max-retries N] [--event-budget N]
//! ```
//!
//! `--replicas` defaults to 3 and `--max-retries` to 2.  Two environment
//! variables have no flag: `ECGRID_FAST=1` shrinks the campaign to a smoke
//! run and `ECGRID_RESULTS_DIR` moves the CSVs out of `results/`.
//!
//! Every distinct point of the requested figures is simulated once
//! (Figs. 4/5 and 6/7 share their runs, Fig. 8 contains Fig. 4's 100-host
//! rows), supervised (DESIGN.md §9).  With `--journal`, each completed
//! replica is checkpointed; rerunning after a crash or kill skips the
//! journaled work and reproduces the same figures.

use runner::cli::Usage;
use runner::figures::{Campaign, FigOpts, Figure};

const USAGE: Usage = Usage {
    prog: "experiments",
    help_hint: false,
};

fn main() {
    let mut opts = FigOpts::from_env();
    let mut figures = Vec::new();
    let args: Vec<String> = std::env::args().collect();
    let mut flags = USAGE.args(&args[1..]);
    while let Some(k) = flags.flag() {
        match k {
            "--fig" => {
                let n = flags.parse(k);
                figures.push(
                    Figure::from_number(n)
                        .unwrap_or_else(|| USAGE.fail(format!("--fig: no figure {n} (expected 4..8)"))),
                )
            }
            "--journal" => opts.journal = Some(flags.value(k).into()),
            "--max-retries" => opts.max_retries = flags.parse(k),
            "--event-budget" => opts.event_budget = Some(flags.parse(k)),
            "--replicas" => {
                opts.replicas = flags.parse(k);
                if opts.replicas == 0 {
                    USAGE.fail("--replicas: must be at least 1");
                }
            }
            other => flags.unknown(other),
        }
    }
    if figures.is_empty() {
        figures = Figure::ALL.to_vec();
    }
    let campaign = Campaign::new(&opts, &figures);
    eprintln!("running figures {:?} ({opts:?})", campaign.figures);
    let results = campaign.run(&opts).unwrap_or_else(|e| USAGE.fail(e));
    for figure in &campaign.figures {
        figure.render(&opts, &results).publish();
    }
}
