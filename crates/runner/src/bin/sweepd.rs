//! `sweepd` — the resident sweep service.
//!
//! Listens on a loopback TCP port for line-delimited JSON requests
//! (submit / status / subscribe / result / stats / shutdown), runs each
//! accepted job through the supervised scenario stack, and checkpoints
//! every completed replica to a journal so a restart resumes bit for
//! bit.  See DESIGN.md §13 for the protocol grammar and failure matrix.

use manet::trace::TraceMode;
use runner::cli::Usage;
use runner::supervisor::SupervisorConfig;
use runner::{EcgridJobHandler, RunOptions};
use service::{Server, ServiceConfig};
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const HELP: &str = "\
sweepd — resident sweep service for the ECGRID reproduction

USAGE:
    sweepd [--addr HOST:PORT] [--workers N] [--capacity N]
           [--state-dir DIR] [--sub-buffer N] [--retry-after MS]
           [--event-budget N] [--wall-budget SECS] [--max-retries N]

--addr          listen address (default 127.0.0.1:7171; port 0 = ephemeral)
--workers       concurrent job runners (default 2)
--capacity      admission queue bound; submissions past it are shed with a
                retry-after hint, never queued unboundedly (default 16)
--state-dir     journal + job manifests live here; a restart rescans it,
                requeues interrupted jobs, and replays completed replicas
                from the journal (default target/sweepd)
--sub-buffer    per-subscriber frame buffer; slow subscribers drop frames
                (counted in their bye) rather than stall the sim (default 1024)
--retry-after   hint sent with shed replies, ms (default 500)
--event-budget  per-replica event watchdog (deterministic)
--wall-budget   per-replica wall-clock watchdog, seconds (non-deterministic:
                trips quarantine the replica, never poison the journal)
--max-retries   supervised retries per replica before quarantine (default 2)

Prints `sweepd listening on ADDR` once ready.  SIGINT/SIGTERM (or a
client `shutdown` request) drain gracefully: in-flight replicas finish
and reach the journal, queued jobs are marked interrupted for the next
start, new submissions are refused, and the process exits 0.

EXIT STATUS:  0 clean shutdown · 1 bad usage or bind failure";

const USAGE: Usage = Usage {
    prog: "sweepd",
    help_hint: true,
};

static STOP: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_sig: i32) {
    STOP.store(true, Ordering::SeqCst);
}

/// Route SIGINT and SIGTERM to the drain flag.  Hand-rolled `signal(2)`
/// binding: the handler only touches an atomic, which is async-signal-safe.
#[cfg(unix)]
fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

fn main() {
    let mut cfg = ServiceConfig::default().with_addr("127.0.0.1:7171");
    let mut opts = RunOptions::default();
    let mut sup = SupervisorConfig::default().with_max_retries(2);

    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{HELP}");
        return;
    }
    let mut flags = USAGE.args(&args[1..]);
    while let Some(k) = flags.flag() {
        match k {
            "--addr" => cfg = cfg.with_addr(flags.value(k)),
            "--workers" => cfg = cfg.with_workers(flags.parse::<usize>(k).max(1)),
            "--capacity" => cfg = cfg.with_capacity(flags.parse(k)),
            "--state-dir" => cfg = cfg.with_state_dir(flags.value(k)),
            "--sub-buffer" => cfg = cfg.with_subscriber_buffer(flags.parse::<usize>(k).max(1)),
            "--retry-after" => cfg = cfg.with_retry_after_ms(flags.parse(k)),
            "--event-budget" => opts.event_budget = Some(flags.parse(k)),
            "--wall-budget" => opts.wall_budget_ms = Some(USAGE.wall_budget_ms(k, flags.value(k))),
            "--max-retries" => sup = sup.with_max_retries(flags.parse(k)),
            other => flags.unknown(other),
        }
    }

    // streaming and resume both key off the trace digest, so the service
    // always records (digest-only unless a caller opted into more)
    if opts.trace.is_none() {
        opts.trace = Some(TraceMode::DigestOnly);
    }

    let handler = Arc::new(EcgridJobHandler::new(opts, sup));
    let server = match Server::start(cfg, handler) {
        Ok(s) => s,
        Err(e) => USAGE.fail(format!("cannot start: {e}")),
    };
    println!("sweepd listening on {}", server.local_addr());
    let _ = std::io::stdout().flush();

    install_signal_handlers();
    let handle = server.handle();
    // the accept loop and workers run on their own threads; this thread
    // just waits for either a signal or a protocol-level shutdown
    while !handle.is_draining() {
        if STOP.load(Ordering::SeqCst) {
            eprintln!("sweepd: signal received, draining");
            handle.request_shutdown();
            break;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    let summary = server.wait();
    eprintln!(
        "sweepd: drained ({} submitted, {} completed, {} shed, {} interrupted, {} recovered, \
         {} frames delivered, {} dropped)",
        summary.submitted,
        summary.completed,
        summary.shed,
        summary.interrupted,
        summary.recovered,
        summary.events_delivered,
        summary.events_dropped
    );
}
