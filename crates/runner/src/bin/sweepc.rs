//! `sweepc` — command-line client for the resident sweep service.
//!
//! Speaks the line-delimited JSON protocol of `sweepd`, with jittered
//! exponential-backoff reconnects: idempotent requests (ping, status,
//! stats, result, stream subscriptions) retry transparently; `submit`
//! never blindly retries, because a resend after an ambiguous failure
//! could double-enqueue the job.

use runner::cli::Usage;
use service::proto::{FilterSpec, JobSpec, Request};
use service::{Client, ClientConfig, ClientError, SubmitOutcome};

const HELP: &str = "\
sweepc — client for the sweepd resident sweep service

USAGE:
    sweepc [--addr HOST:PORT] [--attempts N] <command> [args]

COMMANDS:
    ping                      liveness + protocol version + drain state
    stats                     server counters (submitted/shed/queue/drops)
    status [JOB]              one job's lifecycle, or all jobs + queue
    submit [spec flags]       enqueue a job; prints `job N config HEX`
    stream JOB [filter flags] subscribe and print frames until the job ends
    result CONFIG_HEX SEED    look up one journaled replica by resume key
    shutdown                  ask the server to drain and exit

Submit spec flags (defaults = the golden smoke scenario):
    --protocol grid|ecgrid|gaf|span   --hosts N      --speed M/S
    --pause S    --flows N    --rate PPS    --duration S    --seed N
    --endpoints N    --replicas N    --faults SPEC
    --scenario FILE   submit a scenario file (heterogeneous groups) —
                    hex-encoded onto the wire; the file's own seed is the
                    replica base and the scalar shape flags are ignored
                    (--protocol, --faults, --replicas still apply)
    --stream     also subscribe and stream the submitted job to completion
    --max-sheds N   on shed replies, honor the retry-after hint up to N
                    times before giving up (default 0: report the shed)

Stream filter flags:
    --layers CSV (sched,mac,radio,energy,ras,route,app,fault)   --node ID
    --cell X,Y   --proto NAME

Streamed `done` summaries print averaged metrics decoded bit-exactly,
and each replica's digest as `trace digest: <hex>`.  Reconnects during a
stream are transparent: frames may be lost (the final `bye` counts this
subscriber's delivered/dropped), the terminal summary is not.

EXIT STATUS:
    0 success · 1 bad usage · 2 cannot reach server (after bounded
    jittered-backoff reconnects) · 3 job quarantined · 4 submission shed";

const USAGE: Usage = Usage {
    prog: "sweepc",
    help_hint: true,
};

fn exit_for(err: ClientError) -> ! {
    let code = match &err {
        ClientError::Io(_) => 2,
        ClientError::ShedLimit { .. } => 4,
        _ => 1,
    };
    eprintln!("sweepc: {err}");
    std::process::exit(code);
}

/// What the command line asks the server for, parsed in full before any
/// connection is attempted: a usage error exits 1 whether or not a server
/// is listening.
enum Cmd {
    /// `ping`, `stats`, `status`, `result`, `shutdown`: one reply, printed.
    Request(Request),
    Submit {
        spec: JobSpec,
        stream: bool,
        max_sheds: u32,
    },
    Stream {
        job: u64,
        filter: FilterSpec,
    },
}

struct Cli {
    cfg: ClientConfig,
    cmd: Cmd,
}

fn parse_args() -> Cli {
    let args: Vec<String> = std::env::args().collect();
    if args.len() < 2 || args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{HELP}");
        std::process::exit(if args.len() < 2 { 1 } else { 0 });
    }
    let mut cfg = ClientConfig::default();
    // global flags come in pairs ahead of the command, the first word at
    // a flag position that is not one
    let globals = args[1..]
        .iter()
        .step_by(2)
        .take_while(|a| a.starts_with("--"))
        .count();
    let cmd_at = (1 + 2 * globals).min(args.len());
    let mut flags = USAGE.args(&args[1..cmd_at]);
    while let Some(k) = flags.flag() {
        match k {
            "--addr" => cfg = cfg.with_addr(flags.value(k)),
            "--attempts" => cfg = cfg.with_connect_attempts(flags.parse::<u32>(k).max(1)),
            other => flags.unknown(other),
        }
    }
    let Some(cmd) = args.get(cmd_at) else {
        USAGE.fail("missing command");
    };
    Cli {
        cfg,
        cmd: parse_command(cmd, &args[cmd_at + 1..]),
    }
}

fn parse_command(cmd: &str, rest: &[String]) -> Cmd {
    let request = match cmd {
        "ping" => Request::Ping,
        "stats" => Request::Stats,
        "status" => Request::Status {
            job: rest.first().map(|v| USAGE.parse_val::<u64>("JOB", v)),
        },
        "result" => {
            let [config, seed] = rest else {
                USAGE.fail("result needs CONFIG_HEX and SEED");
            };
            let config = u64::from_str_radix(config.trim_start_matches("0x"), 16)
                .unwrap_or_else(|e| USAGE.fail(format!("CONFIG_HEX: {e}")));
            let seed = USAGE.parse_val::<u64>("SEED", seed);
            Request::Result { config, seed }
        }
        "shutdown" => Request::Shutdown,
        "submit" => {
            let (spec, stream, max_sheds) = parse_spec(rest);
            return Cmd::Submit {
                spec,
                stream,
                max_sheds,
            };
        }
        "stream" => {
            let Some(job) = rest.first() else {
                USAGE.fail("stream needs a JOB id");
            };
            return Cmd::Stream {
                job: USAGE.parse_val::<u64>("JOB", job),
                filter: parse_filter(&rest[1..]),
            };
        }
        other => USAGE.fail(format!("unknown command {other:?}")),
    };
    Cmd::Request(request)
}

fn parse_spec(rest: &[String]) -> (JobSpec, bool, u32) {
    let mut spec = JobSpec::default();
    let mut stream = false;
    let mut max_sheds = 0u32;
    let mut flags = USAGE.args(rest);
    while let Some(k) = flags.flag() {
        match k {
            "--stream" => stream = true,
            "--protocol" => spec.protocol = flags.value(k).to_lowercase(),
            "--hosts" => spec.n_hosts = flags.parse(k),
            "--speed" => spec.max_speed = flags.parse(k),
            "--pause" => spec.pause_secs = flags.parse(k),
            "--flows" => spec.n_flows = flags.parse(k),
            "--rate" => spec.flow_rate_pps = flags.parse(k),
            "--duration" => spec.duration_secs = flags.parse(k),
            "--seed" => spec.seed = flags.parse(k),
            "--endpoints" => spec.model1_endpoints = flags.parse(k),
            "--replicas" => spec.replicas = flags.parse::<u64>(k).max(1),
            "--faults" => spec.faults = flags.value(k).into(),
            "--scenario" => {
                let v = flags.value(k);
                let text =
                    std::fs::read_to_string(v).unwrap_or_else(|e| USAGE.fail(format!("--scenario {v}: {e}")));
                // parse locally first: a malformed file earns a line/col
                // diagnostic here instead of a server-side rejection
                if let Err(e) = scenario::parse(&text) {
                    USAGE.fail(format!("--scenario {v}: {e}"));
                }
                spec.scenario = text;
            }
            "--max-sheds" => max_sheds = flags.parse(k),
            other => flags.unknown(other),
        }
    }
    (spec, stream, max_sheds)
}

fn parse_filter(rest: &[String]) -> FilterSpec {
    let mut f = FilterSpec::default();
    let mut flags = USAGE.args(rest);
    while let Some(k) = flags.flag() {
        match k {
            "--layers" => f.layers = flags.value(k).into(),
            "--node" => f.node = Some(flags.parse(k)),
            "--cell" => {
                let v = flags.value(k);
                let (x, y) = v
                    .split_once(',')
                    .unwrap_or_else(|| USAGE.fail(format!("--cell: {v:?} (expected X,Y)")));
                f.cell = Some((USAGE.parse_val(k, x), USAGE.parse_val(k, y)));
            }
            "--proto" => f.protocol = Some(flags.value(k).into()),
            other => flags.unknown(other),
        }
    }
    f
}

/// Stream one job to completion, printing every frame, then a summary.
/// Exit code 3 if the job ends quarantined.
fn stream_to_end(client: &mut Client, job: u64, filter: &FilterSpec) -> ! {
    let info = client
        .stream_job(job, filter, |frame| println!("{frame}"))
        .unwrap_or_else(|e| exit_for(e));
    for d in &info.digests {
        println!("trace digest: {d}");
    }
    let fmt_pdr = info
        .pdr
        .map(|p| format!("{:.4}% ({:016x})", 100.0 * p, p.to_bits()))
        .unwrap_or_else(|| "-".into());
    let fmt_lat = info
        .latency_ms
        .map(|l| format!("{l:.4} ms ({:016x})", l.to_bits()))
        .unwrap_or_else(|| "-".into());
    eprintln!(
        "job {}: {} ({}/{} replicas, {} from journal, {} quarantined) pdr {} latency {}",
        info.job,
        info.state.map(|s| s.name()).unwrap_or("?"),
        info.completed,
        info.replicas,
        info.from_journal,
        info.quarantined,
        fmt_pdr,
        fmt_lat,
    );
    eprintln!(
        "stream: {} frames delivered, {} dropped, {} reconnects",
        info.delivered, info.dropped, info.reconnects
    );
    if let Some(e) = &info.error {
        eprintln!("job error: {e}");
    }
    let quarantined = matches!(info.state, Some(service::JobState::Quarantined)) || info.quarantined > 0;
    std::process::exit(if quarantined { 3 } else { 0 });
}

fn main() {
    let cli = parse_args();
    let mut client = Client::connect(cli.cfg).unwrap_or_else(|e| exit_for(e));

    match cli.cmd {
        Cmd::Request(request) => {
            let r = client
                .request_idempotent(&request)
                .unwrap_or_else(|e| exit_for(e));
            println!("{r}");
        }
        Cmd::Submit {
            spec,
            stream,
            max_sheds,
        } => {
            let (job, config) = if max_sheds > 0 {
                client
                    .submit_until_accepted(&spec, max_sheds)
                    .unwrap_or_else(|e| exit_for(e))
            } else {
                match client.submit(&spec) {
                    Ok(SubmitOutcome::Accepted { job, config }) => (job, config),
                    Ok(SubmitOutcome::Shed { retry_after_ms }) => {
                        eprintln!("sweepc: submission shed (server busy; retry in {retry_after_ms} ms)");
                        std::process::exit(4);
                    }
                    Err(e) => exit_for(e),
                }
            };
            println!("job {job} config {config:016x}");
            if stream {
                stream_to_end(&mut client, job, &FilterSpec::default());
            }
        }
        Cmd::Stream { job, filter } => stream_to_end(&mut client, job, &filter),
    }
}
