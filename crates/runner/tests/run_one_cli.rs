//! `run_one` (and the other binaries' flag parsers) at the process
//! boundary: what a journal that cannot be opened looks like to a shell
//! (the library-level cases live in `supervisor.rs` and
//! `tests/supervision.rs`), which outputs a journaled run refuses and
//! which it prints, that the digest-neutral engine axes are not a
//! command-line option, that an unknown flag is named as one wherever it
//! stands, that `run_one`'s scalar knobs (and the trace length they
//! imply) are held to the scenario bounds,
//! that `sweepc` reports a bad command line before it looks for a
//! server, and that its help lists exactly the layers a stream filter
//! accepts.

use std::process::Command;

#[test]
fn an_unopenable_journal_exits_1_with_a_journal_line_and_no_panic() {
    let dir = std::env::temp_dir().join(format!("ecgrid_run_one_cli_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    // the journal's parent is a regular file: ENOTDIR for any user, root
    // included
    let file = dir.join("plain_file");
    std::fs::write(&file, b"not a directory").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_run_one"))
        .args(["--hosts", "12", "--flows", "2", "--duration", "30", "--journal"])
        .arg(file.join("x.jsonl"))
        .env("RUST_BACKTRACE", "1")
        .output()
        .expect("run_one runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.lines().any(|l| l.starts_with("run_one: journal: ")),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing ran, nothing to report");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A fresh scratch directory for one test.
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ecgrid_run_one_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The small run the journal tests share.
const SMALL_RUN: [&str; 6] = ["--hosts", "12", "--flows", "2", "--duration", "20"];

#[test]
fn a_journaled_run_refuses_trace_outputs() {
    let dir = scratch_dir("journal_refuses");
    let journal = dir.join("j.jsonl");
    // a journal hit has no event stream or group table to write: refused
    // before anything runs, and nothing is written
    for (flag, file) in [("--trace", "t.jsonl"), ("--groups-json", "g.json")] {
        let out = Command::new(RUN_ONE)
            .args(SMALL_RUN)
            .arg("--journal")
            .arg(&journal)
            .arg(flag)
            .arg(dir.join(file))
            .output()
            .expect("run_one runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flag}: {stderr}");
        assert_eq!(
            stderr.lines().next(),
            Some(format!("run_one: {flag} cannot be combined with --journal").as_str()),
            "{stderr}"
        );
        assert!(out.stdout.is_empty(), "{flag}: nothing ran");
        assert!(
            !dir.join(file).exists() && !journal.exists(),
            "{flag}: nothing written"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_journaled_run_prints_its_digest_fresh_and_from_the_journal() {
    let dir = scratch_dir("journal_digest");
    let journal = dir.join("j.jsonl");
    let digest_line = |out: &std::process::Output| {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .find(|l| l.starts_with("trace digest:"))
            .map(str::to_owned)
    };
    let plain = Command::new(RUN_ONE)
        .args(SMALL_RUN)
        .arg("--digest")
        .output()
        .expect("run_one runs");
    assert_eq!(plain.status.code(), Some(0));
    let want = digest_line(&plain).expect("a --digest run prints its digest");
    // the unjournaled run's digest, both times
    for pass in ["1 fresh, 0 from journal", "0 fresh, 1 from journal"] {
        let out = Command::new(RUN_ONE)
            .args(SMALL_RUN)
            .args(["--digest", "--journal"])
            .arg(&journal)
            .output()
            .expect("run_one runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{stdout}");
        assert!(stdout.contains(pass), "{stdout}");
        assert_eq!(
            digest_line(&out).as_deref(),
            Some(want.as_str()),
            "{pass}: {stdout}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

const RUN_ONE: &str = env!("CARGO_BIN_EXE_run_one");
const SWEEPD: &str = env!("CARGO_BIN_EXE_sweepd");
const SWEEPC: &str = env!("CARGO_BIN_EXE_sweepc");
const EXPERIMENTS: &str = env!("CARGO_BIN_EXE_experiments");

#[test]
fn unknown_flags_are_usage_errors_before_anything_runs() {
    // a scenario file sweepc must refuse with its own line/col diagnostic
    let dir = std::env::temp_dir().join(format!("ecgrid_sweepc_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let bad_scn = dir.join("bad.scn");
    std::fs::write(&bad_scn, "[scenario]\nname = \"unterminated\n").unwrap();
    let bad_scn = bad_scn.to_str().unwrap();
    let unknown = |flag: &str| format!(": unknown flag {flag}");
    // nothing listens on port 1: a sweepc that connected before parsing
    // would exit 2 (`connection failed`) instead of naming the mistake
    fn no_server<'a>(args: &[&'a str]) -> Vec<&'a str> {
        [&["--addr", "127.0.0.1:1"][..], args].concat()
    }
    // (binary, arguments, the tail of the first stderr line): the removed
    // engine flags the way their last README / CI invocation spelled
    // them, then an unknown flag as the last argument — where a valueless
    // word used to read as a known flag missing its value — in all four
    // binaries, then sweepc's command-line mistakes with no server to ask,
    // then run_one's scalar knobs outside the bounds sweepd holds a
    // classic submit to
    let bounds = |msg: &str| format!("run_one: scenario bounds: {msg}");
    let cases: [(&str, Vec<&str>, String); 28] = [
        (RUN_ONE, vec!["--backend", "calendar"], unknown("--backend")),
        (
            RUN_ONE,
            vec!["--neighbor-index", "brute"],
            unknown("--neighbor-index"),
        ),
        (
            RUN_ONE,
            vec!["--parallel-world", "--digest"],
            unknown("--parallel-world"),
        ),
        (RUN_ONE, vec!["--shards", "4"], unknown("--shards")),
        (RUN_ONE, vec!["--threads", "4"], unknown("--threads")),
        (SWEEPD, vec!["--backend", "calendar"], unknown("--backend")),
        (
            SWEEPD,
            vec!["--parallel-world", "--workers", "1"],
            unknown("--parallel-world"),
        ),
        (SWEEPD, vec!["--shards", "4"], unknown("--shards")),
        (SWEEPD, vec!["--threads", "2"], unknown("--threads")),
        (RUN_ONE, vec!["--bogus"], unknown("--bogus")),
        (RUN_ONE, vec!["--threads"], unknown("--threads")),
        (RUN_ONE, vec!["--hosts", "12", "--bogus"], unknown("--bogus")),
        (SWEEPD, vec!["--bogus"], unknown("--bogus")),
        (SWEEPC, vec!["--bogus"], unknown("--bogus")),
        (EXPERIMENTS, vec!["--bogus"], unknown("--bogus")),
        (SWEEPC, no_server(&["submit", "--bogus"]), unknown("--bogus")),
        (
            SWEEPC,
            no_server(&["frobnicate"]),
            ": unknown command \"frobnicate\"".into(),
        ),
        (
            SWEEPC,
            no_server(&["submit", "--scenario", bad_scn]),
            format!(": --scenario {bad_scn}: line 2, col 8: unterminated string"),
        ),
        (
            SWEEPC,
            no_server(&["result", "zz", "1"]),
            ": CONFIG_HEX: invalid digit found in string".into(),
        ),
        (SWEEPC, no_server(&["stream"]), ": stream needs a JOB id".into()),
        (
            RUN_ONE,
            vec!["--hosts", "0", "--duration", "5"],
            bounds("count must be in [1, 100000], got 0"),
        ),
        (
            RUN_ONE,
            vec!["--duration", "-5"],
            bounds("duration_s must be in (0, 10000000], got -5"),
        ),
        (
            RUN_ONE,
            vec!["--rate", "0", "--duration", "5"],
            bounds("rate_pps must be in (0, 1000000], got 0"),
        ),
        (
            RUN_ONE,
            vec!["--flows", "5", "--hosts", "1", "--duration", "5"],
            bounds("traffic declares flows but the groups offer no (source, sink) pair (need a source-eligible and a distinct sink-eligible host)"),
        ),
        (
            RUN_ONE,
            vec!["--speed", "-1", "--duration", "5"],
            bounds("max_speed must be in (0, 1000], got -1"),
        ),
        (
            RUN_ONE,
            vec!["--pause", "-3", "--duration", "5"],
            bounds("pause_s must be in [0, 1000000], got -3"),
        ),
        (
            RUN_ONE,
            vec!["--hosts", "100001", "--duration", "1"],
            bounds("count must be in [1, 100000], got 100001"),
        ),
        (
            // each knob in bounds, but ~60 000 062 waypoint segments per host:
            // the trace generator would panic on them
            RUN_ONE,
            vec!["--hosts", "2", "--flows", "1", "--speed", "1000", "--duration", "10000000"],
            bounds(
                "mobility = \"waypoint\" needs up to 60000062 trace segments per host over \
                 duration_s = 10000000; a host holds at most 100000",
            ),
        ),
    ];
    for (bin, args, want) in cases {
        let out = Command::new(bin).args(&args).output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{bin} {args:?}: {stderr}");
        assert!(
            stderr.lines().next().is_some_and(|l| l.ends_with(&want)),
            "{bin} {args:?}: {stderr}"
        );
        assert!(
            out.stdout.is_empty(),
            "nothing ran, nothing bound: {bin} {args:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn no_help_text_offers_an_engine_flag() {
    for bin in [RUN_ONE, SWEEPD] {
        let out = Command::new(bin).arg("--help").output().expect("binary runs");
        assert_eq!(out.status.code(), Some(0));
        let help = String::from_utf8_lossy(&out.stdout);
        assert!(help.contains("USAGE:"), "{help}");
        for flag in [
            "--backend",
            "--neighbor-index",
            "--parallel-world",
            "--shards",
            "--threads",
        ] {
            assert!(!help.contains(flag), "{bin} --help still offers {flag}");
        }
    }
}

#[test]
fn sweepc_help_lists_exactly_the_trace_layers() {
    use manet::trace::{EventFilter, Layer};
    let out = Command::new(SWEEPC).arg("--help").output().expect("sweepc runs");
    assert_eq!(out.status.code(), Some(0));
    let help = String::from_utf8_lossy(&out.stdout);
    let list = help
        .split_once("--layers CSV (")
        .and_then(|(_, rest)| rest.split_once(')'))
        .map(|(list, _)| list)
        .unwrap_or_else(|| panic!("no `--layers CSV (…)` in {help}"));
    // every listed name is a layer `stream --layers` accepts
    let filter = EventFilter::default()
        .with_layers(list)
        .unwrap_or_else(|| panic!("sweepc --help lists a layer that does not exist: {list}"));
    // and every layer is listed
    let all = [
        Layer::Sched,
        Layer::Mac,
        Layer::Radio,
        Layer::Energy,
        Layer::Ras,
        Layer::Route,
        Layer::App,
        Layer::Fault,
    ];
    for layer in all {
        assert!(
            filter.layers.contains(&layer),
            "sweepc --help omits {}",
            layer.name()
        );
    }
}
