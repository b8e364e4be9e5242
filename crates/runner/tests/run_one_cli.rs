//! `run_one` (and the other binaries' flag parsers) at the process
//! boundary: what a journal that cannot be opened looks like to a shell
//! (the library-level cases live in `supervisor.rs` and
//! `tests/supervision.rs`), that the digest-neutral engine axes are not a
//! command-line option, and that an unknown flag is named as one wherever
//! it stands.

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

const RUN_ONE: &str = env!("CARGO_BIN_EXE_run_one");
const SWEEPD: &str = env!("CARGO_BIN_EXE_sweepd");
const SWEEPC: &str = env!("CARGO_BIN_EXE_sweepc");
const EXPERIMENTS: &str = env!("CARGO_BIN_EXE_experiments");

#[test]
fn unknown_flags_are_usage_errors_before_anything_runs() {
    // (binary, arguments, the flag it must name): the removed engine
    // flags the way their last README / CI invocation spelled them, then
    // an unknown flag as the last argument — where a valueless word used
    // to read as a known flag missing its value — in all four binaries
    let cases: [(&str, &[&str], &str); 15] = [
        (RUN_ONE, &["--backend", "calendar"], "--backend"),
        (RUN_ONE, &["--neighbor-index", "brute"], "--neighbor-index"),
        (RUN_ONE, &["--parallel-world", "--digest"], "--parallel-world"),
        (RUN_ONE, &["--shards", "4"], "--shards"),
        (RUN_ONE, &["--threads", "4"], "--threads"),
        (SWEEPD, &["--backend", "calendar"], "--backend"),
        (
            SWEEPD,
            &["--parallel-world", "--workers", "1"],
            "--parallel-world",
        ),
        (SWEEPD, &["--shards", "4"], "--shards"),
        (SWEEPD, &["--threads", "2"], "--threads"),
        (RUN_ONE, &["--bogus"], "--bogus"),
        (RUN_ONE, &["--threads"], "--threads"),
        (RUN_ONE, &["--hosts", "12", "--bogus"], "--bogus"),
        (SWEEPD, &["--bogus"], "--bogus"),
        (SWEEPC, &["--bogus"], "--bogus"),
        (EXPERIMENTS, &["--bogus"], "--bogus"),
    ];
    for (bin, args, flag) in cases {
        let out = Command::new(bin).args(args).output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{bin} {args:?}: {stderr}");
        let want = format!(": unknown flag {flag}");
        assert!(
            stderr.lines().next().is_some_and(|l| l.ends_with(&want)),
            "{bin} {args:?}: {stderr}"
        );
        assert!(
            out.stdout.is_empty(),
            "nothing ran, nothing bound: {bin} {args:?}"
        );
    }
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
