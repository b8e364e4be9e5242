//! `experiments` at its process boundary, for the cases that simulate
//! nothing: a bad flag value is a usage error — exit 1, one `experiments:`
//! line, no panic — before any point runs.  (This is the
//! debug binary; the campaign itself is driven by the CI smoke step on
//! the release build.)

use std::process::Command;

#[test]
fn bad_usage_exits_1_with_one_line_naming_the_flag() {
    let cases: [(&[&str], &str); 6] = [
        (&["--replicas", "0"], "--replicas: must be at least 1"),
        (&["--replicas", "abc"], "--replicas: invalid value \"abc\""),
        (&["--max-retries", "-1"], "--max-retries: invalid value \"-1\""),
        (&["--fig", "9"], "--fig: no figure 9"),
        (&["--fig", "seven"], "--fig: invalid value \"seven\""),
        (&["--fig", "4", "--fig"], "flag --fig needs a value"),
    ];
    for (args, expect) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(args)
            .env("RUST_BACKTRACE", "1")
            .env("ECGRID_FAST", "1")
            .output()
            .expect("experiments runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        let lines: Vec<&str> = stderr.lines().collect();
        assert_eq!(lines.len(), 1, "{args:?}: {stderr}");
        assert!(
            lines[0].starts_with(&format!("experiments: {expect}")),
            "{stderr}"
        );
        assert!(!stderr.contains("panicked"), "{stderr}");
        assert!(out.stdout.is_empty(), "nothing ran, nothing to report");
    }
}

#[test]
fn an_unopenable_journal_stops_the_campaign_before_anything_runs() {
    let dir = std::env::temp_dir().join(format!("ecgrid_experiments_cli_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    // the journal's parent is a regular file: ENOTDIR for any user
    let file = dir.join("plain_file");
    std::fs::write(&file, b"not a directory").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .arg("--journal")
        .arg(file.join("x.jsonl"))
        .env("ECGRID_RESULTS_DIR", &dir)
        .output()
        .expect("experiments runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.lines().any(|l| l.starts_with("experiments: journal: ")),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing ran, nothing to report");
    let _ = std::fs::remove_dir_all(&dir);
}
