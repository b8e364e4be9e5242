//! `run_one` at its process boundary: what a journal that cannot be
//! opened looks like to a shell (the library-level cases live in
//! `supervisor.rs` and `tests/supervision.rs`).

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
