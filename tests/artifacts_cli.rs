//! The `artifacts` binary's argv surface: every bad invocation prints
//! one `error: ...` line and exits 2 without panicking or touching the
//! output directory; `--check` passes on the committed tree and fails
//! (exit 1) on a stale `.txt`.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn artifacts(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_artifacts"))
        .args(args)
        .output()
        .expect("spawn artifacts")
}

/// A fresh, not yet created directory under the test scratch area.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("artifacts_cli_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn committed() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// Asserts a usage error: exit 2, `error: <want>...` first, no panic.
fn assert_usage_error(out: &Output, want: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.starts_with(&format!("error: {want}")), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.stdout.is_empty());
}

#[test]
fn missing_file_is_an_error_not_a_panic() {
    let dir = scratch("missing");
    std::fs::create_dir_all(&dir).unwrap();
    let out = artifacts(&["--check", "fig09", dir.to_str().unwrap()]);
    assert_usage_error(&out, "cannot read ");
}

#[test]
fn unknown_artifact_name_is_an_error() {
    let dir = scratch("unknown_name");
    let out = artifacts(&["--regen", "fig99", dir.to_str().unwrap()]);
    assert_usage_error(&out, "unknown artifact `fig99`");
    assert!(!dir.exists(), "nothing may be written");
}

#[test]
fn unparsable_value_is_an_error() {
    let dir = scratch("unparsable");
    let out = artifacts(&["--regen", "--smoke", dir.to_str().unwrap()]);
    assert_usage_error(&out, "--regen needs an artifact name or `all`");
    let out = artifacts(&["--check"]);
    assert_usage_error(&out, "--check needs an artifact name or `all`");
    assert!(!dir.exists(), "nothing may be written");
}

#[test]
fn unknown_flag_is_an_error_and_writes_nothing() {
    // An override the binary does not take must stop the run, not fall
    // through to a default-settings run that overwrites the results.
    let dir = scratch("unknown_flag");
    let out = artifacts(&["--regen", "fig09", "--trials", "abc", dir.to_str().unwrap()]);
    assert_usage_error(&out, "unknown flag `--trials`");
    assert!(!dir.exists(), "nothing may be written");
    assert_usage_error(&artifacts(&["--workers", "4"]), "unknown flag `--workers`");
}

#[test]
fn committed_tree_passes_check() {
    let out = artifacts(&["--check", "all", committed().to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(stdout.lines().filter(|l| l.ends_with(": ok")).count(), 26);
}

#[test]
fn stale_txt_fails_check() {
    let dir = scratch("stale_txt");
    std::fs::create_dir_all(&dir).unwrap();
    let json = std::fs::read_to_string(committed().join("lane_sweep.json")).unwrap();
    let txt = std::fs::read_to_string(committed().join("lane_sweep.txt")).unwrap();
    std::fs::write(dir.join("lane_sweep.json"), json).unwrap();
    std::fs::write(
        dir.join("lane_sweep.txt"),
        txt.replacen("cube6", "cube7", 1),
    )
    .unwrap();
    let out = artifacts(&["--check", "lane_sweep", dir.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains(".txt does not re-render from the JSON"),
        "{stderr}"
    );
}

#[test]
fn regen_checks_what_it_writes() {
    let dir = scratch("regen");
    let out = artifacts(&["--regen", "fig09", "--smoke", dir.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.trim_end().ends_with("fig09.json: written"),
        "{stdout}"
    );
    let out = artifacts(&["--check", "fig09", dir.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
