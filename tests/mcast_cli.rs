//! The `mcast` binary's argv surface for the open-loop and service
//! modes: values the engine cannot run are refused up front with one
//! `error: ...` line and exit 2, before anything is simulated or
//! printed.

use std::process::{Command, Output, Stdio};

/// Runs `mcast` with the whitespace-separated `args`.
fn mcast(args: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mcast"))
        .args(args.split_whitespace())
        .stdin(Stdio::null())
        .output()
        .expect("spawn mcast")
}

/// Asserts a usage error: exit 2, `error: <want>...` first, no panic,
/// nothing on stdout.
fn assert_usage_error(out: &Output, want: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.starts_with(&format!("error: {want}")), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.stdout.is_empty(), "{stderr}");
}

#[test]
fn worker_flags_are_unknown() {
    let out = mcast("--n 4 --random 2 --load 0.5 --workers 2");
    assert_usage_error(&out, "unknown flag --workers");
    let out = mcast("serve --max-workers 4");
    assert_usage_error(&out, "unknown serve flag --max-workers");
}

#[test]
fn a_load_too_low_for_simulated_time_is_refused() {
    // 30 Poisson sessions at 1e-12 sessions/ms would schedule arrivals
    // (and a horizon) far past the end of simulated time.
    let out = mcast("--n 4 --random 2 --load 1e-12 --sessions 30 --json");
    assert_usage_error(
        &out,
        "load 0.000000000001 sessions/ms is too low for 30 sessions",
    );
    // A low but representable load still runs.
    let out = mcast("--n 4 --random 2 --load 0.01 --sessions 3 --json");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
}
