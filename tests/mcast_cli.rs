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

#[test]
fn destination_sets_the_samplers_cannot_draw_are_refused() {
    // `--random M` needs M + 1 nodes: single-shot runs on every backend
    // and open-loop runs on both.
    for (args, want) in [
        ("--n 4 --random 16", "--random 16 needs 17 candidates"),
        (
            "--topology torus --arity 4 --n 2 --random 40",
            "--random 40 needs 41 candidates",
        ),
        (
            "--topology mesh --width 4 --height 4 --random 40",
            "--random 40 needs 41 candidates",
        ),
        (
            "--n 4 --random 16 --load 1 --sessions 5",
            "--random 16 needs 17 candidates",
        ),
        (
            "--topology torus --arity 4 --n 2 --random 16 --load 1 --sessions 5",
            "--random 16 needs 17 candidates",
        ),
        ("--n 4 --random 0", "--random must be >= 1"),
        (
            "--n 4 --random 0 --load 1 --sessions 5",
            "--random must be >= 1",
        ),
    ] {
        assert_usage_error(&mcast(args), want);
    }
}

#[test]
fn malformed_fixed_destination_sets_are_refused() {
    for (args, want) in [
        (
            "--n 4 --load 1 --sessions 5 --dests 3,3",
            "duplicate destination 3",
        ),
        (
            "--n 4 --load 1 --sessions 5 --dests 3,99",
            "destination 99 outside the 16-node topology",
        ),
        (
            "--n 4 --load 1 --sessions 5 --dests 0",
            "destination 0 is the source itself",
        ),
        (
            "--topology torus --arity 4 --n 2 --load 1 --sessions 5 --dests 3,99 --json",
            "destination 99 outside the 16-node topology",
        ),
        (
            "--n 4 --dests 3 --random 2",
            "give --dests or --random, not both",
        ),
        ("--n 4 --load 1 --sessions 5", "provide --dests or --random"),
        (
            "--n 4 --source 16 --dests 3",
            "--source 16 outside the 16-node topology",
        ),
    ] {
        assert_usage_error(&mcast(args), want);
    }
}
