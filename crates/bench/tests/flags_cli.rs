//! Command-line validation: a malformed, non-finite or negative numeric
//! flag, a workload the simulator refuses, or an unknown experiment is a
//! usage error (exit 2, a message on stderr, nothing on stdout), never a
//! panic, a silent clamp or a silently skipped word.

use std::process::Command;

fn run(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("spawn repro")
}

fn assert_usage_error(args: &[&str], flag: &str) {
    let out = run(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "repro {args:?}: {out:?}");
    assert!(out.stdout.is_empty(), "repro {args:?} wrote stdout: {out:?}");
    assert!(stderr.contains(flag), "repro {args:?}: stderr must name {flag}: {stderr}");
    assert!(!stderr.contains("panicked"), "repro {args:?} panicked: {stderr}");
}

#[test]
fn malformed_numbers_are_usage_errors() {
    for (flag, value) in [
        ("--houses", "many"),
        ("--days", "1d"),
        ("--scale", ""),
        ("--seed", "-1"),
        ("--seeds", "2.5"),
        ("--threads", "abc"),
        ("--window-secs", "abc"),
        ("--tenants", "0x10"),
        ("--frames", "1e3"),
    ] {
        assert_usage_error(&["stream", flag, value], flag);
    }
}

#[test]
fn non_finite_or_negative_floats_are_usage_errors() {
    for flag in ["--window-secs", "--days", "--scale"] {
        for value in ["NaN", "nan", "inf", "-inf", "infinity", "-1", "-0.5"] {
            assert_usage_error(&["stream", flag, value], flag);
        }
    }
    // The serve daemon takes the same window; the flag is refused before
    // any tenant starts.
    assert_usage_error(&["serve", "--tenants", "2", "--window-secs", "NaN"], "--window-secs");
}

#[test]
fn a_flag_without_its_value_is_a_usage_error() {
    assert_usage_error(&["stream", "--window-secs"], "--window-secs");
}

#[test]
fn zero_window_is_accepted_and_stays_valid_json() {
    let out =
        run(&["stream", "--houses", "2", "--days", "0.01", "--scale", "0.3", "--window-secs", "0"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
    let doc = xkit::obs::json::parse(&stdout).expect("stdout parses as JSON");
    let meta = doc.get("meta").expect("meta").render();
    assert!(meta.contains("\"window_secs\":0"), "{meta}");
}

#[test]
fn zero_valued_workload_flags_are_usage_errors() {
    for experiment in ["table2", "stream", "ingest", "obs", "fuzz", "serve"] {
        for flag in ["--houses", "--days", "--scale"] {
            assert_usage_error(&[experiment, "--tenants", "1", flag, "0"], flag);
        }
    }
    assert_usage_error(&["table2", "--seeds", "2", "--houses", "0"], "--houses");
}

#[test]
fn unknown_experiments_are_usage_errors() {
    assert_usage_error(&["tabel2", "--houses", "2", "--days", "0.01"], "tabel2");
    assert_usage_error(&["table2", "fig9", "--houses", "2", "--days", "0.01"], "fig9");
}
