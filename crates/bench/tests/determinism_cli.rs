//! CLI byte-identity pins: the ring-fed `ingest` prints the file-fed
//! document, and the parallel seed sweep prints the sequential sweep's
//! table.

use std::process::Command;

fn stdout_of(args: &[&str]) -> String {
    let output =
        Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("spawn repro");
    assert!(output.status.success(), "repro {args:?} failed: {output:?}");
    String::from_utf8(output.stdout).expect("utf8 stdout")
}

#[test]
fn ingest_file_and_ring_print_identical_documents() {
    const WORKLOAD: &[&str] = &["--houses", "6", "--days", "0.05", "--scale", "0.5"];
    let file = stdout_of(&[&["ingest", "--source", "file"], WORKLOAD].concat());
    let ring = stdout_of(&[&["ingest", "--source", "ring"], WORKLOAD].concat());
    assert!(file.contains("\"metrics\""), "ingest printed no metrics section: {file}");
    assert_eq!(file, ring, "the ring backend must print the file backend's document");
}

#[test]
fn seed_sweep_is_identical_at_any_thread_count() {
    const SWEEP: &[&str] =
        &["table2", "--seeds", "3", "--houses", "4", "--days", "0.05", "--scale", "0.3"];
    let sweep = |threads: &str| stdout_of(&[SWEEP, &["--threads", threads]].concat());
    let sequential = sweep("1");
    for seed in ["42", "43", "44"] {
        let row = format!("\n{seed} ");
        assert!(sequential.contains(&row), "seed {seed} has no row in the sweep:\n{sequential}");
    }
    assert_eq!(sequential, sweep("3"), "the parallel sweep must print the sequential table");
}
