//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <study-week|capture-batch|capture-stream|
//!                        capture-ring|serve-tenants>
//!           --seed N --seconds S --trace <0|1> [--out DIR]
//!           [--rustc VERSION] [--commit ID]
//! ```
//!
//! Each run sets its workload up three times (reporting the median
//! set-up time), checks every output of the measured program, then
//! runs the workload's closed loop for `--seconds`. With `--trace 0`
//! the last stdout line carries the end-to-end metrics; with
//! `--trace 1` the same loop runs with spans around every public layer
//! call plus isolated layer probes, and the last line carries the
//! per-layer metrics. Human-readable detail goes to stderr; the tagged
//! result document (and, when traced, a Chrome trace) goes to `--out`.

#[global_allocator]
static ALLOC: xkit::bench::alloc::CountingAlloc = xkit::bench::alloc::CountingAlloc;

mod capture;
mod probes;
mod report;
mod serve;
mod stats;
mod study;
mod trace;

use report::{Checks, MetricSet, Ops, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::time::Instant;
use trace::Tracer;

/// Input scale: the benchmark's own, or the smoke test's seconds-long run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out: PathBuf,
    pub size: Size,
    pub rustc: String,
    pub commit: String,
}

/// Times a closed loop: runs iterations until `seconds` have passed,
/// and always at least `min_iters`.
pub struct Deadline {
    start: Instant,
    seconds: f64,
    min_iters: u64,
    done: u64,
}

impl Deadline {
    pub fn new(seconds: f64, min_iters: u64) -> Deadline {
        Deadline { start: Instant::now(), seconds, min_iters, done: 0 }
    }

    /// Whether to start another iteration (counts it when yes).
    pub fn more(&mut self) -> bool {
        let go = self.done < self.min_iters || self.start.elapsed().as_secs_f64() < self.seconds;
        self.done += u64::from(go);
        go
    }
}

/// What a workload hands back to `main`.
pub struct Outcome {
    pub checks: Checks,
    pub ops: Ops,
    /// End-to-end metrics (measured under tracing in a traced run).
    pub e2e: MetricSet,
    /// Per-layer metrics (traced runs only).
    pub layers: MetricSet,
    /// Input sizes and other tags: `(key, JSON value)`.
    pub inputs: Vec<(String, String)>,
    /// Informational figures that are not catalogued metrics.
    pub notes: Vec<(String, f64)>,
    pub tracer: Tracer,
}

impl Outcome {
    pub fn new(trace: bool) -> Outcome {
        Outcome {
            checks: Checks::default(),
            ops: Ops::default(),
            e2e: MetricSet::new(END_TO_END),
            layers: MetricSet::new(PER_LAYER),
            inputs: Vec::new(),
            notes: Vec::new(),
            tracer: Tracer::new(trace),
        }
    }

    pub fn input(&mut self, key: &str, value: impl std::fmt::Display) {
        self.inputs.push((key.to_string(), value.to_string()));
    }

    pub fn note(&mut self, key: &str, value: f64) {
        self.notes.push((key.to_string(), value));
    }

    /// Fill the end-to-end metrics from raw samples; latency comes in
    /// windows (see [`stats::summarize_windows`]).
    pub fn set_e2e(
        &mut self,
        setup_s: &[f64],
        items_per_s: &[f64],
        lat_ms: &[Vec<f64>],
        peak_mb: &[f64],
    ) {
        self.e2e.set("setup_s", stats::median(setup_s));
        self.e2e.set("items_per_s", stats::median(items_per_s));
        let lat = stats::summarize_windows(lat_ms);
        self.e2e.set("lat_p50_ms", lat.map_or(0.0, |s| s.p50));
        self.e2e.set("lat_tail_ms", lat.map_or(0.0, |s| s.tail));
        self.e2e.set("peak_mb", stats::median(peak_mb));
        self.note("setup.samples", setup_s.len() as f64);
        self.note("lat.samples", lat.map_or(0.0, |s| s.n as f64));
        self.note("lat.windows", lat_ms.len() as f64);
        self.note("lat.tail_pct", lat.map_or(0.0, |s| f64::from(s.tail_pct)));
    }
}

/// Live heap right now and the peak since the last reset, in bytes.
pub fn heap_mark() -> u64 {
    xkit::bench::alloc::reset_peak();
    xkit::bench::alloc::snapshot().live
}

/// Peak live heap above `mark` since [`heap_mark`], in MB.
pub fn heap_peak_mb(mark: u64) -> f64 {
    xkit::bench::alloc::snapshot().peak.saturating_sub(mark) as f64 / 1e6
}

pub fn nproc() -> usize {
    xkit::par::available_threads()
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        out: PathBuf::from("perfbench/out"),
        size: Size::Full,
        rustc: "unknown".to_string(),
        commit: "unknown".to_string(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => opts.workload = value()?.clone(),
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".to_string());
                }
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out" => opts.out = PathBuf::from(value()?),
            "--rustc" => opts.rustc = value()?.clone(),
            "--commit" => opts.commit = value()?.clone(),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}, not {:?}", opts.workload));
    }
    Ok(opts)
}

pub const WORKLOADS: [&str; 5] =
    ["study-week", "capture-batch", "capture-stream", "capture-ring", "serve-tenants"];

/// Run one workload to its outcome (no printing).
pub fn run_workload(opts: &Opts) -> Outcome {
    let mut out = match opts.workload.as_str() {
        "study-week" => study::run(opts),
        "capture-batch" => capture::run(opts, capture::Pass::Batch),
        "capture-stream" => capture::run(opts, capture::Pass::Stream),
        "capture-ring" => capture::run(opts, capture::Pass::Ring),
        "serve-tenants" => serve::run(opts),
        other => unreachable!("workload {other} passed argument validation"),
    };
    out.input("workload", format!("\"{}\"", opts.workload));
    out.input("seed", opts.seed);
    out.input("nproc", nproc());
    out.input("rustc", xkit::bench::json_string(&opts.rustc));
    out.input("commit", xkit::bench::json_string(&opts.commit));
    out.input("seconds", opts.seconds);
    out.input("size", format!("\"{}\"", if opts.size == Size::Full { "full" } else { "tiny" }));
    out
}

fn object(pairs: &[(String, String)]) -> String {
    let body: Vec<String> =
        pairs.iter().map(|(k, v)| format!("{}: {v}", xkit::bench::json_string(k))).collect();
    format!("{{{}}}", body.join(", "))
}

fn numbers(pairs: &[(String, f64)]) -> String {
    let owned: Vec<(String, String)> =
        pairs.iter().map(|(k, v)| (k.clone(), report::json_f64(*v))).collect();
    object(&owned)
}

/// The tags an untraced result must share with a traced run for the
/// tracing overhead to compare like with like.
const COMPARABLE_TAGS: [&str; 4] = ["commit", "size", "seconds", "nproc"];

/// Read the end-to-end metrics of an earlier untraced run with the same
/// workload and seed, for the tracing overhead. `None` when there is no
/// such result or when its [`COMPARABLE_TAGS`] differ from `tags`.
fn untraced_e2e(path: &std::path::Path, tags: &[(String, String)]) -> Option<Vec<(String, f64)>> {
    let text = std::fs::read_to_string(path).ok()?;
    let doc = xkit::obs::json::parse(&text).ok()?;
    let stored = doc.get("tags")?;
    for key in COMPARABLE_TAGS {
        let ours = tags.iter().find(|(k, _)| k == key).map(|(_, v)| xkit::obs::json::parse(v));
        let (Some(Ok(ours)), Some(theirs)) = (ours, stored.get(key)) else {
            return None;
        };
        if ours != *theirs {
            return None;
        }
    }
    let e2e = doc.get("end_to_end")?;
    END_TO_END
        .iter()
        .map(|(name, _)| Some((name.to_string(), e2e.get(name)?.get("value")?.as_f64()?)))
        .collect()
}

fn write_results(opts: &Opts, out: &Outcome) -> std::io::Result<()> {
    std::fs::create_dir_all(&opts.out)?;
    let stem = format!("{}-seed{}", opts.workload, opts.seed);
    let mut doc: Vec<(String, String)> = vec![
        ("tags".to_string(), object(&out.inputs)),
        ("correct".to_string(), out.checks.ok().to_string()),
        ("checks_passed".to_string(), out.checks.passed().to_string()),
        (
            "violations".to_string(),
            format!(
                "[{}]",
                out.checks
                    .violations()
                    .iter()
                    .map(|v| xkit::bench::json_string(v))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ),
        ("attempted".to_string(), out.ops.attempted.to_string()),
        ("failed".to_string(), out.ops.failed.to_string()),
        ("fail_share".to_string(), report::json_f64(out.ops.fail_share())),
        ("end_to_end".to_string(), out.e2e.to_json()),
        ("notes".to_string(), numbers(&out.notes)),
    ];
    if opts.trace {
        doc.push(("per_layer".to_string(), out.layers.to_json()));
        let totals = trace::totals_by_name(out.tracer.spans());
        let spans: Vec<(String, String)> = totals
            .iter()
            .map(|(name, t)| {
                (
                    name.to_string(),
                    format!(
                        "{{\"count\": {}, \"total_ms\": {}, \"self_ms\": {}, \"allocs\": {}, \"self_allocs\": {}}}",
                        t.count,
                        report::json_f64(t.total_ms),
                        report::json_f64(t.self_ms),
                        t.allocs,
                        t.self_allocs
                    ),
                )
            })
            .collect();
        doc.push(("spans".to_string(), object(&spans)));
        let untraced = opts.out.join(format!("{stem}-trace0.json"));
        if let Some(base) = untraced_e2e(&untraced, &out.inputs) {
            let overhead: Vec<(String, f64)> =
                base.iter().map(|(name, v)| (name.clone(), out.e2e.get(name) - v)).collect();
            for (name, d) in &overhead {
                eprintln!("# overhead {name}: traced - untraced = {d:+.4}");
            }
            doc.push(("tracing_overhead".to_string(), numbers(&overhead)));
        } else {
            eprintln!(
                "# overhead: no comparable untraced result (same workload, seed, {}) in {}",
                COMPARABLE_TAGS.join(", "),
                opts.out.display()
            );
        }
        let trace_path = opts.out.join(format!("{stem}.trace.json"));
        std::fs::write(&trace_path, out.tracer.to_chrome_trace())?;
        eprintln!("# chrome trace: {} ({} spans)", trace_path.display(), out.tracer.spans().len());
        for (name, t) in &totals {
            eprintln!(
                "# span {name:<32} n={:<6} total={:>10.3} ms self={:>10.3} ms allocs={} self_allocs={}",
                t.count, t.total_ms, t.self_ms, t.allocs, t.self_allocs
            );
        }
    }
    let path = opts.out.join(format!("{stem}-trace{}.json", u8::from(opts.trace)));
    std::fs::write(&path, format!("{}\n", object(&doc)))?;
    eprintln!("# results: {}", path.display());
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let out = run_workload(&opts);
    for (k, v) in &out.inputs {
        eprintln!("# input {k} = {v}");
    }
    for (k, v) in &out.notes {
        eprintln!("# note {k} = {v}");
    }
    let metrics = if opts.trace { &out.layers } else { &out.e2e };
    for (name, value, unit) in metrics.rows() {
        eprintln!("# metric {name} = {value} {unit}");
    }
    eprintln!(
        "# ops: {} attempted, {} failed (fail_share {}); {} checks passed",
        out.ops.attempted,
        out.ops.failed,
        out.ops.fail_share(),
        out.checks.passed()
    );
    if let Err(e) = write_results(&opts, &out) {
        eprintln!("perfbench: cannot write results under {}: {e}", opts.out.display());
        std::process::exit(1);
    }
    let correct = out.checks.ok() && out.ops.failed == 0;
    println!("{}", report::result_line(correct, out.ops, metrics));
    if !correct {
        for v in out.checks.violations() {
            eprintln!("perfbench: check failed: {v}");
        }
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(workload: &str, trace: bool) -> Opts {
        Opts {
            workload: workload.to_string(),
            seed: 3,
            seconds: 0.2,
            trace,
            out: std::env::temp_dir(),
            size: Size::Tiny,
            rustc: "test".to_string(),
            commit: "test".to_string(),
        }
    }

    /// The smoke run: every workload at tiny size, untraced and traced,
    /// passes every output check with no failed operation and reports
    /// every catalogued metric.
    #[test]
    fn smoke_every_workload_and_every_check() {
        for workload in WORKLOADS {
            for trace in [false, true] {
                let out = run_workload(&tiny(workload, trace));
                assert!(out.checks.ok(), "{workload} trace={trace}: {:?}", out.checks.violations());
                assert!(out.checks.passed() > 0);
                assert!(out.ops.attempted > 0 && out.ops.failed == 0, "{workload}: {:?}", out.ops);
                for (name, value, _) in out.e2e.rows() {
                    assert!(value > 0.0, "{workload} trace={trace}: {name} = {value}");
                }
                if trace {
                    assert!(!out.tracer.spans().is_empty());
                    assert!(out.layers.rows().iter().any(|(_, v, _)| *v > 0.0));
                }
            }
        }
    }

    #[test]
    fn tracing_overhead_needs_a_comparable_untraced_result() {
        let dir = std::env::temp_dir().join(format!("perfbench-overhead-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("untraced.json");
        let mut e2e = MetricSet::new(END_TO_END);
        e2e.set("setup_s", 1.5);
        let tags = |commit: &str, seconds: u32| -> Vec<(String, String)> {
            vec![
                ("commit".to_string(), xkit::bench::json_string(commit)),
                ("size".to_string(), "\"full\"".to_string()),
                ("seconds".to_string(), seconds.to_string()),
                ("nproc".to_string(), "2".to_string()),
                ("seed".to_string(), "1".to_string()),
            ]
        };
        let doc = [
            ("tags".to_string(), object(&tags("abc", 30))),
            ("end_to_end".to_string(), e2e.to_json()),
        ];
        std::fs::write(&path, object(&doc)).unwrap();
        let base = untraced_e2e(&path, &tags("abc", 30)).expect("same tags compare");
        assert!(base.contains(&("setup_s".to_string(), 1.5)));
        assert_eq!(untraced_e2e(&path, &tags("def", 30)), None, "other commit");
        assert_eq!(untraced_e2e(&path, &tags("abc", 10)), None, "other run length");
        assert_eq!(untraced_e2e(&path, &tags("abc", 30)[..3]), None, "tag missing");
        assert_eq!(untraced_e2e(&dir.join("absent.json"), &tags("abc", 30)), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn arguments_are_validated() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let ok =
            parse_args(&args("--workload capture-ring --seed 4 --seconds 10 --trace 1")).unwrap();
        assert_eq!((ok.seed, ok.seconds, ok.trace), (4, 10.0, true));
        assert!(parse_args(&args("--workload nope --seed 1")).is_err());
        assert!(parse_args(&args("--workload study-week --trace 2")).is_err());
        assert!(parse_args(&args("--workload study-week --seconds 0")).is_err());
        assert!(parse_args(&args("--workload study-week --seed x")).is_err());
        assert!(parse_args(&args("--workload study-week --bogus 1")).is_err());
    }
}
