//! The reproduction harness: regenerates every table and figure of
//! *Putting DNS in Context* (Allman, IMC 2020) from a seeded simulation
//! of a CCZ-like residential network.
//!
//! ```sh
//! cargo run --release -p bench --bin repro -- all
//! cargo run --release -p bench --bin repro -- table2 --scale 0.3 --seed 7
//! cargo run --release -p bench --bin repro -- fig2 --csv
//! ```
//!
//! Experiments: `table1 table2 table3 fig1 fig2 fig3 sec51 sec52 sec7
//! sec8 diurnal houses ablate-threshold ablate-pairing ablate-scr fuzz
//! obs all`.
//!
//! `obs` (also reachable as `--obs`) runs the instrumented packet
//! pipeline end to end: every stage (capture, zeek, pairing, thresholds,
//! classify, perf, report) is timed as a `stage.*` span, the per-stage
//! counters are merged into one deterministic metrics snapshot, the span
//! tree and a human-readable metrics table go to stderr, and the JSON
//! snapshot goes to stdout and to `--obs-out PATH` (default
//! `OBS_repro.json`). The `metrics` section is byte-identical for every
//! `--threads` value; wall times live only in the `spans` section.
//!
//! `fuzz` sweeps deterministic fault rates (drop/truncate/bit-flip/
//! duplicate/reorder) over a simulated capture, prints the per-rate
//! degradation statistics, and asserts the graceful-degradation
//! invariants: zero panics, monotone coverage loss, and a rate-0 run
//! byte-identical to the clean pipeline. It caps the workload at 25
//! houses × 1 day (the packet path buffers every frame).
//!
//! Options: `--houses N` (100), `--days D` (7), `--scale A` (0.1 activity),
//! `--seed S` (42), `--seeds K` (1; >1 runs a parallel seed sweep),
//! `--threads N` (0 = one worker per core; output is bit-identical for
//! every value), `--csv` (emit CDF point series for the figures).
//!
//! Timing lives in `perfbench/` (see `BENCHMARK.json`), not here.

use dnsctx::cache_sim;
use dnsctx::ccz_sim::{ScaleKnobs, Simulation, WorkloadConfig};
use dnsctx::dns_context::report::{cdf_series, cdf_strip, count, f1, f2, Table};
use dnsctx::dns_context::{Analysis, AnalysisConfig, ConnClass, Ecdf, PairingPolicy};
use dnsctx::zeek_lite::{Duration, Logs};

struct Opts {
    houses: usize,
    days: f64,
    scale: f64,
    seed: u64,
    seeds: usize,
    threads: usize,
    csv: bool,
    obs: bool,
    obs_out: String,
    serve: String,
    serve_check: bool,
    window_secs: f64,
    tenants: usize,
    source: String,
    iface: String,
    frames: u64,
    format: String,
    rule: String,
    root: String,
    experiments: Vec<String>,
}

impl Opts {
    /// The analysis configuration these options imply.
    fn analysis_cfg(&self) -> AnalysisConfig {
        let mut cfg = AnalysisConfig::default();
        cfg.threads = self.threads;
        cfg
    }
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        houses: 100,
        days: 7.0,
        scale: 0.1,
        seed: 42,
        seeds: 1,
        threads: 0,
        csv: false,
        obs: false,
        obs_out: "OBS_repro.json".into(),
        serve: String::new(),
        serve_check: false,
        window_secs: 60.0,
        tenants: 8,
        source: "file".into(),
        iface: "lo".into(),
        frames: 200,
        format: "human".into(),
        rule: String::new(),
        root: ".".into(),
        experiments: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut grab = |what: &str| {
            args.next().unwrap_or_else(|| usage_error(&format!("{what} needs a value")))
        };
        match a.as_str() {
            "--houses" => opts.houses = number("--houses", &grab("--houses")),
            "--days" => opts.days = non_negative("--days", &grab("--days")),
            "--scale" => opts.scale = non_negative("--scale", &grab("--scale")),
            "--seed" => opts.seed = number("--seed", &grab("--seed")),
            "--seeds" => opts.seeds = at_least_one("--seeds", &grab("--seeds")),
            "--threads" => opts.threads = number("--threads", &grab("--threads")),
            "--csv" => opts.csv = true,
            "--obs" => opts.obs = true,
            "--obs-out" => opts.obs_out = grab("--obs-out"),
            "--serve" => opts.serve = grab("--serve"),
            "--serve-check" => opts.serve_check = true,
            "--window-secs" => {
                opts.window_secs = non_negative("--window-secs", &grab("--window-secs"))
            }
            "--tenants" => opts.tenants = at_least_one("--tenants", &grab("--tenants")),
            "--source" => opts.source = grab("--source"),
            "--iface" => opts.iface = grab("--iface"),
            "--frames" => opts.frames = number("--frames", &grab("--frames")),
            "--format" => opts.format = grab("--format"),
            "--rule" => opts.rule = grab("--rule"),
            "--root" => opts.root = grab("--root"),
            "--help" | "-h" => {
                println!(
                    "usage: repro <experiment...> [--houses N] [--days D] [--scale A] [--seed S] [--seeds K] [--threads N] [--csv] [--obs] [--obs-out PATH] [--serve ADDR] [--serve-check] [--window-secs W] [--source file|ring|iface] [--iface NAME] [--frames N] [--tenants N]\n\
                     experiments: table1 table2 table3 fig1 fig2 fig3 sec51 sec52 sec7 sec8\n\
                     \x20              diurnal houses ablate-threshold ablate-pairing ablate-scr fuzz obs stream ingest serve all\n\
                     obs-check <snapshot.json>: validate a snapshot written by `repro obs`\n\
                     obs-check --url ADDR: validate the live endpoints of a running --serve instance\n\
                     stream: bounded-memory epoch pipeline (window set by --window-secs, 0 = unwindowed)\n\
                     \x20       --serve ADDR exposes /metrics /snapshot /spans /events /healthz live during\n\
                     \x20       the run (stream and ingest; --serve-check self-validates every endpoint)\n\
                     ingest: stream pipeline behind the RecordSource seam; --source picks the backend\n\
                     \x20       (file = pcap round trip, ring = in-memory SPSC ring, iface = AF_PACKET via\n\
                     \x20       --iface/--frames, needs the raw-socket build and CAP_NET_RAW)\n\
                     serve: multi-tenant streaming daemon; --tenants N concurrent simulated vantage\n\
                     \x20       points sharded over --threads workers, tenant-routed observability on\n\
                     \x20       --serve ADDR (/tenants, /tenants/<id>/snapshot|metrics + aggregate views)\n\
                     lint: token-aware invariant checker over the workspace sources\n\
                     \x20     [--format human|json] [--rule ID] [--root PATH]; exits 1 on violations"
                );
                std::process::exit(0);
            }
            exp => opts.experiments.push(exp.to_string()),
        }
    }
    if opts.experiments.is_empty() {
        opts.experiments.push("all".into());
    }
    // `obs-check` takes its own operands; every other word must name an
    // experiment.
    if opts.experiments[0] != "obs-check" {
        if let Some(bad) = opts.experiments.iter().find(|e| !EXPERIMENTS.contains(&e.as_str())) {
            usage_error(&format!("unknown experiment `{bad}`"));
        }
    }
    opts
}

/// Every experiment word `repro` accepts.
const EXPERIMENTS: &[&str] = &[
    "table1",
    "table2",
    "table3",
    "fig1",
    "fig2",
    "fig3",
    "sec51",
    "sec52",
    "sec7",
    "sec8",
    "diurnal",
    "houses",
    "ablate-threshold",
    "ablate-pairing",
    "ablate-scr",
    "fuzz",
    "obs",
    "stream",
    "ingest",
    "serve",
    "lint",
    "all",
];

/// Report a malformed command line and exit 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("repro: {msg} (see --help)");
    std::process::exit(2);
}

/// A workload the simulator refuses (`--houses 0`, `--days 0`,
/// `--scale 0`) is a usage error.
fn workload_error(e: impl std::fmt::Display) -> ! {
    usage_error(&format!("invalid workload for --houses/--days/--scale: {e}"))
}

/// The simulation for a workload the command line asked for.
fn simulation(cfg: WorkloadConfig, seed: u64) -> Simulation {
    Simulation::new(cfg, seed).unwrap_or_else(|e| workload_error(e))
}

/// A flag's value parsed as a number, or a usage error.
fn number<T: std::str::FromStr>(flag: &str, raw: &str) -> T {
    raw.parse().unwrap_or_else(|_| usage_error(&format!("{flag}: not a valid number: {raw:?}")))
}

/// A flag's value as a count of at least one, or a usage error: zero is
/// refused, never raised to one.
fn at_least_one(flag: &str, raw: &str) -> usize {
    let v: usize = number(flag, raw);
    if v == 0 {
        usage_error(&format!("{flag}: must be at least 1, got {raw:?}"));
    }
    v
}

/// A flag's value as a finite, non-negative float, or a usage error:
/// `NaN`, `inf` and negative values are refused, never clamped.
fn non_negative(flag: &str, raw: &str) -> f64 {
    let v: f64 = number(flag, raw);
    if !v.is_finite() || v < 0.0 {
        usage_error(&format!("{flag}: must be a finite number >= 0, got {raw:?}"));
    }
    v
}

fn main() {
    let opts = parse_args();
    // `obs` drives the instrumented packet pipeline at its own (capped)
    // scale, like `fuzz`; the bare `--obs` flag selects it too.
    if opts.obs || opts.experiments.iter().any(|e| e == "obs") {
        obs(&opts);
        return;
    }
    // `obs-check PATH` parses a snapshot back and checks its contract;
    // `obs-check --url ADDR` does the same against a live server.
    if opts.experiments.first().map(String::as_str) == Some("obs-check") {
        match (opts.experiments.get(1).map(String::as_str), opts.experiments.get(2)) {
            (Some("--url"), Some(addr)) => obs_check_url(addr),
            (Some(path), _) if path != "--url" => obs_check(path),
            _ => {
                eprintln!("usage: repro obs-check <snapshot.json> | repro obs-check --url ADDR");
                std::process::exit(2);
            }
        }
        return;
    }
    // `lint` runs the token-aware invariant checker over the workspace.
    if opts.experiments.iter().any(|e| e == "lint") {
        lint(&opts);
        return;
    }
    // `stream` drives the bounded-memory epoch pipeline, capped like obs.
    if opts.experiments.iter().any(|e| e == "stream") {
        stream(&opts);
        return;
    }
    // `ingest` drives the same pipeline through a chosen RecordSource
    // backend; file and ring emit identical stdout documents.
    if opts.experiments.iter().any(|e| e == "ingest") {
        ingest(&opts);
        return;
    }
    // `serve` runs the multi-tenant streaming daemon.
    if opts.experiments.iter().any(|e| e == "serve") {
        serve_daemon(&opts);
        return;
    }
    // `fuzz` drives the packet path at its own (capped) scale.
    if opts.experiments.iter().any(|e| e == "fuzz") {
        fuzz(&opts);
        return;
    }
    let cfg = WorkloadConfig {
        scale: ScaleKnobs { houses: opts.houses, days: opts.days, activity: opts.scale },
        ..WorkloadConfig::default()
    };
    if opts.seeds > 1 {
        multi_seed(&cfg, &opts);
        return;
    }
    eprintln!(
        "# simulating {} houses x {} days at activity {} (seed {}) ...",
        opts.houses, opts.days, opts.scale, opts.seed
    );
    let t0 = xkit::obs::clock::now();
    let out = simulation(cfg, opts.seed).with_threads(opts.threads).run();
    eprintln!(
        "# {} connections, {} DNS transactions in {:.1}s; running analysis ...",
        count(out.logs.conns.len()),
        count(out.logs.dns.len()),
        t0.elapsed_secs()
    );
    let analysis = Analysis::run(&out.logs, opts.analysis_cfg());
    eprintln!("# analysis done in {:.1}s total\n", t0.elapsed_secs());

    let all = opts.experiments.iter().any(|e| e == "all");
    let want = |name: &str| all || opts.experiments.iter().any(|e| e == name);

    if want("table1") {
        table1(&analysis);
    }
    if want("table2") {
        table2(&analysis);
    }
    if want("fig1") {
        fig1(&analysis, opts.csv);
    }
    if want("sec51") {
        sec51(&out.logs, &analysis);
    }
    if want("sec52") {
        sec52(&analysis);
    }
    if want("fig2") {
        fig2(&analysis, opts.csv);
    }
    if want("sec7") {
        sec7(&analysis);
    }
    if want("fig3") {
        fig3(&analysis, opts.csv);
    }
    if want("sec8") {
        sec8(&out.logs, &analysis);
    }
    if want("table3") {
        table3(&out.logs, &analysis);
    }
    if want("diurnal") {
        diurnal(&analysis);
    }
    if want("houses") {
        houses(&analysis);
    }
    if want("ablate-threshold") {
        ablate_threshold(&out.logs);
    }
    if want("ablate-pairing") {
        ablate_pairing(&out.logs);
    }
    if want("ablate-scr") {
        ablate_scr(&out.logs);
    }
}

/// `repro lint [--format human|json] [--rule ID] [--root PATH]` — run
/// the lintkit invariant checker over the workspace. Human diagnostics
/// go to stderr (stdout stays reserved for the one JSON document that
/// `--format json` emits). Exit codes: 0 clean, 1 violations, 2 usage
/// or IO error.
fn lint(opts: &Opts) {
    let fail = |msg: String| -> ! {
        eprintln!("repro lint: {msg}");
        std::process::exit(2);
    };
    match opts.format.as_str() {
        "human" | "json" => {}
        other => fail(format!("unknown --format `{other}` (human|json)")),
    }
    let root = std::path::Path::new(&opts.root);
    if !root.join("crates").is_dir() {
        fail(format!(
            "`{}` does not look like the workspace root (no crates/); pass --root",
            opts.root
        ));
    }
    let only = if opts.rule.is_empty() { None } else { Some(opts.rule.as_str()) };
    let report = match lintkit::lint_workspace(root, only) {
        Ok(r) => r,
        Err(e) => fail(e),
    };
    if opts.format == "json" {
        println!("{}", report.to_json());
        eprintln!(
            "lint: {} ({} files checked)",
            if report.ok() { "clean" } else { "violations found" },
            report.files_checked
        );
    } else {
        eprint!("{}", report.render_human());
    }
    std::process::exit(if report.ok() { 0 } else { 1 });
}

fn table1(analysis: &Analysis<'_>) {
    let reports = analysis.platform_reports();
    let mut t = Table::new(
        "Table 1: use of resolver platforms (paper: Local 92.4/72.8/74.0/70.8, Google 83.5/12.9/8.3/9.2, OpenDNS 25.3/9.4/14.2/13.5, Cloudflare 3.8/3.9/2.9/5.7)",
        &["Resolver", "% Houses", "% Lookups", "% Conns", "% Bytes"],
    );
    for r in &reports {
        t.row(&[
            r.name.clone(),
            f1(r.houses_pct),
            f1(r.lookups_pct),
            f1(r.conns_pct),
            f1(r.bytes_pct),
        ]);
    }
    println!("{}", t.render());
}

fn table2(analysis: &Analysis<'_>) {
    let c = analysis.class_counts();
    let mut t = Table::new(
        "Table 2: DNS information origin by connection (paper: N 7.2, LC 42.9, P 7.8, SC 26.3, R 15.7)",
        &["Class", "Desc.", "Conns", "% Conns"],
    );
    for class in ConnClass::all() {
        t.row(&[
            class.symbol().into(),
            class.description().into(),
            count(c.get(class)),
            f1(c.share_pct(class)),
        ]);
    }
    println!("{}", t.render());
    println!(
        "blocked on DNS: {:.1}% (paper 42.1%)   shared-cache hit rate: {:.1}% (paper 62.6%)\n",
        c.blocked_share_pct(),
        100.0 * c.shared_hit_rate()
    );
}

fn fig1(analysis: &Analysis<'_>, csv: bool) {
    let g = analysis.gap_analysis();
    println!("== Figure 1: gap between DNS completion and connection start ==");
    print!("{}", cdf_strip("gap (ms)", &g.gaps_ms, ""));
    for anchor_ms in [1.0, 5.0, 20.0, 100.0, 1_000.0, 60_000.0] {
        println!(
            "   P(gap <= {:>8} ms) = {:.3}",
            anchor_ms,
            g.gaps_ms.fraction_at_or_below(anchor_ms)
        );
    }
    println!(
        "first-use share:  within 20 ms knee {:.1}% (paper 91%)   beyond {:.1}% (paper 21%)",
        100.0 * g.first_use_within_knee,
        100.0 * g.first_use_beyond_knee
    );
    match g.estimate_knee(0.10) {
        Some(k) => println!(
            "estimated knee: {:.0} ms (paper eyeballs ~20 ms; 100 ms threshold stays conservative)\n",
            k.as_millis_f64()
        ),
        None => println!("estimated knee: none (distribution does not flatten)\n"),
    }
    if csv {
        print!("{}", cdf_series("fig1_gap_ms", &g.gaps_ms, 200));
    }
}

fn sec51(logs: &Logs, analysis: &Analysis<'_>) {
    let b = analysis.no_dns_breakdown();
    println!("== par.5.1: connections using no DNS ==");
    println!(
        "N connections: {}   both-high-ports: {:.1}% (paper 81.6%)",
        count(b.total),
        100.0 * b.both_high_ports as f64 / b.total.max(1) as f64
    );
    println!("top hard-coded (reserved-port) endpoints:");
    for ((addr, port), n) in b.reserved_port_endpoints.iter().take(6) {
        println!("   {addr}:{port:<5}  {} conns", count(*n));
    }
    println!(
        "DoT (port 853) connections: {}   DoT packets seen by monitor: {}",
        b.dot_port_conns, logs.stats.dot_port_packets
    );
    println!(
        "unpaired AND not peer-to-peer: {:.2}% of all conns (paper <= 1.3%)\n",
        b.unpaired_not_p2p_share_pct
    );
}

fn sec52(analysis: &Analysis<'_>) {
    let t = analysis.ttl_stats();
    println!("== par.5.2: local caching, prefetching, TTL violations ==");
    println!(
        "LC using expired records: {:.1}% (paper 22.2%)   P: {:.1}% (paper 12.4%)",
        t.lc_violation_share_pct, t.p_violation_share_pct
    );
    if let Some(med) = t.violation_staleness_secs.median() {
        println!(
            "violation staleness: >30s for {:.0}% (paper 82%)   median {:.0}s (paper 890s)   p90 {:.0}s (paper ~19,000s)",
            100.0 * t.violation_staleness_secs.fraction_above(30.0),
            med,
            t.violation_staleness_secs.quantile(0.9).unwrap()
        );
    }
    println!(
        "unused lookups: {} = {:.1}% (paper 3.1M = 37.8%)   speculative ultimately used: {:.1}% (paper 22.3%)",
        count(t.unused_lookups),
        t.unused_share_pct,
        t.speculative_used_share_pct
    );
    println!(
        "median lookup-to-use gap: P {:.0}s (paper 310s)   LC {:.0}s (paper 1033s)\n",
        t.p_use_gap_median_secs.unwrap_or(0.0),
        t.lc_use_gap_median_secs.unwrap_or(0.0)
    );
}

fn fig2(analysis: &Analysis<'_>, csv: bool) {
    let p = analysis.perf();
    println!("== Figure 2 (top): lookup delay for SC+R connections ==");
    print!("{}", cdf_strip("delay", &p.delay_ms, "ms"));
    println!(
        "   median {:.1} ms (paper 8.5)   p75 {:.1} ms (paper 20)   >100 ms: {:.1}% (paper 3.3%)",
        p.delay_ms.median().unwrap_or(0.0),
        p.delay_ms.quantile(0.75).unwrap_or(0.0),
        100.0 * p.delay_ms.fraction_above(100.0)
    );
    println!("\n== Figure 2 (bottom): DNS %% contribution to transaction time ==");
    print!("{}", cdf_strip("all SC+R", &p.contribution_pct, "%"));
    print!("{}", cdf_strip("SC only", &p.contribution_sc_pct, "%"));
    print!("{}", cdf_strip("R only", &p.contribution_r_pct, "%"));
    println!(
        "   contribution >1%: {:.1}% of blocked (paper 20%)   >=10%: {:.1}% (paper 8%)   R-only >1%: {:.1}% (paper 30%)",
        100.0 * p.contribution_pct.fraction_above(1.0),
        100.0 * p.contribution_pct.fraction_above(10.0 - 1e-9),
        100.0 * p.contribution_r_pct.fraction_above(1.0)
    );
    let s = analysis.significance();
    println!("\n== par.6: significance quadrants (abs > 20 ms x rel > 1%) ==");
    println!("   insignificant by both:     {:.1}% (paper 64.0%)", s.neither_pct);
    println!("   relative-only:             {:.1}% (paper 11.5%)", s.rel_only_pct);
    println!("   absolute-only:             {:.1}% (paper 15.9%)", s.abs_only_pct);
    println!("   significant (both):        {:.1}% (paper 8.6%)", s.both_pct);
    println!("   significant, of ALL conns: {:.1}% (paper 3.6%)\n", s.both_share_of_all_pct);
    if csv {
        print!("{}", cdf_series("fig2_delay_ms", &p.delay_ms, 200));
        print!("{}", cdf_series("fig2_contrib_all_pct", &p.contribution_pct, 200));
        print!("{}", cdf_series("fig2_contrib_sc_pct", &p.contribution_sc_pct, 200));
        print!("{}", cdf_series("fig2_contrib_r_pct", &p.contribution_r_pct, 200));
    }
}

fn sec7(analysis: &Analysis<'_>) {
    let reports = analysis.platform_reports();
    let mut t = Table::new(
        "par.7: shared-cache hit rate by platform (paper: Cloudflare 83.6, Local 71.2, OpenDNS 58.8, Google 23.0)",
        &["Resolver", "Hit rate %"],
    );
    let mut sorted: Vec<_> = reports.iter().collect();
    sorted.sort_by(|a, b| b.hit_rate_pct.total_cmp(&a.hit_rate_pct));
    for r in sorted {
        t.row(&[r.name.clone(), f1(r.hit_rate_pct)]);
    }
    println!("{}", t.render());
}

fn fig3(analysis: &Analysis<'_>, csv: bool) {
    let reports = analysis.platform_reports();
    println!("== Figure 3 (top): lookup delay for R connections, per platform ==");
    for r in &reports {
        print!("{}", cdf_strip(&r.name, &r.r_delay_ms, "ms"));
    }
    println!("\n== Figure 3 (bottom): throughput of SC+R connections, per platform (Mbit/s) ==");
    for r in &reports {
        let mbps = Ecdf::new(r.throughput_bps.samples().iter().map(|b| b / 1e6).collect());
        print!("{}", cdf_strip(&r.name, &mbps, ""));
        if r.name == "Google" {
            let clean = Ecdf::new(
                r.throughput_no_artifact_bps.samples().iter().map(|b| b / 1e6).collect(),
            );
            print!("{}", cdf_strip("Google (no conncheck)", &clean, ""));
            println!(
                "   connectivitycheck share of Google SC+R conns: {:.1}% (paper 23.5%)",
                r.artifact_conn_share_pct
            );
        }
    }
    println!();
    if csv {
        for r in &reports {
            print!("{}", cdf_series(&format!("fig3_rdelay_ms_{}", r.name), &r.r_delay_ms, 200));
            print!("{}", cdf_series(&format!("fig3_tput_bps_{}", r.name), &r.throughput_bps, 200));
            if r.name == "Google" {
                print!(
                    "{}",
                    cdf_series("fig3_tput_bps_Google_clean", &r.throughput_no_artifact_bps, 200)
                );
            }
        }
    }
}

fn sec8(logs: &Logs, analysis: &Analysis<'_>) {
    let wh = cache_sim::whole_house(logs, analysis);
    println!("== par.8: a whole-house cache ==");
    println!(
        "conns moving SC/R -> LC: {} of {} = {:.1}% (paper 9.8%)",
        count(wh.moved),
        count(wh.total_conns),
        wh.moved_share_of_all_pct
    );
    println!(
        "benefiting: {:.1}% of SC (paper 22%)   {:.1}% of R (paper 25%)\n",
        wh.sc_benefit_pct, wh.r_benefit_pct
    );
}

fn table3(logs: &Logs, analysis: &Analysis<'_>) {
    let r = cache_sim::refresh(logs, analysis, Duration::from_secs(10));
    let mut t = Table::new(
        "Table 3: efficacy of refreshing expiring names (paper: hits 61.0%->96.6%, lookups 8.4M->1.2B, 0.2->25.2 q/s/house)",
        &["", "Standard", "Refresh All"],
    );
    t.row(&["Conns.".into(), count(r.standard.conns), count(r.refresh_all.conns)]);
    t.row(&[
        "DNS Lookups".into(),
        count(r.standard.lookups as usize),
        count(r.refresh_all.lookups as usize),
    ]);
    t.row(&[
        "Lookups/sec/house".into(),
        f2(r.standard.lookups_per_sec_per_house),
        f2(r.refresh_all.lookups_per_sec_per_house),
    ]);
    t.row(&["Cache Hits".into(), f1(r.standard.hit_pct) + "%", f1(r.refresh_all.hit_pct) + "%"]);
    t.row(&["Cache Misses".into(), f1(r.standard.miss_pct) + "%", f1(r.refresh_all.miss_pct) + "%"]);
    println!("{}", t.render());
    println!("lookup blow-up: {:.0}x (paper ~144x)\n", r.lookup_ratio());
}

fn diurnal(analysis: &Analysis<'_>) {
    println!("== diurnal profile: class mix by hour of day (extension; not a paper artifact) ==");
    let mut t = Table::new(
        "hour-of-day classification",
        &["hour", "conns", "LC %", "blocked %"],
    );
    for (hour, c) in analysis.diurnal_profile() {
        if c.total() == 0 {
            continue;
        }
        t.row(&[
            format!("{hour:02}"),
            count(c.total()),
            f1(c.share_pct(ConnClass::LocalCache)),
            f1(c.blocked_share_pct()),
        ]);
    }
    println!("{}", t.render());
}

fn houses(analysis: &Analysis<'_>) {
    println!("== per-house DNS exposure (extension; not a paper artifact) ==");
    let mut t = Table::new(
        "top 12 houses by connection count",
        &["house", "conns", "lookups", "blocked %", "p95 blocked ms"],
    );
    for h in analysis.house_reports().into_iter().take(12) {
        t.row(&[
            h.addr.to_string(),
            count(h.classes.total()),
            count(h.lookups),
            f1(h.blocked_share_pct()),
            h.blocked_delay_ms
                .quantile(0.95)
                .map(|v| format!("{v:.1}"))
                .unwrap_or_else(|| "-".into()),
        ]);
    }
    println!("{}", t.render());
}

fn ablate_threshold(logs: &Logs) {
    println!("== ablation: blocking threshold sweep (paper footnote 5) ==");
    let mut t = Table::new(
        "class mix vs blocking threshold",
        &["threshold ms", "N %", "LC %", "P %", "SC %", "R %", "blocked %"],
    );
    for ms in [10u64, 20, 50, 100, 200, 500] {
        let mut cfg = AnalysisConfig::default();
        cfg.block_threshold = Duration::from_millis(ms);
        let a = Analysis::run(logs, cfg);
        let c = a.class_counts();
        t.row(&[
            ms.to_string(),
            f1(c.share_pct(ConnClass::NoDns)),
            f1(c.share_pct(ConnClass::LocalCache)),
            f1(c.share_pct(ConnClass::Prefetched)),
            f1(c.share_pct(ConnClass::SharedCache)),
            f1(c.share_pct(ConnClass::Resolution)),
            f1(c.blocked_share_pct()),
        ]);
    }
    println!("{}", t.render());
}

fn ablate_pairing(logs: &Logs) {
    println!("== ablation: pairing policy (paper par.4 robustness check) ==");
    let mut t = Table::new(
        "class mix vs pairing policy",
        &["policy", "N %", "LC %", "P %", "SC %", "R %"],
    );
    for (name, policy) in [
        ("most-recent", PairingPolicy::MostRecent),
        ("random", PairingPolicy::RandomNonExpired),
    ] {
        let mut cfg = AnalysisConfig::default();
        cfg.policy = policy;
        let a = Analysis::run(logs, cfg);
        let c = a.class_counts();
        t.row(&[
            name.into(),
            f1(c.share_pct(ConnClass::NoDns)),
            f1(c.share_pct(ConnClass::LocalCache)),
            f1(c.share_pct(ConnClass::Prefetched)),
            f1(c.share_pct(ConnClass::SharedCache)),
            f1(c.share_pct(ConnClass::Resolution)),
        ]);
    }
    println!("{}", t.render());
}

fn ablate_scr(logs: &Logs) {
    println!("== ablation: SC/R resolver-threshold rule (paper par.5.3, footnote 7) ==");
    let mut t = Table::new(
        "SC/R split vs threshold multiplier",
        &["multiplier", "floor ms", "SC %", "R %", "hit rate %"],
    );
    for (mult, floor) in [(1.0, 3.0), (1.3, 5.0), (1.6, 5.0), (2.0, 8.0), (3.0, 10.0)] {
        let mut cfg = AnalysisConfig::default();
        cfg.threshold_rule.mult = mult;
        cfg.threshold_rule.floor_ms = floor;
        let a = Analysis::run(logs, cfg);
        let c = a.class_counts();
        t.row(&[
            f2(mult),
            f1(floor),
            f1(c.share_pct(ConnClass::SharedCache)),
            f1(c.share_pct(ConnClass::Resolution)),
            f1(100.0 * c.shared_hit_rate()),
        ]);
    }
    println!("{}", t.render());
}


/// `obs` experiment: the packet pipeline end to end with full
/// instrumentation.
///
/// Each stage runs under a `stage.*` span (monotonic wall time plus at
/// least one key counter as a note) and contributes its counters to one
/// [`xkit::obs::Metrics`] snapshot, merged in a fixed stage order. The
/// snapshot is a pure function of (config, seed) — sharded work merges
/// in shard order upstream — so the JSON `metrics` section is
/// byte-identical for every `--threads` value; wall-clock times live
/// only in the `spans` section. Human-readable output (span tree,
/// metrics table) goes to stderr; stdout carries exactly one JSON
/// document, also written to `--obs-out`.
/// Parse a snapshot written by `repro obs` back with the in-tree JSON
/// parser and check its contract: a `meta` section, a non-empty
/// `metrics` object, and one `stage.*` span per pipeline stage, each
/// with a wall time and at least one note. Exits non-zero on any
/// violation, so scripts can gate on it.
fn obs_check(path: &str) {
    let fail = |msg: String| -> ! {
        eprintln!("obs-check: {msg}");
        std::process::exit(1);
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => fail(format!("cannot read {path}: {e}")),
    };
    let v = match xkit::obs::json::parse(&text) {
        Ok(v) => v,
        Err(e) => fail(format!("invalid JSON in {path}: {e}")),
    };
    if v.get("meta").and_then(|m| m.as_obj()).is_none() {
        fail(format!("{path}: missing `meta` object"));
    }
    let metrics = match v.get("metrics").and_then(|m| m.as_obj()) {
        Some(m) if !m.is_empty() => m,
        _ => fail(format!("{path}: missing or empty `metrics` object")),
    };
    let spans = match v.get("spans").and_then(|s| s.as_arr()) {
        Some(s) => s,
        None => fail(format!("{path}: missing `spans` array")),
    };
    for want in
        ["capture", "zeek", "pair", "thresholds", "classify", "perf", "report"]
    {
        let name = format!("stage.{want}");
        let span = spans
            .iter()
            .find(|s| s.get("name").and_then(|n| n.as_str()) == Some(&name))
            .unwrap_or_else(|| fail(format!("{path}: missing span {name}")));
        if span.get("wall_ns").and_then(|w| w.as_f64()).is_none() {
            fail(format!("{path}: span {name} has no wall_ns"));
        }
        match span.get("notes").and_then(|n| n.as_obj()) {
            Some(notes) if !notes.is_empty() => {}
            _ => fail(format!("{path}: span {name} carries no counter notes")),
        }
    }
    println!(
        "obs-check OK: {path} ({} metrics, {} spans)",
        metrics.len(),
        spans.len()
    );
}

/// Fetch every endpoint of a running observability server and check the
/// DESIGN.md §13 contract: `/healthz` answers, `/snapshot` parses back
/// through the in-tree JSON parser into a [`xkit::obs::Metrics`],
/// `/metrics` is exactly the Prometheus rendering of that same snapshot,
/// `/spans` is a Chrome trace-event array (`ph:"X"`, numeric `ts`/`dur`
/// in microseconds), and `/events` is a well-formed flight-recorder dump.
fn check_live_endpoints(addr: &str) -> Result<(), String> {
    use xkit::obs::{http, json, Metrics};
    let fetch = |path: &str| -> Result<String, String> {
        let (status, body) = http::get(addr, path).map_err(|e| format!("GET {path}: {e}"))?;
        if status != 200 {
            return Err(format!("GET {path}: status {status}"));
        }
        Ok(body)
    };

    let health = fetch("/healthz")?;
    if health != "ok\n" {
        return Err(format!("/healthz body {health:?}"));
    }

    let snapshot = fetch("/snapshot")?;
    let v = json::parse(&snapshot).map_err(|e| format!("/snapshot: {e}"))?;
    let parsed = Metrics::from_json_value(&v).map_err(|e| format!("/snapshot: {e}"))?;

    // The hub publishes whole snapshots atomically, so between two
    // scrapes of a settled run these must agree byte for byte.
    let prom = fetch("/metrics")?;
    if prom != parsed.to_prometheus("dnsctx") {
        return Err("/metrics is not the Prometheus rendering of /snapshot".into());
    }

    let spans = fetch("/spans")?;
    let sv = json::parse(&spans).map_err(|e| format!("/spans: {e}"))?;
    let trace = sv.as_arr().ok_or("/spans: not an array")?;
    for ev in trace {
        if ev.get("ph").and_then(|p| p.as_str()) != Some("X") {
            return Err("/spans: event without ph=\"X\"".into());
        }
        for key in ["ts", "dur"] {
            if ev.get(key).and_then(|t| t.as_f64()).is_none() {
                return Err(format!("/spans: event missing numeric {key}"));
            }
        }
    }

    let flight = fetch("/events")?;
    let fv = json::parse(&flight).map_err(|e| format!("/events: {e}"))?;
    for key in ["capacity", "recorded", "dropped"] {
        if fv.get(key).and_then(|n| n.as_f64()).is_none() {
            return Err(format!("/events: missing {key}"));
        }
    }
    if fv.get("events").and_then(|e| e.as_arr()).is_none() {
        return Err("/events: missing events array".into());
    }
    Ok(())
}

/// `obs-check --url ADDR`: the live-server spelling of the snapshot
/// contract check.
fn obs_check_url(addr: &str) {
    match check_live_endpoints(addr) {
        Ok(()) => println!("obs-check OK: live endpoints on {addr}"),
        Err(e) => {
            eprintln!("obs-check: {e}");
            std::process::exit(1);
        }
    }
}

/// Start the live observability plane when `--serve ADDR` was given:
/// returns the hub the pipeline publishes into plus the running server.
/// The server answers from its first instant (empty-but-valid snapshot)
/// and shuts down when the returned guard drops.
fn start_serving(
    opts: &Opts,
    who: &str,
) -> (Option<xkit::obs::ObsHub>, Option<xkit::obs::http::ObsServer>) {
    if opts.serve.is_empty() {
        return (None, None);
    }
    let hub = xkit::obs::ObsHub::default();
    let server = xkit::obs::http::serve(&opts.serve, "dnsctx", hub.clone())
        .expect("bind observability server");
    eprintln!(
        "# {who}: serving /metrics /snapshot /spans /events /healthz on http://{}",
        server.addr()
    );
    (Some(hub), Some(server))
}

/// Run the `--serve-check` self-validation against our own server, then
/// shut it down. Exits non-zero on any contract violation.
fn finish_serving(opts: &Opts, who: &str, server: Option<xkit::obs::http::ObsServer>) {
    let Some(mut server) = server else { return };
    if opts.serve_check {
        let addr = server.addr().to_string();
        match check_live_endpoints(&addr) {
            Ok(()) => eprintln!("# {who}: serve-check OK on {addr}"),
            Err(e) => {
                eprintln!("# {who}: serve-check FAILED: {e}");
                std::process::exit(1);
            }
        }
    }
    server.shutdown();
}

fn obs(opts: &Opts) {
    use dnsctx::dns_context::classify::{classify_parallel, count_classes, resolver_thresholds};
    use dnsctx::dns_context::perf::PerfAnalysis;
    use dnsctx::dns_context::tally::{Settled, Tally};
    use dnsctx::dns_context::{Coverage, Pairing};
    use dnsctx::zeek_lite::{Monitor, MonitorConfig, Timestamp};
    use xkit::obs::{Metrics, SpanLog};

    // The packet path buffers every frame, so cap the workload — but keep
    // it above one simulation shard (25 houses) so the thread-invariance
    // of the snapshot exercises a real multi-shard merge.
    let houses = opts.houses.min(50);
    let days = opts.days.min(1.0);
    let cfg = WorkloadConfig {
        scale: ScaleKnobs { houses, days, activity: opts.scale },
        ..WorkloadConfig::default()
    };
    eprintln!(
        "# obs: simulating {houses} houses x {days} days at activity {} (seed {}, threads {}) ...",
        opts.scale, opts.seed, opts.threads
    );
    let mut spans = SpanLog::new();
    let mut metrics = Metrics::new();
    let acfg = opts.analysis_cfg();

    // stage.capture: simulate the trace and render it to pcap bytes.
    let s = spans.start("stage.capture");
    let sim = simulation(cfg, opts.seed).with_threads(opts.threads);
    let mut pcap = Vec::new();
    let (_truth, frames, sim_metrics) =
        sim.run_pcap_observed(&mut pcap, 65_535).expect("in-memory pcap");
    metrics.merge(&sim_metrics);
    spans.note(s, "frames", frames as f64);
    spans.note(s, "pcap_bytes", pcap.len() as f64);
    spans.finish(s);

    // stage.zeek: read the capture record-by-record through the monitor
    // (borrowed records over the source's reusable buffer — no per-frame
    // allocation; the file backend of the ingestion seam).
    let s = spans.start("stage.zeek");
    let mut source = dnsctx::pcapio::source::file(&pcap[..]).expect("pcap header");
    let mut monitor = Monitor::new(MonitorConfig::default());
    while let Some(record) = source.next_record().expect("pcap record") {
        monitor.handle_frame(Timestamp(record.ts_nanos), record.data, record.orig_len);
    }
    metrics.merge(&source.metrics());
    let logs = monitor.finish();
    metrics.merge(&logs.metrics());
    spans.note(s, "conn_rows", logs.conns.len() as f64);
    spans.note(s, "dns_rows", logs.dns.len() as f64);
    spans.finish(s);

    // stage.pair: DN-Hunter pairing of connections with lookups.
    let s = spans.start("stage.pair");
    let pairing = Pairing::build(&logs.conns, &logs.dns, acfg.policy);
    let hits = pairing.pairs.iter().filter(|p| p.dns.is_some() && !p.expired).count();
    spans.note(s, "app_conns", pairing.app_conn_count() as f64);
    spans.note(s, "hits", hits as f64);
    spans.finish(s);

    // stage.thresholds: per-resolver SC/R duration thresholds (scans the
    // columnar projections built once here).
    let s = spans.start("stage.thresholds");
    let conn_cols = logs.conn_columns();
    let dns_cols = logs.dns_columns();
    let thresholds = resolver_thresholds(&dns_cols, acfg.threshold_rule);
    spans.note(s, "resolvers", thresholds.len() as f64);
    spans.finish(s);

    // stage.classify: the Table 2 five-way split.
    let s = spans.start("stage.classify");
    let classes = classify_parallel(
        opts.threads,
        &dns_cols,
        &pairing,
        acfg.block_threshold,
        &thresholds,
        acfg.threshold_rule.floor(),
    );
    let counts = count_classes(&classes);
    spans.note(s, "classified", counts.total() as f64);
    spans.finish(s);

    // stage.perf: blocked-connection delay figures.
    let s = spans.start("stage.perf");
    let perf = PerfAnalysis::compute(&conn_cols, &dns_cols, &pairing, &classes);
    spans.note(s, "blocked_conns", perf.blocked.len() as f64);
    spans.finish(s);

    // stage.report: the analysis snapshot, coverage summary and
    // human-readable rendering (stderr).
    let s = spans.start("stage.report");
    let settled = Settled { degradation: &logs.degradation, thresholds: &thresholds };
    Tally::batch(&pairing, &classes, &dns_cols).write(&mut metrics, Some(settled));
    let coverage = Coverage {
        frame_acceptance: logs.degradation.frame_acceptance(),
        dns_acceptance: logs.degradation.dns_acceptance(),
        app_conns: pairing.app_conn_count(),
        paired: pairing.pairs.iter().filter(|p| p.dns.is_some()).count(),
    };
    let table = metrics.render_table();
    spans.note(s, "metrics", metrics.len() as f64);
    spans.finish(s);

    eprintln!("# obs: coverage {coverage}");
    eprint!("{table}");
    eprint!("{}", spans.render_tree());

    let json = format!(
        "{{\"meta\":{{\"experiment\":\"obs\",\"houses\":{houses},\"days\":{days},\"activity\":{},\"seed\":{},\"threads\":{}}},\"metrics\":{},\"spans\":{}}}",
        opts.scale,
        opts.seed,
        opts.threads,
        metrics.to_json(),
        spans.to_json()
    );
    std::fs::write(&opts.obs_out, format!("{json}\n")).expect("write obs snapshot");
    eprintln!("# obs: wrote {}", opts.obs_out);
    println!("{json}");
}

/// `stream` experiment: run the bounded-memory epoch pipeline over a
/// simulated capture and publish the merged analysis + `stream.*`
/// snapshot as one JSON document on stdout (same discipline as `obs`).
///
/// The released DNS rows also feed a windowed `cache_sim` replay, so the
/// whole-house cache numbers come out of the same single pass. For a
/// finite window the peak-live gauges must come in strictly below the
/// full-trace row totals — that is the point of the exercise, and the
/// run asserts it.
fn stream(opts: &Opts) {
    use dnsctx::dns_context::stream;
    use dnsctx::pcapio;
    use dnsctx::zeek_lite::MonitorConfig;
    use xkit::obs::{Metrics, SpanLog};

    // The pcap bytes live in memory, so cap the workload like `obs` does.
    let houses = opts.houses.min(50);
    let days = opts.days.min(1.0);
    let cfg = WorkloadConfig {
        scale: ScaleKnobs { houses, days, activity: opts.scale },
        ..WorkloadConfig::default()
    };
    let window = Duration::from_secs_f64(opts.window_secs);
    eprintln!(
        "# stream: {houses} houses x {days} days at activity {} (seed {}, threads {}, window {}s) ...",
        opts.scale, opts.seed, opts.threads, opts.window_secs
    );
    let mut spans = SpanLog::new();
    let mut metrics = Metrics::new();
    let (hub, server) = start_serving(opts, "stream");

    // stage.capture: simulate the trace and render it to pcap bytes.
    let s = spans.start("stage.capture");
    let sim = simulation(cfg, opts.seed).with_threads(opts.threads);
    let mut pcap = Vec::new();
    let (_truth, frames, sim_metrics) =
        sim.run_pcap_observed(&mut pcap, 65_535).expect("in-memory pcap");
    metrics.merge(&sim_metrics);
    spans.note(s, "frames", frames as f64);
    spans.note(s, "pcap_bytes", pcap.len() as f64);
    spans.finish(s);

    // stage.stream: one pass over the capture, epoch by epoch. Released
    // rows are classified incrementally and replayed through the
    // whole-house cache model, then dropped — nothing accumulates.
    let s = spans.start("stage.stream");
    let mut source = pcapio::source::file(&pcap[..]).expect("pcap header");
    let mut replay = cache_sim::CacheReplay::new(Duration::from_secs(60));
    let window_nanos = window.nanos();
    // One pass through the ingestion seam: `process_source` owns the
    // epoch windowing (epoch k covers [k*window, (k+1)*window) ns); the
    // sink replays each epoch's released DNS rows through the cache
    // model and drops them. With `--serve`, every epoch boundary also
    // publishes a prefix snapshot to the hub.
    let result = stream::process_source_observed(
        &mut source,
        window,
        MonitorConfig::default(),
        opts.analysis_cfg(),
        hub.as_ref(),
        |out| {
            for txn in &out.dns {
                replay.offer(txn);
            }
        },
    )
    .expect("stream run");
    metrics.merge(&source.metrics());
    for txn in &result.tail.dns {
        replay.offer(txn);
    }
    metrics.merge(&result.analysis_metrics);
    metrics.merge(&result.stream_metrics);
    metrics.add("cache.hits", replay.hits());
    metrics.add("cache.misses", replay.misses());
    metrics.add("cache.evicted", replay.evicted());
    metrics.gauge_max("cache.peak_live", replay.peak_live() as f64);
    spans.note(s, "epochs", metrics.counter("stream.epochs") as f64);
    spans.note(s, "conn_rows", metrics.counter("zeek.conn_rows") as f64);
    spans.note(s, "dns_rows", metrics.counter("zeek.dns_rows") as f64);
    spans.finish(s);

    let conn_rows = metrics.counter("zeek.conn_rows");
    let dns_rows = metrics.counter("zeek.dns_rows");
    let peak_flows = metrics.gauge("stream.peak_live_flows").unwrap_or(0.0);
    let peak_answers = metrics.gauge("stream.peak_live_answers").unwrap_or(0.0);
    eprintln!(
        "# stream: {} epochs; peak live flows {} of {} rows, peak live answers {} of {} rows",
        metrics.counter("stream.epochs"),
        peak_flows,
        count(conn_rows as usize),
        peak_answers,
        count(dns_rows as usize),
    );
    eprintln!(
        "# stream: cache replay {} hits / {} misses (peak {} live)",
        count(replay.hits() as usize),
        count(replay.misses() as usize),
        replay.peak_live()
    );
    if window_nanos > 0 {
        assert!(
            (peak_flows as u64) < conn_rows && (peak_answers as u64) < dns_rows,
            "finite window must bound live state below the full-trace totals"
        );
    }

    // The settled snapshot: after this, `/snapshot` matches the stdout
    // document's metrics section and `/spans` carries the Chrome trace.
    if let Some(hub) = &hub {
        hub.publish_metrics(metrics.clone());
        hub.publish_spans(spans.to_chrome_trace());
    }
    finish_serving(opts, "stream", server);

    let json = format!(
        "{{\"meta\":{{\"experiment\":\"stream\",\"houses\":{houses},\"days\":{days},\"activity\":{},\"seed\":{},\"threads\":{},\"window_secs\":{}}},\"metrics\":{},\"spans\":{}}}",
        opts.scale,
        opts.seed,
        opts.threads,
        opts.window_secs,
        metrics.to_json(),
        spans.to_json()
    );
    println!("{json}");
}

/// `ingest` experiment: one monitor + analysis pass driven through the
/// pluggable `RecordSource` seam, with the backend picked on the command
/// line.
///
/// `--source file` renders the simulated capture to in-memory pcap bytes
/// and replays them through the file backend. `--source ring` pipes the
/// same frames from a producer thread straight into the monitor over the
/// in-memory ring — no pcap serialization, no parse on the consumer
/// side. `--source iface` reads live frames from an `AF_PACKET` socket
/// (requires `--features raw-socket` and CAP_NET_RAW; `--frames N` caps
/// the read).
///
/// The stdout document carries only the deterministic metrics snapshot —
/// no spans, and no backend name in the meta — so a `file` run and a
/// `ring` run over the same workload emit byte-identical JSON.
/// `verify.sh` pins that equivalence.
fn ingest(opts: &Opts) {
    use dnsctx::dns_context::stream;
    use dnsctx::pcapio::{self, RecordSource};
    use dnsctx::zeek_lite::MonitorConfig;
    use xkit::obs::Metrics;

    // Same workload cap as `stream`: the frames live in memory either way.
    let houses = opts.houses.min(50);
    let days = opts.days.min(1.0);
    let cfg = WorkloadConfig {
        scale: ScaleKnobs { houses, days, activity: opts.scale },
        ..WorkloadConfig::default()
    };
    let window = Duration::from_secs_f64(opts.window_secs);
    eprintln!(
        "# ingest: source {} ({houses} houses x {days} days at activity {}, seed {}, threads {}, window {}s) ...",
        opts.source, opts.scale, opts.seed, opts.threads, opts.window_secs
    );
    let mut metrics = Metrics::new();
    let mut replay = cache_sim::CacheReplay::new(Duration::from_secs(60));
    let monitor_cfg = MonitorConfig::default();
    let (hub, server) = start_serving(opts, "ingest");

    // Every backend funnels into the same `process_source` call; only the
    // way records arrive differs. The sink closure replays released DNS
    // rows through the cache model, exactly like `stream`.
    let result = match opts.source.as_str() {
        "file" => {
            let sim = simulation(cfg, opts.seed).with_threads(opts.threads);
            let mut pcap = Vec::new();
            let (_truth, _frames, sim_metrics) =
                sim.run_pcap_observed(&mut pcap, 65_535).expect("in-memory pcap");
            metrics.merge(&sim_metrics);
            let mut source = pcapio::source::file(&pcap[..]).expect("pcap header");
            let result = stream::process_source_observed(
                &mut source,
                window,
                monitor_cfg,
                opts.analysis_cfg(),
                hub.as_ref(),
                |out| {
                    for txn in &out.dns {
                        replay.offer(txn);
                    }
                },
            )
            .expect("ingest run");
            metrics.merge(&source.metrics());
            result
        }
        "ring" => {
            let sim = simulation(cfg, opts.seed).with_threads(opts.threads);
            let (mut tx, mut rx) =
                pcapio::ring::channel(1 << 20, 65_535, pcapio::Backpressure::Block);
            // Producer-side stalls land in the same flight ring the
            // consumer serves, so `/events` shows backpressure live.
            if let Some(hub) = &hub {
                tx.set_flight(hub.flight().clone());
            }
            // The producer owns the sink; dropping it at the end of the
            // closure closes the ring and the consumer sees EOF. Block
            // policy means nothing drops, so the consumed sequence equals
            // the offered sequence and the snapshot below is identical to
            // the file backend's. The scoped join is the sanctioned
            // spawn seam (thread-spawn-fence).
            let (result, sim_metrics) = xkit::par::join(
                2,
                || {
                    stream::process_source_observed(
                        &mut rx,
                        window,
                        monitor_cfg,
                        opts.analysis_cfg(),
                        hub.as_ref(),
                        |out| {
                            for txn in &out.dns {
                                replay.offer(txn);
                            }
                        },
                    )
                    .expect("ingest run")
                },
                move || {
                    let (_truth, _frames, sim_metrics) = sim.run_ring(&mut tx);
                    sim_metrics
                },
            );
            metrics.merge(&sim_metrics);
            metrics.merge(&rx.metrics());
            result
        }
        "iface" => {
            #[cfg(feature = "raw-socket")]
            {
                let mut source = match pcapio::raw::RawSource::open(&opts.iface, 65_535) {
                    Ok(s) => s.with_limit(opts.frames),
                    Err(e) => {
                        eprintln!("# ingest: cannot open interface {}: {e:?}", opts.iface);
                        std::process::exit(2);
                    }
                };
                let result = stream::process_source_observed(
                    &mut source,
                    window,
                    monitor_cfg,
                    opts.analysis_cfg(),
                    hub.as_ref(),
                    |out| {
                        for txn in &out.dns {
                            replay.offer(txn);
                        }
                    },
                )
                .expect("ingest run");
                metrics.merge(&source.metrics());
                result
            }
            #[cfg(not(feature = "raw-socket"))]
            {
                eprintln!(
                    "# ingest: --source iface needs a build with --features raw-socket"
                );
                std::process::exit(2);
            }
        }
        other => {
            eprintln!("# ingest: unknown source {other:?} (expected file, ring, or iface)");
            std::process::exit(2);
        }
    };

    for txn in &result.tail.dns {
        replay.offer(txn);
    }
    metrics.merge(&result.analysis_metrics);
    metrics.merge(&result.stream_metrics);
    metrics.add("cache.hits", replay.hits());
    metrics.add("cache.misses", replay.misses());
    metrics.add("cache.evicted", replay.evicted());
    metrics.gauge_max("cache.peak_live", replay.peak_live() as f64);

    eprintln!(
        "# ingest[{}]: {} frames in, {} epochs, {} conn rows / {} dns rows",
        opts.source,
        count(metrics.counter("capture.frames_read") as usize),
        metrics.counter("stream.epochs"),
        count(metrics.counter("zeek.conn_rows") as usize),
        count(metrics.counter("zeek.dns_rows") as usize),
    );

    // Settle the live plane: `/snapshot` now matches the stdout metrics
    // section exactly. `ingest` has no spans, so `/spans` stays `[]`.
    if let Some(hub) = &hub {
        hub.publish_metrics(metrics.clone());
    }
    finish_serving(opts, "ingest", server);

    let json = format!(
        "{{\"meta\":{{\"experiment\":\"ingest\",\"houses\":{houses},\"days\":{days},\"activity\":{},\"seed\":{},\"threads\":{},\"window_secs\":{}}},\"metrics\":{}}}",
        opts.scale,
        opts.seed,
        opts.threads,
        opts.window_secs,
        metrics.to_json()
    );
    println!("{json}");
}

/// `serve` experiment: the multi-tenant streaming daemon (DESIGN.md
/// §15). `--tenants N` simulated vantage points (seeds staggered off
/// `--seed`) are registered with a [`bench::serve::Daemon`], sharded
/// over `--threads` pool workers, and served live over the
/// tenant-routed observability plane (`/tenants`,
/// `/tenants/<id>/snapshot|metrics`, aggregate `/snapshot` +
/// `/metrics`). After the drain barrier the daemon shuts down
/// gracefully — every engine flushed through `finish()` before the
/// accept thread exits — and stdout carries one JSON document: the
/// tenant roster plus the id-ordered aggregate fold, whose `metrics`
/// section is byte-identical for any `--threads` value.
fn serve_daemon(opts: &Opts) {
    use bench::serve::{Daemon, DaemonConfig, TenantSpec};

    // Per-tenant workload cap, same spirit as stream/ingest: the daemon
    // scales by tenant count, not per-tenant size.
    let houses = opts.houses.min(12);
    let days = opts.days.min(0.25);
    let tenants = opts.tenants;
    let addr = if opts.serve.is_empty() { "127.0.0.1:0" } else { &opts.serve };
    eprintln!(
        "# serve: {tenants} tenants ({houses} houses x {days} days at activity {}, base seed {}, threads {}, window {}s)",
        opts.scale, opts.seed, opts.threads, opts.window_secs
    );

    let daemon = Daemon::new(DaemonConfig {
        threads: opts.threads,
        serve: Some(addr.to_string()),
        namespace: "dnsctx".to_string(),
    })
    .expect("bind daemon observability server");
    let bound = daemon.addr().expect("daemon serves");
    eprintln!("# serve: tenant-routed observability on http://{bound}");

    for k in 0..tenants {
        let mut spec = TenantSpec::sim(
            &format!("t{k:03}"),
            houses,
            days,
            opts.scale,
            opts.seed.wrapping_add(k as u64),
        );
        spec.window_secs = opts.window_secs;
        daemon.add_tenant(spec).unwrap_or_else(|e| workload_error(e));
    }

    daemon.drain();
    if daemon.panicked() > 0 {
        eprintln!("# serve: {} tenant(s) failed", daemon.panicked());
        std::process::exit(1);
    }

    if opts.serve_check {
        let addr = bound.to_string();
        match check_live_endpoints(&addr).and_then(|()| check_tenant_endpoints(&addr, tenants)) {
            Ok(()) => eprintln!("# serve: serve-check OK on {addr}"),
            Err(e) => {
                eprintln!("# serve: serve-check FAILED: {e}");
                std::process::exit(1);
            }
        }
    }

    let roster = daemon.tenants();
    let aggregate = daemon.shutdown();
    eprintln!(
        "# serve: drained {} tenants, {} frames in, {} epochs, {} conn rows / {} dns rows",
        roster.len(),
        count(aggregate.counter("capture.frames_read") as usize),
        aggregate.counter("stream.epochs"),
        count(aggregate.counter("zeek.conn_rows") as usize),
        count(aggregate.counter("zeek.dns_rows") as usize),
    );

    let mut roster_json = String::from("[");
    for (i, (id, state)) in roster.iter().enumerate() {
        if i > 0 {
            roster_json.push(',');
        }
        roster_json.push_str(&format!("{{\"id\":\"{id}\",\"state\":\"{state}\"}}"));
    }
    roster_json.push(']');
    let json = format!(
        "{{\"meta\":{{\"experiment\":\"serve\",\"tenants\":{tenants},\"houses\":{houses},\"days\":{days},\"activity\":{},\"seed\":{},\"threads\":{},\"window_secs\":{}}},\"tenants\":{roster_json},\"metrics\":{}}}",
        opts.scale,
        opts.seed,
        opts.threads,
        opts.window_secs,
        aggregate.to_json()
    );
    println!("{json}");
}

/// The tenant-plane half of `--serve-check`: `/tenants` lists exactly
/// the drained roster, every tenant's snapshot parses back and its
/// Prometheus view agrees, and unknown tenants 404.
fn check_tenant_endpoints(addr: &str, expect: usize) -> Result<(), String> {
    use xkit::obs::{http, json, Metrics};
    let (status, body) = http::get(addr, "/tenants").map_err(|e| format!("GET /tenants: {e}"))?;
    if status != 200 {
        return Err(format!("GET /tenants: status {status}"));
    }
    let v = json::parse(&body).map_err(|e| format!("/tenants: {e}"))?;
    let roster = v
        .get("tenants")
        .and_then(|t| t.as_arr())
        .ok_or("/tenants: missing tenants array")?
        .to_vec();
    if roster.len() != expect {
        return Err(format!("/tenants lists {} tenants, want {expect}", roster.len()));
    }
    for entry in &roster {
        let id = entry
            .get("id")
            .and_then(|x| x.as_str())
            .ok_or("/tenants: entry without id")?;
        let state = entry.get("state").and_then(|x| x.as_str()).unwrap_or("?");
        if state != "drained" {
            return Err(format!("tenant {id} in state {state:?} after drain"));
        }
        let path = format!("/tenants/{id}/snapshot");
        let (status, snap) = http::get(addr, &path).map_err(|e| format!("GET {path}: {e}"))?;
        if status != 200 {
            return Err(format!("GET {path}: status {status}"));
        }
        let sv = json::parse(&snap).map_err(|e| format!("{path}: {e}"))?;
        let parsed = Metrics::from_json_value(&sv).map_err(|e| format!("{path}: {e}"))?;
        let path = format!("/tenants/{id}/metrics");
        let (status, prom) = http::get(addr, &path).map_err(|e| format!("GET {path}: {e}"))?;
        if status != 200 || prom != parsed.to_prometheus("dnsctx") {
            return Err(format!("{path} is not the Prometheus rendering of the snapshot"));
        }
    }
    let (status, _) = http::get(addr, "/tenants/no-such-tenant/snapshot")
        .map_err(|e| format!("GET unknown tenant: {e}"))?;
    if status != 404 {
        return Err(format!("unknown tenant answered {status}, want 404"));
    }
    Ok(())
}

/// `fuzz` experiment: corrupt a simulated capture at increasing fault
/// rates and verify the pipeline degrades gracefully.
///
/// One simulation is rendered to pcap bytes once; each rate then streams
/// those bytes through a seeded [`xkit::fault::FaultInjector`] (split off
/// the master RNG per rate, so every run is byte-reproducible), re-parses
/// the corrupted capture with the monitor, and runs the full analysis.
/// Asserted invariants: the sweep completes without a panic, frame
/// acceptance and pair coverage degrade monotonically with the rate, and
/// the rate-0 capture and its logs are byte-identical to the clean
/// pipeline's.
fn fuzz(opts: &Opts) {
    use dnsctx::pcapio::{self, PcapRecord, RecordTransform};
    use dnsctx::zeek_lite::{logfmt, Monitor, MonitorConfig};
    use xkit::fault::{FaultConfig, FaultInjector, RawFrame};
    use xkit::rng::{SeedableRng, StdRng};

    /// Bridge the injector into the pcap rewrite seam.
    struct Corruptor(FaultInjector);
    impl Corruptor {
        fn to_rec(f: RawFrame) -> PcapRecord {
            PcapRecord { ts_nanos: f.ts_nanos, orig_len: f.orig_len, data: f.data }
        }
    }
    impl RecordTransform for Corruptor {
        fn apply(&mut self, r: PcapRecord) -> Vec<PcapRecord> {
            let raw = RawFrame { ts_nanos: r.ts_nanos, orig_len: r.orig_len, data: r.data };
            self.0.apply(raw).into_iter().map(Self::to_rec).collect()
        }
        fn flush(&mut self) -> Vec<PcapRecord> {
            self.0.flush().into_iter().map(Self::to_rec).collect()
        }
    }

    /// Serialize both logs to their Zeek-style TSV form for byte-exact
    /// comparison.
    fn render_logs(logs: &Logs) -> Vec<u8> {
        let mut buf = Vec::new();
        logfmt::write_conn_log(&mut buf, &logs.conns).expect("in-memory write");
        logfmt::write_dns_log(&mut buf, &logs.dns).expect("in-memory write");
        buf
    }

    // The packet path buffers every frame, so cap the workload well below
    // the analysis default (still overridable downward via the flags).
    let houses = opts.houses.min(25);
    let days = opts.days.min(1.0);
    let cfg = WorkloadConfig {
        scale: ScaleKnobs { houses, days, activity: opts.scale },
        ..WorkloadConfig::default()
    };
    eprintln!(
        "# fuzz: simulating {houses} houses x {days} days at activity {} (seed {}) ...",
        opts.scale, opts.seed
    );
    let sim = simulation(cfg, opts.seed).with_threads(opts.threads);
    let mut clean = Vec::new();
    let (_, frames) = sim.run_pcap(&mut clean, 65_535).expect("in-memory pcap");
    eprintln!("# fuzz: {} frames, {} pcap bytes", count(frames as usize), count(clean.len()));

    let baseline = Monitor::process_pcap(&clean[..], MonitorConfig::default())
        .expect("clean capture parses");
    let baseline_fmt = render_logs(&baseline);

    let master = StdRng::seed_from_u64(opts.seed);
    let rates = [0.0, 0.01, 0.05, 0.2];
    let mut acceptances = Vec::new();
    let mut coverages = Vec::new();
    for (i, &rate) in rates.iter().enumerate() {
        let mut corrupted = Vec::new();
        let mut c = Corruptor(FaultInjector::new(FaultConfig::uniform(rate), master.split(i as u64)));
        pcapio::rewrite(&clean[..], &mut corrupted, &mut c).expect("in-memory rewrite");
        let fs = *c.0.stats();
        let logs = Monitor::process_pcap(&corrupted[..], MonitorConfig::default())
            .expect("corrupted capture still reads record-by-record");
        let analysis = Analysis::run(&logs, opts.analysis_cfg());
        let cov = analysis.coverage();
        let counts = analysis.class_counts();

        println!("== fuzz: fault rate {rate} ==");
        println!(
            "injector: {} in / {} out — {} dropped, {} truncated, {} bit-flipped, {} duplicated, {} reordered",
            fs.frames_in, fs.frames_out, fs.dropped, fs.truncated, fs.bit_flipped, fs.duplicated, fs.reordered
        );
        print!("{}", logs.degradation);
        println!("coverage: {cov}");
        println!(
            "class mix: N {:.1}%  LC {:.1}%  P {:.1}%  SC {:.1}%  R {:.1}%\n",
            counts.share_pct(ConnClass::NoDns),
            counts.share_pct(ConnClass::LocalCache),
            counts.share_pct(ConnClass::Prefetched),
            counts.share_pct(ConnClass::SharedCache),
            counts.share_pct(ConnClass::Resolution),
        );

        if rate == 0.0 {
            assert_eq!(corrupted, clean, "rate-0 rewrite must be byte-identical to the capture");
            assert_eq!(
                render_logs(&logs),
                baseline_fmt,
                "rate-0 logs must be byte-identical to the clean pipeline"
            );
            assert!(logs.degradation.is_clean(), "rate-0 run must reject nothing");
        }
        acceptances.push(cov.frame_acceptance);
        coverages.push(cov.pair_coverage());
    }

    // Monotone degradation: frame acceptance tracks the rate exactly;
    // pair coverage follows with a small stochastic slack (corrupting a
    // SYN removes the connection from the denominator too).
    for i in 1..rates.len() {
        assert!(
            acceptances[i] <= acceptances[i - 1] + 1e-9,
            "frame acceptance rose between rates {} and {}: {} -> {}",
            rates[i - 1], rates[i], acceptances[i - 1], acceptances[i]
        );
        assert!(
            coverages[i] <= coverages[i - 1] + 0.02,
            "pair coverage rose between rates {} and {}: {} -> {}",
            rates[i - 1], rates[i], coverages[i - 1], coverages[i]
        );
    }
    let last = rates.len() - 1;
    assert!(acceptances[last] < acceptances[0], "20% faults must reject frames");
    assert!(coverages[last] < coverages[0], "20% faults must cost pair coverage");
    println!(
        "fuzz OK: rates {rates:?}, zero panics, monotone degradation, rate-0 byte-identical"
    );
}

/// One seed's headline statistics, for the multi-seed spread table.
#[derive(Clone, Copy)]
struct Headline {
    seed: u64,
    shares: [f64; 5],
    blocked: f64,
    hit_rate: f64,
    significant_all: f64,
}

/// Run one full simulation + analysis and distill the headline numbers.
/// Each worker runs its simulation single-threaded: in a seed sweep the
/// parallelism budget is spent across seeds, not within one. The
/// caller's scratch (one per sweep worker, built once) carries the
/// pairing arena across seeds.
fn headline_for_seed(
    cfg: &WorkloadConfig,
    scratch: &mut dnsctx::dns_context::AnalysisScratch,
    seed: u64,
) -> Headline {
    let out = simulation(cfg.clone(), seed).with_threads(1).run();
    let mut acfg = AnalysisConfig::default();
    acfg.threads = 1;
    let analysis = Analysis::run_with(scratch, &out.logs, acfg);
    let c = analysis.class_counts();
    let shares = [
        c.share_pct(ConnClass::NoDns),
        c.share_pct(ConnClass::LocalCache),
        c.share_pct(ConnClass::Prefetched),
        c.share_pct(ConnClass::SharedCache),
        c.share_pct(ConnClass::Resolution),
    ];
    Headline {
        seed,
        shares,
        blocked: c.blocked_share_pct(),
        hit_rate: 100.0 * c.shared_hit_rate(),
        significant_all: analysis.significance().both_share_of_all_pct,
    }
}

/// Multi-seed mode: run K simulations in parallel and report the spread
/// of the headline statistics — a confidence check that no conclusion
/// hangs on one lucky seed.
fn multi_seed(cfg: &WorkloadConfig, opts: &Opts) {
    eprintln!(
        "# running {} seeds ({}..{}) across {} worker(s) ...",
        opts.seeds,
        opts.seed,
        opts.seed + opts.seeds as u64 - 1,
        xkit::par::resolve_threads(opts.threads).min(opts.seeds)
    );
    let seeds: Vec<u64> = (0..opts.seeds as u64).map(|k| opts.seed + k).collect();
    // par_map_with preserves input order (the rows come back seed-sorted)
    // and builds one analysis scratch per worker, reused across seeds.
    let rows = xkit::par::par_map_with(
        opts.threads,
        seeds,
        dnsctx::dns_context::AnalysisScratch::default,
        |scratch, _, seed| headline_for_seed(cfg, scratch, seed),
    );

    let mut t = Table::new(
        "headline statistics across seeds (paper: N 7.2, LC 42.9, P 7.8, SC 26.3, R 15.7; blocked 42.1; hit 62.6; signif 3.6)",
        &["seed", "N %", "LC %", "P %", "SC %", "R %", "blocked %", "hit %", "signif %"],
    );
    for h in &rows {
        t.row(&[
            h.seed.to_string(),
            f1(h.shares[0]),
            f1(h.shares[1]),
            f1(h.shares[2]),
            f1(h.shares[3]),
            f1(h.shares[4]),
            f1(h.blocked),
            f1(h.hit_rate),
            f1(h.significant_all),
        ]);
    }
    let col = |f: &dyn Fn(&Headline) -> f64| {
        let vals: Vec<f64> = rows.iter().map(f).collect();
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        let spread = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - vals.iter().cloned().fold(f64::INFINITY, f64::min);
        (mean, spread)
    };
    let summary: Vec<(f64, f64)> = vec![
        col(&|h| h.shares[0]),
        col(&|h| h.shares[1]),
        col(&|h| h.shares[2]),
        col(&|h| h.shares[3]),
        col(&|h| h.shares[4]),
        col(&|h| h.blocked),
        col(&|h| h.hit_rate),
        col(&|h| h.significant_all),
    ];
    let mut mean_row = vec!["mean".to_string()];
    let mut spread_row = vec!["spread".to_string()];
    for (m, s) in &summary {
        mean_row.push(f1(*m));
        spread_row.push(f1(*s));
    }
    t.row(&mean_row);
    t.row(&spread_row);
    println!("{}", t.render());
}
