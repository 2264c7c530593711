//! `study-week`: what `repro all` does, as a closed loop.
//!
//! Each iteration simulates the paper's week (`paper_week(0.1)`: 100
//! houses × 7 days) straight to logs, runs the analysis on a reused
//! scratch with its reports (class counts, perf, significance, platform
//! reports), and runs both cache simulations. No packet layer runs.

use crate::report::Checks;
use crate::trace::Tracer;
use crate::{heap_mark, heap_peak_mb, nproc, stats, Deadline, Opts, Outcome, Size};
use dnsctx::ccz_sim::{scenarios, ScaleKnobs, Simulation, WorkloadConfig};
use dnsctx::dns_context::classify::{classify_parallel, resolver_thresholds};
use dnsctx::dns_context::{
    Analysis, AnalysisConfig, AnalysisScratch, ClassCounts, Pairing, PairingScratch,
};
use dnsctx::zeek_lite::Duration;
use std::hint::black_box;
use std::time::Instant;

fn config(size: Size) -> WorkloadConfig {
    match size {
        Size::Full => scenarios::paper_week(0.1),
        Size::Tiny => WorkloadConfig {
            scale: ScaleKnobs { houses: 6, days: 0.3, activity: 0.1 },
            ..WorkloadConfig::default()
        },
    }
}

/// What one iteration measured.
struct Iteration {
    secs: f64,
    /// conn.log and dns.log rows.
    rows: (u64, u64),
    peak_mb: f64,
    counts: ClassCounts,
}

/// Per-iteration layer figures of a traced iteration.
#[derive(Default)]
struct LayerSamples {
    sim_allocs: Vec<f64>,
    sim_peak_mb: Vec<f64>,
    hit_share: Vec<f64>,
    pair_hit_share: Vec<f64>,
    offer_ns: Vec<f64>,
}

fn iteration(
    sim: &Simulation,
    scratch: &mut AnalysisScratch,
    checks: &mut Checks,
    tr: &mut Tracer,
    layers: &mut LayerSamples,
) -> Iteration {
    let mark = heap_mark();
    let t0 = Instant::now();
    let iter_span = tr.begin("study.iteration");
    let sim_mark = heap_mark();
    let sim_out = tr.span("ccz-sim.run", |_| sim.run());
    if tr.enabled() {
        layers.sim_allocs.push(tr.allocs("ccz-sim.run").last().copied().unwrap_or(0.0));
        layers.sim_peak_mb.push(heap_peak_mb(sim_mark));
    }
    let logs = &sim_out.logs;
    let analysis = tr.span("dns-context.analysis", |_| {
        Analysis::run_with(scratch, logs, AnalysisConfig::default())
    });
    let counts = tr.span("dns-context.class_counts", |_| analysis.class_counts());
    tr.span("dns-context.perf", |_| {
        black_box(analysis.perf().blocked.len());
        black_box(analysis.significance());
    });
    tr.span("dns-context.reports", |_| black_box(analysis.platform_reports().len()));
    let wh = tr.span("cache-sim.whole_house", |_| dnsctx::cache_sim::whole_house(logs, &analysis));
    let rf = tr.span("cache-sim.refresh", |_| {
        dnsctx::cache_sim::refresh(logs, &analysis, Duration::from_secs(10))
    });
    black_box((wh, rf));
    let app_conns = analysis.pairing.app_conn_count();
    let hits = analysis.pairing.metrics().counter("pair.hit");
    let rows = (logs.conns.len() as u64, logs.dns.len() as u64);
    drop(analysis);
    tr.end(iter_span);
    let secs = t0.elapsed().as_secs_f64();
    let peak_mb = heap_peak_mb(mark);

    checks.equal("study: N+LC+P+SC+R = app conns", counts.total(), app_conns);
    checks.equal("study: app conns = app rows of conn.log", app_conns, logs.app_conns().count());

    if tr.enabled() {
        layers.pair_hit_share.push(hits as f64 / app_conns.max(1) as f64);
        stage_probe(tr, logs);
        let (offer_ns, hit_share) = tr.span("cache-sim.replay_probe", |_| replay_probe(logs));
        layers.offer_ns.push(offer_ns);
        layers.hit_share.push(hit_share);
    }
    drop(sim_out);
    Iteration { secs, rows, peak_mb, counts }
}

/// The analysis stages one by one, each around its own public call:
/// columns, pairing, thresholds, classification.
pub fn stage_probe(tr: &mut Tracer, logs: &dnsctx::zeek_lite::Logs) {
    let cfg = AnalysisConfig::default();
    let mut scratch = PairingScratch::default();
    let stages = tr.begin("dns-context.stages");
    let (_conn_cols, dns_cols) =
        tr.span("zeek-lite.columns", |_| (logs.conn_columns(), logs.dns_columns()));
    let pairing = tr.span("dns-context.pair", |_| {
        Pairing::build_with(&mut scratch, &logs.conns, &logs.dns, cfg.policy)
    });
    let thresholds =
        tr.span("dns-context.thresholds", |_| resolver_thresholds(&dns_cols, cfg.threshold_rule));
    let floor = Duration::from_secs_f64(cfg.threshold_rule.floor_ms / 1e3);
    let classes = tr.span("dns-context.classify", |_| {
        classify_parallel(cfg.threads, &dns_cols, &pairing, cfg.block_threshold, &thresholds, floor)
    });
    black_box(classes.len());
    tr.end(stages);
}

/// Replay the DNS log through the whole-house cache model on its own:
/// `(ns per offer, hit share)`.
pub fn replay_probe(logs: &dnsctx::zeek_lite::Logs) -> (f64, f64) {
    let mut replay = dnsctx::cache_sim::CacheReplay::new(Duration::from_secs(60));
    let t0 = Instant::now();
    for txn in &logs.dns {
        black_box(replay.offer(txn));
    }
    let ns = t0.elapsed().as_nanos() as f64 / logs.dns.len().max(1) as f64;
    let offered = replay.hits() + replay.misses();
    (ns, replay.hits() as f64 / offered.max(1) as f64)
}

pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::new(opts.trace);
    let cfg = config(opts.size);
    let threads = nproc();
    let mut layers = LayerSamples::default();

    // Set-up: build the simulation and warm up with one full iteration,
    // three times. The first warm-up fixes the reference class counts.
    let mut setup_s = Vec::new();
    let mut reference: Option<ClassCounts> = None;
    let mut kept = None;
    let setups = if opts.trace { 1 } else { 3 };
    for _ in 0..setups {
        let t0 = Instant::now();
        let sim = Simulation::new(cfg.clone(), opts.seed)
            .expect("valid workload config")
            .with_threads(threads);
        let mut scratch = AnalysisScratch::default();
        let mut untraced = Tracer::new(false);
        let mut discard = LayerSamples::default();
        let warm = iteration(&sim, &mut scratch, &mut out.checks, &mut untraced, &mut discard);
        setup_s.push(t0.elapsed().as_secs_f64());
        match reference {
            None => reference = Some(warm.counts),
            Some(r) => {
                out.checks.equal("study: class counts repeat across set-ups", warm.counts, r)
            }
        }
        kept = Some((sim, scratch, warm.rows));
    }
    let (sim, mut scratch, rows) = kept.expect("at least one set-up");
    out.input("conn_rows", rows.0);
    out.input("dns_rows", rows.1);
    let reference = reference.expect("warm-up ran");

    let mut items = Vec::new();
    let mut lat_ms = Vec::new();
    let mut peaks = Vec::new();
    let mut deadline = Deadline::new(opts.seconds, 3);
    let mut iter_id = 0;
    while deadline.more() {
        iter_id += 1;
        out.tracer.set_iter(iter_id);
        let before = out.checks.violations().len();
        let it = iteration(&sim, &mut scratch, &mut out.checks, &mut out.tracer, &mut layers);
        out.checks.equal("study: class counts repeat across iterations", it.counts, reference);
        out.ops.record(out.checks.violations().len() == before);
        items.push((it.rows.0 + it.rows.1) as f64 / it.secs);
        lat_ms.push(it.secs * 1e3);
        peaks.push(it.peak_mb);
    }
    out.set_e2e(&setup_s, &items, &[lat_ms], &peaks);
    out.input("houses", cfg.scale.houses);
    out.input("days", cfg.scale.days);
    out.input("activity", cfg.scale.activity);
    out.input("threads", threads);
    out.note("study.iterations", iter_id as f64);
    out.note("study.app_conns", reference.total() as f64);

    if opts.trace {
        let tr = &out.tracer;
        let med = |name: &str| stats::median(&tr.durations_ms(name));
        let l = &mut out.layers;
        l.set("ccz-sim.run_ms", med("ccz-sim.run"));
        l.set("ccz-sim.allocs", stats::median(&layers.sim_allocs));
        l.set("ccz-sim.peak_mb", stats::median(&layers.sim_peak_mb));
        l.set("zeek-lite.columns_ms", med("zeek-lite.columns"));
        l.set("dns-context.pair_ms", med("dns-context.pair"));
        l.set("dns-context.thresholds_ms", med("dns-context.thresholds"));
        l.set("dns-context.classify_ms", med("dns-context.classify"));
        l.set("dns-context.perf_ms", med("dns-context.perf"));
        l.set("dns-context.reports_ms", med("dns-context.reports"));
        l.set("dns-context.pair_hit_share", stats::median(&layers.pair_hit_share));
        l.set("cache-sim.whole_house_ms", med("cache-sim.whole_house"));
        l.set("cache-sim.refresh_ms", med("cache-sim.refresh"));
        l.set("cache-sim.offer_ns_per_txn", stats::median(&layers.offer_ns));
        l.set("cache-sim.hit_share", stats::median(&layers.hit_share));
    }
    out
}
