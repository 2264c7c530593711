//! `serve-tenants`: the multi-tenant daemon under a live scraper.
//!
//! A `bench::serve::Daemon` with pool width `nproc` serves 4×`nproc`
//! tenants, each a distinct-seed capture of 25 houses × 0.5 day
//! rendered at set-up and passed as `TenantSource::Pcap` with a 60 s
//! window. Each iteration (a round) adds every tenant and drains the
//! pool. For the whole measured window one open-loop scraper GETs
//! `/metrics` on a fixed schedule, one connection at a time, and times
//! each scrape from when it was due.

use crate::probes::{self, StreamLayers};
use crate::report::{Checks, Ops};
use crate::trace::Tracer;
use crate::{heap_mark, heap_peak_mb, nproc, stats, Deadline, Opts, Outcome, Size};
use bench::serve::{
    run_tenant, sequential_aggregate, Daemon, DaemonConfig, TenantSource, TenantSpec,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
use std::time::{Duration, Instant};
use xkit::obs::http;

struct Scale {
    tenants: usize,
    houses: usize,
    days: f64,
    activity: f64,
}

fn scale(size: Size, width: usize) -> Scale {
    match size {
        Size::Full => Scale { tenants: 4 * width, houses: 25, days: 0.5, activity: 0.1 },
        Size::Tiny => Scale { tenants: 2, houses: 3, days: 0.1, activity: 0.1 },
    }
}

/// Scrape schedule: one `/metrics` GET every this often.
const SCRAPE_PERIOD: Duration = Duration::from_millis(5);

/// Scrapes per latency window: one second of the schedule, whose p95
/// has 10 scrapes beyond it. Wider windows reach p99, but that figure
/// follows the host's other load: two runs of one seed read 5.9 and
/// 7.3 ms at p99 against 3.9 and 4.0 ms at p95.
const SCRAPE_WINDOW: usize = 200;

/// Tenant `k` of a run seeded `seed`: distinct per tenant and per seed.
fn tenant_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(1_000).wrapping_add(k as u64)
}

/// Counter families of a Prometheus text body, or `None` when any
/// sample line does not parse.
fn parse_counters(body: &str) -> Option<BTreeMap<String, f64>> {
    let mut families = BTreeSet::new();
    let mut counters = BTreeMap::new();
    for line in body.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let (name, kind) = (parts.next()?, parts.next()?);
            if kind == "counter" {
                families.insert(name.to_string());
            }
            continue;
        }
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name, value) = line.rsplit_once(' ')?;
        let value: f64 = value.parse().ok()?;
        if families.contains(name) {
            counters.insert(name.to_string(), value);
        }
    }
    Some(counters)
}

/// What the scraper saw.
#[derive(Default)]
struct Scrapes {
    lat_ms: Vec<f64>,
    late_ms: Vec<f64>,
    ops: Ops,
    failures: Vec<String>,
}

impl Scrapes {
    fn fail(&mut self, why: String) {
        self.ops.record(false);
        if self.failures.len() < 5 {
            self.failures.push(why);
        }
    }
}

/// The open-loop scraper. `generation` is even while tenants only grow
/// and odd while a round's tenants are being removed; counters are
/// compared only between scrapes that both fell inside one even
/// generation, where they may never decrease.
fn scrape(addr: &str, period: Duration, stop: &AtomicBool, generation: &AtomicU64) -> Scrapes {
    let mut out = Scrapes::default();
    let start = Instant::now();
    let mut prev: Option<(u64, BTreeMap<String, f64>)> = None;
    let mut k = 0u32;
    while !stop.load(SeqCst) {
        let due = start + period * k;
        k += 1;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        out.late_ms.push(Instant::now().duration_since(due).as_secs_f64() * 1e3);
        let g0 = generation.load(SeqCst);
        let reply = http::get(addr, "/metrics");
        let lat_ms = Instant::now().duration_since(due).as_secs_f64() * 1e3;
        let g1 = generation.load(SeqCst);
        let body = match reply {
            Ok((200, body)) => body,
            Ok((status, _)) => {
                out.fail(format!("/metrics answered {status}"));
                continue;
            }
            Err(e) => {
                out.fail(format!("/metrics failed: {e}"));
                continue;
            }
        };
        let Some(counters) = parse_counters(&body) else {
            out.fail("/metrics body does not parse".to_string());
            continue;
        };
        let comparable = g0 == g1 && g0.is_multiple_of(2);
        if let (true, Some((g, before))) = (comparable, &prev) {
            if *g == g0 {
                if let Some((name, was)) = before
                    .iter()
                    .find(|(name, was)| counters.get(*name).is_some_and(|now| now < *was))
                {
                    out.fail(format!("counter {name} fell below {was}"));
                    prev = None;
                    continue;
                }
            }
        }
        prev = comparable.then_some((g0, counters));
        out.ops.record(true);
        out.lat_ms.push(lat_ms);
    }
    out
}

/// The settled state every round must reach.
struct Fixture {
    specs: Vec<TenantSpec>,
    frames: u64,
    pcap_bytes: usize,
    reference: String,
    daemon: Daemon,
}

fn setup(opts: &Opts, sc: &Scale, width: usize, tr: &mut Tracer) -> Fixture {
    let mut specs = Vec::with_capacity(sc.tenants);
    let mut frames = 0;
    let mut pcap_bytes = 0;
    for k in 0..sc.tenants {
        let cap = tr.span("ccz-sim.capture", |_| {
            probes::render(sc.houses, sc.days, sc.activity, tenant_seed(opts.seed, k), 1)
        });
        frames += cap.frames;
        pcap_bytes += cap.pcap.len();
        specs.push(TenantSpec {
            id: format!("t{k:03}"),
            source: TenantSource::Pcap(cap.pcap),
            window_secs: 60.0,
        });
    }
    let reference =
        tr.span("serve.sequential_aggregate", |_| sequential_aggregate(&specs).to_json());
    let daemon = Daemon::new(DaemonConfig {
        threads: width,
        serve: Some("127.0.0.1:0".to_string()),
        namespace: "dnsctx".to_string(),
    })
    .expect("bind the daemon's HTTP plane on localhost");
    Fixture { specs, frames, pcap_bytes, reference, daemon }
}

/// Add every tenant and drain; returns `(seconds, peak MB)`. With
/// `keep`, the drained tenants stay registered.
fn round(
    fx: &Fixture,
    generation: &AtomicU64,
    tr: &mut Tracer,
    checks: &mut Checks,
    ops: &mut Ops,
    keep: bool,
) -> (f64, f64) {
    let specs = fx.specs.clone();
    let before = checks.violations().len();
    let mark = heap_mark();
    let t0 = Instant::now();
    let span = tr.begin("serve.round");
    let added: Vec<bool> = tr.span("serve.add_tenants", |_| {
        specs.into_iter().map(|spec| fx.daemon.add_tenant(spec).is_ok()).collect()
    });
    tr.span("xkit.pool.drain", |_| fx.daemon.drain());
    tr.end(span);
    let secs = t0.elapsed().as_secs_f64();
    let peak = heap_peak_mb(mark);

    let states = fx.daemon.tenants();
    checks.equal("serve: tenants registered", states.len(), fx.specs.len());
    for (ok, (id, state)) in added.iter().zip(&states) {
        let drained = *ok && state == "drained";
        checks.check(drained, || format!("serve: tenant {id} is {state}"));
        ops.record(drained);
    }
    checks.equal("serve: panicked jobs", fx.daemon.panicked(), 0);
    let aggregate = fx.daemon.aggregate();
    checks.check(aggregate.to_json() == fx.reference, || {
        "serve: post-drain aggregate differs from the sequential fold".to_string()
    });
    probes::check_frames(checks, "serve", aggregate.counter("capture.frames_read"), &aggregate);
    checks.equal(
        "serve: N+LC+P+SC+R = app conns",
        aggregate.sum_counters("class."),
        aggregate.counter("cover.app_conns"),
    );
    ops.record(checks.violations().len() == before);
    if !keep {
        generation.fetch_add(1, SeqCst);
        for spec in &fx.specs {
            fx.daemon.remove_tenant(&spec.id);
        }
        generation.fetch_add(1, SeqCst);
    }
    (secs, peak)
}

pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::new(opts.trace);
    let width = nproc();
    let sc = scale(opts.size, width);
    let generation = AtomicU64::new(0);

    // Set-up: render the tenants, fold them sequentially for the
    // reference aggregate, start the daemon, and warm up with one round.
    let mut setup_s = Vec::new();
    let mut fixture: Option<Fixture> = None;
    let setups = if opts.trace { 1 } else { 3 };
    for _ in 0..setups {
        let t0 = Instant::now();
        let fx = setup(opts, &sc, width, &mut out.tracer);
        round(
            &fx,
            &generation,
            &mut Tracer::new(false),
            &mut out.checks,
            &mut Ops::default(),
            false,
        );
        setup_s.push(t0.elapsed().as_secs_f64());
        if let Some(old) = fixture.replace(fx) {
            out.checks
                .check(old.reference == fixture.as_ref().expect("just set").reference, || {
                    "serve: reference aggregate differs across set-ups".to_string()
                });
            old.daemon.shutdown();
        }
    }
    let fx = fixture.expect("at least one set-up");
    let addr = fx.daemon.addr().expect("daemon serves HTTP").to_string();

    let period = SCRAPE_PERIOD
        .min(Duration::from_secs_f64(opts.seconds / 1_000.0).max(Duration::from_micros(500)));
    let stop = AtomicBool::new(false);
    let mut round_s = Vec::new();
    let mut items = Vec::new();
    let mut peaks = Vec::new();
    let scrapes = std::thread::scope(|s| {
        let scraper = s.spawn(|| scrape(&addr, period, &stop, &generation));
        let mut deadline = Deadline::new(opts.seconds, 3);
        let mut iter_id = 0;
        while deadline.more() {
            iter_id += 1;
            out.tracer.set_iter(iter_id);
            let (secs, peak) =
                round(&fx, &generation, &mut out.tracer, &mut out.checks, &mut out.ops, false);
            round_s.push(secs);
            items.push(fx.frames as f64 / secs);
            peaks.push(peak);
        }
        stop.store(true, SeqCst);
        scraper.join().expect("scraper thread")
    });
    out.ops.attempted += scrapes.ops.attempted;
    out.ops.failed += scrapes.ops.failed;
    for why in &scrapes.failures {
        out.checks.check(false, || format!("scrape: {why}"));
    }
    let windows = stats::windows(&scrapes.lat_ms, SCRAPE_WINDOW);
    out.set_e2e(&setup_s, &items, &windows, &peaks);
    out.input("tenants", sc.tenants);
    out.input("houses_per_tenant", sc.houses);
    out.input("days_per_tenant", sc.days);
    out.input("activity", sc.activity);
    out.input("pool_width", width);
    out.input("frames", fx.frames);
    out.input("pcap_bytes", fx.pcap_bytes);
    let reference = xkit::obs::json::parse(&fx.reference).ok();
    let counter = |key: &str| reference.as_ref().and_then(|r| r.get(key)).and_then(|v| v.as_f64());
    out.input("conn_rows", counter("zeek.conn_rows").unwrap_or(0.0));
    out.input("dns_rows", counter("zeek.dns_rows").unwrap_or(0.0));
    out.note("serve.rounds", round_s.len() as f64);
    out.note("serve.round_ms_p50", stats::median(&round_s) * 1e3);
    out.note("scrape.period_ms", period.as_secs_f64() * 1e3);
    out.note("scrape.count", scrapes.lat_ms.len() as f64);
    let pooled = stats::summarize(&scrapes.lat_ms);
    out.note("scrape.pooled_tail_ms", pooled.map_or(0.0, |s| s.tail));
    out.note("scrape.pooled_tail_pct", pooled.map_or(0.0, |s| f64::from(s.tail_pct)));
    let late = stats::summarize(&scrapes.late_ms);
    out.note("scrape.late_ms_p50", late.map_or(0.0, |s| s.p50));
    out.note("scrape.late_ms_tail", late.map_or(0.0, |s| s.tail));
    out.note("scrape.late_ms_max", scrapes.late_ms.iter().copied().fold(0.0, f64::max));

    if opts.trace {
        trace_layers(&fx, &generation, &round_s, width, &mut out);
    }
    fx.daemon.shutdown();
    out
}

/// The per-layer probes of a traced run, after the measured window.
fn trace_layers(
    fx: &Fixture,
    generation: &AtomicU64,
    round_s: &[f64],
    width: usize,
    out: &mut Outcome,
) {
    const REPS: usize = 20;
    let tr = &mut out.tracer;
    tr.set_iter(0);
    // The post-drain plane at N tenants: fold, render, idle scrape.
    round(fx, generation, &mut Tracer::new(false), &mut out.checks, &mut Ops::default(), true);
    let addr = fx.daemon.addr().expect("daemon serves HTTP").to_string();
    let mut aggregate = None;
    for _ in 0..REPS {
        aggregate = Some(tr.span("xkit.aggregate", |_| fx.daemon.aggregate()));
    }
    let aggregate = aggregate.expect("REPS > 0");
    for _ in 0..REPS {
        tr.span("xkit.prometheus", |_| {
            std::hint::black_box(aggregate.to_prometheus("dnsctx").len())
        });
    }
    for _ in 0..REPS {
        let ok =
            tr.span("xkit.idle_scrape", |_| matches!(http::get(&addr, "/metrics"), Ok((200, _))));
        out.checks.check(ok, || "serve: idle scrape failed".to_string());
    }
    generation.fetch_add(1, SeqCst);
    for spec in &fx.specs {
        fx.daemon.remove_tenant(&spec.id);
    }
    generation.fetch_add(1, SeqCst);

    // Each tenant alone on this thread, then the engine driven by hand
    // over every tenant capture, then the packet layers in isolation.
    let tenant_ms: Vec<f64> = fx
        .specs
        .iter()
        .map(|spec| {
            let t0 = Instant::now();
            tr.span("serve.run_tenant", |_| std::hint::black_box(run_tenant(spec, None).len()));
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    let pcaps: Vec<&[u8]> = fx
        .specs
        .iter()
        .map(|spec| match &spec.source {
            TenantSource::Pcap(bytes) => &bytes[..],
            TenantSource::SimRing { .. } => unreachable!("tenants are pcap replays"),
        })
        .collect();
    let mut layers = StreamLayers::default();
    for pcap in &pcaps {
        let mut source = dnsctx::pcapio::source::file(*pcap).expect("tenant pcap header");
        let run = tr.span("serve.tenant_stream", |tr| probes::drive_stream(&mut source, tr));
        layers.add(&run);
    }
    let costs = probes::frame_costs(&pcaps, 3, tr, &mut out.checks);

    let med = |name: &str| stats::median(&tr.durations_ms(name));
    let l = &mut out.layers;
    l.set("ccz-sim.capture_ms", med("ccz-sim.capture"));
    probes::write_frame_costs(&costs, l);
    l.set("pcapio.ring_ns_per_record", 0.0);
    l.set("pcapio.ring_drops", 0.0);
    l.set("zeek-lite.peak_active_flows", aggregate.gauge("zeek.peak_active_flows").unwrap_or(0.0));
    layers.write(l);
    l.set("xkit.aggregate_ms", med("xkit.aggregate"));
    l.set("xkit.prometheus_ms", med("xkit.prometheus"));
    l.set("xkit.idle_scrape_ms", med("xkit.idle_scrape"));
    let busy_s: f64 = tenant_ms.iter().sum::<f64>() / 1e3;
    l.set("xkit.pool_efficiency", busy_s / (stats::median(round_s) * width as f64));
    let tenants = stats::summarize(&tenant_ms);
    l.set("serve.tenant_ms_p50", tenants.map_or(0.0, |s| s.p50));
    l.set("serve.tenant_ms_max", tenant_ms.iter().copied().fold(0.0, f64::max));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_parse_and_non_counters_are_ignored() {
        let body = "# TYPE x_a counter\nx_a 3\n# TYPE x_g gauge\nx_g 1.5\n# TYPE x_h histogram\nx_h_bucket{le=\"+Inf\"} 2\n";
        let c = parse_counters(body).unwrap();
        assert_eq!(c.len(), 1);
        assert_eq!(c["x_a"], 3.0);
        assert_eq!(parse_counters("# TYPE x_a counter\nx_a three\n"), None);
        assert_eq!(parse_counters("garbage\n"), None);
    }

    #[test]
    fn tenant_seeds_are_distinct() {
        let seeds: BTreeSet<u64> =
            (0..3).flat_map(|s| (0..8).map(move |k| tenant_seed(s, k))).collect();
        assert_eq!(seeds.len(), 24);
    }
}
