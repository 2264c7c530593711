//! `capture-batch`, `capture-stream` and `capture-ring`: one
//! default-config day (100 houses × 1 day) rendered to pcap bytes at
//! set-up, then one front door over those bytes per iteration:
//!
//! - batch: file source → `Monitor::handle_frame`/`finish` → `Analysis::run`;
//! - stream: file source → `stream::process_source` (60 s window) with a
//!   `CacheReplay` sink;
//! - ring: a benchmark producer thread replays the records into a 1 MiB
//!   `Block` ring that the same stream engine consumes.
//!
//! Each pass is a workload of its own, so each gates its own rate, time
//! and peak heap. The three see identical frames: stream − batch
//! isolates the stream engine, ring − stream the ring. Every run also
//! makes all three passes once, untimed, and checks that they agree.

use crate::probes::{self, Capture, Producer, StreamLayers, StreamRun};
use crate::report::Checks;
use crate::study::stage_probe;
use crate::trace::Tracer;
use crate::{heap_mark, heap_peak_mb, nproc, stats, Deadline, Opts, Outcome, Size};
use dnsctx::dns_context::{Analysis, AnalysisConfig, ClassCounts};
use dnsctx::pcapio;
use dnsctx::zeek_lite::{Monitor, MonitorConfig, Timestamp};
use std::time::Instant;
use xkit::bench::alloc;

/// Epoch service times per latency window: its p95 leaves 10 epochs
/// beyond, and a few preempted epochs per window move it no further.
const EPOCH_WINDOW: usize = 200;

/// The front door a capture workload times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    Batch,
    Stream,
    Ring,
}

impl Pass {
    fn name(self) -> &'static str {
        match self {
            Pass::Batch => "batch",
            Pass::Stream => "stream",
            Pass::Ring => "ring",
        }
    }
}

fn scale(size: Size) -> (usize, f64, f64) {
    match size {
        Size::Full => (100, 1.0, 0.1),
        Size::Tiny => (6, 0.2, 0.1),
    }
}

/// What the batch pass produced.
struct Batch {
    frames_read: u64,
    conn_rows: u64,
    dns_rows: u64,
    counts: ClassCounts,
    pair_hits: u64,
    app_conns: u64,
    peak_active_flows: u64,
    frame_ns: u64,
    frame_allocs: u64,
    /// `logs.metrics()` ∪ `Analysis::metrics()`, when asked for.
    snapshot: Option<String>,
}

fn batch_pass(pcap: &[u8], tr: &mut Tracer, checks: &mut Checks, snapshot: bool) -> Batch {
    let mut source = pcapio::source::file(pcap).expect("capture header");
    let mut monitor = Monitor::new(MonitorConfig::default());
    let traced = tr.enabled();
    let frames_span = tr.begin("zeek-lite.frames");
    let allocs0 = alloc::snapshot().allocs;
    let mut frame_ns = 0u64;
    while let Some(rec) = source.next_record().expect("capture record") {
        let ts = Timestamp(rec.ts_nanos);
        if traced {
            let t = Instant::now();
            monitor.handle_frame(ts, rec.data, rec.orig_len);
            frame_ns += t.elapsed().as_nanos() as u64;
        } else {
            monitor.handle_frame(ts, rec.data, rec.orig_len);
        }
    }
    let frame_allocs = alloc::snapshot().allocs - allocs0;
    tr.end(frames_span);
    let frames_read = source.records_read();
    let logs = tr.span("zeek-lite.finish", |_| monitor.finish());
    let analysis =
        tr.span("dns-context.analysis", |_| Analysis::run(&logs, AnalysisConfig::default()));
    let counts = analysis.class_counts();

    let app_conns = analysis.pairing.app_conn_count() as u64;
    let degradation = logs.degradation.to_metrics();
    probes::check_frames(checks, "batch", frames_read, &degradation);
    checks.equal("batch: N+LC+P+SC+R = app conns", counts.total() as u64, app_conns);
    checks.equal(
        "batch: app conns = app rows of conn.log",
        app_conns,
        logs.app_conns().count() as u64,
    );
    let snapshot = snapshot.then(|| {
        let mut m = logs.metrics();
        m.merge(&analysis.metrics());
        m.to_json()
    });
    let pair_hits = analysis.pairing.metrics().counter("pair.hit");
    drop(analysis);
    if traced {
        stage_probe(tr, &logs);
    }
    Batch {
        frames_read,
        conn_rows: logs.conns.len() as u64,
        dns_rows: logs.dns.len() as u64,
        counts,
        pair_hits,
        app_conns,
        peak_active_flows: logs.stats.peak_active_flows,
        frame_ns,
        frame_allocs,
        snapshot,
    }
}

/// The stream pass over the file source; traced runs drive the engine
/// themselves.
fn stream_pass(pcap: &[u8], tr: &mut Tracer) -> StreamRun {
    let mut source = pcapio::source::file(pcap).expect("capture header");
    if tr.enabled() {
        probes::drive_stream(&mut source, tr)
    } else {
        probes::stream_pass(&mut source)
    }
}

/// The ring pass: the consumer's stream run, the producer's view, and
/// the records still in the ring after end of stream.
struct Ring {
    run: StreamRun,
    producer: Producer,
    consumed: u64,
    pending: u64,
}

fn ring_pass(pcap: &[u8], tr: &mut Tracer, checks: &mut Checks) -> Ring {
    let (tx, mut rx) = probes::ring();
    let ring = std::thread::scope(|s| {
        let producer = s.spawn(move || probes::replay_into(pcap, tx));
        let run = if tr.enabled() {
            probes::drive_stream(&mut rx, tr)
        } else {
            probes::stream_pass(&mut rx)
        };
        let producer = producer.join().expect("ring producer thread");
        let consumed = rx.consumed();
        let mut pending = 0;
        while rx.try_next().is_some() {
            pending += 1;
        }
        Ring { run, producer, consumed, pending }
    });
    let p = ring.producer;
    checks.equal(
        "ring: produced = consumed + dropped + pending",
        p.produced,
        ring.consumed + p.dropped + ring.pending,
    );
    checks.equal("ring: dropped under Block", p.dropped, 0);
    checks.equal("ring: pending at end of stream", ring.pending, 0);
    ring
}

/// What every timed pass must reproduce.
#[derive(Debug, Clone, Copy)]
struct Reference {
    frames: u64,
    counts: ClassCounts,
    epochs: u64,
    rows: (u64, u64),
}

/// All three passes once, untimed: class counts, rows and frames agree
/// across them, the two stream passes agree on epochs, and the three
/// analysis snapshots are byte-identical.
fn cross_check(cap: &Capture, checks: &mut Checks) -> Reference {
    let mut off = Tracer::new(false);
    let batch = batch_pass(&cap.pcap, &mut off, checks, true);
    let stream = stream_pass(&cap.pcap, &mut off);
    let ring = ring_pass(&cap.pcap, &mut off, checks);
    checks.equal("batch: frames read = frames rendered", batch.frames_read, cap.frames);
    let snapshot = batch.snapshot.as_deref().unwrap_or_default();
    for (what, run) in [("stream", &stream), ("ring", &ring.run)] {
        run.check(checks, what, run.frames);
        checks.equal(&format!("{what}: frames = batch frames"), run.frames, batch.frames_read);
        checks.equal(&format!("{what}: class counts = batch"), run.counts, batch.counts);
        checks.equal(&format!("{what}: conn rows = batch"), run.conn_rows, batch.conn_rows);
        checks.equal(&format!("{what}: dns rows = batch"), run.dns_rows, batch.dns_rows);
        checks.check(snapshot == run.analysis_metrics.to_json(), || {
            format!("{what}: analysis snapshot differs from batch")
        });
    }
    checks.equal("ring: epochs = stream epochs", ring.run.epochs, stream.epochs);
    Reference {
        frames: batch.frames_read,
        counts: batch.counts,
        epochs: stream.epochs,
        rows: (batch.conn_rows, batch.dns_rows),
    }
}

/// One timed pass, checked against the reference.
struct Timed {
    secs: f64,
    peak_mb: f64,
    batch: Option<Batch>,
    stream: Option<StreamRun>,
    producer_wait_ms: f64,
}

fn timed_pass(
    pass: Pass,
    cap: &Capture,
    reference: &Reference,
    tr: &mut Tracer,
    checks: &mut Checks,
) -> Timed {
    let mark = heap_mark();
    let t0 = Instant::now();
    let (batch, stream, producer) = match pass {
        Pass::Batch => {
            let batch = tr.span("capture.batch", |tr| batch_pass(&cap.pcap, tr, checks, false));
            (Some(batch), None, None)
        }
        Pass::Stream => {
            (None, Some(tr.span("capture.stream", |tr| stream_pass(&cap.pcap, tr))), None)
        }
        Pass::Ring => {
            let ring = tr.span("capture.ring", |tr| ring_pass(&cap.pcap, tr, checks));
            (None, Some(ring.run), Some(ring.producer))
        }
    };
    let secs = t0.elapsed().as_secs_f64();
    let peak_mb = heap_peak_mb(mark);

    if let Some(b) = &batch {
        checks.equal("batch: frames read = reference", b.frames_read, reference.frames);
        checks.equal("batch: class counts = reference", b.counts, reference.counts);
        checks.equal("batch: rows = reference", (b.conn_rows, b.dns_rows), reference.rows);
    }
    if let Some(run) = &stream {
        let what = pass.name();
        run.check(checks, what, run.frames);
        checks.equal(&format!("{what}: frames = reference"), run.frames, reference.frames);
        checks.equal(&format!("{what}: class counts = reference"), run.counts, reference.counts);
        checks.equal(&format!("{what}: epochs = reference"), run.epochs, reference.epochs);
        checks.equal(
            &format!("{what}: rows = reference"),
            (run.conn_rows, run.dns_rows),
            reference.rows,
        );
    }
    Timed {
        secs,
        peak_mb,
        batch,
        stream,
        producer_wait_ms: producer.map_or(0.0, |p| p.wait_ns as f64 / 1e6),
    }
}

pub fn run(opts: &Opts, pass: Pass) -> Outcome {
    let mut out = Outcome::new(opts.trace);
    let (houses, days, activity) = scale(opts.size);
    let threads = nproc();

    // Set-up: render the capture and warm up with one timed-kind pass.
    let mut setup_s = Vec::new();
    let mut kept: Option<(Capture, ClassCounts)> = None;
    let setups = if opts.trace { 1 } else { 3 };
    for _ in 0..setups {
        let t0 = Instant::now();
        let cap = out.tracer.span("ccz-sim.capture", |_| {
            probes::render(houses, days, activity, opts.seed, threads)
        });
        let mut off = Tracer::new(false);
        let counts = match pass {
            Pass::Batch => batch_pass(&cap.pcap, &mut off, &mut out.checks, false).counts,
            Pass::Stream => stream_pass(&cap.pcap, &mut off).counts,
            Pass::Ring => ring_pass(&cap.pcap, &mut off, &mut out.checks).run.counts,
        };
        setup_s.push(t0.elapsed().as_secs_f64());
        if let Some((_, first)) = &kept {
            out.checks.equal("capture: class counts repeat across set-ups", counts, *first);
        }
        kept = Some((cap, counts));
    }
    let (cap, _) = kept.expect("at least one set-up");
    let reference = cross_check(&cap, &mut out.checks);

    let mut items = Vec::new();
    // Latency: pass times for batch, epoch service times for stream and
    // ring.
    let mut pass_ms = Vec::new();
    let mut epoch_ms = Vec::new();
    let mut peaks = Vec::new();
    let mut wait_ms = Vec::new();
    let mut layers = StreamLayers::default();
    let (mut frame_ns, mut frame_allocs, mut hit_share) = (Vec::new(), Vec::new(), Vec::new());
    let mut deadline = Deadline::new(opts.seconds, 3);
    let mut iter_id = 0;
    while deadline.more() {
        iter_id += 1;
        out.tracer.set_iter(iter_id);
        let before = out.checks.violations().len();
        let mut it = timed_pass(pass, &cap, &reference, &mut out.tracer, &mut out.checks);
        out.ops.record(out.checks.violations().len() == before);

        let frames = reference.frames as f64;
        items.push(frames / it.secs);
        peaks.push(it.peak_mb);
        pass_ms.push(it.secs * 1e3);
        if let Some(run) = &mut it.stream {
            epoch_ms.append(&mut run.epoch_ms);
        }
        if pass == Pass::Ring {
            wait_ms.push(it.producer_wait_ms);
        }
        if let (true, Some(run)) = (opts.trace, &it.stream) {
            layers.add(run);
        }
        if let (true, Some(b)) = (opts.trace, &it.batch) {
            frame_ns.push(b.frame_ns as f64 / frames);
            frame_allocs.push(b.frame_allocs as f64 / frames);
            hit_share.push(b.pair_hits as f64 / b.app_conns.max(1) as f64);
            if iter_id == 1 {
                out.layers.set("zeek-lite.peak_active_flows", b.peak_active_flows as f64);
            }
        }
    }
    let windows =
        if pass == Pass::Batch { vec![pass_ms] } else { stats::windows(&epoch_ms, EPOCH_WINDOW) };
    out.set_e2e(&setup_s, &items, &windows, &peaks);
    out.input("pass", format!("\"{}\"", pass.name()));
    out.input("houses", houses);
    out.input("days", days);
    out.input("activity", activity);
    out.input("threads", threads);
    out.input("frames", cap.frames);
    out.input("pcap_bytes", cap.pcap.len());
    out.input("conn_rows", reference.rows.0);
    out.input("dns_rows", reference.rows.1);
    out.input("epochs", reference.epochs);
    out.note("capture.iterations", iter_id as f64);
    if pass != Pass::Batch {
        let pooled = stats::summarize(&epoch_ms);
        out.note("epoch.pooled_tail_ms", pooled.map_or(0.0, |s| s.tail));
        out.note("epoch.pooled_tail_pct", pooled.map_or(0.0, |s| f64::from(s.tail_pct)));
    }
    if pass == Pass::Ring {
        out.note("ring.producer_wait_ms", stats::median(&wait_ms));
    }

    if opts.trace {
        let costs = probes::frame_costs(&[&cap.pcap[..]], 3, &mut out.tracer, &mut out.checks);
        let tr = &out.tracer;
        let med = |name: &str| stats::median(&tr.durations_ms(name));
        let l = &mut out.layers;
        l.set("ccz-sim.capture_ms", med("ccz-sim.capture"));
        probes::write_frame_costs(&costs, l);
        match pass {
            Pass::Batch => {
                l.set("zeek-lite.frame_ns", stats::median(&frame_ns));
                l.set("zeek-lite.allocs_per_frame", stats::median(&frame_allocs));
                l.set("zeek-lite.finish_ms", med("zeek-lite.finish"));
                l.set("zeek-lite.columns_ms", med("zeek-lite.columns"));
                l.set("dns-context.pair_ms", med("dns-context.pair"));
                l.set("dns-context.thresholds_ms", med("dns-context.thresholds"));
                l.set("dns-context.classify_ms", med("dns-context.classify"));
                l.set("dns-context.pair_hit_share", stats::median(&hit_share));
            }
            Pass::Stream => layers.write(l),
            Pass::Ring => {
                layers.write(l);
                l.set("pcapio.ring_producer_wait_ms", stats::median(&wait_ms));
            }
        }
    }
    out
}
