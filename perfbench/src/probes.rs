//! Shared passes and isolated layer probes over in-memory captures.
//!
//! `netpkt` and `dns-wire` are only ever called from inside the
//! monitor, so their costs are measured here on their own: every frame
//! of a capture through `Packet::parse`, every DNS payload through
//! `Message::decode` and `Message::encode`. The stream pass comes in two
//! spellings: [`stream_pass`] calls `stream::process_source` as a user
//! would, and [`drive_stream`] drives `StreamEngine` itself with the
//! same epoch rule so that each layer call can carry a span.

use crate::report::Checks;
use crate::stats;
use crate::trace::Tracer;
use dnsctx::cache_sim::CacheReplay;
use dnsctx::ccz_sim::{ScaleKnobs, Simulation, WorkloadConfig};
use dnsctx::dns_context::{stream, AnalysisConfig, ClassCounts, StreamEngine};
use dnsctx::dns_wire::{Message, DNS_PORT};
use dnsctx::netpkt::{Packet, Transport};
use dnsctx::pcapio::ring::PushOutcome;
use dnsctx::pcapio::{self, RecordSource, RingSink};
use dnsctx::zeek_lite::{Duration, MonitorConfig, Timestamp};
use std::hint::black_box;
use std::time::Instant;
use xkit::bench::alloc;
use xkit::obs::Metrics;

/// The epoch window of every stream pass and tenant.
pub const WINDOW: Duration = Duration::from_secs(60);

/// A rendered capture held in memory.
pub struct Capture {
    pub pcap: Vec<u8>,
    pub frames: u64,
}

/// Simulate `houses × days` at `activity` and render it to pcap bytes.
pub fn render(houses: usize, days: f64, activity: f64, seed: u64, threads: usize) -> Capture {
    let cfg = WorkloadConfig {
        scale: ScaleKnobs { houses, days, activity },
        ..WorkloadConfig::default()
    };
    let sim = Simulation::new(cfg, seed).expect("valid capture config").with_threads(threads);
    let mut pcap = Vec::new();
    let (_truth, frames, _metrics) =
        sim.run_pcap_observed(&mut pcap, 65_535).expect("in-memory pcap write");
    Capture { pcap, frames }
}

/// One stream pass: counts, rows, timings and the engine's snapshots.
#[derive(Default)]
pub struct StreamRun {
    pub frames: u64,
    pub epochs: u64,
    pub counts: ClassCounts,
    pub conn_rows: u64,
    pub dns_rows: u64,
    /// Service time of each epoch, sink call to sink call, in
    /// wall-clock ms.
    pub epoch_ms: Vec<f64>,
    pub analysis_metrics: Metrics,
    pub stream_metrics: Metrics,
    pub cache_hits: u64,
    pub cache_misses: u64,
    // Filled by `drive_stream` only.
    pub frame_ns: u64,
    pub end_epoch_us: Vec<f64>,
    pub finish_ms: f64,
    pub allocs: u64,
    pub offer_ns: u64,
    pub offers: u64,
}

impl StreamRun {
    fn settle(&mut self, result: stream::StreamResult, replay: &mut CacheReplay) {
        self.conn_rows += result.tail.conns.len() as u64;
        self.dns_rows += result.tail.dns.len() as u64;
        for txn in &result.tail.dns {
            replay.offer(txn);
        }
        self.counts = result.class_counts;
        self.epochs = result.stream_metrics.counter("stream.epochs");
        self.analysis_metrics = result.analysis_metrics;
        self.stream_metrics = result.stream_metrics;
        self.cache_hits = replay.hits();
        self.cache_misses = replay.misses();
    }

    pub fn peak_live_answers(&self) -> f64 {
        self.stream_metrics.gauge("stream.peak_live_answers").unwrap_or(0.0)
    }

    pub fn peak_live_flows(&self) -> f64 {
        self.stream_metrics.gauge("stream.peak_live_flows").unwrap_or(0.0)
    }

    /// The stream-side output checks against the frames actually read.
    pub fn check(&self, checks: &mut Checks, what: &str, frames_read: u64) {
        check_frames(checks, what, frames_read, &self.analysis_metrics);
        let m = &self.analysis_metrics;
        checks.equal(
            &format!("{what}: N+LC+P+SC+R = app conns"),
            self.counts.total() as u64,
            m.counter("cover.app_conns"),
        );
        checks.equal(
            &format!("{what}: class.* = class counts"),
            m.sum_counters("class."),
            self.counts.total() as u64,
        );
    }
}

/// frames read = zeek accepted + Σ `zeek.reject.*`.
pub fn check_frames(checks: &mut Checks, what: &str, frames_read: u64, m: &Metrics) {
    checks.equal(
        &format!("{what}: frames read = zeek accepted + reject.*"),
        frames_read,
        m.counter("zeek.frames_accepted") + m.sum_counters("zeek.reject."),
    );
}

/// `stream::process_source` with a cache-replay sink, as `repro stream`
/// runs it.
pub fn stream_pass<S: RecordSource + ?Sized>(source: &mut S) -> StreamRun {
    let mut run = StreamRun { epoch_ms: Vec::with_capacity(2_048), ..StreamRun::default() };
    let mut replay = CacheReplay::new(Duration::from_secs(60));
    let mut last = Instant::now();
    let result = stream::process_source(
        source,
        WINDOW,
        MonitorConfig::default(),
        AnalysisConfig::default(),
        |out| {
            let now = Instant::now();
            run.epoch_ms.push(now.duration_since(last).as_secs_f64() * 1e3);
            last = now;
            run.conn_rows += out.conns.len() as u64;
            run.dns_rows += out.dns.len() as u64;
            for txn in &out.dns {
                replay.offer(txn);
            }
        },
    )
    .expect("in-memory sources do not fail");
    run.frames = source.metrics().counter("capture.frames_read");
    run.settle(result, &mut replay);
    run
}

/// The same pass with the benchmark driving `StreamEngine` directly,
/// following `process_source`'s epoch rule: epoch k covers
/// `[k·window, (k+1)·window)`, the index never moves backwards, and the
/// first record opens its own epoch. Spans: one per epoch, around each
/// `end_epoch` and each epoch's cache offers, and around `finish`;
/// `handle_frame` is timed per call.
pub fn drive_stream<S: RecordSource + ?Sized>(source: &mut S, tr: &mut Tracer) -> StreamRun {
    let allocs0 = alloc::snapshot().allocs;
    let mut run = StreamRun { epoch_ms: Vec::with_capacity(2_048), ..StreamRun::default() };
    let mut engine = StreamEngine::new(MonitorConfig::default(), AnalysisConfig::default());
    let mut replay = CacheReplay::new(Duration::from_secs(60));
    let window_nanos = WINDOW.nanos();
    let mut last = Instant::now();
    let mut close = |engine: &mut StreamEngine,
                     boundary: Option<Timestamp>,
                     tr: &mut Tracer,
                     run: &mut StreamRun| {
        let t = Instant::now();
        let out = tr.span("dns-context.end_epoch", |_| engine.end_epoch(boundary));
        run.end_epoch_us.push(t.elapsed().as_secs_f64() * 1e6);
        let now = Instant::now();
        run.epoch_ms.push(now.duration_since(last).as_secs_f64() * 1e3);
        last = now;
        run.conn_rows += out.conns.len() as u64;
        run.dns_rows += out.dns.len() as u64;
        tr.span("cache-sim.offer", |_| {
            let t = Instant::now();
            for txn in &out.dns {
                replay.offer(txn);
            }
            run.offer_ns += t.elapsed().as_nanos() as u64;
            run.offers += out.dns.len() as u64;
        });
    };
    let mut current = 0u64;
    let mut epoch_span = None;
    while let Ok(Some(rec)) = source.next() {
        let e = rec.ts_nanos.checked_div(window_nanos).map_or(0, |k| k.max(current));
        match epoch_span {
            None => {
                current = e;
                epoch_span = Some(tr.begin("dns-context.epoch"));
            }
            Some(span) if e != current => {
                let boundary = Timestamp((current + 1).saturating_mul(window_nanos));
                close(&mut engine, Some(boundary), tr, &mut run);
                tr.end(span);
                epoch_span = Some(tr.begin("dns-context.epoch"));
                current = e;
            }
            Some(_) => {}
        }
        let t = Instant::now();
        engine.handle_frame(Timestamp(rec.ts_nanos), rec.data, rec.orig_len);
        run.frame_ns += t.elapsed().as_nanos() as u64;
        run.frames += 1;
    }
    if let Some(span) = epoch_span {
        let boundary =
            (window_nanos > 0).then(|| Timestamp((current + 1).saturating_mul(window_nanos)));
        close(&mut engine, boundary, tr, &mut run);
        tr.end(span);
    }
    let t = Instant::now();
    let result = tr.span("dns-context.stream_finish", |_| engine.finish());
    run.finish_ms = t.elapsed().as_secs_f64() * 1e3;
    run.settle(result, &mut replay);
    run.allocs = alloc::snapshot().allocs - allocs0;
    run
}

/// What the benchmark's ring producer saw.
#[derive(Debug, Default, Clone, Copy)]
pub struct Producer {
    pub produced: u64,
    pub dropped: u64,
    /// Time spent parked on a full ring.
    pub wait_ns: u64,
}

/// Replay a capture's records into a ring, timing every park on a full
/// ring, then close the ring by dropping the sink.
pub fn replay_into(pcap: &[u8], mut tx: RingSink) -> Producer {
    let mut source = pcapio::source::file(pcap).expect("capture header");
    let mut wait_ns = 0;
    while let Some(rec) = source.next_record().expect("capture record") {
        if tx.try_push(rec.ts_nanos, rec.orig_len, rec.data) == PushOutcome::WouldBlock {
            let t = Instant::now();
            tx.push(rec.ts_nanos, rec.orig_len, rec.data);
            wait_ns += t.elapsed().as_nanos() as u64;
        }
    }
    Producer { produced: tx.produced(), dropped: tx.dropped(), wait_ns }
}

/// A 1 MiB `Block` ring, as `repro ingest --source ring` builds it.
pub fn ring() -> (RingSink, pcapio::RingSource) {
    pcapio::ring::channel(1 << 20, 65_535, pcapio::Backpressure::Block)
}

/// Frames and DNS payloads copied out of captures, so that the parse
/// and decode loops time nothing else.
struct Arena {
    frames: Vec<u8>,
    frame_at: Vec<(usize, usize, u32)>,
    payloads: Vec<u8>,
    payload_at: Vec<(usize, usize)>,
}

impl Arena {
    fn of(pcaps: &[&[u8]]) -> Arena {
        let mut a = Arena {
            frames: Vec::new(),
            frame_at: Vec::new(),
            payloads: Vec::new(),
            payload_at: Vec::new(),
        };
        for pcap in pcaps {
            let mut source = pcapio::source::file(*pcap).expect("capture header");
            while let Some(rec) = source.next_record().expect("capture record") {
                let at = a.frames.len();
                a.frames.extend_from_slice(rec.data);
                a.frame_at.push((at, a.frames.len(), rec.orig_len));
                let Ok(pkt) = Packet::parse(rec.data, rec.orig_len as usize) else {
                    continue;
                };
                if let Transport::Udp(u) = pkt.transport {
                    if u.src_port == DNS_PORT || u.dst_port == DNS_PORT {
                        let at = a.payloads.len();
                        a.payloads.extend_from_slice(pkt.payload);
                        a.payload_at.push((at, a.payloads.len()));
                    }
                }
            }
        }
        a
    }
}

/// Isolated per-record costs of the packet layers.
#[derive(Debug, Default, Clone, Copy)]
pub struct FrameCosts {
    pub read_ns: f64,
    pub parse_ns: f64,
    pub decode_ns: f64,
    pub encode_ns: f64,
    pub decode_allocs: f64,
    pub ring_ns: f64,
    pub ring_drops: u64,
}

/// Time each packet layer on its own over every record of `pcaps`,
/// `reps` times, keeping the median of each figure.
pub fn frame_costs(
    pcaps: &[&[u8]],
    reps: usize,
    tr: &mut Tracer,
    checks: &mut Checks,
) -> FrameCosts {
    let arena = tr.span("probe.arena", |_| Arena::of(pcaps));
    let records = arena.frame_at.len() as u64;
    let msgs = arena.payload_at.len() as u64;
    let decoded: Vec<Message> = arena
        .payload_at
        .iter()
        .filter_map(|&(a, b)| Message::decode(&arena.payloads[a..b]).ok())
        .collect();
    checks.equal("probe: every DNS payload decodes", decoded.len() as u64, msgs);
    let per = |ns: u128, n: u64| ns as f64 / n.max(1) as f64;
    let (mut read, mut parse, mut decode, mut encode, mut allocs, mut ring_ns) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut ring_drops = 0;
    for _ in 0..reps {
        tr.span("pcapio.read", |_| {
            let t = Instant::now();
            let mut n = 0u64;
            for pcap in pcaps {
                let mut source = pcapio::source::file(*pcap).expect("capture header");
                while let Some(rec) = source.next_record().expect("capture record") {
                    black_box(rec.data);
                    n += 1;
                }
            }
            read.push(per(t.elapsed().as_nanos(), n));
        });
        tr.span("netpkt.parse", |_| {
            let t = Instant::now();
            for &(a, b, orig) in &arena.frame_at {
                black_box(Packet::parse(&arena.frames[a..b], orig as usize).is_ok());
            }
            parse.push(per(t.elapsed().as_nanos(), records));
        });
        tr.span("dns-wire.decode", |_| {
            let a0 = alloc::snapshot().allocs;
            let t = Instant::now();
            for &(a, b) in &arena.payload_at {
                black_box(Message::decode(&arena.payloads[a..b]).is_ok());
            }
            decode.push(per(t.elapsed().as_nanos(), msgs));
            allocs.push((alloc::snapshot().allocs - a0) as f64 / msgs.max(1) as f64);
        });
        tr.span("dns-wire.encode", |_| {
            let t = Instant::now();
            for m in &decoded {
                black_box(m.encode().len());
            }
            encode.push(per(t.elapsed().as_nanos(), msgs));
        });
        tr.span("pcapio.ring", |_| {
            let t = Instant::now();
            let mut n = 0u64;
            for pcap in pcaps {
                let (tx, mut rx) = ring();
                let producer = std::thread::scope(|s| {
                    let producer = s.spawn(move || replay_into(pcap, tx));
                    while let Ok(Some(rec)) = rx.next() {
                        black_box(rec.data);
                        n += 1;
                    }
                    producer.join().expect("ring producer thread")
                });
                ring_drops += producer.dropped;
            }
            ring_ns.push(per(t.elapsed().as_nanos(), n));
            checks.equal("probe: ring delivers every record", n, records);
        });
    }
    FrameCosts {
        read_ns: stats::median(&read),
        parse_ns: stats::median(&parse),
        decode_ns: stats::median(&decode),
        encode_ns: stats::median(&encode),
        decode_allocs: stats::median(&allocs),
        ring_ns: stats::median(&ring_ns),
        ring_drops,
    }
}

/// Per-layer figures of traced stream passes, folded over passes.
#[derive(Debug, Default)]
pub struct StreamLayers {
    frames: u64,
    frame_ns: u64,
    allocs: u64,
    offers: u64,
    offer_ns: u64,
    hits: u64,
    misses: u64,
    end_epoch_us: Vec<f64>,
    finish_ms: Vec<f64>,
    peak_live_answers: f64,
    peak_live_flows: f64,
}

impl StreamLayers {
    pub fn add(&mut self, run: &StreamRun) {
        self.frames += run.frames;
        self.frame_ns += run.frame_ns;
        self.allocs += run.allocs;
        self.offers += run.offers;
        self.offer_ns += run.offer_ns;
        self.hits += run.cache_hits;
        self.misses += run.cache_misses;
        self.end_epoch_us.extend_from_slice(&run.end_epoch_us);
        self.finish_ms.push(run.finish_ms);
        self.peak_live_answers = self.peak_live_answers.max(run.peak_live_answers());
        self.peak_live_flows = self.peak_live_flows.max(run.peak_live_flows());
    }

    pub fn write(&self, l: &mut crate::report::MetricSet) {
        let frames = self.frames.max(1) as f64;
        l.set("dns-context.stream_frame_ns", self.frame_ns as f64 / frames);
        let epochs = stats::summarize(&self.end_epoch_us);
        l.set("dns-context.end_epoch_p50_us", epochs.map_or(0.0, |s| s.p50));
        l.set("dns-context.end_epoch_p99_us", epochs.map_or(0.0, |s| s.tail));
        l.set("dns-context.stream_finish_ms", stats::median(&self.finish_ms));
        l.set("dns-context.stream_allocs_per_frame", self.allocs as f64 / frames);
        l.set("dns-context.peak_live_answers", self.peak_live_answers);
        l.set("dns-context.peak_live_flows", self.peak_live_flows);
        l.set("cache-sim.offer_ns_per_txn", self.offer_ns as f64 / self.offers.max(1) as f64);
        l.set("cache-sim.hit_share", self.hits as f64 / (self.hits + self.misses).max(1) as f64);
    }
}

/// Write the packet-layer figures.
pub fn write_frame_costs(c: &FrameCosts, l: &mut crate::report::MetricSet) {
    l.set("pcapio.read_ns_per_record", c.read_ns);
    l.set("pcapio.ring_ns_per_record", c.ring_ns);
    l.set("pcapio.ring_drops", c.ring_drops as f64);
    l.set("netpkt.parse_ns_per_frame", c.parse_ns);
    l.set("dns-wire.decode_ns_per_msg", c.decode_ns);
    l.set("dns-wire.encode_ns_per_msg", c.encode_ns);
    l.set("dns-wire.allocs_per_msg", c.decode_allocs);
}
