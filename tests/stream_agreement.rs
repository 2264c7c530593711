//! Streamed vs batch agreement: the bounded-memory epoch pipeline must be
//! indistinguishable from the batch pipeline — byte-identical rendered
//! logs, identical classification counts, and an identical metrics
//! snapshot — for every window size and thread count, while holding
//! strictly less state than the batch path for any finite window.

use dnsctx::ccz_sim::{ScaleKnobs, Simulation, WorkloadConfig};
use dnsctx::dns_context::{stream, Analysis, AnalysisConfig};
use dnsctx::zeek_lite::{logfmt, Duration, Logs, Monitor, MonitorConfig};

fn small_cfg() -> WorkloadConfig {
    WorkloadConfig {
        scale: ScaleKnobs { houses: 4, days: 0.03, activity: 1.0 },
        services: 200,
        shared_services: 30,
        ..WorkloadConfig::default()
    }
}

fn analysis_cfg(threads: usize) -> AnalysisConfig {
    let mut cfg = AnalysisConfig::default();
    cfg.threshold_rule.min_lookups = 50;
    cfg.threads = threads;
    cfg
}

fn render_logs(logs: &Logs) -> Vec<u8> {
    let mut buf = Vec::new();
    logfmt::write_conn_log(&mut buf, &logs.conns).unwrap();
    logfmt::write_dns_log(&mut buf, &logs.dns).unwrap();
    buf
}

/// One seed-42 capture, its batch pipeline, and the batch snapshot that
/// every streamed run must reproduce.
struct Batch {
    pcap: Vec<u8>,
    rendered: Vec<u8>,
    metrics_json: String,
    class_counts: dnsctx::dns_context::ClassCounts,
    conn_rows: u64,
    dns_rows: u64,
}

fn batch_oracle() -> Batch {
    let sim = Simulation::new(small_cfg(), 42).unwrap();
    let mut pcap = Vec::new();
    sim.run_pcap(&mut pcap, 600).unwrap();
    let logs = Monitor::process_pcap(&pcap[..], MonitorConfig::default()).unwrap();
    let analysis = Analysis::run(&logs, analysis_cfg(1));
    let mut metrics = logs.metrics();
    metrics.merge(&analysis.metrics());
    Batch {
        rendered: render_logs(&logs),
        metrics_json: metrics.to_json(),
        class_counts: analysis.class_counts(),
        conn_rows: logs.conns.len() as u64,
        dns_rows: logs.dns.len() as u64,
        pcap,
    }
}

/// Run the streaming engine over the capture, concatenating the per-epoch
/// releases *in release order* — no re-sort — into one `Logs`.
fn streamed(batch: &Batch, window: Duration, threads: usize) -> (Logs, stream::StreamResult) {
    let mut out = Logs::default();
    let result = stream::process_source(
        &mut dnsctx::pcapio::source::file(&batch.pcap[..]).unwrap(),
        window,
        MonitorConfig::default(),
        analysis_cfg(threads),
        |epoch| {
            out.conns.extend(epoch.conns);
            out.dns.extend(epoch.dns);
        },
    )
    .unwrap();
    out.conns.extend(result.tail.conns.iter().cloned());
    out.dns.extend(result.tail.dns.iter().cloned());
    (out, result)
}

#[test]
fn streamed_output_is_byte_identical_to_batch() {
    let batch = batch_oracle();
    assert!(batch.conn_rows > 100 && batch.dns_rows > 100, "workload too small to be probative");

    for window_secs in [30u64, 300, 0] {
        for threads in [1usize, 8] {
            let window = Duration::from_secs(window_secs);
            let (logs, result) = streamed(&batch, window, threads);

            // The concatenated releases ARE the batch-sorted logs: same
            // rows, same order, byte for byte — without ever re-sorting.
            assert_eq!(
                render_logs(&logs),
                batch.rendered,
                "rendered logs diverged at window={window_secs}s threads={threads}"
            );

            // Table 2 and the whole metrics snapshot agree exactly.
            assert_eq!(
                result.class_counts, batch.class_counts,
                "class counts diverged at window={window_secs}s threads={threads}"
            );
            assert_eq!(
                result.analysis_metrics.to_json(),
                batch.metrics_json,
                "metrics snapshot diverged at window={window_secs}s threads={threads}"
            );
        }
    }
}

#[test]
fn finite_windows_bound_live_state() {
    let batch = batch_oracle();
    for window_secs in [30u64, 300] {
        let (_, result) = streamed(&batch, Duration::from_secs(window_secs), 1);
        let s = &result.stream_metrics;
        let peak_flows = s.gauge("stream.peak_live_flows").unwrap_or(f64::MAX) as u64;
        let peak_answers = s.gauge("stream.peak_live_answers").unwrap_or(f64::MAX) as u64;
        assert!(
            peak_flows < batch.conn_rows,
            "window={window_secs}s: peak live flows {peak_flows} not below {} rows",
            batch.conn_rows
        );
        assert!(
            peak_answers < batch.dns_rows,
            "window={window_secs}s: peak live answers {peak_answers} not below {} rows",
            batch.dns_rows
        );
        assert!(s.counter("stream.epochs") > 1, "finite window must produce multiple epochs");
        assert!(
            s.counter("stream.evicted_answers") > 0,
            "finite window must actually evict expired answers"
        );
    }

    // The unwindowed run is the degenerate case: one epoch, no eviction,
    // everything released at finish.
    let (_, result) = streamed(&batch, Duration::from_secs(0), 1);
    assert_eq!(result.stream_metrics.counter("stream.epochs"), 1);
    assert_eq!(result.stream_metrics.counter("stream.evicted_flows"), 0);
}

#[test]
fn stream_counters_are_pinned_at_seed_42() {
    // The exact `stream.*` counters and peak gauges of the seed-42 run,
    // for every thread count: a change in release or eviction timing
    // moves one of these even where the bounds above still hold.
    let batch = batch_oracle();
    // (window s, epochs, evicted answers, evicted flows, peak live answers, peak live flows)
    let golden: [(u64, u64, u64, u64, f64, f64); 2] =
        [(30, 83, 81, 561, 127.0, 223.0), (300, 9, 81, 561, 131.0, 240.0)];
    for (window_secs, epochs, evicted_answers, evicted_flows, peak_answers, peak_flows) in golden {
        for threads in [1usize, 8] {
            let (_, result) = streamed(&batch, Duration::from_secs(window_secs), threads);
            let s = &result.stream_metrics;
            let at = format!("window={window_secs}s threads={threads}");
            assert_eq!(s.counter("stream.epochs"), epochs, "{at}");
            assert_eq!(s.counter("stream.evicted_answers"), evicted_answers, "{at}");
            assert_eq!(s.counter("stream.evicted_flows"), evicted_flows, "{at}");
            assert_eq!(s.gauge("stream.peak_live_answers"), Some(peak_answers), "{at}");
            assert_eq!(s.gauge("stream.peak_live_flows"), Some(peak_flows), "{at}");
        }
    }
}
