//! Streaming bounded-memory pipeline: the whole packet→log→pairing→
//! classification path driven in time windows ("epochs") with explicit
//! state eviction, so peak memory is O(window), not O(trace).
//!
//! # Model
//!
//! Frames are fed to an embedded [`zeek_lite::Monitor`] one epoch at a
//! time. At each epoch boundary the engine computes two *watermarks*:
//!
//! - `w_dns  = min(oldest pending DNS query, epoch end)` — every DNS row
//!   the monitor will emit in the future carries a query timestamp at or
//!   after this instant (responses and timeouts inherit the query stamp).
//! - `w_conn = min(oldest active flow start, epoch end)` — every future
//!   connection record starts at or after this instant.
//!
//! Rows stamped strictly before their watermark are *released*: sorted
//! into the canonical log order ([`zeek_lite::Logs::sort`]'s total order)
//! and flushed downstream. Because later releases can only contain rows
//! at or after the previous watermark, the concatenation of all released
//! blocks *is* the batch-sorted log, byte for byte — for any window size.
//!
//! `w_conn <= w_dns` always holds: a pending DNS query's own UDP flow is
//! still active (the flow-timeout exceeds the query timeout and both
//! sweeps fire on the same frames), so released connections only ever
//! look up lookups that have already been released into the pairing
//! index. The index assigns each released row its batch `dns_idx`
//! ordinal and keeps each `(client, address)` run in `(completed,
//! dns_idx)` order, so the batch pipeline's own rules apply unchanged:
//! the candidate choice (`pairing::pick`), the N/LC/P/blocked decision
//! and the SC/R split ([`crate::classify`]), and the snapshot
//! ([`crate::tally::Tally`], [`zeek_lite::RowTally`]).
//!
//! # Eviction
//!
//! An index entry can be dropped once it is expired for every future
//! connection (`expires <= w_conn`) *and* a newer entry under the same
//! `(client, address)` key has already completed (`completed <= w_conn`),
//! because the pairing rule would always prefer that newer entry, live
//! or as the expired fallback. The newest entry per key is never dropped
//! — the expired-fallback rule can reach arbitrarily far back — so the
//! irreducible residue is O(distinct (client, address) pairs), not
//! O(lookups). Each lookup's resolver, duration and first-use claim live
//! once, in a per-lookup record that counts the index entries pointing
//! at it and goes with the last of them.
//!
//! Eviction is event-driven. An entry becomes evictable at
//! `max(own expires, next entry's completed)`; each key remembers the
//! earliest such instant over its run (its *due* time) and a min-heap
//! holds `(due, key)`. At a boundary the engine pops the keys due at or
//! before `w_conn` and prunes only those runs, re-arming each at its new
//! due time; an insert that moves a key's due time earlier pushes it
//! again, and stale heap events are skipped on pop. The evicted set is
//! exactly what a sweep over every key would drop, for any sequence of
//! watermarks, so an epoch close costs O(rows released + entries
//! evicted) plus the heap's logarithm, not O(live keys).
//!
//! Pairing runs on the calling thread: a release is a few dozen
//! connections, far below what a thread fan-out repays, so
//! [`AnalysisConfig::threads`] does not affect the engine.
//!
//! # Deferred SC/R split
//!
//! The per-resolver SC/R thresholds need the *whole* trace (minimum
//! observed duration and lookup count per resolver), so blocked
//! connections cannot be split into `SC`/`R` at release time. Instead the
//! engine folds, per resolver, the threshold inputs online plus a
//! bucketed count of blocked-lookup durations (integer ceil-milliseconds
//! — exact, because derived thresholds are whole milliseconds) and the
//! split at the floor threshold for resolvers that end below
//! `min_lookups`. [`StreamEngine::finish`] settles the split; everything
//! else is folded at release time.
//!
//! # Assumptions
//!
//! - Frame timestamps are monotone non-decreasing (true for the
//!   simulator's captures; disordered input degrades the watermarks to
//!   conservative — rows release later — never to incorrect).
//! - The pairing policy is [`PairingPolicy::MostRecent`]. The random
//!   policy draws from one RNG in conn order interleaved with index
//!   state, which has no bounded-memory equivalent; `new` asserts this.

use crate::classify::{split, unblocked_class, ConnClass, LookupDurations};
use crate::pairing::{pack_key, pick, IndexEntry, PairingPolicy};
use crate::tally::{Settled, Tally};
use crate::{AnalysisConfig, ClassCounts};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::net::Ipv4Addr;
use xkit::collections::FastMap;
use xkit::obs::Metrics;
use zeek_lite::{
    ConnRecord, DnsTransaction, Duration, Monitor, MonitorConfig, RowTally, Timestamp,
};

/// A due time no entry ever reaches (a run with one entry).
const NEVER: Timestamp = Timestamp(u64::MAX);

/// The earliest instant any entry of a `(completed, dns_idx)`-sorted run
/// becomes evictable: an entry goes once it is expired for every future
/// connection and its successor has completed.
fn run_due(entries: &[IndexEntry]) -> Timestamp {
    entries.windows(2).map(|p| p[0].expires.max(p[1].completed)).min().unwrap_or(NEVER)
}

/// What the engine keeps per indexed lookup: enough of the transaction
/// to classify a released connection without retaining the DNS log.
#[derive(Debug)]
struct Lookup {
    resolver: Ipv4Addr,
    rtt: Duration,
    /// Live index entries pointing at this lookup.
    refs: usize,
    /// A connection has already paired with it (first use is taken).
    claimed: bool,
}

/// Per-resolver accumulators: threshold inputs plus the deferred SC/R
/// counts. Bounded by the resolver population, not the trace.
#[derive(Debug, Default)]
struct ResolverAcc {
    durations: LookupDurations,
    /// Blocked-connection lookup durations, bucketed by ceil-milliseconds.
    blocked_ceil_ms: BTreeMap<u64, usize>,
    /// The same connections split at the floor threshold (used when the
    /// resolver ends below `min_lookups`).
    at_floor: ClassCounts,
}

/// The rows released at one epoch boundary, in canonical log order.
/// Concatenating every epoch's output (plus [`StreamEngine::finish`]'s
/// tail) reproduces the batch logs byte-for-byte.
#[derive(Debug, Default)]
pub struct EpochOutput {
    /// Connection records released this epoch, `(ts, uid)`-sorted.
    pub conns: Vec<ConnRecord>,
    /// DNS rows released this epoch, in [`DnsTransaction::log_order`].
    pub dns: Vec<DnsTransaction>,
}

/// What a completed streaming run settles to.
#[derive(Debug)]
pub struct StreamResult {
    /// Rows still held when the input ended (the final release).
    pub tail: EpochOutput,
    /// The analysis snapshot: byte-identical to the batch pipeline's
    /// `logs.metrics()` merged with `Analysis::metrics()`.
    pub analysis_metrics: Metrics,
    /// The engine's own `stream.*` counters and peak gauges.
    pub stream_metrics: Metrics,
    /// Table 2 counts (SC/R settled from the deferred buckets).
    pub class_counts: ClassCounts,
    /// Derived per-resolver SC/R thresholds.
    pub thresholds: HashMap<Ipv4Addr, Duration>,
}

impl StreamResult {
    /// The settled snapshot: `analysis_metrics` merged with
    /// `stream_metrics` — exactly what `finish()` publishes to the hub,
    /// and what the serve daemon folds per tenant into its aggregate.
    /// Key spaces are disjoint, so the merge is a plain union.
    pub fn settled_metrics(&self) -> Metrics {
        let mut all = self.analysis_metrics.clone();
        all.merge(&self.stream_metrics);
        all
    }
}

/// The streaming engine: feed frames, close epochs, finish.
///
/// ```
/// use dns_context::{stream::StreamEngine, AnalysisConfig};
/// use zeek_lite::MonitorConfig;
///
/// let mut engine = StreamEngine::new(MonitorConfig::default(), AnalysisConfig::default());
/// // for each epoch: engine.handle_frame(...) per frame, then
/// let released = engine.end_epoch(None);
/// assert!(released.conns.is_empty());
/// let result = engine.finish();
/// assert_eq!(result.class_counts.total(), 0);
/// ```
pub struct StreamEngine {
    monitor: Monitor,
    cfg: AnalysisConfig,
    /// Completed-but-unreleased rows; bounded by the window, not the trace.
    buf_conns: Vec<ConnRecord>,
    buf_dns: Vec<DnsTransaction>,
    /// The streaming pairing index, keyed by [`pack_key`], per-key
    /// sorted by `(completed, dns_idx)`.
    index: FastMap<u64, Vec<IndexEntry>>,
    /// dns_idx → the lookup its index entries point at.
    lookups: FastMap<usize, Lookup>,
    /// Each key's due time ([`run_due`]), for keys that have one.
    armed: FastMap<u64, Timestamp>,
    /// `(due, key)` eviction events, earliest first; an event whose key
    /// is no longer armed at or before the watermark is stale.
    due: BinaryHeap<Reverse<(Timestamp, u64)>>,
    live_entries: u64,
    next_dns_idx: usize,
    resolvers: HashMap<Ipv4Addr, ResolverAcc>,
    /// The released rows' `zeek.*` keys.
    rows: RowTally,
    /// The released connections' analysis keys.
    tally: Tally,
    epochs: u64,
    evicted_answers: u64,
    evicted_flows: u64,
    peak_live_flows: u64,
    peak_live_answers: u64,
    /// Live observability plane, when attached: prefix snapshots publish
    /// here at every epoch boundary and notable moments hit its flight
    /// recorder. `None` costs nothing on the frame path.
    hub: Option<xkit::obs::ObsHub>,
}

impl StreamEngine {
    /// Build an engine. Panics on [`PairingPolicy::RandomNonExpired`],
    /// which has no bounded-memory equivalent (see module docs).
    pub fn new(monitor: MonitorConfig, cfg: AnalysisConfig) -> StreamEngine {
        assert!(
            matches!(cfg.policy, PairingPolicy::MostRecent),
            "streaming supports the MostRecent pairing policy only"
        );
        StreamEngine {
            monitor: Monitor::new(monitor),
            cfg,
            buf_conns: Vec::new(),
            buf_dns: Vec::new(),
            index: FastMap::default(),
            lookups: FastMap::default(),
            armed: FastMap::default(),
            due: BinaryHeap::new(),
            live_entries: 0,
            next_dns_idx: 0,
            resolvers: HashMap::new(),
            rows: RowTally::default(),
            tally: Tally::default(),
            epochs: 0,
            evicted_answers: 0,
            evicted_flows: 0,
            peak_live_flows: 0,
            peak_live_answers: 0,
            hub: None,
        }
    }

    /// Attach a live observability hub: the embedded monitor feeds the
    /// hub's flight recorder (`fault.reject`/`parse.degrade`), the engine
    /// records `epoch.release`/`state.evict` events, and every epoch
    /// boundary publishes a snapshot that is a valid prefix of the final
    /// metrics (all counters monotone; finish-only keys — the settled
    /// SC/R split and per-resolver thresholds — stay absent mid-run).
    pub fn set_hub(&mut self, hub: xkit::obs::ObsHub) {
        self.monitor.set_flight(hub.flight().clone());
        self.hub = Some(hub);
    }

    /// The engine's own `stream.*` counters and peak gauges.
    fn write_stream_keys(&self, m: &mut Metrics) {
        m.add("stream.epochs", self.epochs);
        m.add("stream.evicted_answers", self.evicted_answers);
        m.add("stream.evicted_flows", self.evicted_flows);
        m.gauge_max("stream.peak_live_flows", self.peak_live_flows as f64);
        m.gauge_max("stream.peak_live_answers", self.peak_live_answers as f64);
    }

    /// Fold current state into the hub (no-op without one). Published
    /// counters are the already-folded tallies, so a scrape between
    /// two epochs never exceeds the final value of any counter and the
    /// degradation identities hold at every instant; the `stream.live_*`
    /// and `stream.w_*` gauges are point-in-time readings.
    fn publish_live(&self, w_conn: Timestamp, w_dns: Timestamp) {
        let Some(hub) = &self.hub else { return };
        let mut m = self.monitor.live_metrics();
        self.rows.write(&mut m);
        self.tally.write(&mut m, None);
        self.write_stream_keys(&mut m);
        let (flows, answers) = self.live_state();
        m.gauge_max("stream.live_flows", flows as f64);
        m.gauge_max("stream.live_answers", answers as f64);
        m.gauge_max("stream.w_conn_s", w_conn.0 as f64 / 1e9);
        m.gauge_max("stream.w_dns_s", w_dns.0 as f64 / 1e9);
        hub.publish_metrics(m);
    }

    /// Feed one captured frame to the embedded monitor.
    pub fn handle_frame(&mut self, ts: Timestamp, captured: &[u8], orig_len: u32) {
        self.monitor.handle_frame(ts, captured, orig_len);
    }

    /// Close the current epoch. `boundary` is the epoch's exclusive end
    /// (`None` for an unwindowed run, which releases nothing until
    /// [`finish`](StreamEngine::finish)). Returns the rows released by
    /// the watermarks; the engine retains nothing about them beyond the
    /// folded counters.
    pub fn end_epoch(&mut self, boundary: Option<Timestamp>) -> EpochOutput {
        self.epochs += 1;
        self.buf_conns.extend(self.monitor.drain_conns());
        self.buf_dns.extend(self.monitor.drain_dns());

        // High-water marks over everything currently held in memory,
        // measured before the release empties the buffers. Answers are
        // counted per *lookup* (a multi-address response pins one record
        // however many index entries it fans out to), so the peak
        // compares directly against the full-trace dns.log row count.
        let (live_flows, live_answers) = self.live_state();
        self.peak_live_flows = self.peak_live_flows.max(live_flows);
        self.peak_live_answers = self.peak_live_answers.max(live_answers);

        let Some(cap) = boundary else {
            // Unwindowed: nothing is safe to release before end of input,
            // but the live plane still sees the folded counters.
            self.publish_live(Timestamp::ZERO, Timestamp::ZERO);
            return EpochOutput::default();
        };
        let w_dns = self.monitor.oldest_pending_dns_ts().map_or(cap, |t| t.min(cap));
        let w_conn = self.monitor.oldest_active_flow_start().map_or(cap, |t| t.min(cap));
        // The invariant w_conn <= w_dns holds for monotone input (module
        // docs); the clamp keeps disordered input conservative.
        let w_conn = w_conn.min(w_dns);
        let evicted_before = self.evicted_answers;
        let out = self.release(w_conn, w_dns);
        self.evicted_flows += out.conns.len() as u64;
        self.evict(w_conn);
        if let Some(hub) = &self.hub {
            hub.flight().record(
                "epoch.release",
                format!(
                    "epoch {}: {} conn + {} dns rows",
                    self.epochs,
                    out.conns.len(),
                    out.dns.len()
                ),
                (out.conns.len() + out.dns.len()) as f64,
            );
            let evicted = self.evicted_answers - evicted_before;
            if evicted > 0 {
                hub.flight().record(
                    "state.evict",
                    format!("epoch {}: index entries dropped", self.epochs),
                    evicted as f64,
                );
            }
        }
        self.publish_live(w_conn, w_dns);
        out
    }

    /// Flush everything: drain the monitor, release all remaining rows,
    /// settle the deferred SC/R split, and render both snapshots.
    pub fn finish(mut self) -> StreamResult {
        let monitor =
            std::mem::replace(&mut self.monitor, Monitor::new(MonitorConfig::default()));
        let zeek_lite::Logs { conns, dns, stats, degradation } = monitor.finish();
        self.buf_conns.extend(conns);
        self.buf_dns.extend(dns);
        let tail = self.release(NEVER, NEVER);

        let rule = self.cfg.threshold_rule;
        let mut thresholds: HashMap<Ipv4Addr, Duration> = HashMap::new();
        // lint: allow(no-map-iteration): order-insensitive integer folds per resolver
        for (addr, acc) in &self.resolvers {
            let classes = &mut self.tally.classes;
            let Some(thr) = rule.threshold(&acc.durations) else {
                for class in [ConnClass::SharedCache, ConnClass::Resolution] {
                    classes.add(class, acc.at_floor.get(class));
                }
                continue;
            };
            thresholds.insert(*addr, thr);
            // Derived thresholds are whole milliseconds, so a duration is
            // within one exactly when its ceil-millisecond bucket is.
            for (&ms, &n) in &acc.blocked_ceil_ms {
                classes.add(split(Duration::from_millis(ms), thr), n);
            }
        }

        let mut m = stats.to_metrics();
        m.merge(&degradation.to_metrics());
        self.rows.write(&mut m);
        let settled = Settled { degradation: &degradation, thresholds: &thresholds };
        self.tally.write(&mut m, Some(settled));
        let mut s = Metrics::new();
        self.write_stream_keys(&mut s);

        // The last published snapshot is the settled one: every mid-run
        // scrape was a prefix of it.
        if let Some(hub) = &self.hub {
            let mut all = m.clone();
            all.merge(&s);
            hub.publish_metrics(all);
        }

        StreamResult {
            tail,
            analysis_metrics: m,
            stream_metrics: s,
            class_counts: self.tally.classes,
            thresholds,
        }
    }

    /// Release buffered rows below the watermarks: DNS first (the index
    /// must contain every lookup a released connection could pair with),
    /// then connections.
    fn release(&mut self, w_conn: Timestamp, w_dns: Timestamp) -> EpochOutput {
        let mut dns_out: Vec<_> = self.buf_dns.extract_if(.., |d| d.ts < w_dns).collect();
        dns_out.sort_by(DnsTransaction::log_order);
        for txn in &dns_out {
            self.ingest_dns(txn);
        }

        let mut conn_out: Vec<_> = self.buf_conns.extract_if(.., |c| c.ts < w_conn).collect();
        conn_out.sort_by_key(|c| (c.ts, c.uid));
        for conn in &conn_out {
            self.absorb_conn(conn);
        }

        EpochOutput { conns: conn_out, dns: dns_out }
    }

    /// Give one released DNS row its batch ordinal and fold it into the
    /// row tally, the threshold inputs, and the index.
    fn ingest_dns(&mut self, txn: &DnsTransaction) {
        self.rows.dns(txn);
        let idx = self.next_dns_idx;
        self.next_dns_idx += 1;
        if let Some(rtt) = txn.rtt {
            self.resolvers.entry(txn.resolver).or_default().durations.observe(rtt);
        }
        let (Some(completed), Some(expires), Some(rtt)) =
            (txn.completed_at(), txn.expires_at(), txn.rtt)
        else {
            return;
        };
        let mut refs = 0;
        for addr in txn.addrs() {
            let key = pack_key(txn.client, addr);
            let entries = self.index.entry(key).or_default();
            let pos = entries.partition_point(|e| (e.completed, e.dns_idx) <= (completed, idx));
            entries.insert(pos, IndexEntry { completed, expires, dns_idx: idx });
            // Only the pairs through the new entry changed (its
            // predecessor's successor, and its own), and neither can be
            // later than before: the key's due time can only move earlier.
            let due = run_due(&entries[pos.saturating_sub(1)..(pos + 2).min(entries.len())]);
            if due < self.armed.get(&key).copied().unwrap_or(NEVER) {
                self.armed.insert(key, due);
                self.due.push(Reverse((due, key)));
            }
            refs += 1;
        }
        if refs > 0 {
            self.live_entries += refs as u64;
            let lookup = Lookup { resolver: txn.resolver, rtt, refs, claimed: false };
            self.lookups.insert(idx, lookup);
        }
    }

    /// Fold one released connection, in release order, into the row
    /// tally and (for an application connection) the analysis tally.
    fn absorb_conn(&mut self, conn: &ConnRecord) {
        self.rows.conn(conn);
        if conn.is_dns() {
            return;
        }
        let key = pack_key(conn.id.orig_addr, conn.id.resp_addr);
        let picked = self.index.get(&key).and_then(|run| pick(run, conn.ts, None));
        let mut lookup = picked
            .map(|p| self.lookups.get_mut(&p.entry.dns_idx).expect("indexed lookups are kept"));
        // The earliest released connection to pair with a lookup is its
        // first use, exactly as the batch pairing's ts-ordered claim.
        let first_use = lookup.as_mut().is_some_and(|l| !std::mem::replace(&mut l.claimed, true));
        let gap = picked.map(|p| conn.ts.since(p.entry.completed));
        let class = unblocked_class(gap, first_use, self.cfg.block_threshold);
        let rtt = lookup.as_ref().map_or(Duration::ZERO, |l| l.rtt);
        if let (None, Some(l)) = (class, &lookup) {
            // Blocked: SC vs R settles at finish.
            let acc = self.resolvers.entry(l.resolver).or_default();
            *acc.blocked_ceil_ms.entry(rtt.nanos().div_ceil(1_000_000)).or_insert(0) += 1;
            acc.at_floor.add(split(rtt, self.cfg.threshold_rule.floor()), 1);
        }
        self.tally.record(gap, picked.is_some_and(|p| p.expired), first_use, class, rtt);
    }

    /// Drop index entries no future connection can pair with (module
    /// docs), releasing a lookup's record when its last entry goes.
    /// Visits only the keys whose due time has passed.
    fn evict(&mut self, w: Timestamp) {
        while let Some(&Reverse((due, key))) = self.due.peek() {
            if due > w {
                break;
            }
            self.due.pop();
            match self.armed.get(&key) {
                Some(&armed) if armed <= w => {}
                // Stale: the key was pruned and re-armed (or disarmed) since.
                _ => continue,
            }
            let Some(entries) = self.index.get_mut(&key) else { continue };
            // The newest entry with `completed <= w` is the witness every
            // expired entry before it is shadowed by; it stays.
            let last_keep = entries.partition_point(|e| e.completed <= w).saturating_sub(1);
            let mut pos = 0usize;
            entries.retain(|e| {
                let gone = pos < last_keep && e.expires <= w;
                pos += 1;
                if gone {
                    self.evicted_answers += 1;
                    self.live_entries -= 1;
                    let lookup =
                        self.lookups.get_mut(&e.dns_idx).expect("indexed lookups are kept");
                    lookup.refs -= 1;
                    if lookup.refs == 0 {
                        self.lookups.remove(&e.dns_idx);
                    }
                }
                !gone
            });
            match run_due(entries) {
                NEVER => {
                    self.armed.remove(&key);
                }
                next => {
                    self.armed.insert(key, next);
                    self.due.push(Reverse((next, key)));
                }
            }
        }
    }

    /// Live state right now: `(flows, answers)` — tracker + buffered
    /// connections, and indexed + buffered + pending DNS lookups.
    pub fn live_state(&self) -> (u64, u64) {
        (
            self.monitor.active_flows() as u64 + self.buf_conns.len() as u64,
            self.lookups.len() as u64
                + self.buf_dns.len() as u64
                + self.monitor.pending_dns() as u64,
        )
    }
}

/// Drive any [`pcapio::RecordSource`] — file reader, in-memory ring, or
/// live interface — through a [`StreamEngine`] in `window`-sized epochs,
/// handing each epoch's released rows to `sink`. A zero `window` runs a
/// single epoch (everything releases at
/// [`finish`](StreamEngine::finish), as in the batch pipeline).
///
/// This is the streaming counterpart of `Monitor::process_source`
/// followed by `Analysis::run`: same rows, same metrics, O(window) peak
/// memory.
pub fn process_source<S: pcapio::RecordSource + ?Sized>(
    source: &mut S,
    window: Duration,
    monitor: MonitorConfig,
    cfg: AnalysisConfig,
    sink: impl FnMut(EpochOutput),
) -> Result<StreamResult, pcapio::PcapError> {
    process_source_observed(source, window, monitor, cfg, None, sink)
}

/// [`process_source`] with an optional live observability hub attached to
/// the engine (see [`StreamEngine::set_hub`]): every epoch boundary
/// publishes a prefix snapshot and feeds the hub's flight recorder, so an
/// HTTP scrape at any instant sees internally consistent counters.
pub fn process_source_observed<S: pcapio::RecordSource + ?Sized>(
    source: &mut S,
    window: Duration,
    monitor: MonitorConfig,
    cfg: AnalysisConfig,
    hub: Option<&xkit::obs::ObsHub>,
    mut sink: impl FnMut(EpochOutput),
) -> Result<StreamResult, pcapio::PcapError> {
    let mut engine = StreamEngine::new(monitor, cfg);
    if let Some(hub) = hub {
        engine.set_hub(hub.clone());
    }
    let window_nanos = window.nanos();
    // Epoch windowing over the source's borrowed records (the frames feed
    // the engine immediately, so nothing needs to be owned). Epoch k
    // covers [k*window, (k+1)*window) ns; the epoch index is clamped
    // monotone on disordered input (a late record joins the current
    // epoch); the first record opens its own epoch; window 0 is a single
    // epoch with no boundary; an empty source closes no epoch; and a read
    // error ends the stream after the records already consumed (the
    // failing record is counted in `capture.frames_rejected`).
    let mut current_epoch = 0u64;
    let mut started = false;
    loop {
        let rec = match source.next() {
            Ok(Some(rec)) => rec,
            Ok(None) | Err(_) => break,
        };
        let e = if window_nanos == 0 {
            0
        } else {
            (rec.ts_nanos / window_nanos).max(current_epoch)
        };
        if !started {
            started = true;
            current_epoch = e;
        } else if e != current_epoch {
            let boundary = Some(Timestamp((current_epoch + 1).saturating_mul(window_nanos)));
            sink(engine.end_epoch(boundary));
            current_epoch = e;
        }
        engine.handle_frame(Timestamp(rec.ts_nanos), rec.data, rec.orig_len);
    }
    if started {
        let boundary = if window_nanos == 0 {
            None
        } else {
            Some(Timestamp((current_epoch + 1).saturating_mul(window_nanos)))
        };
        sink(engine.end_epoch(boundary));
    }
    Ok(engine.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Analysis;
    use std::net::Ipv4Addr;
    use zeek_lite::{Answer, ConnState, FiveTuple, Logs, Proto};

    const HOUSE: Ipv4Addr = Ipv4Addr::new(10, 77, 0, 1);
    const RESOLVER: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 53);
    const SERVER: Ipv4Addr = Ipv4Addr::new(104, 16, 0, 1);

    fn txn(ts_ms: u64, id: u16, ttl: u32) -> DnsTransaction {
        DnsTransaction {
            ts: Timestamp::from_millis(ts_ms),
            client: HOUSE,
            resolver: RESOLVER,
            trans_id: id,
            query: format!("q{id}.example.com"),
            qtype: dns_wire::RrType::A,
            rcode: Some(dns_wire::Rcode::NoError),
            rtt: Some(Duration::from_millis(4)),
            answers: vec![Answer::addr(SERVER, ttl)],
        }
    }

    fn conn(ts_ms: u64, uid: u64) -> ConnRecord {
        ConnRecord {
            uid,
            ts: Timestamp::from_millis(ts_ms),
            id: FiveTuple {
                orig_addr: HOUSE,
                orig_port: 50_000 + uid as u16,
                resp_addr: SERVER,
                resp_port: 443,
                proto: Proto::Tcp,
            },
            duration: Duration::from_millis(500),
            orig_bytes: 100,
            resp_bytes: 1_000,
            orig_pkts: 4,
            resp_pkts: 4,
            state: ConnState::SF,
            history: "ShAaFf".into(),
            service: Some("ssl"),
        }
    }

    /// Drive pre-built log rows through the engine's release path directly
    /// (bypassing the monitor) by staging them in the buffers, one epoch
    /// per row timestamp window.
    fn stream_rows(
        conns: Vec<ConnRecord>,
        dns: Vec<DnsTransaction>,
        boundaries_ms: &[u64],
        cfg: AnalysisConfig,
    ) -> (Vec<ConnRecord>, Vec<DnsTransaction>, StreamResult) {
        let mut engine = StreamEngine::new(MonitorConfig::default(), cfg);
        engine.buf_conns = conns;
        engine.buf_dns = dns;
        let mut got_conns = Vec::new();
        let mut got_dns = Vec::new();
        for &b in boundaries_ms {
            let out = engine.end_epoch(Some(Timestamp::from_millis(b)));
            got_conns.extend(out.conns);
            got_dns.extend(out.dns);
        }
        let result = engine.finish();
        got_conns.extend(result.tail.conns.iter().cloned());
        got_dns.extend(result.tail.dns.iter().cloned());
        (got_conns, got_dns, result)
    }

    #[test]
    fn streamed_release_matches_batch_pairing() {
        let mut cfg = AnalysisConfig::default();
        cfg.threshold_rule.min_lookups = 1;
        // Lookup at 1s (TTL 300); conns at 1.01s (blocked), 30s (LC),
        // and a second lookup at 60s with a conn at 60.2s (prefetched
        // would need first use; it's LC since lookup 1 still live... the
        // batch run is the oracle either way).
        let dns = vec![txn(1_000, 1, 300), txn(60_000, 2, 300)];
        let conns = vec![conn(1_010, 1), conn(30_000, 2), conn(60_200, 3)];
        let mut logs = Logs { conns: conns.clone(), dns: dns.clone(), ..Default::default() };
        logs.sort();
        let analysis = Analysis::run(&logs, cfg.clone());
        let mut batch = logs.metrics();
        batch.merge(&analysis.metrics());

        let (got_conns, got_dns, result) =
            stream_rows(conns, dns, &[10_000, 45_000, 70_000], cfg);
        assert_eq!(got_conns, logs.conns);
        assert_eq!(got_dns, logs.dns);
        assert_eq!(result.class_counts, analysis.class_counts());
        assert_eq!(result.thresholds, analysis.thresholds);
        // Stats/degradation come from the monitor (zero here, both
        // sides); everything analysis-side must agree byte for byte.
        assert_eq!(result.analysis_metrics.to_json(), batch.to_json());
    }

    #[test]
    fn eviction_keeps_expired_fallback_reachable() {
        let mut cfg = AnalysisConfig::default();
        cfg.threshold_rule.min_lookups = 1;
        // Two short-TTL lookups; a conn long after both must still take
        // the newest as expired fallback, even though the older one was
        // evicted in between.
        let dns = vec![txn(1_000, 1, 1), txn(2_000, 2, 1)];
        let conns = vec![conn(500_000, 1)];
        let mut logs = Logs { conns: conns.clone(), dns: dns.clone(), ..Default::default() };
        logs.sort();
        let analysis = Analysis::run(&logs, cfg.clone());
        let mut batch = logs.metrics();
        batch.merge(&analysis.metrics());

        let (_, _, result) = stream_rows(conns, dns, &[100_000, 400_000], cfg);
        let evicted = result.stream_metrics.counter("stream.evicted_answers");
        assert_eq!(evicted, 1, "the older expired entry must be evicted");
        assert_eq!(result.analysis_metrics.to_json(), batch.to_json());
        assert_eq!(result.class_counts, analysis.class_counts());
    }

    #[test]
    fn unwindowed_epoch_releases_nothing_until_finish() {
        let cfg = AnalysisConfig::default();
        let mut engine = StreamEngine::new(MonitorConfig::default(), cfg);
        engine.buf_conns = vec![conn(1_000, 1)];
        engine.buf_dns = vec![txn(500, 1, 60)];
        let out = engine.end_epoch(None);
        assert!(out.conns.is_empty() && out.dns.is_empty());
        let result = engine.finish();
        assert_eq!(result.tail.conns.len(), 1);
        assert_eq!(result.tail.dns.len(), 1);
        assert_eq!(result.stream_metrics.counter("stream.epochs"), 1);
    }

    #[test]
    fn hub_sees_prefix_snapshots_and_flight_events() {
        let mut cfg = AnalysisConfig::default();
        cfg.threshold_rule.min_lookups = 1;
        let hub = xkit::obs::ObsHub::default();
        let mut engine = StreamEngine::new(MonitorConfig::default(), cfg);
        engine.set_hub(hub.clone());
        engine.buf_dns = vec![txn(1_000, 1, 1), txn(2_000, 2, 1)];
        engine.buf_conns = vec![conn(500_000, 1)];

        engine.end_epoch(Some(Timestamp::from_millis(100_000)));
        let mid = hub.metrics();
        assert_eq!(mid.counter("stream.epochs"), 1);
        assert_eq!(mid.counter("zeek.dns_rows"), 2);
        // Mid-run snapshots never carry finish-only keys.
        assert_eq!(mid.counter("class.shared_cache"), 0);

        engine.end_epoch(Some(Timestamp::from_millis(400_000)));
        let result = engine.finish();
        let fin = hub.metrics();
        // The finish-time publication is the settled snapshot, and every
        // mid-run counter is bounded by its final value.
        assert_eq!(fin.to_json(), result.settled_metrics().to_json());
        for (name, v) in [("stream.epochs", 1), ("zeek.dns_rows", 2)] {
            assert!(mid.counter(name) >= v && mid.counter(name) <= fin.counter(name));
        }

        let events = hub.flight().snapshot();
        assert!(events.iter().any(|e| e.kind == "epoch.release"));
        assert!(
            events.iter().any(|e| e.kind == "state.evict" && e.value == 1.0),
            "the older expired entry's eviction must hit the flight ring"
        );
    }

    /// The eviction oracle: an index fed the same released rows that
    /// sweeps every key at each boundary. Pairing is brute force over
    /// every entry, straight from the rule (most recent live, else most
    /// recent expired), so it also checks the claim state.
    #[derive(Default)]
    struct SweepOracle {
        index: HashMap<(Ipv4Addr, Ipv4Addr), Vec<IndexEntry>>,
        refcount: HashMap<usize, usize>,
        claimed: std::collections::HashSet<usize>,
        next_dns_idx: usize,
        live_entries: u64,
        evicted_answers: u64,
    }

    impl SweepOracle {
        fn ingest(&mut self, txn: &DnsTransaction) {
            let idx = self.next_dns_idx;
            self.next_dns_idx += 1;
            let (Some(completed), Some(expires)) = (txn.completed_at(), txn.expires_at()) else {
                return;
            };
            for addr in txn.addrs() {
                let entries = self.index.entry((txn.client, addr)).or_default();
                let pos = entries.partition_point(|e| (e.completed, e.dns_idx) <= (completed, idx));
                entries.insert(pos, IndexEntry { completed, expires, dns_idx: idx });
                self.live_entries += 1;
                *self.refcount.entry(idx).or_insert(0) += 1;
            }
        }

        fn pair(&mut self, conn: &ConnRecord) {
            if conn.is_dns() {
                return;
            }
            let Some(entries) = self.index.get(&(conn.id.orig_addr, conn.id.resp_addr)) else {
                return;
            };
            let newest = |live: bool| {
                entries
                    .iter()
                    .filter(|e| e.completed <= conn.ts && (!live || e.expires > conn.ts))
                    .max_by_key(|e| (e.completed, e.dns_idx))
            };
            if let Some(chosen) = newest(true).or_else(|| newest(false)) {
                self.claimed.insert(chosen.dns_idx);
            }
        }

        fn evict(&mut self, w: Timestamp) {
            let mut dropped: Vec<usize> = Vec::new();
            for entries in self.index.values_mut() {
                let cut = entries.partition_point(|e| e.completed <= w);
                if cut < 2 {
                    continue;
                }
                let last_keep = cut - 1;
                let mut pos = 0usize;
                entries.retain(|e| {
                    let gone = pos < last_keep && e.expires <= w;
                    pos += 1;
                    if gone {
                        dropped.push(e.dns_idx);
                    }
                    !gone
                });
            }
            for di in dropped {
                self.evicted_answers += 1;
                self.live_entries -= 1;
                let rc = self.refcount.get_mut(&di).unwrap();
                *rc -= 1;
                if *rc == 0 {
                    self.refcount.remove(&di);
                    self.claimed.remove(&di);
                }
            }
        }
    }

    /// Random rows over many `(client, address)` keys: coarse 100 ms
    /// grids make equal `completed` ties common, RTTs up to 3 s make
    /// completion order differ from release order (out-of-order insert
    /// positions), TTL 0 occurs, and some lookups go unanswered.
    fn random_rows(seed: u64) -> (Vec<DnsTransaction>, Vec<ConnRecord>) {
        use xkit::rng::{RngExt, SeedableRng, StdRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let clients: Vec<Ipv4Addr> = (1..=6).map(|i| Ipv4Addr::new(10, 77, 0, i)).collect();
        let servers: Vec<Ipv4Addr> = (1..=10).map(|i| Ipv4Addr::new(104, 16, 0, i)).collect();
        let ttls = [0u32, 0, 1, 2, 5, 30, 120, 300];
        let dns = (0..600u16)
            .map(|id| {
                let mut t = txn(rng.random_range(0..6_000u64) * 100, id, 0);
                t.client = *rng.choose(&clients).unwrap();
                t.rtt = if rng.random_bool(0.1) {
                    None
                } else {
                    Some(Duration::from_millis(rng.random_range(0..30u64) * 100))
                };
                t.answers = (0..rng.random_range(1..=3usize))
                    .map(|_| {
                        Answer::addr(*rng.choose(&servers).unwrap(), *rng.choose(&ttls).unwrap())
                    })
                    .collect();
                t
            })
            .collect();
        let conns = (0..500u64)
            .map(|uid| {
                let mut c = conn(rng.random_range(0..6_500u64) * 100, uid);
                c.id.orig_addr = *rng.choose(&clients).unwrap();
                c.id.resp_addr = *rng.choose(&servers).unwrap();
                c
            })
            .collect();
        (dns, conns)
    }

    #[test]
    fn due_queue_eviction_matches_the_full_sweep() {
        use xkit::rng::{RngExt, SeedableRng, StdRng};
        for seed in 0..12u64 {
            let (dns, conns) = random_rows(seed);
            let mut engine = StreamEngine::new(MonitorConfig::default(), AnalysisConfig::default());
            engine.buf_dns = dns;
            engine.buf_conns = conns;
            let mut oracle = SweepOracle::default();
            // Boundaries every 0.5–12 s, with an occasional step back: the
            // heap must match the sweep for any watermark sequence, not
            // only monotone ones.
            let mut rng = StdRng::seed_from_u64(seed ^ 0xE7);
            let mut b_ms = 0u64;
            for epoch in 0..150 {
                b_ms = if rng.random_bool(0.05) {
                    b_ms.saturating_sub(rng.random_range(0..20_000u64))
                } else {
                    b_ms + rng.random_range(500..12_000u64)
                };
                let w = Timestamp::from_millis(b_ms);
                let out = engine.end_epoch(Some(w));
                out.dns.iter().for_each(|t| oracle.ingest(t));
                out.conns.iter().for_each(|c| oracle.pair(c));
                oracle.evict(w);

                let at = format!("seed {seed} epoch {epoch} w={b_ms}ms");
                assert_eq!(engine.evicted_answers, oracle.evicted_answers, "evicted, {at}");
                assert_eq!(engine.live_entries, oracle.live_entries, "live entries, {at}");
                let mut rc: Vec<(usize, usize)> =
                    engine.lookups.iter().map(|(k, l)| (*k, l.refs)).collect();
                let mut rc_oracle: Vec<(usize, usize)> =
                    oracle.refcount.iter().map(|(k, v)| (*k, *v)).collect();
                rc.sort_unstable();
                rc_oracle.sort_unstable();
                assert_eq!(rc, rc_oracle, "refcounts, {at}");
                let mut claimed: Vec<usize> =
                    engine.lookups.iter().filter(|(_, l)| l.claimed).map(|(k, _)| *k).collect();
                let mut claimed_oracle: Vec<usize> = oracle.claimed.iter().copied().collect();
                claimed.sort_unstable();
                claimed_oracle.sort_unstable();
                assert_eq!(claimed, claimed_oracle, "claimed, {at}");
            }
            let evicted = engine.evicted_answers;
            assert!(evicted > 100, "seed {seed}: only {evicted} evictions exercised");
        }
    }

    #[test]
    fn a_resolver_below_min_lookups_settles_alike_in_batch_and_stream() {
        const OTHER: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 54);
        let mut cfg = AnalysisConfig::default();
        cfg.threshold_rule.min_lookups = 3;
        // A fractional floor: 4.2 ms and 4.7 ms share the 5 ms ceil bucket
        // but fall on either side of it, so the below-`min_lookups`
        // resolver must split exactly, not by bucket.
        cfg.threshold_rule.floor_ms = 4.5;
        let lookup = |ts_ms: u64, id: u16, resolver: Ipv4Addr, rtt_us: u64| {
            let mut t = txn(ts_ms, id, 300);
            t.resolver = resolver;
            t.rtt = Some(Duration::from_micros(rtt_us));
            t
        };
        // RESOLVER answers two lookups (below min_lookups, floor 4.5 ms);
        // OTHER answers three (own threshold: ceil(2 * 1.5 + 2) = 5 ms).
        let dns = vec![
            lookup(1_000, 1, RESOLVER, 4_200),
            lookup(2_000, 2, RESOLVER, 4_700),
            lookup(3_000, 3, OTHER, 2_000),
            lookup(4_000, 4, OTHER, 9_000),
            lookup(5_000, 5, OTHER, 2_500),
        ];
        // Each connection blocks on the lookup just before it.
        let conns = [1_010, 2_010, 3_010, 4_020, 5_010]
            .iter()
            .zip(1..)
            .map(|(&ts, uid)| conn(ts, uid))
            .collect::<Vec<_>>();
        let mut logs = Logs { conns: conns.clone(), dns: dns.clone(), ..Default::default() };
        logs.sort();
        let analysis = Analysis::run(&logs, cfg.clone());
        let mut batch = logs.metrics();
        batch.merge(&analysis.metrics());

        let (_, _, result) = stream_rows(conns, dns, &[2_500, 4_500, 10_000], cfg);
        let counts = result.class_counts;
        assert_eq!((counts.shared_cache, counts.resolution), (3, 2));
        assert_eq!(counts, analysis.class_counts());
        assert_eq!(result.thresholds, HashMap::from([(OTHER, Duration::from_millis(5))]));
        assert_eq!(result.thresholds, analysis.thresholds);
        assert_eq!(result.analysis_metrics.to_json(), batch.to_json());
    }

    /// Stream one-byte frames stamped `stamps` (ns) in `window_ns` epochs
    /// and read each closed epoch off the hub: the frames seen so far and
    /// the epoch's exclusive end in ns (0 when unwindowed).
    fn epochs_of(stamps: &[u64], window_ns: u64) -> (Vec<(u64, u64)>, StreamResult) {
        let mut buf = Vec::new();
        let mut w = pcapio::PcapWriter::new(&mut buf, 96, pcapio::TsPrecision::Nano).unwrap();
        for &ts in stamps {
            w.write_packet(ts, &[ts as u8], None).unwrap();
        }
        drop(w);
        let hub = xkit::obs::ObsHub::default();
        let mut closed = Vec::new();
        let result = process_source_observed(
            &mut pcapio::source::file(&buf[..]).unwrap(),
            Duration(window_ns),
            MonitorConfig::default(),
            AnalysisConfig::default(),
            Some(&hub),
            |_| {
                let m = hub.metrics();
                let end = m.gauge("stream.w_conn_s").unwrap();
                closed.push((m.counter("zeek.frames_seen"), (end * 1e9).round() as u64));
            },
        )
        .unwrap();
        (closed, result)
    }

    #[test]
    fn epochs_split_on_window_boundaries() {
        // Window of 10 ns: [0,10), [10,20), [30,40); no empty epoch between.
        let (closed, result) = epochs_of(&[1, 5, 9, 10, 19, 35], 10);
        assert_eq!(closed, vec![(3, 10), (5, 20), (6, 40)]);
        assert_eq!(result.stream_metrics.counter("stream.epochs"), 3);
    }

    #[test]
    fn epochs_zero_window_is_single_epoch() {
        let (closed, result) = epochs_of(&[1, 500, 1_000_000], 0);
        assert_eq!(closed, vec![(3, 0)]);
        assert_eq!(result.stream_metrics.counter("stream.epochs"), 1);
    }

    #[test]
    fn epochs_clamp_monotone_on_disordered_input() {
        // 25 opens epoch 2; the out-of-order 4 stays in epoch 2 rather
        // than reopening epoch 0.
        let (closed, _) = epochs_of(&[25, 4, 31], 10);
        assert_eq!(closed, vec![(2, 30), (3, 40)]);
    }

    #[test]
    fn epochs_empty_capture_yields_nothing() {
        let (closed, result) = epochs_of(&[], 10);
        assert!(closed.is_empty());
        assert_eq!(result.stream_metrics.counter("stream.epochs"), 0);
        assert_eq!(result.analysis_metrics.counter("zeek.frames_seen"), 0);
    }

    #[test]
    fn epochs_concatenation_is_lossless() {
        let stamps: Vec<u64> = (0..100).map(|i| i * 7).collect();
        let (closed, result) = epochs_of(&stamps, 64);
        // Every epoch holds exactly the stamps of its window, in order.
        let mut want = Vec::new();
        for (i, ts) in stamps.iter().enumerate() {
            let end = (ts / 64 + 1) * 64;
            match want.last_mut() {
                Some((seen, e)) if *e == end => *seen = i as u64 + 1,
                _ => want.push((i as u64 + 1, end)),
            }
        }
        assert_eq!(closed, want);
        assert_eq!(result.analysis_metrics.counter("zeek.frames_seen"), 100);
    }

    #[test]
    fn random_policy_is_rejected() {
        let mut cfg = AnalysisConfig::default();
        cfg.policy = PairingPolicy::RandomNonExpired;
        let err = std::panic::catch_unwind(|| {
            StreamEngine::new(MonitorConfig::default(), cfg);
        });
        assert!(err.is_err());
    }
}
