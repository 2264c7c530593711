//! Connection classification (paper §5, Table 2) and the §5.1/§5.2
//! in-text analyses.

use crate::pairing::Pairing;
use crate::stats::{pct, Ecdf};
use std::collections::HashMap;
use std::net::Ipv4Addr;
use zeek_lite::{ConnColumns, ConnRecord, DnsColumns, Duration};

/// The paper's five connection classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConnClass {
    /// No DNS information involved.
    NoDns,
    /// Local-cache information, previously used.
    LocalCache,
    /// Previously-unused (speculative) information, used >100 ms later.
    Prefetched,
    /// Blocked; answered from the shared resolver's cache.
    SharedCache,
    /// Blocked; required authoritative resolution.
    Resolution,
}

impl ConnClass {
    /// The paper's symbol.
    pub fn symbol(self) -> &'static str {
        match self {
            ConnClass::NoDns => "N",
            ConnClass::LocalCache => "LC",
            ConnClass::Prefetched => "P",
            ConnClass::SharedCache => "SC",
            ConnClass::Resolution => "R",
        }
    }

    /// The paper's description (Table 2's second column).
    pub fn description(self) -> &'static str {
        match self {
            ConnClass::NoDns => "No DNS",
            ConnClass::LocalCache => "Local Cache",
            ConnClass::Prefetched => "Prefetched",
            ConnClass::SharedCache => "Shared Resolver Cache",
            ConnClass::Resolution => "Requires Resolution",
        }
    }

    /// All five classes in Table 2's order.
    pub fn all() -> [ConnClass; 5] {
        [
            ConnClass::NoDns,
            ConnClass::LocalCache,
            ConnClass::Prefetched,
            ConnClass::SharedCache,
            ConnClass::Resolution,
        ]
    }
}

/// Table 2: counts per class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassCounts {
    /// `N` count.
    pub no_dns: usize,
    /// `LC` count.
    pub local_cache: usize,
    /// `P` count.
    pub prefetched: usize,
    /// `SC` count.
    pub shared_cache: usize,
    /// `R` count.
    pub resolution: usize,
}

impl ClassCounts {
    /// Total connections.
    pub fn total(&self) -> usize {
        self.no_dns + self.local_cache + self.prefetched + self.shared_cache + self.resolution
    }

    /// Add `n` connections of one class.
    pub fn add(&mut self, class: ConnClass, n: usize) {
        *match class {
            ConnClass::NoDns => &mut self.no_dns,
            ConnClass::LocalCache => &mut self.local_cache,
            ConnClass::Prefetched => &mut self.prefetched,
            ConnClass::SharedCache => &mut self.shared_cache,
            ConnClass::Resolution => &mut self.resolution,
        } += n;
    }

    /// Count for one class.
    pub fn get(&self, class: ConnClass) -> usize {
        match class {
            ConnClass::NoDns => self.no_dns,
            ConnClass::LocalCache => self.local_cache,
            ConnClass::Prefetched => self.prefetched,
            ConnClass::SharedCache => self.shared_cache,
            ConnClass::Resolution => self.resolution,
        }
    }

    /// Percentage for one class (Table 2's last column).
    pub fn share_pct(&self, class: ConnClass) -> f64 {
        pct(self.get(class), self.total())
    }

    /// Shared-cache hit rate among blocked connections
    /// (SC / (SC + R); the paper reports 62.6 %).
    pub fn shared_hit_rate(&self) -> f64 {
        let blocked = self.shared_cache + self.resolution;
        if blocked == 0 {
            0.0
        } else {
            self.shared_cache as f64 / blocked as f64
        }
    }

    /// Share of connections that block on DNS (SC + R; paper: 42.1 %).
    pub fn blocked_share_pct(&self) -> f64 {
        pct(self.shared_cache + self.resolution, self.total())
    }
}

/// How the SC/R resolver thresholds are derived (paper §5.3): anchor on
/// the minimum observed duration per resolver (≈ the network RTT), scale
/// and pad slightly, and never go below the floor used for unpopular
/// resolvers.
#[derive(Debug, Clone, Copy)]
pub struct ThresholdRule {
    /// Minimum lookups a resolver needs for its own threshold.
    pub min_lookups: usize,
    /// Multiplier on the minimum duration.
    pub mult: f64,
    /// Additive pad, milliseconds.
    pub add_ms: f64,
    /// Default/floor threshold, milliseconds (the paper's 5 ms).
    pub floor_ms: f64,
}

impl Default for ThresholdRule {
    fn default() -> Self {
        ThresholdRule { min_lookups: 1_000, mult: 1.5, add_ms: 2.0, floor_ms: 5.0 }
    }
}

impl ThresholdRule {
    /// A resolver's SC/R threshold, or `None` when it answered fewer
    /// than `min_lookups` lookups (it then uses [`floor`](Self::floor)).
    /// Always a whole number of milliseconds.
    pub(crate) fn threshold(&self, durations: &LookupDurations) -> Option<Duration> {
        (durations.answered >= self.min_lookups).then(|| {
            let ms = (durations.min_ms * self.mult + self.add_ms).max(self.floor_ms).ceil();
            Duration::from_secs_f64(ms / 1e3)
        })
    }

    /// The threshold of a resolver without its own.
    pub fn floor(&self) -> Duration {
        Duration::from_secs_f64(self.floor_ms / 1e3)
    }
}

/// One resolver's threshold inputs: its answered-lookup count and the
/// minimum answered duration (≈ the network RTT).
#[derive(Debug, Clone, Copy)]
pub(crate) struct LookupDurations {
    /// Minimum answered-lookup duration, milliseconds.
    min_ms: f64,
    /// Answered lookups.
    answered: usize,
}

impl Default for LookupDurations {
    fn default() -> Self {
        LookupDurations { min_ms: f64::INFINITY, answered: 0 }
    }
}

impl LookupDurations {
    /// Fold one answered lookup's duration.
    pub(crate) fn observe(&mut self, rtt: Duration) {
        self.min_ms = self.min_ms.min(rtt.as_millis_f64());
        self.answered += 1;
    }
}

/// Compute per-resolver SC/R thresholds from the lookup-duration
/// distributions (paper §5.3). Scans the resolver and rtt columns.
pub fn resolver_thresholds(dns: &DnsColumns, rule: ThresholdRule) -> HashMap<Ipv4Addr, Duration> {
    let mut by_resolver: HashMap<Ipv4Addr, LookupDurations> = HashMap::new();
    for (resolver, rtt) in dns.resolver.iter().zip(&dns.rtt) {
        if let Some(rtt) = rtt {
            by_resolver.entry(*resolver).or_default().observe(*rtt);
        }
    }
    by_resolver
        // lint: allow(no-map-iteration): map-to-map transform, no order reaches output
        .into_iter()
        .filter_map(|(addr, durations)| Some((addr, rule.threshold(&durations)?)))
        .collect()
}

/// Table 2's rule up to the SC/R split (paper §4): unpaired → N; a gap
/// beyond the blocking threshold → P on the lookup's first use, LC
/// otherwise. `None` for a blocked connection, which [`split`] settles.
pub(crate) fn unblocked_class(
    gap: Option<Duration>,
    first_use: bool,
    block_threshold: Duration,
) -> Option<ConnClass> {
    match gap {
        None => Some(ConnClass::NoDns),
        Some(gap) if gap <= block_threshold => None,
        Some(_) if first_use => Some(ConnClass::Prefetched),
        Some(_) => Some(ConnClass::LocalCache),
    }
}

/// The SC/R split of a blocked connection (paper §5.3): its lookup's
/// duration against its resolver's threshold.
pub(crate) fn split(duration: Duration, threshold: Duration) -> ConnClass {
    if duration <= threshold {
        ConnClass::SharedCache
    } else {
        ConnClass::Resolution
    }
}

/// Classify every analysed connection. `thresholds` comes from
/// [`resolver_thresholds`]; resolvers missing from it use the rule's floor.
pub fn classify(
    dns: &DnsColumns,
    pairing: &Pairing,
    block_threshold: Duration,
    thresholds: &HashMap<Ipv4Addr, Duration>,
    floor: Duration,
) -> Vec<ConnClass> {
    pairing
        .pairs
        .iter()
        .map(|p| classify_pair(p, dns, block_threshold, thresholds, floor))
        .collect()
}

/// One connection's class: [`unblocked_class`], then for a blocked
/// connection [`split`] on the paired lookup's resolver and duration.
fn classify_pair(
    p: &crate::pairing::PairedConn,
    dns: &DnsColumns,
    block_threshold: Duration,
    thresholds: &HashMap<Ipv4Addr, Duration>,
    floor: Duration,
) -> ConnClass {
    unblocked_class(p.gap, p.first_use, block_threshold).unwrap_or_else(|| {
        let di = p.dns.expect("blocked conns are paired");
        let thr = thresholds.get(&dns.resolver[di]).copied().unwrap_or(floor);
        split(dns.rtt[di].unwrap_or(Duration::ZERO), thr)
    })
}

/// [`classify`] fanned out over worker threads: contiguous chunks of the
/// pairing are classified independently and concatenated in order. Each
/// pair's class is a pure function of that pair, so the result is
/// identical to the sequential call for every thread count.
pub fn classify_parallel(
    threads: usize,
    dns: &DnsColumns,
    pairing: &Pairing,
    block_threshold: Duration,
    thresholds: &HashMap<Ipv4Addr, Duration>,
    floor: Duration,
) -> Vec<ConnClass> {
    let n = pairing.pairs.len();
    let workers = xkit::par::resolve_threads(threads).min(n.max(1));
    if workers <= 1 {
        return classify(dns, pairing, block_threshold, thresholds, floor);
    }
    let chunks: Vec<&[crate::pairing::PairedConn]> =
        pairing.pairs.chunks(n.div_ceil(workers)).collect();
    xkit::par::par_map(threads, chunks, |_, chunk| {
        chunk
            .iter()
            .map(|p| classify_pair(p, dns, block_threshold, thresholds, floor))
            .collect::<Vec<ConnClass>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Tally classes into Table 2's counts.
pub fn count_classes(classes: &[ConnClass]) -> ClassCounts {
    let mut c = ClassCounts::default();
    for &class in classes {
        c.add(class, 1);
    }
    c
}

/// §5.1: the anatomy of the no-DNS connections.
#[derive(Debug, Clone)]
pub struct NoDnsBreakdown {
    /// Total `N` connections.
    pub total: usize,
    /// Of those, both ports ≥ 1024 (P2P hallmark; paper: 81.6 %).
    pub both_high_ports: usize,
    /// Reserved-port `N` connections grouped by (address, port), sorted by
    /// count descending — the paper's hard-coded NTP/AlarmNet stories.
    pub reserved_port_endpoints: Vec<((Ipv4Addr, u16), usize)>,
    /// Connections on the DoT port anywhere in the trace (paper: none).
    pub dot_port_conns: usize,
    /// Share of *all* application connections that are both unpaired and
    /// not high-high (the paper's ≤1.3 % possibly-encrypted bound).
    pub unpaired_not_p2p_share_pct: f64,
}

/// Compute the §5.1 breakdown.
pub fn no_dns_breakdown(
    conns: &[ConnRecord],
    pairing: &Pairing,
    classes: &[ConnClass],
) -> NoDnsBreakdown {
    let mut total = 0usize;
    let mut both_high = 0usize;
    let mut reserved: HashMap<(Ipv4Addr, u16), usize> = HashMap::new();
    let mut unpaired_not_p2p = 0usize;
    let mut dot = 0usize;
    for (pair, class) in pairing.pairs.iter().zip(classes) {
        let conn = &conns[pair.conn];
        if conn.id.resp_port == 853 || conn.id.orig_port == 853 {
            dot += 1;
        }
        if *class != ConnClass::NoDns {
            continue;
        }
        total += 1;
        if conn.id.both_high_ports() {
            both_high += 1;
        } else {
            *reserved.entry((conn.id.resp_addr, conn.id.resp_port)).or_default() += 1;
            unpaired_not_p2p += 1;
        }
    }
    // lint: allow(no-map-iteration): sorted just below under a total order
    let mut reserved_port_endpoints: Vec<_> = reserved.into_iter().collect();
    reserved_port_endpoints.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    NoDnsBreakdown {
        total,
        both_high_ports: both_high,
        reserved_port_endpoints,
        dot_port_conns: dot,
        unpaired_not_p2p_share_pct: pct(unpaired_not_p2p, pairing.pairs.len()),
    }
}

/// §5.2: TTL violations and prefetch efficacy.
#[derive(Debug)]
pub struct TtlStats {
    /// Share of LC connections using expired records (paper: 22.2 %).
    pub lc_violation_share_pct: f64,
    /// Share of P connections using expired records (paper: 12.4 %).
    pub p_violation_share_pct: f64,
    /// Distribution of how stale violated records were, seconds
    /// (paper: 82 % > 30 s, median 890 s, p90 ≈ 19 ks).
    pub violation_staleness_secs: Ecdf,
    /// Median lookup-to-use gap for P connections, seconds (paper: 310 s).
    pub p_use_gap_median_secs: Option<f64>,
    /// Median lookup-to-use gap for LC connections, seconds (paper: 1033 s).
    pub lc_use_gap_median_secs: Option<f64>,
    /// Lookups never used by any connection (paper: 3.1 M / 37.8 %).
    pub unused_lookups: usize,
    /// Unused share of eligible lookups.
    pub unused_share_pct: f64,
    /// Treating unused lookups as speculative: the share of speculative
    /// lookups ultimately used (paper: 22.3 %).
    pub speculative_used_share_pct: f64,
}

/// Compute the §5.2 statistics. Scans the conn ts column and the dns
/// expiry column.
pub fn ttl_stats(
    conns: &ConnColumns,
    dns: &DnsColumns,
    pairing: &Pairing,
    classes: &[ConnClass],
) -> TtlStats {
    let mut lc = (0usize, 0usize); // (violations, total)
    let mut p = (0usize, 0usize);
    let mut staleness = Vec::new();
    let mut p_gaps = Vec::new();
    let mut lc_gaps = Vec::new();
    let mut p_first_lookups = std::collections::HashSet::new();
    for (pair, class) in pairing.pairs.iter().zip(classes) {
        let counters = match class {
            ConnClass::LocalCache => &mut lc,
            ConnClass::Prefetched => &mut p,
            _ => continue,
        };
        counters.1 += 1;
        let di = pair.dns.expect("LC/P are paired");
        if *class == ConnClass::Prefetched {
            p_first_lookups.insert(di);
            p_gaps.push(pair.gap.unwrap().as_secs_f64());
        } else {
            lc_gaps.push(pair.gap.unwrap().as_secs_f64());
        }
        if pair.expired {
            counters.0 += 1;
            if let Some(expires) = dns.expires[di] {
                staleness.push(conns.ts[pair.conn].since(expires).as_secs_f64());
            }
        }
    }
    let (unused_lookups, unused_share) = pairing.unused_lookups(dns);
    let speculative_total = unused_lookups + p_first_lookups.len();
    TtlStats {
        lc_violation_share_pct: pct(lc.0, lc.1),
        p_violation_share_pct: pct(p.0, p.1),
        violation_staleness_secs: Ecdf::new(staleness),
        p_use_gap_median_secs: Ecdf::new(p_gaps).median(),
        lc_use_gap_median_secs: Ecdf::new(lc_gaps).median(),
        unused_lookups,
        unused_share_pct: unused_share * 100.0,
        speculative_used_share_pct: pct(p_first_lookups.len(), speculative_total),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pairing::PairingPolicy;
    use zeek_lite::{Answer, ConnState, DnsTransaction, FiveTuple, Proto, Timestamp};

    const HOUSE: Ipv4Addr = Ipv4Addr::new(10, 77, 0, 1);
    const RES_FAST: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 53);
    const SERVER: Ipv4Addr = Ipv4Addr::new(104, 16, 0, 1);

    fn txn(ts_ms: u64, rtt_ms: u64, ttl: u32) -> DnsTransaction {
        DnsTransaction {
            ts: Timestamp::from_millis(ts_ms),
            client: HOUSE,
            resolver: RES_FAST,
            trans_id: 1,
            query: "www.example.com".into(),
            qtype: dns_wire::RrType::A,
            rcode: Some(dns_wire::Rcode::NoError),
            rtt: Some(Duration::from_millis(rtt_ms)),
            answers: vec![Answer::addr(SERVER, ttl)],
        }
    }

    fn conn(ts_ms: u64, dst: Ipv4Addr, orig_port: u16, resp_port: u16) -> ConnRecord {
        ConnRecord {
            uid: ts_ms,
            ts: Timestamp::from_millis(ts_ms),
            id: FiveTuple {
                orig_addr: HOUSE,
                orig_port,
                resp_addr: dst,
                resp_port,
                proto: Proto::Tcp,
            },
            duration: Duration::from_millis(400),
            orig_bytes: 10,
            resp_bytes: 10,
            orig_pkts: 2,
            resp_pkts: 2,
            state: ConnState::SF,
            history: zeek_lite::History::new(),
            service: None,
        }
    }

    fn run(
        conns: &[ConnRecord],
        dns: &[DnsTransaction],
    ) -> (Pairing, Vec<ConnClass>, HashMap<Ipv4Addr, Duration>) {
        let pairing = Pairing::build(conns, dns, PairingPolicy::MostRecent);
        let dns_cols = DnsColumns::from_rows(dns);
        let rule = ThresholdRule { min_lookups: 1, ..ThresholdRule::default() };
        let thr = resolver_thresholds(&dns_cols, rule);
        let classes = classify(
            &dns_cols,
            &pairing,
            Duration::from_millis(100),
            &thr,
            Duration::from_millis(5),
        );
        (pairing, classes, thr)
    }

    #[test]
    fn blocked_fast_lookup_is_sc() {
        // Two lookups so the min anchors at 4 ms; the 4 ms lookup's conn
        // is SC, and a much slower one lands R.
        let dns = vec![txn(0, 4, 300), txn(10_000, 80, 300)];
        let conns = vec![conn(10, SERVER, 50_000, 443), conn(10_085, SERVER, 50_001, 443)];
        let (_, classes, thr) = run(&conns, &dns);
        // Threshold: ceil(4 * 1.3 + 2) = 8 ms.
        assert_eq!(thr[&RES_FAST], Duration::from_millis(8));
        assert_eq!(classes[0], ConnClass::SharedCache);
        assert_eq!(classes[1], ConnClass::Resolution);
    }

    #[test]
    fn non_blocked_first_use_is_prefetched_then_lc() {
        let dns = vec![txn(0, 5, 3_600)];
        let conns = vec![
            conn(30_000, SERVER, 50_000, 443), // 30 s later: first use → P
            conn(60_000, SERVER, 50_001, 443), // second use → LC
        ];
        let (_, classes, _) = run(&conns, &dns);
        assert_eq!(classes[0], ConnClass::Prefetched);
        assert_eq!(classes[1], ConnClass::LocalCache);
    }

    #[test]
    fn unpaired_is_no_dns() {
        let dns = vec![txn(0, 5, 300)];
        let conns = vec![conn(10, Ipv4Addr::new(9, 9, 9, 9), 51_413, 51_413)];
        let (_, classes, _) = run(&conns, &dns);
        assert_eq!(classes[0], ConnClass::NoDns);
    }

    #[test]
    fn class_counts_and_shares() {
        let classes = vec![
            ConnClass::NoDns,
            ConnClass::LocalCache,
            ConnClass::LocalCache,
            ConnClass::SharedCache,
            ConnClass::Resolution,
        ];
        let c = count_classes(&classes);
        assert_eq!(c.total(), 5);
        assert_eq!(c.share_pct(ConnClass::LocalCache), 40.0);
        assert_eq!(c.shared_hit_rate(), 0.5);
        assert_eq!(c.blocked_share_pct(), 40.0);
    }

    #[test]
    fn threshold_rule_respects_floor_and_min_lookups() {
        let dns = DnsColumns::from_rows(&[txn(0, 1, 300)]); // min 1 ms → raw thr 3.3 → floor 5
        let rule = ThresholdRule { min_lookups: 1, ..ThresholdRule::default() };
        let thr = resolver_thresholds(&dns, rule);
        assert_eq!(thr[&RES_FAST], Duration::from_millis(5));
        // Below min_lookups: resolver gets no entry.
        let thr2 = resolver_thresholds(&dns, ThresholdRule::default());
        assert!(thr2.is_empty());
    }

    #[test]
    fn no_dns_breakdown_reports_ports() {
        let dns = vec![txn(0, 5, 300)];
        let conns = vec![
            conn(10, Ipv4Addr::new(58, 1, 2, 3), 51_000, 52_000), // p2p-ish
            conn(20, Ipv4Addr::new(192, 0, 32, 10), 50_000, 123), // hard-coded NTP
            conn(30, Ipv4Addr::new(192, 0, 32, 10), 50_001, 123),
        ];
        let pairing = Pairing::build(&conns, &dns, PairingPolicy::MostRecent);
        let classes = vec![ConnClass::NoDns; 3];
        let b = no_dns_breakdown(&conns, &pairing, &classes);
        assert_eq!(b.total, 3);
        assert_eq!(b.both_high_ports, 1);
        assert_eq!(b.reserved_port_endpoints[0], ((Ipv4Addr::new(192, 0, 32, 10), 123), 2));
        assert_eq!(b.dot_port_conns, 0);
    }

    #[test]
    fn ttl_stats_capture_violations() {
        // TTL 1 s lookup; first conn fresh (P), later conns stale.
        let dns = vec![txn(0, 5, 1)];
        let conns = vec![
            conn(500, SERVER, 50_000, 443),    // fresh, first use → P
            conn(40_000, SERVER, 50_001, 443), // expired → LC violation
        ];
        let (pairing, classes, _) = run(&conns, &dns);
        assert_eq!(classes, vec![ConnClass::Prefetched, ConnClass::LocalCache]);
        let stats = ttl_stats(
            &ConnColumns::from_rows(&conns),
            &DnsColumns::from_rows(&dns),
            &pairing,
            &classes,
        );
        assert_eq!(stats.lc_violation_share_pct, 100.0);
        assert_eq!(stats.p_violation_share_pct, 0.0);
        assert_eq!(stats.violation_staleness_secs.len(), 1);
        // Staleness: conn at 40 s, expiry at 0 + 5 ms + 1 s.
        let s = stats.violation_staleness_secs.samples()[0];
        assert!((s - 38.995).abs() < 1e-6, "staleness {s}");
        assert_eq!(stats.unused_lookups, 0);
        assert_eq!(stats.speculative_used_share_pct, 100.0);
    }
}
