//! The analysis snapshot as typed counters, written in one place.
//!
//! The batch analysis ([`Tally::batch`]) and the stream engine fold each
//! application connection into a [`Tally`] with the same call and render
//! it with [`Tally::write`], so every `pair.*`, `class.*`, `threshold.*`,
//! `perf.*` and `cover.*` key has one writer. A mid-run stream snapshot
//! renders the tally unsettled: the SC/R split, the thresholds and the
//! acceptance gauges need the whole trace and stay absent until then.

use crate::classify::{ClassCounts, ConnClass};
use crate::pairing::Pairing;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use xkit::obs::{HistSpec, Histogram, Metric, Metrics};
use zeek_lite::{DegradationStats, DnsColumns, Duration};

/// Record `v` ms into a histogram created on first use, as
/// [`Metrics::observe_with`] would.
fn observe(h: &mut Option<Histogram>, v: Duration) {
    h.get_or_insert_with(|| Histogram::new(HistSpec::time_ms())).observe(v.as_millis_f64());
}

/// Pairing outcomes: the `pair.*` keys.
#[derive(Debug, Clone, Default)]
pub(crate) struct PairTally {
    hit: u64,
    fallback: u64,
    miss: u64,
    first_use: u64,
    gap_ms: Option<Histogram>,
}

impl PairTally {
    /// Fold one application connection's pairing (`gap` is `None` when
    /// it paired with no lookup).
    pub(crate) fn record(&mut self, gap: Option<Duration>, expired: bool, first_use: bool) {
        match gap {
            None => self.miss += 1,
            Some(gap) => {
                *if expired { &mut self.fallback } else { &mut self.hit } += 1;
                observe(&mut self.gap_ms, gap);
            }
        }
        self.first_use += u64::from(first_use);
    }

    /// `pair.hit` (non-expired pairing), `pair.fallback` (expired-record
    /// pairing), `pair.miss` (no candidate lookup), `pair.first_use`,
    /// `pair.app_conns`, and the `pair.gap_ms` histogram over
    /// connection-start − lookup-completion gaps.
    pub(crate) fn write(&self, m: &mut Metrics) {
        m.add("pair.hit", self.hit);
        m.add("pair.fallback", self.fallback);
        m.add("pair.miss", self.miss);
        m.add("pair.first_use", self.first_use);
        m.add("pair.app_conns", self.hit + self.fallback + self.miss);
        if let Some(h) = &self.gap_ms {
            m.insert("pair.gap_ms", Metric::Hist(h.clone()));
        }
    }
}

/// What only a finished run knows.
pub struct Settled<'a> {
    /// Upstream acceptance, for the `cover.*` gauges.
    pub degradation: &'a DegradationStats,
    /// Derived per-resolver SC/R thresholds.
    pub thresholds: &'a HashMap<Ipv4Addr, Duration>,
}

/// The analysis snapshot's typed counters.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    pair: PairTally,
    /// Table 2 counts; SC and R are zero until settled by the stream.
    pub(crate) classes: ClassCounts,
    /// Blocked connections (SC, R, or not yet split).
    blocked: u64,
    blocked_dns_ms: Option<Histogram>,
}

impl Tally {
    /// The tally of a batch analysis: every analysed connection, with its
    /// class and its paired lookup's duration from `dns`.
    pub fn batch(pairing: &Pairing, classes: &[ConnClass], dns: &DnsColumns) -> Tally {
        let mut t = Tally::default();
        for (p, &class) in pairing.pairs.iter().zip(classes) {
            let rtt = p.dns.and_then(|di| dns.rtt[di]).unwrap_or(Duration::ZERO);
            t.record(p.gap, p.expired, p.first_use, Some(class), rtt);
        }
        t
    }

    /// Fold one application connection. `class` is `None` for a blocked
    /// connection whose SC/R split the caller settles later; every
    /// blocked connection, split or not, logs its lookup's duration `rtt`.
    pub(crate) fn record(
        &mut self,
        gap: Option<Duration>,
        expired: bool,
        first_use: bool,
        class: Option<ConnClass>,
        rtt: Duration,
    ) {
        self.pair.record(gap, expired, first_use);
        if let Some(class) = class {
            self.classes.add(class, 1);
        }
        if matches!(class, None | Some(ConnClass::SharedCache | ConnClass::Resolution)) {
            self.blocked += 1;
            observe(&mut self.blocked_dns_ms, rtt);
        }
    }

    /// Render into `m`. Unsettled (`None`), the `class.shared_cache`,
    /// `class.resolution`, `threshold.*` and acceptance keys are left
    /// out, so a mid-run snapshot is a prefix of the settled one.
    pub fn write(&self, m: &mut Metrics, settled: Option<Settled<'_>>) {
        let p = &self.pair;
        p.write(m);
        m.add("cover.app_conns", p.hit + p.fallback + p.miss);
        m.add("cover.paired", p.hit + p.fallback);
        let c = &self.classes;
        m.add("class.no_dns", c.no_dns as u64);
        m.add("class.local_cache", c.local_cache as u64);
        m.add("class.prefetched", c.prefetched as u64);
        m.add("perf.blocked_conns", self.blocked);
        if let Some(h) = &self.blocked_dns_ms {
            m.insert("perf.blocked_dns_ms", Metric::Hist(h.clone()));
        }
        let Some(s) = settled else { return };
        m.gauge_max("cover.frame_acceptance", s.degradation.frame_acceptance());
        m.gauge_max("cover.dns_acceptance", s.degradation.dns_acceptance());
        m.add("class.shared_cache", c.shared_cache as u64);
        m.add("class.resolution", c.resolution as u64);
        m.add("threshold.resolvers", s.thresholds.len() as u64);
        // lint: allow(no-map-iteration): one metrics key per map key; Metrics stores sorted
        for (addr, thr) in s.thresholds {
            m.gauge_max(&format!("threshold.{addr}.ms"), thr.as_millis_f64());
        }
    }
}
