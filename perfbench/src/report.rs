//! The metric catalogue, output checks, and the result line.

use std::collections::BTreeMap;

/// End-to-end metrics: every workload reports every one of them, each
/// read the way its workload defines it (see README.md).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("items_per_s", "items/s"),
    ("lat_p50_ms", "ms"),
    ("lat_tail_ms", "ms"),
    ("peak_mb", "MB"),
];

/// Per-layer metrics of a traced run. A layer the workload does not
/// exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("ccz-sim.run_ms", "ms"),
    ("ccz-sim.allocs", "count"),
    ("ccz-sim.peak_mb", "MB"),
    ("ccz-sim.capture_ms", "ms"),
    ("pcapio.read_ns_per_record", "ns"),
    ("pcapio.ring_ns_per_record", "ns"),
    ("pcapio.ring_producer_wait_ms", "ms"),
    ("pcapio.ring_drops", "count"),
    ("netpkt.parse_ns_per_frame", "ns"),
    ("dns-wire.decode_ns_per_msg", "ns"),
    ("dns-wire.encode_ns_per_msg", "ns"),
    ("dns-wire.allocs_per_msg", "count"),
    ("zeek-lite.frame_ns", "ns"),
    ("zeek-lite.allocs_per_frame", "count"),
    ("zeek-lite.finish_ms", "ms"),
    ("zeek-lite.columns_ms", "ms"),
    ("zeek-lite.peak_active_flows", "count"),
    ("dns-context.pair_ms", "ms"),
    ("dns-context.thresholds_ms", "ms"),
    ("dns-context.classify_ms", "ms"),
    ("dns-context.perf_ms", "ms"),
    ("dns-context.reports_ms", "ms"),
    ("dns-context.pair_hit_share", "share"),
    ("dns-context.stream_frame_ns", "ns"),
    ("dns-context.end_epoch_p50_us", "us"),
    ("dns-context.end_epoch_p99_us", "us"),
    ("dns-context.stream_finish_ms", "ms"),
    ("dns-context.stream_allocs_per_frame", "count"),
    ("dns-context.peak_live_answers", "count"),
    ("dns-context.peak_live_flows", "count"),
    ("cache-sim.offer_ns_per_txn", "ns"),
    ("cache-sim.whole_house_ms", "ms"),
    ("cache-sim.refresh_ms", "ms"),
    ("cache-sim.hit_share", "share"),
    ("xkit.aggregate_ms", "ms"),
    ("xkit.prometheus_ms", "ms"),
    ("xkit.idle_scrape_ms", "ms"),
    ("xkit.pool_efficiency", "share"),
    ("serve.tenant_ms_p50", "ms"),
    ("serve.tenant_ms_max", "ms"),
];

/// Values for one catalogue; names outside it are a bug in the caller.
#[derive(Debug, Clone)]
pub struct MetricSet {
    catalogue: &'static [(&'static str, &'static str)],
    values: BTreeMap<&'static str, f64>,
}

impl MetricSet {
    pub fn new(catalogue: &'static [(&'static str, &'static str)]) -> MetricSet {
        MetricSet { catalogue, values: BTreeMap::new() }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(self.catalogue.iter().any(|(n, _)| *n == name), "metric {name} is not catalogued");
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// `(name, value, unit)` in catalogue order; unset metrics read 0.
    pub fn rows(&self) -> Vec<(&'static str, f64, &'static str)> {
        self.catalogue.iter().map(|&(n, u)| (n, self.get(n), u)).collect()
    }

    /// `{"name": {"value": v, "unit": u}, ...}` in catalogue order.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .rows()
            .into_iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", json_f64(v)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A JSON number with every digit the value has (shortest round trip).
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Output checks of one run: every violation is kept and reported.
#[derive(Debug, Default)]
pub struct Checks {
    violations: Vec<String>,
    passed: u64,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if ok {
            self.passed += 1;
        } else {
            self.violations.push(what());
        }
    }

    /// `left == right`, naming both sides on failure.
    pub fn equal<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, left: T, right: T) {
        let ok = left == right;
        self.check(ok, || format!("{what}: {left:?} != {right:?}"));
    }

    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    pub fn passed(&self) -> u64 {
        self.passed
    }

    pub fn violations(&self) -> &[String] {
        &self.violations
    }
}

/// Operations a workload attempted and how many failed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn fail_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, ops: Ops, metrics: &MetricSet) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        ops.attempted,
        ops.failed,
        metrics.to_json()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_units_fit_the_result_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "{name} is listed twice");
            assert!(
                name.len() <= 64 && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            );
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{name}");
            assert!(unit.len() <= 16);
            assert!(
                unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
        assert!(END_TO_END.contains(&("setup_s", "s")));
    }

    #[test]
    fn the_result_line_parses_and_lists_the_catalogue_in_order() {
        let mut m = MetricSet::new(END_TO_END);
        m.set("setup_s", 0.8127);
        m.set("lat_p50_ms", 1.0 / 3.0);
        let line = result_line(true, Ops { attempted: 3, failed: 0 }, &m);
        let v = xkit::obs::json::parse(&line).expect("result line is JSON");
        let metrics = v.get("metrics").expect("metrics");
        assert_eq!(
            metrics.get("setup_s").and_then(|s| s.get("value")).and_then(|x| x.as_f64()),
            Some(0.8127)
        );
        let third = metrics.get("lat_p50_ms").and_then(|s| s.get("value")).and_then(|x| x.as_f64());
        assert_eq!(third, Some(1.0 / 3.0), "all digits survive");
        assert_eq!(v.get("attempted").and_then(|x| x.as_f64()), Some(3.0));
        let keys: Vec<usize> =
            END_TO_END.iter().map(|(n, _)| line.find(&format!("\"{n}\"")).unwrap()).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    #[should_panic(expected = "not catalogued")]
    fn unknown_metric_names_are_a_bug() {
        MetricSet::new(PER_LAYER).set("no.such_metric", 1.0);
    }

    #[test]
    fn checks_keep_every_violation() {
        let mut c = Checks::default();
        c.equal("a", 1, 1);
        c.equal("b", 1, 2);
        c.check(false, || "c".to_string());
        assert!(!c.ok());
        assert_eq!(c.passed(), 1);
        assert_eq!(c.violations(), ["b: 1 != 2", "c"]);
    }

    #[test]
    fn benchmark_json_names_exactly_this_catalogue() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc = xkit::obs::json::parse(&text).expect("BENCHMARK.json parses");
        for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(|v| v.as_arr())
                .expect(key)
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|x| x.as_str()).expect(f).to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let expected: Vec<(String, String)> =
                catalogue.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
            assert_eq!(listed, expected, "{key}");
        }
    }
}
