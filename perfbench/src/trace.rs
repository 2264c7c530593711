//! Spans recorded by the benchmark around each public layer call.
//!
//! A span has a name, a start and an end, the span that caused it, the
//! id of the iteration it belongs to, and the heap allocations made
//! while it was open. Spans stay in memory and are written once, at the
//! end of the run, as a Chrome trace. A disabled tracer records nothing,
//! so untraced runs pay one branch per call site.

use std::collections::BTreeMap;
use std::time::Instant;
use xkit::bench::alloc;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Iteration id shared by every span of one iteration.
    pub iter: u64,
    /// Allocation events while the span was open (children included).
    pub allocs: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle to an open span.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    iter: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            // Room for a traced run's spans up front, so that growing the
            // log does not land in the heap peaks it measures.
            spans: Vec::with_capacity(if enabled { 1 << 18 } else { 0 }),
            stack: Vec::new(),
            iter: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tag every span opened from now on with iteration `iter`.
    pub fn set_iter(&mut self, iter: u64) {
        self.iter = iter;
    }

    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.stack.last().copied(),
            iter: self.iter,
            allocs: alloc::snapshot().allocs,
        });
        self.stack.push(idx);
        self.spans[idx].start_ns = self.now_ns();
        SpanId(Some(idx))
    }

    pub fn end(&mut self, id: SpanId) {
        let Some(idx) = id.0 else { return };
        let end_ns = self.now_ns();
        let allocs = alloc::snapshot().allocs;
        let span = &mut self.spans[idx];
        span.end_ns = end_ns;
        span.allocs = allocs - span.allocs;
        if let Some(pos) = self.stack.iter().rposition(|&i| i == idx) {
            self.stack.truncate(pos);
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.begin(name);
        let out = f(self);
        self.end(id);
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span named `name`, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns() as f64 / 1e6).collect()
    }

    /// Allocation counts of every span named `name`.
    pub fn allocs(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.allocs as f64).collect()
    }

    /// Chrome trace-event JSON (complete `X` events, microseconds).
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&format!(
                "{{\"name\": {}, \"ph\": \"X\", \"ts\": {}, \"dur\": {}, \"pid\": 1, \"tid\": 1, \
                 \"args\": {{\"span\": {i}, \"parent\": {}, \"iter\": {}, \"allocs\": {}}}}}",
                xkit::bench::json_string(s.name),
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.iter,
                s.allocs,
            ));
        }
        out.push_str("\n]\n");
        out
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| {
            let mut covered: Vec<(u64, u64)> = kids
                .iter()
                .map(|&k| (spans[k].start_ns.max(s.start_ns), spans[k].end_ns.min(s.end_ns)))
                .filter(|(a, b)| b > a)
                .collect();
            covered.sort_unstable();
            let mut total = 0;
            let mut reach = s.start_ns;
            for (a, b) in covered {
                let a = a.max(reach);
                if b > a {
                    total += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - total
        })
        .collect()
}

/// Per-name totals over a run's spans.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ms: f64,
    pub self_ms: f64,
    pub allocs: u64,
    pub self_allocs: u64,
}

/// Totals per span name: count, wall and self time, allocations and
/// self allocations (span minus its direct children).
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let selfs = self_times(spans);
    let mut child_allocs = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_allocs[p] += s.allocs;
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ms += s.dur_ns() as f64 / 1e6;
        t.self_ms += selfs[i] as f64 / 1e6;
        t.allocs += s.allocs;
        t.self_allocs += s.allocs.saturating_sub(child_allocs[i]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, iter: 0, allocs: 0 }
    }

    #[test]
    fn self_time_is_span_minus_child_coverage() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 50, 90, Some(0)),
            span("b.inner", 60, 70, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 30, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("root", 100, 200, None),
            span("a", 90, 150, Some(0)),
            span("b", 140, 160, Some(0)),
            span("c", 190, 260, Some(0)),
        ];
        // Covered: [100,160) and [190,200) = 70 of 100.
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn tracer_nests_tags_and_totals() {
        let mut tr = Tracer::new(true);
        tr.set_iter(7);
        tr.span("outer", |tr| {
            tr.span("inner", |_| std::hint::black_box(vec![1u8; 64]));
            tr.span("inner", |_| ());
        });
        let spans = tr.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.iter == 7 && s.end_ns >= s.start_ns));
        let totals = totals_by_name(spans);
        assert_eq!(totals["inner"].count, 2);
        assert!(totals["outer"].self_ms <= totals["outer"].total_ms);
        let trace = tr.to_chrome_trace();
        assert_eq!(xkit::obs::json::parse(&trace).map(|v| v.as_arr().map(<[_]>::len)), Ok(Some(3)));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        assert_eq!(tr.span("x", |_| 5), 5);
        assert!(tr.spans().is_empty());
    }
}
