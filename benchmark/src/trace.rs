//! The traced run's span recorder: spans around the benchmark's own calls
//! into each layer, kept in memory and written once at the end as
//! Chrome-trace JSON (loadable in Perfetto) plus a self-time table.

use std::collections::BTreeMap;
use std::fmt::Write;
use std::time::{Duration, Instant};

/// One finished span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer call, e.g. `core.normal`; the root span of a query is `query`.
    pub name: &'static str,
    /// Start, µs since the run's epoch.
    pub start_us: f64,
    /// Duration, µs.
    pub dur_us: f64,
    /// Index of the enclosing span within the same query, if any.
    pub parent: Option<usize>,
    /// The query (its position in the run).
    pub query: usize,
}

/// Records the spans of one query.
pub struct Recorder {
    epoch: Instant,
    query: usize,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder for query number `query`.
    pub fn new(epoch: Instant, query: usize) -> Recorder {
        Recorder {
            epoch,
            query,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`, nested in the innermost open
    /// span; returns its result and duration.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> (T, Duration) {
        let index = self.spans.len();
        let start = Instant::now();
        self.spans.push(Span {
            name,
            start_us: start.duration_since(self.epoch).as_secs_f64() * 1e6,
            dur_us: 0.0,
            parent: self.open.last().copied(),
            query: self.query,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        let elapsed = start.elapsed();
        self.spans[index].dur_us = elapsed.as_secs_f64() * 1e6;
        (out, elapsed)
    }

    /// The finished spans.
    pub fn finish(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time per span name: total time minus the time its direct
/// children cover, with call counts.  Spans come grouped per query.
pub fn self_times(queries: &[Vec<Span>]) -> BTreeMap<&'static str, (u64, f64, f64)> {
    let mut table: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
    for spans in queries {
        let mut child_time = vec![0.0; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_time[p] += s.dur_us;
            }
        }
        for (s, children) in spans.iter().zip(child_time) {
            let row = table.entry(s.name).or_default();
            row.0 += 1;
            row.1 += s.dur_us / 1e3;
            row.2 += (s.dur_us - children).max(0.0) / 1e3;
        }
    }
    table
}

/// Renders the self-time table.
pub fn render_self_times(table: &BTreeMap<&'static str, (u64, f64, f64)>) -> String {
    let mut out = String::from("span                         calls    total_ms     self_ms\n");
    for (name, (calls, total, own)) in table {
        let _ = writeln!(out, "{name:<26} {calls:>8} {total:>11.3} {own:>11.3}");
    }
    out
}

/// Chrome trace-event JSON: one complete (`X`) event per span, the query
/// id and parent span in `args`.
pub fn chrome_json(queries: &[Vec<Span>], ids: &[String]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    for spans in queries {
        for (i, s) in spans.iter().enumerate() {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let parent = match s.parent {
                Some(p) => format!("\"{}#{p}\"", s.query),
                None => "null".to_string(),
            };
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":\"{}#{i}\",\"parent\":{parent},\"query\":\"{}\"}}}}",
                s.name, s.start_us, s.dur_us, s.query, ids[s.query]
            );
        }
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let span = |name, dur_us, parent| Span {
            name,
            start_us: 0.0,
            dur_us,
            parent,
            query: 0,
        };
        let q = vec![
            span("query", 10_000.0, None),
            span("core.normal", 2_000.0, Some(0)),
            span("core.solver", 7_000.0, Some(0)),
            span("lia.solve", 3_000.0, Some(2)),
        ];
        let table = self_times(&[q]);
        assert_eq!(table["query"], (1, 10.0, 1.0));
        assert_eq!(table["core.solver"], (1, 7.0, 4.0));
        assert_eq!(table["lia.solve"], (1, 3.0, 3.0));
    }

    #[test]
    fn recorder_nests_and_exports() {
        let epoch = Instant::now();
        let mut rec = Recorder::new(epoch, 0);
        rec.span("query", |rec| {
            rec.span("core.normal", |_| ());
        });
        let spans = rec.finish();
        assert_eq!(spans[1].parent, Some(0));
        let json = chrome_json(&[spans], &["q0".to_string()]);
        assert!(json.contains("\"name\":\"core.normal\""));
        assert!(json.contains("\"parent\":\"0#0\""));
    }
}
