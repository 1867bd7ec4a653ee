//! In-memory spans recorded around the benchmark's calls into each layer,
//! written out as one Chrome trace at the end of a traced run.
//!
//! Spans reuse the timestamps the workload already takes, so recording one
//! costs a vector push; with tracing off nothing is recorded at all.

use gcx_obs::chrome::{ArgValue, TraceBuilder};
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span: a layer call, the span that caused it, and its time.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub cat: &'static str,
    pub tid: u64,
    pub start_us: u64,
    pub dur_us: u64,
    /// Identifier shared with the program under test (the
    /// `X-Gcx-Trace-Id` a request carried), if any.
    pub trace_id: Option<String>,
}

/// Span recorder; `Tracer::new(false)` records nothing.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    t0: Instant,
    next_id: u64,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            next_id: 1,
            spans: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Reserve a span id, so children recorded first can name it.
    pub fn id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Record the span `[start, end)` under a reserved `id`.
    #[allow(clippy::too_many_arguments)]
    pub fn record_as(
        &mut self,
        id: u64,
        parent: u64,
        name: &'static str,
        cat: &'static str,
        tid: u64,
        start: Instant,
        end: Instant,
        trace_id: Option<String>,
    ) {
        if !self.on {
            return;
        }
        let start_us = start.saturating_duration_since(self.t0).as_micros() as u64;
        let dur_us = end.saturating_duration_since(start).as_micros() as u64;
        self.spans.push(Span {
            id,
            parent,
            name,
            cat,
            tid,
            start_us,
            dur_us,
            trace_id,
        });
    }

    /// Record a span with a fresh id; returns the id.
    pub fn record(
        &mut self,
        parent: u64,
        name: &'static str,
        cat: &'static str,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if !self.on {
            return 0;
        }
        let id = self.id();
        self.record_as(id, parent, name, cat, 1, start, end, None);
        id
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total and self time (µs) per span name. A span's self time is its
    /// duration minus the durations of the spans that name it as parent.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut child_us: BTreeMap<u64, u64> = BTreeMap::new();
        for s in &self.spans {
            *child_us.entry(s.parent).or_default() += s.dur_us;
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for s in &self.spans {
            let children = child_us.get(&s.id).copied().unwrap_or(0);
            let e = out.entry(s.name).or_default();
            e.0 += s.dur_us;
            e.1 += s.dur_us.saturating_sub(children);
        }
        out
    }

    /// Serialize every span as a Chrome trace (Perfetto-loadable).
    pub fn chrome(&self) -> String {
        let mut t = TraceBuilder::new();
        let mut tids: Vec<u64> = self.spans.iter().map(|s| s.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        for tid in tids {
            let name = if tid == 1 {
                "benchmark".to_string()
            } else {
                format!("request lane {tid}")
            };
            t.thread_name(tid, &name);
        }
        for s in &self.spans {
            let mut args = vec![
                ("id", ArgValue::U64(s.id)),
                ("parent", ArgValue::U64(s.parent)),
            ];
            if let Some(tr) = &s.trace_id {
                args.push(("trace_id", ArgValue::Str(tr)));
            }
            t.complete(s.name, s.cat, s.start_us, s.dur_us, s.tid, &args);
        }
        t.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let t0 = Instant::now();
        let parent = t.id();
        t.record(parent, "child", "c", t0, t0 + Duration::from_micros(30));
        t.record_as(
            parent,
            0,
            "parent",
            "c",
            1,
            t0,
            t0 + Duration::from_micros(100),
            None,
        );
        let st = t.self_times();
        assert_eq!(st["parent"], (100, 70));
        assert_eq!(st["child"], (30, 30));
        assert!(t.chrome().contains("\"name\":\"parent\""));
        let mut off = Tracer::new(false);
        assert_eq!(off.record(0, "x", "c", t0, t0), 0);
        assert!(off.spans().is_empty());
    }
}
