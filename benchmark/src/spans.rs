//! In-memory spans around the harness's own calls into each layer,
//! recorded only in the traced pass and written out when it ends. No
//! instrumentation lives inside any crate; a span here is "the harness
//! called this public function and it took this long".

use std::collections::BTreeMap;
use std::time::Instant;

/// Handle of an open or closed span (index into the recorder).
pub type SpanId = usize;

struct Span {
    name: String,
    start_us: f64,
    end_us: f64,
    parent: Option<SpanId>,
    /// Frame or run number the span belongs to; spans of one request
    /// share it.
    id: u64,
}

pub struct Spans {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
}

/// Count, total and self time of every span sharing a name.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_us: f64,
    pub self_us: f64,
}

impl Spans {
    /// A recorder that drops everything unless `enabled`: the end-to-end
    /// pass runs the same code with tracing off.
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn us(&self, at: Instant) -> f64 {
        at.duration_since(self.t0).as_secs_f64() * 1e6
    }

    /// Open a span that started at `start`.
    pub fn enter_at(
        &mut self,
        name: impl Into<String>,
        start: Instant,
        parent: Option<SpanId>,
        id: u64,
    ) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let start_us = self.us(start);
        self.spans.push(Span {
            name: name.into(),
            start_us,
            end_us: start_us,
            parent,
            id,
        });
        self.spans.len() - 1
    }

    pub fn enter(&mut self, name: impl Into<String>, parent: Option<SpanId>, id: u64) -> SpanId {
        self.enter_at(name, Instant::now(), parent, id)
    }

    pub fn exit_at(&mut self, span: SpanId, end: Instant) {
        if self.enabled {
            self.spans[span].end_us = self.us(end);
        }
    }

    pub fn exit(&mut self, span: SpanId) {
        self.exit_at(span, Instant::now());
    }

    /// Time `f` as a span.
    pub fn time<T>(
        &mut self,
        name: impl Into<String>,
        parent: Option<SpanId>,
        id: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.enter(name, parent, id);
        let out = f();
        self.exit(span);
        out
    }

    /// Self time of every span: its duration minus the part of that
    /// interval its children cover (overlapping children count once).
    fn self_times(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                let lo = s.start_us.max(parent.start_us);
                let hi = s.end_us.min(parent.end_us);
                if hi > lo {
                    children[p].push((lo, hi));
                }
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_by(|a, b| a.0.total_cmp(&b.0));
                let mut covered = 0.0;
                let mut reach = s.start_us;
                for &(lo, hi) in kids.iter() {
                    if hi > reach {
                        covered += hi - lo.max(reach);
                        reach = hi;
                    }
                }
                (s.end_us - s.start_us) - covered
            })
            .collect()
    }

    /// Totals per span name; names that end in a number (`run/3`,
    /// `frame/pip1/17`) are folded into their stem.
    pub fn totals(&self) -> BTreeMap<String, NameTotals> {
        let mut out: BTreeMap<String, NameTotals> = BTreeMap::new();
        for (s, self_us) in self.spans.iter().zip(self.self_times()) {
            let stem = match s.name.rsplit_once('/') {
                Some((stem, last)) if last.bytes().all(|b| b.is_ascii_digit()) => stem,
                _ => s.name.as_str(),
            };
            let t = out.entry(stem.to_string()).or_default();
            t.count += 1;
            t.total_us += s.end_us - s.start_us;
            t.self_us += self_us;
        }
        out
    }

    /// The spans as a JSON array, one object each.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1},\"parent\":{},\"id\":{}}}",
                    s.name,
                    s.start_us,
                    s.end_us,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.id
                )
            })
            .collect();
        format!("[\n{}\n]\n", rows.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let mut s = Spans::new(true);
        let t0 = s.t0;
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let frame = s.enter_at("frame/pip1/0", at(0), None, 0);
        let submit = s.enter_at("client/submit", at(0), Some(frame), 0);
        s.exit_at(submit, at(40));
        // Two overlapping polls: 50..80 and 70..90 cover 40 ms, not 50.
        let a = s.enter_at("client/stats", at(50), Some(frame), 0);
        s.exit_at(a, at(80));
        let b = s.enter_at("client/stats", at(70), Some(frame), 0);
        s.exit_at(b, at(90));
        s.exit_at(frame, at(100));

        let totals = s.totals();
        let frame = totals["frame/pip1"];
        assert_eq!(frame.count, 1);
        assert!((frame.total_us - 100_000.0).abs() < 1.0);
        assert!((frame.self_us - 20_000.0).abs() < 1.0, "{frame:?}");
        assert_eq!(totals["client/stats"].count, 2);
        assert!((totals["client/stats"].self_us - 50_000.0).abs() < 1.0);
        assert!(s.to_json().contains("\"name\":\"client/submit\""));
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut s = Spans::new(false);
        let id = s.enter("run/0", None, 0);
        s.exit(id);
        assert_eq!(s.time("kernel/blend", None, 0, || 7), 7);
        assert!(s.totals().is_empty());
    }
}
