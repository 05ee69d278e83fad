//! Exporters: Chrome-trace JSON (Perfetto / `chrome://tracing`) and CSV.
//!
//! Both are pure functions of the event slice, so a deterministic trace
//! (simulation engine) exports byte-identically. They carry the events,
//! not a reading of them: the per-core busy/stall, bottleneck,
//! critical-path and quiesce-window report over the same slice is
//! `insight::analyze`, rendered by `insight::render_human`.

use crate::json::string as json_string;
use crate::{CacheDelta, Clock, StallCause, Time, TraceEvent};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Synthetic Chrome-trace thread id for the scheduler lane (instant
/// events and quiesce windows live there, below the per-core lanes).
const SCHED_TID: u64 = 1_000;

/// Export as Chrome trace-event JSON.
///
/// Open the output in [Perfetto](https://ui.perfetto.dev) or
/// `chrome://tracing`: one lane per core with a span per job (carrying
/// iteration, kind, charged cycles and cache counters in `args`), a
/// scheduler lane with quiesce windows as spans plus instant events for
/// admissions/retirements/DAG swaps/event polls, and one counter track
/// per sampled stream.
///
/// Native-engine timestamps (nanoseconds) are scaled to the microseconds
/// Chrome expects, keeping nanosecond precision via fractional values;
/// virtual cycles are exported 1 cycle = 1 µs so cycle numbers read
/// directly off the Perfetto ruler.
pub fn chrome_trace_json(events: &[TraceEvent], clock: Clock) -> String {
    let ts = |t: Time| -> String {
        match clock {
            Clock::WallNanos => format!("{}.{:03}", t / 1000, t % 1000),
            Clock::VirtualCycles => t.to_string(),
        }
    };
    let mut entries: Vec<String> = Vec::new();
    entries.push(format!(
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
         \"args\":{{\"name\":\"hinch ({})\"}}}}",
        clock.unit()
    ));
    entries.push(format!(
        "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{SCHED_TID},\
         \"args\":{{\"name\":\"scheduler\"}}}}"
    ));
    let mut named_cores: Vec<u32> = Vec::new();
    let mut quiesce_open: Option<Time> = None;
    // Cumulative stalled time per cause, sampled onto one counter track
    // (one series per cause) every time a stall interval closes.
    let mut stall_totals = [0u64; StallCause::ALL.len()];
    // Per-stream occupancy histogram (samples per live-slot count),
    // summarized as instant events at the end of the export.
    let mut occupancy: BTreeMap<&str, BTreeMap<u64, u64>> = BTreeMap::new();
    let mut t_last: Time = 0;
    for event in events {
        t_last = t_last.max(match event {
            TraceEvent::JobSpan { end, .. } | TraceEvent::CoreStall { end, .. } => *end,
            other => other.at(),
        });
        match event {
            TraceEvent::JobSpan {
                label,
                kind,
                iter,
                core,
                start,
                end,
                cycles,
                cache,
            } => {
                if !named_cores.contains(core) {
                    named_cores.push(*core);
                    entries.push(format!(
                        "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{core},\
                         \"args\":{{\"name\":\"core {core}\"}}}}"
                    ));
                }
                let mut args = format!(
                    "\"iteration\":{iter},\"kind\":\"{}\",\"cycles\":{cycles}",
                    kind.as_str()
                );
                if let Some(CacheDelta {
                    l1_misses,
                    l2_misses,
                    mem_cycles,
                }) = cache
                {
                    let _ = write!(
                        args,
                        ",\"l1_misses\":{l1_misses},\"l2_misses\":{l2_misses},\
                         \"mem_cycles\":{mem_cycles}"
                    );
                }
                entries.push(format!(
                    "{{\"name\":{},\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                     \"pid\":0,\"tid\":{core},\"args\":{{{args}}}}}",
                    json_string(label),
                    kind.as_str(),
                    ts(*start),
                    ts(end.saturating_sub(*start)),
                ));
            }
            TraceEvent::QuiesceBegin { at } => quiesce_open = Some(*at),
            TraceEvent::QuiesceEnd { at } => {
                let begin = quiesce_open.take().unwrap_or(*at);
                entries.push(format!(
                    "{{\"name\":\"quiesce\",\"cat\":\"sched\",\"ph\":\"X\",\"ts\":{},\
                     \"dur\":{},\"pid\":0,\"tid\":{SCHED_TID},\
                     \"args\":{{\"drain_resync\":{}}}}}",
                    ts(begin),
                    ts(at.saturating_sub(begin)),
                    at.saturating_sub(begin),
                ));
            }
            TraceEvent::StreamOccupancy {
                stream,
                live_slots,
                at,
            } => {
                *occupancy
                    .entry(stream.as_str())
                    .or_default()
                    .entry(*live_slots)
                    .or_default() += 1;
                entries.push(format!(
                    "{{\"name\":{},\"ph\":\"C\",\"ts\":{},\"pid\":0,\
                     \"args\":{{\"live_slots\":{live_slots}}}}}",
                    json_string(&format!("stream {stream}")),
                    ts(*at),
                ));
            }
            TraceEvent::CoreStall {
                core,
                cause,
                start,
                end,
            } => {
                if !named_cores.contains(core) {
                    named_cores.push(*core);
                    entries.push(format!(
                        "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{core},\
                         \"args\":{{\"name\":\"core {core}\"}}}}"
                    ));
                }
                // The idle interval itself, on the core's lane …
                entries.push(format!(
                    "{{\"name\":{},\"cat\":\"stall\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                     \"pid\":0,\"tid\":{core},\"args\":{{\"cause\":\"{}\"}}}}",
                    json_string(&format!("stall: {}", cause.as_str())),
                    ts(*start),
                    ts(end.saturating_sub(*start)),
                    cause.as_str(),
                ));
                // … and the cumulative per-cause attribution as a counter
                // track (one series per cause).
                stall_totals[cause.index()] += end.saturating_sub(*start);
                let series: Vec<String> = StallCause::ALL
                    .iter()
                    .map(|c| format!("\"{}\":{}", c.as_str(), stall_totals[c.index()]))
                    .collect();
                entries.push(format!(
                    "{{\"name\":\"stalled time\",\"ph\":\"C\",\"ts\":{},\"pid\":0,\
                     \"args\":{{{}}}}}",
                    ts(*end),
                    series.join(","),
                ));
            }
            other => {
                let (name, args) = match other {
                    TraceEvent::IterationAdmitted { iter, .. } => (
                        "iteration admitted".to_string(),
                        format!("\"iteration\":{iter}"),
                    ),
                    TraceEvent::IterationRetired { iter, .. } => (
                        "iteration retired".to_string(),
                        format!("\"iteration\":{iter}"),
                    ),
                    TraceEvent::DagSwap { version, .. } => {
                        ("dag swap".to_string(), format!("\"version\":{version}"))
                    }
                    TraceEvent::ReconfigApplied { plans, grafted, .. } => (
                        "reconfig applied".to_string(),
                        format!("\"plans\":{plans},\"grafted\":{grafted}"),
                    ),
                    TraceEvent::EventPoll {
                        manager, events, ..
                    } => (format!("poll {manager}"), format!("\"events\":{events}")),
                    _ => unreachable!("span/quiesce/occupancy handled above"),
                };
                entries.push(format!(
                    "{{\"name\":{},\"cat\":\"sched\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\
                     \"pid\":0,\"tid\":{SCHED_TID},\"args\":{{{args}}}}}",
                    json_string(&name),
                    ts(other.at()),
                ));
            }
        }
    }
    // Occupancy-histogram summaries: one instant event per sampled
    // stream at the end of the trace, carrying the sample count per
    // live-slot level (hover it in Perfetto to read the distribution).
    for (stream, hist) in &occupancy {
        let buckets: Vec<String> = hist
            .iter()
            .map(|(slots, n)| format!("\"slots_{slots}\":{n}"))
            .collect();
        entries.push(format!(
            "{{\"name\":{},\"cat\":\"sched\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\
             \"pid\":0,\"tid\":{SCHED_TID},\"args\":{{{}}}}}",
            json_string(&format!("occupancy histogram {stream}")),
            ts(t_last),
            buckets.join(","),
        ));
    }
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    out.push_str(&entries.join(",\n"));
    out.push_str("\n]}\n");
    out
}

/// Export every event as one CSV row (for the bench harness / plotting).
pub fn csv(events: &[TraceEvent]) -> String {
    let mut out = String::from(
        "event,label,iter,core,start,end,cycles,l1_misses,l2_misses,mem_cycles,value\n",
    );
    for event in events {
        match event {
            TraceEvent::JobSpan {
                label,
                kind,
                iter,
                core,
                start,
                end,
                cycles,
                cache,
            } => {
                // Cache fields stay empty when no cache model ran, so the
                // importer can round-trip `None` (0,0,0 would be a real
                // measurement).
                let (l1, l2, mem) = match cache {
                    Some(c) => (
                        c.l1_misses.to_string(),
                        c.l2_misses.to_string(),
                        c.mem_cycles.to_string(),
                    ),
                    None => (String::new(), String::new(), String::new()),
                };
                let _ = writeln!(
                    out,
                    "{},{},{iter},{core},{start},{end},{cycles},{l1},{l2},{mem},",
                    kind.as_str(),
                    csv_field(label),
                );
            }
            TraceEvent::IterationAdmitted { iter, at } => {
                let _ = writeln!(out, "admit,,{iter},,{at},{at},,,,,");
            }
            TraceEvent::IterationRetired { iter, at } => {
                let _ = writeln!(out, "retire,,{iter},,{at},{at},,,,,");
            }
            TraceEvent::QuiesceBegin { at } => {
                let _ = writeln!(out, "quiesce_begin,,,,{at},{at},,,,,");
            }
            TraceEvent::QuiesceEnd { at } => {
                let _ = writeln!(out, "quiesce_end,,,,{at},{at},,,,,");
            }
            TraceEvent::DagSwap { version, at } => {
                let _ = writeln!(out, "dag_swap,,,,{at},{at},,,,,{version}");
            }
            TraceEvent::ReconfigApplied { plans, grafted, at } => {
                let _ = writeln!(out, "reconfig,,,,{at},{at},,,,,{plans}+{grafted}");
            }
            TraceEvent::EventPoll {
                manager,
                events,
                at,
            } => {
                let _ = writeln!(out, "poll,{},,,{at},{at},,,,,{events}", csv_field(manager));
            }
            TraceEvent::StreamOccupancy {
                stream,
                live_slots,
                at,
            } => {
                let _ = writeln!(
                    out,
                    "occupancy,{},,,{at},{at},,,,,{live_slots}",
                    csv_field(stream)
                );
            }
            TraceEvent::CoreStall {
                core,
                cause,
                start,
                end,
            } => {
                let _ = writeln!(out, "stall,{},,{core},{start},{end},,,,,", cause.as_str());
            }
        }
    }
    out
}

fn csv_field(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SpanKind;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::IterationAdmitted { iter: 0, at: 0 },
            TraceEvent::JobSpan {
                label: "dec".into(),
                kind: SpanKind::Component,
                iter: 0,
                core: 0,
                start: 0,
                end: 100,
                cycles: 100,
                cache: Some(CacheDelta {
                    l1_misses: 3,
                    l2_misses: 1,
                    mem_cycles: 40,
                }),
            },
            TraceEvent::JobSpan {
                label: "scale".into(),
                kind: SpanKind::Component,
                iter: 0,
                core: 1,
                start: 20,
                end: 60,
                cycles: 40,
                cache: None,
            },
            TraceEvent::CoreStall {
                core: 1,
                cause: StallCause::Starvation,
                start: 60,
                end: 100,
            },
            TraceEvent::EventPoll {
                manager: "m".into(),
                events: 1,
                at: 100,
            },
            TraceEvent::QuiesceBegin { at: 100 },
            TraceEvent::IterationRetired { iter: 0, at: 110 },
            TraceEvent::StreamOccupancy {
                stream: "s".into(),
                live_slots: 2,
                at: 110,
            },
            TraceEvent::ReconfigApplied {
                plans: 1,
                grafted: 2,
                at: 110,
            },
            TraceEvent::DagSwap {
                version: 1,
                at: 110,
            },
            TraceEvent::QuiesceEnd { at: 150 },
        ]
    }

    /// Minimal structural JSON validation: balanced braces/brackets
    /// outside string literals.
    fn assert_balanced_json(s: &str) {
        let (mut depth, mut in_str, mut escape) = (0i64, false, false);
        for c in s.chars() {
            if in_str {
                if escape {
                    escape = false;
                } else if c == '\\' {
                    escape = true;
                } else if c == '"' {
                    in_str = false;
                }
                continue;
            }
            match c {
                '"' => in_str = true,
                '{' | '[' => depth += 1,
                '}' | ']' => {
                    depth -= 1;
                    assert!(depth >= 0, "unbalanced JSON");
                }
                _ => {}
            }
        }
        assert_eq!(depth, 0, "unbalanced JSON");
        assert!(!in_str, "unterminated string");
    }

    #[test]
    fn chrome_trace_is_structurally_valid() {
        let json = chrome_trace_json(&sample_events(), Clock::VirtualCycles);
        assert_balanced_json(&json);
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"name\":\"dec\""));
        assert!(json.contains("\"iteration\":0"));
        assert!(json.contains("\"l1_misses\":3"));
        assert!(json.contains("\"name\":\"quiesce\""));
        assert!(json.contains("\"drain_resync\":50"));
        assert!(json.contains("core 1"));
        assert!(json.contains("\"name\":\"stall: starvation\""));
        assert!(json.contains("\"name\":\"stalled time\""));
        assert!(json.contains("\"starvation\":40"));
        assert!(json.contains("occupancy histogram s"));
        assert!(json.contains("\"slots_2\":1"));
    }

    #[test]
    fn chrome_trace_scales_nanos_to_micros() {
        let events = vec![TraceEvent::JobSpan {
            label: "n".into(),
            kind: SpanKind::Component,
            iter: 0,
            core: 0,
            start: 1500,
            end: 4500,
            cycles: 0,
            cache: None,
        }];
        let json = chrome_trace_json(&events, Clock::WallNanos);
        assert!(json.contains("\"ts\":1.500"), "{json}");
        assert!(json.contains("\"dur\":3.000"), "{json}");
    }

    #[test]
    fn csv_has_one_row_per_event() {
        let events = sample_events();
        let csv = csv(&events);
        assert_eq!(csv.lines().count(), events.len() + 1);
        assert!(csv.starts_with("event,label,"));
        assert!(csv.contains("component,dec,0,0,0,100,100,3,1,40,"));
        assert!(csv.contains("component,scale,0,1,20,60,40,,,,"));
        assert!(csv.contains("occupancy,s,,,110,110,,,,,2"));
        assert!(csv.contains("stall,starvation,,1,60,100,,,,,"));
    }

    #[test]
    fn exports_are_deterministic() {
        let events = sample_events();
        assert_eq!(
            chrome_trace_json(&events, Clock::VirtualCycles),
            chrome_trace_json(&events, Clock::VirtualCycles)
        );
        assert_eq!(csv(&events), csv(&events));
    }
}
