//! Analysis input: load a trace back from its CSV export.
//!
//! [`crate::export::csv`] writes one row per event; [`events_from_csv`]
//! is its inverse, so a recorded trace can be saved, committed as a test
//! fixture, or shipped to another machine and analyzed offline (see the
//! `insight` crate's `hinch-insight --csv`). The round-trip is lossless:
//! `events_from_csv(csv(&events)) == events`.

use crate::{CacheDelta, SpanKind, StallCause, TraceEvent};

/// Split one CSV line into fields, honoring `"`-quoting with `""`
/// escapes (the dialect [`crate::export::csv`] emits).
fn split_csv(line: &str) -> Result<Vec<String>, String> {
    let mut fields = Vec::new();
    let mut field = String::new();
    let mut chars = line.chars().peekable();
    let mut quoted = false;
    while let Some(c) = chars.next() {
        match c {
            '"' if field.is_empty() && !quoted => quoted = true,
            '"' if quoted => {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    field.push('"');
                } else {
                    quoted = false;
                }
            }
            ',' if !quoted => fields.push(std::mem::take(&mut field)),
            c => field.push(c),
        }
    }
    if quoted {
        return Err("unterminated quoted field".into());
    }
    fields.push(field);
    Ok(fields)
}

fn num(fields: &[String], idx: usize, what: &str) -> Result<u64, String> {
    let raw = fields
        .get(idx)
        .ok_or_else(|| format!("missing field '{what}' (column {idx})"))?;
    raw.parse::<u64>()
        .map_err(|e| format!("bad {what} '{raw}': {e}"))
}

fn opt_num(fields: &[String], idx: usize, what: &str) -> Result<Option<u64>, String> {
    match fields.get(idx).map(String::as_str) {
        None | Some("") => Ok(None),
        Some(raw) => raw
            .parse::<u64>()
            .map(Some)
            .map_err(|e| format!("bad {what} '{raw}': {e}")),
    }
}

fn field<'a>(fields: &'a [String], idx: usize, what: &str) -> Result<&'a str, String> {
    fields
        .get(idx)
        .map(String::as_str)
        .ok_or_else(|| format!("missing field '{what}' (column {idx})"))
}

/// Parse one exported CSV row (no header) back into a [`TraceEvent`].
fn parse_row(fields: &[String]) -> Result<TraceEvent, String> {
    let event = field(fields, 0, "event")?;
    Ok(match event {
        "component" | "mgr_entry" | "mgr_exit" => {
            let kind = match event {
                "component" => SpanKind::Component,
                "mgr_entry" => SpanKind::ManagerEntry,
                _ => SpanKind::ManagerExit,
            };
            let l1 = opt_num(fields, 7, "l1_misses")?;
            let l2 = opt_num(fields, 8, "l2_misses")?;
            let mem = opt_num(fields, 9, "mem_cycles")?;
            let cache = match (l1, l2, mem) {
                (None, None, None) => None,
                _ => Some(CacheDelta {
                    l1_misses: l1.unwrap_or(0),
                    l2_misses: l2.unwrap_or(0),
                    mem_cycles: mem.unwrap_or(0),
                }),
            };
            TraceEvent::JobSpan {
                label: field(fields, 1, "label")?.to_string(),
                kind,
                iter: num(fields, 2, "iter")?,
                core: num(fields, 3, "core")? as u32,
                start: num(fields, 4, "start")?,
                end: num(fields, 5, "end")?,
                cycles: num(fields, 6, "cycles")?,
                cache,
            }
        }
        "admit" => TraceEvent::IterationAdmitted {
            iter: num(fields, 2, "iter")?,
            at: num(fields, 4, "start")?,
        },
        "retire" => TraceEvent::IterationRetired {
            iter: num(fields, 2, "iter")?,
            at: num(fields, 4, "start")?,
        },
        "quiesce_begin" => TraceEvent::QuiesceBegin {
            at: num(fields, 4, "start")?,
        },
        "quiesce_end" => TraceEvent::QuiesceEnd {
            at: num(fields, 4, "start")?,
        },
        "dag_swap" => TraceEvent::DagSwap {
            version: num(fields, 10, "version")?,
            at: num(fields, 4, "start")?,
        },
        "reconfig" => {
            let value = field(fields, 10, "plans+grafted")?;
            let (plans, grafted) = value
                .split_once('+')
                .ok_or_else(|| format!("bad reconfig value '{value}' (want plans+grafted)"))?;
            TraceEvent::ReconfigApplied {
                plans: plans
                    .parse()
                    .map_err(|e| format!("bad plans '{plans}': {e}"))?,
                grafted: grafted
                    .parse()
                    .map_err(|e| format!("bad grafted '{grafted}': {e}"))?,
                at: num(fields, 4, "start")?,
            }
        }
        "poll" => TraceEvent::EventPoll {
            manager: field(fields, 1, "manager")?.to_string(),
            events: num(fields, 10, "events")?,
            at: num(fields, 4, "start")?,
        },
        "occupancy" => TraceEvent::StreamOccupancy {
            stream: field(fields, 1, "stream")?.to_string(),
            live_slots: num(fields, 10, "live_slots")?,
            at: num(fields, 4, "start")?,
        },
        "stall" => {
            let cause = field(fields, 1, "cause")?;
            TraceEvent::CoreStall {
                core: num(fields, 3, "core")? as u32,
                cause: StallCause::parse(cause)
                    .ok_or_else(|| format!("unknown stall cause '{cause}'"))?,
                start: num(fields, 4, "start")?,
                end: num(fields, 5, "end")?,
            }
        }
        other => return Err(format!("unknown event type '{other}'")),
    })
}

/// Parse a trace exported by [`crate::export::csv`] back into events.
///
/// The header row is required (it documents the column layout and guards
/// against feeding arbitrary CSVs in); trailing blank lines are ignored.
pub fn events_from_csv(text: &str) -> Result<Vec<TraceEvent>, String> {
    let mut lines = text.lines().enumerate();
    match lines.next() {
        Some((_, header)) if header.starts_with("event,label,") => {}
        _ => return Err("not a hinch trace CSV (missing 'event,label,...' header)".into()),
    }
    let mut events = Vec::new();
    for (lineno, line) in lines {
        if line.trim().is_empty() {
            continue;
        }
        let fields = split_csv(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        events.push(parse_row(&fields).map_err(|e| format!("line {}: {e}", lineno + 1))?);
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::csv;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::IterationAdmitted { iter: 0, at: 0 },
            TraceEvent::JobSpan {
                label: "a,b\"c".into(),
                kind: SpanKind::Component,
                iter: 0,
                core: 0,
                start: 0,
                end: 10,
                cycles: 10,
                cache: Some(CacheDelta {
                    l1_misses: 3,
                    l2_misses: 1,
                    mem_cycles: 40,
                }),
            },
            TraceEvent::JobSpan {
                label: "plain".into(),
                kind: SpanKind::ManagerEntry,
                iter: 1,
                core: 2,
                start: 12,
                end: 13,
                cycles: 1,
                cache: None,
            },
            TraceEvent::CoreStall {
                core: 1,
                cause: StallCause::Backpressure,
                start: 0,
                end: 12,
            },
            TraceEvent::EventPoll {
                manager: "m".into(),
                events: 2,
                at: 13,
            },
            TraceEvent::QuiesceBegin { at: 13 },
            TraceEvent::IterationRetired { iter: 0, at: 14 },
            TraceEvent::StreamOccupancy {
                stream: "s".into(),
                live_slots: 2,
                at: 14,
            },
            TraceEvent::ReconfigApplied {
                plans: 1,
                grafted: 3,
                at: 14,
            },
            TraceEvent::DagSwap { version: 1, at: 14 },
            TraceEvent::QuiesceEnd { at: 20 },
        ]
    }

    #[test]
    fn csv_round_trips() {
        let events = sample_events();
        let parsed = events_from_csv(&csv(&events)).expect("parse");
        assert_eq!(parsed, events);
    }

    #[test]
    fn rejects_non_trace_input() {
        assert!(events_from_csv("hello\nworld\n").is_err());
        assert!(events_from_csv("").is_err());
    }

    #[test]
    fn reports_line_numbers() {
        let text = "event,label,iter,core,start,end,cycles,l1_misses,l2_misses,mem_cycles,value\n\
                    admit,,0,,0,0,,,,,\n\
                    bogus,,,,,,,,,,\n";
        let err = events_from_csv(text).unwrap_err();
        assert!(err.contains("line 3"), "{err}");
        assert!(err.contains("unknown event type 'bogus'"), "{err}");
    }

    #[test]
    fn split_handles_quotes() {
        assert_eq!(
            split_csv("a,\"b,\"\"c\",d").unwrap(),
            vec!["a".to_string(), "b,\"c".into(), "d".into()]
        );
        assert!(split_csv("\"open").is_err());
    }
}
