//! Report rendering: a human bottleneck table and deterministic JSON.
//!
//! Both renderers are pure functions of the [`Report`]; all maps are
//! `BTreeMap`s and floats are printed with fixed precision, so a
//! deterministic trace renders byte-identically — the property the CI
//! stability gate and the golden-file tests rely on.

use crate::Report;
use std::fmt::Write as _;
use trace::json::string as json_string;
use trace::StallCause;

fn percent(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 * 100.0 / whole as f64
    }
}

/// Multi-line human-readable report: run summary, per-core stall
/// attribution, the bottleneck table, the critical path composition,
/// stream occupancy and cache attribution.
pub fn render_human(report: &Report) -> String {
    let unit = report.clock.unit();
    let mut out = String::new();
    let _ = writeln!(out, "== run ==");
    let _ = writeln!(
        out,
        "makespan {} {unit}  iterations {}  jobs {}  reconfigs {}  cores {}",
        report.makespan,
        report.iterations,
        report.jobs,
        report.reconfigs,
        report.cores.len(),
    );
    let busy = report.busy_total();
    let stalled = report.stalled_total();
    let _ = writeln!(
        out,
        "core time: busy {busy} {unit} ({:.1}%)  stalled {stalled} {unit} ({:.1}%)",
        percent(busy, busy + stalled),
        percent(stalled, busy + stalled),
    );

    let _ = writeln!(out, "\n== stall attribution (idle time by cause) ==");
    for (core, stats) in &report.cores {
        let mut parts = Vec::new();
        for cause in StallCause::ALL {
            let t = stats.stalls[cause.index()];
            if t > 0 {
                parts.push(format!("{} {t}", cause.as_str()));
            }
        }
        let _ = writeln!(
            out,
            "core {core}: busy {:>12}  idle {:>12}  {}",
            stats.busy,
            stats.idle(),
            parts.join("  "),
        );
    }
    for cause in StallCause::ALL {
        let t = report.stall_totals[cause.index()];
        if t > 0 {
            let _ = writeln!(
                out,
                "total {:<13} {t:>12} {unit} ({:>5.1}% of stalled time)",
                cause.as_str(),
                percent(t, stalled),
            );
        }
    }

    let cp = &report.critical_path;
    let _ = writeln!(out, "\n== critical path ==");
    let _ = writeln!(
        out,
        "length {} {unit} = busy {} + wait {}  ({} step(s))",
        cp.busy + cp.wait,
        cp.busy,
        cp.wait,
        cp.steps.len(),
    );
    if cp.tail_wait > 0 {
        let _ = writeln!(
            out,
            "  (trailing wait {} {unit}: the run ends in a drain, not a job)",
            cp.tail_wait,
        );
    }
    let mut labels: Vec<_> = cp.per_label.iter().collect();
    labels.sort_by(|a, b| b.1.busy.cmp(&a.1.busy).then(a.0.cmp(b.0)));
    for (label, share) in labels.iter().take(8) {
        let _ = writeln!(
            out,
            "  {label:<28} {:>4} step(s)  {:>12} {unit}  ({:>5.1}% of path)",
            share.steps,
            share.busy,
            percent(share.busy, cp.busy + cp.wait),
        );
    }

    let _ = writeln!(out, "\n== bottleneck components ==");
    let _ = writeln!(
        out,
        "  {:<28} {:>6} {:>12} {:>7} {:>12} {:>7} {:>12} {:>7}",
        "component", "jobs", "busy", "busy%", "cp busy", "cp%", "stall-before", "mem%",
    );
    let mem_total = report.mem_cycles_total();
    for (label, stats) in report.bottlenecks().iter().take(12) {
        let _ = writeln!(
            out,
            "  {label:<28} {:>6} {:>12} {:>6.1}% {:>12} {:>6.1}% {:>12} {:>6.1}%",
            stats.jobs,
            stats.busy,
            percent(stats.busy, busy),
            stats.cp_busy,
            percent(stats.cp_busy, cp.busy + cp.wait),
            stats.stall_before_total(),
            percent(stats.mem_cycles, mem_total),
        );
    }

    if !report.streams.is_empty() {
        let _ = writeln!(out, "\n== stream occupancy (time-weighted) ==");
        for (name, stats) in &report.streams {
            let _ = writeln!(
                out,
                "  {name:<28} mean {:>6.2} slots  max {:>3}  at-capacity {:>12} {unit} \
                 ({:>5.1}% of observed)",
                stats.mean_occupancy(),
                stats.max_slots,
                stats.time_at_max,
                percent(stats.time_at_max, stats.observed),
            );
        }
    }

    if !report.quiesce_windows.is_empty() {
        let _ = writeln!(out, "\n== quiesce windows ==");
        for (i, (begin, end)) in report.quiesce_windows.iter().enumerate() {
            let _ = writeln!(out, "  #{i}: [{begin}, {end}]  {} {unit}", end - begin);
        }
    }
    out
}

/// Deterministic JSON rendering: stable key order (`BTreeMap`), fixed
/// float precision, two-space indentation.
pub fn render_json(report: &Report) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"clock\": {},", json_string(report.clock.unit()));
    let _ = writeln!(out, "  \"makespan\": {},", report.makespan);
    let _ = writeln!(out, "  \"iterations\": {},", report.iterations);
    let _ = writeln!(out, "  \"jobs\": {},", report.jobs);
    let _ = writeln!(out, "  \"reconfigs\": {},", report.reconfigs);
    let _ = writeln!(out, "  \"busy_total\": {},", report.busy_total());
    let _ = writeln!(out, "  \"stalled_total\": {},", report.stalled_total());

    let _ = writeln!(out, "  \"stall_totals\": {{");
    let items: Vec<String> = StallCause::ALL
        .iter()
        .map(|c| {
            format!(
                "    {}: {}",
                json_string(c.as_str()),
                report.stall_totals[c.index()]
            )
        })
        .collect();
    let _ = writeln!(out, "{}\n  }},", items.join(",\n"));

    let _ = writeln!(out, "  \"cores\": {{");
    let items: Vec<String> = report
        .cores
        .iter()
        .map(|(core, stats)| {
            let stalls: Vec<String> = StallCause::ALL
                .iter()
                .map(|c| format!("{}: {}", json_string(c.as_str()), stats.stalls[c.index()]))
                .collect();
            format!(
                "    \"{core}\": {{\"busy\": {}, \"idle\": {}, \"stalls\": {{{}}}}}",
                stats.busy,
                stats.idle(),
                stalls.join(", "),
            )
        })
        .collect();
    let _ = writeln!(out, "{}\n  }},", items.join(",\n"));

    let cp = &report.critical_path;
    let _ = writeln!(out, "  \"critical_path\": {{");
    let _ = writeln!(out, "    \"length\": {},", cp.busy + cp.wait);
    let _ = writeln!(out, "    \"busy\": {},", cp.busy);
    let _ = writeln!(out, "    \"wait\": {},", cp.wait);
    let _ = writeln!(out, "    \"tail_wait\": {},", cp.tail_wait);
    let _ = writeln!(out, "    \"steps\": {},", cp.steps.len());
    let items: Vec<String> = cp
        .per_label
        .iter()
        .map(|(label, share)| {
            format!(
                "      {}: {{\"steps\": {}, \"busy\": {}}}",
                json_string(label),
                share.steps,
                share.busy,
            )
        })
        .collect();
    let _ = writeln!(out, "    \"per_label\": {{");
    let _ = writeln!(out, "{}\n    }},", items.join(",\n"));
    let items: Vec<String> = cp
        .per_iter
        .iter()
        .map(|(iter, share)| {
            format!(
                "      \"{iter}\": {{\"steps\": {}, \"busy\": {}, \"wait\": {}}}",
                share.steps, share.busy, share.wait,
            )
        })
        .collect();
    let _ = writeln!(out, "    \"per_iter\": {{");
    let _ = writeln!(out, "{}\n    }}", items.join(",\n"));
    let _ = writeln!(out, "  }},");

    let mem_total = report.mem_cycles_total();
    let _ = writeln!(out, "  \"components\": {{");
    let items: Vec<String> = report
        .components
        .iter()
        .map(|(label, stats)| {
            let stall_before: Vec<String> = StallCause::ALL
                .iter()
                .map(|c| {
                    format!(
                        "{}: {}",
                        json_string(c.as_str()),
                        stats.stall_before[c.index()]
                    )
                })
                .collect();
            format!(
                "    {}: {{\"jobs\": {}, \"busy\": {}, \"cp_steps\": {}, \"cp_busy\": {}, \
                 \"stall_before\": {{{}}}, \"l1_misses\": {}, \"l2_misses\": {}, \
                 \"mem_cycles\": {}, \"misses_per_job\": {:.3}, \"mem_share\": {:.3}}}",
                json_string(label),
                stats.jobs,
                stats.busy,
                stats.cp_steps,
                stats.cp_busy,
                stall_before.join(", "),
                stats.l1_misses,
                stats.l2_misses,
                stats.mem_cycles,
                stats.misses_per_job(),
                percent(stats.mem_cycles, mem_total) / 100.0,
            )
        })
        .collect();
    let _ = writeln!(out, "{}\n  }},", items.join(",\n"));

    let _ = writeln!(out, "  \"streams\": {{");
    let items: Vec<String> = report
        .streams
        .iter()
        .map(|(name, stats)| {
            let hist: Vec<String> = stats
                .histogram
                .iter()
                .map(|(slots, t)| format!("\"{slots}\": {t}"))
                .collect();
            format!(
                "    {}: {{\"samples\": {}, \"max_slots\": {}, \"time_at_max\": {}, \
                 \"observed\": {}, \"mean_occupancy\": {:.3}, \"histogram\": {{{}}}}}",
                json_string(name),
                stats.samples,
                stats.max_slots,
                stats.time_at_max,
                stats.observed,
                stats.mean_occupancy(),
                hist.join(", "),
            )
        })
        .collect();
    let _ = writeln!(out, "{}\n  }},", items.join(",\n"));

    let items: Vec<String> = report
        .quiesce_windows
        .iter()
        .map(|(begin, end)| format!("    [{begin}, {end}]"))
        .collect();
    let _ = writeln!(out, "  \"quiesce_windows\": [");
    let _ = writeln!(out, "{}\n  ]", items.join(",\n"));
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze;
    use trace::{Clock, SpanKind, StallCause, TraceEvent};

    fn sample_report() -> Report {
        let events = vec![
            TraceEvent::JobSpan {
                label: "dec".into(),
                kind: SpanKind::Component,
                iter: 0,
                core: 0,
                start: 0,
                end: 80,
                cycles: 80,
                cache: Some(trace::CacheDelta {
                    l1_misses: 8,
                    l2_misses: 2,
                    mem_cycles: 30,
                }),
            },
            TraceEvent::CoreStall {
                core: 1,
                cause: StallCause::Starvation,
                start: 0,
                end: 80,
            },
            TraceEvent::JobSpan {
                label: "scale".into(),
                kind: SpanKind::Component,
                iter: 0,
                core: 1,
                start: 80,
                end: 100,
                cycles: 20,
                cache: None,
            },
            TraceEvent::IterationRetired { iter: 0, at: 100 },
            TraceEvent::StreamOccupancy {
                stream: "s".into(),
                live_slots: 2,
                at: 100,
            },
            TraceEvent::CoreStall {
                core: 0,
                cause: StallCause::JobQueueEmpty,
                start: 80,
                end: 100,
            },
        ];
        analyze(&events, Clock::VirtualCycles)
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
    fn human_report_has_all_sections() {
        let text = render_human(&sample_report());
        for section in [
            "== run ==",
            "== stall attribution",
            "== critical path ==",
            "== bottleneck components ==",
            "== stream occupancy",
        ] {
            assert!(text.contains(section), "missing {section}:\n{text}");
        }
        assert!(text.contains("starvation 80"), "{text}");
        assert!(text.contains("dec"), "{text}");
    }

    #[test]
    fn json_is_balanced_and_deterministic() {
        let report = sample_report();
        let a = render_json(&report);
        assert_balanced_json(&a);
        let b = render_json(&sample_report());
        assert_eq!(a, b, "deterministic rendering");
        assert!(a.contains("\"makespan\": 100"), "{a}");
        assert!(a.contains("\"starvation\": 80"), "{a}");
        assert!(a.contains("\"mem_share\": 1.000"), "{a}");
    }

    #[test]
    fn json_handles_empty_report() {
        let report = analyze(&[], Clock::WallNanos);
        let json = render_json(&report);
        assert_balanced_json(&json);
        assert!(json.contains("\"makespan\": 0"));
    }
}
