//! Structural invariants of flight-recorder traces from both engines.
//!
//! The recorder itself is unit-tested in `crates/trace`; these tests run
//! the real applications and check the *engines* emit well-formed traces:
//! per-core spans never overlap and progress monotonically, simulation
//! traces (and their exports) are byte-identical across runs, and every
//! quiesce window opened by a reconfiguration is closed exactly once.

use apps::experiment::{run_sim_traced, run_threads_traced, App, AppConfig};
use hinch::trace::export::{chrome_trace_json, csv};
use hinch::trace::{check_invariants, Clock, TraceEvent};
use std::collections::HashMap;

fn count<F: Fn(&TraceEvent) -> bool>(events: &[TraceEvent], pred: F) -> usize {
    events.iter().filter(|e| pred(e)).count()
}

#[test]
fn native_trace_is_well_formed() {
    let cfg = AppConfig::small(App::Pip1).frames(8);
    let (report, recorder) = run_threads_traced(cfg, 4);
    assert_eq!(recorder.clock(), Clock::WallNanos);
    let events = recorder.events();

    // Per-core spans never overlap, timestamps are monotonic per core.
    check_invariants(&events).expect("native trace invariants");

    // Every executed job left exactly one span.
    let spans = count(&events, |e| matches!(e, TraceEvent::JobSpan { .. }));
    assert_eq!(spans as u64, report.jobs_executed);

    // Every frame was admitted once and retired once.
    let mut admitted: HashMap<u64, usize> = HashMap::new();
    let mut retired: HashMap<u64, usize> = HashMap::new();
    for e in &events {
        match e {
            TraceEvent::IterationAdmitted { iter, .. } => *admitted.entry(*iter).or_default() += 1,
            TraceEvent::IterationRetired { iter, .. } => *retired.entry(*iter).or_default() += 1,
            _ => {}
        }
    }
    for iter in 0..cfg.frames {
        assert_eq!(
            admitted.get(&iter),
            Some(&1),
            "iteration {iter} admitted once"
        );
        assert_eq!(
            retired.get(&iter),
            Some(&1),
            "iteration {iter} retired once"
        );
    }
}

/// Two traces, and everything exported from them, are identical.
fn assert_same_traces(first: &[TraceEvent], second: &[TraceEvent]) {
    assert!(!first.is_empty());
    assert_eq!(
        first, second,
        "sim traces must be byte-identical across runs"
    );
    assert_eq!(
        chrome_trace_json(first, Clock::VirtualCycles),
        chrome_trace_json(second, Clock::VirtualCycles)
    );
    assert_eq!(csv(first), csv(second));
    let render = |events: &[TraceEvent]| {
        insight::render_human(&insight::analyze(events, Clock::VirtualCycles))
    };
    assert_eq!(render(first), render(second));
}

#[test]
fn sim_trace_and_exports_are_deterministic() {
    // A media app on the SpaceCAKE machine, built afresh for each run: the
    // cache model's timings depend on the run alone. Paper-scale PiP-1,
    // whose planes are pages long, is where a layout that moved with the
    // process would show.
    let media_run = || {
        run_sim_traced(AppConfig::paper(App::Pip1).frames(3), 2)
            .1
            .events()
    };
    assert_same_traces(&media_run(), &media_run());

    // Charge-only components on a `NullPlatform` exercise the engine's
    // whole trace path with no cache model in the way.
    use hinch::component::{Component, Params, RunCtx};
    use hinch::engine::{run_sim, RunConfig};
    use hinch::graph::{factory, ComponentSpec, GraphSpec};
    use hinch::meter::NullPlatform;
    use hinch::trace::{Clock as TClock, Recorder};

    struct Work(u64);
    impl Component for Work {
        fn class(&self) -> &'static str {
            "work"
        }
        fn run(&mut self, ctx: &mut RunCtx<'_>) {
            ctx.charge(self.0);
        }
    }
    let spec = GraphSpec::seq(
        (0..4u64)
            .map(|i| {
                GraphSpec::Leaf(ComponentSpec::new(
                    format!("n{i}"),
                    "work",
                    factory(
                        move |_p: &Params| -> Box<dyn Component> { Box::new(Work(10 + i * 5)) },
                        Params::new(),
                    ),
                ))
            })
            .collect(),
    );
    let run = || {
        let recorder = Recorder::new(TClock::VirtualCycles);
        let cfg = RunConfig::new(12).pipeline_depth(3).trace(recorder.sink());
        let mut platform = NullPlatform::new(3);
        run_sim(&spec, &cfg, &mut platform).expect("sim run");
        recorder.events()
    };
    assert_same_traces(&run(), &run());
}

#[test]
fn sim_trace_is_well_formed_and_exports_chrome_json() {
    let cfg = AppConfig::small(App::Pip1).frames(6);
    let (report, recorder) = run_sim_traced(cfg, 3);
    assert_eq!(recorder.clock(), Clock::VirtualCycles);
    let events = recorder.events();
    check_invariants(&events).expect("sim trace invariants");
    assert_eq!(
        count(&events, |e| matches!(e, TraceEvent::JobSpan { .. })) as u64,
        report.jobs_executed
    );

    // The Chrome export carries node / iteration / core metadata.
    let json = chrome_trace_json(&events, recorder.clock());
    assert!(json.contains("\"traceEvents\""));
    assert!(json.contains("\"process_name\""));
    assert!(json.contains("\"thread_name\""));
    assert!(json.contains("\"iteration\""));
    // Braces/brackets balance (the exporter has a structural validator in
    // its unit tests; this is a cheap end-to-end sanity check).
    let opens = json.matches('{').count() + json.matches('[').count();
    let closes = json.matches('}').count() + json.matches(']').count();
    assert_eq!(opens, closes);
}

#[test]
fn reconfiguring_run_pairs_every_quiesce_window() {
    // PiP-12 toggles the second picture every 12 frames; 30 frames see at
    // least two quiesce (drain + resync) windows.
    let cfg = AppConfig::small(App::Pip12).frames(30);
    let (report, recorder) = run_sim_traced(cfg, 2);
    assert!(
        report.reconfigs >= 1,
        "expected reconfigurations, got {}",
        report.reconfigs
    );
    let events = recorder.events();
    check_invariants(&events).expect("reconfig trace invariants");

    let begins = count(&events, |e| matches!(e, TraceEvent::QuiesceBegin { .. }));
    let ends = count(&events, |e| matches!(e, TraceEvent::QuiesceEnd { .. }));
    let swaps = count(&events, |e| matches!(e, TraceEvent::DagSwap { .. }));
    let applies = count(&events, |e| matches!(e, TraceEvent::ReconfigApplied { .. }));
    assert!(begins >= 1, "no quiesce window recorded");
    assert_eq!(
        begins, ends,
        "every quiesce-begin needs a matching quiesce-end"
    );
    assert_eq!(
        swaps, applies,
        "one DAG swap per applied reconfiguration batch"
    );

    // Quiesce windows have positive width: the resync barrier lies after
    // the drain point.
    let mut open: Option<u64> = None;
    for e in &events {
        match e {
            TraceEvent::QuiesceBegin { at } => open = Some(*at),
            TraceEvent::QuiesceEnd { at } => {
                let began = open.take().expect("end without begin");
                assert!(
                    *at >= began,
                    "quiesce window ends ({at}) before it began ({began})"
                );
            }
            _ => {}
        }
    }

    // The insight report surfaces the windows (Fig. 10's overhead).
    let analysis = insight::analyze(&events, recorder.clock());
    assert_eq!(analysis.quiesce_windows.len(), begins);
    let text = insight::render_human(&analysis);
    assert!(
        text.contains("== quiesce windows =="),
        "report should list the quiesce windows:\n{text}"
    );
}

#[test]
fn csv_export_round_trips_a_full_reconfiguring_trace() {
    // A reconfiguring run on the cache-modelled sim platform produces the
    // richest event mix: job spans, core stalls, cache deltas, quiesce
    // windows, DAG swaps and applied reconfigurations. The CSV exporter
    // and `trace::input` parser must agree losslessly on all of them.
    let cfg = AppConfig::small(App::Pip12).frames(30);
    let (report, recorder) = run_sim_traced(cfg, 2);
    assert!(report.reconfigs >= 1);
    let events = recorder.events();
    assert!(
        count(&events, |e| matches!(e, TraceEvent::CoreStall { .. })) > 0,
        "expected CoreStall events in a 2-core run"
    );
    assert!(
        count(&events, |e| matches!(
            e,
            TraceEvent::JobSpan { cache: Some(_), .. }
        )) > 0,
        "expected cache-delta-carrying spans on the Machine platform"
    );
    assert!(
        count(&events, |e| matches!(e, TraceEvent::ReconfigApplied { .. })) > 0,
        "expected ReconfigApplied events from the toggle"
    );

    let text = csv(&events);
    let parsed = hinch::trace::input::events_from_csv(&text).expect("parse exported CSV");
    assert_eq!(parsed, events, "CSV round-trip must be lossless");
}

#[test]
fn native_reconfiguring_run_pairs_quiesce_windows_too() {
    let cfg = AppConfig::small(App::Pip12).frames(30);
    let (report, recorder) = run_threads_traced(cfg, 2);
    assert!(report.reconfigs >= 1);
    let events = recorder.events();
    check_invariants(&events).expect("native reconfig trace invariants");
    let begins = count(&events, |e| matches!(e, TraceEvent::QuiesceBegin { .. }));
    let ends = count(&events, |e| matches!(e, TraceEvent::QuiesceEnd { .. }));
    assert!(begins >= 1);
    assert_eq!(begins, ends);
}
