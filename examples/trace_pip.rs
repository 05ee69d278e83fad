//! Flight-recorder demo: trace PiP on 4 simulated cores.
//!
//! Runs the paper's PiP-1 (reduced size) on the simulation engine with a
//! [`hinch::trace::Recorder`] attached, then exports the trace three ways:
//!
//! * `pip-trace.json` — Chrome-trace format; open with Perfetto
//!   (<https://ui.perfetto.dev>) or `chrome://tracing` to see the per-core
//!   Gantt chart, iteration admission/retirement marks and stream
//!   occupancy counters;
//! * `pip-trace.csv` — one row per event, for ad-hoc analysis;
//! * the `insight` report of the trace, printed below: per-core busy and
//!   stall attribution, the critical path, the bottleneck components and
//!   stream occupancy.
//!
//! ```sh
//! cargo run --release --example trace_pip
//! ```

use apps::experiment::{run_sim_traced, App, AppConfig};
use hinch::trace::export::{chrome_trace_json, csv};
use hinch::trace::{check_invariants, TraceEvent};

fn main() {
    let cores = 4;
    let cfg = AppConfig::small(App::Pip1).frames(16);
    println!(
        "tracing PiP-1: {} frames on {cores} simulated cores...",
        cfg.frames
    );
    let (report, recorder) = run_sim_traced(cfg, cores);

    let events = recorder.events();
    check_invariants(&events).expect("well-formed trace");
    let spans = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::JobSpan { .. }))
        .count();
    println!(
        "{} events ({spans} job spans) over {} cycles, {} iterations",
        events.len(),
        report.cycles,
        report.iterations
    );

    std::fs::write(
        "pip-trace.json",
        chrome_trace_json(&events, recorder.clock()),
    )
    .expect("write pip-trace.json");
    std::fs::write("pip-trace.csv", csv(&events)).expect("write pip-trace.csv");
    println!("wrote pip-trace.json (Perfetto / chrome://tracing) and pip-trace.csv");
    println!();
    print!(
        "{}",
        insight::render_human(&insight::analyze(&events, recorder.clock()))
    );
    println!("(any app, or as JSON: cargo run -p insight --bin hinch-insight -- --app pip1)");
}
