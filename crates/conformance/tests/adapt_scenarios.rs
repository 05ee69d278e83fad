//! Controller-driven differential conformance.
//!
//! The closed-loop SLO controller (`crates/adapt`) decides quality
//! toggles, slice resizes and pipeline-depth steps from a seeded
//! virtual-time scenario; the serving runtime actuates them at
//! quiescent, frame-exact boundaries. This suite replays each
//! reconfigurable app's decision schedule on the real
//! [`hinch::Runtime`] and holds the adaptation plane to the matrix's
//! admissibility criterion ([`conformance::matrix::check_admissible`]):
//! **every** captured output frame must be byte-identical to the
//! same-index frame of one of the app's two static counterpart
//! renderings, all ports agreeing on the variant. Adaptation may move
//! the toggle boundary; it must never invent a third output variant or
//! tear one frame across variants.
//!
//! Resize / depth-step decisions drain and respawn the graph, so a
//! replay is a sequence of *incarnations*, each a fresh instance whose
//! source restarts at frame 0 — admissibility is therefore checked per
//! incarnation against counterpart prefixes. The decision schedule
//! itself is a pure function of the scenario seed (proptested in
//! `crates/adapt`), which makes these runs deterministic end to end.

use adapt::{run_scenario, Action, Quality, ScenarioSpec};
use apps::experiment::{build_isolated_adaptive, reconfig_handle, App, AppConfig, Built};
use conformance::corpus::{self, ConfApp, Ports};
use conformance::matrix::check_admissible;
use hinch::{Event, GraphId, Runtime, RuntimeConfig, SpawnOpts};
use std::time::{Duration, Instant};

fn wait_quiescent(rt: &Runtime, id: GraphId) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let s = rt.stats(id).expect("stats");
        if s.inflight == 0 {
            return;
        }
        assert!(Instant::now() < deadline, "replay never quiesced: {s:?}");
        std::thread::yield_now();
    }
}

struct Replayed {
    /// Captured outputs per incarnation (a rebuild starts a new one).
    incarnations: Vec<Ports>,
    toggles: u64,
    rebuilds: u64,
    completed: u64,
}

/// Replay the scenario's decision schedule on the real runtime,
/// collecting every incarnation's captured output (mirrors
/// `serve::load::run_burst_replay`, which reduces the same outputs to a
/// digest instead of keeping them).
fn replay(spec: &ScenarioSpec, max_frames: u64) -> Replayed {
    let scenario = run_scenario(spec);
    let frames = scenario.arrivals.min(max_frames);
    let app = spec.app;
    let handle = reconfig_handle(app).expect("reconfigurable app");

    let runtime = Runtime::new(RuntimeConfig::new(2));
    let spawn = |slices: usize, depth: usize| -> (Built, GraphId) {
        let built = build_isolated_adaptive(
            AppConfig {
                app,
                scale: spec.scale,
                frames: 0,
            },
            Some(slices),
        );
        let id = runtime
            .spawn(
                &built.spec,
                SpawnOpts::new(app.id())
                    .pipeline_depth(depth)
                    .max_backlog(frames.max(1)),
            )
            .expect("spawn replay graph");
        (built, id)
    };
    // Reconfig graphs spawn degraded; one idempotent event brings a
    // fresh incarnation to the wanted quality before any frame flows.
    let sync_quality = |id: GraphId, live: &mut Quality, want: Quality| {
        if *live != want {
            let payload = match want {
                Quality::Full => handle.full_payload,
                Quality::Degraded => handle.degraded_payload,
            };
            runtime
                .inject(id, handle.queue, Event::with_payload(handle.event, payload))
                .expect("replay inject");
            *live = want;
        }
    };
    let collect = |built: &Built| -> Ports {
        (0..built.capture_ports)
            .map(|p| built.assets.captured(built.capture, p))
            .collect()
    };

    let mut current = scenario.initial;
    let (mut built, mut id) = spawn(current.slices, current.pipeline_depth);
    let mut live_quality = Quality::Degraded;
    sync_quality(id, &mut live_quality, current.quality);

    let mut out = Replayed {
        incarnations: Vec::new(),
        toggles: 0,
        rebuilds: 0,
        completed: 0,
    };
    let mut done = 0u64;
    for d in scenario
        .decisions
        .iter()
        .filter(|d| d.after_frames < frames)
    {
        if d.after_frames > done {
            let n = d.after_frames - done;
            assert_eq!(runtime.submit(id, n).expect("replay submit"), n);
            done = d.after_frames;
        }
        wait_quiescent(&runtime, id);
        match d.action {
            Action::Hold => {}
            Action::Toggle { to } => {
                sync_quality(id, &mut live_quality, to);
                out.toggles += 1;
            }
            Action::Resize { .. } | Action::StepDepth { .. } => {
                current = d.config_after;
                let stats = runtime.drain(id).expect("replay drain");
                out.completed += stats.completed;
                out.incarnations.push(collect(&built));
                out.rebuilds += 1;
                (built, id) = spawn(current.slices, current.pipeline_depth);
                live_quality = Quality::Degraded;
                sync_quality(id, &mut live_quality, current.quality);
            }
        }
    }
    if frames > done {
        let n = frames - done;
        assert_eq!(runtime.submit(id, n).expect("replay submit"), n);
    }
    let stats = runtime.drain(id).expect("replay drain");
    out.completed += stats.completed;
    out.incarnations.push(collect(&built));
    runtime.shutdown();
    out
}

/// Does `output` equal the same-length prefix of `variant` on every
/// port? (Admissibility is necessary but weak — a replay whose toggles
/// were silently dropped would still be admissible. A run that toggled
/// must *differ* from every single-variant rendering.)
fn equals_prefix(output: &Ports, variant: &Ports) -> bool {
    output.iter().enumerate().all(|(p, port)| {
        port.iter()
            .enumerate()
            .all(|(i, f)| variant[p].get(i) == Some(f))
    })
}

/// Run one scenario end to end and hold every incarnation's output to
/// the admissibility criterion.
fn scenario_is_admissible(spec: ScenarioSpec, max_frames: u64) {
    let app = spec.app;
    let scenario = run_scenario(&spec);
    let frames = scenario.arrivals.min(max_frames);
    let in_range = |d: &&adapt::DecisionRecord| d.after_frames < frames;
    let expect_toggles = scenario
        .decisions
        .iter()
        .filter(in_range)
        .filter(|d| matches!(d.action, Action::Toggle { .. }))
        .count() as u64;
    let expect_rebuilds = scenario
        .decisions
        .iter()
        .filter(in_range)
        .filter(|d| matches!(d.action, Action::Resize { .. } | Action::StepDepth { .. }))
        .count() as u64;
    assert!(
        expect_toggles >= 1,
        "{} seed {} schedules no toggle within {frames} frames — the case tests nothing",
        app.id(),
        spec.seed
    );

    let variants: Vec<Ports> = ConfApp::parse(app.id())
        .expect("corpus app")
        .counterparts()
        .iter()
        .map(|&c| {
            corpus::run_reference(c, frames)
                .unwrap_or_else(|e| panic!("counterpart {}: {e}", c.id()))
                .output
        })
        .collect();
    assert_eq!(variants.len(), 2, "{}", app.id());

    let r = replay(&spec, max_frames);
    assert_eq!(r.completed, frames, "{} retired every frame", app.id());
    assert_eq!(r.toggles, expect_toggles, "{}", app.id());
    assert_eq!(r.rebuilds, expect_rebuilds, "{}", app.id());
    assert_eq!(r.incarnations.len() as u64, expect_rebuilds + 1);

    let mut replayed_frames = 0u64;
    for (i, inc) in r.incarnations.iter().enumerate() {
        check_admissible(inc, &variants).unwrap_or_else(|why| {
            panic!(
                "{} incarnation {i}: controller-driven output not admissible: {why}",
                app.id()
            )
        });
        replayed_frames += inc.first().map(Vec::len).unwrap_or(0) as u64;
    }
    assert_eq!(replayed_frames, frames, "{} captured every frame", app.id());

    // The adaptation must be *visible*: a run that toggled mid-stream
    // cannot equal either pure static rendering end to end.
    let whole_run_single_incarnation = r.incarnations.len() == 1;
    if whole_run_single_incarnation {
        for (v, variant) in variants.iter().enumerate() {
            assert!(
                !equals_prefix(&r.incarnations[0], variant),
                "{}: toggled run is byte-equal to static counterpart {v} — toggle not applied?",
                app.id()
            );
        }
    }
}

/// Every reconfigurable app, the benchmark seed, toggle-only window:
/// the first SLO degrade lands at frame 11, so 24 frames cover full →
/// degraded output with no rebuild.
#[test]
fn pip12_controller_outputs_are_admissible() {
    scenario_is_admissible(ScenarioSpec::small(App::Pip12, 42), 24);
}

#[test]
fn jpip12_controller_outputs_are_admissible() {
    scenario_is_admissible(ScenarioSpec::small(App::Jpip12, 42), 24);
}

#[test]
fn blur35_controller_outputs_are_admissible() {
    scenario_is_admissible(ScenarioSpec::small(App::Blur35, 42), 24);
}

/// The stepped variant schedules a depth step (frame 49) and a slice
/// resize (frame 99) for Blur-35 at seed 42: three incarnations, each
/// of which must independently satisfy counterpart admissibility.
#[test]
fn blur35_stepped_scenario_with_rebuilds_is_admissible() {
    scenario_is_admissible(ScenarioSpec::stepped(App::Blur35, 42), 110);
}
