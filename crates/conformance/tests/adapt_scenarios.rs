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
//! The replay is the serving harness's own, `serve::load::run_burst_replay`,
//! which returns every incarnation's output.

use adapt::{run_scenario, Action, ScenarioSpec};
use apps::experiment::App;
use conformance::corpus::{self, ConfApp, Ports};
use conformance::matrix::check_admissible;
use serve::load::{run_burst_replay, ReplayConfig};

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
    let seed = spec.seed;
    let r = run_burst_replay(&ReplayConfig {
        scenario: spec,
        workers: 2,
        max_frames,
    });
    let frames = r.frames;
    let count = |of: fn(&Action) -> bool| {
        r.scenario
            .decisions
            .iter()
            .filter(|d| d.after_frames < frames && of(&d.action))
            .count() as u64
    };
    let expect_toggles = count(|a| matches!(a, Action::Toggle { .. }));
    let expect_rebuilds = count(|a| matches!(a, Action::Resize { .. } | Action::StepDepth { .. }));
    assert!(
        expect_toggles >= 1,
        "{} seed {} schedules no toggle within {frames} frames — the case tests nothing",
        app.id(),
        seed
    );

    let variants: Vec<Ports> = app
        .static_counterparts()
        .iter()
        .map(|&c| {
            corpus::run_reference(ConfApp::Experiment(c), frames)
                .unwrap_or_else(|e| panic!("counterpart {}: {e}", c.id()))
                .output
        })
        .collect();
    assert_eq!(variants.len(), 2, "{}", app.id());

    assert_eq!(r.completed, frames, "{} retired every frame", app.id());
    assert_eq!(r.toggles, expect_toggles, "{}", app.id());
    assert_eq!(r.rebuilds, expect_rebuilds, "{}", app.id());
    assert_eq!(r.outputs.len() as u64, expect_rebuilds + 1);

    let mut replayed_frames = 0u64;
    for (i, inc) in r.outputs.iter().enumerate() {
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
    let whole_run_single_incarnation = r.outputs.len() == 1;
    if whole_run_single_incarnation {
        for (v, variant) in variants.iter().enumerate() {
            assert!(
                !equals_prefix(&r.outputs[0], variant),
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

/// Golden snapshot of the controller's decision plane: the rendered
/// replay log of every reconfigurable app at the benchmark seed,
/// byte-for-byte against a committed fixture. The log is a pure
/// function of the seed (virtual time, no wall clock, and simulated
/// runs whose counts depend on nothing else the process does), so any
/// diff is a *behaviour* change in the planner/controller — re-bless
/// after an intentional one with:
///
/// ```text
/// BLESS_FIXTURES=1 cargo test -p conformance --test adapt_scenarios adapt_replay_logs
/// ```
#[test]
fn adapt_replay_logs_match_golden_snapshot() {
    const FIXTURE: &str = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/adapt_replay.txt"
    );
    let mut log = String::new();
    for app in App::RECONFIG {
        log.push_str(&run_scenario(&ScenarioSpec::small(app, 42)).render_replay());
    }
    log.push_str(&run_scenario(&ScenarioSpec::stepped(App::Blur35, 42)).render_replay());

    if std::env::var_os("BLESS_FIXTURES").is_some() {
        std::fs::write(FIXTURE, &log).expect("write fixture");
        return;
    }
    let want = std::fs::read_to_string(FIXTURE)
        .expect("missing fixture; run with BLESS_FIXTURES=1 to create it");
    assert_eq!(
        log, want,
        "adapt replay log diverged from the golden snapshot; if the \
         change is intentional, regenerate with BLESS_FIXTURES=1"
    );
}
