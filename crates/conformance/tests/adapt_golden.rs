//! Golden snapshot of the SLO controller's decision plane.
//!
//! A test binary of its own, on purpose: the replay log is a pure
//! function of the seed *and of the simulator's process-global address
//! allocator* (`SIM_BRK`, ROADMAP item 5), so it only reproduces in a
//! process whose first simulated runs are the scenario's own
//! calibrations. Beside the runtime-replay tests of `adapt_scenarios.rs`,
//! which build and simulate apps on parallel test threads, the cycle
//! counts drift by a few hundredths of a percent and the snapshot fails.

use adapt::{run_scenario, ScenarioSpec};
use apps::experiment::App;

/// Golden snapshot of the controller's decision plane: the rendered
/// replay log of every reconfigurable app at the benchmark seed,
/// byte-for-byte against a committed fixture. The log is a pure
/// function of the seed (virtual time, no wall clock), so any diff is a
/// *behaviour* change in the planner/controller — re-bless after an
/// intentional one with:
///
/// ```text
/// BLESS_FIXTURES=1 cargo test -p conformance --test adapt_golden
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
