//! A simulated run's counts depend on its app and configuration alone.
//!
//! The `spacecake::Machine` a run simulates on lays out the buffers that
//! run touches, so nothing the process simulated before can move a cycle
//! or a miss. Each corpus app runs alone in a process of its own (this
//! test binary, started again on that one app) and after the other twelve
//! in this one; cycles and L1 / L2 misses agree.

use conformance::corpus::{self, ConfApp, ALL};
use hinch::SchedPolicy;
use std::process::Command;

/// 14 frames: PiP-12's toggle (every 12 frames) lands mid-run.
const FRAMES: u64 = 14;
/// Names the one app a child process runs.
const CHILD_APP: &str = "RUN_ISOLATION_APP";
const TEST: &str = "every_corpus_app_simulates_the_same_alone_and_after_the_others";

/// One line of counts: 2 cores, three iterations in flight.
fn counts(app: ConfApp) -> String {
    let run = corpus::run_sim(app, FRAMES, 2, 3, SchedPolicy::Default).expect("sim runs the app");
    let r = run.report;
    format!(
        "{} cycles={} l1_misses={} l2_misses={}",
        app.id(),
        r.cycles,
        r.stats.l1_misses,
        r.stats.l2_misses
    )
}

/// `app`'s counts from a process that simulates nothing else.
fn alone(app: ConfApp) -> String {
    let out = Command::new(std::env::current_exe().expect("test binary"))
        .args([TEST, "--exact", "--nocapture", "--test-threads=1"])
        .env(CHILD_APP, app.id())
        .output()
        .expect("start the test binary again");
    assert!(out.status.success(), "{}: child failed", app.id());
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    // the harness may print the test's name on the same line first
    let line = stdout
        .lines()
        .find_map(|l| Some(l.split_once("counts: ")?.1));
    line.expect("the child printed its counts").to_string()
}

#[test]
fn every_corpus_app_simulates_the_same_alone_and_after_the_others() {
    if let Ok(id) = std::env::var(CHILD_APP) {
        let app = ConfApp::parse(&id).expect("a corpus app id");
        println!("counts: {}", counts(app));
        return;
    }
    // The first pass runs app k after the k before it; in the second, each
    // app runs after all twelve others.
    let first: Vec<String> = ALL.into_iter().map(counts).collect();
    let second: Vec<String> = ALL.into_iter().map(counts).collect();
    for (k, app) in ALL.into_iter().enumerate() {
        let alone = alone(app);
        assert_eq!(first[k], alone, "after the {k} apps before it");
        assert_eq!(second[k], alone, "after the other twelve");
    }
}
