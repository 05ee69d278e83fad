//! Model-checked engine protocols (build with `RUSTFLAGS="--cfg hinch_model"`).
//!
//! These tests drive real `hinch` engine code — the worker-pool primitives
//! and the full multi-graph serving runtime — on the schedcheck executor.
//! Under `--cfg hinch_model`, every atomic access, lock, park and spawn in
//! `crates/hinch/src/engine/` routes through `hinch::sync` into the
//! modeled primitives, so the explorer controls each interleaving and the
//! vector clocks check every `ModelCell` slot access.
//!
//! The two `pr6_*` tests are pinned regressions for two fixed serving
//! races, and `early_event_take_is_caught` pins the landing rule of
//! `hinch::event`: each arms a fault flag (`hinch::sync::faults`) that
//! re-introduces a bug, and asserts the model checker finds it within the
//! smoke iteration budget — with a replayable seed — while the unfaulted
//! protocol explores clean.
//!
//! Budgets scale with `SCHEDCHECK_ITERS` (CI sets it; `MODEL_DEEP=1` runs
//! raise it — see `scripts/ci.sh`).

#![cfg(hinch_model)]

use hinch::engine::pool::{EventCount, Injector, LocalQueue};
use hinch::graph::{factory, ComponentSpec, GraphSpec};
use hinch::sync::faults;
use hinch::{
    run_native, run_reference, Component, Event, EventAction, EventQueue, ManagerSpec, Params,
    RunConfig, RunCtx, Runtime, RuntimeConfig, SpawnOpts,
};
use schedcheck::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use schedcheck::{env_iters, Config, Strategy};
use std::sync::{Arc, Mutex as StdMutex, MutexGuard as StdMutexGuard, OnceLock};

/// The fault flags and the runtime's worker pools are process-global, so
/// every test that builds a `Runtime` or arms a fault serializes here
/// (cargo's test harness runs tests on parallel threads).
fn runtime_lock() -> StdMutexGuard<'static, ()> {
    static LOCK: OnceLock<StdMutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| StdMutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Reset both fault flags when a test exits, pass or fail.
struct FaultReset;
impl Drop for FaultReset {
    fn drop(&mut self) {
        faults::set_throttled_submit_wake(false);
        faults::set_drain_skips_admission_close(false);
        faults::set_entry_takes_next_due(false);
    }
}

struct Nop;
impl Component for Nop {
    fn class(&self) -> &'static str {
        "nop"
    }
    fn run(&mut self, _ctx: &mut RunCtx<'_>) {}
}

fn nop_leaf(name: &str) -> GraphSpec {
    GraphSpec::leaf(ComponentSpec::new(
        name,
        "nop",
        factory(
            |_p: &Params| -> Box<dyn Component> { Box::new(Nop) },
            Params::new(),
        ),
    ))
}

/// Single no-op leaf: the smallest graph the serving runtime accepts.
/// One job per frame keeps the schedule space small enough to explore.
fn nop_spec() -> GraphSpec {
    nop_leaf("nop")
}

#[test]
fn local_queue_ops_linearize() {
    let cfg = Config::default().iterations(env_iters(192)).seed(0x10CA1);
    schedcheck::explore(&cfg, || {
        let q = Arc::new(LocalQueue::<u32>::new());
        let inj = Arc::new(Injector::<u32>::new());
        let taken = Arc::new(StdMutex::new(Vec::<u32>::new()));
        let thief = {
            let (q, taken) = (q.clone(), taken.clone());
            schedcheck::sync::thread::spawn(move || {
                for _ in 0..2 {
                    if let Some(v) = q.steal() {
                        taken.lock().unwrap().push(v);
                    }
                }
            })
        };
        let mut got = Vec::new();
        for v in 1..=3u32 {
            q.push(v, &inj);
            if let Some(v) = q.pop() {
                got.push(v);
            }
        }
        thief.join().unwrap();
        while let Some(v) = q.pop() {
            got.push(v);
        }
        while let Some(v) = inj.pop() {
            got.push(v);
        }
        got.extend(taken.lock().unwrap().iter().copied());
        got.sort_unstable();
        assert_eq!(got, vec![1, 2, 3], "each pushed job consumed exactly once");
    })
    .unwrap_or_else(|f| panic!("{f}"));
}

#[test]
fn eventcount_never_loses_a_wakeup() {
    let cfg = Config::default()
        .iterations(env_iters(192))
        .seed(0xEC0)
        .strategy(Strategy::Mixed);
    schedcheck::explore(&cfg, || {
        let ec = Arc::new(EventCount::new());
        let flag = Arc::new(AtomicBool::new(false));
        let consumer = {
            let (ec, flag) = (ec.clone(), flag.clone());
            schedcheck::sync::thread::spawn(move || loop {
                if flag.load(Ordering::SeqCst) {
                    return;
                }
                let e = ec.prepare();
                if flag.load(Ordering::SeqCst) {
                    return;
                }
                // A notify between the `prepare` above and this `wait`
                // must still be delivered — the protocol under test.
                ec.wait(e);
            })
        };
        flag.store(true, Ordering::SeqCst);
        ec.notify(1);
        consumer.join().unwrap();
        assert_eq!(ec.sleepers(), 0);
    })
    .unwrap_or_else(|f| panic!("{f}"));
}

#[test]
fn eventcount_counts_concurrent_sleepers() {
    let cfg = Config::default().iterations(env_iters(128)).seed(0xEC1);
    schedcheck::explore(&cfg, || {
        let ec = Arc::new(EventCount::new());
        let produced = Arc::new(AtomicU64::new(0));
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let (ec, produced) = (ec.clone(), produced.clone());
                schedcheck::sync::thread::spawn(move || loop {
                    if produced.load(Ordering::SeqCst) == 1 {
                        return;
                    }
                    let e = ec.prepare();
                    if produced.load(Ordering::SeqCst) == 1 {
                        return;
                    }
                    ec.wait(e);
                })
            })
            .collect();
        produced.store(1, Ordering::SeqCst);
        // Lifecycle edge: both sleepers must observe it.
        ec.notify_all();
        for c in consumers {
            c.join().unwrap();
        }
        assert_eq!(ec.sleepers(), 0, "sleeper count returns to zero");
    })
    .unwrap_or_else(|f| panic!("{f}"));
}

#[test]
fn runtime_submit_drain_teardown_is_clean() {
    let _serial = runtime_lock();
    let cfg = Config::default().iterations(env_iters(96)).seed(0x5E12E);
    schedcheck::explore(&cfg, || {
        let rt = Runtime::new(RuntimeConfig::new(1));
        let id = rt
            .spawn(&nop_spec(), SpawnOpts::new("m").pipeline_depth(1))
            .unwrap();
        assert_eq!(rt.submit(id, 1).unwrap(), 1);
        let stats = rt.drain(id).unwrap();
        assert_eq!(stats.completed, 1);
        assert_eq!(rt.graph_count(), 0);
        assert_eq!(rt.queued_jobs(), 0, "teardown leaves no queued jobs");
        rt.shutdown();
    })
    .unwrap_or_else(|f| panic!("{f}"));
}

#[test]
fn runtime_two_rounds_restore_baseline() {
    let _serial = runtime_lock();
    let cfg = Config::default().iterations(env_iters(48)).seed(0xBA5E);
    schedcheck::explore(&cfg, || {
        let rt = Runtime::new(RuntimeConfig::new(1));
        for round in 0..2u32 {
            let id = rt
                .spawn(
                    &nop_spec(),
                    SpawnOpts::new(format!("r{round}")).pipeline_depth(1),
                )
                .unwrap();
            assert_eq!(rt.submit(id, 2).unwrap(), 2);
            let stats = rt.drain(id).unwrap();
            assert_eq!(stats.completed, 2, "round {round}");
        }
        assert_eq!(rt.graph_count(), 0);
        assert_eq!(rt.queued_jobs(), 0);
        rt.shutdown();
    })
    .unwrap_or_else(|f| panic!("{f}"));
}

/// `run_native` is the runtime with one tenant: spawn → submit → drain →
/// shutdown, then a report folded from what the pool observed. Two
/// hand-offs in that driver are only as good as their ordering: the
/// drain waiter is woken once, by the retirement that leaves the tenant
/// drained (not per frame), and the per-node counters — added by a job
/// before its completion is published, folded into the tenant's totals
/// at each window swap — are read after that wake-up. On every explored
/// schedule — a queued event makes the first manager entry quiesce and
/// graft the option mid-run — the run must end (no lost drain wake-up)
/// and the report must be complete: every iteration retired, every
/// executed component job accounted to a node.
#[test]
fn run_native_report_is_complete_on_every_schedule() {
    let _serial = runtime_lock();
    let cfg = Config::default()
        .iterations(env_iters(96))
        .seed(0x50_10)
        .strategy(Strategy::Mixed);
    schedcheck::explore(&cfg, || {
        let queue = EventQueue::new("mq");
        let mgr = ManagerSpec::new("m", queue.clone())
            .on("flip", vec![EventAction::Toggle("extra".into())]);
        let spec = GraphSpec::managed(
            mgr,
            GraphSpec::seq(vec![
                nop_leaf("src"),
                GraphSpec::option("extra", false, nop_leaf("opt")),
                nop_leaf("snk"),
            ]),
        );
        queue.send(Event::new("flip"));
        let frames = 3;
        let report = run_native(&spec, &RunConfig::new(frames).workers(2).pipeline_depth(2))
            .expect("run_native under the model");
        assert_eq!(report.iterations, frames, "every submitted frame retired");
        assert_eq!(report.reconfigs, 1, "the queued flip was applied");
        // Two manager jobs (entry, exit) per iteration; the rest are
        // component jobs, each of which some worker timed for its node.
        let component_jobs = report.jobs_executed - 2 * frames;
        let accounted: u64 = report.per_node.values().map(|(jobs, _)| jobs).sum();
        assert_eq!(accounted, component_jobs, "per-node counters complete");
        assert_eq!(report.per_node["src"].0, frames);
        assert_eq!(report.per_node["snk"].0, frames);
        assert_eq!(report.core_busy.len(), 2);
    })
    .unwrap_or_else(|f| panic!("{f}"));
}

/// Pinned PR-6 regression #1: `Runtime::submit` must use the unconditional
/// external wake. With the fault armed, submit uses the worker-context
/// spare-parallelism-throttled wake instead; a submit landing while the
/// lone worker sits between its park-preparation and its `active`
/// decrement skips the notify entirely, the worker parks on a stale epoch
/// with the frame stranded in the injector, and drain blocks forever —
/// which the model checker reports as a deadlock with a replayable seed.
#[test]
fn pr6_submit_wake_race_is_caught() {
    let _serial = runtime_lock();
    let _reset = FaultReset;

    let scenario = || {
        let rt = Runtime::new(RuntimeConfig::new(1));
        let id = rt
            .spawn(&nop_spec(), SpawnOpts::new("m").pipeline_depth(1))
            .unwrap();
        assert_eq!(rt.submit(id, 1).unwrap(), 1);
        let stats = rt.drain(id).unwrap();
        assert_eq!(stats.completed, 1);
        rt.shutdown();
    };

    // Floor at the proven discovery budget: the global smoke knob
    // (`SCHEDCHECK_ITERS`) may scale the protocol tests down, but a
    // pinned regression that stops *finding* its bug is worthless.
    let cfg = Config::default()
        .iterations(env_iters(300).max(300))
        .seed(0x9126);

    faults::set_throttled_submit_wake(true);
    let failure = schedcheck::explore(&cfg, scenario)
        .expect_err("model checker must catch the reverted submit-wake fix");
    assert!(
        failure.message.contains("deadlock"),
        "expected a deadlock report, got: {failure}"
    );
    // The failure replays from its seed alone.
    let replayed = schedcheck::replay(&cfg, failure.seed, scenario)
        .expect_err("recorded seed must reproduce the failure");
    assert_eq!(replayed.message, failure.message);

    faults::set_throttled_submit_wake(false);
    schedcheck::explore(&cfg, scenario).unwrap_or_else(|f| {
        panic!("fixed protocol must explore clean, got: {f}");
    });
}

/// Pinned PR-6 regression #2: `Runtime::drain` must close admission (the
/// per-tenant draining flag, set under the admit lock) before its
/// quiescence wait. With the fault armed the flag is never set, so a
/// racing submit can be accepted after drain observed quiescence; the
/// frame is silently discarded by teardown and drain's leak asserts fire
/// (frame timestamps left behind) — a panic the model checker reports
/// with a replayable seed.
#[test]
fn pr6_drain_admission_race_is_caught() {
    let _serial = runtime_lock();
    let _reset = FaultReset;

    let scenario = || {
        let rt = Arc::new(Runtime::new(RuntimeConfig::new(1)));
        let id = rt
            .spawn(&nop_spec(), SpawnOpts::new("m").pipeline_depth(1))
            .unwrap();
        assert_eq!(rt.submit(id, 1).unwrap(), 1);
        let submitter = {
            let rt = rt.clone();
            schedcheck::sync::thread::spawn(move || match rt.submit(id, 1) {
                Ok(n) => n,
                Err(_) => 0, // draining / already gone: correctly refused
            })
        };
        let accepted = 1 + match rt.drain(id) {
            Ok(_) => submitter.join().unwrap(),
            Err(e) => panic!("drain failed: {e}"),
        };
        // Every frame the client was told was accepted must have retired;
        // with admission left open, teardown's leak asserts fire first.
        let _ = accepted;
        rt.shutdown();
    };

    // Same floor as above: never below the proven discovery budget.
    let cfg = Config::default()
        .iterations(env_iters(300).max(300))
        .seed(0xD2A1);

    faults::set_drain_skips_admission_close(true);
    let failure = schedcheck::explore(&cfg, scenario)
        .expect_err("model checker must catch the reverted drain-admission fix");
    assert!(
        failure.message.contains("leaked") || failure.message.contains("deadlock"),
        "expected the teardown leak assert (or a stranded-frame deadlock), got: {failure}"
    );
    let replayed = schedcheck::replay(&cfg, failure.seed, scenario)
        .expect_err("recorded seed must reproduce the failure");
    assert_eq!(replayed.message, failure.message);

    faults::set_drain_skips_admission_close(false);
    schedcheck::explore(&cfg, scenario).unwrap_or_else(|f| {
        panic!("fixed protocol must explore clean, got: {f}");
    });
}

/// Sends `go` to its queue in every iteration.
struct Ping(EventQueue);
impl Component for Ping {
    fn class(&self) -> &'static str {
        "ping"
    }
    fn run(&mut self, _ctx: &mut RunCtx<'_>) {
        self.0.send(Event::new("go"));
    }
}

/// Logs the iterations it runs in.
struct Probe(Arc<StdMutex<Vec<u64>>>);
impl Component for Probe {
    fn class(&self) -> &'static str {
        "probe"
    }
    fn run(&mut self, ctx: &mut RunCtx<'_>) {
        self.0.lock().unwrap().push(ctx.iteration());
    }
}

/// The iterations the option body runs in, over `frames` frames of
/// `manager { ping; option extra { probe } }` whose manager toggles
/// `extra` on every `go`: every iteration from 2d on reconfigures.
fn probe_iterations(frames: u64, cfg: &RunConfig, native: bool) -> Vec<u64> {
    let queue = EventQueue::new("mq");
    let log = Arc::new(StdMutex::new(Vec::new()));
    let ping = {
        let queue = queue.clone();
        factory(
            move |_p: &Params| -> Box<dyn Component> { Box::new(Ping(queue.clone())) },
            Params::new(),
        )
    };
    let probe = {
        let log = log.clone();
        factory(
            move |_p: &Params| -> Box<dyn Component> { Box::new(Probe(log.clone())) },
            Params::new(),
        )
    };
    let mgr = ManagerSpec::new("m", queue).on("go", vec![EventAction::Toggle("extra".into())]);
    let spec = GraphSpec::managed(
        mgr,
        GraphSpec::seq(vec![
            GraphSpec::leaf(ComponentSpec::new("png", "ping", ping)),
            GraphSpec::option(
                "extra",
                false,
                GraphSpec::leaf(ComponentSpec::new("x", "probe", probe)),
            ),
        ]),
    );
    let report = if native {
        run_native(&spec, cfg).map(|r| r.iterations)
    } else {
        run_reference(&spec, cfg).map(|r| r.iterations)
    };
    assert_eq!(report.expect("the run completes"), frames);
    let ran = log.lock().unwrap().clone();
    ran
}

/// Native runs of the ping graph, each held to `run_reference` at its
/// depth: the option runs in exactly the oracle's iterations.
fn landing_scenario(workers: usize, depth: usize) -> impl Fn() {
    let frames = 2 * depth as u64 + 2;
    move || {
        let cfg = RunConfig::new(frames).pipeline_depth(depth);
        let want = probe_iterations(frames, &cfg, false);
        let got = probe_iterations(frames, &cfg.clone().workers(workers), true);
        assert_eq!(
            got, want,
            "{workers} workers, depth {depth}: option ran off the oracle's iterations"
        );
    }
}

/// The landing rule on every explored schedule: a reconfiguration found
/// by the entry of iteration i lands at i + d, at 2 and 3 workers and
/// depths 1 to 3.
#[test]
fn reconfigurations_land_where_the_reference_puts_them() {
    let _serial = runtime_lock();
    for workers in [2, 3] {
        for depth in 1..=3 {
            let cfg = Config::default()
                .iterations(env_iters(96))
                .seed(0x1A4D ^ (workers * 8 + depth) as u64)
                .strategy(Strategy::Mixed);
            schedcheck::explore(&cfg, landing_scenario(workers, depth))
                .unwrap_or_else(|f| panic!("{workers} workers, depth {depth}: {f}"));
        }
    }
}

/// Pinned regression for the landing rule: with the fault armed a manager
/// entry also takes the events due one iteration later. At depth 2 the
/// ping of iteration i - 1 has sent its event before entry i on some
/// schedules and not on others, so the option runs off the oracle's
/// iterations — which the model must find, with a replayable seed.
#[test]
fn early_event_take_is_caught() {
    let _serial = runtime_lock();
    let _reset = FaultReset;
    let scenario = landing_scenario(2, 2);
    let cfg = Config::default()
        .iterations(env_iters(96).max(96))
        .seed(0xEA21)
        .strategy(Strategy::Mixed);

    faults::set_entry_takes_next_due(true);
    let failure = schedcheck::explore(&cfg, &scenario)
        .expect_err("model checker must catch an entry taking events early");
    assert!(
        failure.message.contains("off the oracle's iterations"),
        "expected the landing assert, got: {failure}"
    );
    let replayed = schedcheck::replay(&cfg, failure.seed, &scenario)
        .expect_err("recorded seed must reproduce the failure");
    assert_eq!(replayed.message, failure.message);

    faults::set_entry_takes_next_due(false);
    schedcheck::explore(&cfg, &scenario).unwrap_or_else(|f| {
        panic!("the landing rule must explore clean, got: {f}");
    });
}
