//! Edge-case integration tests of the Hinch engines: reconfiguration
//! under pipeline pressure, manager bracket costs, nested structures, and
//! report bookkeeping.

use hinch::component::{Component, Params, RunCtx};
use hinch::engine::{run_native, run_sim, RunConfig};
use hinch::event::{Event, EventQueue};
use hinch::graph::{factory, ComponentSpec, GraphSpec, ManagerSpec};
use hinch::manager::EventAction;
use hinch::meter::NullPlatform;
use parking_lot::Mutex;
use std::sync::Arc;

type Log = Arc<Mutex<Vec<String>>>;

struct Tick {
    name: String,
    cost: u64,
    log: Option<Log>,
}

impl Component for Tick {
    fn class(&self) -> &'static str {
        "tick"
    }
    fn run(&mut self, ctx: &mut RunCtx<'_>) {
        if let Some(log) = &self.log {
            log.lock()
                .push(format!("{}@{}", self.name, ctx.iteration()));
        }
        for p in 0..ctx.num_outputs() {
            ctx.write(p, ctx.iteration() as i64);
        }
        ctx.charge(self.cost);
    }
}

fn tick(name: &str, inputs: &[&str], outputs: &[&str], cost: u64, log: Option<Log>) -> GraphSpec {
    let name_s = name.to_string();
    let mut c = ComponentSpec::new(
        name,
        "tick",
        factory(
            move |_p: &Params| -> Box<dyn Component> {
                Box::new(Tick {
                    name: name_s.clone(),
                    cost,
                    log: log.clone(),
                })
            },
            Params::new(),
        ),
    );
    for i in inputs {
        c = c.input(*i);
    }
    for o in outputs {
        c = c.output(*o);
    }
    GraphSpec::Leaf(c)
}

/// A reader that swallows any i64 input (keeps streams legal).
fn sink(name: &str, inputs: &[&str]) -> GraphSpec {
    tick(name, inputs, &[], 1, None)
}

#[test]
fn nested_task_in_slice_in_task_flattens_and_runs() {
    let g = GraphSpec::seq(vec![
        tick("src", &[], &["s"], 5, None),
        GraphSpec::task(vec![
            GraphSpec::slice(
                "sl",
                3,
                GraphSpec::task(vec![sink("a", &["s"]), sink("b", &["s"])]),
            ),
            sink("c", &["s"]),
        ]),
    ]);
    let r = run_native(&g, &RunConfig::new(5).workers(3)).unwrap();
    assert_eq!(r.iterations, 5);
    // jobs per iteration: src + 3*(a+b) + c = 8
    assert_eq!(r.jobs_executed, 5 * 8);
}

#[test]
fn sim_counts_manager_bracket_costs() {
    let mgr = ManagerSpec::new("m", EventQueue::new("q"));
    let g = GraphSpec::managed(mgr, tick("x", &[], &["s"], 10, None));
    let mut cfg = RunConfig::new(3).pipeline_depth(1);
    cfg.overhead.job_base = 0;
    cfg.overhead.event_poll = 100;
    cfg.overhead.mgr_exit = 50;
    let mut p = NullPlatform::new(1);
    let r = run_sim(&g, &cfg, &mut p).unwrap();
    // per iteration: entry(100) + x(10) + exit(50) = 160
    assert_eq!(r.cycles, 3 * 160);
    assert_eq!(r.jobs_executed, 9);
}

#[test]
fn reconfiguration_cost_appears_in_the_makespan() {
    struct Inject {
        queue: EventQueue,
    }
    impl Component for Inject {
        fn class(&self) -> &'static str {
            "inject"
        }
        fn run(&mut self, ctx: &mut RunCtx<'_>) {
            if ctx.iteration() == 1 {
                self.queue.send(Event::new("go"));
            }
            ctx.charge(10);
        }
    }
    let q = EventQueue::new("q");
    let qc = q.clone();
    let inj = GraphSpec::Leaf(ComponentSpec::new(
        "inj",
        "inject",
        factory(
            move |_p: &Params| -> Box<dyn Component> { Box::new(Inject { queue: qc.clone() }) },
            Params::new(),
        ),
    ));
    let mgr = ManagerSpec::new("m", q).on("go", vec![EventAction::Enable("o".into())]);
    let g = GraphSpec::managed(
        mgr,
        GraphSpec::seq(vec![
            inj,
            tick("base", &[], &["s"], 10, None),
            GraphSpec::option("o", false, tick("extra", &["s"], &["s2"], 10, None)),
        ]),
    );
    let mut cfg = RunConfig::new(8).pipeline_depth(1);
    cfg.overhead.job_base = 0;
    cfg.overhead.event_poll = 0;
    cfg.overhead.mgr_exit = 0;
    cfg.overhead.create_component = 1000;
    cfg.overhead.resync_base = 500;
    cfg.overhead.resync_per_component = 100;
    let mut p = NullPlatform::new(1);
    let r = run_sim(&g, &cfg, &mut p).unwrap();
    assert_eq!(r.reconfigs, 1);
    // baseline: 8 iterations × (inj 10 + base 10) = 160
    // + 'extra' runs from some iteration on (10 each)
    // + creation 1000 (at the entry that saw the event)
    // + resync 500 + 100
    // exact enabled-iteration count depends on the drain; assert bounds
    assert!(r.cycles >= 160 + 1000 + 600 + 10, "cycles = {}", r.cycles);
    assert!(
        r.cycles <= 160 + 1000 + 600 + 8 * 10,
        "cycles = {}",
        r.cycles
    );
}

#[test]
fn enable_when_already_enabled_is_ignored() {
    struct Spam {
        queue: EventQueue,
    }
    impl Component for Spam {
        fn class(&self) -> &'static str {
            "spam"
        }
        fn run(&mut self, _ctx: &mut RunCtx<'_>) {
            self.queue.send(Event::new("on")); // every iteration!
        }
    }
    let q = EventQueue::new("q");
    let qc = q.clone();
    let spam = GraphSpec::Leaf(ComponentSpec::new(
        "spam",
        "spam",
        factory(
            move |_p: &Params| -> Box<dyn Component> { Box::new(Spam { queue: qc.clone() }) },
            Params::new(),
        ),
    ));
    let mgr = ManagerSpec::new("m", q).on("on", vec![EventAction::Enable("o".into())]);
    let g = GraphSpec::managed(
        mgr,
        GraphSpec::seq(vec![
            spam,
            GraphSpec::option("o", false, tick("x", &[], &["s"], 1, None)),
        ]),
    );
    let r = run_native(&g, &RunConfig::new(12).workers(2)).unwrap();
    // exactly one reconfiguration: the first enable; the rest are ignored
    assert_eq!(
        r.reconfigs, 1,
        "enable of an enabled option must be ignored"
    );
}

#[test]
fn many_reconfigurations_back_to_back_stay_consistent() {
    struct FlipEvery {
        queue: EventQueue,
    }
    impl Component for FlipEvery {
        fn class(&self) -> &'static str {
            "flip"
        }
        fn run(&mut self, _ctx: &mut RunCtx<'_>) {
            self.queue.send(Event::new("t"));
        }
    }
    let log: Log = Arc::new(Mutex::new(Vec::new()));
    let q = EventQueue::new("q");
    let qc = q.clone();
    let flip = GraphSpec::Leaf(ComponentSpec::new(
        "flip",
        "flip",
        factory(
            move |_p: &Params| -> Box<dyn Component> { Box::new(FlipEvery { queue: qc.clone() }) },
            Params::new(),
        ),
    ));
    let mgr = ManagerSpec::new("m", q).on("t", vec![EventAction::Toggle("o".into())]);
    let g = GraphSpec::managed(
        mgr,
        GraphSpec::seq(vec![
            flip,
            GraphSpec::option("o", false, tick("x", &[], &["s"], 1, Some(log.clone()))),
        ]),
    );
    // every entry sees a toggle → reconfig storm; depth 4 exercises drain
    let r = run_native(&g, &RunConfig::new(20).workers(3).pipeline_depth(4)).unwrap();
    assert_eq!(r.iterations, 20);
    assert!(
        r.reconfigs >= 4,
        "storm must cause many reconfigs: {}",
        r.reconfigs
    );
    // x ran in some iterations but not all
    let n = log.lock().len();
    assert!(n > 0 && n < 20, "x ran {n}/20 iterations");
}

#[test]
fn per_node_profile_accounts_every_cycle() {
    let g = GraphSpec::seq(vec![
        tick("a", &[], &["s"], 100, None),
        tick("b", &["s"], &["t"], 50, None),
        sink("c", &["t"]),
    ]);
    let mut cfg = RunConfig::new(4).pipeline_depth(1);
    cfg.overhead.job_base = 7;
    let mut p = NullPlatform::new(1);
    let r = run_sim(&g, &cfg, &mut p).unwrap();
    let total: u64 = r.per_node.values().map(|pr| pr.cycles).sum();
    // single core, no overlap: profile total == makespan
    assert_eq!(total, r.cycles);
    assert_eq!(r.per_node["a"].jobs, 4);
    assert_eq!(r.per_node["a"].cycles, 4 * 107);
    assert_eq!(r.per_node["b"].mean(), 57.0);
}

/// Degenerate `RunConfig`s must be rejected up front with a structured
/// error naming the offending parameter — on every engine, before any
/// thread spawns or any job runs.
#[test]
fn zero_config_parameters_are_rejected_up_front() {
    use hinch::engine::run_reference;
    use hinch::HinchError;
    let g = tick("a", &[], &["s"], 1, None);
    let configs: [(&str, RunConfig); 3] = [
        ("workers", RunConfig::new(4).workers(0)),
        ("pipeline_depth", RunConfig::new(4).pipeline_depth(0)),
        ("iterations", RunConfig::new(0)),
    ];
    for (want, cfg) in configs {
        let check = |err: HinchError, engine: &str| {
            let HinchError::InvalidConfig { param, .. } = err else {
                panic!("{engine}: expected InvalidConfig for {want}, got {err}");
            };
            assert_eq!(param, want, "{engine}");
        };
        check(run_native(&g, &cfg).unwrap_err(), "native");
        let mut p = NullPlatform::new(2);
        check(run_sim(&g, &cfg, &mut p).unwrap_err(), "sim");
        check(run_reference(&g, &cfg).unwrap_err(), "reference");
    }
}

#[test]
fn deep_pipeline_on_one_core_matches_total_work() {
    // depth > 1 cannot make a single core faster than the sum of work
    let g = GraphSpec::seq(vec![
        tick("a", &[], &["s"], 11, None),
        tick("b", &["s"], &["t"], 13, None),
        sink("c", &["t"]),
    ]);
    let mut cfg = RunConfig::new(10).pipeline_depth(8);
    cfg.overhead.job_base = 0;
    let mut p = NullPlatform::new(1);
    let r = run_sim(&g, &cfg, &mut p).unwrap();
    assert_eq!(r.cycles, 10 * (11 + 13 + 1));
}

#[test]
fn native_report_profiles_nodes() {
    let g = GraphSpec::seq(vec![
        tick("a", &[], &["s"], 1, None),
        tick("b", &["s"], &["t"], 1, None),
        sink("c", &["t"]),
    ]);
    // Native: structural output checks only — wall-clock bounds flake on
    // loaded CI machines; cycle accounting is asserted on the sim below.
    let r = run_native(&g, &RunConfig::new(10).workers(2)).unwrap();
    assert_eq!(r.per_node.len(), 3);
    assert_eq!(r.per_node["a"].0, 10);
    assert_eq!(r.per_node["b"].0, 10);
    assert_eq!(r.hottest_nodes().len(), 3);
    // Sim: the per-node cycle profile exactly partitions the busy cycles.
    let mut cfg = RunConfig::new(10);
    cfg.overhead.job_base = 7;
    let mut p = NullPlatform::new(2);
    let s = run_sim(&g, &cfg, &mut p).unwrap();
    let profiled: u64 = s.per_node.values().map(|pr| pr.cycles).sum();
    assert_eq!(profiled, s.core_busy.iter().sum::<u64>());
    assert_eq!(s.per_node["a"].jobs, 10);
}

#[test]
fn nested_options_stay_toggleable_after_outer_reenable() {
    // outer option disabled→enabled→…; rules also toggle the inner option.
    // The inner option must remain addressable even though the outer body
    // was destroyed and re-created (the re-registration path).
    struct Pulse {
        queue: EventQueue,
        script: Vec<&'static str>,
    }
    impl Component for Pulse {
        fn class(&self) -> &'static str {
            "pulse"
        }
        fn run(&mut self, ctx: &mut RunCtx<'_>) {
            if let Some(kind) = self.script.get(ctx.iteration() as usize) {
                if !kind.is_empty() {
                    self.queue.send(Event::new(*kind));
                }
            }
        }
    }
    let q = EventQueue::new("q");
    let qc = q.clone();
    // iteration: 0 enable outer, 3 enable inner, 6 disable outer,
    // 9 enable outer (re-create; inner state was captured in the spec as
    // disabled), 12 enable inner again
    let script = vec![
        "outer",
        "",
        "",
        "inner",
        "",
        "",
        "outer_off",
        "",
        "",
        "outer",
        "",
        "",
        "inner",
    ];
    let pulse = GraphSpec::Leaf(ComponentSpec::new(
        "pulse",
        "pulse",
        factory(
            move |_p: &Params| -> Box<dyn Component> {
                Box::new(Pulse {
                    queue: qc.clone(),
                    script: script.clone(),
                })
            },
            Params::new(),
        ),
    ));
    let log: Log = Arc::new(Mutex::new(Vec::new()));
    let mgr = ManagerSpec::new("m", q)
        .on("outer", vec![EventAction::Enable("out".into())])
        .on("outer_off", vec![EventAction::Disable("out".into())])
        .on("inner", vec![EventAction::Enable("in".into())]);
    let g = GraphSpec::managed(
        mgr,
        GraphSpec::seq(vec![
            pulse,
            GraphSpec::option(
                "out",
                false,
                GraphSpec::seq(vec![
                    tick("base", &[], &["s"], 1, None),
                    GraphSpec::option(
                        "in",
                        false,
                        tick("deep", &["s"], &["s2"], 1, Some(log.clone())),
                    ),
                ]),
            ),
        ]),
    );
    let r = run_native(&g, &RunConfig::new(20).workers(2).pipeline_depth(2)).unwrap();
    assert_eq!(r.iterations, 20);
    assert!(r.reconfigs >= 4, "reconfigs = {}", r.reconfigs);
    let deep_runs = log.lock().len();
    // 'deep' ran after the first inner-enable, stopped when outer was
    // destroyed, and — the regression this test guards — ran again after
    // the second inner-enable on the re-created body
    assert!(deep_runs > 0, "inner option must have run");
    let last: u64 = log
        .lock()
        .iter()
        .map(|e| e.rsplit('@').next().unwrap().parse::<u64>().unwrap())
        .max()
        .unwrap();
    assert!(
        last >= 14,
        "inner option must run again after the outer re-enable (last={last})"
    );
}

/// Injector that sends `event` in the iterations listed in `at`.
struct ScriptedInjector {
    queue: EventQueue,
    event: &'static str,
    at: Vec<u64>,
    /// Sends per matching iteration (two = back-to-back switch in one poll).
    times: usize,
}

impl Component for ScriptedInjector {
    fn class(&self) -> &'static str {
        "scripted_injector"
    }
    fn run(&mut self, ctx: &mut RunCtx<'_>) {
        if self.at.contains(&ctx.iteration()) {
            for _ in 0..self.times {
                self.queue.send(Event::new(self.event));
            }
        }
    }
}

/// `manager { injector; src -> [option x] }` with a per-run log of the
/// option body's executions; `at`/`times` script the injector.
fn toggle_graph(at: Vec<u64>, times: usize) -> (GraphSpec, Log) {
    let log: Log = Arc::new(Mutex::new(Vec::new()));
    let q = EventQueue::new("q");
    let qc = q.clone();
    let inj = GraphSpec::Leaf(ComponentSpec::new(
        "inj",
        "scripted_injector",
        factory(
            move |_p: &Params| -> Box<dyn Component> {
                Box::new(ScriptedInjector {
                    queue: qc.clone(),
                    event: "t",
                    at: at.clone(),
                    times,
                })
            },
            Params::new(),
        ),
    ));
    let mgr = ManagerSpec::new("m", q).on("t", vec![EventAction::Toggle("o".into())]);
    let g = GraphSpec::managed(
        mgr,
        GraphSpec::seq(vec![
            inj,
            tick("a", &[], &["s"], 1, None),
            GraphSpec::option("o", false, tick("x", &["s"], &["s2"], 1, Some(log.clone()))),
        ]),
    );
    (g, log)
}

/// Iterations in which the option body ran, from its log.
fn option_iterations(log: &Log) -> Vec<u64> {
    log.lock()
        .iter()
        .map(|e| e.rsplit('@').next().unwrap().parse::<u64>().unwrap())
        .collect()
}

/// Reconfiguration events near the end of a run. At depth 1 an event
/// sent in iteration *i* is taken by the entry of *i + 1* and lands at
/// *i + 2*: sent at 3 of 6 it lands on the final iteration; sent at 4 its
/// plan would land at 6, past the run, and never applies; sent by the
/// final iteration it is never taken. All must agree and terminate
/// cleanly on every engine.
#[test]
fn reconfig_event_on_the_final_iteration() {
    use hinch::engine::run_reference;
    let cfg = RunConfig::new(6).pipeline_depth(1);
    for (sent, reconfigs, ran) in [(3, 1, vec![5]), (4, 0, vec![]), (5, 0, vec![])] {
        let (g, log) = toggle_graph(vec![sent], 1);
        let r = run_reference(&g, &cfg).unwrap();
        assert_eq!(
            (r.iterations, r.reconfigs),
            (6, reconfigs),
            "sent at {sent}"
        );
        assert_eq!(option_iterations(&log), ran, "sent at {sent}");

        let (g, log) = toggle_graph(vec![sent], 1);
        let mut p = NullPlatform::new(2);
        let r = run_sim(&g, &cfg, &mut p).unwrap();
        assert_eq!(
            (r.iterations, r.reconfigs),
            (6, reconfigs),
            "sim, sent at {sent}"
        );
        assert_eq!(option_iterations(&log), ran, "sim, sent at {sent}");

        let (g, log) = toggle_graph(vec![sent], 1);
        let r = run_native(&g, &cfg.clone().workers(2)).unwrap();
        assert_eq!(
            (r.iterations, r.reconfigs),
            (6, reconfigs),
            "native, sent at {sent}"
        );
        assert_eq!(option_iterations(&log), ran, "native, sent at {sent}");
    }
}

/// Back-to-back option switches with zero completed iterations between
/// them: events in consecutive iterations produce two quiescent windows
/// in a row (the iteration admitted after the first window immediately
/// raises the second), so the option body runs in exactly one iteration.
#[test]
fn back_to_back_switches_with_zero_iterations_between() {
    use hinch::engine::run_reference;
    let cfg = RunConfig::new(8).pipeline_depth(1);
    let run_all = || {
        let (g, log) = toggle_graph(vec![2, 3], 1);
        let r = run_reference(&g, &cfg).unwrap();
        let reference = (r.iterations, r.reconfigs, option_iterations(&log));
        let (g, log) = toggle_graph(vec![2, 3], 1);
        let mut p = NullPlatform::new(2);
        let r = run_sim(&g, &cfg, &mut p).unwrap();
        let sim = (r.iterations, r.reconfigs, option_iterations(&log));
        let (g, log) = toggle_graph(vec![2, 3], 1);
        let r = run_native(&g, &cfg.clone().workers(2)).unwrap();
        let native = (r.iterations, r.reconfigs, option_iterations(&log));
        (reference, sim, native)
    };
    let (reference, sim, native) = run_all();
    // flip@2 → polled by entry 3, applied after iteration 3 → x covers
    // iteration 4; flip@3 → polled by entry 4, applied after iteration 4.
    assert_eq!(reference, (8, 2, vec![4]));
    assert_eq!(sim, reference, "sim must agree with the oracle");
    assert_eq!(native, reference, "native must agree with the oracle");

    // Two toggles drained by a *single* poll cancel inside one plan: one
    // reconfiguration, option ends disabled, body never runs.
    let (g, log) = toggle_graph(vec![2], 2);
    let r = run_reference(&g, &cfg).unwrap();
    assert_eq!((r.iterations, r.reconfigs), (8, 1));
    assert!(option_iterations(&log).is_empty(), "enable+disable cancel");
    let (g, log) = toggle_graph(vec![2], 2);
    let mut p = NullPlatform::new(2);
    let r = run_sim(&g, &cfg, &mut p).unwrap();
    assert_eq!((r.iterations, r.reconfigs), (8, 1));
    assert!(option_iterations(&log).is_empty());
}

/// `pipeline_depth = 1` reconfiguration: with no overlap there is nothing
/// to drain — every retirement is already a quiescent point. All three
/// executors must agree on when the option body runs.
#[test]
fn depth_one_reconfig_has_no_overlap_to_drain() {
    use hinch::engine::run_reference;
    let cfg = RunConfig::new(12).pipeline_depth(1);
    let (g, log) = toggle_graph(vec![1, 6], 1);
    let r = run_reference(&g, &cfg).unwrap();
    assert_eq!((r.iterations, r.reconfigs), (12, 2));
    // enabled after iteration 2 retires, disabled after iteration 7.
    let oracle_iters = option_iterations(&log);
    assert_eq!(oracle_iters, vec![3, 4, 5, 6, 7]);

    let (g, log) = toggle_graph(vec![1, 6], 1);
    let mut p = NullPlatform::new(3);
    let r = run_sim(&g, &cfg, &mut p).unwrap();
    assert_eq!((r.iterations, r.reconfigs), (12, 2));
    assert_eq!(option_iterations(&log), oracle_iters);

    let (g, log) = toggle_graph(vec![1, 6], 1);
    let r = run_native(&g, &cfg.workers(3)).unwrap();
    assert_eq!((r.iterations, r.reconfigs), (12, 2));
    assert_eq!(option_iterations(&log), oracle_iters);
}

#[test]
fn soak_thousands_of_iterations_with_reconfig_churn() {
    struct Churn {
        queue: EventQueue,
    }
    impl Component for Churn {
        fn class(&self) -> &'static str {
            "churn"
        }
        fn run(&mut self, ctx: &mut RunCtx<'_>) {
            if ctx.iteration() % 50 == 49 {
                self.queue.send(Event::new("t"));
            }
        }
    }
    let q = EventQueue::new("q");
    let qc = q.clone();
    let churn = GraphSpec::Leaf(ComponentSpec::new(
        "churn",
        "churn",
        factory(
            move |_p: &Params| -> Box<dyn Component> { Box::new(Churn { queue: qc.clone() }) },
            Params::new(),
        ),
    ));
    let mgr = ManagerSpec::new("m", q).on("t", vec![EventAction::Toggle("o".into())]);
    let g = GraphSpec::managed(
        mgr,
        GraphSpec::seq(vec![
            churn,
            tick("a", &[], &["s"], 1, None),
            GraphSpec::slice("sl", 4, sink("w", &["s"])),
            GraphSpec::option("o", false, tick("x", &["s"], &["s2"], 1, None)),
        ]),
    );
    // Native soak: output/invariant checks only (no wall-clock bound —
    // completion is the liveness check, timing flakes on loaded CI).
    let r = run_native(&g, &RunConfig::new(3000).workers(4).pipeline_depth(5)).unwrap();
    assert_eq!(r.iterations, 3000);
    assert!(r.reconfigs >= 50, "reconfigs = {}", r.reconfigs);
}
