//! Native engine driver: one run of one graph on real worker threads.
//!
//! There is one native engine, the work-stealing multi-graph [`Runtime`]
//! of [`super::multi`]; [`run_native`] is that runtime with one tenant.
//! The paper's central-job-queue policy is not executed here: it is the
//! policy of the sequential engine ([`super::sim`]), the simulator every
//! reproduced figure comes from and the oracle ([`super::run_reference`]).

use super::multi::{RunProbe, Runtime, RuntimeConfig, SpawnOpts, WorkerTelemetry};
use super::RunConfig;
use crate::error::HinchError;
use crate::graph::instance::instantiate_graph_sized;
use crate::graph::GraphSpec;
use crate::report::RunReport;
use crate::sync::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Run `spec` for `cfg.iterations` iterations on `cfg.workers` threads:
/// start a pool, spawn the graph, submit every iteration (admission then
/// proceeds `cfg.pipeline_depth` at a time), drain, join, report.
///
/// Returns once every iteration completed. Component panics propagate to
/// the caller, except shared-buffer lease conflicts, which return as
/// [`HinchError::LeaseConflict`]. A non-default `cfg.sched` steers the
/// worker loop's pick hook (which readied job a completion hands off, and
/// the order the rest are queued in); every policy walks a valid schedule.
pub fn run_native(spec: &GraphSpec, cfg: &RunConfig) -> Result<RunReport, HinchError> {
    spec.validate()?;
    cfg.validate()?;
    let inst = instantiate_graph_sized(spec, cfg.pipeline_depth);
    let probe = Arc::new(RunProbe {
        trace: cfg.trace.clone(),
        sched: cfg.sched,
        panic: Mutex::new(None),
    });

    // `elapsed` covers what it always has — starting the workers, and the
    // run from its first admission to the join — and not building the
    // graph's scheduling state in between.
    let spawning = Instant::now();
    let rt = Runtime::start(RuntimeConfig::new(cfg.workers), Some(Arc::clone(&probe)));
    let spawned = spawning.elapsed();
    let opts = SpawnOpts::new("run_native")
        .pipeline_depth(cfg.pipeline_depth)
        .max_backlog(cfg.iterations);
    let id = rt.install(inst, opts);
    let running = Instant::now();
    let accepted = rt
        .submit(id, cfg.iterations)
        .expect("a fresh tenant on a live pool accepts frames");
    assert_eq!(accepted, cfg.iterations, "the backlog bound is the run");
    // Per-node time is read from the tenant's counters after its last
    // retirement, on this thread: a worker then allocates nothing the
    // report keeps. (What a worker allocates and leaves behind pins its
    // allocator arena, and the memory the run freed there — captured
    // frames, stream payloads — is then never returned to the system.)
    let mut per_node = HashMap::new();
    let drained = rt.drain_then(id, |core| per_node = core.node_times());
    // Joins the pool: any panic payload is in place before the probe is
    // read below.
    rt.shutdown();
    let elapsed = spawned + running.elapsed();

    let stats = match drained {
        Ok(stats) => stats,
        Err(_) => {
            let payload = probe
                .panic
                .lock()
                .take()
                .expect("a tenant only fails by a caught component panic");
            // A lease conflict is the scheduling-bug detector firing:
            // surface it as a structured error. Any other panic is an
            // application bug and keeps propagating.
            return match payload.downcast::<crate::sharedbuf::LeaseConflict>() {
                Ok(conflict) => Err(HinchError::LeaseConflict(*conflict)),
                Err(payload) => std::panic::resume_unwind(payload),
            };
        }
    };
    let workers = rt.telemetry().workers;
    let times = |ns: fn(&WorkerTelemetry) -> u64| -> Vec<Duration> {
        workers
            .iter()
            .map(|w| Duration::from_nanos(ns(w)))
            .collect()
    };
    Ok(RunReport {
        iterations: stats.completed,
        elapsed,
        jobs_executed: stats.jobs_executed,
        reconfigs: stats.reconfigs,
        workers: cfg.workers,
        per_node,
        core_busy: times(|w| w.busy_ns),
        core_idle: times(|w| w.idle_ns),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::{Component, Params, RunCtx};
    use crate::event::{Event, EventQueue};
    use crate::graph::testutil::{leaf, recorder_leaf, slice_leaf};
    use crate::graph::{factory, ComponentSpec, GraphSpec, ManagerSpec};
    use crate::manager::EventAction;
    use crate::sharedbuf::RegionBuf;
    use crate::sync::Mutex as PMutex;
    use std::sync::Arc;

    /// Sink that sums a shared RegionBuf<i64> and records the sum.
    struct BufRecorder {
        out: Arc<PMutex<Vec<i64>>>,
    }
    impl Component for BufRecorder {
        fn class(&self) -> &'static str {
            "buf_recorder"
        }
        fn run(&mut self, ctx: &mut RunCtx<'_>) {
            let buf = ctx.read::<RegionBuf<i64>>(0);
            let sum: i64 = buf.lease_read_all().iter().sum();
            self.out.lock().push(sum);
        }
    }

    fn buf_recorder_leaf(stream: &str, out: Arc<PMutex<Vec<i64>>>) -> GraphSpec {
        let f = factory(
            move |_p: &Params| -> Box<dyn Component> { Box::new(BufRecorder { out: out.clone() }) },
            Params::new(),
        );
        GraphSpec::Leaf(ComponentSpec::new("brec", "buf_recorder", f).input(stream))
    }

    #[test]
    fn pipeline_produces_every_iteration() {
        for workers in [1, 2, 4] {
            let out = Arc::new(PMutex::new(Vec::new()));
            let g = GraphSpec::seq(vec![
                leaf("src", &[], &["a"], 1),
                leaf("mid", &["a"], &["b"], 10),
                recorder_leaf("b", out.clone()),
            ]);
            let report = run_native(&g, &RunConfig::new(20).workers(workers)).unwrap();
            assert_eq!(report.iterations, 20);
            let vals = out.lock();
            // adder chain: 1 then +10 → 11, every iteration, in order
            assert_eq!(*vals, vec![11i64; 20]);
        }
    }

    #[test]
    fn task_parallel_graph_runs() {
        let out = Arc::new(PMutex::new(Vec::new()));
        let g = GraphSpec::seq(vec![
            leaf("src", &[], &["s"], 5),
            GraphSpec::task(vec![
                leaf("l", &["s"], &["ls"], 1),
                leaf("r", &["s"], &["rs"], 2),
            ]),
            leaf("join", &["ls", "rs"], &["out"], 0),
            recorder_leaf("out", out.clone()),
        ]);
        let report = run_native(&g, &RunConfig::new(8).workers(3)).unwrap();
        assert_eq!(report.iterations, 8);
        // join = (5+1) + (5+2) = 13
        assert_eq!(*out.lock(), vec![13i64; 8]);
    }

    #[test]
    fn sliced_group_fills_shared_buffer() {
        for workers in [1, 3] {
            let out = Arc::new(PMutex::new(Vec::new()));
            let g = GraphSpec::seq(vec![
                leaf("src", &[], &["s"], 2),
                GraphSpec::slice("sl", 4, slice_leaf("w", "s", "o", 3)),
                buf_recorder_leaf("o", out.clone()),
            ]);
            let report = run_native(&g, &RunConfig::new(10).workers(workers)).unwrap();
            assert_eq!(report.iterations, 10);
            // each copy writes (2+3+index); sum = 4*5 + (0+1+2+3) = 26
            assert_eq!(*out.lock(), vec![26i64; 10]);
        }
    }

    #[test]
    fn reconfiguration_toggles_option() {
        // src -> [option add100] -> recorder; an injector toggles the
        // option via the manager every 4 iterations.
        struct Injector {
            queue: EventQueue,
            every: u64,
        }
        impl Component for Injector {
            fn class(&self) -> &'static str {
                "injector"
            }
            fn run(&mut self, ctx: &mut RunCtx<'_>) {
                if ctx.iteration() % self.every == self.every - 1 {
                    self.queue.send(Event::new("flip"));
                }
            }
        }
        let q = EventQueue::new("mq");
        let qc = q.clone();
        let injector = factory(
            move |_p: &Params| -> Box<dyn Component> {
                Box::new(Injector {
                    queue: qc.clone(),
                    every: 4,
                })
            },
            Params::new(),
        );

        let out = Arc::new(PMutex::new(Vec::new()));
        let mgr =
            ManagerSpec::new("m", q.clone()).on("flip", vec![EventAction::Toggle("bonus".into())]);
        let g = GraphSpec::managed(
            mgr,
            GraphSpec::seq(vec![
                GraphSpec::Leaf(ComponentSpec::new("inj", "injector", injector)),
                leaf("src", &[], &["a"], 1),
                GraphSpec::option("bonus", false, leaf("bonus", &["a"], &["a2"], 100)),
                recorder_leaf("a", out.clone()),
            ]),
        );
        let report = run_native(&g, &RunConfig::new(24).workers(2)).unwrap();
        assert_eq!(report.iterations, 24);
        assert!(
            report.reconfigs >= 2,
            "expected several reconfigurations, got {}",
            report.reconfigs
        );
        assert_eq!(out.lock().len(), 24);
    }

    /// A leaf's counts survive the reconfiguration that removes it: the
    /// window swap folds them into the tenant's totals.
    #[test]
    fn disabled_leaf_keeps_its_counts() {
        let q = EventQueue::new("mq");
        let mgr =
            ManagerSpec::new("m", q.clone()).on("flip", vec![EventAction::Toggle("extra".into())]);
        let g = GraphSpec::managed(
            mgr,
            GraphSpec::seq(vec![
                leaf("src", &[], &["a"], 1),
                GraphSpec::option("extra", true, leaf("opt", &["a"], &["b"], 1)),
                leaf("snk", &["a"], &[], 0),
            ]),
        );
        // Polled by iteration 0's manager entry: with one iteration in
        // flight, `opt` runs in iteration 0 alone.
        q.send(Event::new("flip"));
        for workers in [1, 2] {
            let cfg = RunConfig::new(6).workers(workers).pipeline_depth(1);
            let report = run_native(&g, &cfg).unwrap();
            assert_eq!(report.reconfigs, 1);
            assert_eq!(report.per_node["opt"].0, 1, "{workers} workers");
            assert_eq!(report.per_node["src"].0, 6);
            assert_eq!(report.per_node["snk"].0, 6);
            let jobs: u64 = report.per_node.values().map(|(jobs, _)| jobs).sum();
            assert_eq!(jobs, report.jobs_executed - 2 * 6, "every component job");
            q.send(Event::new("flip")); // the next run starts as this one did
        }
    }

    #[test]
    fn deterministic_across_worker_counts() {
        let mk = |workers| {
            let out = Arc::new(PMutex::new(Vec::new()));
            let g = GraphSpec::seq(vec![
                leaf("src", &[], &["s"], 2),
                GraphSpec::slice("sl", 4, slice_leaf("w", "s", "o", 3)),
                buf_recorder_leaf("o", out.clone()),
            ]);
            run_native(&g, &RunConfig::new(10).workers(workers)).unwrap();
            let vals = out.lock().clone();
            vals
        };
        let one = mk(1);
        let four = mk(4);
        assert_eq!(one, four);
        assert_eq!(one.len(), 10);
    }

    #[test]
    fn rejects_zero_workers() {
        let g = leaf("a", &[], &["s"], 0);
        let err = run_native(&g, &RunConfig::new(1).workers(0)).unwrap_err();
        assert!(matches!(err, HinchError::InvalidConfig { ref param, .. } if param == "workers"));
    }

    #[test]
    fn component_panic_propagates() {
        struct Bomb;
        impl Component for Bomb {
            fn class(&self) -> &'static str {
                "bomb"
            }
            fn run(&mut self, ctx: &mut RunCtx<'_>) {
                if ctx.iteration() == 3 {
                    panic!("boom at iteration 3");
                }
            }
        }
        let f = factory(
            |_p: &Params| -> Box<dyn Component> { Box::new(Bomb) },
            Params::new(),
        );
        let g = GraphSpec::Leaf(ComponentSpec::new("bomb", "bomb", f));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = run_native(&g, &RunConfig::new(10).workers(2));
        }));
        assert!(result.is_err());
    }

    #[test]
    fn lease_conflict_surfaces_as_structured_error() {
        // every copy ignores its assignment and claims the whole buffer
        struct Greedy;
        impl Component for Greedy {
            fn class(&self) -> &'static str {
                "greedy"
            }
            fn run(&mut self, ctx: &mut RunCtx<'_>) {
                let buf = ctx.write_shared(0, |old| RegionBuf::<i64>::renew(old, "greedy.out", 32));
                let mut w = buf.lease_write(0..32);
                w[0] = 1;
                crate::sync::thread::sleep(std::time::Duration::from_millis(5));
            }
        }
        let f = factory(
            |_p: &Params| -> Box<dyn Component> { Box::new(Greedy) },
            Params::new(),
        );
        let g = GraphSpec::seq(vec![
            leaf("src", &[], &["s"], 0),
            GraphSpec::slice(
                "sl",
                4,
                GraphSpec::Leaf(ComponentSpec::new("g", "greedy", f).input("s").output("o")),
            ),
            buf_recorder_leaf("o", Arc::new(PMutex::new(Vec::new()))),
        ]);
        let err = run_native(&g, &RunConfig::new(4).workers(4)).unwrap_err();
        let HinchError::LeaseConflict(c) = err else {
            panic!("expected LeaseConflict, got {err}");
        };
        assert_eq!(c.buffer, "greedy.out");
        assert!(
            c.holder.as_deref().is_some_and(|h| h.starts_with("g#")),
            "holder names the slice copy: {:?}",
            c.holder
        );
        assert!(
            c.requester.as_deref().is_some_and(|r| r.starts_with("g#")),
            "requester names the slice copy: {:?}",
            c.requester
        );
    }
}
