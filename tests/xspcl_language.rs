//! Language-level integration tests: the paper's XSPCL constructs driven
//! through compile *and* execution.

use hinch::component::{Component, Params, RunCtx};
use hinch::engine::{run_native, run_reference, RunConfig};
use hinch::event::EventQueue;
use parking_lot::Mutex;
use std::sync::Arc;
use xspcl::elaborate::ComponentRegistry;

type Log = Arc<Mutex<Vec<String>>>;

/// Registry with tiny introspectable components:
/// * `emit` — writes its `value` param (i64) to port 0, logs `name@iter`;
/// * `sum` — reads all inputs, writes the sum, logs;
/// * `probe` — reads port 0 and logs `name=value@iter`;
/// * `ping` — sends its `event` param to the `events` queue every
///   iteration.
fn registry(log: &Log) -> ComponentRegistry {
    struct Emit {
        name: String,
        value: i64,
        log: Log,
    }
    impl Component for Emit {
        fn class(&self) -> &'static str {
            "emit"
        }
        fn run(&mut self, ctx: &mut RunCtx<'_>) {
            self.log
                .lock()
                .push(format!("{}@{}", self.name, ctx.iteration()));
            for p in 0..ctx.num_outputs() {
                ctx.write(p, self.value);
            }
        }
    }
    struct Sum {
        name: String,
        log: Log,
    }
    impl Component for Sum {
        fn class(&self) -> &'static str {
            "sum"
        }
        fn run(&mut self, ctx: &mut RunCtx<'_>) {
            let mut total = 0i64;
            for p in 0..ctx.num_inputs() {
                total += *ctx.read::<i64>(p);
            }
            self.log
                .lock()
                .push(format!("{}@{}", self.name, ctx.iteration()));
            for p in 0..ctx.num_outputs() {
                ctx.write(p, total);
            }
        }
    }
    struct Probe {
        name: String,
        log: Log,
    }
    impl Component for Probe {
        fn class(&self) -> &'static str {
            "probe"
        }
        fn run(&mut self, ctx: &mut RunCtx<'_>) {
            let v = *ctx.read::<i64>(0);
            self.log
                .lock()
                .push(format!("{}={}@{}", self.name, v, ctx.iteration()));
        }
    }
    struct Ping {
        queue: EventQueue,
        event: String,
    }
    impl Component for Ping {
        fn class(&self) -> &'static str {
            "ping"
        }
        fn run(&mut self, _ctx: &mut RunCtx<'_>) {
            self.queue
                .send(hinch::event::Event::new(self.event.clone()));
        }
    }

    let mut reg = ComponentRegistry::new();
    let l = log.clone();
    reg.register("emit", move |p: &Params| -> Box<dyn Component> {
        Box::new(Emit {
            name: p.str_or("name", "emit").to_string(),
            value: p.int_or("value", 1),
            log: l.clone(),
        })
    });
    let l = log.clone();
    reg.register("sum", move |p: &Params| -> Box<dyn Component> {
        Box::new(Sum {
            name: p.str_or("name", "sum").to_string(),
            log: l.clone(),
        })
    });
    let l = log.clone();
    reg.register("probe", move |p: &Params| -> Box<dyn Component> {
        Box::new(Probe {
            name: p.str_or("name", "probe").to_string(),
            log: l.clone(),
        })
    });
    reg.register("ping", |p: &Params| -> Box<dyn Component> {
        Box::new(Ping {
            queue: p.queue("events"),
            event: p.str("event").to_string(),
        })
    });
    reg
}

fn run(src: &str, iterations: u64, workers: usize) -> Log {
    let log: Log = Arc::new(Mutex::new(Vec::new()));
    let reg = registry(&log);
    let e = xspcl::compile(src, &reg).expect("compiles");
    run_native(&e.spec, &RunConfig::new(iterations).workers(workers)).unwrap();
    log
}

#[test]
fn procedures_expand_with_parameters() {
    // two calls of the same procedure with different actuals
    let log = run(
        r#"<xspcl>
             <procedure name="main">
               <stream name="a"/><stream name="b"/>
               <body>
                 <call procedure="gen"><bind formal="out" stream="a"/><param name="v" value="10"/></call>
                 <call procedure="gen"><bind formal="out" stream="b"/></call>
                 <component name="s" class="sum"><in stream="a"/><in stream="b"/><out stream="t"/></component>
                 <component name="p" class="probe"><in stream="t"/><param name="name" value="p"/></component>
               </body>
             </procedure>
             <procedure name="gen">
               <formal name="v" default="5"/>
               <formalstream name="out"/>
               <body>
                 <component name="g" class="emit"><out stream="out"/><param name="value" value="$v"/></component>
               </body>
             </procedure>
           </xspcl>"#
            .replace("<stream name=\"a\"/>", "<stream name=\"a\"/><stream name=\"t\"/>")
            .as_str(),
        3,
        2,
    );
    let entries = log.lock().clone();
    // 10 (explicit) + 5 (default) = 15, every iteration
    for iter in 0..3 {
        assert!(
            entries.contains(&format!("p=15@{iter}")),
            "missing p=15@{iter}: {entries:?}"
        );
    }
}

#[test]
fn task_groups_synchronize_at_join() {
    let log = run(
        r#"<xspcl><procedure name="main">
             <stream name="x"/><stream name="y"/>
             <body>
               <parallel shape="task" name="t">
                 <parblock><component name="l" class="emit"><out stream="x"/><param name="value" value="1"/><param name="name" value="l"/></component></parblock>
                 <parblock><component name="r" class="emit"><out stream="y"/><param name="value" value="2"/><param name="name" value="r"/></component></parblock>
               </parallel>
               <component name="j" class="sum"><in stream="x"/><in stream="y"/><out stream="z"/><param name="name" value="j"/></component>
               <component name="p" class="probe"><in stream="z"/><param name="name" value="p"/></component>
             </body>
           </procedure></xspcl>"#
            .replace("<stream name=\"x\"/>", "<stream name=\"x\"/><stream name=\"z\"/>")
            .as_str(),
        5,
        3,
    );
    let entries = log.lock().clone();
    for iter in 0..5 {
        // the join always sees both parblocks' outputs
        assert!(entries.contains(&format!("p=3@{iter}")));
        // and runs after both (positions in the per-iteration log)
        let pos = |name: &str| {
            entries
                .iter()
                .position(|e| e == &format!("{name}@{iter}"))
                .unwrap()
        };
        let jpos = entries
            .iter()
            .position(|e| e == &format!("j@{iter}"))
            .unwrap();
        assert!(pos("l") < jpos && pos("r") < jpos);
    }
}

#[test]
fn manager_toggles_option_from_component_events() {
    // ping fires every iteration; manager toggles the probe branch
    let src = r#"<xspcl>
        <queue name="mq"/>
        <procedure name="main">
          <stream name="a"/>
          <body>
            <manager name="m" queue="mq">
              <on event="go"><toggle option="extra"/></on>
              <body>
                <component name="png" class="ping">
                  <param name="events" queue="mq"/><param name="event" value="go"/>
                </component>
                <component name="g" class="emit"><out stream="a"/><param name="value" value="7"/></component>
                <option name="extra" enabled="false">
                  <component name="x" class="probe"><in stream="a"/><param name="name" value="x"/></component>
                </option>
              </body>
            </manager>
          </body>
        </procedure>
      </xspcl>"#;
    // A fresh compile (and event queue) per run; the probe's log lines.
    let compile = |log: &Log| xspcl::compile(src, &registry(log)).expect("compiles");
    let probes = |log: &Log| -> Vec<String> {
        let entries = log.lock();
        entries
            .iter()
            .filter(|e| e.starts_with("x="))
            .cloned()
            .collect()
    };

    // Ping's `go` of iteration j is due at j + d; the entry of that
    // iteration takes it and the toggle lands at j + 2d. From iteration 2d
    // on, every iteration flips the option: it is on in 2d, 2d + 2, ...
    // The oracle (one iteration in flight, program order) says so at every
    // depth, and so does every native schedule at that depth.
    let frames = 20u64;
    for depth in [1usize, 5] {
        let want: Vec<String> = (2 * depth as u64..frames)
            .step_by(2)
            .map(|i| format!("x=7@{i}"))
            .collect();
        let cfg = RunConfig::new(frames).pipeline_depth(depth);
        let log: Log = Arc::new(Mutex::new(Vec::new()));
        let report = run_reference(&compile(&log).spec, &cfg).unwrap();
        assert_eq!(report.reconfigs, frames - 2 * depth as u64, "depth {depth}");
        assert_eq!(probes(&log), want, "reference, depth {depth}");

        let log: Log = Arc::new(Mutex::new(Vec::new()));
        let report = run_native(&compile(&log).spec, &cfg.clone().workers(2)).unwrap();
        assert_eq!(report.iterations, frames);
        assert_eq!(report.reconfigs, frames - 2 * depth as u64, "depth {depth}");
        assert_eq!(probes(&log), want, "native, depth {depth}");
    }
}

#[test]
fn forward_action_relays_events() {
    // manager m1 forwards to mq2; manager m2 toggles on the forwarded event
    let src = r#"<xspcl>
        <queue name="mq1"/><queue name="mq2"/>
        <procedure name="main">
          <stream name="a"/>
          <body>
            <manager name="m1" queue="mq1">
              <on event="go"><forward queue="mq2"/></on>
              <body>
                <component name="png" class="ping">
                  <param name="events" queue="mq1"/><param name="event" value="go"/>
                </component>
              </body>
            </manager>
            <manager name="m2" queue="mq2">
              <on event="go"><toggle option="opt"/></on>
              <body>
                <component name="g" class="emit"><out stream="a"/></component>
                <option name="opt" enabled="false">
                  <component name="x" class="probe"><in stream="a"/></component>
                </option>
              </body>
            </manager>
          </body>
        </procedure>
      </xspcl>"#;
    let log: Log = Arc::new(Mutex::new(Vec::new()));
    let reg = registry(&log);
    let e = xspcl::compile(src, &reg).expect("compiles");
    let report = run_native(&e.spec, &RunConfig::new(16).workers(2)).unwrap();
    assert!(report.reconfigs >= 1, "forwarded events must reach m2");
}

#[test]
fn crossdep_runs_with_elaborated_n() {
    // crossdep through a procedure formal for n (the paper's abstraction)
    let src = r#"<xspcl>
        <procedure name="main">
          <stream name="a"/><stream name="m"/><stream name="z"/>
          <body>
            <component name="g" class="emit"><out stream="a"/><param name="value" value="3"/></component>
            <parallel shape="crossdep" n="4" name="cd">
              <parblock><component name="h" class="sum"><in stream="a"/><out stream="m"/></component></parblock>
              <parblock><component name="v" class="sum"><in stream="m"/><out stream="z"/></component></parblock>
            </parallel>
            <component name="p" class="probe"><in stream="z"/></component>
          </body>
        </procedure>
      </xspcl>"#;
    let log: Log = Arc::new(Mutex::new(Vec::new()));
    let reg = registry(&log);
    let e = xspcl::compile(src, &reg).expect("compiles");
    // 4 copies of h and v each; h copies all write 'm'... sum writes with
    // ctx.write → double write. Expect the run to PANIC, proving the
    // runtime catches misuse of non-shared writes in replicated groups.
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_native(&e.spec, &RunConfig::new(2).workers(1))
    }));
    assert!(
        result.is_err(),
        "plain writes from replicated copies must trip the double-write check"
    );
}

#[test]
fn glue_codegen_compiles_structurally() {
    // generated Rust glue for a real app mentions every instance exactly once
    let cfg = apps::pip::PipConfig::small(1);
    let app = apps::pip::build(&cfg).unwrap();
    let queues: Vec<String> = app.elaborated.queues.keys().cloned().collect();
    let code = xspcl::codegen::emit_rust(&app.elaborated.spec, &queues);
    let mut names = Vec::new();
    app.elaborated
        .spec
        .visit_leaves(&mut |c| names.push(c.name.clone()));
    for name in names {
        assert_eq!(
            code.matches(&format!("\"{name}\"")).count(),
            1,
            "instance {name} must appear exactly once"
        );
    }
}
