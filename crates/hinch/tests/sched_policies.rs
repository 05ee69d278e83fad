//! The seeded exploration policies steer the one native worker loop.
//!
//! `RunConfig::sched` selects no engine: a non-default policy orders each
//! completion's readied batch — which job rides the direct handoff, and
//! the order the rest are queued in. At one worker the loop is
//! deterministic, so each policy walks one repeatable schedule of a
//! fan-out, and FIFO and LIFO walk different ones. Fails if the pick hook
//! ignores the policy.

use hinch::component::{Component, Params, RunCtx};
use hinch::engine::{run_native, RunConfig};
use hinch::graph::{factory, ComponentSpec, GraphSpec};
use hinch::trace::{Clock, Recorder, TraceEvent};
use hinch::SchedPolicy;

struct Nop;
impl Component for Nop {
    fn class(&self) -> &'static str {
        "nop"
    }
    fn run(&mut self, _ctx: &mut RunCtx<'_>) {}
}

fn nop(name: &str) -> GraphSpec {
    GraphSpec::leaf(ComponentSpec::new(
        name,
        "nop",
        factory(
            |_p: &Params| -> Box<dyn Component> { Box::new(Nop) },
            Params::new(),
        ),
    ))
}

/// Component execution order of six frames of `src → {a, b, c, d} → join`
/// on one worker, read back from the job spans in recording order.
fn walk(policy: SchedPolicy) -> Vec<(u64, String)> {
    let g = GraphSpec::seq(vec![
        nop("src"),
        GraphSpec::task(vec![nop("a"), nop("b"), nop("c"), nop("d")]),
        nop("join"),
    ]);
    let rec = Recorder::new(Clock::WallNanos);
    let cfg = RunConfig::new(6).workers(1).sched(policy).trace(rec.sink());
    let report = run_native(&g, &cfg).unwrap();
    assert_eq!(report.iterations, 6, "{}", policy.label());
    rec.events()
        .into_iter()
        .filter_map(|e| match e {
            TraceEvent::JobSpan { label, iter, .. } => Some((iter, label)),
            _ => None,
        })
        .collect()
}

#[test]
fn sched_policies_steer_the_worker_loop() {
    let policies = [
        SchedPolicy::Fifo,
        SchedPolicy::Lifo,
        SchedPolicy::Shuffle(7),
        SchedPolicy::Perturb(7),
    ];
    let walks: Vec<_> = policies.iter().map(|&p| walk(p)).collect();
    for (policy, first) in policies.iter().zip(&walks) {
        assert_eq!(first.len(), 6 * 6, "{}", policy.label());
        assert_eq!(*first, walk(*policy), "{} must replay", policy.label());
    }
    assert_ne!(walks[0], walks[1], "fifo and lifo pick differently");
}
