//! Random SPC graph generation for metamorphic testing.
//!
//! Factored out of the repository's `tests/random_graphs.rs` so both the
//! root proptest suite and the conformance crate's metamorphic layer
//! share one generator. A [`Shape`] is an abstract SPC tree; [`build_app`]
//! lowers it to a concrete [`GraphSpec`] of deterministic integer-mixing
//! components: every stream carries a shared `RegionBuf<i64>`, leaves
//! fold their inputs with a salt and fill their slice's slots, and a
//! final `record` sink appends one folded value per iteration to a
//! shared vector — the run's observable output.
//!
//! The workload is deliberately schedule-independent *by construction*
//! (pure functions of the iteration index and upstream values, disjoint
//! slice leases), so any cross-schedule divergence the metamorphic layer
//! observes is a runtime bug, not test noise.

use hinch::component::{Component, Params, ReconfigRequest, RunCtx, SliceAssign};
use hinch::graph::{factory, ComponentSpec, GraphSpec};
use hinch::sharedbuf::RegionBuf;
use parking_lot::Mutex;
use proptest::prelude::*;
use std::sync::Arc;

/// Deterministic 2-to-1 mixer (the workload's "computation").
pub fn mix(a: i64, b: i64) -> i64 {
    a.wrapping_mul(6364136223846793005)
        .wrapping_add(b)
        .rotate_left(17)
}

/// Fold a whole shared buffer to one value.
pub fn fold(buf: &RegionBuf<i64>) -> i64 {
    buf.lease_read_all()
        .iter()
        .fold(0i64, |acc, &v| mix(acc, v))
}

struct Mix {
    salt: i64,
    assign: SliceAssign,
}

impl Component for Mix {
    fn class(&self) -> &'static str {
        "mix"
    }
    fn run(&mut self, ctx: &mut RunCtx<'_>) {
        let mut acc = mix(ctx.iteration() as i64, self.salt);
        for p in 0..ctx.num_inputs() {
            let buf = ctx.read::<RegionBuf<i64>>(p);
            acc = mix(acc, fold(&buf));
        }
        let total = self.assign.total;
        let out = ctx.write_shared(0, |old| RegionBuf::<i64>::renew(old, "mix", total));
        out.lease_write(self.assign.range(total)).fill(acc);
        ctx.charge(7);
    }
    fn reconfigure(&mut self, req: &ReconfigRequest) {
        if let ReconfigRequest::Slice(a) = req {
            self.assign = *a;
        }
    }
}

struct Record {
    out: Arc<Mutex<Vec<i64>>>,
}

impl Component for Record {
    fn class(&self) -> &'static str {
        "record"
    }
    fn run(&mut self, ctx: &mut RunCtx<'_>) {
        let buf = ctx.read::<RegionBuf<i64>>(0);
        self.out.lock().push(fold(&buf));
    }
}

/// A leaf mixing `inputs` into `output` with the given salt.
pub fn mix_leaf(name: String, inputs: Vec<String>, output: String, salt: i64) -> GraphSpec {
    let mut c = ComponentSpec::new(
        name,
        "mix",
        factory(
            move |_p: &Params| -> Box<dyn Component> {
                Box::new(Mix {
                    salt,
                    assign: SliceAssign::WHOLE,
                })
            },
            Params::new(),
        ),
    );
    for i in inputs {
        c = c.input(i);
    }
    c = c.output(output);
    GraphSpec::Leaf(c)
}

/// An abstract SPC tree shape.
#[derive(Debug, Clone)]
pub enum Shape {
    Leaf,
    Seq(Vec<Shape>),
    Task(Vec<Shape>),
    Slice(usize, Box<Shape>),
}

/// Proptest strategy over [`Shape`]s: up to 3 nesting levels, ~24 nodes.
pub fn shape_strategy() -> impl Strategy<Value = Shape> {
    let leaf = Just(Shape::Leaf);
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 1..4).prop_map(Shape::Seq),
            proptest::collection::vec(inner.clone(), 1..4).prop_map(Shape::Task),
            (2usize..5, inner).prop_map(|(n, s)| Shape::Slice(n, Box::new(s))),
        ]
    })
}

struct GraphGen {
    counter: usize,
}

impl GraphGen {
    fn fresh(&mut self, prefix: &str) -> String {
        self.counter += 1;
        format!("{prefix}{}", self.counter)
    }

    /// Build a subtree consuming `input` and producing `output`.
    fn build(&mut self, shape: &Shape, input: &str, output: &str) -> GraphSpec {
        match shape {
            Shape::Leaf => {
                let name = self.fresh("leaf");
                mix_leaf(
                    name,
                    vec![input.to_string()],
                    output.to_string(),
                    self.counter as i64,
                )
            }
            Shape::Seq(children) => {
                let mut parts = Vec::new();
                let mut current = input.to_string();
                for (i, child) in children.iter().enumerate() {
                    let next = if i + 1 == children.len() {
                        output.to_string()
                    } else {
                        self.fresh("s")
                    };
                    parts.push(self.build(child, &current, &next));
                    current = next;
                }
                GraphSpec::Seq(parts)
            }
            Shape::Task(children) => {
                // children in parallel on separate outputs, then a join
                let mut parts = Vec::new();
                let mut outs = Vec::new();
                for child in children {
                    let out = self.fresh("t");
                    parts.push(self.build(child, input, &out));
                    outs.push(out);
                }
                let join = mix_leaf(self.fresh("join"), outs, output.to_string(), 99);
                GraphSpec::seq(vec![GraphSpec::Task(parts), join])
            }
            Shape::Slice(n, body) => {
                let name = self.fresh("slice");
                GraphSpec::Slice {
                    name,
                    n: *n,
                    body: Box::new(self.build(body, input, output)),
                }
            }
        }
    }
}

/// Lower `shape` to a runnable spec. The returned vector receives one
/// folded output value per iteration — the run's observable output.
pub fn build_app(shape: &Shape) -> (GraphSpec, Arc<Mutex<Vec<i64>>>) {
    let mut gen = GraphGen { counter: 0 };
    let body = gen.build(shape, "src_out", "final");
    let src = mix_leaf("src".into(), vec![], "src_out".into(), 1);
    let out = Arc::new(Mutex::new(Vec::new()));
    let sink_out = out.clone();
    let sink = GraphSpec::Leaf(
        ComponentSpec::new(
            "sink",
            "record",
            factory(
                move |_p: &Params| -> Box<dyn Component> {
                    Box::new(Record {
                        out: sink_out.clone(),
                    })
                },
                Params::new(),
            ),
        )
        .input("final"),
    );
    (GraphSpec::seq(vec![src, body, sink]), out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hinch::engine::{run_reference, RunConfig};

    #[test]
    fn built_specs_validate_and_run() {
        let shape = Shape::Seq(vec![
            Shape::Leaf,
            Shape::Task(vec![Shape::Leaf, Shape::Slice(3, Box::new(Shape::Leaf))]),
        ]);
        let (spec, out) = build_app(&shape);
        spec.validate().expect("generated spec validates");
        run_reference(&spec, &RunConfig::new(3)).unwrap();
        assert_eq!(out.lock().len(), 3);
    }

    #[test]
    fn generated_specs_are_analyze_clean() {
        let shape = Shape::Slice(4, Box::new(Shape::Task(vec![Shape::Leaf, Shape::Leaf])));
        let (spec, _) = build_app(&shape);
        let diags = analyze::check_spec(&spec);
        assert!(diags.is_empty(), "{}", diags.render_human());
    }
}
