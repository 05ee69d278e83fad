//! The analyzer's view of an elaborated graph.
//!
//! [`build`] walks a [`GraphSpec`] once and records, per component leaf,
//! the *branch path* from the root — the (kind, child-index) of every
//! Seq/Task/CrossDep ancestor. Two leaves' scheduling relation
//! ([`relation`]) is decided entirely by the first step where their paths
//! diverge: a `seq` group orders them, a `task` group runs them
//! concurrently, crossdep blocks are pipelined in block order. Managers,
//! options and slice groups never branch, so they contribute no steps
//! (slice copies of the same leaf share its spec-level path; their
//! interaction is the region-overlap analysis' job, not scheduling).
//! What the runtime's replication does to a leaf — how many copies, and
//! which of its outputs each copy gets alone — is recorded too, without
//! expanding any group.

use hinch::component::ParamValue;
use hinch::graph::instance::private_keys;
use hinch::graph::GraphSpec;
use hinch::manager::EventAction;
use std::collections::HashSet;

/// The branching node kinds that decide scheduling order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepKind {
    Seq,
    Task,
    CrossDep,
}

/// One branch decision on the way from the root to a leaf.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step {
    pub kind: StepKind,
    pub index: usize,
}

/// A component leaf with everything the analyses need.
#[derive(Debug, Clone)]
pub struct LeafNode {
    pub name: String,
    pub class: String,
    pub inputs: Vec<String>,
    pub outputs: Vec<String>,
    /// Branch path from the root (see module docs).
    pub path: Vec<Step>,
    /// Names of enclosing options, outermost first.
    pub option_path: Vec<String>,
    /// Names of queues this leaf holds a handle to via its parameters —
    /// the leaf may post events there.
    pub queue_params: Vec<String>,
    /// The number of copies the runtime makes of this leaf — the product
    /// of the widths of its enclosing slice/crossdep groups — or `None`
    /// outside every group.
    pub copies: Option<usize>,
    /// Per output, the groups that give each copy its own instance of the
    /// stream, outermost first: `@group` for a slice body, `@group.bJ` for
    /// crossdep block `J` (the runtime's renames without their `#i`).
    /// Empty for a stream every copy shares.
    pub output_scopes: Vec<String>,
}

/// An option subgraph.
#[derive(Debug, Clone)]
pub struct OptionInfo {
    pub name: String,
    pub enabled: bool,
}

/// A manager rule action, with queue handles reduced to names.
#[derive(Debug, Clone)]
pub enum ActionInfo {
    Enable(String),
    Disable(String),
    Toggle(String),
    /// Forward the event to the named queue.
    Forward(String),
    Broadcast,
}

#[derive(Debug, Clone)]
pub struct RuleInfo {
    pub event: String,
    pub actions: Vec<ActionInfo>,
}

#[derive(Debug, Clone)]
pub struct ManagerInfo {
    pub name: String,
    /// Name of the queue this manager polls.
    pub queue: String,
    pub rules: Vec<RuleInfo>,
}

/// Everything [`build`] extracts from a spec.
#[derive(Debug, Clone, Default)]
pub struct Model {
    pub leaves: Vec<LeafNode>,
    pub options: Vec<OptionInfo>,
    pub managers: Vec<ManagerInfo>,
}

/// Extract the analyzer model from a graph spec.
pub fn build(spec: &GraphSpec) -> Model {
    let mut model = Model::default();
    walk(spec, &mut Ctx::default(), &mut model);
    model
}

/// Where the walk is: the branch path, the enclosing options and the
/// enclosing replicated bodies.
#[derive(Default)]
struct Ctx {
    path: Vec<Step>,
    options: Vec<String>,
    bodies: Vec<Body>,
}

/// A slice body or crossdep block on the way down.
struct Body {
    /// `@group` or `@group.bJ`.
    scope: String,
    /// The group's width.
    n: usize,
    /// Streams each copy of the body has alone.
    private: HashSet<String>,
}

fn walk(spec: &GraphSpec, ctx: &mut Ctx, model: &mut Model) {
    match spec {
        GraphSpec::Leaf(c) => {
            let mut queue_params = Vec::new();
            for (_, v) in c.params.iter() {
                if let ParamValue::Queue(q) = v {
                    queue_params.push(q.name().to_string());
                }
            }
            let output_scopes = c
                .outputs
                .iter()
                .map(|k| {
                    ctx.bodies
                        .iter()
                        .filter(|b| b.private.contains(k))
                        .map(|b| b.scope.as_str())
                        .collect()
                })
                .collect();
            model.leaves.push(LeafNode {
                name: c.name.clone(),
                class: c.class.clone(),
                inputs: c.inputs.clone(),
                outputs: c.outputs.clone(),
                path: ctx.path.clone(),
                option_path: ctx.options.clone(),
                queue_params,
                copies: (!ctx.bodies.is_empty()).then(|| ctx.bodies.iter().map(|b| b.n).product()),
                output_scopes,
            });
        }
        GraphSpec::Seq(cs) => branch(cs, StepKind::Seq, ctx, model),
        GraphSpec::Task(cs) => branch(cs, StepKind::Task, ctx, model),
        GraphSpec::CrossDep { name, n, blocks } => {
            for (index, block) in blocks.iter().enumerate() {
                ctx.path.push(Step {
                    kind: StepKind::CrossDep,
                    index,
                });
                replicated(block, format!("@{name}.b{index}"), *n, ctx, model);
                ctx.path.pop();
            }
        }
        GraphSpec::Slice { name, n, body } => replicated(body, format!("@{name}"), *n, ctx, model),
        GraphSpec::Managed { manager, body } => {
            model.managers.push(ManagerInfo {
                name: manager.name.clone(),
                queue: manager.queue.name().to_string(),
                rules: manager
                    .rules
                    .iter()
                    .map(|r| RuleInfo {
                        event: r.event.clone(),
                        actions: r.actions.iter().map(action_info).collect(),
                    })
                    .collect(),
            });
            walk(body, ctx, model);
        }
        GraphSpec::Option {
            name,
            enabled,
            body,
        } => {
            model.options.push(OptionInfo {
                name: name.clone(),
                enabled: *enabled,
            });
            ctx.options.push(name.clone());
            walk(body, ctx, model);
            ctx.options.pop();
        }
    }
}

/// Walk one body of an `n`-way slice/crossdep group.
fn replicated(body: &GraphSpec, scope: String, n: usize, ctx: &mut Ctx, model: &mut Model) {
    let private = private_keys(body);
    ctx.bodies.push(Body { scope, n, private });
    walk(body, ctx, model);
    ctx.bodies.pop();
}

fn action_info(a: &EventAction) -> ActionInfo {
    match a {
        EventAction::Enable(o) => ActionInfo::Enable(o.clone()),
        EventAction::Disable(o) => ActionInfo::Disable(o.clone()),
        EventAction::Toggle(o) => ActionInfo::Toggle(o.clone()),
        EventAction::Forward(q) => ActionInfo::Forward(q.name().to_string()),
        EventAction::Broadcast { .. } => ActionInfo::Broadcast,
    }
}

fn branch(children: &[GraphSpec], kind: StepKind, ctx: &mut Ctx, model: &mut Model) {
    for (index, child) in children.iter().enumerate() {
        ctx.path.push(Step { kind, index });
        walk(child, ctx, model);
        ctx.path.pop();
    }
}

/// Scheduling relation between two distinct leaves within one iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rel {
    /// `a` completes before `b` starts (seq order or crossdep block order).
    Before,
    /// `b` completes before `a` starts.
    After,
    /// No ordering: the engine may run them in any order or in parallel.
    Concurrent,
}

/// Decide the scheduling relation of two leaves from their branch paths.
pub fn relation(a: &LeafNode, b: &LeafNode) -> Rel {
    for (sa, sb) in a.path.iter().zip(b.path.iter()) {
        if sa.index != sb.index {
            return match sa.kind {
                StepKind::Task => Rel::Concurrent,
                StepKind::Seq | StepKind::CrossDep => {
                    if sa.index < sb.index {
                        Rel::Before
                    } else {
                        Rel::After
                    }
                }
            };
        }
    }
    // distinct leaves always diverge at some branching ancestor; identical
    // prefixes can only happen for a leaf against itself
    Rel::Concurrent
}

/// Whether two leaves can be live at the same time as far as their option
/// nesting tells: true iff one option path is a prefix of the other.
/// Leaves under *sibling* options may be mutually exclusive (the
/// work/bypass idiom), so pairwise checks skip them.
pub fn option_paths_compatible(a: &[String], b: &[String]) -> bool {
    a.iter().zip(b.iter()).all(|(x, y)| x == y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::leaf;

    #[test]
    fn seq_orders_task_does_not() {
        let g = GraphSpec::seq(vec![
            leaf("a", &[], &["s"]),
            GraphSpec::task(vec![leaf("b", &["s"], &["t"]), leaf("c", &["s"], &["u"])]),
            leaf("d", &["t"], &[]),
        ]);
        let m = build(&g);
        let by = |n: &str| m.leaves.iter().find(|l| l.name == n).unwrap();
        assert_eq!(relation(by("a"), by("b")), Rel::Before);
        assert_eq!(relation(by("d"), by("a")), Rel::After);
        assert_eq!(relation(by("b"), by("c")), Rel::Concurrent);
    }

    #[test]
    fn crossdep_blocks_are_ordered() {
        let g = GraphSpec::crossdep(
            "cd",
            2,
            vec![leaf("p", &["in"], &["mid"]), leaf("q", &["mid"], &["out"])],
        );
        let m = build(&g);
        let by = |n: &str| m.leaves.iter().find(|l| l.name == n).unwrap();
        assert_eq!(relation(by("p"), by("q")), Rel::Before);
    }

    #[test]
    fn sibling_options_are_incompatible() {
        assert!(option_paths_compatible(&[], &["a".into()]));
        assert!(option_paths_compatible(
            &["a".into()],
            &["a".into(), "b".into()]
        ));
        assert!(!option_paths_compatible(&["a".into()], &["b".into()]));
    }
}
