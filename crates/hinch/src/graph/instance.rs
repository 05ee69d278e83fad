//! Live instance tree: component instances wired to streams.
//!
//! Instantiation turns a [`GraphSpec`] into a tree of live nodes:
//!
//! * `slice` and `crossdep` groups are *expanded* — their bodies are
//!   replicated `n` times and every copy receives its position through the
//!   reconfiguration interface (`ReconfigRequest::Slice`);
//! * stream keys are resolved to shared [`Stream`] objects. A stream whose
//!   writer and readers both live inside one replicated body is *private*:
//!   each copy gets its own instance (key suffixed with the copy index).
//!   Streams crossing a replication boundary are shared — the copies
//!   cooperate on one shared payload per iteration (see
//!   [`Stream::write_shared`]);
//! * `option` subgraphs keep their (already renamed) spec so the body can
//!   be re-instantiated when a manager re-enables the option.

use super::{ComponentSpec, GraphSpec, ManagerSpec, NodeId};
use crate::component::{Component, ReconfigRequest, SliceAssign};
use crate::event::EventQueue;
use crate::manager::EventRule;
use crate::stream::Stream;
use crate::sync::atomic::AtomicU64;
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Shared name → stream table. Grows monotonically; re-enabled options
/// reconnect to the same streams by key. Every stream it creates — at
/// instantiation or mid-run when a manager pre-builds an option body —
/// carries the same slot capacity, which the engines size from their
/// pipeline depth (see [`crate::stream::Stream::with_capacity`]).
pub struct StreamMap {
    map: Mutex<HashMap<String, Arc<Stream>>>,
    slot_capacity: usize,
}

impl StreamMap {
    /// The name → stream map itself (locked).
    pub fn lock(&self) -> parking_lot::MutexGuard<'_, HashMap<String, Arc<Stream>>> {
        self.map.lock()
    }

    /// Ring capacity every stream of this table is created with.
    pub fn slot_capacity(&self) -> usize {
        self.slot_capacity
    }
}

pub type StreamTable = Arc<StreamMap>;

/// A stream table whose streams hold `slot_capacity` ring slots each.
pub fn new_stream_table_sized(slot_capacity: usize) -> StreamTable {
    Arc::new(StreamMap {
        map: Mutex::new(HashMap::new()),
        slot_capacity: slot_capacity.max(1),
    })
}

/// The stream `key`, created if the table has none yet — from the shelf of
/// `writer`, when a leaf's output port creates it, so that it starts with
/// the buffers an earlier instantiation of that leaf retired.
fn get_or_create(table: &StreamTable, key: &str, writer: Option<&ComponentSpec>) -> Arc<Stream> {
    table
        .lock()
        .entry(key.to_string())
        .or_insert_with(|| match writer {
            Some(spec) => Stream::from_shelf(key, table.slot_capacity, &spec.shelf),
            None => Stream::with_capacity(key, table.slot_capacity),
        })
        .clone()
}

/// A live component instance bound to its streams.
pub struct LeafRt {
    pub id: NodeId,
    pub name: String,
    /// `name` as a shared string, cloned refcount-only per job to tag the
    /// executing thread (see [`crate::sharedbuf::enter_job`]).
    pub tag: Arc<str>,
    pub class: String,
    pub inputs: Vec<Arc<Stream>>,
    pub outputs: Vec<Arc<Stream>>,
    /// The composed slice assignment delivered to this instance, if it
    /// lives inside a replication group (see `compose_assign`).
    pub slice: Option<SliceAssign>,
    /// The instance itself.
    ///
    /// # Mutual-exclusion invariant
    ///
    /// The scheduler's per-node self-dependency guarantees at most one
    /// in-flight job per node at any time: iteration *i+1* of a node is
    /// only released once iteration *i* of the same node completed, and a
    /// reconfiguration quiesces the whole pipeline before a re-flattened
    /// DAG (which may reuse this instance) admits new jobs. The engines
    /// therefore acquire this lock with `try_lock().expect(..)` — a
    /// blocked acquisition is a scheduler bug, never legitimate waiting.
    pub comp: Mutex<Box<dyn Component>>,
    /// Jobs run and nanoseconds spent in `run` since the last window swap.
    /// Beside `comp`, whose lock the executing worker has just taken; the
    /// same self-dependency makes that worker the only writer. A swap folds
    /// them into its tenant's per-node totals and zeroes them (see
    /// `GraphCore::node_times`).
    pub jobs: AtomicU64,
    pub busy_ns: AtomicU64,
}

impl LeafRt {
    fn create(
        spec: &ComponentSpec,
        inputs: Vec<Arc<Stream>>,
        outputs: Vec<Arc<Stream>>,
        slice: Option<SliceAssign>,
        copy_suffix: &str,
    ) -> Arc<Self> {
        let mut comp = (spec.factory)();
        for req in &spec.initial_reconfig {
            comp.reconfigure(req);
        }
        if let Some(assign) = slice {
            comp.reconfigure(&ReconfigRequest::Slice(assign));
        }
        let name = format!("{}{}", spec.name, copy_suffix);
        Arc::new(LeafRt {
            id: NodeId::fresh(),
            tag: Arc::from(name.as_str()),
            name,
            class: spec.class.clone(),
            inputs,
            outputs,
            slice,
            comp: Mutex::new(comp),
            jobs: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
        })
    }
}

/// State of an option subgraph.
pub struct OptState {
    pub enabled: bool,
    pub body: Option<Node>,
}

/// An option subgraph: live body (when enabled) plus everything needed to
/// re-create it (spec with the rename context captured at instantiation).
pub struct OptCell {
    pub name: String,
    pub spec: GraphSpec,
    pub rename: HashMap<String, String>,
    pub state: Mutex<OptState>,
}

impl OptCell {
    /// Instantiate a fresh body for this option (pre-creation step of a
    /// reconfiguration). `mgr_stack` must name the enclosing managers so
    /// that options nested inside the rebuilt body re-register with them.
    /// Returns the number of leaves created as well.
    pub fn build_body(
        &self,
        streams: &StreamTable,
        mgr_stack: Vec<Arc<ManagerRt>>,
    ) -> (Node, usize) {
        let mut env = InstEnv {
            streams: streams.clone(),
            rename: self.rename.clone(),
            slice: None,
            mgr_stack,
            name_suffix: String::new(),
        };
        let node = instantiate(&self.spec, &mut env);
        let leaves = node.count_leaves();
        (node, leaves)
    }
}

/// A live manager.
pub struct ManagerRt {
    pub entry_id: NodeId,
    pub exit_id: NodeId,
    pub name: String,
    pub queue: EventQueue,
    pub rules: Vec<EventRule>,
    /// Options in this manager's scope, by name.
    pub options: Mutex<HashMap<String, Arc<OptCell>>>,
}

/// The live instance tree.
pub enum Node {
    Leaf(Arc<LeafRt>),
    Seq(Vec<Node>),
    /// Concurrent children (a `task` group, or an expanded `slice` group).
    Par(Vec<Node>),
    /// Expanded crossdep group: `blocks[j][i]` is copy `i` of parblock `j`.
    CrossDep {
        blocks: Vec<Vec<Node>>,
    },
    Managed {
        mgr: Arc<ManagerRt>,
        body: Box<Node>,
    },
    Opt(Arc<OptCell>),
}

impl Node {
    /// Collect all currently-live leaves below this node.
    pub fn collect_leaves(&self, out: &mut Vec<Arc<LeafRt>>) {
        match self {
            Node::Leaf(l) => out.push(l.clone()),
            Node::Seq(cs) | Node::Par(cs) => {
                for c in cs {
                    c.collect_leaves(out);
                }
            }
            Node::CrossDep { blocks } => {
                for b in blocks {
                    for c in b {
                        c.collect_leaves(out);
                    }
                }
            }
            Node::Managed { body, .. } => body.collect_leaves(out),
            Node::Opt(cell) => {
                if let Some(body) = &cell.state.lock().body {
                    body.collect_leaves(out);
                }
            }
        }
    }

    pub fn count_leaves(&self) -> usize {
        let mut v = Vec::new();
        self.collect_leaves(&mut v);
        v.len()
    }

    /// Collect every live manager below this node, including managers
    /// inside currently-enabled option bodies. Used by the serving
    /// runtime to route externally-injected events to a manager queue by
    /// name (reconfiguration over the wire).
    pub fn collect_managers(&self, out: &mut Vec<Arc<ManagerRt>>) {
        match self {
            Node::Leaf(_) => {}
            Node::Seq(cs) | Node::Par(cs) => {
                for c in cs {
                    c.collect_managers(out);
                }
            }
            Node::CrossDep { blocks } => {
                for c in blocks.iter().flat_map(|b| b.iter()) {
                    c.collect_managers(out);
                }
            }
            Node::Managed { mgr, body } => {
                out.push(mgr.clone());
                body.collect_managers(out);
            }
            Node::Opt(cell) => {
                if let Some(body) = &cell.state.lock().body {
                    body.collect_managers(out);
                }
            }
        }
    }

    /// Find the managed subtree of a manager (by entry id).
    pub fn find_managed(&self, entry_id: NodeId) -> Option<&Node> {
        match self {
            Node::Leaf(_) => None,
            Node::Seq(cs) | Node::Par(cs) => cs.iter().find_map(|c| c.find_managed(entry_id)),
            Node::CrossDep { blocks } => blocks
                .iter()
                .flat_map(|b| b.iter())
                .find_map(|c| c.find_managed(entry_id)),
            Node::Managed { mgr, body } => {
                if mgr.entry_id == entry_id {
                    Some(body)
                } else {
                    body.find_managed(entry_id)
                }
            }
            Node::Opt(_) => None,
        }
    }
}

/// Instantiation context.
pub struct InstEnv {
    pub streams: StreamTable,
    /// Stream-key rename map for the current replication scope.
    pub rename: HashMap<String, String>,
    /// Slice assignment delivered to leaves created in this scope.
    pub slice: Option<SliceAssign>,
    /// Enclosing managers, innermost last (options register with the
    /// innermost one).
    pub mgr_stack: Vec<Arc<ManagerRt>>,
    /// Accumulated copy suffix for instance names (e.g. `"#2"`, `".b1#0"`).
    pub name_suffix: String,
}

impl InstEnv {
    fn resolve(&self, key: &str) -> String {
        self.rename
            .get(key)
            .cloned()
            .unwrap_or_else(|| key.to_string())
    }
}

/// Compose a replication-group assignment with the enclosing scope's.
///
/// Copy `i` of an `n`-way group nested inside outer copy `(o, m)` is copy
/// `o*n + i` of `m*n` — so leaves of *nested* data-parallel groups that
/// write a stream shared across the outer copies still lease disjoint
/// regions (without composition, inner copies of different outer copies
/// would collide on the same range, making results schedule-dependent).
fn compose_assign(outer: Option<SliceAssign>, i: usize, n: usize) -> SliceAssign {
    match outer {
        Some(o) => SliceAssign {
            index: o.index * n + i,
            total: o.total * n,
        },
        None => SliceAssign { index: i, total: n },
    }
}

/// Stream keys that are *private* to `body`: written and read inside it.
/// Each copy of a replicated body gets its own instance of these; every
/// other stream is one instance its copies share.
pub fn private_keys(body: &GraphSpec) -> HashSet<String> {
    let mut written = HashSet::new();
    let mut read = HashSet::new();
    body.visit_leaves(&mut |c| {
        for s in &c.outputs {
            written.insert(s.clone());
        }
        for s in &c.inputs {
            read.insert(s.clone());
        }
    });
    written.intersection(&read).cloned().collect()
}

/// Instantiate `spec` under `env`.
pub fn instantiate(spec: &GraphSpec, env: &mut InstEnv) -> Node {
    match spec {
        GraphSpec::Leaf(c) => {
            let inputs = c
                .inputs
                .iter()
                .map(|k| get_or_create(&env.streams, &env.resolve(k), None))
                .collect();
            let outputs = c
                .outputs
                .iter()
                .map(|k| get_or_create(&env.streams, &env.resolve(k), Some(c)))
                .collect();
            Node::Leaf(LeafRt::create(
                c,
                inputs,
                outputs,
                env.slice,
                &env.name_suffix,
            ))
        }
        GraphSpec::Seq(cs) => Node::Seq(cs.iter().map(|c| instantiate(c, env)).collect()),
        GraphSpec::Task(cs) => Node::Par(cs.iter().map(|c| instantiate(c, env)).collect()),
        GraphSpec::Slice { name, n, body } => Node::Par(replicate(body, name, "", *n, env)),
        GraphSpec::CrossDep { name, n, blocks } => Node::CrossDep {
            blocks: blocks
                .iter()
                .enumerate()
                .map(|(j, block)| replicate(block, name, &format!(".b{j}"), *n, env))
                .collect(),
        },
        GraphSpec::Managed { manager, body } => {
            let mgr = Arc::new(make_manager_rt(manager));
            env.mgr_stack.push(mgr.clone());
            let body = instantiate(body, env);
            env.mgr_stack.pop();
            Node::Managed {
                mgr,
                body: Box::new(body),
            }
        }
        GraphSpec::Option {
            name,
            enabled,
            body,
        } => {
            let cell = Arc::new(OptCell {
                name: name.clone(),
                spec: (**body).clone(),
                rename: env.rename.clone(),
                state: Mutex::new(OptState {
                    enabled: *enabled,
                    body: None,
                }),
            });
            if let Some(mgr) = env.mgr_stack.last() {
                mgr.options.lock().insert(name.clone(), cell.clone());
            }
            if *enabled {
                // instantiate within the current environment so nested
                // options register with the enclosing managers too
                let node = instantiate(body, env);
                cell.state.lock().body = Some(node);
            }
            Node::Opt(cell)
        }
    }
}

/// The `n` copies of one replicated body of group `group`: a slice body
/// (`tag` empty) or crossdep block `j` (`tag` `.b{j}`). Copy `i` gets the
/// composed assignment, the name suffix `{tag}#i` and its own instance of
/// each stream private to the body (`key@{group}{tag}#i`).
fn replicate(body: &GraphSpec, group: &str, tag: &str, n: usize, env: &InstEnv) -> Vec<Node> {
    let private = private_keys(body);
    (0..n)
        .map(|i| {
            let mut rename = env.rename.clone();
            for key in &private {
                rename.insert(
                    key.clone(),
                    format!("{}@{group}{tag}#{i}", env.resolve(key)),
                );
            }
            let mut child = InstEnv {
                streams: env.streams.clone(),
                rename,
                slice: Some(compose_assign(env.slice, i, n)),
                mgr_stack: env.mgr_stack.clone(),
                name_suffix: format!("{}{tag}#{i}", env.name_suffix),
            };
            instantiate(body, &mut child)
        })
        .collect()
}

fn make_manager_rt(spec: &ManagerSpec) -> ManagerRt {
    ManagerRt {
        entry_id: NodeId::fresh(),
        exit_id: NodeId::fresh(),
        name: spec.name.clone(),
        queue: spec.queue.clone(),
        rules: spec.rules.clone(),
        options: Mutex::new(HashMap::new()),
    }
}

/// A fully-instantiated application.
pub struct InstanceGraph {
    pub root: Node,
    pub streams: StreamTable,
}

/// Instantiate a validated spec with default-capacity streams.
pub fn instantiate_graph(spec: &GraphSpec) -> InstanceGraph {
    instantiate_graph_sized(spec, crate::stream::DEFAULT_CAPACITY)
}

/// Instantiate a validated spec; every stream gets `slot_capacity` ring
/// slots. The engines pass their pipeline depth — the admission controller
/// keeps at most that many iterations in flight, so the ring never wraps
/// onto a live slot.
pub fn instantiate_graph_sized(spec: &GraphSpec, slot_capacity: usize) -> InstanceGraph {
    let streams = new_stream_table_sized(slot_capacity);
    let mut env = InstEnv {
        streams: streams.clone(),
        rename: HashMap::new(),
        slice: None,
        mgr_stack: Vec::new(),
        name_suffix: String::new(),
    };
    let root = instantiate(spec, &mut env);
    InstanceGraph { root, streams }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::RunCtx;
    use crate::engine::RunConfig;
    use crate::graph::testutil::leaf;
    use crate::graph::{ComponentFactory, GraphSpec};
    use crate::manager::EventAction;
    use crate::sharedbuf::RegionBuf;
    use crate::stream::Shelf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn slice_expansion_creates_copies_with_assignments() {
        let g = GraphSpec::seq(vec![
            leaf("src", &[], &["in"], 1),
            GraphSpec::slice("sl", 4, leaf("work", &["in"], &["out"], 0)),
            leaf("snk", &["out"], &[], 0),
        ]);
        let inst = instantiate_graph(&g);
        let mut leaves = Vec::new();
        inst.root.collect_leaves(&mut leaves);
        // 1 src + 4 copies + 1 sink
        assert_eq!(leaves.len(), 6);
        let copies: Vec<_> = leaves
            .iter()
            .filter(|l| l.name.starts_with("work"))
            .collect();
        assert_eq!(copies.len(), 4);
        assert_eq!(copies[0].name, "work#0");
        assert_eq!(copies[3].name, "work#3");
        // boundary streams are shared: 'in' and 'out' exist exactly once
        let table = inst.streams.lock();
        assert_eq!(table.len(), 2);
        assert!(table.contains_key("in"));
        assert!(table.contains_key("out"));
    }

    #[test]
    fn private_streams_are_replicated_per_copy() {
        // inside the body: a -> b via 'mid' (written and read inside)
        let body = GraphSpec::seq(vec![
            leaf("a", &["in"], &["mid"], 0),
            leaf("b", &["mid"], &["out"], 0),
        ]);
        let g = GraphSpec::seq(vec![
            leaf("src", &[], &["in"], 1),
            GraphSpec::slice("sl", 3, body),
            leaf("snk", &["out"], &[], 0),
        ]);
        let inst = instantiate_graph(&g);
        let table = inst.streams.lock();
        // in, out shared; mid@sl#0..2 private
        assert_eq!(table.len(), 5);
        assert!(table.contains_key("mid@sl#0"));
        assert!(table.contains_key("mid@sl#2"));
        assert!(!table.contains_key("mid"));
    }

    #[test]
    fn crossdep_expansion_shares_interblock_streams() {
        let g = GraphSpec::seq(vec![
            leaf("src", &[], &["in"], 1),
            GraphSpec::crossdep(
                "cd",
                3,
                vec![
                    leaf("h", &["in"], &["hout"], 0),
                    leaf("v", &["hout"], &["out"], 0),
                ],
            ),
            leaf("snk", &["out"], &[], 0),
        ]);
        let inst = instantiate_graph(&g);
        let mut leaves = Vec::new();
        inst.root.collect_leaves(&mut leaves);
        assert_eq!(leaves.len(), 8); // src + 3 h + 3 v + snk
        let table = inst.streams.lock();
        // hout crosses blocks → shared, not replicated
        assert_eq!(table.len(), 3);
        assert!(table.contains_key("hout"));
    }

    #[test]
    fn disabled_option_has_no_body() {
        let mgr = crate::graph::ManagerSpec::new("m", EventQueue::new("q"))
            .on("t", vec![EventAction::Toggle("o".into())]);
        let g = GraphSpec::managed(
            mgr,
            GraphSpec::seq(vec![
                leaf("always", &[], &["s"], 0),
                GraphSpec::option("o", false, leaf("opt", &[], &["s2"], 0)),
            ]),
        );
        let inst = instantiate_graph(&g);
        assert_eq!(inst.root.count_leaves(), 1);
        // the option is registered with the manager
        if let Node::Managed { mgr, .. } = &inst.root {
            let opts = mgr.options.lock();
            let cell = opts.get("o").expect("registered");
            assert!(!cell.state.lock().enabled);
        } else {
            panic!("expected managed root");
        }
    }

    #[test]
    fn option_body_can_be_rebuilt() {
        let mgr = crate::graph::ManagerSpec::new("m", EventQueue::new("q"));
        let g = GraphSpec::managed(
            mgr,
            GraphSpec::option("o", true, leaf("opt", &[], &["s"], 0)),
        );
        let inst = instantiate_graph(&g);
        if let Node::Managed { mgr, .. } = &inst.root {
            let cell = mgr.options.lock().get("o").unwrap().clone();
            assert_eq!(inst.root.count_leaves(), 1);
            // disable: body dropped
            cell.state.lock().body = None;
            cell.state.lock().enabled = false;
            assert_eq!(inst.root.count_leaves(), 0);
            // re-enable: fresh instance, same stream key
            let (node, n) = cell.build_body(&inst.streams, Vec::new());
            assert_eq!(n, 1);
            cell.state.lock().body = Some(node);
            cell.state.lock().enabled = true;
            assert_eq!(inst.root.count_leaves(), 1);
            assert_eq!(inst.streams.lock().len(), 1);
        }
    }

    /// A payload that counts the live ones.
    struct Counted(Arc<AtomicUsize>);

    impl Drop for Counted {
        fn drop(&mut self) {
            self.0.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// A leaf writing a [`Counted`] to `output`, renewing what its slot
    /// hands back.
    fn counted_leaf(name: &str, output: &str, live: &Arc<AtomicUsize>) -> GraphSpec {
        struct Build(Arc<AtomicUsize>);
        impl Component for Build {
            fn class(&self) -> &'static str {
                "build"
            }
            fn run(&mut self, ctx: &mut RunCtx<'_>) {
                ctx.write_with(0, |old| {
                    old.unwrap_or_else(|| {
                        self.0.fetch_add(1, Ordering::SeqCst);
                        Counted(self.0.clone())
                    })
                });
            }
        }
        let live = live.clone();
        let f: ComponentFactory = Arc::new(move || Box::new(Build(live.clone())));
        GraphSpec::Leaf(ComponentSpec::new(name, "build", f).output(output))
    }

    /// The shelf of the leaf named `name`.
    fn shelf_of<'a>(spec: &'a GraphSpec, name: &str) -> &'a Arc<Shelf> {
        let mut found = None;
        spec.visit_leaves(&mut |c| {
            if c.name == name {
                found = Some(&c.shelf);
            }
        });
        found.expect("a leaf of that name")
    }

    /// Run `iters` iterations of the instance's leaves in program order,
    /// retiring each.
    fn run_inline(inst: &InstanceGraph, iters: std::ops::Range<u64>) {
        let mut leaves = Vec::new();
        inst.root.collect_leaves(&mut leaves);
        for iter in iters {
            for leaf in &leaves {
                let mut meter = crate::meter::NullMeter;
                let mut ctx = RunCtx::new(iter, &leaf.inputs, &leaf.outputs, &mut meter);
                leaf.comp.lock().run(&mut ctx);
            }
            for stream in inst.streams.lock().values() {
                stream.clear(iter);
            }
        }
    }

    #[test]
    fn shelved_payloads_serve_every_clone_and_die_with_the_last() {
        let live = Arc::new(AtomicUsize::new(0));
        let spec = counted_leaf("src", "s", &live);
        let inst = instantiate_graph_sized(&spec, 2);
        run_inline(&inst, 0..4);
        assert_eq!(live.load(Ordering::SeqCst), 2, "one payload a slot");
        drop(inst);
        assert_eq!(shelf_of(&spec, "src").count("s"), 2);

        // A clone's instance builds nothing: it starts with the shelf.
        let clone = spec.clone();
        drop(spec);
        let inst = instantiate_graph_sized(&clone, 2);
        run_inline(&inst, 0..4);
        assert_eq!(live.load(Ordering::SeqCst), 2);
        drop(inst);
        assert_eq!(live.load(Ordering::SeqCst), 2, "back on the shelf");
        drop(clone);
        assert_eq!(live.load(Ordering::SeqCst), 0, "dead with the last clone");
    }

    #[test]
    fn a_stream_live_when_an_option_body_is_rebuilt_is_not_seeded() {
        let live = Arc::new(AtomicUsize::new(0));
        let g = GraphSpec::managed(
            crate::graph::ManagerSpec::new("m", EventQueue::new("q")),
            GraphSpec::option("o", true, counted_leaf("opt", "s", &live)),
        );
        // While one instance runs, a second one of the same spec comes and
        // goes and leaves its two payloads on the shelf.
        let inst = instantiate_graph_sized(&g, 2);
        run_inline(&inst, 0..2);
        let other = instantiate_graph_sized(&g, 2);
        run_inline(&other, 0..2);
        drop(other);
        assert_eq!(shelf_of(&g, "opt").count("s"), 2);
        assert_eq!(live.load(Ordering::SeqCst), 4);
        let before = inst.streams.lock()["s"].clone();

        // Mid-run the manager rebuilds the option body: it reconnects to
        // the live stream, which draws nothing.
        let Node::Managed { mgr, .. } = &inst.root else {
            panic!("expected managed root");
        };
        let cell = mgr.options.lock()["o"].clone();
        cell.state.lock().body = None;
        let (body, _) = cell.build_body(&inst.streams, vec![mgr.clone()]);
        cell.state.lock().body = Some(body);
        assert!(Arc::ptr_eq(&inst.streams.lock()["s"], &before));
        assert_eq!(shelf_of(&g, "opt").count("s"), 2);
        run_inline(&inst, 2..4);
        assert_eq!(
            live.load(Ordering::SeqCst),
            4,
            "the live ring renews its own"
        );
    }

    #[test]
    fn concurrent_runs_of_clones_of_one_spec_match_the_reference() {
        /// Writes iteration-dependent values into a buffer renewed in the
        /// storage its slot hands back.
        struct Source;
        impl Component for Source {
            fn class(&self) -> &'static str {
                "source"
            }
            fn run(&mut self, ctx: &mut RunCtx<'_>) {
                let iter = ctx.iteration() as i64;
                let buf = ctx.write_with(0, |old| RegionBuf::<i64>::renew(old, "src", 8));
                for (i, v) in buf.lease_write_all().iter_mut().enumerate() {
                    *v = iter * 8 + i as i64;
                }
            }
        }
        /// One copy of a sliced stage: its band of the shared output is
        /// its band of the input, doubled, plus its index.
        struct Double(SliceAssign);
        impl Component for Double {
            fn class(&self) -> &'static str {
                "double"
            }
            fn run(&mut self, ctx: &mut RunCtx<'_>) {
                let src = ctx.read::<RegionBuf<i64>>(0);
                let out = ctx.write_shared(0, |old| RegionBuf::<i64>::renew(old, "dbl", 8));
                let band = self.0.range(8);
                let input = src.lease_read(band.clone());
                for (o, i) in out.lease_write(band).iter_mut().zip(input.iter()) {
                    *o = 2 * i + self.0.index as i64;
                }
            }
            fn reconfigure(&mut self, req: &ReconfigRequest) {
                if let ReconfigRequest::Slice(a) = req {
                    self.0 = *a;
                }
            }
        }
        /// Records the sum of its input by iteration.
        struct Sum(Arc<crate::sync::Mutex<Vec<(u64, i64)>>>);
        impl Component for Sum {
            fn class(&self) -> &'static str {
                "sum"
            }
            fn run(&mut self, ctx: &mut RunCtx<'_>) {
                let sum = ctx.read::<RegionBuf<i64>>(0).lease_read_all().iter().sum();
                self.0.lock().push((ctx.iteration(), sum));
            }
        }
        let out = Arc::new(crate::sync::Mutex::new(Vec::new()));
        let sink = out.clone();
        let source: ComponentFactory = Arc::new(|| Box::new(Source));
        let double: ComponentFactory = Arc::new(|| Box::new(Double(SliceAssign::WHOLE)));
        let sum: ComponentFactory = Arc::new(move || Box::new(Sum(sink.clone())));
        let spec = GraphSpec::seq(vec![
            GraphSpec::Leaf(ComponentSpec::new("src", "source", source).output("a")),
            GraphSpec::slice(
                "sl",
                4,
                GraphSpec::Leaf(
                    ComponentSpec::new("w", "double", double)
                        .input("a")
                        .output("b"),
                ),
            ),
            GraphSpec::Leaf(ComponentSpec::new("sum", "sum", sum).input("b")),
        ]);
        let frames = 24;
        let sorted = |mut v: Vec<(u64, i64)>| {
            v.sort_unstable();
            v
        };
        crate::engine::run_reference(&spec, &RunConfig::new(frames)).unwrap();
        let reference = sorted(std::mem::take(&mut *out.lock()));
        assert_eq!(reference.len(), frames as usize);
        let twice: Vec<_> = reference.iter().flat_map(|&r| [r, r]).collect();
        for round in 0..3 {
            std::thread::scope(|s| {
                for workers in [1, 2] {
                    let spec = spec.clone();
                    s.spawn(move || {
                        let cfg = RunConfig::new(frames).pipeline_depth(3).workers(workers);
                        crate::engine::run_native(&spec, &cfg).unwrap();
                    });
                }
            });
            let both = sorted(std::mem::take(&mut *out.lock()));
            assert_eq!(both, twice, "round {round}");
        }
        // Two rings of three came back to each shelf; it keeps what the
        // smallest ring that drew from it held, the reference's one.
        assert_eq!(shelf_of(&spec, "src").count("a"), 1);
        assert_eq!(shelf_of(&spec, "w").count("b"), 1);
    }

    /// `(name, index, total)` of the live leaves named `prefix…`, by name.
    fn assignments(inst: &InstanceGraph, prefix: &str) -> Vec<(String, usize, usize)> {
        let mut leaves = Vec::new();
        inst.root.collect_leaves(&mut leaves);
        let mut out: Vec<_> = leaves
            .iter()
            .filter(|l| l.name.starts_with(prefix))
            .map(|l| {
                let a = l.slice.expect("a replicated leaf is assigned");
                (l.name.clone(), a.index, a.total)
            })
            .collect();
        out.sort();
        out
    }

    fn owned(v: &[(&str, usize, usize)]) -> Vec<(String, usize, usize)> {
        v.iter().map(|&(n, i, t)| (n.to_string(), i, t)).collect()
    }

    #[test]
    fn nested_slices_compose_assignments() {
        let g = GraphSpec::seq(vec![
            leaf("src", &[], &["x"], 0),
            GraphSpec::slice(
                "outer",
                2,
                GraphSpec::slice("inner", 2, leaf("w", &["x"], &["y"], 0)),
            ),
            leaf("snk", &["y"], &[], 0),
        ]);
        let inst = instantiate_graph(&g);
        let want = [
            ("w#0#0", 0, 4),
            ("w#0#1", 1, 4),
            ("w#1#0", 2, 4),
            ("w#1#1", 3, 4),
        ];
        assert_eq!(assignments(&inst, "w"), owned(&want));
    }

    #[test]
    fn crossdep_copies_compose_with_an_enclosing_slice() {
        let g = GraphSpec::seq(vec![
            leaf("src", &[], &["in"], 1),
            GraphSpec::slice(
                "sl",
                2,
                GraphSpec::crossdep(
                    "cd",
                    3,
                    vec![
                        leaf("h", &["in"], &["hout"], 0),
                        leaf("v", &["hout"], &["out"], 0),
                    ],
                ),
            ),
            leaf("snk", &["out"], &[], 0),
        ]);
        let inst = instantiate_graph(&g);
        let want = [
            ("v#0.b1#0", 0, 6),
            ("v#0.b1#1", 1, 6),
            ("v#0.b1#2", 2, 6),
            ("v#1.b1#0", 3, 6),
            ("v#1.b1#1", 4, 6),
            ("v#1.b1#2", 5, 6),
        ];
        assert_eq!(assignments(&inst, "v"), owned(&want));
        // 'hout' crosses the blocks, so each slice copy has its own
        let table = inst.streams.lock();
        assert!(table.contains_key("hout@sl#0") && table.contains_key("hout@sl#1"));
        assert!(!table.contains_key("hout"));
    }

    #[test]
    fn nested_slice_renames_compose() {
        let inner = GraphSpec::seq(vec![
            leaf("p", &["x"], &["t"], 0),
            leaf("q", &["t"], &["y"], 0),
        ]);
        let g = GraphSpec::seq(vec![
            leaf("src", &[], &["x"], 0),
            GraphSpec::slice("outer", 2, GraphSpec::slice("inner", 2, inner)),
            leaf("snk", &["y"], &[], 0),
        ]);
        let inst = instantiate_graph(&g);
        let table = inst.streams.lock();
        // x, y shared; t replicated 4 ways with composed names
        assert_eq!(table.len(), 6);
        assert!(table
            .keys()
            .any(|k| k.contains("@outer#0@inner#1") || k.contains("@inner#1")));
    }
}
