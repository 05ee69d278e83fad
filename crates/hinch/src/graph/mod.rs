//! The application graph: specification, instantiation and flattening.
//!
//! A [`GraphSpec`] is the structural description of an application — what
//! the XSPCL processing tool produces from an XSPCL document, or what a
//! Rust program builds directly with the constructors on [`GraphSpec`].
//! The engine *instantiates* the spec into a live tree of component
//! instances connected by streams ([`instance`]), and *flattens* the tree
//! into a per-iteration dependency DAG ([`flatten`]). Reconfiguration
//! re-runs instantiation for option bodies and re-flattens; component
//! instances outside the changed options survive with their state.

pub mod flatten;
pub mod instance;

use crate::component::{Component, Params, ReconfigRequest};
use crate::error::HinchError;
use crate::event::EventQueue;
use crate::manager::{EventAction, EventRule};
use crate::stream::Shelf;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Stable identity of a graph node across reconfigurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u64);

static NEXT_NODE_ID: AtomicU64 = AtomicU64::new(1);

impl NodeId {
    pub(crate) fn fresh() -> Self {
        NodeId(NEXT_NODE_ID.fetch_add(1, Ordering::Relaxed))
    }
}

/// Creates a fresh component instance. Factories are cheap to clone and are
/// invoked again whenever an option containing the component is re-enabled
/// (the paper destroys and re-creates components of toggled options).
pub type ComponentFactory = Arc<dyn Fn() -> Box<dyn Component> + Send + Sync>;

/// Build a [`ComponentFactory`] from a constructor function and parameters.
pub fn factory<F>(ctor: F, params: Params) -> ComponentFactory
where
    F: Fn(&Params) -> Box<dyn Component> + Send + Sync + 'static,
{
    Arc::new(move || ctor(&params))
}

/// Specification of a single component instance.
#[derive(Clone)]
pub struct ComponentSpec {
    /// Instance name (unique within the application; used in diagnostics).
    pub name: String,
    /// Component class (the XSPCL `class` attribute).
    pub class: String,
    /// Stream keys bound to the input ports, in port order.
    pub inputs: Vec<String>,
    /// Stream keys bound to the output ports, in port order.
    pub outputs: Vec<String>,
    /// Creates the component instance.
    pub factory: ComponentFactory,
    /// Reconfiguration requests delivered right after creation (the XSPCL
    /// `<reconfig>` tag).
    pub initial_reconfig: Vec<ReconfigRequest>,
    /// The initialization parameters the factory closes over, kept for
    /// introspection (diagnostics, code generation). Not consulted at run
    /// time.
    pub params: Params,
    /// The payloads this component's output streams retired in earlier
    /// instantiations, shared by every clone of the spec (see
    /// [`crate::stream`], "The ring outlives the instance").
    pub(crate) shelf: Arc<Shelf>,
}

impl ComponentSpec {
    pub fn new(
        name: impl Into<String>,
        class: impl Into<String>,
        factory: ComponentFactory,
    ) -> Self {
        Self {
            name: name.into(),
            class: class.into(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            factory,
            initial_reconfig: Vec::new(),
            params: Params::new(),
            shelf: Arc::default(),
        }
    }

    /// Attach the introspectable parameter copy.
    pub fn with_params(mut self, params: Params) -> Self {
        self.params = params;
        self
    }

    pub fn input(mut self, stream: impl Into<String>) -> Self {
        self.inputs.push(stream.into());
        self
    }

    pub fn output(mut self, stream: impl Into<String>) -> Self {
        self.outputs.push(stream.into());
        self
    }

    pub fn reconfig(mut self, req: ReconfigRequest) -> Self {
        self.initial_reconfig.push(req);
        self
    }
}

impl fmt::Debug for ComponentSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ComponentSpec")
            .field("name", &self.name)
            .field("class", &self.class)
            .field("inputs", &self.inputs)
            .field("outputs", &self.outputs)
            .finish()
    }
}

/// Specification of a manager container.
#[derive(Debug, Clone)]
pub struct ManagerSpec {
    pub name: String,
    /// The queue this manager polls at every subgraph entrance.
    pub queue: EventQueue,
    pub rules: Vec<EventRule>,
}

impl ManagerSpec {
    pub fn new(name: impl Into<String>, queue: EventQueue) -> Self {
        Self {
            name: name.into(),
            queue,
            rules: Vec::new(),
        }
    }

    pub fn on(mut self, event: impl Into<String>, actions: Vec<EventAction>) -> Self {
        self.rules.push(EventRule::new(event, actions));
        self
    }
}

/// The hierarchical SPC application graph.
#[derive(Debug, Clone)]
pub enum GraphSpec {
    /// A single component.
    Leaf(ComponentSpec),
    /// Children scheduled one after another within an iteration.
    Seq(Vec<GraphSpec>),
    /// `parallel shape="task"`: children scheduled concurrently; the
    /// successors of the group wait for all of them.
    Task(Vec<GraphSpec>),
    /// `parallel shape="slice"`: the body is replicated `n` times; each
    /// copy is told its position via the reconfiguration interface and
    /// operates on its assigned region of the data.
    Slice {
        name: String,
        n: usize,
        body: Box<GraphSpec>,
    },
    /// `parallel shape="crossdep"`: every block is replicated `n` times,
    /// with copy `i` of block `j+1` depending on copies `i-1`, `i`, `i+1`
    /// of block `j` (the non-SP pattern of the paper's Fig. 5).
    CrossDep {
        name: String,
        n: usize,
        blocks: Vec<GraphSpec>,
    },
    /// A manager container wrapping a reconfigurable subgraph.
    Managed {
        manager: ManagerSpec,
        body: Box<GraphSpec>,
    },
    /// An optional subgraph, togglable at run time by its manager.
    Option {
        name: String,
        enabled: bool,
        body: Box<GraphSpec>,
    },
}

impl GraphSpec {
    pub fn leaf(spec: ComponentSpec) -> Self {
        GraphSpec::Leaf(spec)
    }

    pub fn seq(children: Vec<GraphSpec>) -> Self {
        GraphSpec::Seq(children)
    }

    pub fn task(children: Vec<GraphSpec>) -> Self {
        GraphSpec::Task(children)
    }

    pub fn slice(name: impl Into<String>, n: usize, body: GraphSpec) -> Self {
        GraphSpec::Slice {
            name: name.into(),
            n,
            body: Box::new(body),
        }
    }

    pub fn crossdep(name: impl Into<String>, n: usize, blocks: Vec<GraphSpec>) -> Self {
        GraphSpec::CrossDep {
            name: name.into(),
            n,
            blocks,
        }
    }

    pub fn managed(manager: ManagerSpec, body: GraphSpec) -> Self {
        GraphSpec::Managed {
            manager,
            body: Box::new(body),
        }
    }

    pub fn option(name: impl Into<String>, enabled: bool, body: GraphSpec) -> Self {
        GraphSpec::Option {
            name: name.into(),
            enabled,
            body: Box::new(body),
        }
    }

    /// Visit every component spec (regardless of option state).
    pub fn visit_leaves<'a>(&'a self, f: &mut impl FnMut(&'a ComponentSpec)) {
        match self {
            GraphSpec::Leaf(c) => f(c),
            GraphSpec::Seq(cs) | GraphSpec::Task(cs) | GraphSpec::CrossDep { blocks: cs, .. } => {
                for c in cs {
                    c.visit_leaves(f);
                }
            }
            GraphSpec::Slice { body, .. }
            | GraphSpec::Managed { body, .. }
            | GraphSpec::Option { body, .. } => body.visit_leaves(f),
        }
    }

    /// Number of component specs (before slice expansion).
    pub fn leaf_count(&self) -> usize {
        let mut n = 0;
        self.visit_leaves(&mut |_| n += 1);
        n
    }

    /// Validate the structural rules of the model. Called by the engines
    /// before instantiation; front-ends can call it for early diagnostics.
    pub fn validate(&self) -> Result<(), HinchError> {
        if self.leaf_count() == 0 {
            return Err(HinchError::EmptyGraph);
        }
        self.validate_structure(false)?;
        self.validate_streams()?;
        self.validate_options()?;
        Ok(())
    }

    fn validate_structure(&self, inside_data_parallel: bool) -> Result<(), HinchError> {
        match self {
            GraphSpec::Leaf(_) => Ok(()),
            GraphSpec::Seq(cs) | GraphSpec::Task(cs) => {
                for c in cs {
                    c.validate_structure(inside_data_parallel)?;
                }
                Ok(())
            }
            GraphSpec::Slice { name, n, body } => {
                if *n == 0 {
                    return Err(HinchError::EmptySlice {
                        group: name.clone(),
                    });
                }
                body.validate_structure(true)
            }
            GraphSpec::CrossDep { name, n, blocks } => {
                if *n == 0 {
                    return Err(HinchError::EmptySlice {
                        group: name.clone(),
                    });
                }
                if blocks.len() < 2 {
                    return Err(HinchError::CrossDepTooFewBlocks {
                        group: name.clone(),
                        blocks: blocks.len(),
                    });
                }
                for b in blocks {
                    b.validate_structure(true)?;
                }
                Ok(())
            }
            GraphSpec::Managed { body, .. } => body.validate_structure(inside_data_parallel),
            GraphSpec::Option { name, body, .. } => {
                if inside_data_parallel {
                    // Options inside replicated bodies would need per-copy
                    // manager state; the model (and the paper's apps) keep
                    // options outside slice groups.
                    return Err(HinchError::invalid_config(
                        "graph",
                        format!("option '{name}' may not appear inside a slice/crossdep group"),
                    ));
                }
                body.validate_structure(inside_data_parallel)
            }
        }
    }

    fn validate_streams(&self) -> Result<(), HinchError> {
        // Writer/reader accounting at spec level. Keys are pre-expansion;
        // slice replication never adds writers of *distinct* streams. A
        // stream may have at most one writer *outside* options; additional
        // writers are allowed when they live in (mutually exclusive)
        // options — e.g. an optional processing stage and its pass-through
        // complement both produce the sink's input. Actual double writes
        // are still caught at run time by the stream slot check.
        fn walk<'a>(
            spec: &'a GraphSpec,
            in_option: bool,
            writers: &mut HashMap<&'a str, Vec<(&'a str, bool)>>,
            readers: &mut Vec<(&'a str, &'a str)>,
        ) {
            match spec {
                GraphSpec::Leaf(c) => {
                    for s in &c.outputs {
                        writers.entry(s).or_default().push((&c.name, in_option));
                    }
                    for s in &c.inputs {
                        readers.push((s, &c.name));
                    }
                }
                GraphSpec::Seq(cs)
                | GraphSpec::Task(cs)
                | GraphSpec::CrossDep { blocks: cs, .. } => {
                    for c in cs {
                        walk(c, in_option, writers, readers);
                    }
                }
                GraphSpec::Slice { body, .. } | GraphSpec::Managed { body, .. } => {
                    walk(body, in_option, writers, readers)
                }
                GraphSpec::Option { body, .. } => walk(body, true, writers, readers),
            }
        }
        let mut writers: HashMap<&str, Vec<(&str, bool)>> = HashMap::new();
        let mut readers: Vec<(&str, &str)> = Vec::new();
        walk(self, false, &mut writers, &mut readers);
        for (stream, ws) in &writers {
            let outside = ws.iter().filter(|(_, in_opt)| !in_opt).count();
            if outside > 1 || (outside == 1 && ws.len() > 1 && ws.iter().any(|(_, o)| *o)) {
                // more than one unconditional writer, or an unconditional
                // writer plus optional ones — always or potentially racy
                return Err(HinchError::MultipleWriters {
                    stream: stream.to_string(),
                    writers: ws.iter().map(|(w, _)| w.to_string()).collect(),
                });
            }
        }
        for (stream, reader) in readers {
            if !writers.contains_key(stream) {
                return Err(HinchError::NoWriter {
                    stream: stream.to_string(),
                    reader: reader.to_string(),
                });
            }
        }
        Ok(())
    }

    fn validate_options(&self) -> Result<(), HinchError> {
        match self {
            GraphSpec::Leaf(_) => Ok(()),
            GraphSpec::Seq(cs) | GraphSpec::Task(cs) | GraphSpec::CrossDep { blocks: cs, .. } => {
                for c in cs {
                    c.validate_options()?;
                }
                Ok(())
            }
            GraphSpec::Slice { body, .. } | GraphSpec::Option { body, .. } => {
                body.validate_options()
            }
            GraphSpec::Managed { manager, body } => {
                let mut names = HashSet::new();
                collect_option_names(body, &mut names)?;
                for rule in &manager.rules {
                    for action in &rule.actions {
                        let opt = match action {
                            EventAction::Enable(o)
                            | EventAction::Disable(o)
                            | EventAction::Toggle(o) => Some(o),
                            _ => None,
                        };
                        if let Some(o) = opt {
                            if !names.contains(o.as_str()) {
                                return Err(HinchError::UnknownOption {
                                    option: o.clone(),
                                    manager: manager.name.clone(),
                                });
                            }
                        }
                    }
                }
                body.validate_options()
            }
        }
    }
}

/// Collect option names within one manager's scope (not descending into
/// nested managers, whose options belong to the inner manager).
fn collect_option_names<'a>(
    spec: &'a GraphSpec,
    out: &mut HashSet<&'a str>,
) -> Result<(), HinchError> {
    match spec {
        GraphSpec::Leaf(_) => Ok(()),
        GraphSpec::Seq(cs) | GraphSpec::Task(cs) | GraphSpec::CrossDep { blocks: cs, .. } => {
            for c in cs {
                collect_option_names(c, out)?;
            }
            Ok(())
        }
        GraphSpec::Slice { body, .. } => collect_option_names(body, out),
        GraphSpec::Option { name, body, .. } => {
            if !out.insert(name) {
                return Err(HinchError::DuplicateOption {
                    option: name.clone(),
                });
            }
            collect_option_names(body, out)
        }
        GraphSpec::Managed { .. } => Ok(()),
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use crate::component::{Component, RunCtx};

    /// A component that reads all inputs (as i64) and writes their sum + a
    /// constant to every output. With no inputs it writes the constant.
    pub struct Adder {
        pub add: i64,
    }

    impl Component for Adder {
        fn class(&self) -> &'static str {
            "adder"
        }
        fn run(&mut self, ctx: &mut RunCtx<'_>) {
            let mut sum = self.add;
            for p in 0..ctx.num_inputs() {
                sum += *ctx.read::<i64>(p);
            }
            ctx.charge(10);
            for p in 0..ctx.num_outputs() {
                ctx.write(p, sum);
            }
        }
    }

    pub fn adder(add: i64) -> ComponentFactory {
        Arc::new(move || Box::new(Adder { add }))
    }

    /// A slice-aware component: every copy writes `input + add + index`
    /// into its element of a shared `RegionBuf<i64>` sized to the group.
    pub struct SliceAdd {
        pub add: i64,
        pub assign: crate::component::SliceAssign,
    }

    impl Component for SliceAdd {
        fn class(&self) -> &'static str {
            "slice_add"
        }
        fn run(&mut self, ctx: &mut RunCtx<'_>) {
            let v = *ctx.read::<i64>(0);
            let total = self.assign.total;
            let buf = ctx.write_shared(0, |old| {
                crate::sharedbuf::RegionBuf::<i64>::renew(old, "slice_add.out", total)
            });
            let mut w = buf.lease_write(self.assign.range(total));
            for slot in w.iter_mut() {
                *slot = v + self.add + self.assign.index as i64;
            }
            ctx.charge(5);
        }
        fn reconfigure(&mut self, req: &crate::component::ReconfigRequest) {
            if let crate::component::ReconfigRequest::Slice(a) = req {
                self.assign = *a;
            }
        }
    }

    /// Leaf spec for [`SliceAdd`] with one input and one output stream.
    pub fn slice_leaf(name: &str, input: &str, output: &str, add: i64) -> GraphSpec {
        let f: ComponentFactory = Arc::new(move || {
            Box::new(SliceAdd {
                add,
                assign: crate::component::SliceAssign::WHOLE,
            })
        });
        GraphSpec::Leaf(
            ComponentSpec::new(name, "slice_add", f)
                .input(input)
                .output(output),
        )
    }

    /// A component that panics on every invocation — exercises the
    /// engines' failure paths.
    pub struct Panicker;

    impl Component for Panicker {
        fn class(&self) -> &'static str {
            "panicker"
        }
        fn run(&mut self, _ctx: &mut RunCtx<'_>) {
            panic!("injected component failure");
        }
    }

    /// Leaf spec for [`Panicker`].
    pub fn panicking_leaf(name: &str, inputs: &[&str], outputs: &[&str]) -> GraphSpec {
        let f: ComponentFactory = Arc::new(|| Box::new(Panicker));
        let mut c = ComponentSpec::new(name, "panicker", f);
        for i in inputs {
            c = c.input(*i);
        }
        for o in outputs {
            c = c.output(*o);
        }
        GraphSpec::Leaf(c)
    }

    /// A sink that records the i64 it reads each iteration.
    pub struct Recorder {
        pub out: Arc<crate::sync::Mutex<Vec<i64>>>,
    }

    impl Component for Recorder {
        fn class(&self) -> &'static str {
            "recorder"
        }
        fn run(&mut self, ctx: &mut RunCtx<'_>) {
            let v = *ctx.read::<i64>(0);
            self.out.lock().push(v);
        }
    }

    /// Leaf spec for [`Recorder`] reading `stream`.
    pub fn recorder_leaf(stream: &str, out: Arc<crate::sync::Mutex<Vec<i64>>>) -> GraphSpec {
        let f: ComponentFactory = Arc::new(move || Box::new(Recorder { out: out.clone() }));
        GraphSpec::Leaf(ComponentSpec::new("rec", "recorder", f).input(stream))
    }

    pub fn leaf(name: &str, inputs: &[&str], outputs: &[&str], add: i64) -> GraphSpec {
        let mut c = ComponentSpec::new(name, "adder", adder(add));
        for i in inputs {
            c = c.input(*i);
        }
        for o in outputs {
            c = c.output(*o);
        }
        GraphSpec::Leaf(c)
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::*;
    use super::*;

    #[test]
    fn validate_accepts_simple_pipeline() {
        let g = GraphSpec::seq(vec![
            leaf("src", &[], &["a"], 1),
            leaf("mid", &["a"], &["b"], 2),
            leaf("snk", &["b"], &[], 0),
        ]);
        g.validate().unwrap();
    }

    #[test]
    fn validate_rejects_empty_graph() {
        let g = GraphSpec::seq(vec![]);
        assert_eq!(g.validate().unwrap_err(), HinchError::EmptyGraph);
    }

    #[test]
    fn option_writers_are_allowed_alongside_one_unconditional_reader_path() {
        // blend (inside option A) and pass (inside option B) both write
        // 'out' — allowed; mutually exclusive by construction.
        let g = GraphSpec::seq(vec![
            leaf("src", &[], &["s"], 0),
            GraphSpec::option("a", true, leaf("work", &["s"], &["out"], 0)),
            GraphSpec::option("b", false, leaf("bypass", &["s"], &["out"], 0)),
            leaf("snk", &["out"], &[], 0),
        ]);
        g.validate().unwrap();
    }

    #[test]
    fn unconditional_plus_optional_writer_is_rejected() {
        let g = GraphSpec::seq(vec![
            leaf("w1", &[], &["s"], 0),
            GraphSpec::option("a", false, leaf("w2", &[], &["s"], 0)),
            leaf("snk", &["s"], &[], 0),
        ]);
        assert!(matches!(
            g.validate(),
            Err(HinchError::MultipleWriters { .. })
        ));
    }

    #[test]
    fn validate_rejects_multiple_writers() {
        let g = GraphSpec::task(vec![leaf("w1", &[], &["s"], 1), leaf("w2", &[], &["s"], 2)]);
        assert!(matches!(
            g.validate(),
            Err(HinchError::MultipleWriters { .. })
        ));
    }

    #[test]
    fn validate_rejects_dangling_reader() {
        let g = GraphSpec::seq(vec![leaf("r", &["ghost"], &[], 0)]);
        assert!(matches!(g.validate(), Err(HinchError::NoWriter { .. })));
    }

    #[test]
    fn validate_rejects_zero_slices() {
        let g = GraphSpec::slice("sl", 0, leaf("x", &[], &["o"], 0));
        assert!(matches!(g.validate(), Err(HinchError::EmptySlice { .. })));
    }

    #[test]
    fn validate_rejects_crossdep_with_one_block() {
        let g = GraphSpec::crossdep("cd", 4, vec![leaf("x", &[], &["o"], 0)]);
        assert!(matches!(
            g.validate(),
            Err(HinchError::CrossDepTooFewBlocks { .. })
        ));
    }

    #[test]
    fn validate_rejects_option_in_slice() {
        let g = GraphSpec::slice(
            "sl",
            2,
            GraphSpec::option("o", true, leaf("x", &[], &["s"], 0)),
        );
        assert!(matches!(
            g.validate(),
            Err(HinchError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn validate_rejects_unknown_option_in_rule() {
        let mgr = ManagerSpec::new("m", EventQueue::new("q"))
            .on("toggle", vec![EventAction::Toggle("nope".into())]);
        let g = GraphSpec::managed(mgr, leaf("x", &[], &["s"], 0));
        assert!(matches!(
            g.validate(),
            Err(HinchError::UnknownOption { .. })
        ));
    }

    #[test]
    fn validate_rejects_duplicate_option_names() {
        let mgr = ManagerSpec::new("m", EventQueue::new("q"));
        let g = GraphSpec::managed(
            mgr,
            GraphSpec::seq(vec![
                GraphSpec::option("o", true, leaf("x", &[], &["s1"], 0)),
                GraphSpec::option("o", true, leaf("y", &[], &["s2"], 0)),
            ]),
        );
        assert!(matches!(
            g.validate(),
            Err(HinchError::DuplicateOption { .. })
        ));
    }

    #[test]
    fn nested_manager_options_are_scoped() {
        let inner = ManagerSpec::new("inner", EventQueue::new("qi"))
            .on("t", vec![EventAction::Toggle("io".into())]);
        let outer = ManagerSpec::new("outer", EventQueue::new("qo"));
        let g = GraphSpec::managed(
            outer,
            GraphSpec::managed(
                inner,
                GraphSpec::option("io", true, leaf("x", &[], &["s"], 0)),
            ),
        );
        g.validate().unwrap();
    }

    #[test]
    fn leaf_count_counts_specs_not_copies() {
        let g = GraphSpec::slice("sl", 8, leaf("x", &[], &["s"], 0));
        assert_eq!(g.leaf_count(), 1);
    }
}
