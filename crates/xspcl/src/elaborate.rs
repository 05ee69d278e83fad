//! Elaboration: XSPCL document → executable [`hinch::GraphSpec`].
//!
//! This is the paper's "conversion tool": it expands procedures at their
//! call sites (procedural abstraction is purely an initialization-time
//! concept), resolves stream names to application-global keys, binds
//! component classes to factories from a [`ComponentRegistry`] (the role
//! the `class` attribute plays for C functions in the paper), and
//! materializes managers, rules and event queues.
//!
//! Everything this module does happens **once**, at initialization or
//! reconfiguration time — the per-frame path never touches it. That is the
//! paper's "overhead of XSPCL is negligible" claim, and the `glue`
//! benchmark measures it.

use crate::ast::*;
use crate::error::XspclError;
use crate::xml::Span;
use hinch::component::{Component, ParamValue, Params, ReconfigRequest, RunCtx};
use hinch::event::EventQueue;
use hinch::graph::{ComponentSpec, GraphSpec, ManagerSpec};
use hinch::manager::EventAction;
use std::collections::HashMap;
use std::sync::Arc;

type Result<T> = std::result::Result<T, XspclError>;

/// Constructor for a component class.
pub type Constructor = Arc<dyn Fn(&Params) -> Box<dyn Component> + Send + Sync>;

/// Maps XSPCL `class` names to component constructors — the equivalent of
/// the paper's link step against the component C code.
#[derive(Clone, Default)]
pub struct ComponentRegistry {
    map: HashMap<String, Constructor>,
    stub_unknown: bool,
}

impl ComponentRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// A registry that fabricates inert components for unknown classes.
    /// Only for analysis and code generation — stub components do not
    /// touch their ports, so running them will trip stream checks.
    pub fn stubbed() -> Self {
        Self {
            map: HashMap::new(),
            stub_unknown: true,
        }
    }

    /// Register a constructor for `class`.
    pub fn register<F>(&mut self, class: impl Into<String>, ctor: F) -> &mut Self
    where
        F: Fn(&Params) -> Box<dyn Component> + Send + Sync + 'static,
    {
        self.map.insert(class.into(), Arc::new(ctor));
        self
    }

    pub fn contains(&self, class: &str) -> bool {
        self.map.contains_key(class)
    }

    /// Build a ready [`hinch::graph::ComponentFactory`] for `class` bound
    /// to `params` — the call generated glue code uses.
    ///
    /// # Panics
    /// If the class is unknown (generated glue is only linked against
    /// registries that provide its classes).
    pub fn factory(&self, class: &str, params: Params) -> hinch::graph::ComponentFactory {
        let ctor = self
            .constructor(class, Span::UNKNOWN)
            .unwrap_or_else(|_| panic!("component class '{class}' not registered"));
        hinch::graph::factory(move |p| ctor(p), params)
    }

    fn constructor(&self, class: &str, span: Span) -> Result<Constructor> {
        if let Some(c) = self.map.get(class) {
            return Ok(c.clone());
        }
        if self.stub_unknown {
            let class = class.to_string();
            return Ok(Arc::new(move |_p: &Params| -> Box<dyn Component> {
                Box::new(StubComponent {
                    class: class.clone(),
                })
            }));
        }
        Err(XspclError::elaborate(
            format!("unknown component class '{class}'"),
            span,
        ))
    }
}

struct StubComponent {
    class: String,
}

impl Component for StubComponent {
    fn class(&self) -> &'static str {
        "stub"
    }
    fn run(&mut self, _ctx: &mut RunCtx<'_>) {
        panic!("stub component '{}' must not be executed", self.class);
    }
}

/// The elaboration result: a validated graph spec plus the application's
/// event queues (so the host and injector components can reach them).
pub struct Elaborated {
    pub spec: GraphSpec,
    pub queues: HashMap<String, EventQueue>,
    /// Source spans of elaborated constructs, for diagnostics. Keys are
    /// elaborated names: component instances and slice/crossdep groups
    /// and managers under their scoped name (`main/a`), options as
    /// `option:NAME` and queues as `queue:NAME`.
    pub spans: HashMap<String, Span>,
}

impl std::fmt::Debug for Elaborated {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Elaborated")
            .field("components", &self.spec.leaf_count())
            .field("queues", &self.queues.keys().collect::<Vec<_>>())
            .finish()
    }
}

/// Elaborate a validated document against a registry.
pub fn elaborate(doc: &Document, registry: &ComponentRegistry) -> Result<Elaborated> {
    let elaborated = elaborate_unchecked(doc, registry)?;
    elaborated.spec.validate()?;
    Ok(elaborated)
}

/// Like [`elaborate`], but without the run-time system's final structural
/// validation. The static analyzer uses this so it can report structural
/// problems itself — with spans and all at once — instead of receiving
/// hinch's first error only.
pub fn elaborate_unchecked(doc: &Document, registry: &ComponentRegistry) -> Result<Elaborated> {
    let queues: HashMap<String, EventQueue> = doc
        .queues
        .iter()
        .map(|q| (q.name.clone(), EventQueue::new(q.name.clone())))
        .collect();
    let main = doc
        .main()
        .ok_or_else(|| XspclError::semantic("no 'main' procedure", Span::UNKNOWN))?;
    let mut elab = Elaborator {
        doc,
        registry,
        queues: &queues,
        call_counter: 0,
        spans: doc
            .queues
            .iter()
            .map(|q| (format!("queue:{}", q.name), q.span))
            .collect(),
    };
    let env = Env {
        formals: HashMap::new(),
        streams: main
            .streams
            .iter()
            .map(|s| (s.clone(), format!("main/{s}")))
            .collect(),
        scope: "main".to_string(),
    };
    let spec = seq_of(elab.body(&main.body, &env)?);
    let spans = elab.spans;
    Ok(Elaborated {
        spec,
        queues,
        spans,
    })
}

struct Env {
    /// Value formals in scope (already resolved to literals).
    formals: HashMap<String, String>,
    /// Stream name in scope → application-global stream key.
    streams: HashMap<String, String>,
    scope: String,
}

impl Env {
    /// Substitute `$formal` references (whole-value substitution).
    fn value(&self, raw: &str, span: Span) -> Result<String> {
        if let Some(f) = raw.strip_prefix('$') {
            self.formals
                .get(f)
                .cloned()
                .ok_or_else(|| XspclError::elaborate(format!("unbound formal '${f}'"), span))
        } else {
            Ok(raw.to_string())
        }
    }

    fn stream(&self, raw: &str, span: Span) -> Result<String> {
        let name = self.value(raw, span)?;
        self.streams
            .get(&name)
            .cloned()
            .ok_or_else(|| XspclError::elaborate(format!("unbound stream '{name}'"), span))
    }
}

fn seq_of(mut parts: Vec<GraphSpec>) -> GraphSpec {
    if parts.len() == 1 {
        parts.pop().expect("len checked")
    } else {
        GraphSpec::Seq(parts)
    }
}

/// Parse a parameter literal to a typed value: int, then finite float,
/// else string — `f64` also parses `nan`, `inf` and `infinity` in any
/// case, and `<param name="file" value="Inf"/>` names a file.
fn typed_value(raw: &str) -> ParamValue {
    if let Ok(i) = raw.parse::<i64>() {
        ParamValue::Int(i)
    } else if let Some(f) = raw.parse::<f64>().ok().filter(|f| f.is_finite()) {
        ParamValue::Float(f)
    } else {
        ParamValue::Str(raw.to_string())
    }
}

struct Elaborator<'a> {
    doc: &'a Document,
    registry: &'a ComponentRegistry,
    queues: &'a HashMap<String, EventQueue>,
    call_counter: usize,
    spans: HashMap<String, Span>,
}

impl Elaborator<'_> {
    fn body(&mut self, body: &[Stmt], env: &Env) -> Result<Vec<GraphSpec>> {
        body.iter().map(|stmt| self.stmt(stmt, env)).collect()
    }

    fn stmt(&mut self, stmt: &Stmt, env: &Env) -> Result<GraphSpec> {
        match stmt {
            Stmt::Component(c) => self.component(c, env),
            Stmt::Call(c) => self.call(c, env),
            Stmt::Parallel(p) => self.parallel(p, env),
            Stmt::Manager(m) => self.manager(m, env),
            Stmt::Option(o) => {
                self.spans.insert(format!("option:{}", o.name), o.span);
                Ok(GraphSpec::Option {
                    name: o.name.clone(),
                    enabled: o.enabled,
                    body: Box::new(seq_of(self.body(&o.body, env)?)),
                })
            }
        }
    }

    fn component(&mut self, c: &ComponentStmt, env: &Env) -> Result<GraphSpec> {
        let mut params = Params::new();
        for p in &c.params {
            match &p.value {
                ParamKind::Value(raw) => {
                    let v = env.value(raw, c.span)?;
                    params = params.set(p.name.clone(), typed_value(&v));
                }
                ParamKind::Queue(qname) => {
                    let q = self.queues.get(qname).ok_or_else(|| {
                        XspclError::elaborate(format!("undeclared queue '{qname}'"), c.span)
                    })?;
                    params = params.set(p.name.clone(), q.clone());
                }
            }
        }
        let ctor = self.registry.constructor(&c.class, c.span)?;
        let scoped = format!("{}/{}", env.scope, c.name);
        self.spans.insert(scoped.clone(), c.span);
        let mut spec = ComponentSpec::new(
            scoped,
            c.class.clone(),
            hinch::graph::factory(move |p| ctor(p), params.clone()),
        )
        .with_params(params);
        for (_, s) in &c.inputs {
            spec = spec.input(env.stream(s, c.span)?);
        }
        for (_, s) in &c.outputs {
            spec = spec.output(env.stream(s, c.span)?);
        }
        for (key, value) in &c.reconfigs {
            let v = env.value(value, c.span)?;
            spec = spec.reconfig(ReconfigRequest::User {
                key: key.clone(),
                value: typed_value(&v),
            });
        }
        Ok(GraphSpec::Leaf(spec))
    }

    fn call(&mut self, call: &CallStmt, env: &Env) -> Result<GraphSpec> {
        let callee = self.doc.procedure(&call.procedure).ok_or_else(|| {
            XspclError::elaborate(format!("unknown procedure '{}'", call.procedure), call.span)
        })?;
        self.call_counter += 1;
        let scope = format!("{}/{}#{}", env.scope, call.procedure, self.call_counter);

        // value formals: defaults, overridden by actuals
        let mut formals = HashMap::new();
        for f in &callee.formals {
            if let Some(d) = &f.default {
                formals.insert(f.name.clone(), d.clone());
            }
        }
        for p in &call.params {
            match &p.value {
                ParamKind::Value(raw) => {
                    formals.insert(p.name.clone(), env.value(raw, call.span)?);
                }
                ParamKind::Queue(_) => {
                    return Err(XspclError::elaborate(
                        format!(
                            "call parameter '{}' may not be a queue (queues are global)",
                            p.name
                        ),
                        call.span,
                    ))
                }
            }
        }
        for f in &callee.formals {
            if !formals.contains_key(&f.name) {
                return Err(XspclError::elaborate(
                    format!("call to '{}' misses parameter '{}'", call.procedure, f.name),
                    call.span,
                ));
            }
        }

        // stream namespace: formal streams bound to caller globals, locals
        // get fresh scoped keys
        let mut streams = HashMap::new();
        for (formal, actual) in &call.binds {
            streams.insert(formal.clone(), env.stream(actual, call.span)?);
        }
        for local in &callee.streams {
            streams.insert(local.clone(), format!("{scope}/{local}"));
        }

        let child = Env {
            formals,
            streams,
            scope,
        };
        let parts = self.body(&callee.body, &child)?;
        Ok(seq_of(parts))
    }

    fn parallel(&mut self, p: &ParallelStmt, env: &Env) -> Result<GraphSpec> {
        let n = match &p.n {
            None => None,
            Some(raw) => {
                let v = env.value(raw, p.span)?;
                let n: usize = v.parse().map_err(|_| {
                    XspclError::elaborate(format!("'n' is not a positive integer: '{v}'"), p.span)
                })?;
                if n == 0 {
                    return Err(XspclError::elaborate("'n' must be at least 1", p.span));
                }
                Some(n)
            }
        };
        let name = format!("{}/{}", env.scope, p.name);
        self.spans.insert(name.clone(), p.span);
        match p.shape {
            Shape::Task => {
                let blocks = p
                    .parblocks
                    .iter()
                    .map(|b| Ok(seq_of(self.body(b, env)?)))
                    .collect::<Result<Vec<_>>>()?;
                Ok(GraphSpec::Task(blocks))
            }
            Shape::Slice => {
                let body = seq_of(self.body(&p.parblocks[0], env)?);
                Ok(GraphSpec::Slice {
                    name,
                    n: n.ok_or_else(|| XspclError::elaborate("slice needs 'n'", p.span))?,
                    body: Box::new(body),
                })
            }
            Shape::CrossDep => {
                let blocks = p
                    .parblocks
                    .iter()
                    .map(|b| Ok(seq_of(self.body(b, env)?)))
                    .collect::<Result<Vec<_>>>()?;
                Ok(GraphSpec::CrossDep {
                    name,
                    n: n.ok_or_else(|| XspclError::elaborate("crossdep needs 'n'", p.span))?,
                    blocks,
                })
            }
        }
    }

    fn manager(&mut self, m: &ManagerStmt, env: &Env) -> Result<GraphSpec> {
        let queue = self.queues.get(&m.queue).ok_or_else(|| {
            XspclError::elaborate(format!("undeclared queue '{}'", m.queue), m.span)
        })?;
        let scoped = format!("{}/{}", env.scope, m.name);
        self.spans.insert(scoped.clone(), m.span);
        let mut spec = ManagerSpec::new(scoped, queue.clone());
        for rule in &m.rules {
            let actions = rule
                .actions
                .iter()
                .map(|a| {
                    Ok(match a {
                        ActionStmt::Enable(o) => EventAction::Enable(o.clone()),
                        ActionStmt::Disable(o) => EventAction::Disable(o.clone()),
                        ActionStmt::Toggle(o) => EventAction::Toggle(o.clone()),
                        ActionStmt::Broadcast(k) => EventAction::Broadcast { key: k.clone() },
                        ActionStmt::Forward(qname) => {
                            let q = self.queues.get(qname).ok_or_else(|| {
                                XspclError::elaborate(
                                    format!("undeclared queue '{qname}'"),
                                    rule.span,
                                )
                            })?;
                            EventAction::Forward(q.clone())
                        }
                    })
                })
                .collect::<Result<Vec<_>>>()?;
            spec = spec.on(rule.event.clone(), actions);
        }
        let body = seq_of(self.body(&m.body, env)?);
        Ok(GraphSpec::managed(spec, body))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_and_validate;
    use hinch::graph::GraphSpec;

    fn registry() -> ComponentRegistry {
        let mut r = ComponentRegistry::new();
        for class in ["src", "work", "sink"] {
            r.register(class, |_p: &Params| -> Box<dyn Component> {
                Box::new(Noop)
            });
        }
        r
    }

    struct Noop;
    impl Component for Noop {
        fn class(&self) -> &'static str {
            "noop"
        }
        fn run(&mut self, _ctx: &mut RunCtx<'_>) {}
    }

    fn compile(src: &str) -> Result<Elaborated> {
        let doc = parse_and_validate(src)?;
        elaborate(&doc, &registry())
    }

    #[test]
    fn pipeline_elaborates() {
        let e = compile(
            r#"<xspcl><procedure name="main">
                 <stream name="s"/>
                 <body>
                   <component name="a" class="src"><out stream="s"/></component>
                   <component name="b" class="sink"><in stream="s"/></component>
                 </body>
               </procedure></xspcl>"#,
        )
        .unwrap();
        assert_eq!(e.spec.leaf_count(), 2);
        let mut names = Vec::new();
        e.spec.visit_leaves(&mut |c| names.push(c.name.clone()));
        assert_eq!(names, vec!["main/a", "main/b"]);
        let mut streams = Vec::new();
        e.spec
            .visit_leaves(&mut |c| streams.extend(c.outputs.clone()));
        assert_eq!(streams, vec!["main/s"]);
    }

    #[test]
    fn call_expands_with_private_locals() {
        let e = compile(
            r#"<xspcl>
                 <procedure name="main">
                   <stream name="in"/><stream name="out1"/><stream name="out2"/>
                   <body>
                     <component name="g" class="src"><out stream="in"/></component>
                     <call procedure="stage">
                       <bind formal="x" stream="in"/><bind formal="y" stream="out1"/>
                     </call>
                     <call procedure="stage">
                       <bind formal="x" stream="in"/><bind formal="y" stream="out2"/>
                     </call>
                     <component name="k1" class="sink"><in stream="out1"/></component>
                     <component name="k2" class="sink"><in stream="out2"/></component>
                   </body>
                 </procedure>
                 <procedure name="stage">
                   <formalstream name="x"/><formalstream name="y"/>
                   <stream name="tmp"/>
                   <body>
                     <component name="f" class="work"><in stream="x"/><out stream="tmp"/></component>
                     <component name="g" class="work"><in stream="tmp"/><out stream="y"/></component>
                   </body>
                 </procedure>
               </xspcl>"#,
        )
        .unwrap();
        // two expansions of 'stage' → 4 work components with distinct tmp streams
        assert_eq!(e.spec.leaf_count(), 7);
        let mut tmps = std::collections::HashSet::new();
        e.spec.visit_leaves(&mut |c| {
            for s in &c.outputs {
                if s.contains("tmp") {
                    tmps.insert(s.clone());
                }
            }
        });
        assert_eq!(
            tmps.len(),
            2,
            "each call instance has a private tmp: {tmps:?}"
        );
    }

    #[test]
    fn formals_substitute_into_params_and_n() {
        let e = compile(
            r#"<xspcl>
                 <procedure name="main">
                   <stream name="s"/><stream name="o"/>
                   <body>
                     <component name="g" class="src"><out stream="s"/></component>
                     <call procedure="p">
                       <bind formal="x" stream="s"/><bind formal="y" stream="o"/>
                       <param name="n" value="6"/>
                     </call>
                     <component name="k" class="sink"><in stream="o"/></component>
                   </body>
                 </procedure>
                 <procedure name="p">
                   <formal name="n" default="2"/>
                   <formalstream name="x"/><formalstream name="y"/>
                   <body>
                     <parallel shape="slice" n="$n">
                       <parblock>
                         <component name="w" class="work">
                           <in stream="x"/><out stream="y"/>
                           <param name="copies" value="$n"/>
                         </component>
                       </parblock>
                     </parallel>
                   </body>
                 </procedure>
               </xspcl>"#,
        )
        .unwrap();
        fn find_slice(g: &GraphSpec) -> Option<usize> {
            match g {
                GraphSpec::Slice { n, .. } => Some(*n),
                GraphSpec::Seq(cs)
                | GraphSpec::Task(cs)
                | GraphSpec::CrossDep { blocks: cs, .. } => cs.iter().find_map(find_slice),
                GraphSpec::Managed { body, .. } | GraphSpec::Option { body, .. } => {
                    find_slice(body)
                }
                GraphSpec::Leaf(_) => None,
            }
        }
        assert_eq!(find_slice(&e.spec), Some(6));
    }

    #[test]
    fn manager_and_queue_wireup() {
        let e = compile(
            r#"<xspcl>
                 <queue name="mq"/>
                 <procedure name="main">
                   <stream name="s"/>
                   <body>
                     <manager name="m" queue="mq">
                       <on event="flip"><toggle option="extra"/></on>
                       <body>
                         <component name="a" class="src">
                           <out stream="s"/>
                           <param name="events" queue="mq"/>
                         </component>
                         <option name="extra" enabled="false">
                           <component name="x" class="sink"><in stream="s"/></component>
                         </option>
                       </body>
                     </manager>
                   </body>
                 </procedure>
               </xspcl>"#,
        )
        .unwrap();
        assert!(e.queues.contains_key("mq"));
        let GraphSpec::Managed { manager, .. } = &e.spec else {
            panic!("expected managed root")
        };
        assert_eq!(manager.rules.len(), 1);
        assert!(manager.queue.same_queue(&e.queues["mq"]));
    }

    #[test]
    fn unknown_class_is_an_error() {
        let err = compile(
            r#"<xspcl><procedure name="main"><stream name="s"/><body>
                 <component name="a" class="nope"><out stream="s"/></component>
               </body></procedure></xspcl>"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("unknown component class"), "{err}");
    }

    #[test]
    fn stubbed_registry_accepts_any_class() {
        let doc = parse_and_validate(
            r#"<xspcl><procedure name="main"><stream name="s"/><body>
                 <component name="a" class="whatever"><out stream="s"/></component>
                 <component name="b" class="sink"><in stream="s"/></component>
               </body></procedure></xspcl>"#,
        )
        .unwrap();
        let e = elaborate(&doc, &ComponentRegistry::stubbed()).unwrap();
        assert_eq!(e.spec.leaf_count(), 2);
    }

    #[test]
    fn graph_level_errors_surface() {
        // two writers of the same stream → hinch validation error
        let err = compile(
            r#"<xspcl><procedure name="main"><stream name="s"/><body>
                 <parallel shape="task">
                   <parblock><component name="a" class="src"><out stream="s"/></component></parblock>
                   <parblock><component name="b" class="src"><out stream="s"/></component></parblock>
                 </parallel>
                 <component name="k" class="sink"><in stream="s"/></component>
               </body></procedure></xspcl>"#,
        )
        .unwrap_err();
        assert!(matches!(err, XspclError::Graph(_)), "{err}");
    }

    #[test]
    fn typed_values() {
        assert_eq!(typed_value("42"), ParamValue::Int(42));
        assert_eq!(typed_value("-3"), ParamValue::Int(-3));
        assert_eq!(typed_value("2.5"), ParamValue::Float(2.5));
        assert_eq!(typed_value("1e300"), ParamValue::Float(1e300));
        assert_eq!(typed_value("abc"), ParamValue::Str("abc".into()));
        for name in [
            "nan", "NaN", "inf", "Inf", "-inf", "+INF", "infinity", "Infinity", "1e400",
        ] {
            assert_eq!(typed_value(name), ParamValue::Str(name.into()), "{name}");
        }
    }
}
