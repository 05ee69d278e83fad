//! # Static analysis for XSPCL graphs
//!
//! This crate proves properties of an application *before* it runs: that
//! slice copies write disjoint regions of their shared buffers, that no
//! stream is read before scheduling order can have produced it, that
//! wiring is sound (every stream has a writer and a reader, every posted
//! queue a poller), and that no reachable reconfiguration strands a live
//! stream endpoint.
//!
//! Every finding is a [`Diagnostic`] with a stable code:
//!
//! | code  | severity | analysis |
//! |-------|----------|----------|
//! | XA001 | error    | overlapping slice/crossdep write regions ([`overlap`]) |
//! | XA002 | error    | stream-dependency cycle ([`cycle`]) |
//! | XA003 | error    | unordered read of a task sibling's stream ([`cycle`]) |
//! | XA010 | warning  | stream written but never read ([`wiring`]) |
//! | XA011 | error    | multiple simultaneously-live writers ([`wiring`]) |
//! | XA012 | warning  | queue posted-but-unpolled / declared-but-unused ([`wiring`]) |
//! | XA013 | warning  | option no manager rule ever targets ([`wiring`]) |
//! | XA014 | error    | stream read but never written ([`wiring`]) |
//! | XA020 | error    | reconfiguration orphans or races a live stream ([`quiesce`]) |
//! | XA090 | error    | document-level semantic error ([`xspcl::validate::check_all`]) |
//! | XA091 | error    | elaboration failure |
//! | XA099 | error    | residual structural error from the runtime's validator |
//!
//! Entry points: [`check_source`] for XSPCL text (what `xspclc analyze`
//! runs), [`check_app`] for an elaborated application (what the apps
//! crate self-checks), [`check_spec`] for programmatic graphs (no spans).

pub mod cycle;
pub mod model;
pub mod overlap;
pub mod quiesce;
pub mod wiring;

use hinch::error::HinchError;
use hinch::graph::GraphSpec;
use std::collections::HashMap;
use xspcl::xml::Span;
use xspcl::XspclError;

pub use xspcl::{Diagnostic, Diagnostics, Elaborated, Severity};

pub const ELABORATION: &str = "XA091";
pub const RESIDUAL: &str = "XA099";

/// Knobs for the analysis. There are none: every analysis has one
/// behaviour. The type stays because callers of [`check_source`] (the
/// benchmark's layer pass, `serve`'s spawn admission) pass one.
#[derive(Debug, Clone, Default)]
pub struct AnalyzeOptions {}

/// Analyze an elaborated application. This is what the apps crate runs
/// over every registered application.
pub fn check_app(e: &Elaborated) -> Diagnostics {
    let declared: Vec<String> = e.queues.keys().cloned().collect();
    analyze_graph(&e.spec, &e.spans, Some(&declared))
}

/// Analyze a programmatically built graph (no source spans, no queue
/// declarations).
pub fn check_spec(spec: &GraphSpec) -> Diagnostics {
    analyze_graph(spec, &HashMap::new(), None)
}

/// Parse, validate and analyze XSPCL source. Unreadable documents (XML
/// or grammar errors) are `Err`; everything after parsing is reported as
/// diagnostics — semantic errors (XA090) short-circuit elaboration, an
/// elaboration failure becomes XA091, and an elaborated graph gets the
/// full graph analysis.
pub fn check_source(source: &str, _opts: &AnalyzeOptions) -> Result<Diagnostics, XspclError> {
    let root = xspcl::xml::parse(source).map_err(XspclError::from)?;
    let doc = xspcl::parse::document(&root)?;
    let mut semantic = xspcl::validate::check_all(&doc);
    if !semantic.is_empty() {
        semantic.sort();
        return Ok(semantic);
    }
    let e = match xspcl::elaborate_unchecked(&doc, &xspcl::ComponentRegistry::stubbed()) {
        Ok(e) => e,
        Err(err) => {
            let mut diags = Diagnostics::new();
            diags.push(Diagnostic::error(ELABORATION, err.to_string()));
            return Ok(diags);
        }
    };
    Ok(check_app(&e))
}

fn analyze_graph(
    spec: &GraphSpec,
    spans: &HashMap<String, Span>,
    declared_queues: Option<&[String]>,
) -> Diagnostics {
    let model = model::build(spec);
    let mut items: Vec<Diagnostic> = Vec::new();
    items.extend(wiring::check(&model, spans, declared_queues));
    items.extend(cycle::check(&model, spans));
    items.extend(overlap::check(&model, spans));
    items.extend(quiesce::check(&model, spans));
    // residual structural rules the runtime enforces that none of the
    // passes above subsume (empty graphs, zero-width groups, options in
    // slices, unknown/duplicate options)
    match spec.validate() {
        Ok(()) | Err(HinchError::MultipleWriters { .. }) | Err(HinchError::NoWriter { .. }) => {}
        Err(other) => items.push(Diagnostic::error(RESIDUAL, other.to_string())),
    }
    let mut diags = Diagnostics::from(items);
    diags.sort();
    diags
}

#[cfg(test)]
pub mod testutil {
    //! Leaf constructors for analysis tests: the factories build inert
    //! components, since analysis never runs them.

    use hinch::component::{Component, Params, RunCtx};
    use hinch::event::EventQueue;
    use hinch::graph::{factory, ComponentSpec, GraphSpec};

    struct Inert;
    impl Component for Inert {
        fn class(&self) -> &'static str {
            "inert"
        }
        fn run(&mut self, _ctx: &mut RunCtx<'_>) {}
    }

    fn spec(name: &str, inputs: &[&str], outputs: &[&str], params: Params) -> ComponentSpec {
        let mut c = ComponentSpec::new(name, "inert", factory(|_p| Box::new(Inert), Params::new()))
            .with_params(params);
        for i in inputs {
            c = c.input(*i);
        }
        for o in outputs {
            c = c.output(*o);
        }
        c
    }

    pub fn leaf(name: &str, inputs: &[&str], outputs: &[&str]) -> GraphSpec {
        GraphSpec::Leaf(spec(name, inputs, outputs, Params::new()))
    }

    /// A leaf holding a queue handle parameter (it may post events there).
    pub fn leaf_with_queue(
        name: &str,
        inputs: &[&str],
        outputs: &[&str],
        queue: &str,
    ) -> GraphSpec {
        let params = Params::new().set("queue", EventQueue::new(queue));
        GraphSpec::Leaf(spec(name, inputs, outputs, params))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use testutil::leaf;

    #[test]
    fn clean_pipeline_has_no_diagnostics() {
        let g = GraphSpec::seq(vec![
            leaf("src", &[], &["a"]),
            GraphSpec::slice("sl", 4, leaf("work", &["a"], &["b"])),
            leaf("snk", &["b"], &[]),
        ]);
        let diags = check_spec(&g);
        assert!(diags.is_empty(), "{}", diags.render_human());
    }

    #[test]
    fn residual_structural_errors_surface_as_xa099() {
        let g = GraphSpec::slice("sl", 0, leaf("x", &[], &["s"]));
        let diags = check_spec(&g);
        assert!(
            diags.iter().any(|d| d.code == RESIDUAL),
            "{}",
            diags.render_human()
        );
    }

    #[test]
    fn check_source_reports_all_semantic_errors() {
        let diags = check_source(
            r#"<xspcl><procedure name="main"><body>
                 <component name="a" class="x"><out stream="ghost"/></component>
                 <option name="o"/>
               </body></procedure></xspcl>"#,
            &AnalyzeOptions::default(),
        )
        .unwrap();
        assert_eq!(diags.len(), 2, "{}", diags.render_human());
        assert!(diags.iter().all(|d| d.code == "XA090"));
    }

    #[test]
    fn check_source_runs_graph_analyses() {
        // reader before writer in a seq body: deadlock cycle
        let diags = check_source(
            r#"<xspcl><procedure name="main">
                 <stream name="s"/><stream name="t"/>
                 <body>
                   <component name="r" class="x"><in stream="s"/><out stream="t"/></component>
                   <component name="w" class="y"><out stream="s"/></component>
                 </body>
               </procedure></xspcl>"#,
            &AnalyzeOptions::default(),
        )
        .unwrap();
        assert!(
            diags.iter().any(|d| d.code == cycle::CYCLE),
            "{}",
            diags.render_human()
        );
        // the dead stream 't' also warns
        assert!(
            diags.iter().any(|d| d.code == wiring::DEAD_STREAM),
            "{}",
            diags.render_human()
        );
        // spans point into the source
        let c = diags.iter().find(|d| d.code == cycle::CYCLE).unwrap();
        assert_ne!(c.span, Span::UNKNOWN);
    }

    #[test]
    fn check_source_rejects_malformed_xml() {
        assert!(check_source("<xspcl", &AnalyzeOptions::default()).is_err());
    }
}
