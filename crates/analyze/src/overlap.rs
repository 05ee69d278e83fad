//! XA001 — region-overlap analysis for shared boundary streams.
//!
//! A `slice` or `crossdep` group copies its body. Each copy of a leaf gets
//! a [`SliceAssign`](hinch::component::SliceAssign) and writes only its
//! `range(len)` of a stream the copies share. The runtime composes the
//! assignments across nesting levels (`compose_assign` in
//! `hinch::graph::instance`): copy `i` of an `n`-way group inside outer
//! copy `(o, m)` is copy `o*n + i` of `m*n`. So the copies of one
//! replicated leaf carry one total and hold every index below it exactly
//! once: together they cover the whole buffer, each element once. That
//! decides the analysis on the spec, with no group expanded:
//!
//! * two copies of the same leaf never overlap;
//! * any *other* writer of the stream overlaps one of them.
//!
//! A stream therefore conflicts exactly when it has two distinct writers
//! that can be live together (compatible option paths) and at least one of
//! them is replicated. Two unreplicated writers are XA011's concern. "The
//! stream" is the one the runtime resolves: a stream private to a
//! replicated body is one instance per copy, so only writers in that same
//! body share it ([`LeafNode::output_scopes`]).

use crate::model::{option_paths_compatible, LeafNode, Model};
use std::collections::{BTreeMap, HashMap};
use xspcl::xml::Span;
use xspcl::Diagnostic;

pub const CODE: &str = "XA001";

pub fn check(model: &Model, spans: &HashMap<String, Span>) -> Vec<Diagnostic> {
    let mut writers: BTreeMap<(&str, &str), Vec<&LeafNode>> = BTreeMap::new();
    for leaf in &model.leaves {
        for (stream, scope) in leaf.outputs.iter().zip(&leaf.output_scopes) {
            writers.entry((stream, scope)).or_default().push(leaf);
        }
    }

    let mut diags = Vec::new();
    for ((stream, _), ws) in &writers {
        // (writer, writer, a replicated one of the two and its copy count)
        let mut conflicts = Vec::new();
        for (i, &a) in ws.iter().enumerate() {
            for &b in &ws[i + 1..] {
                let copied = a.copies.map(|n| (a, n)).or(b.copies.map(|n| (b, n)));
                if let Some(copied) = copied {
                    if option_paths_compatible(&a.option_path, &b.option_path) {
                        conflicts.push((a, b, copied));
                    }
                }
            }
        }
        let Some(&(a, b, (copied, n))) = conflicts.first() else {
            continue;
        };
        let mut message = format!(
            "writers '{}' and '{}' of stream '{stream}' claim overlapping regions: the {n} \
             copies of '{}' cover the whole buffer, so any other writer overlaps one of them",
            a.name, b.name, copied.name
        );
        if conflicts.len() > 1 {
            message.push_str(&format!(
                " ({} more conflicting pair(s) on this stream)",
                conflicts.len() - 1
            ));
        }
        let mut d = Diagnostic::error(CODE, message)
            .with_node(a.name.clone())
            .with_fix(
                "give one writer its own stream, or make the writers mutually exclusive options",
            );
        if let Some(span) = spans.get(&a.name) {
            d = d.with_span(*span);
        }
        diags.push(d);
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::build;
    use crate::testutil::leaf;
    use hinch::graph::GraphSpec;

    fn check_spec(g: &GraphSpec) -> Vec<Diagnostic> {
        check(&build(g), &HashMap::new())
    }

    /// The one XA001 of `g`, checked to concern `node` and name `writers`.
    fn assert_one(g: &GraphSpec, node: &str, writers: &str) {
        let diags = check_spec(g);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, CODE);
        assert_eq!(diags[0].node.as_deref(), Some(node));
        assert!(
            diags[0].message.starts_with(&format!("writers {writers} ")),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn composed_nested_slices_are_clean() {
        let g = GraphSpec::seq(vec![
            leaf("src", &[], &["x"]),
            GraphSpec::slice(
                "outer",
                2,
                GraphSpec::slice("inner", 2, leaf("w", &["x"], &["y"])),
            ),
            leaf("snk", &["y"], &[]),
        ]);
        let diags = check_spec(&g);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn differing_widths_overlap() {
        // two separate slice groups of different widths writing one stream
        let g = GraphSpec::seq(vec![
            leaf("src", &[], &["x"]),
            GraphSpec::task(vec![
                GraphSpec::slice("a", 2, leaf("w1", &["x"], &["y"])),
                GraphSpec::slice("b", 3, leaf("w2", &["x"], &["y"])),
            ]),
            leaf("snk", &["y"], &[]),
        ]);
        assert_one(&g, "w1", "'w1' and 'w2'");
    }

    #[test]
    fn a_whole_buffer_writer_in_a_nested_option_overlaps_the_copies() {
        // options 'a' and 'a/b' can be live together; XA011 counts only
        // unconditional writers, so this is XA001's to report
        let g = GraphSpec::seq(vec![
            leaf("src", &[], &["x"]),
            GraphSpec::option(
                "a",
                true,
                GraphSpec::seq(vec![
                    GraphSpec::slice("sl", 4, leaf("w", &["x"], &["y"])),
                    GraphSpec::option("b", true, leaf("whole", &["x"], &["y"])),
                ]),
            ),
            leaf("snk", &["y"], &[]),
        ]);
        assert_one(&g, "w", "'w' and 'whole'");
        assert!(check_spec(&g)[0].message.contains("the 4 copies of 'w'"));
    }

    #[test]
    fn sibling_option_writers_are_not_compared() {
        let g = GraphSpec::seq(vec![
            leaf("src", &[], &["x"]),
            GraphSpec::option(
                "a",
                true,
                GraphSpec::slice("sa", 2, leaf("w1", &["x"], &["y"])),
            ),
            GraphSpec::option(
                "b",
                false,
                GraphSpec::slice("sb", 3, leaf("w2", &["x"], &["y"])),
            ),
            leaf("snk", &["y"], &[]),
        ]);
        let diags = check_spec(&g);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn a_private_stream_is_shared_only_inside_its_body() {
        // 't' is written and read inside the slice body: each copy has its
        // own, so the outside writer of 't' writes a different stream
        let body = GraphSpec::seq(vec![leaf("p", &["x"], &["t"]), leaf("q", &["t"], &["y"])]);
        let outside = GraphSpec::seq(vec![
            leaf("src", &[], &["x"]),
            GraphSpec::slice("sl", 2, body),
            leaf("o", &["x"], &["t"]),
            leaf("snk", &["y"], &[]),
        ]);
        assert!(check_spec(&outside).is_empty());
        // two writers of 't' inside the body share each copy's instance
        let body = GraphSpec::seq(vec![
            leaf("p", &["x"], &["t"]),
            leaf("p2", &["x"], &["t"]),
            leaf("q", &["t"], &["y"]),
        ]);
        let inside = GraphSpec::seq(vec![
            leaf("src", &[], &["x"]),
            GraphSpec::slice("sl", 2, body),
            leaf("snk", &["y"], &[]),
        ]);
        assert_one(&inside, "p", "'p' and 'p2'");
    }
}
