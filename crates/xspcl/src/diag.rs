//! Structured diagnostics with stable codes, spans and suggested fixes.
//!
//! Both the semantic validator ([`crate::validate::check_all`]) and the
//! static analyzer (`crates/analyze`) report through this type, so every
//! front-end — the `xspclc` CLI, CI, the apps' self-checks — sees the
//! same shape: a stable `XA0xx` code, a severity, the source span the
//! problem anchors to, the elaborated node it concerns (when known) and
//! a suggested fix. Rendering is either human-readable text or JSON
//! (hand-rolled: the workspace carries no serialization dependency).

use crate::xml::Span;
use hinch::trace::json::string as json_string;
use std::fmt;

/// How bad a diagnostic is. Anything at [`Severity::Error`] means the
/// specification will misbehave at run time; [`Severity::Warning`] marks
/// dead or suspicious wiring that still executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    Warning,
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One finding: a stable code, severity, message and anchors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable machine-readable code (`XA001`, `XA090`, ...).
    pub code: &'static str,
    pub severity: Severity,
    pub message: String,
    /// Source position ([`Span::UNKNOWN`] when the construct has no
    /// textual anchor, e.g. a programmatically built graph).
    pub span: Span,
    /// Elaborated node or stream the diagnostic concerns, when known.
    pub node: Option<String>,
    /// A suggested fix, when one is obvious.
    pub fix: Option<String>,
}

impl Diagnostic {
    pub fn error(code: &'static str, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: Severity::Error,
            message: message.into(),
            span: Span::UNKNOWN,
            node: None,
            fix: None,
        }
    }

    pub fn warning(code: &'static str, message: impl Into<String>) -> Self {
        Diagnostic {
            severity: Severity::Warning,
            ..Diagnostic::error(code, message)
        }
    }

    pub fn with_span(mut self, span: Span) -> Self {
        self.span = span;
        self
    }

    pub fn with_node(mut self, node: impl Into<String>) -> Self {
        self.node = Some(node.into());
        self
    }

    pub fn with_fix(mut self, fix: impl Into<String>) -> Self {
        self.fix = Some(fix.into());
        self
    }

    /// One human-readable line (plus an indented fix line when present).
    pub fn render_human(&self) -> String {
        let mut out = format!("{}[{}]", self.severity, self.code);
        if self.span != Span::UNKNOWN {
            out.push_str(&format!(" at {}", self.span));
        }
        out.push_str(&format!(": {}", self.message));
        if let Some(node) = &self.node {
            out.push_str(&format!(" [{node}]"));
        }
        if let Some(fix) = &self.fix {
            out.push_str(&format!("\n  fix: {fix}"));
        }
        out
    }

    /// One JSON object (no trailing newline).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!("\"code\":{}", json_string(self.code)));
        out.push_str(&format!(
            ",\"severity\":{}",
            json_string(&self.severity.to_string())
        ));
        out.push_str(&format!(",\"message\":{}", json_string(&self.message)));
        out.push_str(&format!(
            ",\"line\":{},\"col\":{}",
            self.span.line, self.span.col
        ));
        match &self.node {
            Some(n) => out.push_str(&format!(",\"node\":{}", json_string(n))),
            None => out.push_str(",\"node\":null"),
        }
        match &self.fix {
            Some(x) => out.push_str(&format!(",\"fix\":{}", json_string(x))),
            None => out.push_str(",\"fix\":null"),
        }
        out.push('}');
        out
    }
}

/// An ordered collection of diagnostics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Diagnostics {
    items: Vec<Diagnostic>,
}

impl Diagnostics {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(&mut self, d: Diagnostic) {
        self.items.push(d);
    }

    pub fn extend(&mut self, other: Diagnostics) {
        self.items.extend(other.items);
    }

    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    pub fn len(&self) -> usize {
        self.items.len()
    }

    pub fn has_errors(&self) -> bool {
        self.items.iter().any(|d| d.severity == Severity::Error)
    }

    pub fn iter(&self) -> impl Iterator<Item = &Diagnostic> {
        self.items.iter()
    }

    pub fn first(&self) -> Option<&Diagnostic> {
        self.items.first()
    }

    /// Stable presentation order: by span, then code, then message.
    pub fn sort(&mut self) {
        self.items.sort_by(|a, b| {
            (a.span.line, a.span.col, a.code, &a.message).cmp(&(
                b.span.line,
                b.span.col,
                b.code,
                &b.message,
            ))
        });
    }

    /// Multi-line human-readable rendering with a trailing summary.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for d in &self.items {
            out.push_str(&d.render_human());
            out.push('\n');
        }
        let errors = self
            .items
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count();
        let warnings = self.items.len() - errors;
        out.push_str(&format!("{errors} error(s), {warnings} warning(s)\n"));
        out
    }

    /// The full report as one JSON object.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\"diagnostics\":[");
        for (i, d) in self.items.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&d.render_json());
        }
        let errors = self
            .items
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count();
        out.push_str(&format!(
            "],\"errors\":{},\"warnings\":{}}}",
            errors,
            self.items.len() - errors
        ));
        out
    }
}

impl IntoIterator for Diagnostics {
    type Item = Diagnostic;
    type IntoIter = std::vec::IntoIter<Diagnostic>;
    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter()
    }
}

impl From<Vec<Diagnostic>> for Diagnostics {
    fn from(items: Vec<Diagnostic>) -> Self {
        Diagnostics { items }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn human_rendering_includes_code_span_and_fix() {
        let d = Diagnostic::error("XA001", "overlapping write regions")
            .with_span(Span { line: 4, col: 9 })
            .with_node("main/w#0")
            .with_fix("compose nested slice assignments");
        let s = d.render_human();
        assert!(s.contains("error[XA001] at 4:9"), "{s}");
        assert!(s.contains("[main/w#0]"), "{s}");
        assert!(s.contains("fix: compose"), "{s}");
    }

    #[test]
    fn unknown_span_is_omitted_from_human_output() {
        let d = Diagnostic::warning("XA010", "stream never read");
        assert_eq!(d.render_human(), "warning[XA010]: stream never read");
    }

    #[test]
    fn json_escapes_and_counts() {
        let mut ds = Diagnostics::new();
        ds.push(Diagnostic::error("XA011", "two \"writers\"").with_span(Span { line: 1, col: 2 }));
        ds.push(Diagnostic::warning("XA012", "line\nbreak"));
        let j = ds.render_json();
        assert!(j.contains("\"two \\\"writers\\\"\""), "{j}");
        assert!(j.contains("\"line\\nbreak\""), "{j}");
        assert!(j.ends_with("\"errors\":1,\"warnings\":1}"), "{j}");
        assert!(ds.has_errors());
    }

    #[test]
    fn sort_orders_by_span_then_code() {
        let mut ds = Diagnostics::new();
        ds.push(Diagnostic::error("XA014", "b").with_span(Span { line: 9, col: 1 }));
        ds.push(Diagnostic::error("XA001", "a").with_span(Span { line: 2, col: 5 }));
        ds.sort();
        assert_eq!(ds.first().unwrap().code, "XA001");
    }
}
