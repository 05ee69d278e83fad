//! The one JSON writer of the workspace.
//!
//! The workspace is dependency-free by design, so JSON is hand-rolled —
//! but hand-rolled *once*: trace exports, insight and conformance
//! reports, analyzer diagnostics and the serving front-end's stats,
//! telemetry and HTTP bodies share a single [`escape`] implementation. A
//! second escaping routine is where injection bugs breed.

/// Escape a string for embedding inside a JSON string literal
/// (backslash, quote, and control characters — panic messages carry
/// newlines, labels are arbitrary caller input via `Runtime::spawn`).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// `s` as a JSON string literal: [`escape`]d, quotes included.
pub fn string(s: &str) -> String {
    format!("\"{}\"", escape(s))
}

/// Render an array from pre-rendered JSON values.
pub fn array(items: impl IntoIterator<Item = String>) -> String {
    let items: Vec<String> = items.into_iter().collect();
    format!("[{}]", items.join(","))
}

/// Incremental `{...}` builder. Field order is insertion order; values
/// go through exactly one escaping path ([`escape`]) for strings, or in
/// raw for pre-rendered sub-documents.
#[derive(Default)]
pub struct JsonObject {
    /// The fields so far, without the braces.
    buf: String,
}

impl JsonObject {
    pub fn new() -> Self {
        Self::default()
    }

    fn key(&mut self, key: &str) -> &mut String {
        if !self.buf.is_empty() {
            self.buf.push(',');
        }
        self.buf.push('"');
        self.buf.push_str(key); // keys are compile-time identifiers
        self.buf.push_str("\":");
        &mut self.buf
    }

    /// A string field, escaped.
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.key(key).push_str(&string(value));
        self
    }

    /// An optional string field: `null` when absent.
    pub fn opt_str(self, key: &str, value: Option<&str>) -> Self {
        match value {
            Some(v) => self.str(key, v),
            None => self.raw(key, "null"),
        }
    }

    /// An integer field.
    pub fn num(mut self, key: &str, value: impl Into<u64>) -> Self {
        let v = value.into();
        let buf = self.key(key);
        buf.push_str(&v.to_string());
        self
    }

    /// A float field rendered with one decimal (the workspace's report
    /// convention).
    pub fn f1(mut self, key: &str, value: f64) -> Self {
        let buf = self.key(key);
        buf.push_str(&format!("{value:.1}"));
        self
    }

    /// A pre-rendered JSON value (array, object, `null`, bool) verbatim.
    pub fn raw(mut self, key: &str, value: &str) -> Self {
        let buf = self.key(key);
        buf.push_str(value);
        self
    }

    pub fn build(self) -> String {
        format!("{{{}}}", self.buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The single escaping test of the workspace: every writer call
    /// site funnels through [`escape`], so this covers the trace
    /// exports, the reports, the diagnostics and the serving bodies alike.
    #[test]
    fn escape_neutralizes_quotes_controls_and_backslashes() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a\"b"), "a\\\"b");
        assert_eq!(escape("a\\b"), "a\\\\b");
        assert_eq!(escape("line\nbreak\r\ttab"), "line\\nbreak\\r\\ttab");
        assert_eq!(escape("\u{1}"), "\\u0001");
        // Non-ASCII passes through (JSON is UTF-8).
        assert_eq!(escape("żółć"), "żółć");
        assert_eq!(string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }

    #[test]
    fn object_builder_renders_each_field_kind() {
        let json = JsonObject::new()
            .num("id", 3u32)
            .str("label", "a\"b")
            .f1("mean", 1.25)
            .opt_str("failure", None)
            .raw("items", &array(["1".to_string(), "2".to_string()]))
            .build();
        assert_eq!(
            json,
            "{\"id\":3,\"label\":\"a\\\"b\",\"mean\":1.2,\"failure\":null,\"items\":[1,2]}"
        );
        assert_eq!(JsonObject::new().build(), "{}");
        assert_eq!(array(std::iter::empty()), "[]");
    }
}
