//! The little JSON reading the harness needs: numbers out of the flat
//! objects the server and the harness's own children print. The
//! workspace has no JSON crate, and nothing here needs a parser.

/// The number after the first `"key":` in `doc`.
pub fn number(doc: &str, key: &str) -> Option<f64> {
    let rest = &doc[doc.find(&format!("\"{key}\":"))? + key.len() + 3..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Every number after a `"key":` in `doc`, in order.
pub fn numbers(doc: &str, key: &str) -> Vec<f64> {
    let pat = format!("\"{key}\":");
    doc.match_indices(&pat)
        .filter_map(|(i, _)| number(&doc[i..], key))
        .collect()
}

/// The object of graph `id` in an `all_stats` array: from its `"id":` to
/// the next graph's.
pub fn stats_of(all: &str, id: u32) -> Option<&str> {
    let start = all.find(&format!("\"id\":{id},"))?;
    let rest = &all[start..];
    let end = rest[1..].find("\"id\":").map_or(rest.len(), |e| e + 1);
    Some(&rest[..end])
}

/// The value of metric `name` in a result line
/// (`"name":{"value":1.5,"unit":"ms"}`).
pub fn metric(result: &str, name: &str) -> Option<f64> {
    let at = result.find(&format!("\"{name}\":{{"))?;
    number(&result[at..], "value")
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATS: &str = r#"[{"id":0,"label":"pip1","submitted":3,"completed":2,"inflight":1,"latency_mean_ns":1230105.0,"shed":0,"failure":null},{"id":10,"label":"blur3","submitted":7,"completed":7,"inflight":0,"latency_mean_ns":51.5,"shed":1,"failure":null}]"#;

    #[test]
    fn stats_fields_are_read_per_graph() {
        let g0 = stats_of(STATS, 0).unwrap();
        assert_eq!(number(g0, "completed"), Some(2.0));
        assert_eq!(number(g0, "latency_mean_ns"), Some(1230105.0));
        let g10 = stats_of(STATS, 10).unwrap();
        assert_eq!(number(g10, "completed"), Some(7.0));
        assert_eq!(number(g10, "shed"), Some(1.0));
        assert!(stats_of(STATS, 1).is_none());
        assert_eq!(numbers(STATS, "submitted"), vec![3.0, 7.0]);
        assert_eq!(number(STATS, "absent"), None);
    }

    #[test]
    fn metric_values_are_read_from_a_result_line() {
        let line = r#"{"correct":true,"attempted":5,"failed":0,"metrics":{"frame_ms_p50":{"value":1.25,"unit":"ms"},"frame_ms_p50.r8":{"value":-3e-2,"unit":"ms"}}}"#;
        assert_eq!(metric(line, "frame_ms_p50"), Some(1.25));
        assert_eq!(metric(line, "frame_ms_p50.r8"), Some(-0.03));
        assert_eq!(metric(line, "frame_ms"), None);
        assert_eq!(number(line, "attempted"), Some(5.0));
    }
}
