//! The serving runtime's live telemetry plane.
//!
//! Three consumers, one data path:
//!
//! * the **counters** every pool keeps: per worker, parked time per
//!   stall cause; per component leaf, jobs and busy time
//!   ([`Runtime::node_times`]); per graph, frames and latency buckets.
//!   All cumulative and exact — a job or a park adds to them, nothing is
//!   sampled or dropped;
//! * a [`Telemetry`] instance owns an [`insight::LiveAnalyzer`]:
//!   [`Telemetry::sample`] closes one analyzer interval against the
//!   runtime's current counters. The server runs a collector thread
//!   doing this at a fixed cadence, and every on-demand export samples
//!   once more so it never serves stale data;
//! * the renderers: [`prometheus_text`] (the HTTP `GET /metrics` body),
//!   [`telemetry_json`] (the wire `Telemetry` opcode payload) and
//!   [`render_top`] (the `hinch-serve top` table) are pure functions of
//!   one `(PoolTelemetry, Vec<GraphStats>, LiveSummary, [AdaptStatus])`
//!   snapshot, so the views can never disagree about what the pool is
//!   doing. [`AdaptStatus`] carries the closed-loop SLO controllers'
//!   state (`crates/adapt`, attached per graph over the wire), exported
//!   as the `hinch_adapt_*` series.
//!
//! [`validate_prometheus`] is a small exposition-format checker (TYPE
//! lines, sample syntax, cumulative histogram invariants) used by the
//! smoke gate and this module's tests — the /metrics body is validated
//! in CI by the same code a scraper would trip over.

use hinch::{GraphStats, PoolTelemetry, Runtime};
use insight::live::{counts_from_nonzero, GraphSample, LiveAnalyzer, LiveSummary};
use std::fmt::Write as _;
use std::sync::Mutex;
use trace::json::{array, JsonObject};
use trace::metrics::LogHistogram;
use trace::StallCause;

/// `Telemetry` request payload formats (the wire carries the selector so
/// the server renders — the client stays parser-free).
pub const FORMAT_JSON: u8 = 0;
pub const FORMAT_PROMETHEUS: u8 = 1;
pub const FORMAT_TABLE: u8 = 2;

/// How many closed intervals the rolling window spans.
const WINDOW_TICKS: usize = 8;

/// One attached SLO controller's state, snapshotted for the exporters:
/// the policy target, the configuration the controller believes is in
/// force, its decision counters and the last decision taken. Produced by
/// the server from its `crates/adapt` governors; rendered as the
/// `hinch_adapt_*` Prometheus families and the `"adapt"` JSON array.
#[derive(Debug, Clone)]
pub struct AdaptStatus {
    pub graph: u32,
    pub app: String,
    /// `CandidateConfig::label()` of the config in force.
    pub config: String,
    /// `true` when the controller holds the app at full quality.
    pub quality_full: bool,
    pub target_p99_ns: u64,
    /// Observation windows consumed.
    pub ticks: u64,
    pub hold: u64,
    pub toggle: u64,
    pub resize: u64,
    pub step_depth: u64,
    /// Action label of the most recent decision (`"hold"`, `"toggle"`,
    /// ...), empty before the first tick.
    pub last_action: String,
    /// Reason of the most recent decision, empty before the first tick.
    pub last_reason: String,
}

/// Shared live-telemetry state: the windowed analyzer. One per server;
/// cheap to sample (one admit-lock hold per graph and a diff).
pub struct Telemetry {
    analyzer: Mutex<LiveAnalyzer>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl Telemetry {
    pub fn new() -> Self {
        Self {
            analyzer: Mutex::new(LiveAnalyzer::new(WINDOW_TICKS)),
        }
    }

    /// Close one analyzer interval against the runtime's current
    /// cumulative counters. Serialized across samplers by the analyzer
    /// lock.
    pub fn sample(&self, runtime: &Runtime) {
        let mut analyzer = self.analyzer.lock().unwrap();
        let samples: Vec<GraphSample> = runtime
            .all_stats()
            .iter()
            .map(|s| GraphSample {
                graph: s.id.0,
                app: s.label.clone(),
                completed: s.completed,
                shed: s.shed,
                inflight: s.inflight,
                latency_counts: counts_from_nonzero(&s.latency_buckets),
                // Empty for a graph drained since `all_stats`.
                busy_per_node: runtime
                    .node_times(s.id)
                    .unwrap_or_default()
                    .into_iter()
                    .map(|(node, (_, busy))| (node, busy.as_nanos() as u64))
                    .collect(),
            })
            .collect();
        let pool = runtime.telemetry();
        analyzer.tick(pool.uptime_ns, pool.stall_ns, &samples);
    }

    /// The rolling-window view as of the last [`Telemetry::sample`].
    pub fn summary(&self) -> LiveSummary {
        self.analyzer.lock().unwrap().summary()
    }
}

// ---- Prometheus text exposition -----------------------------------------

/// Escape a Prometheus label value (`\`, `"`, newline).
fn prom_escape(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn prom_type(out: &mut String, name: &str, kind: &str) {
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// Render one consistent snapshot as Prometheus text exposition: pool
/// gauges, per-worker counters, per-graph counters and cumulative
/// latency-bucket histograms, plus the rolling stall attribution from
/// the pool's counters. Validated by [`validate_prometheus`] in tests
/// and the smoke gate.
pub fn prometheus_text(
    pool: &PoolTelemetry,
    stats: &[GraphStats],
    live: &LiveSummary,
    adapt: &[AdaptStatus],
) -> String {
    let mut o = String::new();

    prom_type(&mut o, "hinch_uptime_seconds", "gauge");
    let _ = writeln!(o, "hinch_uptime_seconds {}", pool.uptime_ns as f64 / 1e9);
    prom_type(&mut o, "hinch_pool_queued_jobs", "gauge");
    let _ = writeln!(o, "hinch_pool_queued_jobs {}", pool.queued_jobs);
    prom_type(&mut o, "hinch_pool_idle_workers", "gauge");
    let _ = writeln!(o, "hinch_pool_idle_workers {}", pool.idle_workers);

    for (name, get) in [
        (
            "hinch_worker_busy_seconds_total",
            &(|w: &hinch::WorkerTelemetry| w.busy_ns as f64 / 1e9)
                as &dyn Fn(&hinch::WorkerTelemetry) -> f64,
        ),
        ("hinch_worker_idle_seconds_total", &|w| {
            w.idle_ns as f64 / 1e9
        }),
        ("hinch_worker_jobs_total", &|w| w.jobs as f64),
        ("hinch_worker_parks_total", &|w| w.parks as f64),
        ("hinch_worker_steals_total", &|w| w.steals as f64),
    ] {
        prom_type(&mut o, name, "counter");
        for (i, w) in pool.workers.iter().enumerate() {
            let _ = writeln!(o, "{name}{{worker=\"{i}\"}} {}", get(w));
        }
    }

    for (name, get) in [
        (
            "hinch_graph_submitted_total",
            &(|s: &GraphStats| s.submitted) as &dyn Fn(&GraphStats) -> u64,
        ),
        ("hinch_graph_completed_total", &|s| s.completed),
        ("hinch_graph_shed_total", &|s| s.shed),
        ("hinch_graph_reconfigs_total", &|s| s.reconfigs),
        ("hinch_graph_jobs_executed_total", &|s| s.jobs_executed),
    ] {
        prom_type(&mut o, name, "counter");
        for s in stats {
            let _ = writeln!(
                o,
                "{name}{{graph=\"{}\",app=\"{}\"}} {}",
                s.id.0,
                prom_escape(&s.label),
                get(s)
            );
        }
    }
    prom_type(&mut o, "hinch_graph_backlog", "gauge");
    for s in stats {
        let _ = writeln!(
            o,
            "hinch_graph_backlog{{graph=\"{}\",app=\"{}\"}} {}",
            s.id.0,
            prom_escape(&s.label),
            s.inflight
        );
    }

    // Per-graph frame-latency histograms: power-of-two buckets rendered
    // cumulative, Prometheus-style. The exact sum is not tracked by the
    // histogram, so `_sum` is mean x count (same information the stats
    // JSON reports).
    prom_type(&mut o, "hinch_graph_frame_latency_ns", "histogram");
    for s in stats {
        let labels = format!("graph=\"{}\",app=\"{}\"", s.id.0, prom_escape(&s.label));
        let counts = counts_from_nonzero(&s.latency_buckets);
        let total: u64 = counts.iter().sum();
        for (le, cum) in LogHistogram::cumulative_from_counts(&counts) {
            let _ = writeln!(
                o,
                "hinch_graph_frame_latency_ns_bucket{{{labels},le=\"{le}\"}} {cum}"
            );
        }
        let _ = writeln!(
            o,
            "hinch_graph_frame_latency_ns_bucket{{{labels},le=\"+Inf\"}} {total}"
        );
        let _ = writeln!(
            o,
            "hinch_graph_frame_latency_ns_sum{{{labels}}} {}",
            s.latency_mean_ns * total as f64
        );
        let _ = writeln!(o, "hinch_graph_frame_latency_ns_count{{{labels}}} {total}");
    }

    // Rolling-window attribution from the pool's counters.
    prom_type(&mut o, "hinch_live_window_seconds", "gauge");
    let _ = writeln!(
        o,
        "hinch_live_window_seconds {}",
        live.window_ns as f64 / 1e9
    );
    prom_type(&mut o, "hinch_live_stall_seconds", "gauge");
    for cause in StallCause::ALL {
        let _ = writeln!(
            o,
            "hinch_live_stall_seconds{{cause=\"{}\"}} {}",
            cause.as_str(),
            live.stall_ns[cause.index()] as f64 / 1e9
        );
    }
    prom_type(&mut o, "hinch_live_graph_fps", "gauge");
    for g in &live.graphs {
        let _ = writeln!(
            o,
            "hinch_live_graph_fps{{graph=\"{}\",app=\"{}\"}} {}",
            g.graph,
            prom_escape(&g.app),
            g.throughput_fps
        );
    }

    // Closed-loop SLO controllers (crates/adapt), one set of series per
    // attached graph.
    if !adapt.is_empty() {
        prom_type(&mut o, "hinch_adapt_target_p99_ns", "gauge");
        for a in adapt {
            let _ = writeln!(
                o,
                "hinch_adapt_target_p99_ns{{graph=\"{}\",app=\"{}\"}} {}",
                a.graph,
                prom_escape(&a.app),
                a.target_p99_ns
            );
        }
        prom_type(&mut o, "hinch_adapt_full_quality", "gauge");
        for a in adapt {
            let _ = writeln!(
                o,
                "hinch_adapt_full_quality{{graph=\"{}\",app=\"{}\",config=\"{}\"}} {}",
                a.graph,
                prom_escape(&a.app),
                prom_escape(&a.config),
                u8::from(a.quality_full)
            );
        }
        prom_type(&mut o, "hinch_adapt_decisions_total", "counter");
        for a in adapt {
            for (action, count) in [
                ("hold", a.hold),
                ("toggle", a.toggle),
                ("resize", a.resize),
                ("step_depth", a.step_depth),
            ] {
                let _ = writeln!(
                    o,
                    "hinch_adapt_decisions_total{{graph=\"{}\",app=\"{}\",action=\"{action}\"}} {count}",
                    a.graph,
                    prom_escape(&a.app),
                );
            }
        }
    }
    o
}

// ---- JSON export (the wire `Telemetry` opcode) --------------------------

fn worker_json(i: usize, w: &hinch::WorkerTelemetry) -> String {
    JsonObject::new()
        .num("worker", i as u64)
        .num("busy_ns", w.busy_ns)
        .num("idle_ns", w.idle_ns)
        .num("jobs", w.jobs)
        .num("parks", w.parks)
        .num("steals", w.steals)
        .build()
}

fn live_graph_json(g: &insight::live::GraphWindow) -> String {
    JsonObject::new()
        .num("graph", g.graph)
        .str("app", &g.app)
        .num("completed", g.completed)
        .num("shed", g.shed)
        .f1("throughput_fps", g.throughput_fps)
        .num("p50_ns", g.p50_ns)
        .num("p99_ns", g.p99_ns)
        .num("backlog", g.backlog)
        .str("dominant", &g.dominant.render())
        .build()
}

fn adapt_json(a: &AdaptStatus) -> String {
    JsonObject::new()
        .num("graph", a.graph)
        .str("app", &a.app)
        .str("config", &a.config)
        .raw(
            "full_quality",
            if a.quality_full { "true" } else { "false" },
        )
        .num("target_p99_ns", a.target_p99_ns)
        .num("ticks", a.ticks)
        .num("hold", a.hold)
        .num("toggle", a.toggle)
        .num("resize", a.resize)
        .num("step_depth", a.step_depth)
        .str("last_action", &a.last_action)
        .str("last_reason", &a.last_reason)
        .build()
}

/// The wire `Telemetry` payload: pool, per-worker, rolling-window and
/// SLO-controller state as one JSON document (all through the crate's
/// single writer).
pub fn telemetry_json(
    pool: &PoolTelemetry,
    stats: &[GraphStats],
    live: &LiveSummary,
    adapt: &[AdaptStatus],
) -> String {
    let stalls = StallCause::ALL
        .into_iter()
        .map(|c| {
            JsonObject::new()
                .str("cause", c.as_str())
                .num("stall_ns", live.stall_ns[c.index()])
                .build()
        })
        .collect::<Vec<_>>();
    JsonObject::new()
        .num("uptime_ns", pool.uptime_ns)
        .num("queued_jobs", pool.queued_jobs as u64)
        .num("idle_workers", pool.idle_workers as u64)
        .raw(
            "workers",
            &array(
                pool.workers
                    .iter()
                    .enumerate()
                    .map(|(i, w)| worker_json(i, w)),
            ),
        )
        .num("graphs", stats.len() as u64)
        .num("window_ns", live.window_ns)
        .raw("stalls", &array(stalls))
        .raw("live", &array(live.graphs.iter().map(live_graph_json)))
        .raw("adapt", &array(adapt.iter().map(adapt_json)))
        .build()
}

// ---- the `top` table ----------------------------------------------------

/// Render the rolling window as the `hinch-serve top` table:
/// graphs x {throughput, p50/p99, backlog, dominant}. Pure function of
/// the snapshot — `top --once` output is reproducible for a fixed
/// runtime state.
pub fn render_top(pool: &PoolTelemetry, live: &LiveSummary) -> String {
    let mut o = String::new();
    let busy: u64 = pool.workers.iter().map(|w| w.busy_ns).sum();
    let idle: u64 = pool.workers.iter().map(|w| w.idle_ns).sum();
    let _ = writeln!(
        o,
        "pool: {} workers, uptime {:.1}s, busy {:.1}s / parked {:.1}s, {} queued",
        pool.workers.len(),
        pool.uptime_ns as f64 / 1e9,
        busy as f64 / 1e9,
        idle as f64 / 1e9,
        pool.queued_jobs
    );
    let window = live.window_ns as f64 / 1e9;
    let dominant = match live.dominant_cause {
        Some(c) => format!(", dominant stall {}", c.as_str()),
        None => String::new(),
    };
    let _ = writeln!(o, "window: {window:.1}s{dominant}");
    let _ = writeln!(
        o,
        "{:>5} {:<10} {:>9} {:>11} {:>11} {:>7}  dominant",
        "graph", "app", "fps", "p50", "p99", "backlog"
    );
    for g in &live.graphs {
        let _ = writeln!(
            o,
            "{:>5} {:<10} {:>9.1} {:>11} {:>11} {:>7}  {}",
            g.graph,
            g.app,
            g.throughput_fps,
            g.p50_ns,
            g.p99_ns,
            g.backlog,
            g.dominant.render()
        );
    }
    if live.graphs.is_empty() {
        let _ = writeln!(o, "(no graphs in window)");
    }
    o
}

// ---- exposition validator -----------------------------------------------

fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// A parsed sample line: metric name, label pairs, value.
type Sample = (String, Vec<(String, String)>, f64);

fn parse_sample(line: &str) -> Result<Sample, String> {
    let (name_part, rest) = match line.find('{') {
        Some(open) => {
            let close = line
                .rfind('}')
                .ok_or_else(|| format!("unclosed label braces: {line}"))?;
            (&line[..open], {
                let labels = &line[open + 1..close];
                let value = line[close + 1..].trim();
                (labels, value)
            })
        }
        None => {
            let (name, value) = line
                .split_once(' ')
                .ok_or_else(|| format!("no value: {line}"))?;
            (name, ("", value.trim()))
        }
    };
    let (labels_raw, value_raw) = rest;
    if !valid_metric_name(name_part) {
        return Err(format!("bad metric name '{name_part}'"));
    }
    let mut labels = Vec::new();
    if !labels_raw.is_empty() {
        for pair in split_labels(labels_raw)? {
            let (k, v) = pair
                .split_once('=')
                .ok_or_else(|| format!("bad label pair '{pair}'"))?;
            if !valid_metric_name(k) {
                return Err(format!("bad label name '{k}'"));
            }
            let v = v
                .strip_prefix('"')
                .and_then(|v| v.strip_suffix('"'))
                .ok_or_else(|| format!("unquoted label value in '{pair}'"))?;
            labels.push((k.to_string(), v.to_string()));
        }
    }
    let value = match value_raw {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        v => v
            .parse::<f64>()
            .map_err(|_| format!("bad sample value '{v}'"))?,
    };
    Ok((name_part.to_string(), labels, value))
}

/// Split `k="v",k2="v2"` on commas outside quotes (label values may
/// contain commas).
fn split_labels(raw: &str) -> Result<Vec<String>, String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut in_quotes = false;
    let mut escaped = false;
    for c in raw.chars() {
        match c {
            _ if escaped => {
                cur.push(c);
                escaped = false;
            }
            '\\' if in_quotes => {
                cur.push(c);
                escaped = true;
            }
            '"' => {
                cur.push(c);
                in_quotes = !in_quotes;
            }
            ',' if !in_quotes => out.push(std::mem::take(&mut cur)),
            c => cur.push(c),
        }
    }
    if in_quotes {
        return Err(format!("unterminated label value in '{raw}'"));
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    Ok(out)
}

/// Base metric name of a histogram series sample.
fn histogram_base(name: &str) -> Option<&str> {
    name.strip_suffix("_bucket")
        .or_else(|| name.strip_suffix("_sum"))
        .or_else(|| name.strip_suffix("_count"))
}

/// Validate a Prometheus text exposition: every sample parses, every
/// series has a preceding `# TYPE`, and histograms satisfy the
/// cumulative invariants (bucket counts non-decreasing in `le`, a
/// `+Inf` bucket present and equal to `_count`). Returns the number of
/// samples. This is what the CI smoke gate runs over `GET /metrics`.
pub fn validate_prometheus(text: &str) -> Result<usize, String> {
    use std::collections::HashMap;
    let mut types: HashMap<String, String> = HashMap::new();
    // (histogram base, labels-without-le) -> ascending (le, cumulative).
    let mut buckets: HashMap<(String, String), Vec<(f64, f64)>> = HashMap::new();
    let mut counts: HashMap<(String, String), f64> = HashMap::new();
    let mut samples = 0usize;

    for (lineno, line) in text.lines().enumerate() {
        let err = |e: String| format!("line {}: {e}", lineno + 1);
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let mut parts = comment.split_whitespace();
            if parts.next() == Some("TYPE") {
                let name = parts
                    .next()
                    .ok_or_else(|| err("TYPE without name".into()))?;
                let kind = parts
                    .next()
                    .ok_or_else(|| err("TYPE without kind".into()))?;
                if !matches!(
                    kind,
                    "counter" | "gauge" | "histogram" | "summary" | "untyped"
                ) {
                    return Err(err(format!("unknown TYPE kind '{kind}'")));
                }
                types.insert(name.to_string(), kind.to_string());
            }
            continue; // HELP and free comments pass
        }
        let (name, labels, value) = parse_sample(line).map_err(err)?;
        samples += 1;
        let declared = types.contains_key(&name)
            || histogram_base(&name)
                .is_some_and(|b| types.get(b).map(String::as_str) == Some("histogram"));
        if !declared {
            return Err(err(format!("sample '{name}' has no preceding # TYPE")));
        }
        if let Some(base) = histogram_base(&name) {
            if types.get(base).map(String::as_str) == Some("histogram") {
                let others: Vec<String> = labels
                    .iter()
                    .filter(|(k, _)| k != "le")
                    .map(|(k, v)| format!("{k}={v}"))
                    .collect();
                let key = (base.to_string(), others.join(","));
                if name.ends_with("_bucket") {
                    let le = labels
                        .iter()
                        .find(|(k, _)| k == "le")
                        .ok_or_else(|| err(format!("bucket without le: {line}")))?;
                    let le = match le.1.as_str() {
                        "+Inf" => f64::INFINITY,
                        v => v.parse::<f64>().map_err(|_| err(format!("bad le '{v}'")))?,
                    };
                    buckets.entry(key).or_default().push((le, value));
                } else if name.ends_with("_count") {
                    counts.insert(key, value);
                }
            }
        }
    }

    for ((base, labels), mut series) in buckets {
        series.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut prev = -1.0f64;
        for &(le, cum) in &series {
            if cum < prev {
                return Err(format!(
                    "histogram {base}{{{labels}}}: bucket le={le} count {cum} < previous {prev}"
                ));
            }
            prev = cum;
        }
        let inf = series
            .last()
            .filter(|(le, _)| le.is_infinite())
            .ok_or_else(|| format!("histogram {base}{{{labels}}}: missing +Inf bucket"))?;
        if let Some(&count) = counts.get(&(base.clone(), labels.clone())) {
            if (inf.1 - count).abs() > f64::EPSILON {
                return Err(format!(
                    "histogram {base}{{{labels}}}: +Inf bucket {} != _count {count}",
                    inf.1
                ));
            }
        } else {
            return Err(format!("histogram {base}{{{labels}}}: missing _count"));
        }
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hinch::{GraphId, WorkerTelemetry};

    fn snapshot() -> (PoolTelemetry, Vec<GraphStats>, LiveSummary) {
        let h = LogHistogram::default();
        for v in [100u64, 200, 400, 90_000] {
            h.record(v);
        }
        let stats = vec![GraphStats {
            id: GraphId(0),
            label: "pip1\"x".into(), // hostile label: must be escaped
            submitted: 5,
            completed: 4,
            inflight: 1,
            reconfigs: 0,
            jobs_executed: 12,
            latency_mean_ns: h.mean(),
            latency_p50_ns: h.quantile(0.5),
            latency_p99_ns: h.quantile(0.99),
            latency_buckets: h.nonzero_buckets(),
            shed: 2,
            failure: None,
        }];
        let pool = PoolTelemetry {
            workers: vec![
                WorkerTelemetry {
                    busy_ns: 1_000_000,
                    idle_ns: 2_000_000,
                    jobs: 12,
                    parks: 3,
                    steals: 1,
                },
                WorkerTelemetry::default(),
            ],
            queued_jobs: 0,
            idle_workers: 2,
            uptime_ns: 5_000_000_000,
            stall_ns: [1_500_000, 500_000, 0, 0],
        };
        let mut la = LiveAnalyzer::new(4);
        la.tick(
            1_000_000_000,
            pool.stall_ns,
            &[GraphSample {
                graph: 0,
                app: "pip1\"x".into(),
                completed: 4,
                shed: 2,
                inflight: 1,
                latency_counts: counts_from_nonzero(&stats[0].latency_buckets),
                busy_per_node: [("src".to_string(), 250_000), ("blend".to_string(), 750_000)]
                    .into_iter()
                    .collect(),
            }],
        );
        (pool, stats, la.summary())
    }

    fn adapt_status() -> Vec<AdaptStatus> {
        vec![AdaptStatus {
            graph: 0,
            app: "pip1\"x".into(), // hostile label: must be escaped
            config: "full/s4/d1".into(),
            quality_full: true,
            target_p99_ns: 2_000_000,
            ticks: 9,
            hold: 7,
            toggle: 2,
            resize: 0,
            step_depth: 0,
            last_action: "toggle".into(),
            last_reason: "slo-under:recover".into(),
        }]
    }

    #[test]
    fn metrics_body_passes_the_validator() {
        let (pool, stats, live) = snapshot();
        let text = prometheus_text(&pool, &stats, &live, &adapt_status());
        let samples = validate_prometheus(&text).expect("valid exposition");
        assert!(samples > 20, "suspiciously few samples: {samples}\n{text}");
        for want in [
            "hinch_worker_busy_seconds_total{worker=\"0\"}",
            "hinch_graph_frame_latency_ns_bucket{graph=\"0\",app=\"pip1\\\"x\",le=\"+Inf\"} 4",
            "hinch_graph_backlog{graph=\"0\"",
            "hinch_graph_shed_total",
            "hinch_live_stall_seconds{cause=\"backpressure\"} 0.0005",
            "hinch_worker_steals_total",
            "hinch_worker_parks_total",
            "hinch_adapt_target_p99_ns{graph=\"0\",app=\"pip1\\\"x\"} 2000000",
            "hinch_adapt_full_quality{graph=\"0\",app=\"pip1\\\"x\",config=\"full/s4/d1\"} 1",
            "hinch_adapt_decisions_total{graph=\"0\",app=\"pip1\\\"x\",action=\"toggle\"} 2",
        ] {
            assert!(text.contains(want), "missing {want}:\n{text}");
        }
        // No controllers attached → no hinch_adapt_* series at all (not
        // even empty TYPE declarations).
        let bare = prometheus_text(&pool, &stats, &live, &[]);
        validate_prometheus(&bare).expect("valid exposition without adapt");
        assert!(!bare.contains("hinch_adapt_"), "{bare}");
    }

    #[test]
    fn telemetry_json_carries_the_snapshot() {
        let (pool, stats, live) = snapshot();
        let json = telemetry_json(&pool, &stats, &live, &adapt_status());
        for want in [
            "\"uptime_ns\":5000000000",
            "\"workers\":[{\"worker\":0,",
            "\"steals\":1",
            "\"app\":\"pip1\\\"x\"",
            "\"stalls\":[{\"cause\":\"starvation\",\"stall_ns\":1500000}",
            "\"dominant\":\"node:blend (75%)\"",
            "\"backlog\":1",
            "\"adapt\":[{\"graph\":0,",
            "\"config\":\"full/s4/d1\"",
            "\"full_quality\":true",
            "\"last_reason\":\"slo-under:recover\"",
        ] {
            assert!(json.contains(want), "missing {want}:\n{json}");
        }
        assert!(
            telemetry_json(&pool, &stats, &live, &[]).contains("\"adapt\":[]"),
            "empty adapt array when nothing is attached"
        );
        // The benchmark sums every `busy_ns` / `idle_ns` / `jobs` /
        // `parks` / `steals` it finds: only the worker objects carry them.
        for key in ["busy_ns", "idle_ns", "jobs", "parks", "steals"] {
            let n = json.matches(&format!("\"{key}\":")).count();
            assert_eq!(n, pool.workers.len(), "{key}:\n{json}");
        }
    }

    #[test]
    fn top_table_renders_every_graph_row() {
        let (pool, stats, live) = snapshot();
        let _ = stats;
        let table = render_top(&pool, &live);
        assert!(table.contains("pool: 2 workers"), "{table}");
        assert!(table.contains("dominant"), "{table}");
        assert!(
            table.contains("window: 1.0s, dominant stall starvation"),
            "{table}"
        );
        assert!(table.contains("node:blend (75%)"), "{table}");
        assert!(table.contains("pip1\"x"), "{table}");
        // Deterministic: same snapshot, same bytes.
        assert_eq!(table, render_top(&pool, &live));
    }

    #[test]
    fn validator_rejects_malformed_expositions() {
        // Sample without a TYPE.
        assert!(validate_prometheus("orphan_metric 1\n").is_err());
        // Garbage value.
        assert!(
            validate_prometheus("# TYPE m gauge\nm one\n").is_err(),
            "non-numeric value must fail"
        );
        // Non-cumulative histogram buckets.
        let shrinking = "# TYPE h histogram\n\
                         h_bucket{le=\"1\"} 5\n\
                         h_bucket{le=\"2\"} 3\n\
                         h_bucket{le=\"+Inf\"} 5\n\
                         h_count 5\n";
        assert!(validate_prometheus(shrinking).is_err());
        // Missing +Inf bucket.
        let no_inf = "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_count 5\n";
        assert!(validate_prometheus(no_inf).is_err());
        // +Inf disagreeing with _count.
        let mismatch = "# TYPE h histogram\n\
                        h_bucket{le=\"+Inf\"} 4\n\
                        h_count 5\n";
        assert!(validate_prometheus(mismatch).is_err());
        // Unterminated label value.
        assert!(validate_prometheus("# TYPE m gauge\nm{a=\"x} 1\n").is_err());
        // A well-formed document passes and counts samples.
        let ok = "# HELP m help text\n# TYPE m counter\nm{a=\"x,y\"} 1\nm{a=\"z\"} 2\n";
        assert_eq!(validate_prometheus(ok), Ok(2));
    }
}
