//! Streaming insight: incremental, windowed analysis of a *running*
//! serving runtime.
//!
//! [`crate::analyze`] is post-hoc — it wants the complete trace of a
//! finished run. A serving runtime never finishes, so this module diffs
//! the runtime's cumulative counters into a **rolling window** of fixed
//! wall-clock intervals:
//!
//! * [`LiveAnalyzer::tick`] closes the interval against the pool's
//!   parked time per stall cause and a set of per-graph cumulative
//!   [`GraphSample`]s (completed/shed counters, busy time per component
//!   leaf and the latency [`Histogram`] — all monotone, so two samples
//!   subtract into the exact figures of the interval, no per-frame or
//!   per-job storage);
//! * [`LiveAnalyzer::summary`] merges the window's intervals and renders
//!   it: per-graph rolling throughput, p50/p99 latency, backlog, shed,
//!   and a **dominant-cause estimate** — either the stall cause that explains
//!   the graph's lack of progress or the dominant leaf (largest share of
//!   the graph's busy time); plus pool-level stall attribution.
//!
//! Nothing is sampled, so nothing can be dropped: every job and every
//! park of the window is in it.
//!
//! Everything here is a pure fold over its inputs — no clocks, no
//! threads — so a fixed input sequence yields a byte-identical summary
//! (the `hinch-serve top --once` view and this module's tests rely on
//! that). The wall-clock pacing lives in the caller (the serve
//! collector thread).

use std::collections::{BTreeMap, HashMap, VecDeque};
use trace::metrics::Histogram;
use trace::StallCause;

/// Parked nanoseconds per [`StallCause`], by [`StallCause::index`].
pub type StallNs = [u64; StallCause::ALL.len()];

/// Cumulative per-graph counters sampled at a tick (from the runtime's
/// `GraphStats` / telemetry). All counts are totals since spawn; the
/// analyzer diffs consecutive samples itself, and keeps each interval
/// as the same struct.
#[derive(Debug, Clone, Default)]
pub struct GraphSample {
    pub graph: u32,
    pub app: String,
    /// Frames retired, cumulative.
    pub completed: u64,
    /// Frames refused by admission control, cumulative.
    pub shed: u64,
    /// Accepted-but-not-retired frames right now.
    pub inflight: u64,
    /// Frame latency, cumulative.
    pub latency: Histogram,
    /// Busy nanoseconds per component leaf (instance name), cumulative.
    pub busy_per_node: BTreeMap<String, u64>,
}

impl GraphSample {
    /// The interval from `earlier` (this graph's previous sample) to this
    /// sample: counters subtract, the backlog is this sample's.
    fn since(&self, earlier: &GraphSample) -> GraphSample {
        GraphSample {
            graph: self.graph,
            app: self.app.clone(),
            completed: self.completed.saturating_sub(earlier.completed),
            shed: self.shed.saturating_sub(earlier.shed),
            inflight: self.inflight,
            latency: self.latency.since(&earlier.latency),
            busy_per_node: self
                .busy_per_node
                .iter()
                .map(|(node, &ns)| {
                    let then = earlier.busy_per_node.get(node).copied().unwrap_or(0);
                    (node.clone(), ns.saturating_sub(then))
                })
                .filter(|&(_, ns)| ns > 0)
                .collect(),
        }
    }

    /// Extend this interval by the one that follows it: counters add,
    /// the backlog and app name are the later interval's.
    fn merge(&mut self, later: &GraphSample) {
        self.app.clone_from(&later.app);
        self.completed += later.completed;
        self.shed += later.shed;
        self.inflight = later.inflight;
        self.latency.merge(&later.latency);
        for (node, &ns) in &later.busy_per_node {
            *self.busy_per_node.entry(node.clone()).or_default() += ns;
        }
    }
}

/// What dominates a graph's behavior over the window.
#[derive(Debug, Clone, PartialEq)]
pub enum Dominant {
    /// The graph made no progress; the estimated reason.
    Stalled(StallCause),
    /// The graph is flowing; its busy time is dominated by the component
    /// leaf named `node`, with `share` (0–1] of the graph's busy time
    /// — the live critical-path-dominant-cause estimate.
    Node { node: String, share: f64 },
    /// Nothing happened (no frames, no backlog, no recorded work).
    Idle,
}

impl Dominant {
    /// Compact fixed-vocabulary rendering for tables / exports.
    pub fn render(&self) -> String {
        match self {
            Dominant::Stalled(c) => format!("stall:{}", c.as_str()),
            Dominant::Node { node, share } => {
                format!("node:{node} ({:.0}%)", share * 100.0)
            }
            Dominant::Idle => "idle".to_string(),
        }
    }
}

/// Rolling per-graph view over the window.
#[derive(Debug, Clone)]
pub struct GraphWindow {
    pub graph: u32,
    pub app: String,
    /// Frames retired in the window.
    pub completed: u64,
    /// Frames shed in the window.
    pub shed: u64,
    /// Retirements per second over the window span.
    pub throughput_fps: f64,
    /// Window latency percentiles (bucket-diffed, upper bounds).
    pub p50_ns: u64,
    pub p99_ns: u64,
    /// Backlog (in-flight frames) at the most recent tick.
    pub backlog: u64,
    pub dominant: Dominant,
}

/// Rolling pool-wide view over the window.
#[derive(Debug, Clone, Default)]
pub struct LiveSummary {
    /// Wall-clock span covered by the window ticks, nanoseconds.
    pub window_ns: u64,
    /// Per-graph views, ordered by graph id.
    pub graphs: Vec<GraphWindow>,
    /// Worker park time per cause over the window, indexed by
    /// [`StallCause::index`].
    pub stall_ns: StallNs,
    /// The cause with the largest share of park time, if any was parked.
    pub dominant_cause: Option<StallCause>,
}

/// One closed interval of the rolling window.
#[derive(Debug, Clone, Default)]
struct TickSlot {
    span_ns: u64,
    /// Each graph's interval ([`GraphSample::since`] its previous sample).
    per_graph: BTreeMap<u32, GraphSample>,
    stall_ns: StallNs,
}

/// The incremental windowed analyzer. Feed it with
/// [`LiveAnalyzer::tick`]; read it with [`LiveAnalyzer::summary`].
#[derive(Debug)]
pub struct LiveAnalyzer {
    window_ticks: usize,
    ticks: VecDeque<TickSlot>,
    /// Each live graph's sample at the previous tick.
    prev: HashMap<u32, GraphSample>,
    prev_stall: StallNs,
    last_tick_ns: Option<u64>,
}

impl LiveAnalyzer {
    /// A window of `window_ticks` closed intervals (older ticks roll
    /// off). 1 means "current interval only".
    pub fn new(window_ticks: usize) -> Self {
        Self {
            window_ticks: window_ticks.max(1),
            ticks: VecDeque::new(),
            prev: HashMap::new(),
            prev_stall: StallNs::default(),
            last_tick_ns: None,
        }
    }

    /// Close the current interval at time `now_ns` (same monotone clock
    /// across ticks, e.g. the runtime's uptime) against the pool's
    /// cumulative parked time per cause and the current cumulative
    /// per-graph samples. Graphs absent from `samples` (drained) are
    /// dropped from the baseline; graphs seen for the first time, like
    /// the first tick's park time, contribute their full history to this
    /// interval.
    pub fn tick(&mut self, now_ns: u64, stall_ns: StallNs, samples: &[GraphSample]) {
        let span_ns = match self.last_tick_ns {
            Some(prev) => now_ns.saturating_sub(prev),
            None => now_ns,
        };
        self.last_tick_ns = Some(now_ns);

        let prev_stall = std::mem::replace(&mut self.prev_stall, stall_ns);
        let mut slot = TickSlot {
            span_ns,
            stall_ns: std::array::from_fn(|i| stall_ns[i].saturating_sub(prev_stall[i])),
            ..TickSlot::default()
        };

        let none = GraphSample::default();
        for s in samples {
            let earlier = self.prev.get(&s.graph).unwrap_or(&none);
            slot.per_graph.insert(s.graph, s.since(earlier));
        }
        self.prev = samples.iter().map(|s| (s.graph, s.clone())).collect();

        self.ticks.push_back(slot);
        while self.ticks.len() > self.window_ticks {
            self.ticks.pop_front();
        }
    }

    /// Render the rolling window. Deterministic: a fixed tick
    /// sequence yields an identical summary.
    pub fn summary(&self) -> LiveSummary {
        let mut out = LiveSummary::default();
        let mut window: BTreeMap<u32, GraphSample> = BTreeMap::new();
        for slot in &self.ticks {
            out.window_ns += slot.span_ns;
            for (i, ns) in slot.stall_ns.iter().enumerate() {
                out.stall_ns[i] += ns;
            }
            for (&g, interval) in &slot.per_graph {
                window
                    .entry(g)
                    .and_modify(|w| w.merge(interval))
                    .or_insert_with(|| interval.clone());
            }
        }
        let secs = out.window_ns as f64 / 1e9;
        out.graphs = window
            .into_values()
            .map(|w| GraphWindow {
                throughput_fps: if secs > 0.0 {
                    w.completed as f64 / secs
                } else {
                    0.0
                },
                p50_ns: w.latency.quantile(0.5),
                p99_ns: w.latency.quantile(0.99),
                dominant: dominant_for(&w),
                graph: w.graph,
                app: w.app,
                completed: w.completed,
                shed: w.shed,
                backlog: w.inflight,
            })
            .collect();
        let parked: u64 = out.stall_ns.iter().sum();
        if parked > 0 {
            out.dominant_cause = StallCause::ALL
                .into_iter()
                .max_by_key(|c| out.stall_ns[c.index()]);
        }
        out
    }
}

/// Estimate what dominates a graph's window: a stall cause when it made
/// no progress, otherwise its busiest leaf.
fn dominant_for(w: &GraphSample) -> Dominant {
    if w.completed == 0 {
        return if w.inflight > 0 {
            // Accepted frames exist but none retired: the pipeline is
            // blocked upstream of retirement.
            Dominant::Stalled(StallCause::Starvation)
        } else if w.shed > 0 {
            // Nothing in flight yet arrivals were refused: admission is
            // the bottleneck.
            Dominant::Stalled(StallCause::Backpressure)
        } else {
            Dominant::Idle
        };
    }
    let total: u64 = w.busy_per_node.values().sum();
    // Deterministic tie-break: highest busy, then lowest name.
    match w
        .busy_per_node
        .iter()
        .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
    {
        Some((node, &ns)) => Dominant::Node {
            node: node.clone(),
            share: if total > 0 {
                ns as f64 / total as f64
            } else {
                0.0
            },
        },
        // Frames retired whose jobs all ran before the window: report
        // progress without a leaf attribution.
        None => Dominant::Node {
            node: String::new(),
            share: 0.0,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(graph: u32, completed: u64, shed: u64, inflight: u64, lat: &[u64]) -> GraphSample {
        let h = trace::metrics::LogHistogram::default();
        for &v in lat {
            h.record(v);
        }
        // Cumulative counts are handed in by the caller as totals.
        GraphSample {
            graph,
            app: format!("app{graph}"),
            completed,
            shed,
            inflight,
            latency: h.snapshot(),
            busy_per_node: BTreeMap::new(),
        }
    }

    fn busy(nodes: &[(&str, u64)]) -> BTreeMap<String, u64> {
        nodes.iter().map(|&(n, ns)| (n.to_string(), ns)).collect()
    }

    const NO_STALL: StallNs = [0; StallCause::ALL.len()];

    #[test]
    fn window_diffs_cumulative_counters() {
        let mut la = LiveAnalyzer::new(4);
        // Tick 1: graph 0 has retired 10 frames total.
        la.tick(1_000_000_000, NO_STALL, &[sample(0, 10, 2, 1, &[100, 100])]);
        // Tick 2: 25 total → 15 in this interval.
        la.tick(
            2_000_000_000,
            NO_STALL,
            &[sample(0, 25, 2, 3, &[100, 100, 800, 800, 800])],
        );
        let s = la.summary();
        assert_eq!(s.window_ns, 2_000_000_000);
        assert_eq!(s.graphs.len(), 1);
        let g = &s.graphs[0];
        assert_eq!(g.completed, 25); // first tick counts history (10) + 15
        assert_eq!(g.shed, 2);
        assert_eq!(g.backlog, 3);
        assert!((g.throughput_fps - 12.5).abs() < 1e-9);
        // 5 samples total: two in the 100-bucket, three in the 800-bucket;
        // the 3rd smallest lands in the 800-bucket (high 1023).
        assert_eq!(g.p50_ns, 1023);
        assert_eq!(g.p99_ns, 1023);
    }

    #[test]
    fn old_ticks_roll_off_the_window() {
        let mut la = LiveAnalyzer::new(2);
        la.tick(1_000, NO_STALL, &[sample(0, 5, 0, 0, &[])]);
        la.tick(2_000, NO_STALL, &[sample(0, 6, 0, 0, &[])]);
        la.tick(3_000, NO_STALL, &[sample(0, 9, 0, 0, &[])]);
        let s = la.summary();
        // Window holds the last two ticks: (6-5) + (9-6) = 4 frames.
        assert_eq!(s.graphs[0].completed, 4);
        assert_eq!(s.window_ns, 2_000);
    }

    #[test]
    fn ticks_diff_busy_and_stall_counters() {
        let backpressure = StallCause::Backpressure.index();
        let (mut la, mut last) = (LiveAnalyzer::new(4), LiveAnalyzer::new(1));
        let mut stall = NO_STALL;
        stall[backpressure] = 100;
        let mut g = sample(0, 1, 0, 0, &[1000]);
        g.busy_per_node = busy(&[("a", 50), ("b", 500)]);
        for a in [&mut la, &mut last] {
            a.tick(1_000, stall, std::slice::from_ref(&g));
        }
        // In the second interval `a` ran 300 ns, `c` 700 and `b` nothing.
        stall[backpressure] = 500;
        g.completed = 2;
        g.busy_per_node = busy(&[("a", 350), ("b", 500), ("c", 700)]);
        for a in [&mut la, &mut last] {
            a.tick(2_000, stall, std::slice::from_ref(&g));
        }
        let s = last.summary();
        assert_eq!(s.stall_ns[backpressure], 400);
        assert_eq!(s.dominant_cause, Some(StallCause::Backpressure));
        match &s.graphs[0].dominant {
            Dominant::Node { node, share } => {
                assert_eq!(node, "c");
                assert!((share - 0.7).abs() < 1e-9, "{share}");
            }
            other => panic!("expected node dominance, got {other:?}"),
        }
        assert_eq!(s.graphs[0].dominant.render(), "node:c (70%)");
        // Over both intervals: c's 700 of 1550 ns.
        let s = la.summary();
        assert_eq!(s.stall_ns[backpressure], 500);
        assert_eq!(s.graphs[0].dominant.render(), "node:c (45%)");
        // A third interval with no park and only `a` busy.
        g.completed = 3;
        g.busy_per_node = busy(&[("a", 1350), ("b", 500), ("c", 700)]);
        last.tick(3_000, stall, &[g]);
        let s = last.summary();
        assert_eq!(s.stall_ns, NO_STALL);
        assert_eq!(s.dominant_cause, None);
        assert_eq!(s.graphs[0].dominant.render(), "node:a (100%)");
    }

    #[test]
    fn stalled_graphs_are_classified() {
        let mut la = LiveAnalyzer::new(1);
        // Backlog but no retirements: starved.
        la.tick(
            1_000,
            NO_STALL,
            &[sample(0, 0, 0, 4, &[]), sample(1, 0, 9, 0, &[])],
        );
        let s = la.summary();
        assert_eq!(
            s.graphs[0].dominant,
            Dominant::Stalled(StallCause::Starvation)
        );
        // Shed arrivals with nothing in flight: admission-bound.
        assert_eq!(
            s.graphs[1].dominant,
            Dominant::Stalled(StallCause::Backpressure)
        );
    }

    #[test]
    fn drained_graphs_leave_the_baseline() {
        let mut la = LiveAnalyzer::new(3);
        la.tick(1_000, NO_STALL, &[sample(7, 50, 0, 0, &[])]);
        la.tick(2_000, NO_STALL, &[]); // graph 7 drained
                                       // Re-spawned id restarts from its own totals, not the old base.
        la.tick(3_000, NO_STALL, &[sample(7, 3, 0, 0, &[])]);
        let s = la.summary();
        // Window: tick1 (50 history) + tick3 (3 fresh after re-baseline).
        assert_eq!(s.graphs[0].completed, 53);
    }

    #[test]
    fn summary_is_deterministic() {
        let build = || {
            let mut la = LiveAnalyzer::new(4);
            let mut g = sample(1, 2, 1, 1, &[64, 65]);
            g.busy_per_node = busy(&[("x", 5), ("y", 5)]);
            la.tick(1_000, [1, 2, 3, 4], &[g]);
            la.tick(2_000, NO_STALL, &[sample(1, 4, 1, 0, &[64, 65, 66])]);
            format!("{:?}", la.summary())
        };
        assert_eq!(build(), build());
    }
}
