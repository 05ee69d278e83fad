//! Seeded open-loop load generation against the in-process runtime.
//!
//! *Open loop* means arrivals are scheduled by the clock, not by the
//! system's responses: a Poisson process (seeded, reproducible) emits
//! frame arrivals at a configured aggregate rate, each arrival targets a
//! uniformly drawn graph instance, and an arrival the tenant's admission
//! bound rejects is counted as **shed** rather than queued — so the
//! harness measures the latency of what the system accepted *under
//! sustained offered load*, the number a closed-loop (submit-and-wait)
//! driver structurally cannot produce.
//!
//! [`run_open_loop`] drives N concurrent graph instances (mixed app
//! families) with Poisson arrivals and optional periodic bursts,
//! reporting aggregate frames/sec, shed count and a fleet-wide p50/p99
//! frame latency (per-tenant histograms merged exactly — same
//! power-of-two buckets).

use adapt::{run_scenario, Action, Quality, ScenarioReport, ScenarioSpec};
use apps::experiment::{build, build_adaptive, reconfig_handle, App, AppConfig, Built, Scale};
use apps::output::{digest_ports, Digest, Ports};
use hinch::trace::metrics::Histogram;
use hinch::{Event, GraphId, GraphStats, Runtime, RuntimeConfig, SpawnOpts};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Periodic burst profile: every `period`, the arrival rate is
/// multiplied by `factor` for `len`.
#[derive(Debug, Clone, Copy)]
pub struct Burst {
    pub period: Duration,
    pub len: Duration,
    pub factor: f64,
}

/// Open-loop harness configuration.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Concurrent graph instances.
    pub graphs: usize,
    /// Worker threads of the shared pool.
    pub workers: usize,
    /// App families cycled over the instances.
    pub mix: Vec<App>,
    pub scale: Scale,
    pub pipeline_depth: usize,
    /// Per-tenant in-flight bound (admission control).
    pub max_backlog: u64,
    /// Aggregate Poisson arrival rate, frames/sec across all graphs.
    pub rate_fps: f64,
    pub duration: Duration,
    pub burst: Option<Burst>,
    pub seed: u64,
}

impl Default for LoadConfig {
    fn default() -> Self {
        Self {
            graphs: 64,
            workers: 8,
            mix: vec![App::Pip1, App::Jpip1, App::Blur3, App::Pip12],
            scale: Scale::Small,
            pipeline_depth: 3,
            max_backlog: 8,
            rate_fps: 2_000.0,
            duration: Duration::from_secs(2),
            burst: Some(Burst {
                period: Duration::from_millis(500),
                len: Duration::from_millis(100),
                factor: 3.0,
            }),
            seed: 42,
        }
    }
}

/// Aggregate result of one open-loop run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    pub graphs: usize,
    pub workers: usize,
    /// Arrivals emitted by the generator.
    pub offered: u64,
    /// Arrivals admitted by the tenants.
    pub accepted: u64,
    /// Arrivals rejected by admission control (offered − accepted).
    pub shed: u64,
    /// Frames retired across all tenants.
    pub completed: u64,
    /// Wall time from first arrival to last drain.
    pub elapsed: Duration,
    /// completed / elapsed.
    pub agg_fps: f64,
    pub latency_mean_ns: f64,
    pub latency_p50_ns: u64,
    pub latency_p99_ns: u64,
    /// Reconfigurations applied across tenants (reconfig apps in the mix).
    pub reconfigs: u64,
    /// Final per-tenant stats, ordered by graph id.
    pub per_graph: Vec<GraphStats>,
}

/// The fleet's latency distribution: the per-tenant histograms merged.
fn fleet_latency(stats: &[GraphStats]) -> Histogram {
    stats.iter().fold(Histogram::default(), |mut fleet, s| {
        fleet.merge(&s.latency);
        fleet
    })
}

/// Exponential inter-arrival sample for rate `rate` (events/sec).
fn exp_interval(rng: &mut StdRng, rate: f64) -> Duration {
    // Inverse-CDF sampling; clamp the uniform away from 0 so ln() is finite.
    let u: f64 = rng.gen_range(1e-12..1.0);
    Duration::from_secs_f64((-u.ln() / rate).min(1.0))
}

/// The complete arrival schedule of an open-loop run — `(offset from
/// start, target graph index)` pairs — as a pure function of the config.
///
/// Burst windows are gated on the *scheduled virtual time*, not the wall
/// clock at emission: pacing jitter (a slow submit, a descheduled
/// generator thread) must not change which arrivals land inside a burst,
/// or replay files would differ run to run with the same seed.
pub fn arrival_schedule(cfg: &LoadConfig) -> Vec<(Duration, usize)> {
    assert!(cfg.graphs > 0 && cfg.rate_fps > 0.0);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut t = Duration::ZERO;
    let mut out = Vec::new();
    loop {
        let rate = match cfg.burst {
            Some(b) if t.as_nanos() % b.period.as_nanos() < b.len.as_nanos() => {
                cfg.rate_fps * b.factor
            }
            _ => cfg.rate_fps,
        };
        t += exp_interval(&mut rng, rate);
        if t >= cfg.duration {
            return out;
        }
        out.push((t, rng.gen_range(0..cfg.graphs)));
    }
}

/// Run the open-loop harness: spawn the fleet, emit Poisson arrivals for
/// `cfg.duration`, drain everything, aggregate.
pub fn run_open_loop(cfg: &LoadConfig) -> LoadReport {
    assert!(cfg.graphs > 0 && !cfg.mix.is_empty() && cfg.rate_fps > 0.0);
    let runtime = Runtime::new(RuntimeConfig::new(cfg.workers));

    // Fleet: instances cycle over the app mix.
    let ids: Vec<GraphId> = (0..cfg.graphs)
        .map(|i| {
            let app = cfg.mix[i % cfg.mix.len()];
            let built = build(AppConfig {
                app,
                scale: cfg.scale,
                frames: 0,
            });
            runtime
                .spawn(
                    &built.spec,
                    SpawnOpts::new(app.id())
                        .pipeline_depth(cfg.pipeline_depth)
                        .max_backlog(cfg.max_backlog),
                )
                .expect("spawn fleet instance")
        })
        .collect();

    // The schedule is precomputed — arrival times, burst windows and
    // targets are all captured by the seed; the loop below only paces it
    // against the wall clock. An arrival whose time already passed fires
    // immediately: open loop means arrivals never wait for the system.
    let schedule = arrival_schedule(cfg);
    let start = Instant::now();
    let mut offered = 0u64;
    let mut accepted = 0u64;
    for &(at, target) in &schedule {
        let due = start + at;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        offered += 1;
        accepted += runtime.submit(ids[target], 1).expect("fleet submit");
    }

    let mut per_graph: Vec<GraphStats> = ids
        .into_iter()
        .map(|id| runtime.drain(id).expect("fleet drain"))
        .collect();
    let elapsed = start.elapsed();
    per_graph.sort_by_key(|s| s.id.0);
    runtime.shutdown();

    let completed: u64 = per_graph.iter().map(|s| s.completed).sum();
    let reconfigs: u64 = per_graph.iter().map(|s| s.reconfigs).sum();
    let latency = fleet_latency(&per_graph);
    LoadReport {
        graphs: per_graph.len(),
        workers: cfg.workers,
        offered,
        accepted,
        shed: offered - accepted,
        completed,
        elapsed,
        agg_fps: completed as f64 / elapsed.as_secs_f64().max(1e-9),
        latency_mean_ns: latency.mean(),
        latency_p50_ns: latency.quantile(0.5),
        latency_p99_ns: latency.quantile(0.99),
        reconfigs,
        per_graph,
    }
}

/// Configuration of the real-runtime burst-replay harness.
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    pub scenario: ScenarioSpec,
    /// Worker threads of the runtime executing the replay.
    pub workers: usize,
    /// Cap on real frames executed: the virtual scenario's arrival count
    /// can exceed a test budget; decisions past the cap are not replayed.
    pub max_frames: u64,
}

impl ReplayConfig {
    pub fn small(app: App, seed: u64) -> Self {
        Self {
            scenario: ScenarioSpec::small(app, seed),
            workers: 2,
            max_frames: 60,
        }
    }
}

/// Result of re-executing a scenario's decision schedule on the real
/// runtime (quality toggles via `Runtime::inject`, resizes / depth steps
/// via drain + respawn).
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// The virtual-time scenario whose decisions were replayed (carries
    /// the deadline-miss accounting and the replay log).
    pub scenario: ScenarioReport,
    /// Real frames executed (≤ the scenario's arrival count).
    pub frames: u64,
    /// Quality-toggle events injected into the live graph.
    pub toggles: u64,
    /// Drain + respawn rebuilds (slice resize or depth step).
    pub rebuilds: u64,
    /// Reconfigurations the runtime observed across all incarnations.
    pub reconfigs: u64,
    /// Every incarnation's captured output, in spawn order (a rebuild
    /// starts a new incarnation, whose source restarts at frame 0).
    pub outputs: Vec<Ports>,
    /// [`digest_ports`] over the ports of every incarnation in turn —
    /// byte-determinism fingerprint of the replay.
    pub output_digest: Digest,
    pub completed: u64,
    pub latency_p99_ns: u64,
}

/// Replay the scenario's decision schedule against the real runtime.
///
/// The graph is drip-fed in segments bounded by the scenario's decision
/// points (`after_frames`); at each boundary the harness waits for
/// quiescence, then actuates exactly what the controller decided: a
/// quality toggle becomes a manager-queue event (the graph keeps
/// running), a resize or depth step becomes a drain + respawn at the new
/// configuration. A toggle injected at boundary *b* lands on frame
/// *b + d* (`Runtime::inject`), a respawn at *b* itself, so the captured
/// outputs — and hence `output_digest` — are a pure function of the
/// scenario spec.
pub fn run_burst_replay(cfg: &ReplayConfig) -> ReplayReport {
    let scenario = run_scenario(&cfg.scenario);
    let frames = scenario.arrivals.min(cfg.max_frames);
    let app = cfg.scenario.app;
    let handle = reconfig_handle(app);

    let runtime = Runtime::new(RuntimeConfig::new(cfg.workers));
    let spawn = |slices: usize, depth: usize| -> (Built, GraphId) {
        let built = build_adaptive(
            AppConfig {
                app,
                scale: cfg.scenario.scale,
                frames: 0,
            },
            Some(slices),
        );
        let id = runtime
            .spawn(
                &built.spec,
                SpawnOpts::new(app.id())
                    .pipeline_depth(depth)
                    .max_backlog(frames.max(1)),
            )
            .expect("spawn replay graph");
        (built, id)
    };
    // Reconfig graphs spawn degraded (second picture disabled / 3×3
    // kernel); one idempotent event brings a fresh incarnation to the
    // wanted quality before any frame flows.
    let sync_quality = |id: GraphId, live: &mut Quality, want: Quality| {
        if let Some(h) = handle {
            if *live != want {
                let payload = match want {
                    Quality::Full => h.full_payload,
                    Quality::Degraded => h.degraded_payload,
                };
                runtime
                    .inject(id, h.queue, Event::with_payload(h.event, payload))
                    .expect("replay inject");
                *live = want;
            }
        }
    };

    let mut current = scenario.initial;
    let (mut built, mut id) = spawn(current.slices, current.pipeline_depth);
    let mut live_quality = Quality::Degraded;
    sync_quality(id, &mut live_quality, current.quality);

    let mut toggles = 0u64;
    let mut rebuilds = 0u64;
    let mut outputs = Vec::new();
    let mut retired: Vec<GraphStats> = Vec::new();
    let mut retire = |id: GraphId, built: &Built| {
        retired.push(runtime.drain(id).expect("replay drain"));
        outputs.push(built.outputs());
    };
    let mut done = 0u64;

    for d in scenario
        .decisions
        .iter()
        .filter(|d| d.after_frames < frames)
    {
        if d.after_frames > done {
            let n = d.after_frames - done;
            assert_eq!(runtime.submit(id, n).expect("replay submit"), n);
            done = d.after_frames;
        }
        runtime.wait_retired(id).expect("replay wait");
        match d.action {
            Action::Hold => {}
            // The next rebuild's `config_after` carries the cumulative
            // quality, so toggles don't need to update `current`.
            Action::Toggle { to } => {
                sync_quality(id, &mut live_quality, to);
                toggles += 1;
            }
            Action::Resize { .. } | Action::StepDepth { .. } => {
                current = d.config_after;
                retire(id, &built);
                rebuilds += 1;
                (built, id) = spawn(current.slices, current.pipeline_depth);
                live_quality = Quality::Degraded;
                sync_quality(id, &mut live_quality, current.quality);
            }
        }
    }
    if frames > done {
        let n = frames - done;
        assert_eq!(runtime.submit(id, n).expect("replay submit"), n);
    }
    retire(id, &built);
    runtime.shutdown();

    ReplayReport {
        scenario,
        frames,
        toggles,
        rebuilds,
        reconfigs: retired.iter().map(|s| s.reconfigs).sum(),
        output_digest: digest_ports(&outputs.concat()),
        outputs,
        completed: retired.iter().map(|s| s.completed).sum(),
        latency_p99_ns: fleet_latency(&retired).quantile(0.99),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hinch::trace::metrics::LogHistogram;

    #[test]
    fn open_loop_small_fleet_completes_and_reports() {
        let cfg = LoadConfig {
            graphs: 4,
            workers: 2,
            mix: vec![App::Pip1, App::Blur3],
            rate_fps: 200.0,
            duration: Duration::from_millis(300),
            ..LoadConfig::default()
        };
        let r = run_open_loop(&cfg);
        assert_eq!(r.graphs, 4);
        assert!(r.offered > 0);
        assert_eq!(r.accepted + r.shed, r.offered);
        assert_eq!(
            r.completed, r.accepted,
            "drain retires every accepted frame"
        );
        if r.completed > 0 {
            assert!(r.agg_fps > 0.0);
            assert!(r.latency_p99_ns >= r.latency_p50_ns);
        }
    }

    #[test]
    fn open_loop_is_seed_reproducible_in_offered_schedule() {
        // The arrival schedule is a pure function of the config (burst
        // windows gate on scheduled virtual time, not the wall clock), so
        // the offered count is *exactly* reproducible; acceptance depends
        // on scheduling, so only the generator side is asserted.
        let cfg = LoadConfig {
            graphs: 2,
            workers: 2,
            mix: vec![App::Pip1],
            rate_fps: 500.0,
            duration: Duration::from_millis(200),
            ..LoadConfig::default()
        };
        let a = run_open_loop(&cfg);
        let b = run_open_loop(&cfg);
        assert_eq!(a.offered, b.offered);
        assert_eq!(a.offered, arrival_schedule(&cfg).len() as u64);
    }

    #[test]
    fn arrival_schedule_is_pure_and_burst_sensitive() {
        let cfg = LoadConfig {
            rate_fps: 5_000.0,
            duration: Duration::from_secs(1),
            ..LoadConfig::default()
        };
        assert_eq!(arrival_schedule(&cfg), arrival_schedule(&cfg));
        // Bursts raise the rate, so dropping them must lower the count.
        let flat = LoadConfig {
            burst: None,
            ..cfg.clone()
        };
        assert!(
            arrival_schedule(&cfg).len() > arrival_schedule(&flat).len(),
            "burst windows must add arrivals"
        );
        // Every target index is in range; times are non-decreasing.
        let sched = arrival_schedule(&cfg);
        for w in sched.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
        assert!(sched.iter().all(|&(_, g)| g < cfg.graphs));
    }

    #[test]
    fn burst_replay_executes_decision_schedule() {
        let cfg = ReplayConfig::small(App::Pip12, 42);
        let r = run_burst_replay(&cfg);
        assert_eq!(r.completed, r.frames);
        assert!(
            r.toggles + r.rebuilds > 0,
            "the bursty scenario must actuate within the replayed prefix"
        );
        // Every injected toggle reaches the graph as a reconfiguration;
        // the parked in-graph injector contributes none, and each
        // incarnation adds at most one quality-sync event.
        assert!(
            r.reconfigs >= r.toggles && r.reconfigs <= r.toggles + r.rebuilds + 1,
            "reconfigs {} outside [{}, {}]",
            r.reconfigs,
            r.toggles,
            r.toggles + r.rebuilds + 1
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(3))]

        // Satellite: the end-to-end burst replay is byte-deterministic —
        // same seed, same decision schedule, same captured output bytes.
        #[test]
        fn burst_replay_is_byte_deterministic(seed in 0u64..1 << 32) {
            use proptest::prelude::prop_assert_eq;
            let mut cfg = ReplayConfig::small(App::Pip12, seed);
            cfg.max_frames = 36;
            let a = run_burst_replay(&cfg);
            let b = run_burst_replay(&cfg);
            prop_assert_eq!(&a.output_digest, &b.output_digest);
            prop_assert_eq!(a.toggles, b.toggles);
            prop_assert_eq!(a.rebuilds, b.rebuilds);
            prop_assert_eq!(a.completed, b.completed);
            prop_assert_eq!(
                a.scenario.render_replay(),
                b.scenario.render_replay()
            );
        }
    }

    fn graph_stats_for(id: u32, h: &LogHistogram) -> GraphStats {
        let latency = h.snapshot();
        let n = latency.count();
        GraphStats {
            id: GraphId(id),
            label: format!("g{id}"),
            submitted: n,
            completed: n,
            inflight: 0,
            reconfigs: 0,
            jobs_executed: 0,
            latency,
            shed: 0,
            failure: None,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        // The merged fleet histogram equals (a) a single histogram over
        // the whole stream *exactly*, and its p50/p99 (b) the true
        // percentile of the unmerged value stream within one bucket
        // width — with values adversarially hugging the power-of-two
        // bucket edges (2^k - 1, 2^k, 2^k + 1), where an off-by-one in
        // a merge would shift the result a whole bucket.
        #[test]
        fn merged_quantiles_match_unmerged_stream(
            raw in proptest::collection::vec(
                (0u32..41, -1i64..=1, 0usize..6),
                1..200,
            ),
        ) {
            use proptest::prelude::prop_assert_eq;
            let values: Vec<(u64, usize)> = raw
                .iter()
                .map(|&(k, off, g)| ((((1u64 << k) as i64) + off).max(0) as u64, g))
                .collect();

            // Partition the stream across up to 6 per-graph histograms.
            let per_graph: Vec<LogHistogram> =
                (0..6).map(|_| LogHistogram::default()).collect();
            let combined = LogHistogram::default();
            for &(v, g) in &values {
                per_graph[g].record(v);
                combined.record(v);
            }
            let stats: Vec<GraphStats> = per_graph
                .iter()
                .enumerate()
                .map(|(i, h)| graph_stats_for(i as u32, h))
                .collect();
            let fleet = fleet_latency(&stats);

            // (a) merge is exact against the single histogram.
            prop_assert_eq!(&fleet, &combined.snapshot());

            // (b) against the raw stream: the bucket of the exact
            // percentile, so within one bucket width.
            let mut sorted: Vec<u64> = values.iter().map(|&(v, _)| v).collect();
            sorted.sort_unstable();
            for q in [0.5f64, 0.99] {
                let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
                let exact = LogHistogram::default();
                exact.record(sorted[rank - 1]);
                prop_assert_eq!(
                    fleet.quantile(q),
                    exact.snapshot().quantile(q),
                    "q={} exact={}", q, sorted[rank - 1]
                );
            }
        }
    }
}
