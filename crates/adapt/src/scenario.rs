//! Deterministic bursty-replay scenario: the controller's proof harness.
//!
//! The simulator replays a seeded Poisson arrival process with periodic
//! bursts against a single-server queue whose service period is the
//! planner's *predicted* period for the configuration in force — all in
//! virtual cycles, with no wall clock and no threads. The controller
//! ticks on a fixed virtual cadence, sees windowed p99/completed/backlog
//! in the shape `insight::live` delivers them (the p99 here is the exact
//! sorted-window value; the live window's is a histogram bucket's upper
//! bound), and its decisions (with
//! actuation lag: a quality toggle waits for a pipeline flush, a
//! resize/depth step additionally pays a drain + respawn pause) steer
//! the service period. Deadline misses are counted per frame and
//! compared against every full-quality *static* configuration replayed
//! over the byte-identical arrival schedule.
//!
//! Everything — arrivals, windows, decisions, misses, the rendered
//! replay log — is a pure function of [`ScenarioSpec`]; two runs of the
//! same spec produce byte-identical [`ScenarioReport::render_replay`]
//! output. `serve::load` re-executes the decision schedule on the real
//! runtime to prove output admissibility is preserved.

use crate::controller::{Controller, DecisionCounters, WindowObs};
use crate::plan::{rate_app, Lattice, Planner};
use crate::policy::{Action, CandidateConfig, Decision, Quality, SloPolicy};
use apps::experiment::{App, Scale};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;

/// A seeded bursty-replay scenario. All time-like knobs are expressed in
/// *frames at the base rate*, so a spec is meaningful for every app
/// regardless of its absolute predicted period.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    pub app: App,
    pub scale: Scale,
    pub seed: u64,
    /// Arrivals to generate.
    pub frames: u64,
    /// Worker cores the planner predicts for.
    pub cores: usize,
    /// Base offered load as a fraction of the best full-quality
    /// configuration's capacity.
    pub utilization: f64,
    /// Rate multiplier inside a burst.
    pub burst_factor: f64,
    /// Burst cycle length / burst length, in base-rate frames.
    pub burst_period_frames: f64,
    pub burst_len_frames: f64,
    /// Latency SLO as a multiple of the best full-quality period.
    pub deadline_factor: f64,
    /// Controller tick cadence, in base-rate frames.
    pub tick_frames: f64,
    pub cooldown_ticks: u32,
    pub low_watermark: f64,
    pub min_samples: u64,
    pub lattice: Lattice,
    /// Start from the best full-quality config at this depth instead of
    /// the overall best (`None`). A handicapped start exercises the
    /// depth-step / resize relief moves and their drain + respawn
    /// recovery path.
    pub initial_depth: Option<usize>,
}

impl ScenarioSpec {
    /// The bounded scenario used by tests, CI and the bench gate: three
    /// overload→recovery burst cycles at small scale.
    pub fn small(app: App, seed: u64) -> Self {
        Self {
            app,
            scale: Scale::Small,
            seed,
            frames: 480,
            cores: 4,
            utilization: 0.7,
            burst_factor: 2.5,
            burst_period_frames: 160.0,
            burst_len_frames: 24.0,
            deadline_factor: 4.0,
            tick_frames: 8.0,
            cooldown_ticks: 2,
            low_watermark: 0.4,
            min_samples: 2,
            lattice: Lattice::around_default(app, Scale::Small),
            initial_depth: None,
        }
    }

    /// [`ScenarioSpec::small`] starting from a handicapped pipeline
    /// depth, so relief must step the depth (drain + respawn) as well as
    /// toggle quality.
    pub fn stepped(app: App, seed: u64) -> Self {
        Self {
            initial_depth: Some(1),
            ..Self::small(app, seed)
        }
    }
}

/// One static full-quality configuration replayed over the scenario's
/// arrival schedule.
#[derive(Debug, Clone)]
pub struct StaticRun {
    pub config: CandidateConfig,
    pub period: f64,
    pub misses: u64,
    pub miss_rate: f64,
    pub max_latency: u64,
}

/// The adaptive (controller-driven) replay.
#[derive(Debug, Clone)]
pub struct AdaptiveRun {
    pub misses: u64,
    pub miss_rate: f64,
    pub max_latency: u64,
    /// Frames served while quality was degraded.
    pub degraded_frames: u64,
    pub counters: DecisionCounters,
}

/// One non-hold controller decision, positioned for replay: the real
/// harness actuates it after `after_frames` retirements.
#[derive(Debug, Clone)]
pub struct DecisionRecord {
    pub tick: u64,
    /// Virtual time of the decision (cycles).
    pub time: u64,
    /// Frames completed when the decision fired.
    pub after_frames: u64,
    pub action: Action,
    pub reason: &'static str,
    pub config_after: CandidateConfig,
}

/// Everything a replay file needs.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    pub spec: ScenarioSpec,
    /// The SLO in cycles.
    pub deadline: u64,
    /// Best full-quality predicted period (capacity reference).
    pub period_full: f64,
    pub initial: CandidateConfig,
    pub arrivals: u64,
    pub adaptive: AdaptiveRun,
    /// Every full-quality lattice point, in lattice order.
    pub statics: Vec<StaticRun>,
    pub decisions: Vec<DecisionRecord>,
}

impl ScenarioReport {
    /// The best static full-quality configuration *measured on this
    /// scenario* (fewest misses; ties to the earlier lattice point).
    pub fn best_static(&self) -> &StaticRun {
        self.statics
            .iter()
            .min_by_key(|s| s.misses)
            .expect("non-empty static sweep")
    }

    /// Deterministic replay log: byte-identical across runs of the same
    /// spec.
    pub fn render_replay(&self) -> String {
        let mut out = String::new();
        let s = &self.spec;
        let _ = writeln!(
            out,
            "scenario app={} scale={:?} seed={} frames={} cores={} util={:.3} burst={:.2}x/{:.0}f/{:.0}f deadline={} tick_frames={:.0} cooldown={} low={:.2}",
            s.app.id(),
            s.scale,
            s.seed,
            s.frames,
            s.cores,
            s.utilization,
            s.burst_factor,
            s.burst_period_frames,
            s.burst_len_frames,
            self.deadline,
            s.tick_frames,
            s.cooldown_ticks,
            s.low_watermark,
        );
        let _ = writeln!(
            out,
            "plan period_full={:.1} initial={}",
            self.period_full,
            self.initial.label()
        );
        for d in &self.decisions {
            let _ = writeln!(
                out,
                "decision tick={} t={} after={} action={} reason={} config={}",
                d.tick,
                d.time,
                d.after_frames,
                action_detail(&d.action),
                d.reason,
                d.config_after.label()
            );
        }
        for st in &self.statics {
            let _ = writeln!(
                out,
                "static {} period={:.1} misses={} rate={:.4} max_latency={}",
                st.config.label(),
                st.period,
                st.misses,
                st.miss_rate,
                st.max_latency
            );
        }
        let a = &self.adaptive;
        let _ = writeln!(
            out,
            "adaptive misses={} rate={:.4} max_latency={} degraded_frames={} toggles={} resizes={} depth_steps={} holds={}",
            a.misses,
            a.miss_rate,
            a.max_latency,
            a.degraded_frames,
            a.counters.toggle,
            a.counters.resize,
            a.counters.step_depth,
            a.counters.hold
        );
        let best = self.best_static();
        let _ = writeln!(
            out,
            "verdict adaptive_rate={:.4} best_static={} best_static_rate={:.4}",
            a.miss_rate,
            best.config.label(),
            best.miss_rate
        );
        out
    }
}

fn action_detail(a: &Action) -> String {
    match a {
        Action::Hold => "hold".into(),
        Action::Toggle { to } => format!("toggle:{}", to.label()),
        Action::Resize { slices } => format!("resize:{slices}"),
        Action::StepDepth { depth } => format!("step_depth:{depth}"),
    }
}

/// Seeded Poisson arrival times (cycles) with periodic rate bursts —
/// the virtual-time twin of `serve::load`'s open-loop generator, fully
/// captured by the seed.
fn arrivals(spec: &ScenarioSpec, base_interval: f64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let burst_period = (spec.burst_period_frames * base_interval).max(1.0) as u64;
    let burst_len = (spec.burst_len_frames * base_interval).max(1.0) as u64;
    let mut t = 0u64;
    let mut out = Vec::with_capacity(spec.frames as usize);
    for _ in 0..spec.frames {
        let in_burst = burst_period > 0 && t % burst_period < burst_len;
        let mean = if in_burst {
            base_interval / spec.burst_factor
        } else {
            base_interval
        };
        let u: f64 = rng.gen_range(1e-12..1.0);
        t += (-u.ln() * mean).max(1.0) as u64;
        out.push(t);
    }
    out
}

/// Replay the arrival schedule through a fixed configuration.
fn run_static(arrivals: &[u64], period: u64, deadline: u64) -> (u64, u64) {
    let mut free_at = 0u64;
    let mut misses = 0u64;
    let mut max_latency = 0u64;
    for &a in arrivals {
        let start = a.max(free_at);
        let finish = start + period;
        free_at = finish;
        let latency = finish - a;
        max_latency = max_latency.max(latency);
        if latency > deadline {
            misses += 1;
        }
    }
    (misses, max_latency)
}

/// A decided actuation waiting for its effective time.
struct PendingActuation {
    effective_at: u64,
    config: CandidateConfig,
    /// Drain + respawn pause (0 for a live quality toggle).
    pause: u64,
}

/// Run the scenario: plan, replay the controller closed-loop, sweep the
/// full-quality statics over the same arrivals.
pub fn run_scenario(spec: &ScenarioSpec) -> ScenarioReport {
    assert!(spec.frames > 0 && spec.utilization > 0.0 && spec.burst_factor >= 1.0);
    let rated = rate_app(spec.app, spec.scale, &spec.lattice, spec.cores);
    // The frame budget is anchored on the best full-quality period: the
    // SLO is demanding but predicted-feasible at full quality.
    let period_full = Planner::new(rated.clone(), f64::MAX)
        .best_static_full()
        .expect("non-empty lattice")
        .period;
    let deadline = (spec.deadline_factor * period_full) as u64;
    let planner = Planner::new(rated, deadline as f64);
    let initial = match spec.initial_depth {
        Some(d) => {
            planner
                .rated()
                .iter()
                .filter(|r| r.config.quality == Quality::Full && r.config.pipeline_depth == d)
                .min_by(|a, b| a.period.total_cmp(&b.period))
                .expect("initial depth in lattice")
                .config
        }
        None => {
            planner
                .best_static_full()
                .expect("non-empty lattice")
                .config
        }
    };

    let base_interval = period_full / spec.utilization;
    let schedule = arrivals(spec, base_interval);
    let tick_cycles = ((spec.tick_frames * base_interval) as u64).max(1);

    let mut policy = SloPolicy::new(deadline);
    policy.low_watermark = spec.low_watermark;
    policy.cooldown_ticks = spec.cooldown_ticks;
    policy.min_samples = spec.min_samples;
    policy.max_backlog = 4 * spec.tick_frames as u64;
    let mut ctl = Controller::new(policy, planner.clone(), initial);

    let period_of = |c: &CandidateConfig| -> u64 {
        (planner.lookup(c).expect("config rated").period).max(1.0) as u64
    };

    let mut free_at = 0u64;
    let mut period = period_of(&initial);
    let mut live = initial; // configuration actually in force
    let mut pending: std::collections::VecDeque<PendingActuation> = Default::default();
    let mut next_tick = tick_cycles;
    let mut tick_windows = 0u64;

    let mut finishes: Vec<u64> = Vec::with_capacity(schedule.len());
    let mut latencies: Vec<u64> = Vec::with_capacity(schedule.len());
    let mut decisions: Vec<DecisionRecord> = Vec::new();
    let mut misses = 0u64;
    let mut max_latency = 0u64;
    let mut degraded_frames = 0u64;
    // Window cursor: completions already attributed to a past window.
    let mut win_done = 0usize;

    for (i, &a) in schedule.iter().enumerate() {
        let mut start = a.max(free_at);
        // Controller ticks due strictly before this service starts.
        while next_tick <= start {
            let t = next_tick;
            next_tick += tick_cycles;
            tick_windows += 1;
            // Completions inside this window (finish <= t, not yet seen).
            let mut upto = win_done;
            while upto < finishes.len() && finishes[upto] <= t {
                upto += 1;
            }
            let mut window: Vec<u64> = latencies[win_done..upto].to_vec();
            win_done = upto;
            window.sort_unstable();
            let p99 = if window.is_empty() {
                0
            } else {
                let rank = ((0.99 * window.len() as f64).ceil() as usize).max(1);
                window[rank - 1]
            };
            let arrived = schedule.partition_point(|&x| x <= t) as u64;
            let done = upto as u64;
            let obs = WindowObs {
                p99_ns: p99,
                completed: window.len() as u64,
                backlog: arrived.saturating_sub(done),
            };
            let d: Decision = ctl.observe(&obs);
            if d.action != Action::Hold {
                let lag = (live.pipeline_depth as u64) * period;
                let pause = match d.action {
                    Action::Toggle { .. } => 0,
                    _ => 2 * period_of(&d.config_after),
                };
                pending.push_back(PendingActuation {
                    effective_at: t + lag,
                    config: d.config_after,
                    pause,
                });
                decisions.push(DecisionRecord {
                    tick: d.tick,
                    time: t,
                    after_frames: done,
                    action: d.action,
                    reason: d.reason,
                    config_after: d.config_after,
                });
            }
        }
        while let Some(p) = pending.front() {
            if p.effective_at > start {
                break;
            }
            live = p.config;
            period = period_of(&live);
            free_at = free_at.max(p.effective_at) + p.pause;
            pending.pop_front();
            start = a.max(free_at);
        }
        let finish = start + period;
        free_at = finish;
        let latency = finish - a;
        max_latency = max_latency.max(latency);
        if latency > deadline {
            misses += 1;
        }
        if live.quality == Quality::Degraded {
            degraded_frames += 1;
        }
        finishes.push(finish);
        latencies.push(latency);
        let _ = i;
    }
    let _ = tick_windows;

    let statics: Vec<StaticRun> = planner
        .rated()
        .iter()
        .filter(|r| r.config.quality == Quality::Full)
        .map(|r| {
            let (m, maxl) = run_static(&schedule, r.period.max(1.0) as u64, deadline);
            StaticRun {
                config: r.config,
                period: r.period,
                misses: m,
                miss_rate: m as f64 / spec.frames as f64,
                max_latency: maxl,
            }
        })
        .collect();

    ScenarioReport {
        spec: spec.clone(),
        deadline,
        period_full,
        initial,
        arrivals: spec.frames,
        adaptive: AdaptiveRun {
            misses,
            miss_rate: misses as f64 / spec.frames as f64,
            max_latency,
            degraded_frames,
            counters: ctl.counters(),
        },
        statics,
        decisions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_is_deterministic_and_adaptive_beats_best_static() {
        let spec = ScenarioSpec::small(App::Pip12, 42);
        let a = run_scenario(&spec);
        let b = run_scenario(&spec);
        assert_eq!(a.render_replay(), b.render_replay());
        assert!(a.adaptive.counters.toggle >= 2, "bursts must drive toggles");
        assert!(a.adaptive.degraded_frames > 0);
        assert!(
            a.adaptive.degraded_frames < a.arrivals,
            "must recover quality between bursts"
        );
        let best = a.best_static();
        assert!(
            a.adaptive.misses <= best.misses,
            "adaptive {} misses vs best static {} ({})",
            a.adaptive.misses,
            best.misses,
            best.config.label()
        );
    }

    #[test]
    fn different_seeds_produce_different_schedules() {
        let a = run_scenario(&ScenarioSpec::small(App::Pip12, 1));
        let b = run_scenario(&ScenarioSpec::small(App::Pip12, 2));
        assert_ne!(a.render_replay(), b.render_replay());
    }

    #[test]
    fn every_reconfig_app_scenario_holds_the_gate() {
        for app in App::RECONFIG {
            let r = run_scenario(&ScenarioSpec::small(app, 42));
            let best = r.best_static();
            assert!(
                r.adaptive.misses <= best.misses,
                "{}: adaptive {} vs best static {}",
                app.label(),
                r.adaptive.misses,
                best.misses
            );
            assert!(r.adaptive.miss_rate <= 1.0);
        }
    }
}
