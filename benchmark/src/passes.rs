//! The two passes over one workload. The end-to-end pass runs with
//! tracing off and yields what a user sees; the traced pass is separate
//! and shorter, records spans around every call into a layer, and yields
//! the per-layer numbers.

use crate::host;
use crate::inproc::{alternate, latency_runs, Prepared, Setup, Side, Tally};
use crate::layers::{self, Values};
use crate::metrics::{Drive, Metrics, Workload};
use crate::schedule::Rng;
use crate::spans::Spans;
use crate::stats::{median, Summary};
use crate::wire::{codec_ns_per_req, Fleet, FleetEnd, Step};
use apps::experiment::{build_with, AppConfig};
use std::time::{Duration, Instant};

/// What one pass over one workload produced.
pub struct Outcome {
    pub metrics: Metrics,
    /// Numbers printed and stored but not part of the manifest: they
    /// exist on some workloads only.
    pub extras: Vec<(String, f64, &'static str)>,
    pub tally: Tally,
    pub spans: Spans,
}

/// Share of `--seconds` a phase gets.
fn share(seconds: f64, part: f64) -> Duration {
    Duration::from_secs_f64(seconds * part)
}

/// Set-ups timed per run, at least; `setup_s` is their median. A cheap
/// set-up is repeated for [`SETUP_FILL`] of `--seconds` (half a second of
/// the manifest's twenty), so its median is as steady as that of one that
/// takes a third of a second.
const SETUPS: usize = 3;
const SETUP_FILL: f64 = 0.025;
/// Samples that support a p95 tail.
const TAIL_SAMPLES: usize = 200;
/// Share of a batch pass spent on the alternating throughput runs; the
/// latency runs get the rest (150 of JPiP-1's 20 ms frames in 3 s of 20).
const THROUGHPUT_SHARE: f64 = 0.85;

fn concat<T>(items: &[T], samples: impl Fn(&T) -> &[f64]) -> Vec<f64> {
    items
        .iter()
        .flat_map(|i| samples(i).iter().copied())
        .collect()
}

/// Add a stopped fleet's frames to the result line's counts. A closed
/// loop never offers more than the fleet admits, so a frame shed or not
/// retired in time has failed. An open-loop step overloads the fleet on
/// purpose: what it sheds or retires late is the step's
/// `serve.failed_share.*`, and only an admitted frame the server lost
/// (a conservation violation) is a failed operation.
fn fold_fleet_end(end: FleetEnd, closed_loop: bool, tally: &mut Tally) -> FleetEnd {
    let c = end.counts;
    if closed_loop {
        tally.attempted += c.offered - c.unsent;
        tally.failed += c.shed + c.failed;
    } else {
        tally.attempted += c.accepted;
    }
    for v in &end.violations {
        // A broken identity is not a count of frames; it fails the run.
        tally.failed = tally.failed.max(1);
        tally.notes.push(v.clone());
    }
    end
}

pub fn end_to_end(w: &Workload, seed: u64, seconds: f64) -> Outcome {
    let mut spans = Spans::new(false);
    let mut tally = Tally::default();
    let mut m = Metrics::default();
    let mut extras = Vec::new();
    let mut calib = Vec::new();
    match w.drive {
        Drive::Batch {
            frames,
            latency_frames,
        } => {
            let app = w.apps[0];
            let start = Instant::now();
            let mut setup_s = Vec::new();
            let prepared = loop {
                let setup = Setup::new(app, w.scale, seed, &mut spans);
                setup_s.push(setup.assets_s + setup.build_s);
                if setup_s.len() >= SETUPS && start.elapsed() >= share(seconds, SETUP_FILL) {
                    break Prepared::new(setup, (frames, latency_frames));
                }
            };

            // Throughput first: a median over its runs shrugs off the first
            // few, taken while the second CPU is still waking from the
            // single-threaded set-up; the latency runs then meet a warm host.
            let start = Instant::now();
            let runs = alternate(
                &prepared,
                share(seconds, THROUGHPUT_SHARE),
                2,
                false,
                &mut spans,
                &mut tally,
            );
            let left = Duration::from_secs_f64(seconds).saturating_sub(start.elapsed());
            let frame_ms = Summary::of(&latency_runs(&prepared, left, &mut tally));

            m.set("setup_s", median(&setup_s));
            m.set_detail("frames_per_s", &runs.fps(Side::Hw));
            m.set_detail("frames_per_s_1w", &runs.fps(Side::OneWorker));
            m.set("cpu_ms_per_frame", runs.cpu_ms_per_frame(Side::Hw));
            m.set("peak_rss_mb", host::peak_rss_mib());
            m.set_summary("frame_ms_p50", "frame_ms_tail", &frame_ms);
            extras.push((
                "runs_per_side".into(),
                runs.side(Side::Hw).len() as f64,
                "count",
            ));
            extras.push(("setups".into(), setup_s.len() as f64, "count"));
            calib = runs.calib_ms;
        }
        Drive::Wire => {
            let hw = host::hw_threads();
            let mut rng = Rng::new(seed);
            let mut setup_s = Vec::new();

            calib.push(host::calib_spin_ms());
            let mut fleet = Fleet::start(hw, w.scale, w.apps, &mut spans);
            setup_s.push(fleet.setup_s);
            let frame_ms =
                Summary::of(&fleet.single_frames(&mut rng, share(seconds, 0.5), &mut spans));
            fold_fleet_end(fleet.stop(&mut spans), true, &mut tally);

            let mut capacity = |workers: usize, tally: &mut Tally| {
                calib.push(host::calib_spin_ms());
                let mut fleet = Fleet::start(workers, w.scale, w.apps, &mut spans);
                setup_s.push(fleet.setup_s);
                let cpu0 = host::cpu_seconds();
                let fps = fleet.saturate(share(seconds, 0.25), &mut spans);
                let cpu_s = host::cpu_seconds() - cpu0;
                let end = fold_fleet_end(fleet.stop(&mut spans), true, tally);
                (fps, 1e3 * cpu_s / end.counts.completed.max(1) as f64)
            };
            let (fps_hw, cpu_ms) = capacity(hw, &mut tally);
            let (fps_1w, _) = capacity(1, &mut tally);

            m.set("setup_s", median(&setup_s));
            m.set("frames_per_s", fps_hw);
            m.set("frames_per_s_1w", fps_1w);
            m.set("cpu_ms_per_frame", cpu_ms);
            m.set("peak_rss_mb", host::peak_rss_mib());
            m.set_summary("frame_ms_p50", "frame_ms_tail", &frame_ms);
        }
    }
    let calib = Summary::of(&calib);
    extras.push(("host.calib_spin_ms_p50".into(), calib.p50, "ms"));
    extras.push(("host.calib_spin_ms_tail".into(), calib.tail, "ms"));
    extras.push((
        "failed_share".into(),
        tally.failed as f64 / tally.attempted.max(1) as f64,
        "ratio",
    ));
    Outcome {
        metrics: m,
        extras,
        tally,
        spans,
    }
}

/// Frames of an in-process run in the traced pass: a traced run keeps
/// every job span in memory, so the long small-scale runs are cut.
const TRACED_RUN_FRAMES: u64 = 2_000;
/// The open-loop ladder, frames/s.
const LADDER: [f64; 3] = [8.0, 32.0, 128.0];
/// Completions are observed this long after a ladder step's window.
const GRACE: Duration = Duration::from_millis(500);

pub fn traced(w: &Workload, seed: u64, seconds: f64) -> Outcome {
    let mut spans = Spans::new(true);
    let mut tally = Tally::default();
    let mut m = Metrics::default();
    let mut extras: Vec<(String, f64, &'static str)> = Vec::new();
    let hw = host::hw_threads();

    // First, before any input is generated: see `layers::simulate`.
    let sim: Vec<Values> = w
        .apps
        .iter()
        .map(|&a| layers::simulate(a, w.scale))
        .collect();

    let mut per_app: Vec<Values> = Vec::new();
    let mut calib = Vec::new();
    let mut dims = (0, 0);
    for (i, &app) in w.apps.iter().enumerate() {
        let run_frames = match w.drive {
            Drive::Batch { frames, .. } => frames.min(TRACED_RUN_FRAMES),
            Drive::Wire => app.paper_frames(),
        };
        let setup = Setup::new(app, w.scale, seed, &mut spans);
        let assets_cold_ms = setup.assets_s * 1e3;
        let prepared = Prepared::new(setup, (run_frames, 1));
        if i == 0 {
            dims = prepared.plane_dims;
        }
        let mut v = layers::compile(&prepared);
        v.insert("apps.assets_cold_ms".into(), assets_cold_ms);
        let cfg = AppConfig {
            app,
            scale: w.scale,
            frames: run_frames,
        };
        let warm: Vec<f64> = (0..SETUPS)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(build_with(cfg, prepared.built.assets.clone()));
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        v.insert("apps.build_warm_ms".into(), median(&warm));

        // The ladder below waits on the wire most of its time; a fleet of
        // four leaves the in-process runs a smaller share than one app.
        let part = if w.apps.len() == 1 { 0.45 } else { 0.2 };
        let budget = share(seconds, part / w.apps.len() as f64);
        let runs = alternate(&prepared, budget, 2, true, &mut spans, &mut tally);
        let (from_runs, quiesce_us) = layers::from_runs(&runs);
        v.extend(from_runs);
        if let Some(us) = quiesce_us {
            extras.push((
                format!("hinch.quiesce_us_per_reconfig.{}", app.id()),
                us,
                "us",
            ));
        }
        calib.extend(runs.calib_ms);
        per_app.push(v);
    }
    let mut values = layers::mean_over_apps(&per_app);
    values.extend(layers::mean_over_apps(&sim));
    values.extend(layers::kernels(dims.0, dims.1, seed, &mut spans));
    values.insert(
        "hinch.speedup_vs_sim".into(),
        values["hinch.speedup_hw"] / values["spacecake.speedup_hw"],
    );
    values.insert("serve.codec_ns_per_req".into(), codec_ns_per_req());

    // The wire path: the open-loop ladder, a fresh fleet per step so no
    // step inherits a backlog, RTT probes on the first before its load.
    let mut pings = Vec::new();
    let mut steps: Vec<Step> = Vec::new();
    let mut ends: Vec<FleetEnd> = Vec::new();
    let (mut spawn_ms, mut submit_us, mut stats_us) = (Vec::new(), Vec::new(), Vec::new());
    for rate in LADDER {
        calib.push(host::calib_spin_ms());
        let mut fleet = Fleet::start(hw, w.scale, w.apps, &mut spans);
        if pings.is_empty() {
            pings = fleet.pings(TAIL_SAMPLES, share(seconds, 0.05), &mut spans);
        }
        steps.push(fleet.open_loop(seed, rate, share(seconds, 0.12), GRACE, &mut spans));
        spawn_ms.append(&mut fleet.spawn_ms);
        submit_us.append(&mut fleet.submit_us);
        stats_us.append(&mut fleet.stats_us);
        ends.push(fold_fleet_end(fleet.stop(&mut spans), false, &mut tally));
    }

    for (name, v) in values {
        m.set(name, v);
    }
    m.set_summary(
        "serve.ping_rtt_us_p50",
        "serve.ping_rtt_us_tail",
        &Summary::of(&pings),
    );
    m.set_summary(
        "serve.submit_rtt_us_p50",
        "serve.submit_rtt_us_tail",
        &Summary::of(&submit_us),
    );
    m.set_detail("serve.stats_rtt_us_p50", &Summary::of(&stats_us));
    m.set_detail("serve.spawn_ms_p50", &Summary::of(&spawn_ms));
    let drains = concat(&ends, |e| &e.drain_ms);
    m.set_detail("serve.drain_ms_p50", &Summary::of(&drains));
    let late = concat(&steps, |s| &s.gen_late_ms);
    m.set("serve.gen_late_ms_tail", Summary::of(&late).tail);
    let gaps = concat(&steps, |s| &s.observe_gap_ms);
    m.set_detail("serve.observe_gap_ms_p50", &Summary::of(&gaps));
    let mut sustained = 0.0;
    for step in &steps {
        let r = step.rate as u32;
        m.set_summary(
            format!("serve.frame_ms_p50.r{r}"),
            format!("serve.frame_ms_tail.r{r}"),
            &step.latency(),
        );
        m.set(
            format!("serve.failed_share.r{r}"),
            step.counts.failed_share(),
        );
        if step.sustained() {
            sustained = step.rate;
        }
        extras.push((
            format!("serve.offered.r{r}"),
            step.counts.offered as f64,
            "count",
        ));
        extras.push((
            format!("serve.unsent.r{r}"),
            step.counts.unsent as f64,
            "count",
        ));
    }
    m.set("serve.sustained_fps", sustained);
    let completed: f64 = ends.iter().map(|e| e.counts.completed as f64).sum();
    // A graph that served no frame reports no latency.
    let mut a2r = concat(&ends, |e| &e.accept_to_retire_ms);
    a2r.retain(|&ms| ms > 0.0);
    m.set(
        "hinch.accept_to_retire_ms_mean",
        a2r.iter().sum::<f64>() / a2r.len().max(1) as f64,
    );
    let n_ends = ends.len().max(1) as f64;
    m.set(
        "hinch.pool_busy_share",
        ends.iter().map(|e| e.pool_busy_share).sum::<f64>() / n_ends,
    );
    m.set(
        "hinch.parks_per_frame",
        ends.iter().map(|e| e.parks).sum::<f64>() / completed.max(1.0),
    );
    m.set(
        "hinch.steals_per_frame",
        ends.iter().map(|e| e.steals).sum::<f64>() / completed.max(1.0),
    );
    m.set(
        "trace.ring_dropped",
        ends.iter().map(|e| e.ring_dropped).sum(),
    );
    m.set_summary(
        "host.calib_spin_ms_p50",
        "host.calib_spin_ms_tail",
        &Summary::of(&calib),
    );

    // Where a frame's time went at the reference rate: the submit round
    // trip, the runtime's own accept → retire, and what is left for the
    // wire and the observer. The three sum to the median by construction;
    // the observer's resolution is `serve.observe_gap_ms_p50`.
    let reference = &steps[1];
    let p50 = reference.latency().p50;
    let submit_ms = m.get("serve.submit_rtt_us_p50").unwrap_or(0.0) / 1e3;
    let a2r_ms = m.get("hinch.accept_to_retire_ms_mean").unwrap_or(0.0);
    extras.push(("frame.r32.p50".into(), p50, "ms"));
    extras.push(("frame.r32.submit_rtt".into(), submit_ms, "ms"));
    extras.push(("frame.r32.accept_to_retire".into(), a2r_ms, "ms"));
    extras.push(("frame.r32.remainder".into(), p50 - submit_ms - a2r_ms, "ms"));
    for &app in w.apps {
        let ms: Vec<f64> = reference
            .frame_ms
            .iter()
            .filter(|(a, _)| *a == app)
            .map(|&(_, ms)| ms)
            .collect();
        extras.push((
            format!("serve.frame_ms_p50.r32.{}", app.id()),
            Summary::of(&ms).p50,
            "ms",
        ));
    }
    Outcome {
        metrics: m,
        extras,
        tally,
        spans,
    }
}
