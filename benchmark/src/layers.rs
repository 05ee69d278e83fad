//! Per-layer probes: each measures one crate from outside, around calls
//! into its public functions or from the reports those calls return.

use crate::host;
use crate::inproc::{Prepared, Runs, Side};
use crate::spans::Spans;
use crate::stats::{median, Summary};
use apps::experiment::{run_sim, App, AppConfig, Scale};
use media::jpeg::codec::{decode_scan, encode_plane, idct_block_rows};
use media::jpeg::quant::Channel;
use media::video::{RawVideo, VideoSpec};
use std::collections::BTreeMap;
use std::time::Instant;

/// Named values of one application; a workload with several applications
/// reports the unweighted mean of each (its frames are drawn uniformly).
pub type Values = BTreeMap<String, f64>;

fn values<const N: usize>(pairs: [(&str, f64); N]) -> Values {
    pairs.into_iter().map(|(n, v)| (n.to_string(), v)).collect()
}

pub fn mean_over_apps(per_app: &[Values]) -> Values {
    let mut out = Values::new();
    for values in per_app {
        for (name, &v) in values {
            *out.entry(name.clone()).or_insert(0.0) += v / per_app.len() as f64;
        }
    }
    out
}

/// Frames of each simulator run: enough for the pipeline to fill, few
/// enough that JPiP at paper scale takes well under a second.
const SIM_FRAMES: u64 = 8;

/// The SpaceCAKE model's prediction for `app` at one core and at hw
/// cores. Must run before anything else in the process allocates
/// simulated addresses (`hinch::meter::sim_alloc` is process-global and
/// the input generators call it): then the counts repeat exactly.
pub fn simulate(app: App, scale: Scale) -> Values {
    let cfg = AppConfig {
        app,
        scale,
        frames: SIM_FRAMES,
    };
    let t = Instant::now();
    let one = run_sim(cfg, 1);
    let many = run_sim(cfg, host::hw_threads());
    let wall_ms = t.elapsed().as_secs_f64() * 1e3;
    let frames = SIM_FRAMES as f64;
    values([
        ("spacecake.cycles_per_frame_1c", one.cycles as f64 / frames),
        (
            "spacecake.speedup_hw",
            one.cycles as f64 / many.cycles as f64,
        ),
        (
            "spacecake.l1_miss_per_frame",
            one.stats.l1_misses as f64 / frames,
        ),
        ("spacecake.sim_wall_ms_per_frame", wall_ms / (2.0 * frames)),
    ])
}

/// Compile and analyze the application's XSPCL document 20 times each;
/// median milliseconds.
pub fn compile(prepared: &Prepared) -> Values {
    const ROUNDS: usize = 20;
    let xml = &prepared.built.xml;
    let registry = apps::registry::registry(&prepared.built.assets);
    let time = |f: &dyn Fn()| {
        let ms: Vec<f64> = (0..ROUNDS)
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        median(&ms)
    };
    values([
        (
            "xspcl.compile_ms",
            time(&|| {
                std::hint::black_box(xspcl::compile(xml, &registry).expect("the app compiles"));
            }),
        ),
        (
            "analyze.check_ms",
            time(&|| {
                let diags = analyze::check_source(xml, &analyze::AnalyzeOptions::default());
                std::hint::black_box(diags.expect("the app parses"));
            }),
        ),
    ])
}

/// Time `f` over `units` units of work until 30 ms have passed (at least
/// three calls); median nanoseconds per unit.
fn ns_per_unit(spans: &mut Spans, name: &str, units: u64, mut f: impl FnMut()) -> f64 {
    let span = spans.enter(format!("kernel/{name}"), None, 0);
    let start = Instant::now();
    let mut ns = Vec::new();
    while ns.len() < 3 || start.elapsed().as_millis() < 30 {
        let t = Instant::now();
        f();
        ns.push(t.elapsed().as_secs_f64() * 1e9 / units as f64);
    }
    spans.exit(span);
    median(&ns)
}

/// The media kernels on one plane of `w`×`h` generated from `seed`,
/// single thread.
pub fn kernels(w: usize, h: usize, seed: u64, spans: &mut Spans) -> Values {
    let video = RawVideo::generate(VideoSpec::new(w, h, 1, seed));
    let src = video.field(0, 0);
    let px = (w * h) as u64;
    let mut out = Values::new();

    const FACTOR: usize = 4;
    let (pw, ph) = (w / FACTOR, h / FACTOR);
    let mut small = vec![0u8; pw * ph];
    out.insert(
        "media.downscale_ns_per_px".into(),
        ns_per_unit(spans, "downscale", px, || {
            media::scale::downscale_rows(src, w, h, FACTOR, 0..ph, &mut small);
        }),
    );
    let mut blended = vec![0u8; w * h];
    out.insert(
        "media.blend_ns_per_px".into(),
        ns_per_unit(spans, "blend", px, || {
            media::blend::blend_rows(src, w, &small, pw, ph, 2, 2, 0..h, &mut blended);
        }),
    );
    let mut blurred = vec![0u8; w * h];
    out.insert(
        "media.blur_h_ns_per_px".into(),
        ns_per_unit(spans, "blur_h", px, || {
            media::blur::blur_h_rows(src, w, h, 3, 0..h, &mut blurred);
        }),
    );
    out.insert(
        "media.blur_v_ns_per_px".into(),
        ns_per_unit(spans, "blur_v", px, || {
            media::blur::blur_v_rows(src, w, h, 3, 0..h, &mut blended);
        }),
    );

    // JPEG works on whole 8x8 blocks.
    let (jw, jh) = (w / 8 * 8, h / 8 * 8);
    let plane: Vec<u8> = (0..jh)
        .flat_map(|y| &src[y * w..y * w + jw])
        .copied()
        .collect();
    const QUALITY: u8 = 75;
    let scan = encode_plane(&plane, jw, jh, Channel::Luma, QUALITY);
    let blocks = ((jw / 8) * (jh / 8)) as u64;
    let mut coefs = vec![0i16; blocks as usize * 64];
    out.insert(
        "media.huff_ns_per_block".into(),
        ns_per_unit(spans, "huff", blocks, || {
            decode_scan(&scan, jw, jh, Channel::Luma, QUALITY, &mut coefs);
        }),
    );
    let mut pixels = vec![0u8; jw * jh];
    out.insert(
        "media.idct_ns_per_block".into(),
        ns_per_unit(spans, "idct", blocks, || {
            idct_block_rows(&coefs, jw / 8, &mut pixels);
        }),
    );
    std::hint::black_box((&blended, &blurred, &pixels));
    out
}

/// The component classes `media.busy_share.*` is split into.
pub const CLASSES: [&str; 8] = [
    "source",
    "decode",
    "idct",
    "downscale",
    "blend",
    "blur_h",
    "blur_v",
    "sink",
];

/// Class of a graph node, from the component name its label ends in.
fn class_of(label: &str) -> Option<&'static str> {
    let name = label.rsplit('/').next().unwrap_or(label);
    let name = name.split(['#', '.']).next().unwrap_or(name);
    let is_plane_source = name.len() > 4
        && name[..name.len() - 1].ends_with("_in")
        && name.ends_with(char::is_numeric);
    Some(match name {
        "input" => "source",
        _ if is_plane_source => "source",
        "decode" => "decode",
        "idct" => "idct",
        "scaler" => "downscale",
        "blender" => "blend",
        "horizontal" => "blur_h",
        "vertical" => "blur_v",
        "output" => "sink",
        _ => return None,
    })
}

/// Scheduler and component numbers of one application, from the reports
/// of its alternating runs and the events of its last traced run. Also
/// returns the mean length of the traced run's quiesce windows in
/// microseconds, when the graph reconfigured.
pub fn from_runs(runs: &Runs) -> (Values, Option<f64>) {
    let mut out = Values::new();
    let hw = host::hw_threads() as f64;
    let frames = runs.frames as f64;

    // One worker: per-node busy time is component time, the rest of the
    // run is scheduler glue.
    let mut busy_s = 0.0;
    let mut glue_s = 0.0;
    let mut jobs = 0.0;
    let mut by_class: BTreeMap<&str, f64> = BTreeMap::new();
    for s in runs.side(Side::OneWorker) {
        let run_busy: f64 = s
            .report
            .per_node
            .values()
            .map(|(_, d)| d.as_secs_f64())
            .sum();
        busy_s += run_busy;
        glue_s += s.elapsed_s - run_busy;
        jobs += s.report.jobs_executed as f64;
        for (label, (_, d)) in &s.report.per_node {
            if let Some(class) = class_of(label) {
                *by_class.entry(class).or_insert(0.0) += d.as_secs_f64();
            }
        }
    }
    let n_one = runs.side(Side::OneWorker).len().max(1) as f64;
    out.insert(
        "media.busy_ms_per_frame".into(),
        1e3 * busy_s / (frames * n_one),
    );
    for class in CLASSES {
        let share = by_class.get(class).copied().unwrap_or(0.0) / busy_s.max(f64::MIN_POSITIVE);
        out.insert(format!("media.busy_share.{class}"), share);
    }
    out.insert("hinch.jobs_per_frame".into(), jobs / (frames * n_one));
    out.insert("hinch.glue_us_per_job".into(), 1e6 * glue_s / jobs.max(1.0));

    let idle_s: f64 = runs
        .side(Side::Hw)
        .iter()
        .flat_map(|s| s.report.core_idle.iter().map(|d| d.as_secs_f64()))
        .sum();
    let elapsed_hw: f64 = runs.side(Side::Hw).iter().map(|s| s.elapsed_s).sum();
    out.insert(
        "hinch.worker_idle_share".into(),
        idle_s / (hw * elapsed_hw).max(f64::MIN_POSITIVE),
    );
    let (fps_one, fps_hw) = (runs.fps(Side::OneWorker).p50, runs.fps(Side::Hw).p50);
    out.insert("hinch.frames_per_s_1w".into(), fps_one);
    out.insert("hinch.frames_per_s_hw".into(), fps_hw);
    out.insert("hinch.speedup_hw".into(), fps_hw / fps_one);
    out.insert(
        "hinch.cpu_ratio_hw".into(),
        runs.cpu_ms_per_frame(Side::Hw) / runs.cpu_ms_per_frame(Side::OneWorker),
    );
    out.insert(
        "trace.recorder_overhead_pct".into(),
        100.0 * (1.0 - runs.fps(Side::HwTraced).p50 / fps_hw),
    );

    // The last traced run, through the offline analyzer.
    out.insert(
        "trace.events_per_frame".into(),
        runs.events.len() as f64 / frames,
    );
    let t = Instant::now();
    let report = insight::analyze(&runs.events, trace::Clock::WallNanos);
    out.insert(
        "insight.analyze_ms_per_kevent".into(),
        t.elapsed().as_secs_f64() * 1e3 / (runs.events.len() as f64 / 1e3).max(f64::MIN_POSITIVE),
    );
    let core_time = (report.cores.len() as f64 * report.makespan as f64).max(1.0);
    for cause in trace::StallCause::ALL {
        out.insert(
            format!("hinch.stall_share.{}", cause.as_str()),
            report.stall_totals[cause.index()] as f64 / core_time,
        );
    }
    let path = &report.critical_path;
    out.insert(
        "hinch.critical_wait_share".into(),
        path.wait as f64 / ((path.busy + path.wait) as f64).max(1.0),
    );
    out.insert(
        "hinch.reconfigs_per_kframe".into(),
        1e3 * report.reconfigs as f64 / (report.iterations as f64).max(1.0),
    );
    out.insert(
        "hinch.admit_to_retire_ms_p50".into(),
        admit_to_retire(&runs.events).p50,
    );
    let windows = &report.quiesce_windows;
    let quiesce_us = (!windows.is_empty()).then(|| {
        windows.iter().map(|(a, b)| b - a).sum::<u64>() as f64 / 1e3 / windows.len() as f64
    });
    (out, quiesce_us)
}

/// Admission → retirement of every iteration in a traced run, ms.
fn admit_to_retire(events: &[trace::TraceEvent]) -> Summary {
    let mut admitted: BTreeMap<u64, u64> = BTreeMap::new();
    let mut ms = Vec::new();
    for e in events {
        match e {
            trace::TraceEvent::IterationAdmitted { iter, at } => {
                admitted.insert(*iter, *at);
            }
            trace::TraceEvent::IterationRetired { iter, at } => {
                if let Some(start) = admitted.remove(iter) {
                    ms.push(at.saturating_sub(start) as f64 / 1e6);
                }
            }
            _ => {}
        }
    }
    Summary::of(&ms)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_labels_map_to_component_classes() {
        for (label, class) in [
            ("main/bg_in0", Some("source")),
            ("main/p2_in2", Some("source")),
            ("main/input", Some("source")),
            ("main/jpeg_in#1/input", Some("source")),
            ("main/jpeg_in#2/decode", Some("decode")),
            ("main/sliced_idct#3/idct#44", Some("idct")),
            ("main/sliced_downscale#1/scaler#0", Some("downscale")),
            ("main/sliced_blend#12/blender#10", Some("blend")),
            ("main/horizontal.b0#8", Some("blur_h")),
            ("main/vertical.b1#0", Some("blur_v")),
            ("main/output", Some("sink")),
            ("main/inj", None),
            ("main/pass0", None),
        ] {
            assert_eq!(class_of(label), class, "{label}");
        }
    }

    #[test]
    fn kernels_report_every_media_metric() {
        let mut spans = Spans::new(true);
        let v = kernels(64, 48, 1, &mut spans);
        assert_eq!(v.len(), 6);
        assert!(v.values().all(|&ns| ns > 0.0), "{v:?}");
        assert_eq!(spans.totals()["kernel/idct"].count, 1);
    }

    #[test]
    fn mean_over_apps_is_unweighted() {
        let a = values([("x", 1.0), ("y", 10.0)]);
        let b = values([("x", 3.0), ("y", 30.0)]);
        assert_eq!(mean_over_apps(&[a, b]), values([("x", 2.0), ("y", 20.0)]));
    }
}
