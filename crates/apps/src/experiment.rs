//! One-call experiment runners for the benchmark harness and examples.
//!
//! The paper's nine measured applications are enumerated by [`App`];
//! [`run_sim`] executes one on a simulated SpaceCAKE tile with a given
//! core count, [`sequential_cycles`] measures its hand-written sequential
//! baseline on the same cache model, and [`AppConfig`] selects between the
//! paper's full-size setup and a reduced one for quick runs.
//!
//! Every build owns its outputs: [`build`] and its variants make a fresh
//! asset set whose captures only that build's runs write
//! ([`Built::outputs`]), so builds of one app can run side by side. Input
//! videos are generated once per (app family, scale) and adopted by every
//! build by `Arc` — the generation and JPEG encoding are by far the most
//! expensive host-side steps.

use crate::output::Ports;
use crate::registry::AppAssets;
use crate::{blur, jpip, pip};
use hinch::engine::{run_native, run_sim as hinch_run_sim, RunConfig};
use hinch::meter::Meter;
use hinch::report::{RunReport, SimReport};
use hinch::trace;
use parking_lot::Mutex;
use spacecake::{Machine, Solo, TileConfig};
use std::collections::HashMap;
use std::mem::{self, Discriminant};
use std::sync::Arc;

/// The nine applications of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum App {
    Pip1,
    Pip2,
    Jpip1,
    Jpip2,
    Blur3,
    Blur5,
    /// PiP-12: second picture toggled every 12 frames.
    Pip12,
    /// JPiP-12.
    Jpip12,
    /// Blur-35: kernel switched every 12 frames.
    Blur35,
}

impl App {
    /// The six static applications of Fig. 8 / Fig. 9, in paper order.
    pub const STATIC: [App; 6] = [
        App::Pip1,
        App::Pip2,
        App::Jpip1,
        App::Jpip2,
        App::Blur3,
        App::Blur5,
    ];

    /// The three reconfigurable applications of Fig. 10.
    pub const RECONFIG: [App; 3] = [App::Pip12, App::Jpip12, App::Blur35];

    /// The label used in the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            App::Pip1 => "PiP-1",
            App::Pip2 => "PiP-2",
            App::Jpip1 => "JPiP-1",
            App::Jpip2 => "JPiP-2",
            App::Blur3 => "Blur-3x3",
            App::Blur5 => "Blur-5x5",
            App::Pip12 => "PiP-12",
            App::Jpip12 => "JPiP-12",
            App::Blur35 => "Blur-35",
        }
    }

    /// Frames processed in the paper (§4: PiP and Blur process 96 frames;
    /// JPiP 24 because of limited simulation speed).
    pub fn paper_frames(&self) -> u64 {
        match self {
            App::Jpip1 | App::Jpip2 | App::Jpip12 => 24,
            _ => 96,
        }
    }

    /// All nine applications, static then reconfigurable.
    pub const ALL: [App; 9] = [
        App::Pip1,
        App::Pip2,
        App::Jpip1,
        App::Jpip2,
        App::Blur3,
        App::Blur5,
        App::Pip12,
        App::Jpip12,
        App::Blur35,
    ];

    /// Stable lower-case identifier (CLI / wire format).
    pub fn id(&self) -> &'static str {
        match self {
            App::Pip1 => "pip1",
            App::Pip2 => "pip2",
            App::Jpip1 => "jpip1",
            App::Jpip2 => "jpip2",
            App::Blur3 => "blur3",
            App::Blur5 => "blur5",
            App::Pip12 => "pip12",
            App::Jpip12 => "jpip12",
            App::Blur35 => "blur35",
        }
    }

    /// Parse an [`App::id`] string (case-insensitive).
    pub fn parse(s: &str) -> Option<App> {
        let s = s.to_ascii_lowercase();
        App::ALL.into_iter().find(|a| a.id() == s)
    }

    /// The static applications whose average the paper divides a
    /// reconfigurable run by (Fig. 10).
    pub fn static_counterparts(&self) -> &'static [App] {
        match self {
            App::Pip12 => &[App::Pip1, App::Pip2],
            App::Jpip12 => &[App::Jpip1, App::Jpip2],
            App::Blur35 => &[App::Blur3, App::Blur5],
            _ => &[],
        }
    }
}

/// Scale of an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// The paper's dimensions and slice counts.
    Paper,
    /// Reduced dimensions for tests and quick demos.
    Small,
}

/// One experiment: an app at a scale, for some number of frames.
#[derive(Debug, Clone, Copy)]
pub struct AppConfig {
    pub app: App,
    pub scale: Scale,
    pub frames: u64,
}

impl AppConfig {
    /// The paper's configuration for `app`.
    pub fn paper(app: App) -> Self {
        Self {
            app,
            scale: Scale::Paper,
            frames: app.paper_frames(),
        }
    }

    /// [`AppConfig::paper`] or [`AppConfig::small`], by `scale`.
    pub fn at(app: App, scale: Scale) -> Self {
        match scale {
            Scale::Paper => Self::paper(app),
            Scale::Small => Self::small(app),
        }
    }

    /// A fast configuration for tests/demos.
    pub fn small(app: App) -> Self {
        Self {
            app,
            scale: Scale::Small,
            frames: 8,
        }
    }

    pub fn frames(mut self, frames: u64) -> Self {
        self.frames = frames;
        self
    }
}

/// An app's family configuration at a scale: the one place an [`App`]
/// maps onto its family's builder, sequential baseline and slice count.
enum Family {
    Pip(pip::PipConfig),
    Jpip(jpip::JpipConfig),
    Blur(blur::BlurConfig),
}

impl App {
    fn family(self, scale: Scale) -> Family {
        let paper = scale == Scale::Paper;
        match self {
            App::Pip1 | App::Pip2 | App::Pip12 => {
                let pips = if self == App::Pip1 { 1 } else { 2 };
                Family::Pip(if paper {
                    pip::PipConfig::paper(pips)
                } else {
                    pip::PipConfig::small(pips)
                })
            }
            App::Jpip1 | App::Jpip2 | App::Jpip12 => {
                let pips = if self == App::Jpip1 { 1 } else { 2 };
                Family::Jpip(if paper {
                    jpip::JpipConfig::paper(pips)
                } else {
                    jpip::JpipConfig::small(pips)
                })
            }
            App::Blur3 | App::Blur5 | App::Blur35 => {
                let ksize = if self == App::Blur5 { 5 } else { 3 };
                Family::Blur(if paper {
                    blur::BlurConfig::paper(ksize)
                } else {
                    blur::BlurConfig::small(ksize)
                })
            }
        }
    }
}

/// Process-wide input cache, one asset set per (family, scale): every
/// build adopts the input videos from it, and it holds no output.
fn cached_inputs(app: App, scale: Scale) -> Arc<AppAssets> {
    type InputCache = HashMap<(Discriminant<Family>, Scale), Arc<AppAssets>>;
    static CACHE: Mutex<Option<InputCache>> = Mutex::new(None);
    let key = (mem::discriminant(&app.family(scale)), scale);
    let mut guard = CACHE.lock();
    let map = guard.get_or_insert_with(HashMap::new);
    map.entry(key).or_default().clone()
}

/// A built application, ready to run. It owns its outputs: only its own
/// runs write the capture set of its `assets`.
pub struct Built {
    pub spec: hinch::GraphSpec,
    pub assets: Arc<AppAssets>,
    pub xml: String,
    /// Name of the capture set holding the outputs.
    pub capture: &'static str,
    /// Captured plane ports (3 for PiP/JPiP, 1 for Blur).
    pub capture_ports: usize,
}

impl Built {
    /// What the runs of this build captured since it was built (or since
    /// [`AppAssets::clear_captures`]).
    pub fn outputs(&self) -> Ports {
        (0..self.capture_ports)
            .map(|p| self.assets.captured(self.capture, p))
            .collect()
    }
}

/// Build `cfg.app` on an asset set of its own: the inputs are adopted
/// (refcount-only) from the process-wide cache, the captures are fresh
/// and unshared, so any number of builds can run at the same time.
pub fn build(cfg: AppConfig) -> Built {
    build_sliced(cfg, None)
}

/// [`build`] with the data-parallel slice count overridden (`None` keeps
/// the scale's default). The adaptation controller uses this to respawn a
/// graph at a different parallelization.
pub fn build_sliced(cfg: AppConfig, slices: Option<usize>) -> Built {
    build_own(cfg, AppAssets::new(), slices, false, false)
}

/// [`build`] with tile-granular decode+IDCT fusion enabled. JPiP apps
/// only — fusion is the JPiP cache-tax fix; other families have no
/// decode/IDCT boundary to fuse.
pub fn build_fused(cfg: AppConfig) -> Built {
    build_own(cfg, AppAssets::new(), None, false, true)
}

/// [`build`] for a graph whose output nobody can read: the asset set is
/// [`AppAssets::discarding`], so the sinks copy and keep nothing
/// ([`Built::outputs`] stays empty). What a serving front-end spawns.
pub fn build_discarding(cfg: AppConfig) -> Built {
    build_own(cfg, AppAssets::discarding(), None, false, false)
}

/// [`build_sliced`] for *externally driven* reconfiguration: the
/// manager, options and event rules of a reconfig app are wired exactly
/// as usual, but the in-graph injector's cadence is parked past any real
/// run, so the only reconfigurations are events delivered from outside
/// (`Runtime::inject`). Static apps build unchanged.
pub fn build_adaptive(cfg: AppConfig, slices: Option<usize>) -> Built {
    build_own(cfg, AppAssets::new(), slices, true, false)
}

/// Build `cfg.app` against a caller-provided asset set; the caller
/// decides what the build shares with others.
pub fn build_with(cfg: AppConfig, assets: Arc<AppAssets>) -> Built {
    build_with_opts(cfg, assets, None, false, false)
}

/// Build on `assets`, a fresh set, with the cached inputs of the family.
fn build_own(
    cfg: AppConfig,
    assets: Arc<AppAssets>,
    slices: Option<usize>,
    external: bool,
    fuse: bool,
) -> Built {
    assets.with_cached_inputs(&cached_inputs(cfg.app, cfg.scale), |assets| {
        build_with_opts(cfg, assets, slices, external, fuse)
    })
}

/// Injector cadence that never fires within a real run (see
/// [`build_adaptive`]).
pub const EXTERNAL_RECONFIG_CADENCE: u64 = u64::MAX / 2;

/// How to reconfigure `app` from outside the graph: the manager queue,
/// the event kind, and the payloads that select the degraded / full
/// variant.
#[derive(Debug, Clone, Copy)]
pub struct ReconfigHandle {
    pub queue: &'static str,
    pub event: &'static str,
    /// Payload selecting the cheap variant (ignored by toggle rules).
    pub degraded_payload: i64,
    /// Payload selecting the expensive variant.
    pub full_payload: i64,
    /// `true` if the manager rule *toggles* option state (send one event
    /// per change of mind), `false` if the payload *sets* it
    /// (idempotent).
    pub toggles: bool,
}

/// The external-reconfiguration handle of `app`, `None` for static apps.
/// Reconfig graphs spawn in their degraded variant (second picture
/// disabled / 3×3 kernel).
pub fn reconfig_handle(app: App) -> Option<ReconfigHandle> {
    match app {
        App::Pip12 | App::Jpip12 => Some(ReconfigHandle {
            queue: "mq",
            event: "flip",
            degraded_payload: 0,
            full_payload: 0,
            toggles: true,
        }),
        App::Blur35 => Some(ReconfigHandle {
            queue: "mq",
            event: "switch",
            degraded_payload: 3,
            full_payload: 5,
            toggles: false,
        }),
        _ => None,
    }
}

/// The scale's default data-parallel slice count for `app`'s family
/// (the reference point for slice-resizing candidates).
pub fn default_slices(app: App, scale: Scale) -> usize {
    match app.family(scale) {
        Family::Pip(c) => c.slices,
        Family::Jpip(c) => c.slices,
        Family::Blur(c) => c.slices,
    }
}

fn build_with_opts(
    cfg: AppConfig,
    assets: Arc<AppAssets>,
    slices: Option<usize>,
    external: bool,
    fuse: bool,
) -> Built {
    let family = cfg.app.family(cfg.scale);
    assert!(
        !fuse || matches!(family, Family::Jpip(_)),
        "fusion applies to JPiP apps only"
    );
    // The paper's 12-frame stimulus, or parked for externally driven
    // graphs.
    let cadence = App::RECONFIG.contains(&cfg.app).then_some(if external {
        EXTERNAL_RECONFIG_CADENCE
    } else {
        12
    });
    let (spec, assets, xml, capture_ports) = match family {
        Family::Pip(mut c) => {
            c.reconfig_every = cadence;
            c.slices = slices.unwrap_or(c.slices);
            let app = pip::build_on(&c, assets).expect("PiP compiles");
            (app.elaborated.spec, app.assets, app.xml, 3)
        }
        Family::Jpip(mut c) => {
            c.reconfig_every = cadence;
            c.slices = slices.unwrap_or(c.slices);
            c.fuse = fuse;
            let app = jpip::build_on(&c, assets).expect("JPiP compiles");
            (app.elaborated.spec, app.assets, app.xml, 3)
        }
        Family::Blur(mut c) => {
            c.reconfig_every = cadence;
            c.slices = slices.unwrap_or(c.slices);
            let app = blur::build_on(&c, assets).expect("Blur compiles");
            (app.elaborated.spec, app.assets, app.xml, 1)
        }
    };
    Built {
        spec,
        assets,
        xml,
        capture: "out",
        capture_ports,
    }
}

/// Run `cfg.app` on a simulated tile with `cores` cores (the paper's
/// measurement mode). Pipeline depth 5, as in §4.
pub fn run_sim(cfg: AppConfig, cores: usize) -> SimReport {
    sim_built(&build(cfg), cfg.frames, cores)
}

/// [`run_sim`] of a build: `frames` frames of `built` on `cores`
/// simulated cores, pipeline depth 5 ([`build_fused`] gives the
/// post-fusion Fig. 8 measurement).
pub fn sim_built(built: &Built, frames: u64, cores: usize) -> SimReport {
    let mut machine = Machine::new(TileConfig::with_cores(cores));
    let run_cfg = RunConfig::new(frames).pipeline_depth(5);
    hinch_run_sim(&built.spec, &run_cfg, &mut machine).expect("sim run")
}

/// Like [`run_sim`], but with a flight recorder attached: returns the
/// report plus the [`trace::Recorder`] holding the run's trace (virtual
/// cycles). Feed it to `hinch::trace::export` for Chrome-trace JSON, CSV
/// or a per-core utilization summary.
pub fn run_sim_traced(cfg: AppConfig, cores: usize) -> (SimReport, trace::Recorder) {
    let built = build(cfg);
    let mut machine = Machine::new(TileConfig::with_cores(cores));
    let recorder = trace::Recorder::new(trace::Clock::VirtualCycles);
    let run_cfg = RunConfig::new(cfg.frames)
        .pipeline_depth(5)
        .trace(recorder.sink());
    let report = hinch_run_sim(&built.spec, &run_cfg, &mut machine).expect("sim run");
    (report, recorder)
}

/// Run `cfg.app` on `workers` native threads (wall-clock mode) with a
/// flight recorder attached (wall-clock nanoseconds).
pub fn run_threads_traced(cfg: AppConfig, workers: usize) -> (RunReport, trace::Recorder) {
    let built = build(cfg);
    let recorder = trace::Recorder::new(trace::Clock::WallNanos);
    let run_cfg = RunConfig::new(cfg.frames)
        .pipeline_depth(5)
        .workers(workers)
        .trace(recorder.sink());
    let report = run_native(&built.spec, &run_cfg).expect("native run");
    (report, recorder)
}

/// Cycles of the hand-written sequential baseline of `cfg.app` on the
/// same (single-core) cache model. For Blur-35 the baseline switches
/// kernels on the paper's schedule; PiP-12/JPiP-12 have no dedicated
/// baseline (Fig. 10 normalizes against the static apps instead).
pub fn sequential_cycles(cfg: AppConfig) -> u64 {
    let built = build(cfg); // ensures the inputs exist
    let mut solo = Solo::new();
    let (_, cycles) = solo.run(|meter| run_baseline(cfg, &built.assets, meter));
    cycles
}

/// Execute the sequential baseline of `cfg.app` against `assets`,
/// charging `meter` (exposed for the benchmark harness).
pub fn run_baseline(cfg: AppConfig, assets: &Arc<AppAssets>, meter: &mut dyn Meter) {
    match cfg.app.family(cfg.scale) {
        Family::Pip(c) => {
            pip::sequential(&c, assets, cfg.frames, meter);
        }
        Family::Jpip(c) => {
            jpip::sequential(&c, assets, cfg.frames, meter);
        }
        Family::Blur(c) => {
            let ksize = |i| match cfg.app {
                App::Blur35 => blur::baseline_ksize(i, 12, c.ksize),
                _ => c.ksize,
            };
            blur::sequential(&c, assets, cfg.frames, ksize, meter);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_and_frames() {
        assert_eq!(App::Pip1.label(), "PiP-1");
        assert_eq!(App::Jpip2.paper_frames(), 24);
        assert_eq!(App::Blur3.paper_frames(), 96);
        assert_eq!(App::Pip12.static_counterparts(), &[App::Pip1, App::Pip2]);
    }

    #[test]
    fn sim_runs_every_small_app() {
        for app in App::STATIC {
            let cfg = AppConfig::small(app).frames(4);
            let r = run_sim(cfg, 2);
            assert_eq!(r.iterations, 4, "{}", app.label());
            assert!(r.cycles > 0);
        }
    }

    #[test]
    fn reconfig_apps_reconfigure_in_sim() {
        for app in App::RECONFIG {
            // reconfig every 12 frames; run 30 to see at least 2
            let cfg = AppConfig::small(app).frames(30);
            let r = run_sim(cfg, 2);
            assert_eq!(r.iterations, 30, "{}", app.label());
            assert!(
                r.reconfigs >= 1,
                "{} reconfigs = {}",
                app.label(),
                r.reconfigs
            );
        }
    }

    #[test]
    fn baseline_is_cheaper_or_similar_to_xspcl_at_one_core() {
        for app in [App::Pip1, App::Blur3] {
            let cfg = AppConfig::small(app).frames(6);
            let seq = sequential_cycles(cfg);
            let xspcl = run_sim(cfg, 1).cycles;
            assert!(seq > 0);
            // XSPCL carries the RTS overhead; it should not be faster by
            // much, nor absurdly slower.
            assert!(
                (xspcl as f64) > (seq as f64) * 0.8,
                "{}: xspcl {} vs seq {}",
                app.label(),
                xspcl,
                seq
            );
            assert!(
                (xspcl as f64) < (seq as f64) * 2.5,
                "{}: xspcl {} vs seq {}",
                app.label(),
                xspcl,
                seq
            );
        }
    }

    #[test]
    fn traced_sim_records_a_well_formed_trace() {
        let cfg = AppConfig::small(App::Pip1).frames(4);
        let (r, rec) = run_sim_traced(cfg, 2);
        assert_eq!(r.iterations, 4);
        assert!(!rec.is_empty());
        let events = rec.events();
        trace::check_invariants(&events).expect("trace invariants hold");
        let spans = events
            .iter()
            .filter(|e| matches!(e, trace::TraceEvent::JobSpan { .. }))
            .count();
        assert_eq!(spans as u64, r.jobs_executed);
    }

    #[test]
    fn more_cores_do_not_slow_down_much() {
        let cfg = AppConfig::small(App::Pip1).frames(6);
        let one = run_sim(cfg, 1).cycles;
        let four = run_sim(cfg, 4).cycles;
        assert!(four < one, "4 cores ({four}) should beat 1 core ({one})");
    }
}
