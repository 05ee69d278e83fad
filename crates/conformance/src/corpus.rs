//! The application corpus: every shipped app spec behind one uniform
//! build–run–collect interface.
//!
//! Thirteen applications ship with the repository: the paper's six
//! static apps (PiP-1/2, JPiP-1/2, Blur-3x3/5x5), its three
//! reconfigurable variants (PiP-12, JPiP-12, Blur-35), the two
//! extensions (Mosaic, Telescope), and the tile-granular *fused*
//! variants of the JPiP apps (decode+IDCT merged per color field — same
//! pixels, different graph). The harness reduces each run to the same
//! shape —
//! `ports[p][frame] -> bytes` — whatever the app actually produces:
//! video planes for the media apps, the bit-exact integrated spectrum
//! for the telescope.
//!
//! Every run builds its app anew, and every build owns its outputs: the
//! expensive input videos and signals are cached process-wide and
//! adopted by `Arc`, the captures and the spectrum accumulator are the
//! build's own. Runs are therefore independent of each other, concurrent
//! ones included; the harness is about schedule diversity *inside* a
//! run.

use crate::fingerprint::{digest_ports, spectrum_frame, Digest};
use apps::experiment::{self, App, AppConfig, Built};
use apps::{mosaic, telescope, AppAssets};
use hinch::engine::{
    run_native as hinch_run_native, run_reference as hinch_run_reference, run_sim as hinch_run_sim,
    RunConfig,
};
use hinch::{GraphSpec, HinchError, RunReport, SchedPolicy, SimReport};
use spacecake::Machine;
use std::sync::{Arc, LazyLock};

pub use apps::output::Ports;

/// One of the thirteen shipped applications.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConfApp {
    Experiment(App),
    /// A static JPiP app with tile-granular decode+IDCT fusion. Same
    /// output pixels as the unfused graph by construction — which makes
    /// it a pure differential subject: every engine/schedule cell must
    /// stay fingerprint-equal to its own reference run, and that run is
    /// byte-identical to the unfused app's (checked in `apps::jpip`).
    Fused(FusedJpip),
    Mosaic,
    Telescope,
}

/// The static JPiP apps, the ones decode+IDCT fusion applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FusedJpip {
    Jpip1,
    Jpip2,
}

impl FusedJpip {
    /// The unfused app.
    pub fn app(self) -> App {
        match self {
            FusedJpip::Jpip1 => App::Jpip1,
            FusedJpip::Jpip2 => App::Jpip2,
        }
    }
}

/// Every shipped application, in presentation order.
pub const ALL: [ConfApp; 13] = [
    ConfApp::Experiment(App::Pip1),
    ConfApp::Experiment(App::Pip2),
    ConfApp::Experiment(App::Jpip1),
    ConfApp::Experiment(App::Jpip2),
    ConfApp::Experiment(App::Blur3),
    ConfApp::Experiment(App::Blur5),
    ConfApp::Experiment(App::Pip12),
    ConfApp::Experiment(App::Jpip12),
    ConfApp::Experiment(App::Blur35),
    ConfApp::Fused(FusedJpip::Jpip1),
    ConfApp::Fused(FusedJpip::Jpip2),
    ConfApp::Mosaic,
    ConfApp::Telescope,
];

impl ConfApp {
    /// Stable machine-readable identifier (CLI `--apps`, JSON key).
    pub fn id(self) -> &'static str {
        match self {
            ConfApp::Experiment(a) => a.id(),
            ConfApp::Fused(FusedJpip::Jpip1) => "jpip1-fused",
            ConfApp::Fused(FusedJpip::Jpip2) => "jpip2-fused",
            ConfApp::Mosaic => "mosaic",
            ConfApp::Telescope => "telescope",
        }
    }

    /// Human label (paper figure names where applicable).
    pub fn label(self) -> &'static str {
        match self {
            ConfApp::Experiment(a) => a.label(),
            ConfApp::Fused(FusedJpip::Jpip1) => "JPiP-1 (fused)",
            ConfApp::Fused(FusedJpip::Jpip2) => "JPiP-2 (fused)",
            ConfApp::Mosaic => "Mosaic",
            ConfApp::Telescope => "Telescope",
        }
    }

    /// Inverse of [`ConfApp::id`].
    pub fn parse(s: &str) -> Option<ConfApp> {
        ALL.into_iter().find(|a| a.id() == s)
    }

    /// Does this application reconfigure itself mid-run? Reconfigurable
    /// apps are schedule-independent only at pipeline depth 1; at deeper
    /// pipelines the *toggle boundary* legitimately depends on when the
    /// manager entry polls the event (see `matrix`).
    pub fn is_reconfig(self) -> bool {
        matches!(
            self,
            ConfApp::Experiment(App::Pip12 | App::Jpip12 | App::Blur35)
        )
    }

    /// The static applications a reconfigurable run must decompose into:
    /// each output frame of PiP-12 is byte-identical to that frame of
    /// either PiP-1 or PiP-2, and so on (empty for static apps).
    pub fn counterparts(self) -> Vec<ConfApp> {
        match self {
            ConfApp::Experiment(a) => a
                .static_counterparts()
                .iter()
                .map(|&c| ConfApp::Experiment(c))
                .collect(),
            _ => Vec::new(),
        }
    }
}

/// A run's report plus its collected output.
pub struct RunOutcome<R> {
    pub report: R,
    pub output: Ports,
}

impl<R> RunOutcome<R> {
    pub fn digest(&self) -> Digest {
        digest_ports(&self.output)
    }
}

/// A corpus app built for its runs, with its own outputs.
enum Instance {
    /// Frames of capture set `"out"`.
    Frames(Built),
    /// The telescope's integrated spectrum, one bit-exact frame.
    Spectrum(telescope::TelescopeApp),
}

impl Instance {
    fn spec(&self) -> &GraphSpec {
        match self {
            Instance::Frames(built) => &built.spec,
            Instance::Spectrum(app) => &app.elaborated.spec,
        }
    }

    fn collect(&self) -> Ports {
        match self {
            Instance::Frames(built) => built.outputs(),
            Instance::Spectrum(app) => {
                vec![vec![spectrum_frame(&telescope::mean_spectrum(app))]]
            }
        }
    }

    /// Forget what a run left.
    fn clear(&self) {
        match self {
            Instance::Frames(built) => built.assets.clear_captures(),
            Instance::Spectrum(app) => app.assets.clear_captures(),
        }
    }
}

/// Build `app` on an asset set of its own.
fn build(app: ConfApp, frames: u64) -> Instance {
    // The inputs of the apps built here, cached like `apps::experiment`'s.
    static MOSAIC_INPUTS: LazyLock<Arc<AppAssets>> = LazyLock::new(AppAssets::new);
    static TELESCOPE_INPUTS: LazyLock<Arc<AppAssets>> = LazyLock::new(AppAssets::new);
    let cfg = |a: App| AppConfig::small(a).frames(frames);
    match app {
        ConfApp::Experiment(a) => Instance::Frames(experiment::build(cfg(a))),
        ConfApp::Fused(j) => Instance::Frames(experiment::build_fused(cfg(j.app()))),
        ConfApp::Mosaic => {
            let app = AppAssets::new()
                .with_cached_inputs(&MOSAIC_INPUTS, |assets| {
                    mosaic::build_on(&mosaic::MosaicConfig::small(4), assets)
                })
                .expect("mosaic compiles");
            Instance::Frames(Built {
                spec: app.elaborated.spec,
                assets: app.assets,
                xml: app.xml,
                capture: "out",
                capture_ports: 3,
            })
        }
        ConfApp::Telescope => {
            let app = AppAssets::new()
                .with_cached_inputs(&TELESCOPE_INPUTS, |assets| {
                    telescope::build_on(&telescope::TelescopeConfig::small(), assets)
                })
                .expect("telescope compiles");
            Instance::Spectrum(app)
        }
    }
}

/// Run `app` on the oracle: the simulator's loop on a free one-core
/// machine, one iteration in flight, in program order.
pub fn run_reference(app: ConfApp, frames: u64) -> Result<RunOutcome<SimReport>, HinchError> {
    let mut runs = run_reference_runs(app, frames, 1)?;
    Ok(runs.pop().expect("one run"))
}

/// [`run_reference`] `runs` times over one build of `app`, each run on
/// cleared captures. Every run after the first instantiates a spec whose
/// streams have run before (`hinch::stream`, "The ring outlives the
/// instance").
pub fn run_reference_runs(
    app: ConfApp,
    frames: u64,
    runs: usize,
) -> Result<Vec<RunOutcome<SimReport>>, HinchError> {
    let instance = build(app, frames);
    (0..runs)
        .map(|_| {
            instance.clear();
            let report = hinch_run_reference(instance.spec(), &RunConfig::new(frames))?;
            Ok(RunOutcome {
                report,
                output: instance.collect(),
            })
        })
        .collect()
}

/// Run `app` on the simulation engine: `cores` SpaceCAKE cores, the
/// given pipeline depth and schedule policy.
pub fn run_sim(
    app: ConfApp,
    frames: u64,
    cores: usize,
    depth: usize,
    policy: SchedPolicy,
) -> Result<RunOutcome<SimReport>, HinchError> {
    let instance = build(app, frames);
    let mut machine = Machine::with_cores(cores);
    let cfg = RunConfig::new(frames).pipeline_depth(depth).sched(policy);
    let report = hinch_run_sim(instance.spec(), &cfg, &mut machine)?;
    Ok(RunOutcome {
        report,
        output: instance.collect(),
    })
}

/// Like [`run_sim`], with a flight recorder attached; returns the trace
/// events for invariant cross-checks.
pub fn run_sim_traced(
    app: ConfApp,
    frames: u64,
    cores: usize,
    depth: usize,
    policy: SchedPolicy,
) -> Result<(RunOutcome<SimReport>, Vec<trace::TraceEvent>), HinchError> {
    let instance = build(app, frames);
    let mut machine = Machine::with_cores(cores);
    let recorder = trace::Recorder::new(trace::Clock::VirtualCycles);
    let cfg = RunConfig::new(frames)
        .pipeline_depth(depth)
        .sched(policy)
        .trace(recorder.sink());
    let report = hinch_run_sim(instance.spec(), &cfg, &mut machine)?;
    Ok((
        RunOutcome {
            report,
            output: instance.collect(),
        },
        recorder.events(),
    ))
}

/// Run `app` on the native engine with real worker threads.
pub fn run_native(
    app: ConfApp,
    frames: u64,
    workers: usize,
    depth: usize,
    policy: SchedPolicy,
) -> Result<RunOutcome<RunReport>, HinchError> {
    let instance = build(app, frames);
    let cfg = RunConfig::new(frames)
        .pipeline_depth(depth)
        .workers(workers)
        .sched(policy);
    let report = hinch_run_native(instance.spec(), &cfg)?;
    Ok(RunOutcome {
        report,
        output: instance.collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_round_trip_and_are_unique() {
        for app in ALL {
            assert_eq!(ConfApp::parse(app.id()), Some(app), "{}", app.label());
        }
        let mut ids: Vec<_> = ALL.iter().map(|a| a.id()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), ALL.len());
        assert_eq!(ConfApp::parse("nope"), None);
    }

    #[test]
    fn reconfig_apps_have_two_counterparts() {
        for app in ALL {
            let n = app.counterparts().len();
            assert_eq!(n, if app.is_reconfig() { 2 } else { 0 }, "{}", app.id());
        }
    }

    #[test]
    fn reference_and_sim_agree_on_a_static_app() {
        let frames = 4;
        let oracle = run_reference(ConfApp::Experiment(App::Blur3), frames).unwrap();
        assert_eq!(oracle.report.iterations, frames);
        let sim = run_sim(
            ConfApp::Experiment(App::Blur3),
            frames,
            2,
            2,
            SchedPolicy::Lifo,
        )
        .unwrap();
        assert_eq!(sim.report.iterations, frames);
        assert_eq!(oracle.digest(), sim.digest());
        assert_eq!(oracle.report.jobs_executed, sim.report.jobs_executed);
    }

    /// Two builds of one app, run at the same time, each capture exactly
    /// their own run: neither sees the other's frames.
    #[test]
    fn concurrent_builds_of_one_app_own_their_outputs() {
        let frames = 6;
        let want = run_reference(ConfApp::Experiment(App::Pip1), frames)
            .unwrap()
            .digest();
        let start = std::sync::Barrier::new(2);
        let digests: Vec<Digest> = std::thread::scope(|s| {
            let runs: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        let built = experiment::build(AppConfig::small(App::Pip1));
                        start.wait();
                        let cfg = RunConfig::new(frames).workers(2);
                        hinch_run_native(&built.spec, &cfg).unwrap();
                        digest_ports(&built.outputs())
                    })
                })
                .collect();
            runs.into_iter().map(|r| r.join().unwrap()).collect()
        });
        assert_eq!(digests, [want, want]);
    }

    #[test]
    fn telescope_output_is_one_bitexact_spectrum_frame() {
        let frames = 4;
        let a = run_reference(ConfApp::Telescope, frames).unwrap();
        let b = run_sim(ConfApp::Telescope, frames, 3, 2, SchedPolicy::Shuffle(9)).unwrap();
        assert_eq!(a.output.len(), 1);
        assert_eq!(a.output[0].len(), 1);
        assert_eq!(a.digest(), b.digest());
    }
}
