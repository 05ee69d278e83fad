//! The in-process driver: build an application on inputs generated from
//! the seed, run it with `hinch::run_native`, and check what it captured
//! against the sequential reference engine.

use crate::host;
use crate::spans::Spans;
use crate::stats::Summary;
use apps::experiment::{build_with, App, AppConfig, Built, Scale};
use apps::{blur, jpip, pip, AppAssets};
use conformance::corpus::Ports;
use conformance::fingerprint::{digest_ports, Digest};
use conformance::matrix::check_admissible;
use hinch::{run_native, run_reference, RunConfig, RunReport};
use media::jpeg::mjpeg::MjpegVideo;
use media::video::{RawVideo, VideoSpec};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Iterations in flight in a batch run, as in the paper's §4.
pub const PIPELINE_DEPTH: usize = 5;

/// Frames offered and frames that failed: every frame of a run that
/// errored, or whose captured output the oracle refused.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Why frames failed, for the report.
    pub notes: Vec<String>,
}

impl Tally {
    pub fn add(&mut self, frames: u64, verdict: Result<(), String>) {
        self.attempted += frames;
        if let Err(why) = verdict {
            self.failed += frames;
            self.notes.push(why);
        }
    }
}

/// Generate the input videos of `app` from `seed`; also returns their
/// width and height. The asset set is private to the caller, so nothing
/// here touches the process-wide cache that `apps::experiment::build` and
/// the server share.
fn seeded_assets(app: App, scale: Scale, seed: u64) -> (Arc<AppAssets>, (usize, usize)) {
    let assets = AppAssets::new();
    let paper = scale == Scale::Paper;
    let raw = |spec: VideoSpec, k: u64| {
        Arc::new(RawVideo::generate(VideoSpec {
            seed: seed.wrapping_add(k),
            ..spec
        }))
    };
    let dims = match app {
        App::Pip1 | App::Pip2 | App::Pip12 => {
            let c = if paper {
                pip::PipConfig::paper(2)
            } else {
                pip::PipConfig::small(2)
            };
            let spec = VideoSpec::new(c.width, c.height, c.distinct_frames, seed);
            assets.add_raw("bg", raw(spec, 0));
            assets.add_raw("pip1", raw(spec, 1));
            if app != App::Pip1 {
                assets.add_raw("pip2", raw(spec, 2));
            }
            (c.width, c.height)
        }
        App::Jpip1 | App::Jpip2 | App::Jpip12 => {
            let c = if paper {
                jpip::JpipConfig::paper(2)
            } else {
                jpip::JpipConfig::small(2)
            };
            let spec = VideoSpec::new(c.width, c.height, c.distinct_frames, seed);
            let names: &[&str] = if app == App::Jpip1 {
                &["bg", "pip1"]
            } else {
                &["bg", "pip1", "pip2"]
            };
            for (k, name) in names.iter().enumerate() {
                let video = MjpegVideo::from_raw(&raw(spec, k as u64), c.quality);
                assets.add_mjpeg(*name, Arc::new(video));
            }
            (c.width, c.height)
        }
        App::Blur3 | App::Blur5 | App::Blur35 => {
            let c = if paper {
                blur::BlurConfig::paper(3)
            } else {
                blur::BlurConfig::small(3)
            };
            let spec = VideoSpec::new(c.width, c.height, c.distinct_frames, seed);
            assets.add_raw("video", raw(spec, 0));
            (c.width, c.height)
        }
    };
    (assets, dims)
}

/// What a run's captured output is checked against.
enum Oracle {
    /// Static graphs are schedule-independent: the digest of the
    /// reference engine's output, for a full run and for a latency run.
    Digests { full: Digest, short: Digest },
    /// A reconfiguration at depth > 1 lands on a schedule-dependent
    /// frame, so each frame must equal the same frame of one of the
    /// static counterparts.
    Admissible(Vec<Ports>),
}

/// One timed set-up: inputs generated from the seed (`setup/assets` span)
/// and the application built on them (`setup/build` span).
pub struct Setup {
    app: App,
    scale: Scale,
    built: Built,
    plane_dims: (usize, usize),
    pub assets_s: f64,
    pub build_s: f64,
}

impl Setup {
    pub fn new(app: App, scale: Scale, seed: u64, spans: &mut Spans) -> Setup {
        // `build_with` does not read the frame count.
        let cfg = AppConfig {
            app,
            scale,
            frames: 0,
        };
        let t = Instant::now();
        let (assets, plane_dims) = spans.time("setup/assets", None, seed, || {
            seeded_assets(app, scale, seed)
        });
        let assets_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let built = spans.time("setup/build", None, seed, || build_with(cfg, assets));
        Setup {
            app,
            scale,
            built,
            plane_dims,
            assets_s,
            build_s: t.elapsed().as_secs_f64(),
        }
    }
}

/// A set-up application with the oracle its runs are checked against.
pub struct Prepared {
    app: App,
    scale: Scale,
    pub built: Built,
    /// Width and height of the application's input planes.
    pub plane_dims: (usize, usize),
    /// Frames of a full run and of a latency run.
    frames: u64,
    short_frames: u64,
    oracle: Oracle,
}

fn captured(built: &Built) -> Ports {
    (0..built.capture_ports)
        .map(|p| built.assets.captured(built.capture, p))
        .collect()
}

fn reference_output(built: &Built, frames: u64) -> Ports {
    built.assets.clear_captures();
    run_reference(&built.spec, &RunConfig::new(frames)).expect("reference engine runs the app");
    let out = captured(built);
    built.assets.clear_captures();
    out
}

impl Prepared {
    /// Compute the oracle of `setup` for full runs of `frames` frames and
    /// latency runs of `short_frames`: one reference-engine run per oracle
    /// output, off the clock.
    pub fn new(setup: Setup, (frames, short_frames): (u64, u64)) -> Prepared {
        let Setup {
            app,
            scale,
            built,
            plane_dims,
            ..
        } = setup;
        let counterparts = app.static_counterparts();
        let oracle = if counterparts.is_empty() {
            Oracle::Digests {
                full: digest_ports(&reference_output(&built, frames)),
                short: digest_ports(&reference_output(&built, short_frames)),
            }
        } else {
            Oracle::Admissible(
                counterparts
                    .iter()
                    .map(|&app| {
                        // Same inputs, private captures.
                        let assets = AppAssets::new();
                        assets.adopt_inputs(&built.assets);
                        let cfg = AppConfig { app, scale, frames };
                        reference_output(&build_with(cfg, assets), frames)
                    })
                    .collect(),
            )
        };
        Prepared {
            app,
            scale,
            built,
            plane_dims,
            frames,
            short_frames,
            oracle,
        }
    }

    /// One `run_native` call on cleared capture buffers, `depth`
    /// iterations in flight.
    pub fn run(
        &self,
        frames: u64,
        workers: usize,
        depth: usize,
        trace: Option<Arc<dyn trace::TraceSink>>,
    ) -> Result<RunReport, String> {
        self.built.assets.clear_captures();
        let mut cfg = RunConfig::new(frames)
            .pipeline_depth(depth)
            .workers(workers);
        if let Some(sink) = trace {
            cfg = cfg.trace(sink);
        }
        run_native(&self.built.spec, &cfg).map_err(|e| format!("{}: {e}", self.app.id()))
    }

    /// Check what the last run captured.
    pub fn verify(&self, frames: u64) -> Result<(), String> {
        let out = captured(&self.built);
        let got = out.first().map_or(0, Vec::len) as u64;
        if got != frames {
            return Err(format!(
                "{}: captured {got} frames, ran {frames}",
                self.app.id()
            ));
        }
        match &self.oracle {
            Oracle::Digests { full, short } => {
                let want = if frames == self.frames { full } else { short };
                let have = digest_ports(&out);
                if have == *want {
                    Ok(())
                } else {
                    Err(format!(
                        "{}: output digest {have} differs from the reference {want}",
                        self.app.id()
                    ))
                }
            }
            Oracle::Admissible(variants) => {
                check_admissible(&out, variants).map_err(|why| format!("{}: {why}", self.app.id()))
            }
        }
    }

    #[cfg(test)]
    fn corrupt_oracle(&mut self) {
        self.oracle = Oracle::Digests {
            full: Digest(0),
            short: Digest(0),
        };
    }
}

/// One measured run.
pub struct Sample {
    pub elapsed_s: f64,
    pub cpu_s: f64,
    pub report: RunReport,
}

/// Which side of an alternating round a run belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    OneWorker = 0,
    Hw = 1,
    /// `Hw` with a `trace::Recorder` attached (traced pass only).
    HwTraced = 2,
}

/// All runs of one application, by side.
#[derive(Default)]
pub struct Runs {
    pub frames: u64,
    samples: [Vec<Sample>; 3],
    /// Events of the last traced run.
    pub events: Vec<trace::TraceEvent>,
    pub calib_ms: Vec<f64>,
}

impl Runs {
    pub fn side(&self, side: Side) -> &[Sample] {
        &self.samples[side as usize]
    }

    /// Frames per second of every run of a side: `frames / RunReport.elapsed`.
    pub fn fps(&self, side: Side) -> Summary {
        let v: Vec<f64> = self
            .side(side)
            .iter()
            .map(|s| self.frames as f64 / s.elapsed_s)
            .collect();
        Summary::of(&v)
    }

    /// Process CPU milliseconds per frame over every run of a side: the
    /// 10 ms tick is too coarse for one run, so the whole phase is summed.
    pub fn cpu_ms_per_frame(&self, side: Side) -> f64 {
        let samples = self.side(side);
        let cpu: f64 = samples.iter().map(|s| s.cpu_s).sum();
        1e3 * cpu / (self.frames as f64 * samples.len().max(1) as f64)
    }
}

/// Alternate one-worker and hw-worker full runs (and traced hw runs when
/// `traced`) until `budget` is spent, at least `min_rounds`
/// rounds. The sides alternate so both see the same host noise. The first
/// and last run of each side are verified; a run that errors fails all its
/// frames.
pub fn alternate(
    prepared: &Prepared,
    budget: Duration,
    min_rounds: usize,
    traced: bool,
    spans: &mut Spans,
    tally: &mut Tally,
) -> Runs {
    let hw = host::hw_threads();
    let frames = prepared.frames;
    let mut runs = Runs {
        frames,
        ..Runs::default()
    };
    let sides: &[Side] = if traced {
        &[Side::OneWorker, Side::Hw, Side::HwTraced]
    } else {
        &[Side::OneWorker, Side::Hw]
    };
    let start = Instant::now();
    let mut round = 0;
    // One round's cost, so the last round can be known to be the last.
    let mut round_cost = Duration::ZERO;
    loop {
        let round_start = Instant::now();
        let last = round + 1 >= min_rounds && start.elapsed() + 2 * round_cost > budget;
        for &side in sides {
            runs.calib_ms.push(host::calib_spin_ms());
            let recorder =
                (side == Side::HwTraced).then(|| trace::Recorder::new(trace::Clock::WallNanos));
            let workers = if side == Side::OneWorker { 1 } else { hw };
            let cpu0 = host::cpu_seconds();
            let span = spans.enter(format!("run/{side:?}/{round}"), None, round as u64);
            let sink = recorder.as_ref().map(|r| r.sink());
            let result = prepared.run(frames, workers, PIPELINE_DEPTH, sink);
            spans.exit(span);
            let cpu_s = host::cpu_seconds() - cpu0;
            match result {
                Ok(report) => {
                    let verdict = if round == 0 || last {
                        prepared.verify(frames)
                    } else {
                        Ok(())
                    };
                    tally.add(frames, verdict);
                    let sample = Sample {
                        elapsed_s: report.elapsed.as_secs_f64(),
                        cpu_s,
                        report,
                    };
                    runs.samples[side as usize].push(sample);
                    if let Some(r) = recorder {
                        runs.events = r.events();
                    }
                }
                Err(why) => tally.add(frames, Err(why)),
            }
        }
        round += 1;
        round_cost = round_start.elapsed();
        if last {
            return runs;
        }
    }
}

/// Latency runs back to back: `run_native` with one frame in flight
/// (pipeline depth 1) over the oracle's short run length, so
/// `elapsed / frames` is what a caller waits for a frame when nothing else
/// is in the pipeline. Closed loop. Returns milliseconds per frame, one
/// value per run.
///
/// Every run starts its own worker threads, and a run of a few
/// milliseconds measures where they landed more than it measures the
/// frame: one PiP-1 frame at paper scale reads 1.37 ms through all runs of
/// one process and 1.78 ms through all of the next. So a run lasts tens of
/// milliseconds: one JPiP-1 frame, or a window of PiP frames, in which the
/// start-up cost drowns.
///
/// hw workers at paper scale, where a frame's slices run side by side. One
/// worker at small scale: a job there is about 1 us, a second worker's
/// wake-up costs more than the frame, and whether it joins in is settled
/// per process (45 or 70 us a frame through all 200 runs of one process).
pub fn latency_runs(prepared: &Prepared, budget: Duration, tally: &mut Tally) -> Vec<f64> {
    let workers = match prepared.scale {
        Scale::Paper => host::hw_threads(),
        Scale::Small => 1,
    };
    let frames = prepared.short_frames;
    let start = Instant::now();
    let mut ms = Vec::new();
    // At least one run, so a pass cut short still has a latency.
    loop {
        match prepared.run(frames, workers, 1, None) {
            Ok(report) => {
                // The first run is verified; hashing every short output
                // would cost more than the run.
                let verdict = if ms.is_empty() {
                    prepared.verify(frames)
                } else {
                    Ok(())
                };
                tally.add(frames, verdict);
                ms.push(report.elapsed.as_secs_f64() * 1e3 / frames as f64);
            }
            Err(why) => tally.add(frames, Err(why)),
        }
        if start.elapsed() >= budget {
            return ms;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prepared(app: App, frames: u64) -> Prepared {
        let mut spans = Spans::new(false);
        Prepared::new(Setup::new(app, Scale::Small, 3, &mut spans), (frames, 2))
    }

    #[test]
    fn a_correct_run_passes_and_a_wrong_reference_fails_every_frame() {
        let mut p = prepared(App::Pip1, 24);
        let mut spans = Spans::new(false);
        let mut tally = Tally::default();
        let runs = alternate(&p, Duration::ZERO, 1, false, &mut spans, &mut tally);
        assert_eq!(
            (runs.side(Side::OneWorker).len(), runs.side(Side::Hw).len()),
            (1, 1)
        );
        assert_eq!(
            (tally.attempted, tally.failed),
            (48, 0),
            "{:?}",
            tally.notes
        );
        latency_runs(&p, Duration::ZERO, &mut tally);
        assert_eq!(
            (tally.attempted, tally.failed),
            (50, 0),
            "{:?}",
            tally.notes
        );

        // The same runs against a deliberately wrong digest: all frames
        // of every verified run are failures.
        p.corrupt_oracle();
        let mut tally = Tally::default();
        alternate(&p, Duration::ZERO, 1, false, &mut spans, &mut tally);
        assert_eq!((tally.attempted, tally.failed), (48, 48));
        assert!(tally.notes[0].contains("differs from the reference"));
    }

    #[test]
    fn reconfiguring_app_is_checked_against_its_static_counterparts() {
        let p = prepared(App::Pip12, 40);
        let mut spans = Spans::new(false);
        let mut tally = Tally::default();
        let runs = alternate(&p, Duration::ZERO, 1, false, &mut spans, &mut tally);
        assert!(runs.side(Side::Hw)[0].report.reconfigs >= 2);
        assert_eq!(
            (tally.attempted, tally.failed),
            (80, 0),
            "{:?}",
            tally.notes
        );
        // A PiP-12 run is not a PiP-1 run: one variant alone refuses it.
        if let Oracle::Admissible(v) = &p.oracle {
            p.run(40, 1, PIPELINE_DEPTH, None).unwrap();
            assert!(check_admissible(&captured(&p.built), &v[..1]).is_err());
        } else {
            panic!("PiP-12 needs the admissibility oracle");
        }
    }

    #[test]
    fn inputs_follow_the_seed() {
        let mut spans = Spans::new(false);
        let mut digest = |seed| {
            let setup = Setup::new(App::Pip1, Scale::Small, seed, &mut spans);
            digest_ports(&reference_output(&setup.built, 6))
        };
        assert_eq!(digest(1), digest(1));
        assert_ne!(digest(1), digest(2));
    }
}
