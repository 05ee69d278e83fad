//! Figure and table regeneration for the paper's evaluation (§4).
//!
//! Every function here reproduces one figure of the paper on the
//! simulated SpaceCAKE tile:
//!
//! * [`figure8`] — sequential overhead: XSPCL application vs hand-written
//!   sequential version on one core (paper: PiP ≈ +5 %, JPiP ≈ +18 %,
//!   Blur ≈ ±1 %);
//! * [`figure9`] — speedup on 1..=9 cores relative to the fastest
//!   sequential version (paper: good efficiency everywhere; Blur best,
//!   JPiP worst);
//! * [`figure10`] — reconfiguration overhead: run time of PiP-12 /
//!   JPiP-12 / Blur-35 divided by the average of their static
//!   counterparts, minus one (paper: below 15 %, growing with the node
//!   count);
//! * [`figure7_dot`] — the JPiP task graph as Graphviz DOT;
//! * [`cache_comparison`] — the §4.1 profiling claim: the XSPCL JPiP has a
//!   markedly higher cache-miss count than its fused sequential baseline.
//!
//! The absolute cycle numbers belong to *our* tile model, not the authors'
//! proprietary simulator — the reproduction targets the qualitative
//! shapes. `EXPERIMENTS.md` records paper-vs-measured values.

use apps::experiment::{run_sim, sequential_cycles, App, AppConfig, Scale};
use hinch::meter::PlatformStats;

/// One row of the Figure 8 comparison.
#[derive(Debug, Clone)]
pub struct Fig8Row {
    pub app: App,
    pub frames: u64,
    pub sequential_cycles: u64,
    pub xspcl_cycles: u64,
}

impl Fig8Row {
    /// XSPCL overhead relative to the sequential version, in percent.
    pub fn overhead_pct(&self) -> f64 {
        (self.xspcl_cycles as f64 / self.sequential_cycles as f64 - 1.0) * 100.0
    }
}

/// Figure 8: sequential overhead of the six static applications.
pub fn figure8(scale: Scale, frames_override: Option<u64>) -> Vec<Fig8Row> {
    App::STATIC
        .iter()
        .map(|&app| {
            let mut cfg = match scale {
                Scale::Paper => AppConfig::paper(app),
                Scale::Small => AppConfig::small(app),
            };
            if let Some(f) = frames_override {
                cfg = cfg.frames(f);
            }
            let sequential = sequential_cycles(cfg);
            let xspcl = run_sim(cfg, 1).cycles;
            Fig8Row {
                app,
                frames: cfg.frames,
                sequential_cycles: sequential,
                xspcl_cycles: xspcl,
            }
        })
        .collect()
}

/// One speedup series of Figure 9.
#[derive(Debug, Clone)]
pub struct Fig9Series {
    pub app: App,
    /// Cycles of the fastest sequential version (the baseline of the
    /// speedup; for Blur this is the parallel version at one node, as in
    /// the paper).
    pub reference_cycles: u64,
    /// `(nodes, cycles, speedup)` per sweep point.
    pub points: Vec<(usize, u64, f64)>,
}

/// Figure 9: speedup of the six static applications on `nodes` cores.
pub fn figure9(scale: Scale, nodes: &[usize], frames_override: Option<u64>) -> Vec<Fig9Series> {
    App::STATIC
        .iter()
        .map(|&app| {
            let mut cfg = match scale {
                Scale::Paper => AppConfig::paper(app),
                Scale::Small => AppConfig::small(app),
            };
            if let Some(f) = frames_override {
                cfg = cfg.frames(f);
            }
            let sequential = sequential_cycles(cfg);
            let one_node = run_sim(cfg, 1).cycles;
            // "All speedup measurements are relative to the fastest
            // sequential version of the application."
            let reference_cycles = sequential.min(one_node);
            let points = nodes
                .iter()
                .map(|&n| {
                    let cycles = if n == 1 {
                        one_node
                    } else {
                        run_sim(cfg, n).cycles
                    };
                    (n, cycles, reference_cycles as f64 / cycles as f64)
                })
                .collect();
            Fig9Series {
                app,
                reference_cycles,
                points,
            }
        })
        .collect()
}

/// One overhead series of Figure 10.
#[derive(Debug, Clone)]
pub struct Fig10Series {
    pub app: App,
    /// `(nodes, reconfig_cycles, static_avg_cycles, overhead_pct)`.
    pub points: Vec<(usize, u64, u64, f64)>,
}

/// Figure 10: reconfiguration overhead of the three reconfigurable
/// applications, per node count.
pub fn figure10(scale: Scale, nodes: &[usize], frames_override: Option<u64>) -> Vec<Fig10Series> {
    App::RECONFIG
        .iter()
        .map(|&app| {
            let mk = |a: App| {
                let mut cfg = match scale {
                    Scale::Paper => AppConfig::paper(a),
                    Scale::Small => AppConfig::small(a),
                };
                // the reconfigurable app and its counterparts must process
                // the same frame count
                cfg = cfg.frames(frames_override.unwrap_or(app.paper_frames()));
                cfg
            };
            let points = nodes
                .iter()
                .map(|&n| {
                    let reconfig = run_sim(mk(app), n).cycles;
                    let counterparts = app.static_counterparts();
                    let static_avg = counterparts
                        .iter()
                        .map(|&c| run_sim(mk(c), n).cycles)
                        .sum::<u64>()
                        / counterparts.len() as u64;
                    let overhead = (reconfig as f64 / static_avg as f64 - 1.0) * 100.0;
                    (n, reconfig, static_avg, overhead)
                })
                .collect();
            Fig10Series { app, points }
        })
        .collect()
}

/// The JPiP task graph (the paper's Fig. 7) as Graphviz DOT.
pub fn figure7_dot(scale: Scale) -> String {
    let cfg = match scale {
        Scale::Paper => AppConfig::paper(App::Jpip1),
        Scale::Small => AppConfig::small(App::Jpip1),
    };
    let built = apps::experiment::build(cfg);
    xspcl::codegen::to_dot(&built.spec)
}

/// One row of the prediction-vs-simulation validation (the Fig. 1
/// performance-estimation tool, validated against the simulator).
#[derive(Debug, Clone)]
pub struct PredictRow {
    pub app: App,
    pub cores: usize,
    pub predicted: f64,
    pub simulated: u64,
}

impl PredictRow {
    /// Relative prediction error (positive = prediction too high).
    pub fn error_pct(&self) -> f64 {
        (self.predicted / self.simulated as f64 - 1.0) * 100.0
    }
}

/// Calibrate the SPC predictor from a one-core profile of each static
/// application, then predict the node sweep and compare with simulation.
pub fn prediction_validation(
    scale: Scale,
    nodes: &[usize],
    frames_override: Option<u64>,
) -> Vec<PredictRow> {
    let mut rows = Vec::new();
    for &app in &App::STATIC {
        let mut cfg = match scale {
            Scale::Paper => AppConfig::paper(app),
            Scale::Small => AppConfig::small(app),
        };
        if let Some(f) = frames_override {
            cfg = cfg.frames(f);
        }
        // calibrate from one core
        let profile_run = run_sim(cfg, 1);
        let mut db = predict::CostDb::new();
        db.absorb_profile(&profile_run.per_node);
        // NOTE: the profile's mean cycles include the job_base overhead;
        // predict with zero extra RTS base cost to avoid double counting,
        // but keep the dispatch term for multi-core predictions.
        let built = apps::experiment::build(cfg);
        for &cores in nodes {
            let mut pcfg = predict::PredictConfig::new(cores, cfg.frames);
            pcfg.overhead.job_base = 0;
            let prediction = predict::predict(&built.spec, &db, &pcfg);
            let simulated = if cores == 1 {
                profile_run.cycles
            } else {
                run_sim(cfg, cores).cycles
            };
            rows.push(PredictRow {
                app,
                cores,
                predicted: prediction.makespan,
                simulated,
            });
        }
    }
    rows
}

/// Cache statistics of the XSPCL run vs the fused sequential baseline
/// (§4.1's profiling observation).
pub struct CacheComparison {
    pub app: App,
    pub xspcl: PlatformStats,
    pub sequential: PlatformStats,
    /// Same XSPCL graph with tile-granular decode+IDCT fusion — the
    /// post-fusion side of the Fig. 8 gate. `None` for apps the fusion
    /// transform does not apply to (everything but JPiP).
    pub fused: Option<PlatformStats>,
}

impl CacheComparison {
    /// XSPCL L1-miss count over the sequential baseline's (§4.1's 3.19×).
    pub fn l1_ratio(&self) -> f64 {
        self.xspcl.l1_misses as f64 / self.sequential.l1_misses.max(1) as f64
    }

    /// Fused-XSPCL L1-miss count over the sequential baseline's — the
    /// number the Fig. 8 gate (a test below) holds at ≤ 2.0 for JPiP-1.
    pub fn fused_l1_ratio(&self) -> Option<f64> {
        self.fused
            .as_ref()
            .map(|f| f.l1_misses as f64 / self.sequential.l1_misses.max(1) as f64)
    }
}

/// Compare cache behaviour of the XSPCL app and its baseline on one core.
pub fn cache_comparison(app: App, scale: Scale, frames: u64) -> CacheComparison {
    let cfg = match scale {
        Scale::Paper => AppConfig::paper(app).frames(frames),
        Scale::Small => AppConfig::small(app).frames(frames),
    };
    let xspcl = run_sim(cfg, 1).stats;
    let fused = match app {
        App::Jpip1 | App::Jpip2 => Some(apps::experiment::run_sim_fused(cfg, 1).stats),
        _ => None,
    };
    // rerun the baseline on a fresh solo machine to get its stats
    let built = apps::experiment::build(cfg);
    let mut solo = spacecake::Solo::new();
    let assets = built.assets.clone();
    solo.run(|meter| {
        apps::experiment::run_baseline(cfg, &assets, meter);
    });
    CacheComparison {
        app,
        xspcl,
        sequential: solo.stats(),
        fused,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure8_small_has_six_rows() {
        let rows = figure8(Scale::Small, Some(4));
        assert_eq!(rows.len(), 6);
        for row in &rows {
            assert!(row.sequential_cycles > 0);
            assert!(row.xspcl_cycles > 0);
            assert!(
                row.overhead_pct() > -30.0 && row.overhead_pct() < 150.0,
                "{}: overhead {:.1}% out of plausible range",
                row.app.label(),
                row.overhead_pct()
            );
        }
    }

    #[test]
    fn figure9_small_speedup_grows() {
        let series = figure9(Scale::Small, &[1, 2, 4], Some(6));
        for s in &series {
            let s1 = s.points[0].2;
            let s4 = s.points[2].2;
            assert!(
                s4 > s1,
                "{}: speedup should grow with cores ({s1:.2} → {s4:.2})",
                s.app.label()
            );
        }
    }

    #[test]
    fn figure10_small_overhead_positive() {
        let series = figure10(Scale::Small, &[2], Some(24));
        assert_eq!(series.len(), 3);
        for s in &series {
            let (_, reconfig, static_avg, overhead) = s.points[0];
            assert!(reconfig > 0 && static_avg > 0);
            assert!(
                overhead > -10.0 && overhead < 100.0,
                "{}: overhead {overhead:.1}% implausible",
                s.app.label()
            );
        }
    }

    #[test]
    fn fused_jpip_cache_ratio_meets_fig8_gate() {
        // The Fig. 8 acceptance claim, pinned deterministically on the
        // simulator's tile model at the experiment's own configuration
        // (paper scale, 8 frames — the setup that measured §4.1's
        // 3.19×): tile-granular decode+IDCT fusion cuts JPiP-1's
        // XSPCL/sequential L1-miss ratio to ≤ 2.0×.
        let c = cache_comparison(App::Jpip1, Scale::Paper, 8);
        let unfused = c.l1_ratio();
        let fused = c.fused_l1_ratio().expect("JPiP-1 has a fused variant");
        assert!(
            fused < unfused,
            "fusion did not reduce the L1-miss ratio: {fused:.2}x !< {unfused:.2}x"
        );
        assert!(
            fused <= 2.0,
            "fused JPiP-1 L1-miss ratio {fused:.2}x above the 2.0x gate"
        );
        // Blur has no fused variant — the Option stays honest.
        assert!(cache_comparison(App::Blur3, Scale::Small, 4)
            .fused
            .is_none());
    }

    #[test]
    fn figure7_dot_shows_jpip_boxes() {
        let dot = figure7_dot(Scale::Small);
        for class in ["mjpeg_source", "jpeg_decode", "idct", "downscale", "blend"] {
            assert!(dot.contains(class), "missing {class} in DOT");
        }
    }
}
