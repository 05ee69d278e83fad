//! Candidate-configuration planning backed by `predict::model`.
//!
//! The controller never searches blindly: a [`Planner`] rates every point
//! of a small (quality × slices × depth) lattice with the analytical SPC
//! model and marks the ones whose predicted steady-state period fits the
//! SLO's frame budget. Costs come from a cycle-deterministic simulation
//! profile of the app's *static counterparts* (index 0 = degraded
//! quality, index 1 = full, per [`App::static_counterparts`]), measured
//! once at the scale's default slice count and scaled analytically to
//! other slice counts — the "measure once, explore parallelizations
//! analytically" workflow of the paper's front-end.

use crate::policy::{CandidateConfig, Quality};
use apps::experiment::{self, App, AppConfig, Scale};
use parking_lot::Mutex;
use predict::{predict, CostDb, PredictConfig};
use std::collections::HashMap;

/// Frames used for the calibration simulation (enough for steady state,
/// small enough to stay fast).
const CAL_FRAMES: u64 = 4;

/// The candidate axes the planner explores around the app's defaults.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lattice {
    /// Candidate data-parallel slice counts, ascending.
    pub slices: Vec<usize>,
    /// Candidate pipeline depths, ascending.
    pub depths: Vec<usize>,
}

impl Lattice {
    /// Half / default / double the app's slice count, pipeline depths
    /// 1–3.
    pub fn around_default(app: App, scale: Scale) -> Self {
        let s = experiment::default_slices(app, scale);
        let mut slices = vec![(s / 2).max(1), s, s * 2];
        slices.dedup();
        Self {
            slices,
            depths: vec![1, 2, 3],
        }
    }
}

/// One rated lattice point.
#[derive(Debug, Clone, PartialEq)]
pub struct RatedConfig {
    pub config: CandidateConfig,
    /// Predicted steady-state period (cycles per frame).
    pub period: f64,
    /// `period <= deadline` for the planner's frame budget.
    pub feasible: bool,
}

/// A rated candidate lattice plus the frame budget that defines
/// feasibility.
#[derive(Debug, Clone)]
pub struct Planner {
    deadline: f64,
    rated: Vec<RatedConfig>,
}

impl Planner {
    /// Build a planner from pre-rated candidates; `feasible` flags are
    /// recomputed against `deadline_cycles`.
    pub fn new(mut rated: Vec<RatedConfig>, deadline_cycles: f64) -> Self {
        for r in &mut rated {
            r.feasible = r.period <= deadline_cycles;
        }
        Self {
            deadline: deadline_cycles,
            rated,
        }
    }

    pub fn deadline(&self) -> f64 {
        self.deadline
    }

    pub fn rated(&self) -> &[RatedConfig] {
        &self.rated
    }

    pub fn lookup(&self, c: &CandidateConfig) -> Option<&RatedConfig> {
        self.rated.iter().find(|r| r.config == *c)
    }

    /// Is `c` in the lattice and predicted to meet the frame budget?
    pub fn feasible(&self, c: &CandidateConfig) -> bool {
        self.lookup(c).is_some_and(|r| r.feasible)
    }

    /// The lowest-period candidate at the given quality (regardless of
    /// feasibility). Ties break towards the earlier lattice point, so
    /// the answer is deterministic.
    pub fn best_at(&self, q: Quality) -> Option<&RatedConfig> {
        self.rated
            .iter()
            .filter(|r| r.config.quality == q)
            .min_by(|a, b| a.period.total_cmp(&b.period))
    }

    /// The best *static* configuration: full quality, lowest predicted
    /// period — the baseline the bursty-replay scenario compares the
    /// adaptive controller against.
    pub fn best_static_full(&self) -> Option<&RatedConfig> {
        self.best_at(Quality::Full)
    }
}

/// Per-node cost digest of one calibration run: exact labels for
/// unsliced nodes, per-copy means (at the reference slice count) for
/// sliced groups.
#[derive(Debug, Clone, Default)]
struct Profile {
    exact: Vec<(String, f64)>,
    /// base label → per-invocation mean at `s_ref` copies.
    sliced: Vec<(String, f64)>,
    fallback: f64,
}

fn profile_of(app: App, scale: Scale) -> Profile {
    // One calibration sim per (app, scale): memoized, and the lock keeps
    // two planners from simulating the same calibration at once.
    static CACHE: Mutex<Option<HashMap<(App, Scale), Profile>>> = Mutex::new(None);
    let mut guard = CACHE.lock();
    let map = guard.get_or_insert_with(HashMap::new);
    if let Some(p) = map.get(&(app, scale)) {
        return p.clone();
    }
    let report = experiment::run_sim(
        AppConfig {
            app,
            scale,
            frames: CAL_FRAMES,
        },
        1,
    );
    let mut grouped: HashMap<String, (u64, u64)> = HashMap::new();
    let mut profile = Profile::default();
    let (mut total_cycles, mut total_jobs) = (0u64, 0u64);
    for (label, node) in &report.per_node {
        total_cycles += node.cycles;
        total_jobs += node.jobs;
        let base = CostDb::base_of(label);
        if base == label {
            profile.exact.push((label.clone(), node.mean()));
        } else {
            let e = grouped.entry(base.to_string()).or_insert((0, 0));
            e.0 += node.cycles;
            e.1 += node.jobs;
        }
    }
    for (base, (cycles, jobs)) in grouped {
        let mean = if jobs == 0 {
            0.0
        } else {
            cycles as f64 / jobs as f64
        };
        profile.sliced.push((base, mean));
    }
    // Deterministic iteration order for anything that renders the db.
    profile.exact.sort_by(|a, b| a.0.cmp(&b.0));
    profile.sliced.sort_by(|a, b| a.0.cmp(&b.0));
    profile.fallback = if total_jobs == 0 {
        0.0
    } else {
        total_cycles as f64 / total_jobs as f64
    };
    map.insert((app, scale), profile.clone());
    profile
}

/// Cost database for a candidate slice count: unsliced nodes keep their
/// measured mean; a sliced copy's work shrinks linearly as copies grow
/// (`mean_ref * s_ref / s` — the group's total work is conserved).
fn scaled_db(profile: &Profile, s_ref: usize, s: usize) -> CostDb {
    let mut db = CostDb::new().with_default(profile.fallback);
    for (label, mean) in &profile.exact {
        db.set(label.clone(), *mean);
    }
    let scale = s_ref as f64 / s.max(1) as f64;
    for (base, mean) in &profile.sliced {
        db.set(base.clone(), mean * scale);
    }
    db
}

/// Rate the full lattice for `app` (reconfigurable: both quality modes
/// via its static counterparts; static: full quality only). Ratings are
/// memoized per (app, scale, lattice, cores): the underlying calibration
/// and candidate spec builds are deterministic, so the cache is
/// observationally pure.
pub fn rate_app(app: App, scale: Scale, lattice: &Lattice, cores: usize) -> Vec<RatedConfig> {
    type Key = (App, Scale, Vec<usize>, Vec<usize>, usize);
    static CACHE: Mutex<Option<HashMap<Key, Vec<RatedConfig>>>> = Mutex::new(None);
    let key = (
        app,
        scale,
        lattice.slices.clone(),
        lattice.depths.clone(),
        cores,
    );
    if let Some(hit) = CACHE
        .lock()
        .get_or_insert_with(HashMap::new)
        .get(&key)
        .cloned()
    {
        return hit;
    }
    let rated = rate_app_uncached(app, scale, lattice, cores);
    CACHE
        .lock()
        .get_or_insert_with(HashMap::new)
        .insert(key, rated.clone());
    rated
}

fn rate_app_uncached(app: App, scale: Scale, lattice: &Lattice, cores: usize) -> Vec<RatedConfig> {
    let counterparts = app.static_counterparts();
    let modes: Vec<(Quality, App)> = if counterparts.len() == 2 {
        vec![
            (Quality::Degraded, counterparts[0]),
            (Quality::Full, counterparts[1]),
        ]
    } else {
        vec![(Quality::Full, app)]
    };
    let mut rated = Vec::new();
    for (quality, proxy) in modes {
        let profile = profile_of(proxy, scale);
        let s_ref = experiment::default_slices(proxy, scale);
        for &s in &lattice.slices {
            let built = experiment::build_sliced(
                AppConfig {
                    app: proxy,
                    scale,
                    frames: CAL_FRAMES,
                },
                Some(s),
            );
            let db = scaled_db(&profile, s_ref, s);
            for &d in &lattice.depths {
                let mut cfg = PredictConfig::new(cores, CAL_FRAMES);
                cfg.pipeline_depth = d;
                let p = predict(&built.spec, &db, &cfg);
                rated.push(RatedConfig {
                    config: CandidateConfig {
                        quality,
                        slices: s,
                        pipeline_depth: d,
                    },
                    period: p.period,
                    feasible: false,
                });
            }
        }
    }
    rated
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planner_feasibility_tracks_deadline() {
        let mk = |q, s, d, period| RatedConfig {
            config: CandidateConfig {
                quality: q,
                slices: s,
                pipeline_depth: d,
            },
            period,
            feasible: false,
        };
        let planner = Planner::new(
            vec![
                mk(Quality::Full, 4, 1, 200.0),
                mk(Quality::Full, 4, 2, 120.0),
                mk(Quality::Degraded, 4, 2, 60.0),
            ],
            150.0,
        );
        assert!(!planner.feasible(&CandidateConfig {
            quality: Quality::Full,
            slices: 4,
            pipeline_depth: 1
        }));
        assert!(planner.feasible(&CandidateConfig {
            quality: Quality::Full,
            slices: 4,
            pipeline_depth: 2
        }));
        assert_eq!(planner.best_static_full().unwrap().period, 120.0);
        assert_eq!(
            planner.best_at(Quality::Degraded).unwrap().config.quality,
            Quality::Degraded
        );
    }

    #[test]
    fn rates_every_reconfig_app_lattice() {
        for app in App::RECONFIG {
            let lattice = Lattice::around_default(app, Scale::Small);
            let rated = rate_app(app, Scale::Small, &lattice, 4);
            assert_eq!(
                rated.len(),
                2 * lattice.slices.len() * lattice.depths.len(),
                "{}",
                app.label()
            );
            assert!(rated.iter().all(|r| r.period > 0.0), "{}", app.label());
            // Degraded quality must be predicted cheaper than full at the
            // same lattice point — that is what makes relief moves work.
            let planner = Planner::new(rated, f64::MAX);
            let full = planner.best_at(Quality::Full).unwrap().period;
            let degraded = planner.best_at(Quality::Degraded).unwrap().period;
            assert!(
                degraded < full,
                "{}: degraded {degraded} !< full {full}",
                app.label()
            );
        }
    }

    #[test]
    fn quality_relief_never_inverts_pointwise() {
        // Regression for the kernel/fusion cost recalibration: at *every*
        // lattice point (not just the per-quality best), dropping quality
        // must still be predicted cheaper. The controller's relief move
        // assumes this pointwise — a silent inversion would make a
        // degrade step look like a slowdown and wedge the feedback loop,
        // and the bench's adaptive_misses ≤ best_static_misses gate
        // depends on relief actually relieving.
        for app in App::RECONFIG {
            let lattice = Lattice::around_default(app, Scale::Small);
            let rated = rate_app(app, Scale::Small, &lattice, 4);
            let planner = Planner::new(rated, f64::MAX);
            for &s in &lattice.slices {
                for &d in &lattice.depths {
                    let at = |quality| {
                        planner
                            .lookup(&CandidateConfig {
                                quality,
                                slices: s,
                                pipeline_depth: d,
                            })
                            .unwrap_or_else(|| panic!("{} missing s={s} d={d}", app.label()))
                            .period
                    };
                    let (deg, full) = (at(Quality::Degraded), at(Quality::Full));
                    assert!(
                        deg < full,
                        "{} s={s} d={d}: degraded {deg} !< full {full}",
                        app.label()
                    );
                }
            }
        }
    }

    #[test]
    fn deeper_pipelines_never_predict_slower() {
        let lattice = Lattice {
            slices: vec![4],
            depths: vec![1, 2, 3],
        };
        let rated = rate_app(App::Pip12, Scale::Small, &lattice, 4);
        let planner = Planner::new(rated, f64::MAX);
        let period_at = |d| {
            planner
                .lookup(&CandidateConfig {
                    quality: Quality::Full,
                    slices: 4,
                    pipeline_depth: d,
                })
                .unwrap()
                .period
        };
        assert!(period_at(2) <= period_at(1));
        assert!(period_at(3) <= period_at(2));
    }
}
