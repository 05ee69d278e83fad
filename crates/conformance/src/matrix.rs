//! The differential matrix driver.
//!
//! For every selected application the driver establishes an oracle with
//! the reference sequential executor, then sweeps the simulation engine
//! across `cores × depths × policies` and the native engine across
//! `workers × depths`, comparing outputs byte-exactly and cross-checking
//! the report invariants the trace/insight subsystems rely on.
//!
//! Every run must equal its app's oracle at its pipeline depth — output
//! digest, executed jobs and applied reconfigurations — under *every*
//! engine, core count and schedule policy: the paper's
//! schedule-independence claim, checked literally. That holds for the
//! reconfigurable apps (PiP-12, JPiP-12, Blur-35) too: a reconfiguration
//! lands on an iteration fixed by the spec, the events and the depth
//! (`hinch::event`). The oracle is the reference run at each swept depth;
//! the injector lands each switch on a multiple of its period from frame
//! 2d on, so for the corpus's 12-frame period the oracles of depths up to
//! 6 are one and the same.
//!
//! Every sim run additionally checks the PR 3 report invariants:
//! iteration retirement counts, and the per-core `busy + idle == cycles`
//! tiling. One traced run per app feeds `trace::check_invariants` (span
//! overlap, quiesce pairing, event/reconfig ordering).
//!
//! A failed comparison becomes a [`Divergence`] carrying the exact
//! `(app, engine, cores, depth, policy, frames)` tuple; the CLI renders
//! it as a ready-to-paste `hinch-conformance` reproduction command.

use crate::corpus::{self, ConfApp, Ports};
use crate::fingerprint::Digest;
use hinch::SchedPolicy;
use std::fmt::Write as _;

/// Which (cores, depths, seeds, ...) to sweep.
#[derive(Debug, Clone)]
pub struct MatrixConfig {
    pub apps: Vec<ConfApp>,
    pub cores: Vec<usize>,
    pub depths: Vec<usize>,
    /// Number of seeded policies (alternating shuffle / perturb).
    pub seeds: u64,
    /// Base seed the seeded policies derive from.
    pub base_seed: u64,
    pub frames: u64,
    /// Native-engine worker counts (empty skips the native sweep).
    pub workers: Vec<usize>,
    /// Restrict the sim sweep to exactly these policies (divergence
    /// reproduction); `None` uses the standard set.
    pub policy_override: Option<Vec<SchedPolicy>>,
}

impl MatrixConfig {
    /// The full matrix from the conformance issue: all 11 apps,
    /// cores {1,2,4,9}, depths {1,2,5}, 8 schedule seeds, plus native.
    pub fn full() -> Self {
        MatrixConfig {
            apps: corpus::ALL.to_vec(),
            cores: vec![1, 2, 4, 9],
            depths: vec![1, 2, 5],
            seeds: 8,
            base_seed: 0xC0FFEE,
            frames: 30,
            workers: vec![1, 4],
            policy_override: None,
        }
    }

    /// The quick CI gate: 3 apps × {1,4} cores × 2 seeds.
    pub fn gate() -> Self {
        MatrixConfig {
            apps: vec![
                ConfApp::parse("pip1").unwrap(),
                ConfApp::parse("blur3").unwrap(),
                ConfApp::parse("pip12").unwrap(),
            ],
            cores: vec![1, 4],
            depths: vec![1, 5],
            seeds: 2,
            base_seed: 0xC0FFEE,
            frames: 16,
            workers: vec![2],
            policy_override: None,
        }
    }

    /// The sim policies this configuration sweeps: the three fixed
    /// tie-break orders plus `seeds` seeded ones, alternating shuffle
    /// and priority-perturbation.
    pub fn policies(&self) -> Vec<SchedPolicy> {
        if let Some(p) = &self.policy_override {
            return p.clone();
        }
        let mut out = vec![SchedPolicy::Default, SchedPolicy::Fifo, SchedPolicy::Lifo];
        for k in 0..self.seeds {
            let seed = self.base_seed.wrapping_add(k);
            out.push(if k % 2 == 0 {
                SchedPolicy::Shuffle(seed)
            } else {
                SchedPolicy::Perturb(seed)
            });
        }
        out
    }
}

/// One observed disagreement (or invariant violation, or error).
#[derive(Debug, Clone)]
pub struct Divergence {
    pub app: &'static str,
    /// `"reference"`, `"sim"` or `"native"`.
    pub engine: &'static str,
    /// Virtual cores (sim) or worker threads (native).
    pub cores: usize,
    pub depth: usize,
    /// Schedule policy label (`SchedPolicy::label`).
    pub policy: String,
    /// `"output"`, `"invariant"` or `"error"`.
    pub kind: &'static str,
    pub detail: String,
}

impl Divergence {
    /// A ready-to-run CLI invocation reproducing this divergence.
    pub fn reproduce(&self, cfg: &MatrixConfig) -> String {
        let mut cmd = format!(
            "hinch-conformance --apps {} --depths {} --frames {} --seed {}",
            self.app, self.depth, cfg.frames, cfg.base_seed
        );
        match self.engine {
            "native" => {
                let _ = write!(cmd, " --cores {} --workers {}", cfg.cores[0], self.cores);
            }
            _ => {
                let _ = write!(
                    cmd,
                    " --cores {} --policy {} --no-native",
                    self.cores, self.policy
                );
            }
        }
        cmd
    }
}

/// Per-application result. The oracle fields are the reference run at
/// the sweep's first depth.
#[derive(Debug, Clone)]
pub struct AppSummary {
    pub app: &'static str,
    pub oracle_digest: Digest,
    pub oracle_iterations: u64,
    pub oracle_jobs: u64,
    pub oracle_reconfigs: u64,
    pub sim_runs: u64,
    pub native_runs: u64,
    pub divergences: Vec<Divergence>,
}

/// The whole matrix result.
#[derive(Debug, Clone)]
pub struct MatrixSummary {
    pub config: MatrixConfig,
    pub apps: Vec<AppSummary>,
    pub total_runs: u64,
}

impl MatrixSummary {
    pub fn divergences(&self) -> impl Iterator<Item = &Divergence> {
        self.apps.iter().flat_map(|a| a.divergences.iter())
    }

    pub fn passed(&self) -> bool {
        self.divergences().next().is_none()
    }
}

/// Check that every output frame matches the same-index frame of one of
/// the counterpart renderings, all ports agreeing on the variant: what a
/// reconfiguring run must satisfy whatever its switch points. The
/// controller-driven runs (`tests/adapt_scenarios.rs`) hold replayed
/// SLO-scenario outputs to it.
pub fn check_admissible(output: &Ports, variants: &[Ports]) -> Result<(), String> {
    let frames = output.first().map(Vec::len).unwrap_or(0);
    for (p, port) in output.iter().enumerate() {
        if port.len() != frames {
            return Err(format!(
                "port {p} produced {} frames, port 0 produced {frames}",
                port.len()
            ));
        }
    }
    for v in variants {
        if v.len() != output.len() {
            return Err(format!(
                "variant has {} ports, run produced {}",
                v.len(),
                output.len()
            ));
        }
    }
    'frame: for i in 0..frames {
        for (v, variant) in variants.iter().enumerate() {
            if output
                .iter()
                .enumerate()
                .all(|(p, port)| variant[p].get(i) == Some(&port[i]))
            {
                let _ = v;
                continue 'frame;
            }
        }
        return Err(format!(
            "frame {i} matches none of the {} static counterpart renderings",
            variants.len()
        ));
    }
    Ok(())
}

/// What every run at one pipeline depth is held to.
struct Oracle {
    depth: usize,
    digest: Digest,
    iterations: u64,
    jobs: u64,
    reconfigs: u64,
}

struct AppRunner {
    app: ConfApp,
    frames: u64,
    oracles: Vec<Oracle>,
    summary: AppSummary,
}

impl AppRunner {
    fn diverge(
        &mut self,
        engine: &'static str,
        cores: usize,
        depth: usize,
        policy: String,
        kind: &'static str,
        detail: String,
    ) {
        self.summary.divergences.push(Divergence {
            app: self.app.id(),
            engine,
            cores,
            depth,
            policy,
            kind,
            detail,
        });
    }

    /// Shared output + report checks for one engine run.
    #[allow(clippy::too_many_arguments)]
    fn check_run(
        &mut self,
        engine: &'static str,
        cores: usize,
        depth: usize,
        policy: String,
        iterations: u64,
        jobs: u64,
        reconfigs: u64,
        digest: Digest,
    ) {
        if iterations != self.frames {
            self.diverge(
                engine,
                cores,
                depth,
                policy.clone(),
                "invariant",
                format!("retired {iterations} iterations, expected {}", self.frames),
            );
        }
        let oracle = self
            .oracles
            .iter()
            .find(|o| o.depth == depth)
            .expect("an oracle for every swept depth");
        let (want_digest, want_jobs, want_reconfigs) =
            (oracle.digest, oracle.jobs, oracle.reconfigs);
        if digest != want_digest {
            self.diverge(
                engine,
                cores,
                depth,
                policy.clone(),
                "output",
                format!("output digest {digest} != oracle {want_digest}"),
            );
        }
        if jobs != want_jobs {
            self.diverge(
                engine,
                cores,
                depth,
                policy.clone(),
                "invariant",
                format!("executed {jobs} jobs, oracle executed {want_jobs}"),
            );
        }
        if reconfigs != want_reconfigs {
            self.diverge(
                engine,
                cores,
                depth,
                policy,
                "invariant",
                format!("applied {reconfigs} reconfigurations, oracle applied {want_reconfigs}"),
            );
        }
    }

    fn sim_run(&mut self, cores: usize, depth: usize, policy: SchedPolicy, traced: bool) {
        self.summary.sim_runs += 1;
        let label = policy.label();
        let (outcome, events) = if traced {
            match corpus::run_sim_traced(self.app, self.frames, cores, depth, policy) {
                Ok((o, e)) => (o, Some(e)),
                Err(e) => {
                    self.diverge("sim", cores, depth, label, "error", e.to_string());
                    return;
                }
            }
        } else {
            match corpus::run_sim(self.app, self.frames, cores, depth, policy) {
                Ok(o) => (o, None),
                Err(e) => {
                    self.diverge("sim", cores, depth, label, "error", e.to_string());
                    return;
                }
            }
        };
        let r = &outcome.report;

        // Per-core busy+idle tiling (PR 3 invariant).
        if r.core_busy.len() != cores || r.core_idle.len() != cores {
            self.diverge(
                "sim",
                cores,
                depth,
                label.clone(),
                "invariant",
                format!(
                    "report covers {} busy / {} idle cores, platform has {cores}",
                    r.core_busy.len(),
                    r.core_idle.len()
                ),
            );
        }
        for (c, (&busy, &idle)) in r.core_busy.iter().zip(&r.core_idle).enumerate() {
            if busy + idle != r.cycles {
                self.diverge(
                    "sim",
                    cores,
                    depth,
                    label.clone(),
                    "invariant",
                    format!(
                        "core {c}: busy {busy} + idle {idle} != makespan {}",
                        r.cycles
                    ),
                );
            }
        }

        if let Some(events) = events {
            if let Err(why) = trace::check_invariants(&events) {
                self.diverge(
                    "sim",
                    cores,
                    depth,
                    label.clone(),
                    "invariant",
                    format!("trace invariants: {why}"),
                );
            }
            let spans = events
                .iter()
                .filter(|e| matches!(e, trace::TraceEvent::JobSpan { .. }))
                .count() as u64;
            if spans != r.jobs_executed {
                self.diverge(
                    "sim",
                    cores,
                    depth,
                    label.clone(),
                    "invariant",
                    format!("{spans} trace spans vs {} executed jobs", r.jobs_executed),
                );
            }
        }

        let (iterations, jobs, reconfigs) = (r.iterations, r.jobs_executed, r.reconfigs);
        self.check_run(
            "sim",
            cores,
            depth,
            label,
            iterations,
            jobs,
            reconfigs,
            outcome.digest(),
        );
    }

    fn native_run(&mut self, workers: usize, depth: usize, policy: SchedPolicy) {
        self.summary.native_runs += 1;
        let outcome = match corpus::run_native(self.app, self.frames, workers, depth, policy) {
            Ok(o) => o,
            Err(e) => {
                self.diverge(
                    "native",
                    workers,
                    depth,
                    "threads".into(),
                    "error",
                    e.to_string(),
                );
                return;
            }
        };
        let r = &outcome.report;
        let (iterations, jobs, reconfigs) = (r.iterations, r.jobs_executed, r.reconfigs);
        self.check_run(
            "native",
            workers,
            depth,
            "threads".into(),
            iterations,
            jobs,
            reconfigs,
            outcome.digest(),
        );
    }
}

/// Run the whole matrix. Runs are sequential and deterministic: the
/// summary (and its JSON rendering) is byte-stable for a given
/// configuration.
pub fn run_matrix(cfg: &MatrixConfig) -> MatrixSummary {
    let mut apps = Vec::new();
    let mut total_runs = 0u64;
    for &app in &cfg.apps {
        let runner = run_app(cfg, app);
        // + one oracle per depth
        total_runs += runner.sim_runs + runner.native_runs + cfg.depths.len() as u64;
        apps.push(runner);
    }
    MatrixSummary {
        config: cfg.clone(),
        apps,
        total_runs,
    }
}

fn run_app(cfg: &MatrixConfig, app: ConfApp) -> AppSummary {
    let mut runner = AppRunner {
        app,
        frames: cfg.frames,
        oracles: Vec::new(),
        summary: AppSummary {
            app: app.id(),
            oracle_digest: Digest(0),
            oracle_iterations: 0,
            oracle_jobs: 0,
            oracle_reconfigs: 0,
            sim_runs: 0,
            native_runs: 0,
            divergences: Vec::new(),
        },
    };

    // 1. The oracle at each swept depth.
    for &depth in &cfg.depths {
        let reference = "program-order".to_string();
        let oracle = match corpus::run_reference_at(app, cfg.frames, depth) {
            Ok(o) => o,
            Err(e) => {
                runner.diverge("reference", 1, depth, reference, "error", e.to_string());
                continue;
            }
        };
        let r = &oracle.report;
        if r.iterations != cfg.frames {
            runner.diverge(
                "reference",
                1,
                depth,
                reference,
                "invariant",
                format!(
                    "oracle retired {} iterations, expected {}",
                    r.iterations, cfg.frames
                ),
            );
        }
        runner.oracles.push(Oracle {
            depth,
            digest: oracle.digest(),
            iterations: r.iterations,
            jobs: r.jobs_executed,
            reconfigs: r.reconfigs,
        });
    }
    if let Some(first) = runner.oracles.first() {
        let s = &mut runner.summary;
        s.oracle_digest = first.digest;
        s.oracle_iterations = first.iterations;
        s.oracle_jobs = first.jobs;
        s.oracle_reconfigs = first.reconfigs;
    }
    if runner.oracles.len() < cfg.depths.len() {
        return runner.summary; // a reference run failed: nothing to compare
    }

    // 2. The sim sweep; the first cell runs traced.
    let policies = cfg.policies();
    let mut traced = true;
    for &cores in &cfg.cores {
        for &depth in &cfg.depths {
            for &policy in &policies {
                runner.sim_run(cores, depth, policy, traced);
                traced = false;
            }
        }
    }

    // 3. The native sweep. The seeded policies steer the production
    // worker loop's pick hook (handoff choice and publish order of every
    // readied batch), biasing each cell into a different schedule-space
    // corner — `Shuffle` ignores iteration age, `Perturb` keeps
    // oldest-first and permutes within an iteration. Thread interleaving
    // adds its own nondeterminism on top; outputs must still conform.
    // The `Default` run per cell is the order production runs walk.
    for &workers in &cfg.workers {
        for &depth in &cfg.depths {
            let seed = cfg.base_seed ^ depth as u64;
            runner.native_run(workers, depth, SchedPolicy::Shuffle(seed));
            runner.native_run(workers, depth, SchedPolicy::Perturb(seed));
            runner.native_run(workers, depth, SchedPolicy::Default);
        }
    }
    runner.summary
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_set_contains_fixed_and_seeded_orders() {
        let cfg = MatrixConfig {
            seeds: 4,
            ..MatrixConfig::gate()
        };
        let p = cfg.policies();
        assert_eq!(p.len(), 7);
        assert_eq!(p[0], SchedPolicy::Default);
        assert!(p.contains(&SchedPolicy::Shuffle(0xC0FFEE)));
        assert!(p.contains(&SchedPolicy::Perturb(0xC0FFEF)));
    }

    #[test]
    fn policy_override_wins() {
        let cfg = MatrixConfig {
            policy_override: Some(vec![SchedPolicy::Lifo]),
            ..MatrixConfig::gate()
        };
        assert_eq!(cfg.policies(), vec![SchedPolicy::Lifo]);
    }

    #[test]
    fn admissibility_accepts_variant_mixtures_and_rejects_others() {
        let v1: Ports = vec![vec![vec![1u8], vec![2], vec![3]]];
        let v2: Ports = vec![vec![vec![9u8], vec![8], vec![7]]];
        let mixed: Ports = vec![vec![vec![1u8], vec![8], vec![3]]];
        assert!(check_admissible(&mixed, &[v1.clone(), v2.clone()]).is_ok());
        let alien: Ports = vec![vec![vec![1u8], vec![0], vec![3]]];
        assert!(check_admissible(&alien, &[v1.clone(), v2.clone()]).is_err());
        // Ports must agree on the variant per frame.
        let two_port_v1: Ports = vec![vec![vec![1u8]], vec![vec![2u8]]];
        let two_port_v2: Ports = vec![vec![vec![9u8]], vec![vec![8u8]]];
        let torn: Ports = vec![vec![vec![1u8]], vec![vec![8u8]]];
        assert!(check_admissible(&torn, &[two_port_v1, two_port_v2]).is_err());
    }

    #[test]
    fn each_depth_is_held_to_its_own_oracle() {
        // At depth 7, 2d = 14 frames exceed PiP-12's 12-frame period: its
        // first toggle lands at frame 14 instead of 12.
        let app = ConfApp::parse("pip12").unwrap();
        let digest = |depth| corpus::run_reference_at(app, 16, depth).unwrap().digest();
        assert_ne!(digest(5), digest(7));
        let cfg = MatrixConfig {
            apps: vec![app],
            cores: vec![2],
            depths: vec![5, 7],
            seeds: 0,
            frames: 16,
            workers: vec![2],
            ..MatrixConfig::gate()
        };
        let summary = run_matrix(&cfg);
        let divergences: Vec<_> = summary.divergences().collect();
        assert!(divergences.is_empty(), "{divergences:?}");
        // 3 sim and 3 native runs per depth, plus one oracle per depth.
        assert_eq!(summary.total_runs, 14);
    }

    #[test]
    fn divergence_reproduction_command_names_the_cell() {
        let cfg = MatrixConfig::gate();
        let d = Divergence {
            app: "pip12",
            engine: "sim",
            cores: 4,
            depth: 5,
            policy: "shuffle:12648430".into(),
            kind: "output",
            detail: "digest mismatch".into(),
        };
        let cmd = d.reproduce(&cfg);
        assert!(cmd.contains("--apps pip12"), "{cmd}");
        assert!(cmd.contains("--cores 4"), "{cmd}");
        assert!(cmd.contains("--depths 5"), "{cmd}");
        assert!(cmd.contains("--policy shuffle:12648430"), "{cmd}");
    }
}
