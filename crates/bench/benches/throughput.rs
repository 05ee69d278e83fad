//! Scheduler throughput of the native engine across worker counts.
//!
//! Two workloads:
//!
//! * **glue micro-benchmark** — a `Task` of 16 tiny spin components, so
//!   per-job scheduling overhead dominates. Reported as jobs/sec.
//! * **end-to-end apps** — PiP-1, Blur-3×3 and JPiP-1 (unfused and
//!   tile-fused) at small scale, reported as frames/sec.
//!
//! The yardstick for these numbers is not a second engine but the
//! simulator's prediction (`hinch.speedup_vs_sim` in `benchmark/`).
//!
//! Harness-free (`harness = false`, own `main`): emits one JSON document
//! to `$THROUGHPUT_OUT` (or stdout) for `scripts/bench.sh` to fold into
//! `BENCH_native.json`. `$THROUGHPUT_QUICK=1` shrinks the run for CI
//! smoke testing. Human-readable progress goes to stderr.

use apps::experiment::{build, build_fused, App, AppConfig};
use hinch::component::{Component, Params, RunCtx};
use hinch::engine::{run_native, RunConfig};
use hinch::graph::factory;
use hinch::{ComponentSpec, GraphSpec, RunReport};
use std::fmt::Write as _;

const WORKERS: [usize; 4] = [1, 2, 4, 8];
const MICRO_WIDTH: usize = 16;

struct Spin(u64);
impl Component for Spin {
    fn class(&self) -> &'static str {
        "spin"
    }
    fn run(&mut self, ctx: &mut RunCtx<'_>) {
        // tiny busy-work so dispatch overhead dominates the measurement
        let mut x = self.0;
        for _ in 0..16 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        }
        self.0 = x;
        ctx.charge(16);
    }
}

/// `MICRO_WIDTH` independent spin components per iteration: maximum
/// scheduler pressure, minimum component work.
fn micro_spec() -> GraphSpec {
    GraphSpec::task(
        (0..MICRO_WIDTH)
            .map(|i| {
                GraphSpec::Leaf(ComponentSpec::new(
                    format!("spin{i}"),
                    "spin",
                    factory(
                        |_p: &Params| -> Box<dyn Component> { Box::new(Spin(7)) },
                        Params::new(),
                    ),
                ))
            })
            .collect(),
    )
}

/// Best-of-`repeats` run; returns the report with the shortest elapsed
/// time (least scheduler noise).
fn run_best(spec: &GraphSpec, iters: u64, workers: usize, repeats: usize) -> RunReport {
    let mut best: Option<RunReport> = None;
    for _ in 0..repeats {
        let cfg = RunConfig::new(iters).workers(workers);
        let r = run_native(spec, &cfg).expect("bench run");
        assert_eq!(r.iterations, iters, "bench run retired too few iterations");
        if best.as_ref().is_none_or(|b| r.elapsed < b.elapsed) {
            best = Some(r);
        }
    }
    best.unwrap()
}

fn jobs_per_sec(r: &RunReport) -> f64 {
    r.jobs_executed as f64 / r.elapsed.as_secs_f64().max(1e-9)
}

fn frames_per_sec(r: &RunReport) -> f64 {
    r.iterations as f64 / r.elapsed.as_secs_f64().max(1e-9)
}

fn main() {
    let quick = std::env::var("THROUGHPUT_QUICK").is_ok();
    let (micro_iters, frames, repeats) = if quick { (200, 4, 1) } else { (2_000, 32, 5) };

    let mut json = String::from("{\n");
    json.push_str("    \"generated_by\": \"cargo bench -p bench --bench throughput\",\n");
    let _ = writeln!(json, "    \"quick\": {quick},");

    // ---- glue micro-benchmark -------------------------------------------
    eprintln!(
        "throughput: glue micro ({MICRO_WIDTH}-wide task, {micro_iters} iterations, best of {repeats})"
    );
    let spec = micro_spec();
    json.push_str("    \"micro_jobs_per_sec\": {\n");
    let _ = writeln!(json, "        \"width\": {MICRO_WIDTH},");
    let _ = writeln!(json, "        \"iterations\": {micro_iters},");
    for (wi, &workers) in WORKERS.iter().enumerate() {
        let jobs = jobs_per_sec(&run_best(&spec, micro_iters, workers, repeats));
        eprintln!("  workers={workers}: {jobs:>12.0} jobs/s");
        let _ = writeln!(
            json,
            "        \"workers_{workers}\": {jobs:.0}{}",
            if wi + 1 < WORKERS.len() { "," } else { "" }
        );
    }
    json.push_str("    },\n");

    // ---- end-to-end apps ------------------------------------------------
    json.push_str("    \"apps_frames_per_sec\": {\n");
    // `jpip1_fused` is the tile-granular decode+IDCT fusion of the same
    // graph — the configuration the BENCH_native.json jpip fps floor in
    // scripts/bench.sh is gated on.
    let apps: [(App, &str, bool); 4] = [
        (App::Pip1, "pip1", false),
        (App::Blur3, "blur3", false),
        (App::Jpip1, "jpip1", false),
        (App::Jpip1, "jpip1_fused", true),
    ];
    for (ai, &(app, name, fused)) in apps.iter().enumerate() {
        eprintln!("throughput: {name} (small, {frames} frames, best of {repeats})");
        let cfg = AppConfig::small(app).frames(frames);
        let built = if fused { build_fused(cfg) } else { build(cfg) };
        let _ = writeln!(json, "        \"{name}\": {{");
        for (wi, &workers) in WORKERS.iter().enumerate() {
            let fps = frames_per_sec(&run_best(&built.spec, frames, workers, repeats));
            eprintln!("  workers={workers}: {fps:>8.1} fps");
            let _ = writeln!(
                json,
                "            \"workers_{workers}\": {fps:.1}{}",
                if wi + 1 < WORKERS.len() { "," } else { "" }
            );
        }
        let _ = writeln!(
            json,
            "        }}{}",
            if ai + 1 < apps.len() { "," } else { "" }
        );
    }
    json.push_str("    }\n}\n");

    match std::env::var("THROUGHPUT_OUT") {
        Ok(path) => {
            std::fs::write(&path, &json).expect("write THROUGHPUT_OUT");
            eprintln!("throughput: wrote {path}");
        }
        Err(_) => print!("{json}"),
    }
}
