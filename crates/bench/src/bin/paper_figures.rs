//! `paper-figures` — regenerate the paper's evaluation figures.
//!
//! ```text
//! paper-figures --fig 8            Figure 8 (sequential overhead)
//! paper-figures --fig 9            Figure 9 (speedup on 1..=9 nodes)
//! paper-figures --fig 10           Figure 10 (reconfiguration overhead)
//! paper-figures --fig 7            Figure 7 (JPiP task graph, DOT)
//! paper-figures --fig ablation     design-choice sweeps: pipeline depth,
//!                                  dispatch cost, L2 size (fixed configs)
//! paper-figures --cache-stats      §4.1 cache-miss comparison
//! paper-figures --predict          SPC prediction vs simulation (Fig. 1)
//! paper-figures --trace <app>      record a flight-recorder trace of one
//!                                  simulated run (pip, pip2, pip12, jpip,
//!                                  jpip2, jpip12, blur, blur5, blur35);
//!                                  writes <app>-trace.json (Chrome/Perfetto)
//!                                  and prints the `insight` report of it
//!                                  (per-core busy/stall, bottlenecks,
//!                                  critical path, quiesce windows)
//! paper-figures --fig all          everything, the ablation last
//!
//! options:
//!   --scale small|paper   (default: paper)
//!   --frames N            override the per-app frame count
//!   --nodes a,b,c         node sweep (default: 1..=9)
//!   --cores N             simulated cores for --trace (default: 4)
//! ```
//!
//! Absolute cycle counts come from this repository's SpaceCAKE tile model;
//! compare *shapes* against the paper (see `EXPERIMENTS.md`). For the
//! critical-path and stall report of one run, use `hinch-insight`.

use apps::experiment::{run_sim_traced, App, AppConfig, Scale};
use bench::{
    ablation, cache_comparison, figure10, figure7_dot, figure8, figure9, prediction_validation,
    ABLATION_FRAMES,
};
use hinch::trace::export::chrome_trace_json;
use std::process::ExitCode;

struct Options {
    fig: String,
    scale: Scale,
    frames: Option<u64>,
    nodes: Vec<usize>,
    cache_stats: bool,
    predict: bool,
    trace: Option<String>,
    cores: usize,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        fig: String::new(),
        scale: Scale::Paper,
        frames: None,
        nodes: (1..=9).collect(),
        cache_stats: false,
        predict: false,
        trace: None,
        cores: 4,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--fig" => {
                opts.fig = args.next().ok_or("--fig needs a value")?;
                if !["7", "8", "9", "10", "ablation", "all"].contains(&opts.fig.as_str()) {
                    return Err(format!("bad --fig '{}'", opts.fig));
                }
            }
            "--scale" => {
                opts.scale = match args.next().as_deref() {
                    Some("small") => Scale::Small,
                    Some("paper") => Scale::Paper,
                    other => return Err(format!("bad --scale {other:?}")),
                }
            }
            "--frames" => {
                opts.frames = Some(
                    args.next()
                        .ok_or("--frames needs a value")?
                        .parse()
                        .map_err(|e| format!("bad --frames: {e}"))?,
                )
            }
            "--nodes" => {
                opts.nodes = args
                    .next()
                    .ok_or("--nodes needs a value")?
                    .split(',')
                    .map(|n| {
                        n.trim()
                            .parse::<usize>()
                            .map_err(|e| format!("bad node: {e}"))
                    })
                    .collect::<Result<_, _>>()?;
                if opts.nodes.contains(&0) {
                    return Err("--nodes entries must be at least 1".into());
                }
            }
            "--cache-stats" => opts.cache_stats = true,
            "--predict" => opts.predict = true,
            "--trace" => opts.trace = Some(args.next().ok_or("--trace needs an app name")?),
            "--cores" => {
                opts.cores = args
                    .next()
                    .ok_or("--cores needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --cores: {e}"))?;
                if opts.cores == 0 {
                    return Err("--cores must be at least 1".into());
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if opts.fig.is_empty() && !opts.cache_stats && !opts.predict && opts.trace.is_none() {
        return Err(
            "nothing to do: pass --fig 7|8|9|10|ablation|all, --trace <app>, \
             --cache-stats and/or --predict"
                .into(),
        );
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("paper-figures: {e}");
            return ExitCode::from(2);
        }
    };
    let all = opts.fig == "all";
    if all || opts.fig == "7" {
        print_fig7(&opts);
    }
    if all || opts.fig == "8" {
        print_fig8(&opts);
    }
    if all || opts.fig == "9" {
        print_fig9(&opts);
    }
    if all || opts.fig == "10" {
        print_fig10(&opts);
    }
    if opts.cache_stats || all {
        print_cache_stats(&opts);
    }
    if opts.predict || all {
        print_prediction(&opts);
    }
    if let Some(name) = &opts.trace {
        if let Err(e) = run_trace(&opts, name) {
            eprintln!("paper-figures: {e}");
            return ExitCode::from(2);
        }
    }
    // Last, so every section above keeps the simulated addresses (and the
    // bytes) it prints without the ablation.
    if all || opts.fig == "ablation" {
        print_ablation();
    }
    ExitCode::SUCCESS
}

/// Map a command-line app name (case/punctuation-insensitive) to an [`App`].
fn parse_app(name: &str) -> Option<App> {
    let key: String = name
        .chars()
        .filter(|c| c.is_ascii_alphanumeric())
        .collect::<String>()
        .to_lowercase();
    Some(match key.as_str() {
        "pip" | "pip1" => App::Pip1,
        "pip2" => App::Pip2,
        "pip12" => App::Pip12,
        "jpip" | "jpip1" => App::Jpip1,
        "jpip2" => App::Jpip2,
        "jpip12" => App::Jpip12,
        "blur" | "blur3" | "blur3x3" => App::Blur3,
        "blur5" | "blur5x5" => App::Blur5,
        "blur35" => App::Blur35,
        _ => return None,
    })
}

/// `--trace <app>`: run one app on the simulator with the flight recorder
/// attached, write the Chrome-trace JSON next to the working directory and
/// print the `insight` report of the trace.
fn run_trace(opts: &Options, name: &str) -> Result<(), String> {
    let app = parse_app(name).ok_or_else(|| {
        format!(
            "unknown app '{name}' (try pip, pip2, pip12, jpip, jpip2, jpip12, blur, blur5, blur35)"
        )
    })?;
    let mut cfg = match opts.scale {
        Scale::Paper => AppConfig::paper(app),
        Scale::Small => AppConfig::small(app),
    };
    if let Some(frames) = opts.frames {
        cfg = cfg.frames(frames);
    }
    println!(
        "== trace: {} — {} frames on {} simulated cores ==",
        app.label(),
        cfg.frames,
        opts.cores
    );
    let (report, recorder) = run_sim_traced(cfg, opts.cores);
    let events = recorder.events();
    let path = format!("{}-trace.json", name.to_lowercase());
    std::fs::write(&path, chrome_trace_json(&events, recorder.clock()))
        .map_err(|e| format!("writing {path}: {e}"))?;
    println!(
        "{} events over {} cycles ({} iterations, {} reconfigurations)",
        events.len(),
        report.cycles,
        report.iterations,
        report.reconfigs
    );
    println!("wrote {path} — open with Perfetto (ui.perfetto.dev) or chrome://tracing");
    println!();
    println!(
        "{}",
        insight::render_human(&insight::analyze(&events, recorder.clock()))
    );
    Ok(())
}

fn print_prediction(opts: &Options) {
    println!("== SPC performance prediction vs simulation ==");
    println!("(calibrated from the 1-core profile; Fig. 1's estimation tool)");
    print!("{:<10}", "app");
    for n in &opts.nodes {
        print!(" {:>8}", format!("n={n}"));
    }
    println!();
    let rows = prediction_validation(opts.scale, &opts.nodes, opts.frames);
    for app in App::STATIC {
        print!("{:<10}", app.label());
        for row in rows.iter().filter(|r| r.app == app) {
            print!(" {:>+7.1}%", row.error_pct());
        }
        println!();
    }
    println!("(prediction error; + = predicted slower than simulated)");
    println!();
}

fn print_fig7(opts: &Options) {
    println!("== Figure 7: JPiP task graph (Graphviz DOT) ==");
    println!("{}", figure7_dot(opts.scale));
}

fn print_fig8(opts: &Options) {
    println!("== Figure 8: sequential overhead (cycles x 1,000,000) ==");
    println!(
        "{:<10} {:>8} {:>16} {:>16} {:>10}   paper",
        "app", "frames", "sequential", "XSPCL", "overhead"
    );
    let paper = ["~5%", "~5%", "~18%", "~18%", "<1.1%", "<1.1%"];
    for (row, paper_val) in figure8(opts.scale, opts.frames).iter().zip(paper) {
        println!(
            "{:<10} {:>8} {:>16.1} {:>16.1} {:>9.1}%   {}",
            row.app.label(),
            row.frames,
            row.sequential_cycles as f64 / 1e6,
            row.xspcl_cycles as f64 / 1e6,
            row.overhead_pct(),
            paper_val,
        );
    }
    println!();
}

fn print_fig9(opts: &Options) {
    println!("== Figure 9: speedup vs fastest sequential version ==");
    print!("{:<10}", "app");
    for n in &opts.nodes {
        print!(" {:>6}", format!("n={n}"));
    }
    println!();
    for series in figure9(opts.scale, &opts.nodes, opts.frames) {
        print!("{:<10}", series.app.label());
        for (_, _, speedup) in &series.points {
            print!(" {speedup:>6.2}");
        }
        println!();
    }
    println!("(paper: all scale well; Blur best, JPiP worst)");
    println!();
}

fn print_fig10(opts: &Options) {
    println!("== Figure 10: reconfiguration overhead (%) ==");
    print!("{:<10}", "app");
    for n in &opts.nodes {
        print!(" {:>7}", format!("n={n}"));
    }
    println!();
    for series in figure10(opts.scale, &opts.nodes, opts.frames) {
        print!("{:<10}", series.app.label());
        for (_, _, _, overhead) in &series.points {
            print!(" {overhead:>6.1}%");
        }
        println!();
    }
    println!("(paper: below 15%, increasing with the number of nodes)");
    println!();
}

fn print_cache_stats(opts: &Options) {
    println!("== §4.1 profiling: cache misses, XSPCL vs sequential ==");
    println!(
        "{:<10} {:>14} {:>14} {:>9}  {:>14} {:>14}",
        "app", "xspcl L1 miss", "seq L1 miss", "ratio", "xspcl memcyc", "seq memcyc"
    );
    let frames = opts.frames.unwrap_or(8);
    let mut gates = Vec::new();
    for app in [App::Jpip1, App::Pip1, App::Blur3] {
        let c = cache_comparison(app, opts.scale, frames);
        println!(
            "{:<10} {:>14} {:>14} {:>8.2}x {:>14} {:>14}",
            c.app.label(),
            c.xspcl.l1_misses,
            c.sequential.l1_misses,
            c.l1_ratio(),
            c.xspcl.mem_cycles,
            c.sequential.mem_cycles,
        );
        if let (Some(fused), Some(ratio)) = (&c.fused, c.fused_l1_ratio()) {
            println!(
                "{:<10} {:>14} {:>14} {:>8.2}x {:>14} {:>14}",
                format!("{} fused", c.app.label()),
                fused.l1_misses,
                c.sequential.l1_misses,
                ratio,
                fused.mem_cycles,
                c.sequential.mem_cycles,
            );
            gates.push((c.app, c.l1_ratio(), ratio));
        }
    }
    println!("(paper: JPiP XSPCL has significantly more misses; Blur identical)");
    // One line per fused app in `key=value` form: the post-fusion ratio
    // without re-deriving it from the table.
    for (app, unfused, fused) in gates {
        println!(
            "cache-gate: app={} unfused_l1_ratio={unfused:.3} fused_l1_ratio={fused:.3}",
            app.label()
        );
    }
    println!();
}

fn print_ablation() {
    let a = ablation();
    println!("== Ablation: design choices swept one at a time ({ABLATION_FRAMES} frames) ==");
    println!("pipeline depth (PiP-1 small, 4 cores):");
    for (depth, cycles) in &a.depth {
        println!("  depth={depth:<4} {cycles:>12} cycles");
    }
    println!("dispatch cost per job (PiP-1 small, 4 cores, depth 5):");
    for (dispatch, cycles) in &a.dispatch {
        println!("  dispatch={dispatch:<5} {cycles:>12} cycles");
    }
    println!("L2 size (JPiP-1 640x320, 1 core, depth 5):");
    println!(
        "  {:<10} {:>12} {:>12} {:>12}",
        "L2", "cycles", "mem cycles", "L2 misses"
    );
    for (kib, cycles, mem_cycles, l2_misses) in &a.l2 {
        println!(
            "  {:<10} {cycles:>12} {mem_cycles:>12} {l2_misses:>12}",
            format!("{kib} KiB")
        );
    }
    println!();
}
