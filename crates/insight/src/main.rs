//! `hinch-insight` — analyse a flight-recorder trace and report the
//! critical path, stall attribution and bottleneck components.
//!
//! Two input modes:
//!
//! * `--app <name>` runs the application on the deterministic SpaceCAKE
//!   simulator with tracing enabled and analyses the resulting trace.
//!   Output is byte-identical across runs.
//! * `--csv <file>` loads a trace previously exported with
//!   `trace::export::csv` (for example via `--dump-csv`).
//!
//! ```text
//! hinch-insight --app pip1 --cores 9 --format json
//! hinch-insight --csv trace.csv --clock cycles
//! ```

use apps::experiment::{run_sim_traced, App, AppConfig, Scale};
use insight::{analyze, render_human, render_json};
use trace::Clock;

const USAGE: &str =
    "usage: hinch-insight --app <name> [--cores N] [--frames N] [--scale small|paper]
                     [--format human|json] [--dump-csv <path>]
       hinch-insight --csv <file> [--clock cycles|ns] [--format human|json]

apps: pip1 pip2 jpip1 jpip2 blur3 blur5 pip12 jpip12 blur35";

struct Args {
    app: Option<App>,
    csv: Option<String>,
    cores: usize,
    frames: Option<u64>,
    scale: Scale,
    clock: Clock,
    json: bool,
    dump_csv: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        app: None,
        csv: None,
        cores: 9,
        frames: None,
        scale: Scale::Small,
        clock: Clock::VirtualCycles,
        json: false,
        dump_csv: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} expects a value"));
        match flag.as_str() {
            "--app" => {
                let name = value()?;
                args.app = Some(App::parse(&name).ok_or_else(|| format!("unknown app '{name}'"))?);
            }
            "--csv" => args.csv = Some(value()?),
            "--cores" => {
                args.cores = value()?.parse().map_err(|e| format!("--cores: {e}"))?;
                if args.cores == 0 {
                    return Err("--cores must be at least 1".into());
                }
            }
            "--frames" => {
                args.frames = Some(value()?.parse().map_err(|e| format!("--frames: {e}"))?);
            }
            "--scale" => {
                args.scale = match value()?.as_str() {
                    "small" => Scale::Small,
                    "paper" => Scale::Paper,
                    other => return Err(format!("unknown scale '{other}'")),
                };
            }
            "--clock" => {
                args.clock = match value()?.as_str() {
                    "cycles" => Clock::VirtualCycles,
                    "ns" => Clock::WallNanos,
                    other => return Err(format!("unknown clock '{other}'")),
                };
            }
            "--format" => {
                args.json = match value()?.as_str() {
                    "human" => false,
                    "json" => true,
                    other => return Err(format!("unknown format '{other}'")),
                };
            }
            "--dump-csv" => args.dump_csv = Some(value()?),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if args.app.is_some() == args.csv.is_some() {
        return Err("exactly one of --app or --csv is required".into());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            if msg.is_empty() {
                println!("{USAGE}");
                return;
            }
            eprintln!("error: {msg}\n{USAGE}");
            std::process::exit(2);
        }
    };

    let (events, clock) = if let Some(app) = args.app {
        let cfg = AppConfig::at(app, args.scale);
        let cfg = args.frames.map_or(cfg, |frames| cfg.frames(frames));
        let (_, recorder) = run_sim_traced(cfg, args.cores);
        (recorder.events(), Clock::VirtualCycles)
    } else {
        let path = args.csv.as_deref().expect("checked in parse_args");
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("error: cannot read {path}: {e}");
                std::process::exit(1);
            }
        };
        match trace::input::events_from_csv(&text) {
            Ok(events) => (events, args.clock),
            Err(e) => {
                eprintln!("error: {path}: {e}");
                std::process::exit(1);
            }
        }
    };

    if let Some(path) = &args.dump_csv {
        if let Err(e) = std::fs::write(path, trace::export::csv(&events)) {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(1);
        }
    }

    let report = analyze(&events, clock);
    let rendered = if args.json {
        render_json(&report)
    } else {
        render_human(&report)
    };
    print!("{rendered}");
}
