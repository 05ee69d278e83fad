//! The repo's one benchmark. See `README.md` for the metric and workload
//! tables and how to read a result.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one pass over one workload in this process; the last line of
//!     standard output is the result object
//! benchmark [--seed <n>] [--seconds <s>] [--smoke | --check-noise]
//!     every workload, both passes, each in a child process of its own
//! benchmark --emit-manifest
//!     print BENCHMARK.json
//! ```

mod host;
mod inproc;
mod json;
mod layers;
mod metrics;
mod passes;
mod schedule;
mod spans;
mod stats;
mod wire;

use metrics::{Better, Workload, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use passes::Outcome;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    check_noise: bool,
    emit_manifest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        check_noise: false,
        emit_manifest: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--smoke" => args.smoke = true,
            "--check-noise" => args.check_noise = true,
            "--emit-manifest" => args.emit_manifest = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(args)
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| unit)
}

/// One pass over one workload: print every metric by name with its unit,
/// store the result (and the spans of a traced pass) under `out/`, and end
/// standard output with the result object.
fn run_one(w: &Workload, args: &Args) -> ExitCode {
    let outcome = if args.trace {
        passes::traced(w, args.seed, args.seconds)
    } else {
        passes::end_to_end(w, args.seed, args.seconds)
    };
    let Outcome {
        metrics,
        extras,
        tally,
        spans,
    } = outcome;

    // The manifest's metrics of this pass, all of them, no others.
    let expected: Vec<&str> = if args.trace {
        PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    };
    for name in &expected {
        assert!(
            metrics.get(name).is_some(),
            "metric '{name}' was not measured"
        );
    }
    for (name, ..) in metrics.iter() {
        assert!(
            expected.contains(&name),
            "metric '{name}' is not in the manifest"
        );
    }

    let fingerprint = host::fingerprint_json();
    println!(
        "workload {} ({}) seed {} seconds {} trace {}",
        w.name,
        w.apps.iter().map(|a| a.id()).collect::<Vec<_>>().join(", "),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("host {{{fingerprint}}}");
    for (name, value, detail) in metrics.iter() {
        match detail {
            Some(summary) => println!("{name} {value:.6} {}   {summary}", unit_of(name)),
            None => println!("{name} {value:.6} {}", unit_of(name)),
        }
    }
    for (name, value, unit) in &extras {
        println!("({name} {value:.6} {unit})");
    }
    let totals = spans.totals();
    if !totals.is_empty() {
        println!("spans: name count total_ms self_ms");
        for (name, t) in &totals {
            println!(
                "  {name} {} {:.3} {:.3}",
                t.count,
                t.total_us / 1e3,
                t.self_us / 1e3
            );
        }
    }
    for note in &tally.notes {
        println!("FAILED: {note}");
    }

    let correct = tally.failed == 0 && tally.attempted > 0;
    let mut fields = String::new();
    for (name, value, _) in metrics.iter() {
        if !fields.is_empty() {
            fields.push(',');
        }
        write!(
            fields,
            "\"{name}\":{{\"value\":{value},\"unit\":\"{}\"}}",
            unit_of(name)
        )
        .expect("write to a string");
    }
    let result = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{fields}}}}}",
        tally.attempted.max(1),
        tally.failed
    );

    let dir = out_dir();
    let stem = format!("{}.trace{}.seed{}", w.name, u8::from(args.trace), args.seed);
    let extra: Vec<String> = extras
        .iter()
        .map(|(n, v, u)| format!("\"{n}\":{{\"value\":{v},\"unit\":\"{u}\"}}"))
        .collect();
    let stored = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"host\":{{{fingerprint}}},\"result\":{result},\"extra\":{{{}}}}}\n",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        extra.join(",")
    );
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join(format!("{stem}.json")), stored))
        .and_then(|()| {
            if args.trace {
                std::fs::write(dir.join(format!("{stem}.spans.json")), spans.to_json())
            } else {
                Ok(())
            }
        });
    if let Err(e) = written {
        eprintln!("could not store the result under {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }

    // A measured result exits 0 even when frames failed: `correct` and
    // `failed` say so, and the caller decides.
    println!("{result}");
    ExitCode::SUCCESS
}

/// Run one pass of one workload in a child process of its own, so set-up
/// time, CPU time, peak memory and the process-wide caches are the
/// workload's alone. Relays the child's report and returns its result line.
fn child(w: &Workload, seed: u64, seconds: f64, trace: bool) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", w.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("start a child: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    print!("{text}");
    let last = text.lines().last().unwrap_or("").to_string();
    if out.status.success() && last.starts_with("{\"correct\":true,") {
        Ok(last)
    } else {
        Err(format!(
            "{} trace {} failed ({})",
            w.name,
            u8::from(trace),
            out.status
        ))
    }
}

/// Result lines of every workload: `[workload][pass]`, end-to-end first.
type Set = Vec<[String; 2]>;

/// Both passes of every workload; a smoke set runs the traced pass on the
/// first (cheapest) workload only.
fn run_set(seed: u64, seconds: f64, smoke: bool) -> Result<Set, String> {
    WORKLOADS
        .iter()
        .enumerate()
        .map(|(i, w)| {
            let end_to_end = child(w, seed, seconds, false)?;
            let traced = if smoke && i > 0 {
                String::new()
            } else {
                child(w, seed, seconds, true)?
            };
            Ok([end_to_end, traced])
        })
        .collect()
}

fn print_set(set: &Set) {
    println!("\nend-to-end (median of the runs or samples of one pass)");
    print!("{:<18}", "metric");
    for w in WORKLOADS {
        print!(" {:>14}", w.name);
    }
    println!();
    for m in END_TO_END {
        print!("{:<18}", format!("{} [{}]", m.name, m.unit));
        for lines in set {
            print!(
                " {:>14.4}",
                json::metric(&lines[0], m.name).unwrap_or(f64::NAN)
            );
        }
        println!();
    }
}

/// Share by which `second` is worse than `first`, in the metric's
/// direction; negative when it is better.
fn worse_by(better: Better, first: f64, second: f64) -> f64 {
    match better {
        Better::Lower => (second - first) / first,
        Better::Higher => (first - second) / first,
    }
}

/// Compare two sets of runs of the same tree: every end-to-end metric must
/// agree within its bound, every simulator count exactly.
fn check_noise(first: &Set, second: &Set) -> Vec<String> {
    let mut problems = Vec::new();
    println!("\nnoise: share by which the second set is worse than the first (bound)");
    for m in END_TO_END {
        print!("{:<18}", m.name);
        for ((a, b), w) in first.iter().zip(second).zip(WORKLOADS) {
            let (x, y) = (json::metric(&a[0], m.name), json::metric(&b[0], m.name));
            let diff = match (x, y) {
                (Some(x), Some(y)) => worse_by(m.better, x, y),
                _ => f64::NAN,
            };
            print!(" {:>+9.3}", diff);
            if diff.is_nan() || diff.abs() > m.bound {
                problems.push(format!(
                    "{} on {}: {x:?} then {y:?}, bound {}",
                    m.name, w.name, m.bound
                ));
            }
        }
        println!(" ({})", m.bound);
    }
    for m in PER_LAYER
        .iter()
        .filter(|m| m.name.starts_with("spacecake.") && m.unit != "ms")
    {
        for ((a, b), w) in first.iter().zip(second).zip(WORKLOADS) {
            let (x, y) = (json::metric(&a[1], m.name), json::metric(&b[1], m.name));
            if x.is_none() || x != y {
                problems.push(format!("{} on {}: {x:?} then {y:?}", m.name, w.name));
            }
        }
    }
    problems
}

fn run_all(args: &Args) -> Result<(), String> {
    // A smoke run only shows that the harness builds, runs every drive
    // and conserves frames: two runs a side, one short ladder.
    let seconds = if args.smoke { 0.5 } else { args.seconds };
    // The noise check compares traced passes too, so it runs them all.
    let smoke = args.smoke && !args.check_noise;
    let first = run_set(args.seed, seconds, smoke)?;
    print_set(&first);
    if args.check_noise {
        let second = run_set(args.seed, seconds, smoke)?;
        print_set(&second);
        let problems = check_noise(&first, &second);
        if !problems.is_empty() {
            return Err(format!(
                "two sets of runs disagree:\n  {}",
                problems.join("\n  ")
            ));
        }
        println!("two sets of runs agree within every bound");
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if args.emit_manifest {
        print!("{}", metrics::manifest_json());
        return ExitCode::SUCCESS;
    }
    match &args.workload {
        Some(name) => match metrics::workload(name) {
            Some(w) => run_one(w, &args),
            None => {
                eprintln!("unknown workload '{name}'");
                ExitCode::from(2)
            }
        },
        None => match run_all(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(fps: f64, cycles: f64) -> [String; 2] {
        let mut e2e = String::from("{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{");
        for m in END_TO_END {
            write!(e2e, "\"{}\":{{\"value\":{fps},\"unit\":\"x\"}},", m.name).unwrap();
        }
        let mut layer = String::from("{\"metrics\":{");
        for m in PER_LAYER {
            write!(
                layer,
                "\"{}\":{{\"value\":{cycles},\"unit\":\"x\"}},",
                m.name
            )
            .unwrap();
        }
        [e2e, layer]
    }

    #[test]
    fn noise_check_applies_bounds_and_exact_counts() {
        let set = |fps, cycles| -> Set { WORKLOADS.iter().map(|_| line(fps, cycles)).collect() };
        assert!(check_noise(&set(100.0, 5.0), &set(104.0, 5.0)).is_empty());
        // 30 % apart: outside every bound, in both directions.
        let problems = check_noise(&set(100.0, 5.0), &set(130.0, 5.0));
        assert_eq!(problems.len(), END_TO_END.len() * WORKLOADS.len());
        // A simulator count that moved at all is a problem; its wall time is not.
        let problems = check_noise(&set(100.0, 5.0), &set(100.0, 5.000001));
        assert_eq!(problems.len(), 3 * WORKLOADS.len(), "{problems:?}");
    }

    #[test]
    fn worse_by_follows_the_metric_direction() {
        assert_eq!(worse_by(Better::Lower, 10.0, 11.0), 0.1);
        assert_eq!(worse_by(Better::Higher, 10.0, 9.0), 0.1);
        assert!(worse_by(Better::Higher, 10.0, 12.0) < 0.0);
    }
}
