//! `hinch-serve` — the serving runtime CLI.
//!
//! ```text
//! hinch-serve serve  [--addr 127.0.0.1:7070] [--http 127.0.0.1:7071]
//!                    [--workers N] [--scale small|paper]
//! hinch-serve load   [--graphs N] [--workers N] [--rate FPS]
//!                    [--duration-ms MS] [--seed S] [--mix pip1,blur3,...]
//!                    [--depth D] [--backlog B] [--no-burst] [--json PATH]
//! hinch-serve top    [--addr 127.0.0.1:7070] [--once] [--interval-ms MS] [--count N]
//! hinch-serve smoke  [--frames N]
//! hinch-serve scenario [--app pip12] [--seed S] [--stepped] [--execute] [--max-frames N]
//! ```
//!
//! * `serve` — run the front-end until a `Shutdown` request arrives;
//! * `load` — in-process open-loop load run, report as JSON;
//! * `scenario` — the seeded bursty-replay scenario (`crates/adapt`):
//!   prints the deterministic replay log (decision schedule, static
//!   sweep, adaptive-vs-best-static verdict); `--execute` additionally
//!   re-executes the decision schedule on the real runtime and prints
//!   the output digest. Byte-identical across runs of the same seed —
//!   `scripts/ci.sh` diffs two runs;
//! * `top` — live rolling-window view of a running server (throughput,
//!   p50/p99, backlog, dominant stall per graph), rendered server-side
//!   from the pool's counters; `--once` prints one snapshot and exits
//!   (deterministic for a fixed runtime state);
//! * `smoke` — end-to-end self-test over real sockets (used by
//!   `scripts/ci.sh`): start a server, time 20 pings (a median of 10 ms
//!   or more fails), push frames over TCP, inject a reconfiguration
//!   event, scrape and validate `GET /metrics`, render
//!   `top --once`, verify responses and clean shutdown.

use apps::experiment::{App, Scale};
use serve::load::{run_burst_replay, run_open_loop, LoadConfig, LoadReport, ReplayConfig};
use serve::{Client, Server, ServerConfig, FORMAT_JSON, FORMAT_PROMETHEUS, FORMAT_TABLE};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Duration;

fn usage() -> ExitCode {
    eprintln!(
        "usage: hinch-serve serve [--addr A] [--http A] [--workers N] [--scale small|paper]\n\
         \x20      hinch-serve load  [--graphs N] [--workers N] [--rate FPS] [--duration-ms MS]\n\
         \x20                        [--seed S] [--mix a,b,..] [--depth D] [--backlog B]\n\
         \x20                        [--no-burst] [--json PATH]\n\
         \x20      hinch-serve top   [--addr A] [--once] [--interval-ms MS] [--count N]\n\
         \x20      hinch-serve smoke [--frames N]\n\
         \x20      hinch-serve scenario [--app pip12] [--seed S] [--stepped] [--execute]\n\
         \x20                        [--max-frames N]"
    );
    ExitCode::from(2)
}

/// `--key value` pairs after the subcommand.
struct Args(Vec<String>);

impl Args {
    fn get(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == key)
            .and_then(|i| self.0.get(i + 1))
            .map(|s| s.as_str())
    }

    fn flag(&self, key: &str) -> bool {
        self.0.iter().any(|a| a == key)
    }

    fn parse<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            Some(v) => v.parse().map_err(|_| format!("bad value for {key}: {v}")),
            None => Ok(default),
        }
    }
}

fn parse_scale(s: &str) -> Result<Scale, String> {
    match s {
        "small" => Ok(Scale::Small),
        "paper" => Ok(Scale::Paper),
        _ => Err(format!("bad scale '{s}' (small|paper)")),
    }
}

fn parse_mix(s: &str) -> Result<Vec<App>, String> {
    s.split(',')
        .map(|id| App::parse(id).ok_or(format!("unknown app '{id}' in --mix")))
        .collect()
}

fn load_json(r: &LoadReport, cfg: &LoadConfig) -> String {
    let mut j = String::from("{\n");
    let _ = writeln!(j, "        \"graphs\": {},", r.graphs);
    let _ = writeln!(j, "        \"workers\": {},", r.workers);
    let _ = writeln!(
        j,
        "        \"mix\": [{}],",
        cfg.mix
            .iter()
            .map(|a| format!("\"{}\"", a.id()))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(j, "        \"seed\": {},", cfg.seed);
    let _ = writeln!(j, "        \"rate_fps\": {:.1},", cfg.rate_fps);
    let _ = writeln!(
        j,
        "        \"burst\": {},",
        match cfg.burst {
            Some(b) => format!(
                "{{\"period_ms\": {}, \"len_ms\": {}, \"factor\": {:.1}}}",
                b.period.as_millis(),
                b.len.as_millis(),
                b.factor
            ),
            None => "null".to_string(),
        }
    );
    let _ = writeln!(j, "        \"duration_ms\": {},", cfg.duration.as_millis());
    let _ = writeln!(j, "        \"offered\": {},", r.offered);
    let _ = writeln!(j, "        \"accepted\": {},", r.accepted);
    let _ = writeln!(j, "        \"shed\": {},", r.shed);
    let _ = writeln!(j, "        \"completed\": {},", r.completed);
    let _ = writeln!(j, "        \"reconfigs\": {},", r.reconfigs);
    let _ = writeln!(j, "        \"elapsed_ms\": {},", r.elapsed.as_millis());
    let _ = writeln!(j, "        \"agg_fps\": {:.1},", r.agg_fps);
    let _ = writeln!(j, "        \"latency_mean_ns\": {:.1},", r.latency_mean_ns);
    let _ = writeln!(j, "        \"latency_p50_ns\": {},", r.latency_p50_ns);
    let _ = writeln!(j, "        \"latency_p99_ns\": {}", r.latency_p99_ns);
    j.push_str("    }");
    j
}

fn cmd_serve(args: &Args) -> Result<(), String> {
    let addr = args.get("--addr").unwrap_or("127.0.0.1:7070");
    let http = args.get("--http");
    let cfg = ServerConfig {
        workers: args.parse("--workers", 4usize)?,
        scale: parse_scale(args.get("--scale").unwrap_or("small"))?,
    };
    let server = Server::bind(cfg, addr, http).map_err(|e| format!("bind {addr}: {e}"))?;
    eprintln!(
        "hinch-serve: frame protocol on {}{}",
        server.tcp_addr().map_err(|e| e.to_string())?,
        match server.http_addr() {
            Some(a) => format!(", http on {a}"),
            None => String::new(),
        }
    );
    server.run().map_err(|e| format!("serve: {e}"))
}

fn build_load_config(args: &Args) -> Result<LoadConfig, String> {
    let defaults = LoadConfig::default();
    let mut cfg = LoadConfig {
        graphs: args.parse("--graphs", defaults.graphs)?,
        workers: args.parse("--workers", defaults.workers)?,
        rate_fps: args.parse("--rate", defaults.rate_fps)?,
        duration: Duration::from_millis(
            args.parse("--duration-ms", defaults.duration.as_millis() as u64)?,
        ),
        seed: args.parse("--seed", defaults.seed)?,
        pipeline_depth: args.parse("--depth", defaults.pipeline_depth)?,
        max_backlog: args.parse("--backlog", defaults.max_backlog)?,
        ..defaults
    };
    if let Some(mix) = args.get("--mix") {
        cfg.mix = parse_mix(mix)?;
    }
    if args.flag("--no-burst") {
        cfg.burst = None;
    }
    Ok(cfg)
}

fn cmd_load(args: &Args) -> Result<(), String> {
    let cfg = build_load_config(args)?;
    eprintln!(
        "hinch-serve load: {} graphs / {} workers, {:.0} fps offered for {} ms",
        cfg.graphs,
        cfg.workers,
        cfg.rate_fps,
        cfg.duration.as_millis()
    );
    let report = run_open_loop(&cfg);
    let json = format!("{{\n    \"open_loop\": {}\n}}\n", load_json(&report, &cfg));
    match args.get("--json") {
        Some(path) => std::fs::write(path, &json).map_err(|e| format!("write {path}: {e}"))?,
        None => print!("{json}"),
    }
    eprintln!(
        "hinch-serve load: {} offered, {} accepted ({} shed), {:.0} frames/s, p99 {} ns",
        report.offered, report.accepted, report.shed, report.agg_fps, report.latency_p99_ns
    );
    Ok(())
}

/// The seeded bursty-replay scenario: print the deterministic replay
/// log; with `--execute`, re-run the decision schedule on the real
/// runtime and print the (deterministic) execution summary. ci.sh diffs
/// two runs of this command byte-for-byte.
fn cmd_scenario(args: &Args) -> Result<(), String> {
    let app_id = args.get("--app").unwrap_or("pip12");
    let app = App::parse(app_id).ok_or(format!("unknown app '{app_id}'"))?;
    if !App::RECONFIG.contains(&app) {
        return Err(format!("app '{app_id}' has no quality option to adapt"));
    }
    let seed: u64 = args.parse("--seed", 42u64)?;
    let spec = if args.flag("--stepped") {
        adapt::ScenarioSpec::stepped(app, seed)
    } else {
        adapt::ScenarioSpec::small(app, seed)
    };
    let report = adapt::run_scenario(&spec);
    print!("{}", report.render_replay());
    if args.flag("--execute") {
        let mut cfg = ReplayConfig::small(app, seed);
        cfg.scenario = spec;
        cfg.max_frames = args.parse("--max-frames", cfg.max_frames)?;
        let r = run_burst_replay(&cfg);
        // Wall-clock latency is machine-dependent; print only the
        // deterministic fields so the two-run diff stays meaningful.
        println!(
            "execute frames={} toggles={} rebuilds={} reconfigs={} completed={} digest={}",
            r.frames, r.toggles, r.rebuilds, r.reconfigs, r.completed, r.output_digest
        );
    }
    Ok(())
}

fn cmd_top(args: &Args) -> Result<(), String> {
    let addr = args.get("--addr").unwrap_or("127.0.0.1:7070");
    let once = args.flag("--once");
    let interval = Duration::from_millis(args.parse("--interval-ms", 1000u64)?);
    let count: u64 = args.parse("--count", 0u64)?; // 0 = until interrupted
    let mut c = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut shown = 0u64;
    loop {
        let table = c
            .telemetry(FORMAT_TABLE)
            .map_err(|e| format!("telemetry: {e}"))?;
        print!("{table}");
        shown += 1;
        if once || (count > 0 && shown >= count) {
            return Ok(());
        }
        println!();
        std::thread::sleep(interval);
    }
}

fn cmd_smoke(args: &Args) -> Result<(), String> {
    let frames: u64 = args.parse("--frames", 6u64)?;
    let server = Server::bind(
        ServerConfig {
            workers: 2,
            scale: Scale::Small,
        },
        "127.0.0.1:0",
        Some("127.0.0.1:0"),
    )
    .map_err(|e| format!("bind: {e}"))?;
    let addr = server.tcp_addr().map_err(|e| e.to_string())?;
    let http = server.http_addr().ok_or("no http addr")?;
    let handle = std::thread::spawn(move || server.run());

    let step = |r: Result<(), String>| r;
    let mut c = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    step(c.ping().map_err(|e| format!("ping: {e}")))?;

    // A round trip on this socket costs microseconds. A frame leaving in
    // two writes, or an end without TCP_NODELAY, costs a delayed-ACK
    // timer (40 ms and more) per direction instead.
    let mut rtts = Vec::new();
    for _ in 0..20 {
        let t = std::time::Instant::now();
        c.ping().map_err(|e| format!("ping: {e}"))?;
        rtts.push(t.elapsed());
    }
    rtts.sort();
    let ping_p50 = rtts[rtts.len() / 2];
    println!("serve smoke: ping round trip p50 {ping_p50:?} (20 pings)");
    if ping_p50 >= Duration::from_millis(10) {
        return Err(format!(
            "ping round trip p50 {ping_p50:?} >= 10 ms: the socket path is stalling"
        ));
    }

    // A reconfigurable app: manager "m" on queue "mq", flip rule.
    let g = c
        .spawn("pip12", 3, frames * 2)
        .map_err(|e| format!("spawn: {e}"))?;
    let first = c.submit(g, frames).map_err(|e| format!("submit: {e}"))?;
    if first != frames {
        return Err(format!("submit accepted {first}/{frames}"));
    }
    c.inject(g, "mq", "flip", 0)
        .map_err(|e| format!("inject: {e}"))?;
    let second = c.submit(g, frames).map_err(|e| format!("submit2: {e}"))?;
    if second != frames {
        return Err(format!("second submit accepted {second}/{frames}"));
    }
    let drained = c.drain(g).map_err(|e| format!("drain: {e}"))?;
    let want = format!("\"completed\":{}", frames * 2);
    if !drained.contains(&want) {
        return Err(format!("drain stats missing {want}: {drained}"));
    }
    if drained.contains("\"reconfigs\":0,") {
        return Err(format!("injected flip was not applied: {drained}"));
    }

    // HTTP path: health + spawn/submit/drain a second tenant.
    use std::io::{Read, Write as _};
    let http_req = |req: String| -> Result<String, String> {
        let mut s = std::net::TcpStream::connect(http).map_err(|e| format!("http: {e}"))?;
        write!(s, "{req}").map_err(|e| format!("http write: {e}"))?;
        let mut out = String::new();
        s.read_to_string(&mut out)
            .map_err(|e| format!("http read: {e}"))?;
        Ok(out)
    };
    let health = http_req("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n".into())?;
    if !health.contains("{\"ok\":true}") {
        return Err(format!("healthz: {health}"));
    }
    let spawned =
        http_req("POST /spawn?app=blur3&depth=2&backlog=8 HTTP/1.1\r\nHost: x\r\n\r\n".into())?;
    let gid: u32 = spawned
        .rsplit_once("\"graph\":")
        .and_then(|(_, tail)| tail.trim_end_matches(['}', '\r', '\n']).parse().ok())
        .ok_or(format!("spawn over http: {spawned}"))?;
    let submitted = http_req(format!(
        "POST /submit?graph={gid}&frames=2 HTTP/1.1\r\nHost: x\r\n\r\n"
    ))?;
    if !submitted.contains("\"accepted\":2") {
        return Err(format!("submit over http: {submitted}"));
    }

    // Telemetry plane. Wait for the tenant's frames to retire so the
    // /metrics body carries a populated latency histogram, then scrape
    // and validate the exposition with the in-repo parser — the same
    // check a real scraper would fail on.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let stats = c.stats(gid).map_err(|e| format!("stats: {e}"))?;
        if stats.contains("\"completed\":2") {
            break;
        }
        if std::time::Instant::now() > deadline {
            return Err(format!("frames did not retire in time: {stats}"));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let metrics = http_req("GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n".into())?;
    if !metrics.contains("Content-Type: text/plain") {
        return Err(format!("/metrics content type: {metrics}"));
    }
    let body = metrics
        .split_once("\r\n\r\n")
        .map(|(_, b)| b)
        .ok_or("no /metrics body")?;
    let samples =
        serve::validate_prometheus(body).map_err(|e| format!("/metrics invalid: {e}\n{body}"))?;
    for want in [
        "hinch_graph_completed_total",
        "hinch_graph_frame_latency_ns_bucket",
        "hinch_worker_busy_seconds_total",
        "hinch_live_stall_seconds",
    ] {
        if !body.contains(want) {
            return Err(format!("/metrics missing {want}:\n{body}"));
        }
    }
    // The wire Telemetry opcode (JSON) and the `top` table path.
    let tj = c
        .telemetry(FORMAT_JSON)
        .map_err(|e| format!("telemetry json: {e}"))?;
    if !tj.contains("\"uptime_ns\":") || !tj.contains("\"workers\":[{") {
        return Err(format!("telemetry json malformed: {tj}"));
    }
    let prom_wire = c
        .telemetry(FORMAT_PROMETHEUS)
        .map_err(|e| format!("telemetry prometheus: {e}"))?;
    serve::validate_prometheus(&prom_wire).map_err(|e| format!("wire prometheus invalid: {e}"))?;
    cmd_top(&Args(vec![
        "--addr".into(),
        addr.to_string(),
        "--once".into(),
    ]))
    .map_err(|e| format!("top --once: {e}"))?;

    let drained = http_req(format!(
        "POST /drain?graph={gid} HTTP/1.1\r\nHost: x\r\n\r\n"
    ))?;
    if !drained.contains("\"completed\":2") {
        return Err(format!("drain over http: {drained}"));
    }

    c.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    drop(c);
    match handle.join() {
        Ok(Ok(())) => {}
        Ok(Err(e)) => return Err(format!("server exit: {e}")),
        Err(_) => return Err("server thread panicked".into()),
    }
    println!(
        "serve smoke: OK ({} frames over TCP + 1 wire reconfig + http tenant + {} validated metrics samples, clean shutdown)",
        frames * 2,
        samples
    );
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first() else {
        return usage();
    };
    let args = Args(argv[1..].to_vec());
    let result = match cmd.as_str() {
        "serve" => cmd_serve(&args),
        "load" => cmd_load(&args),
        "top" => cmd_top(&args),
        "smoke" => cmd_smoke(&args),
        "scenario" => cmd_scenario(&args),
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("hinch-serve: {e}");
            ExitCode::FAILURE
        }
    }
}
