//! Multi-graph serving front-end for the hinch runtime.
//!
//! The coordination language's runtime traditionally executes one graph
//! per process run. This crate turns it into a *service*: many graph
//! instances multiplexed over one shared worker pool
//! ([`hinch::Runtime`]), fed over the network — a length-prefixed TCP
//! frame protocol ([`protocol`]) plus a minimal HTTP gateway ([`http`])
//! for frame submission and manager-event injection (reconfiguration
//! over the wire) — with per-tenant admission control and an open-loop
//! load harness ([`load`]) that measures concurrent-graph throughput and
//! p99 frame latency.
//!
//! See `docs/SERVING.md` for the protocol framing, admission-control
//! semantics and load-generator usage; `hinch-serve --help` for the CLI.

pub mod client;
pub mod http;
pub mod load;
pub mod protocol;
pub mod server;
pub mod telemetry;

pub use client::{Client, ClientError};
pub use load::{
    run_burst_replay, run_open_loop, Burst, LoadConfig, LoadReport, ReplayConfig, ReplayReport,
};
pub use protocol::{Request, Response, WireDiagnostic, ALL_GRAPHS, MAX_FRAME};
pub use server::{stats_json, Server, ServerConfig};
pub use telemetry::{
    prometheus_text, render_top, telemetry_json, validate_prometheus, AdaptStatus, Telemetry,
    FORMAT_JSON, FORMAT_PROMETHEUS, FORMAT_TABLE,
};

#[cfg(test)]
mod tests {
    use super::*;
    use apps::experiment::{build, App, AppConfig, Built, Scale};
    use std::time::{Duration, Instant};

    /// A server on an ephemeral loopback port.
    fn serve(workers: usize, scale: Scale) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        let server =
            Server::bind(ServerConfig { workers, scale }, "127.0.0.1:0", None).expect("bind");
        let addr = server.tcp_addr().expect("addr");
        let handle = std::thread::spawn(move || server.run().expect("server run"));
        (addr, handle)
    }

    fn median(mut times: Vec<Duration>) -> Duration {
        times.sort();
        times[times.len() / 2]
    }

    fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
        let t = Instant::now();
        let out = f();
        (out, t.elapsed())
    }

    /// A round trip costs a round trip. With the prefix written apart
    /// from the body, or Nagle left on, every request and every reply
    /// waits out the peer's delayed ACK: 40 ms and more per direction.
    #[test]
    fn a_ping_round_trip_is_not_stalled_by_the_socket() {
        let (addr, handle) = serve(2, Scale::Small);
        let mut c = Client::connect(addr).expect("connect");
        let rtts = (0..50)
            .map(|_| timed(|| c.ping().expect("ping")).1)
            .collect();
        let p50 = median(rtts);
        assert!(p50 < Duration::from_millis(10), "median ping took {p50:?}");
        c.shutdown().expect("shutdown");
        handle.join().expect("server thread");
    }

    /// What a wire spawn builds keeps none of its output, however many
    /// frames run through it; an in-process build still captures them all.
    #[test]
    fn wire_spawned_graphs_keep_no_output() {
        const FRAMES: u64 = 64;
        let rt = hinch::Runtime::new(hinch::RuntimeConfig::new(2));
        let run = |built: &Built| {
            let id = rt
                .spawn(
                    &built.spec,
                    hinch::SpawnOpts::new("pip1").max_backlog(FRAMES),
                )
                .expect("spawn");
            assert_eq!(rt.submit(id, FRAMES).expect("submit"), FRAMES);
            assert_eq!(rt.drain(id).expect("drain").completed, FRAMES);
            let outputs = built.outputs();
            outputs
                .iter()
                .map(|port| port.len() as u64)
                .collect::<Vec<_>>()
        };
        let served = server::wire_build(App::Pip1, Scale::Small);
        assert_eq!(run(&served), [0, 0, 0], "a served graph kept frames");
        let in_process = build(AppConfig {
            app: App::Pip1,
            scale: Scale::Small,
            frames: 0,
        });
        assert_eq!(run(&in_process), [FRAMES; 3]);
        rt.shutdown();
    }

    /// The `Stats` hold, over a real connection: only a `Stats` that
    /// would repeat the connection's last reply waits, it waits no longer
    /// than the bound, and a completion releases it early.
    ///
    /// A held request with nothing in flight waits out
    /// [`server::PROGRESS_WAIT`], so a round trip shorter than that was not
    /// held. Load only lengthens round trips, so the fastest of nine tells
    /// held from not held on a busy host too.
    #[test]
    fn a_repeated_stats_is_held_until_something_happens() {
        let fastest = |trips: Vec<Duration>| trips.into_iter().min().expect("round trips");
        // One worker: on a two-thread host the handler and this client
        // then have a core to meet on, and the timings below are theirs.
        let (addr, handle) = serve(1, Scale::Paper);
        let mut c = Client::connect(addr).expect("connect");
        let g = c.spawn("jpip1", 2, 8).expect("spawn");
        let completed = |stats: &str| -> u64 {
            let (_, tail) = stats.split_once("\"completed\":").expect("completed");
            tail[..tail.find(',').expect("a field follows")]
                .parse()
                .expect("a count")
        };

        // The first Stats of a connection is answered at once.
        let firsts = (0..9)
            .map(|_| {
                let mut fresh = Client::connect(addr).expect("connect");
                timed(|| fresh.stats(g).expect("stats")).1
            })
            .collect();
        let first = fastest(firsts);
        assert!(
            first < server::PROGRESS_WAIT,
            "a first Stats was held: the fastest of nine took {first:?}"
        );

        // An immediate repeat with nothing in flight waits out the bound.
        c.stats(g).expect("stats");
        let (_, held) = timed(|| c.stats(g).expect("stats"));
        assert!(
            held >= server::PROGRESS_WAIT,
            "the repeat came back after {held:?}"
        );
        assert!(held < Duration::from_millis(50), "held for {held:?}");
        let (_, held) = timed(|| c.all_stats().expect("stats"));
        assert!(
            held >= server::PROGRESS_WAIT,
            "Stats of all graphs is held alike"
        );

        // Other opcodes between two identical Stats are not held.
        let pings = (0..9)
            .map(|_| {
                c.stats(g).expect("stats");
                timed(|| c.ping().expect("ping")).1
            })
            .collect();
        let ping = fastest(pings);
        assert!(
            ping < server::PROGRESS_WAIT,
            "a Ping was held: the fastest of nine took {ping:?}"
        );

        // Repeats issued while a frame is in flight (a paper-scale JPiP
        // frame outlasts the bound several times over) each wait out the
        // bound, except the one the frame's retirement releases: it shows
        // the completion and comes back sooner than the bound. The frame
        // may retire just as a hold runs out, so look for one clean
        // observation.
        let mut sent = 0;
        let woken = (0..20).any(|_| {
            assert_eq!(c.submit(g, 1).expect("submit"), 1);
            sent += 1;
            loop {
                let (stats, took) = timed(|| c.stats(g).expect("stats"));
                if completed(&stats) == sent {
                    break took < server::PROGRESS_WAIT;
                }
            }
        });
        assert!(woken, "no held Stats was released by a retirement");

        c.drain(g).expect("drain");
        c.shutdown().expect("shutdown");
        handle.join().expect("server thread");
    }

    /// End-to-end over real sockets: spawn, feed, reconfigure over the
    /// wire, drain, shut down.
    #[test]
    fn tcp_round_trip_serves_and_reconfigures() {
        let (addr, handle) = serve(2, Scale::Small);

        let mut c = Client::connect(addr).expect("connect");
        c.ping().expect("ping");
        // pip12 carries a manager ("m") on queue "mq" with a `flip` rule.
        let g = c.spawn("pip12", 2, 64).expect("spawn");
        assert_eq!(c.submit(g, 4).expect("submit"), 4);
        c.inject(g, "mq", "flip", 0).expect("inject");
        // These frames' manager entries run after the injection: the flip
        // is picked up and applied at quiescence.
        assert_eq!(c.submit(g, 4).expect("submit"), 4);
        let drained = c.drain(g).expect("drain");
        assert!(drained.contains("\"completed\":8"), "{drained}");
        assert!(!drained.contains("\"reconfigs\":0"), "{drained}");
        // Unknown app and unknown graph are reported, not fatal.
        assert!(matches!(c.spawn("nope", 1, 1), Err(ClientError::Server(_))));
        assert!(matches!(c.submit(77, 1), Err(ClientError::Server(_))));
        c.shutdown().expect("shutdown");
        drop(c);
        handle.join().expect("server thread");
    }

    /// The static-analysis admission gate, end-to-end: an unsound XSPCL
    /// document shipped over the wire comes back as a structured
    /// rejection with its `XA0xx` diagnostics; a sound document naming a
    /// missing asset fails with a structured error (the factory panic is
    /// caught); and in both cases the connection and the runtime keep
    /// serving.
    #[test]
    fn xspcl_spawn_analysis_gate_over_the_wire() {
        let (addr, handle) = serve(2, Scale::Small);
        let mut c = Client::connect(addr).expect("connect");

        // Analyze-dirty: 'snk' reads a stream nothing writes (XA014).
        let dirty = r#"<xspcl>
          <procedure name="main">
            <stream name="s"/><stream name="ghost"/>
            <body>
              <component name="src" class="gen"><out port="o" stream="s"/></component>
              <component name="snk" class="sink">
                <in port="a" stream="s"/><in port="b" stream="ghost"/>
              </component>
            </body>
          </procedure>
        </xspcl>"#;
        match c.spawn_xspcl(dirty, 1, 8) {
            Err(ClientError::Rejected(diags)) => {
                assert!(
                    diags.iter().any(|d| d.code == "XA014" && d.is_error()),
                    "expected an XA014 error, got {diags:?}"
                );
            }
            other => panic!("expected a static-analysis rejection, got {other:?}"),
        }

        // An unreadable document is an error, not a rejection.
        assert!(matches!(
            c.spawn_xspcl("<xspcl", 1, 8),
            Err(ClientError::Server(_))
        ));

        // Analysis-clean but naming an asset the server never
        // provisioned: the component factory's panic is caught and
        // surfaced as a structured error.
        let clean = r#"<xspcl>
          <procedure name="main">
            <stream name="y"/><stream name="out"/>
            <body>
              <component name="src" class="plane_source">
                <out port="o" stream="y"/>
                <param name="file" value="nosuch"/><param name="field" value="0"/>
              </component>
              <component name="p" class="pass"><in port="i" stream="y"/><out port="o" stream="out"/></component>
            </body>
          </procedure>
        </xspcl>"#;
        match c.spawn_xspcl(clean, 1, 8) {
            Err(ClientError::Server(msg)) => {
                assert!(msg.contains("not registered"), "{msg}")
            }
            other => panic!("expected a structured spawn failure, got {other:?}"),
        }

        // The connection and the shared runtime both survived all three.
        c.ping().expect("ping after rejected spawns");
        let g = c.spawn("pip1", 1, 8).expect("regular spawn still works");
        assert_eq!(c.submit(g, 1).expect("submit"), 1);
        c.drain(g).expect("drain");
        c.shutdown().expect("shutdown");
        handle.join().expect("server thread");
    }

    /// The closed-loop SLO plane, end-to-end over real sockets: attach a
    /// policy whose target no real graph can meet (1 ns p99), watch the
    /// collector-driven controller degrade quality, see the decision in
    /// both telemetry exports, and detach with the final counters. Also
    /// covers the refusal paths: unknown graph, non-reconfigurable app,
    /// detach without attach.
    #[test]
    fn slo_policy_attaches_and_decides_over_the_wire() {
        let (addr, handle) = serve(2, Scale::Small);
        let mut c = Client::connect(addr).expect("connect");

        // Refusals: no such graph; an app without a quality option.
        assert!(matches!(
            c.attach_slo(99, 1_000, 0.5, 0, 1, 1 << 30),
            Err(ClientError::Server(_))
        ));
        let static_g = c.spawn("pip1", 1, 8).expect("spawn pip1");
        match c.attach_slo(static_g, 1_000, 0.5, 0, 1, 1 << 30) {
            Err(ClientError::Server(msg)) => assert!(msg.contains("quality option"), "{msg}"),
            other => panic!("expected a refusal, got {other:?}"),
        }
        assert!(matches!(
            c.detach_slo(static_g),
            Err(ClientError::Server(_))
        ));
        c.drain(static_g).expect("drain pip1");

        // blur35 carries a set-style quality option (kernel size over
        // queue "mq"). A 1 ns target overloads on the first populated
        // window, so the controller must degrade.
        let g = c.spawn("blur35", 2, 1 << 20).expect("spawn blur35");
        let attached = c.attach_slo(g, 1, 0.5, 0, 1, 1 << 30).expect("attach slo");
        assert!(attached.contains("\"app\":\"blur35\""), "{attached}");
        assert!(attached.contains("\"config\":\"full/"), "{attached}");
        // Re-attach replaces the governor rather than erroring.
        c.attach_slo(g, 1, 0.5, 0, 1, 1 << 30).expect("re-attach");

        // Keep windows populated until the controller toggles (the
        // collector ticks every 250 ms; allow a generous deadline).
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        let mut submitted = 0u64;
        let decided = loop {
            submitted += c.submit(g, 4).expect("submit");
            let tj = c.telemetry(FORMAT_JSON).expect("telemetry json");
            assert!(tj.contains("\"adapt\":[{"), "{tj}");
            // The toggle *counter* is monotone; `last_action` is
            // overwritten by the holds that follow, so don't race it.
            if tj.contains("\"toggle\":1") {
                break tj;
            }
            if std::time::Instant::now() > deadline {
                panic!("controller never toggled: {tj}");
            }
            std::thread::sleep(std::time::Duration::from_millis(100));
        };
        assert!(decided.contains("\"app\":\"blur35\""), "{decided}");
        assert!(decided.contains("\"full_quality\":false"), "{decided}");

        // The same decision in the Prometheus exposition, and the body
        // still validates.
        let prom = c.telemetry(FORMAT_PROMETHEUS).expect("telemetry prom");
        validate_prometheus(&prom).expect("valid exposition");
        assert!(prom.contains("hinch_adapt_target_p99_ns{graph="), "{prom}");
        assert!(
            prom.contains("action=\"toggle\"} 1"),
            "one toggle so far:\n{prom}"
        );

        // Detach reports the final counters; a second detach is an error.
        let detached = c.detach_slo(g).expect("detach");
        assert!(detached.contains("\"toggle\":1"), "{detached}");
        assert!(matches!(c.detach_slo(g), Err(ClientError::Server(_))));
        let after = c.telemetry(FORMAT_JSON).expect("telemetry json");
        assert!(after.contains("\"adapt\":[]"), "{after}");

        let drained = c.drain(g).expect("drain");
        assert!(
            drained.contains(&format!("\"completed\":{submitted}")),
            "{drained}"
        );
        c.shutdown().expect("shutdown");
        drop(c);
        handle.join().expect("server thread");
    }

    #[test]
    fn http_gateway_round_trip() {
        use std::io::{Read, Write};
        let server = Server::bind(
            ServerConfig {
                workers: 2,
                scale: Scale::Small,
            },
            "127.0.0.1:0",
            Some("127.0.0.1:0"),
        )
        .expect("bind");
        let http = server.http_addr().expect("http addr");
        let mut c = Client::connect(server.tcp_addr().expect("tcp addr")).expect("connect");
        let handle = std::thread::spawn(move || server.run().expect("server run"));

        let get = |path: &str| -> String {
            let mut s = std::net::TcpStream::connect(http).expect("http connect");
            write!(s, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
            let mut out = String::new();
            s.read_to_string(&mut out).unwrap();
            out
        };
        let post = |path: &str| -> String {
            let mut s = std::net::TcpStream::connect(http).expect("http connect");
            write!(s, "POST {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
            let mut out = String::new();
            s.read_to_string(&mut out).unwrap();
            out
        };

        // `/metrics` and the wire telemetry in all three formats: both
        // expositions validate and carry exactly the `live` tenants'
        // series (the rolling window may still show a drained one).
        let mut observe = |live: &[u32], gone: &[u32]| {
            let scraped = get("/metrics");
            let body = scraped.split_once("\r\n\r\n").expect("/metrics body").1;
            let wire = c.telemetry(FORMAT_PROMETHEUS).expect("wire prometheus");
            let json = c.telemetry(FORMAT_JSON).expect("wire json");
            let table = c.telemetry(FORMAT_TABLE).expect("wire table");
            assert!(table.contains("pool: 2 workers"), "{table}");
            let series = |g: u32| format!("hinch_graph_completed_total{{graph=\"{g}\"");
            for text in [body, wire.as_str()] {
                validate_prometheus(text).expect("valid exposition");
                assert!(live.iter().all(|&g| text.contains(&series(g))), "{text}");
                assert!(!gone.iter().any(|&g| text.contains(&series(g))), "{text}");
            }
            assert!(
                json.contains(&format!("\"graphs\":{},", live.len())),
                "{json}"
            );
            for &g in live {
                assert!(json.contains(&format!("{{\"graph\":{g},")), "{json}");
            }
        };

        assert!(get("/healthz").contains("{\"ok\":true}"));
        let spawned = post("/spawn?app=blur3&depth=2&backlog=16");
        assert!(spawned.contains("\"graph\":0"), "{spawned}");
        let spawned = post("/spawn?app=pip1&depth=2&backlog=16");
        assert!(spawned.contains("\"graph\":1"), "{spawned}");
        let submitted = post("/submit?graph=0&frames=3");
        assert!(submitted.contains("\"accepted\":3"), "{submitted}");
        assert!(post("/submit?graph=1&frames=3").contains("\"accepted\":3"));
        observe(&[0, 1], &[]);
        let drained = post("/drain?graph=0");
        assert!(drained.contains("\"completed\":3"), "{drained}");
        observe(&[1], &[0]);
        assert!(post("/drain?graph=1").contains("\"completed\":3"));
        assert!(get("/stats").contains("[]"));
        assert!(post("/submit?graph=0&frames=1").contains("400"), "drained");
        assert!(post("/nope").contains("400"));
        post("/shutdown");
        handle.join().expect("server thread");
    }
}
