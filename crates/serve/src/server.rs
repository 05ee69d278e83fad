//! The serving front-end: TCP frame-protocol ingress over a shared
//! [`Runtime`], plus a minimal HTTP/1.1 gateway (see [`crate::http`]).
//!
//! One handler thread per TCP connection; requests on a connection are
//! processed in order. All connections share the one runtime, so graphs
//! spawned over one connection can be fed or drained over another (ids
//! are global).
//!
//! Graph specs come from the paper's application corpus
//! ([`apps::experiment::App`]): a `Spawn` request names an app id
//! (`pip1`, `jpip2`, `blur35`, …) and the server builds an instance the
//! way every [`apps::experiment`] build is made — inputs shared
//! refcount-only with the process-wide cache, outputs its own — so any
//! number of instances of the same app serve concurrently. Nothing over
//! the wire can read a served graph's frames back, so its sinks discard
//! them ([`wire_build`]).

use crate::protocol::{
    begin_frame, send_frame, size_body, Request, Response, WireDiagnostic, ALL_GRAPHS,
    SEVERITY_ERROR, SEVERITY_WARNING,
};
use crate::telemetry::{self, AdaptStatus, Telemetry};
use adapt::{
    Action, CandidateConfig, Controller, Decision, Lattice, Planner, Quality, SloPolicy, WindowObs,
};
use analyze::{AnalyzeOptions, Diagnostics, Severity};
use apps::experiment::{
    build_discarding, default_slices, reconfig_handle, App, AppConfig, Built, ReconfigHandle, Scale,
};
use apps::registry::{registry, AppAssets};
use hinch::{Event, GraphId, GraphStats, Runtime, RuntimeConfig, ServeError, SpawnOpts};
use std::collections::HashMap;
use std::io::{self, Read};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use trace::json::{array, JsonObject};

/// Read-timeout granularity on accepted frame-protocol streams: how
/// often a handler blocked waiting for the next request re-checks the
/// stop flag, so [`Server::run`]'s join cannot hang on an idle-but-
/// connected client after a shutdown request.
const READ_POLL: Duration = Duration::from_millis(250);

/// Cadence of the background telemetry collector: each wakeup reads the
/// pool's cumulative counters and closes one rolling-window interval. Also bounds shutdown latency of the collector
/// thread, so it doubles as its stop-poll granularity.
const COLLECT_INTERVAL: Duration = Duration::from_millis(250);

/// Longest a `Stats` request that would get the reply its connection got
/// last time is held for something to happen (see [`serve_connection`]).
/// Long enough that a polling client costs the worker pool next to
/// nothing, short enough that a poll is never a noticeable wait.
pub(crate) const PROGRESS_WAIT: Duration = Duration::from_millis(1);

/// How often a held request looks at [`Runtime::progress`] again.
const PROGRESS_POLL: Duration = Duration::from_micros(50);

/// Wait until `rt.progress()` no longer reads `seen`, `stop()` holds, or
/// [`PROGRESS_WAIT`] has passed — whichever is first; at once if progress
/// has already moved. A sleep-poll on counters the runtime keeps anyway,
/// so a waiter costs the workers nothing.
pub(crate) fn await_progress(rt: &Runtime, seen: u64, stop: impl Fn() -> bool) {
    let until = Instant::now() + PROGRESS_WAIT;
    while rt.progress() == seen && !stop() && Instant::now() < until {
        std::thread::sleep(PROGRESS_POLL);
    }
}

/// Build the corpus app a wire `Spawn` names. Its sinks discard their
/// input: no opcode reads frames back, and a graph lives until its client
/// drains it, so captured output would only ever grow.
pub(crate) fn wire_build(app: App, scale: Scale) -> Built {
    build_discarding(AppConfig {
        app,
        scale,
        frames: 0, // frames are streamed in via Submit
    })
}

/// Drop the handles of handler threads that have exited, so a server
/// that sees many short connections does not keep one per connection
/// ever made.
pub(crate) fn reap_finished(joins: &mut Vec<JoinHandle<()>>) {
    joins.retain(|j| !j.is_finished());
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads of the shared runtime.
    pub workers: usize,
    /// Scale the apps are built at.
    pub scale: Scale,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            scale: Scale::Small,
        }
    }
}

/// Render one [`GraphStats`] as a JSON object, via the crate's single
/// JSON writer ([`trace::json`] — the workspace is dependency-free by
/// design, so JSON is hand-rolled, but only once).
pub fn stats_json(s: &GraphStats) -> String {
    JsonObject::new()
        .num("id", s.id.0)
        .str("label", &s.label)
        .num("submitted", s.submitted)
        .num("completed", s.completed)
        .num("inflight", s.inflight)
        .num("reconfigs", s.reconfigs)
        .num("jobs_executed", s.jobs_executed)
        .f1("latency_mean_ns", s.latency.mean())
        .num("latency_p50_ns", s.latency.quantile(0.5))
        .num("latency_p99_ns", s.latency.quantile(0.99))
        .num("shed", s.shed)
        .opt_str("failure", s.failure.as_deref())
        .build()
}

fn stats_array_json(all: &[GraphStats]) -> String {
    array(all.iter().map(stats_json))
}

/// Why a request was not served: an operational error (unknown graph,
/// backpressure, bad input) or a spawn *rejected* by the static analyzer
/// with its structured diagnostics.
pub(crate) enum Refusal {
    Error(String),
    Rejected(Vec<WireDiagnostic>),
}

impl From<String> for Refusal {
    fn from(msg: String) -> Self {
        Refusal::Error(msg)
    }
}

/// Flatten analyzer diagnostics for the wire (spans and fix-its stay
/// server-side; the stable code + severity + message travel).
pub(crate) fn wire_diagnostics(diags: &Diagnostics) -> Vec<WireDiagnostic> {
    diags
        .iter()
        .map(|d| WireDiagnostic {
            severity: match d.severity {
                Severity::Error => SEVERITY_ERROR,
                Severity::Warning => SEVERITY_WARNING,
            },
            code: d.code.to_string(),
            message: d.message.clone(),
        })
        .collect()
}

/// Gate a spawn on the analyzer's verdict: any `Severity::Error` finding
/// rejects the graph before it reaches the runtime. Warnings pass (the
/// client can still see them in the server log someday; they don't make
/// the graph unsound).
fn admit(diags: &Diagnostics) -> Result<(), Refusal> {
    if diags.has_errors() {
        Err(Refusal::Rejected(wire_diagnostics(diags)))
    } else {
        Ok(())
    }
}

/// One graph's closed-loop SLO governor: the `crates/adapt` controller
/// plus the app's external-reconfiguration handle and the last decision,
/// for telemetry exposition.
///
/// The live controller holds *quality-only* authority: its candidate
/// lattice is pinned to the graph's spawned slice count and depth, so
/// every relief/recovery move is a quality toggle — actuated as a
/// manager-queue event via [`Runtime::inject`], which the graph applies
/// at its next quiescent point. Slice / depth moves need a drain +
/// respawn (a new graph id) and live in the scenario harness
/// (`adapt::scenario`, `serve::load::run_burst_replay`) instead.
struct SloGov {
    app: App,
    controller: Controller,
    handle: ReconfigHandle,
    last: Option<Decision>,
}

/// The shared server state handler threads operate on.
pub(crate) struct Inner {
    pub(crate) runtime: Runtime,
    pub(crate) scale: Scale,
    workers: usize,
    pub(crate) stop: AtomicBool,
    /// Live-telemetry state: the windowed analyzer.
    pub(crate) telemetry: Telemetry,
    /// Attached SLO governors, keyed by graph id. Ticked by the
    /// collector thread after each telemetry sample.
    adapt: Mutex<HashMap<u32, SloGov>>,
}

impl Inner {
    /// Execute one request against the runtime. Used by both the TCP and
    /// the HTTP front-end — the protocols differ, the semantics don't.
    pub(crate) fn handle(&self, req: Request) -> Response {
        match self.apply(req) {
            Ok(payload) => Response::Ok(payload),
            Err(Refusal::Error(e)) => Response::Err(e),
            Err(Refusal::Rejected(diags)) => Response::Rejected(diags),
        }
    }

    fn apply(&self, req: Request) -> Result<Vec<u8>, Refusal> {
        let serve = |r: Result<Vec<u8>, ServeError>| r.map_err(|e| Refusal::Error(e.to_string()));
        match req {
            Request::Spawn {
                app,
                pipeline_depth,
                max_backlog,
            } => {
                let app = App::parse(&app).ok_or(format!(
                    "unknown app '{app}' (expected one of pip1..blur35)"
                ))?;
                let built = wire_build(app, self.scale);
                // Static gate: the corpus self-checks clean, but specs
                // still pass through the analyzer so a corrupted build
                // (or a future app regression) is rejected with XA
                // diagnostics instead of admitted and left to misbehave.
                admit(&analyze::check_spec(&built.spec))?;
                self.spawn_spec(&built.spec, app.id(), pipeline_depth, max_backlog)
            }
            Request::SpawnXspcl {
                source,
                pipeline_depth,
                max_backlog,
            } => {
                // Full static analysis first (stubbed registry — no
                // component instantiation), so unsound documents are
                // rejected with their XA diagnostics before any real
                // elaboration work happens.
                let diags = analyze::check_source(&source, &AnalyzeOptions::default())
                    .map_err(|e| format!("unreadable XSPCL document: {e}"))?;
                admit(&diags)?;
                let assets = AppAssets::discarding();
                let elaborated =
                    xspcl::compile(&source, &registry(&assets)).map_err(|e| e.to_string())?;
                let label = format!("xspcl:{:.32}", doc_name(&source));
                self.spawn_spec(&elaborated.spec, &label, pipeline_depth, max_backlog)
            }
            Request::Submit { graph, frames } => serve(
                self.runtime
                    .submit(GraphId(graph), frames)
                    .map(|accepted| accepted.to_be_bytes().to_vec()),
            ),
            Request::Inject {
                graph,
                queue,
                kind,
                payload,
            } => serve(
                self.runtime
                    .inject(GraphId(graph), &queue, Event::with_payload(kind, payload))
                    .map(|()| Vec::new()),
            ),
            Request::Stats { graph } => {
                let json = if graph == ALL_GRAPHS {
                    stats_array_json(&self.runtime.all_stats())
                } else {
                    stats_json(
                        &self
                            .runtime
                            .stats(GraphId(graph))
                            .map_err(|e| e.to_string())?,
                    )
                };
                Ok(json.into_bytes())
            }
            Request::Drain { graph } => serve(
                self.runtime
                    .drain(GraphId(graph))
                    .map(|stats| stats_json(&stats).into_bytes()),
            ),
            Request::Telemetry { format } => Ok(self.telemetry_payload(format)?.into_bytes()),
            Request::AttachSlo {
                graph,
                target_p99_ns,
                low_watermark_bits,
                cooldown_ticks,
                min_samples,
                max_backlog,
            } => self.attach_slo(
                graph,
                SloPolicy {
                    target_p99_ns,
                    low_watermark: f64::from_bits(low_watermark_bits),
                    cooldown_ticks,
                    min_samples,
                    max_backlog,
                },
            ),
            Request::DetachSlo { graph } => self.detach_slo(graph),
            Request::Ping => Ok(Vec::new()),
            Request::Shutdown => {
                self.stop.store(true, Ordering::SeqCst);
                Ok(Vec::new())
            }
        }
    }

    /// Sample the pool's counters and render one consistent telemetry
    /// snapshot in the requested format. Shared by the wire `Telemetry`
    /// opcode and the HTTP `GET /metrics` route.
    pub(crate) fn telemetry_payload(&self, format: u8) -> Result<String, Refusal> {
        self.telemetry.sample(&self.runtime);
        let live = self.telemetry.summary();
        let pool = self.runtime.telemetry();
        let stats = self.runtime.all_stats();
        let adapt = self.adapt_status();
        match format {
            telemetry::FORMAT_JSON => Ok(telemetry::telemetry_json(&pool, &stats, &live, &adapt)),
            telemetry::FORMAT_PROMETHEUS => {
                Ok(telemetry::prometheus_text(&pool, &stats, &live, &adapt))
            }
            telemetry::FORMAT_TABLE => Ok(telemetry::render_top(&pool, &live)),
            other => Err(Refusal::Error(format!(
                "unknown telemetry format {other} (0 json, 1 prometheus, 2 table)"
            ))),
        }
    }

    /// Attach (or replace) an SLO governor on a live graph. The graph
    /// must run one of the corpus's *reconfigurable* apps — only they
    /// carry a quality option the controller can actuate without a
    /// drain. The candidate lattice is pinned to the app's default slice
    /// count at depth 1 with an unbounded frame budget: the planner
    /// still orders the quality modes by predicted period (that ordering
    /// is what relief moves need), while absolute cycle budgets belong
    /// to the virtual scenario harness where deadline and period share
    /// units.
    fn attach_slo(&self, graph: u32, policy: SloPolicy) -> Result<Vec<u8>, Refusal> {
        let stats = self
            .runtime
            .stats(GraphId(graph))
            .map_err(|e| Refusal::Error(e.to_string()))?;
        let app = App::parse(&stats.label).ok_or_else(|| {
            Refusal::Error(format!(
                "graph {graph} runs '{}', which is not a corpus app",
                stats.label
            ))
        })?;
        let handle = reconfig_handle(app).ok_or_else(|| {
            Refusal::Error(format!(
                "app '{}' has no quality option to govern (reconfigurable: pip12, jpip12, blur35)",
                app.id()
            ))
        })?;
        policy.validate().map_err(Refusal::Error)?;
        let target_p99_ns = policy.target_p99_ns;
        let slices = default_slices(app, self.scale);
        let lattice = Lattice {
            slices: vec![slices],
            depths: vec![1],
        };
        let rated = adapt::plan::rate_app(app, self.scale, &lattice, self.workers);
        let candidates = rated.len();
        let planner = Planner::new(rated, f64::MAX);
        let initial = CandidateConfig {
            quality: Quality::Full,
            slices,
            pipeline_depth: 1,
        };
        // Set-style handles are idempotent: sync the graph to the
        // controller's optimistic initial quality so belief and graph
        // state agree from the first tick. Toggle-style handles have no
        // idempotent sync; the controller steers relatively.
        if !handle.toggles {
            let _ = self.runtime.inject(
                GraphId(graph),
                handle.queue,
                Event::with_payload(handle.event, handle.full_payload),
            );
        }
        let json = JsonObject::new()
            .num("graph", graph)
            .str("app", app.id())
            .str("config", &initial.label())
            .num("target_p99_ns", target_p99_ns)
            .num("candidates", candidates as u64)
            .build();
        self.adapt.lock().unwrap().insert(
            graph,
            SloGov {
                app,
                controller: Controller::new(policy, planner, initial),
                handle,
                last: None,
            },
        );
        Ok(json.into_bytes())
    }

    /// Detach a graph's SLO governor; reports its final counters.
    fn detach_slo(&self, graph: u32) -> Result<Vec<u8>, Refusal> {
        let gov =
            self.adapt.lock().unwrap().remove(&graph).ok_or_else(|| {
                Refusal::Error(format!("no SLO policy attached to graph {graph}"))
            })?;
        let c = gov.controller.counters();
        Ok(JsonObject::new()
            .num("graph", graph)
            .str("app", gov.app.id())
            .num("ticks", gov.controller.ticks())
            .num("hold", c.hold)
            .num("toggle", c.toggle)
            .num("resize", c.resize)
            .num("step_depth", c.step_depth)
            .build()
            .into_bytes())
    }

    /// One controller tick for every attached governor, fed from the
    /// rolling telemetry window closed by the latest sample. Quality
    /// toggles are actuated as manager-queue events ([`Runtime::inject`]
    /// applies them at the graph's next quiescent point); governors
    /// whose graph has been drained are reaped.
    pub(crate) fn adapt_tick(&self) {
        let mut govs = self.adapt.lock().unwrap();
        if govs.is_empty() {
            return;
        }
        govs.retain(|gid, _| self.runtime.stats(GraphId(*gid)).is_ok());
        let live = self.telemetry.summary();
        for (gid, gov) in govs.iter_mut() {
            let Some(w) = live.graphs.iter().find(|g| g.graph == *gid) else {
                continue; // no window yet (graph younger than a tick)
            };
            let d = gov.controller.observe(&WindowObs::from_window(w));
            if let Action::Toggle { to } = d.action {
                let payload = match to {
                    Quality::Degraded => gov.handle.degraded_payload,
                    Quality::Full => gov.handle.full_payload,
                };
                // A failed inject means the graph raced a drain; the
                // governor is reaped on the next tick.
                let _ = self.runtime.inject(
                    GraphId(*gid),
                    gov.handle.queue,
                    Event::with_payload(gov.handle.event, payload),
                );
            }
            gov.last = Some(d);
        }
    }

    /// Snapshot every governor for the telemetry exporters, in graph-id
    /// order (deterministic output for a fixed state).
    fn adapt_status(&self) -> Vec<AdaptStatus> {
        let govs = self.adapt.lock().unwrap();
        let mut out: Vec<AdaptStatus> = govs
            .iter()
            .map(|(gid, gov)| {
                let c = gov.controller.counters();
                let cur = gov.controller.current();
                AdaptStatus {
                    graph: *gid,
                    app: gov.app.id().to_string(),
                    config: cur.label(),
                    quality_full: cur.quality == Quality::Full,
                    target_p99_ns: gov.controller.policy().target_p99_ns,
                    ticks: gov.controller.ticks(),
                    hold: c.hold,
                    toggle: c.toggle,
                    resize: c.resize,
                    step_depth: c.step_depth,
                    last_action: gov
                        .last
                        .as_ref()
                        .map(|d| d.action.label().to_string())
                        .unwrap_or_default(),
                    last_reason: gov
                        .last
                        .as_ref()
                        .map(|d| d.reason.to_string())
                        .unwrap_or_default(),
                }
            })
            .collect();
        out.sort_by_key(|a| a.graph);
        out
    }

    /// Instantiate and admit an analyzer-approved spec. Component
    /// factories can still panic (e.g. an XSPCL document naming an
    /// unregistered video asset — a resource question the static
    /// analyzer cannot settle); instantiation runs before the runtime
    /// mutates any shared state, so the panic is caught here and
    /// surfaced as a structured error instead of killing the connection
    /// handler.
    fn spawn_spec(
        &self,
        spec: &hinch::GraphSpec,
        label: &str,
        pipeline_depth: u32,
        max_backlog: u64,
    ) -> Result<Vec<u8>, Refusal> {
        let opts = SpawnOpts::new(label)
            .pipeline_depth(pipeline_depth.max(1) as usize)
            .max_backlog(max_backlog.max(1));
        let spawned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.runtime.spawn(spec, opts)
        }))
        .map_err(|payload| {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("component factory panicked");
            Refusal::Error(format!("spawn failed: {msg}"))
        })?;
        let id = spawned.map_err(|e| Refusal::Error(e.to_string()))?;
        Ok(id.0.to_be_bytes().to_vec())
    }
}

/// Best-effort application name out of an XSPCL document, for the graph
/// label (the document has already parsed by the time this runs — this
/// is cosmetic, not parsing).
fn doc_name(source: &str) -> &str {
    source
        .split_once("name=\"")
        .and_then(|(_, rest)| rest.split_once('"'))
        .map(|(name, _)| name)
        .unwrap_or("anonymous")
}

/// A bound, not-yet-running server. [`Server::run`] blocks until a
/// `Shutdown` request arrives (over TCP or HTTP).
pub struct Server {
    inner: Arc<Inner>,
    tcp: TcpListener,
    http: Option<TcpListener>,
}

impl Server {
    /// Bind the frame-protocol listener on `addr` and optionally the
    /// HTTP gateway on `http_addr`. Use port 0 for an ephemeral port and
    /// read it back via [`Server::tcp_addr`] / [`Server::http_addr`].
    pub fn bind(
        cfg: ServerConfig,
        addr: impl ToSocketAddrs,
        http_addr: Option<&str>,
    ) -> io::Result<Server> {
        let tcp = TcpListener::bind(addr)?;
        let http = match http_addr {
            Some(a) => Some(TcpListener::bind(a)?),
            None => None,
        };
        Ok(Server {
            inner: Arc::new(Inner {
                runtime: Runtime::new(RuntimeConfig::new(cfg.workers)),
                scale: cfg.scale,
                workers: cfg.workers,
                stop: AtomicBool::new(false),
                telemetry: Telemetry::new(),
                adapt: Mutex::new(HashMap::new()),
            }),
            tcp,
            http,
        })
    }

    pub fn tcp_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.tcp.local_addr()
    }

    pub fn http_addr(&self) -> Option<std::net::SocketAddr> {
        self.http.as_ref().and_then(|l| l.local_addr().ok())
    }

    /// Accept and serve connections until shutdown. Handler threads for
    /// open connections exit when their peer disconnects or the next
    /// request completes after shutdown.
    pub fn run(self) -> io::Result<()> {
        let Server { inner, tcp, http } = self;
        let tcp_addr = tcp.local_addr()?;
        let mut joins = Vec::new();
        let http_addr = http.as_ref().and_then(|l| l.local_addr().ok());
        if let Some(http) = http {
            let inner = Arc::clone(&inner);
            joins.push(
                std::thread::Builder::new()
                    .name("serve-http".into())
                    .spawn(move || crate::http::accept_loop(http, inner, tcp_addr))?,
            );
        }
        // Collector: samples the pool's counters and closes one analyzer
        // interval at a fixed cadence, so the rolling window advances
        // even when nobody is scraping; each closed interval then feeds
        // one observation window to every attached SLO governor
        // (`adapt_tick`). Checks the stop flag every sleep slice, so
        // shutdown joins promptly.
        {
            let inner = Arc::clone(&inner);
            joins.push(
                std::thread::Builder::new()
                    .name("serve-telemetry".into())
                    .spawn(move || {
                        while !inner.stop.load(Ordering::SeqCst) {
                            std::thread::sleep(COLLECT_INTERVAL);
                            inner.telemetry.sample(&inner.runtime);
                            inner.adapt_tick();
                        }
                    })?,
            );
        }
        for conn in tcp.incoming() {
            if inner.stop.load(Ordering::SeqCst) {
                break;
            }
            reap_finished(&mut joins);
            let stream = match conn {
                Ok(s) => s,
                Err(_) => continue,
            };
            let inner = Arc::clone(&inner);
            joins.push(
                std::thread::Builder::new()
                    .name("serve-conn".into())
                    .spawn(move || {
                        let _ = serve_connection(stream, &inner);
                        // The connection that carried Shutdown unblocks
                        // the accept loop by poking it.
                        if inner.stop.load(Ordering::SeqCst) {
                            let _ = TcpStream::connect(tcp_addr);
                        }
                    })?,
            );
        }
        // Unblock the HTTP accept loop (shutdown may have arrived over
        // the frame protocol).
        if let Some(addr) = http_addr {
            let _ = TcpStream::connect(addr);
        }
        for j in joins {
            let _ = j.join();
        }
        inner.runtime.shutdown();
        Ok(())
    }
}

/// Serve one frame-protocol connection: requests in order, one response
/// each, through one request buffer and one response buffer.
///
/// The one request that may wait is a `Stats` (one graph or all) arriving
/// while [`Runtime::progress`] still reads what it read when this
/// connection's previous `Stats` reply was rendered: the reply would
/// repeat the last one, so it is held ([`await_progress`]) and then
/// answered with the state of that moment. A client polling `Stats` for
/// completions is thereby paced to the events it is waiting for instead
/// of spinning against the worker pool. The first `Stats` of a connection
/// and every other opcode are answered at once.
fn serve_connection(mut stream: TcpStream, inner: &Inner) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(READ_POLL))?;
    let (mut body, mut frame) = (Vec::new(), Vec::new());
    let mut stats_seen: Option<u64> = None;
    while read_frame_interruptible(&mut stream, &inner.stop, &mut body)? {
        let resp = match Request::decode(&body) {
            Ok(req) => {
                if matches!(req, Request::Stats { .. }) {
                    if let Some(seen) = stats_seen {
                        await_progress(&inner.runtime, seen, || inner.stop.load(Ordering::SeqCst));
                    }
                    // Read before rendering: a reply at least this new.
                    stats_seen = Some(inner.runtime.progress());
                }
                inner.handle(req)
            }
            Err(e) => Response::Err(format!("bad request: {e}")),
        };
        begin_frame(&mut frame);
        if let Err(e) = resp.encode_into(&mut frame) {
            // A payload that does not encode still yields a clean frame.
            begin_frame(&mut frame);
            Response::Err(format!("response encoding failed: {e}"))
                .encode_into(&mut frame)
                .expect("an error response is a status byte and raw UTF-8");
        }
        send_frame(&mut stream, &mut frame)?;
        if inner.stop.load(Ordering::SeqCst) {
            break;
        }
    }
    Ok(())
}

/// [`crate::protocol::read_frame_into`] over a stream with a read
/// timeout: timeout wakeups re-check `stop` instead of tearing the
/// connection down, so an idle client keeps its connection across quiet
/// periods yet cannot block [`Server::run`]'s handler joins after
/// shutdown. Partial reads are buffered across wakeups — a slow client
/// mid-frame never desyncs the stream. Returns `false` on clean EOF or
/// shutdown at a frame boundary.
fn read_frame_interruptible(
    stream: &mut TcpStream,
    stop: &AtomicBool,
    body: &mut Vec<u8>,
) -> io::Result<bool> {
    let mut prefix = [0u8; 4];
    if !read_full(stream, &mut prefix, stop)? {
        return Ok(false);
    }
    size_body(body, prefix)?;
    if !read_full(stream, body, stop)? {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "truncated frame",
        ));
    }
    Ok(true)
}

/// Fill `buf`, tolerating read-timeout wakeups. Returns `Ok(false)`
/// when the peer closed or `stop` was raised before the first byte of
/// `buf` arrived; EOF or shutdown mid-buffer is an error.
fn read_full(stream: &mut TcpStream, buf: &mut [u8], stop: &AtomicBool) -> io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => {
                return if filled == 0 {
                    Ok(false)
                } else {
                    Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "peer closed mid-frame",
                    ))
                }
            }
            Ok(n) => filled += n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if stop.load(Ordering::SeqCst) {
                    return if filled == 0 {
                        Ok(false)
                    } else {
                        Err(io::Error::new(io::ErrorKind::TimedOut, "shutting down"))
                    };
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}
