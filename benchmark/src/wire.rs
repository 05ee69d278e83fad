//! The wire driver: a `serve::Server` on a loopback port in this process,
//! one generator thread (the caller) with one `serve::Client` connection.
//! Everything the generator learns about a frame it learns by polling
//! `Client::all_stats()` on that same connection; frames of one graph
//! retire in submit order, so a completed count says which frames are done.

use crate::json;
use crate::schedule::{poisson, Rng};
use crate::spans::{SpanId, Spans};
use crate::stats::Summary;
use apps::experiment::{App, Scale};
use serve::{Client, Server, ServerConfig, FORMAT_JSON};
use std::collections::VecDeque;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Iterations in flight inside each served graph.
const PIPELINE_DEPTH: u32 = 3;
/// Accepted-but-not-retired frames a graph admits before it sheds.
const MAX_BACKLOG: u64 = 8;
/// Pause between two polls that found nothing new: bounds the observer's
/// CPU use, and with it how finely a completion is timed.
const POLL_PAUSE: Duration = Duration::from_micros(200);
/// A frame not observed complete this long after it was offered has
/// failed, and the closed loops move on.
const FRAME_TIMEOUT: Duration = Duration::from_secs(5);

/// Frame counts of a fleet. Conservation, checked when it stops:
/// `offered = accepted + shed + unsent` and `accepted = completed + failed`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    /// Frames the generator meant to send.
    pub offered: u64,
    /// Offered but not sent before the window closed.
    pub unsent: u64,
    /// Sent and admitted.
    pub accepted: u64,
    /// Sent and refused by admission control.
    pub shed: u64,
    /// Admitted and observed retired.
    pub completed: u64,
    /// Admitted and not retired: timed out, or the graph died.
    pub failed: u64,
}

impl Counts {
    /// Frames that did not complete correctly, of those offered.
    pub fn failed_share(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            (self.offered - self.completed) as f64 / self.offered as f64
        }
    }
}

/// What a fleet's server said when it was drained and shut down.
#[derive(Debug, Default)]
pub struct FleetEnd {
    pub counts: Counts,
    /// Conservation violations and `failure` replies; empty when correct.
    pub violations: Vec<String>,
    pub drain_ms: Vec<f64>,
    /// Mean accept → retire latency the runtime measured, per graph, ms.
    pub accept_to_retire_ms: Vec<f64>,
    /// From the telemetry snapshot taken before the drain.
    pub pool_busy_share: f64,
    pub parks: f64,
    pub steals: f64,
    pub ring_dropped: f64,
}

/// A server, a connection, and one graph per app.
pub struct Fleet {
    client: Client,
    server: Option<JoinHandle<()>>,
    apps: Vec<App>,
    graphs: Vec<u32>,
    /// Frames admitted per graph.
    sent: Vec<u64>,
    /// Frames retired per graph, as last observed.
    done: Vec<u64>,
    counts: Counts,
    /// Admitted frames not observed retired within their time limit.
    late: u64,
    /// Bind → last spawn reply.
    pub setup_s: f64,
    pub spawn_ms: Vec<f64>,
    pub submit_us: Vec<f64>,
    pub stats_us: Vec<f64>,
    violations: Vec<String>,
}

impl Fleet {
    /// Bind a server with `workers` workers, run it on a thread, connect
    /// and spawn one graph per app.
    pub fn start(workers: usize, scale: Scale, apps: &[App], spans: &mut Spans) -> Fleet {
        let t = Instant::now();
        let server = Server::bind(ServerConfig { workers, scale }, "127.0.0.1:0", None)
            .expect("bind a loopback port");
        let addr = server.tcp_addr().expect("bound address");
        let server = std::thread::Builder::new()
            .name("bench-server".into())
            .spawn(move || server.run().expect("server runs until shutdown"))
            .expect("spawn the server thread");
        let mut client = Client::connect(addr).expect("connect to the server");
        let mut spawn_ms = Vec::new();
        let graphs: Vec<u32> = apps
            .iter()
            .map(|app| {
                let t = Instant::now();
                let id = spans.time("client/spawn", None, 0, || {
                    client
                        .spawn(app.id(), PIPELINE_DEPTH, MAX_BACKLOG)
                        .expect("spawn a fleet graph")
                });
                spawn_ms.push(t.elapsed().as_secs_f64() * 1e3);
                id
            })
            .collect();
        Fleet {
            client,
            server: Some(server),
            apps: apps.to_vec(),
            sent: vec![0; graphs.len()],
            done: vec![0; graphs.len()],
            graphs,
            counts: Counts::default(),
            late: 0,
            setup_s: t.elapsed().as_secs_f64(),
            spawn_ms,
            submit_us: Vec::new(),
            stats_us: Vec::new(),
            violations: Vec::new(),
        }
    }

    fn inflight(&self) -> u64 {
        self.sent.iter().sum::<u64>() - self.done.iter().sum::<u64>()
    }

    /// Offer `n` frames to graph `target`; returns how many were admitted.
    fn submit(&mut self, target: usize, n: u64, spans: &mut Spans, parent: Option<SpanId>) -> u64 {
        let t = Instant::now();
        let span = spans.enter("client/submit", parent, self.counts.offered);
        let reply = self.client.submit(self.graphs[target], n);
        spans.exit(span);
        self.submit_us.push(t.elapsed().as_secs_f64() * 1e6);
        self.counts.offered += n;
        let accepted = match reply {
            Ok(accepted) => accepted,
            Err(e) => {
                self.violations
                    .push(format!("submit to {}: {e}", self.apps[target].id()));
                0
            }
        };
        self.counts.accepted += accepted;
        self.counts.shed += n - accepted;
        self.sent[target] += accepted;
        accepted
    }

    /// Read every graph's completed count.
    fn poll(&mut self, spans: &mut Spans, parent: Option<SpanId>) {
        let t = Instant::now();
        let span = spans.enter("client/stats", parent, 0);
        let reply = self.client.all_stats();
        spans.exit(span);
        self.stats_us.push(t.elapsed().as_secs_f64() * 1e6);
        match reply {
            Ok(all) => {
                for (g, &id) in self.graphs.iter().enumerate() {
                    match json::stats_of(&all, id).and_then(|o| json::number(o, "completed")) {
                        Some(done) => self.done[g] = done as u64,
                        None => self
                            .violations
                            .push(format!("graph {id} missing from stats: {all}")),
                    }
                }
            }
            Err(e) => self.violations.push(format!("stats: {e}")),
        }
    }

    /// Closed loop, one frame in flight: offer a frame to a seeded target,
    /// poll until it is observed retired, repeat until `budget` is spent.
    /// Returns offer → observed, in milliseconds, per frame.
    pub fn single_frames(
        &mut self,
        rng: &mut Rng,
        budget: Duration,
        spans: &mut Spans,
    ) -> Vec<f64> {
        let start = Instant::now();
        let mut ms = Vec::new();
        let mut n = 0u64;
        while start.elapsed() < budget {
            let target = rng.below(self.graphs.len());
            let offered = Instant::now();
            let frame = spans.enter_at(
                format!("frame/{}/{n}", self.apps[target].id()),
                offered,
                None,
                n,
            );
            n += 1;
            if self.submit(target, 1, spans, Some(frame)) == 0 {
                spans.exit(frame);
                continue;
            }
            loop {
                self.poll(spans, Some(frame));
                if self.done[target] >= self.sent[target] {
                    ms.push(offered.elapsed().as_secs_f64() * 1e3);
                    break;
                }
                if offered.elapsed() > FRAME_TIMEOUT {
                    self.late += 1;
                    break;
                }
                std::thread::sleep(POLL_PAUSE);
            }
            spans.exit(frame);
        }
        ms
    }

    /// Closed loop at the admission bound: offer every graph as many
    /// frames as the fullest one still admits, poll, repeat until `budget`
    /// is spent, then wait for the tail. Every graph gets the same number
    /// of frames, so the mix does not drift towards the cheap apps. Returns
    /// frames completed per second of the whole phase.
    pub fn saturate(&mut self, budget: Duration, spans: &mut Spans) -> f64 {
        let start = Instant::now();
        let before: u64 = self.done.iter().sum();
        while start.elapsed() < budget {
            // `done` is only ever stale low, so this never overfills.
            let free = (0..self.graphs.len())
                .map(|g| MAX_BACKLOG - (self.sent[g] - self.done[g]))
                .min()
                .unwrap_or(0);
            if free > 0 {
                for g in 0..self.graphs.len() {
                    self.submit(g, free, spans, None);
                }
            }
            self.poll(spans, None);
        }
        self.settle(spans);
        (self.done.iter().sum::<u64>() - before) as f64 / start.elapsed().as_secs_f64()
    }

    /// Poll until nothing is in flight, or the frame timeout passes.
    fn settle(&mut self, spans: &mut Spans) {
        let start = Instant::now();
        while self.inflight() > 0 && start.elapsed() < FRAME_TIMEOUT {
            self.poll(spans, None);
            if self.inflight() > 0 {
                std::thread::sleep(POLL_PAUSE);
            }
        }
    }

    /// One open-loop step: seeded Poisson arrivals at `rate` frames/s over
    /// `window`, each sent when due and never held back for the system;
    /// sending stops when the window closes and what was not sent by then
    /// is counted, not sent late. Completions are observed for `grace`
    /// longer.
    pub fn open_loop(
        &mut self,
        seed: u64,
        rate: f64,
        window: Duration,
        grace: Duration,
        spans: &mut Spans,
    ) -> Step {
        let arrivals = poisson(seed, rate, window.as_secs_f64(), self.graphs.len());
        let step_span = spans.enter(format!("step/r{rate:.0}"), None, 0);
        let before = self.counts;
        let start = Instant::now();
        // Per graph: due time and span of each admitted frame, oldest first.
        let mut pending: Vec<VecDeque<(Instant, SpanId)>> =
            vec![VecDeque::new(); self.graphs.len()];
        let mut credited = self.done.clone();
        let mut step = Step {
            rate,
            ..Step::default()
        };
        let mut next = 0;
        let mut last_poll: Option<Instant> = None;
        let mut inflight_mid = None;
        loop {
            let now = Instant::now();
            let sending = now < start + window;
            if sending && now >= start + window / 2 && inflight_mid.is_none() {
                inflight_mid = Some(self.inflight());
            }
            if !sending && step.inflight_end.is_none() {
                step.inflight_end = Some(self.inflight());
            }
            let due = arrivals
                .get(next)
                .map(|a| start + Duration::from_secs_f64(a.due_s));
            if let (true, Some(due)) = (sending, due.filter(|&d| d <= now)) {
                let target = arrivals[next].target;
                let frame = spans.enter_at(
                    format!("frame/{}/{next}", self.apps[target].id()),
                    due,
                    Some(step_span),
                    next as u64,
                );
                step.gen_late_ms.push((now - due).as_secs_f64() * 1e3);
                if self.submit(target, 1, spans, Some(frame)) == 1 {
                    pending[target].push_back((due, frame));
                } else {
                    spans.exit(frame);
                }
                next += 1;
                continue;
            }
            let waiting = pending.iter().any(|q| !q.is_empty());
            if !sending && (!waiting || now >= start + window + grace) {
                break;
            }
            if waiting {
                if let Some(prev) = last_poll {
                    step.observe_gap_ms.push((now - prev).as_secs_f64() * 1e3);
                }
                self.poll(spans, Some(step_span));
                let seen = Instant::now();
                last_poll = Some(seen);
                for (g, queue) in pending.iter_mut().enumerate() {
                    while credited[g] < self.done[g] {
                        credited[g] += 1;
                        if let Some((due, frame)) = queue.pop_front() {
                            step.frame_ms
                                .push((self.apps[g], (seen - due).as_secs_f64() * 1e3));
                            spans.exit_at(frame, seen);
                        }
                    }
                }
                std::thread::sleep(POLL_PAUSE);
            } else {
                last_poll = None;
                // Idle until the next frame is due (or the window closes).
                let until = due.unwrap_or(start + window).min(start + window);
                std::thread::sleep(until.saturating_duration_since(Instant::now()));
            }
        }
        // Frames still pending were admitted and not retired in time.
        for queue in &pending {
            for &(_, frame) in queue {
                spans.exit(frame);
            }
        }
        spans.exit(step_span);
        let unsent = (arrivals.len() - next) as u64;
        let late = pending.iter().map(|q| q.len() as u64).sum();
        self.counts.offered += unsent;
        self.counts.unsent += unsent;
        self.late += late;
        step.inflight_mid = inflight_mid.unwrap_or(0);
        step.counts = Counts {
            offered: self.counts.offered - before.offered,
            unsent,
            accepted: self.counts.accepted - before.accepted,
            shed: self.counts.shed - before.shed,
            completed: step.frame_ms.len() as u64,
            failed: late,
        };
        step
    }

    /// Drain every graph, check conservation against the server's own
    /// counts, shut the server down and join its thread.
    pub fn stop(mut self, spans: &mut Spans) -> FleetEnd {
        self.settle(spans);
        let mut end = FleetEnd::default();
        if let Ok(t) = self.client.telemetry(FORMAT_JSON) {
            let busy: f64 = json::numbers(&t, "busy_ns").iter().sum();
            let idle: f64 = json::numbers(&t, "idle_ns").iter().sum();
            end.pool_busy_share = if busy + idle > 0.0 {
                busy / (busy + idle)
            } else {
                0.0
            };
            end.parks = json::numbers(&t, "parks").iter().sum();
            end.steals = json::numbers(&t, "steals").iter().sum();
            end.ring_dropped = json::number(&t, "ring_dropped").unwrap_or(0.0);
        }
        for (g, &id) in self.graphs.iter().enumerate() {
            let t = Instant::now();
            let reply = spans.time("client/drain", None, id as u64, || self.client.drain(id));
            end.drain_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let app = self.apps[g].id();
            match reply {
                Ok(stats) => {
                    let num = |key| json::number(&stats, key).unwrap_or(-1.0);
                    if !stats.contains("\"failure\":null") {
                        self.violations
                            .push(format!("{app} reported a failure: {stats}"));
                    }
                    if num("submitted") != self.sent[g] as f64 {
                        self.violations.push(format!(
                            "{app}: server admitted {} frames, client counted {}",
                            num("submitted"),
                            self.sent[g]
                        ));
                    }
                    self.done[g] = num("completed").max(0.0) as u64;
                    end.accept_to_retire_ms.push(num("latency_mean_ns") / 1e6);
                }
                Err(e) => self.violations.push(format!("drain {app}: {e}")),
            }
        }
        // A drain waits for every admitted frame, so the server retired
        // them all; the ones it retired too late for the generator failed.
        let retired: u64 = self.done.iter().sum();
        let c = &mut self.counts;
        c.failed = self.late;
        c.completed = retired.saturating_sub(self.late);
        if c.offered != c.accepted + c.shed + c.unsent {
            self.violations
                .push(format!("offered != accepted + shed + unsent: {c:?}"));
        }
        if c.accepted != retired {
            self.violations.push(format!(
                "accepted != completed + failed: {retired} retired of {c:?}"
            ));
        }
        if let Err(e) = self.client.shutdown() {
            self.violations.push(format!("shutdown: {e}"));
        }
        if let Some(server) = self.server.take() {
            if server.join().is_err() {
                self.violations.push("the server thread panicked".into());
            }
        }
        end.counts = self.counts;
        end.violations = std::mem::take(&mut self.violations);
        end
    }

    /// `n` pings, or as many as fit in `budget`; microseconds each.
    pub fn pings(&mut self, n: usize, budget: Duration, spans: &mut Spans) -> Vec<f64> {
        let start = Instant::now();
        let mut us = Vec::new();
        while us.len() < n && start.elapsed() < budget {
            let t = Instant::now();
            let reply = spans.time("client/ping", None, us.len() as u64, || self.client.ping());
            if let Err(e) = reply {
                self.violations.push(format!("ping: {e}"));
                break;
            }
            us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        us
    }
}

/// What one open-loop step measured.
#[derive(Debug, Default)]
pub struct Step {
    pub rate: f64,
    pub counts: Counts,
    /// Due → completion observed, per completed frame, with its app.
    pub frame_ms: Vec<(App, f64)>,
    /// Due → actually sent: how late the generator ran.
    pub gen_late_ms: Vec<f64>,
    /// Spacing of polls while frames were in flight: the resolution of
    /// `frame_ms`.
    pub observe_gap_ms: Vec<f64>,
    pub inflight_mid: u64,
    pub inflight_end: Option<u64>,
}

/// The latency limit a rate must meet to count as sustained.
pub const SUSTAINED_TAIL_MS: f64 = 250.0;

impl Step {
    pub fn latency(&self) -> Summary {
        let ms: Vec<f64> = self.frame_ms.iter().map(|&(_, ms)| ms).collect();
        Summary::of(&ms)
    }

    /// The rate is sustained when the tail meets the limit, at most 1 % of
    /// the frames offered failed, and the backlog did not grow over the
    /// second half of the window.
    pub fn sustained(&self) -> bool {
        self.counts.completed > 0
            && self.latency().tail <= SUSTAINED_TAIL_MS
            && self.counts.failed_share() <= 0.01
            && self.inflight_end.unwrap_or(0) <= self.inflight_mid + 8
    }
}

/// Encode and decode one submit request and its reply in memory;
/// nanoseconds per request.
pub fn codec_ns_per_req() -> f64 {
    use serve::{Request, Response};
    const ROUNDS: u32 = 20_000;
    let t = Instant::now();
    for i in 0..ROUNDS {
        let req = Request::Submit {
            graph: i,
            frames: 1,
        };
        let bytes = req.encode().expect("encode a request");
        std::hint::black_box(Request::decode(std::hint::black_box(&bytes)).expect("decode it"));
        let reply = Response::Ok(u64::from(i).to_be_bytes().to_vec());
        let bytes = reply.encode().expect("encode a reply");
        std::hint::black_box(Response::decode(std::hint::black_box(&bytes)).expect("decode it"));
    }
    t.elapsed().as_secs_f64() * 1e9 / f64::from(ROUNDS)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The whole wire path at small scale: both closed loops and an open
    /// step conserve frames, and the server's counts agree with the
    /// client's.
    #[test]
    fn fleet_conserves_frames_over_every_drive() {
        let mut spans = Spans::new(true);
        let apps = [App::Pip1, App::Blur3];
        let mut fleet = Fleet::start(2, Scale::Small, &apps, &mut spans);
        assert_eq!(fleet.spawn_ms.len(), 2);
        assert!(!fleet
            .pings(3, Duration::from_secs(2), &mut spans)
            .is_empty());
        let mut rng = Rng::new(5);
        let ms = fleet.single_frames(&mut rng, Duration::from_millis(400), &mut spans);
        assert!(!ms.is_empty());
        let fps = fleet.saturate(Duration::from_millis(400), &mut spans);
        assert!(fps > 0.0);
        let step = fleet.open_loop(
            5,
            8.0,
            Duration::from_millis(800),
            Duration::from_secs(1),
            &mut spans,
        );
        let c = step.counts;
        assert_eq!(c.offered, c.accepted + c.shed + c.unsent, "{c:?}");
        assert_eq!(c.accepted, c.completed + c.failed, "{c:?}");
        assert_eq!(step.gen_late_ms.len() as u64, c.accepted + c.shed);
        let end = fleet.stop(&mut spans);
        assert!(end.violations.is_empty(), "{:?}", end.violations);
        let c = end.counts;
        assert_eq!(c.offered, c.accepted + c.shed + c.unsent);
        assert_eq!((c.accepted, c.failed), (c.completed, 0));
        assert_eq!(end.drain_ms.len(), 2);
        let totals = spans.totals();
        assert!(totals.contains_key("client/submit") && totals.contains_key("frame/pip1"));
    }

    #[test]
    fn an_overloaded_step_is_not_sustained() {
        let mut step = Step {
            rate: 8.0,
            counts: Counts {
                offered: 100,
                accepted: 100,
                completed: 100,
                ..Counts::default()
            },
            frame_ms: vec![(App::Pip1, 10.0); 100],
            ..Step::default()
        };
        assert!(step.sustained());
        step.counts.unsent = 2;
        step.counts.offered = 102;
        assert!(
            !step.sustained(),
            "2 % of the frames offered were never sent"
        );
        step.counts.offered = 100;
        step.frame_ms = vec![(App::Pip1, 300.0); 100];
        assert!(!step.sustained(), "tail over the limit");
        step.frame_ms = vec![(App::Pip1, 10.0); 100];
        step.inflight_end = Some(9);
        assert!(!step.sustained(), "backlog grew over the second half");
    }

    #[test]
    fn codec_round_trip_is_timed() {
        assert!(codec_ns_per_req() > 0.0);
    }
}
