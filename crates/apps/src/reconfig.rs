//! Scripted event injection for the reconfigurable application variants.
//!
//! The paper toggles the second picture-in-picture (PiP-12 / JPiP-12) and
//! switches the blur kernel (Blur-35) every 12 frames. The stimulus is a
//! graph component that sends an event to the manager's queue — standing
//! in for the paper's "user pressed a key" and exercising exactly the
//! asynchronous-event machinery of §3.1/§3.4.

use hinch::component::{Component, RunCtx};
use hinch::event::{Event, EventQueue};

/// Sends `event` to `queue` so that the application switches at every
/// multiple of `every`, cycling through `payloads`.
///
/// An event sent in iteration *i* of a run with pipeline depth *d* is
/// taken by the manager entry of *i + d*, and the reconfiguration it
/// causes lands at *i + 2d* (`hinch::event`). The injector therefore
/// fires at iterations `k*every - 2d`, `k ≥ 1`: each switch lands exactly
/// on frame `k*every`, on every engine. The switches due at or before
/// frame `2d` cannot fire that early: iteration 0 sends them all, in
/// order, and they land together at frame `2d` (a toggle keeps its
/// parity, the last payload wins), so the output follows the period from
/// frame `2d` on.
pub struct Injector {
    queue: EventQueue,
    event: String,
    every: u64,
    payloads: Vec<i64>,
    sent: u64,
}

impl Injector {
    pub fn new(queue: EventQueue, event: impl Into<String>, every: u64) -> Self {
        Self::with_payloads(queue, event, every, vec![0])
    }

    /// Cycle through `payloads` on successive events (Blur-35 alternates
    /// kernel sizes 5, 3, 5, ...).
    pub fn with_payloads(
        queue: EventQueue,
        event: impl Into<String>,
        every: u64,
        payloads: Vec<i64>,
    ) -> Self {
        assert!(every >= 1);
        assert!(!payloads.is_empty());
        Self {
            queue,
            event: event.into(),
            every,
            payloads,
            sent: 0,
        }
    }
}

impl Component for Injector {
    fn class(&self) -> &'static str {
        "injector"
    }

    fn run(&mut self, ctx: &mut RunCtx<'_>) {
        // The switches at the multiples of `every` in `first..=lands`.
        let lands = ctx.iteration() + 2 * ctx.pipeline_depth() as u64;
        let first = if ctx.iteration() == 0 { 1 } else { lands };
        for _ in (first - 1) / self.every..lands / self.every {
            let payload = self.payloads[(self.sent as usize) % self.payloads.len()];
            self.queue
                .send(Event::with_payload(self.event.clone(), payload));
            self.sent += 1;
        }
        ctx.charge(20);
    }
}

/// Forwards its input packet unchanged: the complementary-option
/// pass-through used when an optional processing stage is disabled (the
/// sink keeps a fixed input stream; see `DESIGN.md`).
pub struct Pass;

impl Component for Pass {
    fn class(&self) -> &'static str {
        "pass"
    }

    fn run(&mut self, ctx: &mut RunCtx<'_>) {
        for port in 0..ctx.num_inputs() {
            let packet = ctx.read::<media::Plane>(port);
            ctx.write_arc(port, packet);
        }
        ctx.charge(50);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hinch::meter::NullMeter;
    use hinch::stream::Stream;
    use std::sync::Arc;

    fn run_at(inj: &mut Injector, iter: u64, depth: usize) {
        let mut meter = NullMeter;
        let mut ctx = RunCtx::new(iter, &[], &[], &mut meter).with_pipeline_depth(depth);
        inj.run(&mut ctx);
    }

    /// The iterations among `0..n` in which `inj` sends, at depth
    /// `depth`, each with the number of events it sends.
    fn fired(every: u64, depth: usize, n: u64) -> Vec<(u64, usize)> {
        let q = EventQueue::new("q");
        let mut inj = Injector::new(q.clone(), "flip", every);
        (0..n)
            .filter_map(|i| {
                run_at(&mut inj, i, depth);
                let sent = q.take_due(u64::MAX).len();
                (sent > 0).then_some((i, sent))
            })
            .collect()
    }

    #[test]
    fn fires_two_depths_before_each_multiple() {
        assert_eq!(fired(12, 1, 36), [(10, 1), (22, 1), (34, 1)]);
        assert_eq!(fired(12, 5, 36), [(2, 1), (14, 1), (26, 1)]);
        assert_eq!(fired(12, 6, 36), [(0, 1), (12, 1), (24, 1)]);
        // The switch at 12 (depth 7), and those at 3, 6 and 9 (every 3,
        // depth 5), cannot fire 2d early: iteration 0 sends them.
        assert_eq!(fired(12, 7, 36), [(0, 1), (10, 1), (22, 1), (34, 1)]);
        assert_eq!(fired(3, 5, 12), [(0, 3), (2, 1), (5, 1), (8, 1), (11, 1)]);
    }

    #[test]
    fn cycles_payloads() {
        let q = EventQueue::new("q");
        let mut inj = Injector::with_payloads(q.clone(), "switch", 2, vec![5, 3]);
        for i in 0..8 {
            run_at(&mut inj, i, 1);
        }
        let payloads: Vec<i64> = q
            .take_due(u64::MAX)
            .into_iter()
            .map(|e| e.payload)
            .collect();
        assert_eq!(payloads, vec![5, 3, 5, 3]);
    }

    #[test]
    fn pass_forwards_same_arc() {
        let input = Stream::new("i");
        let output = Stream::new("o");
        let plane = Arc::new(media::Plane::from_pixels("p", 2, 2, vec![1, 2, 3, 4]));
        input.write(0, plane.clone());
        let mut meter = NullMeter;
        let inputs = [input];
        let outputs = [output.clone()];
        let mut ctx = RunCtx::new(0, &inputs, &outputs, &mut meter);
        Pass.run(&mut ctx);
        let forwarded = output.read_as::<media::Plane>(0);
        assert!(Arc::ptr_eq(&plane, &forwarded));
    }
}
