//! Microbenchmarks of the run-time-system primitives (wall clock).
//!
//! These measure the *native* cost of Hinch's building blocks — streams,
//! event queues, shared-buffer leases, job dispatch — backing the claim
//! that the coordination layer is cheap next to the component work.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use hinch::component::{Component, Params, RunCtx};
use hinch::engine::{run_native, RunConfig};
use hinch::event::{Event, EventQueue};
use hinch::graph::{factory, ComponentSpec, GraphSpec};
use hinch::packet::pack;
use hinch::sharedbuf::RegionBuf;
use hinch::stream::Stream;

fn stream_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("stream");
    group.throughput(Throughput::Elements(1));
    group.bench_function("write_read_clear", |b| {
        let s = Stream::new("bench");
        let mut iter = 0u64;
        b.iter(|| {
            s.write(iter, pack(iter));
            let v = s.read_as::<u64>(iter);
            s.clear(iter);
            iter += 1;
            *v
        })
    });
    group.bench_function("write_shared_8_copies", |b| {
        let s = Stream::new("bench");
        let mut iter = 0u64;
        b.iter(|| {
            for _ in 0..8 {
                let _ = s.write_shared(iter, |_| 42u64);
            }
            s.clear(iter);
            iter += 1;
        })
    });
    group.finish();
}

fn event_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("events");
    group.throughput(Throughput::Elements(1));
    group.bench_function("send_poll", |b| {
        let q = EventQueue::new("bench");
        b.iter(|| {
            q.send(Event::with_payload("e", 1));
            q.poll()
        })
    });
    group.finish();
}

fn sharedbuf_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("region_buf");
    let buf = RegionBuf::<u8>::new("bench", 720 * 576);
    group.bench_function("lease_write_band", |b| {
        b.iter(|| {
            let mut w = buf.lease_write(0..720 * 72);
            w[0] = w[0].wrapping_add(1);
        })
    });
    group.bench_function("lease_read_all", |b| {
        b.iter(|| {
            let r = buf.lease_read_all();
            r[1]
        })
    });
    group.finish();
}

struct Spin(u64);
impl Component for Spin {
    fn class(&self) -> &'static str {
        "spin"
    }
    fn run(&mut self, ctx: &mut RunCtx<'_>) {
        // tiny busy-work so dispatch overhead dominates the measurement
        let mut x = self.0;
        for _ in 0..64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        }
        self.0 = x;
        ctx.charge(64);
    }
}

/// Cost of scheduling jobs through the native engine (per-job dispatch).
fn engine_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("native_engine");
    group.sample_size(20);
    for workers in [1usize, 4] {
        group.bench_function(format!("chain10_x100_iters_w{workers}"), |b| {
            // 10 components in sequence, 100 iterations
            let spec = GraphSpec::seq(
                (0..10)
                    .map(|i| {
                        GraphSpec::Leaf(ComponentSpec::new(
                            format!("n{i}"),
                            "spin",
                            factory(
                                |_p: &Params| -> Box<dyn Component> { Box::new(Spin(7)) },
                                Params::new(),
                            ),
                        ))
                    })
                    .collect(),
            );
            b.iter(|| {
                run_native(&spec, &RunConfig::new(100).workers(workers))
                    .unwrap()
                    .jobs_executed
            })
        });
    }
    group.finish();
}

criterion_group!(micro, stream_ops, event_ops, sharedbuf_ops, engine_dispatch);
criterion_main!(micro);
