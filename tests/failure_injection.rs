//! Failure injection: the run-time system must turn misbehaviour into
//! loud, diagnosable panics — never into silent corruption or hangs.

use hinch::component::{Component, Params, RunCtx};
use hinch::engine::{run_native, RunConfig};
use hinch::graph::{factory, ComponentSpec, GraphSpec};
use hinch::sharedbuf::RegionBuf;
use std::panic::{catch_unwind, AssertUnwindSafe};

fn leaf_with(
    name: &str,
    inputs: &[&str],
    outputs: &[&str],
    make: impl Fn() -> Box<dyn Component> + Send + Sync + 'static,
) -> GraphSpec {
    let mut c = ComponentSpec::new(
        name,
        "test",
        factory(move |_p: &Params| make(), Params::new()),
    );
    for i in inputs {
        c = c.input(*i);
    }
    for o in outputs {
        c = c.output(*o);
    }
    GraphSpec::Leaf(c)
}

struct WriteInt;
impl Component for WriteInt {
    fn class(&self) -> &'static str {
        "write_int"
    }
    fn run(&mut self, ctx: &mut RunCtx<'_>) {
        ctx.write(0, 42i64);
    }
}

#[test]
fn type_mismatch_panics_with_stream_name() {
    struct ReadString;
    impl Component for ReadString {
        fn class(&self) -> &'static str {
            "read_string"
        }
        fn run(&mut self, ctx: &mut RunCtx<'_>) {
            let _ = ctx.read::<String>(0); // wrong type!
        }
    }
    let g = GraphSpec::seq(vec![
        leaf_with("w", &[], &["data"], || Box::new(WriteInt)),
        leaf_with("r", &["data"], &[], || Box::new(ReadString)),
    ]);
    let err = catch_unwind(AssertUnwindSafe(|| {
        let _ = run_native(&g, &RunConfig::new(2).workers(1));
    }))
    .unwrap_err();
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(msg.contains("unexpected type"), "got: {msg}");
    assert!(msg.contains("data"), "panic names the stream: {msg}");
}

#[test]
fn overlapping_slice_leases_are_detected() {
    // a buggy component that ignores its slice assignment and writes the
    // whole shared buffer from every copy
    struct GreedyWriter;
    impl Component for GreedyWriter {
        fn class(&self) -> &'static str {
            "greedy"
        }
        fn run(&mut self, ctx: &mut RunCtx<'_>) {
            let buf = ctx.write_shared(0, |old| RegionBuf::<u8>::renew(old, "shared", 64));
            let mut lease = buf.lease_write(0..64); // every copy claims it all
            lease[0] = 1;
            // hold the lease while "working" so the copies collide
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
    }
    let g = GraphSpec::seq(vec![
        leaf_with("src", &[], &["in"], || Box::new(WriteInt)),
        GraphSpec::slice(
            "sl",
            4,
            leaf_with("g", &["in"], &["out"], || Box::new(GreedyWriter)),
        ),
        leaf_with("snk", &["out"], &[], || {
            struct Sink;
            impl Component for Sink {
                fn class(&self) -> &'static str {
                    "sink"
                }
                fn run(&mut self, ctx: &mut RunCtx<'_>) {
                    let _ = ctx.read::<RegionBuf<u8>>(0);
                }
            }
            Box::new(Sink)
        }),
    ]);
    let err = run_native(&g, &RunConfig::new(4).workers(4))
        .expect_err("racing whole-buffer leases must fail the run");
    match err {
        hinch::error::HinchError::LeaseConflict(c) => {
            let msg = c.to_string();
            assert!(msg.contains("shared"), "conflict names the buffer: {msg}");
            assert!(msg.contains("overlaps active"), "got: {msg}");
        }
        other => panic!("expected LeaseConflict, got: {other}"),
    }
}

#[test]
fn corrupt_jpeg_scan_fails_loudly_not_silently() {
    use media::jpeg::codec::{decode_plane, decode_scan, encode_plane};
    use media::jpeg::quant::Channel;
    let img: Vec<u8> = (0..64 * 64).map(|i| (i % 256) as u8).collect();
    let scan = encode_plane(&img, 64, 64, Channel::Luma, 75);
    // either the decoder panics with the corrupt-scan message, or it
    // produces *some* blocks — but it must never loop forever (this test
    // completing is the liveness assertion). `true` when it produced them.
    let loud_or_done = |what: &str, decode: &dyn Fn()| -> bool {
        let Err(err) = catch_unwind(AssertUnwindSafe(decode)) else {
            return true;
        };
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(
            msg.contains("corrupt"),
            "{what}: corruption panic should say so: {msg}"
        );
        false
    };
    // truncate hard: the decoder reads 1-bits past the end, which decodes
    // to garbage runs that overrun the coefficient index
    let truncated = &scan[..4];
    loud_or_done("truncated, entropy stage", &|| {
        let mut coefs = vec![0i16; 64 * 64];
        decode_scan(truncated, 64, 64, Channel::Luma, 75, &mut coefs);
    });
    loud_or_done("truncated, both stages", &|| {
        decode_plane(truncated, 64, 64, Channel::Luma, 75);
    });
    // runs of sixteen zeros to past the end of the block (DC category 0,
    // then four ZRLs): loud like any other overrun, not a quiet block end
    // that leaves every later block misaligned
    let zrls = {
        use media::jpeg::bitio::BitWriter;
        use media::jpeg::huffman::{Encoder, AC_LUMA, DC_LUMA, ZRL};
        let mut w = BitWriter::new();
        Encoder::new(&DC_LUMA).put(&mut w, 0);
        let ac = Encoder::new(&AC_LUMA);
        for _ in 0..4 {
            ac.put(&mut w, ZRL);
        }
        w.finish()
    };
    let decoded = loud_or_done("ZRLs past the block end", &|| {
        decode_scan(&zrls, 64, 64, Channel::Luma, 75, &mut vec![0i16; 64 * 64]);
    });
    assert!(!decoded, "a run past the block end must not decode");
    // damage in place: the symbols lose step and the blocks that come out
    // hold whatever the bits say, up to coefficients saturated at the
    // `i16` limits — which the IDCT must clamp, not overflow on
    let mut reached_idct = 0;
    for at in (0..scan.len()).step_by(scan.len() / 16) {
        let mut damaged = scan.clone();
        damaged[at] ^= 0xA5;
        reached_idct += loud_or_done(&format!("byte {at} damaged"), &|| {
            decode_plane(&damaged, 64, 64, Channel::Luma, 75);
        }) as usize;
    }
    assert!(reached_idct > 0, "no damaged scan decoded to the end");
}

#[test]
fn missing_stream_write_is_a_scheduling_bug_panic() {
    struct Lazy;
    impl Component for Lazy {
        fn class(&self) -> &'static str {
            "lazy"
        }
        fn run(&mut self, _ctx: &mut RunCtx<'_>) {
            // forgets to write its output
        }
    }
    let g = GraphSpec::seq(vec![
        leaf_with("lazy", &[], &["s"], || Box::new(Lazy)),
        leaf_with("r", &["s"], &[], || {
            struct Reader;
            impl Component for Reader {
                fn class(&self) -> &'static str {
                    "reader"
                }
                fn run(&mut self, ctx: &mut RunCtx<'_>) {
                    let _ = ctx.read::<i64>(0);
                }
            }
            Box::new(Reader)
        }),
    ]);
    let err = catch_unwind(AssertUnwindSafe(|| {
        let _ = run_native(&g, &RunConfig::new(1).workers(1));
    }))
    .unwrap_err();
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(msg.contains("before it was written"), "got: {msg}");
}

#[test]
fn panicking_component_does_not_hang_other_workers() {
    struct BombAt {
        at: u64,
    }
    impl Component for BombAt {
        fn class(&self) -> &'static str {
            "bomb"
        }
        fn run(&mut self, ctx: &mut RunCtx<'_>) {
            if ctx.iteration() == self.at {
                panic!("injected failure");
            }
            ctx.write(0, 1i64);
        }
    }
    // 4 workers, a bomb in the middle of the run: the run must terminate
    // (propagating the panic), not deadlock
    let g = GraphSpec::seq(vec![
        leaf_with("b", &[], &["s"], || Box::new(BombAt { at: 7 })),
        leaf_with("r", &["s"], &[], || {
            struct Reader;
            impl Component for Reader {
                fn class(&self) -> &'static str {
                    "r"
                }
                fn run(&mut self, ctx: &mut RunCtx<'_>) {
                    let _ = ctx.read::<i64>(0);
                }
            }
            Box::new(Reader)
        }),
    ]);
    // This test *completing* is the liveness assertion — a deadlocked run
    // trips the harness timeout rather than a flaky wall-clock bound.
    let result = catch_unwind(AssertUnwindSafe(|| {
        let _ = run_native(&g, &RunConfig::new(100).workers(4));
    }));
    assert!(result.is_err());
}

#[test]
fn xspcl_compile_rejects_unknown_class_before_running() {
    let src = r#"<xspcl><procedure name="main"><stream name="s"/><body>
        <component name="a" class="does_not_exist"><out stream="s"/></component>
        <component name="b" class="also_missing"><in stream="s"/></component>
    </body></procedure></xspcl>"#;
    let registry = xspcl::elaborate::ComponentRegistry::new();
    let err = xspcl::compile(src, &registry).unwrap_err();
    assert!(err.to_string().contains("unknown component class"), "{err}");
}
