//! Property-based tests across the stack.

use hinch::component::{Component, Params, ReconfigRequest, RunCtx, SliceAssign};
use hinch::engine::{run_native, run_sim, RunConfig};
use hinch::graph::{factory, ComponentSpec, GraphSpec};
use hinch::meter::NullPlatform;
use hinch::sharedbuf::RegionBuf;
use media::jpeg::bitio::{category, extend, magnitude_bits, BitReader, BitWriter};
use media::jpeg::codec::{decode_plane, encode_plane};
use media::jpeg::quant::{scaled_table, Channel};
use parking_lot::Mutex;
use proptest::prelude::*;
use spacecake::{Cache, CacheConfig};
use std::sync::Arc;

// ---------------------------------------------------------------------
// SliceAssign: exact partitioning for any (len, total)
// ---------------------------------------------------------------------
proptest! {
    #[test]
    fn slice_ranges_partition(len in 0usize..4000, total in 1usize..64) {
        let mut covered = 0usize;
        let mut prev_end = 0usize;
        for index in 0..total {
            let r = SliceAssign { index, total }.range(len);
            prop_assert_eq!(r.start, prev_end);
            prop_assert!(r.end >= r.start);
            prev_end = r.end;
            covered += r.len();
        }
        prop_assert_eq!(covered, len);
        prop_assert_eq!(prev_end, len);
    }
}

// ---------------------------------------------------------------------
// RegionBuf: disjoint leases always succeed, data lands where written
// ---------------------------------------------------------------------
proptest! {
    #[test]
    fn regionbuf_disjoint_bands(cuts in proptest::collection::vec(1usize..100, 0..6)) {
        // build disjoint bands from sorted unique cut points over 0..100
        let mut points: Vec<usize> = cuts;
        points.push(0);
        points.push(100);
        points.sort_unstable();
        points.dedup();
        let buf = RegionBuf::<u8>::new("prop", 100);
        let mut leases = Vec::new();
        for w in points.windows(2) {
            leases.push((w[0], buf.lease_write(w[0]..w[1])));
        }
        for (start, lease) in &mut leases {
            for (i, v) in lease.iter_mut().enumerate() {
                *v = ((*start + i) % 251) as u8;
            }
        }
        drop(leases);
        let snap = buf.snapshot();
        for (i, v) in snap.iter().enumerate() {
            prop_assert_eq!(*v as usize, i % 251);
        }
    }
}

// ---------------------------------------------------------------------
// Cache model: residency bounded by capacity; LRU keeps hot lines
// ---------------------------------------------------------------------
proptest! {
    #[test]
    fn cache_hit_rate_bounded(addrs in proptest::collection::vec(0u64..64, 1..300)) {
        let mut cache = Cache::new(CacheConfig { size: 1024, line: 64, assoc: 2 });
        for &a in &addrs {
            cache.access_line(a);
        }
        let total = cache.hits() + cache.misses();
        prop_assert_eq!(total, addrs.len() as u64);
        // at least one miss per distinct line (cold misses are compulsory)
        let mut distinct: Vec<u64> = addrs.clone();
        distinct.sort_unstable();
        distinct.dedup();
        prop_assert!(cache.misses() >= distinct.len() as u64);
    }

    #[test]
    fn cache_single_line_always_hits_after_fill(line in 0u64..1_000_000, n in 1usize..50) {
        let mut cache = Cache::new(CacheConfig::l1_default());
        cache.access_line(line);
        for _ in 0..n {
            prop_assert!(cache.access_line(line));
        }
    }
}

// ---------------------------------------------------------------------
// JPEG bit I/O and magnitude coding
// ---------------------------------------------------------------------
proptest! {
    #[test]
    fn bitio_roundtrip(values in proptest::collection::vec((0u32..(1<<16), 1u32..17), 1..64)) {
        let mut w = BitWriter::new();
        for &(v, n) in &values {
            w.put(v & ((1 << n) - 1), n);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &(v, n) in &values {
            prop_assert_eq!(r.bits(n), v & ((1 << n) - 1));
        }
    }

    #[test]
    fn magnitude_coding_roundtrip(v in -32_000i32..32_000) {
        if v == 0 {
            prop_assert_eq!(category(0), 0);
        } else {
            let c = category(v);
            prop_assert_eq!(extend(magnitude_bits(v), c), v);
        }
    }
}

// ---------------------------------------------------------------------
// JPEG codec: decode(encode(x)) within quantization error
// ---------------------------------------------------------------------
proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn jpeg_roundtrip_error_bounded(seed in 0u64..1000, quality in 40u8..95) {
        use rand::{Rng, SeedableRng};
        let (w, h) = (24usize, 16usize);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        // smooth-ish content (JPEG is not meant for white noise)
        let img: Vec<u8> = (0..w * h)
            .map(|i| {
                let x = (i % w) as i32;
                let y = (i / w) as i32;
                (x * 8 + y * 5 + rng.gen_range(-9i32..=9)).clamp(0, 255) as u8
            })
            .collect();
        let scan = encode_plane(&img, w, h, Channel::Luma, quality);
        let (back, stats) = decode_plane(&scan, w, h, Channel::Luma, quality);
        prop_assert_eq!(stats.blocks as usize, (w / 8) * (h / 8));
        let mae: f64 = img.iter().zip(back.iter())
            .map(|(&a, &b)| (a as f64 - b as f64).abs()).sum::<f64>() / img.len() as f64;
        // error shrinks with quality; bound loosely by the DC quant step
        let dc_step = scaled_table(Channel::Luma, quality)[0] as f64;
        prop_assert!(mae <= dc_step + 6.0, "mae {} vs dc step {}", mae, dc_step);
    }
}

// ---------------------------------------------------------------------
// Scheduler: random SP pipelines run all jobs, respect dependencies, and
// produce engine-independent results
// ---------------------------------------------------------------------

/// A component that appends `(stage, iteration)` to a shared journal and
/// forwards a counter.
struct Journal {
    stage: usize,
    log: Arc<Mutex<Vec<(usize, u64)>>>,
}

impl Component for Journal {
    fn class(&self) -> &'static str {
        "journal"
    }
    fn run(&mut self, ctx: &mut RunCtx<'_>) {
        let v: i64 = if ctx.num_inputs() > 0 {
            *ctx.read::<i64>(0)
        } else {
            0
        };
        self.log.lock().push((self.stage, ctx.iteration()));
        if ctx.num_outputs() > 0 {
            ctx.write(0, v + 1);
        }
        ctx.charge(10);
    }
}

fn journal_chain(stages: usize, log: Arc<Mutex<Vec<(usize, u64)>>>) -> GraphSpec {
    GraphSpec::Seq(
        (0..stages)
            .map(|i| {
                let log = log.clone();
                let mut spec = ComponentSpec::new(
                    format!("s{i}"),
                    "journal",
                    factory(
                        move |_p: &Params| -> Box<dyn Component> {
                            Box::new(Journal {
                                stage: i,
                                log: log.clone(),
                            })
                        },
                        Params::new(),
                    ),
                );
                if i > 0 {
                    spec = spec.input(format!("c{}", i - 1));
                }
                if i + 1 < stages {
                    spec = spec.output(format!("c{i}"));
                }
                GraphSpec::Leaf(spec)
            })
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn scheduler_respects_chain_order(
        stages in 2usize..6,
        iters in 1u64..12,
        depth in 1usize..6,
        cores in 1usize..5,
        native in proptest::bool::ANY,
    ) {
        let log = Arc::new(Mutex::new(Vec::new()));
        let spec = journal_chain(stages, log.clone());
        let cfg = RunConfig::new(iters).pipeline_depth(depth).workers(cores);
        if native {
            run_native(&spec, &cfg).unwrap();
        } else {
            let mut p = NullPlatform::new(cores);
            run_sim(&spec, &cfg, &mut p).unwrap();
        }
        let entries = log.lock().clone();
        prop_assert_eq!(entries.len(), stages * iters as usize);
        // per iteration: stages in order; per stage: iterations in order
        for iter in 0..iters {
            let order: Vec<usize> = entries
                .iter()
                .filter(|(_, i)| *i == iter)
                .map(|(s, _)| *s)
                .collect();
            let mut sorted = order.clone();
            sorted.sort_unstable();
            prop_assert_eq!(&order, &sorted, "iteration {} ran stages out of order", iter);
        }
        for stage in 0..stages {
            let order: Vec<u64> = entries
                .iter()
                .filter(|(s, _)| *s == stage)
                .map(|(_, i)| *i)
                .collect();
            let mut sorted = order.clone();
            sorted.sort_unstable();
            prop_assert_eq!(&order, &sorted, "stage {} ran iterations out of order", stage);
        }
    }
}

// ---------------------------------------------------------------------
// XSPCL pretty-printer: print → parse → print is a fixed point
// ---------------------------------------------------------------------

fn ident() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_]{0,8}".prop_map(|s| s)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn xspcl_print_parse_fixed_point(
        streams in proptest::collection::vec(ident(), 1..4),
        class in ident(),
        value in "[ -#%-~]{0,12}",  // any printable except $ (formal refs)
    ) {
        // build a small document programmatically via XML text
        let mut streams = streams;
        streams.sort_unstable();
        streams.dedup();
        let decls: String = streams
            .iter()
            .map(|s| format!("<stream name=\"{s}\"/>"))
            .collect();
        let escaped = value
            .replace('&', "&amp;")
            .replace('<', "&lt;")
            .replace('>', "&gt;")
            .replace('"', "&quot;");
        let src = format!(
            "<xspcl><procedure name=\"main\">{decls}<body>\
             <component name=\"w\" class=\"{class}\">\
             <out port=\"o\" stream=\"{first}\"/>\
             <param name=\"p\" value=\"{escaped}\"/></component>\
             <component name=\"r\" class=\"{class}\">\
             <in port=\"i\" stream=\"{first}\"/></component>\
             </body></procedure></xspcl>",
            first = streams[0],
        );
        let doc = xspcl::parse_and_validate(&src).unwrap();
        let printed = xspcl::codegen::to_xml(&doc);
        let reparsed = xspcl::parse_and_validate(&printed).unwrap();
        prop_assert_eq!(printed.clone(), xspcl::codegen::to_xml(&reparsed));
        // the parameter value survives the round trip byte-exactly
        let xspcl::ast::Stmt::Component(c) = &reparsed.main().unwrap().body[0] else {
            panic!("expected component");
        };
        let xspcl::ast::ParamKind::Value(v) = &c.params[0].value else {
            panic!("expected value param");
        };
        prop_assert_eq!(v, &value);
    }
}

// ---------------------------------------------------------------------
// Static analysis vs runtime: graphs the analyzer passes clean never
// raise a lease conflict, however the copies are scheduled
// ---------------------------------------------------------------------

const BAND_LEN: usize = 64;

/// Writes a band of a shared `RegionBuf<i64>`. Copies that honor their
/// composed slice assignment partition the buffer; with `honor_assign`
/// off every copy leases the whole buffer, reproducing the historic
/// uncomposed-nesting bug at runtime.
struct BandWriter {
    assign: SliceAssign,
    honor_assign: bool,
}

impl Component for BandWriter {
    fn class(&self) -> &'static str {
        "band_writer"
    }
    fn run(&mut self, ctx: &mut RunCtx<'_>) {
        let _v: i64 = *ctx.read::<i64>(0);
        let buf = ctx.write_shared(0, |old| RegionBuf::<i64>::renew(old, "band", BAND_LEN));
        let range = if self.honor_assign {
            self.assign.range(BAND_LEN)
        } else {
            0..BAND_LEN
        };
        let mut w = buf.lease_write(range);
        for slot in w.iter_mut() {
            *slot = self.assign.index as i64 + 1;
        }
        if !self.honor_assign {
            // hold the over-broad lease while "working" so copies collide
            std::thread::sleep(std::time::Duration::from_millis(3));
        }
        ctx.charge(20);
    }
    fn reconfigure(&mut self, req: &ReconfigRequest) {
        if let ReconfigRequest::Slice(a) = req {
            self.assign = *a;
        }
    }
}

/// `src -> (nested slice/crossdep groups around a BandWriter) -> sink`.
/// `levels` lists the replication groups outermost first: `(0, n)` is an
/// n-way slice, `(1, n)` an n-copy crossdep (with an inert second block,
/// since crossdep requires at least two).
fn replicated_band_graph(levels: &[(usize, usize)], honor_assign: bool) -> GraphSpec {
    struct Src;
    impl Component for Src {
        fn class(&self) -> &'static str {
            "src"
        }
        fn run(&mut self, ctx: &mut RunCtx<'_>) {
            ctx.write(0, 7i64);
        }
    }
    struct BandReader;
    impl Component for BandReader {
        fn class(&self) -> &'static str {
            "band_reader"
        }
        fn run(&mut self, ctx: &mut RunCtx<'_>) {
            let buf = ctx.read::<RegionBuf<i64>>(0);
            let _sum: i64 = buf.lease_read_all().iter().sum();
        }
    }
    struct Nop;
    impl Component for Nop {
        fn class(&self) -> &'static str {
            "nop"
        }
        fn run(&mut self, _ctx: &mut RunCtx<'_>) {}
    }

    let writer = factory(
        move |_p: &Params| -> Box<dyn Component> {
            Box::new(BandWriter {
                assign: SliceAssign::WHOLE,
                honor_assign,
            })
        },
        Params::new(),
    );
    let mut g = GraphSpec::Leaf(
        ComponentSpec::new("w", "band_writer", writer)
            .input("s")
            .output("o"),
    );
    for (k, &(kind, n)) in levels.iter().enumerate().rev() {
        g = if kind == 0 {
            GraphSpec::slice(format!("sl{k}"), n, g)
        } else {
            let nop = factory(
                |_p: &Params| -> Box<dyn Component> { Box::new(Nop) },
                Params::new(),
            );
            let pad = GraphSpec::Leaf(ComponentSpec::new(format!("pad{k}"), "nop", nop));
            GraphSpec::crossdep(format!("cd{k}"), n, vec![g, pad])
        };
    }
    let src = factory(
        |_p: &Params| -> Box<dyn Component> { Box::new(Src) },
        Params::new(),
    );
    let sink = factory(
        |_p: &Params| -> Box<dyn Component> { Box::new(BandReader) },
        Params::new(),
    );
    GraphSpec::seq(vec![
        GraphSpec::Leaf(ComponentSpec::new("src", "src", src).output("s")),
        g,
        GraphSpec::Leaf(ComponentSpec::new("snk", "band_reader", sink).input("o")),
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn analyzed_clean_graphs_never_lease_conflict(
        levels in proptest::collection::vec((0usize..2, 1usize..4), 0..3),
        workers in 1usize..5,
    ) {
        let g = replicated_band_graph(&levels, true);
        let diags = analyze::check_spec(&g);
        prop_assert!(diags.is_empty(), "{}", diags.render_human());
        let report = run_native(&g, &RunConfig::new(6).workers(workers));
        prop_assert!(report.is_ok(), "analyzer-clean graph failed: {:?}", report.err());
    }
}

#[test]
fn assign_ignoring_copies_raise_lease_conflict() {
    // the analyzer models the spec, not component bodies, so this spec
    // still checks clean — the runtime lease guard is the backstop that
    // catches copies claiming regions they were not assigned
    let g = replicated_band_graph(&[(0, 4)], false);
    assert!(analyze::check_spec(&g).is_empty());
    let err = run_native(&g, &RunConfig::new(16).workers(4))
        .expect_err("racing whole-buffer leases must fail the run");
    assert!(
        matches!(err, hinch::error::HinchError::LeaseConflict(_)),
        "expected LeaseConflict, got: {err}"
    );
}
