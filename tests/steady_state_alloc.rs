//! A running graph allocates no stream payload: once every ring slot of
//! every stream has been written once (`pipeline_depth` frames), the buffer
//! an iteration retires is the one the slot's next writer fills
//! (`hinch::stream`, "The ring is the buffer pool"), so a steady-state
//! `Component::run` makes **zero** allocations of payload size.
//!
//! This is the regression gate for every component that forgets to renew:
//! a `Plane::new` in a `run` shows up here as one allocation a frame. It
//! also proves the indirect cases — JPiP's Blend forwards the decoded
//! background plane it blended into, and that alias must not keep the
//! IDCT's output slot from getting its plane back; a source
//! publishes a view of its input and must allocate nothing for it; a blend
//! over a view or over another blend's composite renews its overlays and
//! their list (PiP-2 stacks two, the mosaic four); a
//! stream inside a disabled option must still hold its spares when the
//! option comes back. A second leg runs one
//! spec with a *capturing* sink twice through `run_native` and counts the
//! whole second run, from its first frame: the streams of a new instance
//! start with the buffers the last one retired (they stay with the spec,
//! `hinch::stream`, "The ring outlives the instance"), and the capture
//! buffers keep their capacity over `clear_captures()`, so the second run
//! allocates no payload at all, whether the sink records owned planes or
//! composites.
//!
//! The counter is exact: a `#[global_allocator]` local to this test binary
//! counts only what is allocated *inside a component's `run`* (every leaf
//! of the spec is wrapped to mark its thread), so neither the scheduler
//! (whose per-worker ready lists grow to their high-water mark whenever
//! they like), nor a reconfiguration building its DAG, nor the test
//! harness is in it.

use apps::experiment::{build, build_discarding, App, AppConfig};
use apps::mosaic::{self, MosaicConfig};
use apps::AppAssets;
use hinch::graph::{ComponentFactory, GraphSpec};
use hinch::{
    run_native, Component, ReconfigRequest, RunConfig, RunCtx, Runtime, RuntimeConfig, SpawnOpts,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Allocations of at least this many bytes are payloads. 192 is the
/// smallest pixel buffer of the PiP graphs at `Scale::Small` (the 16×12
/// downscaled picture; their other planes are 3072 bytes, Blur's 1440,
/// JPiP's 2048 and its coefficient planes 4096) and lies above everything
/// else a steady-state `run` allocates — the largest is the 136-byte `Arc`
/// header a `CoefPlane` travels in. JPiP's 8×4 picture planes (32 bytes)
/// are smaller than their own header and pass under the gate.
const PAYLOAD_BYTES: usize = 192;

const DEPTH: usize = 3;
/// Steady-state frames checked per app: two full toggle cycles of PiP-12.
const FRAMES: u64 = 48;

static PAYLOAD_ALLOCS: AtomicUsize = AtomicUsize::new(0);
static LAST_SIZE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Whether this thread is inside a `Component::run`.
    static IN_RUN: Cell<bool> = const { Cell::new(false) };
}

struct Counting;

impl Counting {
    fn note(size: usize) {
        if size >= PAYLOAD_BYTES && IN_RUN.with(Cell::get) {
            PAYLOAD_ALLOCS.fetch_add(1, Ordering::Relaxed);
            LAST_SIZE.store(size, Ordering::Relaxed);
        }
    }
}

// SAFETY: defers to `System` for every operation; the bookkeeping touches
// only atomics and a const-initialized thread-local without destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs the wrapped component with [`IN_RUN`] set, from iteration `from`
/// on (a `run_native` call cannot be paused after its warm-up frames).
struct Marked {
    inner: Box<dyn Component>,
    from: u64,
}

impl Component for Marked {
    fn class(&self) -> &'static str {
        self.inner.class()
    }
    fn run(&mut self, ctx: &mut RunCtx<'_>) {
        IN_RUN.with(|f| f.set(ctx.iteration() >= self.from));
        self.inner.run(ctx);
        IN_RUN.with(|f| f.set(false));
    }
    fn reconfigure(&mut self, req: &ReconfigRequest) {
        self.inner.reconfigure(req);
    }
}

/// `spec` with every leaf's component wrapped in [`Marked`].
fn marked(spec: GraphSpec, from: u64) -> GraphSpec {
    let one = |spec: GraphSpec| marked(spec, from);
    let all = |specs: Vec<GraphSpec>| specs.into_iter().map(one).collect();
    match spec {
        GraphSpec::Leaf(mut leaf) => {
            let inner = leaf.factory;
            let factory: ComponentFactory = Arc::new(move || {
                Box::new(Marked {
                    inner: inner(),
                    from,
                })
            });
            leaf.factory = factory;
            GraphSpec::Leaf(leaf)
        }
        GraphSpec::Seq(children) => GraphSpec::Seq(all(children)),
        GraphSpec::Task(children) => GraphSpec::Task(all(children)),
        GraphSpec::Slice { name, n, body } => GraphSpec::slice(name, n, one(*body)),
        GraphSpec::CrossDep { name, n, blocks } => GraphSpec::crossdep(name, n, all(blocks)),
        GraphSpec::Managed { manager, body } => GraphSpec::managed(manager, one(*body)),
        GraphSpec::Option {
            name,
            enabled,
            body,
        } => GraphSpec::option(name, enabled, one(*body)),
    }
}

/// Submit `frames` more frames and wait until they have retired.
fn run_frames(rt: &Runtime, id: hinch::GraphId, frames: u64, completed: &mut u64) {
    *completed += frames;
    let mut offered = 0;
    while offered < frames {
        offered += rt.submit(id, frames - offered).unwrap();
        rt.wait_retired(id).unwrap();
    }
}

#[test]
fn steady_state_frames_allocate_no_payload() {
    let apps = [App::Pip1, App::Pip2, App::Pip12, App::Blur3, App::Jpip1];
    let mut graphs: Vec<(&str, GraphSpec)> = apps
        .iter()
        .map(|app| (app.id(), build_discarding(AppConfig::small(*app)).spec))
        .collect();
    // blends stacked four deep over one screen: composites carry up to
    // four overlays
    let mosaic = mosaic::build_on(&MosaicConfig::small(4), AppAssets::discarding()).unwrap();
    graphs.push(("mosaic", mosaic.elaborated.spec));
    for (app, spec) in graphs {
        let toggles = app == App::Pip12.id();
        let rt = Runtime::new(RuntimeConfig::new(2));
        let id = rt
            .spawn(&marked(spec, 0), SpawnOpts::new(app).pipeline_depth(DEPTH))
            .unwrap();
        let mut completed = 0;

        // Warm-up: every slot of every stream written once. PiP-12 first
        // goes through one full toggle cycle (second picture on, then off
        // again) so the streams of both variants have been filled.
        run_frames(&rt, id, DEPTH as u64, &mut completed);
        if toggles {
            while rt.stats(id).unwrap().reconfigs < 2 {
                run_frames(&rt, id, 1, &mut completed);
                assert!(completed < 200, "PiP-12 did not toggle twice in 200 frames");
            }
            run_frames(&rt, id, DEPTH as u64, &mut completed);
        }
        let warm_up = PAYLOAD_ALLOCS.swap(0, Ordering::SeqCst);
        assert!(
            warm_up >= DEPTH,
            "{app:?}: warm-up built {warm_up} payloads — is the counter connected?"
        );

        run_frames(&rt, id, FRAMES, &mut completed);
        let allocs = PAYLOAD_ALLOCS.swap(0, Ordering::SeqCst);
        let stats = rt.drain(id).unwrap();
        assert_eq!(stats.completed, completed);
        assert!(stats.failure.is_none(), "{:?}", stats.failure);
        if toggles {
            assert!(
                stats.reconfigs >= 4,
                "PiP-12 toggled {} times: the {FRAMES} checked frames saw no full cycle",
                stats.reconfigs
            );
        }
        assert_eq!(
            allocs,
            0,
            "{app:?}: {allocs} payload-sized allocation(s) in {FRAMES} steady-state frames \
             (last: {} bytes) — a component allocates its output instead of renewing the \
             buffer its stream slot hands back",
            LAST_SIZE.load(Ordering::Relaxed)
        );
        rt.shutdown();
    }
    second_capturing_run_allocates_no_payload();
}

/// A second run of one spec allocates nothing, capturing sink included:
/// composites of one overlay (PiP-1), of two stacked (PiP-2) and of a
/// count that changes with the toggle (PiP-12), and owned planes (JPiP-1).
/// A leg of the one `#[test]`, not a test of its own: the counter is
/// process-wide and `cargo test` would interleave two.
fn second_capturing_run_allocates_no_payload() {
    for app in [App::Pip1, App::Pip2, App::Pip12, App::Jpip1] {
        let built = build(AppConfig::small(app));
        // Every `run_native` instantiates the graph anew; counted from
        // frame 0, ring slots and all.
        let spec = marked(built.spec.clone(), 0);
        // At depth > 1 a reconfiguration lands on a schedule-dependent
        // frame: two PiP-12 runs could record different overlay counts.
        let depth = if app.static_counterparts().is_empty() {
            DEPTH
        } else {
            1
        };
        let cfg = RunConfig::new(FRAMES).pipeline_depth(depth).workers(2);

        run_native(&spec, &cfg).unwrap();
        let growing = PAYLOAD_ALLOCS.swap(0, Ordering::SeqCst);
        assert!(
            growing >= 1,
            "{app:?}: the first run's capture buffers grew without the counter seeing it"
        );
        let first = built.outputs();

        built.assets.clear_captures();
        run_native(&spec, &cfg).unwrap();
        let allocs = PAYLOAD_ALLOCS.swap(0, Ordering::SeqCst);
        assert_eq!(
            allocs,
            0,
            "{app:?}: {allocs} payload-sized allocation(s) in the second run's {FRAMES} \
             frames (last: {} bytes) — a new instance's streams did not start with the \
             buffers the run before it retired, or the sink copies a frame into new memory \
             instead of the capture buffer that run left",
            LAST_SIZE.load(Ordering::Relaxed)
        );
        assert!(
            built.outputs() == first,
            "{app:?}: the second run captured other frames"
        );
    }
}
