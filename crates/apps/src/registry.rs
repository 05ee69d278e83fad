//! The component registry: linking XSPCL classes to Rust components.
//!
//! In the paper, a component's `class` attribute names the C function that
//! initializes it and the generated glue is linked against the component
//! object code. Here, [`registry`] plays the linker: it binds every class
//! used by the applications to a constructor over the `media` components,
//! closed over the application's [`AppAssets`] (input videos, capture
//! buffers) — things an initialization parameter cannot carry as a string.
//!
//! Registered classes:
//!
//! | class | params | component |
//! |-------|--------|-----------|
//! | `plane_source` | `file`, `field` | [`media::components::PlaneSource`] |
//! | `mjpeg_source` | `file` | [`media::components::MjpegSource`] |
//! | `jpeg_decode` | — | [`media::components::JpegDecode`] |
//! | `jpeg_decode_idct` | `field` | [`media::components::JpegDecodeIdct`] |
//! | `idct` | — | [`media::components::Idct`] |
//! | `downscale` | `factor` | [`media::components::Downscale`] |
//! | `blend` | `x`, `y` | [`media::components::Blend`] |
//! | `blur_h` / `blur_v` | `ksize` | [`media::components::BlurH`] / [`media::components::BlurV`] |
//! | `frame_sink` | `capture` | [`media::components::FrameSink`] |
//! | `pass` | — | [`crate::reconfig::Pass`] |
//! | `injector` | `events` (queue), `event`, `every`, `payloads` | [`crate::reconfig::Injector`] |

use crate::reconfig::{Injector, Pass};
use dsp::components::{
    spectrum_accum, AntennaSource, Channelize, CombinePower, PowerDetect, SpectrumAccum,
    SpectrumIntegrator,
};
use dsp::signal::AntennaSignal;
use media::components::{
    capture, Blend, BlurH, BlurV, Capture, Downscale, FrameSink, Idct, JpegDecode, JpegDecodeIdct,
    MjpegSource, PlaneSource,
};
use media::jpeg::MjpegVideo;
use media::video::RawVideo;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use xspcl::elaborate::ComponentRegistry;

/// Everything an application's components need beyond string parameters.
#[derive(Default)]
pub struct AppAssets {
    raw: Mutex<HashMap<String, Arc<RawVideo>>>,
    mjpeg: Mutex<HashMap<String, Arc<MjpegVideo>>>,
    captures: Mutex<HashMap<String, Vec<Capture>>>,
    signals: Mutex<HashMap<String, Arc<AntennaSignal>>>,
    accums: Mutex<HashMap<String, SpectrumAccum>>,
    /// Sinks built over these assets drop their frames instead of
    /// capturing them. Fixed at construction: see [`AppAssets::discarding`].
    discard_output: bool,
}

impl AppAssets {
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// An asset set whose `frame_sink`s discard what they are fed: the
    /// capture sets exist (and stay empty), the sinks are not attached to
    /// them. For graphs nobody can read the output of — a graph spawned
    /// over the wire keeps running for as long as its client likes, and a
    /// capture buffer would grow by a copy of every plane of every frame
    /// until the graph is drained, unread.
    pub fn discarding() -> Arc<Self> {
        Arc::new(Self {
            discard_output: true,
            ..Self::default()
        })
    }

    pub fn add_raw(&self, name: impl Into<String>, video: Arc<RawVideo>) {
        self.raw.lock().insert(name.into(), video);
    }

    pub fn add_mjpeg(&self, name: impl Into<String>, video: Arc<MjpegVideo>) {
        self.mjpeg.lock().insert(name.into(), video);
    }

    /// Insert the raw video only if absent (asset reuse across builds).
    pub fn ensure_raw(
        &self,
        name: impl Into<String>,
        make: impl FnOnce() -> Arc<RawVideo>,
    ) -> Arc<RawVideo> {
        self.raw
            .lock()
            .entry(name.into())
            .or_insert_with(make)
            .clone()
    }

    /// Insert the MJPEG video only if absent.
    pub fn ensure_mjpeg(
        &self,
        name: impl Into<String>,
        make: impl FnOnce() -> Arc<MjpegVideo>,
    ) -> Arc<MjpegVideo> {
        self.mjpeg
            .lock()
            .entry(name.into())
            .or_insert_with(make)
            .clone()
    }

    /// Insert an antenna signal only if absent.
    pub fn ensure_signal(
        &self,
        name: impl Into<String>,
        make: impl FnOnce() -> Arc<AntennaSignal>,
    ) -> Arc<AntennaSignal> {
        self.signals
            .lock()
            .entry(name.into())
            .or_insert_with(make)
            .clone()
    }

    /// Adopt the *input* assets of `src` (raw/MJPEG videos, antenna
    /// signals) without touching the output state (captures,
    /// accumulators). Inputs are immutable `Arc`s, so adopting is
    /// refcount-only.
    pub fn adopt_inputs(&self, src: &AppAssets) {
        {
            let mut raw = self.raw.lock();
            for (k, v) in src.raw.lock().iter() {
                raw.entry(k.clone()).or_insert_with(|| v.clone());
            }
        }
        {
            let mut mjpeg = self.mjpeg.lock();
            for (k, v) in src.mjpeg.lock().iter() {
                mjpeg.entry(k.clone()).or_insert_with(|| v.clone());
            }
        }
        {
            let mut signals = self.signals.lock();
            for (k, v) in src.signals.lock().iter() {
                signals.entry(k.clone()).or_insert_with(|| v.clone());
            }
        }
    }

    /// Run `build` on this asset set with the inputs of `cache` adopted,
    /// then adopt into `cache` whatever inputs `build` generated. This is
    /// how every build owns its outputs (captures, accumulators) while the
    /// expensive generated inputs are made once per process: `cache` is a
    /// process-wide input cache and never holds an output.
    pub fn with_cached_inputs<T>(
        self: Arc<Self>,
        cache: &AppAssets,
        build: impl FnOnce(Arc<Self>) -> T,
    ) -> T {
        self.adopt_inputs(cache);
        let built = build(self.clone());
        cache.adopt_inputs(&self);
        built
    }

    pub fn signal(&self, name: &str) -> Arc<AntennaSignal> {
        self.signals
            .lock()
            .get(name)
            .unwrap_or_else(|| panic!("antenna signal '{name}' not registered"))
            .clone()
    }

    /// Create (or fetch) a named spectrum accumulator with `bins` bins.
    pub fn accumulator(&self, name: impl Into<String>, bins: usize) -> SpectrumAccum {
        self.accums
            .lock()
            .entry(name.into())
            .or_insert_with(|| spectrum_accum(bins))
            .clone()
    }

    /// Create (or fetch) a named capture set with `ports` buffers.
    pub fn capture_set(&self, name: impl Into<String>, ports: usize) -> Vec<Capture> {
        self.captures
            .lock()
            .entry(name.into())
            .or_insert_with(|| (0..ports).map(|_| capture()).collect())
            .clone()
    }

    pub fn raw(&self, name: &str) -> Arc<RawVideo> {
        self.raw
            .lock()
            .get(name)
            .unwrap_or_else(|| panic!("raw video '{name}' not registered"))
            .clone()
    }

    pub fn mjpeg(&self, name: &str) -> Arc<MjpegVideo> {
        self.mjpeg
            .lock()
            .get(name)
            .unwrap_or_else(|| panic!("mjpeg video '{name}' not registered"))
            .clone()
    }

    /// Captured frames of capture set `name`, port `port`, materialised
    /// here: a frame the sink recorded as a field and overlays
    /// ([`media::components::CaptureBuf`]) is built into bytes of its own
    /// when it is read, and reading does not drain.
    pub fn captured(&self, name: &str, port: usize) -> Vec<Vec<u8>> {
        let cap = {
            let caps = self.captures.lock();
            let set = caps
                .get(name)
                .unwrap_or_else(|| panic!("capture set '{name}' missing"));
            set[port].clone()
        };
        let frames = cap.lock().frames().collect();
        frames
    }

    /// Forget all captured frames (their buffers stay, see
    /// [`media::components::CaptureBuf`]) and zero the accumulated spectra
    /// (between runs).
    pub fn clear_captures(&self) {
        for set in self.captures.lock().values() {
            for c in set {
                c.lock().clear();
            }
        }
        for accum in self.accums.lock().values() {
            let mut acc = accum.lock();
            acc.0.fill(0.0);
            acc.1 = 0;
        }
    }
}

/// Parse a comma-separated payload list (`"5,3"`).
fn parse_payloads(raw: &str) -> Vec<i64> {
    raw.split(',')
        .map(|p| p.trim().parse::<i64>().expect("payloads must be integers"))
        .collect()
}

/// Build the registry for the application classes over `assets`.
pub fn registry(assets: &Arc<AppAssets>) -> ComponentRegistry {
    let mut reg = ComponentRegistry::new();

    let a = assets.clone();
    reg.register("plane_source", move |p| {
        let video = a.raw(p.str("file"));
        let field = p.int("field") as usize;
        assert!(field < 3, "field must be 0..3");
        Box::new(PlaneSource::new(video, field))
    });

    let a = assets.clone();
    reg.register("mjpeg_source", move |p| {
        Box::new(MjpegSource::new(a.mjpeg(p.str("file"))))
    });

    reg.register("jpeg_decode", |p| {
        Box::new(JpegDecode::new(p.str_or("label", "dec").to_string()))
    });

    reg.register("jpeg_decode_idct", |p| {
        let field = p.int("field") as usize;
        Box::new(JpegDecodeIdct::new(
            field,
            format!("{}[{}]", p.str_or("label", "fused"), field),
        ))
    });

    reg.register("idct", |p| {
        Box::new(Idct::new(p.str_or("label", "idct").to_string()))
    });

    reg.register("downscale", |p| {
        let factor = p.int("factor") as usize;
        Box::new(Downscale::new(
            factor,
            p.str_or("label", "small").to_string(),
        ))
    });

    reg.register("blend", |p| {
        Box::new(Blend::new(
            p.int("x") as u32,
            p.int("y") as u32,
            p.str_or("label", "blended").to_string(),
        ))
    });

    reg.register("blur_h", |p| {
        Box::new(BlurH::new(
            p.int_or("ksize", 3) as usize,
            p.str_or("label", "hout").to_string(),
        ))
    });

    reg.register("blur_v", |p| {
        Box::new(BlurV::new(
            p.int_or("ksize", 3) as usize,
            p.str_or("label", "vout").to_string(),
        ))
    });

    let a = assets.clone();
    reg.register("frame_sink", move |p| {
        let name = p.str("capture");
        let ports = p.int_or("ports", 3) as usize;
        let caps = a.capture_set(name, ports);
        let attach = !a.discard_output;
        Box::new(FrameSink::new(
            caps.into_iter().map(|cap| attach.then_some(cap)).collect(),
        ))
    });

    reg.register("pass", |_p| Box::new(Pass));

    let a = assets.clone();
    reg.register("antenna_source", move |p| {
        Box::new(AntennaSource::new(a.signal(p.str("signal"))))
    });

    reg.register("channelize", |p| {
        Box::new(Channelize::new(p.int("n") as usize))
    });

    reg.register("power_detect", |p| {
        Box::new(PowerDetect::new(p.int("n") as usize))
    });

    reg.register("combine_power", |_p| Box::new(CombinePower));

    let a = assets.clone();
    reg.register("spectrum_integrator", move |p| {
        let bins = p.int("bins") as usize;
        Box::new(SpectrumIntegrator::new(
            bins,
            a.accumulator(p.str("accum"), bins),
        ))
    });

    reg.register("injector", |p| {
        let payloads = parse_payloads(p.str_or("payloads", "0"));
        Box::new(Injector::with_payloads(
            p.queue("events"),
            p.str("event").to_string(),
            p.int("every") as u64,
            payloads,
        ))
    });

    reg
}

#[cfg(test)]
mod tests {
    use super::*;
    use media::video::VideoSpec;

    #[test]
    fn registry_provides_all_classes() {
        let assets = AppAssets::new();
        let reg = registry(&assets);
        for class in [
            "plane_source",
            "mjpeg_source",
            "jpeg_decode",
            "jpeg_decode_idct",
            "idct",
            "downscale",
            "blend",
            "blur_h",
            "blur_v",
            "frame_sink",
            "pass",
            "injector",
            "antenna_source",
            "channelize",
            "power_detect",
            "combine_power",
            "spectrum_integrator",
        ] {
            assert!(reg.contains(class), "missing class '{class}'");
        }
    }

    #[test]
    fn capture_sets_are_shared_by_name() {
        let assets = AppAssets::new();
        let a = assets.capture_set("out", 3);
        let b = assets.capture_set("out", 3);
        let frame = media::Plane::from_pixels("frame", 3, 1, vec![1, 2, 3]);
        a[1].lock().push_plane(&frame);
        assert_eq!(assets.captured("out", 1), vec![vec![1, 2, 3]]);
        assert_eq!(assets.captured("out", 1).len(), 1, "reading does not drain");
        drop(b);
        assets.clear_captures();
        assert!(assets.captured("out", 1).is_empty());
    }

    #[test]
    fn assets_lookup() {
        let assets = AppAssets::new();
        assets.add_raw(
            "bg",
            Arc::new(RawVideo::generate(VideoSpec::new(8, 8, 1, 0))),
        );
        assert_eq!(assets.raw("bg").spec.width, 8);
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn missing_video_panics() {
        let assets = AppAssets::new();
        let _ = assets.raw("ghost");
    }

    #[test]
    fn payload_parsing() {
        assert_eq!(parse_payloads("5,3"), vec![5, 3]);
        assert_eq!(parse_payloads("0"), vec![0]);
        assert_eq!(parse_payloads(" 1 , -2 "), vec![1, -2]);
    }
}
