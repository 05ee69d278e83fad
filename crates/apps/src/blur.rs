//! Blur: Gaussian kernel over the luminance field.
//!
//! A 3×3 or 5×5 kernel (σ=1) applied to the Y field of a 360×288 video,
//! 96 frames. The kernel is separated into a horizontal and a vertical
//! phase, run in parallel with *cross dependencies* (§3.3, Fig. 5) using
//! 9 data-parallel slices — the vertical phase of slice *i* needs the
//! horizontal results of slices *i−1*, *i*, *i+1* for its boundary rows.
//!
//! Blur-35 switches the kernel size every 12 frames through the manager's
//! *broadcast* action: the injected event's payload (5 or 3) is delivered
//! to every component in the managed subgraph as a `ksize` reconfiguration
//! request under quiescence.
//!
//! In the sequential baseline no operations are combined (paper §4.1), so
//! the XSPCL version's overhead is expected to be ≈ 0.

use crate::registry::{registry, AppAssets};
use hinch::meter::{AccessKind, Meter, SimBuf};
use media::blur::{blur_h_rows, blur_v_rows};
use media::costs::*;
use media::video::{RawVideo, VideoSpec};
use std::sync::Arc;
use xspcl::{compile, Elaborated, XspclError};

/// Configuration of a Blur build.
#[derive(Debug, Clone)]
pub struct BlurConfig {
    /// Kernel size: 3 or 5.
    pub ksize: usize,
    pub width: usize,
    pub height: usize,
    /// Data-parallel slices of the crossdep group (9 in the paper).
    pub slices: usize,
    pub distinct_frames: usize,
    pub seed: u64,
    /// `Some(n)`: Blur-35, alternating 5×5/3×3 every `n` frames.
    pub reconfig_every: Option<u64>,
}

impl BlurConfig {
    /// The paper's configuration with the given kernel.
    pub fn paper(ksize: usize) -> Self {
        Self {
            ksize,
            width: 360,
            height: 288,
            slices: 9,
            distinct_frames: 8,
            seed: 99,
            reconfig_every: None,
        }
    }

    /// The paper's Blur-35 (kernel switched every 12 frames, starting 3×3).
    pub fn paper_reconfig() -> Self {
        Self {
            reconfig_every: Some(12),
            ..Self::paper(3)
        }
    }

    /// A small configuration for tests.
    pub fn small(ksize: usize) -> Self {
        Self {
            ksize,
            width: 40,
            height: 36,
            slices: 3,
            distinct_frames: 3,
            seed: 5,
            reconfig_every: None,
        }
    }
}

/// Emit the XSPCL document for `cfg`.
pub fn blur_xml(cfg: &BlurConfig) -> String {
    assert!(cfg.ksize == 3 || cfg.ksize == 5);
    let mut s = String::from("<xspcl>\n");
    if cfg.reconfig_every.is_some() {
        s.push_str("  <queue name=\"mq\"/>\n");
    }
    s.push_str("  <procedure name=\"main\">\n");
    s.push_str("    <stream name=\"in\"/><stream name=\"hmid\"/><stream name=\"out\"/>\n");
    s.push_str("    <body>\n");
    if let Some(every) = cfg.reconfig_every {
        s.push_str(&format!(
            r#"      <manager name="m" queue="mq">
        <on event="switch"><broadcast key="ksize"/></on>
        <body>
          <component name="inj" class="injector">
            <param name="events" queue="mq"/>
            <param name="event" value="switch"/>
            <param name="every" value="{every}"/>
            <param name="payloads" value="5,3"/>
          </component>
"#,
        ));
    }
    s.push_str(
        "      <component name=\"input\" class=\"plane_source\"><out port=\"output\" stream=\"in\"/><param name=\"file\" value=\"video\"/><param name=\"field\" value=\"0\"/></component>\n",
    );
    s.push_str(&format!(
        r#"      <parallel shape="crossdep" n="{n}" name="blur">
        <parblock>
          <component name="horizontal" class="blur_h">
            <in port="input" stream="in"/>
            <out port="output" stream="hmid"/>
            <param name="ksize" value="{k}"/>
          </component>
        </parblock>
        <parblock>
          <component name="vertical" class="blur_v">
            <in port="input" stream="hmid"/>
            <out port="output" stream="out"/>
            <param name="ksize" value="{k}"/>
          </component>
        </parblock>
      </parallel>
"#,
        n = cfg.slices,
        k = cfg.ksize
    ));
    s.push_str(
        "      <component name=\"output\" class=\"frame_sink\"><in port=\"y\" stream=\"out\"/><param name=\"capture\" value=\"out\"/><param name=\"ports\" value=\"1\"/></component>\n",
    );
    if cfg.reconfig_every.is_some() {
        s.push_str("        </body>\n      </manager>\n");
    }
    s.push_str("    </body>\n  </procedure>\n</xspcl>\n");
    s
}

/// A compiled, runnable Blur application.
pub struct BlurApp {
    pub cfg: BlurConfig,
    pub assets: Arc<AppAssets>,
    pub elaborated: Elaborated,
    pub xml: String,
}

pub fn build(cfg: &BlurConfig) -> Result<BlurApp, XspclError> {
    build_on(cfg, AppAssets::new())
}

/// Like [`build`], reusing an already-generated video in `assets`.
pub fn build_on(cfg: &BlurConfig, assets: Arc<AppAssets>) -> Result<BlurApp, XspclError> {
    let spec = VideoSpec::new(cfg.width, cfg.height, cfg.distinct_frames, cfg.seed);
    assets.ensure_raw("video", || Arc::new(RawVideo::generate(spec)));
    assets.capture_set("out", 1);
    let xml = blur_xml(cfg);
    let reg = registry(&assets);
    let elaborated = compile(&xml, &reg)?;
    Ok(BlurApp {
        cfg: cfg.clone(),
        assets,
        elaborated,
        xml,
    })
}

/// Kernel size of iteration `iter` under the Blur-35 schedule: the
/// injector's payloads 5,3,5,... each land exactly on a multiple of
/// `every` (see [`crate::reconfig::Injector`]), so the kernel switches at
/// frames `every, 2*every, ...` on every engine and pipeline depth — the
/// paper's "switch every 12 frames".
pub fn baseline_ksize(iter: u64, every: u64, start: usize) -> usize {
    let phase = (iter / every) % 2;
    if phase == 0 {
        start
    } else if start == 3 {
        5
    } else {
        3
    }
}

/// The hand-written sequential Blur baseline: no fusion, reused buffers,
/// no run-time system. `ksize_of(iter)` selects the kernel per frame.
pub fn sequential(
    cfg: &BlurConfig,
    assets: &AppAssets,
    frames: u64,
    ksize_of: impl Fn(u64) -> usize,
    meter: &mut dyn Meter,
) -> Vec<Vec<u8>> {
    let video = assets.raw("video");
    let (w, h) = (cfg.width, cfg.height);
    let buf_sim = SimBuf::new((w * h) as u64);
    let tmp_sim = SimBuf::new((w * h) as u64);
    let out_sim = SimBuf::new((w * h) as u64);
    let file_sim = SimBuf::new((w * h) as u64);
    let mut buf = vec![0u8; w * h];
    let mut tmp = vec![0u8; w * h];
    let mut out = vec![0u8; w * h];
    let mut outputs = Vec::with_capacity(frames as usize);
    let plane = (w * h) as u64;
    for frame in 0..frames {
        let ksize = ksize_of(frame);
        // read the frame from the file into the working buffer
        meter.touch(video.read_access(frame as usize, 0));
        buf.copy_from_slice(video.field(frame as usize, 0));
        meter.touch(buf_sim.access(0, plane, AccessKind::Write));
        meter.charge(CYC_SOURCE_PX * plane);
        // horizontal phase
        let px = blur_h_rows(&buf, w, h, ksize, 0..h, &mut tmp);
        meter.touch(buf_sim.access(0, plane, AccessKind::Read));
        meter.touch(tmp_sim.access(0, plane, AccessKind::Write));
        meter.charge(
            if ksize == 3 {
                CYC_BLUR_H3_PX
            } else {
                CYC_BLUR_H5_PX
            } * px,
        );
        // vertical phase
        let px = blur_v_rows(&tmp, w, h, ksize, 0..h, &mut out);
        meter.touch(tmp_sim.access(0, plane, AccessKind::Read));
        meter.touch(out_sim.access(0, plane, AccessKind::Write));
        meter.charge(
            if ksize == 3 {
                CYC_BLUR_V3_PX
            } else {
                CYC_BLUR_V5_PX
            } * px,
        );
        // write out
        meter.touch(out_sim.access(0, plane, AccessKind::Read));
        meter.touch(file_sim.access(0, plane, AccessKind::Write));
        meter.charge(CYC_COPY_PX * plane);
        outputs.push(out.clone());
    }
    outputs
}

#[cfg(test)]
mod tests {
    use super::*;
    use hinch::engine::{run_native, RunConfig};
    use hinch::meter::NullMeter;

    #[test]
    fn xml_compiles_for_all_variants() {
        for cfg in [
            BlurConfig::small(3),
            BlurConfig::small(5),
            BlurConfig {
                reconfig_every: Some(4),
                ..BlurConfig::small(3)
            },
        ] {
            let app = build(&cfg).expect("compiles");
            assert!(app.elaborated.spec.leaf_count() > 0);
        }
    }

    #[test]
    fn xspcl_output_matches_sequential_baseline() {
        for ksize in [3, 5] {
            let cfg = BlurConfig::small(ksize);
            let app = build(&cfg).unwrap();
            let frames = 6u64;
            run_native(&app.elaborated.spec, &RunConfig::new(frames).workers(3)).unwrap();
            let mut meter = NullMeter;
            let want = sequential(&cfg, &app.assets, frames, |_| ksize, &mut meter);
            let got = app.assets.captured("out", 0);
            assert_eq!(got.len(), frames as usize);
            for (i, frame) in got.iter().enumerate() {
                assert_eq!(frame, &want[i], "ksize={ksize} frame={i} differs");
            }
        }
    }

    #[test]
    fn crossdep_structure() {
        let app = build(&BlurConfig::small(3)).unwrap();
        // src + blur_h + blur_v + sink (pre-expansion)
        assert_eq!(app.elaborated.spec.leaf_count(), 4);
    }

    #[test]
    fn blur35_switches_kernels() {
        let every = 3;
        let cfg = BlurConfig {
            reconfig_every: Some(every),
            ..BlurConfig::small(3)
        };
        let frames = 24u64;
        // Depth 1 lands all seven switches on their multiples of 3; at
        // depth 5 the three due at frames 3, 6 and 9 land together at
        // frame 10 and the four due at 12..=21 land on time.
        for (depth, reconfigs) in [(1, 7), (5, 5)] {
            let app = build(&cfg).unwrap();
            let run = RunConfig::new(frames).workers(2).pipeline_depth(depth);
            let report = run_native(&app.elaborated.spec, &run).unwrap();
            assert_eq!((report.iterations, report.reconfigs), (frames, reconfigs));
            let got = app.assets.captured("out", 0);
            assert_eq!(got.len(), frames as usize);
            // The kernel follows the 3-frame period from frame 2d on.
            let mut meter = NullMeter;
            let ksize = |i: u64| {
                if i < 2 * depth as u64 {
                    3
                } else {
                    baseline_ksize(i, every, 3)
                }
            };
            let want = sequential(&cfg, &app.assets, frames, ksize, &mut meter);
            for (i, frame) in got.iter().enumerate() {
                assert!(frame == &want[i], "depth {depth}: frame {i}");
            }
        }
    }

    #[test]
    fn baseline_ksize_schedule() {
        // start 3, switch every 12: frames 0-11 → 3, 12-23 → 5, 24-35 → 3
        assert_eq!(baseline_ksize(0, 12, 3), 3);
        assert_eq!(baseline_ksize(11, 12, 3), 3);
        assert_eq!(baseline_ksize(12, 12, 3), 5);
        assert_eq!(baseline_ksize(23, 12, 3), 5);
        assert_eq!(baseline_ksize(24, 12, 3), 3);
    }
}
