//! JPEG Picture-in-Picture (JPiP).
//!
//! Like PiP, but the inputs are MJPEG streams: each frame must be entropy
//! decoded and inverse-transformed before scaling and blending (the
//! paper's Fig. 7). The application is in Series-Parallel form with a
//! synchronization point between each operation: inputs → decodes → IDCTs
//! → down scales → blends → output, fields task-parallel within each
//! operation, IDCT/scaler/blender sliced ×45 (paper: 1280×720, factor 16,
//! 24 frames).
//!
//! The sequential baseline fuses decode and IDCT block-wise — a decoded
//! block is transformed while still in the cache — whereas the XSPCL
//! version materializes full coefficient planes in streams between the
//! decode and IDCT components. That locality difference is what the
//! paper's profiling blames for JPiP's ~18 % sequential overhead.

use crate::registry::{registry, AppAssets};
use hinch::meter::{AccessKind, Meter, SimBuf};
use media::costs::*;
use media::jpeg::codec::ScanDecoder;
use media::jpeg::mjpeg::MjpegVideo;
use media::jpeg::quant::Channel;
use media::scale::scaled_dims;
use media::video::VideoSpec;
use std::sync::Arc;
use xspcl::{compile, Elaborated, XspclError};

/// Configuration of a JPiP build.
#[derive(Debug, Clone)]
pub struct JpipConfig {
    pub pips: usize,
    pub width: usize,
    pub height: usize,
    /// Down-scale factor for the pictures (16 in the paper).
    pub factor: usize,
    /// Slice count for IDCT / scaler / blender groups (45 in the paper).
    pub slices: usize,
    /// JPEG quality of the synthesized streams.
    pub quality: u8,
    pub distinct_frames: usize,
    pub seed: u64,
    pub reconfig_every: Option<u64>,
    /// Tile-granular fusion: replace the `jpeg_decode` → stream →
    /// `sliced_idct` pipeline with per-field `jpeg_decode_idct`
    /// components, so coefficient tiles never round-trip whole planes
    /// through stream buffers (trades the ×`slices` IDCT data
    /// parallelism for the sequential baseline's block locality; fields
    /// stay task-parallel).
    pub fuse: bool,
}

impl JpipConfig {
    /// The paper's configuration with `pips` pictures.
    pub fn paper(pips: usize) -> Self {
        Self {
            pips,
            width: 1280,
            height: 720,
            factor: 16,
            slices: 45,
            quality: 75,
            distinct_frames: 4,
            seed: 1729,
            reconfig_every: None,
            fuse: false,
        }
    }

    /// The paper's JPiP-12 (second picture toggled every 12 frames).
    pub fn paper_reconfig() -> Self {
        Self {
            reconfig_every: Some(12),
            ..Self::paper(2)
        }
    }

    /// A small configuration for tests (dimensions must be multiples of 8).
    pub fn small(pips: usize) -> Self {
        Self {
            pips,
            width: 64,
            height: 32,
            factor: 8,
            slices: 3,
            quality: 80,
            distinct_frames: 2,
            seed: 11,
            reconfig_every: None,
            fuse: false,
        }
    }

    /// Enable tile-granular decode+IDCT fusion.
    pub fn fused(mut self) -> Self {
        self.fuse = true;
        self
    }

    pub fn position(&self, k: usize) -> (usize, usize) {
        let (pw, _) = scaled_dims(self.width, self.height, self.factor);
        let margin = (self.width / 45).max(2);
        if k == 0 {
            (margin, margin)
        } else {
            (self.width - pw - margin, margin)
        }
    }
}

pub(crate) const JPEG_PROCS: &str = r#"
  <procedure name="jpeg_in">
    <formal name="file"/>
    <formalstream name="cy"/><formalstream name="cu"/><formalstream name="cv"/>
    <stream name="compressed"/>
    <body>
      <component name="input" class="mjpeg_source">
        <out port="output" stream="compressed"/>
        <param name="file" value="$file"/>
      </component>
      <component name="decode" class="jpeg_decode">
        <in port="input" stream="compressed"/>
        <out port="y" stream="cy"/><out port="u" stream="cu"/><out port="v" stream="cv"/>
      </component>
    </body>
  </procedure>
  <procedure name="sliced_idct">
    <formal name="slices"/>
    <formalstream name="input"/><formalstream name="output"/>
    <body>
      <parallel shape="slice" n="$slices" name="id">
        <parblock>
          <component name="idct" class="idct">
            <in port="input" stream="input"/>
            <out port="output" stream="output"/>
          </component>
        </parblock>
      </parallel>
    </body>
  </procedure>
"#;

/// Fused input procedure: the compressed stream feeds three per-field
/// `jpeg_decode_idct` components that emit pixel planes directly — no
/// coefficient streams, no sliced IDCT stage.
pub(crate) const JPEG_FUSED_PROCS: &str = r#"
  <procedure name="jpeg_in_fused">
    <formal name="file"/>
    <formalstream name="py"/><formalstream name="pu"/><formalstream name="pv"/>
    <stream name="compressed"/>
    <body>
      <component name="input" class="mjpeg_source">
        <out port="output" stream="compressed"/>
        <param name="file" value="$file"/>
      </component>
      <parallel shape="task" name="fields">
        <parblock>
          <component name="f0" class="jpeg_decode_idct">
            <in port="input" stream="compressed"/>
            <out port="output" stream="py"/>
            <param name="field" value="0"/>
          </component>
        </parblock>
        <parblock>
          <component name="f1" class="jpeg_decode_idct">
            <in port="input" stream="compressed"/>
            <out port="output" stream="pu"/>
            <param name="field" value="1"/>
          </component>
        </parblock>
        <parblock>
          <component name="f2" class="jpeg_decode_idct">
            <in port="input" stream="compressed"/>
            <out port="output" stream="pv"/>
            <param name="field" value="2"/>
          </component>
        </parblock>
      </parallel>
    </body>
  </procedure>
"#;

/// Emit the XSPCL document for `cfg`.
pub fn jpip_xml(cfg: &JpipConfig) -> String {
    assert!(
        cfg.pips >= 1 && cfg.pips <= 2,
        "JPiP supports 1 or 2 pictures"
    );
    let mut s = String::from("<xspcl>\n");
    if cfg.reconfig_every.is_some() {
        s.push_str("  <queue name=\"mq\"/>\n");
    }
    if cfg.fuse {
        s.push_str(JPEG_FUSED_PROCS);
    } else {
        s.push_str(JPEG_PROCS);
    }
    s.push_str(crate::pip::SLICED_OPS);
    s.push_str("  <procedure name=\"main\">\n");
    let fuse = cfg.fuse;
    let streams_of = |v: &str| -> String {
        (0..3)
            .map(|f| {
                if fuse {
                    // fused: pixel planes come straight out of the decode
                    format!("    <stream name=\"px_{v}_{f}\"/>\n")
                } else {
                    format!("    <stream name=\"c_{v}_{f}\"/><stream name=\"px_{v}_{f}\"/>\n")
                }
            })
            .collect()
    };
    s.push_str(&streams_of("bg"));
    s.push_str(&streams_of("p1"));
    if cfg.pips == 2 {
        s.push_str(&streams_of("p2"));
    }
    for f in 0..3 {
        s.push_str(&format!(
            "    <stream name=\"small1_{f}\"/><stream name=\"o1_{f}\"/>\n"
        ));
        if cfg.pips == 2 {
            s.push_str(&format!(
                "    <stream name=\"small2_{f}\"/><stream name=\"o2_{f}\"/>\n"
            ));
        }
    }
    s.push_str("    <body>\n");
    let reconfig = cfg.reconfig_every;
    if let Some(every) = reconfig {
        s.push_str(&format!(
            r#"      <manager name="m" queue="mq">
        <on event="flip"><toggle option="pip2"/><toggle option="bypass"/></on>
        <body>
          <component name="inj" class="injector">
            <param name="events" queue="mq"/>
            <param name="event" value="flip"/>
            <param name="every" value="{every}"/>
            <param name="lead" value="{lead}"/>
          </component>
"#,
            lead = every.saturating_sub(2).min(6)
        ));
    }

    let jpeg_in_call = |v: &str, file: &str| {
        if fuse {
            format!(
                "<call procedure=\"jpeg_in_fused\"><param name=\"file\" value=\"{file}\"/><bind formal=\"py\" stream=\"px_{v}_0\"/><bind formal=\"pu\" stream=\"px_{v}_1\"/><bind formal=\"pv\" stream=\"px_{v}_2\"/></call>"
            )
        } else {
            format!(
                "<call procedure=\"jpeg_in\"><param name=\"file\" value=\"{file}\"/><bind formal=\"cy\" stream=\"c_{v}_0\"/><bind formal=\"cu\" stream=\"c_{v}_1\"/><bind formal=\"cv\" stream=\"c_{v}_2\"/></call>"
            )
        }
    };
    let idct_call = |v: &str, f: usize, slices: usize| {
        format!(
            "<call procedure=\"sliced_idct\"><bind formal=\"input\" stream=\"c_{v}_{f}\"/><bind formal=\"output\" stream=\"px_{v}_{f}\"/><param name=\"slices\" value=\"{slices}\"/></call>"
        )
    };

    // inputs + decodes (bg and picture 1)
    s.push_str("      <parallel shape=\"task\" name=\"inputs\">\n");
    s.push_str(&format!(
        "        <parblock>{}</parblock>\n",
        jpeg_in_call("bg", "bg")
    ));
    s.push_str(&format!(
        "        <parblock>{}</parblock>\n",
        jpeg_in_call("p1", "pip1")
    ));
    s.push_str("      </parallel>\n");
    if !fuse {
        // IDCTs for all fields of bg and p1 (one operation, fields concurrent)
        s.push_str("      <parallel shape=\"task\" name=\"idcts\">\n");
        for v in ["bg", "p1"] {
            for f in 0..3 {
                s.push_str(&format!(
                    "        <parblock>{}</parblock>\n",
                    idct_call(v, f, cfg.slices)
                ));
            }
        }
        s.push_str("      </parallel>\n");
    }
    // down scales of picture 1
    s.push_str("      <parallel shape=\"task\" name=\"scales\">\n");
    for f in 0..3 {
        s.push_str(&format!(
            "        <parblock><call procedure=\"sliced_downscale\"><bind formal=\"input\" stream=\"px_p1_{f}\"/><bind formal=\"output\" stream=\"small1_{f}\"/><param name=\"factor\" value=\"{}\"/><param name=\"slices\" value=\"{}\"/></call></parblock>\n",
            cfg.factor, cfg.slices
        ));
    }
    s.push_str("      </parallel>\n");
    // blends of picture 1 into the background
    let (x1, y1) = cfg.position(0);
    s.push_str("      <parallel shape=\"task\" name=\"blends\">\n");
    for f in 0..3 {
        s.push_str(&format!(
            "        <parblock><call procedure=\"sliced_blend\"><bind formal=\"background\" stream=\"px_bg_{f}\"/><bind formal=\"picture\" stream=\"small1_{f}\"/><bind formal=\"output\" stream=\"o1_{f}\"/><param name=\"x\" value=\"{x1}\"/><param name=\"y\" value=\"{y1}\"/><param name=\"slices\" value=\"{}\"/></call></parblock>\n",
            cfg.slices
        ));
    }
    s.push_str("      </parallel>\n");

    if cfg.pips == 2 {
        let (x2, y2) = cfg.position(1);
        let chain2 = {
            let mut c = String::new();
            c.push_str(&format!("        {}\n", jpeg_in_call("p2", "pip2")));
            if !fuse {
                c.push_str("        <parallel shape=\"task\" name=\"idct2\">\n");
                for f in 0..3 {
                    c.push_str(&format!(
                        "          <parblock>{}</parblock>\n",
                        idct_call("p2", f, cfg.slices)
                    ));
                }
                c.push_str("        </parallel>\n");
            }
            c.push_str("        <parallel shape=\"task\" name=\"scale2\">\n");
            for f in 0..3 {
                c.push_str(&format!(
                    "          <parblock><call procedure=\"sliced_downscale\"><bind formal=\"input\" stream=\"px_p2_{f}\"/><bind formal=\"output\" stream=\"small2_{f}\"/><param name=\"factor\" value=\"{}\"/><param name=\"slices\" value=\"{}\"/></call></parblock>\n",
                    cfg.factor, cfg.slices
                ));
            }
            c.push_str("        </parallel>\n        <parallel shape=\"task\" name=\"blend2\">\n");
            for f in 0..3 {
                c.push_str(&format!(
                    "          <parblock><call procedure=\"sliced_blend\"><bind formal=\"background\" stream=\"o1_{f}\"/><bind formal=\"picture\" stream=\"small2_{f}\"/><bind formal=\"output\" stream=\"o2_{f}\"/><param name=\"x\" value=\"{x2}\"/><param name=\"y\" value=\"{y2}\"/><param name=\"slices\" value=\"{}\"/></call></parblock>\n",
                    cfg.slices
                ));
            }
            c.push_str("        </parallel>\n");
            c
        };
        if reconfig.is_some() {
            s.push_str("      <option name=\"pip2\" enabled=\"false\">\n");
            s.push_str(&chain2);
            s.push_str("      </option>\n      <option name=\"bypass\" enabled=\"true\">\n        <parallel shape=\"task\" name=\"byp\">\n");
            for f in 0..3 {
                s.push_str(&format!(
                    "          <parblock><component name=\"pass{f}\" class=\"pass\"><in port=\"input\" stream=\"o1_{f}\"/><out port=\"output\" stream=\"o2_{f}\"/></component></parblock>\n"
                ));
            }
            s.push_str("        </parallel>\n      </option>\n");
        } else {
            s.push_str(&chain2);
        }
    }

    let out = if cfg.pips == 2 { "o2_" } else { "o1_" };
    s.push_str(&format!(
        "      <component name=\"output\" class=\"frame_sink\"><in port=\"y\" stream=\"{out}0\"/><in port=\"u\" stream=\"{out}1\"/><in port=\"v\" stream=\"{out}2\"/><param name=\"capture\" value=\"out\"/></component>\n"
    ));
    if reconfig.is_some() {
        s.push_str("        </body>\n      </manager>\n");
    }
    s.push_str("    </body>\n  </procedure>\n</xspcl>\n");
    s
}

/// A compiled, runnable JPiP application.
pub struct JpipApp {
    pub cfg: JpipConfig,
    pub assets: Arc<AppAssets>,
    pub elaborated: Elaborated,
    pub xml: String,
}

/// Generate + encode the inputs, build the registry, compile the XSPCL.
pub fn build(cfg: &JpipConfig) -> Result<JpipApp, XspclError> {
    build_on(cfg, AppAssets::new())
}

/// Like [`build`], reusing already-encoded videos in `assets`.
pub fn build_on(cfg: &JpipConfig, assets: Arc<AppAssets>) -> Result<JpipApp, XspclError> {
    let spec = VideoSpec::new(cfg.width, cfg.height, cfg.distinct_frames, cfg.seed);
    assets.ensure_mjpeg("bg", || Arc::new(MjpegVideo::generate(spec, cfg.quality)));
    assets.ensure_mjpeg("pip1", || {
        Arc::new(MjpegVideo::generate(
            VideoSpec {
                seed: cfg.seed + 1,
                ..spec
            },
            cfg.quality,
        ))
    });
    if cfg.pips == 2 {
        assets.ensure_mjpeg("pip2", || {
            Arc::new(MjpegVideo::generate(
                VideoSpec {
                    seed: cfg.seed + 2,
                    ..spec
                },
                cfg.quality,
            ))
        });
    }
    assets.capture_set("out", 3);
    let xml = jpip_xml(cfg);
    let reg = registry(&assets);
    let elaborated = compile(&xml, &reg)?;
    Ok(JpipApp {
        cfg: cfg.clone(),
        assets,
        elaborated,
        xml,
    })
}

/// Decode one plane block-wise, fusing entropy decode and IDCT (the
/// sequential baseline's locality advantage), writing into `out`.
#[allow(clippy::too_many_arguments)]
fn decode_plane_fused(
    scan: &[u8],
    w: usize,
    h: usize,
    channel: Channel,
    quality: u8,
    out: &mut [u8],
    meter: &mut dyn Meter,
    out_sim: SimBuf,
) {
    let mut dec = ScanDecoder::new(scan, w, h, channel, quality);
    for by in 0..h / 8 {
        dec.next_block_row_to_pixels(w / 8, &mut out[by * 8 * w..(by + 1) * 8 * w]);
        // pixel stripe of this block row is written out
        meter.touch(out_sim.access((by * 8 * w) as u64, (8 * w) as u64, AccessKind::Write));
    }
    meter.charge(
        CYC_ENTROPY_BLOCK * dec.stats.blocks
            + CYC_ENTROPY_COEF * dec.stats.coded_coefs
            + CYC_IDCT_BLOCK * dec.stats.blocks,
    );
}

/// The hand-written sequential JPiP baseline. Bit-identical outputs to the
/// XSPCL application.
#[allow(clippy::needless_range_loop)]
pub fn sequential(
    cfg: &JpipConfig,
    assets: &AppAssets,
    frames: u64,
    meter: &mut dyn Meter,
) -> Vec<[Vec<u8>; 3]> {
    let bg = assets.mjpeg("bg");
    let pips: Vec<Arc<MjpegVideo>> = (0..cfg.pips)
        .map(|k| assets.mjpeg(&format!("pip{}", k + 1)))
        .collect();
    let (w, h) = (cfg.width, cfg.height);
    let (pw, ph) = scaled_dims(w, h, cfg.factor);
    let composed_sim = SimBuf::new((w * h) as u64);
    let pip_sim = SimBuf::new((w * h) as u64);
    let file_sim = SimBuf::new((w * h * 3) as u64);
    let mut composed = vec![0u8; w * h];
    let mut pip_px = vec![0u8; w * h];
    let mut outputs = Vec::with_capacity(frames as usize);
    for frame in 0..frames as usize {
        let mut fields: [Vec<u8>; 3] = Default::default();
        for field in [0, 1, 2] {
            let channel = media::jpeg::codec::JpegImage::channel_of(field);
            // decode the background straight into the composed buffer
            let img = bg.frame(frame);
            meter.touch(bg.read_access(frame, field));
            decode_plane_fused(
                &img.scans[field],
                w,
                h,
                channel,
                img.quality,
                &mut composed,
                meter,
                composed_sim,
            );
            // decode each picture, then fused down scale + blend
            for (k, pip) in pips.iter().enumerate() {
                let (px, py) = cfg.position(k);
                let pimg = pip.frame(frame);
                meter.touch(pip.read_access(frame, field));
                decode_plane_fused(
                    &pimg.scans[field],
                    w,
                    h,
                    channel,
                    pimg.quality,
                    &mut pip_px,
                    meter,
                    pip_sim,
                );
                // The box filter is written out here on purpose, not a call
                // to `media::scale::downscale_rows`: this function is the
                // second implementation the sliced graph is compared with
                // (`tests/end_to_end.rs`, the tests below), and a shared
                // vector kernel with a bug would agree with itself.
                let area = (cfg.factor * cfg.factor) as u32;
                for oy in 0..ph {
                    for ox in 0..pw {
                        let mut acc = 0u32;
                        for dy in 0..cfg.factor {
                            let row = (oy * cfg.factor + dy) * w + ox * cfg.factor;
                            acc += pip_px[row..row + cfg.factor]
                                .iter()
                                .map(|&p| p as u32)
                                .sum::<u32>();
                        }
                        composed[(py + oy) * w + px + ox] = ((acc + area / 2) / area) as u8;
                    }
                }
                meter.touch(pip_sim.access(0, (w * h) as u64, AccessKind::Read));
                meter.charge(
                    CYC_DOWNSCALE_IN_PX * (pw * ph * cfg.factor * cfg.factor) as u64
                        + CYC_BLEND_PX * (pw * ph) as u64,
                );
                meter.touch(composed_sim.access(
                    (py * w) as u64,
                    (ph * w) as u64,
                    AccessKind::Write,
                ));
            }
            // write the composed field to the output file
            meter.touch(file_sim.access((field * w * h) as u64, (w * h) as u64, AccessKind::Write));
            meter.charge(CYC_COPY_PX * (w * h) as u64);
            fields[field] = composed.clone();
        }
        outputs.push(fields);
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
            JpipConfig::small(1),
            JpipConfig::small(2),
            JpipConfig {
                reconfig_every: Some(4),
                ..JpipConfig::small(2)
            },
        ] {
            let app = build(&cfg).expect("compiles");
            assert!(app.elaborated.spec.leaf_count() > 0);
        }
    }

    #[test]
    fn figure7_structure() {
        // 1 picture: 2 sources, 2 decodes, 6 idcts, 3 scalers, 3 blenders,
        // 1 sink — the boxes of the paper's Fig. 7
        let app = build(&JpipConfig::small(1)).unwrap();
        let mut classes = std::collections::HashMap::new();
        app.elaborated.spec.visit_leaves(&mut |c| {
            *classes.entry(c.class.clone()).or_insert(0) += 1;
        });
        assert_eq!(classes["mjpeg_source"], 2);
        assert_eq!(classes["jpeg_decode"], 2);
        assert_eq!(classes["idct"], 6);
        assert_eq!(classes["downscale"], 3);
        assert_eq!(classes["blend"], 3);
        assert_eq!(classes["frame_sink"], 1);
    }

    #[test]
    fn xspcl_output_matches_sequential_baseline() {
        for pips in [1, 2] {
            let cfg = JpipConfig::small(pips);
            let app = build(&cfg).unwrap();
            let frames = 4u64;
            run_native(&app.elaborated.spec, &RunConfig::new(frames).workers(3)).unwrap();
            let mut meter = NullMeter;
            let want = sequential(&cfg, &app.assets, frames, &mut meter);
            for field in [0, 1, 2] {
                let got = app.assets.captured("out", field);
                assert_eq!(got.len(), frames as usize);
                for (i, frame) in got.iter().enumerate() {
                    assert_eq!(
                        frame, &want[i][field],
                        "pips={pips} field={field} frame={i} differs"
                    );
                }
            }
        }
    }

    #[test]
    fn fused_structure_replaces_decode_and_idct() {
        // fused: 2 sources, 6 per-field fused decodes, no separate
        // decode/IDCT stages; scalers/blenders/sink unchanged
        let app = build(&JpipConfig::small(1).fused()).unwrap();
        let mut classes = std::collections::HashMap::new();
        app.elaborated.spec.visit_leaves(&mut |c| {
            *classes.entry(c.class.clone()).or_insert(0) += 1;
        });
        assert_eq!(classes["mjpeg_source"], 2);
        assert_eq!(classes["jpeg_decode_idct"], 6);
        assert!(!classes.contains_key("jpeg_decode"));
        assert!(!classes.contains_key("idct"));
        assert_eq!(classes["downscale"], 3);
        assert_eq!(classes["blend"], 3);
        assert_eq!(classes["frame_sink"], 1);
    }

    #[test]
    fn fused_output_matches_sequential_baseline() {
        for pips in [1, 2] {
            let cfg = JpipConfig::small(pips).fused();
            let app = build(&cfg).unwrap();
            let frames = 4u64;
            run_native(&app.elaborated.spec, &RunConfig::new(frames).workers(3)).unwrap();
            let mut meter = NullMeter;
            let want = sequential(&cfg, &app.assets, frames, &mut meter);
            for field in [0, 1, 2] {
                let got = app.assets.captured("out", field);
                assert_eq!(got.len(), frames as usize);
                for (i, frame) in got.iter().enumerate() {
                    assert_eq!(
                        frame, &want[i][field],
                        "fused pips={pips} field={field} frame={i} differs"
                    );
                }
            }
        }
    }

    #[test]
    fn fused_reconfigurable_variant_runs() {
        let cfg = JpipConfig {
            reconfig_every: Some(3),
            ..JpipConfig::small(2)
        }
        .fused();
        let app = build(&cfg).unwrap();
        let report = run_native(&app.elaborated.spec, &RunConfig::new(9).workers(2)).unwrap();
        assert_eq!(report.iterations, 9);
        assert!(report.reconfigs >= 1);
        assert_eq!(app.assets.captured("out", 0).len(), 9);
    }

    #[test]
    fn reconfigurable_variant_runs() {
        let cfg = JpipConfig {
            reconfig_every: Some(3),
            ..JpipConfig::small(2)
        };
        let app = build(&cfg).unwrap();
        let report = run_native(&app.elaborated.spec, &RunConfig::new(9).workers(2)).unwrap();
        assert_eq!(report.iterations, 9);
        assert!(report.reconfigs >= 1);
        assert_eq!(app.assets.captured("out", 0).len(), 9);
    }
}
