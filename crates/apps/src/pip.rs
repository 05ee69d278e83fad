//! Picture-in-Picture (PiP).
//!
//! Reads multiple uncompressed videos and combines them into one: the
//! background is simply copied, each picture-in-picture video is scaled
//! down by 4 and blended in. Task parallelism: the pipeline plus the three
//! color fields processed concurrently; data parallelism: the down scaler
//! and blender run with 8 slices (paper §4, app 1; 720×576, 96 frames).
//!
//! The XSPCL document is produced by [`pip_xml`] — playing the role of the
//! paper's graphical front-end emitting the coordination language — and
//! compiled against the [`crate::registry`]. The hand-written sequential
//! baseline ([`sequential`]) fuses down scaling and blending into a single
//! function, exactly the difference the paper names as the source of PiP's
//! ~5 % XSPCL overhead.

use crate::registry::{registry, AppAssets};
use hinch::meter::{AccessKind, Meter, SimBuf};
use media::costs::*;
use media::scale::scaled_dims;
use media::video::{RawVideo, VideoSpec};
use std::sync::Arc;
use xspcl::{compile, Elaborated, XspclError};

/// Configuration of a PiP build.
#[derive(Debug, Clone)]
pub struct PipConfig {
    /// Number of picture-in-picture videos (1 or 2 in the paper).
    pub pips: usize,
    /// Frame size.
    pub width: usize,
    pub height: usize,
    /// Down-scale factor.
    pub factor: usize,
    /// Slice count for the scaler and blender groups.
    pub slices: usize,
    /// Distinct generated frames (iterations wrap around).
    pub distinct_frames: usize,
    /// Generator seed.
    pub seed: u64,
    /// `Some(n)`: build the reconfigurable variant (PiP-12) that toggles
    /// the second picture every `n` frames.
    pub reconfig_every: Option<u64>,
}

impl PipConfig {
    /// The paper's configuration with `pips` pictures.
    pub fn paper(pips: usize) -> Self {
        Self {
            pips,
            width: 720,
            height: 576,
            factor: 4,
            slices: 8,
            distinct_frames: 8,
            seed: 42,
            reconfig_every: None,
        }
    }

    /// The paper's PiP-12: starts with one picture, toggles the second
    /// every 12 frames.
    pub fn paper_reconfig() -> Self {
        Self {
            pips: 2,
            reconfig_every: Some(12),
            ..Self::paper(2)
        }
    }

    /// A small configuration for tests.
    pub fn small(pips: usize) -> Self {
        Self {
            pips,
            width: 64,
            height: 48,
            factor: 4,
            slices: 4,
            distinct_frames: 3,
            seed: 7,
            reconfig_every: None,
        }
    }

    /// Picture position for pip `k` (0-based): first top-left, second
    /// top-right.
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

/// Shared fragment: the sliced down-scale and blend procedures (the
/// paper's Fig. 3 procedural abstraction).
pub(crate) const SLICED_OPS: &str = r#"
  <procedure name="sliced_downscale">
    <formal name="factor"/><formal name="slices"/>
    <formalstream name="input"/><formalstream name="output"/>
    <body>
      <parallel shape="slice" n="$slices" name="sc">
        <parblock>
          <component name="scaler" class="downscale">
            <in port="input" stream="input"/>
            <out port="output" stream="output"/>
            <param name="factor" value="$factor"/>
          </component>
        </parblock>
      </parallel>
    </body>
  </procedure>
  <procedure name="sliced_blend">
    <formal name="x"/><formal name="y"/><formal name="slices"/>
    <formalstream name="background"/><formalstream name="picture"/><formalstream name="output"/>
    <body>
      <parallel shape="slice" n="$slices" name="bl">
        <parblock>
          <component name="blender" class="blend">
            <in port="background" stream="background"/>
            <in port="picture" stream="picture"/>
            <out port="output" stream="output"/>
            <param name="x" value="$x"/><param name="y" value="$y"/>
          </component>
        </parblock>
      </parallel>
    </body>
  </procedure>
"#;

/// Emit the XSPCL document for `cfg` (the front-end step of Fig. 1).
pub fn pip_xml(cfg: &PipConfig) -> String {
    assert!(
        cfg.pips >= 1 && cfg.pips <= 2,
        "PiP supports 1 or 2 pictures"
    );
    let mut s = String::from("<xspcl>\n");
    if cfg.reconfig_every.is_some() {
        s.push_str("  <queue name=\"mq\"/>\n");
    }
    s.push_str(SLICED_OPS);
    s.push_str("  <procedure name=\"main\">\n");
    // streams: per field f: bg{f}, p1{f}, s1{f}(in proc), o1{f}; pip2: p2{f}, o2{f}
    for f in 0..3 {
        s.push_str(&format!("    <stream name=\"bg{f}\"/><stream name=\"p1_{f}\"/><stream name=\"small1_{f}\"/><stream name=\"o1_{f}\"/>\n"));
        if cfg.pips == 2 {
            s.push_str(&format!(
                "    <stream name=\"p2_{f}\"/><stream name=\"small2_{f}\"/><stream name=\"o2_{f}\"/>\n"
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
            lead = every.saturating_sub(2).min(6),
        ));
    }

    // one task-parallel chain per color field: source the background and
    // picture fields, then scale and blend — keeping each field's
    // producer→consumer data hot instead of staging global barriers
    let (x1, y1) = cfg.position(0);
    let (x2, y2) = cfg.position(1.min(cfg.pips - 1));
    s.push_str("      <parallel shape=\"task\" name=\"fields\">\n");
    for f in 0..3 {
        s.push_str("        <parblock>\n");
        s.push_str(&format!(
            "          <component name=\"bg_in{f}\" class=\"plane_source\"><out port=\"output\" stream=\"bg{f}\"/><param name=\"file\" value=\"bg\"/><param name=\"field\" value=\"{f}\"/></component>\n"
        ));
        s.push_str(&format!(
            "          <component name=\"p1_in{f}\" class=\"plane_source\"><out port=\"output\" stream=\"p1_{f}\"/><param name=\"file\" value=\"pip1\"/><param name=\"field\" value=\"{f}\"/></component>\n"
        ));
        s.push_str(&format!(
            "          <call procedure=\"sliced_downscale\"><bind formal=\"input\" stream=\"p1_{f}\"/><bind formal=\"output\" stream=\"small1_{f}\"/><param name=\"factor\" value=\"{}\"/><param name=\"slices\" value=\"{}\"/></call>\n",
            cfg.factor, cfg.slices
        ));
        s.push_str(&format!(
            "          <call procedure=\"sliced_blend\"><bind formal=\"background\" stream=\"bg{f}\"/><bind formal=\"picture\" stream=\"small1_{f}\"/><bind formal=\"output\" stream=\"o1_{f}\"/><param name=\"x\" value=\"{x1}\"/><param name=\"y\" value=\"{y1}\"/><param name=\"slices\" value=\"{}\"/></call>\n",
            cfg.slices
        ));
        if cfg.pips == 2 && reconfig.is_none() {
            // static PiP-2: the second picture continues the field chain
            s.push_str(&format!(
                "          <component name=\"p2_in{f}\" class=\"plane_source\"><out port=\"output\" stream=\"p2_{f}\"/><param name=\"file\" value=\"pip2\"/><param name=\"field\" value=\"{f}\"/></component>\n"
            ));
            s.push_str(&format!(
                "          <call procedure=\"sliced_downscale\"><bind formal=\"input\" stream=\"p2_{f}\"/><bind formal=\"output\" stream=\"small2_{f}\"/><param name=\"factor\" value=\"{}\"/><param name=\"slices\" value=\"{}\"/></call>\n",
                cfg.factor, cfg.slices
            ));
            s.push_str(&format!(
                "          <call procedure=\"sliced_blend\"><bind formal=\"background\" stream=\"o1_{f}\"/><bind formal=\"picture\" stream=\"small2_{f}\"/><bind formal=\"output\" stream=\"o2_{f}\"/><param name=\"x\" value=\"{x2}\"/><param name=\"y\" value=\"{y2}\"/><param name=\"slices\" value=\"{}\"/></call>\n",
                cfg.slices
            ));
        }
        s.push_str("        </parblock>\n");
    }
    s.push_str("      </parallel>\n");

    // PiP-12: the second picture's whole chain is an option, with a
    // complementary pass-through so the sink's input is always produced
    if cfg.pips == 2 && reconfig.is_some() {
        s.push_str("      <option name=\"pip2\" enabled=\"false\">\n        <parallel shape=\"task\" name=\"fields2\">\n");
        for f in 0..3 {
            s.push_str("          <parblock>\n");
            s.push_str(&format!(
                "            <component name=\"p2_in{f}\" class=\"plane_source\"><out port=\"output\" stream=\"p2_{f}\"/><param name=\"file\" value=\"pip2\"/><param name=\"field\" value=\"{f}\"/></component>\n"
            ));
            s.push_str(&format!(
                "            <call procedure=\"sliced_downscale\"><bind formal=\"input\" stream=\"p2_{f}\"/><bind formal=\"output\" stream=\"small2_{f}\"/><param name=\"factor\" value=\"{}\"/><param name=\"slices\" value=\"{}\"/></call>\n",
                cfg.factor, cfg.slices
            ));
            s.push_str(&format!(
                "            <call procedure=\"sliced_blend\"><bind formal=\"background\" stream=\"o1_{f}\"/><bind formal=\"picture\" stream=\"small2_{f}\"/><bind formal=\"output\" stream=\"o2_{f}\"/><param name=\"x\" value=\"{x2}\"/><param name=\"y\" value=\"{y2}\"/><param name=\"slices\" value=\"{}\"/></call>\n",
                cfg.slices
            ));
            s.push_str("          </parblock>\n");
        }
        s.push_str("        </parallel>\n      </option>\n");
        s.push_str("      <option name=\"bypass\" enabled=\"true\">\n        <parallel shape=\"task\" name=\"byp\">\n");
        for f in 0..3 {
            s.push_str(&format!(
                "          <parblock><component name=\"pass{f}\" class=\"pass\"><in port=\"input\" stream=\"o1_{f}\"/><out port=\"output\" stream=\"o2_{f}\"/></component></parblock>\n"
            ));
        }
        s.push_str("        </parallel>\n      </option>\n");
    }

    // output component
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

/// A compiled, runnable PiP application.
pub struct PipApp {
    pub cfg: PipConfig,
    pub assets: Arc<AppAssets>,
    pub elaborated: Elaborated,
    pub xml: String,
}

/// Generate inputs, build the registry, compile the XSPCL document.
pub fn build(cfg: &PipConfig) -> Result<PipApp, XspclError> {
    build_on(cfg, AppAssets::new())
}

/// Like [`build`], reusing already-generated videos in `assets`.
pub fn build_on(cfg: &PipConfig, assets: Arc<AppAssets>) -> Result<PipApp, XspclError> {
    let spec = VideoSpec::new(cfg.width, cfg.height, cfg.distinct_frames, cfg.seed);
    assets.ensure_raw("bg", || Arc::new(RawVideo::generate(spec)));
    assets.ensure_raw("pip1", || {
        Arc::new(RawVideo::generate(VideoSpec {
            seed: cfg.seed + 1,
            ..spec
        }))
    });
    if cfg.pips == 2 {
        assets.ensure_raw("pip2", || {
            Arc::new(RawVideo::generate(VideoSpec {
                seed: cfg.seed + 2,
                ..spec
            }))
        });
    }
    assets.capture_set("out", 3);
    let xml = pip_xml(cfg);
    let reg = registry(&assets);
    let elaborated = compile(&xml, &reg)?;
    Ok(PipApp {
        cfg: cfg.clone(),
        assets,
        elaborated,
        xml,
    })
}

/// The hand-written sequential PiP: down scaling and blending fused into a
/// single function, working buffers reused across frames, no run-time
/// system. Returns the output frames (bit-identical to the XSPCL app's)
/// while charging `meter` with its work.
#[allow(clippy::needless_range_loop)]
pub fn sequential(
    cfg: &PipConfig,
    assets: &AppAssets,
    frames: u64,
    meter: &mut dyn Meter,
) -> Vec<[Vec<u8>; 3]> {
    let bg = assets.raw("bg");
    let pips: Vec<Arc<RawVideo>> = (0..cfg.pips)
        .map(|k| assets.raw(&format!("pip{}", k + 1)))
        .collect();
    let (w, h) = (cfg.width, cfg.height);
    let (pw, ph) = scaled_dims(w, h, cfg.factor);
    // reused working buffers: the composed frame, one input buffer per
    // picture, and the output "file" region
    let out_sim = SimBuf::new((w * h) as u64);
    let pip_sims: Vec<SimBuf> = (0..cfg.pips).map(|_| SimBuf::new((w * h) as u64)).collect();
    let file_sim = SimBuf::new((w * h * 3) as u64);
    let mut outputs = Vec::with_capacity(frames as usize);
    let mut composed = vec![0u8; w * h];
    for frame in 0..frames as usize {
        let mut fields: [Vec<u8>; 3] = Default::default();
        for field in [0, 1, 2] {
            // read background from the file, copy into the working buffer
            meter.touch(bg.read_access(frame, field));
            composed.copy_from_slice(bg.field(frame, field));
            meter.touch(out_sim.access(0, (w * h) as u64, AccessKind::Write));
            meter.charge(CYC_COPY_PX * (w * h) as u64);

            // fused down scale + blend for each picture
            for (k, pip) in pips.iter().enumerate() {
                let (px, py) = cfg.position(k);
                let src = pip.field(frame, field);
                // read the picture frame from its file into the (reused)
                // input buffer — both versions pay the input read-in
                meter.touch(pip.read_access(frame, field));
                meter.touch(pip_sims[k].access(0, (w * h) as u64, AccessKind::Write));
                meter.charge(CYC_COPY_PX * (w * h) as u64);
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
                            acc += src[row..row + cfg.factor]
                                .iter()
                                .map(|&p| p as u32)
                                .sum::<u32>();
                        }
                        composed[(py + oy) * w + px + ox] = ((acc + area / 2) / area) as u8;
                    }
                }
                meter.touch(pip_sims[k].access(0, (w * h) as u64, AccessKind::Read));
                meter.charge(
                    CYC_DOWNSCALE_IN_PX * (pw * ph * cfg.factor * cfg.factor) as u64
                        + CYC_BLEND_PX * (pw * ph) as u64,
                );
                // the blended region of the working buffer is rewritten
                meter.touch(out_sim.access((py * w) as u64, (ph * w) as u64, AccessKind::Write));
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
            PipConfig::small(1),
            PipConfig::small(2),
            PipConfig {
                reconfig_every: Some(4),
                ..PipConfig::small(2)
            },
        ] {
            let app = build(&cfg).expect("compiles");
            assert!(app.elaborated.spec.leaf_count() > 0);
        }
    }

    #[test]
    fn paper_config_has_expected_structure() {
        let app = build(&PipConfig::paper(1)).unwrap();
        // 6 sources + 3 scaler + 3 blender + sink = 13 component specs
        assert_eq!(app.elaborated.spec.leaf_count(), 13);
        let mut classes = std::collections::HashMap::new();
        app.elaborated.spec.visit_leaves(&mut |c| {
            *classes.entry(c.class.clone()).or_insert(0) += 1;
        });
        assert_eq!(classes["plane_source"], 6);
        assert_eq!(classes["downscale"], 3);
        assert_eq!(classes["blend"], 3);
        assert_eq!(classes["frame_sink"], 1);
    }

    #[test]
    fn xspcl_output_matches_sequential_baseline() {
        for pips in [1, 2] {
            let cfg = PipConfig::small(pips);
            let app = build(&cfg).unwrap();
            let frames = 6u64;
            run_native(&app.elaborated.spec, &RunConfig::new(frames).workers(2)).unwrap();
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
    fn reconfigurable_variant_runs_and_toggles() {
        let cfg = PipConfig {
            reconfig_every: Some(4),
            ..PipConfig::small(2)
        };
        let app = build(&cfg).unwrap();
        let report = run_native(&app.elaborated.spec, &RunConfig::new(16).workers(2)).unwrap();
        assert_eq!(report.iterations, 16);
        assert!(report.reconfigs >= 2, "got {} reconfigs", report.reconfigs);
        // all frames produced despite reconfigurations
        assert_eq!(app.assets.captured("out", 0).len(), 16);
    }

    #[test]
    fn positions_inside_frame() {
        let cfg = PipConfig::paper(2);
        let (pw, ph) = scaled_dims(cfg.width, cfg.height, cfg.factor);
        for k in 0..2 {
            let (x, y) = cfg.position(k);
            assert!(x + pw <= cfg.width);
            assert!(y + ph <= cfg.height);
        }
    }
}
