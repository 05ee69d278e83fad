//! Radio-telescope spectrometer: the paper's §6 HPC direction.
//!
//! *"We also plan to look at High Performance Computing applications ...
//! An example application is the processing of data from radio
//! telescopes."* — this module is that application: each antenna's sample
//! stream is channelized (window + FFT, data-parallel over the spectra of
//! a block), power-detected, incoherently combined across antennas and
//! integrated into a mean spectrum. One graph iteration processes one
//! block of `spectra_per_block × fft_size` samples per antenna.

use crate::registry::{registry, AppAssets};
use dsp::signal::{AntennaSignal, Tone};
use std::sync::Arc;
use xspcl::{compile, Elaborated, XspclError};

/// Configuration of a telescope build.
#[derive(Debug, Clone)]
pub struct TelescopeConfig {
    pub antennas: usize,
    /// FFT size (power of two).
    pub fft_size: usize,
    /// Spectra per block (= per graph iteration, per antenna).
    pub spectra_per_block: usize,
    /// Data-parallel slices of the channelize/power groups.
    pub slices: usize,
    /// Tones visible in the band (fraction of sample rate, amplitude).
    pub tones: Vec<Tone>,
    pub noise: f32,
    pub distinct_blocks: usize,
    pub seed: u64,
}

impl TelescopeConfig {
    /// A LOFAR-station-flavoured default: 4 antennas, 1024-channel
    /// spectra, 16 spectra per block.
    pub fn standard() -> Self {
        Self {
            antennas: 4,
            fft_size: 1024,
            spectra_per_block: 16,
            slices: 8,
            tones: vec![
                Tone {
                    freq: 0.121,
                    amplitude: 1.4,
                },
                Tone {
                    freq: 0.33,
                    amplitude: 0.8,
                },
            ],
            noise: 0.5,
            distinct_blocks: 4,
            seed: 4242,
        }
    }

    /// Small configuration for tests.
    pub fn small() -> Self {
        Self {
            antennas: 2,
            fft_size: 128,
            spectra_per_block: 4,
            slices: 2,
            tones: vec![Tone {
                freq: 16.0 / 128.0,
                amplitude: 2.0,
            }],
            noise: 0.1,
            distinct_blocks: 2,
            seed: 99,
        }
    }
}

/// Emit the XSPCL document for `cfg`.
pub fn telescope_xml(cfg: &TelescopeConfig) -> String {
    let mut s = String::from("<xspcl>\n");
    // per-antenna pipeline as a procedure (§3.2 abstraction): samples →
    // channelize (sliced) → power (sliced)
    s.push_str(&format!(
        r#"  <procedure name="antenna_pipeline">
    <formal name="signal"/>
    <formalstream name="power"/>
    <stream name="samples"/><stream name="spectra"/>
    <body>
      <component name="adc" class="antenna_source">
        <out port="output" stream="samples"/>
        <param name="signal" value="$signal"/>
      </component>
      <parallel shape="slice" n="{slices}" name="fftg">
        <parblock>
          <component name="fft" class="channelize">
            <in port="input" stream="samples"/>
            <out port="output" stream="spectra"/>
            <param name="n" value="{n}"/>
          </component>
        </parblock>
      </parallel>
      <parallel shape="slice" n="{slices}" name="powg">
        <parblock>
          <component name="power" class="power_detect">
            <in port="input" stream="spectra"/>
            <out port="output" stream="power"/>
            <param name="n" value="{n}"/>
          </component>
        </parblock>
      </parallel>
    </body>
  </procedure>
"#,
        slices = cfg.slices,
        n = cfg.fft_size,
    ));
    s.push_str("  <procedure name=\"main\">\n");
    for a in 0..cfg.antennas {
        s.push_str(&format!("    <stream name=\"power{a}\"/>\n"));
    }
    s.push_str("    <stream name=\"combined\"/>\n    <body>\n");
    s.push_str("      <parallel shape=\"task\" name=\"antennas\">\n");
    for a in 0..cfg.antennas {
        s.push_str(&format!(
            "        <parblock><call procedure=\"antenna_pipeline\"><param name=\"signal\" value=\"ant{a}\"/><bind formal=\"power\" stream=\"power{a}\"/></call></parblock>\n"
        ));
    }
    s.push_str("      </parallel>\n");
    s.push_str("      <component name=\"combine\" class=\"combine_power\">\n");
    for a in 0..cfg.antennas {
        s.push_str(&format!(
            "        <in port=\"ant{a}\" stream=\"power{a}\"/>\n"
        ));
    }
    s.push_str("        <out port=\"output\" stream=\"combined\"/>\n      </component>\n");
    s.push_str(&format!(
        "      <component name=\"integrate\" class=\"spectrum_integrator\"><in port=\"input\" stream=\"combined\"/><param name=\"bins\" value=\"{}\"/><param name=\"accum\" value=\"spectrum\"/></component>\n",
        cfg.fft_size / 2
    ));
    s.push_str("    </body>\n  </procedure>\n</xspcl>\n");
    s
}

/// A compiled telescope application.
pub struct TelescopeApp {
    pub cfg: TelescopeConfig,
    pub assets: Arc<AppAssets>,
    pub elaborated: Elaborated,
    pub xml: String,
}

pub fn build(cfg: &TelescopeConfig) -> Result<TelescopeApp, XspclError> {
    build_on(cfg, AppAssets::new())
}

pub fn build_on(cfg: &TelescopeConfig, assets: Arc<AppAssets>) -> Result<TelescopeApp, XspclError> {
    let block_len = cfg.fft_size * cfg.spectra_per_block;
    for a in 0..cfg.antennas {
        let tones = cfg.tones.clone();
        let (noise, seed, blocks) = (cfg.noise, cfg.seed + a as u64, cfg.distinct_blocks);
        assets.ensure_signal(format!("ant{a}"), || {
            Arc::new(AntennaSignal::generate(
                block_len, blocks, &tones, noise, seed,
            ))
        });
    }
    assets.accumulator("spectrum", cfg.fft_size / 2);
    let xml = telescope_xml(cfg);
    let reg = registry(&assets);
    let elaborated = compile(&xml, &reg)?;
    Ok(TelescopeApp {
        cfg: cfg.clone(),
        assets,
        elaborated,
        xml,
    })
}

/// The integrated mean spectrum after a run.
pub fn mean_spectrum(app: &TelescopeApp) -> Vec<f64> {
    dsp::components::mean_spectrum(&app.assets.accumulator("spectrum", app.cfg.fft_size / 2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hinch::engine::{run_native, run_sim, RunConfig};
    use spacecake::Machine;

    #[test]
    fn compiles_and_runs() {
        let cfg = TelescopeConfig::small();
        let app = build(&cfg).unwrap();
        let report = run_native(&app.elaborated.spec, &RunConfig::new(6).workers(3)).unwrap();
        assert_eq!(report.iterations, 6);
    }

    #[test]
    fn finds_the_injected_tone() {
        let cfg = TelescopeConfig::small();
        let app = build(&cfg).unwrap();
        run_native(&app.elaborated.spec, &RunConfig::new(6).workers(2)).unwrap();
        let mean = mean_spectrum(&app);
        let peak = mean
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(peak, 16, "mean spectrum must peak at the injected tone bin");
    }

    #[test]
    fn engines_agree_bit_exactly() {
        let cfg = TelescopeConfig::small();
        let app = build(&cfg).unwrap();
        run_native(&app.elaborated.spec, &RunConfig::new(4).workers(3)).unwrap();
        let native = mean_spectrum(&app);

        let app = build(&cfg).unwrap();
        let mut m = Machine::with_cores(4);
        run_sim(&app.elaborated.spec, &RunConfig::new(4), &mut m).unwrap();
        let sim = mean_spectrum(&app);
        assert_eq!(
            native, sim,
            "floating-point results are order-fixed, so bit-equal"
        );
    }

    #[test]
    fn scales_on_the_simulated_tile() {
        let cfg = TelescopeConfig::small();
        let cycles = |cores: usize| {
            let app = build(&cfg).unwrap();
            let mut m = Machine::with_cores(cores);
            run_sim(&app.elaborated.spec, &RunConfig::new(6), &mut m)
                .unwrap()
                .cycles
        };
        let one = cycles(1);
        let four = cycles(4);
        assert!(four < one, "4 cores {four} must beat 1 core {one}");
    }
}
