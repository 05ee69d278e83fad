//! Hinch components of a channelizing spectrometer.
//!
//! One iteration of the task graph processes one *block* of antenna data:
//! `B` spectra of `N` samples each. The FFT and power stages are
//! data-parallel over the `B` spectra of the block — the same slice
//! pattern the media apps use over image rows — and an integrator
//! accumulates the mean power spectrum across iterations.

use crate::complex::Complex32;
use crate::fft::{hann_window, Fft};
use crate::signal::AntennaSignal;
use hinch::component::{Component, ReconfigRequest, RunCtx, SliceAssign};
use hinch::sharedbuf::RegionBuf;
use parking_lot::Mutex;
use std::sync::Arc;

/// Cycles to ingest one sample (DMA from the capture buffer).
pub const CYC_SAMPLE_IN: u64 = 1;
/// Cycles per sample for windowing (load, multiply, store).
pub const CYC_WINDOW_PER_SAMPLE: u64 = 2;
/// Cycles per radix-2 butterfly (complex multiply-add pair).
pub const CYC_BUTTERFLY: u64 = 6;
/// Cycles per output bin of power detection (`re²+im²`).
pub const CYC_POWER_PER_BIN: u64 = 3;
/// Cycles per bin of spectrum integration.
pub const CYC_INTEGRATE_PER_BIN: u64 = 2;

/// Accumulated mean power spectrum (shared with the host).
pub type SpectrumAccum = Arc<Mutex<(Vec<f64>, u64)>>;

pub fn spectrum_accum(bins: usize) -> SpectrumAccum {
    Arc::new(Mutex::new((vec![0.0; bins], 0)))
}

/// Emits one block of `B·N` samples per iteration.
pub struct AntennaSource {
    signal: Arc<AntennaSignal>,
}

impl AntennaSource {
    pub fn new(signal: Arc<AntennaSignal>) -> Self {
        Self { signal }
    }
}

impl Component for AntennaSource {
    fn class(&self) -> &'static str {
        "antenna_source"
    }
    fn run(&mut self, ctx: &mut RunCtx<'_>) {
        let b = ctx.iteration() as usize;
        let samples = self.signal.block(b);
        let buf = RegionBuf::from_vec("samples", samples.to_vec());
        ctx.touch(self.signal.read_access(b));
        ctx.touch(buf.access(0..buf.len(), hinch::meter::AccessKind::Write));
        ctx.charge(CYC_SAMPLE_IN * samples.len() as u64);
        ctx.write(0, buf);
    }
}

/// Window + FFT of each spectrum in the block; data-parallel over spectra.
///
/// Input: `RegionBuf<f32>` of `B·N` samples. Output: `RegionBuf<f32>` of
/// `B·N·2` interleaved complex values.
pub struct Channelize {
    fft: Fft,
    window: Vec<f32>,
    assign: SliceAssign,
}

impl Channelize {
    pub fn new(n: usize) -> Self {
        Self {
            fft: Fft::new(n),
            window: hann_window(n),
            assign: SliceAssign::WHOLE,
        }
    }
}

impl Component for Channelize {
    fn class(&self) -> &'static str {
        "channelize"
    }
    fn run(&mut self, ctx: &mut RunCtx<'_>) {
        let input = ctx.read::<RegionBuf<f32>>(0);
        let n = self.fft.len();
        assert_eq!(input.len() % n, 0, "block must hold whole spectra");
        let spectra = input.len() / n;
        let out = ctx.write_shared(0, |old| {
            RegionBuf::<f32>::renew(old, "spectra", spectra * n * 2)
        });
        let range = self.assign.range(spectra);
        if range.is_empty() {
            return;
        }
        let mut work = vec![Complex32::ZERO; n];
        {
            let src = input.lease_read(range.start * n..range.end * n);
            let mut dst = out.lease_write(range.start * n * 2..range.end * n * 2);
            for (si, _) in range.clone().enumerate() {
                for (k, w) in work.iter_mut().enumerate() {
                    *w = Complex32::new(src[si * n + k] * self.window[k], 0.0);
                }
                self.fft.forward(&mut work);
                for (k, v) in work.iter().enumerate() {
                    dst[(si * n + k) * 2] = v.re;
                    dst[(si * n + k) * 2 + 1] = v.im;
                }
            }
        }
        let count = range.len() as u64;
        ctx.touch(input.access(
            range.start * n..range.end * n,
            hinch::meter::AccessKind::Read,
        ));
        ctx.touch(out.access(
            range.start * n * 2..range.end * n * 2,
            hinch::meter::AccessKind::Write,
        ));
        ctx.charge(
            count * (CYC_WINDOW_PER_SAMPLE * n as u64 + CYC_BUTTERFLY * self.fft.butterflies()),
        );
    }
    fn reconfigure(&mut self, req: &ReconfigRequest) {
        if let ReconfigRequest::Slice(a) = req {
            self.assign = *a;
        }
    }
}

/// `|X|²` of the lower half-spectrum; data-parallel over spectra.
///
/// Input: interleaved complex of `B·N·2`. Output: `RegionBuf<f32>` of
/// `B·(N/2)` power values.
pub struct PowerDetect {
    n: usize,
    assign: SliceAssign,
}

impl PowerDetect {
    pub fn new(n: usize) -> Self {
        Self {
            n,
            assign: SliceAssign::WHOLE,
        }
    }
}

impl Component for PowerDetect {
    fn class(&self) -> &'static str {
        "power_detect"
    }
    fn run(&mut self, ctx: &mut RunCtx<'_>) {
        let input = ctx.read::<RegionBuf<f32>>(0);
        let n = self.n;
        let spectra = input.len() / (n * 2);
        let bins = n / 2;
        let out = ctx.write_shared(0, |old| {
            RegionBuf::<f32>::renew(old, "power", spectra * bins)
        });
        let range = self.assign.range(spectra);
        if range.is_empty() {
            return;
        }
        {
            let src = input.lease_read(range.start * n * 2..range.end * n * 2);
            let mut dst = out.lease_write(range.start * bins..range.end * bins);
            for (si, _) in range.clone().enumerate() {
                for k in 0..bins {
                    let re = src[(si * n + k) * 2];
                    let im = src[(si * n + k) * 2 + 1];
                    dst[si * bins + k] = re * re + im * im;
                }
            }
        }
        ctx.touch(input.access(
            range.start * n * 2..range.end * n * 2,
            hinch::meter::AccessKind::Read,
        ));
        ctx.touch(out.access(
            range.start * bins..range.end * bins,
            hinch::meter::AccessKind::Write,
        ));
        ctx.charge(range.len() as u64 * bins as u64 * CYC_POWER_PER_BIN);
    }
    fn reconfigure(&mut self, req: &ReconfigRequest) {
        if let ReconfigRequest::Slice(a) = req {
            self.assign = *a;
        }
    }
}

/// Sums the power blocks of several antennas element-wise (incoherent
/// combination).
pub struct CombinePower;

impl Component for CombinePower {
    fn class(&self) -> &'static str {
        "combine_power"
    }
    fn run(&mut self, ctx: &mut RunCtx<'_>) {
        let first = ctx.read::<RegionBuf<f32>>(0);
        let len = first.len();
        let mut sum = first.snapshot();
        ctx.touch(first.access(0..len, hinch::meter::AccessKind::Read));
        for p in 1..ctx.num_inputs() {
            let other = ctx.read::<RegionBuf<f32>>(p);
            assert_eq!(other.len(), len, "antenna blocks must agree in shape");
            let data = other.lease_read_all();
            for (s, v) in sum.iter_mut().zip(data.iter()) {
                *s += v;
            }
            ctx.touch(other.access(0..len, hinch::meter::AccessKind::Read));
        }
        let out = RegionBuf::from_vec("combined", sum);
        ctx.touch(out.access(0..len, hinch::meter::AccessKind::Write));
        ctx.charge((ctx.num_inputs() as u64) * len as u64 * CYC_INTEGRATE_PER_BIN);
        ctx.write(0, out);
    }
}

/// Integrates the block's spectra into a running mean spectrum.
pub struct SpectrumIntegrator {
    bins: usize,
    accum: SpectrumAccum,
}

impl SpectrumIntegrator {
    pub fn new(bins: usize, accum: SpectrumAccum) -> Self {
        Self { bins, accum }
    }
}

impl Component for SpectrumIntegrator {
    fn class(&self) -> &'static str {
        "spectrum_integrator"
    }
    fn run(&mut self, ctx: &mut RunCtx<'_>) {
        let input = ctx.read::<RegionBuf<f32>>(0);
        let bins = self.bins;
        assert_eq!(input.len() % bins, 0);
        let spectra = input.len() / bins;
        {
            let data = input.lease_read_all();
            let mut acc = self.accum.lock();
            for si in 0..spectra {
                for k in 0..bins {
                    acc.0[k] += data[si * bins + k] as f64;
                }
            }
            acc.1 += spectra as u64;
        }
        ctx.touch(input.access(0..input.len(), hinch::meter::AccessKind::Read));
        ctx.charge((spectra * bins) as u64 * CYC_INTEGRATE_PER_BIN);
    }
}

/// Mean spectrum from an accumulator.
pub fn mean_spectrum(accum: &SpectrumAccum) -> Vec<f64> {
    let acc = accum.lock();
    if acc.1 == 0 {
        return vec![0.0; acc.0.len()];
    }
    acc.0.iter().map(|v| v / acc.1 as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::Tone;
    use hinch::meter::NullMeter;
    use hinch::stream::Stream;

    fn run_component(
        comp: &mut dyn Component,
        inputs: &[Arc<Stream>],
        outputs: &[Arc<Stream>],
        iter: u64,
    ) {
        let mut meter = NullMeter;
        let mut ctx = RunCtx::new(iter, inputs, outputs, &mut meter);
        comp.run(&mut ctx);
    }

    #[test]
    fn spectrometer_chain_finds_the_tone() {
        let n = 128;
        let spectra_per_block = 4;
        let bin = 16;
        let signal = Arc::new(AntennaSignal::generate(
            n * spectra_per_block,
            2,
            &[Tone {
                freq: bin as f32 / n as f32,
                amplitude: 2.0,
            }],
            0.05,
            77,
        ));
        let s_in = Stream::new("samples");
        let s_fft = Stream::new("spectra");
        let s_pow = Stream::new("power");
        let accum = spectrum_accum(n / 2);

        for iter in 0..2u64 {
            run_component(
                &mut AntennaSource::new(signal.clone()),
                &[],
                std::slice::from_ref(&s_in),
                iter,
            );
            // sliced channelize: 2 copies
            for i in 0..2 {
                let mut c = Channelize::new(n);
                c.reconfigure(&ReconfigRequest::Slice(SliceAssign { index: i, total: 2 }));
                run_component(
                    &mut c,
                    std::slice::from_ref(&s_in),
                    std::slice::from_ref(&s_fft),
                    iter,
                );
            }
            for i in 0..2 {
                let mut p = PowerDetect::new(n);
                p.reconfigure(&ReconfigRequest::Slice(SliceAssign { index: i, total: 2 }));
                run_component(
                    &mut p,
                    std::slice::from_ref(&s_fft),
                    std::slice::from_ref(&s_pow),
                    iter,
                );
            }
            run_component(
                &mut SpectrumIntegrator::new(n / 2, accum.clone()),
                std::slice::from_ref(&s_pow),
                &[],
                iter,
            );
            s_in.clear(iter);
            s_fft.clear(iter);
            s_pow.clear(iter);
        }

        let mean = mean_spectrum(&accum);
        assert_eq!(mean.len(), n / 2);
        let peak = mean
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(peak, bin, "integrated spectrum must peak at the tone");
        // the peak clearly dominates the median bin
        let mut sorted = mean.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(mean[bin] > 20.0 * sorted[mean.len() / 2]);
    }

    #[test]
    fn combine_power_sums_antennas() {
        let a = Stream::new("a");
        let b = Stream::new("b");
        let out = Stream::new("o");
        a.write(0, Arc::new(RegionBuf::from_vec("a", vec![1.0f32, 2.0])));
        b.write(0, Arc::new(RegionBuf::from_vec("b", vec![10.0f32, 20.0])));
        run_component(&mut CombinePower, &[a, b], std::slice::from_ref(&out), 0);
        let sum = out.read_as::<RegionBuf<f32>>(0);
        assert_eq!(sum.snapshot(), vec![11.0, 22.0]);
    }

    #[test]
    fn integrator_counts_spectra() {
        let accum = spectrum_accum(2);
        let s = Stream::new("p");
        s.write(
            0,
            Arc::new(RegionBuf::from_vec("p", vec![1.0f32, 3.0, 5.0, 7.0])),
        );
        run_component(&mut SpectrumIntegrator::new(2, accum.clone()), &[s], &[], 0);
        // two spectra of two bins
        assert_eq!(mean_spectrum(&accum), vec![3.0, 5.0]);
    }
}
