//! Deterministic synthetic antenna data.
//!
//! A radio-telescope front end digitizes band-limited noise containing a
//! few narrow-band sources (and man-made interference). The generator
//! mixes seeded Gaussian-ish noise with a handful of tones so the
//! spectrometer downstream has real peaks to find — deterministically,
//! like every other input in this repository.

use hinch::meter::{AccessKind, MemAccess, SimBuf};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A tone injected into the band.
#[derive(Debug, Clone, Copy)]
pub struct Tone {
    /// Frequency as a fraction of the sample rate (0..0.5).
    pub freq: f32,
    pub amplitude: f32,
}

/// A synthetic antenna recording: `blocks` blocks of `block_len` samples.
pub struct AntennaSignal {
    pub block_len: usize,
    samples: Vec<Vec<f32>>,
    sim: SimBuf,
}

impl AntennaSignal {
    /// Generate `blocks` blocks of `block_len` samples containing `tones`
    /// over noise of the given amplitude.
    pub fn generate(
        block_len: usize,
        blocks: usize,
        tones: &[Tone],
        noise: f32,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t_global = 0usize;
        let samples = (0..blocks)
            .map(|_| {
                (0..block_len)
                    .map(|_| {
                        let t = t_global as f32;
                        t_global += 1;
                        let mut v = 0.0f32;
                        for tone in tones {
                            v +=
                                tone.amplitude * (2.0 * std::f32::consts::PI * tone.freq * t).sin();
                        }
                        // cheap approximate Gaussian: sum of uniforms
                        let n: f32 = (0..4).map(|_| rng.gen_range(-0.5f32..0.5)).sum();
                        v + noise * n
                    })
                    .collect()
            })
            .collect();
        let bytes = (blocks * block_len * 4) as u64;
        Self {
            block_len,
            samples,
            sim: SimBuf::new(bytes),
        }
    }

    pub fn blocks(&self) -> usize {
        self.samples.len()
    }

    /// Samples of block `b` (wraps around).
    pub fn block(&self, b: usize) -> &[f32] {
        &self.samples[b % self.samples.len()]
    }

    /// The sweep of reading block `b` from the capture buffer.
    pub fn read_access(&self, b: usize) -> MemAccess {
        let b = b % self.samples.len();
        let len = (self.block_len * 4) as u64;
        self.sim.access(b as u64 * len, len, AccessKind::Read)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let t = [Tone {
            freq: 0.1,
            amplitude: 1.0,
        }];
        let a = AntennaSignal::generate(256, 3, &t, 0.2, 9);
        let b = AntennaSignal::generate(256, 3, &t, 0.2, 9);
        for i in 0..3 {
            assert_eq!(a.block(i), b.block(i));
        }
    }

    #[test]
    fn blocks_wrap() {
        let s = AntennaSignal::generate(64, 2, &[], 1.0, 3);
        assert_eq!(s.block(0), s.block(2));
    }

    #[test]
    fn tone_dominates_noise_in_its_bin() {
        use crate::complex::Complex32;
        use crate::fft::Fft;
        let n = 256;
        let bin = 32; // freq = 32/256 = 0.125
        let s = AntennaSignal::generate(
            n,
            1,
            &[Tone {
                freq: bin as f32 / n as f32,
                amplitude: 2.0,
            }],
            0.1,
            1,
        );
        let mut data: Vec<Complex32> = s.block(0).iter().map(|&v| Complex32::new(v, 0.0)).collect();
        Fft::new(n).forward(&mut data);
        let power: Vec<f32> = data[..n / 2].iter().map(|v| v.norm_sqr()).collect();
        let peak = power
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(peak, bin, "the injected tone must be the strongest bin");
    }

    #[test]
    fn phase_continuity_across_blocks() {
        // the generator advances global time, so a tone is phase-coherent
        // from block to block (no spectral splatter at block boundaries)
        let freq = 0.25f32; // period of 4 samples
        let s = AntennaSignal::generate(
            8,
            2,
            &[Tone {
                freq,
                amplitude: 1.0,
            }],
            0.0,
            0,
        );
        // sample 8 (start of block 1) continues the sine from sample 7
        let expected = (2.0 * std::f32::consts::PI * freq * 8.0).sin();
        assert!((s.block(1)[0] - expected).abs() < 1e-5);
    }
}
