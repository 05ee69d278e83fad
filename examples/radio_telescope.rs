//! The §6 HPC future-work application: a radio-telescope spectrometer.
//!
//! Four antennas' sample streams are channelized (window + 1024-point
//! FFT, data-parallel over the spectra of each block), power-detected,
//! combined and integrated — a streaming application far from consumer
//! electronics, expressed in the same coordination language.
//!
//! ```sh
//! cargo run --release --example radio_telescope
//! ```

use apps::telescope::{build, mean_spectrum, TelescopeConfig};
use hinch::engine::{run_native, run_sim, RunConfig};
use spacecake::Machine;

fn main() {
    let cfg = TelescopeConfig::standard();
    let app = build(&cfg).expect("telescope compiles");
    println!(
        "spectrometer: {} antennas, {}-point FFT, {} spectra/block ({} component specs)",
        cfg.antennas,
        cfg.fft_size,
        cfg.spectra_per_block,
        app.elaborated.spec.leaf_count()
    );

    let blocks = 24u64;
    let report = run_native(&app.elaborated.spec, &RunConfig::new(blocks).workers(4)).unwrap();
    println!(
        "native (4 workers): {} blocks ({} spectra/antenna) in {:.2?}",
        report.iterations,
        report.iterations * cfg.spectra_per_block as u64,
        report.elapsed
    );

    // the science: where are the peaks?
    let mean = mean_spectrum(&app);
    let mut ranked: Vec<(usize, f64)> = mean.iter().cloned().enumerate().collect();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    println!("\nstrongest channels (bin → normalized frequency, power):");
    for (bin, power) in ranked.iter().take(3) {
        println!(
            "  bin {:>4} → f = {:.4} fs   power {:.1}",
            bin,
            *bin as f64 / cfg.fft_size as f64,
            power
        );
    }
    for tone in &cfg.tones {
        let expected_bin = (tone.freq * cfg.fft_size as f32).round() as usize;
        assert!(
            ranked[..3]
                .iter()
                .any(|(b, _)| (*b as i64 - expected_bin as i64).abs() <= 1),
            "tone at f={} (bin {expected_bin}) must rank in the top 3",
            tone.freq
        );
    }
    println!("(both injected tones recovered)");

    // and the throughput question the paper's §6 poses: does it scale?
    println!("\nsimulated SpaceCAKE tile scaling:");
    let mut first = 0u64;
    for cores in [1usize, 3, 6, 9] {
        let app = build(&cfg).unwrap();
        let mut m = Machine::with_cores(cores);
        let sim = run_sim(&app.elaborated.spec, &RunConfig::new(8), &mut m).unwrap();
        if cores == 1 {
            first = sim.cycles;
        }
        println!(
            "  {cores} core(s): {:>12} cycles  (speedup {:.2}x, utilization {:.0}%)",
            sim.cycles,
            first as f64 / sim.cycles as f64,
            sim.utilization() * 100.0
        );
    }
}
