//! The measurement discrimination unit (Sections 4.2.1, 5.1.2):
//! hardware-based weighted integration and thresholding of readout traces,
//! replacing the slow software path so real-time feedback is possible.
//!
//! Nothing downstream of the MDU ever sees a trace sample, so the unit
//! integrates as the samples arrive: at calibration it keeps the two
//! noiseless IF templates it calibrated from, and per measurement it
//! computes `S = Σ_k adc(template[outcome][k] + σ·n_k) · W[k]` in one pass
//! over the chip's noise stream. Sample for sample this is the arithmetic
//! of `synthesize_trace` → [`Adc::digitize`] → [`Discriminator::integrate`]
//! in the same order, so `S` and the bit equal that reference path bit for
//! bit (`tests/readout_differential.rs`).

use quma_qsim::resonator::{synthesize_trace, Discriminator, ReadoutParams};
use quma_signal::adc::Adc;

/// A completed discrimination: the integrated value and the binary result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Discrimination {
    /// Weighted integration result `S_q`.
    pub s: f64,
    /// Binary result `M_q = (S_q > T_q)`.
    pub bit: u8,
}

/// An MDU calibrated for one readout chain and integration window:
/// digitizes the incoming analog signal with the acquisition ADC,
/// integrates against the calibrated weight function, and thresholds.
#[derive(Debug, Clone)]
pub struct MeasurementDiscriminationUnit {
    discriminator: Discriminator,
    adc: Adc,
    /// Noiseless IF samples for states 0 and 1 over the window (the
    /// calibration traces the weights were built from).
    templates: [Vec<f64>; 2],
    /// RMS readout noise per sample of the calibrated chain.
    noise_sigma: f64,
    /// Processing latency in cycles from end-of-trace to result-valid
    /// (the paper reports total readout latency < 1 µs on their FPGA).
    latency_cycles: u32,
    discriminations: u64,
}

impl MeasurementDiscriminationUnit {
    /// Calibrates an MDU for a readout chain, integrating traces of
    /// `integration_time` seconds.
    pub fn calibrate(readout: &ReadoutParams, integration_time: f64, latency_cycles: u32) -> Self {
        let templates =
            [0, 1].map(|s| synthesize_trace(readout, s, integration_time, || 0.0).samples);
        Self {
            discriminator: Discriminator::from_templates(&templates[0], &templates[1]),
            adc: Adc::paper_acquisition(),
            templates,
            noise_sigma: readout.noise_sigma,
            latency_cycles,
            discriminations: 0,
        }
    }

    /// The calibrated discriminator (weights, threshold, calibration
    /// points).
    pub fn discriminator(&self) -> &Discriminator {
        &self.discriminator
    }

    /// Result latency in cycles after the integration window closes.
    pub fn latency_cycles(&self) -> u32 {
        self.latency_cycles
    }

    /// Number of completed discriminations.
    pub fn discriminations(&self) -> u64 {
        self.discriminations
    }

    /// Discriminates the readout of a qubit projected to `outcome`, with
    /// `noise` supplying one standard-normal draw per sample (the chip's
    /// noise stream): digitize → weighted integrate → threshold, fused
    /// into one pass with no trace built.
    pub fn acquire(&mut self, outcome: u8, mut noise: impl FnMut() -> f64) -> Discrimination {
        let (adc, sigma) = (self.adc, self.noise_sigma);
        let s: f64 = self.templates[usize::from(outcome)]
            .iter()
            .zip(&self.discriminator.weights)
            .map(|(&v, &w)| adc.to_volts(adc.sample(v + sigma * noise())) * w)
            .sum();
        let bit = u8::from(s > self.discriminator.threshold);
        self.discriminations += 1;
        Discrimination { s, bit }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quma_qsim::resonator::ReadoutTrace;

    fn lcg(mut seed: u64) -> impl FnMut() -> f64 {
        move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        }
    }

    #[test]
    fn discriminates_noiseless_states() {
        let p = ReadoutParams::noiseless();
        let mut mdu = MeasurementDiscriminationUnit::calibrate(&p, 1.5e-6, 60);
        for s in [0u8, 1u8] {
            assert_eq!(mdu.acquire(s, || 0.0).bit, s);
        }
        assert_eq!(mdu.discriminations(), 2);
    }

    #[test]
    fn discriminates_noisy_states_reliably() {
        let p = ReadoutParams::paper_default();
        let mut mdu = MeasurementDiscriminationUnit::calibrate(&p, 1.5e-6, 60);
        let mut noise = lcg(77);
        for round in 0..40 {
            for s in [0u8, 1u8] {
                let d = mdu.acquire(s, &mut noise);
                assert_eq!(d.bit, s, "round {round}, state {s}");
            }
        }
    }

    #[test]
    fn acquire_equals_the_trace_path_bit_for_bit() {
        // Synthesize, digitize, then integrate — fed the same noise.
        let p = ReadoutParams {
            noise_sigma: 0.7,
            ..ReadoutParams::paper_default()
        };
        let mut mdu = MeasurementDiscriminationUnit::calibrate(&p, 1.0e-6, 0);
        let (mut fused, mut reference) = (lcg(5), lcg(5));
        let adc = Adc::paper_acquisition();
        for s in [0u8, 1, 1, 0] {
            let d = mdu.acquire(s, &mut fused);
            let trace = synthesize_trace(&p, s, 1.0e-6, &mut reference);
            let digitized = ReadoutTrace {
                samples: adc.digitize(&trace.samples),
                ..trace
            };
            let want = mdu.discriminator().integrate(&digitized);
            assert_eq!(d.s.to_bits(), want.to_bits());
            assert_eq!(d.bit, u8::from(want > mdu.discriminator().threshold));
        }
        assert_eq!(fused().to_bits(), reference().to_bits());
    }

    #[test]
    fn integration_value_is_monotone_in_state() {
        let p = ReadoutParams::noiseless();
        let mut mdu = MeasurementDiscriminationUnit::calibrate(&p, 1.0e-6, 0);
        let s0 = mdu.acquire(0, || 0.0).s;
        let s1 = mdu.acquire(1, || 0.0).s;
        assert!(s1 > s0, "matched filter orients 1 above 0");
        let t = mdu.discriminator().threshold;
        assert!(s0 < t && t < s1);
    }
}
