//! The device's readout path, pinned bit for bit.
//!
//! The MDU computes `S = Σ_k adc(template[outcome][k] + σ·n_k) · W[k]` in
//! one pass over a cached noiseless template and the chip's noise stream;
//! no trace is ever materialized on the device path. Two suites keep that
//! fused path equal to the reference trace path
//! (`synthesize_trace` → `Adc::digitize` → `Discriminator::integrate`):
//!
//! * a property over random readout chains, windows, seeds and outcomes:
//!   the fused `S` and bit `f64::to_bits`-equal the reference fed from
//!   the same noise stream, and both leave the stream at the same place;
//! * golden digests of every `MdRecord` and collector average of three
//!   whole-device runs, recorded when the device still synthesized,
//!   latched and digitized a trace per measurement. Data memory is left
//!   out: reports carry only the words a shot wrote.

use proptest::prelude::*;
use quma::compiler::prelude::RepetitionCode;
use quma::core::prelude::*;
use quma::experiments::allxy::{self, Allxy};
use quma::experiments::harness::Experiment;
use quma::experiments::prelude::{AllxyConfig, QecConfig};
use quma::experiments::qec;
use quma::qsim::prelude::{ChipBackend, Discriminator, QuantumChip, ReadoutParams, ReadoutTrace};
use quma::qsim::resonator::synthesize_trace;
use quma::signal::adc::Adc;

/// A readout chain: random resonator, probe, sample rate and noise. The
/// probe sits exactly on a resonance one time in four (a zero-amplitude
/// tone, whose samples are `-0.0`), and `noise_sigma` reaches 0 and
/// values far past the ADC's ±2 full scale (clipping).
fn arb_readout() -> impl Strategy<Value = ReadoutParams> {
    (
        (6.80e9f64..6.90e9, 0.1e6f64..3e6, 0.2e6f64..5e6),
        (0u8..4, -5e6f64..5e6),
        (10e6f64..100e6, 0.5e9f64..2e9),
        (0u8..4, 0.0f64..6.0),
    )
        .prop_map(
            |(
                (f_resonator, chi, kappa),
                (probe, detuning),
                (f_if, sample_rate),
                (quiet, sigma),
            )| {
                let f_probe = match probe {
                    0 => f_resonator,
                    1 => f_resonator - 2.0 * chi,
                    _ => f_resonator + detuning,
                };
                ReadoutParams {
                    f_resonator,
                    chi,
                    kappa,
                    f_probe,
                    f_if,
                    sample_rate,
                    noise_sigma: if quiet == 0 { 0.0 } else { sigma },
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The fused MDU pass equals synthesize → digitize → integrate fed
    /// from the same chip noise stream, and leaves the stream where the
    /// reference does. One window in eight is 0–3 samples long, where
    /// only the sign of a zero sum can differ.
    #[test]
    fn fused_readout_equals_the_trace_path(
        readout in arb_readout(),
        samples in (0u8..8, 0usize..1601)
            .prop_map(|(short, n)| if short == 0 { n % 4 } else { n }),
        seed in any::<u64>(),
        outcome in 0u8..2,
    ) {
        let window = samples as f64 / readout.sample_rate;
        let chip = |seed| {
            let mut chip = QuantumChip::ideal_device(1, seed);
            chip.qubit_mut(0).readout = readout.clone();
            chip
        };
        let (mut a, mut b) = (chip(seed), chip(seed));

        let mut mdu = MeasurementDiscriminationUnit::calibrate(&readout, window, 0);
        let (_, mut fused_noise) = a.project(0, 0.0, window);
        let fused = mdu.acquire(outcome, || fused_noise.draw());

        let (_, mut noise) = b.project(0, 0.0, window);
        let trace = synthesize_trace(&readout, outcome, window, || noise.draw());
        prop_assert_eq!(trace.samples.len(), samples);
        let digitized = ReadoutTrace {
            samples: Adc::paper_acquisition().digitize(&trace.samples),
            ..trace
        };
        let reference = Discriminator::calibrate(&readout, window);
        let s = reference.integrate(&digitized);
        prop_assert_eq!(fused.s.to_bits(), s.to_bits());
        prop_assert_eq!(fused.bit, u8::from(s > reference.threshold));
        prop_assert_eq!(mdu.discriminator(), &reference);
        prop_assert_eq!(fused_noise.draw().to_bits(), noise.draw().to_bits());
    }
}

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Digest of every discrimination record `(td, qubit, bit, S)` and every
/// collector average of `reports`, in order.
fn digest(reports: &[RunReport]) -> u64 {
    let mut h = Fnv::new();
    for r in reports {
        assert!(!r.md_results.is_empty(), "every run measures");
        h.word(r.md_results.len() as u64);
        for m in &r.md_results {
            h.word(m.td);
            h.word(m.qubit as u64);
            h.word(u64::from(m.bit));
            h.word(m.s.to_bits());
        }
        h.word(r.collector_averages.len() as u64);
        for averages in &r.collector_averages {
            h.word(averages.len() as u64);
            for a in averages {
                h.word(a.to_bits());
            }
        }
    }
    h.0
}

/// Paper-chip AllXY, 2 averaging rounds, chip seed 7: the whole
/// experiment program as a 2-shot batch on `threads` workers.
fn allxy_reports(threads: usize) -> Vec<RunReport> {
    let cfg = AllxyConfig {
        averages: 2,
        seed: 7,
        ..AllxyConfig::default()
    };
    let mut session = Session::new(Allxy.device_config(&cfg)).expect("device builds");
    Allxy.prepare(&cfg, &mut session).expect("prepares");
    let program = session.load(&allxy::build_program(&cfg));
    let batch = Batch::Shots { program, shots: 2 };
    session.run_batch(&batch, threads).expect("runs").shots
}

const ALLXY_DIGEST: u64 = 0x582b_7a7c_a38b_0514;

#[test]
fn allxy_inline_matches_the_trace_path_digest() {
    assert_eq!(digest(&allxy_reports(1)), ALLXY_DIGEST);
}

#[test]
fn allxy_on_two_threads_matches_the_trace_path_digest() {
    assert_eq!(digest(&allxy_reports(2)), ALLXY_DIGEST);
}

const QEC_DIGEST: u64 = 0xf892_8a4f_1564_bee5;

#[test]
fn stabilizer_qec_matches_the_trace_path_digest() {
    let cfg = QecConfig {
        distance: 7,
        rounds: 2,
        shots: 8,
        profile: ChipProfile::Stabilizer,
        ..QecConfig::default()
    };
    let code: RepetitionCode = qec::code_for(&cfg);
    let mut session = Session::new(qec::device_config(&cfg)).expect("device builds");
    let program = session.load(&code.compile());
    let reports = session.run_shots(&program, cfg.shots).expect("runs").shots;
    assert_eq!(digest(&reports), QEC_DIGEST);
}

/// Init idle, X90·X90, a 300-cycle readout into `r7`.
const SHOTS_SOURCE: &str = "\
mov r15, 40000
QNopReg r15
Pulse {q0}, X90
Wait 4
Pulse {q0}, X90
Wait 4
MPG {q0}, 300
MD {q0}, r7
halt
";

const SHOTS_DIGEST: u64 = 0x7bfb_c639_199c_b11d;

#[test]
fn served_shots_program_matches_the_trace_path_digest() {
    let config = DeviceConfig {
        chip: ChipProfile::Paper,
        chip_seed: 0x9001,
        trace: TraceLevel::Off,
        ..DeviceConfig::default()
    };
    let mut session = Session::new(config).expect("device builds");
    let program = session.load_assembly(SHOTS_SOURCE).expect("assembles");
    let reports = session.run_shots(&program, 64).expect("runs").shots;
    assert_eq!(digest(&reports), SHOTS_DIGEST);
}
