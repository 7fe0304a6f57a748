//! Differential properties pinning the N-qubit chip to the frozen
//! pair-coupled chip it generalized ([`pair_reference`] below), plus the
//! QEC invariant that syndrome extraction leaves distant data qubits
//! alone.

use pair_reference::PairReferenceChip;
use proptest::prelude::*;
use quma_qsim::chip::{ChipBackend, QuantumChip};
use quma_qsim::complex::C64;
use std::f64::consts::PI;

const DT: f64 = 1e-9;
const N_SAMP: usize = 20;

/// One step of a random single/two-qubit control sequence.
#[derive(Debug, Clone)]
enum Op {
    /// Drive `qubit` with a constant-envelope SSB pulse of `amp` ∈ [0,1]
    /// and carrier phase `phase`.
    Drive { qubit: usize, amp: f64, phase: f64 },
    /// Measure `qubit` (projection + readout trace).
    Measure { qubit: usize },
    /// CZ flux pulse on a pair (only generated by the pair strategy).
    Cz { a: usize, b: usize },
}

fn arb_op(qubits: usize, with_cz_pair: Option<(usize, usize)>) -> BoxedStrategy<Op> {
    let drive = (0..qubits, 0.0f64..1.0, -3.2f64..3.2)
        .prop_map(|(qubit, amp, phase)| Op::Drive { qubit, amp, phase })
        .boxed();
    let measure = (0..qubits).prop_map(|qubit| Op::Measure { qubit }).boxed();
    match with_cz_pair {
        Some((a, b)) => prop_oneof![drive, measure, Just(Op::Cz { a, b }).boxed()].boxed(),
        None => prop_oneof![drive, measure].boxed(),
    }
}

/// Constant-amplitude pulse premodulated at the qubit's SSB frequency.
fn pulse(amp: f64, phase: f64, ssb: f64, start: f64) -> Vec<C64> {
    (0..N_SAMP)
        .map(|k| {
            let t = start + (k as f64 + 0.5) * DT;
            C64::from_polar(amp, -2.0 * PI * ssb * t + phase)
        })
        .collect()
}

/// Generates `apply_new` / `apply_ref` from one body, so the two chips
/// are guaranteed to receive identical operations: a divergence here
/// would silently weaken the differential property.
macro_rules! apply_op {
    ($name:ident, $chip:ty) => {
        /// Applies `op` at time `t`, returning what a measurement saw.
        fn $name(chip: &mut $chip, op: &Op, t: f64) -> Option<(Vec<f64>, u8)> {
            match *op {
                Op::Drive { qubit, amp, phase } => {
                    let ssb = chip.qubit(qubit).transmon.params().ssb_frequency;
                    chip.drive(qubit, &pulse(amp, phase, ssb, t), t, DT);
                    None
                }
                Op::Measure { qubit } => {
                    let (trace, bit) = chip.measure_with_truth(qubit, t, 0.3e-6);
                    Some((trace.samples, bit))
                }
                Op::Cz { a, b } => {
                    chip.apply_cz(a, b, t, 40e-9);
                    None
                }
            }
        }
    };
}

apply_op!(apply_new, QuantumChip);
apply_op!(apply_ref, PairReferenceChip);

/// Sequential op times far enough apart that every op's window closed.
fn time_of(step: usize) -> f64 {
    step as f64 * 0.5e-6
}

proptest! {
    /// Uncoupled qubits must be **bit-identical** between the chips: the
    /// single-qubit paths are untouched and both chips consume the RNG in
    /// the same order.
    #[test]
    fn uncoupled_sequences_bit_identical_to_pair_chip(
        seed in proptest::strategy::any::<u64>(),
        ops in proptest::collection::vec(arb_op(3, None), 1..24),
    ) {
        let mut new_chip = QuantumChip::paper_device(3, seed);
        let mut ref_chip = PairReferenceChip::paper_device(3, seed);
        for (step, op) in ops.iter().enumerate() {
            let t = time_of(step);
            let a = apply_new(&mut new_chip, op, t);
            let b = apply_ref(&mut ref_chip, op, t);
            match (a, b) {
                (Some((ta, oa)), Some((tb, ob))) => {
                    prop_assert_eq!(oa, ob, "outcome at step {}", step);
                    prop_assert_eq!(ta, tb, "trace at step {}", step);
                }
                (None, None) => {}
                other => prop_assert!(false, "mismatched op result {:?}", other.0.is_some()),
            }
        }
        for q in 0..3 {
            let (pa, pb) = (new_chip.p1(q), ref_chip.p1(q));
            prop_assert_eq!(pa.to_bits(), pb.to_bits(), "p1(q{}) bits", q);
        }
    }

    /// Sequences whose CZs stay on one fixed pair reproduce the pair
    /// chip's outcomes and populations (same physics through the general
    /// register algebra).
    #[test]
    fn pair_cz_sequences_match_pair_chip(
        seed in proptest::strategy::any::<u64>(),
        ops in proptest::collection::vec(arb_op(2, Some((0, 1))), 1..20),
    ) {
        let mut new_chip = QuantumChip::ideal_device(2, seed);
        let mut ref_chip = PairReferenceChip::ideal_device(2, seed);
        for q in 0..2 {
            new_chip.qubit_mut(q).transmon.params_mut().rabi_coefficient = PI / 20e-9;
            ref_chip.qubit_mut(q).transmon.params_mut().rabi_coefficient = PI / 20e-9;
        }
        for (step, op) in ops.iter().enumerate() {
            let t = time_of(step);
            let a = apply_new(&mut new_chip, op, t);
            let b = apply_ref(&mut ref_chip, op, t);
            if let (Some((_, oa)), Some((_, ob))) = (a, b) {
                prop_assert_eq!(oa, ob, "outcome at step {}", step);
            }
        }
        for q in 0..2 {
            // The register algebra takes a different floating-point path
            // than the fixed 4×4 code (extract/re-product on measure), so
            // populations agree to ~1e-8, not bitwise.
            prop_assert!(
                (new_chip.p1(q) - ref_chip.p1(q)).abs() < 1e-7,
                "p1(q{}) {} vs {}", q, new_chip.p1(q), ref_chip.p1(q)
            );
        }
    }

    /// Syndrome extraction must project *only* along the measured parity:
    /// a data qubit outside the ancilla's coupling chain keeps its exact
    /// reduced state through the whole round.
    #[test]
    fn syndrome_measurement_leaves_distant_qubits_untouched(
        seed in proptest::strategy::any::<u64>(),
        amp0 in 0.0f64..1.0,
        amp2 in 0.0f64..1.0,
        amp4 in 0.0f64..1.0,
        phase4 in -3.2f64..3.2,
    ) {
        // Layout d0=q0, a=q1, d1=q2, distant spectator d2=q4.
        let mut chip = QuantumChip::ideal_device(5, seed);
        for q in 0..5 {
            chip.qubit_mut(q).transmon.params_mut().rabi_coefficient = PI / 20e-9;
        }
        for (q, amp, phase) in [(0, amp0, 0.0), (2, amp2, 0.0), (4, amp4, phase4)] {
            let ssb = chip.qubit(q).transmon.params().ssb_frequency;
            chip.drive(q, &pulse(amp, phase, ssb, 0.0), 0.0, DT);
        }
        let spectator_before = chip.reduced_state(4);
        // Parity check of (q0, q2) via ancilla q1.
        let ssb = chip.qubit(1).transmon.params().ssb_frequency;
        chip.drive(1, &pulse(0.5, PI / 2.0, ssb, 1e-6), 1e-6, DT); // ~mY90
        chip.apply_cz(0, 1, 1.2e-6, 40e-9);
        chip.apply_cz(2, 1, 1.4e-6, 40e-9);
        chip.drive(1, &pulse(0.5, -PI / 2.0, ssb, 1.6e-6), 1.6e-6, DT); // ~Y90
        let (_, _syndrome) = chip.measure_with_truth(1, 2e-6, 0.3e-6);
        // The spectator was never in the chain: exact same reduced state.
        let spectator_after = chip.reduced_state(4);
        prop_assert!(
            spectator_after.trace_distance(&spectator_before) < 1e-12,
            "spectator moved by {}",
            spectator_after.trace_distance(&spectator_before)
        );
        // The measured ancilla left its register; data stay joined.
        prop_assert!(!chip.is_coupled(1));
        prop_assert!(!chip.is_coupled(4));
    }

    /// With computational-basis data, the syndrome equals the parity and
    /// the data values survive unchanged — the repetition-code contract.
    #[test]
    fn computational_basis_syndrome_reads_parity(
        seed in proptest::strategy::any::<u64>(),
        b0 in proptest::strategy::any::<bool>(),
        b1 in proptest::strategy::any::<bool>(),
    ) {
        let mut chip = QuantumChip::ideal_device(3, seed);
        for q in 0..3 {
            chip.qubit_mut(q).transmon.params_mut().rabi_coefficient = PI / 20e-9;
        }
        for (q, bit) in [(0usize, b0), (2, b1)] {
            if bit {
                let ssb = chip.qubit(q).transmon.params().ssb_frequency;
                chip.drive(q, &pulse(1.0, 0.0, ssb, 0.0), 0.0, DT);
            }
        }
        let ssb = chip.qubit(1).transmon.params().ssb_frequency;
        chip.drive(1, &pulse(0.5, PI / 2.0, ssb, 1e-6), 1e-6, DT);
        chip.apply_cz(0, 1, 1.2e-6, 40e-9);
        chip.apply_cz(2, 1, 1.4e-6, 40e-9);
        chip.drive(1, &pulse(0.5, -PI / 2.0, ssb, 1.6e-6), 1.6e-6, DT);
        let (_, syndrome) = chip.measure_with_truth(1, 2e-6, 0.3e-6);
        prop_assert_eq!(syndrome, u8::from(b0 != b1), "parity of {} {}", b0, b1);
        // `Decoherence::ideal()` is T1 = 1000 s, not infinity: ~2 µs of
        // circuit time costs ~2e-9 of population, so compare to 1e-7.
        prop_assert!(
            (chip.p1(0) - f64::from(u8::from(b0))).abs() < 1e-7,
            "b0={} b1={} p1(0)={} p1(2)={} syndrome={}",
            b0, b1, chip.p1(0), chip.p1(2), syndrome
        );
        prop_assert!((chip.p1(2) - f64::from(u8::from(b1))).abs() < 1e-7);
    }
}

/// The pair-coupled chip that [`QuantumChip`] generalized from lazily
/// coupled *pairs* to N-qubit chains for the QEC workload, preserved
/// byte-for-byte in behaviour so the properties above can pin the
/// generalization down. Do not extend it; it exists to be compared
/// against.
mod pair_reference {
    use quma_qsim::chip::{ChipQubit, QubitId};
    use quma_qsim::complex::C64;
    use quma_qsim::gates::{rotation, Axis};
    use quma_qsim::noise::{amplitude_damping_kraus, phase_damping_kraus};
    use quma_qsim::resonator::{synthesize_trace, ReadoutParams, ReadoutTrace};
    use quma_qsim::transmon::{rotation_from_pulse, Transmon, TransmonParams};
    use quma_qsim::twoqubit::{Mat4, TwoQubitState};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Box–Muller standard-normal source over a borrowed RNG, drawing
    /// exactly as the chip's own readout-noise source does.
    struct GaussianSource<'a> {
        rng: &'a mut StdRng,
        cached: Option<f64>,
    }

    impl GaussianSource<'_> {
        fn next(&mut self) -> f64 {
            if let Some(v) = self.cached.take() {
                return v;
            }
            let u1: f64 = self.rng.random::<f64>().max(f64::MIN_POSITIVE);
            let u2: f64 = self.rng.random();
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f64::consts::PI * u2;
            self.cached = Some(r * theta.sin());
            r * theta.cos()
        }
    }

    /// The pair-coupled chip, frozen for differential tests.
    #[derive(Debug, Clone)]
    pub struct PairReferenceChip {
        qubits: Vec<ChipQubit>,
        joints: Vec<JointPair>,
        membership: Vec<Option<usize>>,
        rng: StdRng,
        measurements: u64,
    }

    /// A coupled pair holding a joint two-qubit state.
    #[derive(Debug, Clone)]
    struct JointPair {
        a: QubitId,
        b: QubitId,
        state: TwoQubitState,
        clock: f64,
    }

    impl PairReferenceChip {
        /// Creates an empty chip with a deterministic RNG seed.
        pub fn new(seed: u64) -> Self {
            Self {
                qubits: Vec::new(),
                joints: Vec::new(),
                membership: Vec::new(),
                rng: StdRng::seed_from_u64(seed),
                measurements: 0,
            }
        }

        /// `n` qubits with the paper's qubit-2 parameters.
        pub fn paper_device(n: usize, seed: u64) -> Self {
            let mut chip = Self::new(seed);
            for _ in 0..n {
                chip.add_qubit(
                    TransmonParams::paper_qubit2(),
                    ReadoutParams::paper_default(),
                );
            }
            chip
        }

        /// An ideal (noise-free) device.
        pub fn ideal_device(n: usize, seed: u64) -> Self {
            let mut chip = Self::new(seed);
            for _ in 0..n {
                chip.add_qubit(TransmonParams::ideal(), ReadoutParams::noiseless());
            }
            chip
        }

        /// Adds a qubit; returns its id.
        pub fn add_qubit(&mut self, transmon: TransmonParams, readout: ReadoutParams) -> QubitId {
            self.qubits.push(ChipQubit {
                transmon: Transmon::new(transmon),
                readout,
            });
            self.membership.push(None);
            self.qubits.len() - 1
        }

        /// Immutable access to a qubit.
        pub fn qubit(&self, id: QubitId) -> &ChipQubit {
            &self.qubits[id]
        }

        /// Mutable access to a qubit.
        pub fn qubit_mut(&mut self, id: QubitId) -> &mut ChipQubit {
            &mut self.qubits[id]
        }

        /// `p(|1⟩)` of a qubit, resolving joint membership.
        pub fn p1(&self, id: QubitId) -> f64 {
            match self.membership[id] {
                Some(j) => {
                    let joint = &self.joints[j];
                    joint.state.p1_of(usize::from(id == joint.b))
                }
                None => self.qubits[id].transmon.p1(),
            }
        }

        fn couple(&mut self, a: QubitId, b: QubitId, at: f64) -> usize {
            assert!(a != b, "cannot couple a qubit to itself");
            let (a, b) = (a.min(b), a.max(b));
            if let (Some(ja), Some(jb)) = (self.membership[a], self.membership[b]) {
                assert_eq!(ja, jb, "qubits belong to different joint registers");
                return ja;
            }
            assert!(
                self.membership[a].is_none() && self.membership[b].is_none(),
                "re-pairing a coupled qubit is not supported"
            );
            self.qubits[a].transmon.idle_until(at);
            self.qubits[b].transmon.idle_until(at);
            let state = TwoQubitState::product(
                self.qubits[a].transmon.state(),
                self.qubits[b].transmon.state(),
            );
            let idx = self.joints.len();
            self.joints.push(JointPair {
                a,
                b,
                state,
                clock: at,
            });
            self.membership[a] = Some(idx);
            self.membership[b] = Some(idx);
            idx
        }

        fn joint_idle(&mut self, j: usize, until: f64) {
            let dt = until - self.joints[j].clock;
            if dt <= 0.0 {
                return;
            }
            let (qa, qb) = (self.joints[j].a, self.joints[j].b);
            for (slot, qid) in [(0usize, qa), (1usize, qb)] {
                let params = self.qubits[qid].transmon.params().clone();
                let joint = &mut self.joints[j];
                let p_relax = 1.0 - (-dt / params.decoherence.t1).exp();
                joint
                    .state
                    .apply_local_kraus(&amplitude_damping_kraus(p_relax), slot);
                let gamma_phi = params.decoherence.pure_dephasing_rate();
                if gamma_phi > 0.0 {
                    let p_phi = 0.5 * (1.0 - (-2.0 * gamma_phi * dt).exp());
                    joint
                        .state
                        .apply_local_kraus(&phase_damping_kraus(p_phi), slot);
                }
                if params.detuning != 0.0 {
                    let phase = 2.0 * std::f64::consts::PI * params.detuning * dt;
                    joint.state.apply_local(&rotation(Axis::Z, phase), slot);
                }
            }
            self.joints[j].clock = until;
        }

        /// Applies a CZ flux pulse to a pair.
        pub fn apply_cz(&mut self, a: QubitId, b: QubitId, at: f64, duration: f64) {
            let j = self.couple(a, b, at);
            self.joint_idle(j, at);
            self.joints[j].state.apply_unitary(&Mat4::cz());
            self.joint_idle(j, at + duration);
        }

        /// Drives qubit `id` with a complex baseband sample stream.
        pub fn drive(&mut self, id: QubitId, samples: &[C64], start: f64, dt: f64) {
            match self.membership[id] {
                None => self.qubits[id].transmon.drive(samples, start, dt),
                Some(j) => {
                    self.joint_idle(j, start);
                    let params = self.qubits[id].transmon.params().clone();
                    let u = rotation_from_pulse(&params, samples, start, dt);
                    let joint = &mut self.joints[j];
                    let slot = usize::from(id == joint.b);
                    joint.state.apply_local(&u, slot);
                    let duration = samples.len() as f64 * dt;
                    self.joint_idle(j, start + duration);
                }
            }
        }

        /// Plays a measurement pulse: projects and synthesizes the trace.
        pub fn measure_with_truth(
            &mut self,
            id: QubitId,
            start: f64,
            duration: f64,
        ) -> (ReadoutTrace, u8) {
            self.measurements += 1;
            let u: f64 = self.rng.random();
            let outcome = match self.membership[id] {
                None => {
                    let q = &mut self.qubits[id];
                    q.transmon.idle_until(start);
                    let outcome = q.transmon.project_with(u);
                    q.transmon.idle_until(start + duration);
                    outcome
                }
                Some(j) => {
                    self.joint_idle(j, start);
                    let joint = &mut self.joints[j];
                    let slot = usize::from(id == joint.b);
                    let outcome = u8::from(u < joint.state.p1_of(slot));
                    joint.state.project(slot, outcome);
                    self.joint_idle(j, start + duration);
                    outcome
                }
            };
            let readout = self.qubits[id].readout.clone();
            let mut gauss = GaussianSource {
                rng: &mut self.rng,
                cached: None,
            };
            let trace = synthesize_trace(&readout, outcome, duration, || gauss.next());
            (trace, outcome)
        }
    }
}
