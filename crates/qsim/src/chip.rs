//! The simulated quantum chip: transmons with dedicated readout resonators
//! all coupled to a common feedline, as in the paper's 10-qubit validation
//! device (Section 8, Figure 8).
//!
//! The chip is the boundary of the QuMA simulation: the control box sends
//! it DAC sample streams (gate pulses) and measurement-pulse triggers, and
//! receives heterodyne readout traces in return. All randomness (projection
//! noise, readout noise) is drawn from a seedable RNG so whole experiments
//! are reproducible.
//!
//! ## Joint registers along the coupling chain
//!
//! Qubits start as independent single-qubit density matrices (the product
//! fast path — uncoupled qubits never pay for joint-state algebra and stay
//! bit-identical to the pre-QEC pair chip, which
//! `tests/chip_differential.rs` keeps as its reference). A CZ flux pulse lazily merges its two
//! operands into one [`NQubitState`] register; further CZs *extend* the
//! register along the chain, so a syndrome ancilla can couple to both of
//! its data neighbours — the multi-qubit feedback scenario the repetition
//! code needs. A projective measurement factors the measured qubit back
//! out of its register exactly (the post-measurement state is a tensor
//! product by construction), which keeps registers small across syndrome
//! rounds: ancillas re-join the chain next round from the product side.

use crate::complex::C64;
use crate::gates::{rotation, Axis};
use crate::register::{NQubitState, Scratch};
use crate::resonator::{synthesize_trace, ReadoutParams, ReadoutTrace};
use crate::state::DensityMatrix;
use crate::transmon::{rotation_from_pulse, Transmon, TransmonParams};
use crate::twoqubit::Mat4;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Index of a qubit on the chip.
pub type QubitId = usize;

/// A transmon plus its readout chain.
#[derive(Debug, Clone)]
pub struct ChipQubit {
    /// The driven transmon.
    pub transmon: Transmon,
    /// Its readout resonator / measurement chain.
    pub readout: ReadoutParams,
}

/// A chain-coupled register holding a joint (possibly entangled) state of
/// several qubits. Formed lazily when flux (CZ) pulses address its
/// members; shrinks when members are measured out.
#[derive(Debug, Clone)]
struct JointRegister {
    /// Member qubits in slot order (slot `s` = tensor factor `s`).
    members: Vec<QubitId>,
    state: NQubitState,
    /// Lab time up to which decoherence has been applied.
    clock: f64,
}

/// The simulated multi-qubit device.
#[derive(Debug, Clone)]
pub struct QuantumChip {
    qubits: Vec<ChipQubit>,
    joints: Vec<JointRegister>,
    /// Per-qubit membership in `joints`.
    membership: Vec<Option<usize>>,
    rng: StdRng,
    measurements: u64,
    /// Reusable kernel buffers threaded through every register
    /// merge/split, so the hot QEC loop (couple on CZ, factor-out on
    /// measure) never allocates. Clones as empty.
    scratch: Scratch,
}

impl QuantumChip {
    /// Creates an empty chip with a deterministic RNG seed.
    pub fn new(seed: u64) -> Self {
        Self {
            qubits: Vec::new(),
            joints: Vec::new(),
            membership: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
            measurements: 0,
            scratch: Scratch::new(),
        }
    }

    /// Builds the paper's validation configuration: `n` qubits with the
    /// qubit-2 parameters and default readout chain.
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

    /// An ideal (noise-free) device for microarchitecture tests.
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

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.qubits.len()
    }

    /// Immutable access to a qubit.
    pub fn qubit(&self, id: QubitId) -> &ChipQubit {
        &self.qubits[id]
    }

    /// Mutable access to a qubit (used by experiments to inject calibrated
    /// pulse errors).
    pub fn qubit_mut(&mut self, id: QubitId) -> &mut ChipQubit {
        &mut self.qubits[id]
    }

    /// Total number of measurement pulses played so far.
    pub fn measurement_count(&self) -> u64 {
        self.measurements
    }

    /// Replaces the RNG with a freshly seeded one and zeroes the
    /// measurement counter, making the chip's future stochastic behaviour
    /// identical to a newly built chip with this seed (qubit states and
    /// parameters are untouched — combine with [`Self::reset_all`]).
    pub fn reseed(&mut self, seed: u64) {
        self.rng = StdRng::seed_from_u64(seed);
        self.measurements = 0;
    }

    /// Resets every qubit to `|0⟩` at lab time `at`, dissolving any
    /// coupled registers.
    pub fn reset_all(&mut self, at: f64) {
        for q in &mut self.qubits {
            q.transmon.reset(at);
        }
        self.joints.clear();
        self.membership.fill(None);
    }

    /// True when qubit `id` is currently part of a joint (possibly
    /// entangled) register.
    pub fn is_coupled(&self, id: QubitId) -> bool {
        self.membership[id].is_some()
    }

    /// Width of the joint register `id` belongs to (1 when uncoupled).
    pub fn coupled_width(&self, id: QubitId) -> usize {
        match self.membership[id] {
            Some(j) => self.joints[j].members.len(),
            None => 1,
        }
    }

    /// The other members of `id`'s register, in slot order (empty when
    /// uncoupled).
    pub fn coupled_partners(&self, id: QubitId) -> Vec<QubitId> {
        match self.membership[id] {
            Some(j) => self.joints[j]
                .members
                .iter()
                .copied()
                .filter(|&m| m != id)
                .collect(),
            None => Vec::new(),
        }
    }

    /// `p(|1⟩)` of a qubit, resolving joint membership (use this instead of
    /// `qubit(id).transmon.p1()` when CZ pulses may have run).
    pub fn p1(&self, id: QubitId) -> f64 {
        match self.membership[id] {
            Some(j) => self.joints[j].state.p1_of(self.slot_of(j, id)),
            None => self.qubits[id].transmon.p1(),
        }
    }

    /// Reduced single-qubit state of `id`, resolving joint membership
    /// (test/inspection helper; does not advance the clock).
    pub fn reduced_state(&self, id: QubitId) -> DensityMatrix {
        match self.membership[id] {
            Some(j) => self.joints[j].state.reduced(self.slot_of(j, id)),
            None => *self.qubits[id].transmon.state(),
        }
    }

    /// Slot of qubit `id` inside register `j`.
    fn slot_of(&self, j: usize, id: QubitId) -> usize {
        self.joints[j]
            .members
            .iter()
            .position(|&m| m == id)
            .expect("membership table and register agree")
    }

    /// A fresh one-qubit register factor for `id`, idled to `at`.
    fn single_factor(&mut self, id: QubitId, at: f64) -> NQubitState {
        self.qubits[id].transmon.idle_until(at);
        NQubitState::from_single(self.qubits[id].transmon.state())
    }

    /// Forms (or finds) the joint register containing the pair, merging
    /// single-qubit states and/or existing registers along the coupling
    /// chain as needed.
    fn couple(&mut self, a: QubitId, b: QubitId, at: f64) -> usize {
        assert!(a != b, "cannot couple a qubit to itself");
        match (self.membership[a], self.membership[b]) {
            (Some(ja), Some(jb)) if ja == jb => ja,
            (Some(ja), Some(jb)) => {
                // Merge two registers: bring both to `at`, tensor their
                // states (ja's members keep the leading slots).
                self.joint_idle(ja, at);
                self.joint_idle(jb, at);
                let absorbed = self.remove_register(jb);
                let ja = self.membership[a].expect("a still registered");
                self.joints[ja]
                    .state
                    .tensor_with(&absorbed.state, &mut self.scratch);
                for &m in &absorbed.members {
                    self.membership[m] = Some(ja);
                }
                self.joints[ja].members.extend(absorbed.members);
                ja
            }
            (Some(j), None) | (None, Some(j)) => {
                // Extend a register by one chain neighbour (new qubit
                // takes the last slot).
                let newcomer = if self.membership[a].is_some() { b } else { a };
                self.joint_idle(j, at);
                let single = self.single_factor(newcomer, at);
                self.joints[j].state.tensor_with(&single, &mut self.scratch);
                self.joints[j].members.push(newcomer);
                self.membership[newcomer] = Some(j);
                j
            }
            (None, None) => {
                // Fresh pair: keep the old pair-chip slot order
                // (lower-indexed qubit first).
                let (a, b) = (a.min(b), a.max(b));
                let mut sa = self.single_factor(a, at);
                let sb = self.single_factor(b, at);
                sa.tensor_with(&sb, &mut self.scratch);
                let idx = self.joints.len();
                self.joints.push(JointRegister {
                    members: vec![a, b],
                    state: sa,
                    clock: at,
                });
                self.membership[a] = Some(idx);
                self.membership[b] = Some(idx);
                idx
            }
        }
    }

    /// Removes register `j` from the pool and fixes up the membership
    /// indices the swap disturbs. The caller re-homes the members.
    fn remove_register(&mut self, j: usize) -> JointRegister {
        let reg = self.joints.swap_remove(j);
        if j < self.joints.len() {
            // The register previously at the tail now lives at `j`.
            for &m in &self.joints[j].members {
                self.membership[m] = Some(j);
            }
        }
        reg
    }

    /// Evolves a joint register under every member's local decoherence
    /// (and detuning precession) up to lab time `until`.
    fn joint_idle(&mut self, j: usize, until: f64) {
        let dt = until - self.joints[j].clock;
        if dt <= 0.0 {
            return;
        }
        for slot in 0..self.joints[j].members.len() {
            let qid = self.joints[j].members[slot];
            let params = self.qubits[qid].transmon.params().clone();
            let joint = &mut self.joints[j];
            let p_relax = 1.0 - (-dt / params.decoherence.t1).exp();
            if p_relax > 0.0 {
                joint.state.apply_amplitude_damping(p_relax, slot);
            }
            let gamma_phi = params.decoherence.pure_dephasing_rate();
            if gamma_phi > 0.0 {
                let p_phi = 0.5 * (1.0 - (-2.0 * gamma_phi * dt).exp());
                joint.state.apply_phase_damping(p_phi, slot);
            }
            if params.detuning != 0.0 {
                let phase = 2.0 * std::f64::consts::PI * params.detuning * dt;
                joint.state.apply_local(&rotation(Axis::Z, phase), slot);
            }
        }
        self.joints[j].clock = until;
    }

    /// Applies a CZ flux pulse to a pair at lab time `at`, lasting
    /// `duration` seconds (paper: ~40 ns). Couples the pair on first use,
    /// extending or merging existing chain registers as needed.
    pub fn apply_cz(&mut self, a: QubitId, b: QubitId, at: f64, duration: f64) {
        let j = self.couple(a, b, at);
        self.joint_idle(j, at);
        let (sa, sb) = (self.slot_of(j, a), self.slot_of(j, b));
        self.joints[j].state.apply_two(&Mat4::cz(), sa, sb);
        self.joint_idle(j, at + duration);
    }

    /// Drives qubit `id` with a complex baseband sample stream starting at
    /// absolute lab time `start` (seconds) with sample period `dt`. Works
    /// transparently on coupled qubits (local rotation on the joint state).
    pub fn drive(&mut self, id: QubitId, samples: &[C64], start: f64, dt: f64) {
        match self.membership[id] {
            None => self.qubits[id].transmon.drive(samples, start, dt),
            Some(j) => {
                self.joint_idle(j, start);
                let params = self.qubits[id].transmon.params().clone();
                let u = rotation_from_pulse(&params, samples, start, dt);
                let slot = self.slot_of(j, id);
                self.joints[j].state.apply_local(&u, slot);
                let duration = samples.len() as f64 * dt;
                self.joint_idle(j, start + duration);
            }
        }
    }

    /// Plays a measurement pulse on qubit `id` at lab time `start` for
    /// `duration` seconds: projects the qubit and returns the heterodyne
    /// trace the ADCs would digitize.
    pub fn measure(&mut self, id: QubitId, start: f64, duration: f64) -> ReadoutTrace {
        self.measure_with_truth(id, start, duration).0
    }

    /// Like [`Self::measure`] but also reports the projected outcome, for
    /// tests that want ground truth alongside the analog trace.
    ///
    /// When `id` belongs to a joint register, the projection factors it
    /// out exactly: the qubit returns to single-qubit evolution (its
    /// transmon holds the post-measurement state) and the register
    /// shrinks — dissolving entirely when only one member remains.
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
                // Readout takes `duration`; the qubit idles (and decoheres)
                // during it.
                q.transmon.idle_until(start + duration);
                outcome
            }
            Some(j) => {
                self.joint_idle(j, start);
                let slot = self.slot_of(j, id);
                let outcome = u8::from(u < self.joints[j].state.p1_of(slot));
                self.joints[j].state.project(slot, outcome);
                self.split_out(j, id, start);
                self.qubits[id].transmon.idle_until(start + duration);
                // Everything else — the remnant register included —
                // idles *lazily* at its next operation: eagerly pushing
                // other clocks to `start + duration` here would apply
                // readout-window decoherence before operations that start
                // inside the window (e.g. the second measurement of a
                // simultaneous syndrome fanout at this same `start`).
                outcome
            }
        };
        let readout = self.qubits[id].readout.clone();
        let mut gauss = GaussianSource::new(&mut self.rng);
        let trace = synthesize_trace(&readout, outcome, duration, || gauss.next());
        (trace, outcome)
    }

    /// Returns the just-projected qubit `id` from register `j` to
    /// single-qubit evolution at lab time `at`; dissolves the register
    /// when one member remains. Exact because the post-projection state
    /// factors.
    fn split_out(&mut self, j: usize, id: QubitId, at: f64) {
        let slot = self.slot_of(j, id);
        if self.joints[j].members.len() == 2 {
            let reg = self.remove_register(j);
            for (s, &m) in reg.members.iter().enumerate() {
                self.qubits[m].transmon.set_state(reg.state.reduced(s), at);
                self.membership[m] = None;
            }
            return;
        }
        let dm = self.joints[j].state.extract_with(slot, &mut self.scratch);
        self.joints[j].members.remove(slot);
        self.qubits[id].transmon.set_state(dm, at);
        self.membership[id] = None;
    }
}

/// The chip-simulation boundary the control pipeline drives: DAC sample
/// streams and measurement triggers in, heterodyne readout traces out.
///
/// `quma-core`'s deterministic backend holds a `Box<dyn ChipBackend>` so
/// the device profile can select the physics engine: the exact
/// state-vector [`QuantumChip`] (any circuit, `O(4^k)` per coupled
/// register) or the polynomial-time
/// [`crate::stabilizer::StabilizerChip`] (Clifford circuits only). Every
/// implementation must consume its seeded RNG in the same order — one
/// uniform draw per projection, then one Gaussian per trace sample — so
/// seeded shots replay bit-identically across backends; new backends are
/// pinned to that contract by a differential test suite against the
/// exact chip (see `CONTRIBUTING.md`).
pub trait ChipBackend: Send + std::fmt::Debug {
    /// Number of qubits on the device.
    fn num_qubits(&self) -> usize;

    /// Immutable access to a qubit's transmon and readout parameters.
    fn qubit(&self, id: QubitId) -> &ChipQubit;

    /// Mutable access to a qubit (parameter retuning, noise injection).
    fn qubit_mut(&mut self, id: QubitId) -> &mut ChipQubit;

    /// Total number of measurement pulses played since the last reseed.
    fn measurement_count(&self) -> u64;

    /// Replaces the RNG with a freshly seeded one and zeroes the
    /// measurement counter (per-shot replay; combine with
    /// [`Self::reset_all`]).
    fn reseed(&mut self, seed: u64);

    /// Resets every qubit to `|0⟩` at lab time `at`.
    fn reset_all(&mut self, at: f64);

    /// `p(|1⟩)` of a qubit right now (inspection; must not consume RNG).
    fn p1(&self, id: QubitId) -> f64;

    /// Applies a CZ flux pulse to a pair at lab time `at`, lasting
    /// `duration` seconds.
    fn apply_cz(&mut self, a: QubitId, b: QubitId, at: f64, duration: f64);

    /// Drives qubit `id` with a complex baseband sample stream starting
    /// at absolute lab time `start` with sample period `dt`.
    fn drive(&mut self, id: QubitId, samples: &[C64], start: f64, dt: f64);

    /// Plays a measurement pulse: projects the qubit and returns the
    /// heterodyne trace the ADCs would digitize.
    fn measure(&mut self, id: QubitId, start: f64, duration: f64) -> ReadoutTrace {
        self.measure_with_truth(id, start, duration).0
    }

    /// Like [`Self::measure`] but also reports the projected outcome.
    fn measure_with_truth(&mut self, id: QubitId, start: f64, duration: f64) -> (ReadoutTrace, u8);

    /// Clones the backend behind the trait object (shot sharding clones
    /// whole devices).
    fn clone_box(&self) -> Box<dyn ChipBackend>;
}

impl Clone for Box<dyn ChipBackend> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

impl ChipBackend for QuantumChip {
    fn num_qubits(&self) -> usize {
        QuantumChip::num_qubits(self)
    }

    fn qubit(&self, id: QubitId) -> &ChipQubit {
        QuantumChip::qubit(self, id)
    }

    fn qubit_mut(&mut self, id: QubitId) -> &mut ChipQubit {
        QuantumChip::qubit_mut(self, id)
    }

    fn measurement_count(&self) -> u64 {
        QuantumChip::measurement_count(self)
    }

    fn reseed(&mut self, seed: u64) {
        QuantumChip::reseed(self, seed);
    }

    fn reset_all(&mut self, at: f64) {
        QuantumChip::reset_all(self, at);
    }

    fn p1(&self, id: QubitId) -> f64 {
        QuantumChip::p1(self, id)
    }

    fn apply_cz(&mut self, a: QubitId, b: QubitId, at: f64, duration: f64) {
        QuantumChip::apply_cz(self, a, b, at, duration);
    }

    fn drive(&mut self, id: QubitId, samples: &[C64], start: f64, dt: f64) {
        QuantumChip::drive(self, id, samples, start, dt);
    }

    fn measure(&mut self, id: QubitId, start: f64, duration: f64) -> ReadoutTrace {
        QuantumChip::measure(self, id, start, duration)
    }

    fn measure_with_truth(&mut self, id: QubitId, start: f64, duration: f64) -> (ReadoutTrace, u8) {
        QuantumChip::measure_with_truth(self, id, start, duration)
    }

    fn clone_box(&self) -> Box<dyn ChipBackend> {
        Box::new(self.clone())
    }
}

/// Box–Muller standard-normal source over a borrowed RNG. The pair
/// reference chip in `tests/chip_differential.rs` draws the same way, so
/// both chips consume the RNG identically.
pub(crate) struct GaussianSource<'a> {
    rng: &'a mut StdRng,
    cached: Option<f64>,
}

impl<'a> GaussianSource<'a> {
    pub(crate) fn new(rng: &'a mut StdRng) -> Self {
        Self { rng, cached: None }
    }

    pub(crate) fn next(&mut self) -> f64 {
        if let Some(v) = self.cached.take() {
            return v;
        }
        // Box–Muller transform.
        let u1: f64 = self.rng.random::<f64>().max(f64::MIN_POSITIVE);
        let u2: f64 = self.rng.random();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.cached = Some(r * theta.sin());
        r * theta.cos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resonator::Discriminator;
    use std::f64::consts::PI;

    fn ssb_pulse(amp: f64, ssb: f64, start: f64, n: usize, dt: f64) -> Vec<C64> {
        (0..n)
            .map(|k| {
                let t = start + (k as f64 + 0.5) * dt;
                C64::from_polar(amp, -2.0 * PI * ssb * t)
            })
            .collect()
    }

    fn calibrated_chip(n: usize, seed: u64) -> QuantumChip {
        let mut chip = QuantumChip::ideal_device(n, seed);
        for i in 0..n {
            chip.qubit_mut(i).transmon.params_mut().rabi_coefficient = PI / 20e-9;
        }
        chip
    }

    /// A π pulse on qubit `q` of a calibrated chip at time `t0`.
    fn x180(chip: &mut QuantumChip, q: usize, t0: f64) {
        let ssb = chip.qubit(q).transmon.params().ssb_frequency;
        let pulse = ssb_pulse(1.0, ssb, t0, 20, 1e-9);
        chip.drive(q, &pulse, t0, 1e-9);
    }

    /// A ±π/2 y pulse on qubit `q` (sign via amplitude phase).
    fn y90(chip: &mut QuantumChip, q: usize, t0: f64, sign: f64) {
        let ssb = chip.qubit(q).transmon.params().ssb_frequency;
        let pulse: Vec<C64> = (0..20)
            .map(|k| {
                let t = t0 + (k as f64 + 0.5) * 1e-9;
                C64::from_polar(0.5, -2.0 * PI * ssb * t + sign * PI / 2.0)
            })
            .collect();
        chip.drive(q, &pulse, t0, 1e-9);
    }

    #[test]
    fn ground_state_measures_zero() {
        let mut chip = calibrated_chip(1, 7);
        let d = Discriminator::calibrate(&chip.qubit(0).readout, 1.5e-6);
        let trace = chip.measure(0, 0.0, 1.5e-6);
        assert_eq!(d.discriminate(&trace), 0);
    }

    #[test]
    fn pi_pulse_then_measure_reads_one() {
        let mut chip = calibrated_chip(1, 7);
        let ssb = chip.qubit(0).transmon.params().ssb_frequency;
        let pulse = ssb_pulse(1.0, ssb, 0.0, 20, 1e-9);
        chip.drive(0, &pulse, 0.0, 1e-9);
        let d = Discriminator::calibrate(&chip.qubit(0).readout, 1.5e-6);
        let trace = chip.measure(0, 20e-9, 1.5e-6);
        assert_eq!(d.discriminate(&trace), 1);
    }

    #[test]
    fn superposition_measurement_statistics() {
        let mut chip = calibrated_chip(1, 42);
        let ssb = chip.qubit(0).transmon.params().ssb_frequency;
        let d = Discriminator::calibrate(&chip.qubit(0).readout, 1.0e-6);
        let mut ones = 0u32;
        let n = 400;
        for round in 0..n {
            chip.reset_all(0.0);
            let pulse = ssb_pulse(0.5, ssb, 0.0, 20, 1e-9);
            chip.drive(0, &pulse, 0.0, 1e-9);
            let trace = chip.measure(0, 20e-9, 1.0e-6);
            ones += u32::from(d.discriminate(&trace) == 1);
            let _ = round;
        }
        let f = ones as f64 / n as f64;
        assert!(
            (f - 0.5).abs() < 0.1,
            "π/2 pulse should give ~50% ones, got {f}"
        );
    }

    #[test]
    fn measurement_projects_the_state() {
        let mut chip = calibrated_chip(1, 3);
        let ssb = chip.qubit(0).transmon.params().ssb_frequency;
        let pulse = ssb_pulse(0.5, ssb, 0.0, 20, 1e-9);
        chip.drive(0, &pulse, 0.0, 1e-9);
        let (_, first) = chip.measure_with_truth(0, 20e-9, 1.0e-6);
        // Immediately measuring again must give the same outcome (ideal
        // device: no relaxation between measurements).
        let (_, second) = chip.measure_with_truth(0, 20e-9 + 1.0e-6, 1.0e-6);
        assert_eq!(first, second);
    }

    #[test]
    fn reproducible_under_fixed_seed() {
        let run = |seed: u64| {
            let mut chip = calibrated_chip(1, seed);
            let ssb = chip.qubit(0).transmon.params().ssb_frequency;
            let pulse = ssb_pulse(0.5, ssb, 0.0, 20, 1e-9);
            chip.drive(0, &pulse, 0.0, 1e-9);
            let (trace, outcome) = chip.measure_with_truth(0, 20e-9, 0.5e-6);
            (trace.samples, outcome)
        };
        assert_eq!(run(99), run(99));
    }

    #[test]
    fn qubits_are_independent() {
        let mut chip = calibrated_chip(2, 5);
        let ssb = chip.qubit(0).transmon.params().ssb_frequency;
        let pulse = ssb_pulse(1.0, ssb, 0.0, 20, 1e-9);
        chip.drive(0, &pulse, 0.0, 1e-9);
        assert!(chip.qubit(0).transmon.p1() > 0.999);
        assert!(chip.qubit(1).transmon.p1() < 1e-9);
    }

    #[test]
    fn measurement_counter_increments() {
        let mut chip = calibrated_chip(1, 1);
        assert_eq!(chip.measurement_count(), 0);
        chip.measure(0, 0.0, 0.3e-6);
        chip.measure(0, 1e-6, 0.3e-6);
        assert_eq!(chip.measurement_count(), 2);
    }

    #[test]
    fn cz_chain_extends_the_register() {
        // CZ(0,1) then CZ(1,2): all three qubits share one register.
        let mut chip = calibrated_chip(3, 11);
        chip.apply_cz(0, 1, 0.0, 40e-9);
        assert_eq!(chip.coupled_width(0), 2);
        chip.apply_cz(1, 2, 50e-9, 40e-9);
        assert_eq!(chip.coupled_width(0), 3);
        assert_eq!(chip.coupled_partners(1), vec![0, 2]);
    }

    #[test]
    fn cz_merges_disjoint_registers() {
        // (0,1) and (2,3) coupled separately, then CZ(1,2) merges them.
        let mut chip = calibrated_chip(4, 12);
        chip.apply_cz(0, 1, 0.0, 40e-9);
        chip.apply_cz(2, 3, 0.0, 40e-9);
        assert_eq!(chip.coupled_width(0), 2);
        assert_eq!(chip.coupled_width(3), 2);
        chip.apply_cz(1, 2, 50e-9, 40e-9);
        for q in 0..4 {
            assert_eq!(chip.coupled_width(q), 4, "q{q}");
        }
    }

    #[test]
    fn measurement_splits_the_measured_qubit_out() {
        let mut chip = calibrated_chip(3, 13);
        chip.apply_cz(0, 1, 0.0, 40e-9);
        chip.apply_cz(1, 2, 50e-9, 40e-9);
        let (_, _) = chip.measure_with_truth(1, 100e-9, 0.3e-6);
        assert!(!chip.is_coupled(1), "measured qubit left the register");
        assert_eq!(chip.coupled_width(0), 2, "q0 and q2 remain joined");
        assert_eq!(chip.coupled_partners(0), vec![2]);
    }

    #[test]
    fn measuring_down_to_one_member_dissolves_the_register() {
        let mut chip = calibrated_chip(2, 14);
        chip.apply_cz(0, 1, 0.0, 40e-9);
        chip.measure(0, 50e-9, 0.3e-6);
        assert!(!chip.is_coupled(0));
        assert!(!chip.is_coupled(1));
        // Re-coupling after dissolution works (next syndrome round).
        chip.apply_cz(0, 1, 1e-6, 40e-9);
        assert_eq!(chip.coupled_width(0), 2);
    }

    #[test]
    fn parity_check_reads_data_parity_and_leaves_data_alone() {
        // d0 = q0 (|1⟩), ancilla = q1, d1 = q2 (|0⟩): mY90(a),
        // CZ(d0,a), CZ(d1,a), Y90(a) puts d0⊕d1 = 1 on the ancilla.
        let mut chip = calibrated_chip(3, 21);
        x180(&mut chip, 0, 0.0);
        y90(&mut chip, 1, 30e-9, -1.0);
        chip.apply_cz(0, 1, 60e-9, 40e-9);
        chip.apply_cz(2, 1, 110e-9, 40e-9);
        y90(&mut chip, 1, 160e-9, 1.0);
        assert!((chip.p1(1) - 1.0).abs() < 1e-9, "ancilla = parity 1");
        let (_, syndrome) = chip.measure_with_truth(1, 200e-9, 0.3e-6);
        assert_eq!(syndrome, 1);
        // Data qubits keep their computational-basis values.
        assert!((chip.p1(0) - 1.0).abs() < 1e-9);
        assert!(chip.p1(2) < 1e-9);
        // And the distant qubit was never in the ancilla's register after
        // the split.
        assert!(!chip.is_coupled(1));
    }

    #[test]
    fn ghz_three_qubit_correlations() {
        // Y90(q0); CNOT(q0→q1) and CNOT(q1→q2) via the CZ decomposition:
        // outcomes of all three qubits must coincide.
        for seed in [3u64, 5, 8, 13] {
            let mut chip = calibrated_chip(3, seed);
            y90(&mut chip, 0, 0.0, 1.0);
            for (c, t, t0) in [(0usize, 1usize, 30e-9), (1, 2, 180e-9)] {
                y90(&mut chip, t, t0, -1.0);
                chip.apply_cz(c, t, t0 + 30e-9, 40e-9);
                y90(&mut chip, t, t0 + 80e-9, 1.0);
            }
            let (_, b0) = chip.measure_with_truth(0, 400e-9, 0.3e-6);
            let (_, b1) = chip.measure_with_truth(1, 800e-9, 0.3e-6);
            let (_, b2) = chip.measure_with_truth(2, 1200e-9, 0.3e-6);
            assert_eq!(b0, b1, "seed {seed}");
            assert_eq!(b1, b2, "seed {seed}");
        }
    }
}
