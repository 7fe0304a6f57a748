//! Dense N-qubit density matrices: the substrate for chain-coupled
//! registers on the simulated chip.
//!
//! The paper validates single-qubit control and defines CZ between
//! qubits sharing a resonator (Section 2.2); the repetition-code QEC
//! workload needs more — an ancilla performs CZs with *two* data
//! neighbours per syndrome round, so joint states grow along the
//! coupling chain instead of staying pairwise. This module provides the
//! general `2^k × 2^k` density-matrix machinery the chip uses for those
//! registers: tensor products to merge, efficient local one- and
//! two-qubit operations (O(d²) bit-indexed updates, never a full
//! `2^k`-dimensional Kronecker product), projective measurement, and the
//! exact post-measurement factor-out that keeps registers small.
//!
//! The kernels are **allocation-free on the hot path**: the growing /
//! shrinking operations (`tensor`, `extract`, `apply_local_kraus`) have
//! `*_with` variants that build their result in a caller-owned
//! [`Scratch`] buffer and swap it in, so a chip that threads one
//! `Scratch` through every register op never touches the global
//! allocator after warm-up — which is what lets parallel shot workers
//! scale instead of serializing on `malloc`. The in-place unitary
//! kernels share a tightened multiply-accumulate inner loop
//! (index-based over contiguous row slices, auto-vectorizable).
//!
//! Slot ordering follows [`crate::twoqubit::TwoQubitState`]: slot 0 is
//! the *most significant* bit of the basis index, so a two-slot register
//! indexes `|q₀q₁⟩ = 2·q₀ + q₁`.

use crate::complex::{C64, ONE, ZERO};
use crate::mat2::Mat2;
use crate::state::DensityMatrix;
use crate::twoqubit::Mat4;

/// Hard cap on register width: `2^10 = 1024`-dimensional density
/// matrices (16 MiB) are the largest a coupling chain may form. The QEC
/// workloads stay far below this (distance-5 peaks at 9 qubits when all
/// four ancillas are simultaneously entangled with the data chain).
pub const MAX_REGISTER_QUBITS: usize = 10;

/// Reusable work buffers for the register kernels.
///
/// The growing/shrinking register ops need a second matrix to build
/// their result in; instead of allocating a fresh `dim²` `Vec` per call
/// (up to 4 MiB at 9 qubits — allocator churn that serializes parallel
/// shot workers), the `*_with` kernels build into one of these buffers
/// and `mem::swap` it with the register's storage. The displaced
/// storage becomes the next call's buffer, so a warmed-up chip
/// ping-pongs between two long-lived allocations.
///
/// `Clone` yields an **empty** scratch: the buffers are a cache, and
/// cloning a chip (e.g. handing a device copy to a worker thread) must
/// not copy megabytes of dead scratch.
#[derive(Debug, Default)]
pub struct Scratch {
    /// Result buffer: `*_with` kernels build here, then swap with `rho`.
    a: Vec<C64>,
    /// Term buffer for multi-pass kernels (`apply_local_kraus_with`).
    b: Vec<C64>,
}

impl Scratch {
    /// An empty scratch; buffers grow to working size on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Clone for Scratch {
    fn clone(&self) -> Self {
        Self::default()
    }
}

/// Tightened multiply-accumulate over a contiguous row pair, shared by
/// the local kernels: `r0 ← u00·r0 + u01·r1`, `r1 ← u10·r0 + u11·r1`
/// element-wise. Index-based over equal-length slices so the compiler
/// drops the bounds checks and vectorizes; the per-element arithmetic
/// (operand order included) is exactly the original kernel's, keeping
/// results bit-identical.
#[inline]
fn mix_row_pair(r0: &mut [C64], r1: &mut [C64], u: &Mat2) {
    assert_eq!(r0.len(), r1.len());
    for j in 0..r0.len() {
        let a = r0[j];
        let b = r1[j];
        r0[j] = u.m00 * a + u.m01 * b;
        r1[j] = u.m10 * a + u.m11 * b;
    }
}

/// Column-pair half of the local update: within one contiguous row,
/// mixes entries `(j, j|mask)` by the (already conjugated) matrix
/// `[[c00, c01], [c10, c11]]` on the right.
#[inline]
fn mix_column_pairs(row: &mut [C64], mask: usize, c00: C64, c01: C64, c10: C64, c11: C64) {
    let dim = row.len();
    let step = mask << 1;
    let mut base = 0;
    while base < dim {
        for lo in 0..mask {
            let j = base + lo;
            let r0 = row[j];
            let r1 = row[j + mask];
            row[j] = r0 * c00 + r1 * c01;
            row[j + mask] = r0 * c10 + r1 * c11;
        }
        base += step;
    }
}

/// `ρ ← U ρ U†` with `U` acting on the qubit selected by `mask`, over a
/// raw row-major `dim × dim` buffer. Shared by [`NQubitState::apply_local`]
/// and [`NQubitState::apply_local_kraus_with`] (which applies it to a
/// scratch copy per Kraus term without constructing a register).
fn apply_local_slice(rho: &mut [C64], dim: usize, mask: usize, u: &Mat2) {
    // Left-multiply by U: mix row pairs (i, i|mask) for i with bit 0.
    let step = mask << 1;
    let mut base = 0;
    while base < dim {
        for lo in 0..mask {
            let i = base + lo;
            let (head, tail) = rho.split_at_mut((i + mask) * dim);
            mix_row_pair(&mut head[i * dim..(i + 1) * dim], &mut tail[..dim], u);
        }
        base += step;
    }
    // Right-multiply by U†: mix column pairs within each contiguous row.
    let (c00, c01, c10, c11) = (u.m00.conj(), u.m01.conj(), u.m10.conj(), u.m11.conj());
    for row in rho.chunks_exact_mut(dim) {
        mix_column_pairs(row, mask, c00, c01, c10, c11);
    }
}

/// Tensor product `a ⊗ b` written into `out` (pre-sized to
/// `(da·db)² `, pre-zeroed by the callers).
fn tensor_into(out: &mut [C64], a: &[C64], da: usize, b: &[C64], db: usize) {
    let dim = da * db;
    for ia in 0..da {
        for ja in 0..da {
            let f = a[ia * da + ja];
            if f == ZERO {
                continue;
            }
            for ib in 0..db {
                let dst = &mut out[(ia * db + ib) * dim + ja * db..][..db];
                let src = &b[ib * db..][..db];
                for (d, s) in dst.iter_mut().zip(src) {
                    *d = f * *s;
                }
            }
        }
    }
}

/// A dense density matrix over `k` qubits (`1 ≤ k ≤ 10`), row-major.
#[derive(Debug, Clone, PartialEq)]
pub struct NQubitState {
    qubits: usize,
    /// `dim × dim` entries, row-major, `dim = 2^qubits`.
    rho: Vec<C64>,
}

impl NQubitState {
    /// A register of `k` qubits in `|0…0⟩`.
    pub fn ground(qubits: usize) -> Self {
        assert!(
            (1..=MAX_REGISTER_QUBITS).contains(&qubits),
            "register width {qubits} outside 1..={MAX_REGISTER_QUBITS}"
        );
        let dim = 1 << qubits;
        let mut rho = vec![ZERO; dim * dim];
        rho[0] = ONE;
        Self { qubits, rho }
    }

    /// A one-qubit register holding a copy of `dm`.
    pub fn from_single(dm: &DensityMatrix) -> Self {
        let m = dm.matrix();
        Self {
            qubits: 1,
            rho: vec![m.m00, m.m01, m.m10, m.m11],
        }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.qubits
    }

    /// Matrix dimension `2^k`.
    pub fn dim(&self) -> usize {
        1 << self.qubits
    }

    /// Entry `(i, j)` of the density matrix.
    pub fn entry(&self, i: usize, j: usize) -> C64 {
        self.rho[i * self.dim() + j]
    }

    /// The tensor product `self ⊗ other`: `self`'s slots become the most
    /// significant, `other`'s the least (appended after `self`'s).
    ///
    /// Allocates the result; hot paths use [`Self::tensor_with`].
    pub fn tensor(&self, other: &NQubitState) -> Self {
        let mut out = self.clone();
        out.tensor_with(other, &mut Scratch::new());
        out
    }

    /// Grows `self` to `self ⊗ other` in place, building the enlarged
    /// matrix in `scratch` and swapping it in — no allocation once the
    /// scratch has reached working size.
    pub fn tensor_with(&mut self, other: &NQubitState, scratch: &mut Scratch) {
        let k = self.qubits + other.qubits;
        assert!(
            k <= MAX_REGISTER_QUBITS,
            "merged register of {k} qubits exceeds the {MAX_REGISTER_QUBITS}-qubit cap"
        );
        let (da, db) = (self.dim(), other.dim());
        let dim = da * db;
        scratch.a.clear();
        scratch.a.resize(dim * dim, ZERO);
        tensor_into(&mut scratch.a, &self.rho, da, &other.rho, db);
        std::mem::swap(&mut self.rho, &mut scratch.a);
        self.qubits = k;
    }

    /// Bit position (from the LSB of a basis index) of `slot`.
    fn bit(&self, slot: usize) -> usize {
        assert!(slot < self.qubits, "slot {slot} out of range");
        self.qubits - 1 - slot
    }

    /// Applies a single-qubit unitary to `slot`: `ρ ← (U ρ U†)` with `U`
    /// acting on that slot only. O(d²) via bit-paired row/column updates.
    pub fn apply_local(&mut self, u: &Mat2, slot: usize) {
        let mask = 1usize << self.bit(slot);
        let dim = self.dim();
        apply_local_slice(&mut self.rho, dim, mask, u);
    }

    /// Applies a two-qubit unitary to the ordered slot pair
    /// `(slot_a, slot_b)`, with `slot_a` the first (most significant)
    /// factor of the 4×4 matrix's basis `|q_a q_b⟩`.
    pub fn apply_two(&mut self, u: &Mat4, slot_a: usize, slot_b: usize) {
        assert_ne!(slot_a, slot_b, "two-qubit gate needs distinct slots");
        let (ma, mb) = (1usize << self.bit(slot_a), 1usize << self.bit(slot_b));
        let dim = self.dim();
        let sub = |base: usize, s: usize| -> usize {
            base | if s & 2 != 0 { ma } else { 0 } | if s & 1 != 0 { mb } else { 0 }
        };
        // Left-multiply by U over row quadruples sharing the other bits;
        // row offsets are hoisted out of the inner column loop.
        for base in (0..dim).filter(|i| i & (ma | mb) == 0) {
            let off: [usize; 4] = std::array::from_fn(|s| sub(base, s) * dim);
            for j in 0..dim {
                let r: [C64; 4] = std::array::from_fn(|s| self.rho[off[s] + j]);
                for (s, row) in u.m.iter().enumerate() {
                    self.rho[off[s] + j] =
                        row[0] * r[0] + row[1] * r[1] + row[2] * r[2] + row[3] * r[3];
                }
            }
        }
        // Right-multiply by U†, the conjugated matrix hoisted out of the
        // row loop.
        let mut c = [[ZERO; 4]; 4];
        for (cs, us) in c.iter_mut().zip(u.m.iter()) {
            for (ct, ut) in cs.iter_mut().zip(us.iter()) {
                *ct = ut.conj();
            }
        }
        for row in self.rho.chunks_exact_mut(dim) {
            for base in (0..dim).filter(|j| j & (ma | mb) == 0) {
                let col: [usize; 4] = std::array::from_fn(|s| sub(base, s));
                let r: [C64; 4] = std::array::from_fn(|s| row[col[s]]);
                for s in 0..4 {
                    let mut acc = ZERO;
                    for (t, item) in r.iter().enumerate() {
                        acc += *item * c[s][t];
                    }
                    row[col[s]] = acc;
                }
            }
        }
    }

    /// Applies single-qubit Kraus operators to `slot`:
    /// `ρ ← Σ_k K ρ K†`.
    ///
    /// Allocates a fresh scratch; hot paths use
    /// [`Self::apply_local_kraus_with`].
    pub fn apply_local_kraus(&mut self, kraus: &[Mat2], slot: usize) {
        self.apply_local_kraus_with(kraus, slot, &mut Scratch::new());
    }

    /// Applies single-qubit Kraus operators to `slot` using `scratch`
    /// for the accumulator and per-term buffers — zero allocations once
    /// the scratch is warm, and bit-identical to the allocating form
    /// (same per-term `U ρ U†` then sum, in the same order).
    pub fn apply_local_kraus_with(&mut self, kraus: &[Mat2], slot: usize, scratch: &mut Scratch) {
        let mask = 1usize << self.bit(slot);
        let dim = self.dim();
        scratch.a.clear();
        scratch.a.resize(self.rho.len(), ZERO);
        for k in kraus {
            scratch.b.clear();
            scratch.b.extend_from_slice(&self.rho);
            apply_local_slice(&mut scratch.b, dim, mask, k);
            for (o, t) in scratch.a.iter_mut().zip(scratch.b.iter()) {
                *o += *t;
            }
        }
        std::mem::swap(&mut self.rho, &mut scratch.a);
    }

    /// Amplitude damping with decay probability `p` on `slot` — the
    /// closed form of `apply_local_kraus(&amplitude_damping_kraus(p))`,
    /// one O(d²) pass instead of eight (the registers' hot idle path).
    pub fn apply_amplitude_damping(&mut self, p: f64, slot: usize) {
        let p = p.clamp(0.0, 1.0);
        let amp = (1.0 - p).sqrt();
        let mask = 1usize << self.bit(slot);
        let dim = self.dim();
        for i in (0..dim).filter(|i| i & mask == 0) {
            for j in (0..dim).filter(|j| j & mask == 0) {
                let r11 = self.rho[(i | mask) * dim + (j | mask)];
                self.rho[i * dim + j] += r11.scale(p);
                self.rho[(i | mask) * dim + (j | mask)] = r11.scale(1.0 - p);
                self.rho[i * dim + (j | mask)] = self.rho[i * dim + (j | mask)].scale(amp);
                self.rho[(i | mask) * dim + j] = self.rho[(i | mask) * dim + j].scale(amp);
            }
        }
    }

    /// Phase damping (phase-flip channel, flip probability `p`) on
    /// `slot`: coherences to that qubit shrink by `1 − 2p`.
    pub fn apply_phase_damping(&mut self, p: f64, slot: usize) {
        let p = p.clamp(0.0, 0.5);
        let shrink = 1.0 - 2.0 * p;
        let mask = 1usize << self.bit(slot);
        let dim = self.dim();
        for i in 0..dim {
            for j in 0..dim {
                if (i & mask != 0) != (j & mask != 0) {
                    self.rho[i * dim + j] = self.rho[i * dim + j].scale(shrink);
                }
            }
        }
    }

    /// Probability of measuring `slot` as `|1⟩`.
    pub fn p1_of(&self, slot: usize) -> f64 {
        let mask = 1usize << self.bit(slot);
        let dim = self.dim();
        let p: f64 = (0..dim)
            .filter(|i| i & mask != 0)
            .map(|i| self.rho[i * dim + i].re)
            .sum();
        p.clamp(0.0, 1.0)
    }

    /// Projects `slot` to `outcome` and renormalizes; returns the
    /// pre-measurement probability of that outcome. A (numerically)
    /// impossible outcome collapses to the lowest basis state with the
    /// right bit, as in [`crate::twoqubit::TwoQubitState::project`].
    pub fn project(&mut self, slot: usize, outcome: u8) -> f64 {
        let mask = 1usize << self.bit(slot);
        let dim = self.dim();
        let keep = |i: usize| (i & mask != 0) == (outcome == 1);
        let p: f64 = (0..dim)
            .filter(|&i| keep(i))
            .map(|i| self.rho[i * dim + i].re)
            .sum::<f64>()
            .clamp(0.0, 1.0);
        if p <= f64::EPSILON {
            let idx = (0..dim).find(|&i| keep(i)).expect("half the basis matches");
            self.rho.fill(ZERO);
            self.rho[idx * dim + idx] = ONE;
            return 0.0;
        }
        for i in 0..dim {
            for j in 0..dim {
                let e = &mut self.rho[i * dim + j];
                *e = if keep(i) && keep(j) { *e / p } else { ZERO };
            }
        }
        p
    }

    /// Reduced single-qubit state of `slot` (partial trace over the
    /// rest).
    pub fn reduced(&self, slot: usize) -> DensityMatrix {
        let mask = 1usize << self.bit(slot);
        let dim = self.dim();
        let mut m = [[ZERO; 2]; 2];
        for i in (0..dim).filter(|i| i & mask == 0) {
            for (a, b) in [(0usize, 0usize), (0, 1), (1, 0), (1, 1)] {
                let row = i | if a == 1 { mask } else { 0 };
                let col = i | if b == 1 { mask } else { 0 };
                m[a][b] += self.rho[row * dim + col];
            }
        }
        DensityMatrix::from_matrix(Mat2::new(m[0][0], m[0][1], m[1][0], m[1][1]), 1e-6)
            .expect("partial trace is a valid state")
    }

    /// Removes `slot` from the register: returns its reduced state and
    /// shrinks `self` to the partial trace over that slot. Exact when the
    /// slot factors out — which always holds right after [`Self::project`]
    /// on it, the chip's split-on-measure path. Panics on a one-qubit
    /// register (extract the last qubit with [`Self::reduced`] instead).
    ///
    /// Allocates the shrunk matrix; hot paths use [`Self::extract_with`].
    pub fn extract(&mut self, slot: usize) -> DensityMatrix {
        self.extract_with(slot, &mut Scratch::new())
    }

    /// [`Self::extract`] building the shrunk matrix in `scratch` and
    /// swapping it in — allocation-free once the scratch is warm.
    pub fn extract_with(&mut self, slot: usize, scratch: &mut Scratch) -> DensityMatrix {
        assert!(self.qubits > 1, "cannot shrink a one-qubit register");
        let single = self.reduced(slot);
        let mask = 1usize << self.bit(slot);
        let low = mask - 1;
        let dim = self.dim();
        let rdim = dim / 2;
        // Remaining index -> full index with the slot bit forced to 0,
        // then sum the bit-0 and bit-1 diagonal blocks (partial trace).
        let expand = |r: usize| (r & low) | ((r & !low) << 1);
        scratch.a.clear();
        scratch.a.resize(rdim * rdim, ZERO);
        for (ri, r) in scratch.a.iter_mut().enumerate() {
            let (i, j) = (expand(ri / rdim), expand(ri % rdim));
            *r = self.rho[i * dim + j] + self.rho[(i | mask) * dim + (j | mask)];
        }
        std::mem::swap(&mut self.rho, &mut scratch.a);
        self.qubits -= 1;
        single
    }

    /// Trace of ρ (should be 1).
    pub fn trace(&self) -> f64 {
        let dim = self.dim();
        (0..dim).map(|i| self.rho[i * dim + i].re).sum()
    }

    /// Purity `Tr(ρ²)`; uses hermiticity, so O(d²).
    pub fn purity(&self) -> f64 {
        self.rho.iter().map(|e| e.norm_sqr()).sum()
    }
}

/// The PR-3 allocating kernels, frozen verbatim as a differential
/// reference (the idiom of the pair chip frozen in
/// `tests/chip_differential.rs`): the proptests below pin the
/// scratch-buffered / tightened kernels bit-identical to these on
/// random registers and channels.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    /// Original `apply_local`: filter-iterator row/column pair mixing.
    pub fn apply_local(state: &mut NQubitState, u: &Mat2, slot: usize) {
        let mask = 1usize << (state.qubits - 1 - slot);
        let dim = state.dim();
        for i in (0..dim).filter(|i| i & mask == 0) {
            for j in 0..dim {
                let r0 = state.rho[i * dim + j];
                let r1 = state.rho[(i | mask) * dim + j];
                state.rho[i * dim + j] = u.m00 * r0 + u.m01 * r1;
                state.rho[(i | mask) * dim + j] = u.m10 * r0 + u.m11 * r1;
            }
        }
        let (c00, c01, c10, c11) = (u.m00.conj(), u.m01.conj(), u.m10.conj(), u.m11.conj());
        for i in 0..dim {
            for j in (0..dim).filter(|j| j & mask == 0) {
                let r0 = state.rho[i * dim + j];
                let r1 = state.rho[i * dim + (j | mask)];
                state.rho[i * dim + j] = r0 * c00 + r1 * c01;
                state.rho[i * dim + (j | mask)] = r0 * c10 + r1 * c11;
            }
        }
    }

    /// Original `apply_two`: per-element offset recomputation, conj in
    /// the inner loop.
    pub fn apply_two(state: &mut NQubitState, u: &Mat4, slot_a: usize, slot_b: usize) {
        let (ma, mb) = (
            1usize << (state.qubits - 1 - slot_a),
            1usize << (state.qubits - 1 - slot_b),
        );
        let dim = state.dim();
        let sub = |base: usize, s: usize| -> usize {
            base | if s & 2 != 0 { ma } else { 0 } | if s & 1 != 0 { mb } else { 0 }
        };
        for base in (0..dim).filter(|i| i & (ma | mb) == 0) {
            for j in 0..dim {
                let r: [C64; 4] = std::array::from_fn(|s| state.rho[sub(base, s) * dim + j]);
                for (s, row) in u.m.iter().enumerate() {
                    state.rho[sub(base, s) * dim + j] =
                        row[0] * r[0] + row[1] * r[1] + row[2] * r[2] + row[3] * r[3];
                }
            }
        }
        for i in 0..dim {
            for base in (0..dim).filter(|j| j & (ma | mb) == 0) {
                let r: [C64; 4] = std::array::from_fn(|s| state.rho[i * dim + sub(base, s)]);
                for s in 0..4 {
                    let mut acc = ZERO;
                    for (t, item) in r.iter().enumerate() {
                        acc += *item * u.m[s][t].conj();
                    }
                    state.rho[i * dim + sub(base, s)] = acc;
                }
            }
        }
    }

    /// Original `tensor`: allocates the merged matrix.
    pub fn tensor(a: &NQubitState, b: &NQubitState) -> NQubitState {
        let k = a.qubits + b.qubits;
        let (da, db) = (a.dim(), b.dim());
        let dim = da * db;
        let mut rho = vec![ZERO; dim * dim];
        for ia in 0..da {
            for ja in 0..da {
                let f = a.rho[ia * da + ja];
                if f == ZERO {
                    continue;
                }
                for ib in 0..db {
                    for jb in 0..db {
                        rho[(ia * db + ib) * dim + (ja * db + jb)] = f * b.rho[ib * db + jb];
                    }
                }
            }
        }
        NQubitState { qubits: k, rho }
    }

    /// Original `extract` (factor-out): allocates the shrunk matrix.
    pub fn extract(state: &mut NQubitState, slot: usize) -> DensityMatrix {
        assert!(state.qubits > 1, "cannot shrink a one-qubit register");
        let single = state.reduced(slot);
        let mask = 1usize << (state.qubits - 1 - slot);
        let low = mask - 1;
        let dim = state.dim();
        let rdim = dim / 2;
        let expand = |r: usize| (r & low) | ((r & !low) << 1);
        let mut rho = vec![ZERO; rdim * rdim];
        for (ri, r) in rho.iter_mut().enumerate() {
            let (i, j) = (expand(ri / rdim), expand(ri % rdim));
            *r = state.rho[i * dim + j] + state.rho[(i | mask) * dim + (j | mask)];
        }
        state.qubits -= 1;
        state.rho = rho;
        single
    }

    /// Original `apply_local_kraus`: fresh accumulator plus one full
    /// register clone per Kraus term.
    pub fn apply_local_kraus(state: &mut NQubitState, kraus: &[Mat2], slot: usize) {
        let mut out = vec![ZERO; state.rho.len()];
        for k in kraus {
            let mut term = state.clone();
            apply_local(&mut term, k, slot);
            for (o, t) in out.iter_mut().zip(term.rho.iter()) {
                *o += *t;
            }
        }
        state.rho = out;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates::{rx, ry};
    use crate::noise::amplitude_damping_kraus;
    use crate::twoqubit::TwoQubitState;
    use std::f64::consts::{FRAC_PI_2, PI};

    const TOL: f64 = 1e-10;

    fn as_two_qubit(s: &NQubitState) -> Mat4 {
        assert_eq!(s.num_qubits(), 2);
        let mut m = Mat4::zero();
        for i in 0..4 {
            for j in 0..4 {
                m.m[i][j] = s.entry(i, j);
            }
        }
        m
    }

    #[test]
    fn two_slot_register_matches_twoqubit_state() {
        // The same circuit on TwoQubitState and on a 2-slot NQubitState
        // must agree entry-for-entry (shared slot convention).
        let mut pair = TwoQubitState::ground();
        pair.apply_local(&ry(FRAC_PI_2), 0);
        pair.apply_local(&rx(0.3), 1);
        pair.apply_unitary(&Mat4::cz());

        let mut reg = NQubitState::ground(2);
        reg.apply_local(&ry(FRAC_PI_2), 0);
        reg.apply_local(&rx(0.3), 1);
        reg.apply_two(&Mat4::cz(), 0, 1);

        assert!(as_two_qubit(&reg).approx_eq(pair.matrix(), TOL));
        assert!((reg.p1_of(0) - pair.p1_of(0)).abs() < TOL);
        assert!((reg.p1_of(1) - pair.p1_of(1)).abs() < TOL);
    }

    #[test]
    fn projection_matches_twoqubit_state() {
        let mut pair = TwoQubitState::ground();
        pair.apply_local(&rx(1.1), 0);
        pair.apply_local(&ry(0.6), 1);
        let mut reg = NQubitState::ground(2);
        reg.apply_local(&rx(1.1), 0);
        reg.apply_local(&ry(0.6), 1);
        let pp = pair.project(0, 1);
        let rp = reg.project(0, 1);
        assert!((pp - rp).abs() < TOL);
        assert!(as_two_qubit(&reg).approx_eq(pair.matrix(), TOL));
    }

    #[test]
    fn tensor_then_extract_round_trips() {
        let mut a = DensityMatrix::ground();
        a.apply_unitary(&rx(0.7));
        let b = DensityMatrix::excited();
        let mut reg = NQubitState::from_single(&a).tensor(&NQubitState::from_single(&b));
        assert_eq!(reg.num_qubits(), 2);
        assert!((reg.p1_of(1) - 1.0).abs() < TOL);
        let got_b = reg.extract(1);
        assert!(got_b.trace_distance(&b) < TOL);
        assert_eq!(reg.num_qubits(), 1);
        assert!(reg.reduced(0).trace_distance(&a) < TOL);
    }

    #[test]
    fn extract_middle_slot_preserves_order() {
        // |q0 q1 q2⟩ = |0 1 +x⟩; removing slot 1 leaves |0, +x⟩ in order.
        let mut plus = DensityMatrix::ground();
        plus.apply_unitary(&ry(FRAC_PI_2));
        let reg0 = NQubitState::from_single(&DensityMatrix::ground());
        let mut reg = reg0
            .tensor(&NQubitState::from_single(&DensityMatrix::excited()))
            .tensor(&NQubitState::from_single(&plus));
        let mid = reg.extract(1);
        assert!(mid.trace_distance(&DensityMatrix::excited()) < TOL);
        assert!(reg.reduced(0).trace_distance(&DensityMatrix::ground()) < TOL);
        assert!(reg.reduced(1).trace_distance(&plus) < TOL);
    }

    #[test]
    fn three_qubit_parity_check_circuit() {
        // d0 = |1⟩, d1 = |0⟩, ancilla in the middle slot order
        // (d0, a, d1): mY90(a); CZ(d0,a); CZ(d1,a); Y90(a) leaves the
        // ancilla holding the parity d0⊕d1 = 1.
        let mut reg = NQubitState::ground(3);
        reg.apply_local(&rx(PI), 0); // d0 -> |1>
        reg.apply_local(&ry(-FRAC_PI_2), 1);
        reg.apply_two(&Mat4::cz(), 0, 1);
        reg.apply_two(&Mat4::cz(), 2, 1);
        reg.apply_local(&ry(FRAC_PI_2), 1);
        assert!((reg.p1_of(1) - 1.0).abs() < 1e-9, "parity = 1");
        // Data qubits undisturbed.
        assert!((reg.p1_of(0) - 1.0).abs() < 1e-9);
        assert!(reg.p1_of(2) < 1e-9);
        // Measuring the ancilla factors it out exactly.
        reg.project(1, 1);
        let anc = reg.extract(1);
        assert!((anc.p1() - 1.0).abs() < 1e-9);
        assert!((reg.p1_of(0) - 1.0).abs() < 1e-9);
        assert!(reg.p1_of(1) < 1e-9);
    }

    #[test]
    fn local_kraus_on_register_matches_pairwise() {
        let mut pair = TwoQubitState::ground();
        pair.apply_local(&ry(FRAC_PI_2), 0);
        pair.apply_unitary(&Mat4::cz());
        pair.apply_local_kraus(&amplitude_damping_kraus(0.3), 1);
        let mut reg = NQubitState::ground(2);
        reg.apply_local(&ry(FRAC_PI_2), 0);
        reg.apply_two(&Mat4::cz(), 0, 1);
        reg.apply_local_kraus(&amplitude_damping_kraus(0.3), 1);
        assert!(as_two_qubit(&reg).approx_eq(pair.matrix(), TOL));
        assert!((reg.trace() - 1.0).abs() < TOL);
    }

    #[test]
    fn closed_form_damping_matches_generic_kraus() {
        use crate::noise::{amplitude_damping_kraus, phase_damping_kraus};
        let build = || {
            let mut reg = NQubitState::ground(3);
            reg.apply_local(&ry(FRAC_PI_2), 0);
            reg.apply_local(&rx(1.2), 1);
            reg.apply_two(&Mat4::cz(), 0, 2);
            reg
        };
        for slot in 0..3 {
            let mut fast = build();
            let mut slow = build();
            fast.apply_amplitude_damping(0.23, slot);
            slow.apply_local_kraus(&amplitude_damping_kraus(0.23), slot);
            fast.apply_phase_damping(0.11, slot);
            slow.apply_local_kraus(&phase_damping_kraus(0.11), slot);
            let dim = fast.dim();
            for i in 0..dim {
                for j in 0..dim {
                    assert!(
                        fast.entry(i, j).approx_eq(slow.entry(i, j), 1e-12),
                        "slot {slot} entry ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn impossible_projection_collapses_to_basis() {
        let mut reg = NQubitState::ground(2);
        assert_eq!(reg.project(0, 1), 0.0);
        assert!((reg.p1_of(0) - 1.0).abs() < TOL);
        assert!(reg.p1_of(1) < TOL);
        assert!((reg.trace() - 1.0).abs() < TOL);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn register_cap_is_enforced() {
        let a = NQubitState::ground(6);
        let b = NQubitState::ground(6);
        let _ = a.tensor(&b);
    }

    // ---- differential proptests: new kernels vs the frozen PR-3
    // reference, bit-for-bit on random registers and channels ----

    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A register of `qubits` filled with seeded pseudo-random entries.
    /// Bit-identity of the (linear) kernels doesn't need a physical
    /// state, and raw entries exercise every code path including the
    /// zero-skip in `tensor`.
    fn random_register(qubits: usize, seed: u64) -> NQubitState {
        let mut rng = StdRng::seed_from_u64(seed);
        let dim = 1usize << qubits;
        let rho = (0..dim * dim)
            .map(|i| {
                // Sprinkle exact zeros so tensor's skip branch is hit.
                if i % 7 == 0 {
                    ZERO
                } else {
                    C64::new(
                        rng.random_range(-1.0f64..1.0),
                        rng.random_range(-1.0f64..1.0),
                    )
                }
            })
            .collect();
        NQubitState { qubits, rho }
    }

    fn random_mat2(rng: &mut StdRng) -> Mat2 {
        let mut e = || {
            C64::new(
                rng.random_range(-1.0f64..1.0),
                rng.random_range(-1.0f64..1.0),
            )
        };
        Mat2::new(e(), e(), e(), e())
    }

    fn assert_bit_identical(a: &NQubitState, b: &NQubitState) {
        assert_eq!(a.qubits, b.qubits);
        for (i, (x, y)) in a.rho.iter().zip(b.rho.iter()).enumerate() {
            assert!(
                x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
                "entry {i} differs: {x:?} vs {y:?}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn tightened_apply_local_matches_reference(
            qubits in 1usize..=9,
            slot_frac in 0usize..64,
            seed in any::<u64>(),
        ) {
            let slot = slot_frac % qubits;
            let mut new = random_register(qubits, seed);
            let mut old = new.clone();
            let u = random_mat2(&mut StdRng::seed_from_u64(seed ^ 0xA5A5));
            new.apply_local(&u, slot);
            reference::apply_local(&mut old, &u, slot);
            assert_bit_identical(&new, &old);
        }

        #[test]
        fn tightened_apply_two_matches_reference(
            qubits in 2usize..=9,
            sa in 0usize..64,
            sb in 0usize..64,
            seed in any::<u64>(),
        ) {
            let slot_a = sa % qubits;
            let mut slot_b = sb % qubits;
            if slot_b == slot_a {
                slot_b = (slot_b + 1) % qubits;
            }
            let mut new = random_register(qubits, seed);
            let mut old = new.clone();
            new.apply_two(&Mat4::cz(), slot_a, slot_b);
            reference::apply_two(&mut old, &Mat4::cz(), slot_a, slot_b);
            assert_bit_identical(&new, &old);
        }

        #[test]
        fn scratch_tensor_matches_reference(
            qa in 1usize..=5,
            qb in 1usize..=4,
            seed in any::<u64>(),
        ) {
            let a = random_register(qa, seed);
            let b = random_register(qb, seed.wrapping_add(1));
            let expect = reference::tensor(&a, &b);
            // Via a reused (dirty) scratch, twice, to cover buffer reuse.
            let mut scratch = Scratch::new();
            let mut first = a.clone();
            first.tensor_with(&b, &mut scratch);
            assert_bit_identical(&first, &expect);
            let mut second = a.clone();
            second.tensor_with(&b, &mut scratch);
            assert_bit_identical(&second, &expect);
            // And via the allocating wrapper.
            assert_bit_identical(&a.tensor(&b), &expect);
        }

        #[test]
        fn scratch_extract_matches_reference(
            qubits in 2usize..=9,
            slot_frac in 0usize..64,
            seed in any::<u64>(),
        ) {
            let slot = slot_frac % qubits;
            // `extract` calls `reduced`, which validates the partial
            // trace as a physical state — so build a valid random state
            // from ground + seeded rotations instead of raw entries.
            let mut rng = StdRng::seed_from_u64(seed);
            let mut new = NQubitState::ground(qubits);
            for s in 0..qubits {
                new.apply_local(&random_unitaryish(&mut rng), s);
            }
            let mut old = new.clone();
            let mut scratch = Scratch::new();
            let dm_new = new.extract_with(slot, &mut scratch);
            let dm_old = reference::extract(&mut old, slot);
            assert_bit_identical(&new, &old);
            let (mn, mo) = (dm_new.matrix(), dm_old.matrix());
            prop_assert_eq!(mn.m00, mo.m00);
            prop_assert_eq!(mn.m01, mo.m01);
            prop_assert_eq!(mn.m10, mo.m10);
            prop_assert_eq!(mn.m11, mo.m11);
        }

        #[test]
        fn scratch_kraus_matches_reference(
            qubits in 1usize..=9,
            slot_frac in 0usize..64,
            terms in 1usize..=4,
            seed in any::<u64>(),
        ) {
            let slot = slot_frac % qubits;
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5A5A);
            let kraus: Vec<Mat2> = (0..terms).map(|_| random_mat2(&mut rng)).collect();
            let mut new = random_register(qubits, seed);
            let mut old = new.clone();
            let mut scratch = Scratch::new();
            new.apply_local_kraus_with(&kraus, slot, &mut scratch);
            reference::apply_local_kraus(&mut old, &kraus, slot);
            assert_bit_identical(&new, &old);
            // Second application through the now-dirty scratch.
            new.apply_local_kraus_with(&kraus, slot, &mut scratch);
            reference::apply_local_kraus(&mut old, &kraus, slot);
            assert_bit_identical(&new, &old);
        }
    }

    /// A rotation built from seeded angles — unitary, so the register
    /// stays a valid state for `reduced`/`extract`.
    fn random_unitaryish(rng: &mut StdRng) -> Mat2 {
        let theta: f64 = rng.random_range(-3.0f64..3.0);
        if rng.random_bool(0.5) {
            rx(theta)
        } else {
            ry(theta)
        }
    }
}
