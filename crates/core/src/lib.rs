//! # quma-core — the QuMA control microarchitecture
//!
//! A full, cycle-exact reproduction of the quantum microarchitecture of
//! Fu et al., *"An Experimental Microarchitecture for a Superconducting
//! Quantum Processor"* (MICRO 2017), wired to a simulated transmon chip.
//!
//! The three mechanisms the paper contributes all live here:
//!
//! * **Codeword-based event control** — [`ctpg`] (codeword-triggered pulse
//!   generation with a fixed 80 ns delay) and [`mdu`] (hardware measurement
//!   discrimination);
//! * **Queue-based event timing control** — [`timing`] (the timing queue,
//!   event queues, and deterministic-domain timing controller of
//!   Tables 2–4);
//! * **Multilevel instruction decoding** — [`exec`] → [`microcode`] →
//!   [`qmb`] → [`uop_unit`], the four decode levels of Table 5.
//!
//! [`device::Device`] assembles the whole control box — structurally split
//! into the two timing domains by [`pipeline`] (frontend: fetch/decode;
//! backend: deterministic events and the analog path) — and runs QuMIS
//! programs end to end against the physics substrate in `quma-qsim`.
//! [`engine::Session`] layers a reusable batched shot engine on top:
//! calibrate once, load programs once, run shot batches (sequential or
//! parallel) with cheap per-shot resets and derived seeds.
//!
//! ```
//! use quma_core::prelude::*;
//!
//! let mut dev = Device::new(DeviceConfig::default()).unwrap();
//! let report = dev.run_assembly(
//!     "Wait 100\n\
//!      Pulse {q0}, X180\n\
//!      Wait 4\n\
//!      MPG {q0}, 300\n\
//!      MD {q0}, r7\n\
//!      halt",
//! ).unwrap();
//! assert_eq!(report.registers[7], 1); // the π pulse excited the qubit
//! ```

#![warn(missing_docs)]

pub mod collector;
pub mod config;
pub mod ctpg;
pub mod device;
pub mod digital_out;
pub mod engine;
pub mod event;
pub mod exec;
pub mod mdu;
pub mod microcode;
pub mod pipeline;
pub mod qmb;
pub mod timing;
pub mod trace;
pub mod uop_unit;

/// Convenient re-exports of the most-used items.
pub mod prelude {
    pub use crate::collector::DataCollector;
    pub use crate::config::{ChipProfile, DeviceConfig};
    pub use crate::ctpg::{Ctpg, PulseLibrary, PulseLibraryBuilder};
    pub use crate::device::{Device, DeviceError, MdRecord, RunReport, RunStats};
    pub use crate::digital_out::{DigitalOutputUnit, MarkerPulse, NUM_CHANNELS};
    pub use crate::engine::{
        derive_seed, resolve_threads, validate_axis_sets, Batch, BatchReport, LoadedProgram,
        SeedPlan, Session, SessionTracer, ShotSeeds, TemplatePoint,
    };
    pub use crate::event::{Event, FiredEvent};
    pub use crate::exec::{ExecStats, ExecutionController, StepOutcome};
    pub use crate::mdu::MeasurementDiscriminationUnit;
    pub use crate::microcode::{expand, MicroOp, MicroProgram, QControlStore, QubitSel};
    pub use crate::qmb::QuantumMicroinstructionBuffer;
    pub use crate::timing::{QueueId, QueueSnapshot, TimePoint, TimingControlUnit, TimingStats};
    pub use crate::trace::{Trace, TraceEvent, TraceKind, TraceLevel};
    pub use crate::uop_unit::{seq_z, Codeword, CodewordSeq, CodewordTrigger, MicroOpUnit};
}
