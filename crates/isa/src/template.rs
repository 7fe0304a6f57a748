//! Patchable program templates: named immediate slots over a [`Program`].
//!
//! Real control stacks do not re-assemble a sweep: they upload one binary
//! and rewrite immediate fields per sweep point (the "upload once, patch
//! per point" discipline). This module gives the QuMA binary the same
//! capability. A [`PatchSlot`] names one immediate field of one
//! instruction — a `Wait` interval, a `mov` immediate, an `MPG` duration,
//! or the µ-op of a `Pulse` word — by instruction index *and* by offset
//! into the encoded 32-bit image, so both the decoded program
//! ([`Program::patch`]) and a raw binary ([`Program::patch_words`]) can be
//! rewritten in O(1) per slot with full field-width validation.
//!
//! A [`ProgramTemplate`] bundles a slotted program with its sweep-axis
//! metadata (one axis per distinct slot name), which is what the compiler
//! emits from a parameterized kernel and what the engine layer loads for
//! patch-per-point sweeps.

use crate::instruction::Instruction;
use crate::program::Program;
use std::fmt;

/// Which immediate field of an instruction a patch slot rewrites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatchField {
    /// The 26-bit unsigned interval of a `Wait`.
    WaitInterval,
    /// The 20-bit signed immediate of a `mov`.
    MovImm,
    /// The 10-bit unsigned duration of an `MPG`.
    MpgDuration,
    /// The 6-bit µ-op id of one word of a `Pulse` chain (`op` is the
    /// pair's index within the horizontal chain).
    PulseUop {
        /// Index of the `(QAddr, uOp)` pair inside the `Pulse`.
        op: usize,
    },
}

impl PatchField {
    /// Field width in bits (the binary encoding of `encode.rs`).
    pub fn bits(self) -> u8 {
        match self {
            PatchField::WaitInterval => 26,
            PatchField::MovImm => 20,
            PatchField::MpgDuration => 10,
            PatchField::PulseUop { .. } => 6,
        }
    }

    /// True when the field holds a signed immediate.
    pub fn signed(self) -> bool {
        matches!(self, PatchField::MovImm)
    }

    /// Validates that `value` fits the field.
    pub(crate) fn check_value(self, name: &str, value: i64) -> Result<(), PatchError> {
        let bits = self.bits();
        let ok = if self.signed() {
            let min = -(1i64 << (bits - 1));
            let max = (1i64 << (bits - 1)) - 1;
            (min..=max).contains(&value)
        } else {
            (0..(1i64 << bits)).contains(&value)
        };
        if ok {
            Ok(())
        } else {
            Err(PatchError::Overflow {
                name: name.to_string(),
                value,
                bits,
            })
        }
    }

    /// True when the instruction carries this field.
    pub(crate) fn matches_insn(self, insn: &Instruction) -> bool {
        match (self, insn) {
            (PatchField::WaitInterval, Instruction::Wait { .. }) => true,
            (PatchField::MovImm, Instruction::Mov { .. }) => true,
            (PatchField::MpgDuration, Instruction::Mpg { .. }) => true,
            (PatchField::PulseUop { op }, Instruction::Pulse { ops }) => op < ops.len(),
            _ => false,
        }
    }

    /// The opcode the field's instruction encodes to (for verifying a
    /// word-level patch before splicing).
    pub(crate) fn opcode(self) -> u32 {
        match self {
            PatchField::WaitInterval => crate::encode::op::WAIT,
            PatchField::MovImm => crate::encode::op::MOV,
            PatchField::MpgDuration => crate::encode::op::MPG,
            PatchField::PulseUop { .. } => crate::encode::op::PULSE,
        }
    }

    /// Re-encodes only this field of an already-encoded word.
    pub(crate) fn splice_word(self, word: u32, value: i64) -> u32 {
        match self {
            PatchField::WaitInterval => (word & !0x3FF_FFFF) | (value as u32 & 0x3FF_FFFF),
            PatchField::MovImm => (word & !0xF_FFFF) | (value as u32 & 0xF_FFFF),
            PatchField::MpgDuration => (word & !0x3FF) | (value as u32 & 0x3FF),
            PatchField::PulseUop { .. } => (word & !(0x3F << 3)) | ((value as u32 & 0x3F) << 3),
        }
    }
}

impl fmt::Display for PatchField {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PatchField::WaitInterval => write!(f, "Wait interval"),
            PatchField::MovImm => write!(f, "mov immediate"),
            PatchField::MpgDuration => write!(f, "MPG duration"),
            PatchField::PulseUop { op } => write!(f, "Pulse µ-op #{op}"),
        }
    }
}

/// A patch slot *request*: where a slot should be attached and what it
/// is called, before any program has validated it. This is the portable
/// form — the pool's template cache keys on it and the journal persists
/// it — whereas [`PatchSlot`] is the validated, offset-resolved site a
/// [`Program`] actually carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotSpec {
    /// The axis name sweeps patch by.
    pub name: String,
    /// Instruction index the slot rewrites.
    pub insn_index: u32,
    /// Which immediate field of that instruction.
    pub field: PatchField,
}

impl SlotSpec {
    /// A slot spec (builder-style sugar).
    pub fn new(name: impl Into<String>, insn_index: u32, field: PatchField) -> Self {
        Self {
            name: name.into(),
            insn_index,
            field,
        }
    }
}

impl fmt::Display for SlotSpec {
    /// The canonical rendering — stable because cache keys and journal
    /// records embed it.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}:{:?}", self.name, self.insn_index, self.field)
    }
}

/// One named patch site: an immediate field of one instruction,
/// addressable both by instruction index and by word offset into the
/// encoded binary image. Several slots may share a name — patching the
/// name rewrites every site (e.g. the two edge waits of an echo kernel).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatchSlot {
    /// Slot name (the sweep parameter, e.g. `"tau"`).
    pub name: String,
    /// Index of the instruction in [`Program::instructions`].
    pub insn_index: u32,
    /// Offset of the touched word in the encoded binary image (horizontal
    /// `Pulse` chains occupy one word per pair, so this is not always the
    /// instruction index).
    pub word_offset: u32,
    /// Which field of the instruction the slot rewrites.
    pub field: PatchField,
}

/// Errors from registering or applying patches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PatchError {
    /// No slot with the given name.
    UnknownSlot(String),
    /// The value does not fit the slot's field; carries the slot name, the
    /// value, and the field width in bits.
    Overflow {
        /// Slot name.
        name: String,
        /// The rejected value.
        value: i64,
        /// Field width in bits.
        bits: u8,
    },
    /// The slot's instruction (or encoded word) is not of the kind the
    /// field expects.
    FieldMismatch {
        /// Slot name.
        name: String,
        /// Instruction index the slot points at.
        insn_index: u32,
    },
    /// A slot registration pointed past the end of the program, or a
    /// word-level patch past the end of the image.
    OutOfRange {
        /// The offending index.
        index: u32,
        /// Program (or image) length.
        len: usize,
    },
}

impl fmt::Display for PatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PatchError::UnknownSlot(name) => write!(f, "no patch slot named '{name}'"),
            PatchError::Overflow { name, value, bits } => {
                write!(
                    f,
                    "value {value} for slot '{name}' does not fit {bits} bits"
                )
            }
            PatchError::FieldMismatch { name, insn_index } => write!(
                f,
                "slot '{name}' points at instruction {insn_index} of the wrong kind"
            ),
            PatchError::OutOfRange { index, len } => {
                write!(f, "slot index {index} out of range (length {len})")
            }
        }
    }
}

impl std::error::Error for PatchError {}

/// Metadata for one sweep axis of a template: a distinct slot name, the
/// field kind of its first site, and how many sites it patches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepAxisInfo {
    /// The parameter name.
    pub name: String,
    /// Field kind of the axis' first site.
    pub field: PatchField,
    /// Number of patch sites sharing the name.
    pub sites: u32,
}

/// A compile-once, patch-per-point program: the slotted [`Program`] plus
/// sweep-axis metadata derived from its slot table.
///
/// Templates are immutable; sweeps patch *working copies* (see the engine
/// layer's `Batch::Template`), so one template serves any number of
/// concurrent workers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramTemplate {
    program: Program,
    axes: Vec<SweepAxisInfo>,
}

impl ProgramTemplate {
    /// Wraps a slotted program, deriving one axis per distinct slot name
    /// (in first-appearance order).
    pub fn new(program: Program) -> Self {
        let mut axes: Vec<SweepAxisInfo> = Vec::new();
        for slot in program.slots() {
            match axes.iter_mut().find(|a| a.name == slot.name) {
                Some(a) => a.sites += 1,
                None => axes.push(SweepAxisInfo {
                    name: slot.name.clone(),
                    field: slot.field,
                    sites: 1,
                }),
            }
        }
        Self { program, axes }
    }

    /// The underlying slotted program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Releases the program.
    pub fn into_program(self) -> Program {
        self.program
    }

    /// The sweep axes (one per distinct slot name).
    pub fn axes(&self) -> &[SweepAxisInfo] {
        &self.axes
    }

    /// Looks up an axis by name.
    pub fn axis(&self, name: &str) -> Option<&SweepAxisInfo> {
        self.axes.iter().find(|a| a.name == name)
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.program.len()
    }

    /// True when the program is empty.
    pub fn is_empty(&self) -> bool {
        self.program.is_empty()
    }

    /// A bound instance: clones the program once and applies every
    /// `(name, value)` pair.
    pub fn instantiate(&self, bindings: &[(&str, i64)]) -> Result<Program, PatchError> {
        let mut program = self.program.clone();
        for &(name, value) in bindings {
            program.patch(name, value)?;
        }
        Ok(program)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Assembler;

    fn slotted() -> Program {
        let mut prog = Assembler::new()
            .assemble(
                "mov r15, 40000\n\
                 QNopReg r15\n\
                 Pulse {q0}, X90\n\
                 Wait 4\n\
                 Wait 800\n\
                 MPG {q0}, 300\n\
                 MD {q0}\n\
                 halt\n",
            )
            .unwrap();
        prog.add_slot("init", 0, PatchField::MovImm).unwrap();
        prog.add_slot("gate", 2, PatchField::PulseUop { op: 0 })
            .unwrap();
        prog.add_slot("tau", 4, PatchField::WaitInterval).unwrap();
        prog.add_slot("window", 5, PatchField::MpgDuration).unwrap();
        prog
    }

    #[test]
    fn template_derives_axes_from_slots() {
        let t = ProgramTemplate::new(slotted());
        assert_eq!(t.axes().len(), 4);
        let tau = t.axis("tau").unwrap();
        assert_eq!(tau.field, PatchField::WaitInterval);
        assert_eq!(tau.sites, 1);
        assert!(t.axis("missing").is_none());
    }

    #[test]
    fn instantiate_patches_a_fresh_copy() {
        let t = ProgramTemplate::new(slotted());
        let bound = t.instantiate(&[("tau", 1600), ("window", 80)]).unwrap();
        assert!(matches!(
            bound.instructions()[4],
            Instruction::Wait { interval: 1600 }
        ));
        assert!(matches!(
            bound.instructions()[5],
            Instruction::Mpg { duration: 80, .. }
        ));
        // The template itself is untouched.
        assert!(matches!(
            t.program().instructions()[4],
            Instruction::Wait { interval: 800 }
        ));
    }

    #[test]
    fn field_widths_are_enforced() {
        let t = ProgramTemplate::new(slotted());
        let err = t.instantiate(&[("window", 1024)]).unwrap_err();
        assert_eq!(
            err,
            PatchError::Overflow {
                name: "window".into(),
                value: 1024,
                bits: 10
            }
        );
        let err = t.instantiate(&[("tau", -1)]).unwrap_err();
        assert!(matches!(err, PatchError::Overflow { bits: 26, .. }));
        // mov is signed: negative fits, huge does not.
        assert!(t.instantiate(&[("init", -40000)]).is_ok());
        assert!(t.instantiate(&[("init", 600_000)]).is_err());
    }

    #[test]
    fn display_forms() {
        assert_eq!(PatchField::WaitInterval.to_string(), "Wait interval");
        assert_eq!(
            PatchError::UnknownSlot("x".into()).to_string(),
            "no patch slot named 'x'"
        );
        assert!(PatchError::Overflow {
            name: "tau".into(),
            value: 99,
            bits: 4
        }
        .to_string()
        .contains("4 bits"));
    }
}
