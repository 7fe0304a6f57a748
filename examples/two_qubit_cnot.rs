//! Two-qubit control: the paper's Algorithm 2 CNOT microprogram
//! (`CNOT = Ry(π/2)_t · CZ · Ry(−π/2)_t`) executed through the full
//! codeword pipeline — microwave pulses on the target plus a CZ flux
//! pulse on the coupled pair — and used to create a Bell state.
//!
//! The paper defines this decomposition but validates only single-qubit
//! control; this example goes one step further.
//!
//! ```sh
//! cargo run --example two_qubit_cnot
//! ```

use quma::core::prelude::*;
use quma::isa::prelude::{Assembler, GateId};

fn assembler() -> Assembler {
    let mut asm = Assembler::new();
    asm.register_gate("CNOT", GateId(quma::core::microcode::GATE_CNOT));
    asm.register_gate("CZ", GateId(quma::core::microcode::GATE_CZ));
    asm
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== CNOT via Algorithm 2 through the full pipeline ==\n");

    // One calibrated two-qubit session drives the whole example; each run
    // only reseeds instead of paying a device construction.
    let mut session = Session::new(DeviceConfig {
        num_qubits: 2,
        ..DeviceConfig::default()
    })?;
    let jitter = session.device().config().jitter_seed;

    // Truth table.
    for control in [0u8, 1u8] {
        let src = format!(
            "mov r15, 1000\nQNopReg r15\n{}Apply CNOT, {{q0, q1}}\nWait 40\n\
             MPG {{q0, q1}}, 300\nMD {{q0}}, r7\nMD {{q1}}, r9\nhalt\n",
            if control == 1 {
                "Pulse {q1}, X180\nWait 4\n"
            } else {
                ""
            }
        );
        let prog = session.load(&assembler().assemble(&src)?);
        let seeds = ShotSeeds {
            chip: 5 + u64::from(control),
            jitter,
        };
        let report = session
            .run_batch(&Batch::Sweep([(prog, seeds)].into()), 1)?
            .shots
            .remove(0);
        println!(
            "control |{control}>: target measured |{}>, control measured |{}>",
            report.registers[7], report.registers[9]
        );
        if control == 0 {
            println!("\ndecode of Apply CNOT (Algorithm 2):");
            for e in report.trace.events() {
                match e.kind {
                    TraceKind::PulseStart { qubit, codeword } => {
                        println!("  TD = {:>5}: pulse cw{codeword} on q{qubit}", e.td)
                    }
                    TraceKind::FluxPulse { qubits } => {
                        println!("  TD = {:>5}: CZ flux pulse on {qubits}", e.td)
                    }
                    _ => {}
                }
            }
            println!();
        }
    }

    // Bell state statistics.
    println!("\n== Bell pair (Y90 on control, then CNOT) ==");
    let src = "\
        mov r15, 1000\nQNopReg r15\nPulse {q1}, Y90\nWait 4\n\
        Apply CNOT, {q0, q1}\nWait 40\n\
        MPG {q0, q1}, 300\nMD {q0}, r7\nMD {q1}, r9\nhalt\n";
    let prog = session.load(&assembler().assemble(src)?);
    let mut histogram = [0u32; 4];
    let shots = 50;
    let points: Vec<_> = (0..shots)
        .map(|seed| {
            let chip = 100 + seed;
            (prog.clone(), ShotSeeds { chip, jitter })
        })
        .collect();
    for report in session.run_batch(&Batch::Sweep(points.into()), 1)?.shots {
        let key = (report.registers[7] * 2 + report.registers[9]) as usize;
        histogram[key] += 1;
    }
    println!("outcome histogram over {shots} shots:");
    for (i, label) in ["|00>", "|01>", "|10>", "|11>"].iter().enumerate() {
        println!("  {label}: {:>3}", histogram[i]);
    }
    assert_eq!(
        histogram[1] + histogram[2],
        0,
        "Bell pair never anticorrelates"
    );
    println!("\nOK: outcomes are perfectly correlated — entanglement through");
    println!("the complete codeword-triggered control stack.");
    Ok(())
}
