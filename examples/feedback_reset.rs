//! Real-time feedback through QuMA: measurement-conditioned active reset.
//!
//! The paper motivates hardware measurement discrimination precisely so
//! that "the feedback control determines the next operations based on the
//! result of measurements" (§4.2.1) within the qubit's coherence time.
//! This example measures a superposition and applies a conditional X180
//! only when the outcome was |1⟩ — active reset — using the auxiliary
//! classical branch instructions.
//!
//! ```sh
//! cargo run --example feedback_reset
//! ```

use quma::core::prelude::*;

const ACTIVE_RESET: &str = "\
    mov r15, 40000
    QNopReg r15
    Pulse {q0}, X90        # randomize: 50/50 outcome
    Wait 4
    MPG {q0}, 300
    MD {q0}, r7            # result into r7 (exec stalls readers until valid)
    mov r8, 0
    beq r7, r8, Skip_Flip  # if |0>, nothing to do
    Pulse {q0}, X180       # else flip back to |0>
    Wait 4
    Skip_Flip:
    Wait 400
    MPG {q0}, 300
    MD {q0}, r9            # verify
    halt
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== Active reset by measurement feedback ==\n");
    // One calibrated session, one cheap reseed per trial: the batch-engine
    // pattern for repeated shots of the same program.
    let mut session = Session::new(DeviceConfig::default())?;
    let jitter = session.device().config().jitter_seed;
    let program = session.load_assembly(ACTIVE_RESET)?;
    let mut flips = 0u32;
    let trials = 20;
    let points: Vec<_> = (0..trials)
        .map(|seed| (program.clone(), ShotSeeds { chip: seed, jitter }))
        .collect();
    let reports = session.run_batch(&Batch::Sweep(points.into()), 1)?.shots;
    for (seed, report) in reports.iter().enumerate() {
        let first = report.registers[7];
        let second = report.registers[9];
        let acted = first == 1;
        flips += u32::from(acted);
        println!(
            "trial {seed:>2}: measured |{first}> -> {} -> verified |{second}>",
            if acted {
                "X180 applied "
            } else {
                "no correction"
            },
        );
        assert_eq!(second, 0, "active reset must always end in |0>");
    }
    println!("\n{flips}/{trials} trials needed a correction (expect ~half).");
    println!("Every trial verified |0> after feedback. OK.");
    Ok(())
}
