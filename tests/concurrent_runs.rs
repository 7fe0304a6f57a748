//! Determinism under concurrency: identical device configurations run on
//! parallel threads must produce bit-identical reports (the simulator owns
//! all of its state — no hidden globals, no ambient randomness).

use crossbeam::thread;
use quma::core::prelude::*;

const PROGRAM: &str = "\
    mov r15, 4000
    mov r1, 0
    mov r2, 5
    Loop:
    QNopReg r15
    Pulse {q0}, X90
    Wait 4
    Pulse {q0}, Y90
    Wait 4
    MPG {q0}, 300
    MD {q0}, r7
    addi r1, r1, 1
    bne r1, r2, Loop
    halt
";

type Signature = (Vec<(u64, usize, u16)>, Vec<(u64, u8)>, [i32; 16]);

fn run_one(seed: u64) -> Signature {
    let cfg = DeviceConfig {
        chip: ChipProfile::Paper,
        chip_seed: seed,
        max_jitter_cycles: 5,
        jitter_seed: seed ^ 0xABCD,
        ..DeviceConfig::default()
    };
    let mut dev = Device::new(cfg).expect("valid config");
    let report = dev.run_assembly(PROGRAM).expect("runs");
    (
        report.trace.pulse_timeline(),
        report.md_results.iter().map(|m| (m.td, m.bit)).collect(),
        report.registers,
    )
}

#[test]
fn parallel_devices_reproduce_serial_results() {
    let serial: Vec<_> = (0..8u64).map(run_one).collect();
    let parallel: Vec<_> = thread::scope(|s| {
        let handles: Vec<_> = (0..8u64)
            .map(|seed| s.spawn(move |_| run_one(seed)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("no panic"))
            .collect()
    })
    .expect("scope");
    assert_eq!(serial, parallel);
}

/// The full comparable surface of one shot: registers, every MD record
/// field (including the analog integration value `s`), and the pulse
/// timeline.
type ShotSignature = (Vec<(u64, usize, u16)>, Vec<(u64, u8, f64)>, [i32; 16]);

fn shot_signature(report: &RunReport) -> ShotSignature {
    (
        report.trace.pulse_timeline(),
        report
            .md_results
            .iter()
            .map(|m| (m.td, m.bit, m.s))
            .collect(),
        report.registers,
    )
}

fn batch_config() -> DeviceConfig {
    DeviceConfig {
        chip: ChipProfile::Paper,
        chip_seed: 0xBA7C,
        max_jitter_cycles: 5,
        jitter_seed: 0xBA7C ^ 0xABCD,
        ..DeviceConfig::default()
    }
}

#[test]
fn session_batch_matches_fresh_devices_bit_for_bit() {
    // The engine's determinism contract: shot i of an N-shot batch equals
    // a freshly built device configured with the derived seeds of shot i.
    let mut session = Session::new(batch_config()).expect("session");
    let loaded = session.load_assembly(PROGRAM).expect("assembles");
    let batch = session.run_shots(&loaded, 5).expect("batch runs");
    let plan = session.seed_plan();
    for (i, shot) in batch.shots.iter().enumerate() {
        let seeds = plan.shot(i as u64);
        let mut fresh = Device::new(DeviceConfig {
            chip_seed: seeds.chip,
            jitter_seed: seeds.jitter,
            ..batch_config()
        })
        .expect("device");
        let want = fresh.run_assembly(PROGRAM).expect("runs");
        assert_eq!(
            shot_signature(shot),
            shot_signature(&want),
            "shot {i} diverged from its fresh-device twin"
        );
    }
}

#[test]
fn parallel_batch_is_bit_identical_to_sequential() {
    let mut session = Session::new(batch_config()).expect("session");
    let loaded = session.load_assembly(PROGRAM).expect("assembles");
    let sequential = session.run_shots(&loaded, 8).expect("sequential batch");
    // A second session so the parallel run starts from the same pristine
    // device state (and shot counter) the sequential batch saw.
    let mut session = Session::new(batch_config()).expect("session");
    let parallel = session
        .run_batch(
            &Batch::Shots {
                program: loaded,
                shots: 8,
            },
            4,
        )
        .expect("parallel batch");
    assert_eq!(sequential.len(), parallel.len());
    for (i, (a, b)) in sequential
        .shots
        .iter()
        .zip(parallel.shots.iter())
        .enumerate()
    {
        assert_eq!(
            shot_signature(a),
            shot_signature(b),
            "shot {i} differs between sequential and parallel execution"
        );
    }
}

#[test]
fn different_seeds_differ_but_same_seed_agrees() {
    let a = run_one(1);
    let b = run_one(1);
    assert_eq!(a, b, "same seed must agree");
    // With a relaxing chip and X90·Y90 preparation, different seeds should
    // eventually produce different measurement records.
    let differs = (2..12u64).any(|s| run_one(s).1 != a.1);
    assert!(differs, "distinct seeds should yield distinct outcomes");
}
