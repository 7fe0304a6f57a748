//! Acceptance tests for the repetition-code QEC workload: feedback
//! corrections through the full pipeline recover from injected errors,
//! deterministically, sequentially and in parallel.

use quma::compiler::prelude::{InjectedX, RepetitionCode};
use quma::core::prelude::{Batch, ChipProfile, Session};
use quma::experiments::prelude::{run_qec, run_qec_injected, QecConfig};

fn base() -> QecConfig {
    QecConfig {
        shots: 4,
        ..QecConfig::default()
    }
}

#[test]
fn distance3_recovers_from_every_single_injected_error() {
    // Any single X, on any data qubit, in any round, must decode to a
    // clean logical readout at noise-free settings — logical error rate
    // exactly 0.
    for round in 0..2 {
        for data in 0..3 {
            let result = run_qec_injected(&base(), &[InjectedX { round, data }]).expect("QEC runs");
            assert_eq!(
                result.logical_errors, 0,
                "X on d{data} in round {round}: majority bits {:?}",
                result.majority_bits
            );
        }
    }
}

#[test]
fn recovery_is_deterministic_under_a_fixed_seed() {
    let injection = [InjectedX { round: 0, data: 1 }];
    let a = run_qec_injected(&base(), &injection).expect("QEC runs");
    let b = run_qec_injected(&base(), &injection).expect("QEC runs");
    assert_eq!(a.majority_bits, b.majority_bits);
    assert_eq!(a.logical_errors, b.logical_errors);
    assert_eq!(a.logical_errors, 0);
}

#[test]
fn parallel_batch_matches_sequential_shot_for_shot() {
    let injection = [InjectedX { round: 1, data: 0 }];
    let sequential = run_qec_injected(&base(), &injection).expect("QEC runs");
    let parallel = run_qec_injected(
        &QecConfig {
            threads: 3,
            ..base()
        },
        &injection,
    )
    .expect("QEC runs");
    assert_eq!(sequential.majority_bits, parallel.majority_bits);
    assert_eq!(parallel.logical_errors, 0);
}

#[test]
fn parallel_registers_match_sequential_bit_for_bit() {
    // Beyond the majority vote: every register and MD record of every
    // shot must agree between the sequential and sharded batch paths.
    let code = {
        let mut c = RepetitionCode::new(3, 2);
        c.injected_x.push(InjectedX { round: 0, data: 2 });
        c
    };
    let program = code.compile();
    let cfg = quma::experiments::prelude::QecConfig::default();
    let dev_cfg = quma::experiments::qec::device_config(&cfg);
    let mut seq = Session::new(dev_cfg.clone()).expect("config valid");
    let loaded = seq.load(&program);
    let a = seq.run_shots(&loaded, 6).expect("sequential batch");
    let mut par = Session::new(dev_cfg).expect("config valid");
    let b = par
        .run_batch(
            &Batch::Shots {
                program: loaded,
                shots: 6,
            },
            3,
        )
        .expect("parallel batch");
    for (i, (x, y)) in a.shots.iter().zip(b.shots.iter()).enumerate() {
        assert_eq!(x.registers, y.registers, "shot {i}");
        assert_eq!(x.md_results, y.md_results, "shot {i}");
    }
}

#[test]
fn distance5_recovers_from_double_errors_across_rounds() {
    // d=5 corrects up to two same-round errors; spread across rounds the
    // per-round decoder handles each in turn.
    let cfg = QecConfig {
        distance: 5,
        rounds: 2,
        shots: 1,
        ..QecConfig::default()
    };
    let result = run_qec_injected(
        &cfg,
        &[
            InjectedX { round: 0, data: 0 },
            InjectedX { round: 0, data: 3 },
            InjectedX { round: 1, data: 2 },
        ],
    )
    .expect("QEC runs");
    assert_eq!(
        result.logical_errors, 0,
        "majority bits {:?}",
        result.majority_bits
    );
}

#[test]
fn logical_one_is_preserved_through_correction() {
    let cfg = QecConfig {
        logical_one: true,
        ..base()
    };
    let result = run_qec_injected(&cfg, &[InjectedX { round: 0, data: 2 }]).expect("QEC runs");
    assert_eq!(result.logical_errors, 0);
    assert!(result.majority_bits.iter().all(|&b| b == 1));
}

#[test]
fn noisy_chip_qec_runs_and_reports_a_rate() {
    // The paper-profile chip adds T1/T2 and readout noise; the driver
    // must still run and report a sane (deterministic) rate.
    let cfg = QecConfig {
        shots: 8,
        profile: ChipProfile::Paper,
        error_rate: 0.1,
        ..QecConfig::default()
    };
    let a = run_qec(&cfg).expect("QEC runs");
    let b = run_qec(&cfg).expect("QEC runs");
    assert!(a.logical_error_rate >= 0.0 && a.logical_error_rate <= 1.0);
    assert_eq!(a.majority_bits, b.majority_bits, "noisy runs are seeded");
}

#[test]
fn cz_uop_id_matches_the_backend_dispatch_constant() {
    // The compiler hardcodes the CZ µ-op id (it cannot depend on
    // quma-core); this pins the two constants together.
    assert_eq!(
        quma::compiler::gateset::UOP_CZ_ID,
        quma::core::microcode::UOP_CZ
    );
}
