//! Acceptance tests for the stabilizer QEC fast path end-to-end: the
//! distance-7 repetition code — beyond the exact register chip's reach —
//! decodes every single injected error through the pooled scheduler, the
//! three execution paths (sequential batch, sharded parallel batch,
//! device pool) stay bit-identical, and a thousand-round shot runs in
//! test time. Mirrors `qec_repetition.rs`, which pins the same contracts
//! for the exact chip at distance ≤ 5.

use quma::compiler::prelude::{InjectedX, RepetitionCode};
use quma::core::prelude::{Batch, ChipProfile, Session};
use quma::experiments::prelude::{run_qec_injected, QecConfig, QecInjected};
use quma::experiments::qec::device_config;
use quma::pool::prelude::{DevicePool, Job, PoolConfig};
use std::sync::Arc;

fn stab_cfg() -> QecConfig {
    QecConfig {
        distance: 7,
        rounds: 2,
        shots: 2,
        profile: ChipProfile::Stabilizer,
        ..QecConfig::default()
    }
}

#[test]
fn distance7_recovers_from_every_single_error_through_the_pool() {
    // All 14 single-X jobs (7 data qubits × 2 rounds) go through the
    // multi-client pool at once; every one must decode to a clean logical
    // readout — logical error rate exactly 0.
    let cfg = stab_cfg();
    let pool = DevicePool::new(PoolConfig::new(device_config(&cfg)).with_workers(2)).expect("pool");
    let mut handles = Vec::new();
    for round in 0..2 {
        for data in 0..7 {
            let exp = QecInjected {
                injections: vec![InjectedX { round, data }],
            };
            let handle = pool.submit_experiment(exp, cfg.clone()).expect("submits");
            handles.push((round, data, handle));
        }
    }
    for (round, data, handle) in handles {
        let result = handle.wait().expect("job completes");
        assert_eq!(
            result.logical_errors, 0,
            "X on d{data} in round {round}: majority bits {:?}",
            result.majority_bits
        );
    }
}

#[test]
fn pooled_result_matches_the_direct_harness() {
    let cfg = stab_cfg();
    let direct = run_qec_injected(&cfg, &[InjectedX { round: 1, data: 2 }]).expect("runs");
    let pool = DevicePool::new(PoolConfig::new(device_config(&cfg)).with_workers(1)).expect("pool");
    let pooled = pool
        .submit_experiment(
            QecInjected {
                injections: vec![InjectedX { round: 1, data: 2 }],
            },
            cfg,
        )
        .expect("submits")
        .wait()
        .expect("job completes");
    assert_eq!(direct.majority_bits, pooled.majority_bits);
    assert_eq!(direct.logical_errors, pooled.logical_errors);
}

#[test]
fn stabilizer_sequential_parallel_and_pooled_agree_bit_for_bit() {
    // Beyond the majority vote: every register and MD record of every
    // shot must agree across the sequential batch, the sharded parallel
    // batch, and the pooled path on the stabilizer backend.
    let code = {
        let mut c = RepetitionCode::new(7, 2);
        c.injected_x.push(InjectedX { round: 0, data: 4 });
        c
    };
    let program = Arc::new(code.compile());
    let dev_cfg = device_config(&stab_cfg());
    let mut seq = Session::new(dev_cfg.clone()).expect("config valid");
    let loaded = seq.load(&program);
    let a = seq.run_shots(&loaded, 6).expect("sequential batch");
    let mut par = Session::new(dev_cfg.clone()).expect("config valid");
    let b = par
        .run_batch(
            &Batch::Shots {
                program: loaded,
                shots: 6,
            },
            3,
        )
        .expect("parallel batch");
    let pool = DevicePool::new(PoolConfig::new(dev_cfg).with_workers(1)).expect("pool");
    let pooled = pool
        .submit(Job::shots(program, 6))
        .expect("submits")
        .wait()
        .expect("job completes")
        .into_batch()
        .expect("batch output");
    for (i, ((x, y), z)) in a
        .shots
        .iter()
        .zip(b.shots.iter())
        .zip(pooled.shots.iter())
        .enumerate()
    {
        assert_eq!(x.registers, y.registers, "shot {i} parallel registers");
        assert_eq!(x.md_results, y.md_results, "shot {i} parallel records");
        assert_eq!(x.registers, z.registers, "shot {i} pooled registers");
        assert_eq!(x.md_results, z.md_results, "shot {i} pooled records");
    }
}

#[test]
fn thousand_round_distance7_shot_decodes_a_midstream_error() {
    // The grid extension the fast path exists for: thousands of syndrome
    // rounds at a distance the exact chip cannot represent, with an error
    // injected mid-stream, still decoding clean in test time.
    let cfg = QecConfig {
        rounds: 1000,
        shots: 1,
        ..stab_cfg()
    };
    let result = run_qec_injected(
        &cfg,
        &[InjectedX {
            round: 500,
            data: 3,
        }],
    )
    .expect("runs");
    assert_eq!(
        result.logical_errors, 0,
        "majority bits {:?}",
        result.majority_bits
    );
}
