//! QEC cycle benchmarks: syndrome-round latency and shot throughput of
//! the repetition-code workload versus code distance.
//!
//! The interesting costs are (a) one full syndrome round through the
//! feedback path — measurement, MDU write-back, branch-tree decode,
//! conditional corrections — and (b) aggregate shots/second of the QEC
//! program on the batch engine, sequentially and sharded.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use quma_compiler::prelude::{InjectedX, RepetitionCode};
use quma_core::prelude::{Batch, ChipProfile, DeviceConfig, Session, TraceLevel};
use std::hint::black_box;

fn device_config(distance: usize) -> DeviceConfig {
    DeviceConfig {
        num_qubits: 2 * distance - 1,
        trace: TraceLevel::Off,
        ..DeviceConfig::default()
    }
}

fn stabilizer_config(distance: usize) -> DeviceConfig {
    DeviceConfig {
        chip: ChipProfile::Stabilizer,
        ..device_config(distance)
    }
}

/// One shot of a `rounds`-round distance-`d` code with one injected
/// error (so the decoder's correction branches actually execute).
fn code(distance: usize, rounds: usize) -> RepetitionCode {
    let mut c = RepetitionCode::new(distance, rounds);
    c.injected_x.push(InjectedX { round: 0, data: 1 });
    c
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("qec_cycle");
    g.sample_size(10);

    // Syndrome-round latency: one shot, 1 vs 3 rounds, per distance.
    for distance in [3usize, 5] {
        let session_cfg = device_config(distance);
        for rounds in [1usize, 3] {
            let program = code(distance, rounds).compile();
            let mut session = Session::new(session_cfg.clone()).expect("session");
            let loaded = session.load(&program);
            g.bench_with_input(
                BenchmarkId::new(format!("shot_d{distance}"), format!("r{rounds}")),
                &rounds,
                |b, _| b.iter(|| black_box(session.run_shots(&loaded, 1).expect("shot runs"))),
            );
        }
    }

    // Batched throughput: 16 shots per iteration, sequential vs sharded.
    for distance in [3usize, 5] {
        let program = code(distance, 2).compile();
        let mut session = Session::new(device_config(distance)).expect("session");
        let loaded = session.load(&program);
        g.bench_function(BenchmarkId::new("batch16_d", distance), |b| {
            b.iter(|| black_box(session.run_shots(&loaded, 16).expect("batch")))
        });
        let mut session = Session::new(device_config(distance)).expect("session");
        let batch = Batch::Shots {
            program: session.load(&program),
            shots: 16,
        };
        let threads = std::thread::available_parallelism().map_or(4, |n| n.get().min(8));
        g.bench_function(BenchmarkId::new("batch16_parallel_d", distance), |b| {
            b.iter(|| black_box(session.run_batch(&batch, threads).expect("parallel batch")))
        });
    }
    g.finish();
}

/// The stabilizer fast path at distances the exact chip cannot touch
/// (`2d − 1 > 10` qubits past d = 5): per-shot latency across the
/// extended distance grid, plus the thousand-round point that motivates
/// a polynomial-time backend in the first place.
fn bench_stabilizer(c: &mut Criterion) {
    let mut g = c.benchmark_group("qec_cycle_stabilizer");

    for distance in [7usize, 11, 15, 25] {
        let program = code(distance, 1).compile();
        let mut session = Session::new(stabilizer_config(distance)).expect("session");
        let loaded = session.load(&program);
        g.bench_with_input(
            BenchmarkId::new(format!("shot_d{distance}"), "r1"),
            &distance,
            |b, _| b.iter(|| black_box(session.run_shots(&loaded, 1).expect("shot runs"))),
        );
    }

    let program = code(7, 1000).compile();
    let mut session = Session::new(stabilizer_config(7)).expect("session");
    let loaded = session.load(&program);
    g.bench_function("long_d7_r1000", |b| {
        b.iter(|| black_box(session.run_shots(&loaded, 1).expect("shot runs")))
    });
    g.finish();
}

criterion_group!(benches, bench, bench_stabilizer);
criterion_main!(benches);
