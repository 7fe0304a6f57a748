//! Figures 3/5 — the timeline of one AllXY round.
//!
//! Regenerates the event timeline (pulse starts, measurement window) and
//! measures the cost of simulating one full cycle-exact round including
//! the 200 µs initialization wait (which the event-driven engine skips in
//! O(1)).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use quma_core::prelude::*;
use std::hint::black_box;

const ROUND: &str = "\
    mov r15, 40000\nQNopReg r15\nPulse {q0}, X180\nWait 4\nPulse {q0}, I\nWait 4\nMPG {q0}, 300\nMD {q0}, r7\nhalt\n";

fn print_timeline() {
    let mut dev = Device::new(DeviceConfig::default()).expect("device");
    let report = dev.run_assembly(ROUND).expect("runs");
    println!("\n=== Figure 5: one AllXY round ===");
    for e in report.trace.events() {
        println!(
            "  TD = {:>6} ({:>9.3} us): {:?}",
            e.td,
            e.td as f64 * 0.005,
            e.kind
        );
    }
    println!();
}

fn bench(c: &mut Criterion) {
    print_timeline();

    let mut g = c.benchmark_group("fig5");
    g.bench_function("one_allxy_round_cycle_exact", |b| {
        b.iter_batched(
            || {
                Device::new(DeviceConfig {
                    trace: TraceLevel::Off,
                    ..DeviceConfig::default()
                })
                .expect("device")
            },
            |mut dev| black_box(dev.run_assembly(ROUND).expect("runs")),
            BatchSize::SmallInput,
        )
    });

    // The same round with the realistic noisy chip (trace synthesis and
    // discrimination dominate).
    g.bench_function("one_allxy_round_paper_chip", |b| {
        b.iter_batched(
            || {
                Device::new(DeviceConfig {
                    chip: ChipProfile::Paper,
                    trace: TraceLevel::Off,
                    ..DeviceConfig::default()
                })
                .expect("device")
            },
            |mut dev| black_box(dev.run_assembly(ROUND).expect("runs")),
            BatchSize::SmallInput,
        )
    });

    // The same round as a session shot: construction amortized away, only
    // the per-shot reset + run remains (compare against the two above).
    g.bench_function("one_allxy_round_session_shot", |b| {
        let mut session = Session::new(DeviceConfig {
            trace: TraceLevel::Off,
            ..DeviceConfig::default()
        })
        .expect("session");
        let program = session.load_assembly(ROUND).expect("round assembles");
        b.iter(|| black_box(session.run_shots(&program, 1).expect("runs")))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
