//! Thread-scaling curve for the parallel shot engine: the same d = 3
//! QEC batch at 1/2/4/8 requested workers.
//!
//! CI folds these points into `BENCH_<date>.json`, so the trajectory
//! records how batch throughput responds to thread count on the runner
//! of the day (`scripts/bench_summary.sh` stores the runner's
//! `available_parallelism` alongside). On a single-core runner the
//! curve is flat — the engine clamps requested workers to what the host
//! has — which is itself the interesting datum: parallel dispatch must
//! not cost anything when there is nothing to parallelize.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use quma_compiler::prelude::{InjectedX, RepetitionCode};
use quma_core::prelude::{Batch, DeviceConfig, Session, TraceLevel};
use std::hint::black_box;

const DISTANCE: usize = 3;
const SHOTS: u64 = 16;

fn device_config() -> DeviceConfig {
    DeviceConfig {
        num_qubits: 2 * DISTANCE - 1,
        trace: TraceLevel::Off,
        ..DeviceConfig::default()
    }
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("shots_scaling");

    let mut code = RepetitionCode::new(DISTANCE, 2);
    code.injected_x.push(InjectedX { round: 0, data: 1 });
    let program = code.compile();

    for threads in [1usize, 2, 4, 8] {
        let mut session = Session::new(device_config()).expect("session");
        let batch = Batch::Shots {
            program: session.load(&program),
            shots: SHOTS,
        };
        g.bench_with_input(
            BenchmarkId::new("batch16_d3_t", threads),
            &threads,
            |b, &t| b.iter(|| black_box(session.run_batch(&batch, t).expect("parallel batch"))),
        );
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
