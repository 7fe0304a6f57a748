//! Property: a sharded `run_batch` equals `run_shots` bit-for-bit for
//! *arbitrary* thread counts — including more workers than shots and the
//! `threads == 0` auto case — with the jitter model on, so both RNG
//! streams (chip and execution-controller) are exercised.

use proptest::prelude::*;
use quma::core::prelude::*;

const SEGMENT: &str = "\
    Wait 4000\n\
    Pulse {q0}, X90\n\
    Wait 4\n\
    Pulse {q0}, Y90\n\
    Wait 4\n\
    MPG {q0}, 300\n\
    MD {q0}, r7\n\
    halt\n";

fn config(seed: u64) -> DeviceConfig {
    DeviceConfig {
        chip: ChipProfile::Paper,
        chip_seed: seed,
        jitter_seed: seed ^ 0x7177,
        max_jitter_cycles: 3,
        trace: TraceLevel::Off,
        ..DeviceConfig::default()
    }
}

/// Every comparable field of a shot: registers plus the full MD record
/// (deterministic time, bit, and the analog integration value).
fn signature(report: &RunReport) -> (Vec<(u64, u8, f64)>, [i32; 16]) {
    (
        report
            .md_results
            .iter()
            .map(|m| (m.td, m.bit, m.s))
            .collect(),
        report.registers,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn parallel_batch_equals_sequential_for_any_thread_count(
        threads in 0usize..13,
        shots in 0u64..18,
        seed in 1u64..0xFFFF,
    ) {
        let mut sequential = Session::new(config(seed)).expect("session");
        let loaded = sequential.load_assembly(SEGMENT).expect("assembles");
        let want = sequential.run_shots(&loaded, shots).expect("sequential batch");
        let mut parallel = Session::new(config(seed)).expect("session");
        let batch = Batch::Shots { program: loaded, shots };
        let got = parallel.run_batch(&batch, threads).expect("parallel batch");
        prop_assert_eq!(got.len(), want.len());
        prop_assert_eq!(parallel.shots_run(), shots);
        for (i, (a, b)) in want.shots.iter().zip(got.shots.iter()).enumerate() {
            prop_assert_eq!(signature(a), signature(b), "shot {}", i);
        }
    }

    /// The persistent worker pool must be invisible: batches run through
    /// one session's reused workers (second/third call hit warm workers,
    /// possibly at a different thread count) equal both a fresh session
    /// per batch and the sequential engine, shot for shot.
    #[test]
    fn reused_worker_pool_equals_fresh_sessions_and_sequential(
        threads_a in 0usize..13,
        threads_b in 0usize..13,
        shots in 0u64..14,
        seed in 1u64..0xFFFF,
    ) {
        let mut sequential = Session::new(config(seed)).expect("session");
        let loaded = sequential.load_assembly(SEGMENT).expect("assembles");
        let first = sequential.run_shots(&loaded, shots).expect("batch 1");
        let second = sequential.run_shots(&loaded, shots).expect("batch 2");

        // One session, three parallel batches over reused workers, the
        // middle one at a different thread count (forcing re-blocking
        // without re-cloning warm devices).
        let mut pooled = Session::new(config(seed)).expect("session");
        let batch = Batch::Shots { program: loaded, shots };
        let got_a = pooled.run_batch(&batch, threads_a).expect("pooled 1");
        let got_b = pooled.run_batch(&batch, threads_b).expect("pooled 2");

        // Fresh session per batch: the no-reuse baseline.
        let mut fresh = Session::new(config(seed)).expect("session");
        let fresh_a = fresh.run_batch(&batch, threads_a).expect("fresh 1");

        for (i, (want, gots)) in [(first, [&got_a, &fresh_a]), (second, [&got_b, &got_b])]
            .iter()
            .enumerate()
        {
            for got in gots {
                prop_assert_eq!(want.len(), got.len());
                for (j, (a, b)) in want.shots.iter().zip(got.shots.iter()).enumerate() {
                    prop_assert_eq!(signature(a), signature(b), "batch {} shot {}", i, j);
                }
            }
        }
    }
}

#[test]
fn threads_exceeding_shots_and_auto_are_exact() {
    // The two satellite-named edges, pinned deterministically on top of
    // the property: threads > shots and threads == 0 (auto).
    let mut sequential = Session::new(config(0xE27)).expect("session");
    let loaded = sequential.load_assembly(SEGMENT).expect("assembles");
    let want = sequential.run_shots(&loaded, 5).expect("sequential");
    let batch = Batch::Shots {
        program: loaded,
        shots: 5,
    };
    for threads in [0, 7, 64] {
        let mut parallel = Session::new(config(0xE27)).expect("session");
        let got = parallel.run_batch(&batch, threads).expect("parallel");
        for (a, b) in want.shots.iter().zip(got.shots.iter()) {
            assert_eq!(signature(a), signature(b), "threads = {threads}");
        }
    }
}
