//! The pool's determinism contract, pinned differentially: everything a
//! client gets from `quma_pool` must be bit-identical to running the
//! same work directly on one fresh `Session` — for every worker count,
//! any scheduling interleaving, and any mix of competing clients.

use quma_core::prelude::*;
use quma_experiments::prelude::*;
use quma_pool::prelude::*;
use std::sync::Arc;

const SEGMENT: &str = "\
    Wait 40000\n\
    Pulse {q0}, X90\n\
    Wait 4\n\
    Pulse {q0}, X90\n\
    Wait 4\n\
    MPG {q0}, 300\n\
    MD {q0}, r7\n\
    halt\n";

const WORKER_COUNTS: [usize; 3] = [1, 2, 4];

fn base_config() -> DeviceConfig {
    DeviceConfig {
        chip: ChipProfile::Paper,
        chip_seed: 0xD1FF,
        trace: TraceLevel::Off,
        ..DeviceConfig::default()
    }
}

fn pool_with(workers: usize) -> DevicePool {
    DevicePool::new(PoolConfig::new(base_config()).with_workers(workers)).expect("pool builds")
}

fn assert_reports_eq(got: &[RunReport], want: &[RunReport], context: &str) {
    assert_eq!(got.len(), want.len(), "{context}: report count");
    for (i, (a, b)) in got.iter().zip(want.iter()).enumerate() {
        assert_eq!(a.registers, b.registers, "{context}: registers of shot {i}");
        assert_eq!(
            a.md_results, b.md_results,
            "{context}: md records of shot {i}"
        );
    }
}

#[test]
fn pooled_allxy_is_bit_identical_to_direct_run_across_worker_counts() {
    let cfg = AllxyConfig {
        averages: 8,
        ..AllxyConfig::default()
    };
    let want = run_allxy(&cfg).expect("direct AllXY runs");
    for workers in WORKER_COUNTS {
        let pool = pool_with(workers);
        let handle = pool.submit_experiment(Allxy, cfg.clone()).expect("submits");
        let got = handle.wait().expect("pooled AllXY runs");
        assert_eq!(got.raw, want.raw, "{workers} workers: raw averages");
        assert_eq!(got.fidelity, want.fidelity, "{workers} workers: fidelity");
        assert_eq!(
            got.deviation, want.deviation,
            "{workers} workers: deviation"
        );
    }
}

#[test]
fn pooled_qec_is_bit_identical_to_direct_run_across_worker_counts() {
    use quma_compiler::prelude::InjectedX;
    let cfg = QecConfig {
        distance: 3,
        rounds: 2,
        shots: 12,
        ..QecConfig::default()
    };
    let injections = [InjectedX { round: 1, data: 1 }];
    let want = run_qec_injected(&cfg, &injections).expect("direct QEC runs");
    for workers in WORKER_COUNTS {
        let pool = pool_with(workers);
        let handle = pool
            .submit_experiment(
                QecInjected {
                    injections: injections.to_vec(),
                },
                cfg.clone(),
            )
            .expect("submits");
        let got = handle.wait().expect("pooled QEC runs");
        assert_eq!(
            got.majority_bits, want.majority_bits,
            "{workers} workers: per-shot majority bits"
        );
        assert_eq!(got.logical_errors, want.logical_errors);
        assert_eq!(got.logical_error_rate, want.logical_error_rate);
        assert_eq!(got.injected_flips, want.injected_flips);
    }
}

#[test]
fn concurrent_clients_each_get_their_exact_direct_result() {
    // A dozen clients race mixed submissions at one pool; every client's
    // result must equal its own direct single-session run, no matter how
    // the scheduler interleaved them.
    const CLIENTS: u64 = 12;
    const SHOTS: u64 = 4;
    for workers in WORKER_COUNTS {
        // The vendored crossbeam scope requires 'static closures, so the
        // clients share the pool behind an Arc rather than a borrow.
        let pool = Arc::new(pool_with(workers));
        let handles: Vec<(u64, JobHandle)> = crossbeam::thread::scope(|s| {
            let spawned: Vec<_> = (0..CLIENTS)
                .map(|client| {
                    let pool = Arc::clone(&pool);
                    s.spawn(move |_| {
                        let plan = SeedPlan {
                            chip_base: 0xC11E_4700 + client,
                            jitter_base: 0x0DD5 ^ client,
                        };
                        let program = pool.assemble(SEGMENT).expect("assembles");
                        let handle = pool
                            .submit(Job::shots(program, SHOTS).with_seed_plan(plan))
                            .expect("submits");
                        (client, handle)
                    })
                })
                .collect();
            spawned
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        })
        .expect("scope");
        for (client, handle) in handles {
            let batch = handle
                .wait()
                .expect("pooled batch runs")
                .into_batch()
                .expect("shots output");
            let mut direct = Session::new(base_config()).expect("session");
            direct.set_seed_plan(SeedPlan {
                chip_base: 0xC11E_4700 + client,
                jitter_base: 0x0DD5 ^ client,
            });
            let loaded = direct.load_assembly(SEGMENT).expect("assembles");
            let want = direct.run_shots(&loaded, SHOTS).expect("direct batch");
            assert_reports_eq(
                &batch.shots,
                &want.shots,
                &format!("client {client} on {workers} workers"),
            );
        }
    }
}

#[test]
fn pooled_template_sweep_matches_direct_session_sweep() {
    let slots = [SlotSpec::new(
        "tau",
        3,
        quma_isa::template::PatchField::WaitInterval,
    )];
    let source = "\
        Wait 40000\n\
        Pulse {q0}, X180\n\
        Wait 4\n\
        Wait 4\n\
        MPG {q0}, 300\n\
        MD {q0}, r7\n\
        halt\n";
    let taus = [4i64, 400, 1200, 4000];
    let plan = SeedPlan::from_config(&base_config());
    let points: Vec<TemplatePoint> = taus
        .iter()
        .enumerate()
        .map(|(i, &tau)| TemplatePoint {
            patches: vec![("tau".to_string(), tau)],
            seeds: plan.shot(i as u64),
        })
        .collect();
    let pool = pool_with(2);
    let template = pool.assemble_template(source, &slots).expect("template");
    let handle = pool
        .submit(Job::template_sweep(Arc::clone(&template), points.clone()))
        .expect("submits");
    let got = handle
        .wait()
        .expect("pooled sweep runs")
        .into_reports()
        .expect("reports output");
    let mut direct = Session::new(base_config()).expect("session");
    let sweep = Batch::Template {
        program: Arc::new(template.program().clone()),
        points: points.into(),
    };
    let want = direct.run_batch(&sweep, 1).expect("direct sweep").shots;
    assert_reports_eq(&got, &want, "template sweep");
}

#[test]
fn chunked_stream_reassembles_to_the_unchunked_batch() {
    let pool = pool_with(2);
    let program = pool.assemble(SEGMENT).expect("assembles");
    let mut handle = pool
        .submit(Job::shots(Arc::clone(&program), 20).with_chunk_shots(8))
        .expect("submits");
    let mut streamed: Vec<RunReport> = Vec::new();
    let mut next_first = 0u64;
    while let Some(chunk) = handle.next_chunk() {
        assert_eq!(chunk.first_shot, next_first, "chunks arrive in order");
        next_first += chunk.reports.len() as u64;
        streamed.extend(chunk.reports);
    }
    assert_eq!(streamed.len(), 20, "chunks cover the whole batch");
    let batch = handle
        .wait()
        .expect("job finishes")
        .into_batch()
        .expect("shots output");
    assert_reports_eq(&streamed, &batch.shots, "stream vs final batch");
    let unchunked = pool
        .submit(Job::shots(Arc::clone(&program), 20))
        .expect("submits")
        .wait()
        .expect("runs")
        .into_batch()
        .expect("shots output");
    assert_reports_eq(&batch.shots, &unchunked.shots, "chunked vs unchunked");
    // A chunk size covering the whole batch still streams (one covering
    // chunk) — only chunk == 0 disables the event stream.
    let mut covering = pool
        .submit(Job::shots(program, 4).with_chunk_shots(64))
        .expect("submits");
    let chunk = covering.next_chunk().expect("one covering chunk");
    assert_eq!(chunk.first_shot, 0);
    assert_eq!(chunk.reports.len(), 4);
    assert!(covering.next_chunk().is_none());
    assert!(covering.wait().is_ok());
}

#[test]
fn device_config_override_runs_cold_and_still_matches_direct() {
    let other = DeviceConfig {
        chip_seed: 0xBEEF,
        ..base_config()
    };
    let pool = pool_with(1);
    let program = pool.assemble(SEGMENT).expect("assembles");
    let handle = pool
        .submit(Job::shots(program, 5).with_device_config(other.clone()))
        .expect("submits");
    let batch = handle
        .wait()
        .expect("runs")
        .into_batch()
        .expect("shots output");
    let mut direct = Session::new(other.clone()).expect("session");
    let loaded = direct.load_assembly(SEGMENT).expect("assembles");
    let want = direct.run_shots(&loaded, 5).expect("direct batch");
    assert_reports_eq(&batch.shots, &want.shots, "override config");
    // The worker kept the override warm: a second job with the same
    // config rewinds the cached session instead of rebuilding, and a
    // base-config job clones the always-warm base device.
    pool.submit(Job::shots(pool.assemble(SEGMENT).unwrap(), 1).with_device_config(other))
        .expect("submits")
        .wait()
        .expect("runs");
    pool.submit_assembly(SEGMENT, 1)
        .expect("submits")
        .wait()
        .expect("runs");
    let stats = pool.shutdown();
    assert_eq!(stats.cold_device_builds, 1, "the override built cold once");
    assert_eq!(stats.warm_session_reuses, 1, "same-config job reran warm");
    assert_eq!(stats.warm_device_clones, 1, "base-config job cloned warm");
}

#[test]
fn worker_state_never_leaks_between_jobs() {
    // An experiment that injects a pulse-library error must not disturb
    // the job running after it on the same worker.
    let pool = pool_with(1);
    let miscalibrated = AllxyConfig {
        averages: 4,
        error: PulseError::AmplitudeScale(0.8),
        ..AllxyConfig::default()
    };
    let clean_cfg = AllxyConfig {
        averages: 4,
        ..AllxyConfig::default()
    };
    let dirty = pool
        .submit_experiment(Allxy, miscalibrated)
        .expect("submits");
    let clean = pool
        .submit_experiment(Allxy, clean_cfg.clone())
        .expect("submits");
    dirty.wait().expect("miscalibrated AllXY runs");
    let got = clean.wait().expect("clean AllXY runs");
    let want = run_allxy(&clean_cfg).expect("direct clean AllXY");
    assert_eq!(
        got.raw, want.raw,
        "the error injection must die with its job's session"
    );
}

/// An experiment that parks its worker inside `prepare` until the test
/// releases it — the synchronization the priority test needs to make
/// "jobs queued behind a busy worker" a guarantee instead of a timing
/// assumption.
struct GateExperiment {
    release: crossbeam::channel::Receiver<()>,
}

impl Experiment for GateExperiment {
    type Config = ();
    type Output = ();

    fn name(&self) -> &'static str {
        "gate"
    }

    fn device_config(&self, _cfg: &()) -> DeviceConfig {
        base_config()
    }

    fn prepare(&self, _cfg: &(), _session: &mut Session) -> Result<(), ExperimentError> {
        // Park until the test has finished enqueueing its competitors.
        let _ = self.release.recv();
        Ok(())
    }

    fn axes(&self, _cfg: &()) -> Result<SweepAxes, ExperimentError> {
        let program = quma_isa::asm::Assembler::new()
            .assemble("halt\n")
            .expect("trivial program");
        Ok(SweepAxes::new(
            Vec::new(),
            ExecutionMode::Shots {
                program: Arc::new(program),
                shots: 0,
            },
        ))
    }

    fn analyze(
        &self,
        _cfg: &(),
        _axes: &SweepAxes,
        _reports: &[RunReport],
    ) -> Result<(), ExperimentError> {
        Ok(())
    }
}

#[test]
fn high_priority_jobs_dispatch_before_queued_normal_jobs() {
    // One worker, parked inside a gate job; then two normal jobs and one
    // high job queue up *with the worker provably busy*. The high job
    // must dispatch first among the queued three (dispatch_seq is the
    // pool-wide pickup order).
    let pool = pool_with(1);
    let program = pool.assemble(SEGMENT).expect("assembles");
    let (release, gate) = crossbeam::channel::unbounded();
    let blocker = pool
        .submit_experiment(GateExperiment { release: gate }, ())
        .expect("submits");
    let mut normal_a = pool
        .submit(Job::shots(Arc::clone(&program), 1))
        .expect("submits");
    let mut normal_b = pool
        .submit(Job::shots(Arc::clone(&program), 1))
        .expect("submits");
    let mut high = pool
        .submit(Job::shots(program, 1).high_priority())
        .expect("submits");
    // All three competitors are queued; only now may the worker move on.
    release.send(()).expect("worker is waiting");
    blocker.wait().expect("blocker runs");
    while !(normal_a.is_finished() && normal_b.is_finished() && high.is_finished()) {
        std::thread::yield_now();
    }
    let seq_high = high.metrics().expect("metrics").dispatch_seq;
    let seq_a = normal_a.metrics().expect("metrics").dispatch_seq;
    let seq_b = normal_b.metrics().expect("metrics").dispatch_seq;
    assert!(
        seq_high < seq_a && seq_high < seq_b,
        "high ({seq_high}) must dispatch before normals ({seq_a}, {seq_b})"
    );
    let stats = pool.shutdown();
    assert_eq!(stats.high_completed, 1);
    assert_eq!(stats.completed, 4);
}

#[test]
fn full_queue_rejects_with_typed_backpressure() {
    let pool = DevicePool::new(
        PoolConfig::new(base_config())
            .with_workers(1)
            .with_queue_depth(2),
    )
    .expect("pool builds");
    let program = pool.assemble(SEGMENT).expect("assembles");
    let mut accepted: Vec<JobHandle> = Vec::new();
    let mut rejected = 0u64;
    // A 1-worker pool draining ~ms jobs cannot keep up with µs submits:
    // the 2-deep queue must fill well within this burst.
    for _ in 0..500 {
        match pool.submit(Job::shots(Arc::clone(&program), 2)) {
            Ok(handle) => accepted.push(handle),
            Err(SubmitError::QueueFull { priority, depth }) => {
                assert_eq!(priority, Priority::Normal);
                assert_eq!(depth, 2);
                rejected += 1;
            }
            Err(other) => panic!("unexpected submit error: {other}"),
        }
    }
    assert!(rejected > 0, "the bounded queue never pushed back");
    // Backpressure sheds load without corrupting accepted work.
    let accepted_count = accepted.len() as u64;
    for handle in accepted {
        assert!(handle.wait().is_ok());
    }
    let stats = pool.shutdown();
    assert_eq!(stats.rejected, rejected);
    assert_eq!(stats.completed, accepted_count);
}

#[test]
fn custom_seed_plans_replay_exactly() {
    let plan = SeedPlan {
        chip_base: 0x7EA5,
        jitter_base: 0x50DA,
    };
    let pool = pool_with(3);
    let program = pool.assemble(SEGMENT).expect("assembles");
    let first = pool
        .submit(Job::shots(Arc::clone(&program), 6).with_seed_plan(plan))
        .expect("submits")
        .wait()
        .expect("runs")
        .into_batch()
        .expect("shots output");
    let replay = pool
        .submit(Job::shots(program, 6).with_seed_plan(plan))
        .expect("submits")
        .wait()
        .expect("runs")
        .into_batch()
        .expect("shots output");
    assert_reports_eq(&replay.shots, &first.shots, "replay");
}
