//! The journal's durability contract, pinned differentially: a pool
//! killed at *any* byte of its write-ahead log and recovered must serve
//! results byte-for-byte identical to the uninterrupted run — and must
//! never re-execute a point that was durably checkpointed.
//!
//! The kill is simulated the way a kill actually lands on disk: the WAL
//! is truncated at (and inside) every frame boundary while the result
//! log keeps everything written up to that instant (result frames are
//! written *before* the WAL records that reference them, so the full
//! result file is exactly the superset a real crash can leave behind).

use quma_core::prelude::*;
use quma_journal::codec::{scan_frames, WAL_MAGIC};
use quma_journal::record::WalRecord;
use quma_journal::{JobSpec, SweepPointSpec};
use quma_pool::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

const SEGMENT: &str = "\
    Wait 40000\n\
    Pulse {q0}, X90\n\
    Wait 4\n\
    Pulse {q0}, X90\n\
    Wait 4\n\
    MPG {q0}, 300\n\
    MD {q0}, r7\n\
    halt\n";

fn base_config() -> DeviceConfig {
    DeviceConfig {
        chip: ChipProfile::Paper,
        chip_seed: 0xEC0D,
        trace: TraceLevel::Off,
        ..DeviceConfig::default()
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "quma-recover-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn journaled_pool(dir: &Path, checkpoint_every: u64) -> DevicePool {
    DevicePool::new(
        PoolConfig::new(base_config())
            .with_workers(1)
            .with_journal(JournalConfig::new(dir).with_checkpoint_every(checkpoint_every)),
    )
    .expect("journaled pool builds")
}

/// A 6-point sweep job plus the spec that re-runs it, built the way the
/// serving layer builds both from one submission.
fn sweep_job(pool: &DevicePool) -> (Job, JobSpec, Vec<(LoadedProgram, ShotSeeds)>) {
    let program = pool.assemble(SEGMENT).expect("assembles");
    let mut points = Vec::new();
    let mut spec_points = Vec::new();
    for i in 0..6u64 {
        let seeds = ShotSeeds {
            chip: 0x1000 + i,
            jitter: 0x2000 + i,
        };
        points.push((LoadedProgram::from_arc(program.clone()), seeds));
        spec_points.push(SweepPointSpec {
            source: SEGMENT.to_string(),
            chip: seeds.chip,
            jitter: seeds.jitter,
        });
    }
    let spec = JobSpec::Sweep {
        points: spec_points,
    };
    let job = Job::sweep(points.clone())
        .with_spec(spec.clone())
        .with_client("diff-test");
    (job, spec, points)
}

fn assert_reports_eq(got: &[RunReport], want: &[RunReport], context: &str) {
    assert_eq!(got.len(), want.len(), "{context}: report count");
    for (i, (a, b)) in got.iter().zip(want.iter()).enumerate() {
        assert_eq!(
            a.registers, b.registers,
            "{context}: registers of point {i}"
        );
        assert_eq!(a.memory, b.memory, "{context}: memory of point {i}");
        assert_eq!(
            a.md_results, b.md_results,
            "{context}: md records of point {i}"
        );
    }
}

/// Copies the journal as a crash at `wal_len` bytes would leave it.
fn crashed_copy(from: &Path, wal_len: usize, tag: &str) -> PathBuf {
    let to = temp_dir(tag);
    let wal = std::fs::read(from.join("wal.qj")).expect("read wal");
    std::fs::write(to.join("wal.qj"), &wal[..wal_len.min(wal.len())]).expect("write wal");
    std::fs::copy(from.join("results.qrl"), to.join("results.qrl")).expect("copy results");
    to
}

#[test]
fn sweep_recovery_is_bit_identical_at_every_kill_point() {
    // The uninterrupted run, journaled so the WAL holds every record a
    // crash could tear.
    let dir = temp_dir("sweep-full");
    let pool = journaled_pool(&dir, 2);
    let (job, _, points) = sweep_job(&pool);
    let handle = pool.submit(job).expect("submits");
    let want = handle
        .wait()
        .expect("runs")
        .into_reports()
        .expect("sweep reports");
    drop(pool);

    // Direct-session ground truth: the pool + journal must not perturb it.
    let mut direct = Session::new(base_config()).expect("session");
    let direct_reports = direct
        .run_batch(&Batch::Sweep(points[..].into()), 1)
        .expect("direct sweep")
        .shots;
    assert_reports_eq(&want, &direct_reports, "uninterrupted vs direct");

    let wal = std::fs::read(dir.join("wal.qj")).expect("read wal");
    let (frames, clean_end) = scan_frames(&wal, WAL_MAGIC.len());
    assert_eq!(clean_end, wal.len(), "uninterrupted WAL has no torn tail");
    assert!(frames.len() >= 5, "submit + 3 checkpoints + completion");

    // Kill at every frame boundary, and torn inside every frame.
    let mut kill_points = vec![WAL_MAGIC.len()];
    for frame in &frames {
        kill_points.push(frame.start + (frame.end - frame.start) / 2);
        kill_points.push(frame.end);
    }
    for kill in kill_points {
        // What the surviving prefix of the WAL promises.
        let (survived, _) = scan_frames(&wal[..kill], WAL_MAGIC.len());
        let mut submitted = false;
        let mut done = 0u64;
        let mut completed = false;
        for range in &survived {
            match WalRecord::decode(&wal[range.clone()]).expect("valid record") {
                WalRecord::Submitted { .. } => submitted = true,
                WalRecord::Checkpoint { done: d, .. } => done = d,
                WalRecord::Completed { .. } => completed = true,
                _ => {}
            }
        }

        let crash_dir = crashed_copy(&dir, kill, "sweep-kill");
        let config = PoolConfig::new(base_config())
            .with_workers(1)
            .with_journal(JournalConfig::new(&crash_dir).with_checkpoint_every(2));
        let recovered = DevicePool::recover(config).expect("recovers");
        let context = format!("kill at byte {kill} (done {done}, completed {completed})");
        if !submitted {
            assert!(
                recovered.jobs.is_empty(),
                "{context}: no durable submission"
            );
            continue;
        }
        assert_eq!(recovered.jobs.len(), 1, "{context}");
        let job = recovered.jobs.into_iter().next().unwrap();
        assert_eq!(job.client, "diff-test", "{context}");
        let got = match job.state {
            RecoveredState::Done(output) => {
                assert!(completed, "{context}: Done only after a durable completion");
                output.into_reports().expect("sweep reports")
            }
            RecoveredState::Resumed(handle) => handle
                .wait()
                .expect("resumed job runs")
                .into_reports()
                .expect("sweep reports"),
            other => panic!("{context}: unexpected recovered state {other:?}"),
        };
        assert_reports_eq(&got, &want, &context);
        // The durability payoff: checkpointed points are never re-run.
        let stats = recovered.pool.shutdown();
        let expect_executed = if completed { 0 } else { 6 - done };
        assert_eq!(
            stats.executed_shots, expect_executed,
            "{context}: only unfinished points execute"
        );
        assert_eq!(stats.recovered_jobs, 1, "{context}");
        std::fs::remove_dir_all(&crash_dir).ok();
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn completed_shot_batch_is_served_from_the_result_log() {
    let dir = temp_dir("shots");
    let pool = journaled_pool(&dir, 0);
    // submit_assembly attaches the spec itself on a journaled pool.
    let handle = pool.submit_assembly(SEGMENT, 5).expect("submits");
    let want = handle.wait().expect("runs").into_batch().expect("batch");
    let ran = pool.shutdown().executed_shots;
    assert_eq!(ran, 5);

    let config = PoolConfig::new(base_config())
        .with_workers(1)
        .with_journal(JournalConfig::new(&dir));
    let recovered = DevicePool::recover(config).expect("recovers");
    assert_eq!(recovered.jobs.len(), 1);
    let job = recovered.jobs.into_iter().next().unwrap();
    let got = match job.state {
        RecoveredState::Done(output) => output.into_batch().expect("batch"),
        other => panic!("completed batch must recover Done, got {other:?}"),
    };
    assert_reports_eq(&got.shots, &want.shots, "recovered batch");
    let stats = recovered.pool.shutdown();
    assert_eq!(stats.executed_shots, 0, "nothing re-runs");
    assert_eq!(stats.recovered_jobs, 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unfinished_shot_batch_reruns_bit_identically() {
    // Simulate a crash right after the submission record: the batch
    // never produced a durable result, so recovery re-runs it — and
    // determinism makes the re-run bit-identical.
    let dir = temp_dir("shots-unfinished");
    let pool = journaled_pool(&dir, 0);
    let handle = pool.submit_assembly(SEGMENT, 4).expect("submits");
    let want = handle.wait().expect("runs").into_batch().expect("batch");
    drop(pool);

    let wal = std::fs::read(dir.join("wal.qj")).expect("read wal");
    let (frames, _) = scan_frames(&wal, WAL_MAGIC.len());
    let crash_dir = crashed_copy(&dir, frames[0].end, "shots-kill");
    let config = PoolConfig::new(base_config())
        .with_workers(1)
        .with_journal(JournalConfig::new(&crash_dir));
    let recovered = DevicePool::recover(config).expect("recovers");
    assert_eq!(recovered.jobs.len(), 1);
    let job = recovered.jobs.into_iter().next().unwrap();
    let got = match job.state {
        RecoveredState::Resumed(handle) => {
            handle.wait().expect("re-runs").into_batch().expect("batch")
        }
        other => panic!("unfinished batch must resume, got {other:?}"),
    };
    assert_reports_eq(&got.shots, &want.shots, "re-run batch");
    assert_eq!(recovered.pool.shutdown().executed_shots, 4);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&crash_dir).ok();
}

#[test]
fn cancelled_job_recovers_as_cancelled_and_never_reruns() {
    let dir = temp_dir("cancel");
    let pool = journaled_pool(&dir, 0);
    // One worker, one blocker: the second job is reliably still queued
    // when cancelled, and the cancellation is journaled by the handle.
    let blocker = pool.submit_assembly(SEGMENT, 8).expect("submits");
    let mut victim = pool.submit_assembly(SEGMENT, 3).expect("submits");
    let victim_id = victim.id();
    assert_eq!(victim.cancel(), CancelOutcome::Cancelled);
    assert!(blocker.wait().is_ok());
    drop(pool);

    let config = PoolConfig::new(base_config())
        .with_workers(1)
        .with_journal(JournalConfig::new(&dir));
    let recovered = DevicePool::recover(config).expect("recovers");
    assert_eq!(recovered.jobs.len(), 2);
    for job in &recovered.jobs {
        if job.id == victim_id {
            assert!(
                matches!(job.state, RecoveredState::Cancelled),
                "cancelled before the crash stays cancelled, got {:?}",
                job.state
            );
        } else {
            assert!(matches!(job.state, RecoveredState::Done(_)));
        }
    }
    let stats = recovered.pool.shutdown();
    assert_eq!(stats.executed_shots, 0, "the cancelled job never runs");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn recovered_pool_assigns_fresh_ids_past_journaled_ones() {
    let dir = temp_dir("ids");
    let pool = journaled_pool(&dir, 0);
    let a = pool.submit_assembly(SEGMENT, 1).expect("submits");
    let b = pool.submit_assembly(SEGMENT, 1).expect("submits");
    assert!(a.wait().is_ok() && b.wait().is_ok());
    drop(pool);

    let config = PoolConfig::new(base_config())
        .with_workers(1)
        .with_journal(JournalConfig::new(&dir));
    let recovered = DevicePool::recover(config).expect("recovers");
    let max_recovered = recovered.jobs.iter().map(|j| j.id).max().unwrap();
    let fresh = recovered.pool.submit_assembly(SEGMENT, 1).expect("submits");
    assert!(
        fresh.id() > max_recovered,
        "fresh id {} must not collide with journaled ids (max {})",
        fresh.id(),
        max_recovered
    );
    assert!(fresh.wait().is_ok());
    std::fs::remove_dir_all(&dir).ok();
}
