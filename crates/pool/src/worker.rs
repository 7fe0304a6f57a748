//! The worker side of the pool: warm devices, job execution, and the
//! deterministic-replay discipline.
//!
//! Each worker owns a small set of *pristine* calibrated devices (the
//! pool's base configuration is always warm; other configurations are
//! admitted on first use) plus long-lived warm [`Session`]s built from
//! them. Jobs split by what they may touch:
//!
//! * **Batch** jobs (shots, sweeps, template sweeps) never mutate device
//!   parameters — every shot reseeds and every run starts with the
//!   architectural reset — so they run on a *reused* warm session whose
//!   seed plan and shot counter are rewound per job. That skips even the
//!   per-job device clone, which is what lets `multi_client` throughput
//!   stop paying per-job setup.
//! * **Experiment** jobs may mutate their device (error injection in
//!   `Experiment::prepare`, library uploads, noise retuning), so each
//!   gets a fresh session around a clone of a pristine device; whatever
//!   it does is discarded with the session and can never leak into the
//!   next job.
//!
//! Determinism: `Device::new` is a pure function of its config, so a
//! clone of a pristine device is bit-identical to a fresh build; a
//! session rewound with [`Session::set_seed_plan`] +
//! [`Session::reset_shot_counter`] replays exactly like a fresh session
//! because every shot of the pure job kinds derives its seeds from
//! `(plan, index)` and reseeds before running. Together that makes every
//! pooled result bit-identical to a direct single-session run —
//! regardless of which worker picks the job up, in what order, or how
//! many workers exist.

use crate::job::{JobError, JobEvent, JobId, JobKind, JobOutput, Priority, QueuedJob, ShotChunk};
use crate::metrics::JobMetrics;
use crate::pool::PoolShared;
use crossbeam::channel;
use quma_core::prelude::{
    Batch, BatchReport, Device, DeviceConfig, DeviceError, SeedPlan, Session, SessionTracer,
};
use quma_journal::WalRecord;
use quma_obs::trace::{now_ns, SpanEvent, SpanKind};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Pristine devices a worker can clone per job, plus long-lived warm
/// sessions for the job kinds that never mutate device parameters.
/// Bounded; the pool's base configuration (device slot 0) is never
/// evicted.
pub(crate) struct WarmSet {
    devices: Vec<(DeviceConfig, Device)>,
    /// Reused across batch jobs (seed plan and shot counter rewound per
    /// job). Experiment jobs never touch these.
    sessions: Vec<(DeviceConfig, Session)>,
}

/// How many distinct configurations a worker keeps warm (base + 3).
const WARM_CAP: usize = 4;

impl WarmSet {
    pub(crate) fn new(base: Device) -> Self {
        Self {
            devices: vec![(base.config().clone(), base)],
            sessions: Vec::new(),
        }
    }

    /// A fresh session for `config`: a warm clone when the configuration
    /// is known, a cold build (then kept warm) otherwise. Experiment
    /// jobs use this path — they may mutate the device, so they must not
    /// share one.
    fn fresh_session(
        &mut self,
        config: &DeviceConfig,
        shared: &PoolShared,
    ) -> Result<Session, JobError> {
        if let Some((_, device)) = self.devices.iter().find(|(c, _)| c == config) {
            let session = Session::from_device(device.clone());
            shared.metrics.warm_device_clones.inc();
            return Ok(session);
        }
        let device = Device::new(config.clone()).map_err(JobError::Device)?;
        shared.metrics.cold_device_builds.inc();
        let session = Session::from_device(device.clone());
        if self.devices.len() >= WARM_CAP {
            // Evict the oldest non-base entry.
            self.devices.remove(1);
        }
        self.devices.push((config.clone(), device));
        Ok(session)
    }

    /// A warm session for `config`, rewound to fresh-session semantics
    /// (config-default seed plan, shot counter 0). Only for job kinds
    /// that never mutate device parameters: every shot reseeds and every
    /// run starts with the architectural reset, so the reused device is
    /// bit-indistinguishable from a fresh clone.
    fn warm_session(
        &mut self,
        config: &DeviceConfig,
        shared: &PoolShared,
    ) -> Result<&mut Session, JobError> {
        if let Some(pos) = self.sessions.iter().position(|(c, _)| c == config) {
            shared.metrics.warm_session_reuses.inc();
            let session = &mut self.sessions[pos].1;
            session.set_seed_plan(SeedPlan::from_config(config));
            session.reset_shot_counter();
            return Ok(session);
        }
        let session = self.fresh_session(config, shared)?;
        if self.sessions.len() >= WARM_CAP {
            // Evict the oldest session not serving the base config.
            if let Some(pos) = self.sessions.iter().position(|(c, _)| *c != shared.base) {
                self.sessions.remove(pos);
            } else {
                self.sessions.remove(0);
            }
        }
        self.sessions.push((config.clone(), session));
        Ok(&mut self.sessions.last_mut().expect("just pushed").1)
    }
}

/// The worker thread body. Tickets gate the loop: one ticket is sent per
/// queued job (job first, ticket second), so a received ticket
/// guarantees a job is waiting in one of the two queues; high drains
/// before normal. When the pool drops its senders the ticket channel
/// disconnects *after* its backlog is drained — the graceful-drain
/// property: every accepted job runs before any worker exits.
pub(crate) fn worker_loop(
    index: usize,
    shared: Arc<PoolShared>,
    pristine: Device,
    tickets: channel::Receiver<()>,
    high: channel::Receiver<QueuedJob>,
    normal: channel::Receiver<QueuedJob>,
) {
    let mut warm = WarmSet::new(pristine);
    while tickets.recv().is_ok() {
        // The submit-side ordering (job enqueued before its ticket) plus
        // one-pop-per-ticket accounting guarantees at least one job is
        // available across the two queues at every instant until this
        // worker's pop succeeds; the spin resolves the narrow race where
        // another worker pops "our" job between the two try_recvs.
        let queued = loop {
            if let Ok(job) = high.try_recv() {
                break job;
            }
            if let Ok(job) = normal.try_recv() {
                break job;
            }
            std::hint::spin_loop();
        };
        run_job(index, &shared, &mut warm, queued);
    }
}

fn run_job(worker: usize, shared: &Arc<PoolShared>, warm: &mut WarmSet, queued: QueuedJob) {
    let QueuedJob {
        id,
        job,
        events,
        submitted_at,
        phase,
    } = queued;
    let dispatch_seq = shared.dispatch_seq.fetch_add(1, Ordering::SeqCst);
    let started = Instant::now();
    let queue_wait = started.duration_since(submitted_at);
    let trace_dispatch_ns = shared.trace.as_ref().map(|_| now_ns());
    let priority = job.priority;
    let cache_hit = job.cache_hit;
    // Claim the job: only a still-queued job may transition to running.
    // Losing the race to `JobHandle::cancel` means the job is dropped
    // without executing — the handle still gets a terminal event so
    // `wait` resolves (with `JobError::Cancelled`) instead of hanging.
    if phase
        .compare_exchange(
            crate::job::PHASE_QUEUED,
            crate::job::PHASE_RUNNING,
            Ordering::SeqCst,
            Ordering::SeqCst,
        )
        .is_err()
    {
        shared.metrics.cancelled.inc();
        let metrics = JobMetrics {
            id,
            priority,
            worker,
            dispatch_seq,
            queue_wait,
            run_time: std::time::Duration::ZERO,
            cache_hit,
        };
        let _ = events.send(JobEvent::Done {
            result: Err(JobError::Cancelled),
            metrics,
        });
        return;
    }
    let journal = match (&shared.journal, &job.spec) {
        (Some(journal), Some(_)) => Some(Arc::clone(journal)),
        _ => None,
    };
    let result = execute(worker, shared, warm, &events, id, job);
    // Journal the terminal state before the handle can observe it, so a
    // client that saw a result can rely on recovery re-serving it. Batch
    // payloads go to the result log in full; sweep completions are
    // marker-only (their checkpoints already carry every point);
    // experiment outputs are not durable (marker-only too). A journal IO
    // failure here is not a job failure — the in-memory result is intact
    // and recovery simply re-runs deterministic work.
    if let Some(journal) = &journal {
        let record = match &result {
            Ok(JobOutput::Batch(batch)) => journal
                .append_reports_traced(&batch.shots, id)
                .ok()
                .map(|(offset, len)| WalRecord::Completed { id, offset, len }),
            Ok(_) => Some(WalRecord::Completed {
                id,
                offset: 0,
                len: 0,
            }),
            Err(e) => Some(WalRecord::Failed {
                id,
                detail: e.to_string(),
            }),
        };
        if let Some(record) = record {
            let _ = journal.append_traced(&record, id);
        }
    }
    let run_time = started.elapsed();
    phase.store(crate::job::PHASE_FINISHED, Ordering::SeqCst);
    if result.is_ok() {
        shared.metrics.completed.inc();
        if priority == Priority::High {
            shared.metrics.high_completed.inc();
        }
    } else {
        shared.metrics.failed.inc();
    }
    shared.metrics.queue_wait.record_duration(queue_wait);
    shared.metrics.run_time.record_duration(run_time);
    if let (Some(trace), Some(dispatch_ns)) = (&shared.trace, trace_dispatch_ns) {
        // The queued span is reconstructed arithmetically from the
        // measured wait rather than stamped at submit time: the submit
        // thread already emits its own span, and subtracting the wait
        // from the dispatch stamp keeps the two spans adjacent even
        // when clocks are read on different threads.
        let wait_ns = u64::try_from(queue_wait.as_nanos()).unwrap_or(u64::MAX);
        trace.record(SpanEvent {
            kind: SpanKind::Queued,
            label: 0,
            trace: id,
            tid: worker as u32,
            start_ns: dispatch_ns.saturating_sub(wait_ns),
            end_ns: dispatch_ns,
            a: match priority {
                Priority::High => 1,
                Priority::Normal => 0,
            },
            b: 0,
        });
        trace.record(SpanEvent {
            kind: SpanKind::Run,
            label: 0,
            trace: id,
            tid: worker as u32,
            start_ns: dispatch_ns,
            end_ns: now_ns(),
            a: worker as u64,
            b: dispatch_seq,
        });
    }
    let metrics = JobMetrics {
        id,
        priority,
        worker,
        dispatch_seq,
        queue_wait,
        run_time,
        cache_hit,
    };
    // The client may have dropped its handle; an undeliverable result is
    // not a worker error.
    let _ = events.send(JobEvent::Done { result, metrics });
}

/// Wraps a journal IO failure mid-job. The device did nothing wrong, but
/// a durable job whose checkpoints cannot be written must fail loudly
/// rather than silently degrade to un-journaled execution.
fn journal_err(e: std::io::Error) -> JobError {
    JobError::Device(DeviceError::Config(format!("journal write failed: {e}")))
}

/// The per-job [`SessionTracer`] (shot-batch spans tagged with the
/// job's trace id and the worker's lane), or `None` on an untraced
/// pool. Set on *every* session a job runs on — warm sessions are
/// reused across jobs, so each job must overwrite the previous one's
/// tracer (or clear it when tracing is off).
fn session_tracer(shared: &PoolShared, id: JobId, worker: usize) -> Option<SessionTracer> {
    shared.trace.as_ref().map(|buf| SessionTracer {
        buf: buf.clone(),
        trace_id: id,
        tid: worker as u32,
    })
}

/// Runs one job. A batch job runs as one loop over item blocks of its
/// [`Batch`], inline on the worker's warm session: a block is a streamed
/// shot chunk, a checkpoint of a sweep on a journaled pool (result-log
/// frame + WAL checkpoint, durable before the next block starts), or
/// else the whole batch. Shot seeds continue the session's counter and
/// sweep points carry their own seeds, so the block concatenation is
/// bit-identical to one whole-batch call — and a recovered sweep resumed
/// at `resume.done` with the journaled prefix prepended reproduces the
/// uninterrupted result exactly.
fn execute(
    worker: usize,
    shared: &Arc<PoolShared>,
    warm: &mut WarmSet,
    events: &channel::Sender<JobEvent>,
    id: JobId,
    job: crate::job::Job,
) -> Result<JobOutput, JobError> {
    let batch = match job.kind {
        JobKind::Batch(batch) => batch,
        JobKind::Experiment(erased) => {
            let mut session = warm.fresh_session(&erased.device_config(), shared)?;
            session.set_tracer(session_tracer(shared, id, worker));
            let output = erased.run_erased(&mut session)?;
            return Ok(JobOutput::Experiment(output));
        }
    };
    let session = warm.warm_session(job.device.as_ref().unwrap_or(&shared.base), shared)?;
    session.set_tracer(session_tracer(shared, id, worker));
    if let Some(plan) = job.plan {
        session.set_seed_plan(plan);
    }
    let shots = matches!(batch, Batch::Shots { .. });
    // Only journaled sweeps checkpoint; a journaled shot batch is written
    // whole on completion.
    let journal = match (&shared.journal, &job.spec) {
        (Some(journal), Some(_)) if !shots => Some(journal),
        _ => None,
    };
    let total = batch.len();
    // Any nonzero chunk streams — `chunk >= shots` still emits the one
    // covering chunk a streaming client waits for.
    let block = match (job.chunk, journal) {
        (0, Some(journal)) if journal.checkpoint_every > 0 => journal.checkpoint_every,
        (0, _) => total as u64,
        (chunk, _) => chunk,
    };
    let block = usize::try_from(block).unwrap_or(usize::MAX).max(1);
    let (mut at, mut all) = match job.resume {
        Some(r) => ((r.done as usize).min(total), r.prefix),
        None => (0, Vec::with_capacity(total)),
    };
    while at < total {
        let n = block.min(total - at);
        let reports = session.run_batch(&batch.slice(at..at + n), 1)?.shots;
        if job.chunk > 0 {
            let _ = events.send(JobEvent::Chunk(ShotChunk {
                first_shot: at as u64,
                reports: reports.clone(),
            }));
        }
        if let Some(journal) = journal {
            let (offset, len) = journal
                .append_reports_traced(&reports, id)
                .map_err(journal_err)?;
            let checkpoint = WalRecord::Checkpoint {
                id,
                done: (at + n) as u64,
                offset,
                len,
            };
            journal
                .append_traced(&checkpoint, id)
                .map_err(journal_err)?;
        }
        all.extend(reports);
        at += n;
        shared.metrics.executed_shots.add(n as u64);
    }
    Ok(if shots {
        JobOutput::Batch(BatchReport { shots: all })
    } else {
        JobOutput::Reports(all)
    })
}
