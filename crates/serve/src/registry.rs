//! The served-job registry: the server's view of every job it has
//! submitted on a client's behalf.
//!
//! The pool hands back a [`JobHandle`] per submission; the registry owns
//! those handles and *pumps* them lazily — every HTTP touch of a job
//! (status poll, result fetch, chunk read, listing) drains whatever
//! events the handle has buffered. No background reaper thread exists:
//! a job whose client never polls simply keeps its events buffered in
//! the handle's channel, exactly as an un-served pool client would.

use std::collections::HashMap;
use std::sync::Mutex;

use crate::json::Json;
use crate::problem::ProblemJson;
use crate::wire;
use quma_pool::prelude::{CancelOutcome, JobError, JobHandle, JobId, JobPhase, JobSpec};

/// A job's terminal state as the server remembers it once the handle has
/// been consumed.
enum Outcome {
    /// Finished successfully; the rendered result document.
    Done(Json),
    /// Failed; the error detail served as a `job_failed` problem.
    Failed(String),
    /// Cancelled while queued; it never ran.
    Cancelled,
}

/// How a job enters the registry (see [`Registry::insert`]): live for a
/// fresh submission, any of these for a journal-recovered job.
pub(crate) enum Seed {
    /// Finished before the crash; served from the result log.
    Done {
        /// The rendered result document.
        result: Json,
        /// Re-rendered chunk documents (chunked shot batches only).
        chunks: Vec<Json>,
    },
    /// Durably failed with this detail.
    Failed(String),
    /// Durably cancelled; `DELETE` now answers 409.
    Cancelled,
    /// Still has work: the pool's handle (for a recovered job, the one
    /// `DevicePool::recover` or an opaque resubmission returned, under
    /// the job's original id).
    Live(JobHandle),
}

/// A job's registry labels, read off its spec: the wire kind and, for
/// experiment jobs, the experiment name.
pub(crate) fn labels(spec: &JobSpec) -> (&'static str, Option<&'static str>) {
    let experiment = match spec {
        JobSpec::Opaque { tag, .. } => wire::EXPERIMENTS.into_iter().find(|name| name == tag),
        _ => None,
    };
    (spec.kind(), experiment)
}

/// One served job.
struct Record {
    kind: &'static str,
    experiment: Option<&'static str>,
    client: String,
    /// Live handle; `None` once the terminal event has been consumed.
    handle: Option<JobHandle>,
    /// Streamed chunks, already encoded, in arrival order.
    chunks: Vec<Json>,
    outcome: Option<Outcome>,
    metrics: Option<Json>,
}

impl Record {
    /// Drains buffered events from the handle: accumulates chunks and,
    /// when the terminal event has arrived, consumes the handle into an
    /// [`Outcome`].
    fn pump(&mut self) {
        let Some(handle) = self.handle.as_mut() else {
            return;
        };
        while let Some(chunk) = handle.try_next_chunk() {
            self.chunks.push(wire::encode_chunk(&chunk));
        }
        if !handle.is_finished() {
            return;
        }
        // `is_finished` buffered the Done event, so metrics are ready
        // and `wait` returns without blocking.
        self.metrics = handle.metrics().map(wire::encode_metrics);
        let handle = self.handle.take().expect("handle present");
        self.outcome = Some(match handle.wait() {
            Ok(output) => Outcome::Done(wire::encode_output(output)),
            Err(JobError::Cancelled) => Outcome::Cancelled,
            Err(e) => Outcome::Failed(e.to_string()),
        });
    }

    /// The lifecycle phase as a wire string.
    fn phase_str(&self) -> &'static str {
        match (&self.outcome, self.handle.as_ref().map(JobHandle::phase)) {
            (Some(Outcome::Done(_)), _) => "finished",
            (Some(Outcome::Failed(_)), _) => "failed",
            (Some(Outcome::Cancelled), _) => "cancelled",
            (None, Some(JobPhase::Queued)) => "queued",
            (None, Some(JobPhase::Running)) => "running",
            (None, Some(JobPhase::Finished)) => "finished",
            (None, Some(JobPhase::Cancelled)) => "cancelled",
            (None, None) => "finished",
        }
    }

    /// The compact status document (`GET /jobs/{id}` and list entries).
    fn status_json(&self, id: JobId) -> Json {
        let mut pairs = vec![
            ("id".to_string(), Json::Int(id.min(i64::MAX as u64) as i64)),
            ("kind".to_string(), Json::str(self.kind)),
            ("phase".to_string(), Json::str(self.phase_str())),
            ("client".to_string(), Json::str(self.client.clone())),
            (
                "chunks_available".to_string(),
                Json::Int(self.chunks.len() as i64),
            ),
        ];
        if let Some(name) = self.experiment {
            pairs.insert(2, ("experiment".to_string(), Json::str(name)));
        }
        if let Some(metrics) = &self.metrics {
            pairs.push(("metrics".to_string(), metrics.clone()));
        }
        if let Some(Outcome::Failed(detail)) = &self.outcome {
            pairs.push(("error".to_string(), Json::str(detail.clone())));
        }
        Json::Obj(pairs)
    }
}

/// The registry: job records by id, plus submission order for stable
/// pagination.
pub(crate) struct Registry {
    inner: Mutex<Inner>,
}

struct Inner {
    records: HashMap<JobId, Record>,
    /// Ids in submission order (drives `GET /jobs` pagination).
    order: Vec<JobId>,
}

impl Registry {
    pub(crate) fn new() -> Self {
        Self {
            inner: Mutex::new(Inner {
                records: HashMap::new(),
                order: Vec::new(),
            }),
        }
    }

    /// Registers a job under its pool id with its [`labels`] and
    /// returns its status doc. A journal-recovered job keeps its
    /// *original* id, so clients polling `/jobs/{id}` across the restart
    /// keep hitting the same job; its terminal seeds carry
    /// already-encoded documents.
    pub(crate) fn insert(
        &self,
        id: JobId,
        (kind, experiment): (&'static str, Option<&'static str>),
        client: String,
        seed: Seed,
    ) -> Json {
        let mut record = Record {
            kind,
            experiment,
            client,
            handle: None,
            chunks: Vec::new(),
            outcome: None,
            metrics: None,
        };
        match seed {
            Seed::Done { result, chunks } => {
                record.chunks = chunks;
                record.outcome = Some(Outcome::Done(result));
            }
            Seed::Failed(detail) => record.outcome = Some(Outcome::Failed(detail)),
            Seed::Cancelled => record.outcome = Some(Outcome::Cancelled),
            Seed::Live(handle) => record.handle = Some(handle),
        }
        let status = record.status_json(id);
        let mut inner = self.inner.lock().expect("registry poisoned");
        inner.order.push(id);
        inner.records.insert(id, record);
        status
    }

    /// `GET /jobs/{id}`.
    pub(crate) fn status(&self, id: JobId) -> Result<Json, ProblemJson> {
        let mut inner = self.inner.lock().expect("registry poisoned");
        let record = known(&mut inner, id)?;
        record.pump();
        Ok(record.status_json(id))
    }

    /// `GET /jobs/{id}/result`: 409 while pending, a `job_failed`
    /// problem for failed jobs, 409 `state_conflict` for cancelled ones.
    pub(crate) fn result(&self, id: JobId) -> Result<Json, ProblemJson> {
        let mut inner = self.inner.lock().expect("registry poisoned");
        let record = known(&mut inner, id)?;
        record.pump();
        match &record.outcome {
            Some(Outcome::Done(doc)) => Ok(doc.clone()),
            Some(Outcome::Failed(detail)) => {
                Err(
                    ProblemJson::new(500, "job_failed", "job execution failed", detail.clone())
                        .with_context("id", Json::Int(id.min(i64::MAX as u64) as i64)),
                )
            }
            Some(Outcome::Cancelled) => Err(ProblemJson::state_conflict(format!(
                "job {id} was cancelled while queued; it has no result"
            ))
            .with_context("phase", Json::str("cancelled"))),
            None => Err(ProblemJson::state_conflict(format!(
                "job {id} has not finished; poll GET /jobs/{id} until its \
                 phase is \"finished\""
            ))
            .with_context("phase", Json::str(record.phase_str()))),
        }
    }

    /// `GET /jobs/{id}/chunks?from=`: everything streamed so far from
    /// chunk index `from`, plus whether the stream is complete.
    pub(crate) fn chunks(&self, id: JobId, from: usize) -> Result<Json, ProblemJson> {
        let mut inner = self.inner.lock().expect("registry poisoned");
        let record = known(&mut inner, id)?;
        record.pump();
        let total = record.chunks.len();
        let page: Vec<Json> = record.chunks.iter().skip(from).cloned().collect();
        Ok(Json::obj([
            ("id", Json::Int(id.min(i64::MAX as u64) as i64)),
            ("from", Json::Int(from.min(i64::MAX as usize) as i64)),
            ("chunks", Json::Arr(page)),
            ("total", Json::Int(total as i64)),
            ("complete", Json::Bool(record.outcome.is_some())),
        ]))
    }

    /// `DELETE /jobs/{id}`: typed cancel. `Ok` only for the request that
    /// actually cancels the queued job; a repeat `DELETE` — or one
    /// against a job recovered as cancelled — answers 409
    /// `state_conflict`, because a durable cancellation is a terminal
    /// state, not a repeatable action.
    pub(crate) fn cancel(&self, id: JobId) -> Result<Json, ProblemJson> {
        let mut inner = self.inner.lock().expect("registry poisoned");
        let record = known(&mut inner, id)?;
        record.pump();
        let already_cancelled = matches!(record.outcome, Some(Outcome::Cancelled))
            || record
                .handle
                .as_ref()
                .is_some_and(|h| h.phase() == JobPhase::Cancelled);
        if already_cancelled {
            return Err(ProblemJson::state_conflict(format!(
                "job {id} is already cancelled; nothing left to cancel"
            ))
            .with_context("phase", Json::str("cancelled")));
        }
        let outcome = match (&record.outcome, record.handle.as_mut()) {
            (Some(_), _) | (None, None) => CancelOutcome::Finished,
            (None, Some(handle)) => handle.cancel(),
        };
        match outcome {
            CancelOutcome::Cancelled => {
                record.pump();
                Ok(Json::obj([
                    ("id", Json::Int(id.min(i64::MAX as u64) as i64)),
                    ("cancelled", Json::Bool(true)),
                ]))
            }
            CancelOutcome::Running => Err(ProblemJson::state_conflict(format!(
                "job {id} is already running; only queued jobs can be cancelled"
            ))
            .with_context("phase", Json::str("running"))),
            CancelOutcome::Finished => Err(ProblemJson::state_conflict(format!(
                "job {id} already finished; nothing to cancel"
            ))
            .with_context("phase", Json::str(record.phase_str()))),
        }
    }

    /// `GET /jobs?limit=&offset=`: a stable page over submission order.
    pub(crate) fn list(&self, limit: usize, offset: usize) -> Json {
        let mut inner = self.inner.lock().expect("registry poisoned");
        let total = inner.order.len();
        let ids: Vec<JobId> = inner
            .order
            .iter()
            .skip(offset)
            .take(limit)
            .copied()
            .collect();
        let mut page = Vec::with_capacity(ids.len());
        for id in ids {
            if let Some(record) = inner.records.get_mut(&id) {
                record.pump();
                page.push(record.status_json(id));
            }
        }
        Json::obj([
            ("jobs", Json::Arr(page)),
            ("total", Json::Int(total as i64)),
            ("limit", Json::Int(limit.min(i64::MAX as usize) as i64)),
            ("offset", Json::Int(offset.min(i64::MAX as usize) as i64)),
        ])
    }

    /// Jobs tracked (all lifecycle states).
    pub(crate) fn len(&self) -> usize {
        self.inner.lock().expect("registry poisoned").order.len()
    }
}

fn known(inner: &mut Inner, id: JobId) -> Result<&mut Record, ProblemJson> {
    if inner.records.contains_key(&id) {
        Ok(inner.records.get_mut(&id).expect("checked"))
    } else {
        Err(ProblemJson::not_found(format!("no job with id {id}"))
            .with_context("id", Json::Int(id.min(i64::MAX as u64) as i64)))
    }
}
