//! The closed-loop load: set-up of the served stack, and timed phases in
//! which each client waits for a verified result before it submits its
//! next job.

use crate::check::{check_body, matches, Failure, Tally};
use crate::spans::{Recorder, Span};
use crate::stats;
use crate::workload::{shots_config, JobInput, Workload, POOL_WORKERS, QUEUE_DEPTH};
use quma_journal::{FsyncPolicy, JournalConfig};
use quma_pool::prelude::{DevicePool, PoolConfig};
use quma_serve::prelude::{MiniClient, Server, ServerConfig};
use quma_serve::Json;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Jobs each client runs during set-up, before anything is timed: they
/// fill the program cache and build the workers' warm devices.
pub const WARMUP_JOBS_PER_CLIENT: u64 = 4;

/// A job that has not finished after this long counts as failed.
const JOB_TIMEOUT: Duration = Duration::from_secs(30);

/// A generated job with its wire body and its reference result.
pub struct Prepared {
    /// The job.
    pub input: JobInput,
    /// Its `POST /jobs` body.
    pub wire: Json,
    /// The expected result document.
    pub expected: Json,
}

/// The benchmark's journal: in `dir`, inside the checkout, with fsync
/// off. It stands in for a journal on tmpfs: every record is still
/// encoded, checksummed and written, but the shared disk under the
/// checkout is kept out of the figures (`served_shots` writes ~33 KB of
/// journal per job; forcing that to disk made every run depend on the
/// host's I/O load).
pub fn journal_config(dir: &Path) -> JournalConfig {
    JournalConfig::new(dir).with_fsync(FsyncPolicy::Never)
}

/// A journaled pool behind an HTTP server, on a fresh journal directory.
pub struct Stack {
    server: Server,
    /// The journal directory.
    pub journal: PathBuf,
}

impl Stack {
    /// Starts pool, journal and server. `dir` must not exist yet.
    pub fn start(dir: &Path) -> Stack {
        let pool = DevicePool::new(
            PoolConfig::new(shots_config())
                .with_workers(POOL_WORKERS)
                .with_queue_depth(QUEUE_DEPTH)
                .with_journal(journal_config(dir)),
        )
        .expect("journaled pool starts");
        // No quota: every submission is admitted, so a refusal can only
        // be a defect.
        let server =
            Server::start(pool, ServerConfig::new().without_quota()).expect("server binds");
        Stack {
            server,
            journal: dir.to_path_buf(),
        }
    }

    /// One keep-alive client per closed-loop caller.
    pub fn clients(&self, count: usize) -> Vec<MiniClient> {
        (0..count)
            .map(|i| MiniClient::connect(self.server.local_addr(), format!("bench-{i}")))
            .collect()
    }

    /// Drains and stops the server, then deletes the journal.
    pub fn stop(self) {
        self.server.shutdown();
        std::fs::remove_dir_all(&self.journal).ok();
    }
}

/// When a phase stops submitting: at a deadline, or once each client has
/// run a number of jobs, whichever comes first.
#[derive(Clone, Copy)]
pub struct Until {
    deadline: Instant,
    /// Jobs per client.
    jobs: u64,
}

impl Until {
    /// Submit no new job after `at`.
    pub fn deadline(at: Instant) -> Self {
        Self {
            deadline: at,
            jobs: u64::MAX,
        }
    }

    /// Each client runs `per_client` jobs.
    pub fn jobs(per_client: u64) -> Self {
        Self {
            deadline: Instant::now() + Duration::from_secs(24 * 3600),
            jobs: per_client,
        }
    }

    /// Whether a client that has run `done` jobs submits another.
    fn more(self, done: u64) -> bool {
        done < self.jobs && Instant::now() < self.deadline
    }
}

/// What one served job cost, seen from its client.
#[derive(Debug, Clone, Copy)]
pub struct ServedTiming {
    /// Submit to verified result.
    pub total: Duration,
    /// The `POST /jobs` round trip.
    pub submit: Duration,
    /// The `GET /jobs/{id}/result` that returned 200.
    pub result: Duration,
    /// `409` answers before the result.
    pub polls: u64,
    /// Result body size.
    pub result_bytes: usize,
}

/// Submits one job, polls at a fixed interval until its result is
/// ready, and checks the result against its reference.
pub fn served_job(
    http: &mut MiniClient,
    job: &Prepared,
    poll: Duration,
    rec: &mut Recorder,
    seq: u64,
) -> Result<ServedTiming, Failure> {
    let t0 = Instant::now();
    let transport = |e: std::io::Error| Failure::Transport(e.to_string());
    let submitted = rec
        .time("serve.submit", seq, || http.post_json("/jobs", &job.wire))
        .map_err(transport)?;
    let submit = t0.elapsed();
    if submitted.status != 201 {
        return Err(Failure::Status(submitted.status, submitted.text()));
    }
    let id = submitted
        .json()
        .ok()
        .and_then(|doc| doc.get("id").and_then(Json::as_u64))
        .ok_or_else(|| Failure::Status(201, format!("no job id in {}", submitted.text())))?;
    let path = format!("/jobs/{id}/result");
    let mut polls = 0;
    loop {
        std::thread::sleep(poll);
        let asked = Instant::now();
        let response = http.get(&path).map_err(transport)?;
        match response.status {
            200 => {
                rec.record("serve.result", seq, asked);
                let result = asked.elapsed();
                rec.time("bench.check", seq, || {
                    check_body(&job.expected, &response.body)
                })?;
                return Ok(ServedTiming {
                    total: t0.elapsed(),
                    submit,
                    result,
                    polls,
                    result_bytes: response.body.len(),
                });
            }
            409 => {
                rec.record("serve.poll", seq, asked);
                polls += 1;
                if t0.elapsed() > JOB_TIMEOUT {
                    return Err(Failure::Transport(format!(
                        "job {id} unfinished after {JOB_TIMEOUT:?}"
                    )));
                }
            }
            status => return Err(Failure::Status(status, response.text())),
        }
    }
}

/// Reads the process's peak RSS once, when the `at`-th job completes.
pub struct RssProbe {
    at: u64,
    done: AtomicU64,
    peak_mb: OnceLock<f64>,
}

impl RssProbe {
    /// A probe that fires on the `at`-th completed job.
    pub fn new(at: u64) -> Self {
        Self {
            at,
            done: AtomicU64::new(0),
            peak_mb: OnceLock::new(),
        }
    }

    fn completed(&self) {
        if self.done.fetch_add(1, Ordering::Relaxed) + 1 == self.at {
            self.peak_mb.get_or_init(stats::peak_rss_mb);
        }
    }

    /// The reading, if the probe has fired.
    pub fn peak_mb(&self) -> Option<f64> {
        self.peak_mb.get().copied()
    }
}

/// Counters and samples of one phase.
#[derive(Default)]
pub struct Phase {
    /// Client-observed job latencies (submit to verified result), ms.
    pub latency_ms: Vec<f64>,
    /// `409` answers across all jobs.
    pub polls: u64,
    /// Jobs run, and which failed.
    pub tally: Tally,
    /// Wall time from the first submission to the last result, s.
    pub elapsed_s: f64,
    /// Process CPU (user + system) over the same window, s.
    pub cpu_s: f64,
    /// Recorded spans (traced phases only).
    pub spans: Vec<Span>,
}

impl Phase {
    /// Jobs that completed with a verified result.
    pub fn completed(&self) -> u64 {
        self.tally.completed()
    }

    /// Completed jobs per second of elapsed time.
    pub fn jobs_per_s(&self) -> f64 {
        self.completed() as f64 / self.elapsed_s
    }

    /// Folds a later phase into this one, its time and CPU included.
    pub fn merge(&mut self, other: Phase) {
        self.elapsed_s += other.elapsed_s;
        self.cpu_s += other.cpu_s;
        self.absorb(other);
    }

    fn absorb(&mut self, other: Phase) {
        self.latency_ms.extend(other.latency_ms);
        self.polls += other.polls;
        self.tally.add(&other.tally);
        self.spans.extend(other.spans);
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs the served closed loop: one thread per client, each taking the
/// next job from the shared cursor `next` (cycling through `jobs`).
pub fn served_phase(
    clients: &mut [MiniClient],
    jobs: &[Prepared],
    poll: Duration,
    until: Until,
    next: &AtomicU64,
    probe: &RssProbe,
    recorders: Option<Instant>,
) -> Phase {
    let cpu0 = stats::cpu_seconds();
    let start = Instant::now();
    let parts: Vec<(Phase, Instant)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(tid, http)| {
                scope.spawn(move || {
                    let mut rec =
                        Recorder::new(recorders.unwrap_or(start), tid as u32, recorders.is_some());
                    let mut phase = Phase::default();
                    let mut done = 0;
                    let mut last = Instant::now();
                    loop {
                        if !until.more(done) {
                            break;
                        }
                        let seq = next.fetch_add(1, Ordering::Relaxed);
                        let job = &jobs[(seq % jobs.len() as u64) as usize];
                        let t0 = Instant::now();
                        match served_job(http, job, poll, &mut rec, seq) {
                            Ok(t) => {
                                phase.tally.record(Ok(()));
                                probe.completed();
                                rec.record("bench.job", seq, t0);
                                phase.latency_ms.push(ms(t.total));
                                phase.polls += t.polls;
                            }
                            Err(f) => {
                                phase.tally.record(Err(f));
                            }
                        }
                        done += 1;
                        last = Instant::now();
                    }
                    phase.spans = rec.into_spans();
                    (phase, last)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let end = parts.iter().map(|(_, t)| *t).max().unwrap_or(start);
    let mut total = Phase {
        elapsed_s: end.duration_since(start).as_secs_f64(),
        cpu_s: stats::cpu_seconds() - cpu0,
        ..Phase::default()
    };
    for (part, _) in parts {
        total.absorb(part);
    }
    total
}

/// Runs the in-process closed loop: one caller running the harness back
/// to back.
pub fn engine_phase(
    jobs: &[Prepared],
    until: Until,
    next: &AtomicU64,
    probe: &RssProbe,
    recorders: Option<Instant>,
) -> Phase {
    let cpu0 = stats::cpu_seconds();
    let start = Instant::now();
    let mut rec = Recorder::new(recorders.unwrap_or(start), 0, recorders.is_some());
    let mut phase = Phase::default();
    let mut done = 0;
    loop {
        if !until.more(done) {
            break;
        }
        let seq = next.fetch_add(1, Ordering::Relaxed);
        let job = &jobs[(seq % jobs.len() as u64) as usize];
        let t0 = Instant::now();
        let doc = rec.time("experiments.harness_run", seq, || job.input.run_harness());
        let checked = rec.time("bench.check", seq, || matches(&job.expected, &doc));
        if phase.tally.record(checked.map_err(Failure::Mismatch)) {
            probe.completed();
            rec.record("bench.job", seq, t0);
            phase.latency_ms.push(ms(t0.elapsed()));
        }
        done += 1;
    }
    phase.elapsed_s = start.elapsed().as_secs_f64();
    phase.cpu_s = stats::cpu_seconds() - cpu0;
    phase.spans = rec.into_spans();
    phase
}

/// A workload's closed loop, served or in process.
///
/// A served loop runs at most [`Workload::stack_jobs`] jobs on one stack,
/// then replaces it with a fresh one — server, pool and journal — between
/// timed windows. That bounds the journal's files and the server's
/// finished-job registry, which grow with every job served.
pub struct Load<'a> {
    workload: Workload,
    jobs: &'a [Prepared],
    /// Where each stack journals, in a directory of its own.
    dir: PathBuf,
    stack: Option<Stack>,
    clients: Vec<MiniClient>,
    /// Stacks started so far.
    stacks: u64,
    /// Jobs run on the current stack, its warm-up included.
    on_stack: u64,
    next: AtomicU64,
    /// Seconds each set-up took, in order.
    pub setups: Vec<f64>,
    /// The warm-ups' jobs.
    pub warmup: Tally,
}

/// A phase's options.
pub struct Timed<'p> {
    /// When the phase stops submitting.
    pub until: Until,
    /// The peak-RSS probe its completed jobs count towards.
    pub probe: &'p RssProbe,
    /// Span epoch; `Some` turns span recording on.
    pub trace_epoch: Option<Instant>,
}

impl<'a> Load<'a> {
    /// A loop over `jobs` for `workload`, set up and warmed (stacks
    /// journal under `dir`).
    pub fn start(workload: Workload, jobs: &'a [Prepared], dir: &Path) -> Self {
        let mut load = Self {
            workload,
            jobs,
            dir: dir.to_path_buf(),
            stack: None,
            clients: Vec::new(),
            stacks: 0,
            on_stack: 0,
            next: AtomicU64::new(0),
            setups: Vec::new(),
            warmup: Tally::default(),
        };
        load.set_up();
        load
    }

    /// One set-up: pool, journal and server on a fresh directory (served
    /// workloads), the clients, and the fixed warm-up.
    fn set_up(&mut self) {
        let journal = self.dir.join(format!("stack-{}", self.stacks));
        self.stacks += 1;
        std::fs::remove_dir_all(&journal).ok();
        let t0 = Instant::now();
        if self.workload.served() {
            let stack = Stack::start(&journal);
            self.clients = stack.clients(self.workload.clients());
            self.stack = Some(stack);
        }
        self.on_stack = 0;
        let warm = self.segment(Timed {
            until: Until::jobs(WARMUP_JOBS_PER_CLIENT),
            probe: &RssProbe::new(0),
            trace_epoch: None,
        });
        self.setups.push(t0.elapsed().as_secs_f64());
        self.warmup.add(&warm.tally);
    }

    fn tear_down(&mut self) {
        // Close the keep-alive connections before the server drains.
        self.clients.clear();
        if let Some(stack) = self.stack.take() {
            stack.stop();
        }
    }

    /// Journal bytes per job on the current stack (served workloads).
    pub fn journal_bytes_per_job(&self) -> Option<u64> {
        let stack = self.stack.as_ref()?;
        Some(stats::dir_bytes(&stack.journal) / self.on_stack.max(1))
    }

    /// One window on the current stack.
    fn segment(&mut self, phase: Timed<'_>) -> Phase {
        let out = if self.workload.served() {
            served_phase(
                &mut self.clients,
                self.jobs,
                self.workload.poll_interval(),
                phase.until,
                &self.next,
                phase.probe,
                phase.trace_epoch,
            )
        } else {
            engine_phase(
                self.jobs,
                phase.until,
                &self.next,
                phase.probe,
                phase.trace_epoch,
            )
        };
        self.on_stack += out.tally.attempted;
        out
    }

    /// Runs one phase: windows on successive stacks, whose time and CPU
    /// add up; replacing a full stack is not timed.
    pub fn run(&mut self, phase: Timed<'_>) -> Phase {
        let clients = self.workload.clients() as u64;
        let mut left = phase.until.jobs;
        let mut total = Phase::default();
        loop {
            let room = if self.workload.served() {
                self.workload.stack_jobs().saturating_sub(self.on_stack) / clients
            } else {
                u64::MAX
            };
            if room == 0 {
                self.tear_down();
                self.set_up();
                continue;
            }
            let jobs = left.min(room);
            total.merge(self.segment(Timed {
                until: Until {
                    jobs,
                    ..phase.until
                },
                ..phase
            }));
            left -= jobs;
            if left == 0 || Instant::now() >= phase.until.deadline {
                return total;
            }
        }
    }
}

impl Drop for Load<'_> {
    fn drop(&mut self) {
        self.tear_down();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::references;

    fn prepared(workload: Workload, n: usize) -> Vec<Prepared> {
        let inputs: Vec<JobInput> = workload.jobs(3).into_iter().take(n).collect();
        let expected = references(&inputs);
        inputs
            .into_iter()
            .zip(expected)
            .map(|(input, expected)| Prepared {
                wire: input.wire(),
                input,
                expected,
            })
            .collect()
    }

    /// Moves the first float in `doc` by one ulp.
    fn corrupt(doc: &mut Json) -> bool {
        match doc {
            Json::Float(f) => {
                *f = f64::from_bits(f.to_bits() ^ 1);
                true
            }
            Json::Arr(items) => items.iter_mut().any(corrupt),
            Json::Obj(pairs) => pairs.iter_mut().any(|(_, v)| corrupt(v)),
            _ => false,
        }
    }

    #[test]
    fn a_served_result_that_differs_from_its_reference_counts_as_failed() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("work")
            .join(format!("test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let stack = Stack::start(&dir);
        let mut jobs = prepared(Workload::ServedShots, 2);
        assert!(corrupt(&mut jobs[1].expected), "a shot result holds floats");
        let mut clients = stack.clients(1);
        let phase = served_phase(
            &mut clients,
            &jobs,
            Workload::ServedShots.poll_interval(),
            Until::jobs(2),
            &AtomicU64::new(0),
            &RssProbe::new(0),
            None,
        );
        drop(clients);
        stack.stop();
        let tally = &phase.tally;
        assert_eq!(tally.attempted, 2);
        assert_eq!(tally.failed, 1, "{:?}", tally.failures);
        assert_eq!(tally.mismatches, 1);
        assert_eq!(phase.latency_ms.len(), 1, "only the verified job is timed");
        assert!(tally.failures[0].contains("differs from reference"));
    }

    #[test]
    fn an_in_process_result_that_differs_from_its_reference_counts_as_failed() {
        let mut jobs = prepared(Workload::EngineAllxy, 2);
        assert!(corrupt(&mut jobs[0].expected));
        let phase = engine_phase(
            &jobs,
            Until::jobs(2),
            &AtomicU64::new(0),
            &RssProbe::new(0),
            None,
        );
        let tally = &phase.tally;
        assert_eq!((tally.attempted, tally.failed, tally.mismatches), (2, 1, 1));
    }
}
