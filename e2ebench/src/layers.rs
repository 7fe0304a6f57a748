//! Per-layer numbers for the traced run.
//!
//! Two sources, both timed from the benchmark's own code through each
//! crate's public API (nothing in the program is changed):
//!
//! * the **layer replay** sends the workload's own jobs, one at a time,
//!   through each level of the stack in turn — served over HTTP (server
//!   plus journaled pool), an in-process journaled `DevicePool`, an
//!   unjournaled `DevicePool`, and a direct `Session`. A layer's tax is
//!   the difference between the median job times of adjacent levels.
//! * **single calls** into the layers inside a job: `Session::new`,
//!   `Session::run_shots`, the chip's `drive` and `measure`, the MDU's
//!   `Discriminator::integrate`, the compiler, the assembler and
//!   `Journal::append_reports`, each on the workload's own program,
//!   device configuration and readout window.

use crate::check::{matches, Failure, Tally};
use crate::load::{journal_config, served_job, Prepared, Stack};
use crate::spans::Recorder;
use crate::stats::{dir_bytes, median};
use crate::workload::{compile_shots_kernel, SHOTS_PER_JOB, SHOTS_SOURCE};
use crate::workload::{shots_config, Direct, JobInput, Workload, POOL_WORKERS, QUEUE_DEPTH};
use quma_compiler::prelude::{GateSet, RepetitionCode};
use quma_core::prelude::{
    ChipProfile, Ctpg, DeviceConfig, MarkerPulse, MdRecord, RunReport, Session, TraceEvent,
};
use quma_experiments::allxy;
use quma_experiments::harness::Experiment;
use quma_experiments::qec;
use quma_isa::asm::Assembler;
use quma_isa::program::Program;
use quma_journal::wal::RESULT_FILE;
use quma_journal::Journal;
use quma_pool::prelude::{DevicePool, PoolConfig};
use quma_qsim::prelude::{ChipBackend, Discriminator, QuantumChip, StabilizerChip};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Jobs run through every level before the replay is timed.
const REPLAY_WARMUP: usize = 2;
/// The replay always times at least this many jobs per level, and at
/// most one served stack's worth ([`Workload::stack_jobs`]), so its
/// journals stay as small as the workload's.
const REPLAY_MIN_JOBS: usize = 10;

/// Result-log bytes the timed `append_reports` calls write at most.
const CALLS_LOG_BYTES: u64 = 8 << 20;

/// Replay level indices into [`Replay::rounds`].
pub const SERVED: usize = 0;
/// In-process journaled pool (`submit` → `wait`).
pub const JOURNALED: usize = 1;
/// In-process unjournaled pool.
pub const POOL: usize = 2;
/// Direct session.
pub const SESSION: usize = 3;

/// Job times per level of the replay, with the serving details.
#[derive(Default)]
pub struct Replay {
    /// Per replayed job, its time at each level in ms (indexed by
    /// [`SERVED`], [`JOURNALED`], [`POOL`], [`SESSION`]); only jobs that
    /// succeeded at every level.
    pub rounds: Vec<[f64; 4]>,
    /// `POST /jobs` round trips, ms.
    pub submit_ms: Vec<f64>,
    /// The result fetches that returned 200, ms.
    pub result_ms: Vec<f64>,
    /// `409` answers over all served jobs.
    pub polls: u64,
    /// Result body bytes over all served jobs.
    pub result_bytes: u64,
    /// Journal-directory growth of the journaled pool per replayed job.
    pub journal_bytes_per_job: f64,
    /// Jobs run across all levels, and which failed.
    pub tally: Tally,
}

impl Replay {
    /// Counts one job; its time since `started` in ms when it succeeded.
    fn outcome(&mut self, started: Instant, result: Result<(), Failure>) -> Option<f64> {
        let elapsed = started.elapsed().as_secs_f64() * 1e3;
        self.tally.record(result).then_some(elapsed)
    }

    /// Median job time at `level`, ms.
    pub fn median_ms(&self, level: usize) -> f64 {
        median(&self.rounds.iter().map(|r| r[level]).collect::<Vec<_>>())
    }

    /// What `upper` adds over `lower`: the median of the per-job paired
    /// differences, µs (pairing cancels drift between jobs).
    pub fn tax_us(&self, upper: usize, lower: usize) -> f64 {
        let diffs: Vec<f64> = self.rounds.iter().map(|r| r[upper] - r[lower]).collect();
        median(&diffs) * 1e3
    }
}

fn pool(journal: Option<&Path>) -> DevicePool {
    let config = PoolConfig::new(shots_config())
        .with_workers(POOL_WORKERS)
        .with_queue_depth(QUEUE_DEPTH);
    let config = match journal {
        Some(dir) => config.with_journal(journal_config(dir)),
        None => config,
    };
    DevicePool::new(config).expect("pool starts")
}

fn pool_job(pool: &DevicePool, job: &Prepared) -> Result<(), Failure> {
    let handle = pool
        .submit(job.input.pool_job(pool))
        .map_err(|e| Failure::Pool(format!("submit refused: {e}")))?;
    let output = handle
        .wait()
        .map_err(|e| Failure::Pool(format!("job failed: {e}")))?;
    let doc = job
        .input
        .output_doc(output)
        .ok_or_else(|| Failure::Mismatch("pool output of the wrong kind".into()))?;
    matches(&job.expected, &doc).map_err(Failure::Mismatch)
}

/// Runs the workload's jobs through every level, round robin, for about
/// `budget` (bounded by [`REPLAY_MIN_JOBS`] and [`Workload::stack_jobs`]).
pub fn replay(
    workload: Workload,
    jobs: &[Prepared],
    work: &Path,
    budget: Duration,
    rec: &mut Recorder,
) -> Replay {
    let stack = Stack::start(&work.join("replay-served"));
    let mut http = stack.clients(1).remove(0);
    let journal_dir = work.join("replay-journal");
    std::fs::remove_dir_all(&journal_dir).ok();
    let journaled = pool(Some(&journal_dir));
    let bare = pool(None);
    let mut direct = Direct::default();
    let poll = workload.poll_interval();
    let mut out = Replay::default();
    let mut warm = Recorder::new(Instant::now(), 0, false);
    for (i, job) in jobs.iter().take(REPLAY_WARMUP).enumerate() {
        let served = served_job(&mut http, job, poll, &mut warm, i as u64).map(|_| ());
        let results = [
            served,
            pool_job(&journaled, job),
            pool_job(&bare, job),
            matches(&job.expected, &direct.run(&job.input)).map_err(Failure::Mismatch),
        ];
        for r in results {
            out.outcome(Instant::now(), r);
        }
    }
    let disk0 = dir_bytes(&journal_dir);
    let deadline = Instant::now() + budget;
    let max = workload.stack_jobs() as usize - REPLAY_WARMUP;
    let mut n = 0;
    while n < REPLAY_MIN_JOBS || (n < max && Instant::now() < deadline) {
        let job = &jobs[n % jobs.len()];
        let seq = n as u64;
        let t = Instant::now();
        let served = served_job(&mut http, job, poll, rec, seq).map(|timing| {
            out.submit_ms.push(timing.submit.as_secs_f64() * 1e3);
            out.result_ms.push(timing.result.as_secs_f64() * 1e3);
            out.polls += timing.polls;
            out.result_bytes += timing.result_bytes as u64;
        });
        rec.record("replay.served", seq, t);
        let served = out.outcome(t, served);

        let t = Instant::now();
        let r = rec.time("replay.pool_journaled", seq, || pool_job(&journaled, job));
        let journaled_ms = out.outcome(t, r);

        let t = Instant::now();
        let r = rec.time("replay.pool", seq, || pool_job(&bare, job));
        let pool_ms = out.outcome(t, r);

        let t = Instant::now();
        let doc = rec.time("replay.session", seq, || direct.run(&job.input));
        let r = matches(&job.expected, &doc).map_err(Failure::Mismatch);
        let session_ms = out.outcome(t, r);
        if let (Some(a), Some(b), Some(c), Some(d)) = (served, journaled_ms, pool_ms, session_ms) {
            out.rounds.push([a, b, c, d]);
        }
        n += 1;
    }
    out.journal_bytes_per_job = (dir_bytes(&journal_dir) - disk0) as f64 / n as f64;
    stack.stop();
    journaled.shutdown();
    bare.shutdown();
    std::fs::remove_dir_all(&journal_dir).ok();
    out
}

/// Single-call timings of the layers inside one job.
pub struct Calls {
    /// `Session::run_shots` per shot, µs.
    pub shot_us: f64,
    /// Heap bytes held by one `RunReport` of the workload's program.
    pub report_bytes: f64,
    /// `Session::new` for the workload's device configuration, ms.
    pub session_new_ms: f64,
    /// `ChipBackend::measure` over the workload's readout window, µs.
    pub measure_us: f64,
    /// `Discriminator::integrate` over that trace, µs.
    pub integrate_us: f64,
    /// `ChipBackend::drive` for one X90 pulse, µs.
    pub drive_us: f64,
    /// Measurement pulses per shot.
    pub measurements_per_shot: f64,
    /// Compiling the workload's program, ms.
    pub compile_ms: f64,
    /// Assembling the workload's program text, µs.
    pub assemble_us: f64,
    /// `Journal::append_reports` with one job's reports, µs.
    pub append_us: f64,
    /// Result-log growth per `append_reports`, bytes.
    pub frame_bytes: f64,
}

/// Median seconds per call of `f` over `reps` calls.
fn per_call(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Heap bytes a report holds (capacities, so what the allocator gave).
fn report_bytes(r: &RunReport) -> usize {
    std::mem::size_of::<RunReport>()
        + r.memory.capacity() * std::mem::size_of::<i32>()
        + r.collector_averages.capacity() * std::mem::size_of::<Vec<f64>>()
        + r.collector_averages
            .iter()
            .map(|q| q.capacity() * std::mem::size_of::<f64>())
            .sum::<usize>()
        + r.md_results.capacity() * std::mem::size_of::<MdRecord>()
        + r.trace.len() * std::mem::size_of::<TraceEvent>()
        + r.stats.ctpg_triggers.capacity() * std::mem::size_of::<u64>()
        + r.stats.marker_pulses.capacity() * std::mem::size_of::<MarkerPulse>()
}

/// What the single-call timings run on, per workload.
struct Subject {
    config: DeviceConfig,
    program: Program,
    /// The program as text, and the assembler that reads it.
    text: String,
    assembler: Assembler,
    compile: Box<dyn Fn() -> Program>,
    /// Shots per job, and the qubit whose chip calls are timed.
    shots_per_job: u64,
    qubit: usize,
}

fn subject(job: &JobInput) -> Subject {
    match job {
        JobInput::Shots(_) => {
            let assembler = Assembler::new();
            Subject {
                config: shots_config(),
                program: assembler.assemble(SHOTS_SOURCE).expect("shots source"),
                text: SHOTS_SOURCE.to_string(),
                assembler,
                compile: Box::new(compile_shots_kernel),
                shots_per_job: SHOTS_PER_JOB,
                qubit: 0,
            }
        }
        JobInput::Qec(cfg) => {
            let uops = RepetitionCode::gate_set().uops;
            let program = qec::code_for(cfg).compile();
            let cfg = cfg.clone();
            Subject {
                config: qec::device_config(&cfg),
                text: program.disassemble(&uops),
                program,
                assembler: Assembler::with_uops(uops),
                shots_per_job: cfg.shots,
                compile: Box::new(move || qec::code_for(&cfg).compile()),
                // An ancilla: measured every round.
                qubit: 1,
            }
        }
        JobInput::Allxy(cfg) => {
            let uops = GateSet::paper_default().uops;
            let program = allxy::build_program(cfg);
            let cfg = cfg.clone();
            Subject {
                config: allxy::Allxy.device_config(&cfg),
                text: program.disassemble(&uops),
                program,
                assembler: Assembler::with_uops(uops),
                shots_per_job: 1,
                compile: Box::new(move || allxy::build_program(&cfg)),
                qubit: 0,
            }
        }
    }
}

/// Times single calls into each layer on the workload's first job.
pub fn calls(job: &JobInput, work: &Path, rec: &mut Recorder) -> Calls {
    let s = subject(job);
    let reassembled = s
        .assembler
        .assemble(&s.text)
        .expect("program text assembles");
    assert_eq!(
        reassembled.instructions(),
        s.program.instructions(),
        "the program text reassembles to the same program"
    );
    // Heavier programs get fewer repetitions: aim for ~0.3 s per layer.
    let heavy = matches!(job, JobInput::Allxy(_));
    let reps = |light: usize| if heavy { (light / 20).max(5) } else { light };

    let t = Instant::now();
    let session_new = per_call(reps(40), || {
        black_box(Session::new(s.config.clone()).expect("device builds"));
    });
    rec.record("core.session_new", 0, t);

    let mut session = Session::new(s.config.clone()).expect("device builds");
    let loaded = session.load(&s.program);
    let t = Instant::now();
    let shot = per_call(reps(200), || {
        black_box(session.run_shots(&loaded, 1).expect("shot runs"));
    });
    rec.record("core.run_shots", 0, t);
    let reports = session
        .run_shots(&loaded, s.shots_per_job)
        .expect("job's shots run")
        .shots;
    let last = reports.last().expect("at least one shot");
    let measurements = last.stats.measurements as f64;

    let t = Instant::now();
    let compile = per_call(reps(100), || {
        black_box((s.compile)());
    });
    rec.record("compiler.compile", 0, t);
    let t = Instant::now();
    let assemble = per_call(reps(400), || {
        black_box(s.assembler.assemble(&s.text).expect("assembles"));
    });
    rec.record("isa.assemble", 0, t);

    let (measure, integrate, drive) = chip_calls(&s, rec);

    let dir = work.join("calls-journal");
    std::fs::remove_dir_all(&dir).ok();
    let journal = Journal::open(&journal_config(&dir)).expect("journal opens");
    let log_len = || std::fs::metadata(dir.join(RESULT_FILE)).map_or(0, |m| m.len());
    // One untimed append sizes the frame; the timed ones keep the result
    // log under `CALLS_LOG_BYTES`.
    let log0 = log_len();
    journal.append_reports(&reports).expect("append");
    let frame = (log_len() - log0).max(1);
    let appends = reps(200).min((CALLS_LOG_BYTES / frame) as usize).max(5);
    let log0 = log_len();
    let t = Instant::now();
    let append = per_call(appends, || {
        black_box(journal.append_reports(&reports).expect("append"));
    });
    rec.record("journal.append_reports", 0, t);
    let log1 = log_len();
    drop(journal);
    std::fs::remove_dir_all(&dir).ok();

    Calls {
        shot_us: shot * 1e6,
        report_bytes: report_bytes(last) as f64,
        session_new_ms: session_new * 1e3,
        measure_us: measure * 1e6,
        integrate_us: integrate * 1e6,
        drive_us: drive * 1e6,
        measurements_per_shot: measurements,
        compile_ms: compile * 1e3,
        assemble_us: assemble * 1e6,
        append_us: append * 1e6,
        frame_bytes: (log1 - log0) as f64 / appends as f64,
    }
}

/// Median seconds of `measure`, `integrate` and `drive` on the chip the
/// workload's device builds, over its readout window.
fn chip_calls(s: &Subject, rec: &mut Recorder) -> (f64, f64, f64) {
    let cfg = &s.config;
    let mut chip: Box<dyn ChipBackend> = match cfg.chip {
        ChipProfile::Stabilizer => {
            Box::new(StabilizerChip::ideal_device(cfg.num_qubits, cfg.chip_seed))
        }
        ChipProfile::Paper => Box::new(QuantumChip::paper_device(cfg.num_qubits, cfg.chip_seed)),
        ChipProfile::Ideal => Box::new(QuantumChip::ideal_device(cfg.num_qubits, cfg.chip_seed)),
    };
    let q = s.qubit;
    let window = 300.0 * cfg.cycle_time;
    let step = window + 1e-6;
    let mut at = 0.0;

    let device = Session::new(cfg.clone()).expect("device builds");
    let mut ctpg = Ctpg::new(
        device.device().ctpg(q).library().clone(),
        cfg.ctpg_delay_cycles,
        cfg.cycle_time,
    );
    // Codeword 2 is X90 in the Table 1 library.
    let pulse = ctpg.trigger(2, 0).expect("X90 is in the library");
    let t = Instant::now();
    let drive = per_call(2000, || {
        at += step;
        chip.drive(q, black_box(&pulse.samples), at, pulse.sample_period);
    });
    rec.record("qsim.drive", 0, t);

    let t = Instant::now();
    let measure = per_call(400, || {
        at += step;
        black_box(chip.measure(q, at, window));
    });
    rec.record("qsim.measure", 0, t);

    at += step;
    let trace = chip.measure(q, at, window);
    let mdu = Discriminator::calibrate(&chip.qubit(q).readout, window);
    let t = Instant::now();
    let integrate = per_call(2000, || {
        black_box(mdu.integrate(black_box(&trace)));
    });
    rec.record("qsim.integrate", 0, t);
    (measure, integrate, drive)
}
