//! The three workloads, the jobs they generate from a seed, and the
//! in-process reference each job's result is checked against.
//!
//! Every job is a fixed, stated amount of simulated work; only its seeds
//! vary. The program under test receives nothing but these generated
//! jobs.

use crate::check;
use quma_compiler::prelude::{CompilerConfig, GateSet, Kernel, QuantumProgram};
use quma_core::prelude::{
    ChipProfile, Device, DeviceConfig, LoadedProgram, SeedPlan, Session, TraceLevel,
};
use quma_experiments::allxy;
use quma_experiments::harness;
use quma_experiments::prelude::{AllxyConfig, AllxyResult, QecConfig, QecInjected, QecResult};
use quma_experiments::qec;
use quma_isa::program::Program;
use quma_isa::reg::Reg;
use quma_pool::prelude::{DevicePool, Job, JobOutput, JobSpec};
use quma_serve::Json;
use std::time::Duration;

/// The `served_shots` program: init idle, X90·X90, a 300-cycle readout
/// into `r7`. This is the text the compiler emits for that kernel
/// (`init; X90 q0; X90 q0; measure q0 into r7` with the paper gate set); it is
/// fixed here so the workload's input never depends on the code under
/// test.
pub const SHOTS_SOURCE: &str = "\
mov r15, 40000
QNopReg r15
Pulse {q0}, X90
Wait 4
Pulse {q0}, X90
Wait 4
MPG {q0}, 300
MD {q0}, r7
halt
";

/// Compiles the `served_shots` kernel with the paper gate set: the
/// compiler's side of [`SHOTS_SOURCE`].
pub fn compile_shots_kernel() -> Program {
    let mut program = QuantumProgram::new("shots");
    let mut k = Kernel::new("k");
    k.init()
        .gate("X90", 0)
        .gate("X90", 0)
        .measure_into(0, Reg::r(7));
    program.add_kernel(k);
    program
        .compile(&GateSet::paper_default(), &CompilerConfig::default())
        .expect("shots kernel compiles")
}

/// Shots per `served_shots` job.
pub const SHOTS_PER_JOB: u64 = 2;
/// `served_qec` job shape: distance, syndrome rounds, shots.
pub const QEC_SHAPE: (usize, usize, u64) = (7, 2, 8);
/// AllXY averaging rounds per `engine_allxy` job (42 points each: 336
/// measured rounds in one program run).
pub const ALLXY_AVERAGES: u32 = 8;
/// Pool workers behind the server (the benchmark host has 2 cores).
pub const POOL_WORKERS: usize = 2;
/// Per-priority queue bound: far above the client count, so no
/// submission is ever refused.
pub const QUEUE_DEPTH: usize = 16;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 2-shot journaled `shots` jobs over HTTP.
    ServedShots,
    /// d = 7 stabilizer QEC experiment jobs over HTTP.
    ServedQec,
    /// The paper's AllXY experiment, in process, back to back.
    EngineAllxy,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 3] = [
        Workload::ServedShots,
        Workload::ServedQec,
        Workload::EngineAllxy,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServedShots => "served_shots",
            Workload::ServedQec => "served_qec",
            Workload::EngineAllxy => "engine_allxy",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether jobs go through the HTTP server (else: in-process harness).
    pub fn served(self) -> bool {
        self != Workload::EngineAllxy
    }

    /// Closed-loop client threads: at most one per core, so latency
    /// measures the program and not the OS run queue.
    pub fn clients(self) -> usize {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        if self.served() {
            cores.clamp(1, 2)
        } else {
            1
        }
    }

    /// The fixed interval between result polls (served workloads): short
    /// next to a job, and the same in every run.
    pub fn poll_interval(self) -> Duration {
        match self {
            Workload::ServedShots => Duration::from_micros(100),
            // AllXY is served only in the traced run's layer replay.
            Workload::ServedQec | Workload::EngineAllxy => Duration::from_micros(1000),
        }
    }

    /// Distinct jobs generated per run; the timed loop cycles through
    /// them. Each has a precomputed reference.
    fn distinct_jobs(self) -> u64 {
        match self {
            Workload::ServedShots => 512,
            Workload::ServedQec => 64,
            Workload::EngineAllxy => 32,
        }
    }

    /// Jobs one served stack runs, its warm-up included, before a fresh
    /// stack replaces it. Bounds the journal's largest file (~33 KB of
    /// result log per `served_shots` job: ~8.5 MB) and the server's
    /// registry of finished jobs, which both grow with every job served.
    pub fn stack_jobs(self) -> u64 {
        match self {
            Workload::ServedShots => 256,
            Workload::ServedQec | Workload::EngineAllxy => 1024,
        }
    }

    /// `peak_rss_mb` is read when this many timed jobs have completed,
    /// so it measures a fixed amount of work.
    pub fn rss_probe_jobs(self) -> u64 {
        match self {
            Workload::ServedShots => 8192,
            Workload::ServedQec => 1024,
            Workload::EngineAllxy => 256,
        }
    }

    /// The job shape, for the report.
    pub fn shape(self) -> String {
        let (d, r, s) = QEC_SHAPE;
        match self {
            Workload::ServedShots => format!(
                "shots job: {SHOTS_PER_JOB} shots of X90-X90 + 300-cycle readout, paper chip, \
                 seed plan per job"
            ),
            Workload::ServedQec => format!(
                "experiment qec: d={d}, {r} rounds, {s} shots, stabilizer profile, \
                 injection seed per job"
            ),
            Workload::EngineAllxy => format!(
                "harness::run_parallel(Allxy): averages={ALLXY_AVERAGES} ({} rounds), \
                 paper chip, chip seed per job",
                42 * ALLXY_AVERAGES
            ),
        }
    }

    /// The jobs of one run, derived from `seed` alone.
    pub fn jobs(self, seed: u64) -> Vec<JobInput> {
        (0..self.distinct_jobs())
            .map(|i| {
                let a = wire_seed(seed, 2 * i);
                let b = wire_seed(seed, 2 * i + 1);
                match self {
                    Workload::ServedShots => JobInput::Shots(SeedPlan {
                        chip_base: a,
                        jitter_base: b,
                    }),
                    Workload::ServedQec => {
                        let (distance, rounds, shots) = QEC_SHAPE;
                        JobInput::Qec(QecConfig {
                            distance,
                            rounds,
                            shots,
                            profile: ChipProfile::Stabilizer,
                            injection_seed: a,
                            ..QecConfig::default()
                        })
                    }
                    Workload::EngineAllxy => JobInput::Allxy(AllxyConfig {
                        averages: ALLXY_AVERAGES,
                        seed: a,
                        ..AllxyConfig::default()
                    }),
                }
            })
            .collect()
    }
}

/// splitmix64 of `(seed, index)`, cut to 62 bits so it survives the
/// wire's signed JSON integers.
fn wire_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) >> 2
}

/// The device the server's pool keeps warm (and `shots` jobs run on).
pub fn shots_config() -> DeviceConfig {
    DeviceConfig {
        chip: ChipProfile::Paper,
        chip_seed: 0x9001,
        trace: TraceLevel::Off,
        ..DeviceConfig::default()
    }
}

/// One generated job.
#[derive(Debug, Clone)]
pub enum JobInput {
    /// A `shots` job with its own seed plan.
    Shots(SeedPlan),
    /// An `experiment: qec` job.
    Qec(QecConfig),
    /// An AllXY run.
    Allxy(AllxyConfig),
}

fn int(v: u64) -> Json {
    Json::Int(v as i64)
}

impl JobInput {
    /// The `POST /jobs` body.
    pub fn wire(&self) -> Json {
        match self {
            JobInput::Shots(plan) => Json::obj([
                ("kind", Json::str("shots")),
                ("source", Json::str(SHOTS_SOURCE)),
                ("shots", int(SHOTS_PER_JOB)),
                (
                    "seed_plan",
                    Json::obj([
                        ("chip_base", int(plan.chip_base)),
                        ("jitter_base", int(plan.jitter_base)),
                    ]),
                ),
            ]),
            JobInput::Qec(cfg) => Json::obj([
                ("kind", Json::str("experiment")),
                ("experiment", Json::str("qec")),
                (
                    "config",
                    Json::obj([
                        ("distance", int(cfg.distance as u64)),
                        ("rounds", int(cfg.rounds as u64)),
                        ("shots", int(cfg.shots)),
                        ("profile", Json::str("stabilizer")),
                        ("injection_seed", int(cfg.injection_seed)),
                    ]),
                ),
            ]),
            JobInput::Allxy(cfg) => Json::obj([
                ("kind", Json::str("experiment")),
                ("experiment", Json::str("allxy")),
                (
                    "config",
                    Json::obj([
                        ("averages", int(u64::from(cfg.averages))),
                        ("seed", int(cfg.seed)),
                    ]),
                ),
            ]),
        }
    }

    /// The same job built for an in-process pool, carrying the journal
    /// spec exactly when the pool is journaled — as the server builds it.
    pub fn pool_job(&self, pool: &DevicePool) -> Job {
        let opaque = |tag: &str| JobSpec::Opaque {
            tag: tag.to_string(),
            payload: self.wire().encode().into_bytes(),
        };
        let (job, spec) = match self {
            JobInput::Shots(plan) => {
                let program = pool
                    .assemble(SHOTS_SOURCE)
                    .expect("shots program assembles");
                let spec = JobSpec::Shots {
                    source: SHOTS_SOURCE.to_string(),
                    shots: SHOTS_PER_JOB,
                    plan: Some((plan.chip_base, plan.jitter_base)),
                    chunk: 0,
                };
                (
                    Job::shots(program, SHOTS_PER_JOB).with_seed_plan(*plan),
                    spec,
                )
            }
            JobInput::Qec(cfg) => (
                Job::experiment(QecInjected::default(), cfg.clone()),
                opaque("qec"),
            ),
            JobInput::Allxy(cfg) => (Job::experiment(allxy::Allxy, cfg.clone()), opaque("allxy")),
        };
        if pool.journaled() {
            job.with_spec(spec)
        } else {
            job
        }
    }

    /// A pool job's output as its result document.
    pub fn output_doc(&self, output: JobOutput) -> Option<Json> {
        match self {
            JobInput::Shots(_) => output.into_batch().map(|b| check::batch_doc(&b)),
            JobInput::Qec(_) => output.downcast::<QecResult>().map(|r| check::qec_doc(&r)),
            JobInput::Allxy(_) => output
                .downcast::<AllxyResult>()
                .map(|r| check::allxy_doc(&r)),
        }
    }

    /// The job as the `engine_allxy` workload runs it: the harness entry
    /// point with one worker per core.
    pub fn run_harness(&self) -> Json {
        match self {
            JobInput::Allxy(cfg) => {
                let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
                let result = harness::run_parallel(&allxy::Allxy, cfg, threads)
                    .expect("AllXY runs on the paper chip");
                check::allxy_doc(&result)
            }
            other => panic!("{other:?} has no in-process harness workload"),
        }
    }
}

/// Runs jobs on a direct [`Session`] — the reference path and the
/// replay's bottom level. Sessions are built once and rewound per job,
/// as pool workers do.
#[derive(Default)]
pub struct Direct {
    shots: Option<(Session, LoadedProgram)>,
    qec: Option<Device>,
}

impl Direct {
    /// The job's result document, computed in process.
    pub fn run(&mut self, job: &JobInput) -> Json {
        match job {
            JobInput::Shots(plan) => {
                let (session, program) = self.shots.get_or_insert_with(|| {
                    let session = Session::new(shots_config()).expect("paper device builds");
                    let program = session
                        .load_assembly(SHOTS_SOURCE)
                        .expect("shots program assembles");
                    (session, program)
                });
                session.set_seed_plan(*plan);
                session.reset_shot_counter();
                let batch = session
                    .run_shots(program, SHOTS_PER_JOB)
                    .expect("shots run");
                check::batch_doc(&batch)
            }
            JobInput::Qec(cfg) => {
                let config = qec::device_config(cfg);
                if self.qec.as_ref().is_none_or(|d| *d.config() != config) {
                    self.qec = Some(Device::new(config).expect("stabilizer device builds"));
                }
                let device = self.qec.as_ref().expect("just built").clone();
                let mut session = Session::from_device(device);
                let result =
                    harness::run_on_session(&QecInjected::default(), cfg, &mut session, None)
                        .expect("QEC runs");
                check::qec_doc(&result)
            }
            JobInput::Allxy(cfg) => {
                let mut session = allxy::build_session(cfg);
                let program = session.load(&allxy::build_program(cfg));
                let report = session.run(&program).expect("AllXY runs");
                let result = allxy::analyze(&report.collector_averages[0], cfg.double_points);
                check::allxy_doc(&result)
            }
        }
    }
}

/// Each job's expected result document, precomputed on a direct session.
pub fn references(jobs: &[JobInput]) -> Vec<Json> {
    let mut direct = Direct::default();
    jobs.iter().map(|job| direct.run(job)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_shots_source_is_what_the_compiler_emits() {
        let compiled = compile_shots_kernel();
        let ours = quma_isa::asm::Assembler::new()
            .assemble(SHOTS_SOURCE)
            .unwrap();
        assert_eq!(compiled.instructions(), ours.instructions());
    }

    #[test]
    fn jobs_depend_on_the_seed_alone() {
        for w in Workload::ALL {
            let a: Vec<String> = w.jobs(7).iter().map(|j| j.wire().encode()).collect();
            let b: Vec<String> = w.jobs(7).iter().map(|j| j.wire().encode()).collect();
            let c: Vec<String> = w.jobs(8).iter().map(|j| j.wire().encode()).collect();
            assert_eq!(a, b);
            assert_ne!(a, c);
        }
    }
}
