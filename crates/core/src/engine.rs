//! The shot engine: reusable batched execution on top of [`Device`].
//!
//! [`Device::new`] is expensive — it synthesizes one Table 1 pulse library
//! per qubit (Gaussian envelopes, area calibration, SSB modulation) and
//! seeds the whole control box — while an individual shot only needs the
//! architectural state cleared and the stochastic sources reseeded. The
//! engine layer separates the two costs:
//!
//! * [`Session`] owns a calibrated device and keeps it alive across shots;
//! * [`Session::load`] / [`Session::load_assembly`] prepare a program once
//!   for repeated execution;
//! * [`Session::run_batch`] is the one batch entry point: a [`Batch`] is
//!   derived-seed shots of one program, a program sweep with explicit
//!   per-point seeds, or a sweep of a compile-once
//!   [`quma_isa::template::ProgramTemplate`] that rewrites immediate fields
//!   per point (O(1) per axis) instead of re-assembling — the way real
//!   control stacks drive hardware. Every item reseeds the device and
//!   runs with the ordinary run reset instead of a reconstruction.
//!   With one thread the items run inline on the owned device; with more
//!   they are dealt in contiguous blocks to a **persistent worker pool**
//!   owned by the session: workers are spawned lazily on the first
//!   parallel batch and reused across batches, each keeping its device
//!   clone warm (re-cloned only after [`Session::device_mut`] touches the
//!   owned device), and every worker fills its own result vector — no
//!   per-call thread spawns, device clones or false sharing, while
//!   per-item seeds keep the results bit-identical to the inline run;
//! * [`Session::run`] runs a program once without reseeding and
//!   [`Session::run_shots`] is the inline shot batch.
//!
//! Determinism contract: shot `i` of a batch is bit-identical to a freshly
//! built device whose config carries the seeds of [`SeedPlan::shot`]`(i)`
//! — the property `tests/concurrent_runs.rs` locks in.

use crate::config::DeviceConfig;
use crate::device::{Device, DeviceError, RunReport};
use crossbeam::channel;
use quma_isa::prelude::Program;
use quma_obs::trace::{now_ns, SpanEvent, SpanKind, TraceBuffer, TraceId};
use std::ops::Range;
use std::sync::Arc;

/// The two per-shot random seeds: the chip's projection/readout RNG and
/// the execution controller's instruction-jitter RNG.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShotSeeds {
    /// Seed for the quantum chip (projection + readout noise).
    pub chip: u64,
    /// Seed for the execution-controller jitter model.
    pub jitter: u64,
}

/// Derives per-shot seeds from a pair of base seeds, via splitmix64.
///
/// The derivation is a pure function of `(base, index)`, so a batch shot
/// can be reproduced on a fresh device by copying its derived seeds into
/// the device configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedPlan {
    /// Base seed for the chip RNG stream.
    pub chip_base: u64,
    /// Base seed for the jitter RNG stream.
    pub jitter_base: u64,
}

/// splitmix64: the standard 64-bit finalizer (Steele et al.), used here to
/// decorrelate consecutive shot indices into independent seed values.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the seed for `index` from a base seed (exposed so tests and
/// fresh-device reproductions can mirror a batch exactly).
pub fn derive_seed(base: u64, index: u64) -> u64 {
    splitmix64(base ^ index.wrapping_mul(0xA076_1D64_78BD_642F))
}

/// Resolves a requested worker-thread count against the amount of work:
/// `0` means "use [`std::thread::available_parallelism`]" (falling back
/// to 1 if the parallelism query fails), and the result is clamped to
/// `1..=items` so no worker ever starts with nothing to do.
/// [`Session::run_batch`] resolves its `threads` argument through this
/// function, so `threads == 0` is the portable "auto" spelling
/// everywhere.
pub fn resolve_threads(threads: usize, items: usize) -> usize {
    let requested = if threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        threads
    };
    requested.clamp(1, items.max(1))
}

/// What one persistent worker returns for its contiguous item block:
/// the reports in item order, or the first failing item's index and
/// error.
type BlockResult = Result<Vec<RunReport>, (usize, DeviceError)>;

/// A unit of work shipped to a persistent engine worker. The worker
/// hands the task its long-lived device slot; the task installs a fresh
/// clone when the caller marked it stale.
type EngineTask = Box<dyn FnOnce(&mut Option<Device>) -> BlockResult + Send>;

/// One persistent worker thread plus the caller-side view of the warm
/// device clone it holds.
struct EngineWorker {
    tasks: channel::Sender<EngineTask>,
    results: channel::Receiver<BlockResult>,
    /// Generation of the device clone the worker keeps warm (`None`
    /// before its first task). When this lags the session's generation,
    /// the next task carries a fresh clone.
    generation: Option<u64>,
    thread: std::thread::JoinHandle<()>,
}

fn spawn_engine_worker() -> EngineWorker {
    let (task_tx, task_rx) = channel::unbounded::<EngineTask>();
    let (result_tx, result_rx) = channel::unbounded::<BlockResult>();
    let thread = std::thread::spawn(move || {
        // The warm device clone, owned by the thread across batches.
        let mut device: Option<Device> = None;
        while let Ok(task) = task_rx.recv() {
            if result_tx.send(task(&mut device)).is_err() {
                break;
            }
        }
    });
    EngineWorker {
        tasks: task_tx,
        results: result_rx,
        generation: None,
        thread,
    }
}

/// Persistent parallel shot workers, owned by a [`Session`].
///
/// The previous engine spawned fresh threads *and cloned the full
/// device per worker* on every parallel call — with a per-core worker
/// count that fixed overhead dwarfed small batches and never amortized.
/// This pool spawns each worker once (lazily, on the first call that
/// needs it) and keeps it alive across batches; workers keep their
/// device clones warm and only re-clone when [`Session::device_mut`]
/// has bumped the session's generation (per-shot reseeds make any
/// run-to-run device state irrelevant — only parameter mutations
/// matter, and those all flow through `device_mut`).
///
/// Items are dealt in contiguous blocks (worker `t` of `w` takes
/// `[t·n/w, (t+1)·n/w)`) instead of stride-1 interleave, and every
/// worker appends into its own result vector — no shared result
/// cache lines, and block concatenation preserves item order for free.
/// On failure the *lowest-item-index* error is returned — the same
/// error the inline loop's early return would surface, since every
/// item before it succeeds identically on both paths.
#[derive(Default)]
struct WorkerPool {
    workers: Vec<EngineWorker>,
}

impl WorkerPool {
    /// Spawns workers up to `n` (never shrinks — a later smaller batch
    /// just leaves the extras idle on their channel).
    fn ensure(&mut self, n: usize) {
        while self.workers.len() < n {
            self.workers.push(spawn_engine_worker());
        }
    }

    /// Runs `items` units across `workers` threads and returns the
    /// reports in item order. `make_worker()` builds each worker's item
    /// closure on the caller's thread (capturing `Arc`-shared points, a
    /// working program copy, …); the closure receives the worker's warm
    /// device and the item index.
    fn run<W>(
        &mut self,
        workers: usize,
        items: usize,
        device: &Device,
        generation: u64,
        mut make_worker: impl FnMut() -> W,
    ) -> Result<Vec<RunReport>, DeviceError>
    where
        W: FnMut(&mut Device, usize) -> Result<RunReport, DeviceError> + Send + 'static,
    {
        self.ensure(workers);
        for (t, worker) in self.workers.iter_mut().enumerate().take(workers) {
            let lo = t * items / workers;
            let hi = (t + 1) * items / workers;
            // A stale worker gets a fresh clone of the owned device; a
            // current one reuses the clone it already holds.
            let refresh = if worker.generation == Some(generation) {
                None
            } else {
                Some(device.clone())
            };
            worker.generation = Some(generation);
            let mut work = make_worker();
            let task: EngineTask = Box::new(move |slot| {
                if let Some(fresh) = refresh {
                    *slot = Some(fresh);
                }
                let device = slot.as_mut().expect("warm device installed");
                let mut out = Vec::with_capacity(hi - lo);
                for i in lo..hi {
                    match work(device, i) {
                        Ok(r) => out.push(r),
                        Err(e) => return Err((i, e)),
                    }
                }
                Ok(out)
            });
            assert!(
                worker.tasks.send(task).is_ok(),
                "engine worker disconnected"
            );
        }
        let mut reports = Vec::with_capacity(items);
        let mut first_error: Option<(usize, DeviceError)> = None;
        for worker in self.workers.iter_mut().take(workers) {
            match worker.results.recv().expect("engine worker panicked") {
                Ok(mut block) => reports.append(&mut block),
                Err((i, e)) => {
                    if first_error.as_ref().is_none_or(|(j, _)| i < *j) {
                        first_error = Some((i, e));
                    }
                }
            }
        }
        if let Some((_, e)) = first_error {
            return Err(e);
        }
        Ok(reports)
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        for EngineWorker { tasks, thread, .. } in self.workers.drain(..) {
            // Disconnecting the task channel ends the worker loop.
            drop(tasks);
            // A worker that panicked already surfaced it on recv; don't
            // double-panic during drop.
            let _ = thread.join();
        }
    }
}

/// Rejects template sweeps whose points patch different axis sets (see
/// [`TemplatePoint::patches`]): a skipped axis would inherit
/// worker-dependent state, breaking sequential == parallel. Exposed so
/// higher layers that run a template batch in slices (e.g. the
/// experiment harness's per-point hook loop) enforce the same rule on
/// the whole sweep instead of copying it.
pub fn validate_axis_sets(points: &[TemplatePoint]) -> Result<(), DeviceError> {
    let Some(first) = points.first() else {
        return Ok(());
    };
    let mut want: Vec<&str> = first.patches.iter().map(|(n, _)| n.as_str()).collect();
    want.sort_unstable();
    for (i, p) in points.iter().enumerate().skip(1) {
        let mut got: Vec<&str> = p.patches.iter().map(|(n, _)| n.as_str()).collect();
        got.sort_unstable();
        if got != want {
            return Err(DeviceError::Config(format!(
                "template sweep point {i} patches axes {got:?}, expected {want:?}"
            )));
        }
    }
    Ok(())
}

impl SeedPlan {
    /// A plan whose base seeds come from the device configuration.
    pub fn from_config(cfg: &DeviceConfig) -> Self {
        Self {
            chip_base: cfg.chip_seed,
            jitter_base: cfg.jitter_seed,
        }
    }

    /// The seeds for shot `index`.
    pub fn shot(&self, index: u64) -> ShotSeeds {
        ShotSeeds {
            chip: derive_seed(self.chip_base, index),
            jitter: derive_seed(self.jitter_base ^ 0x6A09_E667_F3BC_C909, index),
        }
    }
}

/// A program prepared for repeated execution: assembled once (if from
/// source), so the per-shot path never re-parses. Gate resolution still
/// happens in the decode pipeline at run time. The instruction sequence
/// is shared behind an [`std::sync::Arc`], so cloning a loaded program
/// (per sweep point, per worker shard) is a pointer copy.
#[derive(Debug, Clone)]
pub struct LoadedProgram {
    program: Arc<Program>,
}

impl LoadedProgram {
    /// Wraps an already-shared program without copying it (sweeps that
    /// deduplicate compiled programs hand the same `Arc` to many points).
    pub fn from_arc(program: Arc<Program>) -> Self {
        Self { program }
    }

    /// The underlying instruction sequence.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.program.len()
    }

    /// True when the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.program.len() == 0
    }
}

/// One point of a template sweep: the axis values to patch and the shot
/// seeds to run with.
#[derive(Debug, Clone, PartialEq)]
pub struct TemplatePoint {
    /// `(axis name, value)` pairs applied before the shot. Every point of
    /// a sweep must patch the same set of axes (points only write the
    /// slots they name, so a skipped axis would inherit whatever the
    /// previous point on the same worker left behind — and sequential and
    /// parallel sweeps stride points differently).
    pub patches: Vec<(String, i64)>,
    /// The shot seeds for this point.
    pub seeds: ShotSeeds,
}

/// One batch for [`Session::run_batch`]: the three kinds of work the
/// engine runs. Cloning a batch copies pointers, never programs or
/// points.
#[derive(Debug, Clone)]
pub enum Batch {
    /// `shots` shots of one program, seeded from the session's seed plan
    /// at its shot counter: successive batches continue the seed sequence
    /// (shot `i` of the session's lifetime uses `seed_plan().shot(i)`).
    Shots {
        /// The program.
        program: LoadedProgram,
        /// Number of shots.
        shots: u64,
    },
    /// A program sweep: each point is a prepared program with its own
    /// shot seeds.
    Sweep(Arc<[(LoadedProgram, ShotSeeds)]>),
    /// A patch-per-point template sweep: before each point, the named
    /// slots of a working copy of `program` are rewritten in place (O(1)
    /// per axis — no re-assembly, no program rebuild). Patches applied
    /// to `program` before the sweep (fixing a non-swept axis) hold for
    /// every point. Every point must patch the same set of axes (see
    /// [`validate_axis_sets`]).
    Template {
        /// The template program in its pre-sweep patch state.
        program: Arc<Program>,
        /// The points, in order.
        points: Arc<[TemplatePoint]>,
    },
}

impl Batch {
    /// Number of items: shots or sweep points.
    pub fn len(&self) -> usize {
        match self {
            Batch::Shots { shots, .. } => *shots as usize,
            Batch::Sweep(points) => points.len(),
            Batch::Template { points, .. } => points.len(),
        }
    }

    /// True when the batch has no items.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Items `range` as a batch of their own. Sweep points keep their
    /// seeds and every template point patches the same axes, so running
    /// the slices of a batch in order reproduces the whole batch; a
    /// `Shots` slice keeps only its length, because shot seeds always
    /// continue the session's shot counter.
    pub fn slice(&self, range: Range<usize>) -> Batch {
        if range == (0..self.len()) {
            return self.clone();
        }
        match self {
            Batch::Shots { program, .. } => Batch::Shots {
                program: program.clone(),
                shots: range.len() as u64,
            },
            Batch::Sweep(points) => Batch::Sweep(points[range].into()),
            Batch::Template { program, points } => Batch::Template {
                program: Arc::clone(program),
                points: points[range].into(),
            },
        }
    }

    /// The per-item closure every batch path runs: item `i` patches the
    /// working program (template sweeps), reseeds, then runs — in that
    /// order, so a report depends only on the item, never on which
    /// device ran the items before it. `first_shot` is the session's
    /// shot counter for `Shots` batches.
    fn item_runner(
        &self,
        plan: SeedPlan,
        first_shot: u64,
    ) -> impl FnMut(&mut Device, usize) -> Result<RunReport, DeviceError> + Send + 'static {
        let batch = self.clone();
        // A template sweep's working copy, forked from the pre-sweep
        // program on the first item this closure runs.
        let mut working: Option<Program> = None;
        move |device: &mut Device, i: usize| {
            let (seeds, program) = match &batch {
                Batch::Shots { program, .. } => {
                    (plan.shot(first_shot + i as u64), program.program())
                }
                Batch::Sweep(points) => (points[i].1, points[i].0.program()),
                Batch::Template { program, points } => {
                    let working = working.get_or_insert_with(|| (**program).clone());
                    for (name, value) in &points[i].patches {
                        working.patch(name, *value)?;
                    }
                    (points[i].seeds, &*working)
                }
            };
            device.reseed(seeds.chip, seeds.jitter);
            device.run(program)
        }
    }
}

/// A completed batch: one report per item (shot or sweep point), in
/// item order.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// One report per item, index-aligned with the batch.
    pub shots: Vec<RunReport>,
}

impl BatchReport {
    /// Number of reports.
    pub fn len(&self) -> usize {
        self.shots.len()
    }

    /// True when the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.shots.is_empty()
    }

    /// Fraction of discrimination results reading `|1⟩` on `qubit`,
    /// pooled across every shot in the batch.
    pub fn ones_fraction(&self, qubit: usize) -> f64 {
        let (ones, total) = self
            .shots
            .iter()
            .flat_map(|r| r.md_results.iter())
            .filter(|m| m.qubit == qubit)
            .fold((0u64, 0u64), |(o, t), m| (o + u64::from(m.bit), t + 1));
        ones as f64 / total.max(1) as f64
    }

    /// Total discrimination results across the batch.
    pub fn total_md_results(&self) -> usize {
        self.shots.iter().map(|r| r.md_results.len()).sum()
    }
}

/// Observability attachment for a [`Session`]: a shared span ring plus
/// the trace id and thread lane every batch span should carry. The
/// device pool installs one per job on its warm worker sessions so
/// engine-level `shot_batch` spans join the job's end-to-end trace.
#[derive(Clone, Debug)]
pub struct SessionTracer {
    /// Ring buffer the spans are recorded into.
    pub buf: TraceBuffer,
    /// Correlation id (the pool job id) stamped on every span.
    pub trace_id: TraceId,
    /// Thread lane for trace viewers (the pool worker index).
    pub tid: u32,
}

/// A long-lived execution context: one calibrated device, many programs,
/// many shots.
pub struct Session {
    device: Device,
    /// Base seed plan, captured from the device config at construction.
    plan: SeedPlan,
    /// Shot indices consumed so far: successive batches continue the seed
    /// sequence instead of replaying it, so pooling two batches never
    /// double-counts the same noise realizations.
    next_shot: u64,
    /// Bumped by every [`Session::device_mut`] access; workers whose
    /// warm clone lags this re-clone on their next task.
    generation: u64,
    /// Persistent parallel workers: spawned lazily by the first parallel
    /// call, reused (devices kept warm) across batches.
    pool: WorkerPool,
    /// Optional span sink; batches record `shot_batch` spans when set.
    /// Pure observation — never consulted on the execution path, so the
    /// determinism contract is unaffected.
    tracer: Option<SessionTracer>,
}

impl Clone for Session {
    /// Clones the device and seed state. The worker pool is *not*
    /// cloned — the copy starts with no workers and spawns its own on
    /// its first parallel call. The tracer attachment (if any) is
    /// shared: both sessions record into the same ring.
    fn clone(&self) -> Self {
        Self {
            device: self.device.clone(),
            plan: self.plan,
            next_shot: self.next_shot,
            generation: 0,
            pool: WorkerPool::default(),
            tracer: self.tracer.clone(),
        }
    }
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("device", &self.device)
            .field("plan", &self.plan)
            .field("next_shot", &self.next_shot)
            .field("workers", &self.pool.workers.len())
            .field("traced", &self.tracer.is_some())
            .finish_non_exhaustive()
    }
}

impl Session {
    /// Builds a session around a freshly calibrated device.
    pub fn new(config: DeviceConfig) -> Result<Self, DeviceError> {
        Ok(Self::from_device(Device::new(config)?))
    }

    /// Wraps an existing (possibly error-injected) device. The seed plan
    /// derives from the device's construction-time config seeds.
    pub fn from_device(device: Device) -> Self {
        let plan = SeedPlan::from_config(device.config());
        Self {
            device,
            plan,
            next_shot: 0,
            generation: 0,
            pool: WorkerPool::default(),
            tracer: None,
        }
    }

    /// Attaches (or replaces) the span sink for this session's batches.
    /// The pool re-targets a warm worker session per job this way.
    pub fn set_tracer(&mut self, tracer: Option<SessionTracer>) {
        self.tracer = tracer;
    }

    /// The current span sink, if any.
    pub fn tracer(&self) -> Option<&SessionTracer> {
        self.tracer.as_ref()
    }

    /// Records a `shot_batch` span covering `start_ns..now` when a
    /// tracer is attached; `a` carries the item count, `b` the worker
    /// fan-out (0 for sequential batches).
    fn span_batch(&self, start_ns: u64, items: u64, fanout: u64) {
        if let Some(t) = &self.tracer {
            t.buf.record(SpanEvent {
                kind: SpanKind::ShotBatch,
                label: 0,
                trace: t.trace_id,
                tid: t.tid,
                start_ns,
                end_ns: now_ns(),
                a: items,
                b: fanout,
            });
        }
    }

    /// The owned device, for inspection.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// The owned device, mutable — for calibration uploads and error
    /// injection between batches.
    ///
    /// Any mutable access may change parameters the persistent parallel
    /// workers' warm device clones carry (pulse libraries, noise,
    /// readout tuning — things a per-shot reseed does *not* restore), so
    /// it conservatively marks those clones stale; the next parallel
    /// call re-clones.
    pub fn device_mut(&mut self) -> &mut Device {
        self.generation += 1;
        &mut self.device
    }

    /// Releases the device.
    pub fn into_device(self) -> Device {
        self.device
    }

    /// The session's base seed plan (captured when the session was built).
    pub fn seed_plan(&self) -> SeedPlan {
        self.plan
    }

    /// Number of batch shot indices consumed so far; the next
    /// [`Batch::Shots`] batch starts its seed derivation here.
    pub fn shots_run(&self) -> u64 {
        self.next_shot
    }

    /// Replaces the session's seed plan. Pool workers use this (paired
    /// with [`Session::reset_shot_counter`]) to make one warm session
    /// replay a job exactly as a fresh session built from the job's
    /// seeds would — the device pool's deterministic-replay contract.
    pub fn set_seed_plan(&mut self, plan: SeedPlan) {
        self.plan = plan;
    }

    /// Rewinds the batch shot counter to 0, so the next batch derives
    /// its seeds from index 0 again — exactly like a freshly built
    /// session. Together with [`Session::set_seed_plan`] this makes a
    /// long-lived worker session bit-reproducible per job instead of per
    /// session lifetime.
    pub fn reset_shot_counter(&mut self) {
        self.next_shot = 0;
    }

    /// Prepares a program for batched execution. Loading just captures
    /// the instruction sequence — gate resolution against the Q control
    /// store stays a run-time concern (an unknown gate surfaces as
    /// [`DeviceError::UnknownGate`] on the first shot).
    pub fn load(&self, program: &Program) -> LoadedProgram {
        LoadedProgram {
            program: Arc::new(program.clone()),
        }
    }

    /// Assembles source into a [`LoadedProgram`] once; batches then skip
    /// the assembler entirely.
    pub fn load_assembly(&self, source: &str) -> Result<LoadedProgram, DeviceError> {
        let program = quma_isa::asm::Assembler::new().assemble(source)?;
        Ok(self.load(&program))
    }

    /// Runs a loaded program once *without* reseeding: continues the
    /// device's current RNG streams, exactly like [`Device::run`]. The
    /// first run of a fresh session is therefore bit-identical to the
    /// legacy one-device-one-run path.
    pub fn run(&mut self, program: &LoadedProgram) -> Result<RunReport, DeviceError> {
        self.device.run(&program.program)
    }

    /// Runs `shots` shots inline with seeds derived from the session's
    /// seed plan, continuing from where the previous batch left off: a
    /// [`Batch::Shots`] run on one thread.
    pub fn run_shots(
        &mut self,
        program: &LoadedProgram,
        shots: u64,
    ) -> Result<BatchReport, DeviceError> {
        self.run_batch(
            &Batch::Shots {
                program: program.clone(),
                shots,
            },
            1,
        )
    }

    /// Runs a batch — the engine's one entry point for reseeded shots —
    /// and returns one report per item, in item order.
    ///
    /// `threads` resolves through [`resolve_threads`] (`0` = one worker
    /// per available core). At 1 the items run inline on the owned
    /// device, which is left at the last item's RNG position. Above 1
    /// they are dealt in contiguous blocks to the session's persistent
    /// workers, each on its warm clone of the device, and only the clones
    /// run. Both paths give bit-identical reports, and a failing batch
    /// returns the error of its lowest failing item, as the inline loop's
    /// early return does. A [`Batch::Shots`] batch advances the shot
    /// counter only when the whole batch succeeds, so a retried batch
    /// replays the same seed indices. A template sweep whose points patch
    /// different axis sets is rejected before anything runs. Records one
    /// `shot_batch` span when a tracer is attached.
    pub fn run_batch(&mut self, batch: &Batch, threads: usize) -> Result<BatchReport, DeviceError> {
        if let Batch::Template { points, .. } = batch {
            validate_axis_sets(points)?;
        }
        let items = batch.len();
        let workers = resolve_threads(threads, items);
        let (plan, first) = (self.plan, self.next_shot);
        let t0 = now_ns();
        let reports = if workers == 1 {
            let mut run_item = batch.item_runner(plan, first);
            (0..items).map(|i| run_item(&mut self.device, i)).collect()
        } else {
            self.pool
                .run(workers, items, &self.device, self.generation, || {
                    batch.item_runner(plan, first)
                })
        };
        let fanout = if workers == 1 { 0 } else { workers };
        self.span_batch(t0, items as u64, fanout as u64);
        if let (Ok(_), Batch::Shots { shots, .. }) = (&reports, batch) {
            self.next_shot = first + shots;
        }
        reports.map(|shots| BatchReport { shots })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ChipProfile, DeviceConfig};
    use crate::microcode::UnknownGate;
    use crate::trace::TraceLevel;
    use quma_isa::prelude::{GateId, Instruction, QubitMask};
    use quma_isa::template::ProgramTemplate;

    const SEGMENT: &str = "\
        Wait 40000\n\
        Pulse {q0}, X90\n\
        Wait 4\n\
        Pulse {q0}, X90\n\
        Wait 4\n\
        MPG {q0}, 300\n\
        MD {q0}, r7\n\
        halt\n";

    fn shots(program: &LoadedProgram, shots: u64) -> Batch {
        Batch::Shots {
            program: program.clone(),
            shots,
        }
    }

    fn template_batch(program: &Program, points: &[TemplatePoint]) -> Batch {
        Batch::Template {
            program: Arc::new(program.clone()),
            points: points.into(),
        }
    }

    fn config() -> DeviceConfig {
        DeviceConfig {
            chip: ChipProfile::Paper,
            chip_seed: 0x5E55,
            trace: TraceLevel::Off,
            ..DeviceConfig::default()
        }
    }

    #[test]
    fn first_session_run_matches_legacy_device_run() {
        let mut dev = Device::new(config()).unwrap();
        let want = dev.run_assembly(SEGMENT).unwrap();
        let mut session = Session::new(config()).unwrap();
        let loaded = session.load_assembly(SEGMENT).unwrap();
        let got = session.run(&loaded).unwrap();
        assert_eq!(got.registers, want.registers);
        assert_eq!(got.md_results, want.md_results);
    }

    #[test]
    fn batch_shot_matches_fresh_device_with_derived_seeds() {
        let mut session = Session::new(config()).unwrap();
        let loaded = session.load_assembly(SEGMENT).unwrap();
        let batch = session.run_shots(&loaded, 4).unwrap();
        let plan = SeedPlan::from_config(&config());
        for (i, shot) in batch.shots.iter().enumerate() {
            let seeds = plan.shot(i as u64);
            let mut fresh = Device::new(DeviceConfig {
                chip_seed: seeds.chip,
                jitter_seed: seeds.jitter,
                ..config()
            })
            .unwrap();
            let want = fresh.run_assembly(SEGMENT).unwrap();
            assert_eq!(shot.registers, want.registers, "shot {i}");
            assert_eq!(shot.md_results, want.md_results, "shot {i}");
        }
    }

    #[test]
    fn parallel_batch_matches_sequential() {
        let mut session = Session::new(config()).unwrap();
        let loaded = session.load_assembly(SEGMENT).unwrap();
        let sequential = session.run_shots(&loaded, 6).unwrap();
        // A second session starts the shot counter at 0 again, so the
        // parallel batch covers the same seed indices.
        let mut session = Session::new(config()).unwrap();
        let parallel = session.run_batch(&shots(&loaded, 6), 3).unwrap();
        assert_eq!(sequential.len(), parallel.len());
        assert_eq!(session.shots_run(), 6);
        for (a, b) in sequential.shots.iter().zip(parallel.shots.iter()) {
            assert_eq!(a.registers, b.registers);
            assert_eq!(a.md_results, b.md_results);
        }
    }

    #[test]
    fn successive_batches_continue_the_seed_sequence() {
        // Two 2-shot batches must equal one 4-shot batch, never a replay
        // of the first two seeds.
        let mut split = Session::new(config()).unwrap();
        let loaded = split.load_assembly(SEGMENT).unwrap();
        let first = split.run_shots(&loaded, 2).unwrap();
        let second = split.run_shots(&loaded, 2).unwrap();
        let mut whole = Session::new(config()).unwrap();
        let all = whole.run_shots(&loaded, 4).unwrap();
        for (i, (a, b)) in first
            .shots
            .iter()
            .chain(second.shots.iter())
            .zip(all.shots.iter())
            .enumerate()
        {
            assert_eq!(a.md_results, b.md_results, "shot {i}");
        }
        assert_ne!(
            first.shots[0].md_results, second.shots[0].md_results,
            "the second batch must draw fresh noise realizations"
        );
    }

    #[test]
    fn parallel_sweep_matches_sequential() {
        let mut session = Session::new(config()).unwrap();
        let plan = session.seed_plan();
        let points: Vec<(LoadedProgram, ShotSeeds)> = (0..5)
            .map(|i| (session.load_assembly(SEGMENT).unwrap(), plan.shot(i)))
            .collect();
        let sweep = Batch::Sweep(points.into());
        let sequential = session.run_batch(&sweep, 1).unwrap().shots;
        let parallel = session.run_batch(&sweep, 3).unwrap().shots;
        assert_eq!(sequential.len(), parallel.len());
        for (i, (a, b)) in sequential.iter().zip(parallel.iter()).enumerate() {
            assert_eq!(a.registers, b.registers, "point {i}");
            assert_eq!(a.md_results, b.md_results, "point {i}");
        }
    }

    #[test]
    fn failing_batches_return_the_lowest_failing_item() {
        // Points 1 and 3 both fail (an unknown gate on different ids);
        // every thread count must surface point 1's error, the one the
        // inline loop's early return stops at.
        let mut session = Session::new(config()).unwrap();
        let plan = session.seed_plan();
        let ok = session.load_assembly(SEGMENT).unwrap();
        let bad = |gate: u8| {
            session.load(&Program::new(vec![
                Instruction::Apply {
                    gate: GateId(gate),
                    qubits: QubitMask::single(0),
                },
                Instruction::Halt,
            ]))
        };
        let (bad_lo, bad_hi) = (bad(200), bad(201));
        let points: Vec<(LoadedProgram, ShotSeeds)> = [&ok, &bad_lo, &ok, &bad_hi, &ok]
            .into_iter()
            .enumerate()
            .map(|(i, p)| (p.clone(), plan.shot(i as u64)))
            .collect();
        let sweep = Batch::Sweep(points.into());
        let items = sweep.len();
        for threads in [0, 1, 2, 3, items + 2] {
            let err = session.run_batch(&sweep, threads).unwrap_err();
            assert!(
                matches!(err, DeviceError::UnknownGate(UnknownGate(GateId(200)))),
                "threads {threads}: {err:?}"
            );
        }
        // A failing shot batch leaves the shot counter where it was.
        for threads in [1, 3] {
            let before = session.shots_run();
            assert!(session.run_batch(&shots(&bad_lo, 4), threads).is_err());
            assert_eq!(session.shots_run(), before, "threads {threads}");
        }
    }

    #[test]
    fn sweep_runs_each_point_with_its_seeds() {
        let mut session = Session::new(config()).unwrap();
        let plan = session.seed_plan();
        let points: Vec<(LoadedProgram, ShotSeeds)> = (0..3)
            .map(|i| (session.load_assembly(SEGMENT).unwrap(), plan.shot(i as u64)))
            .collect();
        let reports = session
            .run_batch(&Batch::Sweep(points.into()), 1)
            .unwrap()
            .shots;
        assert_eq!(reports.len(), 3);
        // Same seeds, same program → the sweep repeats the batch exactly.
        let loaded = session.load_assembly(SEGMENT).unwrap();
        let batch = session.run_shots(&loaded, 3).unwrap();
        for (a, b) in reports.iter().zip(batch.shots.iter()) {
            assert_eq!(a.md_results, b.md_results);
        }
    }

    #[test]
    fn retuned_readout_invalidates_the_mdu_cache() {
        // Re-tuning the readout chain between batches must re-calibrate
        // the cached MDUs, keeping session shots bit-identical to fresh
        // devices with the same injection applied.
        let mut session = Session::new(config()).unwrap();
        let loaded = session.load_assembly(SEGMENT).unwrap();
        let seeds = session.seed_plan().shot(0);
        let shot = Batch::Sweep(vec![(loaded, seeds)].into());
        session.run_batch(&shot, 1).unwrap(); // populate the cache
        session
            .device_mut()
            .chip_mut()
            .qubit_mut(0)
            .readout
            .noise_sigma = 0.8;
        let got = session.run_batch(&shot, 1).unwrap().shots.remove(0);
        let mut fresh = Device::new(DeviceConfig {
            chip_seed: seeds.chip,
            jitter_seed: seeds.jitter,
            ..config()
        })
        .unwrap();
        fresh.chip_mut().qubit_mut(0).readout.noise_sigma = 0.8;
        let want = fresh.run_assembly(SEGMENT).unwrap();
        assert_eq!(got.md_results, want.md_results);
    }

    #[test]
    fn load_assembly_surfaces_assembler_errors() {
        let session = Session::new(config()).unwrap();
        let err = session.load_assembly("not an instruction\n").unwrap_err();
        assert!(matches!(err, DeviceError::Assemble(_)));
    }

    #[test]
    fn ones_fraction_pools_across_shots() {
        let mut session = Session::new(DeviceConfig::default()).unwrap();
        let loaded = session.load_assembly(SEGMENT).unwrap();
        // Ideal chip: X90·X90 = X180 always measures 1.
        let batch = session.run_shots(&loaded, 3).unwrap();
        assert_eq!(batch.total_md_results(), 3);
        assert!((batch.ones_fraction(0) - 1.0).abs() < f64::EPSILON);
    }

    fn tau_template() -> ProgramTemplate {
        let src = "\
            Wait 40000\n\
            Pulse {q0}, X180\n\
            Wait 4\n\
            Wait 4\n\
            MPG {q0}, 300\n\
            MD {q0}, r7\n\
            halt\n";
        let mut program = quma_isa::asm::Assembler::new().assemble(src).unwrap();
        program
            .add_slot("tau", 3, quma_isa::template::PatchField::WaitInterval)
            .unwrap();
        ProgramTemplate::new(program)
    }

    fn tau_source(tau: u32) -> String {
        format!(
            "Wait 40000\n\
             Pulse {{q0}}, X180\n\
             Wait 4\n\
             Wait {tau}\n\
             MPG {{q0}}, 300\n\
             MD {{q0}}, r7\n\
             halt\n"
        )
    }

    fn tau_points(session: &Session, taus: &[u32]) -> Vec<TemplatePoint> {
        let plan = session.seed_plan();
        taus.iter()
            .enumerate()
            .map(|(i, &tau)| TemplatePoint {
                patches: vec![("tau".to_string(), i64::from(tau))],
                seeds: plan.shot(i as u64),
            })
            .collect()
    }

    const TAUS: [u32; 5] = [4, 400, 1200, 4000, 12000];

    #[test]
    fn template_sweep_matches_per_point_assembly() {
        // The template contract: patching the template per point is
        // bit-identical to assembling a fresh program per point.
        let mut session = Session::new(config()).unwrap();
        let points = tau_points(&session, &TAUS);
        let sweep = template_batch(tau_template().program(), &points);
        let got = session.run_batch(&sweep, 1).unwrap().shots;
        let per_point: Vec<(LoadedProgram, ShotSeeds)> = TAUS
            .iter()
            .zip(points.iter())
            .map(|(&tau, p)| (session.load_assembly(&tau_source(tau)).unwrap(), p.seeds))
            .collect();
        let want = session
            .run_batch(&Batch::Sweep(per_point.into()), 1)
            .unwrap()
            .shots;
        assert_eq!(got.len(), want.len());
        for (i, (a, b)) in got.iter().zip(want.iter()).enumerate() {
            assert_eq!(a.registers, b.registers, "point {i}");
            assert_eq!(a.md_results, b.md_results, "point {i}");
        }
    }

    #[test]
    fn parallel_template_sweep_matches_sequential() {
        let mut session = Session::new(config()).unwrap();
        let points = tau_points(&session, &TAUS);
        let sweep = template_batch(tau_template().program(), &points);
        let sequential = session.run_batch(&sweep, 1).unwrap().shots;
        let parallel = session.run_batch(&sweep, 3).unwrap().shots;
        for (i, (a, b)) in sequential.iter().zip(parallel.iter()).enumerate() {
            assert_eq!(a.registers, b.registers, "point {i}");
            assert_eq!(a.md_results, b.md_results, "point {i}");
        }
    }

    #[test]
    fn parallel_sweep_honors_pre_sweep_patches() {
        // Patch a second, non-swept axis before the sweep: both paths
        // must run every point with that value (every path forks its
        // working copy from the batch's pre-sweep program).
        let mut program = quma_isa::asm::Assembler::new()
            .assemble(
                "Wait 40000\n\
                 Pulse {q0}, X180\n\
                 Wait 4\n\
                 Wait 4\n\
                 MPG {q0}, 300\n\
                 MD {q0}, r7\n\
                 halt\n",
            )
            .unwrap();
        program
            .add_slot("tau", 3, quma_isa::template::PatchField::WaitInterval)
            .unwrap();
        program
            .add_slot("window", 4, quma_isa::template::PatchField::MpgDuration)
            .unwrap();
        let mut session = Session::new(config()).unwrap();
        let points = tau_points(&session, &TAUS);
        let default_sweep = template_batch(&program, &points);
        program.patch("window", 24).unwrap();
        let sweep = template_batch(&program, &points);
        let sequential = session.run_batch(&sweep, 1).unwrap().shots;
        let parallel = session.run_batch(&sweep, 3).unwrap().shots;
        for (i, (a, b)) in sequential.iter().zip(parallel.iter()).enumerate() {
            assert_eq!(a.md_results, b.md_results, "point {i}");
        }
        // And the shortened window really took effect versus the default.
        let default_window = session.run_batch(&default_sweep, 1).unwrap().shots;
        assert_ne!(
            sequential[0].stats.host_cycles, default_window[0].stats.host_cycles,
            "the pre-sweep patch must change the run"
        );
    }

    #[test]
    fn template_sweep_rejects_mismatched_axes() {
        let mut session = Session::new(config()).unwrap();
        let mut points = tau_points(&session, &TAUS);
        points[2].patches.clear();
        let sweep = template_batch(tau_template().program(), &points);
        for threads in [1, 2] {
            let err = session.run_batch(&sweep, threads).unwrap_err();
            assert!(matches!(err, DeviceError::Config(_)));
        }
    }

    #[test]
    fn template_patch_errors_surface_as_device_errors() {
        let mut session = Session::new(config()).unwrap();
        let seeds = session.seed_plan().shot(0);
        let points = [TemplatePoint {
            patches: vec![("nope".to_string(), 4)],
            seeds,
        }];
        let sweep = template_batch(tau_template().program(), &points);
        let err = session.run_batch(&sweep, 1).unwrap_err();
        assert!(matches!(
            err,
            DeviceError::Patch(quma_isa::template::PatchError::UnknownSlot(_))
        ));
    }

    #[test]
    fn resolve_threads_auto_and_clamping() {
        // 0 = auto: one worker per available core, clamped to the work.
        let auto = resolve_threads(0, usize::MAX);
        assert!(auto >= 1);
        assert_eq!(
            auto,
            std::thread::available_parallelism().map_or(1, |n| n.get())
        );
        assert_eq!(resolve_threads(0, 2), auto.min(2));
        // Explicit counts clamp to 1..=items; zero items still yields one
        // (idle) worker so empty batches behave like the sequential path.
        assert_eq!(resolve_threads(8, 3), 3);
        assert_eq!(resolve_threads(3, 8), 3);
        assert_eq!(resolve_threads(5, 0), 1);
        assert_eq!(resolve_threads(0, 0), 1);
    }

    #[test]
    fn threads_zero_means_auto_not_sequential_clamp() {
        // threads == 0 used to silently clamp to one worker; it now means
        // "auto" and must still be bit-identical to the sequential batch.
        let mut session = Session::new(config()).unwrap();
        let loaded = session.load_assembly(SEGMENT).unwrap();
        let sequential = session.run_shots(&loaded, 6).unwrap();
        let mut session = Session::new(config()).unwrap();
        let auto = session.run_batch(&shots(&loaded, 6), 0).unwrap();
        for (a, b) in sequential.shots.iter().zip(auto.shots.iter()) {
            assert_eq!(a.registers, b.registers);
            assert_eq!(a.md_results, b.md_results);
        }
        // More workers than shots is fine too.
        let mut session = Session::new(config()).unwrap();
        let oversubscribed = session.run_batch(&shots(&loaded, 3), 64).unwrap();
        assert_eq!(oversubscribed.len(), 3);
    }

    #[test]
    fn seed_plan_reset_replays_a_fresh_session() {
        // A worker session that has already consumed shots, once rewound
        // and given the job's plan, must replay exactly what a fresh
        // session with that plan produces.
        let mut warm = Session::new(config()).unwrap();
        let loaded = warm.load_assembly(SEGMENT).unwrap();
        warm.run_shots(&loaded, 5).unwrap(); // drift the counter
        let job_plan = SeedPlan {
            chip_base: 0xD0_0D,
            jitter_base: 0xF00D,
        };
        warm.set_seed_plan(job_plan);
        warm.reset_shot_counter();
        assert_eq!(warm.shots_run(), 0);
        let got = warm.run_shots(&loaded, 4).unwrap();
        let mut fresh = Session::new(config()).unwrap();
        fresh.set_seed_plan(job_plan);
        let want = fresh.run_shots(&loaded, 4).unwrap();
        for (a, b) in got.shots.iter().zip(want.shots.iter()) {
            assert_eq!(a.registers, b.registers);
            assert_eq!(a.md_results, b.md_results);
        }
    }

    #[test]
    fn derived_seeds_are_decorrelated() {
        let plan = SeedPlan {
            chip_base: 1,
            jitter_base: 1,
        };
        let a = plan.shot(0);
        let b = plan.shot(1);
        assert_ne!(a.chip, b.chip);
        assert_ne!(a.jitter, b.jitter);
        assert_ne!(a.chip, a.jitter, "streams must differ even at one base");
    }
}
