//! The declarative experiment harness: one [`Experiment`] trait, one
//! generic driver, eight experiments.
//!
//! Before this layer existed, every Section 8 experiment hand-rolled the
//! same pipeline — build a device config, compile a program, run it
//! through the batch engine, bin the records, fit — and `expect()`-ed its
//! way past every error. The harness factors that pipeline out:
//!
//! * an [`Experiment`] describes *what* to run: its device configuration,
//!   a parameterized [`QuantumProgram`] (or per-point programs), the
//!   sweep axes, and the analysis that turns reports into a result;
//! * [`run`] / [`run_parallel`] decide *how*: one collector-style looped
//!   program run once, or one engine [`Batch`] — a compile-once/
//!   patch-per-point template sweep, a per-point-program sweep, or a
//!   derived-seed shot batch — handed to [`Session::run_batch`], inline or
//!   sharded with the engine's bit-identical determinism contract either
//!   way;
//! * every failure surfaces as a typed [`ExperimentError`] instead of a
//!   panic.
//!
//! New experiments implement [`Experiment`]; they do not add a bespoke
//! driver (see CONTRIBUTING.md).

use crate::fit::FitError;
use quma_compiler::prelude::{Bindings, CompileError, CompilerConfig, GateSet, QuantumProgram};
use quma_core::prelude::{
    Batch, DeviceConfig, LoadedProgram, RunReport, Session, ShotSeeds, TemplatePoint,
};
use quma_isa::prelude::{PatchError, Program, ProgramTemplate};
use std::sync::Arc;

pub use crate::stats::RecordLayoutError;

/// The unified experiment error: everything that can go wrong between a
/// config and a fitted result, as a typed value (no more `expect()`
/// panics on `DeviceError` inside drivers).
#[derive(Debug)]
pub enum ExperimentError {
    /// The device rejected the configuration or the run.
    Device(quma_core::prelude::DeviceError),
    /// The program failed to compile.
    Compile(CompileError),
    /// A template patch failed.
    Patch(PatchError),
    /// The analysis fit failed.
    Fit(FitError),
    /// The run's measurement records do not match the sweep layout.
    RecordLayout(RecordLayoutError),
    /// The experiment description itself is inconsistent.
    Config(String),
}

impl std::fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExperimentError::Device(e) => write!(f, "device error: {e}"),
            ExperimentError::Compile(e) => write!(f, "compile error: {e}"),
            ExperimentError::Patch(e) => write!(f, "patch error: {e}"),
            ExperimentError::Fit(e) => write!(f, "fit error: {e}"),
            ExperimentError::RecordLayout(e) => write!(f, "{e}"),
            ExperimentError::Config(s) => write!(f, "experiment config error: {s}"),
        }
    }
}

impl std::error::Error for ExperimentError {
    /// Chains to the layer that actually failed (device, compiler, patch,
    /// fit, binning), so callers can walk causes generically instead of
    /// pattern-matching variants to stringify them.
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExperimentError::Device(e) => Some(e),
            ExperimentError::Compile(e) => Some(e),
            ExperimentError::Patch(e) => Some(e),
            ExperimentError::Fit(e) => Some(e),
            ExperimentError::RecordLayout(e) => Some(e),
            ExperimentError::Config(_) => None,
        }
    }
}

impl From<quma_core::prelude::DeviceError> for ExperimentError {
    fn from(e: quma_core::prelude::DeviceError) -> Self {
        ExperimentError::Device(e)
    }
}

impl From<CompileError> for ExperimentError {
    fn from(e: CompileError) -> Self {
        ExperimentError::Compile(e)
    }
}

impl From<PatchError> for ExperimentError {
    fn from(e: PatchError) -> Self {
        ExperimentError::Patch(e)
    }
}

impl From<FitError> for ExperimentError {
    fn from(e: FitError) -> Self {
        ExperimentError::Fit(e)
    }
}

impl From<RecordLayoutError> for ExperimentError {
    fn from(e: RecordLayoutError) -> Self {
        ExperimentError::RecordLayout(e)
    }
}

/// One point of an experiment sweep.
#[derive(Debug, Clone, Default)]
pub struct SweepPoint {
    /// The x-axis value analysis plots against (seconds, a scale factor,
    /// a sequence length, an injected-flip count …).
    pub x: f64,
    /// Sweep-parameter bindings for this point (template and collector
    /// modes).
    pub bindings: Bindings,
    /// Explicit shot seeds; `None` derives `seed_plan().shot(index)`.
    pub seeds: Option<ShotSeeds>,
    /// A structurally distinct compiled program for this point
    /// ([`ExecutionMode::ProgramSweep`]); `Arc`-shared so points with the
    /// same program (e.g. repeated QEC injection patterns) compile once.
    pub program: Option<Arc<Program>>,
}

impl SweepPoint {
    /// A point at `x` with parameter bindings (template/collector modes).
    pub fn bound(x: f64, bindings: Bindings) -> Self {
        Self {
            x,
            bindings,
            ..Self::default()
        }
    }
}

/// How the sweep points execute on the session.
#[derive(Debug, Clone)]
pub enum ExecutionMode {
    /// Unroll every point's kernels into one looped program (the paper's
    /// Algorithm 3 collector layout) and run it once *without* reseeding;
    /// measurement records bin cyclically into `points.len()` slots. The
    /// harness validates the record count against that layout.
    Collector,
    /// Compile the parameterized program once, patch the loaded binary
    /// per point (O(1) per axis — no re-assembly), one reseeded shot per
    /// point.
    ///
    /// A `wait_param` patched to 0 keeps a live `Wait 0` instruction,
    /// whereas a bound compile elides it; the two are bit-identical
    /// while the instruction-jitter model is off (the default — `Wait 0`
    /// advances the timeline by nothing), but with jitter enabled the
    /// extra instruction draws from the jitter RNG. Keep zero-delay
    /// points out of template sweeps when jitter matters; the collector
    /// and per-point-compile paths are unaffected.
    TemplateSweep,
    /// One compiled program per point (structural differences a patch
    /// cannot express), run as an engine [`Batch::Sweep`].
    ProgramSweep,
    /// One fixed program, `shots` derived-seed shots continuing the
    /// session's seed sequence.
    Shots {
        /// The compiled program.
        program: Arc<Program>,
        /// Number of shots.
        shots: u64,
    },
}

/// The sweep description: the points, how they execute, and how many
/// worker threads to use (1 = sequential, 0 = one per available core).
#[derive(Debug, Clone)]
pub struct SweepAxes {
    /// The sweep points, in execution order.
    pub points: Vec<SweepPoint>,
    /// Execution mode.
    pub mode: ExecutionMode,
    /// Worker threads: `1` is sequential, `0` resolves to
    /// [`std::thread::available_parallelism`] at run time (overridable
    /// by [`run_parallel`]).
    pub threads: usize,
}

impl SweepAxes {
    /// A sequential sweep in the given mode.
    pub fn new(points: Vec<SweepPoint>, mode: ExecutionMode) -> Self {
        Self {
            points,
            mode,
            threads: 1,
        }
    }

    /// Sets the worker-thread count (builder style). `0` means "one
    /// worker per available core" (resolved by
    /// [`quma_core::prelude::resolve_threads`] at run time), `1` is
    /// sequential.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The x values of every point.
    pub fn xs(&self) -> Vec<f64> {
        self.points.iter().map(|p| p.x).collect()
    }
}

/// A declarative experiment: configuration in, typed result out, with the
/// run plan (program, axes, analysis) described rather than hand-rolled.
///
/// Only the methods an experiment's [`ExecutionMode`] needs must be
/// implemented: `Collector` and `TemplateSweep` require
/// [`Experiment::program`]; `ProgramSweep` and `Shots` carry compiled
/// programs inside their axes.
pub trait Experiment {
    /// The experiment's configuration.
    type Config;
    /// The analyzed result.
    type Output;

    /// Human-readable name (error messages, logs).
    fn name(&self) -> &'static str;

    /// The device the experiment runs on.
    fn device_config(&self, cfg: &Self::Config) -> DeviceConfig;

    /// Prepares the calibrated session before any point runs (error
    /// injection, detuning, noise, library uploads).
    fn prepare(&self, _cfg: &Self::Config, _session: &mut Session) -> Result<(), ExperimentError> {
        Ok(())
    }

    /// The parameterized program (one copy of the per-point kernels, with
    /// `*_param` ops as sweep axes). Required for `Collector` and
    /// `TemplateSweep` modes.
    fn program(&self, _cfg: &Self::Config) -> Result<QuantumProgram, ExperimentError> {
        Err(ExperimentError::Config(format!(
            "{} does not define a parameterized program",
            self.name()
        )))
    }

    /// The gate set the program compiles against.
    fn gates(&self, _cfg: &Self::Config) -> GateSet {
        GateSet::paper_default()
    }

    /// The compiler configuration (init idle, averaging rounds).
    fn compiler_config(&self, _cfg: &Self::Config) -> CompilerConfig {
        CompilerConfig::default()
    }

    /// The compile-once patchable template for one sweep point.
    fn template(&self, cfg: &Self::Config) -> Result<ProgramTemplate, ExperimentError> {
        Ok(self
            .program(cfg)?
            .compile_template(&self.gates(cfg), &self.compiler_config(cfg))?)
    }

    /// The sweep: points, execution mode, threads.
    fn axes(&self, cfg: &Self::Config) -> Result<SweepAxes, ExperimentError>;

    /// Per-point session mutation (e.g. a pulse-library upload between
    /// Rabi points), called before batch item `index` (a sweep point, or a
    /// shot in `Shots` mode) executes. Experiments overriding this must
    /// also override [`Experiment::mutates_per_point`] to return `true`:
    /// a sharded batch cannot order mutations against items on other
    /// workers, so the harness refuses `threads > 1` for such experiments
    /// instead of silently skipping the hook.
    fn before_point(
        &self,
        _cfg: &Self::Config,
        _session: &mut Session,
        _index: usize,
    ) -> Result<(), ExperimentError> {
        Ok(())
    }

    /// True when [`Experiment::before_point`] mutates the session. The
    /// harness then runs the batch one item at a time, calling the hook
    /// before each, and rejects parallel execution.
    fn mutates_per_point(&self) -> bool {
        false
    }

    /// Turns the evidence into the result. `reports` holds one report per
    /// point (sweep modes), per shot (`Shots`), or exactly one report
    /// (`Collector`).
    fn analyze(
        &self,
        cfg: &Self::Config,
        axes: &SweepAxes,
        reports: &[RunReport],
    ) -> Result<Self::Output, ExperimentError>;
}

/// Runs an experiment with the thread count its axes declare.
pub fn run<E: Experiment>(exp: &E, cfg: &E::Config) -> Result<E::Output, ExperimentError> {
    run_with_threads(exp, cfg, None)
}

/// Runs an experiment with an explicit worker-thread count (`0` = one
/// worker per available core; sweep and shot modes shard bit-identically
/// to the sequential run; `Collector` mode is a single run and ignores
/// the override).
pub fn run_parallel<E: Experiment>(
    exp: &E,
    cfg: &E::Config,
    threads: usize,
) -> Result<E::Output, ExperimentError> {
    run_with_threads(exp, cfg, Some(threads))
}

fn run_with_threads<E: Experiment>(
    exp: &E,
    cfg: &E::Config,
    threads_override: Option<usize>,
) -> Result<E::Output, ExperimentError> {
    let mut session = Session::new(exp.device_config(cfg))?;
    run_on_session(exp, cfg, &mut session, threads_override)
}

/// Runs an experiment on a caller-provided session instead of building
/// one — the entry point `quma_pool` workers use to drive experiments on
/// warm device clones. The session must be *fresh-equivalent*: its
/// device bit-identical to `Device::new(exp.device_config(cfg))` (a
/// clone of a pristine device qualifies — construction is deterministic)
/// with the shot counter at 0. Under that precondition the output is
/// bit-identical to [`run`] / [`run_parallel`] with the same arguments,
/// which is what pins pooled execution to direct execution.
///
/// `prepare` (error injection, detuning, library uploads) is applied
/// here, exactly as in [`run`]; the caller should discard the session
/// afterwards rather than assume it is still pristine.
pub fn run_on_session<E: Experiment>(
    exp: &E,
    cfg: &E::Config,
    session: &mut Session,
    threads_override: Option<usize>,
) -> Result<E::Output, ExperimentError> {
    exp.prepare(cfg, session)?;
    let axes = exp.axes(cfg)?;
    let batch = match &axes.mode {
        ExecutionMode::Collector => {
            let program = exp.program(cfg)?;
            let bindings: Vec<Bindings> = axes.points.iter().map(|p| p.bindings.clone()).collect();
            let compiled =
                program.compile_unrolled(&exp.gates(cfg), &exp.compiler_config(cfg), &bindings)?;
            let loaded = session.load(&compiled);
            let report = session.run(&loaded)?;
            let k = axes.points.len();
            if k > 0 && !report.md_results.len().is_multiple_of(k) {
                return Err(RecordLayoutError {
                    records: report.md_results.len(),
                    k,
                }
                .into());
            }
            return exp.analyze(cfg, &axes, &[report]);
        }
        ExecutionMode::TemplateSweep => {
            let program = exp.program(cfg)?;
            let gates = exp.gates(cfg);
            let template = exp.template(cfg)?;
            let plan = session.seed_plan();
            let points = axes
                .points
                .iter()
                .enumerate()
                .map(|(i, p)| {
                    Ok(TemplatePoint {
                        patches: program.resolve_patches(&gates, &p.bindings)?,
                        seeds: p.seeds.unwrap_or_else(|| plan.shot(i as u64)),
                    })
                })
                .collect::<Result<Vec<_>, ExperimentError>>()?;
            Batch::Template {
                program: Arc::new(template.into_program()),
                points: points.into(),
            }
        }
        ExecutionMode::ProgramSweep => {
            let plan = session.seed_plan();
            let points = axes
                .points
                .iter()
                .enumerate()
                .map(|(i, p)| {
                    let program = p.program.clone().ok_or_else(|| {
                        ExperimentError::Config(format!(
                            "{}: ProgramSweep point {i} has no program",
                            exp.name()
                        ))
                    })?;
                    Ok((
                        LoadedProgram::from_arc(program),
                        p.seeds.unwrap_or_else(|| plan.shot(i as u64)),
                    ))
                })
                .collect::<Result<Vec<_>, ExperimentError>>()?;
            Batch::Sweep(points.into())
        }
        ExecutionMode::Shots { program, shots } => Batch::Shots {
            program: LoadedProgram::from_arc(Arc::clone(program)),
            shots: *shots,
        },
    };
    // Resolve the thread request (0 = auto) against the actual amount of
    // work, so the mutates_per_point guard sees the real fan-out.
    let threads =
        quma_core::prelude::resolve_threads(threads_override.unwrap_or(axes.threads), batch.len());
    let reports = if exp.mutates_per_point() {
        if threads > 1 {
            return Err(ExperimentError::Config(format!(
                "{} mutates the session per point (before_point); it cannot shard \
                 across {threads} workers — run it with threads == 1",
                exp.name()
            )));
        }
        // Item by item, so the hook runs between items. Slices of a
        // template sweep are only equivalent to the whole sweep when every
        // point patches the same axes, so check the whole sweep first.
        if let Batch::Template { points, .. } = &batch {
            quma_core::prelude::validate_axis_sets(points)?;
        }
        let mut out = Vec::with_capacity(batch.len());
        for i in 0..batch.len() {
            exp.before_point(cfg, session, i)?;
            out.extend(session.run_batch(&batch.slice(i..i + 1), 1)?.shots);
        }
        out
    } else {
        session.run_batch(&batch, threads)?.shots
    };
    exp.analyze(cfg, &axes, &reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use quma_core::prelude::SessionTracer;
    use quma_obs::trace::{SpanEvent, SpanKind, TraceBuffer};

    fn point(patches: &[(&str, i64)]) -> TemplatePoint {
        TemplatePoint {
            patches: patches.iter().map(|&(n, v)| (n.to_string(), v)).collect(),
            seeds: ShotSeeds { chip: 0, jitter: 0 },
        }
    }

    /// Runs `exp` at one thread on a traced session; returns its point
    /// count and the `shot_batch` spans it recorded.
    fn traced_run<E: Experiment>(exp: &E, cfg: &E::Config) -> (usize, Vec<SpanEvent>) {
        let buf = TraceBuffer::new(64);
        let mut session = Session::new(exp.device_config(cfg)).unwrap();
        session.set_tracer(Some(SessionTracer {
            buf: buf.clone(),
            trace_id: 7,
            tid: 0,
        }));
        run_on_session(exp, cfg, &mut session, Some(1)).unwrap();
        let points = exp.axes(cfg).unwrap().points.len();
        let spans = buf.events();
        (points, spans)
    }

    #[test]
    fn single_thread_sweeps_record_one_shot_batch_span() {
        let template = traced_run(
            &crate::readout::Readout,
            &crate::readout::ReadoutConfig {
                durations_cycles: vec![8, 40, 100],
                shots: 4,
                ..Default::default()
            },
        );
        let program = traced_run(
            &crate::rb::Rb::default(),
            &crate::rb::RbConfig {
                lengths: vec![1, 2, 4],
                sequences_per_length: 1,
                averages: 2,
                ..Default::default()
            },
        );
        for (points, spans) in [template, program] {
            assert_eq!(spans.len(), 1, "{spans:?}");
            let span = &spans[0];
            assert_eq!(span.kind, SpanKind::ShotBatch);
            assert_eq!((span.a, span.b), (points as u64, 0));
        }
    }

    #[test]
    fn uniform_axes_accepts_matching_sets_in_any_order() {
        let points = vec![point(&[("a", 1), ("b", 2)]), point(&[("b", 3), ("a", 4)])];
        assert!(quma_core::prelude::validate_axis_sets(&points).is_ok());
        assert!(quma_core::prelude::validate_axis_sets(&[]).is_ok());
    }

    #[test]
    fn uniform_axes_rejects_skipped_axes() {
        let points = vec![point(&[("a", 1), ("b", 2)]), point(&[("a", 3)])];
        let err: ExperimentError = quma_core::prelude::validate_axis_sets(&points)
            .unwrap_err()
            .into();
        assert!(matches!(err, ExperimentError::Device(_)));
        assert!(err.to_string().contains("expected"));
    }
}
