//! Wire schemas: translating domain objects (shot reports, metrics,
//! submissions) to and from the JSON documents the HTTP API speaks.
//!
//! Encoding is lossless where determinism is observable: registers and
//! discrimination bits are integers, and every `f64` (integration
//! values, collector averages, fitted rates) crosses the wire in Rust's
//! shortest-round-trip decimal form, so a client that parses a served
//! shot record holds **bit-identical** values to a direct
//! [`Session`](quma_core::engine::Session) run —
//! `tests/http_lifecycle.rs` pins exactly that.

use crate::json::Json;
use crate::problem::ProblemJson;
use quma_core::prelude::ChipProfile;
use quma_core::prelude::{BatchReport, RunReport};
use quma_experiments::prelude::{
    Allxy, AllxyConfig, AllxyResult, QecConfig, QecInjected, QecResult,
};
use quma_isa::template::PatchField;
use quma_journal::{JobSpec, SweepPointSpec, TemplatePointSpec};
use quma_pool::prelude::{Job, JobMetrics, JobOutput, Priority, ShotChunk, SlotSpec, SpecError};
use quma_pool::DevicePool;

/// The experiments `POST /jobs` accepts, by wire name.
pub(crate) const EXPERIMENTS: [&str; 2] = ["allxy", "qec"];

fn field_problem(detail: impl Into<String>, path: &str) -> ProblemJson {
    ProblemJson::validation(detail).with_context("path", Json::str(path.to_string()))
}

/// Tags a problem with the index of the `key` array element it is about.
fn at(key: &'static str, i: usize) -> impl Fn(ProblemJson) -> ProblemJson {
    move |p| p.with_context(key, Json::Int(i as i64))
}

fn want_u64(doc: &Json, key: &str, default: Option<u64>) -> Result<u64, ProblemJson> {
    match doc.get(key) {
        None => default.ok_or_else(|| field_problem(format!("missing field '{key}'"), key)),
        Some(v) => v
            .as_u64()
            .ok_or_else(|| field_problem(format!("'{key}' must be a non-negative integer"), key)),
    }
}

fn want_f64(doc: &Json, key: &str, default: f64) -> Result<f64, ProblemJson> {
    match doc.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_f64()
            .ok_or_else(|| field_problem(format!("'{key}' must be a number"), key)),
    }
}

fn want_bool(doc: &Json, key: &str, default: bool) -> Result<bool, ProblemJson> {
    match doc.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_bool()
            .ok_or_else(|| field_problem(format!("'{key}' must be a boolean"), key)),
    }
}

fn want_str<'d>(doc: &'d Json, key: &str) -> Result<&'d str, ProblemJson> {
    doc.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| field_problem(format!("missing string field '{key}'"), key))
}

/// A point's `seeds` object as `(chip, jitter)`.
fn seeds_from(doc: &Json, key: &str) -> Result<(u64, u64), ProblemJson> {
    let obj = doc
        .get(key)
        .ok_or_else(|| field_problem(format!("missing field '{key}'"), key))?;
    Ok((want_u64(obj, "chip", None)?, want_u64(obj, "jitter", None)?))
}

fn profile_from(doc: &Json, key: &str, default: ChipProfile) -> Result<ChipProfile, ProblemJson> {
    match doc.get(key) {
        None => Ok(default),
        Some(v) => match v.as_str() {
            Some("ideal") => Ok(ChipProfile::Ideal),
            Some("paper") => Ok(ChipProfile::Paper),
            Some("stabilizer") => Ok(ChipProfile::Stabilizer),
            _ => Err(field_problem(
                format!("'{key}' must be one of \"ideal\", \"paper\", \"stabilizer\""),
                key,
            )),
        },
    }
}

/// Parses and validates a `POST /jobs` body into a pool job carrying
/// its [`JobSpec`]: shots and sweeps parse into a spec the pool
/// resolves, experiments carry their submission as an opaque spec.
/// Every rejection is a 422 `validation_error` problem naming the bad
/// field.
pub(crate) fn parse_submission(doc: &Json, pool: &DevicePool) -> Result<Job, ProblemJson> {
    if !matches!(doc, Json::Obj(_)) {
        return Err(ProblemJson::validation(
            "the job document must be an object",
        ));
    }
    let high = match doc.get("priority") {
        None => false,
        Some(v) => match v.as_str() {
            Some("normal") => false,
            Some("high") => true,
            _ => {
                return Err(field_problem(
                    "'priority' must be \"normal\" or \"high\"",
                    "priority",
                ))
            }
        },
    };
    let job = match want_str(doc, "kind")? {
        "shots" => resolve(pool, parse_shots(doc)?)?,
        "sweep" => resolve(pool, parse_sweep(doc)?)?,
        "template_sweep" => resolve(pool, parse_template_sweep(doc)?)?,
        "experiment" => parse_experiment(doc)?,
        other => {
            return Err(field_problem(
                format!(
                    "unknown job kind '{other}' \
                     (expected shots | sweep | template_sweep | experiment)"
                ),
                "kind",
            ))
        }
    };
    Ok(if high { job.high_priority() } else { job })
}

/// Resolves a parsed spec through the pool; a program that fails to
/// assemble is a 422 naming the source (and the sweep point) at fault.
fn resolve(pool: &DevicePool, spec: JobSpec) -> Result<Job, ProblemJson> {
    let what = match spec {
        JobSpec::TemplateSweep { .. } => "template",
        _ => "assembly",
    };
    pool.resolve(spec).map_err(|SpecError { point, error }| {
        let problem = ProblemJson::validation(format!("{what} rejected: {error}"))
            .with_context("path", Json::str("source"));
        match point {
            Some(i) => at("point", i)(problem),
            None => problem,
        }
    })
}

/// The `points` array of a sweep document, 1..=100000 entries long.
fn points_of(doc: &Json) -> Result<&[Json], ProblemJson> {
    let points = doc
        .get("points")
        .and_then(Json::as_arr)
        .ok_or_else(|| field_problem("'points' must be an array", "points"))?;
    if points.is_empty() || points.len() > 100_000 {
        return Err(field_problem(
            "'points' must hold 1..=100000 points",
            "points",
        ));
    }
    Ok(points)
}

fn parse_shots(doc: &Json) -> Result<JobSpec, ProblemJson> {
    let source = want_str(doc, "source")?;
    let shots = want_u64(doc, "shots", None)?;
    if shots == 0 || shots > 1_000_000 {
        return Err(field_problem("'shots' must be in 1..=1000000", "shots"));
    }
    let plan = match doc.get("seed_plan") {
        Some(plan) => Some((
            want_u64(plan, "chip_base", None)?,
            want_u64(plan, "jitter_base", None)?,
        )),
        None => None,
    };
    Ok(JobSpec::Shots {
        source: source.to_string(),
        shots,
        plan,
        chunk: want_u64(doc, "chunk_shots", Some(0))?,
    })
}

fn parse_sweep(doc: &Json) -> Result<JobSpec, ProblemJson> {
    let points = points_of(doc)?
        .iter()
        .enumerate()
        .map(|(i, point)| {
            let source = want_str(point, "source").map_err(at("point", i))?;
            let (chip, jitter) = seeds_from(point, "seeds").map_err(at("point", i))?;
            Ok(SweepPointSpec {
                source: source.to_string(),
                chip,
                jitter,
            })
        })
        .collect::<Result<_, _>>()?;
    Ok(JobSpec::Sweep { points })
}

fn parse_template_sweep(doc: &Json) -> Result<JobSpec, ProblemJson> {
    let source = want_str(doc, "source")?;
    let slots_doc = doc
        .get("slots")
        .and_then(Json::as_arr)
        .ok_or_else(|| field_problem("'slots' must be an array", "slots"))?;
    let mut slots = Vec::with_capacity(slots_doc.len());
    for (i, slot) in slots_doc.iter().enumerate() {
        let name = want_str(slot, "name").map_err(at("slot", i))?;
        let insn = want_u64(slot, "instruction", None).map_err(at("slot", i))?;
        let field = match slot.get("field").and_then(Json::as_str) {
            Some("wait_interval") => PatchField::WaitInterval,
            Some("mov_imm") => PatchField::MovImm,
            Some("mpg_duration") => PatchField::MpgDuration,
            Some("pulse_uop") => PatchField::PulseUop {
                op: want_u64(slot, "op", Some(0))? as usize,
            },
            _ => {
                return Err(at("slot", i)(field_problem(
                    "'field' must be one of \"wait_interval\", \"mov_imm\", \
                     \"mpg_duration\", \"pulse_uop\"",
                    "field",
                )))
            }
        };
        slots.push(SlotSpec::new(name, insn as u32, field));
    }
    let points_doc = points_of(doc)?;
    let mut points = Vec::with_capacity(points_doc.len());
    for (i, point) in points_doc.iter().enumerate() {
        let (chip, jitter) = seeds_from(point, "seeds").map_err(at("point", i))?;
        let patches = match point.get("patches") {
            Some(Json::Obj(pairs)) => pairs
                .iter()
                .map(|(axis, v)| {
                    v.as_i64().map(|n| (axis.clone(), n)).ok_or_else(|| {
                        at("point", i)(field_problem("patch values must be integers", "patches"))
                    })
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => {
                return Err(at("point", i)(field_problem(
                    "'patches' must be an object",
                    "patches",
                )))
            }
        };
        points.push(TemplatePointSpec {
            patches,
            chip,
            jitter,
        });
    }
    Ok(JobSpec::TemplateSweep {
        source: source.to_string(),
        slots,
        points,
    })
}

fn parse_experiment(doc: &Json) -> Result<Job, ProblemJson> {
    let name = want_str(doc, "experiment")?;
    let cfg = doc.get("config").cloned().unwrap_or(Json::Obj(Vec::new()));
    let job = match name {
        "allxy" => {
            let defaults = AllxyConfig::default();
            let config = AllxyConfig {
                averages: want_u64(&cfg, "averages", Some(u64::from(defaults.averages)))? as u32,
                init_cycles: want_u64(&cfg, "init_cycles", Some(u64::from(defaults.init_cycles)))?
                    as u32,
                double_points: want_bool(&cfg, "double_points", defaults.double_points)?,
                chip: profile_from(&cfg, "profile", defaults.chip)?,
                seed: want_u64(&cfg, "seed", Some(defaults.seed))?,
                ..defaults
            };
            Job::experiment(Allxy, config)
        }
        "qec" => {
            let defaults = QecConfig::default();
            let distance = want_u64(&cfg, "distance", Some(defaults.distance as u64))? as usize;
            if distance.is_multiple_of(2) || !(3..=25).contains(&distance) {
                return Err(field_problem(
                    "'distance' must be odd and in 3..=25",
                    "distance",
                ));
            }
            let profile = profile_from(&cfg, "profile", defaults.profile)?;
            if distance > 5 && profile != ChipProfile::Stabilizer {
                return Err(field_problem(
                    "distances above 5 need \"stabilizer\" as the profile",
                    "profile",
                ));
            }
            let config = QecConfig {
                distance,
                rounds: want_u64(&cfg, "rounds", Some(defaults.rounds as u64))? as usize,
                shots: want_u64(&cfg, "shots", Some(defaults.shots))?,
                error_rate: want_f64(&cfg, "error_rate", defaults.error_rate)?,
                logical_one: want_bool(&cfg, "logical_one", defaults.logical_one)?,
                feedback: want_bool(&cfg, "feedback", defaults.feedback)?,
                profile,
                chip_seed: want_u64(&cfg, "chip_seed", Some(defaults.chip_seed))?,
                injection_seed: want_u64(&cfg, "injection_seed", Some(defaults.injection_seed))?,
                threads: 1,
                init_cycles: want_u64(&cfg, "init_cycles", Some(u64::from(defaults.init_cycles)))?
                    as u32,
            };
            Job::experiment(QecInjected::default(), config)
        }
        other => {
            return Err(field_problem(
                format!("unknown experiment '{other}' (expected allxy | qec)"),
                "experiment",
            ))
        }
    };
    // Experiment configs are typed per experiment, so the spec carries
    // the whole submission document as an opaque payload; recovery hands
    // it back to `parse_submission` to rebuild the job.
    Ok(job.with_spec(JobSpec::Opaque {
        tag: name.to_string(),
        payload: doc.encode().into_bytes(),
    }))
}

/// Encodes a finished job's output as its result document — the one
/// encoder for fresh, resumed and journal-served results alike, so a
/// result served after a restart is byte-identical to the one served
/// before it.
pub(crate) fn encode_output(output: JobOutput) -> Json {
    match output {
        JobOutput::Batch(batch) => encode_batch(&batch),
        JobOutput::Reports(reports) => encode_reports(&reports),
        JobOutput::Experiment(any) => match any.downcast::<AllxyResult>() {
            Ok(result) => encode_allxy(&result),
            Err(any) => any
                .downcast::<QecResult>()
                .map_or(Json::Null, |result| encode_qec(&result)),
        },
    }
}

/// Encodes one shot record. The triple (`registers`, `md_results`,
/// `collector_averages`) is the deterministic payload the bit-identity
/// contract covers; run statistics ride along informationally.
pub(crate) fn encode_run_report(report: &RunReport) -> Json {
    Json::obj([
        (
            "registers",
            Json::Arr(
                report
                    .registers
                    .iter()
                    .map(|&r| Json::Int(i64::from(r)))
                    .collect(),
            ),
        ),
        (
            "md_results",
            Json::Arr(
                report
                    .md_results
                    .iter()
                    .map(|md| {
                        Json::obj([
                            ("td", Json::Int(md.td.min(i64::MAX as u64) as i64)),
                            ("qubit", Json::Int(md.qubit as i64)),
                            ("bit", Json::Int(i64::from(md.bit))),
                            ("s", Json::Float(md.s)),
                            (
                                "rd",
                                md.rd
                                    .map_or(Json::Null, |r| Json::Int(i64::from(r.index()))),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "collector_averages",
            Json::Arr(
                report
                    .collector_averages
                    .iter()
                    .map(|per_qubit| Json::Arr(per_qubit.iter().map(|&v| Json::Float(v)).collect()))
                    .collect(),
            ),
        ),
    ])
}

/// Encodes a `Shots` batch as `{"type":"batch","shots":[…]}`.
pub(crate) fn encode_batch(batch: &BatchReport) -> Json {
    Json::obj([
        ("type", Json::str("batch")),
        (
            "shots",
            Json::Arr(batch.shots.iter().map(encode_run_report).collect()),
        ),
    ])
}

/// Encodes sweep reports as `{"type":"reports","points":[…]}`.
pub(crate) fn encode_reports(reports: &[RunReport]) -> Json {
    Json::obj([
        ("type", Json::str("reports")),
        (
            "points",
            Json::Arr(reports.iter().map(encode_run_report).collect()),
        ),
    ])
}

fn encode_allxy(result: &AllxyResult) -> Json {
    let floats = |xs: &[f64]| Json::Arr(xs.iter().map(|&v| Json::Float(v)).collect());
    Json::obj([
        ("type", Json::str("experiment")),
        ("experiment", Json::str("allxy")),
        ("raw", floats(&result.raw)),
        ("fidelity", floats(&result.fidelity)),
        ("ideal", floats(&result.ideal)),
        ("deviation", Json::Float(result.deviation)),
        ("points_per_pair", Json::Int(result.points_per_pair as i64)),
    ])
}

fn encode_qec(result: &QecResult) -> Json {
    Json::obj([
        ("type", Json::str("experiment")),
        ("experiment", Json::str("qec")),
        ("distance", Json::Int(result.distance as i64)),
        ("rounds", Json::Int(result.rounds as i64)),
        ("shots", Json::Int(result.shots.min(i64::MAX as u64) as i64)),
        ("error_rate", Json::Float(result.error_rate)),
        (
            "logical_errors",
            Json::Int(result.logical_errors.min(i64::MAX as u64) as i64),
        ),
        ("logical_error_rate", Json::Float(result.logical_error_rate)),
        ("error_sem", Json::Float(result.error_sem)),
        (
            "injected_flips",
            Json::Int(result.injected_flips.min(i64::MAX as u64) as i64),
        ),
        (
            "majority_bits",
            Json::Arr(
                result
                    .majority_bits
                    .iter()
                    .map(|&b| Json::Int(i64::from(b)))
                    .collect(),
            ),
        ),
    ])
}

/// Encodes a finished job's metrics.
pub(crate) fn encode_metrics(metrics: &JobMetrics) -> Json {
    Json::obj([
        (
            "priority",
            Json::str(match metrics.priority {
                Priority::High => "high",
                Priority::Normal => "normal",
            }),
        ),
        ("worker", Json::Int(metrics.worker as i64)),
        (
            "dispatch_seq",
            Json::Int(metrics.dispatch_seq.min(i64::MAX as u64) as i64),
        ),
        (
            "queue_wait_us",
            Json::Int(metrics.queue_wait.as_micros().min(i64::MAX as u128) as i64),
        ),
        (
            "run_time_us",
            Json::Int(metrics.run_time.as_micros().min(i64::MAX as u128) as i64),
        ),
        ("cache_hit", Json::Bool(metrics.cache_hit)),
    ])
}

/// Encodes one streamed chunk.
pub(crate) fn encode_chunk(chunk: &ShotChunk) -> Json {
    Json::obj([
        (
            "first_shot",
            Json::Int(chunk.first_shot.min(i64::MAX as u64) as i64),
        ),
        (
            "shots",
            Json::Arr(chunk.reports.iter().map(encode_run_report).collect()),
        ),
    ])
}
