//! End-to-end benchmark of the QuMA serving stack; see `README.md`.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     [--workload served_shots|served_qec|engine_allxy|all] \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--trace 0` a run prints every end-to-end metric; with
//! `--trace 1` it runs the traced run with its layer replay and prints
//! every per-layer metric. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.

mod check;
mod layers;
mod load;
mod spans;
mod stats;
mod workload;

use check::Tally;
use load::{Load, Phase, Prepared, RssProbe, Timed, Until};
use quma_serve::Json;
use spans::Recorder;
use stats::{beyond, median, percentile};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use workload::Workload;

/// The seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// Set-ups before an untraced run's timed phase; `setup_s` is the median
/// of these and of the set-ups that replace full stacks while it runs.
const SETUP_REPEATS: usize = 5;
/// Window pairs (spans off, spans on) the traced run alternates.
const OVERHEAD_WINDOWS: u32 = 10;
/// Spans written to the span file at most (~130 bytes each): every span
/// of the replay and single calls, then the workload's first spans.
const MAX_FILE_SPANS: usize = 40_000;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: quma-e2ebench [--workload served_shots|served_qec|engine_allxy|all] \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Workload::ALL.to_vec(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--help" || flag == "-h" {
            return Err(USAGE.to_string());
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        match flag.as_str() {
            "--workload" if value == "all" => args.workloads = Workload::ALL.to_vec(),
            "--workload" => {
                args.workloads = vec![Workload::parse(&value)
                    .ok_or_else(|| format!("unknown workload '{value}'\n{USAGE}"))?]
            }
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag '{flag}'\n{USAGE}")),
        }
    }
    Ok(args)
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    /// How it was measured (sample counts behind percentiles).
    note: String,
}

fn metric(name: &str, value: f64, unit: &'static str, note: impl Into<String>) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        note: note.into(),
    }
}

/// What one workload run reports.
#[derive(Default)]
struct Outcome {
    metrics: Vec<Metric>,
    tally: Tally,
}

/// The per-process scratch directory (journals, the span file) inside
/// the benchmark's own directory.
fn work_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("work")
        .join(std::process::id().to_string())
}

/// Generates the run's jobs and precomputes their references (untimed).
fn prepare(workload: Workload, seed: u64) -> Vec<Prepared> {
    let inputs = workload.jobs(seed);
    let references = workload::references(&inputs);
    inputs
        .into_iter()
        .zip(references)
        .map(|(input, expected)| Prepared {
            wire: input.wire(),
            input,
            expected,
        })
        .collect()
}

fn deadline(seconds: f64) -> Until {
    Until::deadline(Instant::now() + Duration::from_secs_f64(seconds))
}

fn describe(workload: Workload, work: &Path) {
    let journal = if workload.served() {
        format!(
            "journal under {}",
            work.strip_prefix(std::env::current_dir().unwrap_or_default())
                .unwrap_or(work)
                .display()
        )
    } else {
        "no pool, server or journal".into()
    };
    let poll = if workload.served() {
        format!(
            ", fixed poll every {} us",
            workload.poll_interval().as_micros()
        )
    } else {
        String::new()
    };
    println!(
        "# {}: {} closed-loop client(s){poll}; {}; {journal}",
        workload.name(),
        workload.clients(),
        workload.shape()
    );
}

/// The untraced run: `SETUP_REPEATS` set-ups, then the timed phase on
/// the last (and on the fresh stacks that replace it when full).
fn untraced(workload: Workload, jobs: &[Prepared], work: &Path, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    for i in 1..SETUP_REPEATS {
        let load = Load::start(workload, jobs, &work.join(format!("run-{i}")));
        setups.extend_from_slice(&load.setups);
        out.tally.add(&load.warmup);
    }
    let mut load = Load::start(workload, jobs, &work.join("run-0"));
    let probe = RssProbe::new(workload.rss_probe_jobs());
    let phase = load.run(Timed {
        until: deadline(seconds),
        probe: &probe,
        trace_epoch: None,
    });
    let (peak_rss, rss_note) = match probe.peak_mb() {
        Some(mb) => (
            mb,
            format!(
                "VmHWM when timed job {} completed",
                workload.rss_probe_jobs()
            ),
        ),
        None => (
            stats::peak_rss_mb(),
            format!(
                "VmHWM at the end: fewer than {} timed jobs ran",
                workload.rss_probe_jobs()
            ),
        ),
    };
    let disk = load.journal_bytes_per_job();
    let stacks = load.setups.len();
    setups.extend_from_slice(&load.setups);
    out.tally.add(&load.warmup);
    drop(load);
    out.tally.add(&phase.tally);

    let done = phase.completed().max(1);
    let n = phase.latency_ms.len();
    out.metrics = vec![
        metric(
            "setup_s",
            median(&setups),
            "s",
            format!("median of {} set-ups", setups.len()),
        ),
        metric(
            "jobs_per_s",
            phase.jobs_per_s(),
            "1/s",
            format!("{done} jobs in {:.3} s", phase.elapsed_s),
        ),
        metric(
            "job_p50_ms",
            median(&phase.latency_ms),
            "ms",
            format!("{n} samples"),
        ),
        metric(
            "job_p90_ms",
            percentile(&phase.latency_ms, 90.0),
            "ms",
            format!("{n} samples, {} beyond", beyond(&phase.latency_ms, 90.0)),
        ),
        metric(
            "cpu_ms_per_job",
            phase.cpu_s * 1e3 / done as f64,
            "ms",
            format!("{:.2} CPU s over {done} jobs", phase.cpu_s),
        ),
        metric("peak_rss_mb", peak_rss, "MB", rss_note),
    ];
    if let Some(disk) = disk {
        println!(
            "#   polls/job {:.2}, journal {disk} B/job, timed on {stacks} stack(s) of at most {} jobs",
            phase.polls as f64 / done as f64,
            workload.stack_jobs()
        );
    }
    out
}

/// The traced run: untraced and traced phases of the workload itself
/// (tracing's own cost), then the layer replay and single-call timings.
fn traced(workload: Workload, jobs: &[Prepared], work: &Path, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let mut load = Load::start(workload, jobs, &work.join("run-0"));
    // Spans off and on in alternating windows, so drift in the host's
    // speed falls on both sides of the overhead ratio alike.
    let no_probe = RssProbe::new(0);
    let window = seconds * 0.3 / f64::from(OVERHEAD_WINDOWS);
    let epoch = Instant::now();
    let (mut plain, mut traced) = (Phase::default(), Phase::default());
    for _ in 0..OVERHEAD_WINDOWS {
        for (phase, trace_epoch) in [(&mut plain, None), (&mut traced, Some(epoch))] {
            phase.merge(load.run(Timed {
                until: deadline(window),
                probe: &no_probe,
                trace_epoch,
            }));
        }
    }
    out.tally.add(&load.warmup);
    drop(load);
    out.tally.add(&plain.tally);
    out.tally.add(&traced.tally);

    let mut rec = Recorder::new(epoch, 100, true);
    let replay = layers::replay(
        workload,
        jobs,
        work,
        Duration::from_secs_f64(seconds * 0.3),
        &mut rec,
    );
    out.tally.add(&replay.tally);
    let calls = layers::calls(&jobs[0].input, work, &mut rec);

    let mut spans = rec.into_spans();
    let room = MAX_FILE_SPANS.saturating_sub(spans.len());
    traced.spans.truncate(room);
    spans.append(&mut traced.spans);
    let trace_file = work
        .parent()
        .expect("work dir has a parent")
        .join(format!("trace-{}.json", workload.name()));
    if let Err(e) = std::fs::write(&trace_file, spans::chrome_json(&spans)) {
        eprintln!("could not write {}: {e}", trace_file.display());
    }
    println!(
        "#   {} spans written to {}",
        spans.len(),
        trace_file.display()
    );

    let served = replay.submit_ms.len();
    let (s, j, p, d) = (
        replay.median_ms(layers::SERVED),
        replay.median_ms(layers::JOURNALED),
        replay.median_ms(layers::POOL),
        replay.median_ms(layers::SESSION),
    );
    let replayed = format!("replay, {} jobs per level", replay.rounds.len());
    let paired = "median of paired per-job differences";
    let per_served = served.max(1) as f64;
    out.metrics = vec![
        metric(
            "serve.submit_ms",
            median(&replay.submit_ms),
            "ms",
            format!("p50, {replayed}"),
        ),
        metric(
            "serve.result_ms",
            median(&replay.result_ms),
            "ms",
            format!("p50, {replayed}"),
        ),
        metric(
            "serve.polls_per_job",
            replay.polls as f64 / per_served,
            "count",
            format!(
                "mean, poll every {} us",
                workload.poll_interval().as_micros()
            ),
        ),
        metric(
            "serve.result_bytes",
            replay.result_bytes as f64 / per_served,
            "bytes",
            "mean result body",
        ),
        metric(
            "serve.tax_us_per_job",
            replay.tax_us(layers::SERVED, layers::JOURNALED),
            "us",
            format!("{paired}: served (p50 {s:.4} ms) - journaled pool (p50 {j:.4} ms)"),
        ),
        metric("pool.job_ms", p, "ms", format!("p50, {replayed}")),
        metric(
            "pool.tax_us_per_job",
            replay.tax_us(layers::POOL, layers::SESSION),
            "us",
            format!("{paired}: pool - session (p50 {d:.4} ms)"),
        ),
        metric(
            "journal.tax_us_per_job",
            replay.tax_us(layers::JOURNALED, layers::POOL),
            "us",
            format!("{paired}: journaled pool - pool (p50 {p:.4} ms)"),
        ),
        metric(
            "journal.append_reports_us",
            calls.append_us,
            "us",
            "median, one job's reports",
        ),
        metric(
            "journal.frame_bytes",
            calls.frame_bytes,
            "bytes",
            "result-log growth per append",
        ),
        metric(
            "journal.disk_bytes_per_job",
            replay.journal_bytes_per_job,
            "bytes",
            "journal growth per replayed job",
        ),
        metric(
            "core.shot_us",
            calls.shot_us,
            "us",
            "median Session::run_shots per shot",
        ),
        metric(
            "core.report_bytes",
            calls.report_bytes,
            "bytes",
            "heap held by one RunReport",
        ),
        metric(
            "core.session_new_ms",
            calls.session_new_ms,
            "ms",
            "median Session::new",
        ),
        metric(
            "qsim.measure_us",
            calls.measure_us,
            "us",
            "median, 300-cycle window",
        ),
        metric(
            "qsim.integrate_us",
            calls.integrate_us,
            "us",
            "median Discriminator::integrate",
        ),
        metric(
            "qsim.drive_us",
            calls.drive_us,
            "us",
            "median, one X90 pulse",
        ),
        metric(
            "qsim.readout_share",
            calls.measurements_per_shot * (calls.measure_us + calls.integrate_us) / calls.shot_us,
            "fraction",
            format!(
                "{} measurements per shot x (measure + integrate) / shot",
                calls.measurements_per_shot
            ),
        ),
        metric(
            "compiler.compile_ms",
            calls.compile_ms,
            "ms",
            "median compile of the workload's program",
        ),
        metric(
            "isa.assemble_us",
            calls.assemble_us,
            "us",
            "median assembly of the workload's program text",
        ),
        metric(
            "trace.untraced_jobs_per_s",
            plain.jobs_per_s(),
            "1/s",
            format!("{} jobs, spans off", plain.completed()),
        ),
        metric(
            "trace.jobs_per_s",
            traced.jobs_per_s(),
            "1/s",
            format!("{} jobs, spans on", traced.completed()),
        ),
        metric(
            "trace.overhead_ratio",
            plain.jobs_per_s() / traced.jobs_per_s(),
            "ratio",
            "untraced / traced jobs_per_s",
        ),
    ];
    out
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
fn result_line(outcome: &Outcome) -> String {
    let metrics = outcome
        .metrics
        .iter()
        .map(|m| {
            (
                m.name.clone(),
                Json::obj([("value", Json::Float(m.value)), ("unit", Json::str(m.unit))]),
            )
        })
        .collect();
    Json::obj([
        ("correct", Json::Bool(outcome.tally.mismatches == 0)),
        ("attempted", Json::Int(outcome.tally.attempted as i64)),
        ("failed", Json::Int(outcome.tally.failed as i64)),
        ("metrics", Json::Obj(metrics)),
    ])
    .encode()
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    };
    let work = work_dir();
    std::fs::create_dir_all(&work).expect("create the work directory");
    let mut all = Outcome::default();
    let several = args.workloads.len() > 1;
    for &workload in &args.workloads {
        describe(workload, &work);
        let jobs = prepare(workload, args.seed);
        let outcome = if args.trace {
            traced(workload, &jobs, &work, args.seconds)
        } else {
            untraced(workload, &jobs, &work, args.seconds)
        };
        for m in &outcome.metrics {
            println!("{:<28} {:>14.6} {:<8} {}", m.name, m.value, m.unit, m.note);
        }
        println!(
            "#   attempted {}, failed {}, mismatched {}, seed {}",
            outcome.tally.attempted, outcome.tally.failed, outcome.tally.mismatches, args.seed
        );
        for f in &outcome.tally.failures {
            eprintln!("{}: {f}", workload.name());
        }
        // With several workloads, metric names carry a `<workload>/`
        // prefix in the result line.
        all.tally.add(&outcome.tally);
        all.metrics
            .extend(outcome.metrics.into_iter().map(|m| Metric {
                name: if several {
                    format!("{}/{}", workload.name(), m.name)
                } else {
                    m.name
                },
                ..m
            }));
    }
    std::fs::remove_dir_all(&work).ok();
    println!("{}", result_line(&all));
}
