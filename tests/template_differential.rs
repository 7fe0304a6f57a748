//! Differential pin: a template-patched sweep is bit-identical — reports
//! and fits — to the PR-3-era per-point-compiled sweep, sequentially and
//! in parallel, for the T1 and Ramsey shapes; and compiling once plus
//! patching per point beats re-compiling per point by a wide margin.

use quma::compiler::prelude::Bindings;
use quma::core::prelude::{Batch, LoadedProgram, RunReport, Session, ShotSeeds, TemplatePoint};
use quma::experiments::fit::{fit_damped_cosine, fit_exponential_decay};
use quma::experiments::prelude::{ones_fraction, Experiment, Ramsey, RamseyConfig, T1Config, T1};

/// One per-point binding set for a delay sweep.
fn tau_bindings(delays: &[u32]) -> Vec<Bindings> {
    delays
        .iter()
        .map(|&d| Bindings::new().int("tau", i64::from(d)))
        .collect()
}

/// Runs an experiment's parameterized program as (a) a per-point-compiled
/// sweep — one `compile_bound` per point, exactly how PR 3 drivers built
/// per-point programs — and (b) a compile-once template sweep patched per
/// point, sequentially and sharded. Returns the three report vectors.
fn sweep_three_ways<E: Experiment>(
    exp: &E,
    cfg: &E::Config,
    delays: &[u32],
) -> (Vec<RunReport>, Vec<RunReport>, Vec<RunReport>) {
    let program = exp.program(cfg).expect("parameterized program");
    let gates = exp.gates(cfg);
    let ccfg = exp.compiler_config(cfg);

    // (a) PR-3 style: re-compile the program for every sweep point.
    let mut session = Session::new(exp.device_config(cfg)).expect("session");
    let plan = session.seed_plan();
    let per_point: Vec<(LoadedProgram, ShotSeeds)> = tau_bindings(delays)
        .iter()
        .enumerate()
        .map(|(i, b)| {
            let compiled = program.compile_bound(&gates, &ccfg, b).expect("compiles");
            (session.load(&compiled), plan.shot(i as u64))
        })
        .collect();
    let compiled_reports = session
        .run_batch(&Batch::Sweep(per_point.into()), 1)
        .expect("per-point sweep")
        .shots;

    // (b) compile once, patch per point.
    let template = program.compile_template(&gates, &ccfg).expect("template");
    let points: Vec<TemplatePoint> = delays
        .iter()
        .enumerate()
        .map(|(i, &d)| TemplatePoint {
            patches: vec![("tau".to_string(), i64::from(d))],
            seeds: plan.shot(i as u64),
        })
        .collect();
    let mut session = Session::new(exp.device_config(cfg)).expect("session");
    let sweep = Batch::Template {
        program: template.into_program().into(),
        points: points.into(),
    };
    let sequential = session.run_batch(&sweep, 1).expect("template sweep").shots;
    let parallel = session
        .run_batch(&sweep, 3)
        .expect("parallel template sweep")
        .shots;
    (compiled_reports, sequential, parallel)
}

fn assert_bit_identical(a: &[RunReport], b: &[RunReport], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: lengths differ");
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        assert_eq!(x.registers, y.registers, "{what}: registers, point {i}");
        assert_eq!(x.md_results, y.md_results, "{what}: md records, point {i}");
    }
}

#[test]
fn t1_template_sweep_is_bit_identical_to_per_point_compilation() {
    // Delay 4 (not 0) keeps the Wait instruction present on both paths:
    // the bound compile elides `Wait 0` (the hand-rolled idiom) while the
    // template keeps its patchable slot.
    let delays: Vec<u32> = (1..=12).map(|k| k * 1200).collect();
    let cfg = T1Config {
        delays_cycles: delays.clone(),
        averages: 30,
        ..T1Config::default()
    };
    let (compiled, sequential, parallel) = sweep_three_ways(&T1, &cfg, &delays);
    assert_bit_identical(&compiled, &sequential, "T1 compile-vs-patch");
    assert_bit_identical(&sequential, &parallel, "T1 sequential-vs-parallel");

    // The fits over the per-point |1⟩ fractions are bit-identical too.
    let xs: Vec<f64> = delays.iter().map(|&d| f64::from(d) * 5e-9).collect();
    let p1_a: Vec<f64> = compiled.iter().map(ones_fraction).collect();
    let p1_b: Vec<f64> = sequential.iter().map(ones_fraction).collect();
    assert_eq!(p1_a, p1_b);
    let fit_a = fit_exponential_decay(&xs, &p1_a).expect("fit");
    let fit_b = fit_exponential_decay(&xs, &p1_b).expect("fit");
    assert_eq!(fit_a, fit_b, "identical inputs give identical fits");
}

#[test]
fn ramsey_template_sweep_is_bit_identical_to_per_point_compilation() {
    let delays: Vec<u32> = (1..=10).map(|k| k * 400).collect();
    let cfg = RamseyConfig {
        delays_cycles: delays.clone(),
        averages: 30,
        ..RamseyConfig::default()
    };
    let (compiled, sequential, parallel) = sweep_three_ways(&Ramsey, &cfg, &delays);
    assert_bit_identical(&compiled, &sequential, "Ramsey compile-vs-patch");
    assert_bit_identical(&sequential, &parallel, "Ramsey sequential-vs-parallel");

    let xs: Vec<f64> = delays.iter().map(|&d| f64::from(d) * 5e-9).collect();
    let p1_a: Vec<f64> = compiled.iter().map(ones_fraction).collect();
    let p1_b: Vec<f64> = parallel.iter().map(ones_fraction).collect();
    assert_eq!(p1_a, p1_b);
    let fit_a = fit_damped_cosine(&xs, &p1_a).expect("fit");
    let fit_b = fit_damped_cosine(&xs, &p1_b).expect("fit");
    assert_eq!(fit_a, fit_b);
}

#[test]
fn template_patching_beats_per_point_reassembly() {
    // Sweep setup cost on a 16-point T1 sweep: one compile plus 16
    // patches must beat 16 compiles by at least the acceptance margin of
    // 5× (in practice the gap is orders of magnitude — a patch rewrites
    // one immediate, a compile re-emits and re-assembles the program).
    let cfg = T1Config::default();
    let delays: Vec<u32> = (1..=16).map(|k| k * 800).collect();
    let program = T1.program(&cfg).expect("program");
    let gates = T1.gates(&cfg);
    let ccfg = T1.compiler_config(&cfg);
    let bindings = tau_bindings(&delays);
    const REPS: usize = 20;

    let t0 = std::time::Instant::now();
    for _ in 0..REPS {
        for b in &bindings {
            std::hint::black_box(program.compile_bound(&gates, &ccfg, b).expect("compiles"));
        }
    }
    let per_point = t0.elapsed();

    let t0 = std::time::Instant::now();
    for _ in 0..REPS {
        let template = program.compile_template(&gates, &ccfg).expect("template");
        let mut working = template.program().clone();
        for &d in &delays {
            working.patch("tau", i64::from(d)).expect("patches");
            std::hint::black_box(&working);
        }
    }
    let patched = t0.elapsed();

    let speedup = per_point.as_secs_f64() / patched.as_secs_f64().max(f64::MIN_POSITIVE);
    assert!(
        speedup >= 5.0,
        "compile-once-patch must beat compile-per-point ≥ 5×, got {speedup:.1}× \
         (per-point {per_point:?}, patched {patched:?})"
    );
}
