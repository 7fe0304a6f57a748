//! Result verification: every job's output is compared bit for bit with
//! a reference computed in process.
//!
//! A reference is held as the JSON document the serving API documents
//! for that result kind (`docs/API.md`). Served results are parsed and
//! walked against it; in-process results (pool, session, harness) are
//! converted with the same functions, so every level of the stack is held
//! to one expectation. Floats compare by `f64::to_bits`: the wire encodes
//! them in shortest round-trip form, so a served float that parses to
//! different bits is a real mismatch, never a formatting artefact.

use quma_core::prelude::{BatchReport, RunReport};
use quma_experiments::prelude::{AllxyResult, QecResult};
use quma_serve::Json;

/// Why a result did not count as a success.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Failure {
    /// The connection broke or the response could not be read.
    Transport(String),
    /// The server answered with a status the workload never provokes.
    Status(u16, String),
    /// An in-process pool refused or failed the job.
    Pool(String),
    /// The result differed from its reference.
    Mismatch(String),
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Failure::Transport(e) => write!(f, "transport error: {e}"),
            Failure::Status(code, body) => write!(f, "unexpected HTTP {code}: {body}"),
            Failure::Pool(e) => write!(f, "pool: {e}"),
            Failure::Mismatch(e) => write!(f, "result differs from reference: {e}"),
        }
    }
}

/// Failure reasons kept for the report (the counts are always exact).
const KEPT_FAILURES: usize = 5;

/// Jobs attempted, and which of them failed.
#[derive(Debug, Default)]
pub struct Tally {
    /// Jobs submitted or run.
    pub attempted: u64,
    /// Jobs that failed (transport, status or mismatch).
    pub failed: u64,
    /// Failures that were result mismatches.
    pub mismatches: u64,
    /// The first few failure reasons.
    pub failures: Vec<String>,
}

impl Tally {
    /// Counts one job's outcome; true when it succeeded.
    pub fn record(&mut self, outcome: Result<(), Failure>) -> bool {
        self.attempted += 1;
        let Err(failure) = outcome else {
            return true;
        };
        self.failed += 1;
        if matches!(failure, Failure::Mismatch(_)) {
            self.mismatches += 1;
        }
        if self.failures.len() < KEPT_FAILURES {
            self.failures.push(failure.to_string());
        }
        false
    }

    /// Jobs that completed with a verified result.
    pub fn completed(&self) -> u64 {
        self.attempted - self.failed
    }

    /// Adds another tally's counts (and reasons, up to the cap).
    pub fn add(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.mismatches += other.mismatches;
        let room = KEPT_FAILURES.saturating_sub(self.failures.len());
        self.failures
            .extend(other.failures.iter().take(room).cloned());
    }
}

/// One shot record: the deterministic triple the bit-identity contract
/// covers (registers, discrimination records, collector averages).
fn report_doc(report: &RunReport) -> Json {
    let floats = |xs: &[f64]| Json::Arr(xs.iter().map(|&v| Json::Float(v)).collect());
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
                            ("td", Json::Int(md.td as i64)),
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
                    .map(|q| floats(q))
                    .collect(),
            ),
        ),
    ])
}

/// The expected document of a `shots` job.
pub fn batch_doc(batch: &BatchReport) -> Json {
    Json::obj([
        ("type", Json::str("batch")),
        (
            "shots",
            Json::Arr(batch.shots.iter().map(report_doc).collect()),
        ),
    ])
}

/// The expected document of an `experiment: qec` job.
pub fn qec_doc(result: &QecResult) -> Json {
    Json::obj([
        ("type", Json::str("experiment")),
        ("experiment", Json::str("qec")),
        ("distance", Json::Int(result.distance as i64)),
        ("rounds", Json::Int(result.rounds as i64)),
        ("shots", Json::Int(result.shots as i64)),
        ("error_rate", Json::Float(result.error_rate)),
        ("logical_errors", Json::Int(result.logical_errors as i64)),
        ("logical_error_rate", Json::Float(result.logical_error_rate)),
        ("error_sem", Json::Float(result.error_sem)),
        ("injected_flips", Json::Int(result.injected_flips as i64)),
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

/// The expected document of an `experiment: allxy` job.
pub fn allxy_doc(result: &AllxyResult) -> Json {
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

/// Walks `expected` against `actual`. Every key of an expected object
/// must be present (extra keys in `actual` are informational and
/// ignored), arrays must agree in length and element by element, and
/// numbers must agree exactly: integers by value, floats by bit pattern.
/// A non-finite expected float must arrive as `null`, which is how the
/// wire encodes it.
pub fn matches(expected: &Json, actual: &Json) -> Result<(), String> {
    walk(expected, actual, &mut String::from("$"))
}

fn walk(expected: &Json, actual: &Json, path: &mut String) -> Result<(), String> {
    let differ = |path: &str| {
        Err(format!(
            "at {path}: expected {}, got {}",
            expected.encode(),
            actual.encode()
        ))
    };
    match expected {
        Json::Obj(pairs) => {
            for (key, want) in pairs {
                let Some(got) = actual.get(key) else {
                    return Err(format!("at {path}: missing key '{key}'"));
                };
                let len = path.len();
                path.push('.');
                path.push_str(key);
                walk(want, got, path)?;
                path.truncate(len);
            }
            Ok(())
        }
        Json::Arr(want) => {
            let Some(got) = actual.as_arr() else {
                return differ(path);
            };
            if want.len() != got.len() {
                return Err(format!(
                    "at {path}: expected {} elements, got {}",
                    want.len(),
                    got.len()
                ));
            }
            for (i, (w, g)) in want.iter().zip(got).enumerate() {
                let len = path.len();
                path.push_str(&format!("[{i}]"));
                walk(w, g, path)?;
                path.truncate(len);
            }
            Ok(())
        }
        Json::Float(want) if !want.is_finite() => match actual {
            Json::Null => Ok(()),
            _ => differ(path),
        },
        Json::Float(want) => match actual.as_f64() {
            Some(got) if got.to_bits() == want.to_bits() => Ok(()),
            _ => differ(path),
        },
        Json::Int(want) => match actual {
            Json::Int(got) if got == want => Ok(()),
            _ => differ(path),
        },
        _ if expected == actual => Ok(()),
        _ => differ(path),
    }
}

/// Parses a served result body and checks it against `expected`.
pub fn check_body(expected: &Json, body: &[u8]) -> Result<(), Failure> {
    let text = std::str::from_utf8(body)
        .map_err(|e| Failure::Mismatch(format!("result body is not UTF-8: {e}")))?;
    let doc = Json::parse(text)
        .map_err(|e| Failure::Mismatch(format!("result body is not JSON: {e}")))?;
    matches(expected, &doc).map_err(Failure::Mismatch)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Json {
        Json::obj([
            ("type", Json::str("batch")),
            ("s", Json::Float(0.1 + 0.2)),
            ("negative", Json::Float(-2.5)),
            ("regs", Json::Arr(vec![Json::Int(1), Json::Int(-7)])),
        ])
    }

    #[test]
    fn an_exact_round_trip_matches() {
        let doc = sample();
        assert_eq!(check_body(&doc, doc.encode().as_bytes()), Ok(()));
    }

    #[test]
    fn a_one_ulp_float_change_is_a_mismatch() {
        let want = sample();
        let bumped = (0.1f64 + 0.2).to_bits() + 1;
        let got = Json::obj([
            ("type", Json::str("batch")),
            ("s", Json::Float(f64::from_bits(bumped))),
            ("negative", Json::Float(-2.5)),
            ("regs", Json::Arr(vec![Json::Int(1), Json::Int(-7)])),
        ]);
        let err = check_body(&want, got.encode().as_bytes()).unwrap_err();
        assert!(
            matches!(err, Failure::Mismatch(ref m) if m.contains("$.s")),
            "{err}"
        );
    }

    #[test]
    fn signs_missing_keys_and_lengths_are_checked() {
        let want = sample();
        let flipped = want.encode().replace("-2.5", "2.5");
        assert!(check_body(&want, flipped.as_bytes()).is_err());
        let short = Json::obj([("type", Json::str("batch"))]);
        assert!(check_body(&want, short.encode().as_bytes()).is_err());
        let fewer = want.encode().replace("[1,-7]", "[1]");
        assert!(check_body(&want, fewer.as_bytes()).is_err());
        assert!(check_body(&want, b"{not json").is_err());
    }
}
