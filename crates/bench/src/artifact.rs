//! The canonical `BENCH_*.json` format and its CI gates, shared by
//! `BENCH_solver.json`, `BENCH_des.json` and `BENCH_scenarios.json`.
//!
//! Every artifact is a fixed header (`bench`, `seed`, `timed`,
//! `timing_sentinel`) followed by named sections of points, one point per
//! line. A point is an ordered list of `(name, value)` fields: integers are
//! written raw, floats in `{:.9e}`, fingerprints as quoted `{:#018x}`.
//! Everything is a pure function of the sweep configuration and seed except
//! the wall-clock fields each artifact declares in [`Spec::timing`]: those
//! hold measurements only under `RECSHARD_BENCH_TIMING=1` and the
//! [`TIMING_DISABLED`] sentinel otherwise, and [`Artifact::fingerprint`]
//! blanks them so it is the same whether or not timing ran.
//!
//! `check` compares a fresh report against a committed baseline under the
//! artifact's declared [`Gate`]s. Points are matched per section on the
//! declared [`Spec::key`] fields; points missing on either side are
//! skipped, so trimmed sweeps never false-positive. [`gate_from_env`] runs
//! the check for the bench binaries.

use std::fmt::{Debug, Display};
use std::time::Instant;

/// Sentinel written to timing fields when wall-clock measurement is off.
pub const TIMING_DISABLED: f64 = -1.0;

/// Wall-clock repetitions per timed run. A seeded run is a pure function of
/// the seed, so every repetition must replay identically (asserted); only
/// the fastest wall time is kept, which makes recorded rates stable enough
/// for the 25% rate floor to mean something.
pub const TIMING_REPS: usize = 3;

/// One point: `(name, JSON value)` fields in file order.
pub type Point = Vec<(&'static str, String)>;

/// An integer field value, written raw.
pub(crate) fn int(v: &impl Display) -> String {
    v.to_string()
}

/// A float field value, written in `{:.9e}`.
pub(crate) fn float(v: &f64) -> String {
    format!("{v:.9e}")
}

/// A fingerprint field value, written as a quoted `{:#018x}`.
pub(crate) fn hex(v: &u64) -> String {
    format!("\"{v:#018x}\"")
}

/// A label field value, written quoted and unescaped.
pub(crate) fn text(v: &str) -> String {
    format!("\"{v}\"")
}

/// Builds a [`Point`] from fields of `$p`, each keyed by its field name and
/// rendered by the named value function ([`int`], [`float`], [`hex`] or
/// [`text`]).
macro_rules! point {
    ($p:expr; $($field:ident: $render:ident),* $(,)?) => {
        vec![$((stringify!($field), $crate::artifact::$render(&$p.$field))),*]
    };
}
pub(crate) use point;

/// A report's contents in canonical order.
#[derive(Debug, Clone)]
pub struct Document {
    /// Seed the sweep ran under.
    pub seed: u64,
    /// Whether timing fields hold measurements.
    pub timed: bool,
    /// Named sections of points, in file order.
    pub sections: Vec<(&'static str, Vec<Point>)>,
}

/// One CI gate on a named field, applied in every section that has it.
#[derive(Debug, Clone, Copy)]
pub enum Gate {
    /// Any change of this fingerprint field is behavioural drift.
    Drift(&'static str),
    /// This rate may not fall more than the tolerance below the baseline.
    Floor(&'static str),
    /// This cost may not grow more than the tolerance above the baseline.
    Ceiling(&'static str),
}

/// What an artifact declares about itself.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// The header's `bench` name.
    pub bench: &'static str,
    /// Fields identifying a point within its section (those a point lacks
    /// are left out of its key).
    pub key: &'static [&'static str],
    /// Wall-clock fields, blanked by [`Artifact::fingerprint`].
    pub timing: &'static [&'static str],
    /// The gates `check` applies.
    pub gates: &'static [Gate],
    /// Relative tolerance of the rate and cost gates unless
    /// `RECSHARD_BENCH_TOLERANCE` overrides it.
    pub tolerance: f64,
}

/// A report serialised as a `BENCH_*.json` artifact.
pub trait Artifact {
    /// The artifact's declarations.
    const SPEC: Spec;

    /// The report's contents in canonical order.
    fn document(&self) -> Document;

    /// Canonical JSON serialisation: key order fixed, one point per line.
    fn to_json(&self) -> String {
        render(Self::SPEC.bench, &self.document())
    }

    /// FNV-1a fingerprint over the canonical JSON with the timing fields
    /// blanked, so the value is identical whether or not timing ran.
    fn fingerprint(&self) -> u64 {
        let mut doc = self.document();
        doc.timed = false;
        for (_, points) in &mut doc.sections {
            for (name, value) in points.iter_mut().flatten() {
                if Self::SPEC.timing.contains(name) {
                    *value = float(&TIMING_DISABLED);
                }
            }
        }
        let mut hash = 0xCBF2_9CE4_8422_2325u64;
        for byte in render(Self::SPEC.bench, &doc).bytes() {
            fnv_fold(&mut hash, byte as u64);
        }
        hash
    }
}

/// One FNV-1a step.
pub(crate) fn fnv_fold(hash: &mut u64, word: u64) {
    *hash ^= word;
    *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
}

fn render(bench: &str, doc: &Document) -> String {
    let mut out = format!(
        "{{\n  \"bench\": \"{bench}\",\n  \"seed\": {},\n  \"timed\": {},\n  \
         \"timing_sentinel\": \"-1 = timing disabled for byte-stable output\",\n",
        doc.seed, doc.timed
    );
    for (s, (section, points)) in doc.sections.iter().enumerate() {
        out.push_str(&format!("  \"{section}\": [\n"));
        for (i, point) in points.iter().enumerate() {
            let fields: Vec<String> = point
                .iter()
                .map(|(name, value)| format!("\"{name}\": {value}"))
                .collect();
            let comma = if i + 1 < points.len() { "," } else { "" };
            out.push_str(&format!("    {{{}}}{comma}\n", fields.join(", ")));
        }
        let comma = if s + 1 < doc.sections.len() { "," } else { "" };
        out.push_str(&format!("  ]{comma}\n"));
    }
    out.push_str("}\n");
    out
}

/// Runs `run` once, or [`TIMING_REPS`] times when `include_timing` is set,
/// and returns its result with the fastest wall time in milliseconds.
///
/// # Panics
///
/// Panics if a repetition does not replay the first run exactly.
pub(crate) fn best_of<T: PartialEq + Debug>(
    include_timing: bool,
    mut run: impl FnMut() -> T,
) -> (T, f64) {
    let mut timed_run = || {
        let start = Instant::now();
        let out = run();
        (out, start.elapsed().as_secs_f64() * 1e3)
    };
    let (first, mut best_ms) = timed_run();
    let reps = if include_timing { TIMING_REPS } else { 1 };
    for _ in 1..reps {
        let (again, ms) = timed_run();
        assert_eq!(
            first, again,
            "seeded repetitions must replay bit-identically"
        );
        best_ms = best_ms.min(ms);
    }
    (first, best_ms)
}

/// A measured value, or [`TIMING_DISABLED`] when timing is off.
pub(crate) fn timing(include_timing: bool, measured: f64) -> f64 {
    if include_timing {
        measured
    } else {
        TIMING_DISABLED
    }
}

/// The points of a canonical `BENCH_*.json` payload as `(section, fields)`,
/// each field a `(name, JSON value)` pair.
fn read_baseline(json: &str) -> Vec<(&str, Vec<(&str, &str)>)> {
    let mut section = "";
    let mut points = Vec::new();
    for line in json.lines().map(str::trim) {
        if let Some(name) = line.strip_suffix("\": [") {
            section = name.trim_start_matches('"');
        } else if let Some(body) = line.strip_prefix("{\"") {
            let body = body.trim_end_matches(',').trim_end_matches('}');
            let fields = body
                .split(", \"")
                .filter_map(|field| field.split_once("\": "))
                .collect();
            points.push((section, fields));
        }
    }
    points
}

/// What [`check`] found.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Findings {
    /// Fingerprint changes on [`Gate::Drift`] fields.
    pub drift: Vec<String>,
    /// Rate-floor and cost-ceiling breaches.
    pub regressions: Vec<String>,
}

/// Compares `current` against a committed baseline payload under the
/// artifact's gates. Points are matched on their section and key fields;
/// unmatched points, and rate or cost values that are non-positive on
/// either side (the [`TIMING_DISABLED`] sentinel of an untimed run), are
/// skipped.
pub(crate) fn check<A: Artifact>(current: &A, baseline_json: &str, tolerance: f64) -> Findings {
    let baseline = read_baseline(baseline_json);
    let mut findings = Findings::default();
    let pct = tolerance * 100.0;
    for (section, points) in current.document().sections {
        for point in &points {
            let key: Vec<(&str, &str)> = point
                .iter()
                .filter(|(name, _)| A::SPEC.key.contains(name))
                .map(|(name, value)| (*name, value.as_str()))
                .collect();
            let Some((_, base)) = baseline
                .iter()
                .find(|(s, fields)| *s == section && key.iter().all(|kv| fields.contains(kv)))
            else {
                continue;
            };
            let label: Vec<String> = key
                .iter()
                .map(|(k, v)| format!("{k}={}", v.trim_matches('"')))
                .collect();
            for gate in A::SPEC.gates {
                let (Gate::Drift(field) | Gate::Floor(field) | Gate::Ceiling(field)) = *gate;
                let (Some((_, cur)), Some((_, base))) = (
                    point.iter().find(|(n, _)| *n == field),
                    base.iter().find(|(n, _)| *n == field),
                ) else {
                    continue;
                };
                let at = format!("{section} {}: {field}", label.join(" "));
                // Non-positive on either side: the untimed sentinel.
                let values = match (cur.parse::<f64>(), base.parse::<f64>()) {
                    (Ok(cur), Ok(base)) if cur > 0.0 && base > 0.0 => Some((cur, base)),
                    _ => None,
                };
                match (gate, values) {
                    (Gate::Drift(_), _) if cur != base => findings.drift.push(format!(
                        "{at} {} differs from baseline {}",
                        cur.trim_matches('"'),
                        base.trim_matches('"')
                    )),
                    (Gate::Floor(_), Some((cur, base))) if cur < base * (1.0 - tolerance) => {
                        findings.regressions.push(format!(
                            "{at} {cur:.0} is more than {pct:.0}% below the baseline's {base:.0}"
                        ))
                    }
                    (Gate::Ceiling(_), Some((cur, base))) if cur > base * (1.0 + tolerance) => {
                        findings.regressions.push(format!(
                            "{at} {cur:.6e} exceeds the baseline's {base:.6e} by more than {pct:.1}%"
                        ))
                    }
                    _ => {}
                }
            }
        }
    }
    findings
}

/// The bench binaries' gate: when `RECSHARD_BENCH_BASELINE` names a
/// committed artifact, checks `report` against it at
/// `RECSHARD_BENCH_TOLERANCE` (default [`Spec::tolerance`]) and prints the
/// findings. Drift fails the run unless `RECSHARD_BENCH_ALLOW_DRIFT=1`
/// acknowledges it as intentional; a rate or cost regression always fails
/// it. Returns whether the run passes (always, with no baseline set).
///
/// # Errors
///
/// Returns the I/O error if the baseline file cannot be read.
#[allow(clippy::print_stderr)]
pub fn gate_from_env<A: Artifact>(report: &A) -> std::io::Result<bool> {
    let Ok(path) = std::env::var("RECSHARD_BENCH_BASELINE") else {
        return Ok(true);
    };
    let tolerance = std::env::var("RECSHARD_BENCH_TOLERANCE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(A::SPEC.tolerance);
    let allow_drift = std::env::var("RECSHARD_BENCH_ALLOW_DRIFT").as_deref() == Ok("1");
    let findings = check(report, &std::fs::read_to_string(&path)?, tolerance);
    for drift in &findings.drift {
        if allow_drift {
            println!("note (drift allowed): {drift}");
        } else {
            eprintln!("FINGERPRINT DRIFT: {drift}");
        }
    }
    let drift_fails = !findings.drift.is_empty() && !allow_drift;
    if drift_fails {
        eprintln!(
            "fingerprints drifted from {path}; if the behaviour change is intentional, \
             re-run with RECSHARD_BENCH_ALLOW_DRIFT=1 and commit the regenerated artifact"
        );
    }
    for regression in &findings.regressions {
        eprintln!("REGRESSION: {regression}");
    }
    if findings == Findings::default() {
        let pct = tolerance * 100.0;
        println!("no drift or regressions vs {path} (tolerance {pct:.1}%)");
    }
    Ok(!drift_fails && findings.regressions.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::des_bench::{self, DesBenchConfig};
    use crate::scenario_bench::{self, ScenarioBenchConfig};
    use crate::solver_bench::{self, SolverBenchConfig};

    #[test]
    fn des_gates_catch_slow_rates_and_drift_and_skip_sentinels() {
        let report = des_bench::run_sweep(&DesBenchConfig {
            iterations: 60,
            include_timing: true,
            ..DesBenchConfig::tiny()
        });
        let baseline = report.to_json();
        assert_eq!(check(&report, &baseline, 0.25), Findings::default());

        // Halving every rate trips a 25% floor on every point; a very loose
        // floor accepts it.
        let mut slowed = report.clone();
        for p in &mut slowed.points {
            p.events_per_sec *= 0.5;
        }
        let findings = check(&slowed, &baseline, 0.25);
        assert!(findings.drift.is_empty());
        assert_eq!(
            findings.regressions.len(),
            report.points.len(),
            "{findings:?}"
        );
        assert!(findings.regressions[0].contains(": events_per_sec "));
        assert_eq!(check(&slowed, &baseline, 0.6), Findings::default());

        // Sentinel timings are skipped on either side.
        let mut untimed = report.clone();
        for p in &mut untimed.points {
            p.wall_ms = TIMING_DISABLED;
            p.events_per_sec = TIMING_DISABLED;
        }
        assert_eq!(check(&untimed, &baseline, 0.25), Findings::default());
        assert_eq!(
            check(&slowed, &untimed.to_json(), 0.25),
            Findings::default()
        );

        // Drift is reported as drift, never as a rate regression.
        let mut drifted = report.clone();
        drifted.points[0].fingerprint ^= 1;
        let findings = check(&drifted, &baseline, 0.25);
        assert_eq!(findings.drift.len(), 1, "{findings:?}");
        assert!(findings.regressions.is_empty());

        // Contention points are keyed on their own section and scenario.
        let mut drifted = report.clone();
        drifted.contention[3].fingerprint ^= 1;
        let findings = check(&drifted, &baseline, 0.25);
        assert_eq!(findings.drift.len(), 1, "{findings:?}");
        let scenario = &report.contention[3].scenario;
        assert!(
            findings.drift[0].starts_with(&format!("contention scenario={scenario} mode=")),
            "the message must name the scenario: {findings:?}"
        );

        // Trimming the sweep on either side is ignored.
        let mut trimmed = report.clone();
        trimmed.points.truncate(1);
        trimmed.contention.clear();
        assert_eq!(check(&trimmed, &baseline, 0.25), Findings::default());
        assert_eq!(
            check(&report, &trimmed.to_json(), 0.25),
            Findings::default()
        );
    }

    #[test]
    fn scenario_gates_key_des_and_serve_fingerprints_apart() {
        let report = scenario_bench::run_sweep(&ScenarioBenchConfig {
            iterations: 150,
            serve_queries: 150,
            serve_warmup: 50,
            include_timing: true,
            ..ScenarioBenchConfig::tiny()
        });
        let baseline = report.to_json();
        assert_eq!(check(&report, &baseline, 0.25), Findings::default());

        let mut slowed = report.clone();
        for p in &mut slowed.points {
            p.events_per_sec *= 0.5;
        }
        assert_eq!(
            check(&slowed, &baseline, 0.25).regressions.len(),
            report.points.len()
        );
        assert_eq!(check(&slowed, &baseline, 0.6), Findings::default());

        let mut untimed = report.clone();
        for p in &mut untimed.points {
            p.wall_ms = TIMING_DISABLED;
            p.events_per_sec = TIMING_DISABLED;
        }
        assert_eq!(check(&untimed, &baseline, 0.25), Findings::default());

        // The DES and serve fingerprints are gated as separate fields, and
        // the message names the point and the layer.
        let mut des_drift = report.clone();
        des_drift.points[0].fingerprint ^= 1;
        let findings = check(&des_drift, &baseline, 0.25);
        assert_eq!(findings.drift.len(), 1, "{findings:?}");
        assert!(findings.regressions.is_empty());
        let p = &report.points[0];
        let at = format!("scenario={} placement={}", p.scenario, p.placement);
        assert!(findings.drift[0].contains(&format!("{at} gpus=")));
        assert!(findings.drift[0].contains(": fingerprint "), "{findings:?}");

        let mut serve_drift = report.clone();
        serve_drift.points[1].serve_fingerprint ^= 1;
        let findings = check(&serve_drift, &baseline, 0.25);
        assert_eq!(findings.drift.len(), 1, "{findings:?}");
        assert!(
            findings.drift[0].contains(": serve_fingerprint "),
            "{findings:?}"
        );

        let mut trimmed = report.clone();
        trimmed.points.truncate(1);
        assert_eq!(check(&trimmed, &baseline, 0.25), Findings::default());
        assert_eq!(
            check(&report, &trimmed.to_json(), 0.25),
            Findings::default()
        );
    }

    #[test]
    fn solver_cost_ceiling_catches_inflation_per_section() {
        let report = solver_bench::run_sweep(&SolverBenchConfig::tiny());
        let baseline = report.to_json();
        assert_eq!(check(&report, &baseline, 0.02), Findings::default());

        // Costs inflated by 10% trip a 2% ceiling on every point, uniform
        // and hetero alike; a 20% ceiling accepts them.
        let mut inflated = report.clone();
        for p in &mut inflated.points {
            p.scalable_cost_ms *= 1.1;
        }
        for h in &mut inflated.hetero {
            h.scalable_cost_ms *= 1.1;
        }
        let findings = check(&inflated, &baseline, 0.02);
        assert!(findings.drift.is_empty());
        let expected = report.points.len() + report.hetero.len();
        assert_eq!(findings.regressions.len(), expected, "{findings:?}");
        assert_eq!(check(&inflated, &baseline, 0.2), Findings::default());

        // Hetero points share (tables, gpus) with uniform points but are
        // keyed on their own section.
        let mut hetero = report.clone();
        hetero.hetero[1].scalable_cost_ms *= 1.1;
        let findings = check(&hetero, &baseline, 0.02);
        assert_eq!(findings.regressions.len(), 1, "{findings:?}");
        let h = &report.hetero[1];
        let at = format!("hetero_points tables={} gpus={}", h.tables, h.gpus);
        assert!(findings.regressions[0].starts_with(&at), "{findings:?}");

        let mut trimmed = report.clone();
        trimmed.points.truncate(1);
        trimmed.hetero.clear();
        assert_eq!(check(&trimmed, &baseline, 0.02), Findings::default());
        assert_eq!(
            check(&report, &trimmed.to_json(), 0.02),
            Findings::default()
        );
    }
}
