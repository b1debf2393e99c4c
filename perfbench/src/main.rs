//! The repository's benchmark: four seeded workloads over the RecShard
//! planning pipeline, the discrete-event cluster simulator and the serving
//! layer. See `README.md` beside this crate for the metrics, the workloads
//! and the first recorded split.
//!
//! ```text
//! perfbench --workload <plan_rm3|des_gather|des_links|serve_shift>
//!           --seed <n> --seconds <s> --trace <0|1>
//! perfbench compare <result-dir-a> <result-dir-b>
//! ```
//!
//! A run prints every metric by name with its unit, a `result:` record
//! (seed, fingerprints, checks), and as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports the
//! end-to-end metrics of an untraced run; `--trace 1` reports the per-layer
//! metrics of a traced run and writes its spans out. Records and spans go
//! to `out/` beside this crate's manifest; `compare` flags any fingerprint
//! that differs between two such directories.

#![allow(clippy::print_stdout, clippy::print_stderr)]

mod des;
mod harness;
mod plan;
mod serve;
mod spans;

use harness::{Outcome, RunArgs, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = ["plan_rm3", "des_gather", "des_links", "serve_shift"];

/// The held-out seed: used only to confirm a claim made on other seeds,
/// never while tuning a change.
const HELD_OUT_SEED: u64 = 20_220_228;

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       \
         perfbench compare <result-dir-a> <result-dir-b>",
        WORKLOADS.join("|")
    )
}

struct Cli {
    workload: String,
    args: RunArgs,
}

fn parse_u64(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse(argv: &[String]) -> Result<Cli, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => workload = Some(value.to_string()),
            "--seed" => seed = Some(parse_u64(value).ok_or("--seed takes an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds takes a number")?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be non-negative".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Cli {
        workload,
        args: RunArgs {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        },
    })
}

/// Peak resident set size of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn fmt_fingerprint(fp: Option<u64>) -> String {
    fp.map_or("null".to_string(), |v| format!("\"{v:#018x}\""))
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The reported metric set in catalogue order, with a failure for every
/// value that is missing or not finite.
fn reported(outcome: &mut Outcome, trace: bool) -> Vec<(&'static str, &'static str, f64)> {
    let catalogue: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    catalogue
        .iter()
        .map(|&(name, unit)| {
            // A layer the workload never calls reports 0.
            let value = match outcome.metrics.get(name) {
                Some(&v) => v,
                None if trace => 0.0,
                None => f64::NAN,
            };
            if value.is_finite() {
                (name, unit, value)
            } else {
                outcome
                    .checks
                    .failures
                    .push(format!("metric {name} is {value}"));
                (name, unit, 0.0)
            }
        })
        .collect()
}

fn metrics_json(metrics: &[(&str, &str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The result record. The fingerprints sit on a line of their own, which
/// `compare` reads.
fn record(cli: &Cli, outcome: &Outcome, metrics: &[(&str, &str, f64)]) -> String {
    let fingerprints: Vec<String> = outcome
        .fingerprints
        .iter()
        .map(|(k, v)| format!("\"{k}\": {}", fmt_fingerprint(*v)))
        .collect();
    let notes: Vec<String> = outcome
        .notes
        .iter()
        .map(|(k, v)| format!("\"{k}\": {}", json_str(v)))
        .collect();
    let failures: Vec<String> = outcome
        .checks
        .failures
        .iter()
        .map(|f| json_str(f))
        .collect();
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"held_out\": {}, \"trace\": {}, \
         \"seconds\": {:?}, \"reps\": {},\n\
         \"fingerprints\": {{{}}},\n\
         \"notes\": {{{}}}, \"failed_checks\": [{}],\n\
         \"metrics\": {}}}\n",
        cli.workload,
        cli.args.seed,
        cli.args.seed == HELD_OUT_SEED,
        u8::from(cli.args.trace),
        cli.args.seconds,
        outcome.reps,
        fingerprints.join(", "),
        notes.join(", "),
        failures.join(", "),
        metrics_json(metrics),
    )
}

fn run(cli: &Cli) -> Result<(), String> {
    let mut outcome = match cli.workload.as_str() {
        "plan_rm3" => plan::run(&cli.args),
        "des_gather" => des::run(des::Shape::Gather, &cli.args),
        "des_links" => des::run(des::Shape::Links, &cli.args),
        "serve_shift" => serve::run(&cli.args),
        other => return Err(format!("unknown workload {other}")),
    };
    if !cli.args.trace {
        match peak_rss_mb() {
            Some(mb) => {
                outcome.metrics.insert("peak_rss_mb", mb);
            }
            None => outcome
                .checks
                .failures
                .push("peak RSS unavailable".to_string()),
        }
    }
    let metrics = reported(&mut outcome, cli.args.trace);

    let tag = format!(
        "{}-seed{}-trace{}",
        cli.workload,
        cli.args.seed,
        u8::from(cli.args.trace)
    );
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let rec = record(cli, &outcome, &metrics);
    let write = |name: String, text: &str| {
        let path = dir.join(name);
        std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
    };
    write(format!("result-{tag}.json"), &rec)?;
    if let Some(spans) = &outcome.spans {
        write(format!("spans-{tag}.jsonl"), &spans.to_jsonl())?;
    }

    println!(
        "{} seed {} ({} repetitions{})",
        cli.workload,
        cli.args.seed,
        outcome.reps,
        if cli.args.seed == HELD_OUT_SEED {
            ", held-out seed"
        } else {
            ""
        }
    );
    for (name, unit, value) in &metrics {
        println!("  {name:<28} {value:>16.6} {unit}");
    }
    for (name, fp) in &outcome.fingerprints {
        println!("  fingerprint {name:<16} {}", fmt_fingerprint(*fp));
    }
    for (name, note) in &outcome.notes {
        println!("  note {name:<23} {note}");
    }
    for failure in &outcome.checks.failures {
        println!("  FAILED CHECK: {failure}");
    }
    println!("result: {}", rec.replace('\n', " ").trim_end());
    let failed = outcome.checks.failures.len() as u64;
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        failed == 0,
        outcome.attempted.max(1),
        failed.min(outcome.attempted.max(1)),
        metrics_json(&metrics),
    );
    Ok(())
}

/// `(file name, fingerprints line)` of every result record in `dir`.
fn fingerprint_lines(dir: &Path) -> Result<BTreeMap<String, String>, String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut out = BTreeMap::new();
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        if !(name.starts_with("result-") && name.ends_with(".json")) {
            continue;
        }
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let line = text
            .lines()
            .find(|l| l.starts_with("\"fingerprints\""))
            .ok_or_else(|| format!("{} holds no fingerprints", path.display()))?;
        out.insert(name, line.to_string());
    }
    Ok(out)
}

/// Compares the fingerprints of two result sets, pairing records by
/// workload, seed and run kind. Returns the number of changed records.
fn compare(a: &Path, b: &Path) -> Result<usize, String> {
    let left = fingerprint_lines(a)?;
    let right = fingerprint_lines(b)?;
    let mut changed = 0;
    let mut paired = 0;
    for (name, fa) in &left {
        if let Some(fb) = right.get(name) {
            paired += 1;
            if fa != fb {
                changed += 1;
                println!("CHANGED {name}\n  a: {fa}\n  b: {fb}");
            }
        }
    }
    println!("{paired} records paired, {changed} with changed fingerprints");
    if paired == 0 {
        return Err("no result records in common".to_string());
    }
    Ok(changed)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return match argv.get(1..) {
            Some([a, b]) => match compare(Path::new(a), Path::new(b)) {
                Ok(0) => ExitCode::SUCCESS,
                Ok(_) => ExitCode::from(1),
                Err(e) => {
                    eprintln!("perfbench compare: {e}");
                    ExitCode::from(2)
                }
            },
            _ => {
                eprintln!("{}", usage());
                ExitCode::from(2)
            }
        };
    }
    let cli = match parse(&argv) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match run(&cli) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root declares exactly the
    /// metrics and workloads this program reports.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json readable");
        let count = |needle: &str| text.matches(needle).count();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert_eq!(count(&entry), 1, "{entry}");
        }
        for workload in WORKLOADS {
            assert_eq!(count(&format!("\"name\": \"{workload}\"")), 1, "{workload}");
        }
        assert_eq!(
            count("\"name\": "),
            END_TO_END.len() + PER_LAYER.len() + WORKLOADS.len()
        );
    }

    #[test]
    fn parses_the_run_flags() {
        let argv: Vec<String> = "--workload des_gather --seed 0x10 --seconds 2.5 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let cli = parse(&argv).expect("valid flags");
        assert_eq!(cli.workload, "des_gather");
        assert_eq!(cli.args.seed, 16);
        assert!(cli.args.trace);
        assert!(parse(&argv[..6]).is_err());
        let mut bad = argv.clone();
        bad[1] = "nope".into();
        assert!(parse(&bad).is_err());
    }
}
