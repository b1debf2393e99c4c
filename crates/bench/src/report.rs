//! Shared reporting for the bench binaries, built on the `recshard-obs`
//! run-report layer.
//!
//! The pieces every throughput binary needs: a `u64` environment-override
//! reader, a determinism footer asserting that a same-seed replay
//! reproduced the first run's fingerprint, and the `RECSHARD_OBS_DIR`
//! export of a traced smoke run, all rendered through [`RunReport`] so the
//! output format is uniform across `serve_qps`, `solver_scaling`,
//! `des_bench` and `scenario_bench`.

use recshard_des::RunSummary;
use recshard_obs::ObsBundle;
pub use recshard_obs::RunReport;

/// Reads a `u64` environment override, falling back to `default` when the
/// variable is unset or unparseable.
pub fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The determinism footer every seeded bench binary prints: a same-seed
/// replay must reproduce the first run's fingerprint exactly.
///
/// # Panics
///
/// Panics if the fingerprints differ — a seeded run that fails to replay
/// byte-identically is a determinism bug, not a reportable result.
pub fn determinism_report(label: &str, first: u64, replay: u64) -> RunReport {
    assert_eq!(
        first, replay,
        "{label}: same-seed replay fingerprint {replay:#018x} must \
         reproduce the first run's {first:#018x}"
    );
    let mut report = RunReport::new(format!("determinism: {label}"));
    report
        .push_fingerprint("first run", first)
        .push_fingerprint("replay", replay)
        .push("byte-identical", true);
    report
}

/// When `RECSHARD_OBS_DIR` is set, runs `smoke` (one seeded run with a
/// collector attached) and writes `{prefix}_trace.jsonl`,
/// `{prefix}_trace.chrome.json` (load it in `chrome://tracing` or Perfetto)
/// and `{prefix}_metrics.json` there, then prints what it wrote.
///
/// # Errors
///
/// Returns the I/O error if the directory or a file cannot be written.
pub fn export_obs_from_env(
    prefix: &str,
    smoke: impl FnOnce() -> (RunSummary, ObsBundle),
) -> std::io::Result<()> {
    let Ok(dir) = std::env::var("RECSHARD_OBS_DIR") else {
        return Ok(());
    };
    let (summary, bundle) = smoke();
    std::fs::create_dir_all(&dir)?;
    let path = |name: &str| format!("{dir}/{prefix}_{name}");
    std::fs::write(path("trace.jsonl"), bundle.trace.to_jsonl())?;
    std::fs::write(path("trace.chrome.json"), bundle.trace.to_chrome())?;
    std::fs::write(path("metrics.json"), bundle.metrics.to_json())?;
    let mut obs = RunReport::new("observability export");
    obs.push("directory", &dir)
        .push("trace records", bundle.trace.len())
        .push_fingerprint("trace fingerprint", bundle.trace.fingerprint())
        .push_fingerprint("metrics fingerprint", bundle.metrics.fingerprint())
        .push_fingerprint("event-log fingerprint", summary.fingerprint);
    print!("{obs}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_u64_parses_and_falls_back() {
        // Deliberately unset / garbage variables fall back to the default.
        assert_eq!(env_u64("RECSHARD_TEST_SURELY_UNSET_VAR", 42), 42);
        std::env::set_var("RECSHARD_TEST_REPORT_ENV_U64", "17");
        assert_eq!(env_u64("RECSHARD_TEST_REPORT_ENV_U64", 42), 17);
        std::env::set_var("RECSHARD_TEST_REPORT_ENV_U64", "not a number");
        assert_eq!(env_u64("RECSHARD_TEST_REPORT_ENV_U64", 42), 42);
        std::env::remove_var("RECSHARD_TEST_REPORT_ENV_U64");
    }

    #[test]
    fn determinism_report_renders_matching_fingerprints() {
        let report = determinism_report("demo", 0xABCD, 0xABCD);
        let text = report.render();
        assert!(text.starts_with("== determinism: demo ==\n"));
        assert!(text.contains("0x000000000000abcd"));
        assert!(text.contains("byte-identical: true"));
    }

    #[test]
    #[should_panic(expected = "must reproduce")]
    fn determinism_report_panics_on_drift() {
        determinism_report("demo", 1, 2);
    }
}
