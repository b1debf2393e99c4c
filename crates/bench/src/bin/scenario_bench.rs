//! Workload-scenario trajectory: seeded scenario × placement sweep emitting
//! the tracked `BENCH_scenarios.json` artifact.
//!
//! Runs the four placement strategies under the four canonical traffic
//! scenarios (stationary, diurnal, flash crowd, drift storm) through both
//! the discrete-event trainer — with the online re-sharding controller
//! attached — and the inference server, under identical seeds. Everything
//! in the JSON is a pure function of the sweep configuration and seed
//! **except** the wall-clock fields (`wall_ms`, `events_per_sec`), which
//! are only written under `RECSHARD_BENCH_TIMING=1` — otherwise a `-1`
//! sentinel keeps the artifact byte-stable, the same contract as
//! `BENCH_des.json`.
//!
//! The sweep asserts its acceptance criteria in-line: the flash crowd must
//! inflate every placement's DES p99 over its stationary run, the drift
//! storm must trigger at least one controller re-shard, and stationary
//! traffic must trigger none.
//!
//! Gates: when `RECSHARD_BENCH_BASELINE` points at a previously committed
//! `BENCH_scenarios.json`, the run fails on DES *or* serve fingerprint
//! drift on committed point keys — behavioural changes must be re-baselined
//! deliberately — unless `RECSHARD_BENCH_ALLOW_DRIFT=1` acknowledges the
//! drift as intentional, and on DES events/sec regressions beyond
//! `RECSHARD_BENCH_TOLERANCE` (default 25%) when timing is on.
//!
//! Observability export: when `RECSHARD_OBS_DIR` is set, the flash-crowd
//! RecShard point re-runs once with a collector attached and writes
//! `scenario_trace.jsonl`, `scenario_trace.chrome.json` and
//! `scenario_metrics.json` there — the trace carries the run's
//! `scenario_phase` events.
//!
//! Environment overrides: `RECSHARD_SCENARIO_ITERS`, `RECSHARD_SEED`,
//! `RECSHARD_BENCH_TIMING`, `RECSHARD_BENCH_BASELINE`,
//! `RECSHARD_BENCH_TOLERANCE`, `RECSHARD_BENCH_ALLOW_DRIFT`,
//! `RECSHARD_OBS_DIR`.

#![allow(clippy::print_stdout)]
use recshard_bench::artifact::{self, Artifact};
use recshard_bench::report::{export_obs_from_env, RunReport};
use recshard_bench::scenario_bench::{run_sweep, traced_smoke, ScenarioBenchConfig, SCENARIOS};

fn main() {
    let cfg = ScenarioBenchConfig::from_env();
    println!(
        "# scenario_bench: {} tables x {} GPUs, scenarios {:?} x 4 placements, \
         {} DES iterations + {} serve queries, seed {:#x}, timing {}",
        cfg.tables,
        cfg.gpus,
        SCENARIOS,
        cfg.iterations,
        cfg.serve_queries,
        cfg.seed,
        if cfg.include_timing {
            "in JSON"
        } else {
            "stdout only"
        }
    );
    let report = run_sweep(&cfg);

    // Gate against a previously committed BENCH_scenarios.json, read before
    // it is overwritten below.
    if !artifact::gate_from_env(&report).expect("read RECSHARD_BENCH_BASELINE") {
        std::process::exit(1);
    }
    export_obs_from_env("scenario", || traced_smoke(&cfg))
        .expect("write RECSHARD_OBS_DIR artifacts");

    std::fs::write("BENCH_scenarios.json", report.to_json()).expect("write BENCH_scenarios.json");
    println!();
    let mut summary = RunReport::new("scenario_bench");
    summary
        .push("sweep points", report.points.len())
        .push_fingerprint("report fingerprint", report.fingerprint());
    for p in &report.points {
        let key = format!("{}/{}", p.scenario, p.placement);
        summary.push(
            &key,
            format!(
                "{} reshard(s), DES p99 {:.3} ms, serve p99 {:.3} ms, fp {:#018x}",
                p.reshards, p.p99_ms, p.serve_p99_ms, p.fingerprint
            ),
        );
    }
    print!("{summary}");
    println!("wrote BENCH_scenarios.json");
}
