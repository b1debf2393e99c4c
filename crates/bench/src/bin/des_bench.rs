//! DES throughput trajectory: seeded events/sec sweep emitting the tracked
//! `BENCH_des.json` artifact.
//!
//! Runs the RecShard plan for the canonical skewed workload through the
//! discrete-event cluster simulator at 4 and 16 GPUs, flat and with the
//! two-level node topology, under identical seeds. Everything in the JSON
//! is a pure function of the sweep configuration and seed **except** the
//! wall-clock fields (`wall_ms`, `events_per_sec`), which are only written
//! under `RECSHARD_BENCH_TIMING=1` — otherwise a `-1` sentinel keeps the
//! artifact byte-stable, the same contract as `BENCH_solver.json`.
//!
//! A `contention` sweep rides along (uniform + incast scenarios, FIFO and
//! shared-rate contention modes) and is serialised into the artifact's
//! `contention` section — purely virtual quantities, byte-stable.
//!
//! Perf-trajectory gates: when `RECSHARD_BENCH_BASELINE` points at a
//! previously committed `BENCH_des.json`, the run fails on events/sec
//! regressions beyond `RECSHARD_BENCH_TOLERANCE` (default 25% — generous,
//! because wall rates on shared runners are noisy; the gate catches
//! instrumentation-scale slowdowns, not jitter). Event-log fingerprint
//! drift on committed point keys (main and contention sweeps) also fails
//! the run — behavioural changes must be re-baselined deliberately — unless
//! `RECSHARD_BENCH_ALLOW_DRIFT=1` acknowledges the drift as intentional.
//!
//! Observability export: when `RECSHARD_OBS_DIR` is set, the sweep's
//! smallest flat point re-runs once with a collector attached and writes
//! `des_trace.jsonl`, `des_trace.chrome.json` (load it in
//! `chrome://tracing` or Perfetto) and `des_metrics.json` there.
//!
//! Environment overrides: `RECSHARD_DES_MAX_GPUS`, `RECSHARD_DES_ITERS`,
//! `RECSHARD_SEED`, `RECSHARD_BENCH_TIMING`, `RECSHARD_BENCH_BASELINE`,
//! `RECSHARD_BENCH_TOLERANCE`, `RECSHARD_BENCH_ALLOW_DRIFT`,
//! `RECSHARD_OBS_DIR`.

#![allow(clippy::print_stdout)]
use recshard_bench::artifact::{self, Artifact};
use recshard_bench::des_bench::{run_sweep, traced_smoke, DesBenchConfig};
use recshard_bench::report::{export_obs_from_env, RunReport};

fn main() {
    let cfg = DesBenchConfig::from_env();
    println!(
        "# des_bench: {} tables x gpus {:?} (flat + hierarchical), {} iterations, \
         batch {}, seed {:#x}, timing {}",
        cfg.tables,
        cfg.gpu_counts,
        cfg.iterations,
        cfg.batch_size,
        cfg.seed,
        if cfg.include_timing {
            "in JSON"
        } else {
            "stdout only"
        }
    );
    let report = run_sweep(&cfg);

    // Gate against a previously committed BENCH_des.json, read before it
    // is overwritten below.
    if !artifact::gate_from_env(&report).expect("read RECSHARD_BENCH_BASELINE") {
        std::process::exit(1);
    }
    export_obs_from_env("des", || traced_smoke(&cfg)).expect("write RECSHARD_OBS_DIR artifacts");

    std::fs::write("BENCH_des.json", report.to_json()).expect("write BENCH_des.json");
    println!();
    let mut summary = RunReport::new("des_bench");
    summary
        .push("sweep points", report.points.len())
        .push("contention points", report.contention.len())
        .push_fingerprint("report fingerprint", report.fingerprint());
    for p in &report.points {
        let key = format!("{} GPUs x {} node(s)", p.gpus, p.nodes);
        if p.events_per_sec > 0.0 {
            summary.push(
                &key,
                format!(
                    "{} events, {:.0} events/s wall, fingerprint {:#018x}",
                    p.events, p.events_per_sec, p.fingerprint
                ),
            );
        } else {
            summary.push(
                &key,
                format!("{} events, fingerprint {:#018x}", p.events, p.fingerprint),
            );
        }
    }
    print!("{summary}");
    println!("wrote BENCH_des.json");
}
