//! Golden-fingerprint regression tests for the profiler and the DES-backed
//! experiment binaries.
//!
//! Every `RunSummary` carries an order-sensitive FNV-1a hash over the entire
//! event log, so a seeded run is fingerprint-stable by construction. These
//! tests commit the fingerprints of fixed, scaled-down versions of the DES
//! throughput comparison (every strategy on the skewed workload), the
//! `fig13_scaling` DES backend and the three `BENCH_*.json` sweeps, plus
//! the profiles every plan starts from, and assert bit-for-bit stability:
//! any change to the profiler, the event engine, the workload sampler, the
//! service-time model, the remap layer or the strategy solvers that alters
//! a single event — its time, order or payload — or a single profiled count
//! fails here *loudly* instead of silently shifting published numbers.
//!
//! If a change is *intentional* (e.g. a new event type), re-derive the
//! constants by running the failing test and copying the `actual` values
//! from the assertion message.

use recshard_bench::artifact::Artifact;
use recshard_bench::des_bench::{self, DesBenchConfig};
use recshard_bench::scenario_bench::{self, ScenarioBenchConfig};
use recshard_bench::solver_bench::{run_sweep, SolverBenchConfig};
use recshard_bench::{skewed_model, ExperimentConfig, Strategy};
use recshard_data::RmKind;
use recshard_des::{ArrivalProcess, ClusterConfig, ClusterSimulator, RunSummary};
use recshard_sharding::SystemSpec;
use recshard_stats::{DatasetProfile, DatasetProfiler};

/// Committed fingerprints of the scaled-down DES throughput run, in
/// `Strategy::all()` order (SB, LB, SBL, RecShard).
const DES_THROUGHPUT_GOLDEN: [u64; 4] = [
    0x7687_f9c4_1968_5c4b,
    0x695b_6bc5_8bc2_deca,
    0xe817_6674_2fd0_97a0,
    0x8052_8467_260d_8801,
];

/// Committed fingerprint of the `fig13_scaling` DES backend (tiny config,
/// RM1, RecShard plan).
const FIG13_DES_GOLDEN: u64 = 0x088f_5c6b_4ad9_b186;

/// Committed fingerprint of the tiny `solver_scaling` sweep: the FNV-1a hash
/// of the canonical `BENCH_solver.json` payload with timing fields blanked
/// (the payload gained the `hetero_points` section with the heterogeneous
/// hardware model; the uniform sweep points are unchanged — see
/// `SOLVER_SCALING_PLAN_GOLDEN`, which kept its pre-hetero values).
const SOLVER_SCALING_GOLDEN: u64 = 0x5d2c_8486_c7dd_dbce;

/// Committed fingerprint of the tiny `des_bench` sweep: the FNV-1a hash of
/// the canonical `BENCH_des.json` payload with timing fields blanked.
const DES_BENCH_GOLDEN: u64 = 0x9a53_f5c1_bf32_5ba4;

/// Committed fingerprint of the tiny `scenario_bench` sweep: the FNV-1a hash
/// of the canonical `BENCH_scenarios.json` payload with timing fields blanked.
const SCENARIO_BENCH_GOLDEN: u64 = 0x0f00_a5b5_de68_ecb4;

/// Committed per-point scalable-plan fingerprints of the tiny sweep
/// (placement-level regression lock, finer than the JSON hash).
const SOLVER_SCALING_PLAN_GOLDEN: [u64; 2] = [0x2fb9_1b57_659d_ddcb, 0x97c4_2462_237c_40fd];

/// Committed scalable-plan fingerprints of the tiny sweep's mixed-cluster
/// `hetero_scaling` points (2 big + 2 small GPUs).
const HETERO_SCALING_PLAN_GOLDEN: [u64; 2] = [0x3a85_a2fe_9293_a897, 0x1695_d4a3_9a86_b9e7];

/// Committed profile fingerprints (see [`profile_fingerprint`]): RM3 at
/// `ExperimentConfig::tiny()` scale, then `skewed_model(48)` at 3,000
/// samples and seed `0xA5F0`.
const PROFILE_GOLDEN: [u64; 2] = [0x9c60_0bc2_7cfe_a8e3, 0x2057_aa87_48e8_8a87];

/// FNV-1a over every table's ranked rows, 100-step ICDF points, lookup and
/// presence counts and average-pooling bits: the statistics a plan is
/// solved from, checked directly rather than through the plans.
fn profile_fingerprint(profile: &DatasetProfile) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    let mut fold = |word: u64| {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for p in profile.profiles() {
        fold(p.ranked_rows.len() as u64);
        p.ranked_rows.iter().for_each(|&r| fold(r));
        p.icdf(100).points().for_each(|(_, rows)| fold(rows));
        fold(p.total_lookups);
        fold(p.present_samples);
        fold(p.avg_pooling.to_bits());
    }
    hash
}

/// The scaled-down DES throughput configuration: the skewed workload under
/// capacity pressure (HBM holds ~1/3 of the model) at a fixed arrival
/// interval, so the golden value does not depend on a calibration step.
fn des_throughput_run(strategy: Strategy) -> RunSummary {
    let model = skewed_model(24);
    let system = SystemSpec::uniform(
        4,
        model.total_bytes() / 12,
        model.total_bytes(),
        1555.0,
        16.0,
    );
    let profile = DatasetProfiler::profile_model(&model, 3_000, 0xA5F0);
    let plan = strategy.plan(&model, &profile, &system);
    let config = ClusterConfig {
        batch_size: 32,
        iterations: 400,
        seed: 0xA5F0,
        arrival: ArrivalProcess::FixedRate { interval_ms: 2.0 },
        kernel_overhead_us_per_table: 8.0,
        scale_to_batch: Some(model.batch_size()),
        ..ClusterConfig::default()
    };
    ClusterSimulator::new(&model, &plan, &profile, &system, config).run()
}

#[test]
fn profile_fingerprints_are_bit_for_bit_stable() {
    let cfg = ExperimentConfig::tiny();
    let actual = [
        DatasetProfiler::profile_model(&cfg.model(RmKind::Rm3), cfg.profile_samples, cfg.seed),
        DatasetProfiler::profile_model(&skewed_model(48), 3_000, 0xA5F0),
    ]
    .map(|p| profile_fingerprint(&p));
    assert_eq!(
        actual,
        PROFILE_GOLDEN,
        "profile drifted; actuals: {:?}",
        actual.map(|h| format!("{h:#018x}"))
    );
}

#[test]
fn des_throughput_fingerprints_are_bit_for_bit_stable() {
    let summaries: Vec<_> = Strategy::all()
        .iter()
        .map(|&s| (s, des_throughput_run(s)))
        .collect();
    for ((strategy, summary), &golden) in summaries.iter().zip(&DES_THROUGHPUT_GOLDEN) {
        assert_eq!(summary.completed, 400);
        assert_eq!(
            summary.fingerprint,
            golden,
            "{}: fingerprint drifted (actual {:#018x}, golden {:#018x}); all actuals: {:?}",
            strategy.label(),
            summary.fingerprint,
            golden,
            summaries
                .iter()
                .map(|(s, r)| format!("{} {:#018x}", s.label(), r.fingerprint))
                .collect::<Vec<_>>()
        );
    }
}

#[test]
fn des_throughput_replay_reproduces_the_full_summary() {
    let a = des_throughput_run(Strategy::RecShard);
    let b = des_throughput_run(Strategy::RecShard);
    assert_eq!(a, b, "identical seeds must reproduce identical summaries");
}

#[test]
fn solver_scaling_fingerprint_is_bit_for_bit_stable() {
    let report = run_sweep(&SolverBenchConfig::tiny());
    assert_eq!(report.points.len(), SOLVER_SCALING_PLAN_GOLDEN.len());
    for (p, &golden) in report.points.iter().zip(&SOLVER_SCALING_PLAN_GOLDEN) {
        assert_eq!(
            p.scalable_plan_fingerprint,
            golden,
            "{} tables x {} GPUs: scalable plan drifted (actual {:#018x}, golden {:#018x}); \
             all actuals: {:?}",
            p.tables,
            p.gpus,
            p.scalable_plan_fingerprint,
            golden,
            report
                .points
                .iter()
                .map(|p| format!("{:#018x}", p.scalable_plan_fingerprint))
                .collect::<Vec<_>>()
        );
    }
    for (h, &golden) in report.hetero.iter().zip(&HETERO_SCALING_PLAN_GOLDEN) {
        assert!(
            h.scalable_vs_greedy < 1.0,
            "hetero point {} tables: class-aware must beat class-blind greedy (ratio {})",
            h.tables,
            h.scalable_vs_greedy
        );
        assert_eq!(
            h.scalable_plan_fingerprint,
            golden,
            "{} tables mixed cluster: hetero scalable plan drifted \
             (actual {:#018x}, golden {:#018x}); all actuals: {:?}",
            h.tables,
            h.scalable_plan_fingerprint,
            golden,
            report
                .hetero
                .iter()
                .map(|h| format!("{:#018x}", h.scalable_plan_fingerprint))
                .collect::<Vec<_>>()
        );
    }
    assert_eq!(
        report.fingerprint(),
        SOLVER_SCALING_GOLDEN,
        "solver_scaling JSON drifted (actual {:#018x}, golden {:#018x})",
        report.fingerprint(),
        SOLVER_SCALING_GOLDEN
    );
}

#[test]
fn solver_scaling_json_is_byte_identical_across_runs() {
    let cfg = SolverBenchConfig::tiny();
    let a = run_sweep(&cfg);
    let b = run_sweep(&cfg);
    assert_eq!(
        a.to_json(),
        b.to_json(),
        "identical seeds must emit byte-identical BENCH_solver.json payloads"
    );
}

#[test]
fn fig13_des_backend_fingerprint_is_bit_for_bit_stable() {
    // Exactly the fig13_scaling DES-backend path at the tiny test scale:
    // analytical arrival calibration at 3x headroom, 50 iterations.
    let cfg = ExperimentConfig::tiny();
    let setup = cfg.setup(RmKind::Rm1);
    let plan = setup.plan(Strategy::RecShard);
    let interval = setup.arrival_interval_ms(&plan, 3.0);
    let summary = setup.des_summary(
        &plan,
        cfg.des_config(
            50,
            ArrivalProcess::FixedRate {
                interval_ms: interval,
            },
        ),
    );
    assert_eq!(summary.completed, 50);
    assert_eq!(
        summary.fingerprint, FIG13_DES_GOLDEN,
        "fig13 DES backend: fingerprint drifted (actual {:#018x}, golden {:#018x})",
        summary.fingerprint, FIG13_DES_GOLDEN
    );
}

#[test]
fn des_bench_fingerprint_is_bit_for_bit_stable() {
    let actual = des_bench::run_sweep(&DesBenchConfig::tiny()).fingerprint();
    assert_eq!(
        actual, DES_BENCH_GOLDEN,
        "des_bench JSON drifted (actual {actual:#018x}, golden {DES_BENCH_GOLDEN:#018x})"
    );
}

#[test]
fn scenario_bench_fingerprint_is_bit_for_bit_stable() {
    let actual = scenario_bench::run_sweep(&ScenarioBenchConfig::tiny()).fingerprint();
    assert_eq!(
        actual, SCENARIO_BENCH_GOLDEN,
        "scenario_bench JSON drifted (actual {actual:#018x}, golden {SCENARIO_BENCH_GOLDEN:#018x})"
    );
}
