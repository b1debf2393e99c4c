//! Online-serving comparison: placement × cache-policy matrix under
//! identical seeded request streams.
//!
//! This is the inference-side counterpart of the loaded DES comparison in
//! `examples/cluster_simulation.rs`: instead of replaying training
//! iterations, a multi-threaded serving layer
//! (`recshard-serve`) answers batched embedding queries with each GPU
//! shard's HBM acting as a managed cache over UVM. The matrix crosses three
//! placements (hash, size-proportional greedy, RecShard) with three cache
//! policies (LRU, LFU, StatGuided — the profile-driven policy that pins
//! each table's rows above the CDF knee and gates admission of unprofiled
//! rows), all fed the *same* seeded Zipf request stream at the same
//! open-loop arrival rate.
//!
//! The claims this binary demonstrates (and asserts):
//!
//! * StatGuided on the RecShard placement strictly beats LRU on hash
//!   placement on both hit rate and p99 latency,
//! * the stat-guided run's measured hit rate is non-zero, and
//! * replaying the winning configuration with the same seed reproduces the
//!   identical report, fingerprint included.
//!
//! Environment overrides: `RECSHARD_GPUS` (default 4, min 2),
//! `RECSHARD_SERVE_REQUESTS` (default 20,000), `RECSHARD_SERVE_WARMUP`
//! (default 2,000), `RECSHARD_SERVE_BATCH` (default 8), `RECSHARD_SEED`.

#![allow(clippy::print_stdout)]
use recshard_bench::report::{determinism_report, env_u64, RunReport};
use recshard_bench::{print_row, skewed_model, Strategy};
use recshard_serve::{
    hash_placement, ArrivalModel, InferenceServer, PolicyKind, ServeConfig, ServeReport,
};
use recshard_sharding::{ShardingPlan, SystemSpec};
use recshard_stats::DatasetProfiler;

fn main() {
    let shards = env_u64("RECSHARD_GPUS", 4).max(2) as usize;
    let queries = env_u64("RECSHARD_SERVE_REQUESTS", 20_000) as u32;
    let warmup = env_u64("RECSHARD_SERVE_WARMUP", 2_000) as u32;
    let batch = env_u64("RECSHARD_SERVE_BATCH", 8).max(1) as usize;
    let seed = env_u64("RECSHARD_SEED", 0x5E21);

    let model = skewed_model(48);
    // Each shard's HBM cache holds ~1/24 of its fair share of the embedding
    // bytes; everything also lives in UVM. Which rows the cache keeps — and
    // which shard each table's traffic lands on — decides hit rate and tails.
    let system = SystemSpec::uniform(
        shards,
        model.total_bytes() / (24 * shards as u64),
        model.total_bytes(),
        1555.0,
        16.0,
    );
    let profile = DatasetProfiler::profile_model(&model, 12_000, seed);

    let placements: Vec<(&str, ShardingPlan)> = vec![
        ("hash", hash_placement(&model, shards)),
        ("size", Strategy::SizeBased.plan(&model, &profile, &system)),
        (
            "recshard",
            Strategy::RecShard.plan(&model, &profile, &system),
        ),
    ];

    let base = ServeConfig {
        queries,
        warmup,
        batch_size: batch,
        seed,
        ..ServeConfig::default()
    };
    let serve = |plan: &ShardingPlan, policy: PolicyKind, config: ServeConfig| -> ServeReport {
        InferenceServer::run(
            &model,
            plan,
            &profile,
            &system,
            ServeConfig { policy, ..config },
        )
    };

    // Calibrate the arrival rate: unloaded StatGuided-on-RecShard median
    // plus 10% headroom. Every cell of the matrix is served at this rate.
    let recshard_plan = &placements
        .iter()
        .find(|(name, _)| *name == "recshard")
        .expect("recshard placement present")
        .1;
    let unloaded = serve(
        recshard_plan,
        PolicyKind::StatGuided,
        ServeConfig {
            queries: 500,
            warmup: 200,
            arrival: ArrivalModel::FixedRate {
                interval_us: 1_000_000.0,
            },
            ..base
        },
    );
    let interval_us = unloaded.p50_ms * 1e3 * 1.10;
    let config = ServeConfig {
        arrival: ArrivalModel::FixedRate { interval_us },
        ..base
    };

    println!(
        "# Online serving: {} tables, {shards} GPU shards, {queries} queries \
         (batch {batch}, {warmup} warmup), arrivals every {interval_us:.1} µs \
         (identical stream per cell)",
        model.num_features()
    );
    println!(
        "# HBM cache per shard: {:.1} MiB ({:.0}% of a fair share of the model)",
        system.hbm_capacity(0) as f64 / (1 << 20) as f64,
        100.0 * system.hbm_capacity(0) as f64 / (model.total_bytes() as f64 / shards as f64)
    );
    println!();
    print_row(&[
        "placement".into(),
        "policy".into(),
        "hit rate".into(),
        "p50 ms".into(),
        "p95 ms".into(),
        "p99 ms".into(),
        "qps".into(),
    ]);
    print_row(&[
        "---".into(),
        "---".into(),
        "---".into(),
        "---".into(),
        "---".into(),
        "---".into(),
        "---".into(),
    ]);

    let mut results: Vec<(String, ServeReport)> = Vec::new();
    for (name, plan) in &placements {
        for policy in PolicyKind::all() {
            let r = serve(plan, policy, config);
            print_row(&[
                (*name).into(),
                policy.label().into(),
                format!("{:.1}%", r.hit_rate * 100.0),
                format!("{:.3}", r.p50_ms),
                format!("{:.3}", r.p95_ms),
                format!("{:.3}", r.p99_ms),
                format!("{:.0}", r.throughput_qps),
            ]);
            results.push((format!("{name}+{policy}"), r));
        }
    }

    let find = |label: &str| -> &ServeReport {
        &results.iter().find(|(l, _)| l == label).expect("cell").1
    };
    let best = find("recshard+StatGuided");
    let baseline = find("hash+LRU");

    // Determinism: replaying the winning cell with the same seed must
    // reproduce the identical report.
    let again = serve(recshard_plan, PolicyKind::StatGuided, config);
    assert_eq!(
        best, &again,
        "identical seed must reproduce the identical serving report"
    );
    println!();
    print!(
        "{}",
        determinism_report(
            "StatGuided-on-RecShard replay",
            best.fingerprint,
            again.fingerprint
        )
    );

    assert!(best.hit_rate > 0.0, "stat-guided hit rate must be non-zero");
    assert!(
        best.hit_rate > baseline.hit_rate,
        "StatGuided-on-RecShard hit rate {:.3} must strictly beat LRU-on-hash {:.3}",
        best.hit_rate,
        baseline.hit_rate
    );
    assert!(
        best.p99_ms < baseline.p99_ms,
        "StatGuided-on-RecShard p99 {:.3} ms must strictly beat LRU-on-hash {:.3} ms",
        best.p99_ms,
        baseline.p99_ms
    );
    let mut footer = RunReport::new("serve_qps: StatGuided-on-RecShard vs LRU-on-hash");
    footer
        .push(
            "hit rate",
            format!(
                "{:.1}% vs {:.1}%",
                best.hit_rate * 100.0,
                baseline.hit_rate * 100.0
            ),
        )
        .push(
            "p99 ms",
            format!("{:.3} vs {:.3}", best.p99_ms, baseline.p99_ms),
        )
        .push("wins on both", true);
    print!("{footer}");
    println!(
        "The profiled CDF knee pins {:.1} MiB of head rows per run and refuses \
         one-hit wonders, so tail traffic cannot churn the head out of HBM — the \
         serving-side payoff of the paper's statistical placement argument.",
        best.cache.pinned_bytes as f64 / (1 << 20) as f64
    );
}
