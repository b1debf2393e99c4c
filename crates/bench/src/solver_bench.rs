//! The `solver_scaling` sweep: the repo's first tracked perf-trajectory
//! artifact.
//!
//! Sweeps table count × GPU count under identical seeds, running four
//! placement paths per point — size-lookup greedy, the pre-refactor
//! [`StructuredSolver`], the bucketed [`ScalableSolver`], and the two-level
//! [`HierarchicalSolver`] — and scores every plan with the *same* structured
//! cost model (max per-GPU coverage-weighted milliseconds). The result
//! serialises to a canonical `BENCH_solver.json`.
//!
//! Determinism contract: everything in the JSON is a pure function of the
//! sweep configuration and seed, **except** wall-clock timings, which are
//! only measured into the file when
//! [`SolverBenchConfig::include_timing`] is set (`RECSHARD_BENCH_TIMING=1`);
//! otherwise the timing fields hold the documented `-1.0` sentinel so two
//! runs with the same seed emit byte-identical files. Measured wall times
//! are always printed to stdout. The scaled-down sweep is regression-locked
//! by `tests/golden_fingerprints.rs`.

use crate::artifact::{fnv_fold, point, timing, Artifact, Document, Gate, Spec};
use crate::report::env_u64;
use crate::{skewed_model, Strategy};
use recshard::{
    HierarchicalSolver, RecShardConfig, ScalableSolveReport, ScalableSolver, StructuredSolver,
};
use recshard_memsim::AnalyticalEstimator;
use recshard_sharding::{ClusterSpec, DeviceClass, NodeTopology, ShardingPlan, SystemSpec};
use recshard_stats::{DatasetProfile, DatasetProfiler};
use std::time::Instant;

/// Sweep configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SolverBenchConfig {
    /// Table counts swept.
    pub table_counts: Vec<usize>,
    /// GPU counts swept.
    pub gpu_counts: Vec<usize>,
    /// Synthetic samples profiled per point.
    pub profile_samples: usize,
    /// Master seed.
    pub seed: u64,
    /// Measure wall-clock times into the report (breaks byte-stability of
    /// the JSON across runs; stdout always shows measured times).
    pub include_timing: bool,
}

impl SolverBenchConfig {
    /// The full production-scale sweep (100 → 5,000 tables × up to 16 GPUs).
    pub fn full() -> Self {
        Self {
            table_counts: vec![100, 500, 1_000, 2_500, 5_000],
            gpu_counts: vec![4, 8, 16],
            profile_samples: 1_200,
            seed: 0x5CA1E,
            include_timing: false,
        }
    }

    /// A seconds-scale sweep for tests and CI smoke runs.
    pub fn tiny() -> Self {
        Self {
            table_counts: vec![24, 60],
            gpu_counts: vec![4],
            profile_samples: 600,
            seed: 0x5CA1E,
            include_timing: false,
        }
    }

    /// [`full`](Self::full) with environment overrides:
    /// `RECSHARD_SOLVER_MAX_TABLES` truncates the table sweep,
    /// `RECSHARD_SOLVER_MAX_GPUS` the GPU sweep, `RECSHARD_SEED` reseeds,
    /// and `RECSHARD_BENCH_TIMING=1` measures wall times into the JSON.
    pub fn from_env() -> Self {
        let mut cfg = Self::full();
        let max_tables = env_u64("RECSHARD_SOLVER_MAX_TABLES", u64::MAX);
        cfg.table_counts.retain(|&t| t as u64 <= max_tables);
        let max_gpus = env_u64("RECSHARD_SOLVER_MAX_GPUS", u64::MAX);
        cfg.gpu_counts.retain(|&g| g as u64 <= max_gpus);
        cfg.seed = env_u64("RECSHARD_SEED", cfg.seed);
        cfg.include_timing = std::env::var("RECSHARD_BENCH_TIMING").as_deref() == Ok("1");
        cfg
    }
}

/// One sweep point's results.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Tables in the model.
    pub tables: usize,
    /// GPUs in the system.
    pub gpus: usize,
    /// Nodes of the hierarchical path's topology.
    pub nodes: usize,
    /// Max per-GPU cost (ms) of the greedy size-lookup baseline plan.
    pub greedy_cost_ms: f64,
    /// Max per-GPU cost (ms) of the pre-refactor structured solver plan.
    pub structured_cost_ms: f64,
    /// Max per-GPU cost (ms) of the bucketed scalable solver plan.
    pub scalable_cost_ms: f64,
    /// Max per-GPU cost (ms) of the two-level hierarchical plan.
    pub hierarchical_cost_ms: f64,
    /// `scalable_cost_ms / greedy_cost_ms` (≤ 1: never worse than greedy).
    pub scalable_vs_greedy: f64,
    /// `scalable_cost_ms / structured_cost_ms` (≤ 1.01: within 1% of the
    /// pre-refactor solver).
    pub scalable_vs_structured: f64,
    /// Buckets the preprocessor collapsed the tables into.
    pub buckets: usize,
    /// `tables / buckets`.
    pub compression_ratio: f64,
    /// Expected inter-node bytes per iteration of the hierarchical plan.
    pub internode_bytes_per_iter: f64,
    /// FNV-1a fingerprint of the scalable plan's placements.
    pub scalable_plan_fingerprint: u64,
    /// Wall-clock times (ms), or
    /// [`TIMING_DISABLED`](crate::artifact::TIMING_DISABLED).
    pub wall_greedy_ms: f64,
    /// Structured solve wall time (ms), or the sentinel.
    pub wall_structured_ms: f64,
    /// Scalable solve wall time (ms), or the sentinel.
    pub wall_scalable_ms: f64,
    /// Hierarchical solve wall time (ms), or the sentinel.
    pub wall_hierarchical_ms: f64,
}

/// One `hetero_scaling` point: the same skewed workload placed on a mixed
/// two-class cluster (half fast/large-HBM devices, half slow/small-HBM), the
/// class-aware scalable solver against the class-blind greedy baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct HeteroPoint {
    /// Tables in the model.
    pub tables: usize,
    /// Total GPUs (evenly split between the two classes).
    pub gpus: usize,
    /// GPUs of the fast/large class.
    pub big_gpus: usize,
    /// GPUs of the slow/small class.
    pub small_gpus: usize,
    /// Max per-GPU cost (ms) of the class-blind greedy size-lookup plan.
    pub greedy_cost_ms: f64,
    /// Max per-GPU cost (ms) of the class-aware scalable plan.
    pub scalable_cost_ms: f64,
    /// `scalable_cost_ms / greedy_cost_ms` — asserted *strictly* below 1 on
    /// skewed-capacity clusters (the class-aware solver must win).
    pub scalable_vs_greedy: f64,
    /// FNV-1a fingerprint of the scalable plan's placements.
    pub scalable_plan_fingerprint: u64,
}

/// The full sweep result.
#[derive(Debug, Clone, PartialEq)]
pub struct SolverBenchReport {
    /// Seed the sweep ran under.
    pub seed: u64,
    /// Whether timing fields hold measurements.
    pub timed: bool,
    /// Per-point results, sweep order (tables outer, gpus inner).
    pub points: Vec<SweepPoint>,
    /// Heterogeneous-cluster results, one per table count.
    pub hetero: Vec<HeteroPoint>,
}

/// Node grid used by the hierarchical path at a given GPU count.
pub fn bench_topology(gpus: usize) -> NodeTopology {
    if gpus >= 16 && gpus.is_multiple_of(4) {
        NodeTopology::new(4, gpus / 4)
    } else if gpus >= 4 && gpus.is_multiple_of(2) {
        NodeTopology::new(2, gpus / 2)
    } else {
        NodeTopology::single(gpus)
    }
}

/// The evaluation system at a sweep point: per-GPU HBM holds about a third
/// of the model's fair share (the paper's capacity-pressure regime), DRAM
/// holds everything.
pub fn bench_system(model_bytes: u64, gpus: usize) -> SystemSpec {
    SystemSpec::uniform(
        gpus,
        (model_bytes / (3 * gpus as u64)).max(1),
        model_bytes,
        1555.0,
        16.0,
    )
}

/// The mixed two-class evaluation cluster of the `hetero_scaling` points:
/// the *aggregate* HBM equals [`bench_system`]'s (same overall capacity
/// pressure) but it is skewed 3:1 between a fast H100-like class and a slow
/// A100-like class, each holding half the GPUs. A class-blind cost model
/// balances load evenly across GPUs and starves on the small/slow half; the
/// class-aware solvers shift hot splits toward the big/fast half.
pub fn hetero_bench_system(model_bytes: u64, gpus: usize) -> ClusterSpec {
    assert!(
        gpus >= 2 && gpus.is_multiple_of(2),
        "hetero points need an even GPU count"
    );
    let fair = (model_bytes / (3 * gpus as u64)).max(2);
    let big = DeviceClass::new("h100-like", fair / 2 * 3, model_bytes, 3350.0, 50.0);
    let small = DeviceClass::new("a100-like", fair / 2, model_bytes, 1555.0, 16.0);
    ClusterSpec::mixed(&[(big, gpus / 2), (small, gpus / 2)])
}

fn max_cost(
    solver: &StructuredSolver,
    model: &recshard_data::ModelSpec,
    profile: &DatasetProfile,
    system: &SystemSpec,
    plan: &ShardingPlan,
) -> f64 {
    // Grid-free exact objective: identical to gpu_costs for plans whose
    // splits sit on their own ICDF grid (greedy, structured), artifact-free
    // for bucketed plans carrying representative-grid row counts.
    solver
        .gpu_costs_exact(model, profile, system, plan)
        .into_iter()
        .fold(0.0f64, f64::max)
}

fn plan_fingerprint(plan: &ShardingPlan) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for p in plan.placements() {
        for word in [p.gpu as u64, p.hbm_rows, p.total_rows, p.row_bytes] {
            fnv_fold(&mut hash, word);
        }
    }
    hash
}

/// Runs the sweep.
pub fn run_sweep(cfg: &SolverBenchConfig) -> SolverBenchReport {
    let eval_config = RecShardConfig::default();
    let evaluator = StructuredSolver::new(eval_config);
    let mut points = Vec::new();

    for &tables in &cfg.table_counts {
        let model = skewed_model(tables);
        let profile = DatasetProfiler::profile_model(&model, cfg.profile_samples, cfg.seed);
        for &gpus in &cfg.gpu_counts {
            let system = bench_system(model.total_bytes(), gpus);
            let topology = bench_topology(gpus);

            let timed = |f: &mut dyn FnMut() -> ShardingPlan| -> (ShardingPlan, f64) {
                let start = Instant::now();
                let plan = f();
                (plan, start.elapsed().as_secs_f64() * 1e3)
            };

            let (greedy_plan, wall_greedy) =
                timed(&mut || Strategy::SizeLookupBased.plan(&model, &profile, &system));
            let (structured_plan, wall_structured) = timed(&mut || {
                evaluator
                    .solve(&model, &profile, &system)
                    .expect("structured solve failed")
            });
            let mut scalable_report: Option<ScalableSolveReport> = None;
            let (scalable_plan, wall_scalable) = timed(&mut || {
                let report = ScalableSolver::new(eval_config)
                    .solve_report(&model, &profile, &system)
                    .expect("scalable solve failed");
                let plan = report.plan.clone();
                scalable_report = Some(report);
                plan
            });
            let scalable_report = scalable_report.expect("scalable report captured");
            let (hier_plan, wall_hier) = timed(&mut || {
                HierarchicalSolver::new(eval_config, topology)
                    .solve(&model, &profile, &system)
                    .expect("hierarchical solve failed")
            });

            let greedy_cost = max_cost(&evaluator, &model, &profile, &system, &greedy_plan);
            let structured_cost = max_cost(&evaluator, &model, &profile, &system, &structured_plan);
            let scalable_cost = max_cost(&evaluator, &model, &profile, &system, &scalable_plan);
            let hier_cost = max_cost(&evaluator, &model, &profile, &system, &hier_plan);
            let internode_bytes = AnalyticalEstimator::new(&profile, &system, model.batch_size())
                .internode_bytes_per_iteration(&hier_plan);

            let gate = |ms: f64| timing(cfg.include_timing, ms);
            points.push(SweepPoint {
                tables,
                gpus,
                nodes: topology.num_nodes,
                greedy_cost_ms: greedy_cost,
                structured_cost_ms: structured_cost,
                scalable_cost_ms: scalable_cost,
                hierarchical_cost_ms: hier_cost,
                scalable_vs_greedy: scalable_cost / greedy_cost.max(1e-12),
                scalable_vs_structured: scalable_cost / structured_cost.max(1e-12),
                buckets: scalable_report.buckets,
                compression_ratio: scalable_report.compression_ratio,
                internode_bytes_per_iter: internode_bytes,
                scalable_plan_fingerprint: plan_fingerprint(&scalable_plan),
                wall_greedy_ms: gate(wall_greedy),
                wall_structured_ms: gate(wall_structured),
                wall_scalable_ms: gate(wall_scalable),
                wall_hierarchical_ms: gate(wall_hier),
            });
            println!(
                "solver_scaling: {tables} tables x {gpus} GPUs ({} nodes): \
                 greedy {wall_greedy:.1} ms, structured {wall_structured:.1} ms, \
                 scalable {wall_scalable:.1} ms ({} buckets, {:.2}x), \
                 hierarchical {wall_hier:.1} ms | cost vs greedy {:.3}, vs structured {:.4}",
                topology.num_nodes,
                scalable_report.buckets,
                scalable_report.compression_ratio,
                scalable_cost / greedy_cost.max(1e-12),
                scalable_cost / structured_cost.max(1e-12),
            );
        }
    }

    // ---- hetero_scaling: mixed two-class cluster, one point per table
    // count at the sweep's largest even GPU count ----
    let mut hetero = Vec::new();
    let hetero_gpus = cfg.gpu_counts.iter().copied().filter(|g| g % 2 == 0).max();
    if let Some(gpus) = hetero_gpus {
        for &tables in &cfg.table_counts {
            let model = skewed_model(tables);
            let profile = DatasetProfiler::profile_model(&model, cfg.profile_samples, cfg.seed);
            let system = hetero_bench_system(model.total_bytes(), gpus);
            let greedy_plan = Strategy::SizeLookupBased.plan(&model, &profile, &system);
            let scalable_plan = ScalableSolver::new(eval_config)
                .solve(&model, &profile, &system)
                .expect("hetero scalable solve failed");
            let greedy_cost = max_cost(&evaluator, &model, &profile, &system, &greedy_plan);
            let scalable_cost = max_cost(&evaluator, &model, &profile, &system, &scalable_plan);
            let ratio = scalable_cost / greedy_cost.max(1e-12);
            println!(
                "hetero_scaling: {tables} tables x {gpus} GPUs ({}+{} mixed): class-aware vs class-blind greedy cost ratio {ratio:.3}",
                gpus / 2,
                gpus / 2,
            );
            hetero.push(HeteroPoint {
                tables,
                gpus,
                big_gpus: gpus / 2,
                small_gpus: gpus / 2,
                greedy_cost_ms: greedy_cost,
                scalable_cost_ms: scalable_cost,
                scalable_vs_greedy: ratio,
                scalable_plan_fingerprint: plan_fingerprint(&scalable_plan),
            });
        }
    }

    SolverBenchReport {
        seed: cfg.seed,
        timed: cfg.include_timing,
        points,
        hetero,
    }
}

impl Artifact for SolverBenchReport {
    /// Gated on cost regressions, not on mere plan-fingerprint drift.
    const SPEC: Spec = Spec {
        bench: "solver_scaling",
        key: &["tables", "gpus"],
        timing: &[
            "wall_greedy_ms",
            "wall_structured_ms",
            "wall_scalable_ms",
            "wall_hierarchical_ms",
        ],
        gates: &[Gate::Ceiling("scalable_cost_ms")],
        tolerance: 0.02,
    };

    fn document(&self) -> Document {
        let points = self.points.iter().map(|p| {
            point!(p;
                tables: int, gpus: int, nodes: int, greedy_cost_ms: float,
                structured_cost_ms: float, scalable_cost_ms: float, hierarchical_cost_ms: float,
                scalable_vs_greedy: float, scalable_vs_structured: float, buckets: int,
                compression_ratio: float, internode_bytes_per_iter: float,
                scalable_plan_fingerprint: hex, wall_greedy_ms: float, wall_structured_ms: float,
                wall_scalable_ms: float, wall_hierarchical_ms: float,
            )
        });
        let hetero = self.hetero.iter().map(|h| {
            point!(h;
                tables: int, gpus: int, big_gpus: int, small_gpus: int, greedy_cost_ms: float,
                scalable_cost_ms: float, scalable_vs_greedy: float, scalable_plan_fingerprint: hex,
            )
        });
        Document {
            seed: self.seed,
            timed: self.timed,
            sections: vec![
                ("points", points.collect()),
                ("hetero_points", hetero.collect()),
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::TIMING_DISABLED;

    #[test]
    fn tiny_sweep_is_deterministic_and_sound() {
        let cfg = SolverBenchConfig::tiny();
        let a = run_sweep(&cfg);
        let b = run_sweep(&cfg);
        assert_eq!(a, b, "same seed must reproduce the same sweep");
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.points.len(), 2);
        for p in &a.points {
            assert!(
                p.scalable_vs_greedy <= 1.0 + 1e-9,
                "scalable must never lose to greedy ({})",
                p.scalable_vs_greedy
            );
            assert!(
                p.scalable_vs_structured <= 1.01 + 1e-9,
                "scalable must stay within 1% of the structured solver ({})",
                p.scalable_vs_structured
            );
            assert!(p.compression_ratio >= 1.0);
            assert_eq!(p.wall_scalable_ms, TIMING_DISABLED);
        }
    }

    #[test]
    fn hetero_points_class_aware_strictly_beats_class_blind_greedy() {
        let report = run_sweep(&SolverBenchConfig::tiny());
        assert_eq!(report.hetero.len(), 2, "one hetero point per table count");
        for h in &report.hetero {
            assert_eq!(h.big_gpus + h.small_gpus, h.gpus);
            assert!(
                h.scalable_vs_greedy < 1.0,
                "{} tables x {} GPUs mixed: the class-aware solver must beat \
                 class-blind greedy strictly (ratio {})",
                h.tables,
                h.gpus,
                h.scalable_vs_greedy
            );
        }
    }

    #[test]
    fn hetero_system_preserves_aggregate_pressure() {
        let model = skewed_model(24);
        let uniform = bench_system(model.total_bytes(), 4);
        let mixed = hetero_bench_system(model.total_bytes(), 4);
        assert_eq!(mixed.num_classes(), 2);
        assert!(!mixed.is_uniform());
        // Same aggregate HBM (up to the /2*3 rounding), skewed 3:1 per GPU.
        let tol = 4 * 2; // one rounding unit per GPU
        assert!(
            mixed
                .total_hbm_capacity()
                .abs_diff(uniform.total_hbm_capacity())
                <= tol,
            "aggregate HBM must match the uniform bench system ({} vs {})",
            mixed.total_hbm_capacity(),
            uniform.total_hbm_capacity()
        );
        assert_eq!(mixed.hbm_capacity(0), 3 * mixed.hbm_capacity(3));
    }

    #[test]
    fn timing_mode_changes_json_but_not_fingerprint() {
        let mut cfg = SolverBenchConfig::tiny();
        cfg.table_counts = vec![24];
        let untimed = run_sweep(&cfg);
        cfg.include_timing = true;
        let timed = run_sweep(&cfg);
        assert_ne!(untimed.to_json(), timed.to_json());
        assert_eq!(untimed.fingerprint(), timed.fingerprint());
        assert!(timed.points[0].wall_scalable_ms >= 0.0);
    }
}
