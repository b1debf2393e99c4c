//! The production-scale placement solver: bucketing + structured phases.
//!
//! [`ScalableSolver`] produces the same three-phase plan shape as
//! [`StructuredSolver`] — split selection
//! against the aggregate HBM budget, min-max LPT assignment with bottleneck
//! local search, per-GPU backfill — but runs the expensive per-table work
//! once per *bucket* of near-identical tables
//! ([`TableBuckets`]):
//!
//! * one [`TableCostModel`] is built per bucket representative instead of per
//!   table (the `O(tables × icdf_steps)` formulation term shrinks by the
//!   compression ratio), and
//! * phase-1 split selection walks one heap entry per bucket, each downgrade
//!   freeing `members × bytes` at once.
//!
//! Assignment and refinement still place every member individually, so the
//! emitted [`ShardingPlan`] is exactly as granular as the structured
//! solver's; on seed experiment configurations the plan cost matches the
//! structured solver within 1% (asserted by the `solver_scaling` bench and
//! the golden tests).

use crate::bucketing::{BucketingConfig, TableBuckets};
use crate::config::RecShardConfig;
use crate::cost::TableCostModel;
use crate::error::RecShardError;
use crate::solver::StructuredSolver;
use recshard_data::ModelSpec;
use recshard_sharding::{ShardingPlan, SystemSpec, TablePlacement};
use recshard_stats::DatasetProfile;
use std::collections::BinaryHeap;

/// Scalable RecShard placement solver (bucketed structured solve).
#[derive(Debug, Clone)]
pub struct ScalableSolver {
    config: RecShardConfig,
    bucketing: BucketingConfig,
}

/// A solve plus the preprocessor statistics the benches report.
#[derive(Debug, Clone)]
pub struct ScalableSolveReport {
    /// The placement plan.
    pub plan: ShardingPlan,
    /// Number of tables in the model.
    pub tables: usize,
    /// Number of buckets the preprocessor collapsed them into.
    pub buckets: usize,
    /// `tables / buckets`.
    pub compression_ratio: f64,
}

impl ScalableSolver {
    /// Creates a solver with default bucketing.
    pub fn new(config: RecShardConfig) -> Self {
        Self {
            config,
            bucketing: BucketingConfig::default(),
        }
    }

    /// Creates a solver with explicit bucketing tuning.
    pub fn with_bucketing(config: RecShardConfig, bucketing: BucketingConfig) -> Self {
        Self { config, bucketing }
    }

    /// Produces a placement plan.
    ///
    /// # Errors
    ///
    /// As [`StructuredSolver::solve`](crate::solver::StructuredSolver::solve).
    pub fn solve(
        &self,
        model: &ModelSpec,
        profile: &DatasetProfile,
        system: &SystemSpec,
    ) -> Result<ShardingPlan, RecShardError> {
        Ok(self.solve_report(model, profile, system)?.plan)
    }

    /// Re-solves after a drift/re-sharding event, warm-started from the
    /// previous plan: phase-2 assignment first tries to keep every table on
    /// its previous GPU (minimising migration churn), and the usual
    /// bottleneck local search then only moves tables when that strictly
    /// improves the max per-GPU cost. The result is *gated* against a cold
    /// solve on the exact objective ([`StructuredSolver::gpu_costs_exact`]):
    /// the returned plan is never costlier than the cold re-solve, and on
    /// ties the warm (migration-friendly) plan wins.
    ///
    /// A `previous` plan whose GPU count or table count no longer matches
    /// the inputs is ignored (plain cold solve).
    ///
    /// # Errors
    ///
    /// As [`StructuredSolver::solve`](crate::solver::StructuredSolver::solve).
    pub fn solve_seeded(
        &self,
        model: &ModelSpec,
        profile: &DatasetProfile,
        system: &SystemSpec,
        previous: &ShardingPlan,
    ) -> Result<ShardingPlan, RecShardError> {
        let cold = self.solve_report_impl(model, profile, system, None)?;
        if previous.num_gpus() != system.num_gpus()
            || previous.placements().len() != model.num_features()
        {
            return Ok(cold.plan);
        }
        let seed = previous.gpu_assignments();
        // A seed can wedge the packing (pinning large tables to their old
        // GPUs may leave a later table nowhere to go); the cold plan in
        // hand is feasible, so an infeasible warm attempt falls back to it
        // rather than failing the re-solve.
        let Ok(warm) = self.solve_report_impl(model, profile, system, Some(&seed)) else {
            return Ok(cold.plan);
        };
        let evaluator = StructuredSolver::new(self.config);
        let max_cost = |plan: &ShardingPlan| {
            evaluator
                .gpu_costs_exact(model, profile, system, plan)
                .into_iter()
                .fold(0.0f64, f64::max)
        };
        if max_cost(&warm.plan) <= max_cost(&cold.plan) * (1.0 + 1e-9) {
            Ok(warm.plan)
        } else {
            Ok(cold.plan)
        }
    }

    /// Produces a placement plan plus bucketing statistics.
    ///
    /// # Errors
    ///
    /// As [`StructuredSolver::solve`](crate::solver::StructuredSolver::solve).
    pub fn solve_report(
        &self,
        model: &ModelSpec,
        profile: &DatasetProfile,
        system: &SystemSpec,
    ) -> Result<ScalableSolveReport, RecShardError> {
        self.solve_report_impl(model, profile, system, None)
    }

    /// Like [`solve_report`](Self::solve_report), recording a
    /// [`TraceEvent::Bucketing`](recshard_obs::TraceEvent::Bucketing) event
    /// with the preprocessor's compression ratio into `obs`. The solve
    /// itself is observation-independent.
    ///
    /// # Errors
    ///
    /// As [`StructuredSolver::solve`](crate::solver::StructuredSolver::solve).
    pub fn solve_report_observed(
        &self,
        model: &ModelSpec,
        profile: &DatasetProfile,
        system: &SystemSpec,
        obs: &mut recshard_obs::ObsHandle<'_>,
    ) -> Result<ScalableSolveReport, RecShardError> {
        let report = self.solve_report_impl(model, profile, system, None)?;
        obs.record(
            0,
            recshard_obs::TraceEvent::Bucketing {
                tables: report.tables as u64,
                buckets: report.buckets as u64,
                compression: report.compression_ratio,
            },
        );
        Ok(report)
    }

    fn solve_report_impl(
        &self,
        model: &ModelSpec,
        profile: &DatasetProfile,
        system: &SystemSpec,
        seed_assignment: Option<&[usize]>,
    ) -> Result<ScalableSolveReport, RecShardError> {
        self.config
            .validate()
            .map_err(RecShardError::InvalidConfig)?;
        if profile.num_features() != model.num_features() {
            return Err(RecShardError::ProfileMismatch(format!(
                "profile covers {} features, model has {}",
                profile.num_features(),
                model.num_features()
            )));
        }
        if model.total_bytes() > system.total_capacity() {
            return Err(RecShardError::CapacityExceeded {
                required_bytes: model.total_bytes(),
                available_bytes: system.total_capacity(),
            });
        }

        let batch = model.batch_size();
        let buckets = TableBuckets::build(model, profile, &self.bucketing);
        // One cost menu per bucket representative, built against the
        // cluster's reference class (class 0): phase-1 split selection needs
        // a single shared price per downgrade. Per-GPU costs during
        // assignment and refinement are charged under the owning GPU's own
        // device class (see `true_cost_at`), so heterogeneity only ever
        // sharpens the balancing — on a uniform cluster the reference class
        // is the only class and behaviour is bit-identical to before.
        let reference = *system.reference_class();
        let menus: Vec<TableCostModel> = buckets
            .buckets()
            .iter()
            .map(|b| {
                TableCostModel::build(
                    b.representative,
                    &profile.profiles()[b.representative],
                    &reference,
                    batch,
                    &self.config,
                )
            })
            .collect();
        let menu_of = buckets.bucket_of_table();
        let num_tables = model.num_features();

        // ---- Phase 1: split selection over buckets ----
        let budget = (system.total_hbm_capacity() as f64 * (1.0 - self.config.hbm_slack)) as u64;
        let mut bucket_step: Vec<usize> = menus.iter().map(|m| m.options.len() - 1).collect();
        let mut hbm_demand: u64 = buckets
            .buckets()
            .iter()
            .zip(&menus)
            .map(|(b, m)| m.max_option().hbm_bytes * b.members.len() as u64)
            .sum();

        #[derive(PartialEq)]
        struct Downgrade {
            ratio: f64,
            bucket: usize,
            from_step: usize,
        }
        impl Eq for Downgrade {}
        impl PartialOrd for Downgrade {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for Downgrade {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                other
                    .ratio
                    .partial_cmp(&self.ratio)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(other.bucket.cmp(&self.bucket))
            }
        }

        let downgrade_of = |menus: &[TableCostModel], bucket: usize, from_step: usize| {
            if from_step == 0 {
                return None;
            }
            let cur = &menus[bucket].options[from_step];
            let mut to = from_step;
            while to > 0 {
                to -= 1;
                if menus[bucket].options[to].hbm_bytes < cur.hbm_bytes {
                    break;
                }
            }
            let next = &menus[bucket].options[to];
            let freed = cur.hbm_bytes.saturating_sub(next.hbm_bytes);
            if freed == 0 {
                return None;
            }
            let extra_cost = (next.weighted_cost - cur.weighted_cost).max(0.0);
            Some(Downgrade {
                // Per-byte marginal cost is member-count invariant: each
                // member frees `freed` bytes and pays `extra_cost`.
                ratio: extra_cost / freed as f64,
                bucket,
                from_step,
            })
        };

        let mut heap: BinaryHeap<Downgrade> = BinaryHeap::new();
        for b in 0..menus.len() {
            if let Some(d) = downgrade_of(&menus, b, bucket_step[b]) {
                heap.push(d);
            }
        }
        while hbm_demand > budget {
            let Some(d) = heap.pop() else { break };
            if d.from_step != bucket_step[d.bucket] {
                continue; // stale entry
            }
            let cur_bytes = menus[d.bucket].options[d.from_step].hbm_bytes;
            let mut to = d.from_step;
            while to > 0 {
                to -= 1;
                if menus[d.bucket].options[to].hbm_bytes < cur_bytes {
                    break;
                }
            }
            let freed_each = cur_bytes - menus[d.bucket].options[to].hbm_bytes;
            let members = buckets.buckets()[d.bucket].members.len() as u64;
            bucket_step[d.bucket] = to;
            hbm_demand -= freed_each * members;
            if let Some(next) = downgrade_of(&menus, d.bucket, to) {
                heap.push(next);
            }
        }

        // Per-table steps seeded from the bucket decision; assignment and
        // backfill refine them individually from here on. The shared menus
        // supply step geometry (row counts, bytes); each member's *cost* at
        // its current step is computed exactly from its own CDF — an O(1)
        // indexed lookup — so balancing never pays the merge tolerance.
        let mut step: Vec<usize> = (0..num_tables).map(|t| bucket_step[menu_of[t]]).collect();
        // Exact per-member cost of a split under one GPU's device class.
        let true_cost_on = |t: usize, hbm_rows: u64, gpu: usize| -> f64 {
            TableCostModel::weighted_cost_at(
                &profile.profiles()[t],
                system.device(gpu),
                batch,
                &self.config,
                hbm_rows,
            )
        };
        // Reference-class cost, used before a table has an owner (LPT order).
        let true_cost_at = |t: usize, hbm_rows: u64| -> f64 {
            TableCostModel::weighted_cost_at(
                &profile.profiles()[t],
                &reference,
                batch,
                &self.config,
                hbm_rows,
            )
        };
        // `cost_of[t]` is the cost of `t` at its current split under its
        // *current owner's* class once assigned (reference class before).
        let mut cost_of: Vec<f64> = (0..num_tables)
            .map(|t| true_cost_at(t, menus[menu_of[t]].options[step[t]].hbm_rows))
            .collect();

        // ---- Phase 2: min-max assignment (LPT + capacity) ----
        let m = system.num_gpus();
        let mut gpu_cost = vec![0.0f64; m];
        let mut hbm_free: Vec<u64> = (0..m).map(|g| system.hbm_capacity(g)).collect();
        let mut dram_free: Vec<u64> = (0..m).map(|g| system.dram_capacity(g)).collect();
        let mut assignment: Vec<Option<usize>> = vec![None; num_tables];

        let mut order: Vec<usize> = (0..num_tables).collect();
        order.sort_by(|&a, &b| {
            cost_of[b]
                .partial_cmp(&cost_of[a])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });

        for &t in &order {
            // Warm start: keep the table on its previous GPU when it still
            // fits there at the current split; the gated local search below
            // moves it only if that strictly improves the bottleneck.
            if let Some(seed) = seed_assignment {
                let g = seed[t];
                let opt = &menus[menu_of[t]].options[step[t]];
                if hbm_free[g] >= opt.hbm_bytes && dram_free[g] >= opt.uvm_bytes {
                    hbm_free[g] -= opt.hbm_bytes;
                    dram_free[g] -= opt.uvm_bytes;
                    cost_of[t] = true_cost_on(t, opt.hbm_rows, g);
                    gpu_cost[g] += cost_of[t];
                    assignment[t] = Some(g);
                    continue;
                }
            }
            loop {
                let opt = &menus[menu_of[t]].options[step[t]];
                let candidate = (0..m)
                    .filter(|&g| hbm_free[g] >= opt.hbm_bytes && dram_free[g] >= opt.uvm_bytes)
                    .min_by(|&a, &b| {
                        gpu_cost[a]
                            .partial_cmp(&gpu_cost[b])
                            .unwrap_or(std::cmp::Ordering::Equal)
                            .then(a.cmp(&b))
                    });
                if let Some(g) = candidate {
                    hbm_free[g] -= opt.hbm_bytes;
                    dram_free[g] -= opt.uvm_bytes;
                    cost_of[t] = true_cost_on(t, opt.hbm_rows, g);
                    gpu_cost[g] += cost_of[t];
                    assignment[t] = Some(g);
                    break;
                }
                if step[t] == 0 {
                    return Err(RecShardError::CapacityExceeded {
                        required_bytes: opt.uvm_bytes,
                        available_bytes: dram_free.iter().copied().max().unwrap_or(0),
                    });
                }
                step[t] -= 1;
                cost_of[t] = true_cost_at(t, menus[menu_of[t]].options[step[t]].hbm_rows);
            }
        }

        // ---- Phase 3: alternate bottleneck local search and HBM backfill ----
        // Bucket-granular phase-1 downgrades land coarser than the structured
        // solver's per-table sweep, so a single search+backfill pass leaves a
        // percent-level gap; alternating the two (each strictly improving)
        // until a joint fixpoint recovers it.
        for _round in 0..self.config.refinement_passes.max(1) {
            let mut any_change = false;

            // -- 3a: move-with-resplit local search on the bottleneck GPU --
            // Unlike the structured solver's fixed-split moves, a table moved
            // off the bottleneck re-picks its split step to the largest one
            // the target GPU can hold (options are cost-monotone in HBM
            // rows), so moves are never blocked by a split chosen for the
            // wrong GPU.
            // Swaps strictly reduce the max per-GPU cost, so more passes can
            // only help; the cap bounds worst-case work.
            for _ in 0..self.config.refinement_passes.max(1) * 8 {
                let bottleneck = (0..m)
                    .max_by(|&a, &b| {
                        gpu_cost[a]
                            .partial_cmp(&gpu_cost[b])
                            .unwrap_or(std::cmp::Ordering::Equal)
                    })
                    .expect("at least one GPU");
                let mut improved = false;
                let tables_on_bottleneck: Vec<usize> = (0..num_tables)
                    .filter(|&t| assignment[t] == Some(bottleneck))
                    .collect();
                for &t in &tables_on_bottleneck {
                    let menu = &menus[menu_of[t]];
                    let opt = &menu.options[step[t]];
                    let mut best: Option<(usize, usize, f64, f64)> = None; // (gpu, step, cost, new_max)
                    for g in 0..m {
                        if g == bottleneck {
                            continue;
                        }
                        // Largest split the target can hold. HBM bytes are
                        // non-decreasing and UVM bytes non-increasing over
                        // the options, so the feasible steps form a
                        // contiguous range found by two partition points.
                        let hi = menu.options.partition_point(|o| o.hbm_bytes <= hbm_free[g]);
                        let lo = menu.options.partition_point(|o| o.uvm_bytes > dram_free[g]);
                        if hi == 0 || lo >= hi {
                            continue;
                        }
                        let s = hi - 1;
                        let moved_cost = true_cost_on(t, menu.options[s].hbm_rows, g);
                        let new_src = gpu_cost[bottleneck] - cost_of[t];
                        let new_dst = gpu_cost[g] + moved_cost;
                        let new_max = (0..m)
                            .map(|x| {
                                if x == bottleneck {
                                    new_src
                                } else if x == g {
                                    new_dst
                                } else {
                                    gpu_cost[x]
                                }
                            })
                            .fold(0.0f64, f64::max);
                        if new_max + 1e-12 < gpu_cost[bottleneck]
                            && best.map(|(_, _, _, b)| new_max < b).unwrap_or(true)
                        {
                            best = Some((g, s, moved_cost, new_max));
                        }
                    }
                    if let Some((g, s, moved_cost, _)) = best {
                        let dst_opt = &menu.options[s];
                        hbm_free[bottleneck] += opt.hbm_bytes;
                        dram_free[bottleneck] += opt.uvm_bytes;
                        hbm_free[g] -= dst_opt.hbm_bytes;
                        dram_free[g] -= dst_opt.uvm_bytes;
                        gpu_cost[bottleneck] -= cost_of[t];
                        gpu_cost[g] += moved_cost;
                        assignment[t] = Some(g);
                        step[t] = s;
                        cost_of[t] = moved_cost;
                        improved = true;
                        any_change = true;
                    }
                }

                // Moves alone cannot fix LPT packing noise (every GPU near
                // the max); exchange a bottleneck table against a cheaper
                // table elsewhere when the trade lowers the maximum. The
                // O(T_bottleneck × T) scan only pays off while a real
                // imbalance exists — within 0.1% of the mean it would just
                // chase noise, so skip it.
                let mean_cost = gpu_cost.iter().sum::<f64>() / m as f64;
                if !improved && gpu_cost[bottleneck] > mean_cost * 1.001 {
                    'swap: for &t1 in &tables_on_bottleneck {
                        if assignment[t1] != Some(bottleneck) {
                            continue;
                        }
                        let o1 = &menus[menu_of[t1]].options[step[t1]];
                        for t2 in 0..num_tables {
                            let Some(g) = assignment[t2] else { continue };
                            if g == bottleneck || cost_of[t2] + 1e-15 >= cost_of[t1] {
                                continue;
                            }
                            let o2 = &menus[menu_of[t2]].options[step[t2]];
                            let hbm_ok = hbm_free[bottleneck] + o1.hbm_bytes >= o2.hbm_bytes
                                && hbm_free[g] + o2.hbm_bytes >= o1.hbm_bytes;
                            let dram_ok = dram_free[bottleneck] + o1.uvm_bytes >= o2.uvm_bytes
                                && dram_free[g] + o2.uvm_bytes >= o1.uvm_bytes;
                            if !hbm_ok || !dram_ok {
                                continue;
                            }
                            // Each side's delta is priced under its own
                            // class; on a uniform cluster both reduce to the
                            // historical `cost_of[t1] - cost_of[t2]`.
                            let t2_on_src = true_cost_on(t2, o2.hbm_rows, bottleneck);
                            let t1_on_dst = true_cost_on(t1, o1.hbm_rows, g);
                            let delta_src = cost_of[t1] - t2_on_src;
                            let delta_dst = t1_on_dst - cost_of[t2];
                            let new_src = gpu_cost[bottleneck] - delta_src;
                            let new_dst = gpu_cost[g] + delta_dst;
                            if new_src.max(new_dst) + 1e-12 >= gpu_cost[bottleneck] {
                                continue;
                            }
                            hbm_free[bottleneck] =
                                hbm_free[bottleneck] + o1.hbm_bytes - o2.hbm_bytes;
                            dram_free[bottleneck] =
                                dram_free[bottleneck] + o1.uvm_bytes - o2.uvm_bytes;
                            hbm_free[g] = hbm_free[g] + o2.hbm_bytes - o1.hbm_bytes;
                            dram_free[g] = dram_free[g] + o2.uvm_bytes - o1.uvm_bytes;
                            gpu_cost[bottleneck] = new_src;
                            gpu_cost[g] = new_dst;
                            cost_of[t1] = t1_on_dst;
                            cost_of[t2] = t2_on_src;
                            assignment[t1] = Some(g);
                            assignment[t2] = Some(bottleneck);
                            improved = true;
                            any_change = true;
                            break 'swap;
                        }
                    }
                }
                if !improved {
                    break;
                }
            }

            // -- 3b: backfill leftover per-GPU HBM by upgrading splits --
            // Candidate geometry comes from the shared menus; gains are
            // computed exactly per member (O(1) CDF lookups).
            for g in 0..m {
                loop {
                    let mut best: Option<(usize, usize, f64, u64)> = None; // (table, new_step, gain, extra)
                    for t in 0..num_tables {
                        if assignment[t] != Some(g) {
                            continue;
                        }
                        let menu = &menus[menu_of[t]];
                        let cur = &menu.options[step[t]];
                        for s in (step[t] + 1)..menu.options.len() {
                            let cand = &menu.options[s];
                            let extra = cand.hbm_bytes.saturating_sub(cur.hbm_bytes);
                            if extra > hbm_free[g] {
                                break;
                            }
                            let gain = cost_of[t] - true_cost_on(t, cand.hbm_rows, g);
                            if gain > 1e-15 && best.map(|(_, _, bg, _)| gain > bg).unwrap_or(true) {
                                best = Some((t, s, gain, extra));
                            }
                        }
                    }
                    let Some((t, s, gain, extra)) = best else {
                        break;
                    };
                    let menu = &menus[menu_of[t]];
                    hbm_free[g] -= extra;
                    dram_free[g] += menu.options[step[t]].uvm_bytes - menu.options[s].uvm_bytes;
                    gpu_cost[g] -= gain;
                    step[t] = s;
                    cost_of[t] -= gain;
                    any_change = true;
                }
            }

            if !any_change {
                break;
            }
        }

        // ---- Materialise the plan ----
        let placements = model
            .features()
            .iter()
            .enumerate()
            .map(|(t, spec)| {
                let opt = &menus[menu_of[t]].options[step[t]];
                TablePlacement {
                    table: spec.id,
                    gpu: assignment[t].expect("every table assigned"),
                    // The representative's split row count, clamped to this
                    // member's geometry (identical within a bucket by
                    // construction, the clamp is belt-and-braces).
                    hbm_rows: opt.hbm_rows.min(spec.hash_size),
                    total_rows: spec.hash_size,
                    row_bytes: spec.row_bytes(),
                }
            })
            .collect();
        let plan = ShardingPlan::new("recshard-scalable", m, placements);
        debug_assert!(plan.validate(model, system).is_ok());
        Ok(ScalableSolveReport {
            plan,
            tables: num_tables,
            buckets: buckets.num_buckets(),
            compression_ratio: buckets.compression_ratio(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::StructuredSolver;
    use recshard_data::ModelSpec;
    use recshard_stats::DatasetProfiler;

    fn setup(n: usize, seed: u64) -> (ModelSpec, DatasetProfile) {
        let model = ModelSpec::small(n, seed);
        let profile = DatasetProfiler::profile_model(&model, 2_000, seed + 1);
        (model, profile)
    }

    #[test]
    fn plan_is_valid_under_pressure() {
        let (model, profile) = setup(12, 7);
        let system = SystemSpec::uniform(
            2,
            model.total_bytes() / 8,
            model.total_bytes(),
            1555.0,
            16.0,
        );
        let report = ScalableSolver::new(RecShardConfig::default())
            .solve_report(&model, &profile, &system)
            .unwrap();
        report.plan.validate(&model, &system).unwrap();
        assert!(report.plan.total_uvm_rows() > 0);
        assert_eq!(report.tables, 12);
        assert!(report.buckets >= 1 && report.buckets <= 12);
        assert_eq!(report.plan.strategy(), "recshard-scalable");
    }

    #[test]
    fn matches_structured_solver_within_one_percent() {
        for seed in [3u64, 11, 21] {
            let (model, profile) = setup(10, seed);
            let system = SystemSpec::uniform(
                2,
                model.total_bytes() / 6,
                model.total_bytes(),
                1555.0,
                16.0,
            );
            let config = RecShardConfig::default();
            let structured = StructuredSolver::new(config);
            let reference = structured.solve(&model, &profile, &system).unwrap();
            let ref_cost = structured
                .gpu_costs_exact(&model, &profile, &system, &reference)
                .into_iter()
                .fold(0.0f64, f64::max);

            let scalable_plan = ScalableSolver::new(config)
                .solve(&model, &profile, &system)
                .unwrap();
            let scalable_cost = structured
                .gpu_costs_exact(&model, &profile, &system, &scalable_plan)
                .into_iter()
                .fold(0.0f64, f64::max);
            assert!(
                scalable_cost <= ref_cost * 1.01 + 1e-12,
                "seed {seed}: scalable {scalable_cost} vs structured {ref_cost}"
            );
        }
    }

    #[test]
    fn deterministic() {
        let (model, profile) = setup(9, 13);
        let system = SystemSpec::uniform(
            3,
            model.total_bytes() / 5,
            model.total_bytes(),
            1555.0,
            16.0,
        );
        let solver = ScalableSolver::new(RecShardConfig::default());
        let a = solver.solve(&model, &profile, &system).unwrap();
        let b = solver.solve(&model, &profile, &system).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_impossible_models() {
        let (model, profile) = setup(4, 5);
        let system = SystemSpec::uniform(1, 16, 16, 1555.0, 16.0);
        assert!(matches!(
            ScalableSolver::new(RecShardConfig::default()).solve(&model, &profile, &system),
            Err(RecShardError::CapacityExceeded { .. })
        ));
    }

    /// Warm-started re-solves across seeded drift traces are never costlier
    /// than a cold re-solve (the gate guarantees it), stay valid, and keep
    /// at least as many tables on their previous GPUs as the cold path —
    /// the whole point of carrying the assignment across re-sharding events.
    #[test]
    fn warm_start_no_worse_than_cold_on_seeded_drift_traces() {
        use recshard_data::DriftModel;
        for seed in [3u64, 11, 29] {
            let (model, profile) = setup(12, seed);
            let system = SystemSpec::uniform(
                2,
                model.total_bytes() / 6,
                model.total_bytes(),
                1555.0,
                16.0,
            );
            let solver = ScalableSolver::new(RecShardConfig::default());
            let evaluator = StructuredSolver::new(RecShardConfig::default());
            let mut previous = solver.solve(&model, &profile, &system).unwrap();

            let drift = DriftModel::paper_like();
            for month in [2u32, drift.months()] {
                let drifted = drift.model_at_month(&model, month);
                let drifted_profile =
                    recshard_stats::DatasetProfiler::profile_model(&drifted, 2_000, seed ^ 0xD81F7);

                let warm = solver
                    .solve_seeded(&drifted, &drifted_profile, &system, &previous)
                    .unwrap();
                let cold = solver.solve(&drifted, &drifted_profile, &system).unwrap();
                warm.validate(&drifted, &system).unwrap();

                let max_cost = |plan: &ShardingPlan| {
                    evaluator
                        .gpu_costs_exact(&drifted, &drifted_profile, &system, plan)
                        .into_iter()
                        .fold(0.0f64, f64::max)
                };
                assert!(
                    max_cost(&warm) <= max_cost(&cold) * (1.0 + 1e-9),
                    "seed {seed} month {month}: warm re-solve must not lose to cold \
                     ({} vs {})",
                    max_cost(&warm),
                    max_cost(&cold)
                );

                let moved = |plan: &ShardingPlan| {
                    plan.placements()
                        .iter()
                        .zip(previous.placements())
                        .filter(|(a, b)| a.gpu != b.gpu)
                        .count()
                };
                assert!(
                    moved(&warm) <= moved(&cold),
                    "seed {seed} month {month}: warm start must not migrate more tables \
                     than cold ({} vs {})",
                    moved(&warm),
                    moved(&cold)
                );
                previous = warm;
            }
        }
    }

    /// A stale seed (wrong GPU count) is ignored rather than crashing.
    #[test]
    fn mismatched_seed_falls_back_to_cold() {
        let (model, profile) = setup(8, 17);
        let system = SystemSpec::uniform(
            2,
            model.total_bytes() / 4,
            model.total_bytes(),
            1555.0,
            16.0,
        );
        let four_gpu = SystemSpec::uniform(
            4,
            model.total_bytes() / 4,
            model.total_bytes(),
            1555.0,
            16.0,
        );
        let solver = ScalableSolver::new(RecShardConfig::default());
        let stale = solver.solve(&model, &profile, &four_gpu).unwrap();
        let warm = solver
            .solve_seeded(&model, &profile, &system, &stale)
            .unwrap();
        let cold = solver.solve(&model, &profile, &system).unwrap();
        assert_eq!(warm, cold);
    }
}
