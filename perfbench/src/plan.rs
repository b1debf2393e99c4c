//! `plan_rm3`: what a RecShard user waits for. The paper's RM3 (397 tables)
//! under `ExperimentConfig::fast()` (1/2048 scale, 16 capacity-constrained
//! GPUs) runs profile → RecShard plan → remap, then a memsim evaluation of
//! RecShard and the three greedy baselines (Tables 3–5). Sample generation
//! and counting do almost all the work; des and serve are never touched.

use crate::harness::{
    fnv_fold, max_over_mean, median, median_metrics, plan_fingerprint, profile_metrics, rate,
    repeat_for, setup_then_repeat, traced_profile, Checks, Outcome, RunArgs,
};
use crate::spans::Spans;
use recshard::RecShard;
use recshard_bench::ExperimentConfig;
use recshard_data::{ModelSpec, RmKind};
use recshard_memsim::{EmbeddingOpSimulator, RunReport};
use recshard_sharding::{
    GreedySharder, LookupCost, RemapTable, ShardingError, ShardingPlan, SizeCost, SizeLookupCost,
    SystemSpec,
};
use recshard_stats::DatasetProfile;
use std::collections::BTreeMap;

struct Setup {
    cfg: ExperimentConfig,
    model: ModelSpec,
    system: SystemSpec,
}

fn setup(seed: u64) -> Setup {
    let cfg = ExperimentConfig {
        seed,
        ..ExperimentConfig::fast()
    };
    Setup {
        model: cfg.model(RmKind::Rm3),
        system: cfg.system(),
        cfg,
    }
}

/// The three greedy baselines of Section 6, in the paper's order.
fn baselines(s: &Setup, profile: &DatasetProfile) -> Vec<Result<ShardingPlan, ShardingError>> {
    vec![
        GreedySharder::new(SizeCost).shard(&s.model, profile, &s.system),
        GreedySharder::new(LookupCost).shard(&s.model, profile, &s.system),
        GreedySharder::new(SizeLookupCost).shard(&s.model, profile, &s.system),
    ]
}

fn evaluate(s: &Setup, plan: &ShardingPlan, profile: &DatasetProfile) -> RunReport {
    EmbeddingOpSimulator::new(&s.model, plan, profile, &s.system, s.cfg.sim_config()).run(
        s.cfg.sim_iterations,
        s.cfg.sim_batch,
        s.cfg.seed ^ 0x5EED,
    )
}

/// The simulated outputs of one repetition.
#[derive(PartialEq)]
struct Output {
    profile: DatasetProfile,
    /// RecShard's plan last, after the three baselines.
    plans: Vec<ShardingPlan>,
    remaps: Vec<RemapTable>,
    reports: Vec<RunReport>,
}

impl Output {
    fn recshard(&self) -> &RunReport {
        self.reports.last().expect("RecShard report present")
    }

    fn check(&self, s: &Setup, checks: &mut Checks) {
        for plan in &self.plans {
            checks.plan_valid(plan, &s.model, &s.system);
        }
        checks.remap_matches(&self.remaps, self.plans.last().expect("RecShard plan"));
        // Every strategy sees the same seeded draws, so each report's
        // HBM + UVM lookups must equal the same plan-independent total; the
        // per-GPU means are rounded, by at most 1/2 per GPU and tier.
        let totals: Vec<f64> = self.reports.iter().map(lookups_per_iteration).collect();
        let slack = 2.0 * 2.0 * s.system.num_gpus() as f64;
        checks.check(
            totals[0] > 0.0 && totals.iter().all(|t| (t - totals[0]).abs() <= slack),
            || format!("memsim HBM + UVM lookups differ across strategies: {totals:?}"),
        );
    }

    fn memsim_fingerprint(&self) -> u64 {
        let mut hash = 0xCBF2_9CE4_8422_2325u64;
        for r in &self.reports {
            for (t, c) in r
                .per_gpu_mean_time_ms()
                .iter()
                .zip(r.per_gpu_mean_counters())
            {
                for word in [t.to_bits(), c.hbm_accesses, c.uvm_accesses] {
                    fnv_fold(&mut hash, word);
                }
            }
        }
        hash
    }
}

/// Mean HBM + UVM lookups of one iteration at the reported batch.
fn lookups_per_iteration(r: &RunReport) -> f64 {
    r.per_gpu_mean_counters()
        .iter()
        .map(|c| c.total_accesses() as f64)
        .sum()
}

/// The end-to-end simulated metrics: percentiles over the RecShard plan's
/// 16 per-GPU memsim times (the iteration waits for the slowest, so p99 is
/// the iteration time), its UVM share of lookups, and its imbalance.
fn sim_metrics(out: &Output, m: &mut BTreeMap<&'static str, f64>) {
    let r = out.recshard();
    let times = r.per_gpu_mean_time_ms();
    m.insert("sim_p50_ms", median(times));
    m.insert("sim_p99_ms", r.iteration_time_ms());
    m.insert("slow_frac", r.uvm_access_fraction());
    m.insert("imbalance", max_over_mean(times));
}

/// One repetition as a user runs it: `RecShard::run` (profile → plan →
/// remap), the three greedy baselines, then the memsim evaluation of all
/// four plans. The traced run checks that [`rep_traced`] reproduces it.
fn rep_untraced(s: &Setup) -> Result<Output, String> {
    let out = RecShard::default()
        .run(&s.model, &s.system, s.cfg.profile_samples, s.cfg.seed)
        .map_err(|e| format!("RecShard pipeline failed: {e}"))?;
    let mut plans = baselines(s, &out.profile)
        .into_iter()
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("greedy baseline failed: {e}"))?;
    plans.push(out.plan);
    let reports = plans.iter().map(|p| evaluate(s, p, &out.profile)).collect();
    Ok(Output {
        profile: out.profile,
        plans,
        remaps: out.remap_tables,
        reports,
    })
}

/// One repetition called piece by piece, one span per layer call: the
/// same work as [`rep_untraced`]. The end-to-end run times its pieces and
/// the traced run splits it into layers.
fn rep_traced(s: &Setup, spans: &mut Spans) -> Result<(usize, u64, Output), String> {
    let recshard = RecShard::default();
    let (root, out) = spans.span("rep", |spans| {
        let (profile, lookups) = traced_profile(spans, &s.model, s.cfg.profile_samples, s.cfg.seed);
        let plan = spans
            .time("core.solve", || {
                recshard.plan(&s.model, &profile, &s.system)
            })
            .map_err(|e| format!("RecShard solve failed: {e}"))?;
        let remaps = spans.time("sharding.remap", || recshard.remap(&plan, &profile));
        let mut plans = spans
            .time("sharding.greedy", || baselines(s, &profile))
            .into_iter()
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("greedy baseline failed: {e}"))?;
        plans.push(plan);
        let reports = plans
            .iter()
            .map(|p| spans.time("memsim.eval", || evaluate(s, p, &profile)))
            .collect();
        Ok((
            lookups,
            Output {
                profile,
                plans,
                remaps,
                reports,
            },
        ))
    });
    out.map(|(lookups, output)| (root, lookups, output))
}

fn layer_metrics(
    s: &Setup,
    spans: &Spans,
    root: usize,
    lookups: u64,
    out: &Output,
    notes: &mut Vec<(&'static str, String)>,
) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    profile_metrics(spans, root, lookups, &mut m);
    m.insert("core.solve_ms", spans.total_secs(root, "core.solve") * 1e3);
    m.insert(
        "sharding.remap_ms",
        spans.total_secs(root, "sharding.remap") * 1e3,
    );
    m.insert(
        "sharding.greedy_ms",
        spans.total_secs(root, "sharding.greedy") * 1e3,
    );
    let eval_s = spans.total_secs(root, "memsim.eval");
    m.insert("memsim.eval_s", eval_s);
    // Reported counters are scaled from the traced batch to 16,384 samples.
    let scale = s.cfg.sim_config().scale_to_batch.map_or(1.0, f64::from) / s.cfg.sim_batch as f64;
    let evaluated: f64 = out
        .reports
        .iter()
        .map(|r| lookups_per_iteration(r) * r.iterations() as f64 / scale)
        .sum();
    m.insert("memsim.lookups_per_s", rate(evaluated, eval_s));
    // The best greedy baseline is the one with the lowest iteration time.
    let recshard = out.recshard();
    let (best_idx, best) = out.reports[..out.reports.len() - 1]
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.iteration_time_ms().total_cmp(&b.1.iteration_time_ms()))
        .expect("three baselines");
    notes.push(("best_baseline", out.plans[best_idx].strategy().to_string()));
    m.insert(
        "memsim.speedup_x",
        best.iteration_time_ms() / recshard.iteration_time_ms(),
    );
    m.insert(
        "memsim.uvm_reduction_x",
        best.mean_uvm_accesses_per_gpu() / recshard.mean_uvm_accesses_per_gpu().max(1e-9),
    );
    m.insert(
        "memsim.baseline_imbalance",
        max_over_mean(best.per_gpu_mean_time_ms()),
    );
    m.insert("bench.unaccounted_frac", spans.unaccounted_frac(root));
    m
}

/// Runs the workload.
pub fn run(args: &RunArgs) -> Outcome {
    let mut o = Outcome::default();
    // Four plan solves and four evaluations per repetition.
    let ops_per_rep = 8;
    let mut first: Option<Output> = None;
    let mut reps = Vec::new();
    // Each repetition's output is checked and reduced to its metrics at
    // once: outputs hold whole profiles, so none is kept but the first.
    let s = if args.trace {
        let s = setup(args.seed);
        // The untraced output every traced repetition must reproduce.
        match rep_untraced(&s) {
            Ok(out) => first = Some(out),
            Err(e) => o.checks.failures.push(e),
        }
        let mut spans = Spans::new();
        repeat_for(args.seconds, |_| {
            o.attempted += ops_per_rep;
            match rep_traced(&s, &mut spans) {
                Err(e) => o.checks.failures.push(e),
                Ok((root, lookups, out)) => {
                    out.check(&s, &mut o.checks);
                    o.checks.check(first.as_ref() == Some(&out), || {
                        "traced output differs from the untraced output".to_string()
                    });
                    let mut m = layer_metrics(&s, &spans, root, lookups, &out, &mut o.notes);
                    // No program-side observation hook runs on this path.
                    m.insert("obs.overhead_frac", 0.0);
                    reps.push(m);
                }
            }
        });
        o.notes.dedup();
        o.spans = Some(spans);
        o.metrics.extend(median_metrics(&reps));
        s
    } else {
        // The fastest time seen of each timed piece of a repetition: a
        // repetition takes 3–4 s, too long for a whole one to miss every
        // burst of load from other tenants of a shared host, while its
        // pieces (64-sample profile chunks, solve, remap, baselines, each
        // evaluation) are short enough.
        let mut fastest: Vec<f64> = Vec::new();
        let (setup_s, s) = setup_then_repeat(
            args.seconds,
            &mut o.checks,
            || Ok(setup(args.seed)),
            |a, b| a.model == b.model && a.system == b.system,
            |s, checks| {
                o.attempted += ops_per_rep;
                let mut spans = Spans::new();
                match rep_traced(s, &mut spans) {
                    Err(e) => checks.failures.push(e),
                    Ok((root, _, out)) => {
                        out.check(s, checks);
                        let pieces = spans.leaf_secs(root);
                        if fastest.len() == pieces.len() {
                            for (f, p) in fastest.iter_mut().zip(&pieces) {
                                *f = f.min(*p);
                            }
                        } else {
                            fastest = pieces;
                        }
                        let mut m = BTreeMap::new();
                        sim_metrics(&out, &mut m);
                        reps.push(m);
                        match &first {
                            None => first = Some(out),
                            Some(f) => checks.check(*f == out, || {
                                "repetitions of one seed disagree".to_string()
                            }),
                        }
                    }
                }
            },
        );
        o.metrics.insert("setup_s", setup_s);
        o.metrics.extend(median_metrics(&reps));
        o.metrics.insert(
            "ops_per_s",
            rate(ops_per_rep as f64, fastest.iter().sum::<f64>()),
        );
        s.expect("set-up is infallible")
    };
    o.reps = reps.len();
    if let Some(out) = &first {
        o.fingerprints = vec![
            (
                "plan",
                Some(plan_fingerprint(out.plans.last().expect("plan"))),
            ),
            ("memsim", Some(out.memsim_fingerprint())),
            ("des", None),
            ("serve", None),
        ];
        o.notes.push((
            "sim_percentiles_over",
            format!(
                "{} GPUs' memsim times of the RecShard plan",
                s.system.num_gpus()
            ),
        ));
    }
    o
}
