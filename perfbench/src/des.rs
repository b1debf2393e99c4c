//! The two DES workloads.
//!
//! * `des_gather` is `des_bench`'s 4-GPU flat FIFO point: the skewed
//!   48-table model, the RecShard plan, traced batch 32 and fixed 2 ms
//!   open-loop arrivals. About 6 events per iteration, so per-lookup
//!   sampling is nearly all the wall time: sampling changes show here and
//!   event-loop changes do not.
//! * `des_links` is 16 GPUs × 4 nodes under a hierarchical plan with
//!   shared-rate links, traced batch 2, and a drift storm with the
//!   re-sharding controller armed. About 100 events per iteration, so the
//!   event loop, the processor-sharing links and plan installs carry about
//!   half the wall time.
//!
//! Arrivals are open-loop in virtual time: the schedule is fixed by the
//! seed, so the generator is never late and sojourn times run from each
//! iteration's scheduled arrival.

use crate::harness::{
    max_over_mean, plan_fingerprint, rate, run_replay, Checks, Outcome, Planned, Replay, RunArgs,
};
use crate::spans::Spans;
use rand::rngs::StdRng;
use rand::SeedableRng;
use recshard::{HierarchicalSolver, RecShard, RecShardConfig};
use recshard_bench::des_bench::DesBenchConfig;
use recshard_bench::scenario_bench::scenario_model;
use recshard_bench::skewed_model;
use recshard_bench::solver_bench::{bench_system, bench_topology};
use recshard_data::{ModelSpec, ScenarioSpec, ShiftKind};
use recshard_des::{
    ArrivalProcess, ClusterConfig, ClusterSimulator, ContentionMode, IterationWorkload,
    ReshardController, ReshardPolicy, RunSummary,
};
use recshard_obs::{Collector, MetricValue, MetricsSnapshot};
use recshard_sharding::{NodeTopology, ShardingPlan, SystemSpec};
use recshard_stats::DatasetProfile;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

/// Which DES workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `des_gather`.
    Gather,
    /// `des_links`.
    Links,
}

/// Seed of the profile both workloads plan from (`des_bench`'s). The plan
/// is part of the workload's definition; `--seed` drives the simulated
/// traffic, so every seed replays the same plan.
const PROFILE_SEED: u64 = 0xA5F0;
/// Iterations simulated per `des_gather` repetition.
const GATHER_ITERATIONS: u64 = 1_000;
/// Iterations simulated per `des_links` repetition.
const LINKS_ITERATIONS: u64 = 20_000;
/// `des_links` open-loop arrival interval, ms.
const LINKS_INTERVAL_MS: f64 = 0.02;

/// Re-solve count and host time of the controller's solver closure.
#[derive(Debug, Default)]
struct Resolves {
    count: Cell<u32>,
    secs: Cell<f64>,
}

/// The workload's fixed inputs.
pub struct Setup {
    shape: Shape,
    model: ModelSpec,
    system: SystemSpec,
    topology: NodeTopology,
    profile_samples: usize,
    config: ClusterConfig,
    scenario: Option<ScenarioSpec>,
    policy: Option<ReshardPolicy>,
}

impl Setup {
    /// The workload's model, system and run configuration with traffic
    /// seeded by `seed` and `iterations` simulated per run.
    pub fn new(shape: Shape, seed: u64, iterations: u64) -> Self {
        match shape {
            Shape::Gather => {
                let bench = DesBenchConfig::full();
                let model = skewed_model(bench.tables);
                let system = bench_system(model.total_bytes(), 4);
                Self {
                    shape,
                    system,
                    topology: NodeTopology::single(4),
                    profile_samples: bench.profile_samples,
                    config: ClusterConfig {
                        batch_size: bench.batch_size,
                        iterations,
                        seed,
                        arrival: ArrivalProcess::FixedRate {
                            interval_ms: bench.arrival_interval_ms,
                        },
                        kernel_overhead_us_per_table: 8.0,
                        scale_to_batch: None,
                        ..ClusterConfig::default()
                    },
                    scenario: None,
                    policy: None,
                    model,
                }
            }
            Shape::Links => {
                let model = scenario_model(48);
                let system = bench_system(model.total_bytes(), 16);
                let span_s = iterations as f64 * LINKS_INTERVAL_MS / 1e3;
                Self {
                    shape,
                    system,
                    topology: bench_topology(16),
                    profile_samples: 2_000,
                    config: ClusterConfig {
                        batch_size: 2,
                        iterations,
                        seed,
                        arrival: ArrivalProcess::FixedRate {
                            interval_ms: LINKS_INTERVAL_MS,
                        },
                        // Busy time proportional to gather work, so the
                        // storm's pooling shift reaches the controller.
                        kernel_overhead_us_per_table: 0.0,
                        scale_to_batch: None,
                        contention: ContentionMode::SharedRate,
                        ..ClusterConfig::default()
                    },
                    scenario: Some(ScenarioSpec::new("drift-storm").with_shift(
                        0.25 * span_s,
                        ShiftKind::DriftStorm {
                            user_scale: 2.5,
                            content_scale: 0.4,
                        },
                    )),
                    policy: Some(ReshardPolicy {
                        check_every_iterations: (iterations / 10).max(1),
                        imbalance_threshold: 1.95,
                        ..ReshardPolicy::default()
                    }),
                    model,
                }
            }
        }
    }

    /// The plan the workload replays.
    fn solve(&self, profile: &DatasetProfile) -> Result<ShardingPlan, String> {
        match self.shape {
            Shape::Gather => RecShard::default().plan(&self.model, profile, &self.system),
            Shape::Links => HierarchicalSolver::new(RecShardConfig::default(), self.topology)
                .solve(&self.model, profile, &self.system),
        }
        .map_err(|e| format!("plan solve failed: {e}"))
    }
}

/// A set-up workload: inputs plus the profile and plan it replays.
pub struct Prepared {
    setup: Setup,
    planned: Planned,
}

impl Prepared {
    /// Profiles and plans untraced.
    pub fn new(setup: Setup) -> Result<Self, String> {
        let planned = Planned::new(&setup.model, setup.profile_samples, PROFILE_SEED, |p| {
            setup.solve(p)
        })?;
        Ok(Self { setup, planned })
    }

    fn traced(
        setup: Setup,
        spans: &mut Spans,
    ) -> Result<(Self, BTreeMap<&'static str, f64>), String> {
        let (planned, m) = Planned::traced(
            spans,
            &setup.model,
            setup.profile_samples,
            PROFILE_SEED,
            |p| setup.solve(p),
        )?;
        Ok((Self { setup, planned }, m))
    }

    /// One simulator run, observed by `obs` when given.
    pub fn simulate(&self, obs: Option<&mut Collector>) -> RunSummary {
        self.simulate_counting(obs, &Rc::default())
    }

    fn simulate_counting(
        &self,
        obs: Option<&mut Collector>,
        resolves: &Rc<Resolves>,
    ) -> RunSummary {
        let s = &self.setup;
        let mut sim = ClusterSimulator::new(
            &s.model,
            &self.planned.plan,
            &self.planned.profile,
            &s.system,
            s.config,
        );
        if let Some(spec) = &s.scenario {
            sim = sim.with_scenario(spec.clone());
        }
        if let Some(policy) = s.policy {
            let topology = s.topology;
            let resolves = Rc::clone(resolves);
            let solver = move |m: &ModelSpec,
                               p: &DatasetProfile,
                               sys: &SystemSpec,
                               _prev: Option<&ShardingPlan>| {
                let start = Instant::now();
                let plan = HierarchicalSolver::new(RecShardConfig::default(), topology)
                    .solve(m, p, sys)
                    .ok();
                resolves.count.set(resolves.count.get() + 1);
                resolves
                    .secs
                    .set(resolves.secs.get() + start.elapsed().as_secs_f64());
                plan
            };
            sim = sim.with_controller(ReshardController::new(policy, Box::new(solver)));
        }
        match obs {
            Some(c) => sim.with_obs(c).run(),
            None => sim.run(),
        }
    }

    /// Outside replay of the simulator's workload sampling: the same
    /// `IterationWorkload::sample_iteration` calls at the same batch and
    /// count, on the installed model and plan. Returns the lookups drawn.
    fn replay_sampling(&self) -> u64 {
        let s = &self.setup;
        let workload = IterationWorkload::new(&s.model, &self.planned.plan, &self.planned.profile);
        // The simulator's workload stream salt, so the replay draws the
        // lookups a run without shifts draws; the cost does not depend on it.
        let mut rng = StdRng::seed_from_u64(s.config.seed ^ 0x3A3B_0B5C_AFE5_0000);
        let mut lookups = 0u64;
        for _ in 0..s.config.iterations {
            let counters = workload.sample_iteration(s.config.batch_size, &mut rng);
            lookups += counters.iter().map(|c| c.total_accesses()).sum::<u64>();
        }
        lookups
    }
}

fn metric<'a>(snapshot: &'a MetricsSnapshot, name: &str) -> Option<&'a MetricValue> {
    snapshot
        .entries
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v)
}

impl Prepared {
    fn summary_checks(&self, summary: &RunSummary, checks: &mut Checks) {
        let iterations = self.setup.config.iterations;
        checks.check(summary.completed == iterations, || {
            format!(
                "DES completed {} of {iterations} iterations",
                summary.completed
            )
        });
        if self.setup.policy.is_some() {
            checks.check(summary.reshards >= 1, || {
                "the drift storm triggered no re-shard".to_string()
            });
        }
    }
}

impl Replay for Prepared {
    type Report = RunSummary;

    fn ops(&self) -> u64 {
        self.setup.config.iterations
    }

    fn run_once(&self) -> RunSummary {
        self.simulate(None)
    }

    fn e2e(
        &self,
        summary: &RunSummary,
        run_s: f64,
        m: &mut BTreeMap<&'static str, f64>,
        checks: &mut Checks,
    ) {
        self.summary_checks(summary, checks);
        m.insert("ops_per_s", rate(summary.completed as f64, run_s));
        m.insert("sim_p50_ms", summary.p50_ms);
        m.insert("sim_p99_ms", summary.p99_ms);
        // UVM share of all GPU busy time.
        let busy: f64 = summary.per_gpu_busy_ms.iter().sum();
        let uvm: f64 = summary
            .per_gpu_busy_ms
            .iter()
            .zip(&summary.uvm_busy_share)
            .map(|(b, share)| b * share)
            .sum();
        m.insert("slow_frac", if busy > 0.0 { uvm / busy } else { 0.0 });
        m.insert("imbalance", max_over_mean(&summary.per_gpu_busy_ms));
    }

    fn traced_rep(
        &self,
        spans: &mut Spans,
        checks: &mut Checks,
    ) -> (BTreeMap<&'static str, f64>, RunSummary) {
        let resolves = Rc::new(Resolves::default());
        let (root, (summary, traced, bundle, lookups)) = spans.span("rep", |spans| {
            let summary = spans.time("des.run", || self.simulate_counting(None, &resolves));
            // Right after the run it is subtracted from, so that both see
            // the same load from other tenants of a shared host.
            let lookups = spans.time("des.sample", || self.replay_sampling());
            let (traced, bundle) = spans.time("des.run_traced", || {
                let mut collector = Collector::new();
                let traced = self.simulate(Some(&mut collector));
                (traced, collector.finish())
            });
            (summary, traced, bundle, lookups)
        });
        self.summary_checks(&summary, checks);
        checks.check(traced == summary, || {
            "traced DES summary differs from the untraced one".to_string()
        });
        let mut m = BTreeMap::new();
        let run_s = spans.total_secs(root, "des.run");
        let sample_s = spans.total_secs(root, "des.sample");
        m.insert("des.run_s", run_s);
        m.insert("des.sample_s", sample_s);
        m.insert("des.sample_lookups_per_s", rate(lookups as f64, sample_s));
        m.insert("des.loop_s", run_s - sample_s);
        m.insert("des.events", summary.events as f64);
        m.insert(
            "des.events_per_iter",
            summary.events as f64 / summary.completed.max(1) as f64,
        );
        let transfers = match metric(&bundle.metrics, "des.link.transfers") {
            Some(MetricValue::Counter(n)) => *n as f64,
            _ => 0.0,
        };
        let stretch = match metric(&bundle.metrics, "des.link.stretch") {
            Some(MetricValue::Quantile(q)) => q.summary.mean,
            _ => 0.0,
        };
        m.insert("des.link_transfers", transfers);
        m.insert("des.link_stretch_mean", stretch);
        m.insert("des.queue_wait_ms", summary.queue_wait.mean);
        m.insert(
            "des.busy_max_over_mean",
            max_over_mean(&summary.per_gpu_busy_ms),
        );
        m.insert(
            "des.uvm_busy_share_max",
            summary.uvm_busy_share.iter().copied().fold(0.0, f64::max),
        );
        m.insert("des.reshards", f64::from(summary.reshards));
        m.insert("core.resolve_ms", resolves.secs.get() * 1e3);
        m.insert("core.resolves", f64::from(resolves.count.get()));
        m.insert(
            "obs.overhead_frac",
            spans.total_secs(root, "des.run_traced") / run_s - 1.0,
        );
        m.insert("bench.unaccounted_frac", spans.unaccounted_frac(root));
        (m, summary)
    }
}

/// Runs the workload.
pub fn run(shape: Shape, args: &RunArgs) -> Outcome {
    let iterations = match shape {
        Shape::Gather => GATHER_ITERATIONS,
        Shape::Links => LINKS_ITERATIONS,
    };
    let setup = || Setup::new(shape, args.seed, iterations);
    let (mut o, prepared, first) = run_replay(
        args,
        || Prepared::new(setup()),
        |a, b| a.planned.plan == b.planned.plan,
        |spans| Prepared::traced(setup(), spans),
    );
    if let Some(p) = &prepared {
        p.planned
            .check(&p.setup.model, &p.setup.system, &mut o.checks);
        o.fingerprints = vec![
            ("plan", Some(plan_fingerprint(&p.planned.plan))),
            ("memsim", None),
            ("des", first.as_ref().map(|s| s.fingerprint)),
            ("serve", None),
        ];
        o.notes.push((
            "sim_percentiles_over",
            format!("{iterations} iterations per repetition"),
        ));
        if let Some(s) = &first {
            o.notes.push(("reshards", s.reshards.to_string()));
            o.notes.push(("events", s.events.to_string()));
        }
    }
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `des_gather` shape is `des_bench`'s 4-GPU flat point: at its
    /// committed length and seed it reproduces the committed event-log
    /// fingerprint of `BENCH_des.json`.
    #[test]
    fn des_gather_reproduces_the_committed_des_bench_point() {
        let bench = DesBenchConfig::full();
        assert_eq!(bench.seed, PROFILE_SEED);
        let setup = Setup::new(Shape::Gather, bench.seed, bench.iterations);
        let prepared = Prepared::new(setup).expect("plan solves");
        let summary = prepared.simulate(None);
        assert_eq!(summary.completed, 10_000);
        assert_eq!(summary.events, 60_000);
        assert_eq!(summary.fingerprint, 0xc95f_e8e9_3a7b_d8eb);
    }
}
