//! `serve_shift`: 2 shards serve the skewed 48-table model with each
//! shard's HBM cache at 1/24 of its fair share of the embedding bytes
//! (`serve_qps` sizing), the StatGuided policy on the RecShard plan, a
//! fixed-rate open loop, and a hot-key shift of half the tables mid-run.
//! Request generation, then the cache plus fan-in, do the work; the cache
//! sees hits on the pinned head beside evictions, with bypasses rising once
//! the profile goes stale.
//!
//! The open loop runs in virtual time: arrival instants are fixed by the
//! seed, so the generator is never late, and latency runs from each query's
//! scheduled arrival. The cache layer is measured apart from generation
//! and fan-in by replaying the generated request trace through fresh
//! caches on one thread.

use crate::harness::{
    max_over_mean, plan_fingerprint, rate, run_replay, Checks, Outcome, Planned, Replay, RunArgs,
};
use crate::spans::Spans;
use recshard::RecShard;
use recshard_bench::skewed_model;
use recshard_data::{ModelSpec, ScenarioSpec, ShiftKind};
use recshard_serve::{
    ArrivalModel, CacheConfig, CacheStats, InferenceServer, Lookup, PolicyKind, RequestStream,
    ServeConfig, ServeReport, ShardedCache, StatGuide,
};
use recshard_sharding::{ShardingPlan, SystemSpec};
use recshard_stats::DatasetProfile;
use std::cell::OnceCell;
use std::collections::BTreeMap;

const SHARDS: usize = 2;
const TABLES: usize = 48;
/// Samples profiled for the plan and the StatGuided pins.
const PROFILE_SAMPLES: usize = 12_000;
/// Seed of that profile (`serve_qps`'s). The plan and pins are part of the
/// workload's definition; `--seed` drives the request stream, so every seed
/// replays the same plan.
const PROFILE_SEED: u64 = 0x5E21;
const WARMUP: u32 = 1_000;
const QUERIES: u32 = 8_000;
const BATCH: usize = 4;
/// Fixed open-loop arrival interval, µs.
const INTERVAL_US: f64 = 300.0;

struct Setup {
    model: ModelSpec,
    system: SystemSpec,
    config: ServeConfig,
    scenario: ScenarioSpec,
}

impl Setup {
    fn new(seed: u64) -> Self {
        let model = skewed_model(TABLES);
        let total = model.total_bytes();
        let system = SystemSpec::uniform(SHARDS, total / (24 * SHARDS as u64), total, 1555.0, 16.0);
        let config = ServeConfig {
            queries: QUERIES,
            warmup: WARMUP,
            batch_size: BATCH,
            seed,
            arrival: ArrivalModel::FixedRate {
                interval_us: INTERVAL_US,
            },
            policy: PolicyKind::StatGuided,
            ..ServeConfig::default()
        };
        let span_s = f64::from(WARMUP + QUERIES) * INTERVAL_US / 1e6;
        let scenario = ScenarioSpec::new("hot-key-shift")
            .with_shift(span_s / 2.0, ShiftKind::HotKeyShift { fraction: 0.5 });
        Self {
            model,
            system,
            config,
            scenario,
        }
    }
}

struct Prepared {
    setup: Setup,
    planned: Planned,
    /// Measured lookups of the request trace, counted once on first use.
    measured: OnceCell<u64>,
}

impl Prepared {
    fn solve(setup: &Setup, profile: &DatasetProfile) -> Result<ShardingPlan, String> {
        RecShard::default()
            .plan(&setup.model, profile, &setup.system)
            .map_err(|e| format!("RecShard solve failed: {e}"))
    }

    fn new(setup: Setup) -> Result<Self, String> {
        let planned = Planned::new(&setup.model, PROFILE_SAMPLES, PROFILE_SEED, |p| {
            Self::solve(&setup, p)
        })?;
        Ok(Self {
            setup,
            planned,
            measured: OnceCell::new(),
        })
    }

    fn traced(
        setup: Setup,
        spans: &mut Spans,
    ) -> Result<(Self, BTreeMap<&'static str, f64>), String> {
        let (planned, m) =
            Planned::traced(spans, &setup.model, PROFILE_SAMPLES, PROFILE_SEED, |p| {
                Self::solve(&setup, p)
            })?;
        let prepared = Self {
            setup,
            planned,
            measured: OnceCell::new(),
        };
        Ok((prepared, m))
    }

    fn serve(&self) -> ServeReport {
        let s = &self.setup;
        InferenceServer::run_scenario(
            &s.model,
            &self.planned.plan,
            &self.planned.profile,
            &s.system,
            s.config,
            &s.scenario,
        )
    }

    /// The request trace the server generates internally.
    fn generate(&self) -> RequestStream {
        let s = &self.setup;
        RequestStream::generate_scenario(
            &s.model,
            &self.planned.plan.gpu_assignments(),
            SHARDS,
            s.config.warmup + s.config.queries,
            s.config.batch_size,
            s.config.arrival,
            s.config.seed,
            &s.scenario,
        )
        .0
    }

    /// Fresh per-shard caches built as the server builds them.
    fn caches(&self) -> Vec<ShardedCache> {
        let s = &self.setup;
        let gpu_of = self.planned.plan.gpu_assignments();
        (0..SHARDS)
            .map(|gpu| {
                let capacity = s
                    .config
                    .capacity_per_shard
                    .unwrap_or_else(|| s.system.hbm_capacity(gpu));
                ShardedCache::with_guide(
                    StatGuide::for_gpu(
                        gpu,
                        &gpu_of,
                        &self.planned.profile,
                        capacity,
                        &s.config.stat_guided,
                    ),
                    CacheConfig::new(capacity).with_stripes(s.config.stripes),
                )
            })
            .collect()
    }

    /// Replays every shard's tasks through its cache on this thread and
    /// returns the measured `(hits, misses, bypasses)`.
    fn replay(&self, stream: &RequestStream, caches: &[ShardedCache]) -> (u64, u64, u64) {
        let row_bytes: Vec<u64> = self
            .setup
            .model
            .features()
            .iter()
            .map(|f| f.row_bytes())
            .collect();
        let (mut h, mut m, mut b) = (0u64, 0u64, 0u64);
        for (tasks, cache) in stream.shard_tasks.iter().zip(caches) {
            for task in tasks {
                let measured = task.query >= self.setup.config.warmup;
                for &(table, row) in &task.lookups {
                    let outcome = cache.access(table, row, row_bytes[table as usize]);
                    if measured {
                        match outcome {
                            Lookup::Hit => h += 1,
                            Lookup::MissInserted => m += 1,
                            Lookup::MissBypassed => b += 1,
                        }
                    }
                }
            }
        }
        (h, m, b)
    }
}

/// Lookups of the measured (post-warmup) queries.
fn measured_lookups(stream: &RequestStream, warmup: u32) -> u64 {
    stream
        .shard_tasks
        .iter()
        .flatten()
        .filter(|t| t.query >= warmup)
        .map(|t| t.lookups.len() as u64)
        .sum()
}

fn lookup_check(report: &ServeReport, measured: u64, checks: &mut Checks) {
    let served = report.hits + report.misses + report.bypasses;
    checks.check(served == measured, || {
        format!("serve hits + misses + bypasses = {served}, measured lookups = {measured}")
    });
}

impl Replay for Prepared {
    type Report = ServeReport;

    fn ops(&self) -> u64 {
        u64::from(self.setup.config.warmup + self.setup.config.queries)
    }

    fn run_once(&self) -> ServeReport {
        self.serve()
    }

    fn e2e(
        &self,
        report: &ServeReport,
        run_s: f64,
        m: &mut BTreeMap<&'static str, f64>,
        checks: &mut Checks,
    ) {
        // Every repetition serves the same trace: count its measured
        // lookups once, outside the timed run.
        let measured = *self
            .measured
            .get_or_init(|| measured_lookups(&self.generate(), self.setup.config.warmup));
        lookup_check(report, measured, checks);
        m.insert("ops_per_s", rate(self.ops() as f64, run_s));
        m.insert("sim_p50_ms", report.p50_ms);
        m.insert("sim_p99_ms", report.p99_ms);
        let lookups = (report.hits + report.misses + report.bypasses).max(1);
        m.insert(
            "slow_frac",
            (report.misses + report.bypasses) as f64 / lookups as f64,
        );
        m.insert("imbalance", max_over_mean(&report.busy_fraction));
    }

    fn traced_rep(
        &self,
        spans: &mut Spans,
        checks: &mut Checks,
    ) -> (BTreeMap<&'static str, f64>, ServeReport) {
        let s = &self.setup;
        let (root, (report, traced, stream, replayed, replay_stats)) = spans.span("rep", |spans| {
            let report = spans.time("serve.run", || self.serve());
            let traced = spans.time("serve.run_traced", || {
                InferenceServer::run_scenario_traced(
                    &s.model,
                    &self.planned.plan,
                    &self.planned.profile,
                    &s.system,
                    s.config,
                    &s.scenario,
                )
                .0
            });
            let stream = spans.time("serve.gen", || self.generate());
            let caches = spans.time("serve.cache_build", || self.caches());
            let replayed = spans.time("serve.cache", || self.replay(&stream, &caches));
            let mut stats = CacheStats::default();
            for c in &caches {
                stats.merge(&c.stats());
            }
            (report, traced, stream, replayed, stats)
        });
        checks.check(traced == report, || {
            "traced serve report differs from the untraced one".to_string()
        });
        let measured = measured_lookups(&stream, s.config.warmup);
        lookup_check(&report, measured, checks);
        checks.check(
            replayed == (report.hits, report.misses, report.bypasses)
                && replay_stats.evictions == report.cache.evictions,
            || "single-threaded cache replay disagrees with the server".to_string(),
        );
        let mut m = BTreeMap::new();
        let run_s = spans.total_secs(root, "serve.run");
        let gen_s = spans.total_secs(root, "serve.gen");
        let cache_s = spans.total_secs(root, "serve.cache");
        m.insert("serve.gen_s", gen_s);
        m.insert(
            "serve.gen_lookups_per_s",
            rate(stream.total_lookups as f64, gen_s),
        );
        m.insert("serve.run_s", run_s);
        m.insert("serve.fanin_s", run_s - gen_s);
        m.insert(
            "serve.cache_lookups_per_s",
            rate(stream.total_lookups as f64, cache_s),
        );
        m.insert("serve.lookups", measured as f64);
        m.insert("serve.hits", report.hits as f64);
        m.insert("serve.misses", report.misses as f64);
        m.insert("serve.bypasses", report.bypasses as f64);
        m.insert("serve.evictions", report.cache.evictions as f64);
        m.insert(
            "serve.admit_frac",
            report.misses as f64 / (report.misses + report.bypasses).max(1) as f64,
        );
        m.insert(
            "serve.busy_max_over_mean",
            max_over_mean(&report.busy_fraction),
        );
        m.insert(
            "obs.overhead_frac",
            spans.total_secs(root, "serve.run_traced") / run_s - 1.0,
        );
        m.insert("bench.unaccounted_frac", spans.unaccounted_frac(root));
        (m, report)
    }
}

/// Runs the workload.
pub fn run(args: &RunArgs) -> Outcome {
    let (mut o, prepared, first) = run_replay(
        args,
        || Prepared::new(Setup::new(args.seed)),
        |a, b| a.planned.plan == b.planned.plan,
        |spans| Prepared::traced(Setup::new(args.seed), spans),
    );
    if let Some(p) = &prepared {
        p.planned
            .check(&p.setup.model, &p.setup.system, &mut o.checks);
        o.fingerprints = vec![
            ("plan", Some(plan_fingerprint(&p.planned.plan))),
            ("memsim", None),
            ("des", None),
            ("serve", first.as_ref().map(|r| r.fingerprint)),
        ];
        o.notes.push((
            "sim_percentiles_over",
            format!("{QUERIES} measured queries per repetition"),
        ));
        if let Some(r) = &first {
            o.notes.push(("hit_rate", format!("{}", r.hit_rate)));
        }
    }
    o
}
