//! What every workload shares: the metric catalogue, the repetition loop,
//! output checks, the traced profile split and small statistics helpers.

use crate::spans::Spans;
use recshard::RecShard;
use recshard_data::{ModelSpec, SampleGenerator};
use recshard_sharding::{RemapTable, ShardingPlan, SystemSpec};
use recshard_stats::{DatasetProfile, DatasetProfiler};
use std::collections::BTreeMap;
use std::time::Instant;

/// End-to-end metrics `(name, unit)`, reported by every workload from its
/// untraced run. Each has one meaning per workload; the benchmark's README
/// maps them onto the plan, DES and serve views.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ops_per_s", "1/s"),
    ("sim_p50_ms", "ms"),
    ("sim_p99_ms", "ms"),
    ("slow_frac", "ratio"),
    ("imbalance", "ratio"),
];

/// Per-layer metrics `(name, unit)`, reported by every workload from its
/// traced run. A layer a workload never calls reports 0.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("data.sample_s", "s"),
    ("data.lookups_per_s", "1/s"),
    ("stats.profile_s", "s"),
    ("stats.lookups_per_s", "1/s"),
    ("stats.lookups", "count"),
    ("core.solve_ms", "ms"),
    ("core.resolve_ms", "ms"),
    ("core.resolves", "count"),
    ("sharding.greedy_ms", "ms"),
    ("sharding.remap_ms", "ms"),
    ("memsim.eval_s", "s"),
    ("memsim.lookups_per_s", "1/s"),
    ("memsim.speedup_x", "ratio"),
    ("memsim.uvm_reduction_x", "ratio"),
    ("memsim.baseline_imbalance", "ratio"),
    ("des.run_s", "s"),
    ("des.sample_s", "s"),
    ("des.sample_lookups_per_s", "1/s"),
    ("des.loop_s", "s"),
    ("des.events", "count"),
    ("des.events_per_iter", "count"),
    ("des.link_transfers", "count"),
    ("des.link_stretch_mean", "ratio"),
    ("des.queue_wait_ms", "ms"),
    ("des.busy_max_over_mean", "ratio"),
    ("des.uvm_busy_share_max", "ratio"),
    ("des.reshards", "count"),
    ("serve.gen_s", "s"),
    ("serve.gen_lookups_per_s", "1/s"),
    ("serve.run_s", "s"),
    ("serve.fanin_s", "s"),
    ("serve.cache_lookups_per_s", "1/s"),
    ("serve.lookups", "count"),
    ("serve.hits", "count"),
    ("serve.misses", "count"),
    ("serve.bypasses", "count"),
    ("serve.evictions", "count"),
    ("serve.admit_frac", "ratio"),
    ("serve.busy_max_over_mean", "ratio"),
    ("obs.overhead_frac", "ratio"),
    ("bench.unaccounted_frac", "ratio"),
];

/// How a workload is run.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// Workload seed: every generated input derives from it.
    pub seed: u64,
    /// Measured seconds (repetitions continue until this much has passed).
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced run.
    pub trace: bool,
}

/// `setup_s` samples per untraced run; `setup_s` reports their median.
pub const SETUPS: usize = 15;

/// Shortest wall time one `setup_s` sample covers. A faster set-up is
/// repeated back to back and the sample is the mean, so that a set-up of
/// microseconds is timed warm rather than by a cold first touch.
const SETUP_SAMPLE_S: f64 = 0.005;

/// Repetitions a run makes even when `--seconds` passes sooner.
const MIN_REPS: usize = 3;

/// Output checks of one run: every failure is one failed operation.
#[derive(Debug, Default)]
pub struct Checks {
    /// One line per failed check.
    pub failures: Vec<String>,
}

impl Checks {
    /// Records a failure described by `what` unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Checks that a plan fits the system.
    pub fn plan_valid(&mut self, plan: &ShardingPlan, model: &ModelSpec, system: &SystemSpec) {
        if let Err(e) = plan.validate(model, system) {
            self.failures
                .push(format!("{} plan fails validation: {e}", plan.strategy()));
        }
    }

    /// Checks that the remap tables have the plan's per-table row counts.
    pub fn remap_matches(&mut self, remaps: &[RemapTable], plan: &ShardingPlan) {
        let ok = remaps.len() == plan.placements().len()
            && remaps
                .iter()
                .zip(plan.placements())
                .all(|(r, p)| r.total_rows() == p.total_rows && r.hbm_rows() == p.hbm_rows);
        self.check(ok, || "remap row counts differ from the plan".to_string());
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (plan solves and evaluations, DES iterations,
    /// served queries).
    pub attempted: u64,
    /// Output checks.
    pub checks: Checks,
    /// Metric values by name (end-to-end or per-layer, by run kind).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Fingerprints of the simulated output, `None` where the workload does
    /// not run that layer.
    pub fingerprints: Vec<(&'static str, Option<u64>)>,
    /// Extra facts worth recording (sample counts, named baselines).
    pub notes: Vec<(&'static str, String)>,
    /// Measured repetitions.
    pub reps: usize,
    /// The traced run's spans.
    pub spans: Option<Spans>,
}

/// Runs `rep` at least [`MIN_REPS`] times and then while another
/// repetition would end nearer to `seconds` than stopping now. `rep` is
/// given the seconds elapsed before it.
pub fn repeat_for(seconds: f64, mut rep: impl FnMut(f64)) {
    let start = Instant::now();
    let mut done = 0usize;
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let mean_rep = elapsed / done.max(1) as f64;
        if done >= MIN_REPS && elapsed + mean_rep / 2.0 >= seconds {
            return;
        }
        rep(elapsed);
        done += 1;
    }
}

/// Times `setup` once, then runs `rep` on its result as [`repeat_for`]
/// does, with the other [`SETUPS`]` - 1` set-up samples spread evenly over
/// the measured seconds (any left over run after the last repetition).
/// Returns the median set-up wall seconds and the first set-up. Spread out, the
/// set-ups cannot all land in one burst of load from other tenants of a
/// shared host. Every set-up of one seed must produce the same inputs:
/// `same` compares each with the first, and a mismatch or an error is a
/// failed check.
pub fn setup_then_repeat<S>(
    seconds: f64,
    checks: &mut Checks,
    mut setup: impl FnMut() -> Result<S, String>,
    same: impl Fn(&S, &S) -> bool,
    mut rep: impl FnMut(&S, &mut Checks),
) -> (f64, Option<S>) {
    let mut secs = Vec::with_capacity(SETUPS);
    let mut timed_setup = || {
        let start = Instant::now();
        let mut n = 0u32;
        loop {
            let result = setup();
            n += 1;
            let secs = start.elapsed().as_secs_f64();
            if secs >= SETUP_SAMPLE_S || result.is_err() {
                return (secs / f64::from(n), result);
            }
        }
    };
    let (first_s, first) = timed_setup();
    secs.push(first_s);
    let first = match first {
        Ok(s) => s,
        Err(e) => {
            checks.failures.push(e);
            return (first_s, None);
        }
    };
    let mut again = |checks: &mut Checks, secs: &mut Vec<f64>| {
        let (s, result) = timed_setup();
        secs.push(s);
        match result {
            Ok(other) => checks.check(same(&first, &other), || {
                "set-ups of one seed produced different inputs".to_string()
            }),
            Err(e) => checks.failures.push(e),
        }
    };
    repeat_for(seconds, |elapsed| {
        while secs.len() < SETUPS && elapsed >= seconds * secs.len() as f64 / SETUPS as f64 {
            again(checks, &mut secs);
        }
        rep(&first, checks);
    });
    while secs.len() < SETUPS {
        again(checks, &mut secs);
    }
    (median(&secs), Some(first))
}

/// The profile, plan and remap tables a DES or serve workload replays.
pub struct Planned {
    /// The profile the plan was solved from.
    pub profile: DatasetProfile,
    /// The replayed plan.
    pub plan: ShardingPlan,
    remaps: Vec<RemapTable>,
}

impl Planned {
    /// Profiles `samples` samples of `model` at `seed`, solves with `solve`
    /// and builds the remap tables.
    pub fn new(
        model: &ModelSpec,
        samples: usize,
        seed: u64,
        solve: impl FnOnce(&DatasetProfile) -> Result<ShardingPlan, String>,
    ) -> Result<Self, String> {
        let profile = DatasetProfiler::profile_model(model, samples, seed);
        let plan = solve(&profile)?;
        let remaps = RecShard::default().remap(&plan, &profile);
        Ok(Self {
            profile,
            plan,
            remaps,
        })
    }

    /// [`new`](Self::new) under a `setup` span, split into layer calls;
    /// returns the `data.*`, `stats.*`, `core.solve_ms` and
    /// `sharding.remap_ms` metrics alongside.
    pub fn traced(
        spans: &mut Spans,
        model: &ModelSpec,
        samples: usize,
        seed: u64,
        solve: impl FnOnce(&DatasetProfile) -> Result<ShardingPlan, String>,
    ) -> Result<(Self, BTreeMap<&'static str, f64>), String> {
        let (root, out) = spans.span("setup", |spans| {
            let (profile, lookups) = traced_profile(spans, model, samples, seed);
            let plan = spans.time("core.solve", || solve(&profile))?;
            let remaps = spans.time("sharding.remap", || {
                RecShard::default().remap(&plan, &profile)
            });
            let planned = Self {
                profile,
                plan,
                remaps,
            };
            Ok::<_, String>((planned, lookups))
        });
        let (planned, lookups) = out?;
        let mut m = BTreeMap::new();
        profile_metrics(spans, root, lookups, &mut m);
        m.insert("core.solve_ms", spans.total_secs(root, "core.solve") * 1e3);
        m.insert(
            "sharding.remap_ms",
            spans.total_secs(root, "sharding.remap") * 1e3,
        );
        Ok((planned, m))
    }

    /// Checks the plan against the system and the remap tables against
    /// the plan.
    pub fn check(&self, model: &ModelSpec, system: &SystemSpec, checks: &mut Checks) {
        checks.plan_valid(&self.plan, model, system);
        checks.remap_matches(&self.remaps, &self.plan);
    }
}

/// A workload that replays a fixed plan through one simulator run per
/// repetition: the DES and serve workloads.
pub trait Replay {
    /// What one simulated run reports.
    type Report: PartialEq;

    /// Operations one run attempts.
    fn ops(&self) -> u64;

    /// One untraced run: the timed work of the end-to-end run.
    fn run_once(&self) -> Self::Report;

    /// The end-to-end metrics and output checks of one untraced run that
    /// took `run_s` seconds.
    fn e2e(
        &self,
        report: &Self::Report,
        run_s: f64,
        m: &mut BTreeMap<&'static str, f64>,
        checks: &mut Checks,
    );

    /// One traced repetition: its per-layer metrics and untraced report.
    fn traced_rep(
        &self,
        spans: &mut Spans,
        checks: &mut Checks,
    ) -> (BTreeMap<&'static str, f64>, Self::Report);
}

/// Runs a [`Replay`] workload: untraced repetitions with [`SETUPS`]
/// untraced set-ups spread among them, or one traced set-up then traced
/// repetitions. Returns the
/// outcome, the set-up workload and its first report.
pub fn run_replay<W: Replay>(
    args: &RunArgs,
    setup: impl FnMut() -> Result<W, String>,
    same: impl Fn(&W, &W) -> bool,
    traced_setup: impl FnOnce(&mut Spans) -> Result<(W, BTreeMap<&'static str, f64>), String>,
) -> (Outcome, Option<W>, Option<W::Report>) {
    let mut o = Outcome::default();
    let mut reps = Vec::new();
    let mut first: Option<W::Report> = None;
    let workload = if args.trace {
        let mut spans = Spans::new();
        let workload = match traced_setup(&mut spans) {
            Err(e) => {
                o.checks.failures.push(e);
                None
            }
            Ok((w, setup_metrics)) => {
                repeat_for(args.seconds, |_| {
                    o.attempted += w.ops();
                    let (mut m, report) = w.traced_rep(&mut spans, &mut o.checks);
                    m.extend(&setup_metrics);
                    reps.push(m);
                    first.get_or_insert(report);
                });
                Some(w)
            }
        };
        o.spans = Some(spans);
        workload
    } else {
        let (setup_s, workload) =
            setup_then_repeat(args.seconds, &mut o.checks, setup, same, |w, checks| {
                o.attempted += w.ops();
                let start = Instant::now();
                let report = w.run_once();
                let run_s = start.elapsed().as_secs_f64();
                let mut m = BTreeMap::new();
                w.e2e(&report, run_s, &mut m, checks);
                reps.push(m);
                match &first {
                    None => first = Some(report),
                    Some(f) => checks.check(*f == report, || {
                        "repetitions of one seed disagree".to_string()
                    }),
                }
            });
        o.metrics.insert("setup_s", setup_s);
        workload
    };
    o.reps = reps.len();
    o.metrics.extend(if args.trace {
        median_metrics(&reps)
    } else {
        e2e_metrics(&reps)
    });
    (o, workload, first)
}

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `max / mean` of `values` (1 = perfectly balanced).
pub fn max_over_mean(values: &[f64]) -> f64 {
    let mean = values.iter().sum::<f64>() / values.len().max(1) as f64;
    let max = values.iter().copied().fold(0.0, f64::max);
    if mean > 0.0 {
        max / mean
    } else {
        0.0
    }
}

/// Per-metric medians over repetitions.
pub fn median_metrics(reps: &[BTreeMap<&'static str, f64>]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    if let Some(first) = reps.first() {
        for name in first.keys() {
            let values: Vec<f64> = reps.iter().filter_map(|r| r.get(name).copied()).collect();
            out.insert(*name, median(&values));
        }
    }
    out
}

/// The end-to-end metrics of an untraced run's repetitions: `ops_per_s`
/// is the fastest repetition's throughput, every other metric the median.
/// Every repetition of a run does the same work, and other tenants of a
/// shared host only ever slow one down, by up to half and in bursts of
/// seconds that can cover most of a run: the fastest repetition measures
/// the program, where the median measures how much of the run the bursts
/// covered.
pub fn e2e_metrics(reps: &[BTreeMap<&'static str, f64>]) -> BTreeMap<&'static str, f64> {
    let mut out = median_metrics(reps);
    let fastest = reps
        .iter()
        .filter_map(|r| r.get("ops_per_s").copied())
        .reduce(f64::max);
    if let Some(ops) = fastest {
        out.insert("ops_per_s", ops);
    }
    out
}

/// Folds one word into an FNV-1a-style hash.
pub fn fnv_fold(hash: &mut u64, word: u64) {
    *hash ^= word;
    *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
}

/// Fingerprint of a plan's placements.
pub fn plan_fingerprint(plan: &ShardingPlan) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for p in plan.placements() {
        for word in [p.gpu as u64, p.hbm_rows, p.total_rows, p.row_bytes] {
            fnv_fold(&mut hash, word);
        }
    }
    hash
}

/// Phase 1 split into its two layers: sample generation
/// (`SampleGenerator::sample`, span `data.sample`) and counting
/// (`DatasetProfiler::consume` + `finish`, span `stats.profile`), in
/// chunks so the samples never all sit in memory. Draws exactly what
/// `DatasetProfiler::profile_model(model, samples, seed)` draws. Returns the
/// profile and the lookups counted.
pub fn traced_profile(
    spans: &mut Spans,
    model: &ModelSpec,
    samples: usize,
    seed: u64,
) -> (DatasetProfile, u64) {
    const CHUNK: usize = 64;
    let mut profiler = DatasetProfiler::new(model);
    let mut gen = SampleGenerator::new(model, seed);
    let mut lookups = 0u64;
    let mut left = samples;
    while left > 0 {
        let n = left.min(CHUNK);
        left -= n;
        let batch: Vec<_> = spans.time("data.sample", || (0..n).map(|_| gen.sample()).collect());
        lookups += batch.iter().map(|s| s.total_lookups() as u64).sum::<u64>();
        spans.time("stats.profile", || profiler.consume_batch(&batch));
    }
    let profile = spans.time("stats.profile", || profiler.finish());
    (profile, lookups)
}

/// The `data.*` and `stats.*` metrics of the profile split under `root`.
pub fn profile_metrics(
    spans: &Spans,
    root: usize,
    lookups: u64,
    metrics: &mut BTreeMap<&'static str, f64>,
) {
    let sample_s = spans.total_secs(root, "data.sample");
    let profile_s = spans.total_secs(root, "stats.profile");
    metrics.insert("data.sample_s", sample_s);
    metrics.insert("data.lookups_per_s", rate(lookups as f64, sample_s));
    metrics.insert("stats.profile_s", profile_s);
    metrics.insert("stats.lookups_per_s", rate(lookups as f64, profile_s));
    metrics.insert("stats.lookups", lookups as f64);
}

/// `count / secs`, 0 for an empty interval.
pub fn rate(count: f64, secs: f64) -> f64 {
    if secs > 0.0 {
        count / secs
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_balance() {
        let reps: Vec<BTreeMap<&'static str, f64>> = [(2.0, 5.0), (3.0, 1.0), (1.0, 3.0)]
            .iter()
            .map(|&(ops, p99)| BTreeMap::from([("ops_per_s", ops), ("sim_p99_ms", p99)]))
            .collect();
        let e2e = e2e_metrics(&reps);
        assert_eq!(e2e["ops_per_s"], 3.0);
        assert_eq!(e2e["sim_p99_ms"], 3.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(max_over_mean(&[1.0, 1.0, 2.0, 0.0]), 2.0);
    }

    #[test]
    fn traced_profile_draws_what_profile_model_draws() {
        let model = ModelSpec::small(6, 3);
        let mut spans = Spans::new();
        let (profile, lookups) = traced_profile(&mut spans, &model, 500, 11);
        assert_eq!(profile, DatasetProfiler::profile_model(&model, 500, 11));
        let counted: u64 = profile.profiles().iter().map(|p| p.total_lookups).sum();
        assert_eq!(lookups, counted);
    }
}
