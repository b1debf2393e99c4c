//! Hash utilisation analysis (Section 3.4, Figures 7 and 8).
//!
//! Embedding hashing trades accuracy for bounded table size, but the birthday
//! paradox guarantees collisions and — as the hash size grows to preserve the
//! distribution's tail — leaves an increasing fraction of the table unused.
//! RecShard reclaims that unused space by relegating it to UVM. This module
//! provides the measured and analytic sweeps Figure 8 plots.

use rand::SeedableRng;
use recshard_data::hash::{expected_collision_fraction, expected_usage};
use recshard_data::{FeatureHasher, Zipf};
use serde::{Deserialize, Serialize};

/// One point of the hash-size sweep of Figure 8.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HashSweepPoint {
    /// Hash size as a multiple of the number of distinct input values.
    pub size_multiple: f64,
    /// Measured fraction of the hash space used by at least one input value.
    pub usage: f64,
    /// Measured fraction of input values that collided.
    pub collision_fraction: f64,
    /// Measured fraction of the hash space left unused (`1 - usage`).
    pub sparsity: f64,
    /// Analytic expectation of the usage at this point.
    pub expected_usage: f64,
    /// Analytic expectation of the collision fraction at this point.
    pub expected_collision_fraction: f64,
}

/// Sweeps the hash size from `min_multiple` to `max_multiple` of the distinct
/// input cardinality and reports usage/collision/sparsity at each point
/// (Figure 8). `cardinality` distinct raw values are hashed at every point.
pub fn hash_size_sweep(
    cardinality: u64,
    min_multiple: f64,
    max_multiple: f64,
    points: usize,
    seed: u64,
) -> Vec<HashSweepPoint> {
    assert!(cardinality > 0, "cardinality must be non-zero");
    assert!(points >= 2, "a sweep needs at least two points");
    assert!(
        min_multiple > 0.0 && max_multiple > min_multiple,
        "sweep bounds must be positive and increasing"
    );
    let values: Vec<u64> = (0..cardinality)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    (0..points)
        .map(|k| {
            let multiple =
                min_multiple + (max_multiple - min_multiple) * k as f64 / (points - 1) as f64;
            let hash_size = ((cardinality as f64 * multiple).round() as u64).max(1);
            let hasher = FeatureHasher::new(hash_size, seed);
            let stats = hasher.collision_stats(&values);
            HashSweepPoint {
                size_multiple: multiple,
                usage: stats.usage(),
                collision_fraction: stats.collision_fraction(),
                sparsity: stats.sparsity(),
                expected_usage: expected_usage(cardinality, hash_size),
                expected_collision_fraction: expected_collision_fraction(cardinality, hash_size),
            }
        })
        .collect()
}

/// The pre- and post-hash frequency distributions of one synthetic skewed
/// feature (Figure 7): per-value counts of the raw categorical space and
/// per-row counts of the hashed embedding space, both sorted descending.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PrePostHashDistribution {
    /// Raw value access counts, sorted descending.
    pub pre_hash_counts: Vec<u64>,
    /// Post-hash row access counts, sorted descending.
    pub post_hash_counts: Vec<u64>,
    /// The hash size used.
    pub hash_size: u64,
    /// Fraction of the hash space never accessed (training-data sparsity plus
    /// collision compression, the "26% + 22%" of Figure 7).
    pub unused_fraction: f64,
}

/// Generates the pre-/post-hash distributions of a Zipf-distributed feature
/// accessed `num_lookups` times (Figure 7).
pub fn pre_post_hash_distribution(
    cardinality: u64,
    hash_size: u64,
    zipf_exponent: f64,
    num_lookups: usize,
    seed: u64,
) -> PrePostHashDistribution {
    let zipf = Zipf::new(cardinality, zipf_exponent);
    let hasher = FeatureHasher::new(hash_size, seed);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    // BTreeMaps so the into_values() walks below are ordered; the counts are
    // sorted afterwards anyway, but the intermediate walk stays deterministic.
    let mut pre = std::collections::BTreeMap::new();
    let mut post = std::collections::BTreeMap::new();
    for _ in 0..num_lookups {
        let v = zipf.sample(&mut rng);
        *pre.entry(v).or_insert(0u64) += 1;
        *post.entry(hasher.hash(v)).or_insert(0u64) += 1;
    }
    let mut pre_hash_counts: Vec<u64> = pre.into_values().collect();
    let mut post_hash_counts: Vec<u64> = post.into_values().collect();
    pre_hash_counts.sort_unstable_by(|a, b| b.cmp(a));
    post_hash_counts.sort_unstable_by(|a, b| b.cmp(a));
    let unused_fraction = 1.0 - post_hash_counts.len() as f64 / hash_size as f64;
    PrePostHashDistribution {
        pre_hash_counts,
        post_hash_counts,
        hash_size,
        unused_fraction,
    }
}

/// Convenience used by tests and figures: draws `num_lookups` samples from a
/// Zipf distribution and reports how many distinct values were observed.
pub fn distinct_values_observed(
    cardinality: u64,
    zipf_exponent: f64,
    num_lookups: usize,
    seed: u64,
) -> u64 {
    let zipf = Zipf::new(cardinality, zipf_exponent);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut seen = std::collections::HashSet::new();
    for _ in 0..num_lookups {
        seen.insert(zipf.sample(&mut rng));
    }
    seen.len() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_shows_birthday_paradox_at_one() {
        let sweep = hash_size_sweep(50_000, 0.5, 4.0, 8, 3);
        // Find the point closest to multiple = 1.
        let at_one = sweep
            .iter()
            .min_by(|a, b| {
                (a.size_multiple - 1.0)
                    .abs()
                    .partial_cmp(&(b.size_multiple - 1.0).abs())
                    .unwrap()
            })
            .unwrap();
        assert!(
            (at_one.sparsity - 1.0 / std::f64::consts::E).abs() < 0.05,
            "sparsity at multiple 1 should be about 1/e, got {}",
            at_one.sparsity
        );
    }

    #[test]
    fn sweep_is_monotone_in_hash_size() {
        // Measured values carry sampling noise of a fraction of a percent, so
        // allow a small tolerance; the analytic curves are exactly monotone.
        let sweep = hash_size_sweep(20_000, 0.25, 10.0, 12, 5);
        for w in sweep.windows(2) {
            assert!(
                w[1].usage <= w[0].usage + 5e-3,
                "usage falls as hash size grows"
            );
            assert!(
                w[1].sparsity >= w[0].sparsity - 5e-3,
                "sparsity grows with hash size"
            );
            assert!(
                w[1].collision_fraction <= w[0].collision_fraction + 5e-3,
                "collisions fall with hash size"
            );
            assert!(w[1].expected_usage <= w[0].expected_usage + 1e-12);
            assert!(w[1].expected_collision_fraction <= w[0].expected_collision_fraction + 1e-12);
        }
    }

    #[test]
    fn measured_matches_analytic() {
        let sweep = hash_size_sweep(30_000, 0.5, 5.0, 6, 11);
        for p in &sweep {
            assert!((p.usage - p.expected_usage).abs() < 0.02);
            assert!((p.collision_fraction - p.expected_collision_fraction).abs() < 0.02);
        }
    }

    #[test]
    fn pre_post_distribution_compresses_space() {
        let d = pre_post_hash_distribution(40_000, 50_000, 1.1, 200_000, 7);
        // Post-hash distinct rows never exceed pre-hash distinct values,
        // and collisions make them strictly fewer for a sizable input.
        assert!(d.post_hash_counts.len() <= d.pre_hash_counts.len());
        assert!(d.unused_fraction > 0.0);
        // Total accesses conserved.
        let pre_total: u64 = d.pre_hash_counts.iter().sum();
        let post_total: u64 = d.post_hash_counts.iter().sum();
        assert_eq!(pre_total, post_total);
    }

    #[test]
    fn distinct_values_bounded_by_cardinality() {
        let seen = distinct_values_observed(1_000, 0.8, 50_000, 3);
        assert!(seen <= 1_000);
        assert!(
            seen > 500,
            "50k draws over 1k values should observe most of them"
        );
    }

    #[test]
    #[should_panic(expected = "sweep bounds must be positive and increasing")]
    fn invalid_sweep_bounds_rejected() {
        let _ = hash_size_sweep(100, 2.0, 1.0, 4, 1);
    }
}
