//! Property-based tests for the statistics stack: frequency maps, access
//! CDFs and their piece-wise linear inverses.

use proptest::prelude::*;
use recshard_stats::{AccessCdf, FrequencyMap};
use std::collections::BTreeMap;

/// One drawn operation: `(kind, row class, raw row, n)`.
type Op = (u8, u8, u64, u64);

/// Maps a drawn row class onto a row: the two extremes, a small range that
/// collides heavily and regrows the table often, or the full `u64` range.
fn row_of(class: u8, raw: u64) -> u64 {
    match class {
        0 => 0,
        1 => u64::MAX,
        2..=5 => raw % 64,
        _ => raw,
    }
}

/// Replays `ops` on a `FrequencyMap` and on a `BTreeMap` reference model:
/// kind 0 is `record`, 1 is `record_n` (`n = 0` included) and 2 merges a
/// one-row map holding `n` accesses.
fn replay(ops: &[Op]) -> (FrequencyMap, BTreeMap<u64, u64>) {
    let mut map = FrequencyMap::new();
    let mut oracle = BTreeMap::new();
    for &(kind, class, raw, n) in ops {
        let row = row_of(class, raw);
        let added = match kind {
            0 => {
                map.record(row);
                1
            }
            1 => {
                map.record_n(row, n);
                n
            }
            _ => {
                let mut other = FrequencyMap::new();
                other.record_n(row, n);
                map.merge(&other);
                n
            }
        };
        if added > 0 {
            *oracle.entry(row).or_insert(0) += added;
        }
    }
    (map, oracle)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every view of the map agrees with a `BTreeMap` reference model under
    /// random `record`/`record_n`/`merge` sequences, extreme rows included.
    #[test]
    fn frequency_map_matches_btreemap_oracle(
        ops in prop::collection::vec((0u8..3, 0u8..10, any::<u64>(), 0u64..5), 0..600),
    ) {
        let (map, oracle) = replay(&ops);
        let pairs: Vec<(u64, u64)> = oracle.iter().map(|(&r, &c)| (r, c)).collect();
        prop_assert_eq!(map.iter().collect::<Vec<_>>(), pairs.clone());
        prop_assert_eq!(map.total_accesses(), oracle.values().sum::<u64>());
        prop_assert_eq!(map.distinct_rows(), oracle.len() as u64);
        prop_assert_eq!(map.is_empty(), oracle.is_empty());
        for &(_, class, raw, _) in &ops {
            let row = row_of(class, raw);
            prop_assert_eq!(map.count(row), oracle.get(&row).copied().unwrap_or(0));
        }
        prop_assert_eq!(map.count(0), oracle.get(&0).copied().unwrap_or(0));
        prop_assert_eq!(map.count(u64::MAX), oracle.get(&u64::MAX).copied().unwrap_or(0));

        let mut ranked = pairs;
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let rows: Vec<u64> = ranked.iter().map(|&(r, _)| r).collect();
        let counts: Vec<u64> = ranked.iter().map(|&(_, c)| c).collect();
        prop_assert_eq!(map.ranked_rows(), rows.clone());
        prop_assert_eq!(map.ranked_counts(), counts.clone());
        prop_assert_eq!(map.into_ranked(), (rows, counts));
    }

    /// The same multiset recorded in two different orders compares equal.
    #[test]
    fn frequency_map_equality_ignores_insertion_order(
        ops in prop::collection::vec((0u8..3, 0u8..10, any::<u64>(), 0u64..5), 0..300),
    ) {
        let (forward, _) = replay(&ops);
        let reversed: Vec<Op> = ops.iter().rev().copied().collect();
        let (backward, _) = replay(&reversed);
        prop_assert_eq!(forward, backward);
    }

    /// Total accesses and distinct-row counts are conserved by construction.
    #[test]
    fn frequency_map_conserves_counts(rows in prop::collection::vec(0u64..500, 1..400)) {
        let map: FrequencyMap = rows.iter().copied().collect();
        prop_assert_eq!(map.total_accesses(), rows.len() as u64);
        let distinct: std::collections::HashSet<_> = rows.iter().collect();
        prop_assert_eq!(map.distinct_rows(), distinct.len() as u64);
        let summed: u64 = map.iter().map(|(_, c)| c).sum();
        prop_assert_eq!(summed, rows.len() as u64);
    }

    /// The ranked-row ordering is a permutation of the accessed rows with
    /// non-increasing counts.
    #[test]
    fn ranked_rows_are_sorted_by_count(rows in prop::collection::vec(0u64..100, 1..300)) {
        let map: FrequencyMap = rows.iter().copied().collect();
        let ranked = map.ranked_rows();
        prop_assert_eq!(ranked.len() as u64, map.distinct_rows());
        for w in ranked.windows(2) {
            prop_assert!(map.count(w[0]) >= map.count(w[1]));
        }
    }

    /// The CDF is monotone, bounded by [0, 1], and reaches exactly 1 at the
    /// number of ranked rows.
    #[test]
    fn cdf_is_monotone_and_normalised(rows in prop::collection::vec(0u64..200, 1..500)) {
        let map: FrequencyMap = rows.iter().copied().collect();
        let cdf = AccessCdf::from_frequency(&map);
        let mut prev = 0.0;
        for k in 0..=cdf.rows_ranked() {
            let f = cdf.access_fraction(k);
            prop_assert!(f >= prev - 1e-12);
            prop_assert!((0.0..=1.0 + 1e-12).contains(&f));
            prev = f;
        }
        prop_assert!((cdf.access_fraction(cdf.rows_ranked()) - 1.0).abs() < 1e-12);
    }

    /// The ICDF inverts the CDF: the rows it reports for a fraction always
    /// cover at least that fraction, and one fewer row never does.
    #[test]
    fn icdf_inverts_cdf(
        rows in prop::collection::vec(0u64..200, 1..500),
        pct in 0.0f64..1.0,
    ) {
        let map: FrequencyMap = rows.iter().copied().collect();
        let cdf = AccessCdf::from_frequency(&map);
        let needed = cdf.rows_for_access_fraction(pct);
        prop_assert!(cdf.access_fraction(needed) + 1e-12 >= pct);
        if needed > 0 {
            prop_assert!(cdf.access_fraction(needed - 1) < pct + 1e-12);
        }
    }

    /// The 100-step ICDF is monotone in the step index and tops out at the
    /// number of accessed rows.
    #[test]
    fn icdf_steps_monotone(rows in prop::collection::vec(0u64..300, 1..400)) {
        let map: FrequencyMap = rows.iter().copied().collect();
        let cdf = AccessCdf::from_frequency(&map);
        let icdf = cdf.icdf(100);
        let mut prev = 0;
        for i in 0..=100 {
            let r = icdf.rows_at_step(i);
            prop_assert!(r >= prev);
            prev = r;
        }
        prop_assert_eq!(icdf.max_rows(), cdf.rows_ranked());
    }
}

/// Edge cases of the CDF knee used by the serving cache's stat-guided
/// pinning: single-row tables, uniform CDFs with no knee, and degenerate
/// all-zero / never-accessed profiles.
mod knee_rank_edge_cases {
    use recshard_stats::{AccessCdf, FrequencyMap};

    #[test]
    fn single_row_table_knees_at_its_only_row() {
        let mut f = FrequencyMap::new();
        f.record_n(0, 1);
        let knee = AccessCdf::from_frequency(&f).knee_rank();
        assert_eq!(knee, 1, "the only accessed row is the whole head");

        // Heavier traffic on the same single row changes nothing.
        let mut f = FrequencyMap::new();
        f.record_n(0, 1_000_000);
        assert_eq!(AccessCdf::from_frequency(&f).knee_rank(), 1);
    }

    #[test]
    fn uniform_cdf_has_no_knee_and_pins_almost_nothing() {
        for rows in [2u64, 10, 1_000] {
            let mut f = FrequencyMap::new();
            for r in 0..rows {
                f.record_n(r, 7);
            }
            let cdf = AccessCdf::from_frequency(&f);
            let knee = cdf.knee_rank();
            // A perfectly uniform curve sits on the diagonal: the degenerate
            // maximum lands on the first rank, so a stat-guided cache pins
            // (at most) one row.
            assert!(
                knee <= 1,
                "uniform CDF over {rows} rows produced knee {knee}"
            );
        }
    }

    #[test]
    fn all_zero_and_empty_profiles_knee_at_zero() {
        assert_eq!(AccessCdf::empty().knee_rank(), 0);
        // A frequency map that recorded nothing behaves like empty.
        let f = FrequencyMap::new();
        assert_eq!(AccessCdf::from_frequency(&f).knee_rank(), 0);
        // Ranked counts that are all zero carry zero total accesses.
        let cdf = AccessCdf::from_ranked_counts(&[0, 0, 0]);
        assert_eq!(cdf.total_accesses(), 0);
        assert_eq!(cdf.knee_rank(), 0);
    }

    #[test]
    fn knee_is_within_ranked_rows_and_covers_the_head() {
        // A two-tier distribution: the knee must sit at the head/tail
        // boundary and cover the head's share of accesses.
        let mut f = FrequencyMap::new();
        for r in 0..10u64 {
            f.record_n(r, 100);
        }
        for r in 10..1_000u64 {
            f.record_n(r, 1);
        }
        let cdf = AccessCdf::from_frequency(&f);
        let knee = cdf.knee_rank();
        assert!(knee >= 1 && knee <= cdf.rows_ranked());
        assert_eq!(knee, 10, "knee must sit exactly at the head/tail boundary");
        assert!(cdf.access_fraction(knee) > 0.5);
    }
}
