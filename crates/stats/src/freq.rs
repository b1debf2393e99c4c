//! Per-row access frequency accumulation.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

/// Fibonacci-hashing multiplier: 2^64 divided by the golden ratio, made odd.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// Slot count of the first allocation (a power of two).
const MIN_SLOTS: usize = 16;

/// Access counts per embedding row (post-hash), for one table.
///
/// Only rows that were actually accessed are stored; the (typically large)
/// remainder of the hash space implicitly has count zero, which is exactly
/// the under-utilisation RecShard exploits (Section 3.4).
///
/// Counts live in an open-addressing table of `(row, count)` slots. A row's
/// home slot is a multiplicative (Fibonacci) hash of it, collisions probe
/// linearly, and the table doubles before its load passes 1/2. A count of
/// zero marks an empty slot, so every `u64` row can be stored, and memory
/// grows with the distinct rows touched rather than with the hash size.
///
/// The slot layout depends on insertion order, so nothing exposes it: every
/// ordered view ([`iter`](Self::iter), [`ranked_rows`](Self::ranked_rows),
/// [`into_ranked`](Self::into_ranked)) collects and sorts, and equality
/// compares contents. Output is a function of the recorded multiset alone,
/// which keeps table fingerprints and sampled CDFs bit-deterministic.
#[derive(Clone, Default, Serialize, Deserialize)]
pub struct FrequencyMap {
    /// `(row, count)` slots; empty or a power of two long.
    slots: Vec<(u64, u64)>,
    /// `64 - log2(slots.len())`: the hash's top bits pick the home slot.
    shift: u32,
    /// Occupied slots, i.e. distinct rows.
    occupied: usize,
    total: u64,
}

/// Hottest first: count descending, then row ascending.
fn by_rank(a: &(u64, u64), b: &(u64, u64)) -> Ordering {
    b.1.cmp(&a.1).then(a.0.cmp(&b.0))
}

impl FrequencyMap {
    /// Creates an empty frequency map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one access to `row`.
    #[inline]
    pub fn record(&mut self, row: u64) {
        self.add(row, 1);
    }

    /// Records `n` accesses to `row`.
    pub fn record_n(&mut self, row: u64, n: u64) {
        if n > 0 {
            self.add(row, n);
        }
    }

    /// Records one access to each row in the slice.
    pub fn record_all(&mut self, rows: &[u64]) {
        for &r in rows {
            self.record(r);
        }
    }

    /// Total number of recorded accesses.
    pub fn total_accesses(&self) -> u64 {
        self.total
    }

    /// Number of distinct rows accessed at least once.
    pub fn distinct_rows(&self) -> u64 {
        self.occupied as u64
    }

    /// Access count of a specific row (zero when never accessed).
    pub fn count(&self, row: u64) -> u64 {
        if self.slots.is_empty() {
            return 0;
        }
        let (i, found) = self.probe(row);
        if found {
            self.slots[i].1
        } else {
            0
        }
    }

    /// Iterates over `(row, count)` pairs in ascending row order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let mut pairs = self.occupied_slots();
        pairs.sort_unstable_by_key(|&(row, _)| row);
        pairs.into_iter()
    }

    /// Merges another frequency map into this one.
    pub fn merge(&mut self, other: &FrequencyMap) {
        for &(row, count) in &other.slots {
            if count > 0 {
                self.add(row, count);
            }
        }
    }

    /// Returns rows sorted by descending access count (ties broken by row id
    /// for determinism). The hottest row comes first.
    pub fn ranked_rows(&self) -> Vec<u64> {
        let mut pairs = self.occupied_slots();
        pairs.sort_unstable_by(by_rank);
        pairs.into_iter().map(|(row, _)| row).collect()
    }

    /// Returns access counts sorted descending (aligned with
    /// [`ranked_rows`](Self::ranked_rows)).
    pub fn ranked_counts(&self) -> Vec<u64> {
        let mut counts: Vec<u64> = self.occupied_slots().into_iter().map(|(_, c)| c).collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        counts
    }

    /// Consumes the map into [`ranked_rows`](Self::ranked_rows) and
    /// [`ranked_counts`](Self::ranked_counts) from a single sort, reusing
    /// the slot storage for it.
    pub fn into_ranked(self) -> (Vec<u64>, Vec<u64>) {
        let mut pairs = self.slots;
        pairs.retain(|&(_, count)| count > 0);
        pairs.sort_unstable_by(by_rank);
        pairs.into_iter().unzip()
    }

    /// True when no accesses have been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Adds `n > 0` accesses to `row`, growing the table when a new row
    /// would push its load past 1/2.
    #[inline]
    fn add(&mut self, row: u64, n: u64) {
        self.total += n;
        if !self.slots.is_empty() {
            let (i, found) = self.probe(row);
            if found {
                self.slots[i].1 += n;
                return;
            }
            if 2 * (self.occupied + 1) <= self.slots.len() {
                self.slots[i] = (row, n);
                self.occupied += 1;
                return;
            }
        }
        self.grow();
        let (i, _) = self.probe(row);
        self.slots[i] = (row, n);
        self.occupied += 1;
    }

    /// The slot holding `row` (`true`), or the empty slot where it would go
    /// (`false`). The table must be allocated; at most half full, so the
    /// probe always ends.
    #[inline]
    fn probe(&self, row: u64) -> (usize, bool) {
        let mask = self.slots.len() - 1;
        let mut i = (row.wrapping_mul(FIB) >> self.shift) as usize;
        loop {
            let (r, c) = self.slots[i];
            if c == 0 {
                return (i, false);
            }
            if r == row {
                return (i, true);
            }
            i = (i + 1) & mask;
        }
    }

    /// Doubles the slot count (or makes the first allocation) and rehashes.
    #[cold]
    fn grow(&mut self) {
        let len = (2 * self.slots.len()).max(MIN_SLOTS);
        let old = std::mem::replace(&mut self.slots, vec![(0, 0); len]);
        self.shift = 64 - len.trailing_zeros();
        for (row, count) in old {
            if count > 0 {
                let (i, _) = self.probe(row);
                self.slots[i] = (row, count);
            }
        }
    }

    /// The occupied `(row, count)` slots, in slot order.
    fn occupied_slots(&self) -> Vec<(u64, u64)> {
        self.slots.iter().copied().filter(|&(_, c)| c > 0).collect()
    }
}

impl PartialEq for FrequencyMap {
    fn eq(&self, other: &Self) -> bool {
        self.total == other.total
            && self.occupied == other.occupied
            && self
                .slots
                .iter()
                .all(|&(row, count)| count == 0 || other.count(row) == count)
    }
}

impl fmt::Debug for FrequencyMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl FromIterator<u64> for FrequencyMap {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        let mut map = FrequencyMap::new();
        for row in iter {
            map.record(row);
        }
        map
    }
}

impl Extend<u64> for FrequencyMap {
    fn extend<I: IntoIterator<Item = u64>>(&mut self, iter: I) {
        for row in iter {
            self.record(row);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_count() {
        let mut m = FrequencyMap::new();
        m.record(3);
        m.record(3);
        m.record(7);
        assert_eq!(m.count(3), 2);
        assert_eq!(m.count(7), 1);
        assert_eq!(m.count(99), 0);
        assert_eq!(m.total_accesses(), 3);
        assert_eq!(m.distinct_rows(), 2);
    }

    #[test]
    fn ranked_rows_descending_with_deterministic_ties() {
        let mut m = FrequencyMap::new();
        m.record_n(10, 5);
        m.record_n(20, 5);
        m.record_n(30, 9);
        m.record_n(40, 1);
        assert_eq!(m.ranked_rows(), vec![30, 10, 20, 40]);
        assert_eq!(m.ranked_counts(), vec![9, 5, 5, 1]);
        assert_eq!(m.into_ranked(), (vec![30, 10, 20, 40], vec![9, 5, 5, 1]));
    }

    #[test]
    fn merge_adds_counts() {
        let mut a: FrequencyMap = [1u64, 2, 2].into_iter().collect();
        let b: FrequencyMap = [2u64, 3].into_iter().collect();
        a.merge(&b);
        assert_eq!(a.count(2), 3);
        assert_eq!(a.count(3), 1);
        assert_eq!(a.total_accesses(), 5);
    }

    #[test]
    fn extend_and_from_iterator() {
        let mut m: FrequencyMap = (0u64..10).collect();
        m.extend(0u64..5);
        assert_eq!(m.total_accesses(), 15);
        assert_eq!(m.distinct_rows(), 10);
    }

    #[test]
    fn record_n_zero_is_noop() {
        let mut m = FrequencyMap::new();
        m.record_n(1, 0);
        assert!(m.is_empty());
        assert_eq!(m.distinct_rows(), 0);
    }

    #[test]
    fn equality_and_debug_ignore_insertion_order() {
        let a: FrequencyMap = (0u64..100).chain(0..10).collect();
        let b: FrequencyMap = (0u64..10).chain((0..100).rev()).collect();
        assert_eq!(a, b);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let c: FrequencyMap = (0u64..101).collect();
        assert_ne!(a, c);
    }
}
