//! Zipf (power-law) sampling over categorical value spaces.
//!
//! Section 3.1 of the paper observes that the vast majority of sparse features
//! have value frequency distributions that follow a power law with a
//! per-feature strength. The [`Zipf`] sampler draws categorical value ranks
//! from a Zipf distribution with configurable exponent and support size using
//! rejection-inversion sampling (Hörmann & Derflinger), which is `O(1)` per
//! sample even for supports in the hundreds of millions.
//!
//! # The head table
//!
//! Rejection-inversion maps one uniform draw `r` to `u = H(n + ½) + r·(H(x₁)
//! − H(n + ½))`, inverts `x = H⁻¹(u)` with a `powf` (or `exp`), rounds to
//! the rank `k = ⌊x + ½⌋` and accepts at once when `k − x` is within the
//! squeeze threshold; only otherwise does it evaluate the acceptance test
//! `u ≥ H(k + ½) − k^−s`. Most draws land on a few low ranks, so
//! [`Zipf::new`] precomputes, for each rank `k ≤ HEAD_RANKS`, an interval of
//! draws `[lo, hi]` for which that computation provably yields rank `k`
//! through the squeeze. Draws and interval ends are compared as 32-bit keys
//! `⌊(r − lowest end) · 2³² / (1 − lowest end)⌋`; the key is monotone in
//! `r`, so a draw whose key lies strictly between an interval's end keys
//! lies inside the interval. A guide array indexed by a key's top 8 bits
//! maps a "pure" bucket, one lying wholly inside an interval, straight to
//! its rank; a draw in any other bucket checks the few intervals the bucket
//! overlaps. A draw found inside an interval returns its rank with no
//! transcendental; every other draw runs the rejection-inversion loop
//! unchanged, on the same draw. The sampler therefore returns exactly the
//! values, and consumes exactly the random numbers, that the loop alone does.
//!
//! Each interval's ends are bracketed around two thresholds on `x`: the
//! rank boundary `k + ½` and the squeeze boundary `k − min(threshold, ½)`.
//! An end is accepted only after evaluating the loop's own `x(r)` there and
//! finding it at least 8 ulps inside the threshold; a failed end moves 16×
//! further inside and is checked again. That check is sufficient because
//! every step from `r` to the rank decision is monotone up to under one ulp:
//!
//! * rounding is monotone, so `u(r)` and the base `1 + (1 − s)·u` that
//!   `H⁻¹` raises to `1 / (1 − s)` are monotone in `r`;
//! * the exact power (or exponential) is monotone in its base, and the
//!   platform `pow`/`exp` (glibc's, like the other mainstream libms) is
//!   accurate to under 1 ulp, so the computed `x` of any draw between two
//!   checked ends lies within 2 ulps of the range their `x` values span;
//! * on that range, `x + ½` rounds to a value in `[k, k + 1)` and `k − x` is
//!   exact (Sterbenz: `x ∈ [k/2, 2k]`), so `⌊x + ½⌋ = k` and `k − x` stays
//!   within the squeeze threshold; both decisions are monotone in `x`.
//!
//! A draw outside every verified interval can therefore never be the one
//! whose rank the table would have got wrong; it simply takes the loop.

use rand::Rng;

/// Ranks `1..=HEAD_RANKS` get a verified draw interval in the head table.
const HEAD_RANKS: u64 = 48;

/// Interval ends and draws are compared as 32-bit keys spread evenly over
/// the draws from the lowest verified interval up to 1.
const KEY_RANGE: f64 = (1u64 << 32) as f64;

/// Buckets of the guide array, indexed by a key's top bits.
const GUIDE_BUCKETS: usize = 256;
const GUIDE_SHIFT: u32 = 32 - GUIDE_BUCKETS.ilog2();

/// Guide-entry flag: the whole bucket lies inside one verified interval and
/// the low bits hold its 0-based rank. Without it the low bits index the
/// first interval that can hold a draw from the bucket.
const PURE: u8 = 0x80;

/// The largest uniform draw: `rng.gen::<f64>()` returns `m · 2⁻⁵³` for
/// `m < 2⁵³`.
const MAX_DRAW: f64 = 1.0 - f64::EPSILON / 2.0;

/// How far inside a threshold, in ulps of the threshold, a verified
/// interval end's `x` must lie.
const MARGIN_ULPS: f64 = 8.0;

/// The first distance an interval end is moved from its estimated crossing
/// (`2⁻⁴⁶`); each failed check widens it 16×.
const FIRST_GUARD: f64 = 1.0 / (1u64 << 46) as f64;

/// Widenings tried before a threshold's rank is left to the loop.
const MAX_WIDENINGS: usize = 8;

/// A Zipf distribution over ranks `1..=n` with exponent `s >= 0`.
///
/// `s == 0` degenerates to the uniform distribution over `1..=n`; larger `s`
/// concentrates mass on the low ranks. Sampled ranks are returned 0-based
/// (`0..n`) for convenient use as categorical value identifiers.
///
/// Equality compares `(n, s)`: everything else is derived from them.
///
/// ```
/// use recshard_data::Zipf;
/// use rand::SeedableRng;
///
/// let zipf = Zipf::new(1_000_000, 1.1);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let v = zipf.sample(&mut rng);
/// assert!(v < 1_000_000);
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    s: f64,
    // Precomputed constants for rejection-inversion sampling.
    h_x1: f64,
    h_n: f64,
    dense_threshold: f64,
    // Verified draw intervals of the low ranks (none for `s == 0`).
    head: Option<HeadTable>,
}

impl PartialEq for Zipf {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.s == other.s
    }
}

impl Zipf {
    /// Creates a Zipf distribution over `n` categories with exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `s < 0` or `s` is not finite.
    pub fn new(n: u64, s: f64) -> Self {
        assert!(n > 0, "support size must be non-zero");
        assert!(
            s >= 0.0 && s.is_finite(),
            "exponent must be finite and non-negative"
        );
        let h_x1 = Self::h_static(1.5, s) - 1.0;
        let h_n = Self::h_static(n as f64 + 0.5, s);
        let dense_threshold =
            2.0 - Self::h_inv_static(Self::h_static(2.5, s) - Self::pow_neg(2.0, s), s);
        let mut zipf = Self {
            n,
            s,
            h_x1,
            h_n,
            dense_threshold,
            head: None,
        };
        if s > 0.0 {
            zipf.head = HeadTable::build(&zipf);
        }
        zipf
    }

    /// The number of categories in the support.
    pub fn support(&self) -> u64 {
        self.n
    }

    /// The Zipf exponent.
    pub fn exponent(&self) -> f64 {
        self.s
    }

    #[inline]
    fn pow_neg(x: f64, s: f64) -> f64 {
        (-s * x.ln()).exp()
    }

    /// H(x) = ((x)^(1-s) - 1) / (1 - s), with the s->1 limit ln(x).
    #[inline]
    fn h_static(x: f64, s: f64) -> f64 {
        if (s - 1.0).abs() < 1e-9 {
            x.ln()
        } else {
            (x.powf(1.0 - s) - 1.0) / (1.0 - s)
        }
    }

    #[inline]
    fn h_inv_static(x: f64, s: f64) -> f64 {
        if (s - 1.0).abs() < 1e-9 {
            x.exp()
        } else {
            (1.0 + (1.0 - s) * x).powf(1.0 / (1.0 - s))
        }
    }

    /// The `x` the rejection-inversion loop computes for the uniform draw
    /// `draw`, with the loop's exact arithmetic.
    fn x_of_draw(&self, draw: f64) -> f64 {
        Self::h_inv_static(self.h_n + draw * (self.h_x1 - self.h_n), self.s)
    }

    /// Draws one 0-based categorical value, with rank 0 being the most likely.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        if self.s == 0.0 {
            return rng.gen_range(0..self.n);
        }
        let draw = rng.gen::<f64>();
        match self.head.as_ref().and_then(|head| head.lookup(draw)) {
            Some(value) => value,
            None => self.sample_rejection(draw, rng),
        }
    }

    /// Rejection-inversion sampling (Hörmann & Derflinger 1996), starting
    /// from an already drawn uniform `draw`.
    // Not `#[cold]`: most draws of flat or huge-support features land here,
    // and an out-of-line call measured slower on them.
    #[inline]
    fn sample_rejection<R: Rng + ?Sized>(&self, mut draw: f64, rng: &mut R) -> u64 {
        loop {
            let u = self.h_n + draw * (self.h_x1 - self.h_n);
            let x = Self::h_inv_static(u, self.s);
            let k = (x + 0.5).floor().clamp(1.0, self.n as f64);
            if k - x <= self.dense_threshold
                || u >= Self::h_static(k + 0.5, self.s) - Self::pow_neg(k, self.s)
            {
                return k as u64 - 1;
            }
            draw = rng.gen::<f64>();
        }
    }

    /// Draws `count` 0-based categorical values.
    pub fn sample_many<R: Rng + ?Sized>(&self, rng: &mut R, count: usize) -> Vec<u64> {
        (0..count).map(|_| self.sample(rng)).collect()
    }

    /// Exact probability mass of the 0-based rank `k`. Recomputes the
    /// harmonic normalizer on every call, an `O(n)` sum: use it on small
    /// supports or for a handful of ranks.
    pub fn pmf(&self, k: u64) -> f64 {
        assert!(k < self.n, "rank out of support");
        let z: f64 = (1..=self.n).map(|i| 1.0 / (i as f64).powf(self.s)).sum();
        (1.0 / ((k + 1) as f64).powf(self.s)) / z
    }
}

/// Draws `[lo, hi]` that all yield one rank through the squeeze.
#[derive(Debug, Clone, Copy)]
struct Interval {
    lo: f64,
    hi: f64,
}

/// The verified draw intervals of a [`Zipf`]'s low ranks, as 32-bit keys,
/// and a guide array over the keys (see the module docs).
#[derive(Debug, Clone)]
struct HeadTable {
    /// `keys[j]` holds the keys of the interval of the 0-based rank
    /// `top - j`; ascending, since the draw falls as the rank rises. A
    /// draw whose key lies strictly between them is inside the interval.
    keys: Box<[(u32, u32)]>,
    top: u64,
    /// Draws below `floor` lie below every interval.
    floor: f64,
    /// Keys per unit of draw above `floor`.
    scale: f64,
    /// Indexed by a key's top bits.
    guide: Box<[u8; GUIDE_BUCKETS]>,
}

impl HeadTable {
    /// Builds the table, or `None` when no rank could be verified.
    fn build(zipf: &Zipf) -> Option<Self> {
        let ranks = zipf.n.min(HEAD_RANKS);
        let intervals: Vec<Option<Interval>> = (1..=ranks)
            .rev()
            .map(|k| Self::verified_interval(zipf, k))
            .collect();
        let floor = intervals.iter().flatten().next()?.lo;
        let mut table = Self {
            keys: Box::default(),
            top: ranks - 1,
            floor,
            scale: KEY_RANGE / (1.0 - floor),
            guide: Box::new([0; GUIDE_BUCKETS]),
        };
        // An unverified rank gets keys no draw lies strictly between, with
        // `hi` kept at the previous interval's so the keys stay ascending.
        let mut below = 0;
        table.keys = intervals
            .iter()
            .map(|iv| {
                let keys = iv.map_or((u32::MAX, below), |iv| (table.key(iv.lo), table.key(iv.hi)));
                below = keys.1;
                keys
            })
            .collect();
        // A bucket is pure when each of its keys lies strictly between one
        // interval's keys; otherwise it points at the first interval whose
        // `hi` key exceeds its smallest key.
        let mut j = 0;
        for (bucket, entry) in table.guide.iter_mut().enumerate() {
            let first = (bucket as u64) << GUIDE_SHIFT;
            let end = first + (1 << GUIDE_SHIFT);
            while table
                .keys
                .get(j)
                .is_some_and(|&(_, hi)| u64::from(hi) <= first)
            {
                j += 1;
            }
            *entry = match table.keys.get(j) {
                Some(&(lo, hi)) if u64::from(lo) < first && end <= u64::from(hi) => {
                    PURE | u8::try_from(table.top - j as u64).ok()?
                }
                _ => u8::try_from(j).ok()?,
            };
        }
        Some(table)
    }

    /// The key of a draw at or above `floor`.
    #[inline]
    fn key(&self, draw: f64) -> u32 {
        // A saturating cast of a non-negative product: monotone in the draw.
        ((draw - self.floor) * self.scale) as u32
    }

    /// The draws that provably yield rank `k` through the squeeze, or
    /// `None` if either end fails verification.
    fn verified_interval(zipf: &Zipf, k: u64) -> Option<Interval> {
        let rank = k as f64;
        // Above k + ½ the rank rounds to k + 1, unless k is the last rank,
        // where every larger x clamps back to n.
        let lo = if k == zipf.n {
            0.0
        } else {
            Self::verified_end(zipf, rank + 0.5, true)?
        };
        let hi = Self::verified_end(zipf, rank - zipf.dense_threshold.min(0.5), false)?;
        (lo <= hi).then_some(Interval { lo, hi })
    }

    /// A draw whose loop-computed `x` lies at least `MARGIN_ULPS` ulps
    /// below (`below`) or above the threshold `t`, near where `x` crosses
    /// `t`; `None` if none is found within `MAX_WIDENINGS` widenings.
    fn verified_end(zipf: &Zipf, t: f64, below: bool) -> Option<f64> {
        // x falls as the draw rises, so the draws with x below t lie above
        // the crossing.
        let crossing = (Zipf::h_static(t, zipf.s) - zipf.h_n) / (zipf.h_x1 - zipf.h_n);
        let margin = MARGIN_ULPS * (f64::from_bits(t.to_bits() + 1) - t);
        let mut guard = FIRST_GUARD;
        for _ in 0..MAX_WIDENINGS {
            let draw = if below {
                crossing + guard
            } else {
                crossing - guard
            }
            .clamp(0.0, MAX_DRAW);
            let x = zipf.x_of_draw(draw);
            if (below && x <= t - margin) || (!below && x >= t + margin) {
                return Some(draw);
            }
            guard *= 16.0;
        }
        None
    }

    /// The 0-based rank of `draw` if it lies in a verified interval.
    #[inline]
    fn lookup(&self, draw: f64) -> Option<u64> {
        if draw < self.floor {
            return None;
        }
        let key = self.key(draw);
        let entry = self.guide[(key >> GUIDE_SHIFT) as usize];
        if entry & PURE != 0 {
            return Some(u64::from(entry & !PURE));
        }
        let mut j = usize::from(entry);
        while let Some(&(lo, hi)) = self.keys.get(j) {
            if key < hi {
                return (key > lo).then(|| self.top - j as u64);
            }
            j += 1;
        }
        None
    }

    /// Heap bytes held by the table.
    #[cfg(test)]
    fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.keys) + self.guide.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn seeded() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(0xC0FFEE)
    }

    #[test]
    fn samples_within_support() {
        let zipf = Zipf::new(1000, 1.2);
        let mut rng = seeded();
        for _ in 0..10_000 {
            assert!(zipf.sample(&mut rng) < 1000);
        }
    }

    #[test]
    fn uniform_when_exponent_zero() {
        let zipf = Zipf::new(100, 0.0);
        let mut rng = seeded();
        let mut counts = vec![0u64; 100];
        for _ in 0..100_000 {
            counts[zipf.sample(&mut rng) as usize] += 1;
        }
        let max = *counts.iter().max().unwrap() as f64;
        let min = *counts.iter().min().unwrap() as f64;
        assert!(
            max / min < 1.5,
            "uniform sampling should be flat, got {min}..{max}"
        );
    }

    #[test]
    fn skew_concentrates_head() {
        let zipf = Zipf::new(1_000_000, 1.1);
        let mut rng = seeded();
        let samples = zipf.sample_many(&mut rng, 50_000);
        let head = samples.iter().filter(|&&v| v < 100).count() as f64 / samples.len() as f64;
        // With s=1.1 and n=1e6 the top-100 ranks carry well over a third of the mass.
        assert!(head > 0.3, "head mass too small: {head}");
    }

    #[test]
    fn higher_exponent_is_more_skewed() {
        let mut rng = seeded();
        let weak = Zipf::new(100_000, 0.6);
        let strong = Zipf::new(100_000, 1.4);
        let head_mass = |z: &Zipf, rng: &mut rand::rngs::StdRng| {
            let s = z.sample_many(rng, 20_000);
            s.iter().filter(|&&v| v < 10).count() as f64 / s.len() as f64
        };
        let weak_head = head_mass(&weak, &mut rng);
        let strong_head = head_mass(&strong, &mut rng);
        assert!(strong_head > weak_head);
    }

    #[test]
    fn pmf_sums_to_one_small_support() {
        let zipf = Zipf::new(50, 0.9);
        let total: f64 = (0..50).map(|k| zipf.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empirical_matches_pmf_for_head() {
        let zipf = Zipf::new(1_000, 1.0);
        let mut rng = seeded();
        let n = 200_000;
        let samples = zipf.sample_many(&mut rng, n);
        for k in 0..5u64 {
            let expected = zipf.pmf(k);
            let got = samples.iter().filter(|&&v| v == k).count() as f64 / n as f64;
            assert!(
                (got - expected).abs() < 0.01 + expected * 0.15,
                "rank {k}: expected {expected}, got {got}"
            );
        }
    }

    #[test]
    fn head_table_resolves_a_steep_head_without_the_loop() {
        let zipf = Zipf::new(50, 1.2);
        let head = zipf.head.as_ref().expect("s > 0 builds a head table");
        let mut rng = seeded();
        let draws = 100_000;
        let resolved = (0..draws)
            .filter(|_| head.lookup(rng.gen::<f64>()).is_some())
            .count();
        assert!(
            resolved as f64 > 0.9 * draws as f64,
            "only {resolved} of {draws} draws resolved by the table"
        );
    }

    #[test]
    fn interval_ends_take_the_squeeze_to_their_rank() {
        // Random draws almost never land within a few ulps of an interval
        // end, so probe the ends directly: the loop must accept there on
        // the first draw and agree with the table.
        for (n, s) in [
            (3, 0.03),
            (50, 1.2),
            (4_096, 1.05),
            (1 << 40, 1.0 + 1e-6),
            (10, 4.0),
        ] {
            let zipf = Zipf::new(n, s);
            let head = zipf.head.as_ref().expect("s > 0 builds a head table");
            for k in 1..=n.min(HEAD_RANKS) {
                let Some(iv) = HeadTable::verified_interval(&zipf, k) else {
                    continue;
                };
                let ends = [
                    iv.lo,
                    iv.hi,
                    f64::from_bits(iv.lo.to_bits() + 1).min(iv.hi),
                    f64::from_bits(iv.hi.to_bits() - 1).max(iv.lo),
                ];
                for draw in ends {
                    let mut rng = seeded();
                    assert_eq!(zipf.sample_rejection(draw, &mut rng), k - 1, "n={n} s={s}");
                    assert_eq!(rng, seeded(), "n={n} s={s}: the loop drew again");
                    // Keys compare strictly, so the table may leave an end
                    // to the loop, but never return another rank.
                    assert!(head.lookup(draw).is_none_or(|r| r == k - 1), "n={n} s={s}");
                }
                if head.key(iv.hi) - head.key(iv.lo) > 1 {
                    let mid = iv.lo + (iv.hi - iv.lo) / 2.0;
                    assert_eq!(head.lookup(mid), Some(k - 1), "n={n} s={s}");
                }
            }
        }
    }

    #[test]
    fn head_tables_for_rm3_fast_fit_in_one_mib() {
        let model = crate::ModelSpec::reference(crate::RmKind::Rm3).scaled(2048);
        let bytes: usize = model
            .features()
            .iter()
            .filter_map(|f| f.value_distribution().head)
            .map(|head| head.heap_bytes())
            .sum();
        assert!(bytes <= 1 << 20, "head tables take {bytes} bytes");
    }

    #[test]
    fn uniform_has_no_head_table_and_equality_ignores_it() {
        assert!(Zipf::new(100, 0.0).head.is_none());
        let zipf = Zipf::new(1_000, 1.1);
        assert_eq!(zipf, zipf.clone());
        assert_ne!(zipf, Zipf::new(1_000, 1.2));
        assert_ne!(zipf, Zipf::new(999, 1.1));
    }

    #[test]
    #[should_panic(expected = "support size must be non-zero")]
    fn zero_support_panics() {
        let _ = Zipf::new(0, 1.0);
    }

    #[test]
    fn exponent_one_exact_limit_handling() {
        // s = 1.0 exercises the logarithmic branch of H.
        let zipf = Zipf::new(10_000, 1.0);
        let mut rng = seeded();
        for _ in 0..5000 {
            assert!(zipf.sample(&mut rng) < 10_000);
        }
    }
}
