//! Draw-for-draw oracle for [`Zipf::sample`]'s head table.
//!
//! The oracle below is a verbatim copy of the plain rejection-inversion
//! sampler that `Zipf` ran before it gained a precomputed head table. It
//! lives here, not in the crate, so that it cannot drift with the
//! implementation: every test asserts that both return the same values and
//! leave their random-number generators at the same position.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use recshard_data::{ModelSpec, RmKind, Zipf};

/// The pre-table sampler, kept verbatim.
struct OracleZipf {
    n: u64,
    s: f64,
    h_x1: f64,
    h_n: f64,
    dense_threshold: f64,
}

impl OracleZipf {
    fn new(n: u64, s: f64) -> Self {
        assert!(n > 0, "support size must be non-zero");
        assert!(
            s >= 0.0 && s.is_finite(),
            "exponent must be finite and non-negative"
        );
        let h_x1 = Self::h_static(1.5, s) - 1.0;
        let h_n = Self::h_static(n as f64 + 0.5, s);
        let dense_threshold =
            2.0 - Self::h_inv_static(Self::h_static(2.5, s) - Self::pow_neg(2.0, s), s);
        Self {
            n,
            s,
            h_x1,
            h_n,
            dense_threshold,
        }
    }

    #[inline]
    fn pow_neg(x: f64, s: f64) -> f64 {
        (-s * x.ln()).exp()
    }

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

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        if self.s == 0.0 {
            return rng.gen_range(0..self.n);
        }
        // Rejection-inversion sampling (Hörmann & Derflinger 1996).
        loop {
            let u = self.h_n + rng.gen::<f64>() * (self.h_x1 - self.h_n);
            let x = Self::h_inv_static(u, self.s);
            let k = (x + 0.5).floor().clamp(1.0, self.n as f64);
            if k - x <= self.dense_threshold
                || u >= Self::h_static(k + 0.5, self.s) - Self::pow_neg(k, self.s)
            {
                return k as u64 - 1;
            }
        }
    }
}

/// Draws `draws` values from the sampler and the oracle with twin
/// generators seeded `seed`, asserting identical values and identical
/// generator positions afterwards.
fn assert_matches_oracle(n: u64, s: f64, seed: u64, draws: usize) {
    let zipf = Zipf::new(n, s);
    let oracle = OracleZipf::new(n, s);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut oracle_rng = StdRng::seed_from_u64(seed);
    for i in 0..draws {
        let got = zipf.sample(&mut rng);
        let want = oracle.sample(&mut oracle_rng);
        assert_eq!(got, want, "n={n} s={s:e} seed={seed}: draw {i} differs");
    }
    assert_eq!(
        rng.gen::<u64>(),
        oracle_rng.gen::<u64>(),
        "n={n} s={s:e} seed={seed}: generator positions differ after {draws} draws"
    );
}

/// The support sizes the proptest covers: the degenerate 1–3, a log-uniform
/// pick from `2..10⁶`, and `2⁴⁰`.
fn pick_support(class: usize, log_u: f64) -> u64 {
    match class {
        0 => 1,
        1 => 2,
        2 => 3,
        3 => 2 + (10f64.powf(6.0 * log_u) as u64).min(1_000_000 - 3),
        _ => 1 << 40,
    }
}

/// The exponents the proptest covers: uniform (`0`), near-uniform, the
/// logarithmic branch (`1`, `1 ± 1e-10`), just outside it (`1 ± 1e-6`),
/// the usual power laws and very steep ones.
fn pick_exponent(class: usize, u: f64) -> f64 {
    match class {
        0 => 0.0,
        1 => 0.05 * u.max(1e-9),
        2 => 1.0,
        3 => 1.0 + 1e-10,
        4 => 1.0 - 1e-10,
        5 => 1.0 + 1e-6,
        6 => 1.0 - 1e-6,
        7 => 0.5 + u,
        _ => 1.5 + 2.5 * u,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random supports, exponents and seeds: same values, same stream.
    #[test]
    fn head_table_matches_rejection_oracle(
        n_class in 0usize..5,
        n_u in 0.0f64..1.0,
        s_class in 0usize..9,
        s_u in 0.0f64..1.0,
    ) {
        let n = pick_support(n_class, n_u);
        let s = pick_exponent(s_class, s_u);
        let seed = (n_u.to_bits() ^ s_u.to_bits()).rotate_left(17);
        assert_matches_oracle(n, s, seed, 2_000);
    }
}

#[test]
fn every_rm3_fast_feature_matches_oracle() {
    // RM3 at the 1/2048 scale of the fast experiment configuration.
    let model = ModelSpec::reference(RmKind::Rm3).scaled(2048);
    for (i, f) in model.features().iter().enumerate() {
        assert_matches_oracle(f.cardinality, f.zipf_exponent, 0x5A17 + i as u64, 20_000);
    }
}

#[test]
fn every_skewed_model_feature_matches_oracle() {
    // The value distributions of the bench crate's `skewed_model(48)`:
    // cardinality 4 · 2^(10 + i mod 8), exponent 1.05 + 0.55 · i / 48.
    for i in 0..48u64 {
        let n = 4 << (10 + i % 8);
        let s = 1.05 + 0.55 * (i as f64 / 48.0);
        assert_matches_oracle(n, s, 0xBEEF ^ i, 20_000);
    }
}
