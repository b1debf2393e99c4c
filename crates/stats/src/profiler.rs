//! The training-data profiler (Section 4.1 of the paper).
//!
//! RecShard samples a small fraction (~1%) of the training data, hashes it
//! with each table's hash function, and estimates three per-table statistics:
//! the post-hash value frequency CDF, the average pooling factor, and the
//! coverage. [`DatasetProfiler`] implements that stage: feed it samples (or
//! let it generate them from a [`ModelSpec`]) and call
//! [`finish`](DatasetProfiler::finish).

use crate::cdf::AccessCdf;
use crate::freq::FrequencyMap;
use crate::profile::{DatasetProfile, FeatureProfile};
use rand::Rng;
use recshard_data::{FeatureHasher, ModelSpec, SampleGenerator, SparseSample};

/// Streaming profiler of multi-hot training samples.
#[derive(Debug, Clone)]
pub struct DatasetProfiler {
    model: ModelSpec,
    hashers: Vec<FeatureHasher>,
    freqs: Vec<FrequencyMap>,
    present: Vec<u64>,
    lookups: Vec<u64>,
    samples_seen: u64,
    sampling_rate: f64,
}

impl DatasetProfiler {
    /// Creates a profiler that inspects every sample it is offered.
    pub fn new(model: &ModelSpec) -> Self {
        Self::with_sampling_rate(model, 1.0)
    }

    /// Creates a profiler that inspects each offered sample with probability
    /// `sampling_rate` (the paper profiles ~1% of the training store).
    ///
    /// # Panics
    ///
    /// Panics if the rate is not within `(0, 1]`.
    pub fn with_sampling_rate(model: &ModelSpec, sampling_rate: f64) -> Self {
        assert!(
            sampling_rate > 0.0 && sampling_rate <= 1.0,
            "sampling rate must be in (0, 1]"
        );
        let hashers = model.features().iter().map(|f| f.hasher()).collect();
        let n = model.num_features();
        Self {
            model: model.clone(),
            hashers,
            freqs: vec![FrequencyMap::new(); n],
            present: vec![0; n],
            lookups: vec![0; n],
            samples_seen: 0,
            sampling_rate,
        }
    }

    /// The sampling rate this profiler applies.
    pub fn sampling_rate(&self) -> f64 {
        self.sampling_rate
    }

    /// Number of samples actually inspected so far.
    pub fn samples_seen(&self) -> u64 {
        self.samples_seen
    }

    /// Offers one sample to the profiler; it is inspected with probability
    /// `sampling_rate`.
    pub fn offer<R: Rng + ?Sized>(&mut self, sample: &SparseSample, rng: &mut R) {
        if self.sampling_rate >= 1.0 || rng.gen::<f64>() < self.sampling_rate {
            self.consume(sample);
        }
    }

    /// Unconditionally inspects one sample.
    pub fn consume(&mut self, sample: &SparseSample) {
        assert_eq!(
            sample.values.len(),
            self.model.num_features(),
            "sample feature count must match the model"
        );
        self.samples_seen += 1;
        for (f, values) in sample.values.iter().enumerate() {
            if values.is_empty() {
                continue;
            }
            self.present[f] += 1;
            self.lookups[f] += values.len() as u64;
            let hasher = &self.hashers[f];
            let freq = &mut self.freqs[f];
            for &raw in values {
                freq.record(hasher.hash(raw));
            }
        }
    }

    /// Inspects every sample in the batch.
    pub fn consume_batch(&mut self, batch: &[SparseSample]) {
        for s in batch {
            self.consume(s);
        }
    }

    /// Finalises the profile. Each table's counts are ranked by one sort and
    /// dropped before the next table's, so at most one map is expanded into
    /// ranked vectors at a time.
    pub fn finish(self) -> DatasetProfile {
        let mut profiles = Vec::with_capacity(self.model.num_features());
        for ((i, spec), freq) in self.model.features().iter().enumerate().zip(self.freqs) {
            let (ranked_rows, ranked_counts) = freq.into_ranked();
            let present = self.present[i];
            let avg_pooling = if present > 0 {
                self.lookups[i] as f64 / present as f64
            } else {
                0.0
            };
            let coverage = if self.samples_seen > 0 {
                present as f64 / self.samples_seen as f64
            } else {
                0.0
            };
            profiles.push(FeatureProfile {
                id: spec.id,
                hash_size: spec.hash_size,
                embedding_dim: spec.embedding_dim,
                bytes_per_element: spec.bytes_per_element,
                samples_seen: self.samples_seen,
                present_samples: present,
                total_lookups: self.lookups[i],
                avg_pooling,
                coverage,
                cdf: AccessCdf::from_ranked_counts(&ranked_counts),
                ranked_rows,
            });
        }
        DatasetProfile::new(profiles, self.samples_seen)
    }

    /// Convenience: generates `num_samples` synthetic samples for `model` and
    /// profiles all of them.
    pub fn profile_model(model: &ModelSpec, num_samples: usize, seed: u64) -> DatasetProfile {
        let mut profiler = DatasetProfiler::new(model);
        let mut gen = SampleGenerator::new(model, seed);
        for _ in 0..num_samples {
            profiler.consume(&gen.sample());
        }
        profiler.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use recshard_data::{FeatureId, ModelSpec};

    #[test]
    fn profiles_match_model_shape() {
        let model = ModelSpec::small(5, 2);
        let profile = DatasetProfiler::profile_model(&model, 1_000, 3);
        assert_eq!(profile.num_features(), 5);
        assert_eq!(profile.samples_profiled(), 1_000);
        for (p, f) in profile.profiles().iter().zip(model.features()) {
            assert_eq!(p.hash_size, f.hash_size);
            assert!(p.coverage >= 0.0 && p.coverage <= 1.0);
            assert!(p.accessed_rows() <= p.hash_size);
        }
    }

    #[test]
    fn measured_statistics_close_to_spec() {
        let model = ModelSpec::small(6, 9);
        let profile = DatasetProfiler::profile_model(&model, 5_000, 11);
        for (p, f) in profile.profiles().iter().zip(model.features()) {
            // Coverage estimate within a few points of the generating value.
            assert!(
                (p.coverage - f.coverage).abs() < 0.05,
                "{}: coverage {} vs spec {}",
                f.id,
                p.coverage,
                f.coverage
            );
            // Pooling estimate within ~15% of the generating mean.
            if f.coverage > 0.2 {
                let rel = (p.avg_pooling - f.avg_pooling()).abs() / f.avg_pooling();
                assert!(
                    rel < 0.2,
                    "{}: pooling {} vs spec {}",
                    f.id,
                    p.avg_pooling,
                    f.avg_pooling()
                );
            }
        }
    }

    #[test]
    fn lookups_are_conserved() {
        let model = ModelSpec::small(4, 5);
        let mut gen = SampleGenerator::new(&model, 1);
        let batch = gen.batch(500);
        let expected: u64 = batch.iter().map(|s| s.total_lookups() as u64).sum();
        let mut profiler = DatasetProfiler::new(&model);
        profiler.consume_batch(&batch);
        let profile = profiler.finish();
        assert_eq!(profile.total_lookups(), expected);
    }

    #[test]
    fn sampling_rate_reduces_inspected_samples() {
        let model = ModelSpec::small(3, 8);
        let mut gen = SampleGenerator::new(&model, 2);
        let mut profiler = DatasetProfiler::with_sampling_rate(&model, 0.1);
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        for _ in 0..5_000 {
            profiler.offer(&gen.sample(), &mut rng);
        }
        let seen = profiler.samples_seen();
        assert!(seen > 300 && seen < 800, "sampled {seen} of 5000 at 10%");
    }

    #[test]
    fn sampled_profile_approximates_full_profile() {
        // The paper's claim (§4.1): ~1% sampling suffices for placement-grade
        // statistics. Verify a 10% sample tracks the full profile closely on
        // coverage and pooling for a small model.
        let model = ModelSpec::small(5, 21);
        let full = DatasetProfiler::profile_model(&model, 8_000, 33);
        let mut gen = SampleGenerator::new(&model, 33);
        let mut sampled = DatasetProfiler::with_sampling_rate(&model, 0.1);
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for _ in 0..8_000 {
            sampled.offer(&gen.sample(), &mut rng);
        }
        let sampled = sampled.finish();
        for (a, b) in full.profiles().iter().zip(sampled.profiles()) {
            assert!((a.coverage - b.coverage).abs() < 0.07);
            if a.avg_pooling > 2.0 {
                assert!((a.avg_pooling - b.avg_pooling).abs() / a.avg_pooling < 0.25);
            }
        }
    }

    #[test]
    fn skewed_features_have_skewed_cdfs() {
        let model = ModelSpec::small(8, 13);
        let profile = DatasetProfiler::profile_model(&model, 4_000, 17);
        // Find the most skewed generating feature and check its CDF head share
        // exceeds that of the least skewed one.
        let mut idx: Vec<usize> = (0..model.num_features()).collect();
        idx.sort_by(|&a, &b| {
            model.features()[a]
                .zipf_exponent
                .partial_cmp(&model.features()[b].zipf_exponent)
                .unwrap()
        });
        let flat = &profile.profiles()[idx[0]];
        let skewed = &profile.profiles()[idx[idx.len() - 1]];
        if flat.total_lookups > 100 && skewed.total_lookups > 100 {
            assert!(skewed.cdf.top_percent_share(5.0) >= flat.cdf.top_percent_share(5.0));
        }
    }

    #[test]
    #[should_panic(expected = "sampling rate must be in (0, 1]")]
    fn invalid_sampling_rate_rejected() {
        let model = ModelSpec::small(2, 1);
        let _ = DatasetProfiler::with_sampling_rate(&model, 0.0);
    }

    #[test]
    #[should_panic(expected = "sample feature count must match the model")]
    fn mismatched_sample_rejected() {
        let model = ModelSpec::small(3, 1);
        let mut profiler = DatasetProfiler::new(&model);
        let bad = SparseSample {
            values: vec![vec![1]],
        };
        profiler.consume(&bad);
    }

    #[test]
    fn empty_profiler_finishes_cleanly() {
        let model = ModelSpec::small(3, 1);
        let profile = DatasetProfiler::new(&model).finish();
        assert_eq!(profile.samples_profiled(), 0);
        assert_eq!(profile.profile(FeatureId(0)).coverage, 0.0);
    }
}
