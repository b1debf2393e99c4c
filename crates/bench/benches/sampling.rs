//! Criterion bench for the Zipf sampling kernel that feeds the profiler,
//! memsim, the DES and serve: each `draws_*` iteration makes 1,000 draws, so
//! its time in µs reads as ns per draw.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use recshard_data::{ModelSpec, RmKind, SampleGenerator, Zipf};

const DRAWS: usize = 1_000;

/// Feature indices of RM3 at the fast configuration's 1/2048 scale, picked
/// in proportion to each table's expected lookups per sample.
fn rm3_fast_mix(model: &ModelSpec) -> Vec<usize> {
    let mut cumulative = Vec::with_capacity(model.num_features());
    let mut total = 0.0;
    for f in model.features() {
        total += f.expected_lookups_per_sample();
        cumulative.push(total);
    }
    let mut rng = StdRng::seed_from_u64(11);
    (0..DRAWS)
        .map(|_| {
            let pick = rng.gen::<f64>() * total;
            cumulative.partition_point(|&c| c <= pick)
        })
        .collect()
}

fn sampling(c: &mut Criterion) {
    let model = ModelSpec::reference(RmKind::Rm3).scaled(2048);
    let dists: Vec<Zipf> = model
        .features()
        .iter()
        .map(|f| f.value_distribution())
        .collect();
    let mix = rm3_fast_mix(&model);

    let mut group = c.benchmark_group("sampling");
    group.sample_size(20);
    group.throughput(Throughput::Elements(DRAWS as u64));
    let mut rng = StdRng::seed_from_u64(5);
    group.bench_function("draws_rm3_fast_mix", |b| {
        b.iter(|| {
            mix.iter()
                .map(|&f| dists[f].sample(&mut rng))
                .fold(0u64, u64::wrapping_add)
        });
    });
    for (label, n, s) in [
        ("draws_head_heavy_n50_s1.2", 50, 1.2),
        ("draws_tail_heavy_n1e5_s0.7", 100_000, 0.7),
    ] {
        let zipf = Zipf::new(n, s);
        group.bench_function(label, |b| {
            b.iter(|| {
                (0..DRAWS)
                    .map(|_| zipf.sample(&mut rng))
                    .fold(0u64, u64::wrapping_add)
            });
        });
    }

    let mut gen = SampleGenerator::new(&model, 3);
    group.throughput(Throughput::Elements(64));
    group.bench_function("sample_generator_64_rm3_fast", |b| {
        b.iter(|| {
            for _ in 0..64 {
                black_box(gen.sample());
            }
        });
    });
    group.finish();
}

criterion_group!(benches, sampling);
criterion_main!(benches);
