//! RNG substrate micro-benchmarks: generator throughput, bounded sampling,
//! pair sampling, and weighted samplers.

use criterion::{criterion_group, criterion_main, Criterion};
use pp_bench::fast_criterion;
use pp_rand::{FenwickSampler, Pcg32, Rng64, SplitMix64, Xoshiro256PlusPlus};
use std::hint::black_box;

fn bench_generators(c: &mut Criterion) {
    let mut group = c.benchmark_group("rng/next_u64");
    let mut xo = Xoshiro256PlusPlus::seed_from_u64(1);
    group.bench_function("xoshiro256pp", |b| b.iter(|| black_box(xo.next_u64())));
    let mut sm = SplitMix64::new(1);
    group.bench_function("splitmix64", |b| b.iter(|| black_box(sm.next_u64())));
    let mut pcg = Pcg32::new(1, 1);
    group.bench_function("pcg32", |b| b.iter(|| black_box(pcg.next_u64())));
    group.finish();
}

fn bench_sampling(c: &mut Criterion) {
    let mut group = c.benchmark_group("rng/sampling");
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(2);
    group.bench_function("below_1000", |b| b.iter(|| black_box(rng.below(1000))));
    group.bench_function("distinct_pair_n1024", |b| {
        b.iter(|| black_box(rng.distinct_pair(1024)))
    });
    group.bench_function("heads_run", |b| b.iter(|| black_box(rng.heads_run())));
    group.finish();
}

fn bench_weighted(c: &mut Criterion) {
    let mut group = c.benchmark_group("rng/weighted");
    let weights: Vec<u64> = (1..=512).collect();
    let fenwick = FenwickSampler::from_weights(&weights).expect("non-empty");
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(3);
    group.bench_function("fenwick_sample_512", |b| {
        b.iter(|| black_box(fenwick.sample(&mut rng).expect("non-zero total")))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = fast_criterion();
    targets = bench_generators, bench_sampling, bench_weighted
}
criterion_main!(benches);
