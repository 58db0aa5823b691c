//! E6 wall-clock companion: APX-SPLIT across k, plus the churn-shaped
//! multigraph a write-heavy stream leaves behind.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use cut_bench::rng_for;
use cut_graph::gen;
use mincut_core::kcut::{apx_split, KCutOptions};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("kcut");
    group.sample_size(10);
    // The churn floor: n=12, all 66 pairs, ~4000 parallel edges, cut
    // exactly (n <= exact_below) at the k range churn queries draw.
    let mut rng = rng_for("bench-e6-churn", 12);
    let churn = gen::multiplied(&gen::complete(12), 120, 1..=9, &mut rng);
    for &k in &[2usize, 4] {
        group.bench_with_input(BenchmarkId::new("churn", k), &churn, |b, g| {
            let opts = KCutOptions::new(k);
            b.iter(|| apx_split(g, &opts))
        });
    }
    let mut rng = rng_for("bench-e6", 0);
    let g = gen::planted_partition(6, 20, 0.5, 0.02, &mut rng);
    if !g.is_connected() {
        return;
    }
    for &k in &[2usize, 4, 6] {
        group.bench_with_input(BenchmarkId::new("apx_split", k), &g, |b, g| {
            let mut opts = KCutOptions::new(k);
            opts.mincut.repetitions = 2;
            b.iter(|| apx_split(g, &opts))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
