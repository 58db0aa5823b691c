//! E3 wall-clock companion: the three singleton-cut engines, plus the
//! churn-shaped multigraph a write-heavy stream leaves behind.

use ampc_model::{AmpcConfig, Executor};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use cut_bench::rng_for;
use cut_graph::gen;
use mincut_core::contraction::contraction_oracle;
use mincut_core::model::ampc_smallest_singleton_cut;
use mincut_core::priorities::{exponential_priorities, pair_priorities};
use mincut_core::singleton::{smallest_singleton_cut, SingletonEngine};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("singleton_cut");
    group.sample_size(10);
    for &n in &[256usize, 1024] {
        let mut rng = rng_for("bench-e3", n as u64);
        let g = gen::connected_gnm(n, 3 * n, 1..=10, &mut rng);
        let prio = exponential_priorities(&g, &mut rng);
        group.bench_with_input(BenchmarkId::new("oracle", n), &(&g, &prio), |b, (g, p)| {
            b.iter(|| contraction_oracle(g, p))
        });
        group.bench_with_input(BenchmarkId::new("reference", n), &(&g, &prio), |b, (g, p)| {
            b.iter(|| smallest_singleton_cut(g, p))
        });
        group.bench_with_input(BenchmarkId::new("in_model", n), &(&g, &prio), |b, (g, p)| {
            b.iter(|| {
                let mut exec = Executor::new(AmpcConfig::new(g.n(), 0.5));
                ampc_smallest_singleton_cut(&mut exec, g, p)
            })
        });
    }
    // The churn floor: n=12, all 66 pairs, ~4000 parallel edges. One
    // `churn_query` iteration is what a served singleton-cut query
    // computes: pair priorities, one engine on the collapsed graph, the
    // smallest cut and its bag. `churn_query_reference` is the same answer
    // from per-edge priorities on the multigraph.
    let mut rng = rng_for("bench-e3-churn", 12);
    let g = gen::multiplied(&gen::complete(12), 120, 1..=9, &mut rng);
    group.bench_with_input(BenchmarkId::new("churn_query", g.m()), &g, |b, g| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            let (pairs, prio) = pair_priorities(g, &mut rng_for("churn-query", seed));
            let engine = SingletonEngine::new(&pairs, &prio);
            let cut = engine.smallest(&pairs);
            (cut.weight, engine.bag(cut.leader, cut.time).len())
        })
    });
    group.bench_with_input(BenchmarkId::new("churn_query_reference", g.m()), &g, |b, g| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            let prio = exponential_priorities(g, &mut rng_for("churn-query", seed));
            let engine = SingletonEngine::new(g, &prio);
            let cut = engine.smallest(g);
            (cut.weight, engine.bag(cut.leader, cut.time).len())
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
