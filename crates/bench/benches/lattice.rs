//! Lattice exploration micro-benchmarks: monotone vs exhaustive cost across
//! arities (the §4 optimization's raw effect, sans model calls).

use certa_explain::lattice::{explore, mask_len, AttrMask, ExploreMode};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

/// Level oracle: flip when at least two attributes are copied — forces one
/// full level of tests before propagation kicks in.
fn two_or_more(level: &[AttrMask]) -> Vec<bool> {
    level.iter().map(|&m| black_box(mask_len(m) >= 2)).collect()
}

fn bench_lattice(c: &mut Criterion) {
    let mut group = c.benchmark_group("lattice_explore");
    for arity in [3usize, 5, 8, 10] {
        group.bench_with_input(BenchmarkId::new("monotone", arity), &arity, |b, &arity| {
            b.iter(|| {
                let e = explore(arity, ExploreMode::Monotone, false, two_or_more);
                black_box(e.stats().performed)
            })
        });
        group.bench_with_input(
            BenchmarkId::new("exhaustive", arity),
            &arity,
            |b, &arity| {
                b.iter(|| {
                    let e = explore(arity, ExploreMode::Exhaustive, false, two_or_more);
                    black_box(e.stats().performed)
                })
            },
        );
        group.bench_with_input(BenchmarkId::new("mfa", arity), &arity, |b, &arity| {
            let e = explore(arity, ExploreMode::Monotone, false, two_or_more);
            b.iter(|| black_box(e.minimal_flipping_antichain().len()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_lattice);
criterion_main!(benches);
