//! Criterion benches — one per entry of `figures::FIGURES`. Each runs the
//! figure at its published seed and a 250th of its published horizon (the
//! full-length series come from the `figures` binary); together they track
//! the cost of regenerating the evaluation and catch performance
//! regressions in the engines.

use criterion::{criterion_group, criterion_main, Criterion};
use rtmac_bench::figures::{FIGURES, SEED};
use std::hint::black_box;

fn bench_figures(c: &mut Criterion) {
    for fig in &FIGURES {
        let intervals = fig.intervals / 250;
        c.bench_function(fig.name, |b| {
            b.iter(|| black_box((fig.run)(intervals, SEED)));
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_figures
}
criterion_main!(benches);
