//! Pinned microbenchmarks of the DP interval kernel across the N-grid,
//! the kernel with and without a fault layer, plus the job-queue
//! Runner. The tracked machine-readable numbers
//! come from the `bench_kernel` binary; this criterion suite is for quick
//! interactive comparisons (`cargo bench -p rtmac-bench --bench kernel`).

use criterion::{criterion_group, criterion_main, Criterion};
use rtmac::mac::{DpConfig, DpEngine, MacTiming};
use rtmac::phy::fault::FaultModel;
use rtmac::phy::{channel::Bernoulli, PhyProfile};
use rtmac::sim::{Nanos, SeedStream};
use std::hint::black_box;

fn video_timing() -> MacTiming {
    MacTiming::new(PhyProfile::ieee80211a(), Nanos::from_millis(20), 1500)
}

fn bench_kernel_grid(c: &mut Criterion) {
    let mut group = c.benchmark_group("batched_one_interval");
    for n in [10usize, 100, 1_000, 10_000] {
        let mut engine = DpEngine::new(DpConfig::new(video_timing()).with_swap_pairs(3), n);
        let mut channel = Bernoulli::new(vec![0.7; n]).unwrap();
        let mut rng = SeedStream::new(1).rng(0);
        let arrivals = vec![3u32; n];
        let mu = vec![0.5f64; n];
        group.bench_function(&format!("n{n}"), |b| {
            b.iter(|| {
                let report = engine.step(&arrivals, &mu, &mut channel, &mut rng);
                black_box(report.outcome.deliveries.len())
            })
        });
    }
    group.finish();
}

/// The fault layer's cost on the same walk: a fault-free engine against
/// one with rare sensing errors (ε = 1e-4, no churn or bursts), both with
/// one swap pair, video timing and 3 arrivals per link.
fn bench_degraded(c: &mut Criterion) {
    let mut group = c.benchmark_group("degraded_one_interval");
    for n in [10usize, 1_000, 10_000] {
        for (name, eps) in [("fault_free", None), ("eps_1e-4", Some(1e-4))] {
            let mut engine = DpEngine::new(DpConfig::new(video_timing()), n);
            if let Some(eps) = eps {
                engine =
                    engine.with_fault_model(FaultModel::symmetric(eps, SeedStream::new(1).rng(3)));
            }
            let mut channel = Bernoulli::new(vec![0.7; n]).unwrap();
            let mut rng = SeedStream::new(1).rng(2);
            let arrivals = vec![3u32; n];
            let mu = vec![0.5f64; n];
            group.bench_function(&format!("{name}/n{n}"), |b| {
                b.iter(|| {
                    let report = engine.step(&arrivals, &mu, &mut channel, &mut rng);
                    black_box(report.outcome.deliveries.len())
                })
            });
        }
    }
    group.finish();
}

fn bench_runner_map(c: &mut Criterion) {
    let runner = rtmac::Runner::default();
    c.bench_function("runner_map_64_jobs", |b| {
        b.iter(|| {
            let items: Vec<u64> = (0..64).collect();
            let out = runner.map(items, |x| black_box(x.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
            black_box(out.len())
        })
    });
}

criterion_group!(benches, bench_kernel_grid, bench_degraded, bench_runner_map);
criterion_main!(benches);
