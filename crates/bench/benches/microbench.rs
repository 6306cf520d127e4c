//! Microbenchmarks of the building blocks: one interval of each MAC engine,
//! one arrival sample of the video model, permutation machinery, and the
//! exact Markov analyses.

use criterion::{criterion_group, criterion_main, Criterion};
use rtmac::mac::{
    CentralizedEngine, DcfConfig, DcfEngine, DpConfig, DpEngine, FcsmaEngine, MacTiming,
};
use rtmac::model::{LinkId, Permutation};
use rtmac::phy::{channel::Bernoulli, PhyProfile};
use rtmac::sim::{Nanos, SeedStream};
use rtmac::traffic::{ArrivalProcess, BurstUniform};
use rtmac_analysis::markov::PriorityChain;
use std::hint::black_box;

fn video_timing() -> MacTiming {
    MacTiming::new(PhyProfile::ieee80211a(), Nanos::from_millis(20), 1500)
}

fn bench_dp_interval(c: &mut Criterion) {
    let mut engine = DpEngine::new(DpConfig::new(video_timing()), 20);
    let mut channel = Bernoulli::new(vec![0.7; 20]).unwrap();
    let mut rng = SeedStream::new(1).rng(0);
    let arrivals = vec![3u32; 20];
    let mu = vec![0.5f64; 20];
    c.bench_function("dp_engine_one_interval_n20", |b| {
        b.iter(|| black_box(engine.run_interval(&arrivals, &mu, &mut channel, &mut rng)))
    });
}

fn bench_centralized_interval(c: &mut Criterion) {
    let mut engine = CentralizedEngine::new(video_timing());
    let mut channel = Bernoulli::new(vec![0.7; 20]).unwrap();
    let mut rng = SeedStream::new(2).rng(0);
    let arrivals = vec![3u32; 20];
    let order: Vec<LinkId> = (0..20).map(LinkId::new).collect();
    c.bench_function("centralized_one_interval_n20", |b| {
        b.iter(|| black_box(engine.run_interval(&arrivals, &order, &mut channel, &mut rng)))
    });
}

fn bench_fcsma_interval(c: &mut Criterion) {
    let mut engine = FcsmaEngine::new(video_timing());
    let mut channel = Bernoulli::new(vec![0.7; 20]).unwrap();
    let mut rng = SeedStream::new(3).rng(0);
    let arrivals = vec![3u32; 20];
    let probs = vec![1.0 / 16.0; 20];
    c.bench_function("fcsma_one_interval_n20", |b| {
        b.iter(|| black_box(engine.run_interval(&arrivals, &probs, &mut channel, &mut rng)))
    });
}

fn bench_dcf_interval(c: &mut Criterion) {
    let mut engine = DcfEngine::new(DcfConfig::default(), video_timing());
    let mut channel = Bernoulli::new(vec![0.7; 20]).unwrap();
    let mut rng = SeedStream::new(4).rng(0);
    let arrivals = vec![3u32; 20];
    c.bench_function("dcf_one_interval_n20", |b| {
        b.iter(|| black_box(engine.run_interval(&arrivals, &mut channel, &mut rng)))
    });
}

fn bench_reference_interval(c: &mut Criterion) {
    use rtmac::mac::reference::ReferenceNetwork;
    let mut net = ReferenceNetwork::new(video_timing(), 20);
    let mut channel = Bernoulli::new(vec![0.7; 20]).unwrap();
    let mut rng = SeedStream::new(5).rng(0);
    let arrivals = vec![3u32; 20];
    let xi = vec![true; 20];
    c.bench_function("reference_one_interval_n20", |b| {
        b.iter(|| black_box(net.run_interval(&arrivals, Some(7), &xi, &mut channel, &mut rng)))
    });
}

/// One `video10k`-sized sample of the video model at a rare, an even and a
/// near-certain burst coin: the burst fill costs the same at every α, while
/// a loop branching on the coin is cheap only where the coin is predictable.
fn bench_burst_arrivals(c: &mut Criterion) {
    let mut group = c.benchmark_group("burst_arrivals_n10k");
    for alpha in [0.02, 0.55, 0.98] {
        let mut arrivals = BurstUniform::symmetric(10_000, alpha, 6).unwrap();
        let mut rng = SeedStream::new(6).rng(0);
        let mut out = Vec::new();
        group.bench_function(&format!("alpha={alpha}"), |b| {
            b.iter(|| {
                arrivals.sample(&mut rng, &mut out);
                black_box(out.len())
            })
        });
    }
    group.finish();
}

fn bench_exact_feasibility(c: &mut Criterion) {
    use rtmac_analysis::feasibility::exact_single_arrival_feasibility;
    let q = vec![0.8; 10];
    let p = vec![0.7; 10];
    c.bench_function("exact_feasibility_n10_budget16", |b| {
        b.iter(|| black_box(exact_single_arrival_feasibility(&q, &p, 16)))
    });
}

fn bench_drift_eval(c: &mut Criterion) {
    use rtmac::model::influence::PaperLog;
    use rtmac_analysis::drift::db_dp_drift;
    let influence = PaperLog::default();
    c.bench_function("drift_report_n4", |b| {
        b.iter(|| {
            black_box(db_dp_drift(
                &[4.0, 3.0, 2.0, 1.0],
                &[0.6, 0.9, 0.7, 0.5],
                &influence,
                10.0,
                &[3, 2, 3, 2],
                6,
            ))
        })
    });
}

fn bench_permutation_rank(c: &mut Criterion) {
    let perm = Permutation::from_priorities((1..=12).rev().collect()).unwrap();
    c.bench_function("permutation_rank_unrank_n12", |b| {
        b.iter(|| {
            let r = black_box(&perm).rank();
            black_box(Permutation::from_rank(12, r))
        })
    });
}

fn bench_stationary_closed_form(c: &mut Criterion) {
    let chain = PriorityChain::new(vec![0.3, 0.4, 0.5, 0.6, 0.7], 1.0).unwrap();
    c.bench_function("stationary_closed_form_n5", |b| {
        b.iter(|| black_box(chain.stationary_closed_form()))
    });
}

fn bench_transition_matrix(c: &mut Criterion) {
    let chain = PriorityChain::new(vec![0.3, 0.4, 0.5, 0.6, 0.7], 1.0).unwrap();
    c.bench_function("transition_matrix_n5", |b| {
        b.iter(|| black_box(chain.transition_matrix()))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_dp_interval, bench_centralized_interval, bench_fcsma_interval,
              bench_dcf_interval, bench_reference_interval, bench_burst_arrivals,
              bench_permutation_rank, bench_stationary_closed_form, bench_transition_matrix,
              bench_exact_feasibility, bench_drift_eval
}
criterion_main!(benches);
