//! Verifies Lemma 3 numerically: the ELDF ordering attains the optimum of
//! the exact per-interval dynamic program, on a grid of random instances.
//! Also prints the gap of the *worst* fixed ordering, to show the ordering
//! actually matters. Usage: `optimality [--quick | --intervals N]`
//! (N = instances); only a run of the published 2000 instances writes
//! `bench_results/optimality.csv`.

use rand::Rng;
use rtmac::sim::SeedStream;
use rtmac_analysis::optimal::IntervalDp;
use rtmac_bench::table::SeriesTable;
use rtmac_bench::Args;
use rtmac_model::{LinkId, Permutation};

const PUBLISHED: usize = 2000;

fn main() {
    let args = Args::from_env("optimality", false);
    let instances = args.intervals(PUBLISHED);
    let mut rng = SeedStream::new(2018).rng(0);

    let mut worst_eldf_gap = 0.0f64;
    let mut worst_order_gap = 0.0f64;
    let mut table = SeriesTable::new(
        "Lemma 3: ELDF vs exact optimum (random instances, worst gaps so far)",
        "instance",
        vec!["eldf gap".into(), "worst-order gap".into()],
    );
    for i in 0..instances {
        let n = rng.random_range(2..=4usize);
        let weights: Vec<f64> = (0..n).map(|_| rng.random_range(0.0..5.0)).collect();
        let p: Vec<f64> = (0..n).map(|_| rng.random_range(0.1..1.0)).collect();
        let packets: Vec<u8> = (0..n).map(|_| rng.random_range(0..4)).collect();
        let slots = rng.random_range(1..10u32);
        let dp = IntervalDp::new(weights, p).expect("valid instance");
        let opt = dp.optimal_value(&packets, slots);
        let eldf = dp.eldf_value(&packets, slots);
        worst_eldf_gap = worst_eldf_gap.max(opt - eldf);
        // Exhaust all orderings to find the worst one.
        let mut worst_fixed = opt;
        for perm in Permutation::all(n) {
            let order: Vec<LinkId> = perm.service_order();
            worst_fixed = worst_fixed.min(dp.policy_value(&packets, slots, &order));
        }
        worst_order_gap = worst_order_gap.max(opt - worst_fixed);
        if (i + 1) % (instances / 10).max(1) == 0 {
            table.push_row((i + 1) as f64, vec![worst_eldf_gap, worst_order_gap]);
        }
    }
    print!("{}", table.render());
    println!("# max ELDF optimality gap over {instances} instances: {worst_eldf_gap:.3e}");
    println!("# max worst-ordering gap (how much ordering matters): {worst_order_gap:.4}");
    assert!(
        worst_eldf_gap < 1e-9,
        "Lemma 3 violated: ELDF gap {worst_eldf_gap}"
    );
    if args.publishes(PUBLISHED) {
        table
            .write_csv("bench_results", "optimality")
            .expect("write csv");
    }
}
