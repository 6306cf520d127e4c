//! Verifies Proposition 2 end to end: runs the real DP engine with constant
//! coin parameters and compares the empirical distribution over priority
//! permutations against the closed-form stationary distribution
//! (Eqs. 10–12). Usage: `stationary [--quick | --intervals N]`; only a run
//! at the published 200 000 intervals writes `bench_results/stationary.csv`.

use rtmac_analysis::markov::{empirical_sigma_distribution, PriorityChain};
use rtmac_bench::table::SeriesTable;
use rtmac_bench::Args;
use rtmac_model::Permutation;

const PUBLISHED: usize = 200_000;

fn main() {
    let args = Args::from_env("stationary", false);
    let intervals = args.intervals(PUBLISHED);
    let mu = [0.3, 0.5, 0.7, 0.6];
    eprintln!(
        "sampling {} intervals of the DP engine with mu = {:?}...",
        intervals, mu
    );

    let empirical = empirical_sigma_distribution(&mu, intervals, 2018);
    let chain = PriorityChain::new(mu.to_vec(), 1.0).expect("valid chain");
    let closed = chain.stationary_closed_form();

    let mut table = SeriesTable::new(
        "Proposition 2: stationary distribution of the priority chain (N = 4)",
        "perm rank",
        vec!["empirical".into(), "closed form (Eq. 10)".into()],
    );
    for (rank, (e, c)) in empirical.iter().zip(&closed).enumerate() {
        table.push_row(rank as f64, vec![*e, *c]);
    }
    print!("{}", table.render());

    let tv: f64 = 0.5
        * empirical
            .iter()
            .zip(&closed)
            .map(|(a, b)| (a - b).abs())
            .sum::<f64>();
    println!("# total variation distance: {tv:.5}");
    println!(
        "# detailed balance violation: {:.3e}",
        chain.max_detailed_balance_violation()
    );
    println!(
        "# mixing time from worst-case start (TV < 0.01): {:?} intervals",
        chain.mixing_time(
            &Permutation::from_priorities(vec![4, 3, 2, 1]).expect("valid"),
            0.01,
            100_000
        )
    );
    if args.publishes(PUBLISHED) {
        table
            .write_csv("bench_results", "stationary")
            .expect("write csv");
    }
}
