//! Robustness beyond the paper's model: the DP protocol maintains
//! priorities through transmission *attempts*, not control packets, so it
//! keeps working when losses are bursty (Gilbert–Elliott) rather than
//! i.i.d. This example runs DB-DP over a two-state burst-loss channel with
//! the same long-run success probability as the paper's static model and
//! compares the outcome.
//!
//! ```sh
//! cargo run --release --example bursty_channel
//! ```

use rtmac::phy::channel::{GilbertElliott, GilbertElliottParams};
use rtmac::scenario;
use rtmac::{Overrides, PolicySpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let intervals = 8000;
    let rho = 0.9;

    // Static channel: p = 0.7 i.i.d. (the paper's model).
    let static_report = scenario::control(10, 0.7, rho, 21)
        .with_policy(PolicySpec::db_dp())
        .with_intervals(intervals)
        .run()?;

    // Bursty channel with the same mean: good state p = 0.9, bad state
    // p = 0.1, stationary 75% good -> mean 0.7.
    let ge = GilbertElliottParams {
        p_good: 0.9,
        p_bad: 0.1,
        good_to_bad: 0.02,
        bad_to_good: 0.06,
    };
    assert!((ge.mean_success() - 0.7).abs() < 1e-12);
    // The declarative layer only describes i.i.d. channels, so the bursty
    // model is passed alongside the scenario as an override.
    let mut bursty_net = scenario::control(10, 0.7, rho, 21)
        .with_policy(PolicySpec::db_dp())
        .network_with(Overrides {
            channel: Some(Box::new(GilbertElliott::new(vec![ge; 10])?)),
            ..Overrides::default()
        })?;
    let bursty_report = bursty_net.run(intervals);

    println!("DB-DP over i.i.d. vs bursty losses (same mean p = 0.7):\n");
    println!(
        "{:>22} {:>12} {:>12}",
        "channel", "deficiency", "collisions"
    );
    println!(
        "{:>22} {:>12.4} {:>12}",
        "static Bernoulli", static_report.final_total_deficiency, static_report.collisions
    );
    println!(
        "{:>22} {:>12.4} {:>12}",
        "Gilbert-Elliott", bursty_report.final_total_deficiency, bursty_report.collisions
    );
    println!(
        "\nburstiness costs some timely-throughput (losses cluster inside \
         an interval, where retries burn the budget), but the protocol \
         never loses priority consistency: zero collisions either way."
    );
    Ok(())
}
