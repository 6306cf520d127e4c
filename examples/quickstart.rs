//! Quickstart: build a small real-time wireless network, run the paper's
//! decentralized DB-DP algorithm, and read the results.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use rtmac::scenario::{EngineSpec, Param, TrafficSpec};
use rtmac::{PolicySpec, Scenario};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Six links sharing one channel, every link interfering with every
    // other. Packets arrive at each interval start and expire 2 ms later;
    // uncollided transmissions succeed with probability 0.8; every link
    // must sustain 95% on-time delivery. A `Scenario` is plain data — the
    // same description drives the CLI (`rtmac run --scenario ...`) and the
    // benchmark figures.
    let scenario = Scenario {
        name: "quickstart",
        links: 6,
        deadline_us: 2_000,
        payload_bytes: 100,
        success: Param::Uniform(0.8),
        traffic: TrafficSpec::Bernoulli {
            lambda: Param::Uniform(0.9),
        },
        ratio: Param::Uniform(0.95),
        policy: PolicySpec::db_dp(),
        intervals: 2000,
        seed: 7,
        track: None,
        fault: None,
        admission: None,
        engine: EngineSpec::Timeline,
    };
    let mut network = scenario.network()?;

    println!("policy: {}", network.policy_name());
    println!(
        "interval budget: {} transmissions of {} each\n",
        rtmac::mac::MacTiming::new(
            rtmac::phy::PhyProfile::ieee80211a(),
            network.config().deadline(),
            100
        )
        .max_transmissions(),
        rtmac::phy::PhyProfile::ieee80211a().packet_exchange_airtime(100),
    );

    let report = network.run(scenario.intervals);

    println!("after {} intervals:", report.intervals);
    println!(
        "  total timely-throughput deficiency: {:.4}",
        report.final_total_deficiency
    );
    println!(
        "  collisions: {} (DP protocol is collision-free)",
        report.collisions
    );
    println!("  empty priority-claim packets: {}", report.empty_packets);
    for link in network.config().links() {
        println!(
            "  {link}: throughput {:.3} / required {:.3}, debt {:+.2}",
            report.per_link_throughput[link.index()],
            network.requirements().q(link),
            report.final_debts[link.index()],
        );
    }
    // The priority ordering the decentralized protocol has settled into:
    if let Some(sigma) = network.sigma() {
        println!("\ncurrent priority vector σ = {sigma}");
    }
    Ok(())
}
