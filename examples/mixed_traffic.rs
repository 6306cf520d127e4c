//! Mixed traffic classes on one medium — the scenario the paper's
//! introduction motivates: machine-vision cameras streaming 1500 B video
//! frames share the channel with sensor/actuator pairs exchanging 100 B
//! control messages, all under the same 20 ms interval structure.
//!
//! DB-DP handles the mix with no configuration beyond per-link payloads:
//! delivery debts weigh both classes by the same timely-throughput
//! currency, and the collision-free priority protocol is airtime-agnostic.
//!
//! ```sh
//! cargo run --release --example mixed_traffic
//! ```

use rtmac::scenario::{EngineSpec, Param, TrafficSpec};
use rtmac::{Overrides, PolicySpec, Scenario};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n_video = 8;
    let n_control = 8;
    let n = n_video + n_control;

    // Video links: bursty U{1..6} arrivals w.p. 0.4; control links: one
    // packet almost every interval.
    let mut alpha = vec![0.4; n_video];
    alpha.extend(vec![0.28; n_control]); // λ = 0.98 on a burst_max = 1 basis below

    let scenario = Scenario {
        name: "mixed",
        links: n,
        deadline_us: 20_000,
        payload_bytes: 1500,
        success: Param::Uniform(0.7),
        traffic: TrafficSpec::Burst {
            alpha: Param::PerLink(alpha),
            burst_max: 6,
        },
        ratio: Param::Uniform(0.9),
        policy: PolicySpec::db_dp(),
        intervals: 4000,
        seed: 5,
        track: None,
        fault: None,
        admission: None,
        engine: EngineSpec::Timeline,
    };

    // Per-link payload sizes are the one knob the declarative scenario
    // does not carry; they are passed alongside it as an override.
    let mut payloads = vec![1500u32; n_video];
    payloads.extend(vec![100u32; n_control]);
    let mut network = scenario.network_with(Overrides {
        link_payloads: Some(payloads),
        ..Overrides::default()
    })?;

    let report = network.run(scenario.intervals);
    println!("mixed workload: {n_video} video links (1500 B) + {n_control} control links (100 B)");
    println!("policy: {}\n", report.policy);
    println!(
        "total deficiency after {} intervals: {:.4}",
        report.intervals, report.final_total_deficiency
    );
    println!("collisions: {}\n", report.collisions);

    let class = |i: usize| if i < n_video { "video" } else { "control" };
    println!(
        "{:>8} {:>9} {:>12} {:>12}",
        "link", "class", "throughput", "required"
    );
    for link in network.config().links() {
        let i = link.index();
        println!(
            "{i:>8} {:>9} {:>12.4} {:>12.4}",
            class(i),
            report.per_link_throughput[i],
            network.requirements().q(link),
        );
    }
    Ok(())
}
