//! Real-time video delivery (Section VI-A of the paper): 20 collocated
//! camera links stream 1500 B packets with a 20 ms deadline over a lossy
//! channel. Compares the paper's decentralized DB-DP algorithm against the
//! centralized LDF reference and the FCSMA random-access baseline.
//!
//! ```sh
//! cargo run --release --example video_streaming
//! ```

use rtmac::scenario::{self, CONTENDERS};
use rtmac::PolicySpec;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let intervals = 3000;
    let (alpha, rho) = (0.55, 0.9);
    println!(
        "video workload: 20 links, burst U{{1..6}} w.p. {alpha}, p = 0.7, \
         delivery ratio {rho}, {intervals} intervals (60 s)\n"
    );
    println!(
        "{:>12} {:>12} {:>12} {:>12} {:>14}",
        "policy", "deficiency", "collisions", "idle slots", "empty packets"
    );
    for policy in CONTENDERS
        .into_iter()
        .chain([PolicySpec::frame_csma(), PolicySpec::Dcf])
    {
        let report = scenario::video(20, alpha, rho, 42)
            .with_policy(policy)
            .with_intervals(intervals)
            .run()?;
        println!(
            "{:>12} {:>12.4} {:>12} {:>12} {:>14}",
            policy.label(),
            report.final_total_deficiency,
            report.collisions,
            report.idle_slots,
            report.empty_packets,
        );
    }
    println!(
        "\nDB-DP matches the centralized LDF while staying fully \
         decentralized and collision-free; FCSMA pays for random backoff \
         with collisions and idle slots."
    );
    Ok(())
}
