//! The replay contract, pinned.
//!
//! The headline property of `rtmac-net`: the same scenario and seed must
//! produce the same FNV-fingerprinted decision trace through the
//! transport-free simulator, a live loopback deployment, a live UDP
//! deployment, and a fleet of real `rtmac-netd` processes. The sim
//! fingerprint itself is pinned to an absolute golden so the contract
//! cannot drift by all backends moving together.

use std::time::Duration;

use rtmac::scenario::by_name;
use rtmac_net::{
    run_emulation, run_emulation_processes, sim_trace, LinkNode, LoopbackHub, NetError, NodeConfig,
    TransportKind,
};

/// The pinned decision-trace fingerprint of `control10` at 200 intervals.
///
/// If an intentional engine or wire-format change moves this value,
/// update it together with the CI `netd-smoke` golden and note the break
/// in DESIGN.md §15.
const CONTROL10_200_FINGERPRINT: u64 = 0x90AB_0B13_1CFB_1D4D;

#[test]
fn sim_fingerprint_matches_the_absolute_golden() {
    let sc = by_name("control10").expect("control10 is a registry scenario");
    let trace = sim_trace(&sc, 200).expect("sim trace runs");
    assert_eq!(
        trace.fingerprint, CONTROL10_200_FINGERPRINT,
        "the control10 decision trace moved — engine or codec change?"
    );
    assert_eq!(trace.frames, 10 * 200, "one frame per link per interval");
}

#[test]
fn replay_contract_holds_across_sim_loopback_and_udp() {
    let sc = by_name("control10").expect("control10 is a registry scenario");
    let cfg = NodeConfig::new(sc, 200);
    for transport in [TransportKind::Loopback, TransportKind::Udp] {
        let report = run_emulation(&cfg, transport).expect("deployment matches the sim");
        assert_eq!(report.backend, transport.name());
        assert_eq!(report.fingerprint, CONTROL10_200_FINGERPRINT);
    }
}

#[test]
fn netd_process_fleet_reproduces_the_sim_trace() {
    let sc = by_name("tiny").expect("tiny is a registry scenario");
    let mut cfg = NodeConfig::new(sc.clone(), 30);
    cfg.sync_timeout = Duration::from_secs(60);
    let netd = std::path::PathBuf::from(env!("CARGO_BIN_EXE_rtmac-netd"));
    let report = run_emulation_processes(&cfg, &netd).expect("process fleet runs");
    assert_eq!(report.backend, "udp-processes");
    assert_eq!(report.links, 3);
    let reference = sim_trace(&sc, 30).expect("sim trace runs");
    assert_eq!(report.fingerprint, reference.fingerprint);
    // Wall-clock measurements came back from every process.
    assert_eq!(report.per_link_misses.len(), 3);
    assert!(report.max_interval >= report.mean_interval);
}

#[test]
fn a_wrong_seed_peer_is_caught_before_interval_zero() {
    let sc = by_name("tiny")
        .expect("tiny is a registry scenario")
        .with_links(2);
    let skewed = sc.clone().with_seed(sc.seed + 1);
    let mut endpoints = LoopbackHub::endpoints(2);
    let good_ep = endpoints.remove(0);
    let bad_ep = endpoints.remove(0);
    let mut good_cfg = NodeConfig::new(sc, 20);
    good_cfg.sync_timeout = Duration::from_secs(5);
    let mut bad_cfg = NodeConfig::new(skewed, 20);
    bad_cfg.sync_timeout = Duration::from_secs(5);
    let (good, bad) = std::thread::scope(|s| {
        let good = s.spawn(move || LinkNode::new(good_ep, good_cfg)?.run());
        let bad = s.spawn(move || LinkNode::new(bad_ep, bad_cfg)?.run());
        (good.join(), bad.join())
    });
    let good = good.expect("good node must not panic");
    let bad = bad.expect("bad node must not panic");
    // Both replicas see a beacon whose seed and config digest disagree
    // with their own deployment facts; neither may run a single interval.
    for result in [good, bad] {
        match result {
            Err(NetError::Mismatch { ref what, .. }) => {
                assert!(what.contains("seed") || what.contains("digest"), "{what}");
            }
            other => panic!("expected a handshake mismatch, got {other:?}"),
        }
    }
}
