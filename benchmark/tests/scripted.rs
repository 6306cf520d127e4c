//! The scripted transport replays a deployment faithfully, and a corrupted
//! peer frame is a counted failure, never a silent pass.

use rtmac::scenario::by_name;
use rtmac_benchmark::emulate::{check_node, node_run};
use rtmac_benchmark::script::{PeerStats, Script};
use rtmac_benchmark::workloads::RunResult;
use rtmac_net::NetError;

/// The replay contract's pinned fingerprint of `control10` at 200
/// intervals, seed 0 (`crates/net/tests/replay_contract.rs`).
const CONTROL10_200_FINGERPRINT: u64 = 0x90AB_0B13_1CFB_1D4D;

#[test]
fn scripted_peers_reproduce_the_pinned_fingerprint() {
    let sc = by_name("control10").unwrap();
    assert_eq!(sc.seed, 0);
    let script = Script::generate(&sc, 200, 0).unwrap();
    assert_eq!(script.fingerprint(), CONTROL10_200_FINGERPRINT);
    let mut stats = PeerStats::with_capacity(200);
    let run = node_run(&script, &mut stats, true);
    assert_eq!(run.as_ref().unwrap().fingerprint, CONTROL10_200_FINGERPRINT);
    check_node(&script, &run).unwrap();
    // Nine peers' beacons plus nine frames per interval, no retries.
    assert_eq!(stats.frames_in, 9 + 9 * 200);
    assert_eq!(stats.rebroadcasts, 0);
    assert_eq!(stats.interval_ns.len(), 199);
}

#[test]
fn any_link_can_be_the_replayed_node() {
    let sc = by_name("control10").unwrap();
    let script = Script::generate(&sc, 50, 7).unwrap();
    let run = node_run(&script, &mut PeerStats::default(), false);
    check_node(&script, &run).unwrap();
}

#[test]
fn a_corrupted_digest_is_a_counted_desync() {
    let sc = by_name("control10").unwrap();
    let mut script = Script::generate(&sc, 200, 0).unwrap();
    script.corrupt_digest(120, 4).unwrap();
    let run = node_run(&script, &mut PeerStats::default(), false);
    match &run {
        Err(NetError::Desync { interval, link, .. }) => {
            assert_eq!(*interval, 120);
            // The fifth peer of link 0 is link 5.
            assert_eq!(*link, 5);
        }
        other => panic!("expected a desync, got {other:?}"),
    }
    let mut result = RunResult::default();
    result.op(check_node(&script, &run));
    assert_eq!((result.attempted, result.failed), (1, 1));
    assert!(
        result.failures[0].contains("desync"),
        "{:?}",
        result.failures
    );
}

#[test]
fn corrupting_outside_the_script_is_refused() {
    let sc = by_name("tiny").unwrap();
    let mut script = Script::generate(&sc, 5, 0).unwrap();
    assert!(script.corrupt_digest(5, 0).is_err());
    assert!(script.corrupt_digest(0, 2).is_err());
    assert!(Script::generate(&sc, 5, 3).is_err());
}
