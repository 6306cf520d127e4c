//! The deployed-node workload: link 0's `LinkNode` of
//! `rtmac emulate --scenario control10 --links 100`, run against peers
//! replayed from a [`Script`].
//!
//! One operation is one node run over the whole script; it fails unless
//! the node returns `Ok` with the fingerprint the script predicts. The
//! interval latency is the time from one of the node's activity broadcasts
//! to the next, as its peers would see it.

use std::time::Duration;

use rtmac_net::{LinkNode, NetError, NodeConfig, NodeReport};

use crate::clock::{now, ns_between};
use crate::script::{PeerStats, Script, ScriptedPeers};
use crate::workloads::{time_setup, BestLatency, Resident, RunConfig, RunResult, Workload};

/// Links of the emulated deployment.
pub const LINKS: usize = 100;

/// How long the node waits for a peer before giving up. Scripted peers
/// answer at once, so only a broken script ever waits this long.
const SYNC_TIMEOUT: Duration = Duration::from_secs(5);

/// Runs `script` through one node, recording into `stats`.
///
/// # Errors
///
/// Returns the node's error: a configuration mismatch, a `Desync` from a
/// corrupted frame, a timeout from a truncated script.
pub fn node_run(
    script: &Script,
    stats: &mut PeerStats,
    timed: bool,
) -> Result<NodeReport, NetError> {
    let mut cfg = NodeConfig::new(script.scenario().clone(), script.intervals());
    cfg.sync_timeout = SYNC_TIMEOUT;
    LinkNode::new(ScriptedPeers::new(script, stats, timed), cfg)?.run()
}

/// Whether a node run reproduced the script's deployment.
///
/// # Errors
///
/// Describes the node error or the fingerprint disagreement.
pub fn check_node(script: &Script, run: &Result<NodeReport, NetError>) -> Result<(), String> {
    match run {
        Err(e) => Err(format!("node failed: {e}")),
        Ok(r) if r.fingerprint != script.fingerprint() => Err(format!(
            "node fingerprint {:#018x} != script {:#018x}",
            r.fingerprint,
            script.fingerprint()
        )),
        Ok(r) if r.frames != (script.scenario().links * script.intervals()) as u64 => {
            Err(format!("node absorbed {} frames", r.frames))
        }
        Ok(_) => Ok(()),
    }
}

/// Runs the emulation workload.
///
/// # Errors
///
/// Returns a message when the scenario or its script cannot be built.
pub fn run(w: &Workload, cfg: &RunConfig) -> Result<RunResult, String> {
    let sc = crate::workloads::scenario(w, cfg.seed)?.with_links(LINKS);
    let intervals = cfg.scaled(w.op_intervals);
    let script = Script::generate(&sc, intervals, 0).map_err(|e| e.to_string())?;
    let mut result = RunResult::default();
    let node_cfg = NodeConfig::new(sc.clone(), intervals);
    let mut stats = PeerStats::with_capacity(intervals);
    // The first activity broadcast has no predecessor to time from.
    let mut best = BestLatency::new(intervals.saturating_sub(1));
    result.base = Resident::read();

    // Warm-up run, discarded.
    let _ = node_run(&script, &mut stats, false);

    let k = intervals as f64;
    let budget = cfg.budget(if cfg.trace { 0.5 } else { 1.0 });
    while budget.more(result.attempted as usize) {
        if !cfg.trace {
            // The set-up builds a node over its own (untouched) peer stats.
            let mut setup_stats = PeerStats::default();
            time_setup(&mut result, || {
                let replica = sc.network()?;
                let peers = ScriptedPeers::new(&script, &mut setup_stats, false);
                let node = LinkNode::new(peers, node_cfg.clone())?;
                Ok::<_, NetError>((replica, node))
            })?;
        }
        stats.reset();
        let started = now();
        let run = node_run(&script, &mut stats, cfg.trace);
        let wall_s = ns_between(started, now()) as f64 / 1e9;
        result.op(check_node(&script, &run));

        best.absorb(&stats.interval_ns);
        let s = &mut result.samples;
        s.push("intervals_per_s", "1/s", k / wall_s);
        s.push("op_s", "s", wall_s);
        if let Ok(report) = &run {
            s.push(
                "net.node.deadline_miss_rate",
                "ratio",
                report.misses as f64 / k,
            );
        }
        let rate = "1/interval";
        s.push("net.frames_in", rate, stats.frames_in as f64 / k);
        s.push("net.bytes_in", rate, stats.bytes_in as f64 / k);
        s.push("net.recv_polls", rate, stats.recv_polls as f64 / k);
        s.push("net.rebroadcasts", rate, stats.rebroadcasts as f64 / k);
        if cfg.trace {
            let per_us = |ns: u64| ns as f64 / k / 1e3;
            let (send, recv) = (per_us(stats.broadcast_ns), per_us(stats.recv_ns));
            let step = script.replica_step_ns() / 1e3;
            let interval = wall_s * 1e6 / k;
            s.push("net.replica.step_us", "us", step);
            s.push("net.transport.broadcast_us", "us", send);
            s.push("net.transport.recv_us", "us", recv);
            s.push("net.node.self_us", "us", interval - step - send - recv);
        }
    }
    best.report(&mut result.samples);

    if cfg.trace {
        // The stage breakdown of the replica every node steps.
        let chunk = cfg.scaled(w.op_intervals / 10);
        crate::sim::staged_ops(w, cfg, 0.5, &[&sc], chunk, &mut result)?;
    }
    Ok(result)
}
