//! The lockstep link node: one deterministic replica per link.
//!
//! A [`LinkNode`] owns one [`Transport`] endpoint and a full deterministic
//! [`rtmac::Network`] replica built from the shared scenario and seed. Each
//! interval it steps the replica, broadcasts exactly one activity frame with
//! its own link's facts, and waits until it has heard every other link's
//! frame for the same interval before moving on. The real transport can
//! delay, duplicate, or reorder frames — that only moves wall-clock time,
//! never decisions, which is what makes the replay contract hold.
//!
//! Cross-checks at every stage turn configuration or state drift into
//! errors instead of silent divergence:
//!
//! * the handshake beacon pins link count, seed, horizon, and a digest of
//!   the full scenario ([`NetError::Mismatch`] on any disagreement);
//! * every activity frame carries a digest of the sender's post-interval
//!   protocol state; a frame whose digest differs from the local replica's
//!   is a [`NetError::Desync`];
//! * two different frames from the same link for the same interval are a
//!   [`NetError::Desync`]; identical duplicates are deduplicated.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use rtmac::scenario::Scenario;
use rtmac::RunReport;

use crate::error::NetError;
use crate::frame::{Beacon, Frame};
use crate::sim::{link_frame, scenario_digest};
use crate::trace::DecisionTrace;
use crate::transport::Transport;

/// How long one `recv` call waits before the node re-checks its deadlines.
const RECV_SLICE: Duration = Duration::from_millis(5);

/// Minimum spacing between repeated broadcasts of the same frame (loss
/// repair on UDP; a no-op on lossless transports).
const REBROADCAST: Duration = Duration::from_millis(250);

/// Minimum spacing between beacon re-broadcasts, both during the handshake
/// and when answering a straggler's beacon mid-run. Rate-limiting beacon
/// replies is what keeps n nodes from amplifying each other's beacons into
/// a storm.
const REBEACON: Duration = Duration::from_millis(100);

/// Everything a [`LinkNode`] needs besides its transport endpoint.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// The shared scenario. Every node of a deployment must construct an
    /// identical value — the handshake enforces this via a digest.
    pub scenario: Scenario,
    /// Number of deadline intervals to run.
    pub intervals: usize,
    /// How long to wait for missing peers (per handshake / per interval)
    /// before giving up with [`NetError::Timeout`].
    pub sync_timeout: Duration,
    /// When true, the node sleeps out the remainder of each deadline
    /// interval, pacing the run at the scenario's real-time rate. Misses
    /// are counted from pre-sleep elapsed time either way.
    pub realtime: bool,
}

impl NodeConfig {
    /// A config with the default 30 s sync timeout and no real-time pacing.
    ///
    /// # Example
    ///
    /// ```
    /// use rtmac_net::NodeConfig;
    ///
    /// let sc = rtmac::scenario::by_name("tiny").unwrap();
    /// let cfg = NodeConfig::new(sc, 100);
    /// assert!(!cfg.realtime);
    /// ```
    #[must_use]
    pub fn new(scenario: Scenario, intervals: usize) -> Self {
        NodeConfig {
            scenario,
            intervals,
            sync_timeout: Duration::from_secs(30),
            realtime: false,
        }
    }
}

/// What one link node measured over its run.
#[derive(Debug, Clone)]
pub struct NodeReport {
    /// The link this node drove.
    pub link: usize,
    /// Decision-trace fingerprint — must equal every peer's and the sim's.
    pub fingerprint: u64,
    /// Frames absorbed into the trace (`links × intervals`).
    pub frames: u64,
    /// The local replica's ordinary simulation report.
    pub report: RunReport,
    /// Intervals whose wall-clock duration (step + frame exchange, before
    /// any real-time pacing sleep) exceeded the scenario deadline.
    pub misses: u64,
    /// Longest wall-clock interval observed.
    pub max_interval: Duration,
    /// Mean wall-clock interval duration.
    pub mean_interval: Duration,
}

/// One link's lockstep protocol node over a [`Transport`] endpoint.
///
/// # Example
///
/// A two-link deployment over the loopback transport:
///
/// ```
/// use rtmac_net::{LinkNode, LoopbackHub, NodeConfig};
///
/// let sc = rtmac::scenario::by_name("tiny").unwrap().with_links(2);
/// let reports: Vec<_> = std::thread::scope(|scope| {
///     LoopbackHub::endpoints(2)
///         .into_iter()
///         .map(|ep| {
///             let cfg = NodeConfig::new(sc.clone(), 5);
///             scope.spawn(move || LinkNode::new(ep, cfg).unwrap().run().unwrap())
///         })
///         .collect::<Vec<_>>()
///         .into_iter()
///         .map(|h| h.join().unwrap())
///         .collect()
/// });
/// assert_eq!(reports[0].fingerprint, reports[1].fingerprint);
/// ```
#[derive(Debug)]
pub struct LinkNode<T: Transport> {
    transport: T,
    config: NodeConfig,
}

impl<T: Transport> LinkNode<T> {
    /// Pairs a transport endpoint with a node configuration.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Config`] when the endpoint's link index or
    /// deployment size disagrees with the scenario.
    pub fn new(transport: T, config: NodeConfig) -> Result<Self, NetError> {
        if transport.n_links() != config.scenario.links {
            return Err(NetError::Config(format!(
                "transport spans {} link(s) but the scenario has {}",
                transport.n_links(),
                config.scenario.links
            )));
        }
        if transport.local_link() >= config.scenario.links {
            return Err(NetError::Config(format!(
                "link index {} out of range for {} link(s)",
                transport.local_link(),
                config.scenario.links
            )));
        }
        Ok(LinkNode { transport, config })
    }

    /// Runs the handshake and all intervals to completion.
    ///
    /// # Errors
    ///
    /// * [`NetError::Mismatch`] — a peer's beacon disagrees on seed, link
    ///   count, horizon, or scenario digest.
    /// * [`NetError::Desync`] — a peer's frame contradicts the local
    ///   replica (state digest drift, conflicting duplicates).
    /// * [`NetError::Timeout`] — a peer stayed silent past `sync_timeout`.
    /// * [`NetError::Io`] / [`NetError::Codec`] — transport failures.
    ///
    /// # Panics
    ///
    /// Propagates policy-engine panics from the local replica, as in
    /// [`rtmac::Network::step`].
    pub fn run(mut self) -> Result<NodeReport, NetError> {
        let n = self.config.scenario.links;
        let me = self.transport.local_link();
        let horizon = self.config.intervals as u64;
        let mut net = self.config.scenario.network()?;
        let beacon = Beacon {
            link: me as u32,
            links: n as u32,
            seed: self.config.scenario.seed,
            intervals: horizon,
            config_digest: scenario_digest(&self.config.scenario),
        };
        // Frames indexed by interval, then link. Peers run at most one
        // interval ahead (they need our frame to advance), but the map
        // tolerates any skew.
        let mut pending: BTreeMap<u64, Vec<Option<Frame>>> = BTreeMap::new();
        let mut last_beacon = self.handshake(&beacon, &mut pending)?;

        let deadline = Duration::from_micros(self.config.scenario.deadline_us);
        let mut trace = DecisionTrace::new();
        let mut misses = 0u64;
        let mut max_interval = Duration::ZERO;
        let mut total = Duration::ZERO;
        for interval in 0..horizon {
            let started = Instant::now();
            let outcome = net.step();
            let mine = link_frame(&net, &outcome, interval, me);
            let my_digest = mine.activity().map(|a| a.state_digest).unwrap_or_default();
            self.stash(mine, interval, horizon, &mut pending)?;
            self.transport.broadcast(&mine)?;
            let mut last_rebroadcast = Instant::now();

            while !slot_complete(pending.get(&interval)) {
                if started.elapsed() > self.config.sync_timeout {
                    let waiting_for = pending
                        .get(&interval)
                        .and_then(|slot| slot.iter().position(Option::is_none))
                        .unwrap_or(0);
                    return Err(NetError::Timeout {
                        interval,
                        waiting_for,
                    });
                }
                if last_rebroadcast.elapsed() >= REBROADCAST {
                    self.transport.broadcast(&mine)?;
                    last_rebroadcast = Instant::now();
                }
                match self.transport.recv(RECV_SLICE)? {
                    None => {}
                    Some(Frame::Beacon(peer)) => {
                        check_beacon(&beacon, &peer, n)?;
                        // A straggler is still handshaking; repeat our
                        // beacon, rate-limited.
                        if last_beacon.elapsed() >= REBEACON {
                            self.transport.broadcast(&Frame::Beacon(beacon))?;
                            last_beacon = Instant::now();
                        }
                    }
                    Some(frame) => self.stash(frame, interval, horizon, &mut pending)?,
                }
            }

            let slot = pending.remove(&interval).unwrap_or_default();
            for (link, frame) in slot.iter().enumerate() {
                let Some(frame) = frame else { continue };
                let digest = frame.activity().map(|a| a.state_digest).unwrap_or_default();
                if digest != my_digest {
                    return Err(NetError::Desync {
                        interval,
                        link,
                        detail: format!(
                            "state digest {digest:#018x} != local replica's {my_digest:#018x}"
                        ),
                    });
                }
                trace.absorb(frame);
            }

            let elapsed = started.elapsed();
            if elapsed > deadline {
                misses += 1;
            }
            max_interval = max_interval.max(elapsed);
            total += elapsed;
            if self.config.realtime && elapsed < deadline {
                std::thread::sleep(deadline - elapsed);
            }
        }

        Ok(NodeReport {
            link: me,
            fingerprint: trace.fingerprint(),
            frames: trace.frames(),
            report: net.report(),
            misses,
            max_interval,
            mean_interval: total
                .checked_div(horizon.max(1) as u32)
                .unwrap_or(Duration::ZERO),
        })
    }

    /// Broadcasts our beacon until every peer's (matching) beacon has been
    /// heard. Activity frames arriving early — from peers already past
    /// their handshake — are buffered, not dropped. Returns the time of
    /// the last beacon broadcast so the main loop's beacon replies stay
    /// rate-limited.
    fn handshake(
        &mut self,
        beacon: &Beacon,
        pending: &mut BTreeMap<u64, Vec<Option<Frame>>>,
    ) -> Result<Instant, NetError> {
        let n = self.transport.n_links();
        let horizon = beacon.intervals;
        let mut seen = vec![false; n];
        seen[self.transport.local_link()] = true;
        let started = Instant::now();
        if let Err(e) = self.transport.broadcast(&Frame::Beacon(*beacon)) {
            return Err(self.explain_dead_interconnect(beacon, e));
        }
        let mut last_beacon = Instant::now();
        while seen.iter().any(|&s| !s) {
            if started.elapsed() > self.config.sync_timeout {
                let waiting_for = seen.iter().position(|&s| !s).unwrap_or(0);
                return Err(NetError::Timeout {
                    interval: 0,
                    waiting_for,
                });
            }
            if last_beacon.elapsed() >= REBEACON {
                if let Err(e) = self.transport.broadcast(&Frame::Beacon(*beacon)) {
                    return Err(self.explain_dead_interconnect(beacon, e));
                }
                last_beacon = Instant::now();
            }
            match self.transport.recv(RECV_SLICE)? {
                None => {}
                Some(Frame::Beacon(peer)) => {
                    check_beacon(beacon, &peer, n)?;
                    seen[peer.link as usize] = true;
                }
                Some(frame) => self.stash(frame, 0, horizon, pending)?,
            }
        }
        Ok(last_beacon)
    }

    /// A broadcast found the whole interconnect gone mid-handshake. On the
    /// loopback hub that can race a peer's *reason* for leaving: if every
    /// peer rejected our beacon and exited before our first broadcast, the
    /// mismatched beacon that explains it is still buffered in our inbox.
    /// Drain it for a protocol-level verdict; only if nothing buffered
    /// explains the exit does the transport error stand.
    fn explain_dead_interconnect(&mut self, beacon: &Beacon, err: NetError) -> NetError {
        let n = self.transport.n_links();
        while let Ok(Some(frame)) = self.transport.recv(Duration::ZERO) {
            if let Frame::Beacon(peer) = frame {
                if let Err(e) = check_beacon(beacon, &peer, n) {
                    return e;
                }
            }
        }
        err
    }

    /// Files an activity frame into the pending map. Stale frames (already
    /// absorbed intervals) are dropped; identical duplicates are ignored;
    /// conflicting duplicates and impossible coordinates are desyncs.
    fn stash(
        &self,
        frame: Frame,
        current: u64,
        horizon: u64,
        pending: &mut BTreeMap<u64, Vec<Option<Frame>>>,
    ) -> Result<(), NetError> {
        let n = self.transport.n_links();
        let Some(body) = frame.activity() else {
            return Ok(());
        };
        if body.interval < current {
            return Ok(());
        }
        if body.interval >= horizon {
            return Err(NetError::Desync {
                interval: body.interval,
                link: body.link as usize,
                detail: format!("frame beyond the {horizon}-interval horizon"),
            });
        }
        let link = body.link as usize;
        if link >= n {
            return Err(NetError::Desync {
                interval: body.interval,
                link,
                detail: format!("frame from unknown link (deployment has {n})"),
            });
        }
        let slot = pending
            .entry(body.interval)
            .or_insert_with(|| vec![None; n]);
        match &slot[link] {
            None => slot[link] = Some(frame),
            Some(existing) if *existing == frame => {}
            Some(_) => {
                return Err(NetError::Desync {
                    interval: body.interval,
                    link,
                    detail: "two different frames for the same interval".to_string(),
                });
            }
        }
        Ok(())
    }
}

fn slot_complete(slot: Option<&Vec<Option<Frame>>>) -> bool {
    slot.is_some_and(|slot| slot.iter().all(Option::is_some))
}

fn check_beacon(ours: &Beacon, theirs: &Beacon, n: usize) -> Result<(), NetError> {
    let fields = [
        ("link count", u64::from(ours.links), u64::from(theirs.links)),
        ("seed", ours.seed, theirs.seed),
        ("interval horizon", ours.intervals, theirs.intervals),
        ("scenario digest", ours.config_digest, theirs.config_digest),
    ];
    for (what, expected, got) in fields {
        if expected != got {
            return Err(NetError::Mismatch {
                what: format!("beacon {what}"),
                expected,
                got,
            });
        }
    }
    if theirs.link as usize >= n {
        return Err(NetError::Desync {
            interval: 0,
            link: theirs.link as usize,
            detail: format!("beacon from unknown link (deployment has {n})"),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::LoopbackHub;
    use rtmac::scenario;

    fn run_pair(sc: &Scenario, intervals: usize) -> Vec<Result<NodeReport, NetError>> {
        std::thread::scope(|scope| {
            LoopbackHub::endpoints(sc.links)
                .into_iter()
                .map(|ep| {
                    let cfg = NodeConfig::new(sc.clone(), intervals);
                    scope.spawn(move || LinkNode::new(ep, cfg).unwrap().run())
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|handle| handle.join().expect("node thread panicked"))
                .collect()
        })
    }

    #[test]
    fn nodes_agree_with_each_other_and_the_sim() {
        let sc = scenario::by_name("tiny").unwrap();
        let reports: Vec<_> = run_pair(&sc, 25).into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(reports.len(), 3);
        let sim = crate::sim_trace(&sc, 25).unwrap();
        for r in &reports {
            assert_eq!(r.fingerprint, sim.fingerprint);
            assert_eq!(r.frames, 75);
            // Each live replica's own run report is the sim's.
            assert_eq!(r.report, sim.report);
        }
    }

    #[test]
    fn mismatched_seed_is_rejected_at_handshake() {
        let sc = scenario::by_name("tiny").unwrap();
        let results = std::thread::scope(|scope| {
            LoopbackHub::endpoints(sc.links)
                .into_iter()
                .enumerate()
                .map(|(i, ep)| {
                    // Link 0 believes a different seed; everyone must
                    // refuse to start.
                    let mine = if i == 0 {
                        sc.clone().with_seed(999)
                    } else {
                        sc.clone()
                    };
                    let cfg = NodeConfig::new(mine, 5);
                    scope.spawn(move || LinkNode::new(ep, cfg).unwrap().run())
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|handle| handle.join().expect("node thread panicked"))
                .collect::<Vec<_>>()
        });
        for result in results {
            assert!(
                matches!(result, Err(NetError::Mismatch { .. })),
                "expected a beacon mismatch, got {result:?}"
            );
        }
    }

    #[test]
    fn wrong_deployment_size_is_a_config_error() {
        let sc = scenario::by_name("tiny").unwrap(); // 3 links
        let ep = LoopbackHub::endpoints(2).remove(0);
        assert!(matches!(
            LinkNode::new(ep, NodeConfig::new(sc, 5)),
            Err(NetError::Config(_))
        ));
    }

    #[test]
    fn lonely_node_times_out() {
        let sc = scenario::by_name("tiny").unwrap();
        let mut eps = LoopbackHub::endpoints(sc.links);
        let ep = eps.remove(0);
        // The other endpoints stay silent (but alive, so sends succeed).
        let mut cfg = NodeConfig::new(sc, 5);
        cfg.sync_timeout = Duration::from_millis(50);
        let result = LinkNode::new(ep, cfg).unwrap().run();
        assert!(matches!(result, Err(NetError::Timeout { interval: 0, .. })));
        drop(eps);
    }
}
