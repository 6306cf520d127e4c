//! The deployed-node workload's input: every peer's encoded frames,
//! generated ahead of time from a simulator replica, replayed to one
//! `LinkNode` through a benchmark-owned [`Transport`].
//!
//! A real fleet of `N` node threads on a box with fewer cores measures the
//! scheduler, not the node. Replaying the other links' frames lets one node
//! run the exact lockstep path — replica step, frame codec, stash, digest
//! cross-check, decision trace — with its peers' side reduced to a memory
//! read. The replay is faithful because the replay contract makes every
//! peer's frames a function of (scenario, seed) alone.

use std::time::Duration;

use rtmac::scenario::Scenario;
use rtmac_net::{link_frame, scenario_digest, Beacon, DecisionTrace, Frame, NetError, Transport};

use crate::clock::{now, ns_between, sample_ns, Stamp};
use crate::workloads::sample_buffer;

/// Every peer frame of a node run, encoded back to back.
#[derive(Debug, Clone)]
pub struct Script {
    scenario: Scenario,
    intervals: usize,
    local: usize,
    beacons: Vec<u8>,
    frames: Vec<u8>,
    /// `offsets[k]..offsets[k + 1]` holds interval `k`'s peer frames.
    offsets: Vec<usize>,
    fingerprint: u64,
    replica_step_ns: u64,
}

impl Script {
    /// Steps a replica of `sc` for `intervals` intervals and records the
    /// frames every link other than `local` broadcasts.
    ///
    /// # Errors
    ///
    /// Returns the scenario's configuration error, or [`NetError::Config`]
    /// when `local` is not one of its links.
    pub fn generate(sc: &Scenario, intervals: usize, local: usize) -> Result<Self, NetError> {
        let n = sc.links;
        if local >= n {
            return Err(NetError::Config(format!("link {local} outside {n} links")));
        }
        let mut net = sc.network()?;
        let digest = scenario_digest(sc);
        let mut beacons = Vec::new();
        for link in (0..n).filter(|&l| l != local) {
            Frame::Beacon(Beacon {
                link: link as u32,
                links: n as u32,
                seed: sc.seed,
                intervals: intervals as u64,
                config_digest: digest,
            })
            .encode_into(&mut beacons);
        }
        let mut trace = DecisionTrace::new();
        let mut frames = Vec::new();
        let mut offsets = Vec::with_capacity(intervals + 1);
        offsets.push(0);
        let mut replica_step_ns = 0u64;
        for k in 0..intervals {
            let started = now();
            let outcome = net.step();
            replica_step_ns += ns_between(started, now());
            for link in 0..n {
                let frame = link_frame(&net, &outcome, k as u64, link);
                if k == 0 && link == 0 {
                    // Every activity frame has the same length.
                    frames.reserve_exact(frame.encoded_len() * (n - 1) * intervals);
                }
                trace.absorb(&frame);
                if link != local {
                    frame.encode_into(&mut frames);
                }
            }
            offsets.push(frames.len());
        }
        Ok(Script {
            scenario: sc.clone(),
            intervals,
            local,
            beacons,
            frames,
            offsets,
            fingerprint: trace.fingerprint(),
            replica_step_ns,
        })
    }

    /// The scenario the script replays.
    #[must_use]
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// Intervals the script covers.
    #[must_use]
    pub fn intervals(&self) -> usize {
        self.intervals
    }

    /// The decision-trace fingerprint of the whole deployment: what the
    /// node must report.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Mean host time of one replica `Network::step` while generating.
    #[must_use]
    pub fn replica_step_ns(&self) -> f64 {
        self.replica_step_ns as f64 / self.intervals.max(1) as f64
    }

    /// Flips one bit of the state digest in the frame the `nth` peer sends
    /// at `interval`, as a corrupted or diverged peer would.
    ///
    /// # Errors
    ///
    /// Names an interval or peer outside the script.
    pub fn corrupt_digest(&mut self, interval: usize, nth: usize) -> Result<(), String> {
        let (Some(&start), Some(&end)) =
            (self.offsets.get(interval), self.offsets.get(interval + 1))
        else {
            return Err(format!("interval {interval} outside the script"));
        };
        let (mut pos, mut i) = (start, 0);
        while pos < end {
            let (frame, used) = Frame::decode(&self.frames[pos..end]).map_err(|e| e.to_string())?;
            if i == nth {
                let mut body = *frame.activity().ok_or("not an activity frame")?;
                body.state_digest ^= 1;
                let bad = Frame::from_activity(frame.kind(), body).ok_or("bad frame kind")?;
                self.frames[pos..pos + used].copy_from_slice(&bad.encode());
                return Ok(());
            }
            pos += used;
            i += 1;
        }
        Err(format!("peer {nth} outside interval {interval}"))
    }
}

/// What the scripted peers observed while a node ran.
#[derive(Debug, Clone, Default)]
pub struct PeerStats {
    /// Frames handed to the node.
    pub frames_in: u64,
    /// Their encoded bytes.
    pub bytes_in: u64,
    /// `recv` calls, including those that found nothing.
    pub recv_polls: u64,
    /// Broadcasts repeating an interval already sent.
    pub rebroadcasts: u64,
    /// Host time inside `broadcast` (timed runs only).
    pub broadcast_ns: u64,
    /// Host time inside `recv` (timed runs only).
    pub recv_ns: u64,
    /// Host time from each activity broadcast to the next: one interval of
    /// the node, as its peers see it.
    pub interval_ns: Vec<u32>,
}

impl PeerStats {
    /// Empty stats with resident room for `intervals` latency samples, so
    /// recording them never allocates or faults in pages inside a measured
    /// run.
    #[must_use]
    pub fn with_capacity(intervals: usize) -> Self {
        PeerStats {
            interval_ns: sample_buffer(intervals),
            ..PeerStats::default()
        }
    }

    /// Empties the stats for the next run, keeping the sample buffer.
    pub fn reset(&mut self) {
        let mut interval_ns = std::mem::take(&mut self.interval_ns);
        interval_ns.clear();
        *self = PeerStats {
            interval_ns,
            ..PeerStats::default()
        };
    }
}

enum Queue {
    Beacons,
    Interval(usize),
}

/// The node's view of its 99 (or `N − 1`) peers: a [`Transport`] that
/// answers each of the node's broadcasts with the peers' frames for the
/// same step, decoded from the script.
pub struct ScriptedPeers<'a> {
    script: &'a Script,
    stats: &'a mut PeerStats,
    timed: bool,
    queue: Queue,
    pos: usize,
    end: usize,
    handshaken: bool,
    next_interval: usize,
    last_broadcast: Option<Stamp>,
    wire: Vec<u8>,
}

impl std::fmt::Debug for ScriptedPeers<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScriptedPeers")
            .field("next_interval", &self.next_interval)
            .finish_non_exhaustive()
    }
}

impl<'a> ScriptedPeers<'a> {
    /// Peers replaying `script`, reporting into `stats`. With `timed`, the
    /// host time inside `broadcast` and `recv` is measured too.
    pub fn new(script: &'a Script, stats: &'a mut PeerStats, timed: bool) -> Self {
        ScriptedPeers {
            script,
            stats,
            timed,
            queue: Queue::Beacons,
            pos: 0,
            end: 0,
            handshaken: false,
            next_interval: 0,
            last_broadcast: None,
            wire: Vec::with_capacity(64),
        }
    }

    fn enqueue(&mut self, queue: Queue) {
        let (pos, end) = match queue {
            Queue::Beacons => (0, self.script.beacons.len()),
            Queue::Interval(k) => (self.script.offsets[k], self.script.offsets[k + 1]),
        };
        self.queue = queue;
        self.pos = pos;
        self.end = end;
    }
}

impl Transport for ScriptedPeers<'_> {
    fn broadcast(&mut self, frame: &Frame) -> Result<(), NetError> {
        let started = now();
        // Encode as a real backend must: the codec is on the node's path.
        self.wire.clear();
        frame.encode_into(&mut self.wire);
        match frame.activity() {
            None if self.handshaken => self.stats.rebroadcasts += 1,
            None => {
                self.handshaken = true;
                self.enqueue(Queue::Beacons);
            }
            Some(body) => {
                let k = body.interval as usize;
                if k == self.next_interval && k < self.script.intervals {
                    if let Some(prev) = self.last_broadcast {
                        self.stats.interval_ns.push(sample_ns(prev, started));
                    }
                    self.last_broadcast = Some(started);
                    self.next_interval += 1;
                    self.enqueue(Queue::Interval(k));
                } else if k + 1 == self.next_interval {
                    self.stats.rebroadcasts += 1;
                } else {
                    return Err(NetError::Io(format!(
                        "scripted peers: frame for interval {k} while expecting {}",
                        self.next_interval
                    )));
                }
            }
        }
        if self.timed {
            self.stats.broadcast_ns += ns_between(started, now());
        }
        Ok(())
    }

    /// Returns the next scripted frame, or `None` at once when the peers
    /// have said everything for this step: nothing more can arrive, so
    /// waiting out `timeout` would only add idle time.
    fn recv(&mut self, _timeout: Duration) -> Result<Option<Frame>, NetError> {
        let started = self.timed.then(now);
        self.stats.recv_polls += 1;
        let result = if self.pos < self.end {
            let source = match self.queue {
                Queue::Beacons => &self.script.beacons,
                Queue::Interval(_) => &self.script.frames,
            };
            let (frame, used) = Frame::decode(&source[self.pos..self.end])?;
            self.pos += used;
            self.stats.frames_in += 1;
            self.stats.bytes_in += used as u64;
            Some(frame)
        } else {
            None
        };
        if let Some(started) = started {
            self.stats.recv_ns += ns_between(started, now());
        }
        Ok(result)
    }

    fn local_link(&self) -> usize {
        self.script.local
    }

    fn n_links(&self) -> usize {
        self.script.scenario.links
    }

    fn name(&self) -> &'static str {
        "scripted"
    }
}
