//! The lockstep node's bookkeeping, frame by frame.
//!
//! A hand-written [`Transport`] plays the node's peers from fixed frame
//! lists built from a replica with [`link_frame`], so each test decides
//! exactly what reaches the node and in what order: duplicates, conflicts,
//! frames outside the horizon or from unknown links, stale and early
//! frames, a stream that never completes an interval, and a swallowed
//! broadcast.

use std::collections::VecDeque;
use std::sync::OnceLock;
use std::time::Duration;

use rtmac::scenario::{by_name, Scenario};
use rtmac_net::{
    link_frame, scenario_digest, sim_trace, Activity, Beacon, Frame, LinkNode, NetError,
    NodeConfig, NodeReport, Transport,
};

/// `tiny`'s link count.
const LINKS: usize = 3;

/// The link the node under test drives; its peers are links 1 and 2.
const ME: usize = 0;

/// How long a scripted peer set keeps answering before it reports the node
/// as stuck, so a node that ignores its timeout fails instead of hanging.
const GIVE_UP: Duration = Duration::from_secs(10);

/// The node's minimum spacing between broadcasts of the same frame.
const REBROADCAST: Duration = Duration::from_millis(250);

/// Host time since the first call. The node's sync timeout and rebroadcast
/// are wall-clock deadlines by design, and these tests measure them.
fn clock() -> Duration {
    // lint: allow(wall-clock) — the node's deadlines are host time; nothing decided reads this.
    static ORIGIN: OnceLock<std::time::Instant> = OnceLock::new();
    // lint: allow(wall-clock) — as above.
    ORIGIN.get_or_init(std::time::Instant::now).elapsed()
}

/// What the node did on the wire, stamped with [`clock`].
#[derive(Debug, Default)]
struct Log {
    /// Every broadcast: the activity frame's interval (`None` for a
    /// beacon) and when it began.
    sent: Vec<(Option<u64>, Duration)>,
    /// When each `recv` call that served nothing from the script began:
    /// a filler frame or nothing. None of these can be progress.
    stalls: Vec<Duration>,
}

impl Log {
    /// When the node first broadcast `interval`'s frame (`None`: its beacon).
    fn first_sent(&self, interval: Option<u64>) -> Duration {
        self.sent
            .iter()
            .find(|(k, _)| *k == interval)
            .map(|&(_, at)| at)
            .expect("the node broadcast it")
    }

    /// How many stalled `recv` calls began after `at`.
    fn stalls_after(&self, at: Duration) -> usize {
        self.stalls.iter().filter(|&&t| t > at).count()
    }
}

/// Scripted peers. The node's first beacon releases `beacons`; its first
/// heard activity broadcast for interval `k` releases `answers[k]`, after
/// the first `swallow` activity broadcasts reached nobody. With nothing
/// queued, `recv` cycles through `filler` at once or, when that is empty,
/// waits out its timeout like a quiet socket.
#[derive(Debug)]
struct Peers<'a> {
    beacons: Vec<Frame>,
    answers: Vec<Vec<Frame>>,
    filler: Vec<Frame>,
    swallow: usize,
    inbox: VecDeque<Frame>,
    answered: usize,
    handshaken: bool,
    next_filler: usize,
    give_up: Duration,
    log: &'a mut Log,
}

impl<'a> Peers<'a> {
    fn new(beacons: Vec<Frame>, answers: Vec<Vec<Frame>>, log: &'a mut Log) -> Self {
        Peers {
            beacons,
            answers,
            filler: Vec::new(),
            swallow: 0,
            inbox: VecDeque::new(),
            answered: 0,
            handshaken: false,
            next_filler: 0,
            give_up: clock() + GIVE_UP,
            log,
        }
    }
}

impl Transport for Peers<'_> {
    fn broadcast(&mut self, frame: &Frame) -> Result<(), NetError> {
        let interval = frame.activity().map(|a| a.interval);
        self.log.sent.push((interval, clock()));
        match interval {
            None if !self.handshaken => {
                self.handshaken = true;
                self.inbox.extend(self.beacons.iter().copied());
            }
            None => {}
            Some(_) if self.swallow > 0 => self.swallow -= 1,
            Some(k) if k as usize == self.answered && self.answered < self.answers.len() => {
                self.inbox
                    .extend(self.answers[self.answered].iter().copied());
                self.answered += 1;
            }
            Some(_) => {}
        }
        Ok(())
    }

    fn recv(&mut self, timeout: Duration) -> Result<Option<Frame>, NetError> {
        let now = clock();
        if now > self.give_up {
            return Err(NetError::Io(
                "the node ignored its sync timeout".to_string(),
            ));
        }
        if let Some(frame) = self.inbox.pop_front() {
            return Ok(Some(frame));
        }
        self.log.stalls.push(now);
        if !self.filler.is_empty() {
            let frame = self.filler[self.next_filler % self.filler.len()];
            self.next_filler += 1;
            return Ok(Some(frame));
        }
        std::thread::sleep(timeout);
        Ok(None)
    }

    fn local_link(&self) -> usize {
        ME
    }

    fn n_links(&self) -> usize {
        LINKS
    }

    fn name(&self) -> &'static str {
        "scripted"
    }
}

/// A `tiny` deployment of `intervals` intervals and every link's activity
/// frames, from a replica.
struct Case {
    sc: Scenario,
    intervals: usize,
    frames: Vec<Vec<Frame>>,
}

impl Case {
    fn new(intervals: usize) -> Self {
        let sc = by_name("tiny").expect("tiny is a registry scenario");
        assert_eq!(sc.links, LINKS);
        let mut net = sc.network().expect("tiny builds");
        let frames = (0..intervals as u64)
            .map(|k| {
                let outcome = net.step();
                (0..sc.links)
                    .map(|link| link_frame(&net, &outcome, k, link))
                    .collect()
            })
            .collect();
        Case {
            sc,
            intervals,
            frames,
        }
    }

    /// Link `link`'s frame for interval `k`.
    fn frame(&self, k: usize, link: usize) -> Frame {
        self.frames[k][link]
    }

    /// The peers' frames for interval `k`, in link order.
    fn peers(&self, k: usize) -> Vec<Frame> {
        (0..self.sc.links)
            .filter(|&link| link != ME)
            .map(|link| self.frame(k, link))
            .collect()
    }

    /// Every peer's frames, one list per interval.
    fn all_peers(&self) -> Vec<Vec<Frame>> {
        (0..self.intervals).map(|k| self.peers(k)).collect()
    }

    fn beacon(&self, link: usize) -> Frame {
        Frame::Beacon(Beacon {
            link: link as u32,
            links: self.sc.links as u32,
            seed: self.sc.seed,
            intervals: self.intervals as u64,
            config_digest: scenario_digest(&self.sc),
        })
    }

    /// Both peers' beacons.
    fn beacons(&self) -> Vec<Frame> {
        vec![self.beacon(1), self.beacon(2)]
    }

    /// Runs link `ME`'s node against `peers`.
    fn run(&self, peers: Peers<'_>, sync_timeout: Duration) -> Result<NodeReport, NetError> {
        let mut cfg = NodeConfig::new(self.sc.clone(), self.intervals);
        cfg.sync_timeout = sync_timeout;
        LinkNode::new(peers, cfg)?.run()
    }

    /// Asserts that `run` is the deployment's trace, as the sim computes it.
    fn assert_replayed(&self, run: Result<NodeReport, NetError>) {
        let report = run.expect("the node completes");
        let sim = sim_trace(&self.sc, self.intervals).expect("sim trace runs");
        assert_eq!(report.fingerprint, sim.fingerprint);
        assert_eq!(report.frames, (self.sc.links * self.intervals) as u64);
    }
}

/// `frame` with its activity body edited.
fn altered(frame: Frame, edit: impl FnOnce(&mut Activity)) -> Frame {
    let mut body = *frame.activity().expect("an activity frame");
    edit(&mut body);
    Frame::from_activity(frame.kind(), body).expect("an activity kind")
}

#[test]
fn identical_duplicate_is_not_counted_twice() {
    let case = Case::new(2);
    let mut log = Log::default();
    let dup = case.frame(0, 1);
    let peers = Peers::new(case.beacons(), vec![vec![dup, dup]], &mut log);
    let run = case.run(peers, Duration::from_millis(100));
    assert!(
        matches!(
            run,
            Err(NetError::Timeout {
                interval: 0,
                waiting_for: 2
            })
        ),
        "link 2 never spoke, got {run:?}"
    );
}

#[test]
fn conflicting_duplicate_is_a_desync() {
    let case = Case::new(2);
    let mut log = Log::default();
    let first = case.frame(0, 1);
    let second = altered(first, |a| a.state_digest ^= 1);
    let answers = vec![vec![first, second, case.frame(0, 2)]];
    let run = case.run(
        Peers::new(case.beacons(), answers, &mut log),
        Duration::from_secs(5),
    );
    assert!(
        matches!(
            run,
            Err(NetError::Desync {
                interval: 0,
                link: 1,
                ..
            })
        ),
        "got {run:?}"
    );
}

#[test]
fn frame_at_or_beyond_the_horizon_is_a_desync() {
    let case = Case::new(2);
    for interval in [2, 3, u64::MAX] {
        let mut log = Log::default();
        let late = altered(case.frame(0, 1), |a| a.interval = interval);
        let run = case.run(
            Peers::new(case.beacons(), vec![vec![late]], &mut log),
            Duration::from_secs(5),
        );
        assert!(
            matches!(run, Err(NetError::Desync { interval: k, link: 1, .. }) if k == interval),
            "interval {interval}: got {run:?}"
        );
    }
}

#[test]
fn frame_from_an_unknown_link_is_a_desync() {
    let case = Case::new(2);
    for link in [3, u32::MAX] {
        let mut log = Log::default();
        let stranger = altered(case.frame(0, 1), |a| a.link = link);
        let run = case.run(
            Peers::new(case.beacons(), vec![vec![stranger]], &mut log),
            Duration::from_secs(5),
        );
        assert!(
            matches!(run, Err(NetError::Desync { interval: 0, link: l, .. }) if l == link as usize),
            "link {link}: got {run:?}"
        );
    }
}

#[test]
fn stale_frame_is_dropped() {
    let case = Case::new(2);
    let mut log = Log::default();
    // At interval 1, interval 0's frames are stale: a repeat and even two
    // conflicting copies are dropped unchecked.
    let repeat = case.frame(0, 1);
    let conflicting = altered(repeat, |a| a.state_digest ^= 1);
    let mut answers = case.all_peers();
    answers[1].splice(0..0, [repeat, conflicting]);
    case.assert_replayed(case.run(
        Peers::new(case.beacons(), answers, &mut log),
        Duration::from_secs(5),
    ));
}

#[test]
fn frame_one_interval_ahead_is_buffered_and_used() {
    let case = Case::new(2);
    // Link 2's interval-1 frame arrives during interval 0 and is never
    // sent again.
    let mut log = Log::default();
    let answers = vec![
        vec![case.frame(1, 2), case.frame(0, 1), case.frame(0, 2)],
        vec![case.frame(1, 1)],
    ];
    case.assert_replayed(case.run(
        Peers::new(case.beacons(), answers, &mut log),
        Duration::from_secs(5),
    ));

    // A peer already past its handshake: its interval-0 frame arrives
    // between the beacons, and the node keeps it.
    let mut log = Log::default();
    let beacons = vec![case.beacon(1), case.frame(0, 1), case.beacon(2)];
    let answers = vec![vec![case.frame(0, 2)], case.peers(1)];
    case.assert_replayed(case.run(
        Peers::new(beacons, answers, &mut log),
        Duration::from_secs(5),
    ));
}

#[test]
fn duplicates_and_beacons_alone_still_end_in_timeout() {
    // The peers answer every poll at once, but never with anything new.
    // The node must still give up at its first poll past the deadline that
    // brought nothing new: with a real transport, within one 5 ms receive
    // slice of it.
    let case = Case::new(2);
    let sync_timeout = Duration::from_millis(100);
    let (dup, b1, b2) = (case.frame(0, 1), case.beacon(1), case.beacon(2));
    // Mid-run, after link 1's frame; then in the handshake, after link 1's
    // beacon. Link 2 is never heard.
    let mid_run = (case.beacons(), vec![vec![dup]], Some(0));
    let handshake = (vec![b1], Vec::new(), None);
    for ((beacons, answers, interval), filler) in [
        (mid_run.clone(), vec![dup]),
        (mid_run.clone(), vec![b1, b2]),
        (mid_run, vec![dup, b1, b2]),
        (handshake.clone(), vec![dup]),
        (handshake.clone(), vec![b1]),
        (handshake, vec![b1, dup]),
    ] {
        let mut log = Log::default();
        let mut peers = Peers::new(beacons, answers, &mut log);
        peers.filler = filler;
        let started = clock();
        let run = case.run(peers, sync_timeout).map(|_| ());
        assert!(clock() - started > sync_timeout);
        let timed_out = NetError::Timeout {
            interval: 0,
            waiting_for: 2,
        };
        assert_eq!(run, Err(timed_out), "interval {interval:?}");
        let deadline = log.first_sent(interval) + sync_timeout;
        assert!(log.stalls_after(deadline) <= 1, "interval {interval:?}");
    }
}

#[test]
fn swallowed_first_broadcast_is_repaired_by_the_rebroadcast() {
    let case = Case::new(2);
    let mut log = Log::default();
    let mut peers = Peers::new(case.beacons(), case.all_peers(), &mut log);
    peers.swallow = 1;
    case.assert_replayed(case.run(peers, Duration::from_secs(5)));
    let repeats: Vec<Duration> = log
        .sent
        .iter()
        .filter(|(k, _)| *k == Some(0))
        .map(|&(_, at)| at)
        .collect();
    assert_eq!(repeats.len(), 2, "one rebroadcast repairs the loss");
    assert!(repeats[1] - repeats[0] >= REBROADCAST);
}
