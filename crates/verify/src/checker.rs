//! The bounded exhaustive checker: DFS over reachable priority
//! permutations with every protocol decision enumerated.

use rtmac_mac::{DpIntervalReport, FrameKind, MacTiming, PairCoins, TraceEvent};
use rtmac_model::{DebtLedger, LinkId, Permutation, Requirements};
use rtmac_phy::PhyProfile;
use rtmac_sim::{Nanos, SeedStream};

use crate::channel::BitScript;
use crate::counterexample::{Counterexample, Step};
use crate::subject::Subject;

/// The safety properties asserted on every enumerated interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Property {
    /// No interval ever has two links transmitting in the same slot
    /// (Proposition 2 territory: the deterministic backoff construction).
    CollisionFreedom,
    /// σ stays a bijection of `1..=N` after every interval commit.
    SigmaBijection,
    /// At most one adjacent swap per drawn pair, only at drawn pairs, and
    /// σ changes by exactly the committed swaps — nothing else.
    SwapDiscipline,
    /// Swap candidates with no arrival enqueue the empty priority-claim
    /// packet (Step 2 of Algorithm 2), and nobody else ever sends one.
    EmptyClaim,
    /// The debt recursion `d_n(k+1) = d_n(k) − S_n(k) + q_n` matches the
    /// ledger's accounting bit-for-bit.
    DebtRecursion,
    /// The engine's attempt/delivery counters agree with the channel's
    /// own log, and deliveries never exceed arrivals.
    ChannelConsistency,
    /// Liveness of the reordering dynamics: every priority permutation is
    /// reachable from every other through the enumerated swap transitions
    /// (the σ transition graph is strongly connected). Checked globally
    /// after the DFS completes, not per interval.
    SigmaLiveness,
}

impl Property {
    /// Every property, in check order.
    pub const ALL: [Property; 7] = [
        Property::CollisionFreedom,
        Property::SigmaBijection,
        Property::SwapDiscipline,
        Property::EmptyClaim,
        Property::DebtRecursion,
        Property::ChannelConsistency,
        Property::SigmaLiveness,
    ];

    /// The stable kebab-case id used in counterexample traces.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Property::CollisionFreedom => "collision-freedom",
            Property::SigmaBijection => "sigma-bijection",
            Property::SwapDiscipline => "swap-discipline",
            Property::EmptyClaim => "empty-claim",
            Property::DebtRecursion => "debt-recursion",
            Property::ChannelConsistency => "channel-consistency",
            Property::SigmaLiveness => "sigma-liveness",
        }
    }

    /// Inverts [`Property::label`].
    #[must_use]
    pub fn from_label(label: &str) -> Option<Property> {
        Property::ALL.iter().copied().find(|p| p.label() == label)
    }
}

impl std::fmt::Display for Property {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One bounded configuration: `N` links, up to `A_max` arrivals per link,
/// a payload size, and the uniform debt requirement `q` used by the
/// debt-recursion shadow check.
///
/// The interval deadline is derived from the arrival bound so the
/// all-failure channel path can only provoke a small, bounded number of
/// transmission attempts — that is what keeps the per-interval channel
/// tree finite and small.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckConfig {
    /// Number of links `N`.
    pub n: usize,
    /// Maximum packets arriving per link per interval.
    pub a_max: u32,
    /// Data payload size in bytes.
    pub payload_bytes: u32,
    /// Uniform per-link timely-throughput requirement for the debt shadow.
    pub q: f64,
}

impl CheckConfig {
    /// A configuration with the default 100 B payload and `q = 0.7`.
    ///
    /// # Panics
    ///
    /// Panics if `n ∉ 2..=6` or `a_max > 4` (the enumeration would not be
    /// small any more).
    #[must_use]
    pub fn new(n: usize, a_max: u32) -> Self {
        assert!(
            (2..=6).contains(&n),
            "bounded checking supports 2..=6 links"
        );
        assert!(a_max <= 4, "A_max above 4 explodes the interval tree");
        CheckConfig {
            n,
            a_max,
            payload_bytes: 100,
            q: 0.7,
        }
    }

    /// The derived timing: a deadline that fits every arrival plus two
    /// empty claims plus slot margin, so retries are bounded. A deadline
    /// beyond `u64` nanoseconds saturates at [`Nanos::MAX`];
    /// [`Counterexample::decode`] rejects such a configuration.
    #[must_use]
    pub fn timing(&self) -> MacTiming {
        let phy = PhyProfile::ieee80211a();
        let deadline = self.deadline(&phy).unwrap_or(Nanos::MAX);
        MacTiming::new(phy, deadline, self.payload_bytes)
    }

    /// The deadline of [`CheckConfig::timing`], or `None` when it does not
    /// fit in `u64` nanoseconds.
    pub(crate) fn deadline(&self, phy: &PhyProfile) -> Option<Nanos> {
        let data = phy.checked_packet_exchange_airtime(self.payload_bytes)?;
        let frames = (self.n as u64).checked_mul(u64::from(self.a_max))? + 1;
        data.checked_mul(frames)?
            .checked_add(phy.empty_packet_airtime() * 2)?
            .checked_add(phy.slot() * (self.n as u64 + 6))
    }

    /// The uniform requirements of the debt shadow.
    pub(crate) fn requirements(&self) -> Requirements {
        // q is validated at construction/decode time; uniform() only
        // rejects negative or non-finite values.
        Requirements::uniform(self.n, self.q).unwrap_or_else(|_| unreachable!())
    }
}

/// One entry of a verification suite: a bounded configuration plus the
/// exploration mode (plain DFS over all `N!` states, or the
/// symmetry-reduced quotient DFS of [`crate::check_with_symmetry`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteEntry {
    /// The bounded configuration.
    pub cfg: CheckConfig,
    /// Quotient the σ-DFS by full link relabeling (all links equivalent).
    pub symmetric: bool,
}

/// The quick CI gate: exhaustive N = 2 and N = 3 with up to two arrivals
/// per link.
#[must_use]
pub fn quick_suite() -> Vec<SuiteEntry> {
    vec![
        SuiteEntry {
            cfg: CheckConfig::new(2, 2),
            symmetric: false,
        },
        SuiteEntry {
            cfg: CheckConfig::new(3, 2),
            symmetric: false,
        },
    ]
}

/// The full suite: quick plus exhaustive N = 4 with 0/1 arrivals, plus
/// symmetry-reduced N = 5 (quotiented by link relabeling — see
/// [`crate::check_with_symmetry`]).
#[must_use]
pub fn full_suite() -> Vec<SuiteEntry> {
    let mut suite = quick_suite();
    suite.push(SuiteEntry {
        cfg: CheckConfig::new(4, 1),
        symmetric: false,
    });
    suite.push(SuiteEntry {
        cfg: CheckConfig::new(5, 1),
        symmetric: true,
    });
    suite
}

/// What an exhaustive run covered.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckStats {
    /// Distinct priority permutations reached (≤ `N!`).
    pub sigma_states: u64,
    /// Interval transitions checked — one per enumerated
    /// `(σ, arrivals, C, ξ, channel bits)` combination.
    pub transitions: u64,
    /// Longest channel outcome sequence any interval consumed.
    pub max_channel_bits: usize,
}

/// The per-step inputs shared by [`check`] and counterexample replay.
pub(crate) struct StepInput<'a> {
    pub sigma_before: &'a Permutation,
    pub arrivals: &'a [u32],
    pub candidates: &'a [usize],
    pub coins: &'a [PairCoins],
}

/// The precomputed per-interval decision tables a bounded configuration
/// enumerates from every σ state: all arrival patterns, all non-adjacent
/// candidate sets, and (per set size) all coin vectors.
pub(crate) struct TransitionTables {
    pub patterns: Vec<Vec<u32>>,
    pub cand_sets: Vec<Vec<usize>>,
    /// `coin_tables[k]` holds every ξ vector for a k-pair candidate set.
    pub coin_tables: Vec<Vec<Vec<PairCoins>>>,
}

impl TransitionTables {
    pub(crate) fn new(cfg: &CheckConfig) -> Self {
        let cand_sets = nonadjacent_candidate_sets(cfg.n);
        let max_pairs = cand_sets.iter().map(Vec::len).max().unwrap_or(0);
        TransitionTables {
            patterns: arrival_patterns(cfg.n, cfg.a_max),
            cand_sets,
            coin_tables: (0..=max_pairs).map(coin_vectors).collect(),
        }
    }
}

/// Enumerates every interval transition out of `sigma` — all arrival
/// patterns × non-adjacent candidate sets × coin vectors × per-attempt
/// channel outcomes — checking every per-interval [`Property`] on each,
/// and hands `(step, σ_after)` to `on_transition` for successor
/// bookkeeping. Shared by the plain DFS ([`check`]) and the
/// symmetry-reduced DFS ([`crate::check_with_symmetry`]).
///
/// On a violation, returns the failing step together with the violated
/// property and its detail; the caller prepends its own path to the
/// starting state.
pub(crate) fn explore_from(
    subject: &mut dyn Subject,
    cfg: &CheckConfig,
    timing: &MacTiming,
    sigma: &Permutation,
    tables: &TransitionTables,
    stats: &mut CheckStats,
    on_transition: &mut dyn FnMut(&Step, &Permutation),
) -> Result<(), Box<(Step, Property, String)>> {
    for arrivals in &tables.patterns {
        for candidates in &tables.cand_sets {
            for coin_vec in &tables.coin_tables[candidates.len()] {
                // Channel DFS: the all-success run reveals how many
                // attempts the interval makes; each defaulted success
                // is branched to a failure prefix and re-run.
                let mut prefixes: Vec<Vec<bool>> = vec![Vec::new()];
                while let Some(prefix) = prefixes.pop() {
                    let prefix_len = prefix.len();
                    let input = StepInput {
                        sigma_before: sigma,
                        arrivals,
                        candidates,
                        coins: coin_vec,
                    };
                    let (bits, verdict) = run_checked_step(subject, cfg, timing, &input, prefix);
                    assert!(
                        bits.len() <= 63,
                        "channel bit budget exceeded ({} bits)",
                        bits.len()
                    );
                    stats.transitions += 1;
                    stats.max_channel_bits = stats.max_channel_bits.max(bits.len());
                    let this_step = Step {
                        sigma_before: sigma.priorities().to_vec(),
                        arrivals: arrivals.clone(),
                        candidates: candidates.clone(),
                        coins: coin_vec.clone(),
                        bits: bits.clone(),
                    };
                    if let Err((property, detail)) = verdict {
                        return Err(Box::new((this_step, property, detail)));
                    }
                    for i in prefix_len..bits.len() {
                        if bits[i] {
                            let mut next = bits[..i].to_vec();
                            next.push(false);
                            prefixes.push(next);
                        }
                    }
                    on_transition(&this_step, subject.sigma());
                }
            }
        }
    }
    Ok(())
}

/// Exhaustively checks every reachable interval of `subject` under `cfg`.
///
/// Starting from the identity permutation, enumerates all arrival
/// patterns × candidate draws × coin vectors × channel outcome sequences
/// for every reachable σ (DFS, visited set indexed by
/// [`Permutation::rank`]), asserting every [`Property`] on each
/// transition.
///
/// # Errors
///
/// Returns the first violation as a replayable [`Counterexample`] whose
/// steps lead from the identity permutation to the failing interval.
///
/// # Panics
///
/// Panics if the subject's link count disagrees with the configuration,
/// or if an interval consumes more than 63 channel bits (impossible under
/// the derived deadline — a guard against misconfigured subjects).
pub fn check(
    subject: &mut dyn Subject,
    cfg: &CheckConfig,
) -> Result<CheckStats, Box<Counterexample>> {
    assert_eq!(
        subject.n_links(),
        cfg.n,
        "subject link count must match the configuration"
    );
    let n = cfg.n;
    let timing = cfg.timing();
    let nfact = factorial(n) as usize;
    let mut visited = vec![false; nfact];
    let mut pred: Vec<Option<(usize, Step)>> =
        std::iter::repeat_with(|| None).take(nfact).collect();
    let start = Permutation::identity(n).rank() as usize;
    visited[start] = true;
    let mut stack = vec![start];
    let tables = TransitionTables::new(cfg);
    let mut stats = CheckStats::default();
    // σ transition edges (deduplicated), for the liveness check: the
    // reverse adjacency list answers "which states step directly into v?".
    let mut edge_seen = vec![false; nfact * nfact];
    let mut rev_edges: Vec<Vec<usize>> = vec![Vec::new(); nfact];

    while let Some(rank) = stack.pop() {
        stats.sigma_states += 1;
        let sigma = Permutation::from_rank(n, rank as u64);
        let explored = explore_from(
            subject,
            cfg,
            &timing,
            &sigma,
            &tables,
            &mut stats,
            &mut |step, sigma_after| {
                let after = sigma_after.rank() as usize;
                if after != rank && !edge_seen[rank * nfact + after] {
                    edge_seen[rank * nfact + after] = true;
                    rev_edges[after].push(rank);
                }
                if !visited[after] {
                    visited[after] = true;
                    pred[after] = Some((rank, step.clone()));
                    stack.push(after);
                }
            },
        );
        if let Err(found) = explored {
            let (step, property, detail) = *found;
            let mut steps = path_to(&pred, start, rank);
            steps.push(step);
            return Err(Box::new(Counterexample {
                property,
                detail,
                n: cfg.n,
                a_max: cfg.a_max,
                payload_bytes: cfg.payload_bytes,
                q: cfg.q,
                seed: None,
                steps,
            }));
        }
    }

    // Liveness: identity reaches every permutation (forward DFS coverage)
    // and every reached permutation can step back to identity (backward
    // BFS over the reversed transition edges) — together, the σ transition
    // graph is strongly connected, so every permutation is reachable from
    // every other.
    if let Some(unreached) = visited.iter().position(|&v| !v) {
        return Err(Box::new(Counterexample {
            property: Property::SigmaLiveness,
            detail: format!(
                "σ = {} is unreachable from the identity permutation under swap dynamics",
                Permutation::from_rank(n, unreached as u64)
            ),
            n: cfg.n,
            a_max: cfg.a_max,
            payload_bytes: cfg.payload_bytes,
            q: cfg.q,
            seed: None,
            steps: Vec::new(),
        }));
    }
    let mut reaches_identity = vec![false; nfact];
    reaches_identity[start] = true;
    let mut queue = vec![start];
    while let Some(v) = queue.pop() {
        for &u in &rev_edges[v] {
            if !reaches_identity[u] {
                reaches_identity[u] = true;
                queue.push(u);
            }
        }
    }
    if let Some(trapped) = reaches_identity.iter().position(|&r| !r) {
        return Err(Box::new(Counterexample {
            property: Property::SigmaLiveness,
            detail: format!(
                "σ = {} cannot return to the identity permutation under swap dynamics",
                Permutation::from_rank(n, trapped as u64)
            ),
            n: cfg.n,
            a_max: cfg.a_max,
            payload_bytes: cfg.payload_bytes,
            q: cfg.q,
            seed: None,
            steps: path_to(&pred, start, trapped),
        }));
    }
    Ok(stats)
}

/// Sets σ, runs one fully injected interval, and checks every property.
/// Always returns the consumed channel bits so the caller can branch the
/// channel tree even on failure.
pub(crate) fn run_checked_step(
    subject: &mut dyn Subject,
    cfg: &CheckConfig,
    timing: &MacTiming,
    input: &StepInput<'_>,
    forced: Vec<bool>,
) -> (Vec<bool>, Result<(), (Property, String)>) {
    subject.set_sigma(input.sigma_before.clone());
    let mut channel = BitScript::new(cfg.n, forced);
    // The channel is fully scripted; the RNG is inert but required by the
    // LossModel signature.
    let mut rng = SeedStream::new(0).rng(0);
    let report = subject.run_interval(
        input.arrivals,
        input.candidates,
        input.coins,
        &mut channel,
        &mut rng,
    );
    let verdict = check_properties(cfg, timing, input, &report, channel.log(), subject.sigma());
    (channel.bits(), verdict)
}

/// Asserts every [`Property`] on one completed interval.
fn check_properties(
    cfg: &CheckConfig,
    timing: &MacTiming,
    input: &StepInput<'_>,
    report: &DpIntervalReport,
    log: &[(LinkId, bool)],
    sigma_after: &Permutation,
) -> Result<(), (Property, String)> {
    let n = cfg.n;
    let out = &report.outcome;

    // (1) Collision-freedom.
    if out.collisions != 0 {
        return Err((
            Property::CollisionFreedom,
            format!("{} collision episode(s) in one interval", out.collisions),
        ));
    }

    // (2) σ stays a bijection of 1..=N.
    if sigma_after.len() != n
        || Permutation::from_priorities(sigma_after.priorities().to_vec()).is_err()
    {
        return Err((
            Property::SigmaBijection,
            format!("σ after the interval is not a bijection of 1..={n}: {sigma_after}"),
        ));
    }

    // (3) Swap discipline: committed swaps are a strictly increasing
    // subset of the drawn candidates, and σ changed by exactly them.
    if report.swaps.len() > input.candidates.len() {
        return Err((
            Property::SwapDiscipline,
            format!(
                "{} swaps committed from {} drawn pair(s)",
                report.swaps.len(),
                input.candidates.len()
            ),
        ));
    }
    let mut expected = input.sigma_before.clone();
    let mut prev_upper = 0usize;
    for t in &report.swaps {
        if !input.candidates.contains(&t.upper()) {
            return Err((
                Property::SwapDiscipline,
                format!(
                    "swap at priority {} was never drawn as a candidate ({:?})",
                    t.upper(),
                    input.candidates
                ),
            ));
        }
        if t.upper() <= prev_upper {
            return Err((
                Property::SwapDiscipline,
                format!(
                    "pair at priority {} committed more than one swap",
                    t.upper()
                ),
            ));
        }
        prev_upper = t.upper();
        expected.apply(*t);
    }
    if &expected != sigma_after {
        return Err((
            Property::SwapDiscipline,
            format!(
                "σ changed beyond the committed swaps: expected {expected}, subject holds {sigma_after}"
            ),
        ));
    }

    // (4) Empty priority claims: exactly the arrival-free candidates send
    // them, and an unsent claim is only excusable when the deadline was
    // too close to fit it (in which case the interval ends nearly full).
    let mut claimants: Vec<usize> = Vec::new();
    for &c in input.candidates {
        for link in [
            input.sigma_before.link_with_priority(c),
            input.sigma_before.link_with_priority(c + 1),
        ] {
            if input.arrivals[link.index()] == 0 {
                claimants.push(link.index());
            }
        }
    }
    let mut empty_tx: Vec<usize> = report
        .trace
        .iter()
        .filter_map(|ev| match ev {
            TraceEvent::TxStart {
                link,
                kind: FrameKind::Empty,
                ..
            } => Some(link.index()),
            _ => None,
        })
        .collect();
    if empty_tx.len() as u64 != out.empty_packets {
        return Err((
            Property::EmptyClaim,
            format!(
                "trace shows {} empty frame(s) but the outcome counts {}",
                empty_tx.len(),
                out.empty_packets
            ),
        ));
    }
    for &l in &empty_tx {
        if !claimants.contains(&l) {
            return Err((
                Property::EmptyClaim,
                format!("link {l} sent an empty claim without being an arrival-free candidate"),
            ));
        }
    }
    empty_tx.sort_unstable();
    if empty_tx.windows(2).any(|w| w[0] == w[1]) {
        return Err((
            Property::EmptyClaim,
            "a link sent its empty claim twice".to_string(),
        ));
    }
    // A claimant may only be skipped near the deadline: at most (N+3)
    // idle slot boundaries separate the last busy instant from the skip,
    // so ample leftover time proves every claim must have been sent.
    let threshold = timing.empty_airtime() + timing.slot() * (n as u64 + 3);
    if out.leftover >= threshold && empty_tx.len() != claimants.len() {
        return Err((
            Property::EmptyClaim,
            format!(
                "{} of {} arrival-free candidate(s) sent the empty claim with {} left",
                empty_tx.len(),
                claimants.len(),
                out.leftover
            ),
        ));
    }

    // (5) Debt recursion, bit-for-bit against a shadow computation that
    // mirrors the ledger's exact operation order.
    let mut ledger = DebtLedger::new(cfg.requirements());
    ledger.settle_interval(&out.deliveries);
    ledger.settle_interval(&out.deliveries);
    for link in 0..n {
        let s = out.deliveries[link] as f64;
        let mut shadow = 0.0f64;
        shadow += cfg.q - s;
        shadow += cfg.q - s;
        let ledger_debt = ledger.debt(LinkId::new(link));
        if shadow.to_bits() != ledger_debt.to_bits() {
            return Err((
                Property::DebtRecursion,
                format!(
                    "link {link}: ledger debt {ledger_debt} != shadow recursion {shadow} \
                     after two settlements of S = {}",
                    out.deliveries[link]
                ),
            ));
        }
        if ledger.cumulative_deliveries(LinkId::new(link)) != out.deliveries[link] * 2 {
            return Err((
                Property::DebtRecursion,
                format!("link {link}: cumulative delivery counter diverged"),
            ));
        }
    }
    if ledger.interval() != 2 {
        return Err((
            Property::DebtRecursion,
            format!(
                "interval counter at {} after two settlements",
                ledger.interval()
            ),
        ));
    }

    // (6) Channel-log consistency.
    if out.total_attempts() != log.len() as u64 {
        return Err((
            Property::ChannelConsistency,
            format!(
                "subject reports {} attempt(s) but the channel answered {}",
                out.total_attempts(),
                log.len()
            ),
        ));
    }
    for link in 0..n {
        let l = LinkId::new(link);
        let attempts = log.iter().filter(|&&(ll, _)| ll == l).count() as u64;
        let successes = log.iter().filter(|&&(ll, b)| ll == l && b).count() as u64;
        if out.attempts[link] != attempts {
            return Err((
                Property::ChannelConsistency,
                format!(
                    "link {link}: {} attempt(s) reported, channel saw {attempts}",
                    out.attempts[link]
                ),
            ));
        }
        if out.deliveries[link] != successes {
            return Err((
                Property::ChannelConsistency,
                format!(
                    "link {link}: {} delivery(ies) reported, channel granted {successes}",
                    out.deliveries[link]
                ),
            ));
        }
        if out.deliveries[link] > u64::from(input.arrivals[link]) {
            return Err((
                Property::ChannelConsistency,
                format!(
                    "link {link}: delivered {} of {} arrival(s)",
                    out.deliveries[link], input.arrivals[link]
                ),
            ));
        }
    }

    Ok(())
}

/// Reconstructs the interval steps from the identity permutation to the
/// permutation at `rank`, following the DFS predecessor tree.
pub(crate) fn path_to(pred: &[Option<(usize, Step)>], start: usize, mut rank: usize) -> Vec<Step> {
    let mut reversed = Vec::new();
    while rank != start {
        // Every visited non-start rank has a predecessor by construction.
        let Some((prev, step)) = &pred[rank] else {
            break;
        };
        reversed.push(step.clone());
        rank = *prev;
    }
    reversed.reverse();
    reversed
}

/// All arrival vectors with each entry in `0..=a_max`.
fn arrival_patterns(n: usize, a_max: u32) -> Vec<Vec<u32>> {
    let mut patterns: Vec<Vec<u32>> = vec![Vec::new()];
    for _ in 0..n {
        let mut next = Vec::with_capacity(patterns.len() * (a_max as usize + 1));
        for base in &patterns {
            for a in 0..=a_max {
                let mut v = base.clone();
                v.push(a);
                next.push(v);
            }
        }
        patterns = next;
    }
    patterns
}

/// Every non-empty sorted candidate set over the upper priorities `1..n`
/// whose members are pairwise non-adjacent (gap ≥ 2) — exactly the sets
/// the engine's multi-pair draw can produce.
pub(crate) fn nonadjacent_candidate_sets(n: usize) -> Vec<Vec<usize>> {
    fn extend(sets: &mut Vec<Vec<usize>>, current: &mut Vec<usize>, n: usize, min: usize) {
        for c in min..n {
            current.push(c);
            sets.push(current.clone());
            extend(sets, current, n, c + 2);
            current.pop();
        }
    }
    let mut sets = Vec::new();
    extend(&mut sets, &mut Vec::new(), n, 1);
    sets
}

/// All `4^k` coin vectors for a `k`-pair candidate set, in bitmask order.
pub(crate) fn coin_vectors(k: usize) -> Vec<Vec<PairCoins>> {
    (0..1u64 << (2 * k))
        .map(|mask| {
            (0..k)
                .map(|i| PairCoins {
                    hi_up: mask >> (2 * i) & 1 == 1,
                    lo_up: mask >> (2 * i + 1) & 1 == 1,
                })
                .collect()
        })
        .collect()
}

/// `n!` as a `u64` (exact for `n ≤ 20`, the cap shared with
/// [`Permutation::rank`]).
pub(crate) fn factorial(n: usize) -> u64 {
    (1..=n as u64).product()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subject::EngineSubject;

    #[test]
    fn arrival_patterns_enumerate_the_full_grid() {
        let p = arrival_patterns(3, 2);
        assert_eq!(p.len(), 27);
        assert_eq!(p[0], [0, 0, 0]);
        assert_eq!(p[26], [2, 2, 2]);
        let mut unique = p.clone();
        unique.dedup();
        assert_eq!(unique.len(), 27);
    }

    #[test]
    fn candidate_sets_are_nonadjacent_and_complete() {
        // n = 5: singles {1},{2},{3},{4} plus pairs {1,3},{1,4},{2,4}.
        let sets = nonadjacent_candidate_sets(5);
        assert_eq!(sets.len(), 7);
        for s in &sets {
            assert!(!s.is_empty());
            assert!(s.windows(2).all(|w| w[1] - w[0] >= 2), "adjacent in {s:?}");
            assert!(s.iter().all(|&c| (1..5).contains(&c)));
        }
        // n = 2 and n = 3 admit only single pairs, so the multi-set
        // generalization leaves the quick suite's enumeration unchanged.
        assert!(nonadjacent_candidate_sets(3).iter().all(|s| s.len() == 1));
        assert_eq!(coin_vectors(0), vec![Vec::new()]);
        assert_eq!(coin_vectors(2).len(), 16);
    }

    #[test]
    fn property_labels_round_trip() {
        for p in Property::ALL {
            assert_eq!(Property::from_label(p.label()), Some(p));
            assert_eq!(p.to_string(), p.label());
        }
        assert_eq!(Property::from_label("no-such-property"), None);
    }

    #[test]
    fn smallest_config_passes_and_reaches_both_orderings() {
        let cfg = CheckConfig::new(2, 1);
        let mut subject = EngineSubject::new(cfg.timing(), cfg.n);
        let stats = check(&mut subject, &cfg).unwrap();
        assert_eq!(stats.sigma_states, 2, "both σ orderings must be reachable");
        assert!(stats.transitions > 0);
        assert!(stats.max_channel_bits >= 2);
    }

    #[test]
    fn deadline_bounds_the_channel_tree() {
        let cfg = CheckConfig::new(2, 2);
        let timing = cfg.timing();
        // The all-failure path can only squeeze a handful of attempts in.
        assert!(timing.max_transmissions() <= 8);
    }

    #[test]
    #[should_panic(expected = "2..=6 links")]
    fn oversized_config_rejected() {
        let _ = CheckConfig::new(7, 1);
    }
}
