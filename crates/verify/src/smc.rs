//! Statistical model checking: seeded Monte-Carlo exploration of the DP
//! decision space at network sizes the exhaustive DFS cannot reach.
//!
//! # Sampling model
//!
//! One *sample* is a full protocol trajectory of [`SmcConfig::depth`]
//! intervals. Its first interval starts from a priority permutation drawn
//! uniformly over all `N!` (via a uniform Lehmer rank), and every interval
//! draws the complete decision vector the exhaustive checker would
//! enumerate: an arrival pattern uniform over `{0..=A_max}^N`, a
//! non-adjacent swap-candidate *set* (size uniform in
//! `1..=`[`SmcConfig::max_pairs`], members via the engine's own rejection
//! draw), fair coin flips ξ per pair, and an independent fair coin per
//! channel attempt (pre-drawn as a [`crate::BitScript`] prefix long
//! enough that the deadline is hit before the prefix runs out). Later
//! intervals continue from the σ the previous interval produced, so a
//! trajectory exercises the protocol's actual reordering dynamics, not
//! just isolated states.
//!
//! All randomness for sample `i` derives from
//! `SeedStream::new(seed).substream(i)`, so every sample is an i.i.d.
//! draw from the same trajectory distribution **and** the whole run is
//! reproducible bit-for-bit regardless of how samples are batched across
//! the worker pool.
//!
//! # What is reported
//!
//! Every interval is checked against the six per-interval properties of
//! [`Property`]; a trajectory *violates* property P if any of its
//! intervals does. Since trajectories are i.i.d. Bernoulli trials for
//! each P, the run reports an exact two-sided Clopper–Pearson interval
//! ([`clopper_pearson`]) for each violation probability at the requested
//! confidence. Zero observed violations in `n` samples still carry
//! information: the upper bound is `1 − (α/2)^{1/n}`, e.g. ≤ 5.3 × 10⁻⁵
//! at `n = 100 000, confidence 0.99`.
//!
//! The global `sigma-liveness` property has no per-trajectory Bernoulli
//! reading, so it is probed statistically instead: for every upper
//! priority `c` the run tallies how often a candidate pair at `c` was
//! drawn and how often the corresponding adjacent swap committed. A pair
//! drawn at least [`LIVENESS_MIN_DRAWS`] times with *zero* commits is
//! reported as a liveness violation — this is what convicts
//! frozen-σ mutants that pass every per-interval check.
//!
//! The first violating sample (lowest sample index, independent of
//! batching) is returned as a replayable [`Counterexample`] whose `seed`
//! field records the run seed.

use rtmac::runner::Runner;
use rtmac_mac::{draw_nonadjacent_candidates, MacTiming, PairCoins};
use rtmac_model::Permutation;
use rtmac_sim::SeedStream;

use rand::Rng;

use crate::checker::{factorial, run_checked_step, CheckConfig, Property, StepInput};
use crate::counterexample::{Counterexample, Step};
use crate::subject::Subject;

/// Minimum number of observed draws of a candidate pair before zero
/// committed swaps at that pair counts as a `sigma-liveness` violation.
///
/// With fair coins and a clean channel a drawn pair commits with
/// probability ≥ 1/4 per draw, so 64 commit-free draws have probability
/// below `(3/4)^64 < 10^{-8}` on a live engine.
pub const LIVENESS_MIN_DRAWS: u64 = 64;

/// Configuration of one statistical model-checking run.
#[derive(Debug, Clone, PartialEq)]
pub struct SmcConfig {
    /// Number of links `N` (2..=20).
    pub n: usize,
    /// Per-link arrival bound `A_max` sampled per interval.
    pub a_max: u32,
    /// Data payload size in bytes.
    pub payload_bytes: u32,
    /// Uniform debt requirement for the debt-recursion shadow.
    pub q: f64,
    /// Number of sampled trajectories.
    pub samples: u64,
    /// Intervals per trajectory.
    pub depth: u32,
    /// Two-sided confidence level of the Clopper–Pearson bounds.
    pub confidence: f64,
    /// Root seed; sample `i` uses `SeedStream::new(seed).substream(i)`.
    pub seed: u64,
    /// Largest swap-candidate set size drawn per interval.
    pub max_pairs: usize,
}

impl SmcConfig {
    /// A run over `n` links with `samples` trajectories and the defaults
    /// used throughout the repo: `A_max = 2`, 100 B payloads, `q = 0.7`,
    /// depth 4, confidence 0.99, seed 2018, candidate sets up to `⌊N/2⌋`
    /// pairs.
    ///
    /// # Panics
    ///
    /// Panics if `n ∉ 2..=20` (the [`Permutation::rank`] cap) or
    /// `samples == 0`.
    #[must_use]
    pub fn new(n: usize, samples: u64) -> Self {
        assert!(
            (2..=20).contains(&n),
            "statistical checking supports 2..=20 links"
        );
        assert!(samples > 0, "at least one sample is required");
        SmcConfig {
            n,
            a_max: 2,
            payload_bytes: 100,
            q: 0.7,
            samples,
            depth: 4,
            confidence: 0.99,
            seed: 2018,
            max_pairs: (n / 2).max(1),
        }
    }

    /// Replaces the root seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the confidence level (must lie strictly in `(0, 1)`).
    ///
    /// # Panics
    ///
    /// Panics on a confidence outside `(0, 1)`.
    #[must_use]
    pub fn with_confidence(mut self, confidence: f64) -> Self {
        assert!(
            confidence > 0.0 && confidence < 1.0,
            "confidence must lie strictly between 0 and 1"
        );
        self.confidence = confidence;
        self
    }

    /// Replaces the trajectory depth (≥ 1 intervals).
    ///
    /// # Panics
    ///
    /// Panics if `depth == 0`.
    #[must_use]
    pub fn with_depth(mut self, depth: u32) -> Self {
        assert!(depth > 0, "a trajectory needs at least one interval");
        self.depth = depth;
        self
    }

    /// Replaces the per-link arrival bound.
    #[must_use]
    pub fn with_a_max(mut self, a_max: u32) -> Self {
        self.a_max = a_max;
        self
    }

    /// The bounded per-interval configuration shared with the exhaustive
    /// checker (same property oracle, same derived deadline).
    #[must_use]
    pub fn check_config(&self) -> CheckConfig {
        CheckConfig {
            n: self.n,
            a_max: self.a_max,
            payload_bytes: self.payload_bytes,
            q: self.q,
        }
    }
}

/// The Clopper–Pearson interval for one property's violation probability.
#[derive(Debug, Clone, PartialEq)]
pub struct PropertyBound {
    /// The property.
    pub property: Property,
    /// Trajectories on which it was violated.
    pub violations: u64,
    /// Exact two-sided lower confidence bound on the violation
    /// probability.
    pub lower: f64,
    /// Exact two-sided upper confidence bound on the violation
    /// probability.
    pub upper: f64,
}

/// Per-upper-priority tallies of the statistical `sigma-liveness` probe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LivenessProbe {
    /// `draws[c − 1]` — intervals in which the pair at upper priority `c`
    /// was a drawn swap candidate.
    pub draws: Vec<u64>,
    /// `commits[c − 1]` — intervals in which the adjacent swap at `c`
    /// actually committed.
    pub commits: Vec<u64>,
}

impl LivenessProbe {
    /// Upper priorities drawn at least `min_draws` times without a single
    /// committed swap — evidence that the reordering dynamics are stuck.
    #[must_use]
    pub fn starved(&self, min_draws: u64) -> Vec<usize> {
        (0..self.draws.len())
            .filter(|&i| self.draws[i] >= min_draws && self.commits[i] == 0)
            .map(|i| i + 1)
            .collect()
    }
}

/// The result of one statistical model-checking run.
#[derive(Debug, Clone)]
pub struct SmcReport {
    /// Trajectories sampled.
    pub samples: u64,
    /// Intervals actually executed (≤ `samples × depth`; violating
    /// trajectories stop early).
    pub intervals: u64,
    /// The confidence level the bounds were computed at.
    pub confidence: f64,
    /// One Clopper–Pearson bound per per-interval property, in
    /// [`Property::ALL`] order.
    pub bounds: Vec<PropertyBound>,
    /// The `sigma-liveness` probe tallies.
    pub liveness: LivenessProbe,
    /// The first violating sample's replayable trace, if any.
    pub counterexample: Option<Box<Counterexample>>,
}

impl SmcReport {
    /// Total violating trajectories across all per-interval properties.
    #[must_use]
    pub fn violations(&self) -> u64 {
        self.bounds.iter().map(|b| b.violations).sum()
    }

    /// `true` when no property was violated and the liveness probe found
    /// no starved pair.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations() == 0 && self.counterexample.is_none()
    }
}

/// Per-batch accumulator merged in sample order.
struct BatchOut {
    violations: [u64; 6],
    intervals: u64,
    draws: Vec<u64>,
    commits: Vec<u64>,
    first_ce: Option<Box<Counterexample>>,
}

impl BatchOut {
    fn new(n: usize) -> Self {
        BatchOut {
            violations: [0; 6],
            intervals: 0,
            draws: vec![0; n - 1],
            commits: vec![0; n - 1],
            first_ce: None,
        }
    }
}

/// Runs a statistical model-checking run on `runner`'s worker pool.
///
/// `make_subject` builds one fresh subject per worker batch (subjects
/// need not be `Send`; each lives entirely inside its batch). The result
/// is bit-identical for any worker count: all randomness keys off the
/// sample index, the reported counterexample is always the lowest-index
/// violating sample's, and the batch geometry itself is a fixed function
/// of the sample budget — the batches are only *scheduled* onto the
/// runner's worker pool, never shaped by it.
///
/// ```
/// use rtmac::runner::Runner;
/// use rtmac_verify::{smc, EngineSubject, SmcConfig};
///
/// let cfg = SmcConfig::new(6, 32).with_seed(7);
/// let check_cfg = cfg.check_config();
/// let report = smc(&cfg, &Runner::new(2), || {
///     EngineSubject::new(check_cfg.timing(), check_cfg.n)
/// });
/// assert!(report.is_clean());
/// assert_eq!(report.samples, 32);
/// ```
///
/// # Panics
///
/// Panics if a subject disagrees with the configured link count.
pub fn smc<S, F>(cfg: &SmcConfig, runner: &Runner, make_subject: F) -> SmcReport
where
    S: Subject,
    F: Fn() -> S + Sync,
{
    let check_cfg = cfg.check_config();
    let timing = check_cfg.timing();
    // Fixed batch geometry, independent of the runner's worker count:
    // carve the sample budget into at most `TARGET_BATCHES` equal slices
    // (capped at 4096 samples each) and let the runner's job queue
    // balance them. Keeping the split a pure function of `cfg.samples`
    // means the identical batches — and the identical merged report —
    // fall out of every pool size.
    const TARGET_BATCHES: u64 = 64;
    let batch = cfg.samples.div_ceil(TARGET_BATCHES).clamp(1, 4096);
    let mut ranges = Vec::new();
    let mut start = 0u64;
    while start < cfg.samples {
        let end = (start + batch).min(cfg.samples);
        ranges.push((start, end));
        start = end;
    }
    let outs = runner.map(ranges, |(lo, hi)| {
        let mut subject = make_subject();
        assert_eq!(
            subject.n_links(),
            cfg.n,
            "subject link count must match the configuration"
        );
        let mut out = BatchOut::new(cfg.n);
        for sample in lo..hi {
            run_trajectory(&mut subject, cfg, &check_cfg, &timing, sample, &mut out);
        }
        out
    });

    let mut report = SmcReport {
        samples: cfg.samples,
        intervals: 0,
        confidence: cfg.confidence,
        bounds: Vec::new(),
        liveness: LivenessProbe {
            draws: vec![0; cfg.n - 1],
            commits: vec![0; cfg.n - 1],
        },
        counterexample: None,
    };
    let mut violations = [0u64; 6];
    for out in outs {
        report.intervals += out.intervals;
        for (total, v) in violations.iter_mut().zip(out.violations) {
            *total += v;
        }
        for (total, d) in report.liveness.draws.iter_mut().zip(&out.draws) {
            *total += d;
        }
        for (total, c) in report.liveness.commits.iter_mut().zip(&out.commits) {
            *total += c;
        }
        if report.counterexample.is_none() {
            report.counterexample = out.first_ce;
        }
    }
    report.bounds = Property::ALL[..6]
        .iter()
        .zip(violations)
        .map(|(&property, v)| {
            let (lower, upper) = clopper_pearson(v, cfg.samples, cfg.confidence);
            PropertyBound {
                property,
                violations: v,
                lower,
                upper,
            }
        })
        .collect();

    let starved = report.liveness.starved(LIVENESS_MIN_DRAWS);
    if let (Some(&c), None) = (starved.first(), report.counterexample.as_ref()) {
        report.counterexample = Some(Box::new(Counterexample {
            property: Property::SigmaLiveness,
            detail: format!(
                "the pair at upper priority {c} was drawn {} time(s) without a \
                 single committed swap — the reordering dynamics are stuck",
                report.liveness.draws[c - 1]
            ),
            n: cfg.n,
            a_max: cfg.a_max,
            payload_bytes: cfg.payload_bytes,
            q: cfg.q,
            seed: Some(cfg.seed),
            steps: Vec::new(),
        }));
    }
    report
}

/// Samples one full trajectory into `out`.
fn run_trajectory(
    subject: &mut dyn Subject,
    smc: &SmcConfig,
    cfg: &CheckConfig,
    timing: &MacTiming,
    sample: u64,
    out: &mut BatchOut,
) {
    let mut rng = SeedStream::new(smc.seed).substream(sample).rng(0);
    let mut sigma = Permutation::from_rank(cfg.n, rng.random_range(0..factorial(cfg.n)));
    let mut steps: Vec<Step> = Vec::new();
    // Long enough that the deadline always expires before the scripted
    // prefix does, so every channel answer is a pre-drawn fair coin.
    let prefix_len = timing.max_transmissions() as usize + cfg.n + 4;
    for _ in 0..smc.depth {
        let arrivals: Vec<u32> = (0..cfg.n)
            .map(|_| rng.random_range(0..=cfg.a_max))
            .collect();
        let want = rng.random_range(1..=smc.max_pairs);
        let candidates = draw_nonadjacent_candidates(cfg.n, want, &mut rng);
        let coins: Vec<PairCoins> = candidates
            .iter()
            .map(|_| PairCoins {
                hi_up: rng.random_bool(0.5),
                lo_up: rng.random_bool(0.5),
            })
            .collect();
        let forced: Vec<bool> = (0..prefix_len).map(|_| rng.random_bool(0.5)).collect();
        let input = StepInput {
            sigma_before: &sigma,
            arrivals: &arrivals,
            candidates: &candidates,
            coins: &coins,
        };
        let (bits, verdict) = run_checked_step(subject, cfg, timing, &input, forced);
        assert!(
            bits.len() < prefix_len,
            "channel prefix exhausted after {} attempt(s)",
            bits.len()
        );
        out.intervals += 1;
        let after = subject.sigma().clone();
        let step = Step {
            sigma_before: sigma.priorities().to_vec(),
            arrivals,
            candidates: candidates.clone(),
            coins,
            bits,
        };
        steps.push(step);
        if let Err((property, detail)) = verdict {
            // Property indices are positions in Property::ALL; the
            // per-interval oracle never reports sigma-liveness (index 6).
            let idx = Property::ALL
                .iter()
                .position(|&p| p == property)
                .unwrap_or_else(|| unreachable!());
            out.violations[idx] += 1;
            if out.first_ce.is_none() {
                out.first_ce = Some(Box::new(Counterexample {
                    property,
                    detail: format!("sample {sample}: {detail}"),
                    n: cfg.n,
                    a_max: cfg.a_max,
                    payload_bytes: cfg.payload_bytes,
                    q: cfg.q,
                    seed: Some(smc.seed),
                    steps,
                }));
            }
            return;
        }
        for &c in &candidates {
            out.draws[c - 1] += 1;
            if sigma.link_with_priority(c) == after.link_with_priority(c + 1)
                && sigma.link_with_priority(c + 1) == after.link_with_priority(c)
            {
                out.commits[c - 1] += 1;
            }
        }
        sigma = after;
    }
}

/// The exact two-sided Clopper–Pearson confidence interval for a
/// binomial proportion: `violations` successes in `samples` i.i.d.
/// trials at the given confidence level.
///
/// The bounds are quantiles of Beta distributions, computed here from
/// the regularized incomplete beta function (continued fraction plus a
/// Lanczos `ln Γ`) by bisection — no external statistics dependency.
///
/// ```
/// use rtmac_verify::clopper_pearson;
///
/// // Zero violations in 1000 samples at 99% confidence: the upper bound
/// // has the closed form 1 − (α/2)^(1/n).
/// let (lo, hi) = clopper_pearson(0, 1000, 0.99);
/// assert_eq!(lo, 0.0);
/// let exact = 1.0 - 0.005f64.powf(1.0 / 1000.0);
/// assert!((hi - exact).abs() < 1e-9);
/// ```
///
/// # Panics
///
/// Panics if `samples == 0`, `violations > samples`, or the confidence
/// does not lie strictly in `(0, 1)`.
#[must_use]
pub fn clopper_pearson(violations: u64, samples: u64, confidence: f64) -> (f64, f64) {
    assert!(samples > 0, "a bound needs at least one sample");
    assert!(violations <= samples, "more violations than samples");
    assert!(
        confidence > 0.0 && confidence < 1.0,
        "confidence must lie strictly between 0 and 1"
    );
    let alpha = 1.0 - confidence;
    let x = violations as f64;
    let n = samples as f64;
    let lower = if violations == 0 {
        0.0
    } else {
        inv_reg_beta(alpha / 2.0, x, n - x + 1.0)
    };
    let upper = if violations == samples {
        1.0
    } else {
        inv_reg_beta(1.0 - alpha / 2.0, x + 1.0, n - x)
    };
    (lower, upper)
}

/// Smallest `t` with `I_t(a, b) = p`, by bisection.
fn inv_reg_beta(p: f64, a: f64, b: f64) -> f64 {
    let mut lo = 0.0f64;
    let mut hi = 1.0f64;
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if reg_inc_beta(a, b, mid) < p {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// The regularized incomplete beta function `I_x(a, b)`.
fn reg_inc_beta(a: f64, b: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let ln_bt = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    let bt = ln_bt.exp();
    // Use the continued fraction directly where it converges fast, and
    // the symmetry I_x(a,b) = 1 − I_{1−x}(b,a) elsewhere.
    if x < (a + 1.0) / (a + b + 2.0) {
        bt * betacf(a, b, x) / a
    } else {
        1.0 - bt * betacf(b, a, 1.0 - x) / b
    }
}

/// Lentz's continued-fraction evaluation of the incomplete beta.
fn betacf(a: f64, b: f64, x: f64) -> f64 {
    const EPS: f64 = 3.0e-14;
    const FPMIN: f64 = 1.0e-300;
    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < FPMIN {
        d = FPMIN;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=200 {
        let m = f64::from(m);
        let m2 = 2.0 * m;
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        h *= d * c;
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

/// Lanczos approximation of `ln Γ(x)` for `x > 0` (≈ 1e-10 accurate).
fn ln_gamma(x: f64) -> f64 {
    const COF: [f64; 6] = [
        76.180_091_729_471_46,
        -86.505_320_329_416_77,
        24.014_098_240_830_91,
        -1.231_739_572_450_155,
        0.120_865_097_386_617_9e-2,
        -0.539_523_938_495_3e-5,
    ];
    let tmp = x + 5.5;
    let tmp = tmp - (x + 0.5) * tmp.ln();
    let mut ser = 1.000_000_000_190_015;
    let mut y = x;
    for cof in COF {
        y += 1.0;
        ser += cof / y;
    }
    -tmp + (2.506_628_274_631_000_5 * ser / x).ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_gamma_matches_factorials() {
        for n in 1u64..=10 {
            let exact = ((1..n).product::<u64>() as f64).ln();
            assert!((ln_gamma(n as f64) - exact).abs() < 1e-9, "Γ({n})");
        }
    }

    #[test]
    fn reg_inc_beta_uniform_case_is_identity() {
        // I_x(1, 1) is the CDF of the uniform distribution.
        for i in 0..=10 {
            let x = f64::from(i) / 10.0;
            assert!((reg_inc_beta(1.0, 1.0, x) - x).abs() < 1e-10);
        }
    }

    #[test]
    fn clopper_pearson_brackets_the_observed_rate() {
        let (lo, hi) = clopper_pearson(10, 100, 0.95);
        assert!(lo < 0.1 && 0.1 < hi, "[{lo}, {hi}] must contain 0.1");
        // Against the standard reference values for 10/100 at 95%.
        assert!((lo - 0.049_005).abs() < 1e-4, "lower = {lo}");
        assert!((hi - 0.176_223).abs() < 1e-4, "upper = {hi}");
        // Degenerate edges.
        assert_eq!(clopper_pearson(0, 50, 0.99).0, 0.0);
        assert_eq!(clopper_pearson(50, 50, 0.99).1, 1.0);
        // Wider confidence ⇒ wider interval.
        let (lo99, hi99) = clopper_pearson(10, 100, 0.99);
        assert!(lo99 < lo && hi99 > hi);
    }

    #[test]
    fn liveness_probe_flags_only_starved_pairs() {
        let probe = LivenessProbe {
            draws: vec![100, 3, 100],
            commits: vec![0, 0, 25],
        };
        assert_eq!(probe.starved(64), vec![1]);
        assert!(probe.starved(101).is_empty());
    }
}
