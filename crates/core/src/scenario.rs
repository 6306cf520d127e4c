//! The declarative scenario layer: one description of an experiment that
//! every consumer (bench figures, CLI, examples, integration tests) builds
//! its networks from.
//!
//! A [`Scenario`] is plain data — topology size, timing, channel success
//! probabilities, traffic process, delivery-ratio requirements, a
//! [`PolicySpec`], the horizon, and the seed. It is `Clone + PartialEq`,
//! so sweeps and registries can manipulate configurations without
//! touching any stateful simulator object; the stateful [`Network`] (and
//! its boxed policy) is instantiated exactly once per run by
//! [`Scenario::network`].
//!
//! The registry at the bottom names the paper's workloads (`video20` and
//! `control10` via [`video`] and [`control`], plus [`asym`] and [`tiny`])
//! and the robustness workloads ([`bursty`], [`hidden_terminal`],
//! [`poisson_churn`], [`overload_admission`]),
//! and defines each figure's sweep as a
//! base `Scenario` plus an [`Axis`] ([`fig3`].. [`fig10`]) and the paper's
//! three contenders ([`CONTENDERS`]), so the bench harness, the CLI's
//! `--scenario` flag, and the docs all speak the same vocabulary.
//!
//! It is also the one place that vocabulary is spelled: [`Param`],
//! [`TrafficSpec`], [`PolicySpec`] and [`Axis`] each have one `parse` and
//! one canonical `render`, which the CLI's flags and the `rtmac-netd`
//! scenario file both call, and [`TrafficSpec::instantiate`] is the only
//! way a traffic spec becomes an arrival process.
//!
//! # Example
//!
//! ```
//! use rtmac::scenario::{self, PolicySpec};
//!
//! let sc = scenario::by_name("video20").unwrap().with_intervals(200);
//! let report = sc.run()?;
//! assert_eq!(report.intervals, 200);
//!
//! // Same configuration, different contender — still one line.
//! let ldf = sc.with_policy(PolicySpec::Ldf).run()?;
//! assert_eq!(ldf.policy, "LDF");
//! # Ok::<(), rtmac_model::ConfigError>(())
//! ```

use std::fmt;

use rtmac_mac::{
    CentralizedEngine, DcfConfig, DcfEngine, DpConfig, DpEngine, FcsmaEngine, FcsmaQuantizer,
    FrameCsmaEngine, MacTiming,
};
use rtmac_model::influence::{DebtInfluence, Linear, Log1p, PaperLog, Power};
use rtmac_model::{ConfigError, LinkId};
use rtmac_traffic::{ArrivalProcess, BernoulliArrivals, BurstUniform, ConstantArrivals};

use crate::{
    DbDp, DcfPolicy, Eldf, FcsmaPolicy, FixedPriority, FrameCsmaPolicy, Network, NetworkBuilder,
    RunReport, TransmissionPolicy,
};

/// Text that is not a spelling of the scenario vocabulary: the rejected
/// text and the forms that would have been accepted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// The rejected text.
    pub text: String,
    /// The accepted forms.
    pub expected: &'static str,
}

impl ParseError {
    fn new(text: &str, expected: &'static str) -> Self {
        ParseError {
            text: text.to_string(),
            expected,
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "`{}` is not {}", self.text, self.expected)
    }
}

impl std::error::Error for ParseError {}

/// The paper's maximum video burst size, and the one a spelling or a sweep
/// uses when it names none.
const BURST_MAX: u32 = 6;

/// A per-link parameter: one value shared by every link, or an explicit
/// per-link vector (the asymmetric networks of Figs. 7–8).
#[derive(Debug, Clone, PartialEq)]
pub enum Param {
    /// Every link uses the same value.
    Uniform(f64),
    /// One value per link.
    PerLink(Vec<f64>),
}

impl Param {
    /// Expands to one value per link.
    #[must_use]
    pub fn expand(&self, n_links: usize) -> Vec<f64> {
        match self {
            Param::Uniform(v) => vec![*v; n_links],
            Param::PerLink(v) => v.clone(),
        }
    }

    /// The shared value, if this parameter is uniform.
    #[must_use]
    pub fn uniform_value(&self) -> Option<f64> {
        match self {
            Param::Uniform(v) => Some(*v),
            Param::PerLink(_) => None,
        }
    }

    /// Parses `V` (uniform) or the per-link list `V1,V2,…`; a trailing
    /// comma makes a one-entry list.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] unless every entry is a number and the list
    /// has at least one.
    pub fn parse(text: &str) -> Result<Self, ParseError> {
        let bad = || ParseError::new(text, "a number or a comma-separated per-link list");
        if !text.contains(',') {
            return text.parse().map(Param::Uniform).map_err(|_| bad());
        }
        let values = text
            .split(',')
            .map(str::trim)
            .filter(|v| !v.is_empty())
            .map(str::parse)
            .collect::<Result<Vec<f64>, _>>()
            .map_err(|_| bad())?;
        if values.is_empty() {
            return Err(bad());
        }
        Ok(Param::PerLink(values))
    }

    /// The canonical spelling, which [`Param::parse`] reads back. An empty
    /// per-link list renders as the empty string, which does not parse.
    #[must_use]
    pub fn render(&self) -> String {
        match self {
            Param::Uniform(v) => v.to_string(),
            // The trailing comma keeps a one-entry list per-link.
            Param::PerLink(v) if v.len() == 1 => format!("{},", v[0]),
            Param::PerLink(v) => v.iter().map(f64::to_string).collect::<Vec<_>>().join(","),
        }
    }
}

/// Declarative arrival-process selection.
#[derive(Debug, Clone, PartialEq)]
pub enum TrafficSpec {
    /// The paper's video model: `U{1..=burst_max}` packets with
    /// probability `α_n`, else none.
    Burst {
        /// Per-link burst probabilities `α_n`.
        alpha: Param,
        /// Maximum burst size (paper: 6).
        burst_max: u32,
    },
    /// The paper's control model: one packet with probability `λ_n`.
    Bernoulli {
        /// Per-link arrival probabilities `λ_n`.
        lambda: Param,
    },
    /// Exactly one packet per link per interval.
    Constant,
}

impl TrafficSpec {
    /// Instantiates the arrival process for `n_links` links.
    ///
    /// # Errors
    ///
    /// Returns the arrival process's own [`ConfigError`] for an invalid
    /// parameter (a rate outside `[0, 1]`, a zero burst size, no links),
    /// and [`ConfigError::LengthMismatch`] for a per-link vector that is not
    /// `n_links` long.
    pub fn instantiate(&self, n_links: usize) -> Result<Box<dyn ArrivalProcess>, ConfigError> {
        let traffic: Box<dyn ArrivalProcess> = match self {
            TrafficSpec::Burst { alpha, burst_max } => {
                Box::new(BurstUniform::new(alpha.expand(n_links), *burst_max)?)
            }
            TrafficSpec::Bernoulli { lambda } => {
                Box::new(BernoulliArrivals::new(lambda.expand(n_links))?)
            }
            TrafficSpec::Constant => Box::new(ConstantArrivals::one_each(n_links)?),
        };
        if traffic.n_links() != n_links {
            return Err(ConfigError::LengthMismatch {
                what: "arrival process links",
                expected: n_links,
                actual: traffic.n_links(),
            });
        }
        Ok(traffic)
    }

    /// Parses `constant`, `bernoulli:LAMBDA` or `burst:ALPHA[:MAX]`, where
    /// `LAMBDA` and `ALPHA` are [`Param`] spellings and `MAX` defaults to
    /// the paper's 6.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] naming the whole text for any other form.
    pub fn parse(text: &str) -> Result<Self, ParseError> {
        let bad = || {
            ParseError::new(
                text,
                "constant, bernoulli:LAMBDA or burst:ALPHA[:MAX] \
                 (LAMBDA and ALPHA a number or a per-link list)",
            )
        };
        if text == "constant" {
            return Ok(TrafficSpec::Constant);
        }
        if let Some(lambda) = text.strip_prefix("bernoulli:") {
            let lambda = Param::parse(lambda).map_err(|_| bad())?;
            return Ok(TrafficSpec::Bernoulli { lambda });
        }
        let burst = text.strip_prefix("burst:").ok_or_else(bad)?;
        let (alpha, burst_max) = match burst.rsplit_once(':') {
            Some((alpha, max)) => (alpha, max.parse().map_err(|_| bad())?),
            None => (burst, BURST_MAX),
        };
        let alpha = Param::parse(alpha).map_err(|_| bad())?;
        Ok(TrafficSpec::Burst { alpha, burst_max })
    }

    /// The canonical spelling, which [`TrafficSpec::parse`] reads back; a
    /// burst always names its maximum.
    #[must_use]
    pub fn render(&self) -> String {
        match self {
            TrafficSpec::Constant => "constant".to_string(),
            TrafficSpec::Bernoulli { lambda } => format!("bernoulli:{}", lambda.render()),
            TrafficSpec::Burst { alpha, burst_max } => {
                format!("burst:{}:{burst_max}", alpha.render())
            }
        }
    }
}

/// Declarative debt-influence-function selection (`f` in the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InfluenceSpec {
    /// The paper's `f(x) = log(max{1, 100(x+1)})`.
    PaperLog,
    /// The paper's log with a custom scale `c`: `log(max{1, c(x+1)})`.
    PaperLogScaled(f64),
    /// `f(x) = x` (classic LDF weighting).
    Linear,
    /// `f(x) = log(1+x)`.
    Log1p,
    /// `f(x) = x^m`.
    Power(f64),
}

impl InfluenceSpec {
    /// Instantiates the influence function.
    #[must_use]
    pub fn boxed(self) -> Box<dyn DebtInfluence> {
        match self {
            InfluenceSpec::PaperLog => Box::new(PaperLog::default()),
            InfluenceSpec::PaperLogScaled(c) => Box::new(PaperLog::with_scale(c)),
            InfluenceSpec::Linear => Box::new(Linear),
            InfluenceSpec::Log1p => Box::new(Log1p),
            InfluenceSpec::Power(m) => Box::new(Power::new(m)),
        }
    }
}

/// Declarative, `Copy`-able policy selection.
///
/// A `PolicySpec` is pure data, so sweep loops can carry it by value; the
/// stateful policy (boxed influence function, engine) is instantiated
/// exactly once per run (inside [`Scenario::network`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolicySpec {
    /// The paper's decentralized algorithm (Algorithm 2 + Eq. 14).
    DbDp {
        /// Debt influence function `f`.
        influence: InfluenceSpec,
        /// The constant `R` of Eq. 14.
        r: f64,
        /// Simultaneous swap pairs per interval (Remark 6).
        swap_pairs: usize,
    },
    /// Centralized extended largest-debt-first (Algorithm 1).
    Eldf {
        /// Debt influence function `f`.
        influence: InfluenceSpec,
    },
    /// Classic LDF — ELDF with `f(x) = x`.
    Ldf,
    /// The discretized FCSMA baseline with the paper-default quantizer.
    Fcsma,
    /// IEEE 802.11 DCF with 802.11a defaults.
    Dcf,
    /// Frame-based CSMA.
    FrameCsma {
        /// Debt influence for the per-frame slot allocation.
        influence: InfluenceSpec,
        /// Control-phase length in backoff slots.
        control_slots: u32,
    },
    /// The DP protocol frozen at the identity priority ordering (Fig. 6).
    FixedPriority,
}

impl PolicySpec {
    /// DB-DP with the paper's simulation parameters.
    #[must_use]
    pub const fn db_dp() -> Self {
        Self::db_dp_pairs(1)
    }

    /// DB-DP with `pairs` simultaneous swap pairs (Remark 6).
    #[must_use]
    pub const fn db_dp_pairs(pairs: usize) -> Self {
        PolicySpec::DbDp {
            influence: InfluenceSpec::PaperLog,
            r: 10.0,
            swap_pairs: pairs,
        }
    }

    /// ELDF with the paper's influence function.
    #[must_use]
    pub fn eldf() -> Self {
        PolicySpec::Eldf {
            influence: InfluenceSpec::PaperLog,
        }
    }

    /// Frame-based CSMA with linear debt weights and a 32-slot control
    /// phase.
    #[must_use]
    pub fn frame_csma() -> Self {
        Self::frame_csma_slots(32)
    }

    /// Frame-based CSMA with linear debt weights and a `control_slots`-slot
    /// control phase.
    fn frame_csma_slots(control_slots: u32) -> Self {
        PolicySpec::FrameCsma {
            influence: InfluenceSpec::Linear,
            control_slots,
        }
    }

    /// Parses `db-dp` (or `dbdp`), `db-dp:pairs=K`, `ldf`, `eldf`,
    /// `fcsma`, `dcf`, `frame-csma` (or `framecsma`),
    /// `frame-csma:slots=K` or `fixed`; every form but the two
    /// parameterized ones is the constructor of the same name.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] naming the whole text for any other form.
    pub fn parse(text: &str) -> Result<Self, ParseError> {
        let bad = || {
            ParseError::new(
                text,
                "db-dp, db-dp:pairs=K, ldf, eldf, fcsma, dcf, frame-csma, \
                 frame-csma:slots=K or fixed",
            )
        };
        Ok(match text {
            "db-dp" | "dbdp" => PolicySpec::db_dp(),
            "ldf" => PolicySpec::Ldf,
            "eldf" => PolicySpec::eldf(),
            "fcsma" => PolicySpec::Fcsma,
            "dcf" => PolicySpec::Dcf,
            "frame-csma" | "framecsma" => PolicySpec::frame_csma(),
            "fixed" => PolicySpec::FixedPriority,
            _ => {
                if let Some(pairs) = text.strip_prefix("db-dp:pairs=") {
                    PolicySpec::db_dp_pairs(pairs.parse().map_err(|_| bad())?)
                } else if let Some(slots) = text.strip_prefix("frame-csma:slots=") {
                    PolicySpec::frame_csma_slots(slots.parse().map_err(|_| bad())?)
                } else {
                    return Err(bad());
                }
            }
        })
    }

    /// The canonical spelling, which [`PolicySpec::parse`] reads back, or
    /// `None` for a parameterization no spelling names (an influence
    /// function or `R` other than the constructors').
    #[must_use]
    pub fn render(&self) -> Option<String> {
        Some(match *self {
            p if p == Self::db_dp() => "db-dp".to_string(),
            PolicySpec::DbDp { swap_pairs, .. } if *self == Self::db_dp_pairs(swap_pairs) => {
                format!("db-dp:pairs={swap_pairs}")
            }
            p if p == Self::eldf() => "eldf".to_string(),
            PolicySpec::Ldf => "ldf".to_string(),
            PolicySpec::Fcsma => "fcsma".to_string(),
            PolicySpec::Dcf => "dcf".to_string(),
            p if p == Self::frame_csma() => "frame-csma".to_string(),
            PolicySpec::FrameCsma { control_slots, .. }
                if *self == Self::frame_csma_slots(control_slots) =>
            {
                format!("frame-csma:slots={control_slots}")
            }
            PolicySpec::FixedPriority => "fixed".to_string(),
            _ => return None,
        })
    }

    /// Display label (the paper's plotting names).
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            PolicySpec::DbDp { swap_pairs: 1, .. } => "DB-DP".to_string(),
            PolicySpec::DbDp { swap_pairs, .. } => format!("DB-DP {swap_pairs} pairs"),
            PolicySpec::Eldf { .. } => "ELDF".to_string(),
            PolicySpec::Ldf => "LDF".to_string(),
            PolicySpec::Fcsma => "FCSMA".to_string(),
            PolicySpec::Dcf => "DCF".to_string(),
            PolicySpec::FrameCsma { .. } => "Frame-CSMA".to_string(),
            PolicySpec::FixedPriority => "DP(fixed σ)".to_string(),
        }
    }

    /// Instantiates the policy for a network of `n_links` links with the
    /// given success probabilities and timing. Called exactly once per run,
    /// from [`NetworkBuilder::build`].
    ///
    /// # Panics
    ///
    /// Panics if `success_probabilities.len() != n_links`, or if `R ≤ 0`.
    #[must_use]
    pub fn instantiate(
        self,
        n_links: usize,
        success_probabilities: &[f64],
        timing: MacTiming,
    ) -> Box<dyn TransmissionPolicy> {
        assert_eq!(
            success_probabilities.len(),
            n_links,
            "success probabilities must cover every link"
        );
        match self {
            PolicySpec::DbDp {
                influence,
                r,
                swap_pairs,
            } => Box::new(DbDp::new(
                DpEngine::new(DpConfig::new(timing).with_swap_pairs(swap_pairs), n_links),
                influence.boxed(),
                r,
                success_probabilities.to_vec(),
            )),
            PolicySpec::Eldf { influence } => Box::new(Eldf::new(
                CentralizedEngine::new(timing),
                influence.boxed(),
                success_probabilities.to_vec(),
            )),
            PolicySpec::Ldf => Box::new(Eldf::new(
                CentralizedEngine::new(timing),
                Box::new(Linear),
                success_probabilities.to_vec(),
            )),
            PolicySpec::Fcsma => Box::new(FcsmaPolicy::new(
                FcsmaEngine::new(timing),
                FcsmaQuantizer::paper_default(),
            )),
            PolicySpec::Dcf => {
                Box::new(DcfPolicy::new(DcfEngine::new(DcfConfig::default(), timing)))
            }
            PolicySpec::FrameCsma {
                influence,
                control_slots,
            } => Box::new(FrameCsmaPolicy::new(
                FrameCsmaEngine::new(timing).with_control_slots(control_slots),
                influence.boxed(),
            )),
            // A new engine starts at the identity ordering, and zero swap
            // pairs freeze it there.
            PolicySpec::FixedPriority => Box::new(FixedPriority::new(DpEngine::new(
                DpConfig::new(timing).with_swap_pairs(0),
                n_links,
            ))),
        }
    }
}

/// Inert data: the DP interval kernel a scenario once selected.
///
/// There is one fault-free DP engine ([`rtmac_mac::DpEngine`]) and no code
/// branches on this value; both variants run identically. It survives only
/// because the standalone benchmark package names it (`benchmark/src/
/// mirror.rs` matches on both variants and `benchmark/workloads/*.scenario`
/// say `engine = batched`). The follow-up benchmark change that drops those
/// references deletes it, together with [`Scenario::engine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineSpec {
    /// The historical default spelling.
    #[default]
    Timeline,
    /// The historical massive-N spelling; runs the same engine.
    Batched,
}

impl EngineSpec {
    /// The `engine = …` spelling of scenario files.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            EngineSpec::Timeline => "timeline",
            EngineSpec::Batched => "batched",
        }
    }
}

/// Declarative link-churn selection: one crash/revive event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnSpec {
    /// The crashing link.
    pub link: usize,
    /// The interval at which it goes down.
    pub crash_at: u64,
    /// How many intervals it stays down before reviving with stale
    /// priority state.
    pub down_intervals: u64,
}

/// Declarative Gilbert–Elliott bursty-sensing parameters (the mirror of
/// [`rtmac_phy::fault::BurstSensing`]): per-link good/bad chains advanced
/// once per interval, with elevated sensing-error rates in the bad state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstSpec {
    /// Per-interval probability a link's chain enters the bad state.
    pub p_enter_bad: f64,
    /// Per-interval probability it leaves the bad state (mean burst length
    /// is its reciprocal).
    pub p_exit_bad: f64,
    /// False-busy rate while the chain sits in the bad state.
    pub bad_false_busy: f64,
    /// False-idle rate while the chain sits in the bad state.
    pub bad_false_idle: f64,
}

/// Declarative Poisson crash/revive churn (the mirror of
/// [`rtmac_phy::fault::ChurnProcess::with_poisson`]): every up link crashes
/// with a per-interval probability; outages are exponential in length.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoissonChurnSpec {
    /// Per-interval crash probability for each up link, in `[0, 1)`.
    pub crash_rate: f64,
    /// Mean outage length in intervals (at least 1).
    pub mean_down: f64,
}

/// Declarative flash-crowd ramp (the mirror of
/// [`rtmac_phy::fault::ChurnProcess::with_flash_crowd`]): a block of links
/// dark from interval 0 that all join at once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlashCrowdSpec {
    /// First link of the joining block.
    pub first_link: usize,
    /// Number of links in the block.
    pub count: usize,
    /// The interval at which the whole block comes up.
    pub join_at: u64,
}

/// Declarative adaptive R2 recovery (the mirror of
/// [`rtmac_mac::RecoveryConfig::with_adaptive_miss_limit`]): the per-link
/// miss limit starts at `max(base, ⌈log₂(N+1)⌉)`, doubles (capped at
/// `cap`) each time the fallback fires, and halves back toward the initial
/// value whenever the adjacent claim is heard again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptiveRecoverySpec {
    /// Floor of the miss limit.
    pub base: u32,
    /// Ceiling of the exponential backoff.
    pub cap: u32,
}

/// Declarative fault injection for the degraded-mode DP experiments:
/// carrier-sensing error rates (optionally modulated by a Gilbert–Elliott
/// burst process), asymmetric hidden-terminal pairs, link churn (one
/// scripted event, a flash-crowd ramp, and/or a Poisson crash/revive
/// process), and the recovery rule's miss-limit policy. Only meaningful
/// for [`PolicySpec::DbDp`]; [`NetworkBuilder::build`] rejects other
/// policies.
///
/// With zero error rates, no burst process, no hidden pairs, and no churn
/// the degraded-mode engine is still selected and draws the pristine
/// engine's randomness draw-for-draw, but it is not a fault-free run: its
/// R2 rule counts an upper claim that missed the deadline as unheard, so a
/// saturated interval can trigger a fallback the fault-free engine never
/// takes (20 links at a 2 ms deadline with 3 arrivals each part from the
/// fault-free trajectory at interval 8; see `rtmac_mac::dp`'s module docs).
/// Where the deadline leaves room for every adjacent claim, results are
/// byte-identical to a fault-free run.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Probability an idle carrier-sense instant reads busy.
    pub false_busy: f64,
    /// Probability a busy carrier-sense instant reads idle.
    pub false_idle: f64,
    /// Optional Gilbert–Elliott bursty-sensing overlay.
    pub burst: Option<BurstSpec>,
    /// Asymmetric hidden-terminal `(listener, transmitter)` pairs: each
    /// listed listener is deaf to the listed transmitter.
    pub hidden: Vec<(usize, usize)>,
    /// Optional scripted crash/revive event.
    pub churn: Option<ChurnSpec>,
    /// Optional Poisson crash/revive process (seeded on its own RNG lane).
    pub poisson: Option<PoissonChurnSpec>,
    /// Optional flash-crowd join ramp.
    pub flash_crowd: Option<FlashCrowdSpec>,
    /// Consecutive unheard-adjacent-claim intervals tolerated before the
    /// R2 fallback fires (the fixed policy; superseded by `adaptive`).
    pub miss_limit: u32,
    /// Optional adaptive R2 miss-limit policy; overrides `miss_limit`.
    pub adaptive: Option<AdaptiveRecoverySpec>,
}

impl FaultSpec {
    /// Symmetric sensing errors at rate `eps`, no churn, default recovery.
    #[must_use]
    pub fn sensing(eps: f64) -> Self {
        FaultSpec {
            false_busy: eps,
            false_idle: eps,
            burst: None,
            hidden: Vec::new(),
            churn: None,
            poisson: None,
            flash_crowd: None,
            miss_limit: 3,
            adaptive: None,
        }
    }

    /// Adds a crash/revive event.
    #[must_use]
    pub fn with_churn(mut self, link: usize, crash_at: u64, down_intervals: u64) -> Self {
        self.churn = Some(ChurnSpec {
            link,
            crash_at,
            down_intervals,
        });
        self
    }

    /// Overrides the R2 miss limit.
    #[must_use]
    pub fn with_miss_limit(mut self, miss_limit: u32) -> Self {
        self.miss_limit = miss_limit;
        self
    }

    /// Layers a Gilbert–Elliott burst process over the base sensing rates.
    #[must_use]
    pub fn with_burst(
        mut self,
        p_enter_bad: f64,
        p_exit_bad: f64,
        bad_false_busy: f64,
        bad_false_idle: f64,
    ) -> Self {
        self.burst = Some(BurstSpec {
            p_enter_bad,
            p_exit_bad,
            bad_false_busy,
            bad_false_idle,
        });
        self
    }

    /// Makes `listener` deaf to `transmitter` (asymmetric: add the mirrored
    /// pair explicitly for a symmetric hidden-terminal geometry).
    #[must_use]
    pub fn with_hidden_pair(mut self, listener: usize, transmitter: usize) -> Self {
        self.hidden.push((listener, transmitter));
        self
    }

    /// Adds a seeded Poisson crash/revive process.
    #[must_use]
    pub fn with_poisson_churn(mut self, crash_rate: f64, mean_down: f64) -> Self {
        self.poisson = Some(PoissonChurnSpec {
            crash_rate,
            mean_down,
        });
        self
    }

    /// Adds a flash-crowd ramp: links `first_link .. first_link + count`
    /// dark from interval 0, all joining at `join_at`.
    #[must_use]
    pub fn with_flash_crowd(mut self, first_link: usize, count: usize, join_at: u64) -> Self {
        self.flash_crowd = Some(FlashCrowdSpec {
            first_link,
            count,
            join_at,
        });
        self
    }

    /// Switches R2 to the adaptive exponential-backoff miss limit.
    #[must_use]
    pub fn with_adaptive_recovery(mut self, base: u32, cap: u32) -> Self {
        self.adaptive = Some(AdaptiveRecoverySpec { base, cap });
        self
    }
}

/// Declarative feasibility-aware admission control: at every churn event
/// the network's gate re-evaluates the Lemma-2 utilization
/// `Σ_admitted q_n/p_n / budget` and admits an arriving link only while
/// the admitted set (candidate included) stays at or under `threshold`;
/// with `shed` set, an overloaded admitted set is trimmed lowest-debt-first
/// until the survivors fit. Requires fault injection (the degraded DB-DP
/// path is the only engine with a churn/blocking substrate).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionSpec {
    /// Utilization threshold the admitted set must stay at or under
    /// (1.0 = the Lemma-2 necessary feasibility bound itself).
    pub threshold: f64,
    /// Whether to shed lowest-debt-first when the admitted set exceeds the
    /// threshold anyway.
    pub shed: bool,
}

impl AdmissionSpec {
    /// Admission at the given utilization threshold, with shedding on.
    #[must_use]
    pub fn new(threshold: f64) -> Self {
        AdmissionSpec {
            threshold,
            shed: true,
        }
    }

    /// Disables load shedding (the gate only filters arrivals).
    #[must_use]
    pub fn without_shedding(mut self) -> Self {
        self.shed = false;
        self
    }
}

/// One fully-specified experiment configuration: everything a run needs,
/// as plain comparable data.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Registry name (`"custom"` for ad-hoc configurations).
    pub name: &'static str,
    /// Number of fully-interfering links `N`.
    pub links: usize,
    /// Per-packet deadline (interval length `T`) in microseconds.
    pub deadline_us: u64,
    /// Data payload size in bytes.
    pub payload_bytes: u32,
    /// Per-link channel success probabilities `p_n`.
    pub success: Param,
    /// Arrival process.
    pub traffic: TrafficSpec,
    /// Required delivery ratios `ρ_n` (so `q_n = ρ_n · λ_n`).
    pub ratio: Param,
    /// Transmission policy.
    pub policy: PolicySpec,
    /// Horizon: intervals simulated by [`Scenario::run`].
    pub intervals: usize,
    /// RNG seed; every random stream of the run derives from it.
    pub seed: u64,
    /// Track one link's running throughput: `(link index, band)` as in
    /// [`NetworkBuilder::track_link`] (the Fig. 5 instrumentation).
    pub track: Option<(usize, f64)>,
    /// Fault injection (sensing errors + churn) for the degraded-mode DP
    /// experiments; `None` runs every policy on its fault-free path.
    pub fault: Option<FaultSpec>,
    /// Feasibility-aware admission control over churn events; `None` leaves
    /// every link admitted unconditionally.
    pub admission: Option<AdmissionSpec>,
    /// Inert: carried for scenario files and the benchmark package only;
    /// see [`EngineSpec`].
    pub engine: EngineSpec,
}

impl Scenario {
    /// Replaces the policy.
    #[must_use]
    pub fn with_policy(mut self, policy: PolicySpec) -> Self {
        self.policy = policy;
        self
    }

    /// Replaces the horizon.
    #[must_use]
    pub fn with_intervals(mut self, intervals: usize) -> Self {
        self.intervals = intervals;
        self
    }

    /// Replaces the seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the link count — the knob the `rtmac-net` emulation
    /// harness turns to scale a registry scenario to hundreds of links.
    /// [`Param::Uniform`] parameters scale automatically; explicit
    /// [`Param::PerLink`] vectors, tracked links, and fault specs that
    /// name links are left untouched, so a size mismatch surfaces as a
    /// [`ConfigError`] from [`Scenario::network`] instead of silently
    /// re-interpreting the experiment.
    #[must_use]
    pub fn with_links(mut self, links: usize) -> Self {
        self.links = links;
        self
    }

    /// Tracks `link`'s running throughput within `band` of its requirement.
    #[must_use]
    pub fn with_track(mut self, link: usize, band: f64) -> Self {
        self.track = Some((link, band));
        self
    }

    /// Replaces the delivery-ratio requirement.
    #[must_use]
    pub fn with_ratio(mut self, ratio: Param) -> Self {
        self.ratio = ratio;
        self
    }

    /// Injects faults (sensing errors and/or churn) into the run.
    #[must_use]
    pub fn with_fault(mut self, fault: FaultSpec) -> Self {
        self.fault = Some(fault);
        self
    }

    /// Enables feasibility-aware admission control (requires a fault spec).
    #[must_use]
    pub fn with_admission(mut self, admission: AdmissionSpec) -> Self {
        self.admission = Some(admission);
        self
    }

    /// A preconfigured [`NetworkBuilder`] — the escape hatch for consumers
    /// that need knobs the declarative form does not carry (custom loss
    /// models, per-link payloads); chain the extra builder calls before
    /// `build()`. Validation happens in [`NetworkBuilder::build`].
    #[must_use]
    pub fn to_builder(&self) -> NetworkBuilder {
        let mut b = Network::builder()
            .links(self.links)
            .deadline_us(self.deadline_us)
            .payload_bytes(self.payload_bytes)
            .success_probabilities(self.success.expand(self.links))
            .delivery_ratios(self.ratio.expand(self.links))
            .traffic_spec(&self.traffic)
            .policy(self.policy)
            .seed(self.seed);
        if let Some((link, band)) = self.track {
            b = b.track_link(LinkId::new(link), band);
        }
        if let Some(fault) = &self.fault {
            b = b.fault(fault.clone());
        }
        if let Some(admission) = self.admission {
            b = b.admission(admission);
        }
        b
    }

    /// Builds the network.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for inconsistent parameters.
    pub fn network(&self) -> Result<Network, ConfigError> {
        self.to_builder().build()
    }

    /// Builds the network and runs the scenario's horizon.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for inconsistent parameters.
    ///
    /// # Panics
    ///
    /// Propagates policy-engine panics, as in [`Network::step`].
    pub fn run(&self) -> Result<RunReport, ConfigError> {
        Ok(self.network()?.run(self.intervals))
    }
}

/// The parameter a [`Sweep`] varies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// Burst probability `α*` ([`TrafficSpec::Burst`] traffic).
    Alpha,
    /// Bernoulli arrival rate `λ*` ([`TrafficSpec::Bernoulli`] traffic).
    Lambda,
    /// Required delivery ratio `ρ`.
    Ratio,
    /// Channel success probability `p`.
    SuccessProbability,
}

impl Axis {
    /// The axis label used in tables and CSV headers.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Axis::Alpha => "alpha*",
            Axis::Lambda => "lambda*",
            Axis::Ratio => "rho",
            Axis::SuccessProbability => "p",
        }
    }

    /// Parses `alpha`, `lambda`, `ratio` or `p`.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] for any other text.
    pub fn parse(text: &str) -> Result<Self, ParseError> {
        Ok(match text {
            "alpha" => Axis::Alpha,
            "lambda" => Axis::Lambda,
            "ratio" => Axis::Ratio,
            "p" => Axis::SuccessProbability,
            _ => return Err(ParseError::new(text, "alpha, lambda, ratio or p")),
        })
    }

    /// The spelling [`Axis::parse`] reads back.
    #[must_use]
    pub fn render(self) -> &'static str {
        match self {
            Axis::Alpha => "alpha",
            Axis::Lambda => "lambda",
            Axis::Ratio => "ratio",
            Axis::SuccessProbability => "p",
        }
    }
}

/// A one-dimensional experiment sweep: a base [`Scenario`], the [`Axis`] to
/// vary, and the points to visit. An optional per-link `shape` turns the
/// swept scalar into an asymmetric vector (Figs. 7–8: `α_n = shape_n · α*`).
#[derive(Debug, Clone, PartialEq)]
pub struct Sweep {
    /// Registry name.
    pub name: &'static str,
    /// Base configuration; every point is a copy with one parameter
    /// replaced.
    pub base: Scenario,
    /// The varied parameter.
    pub axis: Axis,
    /// The x-axis values.
    pub points: Vec<f64>,
    /// Optional per-link multipliers applied to the swept value; `None`
    /// sweeps uniformly.
    pub shape: Option<Vec<f64>>,
}

impl Sweep {
    /// The scenario at sweep position `x`. An α or λ axis over traffic of
    /// another kind replaces the traffic with the axis's kind (bursts of
    /// up to 6 for α), so any base scenario can be swept on any axis.
    #[must_use]
    pub fn at(&self, x: f64) -> Scenario {
        let param = match &self.shape {
            None => Param::Uniform(x),
            Some(shape) => Param::PerLink(shape.iter().map(|w| w * x).collect()),
        };
        let mut sc = self.base.clone();
        match self.axis {
            Axis::Alpha => {
                let burst_max = match sc.traffic {
                    TrafficSpec::Burst { burst_max, .. } => burst_max,
                    _ => BURST_MAX,
                };
                sc.traffic = TrafficSpec::Burst {
                    alpha: param,
                    burst_max,
                };
            }
            Axis::Lambda => sc.traffic = TrafficSpec::Bernoulli { lambda: param },
            Axis::Ratio => sc.ratio = param,
            Axis::SuccessProbability => sc.success = param,
        }
        sc
    }

    /// All sweep points as scenarios, in order.
    #[must_use]
    pub fn scenarios(&self) -> Vec<Scenario> {
        self.points.iter().map(|&x| self.at(x)).collect()
    }

    /// Replaces the policy of the base scenario.
    #[must_use]
    pub fn with_policy(mut self, policy: PolicySpec) -> Self {
        self.base.policy = policy;
        self
    }
}

// ---------------------------------------------------------------------------
// Registry: the paper's named workloads and figure sweeps.
// ---------------------------------------------------------------------------

/// Default horizon used by the named workloads (the CLI default; the bench
/// figures override it with the paper's 5000/20000).
const DEFAULT_INTERVALS: usize = 1000;

/// The symmetric video workload (Figs. 3–6): 20 ms deadline, 1500 B
/// payloads, `p = 0.7`, burst-uniform arrivals `U{1..6}` with probability
/// `alpha`, delivery ratio `rho`.
#[must_use]
pub fn video(n: usize, alpha: f64, rho: f64, seed: u64) -> Scenario {
    Scenario {
        name: "video",
        links: n,
        deadline_us: 20_000,
        payload_bytes: 1500,
        success: Param::Uniform(0.7),
        traffic: TrafficSpec::Burst {
            alpha: Param::Uniform(alpha),
            burst_max: BURST_MAX,
        },
        ratio: Param::Uniform(rho),
        policy: PolicySpec::db_dp(),
        intervals: DEFAULT_INTERVALS,
        seed,
        track: None,
        fault: None,
        admission: None,
        engine: EngineSpec::Timeline,
    }
}

/// The video workload with explicit per-link parameter vectors (the bench
/// figure runner's fully general form).
#[must_use]
pub fn video_per_link(alpha: Vec<f64>, p: Vec<f64>, rho: Vec<f64>, seed: u64) -> Scenario {
    let links = alpha.len();
    Scenario {
        name: "video",
        links,
        deadline_us: 20_000,
        payload_bytes: 1500,
        success: Param::PerLink(p),
        traffic: TrafficSpec::Burst {
            alpha: Param::PerLink(alpha),
            burst_max: BURST_MAX,
        },
        ratio: Param::PerLink(rho),
        policy: PolicySpec::db_dp(),
        intervals: DEFAULT_INTERVALS,
        seed,
        track: None,
        fault: None,
        admission: None,
        engine: EngineSpec::Timeline,
    }
}

/// The ultra-low-latency control workload (Figs. 9–10): 2 ms deadline,
/// 100 B payloads, `p = 0.7`, Bernoulli arrivals with rate `lambda`,
/// delivery ratio `rho`.
#[must_use]
pub fn control(n: usize, lambda: f64, rho: f64, seed: u64) -> Scenario {
    Scenario {
        name: "control",
        links: n,
        deadline_us: 2_000,
        payload_bytes: 100,
        success: Param::Uniform(0.7),
        traffic: TrafficSpec::Bernoulli {
            lambda: Param::Uniform(lambda),
        },
        ratio: Param::Uniform(rho),
        policy: PolicySpec::db_dp(),
        intervals: DEFAULT_INTERVALS,
        seed,
        track: None,
        fault: None,
        admission: None,
        engine: EngineSpec::Timeline,
    }
}

/// The asymmetric video network of Figs. 7–8: links `0..n/2` form group 1
/// (`p = 0.5`, `α = 0.5·α*`), links `n/2..n` group 2 (`p = 0.8`,
/// `α = α*`).
#[must_use]
pub fn asym(alpha_star: f64, rho: f64, seed: u64) -> Scenario {
    let (alpha, p) = asym_params(alpha_star);
    Scenario {
        name: "asym",
        links: 20,
        deadline_us: 20_000,
        payload_bytes: 1500,
        success: Param::PerLink(p),
        traffic: TrafficSpec::Burst {
            alpha: Param::PerLink(alpha),
            burst_max: BURST_MAX,
        },
        ratio: Param::Uniform(rho),
        policy: PolicySpec::db_dp(),
        intervals: DEFAULT_INTERVALS,
        seed,
        track: None,
        fault: None,
        admission: None,
        engine: EngineSpec::Timeline,
    }
}

/// The asymmetric `(α, p)` vectors at a given `α*`.
#[must_use]
pub fn asym_params(alpha_star: f64) -> (Vec<f64>, Vec<f64>) {
    let mut alpha = vec![0.5 * alpha_star; 10];
    alpha.extend(vec![alpha_star; 10]);
    let mut p = vec![0.5; 10];
    p.extend(vec![0.8; 10]);
    (alpha, p)
}

/// The per-link multipliers of the asymmetric α-sweep (Fig. 7).
fn asym_alpha_shape() -> Vec<f64> {
    let mut shape = vec![0.5; 10];
    shape.extend(vec![1.0; 10]);
    shape
}

/// A tiny, fast workload for smoke tests: 3 reliable links, one packet per
/// interval, 2 ms deadline.
#[must_use]
pub fn tiny(seed: u64) -> Scenario {
    Scenario {
        name: "tiny",
        links: 3,
        deadline_us: 2_000,
        payload_bytes: 100,
        success: Param::Uniform(1.0),
        traffic: TrafficSpec::Constant,
        ratio: Param::Uniform(0.95),
        policy: PolicySpec::db_dp(),
        intervals: DEFAULT_INTERVALS,
        seed,
        track: None,
        fault: None,
        admission: None,
        engine: EngineSpec::Timeline,
    }
}

/// The bursty-sensing robustness workload: the control network under a
/// high-burstiness Gilbert–Elliott sensing process (mean bad burst 16
/// intervals, 25% error rates while bad) with adaptive R2 recovery.
#[must_use]
pub fn bursty(seed: u64) -> Scenario {
    let sc = control(8, 0.7, 0.95, seed);
    Scenario {
        name: "bursty",
        fault: Some(
            FaultSpec::sensing(0.005)
                .with_burst(1.0 / 48.0, 1.0 / 16.0, 0.25, 0.25)
                .with_adaptive_recovery(2, 32),
        ),
        ..sc
    }
}

/// The hidden-terminal robustness workload: exact sensing everywhere
/// except an asymmetric deafness geometry — links 0 and 7 are mutually
/// hidden, and link 3 cannot hear link 4 (but 4 hears 3).
#[must_use]
pub fn hidden_terminal(seed: u64) -> Scenario {
    let sc = control(8, 0.7, 0.95, seed);
    Scenario {
        name: "hidden-terminal",
        fault: Some(
            FaultSpec::sensing(0.0)
                .with_hidden_pair(0, 7)
                .with_hidden_pair(7, 0)
                .with_hidden_pair(3, 4),
        ),
        ..sc
    }
}

/// The Poisson-churn robustness workload: the control network where every
/// up link crashes with probability 0.002 per interval (mean outage 25
/// intervals), plus light sensing noise, under adaptive R2 recovery.
#[must_use]
pub fn poisson_churn(seed: u64) -> Scenario {
    let sc = control(10, 0.7, 0.99, seed);
    Scenario {
        name: "poisson-churn",
        fault: Some(
            FaultSpec::sensing(0.01)
                .with_poisson_churn(0.002, 25.0)
                .with_adaptive_recovery(2, 32),
        ),
        ..sc
    }
}

/// The overload-admission workload: 12 links run a lightened control
/// workload (`λ = 0.6`, 95% delivery) from interval 0, and a flash crowd
/// of 12 more joins at interval 100. The full set is Lemma-2 infeasible
/// (utilization ≈ 1.22 of a 16-transmission budget), so the admission gate
/// accepts only the joiners that keep the set under its 0.75 threshold and
/// rejects the rest. The threshold deliberately sits below the Lemma-2
/// bound of 1: the bound is only necessary, and headroom for protocol
/// overhead is what keeps the admitted set's debts actually bounded.
#[must_use]
pub fn overload_admission(seed: u64) -> Scenario {
    let sc = control(24, 0.6, 0.95, seed);
    Scenario {
        name: "overload-admission",
        fault: Some(FaultSpec::sensing(0.0).with_flash_crowd(12, 12, 100)),
        admission: Some(AdmissionSpec::new(0.75)),
        ..sc
    }
}

/// Names accepted by [`by_name`] (and the CLI's `--scenario` flag).
pub const NAMES: [&str; 8] = [
    "video20",
    "control10",
    "asym",
    "tiny",
    "bursty",
    "hidden-terminal",
    "poisson-churn",
    "overload-admission",
];

/// Looks up a named workload: `video20` (Fig. 3's network at `α* = 0.55`),
/// `control10` (Fig. 9's network at `λ* = 0.7`), `asym` (Figs. 7–8 at
/// `α* = 0.7`), `tiny`, or one of the robustness workloads (`bursty`,
/// `hidden-terminal`, `poisson-churn`, `overload-admission`).
#[must_use]
pub fn by_name(name: &str) -> Option<Scenario> {
    match name {
        "video20" => Some(Scenario {
            name: "video20",
            ..video(20, 0.55, 0.9, 0)
        }),
        "control10" => Some(Scenario {
            name: "control10",
            ..control(10, 0.7, 0.99, 0)
        }),
        "asym" => Some(asym(0.7, 0.9, 0)),
        "tiny" => Some(tiny(0)),
        "bursty" => Some(bursty(0)),
        "hidden-terminal" => Some(hidden_terminal(0)),
        "poisson-churn" => Some(poisson_churn(0)),
        "overload-admission" => Some(overload_admission(0)),
        _ => None,
    }
}

/// The paper's three contenders, in its plotting order: DB-DP, the
/// centralized LDF reference and the FCSMA baseline. Their labels are
/// [`PolicySpec::label`]'s.
pub const CONTENDERS: [PolicySpec; 3] = [PolicySpec::db_dp(), PolicySpec::Ldf, PolicySpec::Fcsma];

/// Fig. 3 — the symmetric video network (`ρ = 0.9`) swept over `α*`.
#[must_use]
pub fn fig3(intervals: usize, seed: u64) -> Sweep {
    Sweep {
        name: "fig3",
        base: video(20, 0.55, 0.9, seed).with_intervals(intervals),
        axis: Axis::Alpha,
        points: (0..=6).map(|s| 0.40 + 0.05 * f64::from(s)).collect(),
        shape: None,
    }
}

/// Fig. 4 — the symmetric video network at `α* = 0.55` swept over `ρ`.
#[must_use]
pub fn fig4(intervals: usize, seed: u64) -> Sweep {
    Sweep {
        name: "fig4",
        base: video(20, 0.55, 0.9, seed).with_intervals(intervals),
        axis: Axis::Ratio,
        points: (0..=8).map(|s| 0.80 + 0.025 * f64::from(s)).collect(),
        shape: None,
    }
}

/// Fig. 5 — the convergence experiment: `α* = 0.55`, `ρ = 0.93`, tracking
/// the link holding the lowest priority at time 0.
#[must_use]
pub fn fig5(intervals: usize, seed: u64) -> Scenario {
    video(20, 0.55, 0.93, seed)
        .with_intervals(intervals)
        .with_track(19, 0.01)
}

/// Fig. 6 — the fixed-priority experiment at `α* = 0.6`.
#[must_use]
pub fn fig6(intervals: usize, seed: u64) -> Scenario {
    video(20, 0.6, 0.9, seed)
        .with_intervals(intervals)
        .with_policy(PolicySpec::FixedPriority)
}

/// Fig. 7 — the asymmetric network (`ρ = 0.9`) swept over `α*`
/// (`α_n = shape_n · α*`).
#[must_use]
pub fn fig7(intervals: usize, seed: u64) -> Sweep {
    Sweep {
        name: "fig7",
        base: asym(0.7, 0.9, seed).with_intervals(intervals),
        axis: Axis::Alpha,
        points: (0..=5).map(|s| 0.45 + 0.07 * f64::from(s)).collect(),
        shape: Some(asym_alpha_shape()),
    }
}

/// Fig. 8 — the asymmetric network at `α* = 0.7` swept over `ρ`.
#[must_use]
pub fn fig8(intervals: usize, seed: u64) -> Sweep {
    Sweep {
        name: "fig8",
        base: asym(0.7, 0.9, seed).with_intervals(intervals),
        axis: Axis::Ratio,
        points: (0..=6).map(|s| 0.80 + 0.03 * f64::from(s)).collect(),
        shape: None,
    }
}

/// Fig. 9 — the control network (`ρ = 0.99`) swept over `λ*`.
#[must_use]
pub fn fig9(intervals: usize, seed: u64) -> Sweep {
    Sweep {
        name: "fig9",
        base: control(10, 0.7, 0.99, seed).with_intervals(intervals),
        axis: Axis::Lambda,
        points: (0..=8).map(|s| 0.50 + 0.05 * f64::from(s)).collect(),
        shape: None,
    }
}

/// Fig. 10 — the control network at `λ* = 0.78` swept over `ρ`.
#[must_use]
pub fn fig10(intervals: usize, seed: u64) -> Sweep {
    Sweep {
        name: "fig10",
        base: control(10, 0.78, 0.99, seed).with_intervals(intervals),
        axis: Axis::Ratio,
        points: (0..=5).map(|s| 0.90 + 0.02 * f64::from(s)).collect(),
        shape: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_resolve() {
        for name in NAMES {
            let sc = by_name(name).unwrap_or_else(|| panic!("{name} must resolve"));
            assert_eq!(sc.name, name);
            assert!(sc.network().is_ok(), "{name} must build");
        }
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn robustness_scenarios_carry_their_specs() {
        let sc = bursty(3);
        let fault = sc.fault.as_ref().unwrap();
        assert!(fault.burst.is_some() && fault.adaptive.is_some());
        assert_eq!(sc.seed, 3);

        let fault = hidden_terminal(0).fault.unwrap();
        assert_eq!(fault.hidden, vec![(0, 7), (7, 0), (3, 4)]);

        let fault = poisson_churn(0).fault.unwrap();
        assert!(fault.poisson.is_some());

        let sc = overload_admission(0);
        let fault = sc.fault.as_ref().unwrap();
        assert!(fault.flash_crowd.is_some());
        let adm = sc.admission.unwrap();
        assert!((adm.threshold - 0.75).abs() < 1e-12 && adm.shed);

        // The paper scenarios stay gate-free: the admission field only
        // appears where the robustness registry asks for it.
        for name in ["video20", "control10", "asym", "tiny"] {
            assert_eq!(by_name(name).unwrap().admission, None);
        }
    }

    #[test]
    fn fault_spec_builders_compose() {
        let spec = FaultSpec::sensing(0.01)
            .with_burst(0.1, 0.5, 0.2, 0.3)
            .with_hidden_pair(1, 2)
            .with_poisson_churn(0.005, 10.0)
            .with_flash_crowd(2, 2, 50)
            .with_adaptive_recovery(2, 16)
            .with_churn(0, 5, 5);
        let burst = spec.burst.unwrap();
        assert_eq!(
            (burst.p_enter_bad, burst.p_exit_bad),
            (0.1, 0.5),
            "builders must not clobber each other"
        );
        assert_eq!(spec.hidden, vec![(1, 2)]);
        assert!(spec.poisson.is_some() && spec.flash_crowd.is_some());
        let adaptive = spec.adaptive.unwrap();
        assert_eq!((adaptive.base, adaptive.cap), (2, 16));
        assert!(spec.churn.is_some());
    }

    #[test]
    fn scenario_matches_direct_builder() {
        // The scenario layer must reproduce a hand-built network bit for
        // bit: same config, same seed, same trajectory.
        let sc = video(4, 0.5, 0.9, 7).with_intervals(50);
        let a = sc.run().unwrap();
        let traffic = BurstUniform::symmetric(4, 0.5, 6).unwrap();
        let mut net = Network::builder()
            .links(4)
            .deadline_ms(20)
            .payload_bytes(1500)
            .uniform_success_probability(0.7)
            .traffic(Box::new(traffic))
            .delivery_ratio(0.9)
            .policy(PolicySpec::db_dp())
            .seed(7)
            .build()
            .unwrap();
        let b = net.run(50);
        assert_eq!(a, b);
    }

    #[test]
    fn sweep_at_replaces_only_the_axis() {
        let sweep = fig3(100, 1);
        let sc = sweep.at(0.40);
        assert_eq!(
            sc.traffic,
            TrafficSpec::Burst {
                alpha: Param::Uniform(0.40),
                burst_max: 6
            }
        );
        assert_eq!(sc.ratio, Param::Uniform(0.9));
        assert_eq!(sweep.scenarios().len(), 7);
    }

    #[test]
    fn sweep_at_adopts_the_axis_traffic_kind() {
        for (base, axis, x, traffic) in [
            // α over Bernoulli traffic becomes the paper's bursts.
            ("control10", Axis::Alpha, 0.3, "burst:0.3:6"),
            // A uniform α axis flattens the asymmetric network's per-link α.
            ("asym", Axis::Alpha, 0.2, "burst:0.2:6"),
            // λ over bursts or constant traffic becomes Bernoulli.
            ("video20", Axis::Lambda, 0.6, "bernoulli:0.6"),
            ("tiny", Axis::Lambda, 0.6, "bernoulli:0.6"),
        ] {
            let sweep = Sweep {
                name: base,
                base: by_name(base).unwrap(),
                axis,
                points: vec![x],
                shape: None,
            };
            assert_eq!(sweep.scenarios()[0].traffic.render(), traffic, "{base}");
        }
        // A burst keeps its maximum.
        let mut sweep = fig3(10, 0);
        sweep.base.traffic = TrafficSpec::parse("burst:0.1:3").unwrap();
        assert_eq!(sweep.at(0.4).traffic.render(), "burst:0.4:3");
    }

    #[test]
    fn asym_sweep_scales_by_shape() {
        let sweep = fig7(100, 1);
        let sc = sweep.at(0.5);
        match &sc.traffic {
            TrafficSpec::Burst { alpha, .. } => {
                let v = alpha.expand(20);
                assert_eq!(v[0], 0.25);
                assert_eq!(v[19], 0.5);
            }
            other => panic!("unexpected traffic {other:?}"),
        }
        // Success probabilities keep the two-group structure.
        assert_eq!(sc.success.expand(20)[0], 0.5);
        assert_eq!(sc.success.expand(20)[19], 0.8);
    }

    #[test]
    fn every_policy_spec_instantiates() {
        for spec in [
            PolicySpec::db_dp(),
            PolicySpec::db_dp_pairs(3),
            PolicySpec::eldf(),
            PolicySpec::Ldf,
            PolicySpec::Fcsma,
            PolicySpec::Dcf,
            PolicySpec::frame_csma(),
            PolicySpec::FixedPriority,
        ] {
            let sc = tiny(1).with_policy(spec).with_intervals(5);
            let report = sc.run().unwrap_or_else(|e| panic!("{spec:?}: {e}"));
            assert_eq!(report.intervals, 5, "{spec:?}");
        }
    }

    #[test]
    fn labels_are_the_paper_names() {
        assert_eq!(PolicySpec::db_dp().label(), "DB-DP");
        assert_eq!(PolicySpec::db_dp_pairs(3).label(), "DB-DP 3 pairs");
        assert_eq!(PolicySpec::Ldf.label(), "LDF");
        assert_eq!(PolicySpec::Fcsma.label(), "FCSMA");
    }

    /// An invalid traffic parameter is reported as the arrival process's
    /// own error by both ways of building a scenario's network.
    #[test]
    fn invalid_traffic_reports_the_arrival_process_error() {
        for (traffic, expected) in [
            (
                "burst:1.5",
                "arrival rate parameter of link 0 is invalid: 1.5",
            ),
            ("burst:0.5:0", "parameter burst_max is out of range: 0"),
            (
                "bernoulli:NaN",
                "arrival rate parameter of link 0 is invalid: NaN",
            ),
            (
                "bernoulli:0.5,0.5",
                "arrival process links has 2 entries but the network has 3 links",
            ),
        ] {
            let sc = Scenario {
                traffic: TrafficSpec::parse(traffic).unwrap(),
                ..tiny(0)
            };
            for err in [
                sc.network().unwrap_err(),
                sc.to_builder().build().unwrap_err(),
            ] {
                assert_eq!(err.to_string(), expected, "{traffic}");
            }
        }
    }

    #[test]
    fn every_policy_name_parses() {
        for (name, spec) in [
            ("db-dp", PolicySpec::db_dp()),
            ("dbdp", PolicySpec::db_dp()),
            ("db-dp:pairs=3", PolicySpec::db_dp_pairs(3)),
            ("ldf", PolicySpec::Ldf),
            ("eldf", PolicySpec::eldf()),
            ("fcsma", PolicySpec::Fcsma),
            ("dcf", PolicySpec::Dcf),
            ("frame-csma", PolicySpec::frame_csma()),
            ("framecsma", PolicySpec::frame_csma()),
            ("frame-csma:slots=8", PolicySpec::frame_csma_slots(8)),
            ("fixed", PolicySpec::FixedPriority),
        ] {
            assert_eq!(PolicySpec::parse(name), Ok(spec), "{name}");
        }
        for bad in ["tdma", "db-dp:pairs=x", "frame-csma:slots=", "DB-DP"] {
            let err = PolicySpec::parse(bad).unwrap_err();
            assert_eq!(err.text, bad);
            assert!(err.to_string().contains("frame-csma:slots=K"), "{err}");
        }
    }

    /// Every arrival spelling either front end accepted, with its meaning
    /// written as the canonical spelling.
    #[test]
    fn arrivals_variants() {
        for (text, canonical) in [
            ("bernoulli:0.78", "bernoulli:0.78"),
            ("constant", "constant"),
            ("burst:0.55", "burst:0.55:6"),
            ("burst:0.25:4", "burst:0.25:4"),
            ("burst:0.1, 0.2:6", "burst:0.1,0.2:6"),
            ("bernoulli:0.5,", "bernoulli:0.5,"),
        ] {
            let spec = TrafficSpec::parse(text).unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(spec.render(), canonical);
        }
        assert_eq!(
            TrafficSpec::parse("burst:0.55"),
            Ok(TrafficSpec::Burst {
                alpha: Param::Uniform(0.55),
                burst_max: 6
            })
        );
        for bad in [
            "poisson:2",
            "burst:x",
            "burst:",
            "burst:0.5:",
            "bernoulli:,",
        ] {
            let err = TrafficSpec::parse(bad).unwrap_err();
            assert_eq!(err.text, bad);
            assert!(err.to_string().contains("burst:ALPHA[:MAX]"), "{err}");
        }
        assert!(Param::parse("0.9;0.8").is_err());
        assert!(Axis::parse("rho").is_err());
    }

    #[test]
    fn to_builder_is_customizable() {
        // The escape hatch: start from a named workload, override a knob
        // the declarative form does not carry.
        let net = by_name("tiny")
            .unwrap()
            .to_builder()
            .payload_bytes(300)
            .build()
            .unwrap();
        assert_eq!(net.config().n_links(), 3);
    }

    #[test]
    fn track_is_wired_through() {
        let report = fig5(20, 3).run().unwrap();
        assert!(report.tracked.is_some());
    }
}
