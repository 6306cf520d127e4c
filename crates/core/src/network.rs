//! The end-to-end network simulator: arrivals → policy → debts → metrics.

use rtmac_mac::{ChurnEvent, DpConfig, DpEngine, IntervalOutcome, MacTiming, RecoveryConfig};
use rtmac_model::metrics::{ConvergenceTracker, DeficiencySeries};
use rtmac_model::{ConfigError, DebtLedger, LinkId, NetworkConfig, Requirements};
use rtmac_phy::channel::{Bernoulli, LossModel};
use rtmac_phy::fault::{BurstSensing, ChurnProcess, ChurnSchedule, FaultModel, HiddenMatrix};
use rtmac_phy::PhyProfile;
use rtmac_sim::{Nanos, SeedStream, SimRng};
use rtmac_traffic::ArrivalProcess;

use crate::admission::{self, AdmissionReport};
use crate::scenario::{AdmissionSpec, FaultSpec, PolicySpec, TrafficSpec};
use crate::{DbDp, RunReport, TransmissionPolicy};

/// Runtime state of the feasibility-aware admission gate (see
/// [`crate::admission`] for the decision helpers it runs).
#[derive(Debug, Clone)]
struct AdmissionState {
    threshold: f64,
    shed: bool,
    admitted: Vec<bool>,
    q: Vec<f64>,
    p: Vec<f64>,
    budget: u64,
    accepted: u64,
    rejected: u64,
    shed_count: u64,
    peak_utilization: f64,
}

impl AdmissionState {
    /// Re-measures the admitted set's utilization and, with shedding on,
    /// blocks admitted links lowest-debt-first until the survivors fit
    /// under the threshold.
    fn rebalance(&mut self, debts: &[f64], policy: &mut dyn TransmissionPolicy) {
        let utilization =
            admission::admitted_utilization(&self.q, &self.p, &self.admitted, self.budget);
        self.peak_utilization = self.peak_utilization.max(utilization);
        if self.shed && utilization > self.threshold {
            let order = admission::shed_order(
                &self.q,
                &self.p,
                &self.admitted,
                debts,
                self.budget,
                self.threshold,
            );
            for v in order {
                self.admitted[v] = false;
                self.shed_count = self.shed_count.saturating_add(1);
                policy.set_blocked(v, true);
            }
        }
    }

    fn report(&self) -> AdmissionReport {
        AdmissionReport {
            admitted: self.admitted.clone(),
            accepted: self.accepted,
            rejected: self.rejected,
            shed: self.shed_count,
            peak_utilization: self.peak_utilization,
        }
    }
}

/// A complete simulated network: topology and channel (`rtmac-model`,
/// `rtmac-phy`), traffic (`rtmac-traffic`), a transmission policy, and the
/// delivery-debt ledger that closes the control loop.
///
/// Construct one with [`Network::builder`], then call [`Network::run`] (or
/// [`Network::step`] to drive interval by interval).
pub struct Network {
    config: NetworkConfig,
    requirements: Requirements,
    debts: DebtLedger,
    traffic: Box<dyn ArrivalProcess>,
    channel: Box<dyn LossModel>,
    policy: Box<dyn TransmissionPolicy>,
    arrival_rng: SimRng,
    protocol_rng: SimRng,
    arrivals_buf: Vec<u32>,
    // accumulated counters
    intervals: usize,
    deficiency: DeficiencySeries,
    attempts: Vec<u64>,
    latency_sums: Vec<Nanos>,
    collisions: u64,
    empty_packets: u64,
    idle_slots: u64,
    busy_time: Nanos,
    tracked: Option<ConvergenceTracker>,
    admission: Option<AdmissionState>,
    churn_events_buf: Vec<ChurnEvent>,
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("links", &self.config.n_links())
            .field("policy", &self.policy.name())
            .field("intervals", &self.intervals)
            .finish()
    }
}

impl Network {
    /// Starts building a network.
    #[must_use]
    pub fn builder() -> NetworkBuilder {
        NetworkBuilder::default()
    }

    /// The static network description.
    #[must_use]
    pub fn config(&self) -> &NetworkConfig {
        &self.config
    }

    /// The timely-throughput requirements.
    #[must_use]
    pub fn requirements(&self) -> &Requirements {
        &self.requirements
    }

    /// The live delivery-debt ledger.
    #[must_use]
    pub fn debts(&self) -> &DebtLedger {
        &self.debts
    }

    /// The policy's name.
    #[must_use]
    pub fn policy_name(&self) -> &str {
        self.policy.name()
    }

    /// The policy's current priority permutation, if it maintains one.
    #[must_use]
    pub fn sigma(&self) -> Option<&rtmac_model::Permutation> {
        self.policy.sigma()
    }

    /// Number of intervals simulated so far.
    #[must_use]
    pub fn intervals(&self) -> usize {
        self.intervals
    }

    /// The per-link arrival counts sampled by the most recent
    /// [`Network::step`] (empty before the first interval).
    ///
    /// This is the interval's ground truth for "did link `n` have traffic"
    /// — the transport layer (`rtmac-net`) classifies each link's interval
    /// as claim / busy / idle from it, and replica-based deployments use it
    /// to stamp per-link backlog into their frames.
    #[must_use]
    pub fn last_arrivals(&self) -> &[u32] {
        &self.arrivals_buf
    }

    /// Simulates one interval: samples arrivals, runs the policy, settles
    /// debts, and updates the metric streams. Returns the interval outcome.
    ///
    /// # Panics
    ///
    /// Propagates panics from the configured policy engine — notably the
    /// reference differential-test engine, which aborts on a diverged
    /// handshake rather than continuing a corrupted comparison run.
    pub fn step(&mut self) -> IntervalOutcome {
        self.traffic
            .sample(&mut self.arrival_rng, &mut self.arrivals_buf);
        let outcome = self.policy.run_interval(
            &self.arrivals_buf,
            &self.debts,
            self.channel.as_mut(),
            &mut self.protocol_rng,
        );
        let deficiency = self.debts.settle_and_total_deficiency(&outcome.deliveries);
        self.deficiency.push(deficiency);
        if let Some(tracker) = &mut self.tracked {
            tracker.record(&self.debts);
        }
        for ((a, l), (&x, &t)) in self
            .attempts
            .iter_mut()
            .zip(&mut self.latency_sums)
            .zip(outcome.attempts.iter().zip(&outcome.latency_sum))
        {
            *a += x;
            *l += t;
        }
        // Long-lived accumulators saturate instead of wrapping: a batch
        // horizon is caller-chosen and these counters feed every report.
        self.collisions = self.collisions.saturating_add(outcome.collisions);
        self.empty_packets = self.empty_packets.saturating_add(outcome.empty_packets);
        self.idle_slots = self.idle_slots.saturating_add(outcome.idle_slots);
        self.busy_time = self.busy_time.saturating_add(outcome.busy_time);
        self.intervals = self.intervals.saturating_add(1);
        self.apply_admission();
        outcome
    }

    /// Drains this interval's churn transitions and replays the admission
    /// gate over them: joiners are admitted iff the admitted set stays at
    /// or under the utilization threshold; crashed links leave the set (and
    /// re-apply on revival); with shedding enabled an overloaded admitted
    /// set is trimmed lowest-debt-first. Rejected and shed links are
    /// administratively blocked until their next revival re-evaluates them.
    fn apply_admission(&mut self) {
        self.churn_events_buf.clear();
        self.policy.drain_churn_events(&mut self.churn_events_buf);
        let Some(state) = self.admission.as_mut() else {
            return;
        };
        if self.churn_events_buf.is_empty() {
            return;
        }
        for i in 0..self.churn_events_buf.len() {
            let ev = self.churn_events_buf[i];
            if !ev.up {
                // A crashed link leaves the admitted set; its revival is a
                // fresh application.
                state.admitted[ev.link] = false;
                continue;
            }
            if admission::admit_decision(
                &state.q,
                &state.p,
                &state.admitted,
                ev.link,
                state.budget,
                state.threshold,
            ) {
                state.admitted[ev.link] = true;
                state.accepted = state.accepted.saturating_add(1);
                self.policy.set_blocked(ev.link, false);
            } else {
                state.rejected = state.rejected.saturating_add(1);
                self.policy.set_blocked(ev.link, true);
            }
        }
        state.rebalance(self.debts.debts(), self.policy.as_mut());
    }

    /// Runs `intervals` more intervals and returns the cumulative report.
    ///
    /// # Panics
    ///
    /// Propagates policy-engine panics, as in [`Network::step`].
    pub fn run(&mut self, intervals: usize) -> RunReport {
        for _ in 0..intervals {
            self.step();
        }
        self.report()
    }

    /// The cumulative report over everything simulated so far.
    #[must_use]
    pub fn report(&self) -> RunReport {
        let n = self.config.n_links();
        RunReport {
            policy: self.policy.name().to_string(),
            intervals: self.intervals,
            final_total_deficiency: self.deficiency.last().unwrap_or_else(|| {
                // No interval yet: deficiency is the full requirement.
                self.requirements.total()
            }),
            deficiency: self.deficiency.clone(),
            per_link_throughput: (0..n)
                .map(|l| self.debts.empirical_throughput(LinkId::new(l)))
                .collect(),
            final_debts: self.debts.debts().to_vec(),
            attempts: self.attempts.clone(),
            mean_latency: (0..n)
                .map(|l| {
                    self.latency_sums[l]
                        .as_nanos()
                        .checked_div(self.debts.cumulative_deliveries(LinkId::new(l)))
                        .map(Nanos::from_nanos)
                })
                .collect(),
            collisions: self.collisions,
            empty_packets: self.empty_packets,
            idle_slots: self.idle_slots,
            busy_time: self.busy_time,
            tracked: self.tracked.clone(),
            fault: self.policy.fault_stats(),
            admission: self.admission.as_ref().map(AdmissionState::report),
        }
    }
}

/// Fluent builder for [`Network`].
///
/// Minimal required calls: [`links`](Self::links), an arrival process, a
/// requirement (delivery ratio or explicit `q`), and a policy. Everything
/// else has paper defaults (802.11a PHY, 20 ms deadline, 1500 B payload,
/// reliable channel, seed 0).
pub struct NetworkBuilder {
    n_links: usize,
    /// The per-packet deadline, or the overflow error an out-of-range
    /// [`deadline_ms`](Self::deadline_ms) / [`deadline_us`](Self::deadline_us)
    /// left for [`build`](Self::build) to report.
    deadline: Result<Nanos, ConfigError>,
    payload_bytes: u32,
    link_payloads: Option<Vec<u32>>,
    phy: PhyProfile,
    success: Option<Vec<f64>>,
    /// The arrival process, or the error [`build`](Self::build) reports:
    /// a missing process, or an invalid [`TrafficSpec`]'s own error.
    traffic: Result<Box<dyn ArrivalProcess>, ConfigError>,
    requirements: Option<Requirements>,
    delivery_ratio: Option<Vec<f64>>,
    policy: Option<PolicySpec>,
    channel: Option<Box<dyn LossModel>>,
    seed: u64,
    track: Option<(LinkId, f64)>,
    fault: Option<FaultSpec>,
    admission: Option<AdmissionSpec>,
}

impl Default for NetworkBuilder {
    fn default() -> Self {
        NetworkBuilder {
            n_links: 0,
            deadline: Ok(Nanos::from_millis(20)),
            payload_bytes: 1500,
            link_payloads: None,
            phy: PhyProfile::ieee80211a(),
            success: None,
            traffic: Err(ConfigError::InvalidParameter {
                name: "traffic (arrival process required)",
                value: f64::NAN,
            }),
            requirements: None,
            delivery_ratio: None,
            policy: None,
            channel: None,
            seed: 0,
            track: None,
            fault: None,
            admission: None,
        }
    }
}

impl NetworkBuilder {
    /// Sets the number of links `N` (required).
    #[must_use]
    pub fn links(mut self, n: usize) -> Self {
        self.n_links = n;
        self
    }

    /// Sets the per-packet deadline in milliseconds (default 20). A
    /// deadline whose nanoseconds overflow `u64` makes
    /// [`build`](Self::build) return [`ConfigError::Overflow`].
    #[must_use]
    pub fn deadline_ms(mut self, ms: u64) -> Self {
        self.deadline = Nanos::checked_from_millis(ms).ok_or(ConfigError::Overflow {
            name: "deadline_ms",
            value: ms,
        });
        self
    }

    /// Sets the per-packet deadline in microseconds, the unit of
    /// [`Scenario::deadline_us`](crate::Scenario::deadline_us) and
    /// scenario files. Overflow is reported by [`build`](Self::build) as
    /// for [`deadline_ms`](Self::deadline_ms).
    #[must_use]
    pub fn deadline_us(mut self, us: u64) -> Self {
        self.deadline = Nanos::checked_from_micros(us).ok_or(ConfigError::Overflow {
            name: "deadline_us",
            value: us,
        });
        self
    }

    /// Sets the per-packet deadline exactly.
    #[must_use]
    pub fn deadline(mut self, t: Nanos) -> Self {
        self.deadline = Ok(t);
        self
    }

    /// Sets the data payload size in bytes (default 1500).
    #[must_use]
    pub fn payload_bytes(mut self, bytes: u32) -> Self {
        self.payload_bytes = bytes;
        self
    }

    /// Gives each link its own payload size — mixed traffic classes (e.g.
    /// video and control links) sharing one medium. Overrides
    /// [`payload_bytes`](Self::payload_bytes) per link.
    #[must_use]
    pub fn link_payloads(mut self, payloads: Vec<u32>) -> Self {
        self.link_payloads = Some(payloads);
        self
    }

    /// Sets the PHY profile (default IEEE 802.11a).
    #[must_use]
    pub fn phy(mut self, phy: PhyProfile) -> Self {
        self.phy = phy;
        self
    }

    /// Every link succeeds with probability `p`.
    #[must_use]
    pub fn uniform_success_probability(mut self, p: f64) -> Self {
        self.success = Some(vec![p; self.n_links]);
        self
    }

    /// Per-link success probabilities.
    #[must_use]
    pub fn success_probabilities(mut self, p: Vec<f64>) -> Self {
        self.success = Some(p);
        self
    }

    /// Uses an arbitrary arrival process.
    #[must_use]
    pub fn traffic(mut self, traffic: Box<dyn ArrivalProcess>) -> Self {
        self.traffic = Ok(traffic);
        self
    }

    /// Instantiates `spec` for the links set so far; an invalid spec's
    /// error is left for [`build`](Self::build) to report.
    #[must_use]
    pub(crate) fn traffic_spec(mut self, spec: &TrafficSpec) -> Self {
        self.traffic = spec.instantiate(self.n_links);
        self
    }

    /// Requires delivery ratio `rho` on every link (`q_n = ρ·λ_n`, with
    /// `λ_n` taken from the traffic process).
    #[must_use]
    pub fn delivery_ratio(mut self, rho: f64) -> Self {
        self.delivery_ratio = Some(vec![rho; self.n_links]);
        self
    }

    /// Per-link delivery ratios.
    #[must_use]
    pub fn delivery_ratios(mut self, rho: Vec<f64>) -> Self {
        self.delivery_ratio = Some(rho);
        self
    }

    /// Explicit timely-throughput requirements `q_n` (overrides delivery
    /// ratios).
    #[must_use]
    pub fn requirements(mut self, q: Requirements) -> Self {
        self.requirements = Some(q);
        self
    }

    /// Selects the transmission policy (required).
    #[must_use]
    pub fn policy(mut self, spec: PolicySpec) -> Self {
        self.policy = Some(spec);
        self
    }

    /// Overrides the loss model (default: Bernoulli with the configured
    /// success probabilities).
    #[must_use]
    pub fn channel(mut self, channel: Box<dyn LossModel>) -> Self {
        self.channel = Some(channel);
        self
    }

    /// Seeds every random stream (default 0). Equal seeds give bit-equal
    /// runs.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Tracks one link's running timely-throughput and convergence into a
    /// `1 − band` neighborhood of its requirement (Fig. 5).
    #[must_use]
    pub fn track_link(mut self, link: LinkId, band: f64) -> Self {
        self.track = Some((link, band));
        self
    }

    /// Injects carrier-sensing faults and link churn into the run. Only the
    /// DB-DP policy supports fault injection (its engine gets a fault layer
    /// and runs the degraded semantics); [`build`](Self::build) rejects
    /// the combination with any other policy.
    #[must_use]
    pub fn fault(mut self, fault: FaultSpec) -> Self {
        self.fault = Some(fault);
        self
    }

    /// Enables the feasibility-aware admission gate: at every churn event
    /// the network admits or rejects arriving links against the Lemma-2
    /// utilization threshold, and (when `spec.shed` is set) trims an
    /// overloaded admitted set lowest-debt-first. Requires fault injection
    /// — [`build`](Self::build) rejects admission without a
    /// [`fault`](Self::fault) spec, because the degraded DB-DP engine is
    /// the only substrate with churn events and administrative blocking.
    #[must_use]
    pub fn admission(mut self, spec: AdmissionSpec) -> Self {
        self.admission = Some(spec);
        self
    }

    /// Validates everything and builds the [`Network`].
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the topology, probabilities, traffic,
    /// requirements, or policy are missing or inconsistent,
    /// [`ConfigError::InvalidParameter`] for a deadline shorter than one
    /// backoff slot, or [`ConfigError::Overflow`] for a deadline or
    /// payload too large for the simulated time arithmetic.
    pub fn build(self) -> Result<Network, ConfigError> {
        let success = self.success.unwrap_or_else(|| vec![1.0; self.n_links]);
        let config = NetworkConfig::builder(self.n_links)
            .deadline(self.deadline?)
            .success_probabilities(success)
            .build()?;

        let traffic = self.traffic?;
        if traffic.n_links() != config.n_links() {
            return Err(ConfigError::LengthMismatch {
                what: "arrival process links",
                expected: config.n_links(),
                actual: traffic.n_links(),
            });
        }

        let requirements = match (self.requirements, self.delivery_ratio) {
            (Some(q), _) => q,
            (None, Some(rho)) => {
                let lambda: Vec<f64> = (0..config.n_links())
                    .map(|l| traffic.mean(LinkId::new(l)))
                    .collect();
                Requirements::from_delivery_ratios(&lambda, &rho)?
            }
            (None, None) => {
                return Err(ConfigError::InvalidParameter {
                    name: "requirements (set delivery_ratio or requirements)",
                    value: f64::NAN,
                })
            }
        };
        if requirements.len() != config.n_links() {
            return Err(ConfigError::LengthMismatch {
                what: "requirements",
                expected: config.n_links(),
                actual: requirements.len(),
            });
        }

        let channel = match self.channel {
            Some(c) => {
                if c.n_links() != config.n_links() {
                    return Err(ConfigError::LengthMismatch {
                        what: "channel links",
                        expected: config.n_links(),
                        actual: c.n_links(),
                    });
                }
                c
            }
            None => Box::new(Bernoulli::new(config.success_probabilities().to_vec())?),
        };

        let spec = self.policy.ok_or(ConfigError::InvalidParameter {
            name: "policy (call .policy(PolicySpec::...))",
            value: f64::NAN,
        })?;
        let mut timing =
            MacTiming::try_new(self.phy.clone(), config.deadline(), self.payload_bytes)?;
        if let Some(bad) = self
            .link_payloads
            .iter()
            .flatten()
            .find(|&&b| self.phy.checked_packet_exchange_airtime(b).is_none())
        {
            return Err(ConfigError::Overflow {
                name: "payload_bytes (frame airtime)",
                value: u64::from(*bad),
            });
        }
        if let Some(payloads) = self.link_payloads {
            if payloads.len() != config.n_links() {
                return Err(ConfigError::LengthMismatch {
                    what: "per-link payloads",
                    expected: config.n_links(),
                    actual: payloads.len(),
                });
            }
            timing = timing.with_link_payloads(&payloads);
        }
        // The links dark at interval 0 (flash-crowd blocks, crash_at == 0
        // events), read from the churn process before it first advances;
        // `Some` exactly when a fault layer gives the gate its substrate.
        let mut initially_down: Option<Vec<bool>> = None;
        let budget = timing.max_transmissions();
        let seeds = SeedStream::new(self.seed);
        let mut policy: Box<dyn TransmissionPolicy> = match (spec, self.fault) {
            (
                PolicySpec::DbDp {
                    influence,
                    r,
                    swap_pairs,
                },
                Some(spec),
            ) => {
                for (name, p) in [
                    ("fault false_busy (must lie in [0, 1))", spec.false_busy),
                    ("fault false_idle (must lie in [0, 1))", spec.false_idle),
                ] {
                    if !(0.0..1.0).contains(&p) {
                        return Err(ConfigError::InvalidParameter { name, value: p });
                    }
                }
                if spec.miss_limit == 0 {
                    return Err(ConfigError::InvalidParameter {
                        name: "fault miss_limit (must be at least 1)",
                        value: 0.0,
                    });
                }
                let recovery = match spec.adaptive {
                    Some(a) => {
                        if a.base == 0 {
                            return Err(ConfigError::InvalidParameter {
                                name: "adaptive recovery base (must be at least 1)",
                                value: 0.0,
                            });
                        }
                        if a.cap < a.base {
                            return Err(ConfigError::InvalidParameter {
                                name: "adaptive recovery cap (must be at least the base)",
                                value: f64::from(a.cap),
                            });
                        }
                        RecoveryConfig::new().with_adaptive_miss_limit(a.base, a.cap)
                    }
                    None => RecoveryConfig::new().with_miss_limit(spec.miss_limit),
                };
                let mut fault_model =
                    FaultModel::new(spec.false_busy, spec.false_idle, seeds.rng(3));
                if let Some(b) = spec.burst {
                    if !(b.p_enter_bad.is_finite() && (0.0..1.0).contains(&b.p_enter_bad)) {
                        return Err(ConfigError::InvalidParameter {
                            name: "burst p_enter_bad (must lie in [0, 1))",
                            value: b.p_enter_bad,
                        });
                    }
                    if !(b.p_exit_bad.is_finite() && b.p_exit_bad > 0.0 && b.p_exit_bad <= 1.0) {
                        return Err(ConfigError::InvalidParameter {
                            name: "burst p_exit_bad (must lie in (0, 1])",
                            value: b.p_exit_bad,
                        });
                    }
                    for (name, p) in [
                        (
                            "burst bad_false_busy (must lie in [0, 1))",
                            b.bad_false_busy,
                        ),
                        (
                            "burst bad_false_idle (must lie in [0, 1))",
                            b.bad_false_idle,
                        ),
                    ] {
                        if !(0.0..1.0).contains(&p) {
                            return Err(ConfigError::InvalidParameter { name, value: p });
                        }
                    }
                    // Lane 5 drives the Gilbert–Elliott state chains so the
                    // flip stream on lane 3 stays aligned with the i.i.d.
                    // model (the equal-rate reduction law).
                    fault_model = fault_model.with_burst(
                        config.n_links(),
                        BurstSensing::new(
                            b.p_enter_bad,
                            b.p_exit_bad,
                            b.bad_false_busy,
                            b.bad_false_idle,
                        ),
                        seeds.rng(5),
                    );
                }
                let mut engine = DpEngine::new(
                    DpConfig::new(timing).with_swap_pairs(swap_pairs),
                    config.n_links(),
                )
                .with_fault_model(fault_model)
                .with_recovery(recovery);
                if !spec.hidden.is_empty() {
                    let mut matrix = HiddenMatrix::new(config.n_links());
                    for &(listener, transmitter) in &spec.hidden {
                        if listener >= config.n_links()
                            || transmitter >= config.n_links()
                            || listener == transmitter
                        {
                            return Err(ConfigError::InvalidParameter {
                                name: "hidden pair (distinct in-range links required)",
                                value: listener as f64,
                            });
                        }
                        matrix.hide(listener, transmitter);
                    }
                    engine = engine.with_hidden(matrix);
                }
                if spec.churn.is_some() || spec.flash_crowd.is_some() || spec.poisson.is_some() {
                    let mut churn_process = ChurnProcess::new(config.n_links());
                    if let Some(churn) = spec.churn {
                        if churn.link >= config.n_links() {
                            return Err(ConfigError::InvalidParameter {
                                name: "churn link",
                                value: churn.link as f64,
                            });
                        }
                        if churn.down_intervals == 0 {
                            return Err(ConfigError::InvalidParameter {
                                name: "churn down_intervals (a crash must last at least one \
                                       interval)",
                                value: 0.0,
                            });
                        }
                        churn_process = churn_process.with_event(ChurnSchedule::new(
                            LinkId::new(churn.link),
                            churn.crash_at,
                            churn.down_intervals,
                        ));
                    }
                    if let Some(fc) = spec.flash_crowd {
                        if fc.count == 0
                            || fc.first_link.saturating_add(fc.count) > config.n_links()
                        {
                            return Err(ConfigError::InvalidParameter {
                                name: "flash crowd range (must be a nonempty in-range block)",
                                value: fc.first_link as f64,
                            });
                        }
                        if fc.join_at == 0 {
                            return Err(ConfigError::InvalidParameter {
                                name: "flash crowd join_at (the block must start dark)",
                                value: 0.0,
                            });
                        }
                        churn_process =
                            churn_process.with_flash_crowd(fc.first_link, fc.count, fc.join_at);
                    }
                    if let Some(pc) = spec.poisson {
                        if !(pc.crash_rate.is_finite() && (0.0..1.0).contains(&pc.crash_rate)) {
                            return Err(ConfigError::InvalidParameter {
                                name: "poisson churn crash_rate (must lie in [0, 1))",
                                value: pc.crash_rate,
                            });
                        }
                        if !(pc.mean_down.is_finite() && pc.mean_down >= 1.0) {
                            return Err(ConfigError::InvalidParameter {
                                name: "poisson churn mean_down (must be at least 1 interval)",
                                value: pc.mean_down,
                            });
                        }
                        // Lane 4 is the churn process's dedicated stream.
                        churn_process =
                            churn_process.with_poisson(pc.crash_rate, pc.mean_down, seeds.rng(4));
                    }
                    engine = engine.with_churn_process(churn_process);
                }
                initially_down = Some(
                    (0..config.n_links())
                        .map(|l| engine.churn_process().is_some_and(|c| c.is_down(l, 0)))
                        .collect(),
                );
                Box::new(DbDp::new(
                    engine,
                    influence.boxed(),
                    r,
                    config.success_probabilities().to_vec(),
                ))
            }
            (_, Some(spec)) => {
                return Err(ConfigError::InvalidParameter {
                    name: "fault (fault injection requires the DB-DP policy)",
                    value: spec.false_busy,
                })
            }
            (spec, None) => {
                spec.instantiate(config.n_links(), config.success_probabilities(), timing)
            }
        };
        let tracked = match self.track {
            Some((link, band)) => {
                if link.index() >= config.n_links() {
                    return Err(ConfigError::InvalidParameter {
                        name: "tracked link",
                        value: link.index() as f64,
                    });
                }
                Some(ConvergenceTracker::new(link, requirements.q(link), band))
            }
            None => None,
        };

        let n = config.n_links();
        let debts = DebtLedger::new(requirements.clone());
        let admission_state = match self.admission {
            None => None,
            Some(spec) => {
                if !(spec.threshold.is_finite() && spec.threshold > 0.0) {
                    return Err(ConfigError::InvalidParameter {
                        name: "admission threshold (must be finite and positive)",
                        value: spec.threshold,
                    });
                }
                let Some(down) = initially_down else {
                    return Err(ConfigError::InvalidParameter {
                        name: "admission (requires fault injection: the degraded DB-DP path \
                               is the only substrate with churn events and blocking)",
                        value: spec.threshold,
                    });
                };
                if budget == 0 {
                    return Err(ConfigError::InvalidParameter {
                        name: "admission budget (deadline shorter than one data airtime)",
                        value: 0.0,
                    });
                }
                let q: Vec<f64> = (0..n).map(|l| requirements.q(LinkId::new(l))).collect();
                let p = config.success_probabilities().to_vec();
                let admitted: Vec<bool> = down.iter().map(|&d| !d).collect();
                let mut state = AdmissionState {
                    threshold: spec.threshold,
                    shed: spec.shed,
                    admitted,
                    q,
                    p,
                    budget,
                    accepted: 0,
                    rejected: 0,
                    shed_count: 0,
                    peak_utilization: 0.0,
                };
                // Interval-0 pass: links up from the start are
                // grandfathered in, then shed if they already overload.
                state.rebalance(debts.debts(), policy.as_mut());
                Some(state)
            }
        };
        Ok(Network {
            config,
            debts,
            requirements,
            traffic,
            channel,
            policy,
            arrival_rng: seeds.rng(1),
            protocol_rng: seeds.rng(2),
            arrivals_buf: Vec::with_capacity(n),
            intervals: 0,
            deficiency: DeficiencySeries::new(),
            attempts: vec![0; n],
            latency_sums: vec![Nanos::ZERO; n],
            collisions: 0,
            empty_packets: 0,
            idle_slots: 0,
            busy_time: Nanos::ZERO,
            tracked,
            admission: admission_state,
            churn_events_buf: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtmac_traffic::BernoulliArrivals;

    fn bernoulli(links: usize, lambda: f64) -> Box<dyn ArrivalProcess> {
        Box::new(BernoulliArrivals::symmetric(links, lambda).unwrap())
    }

    fn base_builder() -> NetworkBuilder {
        Network::builder()
            .links(4)
            .deadline_ms(2)
            .payload_bytes(100)
            .uniform_success_probability(0.8)
            .traffic(bernoulli(4, 0.9))
            .delivery_ratio(0.9)
            .seed(1)
    }

    #[test]
    fn builds_and_runs_db_dp() {
        let mut net = base_builder().policy(PolicySpec::db_dp()).build().unwrap();
        let report = net.run(200);
        assert_eq!(report.intervals, 200);
        assert_eq!(report.per_link_throughput.len(), 4);
        assert!(report.final_total_deficiency < 0.2);
        assert_eq!(report.collisions, 0, "DP protocol is collision-free");
    }

    #[test]
    fn deterministic_under_equal_seeds() {
        let run = || {
            let mut net = base_builder().policy(PolicySpec::db_dp()).build().unwrap();
            net.run(100).per_link_throughput
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn different_seeds_differ() {
        let run = |seed: u64| {
            let mut net = base_builder()
                .seed(seed)
                .policy(PolicySpec::db_dp())
                .build()
                .unwrap();
            net.run(100).deficiency.as_slice().to_vec()
        };
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn ldf_baseline_fulfills_feasible_requirement() {
        let mut net = base_builder().policy(PolicySpec::Ldf).build().unwrap();
        let report = net.run(400);
        assert!(report.final_total_deficiency < 0.1);
    }

    #[test]
    fn missing_pieces_are_reported() {
        assert!(Network::builder().links(2).build().is_err()); // no traffic
        assert!(Network::builder()
            .links(2)
            .traffic(bernoulli(2, 0.5))
            .build()
            .is_err()); // no requirements
        assert!(Network::builder()
            .links(2)
            .traffic(bernoulli(2, 0.5))
            .delivery_ratio(0.9)
            .build()
            .is_err()); // no policy
        assert!(Network::builder()
            .links(0)
            .traffic(bernoulli(1, 0.5))
            .delivery_ratio(0.9)
            .policy(PolicySpec::Ldf)
            .build()
            .is_err()); // no links
    }

    #[test]
    fn tracker_follows_link() {
        let mut net = base_builder()
            .track_link(LinkId::new(2), 0.05)
            .policy(PolicySpec::Ldf)
            .build()
            .unwrap();
        let report = net.run(300);
        let tracker = report.tracked.expect("tracker configured");
        assert_eq!(tracker.link(), LinkId::new(2));
        assert_eq!(tracker.history().len(), 300);
        assert!(tracker.converged_at().is_some());
    }

    #[test]
    fn step_exposes_interval_outcomes() {
        let mut net = base_builder().policy(PolicySpec::Ldf).build().unwrap();
        let out = net.step();
        assert_eq!(out.deliveries.len(), 4);
        assert_eq!(net.intervals(), 1);
        assert_eq!(net.debts().interval(), 1);
    }

    #[test]
    fn report_before_any_interval_shows_full_requirement() {
        let net = base_builder().policy(PolicySpec::Ldf).build().unwrap();
        let report = net.report();
        // q_n = 0.9 · 0.9 = 0.81 per link, 4 links.
        assert!((report.final_total_deficiency - 4.0 * 0.81).abs() < 1e-9);
    }

    #[test]
    fn link_payloads_validated_and_applied() {
        // Wrong length rejected.
        assert!(matches!(
            base_builder()
                .link_payloads(vec![100, 1500])
                .policy(PolicySpec::Ldf)
                .build(),
            Err(ConfigError::LengthMismatch { .. })
        ));
        // Correct length builds and runs.
        let mut net = base_builder()
            .link_payloads(vec![100, 1500, 100, 1500])
            .policy(PolicySpec::Ldf)
            .build()
            .unwrap();
        let report = net.run(100);
        assert_eq!(report.per_link_throughput.len(), 4);
    }

    #[test]
    fn mean_latency_reported_within_deadline() {
        let mut net = base_builder().policy(PolicySpec::Ldf).build().unwrap();
        let report = net.run(300);
        for latency in report.mean_latency.iter().flatten() {
            assert!(*latency <= Nanos::from_millis(2));
            assert!(!latency.is_zero());
        }
    }

    #[test]
    fn fault_injection_runs_and_reports() {
        let mut net = base_builder()
            .fault(FaultSpec::sensing(0.05).with_churn(1, 20, 10))
            .policy(PolicySpec::db_dp())
            .build()
            .unwrap();
        let report = net.run(300);
        let stats = report.fault.expect("degraded DB-DP exposes fault stats");
        assert!(
            stats.sensing_flips > 0,
            "ε = 0.05 over 300 intervals must flip"
        );
        // Deterministic at seed 1: sensing faults desynchronize the priority
        // beliefs and recovery restores the bijection at least once.
        assert!(stats.desync_intervals > 0);
        assert!(stats.reconvergences > 0);
        assert!(report.policy.contains("degraded"));
    }

    #[test]
    fn zero_rate_fault_matches_pristine_numbers() {
        let pristine = base_builder()
            .policy(PolicySpec::db_dp())
            .build()
            .unwrap()
            .run(150);
        let faulty = base_builder()
            .fault(FaultSpec::sensing(0.0))
            .policy(PolicySpec::db_dp())
            .build()
            .unwrap()
            .run(150);
        // Same seeds, zero fault rates: the degraded engine replays the
        // pristine protocol bit-for-bit.
        assert_eq!(pristine.per_link_throughput, faulty.per_link_throughput);
        assert_eq!(pristine.deficiency, faulty.deficiency);
        assert_eq!(pristine.collisions, faulty.collisions);
        assert_eq!(pristine.busy_time, faulty.busy_time);
        assert_eq!(faulty.fault.unwrap().sensing_flips, 0);
    }

    #[test]
    fn fault_injection_requires_db_dp() {
        assert!(matches!(
            base_builder()
                .fault(FaultSpec::sensing(0.01))
                .policy(PolicySpec::Ldf)
                .build(),
            Err(ConfigError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn fault_parameters_validated() {
        let fault_build = |spec: FaultSpec| {
            base_builder()
                .fault(spec)
                .policy(PolicySpec::db_dp())
                .build()
        };
        assert!(fault_build(FaultSpec::sensing(1.0)).is_err());
        assert!(fault_build(FaultSpec::sensing(-0.1)).is_err());
        assert!(fault_build(FaultSpec::sensing(0.01).with_miss_limit(0)).is_err());
        assert!(fault_build(FaultSpec::sensing(0.01).with_churn(9, 5, 5)).is_err());
        assert!(fault_build(FaultSpec::sensing(0.01).with_churn(1, 5, 0)).is_err());
        assert!(fault_build(FaultSpec::sensing(0.01).with_churn(1, 5, 5)).is_ok());
    }

    #[test]
    fn burst_sensing_and_adaptive_recovery_run() {
        let mut net = base_builder()
            .fault(
                FaultSpec::sensing(0.01)
                    .with_burst(1.0 / 16.0, 0.25, 0.3, 0.3)
                    .with_adaptive_recovery(2, 16),
            )
            .policy(PolicySpec::db_dp())
            .build()
            .unwrap();
        let report = net.run(400);
        let stats = report.fault.expect("degraded path reports stats");
        assert!(
            stats.sensing_flips > 0,
            "bad-state ε = 0.3 over 400 intervals must flip"
        );
    }

    #[test]
    fn extended_fault_parameters_validated() {
        let fb = |spec: FaultSpec| {
            base_builder()
                .fault(spec)
                .policy(PolicySpec::db_dp())
                .build()
        };
        // Gilbert–Elliott chain parameters.
        assert!(fb(FaultSpec::sensing(0.01).with_burst(1.5, 0.5, 0.2, 0.2)).is_err());
        assert!(fb(FaultSpec::sensing(0.01).with_burst(0.1, 0.0, 0.2, 0.2)).is_err());
        assert!(fb(FaultSpec::sensing(0.01).with_burst(0.1, 0.5, 1.0, 0.2)).is_err());
        assert!(fb(FaultSpec::sensing(0.01).with_burst(0.1, 0.5, 0.2, 0.2)).is_ok());
        // Hidden-terminal pairs must be distinct in-range links.
        assert!(fb(FaultSpec::sensing(0.01).with_hidden_pair(0, 0)).is_err());
        assert!(fb(FaultSpec::sensing(0.01).with_hidden_pair(0, 9)).is_err());
        assert!(fb(FaultSpec::sensing(0.01).with_hidden_pair(0, 3)).is_ok());
        // Poisson churn rates.
        assert!(fb(FaultSpec::sensing(0.01).with_poisson_churn(1.0, 5.0)).is_err());
        assert!(fb(FaultSpec::sensing(0.01).with_poisson_churn(0.01, 0.5)).is_err());
        assert!(fb(FaultSpec::sensing(0.01).with_poisson_churn(0.01, 5.0)).is_ok());
        // Flash crowds.
        assert!(fb(FaultSpec::sensing(0.01).with_flash_crowd(0, 0, 5)).is_err());
        assert!(fb(FaultSpec::sensing(0.01).with_flash_crowd(3, 2, 5)).is_err());
        assert!(fb(FaultSpec::sensing(0.01).with_flash_crowd(2, 2, 0)).is_err());
        assert!(fb(FaultSpec::sensing(0.01).with_flash_crowd(2, 2, 5)).is_ok());
        // Adaptive recovery.
        assert!(fb(FaultSpec::sensing(0.01).with_adaptive_recovery(0, 4)).is_err());
        assert!(fb(FaultSpec::sensing(0.01).with_adaptive_recovery(8, 4)).is_err());
        assert!(fb(FaultSpec::sensing(0.01).with_adaptive_recovery(2, 8)).is_ok());
    }

    #[test]
    fn admission_requires_fault_injection() {
        assert!(matches!(
            base_builder()
                .admission(AdmissionSpec::new(0.9))
                .policy(PolicySpec::db_dp())
                .build(),
            Err(ConfigError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn permissive_admission_leaves_the_run_untouched() {
        let faulty = base_builder()
            .fault(FaultSpec::sensing(0.0))
            .policy(PolicySpec::db_dp())
            .build()
            .unwrap()
            .run(150);
        let gated = base_builder()
            .fault(FaultSpec::sensing(0.0))
            .admission(AdmissionSpec::new(100.0))
            .policy(PolicySpec::db_dp())
            .build()
            .unwrap()
            .run(150);
        // A generous threshold with no churn makes no decisions, so the
        // gated run replays the ungated one bit-for-bit.
        assert_eq!(faulty.per_link_throughput, gated.per_link_throughput);
        assert_eq!(faulty.deficiency, gated.deficiency);
        let adm = gated.admission.expect("gate configured");
        assert_eq!((adm.accepted, adm.rejected, adm.shed), (0, 0, 0));
        assert!(adm.admitted.iter().all(|&a| a));
        assert_eq!(faulty.admission, None);
    }

    #[test]
    fn admission_sheds_lowest_index_on_startup_overload() {
        // Each link needs q/p = 0.81/0.8 ≈ 1.0125 of a 16-transmission
        // budget (~0.063 utilization); four links are ~0.25. A 0.15
        // threshold forces two zero-debt sheds at build time, ties broken
        // by lowest index.
        let mut net = base_builder()
            .fault(FaultSpec::sensing(0.0))
            .admission(AdmissionSpec::new(0.15))
            .policy(PolicySpec::db_dp())
            .build()
            .unwrap();
        let report = net.run(50);
        let adm = report.admission.expect("gate configured");
        assert_eq!(adm.admitted, vec![false, false, true, true]);
        assert_eq!(adm.shed, 2);
        assert!(adm.peak_utilization > 0.15);
    }

    #[test]
    fn admission_without_shedding_only_gates_arrivals() {
        let mut net = base_builder()
            .fault(FaultSpec::sensing(0.0))
            .admission(AdmissionSpec::new(0.15).without_shedding())
            .policy(PolicySpec::db_dp())
            .build()
            .unwrap();
        let report = net.run(50);
        let adm = report.admission.expect("gate configured");
        assert!(
            adm.admitted.iter().all(|&a| a),
            "no shedding, nobody dropped"
        );
        assert_eq!(adm.shed, 0);
    }

    #[test]
    fn admission_bounds_admitted_debts_under_flash_crowd_overload() {
        // The pinned overload demonstration (ISSUE 9 acceptance): a 24-link
        // flash crowd whose full set is Lemma-2 infeasible (Σ q/p ≈ 19.5 on
        // a 16-transmission budget). With the gate, the admitted set stays
        // under the 0.75 threshold and its debts stay bounded; without it,
        // debts grow without bound on every sample path (Singh–Hou–Kumar).
        let intervals = 1500;
        let sc = crate::scenario::overload_admission(2018);
        let gated = sc.network().unwrap().run(intervals);
        let adm = gated.admission.expect("overload-admission carries a gate");
        assert!(adm.accepted > 0, "some of the flash crowd fits");
        assert!(adm.rejected > 0, "the infeasible remainder is rejected");
        assert!(adm.peak_utilization <= 0.75 + 1e-9);
        let max_admitted_debt = adm
            .admitted
            .iter()
            .zip(&gated.final_debts)
            .filter(|(&is_in, _)| is_in)
            .map(|(_, &d)| d)
            .fold(0.0f64, f64::max);

        let mut ungated_sc = sc;
        ungated_sc.admission = None;
        let ungated = ungated_sc.network().unwrap().run(intervals);
        let max_ungated_debt = ungated.final_debts.iter().fold(0.0f64, |a, &d| a.max(d));

        assert!(
            max_admitted_debt < 150.0,
            "admitted-set debts stay bounded, got {max_admitted_debt}"
        );
        assert!(
            max_ungated_debt > 4.0 * max_admitted_debt.max(1.0),
            "the ungated overload blows up: {max_ungated_debt} vs {max_admitted_debt}"
        );
    }

    /// Deadlines and payloads too large for the simulated time arithmetic
    /// are a typed [`ConfigError::Overflow`] from `build`, never an
    /// overflow panic (debug) or a silent wrap (release).
    #[test]
    fn overflowing_deadline_or_payload_is_a_config_error() {
        let overflow = |b: NetworkBuilder| match b.policy(PolicySpec::db_dp()).build() {
            Err(ConfigError::Overflow { name, .. }) => name,
            Err(e) => panic!("unexpected error {e}"),
            Ok(_) => panic!("built a network"),
        };
        assert_eq!(
            overflow(base_builder().deadline_us(u64::MAX / 1_000 + 1)),
            "deadline_us"
        );
        assert_eq!(
            overflow(base_builder().deadline_ms(u64::MAX / 1_000_000 + 1)),
            "deadline_ms"
        );
        assert_eq!(
            overflow(base_builder().payload_bytes(u32::MAX)),
            "payload_bytes (frame airtime)"
        );
        assert_eq!(
            overflow(base_builder().link_payloads(vec![100, 100, u32::MAX, 100])),
            "payload_bytes (frame airtime)"
        );
        // The last setter wins: a valid deadline clears an earlier overflow.
        let net = base_builder()
            .deadline_us(u64::MAX)
            .deadline_ms(2)
            .policy(PolicySpec::db_dp())
            .build();
        assert!(net.is_ok());
        // The largest representable values still build.
        for b in [
            base_builder().deadline_us(u64::MAX / 1_000),
            base_builder().payload_bytes(u32::MAX - 28),
        ] {
            assert!(b.policy(PolicySpec::db_dp()).build().is_ok());
        }
    }

    /// A deadline shorter than one backoff slot is a typed error from
    /// `build`, not the timing constructor's assertion.
    #[test]
    fn sub_slot_deadline_is_a_config_error() {
        for us in [1, 8] {
            match base_builder()
                .deadline_us(us)
                .policy(PolicySpec::db_dp())
                .build()
            {
                Err(ConfigError::InvalidParameter { value, .. }) => assert_eq!(value, us as f64),
                Err(e) => panic!("unexpected error {e}"),
                Ok(_) => panic!("built a network with a {us} us deadline"),
            }
        }
        let slot = PhyProfile::ieee80211a().slot().as_micros();
        assert!(base_builder()
            .deadline_us(slot)
            .policy(PolicySpec::db_dp())
            .build()
            .is_ok());
    }

    #[test]
    fn sigma_accessor_for_dp_policies() {
        let net = base_builder().policy(PolicySpec::db_dp()).build().unwrap();
        assert!(net.sigma().is_some());
        let net = base_builder().policy(PolicySpec::Ldf).build().unwrap();
        assert!(net.sigma().is_none());
    }
}
