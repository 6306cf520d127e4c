//! Deterministic interleaving checking of the job-queue
//! [`Runner`] — the loom-style companion to the DP-engine
//! checkers in this crate.
//!
//! The runner's shared state (the queue lock, the per-index slot locks
//! and the progress counter) goes through the [`rtmac::sync`] facade, whose
//! [`model`](rtmac::sync::model) mode serializes worker threads on a
//! cooperative scheduler and records every scheduling decision. This
//! module drives that mode two ways:
//!
//! * [`explore`] — depth-first search over interleavings with a CHESS-style
//!   *preemption bound*: every schedule that switches threads at most
//!   `preemption_bound` times at points where the running thread could
//!   have continued is explored exhaustively (plus all forced switches).
//!   Empirically almost all real schedulers' bugs are found with ≤ 2
//!   preemptions, and the bound is what keeps exhaustive search tractable.
//! * [`explore_random`] — a PCT-style randomized scheduler (random thread
//!   priorities plus `PCT_CHANGE_POINTS` random priority-change points per
//!   run) for configurations whose bounded-DFS space is too large.
//!
//! Four properties are asserted on **every** explored interleaving:
//!
//! 1. **deadlock-freedom** — the model scheduler never reaches a state
//!    with unfinished, unrunnable threads (and the run stays within its
//!    op budget — the livelock analogue);
//! 2. **exactly-once retirement** — every job is claimed once, executed
//!    once, and the progress counter retires exactly `jobs` completions;
//! 3. **slot write-once** — every result slot is written exactly once;
//! 4. **output determinism** — the returned vector equals the 1-worker
//!    reference, so the schedule cannot leak into results.
//!
//! [`explore_panic`] additionally checks the runner's panic contract
//! under every interleaving: a job panic must surface (never deadlock,
//! never be swallowed) while every *other* job still executes.
//!
//! Violations come back as a [`SchedCounterexample`] carrying the exact
//! decision schedule, replayable via [`replay_schedule`]. The mutation
//! suite in `crates/verify/tests/sched_mutation.rs` runs seeded
//! concurrency faults (a queue cursor read and advanced under separate
//! locks, a retiring worker spinning on the progress counter or leaking
//! the queue guard, a torn progress update, a misrouted slot, the worker
//! id leaking into results) through the same explorer and convicts each
//! one.

use rand::Rng;
use rtmac::runner::{Runner, SchedProbe};
use rtmac::sync::model::{run_model, RunTrace, SchedPolicy};
use rtmac_sim::SeedStream;

// lint: allow(raw-sync-primitive) — checker instrumentation must stay
// invisible to the model scheduler: facade atomics would add scheduling
// points and change the very interleaving space being explored, so the
// observation counters use raw std atomics on purpose.
use std::sync::atomic::{AtomicUsize, Ordering};

/// Number of priority-change points per [`explore_random`] run (the `d`
/// of the PCT scheduler: a run with `d` change points hits any bug of
/// preemption depth `d` with probability ≥ 1/(n·k^(d-1))).
pub const PCT_CHANGE_POINTS: usize = 3;

/// A bounded Runner configuration for the interleaving checker.
#[derive(Debug, Clone)]
pub struct SchedConfig {
    /// Worker threads in the pool (≥ 2 for the parallel path).
    pub workers: usize,
    /// Jobs to map.
    pub jobs: usize,
    /// CHESS preemption bound for [`explore`].
    pub preemption_bound: usize,
    /// Abort the search after this many executions (safety valve; the
    /// returned stats flag incompleteness).
    pub max_executions: u64,
    /// Per-execution scheduling-point budget (livelock guard).
    pub max_ops: u64,
}

impl SchedConfig {
    /// A config with the default execution and op budgets.
    #[must_use]
    pub fn new(workers: usize, jobs: usize, preemption_bound: usize) -> Self {
        SchedConfig {
            workers,
            jobs,
            preemption_bound,
            max_executions: 2_000_000,
            max_ops: 100_000,
        }
    }
}

/// The four model-checked properties.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedProperty {
    /// No reachable state leaves unfinished threads unrunnable (includes
    /// the op-budget livelock guard).
    DeadlockFree,
    /// Every job claimed and executed exactly once, with the progress
    /// counter retiring every completion.
    ExactlyOnce,
    /// Every result slot written exactly once.
    SlotWriteOnce,
    /// The output equals the 1-worker reference on every interleaving.
    OutputDeterminism,
}

impl std::fmt::Display for SchedProperty {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SchedProperty::DeadlockFree => "deadlock-free",
            SchedProperty::ExactlyOnce => "exactly-once",
            SchedProperty::SlotWriteOnce => "slot-write-once",
            SchedProperty::OutputDeterminism => "output-determinism",
        })
    }
}

/// A violating interleaving: the property, what went wrong, and the
/// scheduling decisions that reach it.
#[derive(Debug, Clone)]
pub struct SchedCounterexample {
    /// The violated property.
    pub property: SchedProperty,
    /// Human-readable description of the violation.
    pub detail: String,
    /// The thread chosen at each scheduling decision, in order; replay
    /// with [`replay_schedule`].
    pub schedule: Vec<usize>,
    /// Workers in the violating configuration.
    pub workers: usize,
    /// Jobs in the violating configuration.
    pub jobs: usize,
}

impl std::fmt::Display for SchedCounterexample {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "sched violation: {} (workers={} jobs={})",
            self.property, self.workers, self.jobs
        )?;
        writeln!(f, "  {}", self.detail)?;
        write!(f, "  schedule:")?;
        for c in &self.schedule {
            write!(f, " {c}")?;
        }
        Ok(())
    }
}

/// Search statistics for one exploration.
#[derive(Debug, Clone, Copy, Default)]
pub struct SchedStats {
    /// Interleavings executed.
    pub executions: u64,
    /// Scheduling decisions taken across all executions.
    pub decisions: u64,
    /// Deepest decision sequence seen.
    pub max_depth: usize,
    /// False when the search hit `max_executions` before draining its
    /// frontier.
    pub complete: bool,
}

/// Something the checker can run a bounded mapping on: the real
/// [`Runner`] ([`RunnerSubject`]) or a seeded-fault mirror from the
/// mutation suite.
pub trait SchedSubject: Sync {
    /// Maps `f` over `0..jobs` with `workers` workers, reporting progress
    /// and probe events like [`Runner::map_probed`], and returns the
    /// results in input order.
    fn run(
        &self,
        workers: usize,
        jobs: usize,
        f: &(dyn Fn(usize) -> usize + Sync),
        on_progress: &(dyn Fn(usize, usize) + Sync),
        probe: &dyn SchedProbe,
    ) -> Vec<usize>;
}

/// The real [`Runner`] as a checking subject.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunnerSubject;

impl SchedSubject for RunnerSubject {
    fn run(
        &self,
        workers: usize,
        jobs: usize,
        f: &(dyn Fn(usize) -> usize + Sync),
        on_progress: &(dyn Fn(usize, usize) + Sync),
        probe: &dyn SchedProbe,
    ) -> Vec<usize> {
        Runner::new(workers).map_probed((0..jobs).collect(), f, on_progress, probe)
    }
}

/// The job function under check: cheap, pure, and injective on indices so
/// a misrouted result is visible in the output.
fn job_value(i: usize) -> usize {
    i.wrapping_mul(31) ^ 7
}

/// Per-execution observations, recorded through raw (model-invisible)
/// atomics.
struct Obs {
    claimed: Vec<AtomicUsize>,
    executed: Vec<AtomicUsize>,
    written: Vec<AtomicUsize>,
    progress_high: AtomicUsize,
    progress_calls: AtomicUsize,
    bad_total: AtomicUsize,
}

impl Obs {
    fn new(jobs: usize) -> Self {
        let zeros = |n: usize| (0..n).map(|_| AtomicUsize::new(0)).collect();
        Obs {
            claimed: zeros(jobs),
            executed: zeros(jobs),
            written: zeros(jobs),
            progress_high: AtomicUsize::new(0),
            progress_calls: AtomicUsize::new(0),
            bad_total: AtomicUsize::new(0),
        }
    }
}

impl SchedProbe for Obs {
    fn claimed(&self, _worker: usize, index: usize) {
        self.claimed[index].fetch_add(1, Ordering::SeqCst);
    }
    fn slot_written(&self, _worker: usize, index: usize) {
        self.written[index].fetch_add(1, Ordering::SeqCst);
    }
}

/// What a correct execution is expected to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expectation {
    /// Run to completion with the reference output.
    Normal,
    /// The job at this index panics; the panic must surface and every
    /// other job must still run.
    PanicAt(usize),
}

/// The panic message used by [`explore_panic`]'s poisoned job.
const PANIC_MARKER: &str = "sched-model: seeded job panic";

/// Runs `subject` once under `policy` and checks all four properties.
/// Returns the trace plus the violation, if any.
fn run_one(
    subject: &dyn SchedSubject,
    cfg: &SchedConfig,
    policy: SchedPolicy,
    expect: Expectation,
) -> (RunTrace, Option<(SchedProperty, String)>) {
    let obs = Obs::new(cfg.jobs);
    let jobs = cfg.jobs;
    let f = |i: usize| {
        obs.executed[i].fetch_add(1, Ordering::SeqCst);
        if expect == Expectation::PanicAt(i) {
            // lint: allow(panic-macro) — this panic IS the test payload:
            // explore_panic seeds it to model-check the runner's
            // panic-propagation contract; run_model catches it.
            panic!("{PANIC_MARKER}");
        }
        job_value(i)
    };
    let on_progress = |done: usize, total: usize| {
        if total != jobs {
            obs.bad_total.fetch_add(1, Ordering::SeqCst);
        }
        obs.progress_high.fetch_max(done, Ordering::SeqCst);
        obs.progress_calls.fetch_add(1, Ordering::SeqCst);
    };
    let mut output = None;
    let trace = run_model(policy, cfg.max_ops, || {
        output = Some(subject.run(cfg.workers, jobs, &f, &on_progress, &obs));
    });
    let violation = check_execution(cfg, &trace, &obs, output.as_deref(), expect);
    (trace, violation)
}

fn check_execution(
    cfg: &SchedConfig,
    trace: &RunTrace,
    obs: &Obs,
    output: Option<&[usize]>,
    expect: Expectation,
) -> Option<(SchedProperty, String)> {
    let n = cfg.jobs;
    if let Some(d) = &trace.deadlock {
        return Some((SchedProperty::DeadlockFree, d.clone()));
    }
    if trace.ops_exceeded {
        return Some((
            SchedProperty::DeadlockFree,
            format!("op budget ({}) exceeded — possible livelock", cfg.max_ops),
        ));
    }
    let panicking = match expect {
        Expectation::Normal => {
            if let Some(p) = &trace.panic {
                return Some((
                    SchedProperty::ExactlyOnce,
                    format!("unexpected panic during execution: {p}"),
                ));
            }
            None
        }
        Expectation::PanicAt(i) => match &trace.panic {
            Some(p) if p.contains(PANIC_MARKER) => Some(i),
            Some(p) => {
                return Some((
                    SchedProperty::ExactlyOnce,
                    format!("a different panic surfaced: {p}"),
                ))
            }
            None => {
                return Some((
                    SchedProperty::OutputDeterminism,
                    format!("the seeded panic in job {i} was swallowed"),
                ))
            }
        },
    };
    for i in 0..n {
        let claims = obs.claimed[i].load(Ordering::SeqCst);
        let execs = obs.executed[i].load(Ordering::SeqCst);
        if claims != 1 || execs != 1 {
            return Some((
                SchedProperty::ExactlyOnce,
                format!("job {i} claimed {claims} time(s), executed {execs} time(s)"),
            ));
        }
    }
    let retired = obs.progress_high.load(Ordering::SeqCst);
    let calls = obs.progress_calls.load(Ordering::SeqCst);
    let expected_retired = n - usize::from(panicking.is_some());
    if retired != expected_retired || calls != expected_retired {
        return Some((
            SchedProperty::ExactlyOnce,
            format!(
                "progress counter retired {retired}/{expected_retired} \
                 with {calls} callback(s)"
            ),
        ));
    }
    if obs.bad_total.load(Ordering::SeqCst) != 0 {
        return Some((
            SchedProperty::ExactlyOnce,
            "progress callback saw a wrong total".to_string(),
        ));
    }
    for i in 0..n {
        let writes = obs.written[i].load(Ordering::SeqCst);
        let expected = usize::from(panicking != Some(i));
        if writes != expected {
            return Some((
                SchedProperty::SlotWriteOnce,
                format!("slot {i} written {writes} time(s), expected {expected}"),
            ));
        }
    }
    if panicking.is_none() {
        let reference: Vec<usize> = (0..n).map(job_value).collect();
        match output {
            Some(out) if out == reference => {}
            Some(out) => {
                let at = (0..n).find(|&i| out.get(i) != Some(&reference[i]));
                return Some((
                    SchedProperty::OutputDeterminism,
                    format!(
                        "output diverges from the 1-worker reference \
                         (first difference at index {at:?})"
                    ),
                ));
            }
            None => {
                return Some((
                    SchedProperty::OutputDeterminism,
                    "the mapping returned no output".to_string(),
                ));
            }
        }
    }
    None
}

fn counterexample(
    cfg: &SchedConfig,
    trace: &RunTrace,
    property: SchedProperty,
    detail: String,
) -> Box<SchedCounterexample> {
    Box::new(SchedCounterexample {
        property,
        detail,
        schedule: trace.decisions.iter().map(|d| d.chosen).collect(),
        workers: cfg.workers,
        jobs: cfg.jobs,
    })
}

/// One DFS frame: a decision point with its untried alternatives.
struct Frame {
    enabled: Vec<usize>,
    prev: Option<usize>,
    /// The choice the current prefix takes at this depth.
    taken: usize,
    /// Alternatives not yet explored (descending, popped from the back).
    pending: Vec<usize>,
    /// Preemptions in the prefix up to and including `taken`.
    cum_preemptions: usize,
}

fn is_preemptive(prev: Option<usize>, enabled: &[usize], choice: usize) -> bool {
    prev.is_some_and(|p| p != choice && enabled.contains(&p))
}

/// Exhaustive bounded-preemption DFS over `subject`'s interleavings,
/// checking all four properties on every execution.
///
/// # Errors
///
/// Returns the first violating interleaving found.
pub fn explore(
    subject: &dyn SchedSubject,
    cfg: &SchedConfig,
) -> Result<SchedStats, Box<SchedCounterexample>> {
    explore_with(subject, cfg, Expectation::Normal)
}

/// [`explore`], but with the job at index `jobs / 2` seeded to panic:
/// every interleaving must surface the panic, execute every other job,
/// and leave exactly the panicking slot unwritten.
///
/// # Errors
///
/// Returns the first interleaving that violates the panic contract.
pub fn explore_panic(
    subject: &dyn SchedSubject,
    cfg: &SchedConfig,
) -> Result<SchedStats, Box<SchedCounterexample>> {
    explore_with(subject, cfg, Expectation::PanicAt(cfg.jobs / 2))
}

fn explore_with(
    subject: &dyn SchedSubject,
    cfg: &SchedConfig,
    expect: Expectation,
) -> Result<SchedStats, Box<SchedCounterexample>> {
    let mut stats = SchedStats {
        complete: true,
        ..SchedStats::default()
    };
    let mut stack: Vec<Frame> = Vec::new();
    let mut schedule: Vec<usize> = Vec::new();
    loop {
        let (trace, violation) =
            run_one(subject, cfg, SchedPolicy::Replay(schedule.clone()), expect);
        stats.executions += 1;
        stats.decisions += trace.decisions.len() as u64;
        stats.max_depth = stats.max_depth.max(trace.decisions.len());
        if let Some((property, detail)) = violation {
            return Err(counterexample(cfg, &trace, property, detail));
        }
        // Extend the stack with the decisions beyond the forced prefix.
        debug_assert!(trace.decisions.len() >= stack.len());
        for d in &trace.decisions[stack.len()..] {
            let before = stack.last().map_or(0, |f: &Frame| f.cum_preemptions);
            let mut pending: Vec<usize> = d
                .enabled
                .iter()
                .copied()
                .filter(|&t| t != d.chosen)
                .collect();
            // Pop from the back, explore ascending.
            pending.reverse();
            stack.push(Frame {
                enabled: d.enabled.clone(),
                prev: d.prev,
                taken: d.chosen,
                pending,
                cum_preemptions: before + usize::from(d.preemptive),
            });
        }
        if stats.executions >= cfg.max_executions {
            stats.complete = false;
            return Ok(stats);
        }
        // Backtrack to the deepest frame with an affordable alternative.
        loop {
            let before = if stack.len() >= 2 {
                stack[stack.len() - 2].cum_preemptions
            } else {
                0
            };
            let Some(top) = stack.last_mut() else {
                return Ok(stats);
            };
            let mut branched = false;
            while let Some(alt) = top.pending.pop() {
                let cost = usize::from(is_preemptive(top.prev, &top.enabled, alt));
                if before + cost <= cfg.preemption_bound {
                    top.taken = alt;
                    top.cum_preemptions = before + cost;
                    branched = true;
                    break;
                }
            }
            if branched {
                schedule = stack.iter().map(|f| f.taken).collect();
                break;
            }
            stack.pop();
        }
    }
}

/// PCT-style randomized exploration: `samples` runs with random thread
/// priorities and [`PCT_CHANGE_POINTS`] random priority-change points
/// each, checking all four properties per run. Deterministic in `seed`.
///
/// # Errors
///
/// Returns the first violating interleaving found.
pub fn explore_random(
    subject: &dyn SchedSubject,
    cfg: &SchedConfig,
    samples: u64,
    seed: u64,
) -> Result<SchedStats, Box<SchedCounterexample>> {
    let mut stats = SchedStats {
        complete: true,
        ..SchedStats::default()
    };
    let stream = SeedStream::new(seed);
    // Estimate the decision depth from a baseline run so change points
    // land inside real executions.
    let (baseline, violation) = run_one(subject, cfg, SchedPolicy::Fifo, Expectation::Normal);
    stats.executions += 1;
    stats.decisions += baseline.decisions.len() as u64;
    stats.max_depth = baseline.decisions.len();
    if let Some((property, detail)) = violation {
        return Err(counterexample(cfg, &baseline, property, detail));
    }
    let depth_hint = (baseline.decisions.len() as u64).max(4) * 2;
    for sample in 0..samples {
        let mut rng = stream.rng(sample);
        // Random priority permutation (Fisher-Yates over thread ids).
        let mut order: Vec<usize> = (0..cfg.workers).collect();
        for i in (1..order.len()).rev() {
            let j = rng.random_range(0..=i);
            order.swap(i, j);
        }
        let change_points: Vec<u64> = (0..PCT_CHANGE_POINTS)
            .map(|_| rng.random_range(0..depth_hint))
            .collect();
        let policy = SchedPolicy::Priority {
            order,
            change_points,
        };
        let (trace, violation) = run_one(subject, cfg, policy, Expectation::Normal);
        stats.executions += 1;
        stats.decisions += trace.decisions.len() as u64;
        stats.max_depth = stats.max_depth.max(trace.decisions.len());
        if let Some((property, detail)) = violation {
            return Err(counterexample(cfg, &trace, property, detail));
        }
    }
    Ok(stats)
}

/// Re-runs one recorded schedule against `subject` and returns the
/// violation it reproduces, if any. The schedule must come from an
/// exploration of an identically-configured subject (the model asserts
/// divergence otherwise).
///
/// # Errors
///
/// Returns the reproduced violation.
pub fn replay_schedule(
    subject: &dyn SchedSubject,
    cfg: &SchedConfig,
    schedule: &[usize],
) -> Result<(), Box<SchedCounterexample>> {
    let (trace, violation) = run_one(
        subject,
        cfg,
        SchedPolicy::Replay(schedule.to_vec()),
        Expectation::Normal,
    );
    match violation {
        None => Ok(()),
        Some((property, detail)) => Err(counterexample(cfg, &trace, property, detail)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_exhaustive_exploration_is_clean_and_complete() {
        let cfg = SchedConfig::new(2, 3, 1);
        let stats = explore(&RunnerSubject, &cfg).expect("runner must pass");
        assert!(stats.complete);
        assert!(stats.executions > 1, "bound 1 must branch");
    }

    #[test]
    fn zero_preemption_bound_is_the_fifo_schedule_family() {
        let cfg = SchedConfig::new(2, 2, 0);
        let stats = explore(&RunnerSubject, &cfg).expect("runner must pass");
        assert!(stats.complete);
        // Even with no preemptions allowed, forced switches still branch
        // (which thread wins the initial ready gate, who acquires a
        // contended lock first), so more than one execution runs.
        assert!(stats.executions > 1);
    }

    #[test]
    fn replay_of_a_clean_schedule_is_clean() {
        let cfg = SchedConfig::new(2, 3, 0);
        assert!(replay_schedule(&RunnerSubject, &cfg, &[]).is_ok());
    }
}
