//! `rtmac-verify`: bounded exhaustive and statistical model checking of
//! the DP engine.
//!
//! ```text
//! rtmac-verify [--quick | --full]   run an exhaustive suite (default: full)
//! rtmac-verify smc [FLAGS]          statistical model checking at large N
//! rtmac-verify sched [FLAGS]        interleaving checks of the worker pool
//! rtmac-verify fault-smoke [FLAGS]  fault-corner smoke of the degraded engine
//! rtmac-verify --replay FILE        re-run a recorded counterexample trace
//! ```
//!
//! The transport's replay contract is checked by `rtmac emulate`, which
//! holds every deployment to the simulator's decision trace.
//!
//! Exit codes: 0 = all properties hold (or the replayed trace is clean),
//! 1 = a violation was found (the counterexample trace is printed to
//! stdout), 2 = usage or I/O error.

use std::io::Write as _;

use rtmac::runner::Runner;
use rtmac_verify::{
    check, check_with_symmetry, explore, explore_panic, explore_random, fault_smoke, full_suite,
    quick_suite, replay, smc, Counterexample, EngineSubject, FaultSmokeConfig, LinkClasses,
    RunnerSubject, SchedConfig, SchedCounterexample, SchedStats, SmcConfig, SuiteEntry,
};

/// Writes to stdout, ignoring a closed pipe (e.g. `rtmac-verify | head`).
macro_rules! outln {
    ($($arg:tt)*) => {
        let _ = writeln!(std::io::stdout(), $($arg)*);
    };
}

const HELP: &str = "\
rtmac-verify — model checking of the DP protocol's safety invariants

usage:
  rtmac-verify [--quick | --full]   exhaustive suite (default: --full)
  rtmac-verify smc [FLAGS]          statistical model checking at large N
  rtmac-verify sched [FLAGS]        interleaving checks of the worker pool
  rtmac-verify fault-smoke [FLAGS]  fault-corner smoke of the degraded engine
  rtmac-verify --replay FILE        re-run a recorded counterexample trace

exhaustive modes:
  --quick    N = 2 and N = 3, A_max = 2 (the CI gate)
  --full     quick plus N = 4 (A_max = 1) and symmetry-reduced N = 5

smc flags (seeded Monte-Carlo over full decision trajectories):
  --links N         number of links, 2..=20          [default: 10]
  --samples K       trajectories to sample           [default: 100000]
  --confidence C    Clopper-Pearson level in (0,1)   [default: 0.99]
  --seed S          root seed (sample i uses substream i) [default: 2018]
  --depth D         intervals per trajectory         [default: 4]
  --a-max A         per-link arrival bound           [default: 2]
  --trace FILE      also write a violating trace to FILE
  --workers W       worker threads                   [default: all cores]

sched flags (loom-style interleaving checker for the Runner's shared
job queue; asserts deadlock-freedom, exactly-once retirement, slot
write-once, and output determinism on every explored interleaving):
  --quick           exhaustive 2 workers x 6 jobs (bound 2), panic
                    propagation, and a 200-sample randomized pass
  --full            CI suite: quick plus exhaustive and panic passes at
                    3 workers x 4 jobs, and a 1000-sample randomized
                    pass at 3 workers x 12 jobs               [default]
  --workers W       explore a single custom config instead
  --jobs J          jobs for the custom config            [default: 4]
  --preemptions B   preemption bound for the custom config [default: 2]
  --random K        add K randomized (PCT) samples to the custom config
  --seed S          seed for randomized passes            [default: 2018]

fault-smoke flags (fixed-seed survival run of the degraded engine under
high-burstiness Gilbert-Elliott sensing plus Poisson churn; asserts
sigma-liveness through the storm and reconvergence after it):
  --links N         number of links                 [default: 10]
  --intervals K     storm-phase intervals           [default: 600]
  --heal-budget K   heal-phase interval budget      [default: 3000]
  --seed S          root seed                       [default: 2018]

Violations print a replayable counterexample trace on stdout; feed it
back with --replay to reproduce (sched violations print the decision
schedule instead). Exit codes: 0 clean, 1 violation, 2 usage or I/O
error.";

fn main() {
    std::process::exit(run(std::env::args().skip(1).collect()));
}

fn run(args: Vec<String>) -> i32 {
    let mut mode = Mode::Full;
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => mode = Mode::Quick,
            "--full" => mode = Mode::Full,
            "smc" => {
                return match parse_smc(iter.by_ref()) {
                    Ok((cfg, trace, workers)) => run_smc(&cfg, trace.as_deref(), workers),
                    Err(e) => {
                        eprintln!("rtmac-verify: {e}");
                        2
                    }
                };
            }
            "sched" => {
                return match parse_sched(iter.by_ref()) {
                    Ok(mode) => run_sched(&mode),
                    Err(e) => {
                        eprintln!("rtmac-verify: {e}");
                        2
                    }
                };
            }
            "fault-smoke" => {
                return match parse_fault_smoke(iter.by_ref()) {
                    Ok(cfg) => run_fault_smoke(&cfg),
                    Err(e) => {
                        eprintln!("rtmac-verify: {e}");
                        2
                    }
                };
            }
            "--replay" => match iter.next() {
                Some(path) => mode = Mode::Replay(path),
                None => {
                    eprintln!("rtmac-verify: --replay needs a file argument");
                    return 2;
                }
            },
            "--help" | "-h" => {
                outln!("{HELP}");
                return 0;
            }
            other => {
                eprintln!(
                    "rtmac-verify: unknown argument {other:?} — valid modes are \
                     --quick, --full, smc, sched, fault-smoke, and \
                     --replay FILE (try --help; `rtmac emulate` checks the \
                     transport's replay contract)"
                );
                return 2;
            }
        }
    }
    match mode {
        Mode::Quick => run_suite(&quick_suite()),
        Mode::Full => run_suite(&full_suite()),
        Mode::Replay(path) => run_replay(&path),
    }
}

enum Mode {
    Quick,
    Full,
    Replay(String),
}

/// Parses the flags after the `smc` subcommand.
fn parse_smc(
    iter: &mut dyn Iterator<Item = String>,
) -> Result<(SmcConfig, Option<String>, usize), String> {
    let mut links = 10usize;
    let mut samples = 100_000u64;
    let mut confidence = 0.99f64;
    let mut seed = 2018u64;
    let mut depth = 4u32;
    let mut a_max = 2u32;
    let mut trace = None;
    let mut workers = 0usize;
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .ok_or_else(|| format!("smc: {name} needs a value"))
        };
        match flag.as_str() {
            "--links" => links = parse(&value("--links")?, "--links")?,
            "--samples" => samples = parse(&value("--samples")?, "--samples")?,
            "--confidence" => confidence = parse(&value("--confidence")?, "--confidence")?,
            "--seed" => seed = parse(&value("--seed")?, "--seed")?,
            "--depth" => depth = parse(&value("--depth")?, "--depth")?,
            "--a-max" => a_max = parse(&value("--a-max")?, "--a-max")?,
            "--trace" => trace = Some(value("--trace")?),
            "--workers" => workers = parse(&value("--workers")?, "--workers")?,
            other => {
                return Err(format!(
                    "smc: unknown flag {other:?} — valid flags are --links, --samples, \
                     --confidence, --seed, --depth, --a-max, --trace, --workers (try --help)"
                ));
            }
        }
    }
    if !(2..=20).contains(&links) {
        return Err(format!("smc: --links must be in 2..=20, got {links}"));
    }
    if samples == 0 {
        return Err("smc: --samples must be at least 1".to_string());
    }
    if !(confidence > 0.0 && confidence < 1.0) {
        return Err(format!(
            "smc: --confidence must lie strictly in (0, 1), got {confidence}"
        ));
    }
    if depth == 0 {
        return Err("smc: --depth must be at least 1".to_string());
    }
    let cfg = SmcConfig::new(links, samples)
        .with_confidence(confidence)
        .with_seed(seed)
        .with_depth(depth)
        .with_a_max(a_max);
    Ok((cfg, trace, workers))
}

fn parse<T: std::str::FromStr>(value: &str, flag: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("smc: invalid {flag} value {value:?}"))
}

/// How the `sched` subcommand should explore.
enum SchedMode {
    Quick,
    Full,
    Custom {
        workers: usize,
        jobs: usize,
        preemptions: usize,
        random: u64,
        seed: u64,
    },
}

/// Parses the flags after the `sched` subcommand.
fn parse_sched(iter: &mut dyn Iterator<Item = String>) -> Result<SchedMode, String> {
    let mut suite = Some(true); // Some(full?) — None once --workers appears.
    let mut workers = 0usize;
    let mut jobs = 4usize;
    let mut preemptions = 2usize;
    let mut random = 0u64;
    let mut seed = 2018u64;
    let parse = |value: &str, flag: &str| -> Result<u64, String> {
        value
            .parse()
            .map_err(|_| format!("sched: invalid {flag} value {value:?}"))
    };
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .ok_or_else(|| format!("sched: {name} needs a value"))
        };
        match flag.as_str() {
            "--quick" => suite = Some(false),
            "--full" => suite = Some(true),
            "--workers" => {
                suite = None;
                workers = parse(&value("--workers")?, "--workers")? as usize;
            }
            "--jobs" => jobs = parse(&value("--jobs")?, "--jobs")? as usize,
            "--preemptions" => {
                preemptions = parse(&value("--preemptions")?, "--preemptions")? as usize;
            }
            "--random" => random = parse(&value("--random")?, "--random")?,
            "--seed" => seed = parse(&value("--seed")?, "--seed")?,
            other => {
                return Err(format!(
                    "sched: unknown flag {other:?} — valid flags are --quick, --full, \
                     --workers, --jobs, --preemptions, --random, --seed (try --help)"
                ));
            }
        }
    }
    Ok(match suite {
        Some(true) => SchedMode::Full,
        Some(false) => SchedMode::Quick,
        None => {
            if !(2..=4).contains(&workers) {
                return Err(format!(
                    "sched: --workers must be in 2..=4 for tractable exploration, got {workers}"
                ));
            }
            if jobs == 0 || jobs > 16 {
                return Err(format!("sched: --jobs must be in 1..=16, got {jobs}"));
            }
            SchedMode::Custom {
                workers,
                jobs,
                preemptions,
                random,
                seed,
            }
        }
    })
}

/// One `sched` exploration pass: runs `run` and reports the outcome,
/// accumulating totals. Returns false on a violation.
fn sched_pass(
    label: &str,
    cfg: &SchedConfig,
    totals: &mut (u64, u64),
    run: impl FnOnce(&SchedConfig) -> Result<SchedStats, Box<SchedCounterexample>>,
) -> bool {
    match run(cfg) {
        Ok(stats) => {
            totals.0 += stats.executions;
            totals.1 += stats.decisions;
            outln!(
                "rtmac-verify: sched {label} workers={} jobs={} bound={}: \
                 {} interleaving(s), {} decision(s), depth {}{} — ok",
                cfg.workers,
                cfg.jobs,
                cfg.preemption_bound,
                stats.executions,
                stats.decisions,
                stats.max_depth,
                if stats.complete { "" } else { " (TRUNCATED)" }
            );
            true
        }
        Err(ce) => {
            eprintln!(
                "rtmac-verify: sched VIOLATION of {} in {label} (workers={} jobs={}): {}",
                ce.property, ce.workers, ce.jobs, ce.detail
            );
            eprintln!("rtmac-verify: the violating decision schedule follows on stdout");
            outln!("{ce}");
            false
        }
    }
}

fn run_sched(mode: &SchedMode) -> i32 {
    let subject = RunnerSubject;
    let mut totals = (0u64, 0u64);
    let passes: Vec<(String, SchedConfig, u64, u64)> = match mode {
        // (label, cfg, random-samples, seed); random == 0 → exhaustive.
        SchedMode::Quick => vec![
            ("exhaustive".into(), SchedConfig::new(2, 6, 2), 0, 0),
            ("panic-propagation".into(), SchedConfig::new(2, 4, 2), 0, 0),
            ("randomized".into(), SchedConfig::new(3, 8, 0), 200, 2018),
        ],
        SchedMode::Full => vec![
            ("exhaustive".into(), SchedConfig::new(2, 6, 2), 0, 0),
            ("exhaustive".into(), SchedConfig::new(3, 4, 2), 0, 0),
            ("panic-propagation".into(), SchedConfig::new(2, 4, 2), 0, 0),
            ("panic-propagation".into(), SchedConfig::new(3, 4, 2), 0, 0),
            ("randomized".into(), SchedConfig::new(3, 12, 0), 1000, 2018),
        ],
        SchedMode::Custom {
            workers,
            jobs,
            preemptions,
            random,
            seed,
        } => {
            let cfg = SchedConfig::new(*workers, *jobs, *preemptions);
            let mut v = vec![("exhaustive".to_string(), cfg.clone(), 0, 0)];
            if *random > 0 {
                v.push(("randomized".into(), cfg, *random, *seed));
            }
            v
        }
    };
    for (label, cfg, samples, seed) in &passes {
        let ok = match label.as_str() {
            "panic-propagation" => {
                sched_pass(label, cfg, &mut totals, |c| explore_panic(&subject, c))
            }
            _ if *samples > 0 => sched_pass(label, cfg, &mut totals, |c| {
                explore_random(&subject, c, *samples, *seed)
            }),
            _ => sched_pass(label, cfg, &mut totals, |c| explore(&subject, c)),
        };
        if !ok {
            return 1;
        }
    }
    eprintln!(
        "rtmac-verify: sched clean — {} interleaving(s), {} decision(s) across {} pass(es)",
        totals.0,
        totals.1,
        passes.len()
    );
    0
}

/// Parses the flags after the `fault-smoke` subcommand.
fn parse_fault_smoke(iter: &mut dyn Iterator<Item = String>) -> Result<FaultSmokeConfig, String> {
    let mut cfg = FaultSmokeConfig::new();
    let parse = |value: &str, flag: &str| -> Result<u64, String> {
        value
            .parse()
            .map_err(|_| format!("fault-smoke: invalid {flag} value {value:?}"))
    };
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .ok_or_else(|| format!("fault-smoke: {name} needs a value"))
        };
        match flag.as_str() {
            "--links" => cfg.links = parse(&value("--links")?, "--links")? as usize,
            "--intervals" => cfg.storm_intervals = parse(&value("--intervals")?, "--intervals")?,
            "--heal-budget" => {
                cfg.heal_budget = parse(&value("--heal-budget")?, "--heal-budget")?;
            }
            "--seed" => cfg.seed = parse(&value("--seed")?, "--seed")?,
            other => {
                return Err(format!(
                    "fault-smoke: unknown flag {other:?} — valid flags are --links, \
                     --intervals, --heal-budget, --seed (try --help)"
                ));
            }
        }
    }
    if !(2..=64).contains(&cfg.links) {
        return Err(format!(
            "fault-smoke: --links must be in 2..=64, got {}",
            cfg.links
        ));
    }
    if cfg.storm_intervals == 0 {
        return Err("fault-smoke: --intervals must be at least 1".to_string());
    }
    Ok(cfg)
}

fn run_fault_smoke(cfg: &FaultSmokeConfig) -> i32 {
    eprintln!(
        "rtmac-verify: fault-smoke N={} storm={} heal-budget={} seed={}",
        cfg.links, cfg.storm_intervals, cfg.heal_budget, cfg.seed
    );
    let report = fault_smoke(cfg);
    outln!(
        "rtmac-verify: storm: {} delivery(ies), {} sensing flip(s), {} divergence(s), \
         {} poisson crash(es)",
        report.storm_deliveries,
        report.sensing_flips,
        report.divergences,
        report.poisson_crashes
    );
    match report.healed_after {
        Some(k) => {
            outln!(
                "rtmac-verify: heal: bijective after {k} interval(s), {} completed recovery(ies)",
                report.reconvergences
            );
        }
        None => {
            outln!(
                "rtmac-verify: heal: NOT bijective within {} interval(s)",
                cfg.heal_budget
            );
        }
    }
    if report.is_clean() {
        eprintln!("rtmac-verify: fault-smoke clean — the degraded engine survived the corner");
        0
    } else {
        for v in &report.violations {
            eprintln!("rtmac-verify: fault-smoke VIOLATION: {v}");
        }
        1
    }
}

fn run_suite(suite: &[SuiteEntry]) -> i32 {
    let mut total_transitions: u64 = 0;
    for entry in suite {
        let cfg = &entry.cfg;
        let mut subject = EngineSubject::new(cfg.timing(), cfg.n);
        let outcome = if entry.symmetric {
            check_with_symmetry(&mut subject, cfg, &LinkClasses::homogeneous(cfg.n))
        } else {
            check(&mut subject, cfg)
        };
        match outcome {
            Ok(stats) => {
                total_transitions = total_transitions.saturating_add(stats.transitions);
                outln!(
                    "rtmac-verify: N={} A_max={}{}: {} sigma state(s), {} state(s) explored, \
                     max {} channel bit(s) — ok",
                    cfg.n,
                    cfg.a_max,
                    if entry.symmetric {
                        " (symmetry-reduced)"
                    } else {
                        ""
                    },
                    stats.sigma_states,
                    stats.transitions,
                    stats.max_channel_bits
                );
            }
            Err(ce) => {
                eprintln!(
                    "rtmac-verify: VIOLATION of {} at N={} A_max={}: {}",
                    ce.property, cfg.n, cfg.a_max, ce.detail
                );
                eprintln!("rtmac-verify: replayable trace follows on stdout");
                outln!("{ce}");
                return 1;
            }
        }
    }
    eprintln!(
        "rtmac-verify: {} configuration(s) verified, {} state(s) explored in total",
        suite.len(),
        total_transitions
    );
    0
}

fn run_smc(cfg: &SmcConfig, trace: Option<&str>, workers: usize) -> i32 {
    let runner = if workers == 0 {
        Runner::default()
    } else {
        Runner::new(workers)
    };
    let check_cfg = cfg.check_config();
    let report = smc(cfg, &runner, || {
        EngineSubject::new(check_cfg.timing(), check_cfg.n)
    });
    eprintln!(
        "rtmac-verify: smc N={} A_max={} depth={} seed={}: {} trajectory(ies), \
         {} interval(s) executed",
        cfg.n, cfg.a_max, cfg.depth, cfg.seed, report.samples, report.intervals
    );
    for bound in &report.bounds {
        outln!(
            "rtmac-verify: {:<20} {:>8} violation(s)  p ∈ [{:.3e}, {:.3e}] at {}% confidence",
            bound.property.label(),
            bound.violations,
            bound.lower,
            bound.upper,
            report.confidence * 100.0
        );
    }
    let drawn: u64 = report.liveness.draws.iter().sum();
    let committed: u64 = report.liveness.commits.iter().sum();
    outln!(
        "rtmac-verify: {:<20} {drawn} pair draw(s), {committed} committed swap(s), \
         {} starved pair(s)",
        "sigma-liveness",
        report
            .liveness
            .starved(rtmac_verify::LIVENESS_MIN_DRAWS)
            .len()
    );
    match &report.counterexample {
        None => {
            eprintln!("rtmac-verify: smc clean — no property violated on any sampled trajectory");
            0
        }
        Some(ce) => {
            eprintln!(
                "rtmac-verify: VIOLATION of {} at N={} (seed {}): {}",
                ce.property, cfg.n, cfg.seed, ce.detail
            );
            if let Some(path) = trace {
                if let Err(e) = std::fs::write(path, ce.encode()) {
                    eprintln!("rtmac-verify: cannot write trace to {path}: {e}");
                    return 2;
                }
                eprintln!("rtmac-verify: replayable trace written to {path}");
            }
            eprintln!("rtmac-verify: replayable trace follows on stdout");
            outln!("{ce}");
            1
        }
    }
}

fn run_replay(path: &str) -> i32 {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("rtmac-verify: cannot read {path}: {e}");
            return 2;
        }
    };
    let ce = match Counterexample::decode(&text) {
        Ok(ce) => ce,
        Err(e) => {
            eprintln!("rtmac-verify: cannot parse {path}: {e}");
            return 2;
        }
    };
    let cfg = ce.config();
    let mut subject = EngineSubject::new(cfg.timing(), cfg.n);
    match replay(&mut subject, &ce) {
        Ok(()) => {
            outln!(
                "rtmac-verify: trace ({} step(s), recorded as {}) is clean on the current engine",
                ce.steps.len(),
                ce.property
            );
            0
        }
        Err(found) => {
            eprintln!(
                "rtmac-verify: trace reproduces a violation of {}: {}",
                found.property, found.detail
            );
            outln!("{found}");
            1
        }
    }
}
