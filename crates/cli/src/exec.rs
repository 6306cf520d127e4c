//! Command execution: turns parsed options into [`Scenario`]s, runs them,
//! and formats the results.

use std::fmt::Write as _;
use std::io::Write as _;

use rtmac::scenario::{Axis, Scenario, Sweep, CONTENDERS};
use rtmac::sim::Nanos;
use rtmac::{RunReport, Runner};

use crate::args::{CliError, Command, EmulateOpts, NetworkOpts, PolicySpec};

const USAGE: &str = "rtmac — real-time wireless MAC simulator (Hsieh & Hou, ICDCS 2018)

Usage:
  rtmac run      [--scenario NAME | network flags] [--policy POLICY]
  rtmac compare  [--scenario NAME | network flags]
  rtmac sweep    [--scenario NAME | network flags] --param <alpha|lambda|ratio|p>
                 --from X --to Y [--steps N] [--progress]
  rtmac timeline [network flags]   (ASCII protocol trace, <= 10 intervals)
  rtmac emulate  [--scenario NAME|FILE] [--links N] [--intervals K] [--seed S]
                 [--transport loopback|udp] [--processes [--netd PATH]]
                 [--realtime] [--timeout-ms T] [--report FILE]
  rtmac help

Scenarios:
  --scenario NAME    named workload: video20, control10, asym, tiny, or a
                     robustness scenario — bursty, hidden-terminal,
                     poisson-churn, overload-admission (DB-DP degraded
                     engine; run/compare report fault and admission
                     counters). Composes with --intervals, --seed, and
                     --policy; conflicts with the network flags below.

Network flags (defaults in parentheses; prefer --scenario for the paper's
workloads — these stay supported for custom networks):
  --links N          number of fully-interfering links (10)
  --deadline-ms T    per-packet deadline in ms (20); or --deadline-us T
  --payload B        data payload bytes (1500)
  --p P              channel success probability, or a per-link list
                     P1,P2,... (0.7)
  --arrivals SPEC    constant | bernoulli:LAMBDA | burst:ALPHA[:MAX], with
                     MAX 6 by default and LAMBDA, ALPHA a number or a
                     per-link list (burst:0.5)
  --ratio R          required delivery ratio, or a per-link list (0.9)
  --intervals K      intervals to simulate (1000)
  --seed S           RNG seed (0)

Run flags:
  --policy POLICY    db-dp | db-dp:pairs=K | ldf | eldf | fcsma | dcf |
                     frame-csma | frame-csma:slots=K | fixed (db-dp)

These values are spelled as in an rtmac-netd scenario file (OPERATIONS.md).

Sweep flags:
  --progress         live completed/total and items/sec on stderr while
                     the sweep's (point x contender) grid runs

Emulate flags (one lockstep node per link on this box, each checked against
the transport-free sim; OPERATIONS.md has the full walkthrough, and the
rtmac-netd binary runs one link by hand):
  --intervals K      intervals to run, at least 1 (the scenario's horizon)
  --transport T      loopback (in-memory, default) or udp (localhost sockets)
  --processes        one real rtmac-netd OS process per link over UDP
  --netd PATH        rtmac-netd binary for --processes (default: next to rtmac)
  --realtime         pace nodes at the scenario's deadline rate
  --timeout-ms T     per-node peer-silence budget (30000)
  --report FILE      write a key=value measurement report

Examples:
  rtmac run --scenario video20
  rtmac run --links 20 --arrivals burst:0.55 --policy db-dp --intervals 5000
  rtmac sweep --scenario control10 --param lambda --from 0.5 --to 0.9 --steps 9
  rtmac emulate --scenario control10 --links 100 --intervals 200
";

fn run_scenario(sc: &Scenario) -> Result<RunReport, CliError> {
    sc.run().map_err(|e| CliError::Invalid(e.to_string()))
}

fn simulate(opts: &NetworkOpts, policy: PolicySpec) -> Result<RunReport, CliError> {
    run_scenario(&opts.to_scenario(policy)?)
}

fn render_run(sc: &Scenario, report: &RunReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "policy: {}", report.policy);
    let p = sc
        .success
        .uniform_value()
        .map_or_else(|| "per-link".to_string(), |p| p.to_string());
    let _ = writeln!(
        out,
        "network: {} ({} links, deadline {}, {} B payload, p = {}, {} intervals)",
        sc.name,
        sc.links,
        Nanos::from_micros(sc.deadline_us),
        sc.payload_bytes,
        p,
        report.intervals
    );
    let _ = writeln!(
        out,
        "total timely-throughput deficiency: {:.4}",
        report.final_total_deficiency
    );
    let _ = writeln!(
        out,
        "collisions: {}   idle slots: {}   empty packets: {}",
        report.collisions, report.idle_slots, report.empty_packets
    );
    if let Some(fault) = &report.fault {
        let mean = fault
            .mean_time_to_reconverge()
            .map_or_else(|| "n/a".to_string(), |m| format!("{m:.1}"));
        let _ = writeln!(
            out,
            "faults: {} sensing flips   {} divergences   {} fallbacks   \
             {} reconvergences (mean {mean} intervals)",
            fault.sensing_flips, fault.divergences, fault.fallbacks, fault.reconvergences
        );
    }
    if let Some(adm) = &report.admission {
        let _ = writeln!(
            out,
            "admission: {}/{} links admitted   {} accepted   {} rejected   \
             {} shed   peak utilization {:.3}",
            adm.admitted_count(),
            adm.admitted.len(),
            adm.accepted,
            adm.rejected,
            adm.shed,
            adm.peak_utilization
        );
    }
    let _ = writeln!(
        out,
        "{:>8} {:>12} {:>10} {:>10}",
        "link", "throughput", "debt", "attempts"
    );
    for (i, tp) in report.per_link_throughput.iter().enumerate() {
        let _ = writeln!(
            out,
            "{i:>8} {tp:>12.4} {:>10.2} {:>10}",
            report.final_debts[i], report.attempts[i]
        );
    }
    out
}

fn render_compare(opts: &NetworkOpts) -> Result<String, CliError> {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>8} {:>12} {:>12} {:>12} {:>14}",
        "policy", "deficiency", "collisions", "idle slots", "empty packets"
    );
    for spec in CONTENDERS {
        let report = simulate(opts, spec)?;
        let _ = writeln!(
            out,
            "{:>8} {:>12.4} {:>12} {:>12} {:>14}",
            spec.label(),
            report.final_total_deficiency,
            report.collisions,
            report.idle_slots,
            report.empty_packets
        );
    }
    Ok(out)
}

fn render_sweep(
    opts: &NetworkOpts,
    axis: Axis,
    from: f64,
    to: f64,
    steps: usize,
    progress: bool,
) -> Result<String, CliError> {
    // One scenario per (point, contender), fanned over the worker pool;
    // results come back in input order, so the table is deterministic.
    // The job list is reserved up front, so a point count too large to
    // hold is an error here instead of an overflow or allocation abort.
    let mut jobs = Vec::new();
    steps
        .checked_mul(CONTENDERS.len())
        .and_then(|total| jobs.try_reserve_exact(total).ok())
        .ok_or_else(|| CliError::Invalid(format!("--steps {steps} is too many sweep points")))?;
    let base = opts.to_scenario(PolicySpec::db_dp())?;
    let sweep = Sweep {
        name: base.name,
        base,
        axis,
        points: (0..steps)
            .map(|i| {
                if steps == 1 {
                    from
                } else {
                    from + (to - from) * i as f64 / (steps - 1) as f64
                }
            })
            .collect(),
        shape: None,
    };
    for &x in &sweep.points {
        for spec in CONTENDERS {
            jobs.push(sweep.at(x).with_policy(spec));
        }
    }
    let reports = if progress {
        // lint: allow(wall-clock) — items/sec display on an interactive
        // progress line; never feeds back into simulation state.
        let started = std::time::Instant::now();
        let line = |done: usize, total: usize| {
            let rate = done as f64 / started.elapsed().as_secs_f64().max(1e-9);
            format!("\rsweep: {done}/{total} scenarios ({rate:.1}/s)")
        };
        let total = jobs.len();
        let reports = Runner::default().map_with_progress(
            jobs,
            |sc| run_scenario(&sc),
            |done, total| eprint!("{}", line(done, total)),
        );
        // Workers report their counts in any order, so the last line drawn
        // may be an earlier count: once every worker is joined, redraw the
        // final count and end the line.
        eprintln!("{}", line(total, total));
        reports
    } else {
        Runner::default().map(jobs, |sc| run_scenario(&sc))
    };

    let mut out = String::new();
    let _ = write!(out, "{:>12}", axis.render());
    for spec in CONTENDERS {
        let _ = write!(out, " {:>12}", spec.label());
    }
    let _ = writeln!(out);
    let mut reports = reports.into_iter();
    for x in sweep.points {
        let _ = write!(out, "{x:>12.4}");
        for _ in CONTENDERS {
            let report = reports.next().expect("one report per job")?;
            let _ = write!(out, " {:>12.4}", report.final_total_deficiency);
        }
        let _ = writeln!(out);
    }
    Ok(out)
}

fn render_timeline(opts: &NetworkOpts) -> Result<String, CliError> {
    use rtmac::mac::{timeline, DpConfig, DpEngine};
    use rtmac::phy::channel::Bernoulli;
    use rtmac::sim::SeedStream;

    let sc = &opts.custom;
    let invalid = |e: rtmac::model::ConfigError| CliError::Invalid(e.to_string());
    let (config, timing) = sc.medium().map_err(invalid)?;
    let mut engine = DpEngine::new(DpConfig::new(timing.clone()).with_trace(true), sc.links);
    let mut channel = Bernoulli::new(config.success_probabilities().to_vec()).map_err(invalid)?;
    let mut arrivals = sc.traffic.instantiate(sc.links).map_err(invalid)?;
    let seeds = SeedStream::new(sc.seed);
    let mut rng = seeds.rng(2);
    let mut arr_rng = seeds.rng(1);
    let mu = vec![0.5; sc.links];

    let mut out = String::new();
    let _ = writeln!(
        out,
        "DP protocol timelines (constant mu = 0.5; # data, e empty claim, \u{b7} idle)\n"
    );
    let mut buf = Vec::new();
    for k in 0..sc.intervals.clamp(1, 10) {
        arrivals.sample(&mut arr_rng, &mut buf);
        let report = engine.run_interval(&buf, &mu, &mut channel, &mut rng);
        let _ = writeln!(
            out,
            "interval {k}: sigma = {}  C = {:?}  swaps = {}",
            engine.sigma(),
            report.candidates,
            report.swaps.len()
        );
        let _ = write!(
            out,
            "{}",
            timeline::render(&report.trace, &timing, sc.links, 100)
        );
        let _ = writeln!(out);
    }
    Ok(out)
}

fn render_emulation(report: &rtmac_net::EmulationReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "emulation: {} link(s) x {} interval(s) over {}",
        report.links, report.intervals, report.backend
    );
    let _ = writeln!(
        out,
        "decision-trace fingerprint: {:#018x}",
        report.fingerprint
    );
    let _ = writeln!(
        out,
        "wall-clock deadline misses: {} of {} link-intervals ({:.4}%)",
        report.misses,
        report.links * report.intervals,
        report.miss_rate * 100.0
    );
    let _ = writeln!(
        out,
        "interval wall time: mean {} us, max {} us (deadline budget per interval)",
        report.mean_interval.as_micros(),
        report.max_interval.as_micros()
    );
    let _ = writeln!(
        out,
        "protocol outcome: total deficiency {:.4}, {} collision(s), {} empty packet(s)",
        report.run.final_total_deficiency, report.run.collisions, report.run.empty_packets
    );
    let _ = writeln!(
        out,
        "replay contract: {} decision trace matches the sim, byte for byte",
        report.backend
    );
    out
}

fn render_emulation_kv(report: &rtmac_net::EmulationReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "backend={}", report.backend);
    let _ = writeln!(out, "links={}", report.links);
    let _ = writeln!(out, "intervals={}", report.intervals);
    let _ = writeln!(out, "fingerprint={:#018x}", report.fingerprint);
    let _ = writeln!(out, "misses={}", report.misses);
    let _ = writeln!(out, "miss_rate={}", report.miss_rate);
    let _ = writeln!(out, "max_interval_us={}", report.max_interval.as_micros());
    let _ = writeln!(out, "mean_interval_us={}", report.mean_interval.as_micros());
    let _ = writeln!(out, "deficiency={}", report.run.final_total_deficiency);
    let _ = writeln!(out, "collisions={}", report.run.collisions);
    let _ = writeln!(out, "empty_packets={}", report.run.empty_packets);
    let _ = writeln!(
        out,
        "per_link_misses={}",
        report
            .per_link_misses
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(",")
    );
    out
}

fn run_emulate(opts: &EmulateOpts) -> Result<String, CliError> {
    let mut sc = rtmac_net::scenario_file::load(&opts.scenario).map_err(CliError::Net)?;
    if let Some(links) = opts.links {
        sc = sc.with_links(links);
    }
    if let Some(seed) = opts.seed {
        sc = sc.with_seed(seed);
    }
    let intervals = opts.intervals.unwrap_or(sc.intervals);
    let mut cfg = rtmac_net::NodeConfig::new(sc, intervals);
    cfg.realtime = opts.realtime;
    cfg.sync_timeout = std::time::Duration::from_millis(opts.timeout_ms);
    // Open the report before launching, so a bad path wastes no run.
    let report_out = opts
        .report
        .as_deref()
        .map(|path| match std::fs::File::create(path) {
            Ok(file) => Ok((path, file)),
            Err(e) => Err(report_error(path, &e)),
        })
        .transpose()?;
    let report = if opts.processes {
        let netd = opts
            .netd
            .clone()
            .map_or_else(rtmac_net::default_netd_path, std::path::PathBuf::from);
        rtmac_net::run_emulation_processes(&cfg, &netd)
    } else {
        rtmac_net::run_emulation(&cfg, opts.transport)
    }
    .map_err(CliError::Net)?;
    if let Some((path, mut file)) = report_out {
        file.write_all(render_emulation_kv(&report).as_bytes())
            .map_err(|e| report_error(path, &e))?;
    }
    Ok(render_emulation(&report))
}

fn report_error(path: &str, e: &std::io::Error) -> CliError {
    CliError::Io(format!("cannot write report {path}: {e}"))
}

/// Executes a parsed [`Command`] and returns its printable output.
///
/// # Errors
///
/// Returns a [`CliError::Invalid`] when the simulator rejects the
/// configuration.
pub fn execute(command: Command) -> Result<String, CliError> {
    match command {
        Command::Help => Ok(USAGE.to_string()),
        Command::Run { opts, policy } => {
            let sc = opts.to_scenario(policy)?;
            let report = run_scenario(&sc)?;
            Ok(render_run(&sc, &report))
        }
        Command::Compare { opts } => render_compare(&opts),
        Command::Sweep {
            opts,
            axis,
            from,
            to,
            steps,
            progress,
        } => render_sweep(&opts, axis, from, to, steps, progress),
        Command::Timeline { opts } => render_timeline(&opts),
        Command::Emulate { opts } => run_emulate(&opts),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtmac::scenario::{Param, TrafficSpec};

    fn quick_opts() -> NetworkOpts {
        NetworkOpts {
            scenario: None,
            custom: Scenario {
                name: "custom",
                links: 3,
                success: Param::Uniform(0.8),
                intervals: 100,
                ..rtmac::scenario::control(3, 0.7, 0.9, 1)
            },
        }
    }

    #[test]
    fn run_report_lists_every_link() {
        let sc = quick_opts().to_scenario(PolicySpec::Ldf).unwrap();
        let report = run_scenario(&sc).unwrap();
        let text = render_run(&sc, &report);
        for i in 0..3 {
            assert!(
                text.contains(&format!("\n{i:>8} ")),
                "missing link {i}:\n{text}"
            );
        }
    }

    #[test]
    fn named_scenario_runs_end_to_end() {
        let mut opts = quick_opts();
        opts.scenario = Some("tiny".to_string());
        opts.custom.intervals = 50;
        let sc = opts.to_scenario(PolicySpec::Ldf).unwrap();
        assert_eq!((sc.name, sc.intervals), ("tiny", 50));
        let report = run_scenario(&sc).unwrap();
        assert_eq!(report.intervals, 50);
        assert!(render_run(&sc, &report).contains("tiny"));
    }

    #[test]
    fn robustness_scenario_reports_fault_and_admission_counters() {
        let mut opts = quick_opts();
        opts.scenario = Some("overload-admission".to_string());
        opts.custom.intervals = 200;
        let sc = opts.to_scenario(PolicySpec::db_dp()).unwrap();
        let report = run_scenario(&sc).unwrap();
        let text = render_run(&sc, &report);
        assert!(text.contains("faults:"), "missing fault line:\n{text}");
        assert!(
            text.contains("admission:"),
            "missing admission line:\n{text}"
        );
        // Pristine runs keep the historical report shape.
        let sc = quick_opts().to_scenario(PolicySpec::db_dp()).unwrap();
        let text = render_run(&sc, &run_scenario(&sc).unwrap());
        assert!(!text.contains("faults:"));
        assert!(!text.contains("admission:"));
    }

    #[test]
    fn invalid_configuration_is_reported() {
        let mut opts = quick_opts();
        opts.custom.success = Param::Uniform(1.5);
        assert!(matches!(
            simulate(&opts, PolicySpec::Ldf),
            Err(CliError::Invalid(_))
        ));
        let mut opts = quick_opts();
        opts.custom.links = 0;
        assert!(simulate(&opts, PolicySpec::db_dp()).is_err());
    }

    #[test]
    fn sweep_single_step_uses_from() {
        let out = render_sweep(&quick_opts(), Axis::Ratio, 0.85, 0.99, 1, false).unwrap();
        assert!(out.contains("0.8500"));
        assert!(!out.contains("0.9900"));
    }

    #[test]
    fn sweep_endpoints_inclusive() {
        let out =
            render_sweep(&quick_opts(), Axis::SuccessProbability, 0.5, 0.9, 3, false).unwrap();
        assert!(out.contains("0.5000") && out.contains("0.7000") && out.contains("0.9000"));
    }

    #[test]
    fn timeline_rejects_per_link_values_of_the_wrong_length() {
        let mut opts = quick_opts();
        opts.custom.success = Param::PerLink(vec![0.9; 2]);
        assert!(matches!(render_timeline(&opts), Err(CliError::Invalid(_))));
        let mut opts = quick_opts();
        opts.custom.traffic = TrafficSpec::parse("bernoulli:0.5,0.5,0.5,0.5").unwrap();
        assert!(matches!(render_timeline(&opts), Err(CliError::Invalid(_))));
    }

    #[test]
    fn emulate_runs_and_checks_replay() {
        let opts = EmulateOpts {
            scenario: "tiny".to_string(),
            intervals: Some(15),
            ..EmulateOpts::default()
        };
        let out = run_emulate(&opts).unwrap();
        assert!(out.contains("3 link(s)"), "{out}");
        assert!(out.contains("replay contract"), "{out}");
        assert!(out.contains("fingerprint"), "{out}");
    }

    #[test]
    fn emulate_reports_unknown_scenarios() {
        let opts = EmulateOpts {
            scenario: "/no/such/scenario".to_string(),
            ..EmulateOpts::default()
        };
        assert!(matches!(
            run_emulate(&opts),
            Err(CliError::Net(rtmac_net::NetError::Config(_)))
        ));
    }

    #[test]
    fn every_policy_spec_builds() {
        for spec in [
            PolicySpec::db_dp(),
            PolicySpec::Ldf,
            PolicySpec::eldf(),
            PolicySpec::Fcsma,
            PolicySpec::Dcf,
            PolicySpec::frame_csma(),
        ] {
            assert!(simulate(&quick_opts(), spec).is_ok(), "{spec:?}");
        }
    }
}
