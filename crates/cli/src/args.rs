//! Command-line grammar: parsing flags into [`Scenario`]s and rendering
//! [`Scenario`]s back into flags.

use std::error::Error;
use std::fmt;

use rtmac::scenario::{self, EngineSpec, Param, Scenario, TrafficSpec};
pub use rtmac::PolicySpec;

/// A parse- or run-time CLI error.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CliError {
    /// The first token was not a known subcommand.
    UnknownCommand(String),
    /// A flag is not recognized by this subcommand.
    UnknownFlag(String),
    /// A flag was given without its value.
    MissingValue(String),
    /// A value failed to parse.
    BadValue {
        /// The flag.
        flag: String,
        /// The raw value.
        value: String,
        /// What was expected.
        expected: &'static str,
    },
    /// The parameters are individually valid but inconsistent as a whole
    /// (surfaced from the simulator's own validation).
    Invalid(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::UnknownCommand(c) => {
                write!(
                    f,
                    "unknown command `{c}` (try run, compare, sweep, emulate, netd, help)"
                )
            }
            CliError::UnknownFlag(flag) => write!(f, "unknown flag `{flag}`"),
            CliError::MissingValue(flag) => write!(f, "flag `{flag}` needs a value"),
            CliError::BadValue {
                flag,
                value,
                expected,
            } => write!(f, "flag `{flag}`: `{value}` is not {expected}"),
            CliError::Invalid(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl Error for CliError {}

/// Which arrival process to use.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalSpec {
    /// `burst:ALPHA` — the paper's video model, `U{1..6}` w.p. `ALPHA`.
    Burst(f64),
    /// `bernoulli:LAMBDA` — the paper's control model.
    Bernoulli(f64),
    /// `constant` — exactly one packet per link per interval.
    Constant,
}

/// The swept parameter of `rtmac sweep`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepParam {
    /// Burst probability of the video arrival model.
    Alpha,
    /// Rate of the Bernoulli arrival model.
    Lambda,
    /// Required delivery ratio.
    Ratio,
    /// Channel success probability.
    SuccessProbability,
}

/// Network and simulation options shared by every subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkOpts {
    /// A named workload from [`scenario::by_name`]; overrides the
    /// network-shape flags below.
    pub scenario: Option<String>,
    /// Number of links.
    pub links: usize,
    /// Per-packet deadline in microseconds.
    pub deadline_us: u64,
    /// Payload size in bytes.
    pub payload: u32,
    /// Uniform channel success probability.
    pub p: f64,
    /// Arrival process.
    pub arrivals: ArrivalSpec,
    /// Required delivery ratio.
    pub ratio: f64,
    /// Number of intervals to simulate.
    pub intervals: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for NetworkOpts {
    fn default() -> Self {
        NetworkOpts {
            scenario: None,
            links: 10,
            deadline_us: 20_000,
            payload: 1500,
            p: 0.7,
            arrivals: ArrivalSpec::Burst(0.5),
            ratio: 0.9,
            intervals: 1000,
            seed: 0,
        }
    }
}

impl NetworkOpts {
    /// The [`Scenario`] this option set describes: the named registry entry
    /// when `--scenario` was given (with `--intervals`, `--seed`, and the
    /// policy still applied on top), otherwise a `"custom"` scenario built
    /// from the individual flags.
    ///
    /// # Errors
    ///
    /// Returns a [`CliError::BadValue`] for an unknown scenario name.
    pub fn to_scenario(&self, policy: PolicySpec) -> Result<Scenario, CliError> {
        let mut sc = match &self.scenario {
            Some(name) => scenario::by_name(name).ok_or_else(|| CliError::BadValue {
                flag: "--scenario".into(),
                value: name.clone(),
                expected: "one of video20, control10, asym, tiny, bursty, \
                           hidden-terminal, poisson-churn, overload-admission",
            })?,
            None => Scenario {
                name: "custom",
                links: self.links,
                deadline_us: self.deadline_us,
                payload_bytes: self.payload,
                success: Param::Uniform(self.p),
                traffic: match self.arrivals {
                    ArrivalSpec::Burst(alpha) => TrafficSpec::Burst {
                        alpha: Param::Uniform(alpha),
                        burst_max: 6,
                    },
                    ArrivalSpec::Bernoulli(lambda) => TrafficSpec::Bernoulli {
                        lambda: Param::Uniform(lambda),
                    },
                    ArrivalSpec::Constant => TrafficSpec::Constant,
                },
                ratio: Param::Uniform(self.ratio),
                policy,
                intervals: self.intervals,
                seed: self.seed,
                track: None,
                fault: None,
                admission: None,
                engine: EngineSpec::Timeline,
            },
        };
        sc.policy = policy;
        sc.intervals = self.intervals;
        sc.seed = self.seed;
        Ok(sc)
    }
}

/// Options of `rtmac emulate` — a whole deployment on one box, with the
/// replay contract checked on request.
#[derive(Debug, Clone, PartialEq)]
pub struct EmulateOpts {
    /// Registry scenario name or scenario file path.
    pub scenario: String,
    /// Deployment-size override (`Scenario::with_links`).
    pub links: Option<usize>,
    /// Horizon override.
    pub intervals: Option<usize>,
    /// Seed override.
    pub seed: Option<u64>,
    /// Transport backend for the in-process (thread) mode.
    pub transport: rtmac_net::TransportKind,
    /// Launch one real `rtmac-netd` process per link instead of threads.
    pub processes: bool,
    /// Path to the `rtmac-netd` binary (processes mode); defaults to the
    /// binary next to the running executable.
    pub netd: Option<String>,
    /// Pace nodes at the scenario's real-time interval rate.
    pub realtime: bool,
    /// Per-node peer-silence budget in milliseconds.
    pub timeout_ms: u64,
    /// Write a `key=value` measurement report to this path.
    pub report: Option<String>,
    /// Also run the sim backend and fail unless fingerprints match.
    pub check_replay: bool,
}

impl Default for EmulateOpts {
    fn default() -> Self {
        EmulateOpts {
            scenario: "control10".to_string(),
            links: None,
            intervals: None,
            seed: None,
            transport: rtmac_net::TransportKind::Loopback,
            processes: false,
            netd: None,
            realtime: false,
            timeout_ms: 30_000,
            report: None,
            check_replay: false,
        }
    }
}

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Simulate one policy.
    Run {
        /// Shared options.
        opts: NetworkOpts,
        /// The policy.
        policy: PolicySpec,
    },
    /// Run DB-DP, LDF, and FCSMA on the same network.
    Compare {
        /// Shared options.
        opts: NetworkOpts,
    },
    /// Sweep one parameter, comparing the three contenders at each point.
    Sweep {
        /// Shared options (the swept field's value is overridden).
        opts: NetworkOpts,
        /// Which parameter to sweep.
        param: SweepParam,
        /// First value.
        from: f64,
        /// Last value (inclusive).
        to: f64,
        /// Number of points (≥ 2 unless `from == to`).
        steps: usize,
        /// Report live completed/total and items/sec on stderr.
        progress: bool,
    },
    /// Render ASCII timelines of the DP protocol on the air.
    Timeline {
        /// Shared options (`intervals` bounds how many timelines print).
        opts: NetworkOpts,
    },
    /// Emulate a whole deployment (threads or `rtmac-netd` processes) on
    /// this box and report wall-clock deadline-miss rates.
    Emulate {
        /// Emulation options.
        opts: EmulateOpts,
    },
    /// Run one link of a UDP deployment in-process — the same flags as the
    /// standalone `rtmac-netd` binary, parsed by `rtmac-net` itself.
    Netd {
        /// Raw daemon arguments, handed to [`rtmac_net::netd::parse`].
        args: Vec<String>,
    },
    /// Print usage.
    Help,
}

fn parse_num<T: std::str::FromStr>(
    flag: &str,
    value: &str,
    expected: &'static str,
) -> Result<T, CliError> {
    value.parse().map_err(|_| CliError::BadValue {
        flag: flag.to_string(),
        value: value.to_string(),
        expected,
    })
}

fn parse_arrivals(flag: &str, value: &str) -> Result<ArrivalSpec, CliError> {
    if value == "constant" {
        return Ok(ArrivalSpec::Constant);
    }
    if let Some(alpha) = value.strip_prefix("burst:") {
        return Ok(ArrivalSpec::Burst(parse_num(flag, alpha, "a probability")?));
    }
    if let Some(lambda) = value.strip_prefix("bernoulli:") {
        return Ok(ArrivalSpec::Bernoulli(parse_num(
            flag,
            lambda,
            "a probability",
        )?));
    }
    Err(CliError::BadValue {
        flag: flag.to_string(),
        value: value.to_string(),
        expected: "burst:ALPHA, bernoulli:LAMBDA, or constant",
    })
}

fn parse_policy(flag: &str, value: &str) -> Result<PolicySpec, CliError> {
    match value {
        "db-dp" | "dbdp" => Ok(PolicySpec::db_dp()),
        "ldf" => Ok(PolicySpec::Ldf),
        "eldf" => Ok(PolicySpec::eldf()),
        "fcsma" => Ok(PolicySpec::Fcsma),
        "dcf" => Ok(PolicySpec::Dcf),
        "frame-csma" | "framecsma" => Ok(PolicySpec::frame_csma()),
        _ => Err(CliError::BadValue {
            flag: flag.to_string(),
            value: value.to_string(),
            expected: "db-dp, ldf, eldf, fcsma, dcf, or frame-csma",
        }),
    }
}

/// The `--policy` spelling of a [`PolicySpec`], when it has one (only the
/// flag-default configurations do; e.g. a DB-DP with extra swap pairs is
/// not expressible).
#[must_use]
pub fn policy_flag(spec: PolicySpec) -> Option<&'static str> {
    if spec == PolicySpec::db_dp() {
        Some("db-dp")
    } else if spec == PolicySpec::Ldf {
        Some("ldf")
    } else if spec == PolicySpec::eldf() {
        Some("eldf")
    } else if spec == PolicySpec::Fcsma {
        Some("fcsma")
    } else if spec == PolicySpec::Dcf {
        Some("dcf")
    } else if spec == PolicySpec::frame_csma() {
        Some("frame-csma")
    } else {
        None
    }
}

/// Renders a scenario back into `rtmac run` argument tokens — the inverse
/// of [`parse`] for every configuration the flag grammar can express
/// (uniform parameters, the paper's burst size, a flag-named policy;
/// `None` otherwise). Round trip: parsing the rendered tokens and calling
/// [`NetworkOpts::to_scenario`] reproduces the scenario, field for field.
#[must_use]
pub fn render_run_command(sc: &Scenario) -> Option<Vec<String>> {
    if sc.track.is_some() || sc.fault.is_some() {
        return None;
    }
    let arrivals = match &sc.traffic {
        TrafficSpec::Burst {
            alpha,
            burst_max: 6,
        } => format!("burst:{}", alpha.uniform_value()?),
        TrafficSpec::Burst { .. } => return None,
        TrafficSpec::Bernoulli { lambda } => format!("bernoulli:{}", lambda.uniform_value()?),
        TrafficSpec::Constant => "constant".to_string(),
    };
    let policy = policy_flag(sc.policy)?;
    let tokens = [
        ("--links", sc.links.to_string()),
        ("--deadline-us", sc.deadline_us.to_string()),
        ("--payload", sc.payload_bytes.to_string()),
        ("--p", sc.success.uniform_value()?.to_string()),
        ("--arrivals", arrivals),
        ("--ratio", sc.ratio.uniform_value()?.to_string()),
        ("--intervals", sc.intervals.to_string()),
        ("--seed", sc.seed.to_string()),
        ("--policy", policy.to_string()),
    ];
    let mut argv = vec!["run".to_string()];
    for (flag, value) in tokens {
        argv.push(flag.to_string());
        argv.push(value);
    }
    Some(argv)
}

/// Parses a full argument vector into a [`Command`].
///
/// # Errors
///
/// Returns a [`CliError`] describing the first problem encountered.
pub fn parse(argv: &[String]) -> Result<Command, CliError> {
    let Some(command) = argv.first() else {
        return Ok(Command::Help);
    };
    match command.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "run" | "compare" | "sweep" | "timeline" => parse_subcommand(command, &argv[1..]),
        "emulate" => parse_emulate(&argv[1..]),
        "netd" => Ok(Command::Netd {
            args: argv[1..].to_vec(),
        }),
        other => Err(CliError::UnknownCommand(other.to_string())),
    }
}

fn parse_emulate(rest: &[String]) -> Result<Command, CliError> {
    let mut opts = EmulateOpts::default();
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let mut value_for = || -> Result<&String, CliError> {
            it.next()
                .ok_or_else(|| CliError::MissingValue(flag.clone()))
        };
        match flag.as_str() {
            "--scenario" => opts.scenario = value_for()?.clone(),
            "--links" => {
                opts.links = Some(parse_num(flag, value_for()?, "a positive integer")?);
            }
            "--intervals" => {
                opts.intervals = Some(parse_num(flag, value_for()?, "an interval count")?);
            }
            "--seed" => opts.seed = Some(parse_num(flag, value_for()?, "an integer seed")?),
            "--transport" => {
                let value = value_for()?;
                opts.transport =
                    rtmac_net::TransportKind::parse(value).ok_or_else(|| CliError::BadValue {
                        flag: flag.clone(),
                        value: value.clone(),
                        expected: "loopback or udp",
                    })?;
            }
            "--processes" => opts.processes = true,
            "--netd" => opts.netd = Some(value_for()?.clone()),
            "--realtime" => opts.realtime = true,
            "--timeout-ms" => {
                opts.timeout_ms = parse_num(flag, value_for()?, "a duration in ms")?;
            }
            "--report" => opts.report = Some(value_for()?.clone()),
            "--check-replay" => opts.check_replay = true,
            other => return Err(CliError::UnknownFlag(other.to_string())),
        }
    }
    Ok(Command::Emulate { opts })
}

fn parse_subcommand(command: &str, rest: &[String]) -> Result<Command, CliError> {
    let mut opts = NetworkOpts::default();
    let mut policy = PolicySpec::db_dp();
    let mut param = None;
    let mut from = None;
    let mut to = None;
    let mut steps = 5usize;
    let mut progress = false;
    // A named scenario fixes the network shape, so shape flags conflict
    // with `--scenario` (while --intervals/--seed/--policy compose).
    let mut shape_flag: Option<String> = None;

    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let mut value_for = || -> Result<&String, CliError> {
            it.next()
                .ok_or_else(|| CliError::MissingValue(flag.clone()))
        };
        let mut shape = |flag: &str| {
            if shape_flag.is_none() {
                shape_flag = Some(flag.to_string());
            }
        };
        match flag.as_str() {
            "--scenario" if command != "timeline" => {
                opts.scenario = Some(value_for()?.clone());
            }
            "--links" => {
                shape(flag);
                opts.links = parse_num(flag, value_for()?, "a positive integer")?;
            }
            "--deadline-ms" => {
                shape(flag);
                let raw = value_for()?;
                opts.deadline_us = parse_num::<u64>(flag, raw, "a duration in ms")?
                    .checked_mul(1000)
                    .ok_or_else(|| CliError::BadValue {
                        flag: flag.clone(),
                        value: raw.clone(),
                        expected: "a duration in ms that fits the time arithmetic",
                    })?;
            }
            "--deadline-us" => {
                shape(flag);
                opts.deadline_us = parse_num(flag, value_for()?, "a duration in us")?;
            }
            "--payload" => {
                shape(flag);
                opts.payload = parse_num(flag, value_for()?, "a byte count")?;
            }
            "--p" => {
                shape(flag);
                opts.p = parse_num(flag, value_for()?, "a probability")?;
            }
            "--arrivals" => {
                shape(flag);
                opts.arrivals = parse_arrivals(flag, value_for()?)?;
            }
            "--ratio" => {
                shape(flag);
                opts.ratio = parse_num(flag, value_for()?, "a ratio in (0,1]")?;
            }
            "--intervals" => opts.intervals = parse_num(flag, value_for()?, "an interval count")?,
            "--seed" => opts.seed = parse_num(flag, value_for()?, "an integer seed")?,
            "--policy" if command == "run" => policy = parse_policy(flag, value_for()?)?,
            "--progress" if command == "sweep" => progress = true,
            "--param" if command == "sweep" => param = Some(parse_sweep_param(flag, value_for()?)?),
            "--from" if command == "sweep" => {
                from = Some(parse_num(flag, value_for()?, "a number")?);
            }
            "--to" if command == "sweep" => to = Some(parse_num(flag, value_for()?, "a number")?),
            "--steps" if command == "sweep" => {
                steps = parse_num(flag, value_for()?, "a point count")?;
            }
            other => return Err(CliError::UnknownFlag(other.to_string())),
        }
    }

    if let (Some(_), Some(flag)) = (&opts.scenario, &shape_flag) {
        return Err(CliError::Invalid(format!(
            "`--scenario` fixes the network shape and cannot be combined with `{flag}` \
             (use --intervals/--seed/--policy to customize, or drop --scenario)"
        )));
    }

    match command {
        "run" => Ok(Command::Run { opts, policy }),
        "compare" => Ok(Command::Compare { opts }),
        "timeline" => Ok(Command::Timeline { opts }),
        "sweep" => {
            let param = param.ok_or(CliError::MissingValue("--param".into()))?;
            let from = from.ok_or(CliError::MissingValue("--from".into()))?;
            let to = to.ok_or(CliError::MissingValue("--to".into()))?;
            if steps == 0 {
                return Err(CliError::BadValue {
                    flag: "--steps".into(),
                    value: "0".into(),
                    expected: "at least 1 point",
                });
            }
            Ok(Command::Sweep {
                opts,
                param,
                from,
                to,
                steps,
                progress,
            })
        }
        _ => unreachable!("caller filters commands"),
    }
}

fn parse_sweep_param(flag: &str, value: &str) -> Result<SweepParam, CliError> {
    match value {
        "alpha" => Ok(SweepParam::Alpha),
        "lambda" => Ok(SweepParam::Lambda),
        "ratio" => Ok(SweepParam::Ratio),
        "p" => Ok(SweepParam::SuccessProbability),
        _ => Err(CliError::BadValue {
            flag: flag.to_string(),
            value: value.to_string(),
            expected: "alpha, lambda, ratio, or p",
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn empty_and_help_forms() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        for form in ["help", "--help", "-h"] {
            assert_eq!(parse(&argv(form)).unwrap(), Command::Help);
        }
    }

    #[test]
    fn run_parses_all_flags() {
        let cmd = parse(&argv(
            "run --links 20 --deadline-ms 20 --payload 1500 --p 0.7 \
             --arrivals burst:0.55 --ratio 0.9 --policy fcsma \
             --intervals 5000 --seed 42",
        ))
        .unwrap();
        let Command::Run { opts, policy } = cmd else {
            panic!("expected run");
        };
        assert_eq!(policy, PolicySpec::Fcsma);
        assert_eq!(opts.links, 20);
        assert_eq!(opts.deadline_us, 20_000);
        assert_eq!(opts.payload, 1500);
        assert_eq!(opts.arrivals, ArrivalSpec::Burst(0.55));
        assert_eq!(opts.seed, 42);
    }

    #[test]
    fn deadline_us_form() {
        let cmd = parse(&argv("run --deadline-us 700")).unwrap();
        let Command::Run { opts, .. } = cmd else {
            panic!()
        };
        assert_eq!(opts.deadline_us, 700);
    }

    #[test]
    fn scenario_flag_selects_named_workload() {
        let cmd = parse(&argv("run --scenario video20 --intervals 50 --seed 9")).unwrap();
        let Command::Run { opts, policy } = cmd else {
            panic!()
        };
        let sc = opts.to_scenario(policy).unwrap();
        assert_eq!(sc.name, "video20");
        assert_eq!(sc.links, 20);
        assert_eq!(sc.intervals, 50);
        assert_eq!(sc.seed, 9);
    }

    #[test]
    fn scenario_flag_conflicts_with_shape_flags() {
        assert!(matches!(
            parse(&argv("run --scenario video20 --links 5")),
            Err(CliError::Invalid(_))
        ));
        // Order does not matter.
        assert!(matches!(
            parse(&argv("compare --p 0.8 --scenario tiny")),
            Err(CliError::Invalid(_))
        ));
        // --intervals/--seed compose fine.
        assert!(parse(&argv("run --scenario tiny --intervals 10 --seed 3")).is_ok());
    }

    #[test]
    fn unknown_scenario_is_reported_at_lookup() {
        let cmd = parse(&argv("run --scenario warehouse")).unwrap();
        let Command::Run { opts, policy } = cmd else {
            panic!()
        };
        assert!(matches!(
            opts.to_scenario(policy),
            Err(CliError::BadValue { .. })
        ));
    }

    #[test]
    fn arrivals_variants() {
        assert_eq!(
            parse_arrivals("--arrivals", "bernoulli:0.78").unwrap(),
            ArrivalSpec::Bernoulli(0.78)
        );
        assert_eq!(
            parse_arrivals("--arrivals", "constant").unwrap(),
            ArrivalSpec::Constant
        );
        assert!(parse_arrivals("--arrivals", "poisson:2").is_err());
        assert!(parse_arrivals("--arrivals", "burst:x").is_err());
    }

    #[test]
    fn every_policy_name_parses() {
        for (name, spec) in [
            ("db-dp", PolicySpec::db_dp()),
            ("dbdp", PolicySpec::db_dp()),
            ("ldf", PolicySpec::Ldf),
            ("eldf", PolicySpec::eldf()),
            ("fcsma", PolicySpec::Fcsma),
            ("dcf", PolicySpec::Dcf),
            ("frame-csma", PolicySpec::frame_csma()),
        ] {
            assert_eq!(parse_policy("--policy", name).unwrap(), spec);
        }
        assert!(parse_policy("--policy", "tdma").is_err());
    }

    #[test]
    fn policy_flags_round_trip() {
        for name in ["db-dp", "ldf", "eldf", "fcsma", "dcf", "frame-csma"] {
            let spec = parse_policy("--policy", name).unwrap();
            assert_eq!(policy_flag(spec), Some(name));
        }
        assert_eq!(policy_flag(PolicySpec::db_dp_pairs(3)), None);
    }

    #[test]
    fn render_covers_the_flag_grammar_only() {
        let sc = scenario::by_name("video20").unwrap();
        let argv = render_run_command(&sc).expect("video20 is flag-expressible");
        let Command::Run { opts, policy } = parse(&argv).unwrap() else {
            panic!()
        };
        let back = opts.to_scenario(policy).unwrap();
        assert_eq!(
            Scenario {
                name: "video20",
                ..back
            },
            sc
        );
        // Per-link parameters are not expressible.
        assert_eq!(
            render_run_command(&scenario::by_name("asym").unwrap()),
            None
        );
        // Neither is Fig. 5's tracking instrumentation.
        assert_eq!(render_run_command(&scenario::fig5(100, 0)), None);
    }

    #[test]
    fn sweep_requires_param_from_to() {
        assert_eq!(
            parse(&argv("sweep --from 0.1 --to 0.2")),
            Err(CliError::MissingValue("--param".into()))
        );
        assert_eq!(
            parse(&argv("sweep --param alpha --to 0.2")),
            Err(CliError::MissingValue("--from".into()))
        );
        let cmd = parse(&argv("sweep --param ratio --from 0.8 --to 1.0 --steps 3")).unwrap();
        let Command::Sweep {
            param,
            from,
            to,
            steps,
            ..
        } = cmd
        else {
            panic!()
        };
        assert_eq!(param, SweepParam::Ratio);
        assert_eq!((from, to, steps), (0.8, 1.0, 3));
    }

    #[test]
    fn sweep_rejects_zero_steps() {
        assert!(matches!(
            parse(&argv("sweep --param p --from 0.5 --to 0.9 --steps 0")),
            Err(CliError::BadValue { .. })
        ));
    }

    #[test]
    fn emulate_parses_its_flags() {
        let cmd = parse(&argv(
            "emulate --scenario tiny --links 12 --intervals 40 --seed 7 \
             --transport udp --processes --netd /opt/rtmac-netd --realtime \
             --timeout-ms 5000 --report /tmp/emul.txt --check-replay",
        ))
        .unwrap();
        let Command::Emulate { opts } = cmd else {
            panic!("expected emulate");
        };
        assert_eq!(opts.scenario, "tiny");
        assert_eq!(opts.links, Some(12));
        assert_eq!(opts.intervals, Some(40));
        assert_eq!(opts.seed, Some(7));
        assert_eq!(opts.transport, rtmac_net::TransportKind::Udp);
        assert!(opts.processes && opts.realtime && opts.check_replay);
        assert_eq!(opts.timeout_ms, 5000);
        assert_eq!(opts.netd.as_deref(), Some("/opt/rtmac-netd"));
    }

    #[test]
    fn emulate_rejects_bad_transport_and_unknown_flags() {
        assert!(matches!(
            parse(&argv("emulate --transport pigeon")),
            Err(CliError::BadValue { .. })
        ));
        assert!(matches!(
            parse(&argv("emulate --frobnicate")),
            Err(CliError::UnknownFlag(_))
        ));
    }

    #[test]
    fn netd_passes_raw_args_through() {
        let cmd = parse(&argv("netd --scenario tiny --link 0")).unwrap();
        assert_eq!(
            cmd,
            Command::Netd {
                args: argv("--scenario tiny --link 0"),
            }
        );
    }

    #[test]
    fn errors_are_specific() {
        assert_eq!(
            parse(&argv("teleport")),
            Err(CliError::UnknownCommand("teleport".into()))
        );
        assert_eq!(
            parse(&argv("run --bogus 1")),
            Err(CliError::UnknownFlag("--bogus".into()))
        );
        assert_eq!(
            parse(&argv("run --links")),
            Err(CliError::MissingValue("--links".into()))
        );
        // run-only flags rejected elsewhere:
        assert_eq!(
            parse(&argv("compare --policy ldf")),
            Err(CliError::UnknownFlag("--policy".into()))
        );
        // timeline does not take --scenario (it drives the engine, not a
        // network):
        assert_eq!(
            parse(&argv("timeline --scenario tiny")),
            Err(CliError::UnknownFlag("--scenario".into()))
        );
    }

    #[test]
    fn error_messages_are_lowercase_and_helpful() {
        let msg = CliError::BadValue {
            flag: "--p".into(),
            value: "two".into(),
            expected: "a probability",
        }
        .to_string();
        assert!(msg.contains("--p") && msg.contains("two") && msg.contains("probability"));
    }
}
