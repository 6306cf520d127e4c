//! Command-line grammar: parsing flags into [`Scenario`]s. Values of the
//! scenario vocabulary (`--arrivals`, `--policy`, `--p`, `--ratio`,
//! `--param`) are spelled as in [`rtmac::scenario`].

use std::error::Error;
use std::fmt;

use rtmac::scenario::{self, Axis, Param, ParseError, Scenario, TrafficSpec};
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
        expected: String,
    },
    /// The parameters are individually valid but inconsistent as a whole
    /// (surfaced from the simulator's own validation).
    Invalid(String),
    /// A deployment failed to load, launch or run (`rtmac emulate`).
    Net(rtmac_net::NetError),
    /// An output file could not be written; the message names it.
    Io(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::UnknownCommand(c) => {
                write!(
                    f,
                    "unknown command `{c}` (try run, compare, sweep, timeline, emulate, help)"
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
            CliError::Net(e) => write!(f, "{e}"),
            CliError::Io(msg) => write!(f, "{msg}"),
        }
    }
}

impl Error for CliError {}

impl CliError {
    /// Whether the command line caused this error, so that the usage
    /// pointer can help: every error but a failed deployment
    /// ([`CliError::Net`]) and an unwritable output file
    /// ([`CliError::Io`]).
    #[must_use]
    pub fn is_usage(&self) -> bool {
        !matches!(self, CliError::Net(_) | CliError::Io(_))
    }
}

/// Network and simulation options shared by every subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkOpts {
    /// A named workload from [`scenario::by_name`]; replaces `custom`'s
    /// network shape, keeping its horizon and seed.
    pub scenario: Option<String>,
    /// The `"custom"` scenario the network flags, `--intervals` and
    /// `--seed` describe; the defaults are the 10-link video network.
    pub custom: Scenario,
}

impl Default for NetworkOpts {
    fn default() -> Self {
        NetworkOpts {
            scenario: None,
            custom: Scenario {
                name: "custom",
                ..scenario::video(10, 0.5, 0.9, 0)
            },
        }
    }
}

impl NetworkOpts {
    /// The [`Scenario`] this option set describes: the named registry entry
    /// when `--scenario` was given, otherwise the custom one, with the
    /// policy, `--intervals` and `--seed` applied on top.
    ///
    /// # Errors
    ///
    /// Returns a [`CliError::BadValue`] for an unknown scenario name.
    pub fn to_scenario(&self, policy: PolicySpec) -> Result<Scenario, CliError> {
        let sc = match &self.scenario {
            Some(name) => scenario::by_name(name).ok_or_else(|| CliError::BadValue {
                flag: "--scenario".into(),
                value: name.clone(),
                expected: format!("one of {}", scenario::NAMES.join(", ")),
            })?,
            None => self.custom.clone(),
        };
        Ok(Scenario {
            policy,
            intervals: self.custom.intervals,
            seed: self.custom.seed,
            ..sc
        })
    }
}

/// Options of `rtmac emulate` — a whole deployment on one box, checked
/// against the simulator (the replay contract) on every run.
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
        axis: Axis,
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
        expected: expected.to_string(),
    })
}

/// Parses a value of the scenario vocabulary with `parse`, reporting a
/// misspelling as a [`CliError::BadValue`] for `flag`.
fn parse_spelled<T>(
    flag: &str,
    value: &str,
    parse: fn(&str) -> Result<T, ParseError>,
) -> Result<T, CliError> {
    parse(value).map_err(|e| CliError::BadValue {
        flag: flag.to_string(),
        value: e.text,
        expected: e.expected.to_string(),
    })
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
        other => Err(CliError::UnknownCommand(other.to_string())),
    }
}

fn parse_emulate(rest: &[String]) -> Result<Command, CliError> {
    let mut opts = EmulateOpts::default();
    let mut transport_flag = None;
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
                let raw = value_for()?;
                let intervals = parse_num(flag, raw, "an interval count")?;
                // With no interval to run, a process fleet's daemons exit
                // once they have heard every beacon, and a daemon that
                // binds after the last one waits out its timeout.
                if intervals == 0 {
                    return Err(CliError::BadValue {
                        flag: flag.clone(),
                        value: raw.clone(),
                        expected: "at least 1 interval".to_string(),
                    });
                }
                opts.intervals = Some(intervals);
            }
            "--seed" => opts.seed = Some(parse_num(flag, value_for()?, "an integer seed")?),
            "--transport" => {
                let value = value_for()?;
                opts.transport =
                    rtmac_net::TransportKind::parse(value).ok_or_else(|| CliError::BadValue {
                        flag: flag.clone(),
                        value: value.clone(),
                        expected: "loopback or udp".to_string(),
                    })?;
                transport_flag = Some(opts.transport);
            }
            "--processes" => opts.processes = true,
            "--netd" => opts.netd = Some(value_for()?.clone()),
            "--realtime" => opts.realtime = true,
            "--timeout-ms" => {
                opts.timeout_ms = parse_num(flag, value_for()?, "a duration in ms")?;
            }
            "--report" => opts.report = Some(value_for()?.clone()),
            other => return Err(CliError::UnknownFlag(other.to_string())),
        }
    }
    // The daemons of a process fleet talk over UDP.
    if opts.processes && transport_flag == Some(rtmac_net::TransportKind::Loopback) {
        return Err(CliError::Invalid(
            "`--processes` runs one rtmac-netd per link over UDP and cannot be combined \
             with `--transport loopback`"
                .to_string(),
        ));
    }
    Ok(Command::Emulate { opts })
}

fn parse_subcommand(command: &str, rest: &[String]) -> Result<Command, CliError> {
    let mut opts = NetworkOpts::default();
    let mut policy = PolicySpec::db_dp();
    let mut axis = None;
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
                opts.custom.links = parse_num(flag, value_for()?, "a positive integer")?;
            }
            "--deadline-ms" => {
                shape(flag);
                let raw = value_for()?;
                opts.custom.deadline_us = parse_num::<u64>(flag, raw, "a duration in ms")?
                    .checked_mul(1000)
                    .ok_or_else(|| CliError::BadValue {
                        flag: flag.clone(),
                        value: raw.clone(),
                        expected: "a duration in ms that fits the time arithmetic".to_string(),
                    })?;
            }
            "--deadline-us" => {
                shape(flag);
                opts.custom.deadline_us = parse_num(flag, value_for()?, "a duration in us")?;
            }
            "--payload" => {
                shape(flag);
                opts.custom.payload_bytes = parse_num(flag, value_for()?, "a byte count")?;
            }
            "--p" => {
                shape(flag);
                opts.custom.success = parse_spelled(flag, value_for()?, Param::parse)?;
            }
            "--arrivals" => {
                shape(flag);
                opts.custom.traffic = parse_spelled(flag, value_for()?, TrafficSpec::parse)?;
            }
            "--ratio" => {
                shape(flag);
                opts.custom.ratio = parse_spelled(flag, value_for()?, Param::parse)?;
            }
            "--intervals" => {
                opts.custom.intervals = parse_num(flag, value_for()?, "an interval count")?;
            }
            "--seed" => opts.custom.seed = parse_num(flag, value_for()?, "an integer seed")?,
            "--policy" if command == "run" => {
                policy = parse_spelled(flag, value_for()?, PolicySpec::parse)?;
            }
            "--progress" if command == "sweep" => progress = true,
            "--param" if command == "sweep" => {
                axis = Some(parse_spelled(flag, value_for()?, Axis::parse)?);
            }
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
            let axis = axis.ok_or(CliError::MissingValue("--param".into()))?;
            let from = from.ok_or(CliError::MissingValue("--from".into()))?;
            let to = to.ok_or(CliError::MissingValue("--to".into()))?;
            if steps == 0 {
                return Err(CliError::BadValue {
                    flag: "--steps".into(),
                    value: "0".into(),
                    expected: "at least 1 point".to_string(),
                });
            }
            Ok(Command::Sweep {
                opts,
                axis,
                from,
                to,
                steps,
                progress,
            })
        }
        _ => unreachable!("caller filters commands"),
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
        let sc = &opts.custom;
        assert_eq!(
            (sc.links, sc.deadline_us, sc.payload_bytes),
            (20, 20_000, 1500)
        );
        assert_eq!(sc.traffic.render(), "burst:0.55:6");
        assert_eq!(sc.seed, 42);
    }

    #[test]
    fn deadline_us_form() {
        let cmd = parse(&argv("run --deadline-us 700")).unwrap();
        let Command::Run { opts, .. } = cmd else {
            panic!()
        };
        assert_eq!(opts.custom.deadline_us, 700);
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
    fn vocabulary_flags_take_every_spelling() {
        let cmd = parse(&argv(
            "run --links 2 --p 0.9,0.8 --ratio 0.95, --arrivals burst:0.1,0.2:4 \
             --policy db-dp:pairs=2",
        ))
        .unwrap();
        let Command::Run { opts, policy } = cmd else {
            panic!()
        };
        assert_eq!(policy, PolicySpec::db_dp_pairs(2));
        assert_eq!(opts.custom.success, Param::PerLink(vec![0.9, 0.8]));
        assert_eq!(opts.custom.ratio, Param::PerLink(vec![0.95]));
        assert_eq!(opts.custom.traffic.render(), "burst:0.1,0.2:4");
        // A misspelling names the flag, the text and the accepted forms.
        let err = parse(&argv("run --policy tdma")).unwrap_err().to_string();
        assert!(
            err.starts_with("flag `--policy`: `tdma` is not db-dp"),
            "{err}"
        );
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
            axis,
            from,
            to,
            steps,
            ..
        } = cmd
        else {
            panic!()
        };
        assert_eq!(axis, Axis::Ratio);
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
             --timeout-ms 5000 --report /tmp/emul.txt",
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
        assert!(opts.processes && opts.realtime);
        assert_eq!(opts.timeout_ms, 5000);
        assert_eq!(opts.netd.as_deref(), Some("/opt/rtmac-netd"));
    }

    #[test]
    fn emulate_rejects_bad_transport_zero_intervals_and_unknown_flags() {
        assert!(matches!(
            parse(&argv("emulate --transport pigeon")),
            Err(CliError::BadValue { .. })
        ));
        assert!(matches!(
            parse(&argv("emulate --intervals 0")),
            Err(CliError::BadValue { ref flag, .. }) if flag == "--intervals"
        ));
        // A process fleet runs over UDP, in either flag order.
        for args in [
            "emulate --transport loopback --processes",
            "emulate --processes --transport loopback",
        ] {
            assert!(
                matches!(parse(&argv(args)), Err(CliError::Invalid(_))),
                "{args}"
            );
        }
        // The contract is always checked, so there is no flag asking for it.
        for flag in ["--frobnicate", "--check-replay"] {
            assert!(matches!(
                parse(&argv(&format!("emulate {flag}"))),
                Err(CliError::UnknownFlag(_))
            ));
        }
    }

    #[test]
    fn errors_are_specific() {
        // The daemon is the `rtmac-netd` binary, not a subcommand.
        for command in ["teleport", "netd"] {
            assert_eq!(
                parse(&argv(command)),
                Err(CliError::UnknownCommand(command.into()))
            );
        }
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
            expected: "a probability".to_string(),
        }
        .to_string();
        assert!(msg.contains("--p") && msg.contains("two") && msg.contains("probability"));
    }
}
