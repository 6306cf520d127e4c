//! The `rtmac-netd` daemon: argument parsing and the run entry point.
//!
//! The binary in `src/bin/rtmac-netd.rs` is a thin shell around
//! [`parse`] and [`run`]; keeping the logic here makes it testable. One
//! daemon process drives one link of a deployment over UDP (see
//! [`crate::LinkNode`] for the lockstep protocol it runs).

use std::path::PathBuf;
use std::time::Duration;

use crate::error::NetError;
use crate::node::{LinkNode, NodeConfig, NodeReport};
use crate::scenario_file;
use crate::udp::UdpTransport;

/// The daemon's usage text.
pub const USAGE: &str = "\
rtmac-netd — one link of a DP deployment over UDP

USAGE:
    rtmac-netd --scenario <name|file> --link <i> --bind <addr> --peers <addr,addr,...> [options]

REQUIRED:
    --scenario <name|file>   registry scenario name or scenario file path
    --link <i>               this node's link index (0-based)
    --bind <addr>            local UDP address, e.g. 127.0.0.1:7000
    --peers <addr,...>       the other links' addresses (comma-separated)

OPTIONS:
    --intervals <n>          override the scenario's horizon (at least 1)
    --seed <n>               override the scenario's seed
    --realtime               pace intervals at the scenario deadline rate
    --timeout-ms <n>         peer-silence budget (default 30000)
    --report <file>          write a key=value measurement report
    -h, --help               print this help

EXIT CODES:
    0  run completed, decision trace finalized
    1  protocol failure (desync, peer timeout, transport error)
    2  usage or configuration error
";

/// Parsed daemon arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetdOpts {
    /// Registry name or scenario file path.
    pub scenario: String,
    /// This node's link index.
    pub link: usize,
    /// Local UDP bind address.
    pub bind: String,
    /// Peer addresses (the other links, any order).
    pub peers: Vec<String>,
    /// Horizon override.
    pub intervals: Option<usize>,
    /// Seed override.
    pub seed: Option<u64>,
    /// Pace intervals at the deadline rate.
    pub realtime: bool,
    /// Peer-silence budget.
    pub timeout: Duration,
    /// Where to write the `key=value` report, if anywhere.
    pub report: Option<PathBuf>,
}

/// Parses daemon arguments (everything after the program name).
///
/// # Errors
///
/// Returns a one-line usage message naming the offending flag or value.
///
/// # Example
///
/// ```
/// let args: Vec<String> = ["--scenario", "tiny", "--link", "0",
///     "--bind", "127.0.0.1:7000", "--peers", "127.0.0.1:7001,127.0.0.1:7002"]
///     .iter().map(|s| s.to_string()).collect();
/// let opts = rtmac_net::netd::parse(&args).unwrap();
/// assert_eq!(opts.link, 0);
/// assert_eq!(opts.peers.len(), 2);
/// ```
pub fn parse(args: &[String]) -> Result<NetdOpts, String> {
    let mut scenario = None;
    let mut link = None;
    let mut bind = None;
    let mut peers = None;
    let mut opts = NetdOpts {
        scenario: String::new(),
        link: 0,
        bind: String::new(),
        peers: Vec::new(),
        intervals: None,
        seed: None,
        realtime: false,
        timeout: Duration::from_secs(30),
        report: None,
    };
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--scenario" => scenario = Some(value("--scenario")?),
            "--link" => link = Some(parse_value("--link", &value("--link")?)?),
            "--bind" => bind = Some(value("--bind")?),
            "--peers" => {
                peers = Some(
                    value("--peers")?
                        .split(',')
                        .filter(|p| !p.trim().is_empty())
                        .map(|p| p.trim().to_string())
                        .collect::<Vec<_>>(),
                );
            }
            "--intervals" => {
                // With no interval to run, a daemon exits once it has heard
                // every beacon; a peer that binds after its last beacon
                // then waits out its timeout.
                match parse_value("--intervals", &value("--intervals")?)? {
                    0 => return Err("--intervals must be at least 1".into()),
                    k => opts.intervals = Some(k),
                }
            }
            "--seed" => opts.seed = Some(parse_value("--seed", &value("--seed")?)?),
            "--realtime" => opts.realtime = true,
            "--timeout-ms" => {
                opts.timeout =
                    Duration::from_millis(parse_value("--timeout-ms", &value("--timeout-ms")?)?);
            }
            "--report" => opts.report = Some(PathBuf::from(value("--report")?)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    opts.scenario = scenario.ok_or_else(|| missing("--scenario"))?;
    opts.link = link.ok_or_else(|| missing("--link"))?;
    opts.bind = bind.ok_or_else(|| missing("--bind"))?;
    opts.peers = peers.ok_or_else(|| missing("--peers"))?;
    Ok(opts)
}

fn missing(flag: &str) -> String {
    format!("{flag} is required")
}

fn parse_value<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("bad value `{value}` for {flag}"))
}

/// Runs one daemon node to completion and writes the report file if one
/// was requested.
///
/// # Errors
///
/// Propagates scenario loading, transport, and lockstep errors; see
/// [`LinkNode::run`] for the protocol failure modes.
///
/// # Panics
///
/// Propagates policy-engine panics from the node's replica, as in
/// [`rtmac::Network::step`].
pub fn run(opts: &NetdOpts) -> Result<NodeReport, NetError> {
    let mut sc = scenario_file::load(&opts.scenario)?;
    if let Some(seed) = opts.seed {
        sc = sc.with_seed(seed);
    }
    let intervals = opts.intervals.unwrap_or(sc.intervals);
    let transport = UdpTransport::bind(&opts.bind, &opts.peers, opts.link, sc.links)?;
    let mut config = NodeConfig::new(sc, intervals);
    config.sync_timeout = opts.timeout;
    config.realtime = opts.realtime;
    let report = LinkNode::new(transport, config)?.run()?;
    if let Some(path) = &opts.report {
        std::fs::write(path, render_report(&report))
            .map_err(|e| NetError::Io(format!("cannot write report {}: {e}", path.display())))?;
    }
    Ok(report)
}

/// Renders a node report in the `key=value` format the emulation harness
/// reads back.
///
/// # Example
///
/// ```
/// use rtmac_net::{netd, LinkNode, LoopbackHub, NodeConfig};
///
/// let sc = rtmac::scenario::by_name("tiny").unwrap().with_links(1);
/// let ep = LoopbackHub::endpoints(1).remove(0);
/// let report = LinkNode::new(ep, NodeConfig::new(sc, 2)).unwrap().run().unwrap();
/// assert!(netd::render_report(&report).contains("link=0"));
/// ```
#[must_use]
pub fn render_report(report: &NodeReport) -> String {
    format!(
        "link={}\nfingerprint={:#018x}\nframes={}\nmisses={}\nmax_interval_us={}\nmean_interval_us={}\nintervals={}\nattempts={}\n",
        report.link,
        report.fingerprint,
        report.frames,
        report.misses,
        report.max_interval.as_micros(),
        report.mean_interval.as_micros(),
        report.report.intervals,
        report.report.attempts.iter().sum::<u64>(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn full_flag_set_parses() {
        let opts = parse(&args(&[
            "--scenario",
            "control10",
            "--link",
            "3",
            "--bind",
            "127.0.0.1:7003",
            "--peers",
            "127.0.0.1:7000,127.0.0.1:7001",
            "--intervals",
            "500",
            "--seed",
            "42",
            "--realtime",
            "--timeout-ms",
            "1500",
            "--report",
            "/tmp/r.txt",
        ]))
        .unwrap();
        assert_eq!(opts.link, 3);
        assert_eq!(opts.intervals, Some(500));
        assert_eq!(opts.seed, Some(42));
        assert!(opts.realtime);
        assert_eq!(opts.timeout, Duration::from_millis(1500));
    }

    #[test]
    fn missing_required_flags_are_named() {
        let err = parse(&args(&["--link", "0"])).unwrap_err();
        assert_eq!(err, "--scenario is required");
    }

    #[test]
    fn unknown_flags_and_bad_values_are_rejected() {
        assert_eq!(
            parse(&args(&["--frobnicate"])),
            Err("unknown flag `--frobnicate`".into())
        );
        assert!(parse(&args(&["--link", "minus-one"])).is_err());
        assert_eq!(
            parse(&args(&["--intervals", "0"])),
            Err("--intervals must be at least 1".into())
        );
        // There is one DP engine, so there is no engine flag.
        assert!(parse(&args(&["--engine", "batched"])).is_err());
    }
}
