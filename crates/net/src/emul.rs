//! The many-link emulation harness: the one place a deployment is run,
//! checked against the simulator and reported.
//!
//! [`run_emulation`] launches one [`LinkNode`] per link as threads in this
//! process, over either the loopback or the UDP transport.
//! [`run_emulation_processes`] launches one real `rtmac-netd` process per
//! link, exchanging datagrams over localhost sockets. Both step the
//! transport-free simulator ([`sim_trace`]) next to the deployment and
//! hold every node to the replay contract: each node's decision-trace
//! fingerprint must equal the sim's. One row per node then folds into one
//! [`EmulationReport`], whose protocol-level [`RunReport`] is the sim's.

use std::net::UdpSocket;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use rtmac::RunReport;

use crate::error::NetError;
use crate::node::{LinkNode, NodeConfig, NodeReport};
use crate::scenario_file;
use crate::sim::{sim_trace, SimTrace};
use crate::transport::{LoopbackHub, Transport};
use crate::udp::UdpTransport;

/// Which transport backend an emulation runs over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportKind {
    /// In-memory channels; delivery is lossless and ordered.
    Loopback,
    /// Real UDP sockets on localhost; delivery may drop, duplicate, or
    /// reorder (it rarely does on loopback interfaces).
    Udp,
}

impl TransportKind {
    /// The backend name used in reports and CLI flags.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TransportKind::Loopback => "loopback",
            TransportKind::Udp => "udp",
        }
    }

    /// Parses a CLI flag value.
    ///
    /// # Example
    ///
    /// ```
    /// use rtmac_net::TransportKind;
    ///
    /// assert_eq!(TransportKind::parse("udp"), Some(TransportKind::Udp));
    /// assert_eq!(TransportKind::parse("smoke-signal"), None);
    /// ```
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "loopback" => Some(TransportKind::Loopback),
            "udp" => Some(TransportKind::Udp),
            _ => None,
        }
    }
}

/// What a whole emulation measured.
#[derive(Debug, Clone)]
pub struct EmulationReport {
    /// Backend name (`"loopback"`, `"udp"`, or `"udp-processes"`).
    pub backend: &'static str,
    /// Deployment size.
    pub links: usize,
    /// Intervals run.
    pub intervals: usize,
    /// The sim's decision-trace fingerprint, which every node matched.
    pub fingerprint: u64,
    /// The sim's run report (the replay contract makes it every
    /// replica's too).
    pub run: RunReport,
    /// Total wall-clock deadline misses across all nodes.
    pub misses: u64,
    /// `misses / (links × intervals)` — the measured fraction of link
    /// intervals whose real-time exchange overran the deadline.
    pub miss_rate: f64,
    /// Per-link wall-clock miss counts.
    pub per_link_misses: Vec<u64>,
    /// Longest wall-clock interval any node observed.
    pub max_interval: Duration,
    /// Mean of the nodes' mean wall-clock interval durations.
    pub mean_interval: Duration,
}

/// Runs one node per link of `cfg.scenario` as threads in this process
/// over `transport`, checks every node against the sim, and folds their
/// reports.
///
/// # Errors
///
/// Returns [`NetError::Config`] when the scenario does not build,
/// propagates the first node error ([`NetError::Desync`],
/// [`NetError::Timeout`], ...), and returns [`NetError::Mismatch`] when a
/// node's fingerprint differs from the sim's.
///
/// # Panics
///
/// Panics if a node thread panics.
///
/// # Example
///
/// ```
/// use rtmac_net::{run_emulation, NodeConfig, TransportKind};
///
/// let sc = rtmac::scenario::by_name("tiny").unwrap();
/// let report = run_emulation(&NodeConfig::new(sc, 20), TransportKind::Loopback).unwrap();
/// assert_eq!(report.links, 3);
/// assert_eq!(report.run.intervals, 20);
/// ```
pub fn run_emulation(
    cfg: &NodeConfig,
    transport: TransportKind,
) -> Result<EmulationReport, NetError> {
    let sim = sim_trace(&cfg.scenario, cfg.intervals)?;
    let n = cfg.scenario.links;
    let results = match transport {
        TransportKind::Loopback => run_nodes(cfg, LoopbackHub::endpoints(n)),
        TransportKind::Udp => run_nodes(cfg, UdpTransport::local_cluster(n)?),
    };
    let mut rows = Vec::with_capacity(n);
    for result in results {
        rows.push(NodeRow::from(&result?));
    }
    fold(transport.name(), cfg.intervals, sim, &rows)
}

fn run_nodes<T: Transport + Send>(
    cfg: &NodeConfig,
    endpoints: Vec<T>,
) -> Vec<Result<NodeReport, NetError>> {
    std::thread::scope(|scope| {
        endpoints
            .into_iter()
            .map(|ep| {
                let cfg = cfg.clone();
                scope.spawn(move || LinkNode::new(ep, cfg)?.run())
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|handle| handle.join().expect("link node thread panicked"))
            .collect()
    })
}

/// One node's measurements: the part of its [`NodeReport`] (or of a
/// daemon's report file) that the fold reads.
#[derive(Debug, Clone)]
struct NodeRow {
    link: usize,
    fingerprint: u64,
    misses: u64,
    max_interval: Duration,
    mean_interval: Duration,
}

impl From<&NodeReport> for NodeRow {
    fn from(r: &NodeReport) -> Self {
        NodeRow {
            link: r.link,
            fingerprint: r.fingerprint,
            misses: r.misses,
            max_interval: r.max_interval,
            mean_interval: r.mean_interval,
        }
    }
}

/// Folds one row per link, in the order the links were launched, into one
/// report. Each row must name the link it was launched as and carry the
/// sim's fingerprint.
fn fold(
    backend: &'static str,
    intervals: usize,
    sim: SimTrace,
    rows: &[NodeRow],
) -> Result<EmulationReport, NetError> {
    for (link, row) in rows.iter().enumerate() {
        if row.link != link {
            return Err(NetError::Io(format!(
                "the report of link {link} names link {}",
                row.link
            )));
        }
        if row.fingerprint != sim.fingerprint {
            return Err(NetError::Mismatch {
                what: format!("link {link} decision-trace fingerprint (vs sim)"),
                expected: sim.fingerprint,
                got: row.fingerprint,
            });
        }
    }
    let misses: u64 = rows.iter().map(|r| r.misses).sum();
    let link_intervals = (rows.len() * intervals) as u64;
    Ok(EmulationReport {
        backend,
        links: rows.len(),
        intervals,
        fingerprint: sim.fingerprint,
        run: sim.report,
        misses,
        miss_rate: if link_intervals == 0 {
            0.0
        } else {
            misses as f64 / link_intervals as f64
        },
        per_link_misses: rows.iter().map(|r| r.misses).collect(),
        max_interval: rows
            .iter()
            .map(|r| r.max_interval)
            .max()
            .unwrap_or(Duration::ZERO),
        mean_interval: mean_duration(rows.iter().map(|r| r.mean_interval)),
    })
}

fn mean_duration(durations: impl ExactSizeIterator<Item = Duration>) -> Duration {
    let n = durations.len() as u32;
    if n == 0 {
        return Duration::ZERO;
    }
    durations
        .sum::<Duration>()
        .checked_div(n)
        .unwrap_or(Duration::ZERO)
}

/// Runs one real `rtmac-netd` process per link over localhost UDP.
///
/// The harness renders the scenario to a temporary file (so every child
/// parses the exact same text and therefore computes the same scenario
/// digest), pre-assigns one localhost port per link, launches the daemon
/// processes in a full mesh, and reads back each child's `key=value`
/// report file. Every child must match a local sim replica's fingerprint.
/// Whatever happens, the harness waits for every child it launched and
/// removes its temporary directory before returning.
///
/// # Errors
///
/// Returns [`NetError::Config`] for a zero horizon, as a node would,
/// [`NetError::Unsupported`] when the scenario cannot be rendered to a
/// file, [`NetError::Io`] for spawn/port/report-file failures, a report
/// that names another link, or a child that exits unsuccessfully (quoting
/// the last line of its stderr), and [`NetError::Mismatch`] when a
/// child's fingerprint differs from the sim.
///
/// # Panics
///
/// Propagates policy-engine panics from the harness's local sim replica,
/// as in [`rtmac::Network::step`].
pub fn run_emulation_processes(cfg: &NodeConfig, netd: &Path) -> Result<EmulationReport, NetError> {
    // The check each daemon's node would make, before any is launched.
    cfg.check_horizon()?;
    // Canonicalize through the file format once so the harness's own
    // digest-relevant scenario equals the children's parse result.
    let rendered = scenario_file::render(&cfg.scenario)?;
    let sim = sim_trace(&scenario_file::parse(&rendered)?, cfg.intervals)?;

    // One directory per call: two calls in one process must not share,
    // and so delete, each other's files.
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "rtmac-netd-emul-{}-{}",
        std::process::id(),
        CALLS.fetch_add(1, Ordering::SeqCst)
    ));
    std::fs::create_dir_all(&dir)?;
    let rows = run_fleet(cfg, &rendered, netd, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    fold("udp-processes", cfg.intervals, sim, &rows?)
}

/// Launches and waits for the fleet, with its files in `dir`, and returns
/// one row per link.
fn run_fleet(
    cfg: &NodeConfig,
    rendered: &str,
    netd: &Path,
    dir: &Path,
) -> Result<Vec<NodeRow>, NetError> {
    let n = cfg.scenario.links;
    let scenario_path = dir.join("scenario.toml");
    std::fs::write(&scenario_path, rendered)?;
    let report_path = |link: usize| dir.join(format!("report-{link}.txt"));

    // Reserve one OS-assigned port per link, then release the sockets so
    // the children can bind them. The gap is racy in principle; on a box
    // that is not churning ephemeral ports it is reliable, and a lost race
    // fails loudly as a bind error in the child.
    let mut addrs = Vec::with_capacity(n);
    for _ in 0..n {
        let socket = UdpSocket::bind(("127.0.0.1", 0))?;
        addrs.push(socket.local_addr()?);
    }

    let mut children = Vec::with_capacity(n);
    for link in 0..n {
        let peers: Vec<String> = addrs
            .iter()
            .enumerate()
            .filter(|&(peer, _)| peer != link)
            .map(|(_, a)| a.to_string())
            .collect();
        let mut command = Command::new(netd);
        command
            .arg("--scenario")
            .arg(&scenario_path)
            .arg("--link")
            .arg(link.to_string())
            .arg("--bind")
            .arg(addrs[link].to_string())
            .arg("--peers")
            .arg(peers.join(","))
            .arg("--intervals")
            .arg(cfg.intervals.to_string())
            .arg("--timeout-ms")
            .arg(cfg.sync_timeout.as_millis().to_string())
            .arg("--report")
            .arg(report_path(link))
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        if cfg.realtime {
            command.arg("--realtime");
        }
        match command.spawn() {
            Ok(child) => children.push(child),
            Err(e) => {
                // The links already launched would wait out their timeout
                // for a peer that never comes.
                for mut child in children {
                    let _ = child.kill();
                    let _ = child.wait();
                }
                return Err(NetError::Io(format!(
                    "cannot launch {}: {e}",
                    netd.display()
                )));
            }
        }
    }

    // Wait for every child before reading any report, so that no error
    // leaves a daemon running.
    let mut failure = None;
    for (link, child) in children.into_iter().enumerate() {
        let failed = match child.wait_with_output() {
            Ok(output) if output.status.success() => continue,
            Ok(output) => format!(
                "exited with {}: {}",
                output.status,
                last_line(&String::from_utf8_lossy(&output.stderr))
            ),
            Err(e) => format!("could not be waited for: {e}"),
        };
        failure.get_or_insert_with(|| NetError::Io(format!("rtmac-netd for link {link} {failed}")));
    }
    if let Some(err) = failure {
        return Err(err);
    }
    (0..n)
        .map(|link| {
            let text = std::fs::read_to_string(report_path(link))
                .map_err(|e| NetError::Io(format!("no report from link {link}: {e}")))?;
            parse_row(&text)
        })
        .collect()
}

/// The last non-empty line of a child's stderr: its error, without
/// whatever it printed before.
fn last_line(text: &str) -> &str {
    text.lines()
        .map(str::trim)
        .rfind(|line| !line.is_empty())
        .unwrap_or_default()
}

fn parse_row(text: &str) -> Result<NodeRow, NetError> {
    let mut link = None;
    let mut fingerprint = None;
    let mut misses = None;
    let mut max_us = None;
    let mut mean_us = None;
    for line in text.lines() {
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let value = value.trim();
        match key.trim() {
            "link" => link = value.parse::<usize>().ok(),
            "fingerprint" => {
                fingerprint = value
                    .strip_prefix("0x")
                    .and_then(|hex| u64::from_str_radix(hex, 16).ok());
            }
            "misses" => misses = value.parse::<u64>().ok(),
            "max_interval_us" => max_us = value.parse::<u64>().ok(),
            "mean_interval_us" => mean_us = value.parse::<u64>().ok(),
            _ => {}
        }
    }
    match (link, fingerprint, misses, max_us, mean_us) {
        (Some(link), Some(fingerprint), Some(misses), Some(max_us), Some(mean_us)) => Ok(NodeRow {
            link,
            fingerprint,
            misses,
            max_interval: Duration::from_micros(max_us),
            mean_interval: Duration::from_micros(mean_us),
        }),
        _ => Err(NetError::Io(
            "child report file is missing required keys".to_string(),
        )),
    }
}

/// The default location of the `rtmac-netd` binary: next to the current
/// executable (which is where cargo puts workspace binaries).
#[must_use]
pub fn default_netd_path() -> PathBuf {
    let name = if cfg!(windows) {
        "rtmac-netd.exe"
    } else {
        "rtmac-netd"
    };
    std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.join(name)))
        .unwrap_or_else(|| PathBuf::from(name))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtmac::scenario;

    #[test]
    fn udp_emulation_matches_sim() {
        let sc = scenario::by_name("tiny").unwrap();
        let report = run_emulation(&NodeConfig::new(sc.clone(), 20), TransportKind::Udp).unwrap();
        assert_eq!(report.backend, "udp");
        assert_eq!(report.fingerprint, sim_trace(&sc, 20).unwrap().fingerprint);
        assert_eq!(report.per_link_misses.len(), 3);
    }

    #[test]
    fn fold_rejects_a_row_that_names_another_link() {
        let sim = sim_trace(&scenario::by_name("tiny").unwrap(), 5).unwrap();
        let fingerprint = sim.fingerprint;
        let row = |link| NodeRow {
            link,
            fingerprint,
            misses: 0,
            max_interval: Duration::ZERO,
            mean_interval: Duration::ZERO,
        };
        let good = [row(0), row(1), row(2)];
        assert_eq!(fold("t", 5, sim.clone(), &good).unwrap().links, 3);
        for rows in [[row(0), row(99), row(2)], [row(0), row(2), row(1)]] {
            match fold("t", 5, sim.clone(), &rows) {
                Err(NetError::Io(msg)) => assert!(msg.contains("names link"), "{msg}"),
                other => panic!("expected a typed error, got {other:?}"),
            }
        }
        let mut stray = row(1);
        stray.fingerprint ^= 1;
        assert!(matches!(
            fold("t", 5, sim, &[row(0), stray, row(2)]),
            Err(NetError::Mismatch { .. })
        ));
    }

    #[test]
    fn a_failed_child_is_quoted_by_its_last_line() {
        assert_eq!(
            last_line("warming up\nrtmac-netd: boom \n\n"),
            "rtmac-netd: boom"
        );
        assert_eq!(last_line(""), "");
    }

    #[test]
    fn child_report_round_trip_parses() {
        let text =
            "link=4\nfingerprint=0x00ff\nmisses=2\nmax_interval_us=900\nmean_interval_us=120\n";
        let row = parse_row(text).unwrap();
        assert_eq!(row.link, 4);
        assert_eq!(row.fingerprint, 0xff);
        assert_eq!(row.misses, 2);
        assert!(parse_row("link=1\n").is_err());
    }
}
