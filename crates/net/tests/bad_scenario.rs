//! `rtmac-netd`'s usage and configuration errors exit 2, the usage bucket
//! of its exit-code table, in debug and release builds alike: a scenario
//! file whose values parse but cannot be simulated or run, a scenario file
//! that cannot be read, and bad or missing flags. Only a bare invocation
//! prints the usage text, and a flag error reads as a usage error, not as
//! a scenario error. A zero horizon fails both emulation harnesses at once
//! with the daemon's one-line error.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use rtmac_net::{run_emulation, run_emulation_processes, NetError, NodeConfig, TransportKind};

fn netd(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rtmac-netd"))
        .args(args)
        .output()
        .expect("the rtmac-netd binary runs")
}

/// Writes `links` links of the `tiny` scenario to a file, with the line of
/// `key` replaced by `line`.
fn scenario_file(links: usize, key: &str, line: &str) -> PathBuf {
    let sc = rtmac::scenario::by_name("tiny").unwrap().with_links(links);
    let text: String = rtmac_net::scenario_file::render(&sc)
        .unwrap()
        .lines()
        .map(|l| {
            if l.starts_with(key) {
                format!("{line}\n")
            } else {
                format!("{l}\n")
            }
        })
        .collect();
    let path = std::env::temp_dir().join(format!("rtmac-bad-{key}-{}.scn", std::process::id()));
    std::fs::write(&path, text).unwrap();
    path
}

#[test]
fn sub_slot_deadline_file_exits_with_the_config_code() {
    let path = scenario_file(1, "deadline_us", "deadline_us = 8");
    let out = netd(&[
        "--scenario",
        path.to_str().unwrap(),
        "--link",
        "0",
        "--bind",
        "127.0.0.1:0",
        "--peers",
        "",
    ]);
    let _ = std::fs::remove_file(&path);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("backoff slot"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

/// A file with `intervals = 0` and no `--intervals` flag: the daemon exits
/// at once instead of waiting out its timeout for a peer that is not there.
#[test]
fn zero_horizon_file_exits_with_the_config_code() {
    let path = scenario_file(2, "intervals", "intervals = 0");
    let out = netd(&[
        "--scenario",
        path.to_str().unwrap(),
        "--link",
        "0",
        "--bind",
        "127.0.0.1:0",
        "--peers",
        "127.0.0.1:9",
        "--timeout-ms",
        "5000",
    ]);
    let _ = std::fs::remove_file(&path);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("at least 1 interval"), "stderr: {stderr}");
}

#[test]
fn usage_and_config_errors_exit_with_the_config_code() {
    let placed = ["--link", "0", "--bind", "127.0.0.1:0", "--peers", ""];
    let missing_file = [&["--scenario", "/no/such/scenario.scn"][..], &placed].concat();
    let zero_intervals = [&["--scenario", "tiny", "--intervals", "0"][..], &placed].concat();
    let cases: [(&str, &[&str], &str); 4] = [
        ("no arguments", &[], "USAGE"),
        ("an unknown flag", &["--frobnicate"], "unknown flag"),
        ("a missing scenario file", &missing_file, "readable file"),
        ("--intervals 0", &zero_intervals, "at least 1"),
    ];
    for (what, args, says) in cases {
        let out = netd(args);
        let text = format!(
            "{}{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(out.status.code(), Some(2), "{what}: {text}");
        assert!(text.contains(says), "{what}: {text}");
        // An error names itself and points at --help instead.
        assert_eq!(text.contains("USAGE"), args.is_empty(), "{what}: {text}");
    }
}

#[test]
fn a_flag_error_is_reported_as_itself() {
    let out = netd(&["--frobnicate"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert_eq!(
        stderr.lines().next(),
        Some("rtmac-netd: unknown flag `--frobnicate`")
    );
}

#[test]
fn zero_horizon_fails_both_harnesses_with_one_line() {
    let cfg = NodeConfig::new(rtmac::scenario::by_name("tiny").unwrap(), 0);
    let daemon = Path::new(env!("CARGO_BIN_EXE_rtmac-netd"));
    for err in [
        run_emulation(&cfg, TransportKind::Loopback).unwrap_err(),
        run_emulation_processes(&cfg, daemon).unwrap_err(),
    ] {
        assert!(
            matches!(err, NetError::Config(ref m) if m.contains("at least 1 interval")),
            "{err}"
        );
        assert_eq!(err.to_string().lines().count(), 1, "{err}");
    }
}
