//! `rtmac-netd`'s usage and configuration errors exit 2, the usage bucket
//! of its exit-code table, in debug and release builds alike: a scenario
//! file whose values parse but cannot be simulated, a scenario file that
//! cannot be read, and bad or missing flags.

use std::process::{Command, Output};

fn netd(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rtmac-netd"))
        .args(args)
        .output()
        .expect("the rtmac-netd binary runs")
}

#[test]
fn sub_slot_deadline_file_exits_with_the_config_code() {
    let sc = rtmac::scenario::by_name("tiny").unwrap().with_links(1);
    let text: String = rtmac_net::scenario_file::render(&sc)
        .unwrap()
        .lines()
        .map(|l| {
            if l.starts_with("deadline_us") {
                "deadline_us = 8\n".to_string()
            } else {
                format!("{l}\n")
            }
        })
        .collect();
    let path = std::env::temp_dir().join(format!("rtmac-bad-deadline-{}.scn", std::process::id()));
    std::fs::write(&path, text).unwrap();
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
    }
}
