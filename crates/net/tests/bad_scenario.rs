//! A scenario file whose values parse but cannot be simulated is a
//! configuration error: `rtmac-netd` reports it and exits 2 (the usage
//! bucket of its exit-code table), in debug and release builds alike.

use std::process::Command;

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
    let out = Command::new(env!("CARGO_BIN_EXE_rtmac-netd"))
        .args(["--scenario", path.to_str().unwrap()])
        .args(["--link", "0", "--bind", "127.0.0.1:0", "--peers", ""])
        .output()
        .expect("the rtmac-netd binary runs");
    let _ = std::fs::remove_file(&path);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("backoff slot"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}
