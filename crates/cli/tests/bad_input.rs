//! External input never panics the CLI: deadlines below one backoff slot,
//! deadlines whose time arithmetic overflows, empty networks, sweeps with
//! more points than memory can hold and invalid traffic parameters end in
//! a one-line `error:` that names the problem and exit code 1, in debug
//! and release builds alike. A deployment error is printed once, with its
//! own prefix, and an unwritable `--report` path fails before anything is
//! launched. The pointer to `rtmac help` follows only errors that the
//! command line caused.

use std::process::Command;

fn rtmac(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_rtmac"))
        .args(args)
        .output()
        .expect("the rtmac binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// A `control10` λ sweep with `steps` points.
fn sweep_steps(steps: &str) -> [&str; 11] {
    [
        "sweep",
        "--scenario",
        "control10",
        "--param",
        "lambda",
        "--from",
        "0.5",
        "--to",
        "0.9",
        "--steps",
        steps,
    ]
}

#[test]
fn out_of_range_inputs_are_errors_not_panics() {
    for (args, mentions) in [
        (&["run", "--deadline-us", "8"][..], "backoff slot"),
        (
            &["run", "--deadline-ms", "18446744073709552"],
            "--deadline-ms",
        ),
        (
            &["run", "--deadline-ms", "18446744073709551"],
            "deadline_us",
        ),
        (&["timeline", "--deadline-us", "8"], "backoff slot"),
        (
            &["timeline", "--deadline-us", "18446744073709552"],
            "deadline_us",
        ),
        (&["timeline", "--links", "0"], "at least one link"),
        (&sweep_steps("18446744073709551615")[..], "--steps"),
        (&sweep_steps("6148914691236517206")[..], "--steps"),
        (&["run", "--arrivals", "burst:1.5"], "arrival rate"),
    ] {
        let (code, stderr) = rtmac(args);
        assert_eq!(code, Some(1), "{args:?} must exit 1, stderr: {stderr}");
        let first = stderr.lines().next().unwrap_or_default();
        assert!(
            first.starts_with("error:") && first.contains(mentions),
            "{args:?}: expected a one-line error naming {mentions:?}, got {stderr:?}"
        );
        assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
    }
}

#[test]
fn emulate_prints_a_deployment_error_once() {
    let sc = rtmac::scenario::by_name("tiny").unwrap();
    let text: String = rtmac_net::scenario_file::render(&sc)
        .unwrap()
        .lines()
        .map(|l| {
            if l.starts_with("intervals") {
                "intervals = 0\n".to_string()
            } else {
                format!("{l}\n")
            }
        })
        .collect();
    let path = std::env::temp_dir().join(format!("rtmac-zero-horizon-{}.scn", std::process::id()));
    std::fs::write(&path, text).unwrap();
    let file = path.to_str().unwrap();
    let threads = rtmac(&["emulate", "--scenario", file]);
    let processes = rtmac(&["emulate", "--scenario", file, "--processes"]);
    let _ = std::fs::remove_file(&path);
    for (code, stderr) in [threads, processes] {
        assert_eq!(code, Some(1), "stderr: {stderr}");
        assert_eq!(
            stderr.lines().next(),
            Some("error: invalid scenario: a deployment must run at least 1 interval")
        );
    }
}

#[test]
fn emulate_checks_its_report_path_before_launching() {
    // The launch would fail too; the report path is tried first.
    let (code, stderr) = rtmac(&[
        "emulate",
        "--scenario",
        "tiny",
        "--intervals",
        "5",
        "--processes",
        "--netd",
        "/nonexistent/rtmac-netd",
        "--report",
        "/no/such/dir/r.txt",
    ]);
    assert_eq!(code, Some(1), "stderr: {stderr}");
    let lines: Vec<&str> = stderr.lines().collect();
    let [only] = lines[..] else {
        panic!("expected one line, with no usage pointer, got {stderr:?}");
    };
    assert!(
        only.starts_with("error: cannot write report /no/such/dir/r.txt: "),
        "expected the report error, got {stderr:?}"
    );
}

#[test]
fn a_command_line_error_ends_with_the_usage_pointer() {
    let (code, stderr) = rtmac(&["run", "--no-such-flag"]);
    assert_eq!(code, Some(1), "stderr: {stderr}");
    let lines: Vec<&str> = stderr.lines().collect();
    assert_eq!(
        lines,
        [
            "error: unknown flag `--no-such-flag`",
            "run `rtmac help` for usage"
        ]
    );
}
