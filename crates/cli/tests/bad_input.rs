//! External input never panics the CLI: deadlines below one backoff slot,
//! deadlines whose time arithmetic overflows, empty networks, sweeps with
//! more points than memory can hold and invalid traffic parameters end in
//! a one-line `error:` that names the problem and exit code 1, in debug
//! and release builds alike.

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
