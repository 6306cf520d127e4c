//! The `rtmac` binary's stdout for a fixed set of command lines, pinned by
//! FNV-1a hash. The lines cover a named and a flag-built `run`, `compare`,
//! two sweeps whose axis rewrites the traffic (a kind change, and a
//! per-link α flattened to one value), one of them again with a progress
//! line, `timeline`, and an admission-gated robustness run. A change to
//! how the CLI spells, sweeps or lists the scenario vocabulary that alters
//! what any of them prints fails here.

use std::process::Command;

use rtmac_net::{fnv1a, FNV_OFFSET};

/// The pinned control10 sweep with `--progress`: stdout is the plain
/// sweep's table, and stderr's last drawn line shows 9/9 and ends in a
/// newline, although workers report their counts in any order.
const PROGRESS_SWEEP: &str = "sweep --scenario control10 --param alpha --from 0.3 --to 0.5 \
                              --steps 3 --intervals 100 --progress";

const PINS: [(&str, u64); 8] = [
    (
        "run --scenario video20 --intervals 200",
        0x570C_3E05_D8ED_1598,
    ),
    (
        "run --links 8 --arrivals bernoulli:0.6 --p 0.8 --ratio 0.9 --policy frame-csma \
         --intervals 300 --seed 3",
        0x10C4_5F60_E35F_D01E,
    ),
    (
        "compare --scenario control10 --intervals 300",
        0x86E0_D0B1_D009_EF02,
    ),
    (
        "sweep --scenario control10 --param alpha --from 0.3 --to 0.5 --steps 3 --intervals 100",
        0xB6F7_69C1_5E99_C674,
    ),
    (PROGRESS_SWEEP, 0xB6F7_69C1_5E99_C674),
    (
        "sweep --scenario asym --param alpha --from 0.2 --to 0.4 --steps 2 --intervals 100",
        0x9574_A10E_6969_9B4B,
    ),
    (
        "timeline --links 4 --arrivals constant --intervals 2",
        0x28F2_6F54_4609_6BBD,
    ),
    (
        "run --scenario overload-admission --intervals 300",
        0x4271_5FD5_8D3A_6602,
    ),
];

/// The FNV-1a hash of `rtmac <args>`'s stdout, its stdout and its stderr.
fn run(args: &str) -> (u64, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_rtmac"))
        .args(args.split_whitespace())
        .output()
        .expect("the rtmac binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(out.status.success(), "{args}: {stderr}");
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    (fnv1a(FNV_OFFSET, &out.stdout), text, stderr)
}

#[test]
fn stdout_of_the_pinned_command_lines() {
    let mut wrong = Vec::new();
    for (args, want) in PINS {
        let (got, text, stderr) = run(args);
        if got != want {
            wrong.push(format!("`{args}` printed {got:#018x}:\n{text}"));
        }
        let last_drawn = stderr.rsplit('\r').next().unwrap_or_default();
        if args == PROGRESS_SWEEP && !(last_drawn.contains("9/9") && stderr.ends_with('\n')) {
            wrong.push(format!("`{args}` left a stale progress line: {stderr:?}"));
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}
