//! Integration tests for the lint engine and the `rtmac-lint` binary,
//! driven by the known-violation fixture workspace under
//! `tests/fixtures/ws` (excluded from the real lint pass by the
//! top-level `lint.toml`).

use std::path::{Path, PathBuf};
use std::process::Command;

use rtmac_lint::config::Severity;
use rtmac_lint::{lint_workspace_with_config_file, Finding};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws")
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root resolves")
}

fn fixture_findings() -> Vec<Finding> {
    lint_workspace_with_config_file(&fixture_root()).expect("fixture lint runs")
}

/// Every intentional violation is found, with the exact rule id and line,
/// and nothing else is.
#[test]
fn fixture_violations_are_found_exactly() {
    let got: Vec<(String, usize, String)> = fixture_findings()
        .into_iter()
        .map(|f| (f.path, f.line, f.rule))
        .collect();
    let expected: Vec<(String, usize, String)> = [
        // sorted by (path, line, col, rule) — the engine's output order
        ("badcrate/src/lib.rs", 1, "missing-crate-attrs"),
        ("badcrate/src/lib.rs", 1, "missing-crate-attrs"),
        ("src/debug_print.rs", 5, "debug-print"),
        ("src/debug_print.rs", 6, "debug-print"),
        ("src/float_accum.rs", 5, "nondeterministic-iter"),
        ("src/float_accum.rs", 5, "nondeterministic-iter"),
        ("src/float_accum.rs", 7, "nondeterministic-iter"),
        ("src/float_accum.rs", 8, "nondeterministic-iter"),
        ("src/float_accum.rs", 8, "float-accum-unordered"),
        ("src/float_accum.rs", 11, "nondeterministic-iter"),
        ("src/float_accum.rs", 12, "nondeterministic-iter"),
        ("src/float_accum.rs", 14, "float-accum-unordered"),
        ("src/float_accum.rs", 17, "nondeterministic-iter"),
        ("src/float_accum.rs", 18, "nondeterministic-iter"),
        ("src/float_accum.rs", 22, "nondeterministic-iter"),
        ("src/lock_loop.rs", 10, "lock-in-loop-hold"),
        ("src/nanos_arith.rs", 13, "nanos-raw-arith"),
        ("src/nanos_arith.rs", 14, "nanos-raw-arith"),
        ("src/nanos_arith.rs", 15, "nanos-raw-arith"),
        ("src/nondet_iter.rs", 3, "nondeterministic-iter"),
        ("src/nondet_iter.rs", 6, "nondeterministic-iter"),
        ("src/nondet_iter.rs", 7, "nondeterministic-iter"),
        ("src/os_entropy.rs", 5, "os-entropy"),
        ("src/os_entropy.rs", 6, "os-entropy"),
        ("src/panics.rs", 5, "panic-unwrap"),
        ("src/panics.rs", 6, "panic-expect"),
        ("src/panics.rs", 8, "panic-macro"),
        ("src/relaxed_ordering.rs", 7, "relaxed-ordering-audit"),
        ("src/unchecked_arith.rs", 10, "unchecked-arith"),
        ("src/unchecked_arith.rs", 11, "unchecked-arith"),
        ("src/unchecked_arith.rs", 12, "unchecked-arith"),
        ("src/unchecked_arith.rs", 13, "unchecked-arith"),
        ("src/waiver_problems.rs", 5, "waiver-missing-reason"),
        ("src/waiver_problems.rs", 8, "stale-waiver"),
        ("src/wall_clock.rs", 5, "wall-clock"),
        ("src/wall_clock.rs", 6, "wall-clock"),
    ]
    .iter()
    .map(|(p, l, r)| ((*p).to_string(), *l, (*r).to_string()))
    .collect();
    assert_eq!(got, expected);
}

/// Findings carry the configured severities: everything deny except the
/// stale waiver report (warn by default).
#[test]
fn fixture_severities_match_catalog_defaults() {
    for f in fixture_findings() {
        let want = if f.rule == "stale-waiver" {
            Severity::Warn
        } else {
            Severity::Deny
        };
        assert_eq!(f.severity, want, "severity of {f}");
    }
}

/// Inline waivers with reasons fully suppress their findings: the waived
/// fixture files produce nothing — no original finding, no bookkeeping.
#[test]
fn waivers_and_excludes_suppress_everything() {
    for f in fixture_findings() {
        assert!(
            !f.path.starts_with("src/waived.rs")
                && !f.path.starts_with("src/config_waived.rs")
                && !f.path.starts_with("src/clean.rs")
                && !f.path.starts_with("excluded/")
                && !f.path.starts_with("goodcrate/"),
            "unexpected finding {f}"
        );
    }
}

/// Columns point at the offending token (spot checks).
#[test]
fn fixture_columns_point_at_tokens() {
    let findings = fixture_findings();
    let unwrap = findings
        .iter()
        .find(|f| f.path == "src/panics.rs" && f.rule == "panic-unwrap")
        .expect("unwrap finding present");
    // `    let a = x.unwrap();` — `unwrap` starts at column 15.
    assert_eq!((unwrap.line, unwrap.col), (5, 15));
    let clock = findings
        .iter()
        .find(|f| f.path == "src/wall_clock.rs" && f.line == 5)
        .expect("Instant finding present");
    // `    let _t = std::time::Instant::now();` — `Instant` at column 25.
    assert_eq!(clock.col, 25);
}

/// The syntactic rules report exact (line, col) anchors: the arithmetic
/// operator, the accumulation method, and the path-call head token.
#[test]
fn syntactic_rule_columns_point_at_tokens() {
    let findings = fixture_findings();
    let at = |path: &str, rule: &str| -> Vec<(usize, usize)> {
        findings
            .iter()
            .filter(|f| f.path == path && f.rule == rule)
            .map(|f| (f.line, f.col))
            .collect()
    };
    // `    l.interval += 1;` — `+=` at col 16; `1 + l.interval` — `+` at 19.
    assert_eq!(
        at("src/unchecked_arith.rs", "unchecked-arith"),
        [(10, 16), (11, 29), (12, 41), (13, 19)]
    );
    // `    m.values().sum::<f64>()` — `sum` at col 16; `.fold(` at col 10.
    assert_eq!(
        at("src/float_accum.rs", "float-accum-unordered"),
        [(8, 16), (14, 10)]
    );
    // `.as_nanos() - ` — `-` at col 38; `*` at 22; `+=` at 12 (the deref
    // `*` on line 15 is not a binary operator and must not anchor).
    assert_eq!(
        at("src/nanos_arith.rs", "nanos-raw-arith"),
        [(13, 38), (14, 22), (15, 12)]
    );
    // The concurrency rules anchor the `Relaxed` ident and the inner
    // `.lock()` of the deadlock shape respectively.
    assert_eq!(
        at("src/relaxed_ordering.rs", "relaxed-ordering-audit"),
        [(7, 36)]
    );
    assert_eq!(at("src/lock_loop.rs", "lock-in-loop-hold"), [(10, 31)]);
}

fn run_binary(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_rtmac-lint"))
        .args(args)
        .output()
        .expect("binary runs")
}

/// The binary exits 1 on the fixture tree and prints rustc-style lines.
#[test]
fn binary_reports_fixture_violations_with_exit_one() {
    let root = fixture_root();
    let out = run_binary(&["--workspace", "--root", root.to_str().expect("utf-8 path")]);
    assert_eq!(out.status.code(), Some(1), "exit code");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    for needle in [
        "src/panics.rs:5:15: panic-unwrap: bare `.unwrap()`",
        "src/panics.rs:6:15: panic-expect: bare `.expect()`",
        "src/panics.rs:8:9: panic-macro: `panic!` invocation",
        "src/wall_clock.rs:5:25: wall-clock: use of `Instant`",
        "src/wall_clock.rs:6:25: wall-clock: use of `SystemTime`",
        "src/os_entropy.rs:5:22: os-entropy: use of `thread_rng`",
        "src/debug_print.rs:5:5: debug-print: `println!` invocation",
        "src/waiver_problems.rs:5:1: waiver-missing-reason",
        "src/waiver_problems.rs:8:1: stale-waiver (warn)",
        "badcrate/src/lib.rs:1:1: missing-crate-attrs",
        "src/unchecked_arith.rs:10:16: unchecked-arith: unchecked `+=` on counter field `interval`",
        "src/nanos_arith.rs:13:38: nanos-raw-arith: raw `-` on the output of `.as_nanos()`",
        "src/float_accum.rs:8:16: float-accum-unordered: float accumulation `.sum(..)`",
        "src/relaxed_ordering.rs:7:36: relaxed-ordering-audit: `Ordering::Relaxed` without an audited waiver",
        "src/lock_loop.rs:10:31: lock-in-loop-hold: indexed `.lock()` inside a `for` body while the indexed guard bound on line 8 is still live",
    ] {
        assert!(
            stdout.contains(needle),
            "stdout missing {needle:?}:\n{stdout}"
        );
    }
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(
        stderr.contains("35 error(s), 1 warning(s)"),
        "summary line: {stderr}"
    );
}

/// `--format json` emits a machine-readable array with the same findings
/// and the same exit code; `"` and `\` in messages are escaped.
#[test]
fn binary_json_format_reports_findings() {
    let root = fixture_root();
    let out = run_binary(&[
        "--workspace",
        "--root",
        root.to_str().expect("utf-8 path"),
        "--format",
        "json",
    ]);
    assert_eq!(out.status.code(), Some(1), "exit code");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert!(stdout.trim_start().starts_with('['), "JSON array: {stdout}");
    assert!(stdout.trim_end().ends_with(']'), "JSON array: {stdout}");
    for needle in [
        r#""path": "src/panics.rs", "line": 5, "col": 15, "rule": "panic-unwrap""#,
        r#""severity": "warn""#,
        r#""rule": "unchecked-arith""#,
        // Backticks survive; embedded quotes never appear unescaped.
        r#""message": "bare `.unwrap()`"#,
    ] {
        assert!(
            stdout.contains(needle),
            "json missing {needle:?}:\n{stdout}"
        );
    }
    // No rustc-style text lines mixed into the JSON stream.
    assert!(
        !stdout.contains("src/panics.rs:5:15:"),
        "text output leaked into JSON mode:\n{stdout}"
    );
    // Every finding made it across (35 errors + 1 warning).
    assert_eq!(stdout.matches("\"path\"").count(), 36);
}

/// `--format sarif` emits a SARIF 2.1.0 log with one result per finding
/// and the deny/warn severities mapped to SARIF levels.
#[test]
fn binary_sarif_format_reports_findings() {
    let root = fixture_root();
    let out = run_binary(&[
        "--workspace",
        "--root",
        root.to_str().expect("utf-8 path"),
        "--format",
        "sarif",
    ]);
    assert_eq!(out.status.code(), Some(1), "exit code");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    for needle in [
        r#""version": "2.1.0""#,
        r#""name": "rtmac-lint""#,
        // A rule descriptor and a concrete result with its position.
        r#""id": "panic-unwrap""#,
        r#""uri": "src/panics.rs""#,
        r#""startLine": 5"#,
        r#""level": "warning""#,
    ] {
        assert!(
            stdout.contains(needle),
            "sarif missing {needle:?}:\n{stdout}"
        );
    }
    // One result per finding (35 errors + 1 warning).
    assert_eq!(stdout.matches("\"ruleId\"").count(), 36);
    // No rustc-style text lines mixed into the SARIF stream.
    assert!(
        !stdout.contains("src/panics.rs:5:15:"),
        "text output leaked into SARIF mode:\n{stdout}"
    );
}

/// The real workspace is lint-clean: the binary exits 0 from the repo
/// root, which is exactly the CI gate.
#[test]
fn binary_exits_zero_on_the_real_workspace() {
    let root = repo_root();
    let out = run_binary(&["--workspace", "--root", root.to_str().expect("utf-8 path")]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "workspace not clean:\n{stdout}");
}

/// `--explain` documents every rule; unknown rules are a usage error.
#[test]
fn binary_explain_and_usage_errors() {
    let out = run_binary(&["--explain", "panic-unwrap"]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert!(text.contains("panic-unwrap") && text.contains("invariant"));

    let bad = run_binary(&["--explain", "no-such-rule"]);
    assert_eq!(bad.status.code(), Some(2), "usage errors exit 2");

    let noargs = run_binary(&[]);
    assert_eq!(noargs.status.code(), Some(2), "no mode selected exits 2");
}
