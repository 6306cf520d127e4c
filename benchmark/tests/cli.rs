//! What the binary promises: smoke mode passes every check on every workload,
//! its JSON lines round-trip through `--check`, and `BENCHMARK.json`
//! declares exactly the workloads and metrics the code reports.

use std::path::{Path, PathBuf};
use std::process::Command;

use rtmac_benchmark::json::{self, Json};
use rtmac_benchmark::output;
use rtmac_benchmark::workloads::{self, RunConfig, WORKLOADS};

fn bench() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rtmac-benchmark"))
}

fn tmp(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(name)
}

#[test]
fn smoke_runs_every_workload_with_every_check() {
    let out = bench().arg("--smoke").output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for w in &WORKLOADS {
        for trace in [0, 1] {
            assert!(
                stdout.contains(&format!("{:<17} {:<6} ok", w.name, trace)),
                "{} trace={trace} missing from\n{stdout}",
                w.name
            );
        }
    }
}

#[test]
fn a_single_run_ends_with_the_result_line() {
    let out = bench()
        .args(["--workload", "video20", "--smoke", "--seed", "5"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = json::parse(stdout.lines().last().unwrap()).unwrap();
    let Json::Obj(fields) = &last else {
        panic!("not an object: {last:?}")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(last.get("correct"), Some(&Json::Bool(true)));
    let metrics = last.get("metrics").unwrap();
    // At 1/100 length a chunk is too short for a p99; every other
    // end-to-end metric is there, with its unit.
    for (name, unit) in workloads::END_TO_END {
        if name == "interval_p99_us" {
            continue;
        }
        let m = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{name} missing"));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit));
    }
}

#[test]
fn result_records_round_trip_through_check() {
    let w = workloads::by_name("fig9-sweep").unwrap();
    let cfg = RunConfig {
        seed: 11,
        seconds: 1.0,
        trace: false,
        smoke: true,
    };
    let result = workloads::run(w, &cfg).unwrap();
    assert_eq!((result.attempted, result.failed), (81, 0));
    let record = output::record_line(w, &cfg, &result).unwrap();
    let good = tmp("records.jsonl");
    std::fs::write(&good, format!("{record}\n{record}\n")).unwrap();
    let out = bench().arg("--check").arg(&good).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Not canonical (a space), not JSON, or missing a field: refused.
    for (i, bad) in [
        record.replacen(':', ": ", 1),
        record[..record.len() - 1].to_string(),
        record.replace("\"nproc\"", "\"cores\""),
    ]
    .iter()
    .enumerate()
    {
        let path = tmp(&format!("bad-{i}.jsonl"));
        std::fs::write(&path, format!("{bad}\n")).unwrap();
        let out = bench().arg("--check").arg(&path).output().unwrap();
        assert!(!out.status.success(), "accepted {bad}");
    }
}

#[test]
fn the_tracked_history_is_valid() {
    let n = output::check_file(Path::new(output::HISTORY)).unwrap();
    assert!(n >= 2, "the history holds the baseline runs");
}

#[test]
fn bad_arguments_exit_with_usage() {
    for args in [
        &["--workload", "nope"][..],
        &["--trace", "2"],
        &["--seconds", "-1"],
        &["--frobnicate"],
        &["--seed"],
    ] {
        let out = bench().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}

#[test]
fn benchmark_json_declares_what_the_code_reports() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let names = |key: &str| -> Vec<(String, Option<String>)> {
        let Some(Json::Arr(items)) = spec.get(key) else {
            panic!("{key} is not a list")
        };
        items
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Json::as_str).unwrap().to_string(),
                    m.get("unit").and_then(Json::as_str).map(str::to_string),
                )
            })
            .collect()
    };
    let declared = |list: &[(&str, &str)]| -> Vec<(String, Option<String>)> {
        list.iter()
            .map(|(n, u)| ((*n).to_string(), Some((*u).to_string())))
            .collect()
    };
    assert_eq!(names("end_to_end"), declared(&workloads::END_TO_END));
    assert_eq!(names("per_layer"), declared(&workloads::PER_LAYER));
    let wanted: Vec<(String, Option<String>)> = WORKLOADS
        .iter()
        .map(|w| (w.name.to_string(), None))
        .collect();
    assert_eq!(names("workloads"), wanted);
}
