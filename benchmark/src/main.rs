//! `rtmac-benchmark` — runs one workload, or every workload in its own
//! process, and prints every metric by name with its unit.
//!
//! ```text
//! rtmac-benchmark [--workload NAME|all] [--seed S] [--seconds T] [--trace 0|1]
//!                 [--record] [--smoke]
//! rtmac-benchmark --check FILE
//! ```
//!
//! One workload runs in this process and ends with a one-line JSON result
//! (`correct`, `attempted`, `failed`, `metrics`). Without `--workload` (or
//! with `all`) each workload runs in a child process. `--smoke` runs at
//! 1/100 length with every check on (without `--workload`: all five, each
//! untraced and traced). `--record` appends the result to
//! `benchmark/results/BENCH_e2e.jsonl`; `--check FILE` validates a result
//! history or trace file.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::Path;
use std::process::{Command, ExitCode};

use rtmac_benchmark::json;
use rtmac_benchmark::output::{self, check_file, trace_path};
use rtmac_benchmark::workloads::{self, RunConfig, Workload, WORKLOADS};

const USAGE: &str = "usage: rtmac-benchmark [--workload NAME|all] [--seed S] [--seconds T] \
                     [--trace 0|1] [--record] [--smoke]\n       rtmac-benchmark --check FILE";

struct Args {
    workload: Option<String>,
    cfg: RunConfig,
    record: bool,
    check: Option<String>,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        cfg: RunConfig {
            seed: 2018,
            seconds: 15.0,
            trace: false,
            smoke: false,
        },
        record: false,
        check: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.cfg.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "bad --seconds")?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                args.cfg.seconds = s;
            }
            "--trace" => {
                args.cfg.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--record" => args.record = true,
            "--smoke" => args.cfg.smoke = true,
            "--check" => args.check = Some(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &args.check {
        return match check_file(Path::new(path)) {
            Ok(n) => {
                println!("{path}: {n} valid line(s)");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match args.workload.as_deref() {
        None | Some("all") => run_children(&args),
        Some(name) => match workloads::by_name(name) {
            Some(w) => run_one(w, &args),
            None => {
                let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                eprintln!("error: unknown workload `{name}` ({})", names.join(", "));
                ExitCode::from(2)
            }
        },
    }
}

fn run_one(w: &Workload, args: &Args) -> ExitCode {
    let cfg = &args.cfg;
    let result = match workloads::run(w, cfg) {
        Ok(result) => result,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", output::human(w, cfg, &result));
    let missing = output::missing(cfg, &result);
    if !cfg.smoke && !missing.is_empty() {
        eprintln!(
            "error: too few samples for {} — lengthen the run",
            missing.join(", ")
        );
        return ExitCode::FAILURE;
    }
    let lines = output::record_line(w, cfg, &result).and_then(|record| {
        if cfg.trace {
            output::append_line(&trace_path(w, cfg), &record)?;
        }
        if args.record {
            output::append_line(Path::new(output::HISTORY), &record)?;
        }
        output::result_line(cfg, &result)
    });
    match lines {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs each workload (with `--smoke`, each untraced and traced) in its
/// own process, one after another, and summarizes their verdicts.
fn run_children(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let traces: &[bool] = if args.cfg.smoke {
        &[false, true]
    } else {
        std::slice::from_ref(&args.cfg.trace)
    };
    let mut ok = true;
    let mut summary = String::from("# workload        trace  verdict\n");
    for w in &WORKLOADS {
        for &trace in traces {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name])
                .args(["--seed", &args.cfg.seed.to_string()])
                .args(["--seconds", &args.cfg.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }]);
            if args.cfg.smoke {
                cmd.arg("--smoke");
            }
            if args.record {
                cmd.arg("--record");
            }
            let verdict = match cmd.output() {
                Err(e) => Err(format!("cannot start: {e}")),
                Ok(out) => {
                    let stdout = String::from_utf8_lossy(&out.stdout);
                    print!("{stdout}");
                    child_verdict(&stdout, out.status.success()).and_then(|()| {
                        let cfg = RunConfig { trace, ..args.cfg };
                        if trace {
                            check_file(&trace_path(w, &cfg)).map(|_| ())
                        } else {
                            Ok(())
                        }
                    })
                }
            };
            ok &= verdict.is_ok();
            summary.push_str(&format!(
                "{:<17} {:<6} {}\n",
                w.name,
                u8::from(trace),
                verdict.map_or_else(|e| format!("FAILED: {e}"), |()| "ok".to_string())
            ));
        }
    }
    print!("{summary}");
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn child_verdict(stdout: &str, exited_ok: bool) -> Result<(), String> {
    if !exited_ok {
        return Err("exited with an error".into());
    }
    let last = stdout.lines().last().unwrap_or("");
    let result = json::parse(last).map_err(|e| format!("unreadable result line: {e}"))?;
    let correct = matches!(result.get("correct"), Some(json::Json::Bool(true)));
    let failed = result.get("failed").and_then(json::Json::as_f64);
    if correct && failed == Some(0.0) {
        Ok(())
    } else {
        Err(format!("checks failed: {last}"))
    }
}
