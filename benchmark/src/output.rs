//! What a run prints and stores: the human-readable metric lines, the
//! one-line JSON result, the appended history record, the trace file, and
//! the `--check` validator for all of them.

use std::io::Write as _;
use std::path::PathBuf;

use crate::json::{self, Json};
use crate::trace::Recorder;
use crate::workloads::{Metric, RunConfig, RunResult, Workload, END_TO_END, PER_LAYER};

/// The tracked history of recorded runs.
pub const HISTORY: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/results/BENCH_e2e.jsonl");

/// The rustc that built the benchmark.
pub const RUSTC: &str = env!("RTMAC_BENCH_RUSTC");

/// Where a traced run writes its spans.
#[must_use]
pub fn trace_path(w: &Workload, cfg: &RunConfig) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("trace")
        .join(format!("{}-{}.jsonl", w.name, cfg.seed))
}

/// Writes the recorder's spans and totals, replacing any earlier trace of
/// the same workload and seed.
///
/// # Errors
///
/// Returns a message for a file-system failure.
pub fn write_spans(w: &Workload, cfg: &RunConfig, recorder: &Recorder) -> Result<(), String> {
    let path = trace_path(w, cfg);
    let text = recorder.to_json_lines()?;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The metric set a run reports: end-to-end untraced, per-layer traced.
#[must_use]
pub fn declared(cfg: &RunConfig) -> &'static [(&'static str, &'static str)] {
    if cfg.trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// Whether the run passed every check.
#[must_use]
pub fn correct(result: &RunResult) -> bool {
    result.attempted > 0 && result.failed == 0
}

fn metric_json(m: &Metric, detailed: bool) -> Option<(String, Json)> {
    let s = m.summary?;
    let mut fields = vec![("value", Json::Num(s.value)), ("unit", Json::str(m.unit))];
    if detailed {
        fields.push(("samples", Json::Num(s.samples as f64)));
        fields.push(("iqr", Json::Num(s.iqr_share)));
    }
    Some((m.name.to_string(), Json::obj(fields)))
}

fn metrics_obj(metrics: &[Metric], detailed: bool) -> Json {
    Json::Obj(
        metrics
            .iter()
            .filter_map(|m| metric_json(m, detailed))
            .collect(),
    )
}

/// Declared metrics the run could not support (refused percentiles).
#[must_use]
pub fn missing(cfg: &RunConfig, result: &RunResult) -> Vec<&'static str> {
    result
        .samples
        .select(declared(cfg))
        .iter()
        .filter(|m| m.summary.is_none())
        .map(|m| m.name)
        .collect()
}

/// The final stdout line: correctness, operation counts, and every
/// declared metric's value and unit.
///
/// # Errors
///
/// Returns a message for a non-finite metric value.
pub fn result_line(cfg: &RunConfig, result: &RunResult) -> Result<String, String> {
    Json::obj([
        ("correct", Json::Bool(correct(result))),
        ("attempted", Json::Num(result.attempted as f64)),
        ("failed", Json::Num(result.failed as f64)),
        (
            "metrics",
            metrics_obj(&result.samples.select(declared(cfg)), false),
        ),
    ])
    .render()
}

/// The history record of a run: the result plus its host, build, and the
/// workload-specific metrics.
///
/// # Errors
///
/// Returns a message for a non-finite metric value.
pub fn record_line(w: &Workload, cfg: &RunConfig, result: &RunResult) -> Result<String, String> {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    Json::obj([
        ("kind", Json::str("run")),
        ("workload", Json::str(w.name)),
        ("seed", Json::Num(cfg.seed as f64)),
        ("seconds", Json::Num(cfg.seconds)),
        ("trace", Json::Bool(cfg.trace)),
        ("smoke", Json::Bool(cfg.smoke)),
        ("unix_time", Json::Num(crate::clock::unix_seconds() as f64)),
        ("nproc", Json::Num(nproc as f64)),
        ("cpu", Json::str(cpu_model())),
        ("rustc", Json::str(RUSTC)),
        ("correct", Json::Bool(correct(result))),
        ("attempted", Json::Num(result.attempted as f64)),
        ("failed", Json::Num(result.failed as f64)),
        (
            "failures",
            Json::Arr(result.failures.iter().map(Json::str).collect()),
        ),
        (
            "metrics",
            metrics_obj(&result.samples.select(declared(cfg)), true),
        ),
        (
            "extras",
            metrics_obj(&result.samples.others(declared(cfg)), true),
        ),
    ])
    .render()
}

/// Appends `line` to `path`, creating it (and its directory) if needed.
///
/// # Errors
///
/// Returns a message for a file-system failure.
pub fn append_line(path: &std::path::Path, line: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    writeln!(file, "{line}").map_err(|e| format!("{}: {e}", path.display()))
}

/// The host's CPU model, from `/proc/cpuinfo`.
#[must_use]
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// One line per metric: name, median, unit, sample count and spread.
#[must_use]
pub fn human(w: &Workload, cfg: &RunConfig, result: &RunResult) -> String {
    let mut out = format!(
        "# {} seed={} trace={} ops={} failed={}\n",
        w.name,
        cfg.seed,
        u8::from(cfg.trace),
        result.attempted,
        result.failed
    );
    for why in &result.failures {
        out.push_str(&format!("#   failure: {why}\n"));
    }
    let row = |m: &Metric, extra: bool| match m.summary {
        Some(s) => format!(
            "{:<38} {:>14.6} {:<10} n={:<4} iqr={:.2}%{}\n",
            m.name,
            s.value,
            m.unit,
            s.samples,
            s.iqr_share * 100.0,
            if extra { "  (workload-specific)" } else { "" }
        ),
        None => format!(
            "{:<38} {:>14} {:<10} (too few samples)\n",
            m.name, "-", m.unit
        ),
    };
    for m in result.samples.select(declared(cfg)) {
        out.push_str(&row(&m, false));
    }
    for m in result.samples.others(declared(cfg)) {
        out.push_str(&row(&m, true));
    }
    out
}

/// Validates a JSON-lines file the benchmark wrote — a history of run
/// records, or a trace of spans and totals (ending with the run record).
/// Every line must parse, re-render to identical bytes, and have the shape
/// its `kind` requires. Returns the number of lines checked.
///
/// # Errors
///
/// Names the first offending line.
pub fn check_file(path: &std::path::Path) -> Result<usize, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut lines = 0;
    for (i, line) in text.lines().enumerate() {
        let at = |msg: String| format!("{}:{}: {msg}", path.display(), i + 1);
        let value = json::parse(line).map_err(at)?;
        if value.render().map_err(at)? != line {
            return Err(at("does not round-trip to identical bytes".into()));
        }
        check_shape(&value).map_err(at)?;
        lines += 1;
    }
    if lines == 0 {
        return Err(format!("{}: no records", path.display()));
    }
    Ok(lines)
}

fn check_shape(v: &Json) -> Result<(), String> {
    let num = |key: &str| {
        v.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("missing number `{key}`"))
    };
    let text = |key: &str| {
        v.get(key)
            .and_then(Json::as_str)
            .ok_or_else(|| format!("missing string `{key}`"))
    };
    match text("kind")? {
        "span" => {
            text("name")?;
            num("id")?;
            if num("end_ns")? < num("start_ns")? {
                return Err("span ends before it starts".into());
            }
            match v.get("parent") {
                Some(Json::Null | Json::Str(_)) => Ok(()),
                _ => Err("span parent must be a name or null".into()),
            }
        }
        "total" => {
            text("name")?;
            num("count")?;
            num("total_ns").map(|_| ())
        }
        "run" => {
            text("workload")?;
            for key in [
                "seed",
                "seconds",
                "unix_time",
                "nproc",
                "attempted",
                "failed",
            ] {
                num(key)?;
            }
            for key in ["cpu", "rustc"] {
                text(key)?;
            }
            for key in ["trace", "smoke", "correct"] {
                if !matches!(v.get(key), Some(Json::Bool(_))) {
                    return Err(format!("missing bool `{key}`"));
                }
            }
            for key in ["metrics", "extras"] {
                let Some(Json::Obj(metrics)) = v.get(key) else {
                    return Err(format!("missing object `{key}`"));
                };
                for (name, m) in metrics {
                    let ok = m.get("value").and_then(Json::as_f64).is_some()
                        && m.get("unit").and_then(Json::as_str).is_some()
                        && m.get("samples").and_then(Json::as_f64).is_some()
                        && m.get("iqr").and_then(Json::as_f64).is_some();
                    if !ok {
                        return Err(format!("metric `{name}` lacks value/unit/samples/iqr"));
                    }
                }
            }
            Ok(())
        }
        other => Err(format!("unknown record kind `{other}`")),
    }
}
