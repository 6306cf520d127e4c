//! Kernel throughput benchmark: the DP interval kernel over an N-grid,
//! plus the work-stealing [`rtmac::Runner`]'s job throughput.
//!
//! The `bench_kernel` binary drives [`measure_kernel`] and
//! [`measure_runner`] over an N-grid and *appends* the run to the
//! machine-readable `bench_results/BENCH_kernel.json` described in
//! `bench_results/README.md`: a `rtmac-bench-kernel/2` document whose
//! `history` array holds one entry per recorded run, oldest first, so the
//! tracked file accumulates a per-PR performance trail instead of
//! overwriting it. [`append_history`] performs the append (migrating a v1
//! single-run document into `history[0]` on the way); [`validate_bench_json`]
//! re-parses an emitted file and checks every history entry — CI runs it
//! against the appended output so a malformed emitter fails the build rather
//! than silently archiving garbage.
//!
//! Timing here is wall-clock by necessity (it *is* the measurement); every
//! `Instant` use carries a lint waiver. Nothing measured feeds back into
//! simulation state, so determinism of the simulators is untouched.

use rtmac::mac::{DpConfig, DpEngine, MacTiming};
use rtmac::phy::{channel::Bernoulli, PhyProfile};
use rtmac::sim::{Nanos, SeedStream};
use std::fmt::Write as _;

/// One measured N grid point.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelPoint {
    /// Number of links simulated.
    pub n_links: usize,
    /// Intervals stepped during the measurement.
    pub intervals: usize,
    /// Wall-clock seconds the measurement took.
    pub elapsed_s: f64,
    /// Throughput: `intervals / elapsed_s`.
    pub intervals_per_sec: f64,
}

/// One measured [`rtmac::Runner`] throughput point.
#[derive(Debug, Clone, PartialEq)]
pub struct RunnerPoint {
    /// Worker threads in the pool.
    pub workers: usize,
    /// Jobs mapped through the pool.
    pub jobs: usize,
    /// Wall-clock seconds for the whole map.
    pub elapsed_s: f64,
    /// Throughput: `jobs / elapsed_s`.
    pub jobs_per_sec: f64,
}

/// The benchmark workload every kernel point shares: the paper's video
/// profile (20 ms interval, 1500 B payload), saturated arrivals, p = 0.7.
fn video_timing() -> MacTiming {
    MacTiming::new(PhyProfile::ieee80211a(), Nanos::from_millis(20), 1500)
}

/// Steps the DP interval kernel for `intervals` intervals at `n_links`
/// links and returns the measured throughput.
///
/// # Panics
///
/// Panics if the Bernoulli channel rejects the probability vector (cannot
/// happen for the fixed 0.7 used here).
#[must_use]
pub fn measure_kernel(n_links: usize, intervals: usize, seed: u64) -> KernelPoint {
    let mut engine = DpEngine::new(DpConfig::new(video_timing()).with_swap_pairs(3), n_links);
    let mut channel = Bernoulli::new(vec![0.7; n_links]).expect("valid p");
    let mut rng = SeedStream::new(seed).rng(0);
    let arrivals = vec![3u32; n_links];
    let mu = vec![0.5f64; n_links];
    // lint: allow(wall-clock) — this *is* the throughput measurement.
    let start = std::time::Instant::now();
    for _ in 0..intervals {
        let report = engine.step(&arrivals, &mu, &mut channel, &mut rng);
        std::hint::black_box(report.outcome.deliveries.len());
    }
    let elapsed_s = start.elapsed().as_secs_f64().max(1e-12);
    KernelPoint {
        n_links,
        intervals,
        elapsed_s,
        intervals_per_sec: intervals as f64 / elapsed_s,
    }
}

/// Maps `jobs` small DB-DP simulations (`work_intervals` kernel intervals
/// at 10 links each) through the default work-stealing [`rtmac::Runner`]
/// and returns the pool's job throughput.
#[must_use]
pub fn measure_runner(jobs: usize, work_intervals: usize) -> RunnerPoint {
    let runner = rtmac::Runner::default();
    let workers = runner.workers();
    let items: Vec<u64> = (0..jobs as u64).collect();
    // lint: allow(wall-clock) — this *is* the throughput measurement.
    let start = std::time::Instant::now();
    let out = runner.map(items, |seed| {
        let point = measure_kernel(10, work_intervals, seed);
        point.intervals
    });
    let elapsed_s = start.elapsed().as_secs_f64().max(1e-12);
    std::hint::black_box(out.len());
    RunnerPoint {
        workers,
        jobs,
        elapsed_s,
        jobs_per_sec: jobs as f64 / elapsed_s,
    }
}

/// Every point names the kernel `"batched"`, its name throughout the
/// history (older entries also hold `"timeline"` points of the deleted
/// slot-walking engine).
fn write_point(out: &mut String, p: &KernelPoint) {
    let _ = write!(
        out,
        "{{\"engine\": \"batched\", \"n_links\": {}, \"intervals\": {}, \
         \"elapsed_s\": {:.6}, \"intervals_per_sec\": {:.1}}}",
        p.n_links, p.intervals, p.elapsed_s, p.intervals_per_sec
    );
}

/// Renders one history entry (schema in `bench_results/README.md`).
/// `headline` is the flagship run and `grid` carries every N point. Feed
/// the result to [`append_history`] to produce the tracked
/// `BENCH_kernel.json` document.
#[must_use]
pub fn render_entry(
    mode: &str,
    seed: u64,
    headline: &KernelPoint,
    grid: &[KernelPoint],
    runner: &RunnerPoint,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"mode\": \"{mode}\",");
    let _ = writeln!(out, "  \"seed\": {seed},");
    out.push_str("  \"headline\": ");
    write_point(&mut out, headline);
    out.push_str(",\n  \"grid\": [\n");
    for (i, p) in grid.iter().enumerate() {
        out.push_str("    ");
        write_point(&mut out, p);
        out.push_str(if i + 1 < grid.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n  \"runner\": ");
    let _ = write!(
        out,
        "{{\"workers\": {}, \"jobs\": {}, \"elapsed_s\": {:.6}, \"jobs_per_sec\": {:.1}}}",
        runner.workers, runner.jobs, runner.elapsed_s, runner.jobs_per_sec
    );
    out.push_str("\n}\n");
    out
}

// ------------------------------------------------------------------ checking

/// Minimal JSON value for schema validation (no serde in the workspace).
#[derive(Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
    fn num(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }
    fn str_val(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
    fn is_scalar(&self) -> bool {
        !matches!(self, Json::Arr(_) | Json::Obj(_))
    }
    /// Canonical pretty-printer: scalar-only objects stay on one line
    /// (grid points, speedup rows, the runner block); arrays and nested
    /// objects break across lines at two-space indents. Appends therefore
    /// rewrite prior entries byte-identically.
    fn render_into(&self, indent: usize, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Num(x) => {
                let _ = write!(out, "{x}");
            }
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        other => out.push(other),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    for _ in 0..indent + 2 {
                        out.push(' ');
                    }
                    item.render_into(indent + 2, out);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                for _ in 0..indent {
                    out.push(' ');
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.iter().all(|(_, v)| v.is_scalar()) {
                    out.push('{');
                    for (i, (k, v)) in fields.iter().enumerate() {
                        if i > 0 {
                            out.push_str(", ");
                        }
                        let _ = write!(out, "\"{k}\": ");
                        v.render_into(indent, out);
                    }
                    out.push('}');
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    for _ in 0..indent + 2 {
                        out.push(' ');
                    }
                    let _ = write!(out, "\"{k}\": ");
                    v.render_into(indent + 2, out);
                    out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
                }
                for _ in 0..indent {
                    out.push(' ');
                }
                out.push('}');
            }
        }
    }
}

// ------------------------------------------------------------------- history

/// Parses a tracked `BENCH_kernel.json` into its run entries, oldest
/// first. A `rtmac-bench-kernel/2` document yields its `history` array; a
/// legacy single-run `rtmac-bench-kernel/1` document is migrated into a
/// one-entry history (its `schema`/`label` framing keys dropped); `None`
/// or blank text yields an empty history.
fn parse_history(existing: Option<&str>) -> Result<Vec<Json>, String> {
    let text = match existing {
        Some(t) if !t.trim().is_empty() => t,
        _ => return Ok(Vec::new()),
    };
    let doc = Parser::new(text).parse()?;
    let schema = doc
        .get("schema")
        .and_then(Json::str_val)
        .ok_or("existing file: missing \"schema\"")?;
    match schema {
        "rtmac-bench-kernel/2" => match doc {
            Json::Obj(fields) => {
                for (k, v) in fields {
                    if k == "history" {
                        let Json::Arr(entries) = v else {
                            return Err("existing file: \"history\" is not an array".into());
                        };
                        return Ok(entries);
                    }
                }
                Err("existing file: missing \"history\" array".into())
            }
            _ => Err("existing file: not an object".into()),
        },
        "rtmac-bench-kernel/1" => match doc {
            Json::Obj(fields) => {
                let body: Vec<(String, Json)> = fields
                    .into_iter()
                    .filter(|(k, _)| k != "schema" && k != "label")
                    .collect();
                Ok(vec![Json::Obj(body)])
            }
            _ => Err("existing file: not an object".into()),
        },
        other => Err(format!("existing file: unknown schema \"{other}\"")),
    }
}

/// Renders the `rtmac-bench-kernel/2` framing document around `entries`.
fn render_history(entries: Vec<Json>) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"rtmac-bench-kernel/2\",\n  \"label\": \"kernel\",\n");
    out.push_str("  \"history\": ");
    Json::Arr(entries).render_into(2, &mut out);
    out.push_str("\n}\n");
    out
}

/// Appends one run entry (the output of [`render_entry`]) to the tracked
/// history document and returns `(document, entry_count)`.
///
/// `existing` is the current `BENCH_kernel.json` text, if any: a v2
/// document grows by one entry, a legacy v1 single-run document is
/// migrated into `history[0]` first, and `None` starts a fresh history.
/// Prior entries are never modified — only re-rendered through the
/// canonical printer — so the history is append-only by construction.
///
/// # Errors
///
/// Returns a description of the first problem: unparseable existing text,
/// an unknown schema, or an unparseable new entry.
pub fn append_history(existing: Option<&str>, entry: &str) -> Result<(String, usize), String> {
    let mut entries = parse_history(existing)?;
    let parsed = Parser::new(entry)
        .parse()
        .map_err(|e| format!("new entry: {e}"))?;
    entries.push(parsed);
    let count = entries.len();
    Ok((render_history(entries), count))
}

/// Rewrites a tracked document in canonical v2 form without appending:
/// the one-shot migration path for a legacy v1 file (`bench_kernel
/// --migrate`).
///
/// # Errors
///
/// Returns a description of the parse or schema problem, or an error for
/// an empty input (nothing to migrate).
pub fn migrate_history(existing: &str) -> Result<String, String> {
    let entries = parse_history(Some(existing))?;
    if entries.is_empty() {
        return Err("nothing to migrate: empty document".into());
    }
    Ok(render_history(entries))
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser {
            s: s.as_bytes(),
            i: 0,
        }
    }
    fn skip_ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }
    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.s.get(self.i).copied()
    }
    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.i))
        }
    }
    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {other:?} at byte {}", self.i)),
        }
    }
    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.s[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }
    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        while self
            .s
            .get(self.i)
            .is_some_and(|&c| c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.i += 1;
        }
        std::str::from_utf8(&self.s[start..self.i])
            .ok()
            .and_then(|t| t.parse::<f64>().ok())
            .filter(|x| x.is_finite())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }
    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        while let Some(&c) = self.s.get(self.i) {
            self.i += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = *self
                        .s
                        .get(self.i)
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.i += 1;
                    out.push(match esc {
                        b'n' => '\n',
                        b't' => '\t',
                        other => other as char,
                    });
                }
                other => out.push(other as char),
            }
        }
        Err("unterminated string".into())
    }
    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                other => return Err(format!("bad array at byte {} ({other:?})", self.i)),
            }
        }
    }
    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value()?));
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(fields));
                }
                other => return Err(format!("bad object at byte {} ({other:?})", self.i)),
            }
        }
    }
    fn parse(mut self) -> Result<Json, String> {
        let v = self.value()?;
        self.skip_ws();
        if self.i != self.s.len() {
            return Err(format!("trailing bytes at {}", self.i));
        }
        Ok(v)
    }
}

fn check_point(p: &Json, ctx: &str) -> Result<(), String> {
    for key in [
        "engine",
        "n_links",
        "intervals",
        "elapsed_s",
        "intervals_per_sec",
    ] {
        let v = p.get(key).ok_or(format!("{ctx}: missing \"{key}\""))?;
        match key {
            "engine" => {
                let e = v
                    .str_val()
                    .ok_or(format!("{ctx}: \"engine\" not a string"))?;
                if e != "batched" && e != "timeline" {
                    return Err(format!("{ctx}: unknown engine \"{e}\""));
                }
            }
            _ => {
                let x = v.num().ok_or(format!("{ctx}: \"{key}\" not a number"))?;
                if x <= 0.0 {
                    return Err(format!("{ctx}: \"{key}\" must be positive, got {x}"));
                }
            }
        }
    }
    Ok(())
}

/// Validates one history entry: mode, seed, a positive-throughput batched
/// headline and grid, a sane runner block, and — in entries recorded while
/// the slot-walking engine existed — a non-empty speedup table.
fn check_entry(doc: &Json, ctx: &str) -> Result<(), String> {
    let mode = doc
        .get("mode")
        .and_then(Json::str_val)
        .ok_or(format!("{ctx}: missing \"mode\""))?;
    if mode != "full" && mode != "quick" {
        return Err(format!("{ctx}: unknown mode \"{mode}\""));
    }
    doc.get("seed")
        .and_then(Json::num)
        .ok_or(format!("{ctx}: missing numeric \"seed\""))?;
    let headline = doc
        .get("headline")
        .ok_or(format!("{ctx}: missing \"headline\""))?;
    check_point(headline, &format!("{ctx}: headline"))?;
    if headline.get("engine").and_then(Json::str_val) != Some("batched") {
        return Err(format!("{ctx}: headline must be a batched-engine run"));
    }
    let Some(Json::Arr(grid)) = doc.get("grid") else {
        return Err(format!("{ctx}: missing \"grid\" array"));
    };
    if grid.is_empty() {
        return Err(format!("{ctx}: empty \"grid\""));
    }
    for (i, p) in grid.iter().enumerate() {
        check_point(p, &format!("{ctx}: grid[{i}]"))?;
    }
    if let Some(speedup) = doc.get("speedup") {
        let Json::Arr(speedup) = speedup else {
            return Err(format!("{ctx}: \"speedup\" is not an array"));
        };
        if speedup.is_empty() {
            return Err(format!("{ctx}: empty \"speedup\""));
        }
        for (i, row) in speedup.iter().enumerate() {
            for key in ["n_links", "batched_over_timeline"] {
                row.get(key)
                    .and_then(Json::num)
                    .filter(|x| *x > 0.0)
                    .ok_or(format!("{ctx}: speedup[{i}]: missing positive \"{key}\""))?;
            }
        }
    }
    let runner = doc
        .get("runner")
        .ok_or(format!("{ctx}: missing \"runner\""))?;
    for key in ["workers", "jobs", "elapsed_s", "jobs_per_sec"] {
        runner
            .get(key)
            .and_then(Json::num)
            .filter(|x| *x > 0.0)
            .ok_or(format!("{ctx}: runner: missing positive \"{key}\""))?;
    }
    Ok(())
}

/// Validates a tracked `BENCH_kernel.json` document: well-formed JSON,
/// the `rtmac-bench-kernel/2` schema tag, and a non-empty `history` in
/// which *every* entry passes the per-entry checks — the whole trail is
/// re-validated on each append, so a corrupted old entry fails the gate
/// even if the new run is fine.
///
/// # Errors
///
/// Returns a human-readable description of the first schema violation.
/// Legacy `rtmac-bench-kernel/1` documents are rejected with a pointer at
/// the `--migrate` path.
pub fn validate_bench_json(text: &str) -> Result<(), String> {
    let doc = Parser::new(text).parse()?;
    let schema = doc
        .get("schema")
        .and_then(Json::str_val)
        .ok_or("missing \"schema\"")?;
    if schema == "rtmac-bench-kernel/1" {
        return Err("legacy single-run schema rtmac-bench-kernel/1 — run \
                    `bench_kernel --migrate <path>` to wrap it as history[0]"
            .into());
    }
    if schema != "rtmac-bench-kernel/2" {
        return Err(format!("unknown schema \"{schema}\""));
    }
    if doc.get("label").and_then(Json::str_val) != Some("kernel") {
        return Err("missing or wrong \"label\" (expected \"kernel\")".into());
    }
    let Some(Json::Arr(history)) = doc.get("history") else {
        return Err("missing \"history\" array".into());
    };
    if history.is_empty() {
        return Err("empty \"history\" — no runs recorded".into());
    }
    for (i, entry) in history.iter().enumerate() {
        check_entry(entry, &format!("history[{i}]"))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_entry() -> String {
        let headline = measure_kernel(16, 40, 2018);
        let grid = vec![measure_kernel(8, 40, 2018), measure_kernel(32, 20, 2018)];
        let runner = measure_runner(4, 5);
        render_entry("quick", 2018, &headline, &grid, &runner)
    }

    #[test]
    fn appended_documents_validate_and_preserve_prior_entries() {
        let entry = sample_entry();
        let (one, n1) = append_history(None, &entry).expect("fresh append");
        assert_eq!(n1, 1);
        assert_eq!(validate_bench_json(&one), Ok(()), "{one}");
        let (two, n2) = append_history(Some(&one), &entry).expect("second append");
        assert_eq!(n2, 2);
        assert_eq!(validate_bench_json(&two), Ok(()), "{two}");
        // Append-only: everything before the closing framing of the
        // one-entry document survives byte-identically.
        let stable = one.trim_end_matches("\n  ]\n}\n");
        assert!(two.starts_with(stable), "prior entry rewritten:\n{two}");
        // A corrupted *old* entry fails the whole-history gate.
        let corrupt = two.replacen("\"mode\": \"quick\"", "\"mode\": \"weird\"", 1);
        assert!(validate_bench_json(&corrupt).is_err_and(|e| e.contains("history[0]")));
    }

    #[test]
    fn v1_documents_migrate_into_history_zero() {
        let entry = sample_entry();
        // A legacy v1 document is the entry body plus schema/label framing.
        let v1 = format!(
            "{{\n  \"schema\": \"rtmac-bench-kernel/1\",\n  \"label\": \"kernel\",\n{}",
            &entry[2..]
        );
        // Rejected by the validator, with a pointer at the migration path.
        assert!(validate_bench_json(&v1).is_err_and(|e| e.contains("--migrate")));
        let migrated = migrate_history(&v1).expect("v1 migrates");
        assert_eq!(validate_bench_json(&migrated), Ok(()), "{migrated}");
        // Appending straight onto a v1 file migrates it on the way.
        let (two, n) = append_history(Some(&v1), &entry).expect("append migrates");
        assert_eq!(n, 2);
        assert_eq!(validate_bench_json(&two), Ok(()), "{two}");
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        let (doc, _) = append_history(None, &sample_entry()).expect("append");
        // Truncation, schema drift, and a missing runner field all fail.
        assert!(validate_bench_json(&doc[..doc.len() / 2]).is_err());
        assert!(validate_bench_json(&doc.replace("rtmac-bench-kernel/2", "v9")).is_err());
        assert!(validate_bench_json(&doc.replace("\"jobs\"", "\"sobs\"")).is_err());
        // So do an empty history and non-JSON text.
        let empty = "{\"schema\": \"rtmac-bench-kernel/2\", \
                     \"label\": \"kernel\", \"history\": []}";
        assert!(validate_bench_json(empty).is_err());
        assert!(validate_bench_json("{}").is_err());
        assert!(validate_bench_json("not json").is_err());
        assert!(migrate_history("").is_err());
    }

    #[test]
    fn measurements_report_positive_throughput() {
        assert!(measure_kernel(32, 20, 7).intervals_per_sec > 0.0);
    }

    /// The tracked history still validates, including its entries with a
    /// timeline grid and speedup table, and new entries append to it.
    #[test]
    fn tracked_history_validates_and_grows() {
        let tracked = include_str!("../../../bench_results/BENCH_kernel.json");
        assert_eq!(validate_bench_json(tracked), Ok(()));
        let entry = sample_entry();
        assert!(!entry.contains("speedup"));
        let (appended, _) = append_history(Some(tracked), &entry).expect("append");
        assert_eq!(validate_bench_json(&appended), Ok(()));
    }
}
