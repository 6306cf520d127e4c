//! Kernel throughput benchmark: the DP interval kernel over an N-grid,
//! plus the job-queue [`rtmac::Runner`]'s job throughput.
//!
//! The `bench_kernel` binary drives [`measure_kernel`] and
//! [`measure_runner`] over an N-grid and appends the run, as one line
//! from [`render_entry`], to the JSON-lines history
//! `bench_results/BENCH_kernel.jsonl` described in
//! `bench_results/README.md`: one entry per recorded run, oldest first,
//! so the tracked file accumulates a per-PR performance trail instead of
//! overwriting it. [`append_entry`] performs the append and leaves every
//! earlier byte alone; [`validate_history`] re-parses every line and checks
//! each entry — CI runs it against the appended file so a malformed
//! emitter fails the build rather than silently archiving garbage.
//!
//! Timing here is wall-clock by necessity (it *is* the measurement); every
//! `Instant` use carries a lint waiver. Nothing measured feeds back into
//! simulation state, so determinism of the simulators is untouched.

use rtmac::mac::{DpConfig, DpEngine, MacTiming};
use rtmac::phy::{channel::Bernoulli, PhyProfile};
use rtmac::sim::{Nanos, SeedStream};
use std::io::{self, Write as _};
use std::path::Path;

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
/// at 10 links each) through the default [`rtmac::Runner`]
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
fn point(p: &KernelPoint) -> String {
    format!(
        "{{\"engine\":\"batched\",\"n_links\":{},\"intervals\":{},\
         \"elapsed_s\":{:.6},\"intervals_per_sec\":{:.1}}}",
        p.n_links, p.intervals, p.elapsed_s, p.intervals_per_sec
    )
}

/// Renders one history entry as one compact JSON line, without the
/// newline (schema in `bench_results/README.md`). `headline` is the
/// flagship run and `grid` carries every N point.
#[must_use]
pub fn render_entry(
    mode: &str,
    seed: u64,
    headline: &KernelPoint,
    grid: &[KernelPoint],
    runner: &RunnerPoint,
) -> String {
    let grid: Vec<String> = grid.iter().map(point).collect();
    format!(
        "{{\"mode\":\"{mode}\",\"seed\":{seed},\"headline\":{},\"grid\":[{}],\
         \"runner\":{{\"workers\":{},\"jobs\":{},\"elapsed_s\":{:.6},\"jobs_per_sec\":{:.1}}}}}",
        point(headline),
        grid.join(","),
        runner.workers,
        runner.jobs,
        runner.elapsed_s,
        runner.jobs_per_sec
    )
}

/// Appends `entry`, one line from [`render_entry`], to the history at
/// `path`, creating the file if there is none. Earlier lines are not read
/// or rewritten.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn append_entry(path: &Path, entry: &str) -> io::Result<()> {
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    // One write, so the line lands whole at the end of the file.
    file.write_all(format!("{entry}\n").as_bytes())
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

/// Validates a kernel history: every line must parse as JSON and pass
/// the per-entry checks. The whole trail is re-validated, so a corrupted
/// old entry fails the gate even if the new run is fine. Returns the
/// number of entries.
///
/// # Errors
///
/// Returns a human-readable description of the first violation, naming its
/// 1-based line.
pub fn validate_history(text: &str) -> Result<usize, String> {
    let mut entries = 0;
    for (i, line) in text.lines().enumerate() {
        let ctx = format!("line {}", i + 1);
        let entry = Parser::new(line)
            .parse()
            .map_err(|e| format!("{ctx}: {e}"))?;
        check_entry(&entry, &ctx)?;
        entries += 1;
    }
    if entries == 0 {
        return Err("empty history — no runs recorded".into());
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TRACKED: &str = include_str!("../../../bench_results/BENCH_kernel.jsonl");

    fn sample_entry() -> String {
        let headline = measure_kernel(16, 40, 2018);
        let grid = vec![measure_kernel(8, 40, 2018), measure_kernel(32, 20, 2018)];
        let runner = measure_runner(4, 5);
        render_entry("quick", 2018, &headline, &grid, &runner)
    }

    #[test]
    fn an_append_keeps_every_earlier_byte_and_adds_one_line() {
        let path = std::env::temp_dir().join(format!("rtmac-kernel-{}.jsonl", std::process::id()));
        std::fs::write(&path, TRACKED).unwrap();
        let entry = sample_entry();
        append_entry(&path, &entry).unwrap();
        let after = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let added = after.strip_prefix(TRACKED).expect("earlier bytes kept");
        assert_eq!(added, format!("{entry}\n"));
        assert_eq!(validate_history(&after), Ok(TRACKED.lines().count() + 1));
    }

    #[test]
    fn check_names_the_line_of_a_corrupted_earlier_entry() {
        let history = format!("{TRACKED}{}\n", sample_entry());
        assert!(validate_history(&history).is_ok());
        let mut lines: Vec<String> = history.lines().map(String::from).collect();
        lines[1] = lines[1].replacen("\"mode\":\"full\"", "\"mode\":\"weird\"", 1);
        let corrupt = lines.join("\n");
        assert_eq!(
            validate_history(&corrupt),
            Err("line 2: unknown mode \"weird\"".into())
        );
    }

    #[test]
    fn validator_rejects_malformed_histories() {
        let entry = sample_entry();
        assert_eq!(validate_history(&entry), Ok(1));
        // Truncation, a missing runner field, an empty history, a blank
        // line and non-JSON text all fail.
        assert!(validate_history(&entry[..entry.len() / 2]).is_err());
        assert!(validate_history(&entry.replace("\"jobs\"", "\"sobs\"")).is_err());
        assert!(validate_history("").is_err());
        assert!(validate_history(&format!("{entry}\n\n{entry}"))
            .is_err_and(|e| e.starts_with("line 2")));
        assert!(validate_history("not json").is_err());
        // So does an entry spread over several lines.
        assert!(validate_history(&entry.replace(",\"grid\"", ",\n\"grid\"")).is_err());
    }

    #[test]
    fn measurements_report_positive_throughput() {
        assert!(measure_kernel(32, 20, 7).intervals_per_sec > 0.0);
    }

    /// The tracked history still validates, including its entries with a
    /// timeline grid and speedup table.
    #[test]
    fn tracked_history_validates() {
        assert!(validate_history(TRACKED).is_ok_and(|n| n >= 4));
        assert!(!sample_entry().contains("speedup"));
    }
}
