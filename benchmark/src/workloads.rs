//! The five workloads, the metrics every run reports, and the pieces the
//! workload modules share.

use rtmac::scenario::Scenario;

use crate::clock::{now, ns_between, Stamp};
use crate::stats::{percentile, Condense, Summary};

/// Which module runs a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One network stepped through `Network::step`.
    Sim,
    /// The Fig. 9 sweep through `rtmac::Runner`.
    Sweep,
    /// One lockstep `LinkNode` against scripted peers.
    Emulate,
}

/// A named workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name given to `--workload`.
    pub name: &'static str,
    /// The module that runs it.
    pub kind: Kind,
    /// A registry scenario name, or a file under `benchmark/workloads/`.
    /// The sweep builds its 27 runs with `scenario::fig9`, whose base
    /// network this names.
    pub spec: &'static str,
    /// Intervals in one measured operation, before `--smoke` scaling
    /// (one chunk, one sweep point's horizon, or one node run).
    pub op_intervals: usize,
}

/// Every workload, in reporting order.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "video20",
        kind: Kind::Sim,
        spec: "workloads/video20.scenario",
        op_intervals: 100_000,
    },
    Workload {
        name: "video10k",
        kind: Kind::Sim,
        spec: "workloads/video10k.scenario",
        op_intervals: 1_500,
    },
    Workload {
        name: "poisson-churn",
        kind: Kind::Sim,
        spec: "poisson-churn",
        op_intervals: 300_000,
    },
    Workload {
        name: "fig9-sweep",
        kind: Kind::Sweep,
        spec: "control10",
        op_intervals: 20_000,
    },
    Workload {
        name: "emulate100",
        kind: Kind::Emulate,
        spec: "control10",
        op_intervals: 20_000,
    },
];

/// Looks a workload up by name.
#[must_use]
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// End-to-end metrics `(name, unit)`, reported by every untraced run.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("intervals_per_s", "1/s"),
    ("interval_p50_us", "us"),
    ("interval_p99_us", "us"),
    ("op_s", "s"),
    ("program_mem_mb", "MB"),
];

/// How a run condenses each metric over its operations: throughput and
/// operation time by their fastest quarter (see
/// [`Condense::FastestQuarter`]), everything else — set-up time, memory,
/// per-layer figures — by the median. The interval latencies are one value
/// per run (see [`BestLatency`]).
#[must_use]
pub fn condense(name: &str) -> Condense {
    match name {
        "intervals_per_s" => Condense::FastestQuarter {
            higher_is_better: true,
        },
        "op_s" => Condense::FastestQuarter {
            higher_is_better: false,
        },
        _ => Condense::Median,
    }
}

/// Per-layer metrics `(name, unit)`, reported by every traced run.
pub const PER_LAYER: [(&str, &str); 25] = [
    ("traffic.sample_us", "us"),
    ("core.policy.mu_us", "us"),
    ("core.policy.mu_evals", "1/interval"),
    ("mac.engine_us", "us"),
    ("core.policy.handoff_us", "us"),
    ("model.settle_us", "us"),
    ("model.deficiency_us", "us"),
    ("core.network.accumulate_us", "us"),
    ("core.network.step_us", "us"),
    ("trace.overhead_us", "us"),
    ("mac.attempts", "1/interval"),
    ("mac.deliveries", "1/interval"),
    ("mac.delivery_ratio", "ratio"),
    ("mac.empty_packets", "1/interval"),
    ("mac.idle_slots", "1/interval"),
    ("mac.candidates", "1/interval"),
    ("mac.swaps", "1/interval"),
    ("mac.collisions", "1/interval"),
    ("mac.fault.sensing_flips", "1/interval"),
    ("mac.fault.divergences", "1/interval"),
    ("mac.fault.fallbacks", "1/interval"),
    ("mac.fault.reconvergences", "1/interval"),
    ("mac.fault.desync_frac", "ratio"),
    ("mac.fault.mean_reconverge_intervals", "intervals"),
    ("mem.peak_rss_mb", "MB"),
];

/// How one run is configured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunConfig {
    /// Scenario seed: the only input generator.
    pub seed: u64,
    /// Measurement budget in seconds (ignored by `--smoke`).
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Whether to run at 1/100 length with a fixed operation count.
    pub smoke: bool,
}

impl RunConfig {
    /// `intervals` scaled for this run: a hundredth in smoke runs (at
    /// least one).
    #[must_use]
    pub fn scaled(&self, intervals: usize) -> usize {
        let scale = if self.smoke { 100 } else { 1 };
        (intervals / scale).max(1)
    }

    /// A measurement budget starting now, with `share` of the seconds.
    #[must_use]
    pub fn budget(&self, share: f64) -> Budget {
        Budget {
            start: now(),
            seconds: self.seconds * share,
            smoke: self.smoke,
        }
    }
}

/// Decides how many operations a run measures.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    start: Stamp,
    seconds: f64,
    smoke: bool,
}

/// Operations a smoke run measures, whatever their speed.
pub const SMOKE_OPS: usize = 3;

/// Operations every full run measures at least, so a median and quartiles
/// exist even when one operation outlasts the budget.
pub const MIN_OPS: usize = 3;

impl Budget {
    /// Whether to run another operation after `done` of them.
    #[must_use]
    pub fn more(&self, done: usize) -> bool {
        if self.smoke {
            return done < SMOKE_OPS;
        }
        done < MIN_OPS || (ns_between(self.start, now()) as f64) < self.seconds * 1e9
    }
}

/// Values of one metric, one per operation, plus its name and unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Median, sample count and spread; `None` when the samples could not
    /// support the metric (a refused percentile).
    pub summary: Option<Summary>,
}

/// Per-operation metric values collected during a run.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    series: Vec<(&'static str, &'static str, Vec<f64>)>,
}

impl Samples {
    /// Adds one operation's value of `name`.
    pub fn push(&mut self, name: &'static str, unit: &'static str, value: f64) {
        match self.series.iter_mut().find(|(n, _, _)| *n == name) {
            Some((_, _, values)) => values.push(value),
            None => self.series.push((name, unit, vec![value])),
        }
    }

    /// Whether any value (or refusal) of `name` was collected.
    #[must_use]
    pub fn has(&self, name: &str) -> bool {
        self.series.iter().any(|(n, _, _)| *n == name)
    }

    /// Adds a value that may be missing (a refused percentile): a refusal
    /// is remembered so the metric reports as unsupported.
    pub fn push_opt(&mut self, name: &'static str, unit: &'static str, value: Option<f64>) {
        match value {
            Some(v) => self.push(name, unit, v),
            None => {
                if !self.has(name) {
                    self.series.push((name, unit, Vec::new()));
                }
            }
        }
    }

    /// The metrics named in `wanted`, in that order (missing ones with no
    /// summary).
    #[must_use]
    pub fn select(&self, wanted: &[(&'static str, &'static str)]) -> Vec<Metric> {
        wanted
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                unit,
                summary: self
                    .series
                    .iter()
                    .find(|(n, _, _)| *n == name)
                    .and_then(|(_, _, v)| Summary::condensed(v, condense(name))),
            })
            .collect()
    }

    /// Every collected metric not named in `declared`, in collection order.
    #[must_use]
    pub fn others(&self, declared: &[(&'static str, &'static str)]) -> Vec<Metric> {
        self.series
            .iter()
            .filter(|(n, _, _)| !declared.iter().any(|(d, _)| d == n))
            .map(|(name, unit, v)| Metric {
                name,
                unit,
                summary: Summary::condensed(v, condense(name)),
            })
            .collect()
    }
}

/// What a run measured and checked.
#[derive(Debug, Default, Clone)]
pub struct RunResult {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// The first few failure reasons.
    pub failures: Vec<String>,
    /// Collected per-operation values.
    pub samples: Samples,
    /// Memory once the benchmark's own inputs (scripts, sample buffers,
    /// filled so their pages are resident) were allocated; the program's
    /// memory is measured above it.
    pub base: Option<Resident>,
}

impl RunResult {
    /// Records memory once per run: the anonymous memory added above the
    /// base as `program_mem_mb`, and the raw `VmHWM` (benchmark inputs
    /// included) as `mem.peak_rss_mb`. Later calls do nothing.
    pub fn record_memory(&mut self) {
        if self.samples.has("mem.peak_rss_mb") {
            return;
        }
        if let Some(now) = Resident::read() {
            self.samples.push("mem.peak_rss_mb", "MB", now.hwm);
            if let Some(base) = &self.base {
                self.samples
                    .push("program_mem_mb", "MB", now.anon - base.anon);
            }
        }
    }

    /// Counts one operation, failed when `check` is an error.
    ///
    /// The first operation also records memory (unless the workload did
    /// so earlier). Read at that fixed point, after one warm-up and one
    /// measured operation, it does not depend on how many operations the
    /// budget allowed (the allocator's heap keeps growing slowly over
    /// repeated operations).
    pub fn op(&mut self, check: Result<(), String>) {
        self.attempted += 1;
        if self.attempted == 1 {
            self.record_memory();
        }
        if let Err(why) = check {
            self.failed += 1;
            if self.failures.len() < 5 {
                self.failures.push(why);
            }
        }
    }
}

/// An empty sample buffer with room for `n` samples whose pages are
/// already resident, so that filling it inside a measured operation adds
/// nothing to the program's memory (`vec![0; n]` would map zero pages
/// lazily, on first write).
#[must_use]
pub fn sample_buffer(n: usize) -> Vec<u32> {
    let mut buf = vec![u32::MAX; n];
    buf.clear();
    buf
}

/// The fastest host time of each interval over a run's operations.
///
/// Every operation of a workload repeats the same work interval for
/// interval (a fresh network, sweep or node at the run's seed), so the
/// minimum over operations keeps each interval's own cost and drops what
/// other work on the host added to it. Percentiles of these minima track
/// the code: over ten seeds on a busy 2-vCPU VM, `video20`'s p99 spread by
/// 5.9% this way and by 25% as the fastest quarter of per-operation p99s.
#[derive(Debug, Clone)]
pub struct BestLatency {
    best: Vec<u32>,
}

impl BestLatency {
    /// Room for operations of `intervals` latency samples, resident at
    /// once (allocate it before the base memory reading).
    #[must_use]
    pub fn new(intervals: usize) -> Self {
        BestLatency {
            best: vec![u32::MAX; intervals],
        }
    }

    /// Folds one operation's per-interval latencies, in nanoseconds, in.
    pub fn absorb(&mut self, lat: &[u32]) {
        for (best, &ns) in self.best.iter_mut().zip(lat) {
            *best = (*best).min(ns);
        }
    }

    /// Records the median and 99th percentile of the minima as
    /// `interval_p50_us` and `interval_p99_us` (each refused without ten
    /// intervals beyond it).
    pub fn report(mut self, samples: &mut Samples) {
        self.best.sort_unstable();
        let us = |q| percentile(&self.best, q).map(|ns| ns / 1e3);
        samples.push_opt("interval_p50_us", "us", us(0.5));
        samples.push_opt("interval_p99_us", "us", us(0.99));
    }
}

/// Times one build of what the workload drives (dropping it outside the
/// timed region) and records it as a `setup_s` sample.
///
/// Workloads call this once before each measured operation, so each build
/// meets caches full of the previous operation's data, as a program
/// building its network does. Over ten seeds these cold builds spread by
/// at most 9.7% per workload, against 16% for the median of five builds
/// back to back.
///
/// # Errors
///
/// Propagates the build error.
pub fn time_setup<T, E: std::fmt::Display>(
    result: &mut RunResult,
    build: impl FnOnce() -> Result<T, E>,
) -> Result<(), String> {
    let started = now();
    let built = build().map_err(|e| e.to_string())?;
    let secs = ns_between(started, now()) as f64 / 1e9;
    drop(built);
    result.samples.push("setup_s", "s", secs);
    Ok(())
}

/// The scenario a workload runs at `seed`.
///
/// # Errors
///
/// Returns a message when the spec neither names a registry scenario nor
/// a readable, valid scenario file.
pub fn scenario(w: &Workload, seed: u64) -> Result<Scenario, String> {
    let spec = if w.spec.ends_with(".scenario") {
        format!("{}/{}", env!("CARGO_MANIFEST_DIR"), w.spec)
    } else {
        w.spec.to_string()
    };
    rtmac_net::scenario_file::load(&spec)
        .map(|sc| sc.with_seed(seed))
        .map_err(|e| format!("{}: {e}", w.name))
}

/// One reading of the process's memory from `/proc/self/status`, in MiB.
///
/// The program's memory is measured in `RssAnon` (heap and stacks), not in
/// `VmRSS` or `VmHWM`: those also count pages mapped from files, mostly
/// the benchmark binary's code as it is paged in, and how many of those
/// the kernel maps at a fault depends on the page cache. Measured from the
/// same point, `VmRSS` growth varied by up to 0.2 MiB between runs of one
/// seed while `RssAnon` growth varied by a few KiB.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Resident {
    /// `RssAnon`: resident anonymous pages.
    pub anon: f64,
    /// `VmHWM`: the most `VmRSS` has been so far, file pages included.
    pub hwm: f64,
}

impl Resident {
    /// Reads the process's memory now; `None` where `/proc` is missing.
    #[must_use]
    pub fn read() -> Option<Resident> {
        let text = std::fs::read_to_string("/proc/self/status").ok()?;
        let mb = |key: &str| -> Option<f64> {
            let line = text.lines().find(|l| l.starts_with(key))?;
            let kb: f64 = line[key.len()..]
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .ok()?;
            Some(kb / 1024.0)
        };
        Some(Resident {
            anon: mb("RssAnon:")?,
            hwm: mb("VmHWM:")?,
        })
    }
}

/// Runs one workload.
///
/// # Errors
///
/// Returns a message when the workload cannot be set up (an invalid
/// scenario); failures of the measured operations are counted in the
/// result instead.
pub fn run(w: &Workload, cfg: &RunConfig) -> Result<RunResult, String> {
    match w.kind {
        Kind::Sim => crate::sim::run(w, cfg),
        Kind::Sweep => crate::sweep::run(w, cfg),
        Kind::Emulate => crate::emulate::run(w, cfg),
    }
}
