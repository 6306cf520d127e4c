//! Simulator workloads: one scenario stepped through `Network::step`.
//!
//! Every operation ("chunk") builds a fresh network at the run's seed
//! (untimed) and times each of its steps, so every chunk repeats the same
//! work: chunks must produce identical results, the first chunk must replay
//! the discarded warm-up as its prefix, and a DP chunk without faults must
//! be collision-free.

use rtmac::scenario::Scenario;
use rtmac::RunReport;

use crate::clock::{now, ns_between, sample_ns};
use crate::mirror::{Mirror, SPANS};
use crate::trace::Recorder;
use crate::workloads::{time_setup, BestLatency, Resident, RunConfig, RunResult, Workload};

/// Runs a simulator workload.
///
/// # Errors
///
/// Returns a message when the scenario does not build.
pub fn run(w: &Workload, cfg: &RunConfig) -> Result<RunResult, String> {
    let sc = crate::workloads::scenario(w, cfg.seed)?;
    let chunk = cfg.scaled(w.op_intervals);
    if cfg.trace {
        let mut result = RunResult {
            base: Resident::read(),
            ..RunResult::default()
        };
        warm_up_staged(&sc, (chunk / 5).max(1));
        staged_ops(w, cfg, 1.0, &[&sc], chunk, &mut result)?;
        return Ok(result);
    }

    let mut result = RunResult::default();
    // Filled, not zeroed, so its pages are resident before the base.
    let mut lat = vec![u32::MAX; chunk];
    let mut best = BestLatency::new(chunk);
    result.base = Resident::read();

    let warm = (chunk / 5).max(1);
    let mut net = sc.network().map_err(|e| e.to_string())?;
    for _ in 0..warm {
        net.step();
    }
    let warm_series = net.report().deficiency.as_slice().to_vec();
    drop(net);

    let dp = sc.fault.is_none();
    let mut reference = None;
    let budget = cfg.budget(1.0);
    while budget.more(result.attempted as usize) {
        time_setup(&mut result, || sc.network())?;
        let mut net = sc.network().map_err(|e| e.to_string())?;
        let mut collisions = 0u64;
        let start = now();
        let mut prev = start;
        for slot in &mut lat {
            let outcome = net.step();
            collisions += outcome.collisions;
            let t = now();
            *slot = sample_ns(prev, t);
            prev = t;
        }
        let wall_s = ns_between(start, prev) as f64 / 1e9;

        let report = net.report();
        let digest = report_digest(&report);
        let first = reference.is_none();
        let matches_first = *reference.get_or_insert(digest) == digest;
        let check = if dp && collisions > 0 {
            Err(format!("{collisions} collision(s) in a DP chunk"))
        } else if first && !same_bits(&report.deficiency.as_slice()[..warm], &warm_series) {
            Err("the chunk does not replay the warm-up's deficiency prefix".to_string())
        } else if !matches_first {
            Err("the chunk's results differ from the first chunk's".to_string())
        } else {
            Ok(())
        };
        result.op(check);

        best.absorb(&lat);
        let s = &mut result.samples;
        s.push("intervals_per_s", "1/s", chunk as f64 / wall_s);
        s.push("op_s", "s", wall_s);
    }
    best.report(&mut result.samples);
    Ok(result)
}

/// Traced operations for `share` of the run's budget: staged chunks of
/// `intervals` intervals, cycling through `scenarios`. Writes the spans
/// when done.
///
/// # Errors
///
/// Returns a message when the span file cannot be written; failed chunks
/// are counted in `result`.
pub fn staged_ops(
    w: &Workload,
    cfg: &RunConfig,
    share: f64,
    scenarios: &[&Scenario],
    intervals: usize,
    result: &mut RunResult,
) -> Result<(), String> {
    let mut recorder = Recorder::new(&SPANS, now());
    let budget = cfg.budget(share);
    let (mut traced, mut staged) = (0u64, 0usize);
    while budget.more(staged) {
        let sc = scenarios[staged % scenarios.len()];
        let check = staged_chunk(sc, intervals, &mut recorder, &mut traced, result);
        result.op(check);
        staged += 1;
    }
    crate::output::write_spans(w, cfg, &recorder)
}

/// A discarded staged chunk, so caches and lazy set-up are warm before the
/// traced chunks are timed.
pub fn warm_up_staged(sc: &Scenario, intervals: usize) {
    let mut recorder = Recorder::new(&SPANS, now());
    let _ = staged_chunk(
        sc,
        intervals,
        &mut recorder,
        &mut 0,
        &mut RunResult::default(),
    );
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// An FNV-1a digest of everything a chunk's report says about protocol
/// behaviour.
#[must_use]
pub fn report_digest(r: &RunReport) -> u64 {
    let mut h = rtmac_net::FNV_OFFSET;
    for x in r.deficiency.as_slice().iter().chain(&r.final_debts) {
        h = rtmac_net::fnv1a(h, &x.to_bits().to_le_bytes());
    }
    for x in r
        .attempts
        .iter()
        .chain([&r.collisions, &r.empty_packets, &r.idle_slots])
    {
        h = rtmac_net::fnv1a(h, &x.to_le_bytes());
    }
    h
}

/// One traced operation: `intervals` intervals of the staged copy (every
/// stage recorded as a span), then the same intervals of the real network,
/// and the check that both agree. Pushes one value of every per-layer
/// metric the copy measures into `result`.
///
/// # Errors
///
/// Describes the first disagreement between the copy and the network, a
/// collision in a fault-free DP run, or a scenario the copy cannot stage.
pub fn staged_chunk(
    sc: &Scenario,
    intervals: usize,
    recorder: &mut Recorder,
    traced: &mut u64,
    result: &mut RunResult,
) -> Result<(), String> {
    let mut mirror = Mirror::new(sc)?;
    let before = recorder.totals().to_vec();
    for _ in 0..intervals {
        let t = mirror.step();
        recorder.record(0, None, *traced, t[0], t[7]);
        for s in 1..SPANS.len() {
            recorder.record(s, Some(0), *traced, t[s - 1], t[s]);
        }
        *traced += 1;
    }
    let mut net = sc.network().map_err(|e| e.to_string())?;
    let start = now();
    for _ in 0..intervals {
        net.step();
    }
    let step_ns = ns_between(start, now());
    let report = net.report();

    let k = intervals as f64;
    let per_us = |ns: u64| ns as f64 / k / 1e3;
    let stage_us: Vec<f64> = recorder
        .totals()
        .iter()
        .zip(&before)
        .map(|(after, before)| per_us(after.ns - before.ns))
        .collect();
    let s = &mut result.samples;
    let names = [
        "traffic.sample_us",
        "core.policy.mu_us",
        "mac.engine_us",
        "core.policy.handoff_us",
        "model.settle_us",
        "model.deficiency_us",
        "core.network.accumulate_us",
    ];
    for (name, &us) in names.iter().zip(&stage_us[1..]) {
        s.push(name, "us", us);
    }
    s.push("core.network.step_us", "us", per_us(step_ns));
    s.push("trace.overhead_us", "us", stage_us[0] - per_us(step_ns));

    let c = mirror.counts();
    let rate = "1/interval";
    s.push("core.policy.mu_evals", rate, c.mu_evals as f64 / k);
    s.push("mac.attempts", rate, c.attempts as f64 / k);
    s.push("mac.deliveries", rate, c.deliveries as f64 / k);
    s.push(
        "mac.delivery_ratio",
        "ratio",
        c.deliveries as f64 / c.attempts.max(1) as f64,
    );
    s.push("mac.empty_packets", rate, c.empty_packets as f64 / k);
    s.push("mac.idle_slots", rate, c.idle_slots as f64 / k);
    s.push("mac.candidates", rate, c.candidates as f64 / k);
    s.push("mac.swaps", rate, c.swaps as f64 / k);
    s.push("mac.collisions", rate, c.collisions as f64 / k);
    let f = report.fault.unwrap_or_default();
    s.push("mac.fault.sensing_flips", rate, f.sensing_flips as f64 / k);
    s.push("mac.fault.divergences", rate, f.divergences as f64 / k);
    s.push("mac.fault.fallbacks", rate, f.fallbacks as f64 / k);
    s.push(
        "mac.fault.reconvergences",
        rate,
        f.reconvergences as f64 / k,
    );
    s.push(
        "mac.fault.desync_frac",
        "ratio",
        f.desync_intervals as f64 / k,
    );
    s.push(
        "mac.fault.mean_reconverge_intervals",
        "intervals",
        f.mean_time_to_reconverge().unwrap_or(0.0),
    );

    mirror.matches(&report)?;
    if sc.fault.is_none() && report.collisions > 0 {
        return Err(format!("{} collision(s) in a DP run", report.collisions));
    }
    Ok(())
}
