//! The Fig. 9 sweep: nine arrival rates × {DB-DP, LDF, FCSMA} = 27 runs of
//! the control network through `rtmac::Runner`, as the `fig9` binary and
//! `rtmac sweep` reach `Network::step`.
//!
//! Each job steps its network exactly as `Scenario::run` does, reading the
//! clock once per step for the interval latency. One operation is one job;
//! a job fails when its total deficiency differs from the reference table:
//! the tracked `bench_results/fig9.csv` at seed 2018 and the paper's 20 000
//! intervals, otherwise the discarded warm-up sweep's own table.

use rtmac::scenario::{self, Scenario};
use rtmac::{PolicySpec, Runner};

use crate::clock::{now, ns_between, sample_ns};
use crate::stats::{percentile, sorted};
use crate::workloads::{
    sample_buffer, time_setup, BestLatency, Resident, RunConfig, RunResult, Workload,
};

/// The tracked Fig. 9 table the sweep must reproduce at seed 2018.
const GOLDEN: &str = include_str!("../../bench_results/fig9.csv");

/// The seed of the tracked table.
pub const GOLDEN_SEED: u64 = 2018;

/// The three policies, in the table's column order, with the per-layer
/// metric that reports their mean job time.
pub const POLICIES: [(&str, PolicySpec); 3] = [
    (
        "core.policy.dbdp_job_s",
        PolicySpec::DbDp {
            influence: scenario::InfluenceSpec::PaperLog,
            r: 10.0,
            swap_pairs: 1,
        },
    ),
    ("core.policy.ldf_job_s", PolicySpec::Ldf),
    ("core.policy.fcsma_job_s", PolicySpec::Fcsma),
];

/// One finished job. Its per-step host latencies are left in the buffer
/// the job was handed.
#[derive(Debug)]
struct JobOut {
    /// The run's final total deficiency, as the table prints it.
    cell: String,
    /// Host time of the whole job (build, steps, report).
    job_s: f64,
}

/// The sweep's 27 scenarios, point-major, policies in column order.
#[must_use]
pub fn sweep_jobs(horizon: usize, seed: u64) -> Vec<Scenario> {
    let sweep = scenario::fig9(horizon, seed);
    let sweep = &sweep;
    sweep
        .points
        .iter()
        .flat_map(|&x| {
            POLICIES
                .iter()
                .map(move |(_, p)| sweep.at(x).with_policy(*p))
        })
        .collect()
}

/// The tracked table's cells, row-major without the x column.
fn golden_cells() -> Vec<String> {
    GOLDEN
        .lines()
        .skip(1)
        .flat_map(|line| line.split(',').skip(1).map(str::to_string))
        .collect()
}

/// Runs one job, recording its step latencies into `lat`.
fn run_job(sc: &Scenario, lat: &mut Vec<u32>, horizon: usize) -> Result<JobOut, String> {
    let t0 = now();
    let mut net = sc.network().map_err(|e| e.to_string())?;
    lat.clear();
    let mut prev = now();
    for _ in 0..horizon {
        net.step();
        let t = now();
        lat.push(sample_ns(prev, t));
        prev = t;
    }
    let cell = net.report().final_total_deficiency.to_string();
    Ok(JobOut {
        cell,
        job_s: ns_between(t0, now()) as f64 / 1e9,
    })
}

/// Runs every job through `runner`, job `i` recording its step latencies
/// into `lats[i]`.
fn run_sweep(
    runner: &Runner,
    jobs: &[Scenario],
    lats: &mut [Vec<u32>],
    horizon: usize,
) -> Result<(Vec<JobOut>, f64), String> {
    let started = now();
    let outs = runner.map(jobs.iter().zip(lats).collect(), |(sc, lat)| {
        run_job(sc, lat, horizon)
    });
    let wall = ns_between(started, now()) as f64 / 1e9;
    Ok((outs.into_iter().collect::<Result<_, _>>()?, wall))
}

/// Runs the sweep workload.
///
/// # Errors
///
/// Returns a message when a sweep scenario does not build.
pub fn run(w: &Workload, cfg: &RunConfig) -> Result<RunResult, String> {
    let horizon = cfg.scaled(w.op_intervals);
    let jobs = sweep_jobs(horizon, cfg.seed);
    let workers = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let runner = Runner::new(workers);
    let mut lats: Vec<Vec<u32>> = jobs.iter().map(|_| sample_buffer(horizon)).collect();
    let mut all_lat = sample_buffer(jobs.len() * horizon);
    let mut best = BestLatency::new(jobs.len() * horizon);
    let mut result = RunResult {
        base: Resident::read(),
        ..RunResult::default()
    };

    // The run's memory is read once, with the first job's network (the
    // paper's DB-DP at the lowest arrival rate) alive after a full run on
    // this thread, before any other job. Later readings depend on the
    // seed through the allocator, not through what the program holds:
    // from the first FCSMA job on, the resident memory left behind took
    // one of two values ~0.2 MiB apart. Read after the warm-up, the figure
    // spread by 20–27% over ten seeds; read here, by 1.3%.
    let mut net = jobs[0].network().map_err(|e| e.to_string())?;
    for _ in 0..horizon {
        net.step();
    }
    result.record_memory();
    drop(net);

    let (warm, _) = run_sweep(&runner, &jobs, &mut lats, horizon)?;
    let reference: Vec<String> = if cfg.seed == GOLDEN_SEED && horizon == w.op_intervals {
        golden_cells()
    } else {
        warm.into_iter().map(|j| j.cell).collect()
    };
    if reference.len() != jobs.len() {
        return Err(format!(
            "reference table has {} cells, not {}",
            reference.len(),
            jobs.len()
        ));
    }

    // The traced run spends most of its budget on timed sweeps, enough
    // jobs for the Runner's job-time p95, and the rest staging DB-DP jobs.
    let budget = cfg.budget(if cfg.trace { 0.7 } else { 1.0 });
    let mut sweeps = 0;
    let mut job_times: Vec<f64> = Vec::new();
    let mut policy_times: [Vec<f64>; 3] = Default::default();
    while budget.more(sweeps) {
        if !cfg.trace {
            time_setup(&mut result, || {
                jobs.iter()
                    .map(Scenario::network)
                    .collect::<Result<Vec<_>, _>>()
            })?;
        }
        let (outs, wall) = run_sweep(&runner, &jobs, &mut lats, horizon)?;
        sweeps += 1;
        all_lat.clear();
        let mut busy = 0.0;
        for (i, ((out, want), lat)) in outs.iter().zip(&reference).zip(&lats).enumerate() {
            result.op(if out.cell == *want {
                Ok(())
            } else {
                Err(format!(
                    "job {i}: deficiency {} != reference {want}",
                    out.cell
                ))
            });
            all_lat.extend_from_slice(lat);
            busy += out.job_s;
            job_times.push(out.job_s);
            policy_times[i % POLICIES.len()].push(out.job_s);
        }
        best.absorb(&all_lat);
        let s = &mut result.samples;
        s.push(
            "intervals_per_s",
            "1/s",
            (jobs.len() * horizon) as f64 / wall,
        );
        s.push("op_s", "s", wall);
        let capacity = workers as f64 * wall;
        s.push("core.runner.busy_frac", "ratio", busy / capacity);
        s.push("core.runner.idle_s", "s", capacity - busy);
    }
    best.report(&mut result.samples);
    let s = &mut result.samples;
    s.push("core.runner.workers", "count", workers as f64);
    let job_sorted = sorted(&job_times);
    s.push_opt("core.runner.job_p50_s", "s", percentile(&job_sorted, 0.5));
    s.push_opt("core.runner.job_p95_s", "s", percentile(&job_sorted, 0.95));
    s.push_opt("core.runner.job_max_s", "s", job_sorted.last().copied());
    for ((metric, _), times) in POLICIES.iter().zip(&policy_times) {
        let mean = times.iter().sum::<f64>() / times.len().max(1) as f64;
        s.push(metric, "s", mean);
    }

    if cfg.trace {
        let dbdp: Vec<&Scenario> = jobs.iter().step_by(POLICIES.len()).collect();
        crate::sim::staged_ops(w, cfg, 0.3, &dbdp, horizon, &mut result)?;
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Renders a table of cells in `bench_results/fig9.csv`'s layout.
    fn render_csv(horizon: usize, seed: u64, cells: &[String]) -> String {
        let mut out = String::from("lambda*,DB-DP,LDF,FCSMA\n");
        let points = scenario::fig9(horizon, seed).points;
        for (x, row) in points.iter().zip(cells.chunks(POLICIES.len())) {
            out.push_str(&x.to_string());
            for cell in row {
                out.push(',');
                out.push_str(cell);
            }
            out.push('\n');
        }
        out
    }

    #[test]
    fn the_dbdp_column_runs_the_papers_parameters() {
        assert_eq!(POLICIES[0].1, PolicySpec::db_dp());
    }

    #[test]
    fn golden_table_has_one_cell_per_job() {
        assert_eq!(golden_cells().len(), sweep_jobs(100, GOLDEN_SEED).len());
        // Rendering the golden cells reproduces the tracked file exactly.
        assert_eq!(render_csv(20_000, GOLDEN_SEED, &golden_cells()), GOLDEN);
    }
}
