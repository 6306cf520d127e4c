//! Tracked kernel benchmark: measures DP interval-kernel throughput over
//! an N-grid plus Runner job throughput, and appends the run as one line
//! to the JSON-lines history `bench_results/BENCH_kernel.jsonl` (one entry
//! per recorded run, oldest first).
//!
//! ```sh
//! # headline run: N = 10,000 links x 1,000,000 intervals (minutes)
//! cargo run --release -p rtmac-bench --bin bench_kernel
//! # CI smoke: same shape, tiny interval counts (seconds)
//! cargo run --release -p rtmac-bench --bin bench_kernel -- --quick
//! # whole-history schema check (exit 1 on any malformed line)
//! cargo run --release -p rtmac-bench --bin bench_kernel -- --check bench_results/BENCH_kernel.jsonl
//! ```

use std::path::Path;

use rtmac_bench::kernel::{
    append_entry, measure_kernel, measure_runner, render_entry, validate_history, KernelPoint,
};

const SEED: u64 = 2018;
const HISTORY: &str = "bench_results/BENCH_kernel.jsonl";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(pos) = args.iter().position(|a| a == "--check") {
        let Some(path) = args.get(pos + 1) else {
            eprintln!("--check requires a file path");
            std::process::exit(2);
        };
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                std::process::exit(1);
            }
        };
        match validate_history(&text) {
            Ok(entries) => {
                println!("{path}: valid kernel history, {entries} entries");
                return;
            }
            Err(e) => {
                eprintln!("{path}: INVALID — {e}");
                std::process::exit(1);
            }
        }
    }
    // An unknown flag must not fall through to a full run that appends
    // to the tracked history.
    if let Some(other) = args.iter().find(|a| *a != "--quick") {
        eprintln!("unknown argument {other:?} — valid: --quick, --check <file>");
        std::process::exit(2);
    }
    let quick = args.iter().any(|a| a == "--quick");
    let mode = if quick { "quick" } else { "full" };

    // Interval counts per grid point, scaled so every point runs for a
    // comparable wall time.
    let grid_points: &[(usize, usize)] = if quick {
        &[(10, 2_000), (100, 500), (1_000, 100), (10_000, 20)]
    } else {
        &[
            (10, 400_000),
            (100, 100_000),
            (1_000, 20_000),
            (10_000, 2_000),
        ]
    };
    let mut grid: Vec<KernelPoint> = Vec::new();
    for &(n, intervals) in grid_points {
        eprintln!("N = {n:>6}: {intervals} intervals...");
        grid.push(measure_kernel(n, intervals, SEED));
    }

    let headline_intervals = if quick { 10_000 } else { 1_000_000 };
    eprintln!("headline: N = 10000 x {headline_intervals} intervals...");
    let headline = measure_kernel(10_000, headline_intervals, SEED);
    eprintln!(
        "headline: {:.0} intervals/sec ({:.1} s)",
        headline.intervals_per_sec, headline.elapsed_s
    );

    let (jobs, work) = if quick { (64, 20) } else { (512, 200) };
    eprintln!("runner: {jobs} jobs x {work} kernel intervals...");
    let runner = measure_runner(jobs, work);

    let entry = render_entry(mode, SEED, &headline, &grid, &runner);
    if let Err(e) = validate_history(&entry) {
        eprintln!("new entry failed self-check: {e}\n{entry}");
        std::process::exit(1);
    }
    if let Err(e) = append_entry(Path::new(HISTORY), &entry) {
        eprintln!("cannot append to {HISTORY}: {e}");
        std::process::exit(1);
    }
    println!("{entry}");
    eprintln!("appended one entry to {HISTORY}");
}
