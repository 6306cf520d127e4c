//! Golden-file tests: regenerating the headline figures through the
//! scenario registry reproduces the checked-in CSVs byte for byte. This
//! pins the full pipeline — registry sweep definitions, scenario →
//! network construction, seed derivation, policy instantiation, and the
//! worker-pool runner — to the published numbers.

use std::fs;
use std::path::PathBuf;

use rtmac_bench::figures;

/// The seed and horizons `all_figures` publishes `bench_results/` with.
const SEED: u64 = 2018;
const VIDEO_INTERVALS: usize = 5000;
const CONTROL_INTERVALS: usize = 20_000;
/// The horizon the `ablations` binary publishes its tables with.
const ABLATION_INTERVALS: usize = 3000;

fn checked_in(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../bench_results")
        .join(format!("{name}.csv"));
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("missing golden file {path:?}: {e}"))
}

#[test]
fn fig3_csv_is_byte_identical() {
    let table = figures::fig3(VIDEO_INTERVALS, SEED);
    assert_eq!(
        table.to_csv(),
        checked_in("fig3"),
        "fig3 regenerated through the scenario registry diverged from \
         bench_results/fig3.csv"
    );
}

#[test]
fn fig_fault_csv_is_byte_identical() {
    let table = figures::fig_fault(VIDEO_INTERVALS, SEED);
    assert_eq!(
        table.to_csv(),
        checked_in("fig_fault"),
        "fig_fault regenerated through the scenario registry diverged from \
         bench_results/fig_fault.csv"
    );
}

#[test]
fn fig_fault_burst_csv_is_byte_identical() {
    let table = figures::fig_fault_burst(VIDEO_INTERVALS, SEED);
    assert_eq!(
        table.to_csv(),
        checked_in("fig_fault_burst"),
        "fig_fault_burst regenerated through the scenario registry diverged \
         from bench_results/fig_fault_burst.csv"
    );
}

#[test]
fn fig9_csv_is_byte_identical() {
    let table = figures::fig9(CONTROL_INTERVALS, SEED);
    assert_eq!(
        table.to_csv(),
        checked_in("fig9"),
        "fig9 regenerated through the scenario registry diverged from \
         bench_results/fig9.csv"
    );
}

#[test]
fn fig5_csv_is_byte_identical() {
    let result = figures::fig5(VIDEO_INTERVALS, SEED);
    assert_eq!(
        result.table.to_csv(),
        checked_in("fig5"),
        "fig5 regenerated through the scenario registry diverged from \
         bench_results/fig5.csv"
    );
}

#[test]
fn fig6_csv_is_byte_identical() {
    let table = figures::fig6(VIDEO_INTERVALS, SEED);
    assert_eq!(
        table.to_csv(),
        checked_in("fig6"),
        "fig6 (fixed-priority DP) diverged from bench_results/fig6.csv"
    );
}

#[test]
fn ablation_pairs_csv_is_byte_identical() {
    let table = figures::ablation_pairs(ABLATION_INTERVALS);
    assert_eq!(
        table.to_csv(),
        checked_in("ablation_pairs"),
        "the swap-pairs ablation diverged from bench_results/ablation_pairs.csv"
    );
}
