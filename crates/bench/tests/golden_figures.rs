//! Golden-file tests: regenerating the headline figures through the
//! scenario registry reproduces the checked-in CSVs byte for byte. This
//! pins the full pipeline — registry sweep definitions, scenario →
//! network construction, seed derivation, policy instantiation, and the
//! worker-pool runner — to the published numbers. Each figure runs at the
//! seed and horizon of its entry in `figures::FIGURES`.

use std::fs;
use std::path::PathBuf;

use rtmac_bench::figures::{self, ABLATION_INTERVALS, SEED};

fn checked_in(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../bench_results")
        .join(format!("{name}.csv"));
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("missing golden file {path:?}: {e}"))
}

/// Runs the figure `name` as published and compares its CSV.
fn assert_published(name: &str) {
    let fig = figures::figure(name).expect("a figure of the table");
    let (table, _) = (fig.run)(fig.intervals, SEED);
    assert_eq!(
        table.to_csv(),
        checked_in(name),
        "{name} regenerated through the scenario registry diverged from \
         bench_results/{name}.csv"
    );
}

#[test]
fn fig3_csv_is_byte_identical() {
    assert_published("fig3");
}

#[test]
fn fig4_csv_is_byte_identical() {
    assert_published("fig4");
}

#[test]
fn fig7_csv_is_byte_identical() {
    assert_published("fig7");
}

#[test]
fn fig8_csv_is_byte_identical() {
    assert_published("fig8");
}

#[test]
fn fig_fault_csv_is_byte_identical() {
    assert_published("fig_fault");
}

#[test]
fn fig_fault_burst_csv_is_byte_identical() {
    assert_published("fig_fault_burst");
}

#[test]
fn fig9_csv_is_byte_identical() {
    assert_published("fig9");
}

#[test]
fn fig10_csv_is_byte_identical() {
    assert_published("fig10");
}

#[test]
fn fig5_csv_is_byte_identical() {
    assert_published("fig5");
}

#[test]
fn fig6_csv_is_byte_identical() {
    assert_published("fig6");
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
