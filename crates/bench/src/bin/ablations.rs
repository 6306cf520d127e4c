//! Result-level ablations of the design choices called out in DESIGN.md:
//! backoff slot width, debt influence function, the Eq. 14 constant `R`,
//! the number of swap pairs (Remark 6), and centralized polling overhead.
//! Usage: `ablations [--quick | --intervals N]`; only a run at the
//! published horizon writes the CSVs under `bench_results/`.

use rtmac::mac::{CentralizedEngine, DpConfig, DpEngine, MacTiming};
use rtmac::model::{LinkId, Permutation};
use rtmac::phy::{channel::Bernoulli, PhyProfile};
use rtmac::scenario::{self, InfluenceSpec, PolicySpec};
use rtmac::sim::{Nanos, SeedStream};
use rtmac_bench::figures::{self, ABLATION_INTERVALS};
use rtmac_bench::table::SeriesTable;
use rtmac_bench::Args;

/// DB-DP deliveries per interval under a given slot width, in the regime
/// where the overhead binds: every link has exactly one packet and the
/// deadline fits all 20 packets with less margin than 20 idle slots at
/// 9 µs. Quantifies how much of the "1–2 transmissions of overhead" is
/// slot time (and how WiFi-Nano-style slots reclaim it).
fn slot_width_table(intervals: usize) -> SeriesTable {
    let mut table = SeriesTable::new(
        "Ablation: backoff slot width (deliveries/interval, N = 20 one-packet links, tight deadline)",
        "slot_ns",
        vec!["DB-DP".into(), "LDF budget".into()],
    );
    for slot_ns in [9000u64, 800, 1] {
        let phy = PhyProfile::ieee80211a().with_slot(Nanos::from_nanos(slot_ns));
        // 20 × 326 µs = 6.52 ms of airtime; 6.6 ms leaves an 80 µs margin,
        // less than the ~20 idle slots (180 µs) that 9 µs slots cost.
        let timing = MacTiming::new(phy, Nanos::from_micros(6600), 1500);
        let budget = timing.max_transmissions() as f64;
        let mut engine = DpEngine::new(DpConfig::new(timing), 20);
        let mut channel = Bernoulli::reliable(20);
        let mut rng = SeedStream::new(1).rng(0);
        let mu = vec![0.5f64; 20];
        let mut total = 0u64;
        for _ in 0..intervals {
            total += engine
                .run_interval(&[1; 20], &mu, &mut channel, &mut rng)
                .outcome
                .total_deliveries();
        }
        table.push_row(
            slot_ns as f64,
            vec![total as f64 / intervals as f64, budget],
        );
    }
    table
}

/// Deficiency of DB-DP at α* = 0.6 under different influence functions.
fn influence_table(intervals: usize) -> SeriesTable {
    let mut table = SeriesTable::new(
        "Ablation: debt influence function (DB-DP deficiency, alpha* = 0.6, rho = 0.9)",
        "variant",
        vec!["deficiency".into()],
    );
    let variants = [
        (0.0, InfluenceSpec::Linear),
        (1.0, InfluenceSpec::Log1p),
        (2.0, InfluenceSpec::PaperLog),
        (3.0, InfluenceSpec::Power(2.0)),
    ];
    for (code, influence) in variants {
        let report = scenario::video(20, 0.6, 0.9, 7)
            .with_intervals(intervals)
            .with_policy(PolicySpec::DbDp {
                influence,
                r: 10.0,
                swap_pairs: 1,
            })
            .run()
            .expect("valid network");
        table.push_row(code, vec![report.final_total_deficiency]);
    }
    println!("# variant codes: 0 = linear, 1 = log1p, 2 = paper-log, 3 = x^2");
    table
}

/// Convergence interval of the lowest-priority link for different `R`.
fn r_constant_table(intervals: usize) -> SeriesTable {
    let mut table = SeriesTable::new(
        "Ablation: Eq. 14 constant R (convergence of lowest-priority link, alpha* = 0.55, rho = 0.93)",
        "R",
        vec!["converged_at".into(), "deficiency".into()],
    );
    for r in [1.0, 10.0, 100.0] {
        let report = scenario::video(20, 0.55, 0.93, 7)
            .with_intervals(intervals)
            .with_track(19, 0.01)
            .with_policy(PolicySpec::DbDp {
                influence: InfluenceSpec::PaperLog,
                r,
                swap_pairs: 1,
            })
            .run()
            .expect("valid network");
        let converged = report
            .tracked
            .as_ref()
            .and_then(|t| t.converged_at())
            .map_or(-1.0, |k| k as f64);
        table.push_row(r, vec![converged, report.final_total_deficiency]);
    }
    table
}

/// Centralized capacity as polling overhead grows — the coordination cost
/// the paper's introduction warns about.
fn polling_table(intervals: usize) -> SeriesTable {
    let mut table = SeriesTable::new(
        "Ablation: centralized polling overhead (saturated deliveries/interval, N = 20, p = 1)",
        "overhead_us",
        vec!["LDF".into()],
    );
    for overhead_us in [0u64, 30, 100, 330] {
        let timing = MacTiming::new(PhyProfile::ieee80211a(), Nanos::from_millis(20), 1500);
        let mut engine =
            CentralizedEngine::new(timing).with_polling_overhead(Nanos::from_micros(overhead_us));
        let mut channel = Bernoulli::reliable(20);
        let mut rng = SeedStream::new(2).rng(0);
        let order: Vec<LinkId> = Permutation::identity(20).service_order();
        let mut total = 0u64;
        for _ in 0..intervals {
            total += engine
                .run_interval(&[6; 20], &order, &mut channel, &mut rng)
                .total_deliveries();
        }
        table.push_row(overhead_us as f64, vec![total as f64 / intervals as f64]);
    }
    table
}

fn main() {
    let args = Args::from_env("ablations", false);
    let intervals = args.intervals(ABLATION_INTERVALS);
    eprintln!("running ablations with {intervals} intervals each...");

    let tables = [
        ("ablation_slot", slot_width_table(intervals.min(500))),
        ("ablation_influence", influence_table(intervals)),
        ("ablation_r", r_constant_table(intervals)),
        ("ablation_pairs", figures::ablation_pairs(intervals)),
        ("ablation_polling", polling_table(intervals.min(500))),
    ];
    for (name, table) in &tables {
        print!("{}", table.render());
        println!();
        if args.publishes(ABLATION_INTERVALS) {
            table.write_csv("bench_results", name).expect("write csv");
        }
    }
}
