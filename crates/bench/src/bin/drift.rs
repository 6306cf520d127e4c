//! Verifies Proposition 4 numerically: the efficiency
//! `η(d) = E_π*[debt-weighted service] / optimum` of the idealized DB-DP
//! algorithm approaches 1 as debts scale up, for several debt profiles.
//! Also prints the priority chain's relaxation time per network size (the
//! two-time-scale quantity). Usage: `drift` (it takes no arguments).

use rtmac_analysis::drift::db_dp_drift;
use rtmac_analysis::markov::PriorityChain;
use rtmac_bench::table::SeriesTable;
use rtmac_model::influence::PaperLog;

fn main() {
    if let Some(arg) = std::env::args().nth(1) {
        rtmac_bench::usage_exit("drift", &format!("unexpected argument `{arg}`"));
    }
    let influence = PaperLog::default();
    let p = [0.6, 0.9, 0.7, 0.5];
    let packets = [3u8, 2, 3, 2];
    let profiles: [(&str, [f64; 4]); 3] = [
        ("one dominant debt", [6.0, 0.3, 0.2, 0.1]),
        ("two tiers", [4.0, 4.0, 0.3, 0.3]),
        ("graded debts", [4.0, 3.0, 2.0, 1.0]),
    ];

    for (name, base) in profiles {
        let mut table = SeriesTable::new(
            format!("Proposition 4: DB-DP efficiency vs debt scale ({name})"),
            "scale",
            vec!["efficiency".into(), "optimal".into(), "db-dp".into()],
        );
        for scale in [0.5, 1.0, 2.0, 5.0, 20.0, 100.0, 1000.0] {
            let debts: Vec<f64> = base.iter().map(|d| d * scale).collect();
            let report = db_dp_drift(&debts, &p, &influence, 10.0, &packets, 6)
                .expect("valid drift instance");
            table.push_row(
                scale,
                vec![report.efficiency(), report.optimal, report.db_dp],
            );
        }
        print!("{}", table.render());
        println!();
    }

    let mut relax = SeriesTable::new(
        "Relaxation time of the priority chain (uniform mu = 0.5, r = 1)",
        "links",
        vec!["relaxation".into()],
    );
    for n in 2..=6 {
        let chain = PriorityChain::new(vec![0.5; n], 1.0).expect("valid chain");
        relax.push_row(n as f64, vec![chain.relaxation_time()]);
    }
    print!("{}", relax.render());
    relax
        .write_csv("bench_results", "drift_relaxation")
        .expect("write csv");
}
