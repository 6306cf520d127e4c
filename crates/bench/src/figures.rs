//! Parameterized reproductions of Figs. 3–10 of the paper and the two
//! fault sweeps, and [`FIGURES`], the one table of their names, seed and
//! published horizons.
//!
//! Every figure is phrased through the [`rtmac::scenario`] registry: the
//! workload, sweep and contender definitions live in `rtmac` itself, and
//! this module only decides which contenders to run at each sweep point
//! and how to lay the results out in a [`SeriesTable`].

use rtmac::model::LinkId;
use rtmac::scenario::{self, FaultSpec, PolicySpec, Sweep, TrafficSpec, CONTENDERS};
use rtmac::RunReport;

use crate::table::SeriesTable;

/// The seed every figure under `bench_results/` is published with.
pub const SEED: u64 = 2018;

/// One figure of the evaluation.
#[derive(Debug, Clone, Copy)]
pub struct Figure {
    /// The `figures` binary's name for it, and the stem of its CSV under
    /// `bench_results/`.
    pub name: &'static str,
    /// The horizon its CSV is published at.
    pub intervals: usize,
    /// Runs it for `(intervals, seed)` and returns its table and the notes
    /// printed under the table, each after a `# `.
    pub run: fn(usize, u64) -> (SeriesTable, Vec<String>),
}

/// The paper's horizon for the video figures (Figs. 3–8), which the fault
/// sweeps share.
const VIDEO: usize = 5000;
/// The paper's horizon for the control figures (Figs. 9–10).
const CONTROL: usize = 20_000;

/// Every figure, in the order the `figures` binary runs them.
pub static FIGURES: [Figure; 10] = [
    Figure {
        name: "fig3",
        intervals: VIDEO,
        run: |n, seed| (fig3(n, seed), Vec::new()),
    },
    Figure {
        name: "fig4",
        intervals: VIDEO,
        run: |n, seed| (fig4(n, seed), Vec::new()),
    },
    Figure {
        name: "fig5",
        intervals: VIDEO,
        run: fig5,
    },
    Figure {
        name: "fig6",
        intervals: VIDEO,
        run: |n, seed| (fig6(n, seed), Vec::new()),
    },
    Figure {
        name: "fig7",
        intervals: VIDEO,
        run: |n, seed| (fig7(n, seed), Vec::new()),
    },
    Figure {
        name: "fig8",
        intervals: VIDEO,
        run: |n, seed| (fig8(n, seed), Vec::new()),
    },
    Figure {
        name: "fig9",
        intervals: CONTROL,
        run: |n, seed| (fig9(n, seed), Vec::new()),
    },
    Figure {
        name: "fig10",
        intervals: CONTROL,
        run: |n, seed| (fig10(n, seed), Vec::new()),
    },
    Figure {
        name: "fig_fault",
        intervals: VIDEO,
        run: |n, seed| (fig_fault(n, seed), Vec::new()),
    },
    Figure {
        name: "fig_fault_burst",
        intervals: VIDEO,
        run: |n, seed| (fig_fault_burst(n, seed), Vec::new()),
    },
];

/// The entry of [`FIGURES`] called `name`.
#[must_use]
pub fn figure(name: &str) -> Option<&'static Figure> {
    FIGURES.iter().find(|f| f.name == name)
}

/// The horizon the `ablations` binary publishes its tables at.
pub const ABLATION_INTERVALS: usize = 3000;

fn contender_columns() -> Vec<String> {
    CONTENDERS.iter().map(PolicySpec::label).collect()
}

/// Runs every contender at every point of `sweep` and tabulates the total
/// deficiency (the y-axis shared by Figs. 3, 4, 9, 10).
fn deficiency_table(title: &str, sweep: &Sweep) -> SeriesTable {
    let mut table = SeriesTable::new(title, sweep.axis.label(), contender_columns());
    let rows = crate::parallel_map(sweep.scenarios(), |sc| {
        CONTENDERS
            .iter()
            .map(|&spec| {
                sc.clone()
                    .with_policy(spec)
                    .run()
                    .expect("valid sweep point")
                    .final_total_deficiency
            })
            .collect::<Vec<f64>>()
    });
    for (&x, row) in sweep.points.iter().zip(rows) {
        table.push_row(x, row);
    }
    table
}

/// Fig. 3 — total timely-throughput deficiency of the symmetric video
/// network (N = 20, p = 0.7, ρ = 0.9) as the burst probability `α*` sweeps.
#[must_use]
pub fn fig3(intervals: usize, seed: u64) -> SeriesTable {
    deficiency_table(
        "Fig. 3: symmetric video network, 90% delivery ratio (total deficiency vs alpha*)",
        &scenario::fig3(intervals, seed),
    )
}

/// Fig. 4 — deficiency of the same network at fixed `α* = 0.55` as the
/// required delivery ratio sweeps.
#[must_use]
pub fn fig4(intervals: usize, seed: u64) -> SeriesTable {
    deficiency_table(
        "Fig. 4: symmetric video network, alpha* = 0.55 (total deficiency vs delivery ratio)",
        &scenario::fig4(intervals, seed),
    )
}

/// Fig. 5 — convergence of the link with the lowest priority at time 0
/// (α* = 0.55, ρ = 0.93) under DB-DP vs LDF: the link's running
/// timely-throughput, sampled every few intervals, and as notes its
/// requirement `q_n` and the interval at which each policy entered the 1%
/// band around it.
#[must_use]
pub fn fig5(intervals: usize, seed: u64) -> (SeriesTable, Vec<String>) {
    let base = scenario::fig5(intervals, seed);
    let q = 0.93 * 3.5 * 0.55;
    // Three policies: the paper's two, plus DB-DP with three swap pairs
    // (Remark 6) showing how the reordering rate sets the convergence
    // constant.
    let configs = vec![
        PolicySpec::db_dp(),
        PolicySpec::Ldf,
        PolicySpec::db_dp_pairs(3),
    ];
    let labels: Vec<String> = configs.iter().map(PolicySpec::label).collect();
    let results = crate::parallel_map(configs, |spec| {
        let report = base
            .clone()
            .with_policy(spec)
            .run()
            .expect("valid fig5 network");
        let tracker = report.tracked.expect("tracking configured");
        (tracker.settled_at(), tracker.history().to_vec())
    });
    let mut notes = vec![format!("requirement q_n = {q:.4}")];
    let mut histories = Vec::new();
    for (label, (settled, history)) in labels.iter().zip(results) {
        notes.push(match settled {
            Some(k) => format!("{label}: settled within +/-1% of q_n at interval {k}"),
            None => format!("{label}: still outside +/-1% at interval {intervals}"),
        });
        histories.push(history);
    }
    let mut table = SeriesTable::new(
        "Fig. 5: running timely-throughput of the lowest-initial-priority link (alpha* = 0.55, rho = 0.93)",
        "interval",
        labels,
    );
    let stride = (intervals / 50).max(1);
    for k in (0..intervals).step_by(stride) {
        table.push_row(k as f64, histories.iter().map(|h| h[k]).collect());
    }
    (table, notes)
}

/// Fig. 6 — average timely-throughput per priority index under a *fixed*
/// priority ordering at α* = 0.6: throughput increases with priority and
/// even the lowest priority is non-zero (the protocol's built-in
/// anti-starvation).
#[must_use]
pub fn fig6(intervals: usize, seed: u64) -> SeriesTable {
    let report = scenario::fig6(intervals, seed)
        .run()
        .expect("valid fig6 network");
    let mut table = SeriesTable::new(
        "Fig. 6: average timely-throughput per priority index under a fixed ordering (alpha* = 0.6)",
        "priority",
        vec!["throughput".into()],
    );
    // Identity σ: link i holds priority i + 1.
    for (i, &tp) in report.per_link_throughput.iter().enumerate() {
        table.push_row((i + 1) as f64, vec![tp]);
    }
    table
}

/// Ablation of Remark 6: convergence interval of the lowest-initial-priority
/// link and final deficiency as the number of swap pairs per interval grows
/// (α* = 0.55, ρ = 0.93, seed 7).
#[must_use]
pub fn ablation_pairs(intervals: usize) -> SeriesTable {
    let mut table = SeriesTable::new(
        "Ablation: swap pairs per interval (Remark 6; convergence of lowest-priority link)",
        "pairs",
        vec!["converged_at".into(), "deficiency".into()],
    );
    for pairs in [1usize, 2, 3, 5] {
        let report = scenario::video(20, 0.55, 0.93, 7)
            .with_intervals(intervals)
            .with_track(19, 0.01)
            .with_policy(PolicySpec::db_dp_pairs(pairs))
            .run()
            .expect("valid network");
        let converged = report
            .tracked
            .as_ref()
            .and_then(|t| t.converged_at())
            .map_or(-1.0, |k| k as f64);
        table.push_row(pairs as f64, vec![converged, report.final_total_deficiency]);
    }
    table
}

fn group_columns() -> Vec<String> {
    let mut cols = Vec::new();
    for spec in CONTENDERS {
        cols.push(format!("{} g1", spec.label()));
        cols.push(format!("{} g2", spec.label()));
    }
    cols
}

fn group_deficiencies(report: &RunReport, rho: &[f64], alpha: &[f64]) -> (f64, f64) {
    // q_n = ρ_n · λ_n with λ_n = 3.5·α_n.
    let q: Vec<f64> = rho.iter().zip(alpha).map(|(r, a)| r * 3.5 * a).collect();
    let g1: Vec<LinkId> = (0..10).map(LinkId::new).collect();
    let g2: Vec<LinkId> = (10..20).map(LinkId::new).collect();
    (
        report.group_deficiency(&q, &g1),
        report.group_deficiency(&q, &g2),
    )
}

/// Runs every contender at every point of an asymmetric-network sweep and
/// tabulates the two group deficiencies (Figs. 7–8).
fn group_table(title: &str, sweep: &Sweep) -> SeriesTable {
    let mut table = SeriesTable::new(title, sweep.axis.label(), group_columns());
    let rows = crate::parallel_map(sweep.scenarios(), |sc| {
        let rho = sc.ratio.expand(sc.links);
        let alpha = match &sc.traffic {
            TrafficSpec::Burst { alpha, .. } => alpha.expand(sc.links),
            other => panic!("asymmetric sweep over non-burst traffic {other:?}"),
        };
        let mut row = Vec::new();
        for spec in CONTENDERS {
            let report = sc
                .clone()
                .with_policy(spec)
                .run()
                .expect("valid sweep point");
            let (g1, g2) = group_deficiencies(&report, &rho, &alpha);
            row.push(g1);
            row.push(g2);
        }
        row
    });
    for (&x, row) in sweep.points.iter().zip(rows) {
        table.push_row(x, row);
    }
    table
}

/// Fig. 7 — group-wide deficiency of the asymmetric network at ρ = 0.9 as
/// `α*` sweeps.
#[must_use]
pub fn fig7(intervals: usize, seed: u64) -> SeriesTable {
    group_table(
        "Fig. 7: asymmetric network, 90% delivery ratio (group deficiency vs alpha*)",
        &scenario::fig7(intervals, seed),
    )
}

/// Fig. 8 — group-wide deficiency of the asymmetric network at fixed
/// `α* = 0.7` as the delivery ratio sweeps.
#[must_use]
pub fn fig8(intervals: usize, seed: u64) -> SeriesTable {
    group_table(
        "Fig. 8: asymmetric network, alpha* = 0.7 (group deficiency vs delivery ratio)",
        &scenario::fig8(intervals, seed),
    )
}

/// Fig. 9 — total deficiency of the control network (N = 10, p = 0.7,
/// ρ = 0.99, T = 2 ms, 100 B) as the Bernoulli arrival rate `λ*` sweeps.
#[must_use]
pub fn fig9(intervals: usize, seed: u64) -> SeriesTable {
    deficiency_table(
        "Fig. 9: control network, 99% delivery ratio (total deficiency vs lambda*)",
        &scenario::fig9(intervals, seed),
    )
}

/// Fig. 10 — the control network at fixed `λ* = 0.78` as the delivery
/// ratio sweeps.
#[must_use]
pub fn fig10(intervals: usize, seed: u64) -> SeriesTable {
    deficiency_table(
        "Fig. 10: control network, lambda* = 0.78 (total deficiency vs delivery ratio)",
        &scenario::fig10(intervals, seed),
    )
}

/// The sensing-error rates of the fault sweep.
pub const FAULT_EPSILONS: [f64; 5] = [0.0, 1e-4, 1e-3, 1e-2, 1e-1];

/// The fault-injection robustness sweep (DESIGN.md §9): an 8-link video
/// network under symmetric carrier-sensing error rate ε plus one link
/// crash/revive event (link 3 goes down at `intervals/4` for
/// `intervals/20` intervals and revives with stale priority state), run on
/// DB-DP's degraded engine. Tabulates the total timely-throughput, the mean
/// time-to-reconverge after a priority desynchronization (in intervals; 0
/// when the run never desynchronized), and the raw divergence / recovery
/// fallback counts.
///
/// The ε = 0 row isolates churn: the only corruption is the revived link's
/// stale priority belief.
#[must_use]
pub fn fig_fault(intervals: usize, seed: u64) -> SeriesTable {
    let crash_at = (intervals as u64) / 4;
    let down = ((intervals as u64) / 20).max(1);
    let scenarios: Vec<_> = FAULT_EPSILONS
        .iter()
        .map(|&eps| {
            scenario::video(8, 0.55, 0.9, seed)
                .with_intervals(intervals)
                .with_fault(FaultSpec::sensing(eps).with_churn(3, crash_at, down))
        })
        .collect();
    let mut table = SeriesTable::new(
        "Fault sweep: 8-link video network with sensing errors and one crash/revive \
         (DB-DP degraded engine vs epsilon)",
        "epsilon",
        vec![
            "throughput".into(),
            "mean reconverge".into(),
            "divergences".into(),
            "fallbacks".into(),
        ],
    );
    let rows = crate::parallel_map(scenarios, |sc| {
        let report = sc.run().expect("valid fault sweep point");
        let stats = report.fault.expect("degraded engine reports fault stats");
        vec![
            report.per_link_throughput.iter().sum::<f64>(),
            stats.mean_time_to_reconverge().unwrap_or(0.0),
            stats.divergences as f64,
            stats.fallbacks as f64,
        ]
    });
    for (&eps, row) in FAULT_EPSILONS.iter().zip(rows) {
        table.push_row(eps, row);
    }
    table
}

/// The expected bad-burst lengths (in intervals) of the burst sweep.
pub const BURST_LENGTHS: [f64; 4] = [1.0, 4.0, 16.0, 64.0];

/// The bad-state sensing-error rates of the burst sweep.
pub const BURST_BAD_RATES: [f64; 2] = [0.1, 0.25];

/// The stationary bad fraction of the burst sweep's Gilbert–Elliott chains.
pub const BURST_BAD_FRACTION: f64 = 0.004;

/// The correlated-fault robustness sweep (DESIGN.md §14): an 8-link
/// control network whose carrier sensing follows a per-link Gilbert–Elliott
/// chain. The x-axis is the expected bad-burst length `L` (`p_exit = 1/L`)
/// with the stationary bad fraction held at 0.4% (`p_enter` solved from
/// `π = p_enter/(p_enter + p_exit)`), so every point injects the same
/// long-run error mass and only the *correlation* of the errors varies:
/// `L = 1` is near-memoryless, `L = 64` concentrates the same errors into
/// rare long outages. Good-state sensing is exact; the bad state errs at
/// each rate in [`BURST_BAD_RATES`] (both directions).
///
/// Each grid point runs twice — fixed R2 miss limit (the default 3) and
/// adaptive `base = 2, cap = 32` — tabulating the mean time-to-reconverge
/// after a priority desynchronization (0 when no desync epoch completed)
/// and the deadline-miss rate `1 − throughput/λ` (the fraction of offered
/// packets that missed their interval). The sweep's finding: fragmented
/// error mass (short, frequent bursts) keeps the priority beliefs
/// permanently desynchronized, while the same mass in rare long outages
/// (`L = 64`) is fully absorbed — recovery completes in the clean gaps.
#[must_use]
pub fn fig_fault_burst(intervals: usize, seed: u64) -> SeriesTable {
    let scenarios: Vec<_> = BURST_LENGTHS
        .iter()
        .flat_map(|&len| {
            BURST_BAD_RATES.iter().flat_map(move |&bad_eps| {
                let p_exit = 1.0 / len;
                let p_enter = p_exit * BURST_BAD_FRACTION / (1.0 - BURST_BAD_FRACTION);
                [false, true].map(move |adaptive| {
                    let mut spec =
                        FaultSpec::sensing(0.0).with_burst(p_enter, p_exit, bad_eps, bad_eps);
                    if adaptive {
                        spec = spec.with_adaptive_recovery(2, 32);
                    }
                    (adaptive, spec)
                })
            })
        })
        .map(|(_, spec)| {
            scenario::control(8, 0.7, 0.95, seed)
                .with_intervals(intervals)
                .with_fault(spec)
        })
        .collect();
    let mut table = SeriesTable::new(
        "Burst sweep: 8-link control network under Gilbert-Elliott sensing, 0.4% \
         stationary bad fraction (fixed vs adaptive R2 recovery vs expected burst length)",
        "burst length",
        BURST_BAD_RATES
            .iter()
            .flat_map(|eps| {
                ["fixed", "adaptive"].into_iter().flat_map(move |mode| {
                    [
                        format!("reconverge ({mode} @{eps})"),
                        format!("miss rate ({mode} @{eps})"),
                    ]
                })
            })
            .collect(),
    );
    let results = crate::parallel_map(scenarios, |sc| {
        let report = sc.run().expect("valid burst sweep point");
        let stats = report.fault.expect("degraded engine reports fault stats");
        let offered = 8.0 * 0.7;
        let miss = 1.0 - report.per_link_throughput.iter().sum::<f64>() / offered;
        [
            stats.mean_time_to_reconverge().unwrap_or(0.0),
            miss.max(0.0),
        ]
    });
    for (&len, grid) in BURST_LENGTHS.iter().zip(results.chunks_exact(4)) {
        table.push_row(len, grid.iter().flatten().copied().collect());
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    // Small interval counts keep these as smoke tests; the binaries run the
    // full lengths.

    #[test]
    fn fig3_has_expected_shape() {
        let t = fig3(40, 7);
        assert_eq!(t.rows().len(), 7);
        assert_eq!(t.columns().len(), 3);
        // At the lightest load every policy's deficiency is small-ish and
        // at the heaviest load FCSMA is the worst.
        let first = &t.rows()[0];
        let last = t.rows().last().unwrap();
        assert!(first.1[1] < last.1[1], "LDF deficiency grows with load");
        assert!(
            last.1[2] >= last.1[1],
            "FCSMA should not beat LDF under overload"
        );
    }

    #[test]
    fn fig5_tracks_convergence() {
        let (table, notes) = fig5(300, 3);
        // q_n, then DB-DP, LDF, DB-DP 3 pairs.
        assert_eq!(notes.len(), 4);
        assert_eq!(notes[0], "requirement q_n = 1.7903");
        assert!(notes[3].starts_with("DB-DP 3 pairs: "), "{}", notes[3]);
        assert!(!table.rows().is_empty());
        assert_eq!(table.columns().len(), 3);
    }

    #[test]
    fn every_figure_is_found_by_its_own_name() {
        for fig in &FIGURES {
            assert!(figure(fig.name).is_some_and(|found| std::ptr::eq(found, fig)));
        }
        assert!(figure("fig11").is_none());
    }

    #[test]
    fn fig6_throughput_increases_with_priority() {
        let t = fig6(300, 5);
        assert_eq!(t.rows().len(), 20);
        let first = t.rows()[0].1[0];
        let last = t.rows()[19].1[0];
        assert!(
            first > last,
            "priority 1 ({first}) should out-deliver priority 20 ({last})"
        );
        assert!(last > 0.0, "lowest priority must not starve");
    }

    #[test]
    fn fig_fault_sweeps_epsilon() {
        let t = fig_fault(200, 9);
        assert_eq!(t.rows().len(), 5);
        assert_eq!(t.columns().len(), 4);
        let worst = &t.rows()[4].1;
        assert!(worst[2] > 0.0, "ε = 0.1 must cause divergences");
        assert!(worst[3] > 0.0, "ε = 0.1 must trigger recovery fallbacks");
        // Every row still delivers traffic.
        for (eps, row) in t.rows() {
            assert!(row[0] > 0.0, "no throughput at ε = {eps}");
        }
    }

    #[test]
    fn fig_fault_burst_sweeps_the_grid() {
        let t = fig_fault_burst(300, 9);
        assert_eq!(t.rows().len(), 4);
        assert_eq!(
            t.columns().len(),
            8,
            "2 bad rates x 2 recovery modes x 2 metrics"
        );
        for (len, row) in t.rows() {
            for v in row {
                assert!(v.is_finite() && *v >= 0.0, "bad cell at L = {len}");
            }
            // Odd columns are deadline-miss rates.
            for i in [1, 3, 5, 7] {
                assert!(row[i] <= 1.0, "miss rate out of range at L = {len}");
            }
        }
    }
}
