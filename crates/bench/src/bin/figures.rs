//! Regenerates the paper's figures (Figs. 3–10) and the fault sweeps.
//! Usage: `figures [NAME…] [--quick | --intervals N]`.
//!
//! Runs each named entry of [`rtmac_bench::figures::FIGURES`], or every
//! entry in table order when none is named, and prints its text table and
//! notes, a blank line between figures. `--quick` shrinks each horizon
//! 20×. Only a run at a figure's published horizon writes its CSV to
//! `bench_results/`.

use rtmac_bench::figures::{figure, Figure, FIGURES, SEED};
use rtmac_bench::{usage_exit, Args};

fn main() {
    let args = Args::from_env("figures", true);
    let chosen: Vec<&Figure> = if args.names.is_empty() {
        FIGURES.iter().collect()
    } else {
        let known = || FIGURES.map(|f| f.name).join(", ");
        args.names
            .iter()
            .map(|name| {
                figure(name).unwrap_or_else(|| {
                    usage_exit(
                        "figures",
                        &format!("unknown figure `{name}` (one of {})", known()),
                    )
                })
            })
            .collect()
    };
    for (i, fig) in chosen.into_iter().enumerate() {
        let intervals = args.intervals(fig.intervals);
        eprintln!("running {} with {intervals} intervals...", fig.name);
        let (table, notes) = (fig.run)(intervals, SEED);
        if i > 0 {
            println!();
        }
        print!("{}", table.render());
        for note in notes {
            println!("# {note}");
        }
        if args.publishes(fig.intervals) {
            table
                .write_csv("bench_results", fig.name)
                .expect("write csv");
        }
    }
}
