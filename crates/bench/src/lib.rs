//! # rtmac-bench
//!
//! The benchmark harness that regenerates every figure of the paper's
//! evaluation (Section VI) plus the ablations called out in DESIGN.md.
//!
//! * [`figures`] — one parameterized runner per paper figure (Figs. 3–10)
//!   and per fault sweep, each returning a [`table::SeriesTable`] with the
//!   same series the paper plots, and [`figures::FIGURES`], the one table
//!   of their names, seed and published horizons. The `figures` binary
//!   prints them and, at the published horizon, writes CSVs under
//!   `bench_results/`.
//! * [`table`] — tiny text/CSV table rendering.
//! * [`kernel`] — interval-kernel and Runner throughput measurement behind
//!   the `bench_kernel` binary and its JSON-lines history
//!   `bench_results/BENCH_kernel.jsonl`.
//! * [`Args`] — the command line every other binary shares,
//!   `[NAME…] [--quick | --intervals N]`; a mistyped one exits 2 with one
//!   line on stderr.
//!
//! Run a full reproduction with
//! `cargo run --release -p rtmac-bench --bin figures`.

pub mod figures;
pub mod kernel;
pub mod table;

/// Maps `f` over `items` on the default [`rtmac::Runner`] worker pool (one
/// worker per CPU, shared work queue). The figure sweeps use it to run
/// independent simulation points concurrently — results come back in input
/// order, so output is identical to the sequential run regardless of the
/// worker count.
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    rtmac::Runner::default().map(items, f)
}

/// A bench binary's command line: `[NAME…] [--quick | --intervals N]`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Args {
    /// The positional arguments (figure names), in order.
    pub names: Vec<String>,
    /// `--quick` or `--intervals N`, the later flag winning; `None` runs
    /// the published horizon.
    horizon: Option<Horizon>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Horizon {
    Quick,
    Intervals(usize),
}

impl Args {
    /// Parses a bench binary's arguments (everything after the program
    /// name).
    ///
    /// # Errors
    ///
    /// Returns a one-line message for an unknown flag or for a missing,
    /// unparseable or zero `--intervals` value.
    pub fn parse(args: &[String]) -> Result<Args, String> {
        let mut parsed = Args::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--quick" => parsed.horizon = Some(Horizon::Quick),
                "--intervals" => {
                    let value = it.next().ok_or("--intervals needs a value")?;
                    match value.parse::<usize>() {
                        Ok(0) => return Err("--intervals must be at least 1".into()),
                        Ok(n) => parsed.horizon = Some(Horizon::Intervals(n)),
                        Err(_) => return Err(format!("bad value `{value}` for --intervals")),
                    }
                }
                flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
                name => parsed.names.push(name.to_string()),
            }
        }
        Ok(parsed)
    }

    /// This process's arguments. A usage error, or any name when
    /// `takes_names` is false, ends the process through [`usage_exit`].
    #[must_use]
    pub fn from_env(bin: &str, takes_names: bool) -> Args {
        let args: Vec<String> = std::env::args().skip(1).collect();
        match Args::parse(&args) {
            Ok(parsed) => match parsed.names.first() {
                Some(name) if !takes_names => {
                    usage_exit(bin, &format!("unexpected argument `{name}`"))
                }
                _ => parsed,
            },
            Err(e) => usage_exit(bin, &e),
        }
    }

    /// The interval count to run for a table published at `published`
    /// intervals: `published` itself, a twentieth of it (at least 50) with
    /// `--quick`, or the `--intervals` value.
    #[must_use]
    pub fn intervals(&self, published: usize) -> usize {
        match self.horizon {
            None => published,
            Some(Horizon::Quick) => (published / 20).max(50),
            Some(Horizon::Intervals(n)) => n,
        }
    }

    /// Whether the run is at the published horizon. Only such a run may
    /// rewrite the tracked CSVs under `bench_results/`.
    #[must_use]
    pub fn publishes(&self, published: usize) -> bool {
        self.intervals(published) == published
    }
}

/// Prints `{bin}: {msg}` to stderr and exits with the usage-error code 2.
pub fn usage_exit(bin: &str, msg: &str) -> ! {
    eprintln!("{bin}: {msg}");
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| (*x).to_string()).collect()
    }

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map((0..16).collect(), |x: i32| x * x);
        assert_eq!(out, (0..16).map(|x| x * x).collect::<Vec<i32>>());
    }

    #[test]
    fn default_is_full() {
        let parsed = Args::parse(&args(&["fig3", "fig9"])).unwrap();
        assert_eq!(parsed.names, ["fig3", "fig9"]);
        assert_eq!(parsed.intervals(5000), 5000);
        assert!(parsed.publishes(5000));
    }

    #[test]
    fn quick_divides_by_twenty() {
        let quick = Args::parse(&args(&["--quick"])).unwrap();
        assert_eq!(quick.intervals(5000), 250);
        assert_eq!(quick.intervals(100), 50);
        assert!(!quick.publishes(5000));
    }

    #[test]
    fn explicit_intervals_win() {
        let parsed = Args::parse(&args(&["--quick", "--intervals", "123"])).unwrap();
        assert_eq!(parsed.intervals(5000), 123);
        assert!(!parsed.publishes(5000));
        assert!(Args::parse(&args(&["--intervals", "5000"]))
            .unwrap()
            .publishes(5000));
        assert_eq!(
            Args::parse(&args(&["--intervals", "bogus"])),
            Err("bad value `bogus` for --intervals".into())
        );
    }

    #[test]
    fn mistyped_arguments_are_errors() {
        for (argv, says) in [
            (&["--quik"][..], "unknown flag `--quik`"),
            (&["--intervals"], "--intervals needs a value"),
            (&["--intervals", "0"], "--intervals must be at least 1"),
            (&["--intervals", "-5"], "bad value `-5` for --intervals"),
        ] {
            assert_eq!(Args::parse(&args(argv)), Err(says.into()), "{argv:?}");
        }
    }
}
