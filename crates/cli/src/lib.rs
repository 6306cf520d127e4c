//! # rtmac-cli
//!
//! A command-line front end for the `rtmac` simulator:
//!
//! * `rtmac run` — simulate one network/policy and print a report.
//! * `rtmac compare` — run DB-DP, LDF, and FCSMA on the same network.
//! * `rtmac sweep` — sweep one parameter (`alpha`, `lambda`, `ratio`, or
//!   `p`) and print a deficiency series per policy.
//! * `rtmac timeline` — print ASCII timelines of the DP protocol.
//! * `rtmac emulate` — run a whole deployment over a transport on this box
//!   and check it against the simulator (the replay contract). The
//!   `rtmac-netd` binary of `rtmac-net` runs one link of a deployment.
//!
//! Every simulating subcommand can pull a named workload from the
//! simulator's scenario registry instead of spelling out the network flags:
//!
//! ```text
//! rtmac run --scenario video20
//! rtmac sweep --scenario control10 --param lambda --from 0.5 --to 0.9
//! ```
//!
//! The individual network flags remain for custom networks:
//!
//! ```text
//! rtmac run --links 20 --deadline-ms 20 --payload 1500 --p 0.7 \
//!           --arrivals burst:0.55 --ratio 0.9 --policy db-dp \
//!           --intervals 5000 --seed 1
//! ```
//!
//! Either way, the grammar bottoms out in a [`rtmac::Scenario`]
//! ([`NetworkOpts::to_scenario`]), so the CLI runs exactly the
//! configurations the benchmark suite does. The values of `--arrivals`,
//! `--policy`, `--p`, `--ratio` and `--param` are parsed by
//! [`rtmac::scenario`] itself, so they are spelled exactly as in an
//! `rtmac-netd` scenario file: `--arrivals burst:0.1,0.2:4` or
//! `--policy db-dp:pairs=3` work here too.
//!
//! The argument grammar is deliberately tiny and hand-rolled (the workspace
//! carries no CLI dependency); [`parse`] is a pure function so every corner
//! of it is unit-tested.

mod args;
mod exec;

pub use args::{parse, CliError, Command, EmulateOpts, NetworkOpts, PolicySpec};
pub use exec::execute;

/// Parses and executes a full command line, returning the printable output.
///
/// # Errors
///
/// Returns a [`CliError`] for unknown flags, malformed values, or
/// inconsistent simulation parameters.
pub fn run(argv: &[String]) -> Result<String, CliError> {
    execute(parse(argv)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn end_to_end_run_command() {
        let out = run(&argv(
            "run --links 3 --deadline-ms 2 --payload 100 --p 0.8 \
             --arrivals bernoulli:0.8 --ratio 0.9 --policy ldf \
             --intervals 200 --seed 1",
        ))
        .unwrap();
        assert!(out.contains("LDF"));
        assert!(out.contains("deficiency"));
    }

    #[test]
    fn end_to_end_compare_command() {
        let out = run(&argv(
            "compare --links 4 --deadline-ms 2 --payload 100 --p 0.8 \
             --arrivals bernoulli:0.7 --ratio 0.9 --intervals 150 --seed 2",
        ))
        .unwrap();
        assert!(out.contains("DB-DP"));
        assert!(out.contains("FCSMA"));
    }

    #[test]
    fn end_to_end_sweep_command() {
        let out = run(&argv(
            "sweep --param lambda --from 0.5 --to 0.9 --steps 3 \
             --links 3 --deadline-ms 2 --payload 100 --p 0.8 \
             --ratio 0.9 --intervals 100 --seed 3",
        ))
        .unwrap();
        assert!(out.lines().count() >= 4, "header + 3 rows:\n{out}");
    }

    #[test]
    fn end_to_end_timeline_command() {
        let out = run(&argv(
            "timeline --links 4 --deadline-ms 2 --payload 100 --p 1.0 \
             --arrivals constant --intervals 2 --seed 5",
        ))
        .unwrap();
        assert!(out.contains("interval 0"));
        assert!(out.contains("link#3"));
        assert!(out.contains('#'));
    }

    #[test]
    fn help_is_always_available() {
        let out = run(&argv("help")).unwrap();
        assert!(out.contains("Usage"));
        let out = run(&[]).unwrap();
        assert!(out.contains("Usage"));
    }

    #[test]
    fn bad_input_is_an_error_not_a_panic() {
        assert!(run(&argv("run --links zero")).is_err());
        assert!(run(&argv("frobnicate")).is_err());
        assert!(run(&argv("run --links 2 --arrivals nope:1 --ratio 0.9")).is_err());
    }
}
