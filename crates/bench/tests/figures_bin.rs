//! The bench binaries act only on a well-formed command line. `figures`
//! prints a figure's table exactly as the library renders it and, away
//! from the published horizon, writes nothing. An unknown flag, a
//! missing, unparseable or zero `--intervals` and an unknown figure name
//! exit 2 with one line on stderr before anything runs.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use rtmac_bench::figures::{self, SEED};

/// Runs `bin` with `args` in a fresh, empty directory and returns its
/// output and how many entries it left in that directory.
fn run_in_fresh_dir(bin: &Path, args: &[&str]) -> (Output, usize) {
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "rtmac-figures-bin-{}-{}",
        std::process::id(),
        args.join("_").replace(['-', '/'], "")
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(bin)
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("the binary runs");
    let left = std::fs::read_dir(&dir).unwrap().count();
    let _ = std::fs::remove_dir_all(&dir);
    (out, left)
}

#[test]
fn a_short_run_prints_the_table_and_writes_nothing() {
    let bin = Path::new(env!("CARGO_BIN_EXE_figures"));
    let (out, left) = run_in_fresh_dir(bin, &["fig3", "--intervals", "20"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        figures::fig3(20, SEED).render()
    );
    assert_eq!(left, 0, "a run off the published horizon wrote files");
}

#[test]
fn usage_errors_exit_2_with_one_line_and_write_nothing() {
    let cases: [(&str, &[&str]); 11] = [
        (env!("CARGO_BIN_EXE_figures"), &["--quik"]),
        (env!("CARGO_BIN_EXE_figures"), &["fig3", "--intervals"]),
        (
            env!("CARGO_BIN_EXE_figures"),
            &["fig3", "--intervals", "many"],
        ),
        (env!("CARGO_BIN_EXE_figures"), &["fig3", "--intervals", "0"]),
        (env!("CARGO_BIN_EXE_figures"), &["fig3", "fig11", "--quick"]),
        (env!("CARGO_BIN_EXE_stationary"), &["--frobnicate"]),
        (env!("CARGO_BIN_EXE_stationary"), &["fig3"]),
        (env!("CARGO_BIN_EXE_optimality"), &["--intervals", "0"]),
        (env!("CARGO_BIN_EXE_drift"), &["--frobnicate"]),
        (env!("CARGO_BIN_EXE_ablations"), &["--intervals", "x"]),
        (env!("CARGO_BIN_EXE_ablations"), &["--quik"]),
    ];
    for (bin, args) in cases {
        let (out, left) = run_in_fresh_dir(Path::new(bin), args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{bin} {args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{bin} {args:?} printed a table");
        assert_eq!(left, 0, "{bin} {args:?} wrote files");
    }
}
