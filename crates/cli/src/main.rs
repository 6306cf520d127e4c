//! The `rtmac` command-line simulator.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match rtmac_cli::run(&args) {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("error: {err}");
            if err.is_usage() {
                eprintln!("run `rtmac help` for usage");
            }
            ExitCode::FAILURE
        }
    }
}
