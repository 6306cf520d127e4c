//! `rtmac-netd` — one link of a DP deployment over UDP.
//!
//! A thin shell around [`rtmac_net::netd`]: parse flags, run the lockstep
//! node, print the measurement summary. Exit codes: 0 clean run, 1
//! protocol failure (desync / timeout / transport), 2 usage error.

use rtmac_net::netd;

fn main() {
    std::process::exit(real_main());
}

fn real_main() -> i32 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", netd::USAGE);
        return if args.is_empty() { 2 } else { 0 };
    }
    let opts = match netd::parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("rtmac-netd: {e}");
            eprintln!("run `rtmac-netd --help` for usage");
            return 2;
        }
    };
    match netd::run(&opts) {
        Ok(report) => {
            println!(
                "link {} done: fingerprint {:#018x}, {} frame(s), \
                 {} wall-clock deadline miss(es), max interval {} us",
                report.link,
                report.fingerprint,
                report.frames,
                report.misses,
                report.max_interval.as_micros()
            );
            0
        }
        Err(e) => {
            eprintln!("rtmac-netd: {e}");
            // Configuration problems (bad scenario file, mis-sized peer
            // list) are deployment mistakes, not protocol failures — keep
            // them in the usage-error bucket the exit-code table promises.
            match e {
                rtmac_net::NetError::Config(_)
                | rtmac_net::NetError::Parse { .. }
                | rtmac_net::NetError::Unsupported(_) => 2,
                _ => 1,
            }
        }
    }
}
