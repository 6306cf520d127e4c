//! The scenario file's text and the handshake digest, pinned by value.
//! Every node of a deployment digests its `Scenario`, and the benchmark's
//! workload files are parsed by this crate, so the rendered text of each
//! registry scenario and the digest of each parsed workload file must not
//! move when the code that spells them changes.

use rtmac::scenario;
use rtmac_net::{fnv1a, scenario_digest, scenario_file, NetError, FNV_OFFSET};

/// FNV-1a of `scenario_file::render` for every registry scenario the format
/// can express; the others (fault injection, admission) must refuse.
const RENDERED: [(&str, Option<u64>); 8] = [
    ("video20", Some(0x90C6_F935_3AEB_7266)),
    ("control10", Some(0xC046_7709_9B41_6526)),
    ("asym", Some(0x488F_186E_2333_6EB3)),
    ("tiny", Some(0xFEA2_E7FF_59F7_33C5)),
    ("bursty", None),
    ("hidden-terminal", None),
    ("poisson-churn", None),
    ("overload-admission", None),
];

#[test]
fn rendered_text_of_every_registry_scenario() {
    assert_eq!(RENDERED.map(|(name, _)| name), scenario::NAMES);
    let mut wrong = Vec::new();
    for (name, want) in RENDERED {
        let sc = scenario::by_name(name).expect("registry name");
        match (scenario_file::render(&sc), want) {
            (Ok(text), Some(want)) => {
                let got = fnv1a(FNV_OFFSET, text.as_bytes());
                if got != want {
                    wrong.push(format!("{name} rendered {got:#018x}:\n{text}"));
                }
            }
            (Err(NetError::Unsupported(_)), None) => {}
            (got, _) => wrong.push(format!("{name}: {got:?}")),
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

#[test]
fn digest_of_the_benchmark_workload_files() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../benchmark/workloads");
    for (file, want) in [
        ("video20.scenario", 0x15B5_442C_6457_0EBE),
        ("video10k.scenario", 0x1176_BBC5_4D32_BDF6),
    ] {
        let sc = scenario_file::load(&format!("{dir}/{file}")).expect("workload file parses");
        let got = scenario_digest(&sc);
        assert_eq!(got, want, "{file} digests to {got:#018x}");
    }
}
