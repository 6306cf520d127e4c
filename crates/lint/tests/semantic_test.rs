//! Integration tests for the interprocedural (call-graph) rules, driven
//! by the semantic fixture workspace under `tests/fixtures/semws`, plus
//! the dogfood pass over the real workspace and a seeded-mutation check
//! that the hot-path prover convicts a planted allocation.

use std::fs;
use std::path::{Path, PathBuf};

use rtmac_lint::{config, lint_workspace_with_config_file, rules, Engine};

fn semws_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/semws")
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root resolves")
}

const SEMANTIC_RULES: [&str; 4] = [
    "hot-path-alloc",
    "panic-reachability",
    "rng-lane-discipline",
    "dead-waiver-sweep",
];

/// Every planted semantic violation is found at its exact position —
/// including the hot-path allocation whose witness chain crosses from
/// the `alpha` fixture crate into `beta` — and nothing else is.
#[test]
fn semantic_fixture_violations_are_found_exactly() {
    let got: Vec<(String, usize, usize, String)> = lint_workspace_with_config_file(&semws_root())
        .expect("semws fixture lint runs")
        .into_iter()
        .map(|f| (f.path, f.line, f.col, f.rule))
        .collect();
    let expected: Vec<(String, usize, usize, String)> = [
        // sorted by (path, line, col, rule) — the engine's output order
        ("alpha/src/api.rs", 14, 5, "panic-reachability"),
        ("alpha/src/dead.rs", 13, 1, "dead-waiver-sweep"),
        ("alpha/src/rng_lanes.rs", 5, 29, "rng-lane-discipline"),
        ("alpha/src/rng_lanes.rs", 11, 24, "rng-lane-discipline"),
        ("beta/src/scratch.rs", 6, 21, "hot-path-alloc"),
    ]
    .into_iter()
    .map(|(p, l, c, r)| (p.to_string(), l, c, r.to_string()))
    .collect();
    assert_eq!(got, expected);
}

/// The cross-crate witness chain is spelled out in the message, so a
/// conviction two crates away stays explainable.
#[test]
fn cross_crate_finding_reports_its_witness_chain() {
    let findings = lint_workspace_with_config_file(&semws_root()).expect("semws lint runs");
    let hot = findings
        .iter()
        .find(|f| f.rule == "hot-path-alloc")
        .expect("hot-path finding present");
    assert!(
        hot.message
            .contains("Engine::run_interval \u{2192} stage \u{2192} scratch_fill"),
        "witness chain missing from: {}",
        hot.message
    );
}

/// Dogfood: the real workspace has zero findings from the semantic
/// rules. The hot paths stay provably allocation-free, every pub API
/// that can panic says so, and no waiver outlived its call path.
#[test]
fn real_workspace_has_zero_semantic_findings() {
    let semantic: Vec<_> = lint_workspace_with_config_file(&repo_root())
        .expect("workspace lint runs")
        .into_iter()
        .filter(|f| SEMANTIC_RULES.contains(&f.rule.as_str()))
        .collect();
    assert!(
        semantic.is_empty(),
        "semantic findings crept into the workspace:\n{}",
        semantic
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Seeded-mutation check: planting a `clone()` in `DpEngine`'s interval
/// path of a copied `dp.rs` must be convicted by `hot-path-alloc` at the
/// exact planted position.
#[test]
fn seeded_mutation_in_dp_interval_path_is_convicted() {
    let source =
        fs::read_to_string(repo_root().join("crates/mac/src/dp.rs")).expect("dp.rs readable");
    let anchor = "        report.candidates.extend_from_slice(candidates);\n";
    assert!(
        source.contains(anchor),
        "mutation anchor vanished from dp.rs"
    );
    let planted = "        let _mutation = report.candidates.clone();\n";
    let mutated = source.replace(anchor, &format!("{anchor}{planted}"));
    let anchor_line = source[..source.find(anchor).expect("anchor found")]
        .lines()
        .count();
    let expected_line = anchor_line + 2; // planted directly below the anchor
    let expected_col = planted.find("clone").expect("clone in planted line") + 1;

    // A scratch workspace holding only the mutated file and a config that
    // runs hot-path-alloc alone, rooted at the engine's steppers.
    let root = std::env::temp_dir().join(format!("rtmac-lint-mutation-{}", std::process::id()));
    let src = root.join("src");
    fs::create_dir_all(&src).expect("scratch workspace dir");
    fs::write(src.join("dp.rs"), mutated).expect("write mutated copy");
    let mut config = String::from(
        "[rules.hot-path-alloc]\nseverity = \"deny\"\nroots = [\"DpEngine::step\", \"DpEngine::step_with_candidates\", \"DpEngine::step_with_coins\"]\n",
    );
    for rule in rules::RULES {
        if rule.id != "hot-path-alloc" {
            config.push_str(&format!("[rules.{}]\nseverity = \"allow\"\n", rule.id));
        }
    }
    let parsed = config::parse(&config).expect("generated config parses");
    let findings = Engine::new(&parsed)
        .expect("engine builds")
        .lint_workspace(&root)
        .expect("mutated workspace lints");
    fs::remove_dir_all(&root).ok();

    let convicted: Vec<_> = findings
        .iter()
        .map(|f| (f.path.as_str(), f.line, f.col, f.rule.as_str()))
        .collect();
    assert_eq!(
        convicted,
        vec![("src/dp.rs", expected_line, expected_col, "hot-path-alloc")],
        "expected exactly the planted clone() to be convicted"
    );
}
