//! # rtmac-lint
//!
//! A dependency-free static-analysis pass that defends the workspace's
//! two core contracts:
//!
//! * **Determinism** — simulation output is a pure function of
//!   (scenario, seed): no wall-clock reads, no OS-entropy RNGs outside
//!   the audited `crates/sim/src/rng.rs`, no hash-ordered iteration in
//!   result paths.
//! * **Panic hygiene** — library crates propagate errors or document
//!   invariants instead of sprinkling `unwrap()`/`expect()`/`panic!`,
//!   and never print to stdout.
//!
//! Rules, severities, scopes, and audited waivers live in the checked-in
//! `lint.toml`; inline waivers look like
//! `// lint: allow(rule-id) — reason` on (or directly above) the
//! offending line. Output is rustc-style `path:line:col: rule-id:
//! message` with deterministic ordering, so CI diffs are stable. Run
//! `cargo run -p rtmac-lint -- --workspace` locally, or `--explain
//! <rule>` for the rationale behind any rule.

pub mod callgraph;
pub mod config;
pub mod items;
pub mod reach;
pub mod rules;
pub mod syntax;
pub mod tokenize;

use std::fs;
use std::path::{Path, PathBuf};

use config::{Config, Severity};
use rules::{Rule, RuleKind, RULES};

/// A reportable finding after waiver application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// Rule id.
    pub rule: String,
    /// Effective severity (never [`Severity::Allow`]).
    pub severity: Severity,
    /// Description.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let tag = match self.severity {
            Severity::Warn => " (warn)",
            _ => "",
        };
        write!(
            f,
            "{}:{}:{}: {}{}: {}",
            self.path, self.line, self.col, self.rule, tag, self.message
        )
    }
}

/// A rule with its configuration overrides resolved.
struct EffectiveRule {
    rule: &'static Rule,
    severity: Severity,
    paths: Vec<String>,
    allow_paths: Vec<String>,
    tokens: Vec<String>,
    /// Hot-path root functions for reachability rules.
    roots: Vec<String>,
}

/// The resolved lint engine.
pub struct Engine {
    exclude: Vec<String>,
    settings: Vec<EffectiveRule>,
    path_waivers: Vec<config::PathWaiver>,
}

/// An inline `// lint: allow(rule) — reason` comment.
#[derive(Debug, Clone)]
struct InlineWaiver {
    line: usize,
    rule: String,
    has_reason: bool,
    /// The line the waiver covers: its own line if it shares it with
    /// code, otherwise the first code-bearing line below its comment
    /// block (so multi-line justification comments work).
    target_line: usize,
    used: bool,
}

impl Engine {
    /// Resolves `config` against the built-in rule catalog.
    ///
    /// # Errors
    ///
    /// Returns a message if the config names an unknown rule or waives a
    /// rule that does not exist.
    pub fn new(config: &Config) -> Result<Self, String> {
        for id in config.rules.keys() {
            if rules::rule_by_id(id).is_none() {
                return Err(format!("lint.toml: unknown rule id {id:?}"));
            }
        }
        for w in &config.waivers {
            if rules::rule_by_id(&w.rule).is_none() {
                return Err(format!(
                    "lint.toml: [[waiver]] names unknown rule {:?}",
                    w.rule
                ));
            }
        }
        let settings = RULES
            .iter()
            .map(|rule| {
                let over = config.rules.get(rule.id);
                EffectiveRule {
                    rule,
                    severity: over
                        .and_then(|o| o.severity)
                        .unwrap_or(rule.default_severity),
                    paths: over.and_then(|o| o.paths.clone()).unwrap_or_default(),
                    allow_paths: over.and_then(|o| o.allow_paths.clone()).unwrap_or_default(),
                    tokens: over.and_then(|o| o.tokens.clone()).unwrap_or_else(|| {
                        rule.default_tokens
                            .iter()
                            .map(|t| (*t).to_string())
                            .collect()
                    }),
                    roots: over.and_then(|o| o.roots.clone()).unwrap_or_else(|| {
                        if matches!(rule.kind, RuleKind::HotPathAlloc) {
                            rules::HOT_PATH_DEFAULT_ROOTS
                                .iter()
                                .map(|r| (*r).to_string())
                                .collect()
                        } else {
                            Vec::new()
                        }
                    }),
                }
            })
            .collect();
        Ok(Engine {
            exclude: config.exclude.clone(),
            settings,
            path_waivers: config.waivers.clone(),
        })
    }

    /// Lints every `.rs` file and crate manifest under `root`: per-file
    /// token/expression rules first, then the interprocedural passes over
    /// the workspace call graph, then waiver application and bookkeeping.
    ///
    /// # Errors
    ///
    /// Returns a message for I/O failures or non-UTF-8 sources.
    pub fn lint_workspace(&self, root: &Path) -> Result<Vec<Finding>, String> {
        let mut rs_files = Vec::new();
        let mut manifests = Vec::new();
        walk(root, root, &self.exclude, &mut rs_files, &mut manifests)?;
        // Load and scan every file once; the call-graph pass reuses the
        // same token streams.
        let mut units = Vec::with_capacity(rs_files.len());
        for rel in rs_files {
            let text = fs::read_to_string(root.join(&rel))
                .map_err(|e| format!("{rel}: cannot read: {e}"))?;
            let file = tokenize::lex(&text);
            let syn = syntax::scan(&file);
            units.push(callgraph::FileUnit { rel, file, syn });
        }
        let mut raw_per_file: Vec<Vec<rules::RawFinding>> =
            units.iter().map(|u| self.file_rules(u)).collect();
        let inline_per_file: Vec<Vec<InlineWaiver>> = units
            .iter()
            .map(|u| collect_inline_waivers(&u.file))
            .collect();
        self.semantic_pass(&units, &inline_per_file, &mut raw_per_file);

        let mut waiver_used = vec![false; self.path_waivers.len()];
        let mut findings = Vec::new();
        for ((unit, raw), inline) in units.iter().zip(raw_per_file).zip(inline_per_file) {
            self.apply_waivers(&unit.rel, raw, inline, &mut findings, &mut waiver_used);
        }
        self.check_crate_attrs(root, &manifests, &mut findings)?;
        self.report_stale_path_waivers(&waiver_used, &mut findings);
        findings.sort_by(|a, b| {
            (&a.path, a.line, a.col, &a.rule).cmp(&(&b.path, b.line, b.col, &b.rule))
        });
        Ok(findings)
    }

    fn severity_of(&self, rule_id: &str) -> Severity {
        self.settings
            .iter()
            .find(|s| s.rule.id == rule_id)
            .map_or(Severity::Deny, |s| s.severity)
    }

    /// Runs the per-file token/expression rules over one unit.
    fn file_rules(&self, unit: &callgraph::FileUnit) -> Vec<rules::RawFinding> {
        let mut raw = Vec::new();
        for setting in &self.settings {
            if setting.severity == Severity::Allow {
                continue;
            }
            if !matches!(
                setting.rule.kind,
                RuleKind::Ident
                    | RuleKind::Macro
                    | RuleKind::Method
                    | RuleKind::HashIter
                    | RuleKind::Index
                    | RuleKind::FieldArith
                    | RuleKind::NanosArith
                    | RuleKind::FloatAccum
                    | RuleKind::RelaxedOrdering
                    | RuleKind::LockLoop
            ) {
                continue;
            }
            if !path_applies(&unit.rel, &setting.paths)
                || path_listed(&unit.rel, &setting.allow_paths)
            {
                continue;
            }
            raw.extend(rules::scan(
                setting.rule,
                &unit.file,
                &unit.syn,
                &setting.tokens,
            ));
        }
        raw
    }

    /// Runs the interprocedural rules over the workspace call graph and
    /// pushes their findings into the per-file raw lists (so the normal
    /// waiver machinery applies to them unchanged).
    fn semantic_pass(
        &self,
        units: &[callgraph::FileUnit],
        inline_per_file: &[Vec<InlineWaiver>],
        raw_per_file: &mut [Vec<rules::RawFinding>],
    ) {
        let wanted: Vec<&EffectiveRule> = self
            .settings
            .iter()
            .filter(|s| {
                s.severity != Severity::Allow
                    && matches!(
                        s.rule.kind,
                        RuleKind::HotPathAlloc
                            | RuleKind::PanicReach
                            | RuleKind::RngLane
                            | RuleKind::DeadWaiver
                    )
            })
            .collect();
        if wanted.is_empty() {
            return;
        }
        let graph = callgraph::Graph::build(units);
        for setting in wanted {
            let hits = match setting.rule.kind {
                RuleKind::HotPathAlloc => reach::hot_path_alloc(
                    units,
                    &graph,
                    setting.rule.id,
                    &setting.roots,
                    &setting.tokens,
                ),
                RuleKind::PanicReach => {
                    reach::panic_reachability(units, &graph, setting.rule.id, &setting.tokens)
                }
                RuleKind::RngLane => {
                    reach::rng_lane(units, &graph, setting.rule.id, &setting.tokens)
                }
                RuleKind::DeadWaiver => {
                    let sites: Vec<reach::WaiverSite> = inline_per_file
                        .iter()
                        .enumerate()
                        .flat_map(|(fi, ws)| {
                            ws.iter().map(move |w| reach::WaiverSite {
                                file: fi,
                                line: w.line,
                                rule: w.rule.clone(),
                                target_line: w.target_line,
                            })
                        })
                        .collect();
                    reach::dead_waivers(units, &graph, setting.rule.id, &sites)
                }
                _ => Vec::new(),
            };
            for (fi, f) in hits {
                let rel = &units[fi].rel;
                if path_applies(rel, &setting.paths) && !path_listed(rel, &setting.allow_paths) {
                    raw_per_file[fi].push(f);
                }
            }
        }
    }

    /// Applies inline and path waivers to one file's raw findings, then
    /// reports waiver bookkeeping findings (missing reasons, stale
    /// waivers).
    fn apply_waivers(
        &self,
        rel: &str,
        raw: Vec<rules::RawFinding>,
        mut inline: Vec<InlineWaiver>,
        findings: &mut Vec<Finding>,
        path_waiver_used: &mut [bool],
    ) {
        for f in raw {
            let severity = self.severity_of(f.rule);
            let mut suppressed = false;
            for w in inline.iter_mut() {
                if w.rule == f.rule && (w.line == f.line || w.target_line == f.line) {
                    w.used = true;
                    suppressed = true;
                }
            }
            for (i, w) in self.path_waivers.iter().enumerate() {
                if w.rule == f.rule && path_listed(rel, std::slice::from_ref(&w.path)) {
                    path_waiver_used[i] = true;
                    suppressed = true;
                }
            }
            if !suppressed {
                findings.push(Finding {
                    path: rel.to_string(),
                    line: f.line,
                    col: f.col,
                    rule: f.rule.to_string(),
                    severity,
                    message: f.message,
                });
            }
        }

        // Waiver bookkeeping: missing reasons and stale waivers.
        let missing_sev = self.severity_of("waiver-missing-reason");
        let stale_sev = self.severity_of("stale-waiver");
        for w in &inline {
            if !w.has_reason && missing_sev != Severity::Allow {
                findings.push(Finding {
                    path: rel.to_string(),
                    line: w.line,
                    col: 1,
                    rule: "waiver-missing-reason".to_string(),
                    severity: missing_sev,
                    message: format!(
                        "waiver for `{}` lacks a reason; write `lint: allow({}) — <why>`",
                        w.rule, w.rule
                    ),
                });
            }
            if !w.used && stale_sev != Severity::Allow {
                findings.push(Finding {
                    path: rel.to_string(),
                    line: w.line,
                    col: 1,
                    rule: "stale-waiver".to_string(),
                    severity: stale_sev,
                    message: format!("waiver for `{}` no longer suppresses anything", w.rule),
                });
            }
        }
    }

    /// The `missing-crate-attrs` rule: every `[package]` manifest either
    /// inherits the workspace lint table or its crate roots carry the
    /// hygiene attributes.
    fn check_crate_attrs(
        &self,
        root: &Path,
        manifests: &[String],
        findings: &mut Vec<Finding>,
    ) -> Result<(), String> {
        let severity = self.severity_of("missing-crate-attrs");
        if severity == Severity::Allow {
            return Ok(());
        }
        for rel in manifests {
            let text = fs::read_to_string(root.join(rel))
                .map_err(|e| format!("{rel}: cannot read: {e}"))?;
            if !has_section(&text, "package") {
                continue; // virtual workspace manifest
            }
            if manifest_inherits_workspace_lints(&text) {
                continue;
            }
            let dir = Path::new(rel).parent().unwrap_or(Path::new(""));
            let mut roots: Vec<String> = Vec::new();
            for cand in ["src/lib.rs", "src/main.rs"] {
                let r = dir.join(cand);
                if root.join(&r).is_file() {
                    roots.push(r.to_string_lossy().replace('\\', "/"));
                }
            }
            if roots.is_empty() {
                continue;
            }
            for crate_root in roots {
                let src = fs::read_to_string(root.join(&crate_root))
                    .map_err(|e| format!("{crate_root}: cannot read: {e}"))?;
                let masked = tokenize::lex(&src);
                for attr in ["#![forbid(unsafe_code)]", "#![warn(missing_docs)]"] {
                    let want: String = attr.chars().filter(|c| !c.is_whitespace()).collect();
                    let found = masked.code.iter().any(|line| {
                        let squashed: String =
                            line.chars().filter(|c| !c.is_whitespace()).collect();
                        squashed.contains(&want)
                    });
                    if !found {
                        findings.push(Finding {
                            path: crate_root.clone(),
                            line: 1,
                            col: 1,
                            rule: "missing-crate-attrs".to_string(),
                            severity,
                            message: format!(
                                "crate root lacks `{attr}` and {rel} does not set \
                                 `lints.workspace = true`"
                            ),
                        });
                    }
                }
            }
        }
        Ok(())
    }

    fn report_stale_path_waivers(&self, used: &[bool], findings: &mut Vec<Finding>) {
        let severity = self.severity_of("stale-waiver");
        if severity == Severity::Allow {
            return;
        }
        for (w, &used) in self.path_waivers.iter().zip(used) {
            if !used {
                findings.push(Finding {
                    path: "lint.toml".to_string(),
                    line: 1,
                    col: 1,
                    rule: "stale-waiver".to_string(),
                    severity,
                    message: format!(
                        "[[waiver]] for rule `{}` on {:?} no longer suppresses anything",
                        w.rule, w.path
                    ),
                });
            }
        }
    }
}

/// Whether `rel` falls under any of `paths` (empty list = applies
/// everywhere).
fn path_applies(rel: &str, paths: &[String]) -> bool {
    paths.is_empty() || path_listed(rel, paths)
}

/// Whether `rel` equals, or lies under, one of `paths`.
fn path_listed(rel: &str, paths: &[String]) -> bool {
    paths.iter().any(|p| {
        let p = p.trim_end_matches('/');
        rel == p
            || rel
                .strip_prefix(p)
                .is_some_and(|rest| rest.starts_with('/'))
    })
}

/// Collects `lint: allow(rule)` comments from a lexed file.
fn collect_inline_waivers(file: &tokenize::SourceFile) -> Vec<InlineWaiver> {
    let mut waivers = Vec::new();
    for (idx, comment) in file.comments.iter().enumerate() {
        let mut rest = comment.as_str();
        while let Some(pos) = rest.find("lint:") {
            let after = rest[pos + 5..].trim_start();
            let Some(args) = after.strip_prefix("allow(") else {
                rest = &rest[pos + 5..];
                continue;
            };
            let Some(close) = args.find(')') else {
                break;
            };
            let rule = args[..close].trim().to_string();
            // Only known rule ids count — this keeps prose that merely
            // *describes* the waiver syntax (like this crate's docs) from
            // registering as a waiver, and makes a typo'd waiver visible
            // through the original finding it fails to suppress.
            if rules::rule_by_id(&rule).is_none() {
                rest = &args[close + 1..];
                continue;
            }
            let tail = args[close + 1..]
                .trim_start()
                .trim_start_matches(['—', '–', '-', ':', ' '])
                .trim();
            let target_line = if file.code[idx].trim().is_empty() {
                // Comment-only line: cover the first code-bearing line
                // below the comment block.
                (idx + 1..file.code.len())
                    .find(|&i| !file.code[i].trim().is_empty())
                    .map_or(idx + 1, |i| i + 1)
            } else {
                idx + 1
            };
            waivers.push(InlineWaiver {
                line: idx + 1,
                rule,
                has_reason: !tail.is_empty(),
                target_line,
                used: false,
            });
            rest = &args[close + 1..];
        }
    }
    waivers
}

/// Recursively collects workspace-relative `.rs` files and `Cargo.toml`
/// manifests, in sorted order, honoring the exclude list.
fn walk(
    root: &Path,
    dir: &Path,
    exclude: &[String],
    rs_files: &mut Vec<String>,
    manifests: &mut Vec<String>,
) -> Result<(), String> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .map_err(|e| format!("{}: cannot read dir: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        let Ok(rel_path) = path.strip_prefix(root) else {
            continue;
        };
        let rel = rel_path.to_string_lossy().replace('\\', "/");
        if exclude.iter().any(|x| {
            let x = x.trim_end_matches('/');
            rel == x
                || rel
                    .strip_prefix(x)
                    .is_some_and(|rest| rest.starts_with('/'))
        }) {
            continue;
        }
        let name = path.file_name().map(|n| n.to_string_lossy().to_string());
        if path.is_dir() {
            if name.as_deref().is_some_and(|n| n.starts_with('.')) {
                continue;
            }
            walk(root, &path, exclude, rs_files, manifests)?;
        } else if rel.ends_with(".rs") {
            rs_files.push(rel);
        } else if name.as_deref() == Some("Cargo.toml") {
            manifests.push(rel);
        }
    }
    Ok(())
}

/// Whether a manifest contains a `[section]` header.
fn has_section(toml: &str, section: &str) -> bool {
    toml.lines().any(|l| l.trim() == format!("[{section}]"))
}

/// Whether a manifest sets `lints.workspace = true` (either as a
/// `[lints]` table or dotted key).
fn manifest_inherits_workspace_lints(toml: &str) -> bool {
    let mut in_lints = false;
    for line in toml.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_lints = line == "[lints]";
            continue;
        }
        let squashed: String = line.chars().filter(|c| !c.is_whitespace()).collect();
        if in_lints && squashed.starts_with("workspace=true") {
            return true;
        }
        if squashed.starts_with("lints.workspace=true") {
            return true;
        }
    }
    false
}

/// Convenience: parse `root/lint.toml` and lint the workspace.
///
/// # Errors
///
/// Returns a message for config or I/O failures.
pub fn lint_workspace_with_config_file(root: &Path) -> Result<Vec<Finding>, String> {
    let config_path = root.join("lint.toml");
    let text = fs::read_to_string(&config_path)
        .map_err(|e| format!("{}: cannot read: {e}", config_path.display()))?;
    let config = config::parse(&text)?;
    Engine::new(&config)?.lint_workspace(root)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_matching_is_prefix_with_boundary() {
        let paths = vec!["crates/core/src".to_string()];
        assert!(path_listed("crates/core/src/lib.rs", &paths));
        assert!(path_listed("crates/core/src", &paths));
        assert!(!path_listed("crates/core/src2/lib.rs", &paths));
        assert!(!path_listed("crates/core", &paths));
    }

    #[test]
    fn inline_waiver_parsing() {
        let file = tokenize::lex(
            "x.unwrap(); // lint: allow(panic-unwrap) — cannot fail, checked above\n\
             // lint: allow(panic-expect)\n\
             y.expect(\"z\");\n",
        );
        let ws = collect_inline_waivers(&file);
        assert_eq!(ws.len(), 2);
        assert_eq!(ws[0].rule, "panic-unwrap");
        assert!(ws[0].has_reason);
        assert_eq!(ws[0].target_line, 1);
        assert_eq!(ws[1].rule, "panic-expect");
        assert!(!ws[1].has_reason);
        assert_eq!(ws[1].target_line, 3);
    }

    #[test]
    fn waiver_above_a_multiline_comment_block_covers_next_code_line() {
        let file = tokenize::lex(
            "fn f() {\n\
             // lint: allow(panic-unwrap) — the index was handed out by an\n\
             // atomic counter, so the slot is always occupied; failing\n\
             // loudly beats corrupting batch output.\n\
             x.unwrap();\n\
             }\n",
        );
        let ws = collect_inline_waivers(&file);
        assert_eq!(ws.len(), 1);
        assert_eq!(ws[0].target_line, 5);
    }

    #[test]
    fn manifest_lints_detection() {
        assert!(manifest_inherits_workspace_lints(
            "[lints]\nworkspace = true\n"
        ));
        assert!(manifest_inherits_workspace_lints(
            "lints.workspace = true\n"
        ));
        assert!(!manifest_inherits_workspace_lints(
            "[lints.rust]\nmissing_docs = \"warn\"\n"
        ));
        assert!(!manifest_inherits_workspace_lints(
            "[dependencies]\nserde = \"1\"\n"
        ));
    }
}
