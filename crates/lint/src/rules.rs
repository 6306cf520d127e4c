//! The rule catalog: ids, default scopes, detection logic, and the
//! `--explain` texts.
//!
//! Rules run over the masked code lines produced by
//! [`crate::tokenize::lex`], so occurrences inside comments, strings, and
//! char literals never fire. The lexical rules look at one line at a
//! time; the syntactic rules ([`RuleKind::FieldArith`],
//! [`RuleKind::NanosArith`], [`RuleKind::FloatAccum`],
//! [`RuleKind::PathCall`]) additionally use the
//! brace-matched token stream of [`crate::syntax`] to walk operand paths
//! and method chains across line breaks. Detection is deliberately
//! conservative and token-based — the point is a fast, dependency-free
//! gate with an audited waiver escape hatch, not a type checker.

use crate::config::Severity;
use crate::syntax::{Syntax, TokKind};
use crate::tokenize::SourceFile;

/// How a rule detects findings.
#[derive(Debug, Clone, Copy)]
pub enum RuleKind {
    /// Word-bounded identifier tokens (e.g. `Instant`, `thread_rng`).
    Ident,
    /// Macro invocations: word-bounded token followed by `!`.
    Macro,
    /// Method calls: `.name(` with optional interior whitespace.
    Method,
    /// `HashMap`/`HashSet` mentions plus iteration calls in files that
    /// mention them.
    HashIter,
    /// Indexing expressions `expr[...]`.
    Index,
    /// Syntactic: unchecked `+`/`-`/`+=`/`-=` whose operand path ends in
    /// a guarded integer field name.
    FieldArith,
    /// Syntactic: raw binary arithmetic whose operand path ends in a
    /// guarded unit-unwrap accessor (`.as_nanos()`).
    NanosArith,
    /// Syntactic: float accumulation (`.sum::<f64>()` and friends) over a
    /// method chain rooted at a hash-ordered collection.
    FloatAccum,
    /// Syntactic: `Type::method(` path calls (API-boundary enforcement),
    /// matched across line breaks.
    PathCall,
    /// Syntactic: `seg::seg::…` module-path mentions (e.g. `std::sync`),
    /// matched across line breaks.
    SyncPath,
    /// Syntactic: `Ordering::Relaxed` (or other configured memory
    /// orderings) on atomic operations.
    RelaxedOrdering,
    /// Syntactic: a `let`-bound indexed `.lock()` guard still live across
    /// a loop whose body locks another indexed element.
    LockLoop,
    /// Crate-root hygiene attributes; evaluated at workspace level, not
    /// per line.
    CrateAttrs,
    /// Engine-internal rules (waiver bookkeeping); never scanned directly.
    Meta,
    /// Interprocedural ([`crate::reach`]): allocating constructs reachable
    /// from the configured hot-path roots over the workspace call graph.
    HotPathAlloc,
    /// Interprocedural ([`crate::reach`]): public APIs that transitively
    /// reach a panic source without a `# Panics` doc section.
    PanicReach,
    /// Interprocedural ([`crate::reach`]): raw RNG constructors and
    /// duplicate seed-stream lane constants.
    RngLane,
    /// Interprocedural ([`crate::reach`]): inline waivers hosted in
    /// functions unreachable from any entry point.
    DeadWaiver,
}

/// Default hot-path roots for `hot-path-alloc`: the per-interval decision
/// paths of the pristine and faulty DP engines (Algorithm 2 runs on every
/// link in every interval, so these must stay allocation-free). The
/// pristine engine's owned-report `run_interval` is a convenience clone of
/// `step`, not a root.
pub const HOT_PATH_DEFAULT_ROOTS: &[&str] = &[
    "DpEngine::step",
    "DpEngine::step_with_candidates",
    "DpEngine::step_with_coins",
    "FaultyDpEngine::run_interval",
    "FaultyDpEngine::run_interval_with_candidates",
];

/// A static rule definition. `lint.toml` can override severity, scope
/// paths, and tokens; everything else is fixed.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Stable rule id used in output, waivers, and `--explain`.
    pub id: &'static str,
    /// Detection mechanism.
    pub kind: RuleKind,
    /// Severity when `lint.toml` does not override it.
    pub default_severity: Severity,
    /// Whether `#[cfg(test)]` / `#[test]` code is exempt.
    pub exempt_tests: bool,
    /// Tokens the rule looks for (idents, macro names, or method names).
    pub default_tokens: &'static [&'static str],
    /// One-line summary for `--list-rules`.
    pub summary: &'static str,
    /// Long-form rationale for `--explain`.
    pub explain: &'static str,
}

/// All rules, in stable order.
pub const RULES: &[Rule] = &[
    Rule {
        id: "wall-clock",
        kind: RuleKind::Ident,
        default_severity: Severity::Deny,
        exempt_tests: false,
        default_tokens: &["SystemTime", "Instant"],
        summary: "no wall-clock reads outside the RNG/time substrate",
        explain: "Simulation results must be a pure function of (scenario, seed). \
                  Reading the OS clock (std::time::SystemTime / Instant) anywhere in a \
                  result path silently breaks bit-identical reproduction — the golden \
                  fig3/fig9 files only catch it after the fact. Simulated time flows \
                  from rtmac_sim::Nanos; host time is never needed. The rule applies \
                  to test code too: golden tests rely on determinism as much as the \
                  library does. Waive with `// lint: allow(wall-clock) — <reason>` \
                  only for genuinely wall-clock-dependent tooling (none exists today).",
    },
    Rule {
        id: "os-entropy",
        kind: RuleKind::Ident,
        default_severity: Severity::Deny,
        exempt_tests: false,
        default_tokens: &[
            "thread_rng",
            "from_entropy",
            "from_os_rng",
            "OsRng",
            "getrandom",
        ],
        summary: "no OS-entropy RNG constructors outside crates/sim/src/rng.rs",
        explain: "Every random draw in the workspace must come from a SimRng seeded \
                  through rtmac_sim::SeedStream, so replication i of scenario s is the \
                  same bit pattern on every machine and worker count. thread_rng(), \
                  SmallRng::from_entropy(), OsRng, and getrandom all pull OS entropy \
                  and destroy that property. crates/sim/src/rng.rs is the single \
                  audited place allowed to name these constructors.",
    },
    Rule {
        id: "nondeterministic-iter",
        kind: RuleKind::HashIter,
        default_severity: Severity::Deny,
        exempt_tests: true,
        default_tokens: &["HashMap", "HashSet"],
        summary: "no hash-ordered collections in deterministic result paths",
        explain: "HashMap/HashSet iteration order depends on the hasher's per-process \
                  random state, so any result that flows through `.iter()`, `.keys()`, \
                  `.values()`, `.drain()`, or a `for` loop over a hash map can differ \
                  between runs. In the crates that feed figures (core, mac, analysis, \
                  bench) use BTreeMap/BTreeSet or sort before iterating. The rule \
                  flags every HashMap/HashSet mention in non-test code of the scoped \
                  crates, plus iteration-shaped calls in files that mention them; \
                  keyed lookups that never iterate can carry an inline waiver: \
                  `// lint: allow(nondeterministic-iter) — <reason>`.",
    },
    Rule {
        id: "panic-unwrap",
        kind: RuleKind::Method,
        default_severity: Severity::Deny,
        exempt_tests: true,
        default_tokens: &["unwrap"],
        summary: "no bare .unwrap() in library crates",
        explain: "Library crates must either propagate errors (Result/Option), fall \
                  back explicitly (unwrap_or / unwrap_or_else / let-else), or document \
                  a real invariant. A bare .unwrap() does none of these. Convert it, \
                  or — for a genuine can't-happen invariant whose silent fallback \
                  would corrupt results — keep it loud and waive it with \
                  `// lint: allow(panic-unwrap) — <reason>`. Test code is exempt.",
    },
    Rule {
        id: "panic-expect",
        kind: RuleKind::Method,
        default_severity: Severity::Deny,
        exempt_tests: true,
        default_tokens: &["expect"],
        summary: "no bare .expect() in library crates",
        explain: "Same policy as panic-unwrap: .expect(\"...\") is a panic with a \
                  message. Prefer propagation or an explicit fallback; where the \
                  panic guards a real invariant, keep it and add \
                  `// lint: allow(panic-expect) — <reason>` stating why it cannot \
                  fire. Test code is exempt.",
    },
    Rule {
        id: "panic-macro",
        kind: RuleKind::Macro,
        default_severity: Severity::Deny,
        exempt_tests: true,
        default_tokens: &["panic", "todo", "unimplemented"],
        summary: "no panic!/todo!/unimplemented! in library crates",
        explain: "panic! aborts a caller that may be halfway through a batch run; \
                  todo!/unimplemented! are unfinished code shipping as a crash. \
                  Return a ConfigError (or a new error variant) instead. assert!/ \
                  debug_assert! remain allowed: they state invariants, and the \
                  documented-panic constructors (`# Panics` sections) can waive with \
                  `// lint: allow(panic-macro) — <reason>`. unreachable! is also \
                  allowed — it marks arms the type system cannot rule out.",
    },
    Rule {
        id: "debug-print",
        kind: RuleKind::Macro,
        default_severity: Severity::Deny,
        exempt_tests: true,
        default_tokens: &["dbg", "println", "eprintln", "print", "eprint"],
        summary: "no dbg!/println! in library crates",
        explain: "Library crates compute; binaries (cli, bench, examples) print. A \
                  stray println! in a library corrupts machine-readable output (CSV \
                  tables, golden files) and dbg! is a debugging leftover by \
                  definition. Route output through the caller or a returned value.",
    },
    Rule {
        id: "direct-index",
        kind: RuleKind::Index,
        default_severity: Severity::Allow,
        exempt_tests: true,
        default_tokens: &[],
        summary: "flag `expr[i]` indexing (off by default; audit aid)",
        explain: "Slice indexing panics on out-of-bounds, which is a third panic \
                  path next to unwrap/expect. The simulation hot loops index \
                  heavily with loop-bounded indices, so this rule is `allow` by \
                  default and exists as an audit mode: flip it to warn/deny in \
                  lint.toml to enumerate every indexing site when hunting a panic.",
    },
    Rule {
        id: "unchecked-arith",
        kind: RuleKind::FieldArith,
        default_severity: Severity::Deny,
        exempt_tests: true,
        default_tokens: &[
            "interval",
            "intervals",
            "cumulative_deliveries",
            "idle_slots",
            "collisions",
            "empty_packets",
            "busy_time",
        ],
        summary: "no unchecked +/- on debt/time integer counter fields",
        explain: "The debt ledger's interval and delivery counters and the \
                  accumulated interval statistics are u64/Nanos values that live for \
                  an entire batch run: a bare `+`/`-`/`+=`/`-=` on them panics on \
                  overflow in debug builds and silently wraps in release builds, \
                  corrupting every later throughput and deficiency statistic. Use \
                  `saturating_add`/`saturating_sub` (or `checked_*` where the caller \
                  can react). The rule walks the operand path of each arithmetic \
                  operator — across method calls, indexing, and line breaks — and \
                  fires when the path ends in one of the guarded field names from \
                  lint.toml. Test code is exempt.",
    },
    Rule {
        id: "nanos-raw-arith",
        kind: RuleKind::NanosArith,
        default_severity: Severity::Deny,
        exempt_tests: true,
        default_tokens: &["as_nanos"],
        summary: "no raw +/-/*, / or % arithmetic on unwrapped Nanos values",
        explain: "`.as_nanos()` unwraps a `Nanos` into a bare u64, dropping both \
                  the unit and the overflow discipline: a raw `+`/`-`/`*` on the \
                  result can wrap (slot counts times nanosecond deadlines exceed \
                  u64 within hours of simulated time) and a raw `/`/`%` encodes a \
                  unit conversion as an unexplained magic constant. Keep \
                  durations in `Nanos` and use its saturating_*/checked_* \
                  operations, or cross the boundary through a named accessor \
                  (`as_micros`, `as_millis_f64`). The rule walks the operand \
                  paths of each arithmetic operator across calls, indexing, and \
                  line breaks, and fires when a path ends in a guarded unwrap \
                  accessor; chaining a checked method \
                  (`.as_nanos().checked_div(..)`) or an explicit `as` cast into \
                  a wider domain does not fire. Test code is exempt.",
    },
    Rule {
        id: "float-accum-unordered",
        kind: RuleKind::FloatAccum,
        default_severity: Severity::Deny,
        exempt_tests: true,
        default_tokens: &[
            "values",
            "into_values",
            "keys",
            "into_keys",
            "drain",
            "iter",
            "iter_mut",
            "into_iter",
        ],
        summary: "no float accumulation over hash-ordered iteration",
        explain: "Float addition is not associative, so `.sum::<f64>()`, \
                  `.product::<f64>()`, or a float `fold` over an iterator whose order \
                  varies between runs (HashMap/HashSet) produces run-dependent bits \
                  even when the element *set* is identical — exactly the class of \
                  nondeterminism the golden figures cannot tolerate. The rule walks \
                  the receiver chain of each float-accumulation terminal back to its \
                  root and fires when the chain contains an unordered iteration \
                  method and the root is a hash-ordered collection. Sort first or \
                  use a BTree collection.",
    },
    Rule {
        id: "scenario-boundary",
        kind: RuleKind::PathCall,
        default_severity: Severity::Deny,
        exempt_tests: false,
        default_tokens: &[
            "Network::builder",
            "NetworkBuilder::new",
            "NetworkBuilder::default",
        ],
        summary: "networks are constructed through rtmac::scenario only",
        explain: "PR 1 made `rtmac::scenario` the single entry point for network \
                  construction: a Scenario names a workload, channel, policy, and \
                  seed declaratively, which is what makes batch runs replicable and \
                  the figure pipeline auditable. Calling `Network::builder()` (or \
                  `NetworkBuilder::new`/`default`) anywhere else bypasses that layer \
                  and silently forks the configuration surface. Build a Scenario and \
                  use `to_builder()` when you genuinely need the escape hatch; only \
                  crates/core/src (the layer's own implementation and tests) may \
                  name the builder directly.",
    },
    Rule {
        id: "raw-sync-primitive",
        kind: RuleKind::SyncPath,
        default_severity: Severity::Deny,
        exempt_tests: true,
        default_tokens: &["std::sync", "std::thread::spawn", "std::thread::scope"],
        summary: "concurrency primitives go through the rtmac::sync facade",
        explain: "The work-stealing Runner's shared state flows through the \
                  rtmac::sync facade (Mutex, AtomicUsize, run_threads), which is \
                  what lets `rtmac-verify sched` run the *same* code on a \
                  cooperative model scheduler and exhaustively check its \
                  interleavings. A raw std::sync::Mutex, std::sync::atomic, \
                  std::thread::spawn, or std::thread::scope in library code is \
                  invisible to that checker: its interleavings are never explored \
                  and its deadlocks never convicted. Route concurrency through \
                  crate::sync (crates/core/src/sync itself and crates/sim are the \
                  audited implementations). Checker instrumentation that must \
                  stay invisible to the model scheduler may waive with \
                  `// lint: allow(raw-sync-primitive) — <why it must not be \
                  modeled>`. Test code is exempt.",
    },
    Rule {
        id: "relaxed-ordering-audit",
        kind: RuleKind::RelaxedOrdering,
        default_severity: Severity::Deny,
        exempt_tests: true,
        default_tokens: &["Relaxed"],
        summary: "Ordering::Relaxed only with an audited waiver naming the counter",
        explain: "Relaxed atomics order nothing: a Relaxed store is allowed to \
                  become visible after operations that follow it in program \
                  order, which is exactly the class of bug the interleaving \
                  checker cannot see (the model scheduler is sequentially \
                  consistent — DESIGN.md §12). Default to SeqCst; the cost is \
                  negligible off the hot path. Where Relaxed is genuinely \
                  sufficient — a counter whose atomicity alone carries the \
                  invariant and whose value orders nothing else — keep it and \
                  write `// lint: allow(relaxed-ordering-audit) — <which counter \
                  and why no ordering is needed>` so the audit trail names the \
                  proof obligation. Test code is exempt.",
    },
    Rule {
        id: "lock-in-loop-hold",
        kind: RuleKind::LockLoop,
        default_severity: Severity::Deny,
        exempt_tests: true,
        default_tokens: &[],
        summary: "no indexed lock guard held across a loop that locks siblings",
        explain: "Binding `let guard = locks[i].lock()` and then entering a \
                  for/while/loop body that locks *another* element of a lock \
                  array is the symmetric-deadlock shape: two workers each hold \
                  their own element while waiting for the other's. The runner's \
                  steal scan is the canonical instance — the own-range guard \
                  must drop before the victim scan starts (scope the pop in a \
                  block). The rule fires on the inner indexed `.lock()` when an \
                  earlier `let`-bound indexed guard from the same enclosing \
                  block is still live at the loop, and stays quiet when the \
                  guard is scoped out or explicitly dropped first. A \
                  deliberately ordered acquisition (e.g. always ascending index) \
                  can waive with `// lint: allow(lock-in-loop-hold) — <the lock \
                  order that excludes the cycle>`. Test code is exempt.",
    },
    Rule {
        id: "missing-crate-attrs",
        kind: RuleKind::CrateAttrs,
        default_severity: Severity::Deny,
        exempt_tests: false,
        default_tokens: &[],
        summary: "every crate opts into the workspace lint table (or carries the attrs)",
        explain: "Each workspace crate must either set `lints.workspace = true` in \
                  its Cargo.toml (inheriting [workspace.lints]'s forbid(unsafe_code) \
                  + warn(missing_docs)) or carry `#![forbid(unsafe_code)]` and \
                  `#![warn(missing_docs)]` at its crate root. This keeps lint levels \
                  centralized instead of drifting per crate.",
    },
    Rule {
        id: "hot-path-alloc",
        kind: RuleKind::HotPathAlloc,
        default_severity: Severity::Deny,
        exempt_tests: true,
        default_tokens: &[
            "Vec::new",
            "Vec::with_capacity",
            "String::new",
            "String::from",
            "String::with_capacity",
            "Box::new",
            "Rc::new",
            "Arc::new",
            "vec!",
            "format!",
            "clone",
            "to_vec",
            "to_owned",
            "to_string",
            "collect",
            "repeat",
        ],
        summary: "no allocating construct reachable from the hot-path roots",
        explain: "Algorithm 2 runs on every link in every interval, so the \
                  per-interval decision path must be allocation-free: a single \
                  Vec::new in a transitively-called helper turns the massive-N \
                  sweep into an allocator benchmark. This rule builds the \
                  workspace call graph (DESIGN.md §13), walks forward from the \
                  configured `roots` (default: the DP engines' interval entry \
                  points), and convicts every allocating construct — constructor \
                  paths like `Vec::new`, allocating methods like `.clone()`/\
                  `.collect()`, and macros like `vec!`/`format!` — in any reachable \
                  function, with the witness call path in the message. Deliberately \
                  absent from the token list: `push`/`extend`/`extend_from_slice`, \
                  which are amortized-allocation-free on the pre-sized buffers the \
                  engines reuse; the runtime `alloc_regression` test cross-checks \
                  that assumption dynamically, while this rule covers call paths \
                  the test never executes. Setup-time allocation in constructors \
                  that the interval loop never re-enters may waive with \
                  `// lint: allow(hot-path-alloc) — <why this runs once>`.",
    },
    Rule {
        id: "panic-reachability",
        kind: RuleKind::PanicReach,
        default_severity: Severity::Deny,
        exempt_tests: true,
        default_tokens: &["panic!", "todo!", "unimplemented!", "unwrap", "expect"],
        summary: "pub APIs reaching a panic source must document `# Panics`",
        explain: "The Runner's panic-propagation contract (DESIGN.md §11) makes a \
                  worker panic abort the whole batch, so a caller deserves to know \
                  which public entry points can panic. This rule reverse-walks the \
                  workspace call graph from every direct panic source — `panic!`-\
                  family macros, `.unwrap()`/`.expect()` calls, and (when `[]` is in \
                  the token list) slice indexing — and requires each `pub` function \
                  of the scoped crates that transitively reaches one to carry a \
                  `# Panics` doc section naming the invariant, or an audited \
                  `// lint: allow(panic-reachability) — <reason>` waiver. The \
                  call-graph approximation resolves method calls by name, so a \
                  finding's witness path may go through a trait method with several \
                  implementations; the documented invariant must cover them all.",
    },
    Rule {
        id: "rng-lane-discipline",
        kind: RuleKind::RngLane,
        default_severity: Severity::Deny,
        exempt_tests: true,
        default_tokens: &["seed_from_u64", "from_seed", "from_rng"],
        summary: "RNG construction flows from SeedStream lanes, one lane per subsystem",
        explain: "Replicability is a statement about exact sample paths: the debt \
                  analysis only transfers if arrivals, protocol coins, and fault \
                  processes each consume their own independent substream. Two bug \
                  classes break that. First, constructing an RNG directly \
                  (`SmallRng::seed_from_u64(7)`) instead of drawing it from \
                  `SeedStream::rng`/`substream` silently correlates it with \
                  whatever else used that constant — only crates/sim/src/rng.rs \
                  (the audited substrate) may name raw constructors. Second, \
                  drawing the *same* lane constant twice from the same stream in \
                  one function (`seeds.rng(1)` for arrivals and again for faults) \
                  yields two identical generators; the fix that introduced the \
                  dedicated fault lane exists precisely because of this class. The \
                  rule flags raw constructor tokens anywhere outside the allow-\
                  paths and duplicate `(stream, lane)` pairs per function. A \
                  deliberate re-draw (replaying the same sequence) may waive with \
                  `// lint: allow(rng-lane-discipline) — <why the streams must \
                  coincide>`. Test code is exempt.",
    },
    Rule {
        id: "dead-waiver-sweep",
        kind: RuleKind::DeadWaiver,
        default_severity: Severity::Deny,
        exempt_tests: false,
        default_tokens: &[],
        summary: "waivers hosted in call-graph-unreachable functions are stale",
        explain: "An inline waiver justifies a finding *in context*: 'this unwrap \
                  cannot fire because the caller checked'. When refactoring \
                  removes every call path to the host function, the justification \
                  is dangling even though the waived token — and therefore the \
                  line-level stale-waiver check — still matches. This rule walks \
                  the call graph forward from every entry point (pub items, \
                  `main`, test code, top-level references like criterion_group!, \
                  files under tests/examples/benches) and reports waivers whose \
                  host function no path reaches. Delete the dead code or the \
                  waiver; if the function is reflection-reached in a way the \
                  graph cannot see, make it `pub(crate)` so the entry-point set \
                  includes it.",
    },
    Rule {
        id: "waiver-missing-reason",
        kind: RuleKind::Meta,
        default_severity: Severity::Deny,
        exempt_tests: false,
        default_tokens: &[],
        summary: "inline waivers must state a reason",
        explain: "`// lint: allow(rule)` without a reason is an unaudited hole. \
                  Write `// lint: allow(rule) — <why this cannot fire / why it is \
                  acceptable>`. The waiver still suppresses the original finding so \
                  the output stays focused on the real problem: the missing audit \
                  trail.",
    },
    Rule {
        id: "stale-waiver",
        kind: RuleKind::Meta,
        default_severity: Severity::Warn,
        exempt_tests: false,
        default_tokens: &[],
        summary: "waivers that no longer suppress anything",
        explain: "An inline or [[waiver]] entry that matches no finding is debt: the \
                  code it excused has been fixed or moved. Delete the waiver so the \
                  audit surface stays minimal.",
    },
];

/// Looks a rule up by id.
#[must_use]
pub fn rule_by_id(id: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id == id)
}

/// A raw finding produced by a scanner, before waiver application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawFinding {
    /// 1-based line.
    pub line: usize,
    /// 1-based column of the matched token.
    pub col: usize,
    /// The rule that fired.
    pub rule: &'static str,
    /// Human-readable description of the occurrence.
    pub message: String,
}

/// Runs one file-level rule over a lexed file. `syntax` is the file's
/// matched token stream (shared across rules); `tokens` is the effective
/// token list (config override or the rule's default).
#[must_use]
pub fn scan(rule: &Rule, file: &SourceFile, syntax: &Syntax, tokens: &[String]) -> Vec<RawFinding> {
    let mut findings = Vec::new();
    match rule.kind {
        RuleKind::Ident => {
            for_each_line(rule, file, |ln, code| {
                for token in tokens {
                    for col in word_positions(code, token) {
                        findings.push(RawFinding {
                            line: ln,
                            col,
                            rule: rule.id,
                            message: format!("use of `{token}`"),
                        });
                    }
                }
            });
        }
        RuleKind::Macro => {
            for_each_line(rule, file, |ln, code| {
                for token in tokens {
                    for col in word_positions(code, token) {
                        if next_nonspace_is(code, col - 1 + token.len(), '!') {
                            findings.push(RawFinding {
                                line: ln,
                                col,
                                rule: rule.id,
                                message: format!("`{token}!` invocation"),
                            });
                        }
                    }
                }
            });
        }
        RuleKind::Method => {
            for_each_line(rule, file, |ln, code| {
                for token in tokens {
                    for col in word_positions(code, token) {
                        let idx = col - 1;
                        if prev_nonspace_is(code, idx, '.')
                            && next_nonspace_is(code, idx + token.len(), '(')
                        {
                            findings.push(RawFinding {
                                line: ln,
                                col,
                                rule: rule.id,
                                message: format!("bare `.{token}()`"),
                            });
                        }
                    }
                }
            });
        }
        RuleKind::HashIter => {
            let mut mentioned = false;
            for_each_line(rule, file, |ln, code| {
                for token in tokens {
                    for col in word_positions(code, token) {
                        mentioned = true;
                        findings.push(RawFinding {
                            line: ln,
                            col,
                            rule: rule.id,
                            message: format!(
                                "`{token}` in a deterministic result path; use a \
                                 BTree collection or sorted iteration"
                            ),
                        });
                    }
                }
            });
            if mentioned {
                const ITER_METHODS: &[&str] = &[
                    "iter",
                    "iter_mut",
                    "keys",
                    "values",
                    "values_mut",
                    "into_iter",
                    "drain",
                    "retain",
                ];
                for_each_line(rule, file, |ln, code| {
                    for m in ITER_METHODS {
                        for col in word_positions(code, m) {
                            let idx = col - 1;
                            if prev_nonspace_is(code, idx, '.')
                                && next_nonspace_is(code, idx + m.len(), '(')
                            {
                                findings.push(RawFinding {
                                    line: ln,
                                    col,
                                    rule: rule.id,
                                    message: format!(
                                        "`.{m}()` in a file using a hash-ordered \
                                         collection; iteration order may vary"
                                    ),
                                });
                            }
                        }
                    }
                });
            }
        }
        RuleKind::Index => {
            for_each_line(rule, file, |ln, code| {
                let bytes = code.as_bytes();
                for (i, &b) in bytes.iter().enumerate() {
                    if b != b'[' {
                        continue;
                    }
                    // Indexing: `[` directly preceded (modulo spaces) by an
                    // identifier character or a closing bracket — i.e. an
                    // expression, not a type, attribute, or slice pattern.
                    let mut p = i;
                    while p > 0 && bytes[p - 1] == b' ' {
                        p -= 1;
                    }
                    if p == 0 {
                        continue;
                    }
                    let prev = bytes[p - 1];
                    if prev.is_ascii_alphanumeric() || prev == b'_' || prev == b')' || prev == b']'
                    {
                        findings.push(RawFinding {
                            line: ln,
                            col: i + 1,
                            rule: rule.id,
                            message: "direct indexing can panic out-of-bounds".to_string(),
                        });
                    }
                }
            });
        }
        RuleKind::FieldArith => {
            for (i, t) in syntax.tokens.iter().enumerate() {
                if t.kind != TokKind::Punct {
                    continue;
                }
                let op = t.text.as_str();
                if !matches!(op, "+" | "-" | "+=" | "-=") {
                    continue;
                }
                if rule.exempt_tests && t.in_test {
                    continue;
                }
                if matches!(op, "+" | "-") && !syntax.is_binary_operator(i) {
                    continue;
                }
                let guarded = |idx: usize| {
                    let name = &syntax.tokens[idx].text;
                    tokens.iter().any(|g| g == name).then_some(idx)
                };
                let mut hit = syntax.lhs_terminal_ident(i).and_then(guarded);
                if hit.is_none() && matches!(op, "+" | "-") {
                    hit = syntax.rhs_terminal_ident(i + 1).and_then(guarded);
                }
                if let Some(idx) = hit {
                    findings.push(RawFinding {
                        line: t.line,
                        col: t.col,
                        rule: rule.id,
                        message: format!(
                            "unchecked `{op}` on counter field `{}`; use \
                             saturating_*/checked_* arithmetic",
                            syntax.tokens[idx].text
                        ),
                    });
                }
            }
        }
        RuleKind::NanosArith => {
            for (i, t) in syntax.tokens.iter().enumerate() {
                if t.kind != TokKind::Punct {
                    continue;
                }
                let op = t.text.as_str();
                if !matches!(
                    op,
                    "+" | "-" | "*" | "/" | "%" | "+=" | "-=" | "*=" | "/=" | "%="
                ) {
                    continue;
                }
                if rule.exempt_tests && t.in_test {
                    continue;
                }
                let bare = !op.ends_with('=');
                if bare && !syntax.is_binary_operator(i) {
                    continue;
                }
                let guarded = |idx: usize| {
                    let name = &syntax.tokens[idx].text;
                    tokens.iter().any(|g| g == name).then_some(idx)
                };
                // Compound assignments only read on the right; the left
                // side of `+=` is a place expression, never a call.
                let mut hit = bare
                    .then(|| syntax.lhs_terminal_ident(i).and_then(guarded))
                    .flatten();
                if hit.is_none() {
                    hit = rhs_operand_end(syntax, i + 1).and_then(guarded);
                }
                if let Some(idx) = hit {
                    findings.push(RawFinding {
                        line: t.line,
                        col: t.col,
                        rule: rule.id,
                        message: format!(
                            "raw `{op}` on the output of `.{}()`; keep the value \
                             in `Nanos` (saturating_*/checked_*) or name the \
                             unit conversion",
                            syntax.tokens[idx].text
                        ),
                    });
                }
            }
        }
        RuleKind::FloatAccum => {
            for (i, t) in syntax.tokens.iter().enumerate() {
                if t.kind != TokKind::Ident {
                    continue;
                }
                if rule.exempt_tests && t.in_test {
                    continue;
                }
                if !is_float_accum_terminal(syntax, i) {
                    continue;
                }
                let chain = syntax.receiver_chain(i);
                if !chain.iter().any(|m| tokens.iter().any(|g| g == m)) {
                    continue;
                }
                // The chain must be rooted at a hash-ordered collection:
                // either it names one directly (`HashMap::from(..)`), or
                // its root identifier co-occurs with HashMap/HashSet on a
                // code line of this file (its declaration).
                let chain_names_hash = chain.iter().any(|s| *s == "HashMap" || *s == "HashSet");
                let root_is_hash = chain.last().is_some_and(|root| {
                    file.code.iter().any(|line| {
                        !word_positions(line, root).is_empty()
                            && (!word_positions(line, "HashMap").is_empty()
                                || !word_positions(line, "HashSet").is_empty())
                    })
                });
                if chain_names_hash || root_is_hash {
                    findings.push(RawFinding {
                        line: t.line,
                        col: t.col,
                        rule: rule.id,
                        message: format!(
                            "float accumulation `.{}(..)` over a hash-ordered \
                             iteration; order-dependent rounding breaks bit \
                             reproducibility — sort first or use a BTree collection",
                            t.text
                        ),
                    });
                }
            }
        }
        RuleKind::PathCall => {
            for pat in tokens {
                let Some((ty, method)) = pat.split_once("::") else {
                    continue;
                };
                for (i, t) in syntax.tokens.iter().enumerate() {
                    if t.kind != TokKind::Ident || t.text != ty {
                        continue;
                    }
                    if rule.exempt_tests && t.in_test {
                        continue;
                    }
                    let text_at = |k: usize| syntax.tokens.get(k).map(|t| t.text.as_str());
                    if text_at(i + 1) == Some("::")
                        && text_at(i + 2) == Some(method)
                        && text_at(i + 3) == Some("(")
                    {
                        findings.push(RawFinding {
                            line: t.line,
                            col: t.col,
                            rule: rule.id,
                            message: format!(
                                "`{pat}()` bypasses the scenario layer; build \
                                 networks through rtmac::scenario (or its \
                                 to_builder() escape hatch)"
                            ),
                        });
                    }
                }
            }
        }
        RuleKind::SyncPath => {
            for pat in tokens {
                let segs: Vec<&str> = pat.split("::").collect();
                let Some(first) = segs.first() else { continue };
                'occurrence: for (i, t) in syntax.tokens.iter().enumerate() {
                    if t.kind != TokKind::Ident || &t.text != first {
                        continue;
                    }
                    if rule.exempt_tests && t.in_test {
                        continue;
                    }
                    // The match must start a path: `foo::std::sync` is not
                    // the std crate.
                    if i.checked_sub(1)
                        .and_then(|p| syntax.tokens.get(p))
                        .is_some_and(|p| p.text == "::" || p.text == ".")
                    {
                        continue;
                    }
                    for (s, seg) in segs.iter().enumerate().skip(1) {
                        let link = syntax.tokens.get(i + 2 * s - 1);
                        let name = syntax.tokens.get(i + 2 * s);
                        if link.map(|t| t.text.as_str()) != Some("::")
                            || name.map(|t| t.text.as_str()) != Some(*seg)
                        {
                            continue 'occurrence;
                        }
                    }
                    findings.push(RawFinding {
                        line: t.line,
                        col: t.col,
                        rule: rule.id,
                        message: format!(
                            "`{pat}` bypasses the rtmac::sync facade; the \
                             interleaving checker cannot model it — route \
                             concurrency through crate::sync"
                        ),
                    });
                }
            }
        }
        RuleKind::RelaxedOrdering => {
            for (i, t) in syntax.tokens.iter().enumerate() {
                if t.kind != TokKind::Ident || !tokens.iter().any(|g| g == &t.text) {
                    continue;
                }
                if rule.exempt_tests && t.in_test {
                    continue;
                }
                let prev = |k: usize| {
                    i.checked_sub(k)
                        .and_then(|j| syntax.tokens.get(j))
                        .map(|t| t.text.as_str())
                };
                if prev(1) == Some("::") && prev(2) == Some("Ordering") {
                    findings.push(RawFinding {
                        line: t.line,
                        col: t.col,
                        rule: rule.id,
                        message: format!(
                            "`Ordering::{}` without an audited waiver; default \
                             to SeqCst or name the counter and why it needs no \
                             ordering",
                            t.text
                        ),
                    });
                }
            }
        }
        RuleKind::LockLoop => {
            scan_lock_loop(rule, syntax, &mut findings);
        }
        // Workspace-level and interprocedural rules run in the engine
        // (crate attrs, waiver bookkeeping) or over the call graph
        // ([`crate::reach`]), never per file.
        RuleKind::CrateAttrs
        | RuleKind::Meta
        | RuleKind::HotPathAlloc
        | RuleKind::PanicReach
        | RuleKind::RngLane
        | RuleKind::DeadWaiver => {}
    }
    findings
}

/// The `lock-in-loop-hold` scanner: fires on an indexed `.lock()` inside
/// a loop body when an earlier `let`-bound indexed guard from the same
/// enclosing block is still live at the loop.
fn scan_lock_loop(rule: &Rule, syntax: &Syntax, findings: &mut Vec<RawFinding>) {
    // Enclosing `{` token index for every token (usize::MAX = file level).
    let mut stack: Vec<usize> = Vec::new();
    let mut encl = vec![usize::MAX; syntax.tokens.len()];
    for (i, t) in syntax.tokens.iter().enumerate() {
        if t.kind == TokKind::Close && t.text == "}" {
            stack.pop();
        }
        encl[i] = stack.last().copied().unwrap_or(usize::MAX);
        if t.kind == TokKind::Open && t.text == "{" {
            stack.push(i);
        }
    }
    // An indexed lock call: `…]​.lock(` — the receiver is an element of a
    // lock array, the deadlock-prone shape (a single named mutex cannot
    // form the symmetric cycle this rule hunts).
    let is_indexed_lock = |i: usize| {
        let t = &syntax.tokens[i];
        t.kind == TokKind::Ident
            && t.text == "lock"
            && i >= 2
            && syntax.tokens[i - 1].text == "."
            && syntax.tokens[i - 2].text == "]"
            && syntax.tokens.get(i + 1).is_some_and(|t| t.text == "(")
    };
    // Whether the statement containing token `i` starts with `let` (the
    // guard outlives the expression instead of dropping at the `;`).
    let is_let_bound = |i: usize| {
        let mut j = i;
        while j > 0 {
            j -= 1;
            let t = &syntax.tokens[j];
            if matches!(t.text.as_str(), ";" | "{" | "}") {
                return false;
            }
            if t.kind == TokKind::Ident && t.text == "let" {
                return true;
            }
        }
        false
    };
    for i in 0..syntax.tokens.len() {
        if !is_indexed_lock(i) || !is_let_bound(i) {
            continue;
        }
        if rule.exempt_tests && syntax.tokens[i].in_test {
            continue;
        }
        let block = encl[i];
        let block_end = if block == usize::MAX {
            syntax.tokens.len()
        } else {
            syntax.partner(block).unwrap_or(syntax.tokens.len())
        };
        // The guard lives to the end of its block; scan the rest of the
        // block for a loop whose body locks another indexed element. An
        // explicit `drop` before the loop releases the guard — stop.
        let mut k = i + 1;
        while k < block_end {
            let t = &syntax.tokens[k];
            if t.kind == TokKind::Ident && t.text == "drop" && encl[k] == block {
                break;
            }
            if t.kind == TokKind::Ident
                && matches!(t.text.as_str(), "for" | "while" | "loop")
                && encl[k] == block
            {
                // The loop body is the first `{` after the keyword at the
                // same nesting level.
                let body =
                    (k + 1..block_end).find(|&b| syntax.tokens[b].text == "{" && encl[b] == block);
                if let Some(body) = body {
                    let body_end = syntax.partner(body).unwrap_or(block_end);
                    if let Some(inner) = (body + 1..body_end).find(|&c| is_indexed_lock(c)) {
                        let it = &syntax.tokens[inner];
                        findings.push(RawFinding {
                            line: it.line,
                            col: it.col,
                            rule: rule.id,
                            message: format!(
                                "indexed `.lock()` inside a `{}` body while the \
                                 indexed guard bound on line {} is still live; \
                                 drop or scope the first guard before the loop \
                                 (symmetric-deadlock shape)",
                                t.text, syntax.tokens[i].line
                            ),
                        });
                        break;
                    }
                    k = body_end;
                    continue;
                }
            }
            k += 1;
        }
    }
}

/// The last method/field segment of the operand expression *starting* at
/// token `start`, stepping over call and index argument groups — for
/// `c.deadline.as_nanos().max(1)` this returns `max`'s token index. An
/// operand that does not begin with an identifier, or that ends in an
/// explicit `as` cast (a deliberate move into the raw integer domain),
/// yields `None`.
fn rhs_operand_end(syntax: &Syntax, start: usize) -> Option<usize> {
    let mut j = start;
    syntax.tokens.get(j).filter(|t| t.kind == TokKind::Ident)?;
    let mut last = j;
    loop {
        match syntax.tokens.get(j + 1).map(|t| t.text.as_str()) {
            Some(".") | Some("::") => match syntax.tokens.get(j + 2) {
                Some(seg) if seg.kind == TokKind::Ident => {
                    j += 2;
                    last = j;
                }
                _ => return Some(last),
            },
            Some("(") | Some("[") => j = syntax.partner(j + 1)?,
            Some("as") => return None,
            _ => return Some(last),
        }
    }
}

/// Whether token `i` is a float-accumulation terminal: `.sum::<f64>()`,
/// `.product::<f32>()`, or `.fold(<float literal>, ..)`.
fn is_float_accum_terminal(syntax: &Syntax, i: usize) -> bool {
    let prev_is_dot = i
        .checked_sub(1)
        .and_then(|p| syntax.tokens.get(p))
        .is_some_and(|t| t.text == ".");
    if !prev_is_dot {
        return false;
    }
    let text_at = |k: usize| syntax.tokens.get(k).map(|t| t.text.as_str());
    match text_at(i) {
        Some("sum" | "product") => {
            text_at(i + 1) == Some("::")
                && text_at(i + 2) == Some("<")
                && matches!(text_at(i + 3), Some("f32" | "f64"))
        }
        Some("fold") => {
            text_at(i + 1) == Some("(")
                && syntax
                    .tokens
                    .get(i + 2)
                    .is_some_and(|t| t.kind == TokKind::Number && is_float_literal(&t.text))
        }
        _ => false,
    }
}

/// Whether a numeric literal is a float: has a fractional part, an
/// exponent, or an explicit `f32`/`f64` suffix.
fn is_float_literal(text: &str) -> bool {
    text.contains('.') || text.ends_with("f32") || text.ends_with("f64")
}

fn for_each_line(rule: &Rule, file: &SourceFile, mut f: impl FnMut(usize, &str)) {
    for (idx, code) in file.code.iter().enumerate() {
        if rule.exempt_tests && file.in_test[idx] {
            continue;
        }
        f(idx + 1, code);
    }
}

/// 1-based columns of word-bounded occurrences of `needle` in `hay`.
fn word_positions(hay: &str, needle: &str) -> Vec<usize> {
    let mut out = Vec::new();
    if needle.is_empty() {
        return out;
    }
    let bytes = hay.as_bytes();
    let mut from = 0;
    while let Some(pos) = hay[from..].find(needle) {
        let start = from + pos;
        let end = start + needle.len();
        let before_ok = start == 0 || !is_ident_byte(bytes[start - 1]);
        let after_ok = end >= bytes.len() || !is_ident_byte(bytes[end]);
        if before_ok && after_ok {
            out.push(hay[..start].chars().count() + 1);
        }
        from = start + 1;
    }
    out
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Whether the first non-space byte before byte index `idx` is `c`.
fn prev_nonspace_is(line: &str, idx: usize, c: char) -> bool {
    line[..idx].trim_end().ends_with(c)
}

/// Whether the first non-space byte at or after byte index `idx` is `c`.
fn next_nonspace_is(line: &str, idx: usize, c: char) -> bool {
    line[idx..].trim_start().starts_with(c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenize::lex;

    fn run(rule_id: &str, src: &str) -> Vec<RawFinding> {
        let rule = rule_by_id(rule_id).expect("known rule");
        let tokens: Vec<String> = rule.default_tokens.iter().map(|t| t.to_string()).collect();
        let file = lex(src);
        let syn = crate::syntax::scan(&file);
        scan(rule, &file, &syn, &tokens)
    }

    #[test]
    fn ident_rule_respects_word_boundaries_and_strings() {
        let hits = run("wall-clock", "let t = Instant::now();\n");
        assert_eq!(hits.len(), 1);
        assert_eq!((hits[0].line, hits[0].col), (1, 9));
        assert!(run("wall-clock", "/// Instantiates the policy\nfn f() {}\n").is_empty());
        assert!(run("wall-clock", "let s = \"Instant\";\n").is_empty());
    }

    #[test]
    fn method_rule_matches_calls_only() {
        assert_eq!(run("panic-unwrap", "x.unwrap();\n").len(), 1);
        assert_eq!(run("panic-unwrap", "x . unwrap ();\n").len(), 1);
        assert!(run("panic-unwrap", "x.unwrap_or(0);\n").is_empty());
        assert!(run("panic-unwrap", "fn unwrap(x: u8) {}\n").is_empty());
    }

    #[test]
    fn macro_rule_requires_bang() {
        assert_eq!(run("panic-macro", "panic!(\"boom\");\n").len(), 1);
        assert!(run("panic-macro", "fn panic_handler() {}\n").is_empty());
        assert!(run("panic-macro", "let panic = 3;\n").is_empty());
        assert!(run("panic-macro", "debug_assert!(x);\n").is_empty());
    }

    #[test]
    fn test_code_is_exempt_where_configured() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f() { x.unwrap(); }\n}\n";
        assert!(run("panic-unwrap", src).is_empty());
        // ...but not for wall-clock, which applies to tests too.
        let src2 = "#[cfg(test)]\nmod tests {\n    fn f() { Instant::now(); }\n}\n";
        assert_eq!(run("wall-clock", src2).len(), 1);
    }

    #[test]
    fn hash_iter_flags_mentions_and_iteration() {
        let src = "use std::collections::HashMap;\nfn f(m: &HashMap<u32, u32>) {\n    \
                   for k in m.keys() { g(k); }\n    let v = vec![1];\n    v.sort();\n}\n";
        let hits = run("nondeterministic-iter", src);
        let lines: Vec<usize> = hits.iter().map(|h| h.line).collect();
        assert!(lines.contains(&1) && lines.contains(&2) && lines.contains(&3));
    }

    #[test]
    fn hash_iter_silent_without_mentions() {
        assert!(run(
            "nondeterministic-iter",
            "fn f(v: &[u32]) { v.iter().sum::<u32>(); }\n"
        )
        .is_empty());
    }

    #[test]
    fn field_arith_flags_guarded_fields_only() {
        let hits = run(
            "unchecked-arith",
            "fn f(&mut self) { self.interval += 1; }\n",
        );
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains("`+=`") && hits[0].message.contains("`interval`"));
        // Unguarded names, saturating calls, and unary signs stay silent.
        assert!(run("unchecked-arith", "fn f() { count += 1; }\n").is_empty());
        assert!(run(
            "unchecked-arith",
            "fn f(&mut self) { self.interval = self.interval.saturating_add(1); }\n"
        )
        .is_empty());
        assert!(run("unchecked-arith", "let x = -interval;\n").is_empty());
    }

    #[test]
    fn field_arith_walks_paths_and_checks_both_sides() {
        // Binary subtraction through a method-call + index path.
        let hits = run(
            "unchecked-arith",
            "let left = self.debts.cumulative_deliveries - s;\n",
        );
        assert_eq!(hits.len(), 1);
        // Guarded field on the right-hand side of a binary op.
        assert_eq!(
            run("unchecked-arith", "let k = 1 + self.intervals;\n").len(),
            1
        );
        // Exempt in test code.
        assert!(run(
            "unchecked-arith",
            "#[cfg(test)]\nmod tests {\n    fn f(s: &mut S) { s.interval += 1; }\n}\n"
        )
        .is_empty());
    }

    #[test]
    fn nanos_arith_flags_raw_ops_on_unwrapped_values() {
        let hits = run(
            "nanos-raw-arith",
            "let slack = deadline.as_nanos() - elapsed;\n",
        );
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains("`-`") && hits[0].message.contains("as_nanos"));
        // Guarded accessor on the right-hand side, through a field path.
        assert_eq!(
            run(
                "nanos-raw-arith",
                "let t = slots * self.deadline.as_nanos();\n"
            )
            .len(),
            1
        );
        // Compound assignments feed from the right.
        assert_eq!(run("nanos-raw-arith", "total += t.as_nanos();\n").len(), 1);
        // One finding per operator even with guarded paths on both sides.
        assert_eq!(
            run("nanos-raw-arith", "let d = a.as_nanos() - b.as_nanos();\n").len(),
            1
        );
    }

    #[test]
    fn nanos_arith_allows_checked_chains_casts_and_tests() {
        // Chaining a checked method: the path no longer ends in the raw
        // accessor.
        assert!(run("nanos-raw-arith", "let q = t.as_nanos().checked_div(n);\n").is_empty());
        assert!(run("nanos-raw-arith", "let m = 1 + t.as_nanos().max(1);\n").is_empty());
        // An explicit cast marks deliberate raw-domain arithmetic.
        assert!(run("nanos-raw-arith", "let w = t.as_nanos() as u128 + 1;\n").is_empty());
        assert!(run("nanos-raw-arith", "let w = 1 + t.as_nanos() as u128;\n").is_empty());
        // Nanos-domain arithmetic and unguarded accessors stay silent.
        assert!(run("nanos-raw-arith", "let d = a.saturating_sub(b);\n").is_empty());
        assert!(run("nanos-raw-arith", "let u = x.as_micros() / 2;\n").is_empty());
        // Exempt in test code.
        assert!(run(
            "nanos-raw-arith",
            "#[cfg(test)]\nmod tests {\n    fn f() { let x = t.as_nanos() % 4000; }\n}\n"
        )
        .is_empty());
    }

    #[test]
    fn float_accum_needs_unordered_source_and_float_terminal() {
        let bad = "use std::collections::HashMap;\n\
                   fn f(m: &HashMap<u32, f64>) -> f64 {\n    \
                   m.values().sum::<f64>()\n}\n";
        let hits = run("float-accum-unordered", bad);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].line, 3);
        // Integer sums, ordered collections, and slices are fine.
        assert!(run(
            "float-accum-unordered",
            "use std::collections::HashMap;\nfn f(m: &HashMap<u32, u64>) -> u64 { m.values().sum::<u64>() }\n"
        )
        .is_empty());
        assert!(run(
            "float-accum-unordered",
            "use std::collections::BTreeMap;\nfn f(m: &BTreeMap<u32, f64>) -> f64 { m.values().sum::<f64>() }\n"
        )
        .is_empty());
        assert!(run(
            "float-accum-unordered",
            "fn f(v: &[f64]) -> f64 { v.iter().sum::<f64>() }\n"
        )
        .is_empty());
    }

    #[test]
    fn float_accum_covers_fold_and_multiline_chains() {
        let bad = "use std::collections::HashSet;\n\
                   fn f(s: &HashSet<u64>) -> f64 {\n    \
                   s.iter()\n        .map(|&x| x as f64)\n        .fold(0.0, |a, b| a + b)\n}\n";
        let hits = run("float-accum-unordered", bad);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].line, 5);
    }

    #[test]
    fn path_call_matches_across_whitespace_and_skips_docs() {
        assert_eq!(
            run("scenario-boundary", "let b = Network::builder();\n").len(),
            1
        );
        assert_eq!(
            run("scenario-boundary", "let b = Network ::\n    builder ();\n").len(),
            1
        );
        assert!(run(
            "scenario-boundary",
            "/// Use [`Network::builder`].\nfn f() {}\n"
        )
        .is_empty());
        assert!(run("scenario-boundary", "let b = scenario.to_builder();\n").is_empty());
    }

    #[test]
    fn sync_path_flags_raw_primitives_only_at_path_starts() {
        assert_eq!(
            run("raw-sync-primitive", "use std::sync::Mutex;\n").len(),
            1
        );
        assert_eq!(
            run("raw-sync-primitive", "let h = std::thread::spawn(f);\n").len(),
            1
        );
        // Paths match across line breaks, like other syntactic rules.
        assert_eq!(
            run(
                "raw-sync-primitive",
                "let a = std ::\n    sync::atomic::AtomicUsize::new(0);\n"
            )
            .len(),
            1
        );
        // `foo::std::sync` is not the std crate, and unlisted std::thread
        // items (sleep, available_parallelism) stay silent.
        assert!(run("raw-sync-primitive", "foo::std::sync::x();\n").is_empty());
        assert!(run("raw-sync-primitive", "std::thread::sleep(d);\n").is_empty());
        // Docs and test code are exempt.
        assert!(run(
            "raw-sync-primitive",
            "/// Uses std::sync::Mutex.\nfn f() {}\n"
        )
        .is_empty());
        assert!(run(
            "raw-sync-primitive",
            "#[cfg(test)]\nmod tests {\n    use std::sync::Mutex;\n}\n"
        )
        .is_empty());
    }

    #[test]
    fn relaxed_ordering_needs_the_ordering_path() {
        let hits = run(
            "relaxed-ordering-audit",
            "x.fetch_add(1, Ordering::Relaxed);\n",
        );
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains("Relaxed"));
        assert!(run("relaxed-ordering-audit", "x.load(Ordering::SeqCst);\n").is_empty());
        // A bare `Relaxed` identifier is not an atomic ordering.
        assert!(run("relaxed-ordering-audit", "let mode = Relaxed;\n").is_empty());
        assert!(run(
            "relaxed-ordering-audit",
            "#[cfg(test)]\nmod tests {\n    fn f() { x.load(Ordering::Relaxed); }\n}\n"
        )
        .is_empty());
    }

    #[test]
    fn lock_loop_fires_on_a_guard_held_across_sibling_locks() {
        let bad = "fn f() {\n    let mut own = ranges[w].lock();\n    \
                   for v in 0..n {\n        let other = ranges[v].lock();\n    }\n}\n";
        let hits = run("lock-in-loop-hold", bad);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].line, 4);
        assert!(hits[0].message.contains("line 2"));
    }

    #[test]
    fn lock_loop_allows_scoped_dropped_and_expression_guards() {
        // Guard scoped out in a block before the loop.
        let scoped = "fn f() {\n    let i = {\n        let mut own = ranges[w].lock();\n        \
                      own.pop()\n    };\n    for v in 0..n {\n        \
                      let other = ranges[v].lock();\n    }\n}\n";
        assert!(run("lock-in-loop-hold", scoped).is_empty());
        // Explicit drop before the loop.
        let dropped = "fn f() {\n    let own = ranges[w].lock();\n    drop(own);\n    \
                       for v in 0..n {\n        let o = ranges[v].lock();\n    }\n}\n";
        assert!(run("lock-in-loop-hold", dropped).is_empty());
        // Temporary guard (no binding) drops at the semicolon.
        let expr = "fn f() {\n    ranges[w].lock().pop();\n    \
                    for v in 0..n {\n        let o = ranges[v].lock();\n    }\n}\n";
        assert!(run("lock-in-loop-hold", expr).is_empty());
        // Un-indexed locks never fire: a single shared mutex cannot form
        // the symmetric cycle.
        let plain = "fn f() {\n    let g = state.lock();\n    \
                     for v in 0..n {\n        let o = state.lock();\n    }\n}\n";
        assert!(run("lock-in-loop-hold", plain).is_empty());
    }

    #[test]
    fn index_rule_flags_expressions_not_types() {
        let hits = run("direct-index", "let x = data[i];\n");
        assert_eq!(hits.len(), 1);
        assert!(run("direct-index", "let x: [u8; 4] = y;\n").is_empty());
        assert!(run("direct-index", "#[derive(Debug)]\nstruct S;\n").is_empty());
        assert!(run("direct-index", "let s = &v[..];\n").len() == 1); // slicing counts
    }
}
