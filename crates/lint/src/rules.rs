//! The rule set: what LACeS's determinism and robustness invariants
//! forbid, and where each rule applies.
//!
//! Every rule is derived from an invariant the system already relies on
//! (DESIGN.md §9–§11): reruns must be bit-identical, the measurement path
//! must degrade rather than panic, and all output flows through typed
//! results or `laces-obs`. The linter enforces them lexically; scope is
//! decided per file from its workspace-relative path.

use crate::lexer::Token;

/// A lint rule. Rule ids (`Rule::id`) are what allow markers and baseline
/// entries name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// R1: no wall-clock reads (`Instant::now`, `SystemTime::now`) outside
    /// `laces-obs` (which owns simulated time) and bench/example code.
    /// Wall-clock values differ across reruns and would leak
    /// nondeterminism into serialized artifacts.
    WallClock,
    /// R2: no ambient randomness (`thread_rng`, `from_entropy`, `OsRng`).
    /// Every RNG must be seeded from the world/measurement seed so a rerun
    /// of the same census day reproduces bit-identically.
    AmbientRng,
    /// R3: no `HashMap`/`HashSet` in code feeding serialized artifacts
    /// (census store, telemetry sidecar, world snapshots, bench
    /// artifacts). Their iteration order is randomized per process; use
    /// `BTreeMap`/`BTreeSet` or sort explicitly.
    UnorderedIter,
    /// R4: no `.unwrap()` / `.expect()` / `panic!` / `todo!` /
    /// `unimplemented!` in measurement-path library code now that
    /// `MeasurementError` exists — the path degrades, it does not abort.
    PanicPath,
    /// R5: no `println!`-family output in library crates; results flow
    /// through return values and `laces-obs` telemetry.
    PrintPath,
    /// R6: no direct `degraded` / `worker_health` field matching on the
    /// measurement path outside `impl Degraded for ..` blocks. Degradation
    /// state is read through the `laces_obs::Degraded` trait
    /// (`degraded_reasons()` / `is_degraded()`) so the sorted+dedup
    /// invariant and the "published anyway, flagged why" contract stay in
    /// one place; ad-hoc field pokes bypass both.
    DegradedBypass,
    /// R7: no numeric `as`-truncation (`as u8` / `as u16` / `as u32`) on
    /// identifier-typed operands — values whose names mark them as ids or
    /// indices (`*_id`, `worker`, `site`, `probe`, `vp`, `target`, ...).
    /// `as` silently wraps out-of-range values, and a wrapped worker or
    /// target id mis-attributes every downstream record; the sharded
    /// pipeline multiplies the exposure (every shard re-derives worker
    /// ids). Use `u16::try_from(..)` (with a typed error or a sentinel
    /// `unwrap_or`) so the narrowing is checked.
    AsTruncation,
    /// R8: determinism-taint — an unordered-iteration or ambient-ordering
    /// source (`HashMap`/`HashSet`, `available_parallelism`) in a function
    /// from which a serialization sink (`serde_json`, the store's
    /// `write_atomic`) is reachable through the workspace call graph.
    /// Unlike R3's crate allow-list, this is real reachability: a HashMap
    /// three calls upstream of a serialized sidecar fires wherever it
    /// lives. `--explain FILE:LINE` prints the full source→sink path.
    DeterminismTaint,
    /// R9: discarded fallibility — `let _ =` or a bare-`;` statement
    /// discarding a call the symbol table knows returns `Result` (or a
    /// known-fallible external such as channel `send` / `write!`). A
    /// swallowed error in a measurement crate silently degrades the census
    /// without flagging it; route through `?` or an explicit policy.
    DiscardedFallibility,
    /// R10: lock hygiene — a named lock guard held across a call into
    /// another lock-taking function (the deadlock shape), or held over a
    /// long span without an intervening `drop`. The sharded hot path must
    /// not serialize on incidental guard lifetimes.
    LockHygiene,
    /// R11: atomic ordering — `Ordering::Relaxed` in a function from which
    /// a serialization sink is reachable (same taint frontier as R8). A
    /// relaxed load feeding a canonical artifact can observe different
    /// values across reruns; the pr6 wire-geometry caches are the
    /// motivating case.
    AtomicOrdering,
    /// R12: ad-hoc metric-name string literal at a telemetry write site
    /// (`inc` / `set_gauge` / `record_histogram`). Two spellings of the
    /// same concept silently split a longitudinal series; production call
    /// sites reference the `laces_obs::names` registry consts (per-worker
    /// names go through `names::per_worker`, which keeps the stem
    /// registered).
    UnregisteredMetric,
    /// A malformed `laces-lint: allow(..)` marker: unknown rule id or
    /// missing justification. Markers must stay auditable.
    BadAllow,
}

/// All enforceable rules, in id order (excludes the marker meta-rule).
pub const ALL_RULES: [Rule; 12] = [
    Rule::WallClock,
    Rule::AmbientRng,
    Rule::UnorderedIter,
    Rule::PanicPath,
    Rule::PrintPath,
    Rule::DegradedBypass,
    Rule::AsTruncation,
    Rule::DeterminismTaint,
    Rule::DiscardedFallibility,
    Rule::LockHygiene,
    Rule::AtomicOrdering,
    Rule::UnregisteredMetric,
];

impl Rule {
    /// Stable kebab-case id used in markers, baselines and JSON output.
    pub fn id(self) -> &'static str {
        match self {
            Rule::WallClock => "wall-clock",
            Rule::AmbientRng => "ambient-rng",
            Rule::UnorderedIter => "unordered-iter",
            Rule::PanicPath => "panic-path",
            Rule::PrintPath => "print-path",
            Rule::DegradedBypass => "degraded-bypass",
            Rule::AsTruncation => "as-truncation",
            Rule::DeterminismTaint => "determinism-taint",
            Rule::DiscardedFallibility => "discarded-fallibility",
            Rule::LockHygiene => "lock-hygiene",
            Rule::AtomicOrdering => "atomic-ordering",
            Rule::UnregisteredMetric => "unregistered-metric",
            Rule::BadAllow => "bad-allow",
        }
    }

    /// Parse a rule id (as written in an allow marker).
    pub fn from_id(id: &str) -> Option<Rule> {
        match id {
            "wall-clock" => Some(Rule::WallClock),
            "ambient-rng" => Some(Rule::AmbientRng),
            "unordered-iter" => Some(Rule::UnorderedIter),
            "panic-path" => Some(Rule::PanicPath),
            "print-path" => Some(Rule::PrintPath),
            "degraded-bypass" => Some(Rule::DegradedBypass),
            "as-truncation" => Some(Rule::AsTruncation),
            "determinism-taint" => Some(Rule::DeterminismTaint),
            "discarded-fallibility" => Some(Rule::DiscardedFallibility),
            "lock-hygiene" => Some(Rule::LockHygiene),
            "atomic-ordering" => Some(Rule::AtomicOrdering),
            "unregistered-metric" => Some(Rule::UnregisteredMetric),
            "bad-allow" => Some(Rule::BadAllow),
            _ => None,
        }
    }

    /// One-line description shown in diagnostics.
    pub fn describe(self) -> &'static str {
        match self {
            Rule::WallClock => {
                "wall-clock read on a deterministic path — stage timing comes from \
                 laces-obs SimClock, not Instant/SystemTime"
            }
            Rule::AmbientRng => {
                "ambient randomness — every RNG must be seeded from the world or \
                 measurement seed so reruns are bit-identical"
            }
            Rule::UnorderedIter => {
                "HashMap/HashSet in a serialized path — iteration order is \
                 per-process random; use BTreeMap/BTreeSet or sort explicitly"
            }
            Rule::PanicPath => {
                "panicking call in measurement-path library code — propagate \
                 MeasurementError (or the module's typed error) instead"
            }
            Rule::PrintPath => {
                "direct stdout/stderr output in a library crate — route through \
                 laces-obs telemetry or return the value"
            }
            Rule::DegradedBypass => {
                "direct degraded/worker_health field access bypasses the Degraded \
                 trait — read degradation through degraded_reasons()/is_degraded()"
            }
            Rule::AsTruncation => {
                "numeric `as`-truncation of an id-typed value — `as` wraps \
                 silently and a wrapped worker/target id mis-attributes records; \
                 use u16::try_from(..) so the narrowing is checked"
            }
            Rule::DeterminismTaint => {
                "unordered/ambient source in a function that reaches a \
                 serialization sink through the call graph — its value can end \
                 up in a canonical artifact; sort, seed or restructure \
                 (--explain FILE:LINE shows the path)"
            }
            Rule::DiscardedFallibility => {
                "discarded Result in a measurement crate — a swallowed error \
                 silently degrades the census; propagate with `?` or handle \
                 the failure explicitly"
            }
            Rule::LockHygiene => {
                "lock guard held across another lock acquisition or a long \
                 span — deadlock-shaped and serializes the sharded hot path; \
                 drop the guard (or narrow its scope) first"
            }
            Rule::AtomicOrdering => {
                "Ordering::Relaxed in a function that reaches a serialization \
                 sink — a relaxed value feeding a canonical artifact can \
                 differ across reruns; use a deterministic source or justify \
                 why the value is order-independent"
            }
            Rule::UnregisteredMetric => {
                "ad-hoc metric-name literal at a telemetry write site — use a \
                 laces_obs::names registry const (or names::per_worker over a \
                 registered stem) so the longitudinal series cannot fork"
            }
            Rule::BadAllow => {
                "malformed laces-lint allow marker — needs a known rule id and a \
                 non-empty justification"
            }
        }
    }

    /// Whether this rule applies to the file at workspace-relative `path`
    /// (forward slashes). Test sources (`tests/` trees) and `#[cfg(test)]`
    /// regions are exempt from every rule; the latter is handled by the
    /// scanner, the former here.
    pub fn applies_to(self, path: &str) -> bool {
        // R2 holds everywhere we scan: even examples, tests and bench runs
        // must reproduce from their seeds.
        if matches!(self, Rule::AmbientRng | Rule::BadAllow) {
            return true;
        }
        if is_test_tree(path) {
            return false;
        }
        match self {
            Rule::AmbientRng | Rule::BadAllow => unreachable!("handled above"),
            // R1: library src of every crate except laces-obs (owner of
            // time) and laces-bench (it times the experiment suite).
            Rule::WallClock => {
                is_lib_src(path) && !in_crate(path, "obs") && !in_crate(path, "bench")
            }
            // R3: the crates whose in-memory state reaches disk — census
            // records/stats, telemetry sidecars, world snapshots consumed
            // by deterministic tests, and bench artifacts.
            Rule::UnorderedIter => SERIALIZED_PATH_CRATES
                .iter()
                .any(|c| in_crate(path, c) && under_src(path)),
            // R4: measurement-path library code.
            Rule::PanicPath => {
                is_lib_src(path) && MEASUREMENT_CRATES.iter().any(|c| in_crate(path, c))
            }
            // R5: every library crate (bench is a reporting harness and
            // prints by design).
            Rule::PrintPath => is_lib_src(path) && !in_crate(path, "bench"),
            // R6: measurement-path library code, except laces-obs — the
            // owner of RunReport is allowed at its own fields.
            Rule::DegradedBypass => {
                is_lib_src(path)
                    && !in_crate(path, "obs")
                    && MEASUREMENT_CRATES.iter().any(|c| in_crate(path, c))
            }
            // R7: measurement-path library code — the crates where a
            // wrapped id reaches records, telemetry or the wire.
            Rule::AsTruncation => {
                is_lib_src(path) && MEASUREMENT_CRATES.iter().any(|c| in_crate(path, c))
            }
            // R8/R11: graph rules — no crate allow-list. Any crate `src/`
            // (bins included: a main.rs serializing a report is exactly the
            // sink that matters); the call graph itself excludes test code.
            Rule::DeterminismTaint | Rule::AtomicOrdering => under_src(path) && !is_test_tree(path),
            // R9/R10/R12: measurement-path library code, like R4.
            Rule::DiscardedFallibility | Rule::LockHygiene | Rule::UnregisteredMetric => {
                is_lib_src(path) && MEASUREMENT_CRATES.iter().any(|c| in_crate(path, c))
            }
        }
    }
}

/// Crates whose library code sits on the measurement path (R4/R9/R10
/// scope). `lint` polices the others' determinism contract and so holds
/// itself to the same robustness bar (self-clean since flow-lint v2).
pub const MEASUREMENT_CRATES: [&str; 8] = [
    "census", "core", "gcd", "health", "lint", "netsim", "obs", "query",
];

/// Crates whose `src/` feeds serialized artifacts (R3 scope).
pub const SERIALIZED_PATH_CRATES: [&str; 6] =
    ["bench", "census", "health", "netsim", "obs", "query"];

fn in_crate(path: &str, name: &str) -> bool {
    path.strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .is_some_and(|c| c == name)
}

fn under_src(path: &str) -> bool {
    path.strip_prefix("crates/")
        .and_then(|rest| rest.split_once('/'))
        .is_some_and(|(_, sub)| sub.starts_with("src/"))
}

/// `crates/<c>/src/**` excluding binaries (`src/bin/**`, `src/main.rs`):
/// the scope where "library code" rules bite.
fn is_lib_src(path: &str) -> bool {
    path.strip_prefix("crates/")
        .and_then(|rest| rest.split_once('/'))
        .is_some_and(|(_, sub)| {
            sub.starts_with("src/") && !sub.starts_with("src/bin/") && sub != "src/main.rs"
        })
}

/// Test trees: crate-level `tests/`, the workspace `tests/` crate, bench
/// `benches/`, and `examples/` (both crate-level and workspace-level).
fn is_test_tree(path: &str) -> bool {
    path.starts_with("tests/")
        || path.starts_with("examples/")
        || path.contains("/tests/")
        || path.contains("/benches/")
        || path.contains("/examples/")
}

/// One raw rule hit, before allow-marker / baseline suppression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hit {
    /// The rule that fired.
    pub rule: Rule,
    /// 1-based source line.
    pub line: u32,
    /// What matched (for the diagnostic), e.g. `Instant::now`.
    pub matched: String,
}

/// Narrowing targets R7 flags. Widening (`as u64`) cannot wrap the ids
/// this codebase mints (u16 workers, u32 targets), and `as usize` is how
/// wire ids index per-worker tables — both stay legal.
const TRUNCATING_WIDTHS: [&str; 3] = ["u8", "u16", "u32"];

/// Whether an identifier names an id- or index-typed value (R7's naming
/// heuristic): `*_id` / `*_idx` suffixes, camel-case `..Id` type names,
/// or the domain nouns that id every record field.
fn is_id_like(ident: &str) -> bool {
    if ident.ends_with("Id") && ident.len() > 2 {
        return true;
    }
    let lower = ident.to_ascii_lowercase();
    lower == "id"
        || lower == "idx"
        || lower.ends_with("_id")
        || lower.ends_with("_idx")
        || lower.contains("worker")
        || lower.contains("site")
        || lower.contains("probe")
        || lower.contains("target")
        || lower == "vp"
        || lower.starts_with("vp_")
        || lower.ends_with("_vp")
}

/// For an `as u8/u16/u32` at `as_idx`, find the id-like identifier that
/// names the cast operand, if any. Walks backwards through the operand
/// expression with paren-depth tracking; stepping out of the cast's
/// enclosing group checks the callee (catching `TargetId(i as u32)`), and
/// statement/argument boundaries (`;`, `{`, `}`, and `,` / `=` at depth
/// zero) end the operand.
fn id_like_operand(tokens: &[Token], as_idx: usize) -> Option<String> {
    let text = |i: usize| tokens.get(i).map(|t| t.text.as_str());
    let mut depth = 0i32;
    let mut j = as_idx;
    for _ in 0..16 {
        if j == 0 {
            return None;
        }
        j -= 1;
        let t = text(j)?;
        match t {
            ")" | "]" => depth += 1,
            "(" => {
                if depth == 0 {
                    let callee = j.checked_sub(1).and_then(text)?;
                    if is_id_like(callee) {
                        return Some(callee.to_string());
                    }
                    return None;
                }
                depth -= 1;
            }
            "[" => depth = (depth - 1).max(0),
            ";" | "{" | "}" => return None,
            "," | "=" if depth == 0 => return None,
            _ => {
                if is_id_like(t) {
                    return Some(t.to_string());
                }
            }
        }
    }
    None
}

const WALL_CLOCK_TYPES: [&str; 2] = ["Instant", "SystemTime"];
const DEGRADED_FIELDS: [&str; 2] = ["degraded", "worker_health"];
const AMBIENT_RNG_IDENTS: [&str; 3] = ["OsRng", "from_entropy", "thread_rng"];
const UNORDERED_TYPES: [&str; 2] = ["HashMap", "HashSet"];
const PANIC_METHODS: [&str; 2] = ["expect", "unwrap"];
const PANIC_MACROS: [&str; 3] = ["panic", "todo", "unimplemented"];
const PRINT_MACROS: [&str; 5] = ["dbg", "eprint", "eprintln", "print", "println"];
const METRIC_METHODS: [&str; 3] = ["inc", "record_histogram", "set_gauge"];

/// Mark every token inside an `impl Degraded for ..` block (including
/// `impl laces_obs::Degraded for ..` path forms): the one place direct
/// `degraded` field access is the point rather than a bypass. Token-level
/// brace matching, same approach as the test-exemption mask.
fn degraded_impl_mask(tokens: &[Token]) -> Vec<bool> {
    let n = tokens.len();
    let mut mask = vec![false; n];
    let text = |i: usize| tokens.get(i).map(|t| t.text.as_str());
    let mut i = 0usize;
    while i < n {
        if text(i) != Some("impl") {
            i += 1;
            continue;
        }
        // Scan the impl header (up to the opening `{`), looking for the
        // `Degraded .. for` shape. A `{` before `for` means this is an
        // inherent impl (or a different trait) — leave it alone.
        let mut saw_degraded = false;
        let mut is_degraded_impl = false;
        let mut j = i + 1;
        while j < n {
            match text(j) {
                Some("{") => break,
                Some("for") => {
                    is_degraded_impl = saw_degraded;
                    break;
                }
                Some("Degraded") => saw_degraded = true,
                _ => {}
            }
            j += 1;
        }
        if !is_degraded_impl {
            i += 1;
            continue;
        }
        // Find the block's `{` and mark through its matching `}`.
        while j < n && text(j) != Some("{") {
            j += 1;
        }
        let mut depth = 0i32;
        let mut k = j;
        while k < n {
            match text(k) {
                Some("{") => depth += 1,
                Some("}") => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        let end = (k + 1).min(n);
        for m in mask.iter_mut().take(end).skip(i) {
            *m = true;
        }
        i = end;
    }
    mask
}

/// Run every in-scope rule over the token stream. `skip[i]` marks tokens
/// inside `#[cfg(test)]` items, `#[test]` items or attribute argument
/// lists — exempt from all rules.
pub fn check_tokens(path: &str, tokens: &[Token], skip: &[bool]) -> Vec<Hit> {
    let mut hits = Vec::new();
    let text = |i: usize| tokens.get(i).map(|t| t.text.as_str());
    let degraded_scope = Rule::DegradedBypass.applies_to(path);
    let degraded_impl = if degraded_scope {
        degraded_impl_mask(tokens)
    } else {
        Vec::new()
    };
    for (i, tok) in tokens.iter().enumerate() {
        if skip.get(i).copied().unwrap_or(false) {
            continue;
        }
        let t = tok.text.as_str();
        if Rule::WallClock.applies_to(path)
            && WALL_CLOCK_TYPES.contains(&t)
            && text(i + 1) == Some("::")
            && text(i + 2) == Some("now")
        {
            hits.push(Hit {
                rule: Rule::WallClock,
                line: tok.line,
                matched: format!("{t}::now"),
            });
        }
        if Rule::AmbientRng.applies_to(path) && AMBIENT_RNG_IDENTS.contains(&t) {
            hits.push(Hit {
                rule: Rule::AmbientRng,
                line: tok.line,
                matched: t.to_string(),
            });
        }
        if Rule::UnorderedIter.applies_to(path) && UNORDERED_TYPES.contains(&t) {
            hits.push(Hit {
                rule: Rule::UnorderedIter,
                line: tok.line,
                matched: t.to_string(),
            });
        }
        if Rule::PanicPath.applies_to(path) {
            // `.unwrap(` / `.expect(` — the exact method, so
            // `unwrap_or_else` and friends stay legal.
            if PANIC_METHODS.contains(&t)
                && i > 0
                && text(i - 1) == Some(".")
                && text(i + 1) == Some("(")
            {
                hits.push(Hit {
                    rule: Rule::PanicPath,
                    line: tok.line,
                    matched: format!(".{t}()"),
                });
            }
            if PANIC_MACROS.contains(&t) && text(i + 1) == Some("!") {
                hits.push(Hit {
                    rule: Rule::PanicPath,
                    line: tok.line,
                    matched: format!("{t}!"),
                });
            }
        }
        if Rule::PrintPath.applies_to(path) && PRINT_MACROS.contains(&t) && text(i + 1) == Some("!")
        {
            hits.push(Hit {
                rule: Rule::PrintPath,
                line: tok.line,
                matched: format!("{t}!"),
            });
        }
        // `<id-like> as u8/u16/u32` — a silently wrapping narrowing of an
        // id-typed value.
        if Rule::AsTruncation.applies_to(path) && t == "as" && i > 0 {
            if let Some(width) = text(i + 1).filter(|w| TRUNCATING_WIDTHS.contains(w)) {
                if let Some(operand) = id_like_operand(tokens, i) {
                    hits.push(Hit {
                        rule: Rule::AsTruncation,
                        line: tok.line,
                        matched: format!("{operand} as {width}"),
                    });
                }
            }
        }
        // `.inc("…", ..)` / `.set_gauge("…", ..)` / `.record_histogram("…", ..)`
        // with a bare string-literal first argument. The lexer drops
        // string literals from the token stream, so a literal-first call
        // is exactly `.method(` followed immediately by `,`; a registry
        // const (`names::…`) or a `&format!` over one leaves an
        // identifier there instead.
        if Rule::UnregisteredMetric.applies_to(path)
            && METRIC_METHODS.contains(&t)
            && i > 0
            && text(i - 1) == Some(".")
            && text(i + 1) == Some("(")
            && text(i + 2) == Some(",")
        {
            hits.push(Hit {
                rule: Rule::UnregisteredMetric,
                line: tok.line,
                matched: format!(".{t}(\"…\")"),
            });
        }
        // `.degraded` / `.worker_health` field access (a following `(`
        // would make it a method call — `census.degraded()` is the trait's
        // own surface and stays legal).
        if degraded_scope
            && DEGRADED_FIELDS.contains(&t)
            && i > 0
            && text(i - 1) == Some(".")
            && text(i + 1) != Some("(")
            && !degraded_impl.get(i).copied().unwrap_or(false)
        {
            hits.push(Hit {
                rule: Rule::DegradedBypass,
                line: tok.line,
                matched: format!(".{t}"),
            });
        }
    }
    hits
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_ids_round_trip() {
        for r in ALL_RULES {
            assert_eq!(Rule::from_id(r.id()), Some(r));
        }
        assert_eq!(Rule::from_id("bad-allow"), Some(Rule::BadAllow));
        assert_eq!(Rule::from_id("no-such-rule"), None);
    }

    #[test]
    fn scopes_match_the_workspace_layout() {
        // R1 exempts obs (owner of time) and bench (times experiments).
        assert!(Rule::WallClock.applies_to("crates/core/src/worker.rs"));
        assert!(!Rule::WallClock.applies_to("crates/obs/src/stage.rs"));
        assert!(!Rule::WallClock.applies_to("crates/bench/src/artifacts.rs"));
        assert!(!Rule::WallClock.applies_to("examples/quickstart.rs"));
        // R2 applies even to examples.
        assert!(Rule::AmbientRng.applies_to("examples/quickstart.rs"));
        // R3 covers serialized-path crates only.
        assert!(Rule::UnorderedIter.applies_to("crates/census/src/store.rs"));
        assert!(Rule::UnorderedIter.applies_to("crates/bench/src/artifacts.rs"));
        assert!(Rule::UnorderedIter.applies_to("crates/query/src/idx.rs"));
        assert!(!Rule::UnorderedIter.applies_to("crates/geo/src/cities.rs"));
        // R4 covers measurement-path library code, not bins or tests.
        assert!(Rule::PanicPath.applies_to("crates/gcd/src/enumerate.rs"));
        assert!(Rule::PanicPath.applies_to("crates/query/src/service.rs"));
        assert!(!Rule::PanicPath.applies_to("crates/gcd/tests/gcd_e2e.rs"));
        assert!(!Rule::PanicPath.applies_to("crates/baselines/src/bgptools.rs"));
        // R5 spares the bench harness and binaries.
        assert!(Rule::PrintPath.applies_to("crates/census/src/pipeline.rs"));
        assert!(!Rule::PrintPath.applies_to("crates/bench/src/report.rs"));
        assert!(!Rule::PrintPath.applies_to("crates/lint/src/main.rs"));
        // R6 covers measurement-path library code but spares laces-obs,
        // the owner of the RunReport fields.
        assert!(Rule::DegradedBypass.applies_to("crates/core/src/results.rs"));
        assert!(Rule::DegradedBypass.applies_to("crates/census/src/pipeline.rs"));
        assert!(!Rule::DegradedBypass.applies_to("crates/obs/src/report.rs"));
        assert!(!Rule::DegradedBypass.applies_to("crates/geo/src/cities.rs"));
        assert!(!Rule::DegradedBypass.applies_to("crates/core/tests/fault_matrix.rs"));
        // Test trees are exempt from everything except ambient-rng.
        assert!(Rule::AmbientRng.applies_to("tests/tests/daily_census.rs"));
        assert!(!Rule::PanicPath.applies_to("crates/core/tests/fault_matrix.rs"));
    }

    #[test]
    fn as_truncation_detection() {
        use crate::scan_source;
        let path = "crates/core/src/fixture.rs";
        let src = "\
pub fn bad(worker_id: usize, vp: usize, targets: &[u8]) {
    let a = worker_id as u16;
    let b = TargetId(vp as u32);
    let c = (rng % u64::from(n_workers)) as u16;
    consume(a, b, c);
}
pub fn legal(worker_id: usize, len: usize, x: u64) {
    let a = u16::try_from(worker_id).unwrap_or(u16::MAX);
    let b = worker_id as u64;
    let c = worker_id as usize;
    let d = len as u32;
    consume(a, b, c, d, x as u16);
}
";
        let (violations, _) = scan_source(path, src);
        let hits: Vec<(u32, &str)> = violations
            .iter()
            .filter(|v| v.rule == Rule::AsTruncation)
            .map(|v| (v.line, v.message.as_str()))
            .collect();
        assert_eq!(hits.len(), 3, "{violations:#?}");
        assert_eq!(hits[0].0, 2, "direct id cast fires");
        assert_eq!(hits[1].0, 3, "id-typed constructor argument fires");
        assert_eq!(hits[2].0, 4, "id-derived arithmetic fires");
        // Widening, usize casts, non-id operands and try_from stay legal.
        assert!(hits.iter().all(|(line, _)| *line <= 4), "{hits:?}");
    }

    #[test]
    fn as_truncation_scope_is_the_measurement_path() {
        assert!(Rule::AsTruncation.applies_to("crates/core/src/worker.rs"));
        assert!(Rule::AsTruncation.applies_to("crates/netsim/src/world.rs"));
        assert!(Rule::AsTruncation.applies_to("crates/gcd/src/engine.rs"));
        assert!(!Rule::AsTruncation.applies_to("crates/bench/src/probing.rs"));
        assert!(!Rule::AsTruncation.applies_to("crates/core/tests/fault_matrix.rs"));
        // Since flow-lint v2 the linter holds itself to the same bar.
        assert!(Rule::AsTruncation.applies_to("crates/lint/src/rules.rs"));
    }

    #[test]
    fn graph_rule_scopes() {
        // R8/R11 have no crate allow-list: any crate src, bins included.
        for r in [Rule::DeterminismTaint, Rule::AtomicOrdering] {
            assert!(r.applies_to("crates/geo/src/cities.rs"), "{r:?}");
            assert!(r.applies_to("crates/lint/src/main.rs"), "{r:?}");
            assert!(r.applies_to("crates/bench/src/artifacts.rs"), "{r:?}");
            assert!(!r.applies_to("crates/core/tests/fault_matrix.rs"), "{r:?}");
            assert!(!r.applies_to("examples/quickstart.rs"), "{r:?}");
            assert!(!r.applies_to("crates/netsim/examples/scale.rs"), "{r:?}");
        }
        // R9/R10 track the measurement-path scope (now including lint).
        for r in [Rule::DiscardedFallibility, Rule::LockHygiene] {
            assert!(r.applies_to("crates/core/src/orchestrator.rs"), "{r:?}");
            assert!(r.applies_to("crates/lint/src/json.rs"), "{r:?}");
            assert!(!r.applies_to("crates/bench/src/probing.rs"), "{r:?}");
            assert!(!r.applies_to("crates/core/tests/fault_matrix.rs"), "{r:?}");
        }
    }

    #[test]
    fn degraded_bypass_detection() {
        use crate::scan_source;
        let path = "crates/core/src/fixture.rs";
        // Field access fires; method calls and trait impls do not.
        let src = "\
pub fn peek(outcome: &MeasurementOutcome) -> usize {
    outcome.worker_health.len() + outcome.telemetry.degraded.len()
}
pub fn legal(census: &DailyCensus) -> bool {
    census.degraded() || !census.degraded_reasons().is_empty()
}
impl Degraded for Wrapper {
    fn degraded_reasons(&self) -> &[DegradedReason] {
        &self.inner.degraded
    }
}
impl laces_obs::Degraded for Other {
    fn degraded_reasons(&self) -> &[DegradedReason] {
        &self.report.degraded
    }
}
";
        let (violations, _) = scan_source(path, src);
        let hits: Vec<(u32, &str)> = violations
            .iter()
            .filter(|v| v.rule == Rule::DegradedBypass)
            .map(|v| (v.line, v.message.as_str()))
            .collect();
        assert_eq!(hits.len(), 2, "{violations:#?}");
        assert!(hits.iter().all(|(line, _)| *line == 2), "{hits:?}");
    }
}
