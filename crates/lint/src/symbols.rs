//! Pass 1 of the flow analyzer: a deterministic, brace-aware symbol table
//! built on top of the token stream the lexer already produces.
//!
//! A full Rust parse is out of scope for a dependency-free linter, but the
//! flow rules (R8–R11) need more than per-token matching: they need to know
//! *which function* a token sits in, what that function calls, whether it
//! returns `Result`, and whether it touches locks, atomics, unordered
//! collections or serialization. This module extracts exactly that —
//! function spans (tracked through nested braces), the enclosing `impl`
//! type, an approximate call list with discard/guard context, and the
//! per-function "facts" the graph pass consumes.
//!
//! Everything here is deterministic in the token stream alone: no maps
//! keyed by hash order, no filesystem access, no ambient state.

use crate::lexer::Token;

/// A line-anchored fact inside a function body (a flow source, sink or
/// atomic-ordering site).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Site {
    /// 1-based source line.
    pub line: u32,
    /// What matched, for diagnostics (e.g. `HashMap`, `serde_json::to_string`).
    pub what: String,
}

/// How a call's return value was discarded, if it was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Discard {
    /// `let _ = call(..);`
    LetUnderscore,
    /// `call(..);` as a bare statement.
    BareStatement,
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// The callee's final path segment (`save` in `store::save`).
    pub name: String,
    /// Full path segments when the call was path-qualified
    /// (`["laces_census", "store", "save"]`); empty for bare and method
    /// calls.
    pub path: Vec<String>,
    /// Whether this was a method call (`receiver.name(..)`).
    pub method: bool,
    /// Whether this was a macro invocation (`name!(..)`).
    pub is_macro: bool,
    /// 1-based source line.
    pub line: u32,
    /// Set when the call's return value is syntactically discarded.
    pub discard: Option<Discard>,
    /// Set when a named lock guard bound earlier in the function is still
    /// live (not yet `drop`ped) at this call: `(guard name, bind line)`.
    pub guard: Option<(String, u32)>,
}

/// A named lock-guard binding: `let [mut] g = <recv>.lock()/.read()/.write();`.
#[derive(Debug, Clone)]
pub struct GuardBind {
    /// The bound guard's name.
    pub name: String,
    /// 1-based line of the binding.
    pub line: u32,
    /// Token index of the binding's acquisition call.
    pub tok: usize,
    /// Token index of a matching `drop(g)`, if any.
    pub drop_tok: Option<usize>,
    /// Line of the `drop(g)`, if any.
    pub drop_line: Option<u32>,
}

/// One function definition and the flow facts extracted from its body.
#[derive(Debug, Clone)]
pub struct FnSym {
    /// The function's name.
    pub name: String,
    /// The enclosing `impl` block's type name, when inside one.
    pub impl_type: Option<String>,
    /// Workspace-relative file path (forward slashes).
    pub file: String,
    /// The crate the file belongs to (`census` for `crates/census/..`),
    /// empty for workspace-level `tests/`/`examples/` files.
    pub crate_name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// 1-based line of the body's closing brace.
    pub end_line: u32,
    /// Inside `#[cfg(test)]` / `#[test]` scope (graph pass excludes these).
    pub is_test: bool,
    /// Whether the return type mentions `Result`.
    pub returns_result: bool,
    /// Whether the body acquires any lock (`.lock()` / `.read()` /
    /// `.write()` with empty argument lists).
    pub takes_lock: bool,
    /// Calls made from the body, in source order.
    pub calls: Vec<CallSite>,
    /// Determinism-taint sources (unordered collections, ambient
    /// parallelism), in source order.
    pub sources: Vec<Site>,
    /// Serialization sinks (`serde_json::to_*`, `write_atomic`), in
    /// source order.
    pub sinks: Vec<Site>,
    /// `Ordering::Relaxed` sites, in source order (one per line).
    pub relaxed: Vec<Site>,
    /// Named lock-guard bindings, in source order.
    pub guard_binds: Vec<GuardBind>,
}

/// Keywords that look like calls when followed by `(` but are not.
const NON_CALL_KEYWORDS: [&str; 28] = [
    "Self", "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else",
    "enum", "extern", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move",
    "mut", "pub", "ref", "return", "while",
];

/// Unordered-iteration / ambient-ordering identifiers (R8 sources).
const SOURCE_UNORDERED: [&str; 2] = ["HashMap", "HashSet"];
const SOURCE_AMBIENT: [&str; 1] = ["available_parallelism"];

fn is_ident(t: &str) -> bool {
    t.chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
}

/// Extract the crate name from a workspace-relative path.
pub fn crate_of(path: &str) -> &str {
    path.strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .unwrap_or("")
}

/// Parse one file's token stream into its function symbols. `skip[i]`
/// marks test-exempt tokens (from `exempt_tokens`); functions
/// whose `fn` token is masked are recorded with `is_test = true`.
pub fn file_symbols(path: &str, tokens: &[Token], skip: &[bool]) -> Vec<FnSym> {
    let n = tokens.len();
    let text = |i: usize| tokens.get(i).map(|t| t.text.as_str());
    let mut out: Vec<FnSym> = Vec::new();
    let crate_name = crate_of(path).to_string();

    // Impl-block stack: (type name, brace depth at the block's `{`).
    let mut impl_stack: Vec<(String, i32)> = Vec::new();
    // Open-function stack: (index into `out`, brace depth at body `{`).
    let mut fn_stack: Vec<(usize, i32)> = Vec::new();
    let mut depth = 0i32;

    let mut i = 0usize;
    while i < n {
        let t = text(i).unwrap_or("");
        match t {
            "{" => {
                depth += 1;
                i += 1;
            }
            "}" => {
                depth -= 1;
                if let Some(&(fi, d)) = fn_stack.last() {
                    if depth < d {
                        out[fi].end_line = tokens[i].line;
                        fn_stack.pop();
                    }
                }
                if let Some(&(_, d)) = impl_stack.last() {
                    if depth < d {
                        impl_stack.pop();
                    }
                }
                i += 1;
            }
            "impl" => {
                // Scan the header up to its `{`; `for T` names the
                // implementing type, otherwise the first plain identifier
                // after any `impl<..>` generics does.
                let mut j = i + 1;
                let mut ty: Option<String> = None;
                let mut after_for = false;
                let mut angle = 0i32;
                while j < n {
                    match text(j) {
                        Some("{") if angle <= 0 => break,
                        Some(";") if angle <= 0 => break, // `impl Trait for T;` — not real Rust, bail
                        Some("<") => angle += 1,
                        Some(">") => angle -= 1,
                        Some("for") if angle <= 0 => {
                            after_for = true;
                            ty = None;
                        }
                        Some(s)
                            if angle <= 0
                                && is_ident(s)
                                && s != "dyn"
                                && (ty.is_none() || after_for) =>
                        {
                            ty = Some(s.to_string());
                            after_for = false;
                        }
                        _ => {}
                    }
                    j += 1;
                }
                if text(j) == Some("{") {
                    impl_stack.push((ty.unwrap_or_default(), depth + 1));
                    depth += 1;
                    i = j + 1;
                } else {
                    i = j;
                }
            }
            "fn" => {
                // `fn(` is a function-pointer type, not a definition.
                let Some(name_tok) = text(i + 1).filter(|s| is_ident(s)) else {
                    i += 1;
                    continue;
                };
                let def_line = tokens[i].line;
                let is_test = skip.get(i).copied().unwrap_or(false);
                // Scan the signature to the body `{` (or a `;` for
                // bodyless trait methods), noting a `Result` return.
                let mut j = i + 2;
                let mut paren = 0i32;
                let mut angle = 0i32;
                let mut returns_result = false;
                let mut has_body = false;
                while j < n {
                    match text(j) {
                        Some("(") => paren += 1,
                        Some(")") => paren -= 1,
                        Some("<") => angle += 1,
                        Some(">") => angle -= 1,
                        Some("{") if paren == 0 => {
                            has_body = true;
                            break;
                        }
                        Some(";") if paren == 0 && angle <= 0 => break,
                        Some("Result") => returns_result = true,
                        _ => {}
                    }
                    j += 1;
                }
                if !has_body {
                    i = j.saturating_add(1).min(n);
                    continue;
                }
                out.push(FnSym {
                    name: name_tok.to_string(),
                    impl_type: impl_stack.last().map(|(ty, _)| ty.clone()),
                    file: path.to_string(),
                    crate_name: crate_name.clone(),
                    line: def_line,
                    end_line: def_line,
                    is_test,
                    returns_result,
                    takes_lock: false,
                    calls: Vec::new(),
                    sources: Vec::new(),
                    sinks: Vec::new(),
                    relaxed: Vec::new(),
                    guard_binds: Vec::new(),
                });
                fn_stack.push((out.len() - 1, depth + 1));
                depth += 1;
                i = j + 1;
            }
            _ => {
                if let Some(&(fi, _)) = fn_stack.last() {
                    scan_body_token(&mut out[fi], tokens, skip, i);
                }
                i += 1;
            }
        }
    }
    // Unclosed functions (truncated file): close at the last token's line.
    for (fi, _) in fn_stack {
        out[fi].end_line = tokens.last().map_or(out[fi].line, |t| t.line);
    }

    for f in &mut out {
        attach_guard_liveness(f);
    }
    out
}

/// Record whatever fact token `i` contributes to the innermost open
/// function `f`. Tokens masked by `skip` contribute nothing.
fn scan_body_token(f: &mut FnSym, tokens: &[Token], skip: &[bool], i: usize) {
    if skip.get(i).copied().unwrap_or(false) {
        return;
    }
    let text = |k: usize| tokens.get(k).map(|t| t.text.as_str());
    let t = tokens[i].text.as_str();
    let line = tokens[i].line;

    if SOURCE_UNORDERED.contains(&t) || SOURCE_AMBIENT.contains(&t) {
        f.sources.push(Site {
            line,
            what: t.to_string(),
        });
    }
    if t == "Relaxed" && f.relaxed.last().map(|s| s.line) != Some(line) {
        f.relaxed.push(Site {
            line,
            what: "Ordering::Relaxed".to_string(),
        });
    }

    // Lock acquisition: `.lock()` / `.read()` / `.write()` with an empty
    // argument list (File::read/write take buffers, so the empty parens
    // discriminate the guard-returning forms).
    if matches!(t, "lock" | "read" | "write")
        && text(i.wrapping_sub(1)) == Some(".")
        && text(i + 1) == Some("(")
        && text(i + 2) == Some(")")
    {
        f.takes_lock = true;
        if let Some((name, bind_line)) = guard_binding_of(tokens, i) {
            f.guard_binds.push(GuardBind {
                name,
                line: bind_line,
                tok: i,
                drop_tok: None,
                drop_line: None,
            });
        }
    }

    // `drop(g)` — closes the most recent live guard named `g`.
    if t == "drop" && text(i + 1) == Some("(") {
        if let Some(g) = text(i + 2) {
            if text(i + 3) == Some(")") {
                if let Some(b) = f
                    .guard_binds
                    .iter_mut()
                    .rev()
                    .find(|b| b.name == g && b.drop_tok.is_none())
                {
                    b.drop_tok = Some(i);
                    b.drop_line = Some(line);
                }
            }
        }
    }

    // Call sites: `ident(` (plain/path/method) and `ident!(` (macro).
    if !is_ident(t) || NON_CALL_KEYWORDS.contains(&t) {
        return;
    }
    let is_macro = text(i + 1) == Some("!") && text(i + 2) == Some("(");
    let is_call = text(i + 1) == Some("(");
    if !is_call && !is_macro {
        return;
    }
    // The token before the whole path decides method-ness; rebuild the
    // path backwards over `seg::seg::name`.
    let mut start = i;
    let mut path_rev: Vec<String> = vec![t.to_string()];
    while start >= 2
        && text(start - 1) == Some("::")
        && text(start - 2).is_some_and(|s| is_ident(s) || s == "crate" || s == "super")
    {
        path_rev.push(tokens[start - 2].text.clone());
        start -= 2;
    }
    let before = start.checked_sub(1).and_then(text);
    let method = before == Some(".");
    let mut path: Vec<String> = path_rev.into_iter().rev().collect();
    if path.len() == 1 {
        path.clear(); // bare call: no qualifying path
    }
    let open = if is_macro { i + 2 } else { i + 1 };
    let discard = discard_of(tokens, start, open, method);
    f.calls.push(CallSite {
        name: t.to_string(),
        path,
        method,
        is_macro,
        line,
        discard,
        guard: None, // filled by attach_guard_liveness
    });
    // `serde_json::to_*` and `write_atomic` are serialization sinks.
    let qualified = f.calls.last().map(|c| c.path.as_slice()).unwrap_or(&[]);
    let is_serde_sink =
        qualified.iter().any(|s| s == "serde_json") && t.starts_with("to_") && !is_macro;
    if is_serde_sink || (t == "write_atomic" && !is_macro) {
        let what = if is_serde_sink {
            format!("serde_json::{t}")
        } else {
            t.to_string()
        };
        f.sinks.push(Site { line, what });
    }
    // Remember the call's token index via the guard-liveness side table
    // (encoded in the guard field later; see attach_guard_liveness).
    if let Some(c) = f.calls.last_mut() {
        c.guard = Some((format!("\u{0}tok{i}"), 0)); // sentinel, replaced below
    }
}

/// Find the `let [mut] name =` binding a lock acquisition at token `acq`
/// belongs to, walking back over the receiver chain.
fn guard_binding_of(tokens: &[Token], acq: usize) -> Option<(String, u32)> {
    let text = |k: usize| tokens.get(k).map(|t| t.text.as_str());
    // Walk back over `recv . field . lock`-style chains: idents, `.`,
    // `::`, `self`. Anything else (e.g. a `)` from a call in the chain)
    // aborts — we only bind simple receivers.
    let mut j = acq.checked_sub(1)?; // the `.` before lock/read/write
    loop {
        let t = text(j)?;
        if t == "." || t == "::" || is_ident(t) {
            if j == 0 {
                return None;
            }
            let prev = text(j - 1)?;
            if prev == "." || prev == "::" || is_ident(prev) {
                j -= 1;
                continue;
            }
            break;
        }
        return None;
    }
    // `j` is the chain head; the binding shape is `let [mut] name = chain`.
    let eq = j.checked_sub(1)?;
    if text(eq)? != "=" {
        return None;
    }
    let mut k = eq.checked_sub(1)?;
    let name = text(k)?;
    if !is_ident(name) || name == "_" {
        return None;
    }
    let name = name.to_string();
    if text(k.wrapping_sub(1)) == Some("mut") {
        k = k.checked_sub(1)?;
    }
    if text(k.checked_sub(1)?)? != "let" {
        return None;
    }
    Some((name, tokens[acq].line))
}

/// Classify how the call starting at `path_start` (opening paren at
/// `open`) discards its result, if it does.
fn discard_of(tokens: &[Token], path_start: usize, open: usize, method: bool) -> Option<Discard> {
    let text = |k: usize| tokens.get(k).map(|t| t.text.as_str());
    // The value is only discarded if the call's `)` is followed directly
    // by `;` — `foo(..)?`, `foo(..).ok()` and expression positions are
    // not discards of THIS call.
    let mut depth = 0i32;
    let mut k = open;
    loop {
        match text(k)? {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            _ => {}
        }
        k += 1;
    }
    if text(k + 1) != Some(";") {
        return None;
    }
    // Walk back over the receiver chain for method calls so the statement
    // boundary check starts before `recv.`; a chain containing calls (`)`)
    // is opaque — no discard claim.
    let mut s = path_start;
    if method {
        let mut j = s.checked_sub(1)?; // the `.`
        loop {
            let t = text(j)?;
            if t == "." || t == "::" || is_ident(t) {
                if j == 0 {
                    break;
                }
                let prev = text(j - 1)?;
                if prev == "." || prev == "::" || is_ident(prev) {
                    j -= 1;
                    continue;
                }
                break;
            }
            return None;
        }
        s = j;
    }
    match s.checked_sub(1).and_then(text) {
        Some("=") => {
            let us = s.checked_sub(2).and_then(text)?;
            let lt = s.checked_sub(3).and_then(text)?;
            (us == "_" && lt == "let").then_some(Discard::LetUnderscore)
        }
        Some(";") | Some("{") | Some("}") | None => Some(Discard::BareStatement),
        _ => None,
    }
}

/// Replace the token-index sentinels stashed in `CallSite::guard` with
/// real guard liveness: a call is "under guard" when some named guard was
/// bound before it and not dropped until after it.
fn attach_guard_liveness(f: &mut FnSym) {
    let binds = f.guard_binds.clone();
    for c in &mut f.calls {
        let Some((sentinel, _)) = c.guard.take() else {
            continue;
        };
        let Some(tok) = sentinel
            .strip_prefix("\u{0}tok")
            .and_then(|s| s.parse::<usize>().ok())
        else {
            continue;
        };
        c.guard = binds
            .iter()
            .find(|b| b.tok < tok && b.drop_tok.is_none_or(|d| d > tok))
            .map(|b| (b.name.clone(), b.line));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer;

    fn syms(src: &str) -> Vec<FnSym> {
        let lexed = lexer::lex(src);
        let skip = crate::exempt_tokens(&lexed.tokens);
        file_symbols("crates/core/src/x.rs", &lexed.tokens, &skip)
    }

    #[test]
    fn fn_spans_and_nesting() {
        let src = "\
pub fn outer() {
    fn inner() -> Result<(), E> {
        helper();
    }
    inner();
}
";
        let s = syms(src);
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].name, "outer");
        assert_eq!((s[0].line, s[0].end_line), (1, 6));
        assert_eq!(s[1].name, "inner");
        assert!(s[1].returns_result);
        // `helper()` belongs to inner, `inner()` to outer.
        assert_eq!(s[1].calls.len(), 1);
        assert_eq!(s[1].calls[0].name, "helper");
        assert_eq!(s[0].calls.len(), 1);
        assert_eq!(s[0].calls[0].name, "inner");
    }

    #[test]
    fn impl_types_are_attached() {
        let src = "\
impl Store {
    fn save(&self) {}
}
impl Degraded for Report {
    fn reasons(&self) {}
}
";
        let s = syms(src);
        assert_eq!(s[0].impl_type.as_deref(), Some("Store"));
        assert_eq!(s[1].impl_type.as_deref(), Some("Report"));
    }

    #[test]
    fn qualified_calls_and_sinks() {
        let src = "\
fn publish(x: &X) {
    let text = serde_json::to_string(x);
    write_atomic(path, text);
    serde_json::from_str(text);
}
";
        let s = syms(src);
        assert_eq!(s[0].sinks.len(), 2, "{:?}", s[0].sinks);
        assert_eq!(s[0].sinks[0].what, "serde_json::to_string");
        assert_eq!(s[0].sinks[1].what, "write_atomic");
        let ser = &s[0].calls[0];
        assert_eq!(ser.path, vec!["serde_json", "to_string"]);
    }

    #[test]
    fn discard_shapes() {
        let src = "\
fn f(tx: &Sender) {
    let _ = tx.send(1);
    push_all(tx);
    let ok = tx.send(2);
    tx.send(3)?;
    consume(ok);
}
";
        let s = syms(src);
        let d: Vec<(String, Option<Discard>)> = s[0]
            .calls
            .iter()
            .map(|c| (c.name.clone(), c.discard))
            .collect();
        assert_eq!(d[0], ("send".into(), Some(Discard::LetUnderscore)));
        assert_eq!(d[1], ("push_all".into(), Some(Discard::BareStatement)));
        assert_eq!(d[2], ("send".into(), None));
        assert_eq!(d[3], ("send".into(), None));
    }

    #[test]
    fn guard_liveness_covers_calls_until_drop() {
        let src = "\
fn f(m: &Mutex<T>) {
    before();
    let g = m.lock();
    risky();
    drop(g);
    after();
}
";
        let s = syms(src);
        let by_name = |n: &str| s[0].calls.iter().find(|c| c.name == n).unwrap().clone();
        assert!(by_name("before").guard.is_none());
        assert_eq!(by_name("risky").guard, Some(("g".into(), 3)));
        assert!(by_name("after").guard.is_none());
        assert!(s[0].takes_lock);
    }

    #[test]
    fn sources_and_relaxed_are_recorded() {
        let src = "\
fn f() {
    let m = HashMap::new();
    let n = std::thread::available_parallelism();
    c.fetch_add(1, Ordering::Relaxed);
}
";
        let s = syms(src);
        let whats: Vec<&str> = s[0].sources.iter().map(|x| x.what.as_str()).collect();
        assert_eq!(whats, vec!["HashMap", "available_parallelism"]);
        assert_eq!(s[0].relaxed.len(), 1);
    }

    #[test]
    fn cfg_test_fns_are_marked() {
        let src = "\
fn lib() {}
#[cfg(test)]
mod tests {
    fn helper() {}
}
";
        let s = syms(src);
        assert!(!s[0].is_test);
        assert!(s[1].is_test);
    }
}
