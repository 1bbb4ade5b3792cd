//! Lock-order (may-hold-while-acquiring) graph analysis.
//!
//! Every blocking lock acquisition in the workspace goes through the
//! shared helpers in `openmeta_obs::sync` — `sync::lock`, `sync::read`,
//! `sync::write`, `sync::wait`, `sync::wait_timeout` — which is a
//! deliberate design decision: one set of entry points means a
//! source-level analyzer can see every acquisition (`cargo xtask
//! analyze` rejects a bare `.lock()`, `.read()` or `.write()` elsewhere).
//! This engine extracts those sites from `crates/*/src`, tracks guard
//! liveness (let-bound guards die at `drop(g)` or at the end of their
//! block; a guard in the head of a `for`, `if let`, `while let` or
//! `match` lives for the whole block that follows, as edition-2021
//! temporaries do; other inline uses are instantaneous), and builds a
//! **may-hold-while-acquiring graph**: an edge `A → B` means some code
//! path acquires lock class `B` while holding class `A`.  A cycle in
//! that graph is a potential deadlock and fails the analysis.
//!
//! Three approximations, all conservative in the directions that
//! matter:
//!
//! * lock *classes* are `crate::field` names — two instances of one
//!   field unify (may over-report, never under-report an ordering) —
//!   and a `sync::read` is an acquisition like any other, because a
//!   reader can wait behind a queued writer;
//! * **call edges**: while a guard is held, a call to a same-crate
//!   function that (transitively) acquires locks contributes edges to
//!   everything it acquires — this is what checks comments like
//!   `Seat::kill`'s "must not be called with the state lock held";
//! * `sync::wait`/`sync::wait_timeout` *re*-acquire the guard they are
//!   given, so they add no edge — but waiting while holding any *other*
//!   lock blocks that lock for the whole wait and is flagged directly
//!   (`wait-while-holding`).
//!
//! Audited edges can be allowlisted via [`LockOrderConfig]`; the
//! workspace currently needs none.

use std::collections::{BTreeMap, BTreeSet};

use openmeta_pbio::verify::{Severity, Violation};

use crate::diag::{ProtoReport, Stage};
use crate::source::{brace_delta, code_lines, SourceFile};

/// Configuration for the lock-order engine.
#[derive(Debug, Clone, Copy, Default)]
pub struct LockOrderConfig {
    /// Audited `(held, acquired)` class pairs excluded from the graph.
    /// Empty for this workspace — prefer fixing the order to
    /// allowlisting it.
    pub allowed_edges: &'static [(&'static str, &'static str)],
}

/// One lock-acquisition site.
#[derive(Debug, Clone)]
struct Site {
    class: String,
    at: String,
}

/// The helpers that acquire a lock and return its guard.
const ACQUIRE: &[&str] = &["sync::lock(", "sync::read(", "sync::write("];

/// A live guard while scanning a function body.
#[derive(Debug, Clone)]
struct Guard {
    /// Binding name; `"<temp>"` for block-head temporaries.
    name: String,
    class: String,
    /// The guard dies when brace depth drops below this.
    min_depth: i64,
}

/// An edge observed directly or recorded for call-graph resolution.
#[derive(Debug, Clone)]
struct PendingCall {
    held: Vec<Site>,
    crate_name: String,
    callee: String,
    at: String,
}

#[derive(Debug, Default)]
struct Extraction {
    sites: usize,
    /// Direct `held → acquired` edges with provenance.
    edges: Vec<(String, String, String)>,
    /// Lock classes each function acquires directly.
    fn_direct: BTreeMap<(String, String), BTreeSet<String>>,
    /// Same-crate call tokens per function (for the transitive pass).
    fn_calls: BTreeMap<(String, String), BTreeSet<String>>,
    /// Calls made while holding locks, resolved after all files.
    pending_calls: Vec<PendingCall>,
    /// `wait-while-holding` violations, found inline.
    violations: Vec<(String, Violation)>,
}

/// Run the engine over the given sources.
pub fn analyze_lock_order(files: &[SourceFile], cfg: &LockOrderConfig) -> ProtoReport {
    let mut ex = Extraction::default();
    for file in files {
        extract_file(file, &mut ex);
    }
    resolve(ex, cfg)
}

fn resolve(ex: Extraction, cfg: &LockOrderConfig) -> ProtoReport {
    let mut report = ProtoReport { lock_sites: ex.sites, ..ProtoReport::default() };

    // Transitive closure: what does each function acquire, directly or
    // through same-crate calls?
    let mut effective = ex.fn_direct.clone();
    loop {
        let mut changed = false;
        for (key, calls) in &ex.fn_calls {
            let mut add = BTreeSet::new();
            for callee in calls {
                let callee_key = (key.0.clone(), callee.clone());
                if callee_key == *key {
                    continue;
                }
                if let Some(classes) = effective.get(&callee_key) {
                    add.extend(classes.iter().cloned());
                }
            }
            let entry = effective.entry(key.clone()).or_default();
            for class in add {
                changed |= entry.insert(class);
            }
        }
        if !changed {
            break;
        }
    }

    // Direct edges plus call edges.
    let mut edges = ex.edges;
    for call in &ex.pending_calls {
        let key = (call.crate_name.clone(), call.callee.clone());
        let Some(classes) = effective.get(&key) else { continue };
        for class in classes {
            for held in &call.held {
                edges.push((
                    held.class.clone(),
                    class.clone(),
                    format!(
                        "{} (call to `{}` acquiring {class}; held from {})",
                        call.at, call.callee, held.at
                    ),
                ));
            }
        }
    }

    // Graph assembly, minus the allowlist and self-free edges.
    let mut graph: BTreeMap<String, BTreeMap<String, String>> = BTreeMap::new();
    for (held, acquired, at) in edges {
        if held == acquired {
            report.push(
                Stage::LockOrder,
                held.clone(),
                at.clone(),
                Violation {
                    check: "self-deadlock",
                    severity: Severity::Error,
                    detail: format!("lock class `{held}` acquired while already held at {at}"),
                },
            );
            continue;
        }
        if cfg.allowed_edges.iter().any(|(h, a)| *h == held && *a == acquired) {
            continue;
        }
        graph.entry(held).or_default().entry(acquired).or_insert(at);
    }

    for cycle in find_cycles(&graph) {
        let mut hops = Vec::new();
        for pair in cycle.windows(2) {
            let at = graph.get(&pair[0]).and_then(|m| m.get(&pair[1])).cloned().unwrap_or_default();
            hops.push(format!("{} → {} at {}", pair[0], pair[1], at));
        }
        report.push(
            Stage::LockOrder,
            cycle.join(" → "),
            hops.join("; "),
            Violation {
                check: "lock-cycle",
                severity: Severity::Error,
                detail: format!(
                    "lock classes form a may-hold-while-acquiring cycle: {}",
                    cycle.join(" → ")
                ),
            },
        );
    }

    for (at, violation) in ex.violations {
        report.push(Stage::LockOrder, at.clone(), at, violation);
    }
    report
}

/// Distinct cycles as closed paths (`[a, b, a]`), deduplicated by the
/// set of classes involved.
fn find_cycles(graph: &BTreeMap<String, BTreeMap<String, String>>) -> Vec<Vec<String>> {
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Gray,
        Black,
    }
    let mut color: BTreeMap<&str, Color> =
        graph.keys().map(|k| (k.as_str(), Color::White)).collect();
    let mut cycles = Vec::new();
    let mut seen: BTreeSet<Vec<String>> = BTreeSet::new();

    fn dfs<'a>(
        node: &'a str,
        graph: &'a BTreeMap<String, BTreeMap<String, String>>,
        color: &mut BTreeMap<&'a str, Color>,
        stack: &mut Vec<&'a str>,
        cycles: &mut Vec<Vec<String>>,
        seen: &mut BTreeSet<Vec<String>>,
    ) {
        color.insert(node, Color::Gray);
        stack.push(node);
        if let Some(next) = graph.get(node) {
            for succ in next.keys() {
                match color.get(succ.as_str()).copied().unwrap_or(Color::White) {
                    Color::Gray => {
                        let start = stack.iter().position(|n| *n == succ).unwrap_or(0);
                        let mut cycle: Vec<String> =
                            stack[start..].iter().map(|s| s.to_string()).collect();
                        cycle.push(succ.clone());
                        let mut key: Vec<String> = cycle[..cycle.len() - 1].to_vec();
                        key.sort();
                        if seen.insert(key) {
                            cycles.push(cycle);
                        }
                    }
                    Color::White => dfs(succ, graph, color, stack, cycles, seen),
                    Color::Black => {}
                }
            }
        }
        stack.pop();
        color.insert(node, Color::Black);
    }

    let nodes: Vec<&str> = graph.keys().map(String::as_str).collect();
    for node in nodes {
        if color.get(node).copied() == Some(Color::White) {
            let mut stack = Vec::new();
            dfs(node, graph, &mut color, &mut stack, &mut cycles, &mut seen);
        }
    }
    cycles
}

// ---------------------------------------------------------- extraction

fn extract_file(file: &SourceFile, ex: &mut Extraction) {
    let mut depth: i64 = 0;
    let mut guards: Vec<Guard> = Vec::new();
    // Stack of (fn name, body depth); the innermost entry is the
    // current function.
    let mut fns: Vec<(String, i64)> = Vec::new();
    let mut pending_fn: Option<String> = None;

    for (lineno, line) in code_lines(&file.text) {
        let at = format!("{}:{}", file.rel_path, lineno);
        let (opens, closes) = brace_delta(line);
        let depth_before = depth;
        depth += opens - closes;

        // Function tracking.
        if let Some(name) = fn_decl_name(line) {
            if line.contains('{') {
                fns.push((name, depth_before + 1));
            } else if line.trim_end().ends_with(';') {
                // Trait method signature — no body.
            } else {
                pending_fn = Some(name);
            }
        } else if let Some(name) = pending_fn.take() {
            if opens > 0 {
                fns.push((name, depth_before + 1));
            } else if !line.trim_end().ends_with(';') {
                pending_fn = Some(name);
            }
        }
        let current_fn = fns.last().map(|(n, _)| n.clone()).unwrap_or_default();
        let fn_key = (file.crate_name.clone(), current_fn.clone());

        // Guard deaths: drop(name) and end-of-block.
        if let Some(dropped) = drop_target(line) {
            guards.retain(|g| g.name != dropped);
        }

        // Wait sites: re-acquisition of an existing guard's lock.
        if let Some(waited) = wait_guard_name(line) {
            ex.sites += 1;
            for g in &guards {
                if g.name != waited {
                    ex.violations.push((
                        at.clone(),
                        Violation {
                            check: "wait-while-holding",
                            severity: Severity::Error,
                            detail: format!(
                                "condvar wait on guard `{waited}` while also holding `{}` \
                                 ({}): the held lock is blocked for the whole wait",
                                g.name, g.class
                            ),
                        },
                    ));
                }
            }
        } else if let Some(acquire) = acquisition(line) {
            let arg = call_arg(line, acquire).unwrap_or_default();
            ex.sites += 1;
            let class = format!("{}::{}", file.crate_name, last_segment(&arg));
            for g in &guards {
                ex.edges.push((g.class.clone(), class.clone(), at.clone()));
            }
            ex.fn_direct.entry(fn_key.clone()).or_default().insert(class.clone());
            // Guard liveness: let-bound, block-head temporary, or
            // instantaneous.
            let trimmed = lstrip_label(line.trim_start());
            if let Some(name) = let_binding_of_bare_lock(trimmed, acquire) {
                guards.push(Guard { name, class, min_depth: depth_before });
            } else if holds_for_block(trimmed) && trimmed.trim_end().ends_with('{') {
                // Held until the block this line opens closes (for
                // `} else if let .. {` that is the new branch).
                guards.push(Guard { name: "<temp>".to_string(), class, min_depth: depth });
            }
        }

        // Calls made while holding a lock, for the call-edge pass.
        if !guards.is_empty() && acquisition(line).is_none() {
            for callee in call_tokens(line) {
                ex.pending_calls.push(PendingCall {
                    held: guards
                        .iter()
                        .map(|g| Site { class: g.class.clone(), at: at.clone() })
                        .collect(),
                    crate_name: file.crate_name.clone(),
                    callee,
                    at: at.clone(),
                });
            }
        }
        // Record all calls for the transitive-closure pass.
        if !current_fn.is_empty() {
            let entry = ex.fn_calls.entry(fn_key).or_default();
            for callee in call_tokens(line) {
                entry.insert(callee);
            }
        }

        // End-of-block deaths.
        guards.retain(|g| depth >= g.min_depth);
        while fns.last().is_some_and(|(_, d)| depth < *d) {
            fns.pop();
        }
    }
}

/// `fn name` on a declaration line, if any.
fn fn_decl_name(line: &str) -> Option<String> {
    let idx = line.find("fn ")?;
    // Require a word boundary before `fn` (start, space, or `(` for
    // higher-order types is fine to reject).
    if idx > 0 && !line.as_bytes()[idx - 1].is_ascii_whitespace() {
        return None;
    }
    let rest = &line[idx + 3..];
    let name: String =
        rest.chars().take_while(|c| c.is_ascii_alphanumeric() || *c == '_').collect();
    if name.is_empty() {
        None
    } else {
        Some(name)
    }
}

/// `drop(name)` with a plain identifier argument.
fn drop_target(line: &str) -> Option<String> {
    let idx = line.find("drop(")?;
    let rest = &line[idx + 5..];
    let end = rest.find(')')?;
    let arg = rest[..end].trim();
    if !arg.is_empty() && arg.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
        Some(arg.to_string())
    } else {
        None
    }
}

/// The first lock-acquiring helper called on this line, if any.
fn acquisition(line: &str) -> Option<&'static str> {
    ACQUIRE.iter().filter_map(|p| line.find(p).map(|i| (i, *p))).min().map(|(_, p)| p)
}

/// Is this line the head of a block whose scrutinee temporaries live
/// until the block closes: `for`, `if let`, `while let` or `match`?
fn holds_for_block(trimmed: &str) -> bool {
    ["for ", "if let ", "while let ", "match "]
        .iter()
        .any(|kw| trimmed.starts_with(kw) || trimmed.contains(&format!(" {kw}")))
}

/// The guard identifier passed to `sync::wait(` / `sync::wait_timeout(`.
fn wait_guard_name(line: &str) -> Option<String> {
    let call = if line.contains("sync::wait_timeout(") {
        call_arg(line, "sync::wait_timeout(")
    } else if line.contains("sync::wait(") {
        call_arg(line, "sync::wait(")
    } else {
        None
    }?;
    let second = call.split(',').nth(1)?.trim().to_string();
    if second.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') && !second.is_empty() {
        Some(second)
    } else {
        None
    }
}

/// The argument text of `prefix(...)` on this line, up to the matching
/// close paren (line-local: every call site in this workspace fits).
fn call_arg(line: &str, prefix: &str) -> Option<String> {
    let idx = line.find(prefix)?;
    let rest = &line[idx + prefix.len()..];
    let mut depth = 1i32;
    let mut out = String::new();
    for c in rest.chars() {
        match c {
            '(' => depth += 1,
            ')' => {
                depth -= 1;
                if depth == 0 {
                    return Some(out);
                }
            }
            _ => {}
        }
        out.push(c);
    }
    Some(out)
}

/// Normalize a lock argument to its lock-class field name:
/// `&self.shared.queue` → `queue`, `writers` → `writers`.
fn last_segment(arg: &str) -> String {
    let arg =
        arg.trim().trim_start_matches("&mut ").trim_start_matches('&').trim_start_matches('*');
    let arg = arg.split(',').next().unwrap_or(arg).trim();
    let last = arg.rsplit(['.', ':']).next().unwrap_or(arg);
    last.chars().take_while(|c| c.is_ascii_alphanumeric() || *c == '_').collect()
}

/// Strip a leading `'label:` (loop labels) so `for` detection works.
fn lstrip_label(trimmed: &str) -> &str {
    if let Some(rest) = trimmed.strip_prefix('\'') {
        if let Some(colon) = rest.find(':') {
            return rest[colon + 1..].trim_start();
        }
    }
    trimmed
}

/// `let [mut] NAME[: ty] = sync::lock(...);` (or `sync::read`/`sync::write`,
/// named by `acquire`) where the RHS is the bare lock call (a trailing
/// method call like `.clone()` means the guard is a temporary, not a
/// binding).
fn let_binding_of_bare_lock(trimmed: &str, acquire: &str) -> Option<String> {
    let rest = trimmed.strip_prefix("let ")?;
    let rest = rest.strip_prefix("mut ").unwrap_or(rest);
    let name: String =
        rest.chars().take_while(|c| c.is_ascii_alphanumeric() || *c == '_').collect();
    if name.is_empty() {
        return None;
    }
    // Whatever follows the closing paren of sync::lock(...) decides:
    // `;` → guard binding; anything else → temporary.
    let lock_idx = trimmed.find(acquire)?;
    let after = &trimmed[lock_idx + acquire.len()..];
    let mut depth = 1i32;
    for (i, c) in after.char_indices() {
        match c {
            '(' => depth += 1,
            ')' => {
                depth -= 1;
                if depth == 0 {
                    return if after[i + 1..].trim_start().starts_with(';') {
                        Some(name)
                    } else {
                        None
                    };
                }
            }
            _ => {}
        }
    }
    None
}

/// Call tokens on a line that can plausibly resolve to a same-crate
/// function: bare calls (`helper(..)`), `self.method(..)`, and
/// `Self::method(..)`.  Method calls on arbitrary receivers are
/// excluded on purpose — name-based resolution cannot tell `Vec::push`
/// from a crate's own `fn push`, and those collisions were exactly the
/// false positives the calibration run produced.  Keywords and macro
/// invocations are skipped.
fn call_tokens(line: &str) -> Vec<String> {
    const KEYWORDS: &[&str] = &[
        "if", "while", "for", "match", "fn", "return", "loop", "let", "move", "drop", "Some", "Ok",
        "Err", "None",
    ];
    let bytes = line.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        if bytes[i].is_ascii_alphabetic() || bytes[i] == b'_' {
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            let word = &line[start..i];
            let receiver_ok = if start > 0 && bytes[start - 1] == b'.' {
                line[..start - 1].ends_with("self") && !line[..start - 1].ends_with("_self")
            } else if start > 1 && &bytes[start - 2..start] == b"::" {
                line[..start - 2].ends_with("Self")
            } else {
                start == 0 || bytes[start - 1] != b':'
            };
            if i < bytes.len()
                && bytes[i] == b'('
                && receiver_ok
                && !KEYWORDS.contains(&word)
                && !word.chars().next().is_some_and(|c| c.is_ascii_uppercase())
            {
                out.push(word.to_string());
            }
            // Skip macro bangs (`format!(`).
            if i < bytes.len() && bytes[i] == b'!' {
                i += 1;
            }
        } else {
            i += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(crate_name: &str, text: &str) -> SourceFile {
        SourceFile {
            crate_name: crate_name.to_string(),
            rel_path: format!("crates/{crate_name}/src/lib.rs"),
            text: text.to_string(),
        }
    }

    fn run(text: &str) -> ProtoReport {
        analyze_lock_order(&[file("demo", text)], &LockOrderConfig::default())
    }

    /// The direct `(held, acquired)` class pairs one file records.
    fn edges(text: &str) -> Vec<(String, String)> {
        let mut ex = Extraction::default();
        extract_file(&file("demo", text), &mut ex);
        ex.edges.into_iter().map(|(held, acquired, _)| (held, acquired)).collect()
    }

    fn edge(held: &str, acquired: &str) -> (String, String) {
        (format!("demo::{held}"), format!("demo::{acquired}"))
    }

    #[test]
    fn read_guard_held_across_a_write_records_the_edge() {
        let e = edges(
            "fn f(&self) {\n    let g = sync::read(&self.alpha);\n    sync::write(&self.beta).insert(1);\n}\n",
        );
        assert_eq!(e, vec![edge("alpha", "beta")]);
    }

    #[test]
    fn read_write_inversion_is_a_cycle() {
        let report = run(
            "fn a(&self) {\n    let g = sync::read(&self.alpha);\n    let h = sync::write(&self.beta);\n}\n\
             fn b(&self) {\n    let g = sync::write(&self.beta);\n    let h = sync::read(&self.alpha);\n}\n",
        );
        assert_eq!(report.lock_sites, 4);
        assert!(report.diagnostics.iter().any(|d| d.violation.check == "lock-cycle"));
    }

    #[test]
    fn block_head_guards_live_for_the_block() {
        let e = edges(
            "fn f(&self) {\n    if let Some(x) = sync::read(&self.alpha).get(&k) {\n        sync::lock(&self.beta).push(*x);\n    } else if let Some(y) = sync::read(&self.gamma).first() {\n        sync::lock(&self.delta).push(*y);\n    }\n    let after = sync::lock(&self.omega);\n}\n\
             fn g(&self) {\n    match sync::lock(&self.alpha).pop() {\n        Some(v) => sync::write(&self.beta).push(v),\n        None => {}\n    }\n}\n",
        );
        assert_eq!(
            e,
            vec![
                edge("alpha", "beta"),
                edge("alpha", "gamma"),
                edge("alpha", "delta"),
                edge("gamma", "delta"),
                edge("alpha", "beta"),
            ]
        );
    }

    #[test]
    fn consistent_order_passes() {
        let report = run(
            "fn a(&self) {\n    let g = sync::lock(&self.alpha);\n    let h = sync::lock(&self.beta);\n}\n\
             fn b(&self) {\n    let g = sync::lock(&self.alpha);\n    let h = sync::lock(&self.beta);\n}\n",
        );
        assert!(report.passed(), "{:?}", report.diagnostics);
        assert_eq!(report.lock_sites, 4);
    }

    #[test]
    fn inverted_pair_is_a_cycle() {
        let report = run(
            "fn a(&self) {\n    let g = sync::lock(&self.alpha);\n    let h = sync::lock(&self.beta);\n}\n\
             fn b(&self) {\n    let g = sync::lock(&self.beta);\n    let h = sync::lock(&self.alpha);\n}\n",
        );
        assert!(!report.passed());
        assert!(report.diagnostics.iter().any(|d| d.violation.check == "lock-cycle"));
    }

    #[test]
    fn drop_releases_the_guard() {
        // Mirrors `Seat::kill`: state is dropped before stream is taken,
        // and kill is then called from a context holding neither.
        let report = run(
            "fn kill(&self) {\n    let mut st = sync::lock(&self.state);\n    st.clear();\n    drop(st);\n    let _ = sync::lock(&self.stream);\n}\n\
             fn other(&self) {\n    let s = sync::lock(&self.stream);\n    let t = sync::lock(&self.state);\n}\n",
        );
        // Without drop tracking this would be state→stream plus
        // stream→state — a cycle.
        assert!(report.passed(), "{:?}", report.diagnostics);
    }

    #[test]
    fn block_scope_releases_the_guard() {
        let report = run(
            "fn f(&self) {\n    let x = {\n        let g = sync::lock(&self.alpha);\n        g.len()\n    };\n    let h = sync::lock(&self.beta);\n}\n\
             fn g(&self) {\n    let g = sync::lock(&self.beta);\n    let h = sync::lock(&self.alpha);\n}\n",
        );
        assert!(report.passed(), "{:?}", report.diagnostics);
    }

    #[test]
    fn for_loop_temporary_holds_for_the_body() {
        let report = run(
            "fn f(&self) {\n    for x in sync::lock(&self.alpha).iter() {\n        let g = sync::lock(&self.beta);\n    }\n}\n\
             fn g(&self) {\n    let g = sync::lock(&self.beta);\n    let h = sync::lock(&self.alpha);\n}\n",
        );
        assert!(!report.passed(), "for-loop guard must be held for the body");
    }

    #[test]
    fn call_edges_are_transitive() {
        let report = run(
            "fn outer(&self) {\n    let g = sync::lock(&self.alpha);\n    self.middle();\n}\n\
             fn middle(&self) {\n    self.inner();\n}\n\
             fn inner(&self) {\n    let g = sync::lock(&self.beta);\n}\n\
             fn elsewhere(&self) {\n    let g = sync::lock(&self.beta);\n    let h = sync::lock(&self.alpha);\n}\n",
        );
        assert!(!report.passed(), "alpha→beta via two call hops plus beta→alpha must cycle");
        assert!(report.diagnostics.iter().any(|d| d.violation.check == "lock-cycle"));
    }

    #[test]
    fn self_reacquisition_is_flagged() {
        let report = run("fn f(&self) {\n    let g = sync::lock(&self.alpha);\n    self.g();\n}\n\
             fn g(&self) {\n    let g = sync::lock(&self.alpha);\n}\n");
        assert!(report.diagnostics.iter().any(|d| d.violation.check == "self-deadlock"));
    }

    #[test]
    fn wait_while_holding_another_lock_is_flagged() {
        let report = run(
            "fn f(&self) {\n    let other = sync::lock(&self.alpha);\n    let mut st = sync::lock(&self.beta);\n    st = sync::wait(&self.cv, st);\n}\n",
        );
        assert!(report.diagnostics.iter().any(|d| d.violation.check == "wait-while-holding"));
    }

    #[test]
    fn wait_on_the_only_held_guard_is_fine() {
        let report = run(
            "fn f(&self) {\n    let mut st = sync::lock(&self.beta);\n    st = sync::wait(&self.cv, st);\n    let _ = sync::wait_timeout(&self.cv, st, timeout);\n}\n",
        );
        assert!(report.passed(), "{:?}", report.diagnostics);
    }

    #[test]
    fn allowlisted_edge_breaks_the_cycle() {
        static ALLOW: &[(&str, &str)] = &[("demo::beta", "demo::alpha")];
        let src = "fn a(&self) {\n    let g = sync::lock(&self.alpha);\n    let h = sync::lock(&self.beta);\n}\n\
                   fn b(&self) {\n    let g = sync::lock(&self.beta);\n    let h = sync::lock(&self.alpha);\n}\n";
        let report =
            analyze_lock_order(&[file("demo", src)], &LockOrderConfig { allowed_edges: ALLOW });
        assert!(report.passed(), "{:?}", report.diagnostics);
    }
}
