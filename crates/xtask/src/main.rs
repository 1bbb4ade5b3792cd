//! `cargo xtask` — repo automation for the static-analysis gate.
//!
//! ```text
//! cargo xtask analyze   # source lints + curated clippy + planlint over fixtures
//! cargo xtask loom      # model tests: RUSTFLAGS="--cfg loom" pool/registry suites
//! cargo xtask miri      # Miri over the pbio codec/plan unit tests (skips if unavailable)
//! cargo xtask loc       # production Rust lines per crate and in total
//! ```
//!
//! `analyze` is the CI entry point: it fails on any repo-local lint
//! violation (`.unwrap()` in non-test library code, raw
//! `TcpStream::connect` without a deadline outside `crates/net`, direct
//! `Instant::now()` timing outside `crates/obs`/`crates/bench`, a crate
//! missing `#![deny(unsafe_code)]`, `unsafe` or `allow(unsafe_code)`
//! anywhere but the `poll(2)` binding, blocking socket I/O inside an
//! event-loop module, a hand-rolled frame read loop — `.bytes_needed()`
//! outside `crates/net`/`crates/analyzer`, a lock taken with a bare
//! zero-argument `lock`/`read`/`write` call instead of through
//! `openmeta_obs::sync`, a [`BUILD_FORK`] cfg that makes debug and
//! release builds different programs), on any curated clippy lint,
//! on any error-severity `planlint` diagnostic over `fixtures/schemas/`,
//! and on any `protolint` diagnostic: the sans-io explorer, lock-order
//! graph, and wire-input taint lint must all pass on the real tree,
//! every explorer mutant must be caught (`--mutants`), and the
//! seeded-broken source fixtures under `fixtures/protolint/` must be
//! rejected.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// Crates whose library code may call `.unwrap()`: workload/demo crates
/// whose "library" is test-fixture construction, plus this tool.
const UNWRAP_EXEMPT: &[&str] = &["bench", "hydrology", "xtask"];

/// Crates allowed to call `TcpStream::connect` without a deadline —
/// only the transport crate itself (its fault proxy connects to
/// loopback listeners it owns).
const CONNECT_EXEMPT: &[&str] = &["net", "xtask"];

/// Crates whose library code may call `Instant::now()` directly.  All
/// other library timing goes through `openmeta_obs::clock` (or a span),
/// so stage durations land in the metrics registry instead of ad-hoc
/// stopwatches: the clock shim itself, the benchmark harness (whose
/// entire job is timing), and this tool.
const INSTANT_EXEMPT: &[&str] = &["obs", "bench", "xtask"];

/// Crates whose library code may call `.bytes_needed()`: the framer's
/// home (whose `read_frame_blocking` is the one blocking frame reader),
/// the protocol explorer that checks it, and this tool.  Anywhere else
/// a `.bytes_needed()` call is a hand-rolled read loop.
const FRAME_LOOP_EXEMPT: &[&str] = &["net", "analyzer", "xtask"];

/// Library crates that must carry `#![deny(unsafe_code)]` at the root.
/// Together with [`UNSAFE_ALLOWED`] this keeps the workspace's one
/// `unsafe` call where it is.
const DENY_UNSAFE: &[&str] = &[
    "analyzer",
    "bench",
    "hydrology",
    "net",
    "obs",
    "ohttp",
    "pbio",
    "schema",
    "tools",
    "wire",
    "xmit",
    "xml",
];

/// The one file allowed `unsafe` (and the `allow(unsafe_code)` that
/// lifts its crate's deny): the `poll(2)` binding.  Every other `.rs`
/// file in the workspace — sources, tests, benches, examples — is
/// scanned, except this tool's own, whose lint messages and test
/// inputs spell the keyword.
const UNSAFE_ALLOWED: &str = "crates/net/src/sys.rs";

/// The one file that may call a lock's own `lock`/`read`/`write`: the
/// `openmeta_obs::sync` helpers, which every other site goes through so
/// the lock-order analyzer sees it.
const LOCK_HOME: &str = "crates/obs/src/sync.rs";

/// The cfg predicate that makes debug and release builds different
/// programs.  In Rust code the word only appears inside `#[cfg(..)]`,
/// `#[cfg_attr(..)]` or `cfg!(..)`, so a word match catches predicates
/// split over lines too; `debug_assert!` does not contain it.  Split so
/// this file does not match its own lint.
const BUILD_FORK: &str = concat!("debug_", "assertions");

/// Curated clippy deny set layered on top of `-D warnings`.
const CLIPPY_DENY: &[&str] =
    &["clippy::dbg_macro", "clippy::todo", "clippy::unimplemented", "clippy::mem_forget"];

/// Blocking I/O spellings banned inside event-loop modules (files whose
/// name contains `event_loop`).  The event loop must never issue a
/// blocking `read`/`write` on a connection socket — one stalled peer
/// would stall every connection on that shard — so all socket I/O there
/// routes through `nio::read_ready`/`nio::write_ready` (which live in a
/// different file precisely so this check stays a plain substring scan).
const EVENT_LOOP_BLOCKING: &[&str] = &[
    ".read(",
    ".read_exact(",
    ".read_to_end(",
    ".read_vectored(",
    ".read_line(",
    ".write(",
    ".write_all(",
    ".write_vectored(",
    "BufReader",
    "BufWriter",
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("analyze") => analyze(),
        Some("loom") => loom(),
        Some("miri") => miri(),
        Some("loc") => loc(),
        _ => {
            eprintln!("usage: cargo xtask <analyze|loom|miri|loc>");
            ExitCode::from(2)
        }
    }
}

fn repo_root() -> PathBuf {
    // crates/xtask -> crates -> repo root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
}

fn run(step: &str, cmd: &mut Command) -> bool {
    eprintln!("xtask: {step}: {cmd:?}");
    match cmd.status() {
        Ok(status) if status.success() => true,
        Ok(status) => {
            eprintln!("xtask: {step} failed ({status})");
            false
        }
        Err(e) => {
            eprintln!("xtask: {step} failed to launch: {e}");
            false
        }
    }
}

// ---------------------------------------------------------------- analyze

fn analyze() -> ExitCode {
    let root = repo_root();
    let mut ok = true;

    // 1. Repo-local source lints.
    let violations = lint_tree(&root);
    if violations.is_empty() {
        eprintln!("xtask: source lints: clean");
    } else {
        for v in &violations {
            eprintln!("{v}");
        }
        eprintln!("xtask: source lints: {} violation(s)", violations.len());
        ok = false;
    }

    // 2. Curated clippy gate (all targets, tests included).
    let mut clippy = Command::new("cargo");
    clippy.current_dir(&root).args(["clippy", "--workspace", "--all-targets", "-q", "--"]);
    clippy.args(["-D", "warnings"]);
    for lint in CLIPPY_DENY {
        clippy.args(["-D", lint]);
    }
    ok &= run("clippy", &mut clippy);

    // 3. planlint over the schema fixture corpus, end to end through the
    // CLI (schema -> descriptor -> plan -> verdict).
    let fixtures = root.join("fixtures/schemas");
    let mut schemas: Vec<PathBuf> = match std::fs::read_dir(&fixtures) {
        Ok(entries) => entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "xsd"))
            .collect(),
        Err(e) => {
            eprintln!("xtask: cannot read {}: {e}", fixtures.display());
            return ExitCode::FAILURE;
        }
    };
    schemas.sort();
    if schemas.is_empty() {
        eprintln!("xtask: no .xsd fixtures under {}", fixtures.display());
        ok = false;
    } else {
        let mut planlint = Command::new("cargo");
        planlint.current_dir(&root).args([
            "run",
            "-q",
            "-p",
            "openmeta-tools",
            "--bin",
            "openmeta",
            "--",
            "planlint",
        ]);
        planlint.args(schemas.iter().map(|p| p.as_os_str()));
        ok &= run("planlint", &mut planlint);
    }

    // 4. protolint: exhaustive sans-io exploration of every protocol
    // core plus the lock-order graph and wire-input taint lint over the
    // workspace tree.
    let mut protolint = Command::new("cargo");
    protolint.current_dir(&root).args([
        "run",
        "-q",
        "-p",
        "openmeta-tools",
        "--bin",
        "openmeta",
        "--",
        "protolint",
    ]);
    ok &= run("protolint", &mut protolint);

    // 5. The mutation corpus: every deliberately broken parser variant
    // must be rejected, or the explorer has lost its teeth.
    let mut mutants = Command::new("cargo");
    mutants.current_dir(&root).args([
        "run",
        "-q",
        "-p",
        "openmeta-tools",
        "--bin",
        "openmeta",
        "--",
        "protolint",
        "--mutants",
    ]);
    ok &= run("protolint --mutants", &mut mutants);

    // 6. The seeded-broken source fixture: a tiny crate tree with an
    // inverted lock pair and an unbounded wire allocation.  protolint
    // must FAIL on it — this is the source-engines' false-negative
    // check, mirroring what --mutants does for the explorer.
    let seeded = root.join("fixtures/protolint");
    let mut seeded_cmd = Command::new("cargo");
    seeded_cmd.current_dir(&root).args([
        "run",
        "-q",
        "-p",
        "openmeta-tools",
        "--bin",
        "openmeta",
        "--",
        "protolint",
        "--root",
    ]);
    seeded_cmd.arg(&seeded);
    eprintln!("xtask: protolint --root fixtures/protolint (must fail): {seeded_cmd:?}");
    match seeded_cmd.status() {
        Ok(status) if !status.success() => {
            eprintln!("xtask: seeded-broken fixtures rejected, as required");
        }
        Ok(_) => {
            eprintln!("xtask: protolint PASSED the seeded-broken fixtures — engines are blind");
            ok = false;
        }
        Err(e) => {
            eprintln!("xtask: seeded fixture step failed to launch: {e}");
            ok = false;
        }
    }

    if ok {
        eprintln!("xtask: analyze passed");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Walk `crates/*/src` and apply the source lints; returns violations as
/// `path:line: message` strings.
fn lint_tree(root: &Path) -> Vec<String> {
    let mut violations = Vec::new();
    let crates_dir = root.join("crates");
    let Ok(entries) = std::fs::read_dir(&crates_dir) else {
        return vec![format!("cannot read {}", crates_dir.display())];
    };
    let mut crate_dirs: Vec<PathBuf> =
        entries.filter_map(|e| e.ok().map(|e| e.path())).filter(|p| p.is_dir()).collect();
    crate_dirs.sort();
    for dir in &crate_dirs {
        let name = dir.file_name().and_then(|n| n.to_str()).unwrap_or_default().to_string();
        let src = dir.join("src");
        let mut files = Vec::new();
        collect_rs(&src, &mut files);
        files.sort();
        let base = LintOpts {
            allow_unwrap: UNWRAP_EXEMPT.contains(&name.as_str()),
            allow_raw_connect: CONNECT_EXEMPT.contains(&name.as_str()),
            allow_raw_instant: INSTANT_EXEMPT.contains(&name.as_str()),
            allow_frame_loops: FRAME_LOOP_EXEMPT.contains(&name.as_str()),
            event_loop_module: false,
        };
        for file in &files {
            if let Ok(text) = std::fs::read_to_string(file) {
                let rel = file.strip_prefix(root).unwrap_or(file);
                let file_name = file.file_name().and_then(|n| n.to_str()).unwrap_or_default();
                let opts = LintOpts { event_loop_module: file_name.contains("event_loop"), ..base };
                violations.extend(lint_source(&rel.display().to_string(), &text, opts));
            }
        }
        if DENY_UNSAFE.contains(&name.as_str()) {
            let lib = src.join("lib.rs");
            let has = std::fs::read_to_string(&lib)
                .map(|t| t.contains("#![deny(unsafe_code)]"))
                .unwrap_or(false);
            if !has {
                violations.push(format!(
                    "{}: missing `#![deny(unsafe_code)]` at the crate root",
                    lib.strip_prefix(root).unwrap_or(&lib).display()
                ));
            }
        }
    }

    // `unsafe` is confined to one file across every target, tests
    // included.
    let mut all = Vec::new();
    for dir in crate_dirs.iter().filter(|d| !d.ends_with("xtask")) {
        collect_rs(dir, &mut all);
    }
    for top in ["src", "tests", "examples"] {
        collect_rs(&root.join(top), &mut all);
    }
    all.sort();
    for file in &all {
        let rel = file.strip_prefix(root).unwrap_or(file).display().to_string();
        if let Ok(text) = std::fs::read_to_string(file) {
            violations.extend(lint_unsafe(&rel, &text));
        }
    }
    violations
}

/// Flag `unsafe` (as a keyword, not inside `unsafe_code`) and
/// `allow(unsafe_code)` on any non-comment line, unless `rel` is
/// [`UNSAFE_ALLOWED`].
fn lint_unsafe(rel: &str, text: &str) -> Vec<String> {
    if rel.replace('\\', "/") == UNSAFE_ALLOWED {
        return Vec::new();
    }
    let is_word = |c: Option<char>| c.is_some_and(|c| c.is_alphanumeric() || c == '_');
    let mut violations = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        if line.trim_start().starts_with("//") {
            continue;
        }
        let keyword = line.match_indices("unsafe").any(|(i, w)| {
            !is_word(line[..i].chars().next_back()) && !is_word(line[i + w.len()..].chars().next())
        });
        if keyword || line.contains("allow(unsafe_code)") {
            violations.push(format!(
                "{rel}:{}: `unsafe` outside {UNSAFE_ALLOWED} — the workspace's one foreign \
                 call is the `poll(2)` binding there",
                idx + 1
            ));
        }
    }
    violations
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.filter_map(Result::ok) {
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

#[derive(Clone, Copy)]
struct LintOpts {
    allow_unwrap: bool,
    allow_raw_connect: bool,
    allow_raw_instant: bool,
    allow_frame_loops: bool,
    /// File is an event-loop module: blocking I/O spellings are banned.
    event_loop_module: bool,
}

/// Lint one source file.  Test modules (`#[cfg(test)]` /
/// `#[cfg(all(test, ...))]`) are skipped by brace tracking, and
/// comment-only lines are ignored.
fn lint_source(rel: &str, text: &str, opts: LintOpts) -> Vec<String> {
    let mut violations = Vec::new();
    // Ways round `openmeta_obs::sync`: a lock's own zero-argument method,
    // or the deleted vendored lock shim.  Assembled at run time so this
    // file does not match its own lint.
    let mut lock_bypasses = ["lock", "read", "write"].map(|m| format!(".{m}()")).to_vec();
    lock_bypasses.push(concat!("parking", "_lot::").to_string());
    if rel.replace('\\', "/") == LOCK_HOME {
        lock_bypasses.clear();
    }
    let mut in_test = false;
    let mut depth: i64 = 0;
    let mut entered_body = false;
    for (idx, line) in text.lines().enumerate() {
        let trimmed = line.trim_start();
        if in_test {
            let opens = line.matches('{').count() as i64;
            let closes = line.matches('}').count() as i64;
            depth += opens - closes;
            if opens > 0 {
                entered_body = true;
            }
            if entered_body && depth <= 0 {
                in_test = false;
            }
            continue;
        }
        if trimmed.starts_with("#[cfg(test)]") || trimmed.starts_with("#[cfg(all(test") {
            in_test = true;
            depth = 0;
            entered_body = false;
            continue;
        }
        if trimmed.starts_with("//") {
            continue;
        }
        let lineno = idx + 1;
        if !opts.allow_unwrap && line.contains(".unwrap()") {
            violations.push(format!(
                "{rel}:{lineno}: `.unwrap()` in library code — use `?`, a typed error, \
                 or `.expect(\"documented invariant\")`"
            ));
        }
        if !opts.allow_raw_connect && line.contains("TcpStream::connect(") {
            violations.push(format!(
                "{rel}:{lineno}: raw `TcpStream::connect` without a deadline — use \
                 `connect_timeout` (see net::TransportConfig)"
            ));
        }
        if !opts.allow_raw_instant && line.contains("Instant::now()") {
            violations.push(format!(
                "{rel}:{lineno}: direct `Instant::now()` timing in library code — use \
                 `openmeta_obs::clock::now()` or a stage span (`openmeta_obs::span!`)"
            ));
        }
        if !opts.allow_frame_loops && line.contains(".bytes_needed()") {
            violations.push(format!(
                "{rel}:{lineno}: hand-rolled frame read loop (`.bytes_needed()`) — drive \
                 frames with net::read_frame_blocking"
            ));
        }
        for pat in lock_bypasses.iter().filter(|p| line.contains(p.as_str())) {
            violations.push(format!(
                "{rel}:{lineno}: `{pat}` takes a lock around openmeta_obs::sync — use \
                 `sync::lock`/`sync::read`/`sync::write` so the lock-order analyzer sees it"
            ));
        }
        if line.contains(BUILD_FORK) {
            violations.push(format!(
                "{rel}:{lineno}: `{BUILD_FORK}` cfg forks debug and release builds — a \
                 check that guards input runs in every build; use `debug_assert!` for an \
                 internal invariant"
            ));
        }
        if opts.event_loop_module {
            for pat in EVENT_LOOP_BLOCKING {
                if line.contains(pat) {
                    violations.push(format!(
                        "{rel}:{lineno}: blocking I/O call `{pat}` inside an event-loop \
                         module — route socket I/O through `nio::read_ready` / \
                         `nio::write_ready` so one stalled peer cannot stall the sweep"
                    ));
                }
            }
        }
    }
    violations
}

// ------------------------------------------------------------- loom/miri

fn loom() -> ExitCode {
    let root = repo_root();
    let mut rustflags = std::env::var("RUSTFLAGS").unwrap_or_default();
    if !rustflags.contains("--cfg loom") {
        if !rustflags.is_empty() {
            rustflags.push(' ');
        }
        rustflags.push_str("--cfg loom");
    }
    let mut cmd = Command::new("cargo");
    cmd.current_dir(&root).env("RUSTFLAGS", rustflags).args([
        "test",
        "-q",
        "-p",
        "openmeta-ohttp",
        "-p",
        "openmeta-obs",
        "-p",
        "openmeta-pbio",
        "loom_",
    ]);
    if run("loom model tests", &mut cmd) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn miri() -> ExitCode {
    let root = repo_root();
    // Miri ships only with nightly toolchains; skip gracefully where the
    // component is absent so `cargo xtask miri` is safe to call anywhere.
    let available = Command::new("cargo")
        .current_dir(&root)
        .args(["miri", "--version"])
        .output()
        .map(|o| o.status.success())
        .unwrap_or(false);
    if !available {
        eprintln!("xtask: miri unavailable on this toolchain; skipping (not a failure)");
        return ExitCode::SUCCESS;
    }
    // pbio is #![deny(unsafe_code)] (the workspace's one `unsafe` call is
    // the `poll(2)` binding in net), so Miri's value here
    // is checking the codec/plan arithmetic for UB-adjacent issues
    // (overflow in layout math surfaces as panics under Miri too).
    let mut cmd = Command::new("cargo");
    cmd.current_dir(&root).env("MIRIFLAGS", "-Zmiri-disable-isolation").args([
        "miri",
        "test",
        "-p",
        "openmeta-pbio",
        "--lib",
        "plan",
        "codec",
    ]);
    if run("miri", &mut cmd) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

// -------------------------------------------------------------------- loc

/// Print production Rust lines for each crate under `crates/` and
/// `vendor/`, then the total.  A production line is a non-blank line of
/// a `src/` file before its first test module.
fn loc() -> ExitCode {
    let root = repo_root();
    let mut rows = Vec::new();
    for top in ["crates", "vendor"] {
        let Ok(entries) = std::fs::read_dir(root.join(top)) else { continue };
        for dir in entries.filter_map(|e| e.ok().map(|e| e.path())).filter(|p| p.is_dir()) {
            let mut files = Vec::new();
            collect_rs(&dir.join("src"), &mut files);
            let lines = files
                .iter()
                .filter_map(|f| std::fs::read_to_string(f).ok())
                .map(|text| production_lines(&text))
                .sum::<usize>();
            rows.push((dir.strip_prefix(&root).unwrap_or(&dir).display().to_string(), lines));
        }
    }
    rows.sort();
    for (name, lines) in &rows {
        println!("{lines:>7}  {name}");
    }
    println!("{:>7}  total", rows.iter().map(|(_, n)| n).sum::<usize>());
    ExitCode::SUCCESS
}

/// Non-blank lines before the first test module: a `mod` opened under
/// a `#[cfg(..)]` whose predicate requires `test`.
fn production_lines(text: &str) -> usize {
    let lines: Vec<&str> = text.lines().map(str::trim).collect();
    let end = lines
        .windows(2)
        .position(|w| {
            let cfg = w[0].strip_prefix("#[cfg(").and_then(|p| p.strip_suffix(")]"));
            cfg.is_some_and(requires_test) && w[1].split_whitespace().any(|t| t == "mod")
        })
        .unwrap_or(lines.len());
    lines[..end].iter().filter(|l| !l.is_empty()).count()
}

/// Whether a `cfg` predicate holds only in test builds: `test` itself,
/// or an `all(..)` with such a member.
fn requires_test(pred: &str) -> bool {
    let pred = pred.trim();
    let Some(args) = pred.strip_prefix("all(").and_then(|a| a.strip_suffix(')')) else {
        return pred == "test";
    };
    let (mut depth, mut start) = (0, 0);
    for (i, c) in args.char_indices() {
        match c {
            '(' => depth += 1,
            ')' => depth -= 1,
            ',' if depth == 0 => {
                if requires_test(&args[start..i]) {
                    return true;
                }
                start = i + 1;
            }
            _ => {}
        }
    }
    requires_test(&args[start..])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn production_lines_stop_at_the_first_test_module() {
        let src = "//! doc\n\nfn f() {}\n#[cfg(test)]\nfn helper() {}\n\n\
                   #[cfg(test)]\nmod tests {\n    fn t() {}\n}\n";
        assert_eq!(production_lines(src), 4);
        assert_eq!(production_lines("fn f() {}\n\n#[cfg(test)]\npub(crate) mod fixtures;\n"), 1);
        assert_eq!(production_lines("fn f() {}\n"), 1);
        for cfg in ["all(test, loom)", "all(test, not(loom))", "all(unix, all(loom, test))"] {
            let src = format!("fn f() {{}}\n\n#[cfg({cfg})]\nmod tests {{\n    fn t() {{}}\n}}\n");
            assert_eq!(production_lines(&src), 1, "{cfg}");
        }
        for cfg in ["not(test)", "any(test, loom)", "all(not(test), loom)", "loom"] {
            let src = format!("fn f() {{}}\n#[cfg({cfg})]\nmod m {{}}\n");
            assert_eq!(production_lines(&src), 3, "{cfg}");
        }
    }

    const OPTS: LintOpts = LintOpts {
        allow_unwrap: false,
        allow_raw_connect: false,
        allow_raw_instant: false,
        allow_frame_loops: false,
        event_loop_module: false,
    };

    #[test]
    fn seeded_unwrap_in_library_code_is_flagged() {
        let src = "pub fn f(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\n";
        let v = lint_source("crates/demo/src/lib.rs", src, OPTS);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("crates/demo/src/lib.rs:2"), "{v:?}");
    }

    #[test]
    fn unwrap_in_test_module_is_ignored() {
        let src = "pub fn f() {}\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        Some(1).unwrap();\n    }\n}\n";
        assert!(lint_source("lib.rs", src, OPTS).is_empty());
    }

    #[test]
    fn unwrap_after_test_module_is_still_flagged() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { Some(1).unwrap(); }\n}\n\npub fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        let v = lint_source("lib.rs", src, OPTS);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("lib.rs:6"), "{v:?}");
    }

    #[test]
    fn loom_test_module_is_ignored() {
        let src =
            "#[cfg(all(test, loom))]\nmod loom_tests {\n    fn t() { Some(1).unwrap(); }\n}\n";
        assert!(lint_source("lib.rs", src, OPTS).is_empty());
    }

    #[test]
    fn raw_connect_is_flagged_but_connect_timeout_is_not() {
        let src = "fn f() {\n    let _ = TcpStream::connect(addr);\n    let _ = TcpStream::connect_timeout(&addr, t);\n}\n";
        let v = lint_source("lib.rs", src, OPTS);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("lib.rs:2"), "{v:?}");
        let exempt = LintOpts { allow_raw_connect: true, ..OPTS };
        assert!(lint_source("lib.rs", src, exempt).is_empty());
    }

    #[test]
    fn raw_instant_timing_is_flagged_outside_the_clock_shim() {
        let src = "fn f() {\n    let t = Instant::now();\n    let c = clock::now();\n}\n";
        let v = lint_source("lib.rs", src, OPTS);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("lib.rs:2") && v[0].contains("clock::now"), "{v:?}");
        let exempt = LintOpts { allow_raw_instant: true, ..OPTS };
        assert!(lint_source("lib.rs", src, exempt).is_empty());
    }

    #[test]
    fn blocking_io_in_event_loop_module_is_flagged() {
        let src = "fn f(s: &mut TcpStream) {\n    let mut b = [0u8; 4];\n    \
                   let _ = s.read_exact(&mut b);\n    let _ = s.write_all(&b);\n    \
                   let r = BufReader::new(s);\n}\n";
        let opts = LintOpts { event_loop_module: true, ..OPTS };
        let v = lint_source("crates/net/src/event_loop.rs", src, opts);
        assert_eq!(v.len(), 3, "{v:?}");
        assert!(v.iter().all(|m| m.contains("blocking I/O")), "{v:?}");
        // The same source in any other file passes.
        assert!(lint_source("crates/net/src/framing.rs", src, OPTS).is_empty());
    }

    #[test]
    fn hand_rolled_frame_read_loop_is_flagged_outside_net() {
        let src = "fn f(s: &mut TcpStream, f: &mut LengthFramer) {\n    \
                   let need = f.bytes_needed();\n    \
                   let frame = read_frame_blocking(s, f);\n}\n\n#[cfg(test)]\nmod tests {\n    \
                   fn t(f: &LengthFramer) { assert!(f.bytes_needed() > 0); }\n}\n";
        let v = lint_source("crates/echo/src/channel.rs", src, OPTS);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("channel.rs:2"), "{v:?}");
        assert!(v[0].contains("drive frames with net::read_frame_blocking"), "{v:?}");
        // The framer's own crate (and the explorer) may ask it.
        let exempt = LintOpts { allow_frame_loops: true, ..OPTS };
        assert!(lint_source("crates/net/src/sansio.rs", src, exempt).is_empty());
    }

    #[test]
    fn event_loop_lint_skips_tests_and_allows_nonblocking_helpers() {
        let opts = LintOpts { event_loop_module: true, ..OPTS };
        // Test modules may use blocking I/O (they drive the loop from
        // the outside); the nio helpers are the sanctioned spellings.
        let src = "fn f() {\n    let _ = read_ready(&mut s, &mut buf);\n    \
                   let _ = write_ready(&mut s, &out);\n}\n\n#[cfg(test)]\nmod tests {\n    \
                   fn t(s: &mut TcpStream) { let _ = s.write_all(b\"x\"); }\n}\n";
        assert!(lint_source("event_loop.rs", src, opts).is_empty());
    }

    #[test]
    fn comments_and_exemptions_are_respected() {
        let src = "// .unwrap() in a comment\npub fn f() {}\n";
        assert!(lint_source("lib.rs", src, OPTS).is_empty());
        let exempt = LintOpts { allow_unwrap: true, ..OPTS };
        assert!(lint_source("lib.rs", "fn f() { x.unwrap() }\n", exempt).is_empty());
    }

    #[test]
    fn bare_lock_calls_are_flagged_outside_the_lock_home() {
        let src =
            "pub fn f(m: &RwLock<u8>) -> u8 {\n    *m.read()\n}\n\n#[cfg(test)]\nmod tests {\n    \
                   fn t(m: &RwLock<u8>) -> u8 { *m.read() }\n}\n";
        let v = lint_source("crates/demo/src/lib.rs", src, OPTS);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("lib.rs:2") && v[0].contains("sync::read"), "{v:?}");
        for call in ["m.lock()", "m.write()"] {
            let v = lint_source("lib.rs", &format!("fn f() {{ {call}; }}\n"), OPTS);
            assert_eq!(v.len(), 1, "{call}: {v:?}");
        }
        // The helpers themselves, and calls that take arguments, pass.
        assert!(lint_source(LOCK_HOME, src, OPTS).is_empty());
        let ok =
            "fn f() {\n    let g = sync::read(&m);\n    s.read(&mut buf)?;\n    p.try_lock();\n}\n";
        assert!(lint_source("lib.rs", ok, OPTS).is_empty());
        let shim = concat!("use parking", "_lot::RwLock;\n");
        assert_eq!(lint_source("lib.rs", shim, OPTS).len(), 1);
    }

    #[test]
    fn debug_only_cfg_is_flagged_but_debug_assert_is_not() {
        let fork = BUILD_FORK;
        let src = format!(
            "pub fn f(x: u8) {{\n    #[cfg({fork})]\n    check(x);\n    \
             if cfg!({fork}) {{ g(); }}\n    debug_assert!(x > 0);\n}}\n\n\
             #[cfg(any(\n    {fork},\n    feature = \"x\"\n))]\nfn h() {{}}\n\n\
             #[cfg(test)]\nmod tests {{\n    #[cfg({fork})]\n    fn t() {{}}\n}}\n"
        );
        let v = lint_source("crates/demo/src/lib.rs", &src, OPTS);
        let lines: Vec<&str> = v.iter().map(|m| m.split(": ").next().unwrap_or_default()).collect();
        assert_eq!(
            lines,
            ["crates/demo/src/lib.rs:2", "crates/demo/src/lib.rs:4", "crates/demo/src/lib.rs:9"],
            "{v:?}"
        );
        assert!(v.iter().all(|m| m.contains("forks debug and release")), "{v:?}");
    }

    #[test]
    fn unsafe_is_flagged_everywhere_but_the_poll_binding() {
        let block = "fn f() {\n    let n = unsafe { g() };\n}\n";
        let allow = "#![allow(unsafe_code)]\n";
        for src in [block, allow, "#[cfg(test)]\nmod t {\n    unsafe fn g() {}\n}\n"] {
            assert_eq!(lint_unsafe("crates/pbio/src/lib.rs", src).len(), 1, "{src}");
            assert!(lint_unsafe(UNSAFE_ALLOWED, src).is_empty(), "{src}");
        }
        let benign = "#![deny(unsafe_code)]\n// an `unsafe` remark\nlet unsafe_count = 0;\n";
        assert!(lint_unsafe("crates/pbio/src/lib.rs", benign).is_empty());
    }

    #[test]
    fn repo_tree_is_lint_clean() {
        let violations = lint_tree(&repo_root());
        assert!(violations.is_empty(), "{violations:#?}");
    }
}
