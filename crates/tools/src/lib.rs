//! Command implementations behind the `openmeta` CLI.
//!
//! Each command is a plain function from parsed arguments to output text,
//! so everything is unit-testable without spawning processes:
//!
//! | command | function | role |
//! |---|---|---|
//! | `validate <url>` | [`validate`] | check a metadata document, list its types |
//! | `layout <url> <type> [machine]` | [`layout`] | show the generated native struct layout |
//! | `codegen <java\|c\|class> <url> <type>` | [`codegen`] | emit language bindings |
//! | `match <message-file> <url>` | [`match_msg`] | schema-check a live message (§3) |
//! | `formats diff <old> <new> [--json]` | [`formats_diff`] | negotiation verdict for every shared type of two schema versions |
//! | `inspect <pbio-file>` | [`inspect`] | dump a self-describing PBIO data file |
//! | `serve <dir> [port]` | [`serve`] | host a directory of metadata documents |
//! | `planlint [--json] <xsd-file>...` | [`planlint`] | statically verify every marshal plan a schema produces |
//! | `protolint [--json] [--root <dir>] [--mutants]` | [`protolint`] | protocol-layer static analysis: sans-io exploration, lock-order graph, taint lint |
//! | `stats [--json\|--prom] [url]` | [`stats`] | render this process's metrics registry, or scrape a server's `/metrics` |
//! | `loadgen [--server http\|pbio] [...]` | [`loadgen::run`] | drive a server over N connections; `--check` gates errors and p99 |
//! | `channel <publish\|subscribe> [...]` | [`channel::run`] | host or join the demo ECho event channel |
//!
//! The `url` arguments accept `http://`, `file://` and bare paths (which
//! are treated as `file://`).

#![deny(unsafe_code)]

pub mod channel;
pub mod loadgen;
pub mod output;

use std::fmt::Write as _;
use std::path::Path;

use openmeta_pbio::file::FileReader;
use openmeta_pbio::Value;
use xmit::{MachineModel, Xmit};

/// Error type: operator-facing message text.
pub type ToolError = String;

fn to_url(spec: &str) -> String {
    if spec.contains("://") {
        spec.to_string()
    } else {
        let abs = std::path::absolute(spec).unwrap_or_else(|_| Path::new(spec).to_path_buf());
        format!("file://{}", abs.display())
    }
}

fn machine_by_name(name: Option<&str>) -> Result<MachineModel, ToolError> {
    Ok(match name.unwrap_or("native") {
        "native" => MachineModel::native(),
        "sparc32" => MachineModel::SPARC32,
        "sparc64" => MachineModel::SPARC64,
        "x86" => MachineModel::X86,
        "x86_64" => MachineModel::X86_64,
        other => return Err(format!("unknown machine model '{other}'")),
    })
}

fn load(spec: &str, machine: MachineModel) -> Result<Xmit, ToolError> {
    let toolkit = Xmit::new(machine);
    toolkit.load_url(&to_url(spec)).map_err(|e| e.to_string())?;
    Ok(toolkit)
}

/// `openmeta validate <url>`
pub fn validate(spec: &str) -> Result<String, ToolError> {
    let toolkit = load(spec, MachineModel::native())?;
    let mut out = String::new();
    let names = toolkit.loaded_types();
    let _ = writeln!(out, "{}: {} complexType(s)", spec, names.len());
    for name in names {
        match toolkit.bind(&name) {
            Ok(token) => {
                let _ = writeln!(
                    out,
                    "  {name}: binds OK ({} fields, {} bytes native, id {})",
                    token.format.total_field_count(),
                    token.format.record_size,
                    token.id()
                );
            }
            Err(e) => {
                let _ = writeln!(out, "  {name}: DOES NOT BIND — {e}");
            }
        }
    }
    Ok(out)
}

/// `openmeta layout <url> <type> [machine]`
pub fn layout(spec: &str, type_name: &str, machine: Option<&str>) -> Result<String, ToolError> {
    let machine = machine_by_name(machine)?;
    let toolkit = load(spec, machine)?;
    let token = toolkit.bind(type_name).map_err(|e| e.to_string())?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} ({} bytes, align {}, format id {}):",
        type_name,
        token.format.record_size,
        token.format.align,
        token.id()
    );
    let _ = writeln!(out, "  {:<18} {:>6} {:>5}  kind", "field", "offset", "size");
    for f in &token.format.fields {
        let _ =
            writeln!(out, "  {:<18} {:>6} {:>5}  {}", f.name, f.offset, f.size, f.kind.describe());
    }
    Ok(out)
}

/// `openmeta codegen <java|c|class> <url> <type> [package]`
pub fn codegen(
    kind: &str,
    spec: &str,
    type_name: &str,
    package: Option<&str>,
) -> Result<Vec<(String, Vec<u8>)>, ToolError> {
    let toolkit = load(spec, MachineModel::native())?;
    let ct = toolkit
        .definition(type_name)
        .ok_or_else(|| format!("no complexType '{type_name}' in {spec}"))?;
    match kind {
        "java" => {
            let src =
                xmit::codegen::java::generate_class(&ct, package).map_err(|e| e.to_string())?;
            Ok(vec![(format!("{type_name}.java"), src.into_bytes())])
        }
        "c" => {
            let src = xmit::codegen::c::generate_header(&ct).map_err(|e| e.to_string())?;
            Ok(vec![(format!("{type_name}.h"), src.into_bytes())])
        }
        "cpp" => {
            let src =
                xmit::codegen::cpp::generate_class(&ct, package).map_err(|e| e.to_string())?;
            Ok(vec![(format!("{type_name}.hpp"), src.into_bytes())])
        }
        "class" => {
            let bytes =
                xmit::codegen::jvm::generate_classfile(&ct, package).map_err(|e| e.to_string())?;
            Ok(vec![(format!("{type_name}.class"), bytes)])
        }
        other => Err(format!("unknown codegen target '{other}' (java|c|cpp|class)")),
    }
}

/// `openmeta match <message-file> <url>`
pub fn match_msg(message_path: &str, spec: &str) -> Result<String, ToolError> {
    let message =
        std::fs::read_to_string(message_path).map_err(|e| format!("read {message_path}: {e}"))?;
    let toolkit = load(spec, MachineModel::native())?;
    let candidates: Vec<xmit::ComplexType> =
        toolkit.loaded_types().into_iter().filter_map(|n| toolkit.definition(&n)).collect();
    let reports = xmit::match_message(&message, &candidates).map_err(|e| e.to_string())?;
    let mut out = String::new();
    let _ = writeln!(out, "candidates for {message_path}, best first:");
    for r in reports {
        let _ = writeln!(
            out,
            "  {:<24} score {:.2}  (matched {}, missing {:?}, mismatched {:?}, unexplained {:?})",
            r.type_name, r.score, r.matched, r.missing, r.mismatched, r.unexplained
        );
    }
    Ok(out)
}

/// `openmeta diff <old-url> <new-url> <type> [machine]` — evolution
/// compatibility check before pushing a central format change.
pub fn diff(
    old_spec: &str,
    new_spec: &str,
    type_name: &str,
    machine: Option<&str>,
) -> Result<String, ToolError> {
    let machine = machine_by_name(machine)?;
    let old = load(old_spec, machine)?
        .definition(type_name)
        .ok_or_else(|| format!("no complexType '{type_name}' in {old_spec}"))?;
    let new = load(new_spec, machine)?
        .definition(type_name)
        .ok_or_else(|| format!("no complexType '{type_name}' in {new_spec}"))?;
    let report = xmit::diff_types(&old, &new, &machine).map_err(|e| e.to_string())?;
    let mut out = String::new();
    let verdict = match report.compatibility {
        xmit::Compatibility::Identical => "IDENTICAL — same format id, nothing changes",
        xmit::Compatibility::Compatible => {
            "COMPATIBLE — restricted evolution applies; old and new receivers interoperate"
        }
        xmit::Compatibility::Lossy => {
            "LOSSY — shared fields changed width; values may truncate in one direction"
        }
        xmit::Compatibility::Breaking => {
            "BREAKING — a shared field changed category; receivers will reject messages"
        }
    };
    let _ = writeln!(out, "{type_name}: {verdict}");
    for c in &report.changes {
        let _ = writeln!(out, "  {}", change_line(c));
    }
    Ok(out)
}

fn change_line(c: &xmit::FieldChange) -> String {
    match c {
        xmit::FieldChange::Added(n) => format!("+ {n} (invisible to old receivers)"),
        xmit::FieldChange::Removed(n) => format!("- {n} (zero/empty at new receivers)"),
        xmit::FieldChange::Resized { name, old_size, new_size } => {
            format!("~ {name}: {old_size} -> {new_size} bytes")
        }
        xmit::FieldChange::Retyped { name, old_kind, new_kind } => {
            format!("! {name}: {old_kind} -> {new_kind}")
        }
    }
}

/// `openmeta formats diff <old> <new> [--json]` — descriptor-level
/// version diff: for every complexType the two schema files share, the
/// verdict the negotiation subsystem would reach on first contact
/// ([`xmit::classify`] over the bound descriptors), with the field-level
/// evolution changes behind it.
///
/// Returns the rendered report and whether it passed (no shared type is
/// incompatible); the binary exits non-zero on failure.
pub fn formats_diff(
    old_spec: &str,
    new_spec: &str,
    json: bool,
) -> Result<(String, bool), ToolError> {
    let old = load(old_spec, MachineModel::native())?;
    let new = load(new_spec, MachineModel::native())?;
    let old_names = old.loaded_types();
    let new_names = new.loaded_types();
    let shared: Vec<String> = old_names.iter().filter(|n| new_names.contains(n)).cloned().collect();
    let only_old: Vec<String> =
        old_names.iter().filter(|n| !new_names.contains(n)).cloned().collect();
    let only_new: Vec<String> =
        new_names.iter().filter(|n| !old_names.contains(n)).cloned().collect();
    if shared.is_empty() {
        return Err(format!("{old_spec} and {new_spec} share no complexType names"));
    }

    let verdict_name = |v: xmit::PairVerdict| match v {
        xmit::PairVerdict::Identical => "identical",
        xmit::PairVerdict::Widening => "widening",
        xmit::PairVerdict::Projectable => "projectable",
        xmit::PairVerdict::Incompatible => "incompatible",
    };
    let mut rows = Vec::with_capacity(shared.len());
    for name in &shared {
        let a = old.bind(name).map_err(|e| e.to_string())?;
        let b = new.bind(name).map_err(|e| e.to_string())?;
        let (verdict, report) = xmit::classify(&a.format, &b.format);
        rows.push((name.clone(), a.format.id(), b.format.id(), verdict, report));
    }
    let incompatible = rows.iter().filter(|r| r.3 == xmit::PairVerdict::Incompatible).count();
    let passed = incompatible == 0;

    if json {
        let mut out = String::from("{\n  \"types\": [\n");
        for (i, (name, old_id, new_id, verdict, report)) in rows.iter().enumerate() {
            let changes: Vec<String> =
                report.changes.iter().map(|c| format!("\"{}\"", change_line(c))).collect();
            let comma = if i + 1 < rows.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"name\": \"{name}\", \"verdict\": \"{}\", \"old_id\": \"{old_id}\", \
                 \"new_id\": \"{new_id}\", \"changes\": [{}]}}{comma}",
                verdict_name(*verdict),
                changes.join(", ")
            );
        }
        let quote =
            |v: &[String]| v.iter().map(|n| format!("\"{n}\"")).collect::<Vec<_>>().join(", ");
        let _ = writeln!(out, "  ],");
        let _ = writeln!(out, "  \"only_old\": [{}],", quote(&only_old));
        let _ = writeln!(out, "  \"only_new\": [{}],", quote(&only_new));
        let _ = writeln!(out, "  \"passed\": {passed}");
        out.push_str("}\n");
        return Ok((out, passed));
    }

    let mut out = String::new();
    for (name, old_id, new_id, verdict, report) in &rows {
        let headline = match verdict {
            xmit::PairVerdict::Identical => "IDENTICAL — same content id, handshake is free",
            xmit::PairVerdict::Widening => {
                "WIDENING — delivery converts; widened fields may truncate"
            }
            xmit::PairVerdict::Projectable => {
                "PROJECTABLE — receiver-side make-right conversion applies"
            }
            xmit::PairVerdict::Incompatible => {
                "INCOMPATIBLE — the handshake rejects this pair at connection setup"
            }
        };
        let _ = writeln!(out, "{name}: {headline}");
        let _ = writeln!(out, "  old id {old_id}, new id {new_id}");
        for c in &report.changes {
            let _ = writeln!(out, "  {}", change_line(c));
        }
    }
    for name in &only_old {
        let _ = writeln!(out, "{name}: only in {old_spec}");
    }
    for name in &only_new {
        let _ = writeln!(out, "{name}: only in {new_spec}");
    }
    let _ = writeln!(
        out,
        "{} shared type(s), {incompatible} incompatible — {}",
        rows.len(),
        if passed { "PASS" } else { "FAIL" }
    );
    Ok((out, passed))
}

/// `openmeta inspect <pbio-file>`
pub fn inspect(path: &str) -> Result<String, ToolError> {
    let file = std::fs::File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    let mut reader = FileReader::new(std::io::BufReader::new(file)).map_err(|e| e.to_string())?;
    let mut out = String::new();
    let mut count = 0usize;
    loop {
        match reader.next_record() {
            Ok(Some(rec)) => {
                count += 1;
                let _ = writeln!(
                    out,
                    "record {count}: {} ({} bytes native)",
                    rec.format().name,
                    rec.format().record_size
                );
                if let Ok(Value::Record(rv)) = Value::from_record(&rec) {
                    for (name, value) in &rv.fields {
                        let rendered = match value {
                            Value::FloatArray(v) if v.len() > 8 => {
                                format!("[{} floats]", v.len())
                            }
                            Value::IntArray(v) if v.len() > 8 => {
                                format!("[{} ints]", v.len())
                            }
                            other => format!("{other:?}"),
                        };
                        let _ = writeln!(out, "    {name} = {rendered}");
                    }
                }
            }
            Ok(None) => break,
            Err(e) => return Err(format!("at record {}: {e}", count + 1)),
        }
    }
    let _ = writeln!(out, "{count} record(s), {} format(s)", reader.registry().len());
    Ok(out)
}

/// `openmeta planlint [--json] <xsd-file>...` — run the static plan
/// verifier over every schema file: each `complexType` is mapped,
/// registered and plan-compiled across the analyzer's machine matrix
/// (layouts, encode plans, and convert plans for every ordered machine
/// pair), and every verdict is collected.
///
/// Returns the rendered report and whether it passed (no error-severity
/// diagnostics); the binary exits non-zero on failure.  With `json`,
/// output is the stable machine-readable shape from
/// [`openmeta_analyzer::Report::to_json`].
pub fn planlint(paths: &[&str], json: bool) -> Result<(String, bool), ToolError> {
    if paths.is_empty() {
        return Err("planlint needs at least one schema file".to_string());
    }
    let mut combined = openmeta_analyzer::Report::default();
    let mut text = String::new();
    for path in paths {
        let xml = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        let report = openmeta_analyzer::analyze_xml(&xml);
        let _ = writeln!(
            text,
            "{path}: {} format(s), {} encode plan(s), {} convert plan(s) — {}",
            report.formats_checked,
            report.encode_plans_checked,
            report.convert_plans_checked,
            if report.passed() {
                if report.warning_count() > 0 {
                    "PASS (with warnings)"
                } else {
                    "PASS"
                }
            } else {
                "FAIL"
            }
        );
        for d in &report.diagnostics {
            let _ = writeln!(text, "  {d}");
        }
        combined.formats_checked += report.formats_checked;
        combined.encode_plans_checked += report.encode_plans_checked;
        combined.convert_plans_checked += report.convert_plans_checked;
        combined.diagnostics.extend(report.diagnostics);
    }
    let passed = combined.passed();
    let _ = writeln!(
        text,
        "{} error(s), {} warning(s) across {} file(s)",
        combined.error_count(),
        combined.warning_count(),
        paths.len()
    );
    let out = if json { combined.to_json() } else { text };
    Ok((out, passed))
}

/// `openmeta protolint [--json] [--root <dir>] [--mutants]` — run the
/// protocol-layer static analyses: exhaustive sans-io exploration of
/// every protocol core, the lock-order graph, and the wire-input taint
/// lint (all from [`openmeta_analyzer`]).
///
/// With `mutants`, instead explore the built-in corpus of deliberately
/// broken parser variants and report whether every one was rejected —
/// the false-negative check that keeps the explorer honest.
///
/// Returns the rendered report and whether it passed; the binary exits
/// non-zero on failure.  The JSON shape is stable, like `planlint`'s.
pub fn protolint(root: &str, json: bool, mutants: bool) -> Result<(String, bool), ToolError> {
    use openmeta_analyzer::{ExplorerConfig, LockOrderConfig};

    let cfg = ExplorerConfig::default();
    if mutants {
        let (_, outcomes) = openmeta_analyzer::sansio::check_mutants(&cfg);
        let passed = outcomes.iter().all(|o| o.caught);
        if json {
            let mut out = String::from("{\n");
            let _ = writeln!(out, "  \"passed\": {passed},");
            let _ = writeln!(out, "  \"mutants\": [");
            for (i, o) in outcomes.iter().enumerate() {
                let comma = if i + 1 < outcomes.len() { "," } else { "" };
                let _ = writeln!(
                    out,
                    "    {{\"name\": \"{}\", \"caught\": {}, \"diagnostics\": {}}}{comma}",
                    o.name, o.caught, o.diagnostics
                );
            }
            out.push_str("  ]\n}\n");
            return Ok((out, passed));
        }
        let mut out = String::new();
        for o in &outcomes {
            let _ = writeln!(
                out,
                "  {:<24} {} ({} diagnostic(s))",
                o.name,
                if o.caught { "CAUGHT" } else { "MISSED" },
                o.diagnostics
            );
        }
        let _ = writeln!(
            out,
            "{}/{} seeded-broken parsers rejected — {}",
            outcomes.iter().filter(|o| o.caught).count(),
            outcomes.len(),
            if passed { "PASS" } else { "FAIL" }
        );
        return Ok((out, passed));
    }

    let files = openmeta_analyzer::collect_workspace_sources(Path::new(root))
        .map_err(|e| format!("collect sources under {root}: {e}"))?;
    if files.is_empty() {
        return Err(format!("no crates/*/src/**/*.rs files under {root}"));
    }
    let mut report = openmeta_analyzer::sansio::check_protocols(&cfg);
    report.merge(openmeta_analyzer::analyze_lock_order(&files, &LockOrderConfig::default()));
    report.merge(openmeta_analyzer::analyze_taint(&files));
    let passed = report.passed();
    if json {
        return Ok((report.to_json(), passed));
    }
    let mut text = String::new();
    let _ = writeln!(
        text,
        "sans-io:    {} machine(s) explored under {} schedule(s)",
        report.machines_checked, report.schedules_run
    );
    let _ = writeln!(text, "lock-order: {} acquisition site(s) in the graph", report.lock_sites);
    let _ =
        writeln!(text, "taint:      {} wire-length flow(s) checked", report.taint_flows_checked);
    for d in &report.diagnostics {
        let _ = writeln!(text, "  {d}");
    }
    let _ = writeln!(
        text,
        "{} error(s), {} warning(s) — {}",
        report.error_count(),
        report.warning_count(),
        if passed { "PASS" } else { "FAIL" }
    );
    Ok((text, passed))
}

/// `openmeta stats [--json|--prom] [url]` — observability snapshot.
///
/// Without a URL, renders this process's [`openmeta_obs::MetricsRegistry`]
/// in the requested format (the text form is a compact human summary).
/// With a URL, scrapes a running server's built-in `/metrics` (or
/// `/metrics.json`) route and returns the body verbatim.
pub fn stats(format: output::Format, url: Option<&str>) -> Result<String, ToolError> {
    match url {
        Some(base) => {
            let path = match format {
                output::Format::Json => "/metrics.json",
                _ => "/metrics",
            };
            let full = format!("{}{path}", base.trim_end_matches('/'));
            let parsed = openmeta_ohttp::Url::parse(&full).map_err(|e| e.to_string())?;
            let resp = openmeta_ohttp::http_get(&parsed).map_err(|e| e.to_string())?;
            String::from_utf8(resp.body).map_err(|_| format!("{full}: response is not UTF-8"))
        }
        None => {
            let snap = openmeta_obs::MetricsRegistry::global().snapshot();
            Ok(match format {
                output::Format::Json => snap.to_json(),
                output::Format::Prometheus => snap.to_prometheus(),
                output::Format::Text => {
                    let mut out = String::new();
                    for (key, value) in &snap.counters {
                        let _ = writeln!(out, "{key} = {value}");
                    }
                    for (key, value) in &snap.gauges {
                        let _ = writeln!(out, "{key} = {value}");
                    }
                    for (key, h) in &snap.histograms {
                        let _ =
                            writeln!(out, "{key} = count {} / mean {:.0} ns", h.count, h.mean());
                    }
                    out
                }
            })
        }
    }
}

/// `openmeta serve <dir> [port]` — returns the running server and the
/// list of hosted paths; the binary keeps it alive.
pub fn serve(dir: &str, port: u16) -> Result<(openmeta_ohttp::HttpServer, Vec<String>), ToolError> {
    let server = openmeta_ohttp::HttpServer::start_on(port).map_err(|e| e.to_string())?;
    let mut hosted = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read {dir}: {e}"))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        let path = entry.path();
        if path.is_file() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or_default();
            if name.ends_with(".xsd") || name.ends_with(".xml") {
                let body = std::fs::read(&path).map_err(|e| e.to_string())?;
                let web_path = format!("/formats/{name}");
                server.put_xml(&web_path, body);
                hosted.push(server.url_for(&web_path));
            }
        }
    }
    if hosted.is_empty() {
        return Err(format!("{dir} holds no .xsd/.xml documents"));
    }
    Ok((server, hosted))
}

#[cfg(test)]
mod tests {
    use super::*;

    const XSD: &str = "http://www.w3.org/2001/XMLSchema";

    fn fixture_dir(test: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("openmeta-tools-{}-{test}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("simple.xsd"),
            format!(
                r#"<xsd:complexType name="SimpleData" xmlns:xsd="{XSD}">
                     <xsd:element name="timestep" type="xsd:integer" />
                     <xsd:element name="data" type="xsd:float" maxOccurs="*"
                         dimensionName="size" />
                   </xsd:complexType>"#
            ),
        )
        .unwrap();
        dir
    }

    #[test]
    fn validate_reports_types() {
        let dir = fixture_dir("validate");
        let out = validate(dir.join("simple.xsd").to_str().unwrap()).unwrap();
        assert!(out.contains("1 complexType(s)"));
        assert!(out.contains("SimpleData: binds OK (3 fields"));
    }

    #[test]
    fn validate_reports_parse_failures() {
        let dir = fixture_dir("badparse");
        let bad = dir.join("bad.xsd");
        std::fs::write(&bad, "<not-schema/>").unwrap();
        assert!(validate(bad.to_str().unwrap()).is_err());
    }

    #[test]
    fn layout_shows_machine_specific_offsets() {
        let dir = fixture_dir("layout");
        let spec = dir.join("simple.xsd");
        let sparc = layout(spec.to_str().unwrap(), "SimpleData", Some("sparc32")).unwrap();
        assert!(sparc.contains("(12 bytes"), "{sparc}");
        assert!(sparc.contains("float[size]"));
        assert!(layout(spec.to_str().unwrap(), "SimpleData", Some("mips")).is_err());
        assert!(layout(spec.to_str().unwrap(), "Nope", None).is_err());
    }

    #[test]
    fn codegen_all_three_targets() {
        let dir = fixture_dir("codegen");
        let spec = dir.join("simple.xsd");
        let spec = spec.to_str().unwrap();
        let java = codegen("java", spec, "SimpleData", Some("edu.gatech")).unwrap();
        assert_eq!(java[0].0, "SimpleData.java");
        assert!(String::from_utf8_lossy(&java[0].1).contains("package edu.gatech;"));
        let c = codegen("c", spec, "SimpleData", None).unwrap();
        assert!(String::from_utf8_lossy(&c[0].1).contains("float *data;"));
        let cpp = codegen("cpp", spec, "SimpleData", Some("hydro")).unwrap();
        assert_eq!(cpp[0].0, "SimpleData.hpp");
        assert!(String::from_utf8_lossy(&cpp[0].1).contains("std::vector<float> data;"));
        assert!(String::from_utf8_lossy(&cpp[0].1).contains("namespace hydro {"));
        let class = codegen("class", spec, "SimpleData", None).unwrap();
        assert_eq!(&class[0].1[0..4], &[0xCA, 0xFE, 0xBA, 0xBE]);
        assert!(codegen("cobol", spec, "SimpleData", None).is_err());
    }

    #[test]
    fn match_ranks_candidates() {
        let dir = fixture_dir("match");
        let msg = dir.join("live.xml");
        std::fs::write(
            &msg,
            "<SimpleData><timestep>4</timestep><size>1</size><data>0.5</data></SimpleData>",
        )
        .unwrap();
        let out =
            match_msg(msg.to_str().unwrap(), dir.join("simple.xsd").to_str().unwrap()).unwrap();
        assert!(out.contains("SimpleData"));
        assert!(out.contains("score 1.00"), "{out}");
    }

    #[test]
    fn inspect_dumps_pbio_files() {
        use openmeta_pbio::file::FileWriter;
        let dir = fixture_dir("inspect");
        let toolkit = Xmit::new(MachineModel::native());
        toolkit.load_url(&to_url(dir.join("simple.xsd").to_str().unwrap())).unwrap();
        let token = toolkit.bind("SimpleData").unwrap();
        let mut w = FileWriter::new(Vec::new()).unwrap();
        let mut rec = token.new_record();
        rec.set_i64("timestep", 8).unwrap();
        rec.set_f64_array("data", &[1.0; 20]).unwrap();
        w.write_record(&rec).unwrap();
        let bytes = w.finish().unwrap();
        let file = dir.join("frames.pbio");
        std::fs::write(&file, bytes).unwrap();
        let out = inspect(file.to_str().unwrap()).unwrap();
        assert!(out.contains("record 1: SimpleData"));
        assert!(out.contains("timestep = Int(8)"));
        assert!(out.contains("[20 floats]"));
        assert!(out.contains("1 record(s), 1 format(s)"));
    }

    #[test]
    fn planlint_passes_fixture_corpus() {
        let dir = fixture_dir("planlint");
        let local = dir.join("simple.xsd");
        let schemas =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../fixtures/schemas");
        let corpus = [
            local.to_str().unwrap().to_string(),
            schemas.join("simple_data.xsd").display().to_string(),
            schemas.join("region.xsd").display().to_string(),
            schemas.join("hydrology.xsd").display().to_string(),
        ];
        let refs: Vec<&str> = corpus.iter().map(String::as_str).collect();
        let (out, passed) = planlint(&refs, false).unwrap();
        assert!(passed, "{out}");
        assert!(out.contains("0 error(s)"), "{out}");
        assert!(out.contains("PASS"), "{out}");
        // The hydrology schema defines 5 types × 4 machine models.
        assert!(out.contains("20 format(s)"), "{out}");
    }

    #[test]
    fn planlint_json_is_machine_readable() {
        let dir = fixture_dir("planlintjson");
        let spec = dir.join("simple.xsd");
        let (out, passed) = planlint(&[spec.to_str().unwrap()], true).unwrap();
        assert!(passed);
        assert!(out.contains("\"passed\": true"), "{out}");
        assert!(out.contains("\"diagnostics\": ["), "{out}");
    }

    #[test]
    fn planlint_fails_on_bad_schema_and_missing_file() {
        let dir = fixture_dir("planlintbad");
        let bad = dir.join("broken.xsd");
        std::fs::write(&bad, "<xsd:schema").unwrap();
        let (out, passed) = planlint(&[bad.to_str().unwrap()], false).unwrap();
        assert!(!passed, "{out}");
        assert!(out.contains("FAIL"), "{out}");
        assert!(planlint(&[dir.join("nope.xsd").to_str().unwrap()], false).is_err());
        assert!(planlint(&[], false).is_err());
    }

    #[test]
    fn protolint_passes_on_this_workspace() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let (out, passed) = protolint(root.to_str().unwrap(), false, false).unwrap();
        assert!(passed, "{out}");
        assert!(out.contains("sans-io:"), "{out}");
        assert!(out.contains("lock-order:"), "{out}");
        assert!(out.contains("taint:"), "{out}");
        assert!(out.contains("0 error(s)"), "{out}");

        let (json, passed) = protolint(root.to_str().unwrap(), true, false).unwrap();
        assert!(passed);
        assert!(json.contains("\"passed\": true"), "{json}");
        assert!(json.contains("\"schedules_run\""), "{json}");
        assert!(json.contains("\"lock_sites\""), "{json}");
    }

    #[test]
    fn protolint_mutant_corpus_is_fully_caught() {
        let (out, passed) = protolint(".", false, true).unwrap();
        assert!(passed, "{out}");
        assert!(out.contains("CAUGHT"), "{out}");
        assert!(!out.contains("MISSED"), "{out}");

        let (json, passed) = protolint(".", true, true).unwrap();
        assert!(passed);
        assert!(json.contains("\"caught\": true"), "{json}");
        assert!(!json.contains("\"caught\": false"), "{json}");
    }

    #[test]
    fn protolint_rejects_a_rootless_tree() {
        let empty = std::env::temp_dir().join(format!("openmeta-noroot-{}", std::process::id()));
        std::fs::create_dir_all(&empty).unwrap();
        assert!(protolint(empty.to_str().unwrap(), false, false).is_err());
    }

    #[test]
    fn serve_hosts_directory() {
        let dir = fixture_dir("serve");
        let (server, hosted) = serve(dir.to_str().unwrap(), 0).unwrap();
        assert_eq!(hosted.len(), 1);
        let toolkit = Xmit::new(MachineModel::native());
        let names = toolkit.load_url(&hosted[0]).unwrap();
        assert_eq!(names, vec!["SimpleData"]);
        drop(server);
        let empty = std::env::temp_dir().join(format!("openmeta-empty-{}", std::process::id()));
        std::fs::create_dir_all(&empty).unwrap();
        assert!(serve(empty.to_str().unwrap(), 0).is_err());
    }
}

#[cfg(test)]
mod diff_tests {
    use super::*;

    const XSD: &str = "http://www.w3.org/2001/XMLSchema";

    #[test]
    fn diff_renders_verdict_and_changes() {
        let dir = std::env::temp_dir().join(format!("openmeta-diff-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let old = dir.join("v1.xsd");
        let new = dir.join("v2.xsd");
        std::fs::write(
            &old,
            format!(
                r#"<xsd:complexType name="T" xmlns:xsd="{XSD}">
                     <xsd:element name="x" type="xsd:int" />
                     <xsd:element name="gone" type="xsd:string" />
                   </xsd:complexType>"#
            ),
        )
        .unwrap();
        std::fs::write(
            &new,
            format!(
                r#"<xsd:complexType name="T" xmlns:xsd="{XSD}">
                     <xsd:element name="x" type="xsd:int" />
                     <xsd:element name="fresh" type="xsd:double" />
                   </xsd:complexType>"#
            ),
        )
        .unwrap();
        let out = diff(old.to_str().unwrap(), new.to_str().unwrap(), "T", None).unwrap();
        assert!(out.contains("COMPATIBLE"), "{out}");
        assert!(out.contains("+ fresh"));
        assert!(out.contains("- gone"));
        assert!(diff(old.to_str().unwrap(), new.to_str().unwrap(), "U", None).is_err());
    }

    #[test]
    fn formats_diff_reports_negotiation_verdicts() {
        let dir = std::env::temp_dir().join(format!("openmeta-fdiff-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let old = dir.join("v1.xsd");
        let new = dir.join("v2.xsd");
        std::fs::write(
            &old,
            format!(
                r#"<xsd:schema xmlns:xsd="{XSD}">
                     <xsd:complexType name="T">
                       <xsd:element name="x" type="xsd:int" />
                     </xsd:complexType>
                     <xsd:complexType name="Gone">
                       <xsd:element name="y" type="xsd:int" />
                     </xsd:complexType>
                   </xsd:schema>"#
            ),
        )
        .unwrap();
        std::fs::write(
            &new,
            format!(
                r#"<xsd:schema xmlns:xsd="{XSD}">
                     <xsd:complexType name="T">
                       <xsd:element name="x" type="xsd:int" />
                       <xsd:element name="fresh" type="xsd:double" />
                     </xsd:complexType>
                   </xsd:schema>"#
            ),
        )
        .unwrap();
        let (out, passed) =
            formats_diff(old.to_str().unwrap(), new.to_str().unwrap(), false).unwrap();
        assert!(passed, "{out}");
        assert!(out.contains("T: PROJECTABLE"), "{out}");
        assert!(out.contains("+ fresh"), "{out}");
        assert!(out.contains("Gone: only in"), "{out}");
        assert!(out.contains("PASS"), "{out}");

        let (json, passed) =
            formats_diff(old.to_str().unwrap(), new.to_str().unwrap(), true).unwrap();
        assert!(passed);
        assert!(json.contains("\"verdict\": \"projectable\""), "{json}");
        assert!(json.contains("\"only_old\": [\"Gone\"]"), "{json}");
        assert!(json.contains("\"passed\": true"), "{json}");
    }

    #[test]
    fn formats_diff_fails_on_incompatible_retype() {
        let dir = std::env::temp_dir().join(format!("openmeta-fdiff-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let old = dir.join("v1.xsd");
        let new = dir.join("v2.xsd");
        std::fs::write(
            &old,
            format!(
                r#"<xsd:complexType name="T" xmlns:xsd="{XSD}">
                     <xsd:element name="x" type="xsd:int" />
                   </xsd:complexType>"#
            ),
        )
        .unwrap();
        std::fs::write(
            &new,
            format!(
                r#"<xsd:complexType name="T" xmlns:xsd="{XSD}">
                     <xsd:element name="x" type="xsd:string" />
                   </xsd:complexType>"#
            ),
        )
        .unwrap();
        let (out, passed) =
            formats_diff(old.to_str().unwrap(), new.to_str().unwrap(), false).unwrap();
        assert!(!passed, "{out}");
        assert!(out.contains("T: INCOMPATIBLE"), "{out}");
        assert!(out.contains("FAIL"), "{out}");
        // No shared names at all is an operator error, not a pass.
        let lone = dir.join("lone.xsd");
        std::fs::write(
            &lone,
            format!(
                r#"<xsd:complexType name="Other" xmlns:xsd="{XSD}">
                     <xsd:element name="x" type="xsd:int" />
                   </xsd:complexType>"#
            ),
        )
        .unwrap();
        assert!(formats_diff(old.to_str().unwrap(), lone.to_str().unwrap(), false).is_err());
    }

    #[test]
    fn stats_renders_local_registry_in_every_format() {
        let c = openmeta_obs::MetricsRegistry::global().counter("openmeta_tools_stats_test_total");
        c.add(2);
        let text = stats(output::Format::Text, None).unwrap();
        assert!(text.contains("openmeta_tools_stats_test_total = 2"), "{text}");
        let prom = stats(output::Format::Prometheus, None).unwrap();
        assert!(prom.contains("openmeta_tools_stats_test_total 2"), "{prom}");
        let json = stats(output::Format::Json, None).unwrap();
        assert!(json.contains("\"openmeta_tools_stats_test_total\""), "{json}");
    }

    #[test]
    fn stats_scrapes_a_running_server() {
        let server = openmeta_ohttp::HttpServer::start().unwrap();
        let base = format!("http://{}", server.addr());
        let prom = stats(output::Format::Prometheus, Some(&base)).unwrap();
        // The serving process is this one, so its transport counters are
        // registered and exposed.
        assert!(prom.contains("# TYPE openmeta_transport_accepted_total counter"), "{prom}");
        let json = stats(output::Format::Json, Some(&base)).unwrap();
        assert!(json.contains("\"counters\""), "{json}");
    }
}
