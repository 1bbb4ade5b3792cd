//! Zero-false-positive guarantee: the analyzer must accept every plan the
//! existing schema fixture corpus produces — the Figure 3 proof-of-concept
//! formats, the Figure 6 Hydrology formats, the full Hydrology schema, and
//! the Figure 7 toolkit workload — across the whole machine matrix.

use openmeta_analyzer::{analyze_xmit, analyze_xml, verify, MACHINE_MATRIX};
use openmeta_bench::workloads::{figure3_cases, figure6_cases, figure7_cases};
use openmeta_hydrology::hydrology_schema_xml;
use openmeta_pbio::{ConvertPlan, EncodePlan, FormatRegistry};

#[test]
fn figure3_corpus_is_clean() {
    for case in figure3_cases() {
        let report = analyze_xml(&case.xml);
        assert!(report.diagnostics.is_empty(), "{}: {:#?}", case.name, report.diagnostics);
        assert!(report.encode_plans_checked >= MACHINE_MATRIX.len());
    }
}

#[test]
fn figure6_corpus_is_clean() {
    for case in figure6_cases() {
        let report = analyze_xml(&case.xml);
        assert!(report.diagnostics.is_empty(), "{}: {:#?}", case.name, report.diagnostics);
    }
}

#[test]
fn full_hydrology_schema_is_clean() {
    let report = analyze_xml(&hydrology_schema_xml());
    assert!(report.diagnostics.is_empty(), "{:#?}", report.diagnostics);
    // Every type × every machine model got an encode plan, and every
    // ordered machine pair a convert plan.
    assert!(report.formats_checked >= 4 * MACHINE_MATRIX.len());
    assert!(report.convert_plans_checked >= 4 * MACHINE_MATRIX.len() * (MACHINE_MATRIX.len() - 1));
}

#[test]
fn figure7_toolkit_bind_path_is_clean() {
    let (toolkit, _cases) = figure7_cases();
    let report = analyze_xmit(&toolkit);
    assert!(report.diagnostics.is_empty(), "{:#?}", report.diagnostics);
    assert!(report.formats_checked >= 4);
}

/// The raw verifier, not just the pipeline, accepts every compiled-in
/// corpus plan — including cross-machine convert plans between every
/// matrix pair.
#[test]
fn raw_plans_from_compiled_specs_are_clean() {
    for case in figure3_cases().into_iter().chain(figure6_cases()) {
        let mut descs = Vec::new();
        for machine in MACHINE_MATRIX {
            let registry = FormatRegistry::new(machine);
            let mut last = None;
            for spec in &case.compiled {
                last = Some(registry.register(spec.clone()).expect("corpus registers"));
            }
            descs.push(last.expect("at least one spec"));
        }
        for d in &descs {
            let plan = EncodePlan::compile(d).expect("corpus compiles");
            let verdict = verify::verify_encode_program(d, plan.program());
            assert!(verdict.is_clean(), "{}: {:#?}", case.name, verdict.violations());
        }
        for from in &descs {
            for to in &descs {
                let plan = ConvertPlan::compile(from, to).expect("corpus converts");
                let verdict = verify::verify_convert_program(from, to, plan.program());
                assert!(verdict.is_clean(), "{}: {:#?}", case.name, verdict.violations());
            }
        }
    }
}

/// The registry plan-cache gate accepts the corpus too (debug builds run
/// the verifier on every cache miss).
#[test]
fn registry_gate_accepts_corpus() {
    for case in figure3_cases().into_iter().chain(figure6_cases()) {
        for machine in MACHINE_MATRIX {
            let registry = FormatRegistry::new(machine);
            let mut last = None;
            for spec in &case.compiled {
                last = Some(registry.register(spec.clone()).expect("corpus registers"));
            }
            let desc = last.expect("at least one spec");
            registry.encode_plan(&desc).expect("gate accepts encode plan");
            registry.convert_plan(&desc, &desc).expect("gate accepts convert plan");
        }
    }
}
