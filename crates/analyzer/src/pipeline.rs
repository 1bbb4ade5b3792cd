//! The end-to-end analysis pipeline: schema → descriptor → plan → verdict.
//!
//! [`analyze_xml`] takes schema text and proves every format it defines
//! safe across the full machine matrix: each format's layout and encode
//! plan are verified per machine model, and a convert plan is compiled
//! and verified for every ordered machine pair — exactly the plans a
//! heterogeneous deployment of that schema would execute.  [`analyze_xmit`]
//! does the same through the XMIT toolkit's bind path (the descriptors a
//! real application would use), and [`analyze_registry`] covers formats
//! already registered from compiled-in metadata.

use std::sync::Arc;

use openmeta_pbio::verify::{self, Severity, Violation};
use openmeta_pbio::{ConvertPlan, EncodePlan, FormatDescriptor, FormatRegistry, MachineModel};
use xmit::{map_document, Xmit};

use crate::diag::{Diagnostic, Report, Stage};

/// The machine models a schema is analyzed against: both byte orders,
/// both pointer widths, both long sizes.
pub const MACHINE_MATRIX: [MachineModel; 4] =
    [MachineModel::SPARC32, MachineModel::X86, MachineModel::X86_64, MachineModel::SPARC64];

/// Display name of a matrix machine model.
pub fn machine_name(m: &MachineModel) -> &'static str {
    if *m == MachineModel::SPARC32 {
        "SPARC32"
    } else if *m == MachineModel::X86 {
        "X86"
    } else if *m == MachineModel::X86_64 {
        "X86_64"
    } else if *m == MachineModel::SPARC64 {
        "SPARC64"
    } else {
        "custom"
    }
}

fn schema_diag(report: &mut Report, subject: &str, machines: &str, detail: String) {
    report.diagnostics.push(Diagnostic {
        stage: Stage::Schema,
        subject: subject.to_string(),
        machines: machines.to_string(),
        violation: Violation { check: "schema", severity: Severity::Error, detail },
    });
}

/// Verify one descriptor's layout and encode plan into `report`.
fn analyze_descriptor(report: &mut Report, desc: &FormatDescriptor, machines: &str) {
    report.formats_checked += 1;
    report.absorb(Stage::Layout, desc.name.clone(), machines, verify::verify_layout(desc));
    match EncodePlan::compile(desc) {
        Ok(plan) => {
            report.encode_plans_checked += 1;
            // verify_encode_program re-runs the layout pass internally; keep
            // only the plan-specific findings to avoid duplicates.
            let layout = verify::verify_layout(desc);
            let verdict = verify::verify_encode_program(desc, plan.program());
            let fresh: Vec<_> = verdict
                .into_violations()
                .into_iter()
                .filter(|v| !layout.violations().contains(v))
                .collect();
            for violation in fresh {
                report.diagnostics.push(Diagnostic {
                    stage: Stage::EncodePlan,
                    subject: desc.name.clone(),
                    machines: machines.to_string(),
                    violation,
                });
            }
        }
        Err(e) => {
            schema_diag(report, &desc.name, machines, format!("encode plan failed to compile: {e}"))
        }
    }
}

/// Verify the convert plan for one (sender, receiver) descriptor pair.
fn analyze_pair(
    report: &mut Report,
    from: &FormatDescriptor,
    to: &FormatDescriptor,
    machines: &str,
) {
    let subject = format!("{}\u{2192}{}", from.name, to.name);
    match ConvertPlan::compile(from, to) {
        Ok(plan) => {
            report.convert_plans_checked += 1;
            let mut layout = verify::verify_layout(from);
            layout.merge(verify::verify_layout(to));
            let verdict = verify::verify_convert_program(from, to, plan.program());
            let fresh: Vec<_> = verdict
                .into_violations()
                .into_iter()
                .filter(|v| !layout.violations().contains(v))
                .collect();
            for violation in fresh {
                report.diagnostics.push(Diagnostic {
                    stage: Stage::ConvertPlan,
                    subject: subject.clone(),
                    machines: machines.to_string(),
                    violation,
                });
            }
        }
        Err(e) => {
            schema_diag(report, &subject, machines, format!("convert plan failed to compile: {e}"))
        }
    }
}

/// Analyze schema text end to end across [`MACHINE_MATRIX`].
///
/// Every `complexType` is mapped and registered per machine model, its
/// layout and encode plan verified, and a convert plan verified for every
/// ordered machine pair (the plans a heterogeneous deployment would run).
pub fn analyze_xml(xml: &str) -> Report {
    let mut report = Report::default();
    let doc = match openmeta_schema::parse_str(xml) {
        Ok(doc) => doc,
        Err(e) => {
            schema_diag(&mut report, "<document>", "-", format!("schema failed to parse: {e}"));
            return report;
        }
    };

    // Per-machine registration: name → descriptor, document order kept.
    let mut per_machine: Vec<(MachineModel, Vec<Arc<FormatDescriptor>>)> = Vec::new();
    for machine in MACHINE_MATRIX {
        let mname = machine_name(&machine);
        let specs = match map_document(&doc, &machine) {
            Ok(specs) => specs,
            Err(e) => {
                schema_diag(&mut report, "<document>", mname, format!("schema failed to map: {e}"));
                continue;
            }
        };
        let registry = FormatRegistry::new(machine);
        let mut descs = Vec::new();
        for spec in specs {
            let name = spec.name.clone();
            match registry.register(spec) {
                Ok(desc) => descs.push(desc),
                Err(e) => {
                    schema_diag(&mut report, &name, mname, format!("failed to register: {e}"))
                }
            }
        }
        for desc in &descs {
            analyze_descriptor(&mut report, desc, mname);
        }
        per_machine.push((machine, descs));
    }

    // Cross-machine conversion: every ordered pair, every format.
    for (from_machine, from_descs) in &per_machine {
        for (to_machine, to_descs) in &per_machine {
            if from_machine == to_machine {
                continue;
            }
            let machines =
                format!("{}\u{2192}{}", machine_name(from_machine), machine_name(to_machine));
            for from in from_descs {
                if let Some(to) = to_descs.iter().find(|d| d.name == from.name) {
                    analyze_pair(&mut report, from, to, &machines);
                }
            }
        }
    }
    report
}

/// Analyze every format a toolkit instance has loaded, through the same
/// bind path an application uses (`Xmit::bind` → registry descriptor).
pub fn analyze_xmit(toolkit: &Xmit) -> Report {
    let mut report = Report::default();
    let machine = toolkit.registry().machine();
    let mname = machine_name(&machine);
    for name in toolkit.loaded_types() {
        match toolkit.bind(&name) {
            Ok(_) => {
                if let Some(desc) = toolkit.registry().lookup_name(&name) {
                    analyze_descriptor(&mut report, &desc, mname);
                }
            }
            Err(e) => schema_diag(&mut report, &name, mname, format!("bind failed: {e}")),
        }
    }
    report
}

/// Analyze every format registered in `registry` (compiled-in metadata,
/// descriptors fetched from format servers, …).
pub fn analyze_registry(registry: &FormatRegistry) -> Report {
    let mut report = Report::default();
    let mname = machine_name(&registry.machine());
    for name in registry.names() {
        if let Some(desc) = registry.lookup_name(&name) {
            analyze_descriptor(&mut report, &desc, mname);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCHEMA: &str = r#"<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
      <xsd:complexType name="SimpleData">
        <xsd:element name="timestep" type="xsd:integer" />
        <xsd:element name="data" type="xsd:float" maxOccurs="*"
            dimensionPlacement="before" dimensionName="size" />
      </xsd:complexType>
    </xsd:schema>"#;

    #[test]
    fn simple_schema_passes_across_matrix() {
        let report = analyze_xml(SCHEMA);
        assert!(report.passed(), "{:#?}", report.diagnostics);
        assert_eq!(report.formats_checked, MACHINE_MATRIX.len());
        assert_eq!(report.encode_plans_checked, MACHINE_MATRIX.len());
        // Ordered pairs of distinct machines.
        let pairs = MACHINE_MATRIX.len() * (MACHINE_MATRIX.len() - 1);
        assert_eq!(report.convert_plans_checked, pairs);
    }

    #[test]
    fn parse_failure_is_reported_not_panicked() {
        let report = analyze_xml("<not-xml");
        assert!(!report.passed());
        assert_eq!(report.diagnostics[0].stage, Stage::Schema);
    }

    #[test]
    fn xmit_bind_path_analyzes_clean() {
        let toolkit = Xmit::new(MachineModel::native());
        toolkit.load_str(SCHEMA).unwrap();
        let report = analyze_xmit(&toolkit);
        assert!(report.passed(), "{:#?}", report.diagnostics);
        assert_eq!(report.formats_checked, 1);
    }

    #[test]
    fn registry_path_analyzes_clean() {
        use openmeta_pbio::{FormatSpec, IOField};
        let registry = FormatRegistry::new(MachineModel::X86_64);
        registry
            .register(FormatSpec::new(
                "Point",
                vec![IOField::auto("x", "float", 8), IOField::auto("y", "float", 8)],
            ))
            .unwrap();
        let report = analyze_registry(&registry);
        assert!(report.passed(), "{:#?}", report.diagnostics);
    }
}
