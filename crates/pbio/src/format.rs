//! Format specifications, resolved descriptors, and format identifiers.
//!
//! A [`FormatSpec`] is what a program (or XMIT's metadata generator) hands
//! to [`crate::registry::FormatRegistry::register`]; a [`FormatDescriptor`]
//! is the resolved, immutable result with concrete layout, and a
//! [`FormatId`] is the compact content-addressed token that travels in
//! message headers — "format identifiers are generated which allow
//! component programs to retrieve the metadata on demand" (Figure 2
//! caption).

use std::fmt;
use std::sync::{Arc, OnceLock};

use crate::error::PbioError;
use crate::field::{parse_type_string, IOField, ParsedType};
use crate::layout::{layout_record, FieldLayout};
use crate::machine::MachineModel;
use crate::plan::EncodePlan;
use crate::types::{BaseType, FieldKind};

/// An unresolved format: a name plus field declarations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FormatSpec {
    /// Format (message type) name.
    pub name: String,
    /// Fields in declaration order.
    pub fields: Vec<IOField>,
}

impl FormatSpec {
    /// Create a spec from a name and fields.
    pub fn new(name: impl Into<String>, fields: Vec<IOField>) -> Self {
        FormatSpec { name: name.into(), fields }
    }
}

/// Compact, content-addressed identifier of a registered format.
///
/// Two formats with identical names, fields, layout, and machine model get
/// the same id on any host, which is what lets a receiver resolve metadata
/// lazily from a registry or format server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FormatId(pub u64);

impl fmt::Display for FormatId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#018x}", self.0)
    }
}

/// A resolved, immutable format descriptor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FormatDescriptor {
    /// Format name.
    pub name: String,
    /// Machine model the layout was computed for.
    pub machine: MachineModel,
    /// Fields with concrete offsets.
    pub fields: Vec<FieldLayout>,
    /// `sizeof(struct)` under `machine`.
    pub record_size: usize,
    /// Record alignment under `machine`.
    pub align: usize,
    /// Content-addressed id, computed once at construction.  Decode hot
    /// paths compare ids per message; recomputing the FNV hash over the
    /// serialized descriptor each time would dominate small-record decodes.
    pub(crate) id: FormatId,
    /// See [`FormatDescriptor::encode_plan`].
    pub(crate) plan: PlanCell,
}

/// The encode-plan verdict, a function of content: clones start empty; `==` ignores it.
#[derive(Debug, Default)]
pub(crate) struct PlanCell(OnceLock<Result<EncodePlan, PbioError>>);

impl Clone for PlanCell {
    fn clone(&self) -> Self {
        PlanCell::default()
    }
}

impl PartialEq for PlanCell {
    fn eq(&self, _: &PlanCell) -> bool {
        true
    }
}

impl Eq for PlanCell {}

/// A var-length slot discovered by [`FormatDescriptor::varlen_slots`]:
/// absolute offset of the pointer slot, the field, and the absolute offset
/// of the record that contains it (for resolving `length_field` siblings).
#[derive(Debug, Clone)]
pub struct VarlenSlot<'f> {
    /// Absolute byte offset of the pointer slot within the outermost record.
    pub slot_offset: usize,
    /// The var-length field itself.
    pub field: &'f FieldLayout,
    /// Absolute offset of the (sub)record containing the field.
    pub record_base: usize,
    /// The descriptor of the (sub)record containing the field.
    pub record: &'f FormatDescriptor,
}

impl FormatDescriptor {
    /// Resolve a [`FormatSpec`] into a descriptor for `machine`.
    ///
    /// `resolver` supplies previously registered formats for nested type
    /// names (XMIT composition of `complexType`s).
    pub fn resolve(
        spec: &FormatSpec,
        machine: MachineModel,
        resolver: &dyn Fn(&str) -> Option<Arc<FormatDescriptor>>,
    ) -> Result<FormatDescriptor, PbioError> {
        let mut seen = std::collections::HashSet::new();
        let mut partials = Vec::with_capacity(spec.fields.len());
        for f in &spec.fields {
            if !seen.insert(f.name.as_str()) {
                return Err(PbioError::BadField {
                    field: f.name.clone(),
                    reason: "duplicate field name".to_string(),
                });
            }
            let kind = match parse_type_string(&f.type_desc)? {
                ParsedType::Scalar(b) => FieldKind::Scalar(b),
                ParsedType::Str => FieldKind::String,
                ParsedType::StaticArray(b, n) => {
                    FieldKind::StaticArray { elem: b, elem_size: f.size, count: n }
                }
                ParsedType::DynamicArray(b, len_field) => {
                    FieldKind::DynamicArray { elem: b, elem_size: f.size, length_field: len_field }
                }
                ParsedType::Named(name) => {
                    if name == spec.name {
                        return Err(PbioError::BadField {
                            field: f.name.clone(),
                            reason: "a format cannot nest itself".to_string(),
                        });
                    }
                    let nested =
                        resolver(&name).ok_or_else(|| PbioError::UnknownFormat(name.clone()))?;
                    if nested.machine != machine {
                        return Err(PbioError::BadField {
                            field: f.name.clone(),
                            reason: format!(
                                "nested format '{name}' was resolved for a different machine model"
                            ),
                        });
                    }
                    FieldKind::Nested(nested)
                }
            };
            partials.push((f.name.clone(), kind, f.size, f.offset));
        }
        let layout = layout_record(partials, &machine)?;
        let mut descriptor = FormatDescriptor {
            name: spec.name.clone(),
            machine,
            fields: layout.fields,
            record_size: layout.record_size,
            align: layout.align,
            id: FormatId(0),
            plan: PlanCell::default(),
        };
        descriptor.validate_dimensions()?;
        descriptor.id = descriptor.computed_id();
        Ok(descriptor)
    }

    /// Check that every dynamic array's `length_field` names an integer
    /// scalar in the same (sub)record.
    fn validate_dimensions(&self) -> Result<(), PbioError> {
        for f in &self.fields {
            if let FieldKind::DynamicArray { length_field, .. } = &f.kind {
                let target = self.field(length_field).ok_or_else(|| PbioError::BadDimension {
                    field: f.name.clone(),
                    reason: format!("length field '{length_field}' does not exist"),
                })?;
                match target.kind {
                    FieldKind::Scalar(
                        BaseType::Integer | BaseType::Unsigned | BaseType::Enumeration,
                    ) => {}
                    _ => {
                        return Err(PbioError::BadDimension {
                            field: f.name.clone(),
                            reason: format!(
                                "length field '{length_field}' is {}, not an integer",
                                target.kind.describe()
                            ),
                        })
                    }
                }
            }
        }
        Ok(())
    }

    /// Look up a direct field by name.
    pub fn field(&self, name: &str) -> Option<&FieldLayout> {
        self.fields.iter().find(|f| f.name == name)
    }

    /// Resolve a dotted path (`"hdr.timestep"`) to the field and its
    /// absolute offset within the outermost record.
    pub fn field_path(&self, path: &str) -> Option<(usize, &FieldLayout, &FormatDescriptor)> {
        let mut record: &FormatDescriptor = self;
        let mut base = 0usize;
        let mut parts = path.split('.').peekable();
        loop {
            let part = parts.next()?;
            let field = record.field(part)?;
            if parts.peek().is_none() {
                return Some((base + field.offset, field, record));
            }
            match &field.kind {
                FieldKind::Nested(sub) => {
                    base += field.offset;
                    record = sub;
                }
                _ => return None,
            }
        }
    }

    /// All var-length slots in this record, recursing into nested records,
    /// ordered by absolute slot offset.
    pub fn varlen_slots(&self) -> Vec<VarlenSlot<'_>> {
        let mut out = Vec::new();
        self.collect_varlen(0, &mut out);
        out.sort_by_key(|s| s.slot_offset);
        out
    }

    fn collect_varlen<'f>(&'f self, base: usize, out: &mut Vec<VarlenSlot<'f>>) {
        for f in &self.fields {
            match &f.kind {
                FieldKind::String | FieldKind::DynamicArray { .. } => out.push(VarlenSlot {
                    slot_offset: base + f.offset,
                    field: f,
                    record_base: base,
                    record: self,
                }),
                FieldKind::Nested(sub) => sub.collect_varlen(base + f.offset, out),
                _ => {}
            }
        }
    }

    /// Total count of fields, counting nested records' fields recursively.
    /// This is the "complexity" the paper says registration cost tracks.
    pub fn total_field_count(&self) -> usize {
        self.fields
            .iter()
            .map(|f| match &f.kind {
                FieldKind::Nested(sub) => sub.total_field_count(),
                _ => 1,
            })
            .sum()
    }

    /// Content-addressed identifier of this descriptor.
    pub fn id(&self) -> FormatId {
        self.id
    }

    /// The one encode/extract plan records of this format run, compiled
    /// and certified by `pbio::verify` on first use and kept, a rejection
    /// included: a lying layout is a [`PbioError::PlanRejected`], never an
    /// out-of-bounds access.  `true` when this call filled the cell.
    pub(crate) fn encode_plan(&self) -> (Result<&EncodePlan, PbioError>, bool) {
        let mut filled = false;
        let verdict = self.plan.0.get_or_init(|| {
            filled = true;
            let plan = EncodePlan::compile(self)?;
            let verdict = crate::verify::verify_encode_program(self, plan.program());
            verdict.certify(|| self.name.clone()).map(|()| plan)
        });
        (verdict.as_ref().map_err(PbioError::clone), filled)
    }

    /// Hash the serialized descriptor into its content-addressed id.
    /// Construction sites call this once and store the result; the `id`
    /// field itself is not part of the serialized form.
    pub(crate) fn computed_id(&self) -> FormatId {
        FormatId(fnv1a_64(&crate::codec::encode_descriptor(self)))
    }
}

/// FNV-1a 64-bit hash; deterministic across hosts, good enough for
/// content-addressing descriptors (collisions are detected at registration).
pub(crate) fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_nested(_: &str) -> Option<Arc<FormatDescriptor>> {
        None
    }

    fn simple_data_spec() -> FormatSpec {
        FormatSpec::new(
            "SimpleData",
            vec![
                IOField::auto("timestep", "integer", 4),
                IOField::auto("size", "integer", 4),
                IOField::auto("data", "float[size]", 4),
            ],
        )
    }

    #[test]
    fn resolve_simple_data() {
        let d = FormatDescriptor::resolve(&simple_data_spec(), MachineModel::SPARC32, &no_nested)
            .unwrap();
        assert_eq!(d.record_size, 12);
        assert_eq!(d.total_field_count(), 3);
        assert_eq!(d.varlen_slots().len(), 1);
        assert_eq!(d.varlen_slots()[0].slot_offset, 8);
    }

    #[test]
    fn duplicate_field_rejected() {
        let spec = FormatSpec::new(
            "Bad",
            vec![IOField::auto("x", "integer", 4), IOField::auto("x", "float", 4)],
        );
        let err = FormatDescriptor::resolve(&spec, MachineModel::SPARC32, &no_nested).unwrap_err();
        assert!(matches!(err, PbioError::BadField { .. }));
    }

    #[test]
    fn missing_length_field_rejected() {
        let spec = FormatSpec::new("Bad", vec![IOField::auto("data", "float[n]", 4)]);
        let err = FormatDescriptor::resolve(&spec, MachineModel::SPARC32, &no_nested).unwrap_err();
        assert!(matches!(err, PbioError::BadDimension { .. }));
    }

    #[test]
    fn non_integer_length_field_rejected() {
        let spec = FormatSpec::new(
            "Bad",
            vec![IOField::auto("n", "float", 4), IOField::auto("data", "float[n]", 4)],
        );
        let err = FormatDescriptor::resolve(&spec, MachineModel::SPARC32, &no_nested).unwrap_err();
        assert!(matches!(err, PbioError::BadDimension { .. }));
    }

    #[test]
    fn unknown_nested_format_rejected() {
        let spec = FormatSpec::new("Outer", vec![IOField::auto("inner", "Mystery", 0)]);
        let err = FormatDescriptor::resolve(&spec, MachineModel::SPARC32, &no_nested).unwrap_err();
        assert_eq!(err, PbioError::UnknownFormat("Mystery".to_string()));
    }

    #[test]
    fn self_nesting_rejected() {
        let spec = FormatSpec::new("Recur", vec![IOField::auto("again", "Recur", 0)]);
        let err = FormatDescriptor::resolve(&spec, MachineModel::SPARC32, &no_nested).unwrap_err();
        assert!(matches!(err, PbioError::BadField { .. }));
    }

    #[test]
    fn nested_format_embedded_inline() {
        let inner = Arc::new(
            FormatDescriptor::resolve(
                &FormatSpec::new(
                    "Header",
                    vec![IOField::auto("tag", "integer", 4), IOField::auto("when", "integer", 8)],
                ),
                MachineModel::SPARC32,
                &no_nested,
            )
            .unwrap(),
        );
        assert_eq!(inner.record_size, 16);
        let inner2 = inner.clone();
        let resolver = move |name: &str| (name == "Header").then(|| inner2.clone());
        let outer = FormatDescriptor::resolve(
            &FormatSpec::new(
                "Msg",
                vec![
                    IOField::auto("hdr", "Header", 0),
                    IOField::auto("value", "float", 8),
                    IOField::auto("note", "string", 0),
                ],
            ),
            MachineModel::SPARC32,
            &resolver,
        )
        .unwrap();
        assert_eq!(outer.fields[0].size, 16);
        assert_eq!(outer.fields[1].offset, 16);
        assert_eq!(outer.record_size, 32); // 16 + 8 + ptr4 → padded to 8
                                           // Dotted paths reach inside.
        let (off, f, _) = outer.field_path("hdr.when").unwrap();
        assert_eq!(off, 8);
        assert_eq!(f.name, "when");
        // Varlen discovery sees the string at its absolute offset.
        let slots = outer.varlen_slots();
        assert_eq!(slots.len(), 1);
        assert_eq!(slots[0].slot_offset, 24);
        assert_eq!(outer.total_field_count(), 4);
    }

    #[test]
    fn ids_are_content_addressed() {
        let d1 = FormatDescriptor::resolve(&simple_data_spec(), MachineModel::SPARC32, &no_nested)
            .unwrap();
        let d2 = FormatDescriptor::resolve(&simple_data_spec(), MachineModel::SPARC32, &no_nested)
            .unwrap();
        assert_eq!(d1.id(), d2.id());
        let d3 = FormatDescriptor::resolve(&simple_data_spec(), MachineModel::X86_64, &no_nested)
            .unwrap();
        assert_ne!(d1.id(), d3.id(), "machine model participates in identity");
        let mut spec = simple_data_spec();
        spec.name = "Other".to_string();
        let d4 = FormatDescriptor::resolve(&spec, MachineModel::SPARC32, &no_nested).unwrap();
        assert_ne!(d1.id(), d4.id(), "name participates in identity");
    }

    #[test]
    fn fnv_vector() {
        // Known FNV-1a test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
