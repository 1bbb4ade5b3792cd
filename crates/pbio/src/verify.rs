//! Static verification of layouts and compiled marshal plans.
//!
//! Compiled [`EncodePlan`](crate::plan::EncodePlan) /
//! [`ConvertPlan`](crate::plan::ConvertPlan) programs drive raw byte moves
//! with no per-record checks — the whole point of compiling them — so a
//! wrong program corrupts silently.  This module *proves* a program safe
//! before it runs, without executing it:
//!
//! * **Layout self-consistency** ([`verify_layout`]): every field slot's
//!   size/alignment agrees with an independent recomputation from the
//!   field's kind and the machine model, no two slots overlap, the record
//!   size is `align_up(max_end, max_align)`, and every dynamic array's
//!   length field exists and is an integer scalar.
//! * **Encode programs** ([`verify_encode_program`]): the header template
//!   is well-formed (magic/version/order flag/format id, data-size word
//!   zero), the slot table matches an independent derivation from the
//!   descriptor, slots are in-bounds and monotone (monotone slots make the
//!   payload placements the executor computes monotone within the data
//!   region).
//! * **Convert programs** ([`verify_convert_program`]): the fixed-image
//!   ops are expanded into per-element *units* (a `Copy` becomes per-byte
//!   units, so arbitrary coalescing is invisible) and compared against an
//!   independently derived unit list from the (sender, receiver)
//!   descriptor pair under PBIO's matching rules.  Unit-list equality
//!   simultaneously proves every matched destination byte is written
//!   exactly once, nothing writes outside matched field regions, and every
//!   width/order decision matches the classification spec.  On top of
//!   that: op bounds against both record sizes, swap widths in {2,4,8}
//!   with alignment advisories, a destination coverage bitmap (overlap is
//!   a hard error), and independently derived var-op and length-fix
//!   tables.
//!
//! The derivations here deliberately *reimplement* the specification
//! (layout rules, field matching, scalar classification) rather than
//! calling the compiler's own helpers — shared code would verify nothing.
//!
//! Severity is two-level: [`Severity::Error`] means executing the program
//! can read or write out of bounds, corrupt data, or violate the format
//! contract; [`Severity::Warning`] flags conditions that are suspicious
//! but arise legitimately (e.g. unaligned explicit offsets from
//! compiled-in metadata, which the layout engine honours verbatim).  The
//! registry gate ([`crate::registry::FormatRegistry`]) rejects on errors
//! only.

use std::fmt;

use crate::error::PbioError;
use crate::format::FormatDescriptor;
use crate::layout::align_up;
use crate::machine::ByteOrder;
use crate::marshal::{MAGIC, VERSION};
use crate::plan::{
    ConvertProgram, ElemKind, EncodeProgram, LenFixProgram, PlanOp, SlotPayloadProgram,
    SlotProgram, VarConvProgram, ViewProgram,
};
use crate::types::{BaseType, FieldKind};

// ---------------------------------------------------------------------------
// Verdicts.
// ---------------------------------------------------------------------------

/// How much a violation matters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but can arise from legitimate inputs (e.g. unaligned
    /// explicit offsets in compiled-in metadata).
    Warning,
    /// Executing the program may read/write out of bounds or corrupt data.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One failed check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Stable check name (e.g. `"op-bounds"`, `"swap-width"`).
    pub check: &'static str,
    /// How bad it is.
    pub severity: Severity,
    /// Human-readable description naming offsets/fields.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.check, self.detail)
    }
}

/// The outcome of one verification pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Verdict {
    violations: Vec<Violation>,
}

impl Verdict {
    fn error(&mut self, check: &'static str, detail: String) {
        self.violations.push(Violation { check, severity: Severity::Error, detail });
    }

    fn warn(&mut self, check: &'static str, detail: String) {
        self.violations.push(Violation { check, severity: Severity::Warning, detail });
    }

    /// No violations at all, warnings included.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// At least one [`Severity::Error`] violation.
    pub fn has_errors(&self) -> bool {
        self.violations.iter().any(|v| v.severity == Severity::Error)
    }

    /// All violations, in discovery order.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// The first error-severity violation, if any.
    pub fn first_error(&self) -> Option<&Violation> {
        self.violations.iter().find(|v| v.severity == Severity::Error)
    }

    /// Consume into the violation list.
    pub fn into_violations(self) -> Vec<Violation> {
        self.violations
    }

    /// The plan gate's answer: `Ok` unless a violation is an error, then
    /// the [`PbioError::PlanRejected`] naming `format` and that error.
    pub(crate) fn certify(&self, format: impl FnOnce() -> String) -> Result<(), PbioError> {
        let Some(v) = self.first_error() else { return Ok(()) };
        Err(PbioError::PlanRejected { format: format(), violation: v.to_string() })
    }

    /// Fold another verdict's violations into this one.
    pub fn merge(&mut self, other: Verdict) {
        self.violations.extend(other.violations);
    }
}

// ---------------------------------------------------------------------------
// Layout verification.
// ---------------------------------------------------------------------------

/// Prove a descriptor's layout self-consistent: slot sizes/alignments
/// agree with an independent recomputation, no overlap, record size and
/// alignment match the layout rules, dynamic-array length fields resolve
/// to integer scalars.
pub fn verify_layout(desc: &FormatDescriptor) -> Verdict {
    let mut v = Verdict::default();
    verify_layout_into(desc, "", &mut v);
    v
}

fn verify_layout_into(desc: &FormatDescriptor, prefix: &str, v: &mut Verdict) {
    let machine = &desc.machine;
    let path = |name: &str| {
        if prefix.is_empty() {
            name.to_string()
        } else {
            format!("{prefix}.{name}")
        }
    };

    let mut max_align = 1usize;
    let mut max_end = 0usize;
    for f in &desc.fields {
        // Independently recompute what the slot must look like.
        let expect = match &f.kind {
            FieldKind::Scalar(b) => {
                if !b.valid_size(f.size) {
                    v.error(
                        "field-width",
                        format!(
                            "field '{}': {} bytes is not a valid {b} width",
                            path(&f.name),
                            f.size
                        ),
                    );
                    None
                } else {
                    Some((f.size, machine.scalar_align(f.size)))
                }
            }
            FieldKind::String | FieldKind::DynamicArray { .. } => {
                if let FieldKind::DynamicArray { elem, elem_size, .. } = &f.kind {
                    if !elem.valid_size(*elem_size) {
                        v.error(
                            "field-width",
                            format!(
                                "field '{}': {elem_size} bytes is not a valid {elem} element width",
                                path(&f.name)
                            ),
                        );
                    }
                }
                Some((machine.pointer_size, machine.scalar_align(machine.pointer_size)))
            }
            FieldKind::StaticArray { elem, elem_size, count } => {
                if !elem.valid_size(*elem_size) {
                    v.error(
                        "field-width",
                        format!(
                            "field '{}': {elem_size} bytes is not a valid {elem} element width",
                            path(&f.name)
                        ),
                    );
                    None
                } else {
                    Some((elem_size * count, machine.scalar_align(*elem_size)))
                }
            }
            FieldKind::Nested(sub) => {
                if sub.machine != *machine {
                    v.error(
                        "nested-machine",
                        format!(
                            "field '{}': nested format '{}' resolved for a different machine model",
                            path(&f.name),
                            sub.name
                        ),
                    );
                }
                verify_layout_into(sub, &path(&f.name), v);
                Some((sub.record_size, sub.align))
            }
        };
        if let Some((size, align)) = expect {
            if f.size != size {
                v.error(
                    "slot-size",
                    format!(
                        "field '{}': slot is {} bytes, kind requires {size}",
                        path(&f.name),
                        f.size
                    ),
                );
            }
            if f.align != align {
                v.error(
                    "slot-align",
                    format!(
                        "field '{}': declared alignment {} disagrees with required {align}",
                        path(&f.name),
                        f.align
                    ),
                );
            }
        }
        max_align = max_align.max(f.align);
        max_end = max_end.max(f.offset + f.size);
    }

    // Overlap: possible only with explicit offsets, but checked always.
    let mut by_offset: Vec<&crate::layout::FieldLayout> = desc.fields.iter().collect();
    by_offset.sort_by_key(|f| f.offset);
    for pair in by_offset.windows(2) {
        if pair[0].offset + pair[0].size > pair[1].offset {
            v.error(
                "overlap",
                format!(
                    "field '{}' at [{}, {}) overlaps '{}' at [{}, {})",
                    path(&pair[1].name),
                    pair[1].offset,
                    pair[1].offset + pair[1].size,
                    pair[0].name,
                    pair[0].offset,
                    pair[0].offset + pair[0].size
                ),
            );
        }
    }

    // Classify the layout: recompute the offsets the auto layout engine
    // would have chosen.  If they all agree this is an auto layout and any
    // misalignment would be a layout-engine bug (none can occur); if they
    // differ the offsets are explicit (compiled-in metadata, honoured
    // verbatim) and misalignment is only advisory.
    let auto = {
        let mut cursor = 0usize;
        desc.fields.iter().all(|f| {
            let off = align_up(cursor, f.align.max(1));
            cursor = off + f.size;
            off == f.offset
        })
    };
    if !auto {
        for f in &desc.fields {
            if f.align > 0 && f.offset % f.align != 0 {
                v.warn(
                    "field-misaligned",
                    format!(
                        "field '{}': explicit offset {} is not {}-byte aligned",
                        path(&f.name),
                        f.offset,
                        f.align
                    ),
                );
            }
        }
    }

    let want_size = align_up(max_end, max_align);
    if desc.record_size != want_size {
        v.error(
            "record-size",
            format!(
                "record '{}' is {} bytes, align_up({max_end}, {max_align}) requires {want_size}",
                desc.name, desc.record_size
            ),
        );
    }
    if desc.align != max_align {
        v.error(
            "record-align",
            format!(
                "record '{}' declares alignment {}, fields require {max_align}",
                desc.name, desc.align
            ),
        );
    }

    // Dynamic-array length fields: exist in the same (sub)record, integer.
    for f in &desc.fields {
        if let FieldKind::DynamicArray { length_field, .. } = &f.kind {
            match desc.field(length_field) {
                None => v.error(
                    "length-field",
                    format!(
                        "array '{}': length field '{length_field}' does not exist",
                        path(&f.name)
                    ),
                ),
                Some(lf) => match lf.kind {
                    FieldKind::Scalar(
                        BaseType::Integer | BaseType::Unsigned | BaseType::Enumeration,
                    ) => {}
                    _ => v.error(
                        "length-field",
                        format!(
                            "array '{}': length field '{length_field}' is {}, not an integer",
                            path(&f.name),
                            lf.kind.describe()
                        ),
                    ),
                },
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Slot-table derivation (shared by encode and convert verification).
// ---------------------------------------------------------------------------

/// Independently derive the slot table a plan must carry for `desc`.
fn expected_slots(desc: &FormatDescriptor, v: &mut Verdict) -> Vec<SlotProgram> {
    let mut out = Vec::new();
    for s in desc.varlen_slots() {
        let payload = match &s.field.kind {
            FieldKind::String => SlotPayloadProgram::Str,
            FieldKind::DynamicArray { elem_size, length_field, .. } => {
                let Some(lf) = s.record.field(length_field) else {
                    v.error(
                        "length-field",
                        format!(
                            "array '{}': length field '{length_field}' does not exist",
                            s.field.name
                        ),
                    );
                    continue;
                };
                SlotPayloadProgram::Array {
                    elem_size: *elem_size,
                    len_off: s.record_base + lf.offset,
                    len_size: lf.size,
                    len_name: length_field.clone(),
                }
            }
            _ => continue,
        };
        out.push(SlotProgram {
            name: s.field.name.clone(),
            off: s.slot_offset,
            size: s.field.size,
            payload,
        });
    }
    out
}

/// Bounds and ordering checks over a plan's slot table.
fn check_slot_table(slots: &[SlotProgram], record_size: usize, v: &mut Verdict) {
    let mut prev_end = 0usize;
    let mut prev_off: Option<usize> = None;
    for s in slots {
        if s.size < 4 {
            v.error(
                "slot-bounds",
                format!(
                    "slot '{}': {}-byte pointer slot is below the 4-byte wire pointer",
                    s.name, s.size
                ),
            );
        }
        if s.off + s.size > record_size {
            v.error(
                "slot-bounds",
                format!(
                    "slot '{}' at [{}, {}) exceeds the {record_size}-byte record",
                    s.name,
                    s.off,
                    s.off + s.size
                ),
            );
        }
        if let Some(p) = prev_off {
            if s.off <= p {
                v.error(
                    "slot-order",
                    format!("slot '{}' at {} is not after the previous slot at {p}", s.name, s.off),
                );
            } else if s.off < prev_end {
                v.error(
                    "slot-order",
                    format!("slot '{}' at {} overlaps the previous slot", s.name, s.off),
                );
            }
        }
        prev_off = Some(s.off);
        prev_end = s.off + s.size;
        if let SlotPayloadProgram::Array { elem_size, len_off, len_size, len_name } = &s.payload {
            if *elem_size == 0 {
                v.error("slot-bounds", format!("slot '{}': zero element size", s.name));
            }
            if !matches!(len_size, 1 | 2 | 4 | 8) {
                v.error(
                    "slot-bounds",
                    format!("slot '{}': length field '{len_name}' has width {len_size}", s.name),
                );
            }
            if len_off + len_size > record_size {
                v.error(
                    "slot-bounds",
                    format!(
                        "slot '{}': length field '{len_name}' at [{}, {}) exceeds the record",
                        s.name,
                        len_off,
                        len_off + len_size
                    ),
                );
            }
        }
    }
}

fn compare_slot_tables(got: &[SlotProgram], want: &[SlotProgram], what: &str, v: &mut Verdict) {
    if got.len() != want.len() {
        v.error(
            "slot-table",
            format!("{what} slot table has {} slots, descriptor has {}", got.len(), want.len()),
        );
        return;
    }
    for (g, w) in got.iter().zip(want) {
        if g != w {
            v.error(
                "slot-table",
                format!(
                    "{what} slot '{}' disagrees with the descriptor: plan {g:?}, expected {w:?}",
                    w.name
                ),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Encode-program verification.
// ---------------------------------------------------------------------------

/// Prove an encode program safe for `desc`: well-formed header template,
/// slot table equal to an independent derivation, slots in-bounds and
/// strictly monotone (which makes the executor's payload placements
/// monotone within the data region).
pub fn verify_encode_program(desc: &FormatDescriptor, prog: &EncodeProgram) -> Verdict {
    let mut v = verify_layout(desc);

    if prog.record_size != desc.record_size {
        v.error(
            "record-size",
            format!(
                "plan compiled for a {}-byte record, descriptor is {} bytes",
                prog.record_size, desc.record_size
            ),
        );
    }
    if prog.order != desc.machine.byte_order {
        v.error("byte-order", "plan byte order disagrees with the machine model".to_string());
    }

    if prog.header[0..2] != MAGIC {
        v.error("header", "header template magic is not 'PB'".to_string());
    }
    if prog.header[2] != VERSION {
        v.error("header", format!("header template version {} != {VERSION}", prog.header[2]));
    }
    let want_flag = match desc.machine.byte_order {
        ByteOrder::Big => 1,
        ByteOrder::Little => 0,
    };
    if prog.header[3] != want_flag {
        v.error("header", "header order flag disagrees with the machine model".to_string());
    }
    if prog.header[4..12] != desc.id().0.to_be_bytes() {
        v.error("header", "header format id disagrees with the descriptor id".to_string());
    }
    if prog.header[12..].iter().any(|&b| b != 0) {
        v.error(
            "header",
            "header data-size word and padding must be zero in the template".to_string(),
        );
    }

    let want = expected_slots(desc, &mut v);
    compare_slot_tables(&prog.slots, &want, "encode", &mut v);
    check_slot_table(&prog.slots, prog.record_size, &mut v);
    v
}

// ---------------------------------------------------------------------------
// Convert-program verification.
// ---------------------------------------------------------------------------

/// One per-element write, the common denominator of every op shape.
/// `Copy` ops expand to per-byte units so coalescing is invisible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum UnitKind {
    /// One byte moved verbatim.
    Byte,
    /// One element byte-reversed.
    Swap,
    /// One integer element converted.
    Int { signed: bool },
    /// One float element converted.
    Float,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Unit {
    dst: usize,
    src: usize,
    kind: UnitKind,
    src_w: usize,
    dst_w: usize,
}

/// Scalar category per the conversion spec: floats only ever convert to
/// floats, everything else is integer-shaped.
fn category(b: BaseType) -> u8 {
    match b {
        BaseType::Float => 1,
        _ => 0,
    }
}

/// Reimplementation of the classification spec (see `plan::classify`):
/// how one scalar crosses the pair, or `None` on category mismatch.
fn classify_spec(
    sb: BaseType,
    sw: usize,
    so: ByteOrder,
    tb: BaseType,
    tw: usize,
    to: ByteOrder,
) -> Option<UnitKind> {
    if category(sb) != category(tb) {
        return None;
    }
    if sw == tw && (so == to || sw == 1) {
        return Some(UnitKind::Byte);
    }
    if sw == tw {
        return Some(UnitKind::Swap);
    }
    if category(sb) == 1 {
        return Some(UnitKind::Float);
    }
    Some(UnitKind::Int { signed: matches!(sb, BaseType::Integer) })
}

/// Push the units one matched (array of) scalar(s) must produce.
fn push_units(
    units: &mut Vec<Unit>,
    kind: UnitKind,
    s_off: usize,
    t_off: usize,
    sw: usize,
    tw: usize,
    count: usize,
) {
    match kind {
        UnitKind::Byte => {
            // Byte-for-byte: sw == tw, expand per byte.
            for i in 0..count * sw {
                units.push(Unit {
                    dst: t_off + i,
                    src: s_off + i,
                    kind: UnitKind::Byte,
                    src_w: 1,
                    dst_w: 1,
                });
            }
        }
        _ => {
            for i in 0..count {
                units.push(Unit {
                    dst: t_off + i * tw,
                    src: s_off + i * sw,
                    kind,
                    src_w: sw,
                    dst_w: tw,
                });
            }
        }
    }
}

/// An expected var-length move, independently derived.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ExpectedVar {
    src_off: usize,
    dst_off: usize,
    conv: VarConvProgram,
}

/// Walk the receiver's fields, deriving the units and var moves the
/// conversion spec requires for this descriptor pair.
#[allow(clippy::too_many_arguments)]
fn expected_conversion(
    from: &FormatDescriptor,
    f_base: usize,
    to: &FormatDescriptor,
    t_base: usize,
    so: ByteOrder,
    to_order: ByteOrder,
    units: &mut Vec<Unit>,
    vars: &mut Vec<ExpectedVar>,
    v: &mut Verdict,
) {
    for tf in &to.fields {
        let Some(sf) = from.field(&tf.name) else { continue };
        let s_off = f_base + sf.offset;
        let t_off = t_base + tf.offset;
        match (&tf.kind, &sf.kind) {
            (FieldKind::Scalar(tb), FieldKind::Scalar(sb)) => {
                match classify_spec(*sb, sf.size, so, *tb, tf.size, to_order) {
                    Some(kind) => push_units(units, kind, s_off, t_off, sf.size, tf.size, 1),
                    None => v.error(
                        "type-mismatch",
                        format!("field '{}': a compiled plan exists for a float/integer category mismatch", tf.name),
                    ),
                }
            }
            (FieldKind::String, FieldKind::String) => {
                vars.push(ExpectedVar {
                    src_off: s_off,
                    dst_off: t_off,
                    conv: VarConvProgram::Move,
                });
            }
            (
                FieldKind::DynamicArray { elem: te, elem_size: tes, .. },
                FieldKind::DynamicArray { elem: se, elem_size: ses, .. },
            ) => match classify_spec(*se, *ses, so, *te, *tes, to_order) {
                Some(kind) => {
                    let conv = match kind {
                        UnitKind::Byte => VarConvProgram::Move,
                        UnitKind::Swap => {
                            VarConvProgram::Elem { conv: ElemKind::Swap, src_w: *ses, dst_w: *tes }
                        }
                        UnitKind::Int { signed } => VarConvProgram::Elem {
                            conv: ElemKind::Int { signed },
                            src_w: *ses,
                            dst_w: *tes,
                        },
                        UnitKind::Float => {
                            VarConvProgram::Elem { conv: ElemKind::Float, src_w: *ses, dst_w: *tes }
                        }
                    };
                    vars.push(ExpectedVar { src_off: s_off, dst_off: t_off, conv });
                }
                None => v.error(
                    "type-mismatch",
                    format!("array '{}': a compiled plan exists for a category mismatch", tf.name),
                ),
            },
            (
                FieldKind::StaticArray { elem: te, elem_size: tes, count: tc },
                FieldKind::StaticArray { elem: se, elem_size: ses, count: sc },
            ) => match classify_spec(*se, *ses, so, *te, *tes, to_order) {
                Some(kind) => {
                    let n = (*tc).min(*sc);
                    if n > 0 {
                        push_units(units, kind, s_off, t_off, *ses, *tes, n);
                    }
                }
                None => v.error(
                    "type-mismatch",
                    format!("array '{}': a compiled plan exists for a category mismatch", tf.name),
                ),
            },
            (FieldKind::Nested(tsub), FieldKind::Nested(ssub)) => {
                expected_conversion(ssub, s_off, tsub, t_off, so, to_order, units, vars, v);
            }
            _ => v.error(
                "type-mismatch",
                format!(
                    "field '{}': a compiled plan exists for incompatible kinds ({} vs {})",
                    tf.name,
                    sf.kind.describe(),
                    tf.kind.describe()
                ),
            ),
        }
    }
}

/// Expand a program's ops into units, bounds-checking as we go.  Ops that
/// fail bounds checks are reported and *not* expanded (a mutated count of
/// `u32::MAX` must not make verification allocate gigabytes).
fn expand_ops(
    prog: &ConvertProgram,
    from: &FormatDescriptor,
    to: &FormatDescriptor,
    units: &mut Vec<Unit>,
    v: &mut Verdict,
) {
    let srs = prog.src_record_size;
    let drs = prog.dst_record_size;
    let bounds = |src: usize, s_len: usize, dst: usize, d_len: usize, v: &mut Verdict| -> bool {
        let mut ok = true;
        if src.checked_add(s_len).is_none_or(|end| end > srs) {
            v.error(
                "op-bounds",
                format!("op reads [{src}, {src}+{s_len}) beyond the {srs}-byte source record"),
            );
            ok = false;
        }
        if dst.checked_add(d_len).is_none_or(|end| end > drs) {
            v.error(
                "op-bounds",
                format!(
                    "op writes [{dst}, {dst}+{d_len}) beyond the {drs}-byte destination record"
                ),
            );
            ok = false;
        }
        ok
    };
    for op in &prog.ops {
        match *op {
            PlanOp::Copy { src, dst, len } => {
                let (src, dst, len) = (src as usize, dst as usize, len as usize);
                if len == 0 {
                    v.warn("op-empty", format!("zero-length copy at src {src}, dst {dst}"));
                    continue;
                }
                if !bounds(src, len, dst, len, v) {
                    continue;
                }
                for i in 0..len {
                    units.push(Unit {
                        dst: dst + i,
                        src: src + i,
                        kind: UnitKind::Byte,
                        src_w: 1,
                        dst_w: 1,
                    });
                }
            }
            PlanOp::Swap { src, dst, width, count } => {
                let (src, dst, w, n) = (src as usize, dst as usize, width as usize, count as usize);
                if !matches!(w, 2 | 4 | 8) {
                    v.error(
                        "swap-width",
                        format!("swap at src {src} has width {w}; only 2/4/8-byte primitives swap"),
                    );
                    continue;
                }
                if src % from.machine.scalar_align(w) != 0 || dst % to.machine.scalar_align(w) != 0
                {
                    v.warn(
                        "swap-align",
                        format!("{w}-byte swap at src {src}, dst {dst} is not naturally aligned"),
                    );
                }
                if !bounds(src, w * n, dst, w * n, v) {
                    continue;
                }
                for i in 0..n {
                    units.push(Unit {
                        dst: dst + i * w,
                        src: src + i * w,
                        kind: UnitKind::Swap,
                        src_w: w,
                        dst_w: w,
                    });
                }
            }
            PlanOp::Int { src, dst, src_w, dst_w, signed, count } => {
                let (src, dst) = (src as usize, dst as usize);
                let (sw, dw, n) = (src_w as usize, dst_w as usize, count as usize);
                if !matches!(sw, 1 | 2 | 4 | 8) || !matches!(dw, 1 | 2 | 4 | 8) {
                    v.error(
                        "op-width",
                        format!(
                            "int op at src {src} has widths {sw}→{dw}; integers are 1/2/4/8 bytes"
                        ),
                    );
                    continue;
                }
                if !bounds(src, sw * n, dst, dw * n, v) {
                    continue;
                }
                for i in 0..n {
                    units.push(Unit {
                        dst: dst + i * dw,
                        src: src + i * sw,
                        kind: UnitKind::Int { signed },
                        src_w: sw,
                        dst_w: dw,
                    });
                }
            }
            PlanOp::Float { src, dst, src_w, dst_w, count } => {
                let (src, dst) = (src as usize, dst as usize);
                let (sw, dw, n) = (src_w as usize, dst_w as usize, count as usize);
                if !matches!(sw, 4 | 8) || !matches!(dw, 4 | 8) {
                    v.error(
                        "op-width",
                        format!("float op at src {src} has widths {sw}→{dw}; floats are 4/8 bytes"),
                    );
                    continue;
                }
                if !bounds(src, sw * n, dst, dw * n, v) {
                    continue;
                }
                for i in 0..n {
                    units.push(Unit {
                        dst: dst + i * dw,
                        src: src + i * sw,
                        kind: UnitKind::Float,
                        src_w: sw,
                        dst_w: dw,
                    });
                }
            }
        }
    }
}

/// Independently derive the length-fix table the conversion spec requires.
fn expected_len_fixes(desc: &FormatDescriptor, base: usize, out: &mut Vec<LenFixProgram>) {
    for f in &desc.fields {
        match &f.kind {
            FieldKind::DynamicArray { elem_size, length_field, .. } => {
                if let Some(lf) = desc.field(length_field) {
                    out.push(LenFixProgram {
                        len_off: base + lf.offset,
                        len_size: lf.size,
                        arr_off: base + f.offset,
                        elem_size: *elem_size,
                    });
                }
            }
            FieldKind::Nested(sub) => expected_len_fixes(sub, base + f.offset, out),
            _ => {}
        }
    }
}

/// Prove a convert program safe for the `(from, to)` descriptor pair.
///
/// The central argument: the program's ops expand to per-element units
/// (per-byte for copies), an independent walk of the descriptor pair
/// derives the units the matching rules require, and the two sorted lists
/// must be equal.  Equality proves at once that every matched destination
/// byte is written exactly once, no op writes outside matched fixed-field
/// regions (pointer slots, padding, and receiver-only fields stay zero),
/// and every width/order/signedness decision agrees with the spec.
pub fn verify_convert_program(
    from: &FormatDescriptor,
    to: &FormatDescriptor,
    prog: &ConvertProgram,
) -> Verdict {
    let mut v = verify_layout(from);
    v.merge(verify_layout(to));

    if prog.src_record_size != from.record_size {
        v.error(
            "record-size",
            format!(
                "plan reads a {}-byte source record, sender descriptor is {} bytes",
                prog.src_record_size, from.record_size
            ),
        );
    }
    if prog.dst_record_size != to.record_size {
        v.error(
            "record-size",
            format!(
                "plan writes a {}-byte destination record, receiver descriptor is {} bytes",
                prog.dst_record_size, to.record_size
            ),
        );
    }
    if prog.src_order != from.machine.byte_order || prog.dst_order != to.machine.byte_order {
        v.error("byte-order", "plan byte orders disagree with the machine models".to_string());
    }

    // Source slot table: equal to an independent derivation, in-bounds.
    let want_slots = expected_slots(from, &mut v);
    compare_slot_tables(&prog.src_slots, &want_slots, "source", &mut v);
    check_slot_table(&prog.src_slots, prog.src_record_size, &mut v);

    // Fixed image: unit-expansion equivalence.
    let mut got_units = Vec::new();
    expand_ops(prog, from, to, &mut got_units, &mut v);
    let mut want_units = Vec::new();
    let mut want_vars = Vec::new();
    expected_conversion(
        from,
        0,
        to,
        0,
        from.machine.byte_order,
        to.machine.byte_order,
        &mut want_units,
        &mut want_vars,
        &mut v,
    );

    // Destination coverage: each byte written at most once by the ops.
    // (The length-fix post-pass legitimately overwrites length fields.)
    let mut coverage = vec![0u8; prog.dst_record_size];
    for u in &got_units {
        for b in u.dst..(u.dst + u.dst_w).min(coverage.len()) {
            if coverage[b] == 1 {
                v.error("overlap-write", format!("destination byte {b} is written more than once"));
            } else {
                coverage[b] = 1;
            }
        }
    }

    got_units.sort_unstable();
    want_units.sort_unstable();
    if got_units != want_units {
        // Name the first divergence to keep diagnostics actionable.
        let detail = got_units
            .iter()
            .zip(want_units.iter())
            .find(|(g, w)| g != w)
            .map(|(g, w)| format!("first divergence: plan {g:?}, spec requires {w:?}"))
            .unwrap_or_else(|| {
                format!(
                    "plan performs {} element writes, spec requires {}",
                    got_units.len(),
                    want_units.len()
                )
            });
        v.error("op-units", format!("fixed-image ops disagree with the descriptor pair: {detail}"));
    }

    // Var-length moves: equal to the derivation (keyed by destination).
    let slot_off = |idx: usize| prog.src_slots.get(idx).map(|s| s.off);
    let mut got_vars = Vec::new();
    for vo in &prog.var_ops {
        match slot_off(vo.src_idx) {
            Some(src_off) => {
                got_vars.push(ExpectedVar { src_off, dst_off: vo.dst_off, conv: vo.conv })
            }
            None => v.error(
                "var-bounds",
                format!(
                    "var op targets source slot index {} of a {}-slot table",
                    vo.src_idx,
                    prog.src_slots.len()
                ),
            ),
        }
        if vo.dst_off >= prog.dst_record_size {
            v.error(
                "var-bounds",
                format!(
                    "var op destination slot {} is outside the {}-byte record",
                    vo.dst_off, prog.dst_record_size
                ),
            );
        }
    }
    // The executor keys destination payloads by slot offset, so op order
    // does not change the result; compare order-insensitively but check
    // monotonicity as an advisory (auto layouts always produce it).
    if !got_vars.windows(2).all(|w| w[0].dst_off < w[1].dst_off) {
        v.warn("var-order", "var-op destinations are not strictly increasing".to_string());
    }
    let mut got_sorted = got_vars.clone();
    got_sorted.sort_by_key(|e| (e.dst_off, e.src_off));
    let mut want_sorted = want_vars.clone();
    want_sorted.sort_by_key(|e| (e.dst_off, e.src_off));
    if got_sorted != want_sorted {
        let detail = got_sorted
            .iter()
            .zip(want_sorted.iter())
            .find(|(g, w)| g != w)
            .map(|(g, w)| format!("first divergence: plan {g:?}, spec requires {w:?}"))
            .unwrap_or_else(|| {
                format!(
                    "plan moves {} payloads, spec requires {}",
                    got_sorted.len(),
                    want_sorted.len()
                )
            });
        v.error("var-ops", format!("var-length moves disagree with the descriptor pair: {detail}"));
    }

    // Length fixes: equal to the derivation, in-bounds.
    let mut want_fixes = Vec::new();
    expected_len_fixes(to, 0, &mut want_fixes);
    if prog.len_fixes != want_fixes {
        v.error(
            "len-fixes",
            format!(
                "length-fix table disagrees with the receiver descriptor: plan has {} fixes, spec requires {}",
                prog.len_fixes.len(),
                want_fixes.len()
            ),
        );
    }
    for lf in &prog.len_fixes {
        if lf.len_off + lf.len_size > prog.dst_record_size {
            v.error(
                "len-fix-bounds",
                format!(
                    "length fix writes [{}, {}) beyond the {}-byte record",
                    lf.len_off,
                    lf.len_off + lf.len_size,
                    prog.dst_record_size
                ),
            );
        }
        if !matches!(lf.len_size, 1 | 2 | 4 | 8) {
            v.error("len-fix-bounds", format!("length fix has width {}", lf.len_size));
        }
        if lf.elem_size == 0 {
            v.error("len-fix-bounds", "length fix divides by a zero element size".to_string());
        }
    }

    v
}

// ---------------------------------------------------------------------------
// View-program verification.
// ---------------------------------------------------------------------------

/// One leaf of a descriptor's fixed image, flattened for the structural
/// same-layout comparison.  Field names carry their full dotted path so
/// nesting structure cannot alias (`a.b` vs `ab`).
#[derive(Debug, Clone, PartialEq, Eq)]
enum ViewLeaf {
    /// A scalar slot.
    Scalar { path: String, off: usize, base: BaseType, size: usize },
    /// An inline array run.
    Static { path: String, off: usize, elem: BaseType, elem_size: usize, count: usize },
    /// A string pointer slot.
    Str { path: String, off: usize, size: usize },
    /// A dynamic-array pointer slot, with its governing length field.
    Dyn { path: String, off: usize, size: usize, elem: BaseType, elem_size: usize, len: String },
}

/// Flatten a descriptor into leaf slots, independent of the plan
/// compiler's slot derivation.
fn view_leaves(desc: &FormatDescriptor, base: usize, prefix: &str, out: &mut Vec<ViewLeaf>) {
    for f in &desc.fields {
        let path = if prefix.is_empty() { f.name.clone() } else { format!("{prefix}.{}", f.name) };
        let off = base + f.offset;
        match &f.kind {
            FieldKind::Scalar(b) => {
                out.push(ViewLeaf::Scalar { path, off, base: *b, size: f.size });
            }
            FieldKind::StaticArray { elem, elem_size, count } => {
                out.push(ViewLeaf::Static {
                    path,
                    off,
                    elem: *elem,
                    elem_size: *elem_size,
                    count: *count,
                });
            }
            FieldKind::String => out.push(ViewLeaf::Str { path, off, size: f.size }),
            FieldKind::DynamicArray { elem, elem_size, length_field } => {
                out.push(ViewLeaf::Dyn {
                    path,
                    off,
                    size: f.size,
                    elem: *elem,
                    elem_size: *elem_size,
                    len: length_field.clone(),
                });
            }
            FieldKind::Nested(sub) => view_leaves(sub, off, &path, out),
        }
    }
}

/// Prove a view program safe for a (sender, receiver) pair: the borrowed
/// fast path reads sender bytes *as if* they were receiver bytes, so the
/// two layouts must be provably identical — byte order, record size,
/// alignment, and a leaf-by-leaf structural walk of both descriptors
/// (re-derived here, not taken from [`crate::plan::layouts_match`]) — and
/// the plan's slot table must equal an independent derivation from the
/// receiver descriptor with every slot in-bounds and monotone.
pub fn verify_view_program(
    sender: &FormatDescriptor,
    target: &FormatDescriptor,
    prog: &ViewProgram,
) -> Verdict {
    let mut v = verify_layout(sender);
    v.merge(verify_layout(target));

    if sender.machine.byte_order != target.machine.byte_order {
        v.error(
            "view-order",
            "sender and receiver byte orders differ; a view would misread every scalar".to_string(),
        );
    }
    if sender.record_size != target.record_size {
        v.error(
            "view-size",
            format!(
                "sender record is {} bytes, receiver record is {}",
                sender.record_size, target.record_size
            ),
        );
    }
    if sender.align != target.align {
        v.error(
            "view-align",
            format!("sender align {} != receiver align {}", sender.align, target.align),
        );
    }

    let mut sl = Vec::new();
    let mut tl = Vec::new();
    view_leaves(sender, 0, "", &mut sl);
    view_leaves(target, 0, "", &mut tl);
    if sl.len() != tl.len() {
        v.error(
            "view-fields",
            format!("sender flattens to {} leaves, receiver to {}", sl.len(), tl.len()),
        );
    } else {
        for (s, t) in sl.iter().zip(&tl) {
            if s != t {
                v.error("view-fields", format!("leaf disagreement: sender {s:?}, receiver {t:?}"));
            }
        }
    }

    if prog.record_size != target.record_size {
        v.error(
            "record-size",
            format!(
                "plan compiled for a {}-byte record, receiver descriptor is {} bytes",
                prog.record_size, target.record_size
            ),
        );
    }
    if prog.order != target.machine.byte_order {
        v.error("byte-order", "plan byte order disagrees with the machine model".to_string());
    }

    let want = expected_slots(target, &mut v);
    compare_slot_tables(&prog.slots, &want, "view", &mut v);
    check_slot_table(&prog.slots, prog.record_size, &mut v);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::IOField;
    use crate::format::FormatSpec;
    use crate::machine::MachineModel;
    use crate::plan::{ConvertPlan, EncodePlan};
    use crate::registry::FormatRegistry;
    use std::sync::Arc;

    fn mixed_reg(machine: MachineModel) -> (FormatRegistry, Arc<FormatDescriptor>) {
        let reg = FormatRegistry::new(machine);
        let d = reg
            .register(FormatSpec::new(
                "Mixed",
                vec![
                    IOField::auto("tag", "char", 1),
                    IOField::auto("count", "integer", 4),
                    IOField::auto("value", "float", 8),
                    IOField::auto("label", "string", 0),
                    IOField::auto("samples", "float[count]", 4),
                ],
            ))
            .unwrap();
        (reg, d)
    }

    #[test]
    fn encode_plan_verifies_clean() {
        for machine in [MachineModel::SPARC32, MachineModel::X86_64] {
            let (_, d) = mixed_reg(machine);
            let plan = EncodePlan::compile(&d).unwrap();
            let verdict = verify_encode_program(&d, plan.program());
            assert!(verdict.is_clean(), "{:?}", verdict.violations());
        }
    }

    #[test]
    fn convert_plan_verifies_clean_cross_machine() {
        let (_, src) = mixed_reg(MachineModel::SPARC32);
        let (_, dst) = mixed_reg(MachineModel::X86_64);
        let plan = ConvertPlan::compile(&src, &dst).unwrap();
        let verdict = verify_convert_program(&src, &dst, plan.program());
        assert!(verdict.is_clean(), "{:?}", verdict.violations());
    }

    #[test]
    fn shifted_op_offset_rejected() {
        let (_, src) = mixed_reg(MachineModel::SPARC32);
        let (_, dst) = mixed_reg(MachineModel::X86_64);
        let mut prog = ConvertPlan::compile(&src, &dst).unwrap().program().clone();
        if let Some(PlanOp::Swap { dst: d, .. } | PlanOp::Int { dst: d, .. }) = prog.ops.first_mut()
        {
            *d += 1;
        } else if let Some(PlanOp::Copy { dst: d, .. } | PlanOp::Float { dst: d, .. }) =
            prog.ops.first_mut()
        {
            *d += 1;
        }
        let verdict = verify_convert_program(&src, &dst, &prog);
        assert!(verdict.has_errors());
    }

    #[test]
    fn dropped_op_rejected() {
        let (_, src) = mixed_reg(MachineModel::SPARC32);
        let (_, dst) = mixed_reg(MachineModel::X86_64);
        let mut prog = ConvertPlan::compile(&src, &dst).unwrap().program().clone();
        prog.ops.pop();
        let verdict = verify_convert_program(&src, &dst, &prog);
        assert!(verdict.has_errors());
    }

    #[test]
    fn bad_swap_width_rejected() {
        let (_, src) = mixed_reg(MachineModel::SPARC32);
        let (_, dst) = mixed_reg(MachineModel::X86_64);
        let mut prog = ConvertPlan::compile(&src, &dst).unwrap().program().clone();
        for op in &mut prog.ops {
            if let PlanOp::Swap { width, .. } = op {
                *width = 3;
            }
        }
        let verdict = verify_convert_program(&src, &dst, &prog);
        assert!(verdict.has_errors());
        assert!(verdict.violations().iter().any(|x| x.check == "swap-width"));
    }

    #[test]
    fn out_of_bounds_op_rejected_without_expansion() {
        let (_, src) = mixed_reg(MachineModel::SPARC32);
        let (_, dst) = mixed_reg(MachineModel::X86_64);
        let mut prog = ConvertPlan::compile(&src, &dst).unwrap().program().clone();
        prog.ops.push(PlanOp::Copy { src: 0, dst: 0, len: u32::MAX });
        let verdict = verify_convert_program(&src, &dst, &prog);
        assert!(verdict.violations().iter().any(|x| x.check == "op-bounds"));
    }

    #[test]
    fn dropped_len_fix_rejected() {
        let (_, src) = mixed_reg(MachineModel::SPARC32);
        let (_, dst) = mixed_reg(MachineModel::X86_64);
        let mut prog = ConvertPlan::compile(&src, &dst).unwrap().program().clone();
        prog.len_fixes.clear();
        let verdict = verify_convert_program(&src, &dst, &prog);
        assert!(verdict.violations().iter().any(|x| x.check == "len-fixes"));
    }

    #[test]
    fn retargeted_var_op_rejected() {
        let (_, src) = mixed_reg(MachineModel::SPARC32);
        let (_, dst) = mixed_reg(MachineModel::X86_64);
        let mut prog = ConvertPlan::compile(&src, &dst).unwrap().program().clone();
        if let Some(vo) = prog.var_ops.first_mut() {
            vo.dst_off += 4;
        }
        let verdict = verify_convert_program(&src, &dst, &prog);
        assert!(verdict.has_errors());
    }

    #[test]
    fn corrupted_header_rejected() {
        let (_, d) = mixed_reg(MachineModel::SPARC32);
        let mut prog = EncodePlan::compile(&d).unwrap().program().clone();
        prog.header[4] ^= 0xff;
        let verdict = verify_encode_program(&d, &prog);
        assert!(verdict.violations().iter().any(|x| x.check == "header"));
    }

    #[test]
    fn layout_verifies_clean_for_all_machines() {
        for machine in
            [MachineModel::SPARC32, MachineModel::X86, MachineModel::X86_64, MachineModel::SPARC64]
        {
            let (_, d) = mixed_reg(machine);
            let verdict = verify_layout(&d);
            assert!(verdict.is_clean(), "{machine:?}: {:?}", verdict.violations());
        }
    }

    #[test]
    fn explicit_misalignment_is_warning_not_error() {
        let reg = FormatRegistry::new(MachineModel::SPARC32);
        let d = reg
            .register(FormatSpec::new(
                "Packed",
                vec![
                    IOField::at("a", "char", 1, 0),
                    IOField::at("b", "integer", 4, 1),
                    IOField::at("c", "integer", 4, 8),
                ],
            ))
            .unwrap();
        let verdict = verify_layout(&d);
        assert!(!verdict.has_errors(), "{:?}", verdict.violations());
        assert!(verdict.violations().iter().any(|x| x.check == "field-misaligned"));
    }
}
