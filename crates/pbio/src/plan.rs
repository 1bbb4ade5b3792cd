//! Compiled marshal/convert plans: per-format instruction programs.
//!
//! The interpreted paths in [`crate::marshal`] and [`crate::convert`]
//! re-derive the same facts on every record: walking the descriptor tree
//! for var-length slots, resolving `length_field` names, matching receiver
//! fields against sender fields by name, and re-deciding per scalar whether
//! anything (order, width, signedness) actually differs.  All of that is a
//! function of the *descriptor pair*, not of the record.  This module
//! lowers it once into flat instruction programs:
//!
//! * [`EncodePlan`] — one program per format.  Encoding becomes: append a
//!   precomputed header template, memcpy the fixed image, patch pointer
//!   slots from a flat slot table, append payloads.  The same slot table
//!   drives extraction on decode, conversions and borrowed views.
//! * [`ConvertPlan`] — one program per (sender, receiver) descriptor pair.
//!   Name matching, width/order classification, and type checking all
//!   happen at compile time; execution is a tight loop over
//!   `Copy`/`Swap`/`Int`/`Float` ops on the fixed image plus per-slot
//!   var-length moves.  Adjacent compatible ops are coalesced so runs of
//!   like fields become single memcpys or single swap loops.
//!
//! Each descriptor holds its one certified encode plan, whose slot table
//! is the only one: a conversion locates the sender's payloads with the
//! sender's table and fixes the receiver's length fields from the
//! receiver's, and a borrowed view reads through the receiver's.  Convert
//! plans and same-layout verdicts are cached in the
//! [`crate::registry::FormatRegistry`] keyed by the pair of
//! [`FormatId`](crate::format::FormatId)s.
//!
//! Fidelity notes (vs. the interpreted reference paths, which are kept for
//! differential testing):
//!
//! * Outputs are byte-identical, with one documented exception: a
//!   same-width `f32` whose bits encode a *signaling* NaN is preserved
//!   bit-for-bit by the compiled `Copy`/`Swap` ops, while the interpreted
//!   path's `f32 → f64 → f32` round-trip may quieten it on x86.  The
//!   compiled behaviour is the more faithful one.
//! * Type mismatches between a sender/receiver pair are detected at plan
//!   *compile* time.  On a wire that is both corrupt and type-mismatched,
//!   the compiled path therefore reports [`PbioError::TypeMismatch`] where
//!   the interpreted path would have tripped over the corruption first.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, OnceLock};

use openmeta_obs::{Counter, MetricsRegistry};

use crate::error::PbioError;
use crate::format::FormatDescriptor;
use crate::kernels;
use crate::layout::align_up;
use crate::machine::ByteOrder;
use crate::marshal::{HEADER_SIZE, MAGIC, VERSION};
use crate::record::{read_uint, write_uint, RawRecord, VarData};
use crate::types::{BaseType, FieldKind};

// ---------------------------------------------------------------------------
// Plan programs.
// ---------------------------------------------------------------------------
//
// Each compiled plan holds exactly one program, and the executors below
// run it.  The program types are public so static verification
// (`crate::verify`, `openmeta-analyzer`, the `planlint` tool) reads the
// very instructions that run, and mutation tests can corrupt clones of
// them; a plan itself is only ever built by its `compile`.

/// One fixed-image instruction.  Offsets and lengths are `u32` to keep
/// programs compact; record sizes comfortably fit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanOp {
    /// Bitwise copy of `len` bytes.
    Copy {
        /// Source offset in the sender's fixed image.
        src: u32,
        /// Destination offset in the receiver's fixed image.
        dst: u32,
        /// Bytes copied.
        len: u32,
    },
    /// Per-element byte reversal: same width, opposite byte order.
    Swap {
        /// Source offset.
        src: u32,
        /// Destination offset.
        dst: u32,
        /// Element width in bytes.
        width: u8,
        /// Element count.
        count: u32,
    },
    /// Integer width change (sign-extending iff the source is signed).
    Int {
        /// Source offset.
        src: u32,
        /// Destination offset.
        dst: u32,
        /// Source element width.
        src_w: u8,
        /// Destination element width.
        dst_w: u8,
        /// Sign-extend on widening.
        signed: bool,
        /// Element count.
        count: u32,
    },
    /// Float width change via f64.
    Float {
        /// Source offset.
        src: u32,
        /// Destination offset.
        dst: u32,
        /// Source element width.
        src_w: u8,
        /// Destination element width.
        dst_w: u8,
        /// Element count.
        count: u32,
    },
}

/// What a var-length pointer slot points at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SlotPayloadProgram {
    /// NUL-terminated string, align 1.
    Str,
    /// Dynamic-array run governed by a sibling length field.
    Array {
        /// Bytes per element.
        elem_size: usize,
        /// Absolute offset of the length field in the fixed image.
        len_off: usize,
        /// Length-field width in bytes.
        len_size: usize,
        /// Length-field name (diagnostics).
        len_name: String,
        /// This is the last-declared array governing its length field, so
        /// a conversion into the format sets that field from this array's
        /// payload: the interpreter fixes lengths in declaration order,
        /// and slots are in offset order.
        fixes_len: bool,
    },
}

/// One var-length pointer slot, with every name lookup already resolved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotProgram {
    /// Field name (diagnostics).
    pub name: String,
    /// Absolute offset of the pointer slot in the fixed image.
    pub off: usize,
    /// Pointer-slot size in bytes.
    pub size: usize,
    /// What the slot points at.
    pub payload: SlotPayloadProgram,
}

/// Per-element conversion kind, shared by fixed and var-length arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElemKind {
    /// Representation-identical copy.
    Copy,
    /// Byte reversal per element.
    Swap,
    /// Integer width change.
    Int {
        /// Sign-extend on widening.
        signed: bool,
    },
    /// Float width change via f64.
    Float,
}

/// How a var-length payload crosses a format pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarConvProgram {
    /// Representation matches: payload cloned as-is.
    Move,
    /// Per-element conversion.
    Elem {
        /// Conversion kind.
        conv: ElemKind,
        /// Source element width.
        src_w: usize,
        /// Destination element width.
        dst_w: usize,
    },
}

/// Move/convert one var-length payload from a source slot to a
/// destination slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VarOpProgram {
    /// Index into the sender's encode-program slot table (and the
    /// located-payload vector).
    pub src_idx: usize,
    /// Destination slot offset (the receiver-side `varlen` key).
    pub dst_off: usize,
    /// How the payload is converted.
    pub conv: VarConvProgram,
}

/// The program an [`EncodePlan`] runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodeProgram {
    /// Complete wire header with the data-size word left zero; patched
    /// per record.
    pub header: [u8; HEADER_SIZE],
    /// Fixed-image size the plan was compiled for.
    pub record_size: usize,
    /// Byte order of the format's machine model.
    pub order: ByteOrder,
    /// Var-length slot table, in placement order.
    pub slots: Vec<SlotProgram>,
}

/// The program a [`ConvertPlan`] runs, between the sender's and the
/// receiver's encode programs: those locate the sender's payloads and
/// fix the receiver's length fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConvertProgram {
    /// Fixed-image instructions.
    pub ops: Vec<PlanOp>,
    /// Var-length payload moves.
    pub var_ops: Vec<VarOpProgram>,
}

/// Flatten a descriptor's var-length slots, resolving length fields once.
fn compile_slots(desc: &FormatDescriptor) -> Result<Vec<SlotProgram>, PbioError> {
    let mut out = Vec::new();
    for s in desc.varlen_slots() {
        let payload = match &s.field.kind {
            FieldKind::String => SlotPayloadProgram::Str,
            FieldKind::DynamicArray { elem_size, length_field, .. } => {
                let lf = s.record.field(length_field).ok_or_else(|| PbioError::BadDimension {
                    field: s.field.name.clone(),
                    reason: format!("length field '{length_field}' missing"),
                })?;
                let last = s.record.fields.iter().rfind(|f| {
                    matches!(&f.kind, FieldKind::DynamicArray { length_field: l, .. } if l == length_field)
                });
                SlotPayloadProgram::Array {
                    elem_size: *elem_size,
                    len_off: s.record_base + lf.offset,
                    len_size: lf.size,
                    len_name: length_field.clone(),
                    fixes_len: last.is_some_and(|f| std::ptr::eq(f, s.field)),
                }
            }
            other => unreachable!("varlen_slots only yields varlen kinds, got {other:?}"),
        };
        out.push(SlotProgram {
            name: s.field.name.clone(),
            off: s.slot_offset,
            size: s.field.size,
            payload,
        });
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Encode plans (also the extract program for same-format decode).
// ---------------------------------------------------------------------------

/// Compiled encode/extract program for one format; each descriptor holds its certified one.
#[derive(Debug)]
pub struct EncodePlan {
    program: EncodeProgram,
}

impl EncodePlan {
    /// Lower `desc` into an encode/extract program.
    pub fn compile(desc: &FormatDescriptor) -> Result<EncodePlan, PbioError> {
        let mut header = [0u8; HEADER_SIZE];
        header[0..2].copy_from_slice(&MAGIC);
        header[2] = VERSION;
        header[3] = match desc.machine.byte_order {
            ByteOrder::Big => 1,
            ByteOrder::Little => 0,
        };
        header[4..12].copy_from_slice(&desc.id().0.to_be_bytes());
        Ok(EncodePlan {
            program: EncodeProgram {
                header,
                record_size: desc.record_size,
                order: desc.machine.byte_order,
                slots: compile_slots(desc)?,
            },
        })
    }

    /// The program this plan runs, for static verification.
    pub fn program(&self) -> &EncodeProgram {
        &self.program
    }
}

/// A borrowed var-length payload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum VarSlice<'a> {
    /// A validated UTF-8 string (terminator excluded).
    Str(&'a str),
    /// Raw dynamic-array elements in the sender's representation.
    Bytes(&'a [u8]),
}

pub(crate) fn check_record_size(data: &[u8], record_size: usize) -> Result<(), PbioError> {
    if data.len() < record_size {
        return Err(PbioError::BadWireData(format!(
            "data section of {} bytes is smaller than the {}-byte record",
            data.len(),
            record_size
        )));
    }
    Ok(())
}

/// Chase one pointer slot, validating exactly as the interpreted extract
/// does.  `None` means the payload is absent (null pointer).
pub(crate) fn locate_payload<'a>(
    data: &'a [u8],
    slot: &SlotProgram,
    order: ByteOrder,
) -> Result<Option<VarSlice<'a>>, PbioError> {
    let raw = &data[slot.off..slot.off + slot.size];
    let ptr_bytes = match order {
        ByteOrder::Big => &raw[slot.size - 4..],
        ByteOrder::Little => &raw[..4],
    };
    let at = read_uint(ptr_bytes, order) as usize;
    if at == 0 {
        return Ok(None);
    }
    if at >= data.len() {
        return Err(PbioError::BadWireData(format!(
            "field '{}' points at {at}, beyond the {}-byte data section",
            slot.name,
            data.len()
        )));
    }
    match &slot.payload {
        SlotPayloadProgram::Str => {
            let tail = &data[at..];
            let end = tail.iter().position(|&b| b == 0).ok_or_else(|| {
                PbioError::BadWireData(format!("field '{}': unterminated string", slot.name))
            })?;
            let text = std::str::from_utf8(&tail[..end]).map_err(|_| {
                PbioError::BadWireData(format!("field '{}': string not UTF-8", slot.name))
            })?;
            Ok(Some(VarSlice::Str(text)))
        }
        SlotPayloadProgram::Array { elem_size, len_off, len_size, .. } => {
            let count = read_uint(&data[*len_off..*len_off + *len_size], order) as usize;
            let bytes_len = count.checked_mul(*elem_size).ok_or_else(|| {
                PbioError::BadWireData(format!("field '{}': array length overflows", slot.name))
            })?;
            let payload = data.get(at..at + bytes_len).ok_or_else(|| {
                PbioError::BadWireData(format!(
                    "field '{}': {count}-element payload exceeds the data section",
                    slot.name
                ))
            })?;
            Ok(Some(VarSlice::Bytes(payload)))
        }
    }
}

/// Run an encode plan, appending the wire image to `out`.  `placements` is
/// caller-provided scratch (reused across calls by [`Encoder`]).  Returns
/// the number of bytes written.
pub(crate) fn execute_encode(
    plan: &EncodePlan,
    rec: &RawRecord,
    out: &mut Vec<u8>,
    placements: &mut Vec<(usize, usize)>,
) -> Result<usize, PbioError> {
    let prog = &plan.program;
    let fixed = rec.fixed_bytes();
    debug_assert_eq!(fixed.len(), prog.record_size, "plan compiled for a different format");
    let order = prog.order;

    // Pass 1: place payloads within the data section.
    placements.clear();
    let mut data_size = prog.record_size;
    for slot in &prog.slots {
        let (len, align) = match (&slot.payload, rec.varlen.get(&slot.off)) {
            (SlotPayloadProgram::Str, Some(VarData::Str(v))) => (v.len() + 1, 1),
            (SlotPayloadProgram::Str, None) => (0, 1),
            (SlotPayloadProgram::Array { elem_size, len_off, len_size, len_name, .. }, payload) => {
                let declared = read_uint(&fixed[*len_off..*len_off + *len_size], order) as usize;
                let have = match payload {
                    Some(VarData::Bytes(b)) => b.len() / elem_size,
                    Some(VarData::Str(_)) => {
                        unreachable!("array slots only ever hold VarData::Bytes")
                    }
                    None => 0,
                };
                if declared != have {
                    return Err(dimension_error(slot, len_name, declared, have));
                }
                (have * elem_size, (*elem_size).max(1))
            }
            (SlotPayloadProgram::Str, Some(VarData::Bytes(_))) => {
                unreachable!("string slots only ever hold VarData::Str")
            }
        };
        placements.push((place(&mut data_size, len, align), len));
    }

    // Pass 2: emit.
    let start = out.len();
    out.reserve(HEADER_SIZE + data_size);
    out.extend_from_slice(&prog.header);
    out[start + 12..start + 16].copy_from_slice(&(data_size as u32).to_be_bytes());
    let data_start = out.len();
    out.extend_from_slice(fixed);
    for (slot, &(payload_at, _)) in prog.slots.iter().zip(placements.iter()) {
        let slot_abs = data_start + slot.off;
        write_pointer(&mut out[slot_abs..slot_abs + slot.size], order, payload_at);
    }
    for (slot, &(payload_at, len)) in prog.slots.iter().zip(placements.iter()) {
        if len == 0 {
            continue;
        }
        let want = data_start + payload_at;
        debug_assert!(out.len() <= want, "placements are monotone");
        out.resize(want, 0);
        match rec.varlen.get(&slot.off) {
            Some(VarData::Str(v)) => {
                out.extend_from_slice(v.as_bytes());
                out.push(0);
            }
            Some(VarData::Bytes(b)) => out.extend_from_slice(b),
            None => unreachable!("len > 0 implies payload present"),
        }
    }
    debug_assert_eq!(out.len() - data_start, data_size);
    let written = out.len() - start;
    openmeta_obs::marshal_counters().bytes_copied_total.add(written as u64);
    Ok(written)
}

/// Where a payload of `len` bytes and alignment `align` lands in a data
/// section currently `data_size` bytes long (which it then extends).  An
/// empty payload takes no room and is placed at 0, the null pointer.
fn place(data_size: &mut usize, len: usize, align: usize) -> usize {
    if len == 0 {
        return 0;
    }
    let at = align_up(*data_size, align);
    *data_size = at + len;
    at
}

/// Fill a pointer slot: zeroed, with the data-section offset `at` in its
/// numerically low 4 bytes (0, the null pointer, for an empty payload).
fn write_pointer(slot: &mut [u8], order: ByteOrder, at: usize) {
    slot.fill(0);
    let n = slot.len();
    let low = match order {
        ByteOrder::Big => &mut slot[n - 4..],
        ByteOrder::Little => &mut slot[..4],
    };
    write_uint(low, order, at as u64);
}

/// An array slot whose length field disagrees with its payload.
fn dimension_error(slot: &SlotProgram, len_name: &str, declared: usize, have: usize) -> PbioError {
    PbioError::BadDimension {
        field: slot.name.clone(),
        reason: format!("length field '{len_name}' says {declared} elements, array holds {have}"),
    }
}

/// Owned extraction: the same-format decode path and
/// [`RecordView::to_owned`](crate::view::RecordView::to_owned).  Pointer
/// slots in the returned fixed image are zeroed, exactly like the
/// interpreted [`crate::convert`] extract.
pub(crate) fn extract(
    data: &[u8],
    prog: &EncodeProgram,
) -> Result<(Vec<u8>, BTreeMap<usize, VarData>), PbioError> {
    check_record_size(data, prog.record_size)?;
    let mut fixed = data[..prog.record_size].to_vec();
    let mut allocs = 1u64; // the fixed image itself
    let mut copied = fixed.len() as u64;
    let mut varlen = BTreeMap::new();
    for slot in &prog.slots {
        let payload = locate_payload(data, slot, prog.order)?;
        fixed[slot.off..slot.off + slot.size].fill(0);
        match payload {
            Some(VarSlice::Str(s)) => {
                allocs += 1;
                copied += s.len() as u64;
                varlen.insert(slot.off, VarData::Str(s.to_string()));
            }
            Some(VarSlice::Bytes(b)) => {
                allocs += 1;
                copied += b.len() as u64;
                varlen.insert(slot.off, VarData::Bytes(b.to_vec()));
            }
            None => {}
        }
    }
    let counters = openmeta_obs::marshal_counters();
    counters.alloc_total.add(allocs);
    counters.bytes_copied_total.add(copied);
    Ok((fixed, varlen))
}

// ---------------------------------------------------------------------------
// Same layout: the PBIO best case, decoded in place.
// ---------------------------------------------------------------------------

/// Structural layout equality: would records of `a` land byte-for-byte in
/// the native image of `b`?
///
/// This is the gate for the borrowed [`RecordView`](crate::view::RecordView)
/// decode path, so it is deliberately strict: byte order, record size,
/// alignment, and every field's name, offset, slot size, and kind must
/// agree, recursing into nested records.  Field *names* matter even though
/// they don't affect bytes — the owned fallback path matches fields by
/// name, and a view must never disagree with what that path would produce.
/// Only the outer format *name* is ignored (two differently-named formats
/// can share a layout; [`FormatId`](crate::format::FormatId) would still
/// differ because it hashes the name).
pub fn layouts_match(a: &FormatDescriptor, b: &FormatDescriptor) -> bool {
    a.machine.byte_order == b.machine.byte_order
        && a.record_size == b.record_size
        && a.align == b.align
        && a.fields.len() == b.fields.len()
        && a.fields.iter().zip(&b.fields).all(|(fa, fb)| {
            fa.name == fb.name
                && fa.offset == fb.offset
                && fa.size == fb.size
                && match (&fa.kind, &fb.kind) {
                    // Nested records compare like the outer one, by
                    // structure and not by (sub)format name.
                    (FieldKind::Nested(x), FieldKind::Nested(y)) => layouts_match(x, y),
                    (x, y) => x == y,
                }
        })
}

// ---------------------------------------------------------------------------
// Convert plans.
// ---------------------------------------------------------------------------

/// Compiled conversion program for one (sender, receiver) descriptor pair.
#[derive(Debug)]
pub struct ConvertPlan {
    program: ConvertProgram,
}

/// Scalar conversion categories: anything integer-like interconverts.
pub(crate) fn scalar_category(b: BaseType) -> u8 {
    match b {
        BaseType::Float => 1,
        BaseType::Integer
        | BaseType::Unsigned
        | BaseType::Boolean
        | BaseType::Enumeration
        | BaseType::Char => 0,
    }
}

/// Decide how one scalar crosses the pair.  `None` is a category mismatch.
fn classify(
    sb: BaseType,
    sw: usize,
    so: ByteOrder,
    tb: BaseType,
    tw: usize,
    to: ByteOrder,
) -> Option<ElemKind> {
    if scalar_category(sb) != scalar_category(tb) {
        return None;
    }
    if sw == tw && (so == to || sw == 1) {
        return Some(ElemKind::Copy);
    }
    if sw == tw {
        return Some(ElemKind::Swap);
    }
    if scalar_category(sb) == 1 {
        return Some(ElemKind::Float);
    }
    Some(ElemKind::Int { signed: matches!(sb, BaseType::Integer) })
}

/// Append a fixed op, coalescing with the previous one when both source and
/// destination ranges are exactly adjacent and the kinds agree.  Adjacency
/// never spans padding, so coalesced programs write the same bytes the
/// field-at-a-time interpreter would.
fn push_coalesced(ops: &mut Vec<PlanOp>, op: PlanOp) {
    if let Some(last) = ops.last_mut() {
        match (last, op) {
            (PlanOp::Copy { src, dst, len }, PlanOp::Copy { src: s2, dst: d2, len: l2 })
                if *src + *len == s2 && *dst + *len == d2 =>
            {
                *len += l2;
                return;
            }
            (
                PlanOp::Swap { src, dst, width, count },
                PlanOp::Swap { src: s2, dst: d2, width: w2, count: c2 },
            ) if *width == w2
                && *src + u32::from(*width) * *count == s2
                && *dst + u32::from(*width) * *count == d2 =>
            {
                *count += c2;
                return;
            }
            (
                PlanOp::Int { src, dst, src_w, dst_w, signed, count },
                PlanOp::Int { src: s2, dst: d2, src_w: sw2, dst_w: dw2, signed: sg2, count: c2 },
            ) if *src_w == sw2
                && *dst_w == dw2
                && *signed == sg2
                && *src + u32::from(*src_w) * *count == s2
                && *dst + u32::from(*dst_w) * *count == d2 =>
            {
                *count += c2;
                return;
            }
            (
                PlanOp::Float { src, dst, src_w, dst_w, count },
                PlanOp::Float { src: s2, dst: d2, src_w: sw2, dst_w: dw2, count: c2 },
            ) if *src_w == sw2
                && *dst_w == dw2
                && *src + u32::from(*src_w) * *count == s2
                && *dst + u32::from(*dst_w) * *count == d2 =>
            {
                *count += c2;
                return;
            }
            _ => {}
        }
    }
    ops.push(op);
}

fn elem_op(conv: ElemKind, src: usize, dst: usize, sw: usize, tw: usize, n: usize) -> PlanOp {
    let (src, dst, n) = (src as u32, dst as u32, n as u32);
    match conv {
        ElemKind::Copy => PlanOp::Copy { src, dst, len: sw as u32 * n },
        ElemKind::Swap => PlanOp::Swap { src, dst, width: sw as u8, count: n },
        ElemKind::Int { signed } => {
            PlanOp::Int { src, dst, src_w: sw as u8, dst_w: tw as u8, signed, count: n }
        }
        ElemKind::Float => PlanOp::Float { src, dst, src_w: sw as u8, dst_w: tw as u8, count: n },
    }
}

impl ConvertPlan {
    /// Lower a (sender, receiver) descriptor pair into a conversion
    /// program.  Field matching and type checking happen here, once.
    pub fn compile(
        from: &FormatDescriptor,
        to: &FormatDescriptor,
    ) -> Result<ConvertPlan, PbioError> {
        // The sender's encode program lists its slots in this order.
        let slot_index: HashMap<usize, usize> =
            from.varlen_slots().iter().enumerate().map(|(i, s)| (s.slot_offset, i)).collect();
        let mut ops = Vec::new();
        let mut var_ops = Vec::new();
        compile_fields(from, 0, to, 0, &slot_index, &mut ops, &mut var_ops)?;
        Ok(ConvertPlan { program: ConvertProgram { ops, var_ops } })
    }

    /// The program this plan runs, for static verification.
    pub fn program(&self) -> &ConvertProgram {
        &self.program
    }
}

#[allow(clippy::too_many_arguments)]
fn compile_fields(
    from: &FormatDescriptor,
    from_base: usize,
    to: &FormatDescriptor,
    to_base: usize,
    slot_index: &HashMap<usize, usize>,
    ops: &mut Vec<PlanOp>,
    var_ops: &mut Vec<VarOpProgram>,
) -> Result<(), PbioError> {
    let so = from.machine.byte_order;
    let to_order = to.machine.byte_order;
    for tf in &to.fields {
        // Receiver-side fields the sender does not have stay zeroed:
        // PBIO's restricted evolution.
        let Some(sf) = from.field(&tf.name) else { continue };
        let s_off = from_base + sf.offset;
        let t_off = to_base + tf.offset;
        let mismatch = || PbioError::TypeMismatch {
            field: tf.name.clone(),
            expected: tf.kind.describe(),
            actual: sf.kind.describe(),
        };
        match (&tf.kind, &sf.kind) {
            (FieldKind::Scalar(tb), FieldKind::Scalar(sb)) => {
                let conv =
                    classify(*sb, sf.size, so, *tb, tf.size, to_order).ok_or_else(mismatch)?;
                push_coalesced(ops, elem_op(conv, s_off, t_off, sf.size, tf.size, 1));
            }
            (FieldKind::String, FieldKind::String) => {
                let src_idx = slot_index[&s_off];
                var_ops.push(VarOpProgram { src_idx, dst_off: t_off, conv: VarConvProgram::Move });
            }
            (
                FieldKind::DynamicArray { elem: te, elem_size: tes, .. },
                FieldKind::DynamicArray { elem: se, elem_size: ses, .. },
            ) => {
                let conv = classify(*se, *ses, so, *te, *tes, to_order).ok_or_else(mismatch)?;
                let src_idx = slot_index[&s_off];
                let conv = if conv == ElemKind::Copy {
                    VarConvProgram::Move
                } else {
                    VarConvProgram::Elem { conv, src_w: *ses, dst_w: *tes }
                };
                var_ops.push(VarOpProgram { src_idx, dst_off: t_off, conv });
            }
            (
                FieldKind::StaticArray { elem: te, elem_size: tes, count: tc },
                FieldKind::StaticArray { elem: se, elem_size: ses, count: sc },
            ) => {
                let conv = classify(*se, *ses, so, *te, *tes, to_order).ok_or_else(mismatch)?;
                let n = (*tc).min(*sc);
                if n > 0 {
                    push_coalesced(ops, elem_op(conv, s_off, t_off, *ses, *tes, n));
                }
            }
            (FieldKind::Nested(tsub), FieldKind::Nested(ssub)) => {
                compile_fields(ssub, s_off, tsub, t_off, slot_index, ops, var_ops)?;
            }
            _ => return Err(mismatch()),
        }
    }
    Ok(())
}

/// Convert the `src.len() / src_w` elements of `src` into `dst`.
fn convert_elems(
    conv: ElemKind,
    src: &[u8],
    src_w: usize,
    src_order: ByteOrder,
    dst: &mut [u8],
    dst_w: usize,
    dst_order: ByteOrder,
) {
    let count = src.len() / src_w;
    let (src, dst) = (&src[..count * src_w], &mut dst[..count * dst_w]);
    match conv {
        ElemKind::Copy => dst.copy_from_slice(src),
        ElemKind::Swap => kernels::swap_elems(src, dst, src_w),
        ElemKind::Int { signed } => {
            kernels::convert_ints(src, src_w, src_order, signed, dst, dst_w, dst_order)
        }
        ElemKind::Float => kernels::convert_floats(src, src_w, src_order, dst, dst_w, dst_order),
    }
}

impl ConvertPlan {
    /// Run the fixed-image ops from the sender image `data` into the
    /// zeroed receiver image `fixed`.
    fn run_fixed_ops(
        &self,
        src: &EncodeProgram,
        dst: &EncodeProgram,
        data: &[u8],
        fixed: &mut [u8],
    ) {
        for op in &self.program.ops {
            let (conv, s, d, sw, dw, n) = match *op {
                PlanOp::Copy { src, dst, len } => (ElemKind::Copy, src, dst, 1, 1, len),
                PlanOp::Swap { src, dst, width, count } => {
                    (ElemKind::Swap, src, dst, width, width, count)
                }
                PlanOp::Int { src, dst, src_w, dst_w, signed, count } => {
                    (ElemKind::Int { signed }, src, dst, src_w, dst_w, count)
                }
                PlanOp::Float { src, dst, src_w, dst_w, count } => {
                    (ElemKind::Float, src, dst, src_w, dst_w, count)
                }
            };
            let (s, d, sw, dw, n) = (s as usize, d as usize, sw as usize, dw as usize, n as usize);
            convert_elems(
                conv,
                &data[s..s + n * sw],
                sw,
                src.order,
                &mut fixed[d..d + n * dw],
                dw,
                dst.order,
            );
        }
    }
}

/// Locate and validate every payload of `data`, a data section in the
/// sender's format, through the sender's slot table (borrowed), exactly
/// as the interpreted extract does.
fn locate_all<'a>(
    src: &EncodeProgram,
    data: &'a [u8],
) -> Result<Vec<Option<VarSlice<'a>>>, PbioError> {
    check_record_size(data, src.record_size)?;
    src.slots.iter().map(|slot| locate_payload(data, slot, src.order)).collect()
}

/// Make each of the receiver's length fields agree with the payload
/// converted into the array that sets it (`fixes_len`), as
/// `convert::fix_dynamic_lengths` does: `payload_len(i)` is the byte
/// length of the payload in the receiver's slot `i`.
fn fix_lengths(dst: &EncodeProgram, fixed: &mut [u8], payload_len: impl Fn(usize) -> usize) {
    for (i, slot) in dst.slots.iter().enumerate() {
        if let SlotPayloadProgram::Array { elem_size, len_off, len_size, fixes_len: true, .. } =
            &slot.payload
        {
            let count = payload_len(i) / elem_size;
            write_uint(&mut fixed[*len_off..*len_off + *len_size], dst.order, count as u64);
        }
    }
}

/// Run a conversion plan over a wire data section, producing a record in
/// the receiver's representation.  `src` and `dst` are the sender's and
/// the receiver's certified encode plans.  Extraction happens in place —
/// the sender's payloads are borrowed from `data` and copied at most
/// once, directly into their converted destination.
pub(crate) fn execute_convert(
    plan: &ConvertPlan,
    src: &EncodePlan,
    dst: &EncodePlan,
    data: &[u8],
    target: &Arc<FormatDescriptor>,
) -> Result<RawRecord, PbioError> {
    let (src, dst) = (&src.program, &dst.program);
    let vars = locate_all(src, data)?;
    let mut fixed = vec![0u8; dst.record_size];
    plan.run_fixed_ops(src, dst, data, &mut fixed);

    // Var-length payloads, borrowed source → converted destination.
    let mut allocs = 1u64; // the destination fixed image
    let mut copied = fixed.len() as u64;
    let mut varlen = BTreeMap::new();
    for vo in &plan.program.var_ops {
        match (vo.conv, vars[vo.src_idx]) {
            (_, None) => {}
            (VarConvProgram::Move, Some(VarSlice::Str(s))) => {
                allocs += 1;
                copied += s.len() as u64;
                varlen.insert(vo.dst_off, VarData::Str(s.to_string()));
            }
            (VarConvProgram::Move, Some(VarSlice::Bytes(b))) => {
                allocs += 1;
                copied += b.len() as u64;
                varlen.insert(vo.dst_off, VarData::Bytes(b.to_vec()));
            }
            (VarConvProgram::Elem { conv, src_w, dst_w }, Some(VarSlice::Bytes(b))) => {
                let mut out = vec![0u8; b.len() / src_w * dst_w];
                convert_elems(conv, b, src_w, src.order, &mut out, dst_w, dst.order);
                allocs += 1;
                copied += out.len() as u64;
                varlen.insert(vo.dst_off, VarData::Bytes(out));
            }
            (VarConvProgram::Elem { .. }, Some(VarSlice::Str(_))) => {
                unreachable!("element conversion only compiles for array slots")
            }
        }
    }
    let counters = openmeta_obs::marshal_counters();
    counters.alloc_total.add(allocs);
    counters.bytes_copied_total.add(copied);

    fix_lengths(dst, &mut fixed, |i| match varlen.get(&dst.slots[i].off) {
        Some(VarData::Bytes(b)) => b.len(),
        _ => 0,
    });
    Ok(RawRecord::from_parts(target.clone(), fixed, varlen))
}

/// Run a conversion plan from one wire data section straight into the
/// target's wire image, appended to `out`: the receiver-makes-right
/// conversion run at the sender, with no intermediate record.
///
/// `src` and `dst` are the sender's and the target's certified encode
/// plans.  The target's slot table places the converted payloads and
/// patches the pointer slots exactly as [`execute_encode`] would for the
/// record [`execute_convert`] returns, and the same dimension check
/// applies, so the output is byte-identical to `encode(decode_with(..))`
/// and so are the errors.  Every byte is written once, straight into
/// `out`.  Returns the bytes appended.
pub(crate) fn execute_convert_wire(
    plan: &ConvertPlan,
    src: &EncodePlan,
    dst: &EncodePlan,
    data: &[u8],
    out: &mut Vec<u8>,
) -> Result<usize, PbioError> {
    let (prog, src, tgt) = (&plan.program, &src.program, &dst.program);
    let vars = locate_all(src, data)?;

    // Pass 1: each target slot's source payload, converted length and
    // placement — the same placement rule as `execute_encode`.
    let mut placed = Vec::with_capacity(tgt.slots.len());
    let mut data_size = tgt.record_size;
    for slot in &tgt.slots {
        let moved = prog
            .var_ops
            .iter()
            .find(|vo| vo.dst_off == slot.off)
            .and_then(|vo| vars[vo.src_idx].map(|v| (vo.conv, v)));
        let (len, align) = match (&slot.payload, moved) {
            (SlotPayloadProgram::Str, Some((_, VarSlice::Str(s)))) => (s.len() + 1, 1),
            (SlotPayloadProgram::Array { elem_size, .. }, Some((conv, VarSlice::Bytes(b)))) => {
                let len = match conv {
                    VarConvProgram::Move => b.len(),
                    VarConvProgram::Elem { src_w, dst_w, .. } => b.len() / src_w * dst_w,
                };
                (len, (*elem_size).max(1))
            }
            (_, None) => (0, 1),
            (_, Some(_)) => unreachable!("var ops only pair strings with strings"),
        };
        placed.push((moved, place(&mut data_size, len, align), len));
    }

    // Pass 2: header and fixed image, converted in place.
    let order = tgt.order;
    let start = out.len();
    out.reserve(HEADER_SIZE + data_size);
    out.extend_from_slice(&tgt.header);
    out[start + 12..start + 16].copy_from_slice(&(data_size as u32).to_be_bytes());
    let data_start = out.len();
    out.resize(data_start + tgt.record_size, 0);
    let fixed = &mut out[data_start..];
    plan.run_fixed_ops(src, tgt, data, fixed);
    fix_lengths(tgt, fixed, |i| placed[i].2);
    for (slot, &(_, at, len)) in tgt.slots.iter().zip(&placed) {
        if let SlotPayloadProgram::Array { elem_size, len_off, len_size, len_name, .. } =
            &slot.payload
        {
            let declared = read_uint(&fixed[*len_off..*len_off + *len_size], order) as usize;
            let have = len / elem_size;
            if declared != have {
                out.truncate(start);
                return Err(dimension_error(slot, len_name, declared, have));
            }
        }
        write_pointer(&mut fixed[slot.off..slot.off + slot.size], order, at);
    }

    // Pass 3: payloads, each converted straight into its placement.
    for &(moved, at, len) in &placed {
        let Some((conv, payload)) = moved.filter(|_| len != 0) else { continue };
        out.resize(data_start + at, 0);
        match (conv, payload) {
            (_, VarSlice::Str(s)) => {
                out.extend_from_slice(s.as_bytes());
                out.push(0);
            }
            (VarConvProgram::Move, VarSlice::Bytes(b)) => out.extend_from_slice(b),
            (VarConvProgram::Elem { conv, src_w, dst_w }, VarSlice::Bytes(b)) => {
                let from = out.len();
                out.resize(from + len, 0);
                let dst = &mut out[from..];
                convert_elems(conv, b, src_w, src.order, dst, dst_w, order);
            }
        }
    }
    debug_assert_eq!(out.len() - data_start, data_size);
    let written = out.len() - start;
    openmeta_obs::marshal_counters().bytes_copied_total.add(written as u64);
    Ok(written)
}

// ---------------------------------------------------------------------------
// Encoder: plan + buffer reuse for hot send paths.
// ---------------------------------------------------------------------------

/// The certified plan `desc` holds.  Encoders belong to no registry, so a
/// fill here counts only in the process-wide plan-cache misses.
pub(crate) fn encoder_plan(desc: &FormatDescriptor) -> Result<&EncodePlan, PbioError> {
    static MISSES: OnceLock<Arc<Counter>> = OnceLock::new();
    let (plan, filled) = desc.encode_plan();
    if filled {
        let global = || MetricsRegistry::global().counter("openmeta_plan_cache_misses_total");
        MISSES.get_or_init(global).inc();
    }
    plan
}

/// Per-encoder marshal statistics, exact and race-free (unlike the
/// process-global `openmeta_marshal_*` counters, which sum every
/// encoder/decoder in the process).  The fig7 `alloc_per_op` column and
/// the zero-allocation CI assertion read these.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MarshalStats {
    /// Heap allocations this encoder caused (output-buffer growth).
    pub allocs: u64,
    /// Bytes this encoder wrote into output buffers.
    pub bytes_copied: u64,
}

/// Encodes per window before the output buffer is considered for
/// shrinking back toward the window's peak message size.
const TRIM_WINDOW: u32 = 64;

/// Never shrink the output buffer below this capacity.
const TRIM_MIN_CAPACITY: usize = 4 * 1024;

/// A reusable encode handle: runs the certified plan each record's
/// descriptor holds into a pooled output buffer, so a steady-state
/// sender does zero per-message heap allocations.
///
/// The output buffer comes from a [`BufferPool`](crate::pool::BufferPool)
/// (the global one by default) and returns to it when the encoder drops.
/// Two policies keep a burst of outsized records from pinning peak-sized
/// memory: the pool refuses to shelve buffers over its retain cap, and
/// the encoder itself shrinks its buffer once per 64 encodes (`TRIM_WINDOW`)
/// when capacity has grown to more than 4× the window's peak message.
#[derive(Debug)]
pub struct Encoder {
    placements: Vec<(usize, usize)>,
    buf: crate::pool::PooledBuf,
    stats: MarshalStats,
    window_peak: usize,
    window_len: u32,
}

impl Default for Encoder {
    fn default() -> Self {
        Encoder::new()
    }
}

impl Encoder {
    /// A fresh encoder drawing its output buffer from the global
    /// [`BufferPool`](crate::pool::BufferPool).
    pub fn new() -> Self {
        Encoder {
            placements: Vec::new(),
            buf: crate::pool::BufferPool::global().get(),
            stats: MarshalStats::default(),
            window_peak: 0,
            window_len: 0,
        }
    }

    /// Cumulative allocation/copy counters for this encoder instance.
    pub fn marshal_stats(&self) -> MarshalStats {
        self.stats
    }

    /// Record one encode's cost against the instance stats; `true` when
    /// `cap_before` shows the output buffer grew.
    fn account(&mut self, cap_before: usize, cap_after: usize, written: usize) -> bool {
        self.stats.bytes_copied += written as u64;
        let grew = cap_after > cap_before;
        if grew {
            self.stats.allocs += 1;
        }
        grew
    }

    /// Shrink the internal buffer once per window if it has ballooned
    /// well past the window's peak message size.
    fn maybe_trim(&mut self, written: usize) {
        self.window_peak = self.window_peak.max(written);
        self.window_len += 1;
        if self.window_len >= TRIM_WINDOW {
            let keep = self.window_peak.max(TRIM_MIN_CAPACITY);
            if self.buf.capacity() / 4 > keep {
                self.buf.shrink_to(keep);
            }
            self.window_peak = 0;
            self.window_len = 0;
        }
    }

    /// Encode into the encoder's internal pooled buffer and borrow the
    /// result.
    pub fn encode(&mut self, rec: &RawRecord) -> Result<&[u8], PbioError> {
        let _span = openmeta_obs::span!("marshal.encode");
        let plan = encoder_plan(rec.format())?;
        self.buf.clear();
        let cap_before = self.buf.capacity();
        let n = execute_encode(plan, rec, &mut self.buf, &mut self.placements)?;
        if self.account(cap_before, self.buf.capacity(), n) {
            openmeta_obs::marshal_counters().alloc_total.inc();
        }
        self.maybe_trim(n);
        Ok(&self.buf)
    }

    /// Encode appending to a caller buffer; returns the bytes written.
    ///
    /// Growth of `out` counts in this encoder's [`MarshalStats`] but not
    /// in the process-wide `openmeta_marshal_alloc_total`: `out` is the
    /// caller's, and when it comes from a [`BufferPool`] its capacity
    /// depends on which buffer the pool handed out, so the global count
    /// would not repeat from run to run.
    ///
    /// [`BufferPool`]: crate::pool::BufferPool
    pub fn encode_into(&mut self, rec: &RawRecord, out: &mut Vec<u8>) -> Result<usize, PbioError> {
        let _span = openmeta_obs::span!("marshal.encode");
        let plan = encoder_plan(rec.format())?;
        let cap_before = out.capacity();
        let n = execute_encode(plan, rec, out, &mut self.placements)?;
        self.account(cap_before, out.capacity(), n);
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::IOField;
    use crate::format::FormatSpec;
    use crate::machine::MachineModel;
    use crate::marshal::{encode, encode_into_interpreted, HEADER_SIZE};
    use crate::registry::FormatRegistry;

    fn mixed_fmt(reg: &FormatRegistry) -> Arc<FormatDescriptor> {
        reg.register(FormatSpec::new(
            "Mixed",
            vec![
                IOField::auto("id", "integer", 4),
                IOField::auto("x", "float", 8),
                IOField::auto("who", "string", 0),
                IOField::auto("n", "integer", 4),
                IOField::auto("vals", "float[n]", 8),
                IOField::auto("grid", "integer[4]", 2),
            ],
        ))
        .unwrap()
    }

    fn mixed_rec(fmt: Arc<FormatDescriptor>) -> RawRecord {
        let mut rec = RawRecord::new(fmt);
        rec.set_i64("id", -7).unwrap();
        rec.set_f64("x", 6.5).unwrap();
        rec.set_string("who", "vis5d").unwrap();
        rec.set_f64_array("vals", &[1.0, -2.5]).unwrap();
        for i in 0..4 {
            rec.set_elem_i64("grid", i, i as i64 - 2).unwrap();
        }
        rec
    }

    #[test]
    fn compiled_encode_matches_interpreted() {
        for machine in [MachineModel::SPARC32, MachineModel::X86_64] {
            let reg = FormatRegistry::new(machine);
            let rec = mixed_rec(mixed_fmt(&reg));
            let mut interp = Vec::new();
            encode_into_interpreted(&rec, &mut interp).unwrap();
            let plan = EncodePlan::compile(rec.format()).unwrap();
            let mut compiled = Vec::new();
            execute_encode(&plan, &rec, &mut compiled, &mut Vec::new()).unwrap();
            assert_eq!(compiled, interp);
        }
    }

    #[test]
    fn compiled_extract_matches_interpreted() {
        let reg = FormatRegistry::new(MachineModel::SPARC32);
        let rec = mixed_rec(mixed_fmt(&reg));
        let wire = encode(&rec).unwrap();
        let data = &wire[HEADER_SIZE..];
        let plan = EncodePlan::compile(rec.format()).unwrap();
        let prog = plan.program();
        let (fixed, varlen) = extract(data, prog).unwrap();
        let (ifixed, ivarlen) = crate::convert::extract(data, rec.format()).unwrap();
        assert_eq!(fixed, ifixed);
        assert_eq!(varlen, ivarlen);
    }

    #[test]
    fn convert_plan_matches_interpreted_cross_machine() {
        let sender = FormatRegistry::new(MachineModel::SPARC32);
        let receiver = FormatRegistry::new(MachineModel::X86_64);
        let spec = |long: usize| {
            FormatSpec::new(
                "M",
                vec![
                    IOField::auto("a", "integer", 4),
                    IOField::auto("big", "unsigned integer", long),
                    IOField::auto("s", "string", 0),
                    IOField::auto("n", "integer", 4),
                    IOField::auto("xs", "float[n]", 4),
                    IOField::auto("grid", "integer[3]", 4),
                ],
            )
        };
        let sfmt = sender.register(spec(4)).unwrap();
        let tfmt = receiver.register(spec(8)).unwrap();
        let mut rec = RawRecord::new(sfmt.clone());
        rec.set_i64("a", -9).unwrap();
        rec.set_u64("big", 0xDEAD_BEEF).unwrap();
        rec.set_string("s", "plan").unwrap();
        rec.set_f64_array("xs", &[0.5, 1.5, 2.5]).unwrap();
        for i in 0..3 {
            rec.set_elem_i64("grid", i, -(i as i64)).unwrap();
        }
        let wire = encode(&rec).unwrap();
        let data = &wire[HEADER_SIZE..];
        let plan = ConvertPlan::compile(&sfmt, &tfmt).unwrap();
        let (src, dst) = (sfmt.encode_plan().0.unwrap(), tfmt.encode_plan().0.unwrap());
        let compiled = execute_convert(&plan, src, dst, data, &tfmt).unwrap();
        let (fixed, varlen) = crate::convert::extract(data, &sfmt).unwrap();
        let interp = crate::convert::convert_record(&fixed, &varlen, &sfmt, &tfmt).unwrap();
        assert_eq!(compiled, interp);
        assert_eq!(compiled.get_u64("big").unwrap(), 0xDEAD_BEEF);
        assert_eq!(compiled.get_f64_array("xs").unwrap(), vec![0.5, 1.5, 2.5]);
    }

    #[test]
    fn shared_length_field_is_fixed_in_declaration_order() {
        // The receiver's `a` and `b` share `n`; `a` is declared first but
        // placed after `b`.  The interpreter fixes `n` in declaration
        // order, so `b`'s count wins, and a re-encode then trips on `a`.
        let sender = FormatRegistry::new(MachineModel::X86_64);
        let receiver = FormatRegistry::new(MachineModel::X86_64);
        let sfmt = sender
            .register(FormatSpec::new(
                "Shared",
                vec![
                    IOField::auto("n", "integer", 4),
                    IOField::auto("m", "integer", 4),
                    IOField::auto("a", "float[n]", 8),
                    IOField::auto("b", "float[m]", 8),
                ],
            ))
            .unwrap();
        let tfmt = receiver
            .register(FormatSpec::new(
                "Shared",
                vec![
                    IOField::at("n", "integer", 4, 0),
                    IOField::at("a", "float[n]", 8, 16),
                    IOField::at("b", "float[n]", 8, 8),
                ],
            ))
            .unwrap();
        let mut rec = RawRecord::new(sfmt.clone());
        rec.set_f64_array("a", &[1.0, 2.0, 3.0]).unwrap();
        rec.set_f64_array("b", &[4.0]).unwrap();
        let wire = encode(&rec).unwrap();
        receiver.register_descriptor((*sfmt).clone());

        let compiled = crate::marshal::decode_with(&wire, &receiver, &tfmt).unwrap();
        let interp = crate::marshal::decode_with_interpreted(&wire, &receiver, &tfmt).unwrap();
        assert_eq!(compiled, interp);
        assert_eq!(compiled.get_i64("n").unwrap(), 1);

        let err = crate::marshal::convert_wire_into(&wire, &receiver, &tfmt, &mut Vec::new());
        let want = encode(&interp).unwrap_err();
        assert!(matches!(want, PbioError::BadDimension { ref field, .. } if field == "a"));
        assert_eq!(err.unwrap_err(), want);
    }

    #[test]
    fn type_mismatch_detected_at_compile_time() {
        let reg = FormatRegistry::new(MachineModel::native());
        let as_int =
            reg.register(FormatSpec::new("T", vec![IOField::auto("x", "integer", 4)])).unwrap();
        let as_str = Arc::new(
            FormatDescriptor::resolve(
                &FormatSpec::new("T", vec![IOField::auto("x", "string", 0)]),
                MachineModel::native(),
                &|_| None,
            )
            .unwrap(),
        );
        assert!(matches!(
            ConvertPlan::compile(&as_int, &as_str),
            Err(PbioError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn adjacent_same_kind_fields_coalesce() {
        // Four consecutive BE u32s converted to LE coalesce into one Swap
        // op of count 4; identical machines coalesce into a single Copy.
        let be = FormatRegistry::new(MachineModel::SPARC32);
        let le = FormatRegistry::new(MachineModel::X86_64);
        let spec = FormatSpec::new(
            "Run",
            vec![
                IOField::auto("a", "integer", 4),
                IOField::auto("b", "integer", 4),
                IOField::auto("c", "integer", 4),
                IOField::auto("d", "integer", 4),
            ],
        );
        let bfmt = be.register(spec.clone()).unwrap();
        let lfmt = le.register(spec.clone()).unwrap();
        let cross = ConvertPlan::compile(&bfmt, &lfmt).unwrap();
        assert_eq!(cross.program().ops.len(), 1);
        assert!(matches!(cross.program().ops[0], PlanOp::Swap { count: 4, width: 4, .. }));
        let same = ConvertPlan::compile(&bfmt, &bfmt).unwrap();
        assert_eq!(same.program().ops.len(), 1);
        assert!(matches!(same.program().ops[0], PlanOp::Copy { len: 16, .. }));
    }

    #[test]
    fn encoder_reuses_buffer_and_plans() {
        let reg = FormatRegistry::new(MachineModel::native());
        let fmt = mixed_fmt(&reg);
        let mut enc = Encoder::new();
        let rec = mixed_rec(fmt.clone());
        let reference = encode(&rec).unwrap();
        for _ in 0..3 {
            let wire = enc.encode(&rec).unwrap();
            assert_eq!(wire, &reference[..]);
        }
        let (_, compiled) = fmt.encode_plan();
        assert!(!compiled, "the encoder ran the plan the descriptor holds");
        let mut out = Vec::new();
        let n = enc.encode_into(&rec, &mut out).unwrap();
        assert_eq!(n, reference.len());
        assert_eq!(out, reference);
    }

    #[test]
    fn corrupt_pointer_rejected_with_same_error_text() {
        let reg = FormatRegistry::new(MachineModel::native());
        let fmt =
            reg.register(FormatSpec::new("S", vec![IOField::auto("s", "string", 0)])).unwrap();
        let mut rec = RawRecord::new(fmt.clone());
        rec.set_string("s", "ok").unwrap();
        let mut wire = encode(&rec).unwrap();
        for b in &mut wire[HEADER_SIZE..HEADER_SIZE + 4] {
            *b = 0xff;
        }
        let data = &wire[HEADER_SIZE..];
        let plan = EncodePlan::compile(&fmt).unwrap();
        let prog = plan.program();
        let compiled_err = extract(data, prog).unwrap_err();
        let interp_err = crate::convert::extract(data, &fmt).unwrap_err();
        assert_eq!(format!("{compiled_err}"), format!("{interp_err}"));
    }
}
