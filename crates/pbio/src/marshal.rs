//! Encoding records to, and decoding them from, the PBIO wire format.
//!
//! The wire format is deliberately close to the sender's memory image —
//! that is the whole performance story of the paper's Figure 8:
//!
//! ```text
//! byte 0   magic 0x50 0x42 ("PB")
//! byte 2   version (1)
//! byte 3   flags (bit0: sender byte order, 1 = big endian; informational)
//! byte 4   format id, u64 big-endian
//! byte 12  data-section size, u32 big-endian
//! byte 16  reserved (0)
//! byte 20  data section:
//!          [0 .. record_size)   the fixed part, byte-for-byte in the
//!                               sender's native layout, except that each
//!                               pointer slot holds a u32 offset (sender
//!                               byte order) into the data section
//!          [record_size .. )    var-length pool: NUL-terminated strings
//!                               and array element runs, in slot order
//! ```
//!
//! The fixed part is copied with one `memcpy`-equivalent; only pointer
//! slots are patched.  A receiver whose machine model and format match the
//! sender can read fields **in place**: [`decode_borrowed`] returns a
//! [`crate::view::RecordView`] over the wire bytes — the
//! "receiver-makes-right with nothing to make right" fast path.  Otherwise
//! [`decode`] converts to the receiver's native format by running the
//! registry's compiled [`crate::plan::ConvertPlan`]; the field-at-a-time
//! [`crate::convert`] interpreter is only the differential oracle behind
//! `decode_with_interpreted`.

use std::sync::Arc;

use crate::convert::{convert_record, extract};
use crate::error::PbioError;
use crate::format::{FormatDescriptor, FormatId};
use crate::layout::align_up;
use crate::machine::ByteOrder;
use crate::record::{read_uint, write_uint, RawRecord, VarData};
use crate::registry::FormatRegistry;
use crate::types::FieldKind;

/// Wire header size in bytes.
pub const HEADER_SIZE: usize = 20;
pub(crate) const MAGIC: [u8; 2] = *b"PB";
pub(crate) const VERSION: u8 = 1;

/// Encode a record, appending to `out`.  Returns the number of bytes
/// written.
///
/// This runs the certified plan the record's descriptor holds; a
/// [`crate::plan::Encoder`] also reuses its buffers.
pub fn encode_into(rec: &RawRecord, out: &mut Vec<u8>) -> Result<usize, PbioError> {
    let plan = crate::plan::encoder_plan(rec.format())?;
    crate::plan::execute_encode(plan, rec, out, &mut Vec::new())
}

/// Reference field-at-a-time encoder, kept for differential testing of the
/// compiled plans.  Produces byte-identical output to [`encode_into`].
#[doc(hidden)]
pub fn encode_into_interpreted(rec: &RawRecord, out: &mut Vec<u8>) -> Result<usize, PbioError> {
    let desc = rec.format();
    let order = desc.machine.byte_order;
    let slots = desc.varlen_slots();

    // Pass 1: compute payload offsets within the data section.
    let mut data_size = desc.record_size;
    let mut placements: Vec<(usize, usize, usize)> = Vec::with_capacity(slots.len()); // (slot, payload offset, len)
    for s in &slots {
        let (len, align) = match (&s.field.kind, rec.varlen.get(&s.slot_offset)) {
            (FieldKind::String, Some(VarData::Str(v))) => (v.len() + 1, 1),
            (FieldKind::String, None) => (0, 1),
            (FieldKind::DynamicArray { elem_size, length_field, .. }, payload) => {
                let declared = {
                    // Length lives beside the slot, inside the same subrecord.
                    let (off, lf) = s
                        .record
                        .field(length_field)
                        .map(|lf| (s.record_base + lf.offset, lf))
                        .ok_or_else(|| PbioError::BadDimension {
                            field: s.field.name.clone(),
                            reason: format!("length field '{length_field}' missing"),
                        })?;
                    read_uint(&rec.fixed_bytes()[off..off + lf.size], order) as usize
                };
                let have = match payload {
                    Some(VarData::Bytes(b)) => b.len() / elem_size,
                    Some(VarData::Str(_)) => {
                        unreachable!("array slots only ever hold VarData::Bytes")
                    }
                    None => 0,
                };
                if declared != have {
                    return Err(PbioError::BadDimension {
                        field: s.field.name.clone(),
                        reason: format!(
                            "length field '{length_field}' says {declared} elements, \
                             array holds {have}"
                        ),
                    });
                }
                (have * elem_size, (*elem_size).max(1))
            }
            (kind, _) => unreachable!("varlen_slots only yields varlen kinds, got {kind:?}"),
        };
        let at = if len == 0 { 0 } else { align_up(data_size, align) };
        if len != 0 {
            data_size = at + len;
        }
        placements.push((s.slot_offset, at, len));
    }

    // Pass 2: emit.
    let start = out.len();
    out.reserve(HEADER_SIZE + data_size);
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(match order {
        ByteOrder::Big => 1,
        ByteOrder::Little => 0,
    });
    out.extend_from_slice(&desc.id().0.to_be_bytes());
    out.extend_from_slice(&(data_size as u32).to_be_bytes());
    out.extend_from_slice(&[0u8; 4]);
    let data_start = out.len();
    out.extend_from_slice(rec.fixed_bytes());
    // Patch pointer slots with data-section offsets.  The offset sits in
    // the numerically low 4 bytes of the pointer-sized slot.
    for (s, &(slot, payload_at, len)) in slots.iter().zip(&placements) {
        let slot_abs = data_start + slot;
        let ptr = if len == 0 { 0u64 } else { payload_at as u64 };
        let field_size = s.field.size;
        out[slot_abs..slot_abs + field_size].fill(0);
        let (lo, hi) = match order {
            ByteOrder::Big => (slot_abs + field_size - 4, slot_abs + field_size),
            ByteOrder::Little => (slot_abs, slot_abs + 4),
        };
        write_uint(&mut out[lo..hi], order, ptr);
    }
    // Payload pool.
    for (s, &(_, payload_at, len)) in slots.iter().zip(&placements) {
        if len == 0 {
            continue;
        }
        let want = data_start + payload_at;
        debug_assert!(out.len() <= want, "placements are monotone");
        out.resize(want, 0);
        match rec.varlen.get(&s.slot_offset) {
            Some(VarData::Str(v)) => {
                out.extend_from_slice(v.as_bytes());
                out.push(0);
            }
            Some(VarData::Bytes(b)) => out.extend_from_slice(b),
            None => unreachable!("len > 0 implies payload present"),
        }
    }
    debug_assert_eq!(out.len() - data_start, data_size);
    Ok(out.len() - start)
}

/// Encode a record into a fresh buffer.
pub fn encode(rec: &RawRecord) -> Result<Vec<u8>, PbioError> {
    let mut out = Vec::new();
    encode_into(rec, &mut out)?;
    Ok(out)
}

/// Parsed wire header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireHeader {
    /// Content-addressed format id of the sender's format.
    pub format_id: FormatId,
    /// Sender byte order flag.
    pub sender_order: ByteOrder,
    /// Size of the data section in bytes.
    pub data_size: usize,
}

/// Parse and validate the fixed-size wire header.
pub fn parse_header(wire: &[u8]) -> Result<WireHeader, PbioError> {
    if wire.len() < HEADER_SIZE {
        return Err(PbioError::BadWireData(format!(
            "buffer of {} bytes is shorter than the {HEADER_SIZE}-byte header",
            wire.len()
        )));
    }
    if wire[0..2] != MAGIC {
        return Err(PbioError::BadWireData("bad magic".to_string()));
    }
    if wire[2] != VERSION {
        return Err(PbioError::BadWireData(format!("unsupported wire version {}", wire[2])));
    }
    let sender_order = if wire[3] & 1 == 1 { ByteOrder::Big } else { ByteOrder::Little };
    let format_id = FormatId(u64::from_be_bytes(wire[4..12].try_into().expect("8 bytes")));
    let data_size = u32::from_be_bytes(wire[12..16].try_into().expect("4 bytes")) as usize;
    if wire.len() < HEADER_SIZE + data_size {
        return Err(PbioError::BadWireData(format!(
            "header claims {data_size} data bytes, buffer holds {}",
            wire.len() - HEADER_SIZE
        )));
    }
    Ok(WireHeader { format_id, sender_order, data_size })
}

/// Decode into the receiver's native format.
///
/// The sender's descriptor is found by id in `registry`.  If the registry
/// also holds a format of the same *name* (the receiver's own registration,
/// possibly a different version or machine model), the record is converted
/// to that; otherwise the sender's format is adopted as-is.
pub fn decode(wire: &[u8], registry: &FormatRegistry) -> Result<RawRecord, PbioError> {
    let _span = openmeta_obs::span!("marshal.decode");
    let (sender, data) = sender_and_data(wire, registry)?;
    let target = registry.lookup_name(&sender.name).unwrap_or_else(|| sender.clone());
    extract_or_convert(data, registry, &sender, &target)
}

/// Decode into a caller-chosen target format.
///
/// Both the same-format extraction and the cross-format conversion run
/// compiled plans cached in `registry` (see [`crate::plan`]), keyed by the
/// wire's format id, so steady-state decoding pays compilation once per
/// (sender, receiver) pair.
pub fn decode_with(
    wire: &[u8],
    registry: &FormatRegistry,
    target: &Arc<FormatDescriptor>,
) -> Result<RawRecord, PbioError> {
    let _span = openmeta_obs::span!("marshal.decode");
    let (sender, data) = sender_and_data(wire, registry)?;
    extract_or_convert(data, registry, &sender, target)
}

/// Convert a wire image into `target`'s wire image, appended to `out`,
/// without materializing a record: the bytes equal
/// `encode(&decode_with(wire, registry, target)?)`, as do the errors.
/// Returns the bytes appended.
///
/// This is receiver-makes-right run at the sender — an ECho derived
/// channel converts each event once for all of a view's subscribers.
/// It runs the pair's certified [`crate::plan::ConvertPlan`] with the
/// target descriptor's certified [`crate::plan::EncodePlan`] placing the
/// payloads, so every output byte is written once, straight into `out`.
/// Growth of `out` is the caller's allocation and is not counted (see
/// [`crate::plan::Encoder::encode_into`]).
/// Timed as `marshal.decode`: it is the conversion half of a decode.
pub fn convert_wire_into(
    wire: &[u8],
    registry: &FormatRegistry,
    target: &Arc<FormatDescriptor>,
    out: &mut Vec<u8>,
) -> Result<usize, PbioError> {
    let _span = openmeta_obs::span!("marshal.decode");
    let (sender, data) = sender_and_data(wire, registry)?;
    let plan = registry.convert_plan(&sender, target)?;
    crate::plan::execute_convert_wire(&plan, registry.encode_plan(target)?, data, out)
}

/// The sender's descriptor, found in `registry` by the header's format
/// id, and the wire's data section.
fn sender_and_data<'a>(
    wire: &'a [u8],
    registry: &FormatRegistry,
) -> Result<(Arc<FormatDescriptor>, &'a [u8]), PbioError> {
    let header = parse_header(wire)?;
    let sender = registry
        .lookup_id(header.format_id)
        .ok_or(PbioError::UnknownFormatId(header.format_id.0))?;
    Ok((sender, &wire[HEADER_SIZE..HEADER_SIZE + header.data_size]))
}

/// The owned decode of a data section in `sender`'s format: extraction
/// when the formats are identical (the fixed image is already right),
/// conversion otherwise.
fn extract_or_convert(
    data: &[u8],
    registry: &FormatRegistry,
    sender: &Arc<FormatDescriptor>,
    target: &Arc<FormatDescriptor>,
) -> Result<RawRecord, PbioError> {
    if Arc::ptr_eq(sender, target) || sender.id() == target.id() {
        let prog = registry.encode_plan(sender)?.program();
        let (fixed, varlen) =
            crate::plan::extract(data, &prog.slots, prog.order, prog.record_size)?;
        return Ok(RawRecord::from_parts(target.clone(), fixed, varlen));
    }
    let plan = registry.convert_plan(sender, target)?;
    crate::plan::execute_convert(&plan, data, target)
}

/// Result of [`decode_borrowed`]: either a zero-copy view over the wire
/// buffer (sender and receiver layouts match — the PBIO best case) or an
/// owned record from the convert-plan fallback.
#[derive(Debug)]
pub enum Decoded<'a> {
    /// Borrowed view; field accessors read the wire bytes in place.
    View(crate::view::RecordView<'a>),
    /// Owned record produced by the extract/convert fallback.
    Owned(RawRecord),
}

impl Decoded<'_> {
    /// Materialize an owned record either way (copies iff `View`).
    pub fn into_owned(self) -> Result<RawRecord, PbioError> {
        match self {
            Decoded::View(v) => v.to_owned(),
            Decoded::Owned(r) => Ok(r),
        }
    }
}

/// Decode into a caller-chosen target format, borrowing from the wire
/// buffer when the sender's layout matches the receiver's.
///
/// This is the allocation-free decode entry point: when the registry's
/// cached (and, in every build, independently verified)
/// [`crate::plan::ViewPlan`] certifies that the wire data section *is*
/// the receiver's native image, the returned [`Decoded::View`] performs
/// no copy and no allocation.  Otherwise this falls back to exactly what
/// [`decode_with`] does and returns [`Decoded::Owned`].
pub fn decode_borrowed<'a>(
    wire: &'a [u8],
    registry: &FormatRegistry,
    target: &Arc<FormatDescriptor>,
) -> Result<Decoded<'a>, PbioError> {
    let _span = openmeta_obs::span!("marshal.decode");
    let (sender, data) = sender_and_data(wire, registry)?;
    if let Some(plan) = registry.view_plan(&sender, target)? {
        return Ok(Decoded::View(crate::view::RecordView::new(data, plan)?));
    }
    Ok(Decoded::Owned(extract_or_convert(data, registry, &sender, target)?))
}

/// Reference field-at-a-time decoder, kept for differential testing of the
/// compiled plans.  Produces records identical to [`decode_with`].
#[doc(hidden)]
pub fn decode_with_interpreted(
    wire: &[u8],
    registry: &FormatRegistry,
    target: &Arc<FormatDescriptor>,
) -> Result<RawRecord, PbioError> {
    let (sender, data) = sender_and_data(wire, registry)?;
    let (fixed, varlen) = extract(data, &sender)?;
    if Arc::ptr_eq(&sender, target) || sender.id() == target.id() {
        // Fast path: formats identical; the fixed image is already right.
        return Ok(RawRecord::from_parts(target.clone(), fixed, varlen));
    }
    convert_record(&fixed, &varlen, &sender, target)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::IOField;
    use crate::format::FormatSpec;
    use crate::machine::MachineModel;

    fn registry(machine: MachineModel) -> FormatRegistry {
        FormatRegistry::new(machine)
    }

    fn simple_data(reg: &FormatRegistry) -> Arc<FormatDescriptor> {
        reg.register(FormatSpec::new(
            "SimpleData",
            vec![
                IOField::auto("timestep", "integer", 4),
                IOField::auto("size", "integer", 4),
                IOField::auto("data", "float[size]", 4),
            ],
        ))
        .unwrap()
    }

    #[test]
    fn encode_decode_round_trip_same_machine() {
        let reg = registry(MachineModel::native());
        let fmt = simple_data(&reg);
        let mut rec = RawRecord::new(fmt);
        rec.set_i64("timestep", 9999).unwrap();
        rec.set_f64_array("data", &[12.25, -1.5, 0.0]).unwrap();
        let wire = encode(&rec).unwrap();
        let back = decode(&wire, &reg).unwrap();
        assert_eq!(back.get_i64("timestep").unwrap(), 9999);
        assert_eq!(back.get_i64("size").unwrap(), 3);
        assert_eq!(back.get_f64_array("data").unwrap(), vec![12.25, -1.5, 0.0]);
    }

    #[test]
    fn header_contents() {
        let reg = registry(MachineModel::SPARC32);
        let fmt = simple_data(&reg);
        let rec = RawRecord::new(fmt.clone());
        let wire = encode(&rec).unwrap();
        let h = parse_header(&wire).unwrap();
        assert_eq!(h.format_id, fmt.id());
        assert_eq!(h.sender_order, ByteOrder::Big);
        assert_eq!(h.data_size, fmt.record_size); // empty array adds nothing
        assert_eq!(wire.len(), HEADER_SIZE + fmt.record_size);
    }

    #[test]
    fn strings_are_nul_terminated_in_pool() {
        let reg = registry(MachineModel::SPARC32);
        let fmt = reg
            .register(FormatSpec::new(
                "S",
                vec![IOField::auto("a", "string", 0), IOField::auto("b", "string", 0)],
            ))
            .unwrap();
        let mut rec = RawRecord::new(fmt);
        rec.set_string("a", "hi").unwrap();
        rec.set_string("b", "yo").unwrap();
        let wire = encode(&rec).unwrap();
        let data = &wire[HEADER_SIZE..];
        // record is 8 bytes (two 4-byte pointer slots), then "hi\0yo\0".
        assert_eq!(&data[8..11], b"hi\0");
        assert_eq!(&data[11..14], b"yo\0");
        // Slot for 'a' holds offset 8, big-endian.
        assert_eq!(&data[0..4], &[0, 0, 0, 8]);
    }

    #[test]
    fn length_mismatch_detected_at_encode() {
        let reg = registry(MachineModel::native());
        let fmt = simple_data(&reg);
        let mut rec = RawRecord::new(fmt);
        rec.set_f64_array("data", &[1.0, 2.0]).unwrap();
        rec.set_i64("size", 5).unwrap(); // lie about the length
        assert!(matches!(encode(&rec), Err(PbioError::BadDimension { .. })));
    }

    #[test]
    fn truncated_and_corrupt_buffers_rejected() {
        let reg = registry(MachineModel::native());
        let fmt = simple_data(&reg);
        let mut rec = RawRecord::new(fmt);
        rec.set_f64_array("data", &[1.0]).unwrap();
        let wire = encode(&rec).unwrap();
        assert!(decode(&wire[..10], &reg).is_err());
        assert!(decode(&wire[..wire.len() - 1], &reg).is_err());
        let mut bad = wire.clone();
        bad[0] = b'X';
        assert!(decode(&bad, &reg).is_err());
        let mut badver = wire.clone();
        badver[2] = 9;
        assert!(decode(&badver, &reg).is_err());
    }

    #[test]
    fn unknown_format_id_rejected() {
        let reg = registry(MachineModel::native());
        let fmt = simple_data(&reg);
        let rec = RawRecord::new(fmt);
        let wire = encode(&rec).unwrap();
        let empty = registry(MachineModel::native());
        assert!(matches!(decode(&wire, &empty), Err(PbioError::UnknownFormatId(_))));
    }

    #[test]
    fn borrowed_view_reads_in_place() {
        let reg = registry(MachineModel::native());
        let fmt = reg
            .register(FormatSpec::new(
                "V",
                vec![
                    IOField::auto("id", "integer", 4),
                    IOField::auto("x", "float", 8),
                    IOField::auto("who", "string", 0),
                    IOField::auto("n", "integer", 4),
                    IOField::auto("vals", "float[n]", 8),
                ],
            ))
            .unwrap();
        let mut rec = RawRecord::new(fmt.clone());
        rec.set_i64("id", -7).unwrap();
        rec.set_f64("x", 6.5).unwrap();
        rec.set_string("who", "vis5d").unwrap();
        rec.set_f64_array("vals", &[1.0, 2.0]).unwrap();
        let wire = encode(&rec).unwrap();
        let Decoded::View(view) = decode_borrowed(&wire, &reg, &fmt).unwrap() else {
            panic!("same-layout decode must borrow");
        };
        assert_eq!(view.get_i64("id").unwrap(), -7);
        assert_eq!(view.get_f64("x").unwrap(), 6.5);
        assert_eq!(view.get_str("who").unwrap(), "vis5d");
        assert_eq!(view.get_f64_array("vals").unwrap(), vec![1.0, 2.0]);
        assert!(view.get_i64("who").is_err());
        assert!(view.get_f64("missing").is_err());
    }

    #[test]
    fn empty_string_and_empty_array_round_trip() {
        let reg = registry(MachineModel::native());
        let fmt = reg
            .register(FormatSpec::new(
                "E",
                vec![
                    IOField::auto("s", "string", 0),
                    IOField::auto("n", "integer", 4),
                    IOField::auto("a", "float[n]", 4),
                ],
            ))
            .unwrap();
        let rec = RawRecord::new(fmt);
        let wire = encode(&rec).unwrap();
        let back = decode(&wire, &reg).unwrap();
        assert_eq!(back.get_string("s").unwrap(), "");
        assert!(back.get_f64_array("a").unwrap().is_empty());
    }

    #[test]
    fn alignment_of_f64_payload() {
        // With a 4-byte fixed part and 8-byte floats, the payload must be
        // aligned up to 8 within the data section.
        let reg = registry(MachineModel::SPARC32);
        let fmt = reg
            .register(FormatSpec::new(
                "A",
                vec![IOField::auto("n", "integer", 4), IOField::auto("a", "float[n]", 8)],
            ))
            .unwrap();
        assert_eq!(fmt.record_size, 8);
        let mut rec = RawRecord::new(fmt);
        rec.set_f64_array("a", &[1.0]).unwrap();
        let wire = encode(&rec).unwrap();
        let h = parse_header(&wire).unwrap();
        assert_eq!(h.data_size, 16); // 8 fixed + 8 payload, already aligned
    }
}
