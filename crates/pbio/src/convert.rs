//! Receiver-makes-right conversion.
//!
//! PBIO ships the sender's native representation; all representation work
//! happens at the receiver, and only when something actually differs:
//! byte order, scalar widths (`long` is 4 bytes on the paper's SPARC32 and
//! 8 on LP64), pointer-slot sizes, offsets/padding, or the field set
//! itself.  Fields are matched **by name**, which is what gives PBIO its
//! restricted format evolution: senders may add fields without breaking
//! old receivers (extras are ignored), and receivers may know fields the
//! sender lacks (they stay zero).

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::error::PbioError;
use crate::format::FormatDescriptor;
use crate::machine::ByteOrder;
use crate::plan::scalar_category;
use crate::record::{read_float, read_int, read_uint, write_float, write_uint, RawRecord, VarData};
use crate::types::{BaseType, FieldKind};

/// Pull the fixed image and the var-length payloads out of a wire data
/// section, validating every offset against the buffer bounds.
///
/// The returned fixed image has its pointer slots zeroed (wire offsets
/// are meaningless once payloads live out of line).
pub(crate) fn extract(
    data: &[u8],
    desc: &FormatDescriptor,
) -> Result<(Vec<u8>, BTreeMap<usize, VarData>), PbioError> {
    if data.len() < desc.record_size {
        return Err(PbioError::BadWireData(format!(
            "data section of {} bytes is smaller than the {}-byte record",
            data.len(),
            desc.record_size
        )));
    }
    let order = desc.machine.byte_order;
    let mut fixed = data[..desc.record_size].to_vec();
    let mut varlen = BTreeMap::new();
    for s in desc.varlen_slots() {
        let slot = &data[s.slot_offset..s.slot_offset + s.field.size];
        let ptr_bytes = match order {
            ByteOrder::Big => &slot[s.field.size - 4..],
            ByteOrder::Little => &slot[..4],
        };
        let at = read_uint(ptr_bytes, order) as usize;
        fixed[s.slot_offset..s.slot_offset + s.field.size].fill(0);
        if at == 0 {
            continue;
        }
        if at >= data.len() {
            return Err(PbioError::BadWireData(format!(
                "field '{}' points at {at}, beyond the {}-byte data section",
                s.field.name,
                data.len()
            )));
        }
        match &s.field.kind {
            FieldKind::String => {
                let tail = &data[at..];
                let end = tail.iter().position(|&b| b == 0).ok_or_else(|| {
                    PbioError::BadWireData(format!("field '{}': unterminated string", s.field.name))
                })?;
                let text = std::str::from_utf8(&tail[..end]).map_err(|_| {
                    PbioError::BadWireData(format!("field '{}': string not UTF-8", s.field.name))
                })?;
                varlen.insert(s.slot_offset, VarData::Str(text.to_string()));
            }
            FieldKind::DynamicArray { elem_size, length_field, .. } => {
                let lf = s.record.field(length_field).ok_or_else(|| PbioError::BadDimension {
                    field: s.field.name.clone(),
                    reason: format!("length field '{length_field}' missing"),
                })?;
                let lf_off = s.record_base + lf.offset;
                let count = read_uint(&data[lf_off..lf_off + lf.size], order) as usize;
                let bytes_len = count.checked_mul(*elem_size).ok_or_else(|| {
                    PbioError::BadWireData(format!(
                        "field '{}': array length overflows",
                        s.field.name
                    ))
                })?;
                let payload = data.get(at..at + bytes_len).ok_or_else(|| {
                    PbioError::BadWireData(format!(
                        "field '{}': {count}-element payload exceeds the data section",
                        s.field.name
                    ))
                })?;
                varlen.insert(s.slot_offset, VarData::Bytes(payload.to_vec()));
            }
            other => unreachable!("varlen_slots only yields varlen kinds, got {other:?}"),
        }
    }
    Ok((fixed, varlen))
}

/// Convert an extracted record from `from`'s representation into `to`'s.
pub(crate) fn convert_record(
    fixed: &[u8],
    varlen: &BTreeMap<usize, VarData>,
    from: &FormatDescriptor,
    to: &Arc<FormatDescriptor>,
) -> Result<RawRecord, PbioError> {
    let mut out_fixed = vec![0u8; to.record_size];
    let mut out_varlen = BTreeMap::new();
    convert_fields(fixed, varlen, from, 0, to, 0, &mut out_fixed, &mut out_varlen)?;
    fix_dynamic_lengths(to, 0, &mut out_fixed, &out_varlen);
    Ok(RawRecord::from_parts(to.clone(), out_fixed, out_varlen))
}

#[allow(clippy::too_many_arguments)]
fn convert_fields(
    src_fixed: &[u8],
    src_var: &BTreeMap<usize, VarData>,
    from: &FormatDescriptor,
    from_base: usize,
    to: &FormatDescriptor,
    to_base: usize,
    dst_fixed: &mut [u8],
    dst_var: &mut BTreeMap<usize, VarData>,
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
                convert_scalar(
                    &src_fixed[s_off..s_off + sf.size],
                    so,
                    *sb,
                    &mut dst_fixed[t_off..t_off + tf.size],
                    to_order,
                    *tb,
                )
                .map_err(|_| mismatch())?;
            }
            (FieldKind::String, FieldKind::String) => {
                if let Some(v) = src_var.get(&s_off) {
                    dst_var.insert(t_off, v.clone());
                }
            }
            (
                FieldKind::DynamicArray { elem: te, elem_size: tes, .. },
                FieldKind::DynamicArray { elem: se, elem_size: ses, .. },
            ) => {
                if scalar_category(*te) != scalar_category(*se) {
                    return Err(mismatch());
                }
                if let Some(VarData::Bytes(bytes)) = src_var.get(&s_off) {
                    let count = bytes.len() / ses;
                    let mut out = vec![0u8; count * tes];
                    for i in 0..count {
                        convert_scalar(
                            &bytes[i * ses..(i + 1) * ses],
                            so,
                            *se,
                            &mut out[i * tes..(i + 1) * tes],
                            to_order,
                            *te,
                        )
                        .map_err(|_| mismatch())?;
                    }
                    dst_var.insert(t_off, VarData::Bytes(out));
                }
            }
            (
                FieldKind::StaticArray { elem: te, elem_size: tes, count: tc },
                FieldKind::StaticArray { elem: se, elem_size: ses, count: sc },
            ) => {
                if scalar_category(*te) != scalar_category(*se) {
                    return Err(mismatch());
                }
                for i in 0..(*tc).min(*sc) {
                    convert_scalar(
                        &src_fixed[s_off + i * ses..s_off + (i + 1) * ses],
                        so,
                        *se,
                        &mut dst_fixed[t_off + i * tes..t_off + (i + 1) * tes],
                        to_order,
                        *te,
                    )
                    .map_err(|_| mismatch())?;
                }
            }
            (FieldKind::Nested(tsub), FieldKind::Nested(ssub)) => {
                convert_fields(src_fixed, src_var, ssub, s_off, tsub, t_off, dst_fixed, dst_var)?;
            }
            _ => return Err(mismatch()),
        }
    }
    Ok(())
}

/// Convert one scalar across byte order / width / signedness.
fn convert_scalar(
    src: &[u8],
    src_order: ByteOrder,
    src_type: BaseType,
    dst: &mut [u8],
    dst_order: ByteOrder,
    dst_type: BaseType,
) -> Result<(), ()> {
    if scalar_category(src_type) != scalar_category(dst_type) {
        return Err(());
    }
    if scalar_category(src_type) == 1 {
        write_float(dst, dst_order, read_float(src, src_order));
    } else {
        // Sign-extend when the source is signed so widening preserves
        // negative values; destination width truncates.
        let v = if matches!(src_type, BaseType::Integer) {
            read_int(src, src_order) as u64
        } else {
            read_uint(src, src_order)
        };
        write_uint(dst, dst_order, v);
    }
    Ok(())
}

/// After conversion, make every dynamic array's governing length field
/// agree with the payload actually present, so a re-encode is always
/// self-consistent even across renamed or missing length sources.
fn fix_dynamic_lengths(
    desc: &FormatDescriptor,
    base: usize,
    fixed: &mut [u8],
    varlen: &BTreeMap<usize, VarData>,
) {
    let order = desc.machine.byte_order;
    for f in &desc.fields {
        match &f.kind {
            FieldKind::DynamicArray { elem_size, length_field, .. } => {
                let count = match varlen.get(&(base + f.offset)) {
                    Some(VarData::Bytes(b)) => b.len() / elem_size,
                    _ => 0,
                };
                if let Some(lf) = desc.field(length_field) {
                    let off = base + lf.offset;
                    write_uint(&mut fixed[off..off + lf.size], order, count as u64);
                }
            }
            FieldKind::Nested(sub) => fix_dynamic_lengths(sub, base + f.offset, fixed, varlen),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::IOField;
    use crate::format::FormatSpec;
    use crate::machine::MachineModel;
    use crate::marshal::{decode, decode_with, encode};
    use crate::registry::FormatRegistry;

    /// Register the same logical format on two machines and push a record
    /// across, checking values survive.
    #[test]
    fn cross_endian_cross_width_round_trip() {
        let sender = FormatRegistry::new(MachineModel::SPARC32); // BE, long=4
        let receiver = FormatRegistry::new(MachineModel::X86_64); // LE, long=8
        let spec = |long_size: usize| {
            FormatSpec::new(
                "Join",
                vec![
                    IOField::auto("name", "string", 0),
                    IOField::auto("server", "unsigned integer", 4),
                    IOField::auto("ip_addr", "unsigned integer", long_size),
                    IOField::auto("pid", "integer", 4),
                    IOField::auto("score", "float", 4),
                ],
            )
        };
        let sfmt = sender.register(spec(4)).unwrap();
        let rfmt = receiver.register(spec(8)).unwrap();
        assert_ne!(sfmt.id(), rfmt.id());

        let mut rec = RawRecord::new(sfmt.clone());
        rec.set_string("name", "flow2d").unwrap();
        rec.set_u64("server", 42).unwrap();
        rec.set_u64("ip_addr", 0xC0A8_0001).unwrap();
        rec.set_i64("pid", -1234).unwrap();
        rec.set_f64("score", 0.5).unwrap();
        let wire = encode(&rec).unwrap();

        // Receiver knows the sender's format (registered out of band).
        receiver.register_descriptor((*sfmt).clone());
        let back = decode(&wire, &receiver).unwrap();
        assert_eq!(back.format().machine, MachineModel::X86_64);
        assert_eq!(back.get_string("name").unwrap(), "flow2d");
        assert_eq!(back.get_u64("server").unwrap(), 42);
        assert_eq!(back.get_u64("ip_addr").unwrap(), 0xC0A8_0001);
        assert_eq!(back.get_i64("pid").unwrap(), -1234);
        assert_eq!(back.get_f64("score").unwrap(), 0.5);
    }

    #[test]
    fn arrays_convert_across_width_and_order() {
        let sender = FormatRegistry::new(MachineModel::SPARC32);
        let receiver = FormatRegistry::new(MachineModel::X86_64);
        let spec = |fsize: usize| {
            FormatSpec::new(
                "Arr",
                vec![
                    IOField::auto("n", "integer", 4),
                    IOField::auto("xs", "float[n]", fsize),
                    IOField::auto("grid", "integer[4]", 4),
                ],
            )
        };
        let sfmt = sender.register(spec(4)).unwrap();
        receiver.register(spec(8)).unwrap();
        receiver.register_descriptor((*sfmt).clone());

        let mut rec = RawRecord::new(sfmt);
        rec.set_f64_array("xs", &[1.5, -2.5, 3.25]).unwrap();
        for i in 0..4 {
            rec.set_elem_i64("grid", i, -(i as i64)).unwrap();
        }
        let wire = encode(&rec).unwrap();
        let back = decode(&wire, &receiver).unwrap();
        assert_eq!(back.get_f64_array("xs").unwrap(), vec![1.5, -2.5, 3.25]);
        assert_eq!(back.get_i64("n").unwrap(), 3);
        for i in 0..4 {
            assert_eq!(back.get_elem_i64("grid", i).unwrap(), -(i as i64));
        }
    }

    #[test]
    fn format_evolution_sender_added_fields_ignored() {
        let reg = FormatRegistry::new(MachineModel::native());
        // v2 sender format has an extra field the v1 receiver never knew.
        let v2 = reg
            .register(FormatSpec::new(
                "Evt",
                vec![
                    IOField::auto("a", "integer", 4),
                    IOField::auto("extra", "float", 8),
                    IOField::auto("b", "integer", 4),
                ],
            ))
            .unwrap();
        let v1 = Arc::new(
            FormatDescriptor::resolve(
                &FormatSpec::new(
                    "Evt",
                    vec![IOField::auto("a", "integer", 4), IOField::auto("b", "integer", 4)],
                ),
                MachineModel::native(),
                &|_| None,
            )
            .unwrap(),
        );
        let mut rec = RawRecord::new(v2);
        rec.set_i64("a", 1).unwrap();
        rec.set_f64("extra", 9.0).unwrap();
        rec.set_i64("b", 2).unwrap();
        let wire = encode(&rec).unwrap();
        let back = decode_with(&wire, &reg, &v1).unwrap();
        assert_eq!(back.get_i64("a").unwrap(), 1);
        assert_eq!(back.get_i64("b").unwrap(), 2);
        assert!(back.get_f64("extra").is_err(), "receiver never knew 'extra'");
    }

    #[test]
    fn format_evolution_receiver_new_fields_default_zero() {
        let reg = FormatRegistry::new(MachineModel::native());
        let v1 =
            reg.register(FormatSpec::new("Evt", vec![IOField::auto("a", "integer", 4)])).unwrap();
        let v2 = Arc::new(
            FormatDescriptor::resolve(
                &FormatSpec::new(
                    "Evt",
                    vec![
                        IOField::auto("a", "integer", 4),
                        IOField::auto("note", "string", 0),
                        IOField::auto("w", "float", 8),
                    ],
                ),
                MachineModel::native(),
                &|_| None,
            )
            .unwrap(),
        );
        let mut rec = RawRecord::new(v1);
        rec.set_i64("a", 77).unwrap();
        let wire = encode(&rec).unwrap();
        let back = decode_with(&wire, &reg, &v2).unwrap();
        assert_eq!(back.get_i64("a").unwrap(), 77);
        assert_eq!(back.get_string("note").unwrap(), "");
        assert_eq!(back.get_f64("w").unwrap(), 0.0);
    }

    #[test]
    fn incompatible_retyped_field_rejected() {
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
        let rec = RawRecord::new(as_int);
        let wire = encode(&rec).unwrap();
        assert!(matches!(decode_with(&wire, &reg, &as_str), Err(PbioError::TypeMismatch { .. })));
    }

    #[test]
    fn nested_records_convert_recursively() {
        let sender = FormatRegistry::new(MachineModel::SPARC32);
        let receiver = FormatRegistry::new(MachineModel::X86_64);
        for reg in [&sender, &receiver] {
            reg.register(FormatSpec::new(
                "Hdr",
                vec![IOField::auto("seq", "integer", 4), IOField::auto("src", "string", 0)],
            ))
            .unwrap();
            reg.register(FormatSpec::new(
                "Env",
                vec![IOField::auto("hdr", "Hdr", 0), IOField::auto("v", "float", 8)],
            ))
            .unwrap();
        }
        let sfmt = sender.lookup_name("Env").unwrap();
        receiver.register_descriptor((*sfmt).clone());
        let mut rec = RawRecord::new(sfmt);
        rec.set_i64("hdr.seq", 3).unwrap();
        rec.set_string("hdr.src", "coupler").unwrap();
        rec.set_f64("v", 2.75).unwrap();
        let wire = encode(&rec).unwrap();
        let back = decode(&wire, &receiver).unwrap();
        assert_eq!(back.format().machine, MachineModel::X86_64);
        assert_eq!(back.get_i64("hdr.seq").unwrap(), 3);
        assert_eq!(back.get_string("hdr.src").unwrap(), "coupler");
        assert_eq!(back.get_f64("v").unwrap(), 2.75);
    }

    #[test]
    fn truncating_width_conversion_documented_behaviour() {
        // 8-byte sender value into 4-byte receiver field truncates low bits.
        let sender = FormatRegistry::new(MachineModel::X86_64);
        let sfmt = sender
            .register(FormatSpec::new("W", vec![IOField::auto("x", "unsigned integer", 8)]))
            .unwrap();
        let narrow = Arc::new(
            FormatDescriptor::resolve(
                &FormatSpec::new("W", vec![IOField::auto("x", "unsigned integer", 4)]),
                MachineModel::SPARC32,
                &|_| None,
            )
            .unwrap(),
        );
        let mut rec = RawRecord::new(sfmt);
        rec.set_u64("x", 0x1_0000_0002).unwrap();
        let wire = encode(&rec).unwrap();
        let back = decode_with(&wire, &sender, &narrow).unwrap();
        assert_eq!(back.get_u64("x").unwrap(), 2);
    }

    #[test]
    fn extract_rejects_bad_pointers() {
        let reg = FormatRegistry::new(MachineModel::native());
        let fmt =
            reg.register(FormatSpec::new("S", vec![IOField::auto("s", "string", 0)])).unwrap();
        let mut rec = RawRecord::new(fmt.clone());
        rec.set_string("s", "ok").unwrap();
        let wire = encode(&rec).unwrap();
        // Corrupt the pointer slot to point far out of range.
        let mut bad = wire.clone();
        let slot = crate::marshal::HEADER_SIZE;
        for b in &mut bad[slot..slot + 4] {
            *b = 0xff;
        }
        assert!(matches!(decode(&bad, &reg), Err(PbioError::BadWireData(_))));
    }
}
