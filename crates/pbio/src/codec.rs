//! Binary (de)serialization of format descriptors.
//!
//! Descriptors must themselves cross the network — that is how a receiver
//! that sees an unknown [`crate::format::FormatId`] fetches the metadata
//! from a format server.  The encoding here is PBIO-independent, fixed
//! big-endian, and recursive for nested formats.  It is also the canonical
//! byte string that format ids are hashed over, so it must be deterministic.

use std::sync::Arc;

use crate::error::PbioError;
use crate::format::FormatDescriptor;
use crate::layout::FieldLayout;
use crate::machine::MachineModel;
use crate::types::{BaseType, FieldKind};

const KIND_SCALAR: u8 = 0;
const KIND_STRING: u8 = 1;
const KIND_STATIC: u8 = 2;
const KIND_DYNAMIC: u8 = 3;
const KIND_NESTED: u8 = 4;

/// Deepest nesting [`decode_descriptor`] accepts: the outer format is
/// level 1, each nested member one more.  Decoding recurses once per
/// level, so a peer-chosen depth would otherwise choose our stack depth.
const MAX_NESTING_DEPTH: usize = 64;

/// Serialize a descriptor to its canonical byte string.
pub fn encode_descriptor(d: &FormatDescriptor) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + d.fields.len() * 24);
    write_descriptor(d, &mut out);
    out
}

fn write_str(s: &str, out: &mut Vec<u8>) {
    let bytes = s.as_bytes();
    assert!(bytes.len() <= u16::MAX as usize, "name too long for descriptor codec");
    out.extend_from_slice(&(bytes.len() as u16).to_be_bytes());
    out.extend_from_slice(bytes);
}

fn write_descriptor(d: &FormatDescriptor, out: &mut Vec<u8>) {
    write_str(&d.name, out);
    out.extend_from_slice(&d.machine.tag().to_be_bytes());
    out.extend_from_slice(&(d.record_size as u32).to_be_bytes());
    out.push(d.align as u8);
    out.extend_from_slice(&(d.fields.len() as u16).to_be_bytes());
    for f in &d.fields {
        write_str(&f.name, out);
        out.extend_from_slice(&(f.offset as u32).to_be_bytes());
        out.extend_from_slice(&(f.size as u32).to_be_bytes());
        out.push(f.align as u8);
        match &f.kind {
            FieldKind::Scalar(b) => {
                out.push(KIND_SCALAR);
                out.push(b.code());
            }
            FieldKind::String => out.push(KIND_STRING),
            FieldKind::StaticArray { elem, elem_size, count } => {
                out.push(KIND_STATIC);
                out.push(elem.code());
                out.extend_from_slice(&(*elem_size as u16).to_be_bytes());
                out.extend_from_slice(&(*count as u32).to_be_bytes());
            }
            FieldKind::DynamicArray { elem, elem_size, length_field } => {
                out.push(KIND_DYNAMIC);
                out.push(elem.code());
                out.extend_from_slice(&(*elem_size as u16).to_be_bytes());
                write_str(length_field, out);
            }
            FieldKind::Nested(sub) => {
                out.push(KIND_NESTED);
                write_descriptor(sub, out);
            }
        }
    }
}

/// Cursor over descriptor bytes.
struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], PbioError> {
        if self.pos + n > self.buf.len() {
            return Err(PbioError::BadWireData("truncated descriptor".to_string()));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, PbioError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, PbioError> {
        Ok(u16::from_be_bytes(self.take(2)?.try_into().expect("2 bytes")))
    }

    fn u32(&mut self) -> Result<u32, PbioError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn str(&mut self) -> Result<String, PbioError> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| PbioError::BadWireData("descriptor name is not UTF-8".to_string()))
    }
}

/// Deserialize a descriptor produced by [`encode_descriptor`].
pub fn decode_descriptor(bytes: &[u8]) -> Result<FormatDescriptor, PbioError> {
    let mut cur = Cur { buf: bytes, pos: 0 };
    let d = read_descriptor(&mut cur, 1)?;
    if cur.pos != bytes.len() {
        return Err(PbioError::BadWireData(format!(
            "{} trailing bytes after descriptor",
            bytes.len() - cur.pos
        )));
    }
    Ok(d)
}

fn read_descriptor(cur: &mut Cur<'_>, depth: usize) -> Result<FormatDescriptor, PbioError> {
    if depth > MAX_NESTING_DEPTH {
        return Err(PbioError::BadWireData(format!(
            "descriptor nesting exceeds {MAX_NESTING_DEPTH} levels"
        )));
    }
    let name = cur.str()?;
    let machine = MachineModel::from_tag(cur.u32()?)?;
    let record_size = cur.u32()? as usize;
    let align = cur.u8()? as usize;
    let nfields = cur.u16()? as usize;
    let mut fields = Vec::with_capacity(nfields.min(1024));
    for _ in 0..nfields {
        let fname = cur.str()?;
        let offset = cur.u32()? as usize;
        let size = cur.u32()? as usize;
        let falign = cur.u8()? as usize;
        let kind = match cur.u8()? {
            KIND_SCALAR => FieldKind::Scalar(base(cur.u8()?)?),
            KIND_STRING => FieldKind::String,
            KIND_STATIC => {
                let elem = base(cur.u8()?)?;
                let elem_size = cur.u16()? as usize;
                let count = cur.u32()? as usize;
                FieldKind::StaticArray { elem, elem_size, count }
            }
            KIND_DYNAMIC => {
                let elem = base(cur.u8()?)?;
                let elem_size = cur.u16()? as usize;
                let length_field = cur.str()?;
                FieldKind::DynamicArray { elem, elem_size, length_field }
            }
            KIND_NESTED => FieldKind::Nested(Arc::new(read_descriptor(cur, depth + 1)?)),
            other => {
                return Err(PbioError::BadWireData(format!("unknown field kind code {other}")))
            }
        };
        fields.push(FieldLayout { name: fname, kind, offset, size, align: falign });
    }
    let mut d = FormatDescriptor {
        name,
        machine,
        fields,
        record_size,
        align,
        id: crate::format::FormatId(0),
        plan: Default::default(),
    };
    d.id = d.computed_id();
    Ok(d)
}

fn base(code: u8) -> Result<BaseType, PbioError> {
    BaseType::from_code(code)
        .ok_or_else(|| PbioError::BadWireData(format!("unknown base type code {code}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::IOField;
    use crate::format::FormatSpec;

    fn sample() -> FormatDescriptor {
        let inner = Arc::new(
            FormatDescriptor::resolve(
                &FormatSpec::new("Inner", vec![IOField::auto("a", "integer", 4)]),
                MachineModel::SPARC32,
                &|_| None,
            )
            .unwrap(),
        );
        let r = move |n: &str| (n == "Inner").then(|| inner.clone());
        FormatDescriptor::resolve(
            &FormatSpec::new(
                "Outer",
                vec![
                    IOField::auto("hdr", "Inner", 0),
                    IOField::auto("n", "integer", 4),
                    IOField::auto("xs", "float[n]", 8),
                    IOField::auto("tag", "char[7]", 1),
                    IOField::auto("who", "string", 0),
                    IOField::auto("flag", "boolean", 4),
                ],
            ),
            MachineModel::SPARC32,
            &r,
        )
        .unwrap()
    }

    #[test]
    fn round_trip_preserves_everything() {
        let d = sample();
        let bytes = encode_descriptor(&d);
        let back = decode_descriptor(&bytes).unwrap();
        assert_eq!(back, d);
        assert_eq!(back.id(), d.id());
    }

    #[test]
    fn deterministic_encoding() {
        let d = sample();
        assert_eq!(encode_descriptor(&d), encode_descriptor(&d));
    }

    #[test]
    fn truncation_detected() {
        let bytes = encode_descriptor(&sample());
        for cut in [0, 1, 3, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                decode_descriptor(&bytes[..cut]).is_err(),
                "truncation at {cut} must be detected"
            );
        }
    }

    #[test]
    fn trailing_garbage_detected() {
        let mut bytes = encode_descriptor(&sample());
        bytes.push(0);
        assert!(decode_descriptor(&bytes).is_err());
    }

    #[test]
    fn non_canonical_machine_tags_are_rejected() {
        let good = encode_descriptor(&sample());
        // The tag follows the root's name: u16 length + "Outer".
        let at = 2 + "Outer".len();
        let sparc = MachineModel::SPARC32.tag();
        assert_eq!(good[at..at + 4], sparc.to_be_bytes());
        for bad in [
            sparc | 0b10,                         // unused bit 1
            sparc | 0b1000,                       // unused bit 3
            sparc | (1 << 28),                    // unused bit 28
            sparc | (1 << 31),                    // unused bit 31
            sparc & !(0xff << 20),                // max_align 0
            sparc & !(0xff << 4),                 // pointer size 0
            sparc & !(0xff << 12),                // long size 0
            (sparc & !(0xff << 20)) | (3 << 20),  // max_align 3
            (sparc & !(0xff << 20)) | (32 << 20), // max_align 32
            (sparc & !(0xff << 4)) | (6 << 4),    // pointer size 6
            (sparc & !(0xff << 12)) | (12 << 12), // long size 12
        ] {
            let mut bytes = good.clone();
            bytes[at..at + 4].copy_from_slice(&bad.to_be_bytes());
            let err = decode_descriptor(&bytes).unwrap_err();
            assert!(matches!(err, PbioError::BadWireData(_)), "tag {bad:#010x}: {err:?}");
        }
    }

    /// A descriptor nested `levels` deep below its root, encoded by hand:
    /// building it as a value would recurse as deep as the decoder.
    fn nested_chain(levels: usize) -> Vec<u8> {
        // Name "N", machine tag, size, align, then one field "f" (offset,
        // size, align) whose kind is nested.
        let tag = MachineModel::SPARC32.tag().to_be_bytes();
        let mut level = vec![0, 1, b'N'];
        level.extend_from_slice(&tag);
        level.extend_from_slice(&[0, 0, 0, 8, 8, 0, 1]);
        level.extend_from_slice(&[0, 1, b'f', 0, 0, 0, 0, 0, 0, 0, 8, 8, KIND_NESTED]);
        let mut out = level.repeat(levels);
        out.extend_from_slice(&[0, 1, b'L']);
        out.extend_from_slice(&tag);
        out.extend_from_slice(&[0, 0, 0, 0, 1, 0, 0]);
        out
    }

    #[test]
    fn nesting_depth_is_bounded() {
        // Exactly the budget decodes (the hand encoding is valid) ...
        let at_budget = decode_descriptor(&nested_chain(MAX_NESTING_DEPTH - 1)).unwrap();
        assert_eq!(at_budget.name, "N");
        // ... one level more, or a hostile 5 000, is bad wire data, not
        // a stack overflow.
        for levels in [MAX_NESTING_DEPTH, 5_000] {
            let err = decode_descriptor(&nested_chain(levels)).unwrap_err();
            assert!(matches!(&err, PbioError::BadWireData(m) if m.contains("nesting")), "{err:?}");
        }
    }

    #[test]
    fn corrupt_kind_code_detected() {
        let d = FormatDescriptor::resolve(
            &FormatSpec::new("T", vec![IOField::auto("x", "integer", 4)]),
            MachineModel::SPARC32,
            &|_| None,
        )
        .unwrap();
        let mut bytes = encode_descriptor(&d);
        // The kind code is the byte right before the final base-type code.
        let n = bytes.len();
        bytes[n - 2] = 200;
        assert!(decode_descriptor(&bytes).is_err());
    }
}
