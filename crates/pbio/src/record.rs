//! `RawRecord`: a native-layout byte buffer with typed field accessors.
//!
//! PBIO marshals C structs straight out of application memory.  The Rust
//! reproduction keeps that property without `unsafe`: a [`RawRecord`] owns
//! a byte buffer laid out exactly as the format's machine model dictates
//! (offsets, padding, byte order), so the encoder can treat it as the
//! paper's "region in the address space of a process".  Var-length data
//! (strings, dynamic arrays) — `char*` / `float*` fields in the C original
//! — live out of line, keyed by the absolute offset of their pointer slot.
//!
//! Audited: this module (and the whole crate) contains no `unsafe` blocks;
//! the crate root carries `#![deny(unsafe_code)]` so none can creep in.
//! Raw-byte access is all safe slice indexing against offsets that the
//! layout engine computed and [`crate::verify`] independently proves
//! in-bounds before any compiled plan is admitted to the registry cache.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::error::PbioError;
use crate::format::FormatDescriptor;
use crate::layout::FieldLayout;
use crate::machine::ByteOrder;
use crate::types::{BaseType, FieldKind};

// ---------------------------------------------------------------------------
// Scalar codecs shared by record access, marshaling, and conversion.
// ---------------------------------------------------------------------------

/// Read an unsigned integer of `buf.len()` (1/2/4/8) bytes.
pub(crate) fn read_uint(buf: &[u8], order: ByteOrder) -> u64 {
    let mut v: u64 = 0;
    match order {
        ByteOrder::Big => {
            for &b in buf {
                v = (v << 8) | u64::from(b);
            }
        }
        ByteOrder::Little => {
            for &b in buf.iter().rev() {
                v = (v << 8) | u64::from(b);
            }
        }
    }
    v
}

/// Read a sign-extended integer of `buf.len()` bytes.
pub(crate) fn read_int(buf: &[u8], order: ByteOrder) -> i64 {
    let raw = read_uint(buf, order);
    let bits = buf.len() * 8;
    if bits == 64 {
        raw as i64
    } else {
        let sign = 1u64 << (bits - 1);
        if raw & sign != 0 {
            (raw | !((1u64 << bits) - 1)) as i64
        } else {
            raw as i64
        }
    }
}

/// Write the low `buf.len()` bytes of `v`.
pub(crate) fn write_uint(buf: &mut [u8], order: ByteOrder, v: u64) {
    let n = buf.len();
    match order {
        ByteOrder::Big => {
            for (i, b) in buf.iter_mut().enumerate() {
                *b = (v >> (8 * (n - 1 - i))) as u8;
            }
        }
        ByteOrder::Little => {
            for (i, b) in buf.iter_mut().enumerate() {
                *b = (v >> (8 * i)) as u8;
            }
        }
    }
}

/// Read an IEEE-754 float of 4 or 8 bytes.
pub(crate) fn read_float(buf: &[u8], order: ByteOrder) -> f64 {
    match buf.len() {
        4 => f32::from_bits(read_uint(buf, order) as u32) as f64,
        8 => f64::from_bits(read_uint(buf, order)),
        n => panic!("float width {n} is impossible for a validated format"),
    }
}

/// Write an IEEE-754 float of 4 or 8 bytes (f64 narrowed to f32 as needed).
pub(crate) fn write_float(buf: &mut [u8], order: ByteOrder, v: f64) {
    match buf.len() {
        4 => write_uint(buf, order, u64::from((v as f32).to_bits())),
        8 => write_uint(buf, order, v.to_bits()),
        n => panic!("float width {n} is impossible for a validated format"),
    }
}

// ---------------------------------------------------------------------------
// Var-length payloads.
// ---------------------------------------------------------------------------

/// Out-of-line payload of one var-length field.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum VarData {
    /// A string (no interior NULs; the wire adds the terminator).
    Str(String),
    /// Dynamic-array elements, already in the record's native element
    /// representation (size and byte order of the record's machine).
    Bytes(Vec<u8>),
}

/// A record laid out for one format.
#[derive(Debug, Clone)]
pub struct RawRecord {
    format: Arc<FormatDescriptor>,
    fixed: Vec<u8>,
    pub(crate) varlen: BTreeMap<usize, VarData>,
}

/// Equality follows the wire image: an empty dynamic array and an absent
/// one both encode as a null pointer, so they compare equal.  An empty
/// string encodes a terminator and an absent one a null pointer, so
/// those stay distinct.
impl PartialEq for RawRecord {
    fn eq(&self, other: &RawRecord) -> bool {
        fn present(r: &RawRecord) -> impl Iterator<Item = (&usize, &VarData)> {
            r.varlen.iter().filter(|(_, v)| !matches!(v, VarData::Bytes(b) if b.is_empty()))
        }
        self.format == other.format && self.fixed == other.fixed && present(self).eq(present(other))
    }
}

impl RawRecord {
    /// A zeroed record of `format`.
    pub fn new(format: Arc<FormatDescriptor>) -> Self {
        let fixed = vec![0u8; format.record_size];
        RawRecord { format, fixed, varlen: BTreeMap::new() }
    }

    pub(crate) fn from_parts(
        format: Arc<FormatDescriptor>,
        fixed: Vec<u8>,
        varlen: BTreeMap<usize, VarData>,
    ) -> Self {
        debug_assert_eq!(fixed.len(), format.record_size);
        RawRecord { format, fixed, varlen }
    }

    /// The record's format.
    pub fn format(&self) -> &Arc<FormatDescriptor> {
        &self.format
    }

    /// The fixed (in-struct) bytes in native layout.
    pub fn fixed_bytes(&self) -> &[u8] {
        &self.fixed
    }

    fn order(&self) -> ByteOrder {
        self.format.machine.byte_order
    }

    /// Resolve `path` or produce a [`PbioError::NoSuchField`].
    fn resolve(&self, path: &str) -> Result<(usize, &FieldLayout), PbioError> {
        self.format.field_path(path).map(|(off, f, _)| (off, f)).ok_or_else(|| {
            PbioError::NoSuchField { format: self.format.name.clone(), field: path.to_string() }
        })
    }

    fn type_mismatch(&self, path: &str, expected: &str, f: &FieldLayout) -> PbioError {
        PbioError::TypeMismatch {
            field: path.to_string(),
            expected: expected.to_string(),
            actual: f.kind.describe(),
        }
    }

    // -- integer scalars ----------------------------------------------------

    /// Write a signed integer scalar (also accepts unsigned/boolean/
    /// enumeration/char fields; the value is truncated to the field width).
    pub fn set_i64(&mut self, path: &str, v: i64) -> Result<(), PbioError> {
        let order = self.order();
        let (off, f) = self.resolve(path)?;
        match f.kind {
            FieldKind::Scalar(
                BaseType::Integer
                | BaseType::Unsigned
                | BaseType::Boolean
                | BaseType::Enumeration
                | BaseType::Char,
            ) => {
                let size = f.size;
                write_uint(&mut self.fixed[off..off + size], order, v as u64);
                Ok(())
            }
            _ => Err(self.type_mismatch(path, "an integer scalar", f)),
        }
    }

    /// Write an unsigned integer scalar.
    pub fn set_u64(&mut self, path: &str, v: u64) -> Result<(), PbioError> {
        self.set_i64(path, v as i64)
    }

    /// Read a signed integer scalar (sign-extended from the field width).
    pub fn get_i64(&self, path: &str) -> Result<i64, PbioError> {
        let (off, f) = self.resolve(path)?;
        match f.kind {
            FieldKind::Scalar(BaseType::Integer) => {
                Ok(read_int(&self.fixed[off..off + f.size], self.order()))
            }
            FieldKind::Scalar(
                BaseType::Unsigned | BaseType::Boolean | BaseType::Enumeration | BaseType::Char,
            ) => Ok(read_uint(&self.fixed[off..off + f.size], self.order()) as i64),
            _ => Err(self.type_mismatch(path, "an integer scalar", f)),
        }
    }

    /// Read an unsigned integer scalar (zero-extended).
    pub fn get_u64(&self, path: &str) -> Result<u64, PbioError> {
        let (off, f) = self.resolve(path)?;
        match f.kind {
            FieldKind::Scalar(
                BaseType::Integer
                | BaseType::Unsigned
                | BaseType::Boolean
                | BaseType::Enumeration
                | BaseType::Char,
            ) => Ok(read_uint(&self.fixed[off..off + f.size], self.order())),
            _ => Err(self.type_mismatch(path, "an integer scalar", f)),
        }
    }

    /// Write a boolean (stored as 0/1 in the field's width).
    pub fn set_bool(&mut self, path: &str, v: bool) -> Result<(), PbioError> {
        self.set_i64(path, i64::from(v))
    }

    /// Read a boolean (any nonzero value is `true`).
    pub fn get_bool(&self, path: &str) -> Result<bool, PbioError> {
        Ok(self.get_u64(path)? != 0)
    }

    // -- float scalars ------------------------------------------------------

    /// Write a float scalar (f64 narrowed to f32 for 4-byte fields).
    pub fn set_f64(&mut self, path: &str, v: f64) -> Result<(), PbioError> {
        let order = self.order();
        let (off, f) = self.resolve(path)?;
        match f.kind {
            FieldKind::Scalar(BaseType::Float) => {
                let size = f.size;
                write_float(&mut self.fixed[off..off + size], order, v);
                Ok(())
            }
            _ => Err(self.type_mismatch(path, "a float scalar", f)),
        }
    }

    /// Read a float scalar (f32 widened to f64 for 4-byte fields).
    pub fn get_f64(&self, path: &str) -> Result<f64, PbioError> {
        let (off, f) = self.resolve(path)?;
        match f.kind {
            FieldKind::Scalar(BaseType::Float) => {
                Ok(read_float(&self.fixed[off..off + f.size], self.order()))
            }
            _ => Err(self.type_mismatch(path, "a float scalar", f)),
        }
    }

    // -- strings --------------------------------------------------------

    /// Set a string field.  Interior NUL bytes are rejected because the
    /// wire format is NUL-terminated, as in the C original.
    pub fn set_string(&mut self, path: &str, v: impl Into<String>) -> Result<(), PbioError> {
        let v = v.into();
        let (off, f) = self.resolve(path)?;
        if !matches!(f.kind, FieldKind::String) {
            return Err(self.type_mismatch(path, "a string", f));
        }
        if v.as_bytes().contains(&0) {
            return Err(PbioError::BadField {
                field: path.to_string(),
                reason: "strings cannot contain NUL bytes".to_string(),
            });
        }
        self.varlen.insert(off, VarData::Str(v));
        Ok(())
    }

    /// Read a string field ("" when never set).
    pub fn get_string(&self, path: &str) -> Result<&str, PbioError> {
        let (off, f) = self.resolve(path)?;
        if !matches!(f.kind, FieldKind::String) {
            return Err(self.type_mismatch(path, "a string", f));
        }
        Ok(match self.varlen.get(&off) {
            Some(VarData::Str(s)) => s.as_str(),
            Some(VarData::Bytes(_)) => {
                unreachable!("string slots only ever hold VarData::Str")
            }
            None => "",
        })
    }

    // -- dynamic arrays ---------------------------------------------------

    /// Set a dynamic float array.  The governing length field is updated
    /// automatically, as XMIT's `dimensionName` semantics require.
    pub fn set_f64_array(&mut self, path: &str, values: &[f64]) -> Result<(), PbioError> {
        let order = self.order();
        let (off, f) = self.resolve(path)?;
        let FieldKind::DynamicArray { elem: BaseType::Float, elem_size, ref length_field } = f.kind
        else {
            return Err(self.type_mismatch(path, "a dynamic float array", f));
        };
        let length_field = length_field.clone();
        let mut bytes = vec![0u8; values.len() * elem_size];
        for (i, &v) in values.iter().enumerate() {
            write_float(&mut bytes[i * elem_size..(i + 1) * elem_size], order, v);
        }
        self.varlen.insert(off, VarData::Bytes(bytes));
        self.set_sibling_length(path, off, &length_field, values.len())
    }

    /// Read a dynamic float array.
    pub fn get_f64_array(&self, path: &str) -> Result<Vec<f64>, PbioError> {
        let (off, f) = self.resolve(path)?;
        let FieldKind::DynamicArray { elem: BaseType::Float, elem_size, .. } = f.kind else {
            return Err(self.type_mismatch(path, "a dynamic float array", f));
        };
        Ok(match self.varlen.get(&off) {
            None => Vec::new(),
            Some(VarData::Bytes(b)) => {
                b.chunks_exact(elem_size).map(|c| read_float(c, self.order())).collect()
            }
            Some(VarData::Str(_)) => unreachable!("array slots only ever hold VarData::Bytes"),
        })
    }

    /// Set a dynamic integer array (works for integer/unsigned elements).
    pub fn set_i64_array(&mut self, path: &str, values: &[i64]) -> Result<(), PbioError> {
        let order = self.order();
        let (off, f) = self.resolve(path)?;
        let FieldKind::DynamicArray { elem, elem_size, ref length_field } = f.kind else {
            return Err(self.type_mismatch(path, "a dynamic integer array", f));
        };
        if !matches!(elem, BaseType::Integer | BaseType::Unsigned | BaseType::Char) {
            return Err(self.type_mismatch(path, "a dynamic integer array", f));
        }
        let length_field = length_field.clone();
        let mut bytes = vec![0u8; values.len() * elem_size];
        for (i, &v) in values.iter().enumerate() {
            write_uint(&mut bytes[i * elem_size..(i + 1) * elem_size], order, v as u64);
        }
        self.varlen.insert(off, VarData::Bytes(bytes));
        self.set_sibling_length(path, off, &length_field, values.len())
    }

    /// Read a dynamic integer array (sign-extended).
    pub fn get_i64_array(&self, path: &str) -> Result<Vec<i64>, PbioError> {
        let (off, f) = self.resolve(path)?;
        let FieldKind::DynamicArray { elem, elem_size, .. } = f.kind else {
            return Err(self.type_mismatch(path, "a dynamic integer array", f));
        };
        if !matches!(elem, BaseType::Integer | BaseType::Unsigned | BaseType::Char) {
            return Err(self.type_mismatch(path, "a dynamic integer array", f));
        }
        Ok(match self.varlen.get(&off) {
            None => Vec::new(),
            Some(VarData::Bytes(b)) => {
                b.chunks_exact(elem_size).map(|c| read_int(c, self.order())).collect()
            }
            Some(VarData::Str(_)) => unreachable!("array slots only ever hold VarData::Bytes"),
        })
    }

    /// Write the dynamic array's length into its governing sibling field.
    fn set_sibling_length(
        &mut self,
        path: &str,
        slot_offset: usize,
        length_field: &str,
        count: usize,
    ) -> Result<(), PbioError> {
        // The sibling lives in the same (sub)record as the array slot:
        // splice the length-field name onto the path's parent.
        let parent = match path.rfind('.') {
            Some(i) => &path[..=i],
            None => "",
        };
        let sibling_path = format!("{parent}{length_field}");
        let order = self.order();
        let (off, f) = self.resolve(&sibling_path)?;
        debug_assert_ne!(off, slot_offset);
        let size = f.size;
        write_uint(&mut self.fixed[off..off + size], order, count as u64);
        Ok(())
    }

    /// Element count recorded in the governing length field of a dynamic
    /// array field (used by the encoder; exposed for diagnostics).
    pub fn dyn_len(&self, path: &str) -> Result<usize, PbioError> {
        let (_, f) = self.resolve(path)?;
        let FieldKind::DynamicArray { ref length_field, .. } = f.kind else {
            return Err(self.type_mismatch(path, "a dynamic array", f));
        };
        let length_field = length_field.clone();
        let parent = match path.rfind('.') {
            Some(i) => &path[..=i],
            None => "",
        };
        Ok(self.get_u64(&format!("{parent}{length_field}"))? as usize)
    }

    // -- static arrays ------------------------------------------------------

    /// Write one element of a static array.
    pub fn set_elem_f64(&mut self, path: &str, index: usize, v: f64) -> Result<(), PbioError> {
        let order = self.order();
        let (off, f) = self.resolve(path)?;
        let FieldKind::StaticArray { elem: BaseType::Float, elem_size, count } = f.kind else {
            return Err(self.type_mismatch(path, "a static float array", f));
        };
        if index >= count {
            return Err(PbioError::BadField {
                field: path.to_string(),
                reason: format!("index {index} out of bounds for [{count}]"),
            });
        }
        let at = off + index * elem_size;
        write_float(&mut self.fixed[at..at + elem_size], order, v);
        Ok(())
    }

    /// Read one element of a static float array.
    pub fn get_elem_f64(&self, path: &str, index: usize) -> Result<f64, PbioError> {
        let (off, f) = self.resolve(path)?;
        let FieldKind::StaticArray { elem: BaseType::Float, elem_size, count } = f.kind else {
            return Err(self.type_mismatch(path, "a static float array", f));
        };
        if index >= count {
            return Err(PbioError::BadField {
                field: path.to_string(),
                reason: format!("index {index} out of bounds for [{count}]"),
            });
        }
        let at = off + index * elem_size;
        Ok(read_float(&self.fixed[at..at + elem_size], self.order()))
    }

    /// Write one element of a static integer array.
    pub fn set_elem_i64(&mut self, path: &str, index: usize, v: i64) -> Result<(), PbioError> {
        let order = self.order();
        let (off, f) = self.resolve(path)?;
        let FieldKind::StaticArray { elem, elem_size, count } = f.kind else {
            return Err(self.type_mismatch(path, "a static integer array", f));
        };
        if matches!(elem, BaseType::Float) {
            return Err(self.type_mismatch(path, "a static integer array", f));
        }
        if index >= count {
            return Err(PbioError::BadField {
                field: path.to_string(),
                reason: format!("index {index} out of bounds for [{count}]"),
            });
        }
        let at = off + index * elem_size;
        write_uint(&mut self.fixed[at..at + elem_size], order, v as u64);
        Ok(())
    }

    /// Read one element of a static integer array.
    pub fn get_elem_i64(&self, path: &str, index: usize) -> Result<i64, PbioError> {
        let (off, f) = self.resolve(path)?;
        let FieldKind::StaticArray { elem, elem_size, count } = f.kind else {
            return Err(self.type_mismatch(path, "a static integer array", f));
        };
        if matches!(elem, BaseType::Float) {
            return Err(self.type_mismatch(path, "a static integer array", f));
        }
        if index >= count {
            return Err(PbioError::BadField {
                field: path.to_string(),
                reason: format!("index {index} out of bounds for [{count}]"),
            });
        }
        let at = off + index * elem_size;
        Ok(read_int(&self.fixed[at..at + elem_size], self.order()))
    }

    /// Fill a `char[N]` static array from a str (NUL-padded, truncated).
    pub fn set_char_array(&mut self, path: &str, s: &str) -> Result<(), PbioError> {
        let (off, f) = self.resolve(path)?;
        let FieldKind::StaticArray { elem: BaseType::Char, count, .. } = f.kind else {
            return Err(self.type_mismatch(path, "a char array", f));
        };
        let dst = &mut self.fixed[off..off + count];
        dst.fill(0);
        let n = s.len().min(count);
        dst[..n].copy_from_slice(&s.as_bytes()[..n]);
        Ok(())
    }

    /// Read a `char[N]` static array as a str, stopping at the first NUL.
    pub fn get_char_array(&self, path: &str) -> Result<String, PbioError> {
        let (off, f) = self.resolve(path)?;
        let FieldKind::StaticArray { elem: BaseType::Char, count, .. } = f.kind else {
            return Err(self.type_mismatch(path, "a char array", f));
        };
        let bytes = &self.fixed[off..off + count];
        let end = bytes.iter().position(|&b| b == 0).unwrap_or(count);
        Ok(String::from_utf8_lossy(&bytes[..end]).into_owned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::IOField;
    use crate::format::FormatSpec;
    use crate::machine::MachineModel;
    use crate::registry::FormatRegistry;

    fn registry() -> FormatRegistry {
        FormatRegistry::new(MachineModel::SPARC32)
    }

    fn mixed_record() -> RawRecord {
        let r = registry();
        let f = r
            .register(FormatSpec::new(
                "Mixed",
                vec![
                    IOField::auto("i", "integer", 4),
                    IOField::auto("u", "unsigned integer", 4),
                    IOField::auto("f", "float", 8),
                    IOField::auto("g", "float", 4),
                    IOField::auto("b", "boolean", 4),
                    IOField::auto("name", "string", 0),
                    IOField::auto("n", "integer", 4),
                    IOField::auto("xs", "float[n]", 4),
                    IOField::auto("tag", "char[8]", 1),
                    IOField::auto("grid", "integer[3]", 4),
                ],
            ))
            .unwrap();
        RawRecord::new(f)
    }

    #[test]
    fn equality_follows_the_wire_image() {
        let absent = mixed_record();
        let mut empty_array = absent.clone();
        empty_array.set_f64_array("xs", &[]).unwrap();
        assert_eq!(empty_array, absent);
        let mut empty_string = absent.clone();
        empty_string.set_string("name", "").unwrap();
        assert_ne!(empty_string, absent);
    }

    #[test]
    fn integer_round_trip_with_sign_extension() {
        let mut rec = mixed_record();
        rec.set_i64("i", -12345).unwrap();
        assert_eq!(rec.get_i64("i").unwrap(), -12345);
        rec.set_u64("u", 0xdead_beef).unwrap();
        assert_eq!(rec.get_u64("u").unwrap(), 0xdead_beef);
        // Unsigned read of a negative write zero-extends from field width.
        rec.set_i64("u", -1).unwrap();
        assert_eq!(rec.get_u64("u").unwrap(), 0xffff_ffff);
    }

    #[test]
    fn float_round_trip_both_widths() {
        let mut rec = mixed_record();
        rec.set_f64("f", std::f64::consts::PI).unwrap();
        assert_eq!(rec.get_f64("f").unwrap(), std::f64::consts::PI);
        rec.set_f64("g", 2.5).unwrap();
        assert_eq!(rec.get_f64("g").unwrap(), 2.5);
        // f32 narrowing is visible for non-representable values.
        rec.set_f64("g", std::f64::consts::PI).unwrap();
        assert_eq!(rec.get_f64("g").unwrap(), std::f64::consts::PI as f32 as f64);
    }

    #[test]
    fn bool_round_trip() {
        let mut rec = mixed_record();
        rec.set_bool("b", true).unwrap();
        assert!(rec.get_bool("b").unwrap());
        rec.set_bool("b", false).unwrap();
        assert!(!rec.get_bool("b").unwrap());
    }

    #[test]
    fn string_round_trip_and_default() {
        let mut rec = mixed_record();
        assert_eq!(rec.get_string("name").unwrap(), "");
        rec.set_string("name", "ATL").unwrap();
        assert_eq!(rec.get_string("name").unwrap(), "ATL");
        assert!(rec.set_string("name", "a\0b").is_err());
    }

    #[test]
    fn dynamic_array_updates_length_field() {
        let mut rec = mixed_record();
        rec.set_f64_array("xs", &[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(rec.get_i64("n").unwrap(), 3);
        assert_eq!(rec.dyn_len("xs").unwrap(), 3);
        assert_eq!(rec.get_f64_array("xs").unwrap(), vec![1.0, 2.0, 3.0]);
        rec.set_f64_array("xs", &[]).unwrap();
        assert_eq!(rec.get_i64("n").unwrap(), 0);
        assert!(rec.get_f64_array("xs").unwrap().is_empty());
    }

    #[test]
    fn static_arrays_elementwise() {
        let mut rec = mixed_record();
        for i in 0..3 {
            rec.set_elem_i64("grid", i, (i as i64 + 1) * 10).unwrap();
        }
        assert_eq!(rec.get_elem_i64("grid", 2).unwrap(), 30);
        assert!(rec.set_elem_i64("grid", 3, 0).is_err());
    }

    #[test]
    fn char_arrays() {
        let mut rec = mixed_record();
        rec.set_char_array("tag", "flow2d").unwrap();
        assert_eq!(rec.get_char_array("tag").unwrap(), "flow2d");
        rec.set_char_array("tag", "muchtoolongvalue").unwrap();
        assert_eq!(rec.get_char_array("tag").unwrap(), "muchtool");
    }

    #[test]
    fn wrong_type_accessors_fail() {
        let mut rec = mixed_record();
        assert!(matches!(rec.set_f64("i", 1.0), Err(PbioError::TypeMismatch { .. })));
        assert!(matches!(rec.set_i64("name", 1), Err(PbioError::TypeMismatch { .. })));
        assert!(matches!(rec.get_string("f"), Err(PbioError::TypeMismatch { .. })));
        assert!(matches!(rec.get_f64_array("grid"), Err(PbioError::TypeMismatch { .. })));
    }

    #[test]
    fn missing_field_reports_format_name() {
        let rec = mixed_record();
        let err = rec.get_i64("nope").unwrap_err();
        assert_eq!(
            err,
            PbioError::NoSuchField { format: "Mixed".to_string(), field: "nope".to_string() }
        );
    }

    #[test]
    fn nested_paths() {
        let r = registry();
        r.register(FormatSpec::new(
            "Hdr",
            vec![IOField::auto("seq", "integer", 4), IOField::auto("src", "string", 0)],
        ))
        .unwrap();
        let outer = r
            .register(FormatSpec::new(
                "Env",
                vec![IOField::auto("hdr", "Hdr", 0), IOField::auto("v", "float", 8)],
            ))
            .unwrap();
        let mut rec = RawRecord::new(outer);
        rec.set_i64("hdr.seq", 7).unwrap();
        rec.set_string("hdr.src", "presend").unwrap();
        rec.set_f64("v", 1.25).unwrap();
        assert_eq!(rec.get_i64("hdr.seq").unwrap(), 7);
        assert_eq!(rec.get_string("hdr.src").unwrap(), "presend");
        assert_eq!(rec.get_f64("v").unwrap(), 1.25);
    }

    #[test]
    fn scalar_codec_helpers() {
        let mut buf = [0u8; 4];
        write_uint(&mut buf, ByteOrder::Big, 0x0102_0304);
        assert_eq!(buf, [1, 2, 3, 4]);
        write_uint(&mut buf, ByteOrder::Little, 0x0102_0304);
        assert_eq!(buf, [4, 3, 2, 1]);
        assert_eq!(read_uint(&[1, 2], ByteOrder::Big), 0x0102);
        assert_eq!(read_int(&[0xff, 0xfe], ByteOrder::Big), -2);
        assert_eq!(read_int(&[0xfe, 0xff], ByteOrder::Little), -2);
        let mut f = [0u8; 8];
        write_float(&mut f, ByteOrder::Little, -1.5);
        assert_eq!(read_float(&f, ByteOrder::Little), -1.5);
    }

    #[test]
    fn byte_order_respected_in_buffer() {
        let be = FormatRegistry::new(MachineModel::SPARC32)
            .register(FormatSpec::new("T", vec![IOField::auto("x", "integer", 4)]))
            .unwrap();
        let le = FormatRegistry::new(MachineModel::X86)
            .register(FormatSpec::new("T", vec![IOField::auto("x", "integer", 4)]))
            .unwrap();
        let mut rb = RawRecord::new(be);
        let mut rl = RawRecord::new(le);
        rb.set_i64("x", 1).unwrap();
        rl.set_i64("x", 1).unwrap();
        assert_eq!(rb.fixed_bytes(), [0, 0, 0, 1]);
        assert_eq!(rl.fixed_bytes(), [1, 0, 0, 0]);
    }
}
