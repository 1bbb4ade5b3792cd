//! `RecordView`: borrowed, zero-copy field access over a wire buffer.
//!
//! The paper's best case — sender and receiver sharing one native layout
//! — should cost "little more than a memcpy".  This module removes even
//! the memcpy: when the registry certifies that the wire data section
//! *is* the receiver's native image, a [`RecordView`] lends typed
//! accessors directly over the wire bytes.  Nothing is materialized;
//! strings and dynamic arrays are chased through their pointer slots on
//! access, with the same validation the owned extract performs.
//!
//! # Safety argument (why borrowed access cannot go wrong)
//!
//! There is no `unsafe` here (the crate denies it); every read is a
//! bounds-checked slice index.  What keeps the *values* honest:
//!
//! * Only [`crate::marshal::decode_borrowed`] builds a view, and only
//!   after the registry's same-layout gate passes for the (sender,
//!   receiver) pair: [`layouts_match`](crate::plan::layouts_match) holds
//!   — byte order, record size, alignment, and every field's
//!   name/offset/size/kind agree — and, in every build,
//!   `crate::verify::verify_same_layout` re-derives that claim
//!   independently before the verdict is cached.
//! * A view reads through the receiver descriptor's own certified encode
//!   program, the one slot table its records are encoded with; the gate
//!   refuses a receiver whose plan fails certification.
//! * Construction validates the buffer is at least `record_size` bytes;
//!   scalar accessors therefore index within the fixed image.
//! * Var-length accessors go through the same
//!   [`locate_payload`](crate::plan) validation as the owned path:
//!   pointer in bounds, strings NUL-terminated UTF-8, array runs sized
//!   by the governing length field and bounds-checked against the
//!   buffer.  A corrupt wire yields `Err`, never an out-of-bounds read.
//! * Scalar getters reject var-length fields with `TypeMismatch`, so
//!   the wire's pointer-slot *offsets* (which an owned decode would
//!   zero) can never leak out as field values.

use std::sync::Arc;

use crate::error::PbioError;
use crate::format::FormatDescriptor;
use crate::layout::FieldLayout;
use crate::machine::ByteOrder;
use crate::plan::{
    check_record_size, extract, locate_payload, EncodeProgram, SlotProgram, VarSlice,
};
use crate::record::{read_float, read_int, read_uint, RawRecord};
use crate::types::{BaseType, FieldKind};

/// A decoded record borrowed straight from a wire buffer.
///
/// Produced by [`crate::marshal::decode_borrowed`] when the sender's
/// layout matches the receiver's (the PBIO best case).  Accessors mirror
/// [`RawRecord`]'s semantics exactly; [`RecordView::to_owned`] yields
/// the equivalent owned record.
#[derive(Debug, Clone)]
pub struct RecordView<'a> {
    data: &'a [u8],
    target: Arc<FormatDescriptor>,
}

impl<'a> RecordView<'a> {
    /// Wrap `data` (a wire *data section*, header already stripped) in a
    /// view of `target`, whose encode plan must certify.  Validates only
    /// the fixed-image size; var-length payloads are validated lazily on
    /// access (or eagerly via [`RecordView::validate`]).  The view's
    /// lifetime ties to the wire buffer alone; the descriptor is shared.
    pub(crate) fn new(
        data: &'a [u8],
        target: Arc<FormatDescriptor>,
    ) -> Result<RecordView<'a>, PbioError> {
        check_record_size(data, target.encode_plan().0?.program().record_size)?;
        Ok(RecordView { data, target })
    }

    /// The receiver-side format the view resolves field names against.
    pub fn format(&self) -> &Arc<FormatDescriptor> {
        &self.target
    }

    /// The fixed image (pointer slots still hold wire offsets; use the
    /// typed accessors rather than reading them).
    pub fn fixed_bytes(&self) -> &'a [u8] {
        &self.data[..self.prog().record_size]
    }

    /// Eagerly chase and validate every var-length slot, exactly as the
    /// owned extract would.  After `Ok`, no accessor can fail on wire
    /// corruption (only on bad field names/types).
    pub fn validate(&self) -> Result<(), PbioError> {
        for slot in &self.prog().slots {
            locate_payload(self.data, slot, self.order())?;
        }
        Ok(())
    }

    /// The target's certified encode program ([`RecordView::new`] checked
    /// it certifies, and the descriptor keeps that verdict).
    fn prog(&self) -> &EncodeProgram {
        self.target.encode_plan().0.expect("a view's target plan is certified").program()
    }

    fn order(&self) -> ByteOrder {
        self.prog().order
    }

    fn resolve(&self, path: &str) -> Result<(usize, &FieldLayout), PbioError> {
        self.target.field_path(path).map(|(off, f, _)| (off, f)).ok_or_else(|| {
            PbioError::NoSuchField { format: self.target.name.clone(), field: path.to_string() }
        })
    }

    fn type_mismatch(&self, path: &str, expected: &str, f: &FieldLayout) -> PbioError {
        PbioError::TypeMismatch {
            field: path.to_string(),
            expected: expected.to_string(),
            actual: f.kind.describe(),
        }
    }

    /// The slot spec for the var-length pointer slot at `off`.  Slot
    /// tables are tiny (one entry per string/dynamic array), so a linear
    /// scan beats any index structure.
    fn slot_at(&self, off: usize) -> &SlotProgram {
        self.prog()
            .slots
            .iter()
            .find(|s| s.off == off)
            .expect("resolved var-length field must have a compiled slot")
    }

    fn payload(&self, off: usize) -> Result<Option<VarSlice<'a>>, PbioError> {
        locate_payload(self.data, self.slot_at(off), self.order())
    }

    // -- integer scalars ----------------------------------------------------

    /// Read a signed integer scalar (sign-extended from the field width).
    pub fn get_i64(&self, path: &str) -> Result<i64, PbioError> {
        let (off, f) = self.resolve(path)?;
        match f.kind {
            FieldKind::Scalar(BaseType::Integer) => {
                Ok(read_int(&self.data[off..off + f.size], self.order()))
            }
            FieldKind::Scalar(
                BaseType::Unsigned | BaseType::Boolean | BaseType::Enumeration | BaseType::Char,
            ) => Ok(read_uint(&self.data[off..off + f.size], self.order()) as i64),
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
            ) => Ok(read_uint(&self.data[off..off + f.size], self.order())),
            _ => Err(self.type_mismatch(path, "an integer scalar", f)),
        }
    }

    /// Read a boolean (any nonzero value is `true`).
    pub fn get_bool(&self, path: &str) -> Result<bool, PbioError> {
        Ok(self.get_u64(path)? != 0)
    }

    // -- float scalars ------------------------------------------------------

    /// Read a float scalar (f32 widened to f64 for 4-byte fields).
    pub fn get_f64(&self, path: &str) -> Result<f64, PbioError> {
        let (off, f) = self.resolve(path)?;
        match f.kind {
            FieldKind::Scalar(BaseType::Float) => {
                Ok(read_float(&self.data[off..off + f.size], self.order()))
            }
            _ => Err(self.type_mismatch(path, "a float scalar", f)),
        }
    }

    // -- strings ------------------------------------------------------------

    /// Read a string field, borrowed from the wire buffer ("" when the
    /// sender never set it).
    pub fn get_str(&self, path: &str) -> Result<&'a str, PbioError> {
        let (off, f) = self.resolve(path)?;
        if !matches!(f.kind, FieldKind::String) {
            return Err(self.type_mismatch(path, "a string", f));
        }
        match self.payload(off)? {
            Some(VarSlice::Str(s)) => Ok(s),
            Some(VarSlice::Bytes(_)) => {
                unreachable!("string slots only ever locate VarSlice::Str")
            }
            None => Ok(""),
        }
    }

    // -- dynamic arrays -----------------------------------------------------

    /// The raw element bytes of a dynamic array, borrowed from the wire
    /// buffer (empty when absent).  Elements are in the shared native
    /// representation; pair with [`RecordView::get_f64_array`] /
    /// [`RecordView::get_i64_array`] for decoded values.
    pub fn get_array_bytes(&self, path: &str) -> Result<&'a [u8], PbioError> {
        let (off, f) = self.resolve(path)?;
        if !matches!(f.kind, FieldKind::DynamicArray { .. }) {
            return Err(self.type_mismatch(path, "a dynamic array", f));
        }
        match self.payload(off)? {
            Some(VarSlice::Bytes(b)) => Ok(b),
            Some(VarSlice::Str(_)) => {
                unreachable!("array slots only ever locate VarSlice::Bytes")
            }
            None => Ok(&[]),
        }
    }

    /// Read a dynamic float array (decoded; allocates the output `Vec`).
    pub fn get_f64_array(&self, path: &str) -> Result<Vec<f64>, PbioError> {
        let (off, f) = self.resolve(path)?;
        let FieldKind::DynamicArray { elem: BaseType::Float, elem_size, .. } = f.kind else {
            return Err(self.type_mismatch(path, "a dynamic float array", f));
        };
        match self.payload(off)? {
            None => Ok(Vec::new()),
            Some(VarSlice::Bytes(b)) => {
                Ok(b.chunks_exact(elem_size).map(|c| read_float(c, self.order())).collect())
            }
            Some(VarSlice::Str(_)) => unreachable!("array slots only ever locate VarSlice::Bytes"),
        }
    }

    /// Read a dynamic integer array (sign-extended; allocates the output
    /// `Vec`).
    pub fn get_i64_array(&self, path: &str) -> Result<Vec<i64>, PbioError> {
        let (off, f) = self.resolve(path)?;
        let FieldKind::DynamicArray { elem, elem_size, .. } = f.kind else {
            return Err(self.type_mismatch(path, "a dynamic integer array", f));
        };
        if !matches!(elem, BaseType::Integer | BaseType::Unsigned | BaseType::Char) {
            return Err(self.type_mismatch(path, "a dynamic integer array", f));
        }
        match self.payload(off)? {
            None => Ok(Vec::new()),
            Some(VarSlice::Bytes(b)) => {
                Ok(b.chunks_exact(elem_size).map(|c| read_int(c, self.order())).collect())
            }
            Some(VarSlice::Str(_)) => unreachable!("array slots only ever locate VarSlice::Bytes"),
        }
    }

    /// Element count recorded in the governing length field of a dynamic
    /// array.
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
        Ok(read_float(&self.data[at..at + elem_size], self.order()))
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
        Ok(read_int(&self.data[at..at + elem_size], self.order()))
    }

    /// Read a `char[N]` static array as a str, stopping at the first NUL.
    pub fn get_char_array(&self, path: &str) -> Result<String, PbioError> {
        let (off, f) = self.resolve(path)?;
        let FieldKind::StaticArray { elem: BaseType::Char, count, .. } = f.kind else {
            return Err(self.type_mismatch(path, "a char array", f));
        };
        let bytes = &self.data[off..off + count];
        let end = bytes.iter().position(|&b| b == 0).unwrap_or(count);
        Ok(String::from_utf8_lossy(&bytes[..end]).into_owned())
    }

    // -- materialization ----------------------------------------------------

    /// Materialize the equivalent owned record (what the non-view decode
    /// path would have produced).
    pub fn to_owned(&self) -> Result<RawRecord, PbioError> {
        let (fixed, varlen) = extract(self.data, self.prog())?;
        Ok(RawRecord::from_parts(self.target.clone(), fixed, varlen))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::IOField;
    use crate::format::FormatSpec;
    use crate::machine::MachineModel;
    use crate::marshal::{encode, HEADER_SIZE};
    use crate::registry::FormatRegistry;

    fn mixed_fmt(reg: &FormatRegistry) -> Arc<FormatDescriptor> {
        reg.register(FormatSpec::new(
            "Mixed",
            vec![
                IOField::auto("id", "integer", 4),
                IOField::auto("flag", "unsigned integer", 1),
                IOField::auto("x", "float", 8),
                IOField::auto("who", "string", 0),
                IOField::auto("n", "integer", 4),
                IOField::auto("vals", "float[n]", 8),
                IOField::auto("grid", "integer[4]", 2),
                IOField::auto("tag", "char[8]", 1),
            ],
        ))
        .unwrap()
    }

    fn mixed_rec(fmt: Arc<FormatDescriptor>) -> RawRecord {
        let mut rec = RawRecord::new(fmt);
        rec.set_i64("id", -7).unwrap();
        rec.set_u64("flag", 200).unwrap();
        rec.set_f64("x", 6.5).unwrap();
        rec.set_string("who", "vis5d").unwrap();
        rec.set_f64_array("vals", &[1.0, -2.5]).unwrap();
        for i in 0..4 {
            rec.set_elem_i64("grid", i, i as i64 - 2).unwrap();
        }
        rec.set_char_array("tag", "flow2d").unwrap();
        rec
    }

    fn view_fixture(machine: MachineModel) -> (RawRecord, Vec<u8>, Arc<FormatDescriptor>) {
        let reg = FormatRegistry::new(machine);
        let fmt = mixed_fmt(&reg);
        let rec = mixed_rec(fmt.clone());
        let wire = encode(&rec).unwrap();
        (rec, wire, fmt)
    }

    #[test]
    fn accessors_agree_with_owned_record_both_orders() {
        for machine in [MachineModel::SPARC32, MachineModel::X86_64] {
            let (rec, wire, fmt) = view_fixture(machine);
            let view = RecordView::new(&wire[HEADER_SIZE..], fmt).unwrap();
            view.validate().unwrap();
            assert_eq!(view.get_i64("id").unwrap(), rec.get_i64("id").unwrap());
            assert_eq!(view.get_u64("flag").unwrap(), rec.get_u64("flag").unwrap());
            assert_eq!(view.get_f64("x").unwrap(), rec.get_f64("x").unwrap());
            assert_eq!(view.get_str("who").unwrap(), rec.get_string("who").unwrap());
            assert_eq!(view.get_f64_array("vals").unwrap(), rec.get_f64_array("vals").unwrap());
            assert_eq!(view.dyn_len("vals").unwrap(), rec.dyn_len("vals").unwrap());
            for i in 0..4 {
                assert_eq!(
                    view.get_elem_i64("grid", i).unwrap(),
                    rec.get_elem_i64("grid", i).unwrap()
                );
            }
            assert_eq!(view.get_char_array("tag").unwrap(), rec.get_char_array("tag").unwrap());
            assert_eq!(view.to_owned().unwrap(), rec);
        }
    }

    #[test]
    fn borrowed_str_points_into_wire_buffer() {
        let (_rec, wire, fmt) = view_fixture(MachineModel::native());
        let view = RecordView::new(&wire[HEADER_SIZE..], fmt).unwrap();
        let s = view.get_str("who").unwrap();
        let wire_range = wire.as_ptr() as usize..wire.as_ptr() as usize + wire.len();
        assert!(wire_range.contains(&(s.as_ptr() as usize)));
        let b = view.get_array_bytes("vals").unwrap();
        assert!(wire_range.contains(&(b.as_ptr() as usize)));
        assert_eq!(b.len(), 16);
    }

    #[test]
    fn pointer_slots_never_leak_through_scalar_getters() {
        let (_rec, wire, fmt) = view_fixture(MachineModel::native());
        let view = RecordView::new(&wire[HEADER_SIZE..], fmt).unwrap();
        assert!(matches!(view.get_i64("who"), Err(PbioError::TypeMismatch { .. })));
        assert!(matches!(view.get_u64("vals"), Err(PbioError::TypeMismatch { .. })));
        assert!(matches!(view.get_f64("who"), Err(PbioError::TypeMismatch { .. })));
    }

    #[test]
    fn unset_varlen_fields_read_as_empty() {
        let reg = FormatRegistry::new(MachineModel::native());
        let fmt = mixed_fmt(&reg);
        let rec = RawRecord::new(fmt.clone()); // nothing set
        let wire = encode(&rec).unwrap();
        let view = RecordView::new(&wire[HEADER_SIZE..], fmt).unwrap();
        assert_eq!(view.get_str("who").unwrap(), "");
        assert!(view.get_f64_array("vals").unwrap().is_empty());
        assert!(view.get_array_bytes("vals").unwrap().is_empty());
    }

    #[test]
    fn corrupt_pointer_fails_validation_not_panics() {
        let (_rec, mut wire, fmt) = view_fixture(MachineModel::native());
        // Stamp the string's pointer slot with an out-of-bounds offset.
        let who_off = fmt.field_path("who").unwrap().0;
        let at = HEADER_SIZE + who_off;
        for b in &mut wire[at..at + 4] {
            *b = 0xff;
        }
        let view = RecordView::new(&wire[HEADER_SIZE..], fmt).unwrap();
        assert!(matches!(view.validate(), Err(PbioError::BadWireData(_))));
        assert!(matches!(view.get_str("who"), Err(PbioError::BadWireData(_))));
        // Unrelated fields still read fine.
        assert_eq!(view.get_i64("id").unwrap(), -7);
    }

    #[test]
    fn layout_mismatch_is_never_viewed() {
        let le = FormatRegistry::new(MachineModel::X86_64);
        let be = FormatRegistry::new(MachineModel::SPARC32);
        let lfmt = mixed_fmt(&le);
        let bfmt = mixed_fmt(&be);
        assert!(!le.same_layout(&bfmt, &lfmt).unwrap(), "byte order differs");

        let renamed = le
            .register(FormatSpec::new(
                "Mixed2",
                vec![
                    IOField::auto("id", "integer", 4),
                    IOField::auto("flag", "unsigned integer", 1),
                    IOField::auto("x", "float", 8),
                    IOField::auto("who", "string", 0),
                    IOField::auto("n", "integer", 4),
                    IOField::auto("vals", "float[n]", 8),
                    IOField::auto("grid", "integer[4]", 2),
                    IOField::auto("tag", "char[8]", 1),
                ],
            ))
            .unwrap();
        // Same structure under a different outer name still views.
        assert!(le.same_layout(&renamed, &lfmt).unwrap());

        let narrower = le
            .register(FormatSpec::new("MixedNarrow", vec![IOField::auto("id", "integer", 8)]))
            .unwrap();
        assert!(!le.same_layout(&narrower, &lfmt).unwrap());
    }
}
