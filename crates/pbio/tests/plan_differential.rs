//! Differential tests: compiled plans vs the interpreted reference paths.
//!
//! Every case generates a random sender format (scalars of every width,
//! strings, static and dynamic arrays, one level of nesting), a random
//! record, and a *mutated* receiver format (re-rolled widths, dropped
//! sender fields, receiver-only additions) on the opposite-endian machine
//! model, then checks:
//!
//! * compiled encode output is byte-identical to the interpreted encoder;
//! * compiled same-format decode equals the interpreted decode;
//! * compiled cross-machine/cross-width conversion equals the interpreted
//!   converter, in both directions.
//!
//! One test per sender byte order, 256 cases each.  A third test checks
//! wire-to-wire conversion against `encode(decode_with(..))` across all
//! four machine models.  Floats are generated
//! finite: the one documented divergence between the paths is same-width
//! `f32` signaling-NaN bit patterns, which the compiled path preserves and
//! the interpreted `f32 → f64 → f32` round-trip may quieten.

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use openmeta_pbio::convert_wire_into;
use openmeta_pbio::marshal::{decode_with_interpreted, encode_into_interpreted};
use openmeta_pbio::prelude::*;

const INT_WIDTHS: [usize; 4] = [1, 2, 4, 8];
const FLOAT_WIDTHS: [usize; 2] = [4, 8];

/// Intermediate field model, easy to mutate into a receiver variant.
#[derive(Debug, Clone)]
enum FKind {
    Int,
    Uint,
    Bool,
    Enum,
    Char,
    Float,
    Str,
    StaticInt(usize),
    StaticFloat(usize),
    /// Dynamic arrays carry their governing length-field name.
    DynInt(String),
    DynFloat(String),
    Nested(String),
}

#[derive(Debug, Clone)]
struct FSpec {
    name: String,
    kind: FKind,
    size: usize,
}

impl FSpec {
    fn to_iofield(&self) -> IOField {
        let ty = match &self.kind {
            FKind::Int => "integer".to_string(),
            FKind::Uint => "unsigned integer".to_string(),
            FKind::Bool => "boolean".to_string(),
            FKind::Enum => "enumeration".to_string(),
            FKind::Char => "char".to_string(),
            FKind::Float => "float".to_string(),
            FKind::Str => "string".to_string(),
            FKind::StaticInt(n) => format!("integer[{n}]"),
            FKind::StaticFloat(n) => format!("float[{n}]"),
            FKind::DynInt(len) => format!("integer[{len}]"),
            FKind::DynFloat(len) => format!("float[{len}]"),
            FKind::Nested(name) => name.clone(),
        };
        IOField::auto(self.name.clone(), ty, self.size)
    }
}

fn pick<T: Copy>(rng: &mut StdRng, xs: &[T]) -> T {
    xs[rng.random_range(0..xs.len())]
}

/// Generate one field list.  `allow_nested` references `inner_name` at
/// most once (the top level only, so sub-formats stay scalar-only).
fn gen_fields(rng: &mut StdRng, allow_nested: Option<&str>) -> Vec<FSpec> {
    let nf = rng.random_range(3usize..9);
    let mut out: Vec<FSpec> = Vec::new();
    let mut used_nested = false;
    for i in 0..nf {
        let name = format!("f{i}");
        match rng.random_range(0u32..12) {
            0 | 1 => out.push(FSpec { name, kind: FKind::Int, size: pick(rng, &INT_WIDTHS) }),
            2 => out.push(FSpec { name, kind: FKind::Uint, size: pick(rng, &INT_WIDTHS) }),
            3 => out.push(FSpec { name, kind: FKind::Bool, size: pick(rng, &INT_WIDTHS) }),
            4 => out.push(FSpec { name, kind: FKind::Enum, size: pick(rng, &INT_WIDTHS) }),
            5 => out.push(FSpec { name, kind: FKind::Char, size: 1 }),
            6 => out.push(FSpec { name, kind: FKind::Float, size: pick(rng, &FLOAT_WIDTHS) }),
            7 => out.push(FSpec { name, kind: FKind::Str, size: 0 }),
            8 => out.push(FSpec {
                name,
                kind: FKind::StaticInt(rng.random_range(1usize..5)),
                size: pick(rng, &[2usize, 4, 8]),
            }),
            9 => out.push(FSpec {
                name,
                kind: FKind::StaticFloat(rng.random_range(1usize..4)),
                size: pick(rng, &FLOAT_WIDTHS),
            }),
            10 => {
                // Dynamic array: bring the governing length field first.
                let len = format!("len{i}");
                out.push(FSpec { name: len.clone(), kind: FKind::Int, size: 4 });
                let (kind, size) = if rng.random_bool(0.5) {
                    (FKind::DynFloat(len), pick(rng, &FLOAT_WIDTHS))
                } else {
                    (FKind::DynInt(len), pick(rng, &INT_WIDTHS))
                };
                out.push(FSpec { name, kind, size });
            }
            _ => match allow_nested {
                Some(inner) if !used_nested => {
                    used_nested = true;
                    out.push(FSpec { name, kind: FKind::Nested(inner.to_string()), size: 0 });
                }
                _ => out.push(FSpec { name, kind: FKind::Int, size: pick(rng, &INT_WIDTHS) }),
            },
        }
    }
    out
}

/// Mutate a sender field list into a receiver variant: width re-rolls
/// within the same scalar category, dropped fields, receiver-only
/// additions.  Length fields are never dropped (a receiver dynamic array
/// must keep its dimension), and categories never change, so the pair is
/// always convertible.
fn mutate_fields(rng: &mut StdRng, sender: &[FSpec]) -> Vec<FSpec> {
    let len_names: Vec<&str> = sender
        .iter()
        .filter_map(|f| match &f.kind {
            FKind::DynInt(l) | FKind::DynFloat(l) => Some(l.as_str()),
            _ => None,
        })
        .collect();
    let mut out = Vec::new();
    for f in sender {
        let is_len = len_names.contains(&f.name.as_str());
        if !is_len && rng.random_bool(0.1) {
            continue; // receiver never knew this field
        }
        let mut f = f.clone();
        if rng.random_bool(0.3) {
            match &mut f.kind {
                FKind::Int | FKind::Uint | FKind::Bool | FKind::Enum => {
                    // Length fields stay >= 2 bytes so generated element
                    // counts always fit.
                    f.size =
                        if is_len { pick(rng, &[2usize, 4, 8]) } else { pick(rng, &INT_WIDTHS) }
                }
                FKind::Float => f.size = pick(rng, &FLOAT_WIDTHS),
                FKind::StaticInt(n) => {
                    f.size = pick(rng, &[2usize, 4, 8]);
                    if rng.random_bool(0.5) {
                        *n = rng.random_range(1usize..6);
                    }
                }
                FKind::StaticFloat(_) => f.size = pick(rng, &FLOAT_WIDTHS),
                FKind::DynInt(_) => f.size = pick(rng, &INT_WIDTHS),
                FKind::DynFloat(_) => f.size = pick(rng, &FLOAT_WIDTHS),
                FKind::Char | FKind::Str | FKind::Nested(_) => {}
            }
        }
        out.push(f);
    }
    if rng.random_bool(0.3) {
        out.push(FSpec { name: "extra_rx".to_string(), kind: FKind::Float, size: 8 });
    }
    out
}

/// Fill every sender field with random values, recursing into nested
/// records via dotted paths.  Length fields are skipped: the array
/// setters maintain them.  With `absent_strings`, about a third of the
/// strings are left unset (a null pointer on the wire).
fn fill(
    rng: &mut StdRng,
    rec: &mut RawRecord,
    desc: &FormatDescriptor,
    prefix: &str,
    absent_strings: bool,
) {
    let len_names: Vec<String> = desc
        .fields
        .iter()
        .filter_map(|f| match &f.kind {
            FieldKind::DynamicArray { length_field, .. } => Some(length_field.clone()),
            _ => None,
        })
        .collect();
    // set_i64 truncates to the field width; the bit pattern is what matters.
    let int_val = |rng: &mut StdRng, w: usize| -> i64 {
        let v = rng.next_u64();
        let v = if w == 8 { v } else { v & ((1u64 << (8 * w)) - 1) };
        v as i64
    };
    for f in desc.fields.clone() {
        let path = format!("{prefix}{}", f.name);
        if len_names.contains(&f.name) {
            continue;
        }
        match &f.kind {
            FieldKind::Scalar(BaseType::Float) => {
                rec.set_f64(&path, rng.random_range(-1.0e6..1.0e6)).unwrap();
            }
            FieldKind::Scalar(BaseType::Char) => {
                rec.set_i64(&path, rng.random_range(32i64..127)).unwrap();
            }
            FieldKind::Scalar(_) => {
                rec.set_i64(&path, int_val(rng, f.size)).unwrap();
            }
            FieldKind::String => {
                if absent_strings && rng.random_bool(0.3) {
                    continue;
                }
                let n = rng.random_range(0usize..12);
                let s: String =
                    (0..n).map(|_| (b'a' + rng.random_range(0u8..26)) as char).collect();
                rec.set_string(&path, s).unwrap();
            }
            FieldKind::StaticArray { elem: BaseType::Float, count, .. } => {
                for i in 0..*count {
                    rec.set_elem_f64(&path, i, rng.random_range(-1.0e6..1.0e6)).unwrap();
                }
            }
            FieldKind::StaticArray { elem_size, count, .. } => {
                for i in 0..*count {
                    rec.set_elem_i64(&path, i, int_val(rng, *elem_size)).unwrap();
                }
            }
            FieldKind::DynamicArray { elem: BaseType::Float, .. } => {
                let n = rng.random_range(0usize..7);
                let vals: Vec<f64> = (0..n).map(|_| rng.random_range(-1.0e6..1.0e6)).collect();
                rec.set_f64_array(&path, &vals).unwrap();
            }
            FieldKind::DynamicArray { elem_size, .. } => {
                let n = rng.random_range(0usize..7);
                let vals: Vec<i64> = (0..n).map(|_| int_val(rng, *elem_size)).collect();
                rec.set_i64_array(&path, &vals).unwrap();
            }
            FieldKind::Nested(sub) => {
                let sub = sub.clone();
                fill(rng, rec, &sub, &format!("{path}."), absent_strings);
            }
        }
    }
}

fn register(reg: &FormatRegistry, inner: &[FSpec], outer: &[FSpec]) -> Arc<FormatDescriptor> {
    reg.register(FormatSpec::new("Inner", inner.iter().map(FSpec::to_iofield).collect())).unwrap();
    reg.register(FormatSpec::new("Outer", outer.iter().map(FSpec::to_iofield).collect())).unwrap()
}

/// One full differential case for a (sender, receiver) machine pair.
fn run_case(seed: u64, sender_machine: MachineModel, receiver_machine: MachineModel) {
    let mut rng = StdRng::seed_from_u64(seed);
    let inner = gen_fields(&mut rng, None);
    let outer = gen_fields(&mut rng, Some("Inner"));
    let rx_inner = mutate_fields(&mut rng, &inner);
    let rx_outer = mutate_fields(&mut rng, &outer);

    let sreg = FormatRegistry::new(sender_machine);
    let rreg = FormatRegistry::new(receiver_machine);
    let sfmt = register(&sreg, &inner, &outer);
    let rfmt = register(&rreg, &rx_inner, &rx_outer);

    let mut rec = RawRecord::new(sfmt.clone());
    fill(&mut rng, &mut rec, &sfmt, "", false);

    // Encode: compiled output must be byte-identical to interpreted.
    let mut interp = Vec::new();
    encode_into_interpreted(&rec, &mut interp).unwrap();
    let wire = encode(&rec).unwrap();
    assert_eq!(wire, interp, "seed {seed}: compiled encode differs");

    // Same-format decode (the extract fast path).
    let same_c = decode_with(&wire, &sreg, &sfmt).unwrap();
    let same_i = decode_with_interpreted(&wire, &sreg, &sfmt).unwrap();
    assert_eq!(same_c, same_i, "seed {seed}: same-format decode differs");

    // Cross-machine, cross-width conversion, sender → receiver.
    rreg.register_descriptor((*sfmt).clone());
    let conv_c = decode_with(&wire, &rreg, &rfmt).unwrap();
    let conv_i = decode_with_interpreted(&wire, &rreg, &rfmt).unwrap();
    assert_eq!(conv_c, conv_i, "seed {seed}: conversion differs");

    // And back: re-encode the converted record on the receiver and decode
    // it into the sender's format (receiver → sender direction).
    let back_wire = encode(&conv_c).unwrap();
    let mut back_interp = Vec::new();
    encode_into_interpreted(&conv_c, &mut back_interp).unwrap();
    assert_eq!(back_wire, back_interp, "seed {seed}: re-encode differs");
    sreg.register_descriptor((*rfmt).clone());
    let back_c = decode_with(&back_wire, &sreg, &sfmt).unwrap();
    let back_i = decode_with_interpreted(&back_wire, &sreg, &sfmt).unwrap();
    assert_eq!(back_c, back_i, "seed {seed}: reverse conversion differs");
}

const MACHINES: [MachineModel; 4] =
    [MachineModel::SPARC32, MachineModel::X86, MachineModel::X86_64, MachineModel::SPARC64];

/// Wire-to-wire conversion against its definition: converting a wire
/// image straight into the receiver's wire image must give exactly the
/// bytes of `encode(decode_with(..))`, for a sender and a receiver drawn
/// from all four machine models (so every byte-order and pointer-width
/// pairing), with dropped fields, re-rolled scalar and array widths,
/// empty arrays, empty and absent strings.  Each direction is checked,
/// and so is the same-format conversion.
fn run_wire_case(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (sm, rm) = (pick(&mut rng, &MACHINES), pick(&mut rng, &MACHINES));
    let inner = gen_fields(&mut rng, None);
    let outer = gen_fields(&mut rng, Some("Inner"));
    let rx_inner = mutate_fields(&mut rng, &inner);
    let rx_outer = mutate_fields(&mut rng, &outer);
    let sreg = FormatRegistry::new(sm);
    let rreg = FormatRegistry::new(rm);
    let sfmt = register(&sreg, &inner, &outer);
    let rfmt = register(&rreg, &rx_inner, &rx_outer);
    rreg.register_descriptor((*sfmt).clone());
    sreg.register_descriptor((*rfmt).clone());

    let mut rec = RawRecord::new(sfmt.clone());
    fill(&mut rng, &mut rec, &sfmt, "", true);
    let wire = encode(&rec).unwrap();
    for (wire, reg, target) in [(&wire, &rreg, &rfmt), (&wire, &sreg, &sfmt)] {
        let want = encode(&decode_with(wire, reg, target).unwrap()).unwrap();
        // Appending behind existing bytes, as a frame header sits in front.
        let mut got = vec![0xEE; 5];
        let n = convert_wire_into(wire, reg, target, &mut got).unwrap();
        assert_eq!(n, want.len(), "seed {seed}: {sm:?} -> {:?} length", target.machine);
        assert_eq!(&got[5..], &want[..], "seed {seed}: {sm:?} -> {:?}", target.machine);
    }
    // And back: the receiver's wire image into the sender's format.
    let back = encode(&decode_with(&wire, &rreg, &rfmt).unwrap()).unwrap();
    let want = encode(&decode_with(&back, &sreg, &sfmt).unwrap()).unwrap();
    let mut got = Vec::new();
    convert_wire_into(&back, &sreg, &sfmt, &mut got).unwrap();
    assert_eq!(got, want, "seed {seed}: {rm:?} -> {sm:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn wire_convert_matches_decode_then_encode(seed in any::<u64>()) {
        run_wire_case(seed);
    }

    #[test]
    fn compiled_matches_interpreted_big_endian_sender(seed in any::<u64>()) {
        run_case(seed, MachineModel::SPARC32, MachineModel::X86_64);
    }

    #[test]
    fn compiled_matches_interpreted_little_endian_sender(seed in any::<u64>()) {
        run_case(seed, MachineModel::X86_64, MachineModel::SPARC32);
    }
}
