//! Property-based tests for the PBIO substrate.
//!
//! Invariants exercised:
//! * layout: offsets are aligned, non-overlapping, and the record size
//!   covers every slot;
//! * marshal: encode → decode is an identity on the same machine, down to
//!   record equality (an empty dynamic array decodes as an absent one);
//! * convert: encode on machine A → decode on machine B preserves every
//!   field value, for all pairs of supported machine models;
//! * descriptor codec: encode → decode is an identity;
//! * robustness: decoding arbitrary mutations of a valid buffer never
//!   panics.

use std::sync::Arc;

use proptest::prelude::*;

use openmeta_pbio::layout::align_up;
use openmeta_pbio::prelude::*;

/// A generated field: name is assigned by position.
#[derive(Debug, Clone)]
enum GenField {
    Int(usize),   // size
    Uint(usize),  // size
    Float(usize), // 4 or 8
    Bool,
    Str,
    CharArray(usize),
    FloatDyn(usize),          // elem size; brings its own length field
    StaticInts(usize, usize), // elem size, count
}

#[derive(Debug, Clone)]
struct GenValue {
    ints: Vec<i64>,
    floats: Vec<f64>,
    strings: Vec<String>,
    float_arrays: Vec<Vec<f64>>,
}

fn field_strategy() -> impl Strategy<Value = GenField> {
    prop_oneof![
        prop_oneof![Just(1usize), Just(2), Just(4), Just(8)].prop_map(GenField::Int),
        prop_oneof![Just(1usize), Just(2), Just(4), Just(8)].prop_map(GenField::Uint),
        prop_oneof![Just(4usize), Just(8)].prop_map(GenField::Float),
        Just(GenField::Bool),
        Just(GenField::Str),
        (1usize..12).prop_map(GenField::CharArray),
        prop_oneof![Just(4usize), Just(8)].prop_map(GenField::FloatDyn),
        (prop_oneof![Just(2usize), Just(4), Just(8)], 1usize..5)
            .prop_map(|(s, c)| GenField::StaticInts(s, c)),
    ]
}

fn spec_from(fields: &[GenField], name: &str) -> FormatSpec {
    let mut io = Vec::new();
    for (i, f) in fields.iter().enumerate() {
        match f {
            GenField::Int(s) => io.push(IOField::auto(format!("f{i}"), "integer", *s)),
            GenField::Uint(s) => io.push(IOField::auto(format!("f{i}"), "unsigned integer", *s)),
            GenField::Float(s) => io.push(IOField::auto(format!("f{i}"), "float", *s)),
            GenField::Bool => io.push(IOField::auto(format!("f{i}"), "boolean", 4)),
            GenField::Str => io.push(IOField::auto(format!("f{i}"), "string", 0)),
            GenField::CharArray(n) => {
                io.push(IOField::auto(format!("f{i}"), format!("char[{n}]"), 1))
            }
            GenField::FloatDyn(s) => {
                io.push(IOField::auto(format!("len{i}"), "integer", 4));
                io.push(IOField::auto(format!("f{i}"), format!("float[len{i}]"), *s));
            }
            GenField::StaticInts(s, c) => {
                io.push(IOField::auto(format!("f{i}"), format!("integer[{c}]"), *s))
            }
        }
    }
    FormatSpec::new(name, io)
}

fn value_strategy(fields: Vec<GenField>) -> impl Strategy<Value = (Vec<GenField>, GenValue)> {
    let n = fields.len();
    (
        proptest::collection::vec(any::<i64>(), n),
        proptest::collection::vec(-1.0e12f64..1.0e12, n),
        proptest::collection::vec("[a-zA-Z0-9 _.-]{0,24}", n),
        proptest::collection::vec(proptest::collection::vec(-1.0e6f64..1.0e6, 0..12), n),
    )
        .prop_map(move |(ints, floats, strings, float_arrays)| {
            (fields.clone(), GenValue { ints, floats, strings, float_arrays })
        })
}

fn format_and_value() -> impl Strategy<Value = (Vec<GenField>, GenValue)> {
    proptest::collection::vec(field_strategy(), 1..8).prop_flat_map(value_strategy)
}

/// Quantize a float so it survives an f32 narrowing unchanged.
fn f32_clean(x: f64) -> f64 {
    x as f32 as f64
}

fn fill(rec: &mut RawRecord, fields: &[GenField], v: &GenValue) {
    for (i, f) in fields.iter().enumerate() {
        let path = format!("f{i}");
        match f {
            GenField::Int(s) | GenField::Uint(s) => {
                // Keep the value within the field width so the round trip
                // is exact.
                let bits = (*s as u32) * 8;
                let val = if bits == 64 { v.ints[i] } else { v.ints[i] % (1i64 << (bits - 1)) };
                rec.set_i64(&path, val).unwrap();
            }
            GenField::Float(s) => {
                let val = if *s == 4 { f32_clean(v.floats[i]) } else { v.floats[i] };
                rec.set_f64(&path, val).unwrap();
            }
            GenField::Bool => rec.set_bool(&path, v.ints[i] % 2 == 0).unwrap(),
            GenField::Str => rec.set_string(&path, v.strings[i].clone()).unwrap(),
            GenField::CharArray(_) => rec.set_char_array(&path, &v.strings[i]).unwrap(),
            GenField::FloatDyn(s) => {
                let vals: Vec<f64> = v.float_arrays[i]
                    .iter()
                    .map(|&x| if *s == 4 { f32_clean(x) } else { x })
                    .collect();
                rec.set_f64_array(&path, &vals).unwrap();
            }
            GenField::StaticInts(s, c) => {
                let bits = (*s as u32) * 8;
                for j in 0..*c {
                    let val = (v.ints[i].wrapping_add(j as i64)) % (1i64 << (bits - 1).min(62));
                    rec.set_elem_i64(&path, j, val).unwrap();
                }
            }
        }
    }
}

fn check(got: &RawRecord, want: &RawRecord, fields: &[GenField], chararray_cap: bool) {
    for (i, f) in fields.iter().enumerate() {
        let path = format!("f{i}");
        match f {
            GenField::Int(_) | GenField::Uint(_) => {
                assert_eq!(got.get_i64(&path).unwrap(), want.get_i64(&path).unwrap(), "{path}")
            }
            GenField::Float(_) => {
                assert_eq!(got.get_f64(&path).unwrap(), want.get_f64(&path).unwrap(), "{path}")
            }
            GenField::Bool => {
                assert_eq!(got.get_bool(&path).unwrap(), want.get_bool(&path).unwrap(), "{path}")
            }
            GenField::Str => assert_eq!(
                got.get_string(&path).unwrap(),
                want.get_string(&path).unwrap(),
                "{path}"
            ),
            GenField::CharArray(n) => {
                let mut expect = want.get_char_array(&path).unwrap();
                if chararray_cap {
                    expect.truncate(*n);
                }
                assert_eq!(got.get_char_array(&path).unwrap(), expect, "{path}");
            }
            GenField::FloatDyn(_) => assert_eq!(
                got.get_f64_array(&path).unwrap(),
                want.get_f64_array(&path).unwrap(),
                "{path}"
            ),
            GenField::StaticInts(_, c) => {
                for j in 0..*c {
                    assert_eq!(
                        got.get_elem_i64(&path, j).unwrap(),
                        want.get_elem_i64(&path, j).unwrap(),
                        "{path}[{j}]"
                    );
                }
            }
        }
    }
}

const MACHINES: [MachineModel; 4] =
    [MachineModel::SPARC32, MachineModel::SPARC64, MachineModel::X86, MachineModel::X86_64];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn layout_invariants((fields, _) in format_and_value(), midx in 0usize..4) {
        let machine = MACHINES[midx];
        let reg = FormatRegistry::new(machine);
        let fmt = reg.register(spec_from(&fields, "P")).unwrap();
        let mut end = 0usize;
        for f in &fmt.fields {
            prop_assert_eq!(f.offset % f.align, 0, "field {} misaligned", f.name);
            prop_assert!(f.offset >= end, "field {} overlaps its predecessor", f.name);
            end = f.offset + f.size;
        }
        prop_assert!(fmt.record_size >= end);
        prop_assert_eq!(align_up(fmt.record_size, fmt.align), fmt.record_size);
    }

    #[test]
    fn same_machine_round_trip((fields, v) in format_and_value()) {
        let reg = FormatRegistry::new(MachineModel::native());
        let fmt = reg.register(spec_from(&fields, "P")).unwrap();
        let mut rec = RawRecord::new(fmt);
        fill(&mut rec, &fields, &v);
        let wire = encode(&rec).unwrap();
        let back = decode(&wire, &reg).unwrap();
        check(&back, &rec, &fields, false);
        prop_assert_eq!(back, rec);
    }

    #[test]
    fn cross_machine_round_trip((fields, v) in format_and_value(), s in 0usize..4, r in 0usize..4) {
        let sender = FormatRegistry::new(MACHINES[s]);
        let receiver = FormatRegistry::new(MACHINES[r]);
        let sfmt = sender.register(spec_from(&fields, "P")).unwrap();
        receiver.register(spec_from(&fields, "P")).unwrap();
        receiver.register_descriptor((*sfmt).clone());
        let mut rec = RawRecord::new(sfmt);
        fill(&mut rec, &fields, &v);
        let wire = encode(&rec).unwrap();
        let back = decode(&wire, &receiver).unwrap();
        prop_assert_eq!(back.format().machine, MACHINES[r]);
        check(&back, &rec, &fields, false);
    }

    #[test]
    fn descriptor_codec_round_trip((fields, _) in format_and_value(), midx in 0usize..4) {
        let reg = FormatRegistry::new(MACHINES[midx]);
        let fmt = reg.register(spec_from(&fields, "P")).unwrap();
        let bytes = openmeta_pbio::codec::encode_descriptor(&fmt);
        let back = openmeta_pbio::codec::decode_descriptor(&bytes).unwrap();
        prop_assert_eq!(&back, &*fmt);
    }

    #[test]
    fn decode_never_panics_on_mutation(
        (fields, v) in format_and_value(),
        flips in proptest::collection::vec((any::<prop::sample::Index>(), any::<u8>()), 1..6),
        cut in any::<prop::sample::Index>(),
    ) {
        let reg = FormatRegistry::new(MachineModel::native());
        let fmt = reg.register(spec_from(&fields, "P")).unwrap();
        let mut rec = RawRecord::new(fmt);
        fill(&mut rec, &fields, &v);
        let mut wire = encode(&rec).unwrap();
        for (idx, byte) in &flips {
            let i = idx.index(wire.len());
            wire[i] ^= *byte;
        }
        let _ = decode(&wire, &reg); // must not panic
        let cut_at = cut.index(wire.len());
        let _ = decode(&wire[..cut_at], &reg); // must not panic
    }

    #[test]
    fn value_round_trip((fields, v) in format_and_value()) {
        let reg = FormatRegistry::new(MachineModel::native());
        let fmt = reg.register(spec_from(&fields, "P")).unwrap();
        let mut rec = RawRecord::new(fmt.clone());
        fill(&mut rec, &fields, &v);
        let val = Value::from_record(&rec).unwrap();
        let back = val.into_record(fmt).unwrap();
        check(&back, &rec, &fields, false);
    }

    #[test]
    fn encoded_size_is_stable((fields, v) in format_and_value()) {
        let reg = FormatRegistry::new(MachineModel::native());
        let fmt = reg.register(spec_from(&fields, "P")).unwrap();
        let mut rec = RawRecord::new(fmt);
        fill(&mut rec, &fields, &v);
        let a = encode(&rec).unwrap();
        let b = encode(&rec).unwrap();
        prop_assert_eq!(a, b);
    }
}

/// Re-encode after a cross-machine decode and decode again: values must
/// still match (conversion composes).
#[test]
fn conversion_composes() {
    let fields = vec![GenField::Int(4), GenField::Str, GenField::FloatDyn(8), GenField::Uint(8)];
    let v = GenValue {
        ints: vec![-5, 0, 0, 7],
        floats: vec![0.0; 4],
        strings: vec!["x".into(), "hello world".into(), String::new(), "t".into()],
        float_arrays: vec![vec![], vec![], vec![1.0, -2.0, 3.5], vec![]],
    };
    let a = FormatRegistry::new(MachineModel::SPARC32);
    let b = FormatRegistry::new(MachineModel::X86_64);
    let c = FormatRegistry::new(MachineModel::X86);
    let af = a.register(spec_from(&fields, "P")).unwrap();
    let bf = b.register(spec_from(&fields, "P")).unwrap();
    b.register_descriptor((*af).clone());
    c.register(spec_from(&fields, "P")).unwrap();
    c.register_descriptor((*bf).clone());

    let mut rec = RawRecord::new(af);
    fill(&mut rec, &fields, &v);
    let wire_ab = encode(&rec).unwrap();
    let at_b = decode(&wire_ab, &b).unwrap();
    let wire_bc = encode(&at_b).unwrap();
    let at_c = decode(&wire_bc, &c).unwrap();
    check(&at_c, &rec, &fields, false);
}

/// The registry used from many threads while records flow.
#[test]
fn concurrent_encode_decode() {
    let reg = Arc::new(FormatRegistry::new(MachineModel::native()));
    let fmt = reg
        .register(FormatSpec::new(
            "C",
            vec![
                IOField::auto("n", "integer", 4),
                IOField::auto("xs", "float[n]", 8),
                IOField::auto("who", "string", 0),
            ],
        ))
        .unwrap();
    let mut handles = Vec::new();
    for t in 0..8 {
        let reg = reg.clone();
        let fmt = fmt.clone();
        handles.push(std::thread::spawn(move || {
            for i in 0..200 {
                let mut rec = RawRecord::new(fmt.clone());
                let xs: Vec<f64> = (0..(i % 7)).map(|k| (t * 1000 + k) as f64).collect();
                rec.set_f64_array("xs", &xs).unwrap();
                rec.set_string("who", format!("thread-{t}")).unwrap();
                let wire = encode(&rec).unwrap();
                let back = decode(&wire, &reg).unwrap();
                assert_eq!(back.get_f64_array("xs").unwrap(), xs);
                assert_eq!(back.get_string("who").unwrap(), format!("thread-{t}"));
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
}
