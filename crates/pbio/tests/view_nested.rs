//! `RecordView` over composed formats: the zero-copy fast path must
//! reach fields inside nested records (dotted paths) directly in the wire
//! buffer, including out-of-line strings and arrays owned by subrecords.

use std::sync::Arc;

use openmeta_pbio::prelude::*;
use openmeta_pbio::{decode_borrowed, Decoded, RecordView};

fn setup() -> (FormatRegistry, RawRecord) {
    let reg = FormatRegistry::new(MachineModel::native());
    reg.register(FormatSpec::new(
        "Hdr",
        vec![
            IOField::auto("seq", "integer", 4),
            IOField::auto("src", "string", 0),
            IOField::auto("n", "integer", 4),
            IOField::auto("weights", "float[n]", 8),
        ],
    ))
    .unwrap();
    let fmt = reg
        .register(FormatSpec::new(
            "Env",
            vec![
                IOField::auto("hdr", "Hdr", 0),
                IOField::auto("value", "float", 8),
                IOField::auto("note", "string", 0),
            ],
        ))
        .unwrap();
    let mut rec = RawRecord::new(fmt);
    rec.set_i64("hdr.seq", 41).unwrap();
    rec.set_string("hdr.src", "coupler").unwrap();
    rec.set_f64_array("hdr.weights", &[0.5, 0.25]).unwrap();
    rec.set_f64("value", -8.5).unwrap();
    rec.set_string("note", "outer").unwrap();
    (reg, rec)
}

/// Decode `wire` as the record's own format, which must take the
/// borrowed path.
fn borrowed_view<'a>(
    wire: &'a [u8],
    reg: &FormatRegistry,
    target: &Arc<FormatDescriptor>,
) -> RecordView<'a> {
    match decode_borrowed(wire, reg, target).unwrap() {
        Decoded::View(view) => view,
        Decoded::Owned(_) => panic!("same-layout decode must borrow"),
    }
}

#[test]
fn nested_scalars_and_strings_read_in_place() {
    let (reg, rec) = setup();
    let wire = encode(&rec).unwrap();
    let view = borrowed_view(&wire, &reg, rec.format());
    assert_eq!(view.get_i64("hdr.seq").unwrap(), 41);
    assert_eq!(view.get_str("hdr.src").unwrap(), "coupler");
    assert_eq!(view.get_f64("value").unwrap(), -8.5);
    assert_eq!(view.get_str("note").unwrap(), "outer");
    assert_eq!(view.get_f64_array("hdr.weights").unwrap(), vec![0.5, 0.25]);
}

#[test]
fn view_agrees_with_full_decode() {
    let (reg, rec) = setup();
    let wire = encode(&rec).unwrap();
    let view = borrowed_view(&wire, &reg, rec.format());
    let full = decode(&wire, &reg).unwrap();
    assert_eq!(view.get_i64("hdr.seq").unwrap(), full.get_i64("hdr.seq").unwrap());
    assert_eq!(view.get_str("hdr.src").unwrap(), full.get_string("hdr.src").unwrap());
    assert_eq!(
        view.get_f64_array("hdr.weights").unwrap(),
        full.get_f64_array("hdr.weights").unwrap()
    );
}

#[test]
fn view_errors_are_typed_not_panics() {
    let (reg, rec) = setup();
    let wire = encode(&rec).unwrap();
    let view = borrowed_view(&wire, &reg, rec.format());
    assert!(view.get_i64("hdr.src").is_err(), "wrong type");
    assert!(view.get_str("hdr.seq").is_err(), "wrong type");
    assert!(view.get_f64("hdr.missing").is_err(), "no such field");
    // Truncated buffer: view construction already fails.
    assert!(decode_borrowed(&wire[..wire.len() - 4], &reg, rec.format()).is_err());
}
