//! A peer's descriptor is input, not a promise.
//!
//! Compiled plans run with no per-record layout checks, so a descriptor
//! whose layout lies (a pointer slot past the record, or too narrow to
//! hold a pointer) must be refused when its plan is compiled — in every
//! build — and never reach a record.  Each case takes a registered
//! `{x: integer, label: string}`, damages the `label` slot, round-trips
//! the descriptor through `codec` (so it carries its own content id, as
//! a FORMAT frame would), and feeds a record under that id to each
//! decode entry point, or a record of that format to each encode entry
//! point.  A refusal is cached like a plan, so a peer replaying records
//! under the lie pays for one compile, not one each.

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

use openmeta_pbio::codec::{decode_descriptor, encode_descriptor};
use openmeta_pbio::layout::FieldLayout;
use openmeta_pbio::prelude::*;
use openmeta_pbio::{decode_borrowed, PbioError};
use xmit::{XmitError, XmitReceiver};

/// XMIT frame kinds: a descriptor, then a record under its id.
const FRAME_FORMAT: u8 = 1;
const FRAME_RECORD: u8 = 2;

fn labelled(reg: &FormatRegistry) -> Arc<FormatDescriptor> {
    reg.register(FormatSpec::new(
        "Labelled",
        vec![IOField::auto("x", "integer", 4), IOField::auto("label", "string", 0)],
    ))
    .unwrap()
}

/// The two lies: the `label` slot starts 64 bytes past the record, or
/// is 2 bytes wide.
fn hostile_descriptors(good: &FormatDescriptor) -> Vec<(&'static str, FormatDescriptor)> {
    let lie = |what, mutate: fn(&mut FieldLayout, usize)| {
        let mut d = good.clone();
        let label = d.fields.iter_mut().find(|f| f.name == "label").unwrap();
        mutate(label, good.record_size);
        (what, decode_descriptor(&encode_descriptor(&d)).unwrap())
    };
    vec![
        lie("slot past record_size", |f, record_size| f.offset = record_size + 64),
        lie("2-byte slot", |f, _| f.size = 2),
    ]
}

/// A record of the good format, re-addressed to `id`.
fn record_under(good: &Arc<FormatDescriptor>, id: FormatId) -> Vec<u8> {
    let mut rec = RawRecord::new(good.clone());
    rec.set_i64("x", 7).unwrap();
    rec.set_string("label", "hi").unwrap();
    let mut wire = encode(&rec).unwrap();
    wire[4..12].copy_from_slice(&id.0.to_be_bytes());
    wire
}

fn frame(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = (payload.len() as u32).to_be_bytes().to_vec();
    out.push(kind);
    out.extend_from_slice(payload);
    out
}

#[test]
fn hostile_descriptor_is_refused_by_decode() {
    let sender = FormatRegistry::new(MachineModel::native());
    let good = labelled(&sender);
    for (what, hostile) in hostile_descriptors(&good) {
        let receiver = FormatRegistry::new(MachineModel::native());
        let hostile = receiver.register_descriptor(hostile);
        let wire = record_under(&good, hostile.id());
        let err = decode(&wire, &receiver).expect_err(what);
        assert!(matches!(err, PbioError::PlanRejected { .. }), "{what}: {err}");
    }
}

#[test]
fn hostile_descriptor_is_refused_by_every_encoder() {
    let sender = FormatRegistry::new(MachineModel::native());
    let good = labelled(&sender);
    for (what, hostile) in hostile_descriptors(&good) {
        let mut rec = RawRecord::new(Arc::new(hostile));
        rec.set_i64("x", 7).unwrap();
        let mut enc = Encoder::new();
        let errors = [
            enc.encode(&rec).map(<[u8]>::len).expect_err(what),
            enc.encode_into(&rec, &mut Vec::new()).expect_err(what),
            encode(&rec).expect_err(what),
        ];
        for err in errors {
            assert!(matches!(err, PbioError::PlanRejected { .. }), "{what}: {err}");
        }
    }
}

#[test]
fn hostile_descriptor_is_refused_by_decode_borrowed() {
    let sender = FormatRegistry::new(MachineModel::native());
    let good = labelled(&sender);
    for (what, hostile) in hostile_descriptors(&good) {
        let receiver = FormatRegistry::new(MachineModel::native());
        let own = labelled(&receiver);
        let hostile = receiver.register_descriptor(hostile);
        let wire = record_under(&good, hostile.id());
        // Adopting the sender's format (the view path) and converting
        // into the receiver's own registration (the convert path).
        for target in [&hostile, &own] {
            let err = decode_borrowed(&wire, &receiver, target).expect_err(what);
            assert!(matches!(err, PbioError::PlanRejected { .. }), "{what}: {err}");
        }
    }
}

#[test]
fn hostile_descriptor_is_refused_by_an_xmit_receiver() {
    let sender = FormatRegistry::new(MachineModel::native());
    let good = labelled(&sender);
    for (what, hostile) in hostile_descriptors(&good) {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let mut bytes = frame(FRAME_FORMAT, &encode_descriptor(&hostile));
        bytes.extend(frame(FRAME_RECORD, &record_under(&good, hostile.id())));
        let peer = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.write_all(&bytes).unwrap();
        });
        let (stream, _) = listener.accept().unwrap();
        let mut rx =
            XmitReceiver::new(stream, Arc::new(FormatRegistry::new(MachineModel::native())));
        let err = rx.recv().expect_err(what);
        assert!(matches!(err, XmitError::Bcm(PbioError::PlanRejected { .. })), "{what}: {err}");
        peer.join().unwrap();
    }
}

#[test]
fn a_rejected_plan_is_cached_not_recompiled_per_record() {
    let sender = FormatRegistry::new(MachineModel::native());
    let good = labelled(&sender);
    for (what, hostile) in hostile_descriptors(&good) {
        let receiver = FormatRegistry::new(MachineModel::native());
        let hostile = receiver.register_descriptor(hostile);
        let wire = record_under(&good, hostile.id());
        let errors: Vec<PbioError> =
            (0..1000).map(|_| decode(&wire, &receiver).expect_err(what)).collect();
        assert!(matches!(errors[0], PbioError::PlanRejected { .. }), "{what}: {}", errors[0]);
        assert!(errors.iter().all(|e| *e == errors[0]), "{what}: errors differ");
        let stats = receiver.plan_cache_stats();
        assert_eq!((stats.misses, stats.hits), (1, 999), "{what}");
    }
}
