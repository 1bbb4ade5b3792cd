//! Copy-count gate for the publish path.
//!
//! It reads the process-global marshal counters, so it lives in its own
//! test binary, as one test: nothing else in the process moves them
//! while it measures.

use std::sync::Arc;

use openmeta_echo::{ChannelConfig, ChannelHost, ChannelSubscriber, Projection};
use openmeta_pbio::{convert_wire_into, decode_with, encode, FormatRegistry, MachineModel};
use openmeta_schema::{parse_str, to_xml, ComplexType, SchemaDocument};
use xmit::{project_type, Xmit};

const XSD: &str = "http://www.w3.org/2001/XMLSchema";

fn flow_type() -> ComplexType {
    parse_str(&format!(
        r#"<xsd:complexType name="Flow" xmlns:xsd="{XSD}">
             <xsd:element name="timestep" type="xsd:integer" />
             <xsd:element name="station" type="xsd:string" />
             <xsd:element name="depth" type="xsd:double" maxOccurs="*"
                 dimensionName="ncells" />
             <xsd:element name="quality" type="xsd:double" />
           </xsd:complexType>"#
    ))
    .unwrap()
    .types
    .remove(0)
}

/// (bytes copied, allocations) so far, from the global marshal counters.
fn marshal_totals() -> (u64, u64) {
    let c = openmeta_obs::marshal_counters();
    (c.bytes_copied_total.get(), c.alloc_total.get())
}

#[test]
fn publish_writes_each_delivered_byte_once_and_projects_without_a_record() {
    let flow = flow_type();
    let narrowed = Projection::keeping(["timestep", "station", "depth"]).with_narrowing();
    let host = ChannelHost::start(ChannelConfig::default()).unwrap();
    let chan = host.create_channel(&flow).unwrap();
    let mut full = ChannelSubscriber::connect(host.addr(), chan.format_id(), None).unwrap();
    let mut proj =
        ChannelSubscriber::connect(host.addr(), chan.format_id(), Some(&narrowed)).unwrap();

    // Host side: one publish to an identity seat and a narrowed seat
    // copies exactly the two wire images it sends, and no more, and
    // allocates nothing in the marshal layer (the pooled frames are the
    // channel's); converting through a record would allocate its fixed
    // image and one buffer per payload.
    for cells in [0usize, 3, 1000, 40_000] {
        let depth: Vec<f64> = (0..cells).map(|i| i as f64 / 7.0).collect();
        let mut rec = chan.new_record();
        rec.set_i64("timestep", cells as i64).unwrap();
        rec.set_string("station", "gauge-7").unwrap();
        rec.set_f64_array("depth", &depth).unwrap();
        rec.set_f64("quality", 0.25).unwrap();

        let (bytes0, allocs0) = marshal_totals();
        let receipt = chan.publish(&rec).unwrap();
        let (bytes1, allocs1) = marshal_totals();
        assert_eq!(receipt.encodes, 2);

        let got_full = full.recv().unwrap().unwrap();
        let got_proj = proj.recv().unwrap().unwrap();
        let full_wire = encode(&rec).unwrap();
        assert_eq!(encode(&got_full).unwrap(), full_wire);
        let narrowed_depth: Vec<f64> = depth.iter().map(|&d| d as f32 as f64).collect();
        assert_eq!(got_proj.get_f64_array("depth").unwrap(), narrowed_depth);
        assert_eq!(got_proj.get_string("station").unwrap(), "gauge-7");

        let wire_lens = full_wire.len() + encode(&got_proj).unwrap().len();
        assert_eq!(bytes1 - bytes0, wire_lens as u64, "{cells} cells: bytes copied on the host");
        assert_eq!(allocs1 - allocs0, 0, "{cells} cells: marshal allocations");
    }

    // The projection itself, into a frame buffer with room: no
    // allocation at all, where decoding into the projected format and
    // re-encoding allocates the record and its payloads.
    let xm = Xmit::new(MachineModel::native());
    let projected_type = project_type(&flow, &narrowed).unwrap();
    xm.load_str(&to_xml(&SchemaDocument { types: vec![projected_type.clone()], enums: vec![] }))
        .unwrap();
    let target = xm.bind(&projected_type.name).unwrap().format;
    let registry: &Arc<FormatRegistry> = xm.registry();
    registry.register_descriptor((**chan.format()).clone());
    let mut rec = chan.new_record();
    rec.set_string("station", "gauge-7").unwrap();
    rec.set_f64_array("depth", &[1.5; 512]).unwrap();
    let wire = encode(&rec).unwrap();
    let want = encode(&decode_with(&wire, registry, &target).unwrap()).unwrap();
    let mut frame = Vec::with_capacity(5 + want.len());
    frame.extend_from_slice(&[0; 5]);

    let (bytes0, allocs0) = marshal_totals();
    let n = convert_wire_into(&wire, registry, &target, &mut frame).unwrap();
    let (bytes1, allocs1) = marshal_totals();
    assert_eq!(&frame[5..], &want[..]);
    assert_eq!((n as u64, bytes1 - bytes0, allocs1 - allocs0), (want.len() as u64, n as u64, 0));

    let (_, before) = marshal_totals();
    decode_with(&wire, registry, &target).unwrap();
    let (_, after) = marshal_totals();
    assert!(after - before >= 3, "the record path allocates its image and payloads");
}
