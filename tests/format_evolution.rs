//! Experiment E6 (DESIGN.md): PBIO's restricted format evolution through
//! the full XMIT stack — "elements may be added to message formats
//! without causing receivers of previous versions of the message to
//! fail" (§5).

use std::sync::{Arc, Barrier};
use std::thread;

use xmit::{HttpServer, MachineModel, Xmit};

const XSD: &str = "http://www.w3.org/2001/XMLSchema";

fn doc(extra_fields: &str) -> String {
    format!(
        r#"<xsd:complexType name="Sample" xmlns:xsd="{XSD}">
             <xsd:element name="station" type="xsd:string" />
             <xsd:element name="level" type="xsd:double" />
             {extra_fields}
           </xsd:complexType>"#
    )
}

#[test]
fn v2_sender_to_v1_receiver_and_back() {
    // Receiver binds v1 and never changes.
    let receiver = Xmit::new(MachineModel::native());
    receiver.load_str(&doc("")).unwrap();
    let v1 = receiver.bind("Sample").unwrap();

    // Sender binds v2 with two added fields.
    let sender = Xmit::new(MachineModel::native());
    sender
        .load_str(&doc(r#"<xsd:element name="turbidity" type="xsd:double" />
               <xsd:element name="operator" type="xsd:string" />"#))
        .unwrap();
    let v2 = sender.bind("Sample").unwrap();
    assert_ne!(v1.id(), v2.id());

    // v2 → v1: extra fields are ignored.
    let mut rec = v2.new_record();
    rec.set_string("station", "upstream-7").unwrap();
    rec.set_f64("level", 2.25).unwrap();
    rec.set_f64("turbidity", 40.0).unwrap();
    rec.set_string("operator", "pmw").unwrap();
    let wire = xmit::encode(&rec).unwrap();
    receiver.registry().register_descriptor((*v2.format).clone());
    let got = xmit::decode(&wire, receiver.registry()).unwrap();
    assert_eq!(got.format().fields.len(), 2, "receiver stays on v1");
    assert_eq!(got.get_string("station").unwrap(), "upstream-7");
    assert_eq!(got.get_f64("level").unwrap(), 2.25);
    assert!(got.get_f64("turbidity").is_err());

    // v1 → v2: missing fields default to zero, nothing fails.
    let mut old = v1.new_record();
    old.set_string("station", "downstream-1").unwrap();
    old.set_f64("level", 1.5).unwrap();
    let wire = xmit::encode(&old).unwrap();
    sender.registry().register_descriptor((*v1.format).clone());
    let got = xmit::decode(&wire, sender.registry()).unwrap();
    assert_eq!(got.get_string("station").unwrap(), "downstream-1");
    assert_eq!(got.get_f64("turbidity").unwrap(), 0.0);
    assert_eq!(got.get_string("operator").unwrap(), "");
}

#[test]
fn central_format_change_without_receiver_restart() {
    // The paper's usability story: the format changes on the server; the
    // sender refreshes; a receiver that never re-fetched keeps working.
    let server = HttpServer::start().unwrap();
    server.put_xml("/s.xsd", doc(""));
    let url = server.url_for("/s.xsd");

    let sender = Xmit::new(MachineModel::native());
    sender.load_url(&url).unwrap();
    let receiver = Xmit::new(MachineModel::native());
    receiver.load_url(&url).unwrap();
    receiver.bind("Sample").unwrap();

    // Exchange under v1.
    let t1 = sender.bind("Sample").unwrap();
    receiver.registry().register_descriptor((*t1.format).clone());
    let mut rec = t1.new_record();
    rec.set_f64("level", 9.0).unwrap();
    let got = xmit::decode(&xmit::encode(&rec).unwrap(), receiver.registry()).unwrap();
    assert_eq!(got.get_f64("level").unwrap(), 9.0);

    // Evolve centrally; only the sender refreshes.
    server.put_xml("/s.xsd", doc(r#"<xsd:element name="flags" type="xsd:int" />"#));
    sender.refresh(&url).unwrap();
    let t2 = sender.bind("Sample").unwrap();
    assert_ne!(t1.id(), t2.id());
    receiver.registry().register_descriptor((*t2.format).clone());
    let mut rec = t2.new_record();
    rec.set_f64("level", 10.5).unwrap();
    rec.set_i64("flags", 3).unwrap();
    let got = xmit::decode(&xmit::encode(&rec).unwrap(), receiver.registry()).unwrap();
    assert_eq!(got.get_f64("level").unwrap(), 10.5);
    assert!(got.get_i64("flags").is_err(), "receiver still speaks v1");
}

#[test]
fn renamed_field_is_a_clean_default_not_corruption() {
    // Evolution by rename: the old name vanishes (defaults), the new name
    // is invisible to old receivers — values never silently cross wires.
    let a = Xmit::new(MachineModel::native());
    a.load_str(&doc("")).unwrap();
    let ta = a.bind("Sample").unwrap();

    let b = Xmit::new(MachineModel::native());
    b.load_str(&format!(
        r#"<xsd:complexType name="Sample" xmlns:xsd="{XSD}">
                 <xsd:element name="station" type="xsd:string" />
                 <xsd:element name="depth_m" type="xsd:double" />
               </xsd:complexType>"#
    ))
    .unwrap();
    let tb = b.bind("Sample").unwrap();

    let mut rec = tb.new_record();
    rec.set_string("station", "x").unwrap();
    rec.set_f64("depth_m", 7.5).unwrap();
    let wire = xmit::encode(&rec).unwrap();
    a.registry().register_descriptor((*tb.format).clone());
    let got = xmit::decode(&wire, a.registry()).unwrap();
    assert_eq!(got.format().id(), ta.id());
    assert_eq!(got.get_string("station").unwrap(), "x");
    assert_eq!(got.get_f64("level").unwrap(), 0.0, "renamed field defaults, never aliases");
}

#[test]
fn refresh_racing_a_bind_never_leaves_a_stale_binding() {
    // A component refreshes a format (`load_str` of a new revision of
    // `T`) while another thread binds it.  Whichever wins, the binding
    // the toolkit keeps afterwards must be the new revision's.  `T`
    // composes six parts from another document, so a bind spends most
    // of its time binding them after it has read `T`'s definition.
    const TRIALS: usize = 500;
    let parts: String = (0..6)
        .map(|k| {
            format!(
                r#"<xsd:complexType name="P{k}">
                     <xsd:element name="a" type="xsd:int" />
                     <xsd:element name="b" type="xsd:double" />
                   </xsd:complexType>"#
            )
        })
        .collect();
    let parts = format!(r#"<xsd:schema xmlns:xsd="{XSD}">{parts}</xsd:schema>"#);
    let t = |extra: &str| {
        let refs: String =
            (0..6).map(|k| format!(r#"<xsd:element name="p{k}" type="P{k}" />"#)).collect();
        format!(r#"<xsd:complexType name="T" xmlns:xsd="{XSD}">{refs}{extra}</xsd:complexType>"#)
    };
    let (v1, v2) = (t(""), t(r#"<xsd:element name="flags" type="xsd:int" />"#));
    let fresh = Xmit::new(MachineModel::native());
    fresh.load_str(&parts).unwrap();
    fresh.load_str(&v2).unwrap();
    let want = fresh.bind("T").unwrap().id();

    let mut stale = 0;
    for _ in 0..TRIALS {
        let xmit = Arc::new(Xmit::new(MachineModel::native()));
        xmit.load_str(&parts).unwrap();
        xmit.load_str(&v1).unwrap();
        let start = Arc::new(Barrier::new(2));
        let binder = {
            let (xmit, start) = (Arc::clone(&xmit), Arc::clone(&start));
            thread::spawn(move || {
                start.wait();
                xmit.bind("T").unwrap();
            })
        };
        start.wait();
        xmit.load_str(&v2).unwrap();
        binder.join().unwrap();
        if xmit.bind("T").unwrap().id() != want {
            stale += 1;
        }
    }
    assert_eq!(stale, 0, "{stale} of {TRIALS} trials kept the old revision's binding");
}
