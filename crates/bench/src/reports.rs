//! Figure regenerators: each function measures one of the paper's
//! figures and renders the same rows/series the paper reports.

use std::sync::Arc;
use std::time::Duration;

use openmeta_pbio::{FormatRegistry, MachineModel, RawRecord, Value};
use openmeta_wire::{all_formats, WireFormat, XmlWire};
use xmit::Xmit;

use crate::workloads::{
    figure1_record, figure3_cases, figure6_cases, figure7_cases, figure8_record, RegistrationCase,
    FIGURE8_SIZES,
};
use crate::{ms, pretty, time_mean, Table};

/// One row of a Figure 3 / Figure 6 registration table.
pub struct RegistrationRow {
    /// Format name.
    pub name: String,
    /// SPARC32 structure size (the paper's x-axis).
    pub sparc_size: usize,
    /// PBIO-encoded size of a default record (the bracketed number in
    /// Figure 3's axis labels).
    pub encoded_size: usize,
    /// Native (compiled-in) registration time.
    pub pbio: Duration,
    /// XMIT registration time (XML parse + metadata generation +
    /// registration).
    pub xmit: Duration,
}

impl RegistrationRow {
    /// The Remote Discovery Multiplier.
    pub fn rdm(&self) -> f64 {
        self.xmit.as_secs_f64() / self.pbio.as_secs_f64()
    }
}

/// Measure registration cost for a set of cases (Figures 3 and 6).
pub fn registration_rows(cases: &[RegistrationCase], iters: usize) -> Vec<RegistrationRow> {
    cases
        .iter()
        .map(|case| {
            // Encoded size of a zero record under the SPARC32 layout
            // (Figure 3 labels its x-axis "structure size [encoded size]").
            let sparc = FormatRegistry::new(MachineModel::SPARC32);
            let mut fmt = None;
            for spec in &case.compiled {
                fmt = Some(sparc.register(spec.clone()).expect("workload registers"));
            }
            let encoded_size =
                xmit::encode(&RawRecord::new(fmt.expect("nonempty"))).expect("encodes").len();

            let pbio = time_mean(
                iters,
                || FormatRegistry::new(MachineModel::native()),
                |reg| {
                    for spec in &case.compiled {
                        reg.register(spec.clone()).expect("registers");
                    }
                    reg
                },
            );
            let xmit_time = time_mean(
                iters,
                || Xmit::new(MachineModel::native()),
                |toolkit| {
                    toolkit.load_str(&case.xml).expect("loads");
                    toolkit.bind(case.name).expect("binds");
                    toolkit
                },
            );
            RegistrationRow {
                name: case.name.to_string(),
                sparc_size: case.sparc_size,
                encoded_size,
                pbio,
                xmit: xmit_time,
            }
        })
        .collect()
}

fn registration_table(rows: &[RegistrationRow]) -> Table {
    let mut t = Table::new(&[
        "format",
        "struct size [encoded] (bytes)",
        "PBIO reg (ms)",
        "XMIT reg (ms)",
        "RDM",
    ]);
    for r in rows {
        t.row(vec![
            r.name.clone(),
            format!("{} [{}]", r.sparc_size, r.encoded_size),
            ms(r.pbio),
            ms(r.xmit),
            format!("{:.2}", r.rdm()),
        ]);
    }
    t
}

/// Figure 3: proof-of-concept registration costs.
pub fn figure3_report(iters: usize) -> String {
    format!(
        "Figure 3 — format registration costs using PBIO and XMIT\n\
         (paper: RDM 1.87–2.05 for 32/52/180-byte structures)\n\n{}",
        registration_table(&registration_rows(&figure3_cases(), iters)).render()
    )
}

/// Figure 6: Hydrology registration costs.
pub fn figure6_report(iters: usize) -> String {
    format!(
        "Figure 6 — format registration costs for the Hydrology application\n\
         (paper: RDM 2.11–2.73 for 12/20/44-byte structures, 4 for the\n\
         field-heavy 152-byte GridMetadata)\n\n{}",
        registration_table(&registration_rows(&figure6_cases(), iters)).render()
    )
}

/// One row of the Figure 7 encode comparison.
pub struct Figure7Row {
    /// Workload record name.
    pub name: String,
    /// PBIO-encoded size in bytes.
    pub encoded_size: usize,
    /// Encode time with natively registered (compiled-in) metadata.
    pub native: Duration,
    /// Encode time with XMIT-generated metadata.
    pub xmit: Duration,
    /// Same-layout decode via the borrowed `RecordView` path
    /// (header parse + view-plan lookup + pointer validation).
    pub view_decode: Duration,
    /// Raw `copy_from_slice` of the encoded message into a preallocated
    /// buffer — the hardware floor a zero-copy decode competes against.
    pub memcpy: Duration,
    /// Encode-buffer growth events per steady-state encode.  Zero once
    /// the pooled buffer has reached the working-set size.
    pub alloc_per_op: f64,
    /// Bytes the encoder wrote per encode (one marshal copy of the
    /// record; the vectored send adds no second copy).
    pub bytes_copied_per_op: f64,
}

impl Figure7Row {
    /// XMIT-metadata encode time relative to native metadata.
    pub fn ratio(&self) -> f64 {
        self.xmit.as_secs_f64() / self.native.as_secs_f64()
    }

    /// Borrowed-view decode time relative to the memcpy floor.
    pub fn view_ratio(&self) -> f64 {
        self.view_decode.as_secs_f64() / self.memcpy.as_secs_f64()
    }
}

/// Measure Figure 7: encoding times with native vs XMIT-generated
/// metadata.
pub fn figure7_rows(iters: usize) -> Vec<Figure7Row> {
    let (toolkit, cases) = figure7_cases();
    let rows = cases
        .iter()
        .map(|case| {
            // The "native" variant uses a descriptor registered from
            // compiled-in specs; values are copied across via the dynamic
            // value tree (outside the timed region).
            let native_reg = FormatRegistry::new(MachineModel::native());
            let native_fmt = register_compiled(&native_reg, case.record.format());
            let native_rec = Value::from_record(&case.record)
                .expect("value")
                .into_record(native_fmt)
                .expect("rebind");

            // Pooled encoder: after the first pass the buffer is at
            // working-set size and steady-state encodes allocate nothing.
            let mut enc = xmit::Encoder::new();
            let t_native =
                time_mean(iters, || (), |()| enc.encode(&native_rec).expect("encode").len());
            let t_xmit =
                time_mean(iters, || (), |()| enc.encode(&case.record).expect("encode").len());

            // Steady-state allocation accounting: the timing loops above
            // warmed the buffer, so any growth now is a real leak.
            let before = enc.marshal_stats();
            let probes = iters.max(1);
            for _ in 0..probes {
                enc.encode(&case.record).expect("encode");
            }
            let after = enc.marshal_stats();
            let alloc_per_op = (after.allocs - before.allocs) as f64 / probes as f64;
            let bytes_copied_per_op =
                (after.bytes_copied - before.bytes_copied) as f64 / probes as f64;

            // Borrowed-view decode vs the memcpy floor.  Sender and
            // receiver share a layout here, so decode_borrowed takes the
            // RecordView path — assert that once, outside the timed loop.
            let wire = xmit::encode(&case.record).expect("encode");
            let registry = toolkit.registry();
            let target = case.record.format().clone();
            let first = openmeta_pbio::decode_borrowed(&wire, registry, &target).expect("decode");
            assert!(
                matches!(first, openmeta_pbio::Decoded::View(_)),
                "same-layout decode must select the view path"
            );
            let t_view = time_mean(
                iters,
                || (),
                |()| {
                    let decoded =
                        openmeta_pbio::decode_borrowed(&wire, registry, &target).expect("decode");
                    match decoded {
                        openmeta_pbio::Decoded::View(v) => {
                            v.validate().expect("valid pointers");
                            v.fixed_bytes().len()
                        }
                        openmeta_pbio::Decoded::Owned(_) => 0,
                    }
                },
            );
            let mut dst = vec![0u8; wire.len()];
            let t_memcpy = time_mean(
                iters,
                || (),
                |()| {
                    dst.copy_from_slice(&wire);
                    dst[dst.len() - 1]
                },
            );

            Figure7Row {
                name: case.name.clone(),
                encoded_size: case.encoded_size,
                native: t_native,
                xmit: t_xmit,
                view_decode: t_view,
                memcpy: t_memcpy,
                alloc_per_op,
                bytes_copied_per_op,
            }
        })
        .collect();
    drop(toolkit);
    rows
}

/// Smallest encoded size on which the 2×-memcpy bound is asserted:
/// below this the decode is dominated by fixed per-call cost (header
/// parse, plan lookup, pointer validation), not copy bandwidth, so the
/// ratio is not a meaningful zero-copy gate.
pub const VIEW_RATIO_MIN_BYTES: usize = 4096;

/// The zero-copy acceptance gates over measured Figure 7 rows:
/// steady-state encode must not allocate on any row, and the borrowed
/// view decode must stay within 2× of raw memcpy on bulk rows.
pub fn check_figure7_rows(rows: &[Figure7Row]) -> Result<(), String> {
    for r in rows {
        if r.alloc_per_op != 0.0 {
            return Err(format!(
                "{}: steady-state encode allocated {:.2} times/op (want 0)",
                r.name, r.alloc_per_op
            ));
        }
        if r.encoded_size >= VIEW_RATIO_MIN_BYTES && r.view_ratio() > 2.0 {
            return Err(format!(
                "{}: view decode {:.2}x memcpy floor ({} vs {}) exceeds 2x",
                r.name,
                r.view_ratio(),
                pretty(r.view_decode),
                pretty(r.memcpy)
            ));
        }
    }
    Ok(())
}

/// Figure 7: encoding times with native vs XMIT-generated metadata.
pub fn figure7_report(iters: usize) -> String {
    figure7_report_from(&figure7_rows(iters))
}

/// Render Figure 7 from pre-measured rows.
pub fn figure7_report_from(rows: &[Figure7Row]) -> String {
    let mut t = Table::new(&[
        "record",
        "encoded size (bytes)",
        "native metadata encode",
        "XMIT metadata encode",
        "ratio",
        "view decode",
        "memcpy floor",
        "allocs/op",
        "bytes copied/op",
    ]);
    for r in rows {
        t.row(vec![
            r.name.clone(),
            r.encoded_size.to_string(),
            pretty(r.native),
            pretty(r.xmit),
            format!("{:.2}", r.ratio()),
            pretty(r.view_decode),
            pretty(r.memcpy),
            format!("{:.2}", r.alloc_per_op),
            format!("{:.0}", r.bytes_copied_per_op),
        ]);
    }
    format!(
        "Figure 7 — structure encoding times using PBIO-native and\n\
         XMIT-generated metadata (paper: indistinguishable), with the\n\
         zero-copy columns: borrowed-view decode vs the raw memcpy floor\n\
         and steady-state encode allocations (0 = pooled buffer reused)\n\n{}",
        t.render()
    )
}

/// Register a descriptor as compiled-in metadata would: nested formats
/// first, then the outer format, all from plain `IOField` lists.
fn register_compiled(
    reg: &FormatRegistry,
    desc: &openmeta_pbio::FormatDescriptor,
) -> Arc<openmeta_pbio::FormatDescriptor> {
    for f in &desc.fields {
        if let openmeta_pbio::FieldKind::Nested(sub) = &f.kind {
            register_compiled(reg, sub);
        }
    }
    reg.register(openmeta_pbio::FormatSpec::new(desc.name.clone(), fields_of(desc)))
        .expect("compiled registration")
}

/// Reconstruct auto-offset IOFields from a resolved descriptor, as a
/// compiled-metadata program would have written them.
fn fields_of(desc: &openmeta_pbio::FormatDescriptor) -> Vec<openmeta_pbio::IOField> {
    use openmeta_pbio::FieldKind;
    desc.fields
        .iter()
        .map(|f| {
            let (type_desc, size) = match &f.kind {
                FieldKind::Scalar(b) => (b.name().to_string(), f.size),
                FieldKind::String => ("string".to_string(), 0),
                FieldKind::StaticArray { elem, elem_size, count } => {
                    (format!("{}[{count}]", elem.name()), *elem_size)
                }
                FieldKind::DynamicArray { elem, elem_size, length_field } => {
                    (format!("{}[{length_field}]", elem.name()), *elem_size)
                }
                FieldKind::Nested(sub) => (sub.name.clone(), 0),
            };
            openmeta_pbio::IOField::auto(f.name.clone(), type_desc, size)
        })
        .collect()
}

/// One row of the Figure 8 wire-format comparison.
pub struct Figure8Row {
    /// Requested binary payload size in bytes.
    pub target: usize,
    /// Actual encoded payload size in bytes.
    pub actual: usize,
    /// Wire-format name (`pbio`, `mpi`, `cdr`, `xdr`, `xml`).
    pub format: String,
    /// Mean send-side encode time.
    pub encode: Duration,
}

/// Measure Figure 8: send-side encode times per wire format and size.
pub fn figure8_rows(iters: usize) -> Vec<Figure8Row> {
    // PBIO's encoder records marshal.encode spans; the XML/CDR/MPI
    // comparators are uninstrumented.  Pause span timing so the
    // comparison doesn't charge PBIO two clock reads per encode.
    let _pause = openmeta_obs::TimingPause::new();
    let registry = Arc::new(FormatRegistry::new(MachineModel::native()));
    let formats = all_formats(registry.clone());
    let mut rows = Vec::new();
    for target in FIGURE8_SIZES {
        let (rec, actual) = figure8_record(&registry, target);
        for wire in &formats {
            let mut buf = Vec::with_capacity(actual * 8);
            let d = time_mean(
                iters,
                || (),
                |()| {
                    buf.clear();
                    wire.encode(&rec, &mut buf).expect("encode")
                },
            );
            rows.push(Figure8Row { target, actual, format: wire.name().to_string(), encode: d });
        }
    }
    rows
}

/// Figure 8: send-side encode times per wire format and message size.
pub fn figure8_report(iters: usize) -> String {
    let rows = figure8_rows(iters);
    let mut t = Table::new(&["binary size", "format", "encode time", "vs PBIO"]);
    let mut pbio_time = None;
    for r in &rows {
        if r.format == "pbio" {
            pbio_time = Some(r.encode);
        }
        let rel = pbio_time
            .map(|p| format!("{:.1}x", r.encode.as_secs_f64() / p.as_secs_f64()))
            .unwrap_or_default();
        t.row(vec![
            format!("{} B (actual {})", r.target, r.actual),
            r.format.clone(),
            pretty(r.encode),
            rel,
        ]);
    }
    format!(
        "Figure 8 — send-side encode times for various message sizes and\n\
         binary communication mechanisms (paper, log scale: PBIO fastest;\n\
         CORBA/MPICH ~10x; XML 2-4 orders of magnitude slower)\n\n{}",
        t.render()
    )
}

/// Supplementary to Figure 8: receive-side decode times.  The paper
/// measured the send side; PBIO's story is even stronger on receive,
/// where matching formats need no conversion at all.
pub fn figure8_decode_report(iters: usize) -> String {
    // As in figure8_rows: only PBIO's decode path records spans.
    let _pause = openmeta_obs::TimingPause::new();
    let registry = Arc::new(FormatRegistry::new(MachineModel::native()));
    let formats = all_formats(registry.clone());
    let mut t = Table::new(&["binary size", "format", "decode time", "vs PBIO"]);
    for target in FIGURE8_SIZES {
        let (rec, actual) = figure8_record(&registry, target);
        let fmt = rec.format().clone();
        let mut pbio_time = None;
        for wire in &formats {
            let bytes = wire.encode_vec(&rec).expect("encode");
            let d = time_mean(iters, || (), |()| wire.decode(&bytes, &fmt).expect("decode"));
            if wire.name() == "pbio" {
                pbio_time = Some(d);
            }
            let rel = pbio_time
                .map(|p| format!("{:.1}x", d.as_secs_f64() / p.as_secs_f64()))
                .unwrap_or_default();
            t.row(vec![
                format!("{target} B (actual {actual})"),
                wire.name().to_string(),
                pretty(d),
                rel,
            ]);
        }
    }
    format!(
        "Figure 8 supplement — receive-side decode times (not in the paper;\n\
         included because receiver-makes-right is PBIO's design point)\n\n{}",
        t.render()
    )
}

/// Figure 1 + §4.1/§4 claims: XML wire expansion and round-trip latency
/// versus the XMIT/PBIO binary path for the `SimpleData` exchange.
pub fn figure1_report(iters: usize) -> String {
    // The binary decode path records marshal.decode spans; the XML side
    // is uninstrumented.  Pause timing for a fair latency comparison.
    let _pause = openmeta_obs::TimingPause::new();
    let (toolkit, rec) = figure1_record();
    let registry = toolkit.registry().clone();
    let xml = XmlWire::new();
    let fmt = rec.format().clone();

    let binary_bytes = xmit::encode(&rec).expect("binary encode");
    let xml_bytes = xml.encode_vec(&rec).expect("xml encode");

    let mut buf = Vec::with_capacity(xml_bytes.len());
    let t_bin_enc = time_mean(
        iters,
        || (),
        |()| {
            buf.clear();
            xmit::encode_into(&rec, &mut buf).expect("encode")
        },
    );
    let t_bin_dec =
        time_mean(iters, || (), |()| xmit::decode(&binary_bytes, &registry).expect("decode"));
    let t_xml_enc = time_mean(
        iters,
        || (),
        |()| {
            buf.clear();
            xml.encode(&rec, &mut buf).expect("encode")
        },
    );
    let t_xml_dec = time_mean(iters, || (), |()| xml.decode(&xml_bytes, &fmt).expect("decode"));

    let bin_rt = t_bin_enc + t_bin_dec;
    let xml_rt = t_xml_enc + t_xml_dec;

    let mut t = Table::new(&["metric", "PBIO/XMIT binary", "XML wire", "XML / binary"]);
    t.row(vec![
        "message size (bytes)".to_string(),
        binary_bytes.len().to_string(),
        xml_bytes.len().to_string(),
        format!("{:.2}x", xml_bytes.len() as f64 / binary_bytes.len() as f64),
    ]);
    t.row(vec![
        "sender encode".to_string(),
        pretty(t_bin_enc),
        pretty(t_xml_enc),
        format!("{:.0}x", t_xml_enc.as_secs_f64() / t_bin_enc.as_secs_f64()),
    ]);
    t.row(vec![
        "receiver decode".to_string(),
        pretty(t_bin_dec),
        pretty(t_xml_dec),
        format!("{:.0}x", t_xml_dec.as_secs_f64() / t_bin_dec.as_secs_f64()),
    ]);
    t.row(vec![
        "encode+decode (latency proxy)".to_string(),
        pretty(bin_rt),
        pretty(xml_rt),
        format!("{:.0}x", xml_rt.as_secs_f64() / bin_rt.as_secs_f64()),
    ]);

    // The paper's §4 latency claim compares *binary at its worst* (full
    // encode/decode both ends) against *XML at its best* (data already
    // text, no conversion at all) over a real link, where transmission
    // dominates.  Model a 10 Mbit/s LAN of the era.
    let bw = 10e6 / 8.0; // bytes per second
    let bin_latency = bin_rt.as_secs_f64() + binary_bytes.len() as f64 / bw;
    let xml_best_latency = xml_bytes.len() as f64 / bw; // no conversion
    t.row(vec![
        "modelled 10 Mbps latency (XML best case: no conversion)".to_string(),
        format!("{:.2} ms", bin_latency * 1e3),
        format!("{:.2} ms", xml_best_latency * 1e3),
        format!("{:.1}x", xml_best_latency / bin_latency),
    ]);
    format!(
        "Figure 1 / §4 claims — the SimpleData exchange (3355 floats):\n\
         paper: XML ≈3x larger, XML solution ≈2x the latency even with\n\
         binary at its worst case and XML at its best, and XML\n\
         encode/decode 2-4 orders of magnitude over binary\n\n{}",
        t.render()
    )
}

/// Plan-compiler ablation: the per-field interpreter vs compiled plans on
/// the Figure 8 workload (the 100 KB point), plus the one-time compile
/// cost and the registry plan-cache hit rate over a message burst.
pub fn plan_ablation_report(iters: usize) -> String {
    use openmeta_pbio::marshal::{decode_with_interpreted, encode_into_interpreted};
    use openmeta_pbio::{decode_with, ByteOrder, ConvertPlan, EncodePlan, Encoder};

    fn speedup_of(interp: Duration, plan: Duration) -> String {
        format!("{:.2}x", interp.as_secs_f64() / plan.as_secs_f64())
    }

    let native = Arc::new(FormatRegistry::new(MachineModel::native()));
    let foreign_model = if MachineModel::native().byte_order == ByteOrder::Little {
        MachineModel::SPARC32
    } else {
        MachineModel::X86
    };
    let foreign = Arc::new(FormatRegistry::new(foreign_model));

    let (rec, size) = figure8_record(&native, 100_000);
    let (foreign_rec, _) = figure8_record(&foreign, 100_000);
    native.register_descriptor((**foreign_rec.format()).clone());

    let same_wire = xmit::encode(&rec).expect("encode");
    let cross_wire = xmit::encode(&foreign_rec).expect("encode");
    let target = rec.format().clone();
    let src = foreign_rec.format().clone();

    let mut buf = Vec::with_capacity(size * 2);
    let t_enc_interp = time_mean(
        iters,
        || (),
        |()| {
            buf.clear();
            encode_into_interpreted(&rec, &mut buf).expect("encode")
        },
    );
    let t_enc_plan = time_mean(
        iters,
        || (),
        |()| {
            buf.clear();
            xmit::encode_into(&rec, &mut buf).expect("encode")
        },
    );
    let mut enc = Encoder::new();
    let t_enc_cached = time_mean(iters, || (), |()| enc.encode(&rec).expect("encode").len());

    let t_same_interp = time_mean(
        iters,
        || (),
        |()| decode_with_interpreted(&same_wire, &native, &target).expect("decode"),
    );
    let t_same_plan =
        time_mean(iters, || (), |()| decode_with(&same_wire, &native, &target).expect("decode"));
    let t_cross_interp = time_mean(
        iters,
        || (),
        |()| decode_with_interpreted(&cross_wire, &native, &target).expect("decode"),
    );
    let t_cross_plan =
        time_mean(iters, || (), |()| decode_with(&cross_wire, &native, &target).expect("decode"));

    let t_compile_enc = time_mean(iters, || (), |()| EncodePlan::compile(&target).expect("plan"));
    let t_compile_conv =
        time_mean(iters, || (), |()| ConvertPlan::compile(&src, &target).expect("plan"));

    native.reset_plan_cache_stats();
    for _ in 0..10_000 {
        decode_with(&cross_wire, &native, &target).expect("decode");
    }
    let stats = native.plan_cache_stats();

    // Cross-machine decode per Figure 7 Hydrology format: re-register each
    // record's spec under the foreign machine model, rebuild the record
    // there via the value tree, and decode its wire form on the native
    // receiver both ways.
    let (toolkit7, cases7) = figure7_cases();
    let mut t7 =
        Table::new(&["Fig. 7 record (cross-machine decode)", "interpreted", "compiled", "speedup"]);
    for case in &cases7 {
        let foreign_reg = FormatRegistry::new(foreign_model);
        let foreign_fmt = register_compiled(&foreign_reg, case.record.format());
        let foreign_case_rec = Value::from_record(&case.record)
            .expect("value")
            .into_record(foreign_fmt)
            .expect("rebind");
        let wire = xmit::encode(&foreign_case_rec).expect("encode");

        let native_reg = FormatRegistry::new(MachineModel::native());
        let native_fmt = register_compiled(&native_reg, case.record.format());
        native_reg.register_descriptor((**foreign_case_rec.format()).clone());

        let ti = time_mean(
            iters,
            || (),
            |()| decode_with_interpreted(&wire, &native_reg, &native_fmt).expect("decode"),
        );
        let tc = time_mean(
            iters,
            || (),
            |()| decode_with(&wire, &native_reg, &native_fmt).expect("decode"),
        );
        t7.row(vec![case.name.clone(), pretty(ti), pretty(tc), speedup_of(ti, tc)]);
    }
    drop(toolkit7);

    let mut t =
        Table::new(&["operation (100 KB Figure 8 record)", "interpreted", "compiled", "speedup"]);
    t.row(vec![
        "encode (fresh plan each call)".to_string(),
        pretty(t_enc_interp),
        pretty(t_enc_plan),
        speedup_of(t_enc_interp, t_enc_plan),
    ]);
    t.row(vec![
        "encode (cached Encoder)".to_string(),
        pretty(t_enc_interp),
        pretty(t_enc_cached),
        speedup_of(t_enc_interp, t_enc_cached),
    ]);
    t.row(vec![
        "decode, same format (extract)".to_string(),
        pretty(t_same_interp),
        pretty(t_same_plan),
        speedup_of(t_same_interp, t_same_plan),
    ]);
    t.row(vec![
        "decode, cross-machine (convert)".to_string(),
        pretty(t_cross_interp),
        pretty(t_cross_plan),
        speedup_of(t_cross_interp, t_cross_plan),
    ]);
    format!(
        "Plan-compiler ablation — per-field interpreter vs compiled\n\
         marshal/convert plans (not in the paper; PBIO's CM-era descendant\n\
         used the same DCG trick)\n\n{}\n\n{}\n\n\
         one-time plan compile: encode {} / convert {}\n\
         plan cache over 10 000 cross-machine decodes: {} hits, {} misses\n\
         ({:.3}% hit rate)",
        t.render(),
        t7.render(),
        pretty(t_compile_enc),
        pretty(t_compile_conv),
        stats.hits,
        stats.misses,
        100.0 * stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const FAST: usize = 2;

    #[test]
    fn figure3_rows_have_positive_rdm() {
        let rows = registration_rows(&figure3_cases(), FAST);
        for r in &rows {
            assert!(r.rdm() > 0.5, "{}: RDM {}", r.name, r.rdm());
        }
    }

    #[test]
    fn reports_render() {
        for report in [
            figure3_report(FAST),
            figure6_report(FAST),
            figure7_report(FAST),
            figure8_report(FAST),
            figure1_report(FAST),
            plan_ablation_report(FAST),
        ] {
            assert!(report.contains('|'), "table missing:\n{report}");
        }
    }

    #[test]
    fn figure7_steady_state_encode_never_allocates() {
        // The allocation gate is deterministic — it counts encode-buffer
        // growth events, not time — so it holds even at test iteration
        // counts.  (The 2×-memcpy timing gate is only asserted by the
        // fig7 binary's --check flag, at real iteration counts.)
        let rows = figure7_rows(FAST);
        for r in &rows {
            assert_eq!(
                r.alloc_per_op, 0.0,
                "{}: steady-state encode must reuse the pooled buffer",
                r.name
            );
            assert!(
                r.bytes_copied_per_op >= r.encoded_size as f64,
                "{}: encoder must account the marshal copy ({} < {})",
                r.name,
                r.bytes_copied_per_op,
                r.encoded_size
            );
        }
    }

    #[test]
    fn figure8_xml_is_slowest() {
        let registry = Arc::new(FormatRegistry::new(MachineModel::native()));
        let (rec, _) = figure8_record(&registry, 10_000);
        let mut times = std::collections::HashMap::new();
        for wire in all_formats(registry.clone()) {
            let mut buf = Vec::new();
            let d = time_mean(
                5,
                || (),
                |()| {
                    buf.clear();
                    wire.encode(&rec, &mut buf).expect("encode")
                },
            );
            times.insert(wire.name(), d);
        }
        let xml = times["xml"];
        for (name, d) in &times {
            if *name != "xml" {
                assert!(xml > *d, "xml ({xml:?}) should exceed {name} ({d:?})");
            }
        }
    }
}
