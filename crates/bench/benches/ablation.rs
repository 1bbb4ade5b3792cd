//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * **wire-format ablation** — PBIO's "sender-native + patch pointer
//!   slots" block copy vs a per-field copy of the same record (what
//!   marshaling costs if you give up the memory-image wire format);
//! * **receiver-makes-right ablation** — decode cost when formats match
//!   (extract only) vs when byte order / widths differ (full conversion)
//!   vs the zero-copy `RecordView` path (`decode_borrowed`);
//! * **discovery ablation** — binding from an already-loaded definition
//!   vs parse+bind (isolates the XML parse share of the RDM);
//! * **plan ablation** — the per-field interpreter vs the compiled
//!   marshal/convert plans (encode, same-format decode, cross-machine
//!   convert), the one-time plan-compile cost, and the registry plan-cache
//!   hit rate over a message burst.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};

use openmeta_bench::workloads::{figure8_record, hydrology_schema_xml};
use openmeta_pbio::{decode, decode_borrowed, decode_with, Decoded, FormatRegistry, MachineModel};
use xmit::Xmit;

fn wire_format_ablation(c: &mut Criterion) {
    let registry = Arc::new(FormatRegistry::new(MachineModel::native()));
    let (rec, size) = figure8_record(&registry, 10_000);
    let mut group = c.benchmark_group("ablation_wire_format");
    group.bench_function("pbio_block_copy", |b| {
        let mut buf = Vec::with_capacity(size * 2);
        b.iter(|| {
            buf.clear();
            xmit::encode_into(&rec, &mut buf).unwrap()
        })
    });
    // The per-field alternative is exactly the MPI pack loop.
    let per_field = openmeta_wire::MpiPackWire::new();
    group.bench_function("per_field_copy", |b| {
        let mut buf = Vec::with_capacity(size * 2);
        b.iter(|| {
            buf.clear();
            openmeta_wire::WireFormat::encode(&per_field, &rec, &mut buf).unwrap()
        })
    });
    group.finish();
}

fn receiver_makes_right_ablation(c: &mut Criterion) {
    // Sender on a foreign machine model (byte-swap + width conversion
    // required), and on the native model (no conversion).
    let native = Arc::new(FormatRegistry::new(MachineModel::native()));
    let foreign_model = if MachineModel::native().byte_order == openmeta_pbio::ByteOrder::Little {
        MachineModel::SPARC32
    } else {
        MachineModel::X86
    };
    let foreign = Arc::new(FormatRegistry::new(foreign_model));

    let (native_rec, _) = figure8_record(&native, 10_000);
    let (foreign_rec, _) = figure8_record(&foreign, 10_000);
    native.register_descriptor((**foreign_rec.format()).clone());

    let same_wire = xmit::encode(&native_rec).unwrap();
    let cross_wire = xmit::encode(&foreign_rec).unwrap();

    let mut group = c.benchmark_group("ablation_receiver_makes_right");
    group.bench_function("same_format_extract_only", |b| {
        b.iter(|| decode(&same_wire, &native).unwrap())
    });
    let target = native_rec.format().clone();
    group.bench_function("cross_machine_convert", |b| {
        b.iter(|| decode_with(&cross_wire, &native, &target).unwrap())
    });
    group.bench_function("zero_copy_view_read", |b| {
        b.iter(|| {
            let Decoded::View(view) = decode_borrowed(&same_wire, &native, &target).unwrap() else {
                panic!("same-layout decode must borrow");
            };
            view.get_i64("seq").unwrap()
        })
    });
    group.finish();
}

fn discovery_ablation(c: &mut Criterion) {
    let xml = hydrology_schema_xml();
    let http = openmeta_ohttp::HttpServer::start().expect("http server");
    http.put_xml("/hydrology.xsd", xml.clone());
    let url = http.url_for("/hydrology.xsd");
    let mut group = c.benchmark_group("ablation_discovery");
    group.bench_function("fetch_parse_and_bind", |b| {
        b.iter_with_setup(
            || Xmit::new(MachineModel::native()),
            |toolkit| {
                toolkit.load_url(&url).unwrap();
                toolkit.bind("GridMetadata").unwrap();
                toolkit
            },
        )
    });
    group.bench_function("parse_and_bind", |b| {
        b.iter_with_setup(
            || Xmit::new(MachineModel::native()),
            |toolkit| {
                toolkit.load_str(&xml).unwrap();
                toolkit.bind("GridMetadata").unwrap();
                toolkit
            },
        )
    });
    group.bench_function("bind_only", |b| {
        b.iter_with_setup(
            || {
                let toolkit = Xmit::new(MachineModel::native());
                toolkit.load_str(&xml).unwrap();
                toolkit
            },
            |toolkit| {
                toolkit.bind("GridMetadata").unwrap();
                toolkit
            },
        )
    });
    group.finish();
}

fn plan_ablation(c: &mut Criterion) {
    use openmeta_pbio::marshal::{decode_with_interpreted, encode_into_interpreted};
    use openmeta_pbio::{ConvertPlan, EncodePlan, Encoder};

    let native = Arc::new(FormatRegistry::new(MachineModel::native()));
    let foreign_model = if MachineModel::native().byte_order == openmeta_pbio::ByteOrder::Little {
        MachineModel::SPARC32
    } else {
        MachineModel::X86
    };
    let foreign = Arc::new(FormatRegistry::new(foreign_model));

    let (rec, size) = figure8_record(&native, 10_000);
    let (foreign_rec, _) = figure8_record(&foreign, 10_000);
    native.register_descriptor((**foreign_rec.format()).clone());

    let same_wire = xmit::encode(&rec).unwrap();
    let cross_wire = xmit::encode(&foreign_rec).unwrap();
    let target = rec.format().clone();

    // Encode: interpreter vs plan-per-call vs cached-plan `Encoder`.
    let mut group = c.benchmark_group("ablation_plan_encode");
    group.bench_function("interpreted", |b| {
        let mut buf = Vec::with_capacity(size * 2);
        b.iter(|| {
            buf.clear();
            encode_into_interpreted(&rec, &mut buf).unwrap()
        })
    });
    group.bench_function("compiled_per_call", |b| {
        let mut buf = Vec::with_capacity(size * 2);
        b.iter(|| {
            buf.clear();
            xmit::encode_into(&rec, &mut buf).unwrap()
        })
    });
    group.bench_function("compiled_cached_encoder", |b| {
        let mut enc = Encoder::new();
        b.iter(|| enc.encode(&rec).unwrap().len())
    });
    group.finish();

    // Decode: interpreter vs registry-cached plans, same-format (extract
    // fast path) and cross-machine (full conversion).
    let mut group = c.benchmark_group("ablation_plan_decode");
    group.bench_function("same_format_interpreted", |b| {
        b.iter(|| decode_with_interpreted(&same_wire, &native, &target).unwrap())
    });
    group.bench_function("same_format_compiled", |b| {
        b.iter(|| decode_with(&same_wire, &native, &target).unwrap())
    });
    group.bench_function("cross_machine_interpreted", |b| {
        b.iter(|| decode_with_interpreted(&cross_wire, &native, &target).unwrap())
    });
    group.bench_function("cross_machine_compiled", |b| {
        b.iter(|| decode_with(&cross_wire, &native, &target).unwrap())
    });
    group.finish();

    // One-time plan-compile cost (amortised over the cache lifetime).
    let src = foreign_rec.format().clone();
    let mut group = c.benchmark_group("ablation_plan_compile");
    group.bench_function("encode_plan", |b| b.iter(|| EncodePlan::compile(&target).unwrap()));
    group.bench_function("convert_plan", |b| {
        b.iter(|| ConvertPlan::compile(&src, &target).unwrap())
    });
    group.finish();

    // Cache hit rate over a representative burst: one registry decoding
    // 10 000 messages of one format compiles exactly one plan.
    native.reset_plan_cache_stats();
    for _ in 0..10_000 {
        decode_with(&cross_wire, &native, &target).unwrap();
    }
    let stats = native.plan_cache_stats();
    println!(
        "ablation_plan_cache/10k_msgs                     hits: {} misses: {} ({:.3}% hit rate)",
        stats.hits,
        stats.misses,
        100.0 * stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64
    );
}

fn bench(c: &mut Criterion) {
    wire_format_ablation(c);
    receiver_makes_right_ablation(c);
    discovery_ablation(c);
    plan_ablation(c);
}

criterion_group!(benches, bench);
criterion_main!(benches);
