//! `discovery`: the metadata plane in a closed loop.
//!
//! One caller thread and two connections: a keep-alive HTTP source shared
//! by every toolkit, and one persistent `FormatServerClient`.  The
//! corpus is [`DOCS`] seeded XSD documents (1–6 complex types of 3–150
//! elements, composition up to 3 deep, dynamic arrays); a quarter of
//! the documents are also served, byte for byte, under an alias URL, which
//! drives the toolkit's content-hash dedupe.
//!
//! Each round replays one seeded deck of ops:
//!
//! * `cold` — a fresh `Xmit::with_source` loads a document (and its
//!   alias), binds every type, encodes and decodes a first record;
//! * `warm` — the long-lived toolkit revalidates a document (a 304) and
//!   binds its types;
//! * `change` — the benchmark publishes a compatible new revision, the
//!   long-lived toolkit revalidates (a 200), re-parses, re-binds and
//!   compiles a plan on the first encode/decode;
//! * `resolve` — a record with an id unknown to a fresh `FormatRegistry`
//!   is resolved through the format server and decoded.
//!
//! Every bound id is checked against the id `map_document` gives for the
//! same text, and every decoded record against the original.

use std::collections::BTreeMap;
use std::sync::Arc;

use openmeta_obs::clock;
use openmeta_ohttp::{DocumentSource, HttpServer, StandardSource};
use openmeta_pbio::server::{FormatServer, FormatServerClient};
use openmeta_pbio::{decode, Encoder, FormatId, FormatRegistry, MachineModel, RawRecord};
use openmeta_schema::parse_str;
use xmit::{map_document, LoadOutcome, Xmit};

use crate::gen::{corpus, record_value, CorpusDoc, Rng};
use crate::report::{err, metric, quantile, BenchError, Outcome, RunConfig, Windows};
use crate::trace::{KindDeltas, Probe, Tracer};
use crate::{common_layers, conclude, ratio, residuals, run_setups, Layers};

/// Documents in the corpus.
pub const DOCS: usize = 64;

/// Every `ALIAS_EVERY`-th document is also served under an alias URL.
const ALIAS_EVERY: usize = 4;

/// `warm` and `resolve` ops per document in a deck (`cold` and `change`
/// run once per document).  The deck is [`DOCS`] blocks of
/// `2 + WARM_PER_DOC + RESOLVE_PER_DOC` ops, one op per kind-slot, so
/// every stretch of the deck has the same mix.  Half the ops are `warm`,
/// a quarter the faster `resolve`: the median op is the median `warm`.
const WARM_PER_DOC: usize = 4;
const RESOLVE_PER_DOC: usize = 2;

/// Op kinds, in report order.
pub const KINDS: [&str; 4] = ["cold", "warm", "change", "resolve"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Cold(usize),
    Warm(usize),
    Change(usize),
    Resolve(usize),
}

impl Op {
    fn kind(self) -> &'static str {
        match self {
            Op::Cold(_) => KINDS[0],
            Op::Warm(_) => KINDS[1],
            Op::Change(_) => KINDS[2],
            Op::Resolve(_) => KINDS[3],
        }
    }
}

struct Doc {
    gen: CorpusDoc,
    rev: u64,
    path: String,
    url: String,
    /// Alias path and URL, serving the same bytes as `path`.
    alias: Option<(String, String)>,
    /// Type name → the id `map_document` gives for the current text.
    expected: BTreeMap<String, FormatId>,
    /// Nanoseconds `FormatRegistry::register` took for the current
    /// text's specs (the RDM denominator).
    register_ns: u64,
    /// Elements in the current text.
    elements: u64,
}

struct Resolvable {
    id: FormatId,
    wire: Vec<u8>,
    original: RawRecord,
}

struct Rig {
    // Field order is drop order: clients before the servers they use.
    long: Xmit,
    fsc: FormatServerClient,
    source: Arc<StandardSource>,
    docs: Vec<Doc>,
    resolvable: Vec<Resolvable>,
    deck: Vec<Op>,
    http: HttpServer,
    _fs: FormatServer,
}

/// Expected ids for `text`: parse, map, and register into a fresh
/// registry, timing the registrations.
fn expected_ids(
    text: &str,
    tr: &mut Tracer,
) -> Result<(BTreeMap<String, FormatId>, u64), BenchError> {
    let doc = tr.leaf("schema.parse_str", || parse_str(text)).map_err(|e| err("parse", e))?;
    let specs = map_document(&doc, &MachineModel::native()).map_err(|e| err("map", e))?;
    let reg = FormatRegistry::new(MachineModel::native());
    let mut ids = BTreeMap::new();
    let mut register_ns = 0;
    for spec in specs {
        let name = spec.name.clone();
        let t0 = clock::now();
        let d = tr.leaf("pbio.register", || reg.register(spec)).map_err(|e| err("register", e))?;
        register_ns += clock::duration_ns(t0.elapsed());
        ids.insert(name, d.id());
    }
    Ok((ids, register_ns))
}

fn elements_in(text: &str) -> u64 {
    text.matches("<xsd:element").count() as u64
}

fn check_ids(names: &[String], got: &[(String, FormatId)], doc: &Doc) -> Result<(), String> {
    if names.len() != doc.expected.len() {
        return Err(format!(
            "doc {}: loaded {} types, want {}",
            doc.gen.index,
            names.len(),
            doc.expected.len()
        ));
    }
    for (name, id) in got {
        if doc.expected.get(name) != Some(id) {
            return Err(format!(
                "doc {} rev {}: {name} bound to {id}, want {:?}",
                doc.gen.index,
                doc.rev,
                doc.expected.get(name)
            ));
        }
    }
    Ok(())
}

fn setup(seed: u64, tr: &mut Tracer) -> Result<Rig, BenchError> {
    let http = HttpServer::start().map_err(|e| err("HTTP server", e))?;
    let fs = FormatServer::start().map_err(|e| err("format server", e))?;
    let source = Arc::new(StandardSource::new());
    let mut docs = Vec::with_capacity(DOCS);
    for g in corpus(seed, DOCS, ALIAS_EVERY) {
        let text = g.xml(0);
        let path = format!("/corpus/doc{}.xsd", g.index);
        let url = http.url_for(&path);
        let alias = g.aliased.then(|| {
            let alias = format!("/corpus/alias{}.xsd", g.index);
            http.put_xml(&alias, text.clone());
            let url = http.url_for(&alias);
            (alias, url)
        });
        http.put_xml(&path, text.clone());
        let (expected, register_ns) = expected_ids(&text, tr)?;
        let elements = elements_in(&text);
        docs.push(Doc { gen: g, rev: 0, path, url, alias, expected, register_ns, elements });
    }
    let long = load_long(&source, &docs, tr)?;

    let fsc = FormatServerClient::connect(fs.addr());
    let mut rng = Rng::new(seed, 0x7E5);
    let mut resolvable = Vec::with_capacity(DOCS);
    for doc in &docs {
        let format = long.bind(doc.gen.top()).map_err(|e| err("bind", e))?.format;
        let original = record_value(&mut rng, &format, 8)
            .into_record(Arc::clone(&format))
            .map_err(|e| err("resolve record", e))?;
        let wire = openmeta_pbio::encode(&original).map_err(|e| err("encode", e))?;
        let id = fsc.register(&format).map_err(|e| err("publish format", e))?;
        if id != format.id() {
            return Err(BenchError("format server returned a different id".into()));
        }
        resolvable.push(Resolvable { id, wire, original });
    }

    let mut perm = || {
        let mut p: Vec<usize> = (0..DOCS).collect();
        rng.shuffle(&mut p);
        p
    };
    let (cold, change) = (perm(), perm());
    let warm: Vec<Vec<usize>> = (0..WARM_PER_DOC).map(|_| perm()).collect();
    let resolve: Vec<Vec<usize>> = (0..RESOLVE_PER_DOC).map(|_| perm()).collect();
    let mut deck = Vec::with_capacity(DOCS * (2 + WARM_PER_DOC + RESOLVE_PER_DOC));
    for b in 0..DOCS {
        let mut block = vec![Op::Cold(cold[b]), Op::Change(change[b])];
        block.extend(warm.iter().map(|p| Op::Warm(p[b])));
        block.extend(resolve.iter().map(|p| Op::Resolve(p[b])));
        rng.shuffle(&mut block);
        deck.extend(block);
    }

    let mut rig = Rig { long, fsc, source, docs, resolvable, deck, http, _fs: fs };
    // Warm-up: one full deck.  It also moves every document to revision
    // 1, so measured rounds all see the same shapes.
    let mut warm = Outcome::default();
    let mut rec = Recorder::default();
    for i in 0..rig.deck.len() {
        let op = rig.deck[i];
        run_op(&mut rig, op, tr, false, &mut warm, &mut rec)?;
    }
    if warm.failed > 0 {
        return Err(BenchError(format!("warm-up: {}", warm.errors.join("; "))));
    }
    Ok(rig)
}

/// A long-lived toolkit with every document loaded and bound.
fn load_long(
    source: &Arc<StandardSource>,
    docs: &[Doc],
    tr: &mut Tracer,
) -> Result<Xmit, BenchError> {
    let long =
        Xmit::with_source(MachineModel::native(), Arc::clone(source) as Arc<dyn DocumentSource>);
    for doc in docs {
        let names = long.load_url_cached(&doc.url).map_err(|e| err("load", e))?.into_names();
        let got = bind_all(&long, &names, tr).map_err(BenchError)?;
        check_ids(&names, &got, doc).map_err(BenchError)?;
    }
    Ok(long)
}

fn bind_all(
    xm: &Xmit,
    names: &[String],
    tr: &mut Tracer,
) -> Result<Vec<(String, FormatId)>, String> {
    names
        .iter()
        .map(|n| {
            tr.leaf("xmit.bind", || xm.bind(n))
                .map(|t| (n.clone(), t.id()))
                .map_err(|e| e.to_string())
        })
        .collect()
}

/// Encode a zeroed record of `top` and decode it back through `registry`.
fn first_encode(xm: &Xmit, top: &str, tr: &mut Tracer) -> Result<(), String> {
    let rec = xm.bind(top).map_err(|e| e.to_string())?.new_record();
    let mut enc = Encoder::new();
    let wire = tr
        .leaf("pbio.encode", || enc.encode(&rec).map(<[u8]>::to_vec))
        .map_err(|e| e.to_string())?;
    let back =
        tr.leaf("pbio.decode", || decode(&wire, xm.registry())).map_err(|e| e.to_string())?;
    tr.leaf("bench.check", || {
        if back == rec {
            Ok(())
        } else {
            Err(format!("{top}: first record did not round-trip"))
        }
    })
}

/// Per-op bookkeeping a traced round needs beyond spans and probes.
#[derive(Default)]
struct Recorder {
    deltas: KindDeltas,
    fields_parsed: u64,
    /// Σ (parse + bind) ns and Σ register ns over cold ops.
    rdm: (u64, u64),
}

fn run_op(
    rig: &mut Rig,
    op: Op,
    tr: &mut Tracer,
    traced: bool,
    out: &mut Outcome,
    rec: &mut Recorder,
) -> Result<u64, BenchError> {
    // Inputs a change op publishes are generated before its clock starts.
    let change_input = match op {
        Op::Change(d) => {
            let doc = &rig.docs[d];
            let text = doc.gen.xml(doc.rev + 1);
            let (expected, register_ns) = expected_ids(&text, tr)?;
            Some((text, expected, register_ns))
        }
        _ => None,
    };
    let before = traced.then(Probe::take);
    tr.enter("op");
    let t0 = clock::now();
    // Objects an op creates stay alive until the second probe: their
    // counters leave the registry's sums when they drop.
    let mut cold_toolkit = None;
    let mut fresh_registry = None;
    let result: Result<(), String> = match op {
        Op::Cold(d) => {
            let doc = &rig.docs[d];
            let xm = Xmit::with_source(
                MachineModel::native(),
                Arc::clone(&rig.source) as Arc<dyn DocumentSource>,
            );
            let res = (|| {
                let first = tr
                    .leaf("xmit.load_url_cached", || xm.load_url_cached(&doc.url))
                    .map_err(|e| e.to_string())?;
                if !matches!(first, LoadOutcome::Loaded(_)) {
                    return Err(format!("cold load of doc {d} was {first:?}"));
                }
                if let Some((_, alias)) = &doc.alias {
                    let second = tr
                        .leaf("xmit.load_url_cached", || xm.load_url_cached(alias))
                        .map_err(|e| e.to_string())?;
                    if !matches!(second, LoadOutcome::Unchanged(_)) {
                        return Err(format!("alias of doc {d} was {second:?}, not a content hit"));
                    }
                }
                let names = xm.loaded_types();
                let got = bind_all(&xm, &names, tr)?;
                check_ids(&names, &got, doc)?;
                first_encode(&xm, doc.gen.top(), tr)
            })();
            cold_toolkit = Some(xm);
            res
        }
        Op::Warm(d) => {
            let doc = &rig.docs[d];
            (|| {
                let o = tr
                    .leaf("xmit.revalidate", || rig.long.revalidate(&doc.url))
                    .map_err(|e| e.to_string())?;
                let LoadOutcome::Revalidated(names) = o else {
                    return Err(format!("warm revalidate of doc {d} was {o:?}"));
                };
                let got = bind_all(&rig.long, &names, tr)?;
                check_ids(&names, &got, doc)
            })()
        }
        Op::Change(d) => {
            let (text, expected, register_ns) =
                change_input.ok_or_else(|| BenchError("change input".into()))?;
            let elements = elements_in(&text);
            let doc = &mut rig.docs[d];
            tr.leaf("ohttp.put", || {
                if let Some((alias, _)) = &doc.alias {
                    rig.http.put_xml(alias, text.clone());
                }
                rig.http.put_xml(&doc.path, text)
            });
            doc.rev += 1;
            doc.expected = expected;
            doc.register_ns = register_ns;
            doc.elements = elements;
            let doc = &rig.docs[d];
            (|| {
                let o = tr
                    .leaf("xmit.revalidate", || rig.long.revalidate(&doc.url))
                    .map_err(|e| e.to_string())?;
                let LoadOutcome::Loaded(names) = o else {
                    return Err(format!("changed doc {d} revalidated as {o:?}"));
                };
                let got = bind_all(&rig.long, &names, tr)?;
                check_ids(&names, &got, doc)?;
                first_encode(&rig.long, doc.gen.top(), tr)
            })()
        }
        Op::Resolve(r) => {
            let item = &rig.resolvable[r];
            let reg = FormatRegistry::new(MachineModel::native());
            let res = (|| {
                tr.leaf("pbio.fs_resolve", || rig.fsc.resolve_into(item.id, &reg))
                    .map_err(|e| e.to_string())?;
                let got = tr
                    .leaf("pbio.decode", || decode(&item.wire, &reg))
                    .map_err(|e| e.to_string())?;
                tr.leaf("bench.check", || {
                    if got == item.original {
                        Ok(())
                    } else {
                        Err(format!("resolved record {r} differs"))
                    }
                })
            })();
            fresh_registry = Some(reg);
            res
        }
    };
    let ns = clock::duration_ns(t0.elapsed());
    tr.exit();
    if let Some(before) = before {
        let delta = Probe::take().since(&before);
        let (_, parse_ns) = delta.stage("discovery.parse");
        match op {
            Op::Cold(d) => {
                rec.fields_parsed += rig.docs[d].elements;
                rec.rdm.0 += parse_ns + delta.stage("binding.bind").1;
                rec.rdm.1 += rig.docs[d].register_ns;
            }
            Op::Change(d) => rec.fields_parsed += rig.docs[d].elements,
            _ => {}
        }
        rec.deltas.add(op.kind(), 1, &delta);
    }
    drop((cold_toolkit, fresh_registry));
    out.attempted += 1;
    if let Err(what) = result {
        out.fail(what);
    }
    Ok(ns)
}

/// Run the workload.
pub fn run(cfg: &RunConfig) -> Result<Outcome, BenchError> {
    // Set-up and its warm-up deck stay out of the per-layer figures: the
    // tracer starts disabled.
    let mut tr = Tracer::new("caller");
    let (mut rig, setup_s) = run_setups(cfg, || setup(cfg.seed, &mut tr), |_| Ok(()))?;

    let mut out = Outcome::default();
    let mut windows = Windows::default();
    let mut lat = Vec::with_capacity(256);
    let mut by_kind: [Vec<u64>; 4] = Default::default();
    let mut rec = Recorder::default();
    let mut rounds = [(0.0f64, 0u64); 2];
    let mut pool = (0u64, 0u64);
    let mut op_no = 0u64;
    let mut round = 0u64;
    let mut measured = 0.0;
    while measured < cfg.seconds || (cfg.trace && round < 2) {
        // Each round starts from a freshly loaded long-lived toolkit, so
        // every round sees the same cache state and memory stays bounded
        // (the toolkit keeps every revision it ever parsed).  The reload
        // is not timed.
        tr.set_enabled(false);
        rig.long = load_long(&rig.source, &rig.docs, &mut tr)?;
        let traced = cfg.trace && round % 2 == 1;
        tr.set_enabled(traced);
        let pool0 = rig.source.pool_stats();
        lat.clear();
        let r0 = clock::now();
        for i in 0..rig.deck.len() {
            let op = rig.deck[i];
            tr.set_op(op.kind(), op_no);
            op_no += 1;
            let ns = run_op(&mut rig, op, &mut tr, traced, &mut out, &mut rec)?;
            if !traced {
                lat.push(ns);
                let k = KINDS.iter().position(|k| *k == op.kind()).unwrap_or(0);
                by_kind[k].push(ns);
            }
        }
        let dt = r0.elapsed().as_secs_f64();
        measured += dt;
        if !traced {
            windows.add_round(dt, &lat);
        }
        let slot = &mut rounds[usize::from(traced)];
        slot.0 += dt;
        slot.1 += rig.deck.len() as u64;
        if traced {
            let pool1 = rig.source.pool_stats();
            pool.0 += pool1.reuses - pool0.reuses;
            pool.1 += pool1.requests - pool0.requests;
        }
        round += 1;
    }
    tr.set_enabled(false);
    drop(rig);

    let kind_p50: Vec<(String, f64, u64)> = KINDS
        .iter()
        .zip(by_kind.iter_mut())
        .map(|(k, v)| (format!("discovery.{k}_p50_us"), quantile(v, 0.5) / 1e3, v.len() as u64))
        .collect();
    if !cfg.trace {
        for (name, v, samples) in &kind_p50 {
            let name = name.trim_start_matches("discovery.");
            out.extra.push(metric(name, *v, "us", *samples));
        }
    }
    let layers = || layers(&tr, &rec, rounds, pool, &kind_p50);
    conclude(cfg, &mut out, &tr, layers, windows, &setup_s)?;
    Ok(out)
}

fn layers(
    tr: &Tracer,
    rec: &Recorder,
    rounds: [(f64, u64); 2],
    pool: (u64, u64),
    kind_p50: &[(String, f64, u64)],
) -> Layers {
    let mut l = Layers::default();
    let (ops, d) = rec.deltas.sum(&[]);
    common_layers(&mut l, ops, &d);
    let (_, loads) = rec.deltas.sum(&["cold", "change"]);
    let (_, warm) = rec.deltas.sum(&["warm"]);
    let register = tr.agg(&[], "pbio.register");
    l.set("pbio.register_us", register.mean_ns() / 1e3, register.count);
    let resolve = tr.agg(&[], "pbio.fs_resolve");
    l.set("pbio.fs_resolve_us", resolve.mean_ns() / 1e3, resolve.count);
    l.set(
        "net.server_request_us",
        d.stage_mean_ns("server.request") / 1e3,
        d.stage("server.request").0,
    );
    l.set(
        "ohttp.get_us",
        loads.stage_mean_ns("discovery.fetch") / 1e3,
        loads.stage("discovery.fetch").0,
    );
    l.set(
        "ohttp.revalidate_us",
        warm.stage_mean_ns("discovery.fetch") / 1e3,
        warm.stage("discovery.fetch").0,
    );
    l.set("ohttp.reuse_ratio", ratio(pool.0 as f64, pool.1 as f64), pool.1);
    let (parse_n, parse_ns) = d.stage("discovery.parse");
    l.set("schema.parse_us", d.stage_mean_ns("discovery.parse") / 1e3, parse_n);
    l.set(
        "schema.parse_ns_per_field",
        ratio(parse_ns as f64, rec.fields_parsed as f64),
        rec.fields_parsed,
    );
    let bind_miss = tr.agg(&["cold", "change"], "xmit.bind");
    let bind_warm = tr.agg(&["warm"], "xmit.bind");
    l.set("xmit.bind_us", bind_miss.mean_ns() / 1e3, bind_miss.count);
    l.set("xmit.bind_hit_ns", bind_warm.mean_ns(), bind_warm.count);
    l.set(
        "xmit.content_hits",
        ratio(d.counter("openmeta_schema_cache_content_hits_total") as f64, ops as f64),
        ops,
    );
    l.set("discovery.rdm", ratio(rec.rdm.0 as f64, rec.rdm.1 as f64), rec.deltas.sum(&["cold"]).0);
    for (name, v, samples) in kind_p50 {
        if let Some((n, _)) = crate::PER_LAYER.iter().find(|(n, _)| n == name) {
            l.set(n, *v, *samples);
        }
    }
    residuals(&mut l, tr, "op", "discovery.unattributed_pct", rounds);
    l
}
