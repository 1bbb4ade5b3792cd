//! Seeded input generators.
//!
//! Every input a workload hands the program is derived from the run's
//! `--seed` through [`Rng`], so the same seed yields byte-identical
//! inputs.  Sizes are drawn by *stratified* sampling ([`stratified`]):
//! each of `n` draws lands in its own 1/n-wide slice of the range, so the
//! seed moves individual sizes, field values and order, while the size
//! distribution of a whole deck stays the same from seed to seed.  That
//! keeps run-to-run spread down without making the inputs constant.

use std::fmt::Write as _;

use openmeta_pbio::value::RecordValue;
use openmeta_pbio::{BaseType, FieldKind, FormatDescriptor, Value};

/// SplitMix64: tiny, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so workloads and
    /// generators drawing from the same seed do not share a sequence.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.range(0, i as u64) as usize;
            items.swap(i, j);
        }
    }

    /// A float exactly representable as `f32`, so values survive a
    /// 4-byte field and every conversion path bit-for-bit.
    pub fn f32_value(&mut self) -> f64 {
        let mantissa = self.range(0, 1 << 20) as f64;
        let sign = if self.next_u64() & 1 == 0 { 1.0 } else { -1.0 };
        sign * mantissa / 1024.0
    }

    /// Lower-case ASCII text of `lo..=hi` characters.
    pub fn text(&mut self, lo: u64, hi: u64) -> String {
        let n = self.range(lo, hi);
        (0..n).map(|_| char::from(b'a' + self.range(0, 25) as u8)).collect()
    }
}

/// `n` integers in `lo..=hi`, one per equal-width stratum, in stratum
/// order (callers shuffle when order matters).
pub fn stratified(rng: &mut Rng, n: usize, lo: u64, hi: u64) -> Vec<u64> {
    let width = (hi - lo + 1) as f64 / n as f64;
    (0..n)
        .map(|i| {
            let x = lo as f64 + (i as f64 + rng.unit()) * width;
            (x as u64).clamp(lo, hi)
        })
        .collect()
}

/// A seeded value tree shaped like `desc`: every field set, dynamic
/// arrays sized `array_len` (length fields follow the arrays), strings
/// short.  Integers fit every width the mapping produces; floats are
/// `f32`-exact.
pub fn record_value(rng: &mut Rng, desc: &FormatDescriptor, array_len: usize) -> Value {
    Value::Record(record_fields(rng, desc, array_len))
}

fn record_fields(rng: &mut Rng, desc: &FormatDescriptor, array_len: usize) -> RecordValue {
    // Length fields take the size of the array they govern.
    let lengths: Vec<&str> = desc
        .fields
        .iter()
        .filter_map(|f| match &f.kind {
            FieldKind::DynamicArray { length_field, .. } => Some(length_field.as_str()),
            _ => None,
        })
        .collect();
    let mut fields = Vec::with_capacity(desc.fields.len());
    for f in &desc.fields {
        let v = if lengths.contains(&f.name.as_str()) {
            match &f.kind {
                FieldKind::Scalar(BaseType::Unsigned) => Value::UInt(array_len as u64),
                _ => Value::Int(array_len as i64),
            }
        } else {
            scalar_or_nested(rng, &f.kind, f.size, array_len)
        };
        fields.push((f.name.clone(), v));
    }
    RecordValue { format_name: desc.name.clone(), fields }
}

fn scalar_or_nested(rng: &mut Rng, kind: &FieldKind, size: usize, array_len: usize) -> Value {
    // Signed values stay inside the narrowest integer width in use (2
    // bytes), unsigned ones inside 4, so no field truncates them.
    let int = |rng: &mut Rng| rng.range(0, 60_000) as i64 - 30_000;
    match kind {
        FieldKind::Scalar(BaseType::Integer) => {
            Value::Int(if size >= 4 { rng.range(0, 1 << 30) as i64 - (1 << 29) } else { int(rng) })
        }
        FieldKind::Scalar(BaseType::Unsigned | BaseType::Enumeration | BaseType::Char) => {
            Value::UInt(rng.range(0, if size >= 4 { u32::MAX as u64 } else { 60_000 }))
        }
        FieldKind::Scalar(BaseType::Boolean) => Value::Bool(rng.next_u64() & 1 == 1),
        FieldKind::Scalar(BaseType::Float) => Value::Float(rng.f32_value()),
        FieldKind::String => Value::Str(rng.text(3, 24)),
        FieldKind::StaticArray { elem: BaseType::Char, count, .. } => {
            Value::Str(rng.text(0, (*count as u64).saturating_sub(1)))
        }
        FieldKind::StaticArray { elem: BaseType::Float, count, .. } => {
            Value::FloatArray((0..*count).map(|_| rng.f32_value()).collect())
        }
        FieldKind::StaticArray { count, .. } => {
            Value::IntArray((0..*count).map(|_| int(rng)).collect())
        }
        FieldKind::DynamicArray { elem: BaseType::Float, .. } => {
            Value::FloatArray((0..array_len).map(|_| rng.f32_value()).collect())
        }
        FieldKind::DynamicArray { .. } => {
            Value::IntArray((0..array_len).map(|_| int(rng)).collect())
        }
        FieldKind::Nested(sub) => Value::Record(record_fields(rng, sub, array_len)),
    }
}

/// One generated schema document of the discovery corpus.
#[derive(Debug, Clone)]
pub struct CorpusDoc {
    /// Index in the corpus.
    pub index: usize,
    /// Also served under an alias URL with byte-identical content.
    pub aliased: bool,
    /// Type names in document (dependency) order; the last one is the
    /// document's top-level type.
    pub types: Vec<String>,
    /// Per type: the earlier types it embeds.
    pub embeds: Vec<Vec<usize>>,
    /// Per type: `(element name, xsd type, dynamic array?)` of its
    /// scalar and array elements, in order.
    pub elements: Vec<Vec<(String, &'static str, bool)>>,
}

impl CorpusDoc {
    /// The top-level type's name.
    pub fn top(&self) -> &str {
        self.types.last().map(String::as_str).unwrap_or_default()
    }

    /// The XSD text at revision `rev`.  Revision 0 is the generated
    /// document; every later revision appends one extra element
    /// `ext_<rev>` to the top-level type, a compatible change with a new
    /// content id each time.
    pub fn xml(&self, rev: u64) -> String {
        let mut out = String::from("<xsd:schema xmlns:xsd=\"http://www.w3.org/2001/XMLSchema\">\n");
        let last = self.types.len() - 1;
        for (t, name) in self.types.iter().enumerate() {
            let _ = writeln!(out, "  <xsd:complexType name=\"{name}\">");
            for &e in &self.embeds[t] {
                let _ = writeln!(
                    out,
                    "    <xsd:element name=\"part{e}\" type=\"{}\" />",
                    self.types[e]
                );
            }
            for (fname, xsd, dynamic) in &self.elements[t] {
                if *dynamic {
                    let _ = writeln!(
                        out,
                        "    <xsd:element name=\"{fname}\" type=\"xsd:{xsd}\" minOccurs=\"0\" \
                         maxOccurs=\"*\" dimensionPlacement=\"before\" \
                         dimensionName=\"{fname}_n\" />"
                    );
                } else {
                    let _ =
                        writeln!(out, "    <xsd:element name=\"{fname}\" type=\"xsd:{xsd}\" />");
                }
            }
            if t == last && rev > 0 {
                let _ =
                    writeln!(out, "    <xsd:element name=\"ext_{rev}\" type=\"xsd:integer\" />");
            }
            out.push_str("  </xsd:complexType>\n");
        }
        out.push_str("</xsd:schema>\n");
        out
    }
}

/// Scalar xsd types the corpus draws from (all map to sized PBIO kinds).
const SCALARS: [&str; 7] =
    ["integer", "long", "double", "float", "string", "unsignedLong", "short"];

/// Element types allowed under a dynamic array.
const ARRAY_ELEMS: [&str; 3] = ["double", "float", "int"];

/// The discovery corpus: `docs` documents of 1–6 complex types each,
/// 3–150 elements per type, composition at most 3 levels deep, dynamic
/// arrays throughout; every `alias_every`-th is also served under an
/// alias.
///
/// Type counts and element totals are drawn per stratum and paired in
/// stratum order, so the corpus's size profile — its largest documents
/// included — is the same for every seed.  The seed moves sizes within
/// their strata, the elements, and the document order.
pub fn corpus(seed: u64, docs: usize, alias_every: usize) -> Vec<CorpusDoc> {
    let mut rng = Rng::new(seed, 0xD15C);
    let type_counts = stratified(&mut rng, docs, 1, 6);
    let totals = stratified(&mut rng, docs, 8, 480);
    let mut strata: Vec<usize> = (0..docs).collect();
    rng.shuffle(&mut strata);
    strata
        .into_iter()
        .enumerate()
        .map(|(d, s)| {
            let ntypes = type_counts[s] as usize;
            let per_type = (totals[s] as usize / ntypes).clamp(3, 150) as f64;
            let mut doc = CorpusDoc {
                index: d,
                aliased: s % alias_every == 0,
                types: Vec::new(),
                embeds: Vec::new(),
                elements: Vec::new(),
            };
            let mut depth: Vec<usize> = Vec::new();
            for t in 0..ntypes {
                doc.types.push(format!("D{d}T{t}"));
                let nfields = ((per_type * (0.75 + 0.5 * rng.unit())) as usize).clamp(3, 150);
                // Each type embeds the one before it while that keeps
                // nesting at most 3 deep: a fixed shape, so descriptor
                // sizes follow the stratified field counts.
                let embeds: Vec<usize> =
                    (t > 0 && depth[t - 1] < 3).then(|| t - 1).into_iter().collect();
                depth.push(1 + embeds.iter().map(|&e| depth[e]).max().unwrap_or(0));
                let nplain = nfields.saturating_sub(embeds.len()).max(1);
                let elements = (0..nplain)
                    .map(|i| {
                        if rng.range(0, 9) == 0 {
                            let elem = ARRAY_ELEMS[rng.range(0, 2) as usize];
                            (format!("a{i}"), elem, true)
                        } else {
                            (format!("f{i}"), SCALARS[rng.range(0, 6) as usize], false)
                        }
                    })
                    .collect();
                doc.embeds.push(embeds);
                doc.elements.push(elements);
            }
            doc
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_corpus_text() {
        let a: Vec<String> = corpus(7, 8, 4).iter().map(|d| d.xml(0)).collect();
        let b: Vec<String> = corpus(7, 8, 4).iter().map(|d| d.xml(0)).collect();
        let c: Vec<String> = corpus(8, 8, 4).iter().map(|d| d.xml(0)).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn stratified_draws_cover_the_range() {
        let mut rng = Rng::new(1, 1);
        let v = stratified(&mut rng, 16, 64, 256);
        assert_eq!(v.len(), 16);
        assert!(v[0] < 80 && v[15] > 240, "{v:?}");
        assert!(v.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn corpus_parses_and_binds() {
        for doc in corpus(3, 12, 4) {
            let xm = xmit::Xmit::new(openmeta_pbio::MachineModel::native());
            xm.load_str(&doc.xml(0)).expect("corpus document parses");
            xm.load_str(&doc.xml(2)).expect("revised document parses");
            assert!(xm.bind(doc.top()).is_ok(), "{}", doc.xml(0));
        }
    }
}
