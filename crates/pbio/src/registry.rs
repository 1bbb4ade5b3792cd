//! Thread-safe format registration and lookup.
//!
//! The registry is the in-process half of PBIO's metadata plane: formats go
//! in as [`FormatSpec`]s (from compiled-in declarations or from XMIT's
//! XML-derived metadata — the registry cannot tell the difference, which is
//! the paper's orthogonality argument) and come out as shared, immutable
//! [`FormatDescriptor`]s addressable by name or by [`FormatId`].

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use openmeta_obs::sync::{self, RwLock};
use openmeta_obs::{Counter, MetricsRegistry};

use crate::error::PbioError;
use crate::format::{FormatDescriptor, FormatId, FormatSpec};
use crate::machine::MachineModel;
use crate::plan::{layouts_match, ConvertPlan, EncodePlan};
use crate::verify::{self, Verdict};

/// A registry of formats resolved for one machine model.
#[derive(Debug)]
pub struct FormatRegistry {
    machine: MachineModel,
    inner: RwLock<Inner>,
    /// Compiled convert plans and same-layout verdicts, keyed by the pair
    /// of format ids they join.  Encode plans are not here: each
    /// descriptor holds its own (see [`FormatDescriptor::encode_plan`]).
    /// Read-mostly: steady-state messaging only takes a read lock.
    plans: PlanCache,
    /// Global-registry-backed counters (`openmeta_plan_cache_*_total`):
    /// this registry's exact numbers via [`FormatRegistry::plan_cache_stats`],
    /// process-wide sums via a `/metrics` scrape.
    plan_hits: Arc<Counter>,
    plan_misses: Arc<Counter>,
}

#[derive(Debug, Default)]
struct Inner {
    /// Latest registration under each name (names may be re-registered as
    /// formats evolve; ids keep every version addressable).
    by_name: HashMap<String, Arc<FormatDescriptor>>,
    /// Every version ever registered, by content id.
    by_id: HashMap<FormatId, Arc<FormatDescriptor>, IdHashState>,
}

#[derive(Debug, Default)]
struct PlanCache {
    convert: PlanTable<Arc<ConvertPlan>>,
    /// Borrowed-decode verdicts.  `false` is a cached *negative*: the
    /// pair's layouts differ, so callers fall straight through to the
    /// convert path without re-running the structural comparison per
    /// message.
    view: PlanTable<bool>,
}

/// One kind of (sender, receiver) plan, each kind under its own lock.
type PlanTable<P> = RwLock<Verdicts<P>>;

/// Rejections each plan table keeps; past this the oldest is forgotten.
const MAX_REJECTIONS: usize = 256;

/// The gate's answers for one kind of plan: every certified plan, and
/// the error of the last [`MAX_REJECTIONS`] keys that failed to compile
/// (a [`PbioError::TypeMismatch`], say) or to certify
/// ([`PbioError::PlanRejected`]) — so a peer replaying records under a
/// lying or mismatched descriptor pays one compile and verify, not one
/// per record, and a flood of fresh bad ids holds a bounded amount.
#[derive(Debug)]
struct Verdicts<P> {
    by_key: HashMap<(FormatId, FormatId), Result<P, PbioError>, IdHashState>,
    /// Keys of the cached rejections, oldest first.
    rejected: VecDeque<(FormatId, FormatId)>,
}

impl<P> Default for Verdicts<P> {
    fn default() -> Self {
        Verdicts { by_key: HashMap::default(), rejected: VecDeque::new() }
    }
}

/// [`FormatId`]s are already FNV-1a hashes of descriptor content, so
/// running them through SipHash again only adds latency to the cache
/// lookups every decoded message performs.  This hasher passes the id
/// bits straight through, folding pair keys with a rotate-xor so both
/// halves of a (sender, receiver) key contribute to the bucket index.
#[derive(Debug, Default, Clone, Copy)]
struct IdHashState;

impl std::hash::BuildHasher for IdHashState {
    type Hasher = IdHasher;

    fn build_hasher(&self) -> IdHasher {
        IdHasher(0)
    }
}

#[derive(Debug, Default)]
struct IdHasher(u64);

impl std::hash::Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Id keys hash via `write_u64`; keep a correct (FNV-1a) fallback
        // in case a future key type routes through here.
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = self.0.rotate_left(32) ^ x;
    }
}

/// Cumulative plan-cache counters, for ablation reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanCacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to compile a plan.
    pub misses: u64,
}

impl FormatRegistry {
    /// A registry whose layouts follow `machine`.
    pub fn new(machine: MachineModel) -> Self {
        FormatRegistry {
            machine,
            inner: RwLock::new(Inner::default()),
            plans: PlanCache::default(),
            plan_hits: MetricsRegistry::global().counter("openmeta_plan_cache_hits_total"),
            plan_misses: MetricsRegistry::global().counter("openmeta_plan_cache_misses_total"),
        }
    }

    /// The machine model formats are laid out for.
    pub fn machine(&self) -> MachineModel {
        self.machine
    }

    /// Register a format, resolving nested type names against formats
    /// already present.  Registering identical content twice returns the
    /// existing descriptor (registration is idempotent).
    pub fn register(&self, spec: FormatSpec) -> Result<Arc<FormatDescriptor>, PbioError> {
        let descriptor = {
            let inner = sync::read(&self.inner);
            FormatDescriptor::resolve(&spec, self.machine, &|name| {
                inner.by_name.get(name).cloned()
            })?
        };
        Ok(self.insert(descriptor, true))
    }

    /// Register a pre-resolved descriptor (e.g. received from a format
    /// server or decoded off the wire).  The descriptor keeps its own
    /// machine model — it describes the *sender's* layout — and is only
    /// id-addressable: it never displaces the receiver's own binding for
    /// the same format name.
    pub fn register_descriptor(&self, descriptor: FormatDescriptor) -> Arc<FormatDescriptor> {
        self.insert(descriptor, false)
    }

    fn insert(&self, descriptor: FormatDescriptor, bind_name: bool) -> Arc<FormatDescriptor> {
        let id = descriptor.id();
        // Read-lock fast path: re-registering known content is the common
        // case (every sender re-announces its formats), and it should not
        // serialize against concurrent lookups.
        {
            let inner = sync::read(&self.inner);
            if let Some(existing) = inner.by_id.get(&id) {
                if **existing == descriptor {
                    let existing = existing.clone();
                    let name_current = !bind_name
                        || inner
                            .by_name
                            .get(&existing.name)
                            .is_some_and(|bound| Arc::ptr_eq(bound, &existing));
                    drop(inner);
                    if !name_current {
                        sync::write(&self.inner)
                            .by_name
                            .insert(existing.name.clone(), existing.clone());
                    }
                    return existing;
                }
                // A 64-bit content hash collision between *different*
                // descriptors: astronomically unlikely; fall through and
                // let the newer content win rather than corrupt lookups
                // silently.
            }
        }
        // Allocate outside the write lock; re-check under it (another
        // thread may have inserted the same content meanwhile) so racing
        // registrations share one Arc.
        let arc = Arc::new(descriptor);
        let mut inner = sync::write(&self.inner);
        let entry = match inner.by_id.get(&id) {
            Some(existing) if **existing == *arc => existing.clone(),
            _ => {
                inner.by_id.insert(id, arc.clone());
                arc
            }
        };
        if bind_name {
            inner.by_name.insert(entry.name.clone(), entry.clone());
        }
        entry
    }

    /// Latest format registered under `name`.
    pub fn lookup_name(&self, name: &str) -> Option<Arc<FormatDescriptor>> {
        sync::read(&self.inner).by_name.get(name).cloned()
    }

    /// Format with content id `id` (any version, any machine model).
    pub fn lookup_id(&self, id: FormatId) -> Option<Arc<FormatDescriptor>> {
        sync::read(&self.inner).by_id.get(&id).cloned()
    }

    /// Number of distinct format versions known.
    pub fn len(&self) -> usize {
        sync::read(&self.inner).by_id.len()
    }

    /// `true` when no formats are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Names currently bound, sorted (for diagnostics and tools).
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = sync::read(&self.inner).by_name.keys().cloned().collect();
        v.sort();
        v
    }

    /// The certified encode/extract plan `desc` holds, counted as a miss
    /// when this call compiled it and as a hit otherwise.
    pub fn encode_plan<'d>(&self, desc: &'d FormatDescriptor) -> Result<&'d EncodePlan, PbioError> {
        let (verdict, compiled) = desc.encode_plan();
        (if compiled { &self.plan_misses } else { &self.plan_hits }).inc();
        verdict
    }

    /// The compiled conversion plan for a (sender, receiver) pair, cached
    /// by the pair of content ids.  It runs between the two descriptors'
    /// encode plans, so a pair is only cached once both certify.
    pub fn convert_plan(
        &self,
        sender: &Arc<FormatDescriptor>,
        target: &Arc<FormatDescriptor>,
    ) -> Result<Arc<ConvertPlan>, PbioError> {
        self.certified(&self.plans.convert, sender, target, || {
            sender.encode_plan().0?;
            target.encode_plan().0?;
            let plan = ConvertPlan::compile(sender, target)?;
            Ok((verify::verify_convert_program(sender, target, plan.program()), Arc::new(plan)))
        })
    }

    /// Whether records of `sender` can be read in place as `target`'s
    /// native image through `target`'s certified encode plan: the gate
    /// for a borrowed [`crate::view::RecordView`], cached per pair,
    /// `false` included, so the structural check runs once per pair, not
    /// per message.
    ///
    /// The same-layout claim is re-derived by
    /// [`crate::verify::verify_same_layout`], independently of
    /// [`layouts_match`], before the verdict is cached: a wrong view
    /// silently misreads every field.
    pub fn same_layout(
        &self,
        sender: &Arc<FormatDescriptor>,
        target: &Arc<FormatDescriptor>,
    ) -> Result<bool, PbioError> {
        self.certified(&self.plans.view, sender, target, || {
            if !layouts_match(sender, target) {
                return Ok((Verdict::default(), false));
            }
            target.encode_plan().0?;
            Ok((verify::verify_same_layout(sender, target), true))
        })
    }

    /// The gate in front of every pair plan this registry caches: the
    /// pair's cached verdict, or one reached now from the verifier's
    /// verdict and the plan `compile` returns; a rejection or a compile
    /// error is cached too (see [`Verdicts`]).  Descriptors arrive from
    /// peers and a plan runs with no per-record layout checks, so a lying
    /// descriptor's plan is refused here, never an out-of-bounds access
    /// later.
    fn certified<P: Clone>(
        &self,
        table: &PlanTable<P>,
        sender: &FormatDescriptor,
        target: &FormatDescriptor,
        compile: impl FnOnce() -> Result<(Verdict, P), PbioError>,
    ) -> Result<P, PbioError> {
        let key = (sender.id(), target.id());
        if let Some(verdict) = sync::read(table).by_key.get(&key) {
            self.plan_hits.inc();
            return verdict.clone();
        }
        self.plan_misses.inc();
        // Compile and certify outside the write lock; the double-checked
        // insert keeps one shared verdict if another thread raced us here.
        let verdict = compile().and_then(|(verdict, plan)| {
            verdict.certify(|| format!("{}\u{2192}{}", sender.name, target.name)).map(|()| plan)
        });
        let mut table = sync::write(table);
        if verdict.is_err() && !table.by_key.contains_key(&key) {
            if table.rejected.len() == MAX_REJECTIONS {
                let oldest = table.rejected.pop_front().expect("the queue is full");
                table.by_key.remove(&oldest);
            }
            table.rejected.push_back(key);
        }
        table.by_key.entry(key).or_insert(verdict).clone()
    }

    /// Cumulative plan-cache hit/miss counters.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        PlanCacheStats { hits: self.plan_hits.get(), misses: self.plan_misses.get() }
    }

    /// Zero the plan-cache counters (the cache itself is kept).
    pub fn reset_plan_cache_stats(&self) {
        self.plan_hits.reset();
        self.plan_misses.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::IOField;

    fn reg() -> FormatRegistry {
        FormatRegistry::new(MachineModel::SPARC32)
    }

    fn point_spec() -> FormatSpec {
        FormatSpec::new(
            "Point",
            vec![IOField::auto("x", "float", 8), IOField::auto("y", "float", 8)],
        )
    }

    #[test]
    fn register_and_lookup() {
        let r = reg();
        let d = r.register(point_spec()).unwrap();
        assert_eq!(r.lookup_name("Point").unwrap(), d);
        assert_eq!(r.lookup_id(d.id()).unwrap(), d);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn registration_is_idempotent() {
        let r = reg();
        let d1 = r.register(point_spec()).unwrap();
        let d2 = r.register(point_spec()).unwrap();
        assert!(Arc::ptr_eq(&d1, &d2));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn re_registration_keeps_old_version_by_id() {
        let r = reg();
        let v1 = r.register(point_spec()).unwrap();
        let mut spec = point_spec();
        spec.fields.push(IOField::auto("z", "float", 8));
        let v2 = r.register(spec).unwrap();
        assert_ne!(v1.id(), v2.id());
        assert_eq!(r.lookup_name("Point").unwrap(), v2);
        assert_eq!(r.lookup_id(v1.id()).unwrap(), v1);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn nested_resolution_uses_registry() {
        let r = reg();
        r.register(point_spec()).unwrap();
        let d = r
            .register(FormatSpec::new(
                "Segment",
                vec![IOField::auto("a", "Point", 0), IOField::auto("b", "Point", 0)],
            ))
            .unwrap();
        assert_eq!(d.record_size, 32);
        // Nesting an unknown name fails.
        let err =
            r.register(FormatSpec::new("Bad", vec![IOField::auto("q", "Mystery", 0)])).unwrap_err();
        assert!(matches!(err, PbioError::UnknownFormat(_)));
    }

    #[test]
    fn foreign_descriptor_registration() {
        let local = reg();
        let remote = FormatRegistry::new(MachineModel::X86_64);
        let d = remote.register(point_spec()).unwrap();
        let copied = local.register_descriptor((*d).clone());
        assert_eq!(copied.machine, MachineModel::X86_64);
        assert_eq!(local.lookup_id(d.id()).unwrap(), copied);
    }

    #[test]
    fn names_sorted() {
        let r = reg();
        r.register(FormatSpec::new("B", vec![IOField::auto("x", "integer", 4)])).unwrap();
        r.register(FormatSpec::new("A", vec![IOField::auto("x", "integer", 4)])).unwrap();
        assert_eq!(r.names(), vec!["A".to_string(), "B".to_string()]);
    }

    /// A descriptor whose one string slot is 2 bytes wide: its plans
    /// never pass the gate.
    fn lying(name: &str) -> Arc<FormatDescriptor> {
        let honest = reg()
            .register(FormatSpec::new(name, vec![IOField::auto("label", "string", 0)]))
            .unwrap();
        let mut d = (*honest).clone();
        d.fields[0].size = 2;
        Arc::new(crate::codec::decode_descriptor(&crate::codec::encode_descriptor(&d)).unwrap())
    }

    #[test]
    fn rejections_are_cached_up_to_a_fixed_cap() {
        let r = reg();
        let honest = r
            .register(FormatSpec::new("Honest", vec![IOField::auto("label", "string", 0)]))
            .unwrap();
        let key = |name: &str| (lying(name).id(), honest.id());
        for i in 0..MAX_REJECTIONS + 50 {
            let err = r.convert_plan(&lying(&format!("L{i}")), &honest).unwrap_err();
            assert!(matches!(err, PbioError::PlanRejected { .. }), "{err}");
        }
        let table = sync::read(&r.plans.convert);
        assert_eq!(table.rejected.len(), MAX_REJECTIONS);
        assert_eq!(table.by_key.len(), MAX_REJECTIONS);
        // The oldest were evicted, the newest kept.
        assert!(!table.by_key.contains_key(&key("L0")));
        assert!(table.by_key.contains_key(&key(&format!("L{}", MAX_REJECTIONS + 49))));
        drop(table);

        // Certified plans are never evicted by rejections.
        let good = r.register(point_spec()).unwrap();
        r.convert_plan(&good, &good).unwrap();
        for i in 0..MAX_REJECTIONS {
            let _ = r.convert_plan(&lying(&format!("M{i}")), &honest);
        }
        let misses = r.plan_cache_stats().misses;
        r.convert_plan(&good, &good).unwrap();
        assert_eq!(r.plan_cache_stats().misses, misses);
    }

    #[test]
    fn concurrent_registration() {
        let r = std::sync::Arc::new(reg());
        let mut handles = Vec::new();
        for t in 0..8 {
            let r = r.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..50 {
                    let name = format!("F{}", (t + i) % 20);
                    r.register(FormatSpec::new(name, vec![IOField::auto("x", "integer", 4)]))
                        .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(r.len(), 20);
    }
}
