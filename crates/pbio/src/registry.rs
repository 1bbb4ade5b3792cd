//! Thread-safe format registration and lookup.
//!
//! The registry is the in-process half of PBIO's metadata plane: formats go
//! in as [`FormatSpec`]s (from compiled-in declarations or from XMIT's
//! XML-derived metadata — the registry cannot tell the difference, which is
//! the paper's orthogonality argument) and come out as shared, immutable
//! [`FormatDescriptor`]s addressable by name or by [`FormatId`].

use std::collections::HashMap;
use std::sync::Arc;

use openmeta_obs::sync::{self, RwLock};
use openmeta_obs::{Counter, MetricsRegistry};

use crate::error::PbioError;
use crate::format::{FormatDescriptor, FormatId, FormatSpec};
use crate::machine::MachineModel;
use crate::plan::{ConvertPlan, EncodePlan, ViewPlan};

/// A registry of formats resolved for one machine model.
#[derive(Debug)]
pub struct FormatRegistry {
    machine: MachineModel,
    inner: RwLock<Inner>,
    /// Compiled marshal/convert plans, keyed by format id (pairs of ids
    /// for conversion).  Read-mostly: steady-state messaging only takes
    /// the read lock.
    plans: RwLock<PlanCache>,
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
    encode: HashMap<FormatId, Arc<EncodePlan>, IdHashState>,
    convert: HashMap<(FormatId, FormatId), Arc<ConvertPlan>, IdHashState>,
    /// Borrowed-decode plans.  `None` is a cached *negative*: the pair's
    /// layouts differ, so callers fall straight through to the convert
    /// path without re-running the structural comparison per message.
    view: HashMap<(FormatId, FormatId), Option<Arc<ViewPlan>>, IdHashState>,
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
            plans: RwLock::new(PlanCache::default()),
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

    /// The compiled encode/extract plan for `desc`, cached by content id.
    pub fn encode_plan(&self, desc: &Arc<FormatDescriptor>) -> Result<Arc<EncodePlan>, PbioError> {
        self.encode_plan_keyed(desc, desc.id())
    }

    /// Like [`Self::encode_plan`] with the id already known (decoders read
    /// it from the wire header for free).
    pub(crate) fn encode_plan_keyed(
        &self,
        desc: &Arc<FormatDescriptor>,
        id: FormatId,
    ) -> Result<Arc<EncodePlan>, PbioError> {
        if let Some(plan) = sync::read(&self.plans).encode.get(&id) {
            self.plan_hits.inc();
            return Ok(plan.clone());
        }
        self.plan_misses.inc();
        // Compile outside the write lock; double-checked insert keeps one
        // shared plan if another thread raced us here.
        let plan = Arc::new(EncodePlan::compile(desc)?);
        #[cfg(any(debug_assertions, feature = "verify-plans"))]
        {
            let verdict = crate::verify::verify_encode_plan(desc, &plan);
            if let Some(violation) = verdict.first_error() {
                return Err(PbioError::PlanRejected {
                    format: desc.name.clone(),
                    violation: violation.to_string(),
                });
            }
        }
        Ok(sync::write(&self.plans).encode.entry(id).or_insert(plan).clone())
    }

    /// The compiled conversion plan for a (sender, receiver) pair, cached
    /// by the pair of content ids.
    pub fn convert_plan(
        &self,
        sender: &Arc<FormatDescriptor>,
        target: &Arc<FormatDescriptor>,
    ) -> Result<Arc<ConvertPlan>, PbioError> {
        let key = (sender.id(), target.id());
        if let Some(plan) = sync::read(&self.plans).convert.get(&key) {
            self.plan_hits.inc();
            return Ok(plan.clone());
        }
        self.plan_misses.inc();
        let plan = Arc::new(ConvertPlan::compile(sender, target)?);
        #[cfg(any(debug_assertions, feature = "verify-plans"))]
        {
            let verdict = crate::verify::verify_convert_plan(sender, target, &plan);
            if let Some(violation) = verdict.first_error() {
                return Err(PbioError::PlanRejected {
                    format: format!("{}\u{2192}{}", sender.name, target.name),
                    violation: violation.to_string(),
                });
            }
        }
        Ok(sync::write(&self.plans).convert.entry(key).or_insert(plan).clone())
    }

    /// The borrowed-decode plan for a (sender, receiver) pair, or `None`
    /// when their layouts differ (also cached, so the structural check
    /// runs once per pair, not per message).
    ///
    /// A compiled view plan passes through
    /// [`crate::verify::verify_view_plan`] in debug/`verify-plans` builds
    /// before it is cached: the same-layout claim is re-derived
    /// independently of the plan compiler, since a wrong view silently
    /// misreads every field.
    pub fn view_plan(
        &self,
        sender: &Arc<FormatDescriptor>,
        target: &Arc<FormatDescriptor>,
    ) -> Result<Option<Arc<ViewPlan>>, PbioError> {
        let key = (sender.id(), target.id());
        if let Some(cached) = sync::read(&self.plans).view.get(&key) {
            self.plan_hits.inc();
            return Ok(cached.clone());
        }
        self.plan_misses.inc();
        let entry = match ViewPlan::compile(sender, target)? {
            Some(plan) => {
                #[cfg(any(debug_assertions, feature = "verify-plans"))]
                {
                    let verdict = crate::verify::verify_view_plan(sender, target, &plan);
                    if let Some(violation) = verdict.first_error() {
                        return Err(PbioError::PlanRejected {
                            format: format!("{}\u{2192}{}", sender.name, target.name),
                            violation: violation.to_string(),
                        });
                    }
                }
                Some(Arc::new(plan))
            }
            None => None,
        };
        Ok(sync::write(&self.plans).view.entry(key).or_insert(entry).clone())
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
