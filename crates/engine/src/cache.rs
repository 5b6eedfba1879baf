//! The shared topology cache.
//!
//! Batch mapping spends real time on per-machine precomputation: the
//! all-pairs hop matrix (`mimd-graph` BFS APSP, embedded in
//! [`SystemGraph`]) and — the dominant setup cost of multilevel and
//! online jobs — the system-side [`SystemHierarchy`] (matchings,
//! contracted machines and their per-level APSP matrices). Nothing a
//! mapping job does not read is built here: a simulation derives its
//! own next-hop table from the cached [`SystemGraph`] when it runs. A
//! batch of N jobs against the same machine should pay each cost once.
//! [`TopologyCache`] interns topologies behind their canonical JSON spec
//! and hands out `Arc`-shared artifacts; the hierarchy is built lazily
//! on first multilevel/online use so flat-only batches never pay for
//! it. Hit/miss counters make the "computed exactly once" guarantees
//! observable and testable.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use mimd_graph::error::GraphError;
use mimd_multilevel::SystemHierarchy;
use mimd_topology::{SystemGraph, TopologySpec};

/// Everything per-topology that jobs can share read-only.
#[derive(Debug)]
pub struct TopologyArtifacts {
    /// The validated system graph with its embedded APSP hop matrix.
    pub system: SystemGraph,
    /// The system-side multilevel hierarchy, built at most once on
    /// first use (multilevel and online jobs only).
    hierarchy: OnceLock<Result<Arc<SystemHierarchy>, GraphError>>,
}

impl TopologyArtifacts {
    /// Build artifacts directly (the uncached path).
    pub fn build(spec: &TopologySpec, topology_seed: u64) -> Result<Self, GraphError> {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(topology_seed);
        let system = spec.build(&mut rng)?;
        Ok(TopologyArtifacts {
            system,
            hierarchy: OnceLock::new(),
        })
    }

    /// The system-side multilevel hierarchy of this machine, built on
    /// first call and shared afterwards. Prefer
    /// [`TopologyCache::system_hierarchy`], which also maintains the
    /// hit/miss counters.
    pub fn system_hierarchy(&self) -> Result<Arc<SystemHierarchy>, GraphError> {
        self.hierarchy
            .get_or_init(|| SystemHierarchy::build(&self.system).map(Arc::new))
            .clone()
    }

    /// Estimated resident bytes of these artifacts: the `n²` APSP hop
    /// matrix at `size_of::<u16>()` bytes an entry and — once built —
    /// every coarsened level's APSP matrix in the hierarchy (its level
    /// 0 shares this machine's matrix and is not counted again). An
    /// estimate for capacity planning (`ServiceStats`), not an exact
    /// allocator measurement.
    pub fn estimated_resident_bytes(&self) -> u64 {
        let matrix = |sys: &SystemGraph| (sys.len() * sys.len() * size_of::<u16>()) as u64;
        let mut bytes = matrix(&self.system);
        if let Some(Ok(hierarchy)) = self.hierarchy.get() {
            for sys in &hierarchy.systems()[1..] {
                bytes += matrix(sys);
            }
        }
        bytes
    }
}

/// Cache statistics snapshot. Serde-serializable so services can report
/// it on the wire (`mimd-service`'s `Response::Stats`) and CLIs can
/// print it as one canonical JSON object instead of ad-hoc counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups served from an already-built entry.
    pub hits: usize,
    /// Lookups that had to build the artifacts.
    pub misses: usize,
    /// Distinct topologies interned.
    pub entries: usize,
    /// Hierarchy lookups served from an already-built hierarchy.
    pub hierarchy_hits: usize,
    /// Hierarchy lookups that had to build it.
    pub hierarchy_misses: usize,
    /// Hierarchies built so far (across all entries).
    #[serde(default)]
    pub hierarchy_entries: usize,
    /// Estimated bytes resident across all built artifacts (APSP
    /// matrices of the machines and of their built hierarchies).
    #[serde(default)]
    pub resident_bytes: u64,
}

/// One slot per interned key; built at most once.
#[derive(Default)]
struct Slot {
    cell: OnceLock<Result<Arc<TopologyArtifacts>, GraphError>>,
}

/// Concurrent, interning cache of [`TopologyArtifacts`].
///
/// Keyed by the canonical JSON of the [`TopologySpec`] plus — for
/// stochastic topologies only — the topology seed, so a batch on one
/// deterministic machine shares one entry regardless of job seeds.
#[derive(Default)]
pub struct TopologyCache {
    slots: Mutex<HashMap<(String, u64), Arc<Slot>>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
    hierarchy_hits: AtomicUsize,
    hierarchy_misses: AtomicUsize,
}

impl TopologyCache {
    /// An empty cache.
    pub fn new() -> Self {
        TopologyCache::default()
    }

    /// The interning key: canonical spec JSON + effective seed.
    fn key(spec: &TopologySpec, topology_seed: u64) -> (String, u64) {
        let canonical = serde_json::to_string(spec).expect("TopologySpec serializes");
        let effective_seed = if spec.is_stochastic() {
            topology_seed
        } else {
            0
        };
        (canonical, effective_seed)
    }

    /// Fetch or build the artifacts for `spec`.
    ///
    /// Concurrent callers racing on a fresh key block on the slot's
    /// `OnceLock`, so the build runs exactly once; the global map lock
    /// is held only for the slot lookup, never during a build.
    pub fn get_or_build(
        &self,
        spec: &TopologySpec,
        topology_seed: u64,
    ) -> Result<Arc<TopologyArtifacts>, GraphError> {
        let key = Self::key(spec, topology_seed);
        let slot = {
            let mut slots = self.slots.lock();
            Arc::clone(slots.entry(key).or_default())
        };
        let mut built_here = false;
        let result = slot
            .cell
            .get_or_init(|| {
                built_here = true;
                TopologyArtifacts::build(spec, topology_seed).map(Arc::new)
            })
            .clone();
        if built_here {
            self.misses.fetch_add(1, Ordering::Relaxed);
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        result
    }

    /// The system-side multilevel hierarchy for already-interned
    /// artifacts, built at most once per topology (first multilevel or
    /// online job pays; everyone after shares), with hit/miss counters.
    pub fn system_hierarchy(
        &self,
        artifacts: &TopologyArtifacts,
    ) -> Result<Arc<SystemHierarchy>, GraphError> {
        let mut built_here = false;
        let result = artifacts
            .hierarchy
            .get_or_init(|| {
                built_here = true;
                SystemHierarchy::build(&artifacts.system).map(Arc::new)
            })
            .clone();
        if built_here {
            self.hierarchy_misses.fetch_add(1, Ordering::Relaxed);
        } else {
            self.hierarchy_hits.fetch_add(1, Ordering::Relaxed);
        }
        result
    }

    /// Current statistics, including the estimated resident footprint
    /// of everything built so far.
    pub fn stats(&self) -> CacheStats {
        let (entries, hierarchy_entries, resident_bytes) = {
            let slots = self.slots.lock();
            let mut hierarchies = 0;
            let mut bytes = 0u64;
            for slot in slots.values() {
                if let Some(Ok(artifacts)) = slot.cell.get() {
                    bytes += artifacts.estimated_resident_bytes();
                    if matches!(artifacts.hierarchy.get(), Some(Ok(_))) {
                        hierarchies += 1;
                    }
                }
            }
            (slots.len(), hierarchies, bytes)
        };
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries,
            hierarchy_hits: self.hierarchy_hits.load(Ordering::Relaxed),
            hierarchy_misses: self.hierarchy_misses.load(Ordering::Relaxed),
            hierarchy_entries,
            resident_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_lookups_build_once() {
        let cache = TopologyCache::new();
        let spec = TopologySpec::Hypercube { dim: 4 };
        let first = cache.get_or_build(&spec, 0).unwrap();
        for _ in 0..9 {
            let again = cache.get_or_build(&spec, 0).unwrap();
            assert!(Arc::ptr_eq(&first, &again));
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 9);
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn cached_artifacts_equal_uncached_build() {
        let cache = TopologyCache::new();
        let spec = TopologySpec::Mesh { rows: 3, cols: 4 };
        let cached = cache.get_or_build(&spec, 0).unwrap();
        let direct = TopologyArtifacts::build(&spec, 0).unwrap();
        assert_eq!(cached.system.graph(), direct.system.graph());
        assert_eq!(cached.system.distances(), direct.system.distances());
    }

    #[test]
    fn deterministic_topologies_ignore_the_seed_in_the_key() {
        let cache = TopologyCache::new();
        let spec = TopologySpec::Ring { n: 6 };
        let a = cache.get_or_build(&spec, 1).unwrap();
        let b = cache.get_or_build(&spec, 2).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn random_topologies_key_on_their_seed() {
        let cache = TopologyCache::new();
        let spec = TopologySpec::Random { n: 10, p: 0.2 };
        let a = cache.get_or_build(&spec, 1).unwrap();
        let b = cache.get_or_build(&spec, 2).unwrap();
        let a2 = cache.get_or_build(&spec, 1).unwrap();
        assert!(Arc::ptr_eq(&a, &a2));
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn build_errors_are_cached_and_returned() {
        let cache = TopologyCache::new();
        let spec = TopologySpec::Ring { n: 0 };
        assert!(cache.get_or_build(&spec, 0).is_err());
        assert!(cache.get_or_build(&spec, 0).is_err());
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 1);
    }

    #[test]
    fn system_hierarchy_is_built_once_and_counted() {
        let cache = TopologyCache::new();
        let spec = TopologySpec::Torus { rows: 8, cols: 8 };
        let artifacts = cache.get_or_build(&spec, 0).unwrap();
        let first = cache.system_hierarchy(&artifacts).unwrap();
        assert_eq!(first.finest().len(), 64);
        assert!(first.depth() > 1);
        for _ in 0..4 {
            let again = cache.system_hierarchy(&artifacts).unwrap();
            assert!(Arc::ptr_eq(&first, &again));
        }
        let stats = cache.stats();
        assert_eq!(stats.hierarchy_misses, 1);
        assert_eq!(stats.hierarchy_hits, 4);
        // The direct accessor shares the same once-built value.
        assert!(Arc::ptr_eq(&first, &artifacts.system_hierarchy().unwrap()));
        // Flat batches never touch the hierarchy: a fresh entry has
        // zero hierarchy traffic.
        let other = cache.get_or_build(&TopologySpec::Ring { n: 8 }, 0).unwrap();
        drop(other);
        assert_eq!(cache.stats().hierarchy_misses, 1);
    }

    #[test]
    fn resident_bytes_track_what_is_built() {
        let cache = TopologyCache::new();
        assert_eq!(cache.stats().resident_bytes, 0);
        let spec = TopologySpec::Hypercube { dim: 6 };
        let artifacts = cache.get_or_build(&spec, 0).unwrap();
        // A cold machine holds its APSP and nothing else: one 64x64
        // u16 matrix.
        let base = 64 * 64 * 2;
        assert_eq!(cache.stats().resident_bytes, base);
        assert_eq!(cache.stats().hierarchy_entries, 0);
        let direct = artifacts.estimated_resident_bytes();
        assert_eq!(direct, base);
        // Building the hierarchy adds only the coarse levels' APSP
        // matrices (level 0 shares the machine's) and flips the gauge.
        let hierarchy = cache.system_hierarchy(&artifacts).unwrap();
        let coarse: u64 = hierarchy.systems()[1..]
            .iter()
            .map(|sys| (sys.len() * sys.len() * 2) as u64)
            .sum();
        assert!(coarse > 0);
        let stats = cache.stats();
        assert_eq!(stats.resident_bytes, base + coarse);
        assert_eq!(stats.hierarchy_entries, 1);
        assert_eq!(
            stats.resident_bytes,
            artifacts.estimated_resident_bytes(),
            "cache total equals the single entry's estimate"
        );
    }

    #[test]
    fn concurrent_first_access_builds_once() {
        let cache = Arc::new(TopologyCache::new());
        let spec = TopologySpec::Hypercube { dim: 5 };
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let cache = Arc::clone(&cache);
                let spec = spec.clone();
                scope.spawn(move || cache.get_or_build(&spec, 0).unwrap());
            }
        });
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().hits, 7);
    }
}
