//! Building the coarsening hierarchy: matched processor groups on the
//! system side, heavy-edge cluster merges on the problem side, one
//! [`Coarsening`] record per level describing the projection maps.
//!
//! The two sides have very different lifetimes. The **system side**
//! (matchings, contracted machines and their APSP matrices) depends only
//! on the topology, so it is split out as [`SystemHierarchy`]: built
//! once per machine, shared behind `Arc`s by every V-cycle and by the
//! online remapper (the batch engine caches it per topology). The
//! **problem side** (cluster merges) is per job and lives in
//! [`Hierarchy`], which pairs a problem-side chain with a prefix of a
//! system hierarchy.
//!
//! Every level keeps the paper's `na = ns` invariant: the system graph
//! is contracted along a maximal matching into `m` connected processor
//! groups, and the clustering is merged by heavy-edge matching on the
//! abstract graph until exactly `m` clusters remain. Both sides follow
//! one recipe: matched pairs become a map through
//! [`contraction_map`], and [`Csr::contract`](mimd_graph::Csr::contract)
//! builds the coarse graph from the fine one's rows. Both projections
//! conserve weight — task weight trivially (tasks never merge), cut
//! weight as `fine_cut = coarse_cut + internalized`. Because tasks never
//! merge, the levels' [`ClusteredProblemGraph`]s share one problem graph
//! and own only their clusterings.
//!
//! The task edges are read once per hierarchy: the finest level's
//! [`abstract_graph`](ClusteredProblemGraph::abstract_graph) collapses
//! them, and every step after that works on cluster graphs alone.
//! `merge_clusters` runs heavy-edge matching straight off the abstract
//! graph's rows, then [*contracts*](ClusteredProblemGraph::contract) the
//! level along the merge — a coarse row is the sum of its members' fine
//! rows — and the edges the merge made internal are the step's
//! `internalized_weight`. The coarse level holds its abstract graph, the
//! next step's input (and the top level's, the flat mapper's), while the
//! finer level lets its own go; at `layered:4096`
//! on `torus:32x32` the five steps walk 205 k, 113 k, 33 k, 8 k and 2 k
//! abstract edges, where each used to re-read all 259 k task edges.

use std::sync::Arc;

use mimd_graph::error::GraphError;
use mimd_graph::matching::{contraction_map, greedy_matching, heavy_edge_matching};
use mimd_graph::{NodeId, Weight};
use mimd_taskgraph::{ClusterId, ClusteredProblemGraph};
use mimd_topology::SystemGraph;

/// Coarsening stalls (and the hierarchy stops growing) when a step
/// shrinks the machine by less than this factor — e.g. a star topology,
/// where a matching can only ever remove one node per level.
const STALL_RATIO: f64 = 0.9;

/// One system-side contraction step: how the processors of a fine level
/// collapse into the groups of the next-coarser level.
#[derive(Clone, Debug)]
pub struct SystemCoarsening {
    /// `proc_map[s]` = coarse processor (group) containing fine
    /// processor `s`.
    pub proc_map: Vec<NodeId>,
    /// `groups[g]` = fine member processors of coarse processor `g`,
    /// ascending. Every group is a connected subgraph of the fine
    /// system (a matched pair or a singleton).
    pub groups: Vec<Vec<NodeId>>,
}

/// The topology-only half of the multilevel hierarchy: the chain of
/// contracted machines (each with its APSP matrix) and the matching
/// steps between them. Depends only on the system graph, never on the
/// job, so one instance can serve every multilevel and online job on
/// that machine. The chain is built all the way down (until one
/// processor remains or a matching stalls); each consumer uses the
/// prefix ending at [`SystemHierarchy::top_level_for`] its own target.
#[derive(Clone, Debug)]
pub struct SystemHierarchy {
    systems: Vec<Arc<SystemGraph>>,
    steps: Vec<Arc<SystemCoarsening>>,
}

impl SystemHierarchy {
    /// Contract `system` along greedy maximal matchings until one
    /// processor remains or a step stops making progress (shrinkage
    /// above [`STALL_RATIO`]).
    pub fn build(system: &SystemGraph) -> Result<SystemHierarchy, GraphError> {
        let mut systems = vec![Arc::new(system.clone())];
        let mut steps: Vec<Arc<SystemCoarsening>> = Vec::new();
        loop {
            let current = systems.last().expect("non-empty");
            let n = current.len();
            if n <= 1 {
                break;
            }
            let pairs = greedy_matching(current.graph());
            if (n - pairs.len()) as f64 > STALL_RATIO * n as f64 {
                break; // pathological topology (e.g. star): give up early
            }
            let (proc_map, m) = contraction_map(n, &pairs);
            let (contracted, _) = current.graph().contract(&proc_map, m);
            let coarse = SystemGraph::new(format!("{}/coarse[{m}]", system.name()), contracted)?;
            let groups = members_of(&proc_map, m);
            steps.push(Arc::new(SystemCoarsening { proc_map, groups }));
            systems.push(Arc::new(coarse));
        }
        Ok(SystemHierarchy { systems, steps })
    }

    /// The machines, finest first; `systems()[0]` is the original.
    pub fn systems(&self) -> &[Arc<SystemGraph>] {
        &self.systems
    }

    /// The contraction steps; `steps()[k]` goes from level `k` to
    /// `k + 1`.
    pub fn steps(&self) -> &[Arc<SystemCoarsening>] {
        &self.steps
    }

    /// The original (finest) machine.
    pub fn finest(&self) -> &Arc<SystemGraph> {
        &self.systems[0]
    }

    /// Number of levels including the finest.
    pub fn depth(&self) -> usize {
        self.systems.len()
    }

    /// The level a consumer with machine-size target `target_ns` solves
    /// directly: the first level with at most `target_ns` processors, or
    /// the coarsest available when the chain stalled earlier.
    pub fn top_level_for(&self, target_ns: usize) -> usize {
        let target = target_ns.max(1);
        self.systems
            .iter()
            .position(|s| s.len() <= target)
            .unwrap_or(self.systems.len() - 1)
    }

    /// The composed projection onto `level`: `image[s]` = the level-
    /// `level` node containing finest processor `s`. Level 0 is the
    /// identity.
    pub fn image_at(&self, level: usize) -> Vec<NodeId> {
        let mut image: Vec<NodeId> = (0..self.systems[0].len()).collect();
        for step in &self.steps[..level] {
            for slot in image.iter_mut() {
                *slot = step.proc_map[*slot];
            }
        }
        image
    }

    /// The finest-level processors of every level-`level` node — the
    /// "processor neighborhoods" the online remapper refines within.
    pub fn members_at(&self, level: usize) -> Vec<Vec<NodeId>> {
        members_of(&self.image_at(level), self.systems[level].len())
    }
}

/// `members[g]` = the nodes `map` sends to `g` (of `m`), ascending.
fn members_of(map: &[NodeId], m: usize) -> Vec<Vec<NodeId>> {
    let mut members = vec![Vec::new(); m];
    for (s, &g) in map.iter().enumerate() {
        members[g].push(s);
    }
    members
}

/// The projection maps from one level to the next-coarser one.
#[derive(Clone, Debug)]
pub struct Coarsening {
    /// `cluster_map[c]` = coarse cluster absorbing fine cluster `c`.
    pub cluster_map: Vec<ClusterId>,
    /// Cross-cluster weight that became intra-cluster in this step.
    pub internalized_weight: Weight,
    /// The shared system-side half of this step.
    step: Arc<SystemCoarsening>,
}

impl Coarsening {
    /// `proc_map()[s]` = coarse processor (group) containing fine
    /// processor `s`.
    pub fn proc_map(&self) -> &[NodeId] {
        &self.step.proc_map
    }

    /// `groups()[g]` = fine member processors of coarse processor `g`,
    /// ascending (matched pair or singleton, always connected).
    pub fn groups(&self) -> &[Vec<NodeId>] {
        &self.step.groups
    }
}

/// One level of the hierarchy: a clustered problem graph and a system
/// graph with matching sizes (`na == ns`).
#[derive(Clone, Debug)]
pub struct Level {
    /// The (possibly coarsened) clustered problem graph.
    pub graph: ClusteredProblemGraph,
    /// The (possibly contracted) system graph, shared with the system
    /// hierarchy it came from.
    pub system: Arc<SystemGraph>,
}

/// The whole V-cycle input: `levels[0]` is the finest (original)
/// problem, `levels.last()` the top level the flat mapper solves;
/// `coarsenings[k]` maps level `k` onto level `k + 1`.
#[derive(Clone, Debug)]
pub struct Hierarchy {
    levels: Vec<Level>,
    coarsenings: Vec<Coarsening>,
}

impl Hierarchy {
    /// Coarsen `(graph, system)` until the machine has at most
    /// `target_ns` processors or a step stops making progress
    /// (shrinkage above [`STALL_RATIO`]). Requires `na == ns`; the
    /// result always contains at least the finest level. Builds a fresh
    /// [`SystemHierarchy`] — callers mapping repeatedly on one machine
    /// should build that once and use
    /// [`Hierarchy::from_system_hierarchy`].
    pub fn build(
        graph: &ClusteredProblemGraph,
        system: &SystemGraph,
        target_ns: usize,
    ) -> Result<Hierarchy, GraphError> {
        let sys = SystemHierarchy::build(system)?;
        Hierarchy::from_system_hierarchy(graph, &sys, target_ns)
    }

    /// Pair `graph` with the prefix of a prebuilt (typically cached)
    /// [`SystemHierarchy`], running only the per-job problem-side
    /// coarsening. Produces exactly the same hierarchy as
    /// [`Hierarchy::build`] on the same inputs.
    pub fn from_system_hierarchy(
        graph: &ClusteredProblemGraph,
        sys: &SystemHierarchy,
        target_ns: usize,
    ) -> Result<Hierarchy, GraphError> {
        if graph.num_clusters() != sys.finest().len() {
            return Err(GraphError::SizeMismatch {
                left: graph.num_clusters(),
                right: sys.finest().len(),
            });
        }
        let top = sys.top_level_for(target_ns);
        let mut levels = vec![Level {
            graph: graph.clone(),
            system: Arc::clone(sys.finest()),
        }];
        let mut coarsenings = Vec::with_capacity(top);
        if top > 0 {
            // The one pass over the task edges is the finest level's
            // abstract graph; every coarser one is contracted from the
            // finer one, which it replaces.
            for k in 0..top {
                let step = &sys.steps()[k];
                let merged = merge_clusters(&mut levels[k].graph, step.groups.len())?;
                coarsenings.push(Coarsening {
                    cluster_map: merged.cluster_map,
                    internalized_weight: merged.internalized_weight,
                    step: Arc::clone(step),
                });
                levels.push(Level {
                    graph: merged.graph,
                    system: Arc::clone(&sys.systems()[k + 1]),
                });
            }
        }
        Ok(Hierarchy {
            levels,
            coarsenings,
        })
    }

    /// All levels, finest first.
    pub fn levels(&self) -> &[Level] {
        &self.levels
    }

    /// The projection maps; `coarsenings()[k]` goes from level `k` to
    /// level `k + 1`.
    pub fn coarsenings(&self) -> &[Coarsening] {
        &self.coarsenings
    }

    /// The coarsest level (solved directly by the flat mapper).
    pub fn top(&self) -> &Level {
        self.levels.last().expect("hierarchy has >= 1 level")
    }

    /// Number of levels including the finest.
    pub fn depth(&self) -> usize {
        self.levels.len()
    }
}

/// One problem-side coarsening step: the projection map, the cut weight
/// it internalized, and the coarse level, holding its abstract graph.
struct Merged {
    cluster_map: Vec<ClusterId>,
    internalized_weight: Weight,
    graph: ClusteredProblemGraph,
}

/// The problem-side half of one coarsening step: merge the clusters of
/// `graph` down to exactly `m`, heaviest abstract edges first, and
/// contract its abstract graph along the merge.
fn merge_clusters(graph: &mut ClusteredProblemGraph, m: usize) -> Result<Merged, GraphError> {
    let na = graph.num_clusters();
    let merges_needed = na - m;
    let mut chosen = heavy_edge_matching(graph.abstract_graph().adjacency());
    chosen.truncate(merges_needed);
    if chosen.len() < merges_needed {
        // The abstract graph ran out of edges (or is sparse): pair the
        // remaining unmerged clusters by ascending id. Merging
        // non-communicating clusters is harmless — it only zeroes edges
        // that do not exist.
        let mut merged = vec![false; na];
        for &(a, b) in &chosen {
            merged[a] = true;
            merged[b] = true;
        }
        let free: Vec<ClusterId> = (0..na).filter(|&a| !merged[a]).collect();
        for pair in free.chunks(2) {
            if chosen.len() == merges_needed {
                break;
            }
            if let [a, b] = *pair {
                chosen.push((a, b));
            }
        }
    }
    debug_assert_eq!(chosen.len(), merges_needed);
    let (cluster_map, coarse) = contraction_map(na, &chosen);
    debug_assert_eq!(coarse, m);

    let (graph, internalized_weight) = graph.contract(&cluster_map)?;
    Ok(Merged {
        cluster_map,
        internalized_weight,
        graph,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimd_taskgraph::clustering::region::random_region_clustering;
    use mimd_taskgraph::{AbstractGraph, GeneratorConfig, LayeredDagGenerator};
    use mimd_topology::{mesh2d, star, torus2d};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn instance(np: usize, ns: usize, seed: u64) -> ClusteredProblemGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let gen = LayeredDagGenerator::new(GeneratorConfig {
            tasks: np,
            ..GeneratorConfig::default()
        })
        .unwrap();
        let problem = gen.generate(&mut rng);
        let clustering = random_region_clustering(&problem, ns, &mut rng).unwrap();
        ClusteredProblemGraph::new(problem, clustering).unwrap()
    }

    #[test]
    fn hierarchy_halves_meshes_down_to_the_target() {
        let system = mesh2d(8, 8).unwrap();
        let graph = instance(128, 64, 1);
        let h = Hierarchy::build(&graph, &system, 8).unwrap();
        assert!(h.top().system.len() <= 8);
        assert!(h.depth() >= 3, "64 -> <=8 takes at least 3 halvings");
        // Sizes match at every level, and each step halves (mesh
        // matchings are near-perfect).
        for level in h.levels() {
            assert_eq!(level.graph.num_clusters(), level.system.len());
        }
        for pair in h.levels().windows(2) {
            assert!(pair[1].system.len() >= pair[0].system.len() / 2);
            assert!(pair[1].system.len() < pair[0].system.len());
        }
        assert_eq!(h.coarsenings().len(), h.depth() - 1);
    }

    #[test]
    fn projections_conserve_weight() {
        let system = torus2d(6, 6).unwrap();
        let graph = instance(90, 36, 7);
        let h = Hierarchy::build(&graph, &system, 4).unwrap();
        for (k, coarsening) in h.coarsenings().iter().enumerate() {
            let fine = &h.levels()[k];
            let coarse = &h.levels()[k + 1];
            // Task weight: same problem graph, so trivially conserved.
            assert_eq!(
                fine.graph.problem().sequential_time(),
                coarse.graph.problem().sequential_time()
            );
            // Cut weight: fine cut = coarse cut + internalized.
            assert_eq!(
                fine.graph.total_cut_weight(),
                coarse.graph.total_cut_weight() + coarsening.internalized_weight
            );
            // Groups partition the fine machine.
            let total: usize = coarsening.groups().iter().map(Vec::len).sum();
            assert_eq!(total, fine.system.len());
            // Group members are mutually reachable in <= 1 hop (matched
            // pair or singleton) — connected processor groups.
            for (g, members) in coarsening.groups().iter().enumerate() {
                assert!(members.len() <= 2);
                for &s in members {
                    assert_eq!(coarsening.proc_map()[s], g);
                }
                if let [a, b] = members[..] {
                    assert!(fine.system.adjacent(a, b));
                }
            }
        }
        // The top level holds the abstract graph contracted down to it,
        // which is the collapse of its own clustering.
        let top = &h.top().graph;
        assert_eq!(**top.abstract_graph(), AbstractGraph::new(top));
    }

    #[test]
    fn star_coarsening_stalls_instead_of_degenerating() {
        let system = star(32).unwrap();
        let graph = instance(64, 32, 3);
        let h = Hierarchy::build(&graph, &system, 4).unwrap();
        // A star matches exactly one pair per level (ratio 31/32 > 0.9),
        // so the hierarchy gives up immediately.
        assert_eq!(h.depth(), 1);
        assert_eq!(h.top().system.len(), 32);
    }

    #[test]
    fn size_mismatch_rejected() {
        let system = mesh2d(4, 4).unwrap();
        let graph = instance(40, 8, 1);
        assert!(Hierarchy::build(&graph, &system, 4).is_err());
    }

    #[test]
    fn cached_system_hierarchy_reproduces_a_fresh_build() {
        let system = torus2d(8, 8).unwrap();
        let sys = SystemHierarchy::build(&system).unwrap();
        // The chain goes all the way down; each consumer's prefix ends
        // at the first level small enough for its target.
        assert_eq!(sys.finest().len(), 64);
        assert!(sys.systems().last().unwrap().len() <= 2);
        for target in [1, 4, 8, 32, 64, 1000] {
            let top = sys.top_level_for(target);
            assert!(sys.systems()[top].len() <= target.max(1) || top == sys.depth() - 1);
            let graph = instance(128, 64, 9);
            let fresh = Hierarchy::build(&graph, &system, target).unwrap();
            let cached = Hierarchy::from_system_hierarchy(&graph, &sys, target).unwrap();
            assert_eq!(fresh.depth(), cached.depth(), "target {target}");
            for (a, b) in fresh.levels().iter().zip(cached.levels()) {
                assert_eq!(a.graph, b.graph);
                assert_eq!(a.system.graph(), b.system.graph());
                assert_eq!(a.system.distances(), b.system.distances());
            }
            for (a, b) in fresh.coarsenings().iter().zip(cached.coarsenings()) {
                assert_eq!(a.cluster_map, b.cluster_map);
                assert_eq!(a.internalized_weight, b.internalized_weight);
                assert_eq!(a.proc_map(), b.proc_map());
                assert_eq!(a.groups(), b.groups());
            }
        }
    }

    #[test]
    fn images_and_members_compose_the_proc_maps() {
        let system = mesh2d(4, 4).unwrap();
        let sys = SystemHierarchy::build(&system).unwrap();
        assert_eq!(sys.image_at(0), (0..16).collect::<Vec<_>>());
        for level in 0..sys.depth() {
            let image = sys.image_at(level);
            let members = sys.members_at(level);
            assert_eq!(members.len(), sys.systems()[level].len());
            // Every finest processor appears in exactly the member list
            // of its image.
            for (s, &g) in image.iter().enumerate() {
                assert!(members[g].contains(&s));
            }
            let total: usize = members.iter().map(Vec::len).sum();
            assert_eq!(total, 16);
        }
    }
}
