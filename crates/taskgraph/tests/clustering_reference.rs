//! Differential tests of the merge-based clustering front-ends against
//! the implementations they replaced, kept here verbatim as references:
//! Sarkar's per-edge parallel-time test with its pair-aggregation and
//! splitting phases, and comm_greedy's per-merge rebuild of every
//! cluster pair. Random DAGs over every `na` (edgeless and disconnected
//! ones included, which reach the fallbacks) must give equal clusterings.
//! The region front-end is checked against its reference the same way,
//! down to the words it leaves in the caller's generator, plus a
//! property: every region fits the `ceil(np / na)` target, so no task
//! is ever left over.

use mimd_taskgraph::clustering::comm_greedy::comm_greedy_clustering;
use mimd_taskgraph::clustering::region::random_region_clustering;
use mimd_taskgraph::clustering::sarkar::sarkar_clustering;
use mimd_taskgraph::ProblemGraph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `sarkar_clustering` as it was with a parallel-time merge test.
mod sarkar_reference {
    use std::collections::HashMap;

    use mimd_graph::error::GraphError;
    use mimd_graph::{Time, Weight};

    use mimd_taskgraph::clustering::Clustering;
    use mimd_taskgraph::problem::ProblemGraph;

    /// Parallel time of `problem` under a raw cluster assignment (edges
    /// inside one cluster cost zero).
    fn parallel_time(problem: &ProblemGraph, cluster_of: &[usize]) -> Time {
        let rows = problem.graph();
        let inside = |u: usize, v: usize| cluster_of[rows.task(u)] == cluster_of[rows.task(v)];
        rows.longest_path(|u, v, w| if inside(u, v) { 0 } else { w })
    }

    /// Edge-zeroing clustering into exactly `na` clusters.
    pub fn sarkar_clustering(problem: &ProblemGraph, na: usize) -> Result<Clustering, GraphError> {
        let np = problem.len();
        if na == 0 || na > np {
            return Err(GraphError::InvalidParameter(format!(
                "need 1 <= na <= np, got na={na}, np={np}"
            )));
        }
        // Phase 1: Sarkar's edge zeroing over singleton clusters.
        let mut cluster_of: Vec<usize> = (0..np).collect();
        let mut edges: Vec<(usize, usize, Weight)> = problem.edges().collect();
        edges.sort_by_key(|&(u, v, w)| (std::cmp::Reverse(w), u, v));
        let mut best_time = parallel_time(problem, &cluster_of);
        let mut clusters = np;
        for (u, v, _) in edges {
            let (cu, cv) = (cluster_of[u], cluster_of[v]);
            if cu == cv || clusters <= na {
                continue;
            }
            // Tentatively merge cv into cu.
            let saved: Vec<usize> = cluster_of
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c == cv)
                .map(|(t, _)| t)
                .collect();
            for &t in &saved {
                cluster_of[t] = cu;
            }
            let t = parallel_time(problem, &cluster_of);
            if t <= best_time {
                best_time = t;
                clusters -= 1;
            } else {
                for &t in &saved {
                    cluster_of[t] = cv;
                }
            }
        }

        // Phase 2a: still too many clusters — merge the pair with the
        // heaviest remaining inter-cluster weight (smallest-size tie-break),
        // falling back to the two smallest clusters when nothing
        // communicates.
        while clusters > na {
            let mut agg: HashMap<(usize, usize), Weight> = HashMap::new();
            for (u, v, w) in problem.edges() {
                let (a, b) = (cluster_of[u], cluster_of[v]);
                if a != b {
                    *agg.entry((a.min(b), a.max(b))).or_insert(0) += w;
                }
            }
            let pair = agg
                .iter()
                .max_by_key(|&(&(a, b), &w)| (w, std::cmp::Reverse((a, b))))
                .map(|(&k, _)| k)
                .unwrap_or_else(|| {
                    // No communicating pairs: merge the two smallest.
                    let mut sizes: HashMap<usize, usize> = HashMap::new();
                    for &c in &cluster_of {
                        *sizes.entry(c).or_insert(0) += 1;
                    }
                    let mut ids: Vec<(usize, usize)> =
                        sizes.into_iter().map(|(c, n)| (n, c)).collect();
                    ids.sort_unstable();
                    (ids[0].1.min(ids[1].1), ids[0].1.max(ids[1].1))
                });
            for c in cluster_of.iter_mut() {
                if *c == pair.1 {
                    *c = pair.0;
                }
            }
            clusters -= 1;
        }

        // Phase 2b: too few clusters (heavy zeroing collapsed everything) —
        // split the largest clusters one task at a time.
        while clusters < na {
            let mut sizes: HashMap<usize, usize> = HashMap::new();
            for &c in &cluster_of {
                *sizes.entry(c).or_insert(0) += 1;
            }
            let (&largest, _) = sizes
                .iter()
                .max_by_key(|&(&c, &n)| (n, std::cmp::Reverse(c)))
                .expect("at least one cluster");
            let fresh = np + clusters; // any unused id; compacted below
            let victim = cluster_of
                .iter()
                .rposition(|&c| c == largest)
                .expect("largest cluster is non-empty");
            cluster_of[victim] = fresh;
            clusters += 1;
        }

        // Compact ids to 0..na.
        let mut remap: HashMap<usize, usize> = HashMap::new();
        for c in cluster_of.iter_mut() {
            let next = remap.len();
            *c = *remap.entry(*c).or_insert(next);
        }
        Clustering::new(cluster_of)
    }
}

/// `comm_greedy_clustering` as it was with a per-merge pair rebuild.
mod comm_greedy_reference {
    use std::collections::HashMap;

    use mimd_graph::error::GraphError;
    use mimd_graph::Weight;

    use mimd_taskgraph::clustering::Clustering;
    use mimd_taskgraph::problem::ProblemGraph;

    /// Merge-heaviest-edge clustering into `na` clusters.
    ///
    /// `balance_factor` caps cluster size at
    /// `ceil(balance_factor * np / na)` tasks (use e.g. `1.5`); values
    /// `< 1.0` are rejected since they make `na` clusters unreachable.
    pub fn comm_greedy_clustering(
        problem: &ProblemGraph,
        na: usize,
        balance_factor: f64,
    ) -> Result<Clustering, GraphError> {
        let np = problem.len();
        if na == 0 || na > np {
            return Err(GraphError::InvalidParameter(format!(
                "need 1 <= na <= np, got na={na}, np={np}"
            )));
        }
        if balance_factor < 1.0 {
            return Err(GraphError::InvalidParameter(format!(
                "balance_factor {balance_factor} must be >= 1.0"
            )));
        }
        let cap = ((balance_factor * np as f64 / na as f64).ceil() as usize).max(1);

        // Union-find over tasks; roots represent clusters.
        let mut parent: Vec<usize> = (0..np).collect();
        let mut size: Vec<usize> = vec![1; np];
        fn find(parent: &mut [usize], x: usize) -> usize {
            let mut r = x;
            while parent[r] != r {
                r = parent[r];
            }
            let mut c = x;
            while parent[c] != r {
                let next = parent[c];
                parent[c] = r;
                c = next;
            }
            r
        }

        let mut clusters = np;
        while clusters > na {
            // Aggregate inter-cluster weights, then merge the heaviest pair
            // that respects the cap. Rebuilding per round is O(E) and np is
            // paper-scale; total O(np·E).
            let mut agg: HashMap<(usize, usize), Weight> = HashMap::new();
            for (u, v, w) in problem.edges() {
                let (ru, rv) = (find(&mut parent, u), find(&mut parent, v));
                if ru != rv {
                    let key = (ru.min(rv), ru.max(rv));
                    *agg.entry(key).or_insert(0) += w;
                }
            }
            let candidate = agg
                .iter()
                .filter(|&(&(a, b), _)| size[a] + size[b] <= cap)
                .max_by_key(|&(&(a, b), &w)| (w, std::cmp::Reverse((a, b))))
                .map(|(&k, _)| k);
            let (a, b) = match candidate {
                Some(pair) => pair,
                None => {
                    // No joinable communicating pair: merge the two smallest
                    // clusters under the cap; if even that fails, merge the
                    // two smallest outright (guarantees termination).
                    let mut roots: Vec<usize> =
                        (0..np).filter(|&x| find(&mut parent, x) == x).collect();
                    roots.sort_by_key(|&r| (size[r], r));
                    (roots[0], roots[1])
                }
            };
            parent[b] = a;
            size[a] += size[b];
            clusters -= 1;
        }

        // Compact root ids to 0..na.
        let mut id_of_root: HashMap<usize, usize> = HashMap::new();
        let mut cluster_of = vec![0usize; np];
        for (t, cluster) in cluster_of.iter_mut().enumerate() {
            let r = find(&mut parent, t);
            let next = id_of_root.len();
            *cluster = *id_of_root.entry(r).or_insert(next);
        }
        Clustering::new(cluster_of)
    }
}

/// `random_region_clustering` as it was, finding each task it removes
/// from the unassigned list by a linear search.
mod region_reference {
    use rand::Rng;

    use mimd_graph::error::GraphError;

    use mimd_taskgraph::clustering::Clustering;
    use mimd_taskgraph::problem::ProblemGraph;
    use mimd_taskgraph::TaskId;

    /// Randomly grown regions of at most `ceil(np / na)` tasks.
    pub fn random_region_clustering(
        problem: &ProblemGraph,
        na: usize,
        rng: &mut impl Rng,
    ) -> Result<Clustering, GraphError> {
        let np = problem.len();
        if na == 0 || na > np {
            return Err(GraphError::InvalidParameter(format!(
                "need 1 <= na <= np, got na={na}, np={np}"
            )));
        }
        // Undirected neighbors, read from the rows in the order of the
        // edges `(from, to)`: predecessors below `t`, successors, then
        // predecessors above `t`.
        let adj = |t: TaskId| {
            let preds = problem.predecessors(t).map(|(u, _)| u);
            let succs = problem.successors(t).map(|(v, _)| v);
            (preds.clone().filter(move |&u| u < t))
                .chain(succs)
                .chain(preds.filter(move |&u| u > t))
        };
        let target = np.div_ceil(na);
        let mut cluster_of = vec![usize::MAX; np];
        let mut unassigned: Vec<TaskId> = (0..np).collect();
        let remove_unassigned = |unassigned: &mut Vec<TaskId>, t: TaskId| {
            let pos = unassigned.iter().position(|&x| x == t).expect("present");
            unassigned.swap_remove(pos);
        };

        for c in 0..na {
            // Leave enough tasks for the remaining clusters to be non-empty.
            let remaining_clusters = na - c - 1;
            let budget = target.min(unassigned.len() - remaining_clusters);
            // Seed.
            let seed = unassigned[rng.gen_range(0..unassigned.len())];
            cluster_of[seed] = c;
            remove_unassigned(&mut unassigned, seed);
            let mut frontier: Vec<TaskId> =
                adj(seed).filter(|&t| cluster_of[t] == usize::MAX).collect();
            let mut size = 1;
            while size < budget && !unassigned.is_empty() {
                frontier.retain(|&t| cluster_of[t] == usize::MAX);
                let next = if frontier.is_empty() {
                    // Region is boxed in: jump to a fresh random seed.
                    unassigned[rng.gen_range(0..unassigned.len())]
                } else {
                    frontier[rng.gen_range(0..frontier.len())]
                };
                cluster_of[next] = c;
                remove_unassigned(&mut unassigned, next);
                size += 1;
                frontier.extend(adj(next).filter(|&t| cluster_of[t] == usize::MAX));
            }
        }
        Clustering::new(cluster_of)
    }
}

const DENSITIES: [f64; 5] = [0.0, 0.02, 0.05, 0.1, 0.3];

/// A random DAG on `np` tasks: each pair of a random topological order
/// is an edge with probability `density`. Small weights make ties.
fn random_dag(np: usize, density: f64, rng: &mut StdRng) -> ProblemGraph {
    let mut order: Vec<usize> = (0..np).collect();
    for i in (1..np).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    let sizes = (0..np).map(|_| rng.gen_range(1..10)).collect();
    let mut edges = Vec::new();
    for i in 0..np {
        for j in i + 1..np {
            if rng.gen_bool(density) {
                edges.push((order[i], order[j], rng.gen_range(1..6)));
            }
        }
    }
    ProblemGraph::new(sizes, &edges).unwrap()
}

/// Every density at 1..=4 tasks, then each density in turn at a random
/// 5..40 tasks: 52 graphs, each at every `na`.
#[test]
fn merge_front_ends_match_their_references() {
    let mut rng = StdRng::seed_from_u64(39);
    for i in 0..52 {
        let np = if i < 20 {
            1 + i / 5
        } else {
            rng.gen_range(5..40)
        };
        let density = DENSITIES[i % DENSITIES.len()];
        let p = random_dag(np, density, &mut rng);
        for na in 1..=np {
            assert_eq!(
                sarkar_clustering(&p, na).unwrap(),
                sarkar_reference::sarkar_clustering(&p, na).unwrap(),
                "sarkar np={np} density={density} na={na}"
            );
            for balance in [1.0, 1.5, 2.0, 8.0] {
                assert_eq!(
                    comm_greedy_clustering(&p, na, balance).unwrap(),
                    comm_greedy_reference::comm_greedy_clustering(&p, na, balance).unwrap(),
                    "comm_greedy np={np} density={density} na={na} balance={balance}"
                );
            }
        }
    }
}

#[test]
fn regions_fill_every_cluster_within_the_target() {
    let mut rng = StdRng::seed_from_u64(40);
    for np in 1..40 {
        for density in DENSITIES {
            let p = random_dag(np, density, &mut rng);
            for na in 1..=np {
                let c = random_region_clustering(&p, na, &mut rng).unwrap();
                assert_eq!(c.num_clusters(), na, "np={np} na={na}");
                assert!(c.max_cluster_size() <= np.div_ceil(na), "np={np} na={na}");
            }
        }
    }
}

/// Every `(np, na)` up to 40 tasks, each at every density and over
/// three seeds: equal clusterings, and the generator left in the same
/// state.
#[test]
fn regions_match_their_reference() {
    let mut rng = StdRng::seed_from_u64(41);
    for np in 1..=40 {
        for density in DENSITIES {
            let p = random_dag(np, density, &mut rng);
            for na in 1..=np {
                for seed in 0..3 {
                    let mut ours = StdRng::seed_from_u64(seed);
                    let mut theirs = ours.clone();
                    assert_eq!(
                        random_region_clustering(&p, na, &mut ours).unwrap(),
                        region_reference::random_region_clustering(&p, na, &mut theirs).unwrap(),
                        "np={np} density={density} na={na} seed={seed}"
                    );
                    assert_eq!(
                        ours, theirs,
                        "np={np} density={density} na={na} seed={seed}"
                    );
                }
            }
        }
    }
}
