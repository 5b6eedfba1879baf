//! The greedy initial assignment (§4.3.2).
//!
//! "The basic idea ... is to map the critical edges to neighboring
//! system nodes or at least as close as possible." Three phases:
//!
//! 1. Seed: the cluster with the greatest *critical degree* goes on the
//!    processor with the greatest degree.
//! 2. Grow the critical subgraph: repeatedly take the unvisited cluster
//!    with the greatest critical degree that is critically adjacent to an
//!    already-placed cluster and put it on an unvisited processor
//!    adjacent to that cluster's host (preferring high degree); if no
//!    adjacent processor is free, the closest free one.
//! 3. Place the remaining clusters the same way, ranked by communication
//!    intensity (`mca`) and abstract adjacency.
//!
//! Ties break to the lowest id ("select any qualifying node
//! arbitrarily"); when the critical/abstract subgraph is disconnected and
//! no unvisited cluster neighbours a visited one, we fall back to the
//! best-ranked unvisited cluster seeded like step 1 (a case the paper
//! leaves open; the `ablation_initial` binary measures this stage
//! against refinement). Clusters placed via steps 1 and 2(b) — i.e. whose
//! critical edges landed on single system links — are marked **critical
//! abstract nodes** (§2.1 term 5) and stay pinned during refinement.

use serde::{Deserialize, Serialize};

use mimd_graph::error::GraphError;
use mimd_taskgraph::{AbstractGraph, ClusterId, ClusteredProblemGraph};
use mimd_topology::SystemGraph;

use crate::assignment::Assignment;
use crate::critical::CriticalAnalysis;

/// An initial assignment plus the critical-abstract-node marks that the
/// refinement phase preserves.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct InitialAssignment {
    /// The constructed placement.
    pub assignment: Assignment,
    /// `critical[a]` — cluster `a` was placed so that a critical abstract
    /// edge maps onto a single system edge; refinement must not move it.
    pub critical: Vec<bool>,
}

/// Run §4.3.2 on a clustered problem graph, its critical analysis and a
/// system graph. Requires `na == ns`.
pub fn initial_assignment(
    graph: &ClusteredProblemGraph,
    abstract_graph: &AbstractGraph,
    critical: &CriticalAnalysis,
    system: &SystemGraph,
) -> Result<InitialAssignment, GraphError> {
    let na = graph.num_clusters();
    if na != system.len() {
        return Err(GraphError::SizeMismatch {
            left: na,
            right: system.len(),
        });
    }

    let mut sys_of = vec![usize::MAX; na];
    let mut visited_abs = vec![false; na];
    let mut visited_sys = vec![false; na];
    let mut critical_mark = vec![false; na];

    // --- Step 1: seed. -------------------------------------------------
    let seed_sys = (0..na)
        .max_by_key(|&s| (system.degree(s), std::cmp::Reverse(s)))
        .expect("na >= 1");
    let seed_abs = (0..na)
        .max_by_key(|&a| (critical.critical_degree(a), std::cmp::Reverse(a)))
        .expect("na >= 1");
    sys_of[seed_abs] = seed_sys;
    visited_abs[seed_abs] = true;
    visited_sys[seed_sys] = true;
    critical_mark[seed_abs] = true;

    // Placement score used to resolve the paper's "select any qualifying
    // node arbitrarily" ties: the weighted distance from candidate
    // processor `s` to every already-placed cluster `va` communicates
    // with (critical abstract edges count on top of the abstract edge
    // they are part of). Lower is better — it pulls the cluster toward
    // its placed communication partners without changing the algorithm's
    // structure.
    let placement_score = |s: usize, va: ClusterId, sys_of: &[usize]| -> u64 {
        critical
            .critical_abstract_row(va)
            .chain(abstract_graph.row(va))
            .filter(|&(b, _)| sys_of[b] != usize::MAX)
            .map(|(b, w)| w * u64::from(system.hops(s, sys_of[b])))
            .sum()
    };
    // Helper: best unvisited system node adjacent to `host`: maximum
    // degree first (the paper's rule), then minimum placement score,
    // then lowest id.
    let adjacent_choice =
        |host: usize, va: ClusterId, visited_sys: &[bool], sys_of: &[usize]| -> Option<usize> {
            system
                .graph()
                .neighbors(host)
                .iter()
                .copied()
                .filter(|&s| !visited_sys[s])
                .min_by_key(|&s| {
                    (
                        std::cmp::Reverse(system.degree(s)),
                        placement_score(s, va, sys_of),
                        s,
                    )
                })
        };
    // Helper: closest unvisited system node to `host` (step (c)), ties
    // by placement score then id — so only the nearest ring is scored.
    let closest_choice =
        |host: usize, va: ClusterId, visited_sys: &[bool], sys_of: &[usize]| -> usize {
            let free = || (0..na).filter(|&s| !visited_sys[s]);
            let nearest = free().map(|s| system.hops(host, s)).min();
            free()
                .filter(|&s| Some(system.hops(host, s)) == nearest)
                .min_by_key(|&s| (placement_score(s, va, sys_of), s))
                .expect("an unvisited processor exists while clusters remain")
        };

    // --- Step 2: grow along critical abstract edges. --------------------
    loop {
        // Candidate clusters: unvisited, with critical edges.
        let pending: Vec<ClusterId> = (0..na)
            .filter(|&a| !visited_abs[a] && critical.critical_degree(a) > 0)
            .collect();
        if pending.is_empty() {
            break;
        }
        // Prefer candidates critically adjacent to a visited cluster.
        let adjacent: Vec<ClusterId> = pending
            .iter()
            .copied()
            .filter(|&a| {
                critical
                    .critical_abstract_row(a)
                    .any(|(b, _)| visited_abs[b])
            })
            .collect();
        let (va, anchor) = if let Some(&va) = adjacent
            .iter()
            .max_by_key(|&&a| (critical.critical_degree(a), std::cmp::Reverse(a)))
        {
            // Anchor: the visited critical neighbor with the heaviest
            // shared critical abstract edge (tie: lowest id).
            let (anchor, _) = critical
                .critical_abstract_row(va)
                .filter(|&(b, _)| visited_abs[b])
                .max_by_key(|&(b, w)| (w, std::cmp::Reverse(b)))
                .expect("va was chosen for having a visited critical neighbor");
            (va, Some(anchor))
        } else {
            // Disconnected critical subgraph: restart like step 1.
            let va = pending
                .iter()
                .copied()
                .max_by_key(|&a| (critical.critical_degree(a), std::cmp::Reverse(a)))
                .expect("pending is non-empty");
            (va, None)
        };
        visited_abs[va] = true;
        match anchor {
            Some(anchor) => {
                let host = sys_of[anchor];
                if let Some(vs) = adjacent_choice(host, va, &visited_sys, &sys_of) {
                    // (b): critical edge lands on a single system edge.
                    sys_of[va] = vs;
                    visited_sys[vs] = true;
                    critical_mark[va] = true;
                } else {
                    // (c): as close as possible; not marked critical.
                    let vs = closest_choice(host, va, &visited_sys, &sys_of);
                    sys_of[va] = vs;
                    visited_sys[vs] = true;
                }
            }
            None => {
                let vs = (0..na)
                    .filter(|&s| !visited_sys[s])
                    .max_by_key(|&s| (system.degree(s), std::cmp::Reverse(s)))
                    .expect("an unvisited processor exists");
                sys_of[va] = vs;
                visited_sys[vs] = true;
                critical_mark[va] = true;
            }
        }
    }

    // --- Step 3: remaining clusters by communication intensity. ---------
    loop {
        let pending: Vec<ClusterId> = (0..na).filter(|&a| !visited_abs[a]).collect();
        if pending.is_empty() {
            break;
        }
        let adjacent: Vec<ClusterId> = pending
            .iter()
            .copied()
            .filter(|&a| abstract_graph.neighbors(a).iter().any(|&b| visited_abs[b]))
            .collect();
        let (va, anchor) = if let Some(&va) = adjacent
            .iter()
            .max_by_key(|&&a| (abstract_graph.mca(a), std::cmp::Reverse(a)))
        {
            let (anchor, _) = abstract_graph
                .row(va)
                .filter(|&(b, _)| visited_abs[b])
                .max_by_key(|&(b, w)| (w, std::cmp::Reverse(b)))
                .expect("va has a visited abstract neighbor");
            (va, Some(anchor))
        } else {
            let va = pending
                .iter()
                .copied()
                .max_by_key(|&a| (abstract_graph.mca(a), std::cmp::Reverse(a)))
                .expect("pending is non-empty");
            (va, None)
        };
        visited_abs[va] = true;
        let vs = match anchor {
            Some(anchor) => {
                let host = sys_of[anchor];
                adjacent_choice(host, va, &visited_sys, &sys_of)
                    .unwrap_or_else(|| closest_choice(host, va, &visited_sys, &sys_of))
            }
            None => (0..na)
                .filter(|&s| !visited_sys[s])
                .max_by_key(|&s| (system.degree(s), std::cmp::Reverse(s)))
                .expect("an unvisited processor exists"),
        };
        sys_of[va] = vs;
        visited_sys[vs] = true;
    }

    let assignment = Assignment::from_sys_of(sys_of)?;
    Ok(InitialAssignment {
        assignment,
        critical: critical_mark,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::critical::CriticalityMode;
    use crate::evaluate::evaluate_assignment;
    use crate::ideal::IdealSchedule;
    use crate::schedule::EvaluationModel;
    use mimd_taskgraph::paper;
    use mimd_topology::{chain, ring, star};

    fn pipeline(
        graph: &ClusteredProblemGraph,
        system: &SystemGraph,
    ) -> (AbstractGraph, CriticalAnalysis, InitialAssignment) {
        let ideal = IdealSchedule::derive(graph);
        let crit = CriticalAnalysis::analyze(graph, &ideal, CriticalityMode::PaperExact);
        let abs = AbstractGraph::new(graph);
        let init = initial_assignment(graph, &abs, &crit, system).unwrap();
        (abs, crit, init)
    }

    #[test]
    fn worked_example_reaches_lower_bound_like_fig24() {
        let g = paper::worked_example();
        let sys = ring(4).unwrap();
        let (_, _, init) = pipeline(&g, &sys);
        let eval =
            evaluate_assignment(&g, &sys, &init.assignment, EvaluationModel::Precedence).unwrap();
        assert_eq!(
            eval.total(),
            paper::WORKED_LOWER_BOUND,
            "§4.3.4: the initial assignment is already optimal; no refinement needed"
        );
    }

    #[test]
    fn worked_example_marks_critical_clusters() {
        let g = paper::worked_example();
        let sys = ring(4).unwrap();
        let (_, crit, init) = pipeline(&g, &sys);
        // Clusters 0, 1, 2 carry critical edges and get placed adjacent
        // on the ring; cluster 3 has none.
        for a in crit.clusters_with_critical_edges() {
            assert!(init.critical[a], "cluster {a} should be pinned");
        }
        assert!(!init.critical[3]);
    }

    #[test]
    fn assignment_is_a_bijection() {
        let g = paper::worked_example();
        for sys in [ring(4).unwrap(), chain(4).unwrap(), star(4).unwrap()] {
            let (_, _, init) = pipeline(&g, &sys);
            let mut seen = [false; 4];
            for a in 0..4 {
                let s = init.assignment.sys_of(a);
                assert!(!seen[s], "processor {s} double-assigned on {}", sys.name());
                seen[s] = true;
            }
        }
    }

    #[test]
    fn critical_edges_land_adjacent_when_marked() {
        // Whenever two pinned clusters share a critical abstract edge and
        // both were placed via step 2(b)/1, their processors are adjacent
        // (that is what the mark certifies) — validate on the ring.
        let g = paper::worked_example();
        let sys = ring(4).unwrap();
        let (_, crit, init) = pipeline(&g, &sys);
        // Seed cluster 0 hosts the heaviest critical edges to 1 and 2.
        if init.critical[0] && init.critical[2] && crit.is_critical_abstract_edge(0, 2) {
            assert!(sys.adjacent(init.assignment.sys_of(0), init.assignment.sys_of(2)));
        }
        if init.critical[0] && init.critical[1] && crit.is_critical_abstract_edge(0, 1) {
            assert!(sys.adjacent(init.assignment.sys_of(0), init.assignment.sys_of(1)));
        }
    }

    #[test]
    fn size_mismatch_rejected() {
        let g = paper::worked_example();
        let sys = ring(5).unwrap();
        let ideal = IdealSchedule::derive(&g);
        let crit = CriticalAnalysis::analyze(&g, &ideal, CriticalityMode::PaperExact);
        let abs = AbstractGraph::new(&g);
        assert!(initial_assignment(&g, &abs, &crit, &sys).is_err());
    }

    #[test]
    fn works_with_no_critical_edges() {
        use mimd_taskgraph::{Clustering, ProblemGraph};
        // Star problem: 1 feeds 2,3,4 with slack-free... make them slack:
        // weights small so nothing is tight except one edge; then cluster
        // so no cross edge is tight. Simplest: no edges at all.
        let p = ProblemGraph::from_paper_edges(&[1, 2, 3], &[]).unwrap();
        let c = Clustering::new(vec![0, 1, 2]).unwrap();
        let g = ClusteredProblemGraph::new(p, c).unwrap();
        let sys = ring(3).unwrap();
        let (_, crit, init) = pipeline(&g, &sys);
        assert!(crit.critical_edges().is_empty());
        assert_eq!(init.assignment.len(), 3);
    }
}
