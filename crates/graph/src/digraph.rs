//! Directed graphs with positive integer edge weights.
//!
//! A [`WeightedDigraph`] models the paper's *problem graph*, *clustered
//! problem graph* and *ideal graph*: a set of tasks (nodes) and directed
//! communication edges whose weight is the message transfer time in time
//! units. The weight matrix convention follows the paper exactly — entry
//! `(i, j) > 0` means "edge from i to j with that weight", `0` means
//! "no edge".
//!
//! The graph is frozen: [`WeightedDigraph::from_edges`] builds it once
//! from an edge list into flat rows, one per direction, and nothing
//! changes it afterwards (the mapper never edits the program it maps).

use serde::{DeError, Deserialize, Serialize, Value};

use crate::error::GraphError;
use crate::matrix::SquareMatrix;
use crate::{NodeId, Weight};

/// A directed graph with positive edge weights, stored as two CSR
/// adjacencies (successor rows and predecessor rows, each ascending by
/// node id) and reconstructible as the paper's dense weight matrix (via
/// [`WeightedDigraph::to_matrix`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WeightedDigraph {
    /// `succ_off[u]..succ_off[u + 1]` is `u`'s row of `succ`: every
    /// `(v, w)` with an edge `u -> v` of weight `w`.
    succ_off: Vec<usize>,
    succ: Vec<(NodeId, Weight)>,
    /// `pred_off[v]..pred_off[v + 1]` is `v`'s row of `pred`: every
    /// `(u, w)` with an edge `u -> v` of weight `w`.
    pred_off: Vec<usize>,
    pred: Vec<(NodeId, Weight)>,
}

impl WeightedDigraph {
    /// Build the graph on `n` nodes from `edges` `(from, to, weight)`
    /// in any order. Every edge is validated in input order (endpoints
    /// in `0..n`, no self-loop, positive weight — zero encodes absence
    /// in the paper's matrices); an edge listed twice is refused.
    /// `O(n + E + Σ deg·log deg)`.
    pub fn from_edges(n: usize, edges: &[(NodeId, NodeId, Weight)]) -> Result<Self, GraphError> {
        let mut succ_off = vec![0usize; n + 1];
        let mut pred_off = vec![0usize; n + 1];
        for &(from, to, w) in edges {
            check_edge(n, from, to, w)?;
            succ_off[from + 1] += 1;
            pred_off[to + 1] += 1;
        }
        for u in 0..n {
            succ_off[u + 1] += succ_off[u];
            pred_off[u + 1] += pred_off[u];
        }
        // Bucket by `from`, then sort each row by `to`.
        let mut succ = vec![(0, 0); edges.len()];
        let mut cursor = succ_off[..n].to_vec();
        for &(from, to, w) in edges {
            succ[cursor[from]] = (to, w);
            cursor[from] += 1;
        }
        for u in 0..n {
            let row = &mut succ[succ_off[u]..succ_off[u + 1]];
            row.sort_unstable_by_key(|&(v, _)| v);
            if let Some(twice) = row.windows(2).find(|pair| pair[0].0 == pair[1].0) {
                return Err(GraphError::InvalidParameter(format!(
                    "edge ({u},{}) is listed twice",
                    twice[0].0
                )));
            }
        }
        // Walking the rows by ascending `from` fills every predecessor
        // row in ascending order.
        let mut pred = vec![(0, 0); edges.len()];
        cursor.copy_from_slice(&pred_off[..n]);
        for u in 0..n {
            for &(v, w) in &succ[succ_off[u]..succ_off[u + 1]] {
                pred[cursor[v]] = (u, w);
                cursor[v] += 1;
            }
        }
        Ok(WeightedDigraph {
            succ_off,
            succ,
            pred_off,
            pred,
        })
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.succ_off.len() - 1
    }

    /// Number of directed edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.succ.len()
    }

    /// Weight of the edge `from -> to`, or `None` if absent.
    #[inline]
    pub fn weight(&self, from: NodeId, to: NodeId) -> Option<Weight> {
        let row = self.successors(from);
        let k = row.binary_search_by_key(&to, |&(v, _)| v).ok()?;
        Some(row[k].1)
    }

    /// `true` iff the edge `from -> to` exists.
    #[inline]
    pub fn has_edge(&self, from: NodeId, to: NodeId) -> bool {
        self.weight(from, to).is_some()
    }

    /// Successors of `u` with weights, sorted by node id.
    #[inline]
    pub fn successors(&self, u: NodeId) -> &[(NodeId, Weight)] {
        &self.succ[self.succ_off[u]..self.succ_off[u + 1]]
    }

    /// Predecessors of `v` with weights, sorted by node id.
    ///
    /// This is the paper's "scan column `v` of `prob_edge`" operation.
    #[inline]
    pub fn predecessors(&self, v: NodeId) -> &[(NodeId, Weight)] {
        &self.pred[self.pred_off[v]..self.pred_off[v + 1]]
    }

    /// Out-degree of `u`.
    #[inline]
    pub fn out_degree(&self, u: NodeId) -> usize {
        self.succ_off[u + 1] - self.succ_off[u]
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: NodeId) -> usize {
        self.pred_off[v + 1] - self.pred_off[v]
    }

    /// Total degree (in + out) of `u` — the paper compares problem-node
    /// degrees against system-node degrees (its Bokhari discussion).
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        self.in_degree(u) + self.out_degree(u)
    }

    /// Iterate over all edges as `(from, to, weight)`, ascending by
    /// `(from, to)`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, Weight)> + '_ {
        (0..self.node_count())
            .flat_map(move |u| self.successors(u).iter().map(move |&(v, w)| (u, v, w)))
    }

    /// Sum of all edge weights.
    pub fn total_edge_weight(&self) -> Weight {
        self.succ.iter().map(|&(_, w)| w).sum()
    }

    /// Convert to the paper's dense weight matrix (0 = no edge).
    pub fn to_matrix(&self) -> SquareMatrix<Weight> {
        let mut m = SquareMatrix::new(self.node_count());
        for (u, v, w) in self.edges() {
            m.set(u, v, w);
        }
        m
    }
}

/// What every stored edge must satisfy: endpoints in `0..n`, no
/// self-loop, positive weight.
#[inline]
fn check_edge(n: usize, from: NodeId, to: NodeId, w: Weight) -> Result<(), GraphError> {
    for node in [from, to] {
        if node >= n {
            return Err(GraphError::NodeOutOfRange { node, len: n });
        }
    }
    if from == to {
        return Err(GraphError::SelfLoop(from));
    }
    if w == 0 {
        return Err(GraphError::ZeroWeight { from, to });
    }
    Ok(())
}

/// The JSON form `{n, succs, preds, edge_count}`: both row lists in full,
/// as files written before the graph was frozen spell it.
impl Serialize for WeightedDigraph {
    fn to_value(&self) -> Value {
        let rows = |offsets: &[usize], flat: &[(NodeId, Weight)]| {
            let row = |bounds: &[usize]| flat[bounds[0]..bounds[1]].to_value();
            Value::Arr(offsets.windows(2).map(row).collect())
        };
        Value::Obj(vec![
            ("n".into(), self.node_count().to_value()),
            ("succs".into(), rows(&self.succ_off, &self.succ)),
            ("preds".into(), rows(&self.pred_off, &self.pred)),
            ("edge_count".into(), self.edge_count().to_value()),
        ])
    }
}

/// Rebuilds the graph from `succs` through [`WeightedDigraph::from_edges`]
/// and refuses `preds` or `edge_count` that do not describe those edges.
impl Deserialize for WeightedDigraph {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let obj = v.as_obj().ok_or_else(|| DeError::expected("object", v))?;
        let n: usize = serde::field(obj, "n")?;
        let succs: Vec<Vec<(NodeId, Weight)>> = serde::field(obj, "succs")?;
        let preds: Vec<Vec<(NodeId, Weight)>> = serde::field(obj, "preds")?;
        let edge_count: usize = serde::field(obj, "edge_count")?;
        if succs.len() != n {
            return Err(DeError(format!(
                "succs: {} rows for {n} nodes",
                succs.len()
            )));
        }
        let edges: Vec<_> = (0..n)
            .flat_map(|u| succs[u].iter().map(move |&(v, w)| (u, v, w)))
            .collect();
        let g = WeightedDigraph::from_edges(n, &edges).map_err(|e| DeError(e.to_string()))?;
        if edge_count != g.edge_count() {
            return Err(DeError(format!(
                "edge_count {edge_count}, but succs lists {} edges",
                g.edge_count()
            )));
        }
        if preds.len() != n || (0..n).any(|v| preds[v] != g.predecessors(v)) {
            return Err(DeError("preds do not mirror succs".into()));
        }
        Ok(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> WeightedDigraph {
        // 0 -> 1 -> 3, 0 -> 2 -> 3, listed out of order.
        WeightedDigraph::from_edges(4, &[(2, 3, 5), (0, 2, 3), (1, 3, 4), (0, 1, 2)]).unwrap()
    }

    #[test]
    fn add_and_query_edges() {
        let g = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.weight(0, 1), Some(2));
        assert_eq!(g.weight(1, 0), None);
        assert!(g.has_edge(2, 3));
        assert!(!g.has_edge(3, 2));
    }

    #[test]
    fn rejects_invalid_edges() {
        let build =
            |edges: &[(NodeId, NodeId, Weight)]| WeightedDigraph::from_edges(3, edges).unwrap_err();
        assert_eq!(
            build(&[(0, 3, 1)]),
            GraphError::NodeOutOfRange { node: 3, len: 3 }
        );
        assert_eq!(build(&[(1, 1, 1)]), GraphError::SelfLoop(1));
        assert_eq!(
            build(&[(0, 1, 0)]),
            GraphError::ZeroWeight { from: 0, to: 1 }
        );
        // The first invalid edge in input order is the one reported,
        // ahead of any duplicate.
        assert_eq!(
            build(&[(0, 1, 1), (0, 1, 2), (2, 2, 1), (0, 5, 1)]),
            GraphError::SelfLoop(2)
        );
        match build(&[(0, 2, 1), (0, 1, 1), (0, 2, 4)]) {
            GraphError::InvalidParameter(msg) => assert!(msg.contains("(0,2)"), "{msg}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn from_edges_refuses_a_repeated_edge_in_any_order() {
        let build = |edges: &[(NodeId, NodeId, Weight)]| WeightedDigraph::from_edges(3, edges);
        // Disorder is no error: descending `to` or `from` builds the graph.
        for disorder in [[(0, 2, 1), (0, 1, 1)], [(1, 2, 1), (0, 1, 1)]] {
            let g = build(&disorder).unwrap();
            assert_eq!(g.edge_count(), 2);
        }
        // A repeated edge is refused whether its copies are adjacent or not,
        // and whatever weights they carry.
        for twice in [
            vec![(0, 1, 1), (0, 1, 2)],
            vec![(0, 1, 1), (1, 2, 1), (0, 1, 1)],
        ] {
            match build(&twice).unwrap_err() {
                GraphError::InvalidParameter(msg) => assert!(msg.contains("(0,1)"), "{msg}"),
                other => panic!("{twice:?}: {other:?}"),
            }
        }
        // An out-of-range `from` is reported, not indexed.
        assert_eq!(
            build(&[(0, 1, 1), (3, 1, 1)]).unwrap_err(),
            GraphError::NodeOutOfRange { node: 3, len: 3 }
        );
        // An invalid edge is reported ahead of a repeat listed before it.
        assert_eq!(
            build(&[(0, 2, 1), (0, 2, 1), (0, 0, 1)]).unwrap_err(),
            GraphError::SelfLoop(0)
        );
    }

    #[test]
    fn any_edge_order_builds_the_same_graph() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..40 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(0..24usize);
            // Forward edges only (u < v): a DAG, listed in sorted order.
            let mut edges = Vec::new();
            for u in 0..n {
                for v in (u + 1)..n {
                    if rng.gen_range(0..4) == 0 {
                        edges.push((u, v, rng.gen_range(1..=9)));
                    }
                }
            }
            let sorted = WeightedDigraph::from_edges(n, &edges).unwrap();
            assert_eq!(sorted.edges().collect::<Vec<_>>(), edges, "seed {seed}");
            for i in (1..edges.len()).rev() {
                edges.swap(i, rng.gen_range(0..=i));
            }
            let shuffled = WeightedDigraph::from_edges(n, &edges).unwrap();
            assert_eq!(shuffled, sorted, "seed {seed}");
            for v in 0..n {
                let mut column: Vec<_> = edges
                    .iter()
                    .filter(|e| e.1 == v)
                    .map(|&(u, _, w)| (u, w))
                    .collect();
                column.sort_unstable();
                assert_eq!(sorted.predecessors(v), column);
            }
        }
    }

    #[test]
    fn degrees_and_neighbors() {
        let g = diamond();
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.in_degree(3), 2);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.successors(0), &[(1, 2), (2, 3)]);
        assert_eq!(g.predecessors(3), &[(1, 4), (2, 5)]);
        assert!(g.predecessors(0).is_empty() && g.successors(3).is_empty());
        assert_eq!(g.total_edge_weight(), 2 + 3 + 4 + 5);
    }

    #[test]
    fn matrix_roundtrip() {
        let g = diamond();
        let m = g.to_matrix();
        assert_eq!(m.get(0, 2), 3);
        assert_eq!(m.get(2, 0), 0);
        assert_eq!(m.count_nonzero(), 4);
        let entries: Vec<_> = (0..4)
            .flat_map(|i| (0..4).map(move |j| (i, j)))
            .filter(|&(i, j)| m.get(i, j) > 0)
            .map(|(i, j)| (i, j, m.get(i, j)))
            .collect();
        assert_eq!(WeightedDigraph::from_edges(4, &entries).unwrap(), g);
    }

    #[test]
    fn sources_sinks_incident_weight() {
        let g = diamond();
        let sources: Vec<_> = (0..4).filter(|&v| g.in_degree(v) == 0).collect();
        let sinks: Vec<_> = (0..4).filter(|&u| g.out_degree(u) == 0).collect();
        assert_eq!((sources, sinks), (vec![0], vec![3]));
        let incident = |u| -> Weight {
            let rows = g.successors(u).iter().chain(g.predecessors(u));
            rows.map(|&(_, w)| w).sum()
        };
        assert_eq!(incident(1), 2 + 4);
    }

    #[test]
    fn edges_iterates_all() {
        let es: Vec<_> = diamond().edges().collect();
        assert_eq!(es, vec![(0, 1, 2), (0, 2, 3), (1, 3, 4), (2, 3, 5)]);
    }

    #[test]
    fn json_keeps_both_row_lists_and_refuses_inconsistent_ones() {
        let g = diamond();
        let value = g.to_value();
        let keys: Vec<_> = value
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["n", "succs", "preds", "edge_count"]);
        assert_eq!(WeightedDigraph::from_value(&value).unwrap(), g);
        let with = |key: &str, field: Value| {
            let mut obj = value.as_obj().unwrap().to_vec();
            obj.iter_mut().find(|(k, _)| k == key).unwrap().1 = field;
            WeightedDigraph::from_value(&Value::Obj(obj)).unwrap_err().0
        };
        // A back edge in `succs` only, so `preds` no longer mirror it.
        let mut succs: Vec<Vec<(NodeId, Weight)>> =
            (0..4).map(|u| g.successors(u).to_vec()).collect();
        succs[3].push((0, 1));
        assert!(with("succs", succs.to_value()).contains("edge_count"));
        assert!(with("edge_count", 5usize.to_value()).contains("edge_count"));
        let preds: Vec<Vec<(NodeId, Weight)>> = vec![vec![]; 4];
        assert!(with("preds", preds.to_value()).contains("preds"));
        assert!(with("n", 9usize.to_value()).contains("rows"));
        succs[3] = vec![(3, 1)];
        assert!(with("succs", succs.to_value()).contains("self-loop"));
    }
}
