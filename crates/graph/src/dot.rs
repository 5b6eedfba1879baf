//! Graphviz DOT export for the crate's graph types — handy for inspecting
//! generated problem graphs and system topologies while debugging or
//! documenting experiments (the paper communicates everything through
//! such pictures: Figs 2–8).

use std::fmt::Write as _;

use crate::csr::Csr;
use crate::{NodeId, Weight};

/// Render nodes `0..n` and `(from, to, weight)` edges as a DOT `digraph`
/// with edge weights as labels and optional node labels (e.g. `"3 (w=2)"`
/// for task 3 of weight 2); `node_label(v)` of `None` shows the index.
pub fn digraph_to_dot<F>(
    n: usize,
    edges: impl IntoIterator<Item = (NodeId, NodeId, Weight)>,
    name: &str,
    mut node_label: F,
) -> String
where
    F: FnMut(usize) -> Option<String>,
{
    let mut out = String::new();
    let _ = writeln!(out, "digraph {name} {{");
    let _ = writeln!(out, "  rankdir=TB;");
    for v in 0..n {
        let label = node_label(v).unwrap_or_else(|| v.to_string());
        let _ = writeln!(out, "  n{v} [label=\"{label}\"];");
    }
    for (u, v, w) in edges {
        let _ = writeln!(out, "  n{u} -> n{v} [label=\"{w}\"];");
    }
    out.push_str("}\n");
    out
}

/// Render an undirected graph as a DOT `graph` (edge weights are not
/// drawn: a system graph's links are all alike).
pub fn ungraph_to_dot(g: &Csr, name: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "graph {name} {{");
    for v in 0..g.node_count() {
        let _ = writeln!(out, "  n{v} [label=\"{v}\"];");
    }
    for (u, v, _) in g.edges() {
        let _ = writeln!(out, "  n{u} -- n{v};");
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digraph_dot_contains_edges_and_labels() {
        let dot = digraph_to_dot(2, [(0, 1, 7)], "tasks", |v| Some(format!("T{v}")));
        assert!(dot.starts_with("digraph tasks {"));
        assert!(dot.contains("n0 -> n1 [label=\"7\"]"));
        assert!(dot.contains("label=\"T0\""));
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn digraph_dot_default_labels() {
        let dot = digraph_to_dot(1, [], "g", |_| None);
        assert!(dot.contains("label=\"0\""));
    }

    #[test]
    fn ungraph_dot_uses_undirected_edges() {
        let g = Csr::from_contributions(3, &[(2, 0, 1)]);
        let dot = ungraph_to_dot(&g, "sys");
        assert!(dot.starts_with("graph sys {"));
        assert!(dot.contains("n0 -- n2;"));
        assert!(!dot.contains("->"));
    }
}
