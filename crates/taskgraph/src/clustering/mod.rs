//! Clustering front-ends: grouping `np` tasks into `na` clusters.
//!
//! The paper assumes "an existing technique is first applied to produce a
//! clustering from a given problem graph" (§1) and its experiments use a
//! *random clustering program* (§5). [`random`] reproduces that baseline;
//! the other modules provide better-informed front-ends referenced by the
//! paper's citations \[8–11\] in spirit: [`sarkar`] (edge-zeroing
//! internalization), [`round_robin`] (trivial
//! deterministic), [`load_balance`] (LPT-style computation balance),
//! [`comm_greedy`] (edge-contraction communication minimization) and
//! [`chains`] (linear-chain clustering à la Gaussian-elimination DAGs).
//! The `ablation_clustering` binary (`crates/experiments`) compares them.

pub mod chains;
pub mod comm_greedy;
pub mod load_balance;
pub mod random;
pub mod region;
pub mod round_robin;
pub mod sarkar;

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use serde::{Deserialize, Serialize};

use mimd_graph::error::GraphError;

use crate::{ClusterId, TaskId};

/// A partition of tasks `0..np` into clusters `0..na`, every cluster
/// non-empty (an empty cluster would waste a processor — the paper maps
/// exactly `na = ns` clusters onto `ns` processors).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Clustering {
    cluster_of: Vec<ClusterId>,
    members: Vec<Vec<TaskId>>,
}

impl Clustering {
    /// Build from a per-task cluster assignment; `na` is inferred as
    /// `max + 1`. Fails if any cluster in `0..na` is empty.
    pub fn new(cluster_of: Vec<ClusterId>) -> Result<Self, GraphError> {
        if cluster_of.is_empty() {
            return Err(GraphError::InvalidParameter(
                "clustering of zero tasks".into(),
            ));
        }
        let na = cluster_of.iter().max().copied().unwrap_or(0) + 1;
        let mut members: Vec<Vec<TaskId>> = vec![Vec::new(); na];
        for (task, &c) in cluster_of.iter().enumerate() {
            members[c].push(task);
        }
        if let Some(empty) = members.iter().position(Vec::is_empty) {
            return Err(GraphError::InvalidParameter(format!(
                "cluster {empty} is empty; every cluster must own >= 1 task"
            )));
        }
        Ok(Clustering {
            cluster_of,
            members,
        })
    }

    /// Build from the paper's `clus_pnode[na][..]` member-list form
    /// (0-based task ids). Every task `0..np` must appear exactly once.
    pub fn from_members(members: Vec<Vec<TaskId>>, np: usize) -> Result<Self, GraphError> {
        let mut cluster_of = vec![usize::MAX; np];
        for (c, tasks) in members.iter().enumerate() {
            for &t in tasks {
                if t >= np {
                    return Err(GraphError::NodeOutOfRange { node: t, len: np });
                }
                if cluster_of[t] != usize::MAX {
                    return Err(GraphError::InvalidParameter(format!(
                        "task {t} appears in two clusters"
                    )));
                }
                cluster_of[t] = c;
            }
        }
        if let Some(t) = cluster_of.iter().position(|&c| c == usize::MAX) {
            return Err(GraphError::InvalidParameter(format!("task {t} unassigned")));
        }
        Clustering::new(cluster_of)
    }

    /// Number of clusters `na`.
    #[inline]
    pub fn num_clusters(&self) -> usize {
        self.members.len()
    }

    /// Number of tasks `np`.
    #[inline]
    pub fn num_tasks(&self) -> usize {
        self.cluster_of.len()
    }

    /// Cluster owning task `t`.
    #[inline]
    pub fn cluster_of(&self, t: TaskId) -> ClusterId {
        self.cluster_of[t]
    }

    /// The per-task assignment vector.
    pub fn assignments(&self) -> &[ClusterId] {
        &self.cluster_of
    }

    /// Tasks in cluster `c`, ascending (the paper's `clus_pnode[c][..]`
    /// row).
    #[inline]
    pub fn members(&self, c: ClusterId) -> &[TaskId] {
        &self.members[c]
    }

    /// `true` iff `a` and `b` share a cluster — such problem edges lose
    /// their weight in the clustered problem graph.
    #[inline]
    pub fn same_cluster(&self, a: TaskId, b: TaskId) -> bool {
        self.cluster_of[a] == self.cluster_of[b]
    }

    /// Size of the largest cluster.
    pub fn max_cluster_size(&self) -> usize {
        self.members.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Merge clusters according to `map` (`map[c]` = the coarse cluster
    /// absorbing fine cluster `c`) — the projection step of multilevel
    /// coarsening. `map` must cover every fine cluster and its image
    /// must be the contiguous range `0..max+1` with no empty coarse
    /// cluster (guaranteed when `map` comes from a matching contraction).
    /// Task membership is conserved: every task lands in the coarse
    /// cluster its fine cluster maps to.
    pub fn coarsen(&self, map: &[ClusterId]) -> Result<Clustering, GraphError> {
        if map.len() != self.num_clusters() {
            return Err(GraphError::SizeMismatch {
                left: map.len(),
                right: self.num_clusters(),
            });
        }
        Clustering::new(self.cluster_of.iter().map(|&c| map[c]).collect())
    }
}

/// Union-find over tasks for the merge-based front-ends ([`sarkar`],
/// [`comm_greedy`]): each root is a cluster, labelled by its root task.
pub(crate) struct UnionFind {
    parent: Vec<TaskId>,
    size: Vec<usize>,
    roots: usize,
}

impl UnionFind {
    /// `n` singleton clusters.
    pub(crate) fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
            size: vec![1; n],
            roots: n,
        }
    }

    /// Root of `x`'s cluster, compressing the path walked.
    pub(crate) fn find(&mut self, x: TaskId) -> TaskId {
        let mut r = x;
        while self.parent[r] != r {
            r = self.parent[r];
        }
        let mut c = x;
        while self.parent[c] != r {
            c = std::mem::replace(&mut self.parent[c], r);
        }
        r
    }

    /// Tasks in the cluster rooted at `root`.
    pub(crate) fn size(&self, root: TaskId) -> usize {
        self.size[root]
    }

    /// Number of clusters.
    pub(crate) fn roots(&self) -> usize {
        self.roots
    }

    /// Put root `absorbed` under root `kept`: the merged cluster keeps
    /// `kept`'s label.
    pub(crate) fn link(&mut self, kept: TaskId, absorbed: TaskId) {
        self.parent[absorbed] = kept;
        self.size[kept] += self.size[absorbed];
        self.roots -= 1;
    }

    /// Merge the two smallest clusters by `(size, label)` until `na`
    /// remain; `keep` turns the pair, smallest first, into
    /// `(kept, absorbed)`.
    pub(crate) fn merge_smallest(&mut self, na: usize, keep: fn(usize, usize) -> (usize, usize)) {
        let roots = (0..self.parent.len()).filter(|&r| self.parent[r] == r);
        let mut heap: BinaryHeap<_> = roots.map(|r| Reverse((self.size[r], r))).collect();
        while self.roots > na {
            let (Some(Reverse((_, a))), Some(Reverse((_, b)))) = (heap.pop(), heap.pop()) else {
                break;
            };
            let (kept, absorbed) = keep(a, b);
            self.link(kept, absorbed);
            heap.push(Reverse((self.size[kept], kept)));
        }
    }

    /// The clustering the roots describe, numbered in the order the
    /// roots first appear over tasks `0..n`.
    pub(crate) fn into_clustering(mut self) -> Result<Clustering, GraphError> {
        let mut id_of_root = vec![usize::MAX; self.parent.len()];
        let mut next = 0;
        let cluster_of = (0..self.parent.len()).map(|t| {
            let r = self.find(t);
            if id_of_root[r] == usize::MAX {
                id_of_root[r] = next;
                next += 1;
            }
            id_of_root[r]
        });
        Clustering::new(cluster_of.collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_builds_member_lists() {
        let c = Clustering::new(vec![0, 1, 0, 2, 1]).unwrap();
        assert_eq!(c.num_clusters(), 3);
        assert_eq!(c.num_tasks(), 5);
        assert_eq!(c.members(0), &[0, 2]);
        assert_eq!(c.members(1), &[1, 4]);
        assert_eq!(c.members(2), &[3]);
        assert!(c.same_cluster(0, 2));
        assert!(!c.same_cluster(0, 1));
        assert_eq!(c.max_cluster_size(), 2);
    }

    #[test]
    fn rejects_empty_cluster_and_empty_input() {
        // Cluster 1 missing.
        assert!(Clustering::new(vec![0, 2, 2]).is_err());
        assert!(Clustering::new(vec![]).is_err());
    }

    #[test]
    fn from_members_roundtrip() {
        let c = Clustering::from_members(vec![vec![0, 3], vec![1], vec![2]], 4).unwrap();
        assert_eq!(c.cluster_of(3), 0);
        assert_eq!(c.assignments(), &[0, 1, 2, 0]);
    }

    #[test]
    fn coarsen_merges_clusters_and_conserves_tasks() {
        let c = Clustering::new(vec![0, 1, 0, 2, 1, 3]).unwrap();
        // Merge {0,2} -> 0 and {1,3} -> 1.
        let coarse = c.coarsen(&[0, 1, 0, 1]).unwrap();
        assert_eq!(coarse.num_clusters(), 2);
        assert_eq!(coarse.num_tasks(), c.num_tasks());
        assert_eq!(coarse.assignments(), &[0, 1, 0, 0, 1, 1]);
        // Wrong map length and a gap in the image are rejected.
        assert!(c.coarsen(&[0, 1, 0]).is_err());
        assert!(c.coarsen(&[0, 2, 0, 2]).is_err());
    }

    #[test]
    fn from_members_detects_errors() {
        assert!(
            Clustering::from_members(vec![vec![0], vec![0]], 1).is_err(),
            "duplicate"
        );
        assert!(
            Clustering::from_members(vec![vec![0]], 2).is_err(),
            "unassigned"
        );
        assert!(
            Clustering::from_members(vec![vec![5]], 2).is_err(),
            "out of range"
        );
    }
}
