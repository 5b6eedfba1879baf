//! The assignment of abstract nodes (clusters) to system nodes
//! (processors) — the paper's `assi[ns]` matrix, kept in both directions.

use rand::Rng;
use serde::{Deserialize, Serialize};

use mimd_graph::error::GraphError;

/// A bijection between `n` clusters and `n` processors.
///
/// The paper stores `assi[s] = a` ("abstract node `a` is mapped to system
/// node `s`"); we keep the inverse too so both lookups are `O(1)`.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Assignment {
    /// `sys_of[a]` = processor hosting cluster `a`.
    sys_of: Vec<usize>,
    /// `cluster_of[s]` = cluster hosted on processor `s` (the paper's
    /// `assi`).
    cluster_of: Vec<usize>,
}

impl Assignment {
    /// Identity assignment: cluster `i` on processor `i`.
    pub fn identity(n: usize) -> Self {
        Assignment {
            sys_of: (0..n).collect(),
            cluster_of: (0..n).collect(),
        }
    }

    /// Build from `sys_of[a] = processor`; must be a permutation of
    /// `0..n`.
    pub fn from_sys_of(sys_of: Vec<usize>) -> Result<Self, GraphError> {
        let n = sys_of.len();
        let mut cluster_of = vec![usize::MAX; n];
        for (a, &s) in sys_of.iter().enumerate() {
            if s >= n {
                return Err(GraphError::NodeOutOfRange { node: s, len: n });
            }
            if cluster_of[s] != usize::MAX {
                return Err(GraphError::InvalidParameter(format!(
                    "processor {s} assigned twice"
                )));
            }
            cluster_of[s] = a;
        }
        Ok(Assignment { sys_of, cluster_of })
    }

    /// Build from the paper's `assi[s] = cluster` orientation.
    pub fn from_assi(assi: Vec<usize>) -> Result<Self, GraphError> {
        let inv = Assignment::from_sys_of(assi)?;
        // `from_sys_of` interpreted the vector as cluster→sys; swap views.
        Ok(Assignment {
            sys_of: inv.cluster_of,
            cluster_of: inv.sys_of,
        })
    }

    /// Uniformly random assignment.
    pub fn random(n: usize, rng: &mut impl Rng) -> Self {
        let mut sys_of: Vec<usize> = (0..n).collect();
        crate::shuffle::fisher_yates(&mut sys_of, rng);
        Assignment::from_sys_of(sys_of).expect("shuffle of identity is a permutation")
    }

    /// Number of clusters / processors.
    #[inline]
    pub fn len(&self) -> usize {
        self.sys_of.len()
    }

    /// `true` iff the assignment is empty.
    pub fn is_empty(&self) -> bool {
        self.sys_of.is_empty()
    }

    /// Processor hosting cluster `a`.
    #[inline]
    pub fn sys_of(&self, a: usize) -> usize {
        self.sys_of[a]
    }

    /// Cluster hosted on processor `s` (the paper's `assi[s]`).
    #[inline]
    pub fn cluster_of(&self, s: usize) -> usize {
        self.cluster_of[s]
    }

    /// The cluster→processor vector.
    pub fn sys_of_vec(&self) -> &[usize] {
        &self.sys_of
    }

    /// The paper's `assi[ns]` vector (processor→cluster).
    pub fn assi_vec(&self) -> &[usize] {
        &self.cluster_of
    }

    /// Swap the processors of clusters `a` and `b` (pairwise exchange —
    /// the refinement alternative the paper compares against).
    pub fn swap_clusters(&mut self, a: usize, b: usize) {
        let (sa, sb) = (self.sys_of[a], self.sys_of[b]);
        self.sys_of[a] = sb;
        self.sys_of[b] = sa;
        self.cluster_of[sa] = b;
        self.cluster_of[sb] = a;
    }

    /// Raw single-cluster write used by the delta evaluator's staged
    /// moves and their rollback: put cluster `a` on processor `s`,
    /// updating both directions without validating bijectivity. The
    /// caller applies a *set* of moves whose processors permute among
    /// themselves, which restores the invariant once every write lands
    /// (the same contract as [`Assignment::place_subset`]).
    #[inline]
    pub(crate) fn place(&mut self, a: usize, s: usize) {
        self.sys_of[a] = s;
        self.cluster_of[s] = a;
    }

    /// Re-place a subset of clusters onto a set of processors (used by
    /// the paper's refinement: "randomly assign the non-critical abstract
    /// nodes to the system nodes which are not occupied by critical
    /// abstract nodes"). `clusters` and `processors` must have equal
    /// length; `perm[i]` places `clusters[i]` on `processors[perm[i]]`.
    pub fn place_subset(&mut self, clusters: &[usize], processors: &[usize], perm: &[usize]) {
        assert_eq!(clusters.len(), processors.len(), "subset sizes must match");
        assert_eq!(clusters.len(), perm.len(), "permutation size must match");
        for (&a, &pi) in clusters.iter().zip(perm) {
            let s = processors[pi];
            self.sys_of[a] = s;
            self.cluster_of[s] = a;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn identity_and_lookups() {
        let a = Assignment::identity(4);
        assert_eq!(a.len(), 4);
        assert_eq!(a.sys_of(2), 2);
        assert_eq!(a.cluster_of(3), 3);
    }

    #[test]
    fn from_sys_of_inverts() {
        let a = Assignment::from_sys_of(vec![2, 0, 1]).unwrap();
        assert_eq!(a.sys_of(0), 2);
        assert_eq!(a.cluster_of(2), 0);
        assert_eq!(a.cluster_of(0), 1);
        assert_eq!(a.assi_vec(), &[1, 2, 0]);
    }

    #[test]
    fn from_assi_matches_paper_orientation() {
        // Paper Fig 23-b: assi = (0 1 3 2): sys2 hosts cluster 3.
        let a = Assignment::from_assi(vec![0, 1, 3, 2]).unwrap();
        assert_eq!(a.cluster_of(2), 3);
        assert_eq!(a.sys_of(3), 2);
        assert_eq!(a.sys_of(2), 3);
        assert_eq!(a.sys_of_vec(), &[0, 1, 3, 2]);
    }

    #[test]
    fn rejects_non_permutations() {
        assert!(Assignment::from_sys_of(vec![0, 0]).is_err());
        assert!(Assignment::from_sys_of(vec![0, 2]).is_err());
    }

    #[test]
    fn random_is_permutation_and_seeded() {
        let a = Assignment::random(20, &mut StdRng::seed_from_u64(1));
        let b = Assignment::random(20, &mut StdRng::seed_from_u64(1));
        assert_eq!(a, b);
        let mut seen = [false; 20];
        for c in 0..20 {
            seen[a.sys_of(c)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn swap_maintains_bijection() {
        let mut a = Assignment::identity(5);
        a.swap_clusters(1, 3);
        assert_eq!(a.sys_of(1), 3);
        assert_eq!(a.sys_of(3), 1);
        assert_eq!(a.cluster_of(3), 1);
        assert_eq!(a.cluster_of(1), 3);
    }

    #[test]
    fn place_subset_reassigns() {
        let mut a = Assignment::identity(5);
        // Clusters 1, 3 re-placed onto processors {3, 1} with perm [1, 0]:
        // cluster 1 -> processors[1] = 1... use a real permutation.
        a.place_subset(&[1, 3], &[1, 3], &[1, 0]);
        assert_eq!(a.sys_of(1), 3);
        assert_eq!(a.sys_of(3), 1);
        assert_eq!(a.cluster_of(1), 3);
    }

    #[test]
    #[should_panic(expected = "subset sizes")]
    fn place_subset_validates_lengths() {
        let mut a = Assignment::identity(3);
        a.place_subset(&[0, 1], &[0], &[0, 1]);
    }
}
