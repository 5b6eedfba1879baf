//! Random problem-graph generator.
//!
//! §5 of the paper: *"a random problem graph generator was created ...
//! The weights of the problem nodes and the weights of the problem edges
//! are also produced randomly. The numbers of nodes in a problem graph
//! range from 30 to 300."* The generator itself was never published, so
//! we use the standard layered construction for random task DAGs:
//! tasks are dealt into consecutive layers and edges run from earlier to
//! later layers with a configurable density, which yields precedence
//! graphs with tunable parallelism/depth — the same knobs the paper's
//! experiments vary implicitly. All randomness flows through the caller's
//! RNG, so experiments are reproducible from a seed.
//!
//! A graph costs one RNG word per task pair an edge may join, plus its
//! edges: a layer is a range of consecutive ids, and a pair's edge is
//! decided by comparing that word's top 53 bits with an integer
//! threshold, which draws and decides exactly as `gen_bool` would.

use rand::Rng;
use serde::{Deserialize, Serialize};

use mimd_graph::error::GraphError;
use mimd_graph::{Time, Weight};

use crate::problem::ProblemGraph;

/// Parameters of the layered random-DAG construction.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct GeneratorConfig {
    /// Number of tasks `np` (paper: 30–300).
    pub tasks: usize,
    /// Average number of tasks per layer; layer widths are drawn
    /// uniformly from `1..=2*avg_width - 1` so the mean holds.
    pub avg_width: usize,
    /// Probability of an edge from a task to each task in the *next*
    /// layer (short dependencies, the common case).
    pub p_forward: f64,
    /// Probability of an edge to each task in layers further ahead
    /// (long-range dependencies).
    pub p_skip: f64,
    /// Task execution times drawn uniformly from this inclusive range.
    pub task_weight: (Time, Time),
    /// Edge communication times drawn uniformly from this inclusive range.
    pub edge_weight: (Weight, Weight),
    /// When `true` (default), every task in layer `> 0` is guaranteed at
    /// least one predecessor in the previous layer, keeping the DAG's
    /// depth meaningful (no accidental wide independent stripes).
    pub connect_layers: bool,
    /// When `Some(r)`, forward edges from a task only target the ~`2r+1`
    /// positionally nearest tasks of the next layer (positions scaled
    /// between layers of different widths). This produces the
    /// stencil-/pipeline-like locality of the workloads the paper's
    /// citations study (finite-element graphs \[7\], linear-algebra DAGs
    /// \[10\], Gaussian elimination \[11\]). `None` (default) wires any
    /// task to any next-layer task.
    pub locality_window: Option<usize>,
}

impl Default for GeneratorConfig {
    /// Defaults sized like the paper's experiments: 100 tasks, ~6 per
    /// layer, weights 1–10 for tasks and 1–5 for edges.
    fn default() -> Self {
        GeneratorConfig {
            tasks: 100,
            avg_width: 6,
            p_forward: 0.35,
            p_skip: 0.03,
            task_weight: (1, 10),
            edge_weight: (1, 5),
            connect_layers: true,
            locality_window: None,
        }
    }
}

impl GeneratorConfig {
    /// Validate ranges (non-zero sizes, probabilities in `[0, 1]`,
    /// weight ranges non-empty with positive minima).
    pub fn validate(&self) -> Result<(), GraphError> {
        if self.tasks == 0 {
            return Err(GraphError::InvalidParameter("tasks must be >= 1".into()));
        }
        if self.avg_width == 0 {
            return Err(GraphError::InvalidParameter(
                "avg_width must be >= 1".into(),
            ));
        }
        for (name, p) in [("p_forward", self.p_forward), ("p_skip", self.p_skip)] {
            if !(0.0..=1.0).contains(&p) {
                return Err(GraphError::InvalidParameter(format!(
                    "{name} {p} not in [0,1]"
                )));
            }
        }
        if self.task_weight.0 == 0 || self.task_weight.0 > self.task_weight.1 {
            return Err(GraphError::InvalidParameter(format!(
                "task weight range {:?} must be 1 <= lo <= hi",
                self.task_weight
            )));
        }
        if self.edge_weight.0 == 0 || self.edge_weight.0 > self.edge_weight.1 {
            return Err(GraphError::InvalidParameter(format!(
                "edge weight range {:?} must be 1 <= lo <= hi",
                self.edge_weight
            )));
        }
        Ok(())
    }
}

/// Layered random DAG generator (see [`GeneratorConfig`]).
#[derive(Clone, Debug)]
pub struct LayeredDagGenerator {
    config: GeneratorConfig,
}

impl LayeredDagGenerator {
    /// Create a generator after validating `config`.
    pub fn new(config: GeneratorConfig) -> Result<Self, GraphError> {
        config.validate()?;
        Ok(LayeredDagGenerator { config })
    }

    /// The configuration in use.
    pub fn config(&self) -> &GeneratorConfig {
        &self.config
    }

    /// Generate one problem graph, at the cost the module doc states.
    pub fn generate(&self, rng: &mut impl Rng) -> ProblemGraph {
        let c = &self.config;
        // Deal tasks into layers: layer `l` is `starts[l]..starts[l + 1]`.
        let hi = (2 * c.avg_width).saturating_sub(1).max(1);
        let mut starts = vec![0];
        let mut next = 0usize;
        while next < c.tasks {
            next += rng.gen_range(1..=hi).min(c.tasks - next);
            starts.push(next);
        }
        let layers = starts.len() - 1;
        let layer = |l: usize| starts[l]..starts[l + 1];
        let (p_forward, p_skip) = (
            bernoulli_threshold(c.p_forward),
            bernoulli_threshold(c.p_skip),
        );
        let mut edges = Vec::new();
        // A plain fn (not a dyn-RngCore closure): `gen_range` needs a
        // sized receiver.
        fn edge_w<R: Rng>(c: &GeneratorConfig, rng: &mut R) -> Weight {
            rng.gen_range(c.edge_weight.0..=c.edge_weight.1)
        }
        for li in 0..layers {
            let this = layer(li);
            let width = this.len();
            // Long-range edges reach every task two or more layers on.
            let later = starts[(li + 2).min(layers)]..c.tasks;
            for (pos, u) in this.enumerate() {
                // Next-layer edges (optionally restricted to a locality
                // window around the task's scaled position).
                if li + 1 < layers {
                    let next = layer(li + 1);
                    let (lo, hi) = match c.locality_window {
                        Some(r) => {
                            // Scale this task's position into the next
                            // layer's index space, then widen by r.
                            let center = pos * next.len() / width;
                            (center.saturating_sub(r), (center + r).min(next.len() - 1))
                        }
                        None => (0, next.len() - 1),
                    };
                    for v in next.start + lo..=next.start + hi {
                        if rng.next_u64() >> 11 < p_forward {
                            edges.push((u, v, edge_w(c, rng)));
                        }
                    }
                }
                for v in later.clone() {
                    if rng.next_u64() >> 11 < p_skip {
                        edges.push((u, v, edge_w(c, rng)));
                    }
                }
            }
        }
        if c.connect_layers {
            // Guaranteed edges only ever enter their own task, so whether
            // a task has a predecessor is settled before they are drawn.
            let mut has_pred = vec![false; c.tasks];
            for &(_, v, _) in &edges {
                has_pred[v] = true;
            }
            for li in 1..layers {
                let (prev, this) = (layer(li - 1), layer(li));
                let width = this.len();
                for (pos, v) in this.enumerate() {
                    if !has_pred[v] {
                        let k = match c.locality_window {
                            // Nearest previous-layer task by scaled
                            // position keeps the guaranteed edge local.
                            Some(_) => pos * prev.len() / width,
                            None => rng.gen_range(0..prev.len()),
                        };
                        edges.push((prev.start + k, v, edge_w(c, rng)));
                    }
                }
            }
        }
        let sizes: Vec<Time> = (0..c.tasks)
            .map(|_| rng.gen_range(c.task_weight.0..=c.task_weight.1))
            .collect();
        ProblemGraph::new(sizes, &edges).expect("generator output is a valid problem graph")
    }
}

/// The integer form of [`Rng::gen_bool`], which is `true` when the
/// next word `x` has `(x >> 11) · 2⁻⁵³ < p`. Both sides are exact in
/// `f64` (`p · 2⁵³` only rescales `p`), and for an integer `k`,
/// `k < p · 2⁵³` exactly when `k < ⌈p · 2⁵³⌉`: so `x >> 11 <
/// bernoulli_threshold(p)` draws the same word and decides the same
/// way, with `p` = 0 never and `p` = 1 always true.
fn bernoulli_threshold(p: f64) -> u64 {
    debug_assert!((0.0..=1.0).contains(&p), "validated by the config");
    (p * (1u64 << 53) as f64).ceil() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn generates_valid_dags_across_seeds() {
        let gen = LayeredDagGenerator::new(GeneratorConfig::default()).unwrap();
        for seed in 0..10u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let p = gen.generate(&mut rng);
            assert_eq!(p.len(), 100);
            assert!(p.sizes().iter().all(|&s| (1..=10).contains(&s)));
            assert!(p.edges().all(|(_, _, w)| (1..=5).contains(&w)));
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let gen = LayeredDagGenerator::new(GeneratorConfig::default()).unwrap();
        let a = gen.generate(&mut StdRng::seed_from_u64(7));
        let b = gen.generate(&mut StdRng::seed_from_u64(7));
        assert_eq!(a, b);
        let c = gen.generate(&mut StdRng::seed_from_u64(8));
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn connect_layers_guarantees_predecessors() {
        let cfg = GeneratorConfig {
            tasks: 60,
            p_forward: 0.05,
            p_skip: 0.0,
            connect_layers: true,
            ..GeneratorConfig::default()
        };
        let gen = LayeredDagGenerator::new(cfg).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let p = gen.generate(&mut rng);
        // Sources exist only in the first layer; with avg_width 6 the
        // first layer has at most 11 tasks.
        let sources = (0..p.len()).filter(|&t| p.predecessors(t).is_empty());
        assert!(sources.count() <= 11);
    }

    #[test]
    fn single_task_graph() {
        let cfg = GeneratorConfig {
            tasks: 1,
            ..GeneratorConfig::default()
        };
        let gen = LayeredDagGenerator::new(cfg).unwrap();
        let p = gen.generate(&mut StdRng::seed_from_u64(0));
        assert_eq!(p.len(), 1);
        assert_eq!(p.graph().edge_count(), 0);
    }

    #[test]
    fn bernoulli_threshold_splits_the_words_where_gen_bool_does() {
        // `gen_bool(p)` is true for a word `x` when `unit(x >> 11) < p`.
        let unit = |k: u64| k as f64 * (1.0 / (1u64 << 53) as f64);
        let third = 1.0 / 3.0;
        let below_one = 1.0 - f64::EPSILON / 2.0;
        for p in [
            0.0,
            1.0,
            0.5,
            0.35,
            0.03,
            third,
            below_one,
            f64::MIN_POSITIVE,
            5e-324,
        ] {
            let t = bernoulli_threshold(p);
            assert!(t == 0 || unit(t - 1) < p, "p={p}: the word below is a hit");
            assert!(
                t == 1 << 53 || unit(t) >= p,
                "p={p}: the threshold is a miss"
            );
        }
    }

    #[test]
    fn config_validation() {
        let bad = |f: fn(&mut GeneratorConfig)| {
            let mut c = GeneratorConfig::default();
            f(&mut c);
            LayeredDagGenerator::new(c).is_err()
        };
        assert!(bad(|c| c.tasks = 0));
        assert!(bad(|c| c.avg_width = 0));
        assert!(bad(|c| c.p_forward = 1.5));
        assert!(bad(|c| c.p_skip = -0.1));
        assert!(bad(|c| c.task_weight = (0, 5)));
        assert!(bad(|c| c.edge_weight = (3, 2)));
    }

    #[test]
    fn paper_scale_graphs_generate_quickly() {
        let cfg = GeneratorConfig {
            tasks: 300,
            ..GeneratorConfig::default()
        };
        let gen = LayeredDagGenerator::new(cfg).unwrap();
        let p = gen.generate(&mut StdRng::seed_from_u64(1));
        assert_eq!(p.len(), 300);
        assert!(p.graph().edge_count() > 300, "should be reasonably dense");
    }
}
