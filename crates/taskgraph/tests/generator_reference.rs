//! Differential test of the layered random-DAG generator against the
//! implementation it replaced, kept here verbatim as a reference: one
//! `gen_bool` per task pair and each layer a vector of its task ids.
//! Random configs over every field (`p` = 0 and 1 and awkward values
//! between, no locality window and windows 0–2, `connect_layers` off,
//! 1–40 tasks) must give equal problem graphs and leave the caller's
//! generator in the same state.

use mimd_taskgraph::{GeneratorConfig, LayeredDagGenerator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `LayeredDagGenerator::generate` as it was.
mod reference {
    use rand::Rng;

    use mimd_graph::{Time, Weight};

    use mimd_taskgraph::{GeneratorConfig, ProblemGraph};

    /// One layered random DAG drawn from `rng`.
    pub fn generate(config: &GeneratorConfig, rng: &mut impl Rng) -> ProblemGraph {
        let c = config;
        // Deal tasks into layers.
        let mut layers: Vec<Vec<usize>> = Vec::new();
        let mut next = 0usize;
        while next < c.tasks {
            let hi = (2 * c.avg_width).saturating_sub(1).max(1);
            let width = rng.gen_range(1..=hi).min(c.tasks - next);
            layers.push((next..next + width).collect());
            next += width;
        }
        let mut edges = Vec::new();
        // A plain fn (not a dyn-RngCore closure): `gen_range` needs a
        // sized receiver.
        fn edge_w<R: Rng>(c: &GeneratorConfig, rng: &mut R) -> Weight {
            rng.gen_range(c.edge_weight.0..=c.edge_weight.1)
        }
        for li in 0..layers.len() {
            for (pos, &u) in layers[li].iter().enumerate() {
                // Next-layer edges (optionally restricted to a locality
                // window around the task's scaled position).
                if li + 1 < layers.len() {
                    let next = &layers[li + 1];
                    let (lo, hi) = match c.locality_window {
                        Some(r) => {
                            // Scale this task's position into the next
                            // layer's index space, then widen by r.
                            let center = pos * next.len() / layers[li].len().max(1);
                            (center.saturating_sub(r), (center + r).min(next.len() - 1))
                        }
                        None => (0, next.len() - 1),
                    };
                    for &v in &next[lo..=hi] {
                        if rng.gen_bool(c.p_forward) {
                            edges.push((u, v, edge_w(c, rng)));
                        }
                    }
                }
                // Long-range edges.
                for later in layers.iter().skip(li + 2) {
                    for &v in later {
                        if rng.gen_bool(c.p_skip) {
                            edges.push((u, v, edge_w(c, rng)));
                        }
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
            for li in 1..layers.len() {
                for (pos, &v) in layers[li].iter().enumerate() {
                    if !has_pred[v] {
                        let prev = &layers[li - 1];
                        let u = match c.locality_window {
                            // Nearest previous-layer task by scaled
                            // position keeps the guaranteed edge local.
                            Some(_) => prev[pos * prev.len() / layers[li].len().max(1)],
                            None => prev[rng.gen_range(0..prev.len())],
                        };
                        edges.push((u, v, edge_w(c, rng)));
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

/// Edge probabilities: the ends, the defaults, and values whose
/// `2⁵³` multiples are not integers or sit next to one.
const PROBABILITIES: [f64; 9] = [
    0.0,
    1.0,
    0.35,
    0.03,
    0.1,
    1.0 / 3.0,
    1.0 - f64::EPSILON / 2.0,
    f64::MIN_POSITIVE,
    5e-324,
];

fn probability(rng: &mut StdRng) -> f64 {
    if rng.gen_range(0..3) == 0 {
        rng.gen_range(0.0..1.0)
    } else {
        PROBABILITIES[rng.gen_range(0..PROBABILITIES.len())]
    }
}

fn weights(rng: &mut StdRng) -> (u64, u64) {
    let lo = rng.gen_range(1..6u64);
    (lo, lo + rng.gen_range(0..4u64))
}

/// A random config over every field, 1–40 tasks.
fn config(rng: &mut StdRng) -> GeneratorConfig {
    GeneratorConfig {
        tasks: rng.gen_range(1..=40),
        avg_width: rng.gen_range(1..=8),
        p_forward: probability(rng),
        p_skip: probability(rng),
        task_weight: weights(rng),
        edge_weight: weights(rng),
        connect_layers: rng.gen_range(0..2) == 0,
        locality_window: [None, Some(0), Some(1), Some(2)][rng.gen_range(0..4usize)],
    }
}

fn assert_same(config: &GeneratorConfig, seed: u64) {
    let generator = LayeredDagGenerator::new(config.clone()).unwrap();
    let mut ours = StdRng::seed_from_u64(seed);
    let mut theirs = ours.clone();
    assert_eq!(
        generator.generate(&mut ours),
        reference::generate(config, &mut theirs),
        "{config:?} seed={seed}"
    );
    assert_eq!(ours, theirs, "{config:?} seed={seed}");
}

#[test]
fn random_configs_match_the_reference() {
    let mut rng = StdRng::seed_from_u64(40);
    for _ in 0..600 {
        let config = config(&mut rng);
        for seed in 0..3 {
            assert_same(&config, seed);
        }
    }
}

/// The configs the workloads use, at sizes with many layers: the
/// default, the CLI's layered regime and the paper's §5 regime.
#[test]
fn workload_configs_match_the_reference() {
    for tasks in [100, 300, 512] {
        let layered = GeneratorConfig {
            tasks,
            avg_width: (tasks / 8).clamp(3, 16),
            locality_window: Some(1),
            ..GeneratorConfig::default()
        };
        let paper = GeneratorConfig {
            p_forward: 0.45,
            p_skip: 0.01,
            task_weight: (3, 24),
            edge_weight: (4, 16),
            ..layered.clone()
        };
        let default = GeneratorConfig {
            tasks,
            ..GeneratorConfig::default()
        };
        for config in [layered, paper, default] {
            assert_same(&config, tasks as u64);
        }
    }
}
