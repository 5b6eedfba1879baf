//! Ablation A4 of the crate's binary index: clustering front-ends.
//!
//! The paper's experiments cluster *randomly* (§5) — the weakest possible
//! front-end. This ablation maps the same problem graphs after random,
//! round-robin, load-balanced, communication-greedy and chain
//! clustering. Absolute totals are comparable (same problem, same
//! machine); percentages over each clustering's own lower bound are not,
//! so both are reported.

use mimd_core::schedule::EvaluationModel;
use mimd_core::Mapper;
use mimd_experiments::CliArgs;
use mimd_report::{Summary, Table};
use mimd_taskgraph::clustering::chains::chain_clustering;
use mimd_taskgraph::clustering::comm_greedy::comm_greedy_clustering;
use mimd_taskgraph::clustering::load_balance::load_balanced_clustering;
use mimd_taskgraph::clustering::random::random_clustering;
use mimd_taskgraph::clustering::round_robin::round_robin_clustering;
use mimd_taskgraph::clustering::sarkar::sarkar_clustering;
use mimd_taskgraph::{ClusteredProblemGraph, GeneratorConfig, LayeredDagGenerator};
use mimd_topology::mesh2d;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args = CliArgs::from_env();
    let system = mesh2d(2, 4).unwrap(); // ns = 8
    let instances = 10;
    let names = [
        "random (paper)",
        "round-robin",
        "load-balanced",
        "comm-greedy",
        "chains",
        "sarkar edge-zeroing",
    ];
    let mut totals: Vec<Vec<f64>> = vec![Vec::new(); names.len()];
    let mut pcts: Vec<Vec<f64>> = vec![Vec::new(); names.len()];

    for i in 0..instances {
        let mut rng = StdRng::seed_from_u64(args.seed + i);
        let gen = LayeredDagGenerator::new(GeneratorConfig {
            tasks: 96,
            ..GeneratorConfig::default()
        })
        .unwrap();
        let problem = gen.generate(&mut rng);
        let clusterings = [
            random_clustering(&problem, system.len(), &mut rng).unwrap(),
            round_robin_clustering(&problem, system.len()).unwrap(),
            load_balanced_clustering(&problem, system.len()).unwrap(),
            comm_greedy_clustering(&problem, system.len(), 1.5).unwrap(),
            chain_clustering(&problem, system.len()).unwrap(),
            sarkar_clustering(&problem, system.len()).unwrap(),
        ];
        for (slot, clustering) in clusterings.into_iter().enumerate() {
            let graph = ClusteredProblemGraph::new(problem.clone(), clustering).unwrap();
            let mut map_rng = StdRng::seed_from_u64(args.seed + 500 + i);
            let r = Mapper::new().map(&graph, &system, &mut map_rng).unwrap();
            totals[slot].push(r.total_time as f64);
            pcts[slot].push(r.percent_over_lower_bound());
            // Sanity: the serialized model would only lengthen things.
            let _ = EvaluationModel::Precedence;
        }
    }

    let mut table = Table::new(
        format!(
            "Ablation A4: clustering front-ends on {} ({} instances, np=96)",
            system.name(),
            instances
        ),
        &["clustering", "mean total", "mean % over own LB"],
    );
    for (slot, name) in names.iter().enumerate() {
        let st = Summary::of(&totals[slot]).unwrap();
        let sp = Summary::of(&pcts[slot]).unwrap();
        table.push_row(vec![
            name.to_string(),
            format!("{:.1}", st.mean),
            format!("{:.1}", sp.mean),
        ]);
    }
    println!("{}", table.render());
    let random_mean = Summary::of(&totals[0]).unwrap().mean;
    let greedy_mean = Summary::of(&totals[3]).unwrap().mean;
    println!(
        "communication-greedy clustering shortens the mapped schedule {:.1}% vs the paper's \
         random clustering",
        100.0 * (random_mean - greedy_mean) / random_mean
    );
}
