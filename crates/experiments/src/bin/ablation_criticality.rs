//! Ablation A2 of the crate's binary index: criticality propagation.
//!
//! The paper's Algorithm I follows only cross-cluster predecessors;
//! zero-slack intra-cluster chains stall the propagation. The Extended
//! mode follows them too, usually marking more critical edges and giving
//! the initial assignment more guidance. Chain clusterings (which create
//! long intra-cluster runs) make the difference visible.

use mimd_core::critical::{CriticalAnalysis, CriticalityMode};
use mimd_core::ideal::IdealSchedule;
use mimd_core::{Mapper, MapperConfig};
use mimd_experiments::CliArgs;
use mimd_report::{Summary, Table};
use mimd_taskgraph::clustering::chains::chain_clustering;
use mimd_taskgraph::{ClusteredProblemGraph, GeneratorConfig, LayeredDagGenerator};
use mimd_topology::mesh2d;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args = CliArgs::from_env();
    let system = mesh2d(3, 4).unwrap(); // ns = 12
    let instances = 12;

    let mut edges_exact = Vec::new();
    let mut edges_ext = Vec::new();
    let mut pct_exact = Vec::new();
    let mut pct_ext = Vec::new();

    for i in 0..instances {
        let mut rng = StdRng::seed_from_u64(args.seed + i);
        let gen = LayeredDagGenerator::new(GeneratorConfig {
            tasks: 96,
            avg_width: 4,
            ..GeneratorConfig::default()
        })
        .unwrap();
        let problem = gen.generate(&mut rng);
        // Chain clustering maximizes intra-cluster zero-slack chains.
        let clustering = chain_clustering(&problem, system.len()).unwrap();
        let graph = ClusteredProblemGraph::new(problem, clustering).unwrap();
        let ideal = IdealSchedule::derive(&graph);
        let lb = ideal.lower_bound() as f64;

        let exact = CriticalAnalysis::analyze(&graph, &ideal, CriticalityMode::PaperExact);
        let ext = CriticalAnalysis::analyze(&graph, &ideal, CriticalityMode::Extended);
        edges_exact.push(exact.critical_edges().len() as f64);
        edges_ext.push(ext.critical_edges().len() as f64);

        for (mode, out) in [
            (CriticalityMode::PaperExact, &mut pct_exact),
            (CriticalityMode::Extended, &mut pct_ext),
        ] {
            let mapper = Mapper::with_config(MapperConfig {
                criticality: mode,
                ..MapperConfig::default()
            });
            let mut map_rng = StdRng::seed_from_u64(args.seed + 1000 + i);
            let r = mapper.map(&graph, &system, &mut map_rng).unwrap();
            out.push(100.0 * r.total_time as f64 / lb);
        }
    }

    let mut table = Table::new(
        format!(
            "Ablation A2: criticality propagation on {} ({} chain-clustered instances)",
            system.name(),
            instances
        ),
        &[
            "mode",
            "mean critical edges",
            "mean % over LB",
            "min %",
            "max %",
        ],
    );
    for (name, edges, pcts) in [
        ("paper-exact", &edges_exact, &pct_exact),
        ("extended", &edges_ext, &pct_ext),
    ] {
        let se = Summary::of(edges).unwrap();
        let sp = Summary::of(pcts).unwrap();
        table.push_row(vec![
            name.into(),
            format!("{:.1}", se.mean),
            format!("{:.1}", sp.mean),
            format!("{:.1}", sp.min),
            format!("{:.1}", sp.max),
        ]);
    }
    println!("{}", table.render());
    println!(
        "extended mode marks {:.1}x as many critical edges on average",
        Summary::of(&edges_ext).unwrap().mean / Summary::of(&edges_exact).unwrap().mean.max(1.0)
    );
}
