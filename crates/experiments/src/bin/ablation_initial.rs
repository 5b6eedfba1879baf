//! Ablation A5: how much work does each pipeline stage do?
//!
//! Compares, on identical instances: a random assignment, the paper's
//! refinement from a *random* start, the greedy initial assignment
//! alone, the full pipeline (initial + pinned refinement, the paper),
//! and the same refinement with eight times the paper's budget.

use mimd_core::critical::{CriticalAnalysis, CriticalityMode};
use mimd_core::evaluate::evaluate_assignment;
use mimd_core::ideal::IdealSchedule;
use mimd_core::initial::initial_assignment;
use mimd_core::refine::{refine, RefineConfig};
use mimd_core::schedule::EvaluationModel;
use mimd_core::Assignment;
use mimd_engine::ClusteringSpec;
use mimd_experiments::harness::build_instance;
use mimd_experiments::CliArgs;
use mimd_report::{Summary, Table};
use mimd_topology::hypercube;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args = CliArgs::from_env();
    let system = hypercube(4).unwrap(); // ns = 16
    let instances = 10;
    let names = [
        "random assignment",
        "refinement from random start",
        "initial assignment only",
        "full pipeline (paper)",
        "refinement with 8x budget",
    ];
    let mut pcts: Vec<Vec<f64>> = vec![Vec::new(); names.len()];
    let mut early = vec![0usize; names.len()];

    for i in 0..instances {
        let mut rng = StdRng::seed_from_u64(args.seed + i);
        let graph = build_instance(120, system.len(), ClusteringSpec::Region, &mut rng);
        let ideal = IdealSchedule::derive(&graph);
        let lb = ideal.lower_bound();
        let critical = CriticalAnalysis::analyze(&graph, &ideal, CriticalityMode::PaperExact);
        let abs = graph.abstract_graph();
        let init = initial_assignment(&graph, abs, &critical, &system).unwrap();
        let pct = |t: u64| 100.0 * t as f64 / lb as f64;

        // 0: one random assignment.
        let ra = Assignment::random(system.len(), &mut rng);
        let rt = evaluate_assignment(&graph, &system, &ra, EvaluationModel::Precedence)
            .unwrap()
            .total();
        pcts[0].push(pct(rt));

        // 1: paper refinement but from the random start, nothing pinned.
        let out = refine(
            &graph,
            &system,
            &ra,
            &vec![false; system.len()],
            lb,
            &RefineConfig::paper(system.len()),
            &mut rng,
        )
        .unwrap();
        pcts[1].push(pct(out.total));
        early[1] += usize::from(out.reached_lower_bound);

        // 2: initial assignment alone.
        let t0 = evaluate_assignment(
            &graph,
            &system,
            &init.assignment,
            EvaluationModel::Precedence,
        )
        .unwrap()
        .total();
        pcts[2].push(pct(t0));
        early[2] += usize::from(t0 == lb);

        // 3: the paper's full pipeline.
        let out = refine(
            &graph,
            &system,
            &init.assignment,
            &init.critical,
            lb,
            &RefineConfig::paper(system.len()),
            &mut rng,
        )
        .unwrap();
        pcts[3].push(pct(out.total));
        early[3] += usize::from(out.reached_lower_bound);

        // 4: the same refinement with 8x the budget, on its own seed.
        let out = refine(
            &graph,
            &system,
            &init.assignment,
            &init.critical,
            lb,
            &RefineConfig {
                iterations: 8 * system.len(),
                ..RefineConfig::paper(system.len())
            },
            &mut StdRng::seed_from_u64(args.seed + 9000 + i),
        )
        .unwrap();
        pcts[4].push(pct(out.total));
        early[4] += usize::from(out.reached_lower_bound);
    }

    let mut table = Table::new(
        format!(
            "Ablation A5: pipeline stages on {} ({} instances, np=120)",
            system.name(),
            instances
        ),
        &[
            "configuration",
            "mean % over LB",
            "min",
            "max",
            "early stops",
        ],
    );
    for (slot, name) in names.iter().enumerate() {
        let s = Summary::of(&pcts[slot]).unwrap();
        table.push_row(vec![
            name.to_string(),
            format!("{:.1}", s.mean),
            format!("{:.1}", s.min),
            format!("{:.1}", s.max),
            format!("{}/{}", early[slot], instances),
        ]);
    }
    println!("{}", table.render());
    println!(
        "the critical-edge initial assignment alone recovers {:.1} of the {:.1} points that the \
         full pipeline gains over a random assignment",
        Summary::of(&pcts[0]).unwrap().mean - Summary::of(&pcts[2]).unwrap().mean,
        Summary::of(&pcts[0]).unwrap().mean - Summary::of(&pcts[3]).unwrap().mean,
    );
}
