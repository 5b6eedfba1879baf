//! Ablation A1 of the crate's binary index: refinement strategies.
//!
//! §4.3.3: "It has been verified by our experiment that this method
//! [pinned random re-placement] works better than pairwise exchanges".
//! We compare, at a matched evaluation budget, on the same instances:
//! no refinement, the paper's pinned random re-placement, pairwise
//! exchange on total time, and simulated annealing (slow + quench).

use mimd_baselines::annealing::{simulated_annealing, AnnealingSchedule};
use mimd_baselines::pairwise::pairwise_exchange;
use mimd_core::critical::{CriticalAnalysis, CriticalityMode};
use mimd_core::ideal::IdealSchedule;
use mimd_core::initial::initial_assignment;
use mimd_core::refine::{refine, RefineConfig};
use mimd_core::schedule::EvaluationModel;
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
    let budget = 4 * system.len(); // evaluations per strategy

    let mut pct: Vec<Vec<f64>> = vec![Vec::new(); 5];
    let mut evals: Vec<Vec<f64>> = vec![Vec::new(); 5];
    let names = [
        "initial only",
        "paper (pinned random)",
        "pairwise exchange",
        "SA slow",
        "SA quench",
    ];

    for i in 0..instances {
        let mut rng = StdRng::seed_from_u64(args.seed + i);
        let graph = build_instance(120, system.len(), ClusteringSpec::Region, &mut rng);
        let ideal = IdealSchedule::derive(&graph);
        let lb = ideal.lower_bound() as f64;
        let critical = CriticalAnalysis::analyze(&graph, &ideal, CriticalityMode::PaperExact);
        let abs = graph.abstract_graph();
        let init = initial_assignment(&graph, abs, &critical, &system).unwrap();

        // Initial only.
        let t0 = mimd_core::evaluate::evaluate_assignment(
            &graph,
            &system,
            &init.assignment,
            EvaluationModel::Precedence,
        )
        .unwrap()
        .total();
        pct[0].push(100.0 * t0 as f64 / lb);
        evals[0].push(1.0);

        // Paper refinement at the matched budget.
        let cfg = RefineConfig {
            iterations: budget,
            ..RefineConfig::paper(system.len())
        };
        let out = refine(
            &graph,
            &system,
            &init.assignment,
            &init.critical,
            ideal.lower_bound(),
            &cfg,
            &mut rng,
        )
        .unwrap();
        pct[1].push(100.0 * out.total as f64 / lb);
        evals[1].push(out.iterations_used as f64 + 1.0);

        // Pairwise exchange from the same start.
        let pw = pairwise_exchange(
            &graph,
            &system,
            &init.assignment,
            &init.critical,
            ideal.lower_bound(),
            budget,
            EvaluationModel::Precedence,
        )
        .unwrap();
        pct[2].push(100.0 * pw.total as f64 / lb);
        evals[2].push(pw.evaluations as f64);

        // Simulated annealing, slow and quench.
        for (slot, schedule) in [
            (3, AnnealingSchedule::slow(system.len())),
            (4, AnnealingSchedule::quench(system.len())),
        ] {
            let sa = simulated_annealing(
                &graph,
                &system,
                Some(&init.assignment),
                ideal.lower_bound(),
                &schedule,
                EvaluationModel::Precedence,
                &mut rng,
            )
            .unwrap();
            pct[slot].push(100.0 * sa.total as f64 / lb);
            evals[slot].push(sa.evaluations as f64);
        }
    }

    let mut table = Table::new(
        format!(
            "Ablation A1: refinement strategies on {} ({} instances, np=120; paper/pairwise budget {} evals, SA runs its own schedule)",
            system.name(),
            instances,
            budget
        ),
        &["strategy", "mean % over LB", "min", "max", "mean evals"],
    );
    for (slot, name) in names.iter().enumerate() {
        let s = Summary::of(&pct[slot]).unwrap();
        let e = Summary::of(&evals[slot]).unwrap();
        table.push_row(vec![
            name.to_string(),
            format!("{:.1}", s.mean),
            format!("{:.1}", s.min),
            format!("{:.1}", s.max),
            format!("{:.0}", e.mean),
        ]);
    }
    println!("{}", table.render());
    let base = Summary::of(&pct[0]).unwrap().mean;
    let paper = Summary::of(&pct[1]).unwrap().mean;
    println!(
        "paper refinement improves the initial assignment by {:.1} points on average",
        base - paper
    );
}
