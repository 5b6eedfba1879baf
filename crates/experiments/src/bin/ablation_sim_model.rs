//! Ablation A3 of the crate's binary index: evaluation models.
//!
//! The 1991 analytic model ignores processor exclusivity and link
//! contention. The DES substrate quantifies what that costs: with both
//! switches off the DES must equal the analytic model *exactly* (asserted
//! here); serialization and contention then lengthen the same mapped
//! schedules, showing how optimistic the paper's model is.

use mimd_core::evaluate::evaluate_assignment;
use mimd_core::schedule::EvaluationModel;
use mimd_core::Mapper;
use mimd_engine::ClusteringSpec;
use mimd_experiments::harness::build_instance;
use mimd_experiments::CliArgs;
use mimd_report::{Summary, Table};
use mimd_sim::{simulate, SimConfig};
use mimd_topology::hypercube;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args = CliArgs::from_env();
    let system = hypercube(3).unwrap();
    let instances = 12;

    let mut ratio_serial = Vec::new();
    let mut ratio_contention = Vec::new();
    let mut ratio_realistic = Vec::new();
    let mut wait_share = Vec::new();

    for i in 0..instances {
        let mut rng = StdRng::seed_from_u64(args.seed + i);
        let graph = build_instance(100, system.len(), ClusteringSpec::Region, &mut rng);
        let result = Mapper::new().map(&graph, &system, &mut rng).unwrap();
        let a = &result.assignment;

        let analytic =
            evaluate_assignment(&graph, &system, a, EvaluationModel::Precedence).unwrap();
        let des = simulate(&graph, &system, a, SimConfig::paper()).unwrap();
        assert_eq!(
            des.total,
            analytic.total(),
            "DES with the paper switches must reproduce the analytic model exactly"
        );

        let serial = simulate(
            &graph,
            &system,
            a,
            SimConfig {
                serialize_processors: true,
                link_contention: false,
            },
        )
        .unwrap();
        let contention = simulate(
            &graph,
            &system,
            a,
            SimConfig {
                serialize_processors: false,
                link_contention: true,
            },
        )
        .unwrap();
        let realistic = simulate(&graph, &system, a, SimConfig::realistic()).unwrap();

        let base = des.total as f64;
        ratio_serial.push(serial.total as f64 / base);
        ratio_contention.push(contention.total as f64 / base);
        ratio_realistic.push(realistic.total as f64 / base);
        wait_share.push(realistic.link_wait_total as f64 / realistic.total.max(1) as f64);
    }

    let mut table = Table::new(
        format!(
            "Ablation A3: machine models on {} ({} instances, np=100, mapped by the strategy)",
            system.name(),
            instances
        ),
        &["model", "mean total / analytic", "min", "max"],
    );
    table.push_row(vec![
        "analytic == DES(paper)".into(),
        "1.000".into(),
        "1.000".into(),
        "1.000".into(),
    ]);
    for (name, series) in [
        ("DES + processor serialization", &ratio_serial),
        ("DES + link contention", &ratio_contention),
        ("DES + both (realistic)", &ratio_realistic),
    ] {
        let s = Summary::of(series).unwrap();
        table.push_row(vec![
            name.into(),
            format!("{:.3}", s.mean),
            format!("{:.3}", s.min),
            format!("{:.3}", s.max),
        ]);
    }
    println!("{}", table.render());
    println!(
        "aggregate link-wait time is {:.1}% of the realistic makespan on average",
        100.0 * Summary::of(&wait_share).unwrap().mean
    );
    println!(
        "ANALYTIC-MODEL VALIDATION PASSED: DES(paper) == precedence schedule on all instances."
    );
}
