//! Figs 2–6 / 18–24: the paper's worked example, end to end.
//!
//! Derives every published artifact from the reconstructed instance and
//! prints them next to the paper's values: ideal start/end times
//! (Fig 22-b), critical problem edges (Fig 22-c), critical abstract
//! matrix and degrees (Fig 20-b), `mca` (Fig 20-c), the lower bound, and
//! the Fig 23-b assignment whose total equals the lower bound (Fig 24) —
//! so the refinement terminates with zero random changes.

use mimd_core::critical::{CriticalAnalysis, CriticalityMode};
use mimd_core::evaluate::evaluate_assignment;
use mimd_core::ideal::IdealSchedule;
use mimd_core::schedule::EvaluationModel;
use mimd_core::{Assignment, Mapper};
use mimd_report::{Gantt, GanttTask, Table};
use mimd_taskgraph::paper;
use mimd_topology::ring;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let graph = paper::worked_example();
    let system = ring(4).unwrap();
    let ideal = IdealSchedule::derive(&graph);
    let critical = CriticalAnalysis::analyze(&graph, &ideal, CriticalityMode::PaperExact);

    let mut sched = Table::new(
        "Fig 22-b: ideal start/end times (paper task ids 1-11)",
        &["task", "i_start", "i_end", "paper i_start", "paper i_end"],
    );
    for t in 0..11 {
        sched.push_row(vec![
            (t + 1).to_string(),
            ideal.schedule().start(t).to_string(),
            ideal.schedule().end(t).to_string(),
            paper::WORKED_IDEAL_START[t].to_string(),
            paper::WORKED_IDEAL_END[t].to_string(),
        ]);
    }
    println!("{}", sched.render());
    assert_eq!(ideal.schedule().starts(), &paper::WORKED_IDEAL_START);
    assert_eq!(ideal.schedule().ends(), &paper::WORKED_IDEAL_END);
    println!(
        "lower bound = {} (paper: {})\n",
        ideal.lower_bound(),
        paper::WORKED_LOWER_BOUND
    );

    let mut crit = Table::new(
        "Fig 22-c: critical problem edges (paper ids)",
        &["edge", "weight"],
    );
    for &(u, v, w) in critical.critical_edges() {
        crit.push_row(vec![format!("({},{})", u + 1, v + 1), w.to_string()]);
    }
    println!("{}", crit.render());
    assert_eq!(critical.critical_edges(), &paper::WORKED_CRITICAL_EDGES);

    println!(
        "Fig 20-b critical degrees: {:?} (paper: {:?})",
        critical.critical_degrees(),
        paper::WORKED_CRITICAL_DEGREES
    );
    println!(
        "Fig 20-c mca: {:?} (paper prints (13 11 13 ?); see EXPERIMENTS.md)\n",
        graph.abstract_graph().mca_vector()
    );

    // Fig 23/24: the published assignment achieves the lower bound.
    let fig23 = Assignment::from_sys_of(paper::WORKED_OPTIMAL_ASSIGNMENT.to_vec()).unwrap();
    let eval = evaluate_assignment(&graph, &system, &fig23, EvaluationModel::Precedence).unwrap();
    println!(
        "Fig 23-b assignment {:?} -> total {} (= lower bound, Fig 24)",
        paper::WORKED_OPTIMAL_ASSIGNMENT,
        eval.total()
    );
    assert_eq!(eval.total(), paper::WORKED_LOWER_BOUND);

    // The Fig 24 time-line: tasks on their processors over time.
    let mut gantt = Gantt::new("Fig 24: execution time-line on ring(4)");
    for t in 0..graph.num_tasks() {
        gantt.push(GanttTask {
            label: (t + 1).to_string(),
            processor: fig23.sys_of(graph.cluster_of(t)),
            start: eval.schedule.start(t),
            end: eval.schedule.end(t),
        });
    }
    println!("\n{}", gantt.render(60));

    // And the full pipeline finds an optimum without any refinement.
    let mut rng = StdRng::seed_from_u64(0);
    let result = Mapper::new().map(&graph, &system, &mut rng).unwrap();
    println!(
        "pipeline: initial total {} -> final {} after {} refinement iterations (early stop: {})",
        result.initial_total,
        result.total_time,
        result.refinement.iterations_used,
        result.refinement.reached_lower_bound
    );
    assert!(result.is_provably_optimal());
    assert_eq!(result.refinement.iterations_used, 0);
    println!("\nWALKTHROUGH REPRODUCED: the initial assignment is provably optimal.");
}
