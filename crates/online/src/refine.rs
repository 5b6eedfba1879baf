//! The migration-cost-aware objective of online refinement.
//!
//! After a trace event the previous assignment is almost right; blindly
//! chasing the best total would shuffle clusters whose placement gain
//! is smaller than the cost of actually moving them (state transfer,
//! cache warmup, rescheduling). So the session scores candidates by
//! `total + migration_penalty × moves`, where `moves` counts clusters
//! placed on a different processor than in the reference (pre-event)
//! assignment. A move must therefore *pay for itself*: with penalty 0
//! this degenerates to the plain multilevel smoother, with a large
//! penalty the assignment freezes.
//!
//! The acceptance loop itself is `mimd_multilevel::refine_within_groups`
//! — the one batch-synchronous smoother (the batch is the unit of
//! acceptance, a seed fully determines the outcome) — invoked with
//! [`migration_cost`] as its scorer and restricted to the *regions* the
//! incremental mapper derived from the event's touched clusters.

use mimd_core::Assignment;
use mimd_graph::Time;

/// Count clusters whose processor differs between `a` and `reference`.
pub fn count_moves(a: &Assignment, reference: &Assignment) -> usize {
    (0..a.len())
        .filter(|&c| a.sys_of(c) != reference.sys_of(c))
        .count()
}

/// The penalized scorer handed to `refine_within_groups`: a candidate's
/// total plus `penalty` for every cluster it places away from
/// `reference`.
pub fn migration_cost(
    reference: &Assignment,
    penalty: Time,
) -> impl Fn(&Assignment, Time) -> u128 + '_ {
    let penalty = u128::from(penalty);
    move |candidate, total| u128::from(total) + penalty * count_moves(candidate, reference) as u128
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimd_core::delta::{DeltaEvaluator, DeltaWorkspace};
    use mimd_core::evaluate::evaluate_assignment;
    use mimd_core::schedule::EvaluationModel;
    use mimd_graph::NodeId;
    use mimd_multilevel::{refine_within_groups, LocalRefineConfig, LocalRefineOutcome};
    use mimd_taskgraph::paper;
    use mimd_telemetry::Recorder;
    use mimd_topology::ring;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const SIXTY_ROUNDS: LocalRefineConfig = LocalRefineConfig {
        lower_bound: paper::WORKED_LOWER_BOUND,
        rounds: 60,
        batch: 1,
    };

    /// Refine the worked example over `ring(4)` with a fresh workspace,
    /// scoring by [`migration_cost`] against `reference`.
    fn run(
        regions: &[Vec<NodeId>],
        start: &Assignment,
        reference: &Assignment,
        penalty: Time,
        config: &LocalRefineConfig,
        seed: u64,
    ) -> LocalRefineOutcome {
        let (graph, system) = (paper::worked_example(), ring(4).unwrap());
        let mut ws = DeltaWorkspace::new();
        let mut evaluator =
            DeltaEvaluator::attach(&mut ws, &graph, &system, EvaluationModel::Precedence, start)
                .unwrap();
        refine_within_groups(
            &mut evaluator,
            regions,
            config,
            migration_cost(reference, penalty),
            &Recorder::disabled(),
            &mut StdRng::seed_from_u64(seed),
        )
    }

    #[test]
    fn zero_penalty_reaches_the_worked_example_optimum() {
        let start = Assignment::identity(4);
        let out = run(&[vec![0, 1, 2, 3]], &start, &start, 0, &SIXTY_ROUNDS, 1);
        assert_eq!(out.total, paper::WORKED_LOWER_BOUND);
        assert!(count_moves(&out.assignment, &start) > 0);
    }

    #[test]
    fn huge_penalty_freezes_the_assignment() {
        let start = Assignment::identity(4);
        let out = run(
            &[vec![0, 1, 2, 3]],
            &start,
            &start,
            1_000_000,
            &SIXTY_ROUNDS,
            1,
        );
        assert_eq!(out.assignment, start, "no move can pay for itself");
        assert_eq!(out.improvements, 0);
    }

    #[test]
    fn moves_outside_regions_never_happen() {
        let start = Assignment::identity(4);
        let out = run(&[vec![1, 2]], &start, &start, 0, &SIXTY_ROUNDS, 3);
        assert_eq!(out.assignment.sys_of(0), 0);
        assert_eq!(out.assignment.sys_of(3), 3);
        assert!(count_moves(&out.assignment, &start) <= 2);
    }

    #[test]
    fn seeded_rerun_is_equal_and_counts_moves() {
        let regions = [vec![0, 3], vec![1, 2]];
        let reference = Assignment::identity(4);
        let start = Assignment::from_sys_of(vec![3, 1, 2, 0]).unwrap();
        let config = LocalRefineConfig {
            lower_bound: 0,
            rounds: 20,
            batch: 4,
        };
        let a = run(&regions, &start, &reference, 1, &config, 5);
        assert_eq!(run(&regions, &start, &reference, 1, &config, 5), a);
        // The start is two moves from the reference; the scorer charges
        // exactly those moves, so the result never costs more than it.
        assert_eq!(count_moves(&start, &reference), 2);
        let start_total = evaluate_assignment(
            &paper::worked_example(),
            &ring(4).unwrap(),
            &start,
            EvaluationModel::Precedence,
        )
        .unwrap()
        .total();
        let cost = migration_cost(&reference, 1);
        assert!(cost(&a.assignment, a.total) <= cost(&start, start_total));
    }
}
