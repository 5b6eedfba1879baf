//! Migration-cost-aware local refinement: the multilevel group smoother
//! with the objective shifted for online remapping.
//!
//! After a trace event the previous assignment is almost right; blindly
//! chasing the best total would shuffle clusters whose placement gain
//! is smaller than the cost of actually moving them (state transfer,
//! cache warmup, rescheduling). So the refiner optimizes
//! `total + migration_penalty × moves`, where `moves` counts clusters
//! placed on a different processor than in the reference (pre-event)
//! assignment. A move must therefore *pay for itself*: with penalty 0
//! this degenerates to the plain multilevel smoother, with a large
//! penalty the assignment freezes.
//!
//! The acceptance loop itself is `mimd_multilevel::refine_within_groups`
//! — the one batch-synchronous smoother (the batch is the unit of
//! acceptance, a seed fully determines the outcome) — invoked with the
//! penalized scorer and restricted to the *regions* the incremental
//! mapper derived from the event's touched clusters.

use rand::Rng;

use mimd_core::delta::DeltaWorkspace;
use mimd_core::schedule::EvaluationModel;
use mimd_core::Assignment;
use mimd_graph::error::GraphError;
use mimd_graph::{NodeId, Time};
use mimd_multilevel::{refine_within_groups, LocalRefineConfig};
use mimd_taskgraph::ClusteredProblemGraph;
use mimd_telemetry::Recorder;
use mimd_topology::SystemGraph;

/// Objective and budget of a migration-aware refinement pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MigrationRefineConfig {
    /// Maximum number of candidates (one full evaluation each).
    pub rounds: usize,
    /// Candidates generated per batch (the unit of acceptance).
    pub batch: usize,
    /// Cost charged per cluster moved away from its reference
    /// processor.
    pub migration_penalty: Time,
    /// The evaluation model (paper: precedence).
    pub model: EvaluationModel,
    /// The instance's ideal-graph lower bound (early-stop target for
    /// the total).
    pub lower_bound: Time,
}

/// What a migration-aware refinement pass did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MigrationRefineOutcome {
    /// The best assignment found under the penalized objective.
    pub assignment: Assignment,
    /// Its plain total time (without the migration charge).
    pub total: Time,
    /// Clusters placed differently than in the reference assignment.
    pub moves: usize,
    /// Candidates actually evaluated.
    pub rounds_used: usize,
    /// Batches that improved the incumbent.
    pub improvements: usize,
}

/// Count clusters whose processor differs between `a` and `reference`.
pub fn count_moves(a: &Assignment, reference: &Assignment) -> usize {
    (0..a.len())
        .filter(|&c| a.sys_of(c) != reference.sys_of(c))
        .count()
}

/// Refine `start` by re-arranging clusters within each region,
/// accepting only candidates whose penalized cost
/// `total + migration_penalty × moves-vs-reference` improves. `start`
/// is usually the reference itself (the pre-event assignment), but a
/// caller chaining passes may hand in an already-refined start. The
/// caller owns the [`DeltaWorkspace`] (sessions reuse one across
/// events) and the telemetry recorder.
#[allow(clippy::too_many_arguments)]
pub fn refine_with_migration(
    graph: &ClusteredProblemGraph,
    system: &SystemGraph,
    regions: &[Vec<NodeId>],
    start: &Assignment,
    reference: &Assignment,
    config: &MigrationRefineConfig,
    recorder: &Recorder,
    ws: &mut DeltaWorkspace,
    rng: &mut impl Rng,
) -> Result<MigrationRefineOutcome, GraphError> {
    let penalty = u128::from(config.migration_penalty);
    let out = refine_within_groups(
        graph,
        system,
        regions,
        start,
        &LocalRefineConfig {
            lower_bound: config.lower_bound,
            rounds: config.rounds,
            batch: config.batch,
            model: config.model,
        },
        |candidate, total| u128::from(total) + penalty * count_moves(candidate, reference) as u128,
        recorder,
        ws,
        rng,
    )?;
    Ok(MigrationRefineOutcome {
        moves: count_moves(&out.assignment, reference),
        assignment: out.assignment,
        total: out.total,
        rounds_used: out.rounds_used,
        improvements: out.improvements,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimd_taskgraph::paper;
    use mimd_topology::ring;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn config(penalty: Time) -> MigrationRefineConfig {
        MigrationRefineConfig {
            rounds: 60,
            batch: 1,
            migration_penalty: penalty,
            model: EvaluationModel::Precedence,
            lower_bound: paper::WORKED_LOWER_BOUND,
        }
    }

    /// Refine the worked example over `ring(4)` with a fresh workspace.
    fn run(
        regions: &[Vec<NodeId>],
        start: &Assignment,
        reference: &Assignment,
        config: &MigrationRefineConfig,
        seed: u64,
    ) -> MigrationRefineOutcome {
        refine_with_migration(
            &paper::worked_example(),
            &ring(4).unwrap(),
            regions,
            start,
            reference,
            config,
            &Recorder::disabled(),
            &mut DeltaWorkspace::new(),
            &mut StdRng::seed_from_u64(seed),
        )
        .unwrap()
    }

    #[test]
    fn zero_penalty_reaches_the_worked_example_optimum() {
        let start = Assignment::identity(4);
        let out = run(&[vec![0, 1, 2, 3]], &start, &start, &config(0), 1);
        assert_eq!(out.total, paper::WORKED_LOWER_BOUND);
        assert!(out.moves > 0);
    }

    #[test]
    fn huge_penalty_freezes_the_assignment() {
        let start = Assignment::identity(4);
        let out = run(&[vec![0, 1, 2, 3]], &start, &start, &config(1_000_000), 1);
        assert_eq!(out.assignment, start, "no move can pay for itself");
        assert_eq!(out.moves, 0);
    }

    #[test]
    fn moves_outside_regions_never_happen() {
        let start = Assignment::identity(4);
        let out = run(&[vec![1, 2]], &start, &start, &config(0), 3);
        assert_eq!(out.assignment.sys_of(0), 0);
        assert_eq!(out.assignment.sys_of(3), 3);
        assert!(out.moves <= 2);
    }

    #[test]
    fn seeded_rerun_is_equal_and_counts_moves() {
        let regions = [vec![0, 3], vec![1, 2]];
        let reference = Assignment::identity(4);
        let start = Assignment::from_sys_of(vec![3, 1, 2, 0]).unwrap();
        let config = MigrationRefineConfig {
            rounds: 20,
            batch: 4,
            migration_penalty: 1,
            lower_bound: 0,
            ..config(0)
        };
        let a = run(&regions, &start, &reference, &config, 5);
        assert_eq!(run(&regions, &start, &reference, &config, 5), a);
        assert_eq!(a.moves, count_moves(&a.assignment, &reference));
    }
}
