//! Group-local refinement during uncoarsening — the paper's §4.3.3
//! randomized re-placement restricted to each processor group.
//!
//! After prolonging a coarse assignment, every cluster already sits on
//! a processor of the group its coarse host expanded into; what is left
//! to decide is the *arrangement within each group*. Because clusters
//! never leave their group, the per-group permutations of one candidate
//! are independent of each other — a candidate is just the incumbent
//! with a fresh random permutation inside every multi-member group.
//! Candidates are drawn in fixed-size batches from the incumbent: the
//! whole batch is generated first, each candidate is priced by the
//! incremental [`DeltaEvaluator`] (only its disturbed scheduling cone is
//! recomputed, nothing is allocated), and the best strictly-improving
//! candidate (ties to the earliest) becomes the new incumbent. The batch
//! is the unit of acceptance; with `batch = 1` the loop is exactly the
//! classic sequential accept-any-improvement smoother. Refinement stops
//! early the moment the level's ideal-graph lower bound is reached
//! (Theorem 3). The budget is a fixed number of candidate evaluations
//! per level, so refinement work grows with the hierarchy depth
//! (`O(log ns)` levels), not with `ns`.
//!
//! There is one loop, [`refine_within_groups`], parameterized by the
//! cost a candidate is judged on: the V-cycle passes the plain total,
//! `mimd-online` its migration-penalized total. It refines whatever
//! instance the caller's [`DeltaEvaluator`] holds, from its committed
//! assignment: a V-cycle level attaches one per level, an online session
//! resumes the live instance it patches event by event. The caller owns
//! the evaluator, the [`Recorder`] and the RNG.

use rand::Rng;

use mimd_core::delta::DeltaEvaluator;
use mimd_core::shuffle::fisher_yates;
use mimd_core::Assignment;
use mimd_graph::{NodeId, Time};
use mimd_telemetry::Recorder;

/// Objective and budget of a group-local refinement pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LocalRefineConfig {
    /// The level's ideal-graph lower bound (early-stop target).
    pub lower_bound: Time,
    /// Maximum number of candidates (one full-assignment evaluation
    /// each).
    pub rounds: usize,
    /// Candidates generated per batch (the unit of acceptance); 1
    /// reproduces the sequential accept-any-improvement loop.
    pub batch: usize,
}

/// What a group-local refinement pass did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LocalRefineOutcome {
    /// The best assignment found.
    pub assignment: Assignment,
    /// Its total time under the configured model.
    pub total: Time,
    /// Candidates actually evaluated (≤ the configured budget).
    pub rounds_used: usize,
    /// Batches that improved the incumbent.
    pub improvements: usize,
    /// `true` iff the level's lower bound was reached (provably optimal
    /// at this level).
    pub reached_lower_bound: bool,
}

/// Refine the evaluator's committed assignment by randomly
/// re-arranging clusters within each processor group for up to
/// `config.rounds` candidate evaluations, accepting per batch the
/// candidate with the lowest `score(candidate, total)` that beats the
/// incumbent's (ties to the earliest) and committing it to the
/// evaluator. The random stream, the batch accounting and the early
/// stop (on the *total* reaching `lower_bound`) are the same for every
/// scorer. `recorder` receives the `refine.candidates` /
/// `refine.accepted` counters, batched once per call, and one
/// `local.refine` gain-ledger entry per accepted batch.
pub fn refine_within_groups(
    evaluator: &mut DeltaEvaluator<'_, '_>,
    groups: &[Vec<NodeId>],
    config: &LocalRefineConfig,
    score: impl Fn(&Assignment, Time) -> u128,
    recorder: &Recorder,
    rng: &mut impl Rng,
) -> LocalRefineOutcome {
    let LocalRefineConfig {
        lower_bound,
        rounds,
        batch,
    } = *config;
    let batch = batch.max(1);
    let mut best = evaluator.assignment().clone();
    let mut best_total = evaluator.total();
    let mut best_cost = score(&best, best_total);
    recorder.gain_run_start("local.refine", best_total);
    let mut outcome = LocalRefineOutcome {
        assignment: best.clone(),
        total: best_total,
        rounds_used: 0,
        improvements: 0,
        reached_lower_bound: best_total == lower_bound,
    };
    if outcome.reached_lower_bound {
        return outcome;
    }
    let multi: Vec<&Vec<NodeId>> = groups.iter().filter(|g| g.len() >= 2).collect();
    if multi.is_empty() {
        return outcome;
    }

    let mut clusters = Vec::new();
    let mut perm = Vec::new();
    while outcome.rounds_used < rounds {
        // Generate the whole batch from the incumbent first, so the
        // random stream never depends on what a candidate scores.
        let width = batch.min(rounds - outcome.rounds_used);
        let mut candidates = Vec::with_capacity(width);
        for _ in 0..width {
            let mut candidate = best.clone();
            for group in &multi {
                clusters.clear();
                clusters.extend(group.iter().map(|&s| best.cluster_of(s)));
                perm.clear();
                perm.extend(0..group.len());
                fisher_yates(&mut perm, rng);
                candidate.place_subset(&clusters, group, &perm);
            }
            candidates.push(candidate);
        }
        outcome.rounds_used += width;

        let mut winner: Option<(Time, u128, usize)> = None;
        for (i, candidate) in candidates.iter().enumerate() {
            let total = evaluator.stage_candidate(candidate);
            let cost = score(candidate, total);
            if cost < best_cost && winner.is_none_or(|(_, c, _)| cost < c) {
                winner = Some((total, cost, i));
            }
            // The batch's last candidate stays staged if it won, so
            // committing it costs no second sweep.
            if i + 1 < width || winner.is_none_or(|(_, _, w)| w != i) {
                evaluator.discard();
            }
        }
        if let Some((total, cost, i)) = winner {
            if !evaluator.is_staged() {
                evaluator.stage_candidate(&candidates[i]);
            }
            evaluator.commit();
            best = candidates.swap_remove(i);
            recorder.gain("local.refine", best_total as i64 - total as i64, total);
            best_total = total;
            best_cost = cost;
            outcome.improvements += 1;
            if total == lower_bound {
                outcome.reached_lower_bound = true;
                break;
            }
        }
    }
    if outcome.rounds_used > 0 {
        recorder.add("refine.candidates", outcome.rounds_used as u64);
    }
    if outcome.improvements > 0 {
        recorder.add("refine.accepted", outcome.improvements as u64);
    }
    outcome.assignment = best;
    outcome.total = best_total;
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimd_core::delta::DeltaWorkspace;
    use mimd_core::evaluate::evaluate_total;
    use mimd_core::schedule::EvaluationModel;
    use mimd_taskgraph::paper;
    use mimd_topology::ring;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn config(lower_bound: Time, rounds: usize) -> LocalRefineConfig {
        LocalRefineConfig {
            lower_bound,
            rounds,
            batch: 1,
        }
    }

    /// The plain-total smoother on the worked example over `ring(4)`.
    fn smooth(
        groups: &[Vec<NodeId>],
        start: &Assignment,
        config: &LocalRefineConfig,
        seed: u64,
    ) -> LocalRefineOutcome {
        let (graph, system) = (paper::worked_example(), ring(4).unwrap());
        let mut ws = DeltaWorkspace::new();
        let mut evaluator =
            DeltaEvaluator::attach(&mut ws, &graph, &system, EvaluationModel::Precedence, start)
                .unwrap();
        let out = refine_within_groups(
            &mut evaluator,
            groups,
            config,
            |_, total| u128::from(total),
            &Recorder::disabled(),
            &mut StdRng::seed_from_u64(seed),
        );
        // The evaluator holds the outcome as its committed state.
        assert_eq!(evaluator.assignment(), &out.assignment);
        assert_eq!(evaluator.total(), out.total);
        out
    }

    #[test]
    fn finds_the_worked_example_optimum_within_one_group() {
        // One group covering the whole ring: equivalent to the paper's
        // unrestricted refinement.
        let out = smooth(
            &[vec![0, 1, 2, 3]],
            &Assignment::identity(4),
            &config(paper::WORKED_LOWER_BOUND, 100),
            1,
        );
        assert!(out.reached_lower_bound, "total {}", out.total);
        assert_eq!(out.total, paper::WORKED_LOWER_BOUND);
        assert!(out.rounds_used <= 100);
    }

    #[test]
    fn clusters_never_leave_their_group() {
        let groups = [vec![0, 1], vec![2, 3]];
        let out = smooth(&groups, &Assignment::identity(4), &config(0, 50), 2);
        // Clusters 0,1 started in group {0,1}; they must still be there.
        for c in 0..2 {
            assert!(out.assignment.sys_of(c) < 2, "cluster {c} escaped");
        }
        for c in 2..4 {
            assert!(out.assignment.sys_of(c) >= 2, "cluster {c} escaped");
        }
    }

    #[test]
    fn singleton_groups_are_a_noop() {
        let groups = [vec![0], vec![1], vec![2], vec![3]];
        let start = Assignment::identity(4);
        let out = smooth(&groups, &start, &config(0, 50), 3);
        assert_eq!(out.rounds_used, 0);
        assert_eq!(out.assignment, start);
    }

    #[test]
    fn never_worse_than_start_and_deterministic() {
        let groups = [vec![0, 2], vec![1, 3]];
        let start = Assignment::from_sys_of(vec![3, 2, 1, 0]).unwrap();
        let start_total = evaluate_total(
            &paper::worked_example(),
            &ring(4).unwrap(),
            &start,
            EvaluationModel::Precedence,
        )
        .unwrap();
        // The second budget is not a multiple of its batch width.
        for (rounds, batch) in [(20, 1), (10, 4)] {
            let config = LocalRefineConfig {
                batch,
                ..config(0, rounds)
            };
            let a = smooth(&groups, &start, &config, 9);
            assert_eq!(a, smooth(&groups, &start, &config, 9), "same seed");
            assert_eq!(a.rounds_used, rounds);
            assert!(a.total <= start_total);
        }
    }
}
