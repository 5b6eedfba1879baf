//! Refinement with the lower-bound termination condition (§4.3.1,
//! §4.3.3).
//!
//! The paper keeps the *critical abstract nodes* pinned (their critical
//! edges already sit on single system links) and performs `ns` rounds of
//! randomly re-placing the non-critical clusters onto the processors not
//! occupied by pinned clusters, keeping any improvement. Crucially, the
//! loop stops the moment an evaluation equals the ideal-graph lower
//! bound — Theorem 3 guarantees optimality then, "reducing both search
//! space and mapping time".
//!
//! Candidates are priced by the incremental [`DeltaEvaluator`] (stage →
//! commit/discard), so each one costs only its disturbed scheduling
//! cone instead of a from-scratch evaluation — totals are bit-identical
//! to [`evaluate_assignment`](crate::evaluate_assignment) by the delta
//! evaluator's contract. On top of the paper's random rounds, an
//! **opt-in** gain-guided pairwise-exchange pass
//! ([`RefineConfig::exchange_pool`], default off) ranks swap candidates
//! by a [`GainTable`] proxy and accepts them against the exact delta
//! totals; it draws nothing from the RNG, so enabling it never shifts
//! the random stream.
//!
//! The loop exists once, sequentially, as [`refine_with`] — the caller
//! hands in its [`Recorder`], [`DeltaWorkspace`] and RNG, so a seed
//! fully determines the outcome. [`refine`] is the paper-signature
//! shorthand for callers with no context to pass.

use rand::Rng;
use serde::{Deserialize, Serialize};

use mimd_graph::error::GraphError;
use mimd_graph::{BitSet, Time};
use mimd_taskgraph::ClusteredProblemGraph;
use mimd_telemetry::Recorder;
use mimd_topology::SystemGraph;

use crate::assignment::Assignment;
use crate::delta::{DeltaEvaluator, DeltaWorkspace};
use crate::gain::GainTable;
use crate::schedule::EvaluationModel;
use crate::shuffle::fisher_yates;

/// Refinement parameters.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RefineConfig {
    /// Number of random re-placements. The paper fixes this to `ns`
    /// ("a total of ns changes are allowed"); [`RefineConfig::paper`]
    /// does that, other budgets support the ablations.
    pub iterations: usize,
    /// The evaluation model (paper: precedence).
    pub model: EvaluationModel,
    /// When `false` (ablation A5 variant), ignore the critical pins and
    /// re-place *every* cluster each round.
    pub respect_pins: bool,
    /// Budget of gain-ranked pairwise-exchange evaluations run after
    /// the random rounds (0 = off — the default and the paper's exact
    /// behaviour). The pass is deterministic and RNG-free: swap
    /// candidates are ranked by the [`GainTable`] comm-volume proxy and
    /// accepted first-improvement against exact delta totals, repeating
    /// from each accepted move until the budget is spent or no swap
    /// improves. Evaluations count into
    /// [`RefineOutcome::iterations_used`].
    #[serde(default)]
    pub exchange_pool: usize,
}

impl RefineConfig {
    /// The paper's configuration for an `ns`-processor system.
    pub fn paper(ns: usize) -> Self {
        RefineConfig {
            iterations: ns,
            model: EvaluationModel::Precedence,
            respect_pins: true,
            exchange_pool: 0,
        }
    }
}

/// What refinement did and why it stopped.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RefineOutcome {
    /// The best assignment found.
    pub assignment: Assignment,
    /// Its total time.
    pub total: Time,
    /// Total time of the starting assignment.
    pub initial_total: Time,
    /// Candidates actually evaluated (random re-placements plus
    /// exchange-pass swaps; ≤ the configured budgets).
    pub iterations_used: usize,
    /// Number of evaluations that improved the incumbent.
    pub improvements: usize,
    /// `true` iff the lower-bound termination condition fired — the
    /// result is provably optimal (Theorem 3).
    pub reached_lower_bound: bool,
}

/// Refine `start` (with per-cluster pin flags from the initial
/// assignment) toward `lower_bound`.
///
/// Convenience wrapper over [`refine_with`] with a throwaway workspace
/// and no telemetry; loops calling refinement repeatedly should hold a
/// [`DeltaWorkspace`] and use [`refine_with`] directly.
pub fn refine(
    graph: &ClusteredProblemGraph,
    system: &SystemGraph,
    start: &Assignment,
    pinned: &[bool],
    lower_bound: Time,
    config: &RefineConfig,
    rng: &mut impl Rng,
) -> Result<RefineOutcome, GraphError> {
    let mut ws = DeltaWorkspace::new();
    refine_with(
        graph,
        system,
        start,
        pinned,
        lower_bound,
        config,
        &Recorder::disabled(),
        &mut ws,
        rng,
    )
}

/// [`refine`] with a caller-owned [`DeltaWorkspace`] (reused across
/// calls — zero allocation per candidate) and a telemetry recorder:
/// candidate evaluations land on the `refine.candidates` counter and
/// accepted improvements on `refine.accepted`, batched once per call.
/// When the recorder carries a gain ledger, the run opens with a
/// baseline entry and every accepted candidate lands as a `flat.random`
/// / `flat.exchange` entry (or the recorder's gain scope), so summed
/// gains telescope to `initial_total - total` exactly.
#[allow(clippy::too_many_arguments)]
pub fn refine_with(
    graph: &ClusteredProblemGraph,
    system: &SystemGraph,
    start: &Assignment,
    pinned: &[bool],
    lower_bound: Time,
    config: &RefineConfig,
    recorder: &Recorder,
    ws: &mut DeltaWorkspace,
    rng: &mut impl Rng,
) -> Result<RefineOutcome, GraphError> {
    let na = graph.num_clusters();
    for len in [start.len(), pinned.len()] {
        if len != na {
            return Err(GraphError::SizeMismatch {
                left: len,
                right: na,
            });
        }
    }
    let mut evaluator = DeltaEvaluator::attach(ws, graph, system, config.model, start)?;
    let initial_total = evaluator.total();
    let mut best_total = initial_total;
    let mut improvements = 0;
    let mut iterations_used = 0;
    let mut reached_lower_bound = best_total == lower_bound;
    recorder.gain_run_start("flat.random", initial_total);

    // The movable clusters and the processors they may occupy; with at
    // most one there is nothing to permute and the start stands.
    let movable: Vec<usize> = (0..na)
        .filter(|&a| !(config.respect_pins && pinned[a]))
        .collect();
    if !reached_lower_bound && movable.len() > 1 {
        let free_sys: Vec<usize> = movable.iter().map(|&a| start.sys_of(a)).collect();
        let mut perm: Vec<usize> = (0..movable.len()).collect();
        for _ in 0..config.iterations {
            iterations_used += 1;
            // Fresh random permutation of the movable clusters.
            fisher_yates(&mut perm, rng);
            let total = evaluator.stage_place(&movable, &free_sys, &perm);
            reached_lower_bound = total == lower_bound;
            if reached_lower_bound || total < best_total {
                evaluator.commit();
                recorder.gain("flat.random", best_total as i64 - total as i64, total);
                best_total = total;
                improvements += 1;
                if reached_lower_bound {
                    break;
                }
            } else {
                evaluator.discard();
            }
        }
        if !reached_lower_bound && config.exchange_pool > 0 {
            reached_lower_bound = exchange_pass(
                graph,
                system,
                &mut evaluator,
                pinned,
                config,
                lower_bound,
                recorder,
                &mut best_total,
                &mut iterations_used,
                &mut improvements,
            );
        }
    }

    if iterations_used > 0 {
        recorder.add("refine.candidates", iterations_used as u64);
    }
    if improvements > 0 {
        recorder.add("refine.accepted", improvements as u64);
    }
    Ok(RefineOutcome {
        assignment: evaluator.assignment().clone(),
        total: best_total,
        initial_total,
        iterations_used,
        improvements,
        reached_lower_bound,
    })
}

/// The gain-guided exchange pass: rank candidate swaps by the
/// [`GainTable`] proxy, evaluate them exactly via the delta evaluator,
/// accept first-improvement and re-rank from the new incumbent until
/// the budget is spent or no ranked swap improves. RNG-free. Returns
/// `true` iff the lower bound was reached.
#[allow(clippy::too_many_arguments)]
fn exchange_pass(
    graph: &ClusteredProblemGraph,
    system: &SystemGraph,
    evaluator: &mut DeltaEvaluator<'_, '_>,
    pinned: &[bool],
    config: &RefineConfig,
    lower_bound: Time,
    recorder: &Recorder,
    best_total: &mut Time,
    iterations_used: &mut usize,
    improvements: &mut usize,
) -> bool {
    let all_free = vec![false; pinned.len()];
    let effective_pins: &[bool] = if config.respect_pins {
        pinned
    } else {
        &all_free
    };
    let mut table = GainTable::new(graph, system, evaluator.assignment(), effective_pins);
    let mut budget = config.exchange_pool;
    let na = pinned.len();
    let mut pairs = BitSet::new(na * na);
    let mut ranked = BestSwaps::default();
    while budget > 0 {
        collect_swap_pairs(&table, evaluator.assignment(), system, &mut pairs);
        ranked.restart(budget);
        table.swap_gains(&pairs, evaluator.assignment(), system, |swap| {
            ranked.offer(swap)
        });
        let mut accepted = false;
        for &(_, a, b) in ranked.in_order() {
            budget -= 1; // at most `budget` swaps were kept
            *iterations_used += 1;
            let total = evaluator.stage_swap(a, b);
            if total < *best_total {
                evaluator.commit();
                table.apply_swap(a, b, evaluator.assignment(), system);
                recorder.gain("flat.exchange", *best_total as i64 - total as i64, total);
                *best_total = total;
                *improvements += 1;
                accepted = true;
                if total == lower_bound {
                    return true;
                }
                break; // re-rank from the new incumbent
            }
            evaluator.discard();
        }
        if !accepted {
            break;
        }
    }
    false
}

/// The `budget` best-ranked of the `(proxy gain, a, b)` swaps offered
/// to it: best gain first, ties by cluster ids for determinism. A round
/// tries at most `budget` swaps, so only that much of the ranking is
/// ever read — and only that much is kept and sorted: once `budget`
/// swaps are held, one comparison with the worst of them turns away
/// nearly every later offer.
#[derive(Default)]
struct BestSwaps {
    budget: usize,
    kept: Vec<(i64, usize, usize)>,
    /// The worst swap still worth keeping, once `budget` are held.
    floor: Option<(i64, usize, usize)>,
}

impl BestSwaps {
    fn order(x: &(i64, usize, usize), y: &(i64, usize, usize)) -> std::cmp::Ordering {
        y.0.cmp(&x.0).then(x.1.cmp(&y.1)).then(x.2.cmp(&y.2))
    }

    /// Forget the last round; keep the next one's `budget >= 1` best.
    fn restart(&mut self, budget: usize) {
        self.budget = budget;
        self.kept.clear();
        self.floor = None;
    }

    fn offer(&mut self, swap: (i64, usize, usize)) {
        if self
            .floor
            .is_some_and(|floor| Self::order(&swap, &floor).is_gt())
        {
            return;
        }
        self.kept.push(swap);
        if self.kept.len() >= self.budget.saturating_mul(2) {
            self.kept
                .select_nth_unstable_by(self.budget - 1, Self::order);
            self.kept.truncate(self.budget);
            self.floor = Some(self.kept[self.budget - 1]);
        }
    }

    /// The kept swaps, best first.
    fn in_order(&mut self) -> &[(i64, usize, usize)] {
        self.kept.sort_unstable_by(Self::order);
        self.kept.truncate(self.budget);
        &self.kept
    }
}

/// Deterministically enumerate candidate swap pairs: movable
/// abstract-graph-adjacent pairs seeded from the boundary set, plus —
/// for each boundary cluster `a` with a neighbor `x` further than one
/// hop — the movable clusters hosted on processors physically adjacent
/// to `x`'s host (the "move `a` next to its expensive neighbor" moves).
/// Pair `(a, b)`, `a < b`, is bit `a * na + b` of `out`, so each pair
/// is held once however often it is found and iteration ascends by
/// `(a, b)`.
fn collect_swap_pairs(
    table: &GainTable,
    assignment: &Assignment,
    system: &SystemGraph,
    out: &mut BitSet,
) {
    out.clear();
    let na = assignment.len();
    let push = |out: &mut BitSet, a: usize, b: usize| {
        out.insert(a.min(b) * na + a.max(b));
    };
    for a in table.boundary().iter() {
        let sa = assignment.sys_of(a);
        for (x, _) in table.neighbors(a) {
            if table.movable().contains(x) {
                push(out, a, x);
            }
            let sx = assignment.sys_of(x);
            if system.hops(sa, sx) > 1 {
                for &p in system.graph().neighbors(sx) {
                    let b = assignment.cluster_of(p);
                    if b != a && table.movable().contains(b) {
                        push(out, a, b);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::evaluate_assignment;
    use mimd_taskgraph::paper;
    use mimd_topology::ring;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn worked() -> (ClusteredProblemGraph, SystemGraph) {
        (paper::worked_example(), ring(4).unwrap())
    }

    #[test]
    fn stops_immediately_at_lower_bound() {
        let (g, sys) = worked();
        let opt = Assignment::from_sys_of(paper::WORKED_OPTIMAL_ASSIGNMENT.to_vec()).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let out = refine(
            &g,
            &sys,
            &opt,
            &[false; 4],
            paper::WORKED_LOWER_BOUND,
            &RefineConfig::paper(4),
            &mut rng,
        )
        .unwrap();
        assert!(out.reached_lower_bound);
        assert_eq!(
            out.iterations_used, 0,
            "termination before any random change"
        );
        assert_eq!(out.total, 14);
    }

    #[test]
    fn improves_or_keeps_a_bad_start() {
        let (g, sys) = worked();
        // Deliberately poor start: reverse placement.
        let bad = Assignment::from_sys_of(vec![3, 2, 1, 0]).unwrap();
        let bad_total = evaluate_assignment(&g, &sys, &bad, EvaluationModel::Precedence)
            .unwrap()
            .total();
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = RefineConfig {
            iterations: 50,
            ..RefineConfig::paper(4)
        };
        let out = refine(&g, &sys, &bad, &[false; 4], 14, &cfg, &mut rng).unwrap();
        assert!(out.total <= bad_total);
        assert_eq!(out.initial_total, bad_total);
        // With all 4 clusters movable and 50 tries over 24 permutations,
        // the optimum (14) is found with overwhelming probability.
        assert!(out.reached_lower_bound, "found total {}", out.total);
    }

    #[test]
    fn pinned_clusters_never_move() {
        let (g, sys) = worked();
        let start = Assignment::identity(4);
        let pinned = [true, false, true, false];
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = RefineConfig {
            iterations: 30,
            ..RefineConfig::paper(4)
        };
        let out = refine(&g, &sys, &start, &pinned, 0, &cfg, &mut rng).unwrap();
        assert_eq!(out.assignment.sys_of(0), start.sys_of(0));
        assert_eq!(out.assignment.sys_of(2), start.sys_of(2));
    }

    #[test]
    fn respect_pins_false_moves_everything() {
        let (g, sys) = worked();
        let start = Assignment::identity(4);
        let pinned = [true; 4];
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = RefineConfig {
            iterations: 50,
            respect_pins: false,
            model: EvaluationModel::Precedence,
            exchange_pool: 0,
        };
        let out = refine(&g, &sys, &start, &pinned, 14, &cfg, &mut rng).unwrap();
        assert!(
            out.reached_lower_bound,
            "full shuffle should find the optimum"
        );
    }

    #[test]
    fn all_pinned_is_a_noop() {
        let (g, sys) = worked();
        let start = Assignment::identity(4);
        let mut rng = StdRng::seed_from_u64(4);
        let out = refine(
            &g,
            &sys,
            &start,
            &[true; 4],
            0,
            &RefineConfig::paper(4),
            &mut rng,
        )
        .unwrap();
        assert_eq!(out.iterations_used, 0);
        assert_eq!(out.assignment, start);
    }

    #[test]
    fn size_mismatch_rejected() {
        let (g, sys) = worked();
        let mut rng = StdRng::seed_from_u64(5);
        // The error names the length that is actually wrong.
        for (start_len, pinned_len) in [(3, 4), (4, 3)] {
            let err = refine(
                &g,
                &sys,
                &Assignment::identity(start_len),
                &vec![true; pinned_len],
                0,
                &RefineConfig::paper(4),
                &mut rng,
            )
            .unwrap_err();
            assert_eq!(err, GraphError::SizeMismatch { left: 3, right: 4 });
        }
    }

    #[test]
    fn never_worse_than_start() {
        let (g, sys) = worked();
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..10 {
            let start = Assignment::random(4, &mut rng);
            let t0 = evaluate_assignment(&g, &sys, &start, EvaluationModel::Precedence)
                .unwrap()
                .total();
            let out = refine(
                &g,
                &sys,
                &start,
                &[false; 4],
                14,
                &RefineConfig::paper(4),
                &mut rng,
            )
            .unwrap();
            assert!(out.total <= t0);
        }
    }

    #[test]
    fn exchange_pool_zero_leaves_the_rng_and_result_unchanged() {
        let (g, sys) = worked();
        let bad = Assignment::from_sys_of(vec![3, 2, 1, 0]).unwrap();
        let run = |pool: usize| {
            let mut rng = StdRng::seed_from_u64(13);
            let cfg = RefineConfig {
                iterations: 3,
                exchange_pool: pool,
                ..RefineConfig::paper(4)
            };
            let out = refine(&g, &sys, &bad, &[false; 4], 0, &cfg, &mut rng).unwrap();
            (out, rng.gen_range(0..u64::MAX))
        };
        let (base, stream_base) = run(0);
        let (pooled, stream_pooled) = run(16);
        // The exchange pass draws nothing from the RNG...
        assert_eq!(stream_base, stream_pooled);
        // ...and only ever improves on the random rounds' result.
        assert!(pooled.total <= base.total);
        assert!(pooled.iterations_used >= base.iterations_used);
    }

    #[test]
    fn exchange_pass_finds_the_worked_optimum_without_randomness() {
        let (g, sys) = worked();
        let bad = Assignment::from_sys_of(vec![3, 2, 1, 0]).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = RefineConfig {
            iterations: 0,
            exchange_pool: 64,
            ..RefineConfig::paper(4)
        };
        let out = refine(&g, &sys, &bad, &[false; 4], 14, &cfg, &mut rng).unwrap();
        // Pure exchange descent from the reversed placement reaches a
        // strictly better total (the worked ring is swap-connected).
        assert!(out.total < out.initial_total);
        assert!(out.improvements >= 1);
    }

    #[test]
    fn best_swaps_is_the_head_of_the_full_ranking() {
        // Few distinct gains, so most of the order is decided by ids;
        // offered in an order unrelated to the ranking.
        let mut rng = StdRng::seed_from_u64(17);
        let mut all: Vec<(i64, usize, usize)> = (0..40)
            .flat_map(|a| (a + 1..40).map(move |b| (a, b)))
            .map(|(a, b)| (rng.gen_range(-3i64..4), a, b))
            .collect();
        fisher_yates(&mut all, &mut rng);
        let mut full = all.clone();
        full.sort_by(|x, y| y.0.cmp(&x.0).then(x.1.cmp(&y.1)).then(x.2.cmp(&y.2)));
        let mut best = BestSwaps::default();
        for budget in [
            1,
            2,
            63,
            64,
            65,
            all.len() / 2,
            all.len() - 1,
            all.len(),
            all.len() + 5,
            usize::MAX,
        ] {
            best.restart(budget);
            all.iter().for_each(|&swap| best.offer(swap));
            assert_eq!(
                best.in_order(),
                &full[..budget.min(full.len())],
                "budget {budget}"
            );
        }
    }

    #[test]
    fn a_smaller_exchange_pool_tries_a_prefix_of_a_larger_one() {
        use mimd_taskgraph::clustering::random::random_clustering;
        use mimd_taskgraph::{GeneratorConfig, LayeredDagGenerator};
        use mimd_telemetry::GainLedger;
        // 25 clusters: a round ranks up to 300 pairs, far more than
        // the small pools, fewer than the large one.
        let mut rng = StdRng::seed_from_u64(29);
        let gen = LayeredDagGenerator::new(GeneratorConfig {
            tasks: 140,
            ..GeneratorConfig::default()
        })
        .unwrap();
        let problem = gen.generate(&mut rng);
        let clustering = random_clustering(&problem, 25, &mut rng).unwrap();
        let g = ClusteredProblemGraph::new(problem, clustering).unwrap();
        let sys = mimd_topology::torus2d(5, 5).unwrap();
        let start = Assignment::random(25, &mut rng);
        let run = |pool: usize| {
            let recorder = Recorder::enabled().with_ledger(GainLedger::enabled());
            let cfg = RefineConfig {
                iterations: 0,
                exchange_pool: pool,
                ..RefineConfig::paper(25)
            };
            let out = refine_with(
                &g,
                &sys,
                &start,
                &[false; 25],
                0,
                &cfg,
                &recorder,
                &mut DeltaWorkspace::new(),
                &mut StdRng::seed_from_u64(0),
            )
            .unwrap();
            let accepted: Vec<(i64, Time)> = recorder
                .ledger()
                .snapshot()
                .iter()
                .skip(1) // the baseline entry
                .map(|e| (e.gain, e.total_after))
                .collect();
            (out, accepted)
        };
        let (unbounded, all_accepted) = run(100_000);
        assert!(
            all_accepted.len() >= 3,
            "the instance must exercise re-ranking"
        );
        for pool in [1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 400] {
            let (out, accepted) = run(pool);
            assert_eq!(
                out.iterations_used,
                pool.min(unbounded.iterations_used),
                "pool {pool}"
            );
            assert_eq!(
                accepted[..],
                all_accepted[..accepted.len()],
                "pool {pool}: same swaps in the same order until the budget ends"
            );
            assert!(out.total >= unbounded.total);
        }
    }

    #[test]
    fn refine_with_records_counters() {
        let (g, sys) = worked();
        let bad = Assignment::from_sys_of(vec![3, 2, 1, 0]).unwrap();
        let recorder = Recorder::enabled();
        let mut ws = DeltaWorkspace::new();
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = RefineConfig {
            iterations: 50,
            ..RefineConfig::paper(4)
        };
        let out = refine_with(
            &g,
            &sys,
            &bad,
            &[false; 4],
            14,
            &cfg,
            &recorder,
            &mut ws,
            &mut rng,
        )
        .unwrap();
        let snapshot = recorder.snapshot();
        assert_eq!(
            snapshot.counter("refine.candidates"),
            out.iterations_used as u64
        );
        assert_eq!(snapshot.counter("refine.accepted"), out.improvements as u64);
    }

    #[test]
    fn gain_ledger_telescopes_to_the_makespan_delta() {
        use mimd_telemetry::{split_runs, GainKind, GainLedger};
        let (g, sys) = worked();
        let bad = Assignment::from_sys_of(vec![3, 2, 1, 0]).unwrap();
        let recorder = Recorder::enabled().with_ledger(GainLedger::enabled());
        let mut ws = DeltaWorkspace::new();
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = RefineConfig {
            iterations: 50,
            exchange_pool: 16,
            ..RefineConfig::paper(4)
        };
        let out = refine_with(
            &g,
            &sys,
            &bad,
            &[false; 4],
            14,
            &cfg,
            &recorder,
            &mut ws,
            &mut rng,
        )
        .unwrap();
        let entries = recorder.ledger().snapshot();
        assert_eq!(entries[0].kind, GainKind::Baseline);
        assert_eq!(entries[0].total_after, out.initial_total);
        assert_eq!(entries.len(), out.improvements + 1);
        let runs = split_runs(&entries);
        assert_eq!(runs.len(), 1);
        let summed: i64 = entries.iter().map(|e| e.gain).sum();
        assert_eq!(summed, out.initial_total as i64 - out.total as i64);
        assert_eq!(entries.last().unwrap().total_after, out.total);
    }

    #[test]
    fn refine_with_matches_refine_byte_for_byte() {
        let (g, sys) = worked();
        let bad = Assignment::from_sys_of(vec![2, 3, 0, 1]).unwrap();
        let cfg = RefineConfig {
            iterations: 25,
            ..RefineConfig::paper(4)
        };
        let mut rng_a = StdRng::seed_from_u64(8);
        let plain = refine(&g, &sys, &bad, &[false; 4], 0, &cfg, &mut rng_a).unwrap();
        let mut rng_b = StdRng::seed_from_u64(8);
        let mut ws = DeltaWorkspace::new();
        let with = refine_with(
            &g,
            &sys,
            &bad,
            &[false; 4],
            0,
            &cfg,
            &Recorder::enabled(),
            &mut ws,
            &mut rng_b,
        )
        .unwrap();
        assert_eq!(plain, with);
    }
}
