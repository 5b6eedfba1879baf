//! Mapping-quality attribution: the [`ExplainReport`].
//!
//! The flat pipeline evaluates an assignment and throws the derived
//! quantities away — the communication matrix, the schedule, the
//! per-move gains. This module recomputes all of them *once, exactly*
//! for a finished assignment and packages them as one serde report:
//!
//! * per-processor compute load and the load imbalance ratio;
//! * per-link traffic over the deterministic [`RoutingTable`] routes,
//!   and the most congested link;
//! * the hop (dilation) histogram of every clustered communication;
//! * the schedule's critical path, reconstructed through the
//!   precedence rule that produced the makespan;
//! * the gain ledger the refinement passes recorded
//!   ([`mimd_telemetry::GainEntry`]), i.e. which pass earned how much.
//!
//! Everything in the report is structural and exact — no clocks — and
//! internally consistent by construction: [`ExplainReport::validate`]
//! cross-checks the totals (links vs the hop histogram, loads vs total
//! compute, ledger telescoping), and tests also check the links against
//! the communication-matrix total, summed over the cross edges.

use serde::{Deserialize, Serialize};

use mimd_core::evaluate::evaluate_assignment;
use mimd_core::schedule::EvaluationModel;
use mimd_core::Assignment;
use mimd_graph::error::GraphError;
use mimd_graph::{Time, Weight};
use mimd_taskgraph::ClusteredProblemGraph;
use mimd_telemetry::{split_runs, GainEntry};
use mimd_topology::SystemGraph;

use crate::routing::RoutingTable;

/// Traffic carried by one directed link under the routing tables.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkTraffic {
    /// Source endpoint of the link.
    pub from: usize,
    /// Destination endpoint of the link.
    pub to: usize,
    /// Total communication weight routed over this link.
    pub traffic: u64,
}

/// All communications at one routing distance.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct HopBin {
    /// Routing distance in hops (0 = co-located endpoints).
    pub hops: u32,
    /// Number of clustered edges at this distance.
    pub messages: u64,
    /// Their summed communication weight.
    pub weight: u64,
    /// Their summed cost, `weight × hops` (0 for co-located).
    pub cost: u64,
}

/// One task on the schedule's critical path.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CriticalStep {
    /// The task.
    pub task: usize,
    /// The cluster holding it.
    pub cluster: usize,
    /// The processor hosting that cluster.
    pub proc: usize,
    /// Scheduled start time.
    pub start: u64,
    /// Scheduled end time.
    pub end: u64,
}

/// The full quality-attribution report for one finished assignment.
///
/// Exact and deterministic: every field is derived arithmetically from
/// the graph, system, assignment and ledger — re-running the same
/// mapping yields a byte-identical report.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExplainReport {
    /// Number of tasks in the problem graph.
    pub tasks: usize,
    /// Number of clusters (= processors, the paper's `na = ns`).
    pub clusters: usize,
    /// Number of processors.
    pub processors: usize,
    /// The evaluation model the schedule was computed under.
    pub model: EvaluationModel,
    /// The schedule makespan.
    pub makespan: u64,
    /// Σ task sizes.
    pub total_compute: u64,
    /// Per-processor compute load, indexed by processor id.
    pub loads: Vec<u64>,
    /// Largest per-processor load.
    pub max_load: u64,
    /// Smallest per-processor load.
    pub min_load: u64,
    /// Load imbalance `max_load / mean_load`, scaled by 1000 (1000 =
    /// perfectly balanced; 0 when there is no compute).
    pub imbalance_x1000: u64,
    /// Σ clustered cross-edge weight (before dilation).
    pub total_comm_weight: u64,
    /// Σ `weight × hops` — the routed communication volume. Matches
    /// the sum of the paper's §4.3.4 communication matrix.
    pub total_traffic: u64,
    /// Mean hops per unit of communication weight, scaled by 1000
    /// (0 when nothing communicates).
    pub dilation_x1000: u64,
    /// Per-directed-link traffic, lexicographic by `(from, to)`; links
    /// carrying nothing are omitted.
    pub links: Vec<LinkTraffic>,
    /// The most congested link's traffic (0 on an empty report).
    pub max_link_traffic: u64,
    /// Communications bucketed by routing distance, ascending; empty
    /// distances are omitted.
    pub hop_histogram: Vec<HopBin>,
    /// The critical path, source to sink: each task's start is pinned
    /// by its predecessor's finish plus the message flight time.
    pub critical_path: Vec<CriticalStep>,
    /// The gain ledger recorded by the refinement passes (empty when
    /// no ledger was attached).
    pub ledger: Vec<GainEntry>,
}

impl ExplainReport {
    /// Compute the report for `assignment` of `graph` on `system` under
    /// `model`, attaching `ledger` (pass `Vec::new()` when no ledger
    /// was recorded). Routes are taken from `routing`, which must have
    /// been built for `system`.
    pub fn compute(
        graph: &ClusteredProblemGraph,
        system: &SystemGraph,
        routing: &RoutingTable,
        assignment: &Assignment,
        model: EvaluationModel,
        ledger: Vec<GainEntry>,
    ) -> Result<Self, GraphError> {
        let evaluation = evaluate_assignment(graph, system, assignment, model)?;
        let schedule = &evaluation.schedule;
        let problem = graph.problem();
        let np = system.len();

        // Per-processor compute loads.
        let mut loads = vec![0u64; np];
        for t in 0..problem.len() {
            let proc = assignment.sys_of(graph.cluster_of(t));
            loads[proc] += problem.size(t);
        }
        let total_compute: u64 = loads.iter().sum();
        let max_load = loads.iter().copied().max().unwrap_or(0);
        let min_load = loads.iter().copied().min().unwrap_or(0);
        let imbalance_x1000 = (max_load * np as u64 * 1000)
            .checked_div(total_compute)
            .unwrap_or(0);

        // Route every clustered communication and tally links + hops.
        let mut link_traffic: std::collections::BTreeMap<(usize, usize), u64> =
            std::collections::BTreeMap::new();
        let mut hop_bins: std::collections::BTreeMap<u32, (u64, u64, u64)> =
            std::collections::BTreeMap::new();
        let mut total_comm_weight = 0u64;
        let mut total_traffic = 0u64;
        for (u, v, w) in graph.cross_edges() {
            let su = assignment.sys_of(graph.cluster_of(u));
            let sv = assignment.sys_of(graph.cluster_of(v));
            let hops = system.hops(su, sv);
            total_comm_weight += w;
            total_traffic += w * u64::from(hops);
            let bin = hop_bins.entry(hops).or_insert((0, 0, 0));
            bin.0 += 1;
            bin.1 += w;
            bin.2 += w * u64::from(hops);
            let mut cur = su;
            for hop in routing.route(su, sv) {
                *link_traffic.entry((cur, hop)).or_insert(0) += w;
                cur = hop;
            }
        }
        let links: Vec<LinkTraffic> = link_traffic
            .into_iter()
            .map(|((from, to), traffic)| LinkTraffic { from, to, traffic })
            .collect();
        let max_link_traffic = links.iter().map(|l| l.traffic).max().unwrap_or(0);
        let hop_histogram: Vec<HopBin> = hop_bins
            .into_iter()
            .map(|(hops, (messages, weight, cost))| HopBin {
                hops,
                messages,
                weight,
                cost,
            })
            .collect();
        let dilation_x1000 = (total_traffic * 1000)
            .checked_div(total_comm_weight)
            .unwrap_or(0);

        // Critical path: from the (lowest-id) task finishing at the
        // makespan, repeatedly step to the predecessor whose finish +
        // message flight pins the start (ties to the lowest task id) —
        // exactly the precedence rule the schedule was computed with.
        let comm = |u: usize, v: usize, w: Weight| -> Time {
            if graph.clustering().same_cluster(u, v) {
                0
            } else {
                let su = assignment.sys_of(graph.cluster_of(u));
                let sv = assignment.sys_of(graph.cluster_of(v));
                w * Time::from(system.hops(su, sv))
            }
        };
        let mut critical_path = Vec::new();
        if !problem.is_empty() {
            let sink = schedule
                .latest_tasks()
                .into_iter()
                .min()
                .expect("non-empty schedule has a latest task");
            let mut cur = sink;
            loop {
                critical_path.push(CriticalStep {
                    task: cur,
                    cluster: graph.cluster_of(cur),
                    proc: assignment.sys_of(graph.cluster_of(cur)),
                    start: schedule.start(cur),
                    end: schedule.end(cur),
                });
                let next = problem
                    .predecessors(cur)
                    .map(|(u, w)| (schedule.end(u) + comm(u, cur, w), u))
                    .max_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)))
                    .map(|(_, u)| u);
                match next {
                    Some(u) => cur = u,
                    None => break,
                }
            }
            critical_path.reverse();
        }

        Ok(ExplainReport {
            tasks: problem.len(),
            clusters: graph.num_clusters(),
            processors: np,
            model,
            makespan: schedule.total(),
            total_compute,
            loads,
            max_load,
            min_load,
            imbalance_x1000,
            total_comm_weight,
            total_traffic,
            dilation_x1000,
            links,
            max_link_traffic,
            hop_histogram,
            critical_path,
            ledger,
        })
    }

    /// Cross-check the report's internal invariants, returning the
    /// first violated one as an error message:
    ///
    /// * Σ per-link traffic = Σ hop-bin cost = `total_traffic`;
    /// * Σ per-processor loads = `total_compute`;
    /// * each hop bin satisfies `cost = weight × hops`;
    /// * within each ledger run (baseline to baseline), the summed
    ///   gains telescope to `first.total_after - last.total_after`;
    /// * the critical path ends at the makespan and is contiguous
    ///   (each start ≥ the previous end).
    pub fn validate(&self) -> Result<(), String> {
        let link_sum: u64 = self.links.iter().map(|l| l.traffic).sum();
        if link_sum != self.total_traffic {
            return Err(format!(
                "link traffic sums to {link_sum}, total_traffic is {}",
                self.total_traffic
            ));
        }
        let cost_sum: u64 = self.hop_histogram.iter().map(|b| b.cost).sum();
        if cost_sum != self.total_traffic {
            return Err(format!(
                "hop-bin cost sums to {cost_sum}, total_traffic is {}",
                self.total_traffic
            ));
        }
        for bin in &self.hop_histogram {
            if bin.cost != bin.weight * u64::from(bin.hops) {
                return Err(format!("hop bin {} cost mismatch", bin.hops));
            }
        }
        let load_sum: u64 = self.loads.iter().sum();
        if load_sum != self.total_compute {
            return Err(format!(
                "loads sum to {load_sum}, total_compute is {}",
                self.total_compute
            ));
        }
        let weight_sum: u64 = self.hop_histogram.iter().map(|b| b.weight).sum();
        if weight_sum != self.total_comm_weight {
            return Err(format!(
                "hop-bin weight sums to {weight_sum}, total_comm_weight is {}",
                self.total_comm_weight
            ));
        }
        for run in split_runs(&self.ledger) {
            let summed: i64 = run.iter().map(|e| e.gain).sum();
            let first = run.first().expect("runs are non-empty");
            let last = run.last().expect("runs are non-empty");
            if summed != first.total_after as i64 - last.total_after as i64 {
                return Err(format!(
                    "ledger run starting at step {} does not telescope: \
                     gains sum to {summed}, totals go {} -> {}",
                    first.step, first.total_after, last.total_after
                ));
            }
        }
        if let Some(last) = self.critical_path.last() {
            if last.end != self.makespan {
                return Err(format!(
                    "critical path ends at {}, makespan is {}",
                    last.end, self.makespan
                ));
            }
        }
        for pair in self.critical_path.windows(2) {
            if pair[1].start < pair[0].end {
                return Err(format!(
                    "critical path tasks {} -> {} overlap in time",
                    pair[0].task, pair[1].task
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimd_taskgraph::paper;
    use mimd_topology::ring;

    fn report_for(sys_of: Vec<usize>) -> ExplainReport {
        let graph = paper::worked_example();
        let system = ring(4).unwrap();
        let routing = RoutingTable::new(&system);
        let assignment = Assignment::from_sys_of(sys_of).unwrap();
        ExplainReport::compute(
            &graph,
            &system,
            &routing,
            &assignment,
            EvaluationModel::Precedence,
            Vec::new(),
        )
        .unwrap()
    }

    #[test]
    fn worked_example_report_is_exact_and_consistent() {
        let report = report_for(paper::WORKED_OPTIMAL_ASSIGNMENT.to_vec());
        report.validate().expect("consistent");
        assert_eq!(report.makespan, paper::WORKED_LOWER_BOUND);
        assert_eq!(report.processors, 4);
        assert_eq!(
            report.total_compute,
            paper::worked_example()
                .problem()
                .sizes()
                .iter()
                .sum::<u64>()
        );
        // Link traffic equals the communication-matrix total: every
        // cross edge's weight times the hops between its processors.
        let graph = paper::worked_example();
        let system = ring(4).unwrap();
        let assignment =
            Assignment::from_sys_of(paper::WORKED_OPTIMAL_ASSIGNMENT.to_vec()).unwrap();
        let on = |t| assignment.sys_of(graph.cluster_of(t));
        let matrix_total: u64 = (graph.cross_edges())
            .map(|(u, v, w)| w * u64::from(system.hops(on(u), on(v))))
            .sum();
        assert_eq!(report.total_traffic, matrix_total);
    }

    #[test]
    fn bad_assignment_reports_more_traffic_than_optimum() {
        let good = report_for(paper::WORKED_OPTIMAL_ASSIGNMENT.to_vec());
        let bad = report_for(vec![3, 2, 1, 0]);
        bad.validate().expect("consistent");
        assert!(bad.makespan >= good.makespan);
        // Both decompose their traffic identically.
        assert_eq!(
            good.total_comm_weight, bad.total_comm_weight,
            "cut weight is assignment-independent"
        );
    }

    #[test]
    fn critical_path_is_contiguous_and_ends_at_makespan() {
        let report = report_for(vec![3, 2, 1, 0]);
        assert!(!report.critical_path.is_empty());
        let first = report.critical_path.first().unwrap();
        let last = report.critical_path.last().unwrap();
        assert_eq!(first.start, 0, "critical path starts at a source");
        assert_eq!(last.end, report.makespan);
        report.validate().expect("consistent");
    }

    #[test]
    fn hop_histogram_covers_every_cross_edge() {
        let report = report_for(vec![0, 1, 2, 3]);
        let graph = paper::worked_example();
        let cross = graph.cross_edges().count() as u64;
        let messages: u64 = report.hop_histogram.iter().map(|b| b.messages).sum();
        assert_eq!(messages, cross);
    }

    #[test]
    fn report_round_trips_through_serde() {
        let report = report_for(paper::WORKED_OPTIMAL_ASSIGNMENT.to_vec());
        let json = serde_json::to_string(&report).unwrap();
        let back: ExplainReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn validate_rejects_tampered_totals() {
        let mut report = report_for(vec![0, 1, 2, 3]);
        report.total_traffic += 1;
        assert!(report.validate().is_err());
    }
}
