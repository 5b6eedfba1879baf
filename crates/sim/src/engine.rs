//! The event-driven machine model.
//!
//! State advances through a time-ordered event queue (ties broken by
//! insertion order, so runs are fully deterministic). Three event kinds:
//! task completion, message hop arrival, and processor dispatch checks.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use serde::{Deserialize, Serialize};

use mimd_graph::error::GraphError;
use mimd_graph::Time;
use mimd_taskgraph::{ClusteredProblemGraph, TaskId};
use mimd_topology::SystemGraph;

use mimd_core::Assignment;

use crate::report::SimReport;
use crate::routing::RoutingTable;

/// Machine-model switches.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimConfig {
    /// One task at a time per processor. `false` reproduces the paper's
    /// analytic model (task starts the instant its data is complete).
    pub serialize_processors: bool,
    /// One message at a time per directed channel; messages queue at
    /// each hop. `false` gives unlimited bandwidth (the paper's model).
    pub link_contention: bool,
}

impl SimConfig {
    /// The paper's analytic model: no serialization, no contention.
    pub fn paper() -> Self {
        SimConfig {
            serialize_processors: false,
            link_contention: false,
        }
    }

    /// Fully "realistic" extension: serialization and contention.
    pub fn realistic() -> Self {
        SimConfig {
            serialize_processors: true,
            link_contention: true,
        }
    }
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum Event {
    /// Task finished executing.
    TaskDone(TaskId),
    /// Message `msg` arrived (stored) at node `at`.
    MsgArrive { msg: usize, at: usize },
}

struct Msg {
    dst_task: TaskId,
    dst_proc: usize,
    weight: Time,
}

/// Simulate `graph` mapped by `assignment` onto `system` under `config`
/// with homogeneous (speed-1) processors — the paper's machine model.
pub fn simulate(
    graph: &ClusteredProblemGraph,
    system: &SystemGraph,
    assignment: &Assignment,
    config: SimConfig,
) -> Result<SimReport, GraphError> {
    let ones = vec![1u32; system.len()];
    simulate_heterogeneous(graph, system, assignment, config, &ones)
}

/// Simulate with per-processor slowdown factors: a task of size `s` on
/// processor `p` executes for `s × slowdown[p]` time units. The paper
/// assumes "homogeneous processing elements" (§2.1); this extension
/// models degraded or mixed-generation machines (all factors ≥ 1).
pub fn simulate_heterogeneous(
    graph: &ClusteredProblemGraph,
    system: &SystemGraph,
    assignment: &Assignment,
    config: SimConfig,
    slowdown: &[u32],
) -> Result<SimReport, GraphError> {
    let n = graph.num_tasks();
    let ns = system.len();
    if slowdown.len() != ns {
        return Err(GraphError::SizeMismatch {
            left: slowdown.len(),
            right: ns,
        });
    }
    if slowdown.contains(&0) {
        return Err(GraphError::InvalidParameter(
            "slowdown factors must be >= 1".into(),
        ));
    }
    if graph.num_clusters() != ns {
        return Err(GraphError::SizeMismatch {
            left: graph.num_clusters(),
            right: ns,
        });
    }
    if assignment.len() != ns {
        return Err(GraphError::SizeMismatch {
            left: assignment.len(),
            right: ns,
        });
    }
    let routing = RoutingTable::new(system);
    let problem = graph.problem();
    let proc_of = |t: TaskId| assignment.sys_of(graph.cluster_of(t));

    // Event queue ordered by (time, sequence).
    let mut queue: BinaryHeap<Reverse<(Time, u64, usize)>> = BinaryHeap::new();
    let mut payloads: Vec<Event> = Vec::new();
    let mut seq = 0u64;
    let mut push = |queue: &mut BinaryHeap<Reverse<(Time, u64, usize)>>,
                    payloads: &mut Vec<Event>,
                    time: Time,
                    ev: Event| {
        payloads.push(ev);
        queue.push(Reverse((time, seq, payloads.len() - 1)));
        seq += 1;
    };

    let mut pending = vec![0usize; n]; // unsatisfied dependencies
    let mut started = vec![false; n];
    let mut start = vec![0 as Time; n];
    let mut end = vec![0 as Time; n];
    let mut proc_running: Vec<Option<TaskId>> = vec![None; ns];
    let mut ready: Vec<Vec<TaskId>> = vec![Vec::new(); ns]; // per-processor ready sets
    let mut msgs: Vec<Msg> = Vec::new();
    // Per-directed-channel busy-until (dense ns × ns; fine at ns ≤ 40).
    let mut busy = vec![0 as Time; ns * ns];

    let mut messages_sent = 0usize;
    let mut hops_total = 0u64;
    let mut link_wait_total: Time = 0;

    for (t, count) in pending.iter_mut().enumerate() {
        *count = problem.predecessors(t).len();
    }

    // Closure-free helpers would need too much plumbing; keep the loop
    // explicit instead.
    let mut queue_push = |time: Time,
                          ev: Event,
                          q: &mut BinaryHeap<Reverse<(Time, u64, usize)>>,
                          p: &mut Vec<Event>| {
        push(q, p, time, ev);
    };

    // Seed: source tasks are ready at time 0.
    for (t, &count) in pending.iter().enumerate() {
        if count == 0 {
            let p = proc_of(t);
            ready[p].push(t);
        }
    }
    // Dispatch initial tasks.
    for p in 0..ns {
        dispatch(
            p,
            0,
            config,
            slowdown[p],
            &mut ready[p],
            &mut proc_running[p],
            &mut started,
            &mut start,
            &mut end,
            problem,
            &mut |time, ev| queue_push(time, ev, &mut queue, &mut payloads),
        );
    }

    // Process events in time order; all events sharing a timestamp are
    // applied before any dispatch decision, so readiness ties resolve by
    // task id exactly like the analytic list scheduler.
    while let Some(&Reverse((now, _, _))) = queue.peek() {
        let mut touched: Vec<usize> = Vec::new();
        while let Some(&Reverse((t, _, _))) = queue.peek() {
            if t != now {
                break;
            }
            let Reverse((_, _, idx)) = queue.pop().expect("peeked");
            match payloads[idx].clone() {
                Event::TaskDone(t) => {
                    let p = proc_of(t);
                    if config.serialize_processors && proc_running[p] == Some(t) {
                        proc_running[p] = None;
                    }
                    touched.push(p);
                    // Satisfy successors: local ones immediately, remote
                    // ones via messages.
                    for (v, w) in problem.successors(t) {
                        if graph.clustering().same_cluster(t, v) {
                            // Same cluster: satisfied the moment t ends.
                            pending[v] -= 1;
                            if pending[v] == 0 {
                                let pv = proc_of(v);
                                ready[pv].push(v);
                                touched.push(pv);
                            }
                        } else {
                            let dst_proc = proc_of(v);
                            messages_sent += 1;
                            msgs.push(Msg {
                                dst_task: v,
                                dst_proc,
                                weight: w,
                            });
                            let msg = msgs.len() - 1;
                            let nh = routing.next_hop(p, dst_proc);
                            let (depart, wait) = channel_depart(
                                &mut busy,
                                ns,
                                p,
                                nh,
                                now,
                                w,
                                config.link_contention,
                            );
                            link_wait_total += wait;
                            hops_total += 1;
                            queue_push(
                                depart + w,
                                Event::MsgArrive { msg, at: nh },
                                &mut queue,
                                &mut payloads,
                            );
                        }
                    }
                }
                Event::MsgArrive { msg, at } => {
                    let m = &msgs[msg];
                    if at == m.dst_proc {
                        let v = m.dst_task;
                        pending[v] -= 1;
                        if pending[v] == 0 {
                            let pv = proc_of(v);
                            ready[pv].push(v);
                            touched.push(pv);
                        }
                    } else {
                        let w = m.weight;
                        let dst = m.dst_proc;
                        let nh = routing.next_hop(at, dst);
                        let (depart, wait) =
                            channel_depart(&mut busy, ns, at, nh, now, w, config.link_contention);
                        link_wait_total += wait;
                        hops_total += 1;
                        queue_push(
                            depart + w,
                            Event::MsgArrive { msg, at: nh },
                            &mut queue,
                            &mut payloads,
                        );
                    }
                }
            }
        }
        touched.sort_unstable();
        touched.dedup();
        for p in touched {
            dispatch(
                p,
                now,
                config,
                slowdown[p],
                &mut ready[p],
                &mut proc_running[p],
                &mut started,
                &mut start,
                &mut end,
                problem,
                &mut |time, ev| queue_push(time, ev, &mut queue, &mut payloads),
            );
        }
    }

    if started.iter().any(|&s| !s) {
        return Err(GraphError::InvalidParameter(
            "simulation deadlocked: some task never became ready".into(),
        ));
    }
    let total = end.iter().copied().max().unwrap_or(0);
    Ok(SimReport {
        start,
        end,
        total,
        messages_sent,
        hops_total,
        link_wait_total,
        config,
    })
}

/// When may a message leave `from -> to` given channel occupancy?
/// Returns `(departure time, wait)` and books the channel.
fn channel_depart(
    busy: &mut [Time],
    ns: usize,
    from: usize,
    to: usize,
    now: Time,
    weight: Time,
    contention: bool,
) -> (Time, Time) {
    if !contention {
        return (now, 0);
    }
    let ch = from * ns + to;
    let depart = now.max(busy[ch]);
    busy[ch] = depart + weight;
    (depart, depart - now)
}

/// Start as many ready tasks on processor `p` as the model allows.
#[allow(clippy::too_many_arguments)]
fn dispatch(
    p: usize,
    now: Time,
    config: SimConfig,
    slow: u32,
    ready: &mut Vec<TaskId>,
    running: &mut Option<TaskId>,
    started: &mut [bool],
    start: &mut [Time],
    end: &mut [Time],
    problem: &mimd_taskgraph::ProblemGraph,
    push: &mut impl FnMut(Time, Event),
) {
    if config.serialize_processors {
        if running.is_some() {
            return;
        }
        // Smallest task id among ready (matches the analytic serialized
        // list scheduler's tie-break).
        if let Some(pos) = ready
            .iter()
            .enumerate()
            .min_by_key(|&(_, &t)| t)
            .map(|(pos, _)| pos)
        {
            let t = ready.swap_remove(pos);
            *running = Some(t);
            started[t] = true;
            start[t] = now;
            end[t] = now + problem.size(t) * Time::from(slow);
            push(end[t], Event::TaskDone(t));
        }
    } else {
        // Paper model: every ready task starts immediately.
        for &t in ready.iter() {
            started[t] = true;
            start[t] = now;
            end[t] = now + problem.size(t) * Time::from(slow);
            push(end[t], Event::TaskDone(t));
        }
        ready.clear();
    }
    let _ = p;
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimd_core::evaluate::evaluate_assignment;
    use mimd_core::schedule::EvaluationModel;
    use mimd_taskgraph::clustering::random::random_clustering;
    use mimd_taskgraph::paper;
    use mimd_taskgraph::{GeneratorConfig, LayeredDagGenerator};
    use mimd_topology::{hypercube, ring};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn paper_config_matches_analytic_on_worked_example() {
        let g = paper::worked_example();
        let sys = ring(4).unwrap();
        let a = Assignment::from_sys_of(paper::WORKED_OPTIMAL_ASSIGNMENT.to_vec()).unwrap();
        let sim = simulate(&g, &sys, &a, SimConfig::paper()).unwrap();
        let ana = evaluate_assignment(&g, &sys, &a, EvaluationModel::Precedence).unwrap();
        assert_eq!(sim.total, ana.total());
        assert_eq!(sim.start, ana.schedule.starts());
        assert_eq!(sim.end, ana.schedule.ends());
        assert_eq!(sim.total, 14);
    }

    #[test]
    fn paper_config_matches_analytic_on_random_instances() {
        let gen = LayeredDagGenerator::new(GeneratorConfig {
            tasks: 50,
            ..GeneratorConfig::default()
        })
        .unwrap();
        let sys = hypercube(3).unwrap();
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..8 {
            let p = gen.generate(&mut rng);
            let c = random_clustering(&p, 8, &mut rng).unwrap();
            let g = ClusteredProblemGraph::new(p, c).unwrap();
            let a = Assignment::random(8, &mut rng);
            let sim = simulate(&g, &sys, &a, SimConfig::paper()).unwrap();
            let ana = evaluate_assignment(&g, &sys, &a, EvaluationModel::Precedence).unwrap();
            assert_eq!(sim.total, ana.total(), "DES must equal the analytic model");
            assert_eq!(sim.start, ana.schedule.starts());
        }
    }

    #[test]
    fn serialized_sim_matches_serialized_schedule() {
        let gen = LayeredDagGenerator::new(GeneratorConfig {
            tasks: 40,
            ..GeneratorConfig::default()
        })
        .unwrap();
        let sys = hypercube(2).unwrap();
        let mut rng = StdRng::seed_from_u64(23);
        for _ in 0..8 {
            let p = gen.generate(&mut rng);
            let c = random_clustering(&p, 4, &mut rng).unwrap();
            let g = ClusteredProblemGraph::new(p, c).unwrap();
            let a = Assignment::random(4, &mut rng);
            let cfg = SimConfig {
                serialize_processors: true,
                link_contention: false,
            };
            let sim = simulate(&g, &sys, &a, cfg).unwrap();
            let ana = evaluate_assignment(&g, &sys, &a, EvaluationModel::Serialized).unwrap();
            assert_eq!(sim.total, ana.total(), "serialized DES vs list scheduler");
        }
    }

    #[test]
    fn contention_never_speeds_things_up() {
        let gen = LayeredDagGenerator::new(GeneratorConfig {
            tasks: 60,
            ..GeneratorConfig::default()
        })
        .unwrap();
        let sys = ring(6).unwrap();
        let mut rng = StdRng::seed_from_u64(31);
        for _ in 0..5 {
            let p = gen.generate(&mut rng);
            let c = random_clustering(&p, 6, &mut rng).unwrap();
            let g = ClusteredProblemGraph::new(p, c).unwrap();
            let a = Assignment::random(6, &mut rng);
            let free = simulate(&g, &sys, &a, SimConfig::paper()).unwrap();
            let cfg = SimConfig {
                serialize_processors: false,
                link_contention: true,
            };
            let cont = simulate(&g, &sys, &a, cfg).unwrap();
            assert!(cont.total >= free.total);
            assert_eq!(cont.messages_sent, free.messages_sent);
        }
    }

    #[test]
    fn message_statistics_are_sane() {
        let g = paper::worked_example();
        let sys = ring(4).unwrap();
        let a = Assignment::from_sys_of(paper::WORKED_OPTIMAL_ASSIGNMENT.to_vec()).unwrap();
        let sim = simulate(&g, &sys, &a, SimConfig::paper()).unwrap();
        // Every cross-cluster edge sends exactly one message.
        assert_eq!(sim.messages_sent, g.cross_edges().count());
        assert!(sim.hops_total >= sim.messages_sent as u64);
        assert_eq!(sim.link_wait_total, 0, "no contention configured");
    }

    #[test]
    fn size_mismatch_rejected() {
        let g = paper::worked_example();
        let sys5 = ring(5).unwrap();
        let a = Assignment::identity(5);
        assert!(simulate(&g, &sys5, &a, SimConfig::paper()).is_err());
    }
}

#[cfg(test)]
mod hetero_tests {
    use super::*;
    use mimd_taskgraph::paper;
    use mimd_topology::ring;

    fn setup() -> (ClusteredProblemGraph, SystemGraph, Assignment) {
        let g = paper::worked_example();
        let sys = ring(4).unwrap();
        let a = Assignment::from_sys_of(paper::WORKED_OPTIMAL_ASSIGNMENT.to_vec()).unwrap();
        (g, sys, a)
    }

    #[test]
    fn unit_slowdown_equals_homogeneous() {
        let (g, sys, a) = setup();
        let hom = simulate(&g, &sys, &a, SimConfig::paper()).unwrap();
        let het = simulate_heterogeneous(&g, &sys, &a, SimConfig::paper(), &[1, 1, 1, 1]).unwrap();
        assert_eq!(hom, het);
    }

    #[test]
    fn slowing_a_processor_never_speeds_up() {
        let (g, sys, a) = setup();
        let base = simulate(&g, &sys, &a, SimConfig::paper()).unwrap();
        for p in 0..4 {
            let mut slow = vec![1u32; 4];
            slow[p] = 3;
            let het = simulate_heterogeneous(&g, &sys, &a, SimConfig::paper(), &slow).unwrap();
            assert!(het.total >= base.total, "slowing processor {p}");
        }
    }

    #[test]
    fn slowdown_on_critical_processor_extends_makespan() {
        let (g, sys, a) = setup();
        // Processor hosting cluster 0 runs the critical chain's tasks
        // 1, 4, 7, 10; slowing it must extend the total.
        let mut slow = vec![1u32; 4];
        slow[a.sys_of(0)] = 2;
        let het = simulate_heterogeneous(&g, &sys, &a, SimConfig::paper(), &slow).unwrap();
        assert!(het.total > 14);
    }

    #[test]
    fn invalid_slowdowns_rejected() {
        let (g, sys, a) = setup();
        assert!(simulate_heterogeneous(&g, &sys, &a, SimConfig::paper(), &[1, 1]).is_err());
        assert!(simulate_heterogeneous(&g, &sys, &a, SimConfig::paper(), &[0, 1, 1, 1]).is_err());
    }
}
