//! Input generation: every job spec, churn trace and request line a
//! workload feeds the product is made here from `--seed`, and the
//! product sees nothing else. The same seed gives byte-identical
//! inputs; a different seed gives different job seeds, session seeds,
//! random topologies and traces.

use crate::layers::{
    self, AlgorithmSpec, JobSpec, Request, TopologySpec, TraceEvent, TraceHeader, WorkloadSpec,
};
use crate::stats::mix;

/// Full size (what `BENCHMARK.json` measures) or about a tenth of it
/// (`--smoke`: every code path, no meaningful timing).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the README documents.
    Full,
    /// Roughly a tenth: smaller machines, fewer ops.
    Smoke,
}

/// Seeds stay below 2^48 so they survive any JSON reader exactly.
fn seed_for(seed: u64, stream: u64, index: u64) -> u64 {
    mix(seed, stream, index) >> 16
}

/// Distinct streams of [`mix`], one per use, so no two inputs share a
/// derived seed.
mod stream {
    pub const FLAT: u64 = 1;
    pub const VCYCLE: u64 = 2;
    pub const COLD_JOB: u64 = 3;
    pub const COLD_TOPOLOGY: u64 = 4;
    pub const CHURN_GRAPH: u64 = 5;
    pub const CHURN_SESSION: u64 = 6;
    pub const SERVE_GRAPH: u64 = 7;
    pub const SERVE_SESSION: u64 = 8;
    pub const SERVE_MAP_ONCE: u64 = 9;
    /// Added to a stream for its warm-up inputs.
    pub const WARMUP: u64 = 100;
}

fn layered(tasks: usize) -> WorkloadSpec {
    WorkloadSpec::Layered { tasks, width: None }
}

fn paper(exchange_pool: usize) -> AlgorithmSpec {
    AlgorithmSpec::Paper {
        refine_iterations: None,
        exchange_pool,
    }
}

fn multilevel() -> AlgorithmSpec {
    AlgorithmSpec::Multilevel {
        direct_threshold: None,
        refine_rounds: None,
        refine_batch: None,
        refine_threads: None,
    }
}

fn job(
    workload: WorkloadSpec,
    topology: TopologySpec,
    topology_seed: Option<u64>,
    algorithm: AlgorithmSpec,
    seed: u64,
) -> JobSpec {
    JobSpec {
        id: None,
        workload,
        clustering: None,
        topology,
        topology_seed,
        algorithm,
        seed,
    }
}

/// The jobs of one rep, plus the warm-up jobs set-up runs first.
#[derive(Clone, Debug, PartialEq)]
pub struct JobInputs {
    /// Run once during set-up, results discarded.
    pub warmup: Vec<JobSpec>,
    /// One rep: mapped one at a time, in this order.
    pub jobs: Vec<JobSpec>,
}

#[cfg(test)]
impl JobInputs {
    /// The inputs as JSON lines (warm-up first) — what the determinism
    /// tests compare byte for byte.
    pub fn lines(&self) -> Vec<String> {
        self.warmup
            .iter()
            .chain(&self.jobs)
            .map(layers::job_json)
            .collect()
    }
}

/// `flat_batch`: `layered:512` on alternating `torus:16x16` /
/// `hypercube:8`, algorithm `paper`; every fourth job runs the
/// gain-ranked exchange pass (`exchange_pool` 64).
pub fn flat_batch(seed: u64, scale: Scale) -> JobInputs {
    let (count, tasks, machines) = match scale {
        Scale::Full => (
            32,
            512,
            [
                TopologySpec::Torus { rows: 16, cols: 16 },
                TopologySpec::Hypercube { dim: 8 },
            ],
        ),
        Scale::Smoke => (
            8,
            128,
            [
                TopologySpec::Torus { rows: 8, cols: 8 },
                TopologySpec::Hypercube { dim: 6 },
            ],
        ),
    };
    let spec = |machine: usize, pool: usize, seed: u64| {
        job(
            layered(tasks),
            machines[machine].clone(),
            None,
            paper(pool),
            seed,
        )
    };
    JobInputs {
        warmup: (0..2)
            .map(|m| {
                spec(
                    m,
                    0,
                    seed_for(seed, stream::FLAT + stream::WARMUP, m as u64),
                )
            })
            .collect(),
        jobs: (0..count)
            .map(|i| {
                let pool = if i % 4 == 3 { 64 } else { 0 };
                spec(i % 2, pool, seed_for(seed, stream::FLAT, i as u64))
            })
            .collect(),
    }
}

/// `vcycle_scale`: `layered:4096` on `torus:32x32` and `hypercube:10`
/// alternating, algorithm `multilevel` with defaults.
pub fn vcycle_scale(seed: u64, scale: Scale) -> JobInputs {
    let (count, tasks, machines) = match scale {
        Scale::Full => (
            4,
            4096,
            [
                TopologySpec::Torus { rows: 32, cols: 32 },
                TopologySpec::Hypercube { dim: 10 },
            ],
        ),
        Scale::Smoke => (
            2,
            1024,
            [
                TopologySpec::Torus { rows: 16, cols: 16 },
                TopologySpec::Hypercube { dim: 8 },
            ],
        ),
    };
    let spec = |machine: usize, seed: u64| {
        job(
            layered(tasks),
            machines[machine].clone(),
            None,
            multilevel(),
            seed,
        )
    };
    JobInputs {
        warmup: (0..2)
            .map(|m| spec(m, seed_for(seed, stream::VCYCLE + stream::WARMUP, m as u64)))
            .collect(),
        jobs: (0..count)
            .map(|i| spec(i % 2, seed_for(seed, stream::VCYCLE, i as u64)))
            .collect(),
    }
}

/// `topo_cold`: every job names a machine no earlier job of the rep
/// named — sixteen seeded `random:1024@0.004` machines and eight
/// regular ones — with workload `layered:<ns>`; two of three jobs run
/// `random` (k = 1), every third `multilevel`. The warm-up jobs name
/// two machines the rep never does, so set-up warms the process and
/// leaves the rep's machines cold.
pub fn topo_cold(seed: u64, scale: Scale) -> JobInputs {
    let (random_machines, random_n, random_p, regular, warm) = match scale {
        Scale::Full => (
            16,
            1024,
            0.004,
            vec![
                TopologySpec::Torus { rows: 32, cols: 32 },
                TopologySpec::Torus { rows: 16, cols: 64 },
                TopologySpec::Mesh { rows: 32, cols: 32 },
                TopologySpec::Mesh { rows: 16, cols: 64 },
                TopologySpec::Hypercube { dim: 10 },
                TopologySpec::ClusteredComplete {
                    groups: 32,
                    group_size: 32,
                },
                TopologySpec::ClusteredComplete {
                    groups: 16,
                    group_size: 64,
                },
                TopologySpec::FatTree {
                    levels: 5,
                    arity: 4,
                },
            ],
            [
                TopologySpec::Mesh { rows: 24, cols: 24 },
                TopologySpec::Torus { rows: 24, cols: 24 },
            ],
        ),
        Scale::Smoke => (
            3,
            256,
            0.016,
            vec![
                TopologySpec::Torus { rows: 16, cols: 16 },
                TopologySpec::Hypercube { dim: 8 },
                TopologySpec::FatTree {
                    levels: 4,
                    arity: 4,
                },
            ],
            [
                TopologySpec::Mesh { rows: 8, cols: 8 },
                TopologySpec::Torus { rows: 8, cols: 8 },
            ],
        ),
    };
    let mut machines: Vec<(TopologySpec, Option<u64>)> = (0..random_machines)
        .map(|k| {
            (
                TopologySpec::Random {
                    n: random_n,
                    p: random_p,
                },
                Some(seed_for(seed, stream::COLD_TOPOLOGY, k)),
            )
        })
        .collect();
    machines.extend(regular.into_iter().map(|t| (t, None)));
    let algorithm = |i: usize| {
        if i % 3 == 2 {
            multilevel()
        } else {
            AlgorithmSpec::Random { k: 1 }
        }
    };
    let spec = |i: usize, topology: TopologySpec, topology_seed: Option<u64>, seed: u64| {
        let tasks = layers::node_count(&topology);
        job(layered(tasks), topology, topology_seed, algorithm(i), seed)
    };
    JobInputs {
        // Index 1 and 2 give the warm-up one `random` and one
        // `multilevel` job.
        warmup: warm
            .into_iter()
            .enumerate()
            .map(|(m, t)| {
                spec(
                    m + 1,
                    t,
                    None,
                    seed_for(seed, stream::COLD_JOB + stream::WARMUP, m as u64),
                )
            })
            .collect(),
        jobs: machines
            .into_iter()
            .enumerate()
            .map(|(i, (t, ts))| spec(i, t, ts, seed_for(seed, stream::COLD_JOB, i as u64)))
            .collect(),
    }
}

/// One session's inputs: the `open_session` line, the events to apply
/// and (on `serve_small`) a `map_once` line sent right after the open.
#[derive(Clone, Debug, PartialEq)]
pub struct SessionInput {
    /// The session seed carried by the open line.
    pub seed: u64,
    /// The trace header carried by the open line.
    pub header: TraceHeader,
    /// `{"op":"open_session",…}` exactly as sent.
    pub open_line: String,
    /// The events, in order.
    pub events: Vec<TraceEvent>,
    /// `events[i]` as the JSON an `apply` line embeds.
    pub event_json: Vec<String>,
    /// A `{"op":"map_once",…}` line whose job id is `m<index>`.
    pub map_once_line: Option<String>,
}

impl SessionInput {
    /// The `apply` line for event `index` of session id `session`.
    pub fn apply_line(&self, session: u64, index: usize) -> String {
        apply_line(session, &self.event_json[index])
    }

    /// Everything the product is sent for this session, with the
    /// session id left as `0`.
    #[cfg(test)]
    pub fn lines(&self) -> Vec<String> {
        let mut lines = vec![self.open_line.clone()];
        lines.extend(self.map_once_line.clone());
        lines.extend((0..self.events.len()).map(|i| self.apply_line(0, i)));
        lines.push(close_line(0));
        lines
    }
}

/// `{"op":"apply","session":<id>,"event":<json>}` — spelled by hand so
/// a client can write it per request without building a value tree; a
/// test holds it equal to `Request::Apply`'s own serialization.
pub fn apply_line(session: u64, event_json: &str) -> String {
    format!("{{\"op\":\"apply\",\"session\":{session},\"event\":{event_json}}}")
}

/// `{"op":"close_session","session":<id>}`.
pub fn close_line(session: u64) -> String {
    format!("{{\"op\":\"close_session\",\"session\":{session}}}")
}

/// A session on `topology`: a `layered:<tasks>` instance clustered onto
/// the machine, and `events` `mixed` churn events against it.
fn session(
    topology: &TopologySpec,
    tasks: usize,
    events: usize,
    graph_seed: u64,
    session_seed: u64,
) -> SessionInput {
    let mut rng = layers::job_rng(graph_seed);
    let ns = layers::node_count(topology);
    let problem = layers::workload_build(&layered(tasks), &mut rng)
        .expect("a layered workload of a fixed size builds");
    let clustering =
        layers::clustering_build(layers::ClusteringSpec::Region, &problem, ns, &mut rng)
            .expect("np >= ns clusters");
    let base = layers::clustered_new(problem, clustering).expect("clustering covers the problem");
    let events = layers::churn(&base, events, &mut rng);
    let header = layers::trace_header(topology.clone(), &base);
    let open_line = layers::request_line(&Request::OpenSession {
        header: header.clone(),
        seed: session_seed,
        config: None,
    });
    SessionInput {
        seed: session_seed,
        header,
        open_line,
        event_json: events.iter().map(layers::event_json).collect(),
        events,
        map_once_line: None,
    }
}

/// `replay_churn`: sessions of `layered:512` on `torus:16x16`, 200
/// `mixed` churn events each.
pub fn replay_churn(seed: u64, scale: Scale) -> Vec<SessionInput> {
    let (sessions, topology, tasks, events) = match scale {
        Scale::Full => (5, TopologySpec::Torus { rows: 16, cols: 16 }, 512, 200),
        Scale::Smoke => (2, TopologySpec::Torus { rows: 8, cols: 8 }, 128, 40),
    };
    (0..sessions)
        .map(|k| {
            session(
                &topology,
                tasks,
                events,
                seed_for(seed, stream::CHURN_GRAPH, k),
                seed_for(seed, stream::CHURN_SESSION, k),
            )
        })
        .collect()
}

/// `serve_small`: many short sessions of `layered:16` on `ring:8` with
/// 200 events, each also sending one `map_once` (`fft:4` on
/// `hypercube:3`, `paper`).
pub fn serve_small(seed: u64, scale: Scale) -> Vec<SessionInput> {
    let (sessions, events) = match scale {
        Scale::Full => (200, 200),
        Scale::Smoke => (40, 20),
    };
    let ring = TopologySpec::Ring { n: 8 };
    (0..sessions)
        .map(|k| {
            let mut input = session(
                &ring,
                16,
                events,
                seed_for(seed, stream::SERVE_GRAPH, k),
                seed_for(seed, stream::SERVE_SESSION, k),
            );
            let mut map_once = job(
                WorkloadSpec::Fft { log2n: 4 },
                TopologySpec::Hypercube { dim: 3 },
                None,
                paper(0),
                seed_for(seed, stream::SERVE_MAP_ONCE, k),
            );
            map_once.id = Some(format!("m{k}"));
            input.map_once_line = Some(layers::request_line(&Request::MapOnce { job: map_once }));
            input
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session_lines(sessions: &[SessionInput]) -> Vec<String> {
        sessions.iter().flat_map(SessionInput::lines).collect()
    }

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        for scale in [Scale::Smoke, Scale::Full] {
            assert_eq!(flat_batch(7, scale).lines(), flat_batch(7, scale).lines());
            assert_eq!(
                vcycle_scale(7, scale).lines(),
                vcycle_scale(7, scale).lines()
            );
            assert_eq!(topo_cold(7, scale).lines(), topo_cold(7, scale).lines());
        }
        assert_eq!(
            session_lines(&replay_churn(7, Scale::Smoke)),
            session_lines(&replay_churn(7, Scale::Smoke))
        );
        assert_eq!(
            session_lines(&serve_small(7, Scale::Smoke)),
            session_lines(&serve_small(7, Scale::Smoke))
        );
    }

    #[test]
    fn different_seeds_give_different_inputs() {
        let scale = Scale::Smoke;
        assert_ne!(flat_batch(1, scale).lines(), flat_batch(2, scale).lines());
        assert_ne!(
            vcycle_scale(1, scale).lines(),
            vcycle_scale(2, scale).lines()
        );
        assert_ne!(topo_cold(1, scale).lines(), topo_cold(2, scale).lines());
        assert_ne!(
            session_lines(&replay_churn(1, scale)),
            session_lines(&replay_churn(2, scale))
        );
        assert_ne!(
            session_lines(&serve_small(1, scale)),
            session_lines(&serve_small(2, scale))
        );
    }

    #[test]
    fn no_two_jobs_of_a_rep_share_a_seed() {
        for inputs in [
            flat_batch(1, Scale::Full),
            vcycle_scale(1, Scale::Full),
            topo_cold(1, Scale::Full),
        ] {
            let mut seeds: Vec<u64> = inputs
                .warmup
                .iter()
                .chain(&inputs.jobs)
                .map(|j| j.seed)
                .collect();
            let before = seeds.len();
            seeds.sort_unstable();
            seeds.dedup();
            assert_eq!(seeds.len(), before);
        }
    }

    #[test]
    fn full_sizes_are_the_documented_ones() {
        let flat = flat_batch(1, Scale::Full);
        assert_eq!((flat.warmup.len(), flat.jobs.len()), (2, 32));
        let pools = flat
            .jobs
            .iter()
            .filter(|j| {
                matches!(
                    j.algorithm,
                    AlgorithmSpec::Paper {
                        exchange_pool: 64,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(pools, 8);
        assert_eq!(vcycle_scale(1, Scale::Full).jobs.len(), 4);
        let cold = topo_cold(1, Scale::Full);
        assert_eq!(cold.jobs.len(), 24);
        let multilevel = cold
            .jobs
            .iter()
            .filter(|j| matches!(j.algorithm, AlgorithmSpec::Multilevel { .. }))
            .count();
        assert_eq!(multilevel, 8);
    }

    #[test]
    fn topo_cold_never_names_a_machine_twice() {
        let cold = topo_cold(3, Scale::Full);
        let mut keys: Vec<String> = cold
            .warmup
            .iter()
            .chain(&cold.jobs)
            .map(|j| format!("{:?}#{:?}", j.topology, j.topology_seed))
            .collect();
        let before = keys.len();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), before);
        // np = ns on every job.
        for j in &cold.jobs {
            let WorkloadSpec::Layered { tasks, .. } = j.workload else {
                panic!("topo_cold maps layered workloads");
            };
            assert_eq!(tasks, layers::node_count(&j.topology));
        }
    }

    #[test]
    fn handwritten_lines_equal_the_products_own() {
        let sessions = replay_churn(5, Scale::Smoke);
        let s = &sessions[0];
        for (i, event) in s.events.iter().enumerate().take(10) {
            let own = layers::request_line(&Request::Apply {
                session: 42,
                event: event.clone(),
            });
            assert_eq!(s.apply_line(42, i), own);
        }
        assert_eq!(
            close_line(9),
            layers::request_line(&Request::CloseSession { session: 9 })
        );
        // And the open line parses back to the same request.
        let parsed = layers::parse_request(&s.open_line).unwrap();
        assert_eq!(
            parsed,
            Request::OpenSession {
                header: s.header.clone(),
                seed: s.seed,
                config: None
            }
        );
    }

    #[test]
    fn serve_sessions_carry_an_identified_map_once() {
        let sessions = serve_small(1, Scale::Smoke);
        assert_eq!(sessions.len(), 40);
        for (k, s) in sessions.iter().enumerate() {
            assert_eq!(s.events.len(), 20);
            let line = s.map_once_line.as_deref().unwrap();
            match layers::parse_request(line).unwrap() {
                Request::MapOnce { job } => assert_eq!(job.id, Some(format!("m{k}"))),
                other => panic!("expected map_once, got {other:?}"),
            }
        }
    }
}
