//! The shared Table-1/2/3 experiment driver.
//!
//! §5 of the paper: random problem graphs (30–300 tasks, random node and
//! edge weights) are randomly clustered to `na = ns` clusters and mapped
//! onto a topology; the strategy's total and the mean of several random
//! mappings are reported as percentages over the ideal-graph lower
//! bound.

use rand::rngs::StdRng;
use rand::SeedableRng;

use mimd_baselines::random_map::random_baseline;
use mimd_core::schedule::EvaluationModel;
use mimd_core::{Mapper, MapperConfig};
use mimd_engine::{ClusteringSpec, WorkloadSpec};
use mimd_report::{ExperimentRecord, Histogram, Table};
use mimd_taskgraph::ClusteredProblemGraph;
use mimd_topology::TopologySpec;

/// One table row: a problem size and a topology.
#[derive(Clone, Debug, PartialEq)]
pub struct RowSpec {
    /// Number of tasks np (paper: 30–300).
    pub np: usize,
    /// The system topology.
    pub topology: TopologySpec,
}

/// A whole experiment series (one paper table).
#[derive(Clone, Debug, PartialEq)]
pub struct SeriesConfig {
    /// Name used in titles and records (e.g. `"table1/fig25"`).
    pub name: String,
    /// The rows to run.
    pub rows: Vec<RowSpec>,
    /// Random-mapping repetitions per row.
    pub reps: usize,
    /// Base seed; row `i` uses `seed + i`.
    pub seed: u64,
    /// Mapper configuration (paper defaults unless ablating).
    pub mapper: MapperConfig,
    /// Clustering front-end (the paper's "random clustering program"
    /// is unpublished; the `ablation_clustering` binary compares the
    /// front-ends): `Region` is the default
    /// interpretation, `Iid` the literal reading, and with `Sarkar` the
    /// termination condition fires at paper-like rates.
    pub clustering: ClusteringSpec,
}

/// Rendered and raw outputs of a series.
#[derive(Clone, Debug)]
pub struct SeriesResult {
    /// One record per row.
    pub records: Vec<ExperimentRecord>,
    /// The paper-style table.
    pub table: Table,
    /// The paper-style histogram.
    pub histogram: Histogram,
}

/// Build the standard random problem instance for a row.
///
/// Parameters are chosen to land in the paper's operating regime:
/// wide-ish DAGs whose critical paths are compute-dominated with
/// light communication edges, so that only a few zero-slack (critical)
/// chains exist. That is the regime in which the paper's strategy sits
/// near the lower bound while random mappings pay multi-hop penalties on
/// path edges (their Tables 1–3: ours 100–118%, random 132–188%) and in
/// which the termination condition can actually fire.
///
/// The instance is the engine's ([`WorkloadSpec::PaperRegime`] then
/// [`ClusteringSpec::instance`]), so the harness and the batch engine
/// generate identical instances for identical seeds.
pub fn build_instance(
    np: usize,
    ns: usize,
    clustering: ClusteringSpec,
    rng: &mut StdRng,
) -> ClusteredProblemGraph {
    let problem = WorkloadSpec::PaperRegime { tasks: np }
        .build(rng)
        .expect("generator config is valid");
    clustering
        .instance(problem, ns, rng)
        .expect("1 <= ns <= np")
}

/// Run a series and produce records, table and histogram.
pub fn run_series(config: &SeriesConfig) -> SeriesResult {
    let mapper = Mapper::with_config(config.mapper.clone());
    let mut records = Vec::with_capacity(config.rows.len());
    let mut table = Table::new(
        format!("{} — percentage over lower bound", config.name),
        &[
            "exp",
            "np",
            "ns",
            "topology",
            "ours %",
            "random %",
            "improvement",
            "early-stop",
        ],
    );
    let mut hist = Histogram::new(format!("{} — o = ours, r = random mapping", config.name));

    for (i, row) in config.rows.iter().enumerate() {
        let seed = config.seed + i as u64;
        let mut rng = StdRng::seed_from_u64(seed);
        let system = row
            .topology
            .build(&mut rng)
            .expect("topology spec is valid");
        let ns = system.len();
        let graph = build_instance(row.np, ns, config.clustering, &mut rng);
        let result = mapper
            .map(&graph, &system, &mut rng)
            .expect("na == ns by construction");
        let baseline = random_baseline(
            &graph,
            &system,
            EvaluationModel::Precedence,
            config.reps,
            &mut rng,
        )
        .expect("reps >= 1");

        let ours_pct = 100.0 * result.total_time as f64 / result.lower_bound as f64;
        let rand_pct = 100.0 * baseline.mean / result.lower_bound as f64;
        let record = ExperimentRecord {
            experiment: config.name.clone(),
            index: i + 1,
            seed,
            np: row.np,
            ns,
            topology: row.topology.to_string(),
            lower_bound: result.lower_bound,
            ours_total: result.total_time,
            random_mean: baseline.mean,
            ours_percent: ours_pct,
            random_percent: rand_pct,
            improvement: rand_pct - ours_pct,
            terminated_early: result.refinement.reached_lower_bound,
        };
        table.push_row(vec![
            (i + 1).to_string(),
            row.np.to_string(),
            ns.to_string(),
            row.topology.to_string(),
            format!("{ours_pct:.0}"),
            format!("{rand_pct:.0}"),
            format!("{:.0}", rand_pct - ours_pct),
            if record.terminated_early {
                "yes".into()
            } else {
                "no".into()
            },
        ]);
        hist.push(ours_pct, rand_pct);
        records.push(record);
    }

    SeriesResult {
        records,
        table,
        histogram: hist,
    }
}

/// Print a series result and optionally append JSON lines to `json`.
pub fn emit(result: &SeriesResult, json: Option<&str>) {
    println!("{}", result.table.render());
    println!("{}", result.histogram.render(16));
    let early = result.records.iter().filter(|r| r.terminated_early).count();
    println!(
        "termination condition fired in {early} of {} cases; mean improvement {:.1} points",
        result.records.len(),
        result.records.iter().map(|r| r.improvement).sum::<f64>()
            / result.records.len().max(1) as f64
    );
    if let Some(path) = json {
        let lines: String = result
            .records
            .iter()
            .map(|r| r.to_json_line() + "\n")
            .collect();
        std::fs::write(path, lines).unwrap_or_else(|e| {
            eprintln!("warning: could not write {path}: {e}");
        });
        println!("records written to {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_series() -> SeriesConfig {
        SeriesConfig {
            name: "test-series".into(),
            rows: vec![
                RowSpec {
                    np: 30,
                    topology: TopologySpec::Hypercube { dim: 2 },
                },
                RowSpec {
                    np: 40,
                    topology: TopologySpec::Ring { n: 5 },
                },
            ],
            reps: 8,
            seed: 3,
            mapper: MapperConfig::default(),
            clustering: ClusteringSpec::Region,
        }
    }

    #[test]
    fn series_produces_consistent_records() {
        let res = run_series(&small_series());
        assert_eq!(res.records.len(), 2);
        assert_eq!(res.table.len(), 2);
        assert_eq!(res.histogram.len(), 2);
        for r in &res.records {
            assert!(r.ours_percent >= 100.0, "cannot beat the lower bound");
            assert!(r.random_percent >= 100.0);
            assert!(r.ours_total >= r.lower_bound);
        }
    }

    #[test]
    fn series_is_deterministic() {
        let a = run_series(&small_series());
        let b = run_series(&small_series());
        assert_eq!(a.records, b.records);
    }

    #[test]
    fn strategy_beats_random_on_average() {
        let cfg = SeriesConfig {
            rows: vec![
                RowSpec {
                    np: 60,
                    topology: TopologySpec::Hypercube { dim: 3 },
                },
                RowSpec {
                    np: 80,
                    topology: TopologySpec::Mesh { rows: 2, cols: 4 },
                },
                RowSpec {
                    np: 100,
                    topology: TopologySpec::Random { n: 8, p: 0.3 },
                },
            ],
            ..small_series()
        };
        let res = run_series(&cfg);
        let mean_impr: f64 = res.records.iter().map(|r| r.improvement).sum::<f64>() / 3.0;
        assert!(
            mean_impr > 0.0,
            "mean improvement {mean_impr} should be positive"
        );
    }

    #[test]
    fn build_instance_respects_sizes() {
        let mut rng = StdRng::seed_from_u64(0);
        let g = build_instance(50, 8, ClusteringSpec::Region, &mut rng);
        assert_eq!(g.num_tasks(), 50);
        assert_eq!(g.num_clusters(), 8);
    }
}
