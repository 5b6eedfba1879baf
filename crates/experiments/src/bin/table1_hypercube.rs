//! Table 1 + Fig 25: mapping random problem graphs onto hypercubes.
//!
//! Paper setup (§5.1): 10 experiments, problem sizes within 30–300
//! tasks, hypercube systems (ns ∈ {4, 8, 16, 32} — dimensions 2–5).
//! Regenerate with:
//!
//! ```text
//! cargo run -p mimd-experiments --bin table1_hypercube --release
//! ```

use mimd_core::MapperConfig;
use mimd_experiments::{run_series, CliArgs, RowSpec, SeriesConfig};
use mimd_topology::TopologySpec;

fn main() {
    let args = CliArgs::from_env();
    // Ten rows sweeping np over the paper's 30–300 range and cycling the
    // hypercube dimensions the paper's ns range (4–40) allows.
    let rows = vec![
        RowSpec {
            np: 30,
            topology: TopologySpec::Hypercube { dim: 2 },
        },
        RowSpec {
            np: 60,
            topology: TopologySpec::Hypercube { dim: 3 },
        },
        RowSpec {
            np: 90,
            topology: TopologySpec::Hypercube { dim: 3 },
        },
        RowSpec {
            np: 120,
            topology: TopologySpec::Hypercube { dim: 4 },
        },
        RowSpec {
            np: 150,
            topology: TopologySpec::Hypercube { dim: 4 },
        },
        RowSpec {
            np: 180,
            topology: TopologySpec::Hypercube { dim: 4 },
        },
        RowSpec {
            np: 210,
            topology: TopologySpec::Hypercube { dim: 5 },
        },
        RowSpec {
            np: 240,
            topology: TopologySpec::Hypercube { dim: 5 },
        },
        RowSpec {
            np: 270,
            topology: TopologySpec::Hypercube { dim: 5 },
        },
        RowSpec {
            np: 300,
            topology: TopologySpec::Hypercube { dim: 5 },
        },
    ];
    let config = SeriesConfig {
        name: "Table 1 / Fig 25 (hypercubes)".into(),
        rows,
        reps: args.reps,
        seed: args.seed,
        mapper: MapperConfig::default(),
        clustering: args.clustering,
    };
    let result = run_series(&config);
    mimd_experiments::harness::emit(&result, args.json.as_deref());
}
