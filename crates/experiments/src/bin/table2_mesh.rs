//! Table 2 + Fig 26: mapping random problem graphs onto 2-D meshes.
//!
//! Paper setup (§5.2): 11 experiments on mesh architectures, ns within
//! 4–40. Regenerate with:
//!
//! ```text
//! cargo run -p mimd-experiments --bin table2_mesh --release
//! ```

use mimd_core::MapperConfig;
use mimd_experiments::{run_series, CliArgs, RowSpec, SeriesConfig};
use mimd_topology::TopologySpec;

fn main() {
    let args = CliArgs::from_env();
    let rows = vec![
        RowSpec {
            np: 30,
            topology: TopologySpec::Mesh { rows: 2, cols: 2 },
        },
        RowSpec {
            np: 55,
            topology: TopologySpec::Mesh { rows: 2, cols: 3 },
        },
        RowSpec {
            np: 80,
            topology: TopologySpec::Mesh { rows: 2, cols: 4 },
        },
        RowSpec {
            np: 105,
            topology: TopologySpec::Mesh { rows: 3, cols: 3 },
        },
        RowSpec {
            np: 130,
            topology: TopologySpec::Mesh { rows: 3, cols: 4 },
        },
        RowSpec {
            np: 155,
            topology: TopologySpec::Mesh { rows: 4, cols: 4 },
        },
        RowSpec {
            np: 180,
            topology: TopologySpec::Mesh { rows: 4, cols: 5 },
        },
        RowSpec {
            np: 210,
            topology: TopologySpec::Mesh { rows: 5, cols: 5 },
        },
        RowSpec {
            np: 240,
            topology: TopologySpec::Mesh { rows: 5, cols: 6 },
        },
        RowSpec {
            np: 270,
            topology: TopologySpec::Mesh { rows: 6, cols: 6 },
        },
        RowSpec {
            np: 300,
            topology: TopologySpec::Mesh { rows: 5, cols: 8 },
        },
    ];
    let config = SeriesConfig {
        name: "Table 2 / Fig 26 (meshes)".into(),
        rows,
        reps: args.reps,
        seed: args.seed,
        mapper: MapperConfig::default(),
        clustering: args.clustering,
    };
    let result = run_series(&config);
    mimd_experiments::harness::emit(&result, args.json.as_deref());
}
