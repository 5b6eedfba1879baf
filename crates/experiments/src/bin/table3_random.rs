//! Table 3 + Fig 27: mapping random problem graphs onto randomly
//! produced system topologies.
//!
//! Paper setup (§5.2): 15 experiments on random connected systems, ns
//! within 4–40. Regenerate with:
//!
//! ```text
//! cargo run -p mimd-experiments --bin table3_random --release
//! ```

use mimd_core::MapperConfig;
use mimd_experiments::{run_series, CliArgs, RowSpec, SeriesConfig};
use mimd_topology::TopologySpec;

fn main() {
    let args = CliArgs::from_env();
    let mut rows = Vec::new();
    // Fifteen rows: np sweeps 30..=300, ns sweeps 4..=40, sparse extra
    // edges (p = 0.06): irregular, large-diameter interconnects — the
    // regime where the paper reports its largest improvements (44-77).
    let np_values = [
        30, 50, 70, 90, 110, 130, 150, 170, 190, 210, 230, 250, 270, 290, 300,
    ];
    let ns_values = [4, 6, 8, 10, 12, 14, 16, 20, 22, 24, 28, 30, 34, 38, 40];
    for (np, ns) in np_values.into_iter().zip(ns_values) {
        rows.push(RowSpec {
            np,
            topology: TopologySpec::Random { n: ns, p: 0.06 },
        });
    }
    let config = SeriesConfig {
        name: "Table 3 / Fig 27 (random topologies)".into(),
        rows,
        reps: args.reps,
        seed: args.seed,
        mapper: MapperConfig::default(),
        clustering: args.clustering,
    };
    let result = run_series(&config);
    mimd_experiments::harness::emit(&result, args.json.as_deref());
}
