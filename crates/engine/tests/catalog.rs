//! Catalog-driven round-trip property: every algorithm the registry
//! table lists must survive `parse()` → `name()` under its own name, be
//! the table's default spec, round-trip through the serde wire format,
//! and run as an engine job under that name at any machine size.

use proptest::prelude::*;

use mimd_engine::{
    algorithm_catalog, execute_job, AlgorithmSpec, JobSpec, TopologyCache, TopologySpec,
    WorkloadSpec,
};
use mimd_telemetry::Recorder;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Sampled over the whole catalog (and machine sizes, since some
    /// algorithms size their defaults from `ns`).
    #[test]
    fn every_catalog_entry_round_trips_and_instantiates(
        entry in 0usize..algorithm_catalog().len(),
        ns in 3usize..16,
    ) {
        let (name, description, default) = &algorithm_catalog()[entry];
        prop_assert!(!description.is_empty());

        // name -> parse -> name, and the parse is the table's spec.
        let spec = AlgorithmSpec::parse(name)
            .unwrap_or_else(|e| panic!("catalog name '{name}' does not parse: {e}"));
        prop_assert_eq!(spec.name(), *name);
        prop_assert_eq!(&spec, default);

        // The parsed spec survives the JSONL wire format.
        let json = serde_json::to_string(&spec).unwrap();
        let back: AlgorithmSpec = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(&back, &spec);

        // And runs as a job under the same name at this machine size.
        let job = JobSpec {
            id: None,
            workload: WorkloadSpec::Layered { tasks: 2 * ns, width: None },
            clustering: None,
            topology: TopologySpec::Ring { n: ns },
            topology_seed: None,
            algorithm: spec,
            seed: ns as u64,
        };
        let result = execute_job(&job, 0, &TopologyCache::new(), &Recorder::disabled());
        prop_assert_eq!(result.error, None);
        prop_assert_eq!(result.algorithm.as_str(), *name);
        prop_assert_eq!(result.assignment.len(), ns);
    }
}
