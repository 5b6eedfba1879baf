//! Catalog-driven round-trip property: every algorithm the registry
//! catalog advertises must survive `name()` → `parse()` → `name()`,
//! instantiate under that name, and its parsed spec must round-trip
//! through the serde wire format. A new registry entry that ships
//! without a working parser (or parser entry without a catalog line)
//! fails here, not in production.

use proptest::prelude::*;

use mimd_engine::{algorithm_catalog, instantiate, AlgorithmSpec};
use mimd_telemetry::Recorder;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Sampled over the whole catalog (and machine sizes, since
    /// instantiation sizes schedule-dependent defaults from `ns`).
    #[test]
    fn every_catalog_entry_round_trips_and_instantiates(
        entry in 0usize..algorithm_catalog().len(),
        ns in 2usize..256,
    ) {
        let (name, description) = algorithm_catalog()[entry];
        prop_assert!(!description.is_empty());

        // name -> parse -> name.
        let spec = AlgorithmSpec::parse(name)
            .unwrap_or_else(|e| panic!("catalog name '{name}' does not parse: {e}"));
        prop_assert_eq!(spec.name(), name);

        // The parsed spec survives the JSONL wire format.
        let json = serde_json::to_string(&spec).unwrap();
        let back: AlgorithmSpec = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(&back, &spec);

        // And instantiates under the same name at any machine size.
        prop_assert_eq!(
            instantiate(&spec, ns, None, &Recorder::disabled()).name(),
            name
        );
    }
}

/// The converse direction (parser entries must be catalogued) cannot be
/// sampled — enumerate the parser's vocabulary explicitly.
#[test]
fn every_parser_name_is_catalogued() {
    for name in [
        "paper",
        "random",
        "bokhari",
        "lee",
        "annealing",
        "pairwise",
        "multilevel",
        "incremental",
    ] {
        assert!(
            algorithm_catalog().iter().any(|&(n, _)| n == name),
            "'{name}' parses but is missing from the catalog"
        );
    }
}
