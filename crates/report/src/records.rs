//! Machine-readable experiment records (JSON lines).
//!
//! Every experiment binary emits one [`ExperimentRecord`] per table row
//! so EXPERIMENTS.md can be regenerated and the raw numbers archived
//! alongside the rendered tables.

use serde::{Deserialize, Serialize};

/// One row of a paper-style table, with full provenance.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ExperimentRecord {
    /// Which table/figure this row belongs to (e.g. `"table1/fig25"`).
    pub experiment: String,
    /// Row index within the experiment (the paper's `exp ts` column).
    pub index: usize,
    /// RNG seed that regenerates this row exactly.
    pub seed: u64,
    /// Problem size np.
    pub np: usize,
    /// System size ns.
    pub ns: usize,
    /// Topology description.
    pub topology: String,
    /// Ideal-graph lower bound (time units).
    pub lower_bound: u64,
    /// Our strategy's total time.
    pub ours_total: u64,
    /// Mean random-mapping total.
    pub random_mean: f64,
    /// Our percentage over the lower bound (paper column 2).
    pub ours_percent: f64,
    /// Random mapping's percentage over the lower bound (column 3).
    pub random_percent: f64,
    /// Improvement in percentage points (column 4).
    pub improvement: f64,
    /// Whether the lower-bound termination condition fired.
    pub terminated_early: bool,
}

impl ExperimentRecord {
    /// Serialize to a single JSON line.
    pub fn to_json_line(&self) -> String {
        serde_json::to_string(self).expect("record serializes")
    }

    /// Parse from a JSON line.
    pub fn from_json_line(line: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(line)
    }
}

/// FNV-1a 64-bit over `bytes`, as 16 hex digits: a digest of output
/// bytes that is stable across platforms and runs, with no hashing
/// dependency. The byte-identity corpus pins `mimd` stdout with it.
pub fn fnv64_hex(bytes: &[u8]) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ExperimentRecord {
        ExperimentRecord {
            experiment: "table1/fig25".into(),
            index: 1,
            seed: 42,
            np: 120,
            ns: 8,
            topology: "hypercube(d=3)".into(),
            lower_bound: 200,
            ours_total: 208,
            random_mean: 296.0,
            ours_percent: 104.0,
            random_percent: 148.0,
            improvement: 44.0,
            terminated_early: false,
        }
    }

    #[test]
    fn json_roundtrip() {
        let r = sample();
        let line = r.to_json_line();
        assert!(!line.contains('\n'));
        let back = ExperimentRecord::from_json_line(&line).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn bad_json_rejected() {
        assert!(ExperimentRecord::from_json_line("{not json").is_err());
    }

    #[test]
    fn fnv64_hex_is_stable_and_input_sensitive() {
        assert_eq!(fnv64_hex(b""), "cbf29ce484222325");
        assert_eq!(fnv64_hex(b"a"), fnv64_hex(b"a"));
        assert_ne!(fnv64_hex(b"a"), fnv64_hex(b"b"));
        assert_eq!(fnv64_hex(b"mimd").len(), 16);
    }
}
