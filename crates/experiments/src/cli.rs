//! Minimal argument parsing shared by the experiment binaries
//! (no external CLI dependency needed for four flags).

use mimd_engine::ClusteringSpec;

/// Common experiment flags.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CliArgs {
    /// Base RNG seed (default 1991, the paper's year).
    pub seed: u64,
    /// Random-mapping repetitions per row (default 32).
    pub reps: usize,
    /// Optional JSON-lines output path.
    pub json: Option<String>,
    /// Clustering front-end, any [`ClusteringSpec::parse`] name
    /// (default `region`).
    pub clustering: ClusteringSpec,
}

impl Default for CliArgs {
    fn default() -> Self {
        CliArgs {
            seed: 1991,
            reps: 32,
            json: None,
            clustering: ClusteringSpec::Region,
        }
    }
}

impl CliArgs {
    /// Parse from an iterator of arguments (excluding the program name).
    /// Unknown flags abort with a message; this is an experiment harness,
    /// not a user-facing CLI.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<CliArgs, String> {
        let mut out = CliArgs::default();
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--seed" => {
                    let v = it.next().ok_or("--seed needs a value")?;
                    out.seed = v.parse().map_err(|_| format!("bad --seed '{v}'"))?;
                }
                "--reps" => {
                    let v = it.next().ok_or("--reps needs a value")?;
                    out.reps = v.parse().map_err(|_| format!("bad --reps '{v}'"))?;
                    if out.reps == 0 {
                        return Err("--reps must be >= 1".into());
                    }
                }
                "--json" => {
                    out.json = Some(it.next().ok_or("--json needs a path")?);
                }
                "--clustering" => {
                    let v = it.next().ok_or("--clustering needs a value")?;
                    out.clustering = ClusteringSpec::parse(&v)?;
                }
                other => return Err(format!("unknown flag '{other}'")),
            }
        }
        Ok(out)
    }

    /// Parse from the process environment.
    pub fn from_env() -> CliArgs {
        match CliArgs::parse(std::env::args().skip(1)) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("error: {e}");
                eprintln!(
                    "usage: <bin> [--seed <u64>] [--reps <n>] [--json <path>] \
                     [--clustering region|iid|sarkar|comm_greedy]"
                );
                std::process::exit(2);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<CliArgs, String> {
        CliArgs::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.seed, 1991);
        assert_eq!(a.reps, 32);
        assert!(a.json.is_none());
        assert_eq!(a.clustering, ClusteringSpec::Region);
    }

    #[test]
    fn all_flags() {
        let a = parse(&[
            "--seed",
            "7",
            "--reps",
            "10",
            "--json",
            "out.jsonl",
            "--clustering",
            "comm_greedy",
        ])
        .unwrap();
        assert_eq!(a.seed, 7);
        assert_eq!(a.reps, 10);
        assert_eq!(a.json.as_deref(), Some("out.jsonl"));
        assert_eq!(a.clustering, ClusteringSpec::CommGreedy);
    }

    #[test]
    fn errors() {
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--seed", "x"]).is_err());
        assert!(parse(&["--reps", "0"]).is_err());
        assert!(parse(&["--clustering", "kmeans"]).is_err());
        assert!(parse(&["--bogus"]).is_err());
    }
}
