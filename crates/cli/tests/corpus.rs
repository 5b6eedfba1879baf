//! Byte-identity corpus: every row of `corpus.tsv` is one `mimd`
//! invocation pinned by its exit code, stdout length, stdout FNV-1a 64
//! and, for a refusal, the first line of its stderr. A change to any
//! covered output fails this test; an intended change is re-pinned with
//!
//! ```text
//! MIMD_BLESS=1 cargo test -p mimd-cli --test corpus
//! ```
//!
//! which rewrites the expected columns in place, so the diff of
//! `corpus.tsv` is the record of what changed.
//!
//! Columns (tab-separated; `-` is "none"): name, argv (split on
//! spaces), stdin fixture under `tests/fixtures/`, exit code, stdout
//! length, stdout FNV-1a 64, stderr prefix. Lines starting with `#` are
//! comments. `fixtures/churn.jsonl`, `arrivals.jsonl`, `drift.jsonl`,
//! `mixed_torus8x8.jsonl` and `long_arrivals.jsonl` are the stdout of
//! the `trace`, `trace_arrivals`, `trace_drift`, `trace_mixed_torus8x8`
//! and `trace_long_arrivals` rows, so `trace` → `replay` is one chain
//! (`long_arrivals.jsonl` is 1 500 arrivals and departures, long
//! enough that a session compacts its graph several times); `backward.jsonl` is written by hand
//! (edges against id order, removals down to one task per cluster,
//! arrivals wired after they land, a global rescale).
//! `serve_mixed_ring8.jsonl` is three `map_once` jobs and one session
//! over the stdout of `trace --tasks 64 --spec ring:8 --events 12
//! --regime mixed --seed 11`. `huge_weights.json` (a 6-task problem
//! file, read by `map --load /dev/stdin`) and `serve_huge_weights.jsonl`
//! (a session header, then `catalog`) carry `u64::MAX` edge weights,
//! which no schedule time can hold: both are refused.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use mimd_engine::{algorithm_catalog, TopologySpec, WorkloadSpec};
use mimd_report::fnv64_hex;

/// Commands with no row: `loadgen` needs a live server to talk to.
const EXEMPT: &[&str] = &["loadgen"];

/// The argv words naming the variants of `$ty`, checked against the
/// type: the match has no wildcard arm, so a new variant does not
/// compile until it has a word here, and the kind fence then asks for
/// a row that uses it.
macro_rules! kind_words {
    ($ty:ident { $($variant:ident => $word:literal),* $(,)? }) => {{
        let _names_every_variant: fn(&$ty) = |kind| match kind {
            $($ty::$variant { .. } => {})*
        };
        [$($word),*]
    }};
}

/// One corpus row: the invocation and what it must produce.
struct Row {
    name: String,
    argv: String,
    stdin: String,
    expected: Outcome,
}

/// What one invocation produced, in the corpus's columns.
#[derive(Debug, PartialEq)]
struct Outcome {
    exit: String,
    stdout_len: String,
    stdout_fnv: String,
    stderr_prefix: String,
}

fn tests_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests")
}

fn parse_row(line: &str) -> Row {
    let cols: Vec<&str> = line.split('\t').collect();
    assert_eq!(cols.len(), 7, "corpus row needs 7 columns: {line}");
    Row {
        name: cols[0].into(),
        argv: cols[1].into(),
        stdin: cols[2].into(),
        expected: Outcome {
            exit: cols[3].into(),
            stdout_len: cols[4].into(),
            stdout_fnv: cols[5].into(),
            stderr_prefix: cols[6].into(),
        },
    }
}

fn render_row(row: &Row, outcome: &Outcome) -> String {
    format!(
        "{}\t{}\t{}\t{}\t{}\t{}\t{}",
        row.name,
        row.argv,
        row.stdin,
        outcome.exit,
        outcome.stdout_len,
        outcome.stdout_fnv,
        outcome.stderr_prefix
    )
}

fn mimd(args: &[&str], stdin: &[u8]) -> std::process::Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_mimd"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("mimd binary spawns");
    let mut pipe = child.stdin.take().expect("stdin is piped");
    // A command that exits without reading its stdin closes the pipe:
    // that is its outcome to pin, not a test failure.
    let _ = pipe.write_all(stdin);
    drop(pipe);
    child.wait_with_output().expect("mimd runs to completion")
}

fn run(row: &Row) -> Outcome {
    let stdin = match row.stdin.as_str() {
        "-" => Vec::new(),
        file => fs::read(tests_dir().join("fixtures").join(file))
            .unwrap_or_else(|e| panic!("{}: fixture {file}: {e}", row.name)),
    };
    let args: Vec<&str> = row.argv.split(' ').collect();
    let output = mimd(&args, &stdin);
    let exit = output
        .status
        .code()
        .map_or("signal".into(), |c| c.to_string());
    // Only a refusal pins its stderr: successful runs print cache and
    // timing diagnostics there.
    let stderr_prefix = if output.status.success() {
        "-".into()
    } else {
        let stderr = String::from_utf8_lossy(&output.stderr);
        stderr.lines().next().unwrap_or("").replace('\t', " ")
    };
    Outcome {
        exit,
        stdout_len: output.stdout.len().to_string(),
        stdout_fnv: fnv64_hex(&output.stdout),
        stderr_prefix,
    }
}

/// The command names usage lists: lines of the `commands:` block that
/// start with a two-space indent and then a word.
fn commands_in_usage() -> Vec<String> {
    let output = mimd(&[], b"");
    let usage = String::from_utf8(output.stderr).expect("utf-8 usage");
    let block = usage
        .split_once("commands:\n")
        .expect("usage lists commands")
        .1;
    block
        .lines()
        .take_while(|line| !line.is_empty())
        .filter_map(|line| line.strip_prefix("  "))
        .filter(|rest| !rest.starts_with(' '))
        .map(|rest| rest.split(' ').next().unwrap().to_string())
        .collect()
}

#[test]
fn every_corpus_row_reproduces_its_pinned_output() {
    let path = tests_dir().join("corpus.tsv");
    let text = fs::read_to_string(&path).expect("corpus.tsv is readable");
    let bless = std::env::var_os("MIMD_BLESS").is_some();
    let mut rewritten = String::new();
    let mut failures = Vec::new();
    let mut rows = Vec::new();
    for line in text.lines() {
        if line.starts_with('#') || line.trim().is_empty() {
            rewritten += line;
            rewritten += "\n";
            continue;
        }
        let row = parse_row(line);
        let outcome = run(&row);
        if outcome != row.expected {
            failures.push(format!(
                "{}: `mimd {}` expected {:?}, got {:?}",
                row.name, row.argv, row.expected, outcome
            ));
        }
        rewritten += &render_row(&row, &outcome);
        rewritten += "\n";
        rows.push((row, outcome));
    }

    let mut names: Vec<&str> = rows.iter().map(|(row, _)| row.name.as_str()).collect();
    names.sort_unstable();
    let before = names.len();
    names.dedup();
    assert_eq!(names.len(), before, "row names must be unique");

    // The replay rows read what the `trace` rows print.
    for (name, fixture) in [
        ("trace", "churn.jsonl"),
        ("trace_arrivals", "arrivals.jsonl"),
        ("trace_drift", "drift.jsonl"),
        ("trace_mixed_torus8x8", "mixed_torus8x8.jsonl"),
        ("trace_long_arrivals", "long_arrivals.jsonl"),
    ] {
        let bytes = fs::read(tests_dir().join("fixtures").join(fixture)).unwrap();
        let (_, trace) = rows
            .iter()
            .find(|(row, _)| row.name == name)
            .unwrap_or_else(|| panic!("a row named {name}"));
        assert_eq!(
            (trace.stdout_len.clone(), trace.stdout_fnv.clone()),
            (bytes.len().to_string(), fnv64_hex(&bytes)),
            "fixtures/{fixture} is not the {name} row's stdout"
        );
    }

    if bless {
        fs::write(&path, rewritten).expect("corpus.tsv is writable");
    } else {
        assert!(
            failures.is_empty(),
            "{} of {} corpus rows changed (re-pin an intended change with \
             MIMD_BLESS=1):\n{}",
            failures.len(),
            rows.len(),
            failures.join("\n")
        );
    }
}

#[test]
fn every_command_has_a_corpus_row() {
    let covered: Vec<String> = corpus_argvs()
        .iter()
        .map(|argv| argv.split(' ').next().unwrap().to_string())
        .collect();
    let commands = commands_in_usage();
    assert!(commands.len() >= 10, "usage parse found {commands:?}");
    for command in commands {
        assert!(
            EXEMPT.contains(&command.as_str()) || covered.contains(&command),
            "command `{command}` has no corpus row"
        );
    }
}

/// The argv column of every row.
fn corpus_argvs() -> Vec<String> {
    let text = fs::read_to_string(tests_dir().join("corpus.tsv")).unwrap();
    text.lines()
        .filter(|line| !line.starts_with('#') && !line.trim().is_empty())
        .map(|line| parse_row(line).argv)
        .collect()
}

/// The kind words the rows pass to any of `flags`: each value is split
/// on `,`, and a word is what precedes its `:` (`torus:8x8` → `torus`).
fn named_by(argvs: &[String], flags: &[&str]) -> Vec<String> {
    let mut named = Vec::new();
    for argv in argvs {
        let words: Vec<&str> = argv.split(' ').collect();
        for pair in words.windows(2) {
            if flags.contains(&pair[0]) {
                named.extend(
                    pair[1]
                        .split(',')
                        .map(|v| v.split(':').next().unwrap().to_string()),
                );
            }
        }
    }
    named
}

#[test]
fn every_algorithm_topology_and_workload_kind_has_a_corpus_row() {
    let argvs = corpus_argvs();
    let topologies = kind_words!(TopologySpec {
        Hypercube => "hypercube",
        Mesh => "mesh",
        Torus => "torus",
        Ring => "ring",
        Chain => "chain",
        Star => "star",
        BinaryTree => "tree",
        Complete => "complete",
        FatTree => "fattree",
        ClusteredComplete => "clusters",
        Random => "random",
    });
    let workloads = kind_words!(WorkloadSpec {
        Layered => "layered",
        PaperRegime => "paper",
        GaussianElimination => "ge",
        Stencil => "stencil",
        Fft => "fft",
        DivideAndConquer => "dnc",
        Pipeline => "pipe",
    });
    let algorithms: Vec<&str> = algorithm_catalog().iter().map(|&(name, ..)| name).collect();
    for (what, flags, kinds) in [
        ("algorithm", &["--algorithm", "--algos"], &algorithms[..]),
        ("topology", &["--spec", "--specs"], &topologies[..]),
        ("workload", &["--workload", "--workloads"], &workloads[..]),
    ] {
        let named = named_by(&argvs, flags);
        for kind in kinds {
            assert!(
                named.iter().any(|n| n == kind),
                "{what} `{kind}` appears in no corpus row's argv"
            );
        }
    }
}
