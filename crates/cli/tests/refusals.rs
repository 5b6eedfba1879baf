//! Inputs the CLI must refuse with an error message — never a panic,
//! never a machine-sized allocation: problem files that break a
//! `ProblemGraph` invariant, and machines above `MAX_NODES` processors.

use std::io::Write;
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

use serde_json::Value;

fn mimd(args: &[&str], stdin: &str) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_mimd"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("mimd binary spawns");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(stdin.as_bytes())
        .unwrap();
    child.wait_with_output().unwrap()
}

/// The command failed cleanly: a non-zero exit that is not a panic's,
/// with `expected` in the message.
fn assert_refused(output: &Output, expected: &str) {
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!output.status.success(), "accepted: {stderr}");
    assert_ne!(output.status.code(), Some(101), "panicked: {stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(stderr.contains(expected), "no '{expected}' in: {stderr}");
}

fn field<'v>(value: &'v mut Value, key: &str) -> &'v mut Value {
    match value {
        Value::Obj(fields) => &mut fields.iter_mut().find(|(k, _)| k == key).unwrap().1,
        other => panic!("{key}: not an object: {other:?}"),
    }
}

fn items(value: &mut Value) -> &mut Vec<Value> {
    match value {
        Value::Arr(items) => items,
        other => panic!("not an array: {other:?}"),
    }
}

#[test]
fn malformed_problem_files_are_refused() {
    let generated = mimd(&["generate", "--tasks", "8", "--json"], "");
    assert!(generated.status.success());
    let original =
        serde_json::parse_value(std::str::from_utf8(&generated.stdout).unwrap()).unwrap();
    let edit = |change: &dyn Fn(&mut Value)| {
        let mut value = original.clone();
        change(&mut value);
        value
    };
    // The reverse of the first edge `u -> v`, listed in both row lists:
    // a 2-cycle.
    let back_edge = |value: &mut Value, count: bool| {
        let graph = field(value, "graph");
        let succs = items(field(graph, "succs"));
        let u = succs
            .iter_mut()
            .position(|row| !items(row).is_empty())
            .unwrap();
        let Value::Arr(first) = &items(&mut succs[u])[0] else {
            panic!("edge")
        };
        let Value::UInt(v) = first[0] else {
            panic!("edge")
        };
        let edge = |to: usize| Value::Arr(vec![Value::UInt(to as u64), Value::UInt(1)]);
        items(&mut succs[v as usize]).push(edge(u));
        items(&mut items(field(graph, "preds"))[u]).push(edge(v as usize));
        if count {
            let Value::UInt(edges) = field(graph, "edge_count") else {
                panic!("edge_count")
            };
            *edges += 1;
        }
    };
    let cases: [(Value, &str); 4] = [
        (edit(&|v| back_edge(v, false)), "edge_count"),
        (edit(&|v| back_edge(v, true)), "cycle"),
        (
            edit(&|v| items(field(v, "task_size"))[0] = Value::UInt(0)),
            "zero",
        ),
        (
            edit(&|v| {
                items(field(v, "topo")).pop();
            }),
            "topo",
        ),
    ];
    let dir = std::env::temp_dir();
    for (k, (value, expected)) in cases.iter().enumerate() {
        let path = dir.join(format!("mimd-refused-{}-{k}.json", std::process::id()));
        std::fs::write(&path, serde_json::to_string(value).unwrap()).unwrap();
        let output = mimd(
            &["map", "--load", path.to_str().unwrap(), "--spec", "ring:4"],
            "",
        );
        std::fs::remove_file(&path).unwrap();
        assert_refused(&output, expected);
    }
}

#[test]
fn oversized_machines_are_refused_at_once() {
    for spec in [
        "mesh:100000x100000",
        "hypercube:64",
        "ring:18446744073709551615",
    ] {
        let start = Instant::now();
        let output = mimd(&["topology", "--spec", spec], "");
        assert!(start.elapsed() < Duration::from_secs(5), "{spec}");
        assert_refused(&output, "8192");
    }
}

#[test]
fn a_served_oversized_machine_is_an_error_and_the_server_keeps_answering() {
    let job = |topology: &str| {
        format!(
            r#"{{"op":"map_once","job":{{"workload":{{"kind":"fft","log2n":3}},"topology":{topology},"algorithm":{{"kind":"paper"}},"seed":1}}}}"#
        )
    };
    let stdin = [
        job(r#"{"kind":"mesh","rows":100000,"cols":100000}"#),
        job(r#"{"kind":"ring","n":4}"#),
    ]
    .join("\n");
    let output = mimd(&["serve"], &stdin);
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).unwrap();
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2, "{stdout}");
    assert!(lines[0].contains(r#""kind":"error""#) && lines[0].contains("8192"));
    assert!(lines[1].contains(r#""kind":"map_result""#), "{}", lines[1]);
}
