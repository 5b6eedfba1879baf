//! A reader that closes stdout early (`mimd … | head -c 1`) ends the
//! command quietly: exit code 0 and nothing on stderr, not a panic or a
//! refusal. Every output here is larger than a 64 KiB pipe buffer, so
//! the command is still writing when the pipe closes.

use std::io::{Read, Write};
use std::process::{Command, Stdio};
use std::thread;

/// Run `mimd args` with `stdin` fed from a thread, read one byte of its
/// stdout, close the pipe, and check how it ended.
fn assert_quiet_after_one_byte(args: &[&str], stdin: String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_mimd"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("mimd binary spawns");
    let mut input = child.stdin.take().unwrap();
    // The child may stop reading once its stdout is gone.
    let feeder = thread::spawn(move || {
        let _ = input.write_all(stdin.as_bytes());
    });
    let mut stdout = child.stdout.take().unwrap();
    let mut first = [0u8; 1];
    stdout.read_exact(&mut first).unwrap();
    drop(stdout);
    let output = child.wait_with_output().unwrap();
    feeder.join().unwrap();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(0), "{args:?}: {stderr}");
    assert!(stderr.is_empty(), "{args:?} wrote to stderr: {stderr}");
}

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap()
}

#[test]
fn generate_json_stops_quietly() {
    // 6.2 MB of JSON.
    assert_quiet_after_one_byte(&["generate", "--tasks", "2048", "--json"], String::new());
}

#[test]
fn batch_stops_quietly() {
    // 1 000 result lines of about 250 bytes.
    let jobs: String = (0..1000)
        .map(|seed| {
            format!(
                "{{\"workload\":{{\"kind\":\"fft\",\"log2n\":3}},\
                 \"topology\":{{\"kind\":\"ring\",\"n\":4}},\
                 \"algorithm\":{{\"kind\":\"random\",\"k\":1}},\"seed\":{seed}}}\n"
            )
        })
        .collect();
    assert_quiet_after_one_byte(&["batch", "-"], jobs);
}

#[test]
fn replay_stops_quietly() {
    // 320 KB of records.
    assert_quiet_after_one_byte(
        &["replay", "--trace", "-", "--staleness", "100"],
        fixture("long_arrivals.jsonl"),
    );
}

#[test]
fn trace_stops_quietly() {
    // A 2.2 MB header.
    assert_quiet_after_one_byte(
        &[
            "trace",
            "--tasks",
            "2048",
            "--spec",
            "torus:8x8",
            "--events",
            "10",
        ],
        String::new(),
    );
}

#[test]
fn serve_stops_quietly() {
    // 200 catalog responses of about 1.4 KB.
    assert_quiet_after_one_byte(&["serve"], "{\"op\":\"catalog\"}\n".repeat(200));
}
