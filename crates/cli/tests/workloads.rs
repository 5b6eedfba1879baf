//! `--workload` speaks the engine's one workload language: the
//! `tasks:N` spelling is the `--tasks N` graph, byte for byte.

use std::process::Command;

fn stdout_of(args: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_mimd"))
        .args(args)
        .output()
        .expect("mimd binary spawns");
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("utf-8 stdout")
}

#[test]
fn tasks_spec_generates_the_tasks_flag_graph() {
    assert_eq!(
        stdout_of(&["generate", "--workload", "tasks:96", "--json"]),
        stdout_of(&["generate", "--tasks", "96", "--json"])
    );
}
