//! Printing: the result line of one run, the suite's table and
//! `results.json`, and the A/A comparison of two result files.

use std::path::Path;
use std::process::{Command, Stdio};

use serde_json::Value;

use crate::catalog::{Better, END_TO_END, PER_LAYER};
use crate::inputs::Scale;
use crate::procstat::pin_to_one_cpu;
use crate::runner::{self, Outcome};
use crate::serve::connections;
use crate::workload::{nproc, Kind, RunContext};

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn text(s: &str) -> Value {
    Value::Str(s.to_string())
}

/// The contract's result object: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
fn result_line(outcome: &Outcome) -> String {
    let metrics = outcome
        .metrics
        .iter()
        .map(|&(name, unit, value)| {
            (
                name.to_string(),
                obj(vec![("value", Value::Float(value)), ("unit", text(unit))]),
            )
        })
        .collect();
    let line = obj(vec![
        ("correct", Value::Bool(outcome.correct)),
        ("attempted", Value::UInt(outcome.attempted.max(1) as u64)),
        ("failed", Value::UInt(outcome.failed as u64)),
        ("metrics", Value::Obj(metrics)),
    ]);
    serde_json::to_string(&line).expect("a value tree serializes")
}

/// One run of one workload in this process. Prints every metric by
/// name with its unit, the notes, a `detail` line the suite reads, and
/// last the result line. `Ok(true)` whenever a result was printed.
pub fn single(kind: Kind, context: &RunContext, seconds: f64, trace: bool) -> Result<bool, String> {
    // Before anything spawns a thread, so every thread inherits it.
    if kind.one_cpu() {
        let cpu = pin_to_one_cpu()?;
        eprintln!("{} runs on CPU {cpu} only", kind.name());
    }
    eprintln!(
        "{} seed={} {} nproc={} connections={}",
        kind.name(),
        context.seed,
        if trace {
            "traced".to_string()
        } else {
            format!("untraced for {seconds} s")
        },
        nproc(),
        connections(),
    );
    let mut outcome = runner::run(kind, context, seconds, trace)?;
    // Into the notes too, so `results.json` has them per workload.
    outcome.notes.insert(
        0,
        format!("nproc={} connections={}", nproc(), connections()),
    );
    for &(name, unit, value) in &outcome.metrics {
        println!("{:<14} {name:<32} {value:>16.6} {unit}", kind.name());
    }
    for note in &outcome.notes {
        println!("{:<14} # {note}", kind.name());
    }
    let detail = obj(vec![
        ("digest", text(&format!("{:016x}", outcome.digest))),
        (
            "notes",
            Value::Arr(outcome.notes.iter().map(|n| text(n)).collect()),
        ),
    ]);
    println!(
        "detail {}",
        serde_json::to_string(&detail).expect("a value tree serializes")
    );
    println!("{}", result_line(&outcome));
    Ok(true)
}

/// Run one workload in a child process of its own (an isolated
/// topology cache and its own `VmHWM`) and return its `detail` and
/// result objects.
fn child(
    kind: Kind,
    context: &RunContext,
    seconds: f64,
    trace: bool,
) -> Result<(Value, Value), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", kind.name()])
        .args(["--seed", &context.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(&context.out_dir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if context.scale == Scale::Smoke {
        command.arg("--smoke");
    }
    let output = command
        .output()
        .map_err(|e| format!("spawn {}: {e}", kind.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!(
            "{} ({}) exited with {}",
            kind.name(),
            if trace { "traced" } else { "untraced" },
            output.status
        ));
    }
    let mut lines = stdout.lines().rev();
    let result = lines.next().ok_or("child printed nothing")?;
    let detail = lines
        .next()
        .and_then(|l| l.strip_prefix("detail "))
        .ok_or("child printed no detail line")?;
    Ok((
        serde_json::parse_value(detail).map_err(|e| format!("detail line: {e}"))?,
        serde_json::parse_value(result).map_err(|e| format!("result line: {e}"))?,
    ))
}

fn metric_value(result: &Value, name: &str) -> Option<f64> {
    match result.get("metrics")?.get(name)?.get("value")? {
        Value::Float(f) => Some(*f),
        Value::UInt(u) => Some(*u as f64),
        Value::Int(i) => Some(*i as f64),
        _ => None,
    }
}

/// The whole suite: every workload untraced then traced, each in its
/// own child. Prints every metric by name with its unit and writes
/// `results.json`. `Ok(false)` when any workload was incorrect.
pub fn suite(context: &RunContext, seconds: f64) -> Result<bool, String> {
    // Smoke runs are for coverage: one short rep is all they need.
    let seconds = if context.scale == Scale::Smoke {
        seconds.min(0.1)
    } else {
        seconds
    };
    std::fs::create_dir_all(&context.out_dir)
        .map_err(|e| format!("{}: {e}", context.out_dir.display()))?;
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for kind in Kind::ALL {
        let (detail, end_to_end) = child(kind, context, seconds, false)?;
        let (trace_detail, per_layer) = child(kind, context, seconds, true)?;
        let failed_share = |result: &Value| match (result.get("failed"), result.get("attempted")) {
            (Some(Value::UInt(f)), Some(Value::UInt(a))) => *f as f64 / (*a).max(1) as f64,
            _ => 1.0,
        };
        println!("== {} — {}", kind.name(), kind.why());
        for metric in END_TO_END {
            let value = metric_value(&end_to_end, metric.name)
                .ok_or_else(|| format!("{} missing", metric.name))?;
            println!(
                "{:<14} {:<32} {value:>16.6} {:<6} ({} is better, bound {:.0}%)",
                kind.name(),
                metric.name,
                metric.unit,
                metric.better.word(),
                metric.bound * 100.0
            );
        }
        println!(
            "{:<14} {:<32} {:>16.6} {:<6} (lower is better, bound 0)",
            kind.name(),
            "failed_share",
            failed_share(&end_to_end),
            "ratio"
        );
        for metric in PER_LAYER {
            let value = metric_value(&per_layer, metric.name)
                .ok_or_else(|| format!("{} missing", metric.name))?;
            println!(
                "{:<14} {:<32} {value:>16.6} {:<6} ({} is better)",
                kind.name(),
                metric.name,
                metric.unit,
                metric.better.word()
            );
        }
        for (label, d) in [("untraced", &detail), ("traced", &trace_detail)] {
            for note in d.get("notes").and_then(Value::as_arr).unwrap_or(&[]) {
                println!(
                    "{:<14} # {label}: {}",
                    kind.name(),
                    note.as_str().unwrap_or("")
                );
            }
        }
        let correct = |r: &Value| r.get("correct") == Some(&Value::Bool(true));
        all_correct &= correct(&end_to_end) && correct(&per_layer);
        workloads.push((
            kind.name().to_string(),
            obj(vec![
                ("why", text(kind.why())),
                ("op", text(kind.op())),
                ("failed_share", Value::Float(failed_share(&end_to_end))),
                (
                    "digest",
                    detail.get("digest").cloned().unwrap_or(Value::Null),
                ),
                (
                    "traced_digest",
                    trace_detail.get("digest").cloned().unwrap_or(Value::Null),
                ),
                ("end_to_end", end_to_end),
                ("per_layer", per_layer),
                ("notes", detail.get("notes").cloned().unwrap_or(Value::Null)),
            ]),
        ));
    }
    let env = |key: &str| text(&std::env::var(key).unwrap_or_else(|_| "unknown".into()));
    let results = obj(vec![
        ("seed", Value::UInt(context.seed)),
        ("smoke", Value::Bool(context.scale == Scale::Smoke)),
        ("run_seconds", Value::Float(seconds)),
        ("nproc", Value::UInt(nproc() as u64)),
        ("git_commit", env("MIMD_BENCH_GIT_COMMIT")),
        ("rustc", env("MIMD_BENCH_RUSTC")),
        ("correct", Value::Bool(all_correct)),
        ("workloads", Value::Obj(workloads)),
    ]);
    let path = context.out_dir.join("results.json");
    let pretty = serde_json::to_string_pretty(&results).expect("a value tree serializes");
    std::fs::write(&path, pretty + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    println!("results written to {}", path.display());
    Ok(all_correct)
}

/// `BENCHMARK.json`, generated from the catalog so the two cannot
/// drift (`run.sh describe > BENCHMARK.json`; a test compares them).
pub fn describe(run_seconds: u64) -> String {
    let strings = |items: &[&str]| Value::Arr(items.iter().map(|s| text(s)).collect());
    let json = obj(vec![
        ("command", strings(&["bash", "benchmark/run.sh"])),
        ("paths", strings(&["benchmark"])),
        ("run_seconds", Value::UInt(run_seconds)),
        (
            "workloads",
            Value::Arr(
                Kind::ALL
                    .iter()
                    .map(|k| obj(vec![("name", text(k.name())), ("why", text(k.why()))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.word())),
                            ("bound", Value::Float(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.word())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    serde_json::to_string_pretty(&json).expect("a value tree serializes")
}

/// Hold two `results.json` of the same code and seed against each
/// other: exact metrics, digests and `failed_share` must be equal,
/// every other end-to-end metric within its bound of the first file's
/// value, in whichever direction it moved. `Ok(false)` on any breach.
pub fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let load = |path: &Path| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        serde_json::parse_value(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let (a, b) = (load(a)?, load(b)?);
    if a.get("seed") != b.get("seed") || a.get("smoke") != b.get("smoke") {
        return Err(
            "the two runs differ in seed or size; an A/A check needs the same inputs".into(),
        );
    }
    let mut ok = true;
    for kind in Kind::ALL {
        let of = |v: &Value| {
            v.get("workloads")
                .and_then(|w| w.get(kind.name()))
                .cloned()
                .ok_or_else(|| format!("{} missing", kind.name()))
        };
        let (wa, wb) = (of(&a)?, of(&b)?);
        for key in ["digest", "traced_digest", "failed_share"] {
            if wa.get(key) != wb.get(key) {
                ok = false;
                println!(
                    "{:<14} {key:<22} DIFFERS: {:?} vs {:?}",
                    kind.name(),
                    wa.get(key),
                    wb.get(key)
                );
            }
        }
        for metric in END_TO_END {
            let value = |w: &Value| {
                w.get("end_to_end")
                    .and_then(|r| metric_value(r, metric.name))
                    .ok_or_else(|| format!("{} {} missing", kind.name(), metric.name))
            };
            let (va, vb) = (value(&wa)?, value(&wb)?);
            let change = (vb - va) / va;
            let breach = if metric.exact {
                va != vb
            } else {
                change.abs() > metric.bound
            };
            let moved = match (metric.better, change > 0.0) {
                _ if change == 0.0 => "same",
                (Better::Lower, true) | (Better::Higher, false) => "worse",
                _ => "better",
            };
            println!(
                "{:<14} {:<22} {va:>14.6} -> {vb:>14.6} {:<6} {:+7.2}% ({moved}; {}) {}",
                kind.name(),
                metric.name,
                metric.unit,
                change * 100.0,
                if metric.exact {
                    "must be equal".to_string()
                } else {
                    format!("bound {:.0}%", metric.bound * 100.0)
                },
                if breach { "BREACH" } else { "ok" },
            );
            ok &= !breach;
        }
    }
    println!(
        "{}",
        if ok {
            "A/A: the two runs agree within every bound"
        } else {
            "A/A: FAILED"
        }
    );
    Ok(ok)
}
