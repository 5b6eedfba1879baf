//! The repo benchmark. Three ways in:
//!
//! * `--workload W --seed N --seconds S --trace 0|1` — one run of one
//!   workload in this process; the last line of stdout is the result
//!   object `BENCHMARK.json`'s contract describes;
//! * no `--workload` — the whole suite: every workload, untraced then
//!   traced, each in a child process of its own, a table of every
//!   metric on stdout and `results.json` in the out directory;
//! * `compare A B` — hold two `results.json` files against the bounds
//!   (what `aa.sh` runs); `describe` — print `BENCHMARK.json` from the
//!   metric catalog.
//!
//! See README.md for what each metric and workload means.

mod catalog;
mod inputs;
mod jobs;
mod layers;
mod procstat;
mod report;
mod runner;
mod serve;
mod sessions;
mod spans;
mod stats;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use inputs::Scale;
use workload::{Kind, RunContext};

/// Seconds one untraced run measures for unless told otherwise; equal
/// to `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

/// Parsed command line.
struct Options {
    workload: Option<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    out_dir: PathBuf,
}

fn usage() -> String {
    format!(
        "usage: mimd-benchmark [--workload <{}>] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out-dir DIR]\n       mimd-benchmark compare A/results.json B/results.json\n       mimd-benchmark describe",
        Kind::ALL.map(Kind::name).join("|")
    )
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        scale: Scale::Full,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                options.workload = Some(
                    Kind::parse(name)
                        .ok_or_else(|| format!("unknown workload '{name}'\n{}", usage()))?,
                );
            }
            "--seed" => {
                options.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?
            }
            "--seconds" => {
                options.seconds = value()?
                    .parse()
                    .map_err(|_| "--seconds takes a number".to_string())?;
                if options.seconds.is_nan() || options.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                options.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--smoke" => options.scale = Scale::Smoke,
            "--out-dir" => options.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument '{other}'\n{}", usage())),
        }
    }
    Ok(options)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [a, b] => report::compare(a.as_ref(), b.as_ref()),
            _ => Err(usage()),
        },
        Some("describe") => {
            println!("{}", report::describe(DEFAULT_SECONDS as u64));
            return ExitCode::SUCCESS;
        }
        Some("-h" | "--help") => {
            println!("{}", usage());
            return ExitCode::SUCCESS;
        }
        _ => parse(&args).and_then(|options| {
            let context = RunContext {
                seed: options.seed,
                scale: options.scale,
                out_dir: options.out_dir,
            };
            match options.workload {
                Some(kind) => report::single(kind, &context, options.seconds, options.trace),
                None => report::suite(&context, options.seconds),
            }
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("mimd-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
