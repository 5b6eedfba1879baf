//! `mimd` — command-line front-end for the MIMD mapping-strategy
//! reproduction.
//!
//! ```text
//! mimd generate --tasks 96 --seed 7 --dot            # random problem graph
//! mimd topology --spec 'hypercube:3' --dot           # build & inspect a machine
//! mimd map --tasks 96 --spec 'mesh:3x4' --seed 7     # full pipeline
//! mimd map --workload ge:12 --spec 'hypercube:3'     # structured workloads
//! mimd simulate --tasks 96 --spec 'ring:8' --contention
//! mimd paper                                          # the worked example
//! ```

mod args;
mod commands;

use std::io::{self, Write};

use args::Stop;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // Every command prints through this one locked, buffered writer.
    let mut out = io::BufWriter::new(io::stdout().lock());
    let ran = commands::dispatch(&argv, &mut out);
    // Flushed even when the command failed after printing.
    let flushed = out.flush().map_err(Stop::from);
    match ran.and(flushed) {
        // A closed stdout ends the command quietly, with exit code 0.
        Ok(()) | Err(Stop::Closed) => {}
        Err(Stop::Failed(e)) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{}", commands::usage());
            std::process::exit(2);
        }
    }
}
