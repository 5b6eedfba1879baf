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

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match commands::dispatch(&argv) {
        Ok(()) => {}
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{}", commands::usage());
            std::process::exit(2);
        }
    }
}
