#!/usr/bin/env bash
# Build the benchmark in release and run it from the repo root.
#
#   benchmark/run.sh [--seed N] [--smoke]            the whole suite
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                                    one run (BENCHMARK.json's command)
#   benchmark/run.sh compare A/results.json B/results.json
#   benchmark/run.sh describe                        print BENCHMARK.json
#
# The build goes to $CARGO_TARGET_DIR (default benchmark/target); results,
# trace files and the serve_small socket go to --out-dir (default
# benchmark/out). Nothing outside the checkout is read or written.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
MIMD_BENCH_GIT_COMMIT="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
MIMD_BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
export MIMD_BENCH_GIT_COMMIT MIMD_BENCH_RUSTC
exec "$CARGO_TARGET_DIR/release/mimd-benchmark" "$@"
