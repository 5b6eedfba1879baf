#!/usr/bin/env bash
# What CI would run for this package (the root workflow cannot be edited
# in the PR that adds the benchmark): format, lints, unit tests, and the
# smoke run of every workload.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
manifest=benchmark/Cargo.toml
cargo fmt --manifest-path "$manifest" -- --check
cargo clippy --offline --manifest-path "$manifest" --all-targets -- -D warnings
cargo test --offline --manifest-path "$manifest"
benchmark/run.sh --smoke --out-dir benchmark/out/smoke
