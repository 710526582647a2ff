#!/usr/bin/env bash
# Builds the ledger and the sweep worker it drives from source, then runs
# the ledger with this script's arguments. Run from the repository root:
#
#   bash bench/run.sh --workload share_40x5 --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh --check
#
# Build output goes to $CARGO_TARGET_DIR (default bench/target).
set -euo pipefail
cargo build --release --offline --quiet --manifest-path bench/Cargo.toml >&2
exec "${CARGO_TARGET_DIR:-bench/target}/release/ledger" "$@"
