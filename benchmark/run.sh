#!/usr/bin/env bash
# Build fenestrad, the fenestra CLI and the load generator from source,
# then run one benchmark workload:
#
#   bash benchmark/run.sh --workload ingest-durable --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr so the last stdout line stays the result.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml \
    -p fenestra -p fenestra-server --bin fenestra --bin fenestrad >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/e2ebench" --bin-dir "$CARGO_TARGET_DIR/release" "$@"
