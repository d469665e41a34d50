#!/usr/bin/env bash
# Builds the benchmark from source and runs it:
#
#   bash benchmark/run.sh --workload <table3|sessions|eval|serve|all> \
#       [--seed N] [--seconds S] [--trace 0|1]
#   bash benchmark/run.sh compare parent.jsonl change.jsonl
#
# `--trace 1` runs the traced binary (per-layer metrics, counting
# allocator); otherwise the untraced one (end-to-end metrics). Build
# output goes to stderr, so the last line of stdout is the result.
# Workloads run from the repository root; `compare` reads its files
# relative to the caller's directory.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
target=${CARGO_TARGET_DIR:-$root/benchmark/target}
case $target in
    /*) ;;
    *) target=$PWD/$target ;;
esac

bin=artisan-benchmark
prev=
for arg in "$@"; do
    if [ "$prev" = "--trace" ] && [ "$arg" = "1" ]; then
        bin=artisan-benchmark-trace
    fi
    prev=$arg
done

CARGO_TARGET_DIR=$target cargo build --release --offline --quiet \
    --manifest-path "$root/benchmark/Cargo.toml" --bin "$bin" 1>&2
if [ "${1:-}" != compare ]; then
    cd "$root"
fi
exec "$target/release/$bin" "$@"
