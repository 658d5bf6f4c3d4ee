#!/usr/bin/env bash
# The repo's benchmark: builds the benchmark package and runs it.
#
#   run.sh --workload W --seed S --seconds T --trace 0|1
#       one workload in one process; the last line of stdout is the result
#       (the form BENCHMARK.json's driver uses)
#   run.sh [--seed S] [--seconds T] [--trace] [--smoke] [--repeat K] [--label L]
#       the suite: every workload in a process of its own, every metric
#       printed by name, benchmarks/e2e/results/<label>.json written
#   run.sh --compare A.json B.json
#       two result files side by side; refuses when their hosts differ
#
# Run from the root of the checkout. See benchmarks/e2e/README.md.
set -euo pipefail

here="benchmarks/e2e"
if [[ ! -f "$here/Cargo.toml" || ! -f BENCHMARK.json ]]; then
    echo "run.sh: run from the root of the checkout" >&2
    exit 2
fi
# The library reads its defaults from these; the benchmark fixes them.
unset CL_THREADS CL_BACKEND CL_KEYCACHE_BYTES CL_HINT_CACHE_BYTES \
      CL_JOURNAL_FSYNC CL_STALL_BUDGET_MS CL_BREAKER_THRESHOLD

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
plain="$CARGO_TARGET_DIR/release/cl-e2e"
# The traced build differs in a Cargo feature, so it gets a target
# directory of its own and never evicts the untraced one.
traced_dir="$CARGO_TARGET_DIR/trace"
traced="$traced_dir/release/cl-e2e"

want_trace=0 smoke=0 suite=1 prev=""
for arg in "$@"; do
    case "$arg" in
        --workload|--compare) suite=0 ;;
        --trace) want_trace=1 ;;
        --smoke) smoke=1 ;;
        0) if [[ "$prev" == --trace ]]; then want_trace=0; fi ;;
    esac
    prev="$arg"
done
# The smoke suite checks every metric BENCHMARK.json names, per-layer ones
# included, so it always runs traced as well.
if (( suite && smoke )); then want_trace=1; fi

build() { # build <target dir> [cargo flags]
    local dir="$1"; shift
    CARGO_TARGET_DIR="$dir" cargo build --release --offline --quiet \
        --manifest-path "$here/Cargo.toml" "$@" >&2
}
build "$CARGO_TARGET_DIR"
if (( want_trace )); then
    build "$traced_dir" --features trace
    if (( suite )); then
        exec "$plain" "$@" --traced-bin "$traced"
    fi
    exec "$traced" "$@" --untraced-bin "$plain"
fi
exec "$plain" "$@"
