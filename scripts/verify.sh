#!/usr/bin/env bash
# Tier-1 verification gate. The steps, in the order they run:
#
#  0. Library code reads exactly three environment variables; every
#     other setting is a typed field with one setter. The benchmark
#     package's lockfile must resolve as committed (no new dependency
#     edge may reach it).
#  1. Release build of the whole workspace.
#  2. Every workspace crate's tests (`--workspace`: the root manifest is
#     also a package, so a bare `cargo test` would test only it), again
#     under the forced scalar backend; the kernel crates under forced
#     AVX2, and cl-trace with its counters off.
#  3. Kernel bench harness smoke: smoke shapes and a presence check
#     against the recorded kernel baseline (scripts/bench.sh).
#  4. The release kernel bench binary is disassembled: no AVX-512 helper
#     may stay an out-of-line call from the kernel that uses it.
#  5. Fault-recovery smoke: a bootstrapped pipeline under a fixed-seed
#     fault plan must converge, with >= 1 recorded recovery, to the clean
#     run's bit-identical output (examples/fault_recovery_smoke.rs).
#  6. Server smoke: multi-tenant load with one poisoned tenant
#     (examples/server_smoke.rs).
#  7. Server restart smoke: a server killed mid-batch recovers from its
#     journal bit-identically (examples/server_restart_smoke.rs).
#  8. Hint-cache smoke: a BSGS transform and a pipeline under a roomy and
#     a 1-byte hint cache stay limb-bit-identical
#     (examples/hint_cache_smoke.rs).
#  9. Compile-and-run smoke: a compiled LoLa layer runs with exactly the
#     predicted op counts, its inner sums fused, and resumes bit-identically
#     after a kill inside one (examples/compile_run_smoke.rs).
# 10. The end-to-end benchmark's smoke suite (compiles the detached
#     benchmarks/e2e package against the workspace and runs it).
# 11. The tables and figures of the evaluation (the simulator-backed
#     ones, the graph walks of Fig. 2 / 3 and the closed forms of Table
#     1 / 2 and Fig. 4) regenerate byte-identically to their recorded
#     stdout.
# 12. Lint gate on every library target, and on cl-trace with its
#     counters on: warnings are errors and bare `unwrap()` is banned
#     (tests and binaries are exempt — library code must name the
#     violated invariant via `expect` or propagate with `?`/`FheResult`).
#     `panic!` is banned in the cl-ckks and cl-boot libraries, where
#     every operation has one fallible entry point.
# 13. Rustdoc gate: the workspace's docs build without a warning, so a
#     deleted or private item that a doc comment still links to fails.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: library environment reads =="
# CL_THREADS sizes the limb pool, CL_BACKEND pins the kernel backend and
# CL_HINT_CACHE_BYTES sizes the process-wide hint cache: process-wide
# deployment settings no struct owns. Anything else configurable is a
# field (ServerConfig, CkksParams, GuardrailPolicy), and an environment
# read beside it would be a hidden second setter. The kernel bench binary
# (crates/bench) is exempt. A read whose variable is not a literal on the
# same line fails the gate too.
env_reads=$(grep -rE 'env::var(_os)?\(' crates vendor --include='*.rs' |
    grep -v '^crates/bench/' |
    sed -E 's/^([^:]+):.*env::var(_os)?\("?([A-Za-z0-9_]*).*/\1 \3/' | LC_ALL=C sort -u)
want_reads='crates/ckks/src/hint_cache.rs CL_HINT_CACHE_BYTES
crates/math/src/backend/mod.rs CL_BACKEND
vendor/rayon/src/lib.rs CL_THREADS'
if [ "$env_reads" != "$want_reads" ]; then
    echo "verify: library environment reads differ from the allowed three:" >&2
    diff <(echo "$want_reads") <(echo "$env_reads") >&2 || true
    exit 1
fi

echo "== tier-1: benchmark lockfile =="
# benchmarks/e2e is a detached package with a lockfile of its own, which
# cargo rewrites whenever a crate it builds gains or drops a dependency
# edge. The e2e smoke below would do that silently; resolving with
# --locked first fails the gate instead.
cargo metadata --locked --offline --format-version 1 \
    --manifest-path benchmarks/e2e/Cargo.toml >/dev/null

echo "== tier-1: release build =="
cargo build --release

echo "== tier-1: tests =="
cargo test -q --workspace

echo "== tier-1: tests (forced scalar backend) =="
# Every SIMD backend must be bit-exact with the portable scalar reference.
# Rerunning the suite with CL_BACKEND=scalar pins the dispatcher to the
# reference kernels, so a backend-specific miscompare fails one of the two
# passes instead of hiding behind whichever backend the host auto-selects.
CL_BACKEND=scalar cargo test -q --workspace

echo "== tier-1: kernel tests (forced avx2 backend) =="
# The AVX2 and AVX-512 backends are two instantiations of one driver source
# (crates/math/src/backend/driver.rs). On an AVX-512 host the passes above
# dispatch to the 8-lane one only, so the kernel crates run once more pinned
# to the 4-lane one (a host without AVX2 falls back with a warning).
CL_BACKEND=avx2 cargo test -q -p cl-math -p cl-rns

echo "== tier-1: trace-disabled tests =="
# The root test run lights cl-trace's `trace` feature through the root
# dev-dependency; this standalone run exercises the no-op counter path
# (recorders that count nothing, all-zero snapshots).
cargo test -q -p cl-trace

echo "== tier-1: bench harness smoke =="
# Smoke shapes + presence check vs the recorded kernel baseline (timing
# regressions are only enforced by a full `scripts/bench.sh --check` run;
# single-iteration smoke timings are too noisy to gate on).
scripts/bench.sh --smoke --check

echo "== tier-1: AVX-512 helpers inline into their kernels =="
# A `#[target_feature]` helper only inlines into a caller compiled with
# every feature it has; otherwise each use is a call with its vector
# operands passed through memory. So in the release kernel binary no
# cl_math::backend::avx512 function may call another one, except a
# product kernel calling the `body` it compiled for the chosen product.
command -v objdump >/dev/null || { echo "verify: objdump not found" >&2; exit 1; }
out_of_line=$(objdump -d -C target/release/bench_kernels | awk '
    /^[0-9a-f]+ <.*>:$/ { fn = $0; sub(/^[0-9a-f]+ </, "", fn); sub(/>:$/, "", fn); next }
    /\tcall / && index(fn, "cl_math::backend::avx512::") == 1 && match($0, /<[^>]*>$/) {
        callee = substr($0, RSTART + 1, RLENGTH - 2); sub(/\+0x[0-9a-f]+$/, "", callee)
        if (index(callee, "cl_math::backend::avx512::") == 1 && callee !~ /::body$/) print fn " -> " callee
    }' | sort | uniq -c)
if [ -n "$out_of_line" ]; then
    echo "verify: out-of-line calls between AVX-512 kernel functions:" >&2
    echo "$out_of_line" >&2
    exit 1
fi

echo "== tier-1: fault-recovery smoke =="
cargo run --release --example fault_recovery_smoke

echo "== tier-1: server smoke =="
# Multi-tenant load with one poisoned tenant: clean tenants must stay
# bit-identical to their serial references, poisoned failures must land
# as structured outcomes (examples/server_smoke.rs).
cargo run --release --example server_smoke

echo "== tier-1: server restart smoke =="
# Crash durability: a server killed mid-batch must recover from its
# write-ahead journal — finished outcomes replayed, unfinished jobs
# resumed from durable checkpoints, all limb-bit-identical to the serial
# reference (examples/server_restart_smoke.rs).
cargo run --release --example server_restart_smoke

echo "== tier-1: hint-cache smoke =="
# The same BSGS transform and executor pipeline under a roomy vs a
# thrashing hint cache must be limb-bit-identical: eviction may only ever
# cost hint regeneration time (examples/hint_cache_smoke.rs).
cargo run --release --example hint_cache_smoke

echo "== tier-1: compile-and-run smoke =="
# Compiler-driven execution at N = 8K: a LoLa layer graph lowered to a
# pipeline Program must run with exactly the op counts and live-ciphertext
# peak the compiler predicted, one fused step per BSGS inner sum, decrypt
# to the plain reference, and resume bit-identically after a kill inside
# an inner sum (examples/compile_run_smoke.rs).
cargo run --release --example compile_run_smoke

echo "== tier-1: end-to-end benchmark smoke =="
# benchmarks/e2e is a detached workspace the root build never compiles, so
# an API break in cl-runtime / cl-server would otherwise surface only when
# the benchmark next runs. The smoke suite builds it offline (plain and
# traced) and runs all four workloads at toy shapes, checking outputs and
# every metric BENCHMARK.json names; it writes only git-ignored files
# (.bench_build/, benchmarks/e2e/results/smoke.json).
bash benchmarks/e2e/run.sh --smoke

echo "== tier-1: evaluation regenerates =="
# Table 3-5 and Fig. 9-11 are the machine model run over the full
# benchmarks (a few seconds in all); Fig. 2 and 3 walk the LSTM graph and
# BootstrapPlan's expansion; Table 1 / 2 and Fig. 4 are closed forms.
# Their stdout is recorded under crates/bench/golden/: any difference is
# model drift, which is never a side effect — a PR that means it
# re-records the file and says so.
for name in table1 table2 table3 table4 table5 fig2 fig3 fig4 fig9 fig10 fig11; do
    if ! cargo run --release -q -p cl-bench --bin "$name" |
        diff "crates/bench/golden/$name.txt" -; then
        echo "verify: $name differs from crates/bench/golden/$name.txt (< recorded, > now)" >&2
        exit 1
    fi
done

echo "== tier-1: lint gate (library targets) =="
cargo clippy -p cl-math -p cl-rns -p cl-ckks -p cl-boot -p cl-runtime \
    -p cl-apps -p cl-baselines -p cl-compiler -p cl-core -p cl-isa \
    -p cl-trace -p cl-server --lib --no-deps -- \
    -D warnings -D clippy::unwrap_used
# The gate above builds cl-trace without `trace`; lint the counting build
# too.
cargo clippy -p cl-trace --lib --no-deps --features trace -- \
    -D warnings -D clippy::unwrap_used
# No panicking twin of a `try_*` operation: callers propagate or `expect`.
cargo clippy -p cl-ckks -p cl-boot --lib --no-deps -- -D clippy::panic

echo "== tier-1: rustdoc gate =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "tier-1 verify: OK"
