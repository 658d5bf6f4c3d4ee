#!/usr/bin/env bash
# Kernel benchmark driver.
#
# Runs the bench_kernels binary (NTT, RNS mul, base conversion, keyswitch,
# hint integrity digest, ciphertext residue scan, rotate, hoisted rotation,
# rescale, BSGS linear transform, one bootstrap step, key-residency tiers
# eager/compact/hot with warm hint-cache variants)
# at CL_THREADS=1 and at CL_THREADS=$(nproc) and merges both runs, with
# the host's nproc, into benchmarks/BENCH_kernels.json.
#
# The op-count identities (keyswitch and rescale pass counts vs the cl-isa
# cost formulas) are asserted exactly by tests/trace_validation.rs, not here.
#
# Usage: scripts/bench.sh [--smoke] [--check]
#   --smoke  tiny shapes, one iteration per kernel (harness health check);
#            results go to target/bench_smoke/, never benchmarks/
#   --check  compare against the recorded baseline benchmarks/BENCH_kernels.json:
#            - full mode: fail if any kernel is >25% slower than recorded
#            - smoke mode: only verify every recorded kernel is present and
#              timed (single-iteration smoke timings are too noisy to gate on)
set -euo pipefail
cd "$(dirname "$0")/.."

SMOKE=""
CHECK=0
for arg in "$@"; do
    case "$arg" in
        --smoke) SMOKE="--smoke" ;;
        --check) CHECK=1 ;;
        *) echo "unknown argument: $arg" >&2; exit 2 ;;
    esac
done

cargo build --release -p cl-bench

BIN=target/release/bench_kernels
if [[ -n "$SMOKE" ]]; then
    # Smoke shapes must never overwrite the committed full-shape results.
    OUT_DIR=target/bench_smoke
else
    OUT_DIR=benchmarks
fi
mkdir -p "$OUT_DIR"

label=$(git rev-parse --short HEAD 2>/dev/null || echo current)

echo "== bench: serial (CL_THREADS=1) =="
CL_THREADS=1 "$BIN" $SMOKE --label "serial-$label" --out "$OUT_DIR/BENCH_kernels_t1.json"

# The parallel pass uses every core the host has: more threads than cores
# only measures the scheduler.
nproc=$(nproc)
echo "== bench: parallel (CL_THREADS=$nproc) =="
CL_THREADS=$nproc "$BIN" $SMOKE --label "parallel-$label" --out "$OUT_DIR/BENCH_kernels_par.json"

echo "== bench: merge =="
python3 - "$OUT_DIR" "$nproc" <<'EOF'
import json, os, sys

out_dir, nproc = sys.argv[1], int(sys.argv[2])

def load(path):
    with open(path) as f:
        return json.load(f)

t1 = load(os.path.join(out_dir, "BENCH_kernels_t1.json"))
par = load(os.path.join(out_dir, "BENCH_kernels_par.json"))

merged = {
    "shape": {k: t1[k] for k in ("n", "limbs", "limb_bits", "smoke")},
    "host": {
        "nproc": nproc,
        "backend": t1.get("backend"),
        "cpu_features": t1.get("cpu_features"),
    },
    "serial": t1,
    "parallel": par,
}

path = os.path.join(out_dir, "BENCH_kernels.json")
with open(path, "w") as f:
    json.dump(merged, f, indent=2)
    f.write("\n")
print(f"wrote {path}")
EOF

if [[ "$CHECK" == 1 ]]; then
    echo "== bench: check vs recorded baseline =="
    python3 - "$OUT_DIR" "$SMOKE" <<'EOF'
import json, os, sys

out_dir, smoke = sys.argv[1], sys.argv[2] == "--smoke"
baseline_path = os.path.join("benchmarks", "BENCH_kernels.json")
if not os.path.exists(baseline_path):
    sys.exit("bench check: no recorded baseline at " + baseline_path)
with open(baseline_path) as f:
    baseline = json.load(f)
with open(os.path.join(out_dir, "BENCH_kernels_par.json")) as f:
    current = json.load(f)["kernels_ns"]

recorded = baseline["parallel"]["kernels_ns"]
missing = [k for k in recorded if k not in current]
bogus = [k for k, ns in current.items() if not ns > 0]
if missing:
    sys.exit(f"bench check: kernels missing from current run: {missing}")
if bogus:
    sys.exit(f"bench check: non-positive timings: {bogus}")

if smoke:
    # Single-iteration smoke timings are too noisy to compare; presence
    # and sanity are the gate.
    print(f"bench check (smoke): all {len(recorded)} recorded kernels present: OK")
    sys.exit(0)

THRESHOLD = 1.25
failures = []
for k, ref in sorted(recorded.items()):
    cur = current[k]
    ratio = cur / ref
    flag = "REGRESSION" if ratio > THRESHOLD else "ok"
    print(f"  {k:>24}: {ref/1e6:9.2f} ms -> {cur/1e6:9.2f} ms ({ratio:5.2f}x) {flag}")
    if ratio > THRESHOLD:
        failures.append(k)
if failures:
    sys.exit(f"bench check: kernels regressed >25% vs recorded baseline: {failures}")
print("bench check: no kernel regressed >25% vs recorded baseline: OK")

# Checkpointing must stay cheap: the pipeline_checkpoint kernel (durable
# checkpoint every 4 micro-ops) may cost at most ~10% over the identical
# pipeline with checkpoints disabled.
CKPT_OVERHEAD = 1.10
base, ckpt = current.get("pipeline_baseline"), current.get("pipeline_checkpoint")
if base and ckpt:
    ratio = ckpt / base
    print(f"bench check: checkpoint overhead {ratio:.3f}x "
          f"({base/1e6:.2f} ms -> {ckpt/1e6:.2f} ms)")
    if ratio > CKPT_OVERHEAD:
        sys.exit(f"bench check: checkpointing overhead {ratio:.2f}x exceeds "
                 f"{CKPT_OVERHEAD:.2f}x budget")
else:
    sys.exit("bench check: pipeline_baseline/pipeline_checkpoint kernels missing")

# The job server must stay a thin shim: the same batch of jobs through a
# 1-worker server (admission parsing, queueing, dispatch, outcome
# collection, one full server lifecycle) may cost at most ~10% over
# running them straight through the executor.
SCHED_OVERHEAD = 1.10
seq, one_w = current.get("server_seq_baseline"), current.get("server_jobs_1w")
if seq and one_w:
    ratio = one_w / seq
    print(f"bench check: server scheduling overhead {ratio:.3f}x "
          f"({seq/1e6:.2f} ms -> {one_w/1e6:.2f} ms per batch)")
    if ratio > SCHED_OVERHEAD:
        sys.exit(f"bench check: server scheduling overhead {ratio:.2f}x exceeds "
                 f"{SCHED_OVERHEAD:.2f}x budget")
else:
    sys.exit("bench check: server_seq_baseline/server_jobs_1w kernels missing")

# Crash durability must stay cheap: the same 1-worker batch with the
# write-ahead job journal on (blob records, lifecycle records, batch
# fsync, one full lifecycle including journal open) may cost at most ~10%
# over the journal-free server.
JOURNAL_OVERHEAD = 1.10
one_w, journaled = current.get("server_jobs_1w"), current.get("server_journal")
if one_w and journaled:
    ratio = journaled / one_w
    print(f"bench check: server journaling overhead {ratio:.3f}x "
          f"({one_w/1e6:.2f} ms -> {journaled/1e6:.2f} ms per batch)")
    if ratio > JOURNAL_OVERHEAD:
        sys.exit(f"bench check: server journaling overhead {ratio:.2f}x exceeds "
                 f"{JOURNAL_OVERHEAD:.2f}x budget")
else:
    sys.exit("bench check: server_jobs_1w/server_journal kernels missing")

# Software KSHGen residency: the hot-hint tier (bounded HintCache over
# compact seeded keys) must hold a bootstrap-capable key set in at most a
# quarter of the eagerly materialized footprint. The compact tier and the
# per-hint regeneration cost are recorded for trending but not gated.
KEY_RESIDENT_REDUCTION = 4.0
eager = current.get("key_memory_eager_bytes")
hot = current.get("key_memory_hot_bytes")
compact = current.get("key_memory_compact_bytes")
if eager and hot and compact:
    ratio = eager / hot
    regen = current.get("key_memory_regen", 0.0)
    print(f"bench check: key residency eager {eager/1024:.0f} KiB, compact "
          f"{compact/1024:.0f} KiB ({eager/compact:.1f}x), hot tier "
          f"{hot/1024:.0f} KiB ({ratio:.1f}x); regen {regen/1e3:.1f} us/hint")
    if ratio < KEY_RESIDENT_REDUCTION:
        sys.exit(f"bench check: hot-tier key residency only {ratio:.2f}x below "
                 f"eager, budget is >= {KEY_RESIDENT_REDUCTION:.1f}x")
else:
    sys.exit("bench check: key_memory_* kernels missing")

# Lazily materialized hints must be free once warm: the hoisted-rotation
# batch and the bootstrap step with every hint fetched from a warm
# HintCache may cost at most ~10% over the same kernels holding eager keys.
HINT_WARM_OVERHEAD = 1.10
for base_k, cached_k in [
    ("rotate_hoisted_x8", "rotate_hoisted_x8_cached"),
    ("bootstrap_step", "bootstrap_step_cached"),
]:
    base, cached = current.get(base_k), current.get(cached_k)
    if not (base and cached):
        sys.exit(f"bench check: {base_k}/{cached_k} kernels missing")
    ratio = cached / base
    print(f"bench check: warm hint-cache overhead on {base_k} {ratio:.3f}x "
          f"({base/1e6:.2f} ms -> {cached/1e6:.2f} ms)")
    if ratio > HINT_WARM_OVERHEAD:
        sys.exit(f"bench check: warm hint-cache overhead {ratio:.2f}x on "
                 f"{base_k} exceeds {HINT_WARM_OVERHEAD:.2f}x budget")
EOF
fi
