#!/usr/bin/env bash
# Verification ladder for the caching stack — the single entrypoint both
# local runs and CI jobs use (each .github/workflows/ci.yml job invokes
# one stage, so passing CI and a local `tools/run_checks.sh` are the same
# checks by construction).
#
# Stages:
#
#   plain   — full build + complete ctest suite (includes oracle label)
#   diff    — differential harness sweep (clean + mutation self-tests,
#             including the parked-blob corruption arm; rounds draw the
#             browser protocol at random plus a forced --h2 sweep) and
#             the oracle-off / flash-off / breakdown-off / h2 /
#             streaming-off / cross-thread byte-identity checks
#             (feature-on runs compared across thread counts)
#   perf    — engine_hotpath --smoke gated against bench/baselines/
#             hotpath.json (fails on >20% macro throughput regression)
#             plus the edge_offload --smoke flash sweep and the
#             --breakdown overhead gate (>=97% of off-throughput); echoes
#             the SHA-1 ETag kernel and its MB/s beside events/sec.
#             Both BENCH_*.json artifacts are written before the gate
#             verdict so a regression still uploads its numbers
#   asan    — ASan+UBSan build, oracle/robustness/perf/fleet labels (the
#             fault, pooling and parked-blob-fuzz paths are where
#             lifetime bugs hide)
#   tsan    — TSan build, oracle/fleet/edge labels (trace recording and
#             oracle counters ride the fleet's shard merge; prove they
#             stay race-free)
#   scale   — streaming determinism at CI scale: 200k users through a
#             4096-slot arena, byte-compared across thread counts
#             (~tens of minutes; not part of the no-argument run — CI
#             invokes it as its own job)
#
# Usage: tools/run_checks.sh [stage ...]
#   No arguments runs every stage in the order above except scale.
#   --fast is shorthand for "plain diff" (skip sanitizers and perf).
#
# Environment:
#   BUILD_DIR       plain build tree            (default: build)
#   ASAN_BUILD_DIR  ASan+UBSan build tree       (default: build-asan)
#   TSAN_BUILD_DIR  TSan build tree             (default: build-tsan)
#   JOBS            parallel build/test width   (default: nproc)
#   CMAKE_ARGS      extra args for every cmake configure (e.g. ccache
#                   launcher flags in CI)
#
# Any failure stops the script with a non-zero exit.
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
ASAN_BUILD_DIR="${ASAN_BUILD_DIR:-build-asan}"
TSAN_BUILD_DIR="${TSAN_BUILD_DIR:-build-tsan}"
JOBS="${JOBS:-$(nproc 2>/dev/null || echo 2)}"
CMAKE_ARGS="${CMAKE_ARGS:-}"

configure() {
  # $1 = build dir, rest = extra -D flags. CMAKE_ARGS is intentionally
  # word-split so CI can pass several flags in one variable.
  # shellcheck disable=SC2086
  cmake -B "$1" -S . ${CMAKE_ARGS} "${@:2}" >/dev/null
}

# Per-test ctest timeout (seconds). A hung test — a non-terminating
# event loop, a deadlocked shard merge — gets killed and named in
# Testing/Temporary/LastTest.log instead of stalling the whole job until
# the runner's 6-hour limit.
CTEST_TIMEOUT="${CTEST_TIMEOUT:-300}"

stage_plain() {
  echo "== plain build + full suite =="
  configure "$BUILD_DIR"
  cmake --build "$BUILD_DIR" -j"$JOBS"
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j"$JOBS" \
      --timeout "$CTEST_TIMEOUT"
}

stage_diff() {
  echo "== differential harness (clean + mutation self-test) =="
  configure "$BUILD_DIR"
  cmake --build "$BUILD_DIR" -j"$JOBS" --target difftest fleetsim
  "./$BUILD_DIR/tools/difftest" --rounds 50 --seed 1
  "./$BUILD_DIR/tools/difftest" --rounds 50 --seed 1 --mutate stale-serve
  "./$BUILD_DIR/tools/difftest" --rounds 10 --seed 1 --mutate unkeyed-header
  "./$BUILD_DIR/tools/difftest" --rounds 10 --seed 1 --mutate parked-corrupt

  echo "== oracle-off byte-identity =="
  # With --oracle off the report must not grow an "oracle" section, and
  # must stay bit-identical across thread counts with it on.
  if "./$BUILD_DIR/tools/fleetsim" --users 60 --json 2>/dev/null \
      | grep -q '"oracle"'; then
    echo "FAIL: oracle section present in an oracle-off report" >&2
    exit 1
  fi
  "./$BUILD_DIR/tools/fleetsim" --users 60 --oracle --trace-users 2 \
      --threads 1 --json 2>/dev/null > /tmp/oracle_t1.json
  "./$BUILD_DIR/tools/fleetsim" --users 60 --oracle --trace-users 2 \
      --threads 8 --json 2>/dev/null > /tmp/oracle_t8.json
  cmp /tmp/oracle_t1.json /tmp/oracle_t8.json

  echo "== flash-tier byte-identity =="
  # Flash-off edge reports must not grow a "flash" section, and flash-on
  # runs must stay bit-identical across thread counts (the async flash
  # reads and device-queue jitter are all on the virtual clock).
  if "./$BUILD_DIR/tools/fleetsim" --users 60 --edge-pops 2 --json \
      2>/dev/null | grep -q '"flash"'; then
    echo "FAIL: flash section present in a flash-off edge report" >&2
    exit 1
  fi
  "./$BUILD_DIR/tools/fleetsim" --users 60 --edge-pops 2 \
      --edge-capacity-mb 1 --edge-flash-mb 16 --threads 1 --json \
      2>/dev/null > /tmp/flash_t1.json
  "./$BUILD_DIR/tools/fleetsim" --users 60 --edge-pops 2 \
      --edge-capacity-mb 1 --edge-flash-mb 16 --threads 8 --json \
      2>/dev/null > /tmp/flash_t8.json
  cmp /tmp/flash_t1.json /tmp/flash_t8.json

  echo "== adversarial gate =="
  # Attack traffic against the default strict keying must audit clean,
  # and the planted vulnerability (--vulnerable-keying) must be
  # convicted with poisoning-class violations. Adversary-on runs stay
  # bit-identical across thread counts like everything else.
  "./$BUILD_DIR/tools/fleetsim" --users 40 --seed 7 --edge-pops 2 \
      --adversary --oracle --threads 1 --json 2>/dev/null \
      > /tmp/adv_strict_t1.json
  "./$BUILD_DIR/tools/fleetsim" --users 40 --seed 7 --edge-pops 2 \
      --adversary --oracle --threads 4 --json 2>/dev/null \
      > /tmp/adv_strict_t4.json
  cmp /tmp/adv_strict_t1.json /tmp/adv_strict_t4.json
  if grep -q '"poisoned_serves"' /tmp/adv_strict_t1.json; then
    echo "FAIL: strict keying reported poisoned serves" >&2
    exit 1
  fi
  "./$BUILD_DIR/tools/fleetsim" --users 40 --seed 7 --edge-pops 2 \
      --adversary --vulnerable-keying --oracle --json 2>/dev/null \
      > /tmp/adv_vuln.json
  if ! grep -q '"poisoned_serves"' /tmp/adv_vuln.json; then
    echo "FAIL: vulnerable keying escaped the oracle" >&2
    exit 1
  fi

  echo "== breakdown byte-identity =="
  # Without --breakdown the report must not grow a "phases" section, and
  # breakdown-on runs (phase histograms included) must stay bit-identical
  # across thread counts — all phase timing lives on the virtual clock.
  if "./$BUILD_DIR/tools/fleetsim" --users 60 --edge-pops 2 --json \
      2>/dev/null | grep -q '"phases"'; then
    echo "FAIL: phases section present in a breakdown-off report" >&2
    exit 1
  fi
  "./$BUILD_DIR/tools/fleetsim" --users 60 --edge-pops 2 \
      --edge-capacity-mb 1 --edge-flash-mb 16 --loss 0.01 --breakdown \
      --threads 1 --json 2>/dev/null > /tmp/breakdown_t1.json
  "./$BUILD_DIR/tools/fleetsim" --users 60 --edge-pops 2 \
      --edge-capacity-mb 1 --edge-flash-mb 16 --loss 0.01 --breakdown \
      --threads 8 --json 2>/dev/null > /tmp/breakdown_t8.json
  cmp /tmp/breakdown_t1.json /tmp/breakdown_t8.json
  grep -q '"phases"' /tmp/breakdown_t1.json

  echo "== h2 byte-identity =="
  # The --h2 ablation axis forces HTTP/2 fleet-wide; it must uphold the
  # same invariant as every other feature (bit-identical reports across
  # thread counts) and actually change the simulation (H2 reports differ
  # from H1). The forced-H2 difftest sweep keeps the oracle green on the
  # multiplexed transport specifically; the regular sweep above already
  # draws the protocol per round.
  "./$BUILD_DIR/tools/fleetsim" --users 60 --edge-pops 2 --h2 \
      --threads 1 --json 2>/dev/null > /tmp/h2_t1.json
  "./$BUILD_DIR/tools/fleetsim" --users 60 --edge-pops 2 --h2 \
      --threads 8 --json 2>/dev/null > /tmp/h2_t8.json
  cmp /tmp/h2_t1.json /tmp/h2_t8.json
  "./$BUILD_DIR/tools/fleetsim" --users 60 --edge-pops 2 \
      --threads 1 --json 2>/dev/null > /tmp/h1_ref.json
  if cmp -s /tmp/h2_t1.json /tmp/h1_ref.json; then
    echo "FAIL: --h2 produced a byte-identical report to H1" >&2
    exit 1
  fi
  "./$BUILD_DIR/tools/difftest" --rounds 10 --seed 1 --h2

  echo "== streaming byte-identity =="
  # The streaming shard engine (bounded live arena + park/revive) must be
  # pure scheduling: with --max-live-users the report stays bit-identical
  # to the materialise-everything engine and across thread counts.
  knobs=(--max-visits 2 --mean-gap-hours 120 --baseline catalyst --sites 4)
  "./$BUILD_DIR/tools/fleetsim" --users 2000 "${knobs[@]}" --json \
      2>/dev/null > /tmp/stream_legacy.json
  "./$BUILD_DIR/tools/fleetsim" --users 2000 "${knobs[@]}" \
      --max-live-users 128 --threads 1 --json 2>/dev/null \
      > /tmp/stream_t1.json
  "./$BUILD_DIR/tools/fleetsim" --users 2000 "${knobs[@]}" \
      --max-live-users 128 --threads 4 --json 2>/dev/null \
      > /tmp/stream_t4.json
  cmp /tmp/stream_legacy.json /tmp/stream_t1.json
  cmp /tmp/stream_t1.json /tmp/stream_t4.json
  # Two arms (catalyst vs baseline) with faults, the oracle and the phase
  # breakdown: covers the baseline and PLT-reduction tallies.
  two_arm=(--users 400 --seed 7 --breakdown --oracle --loss 0.01)
  "./$BUILD_DIR/tools/fleetsim" "${two_arm[@]}" --json 2>/dev/null \
      > /tmp/stream2_legacy.json
  "./$BUILD_DIR/tools/fleetsim" "${two_arm[@]}" --max-live-users 8 \
      --json 2>/dev/null > /tmp/stream2_arena.json
  cmp /tmp/stream2_legacy.json /tmp/stream2_arena.json
}

stage_perf() {
  echo "== perf smoke: engine_hotpath vs checked-in baseline =="
  configure "$BUILD_DIR"
  cmake --build "$BUILD_DIR" -j"$JOBS" --target engine_hotpath edge_offload
  # Artifact production is decoupled from the gate verdict: a gated
  # regression must still leave both BENCH_*.json files behind (CI
  # uploads them with if-no-files-found: error), because the numbers
  # that show the regression are exactly the ones worth keeping.
  hotpath_rc=0
  "./$BUILD_DIR/bench/engine_hotpath" --smoke \
      --out BENCH_hotpath.json \
      --baseline bench/baselines/hotpath.json || hotpath_rc=$?

  # The trend line CI's step summary prints: a runner without the SHA
  # extensions hashes ETags several times slower, and says so here.
  if [ -f BENCH_hotpath.json ]; then
    python3 - <<'PY'
import json
run = json.load(open("BENCH_hotpath.json"))
micro = run["micro"]
print(f"perf trend: smoke macro {run['macro']['events_per_sec']:,.0f} "
      f"events/sec; SHA-1 ETag kernel {micro['sha1_kernel']}, "
      f"{micro['sha1_mb_per_s']:,.0f} MB/s")
PY
  fi

  echo "== perf smoke: edge_offload flash sweep =="
  # Exercises the flash-enabled offload sweep end to end (RAM-only and
  # two-tier points plus the read-merge probe); no gating baseline yet.
  "./$BUILD_DIR/bench/edge_offload" --smoke > BENCH_edge_offload.json

  echo "== perf smoke: observability overhead gate =="
  # The phase breakdown must stay near-free: the same macro fleet with
  # --breakdown on must keep >=97% of breakdown-off throughput.
  "./$BUILD_DIR/bench/engine_hotpath" --smoke --overhead-gate

  if [ "$hotpath_rc" -ne 0 ]; then
    echo "FAIL: engine_hotpath smoke macro below the baseline gate" >&2
    exit "$hotpath_rc"
  fi
}

stage_asan() {
  echo "== ASan+UBSan — oracle + robustness + perf + fleet labels =="
  # Only targets built in this tree register with ctest, so the fleet
  # label here means exactly the parked-blob fuzz + streaming tests —
  # corrupted revives are decode-of-hostile-bytes and must be UB-clean.
  # The perf label includes the SHA-1 kernel differential test.
  configure "$ASAN_BUILD_DIR" -DCATALYST_SANITIZE=address
  cmake --build "$ASAN_BUILD_DIR" -j"$JOBS" --target \
      check_oracle_test check_replay_test robustness_test \
      netsim_faults_test client_retry_test \
      util_intern_test util_flat_hash_test util_pool_test util_hash_test \
      fleet_parked_state_test fleet_streaming_test
  ctest --test-dir "$ASAN_BUILD_DIR" --output-on-failure \
      --timeout "$CTEST_TIMEOUT" -L 'oracle|robustness|perf|fleet'
}

stage_tsan() {
  echo "== TSan — oracle + fleet + edge labels =="
  configure "$TSAN_BUILD_DIR" -DCATALYST_SANITIZE=thread
  cmake --build "$TSAN_BUILD_DIR" -j"$JOBS" --target \
      check_replay_test fleet_determinism_test fleet_report_test \
      fleet_user_model_test fleet_streaming_test edge_tier_test \
      edge_fleet_test edge_flash_test edge_flash_fleet_test obs_fleet_test
  ctest --test-dir "$TSAN_BUILD_DIR" --output-on-failure \
      --timeout "$CTEST_TIMEOUT" -L 'oracle|fleet|edge'
}

stage_scale() {
  echo "== streaming determinism at scale (200k users, 4096-slot arena) =="
  # The issue-9 acceptance gate: a 200k-user fleet streamed through a
  # bounded arena must produce byte-identical reports for any --threads.
  # Cheap per-user knobs keep this to tens of minutes of virtual fleet.
  configure "$BUILD_DIR"
  cmake --build "$BUILD_DIR" -j"$JOBS" --target fleetsim
  knobs=(--max-visits 2 --mean-gap-hours 120 --baseline catalyst --sites 4)
  "./$BUILD_DIR/tools/fleetsim" --users 200000 "${knobs[@]}" \
      --max-live-users 4096 --threads 1 --json 2>/dev/null \
      > /tmp/scale_t1.json
  "./$BUILD_DIR/tools/fleetsim" --users 200000 "${knobs[@]}" \
      --max-live-users 4096 --threads 2 --json 2>/dev/null \
      > /tmp/scale_t2.json
  cmp /tmp/scale_t1.json /tmp/scale_t2.json
  echo "scale gate: reports byte-identical across thread counts"
}

stages=()
for arg in "$@"; do
  case "$arg" in
    --fast) stages+=(plain diff) ;;
    plain|diff|perf|asan|tsan|scale) stages+=("$arg") ;;
    *)
      echo "usage: tools/run_checks.sh [--fast] [plain|diff|perf|asan|tsan|scale ...]" >&2
      exit 2
      ;;
  esac
done
[ "${#stages[@]}" -eq 0 ] && stages=(plain diff perf asan tsan)

for stage in "${stages[@]}"; do
  "stage_${stage}"
done

echo "== all checks passed =="
