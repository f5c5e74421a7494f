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
#             browser protocol at random plus a forced --h2 sweep), the
#             oracle-off / flash-off / breakdown-off / h2 / two-arm
#             cross-thread byte-identity checks (feature-on runs compared
#             across thread counts) and the unknown-flag rejection check
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
#   scale   — user-major replay at CI scale under peak-RSS ceilings: the
#             common 50k-user config byte-compared across --threads 2 and
#             4, plus one edge PoP + flash config (a few minutes; not part
#             of the no-argument run — CI invokes it as its own job)
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

  echo "== two-arm byte-identity =="
  # Two arms (catalyst vs baseline) with faults, the oracle and the phase
  # breakdown: covers the baseline and PLT-reduction tallies.
  two_arm=(--users 400 --seed 7 --breakdown --oracle --loss 0.01)
  "./$BUILD_DIR/tools/fleetsim" "${two_arm[@]}" --threads 1 --json \
      2>/dev/null > /tmp/two_arm_t1.json
  "./$BUILD_DIR/tools/fleetsim" "${two_arm[@]}" --threads 4 --json \
      2>/dev/null > /tmp/two_arm_t4.json
  cmp /tmp/two_arm_t1.json /tmp/two_arm_t4.json

  echo "== unknown flags are rejected =="
  # A misspelt flag or a retired one must fail the run, not silently run
  # a different experiment.
  for bad in "--edge-pop 2" "--max-live-users 8"; do
    # shellcheck disable=SC2086
    if "./$BUILD_DIR/tools/fleetsim" --users 1 $bad >/dev/null 2>&1; then
      echo "FAIL: fleetsim accepted unknown flag: $bad" >&2
      exit 1
    fi
  done
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
  # label here means exactly the parked-blob fuzz tests — corrupted
  # revives are decode-of-hostile-bytes and must be UB-clean.
  # The perf label includes the SHA-1 kernel differential test.
  configure "$ASAN_BUILD_DIR" -DCATALYST_SANITIZE=address
  cmake --build "$ASAN_BUILD_DIR" -j"$JOBS" --target \
      check_oracle_test check_replay_test robustness_test \
      netsim_faults_test client_retry_test \
      util_intern_test util_flat_hash_test util_pool_test util_hash_test \
      fleet_parked_state_test
  ctest --test-dir "$ASAN_BUILD_DIR" --output-on-failure \
      --timeout "$CTEST_TIMEOUT" -L 'oracle|robustness|perf|fleet'
}

stage_tsan() {
  echo "== TSan — oracle + fleet + edge labels =="
  configure "$TSAN_BUILD_DIR" -DCATALYST_SANITIZE=thread
  cmake --build "$TSAN_BUILD_DIR" -j"$JOBS" --target \
      check_replay_test fleet_determinism_test fleet_report_test \
      fleet_user_model_test edge_tier_test \
      edge_fleet_test edge_flash_test edge_flash_fleet_test obs_fleet_test
  ctest --test-dir "$TSAN_BUILD_DIR" --output-on-failure \
      --timeout "$CTEST_TIMEOUT" -L 'oracle|fleet|edge'
}

# Runs a command with stdout to $2 and fails if it exits non-zero or its
# peak RSS (getrusage RUSAGE_CHILDREN, so the child alone) exceeds $1 MiB.
rss_gate() {
  local ceiling_mib=$1 out=$2
  shift 2
  python3 - "$ceiling_mib" "$out" "$@" <<'PY'
import resource, subprocess, sys
ceiling, out, cmd = float(sys.argv[1]), sys.argv[2], sys.argv[3:]
with open(out, "wb") as f:
    rc = subprocess.call(cmd, stdout=f, stderr=subprocess.DEVNULL)
peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
print(f"peak RSS {peak:.0f} MiB (ceiling {ceiling:.0f} MiB): {' '.join(cmd)}")
if rc != 0:
    sys.exit(f"FAIL: exit status {rc}")
if peak > ceiling:
    sys.exit("FAIL: peak RSS over its ceiling")
PY
}

stage_scale() {
  echo "== user-major scale + memory gate =="
  # User-major replay keeps one user's testbeds per worker thread, so peak
  # RSS must stay flat in --users. Each ceiling notes the peak measured on
  # a 4-vCPU x86-64 box (default RelWithDebInfo build, gcc 12) and its
  # margin over it.
  configure "$BUILD_DIR"
  cmake --build "$BUILD_DIR" -j"$JOBS" --target fleetsim
  local fleetsim="./$BUILD_DIR/tools/fleetsim"
  knobs=(--users 50000 --max-visits 2 --mean-gap-hours 120
         --baseline catalyst --sites 4)
  # ROADMAP common config: measured 26 MiB peak; ceiling 40 MiB (+54%).
  rss_gate 40 /tmp/scale_t2.json \
      "$fleetsim" "${knobs[@]}" --threads 2 --json
  # Same config on 4 threads: measured 47 MiB peak; ceiling 64 MiB (+36%).
  rss_gate 64 /tmp/scale_t4.json \
      "$fleetsim" "${knobs[@]}" --threads 4 --json
  cmp /tmp/scale_t2.json /tmp/scale_t4.json
  # Edge PoPs + flash: one shard per PoP, each holding its own RAM and
  # flash tiers for both arms. Measured 592 MiB peak (626 MiB at 5000
  # users: the PoP tiers, not the users, set it); ceiling 800 MiB (+35%).
  rss_gate 800 /tmp/scale_pop.json \
      "$fleetsim" --users 2000 --edge-pops 4 --edge-flash-mb 32 \
      --threads 4 --json
  echo "scale gate: reports byte-identical across thread counts, peak RSS under every ceiling"
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
