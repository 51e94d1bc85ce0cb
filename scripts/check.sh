#!/usr/bin/env bash
# Tier-1 verify plus sanitizer passes.
#
#   scripts/check.sh          # plain build + ctest, then ASan+UBSan build + ctest
#   scripts/check.sh --fast   # plain build + ctest only
#   scripts/check.sh --tsan   # ThreadSanitizer build, exec + pipeline + faults
#                             # tests only (the suites with real concurrency;
#                             # TSan cannot combine with ASan, so it gets its
#                             # own tree)
#   scripts/check.sh --format # clang-format --dry-run --Werror over the tree
#   scripts/check.sh --fuzz   # ROOMNET_FUZZ=ON + ASan/UBSan build, seed the
#                             # corpora via `roomnet corpus gen`, then smoke-run
#                             # every harness. Total budget across harnesses
#                             # comes from ROOMNET_FUZZ_BUDGET_S (default
#                             # 60 s); ROOMNET_FUZZ_SANITIZE overrides the
#                             # sanitizer list (thread is refused — fuzz
#                             # executions are single-threaded and libFuzzer
#                             # + TSan is unsupported, mirroring the CMake
#                             # guard).
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

if [[ "${1:-}" == "--format" ]]; then
  echo "== lint: clang-format --dry-run --Werror over src/ tests/ bench/ =="
  CLANG_FORMAT=""
  for candidate in clang-format clang-format-20 clang-format-19 \
                   clang-format-18 clang-format-17 clang-format-16 \
                   clang-format-15 clang-format-14; do
    if command -v "${candidate}" >/dev/null 2>&1; then
      CLANG_FORMAT="${candidate}"
      break
    fi
  done
  if [[ -z "${CLANG_FORMAT}" ]]; then
    echo "error: no clang-format binary found on PATH" >&2
    exit 1
  fi
  "${CLANG_FORMAT}" --version
  find src tests bench \( -name '*.cpp' -o -name '*.hpp' \) -print0 |
    xargs -0 "${CLANG_FORMAT}" --dry-run --Werror
  echo "== format clean =="
  exit 0
fi

if [[ "${1:-}" == "--tsan" ]]; then
  echo "== sanitizers: TSan build + exec/pipeline tests =="
  cmake -B build-tsan -S . -DROOMNET_SANITIZE=thread \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-tsan -j "${JOBS}"
  # The exec suites plus the pipeline tests that exercise worker threads
  # (the determinism tests run the pipeline at threads 1, 2, and 4 — the
  # Faults* suites additionally with fault injection live, the Stream*
  # suites in streaming mode where the flow cache evicts on the sim
  # thread), plus the zero-copy capture-path suites (PacketView*/
  # DecodeFrameView): their shared-frame-buffer invariants are exactly what
  # data races would corrupt. The
  # PipelineFixture integration tests are excluded: each ctest entry
  # re-runs the whole 40-virtual-minute study, which under TSan costs
  # minutes apiece without adding concurrency coverage beyond the
  # determinism tests.
  TSAN_OPTIONS=halt_on_error=1 \
    ctest --test-dir build-tsan --output-on-failure -j "${JOBS}" \
          -R '^(ExecPool|ExecParallel|PipelineDeterminism|PipelineTelemetry|Faults|PacketView|DecodeFrameView|Stream|Watch|Fleet|FuzzRegressions)'
  echo "== tsan checks passed =="
  exit 0
fi

if [[ "${1:-}" == "--fuzz" ]]; then
  SANITIZE="${ROOMNET_FUZZ_SANITIZE:-address;undefined}"
  if [[ "${SANITIZE}" == *thread* ]]; then
    echo "error: ROOMNET_FUZZ_SANITIZE must not include thread:" >&2
    echo "  the harnesses are single-threaded and libFuzzer + TSan is" >&2
    echo "  unsupported; use address and/or undefined" >&2
    exit 1
  fi
  BUDGET_S="${ROOMNET_FUZZ_BUDGET_S:-60}"
  echo "== fuzz: ROOMNET_FUZZ=ON + ${SANITIZE} build =="
  cmake -B build-fuzz -S . -DROOMNET_FUZZ=ON \
        -DROOMNET_SANITIZE="${SANITIZE}" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-fuzz -j "${JOBS}"
  ENGINE="$(cat build-fuzz/fuzz_engine.txt)"
  echo "== fuzz: engine=${ENGINE}, total budget ${BUDGET_S}s =="

  CORPUS_DIR="${ROOMNET_FUZZ_CORPUS:-build-fuzz/corpus}"
  if [[ ! -d "${CORPUS_DIR}/frame" ]]; then
    echo "== fuzz: seeding corpora into ${CORPUS_DIR} =="
    ./build-fuzz/tools/roomnet corpus gen "${CORPUS_DIR}" \
      --idle-seconds 30 --interactions 10 --pcap-dir quickstart_pcaps
  fi

  HARNESSES=(frame roundtrip dns dhcp ssdp tls payload stream)
  PER_HARNESS_S=$(( BUDGET_S / ${#HARNESSES[@]} ))
  [[ "${PER_HARNESS_S}" -lt 1 ]] && PER_HARNESS_S=1
  mkdir -p build-fuzz/artifacts
  FAILED=0
  for h in "${HARNESSES[@]}"; do
    echo "== fuzz: ${h} (${PER_HARNESS_S}s) =="
    SEEDS=(tests/fuzz/corpus/regressions/*/)
    [[ -d "${CORPUS_DIR}/${h}" ]] && SEEDS+=("${CORPUS_DIR}/${h}")
    # abort_on_error routes ASan reports through SIGABRT so the driver's
    # handler (or libFuzzer) persists the dying input as an artifact.
    if ! ASAN_OPTIONS=detect_leaks=0,abort_on_error=1 \
         UBSAN_OPTIONS=halt_on_error=1 \
         "./build-fuzz/tests/fuzz/fuzz_${h}" \
           -max_total_time="${PER_HARNESS_S}" \
           -artifact_prefix="build-fuzz/artifacts/${h}-" \
           "${SEEDS[@]}"; then
      echo "error: fuzz_${h} crashed; reproducer under build-fuzz/artifacts/" >&2
      FAILED=1
    fi
  done
  if [[ "${FAILED}" -ne 0 ]]; then
    echo "== fuzz checks FAILED; minimize with:" >&2
    echo "   build-fuzz/tests/fuzz/fuzz_<h> -minimize_crash=1 <artifact>" >&2
    exit 1
  fi
  echo "== fuzz checks passed (${ENGINE}, ${#HARNESSES[@]} harnesses) =="
  exit 0
fi

echo "== tier-1: RelWithDebInfo build + ctest =="
cmake -B build -S .
cmake --build build -j "${JOBS}"
ctest --test-dir build --output-on-failure -j "${JOBS}"

if [[ "${1:-}" == "--fast" ]]; then
  echo "== skipped sanitizer pass (--fast) =="
  exit 0
fi

echo "== sanitizers: ASan+UBSan build + ctest =="
cmake -B build-san -S . -DROOMNET_SANITIZE="address;undefined" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build-san -j "${JOBS}"
ASAN_OPTIONS=detect_leaks=0 UBSAN_OPTIONS=halt_on_error=1 \
  ctest --test-dir build-san --output-on-failure -j "${JOBS}"

echo "== all checks passed =="
