#!/usr/bin/env bash
# Single entry point for the repo's static-analysis gates. Runs, in order:
#
#   1. clang-tidy over every svx translation unit (.clang-tidy config,
#      findings are errors) — skipped with a notice when clang-tidy is not
#      installed, since the toolchain may be GCC-only.
#   2. A Clang -Werror=thread-safety build — the compile-time race
#      detection gate over the annotated concurrent classes — skipped with
#      a notice when clang is not installed.
#   3. Negative-compile probes: one dropped [[nodiscard]] Status and (under
#      clang) one thread-safety violation, each of which MUST fail to
#      compile. This is what keeps the gates honest: a misconfigured flag
#      that silently stopped enforcing would fail here, not ship.
#
# Exit code 0 means every gate that could run passed. CI runs this with
# clang installed, so all three stages are exercised there; locally it
# degrades to whatever the host toolchain supports.
#
# Usage: tools/lint.sh [--probes-only] [build-dir]   (default: build-lint)
# --probes-only runs just stage 3 — for CI jobs that already ran the tidy
# and thread-safety builds and only need the gates proven honest.
set -u

cd "$(dirname "$0")/.."
PROBES_ONLY=0
if [ "${1:-}" = "--probes-only" ]; then
  PROBES_ONLY=1
  shift
fi
BUILD_DIR="${1:-build-lint}"
FAILURES=0

note()  { printf '\n== %s\n' "$*"; }
fail()  { printf 'FAIL: %s\n' "$*"; FAILURES=$((FAILURES + 1)); }
pass()  { printf 'ok: %s\n' "$*"; }

# ---- 1. clang-tidy sweep ------------------------------------------------
note "clang-tidy sweep"
if [ "$PROBES_ONLY" = 1 ]; then
  echo "skip: --probes-only"
elif command -v clang-tidy >/dev/null 2>&1; then
  if cmake -B "$BUILD_DIR" -S . -DENABLE_CLANG_TIDY=ON >/dev/null &&
     cmake --build "$BUILD_DIR" -j "$(nproc)"; then
    pass "clang-tidy build clean"
  else
    fail "clang-tidy build reported findings (see output above)"
  fi
else
  echo "skip: clang-tidy not installed"
fi

# ---- 2. Clang thread-safety build --------------------------------------
note "clang -Werror=thread-safety build"
CLANG_CXX=""
for c in clang++ clang++-19 clang++-18 clang++-17 clang++-16 clang++-15 \
         clang++-14; do
  if command -v "$c" >/dev/null 2>&1; then CLANG_CXX="$c"; break; fi
done
if [ -z "$CLANG_CXX" ]; then
  echo "skip: clang++ not installed"
elif [ "$PROBES_ONLY" = 1 ]; then
  echo "skip: --probes-only"
elif cmake -B "$BUILD_DIR-tsa" -S . -DCMAKE_CXX_COMPILER="$CLANG_CXX" \
       >/dev/null &&
     cmake --build "$BUILD_DIR-tsa" -j "$(nproc)"; then
  pass "thread-safety analysis clean"
else
  fail "thread-safety analysis reported violations (see output above)"
fi

# ---- 3. Negative-compile probes ----------------------------------------
# Each probe is code the gates exist to reject; if it compiles, the gate
# has silently stopped enforcing.
note "negative-compile probes"
PROBE_DIR="$(mktemp -d)"
trap 'rm -rf "$PROBE_DIR"' EXIT

cat > "$PROBE_DIR/drop_status.cc" <<'EOF'
#include "src/util/status.h"
svx::Status Make() { return svx::Status::OK(); }
void Caller() { Make(); }  // dropped [[nodiscard]] Status: must not compile
EOF
if ${CXX:-c++} -std=c++20 -I. -Wall -Werror=unused-result -fsyntax-only \
     "$PROBE_DIR/drop_status.cc" 2>/dev/null; then
  fail "a dropped Status compiled — [[nodiscard]] enforcement is off"
else
  pass "dropped Status rejected"
fi

# Positive probe: metric call sites must keep compiling when every metric is
# compiled out (-DSVX_METRICS_DISABLED, the CI overhead gate's baseline
# build). If the no-op inline bodies drift out of sync with the real API,
# this catches it without a full CMake reconfigure.
cat > "$PROBE_DIR/metrics_off.cc" <<'EOF'
#include "src/observability/metrics.h"
void Touch() {
  svx::metrics::RewriteCalls()->Add(1);
  svx::metrics::EpochCurrent()->Set(3);
  svx::metrics::RewriteLatencyUs()->Observe(42);
  svx::metrics::RegisterStandardMetrics();
}
EOF
if ${CXX:-c++} -std=c++20 -I. -Wall -Werror=unused-result \
     -DSVX_METRICS_DISABLED -fsyntax-only "$PROBE_DIR/metrics_off.cc"; then
  pass "metrics call sites compile with SVX_METRICS_DISABLED"
else
  fail "metrics kill switch broke a call site (no-op stubs out of sync)"
fi

if [ -n "$CLANG_CXX" ]; then
  cat > "$PROBE_DIR/race.cc" <<'EOF'
#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"
class Racy {
 public:
  int Read() const { return value_; }  // unlocked read: must not compile
 private:
  mutable svx::Mutex mu_;
  int value_ SVX_GUARDED_BY(mu_) = 0;
};
EOF
  if "$CLANG_CXX" -std=c++20 -I. -Wthread-safety -Werror=thread-safety \
       -fsyntax-only "$PROBE_DIR/race.cc" 2>/dev/null; then
    fail "an unlocked guarded read compiled — thread-safety gate is off"
  else
    pass "unlocked guarded read rejected"
  fi
fi

# ---- Summary ------------------------------------------------------------
note "summary"
if [ "$FAILURES" -eq 0 ]; then
  echo "all lint gates passed (skipped stages noted above)"
else
  echo "$FAILURES lint gate(s) failed"
fi
exit "$((FAILURES > 0))"
