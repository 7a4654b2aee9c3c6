#!/usr/bin/env bash
# Tier-1 verification: configure, build, and run the full ctest suite.
# Mirrors the command pinned in ROADMAP.md; CI and local runs share it.
# Environment knobs:
#   CMAKE_BUILD_TYPE  build type (CI runs Debug + Release + sanitizer
#                     legs); unset, CMakeLists.txt's RelWithDebInfo
#                     default applies.
#   SANITIZE          comma-separated sanitizer list passed through as
#                     -DADJ_SANITIZE (e.g. "address,undefined" or
#                     "thread" — TSan is incompatible with ASan, so it
#                     gets its own leg).
#   BUILD_TARGETS     space-separated cmake targets to build instead of
#                     everything (the TSan leg builds only the
#                     concurrency-heavy serve/dist targets).
#   CTEST_FILTER      regex passed to ctest -R to run a subset.
#   WARNINGS_GATE     when 1, fail if the build printed any compiler
#                     warning located in the repo's src/, tests/,
#                     bench/, examples/ or benchmark/ (system headers
#                     under /usr are exempt). Only what this build
#                     compiled is seen, so gate a fresh build dir (a
#                     ccache hit replays the cached warnings).
#   BUILD_DIR, JOBS   build directory and parallelism.
# ccache is picked up automatically when installed (CI caches it).
set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"
BUILD_DIR="${BUILD_DIR:-build}"
BUILD_TYPE="${CMAKE_BUILD_TYPE:-}"
SANITIZE="${SANITIZE:-}"
BUILD_TARGETS="${BUILD_TARGETS:-}"
CTEST_FILTER="${CTEST_FILTER:-}"
WARNINGS_GATE="${WARNINGS_GATE:-}"

LAUNCHER=""
if command -v ccache > /dev/null 2>&1; then
  LAUNCHER=ccache
fi

# ADJ_SANITIZE is passed unconditionally (empty included) so a reused
# build dir cannot keep a stale cached sanitizer setting.
cmake -B "${BUILD_DIR}" -S . \
  ${BUILD_TYPE:+-DCMAKE_BUILD_TYPE="${BUILD_TYPE}"} \
  -DADJ_SANITIZE="${SANITIZE}" \
  ${LAUNCHER:+-DCMAKE_CXX_COMPILER_LAUNCHER="${LAUNCHER}"}
# The build log is kept next to the build for the warning gate below.
BUILD_LOG="${BUILD_DIR}/build.log"
# shellcheck disable=SC2086  # BUILD_TARGETS is a deliberate word list
cmake --build "${BUILD_DIR}" -j "${JOBS}" \
  ${BUILD_TARGETS:+--target ${BUILD_TARGETS}} 2>&1 | tee "${BUILD_LOG}"

if [ "${WARNINGS_GATE}" = "1" ]; then
  # Warning lines whose file, absolute or relative to the repo root,
  # lies in one of the repo's source trees.
  repo_warnings="$(awk -v root="$(pwd)/" '
    /: warning:/ {
      path = $0
      if (index(path, root) == 1) path = substr(path, length(root) + 1)
      if (path ~ /^(src|tests|bench|examples|benchmark)\//) print $0
    }' "${BUILD_LOG}")"
  if [ -n "${repo_warnings}" ]; then
    echo "warning gate: the build warned in repo sources:" >&2
    echo "${repo_warnings}" >&2
    exit 1
  fi
fi
ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "${JOBS}" \
  ${CTEST_FILTER:+-R "${CTEST_FILTER}"}
