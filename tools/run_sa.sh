#!/usr/bin/env bash
# Runs the dcpim-sa semantic analyzer over src/ (sixth CI lane).
#
# Usage: tools/run_sa.sh [build-dir] [extra dcpim_sa.py args...]
#
# The build dir must contain compile_commands.json (CMake exports it via
# CMAKE_EXPORT_COMPILE_COMMANDS, set unconditionally in the top-level
# CMakeLists.txt); a configure-only run is enough:
#
#   cmake -B build -S .
#   tools/run_sa.sh build
#
# The JSON report lands in <build-dir>/sa_report.json and the lifetime
# ledger in <build-dir>/sa_lifetime.json (both uploaded as CI artifacts). Exit status: 0 clean, 1 findings or suppression-ratchet
# regression, 2 usage error.
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
shift || true

if ! command -v python3 >/dev/null 2>&1; then
    echo "run_sa.sh: python3 not found; skipping static analysis" >&2
    exit 0
fi

COMPDB="${BUILD_DIR}/compile_commands.json"
if [[ ! -f "${COMPDB}" ]]; then
    echo "run_sa.sh: ${COMPDB} not found — configure first:" >&2
    echo "  cmake -B ${BUILD_DIR} -S ." >&2
    exit 2
fi

# Parallel parse across cores, with parsed-TU models cached by content hash
# (editing the tool or a file invalidates its entries; the CI lane persists
# the cache dir between runs so pushes only re-parse what changed).
exec python3 tools/dcpim_sa.py \
    --compdb "${COMPDB}" \
    --json "${BUILD_DIR}/sa_report.json" \
    --lifetime-json "${BUILD_DIR}/sa_lifetime.json" \
    --cache-dir "${BUILD_DIR}/sa_cache" \
    --jobs 0 \
    "$@"
