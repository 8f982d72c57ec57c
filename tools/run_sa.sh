#!/usr/bin/env bash
# Runs dcpim-sa, the project checker, over src/ and bench/ (sixth CI lane).
#
# Usage: tools/run_sa.sh [out-dir] [extra dcpim_sa.py args...]
#
# The checker reads the checkout itself and needs no configure step:
#
#   tools/run_sa.sh build
#
# The JSON report lands in <out-dir>/sa_report.json and the lifetime
# ledger in <out-dir>/sa_lifetime.json (both uploaded as CI artifacts).
# Exit status: 0 clean, 1 findings or suppression-ratchet regression, 2
# usage error.
set -euo pipefail

cd "$(dirname "$0")/.."

OUT_DIR="${1:-build}"
shift || true

if ! command -v python3 >/dev/null 2>&1; then
    echo "run_sa.sh: python3 not found; skipping static analysis" >&2
    exit 0
fi

exec python3 tools/dcpim_sa.py \
    --json "${OUT_DIR}/sa_report.json" \
    --lifetime-json "${OUT_DIR}/sa_lifetime.json" \
    "$@"
