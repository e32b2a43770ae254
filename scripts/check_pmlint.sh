#!/bin/sh
# Static-analysis gate: run pmlint over lib/ and fail on any unsuppressed
# finding. Two legs:
#
#   - clean leg (default): `dune exec bin/pmlint.exe -- --json OUT lib`
#     must exit 0 — zero unsuppressed findings on the committed tree —
#     and the machine-readable report lands in OUT for the CI artifact.
#   - planted leg (PMB_PLANT=pmlint_fixture): the dirty fixture tree
#     under test/fixtures/pmlint/dirty joins the scan and pmlint must
#     exit NON-zero (11 planted violations across the three rules),
#     proving the analyzer still has teeth.
#
# Usage: scripts/check_pmlint.sh [OUT_JSON]  (default PMLINT.json)
set -eu
cd "$(dirname "$0")/.."

out_json="${1:-PMLINT.json}"

if [ "${PMB_PLANT:-}" = "pmlint_fixture" ]; then
    echo "check_pmlint: planted leg - the dirty fixtures must fail the scan"
    if dune exec bin/pmlint.exe -- --quiet --json "$out_json" \
         lib test/fixtures/pmlint/dirty; then
        echo "check_pmlint: FAIL - pmlint passed a tree with planted violations" >&2
        exit 1
    fi
    echo "check_pmlint: planted violations caught"
    exit 0
fi

dune exec bin/pmlint.exe -- --json "$out_json" lib
echo "check_pmlint: clean ($out_json written)"
