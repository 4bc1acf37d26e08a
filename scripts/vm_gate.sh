#!/usr/bin/env bash
# The VM speed-up gate (docs/VM.md, "Gate methodology"). The bytecode tier
# must parse a record at least 1.6 times faster than the reference
# interpreter on the Sirius and the CLF corpus. Both sides are per-layer
# metrics of the benchmark's traced run — same corpus, interleaved passes,
# one clock — so this script times nothing: it divides two numbers that
# `benchmark/run.sh --trace 1` prints on its last line.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

status=0
for workload in sirius_vet clf_accum; do
    result=$(bash benchmark/run.sh --workload "$workload" --seed 1 --seconds 16 --trace 1 | tail -n 1)
    ratio=$(jq '.metrics | .["interp.parse_ns_per_record"].value / .["vm.parse_ns_per_record"].value' <<<"$result")
    echo "vm-gate: $workload interp.parse_ns_per_record / vm.parse_ns_per_record = $ratio (need >= 1.6)"
    if ! jq -en "$ratio >= 1.6" >/dev/null; then
        echo "vm-gate: FAIL: $workload: the VM is only $ratio times faster than the interpreter" >&2
        status=1
    fi
done
[[ $status -eq 0 ]] && echo "vm-gate: OK"
exit $status
