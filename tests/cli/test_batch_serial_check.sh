#!/usr/bin/env bash
# `fxhenn batch --check serial` passes on a healthy build: at B = 1 the
# served logits must be bitwise those of the serial reference, at B = 4
# within 1e-2 and on the same argmax. Each run must exit 0 and print
# PASS.
# Usage: test_batch_serial_check.sh /path/to/fxhenn
set -u

FXHENN="${1:?usage: test_batch_serial_check.sh /path/to/fxhenn}"
failures=0

for batch in 1 4; do
    out="$("$FXHENN" batch --model test --requests 4 --batch-size "$batch" \
        --check serial 2>&1)"
    got=$?
    if [ "$got" -ne 0 ]; then
        echo "FAIL batch-size $batch: expected exit 0, got $got"
        echo "$out"
        failures=$((failures + 1))
    elif ! grep -qx "PASS" <<<"$out"; then
        echo "FAIL batch-size $batch: no PASS line"
        echo "$out"
        failures=$((failures + 1))
    else
        echo "ok   batch-size $batch"
    fi
done

exit "$failures"
