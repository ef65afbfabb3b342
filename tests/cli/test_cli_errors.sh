#!/usr/bin/env bash
# CLI error-path coverage: every misuse must exit with its documented
# code (2 usage, 3 config error, 4 lint error findings) and must never
# crash or abort.
# Usage: test_cli_errors.sh /path/to/fxhenn
set -u

CLI="${1:?usage: test_cli_errors.sh /path/to/fxhenn}"
failures=0
case_no=0

expect() {
    local want="$1"
    local desc="$2"
    shift 2
    case_no=$((case_no + 1))
    local out
    out="$("$CLI" "$@" 2>&1)"
    local got=$?
    if [ "$got" -ne "$want" ]; then
        echo "FAIL [$case_no] $desc: expected exit $want, got $got"
        echo "     cmd: fxhenn $*"
        echo "$out" | sed 's/^/     | /'
        failures=$((failures + 1))
        return
    fi
    case "$out" in
    *"terminate called"* | *Aborted* | *Segmentation*)
        echo "FAIL [$case_no] $desc: exit $got but crashed:"
        echo "$out" | sed 's/^/     | /'
        failures=$((failures + 1))
        return
        ;;
    esac
    echo "ok   [$case_no] $desc (exit $got)"
}

# Like expect, but with FXHENN_SIMD set for the child only.
expect_simd() {
    local simd="$1"
    local want="$2"
    local desc="$3"
    shift 3
    case_no=$((case_no + 1))
    local out
    out="$(FXHENN_SIMD="$simd" "$CLI" "$@" 2>&1)"
    local got=$?
    if [ "$got" -ne "$want" ]; then
        echo "FAIL [$case_no] $desc: expected exit $want, got $got"
        echo "     cmd: FXHENN_SIMD=$simd fxhenn $*"
        echo "$out" | sed 's/^/     | /'
        failures=$((failures + 1))
        return
    fi
    case "$out" in
    *"terminate called"* | *Aborted* | *Segmentation*)
        echo "FAIL [$case_no] $desc: exit $got but crashed:"
        echo "$out" | sed 's/^/     | /'
        failures=$((failures + 1))
        return
        ;;
    esac
    echo "ok   [$case_no] $desc (exit $got)"
}

# --- usage errors: exit 2 ------------------------------------------------
expect 2 "no command"
expect 2 "unknown subcommand" frobnicate

# --- configuration errors: exit 3 ----------------------------------------
expect 3 "unknown model" info --model lenet300
expect 3 "unknown device" design --model mnist --device virtex7
expect 3 "missing plan file" plan --load /nonexistent/path/plan.bin
expect 3 "flag missing its value" info --model
expect 3 "malformed flag (no --)" info model mnist
expect 3 "unknown flag for command" verify --bogus 1
expect 3 "non-numeric seed" verify --seed notanumber
expect 3 "negative seed" verify --seed -3
expect 3 "bad guard policy" verify --guard lenient
expect 3 "non-positive sweep step" sweep --model mnist --step 0
expect 3 "malformed fault spec" info --model mnist --fault nocolon
expect 3 "unknown fault site" info --model mnist --fault no.site:bitflip
expect 3 "bad plan layer index" plan --model mnist --layer twelve

# --- FXHENN_SIMD env contract: bad value exit 3, valid values run --------
expect_simd "sse9" 3 "FXHENN_SIMD: unknown value" info --model mnist
expect_simd "AVX2" 3 "FXHENN_SIMD: case-sensitive" info --model mnist
expect_simd "scalar" 0 "FXHENN_SIMD=scalar still works" info --model mnist
expect_simd "auto" 0 "FXHENN_SIMD=auto still works" info --model mnist
# Explicit-but-unavailable must degrade to scalar, never crash; avx512
# is the level most likely to be missing, so it doubles as the
# graceful-fallback case on hosts without it.
expect_simd "avx512" 0 "FXHENN_SIMD=avx512 runs or degrades" info --model mnist

# --- no execution-backend flag -------------------------------------------
# The executor has one arithmetic path, so --backend is an unsupported
# flag of every command, like any other unknown flag.
expect 3 "verify rejects --backend (unsupported flag)" verify --backend cpu
expect 3 "batch rejects --backend (unsupported flag)" batch --model test --backend cpu
expect 3 "info rejects --backend (unsupported flag)" info --model mnist --backend cpu
# design always replays the winning design point through the pipeline
# schedule and prints the per-layer predicted-vs-simulated block.
case_no=$((case_no + 1))
out="$("$CLI" design --model mnist 2>&1)"
got=$?
if [ "$got" -eq 0 ] &&
    printf '%s\n' "$out" | grep -q "replay   predicted-vs-simulated" &&
    printf '%s\n' "$out" | grep -q "Fc1: predicted" &&
    printf '%s\n' "$out" | grep -q "max prediction error"; then
    echo "ok   [$case_no] design prints the replay block (exit $got)"
else
    echo "FAIL [$case_no] design: expected exit 0 and the replay block, got exit $got"
    echo "$out" | sed 's/^/     | /'
    failures=$((failures + 1))
fi

# --- batch (concurrent inference engine) misuse: exit 3 ------------------
expect 3 "batch: zero requests" batch --model test --requests 0
expect 3 "batch: zero workers" batch --model test --workers 0
expect 3 "batch: non-numeric workers" batch --model test --workers many
expect 3 "batch: bad check mode" batch --model test --check twice
expect 3 "batch: values-elided model" batch --model cifar10
expect 3 "batch: unknown model" batch --model lenet300
expect 3 "batch: unknown flag" batch --model test --depth 4
expect 3 "batch: bad guard policy" batch --model test --guard lenient
expect 3 "batch: zero deadline" batch --model test --deadline-ms 0
expect 3 "batch: non-numeric deadline" batch --model test --deadline-ms soon
expect 3 "batch: bad admission policy" batch --model test --admission drop
expect 3 "batch: retries over cap" batch --model test --retries 17
expect 3 "batch: non-numeric retries" batch --model test --retries many
expect 3 "batch: zero batch size" batch --model test --batch-size 0
expect 3 "batch: non-numeric batch size" batch --model test --batch-size sixteen
expect 3 "batch: batch size not dividing the slot count" \
    batch --model test --batch-size 3
expect 3 "verify rejects --batch-size (unsupported flag)" \
    verify --batch-size 4
expect 3 "lint rejects --batch-size (unsupported flag)" \
    lint --model mnist --batch-size 4

# --- batch SLO collapse: exit 6 ------------------------------------------
# One worker, a 1 ms deadline and a ~60 ms model: request 0 blows its
# deadline mid-run and every request behind it expires before starting,
# so the run is shed-dominated and must report SHED, not a crypto
# failure.
expect 6 "batch: shed-dominated run" batch --model test --requests 4 \
    --workers 1 --deadline-ms 1 --admission shed --check none

# --- lint: exit 3 on misuse, exit 4 on error-severity findings -----------
# A plan that cannot be loaded is itself an error-severity finding, so
# lint reports it as a diagnostic and exits 4 (not 3): the lint verdict
# on an unreadable artifact is "broken", not "you typed it wrong".
garbage="$(mktemp)"
saved="$(mktemp)"
printf 'this is not a serialized plan\n' > "$garbage"
trap 'rm -f "$garbage" "$saved"' EXIT

expect 3 "lint: bad output format" lint --model mnist --format yaml
expect 3 "lint: unknown flag" lint --model mnist --bogus 1
expect 4 "lint: missing plan file" lint --load /nonexistent/plan.bin
expect 4 "lint: corrupt plan file" lint --load "$garbage"

# --verify-plan 1 verifies what `plan --load` reads: a compiled,
# saved plan loads and verifies clean.
expect 0 "plan: save the mnist plan" plan --model mnist --save "$saved"
expect 0 "plan: load it back with --verify-plan 1" \
    plan --load "$saved" --verify-plan 1

# The pipeline the docs describe: exactly these passes, in this order.
case_no=$((case_no + 1))
want="def-use scale-level liveness rotation-keys slot-layout noise-budget rescale-placement batch-layout"
out="$("$CLI" lint --list-passes 1 2>&1)"
got=$?
names="$(printf '%s\n' "$out" | cut -d: -f1 | tr '\n' ' ' | sed 's/ $//')"
if [ "$got" -eq 0 ] && [ "$names" = "$want" ]; then
    echo "ok   [$case_no] lint --list-passes prints the 8 passes in order (exit $got)"
else
    echo "FAIL [$case_no] lint --list-passes: expected exit 0 and '$want', got exit $got and '$names'"
    failures=$((failures + 1))
fi

echo
if [ "$failures" -ne 0 ]; then
    echo "$failures of $case_no CLI error-path cases failed"
    exit 1
fi
echo "all $case_no CLI error-path cases passed"
exit 0
