#!/usr/bin/env bash
# Argument handling of bench_throughput: `--out FILE` or one bare FILE
# name the output; every other flag or extra argument is a usage error
# (exit 2, usage line on stderr) caught before any measurement runs and
# before any file is written.
# Usage: test_bench_throughput_args.sh /path/to/bench_throughput
set -u

BENCH="${1:?usage: test_bench_throughput_args.sh /path/to/bench_throughput}"
BENCH="$(cd "$(dirname "$BENCH")" && pwd)/$(basename "$BENCH")"
failures=0
workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

expect_usage() {
    local desc="$1"
    shift
    local out
    out="$(cd "$workdir" && "$BENCH" "$@" 2>&1)"
    local got=$?
    if [ "$got" -ne 2 ]; then
        echo "FAIL $desc: expected exit 2, got $got (args: $*)"
        failures=$((failures + 1))
    elif [[ "$out" != *"usage: bench_throughput"* ]]; then
        echo "FAIL $desc: no usage message (args: $*)"
        failures=$((failures + 1))
    else
        echo "ok   $desc"
    fi
}

expect_usage "unknown flag" --bogus
expect_usage "unknown short flag" -o out.json
expect_usage "--out without its value" --out
expect_usage "--out with a trailing extra argument" --out out.json extra
expect_usage "two bare paths" a.json b.json

leftovers="$(ls -A "$workdir")"
if [ -n "$leftovers" ]; then
    echo "FAIL rejected invocations wrote files: $leftovers"
    failures=$((failures + 1))
fi

if [ "$failures" -ne 0 ]; then
    echo "$failures failure(s)"
    exit 1
fi
echo "all bench_throughput argument cases passed"
