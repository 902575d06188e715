#!/bin/sh
# Runs `cargo test "$@"` and fails when its name filters ran no test at
# all: a filter naming a test that was renamed or deleted would
# otherwise pass silently.
out=$(cargo test "$@" 2>&1)
status=$?
printf '%s\n' "$out"
[ "$status" -eq 0 ] || exit "$status"
ran=$(printf '%s\n' "$out" | sed -n 's/^test result: [a-zA-Z]*\. \([0-9][0-9]*\) passed.*/\1/p' | awk '{s += $1} END {print s + 0}')
if [ "$ran" -eq 0 ]; then
    echo "named-tests: no test matched: cargo test $*" >&2
    exit 1
fi
